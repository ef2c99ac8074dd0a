#!/usr/bin/env python
"""Benchmark driver for the oboyu_ray engine.

Headline pipeline (the BASELINE.json north metric):
  1. index-build throughput (turns/sec): synthetic multi-turn transcripts
     (deterministic, `input_hint` schema) -> full distributed build
     (conv_map -> ingest -> tokenize -> vocabulary -> compressed blocks).
  2. query p50/p95 latency: rank-identical BM25 top-k over the shard actor
     pool, reference-style query set, warmup + repeated runs.
  3. the driver-contract queries() suite timed over $GRAFT_SF_DIR
     (default /root/testdata/sf0.1).

The last stdout line is ONE compact JSON object (at most LAST_LINE_MAX
chars): the headline fields plus `details`, the path of a side file under
BENCH_ROOT that holds the full result (per-operator suite seconds, feature
latencies, scaling legs).

`--scaling`: runs the SAME build+query job in three fresh subprocesses at
num_cpus=2, 8 and 32 (N vs 4N stand-ins, see BASELINE.md), reports
throughput at each plus both 4x efficiencies; the headline `value` is the
2->8 efficiency (the uncontended region of this shared host — the 8->32
pair is read against the measured host multiprocessing ceiling emitted in
`host_mp_ceiling_8_to_32`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback

DEFAULT_SF_DIR = "/root/testdata/sf0.1"
BENCH_ROOT = "/tmp/oboyu_bench"
N_CONVS = int(os.environ.get("OBOYU_BENCH_CONVS", "48000"))
# scaling legs need a compute-bound regime: small corpora measure fixed
# overhead (Ray Data scheduling, the vocabulary shuffle), not scalability
SCALING_CONVS = int(os.environ.get("OBOYU_BENCH_SCALING_CONVS", "192000"))
CONVS_PER_FILE = 400
QUERY_RUNS = 100
QUERY_WARMUP = 5
# fields too large for the last stdout line: side file only
DETAIL_KEYS = ("queries", "feature_p50_ms", "legs")
LAST_LINE_MAX = 1500

BENCH_QUERIES = [
    "検索 エンジン",
    "分散 処理 高速",
    "日本語 形態素 解析",
    "index partition shuffle",
    "throughput latency",
    "token 頻度 統計",
    "ランキング スコア",
    "checkpoint lineage metric",
    "圧縮 ブロック",
    "query ranking score merge",
]


def _sf_label(sf_dir: str) -> float:
    base = os.path.basename(sf_dir.rstrip("/"))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return -1.0


def ensure_transcripts(n_convs: int = None, parallel: bool = False) -> list:
    from oboyu_ray.sources.transcripts import (
        write_synth_transcripts,
        write_synth_transcripts_parallel,
    )

    n = n_convs or N_CONVS
    tdir = os.path.join(BENCH_ROOT, f"transcripts_{n}")
    if parallel:
        return write_synth_transcripts_parallel(tdir, n, seed=42, convs_per_file=CONVS_PER_FILE)
    return write_synth_transcripts(tdir, n, seed=42, convs_per_file=CONVS_PER_FILE)


def run_build_and_query(num_cpus: int, sf_dir: str, with_suite: bool, n_convs: int = None) -> dict:
    """One full measurement in the current process (Ray session owned here)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
        )

    import numpy as np

    from oboyu_ray.config import DEFAULT_BUILD_CONFIG
    from oboyu_ray.pipelines.build_index import build_index
    from oboyu_ray.pipelines.query import QueryEngine

    files = ensure_transcripts(n_convs, parallel=True)

    # fresh index dir per run: measure a cold build, not a checkpoint resume
    index_dir = os.path.join(BENCH_ROOT, f"index_cpus{num_cpus}")
    shutil.rmtree(index_dir, ignore_errors=True)

    # warm the Ray Data worker pool (process spawn + import cost) so the
    # timed section measures steady-state throughput, as the reference bench
    # harness does with its warmup runs (bench/config.py:58-79)
    import ray.data

    ray.data.range(num_cpus * 4).map_batches(lambda b: b).materialize()

    t0 = time.time()
    report = build_index(files, index_dir, DEFAULT_BUILD_CONFIG, files_per_part=1)
    build_sec = time.time() - t0
    n_turns = report["n_docs"]
    turns_per_sec = n_turns / build_sec if build_sec else 0.0

    # ---- query latency over the shard actor pool
    engine = QueryEngine(index_dir)
    for _ in range(QUERY_WARMUP):  # warm EVERY query (cold runs skew p95)
        for q in BENCH_QUERIES:
            engine.search(q, k=10)
    lat = []
    for i in range(QUERY_RUNS):
        q = BENCH_QUERIES[i % len(BENCH_QUERIES)]
        tq = time.time()
        engine.search(q, k=10)
        lat.append(time.time() - tq)
    lat_ms = np.asarray(lat) * 1e3
    query_p50_ms = float(np.percentile(lat_ms, 50))
    query_p95_ms = float(np.percentile(lat_ms, 95))

    # QPS via the batched path at the reference harness's top-k ladder
    # (bench/config.py:39-56: QPS at top-k in {1,5,10,20,50}).
    # NOTE: close() must come AFTER this loop — a closed pool makes the
    # first search_many pay a full actor-pool respawn inside the k=1 leg
    # (it did, for two rounds of BENCH history; spotted in round 4)
    qps = {}
    for kk in (1, 5, 10, 20, 50):
        t0 = time.time()
        rounds = 3
        for _ in range(rounds):
            engine.search_many(BENCH_QUERIES, k=kk)
        qps[f"k{kk}"] = round(rounds * len(BENCH_QUERIES) / (time.time() - t0), 1)

    # Pipelined (double-buffered) serving: one batch in flight while the
    # driver merges the previous one — shard actors run queued batches
    # back-to-back, hiding the driver merge + RPC turnaround.  Same exact
    # results as search_many (pinned in tests); this is the sustained-
    # throughput number a serving deployment sees.
    qps_pipe = {}
    depth, rounds = 4, 24
    for kk in (1, 5, 10, 20, 50):
        t0 = time.time()
        pending = []
        for _ in range(rounds):
            pending.append(engine.search_many_submit(BENCH_QUERIES, k=kk))
            if len(pending) >= depth:
                engine.search_many_result(pending.pop(0))
        while pending:
            engine.search_many_result(pending.pop(0))
        qps_pipe[f"k{kk}"] = round(
            rounds * len(BENCH_QUERIES) / (time.time() - t0), 1
        )
    engine.close()

    out = {
        "num_cpus": num_cpus,
        "n_turns": n_turns,
        "build_sec": round(build_sec, 3),
        "turns_per_sec": round(turns_per_sec, 1),
        "query_p50_ms": round(query_p50_ms, 2),
        "query_p95_ms": round(query_p95_ms, 2),
        "qps_batched": qps,
        "qps_pipelined": qps_pipe,
        "build_timings_sec": report["timings_sec"],
        "payload_bytes": report["payload_bytes"],
        "total_postings": report["total_postings"],
    }

    if with_suite:
        out.update(run_feature_latency(files, num_cpus))
        out.update(run_query_suite(sf_dir))
    return out


def run_feature_latency(files: list, num_cpus: int) -> dict:
    """Positional-index feature probes over the same corpus: phrase / NEAR /
    prefix / boolean-NOT p50 latency plus the positional build cost.
    Phrase/NEAR probes are harvested from a real document (guaranteed
    adjacency); returned as `feature_p50_ms` + `positional_build_sec`."""
    import numpy as np
    import pyarrow.parquet as pq

    from oboyu_ray.config import BM25Config, BuildConfig
    from oboyu_ray.pipelines.build_index import build_index
    from oboyu_ray.pipelines.query import QueryEngine
    from oboyu_ray.stages.postings import get_tokenizer

    pos_dir = os.path.join(BENCH_ROOT, f"index_pos_cpus{num_cpus}")
    shutil.rmtree(pos_dir, ignore_errors=True)
    t0 = time.time()
    build_index(files, pos_dir, BuildConfig(store_positions=True), files_per_part=1)
    pos_build_sec = time.time() - t0

    tok = get_tokenizer(BM25Config())
    a = b = None
    for text in pq.read_table(files[0], columns=["text"]).column("text").to_pylist():
        ts = tok.tokenize(text or "")
        if len(ts) >= 4:
            a, b = ts[0], ts[1]
            break
    engine = QueryEngine(pos_dir)
    probes = {
        "phrase": lambda: engine.search_phrase(f"{a} {b}", k=10),
        "near4": lambda: engine.search_near(a, b, window=4, k=10),
        "prefix": lambda: engine.search_prefix(a[:3], k=10, max_terms=500_000),
        "not": lambda: engine.search(BENCH_QUERIES[0], k=10, exclude=a),
        # fuzzy probe: drop the probe term's last char and ask for ~1 —
        # guaranteed non-empty expansion (the term itself is 1 edit away)
        "fuzzy1": lambda: engine.search_fuzzy(
            a[:-1] if len(a) > 2 else a, max_edits=1, k=10, max_terms=500_000
        ),
        # scoped probe: first ~5% of the corpus (part/window skipping)
        "scoped": lambda: engine.search(
            BENCH_QUERIES[0], k=10, scope=(0, max(1, engine.stats["N"] // 20))
        ),
        # round-5 session-3 modes: regex (alternation over the two probe
        # terms), wildcard (literal-prefix pruned), boolean AST (dense
        # presence path), blended synonym group, more-like-this (doc 0)
        "regex": lambda: engine.search_regex(
            f"({a}|{b})s?", k=10, max_terms=500_000
        ),
        "wildcard": lambda: engine.search_wildcard(
            a[:3] + "*", k=10, max_terms=500_000
        ),
        "bool": lambda: engine.search_bool(
            f"({a} AND {b}) OR ({a} NOT {b})", k=10
        ),
        "synonym": lambda: engine.search_synonym(a, {a: [b]}, k=10),
        "mlt": lambda: engine.more_like_this(0, k=10),
        # round-5 session-4 modes: disjunction-max (dense max+sum), boosted
        # terms (pre-scaled weights through the ordinary OR path)
        "dismax": lambda: engine.search_dismax(f"{a} {b}", k=10, tiebreak=0.3),
        "boosted": lambda: engine.search_boosted(f"{a} {b}", {a: 2.0}, k=10),
        "span_near3": lambda: engine.search_span_near(f"{a} {b}", window=3, k=10),
        # collapsed retrieval (top conversations by best turn) + counting
        "collapse": lambda: engine.search_collapse(f"{a} {b}", k=10),
        "count": lambda: engine.count_matches(f"{a} {b}"),
    }
    feat = {}
    for name, fn in probes.items():
        fn()  # warm (decodes into the shard caches)
        ts = []
        for _ in range(10):
            tq = time.time()
            fn()
            ts.append((time.time() - tq) * 1e3)
        feat[name] = round(float(np.percentile(ts, 50)), 2)
    engine.close()
    return {"feature_p50_ms": feat, "positional_build_sec": round(pos_build_sec, 3)}


def run_query_suite(sf_dir: str) -> dict:
    """Time each driver-contract queries() entry over sf_dir: `queries`
    maps a name to seconds.  A query that raises is recorded in `failed`
    as "ErrType: msg" and the suite goes on, so the last line still
    prints."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entrymod

    timings, failed = {}, {}
    for name, fn in entrymod.queries().items():
        t0 = time.time()
        try:
            res = fn(sf_dir)
            if isinstance(res, ray.data.Dataset):
                # consume the stream (count() executes the full pipeline here:
                # every query ends in a map/aggregate, not a metadata-only read)
                res.count()
            elif isinstance(res, (pd.DataFrame, pa.Table)):
                len(res)
        except Exception as e:  # one broken query must not lose the suite
            traceback.print_exc(file=sys.stderr)
            failed[name] = f"{type(e).__name__}: {e}"[:200]
            continue
        timings[name] = round(time.time() - t0, 3)
    return {"queries": timings, "failed": failed}


def last_line(result: dict, details_path: str) -> str:
    """The compact last stdout line: every field of `result` except
    DETAIL_KEYS, plus `details`; nested dicts are dropped too if the line
    would still exceed LAST_LINE_MAX."""
    head = {k: v for k, v in result.items() if k not in DETAIL_KEYS}
    head["details"] = details_path
    line = json.dumps(head)
    if len(line) > LAST_LINE_MAX:
        head = {k: v for k, v in head.items() if not isinstance(v, dict)}
        line = json.dumps(head)
    return line


def emit(result: dict, name: str) -> None:
    path = os.path.join(BENCH_ROOT, f"last-{name}.json")
    with open(path, "w") as f:
        json.dump(result, f)
    print(last_line(result, path))


def _host_mp_ceiling(lo: int = 8, hi: int = 32) -> dict:
    """Pure-Python busy-loop multiprocessing throughput at lo vs hi workers:
    the host's OWN scaling ceiling (shared/throttled sandbox CPUs), reported
    alongside the engine's efficiency so the lo->hi number can be read
    against what perfectly-parallel work achieves on this machine."""
    import multiprocessing as mp

    def thr(workers: int) -> float:
        t0 = time.time()
        with mp.Pool(workers) as p:
            p.map(_busy, range(workers))
        return workers / (time.time() - t0)

    t_lo, t_hi = thr(lo), thr(hi)
    return {f"thr{lo}": round(t_lo, 2), f"thr{hi}": round(t_hi, 2),
            f"efficiency_{lo}_to_{hi}": round((t_hi / t_lo) / (hi / lo), 3)}


def _busy(_i: int) -> int:
    x = 0
    for i in range(20_000_000):
        x += i
    return x


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--legs", default="2,8,32",
                    help="comma-separated CPU counts for --scaling legs; e.g. "
                         "4,16 runs the uncontended 4x ladder (both legs "
                         "leave >=half the host idle)")
    ap.add_argument("--child", action="store_true", help="internal: one scaling leg")
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--sf-dir", default=os.environ.get("GRAFT_SF_DIR", DEFAULT_SF_DIR))
    args = ap.parse_args()

    num_cpus = args.num_cpus or int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    os.makedirs(BENCH_ROOT, exist_ok=True)

    if args.child:
        res = run_build_and_query(num_cpus, args.sf_dir, with_suite=False,
                                  n_convs=SCALING_CONVS)
        print(json.dumps(res))
        return

    if args.scaling:
        # pre-generate the scaling corpus once with full parallelism, then
        # shut this Ray session down so each leg owns a fresh one
        import ray

        ray.init(address="local", num_cpus=32, include_dashboard=False)
        ensure_transcripts(SCALING_CONVS, parallel=True)
        ray.shutdown()

        leg_cpus = [int(c) for c in args.legs.split(",")]
        legs = {}
        for cpus in leg_cpus:
            env = dict(os.environ)
            env.pop("RAY_ADDRESS", None)
            p = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child",
                 "--num-cpus", str(cpus), "--sf-dir", args.sf_dir],
                capture_output=True, text=True, env=env, timeout=1800,
            )
            if p.returncode != 0:
                sys.stderr.write(p.stderr[-4000:])
                raise SystemExit(f"scaling leg num_cpus={cpus} failed")
            legs[cpus] = json.loads(p.stdout.strip().splitlines()[-1])
        thr = {c: legs[c]["turns_per_sec"] for c in legs}
        effs = {}
        for lo, hi in zip(leg_cpus, leg_cpus[1:]):
            effs[f"scaling_efficiency_{lo}_to_{hi}"] = round(
                (thr[hi] / thr[lo]) / (hi / lo) if thr[lo] else 0.0, 3
            )
        primary = next(iter(effs.values()), 0.0)
        host_ceiling = _host_mp_ceiling(leg_cpus[-2], leg_cpus[-1])
        result = {
            "metric": "index-build scaling efficiency across CPU legs "
                      f"{leg_cpus} (first ratio is the headline; the last "
                      "ratio is read against host_mp_ceiling — the host's "
                      "own shared/throttled-CPU scaling limit)",
            "value": primary,
            "unit": "efficiency",
            "sf": _sf_label(args.sf_dir),
            "num_cpus": leg_cpus[-1],
            **effs,
            f"host_mp_ceiling_{leg_cpus[-2]}_to_{leg_cpus[-1]}": host_ceiling,
            "throughput_turns_per_sec": thr,
            "legs": legs,
        }
        emit(result, "scaling")
        return

    res = run_build_and_query(num_cpus, args.sf_dir, with_suite=True)
    result = {
        "metric": "transcript index build wall time (turns_per_sec = throughput; "
                  "queries = per-operator suite seconds; query_p50_ms = BM25 latency)",
        "value": res["build_sec"],
        "unit": "sec",
        "queries": res.pop("queries"),
        "sf": _sf_label(args.sf_dir),
        **res,
    }
    emit(result, "bench")

    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
