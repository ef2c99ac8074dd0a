"""One benchmark run in its own Ray session.

``run.py`` starts this module in a fresh process group, so one kill stops
it and every Ray process it started.  It writes the phase it is in to
``<work>/phase`` (for the watchdog) and its full result to ``--out``.

Every workload sets up the same way: start Ray with ``--cpus`` logical
CPUs, build an index of its corpus, start a ``QueryEngine``.  Then:

* ``build``       — timed window of full ``build_index`` runs over a
  Zipf-vocabulary corpus, each into a fresh dir (the set-up build is the
  warm-up).  Operation: one build.
* ``search_hot``  — one client, closed loop: ``QueryEngine.search(q, k=10)``
  over a hot-vocabulary index.  Queries repeat, so the shards' decode cache
  stays resident.
* ``search_tail`` — the same over a Zipf-vocabulary index, with query words
  drawn without replacement from low-df words, so every query misses the
  decode cache.  The last ``SNIPPET_SHARE`` of the window runs
  ``search(q, k=10, snippet=True)`` instead (hydration); its latency is a
  per-layer metric, the rest of the window gives the end-to-end ones.

Sampled results are checked after the window, against the oracle computed
before the engine starts (no Ray Data job runs while shard actors hold the
CPUs).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import shutil
import time
from typing import Dict, List, Optional

import numpy as np

import inputs
import oracle
import tracing

K = 10
N_FILES = 12          # one index partition per file
SNIPPET_SHARE = 0.25  # of the search_tail window
SAMPLE_EVERY = 10     # every 10th plain op is checked ...
SAMPLES = 48          # ... up to this many
SNIPPET_SAMPLES = 16  # the first snippet ops are checked
WARMUP_OPS = 40
SLICES = 12           # end-to-end figures are medians over the quietest
QUIET_SLICES = 3      # of the window's time slices
TAIL_PLAIN = 4000     # tail queries never share a word: the pool bounds a window
TAIL_SNIPPET = 800

WORKLOADS = ("build", "search_hot", "search_tail")
# vocabulary and conversations (~8 turns each) of each workload's corpus
CORPUS = {"build": ("tail", 2000), "search_hot": ("hot", 3000), "search_tail": ("tail", 3000)}

# name -> unit; every workload prints all of them with --trace 0.  An op is
# one build (build) or one search (search_*).  The op latencies come from
# the part of the window during which the hypervisor stole the least CPU:
# the quietest time slices of a search window (``sliced``), the quieter half
# of the builds.  work_per_s is the work of one op over the median op time:
# turns per second of a build, queries per second of the one waiting client.
# The p90 moves with the host's load far more than the median does, so it
# is a per-layer figure (op.p90_ms).
E2E = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "work_per_s": "1/s",
    "index_bytes_per_text_byte": "B/B",
}
PER_LAYER = {  # name -> unit; printed by every workload with --trace 1
    "build.conv_map_s": "s", "build.ingest_s": "s", "build.tokenize_s": "s",
    "build.vocab_s": "s", "build.blocks_s": "s",
    "build.parts": "count", "build.postings": "count", "build.payload_bytes": "B",
    "engine.start_s": "s", "engine.shards": "count",
    "query.tokenize_ms": "ms", "query.vocab_df_ms": "ms", "query.glue_ms": "ms",
    "query.fanout_ms": "ms", "query.rpc_ms": "ms", "query.merge_ms": "ms",
    "query.resolve_ms": "ms", "query.finish_ms": "ms",
    "query.hydrate_ms": "ms", "query.hydrate_parts": "count", "query.snippet_ms": "ms",
    "shard.exec_ms": "ms", "shard.postings_decoded_per_query": "count",
    "shard.cache_hit_ratio": "ratio", "shard.windows_pruned_ratio": "ratio",
    "shard.maxscore_parts_per_query": "count",
    "op.p90_ms": "ms", "snippet.p50_ms": "ms", "snippet.p90_ms": "ms",
    "trace.op_p50_ms": "ms", "trace.layer_sum_ms": "ms", "trace.overhead_ms": "ms",
}
# layers whose self times add up to one search; the fan-out holds shard
# execution and RPC
SEARCH_LAYERS = ("query.tokenize", "query.vocab_df", "query.glue", "query.fanout",
                 "query.merge", "query.resolve", "query.finish")
# query layers each workload must exercise under tracing (build: in the
# searches that check its last index)
EXPECTED = {
    "build": SEARCH_LAYERS + ("query.hydrate", "query.snippet"),
    "search_hot": SEARCH_LAYERS,
    "search_tail": SEARCH_LAYERS + ("query.hydrate", "query.snippet"),
}


def micros(scores) -> np.ndarray:
    return np.floor(np.asarray(scores, dtype=np.float64) * 1e6 + 0.5).astype(np.int64)


def pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class SliceClock:
    """Cuts a timed window into ``n`` equal slices and reads, at each slice
    boundary, the CPU time the hypervisor has stolen from this machine."""

    def __init__(self, seconds: float, n: int) -> None:
        self.t0 = time.perf_counter()
        self.n = n
        self.length = seconds / n
        self.steal = [stolen_cpu_s()]

    def tick(self) -> None:
        """Call between ops."""
        while len(self.steal) <= self.n and \
                time.perf_counter() >= self.t0 + self.length * len(self.steal):
            self.steal.append(stolen_cpu_s())

    def stolen_cpus(self) -> List[float]:
        """Per slice, the average number of CPUs stolen."""
        s = self.steal + [stolen_cpu_s()] * (self.n + 1 - len(self.steal))
        return [(b - a) / self.length for a, b in zip(s, s[1:])]


def sliced(lat_ms: List[float], done_at: List[float], slice_s: float, stolen: List[float],
           quiet_slices: int = QUIET_SLICES):
    """(p50, p90, ops used) of a window cut into equal time slices:
    each figure is the median over the ``quiet_slices`` slices during which
    the hypervisor stole the least CPU time (``stolen``, per slice).  On a
    shared host a slice's p90 rises steeply with the CPU time other machines
    take; a slower program moves every slice."""
    lat = np.asarray(lat_ms)
    which = np.minimum((np.asarray(done_at) / slice_s).astype(int), len(stolen) - 1)
    quiet = sorted(range(len(stolen)), key=lambda i: stolen[i])[:quiet_slices]
    per = [lat[which == i] for i in quiet]
    return (float(np.median([np.percentile(p, 50) for p in per if len(p)])),
            float(np.median([np.percentile(p, 90) for p in per if len(p)])),
            sum(len(p) for p in per))


def stolen_cpu_s() -> float:
    """CPU seconds the hypervisor took from this machine since boot (the
    steal column of /proc/stat); 0 where that is not available."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Session:
    def __init__(self, args) -> None:
        self.a = args
        self.vocab, self.n_convs = CORPUS[args.workload]
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.detail: Dict[str, object] = {}
        self.tracer = tracing.Tracer() if args.trace else None
        self.engine = None
        self.recorded: Dict[tuple, tuple] = {}  # (stream, op) -> (query, result)
        self.next_op: Dict[str, int] = {}       # stream -> next op number
        self._index_no = 0

    # ------------------------------------------------------------ plumbing
    def phase(self, name: str) -> None:
        with open(os.path.join(self.a.work, "phase"), "w") as f:
            f.write(name)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def build(self, traced: bool):
        from oboyu_ray.pipelines.build_index import build_index

        self._index_no += 1
        index_dir = os.path.join(self.a.work, f"index{self._index_no}")
        with self.tracing(traced, "build"):
            t0 = time.perf_counter()
            report = build_index(self.corpus.files, index_dir)
            dt = time.perf_counter() - t0
        if traced:
            self.tracer.end_op()
        if report["n_docs"] != self.corpus.n_turns:
            self.fail(f"build indexed {report['n_docs']} of {self.corpus.n_turns} turns")
        return index_dir, report, dt

    def tracing(self, on: bool, what: str):
        if not on:
            return contextlib.nullcontext()
        seams = tracing.build_seams() if what == "build" else tracing.query_seams(self.engine)
        return self.tracer.installed(seams)

    def start_engine(self, index_dir: str) -> float:
        """Start the engine twice (the first start is closed again) and
        return the median start time.  Each start waits until every logical
        CPU is free: the pool size follows ``ray.available_resources()``."""
        import ray

        from oboyu_ray.pipelines.query import QueryEngine

        times = []
        for _ in range(2):
            if self.engine is not None:
                self.engine.close()
            deadline = time.time() + 30
            while ray.available_resources().get("CPU", 0) < self.a.cpus and time.time() < deadline:
                time.sleep(0.05)
            t0 = time.perf_counter()
            self.engine = QueryEngine(index_dir)
            self.engine.search(self.warm_q[0], k=K)  # the pool answers
            times.append(time.perf_counter() - t0)
        self.metrics["engine.shards"] = float(len(self.engine.actors))
        return float(np.median(times))

    # ------------------------------------------------------------ run
    def run(self) -> dict:
        import ray

        a = self.a
        self.phase("inputs")
        self.corpus = inputs.make_corpus(os.path.join(a.work, "src"), self.vocab,
                                         self.n_convs, N_FILES, a.seed)
        if self.vocab == "hot":
            self.plain_q = inputs.hot_queries(a.seed, 400)
            self.warm_q, self.snip_q = self.plain_q[:WARMUP_OPS], []
        else:
            pool = inputs.tail_queries(self.corpus, a.seed,
                                       WARMUP_OPS + TAIL_PLAIN + TAIL_SNIPPET)
            self.warm_q = pool[:WARMUP_OPS]
            self.plain_q = pool[WARMUP_OPS:WARMUP_OPS + TAIL_PLAIN]
            self.snip_q = pool[WARMUP_OPS + TAIL_PLAIN:]

        self.phase("ray_start")
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=a.cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 * 1024 * 1024, _temp_dir=a.ray_tmp)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        ray.data.range(4 * a.cpus, override_num_blocks=2 * a.cpus).map_batches(
            lambda b: b).materialize()  # start the Ray Data workers
        init_s = time.perf_counter() - t0

        self.phase("setup_build")
        index_dir, report, build_s = self.build(traced=bool(a.trace) and a.workload != "build")
        self.metrics["index_bytes_per_text_byte"] = report["payload_bytes"] / self.corpus.text_bytes
        self.metrics["build.parts"] = float(report["n_parts"])
        self.metrics["build.postings"] = float(report["total_postings"])
        self.metrics["build.payload_bytes"] = float(report["payload_bytes"])
        if a.trace and a.workload != "build":
            self.build_layer_metrics(self.tracer.take_ops())

        if a.workload == "build":
            index_dir = self.measure_builds()

        self.phase("oracle")
        self.expected = oracle.expected_topk(
            self.corpus.texts, [q for _, q in self.sampled()], K,
            os.path.join(a.work, os.pardir, "oracle"), a.root,
            f"{self.vocab}-{self.n_convs}-{N_FILES}-{a.seed}")

        self.phase("engine_start")
        engine_s = self.start_engine(index_dir)
        self.metrics["engine.start_s"] = engine_s
        self.metrics["setup_s"] = init_s + build_s + engine_s
        self.detail["setup_parts_s"] = {"ray_start": init_s, "build": build_s,
                                        "engine_start": engine_s}

        if a.workload == "build":
            self.phase("check")
            self.check_build()
        else:
            self.phase("warmup")
            for q in self.warm_q:
                self.engine.search(q, k=K)
            self.measure_queries()
            self.phase("check")
            self.check_recorded()

        self.phase("shutdown")
        t0 = time.perf_counter()
        self.engine.close()
        ray.shutdown()
        self.detail["shutdown_s"] = time.perf_counter() - t0
        return self.result()

    def sampled(self) -> List[tuple]:
        """(stream, op) keys and queries of the ops whose results are
        checked."""
        if self.a.workload == "build":
            plain = range(SAMPLES)
        else:
            plain = range(0, SAMPLES * SAMPLE_EVERY, SAMPLE_EVERY)
        out = [(("plain", i), self.query("plain", i)) for i in plain]
        if self.snip_q:
            out += [(("snippet", i), self.query("snippet", i)) for i in range(SNIPPET_SAMPLES)]
        return out

    def query(self, stream: str, i: int) -> Optional[str]:
        qs = self.plain_q if stream == "plain" else self.snip_q
        if self.vocab == "hot":
            return qs[i % len(qs)]
        return qs[i] if i < len(qs) else None

    # ------------------------------------------------------------ build
    def measure_builds(self) -> str:
        a = self.a
        halves = [False, True] if a.trace else [False]
        index_dir = None
        times: Dict[bool, List[float]] = {}
        stolen: List[float] = []  # per untraced build, CPUs stolen on average
        for traced in halves:
            self.phase("measure_traced" if traced else "measure")
            times[traced] = []
            t_end = time.perf_counter() + a.seconds / len(halves)
            typical = 0.0
            while time.perf_counter() + typical / 2 < t_end:  # half a build still fits
                if index_dir is not None:
                    shutil.rmtree(index_dir, ignore_errors=True)
                self.attempted += 1
                steal0 = stolen_cpu_s()
                try:
                    index_dir, _, dt = self.build(traced)
                except Exception as e:  # a failed build is a failed op; go on
                    self.fail(f"build: {type(e).__name__}: {e}")
                    index_dir = None
                    continue
                times[traced].append(dt)
                if not traced:
                    stolen.append((stolen_cpu_s() - steal0) / dt)
                typical = float(np.median(times[traced]))
        if index_dir is None or not all(times.values()):
            raise RuntimeError("no build in the window succeeded")
        # like ``sliced``: the quieter half of the builds, by stolen CPU
        quiet = sorted(range(len(stolen)), key=lambda i: stolen[i])[:(len(stolen) + 1) // 2]
        build_ms = [times[False][i] * 1e3 for i in quiet]
        self.metrics.update({"op_p50_ms": pct(build_ms, 50), "op.p90_ms": pct(build_ms, 90),
                             "work_per_s": self.corpus.n_turns / pct(build_ms, 50) * 1e3})
        self.samples.update(op=len(build_ms), work_per_s=len(build_ms))
        self.detail["build_s"] = times[False]
        self.detail["stolen_cpus"] = [round(x, 3) for x in stolen]
        if a.trace:
            self.build_layer_metrics(self.tracer.take_ops())
            self.trace_overhead([t * 1e3 for t in times[True]], [t * 1e3 for t in times[False]])
        return index_dir

    def check_build(self) -> None:
        """The last build answers the sampled queries like the oracle.
        Under tracing, these searches also give the query layers."""
        with self.tracing(bool(self.a.trace), "query"):
            for key, q in self.sampled():
                self.attempted += 1
                try:
                    self.recorded[key] = (q, self.engine.search(q, k=K,
                                                                snippet=key[0] == "snippet"))
                except Exception as e:  # counted as failed
                    self.fail(f"search {q!r}: {type(e).__name__}: {e}")
                if self.tracer is not None:
                    self.tracer.end_op(key[0] == "snippet")
        self.check_recorded()
        if self.tracer is not None:
            self.query_layer_metrics(self.tracer.take_ops(), None)

    # ------------------------------------------------------------ queries
    def measure_queries(self) -> None:
        a = self.a
        halves = [False, True] if a.trace else [False]
        share = {"plain": 1 - SNIPPET_SHARE, "snippet": SNIPPET_SHARE} if self.snip_q else {"plain": 1}
        runs = {}
        for stream in share:  # snippet windows last: Ray reaps their extra workers after them
            if stream == "snippet":
                # hydration tasks run on idle Ray workers; start them untimed
                for q in self.warm_q[:4]:
                    self.engine.search(q, k=K, snippet=True)
            for traced in halves:
                self.phase(f"measure_{stream}" + ("_traced" if traced else ""))
                seconds = a.seconds * share[stream] / len(halves)
                if traced:
                    self.engine.query_stats(reset=True)
                with self.tracing(traced, "query"):
                    t0 = time.time()
                    r = self.search_window(stream, seconds, traced)
                    r["t0"], r["t1"] = t0, time.time()
                if traced:
                    r["counters"] = self.engine.query_stats(reset=True)
                runs[stream, traced] = r
        plain = runs["plain", False]
        self.detail["op_ms"] = [round(x, 3) for x in plain["lat_ms"]]
        self.detail["stolen_cpus"] = [round(x, 3) for x in plain["stolen_cpus"]]
        p50, p90, used = sliced(plain["lat_ms"], plain["done_at"], plain["slice_s"],
                                plain["stolen_cpus"])
        self.metrics.update({"op_p50_ms": p50, "op.p90_ms": p90, "work_per_s": 1e3 / p50})
        self.samples.update(op=used, work_per_s=used)
        snip = runs["snippet", False]["lat_ms"] if self.snip_q else []
        self.metrics["snippet.p50_ms"] = pct(snip, 50)
        self.metrics["snippet.p90_ms"] = pct(snip, 90)
        self.samples["snippet"] = len(snip)
        if a.trace:
            traced = runs["plain", True]
            self.trace_overhead(traced["lat_ms"], plain["lat_ms"])
            self.shard_counters(traced["counters"], len(traced["lat_ms"]))
            self.query_layer_metrics(self.tracer.take_ops(), traced)

    def search_window(self, stream: str, seconds: float, traced: bool) -> dict:
        lat: List[float] = []
        done_at: List[float] = []  # completion, seconds into the window
        snippet = stream == "snippet"
        sampled = {key for key, _ in self.sampled()}
        op = self.next_op.get(stream, 0)
        clock = SliceClock(seconds, SLICES)
        t_start, t_end = clock.t0, clock.t0 + seconds
        while time.perf_counter() < t_end:
            q = self.query(stream, op)
            if q is None:
                break  # tail pool used up: the window ends early
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = self.engine.search(q, k=K, snippet=snippet)
            except Exception as e:  # a failed op counts; the loop goes on
                self.fail(f"search {q!r}: {type(e).__name__}: {e}")
                out = None
            dt = (time.perf_counter() - t0) * 1e3
            if traced:
                self.tracer.end_op(snippet)
            if out is not None:
                lat.append(dt)
                done_at.append(time.perf_counter() - t_start)
                if (stream, op) in sampled:
                    self.recorded[(stream, op)] = (q, out)
            op += 1
            clock.tick()
        self.next_op[stream] = op
        return {"lat_ms": lat, "done_at": done_at, "slice_s": clock.length,
                "stolen_cpus": clock.stolen_cpus()}

    # ------------------------------------------------------------ tracing
    def trace_overhead(self, traced_ms: List[float], plain_ms: List[float]) -> None:
        self.metrics["trace.op_p50_ms"] = pct(traced_ms, 50)
        self.metrics["trace.overhead_ms"] = pct(traced_ms, 50) - pct(plain_ms, 50)

    def expect_layers(self, ops: List[Dict[str, float]], layers) -> None:
        seen = {layer for o in ops for layer in o}
        missing = sorted(set(layers) - seen)
        if missing:
            raise tracing.MissingSeam(f"traced run recorded no span for {missing}")

    def build_layer_metrics(self, ops: List[Dict[str, float]]) -> None:
        self.expect_layers(ops, tracing.BUILD_PHASES.values())
        for layer in tracing.BUILD_PHASES.values():
            self.metrics[layer + "_s"] = tracing.median_self(ops, layer)

    def query_layer_metrics(self, ops: List[Dict[str, float]], window: Optional[dict]) -> None:
        self.expect_layers(ops, EXPECTED[self.a.workload])
        plain = [o for o in ops if not o.get("snippet")]
        for layer in SEARCH_LAYERS:
            self.metrics[layer + "_ms"] = tracing.median_self(plain, layer) * 1e3
        for layer in ("query.hydrate", "query.snippet"):
            self.metrics[layer + "_ms"] = tracing.median_self(ops, layer) * 1e3
        self.detail["hydrate_ms"] = [round(o["query.hydrate"] * 1e3, 2) for o in ops
                                     if "query.hydrate" in o]
        self.metrics["trace.layer_sum_ms"] = sum(
            self.metrics[layer + "_ms"] for layer in SEARCH_LAYERS)
        parts = [self.hydrate_parts(out) for (stream, _), (_, out) in self.recorded.items()
                 if stream == "snippet"]
        self.metrics["query.hydrate_parts"] = pct(parts, 50)
        if window is None:  # the build workload: too few searches to time the shards
            return

        # shard self time from the Ray timeline: the longest shard task of a
        # fan-out is the one the engine waited for
        events = self.timeline_events(window["t0"], window["t1"])
        if not events:
            raise RuntimeError("ray.timeline() holds no IndexShard task in the traced window")
        spans = [(s, e) for s, e in self.tracer.spans["query.fanout"]
                 if window["t0"] <= s <= window["t1"]]
        crit = tracing.shard_exec_per_span(events, spans)
        self.metrics["shard.exec_ms"] = pct(crit, 50)
        self.metrics["query.rpc_ms"] = pct([(e - s) * 1e3 for s, e in spans], 50) - pct(crit, 50)

    def shard_counters(self, c: Dict[str, int], n_queries: int) -> None:
        n = max(n_queries, 1)
        hits, misses = c.get("cache_hits", 0), c.get("cache_misses", 0)
        pruned, scanned = c.get("windows_pruned", 0), c.get("windows_scanned", 0)
        self.metrics["shard.postings_decoded_per_query"] = c.get("postings_decoded", 0) / n
        self.metrics["shard.cache_hit_ratio"] = hits / max(hits + misses, 1)
        self.metrics["shard.windows_pruned_ratio"] = pruned / max(pruned + scanned, 1)
        self.metrics["shard.maxscore_parts_per_query"] = c.get("maxscore_parts", 0) / n
        self.detail["shard_counters"] = c

    def timeline_events(self, t0: float, t1: float) -> List[dict]:
        import ray

        seen, events = -1, []
        deadline = time.time() + 8
        while time.time() < deadline:  # task events reach the GCS in batches
            time.sleep(1.2)
            events = tracing.shard_events(ray.timeline(), t0, t1)
            if len(events) == seen:
                break
            seen = len(events)
        return events

    def hydrate_parts(self, out) -> int:
        docs = out["doc_num"].to_numpy()
        return sum(1 for s in self.engine.report.get("part_summaries", [])
                   if ((docs >= s["doc_min"]) & (docs <= s["doc_max"])).any())

    # ------------------------------------------------------------ checks
    def check_recorded(self) -> None:
        """Recorded results against the oracle."""
        for key, (q, out) in sorted(self.recorded.items()):
            rows = [(self.corpus.row_of(c, t), int(m)) for c, t, m in
                    zip(out["conv_id"], out["turn_idx"], micros(out["score"]))]
            problems = oracle.compare(rows, self.expected[q], K, K + oracle.EXTRA)
            if key[0] == "snippet":
                for c, t, text in zip(out["conv_id"], out["turn_idx"], out["text"]):
                    if text != self.corpus.texts[self.corpus.row_of(c, t)]:
                        problems.append(f"hydrated text of {c}:{t} is not the source turn")
                        break
            if problems:
                self.fail(f"query {q!r}: {problems[0]}")
            self.checked += 1
        if self.checked == 0:
            self.fail("no sampled result was checked")
        self.detail["checked"] = self.checked

    # ------------------------------------------------------------ result
    def result(self) -> dict:
        names = PER_LAYER if self.a.trace else E2E
        return {
            "workload": self.a.workload, "seed": self.a.seed, "trace": self.a.trace,
            "attempted": self.attempted, "failed": self.failed, "errors": self.errors,
            "metrics": {n: {"value": float(self.metrics.get(n, 0.0)), "unit": u}
                        for n, u in names.items()},
            "samples": self.samples, "all_metrics": self.metrics, "detail": self.detail,
        }


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cpus", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--ray-tmp", required=True)
    p.add_argument("--out", required=True)
    a = p.parse_args()
    res = Session(a).run()
    with open(a.out, "w") as f:
        json.dump(res, f)


if __name__ == "__main__":
    main()
