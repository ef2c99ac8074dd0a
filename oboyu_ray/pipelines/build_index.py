"""Distributed BM25 inverted-index build — Ray-Data-first, doc-partitioned.

ARCHITECTURE (deliberate deviation from SURVEY §2.3-T7, documented here):
the index is **document-partitioned**, not term-partitioned.  Each partition
holds complete posting lists for its range of documents, so a multi-term
BM25 score is computed entirely inside one shard and per-shard top-k merge
is exact (the Lucene/Elasticsearch model).  Term-partitioned shards cannot
answer multi-term queries without a per-doc score join across shards.

Scale consequences (the reason this wins at 10^12 turns):
* Posting rows NEVER cross partitions — there is no all-to-all shuffle of
  the ~10^13-row postings table.  The reference's single giant per-term
  grouping (inverted_index_builder.py:26, SURVEY A6 "the big shuffle")
  disappears structurally.
* Hot-term skew (Japanese particles with df ≈ N, SURVEY §4) cannot
  concentrate on one reducer: a hot term's postings are spread evenly
  across doc partitions by construction.  This is the engine's salting
  equivalent — partitioning by the OTHER key of the (term, doc) matrix.
  The only term-keyed shuffle left is the vocabulary aggregate, whose input
  is pre-aggregated per partition (term partials), bounding any term's
  shuffle fan-in to (#partitions) rows.
* The wide stages stream: each phase is one Ray Data job over a tiny
  dataset of partition specs (``run_specs``: one block, and so one task,
  per cluster CPU, running its partitions in turn); each partition's
  output goes straight to parquet and only a small summary row comes back.
  The partition stays the unit of checkpointing and resume.

Phases (each checkpointed via state/checkpoint.py, resumable, atomic):
  0. ingest     — per input-file group: read transcripts, assemble docs
                  (deterministic doc_id = (conv_id, turn_idx)), assign dense
                  doc_num = conv_offset + turn_idx, write docs-{part}.parquet.
  C   conv map  — groupby(conv_id).agg(span) → sort(conv_id) → per-file
                  prefix offsets (the only global ordering pass; conv-level,
                  ~1/100th of turn rows).
  A. tokenize   — per partition: docs → postings (term, doc_num, tf, dl)
                  sorted by (term, doc_num) + per-doc dl table; emits the
                  partition's term partials (term, df, cf) for the
                  vocabulary as ONE file, vocab_partials/p{part}.parquet,
                  sorted by bucket = crc32(term) % B, one row group per
                  bucket.
  B. vocabulary — min(B, #partials files) contiguous bucket slices, run
                  by at most one task per CPU: read a slice's row groups
                  of every partials file, groupby(bucket, term) → one
                  vocab-{b}.parquet per bucket + stats.json
                  (N, total_dl, avgdl).
  C. blocks     — per partition: postings → aligned-window compressed
                  posting blocks (delta+varint docs, varint tfs, per-block
                  min/max tf-norm for signed block-max pruning).

The per-entry length-norm inputs (tf, dl) are stored in the block payloads
(J1 build-time bake, SURVEY §2.4), so query-time scoring needs only the
broadcast scalars (N, avgdl) and per-query-term df — idf is applied at query
time, which keeps Phase C independent of the vocabulary (no term join).

Reference semantics carried over: tokenize/statistics exactly as
bm25_statistics_calculator.py / tokenizer.py (see stages/postings.py);
per-turn text byte-equality with the source under (conv_id, turn_idx)
ordering is preserved because ingest never rewrites `text`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Count, Max

from oboyu_ray.config import BuildConfig, DEFAULT_BUILD_CONFIG
from oboyu_ray.stages.postings import get_tokenizer, term_partials_batch
from oboyu_ray.state.checkpoint import (
    Manifest,
    atomic_write_json,
    atomic_write_table,
    file_sig,
    files_sig,
)

DOCS_SCHEMA = pa.schema(
    [
        ("doc_num", pa.int64()),
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("text", pa.string()),
        ("role", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)


def _dirs(index_dir: str) -> Dict[str, str]:
    d = {
        name: os.path.join(index_dir, name)
        for name in ("docs", "postings", "dls", "blocks", "conv_map", "vocab", "vocab_partials")
    }
    for p in d.values():
        os.makedirs(p, exist_ok=True)
    return d


def _cluster_cpus() -> int:
    """Logical CPUs of the Ray cluster; the machine's before Ray is up
    (Ray Data then starts a local cluster over all of them)."""
    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    return os.cpu_count() or 1


def run_specs(items: List[Dict], fn: Callable[[Dict], pa.Table]) -> List[Dict]:
    """Run ``fn`` over small spec rows (partitions, files, bucket slices)
    as ONE Ray Data job; returns the rows of the tables it returns.  The
    rows go in min(#rows, cluster CPUs) contiguous blocks, one task each,
    that run their rows in turn: every phase pays a task launch per CPU,
    not per partition, and a task holds one row's data at a time."""
    if not items:
        return []

    def run(batch: pa.Table) -> Iterator[pa.Table]:
        for row in batch.to_pylist():
            yield fn(row)

    return (
        ray.data.from_items(items, override_num_blocks=min(len(items), _cluster_cpus()))
        .map_batches(run, batch_format="pyarrow", batch_size=None)
        .take_all()
    )


# --------------------------------------------------------------- conv map

def build_conv_map(
    transcript_files: List[str],
    index_dir: str,
    change_strategy: str = "timestamp",
    sig_cache=None,
) -> Dict[str, object]:
    """Conversation → starting doc_num offsets.

    Fast path (zero-shuffle): input files hold disjoint conversation ranges
    (the same assumption ingest documents for log-structured transcript
    stores).  A first ``run_specs`` job computes each file's local
    (conv_id, span) table + prefix offsets, at most one task per CPU; the
    driver prefix-sums the tiny per-file span totals and a second job
    stamps each file's global base offset (in tasks, not on the driver:
    at 10^6+ files the driver must not rewrite every conv-map file).
    Cost: two passes over conv-level metadata, two jobs whatever the file
    count, no all-to-all.

    Fallback (files interleave conversations, detected by overlapping
    per-file conv_id ranges): global groupby(conv_id) + sort — the only
    conv-level shuffle in the engine, over ~1/100th of turn rows.
    """
    out_dir = os.path.join(index_dir, "conv_map")
    done_marker = os.path.join(out_dir, "_DONE.json")
    input_sig = files_sig(transcript_files, change_strategy, sig_cache)
    if os.path.exists(done_marker):
        with open(done_marker) as f:
            info = json.load(f)
        if info.get("input_sig") == input_sig:
            return info
        # inputs changed → rebuild the conversation map from scratch

    fast = _build_conv_map_disjoint(transcript_files, index_dir)
    if fast is not None:
        fast["input_sig"] = input_sig
        atomic_write_json(done_marker, fast)
        return fast
    out = _build_conv_map_shuffle(transcript_files, index_dir)
    out["input_sig"] = input_sig
    atomic_write_json(done_marker, out)
    return out


def _build_conv_map_disjoint(
    transcript_files: List[str], index_dir: str
) -> Optional[Dict[str, object]]:
    """Per-file spans + driver prefix-sum; returns None when per-file
    conversation ranges overlap (caller falls back to the shuffle path)."""
    out_dir = os.path.join(index_dir, "conv_map")
    local_dir = out_dir + ".local"
    os.makedirs(local_dir, exist_ok=True)
    # clear prior map files: a rebuild with fewer inputs must not leave stale
    # higher-rank files behind (ConvMapHandle reads the whole directory)
    for f in os.listdir(out_dir):
        if f.endswith(".parquet"):
            os.remove(os.path.join(out_dir, f))

    def spans_one_file(row: Dict) -> pa.Table:
        i, f = int(row["i"]), row["file"]
        t = pq.read_table(f, columns=["conv_id", "turn_idx"])
        g = (
            t.group_by("conv_id")
            .aggregate([("turn_idx", "max"), ("turn_idx", "count")])
            .sort_by("conv_id")
        )
        span = pc.add(g.column("turn_idx_max").cast(pa.int64()), 1)
        local = pa.table(
            {
                "conv_id": g.column("conv_id"),
                "span": span,
                "n_turns": g.column("turn_idx_count").cast(pa.int64()),
            }
        )
        spans_np = local.column("span").to_numpy().astype(np.int64)
        offsets = (
            np.concatenate(([0], np.cumsum(spans_np)[:-1]))
            if len(spans_np)
            else np.zeros(0, dtype=np.int64)
        )
        local = local.append_column("local_offset", pa.array(offsets, type=pa.int64()))
        path = os.path.join(local_dir, f"local-{i:05d}.parquet")
        atomic_write_table(path, local)
        return pa.table(
            {
                "i": [i],
                "path": [path],
                "min_conv": [str(local.column("conv_id")[0]) if local.num_rows else ""],
                "max_conv": [str(local.column("conv_id")[-1]) if local.num_rows else ""],
                "span_sum": [int(spans_np.sum()) if len(spans_np) else 0],
                "n_convs": [local.num_rows],
            }
        )

    summaries = run_specs([{"i": i, "file": f} for i, f in enumerate(transcript_files)],
                          spans_one_file)
    summaries = [s for s in summaries if s["n_convs"] > 0]
    summaries.sort(key=lambda s: s["min_conv"])
    for a, b in zip(summaries, summaries[1:]):
        if b["min_conv"] <= a["max_conv"]:  # overlapping conv ranges
            import shutil

            shutil.rmtree(local_dir, ignore_errors=True)
            return None

    base = 0
    stamped = []
    for rank, s in enumerate(summaries):
        stamped.append({"rank": rank, "i": int(s["i"]), "path": s["path"], "base": base})
        base += int(s["span_sum"])

    def stamp(row: Dict) -> pa.Table:
        import zlib

        t = pq.read_table(row["path"])
        off = pc.add(t.column("local_offset"), int(row["base"]))
        out = t.drop_columns(["local_offset"]).append_column("conv_offset", off)
        path = os.path.join(out_dir, f"conv-map-{int(row['rank']):05d}.parquet")
        atomic_write_table(path, out)
        with open(path, "rb") as fh:
            crc = zlib.crc32(fh.read())
        return pa.table({"path": [path], "crc": [crc], "i": [int(row["i"])]})

    import zlib

    results = sorted(run_specs(stamped, stamp), key=lambda r: r["path"])
    final_files = [r["path"] for r in results]
    # content fingerprint: ingest partitions depend on conversation offsets;
    # a conv-map rebuild with IDENTICAL content (e.g. a text-only input edit)
    # must not invalidate committed ingest partitions, while a structural
    # change (turn counts / conversations shifted) must
    content_crc = zlib.crc32(
        (";".join(f"{r['path']}:{r['crc']}" for r in results) + f";{base}").encode()
    )
    # per-input-file conv-map fingerprint: ingest partitions depend only on
    # the conv offsets of THEIR transcript files, so a retraction/edit that
    # leaves a prefix of the conversation space untouched does not
    # invalidate the preceding partitions
    per_input_crc = {str(r["i"]): int(r["crc"]) for r in results}
    import shutil

    shutil.rmtree(local_dir, ignore_errors=True)
    return {
        "n_docs_spanned": base,
        "files": final_files,
        "content_crc": content_crc,
        "per_input_crc": per_input_crc,
    }


def _build_conv_map_shuffle(transcript_files: List[str], index_dir: str) -> Dict[str, object]:
    out_dir = os.path.join(index_dir, "conv_map")
    done_marker = os.path.join(out_dir, "_DONE.json")
    ds = ray.data.read_parquet(transcript_files, columns=["conv_id", "turn_idx"])
    spans = (
        ds.groupby("conv_id")
        .aggregate(Max("turn_idx", alias_name="max_turn"), Count(alias_name="n_turns"))
        .sort("conv_id")
    )

    def finalize(batch: pa.Table) -> pa.Table:
        span = pc.add(batch.column("max_turn").cast(pa.int64()), 1)
        return pa.table(
            {
                "conv_id": batch.column("conv_id"),
                "span": span,
                "n_turns": batch.column("n_turns").cast(pa.int64()),
            }
        )

    tmp_dir = out_dir + ".tmp"
    import shutil

    shutil.rmtree(tmp_dir, ignore_errors=True)
    spans.map_batches(finalize, batch_format="pyarrow").write_parquet(tmp_dir)

    # order output files by their min conv_id (range-partitioned by the sort,
    # so file ranges are disjoint); compute per-file span sums from metadata
    files = sorted(
        os.path.join(tmp_dir, f) for f in os.listdir(tmp_dir) if f.endswith(".parquet")
    )
    file_info = []
    for f in files:
        t = pq.read_table(f, columns=["conv_id", "span"])
        if t.num_rows == 0:
            continue
        file_info.append(
            (str(t.column("conv_id")[0]), f, int(pc.sum(t.column("span")).as_py()))
        )
    file_info.sort(key=lambda x: x[0])

    # rewrite with global conv_offset (per-file task-parallelizable; file
    # count is small so a driver loop over FILES is metadata-scale work)
    base = 0
    final_files = []
    for i, (_, f, span_sum) in enumerate(file_info):
        t = pq.read_table(f)
        spans_np = t.column("span").to_numpy()
        offsets = base + np.concatenate(([0], np.cumsum(spans_np)[:-1]))
        out = t.append_column("conv_offset", pa.array(offsets, type=pa.int64()))
        path = os.path.join(out_dir, f"conv-map-{i:05d}.parquet")
        atomic_write_table(path, out)
        final_files.append(path)
        base += span_sum
    shutil.rmtree(tmp_dir, ignore_errors=True)

    import zlib

    crcs = []
    for f in sorted(final_files):
        with open(f, "rb") as fh:
            crcs.append(f"{f}:{zlib.crc32(fh.read())}")
    info = {
        "n_docs_spanned": base,
        "files": sorted(final_files),
        "content_crc": zlib.crc32((";".join(crcs) + f";{base}").encode()),
    }
    atomic_write_json(done_marker, info)
    return info


# conversations above which ConvMapHandle switches from broadcast arrays to
# per-task range reads of the conv-map files (the map-side join of DESIGN §3)
CONV_INMEM_LIMIT = 20_000_000


class ConvMapHandle:
    """Conversation → doc-number-base lookup with a size-gated mode switch.

    * **inmem** (≤ ``inmem_limit`` conversations): the whole conv_map loads
      into sorted numpy arrays, the handle is ``ray.put`` once, every task
      does a vectorized searchsorted — the measured-fast sandbox path.
    * **range** (beyond the limit): the handle holds only per-FILE metadata
      (path, min conv_id, first conv_offset — a few bytes per conv-map
      file, read from parquet footers); a task reads just the conv-map
      files covering ITS conversation range.  Nothing — driver or worker —
      ever materializes the full conversation space, which at 10^10
      conversations is tens of GB.  conv-map files are range-partitioned
      and internally sorted by conv_id (and therefore by conv_offset), so
      both directions are file-local searchsorted lookups.
    """

    def __init__(self, index_dir: str, inmem_limit: int = CONV_INMEM_LIMIT) -> None:
        out_dir = os.path.join(index_dir, "conv_map")
        self.files = sorted(
            os.path.join(out_dir, f)
            for f in os.listdir(out_dir)
            if f.endswith(".parquet")
        )
        min_convs: List[str] = []
        first_offs: List[int] = []
        total = 0
        files = []
        for f in self.files:
            pf = pq.ParquetFile(f)
            if pf.metadata.num_rows == 0:
                continue
            total += pf.metadata.num_rows
            head = next(pf.iter_batches(batch_size=1, columns=["conv_id", "conv_offset"]))
            min_convs.append(str(head.column("conv_id")[0]))
            first_offs.append(int(head.column("conv_offset")[0].as_py()))
            files.append(f)
        self.files = files
        self.min_convs = np.asarray(min_convs, dtype=np.str_)
        self.first_offs = np.asarray(first_offs, dtype=np.int64)
        self.n_convs = total
        self.mode = "inmem" if total <= inmem_limit else "range"
        self._ids = self._offs = None
        self._by_off_ids = self._by_off = None
        # range mode: small LRU of decoded conv-map files — repeated
        # resolves (query serving) touch the same hot files; at cluster
        # scale this is the node-local cache of its conversation range
        self._file_cache: "dict[int, tuple]" = {}
        # top-k results scatter across ~k files; cap must exceed the
        # per-query working set or FIFO thrashes (each entry is one file's
        # conv range — a few hundred KB)
        self._file_cache_cap = 64
        if self.mode == "inmem":
            t = pq.read_table(out_dir, columns=["conv_id", "conv_offset"])
            ids = np.asarray(t.column("conv_id").to_pylist(), dtype=np.str_)
            offs = t.column("conv_offset").to_numpy().astype(np.int64)
            order = np.argsort(ids, kind="stable")
            self._ids, self._offs = ids[order], offs[order]
            oorder = np.argsort(offs)
            self._by_off = offs[oorder]
            self._by_off_ids = ids[oorder]

    def _read_file(self, f: int):
        """(conv_ids object array, conv_offset int64 array) of file ``f``,
        through the LRU (FIFO-evicting dict — insertion order suffices)."""
        hit = self._file_cache.get(f)
        if hit is not None:
            return hit
        t = pq.read_table(self.files[int(f)], columns=["conv_id", "conv_offset"])
        ids = np.asarray(t.column("conv_id").to_pylist(), dtype=object)
        offs = t.column("conv_offset").to_numpy().astype(np.int64)
        while len(self._file_cache) >= self._file_cache_cap:
            self._file_cache.pop(next(iter(self._file_cache)))
        self._file_cache[f] = (ids, offs)
        return ids, offs

    @staticmethod
    def _lookup_sorted(ids_sorted: np.ndarray, offs: np.ndarray, conv: np.ndarray) -> np.ndarray:
        ix = np.searchsorted(ids_sorted, conv)
        bad = (ix >= len(ids_sorted)) | (
            ids_sorted[np.minimum(ix, len(ids_sorted) - 1)] != conv
        )
        if bad.any():
            raise ValueError(f"conversation {conv[bad][0]!r} missing from conv_map")
        return offs[ix]

    def lookup_offsets(self, conv: np.ndarray) -> np.ndarray:
        """conv_id array → conv_offset array (doc-number base per conv)."""
        conv = np.asarray(conv, dtype=np.str_)
        if self.mode == "inmem":
            return self._lookup_sorted(self._ids, self._offs, conv)
        u, inv = np.unique(conv, return_inverse=True)
        fidx = np.searchsorted(self.min_convs, u, side="right") - 1
        if (fidx < 0).any():
            raise ValueError(f"conversation {u[fidx < 0][0]!r} missing from conv_map")
        out = np.empty(len(u), dtype=np.int64)
        for f in np.unique(fidx):
            sel = fidx == f
            ids, offs = self._read_file(int(f))
            out[sel] = self._lookup_sorted(ids.astype(np.str_), offs, u[sel])
        return out[inv]

    def resolve(self, doc_nums: np.ndarray):
        """doc_num array → (conv_id array, turn_idx array)."""
        doc_nums = np.asarray(doc_nums, dtype=np.int64)
        if self.mode == "inmem":
            ix = np.searchsorted(self._by_off, doc_nums, side="right") - 1
            return (
                self._by_off_ids[ix].astype(object),
                (doc_nums - self._by_off[ix]).astype(np.int64),
            )
        fidx = np.searchsorted(self.first_offs, doc_nums, side="right") - 1
        if (fidx < 0).any():
            raise ValueError("doc_num below the conversation space")
        conv = np.empty(len(doc_nums), dtype=object)
        turn = np.empty(len(doc_nums), dtype=np.int64)
        for f in np.unique(fidx):
            sel = fidx == f
            ids, offs = self._read_file(int(f))
            ix = np.searchsorted(offs, doc_nums[sel], side="right") - 1
            conv[sel] = ids[ix]
            turn[sel] = doc_nums[sel] - offs[ix]
        return conv, turn


def _gc_stale_partitions(index_dir: str, part_ids: List[int]) -> None:
    """Remove artifacts of partitions that no longer exist (fewer input
    files than a previous build): their docs/postings/dls/blocks and phase
    manifests.  Every partials file but ``p{part}.parquet`` of a current
    partition goes too (removed partitions, the per-bucket layout, merge
    partials): the vocabulary reduce reads the whole partials directory and
    would otherwise count documents twice or from removed partitions —
    inflated df/cf against the current N."""
    import re as _re

    keep = {int(p) for p in part_ids}
    pat_by_dir = {
        "docs": _re.compile(r"docs-(\d{5})\.parquet$"),
        "postings": _re.compile(r"postings-(\d{5})\.parquet$"),
        "dls": _re.compile(r"dls-(\d{5})\.parquet$"),
        "blocks": _re.compile(r"blocks-(\d{5})\.parquet$"),
    }
    for sub, pat in pat_by_dir.items():
        d = os.path.join(index_dir, sub)
        if not os.path.isdir(d):
            continue
        for f in os.listdir(d):
            m = pat.search(f)
            if m and int(m.group(1)) not in keep:
                os.remove(os.path.join(d, f))
    pdir = os.path.join(index_dir, "vocab_partials")
    keep_partials = {f"p{p:05d}.parquet" for p in keep}
    for f in os.listdir(pdir) if os.path.isdir(pdir) else []:
        if f.endswith(".parquet") and f not in keep_partials:
            os.remove(os.path.join(pdir, f))
    for phase in ("ingest", "tokenize", "blocks"):
        d = os.path.join(index_dir, "manifests", phase)
        if not os.path.isdir(d):
            continue
        for f in os.listdir(d):
            m = _re.match(r"part-(\d+)\.json$", f)
            if m and int(m.group(1)) not in keep:
                os.remove(os.path.join(d, f))


def zlib_crc_of(values: List[int]) -> int:
    import zlib

    return zlib.crc32(";".join(str(v) for v in values).encode())


# --------------------------------------------------------------- ingest

def _ingest_one_group(
    group: Dict, conv_offsets_ref, index_dir: str, conv_fp: int = 0
) -> pa.Table:
    """Read one group of transcript files → docs-{part}.parquet (atomic) →
    summary row.  Validates turn density and per-turn text equality-by-
    construction (text is carried through untouched)."""
    part_id = int(group["part_id"])
    files = list(group["files"])
    man = Manifest(index_dir, "ingest")
    # input signatures are precomputed on the driver (strategy-aware, cached)
    # and shipped with the group; JSON roundtrip matches manifest storage
    sig = json.loads(group["sig_json"]) if "sig_json" in group else files_sig(files)
    lineage = {"files": sig, "conv_fp": conv_fp}
    out_path = os.path.join(index_dir, "docs", f"docs-{part_id:05d}.parquet")
    if man.is_done(part_id, lineage):
        m = man.get(part_id)["metrics"]
        return pa.table({k: [v] for k, v in m.items()})

    t0 = time.time()
    conv_map: ConvMapHandle = ray.get(conv_offsets_ref)
    tables = [pq.read_table(f, columns=["conv_id", "turn_idx", "role", "text", "ts"]) for f in files]
    t = pa.concat_tables(tables)

    conv = np.asarray(t.column("conv_id").to_pylist(), dtype=np.str_)
    # inmem: broadcast-array searchsorted; range: this task reads only the
    # conv-map files covering its own conversations (missing convs raise)
    doc_num = conv_map.lookup_offsets(conv) + t.column("turn_idx").to_numpy().astype(np.int64)
    if len(np.unique(doc_num)) != len(doc_num):
        raise ValueError(f"partition {part_id}: duplicate (conv_id, turn_idx) keys")
    order = np.argsort(doc_num, kind="stable")
    docs = pa.table(
        {
            "doc_num": pa.array(doc_num[order], type=pa.int64()),
            "conv_id": t.column("conv_id").take(pa.array(order)),
            "turn_idx": t.column("turn_idx").cast(pa.int32()).take(pa.array(order)),
            "text": t.column("text").take(pa.array(order)),
            "role": t.column("role").take(pa.array(order)),
            "ts": t.column("ts").take(pa.array(order)),
        }
    )
    atomic_write_table(out_path, docs)
    metrics = {
        "part_id": part_id,
        "n_docs": docs.num_rows,
        "doc_min": int(doc_num.min()) if len(doc_num) else 0,
        "doc_max": int(doc_num.max()) if len(doc_num) else -1,
        "ingest_sec": round(time.time() - t0, 3),
    }
    man.commit(part_id, [out_path], lineage, metrics)
    return pa.table({k: [v] for k, v in metrics.items()})


# input bytes per partition when build_index packs files (files_per_part=0):
# ~25k turns.  Building 1M turns in 130 files with Ray given 2 CPUs on a
# 1-vCPU host, it was the only target of {2, 4, 8, 16, 32} MiB no slower
# than one part per file; 16 and 32 MiB took 1.25x and 1.8x as long
PART_TARGET_BYTES = 2 << 20


def partition_groups(sizes: List[int], files_per_part: int, cpus: int) -> List[List[int]]:
    """Input file indices of each partition: runs of consecutive whole
    files, so conversation ranges stay disjoint.

    ``files_per_part >= 1`` is a fixed stride.  ``0`` packs by input bytes
    into n = max(min(#files, cpus), ceil(total / PART_TARGET_BYTES))
    partitions: file i goes to ⌊(bytes before it + half its bytes) / w⌋
    with w = min(PART_TARGET_BYTES, total / min(#files, cpus)), so w =
    total / n when the CPU floor sets n (balanced partitions) and w is
    the target when the target sets n (an append keeps every earlier
    file's partition).  A file larger than w skips ids; the groups are
    numbered densely, so such a layout has fewer than n partitions."""
    if files_per_part < 0:
        raise ValueError(f"files_per_part must be >= 0, got {files_per_part}")
    n_files = len(sizes)
    if files_per_part >= 1:
        return [
            list(range(s, min(s + files_per_part, n_files)))
            for s in range(0, n_files, files_per_part)
        ]
    if n_files == 0:
        return []
    b = np.asarray(sizes, dtype=np.float64)
    w = min(PART_TARGET_BYTES, b.sum() / min(n_files, cpus))
    part = ((np.cumsum(b) - b / 2) // w).astype(np.int64)
    cuts = np.flatnonzero(np.diff(part)) + 1
    return [g.tolist() for g in np.split(np.arange(n_files), cuts)]


def ingest(
    transcript_files: List[str],
    index_dir: str,
    cfg: BuildConfig,
    groups: List[List[int]],
    conv_fp: int = 0,
    per_input_crc: Optional[Dict[str, int]] = None,
    conv_inmem_limit: int = CONV_INMEM_LIMIT,
    change_strategy: str = "timestamp",
    sig_cache=None,
) -> List[Dict]:
    """Phase 0: transcripts → doc-partitioned docs tables.

    Partition i = the input files ``groups[i]`` (indices into
    ``transcript_files``, see ``partition_groups``; zero-shuffle path):
    assumes input files hold contiguous conversation ranges, which
    log-structured transcript stores do.  Partition doc ranges are
    validated for density below; badly interleaved inputs should be
    pre-sorted once (documented assumption).
    """
    conv_offsets_ref = ray.put(ConvMapHandle(index_dir, inmem_limit=conv_inmem_limit))
    sig_map = files_sig(transcript_files, change_strategy, sig_cache)
    specs = []
    for i, file_idx in enumerate(groups):
        if per_input_crc is not None:
            # partition-local conv dependency (prefix-stable under edits)
            fp = zlib_crc_of([per_input_crc.get(str(j), 0) for j in file_idx])
        else:
            fp = conv_fp  # global fallback (shuffle path / legacy)
        part_files = [transcript_files[j] for j in file_idx]
        specs.append(
            {
                "part_id": i,
                "files": part_files,
                "fp": fp,
                "sig_json": json.dumps({f: sig_map[f] for f in part_files}, sort_keys=True),
            }
        )

    summaries = run_specs(
        specs, lambda row: _ingest_one_group(row, conv_offsets_ref, index_dir, int(row["fp"]))
    )
    # sparsity sanity: window structures size O(doc range); warn when a
    # partition's doc range is far larger than its doc count
    for s in summaries:
        span = s["doc_max"] - s["doc_min"] + 1
        if s["n_docs"] and span > 4 * s["n_docs"]:
            import logging

            logging.getLogger(__name__).warning(
                "partition %s doc range sparse (%d docs over span %d); "
                "consider sorting input by (conv_id, turn_idx)",
                s["part_id"], s["n_docs"], span,
            )
    return sorted(summaries, key=lambda s: s["part_id"])


# --------------------------------------------------------------- phase A

PARTIALS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df_partial", pa.int64()),
        ("cf_partial", pa.int64()),
        ("bucket", pa.int32()),
    ]
)
# names the vocab_partials layout in the tokenize lineage, so checkpoints
# written under another layout (one file per bucket) re-tokenize
PARTIALS_FORMAT = "part-file-bucket-row-groups"


def _vocab_bucket_ids(terms: pa.ChunkedArray, n_buckets: int) -> np.ndarray:
    """Stable (cross-run, cross-version) term → bucket assignment:
    crc32(utf-8 term) % n_buckets.  The utf-8 bytes come straight from the
    Arrow string column (a binary cast), not from per-term ``str.encode``."""
    import zlib

    raw = terms.cast(pa.binary()).to_numpy(zero_copy_only=False)
    crc = np.fromiter(map(zlib.crc32, raw), dtype=np.uint32, count=len(raw))
    return (crc % n_buckets).astype(np.int32)


def _write_partials_file(path: str, partials: pa.Table, buckets: np.ndarray) -> None:
    """Write (term, df_partial, cf_partial) rows and their int32 bucket ids as ONE
    parquet file, sorted by bucket with one row group per non-empty bucket:
    the reducer picks its buckets' row groups from the footer's ``bucket``
    statistics.  A table without rows writes a file without row groups."""
    order = np.argsort(buckets, kind="stable")
    sb = buckets[order]
    t = (
        partials.take(pa.array(order))
        .append_column("bucket", pa.array(sb, type=pa.int32()))
        .cast(PARTIALS_SCHEMA)
    )
    starts = np.flatnonzero(np.diff(sb, prepend=-1))  # bucket ids are >= 0
    ends = np.append(starts[1:], len(sb))
    tmp = path + ".tmp"
    with pq.ParquetWriter(tmp, PARTIALS_SCHEMA) as w:
        for s, e in zip(starts, ends):
            w.write_table(t.slice(int(s), int(e - s)), row_group_size=int(e - s))
    os.replace(tmp, path)


def _write_bucketed_partials(
    partials: pa.Table, part_id: int, index_dir: str, n_buckets: int
) -> str:
    """The map side of the two-phase vocabulary aggregation: the
    partition's term partials, tagged with their stable term-hash bucket,
    go to ONE file ``vocab_partials/p{part}.parquet`` (one row group per
    bucket) — disjoint buckets replace the groupby shuffle."""
    out_dir = os.path.join(index_dir, "vocab_partials")
    os.makedirs(out_dir, exist_ok=True)
    name = f"p{part_id:05d}.parquet"
    # clear this partition's prior partials, in this layout and in the
    # per-bucket one (b####-p#####), so the reducer never sums them twice
    for f in os.listdir(out_dir):
        if f == name or f.endswith("-" + name):
            os.remove(os.path.join(out_dir, f))
    path = os.path.join(out_dir, name)
    _write_partials_file(path, partials, _vocab_bucket_ids(partials.column("term"), n_buckets))
    return path


def _tokenize_one_part(part_id: int, index_dir: str, cfg: BuildConfig) -> pa.Table:
    """docs-{part} → postings-{part} (term-sorted) + dls-{part} + bucketed
    term partials; returns the partition summary row."""
    man = Manifest(index_dir, "tokenize")
    docs_path = os.path.join(index_dir, "docs", f"docs-{part_id:05d}.parquet")
    postings_path = os.path.join(index_dir, "postings", f"postings-{part_id:05d}.parquet")
    dls_path = os.path.join(index_dir, "dls", f"dls-{part_id:05d}.parquet")
    lineage = {
        "docs": {docs_path: file_sig(docs_path)},
        "vocab_buckets": cfg.vocab_buckets,
        "partials_format": PARTIALS_FORMAT,
        # tokenizer settings: changed tokenization must invalidate postings
        "tokenizer": {
            "min_token_length": cfg.bm25.min_token_length,
            "use_stopwords": cfg.bm25.use_stopwords,
            "language": cfg.bm25.language,
            "mode": cfg.bm25.tokenizer_mode,
        },
    }
    # key present only when ON: legacy (position-free) checkpoints stay
    # valid, and toggling either direction invalidates the partition.  The
    # value names the positions storage format, so format changes also
    # invalidate (list<int32> v1 → pre-encoded varint cells)
    if cfg.store_positions:
        lineage["store_positions"] = "varint-cells"

    if man.is_done(part_id, lineage):
        m = man.get(part_id)["metrics"]
        return pa.table({k: [v] for k, v in m.items()})

    t0 = time.time()
    tok = get_tokenizer(cfg.bm25)
    docs = pq.read_table(docs_path, columns=["doc_num", "text"])
    doc_nums = docs.column("doc_num").to_numpy()
    texts = docs.column("text").to_pylist()

    # ONE flat token stream for the whole partition, pandas factorize (C) to
    # int codes, one lexsort groups (doc, term) runs — no per-token or
    # per-doc Python dict work.  Every tokenizer's get_term_frequencies is
    # Counter(tokenize), so tf = run length is conformant by construction.
    dls = np.zeros(len(texts), dtype=np.int64)
    all_toks: List[str] = []
    for i, text in enumerate(texts):
        toks = tok.tokenize(text or "")
        dls[i] = len(toks)
        all_toks.extend(toks)
    total = int(dls.sum())
    codes, uniques = pd.factorize(np.asarray(all_toks, dtype=object))
    doc_of = np.repeat(np.arange(len(texts), dtype=np.int64), dls)
    # lexsort is stable and tokens arrive in position order, so positions
    # stay ascending inside each (doc, term) run without a third key
    order = np.lexsort((codes, doc_of))
    d_s, c_s = doc_of[order], codes[order]
    new = np.ones(total, dtype=bool)
    new[1:] = (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])
    run_starts = np.flatnonzero(new)
    run_counts = np.diff(np.r_[run_starts, total])
    cols = {
        "term": pa.array(uniques.take(c_s[run_starts]), type=pa.string()),
        "doc_num": pa.array(doc_nums[d_s[run_starts]].astype(np.int64), type=pa.int64()),
        "tf": pa.array(run_counts, type=pa.int64()),
        "dl": pa.array(dls[d_s[run_starts]], type=pa.int64()),
    }
    if cfg.store_positions:
        # positions = indices in the FILTERED token stream (reference
        # bm25_indexer._get_term_positions semantics), stored PRE-ENCODED
        # (delta+varint per posting, a binary cell per row): the blocks
        # phase then only memcpy-slices contiguous cells per (term, window)
        # group — no list-column parquet round trip, no re-encode (the
        # list<int32> format cost ~1.3 s/part across read+flatten+delta+
        # varint in blocks)
        from oboyu_ray.state.codec import (
            grouped_delta_encode as _gde,
            varint_byte_lengths as _vbl,
            varint_encode as _venc,
        )

        doc_starts = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(dls[:-1], out=doc_starts[1:])
        p_s = (np.arange(total, dtype=np.int64) - np.repeat(doc_starts, dls))[order]
        gaps = _gde(p_s, run_starts, np.zeros(len(run_starts), dtype=np.int64))
        payload = np.frombuffer(_venc(gaps), dtype=np.uint8)
        byte_ends = np.cumsum(_vbl(gaps))
        pos_cum = np.cumsum(run_counts)  # per posting: end index in p_s
        cell_off = np.zeros(len(run_starts) + 1, dtype=np.int64)
        cell_off[1:] = byte_ends[pos_cum - 1]
        cols["pos"] = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(run_starts),
            [None, pa.py_buffer(cell_off), pa.py_buffer(payload)],
        )
    postings = pa.table(cols).sort_by([("term", "ascending"), ("doc_num", "ascending")])
    atomic_write_table(postings_path, postings)
    dls_t = pa.table(
        {"doc_num": docs.column("doc_num"), "dl": pa.array(dls, type=pa.int64())}
    )
    atomic_write_table(dls_path, dls_t)
    partials_path = _write_bucketed_partials(
        term_partials_batch(postings), part_id, index_dir, cfg.vocab_buckets
    )
    metrics = {
        "part_id": part_id,
        "n_docs": len(texts),
        "n_postings": postings.num_rows,
        "total_dl": int(dls.sum()),
        "tokenize_sec": round(time.time() - t0, 3),
    }
    man.commit(part_id, [postings_path, dls_path, partials_path], lineage, metrics)
    return pa.table({k: [v] for k, v in metrics.items()})


def tokenize_phase(part_ids: List[int], index_dir: str, cfg: BuildConfig) -> List[Dict]:
    """Phase A: partition specs → one ``run_specs`` job that tokenizes
    each partition in turn.  Postings, dls and hash-bucketed term partials
    go straight to parquet inside the task; only the small summary rows
    come back."""
    return run_specs(
        [{"part_id": p} for p in part_ids],
        lambda row: _tokenize_one_part(int(row["part_id"]), index_dir, cfg),
    )


# --------------------------------------------------------------- phase B

def _read_bucket_range(footers: List, lo: int, hi: int) -> pa.Table:
    """Rows of buckets [lo, hi) from every open partials file, reading only
    those buckets' row groups.  ``footers`` pairs each ``ParquetFile`` with
    its row groups' bucket ids (one bucket per row group, ascending)."""
    tables = []
    for pf, rg_buckets in footers:
        first, end = np.searchsorted(rg_buckets, [lo, hi])
        if end > first:
            tables.append(pf.read_row_groups(list(range(first, end))))
    return pa.concat_tables(tables) if tables else PARTIALS_SCHEMA.empty_table()


def _vocab_bucket_slices(slices: List[List[int]], index_dir: str) -> pa.Table:
    """Reduce side of the vocabulary aggregation for one task's bucket
    slices ``[[lo, hi], ...]``: open every partials file and read its
    footer once, then per slice merge the disjoint term buckets' partials
    with one C++ group_by and write a term-sorted ``vocab-{b}`` file plus
    a ``bucket-{b}`` manifest per bucket.  Returns one metrics row per
    bucket."""
    from contextlib import ExitStack

    man = Manifest(index_dir, "vocab")
    pdir = os.path.join(index_dir, "vocab_partials")
    files = sorted(
        os.path.join(pdir, f) for f in os.listdir(pdir) if f.endswith(".parquet")
    )
    lineage = {"files": files_sig(files)}
    todos = [
        [b for b in range(lo, hi) if not man.is_done(f"bucket-{b}", lineage)]
        for lo, hi in slices
    ]
    with ExitStack() as stack:
        footers = []
        for f in files if any(todos) else []:
            pf = stack.enter_context(pq.ParquetFile(f))
            col = pf.schema_arrow.get_field_index("bucket")
            rgs = (pf.metadata.row_group(i) for i in range(pf.metadata.num_row_groups))
            footers.append((pf, np.array([rg.column(col).statistics.min for rg in rgs])))
        for todo in filter(None, todos):
            g = (
                _read_bucket_range(footers, todo[0], todo[-1] + 1)
                .group_by(["bucket", "term"])
                .aggregate([("df_partial", "sum"), ("cf_partial", "sum")])
                .sort_by([("bucket", "ascending"), ("term", "ascending")])
            )
            g_buckets = g.column("bucket").to_numpy()
            for b in todo:
                s, e = np.searchsorted(g_buckets, [b, b + 1])
                grp = g.slice(int(s), int(e - s))
                vocab = pa.table(
                    {
                        "term": grp.column("term"),
                        "df": grp.column("df_partial_sum").cast(pa.int64()),
                        "cf": grp.column("cf_partial_sum").cast(pa.int64()),
                    }
                )
                out_path = os.path.join(index_dir, "vocab", f"vocab-{b:05d}.parquet")
                # term-sorted small row groups: a query-time df point lookup
                # filters to the one row group whose [min,max] term range
                # covers it instead of decoding the whole bucket file
                # (measured 300 ms → ~2 ms per term at a 15.9M-term vocabulary)
                atomic_write_table(out_path, vocab, row_group_size=16_384)
                metrics = {
                    "bucket": b,
                    "n_terms": vocab.num_rows,
                    "cf_sum": int(pc.sum(vocab.column("cf")).as_py() or 0),
                }
                man.commit(f"bucket-{b}", [out_path], lineage, metrics)
    rows = [man.get(f"bucket-{b}")["metrics"] for lo, hi in slices for b in range(lo, hi)]
    return pa.table({k: [r[k] for r in rows] for k in ("bucket", "n_terms", "cf_sum")})


def vocabulary_phase(
    index_dir: str, cfg: BuildConfig, n_docs: int, total_dl: int
) -> Dict[str, float]:
    """Phase B: C++ group_by over the tokenize phase's bucketed partials.
    The B buckets are cut into min(B, #partials files) contiguous slices,
    one group_by each (disjoint term sets → embarrassingly parallel, no
    shuffle), and the slices into at most one task per CPU, which reads
    each partials file's footer once and reduces its slices in turn.  Any
    term's reduce fan-in is bounded by #partitions rows (partials are
    pre-aggregated per partition), so hot terms cannot skew a bucket."""

    # GC bucket outputs + manifests beyond the current bucket count (a
    # shrink would otherwise leave stale vocab files that VocabLookup reads)
    import re as _re

    vdir = os.path.join(index_dir, "vocab")
    for f in os.listdir(vdir):
        m = _re.match(r"vocab-(\d{5})\.parquet$", f)
        if m and int(m.group(1)) >= cfg.vocab_buckets:
            os.remove(os.path.join(vdir, f))
    mdir = os.path.join(index_dir, "manifests", "vocab")
    if os.path.isdir(mdir):
        for f in os.listdir(mdir):
            m = _re.match(r"part-bucket-(\d+)\.json$", f)
            if m and int(m.group(1)) >= cfg.vocab_buckets:
                os.remove(os.path.join(mdir, f))

    # min(B, #partials files) contiguous bucket slices, one group_by each;
    # the slices go to at most one task per CPU, and a task reads each
    # partials file's footer once for all of its slices
    pdir = os.path.join(index_dir, "vocab_partials")
    n_files = sum(f.endswith(".parquet") for f in os.listdir(pdir))
    n_slices = max(1, min(cfg.vocab_buckets, n_files))
    bounds = [
        [int(r[0]), int(r[-1]) + 1]
        for r in np.array_split(np.arange(cfg.vocab_buckets), n_slices)
    ]
    tasks = np.array_split(np.arange(n_slices), min(n_slices, _cluster_cpus()))
    results = run_specs(
        [{"slices": [bounds[i] for i in t]} for t in tasks],
        lambda row: _vocab_bucket_slices(row["slices"], index_dir),
    )
    stats = {
        "N": n_docs,
        "total_dl": total_dl,
        "avgdl": (total_dl / n_docs) if n_docs else 0.0,
        "n_terms": int(sum(r["n_terms"] for r in results)),
    }
    atomic_write_json(os.path.join(index_dir, "stats.json"), stats)
    return stats


# --------------------------------------------------------------- phase C

def _encode_blocks_one_part(
    part_id: int, index_dir: str, cfg: BuildConfig, avgdl: float
) -> pa.Table:
    """postings-{part} → blocks-{part}.parquet: aligned-window delta+varint
    blocks with signed block-max metadata (min/max tf-norm; the idf-dependent
    bound is taken at query time — negative idf uses the MIN, SURVEY §7
    'negative IDF' hazard)."""
    from oboyu_ray.state.codec import grouped_delta_encode, varint_byte_lengths, varint_encode

    man = Manifest(index_dir, "blocks")
    postings_path = os.path.join(index_dir, "postings", f"postings-{part_id:05d}.parquet")
    blocks_path = os.path.join(index_dir, "blocks", f"blocks-{part_id:05d}.parquet")
    lineage = {
        "postings": {postings_path: file_sig(postings_path)},
        "avgdl": avgdl,
        "window_docs": cfg.window_docs,
        "k1": cfg.bm25.k1,
        "b": cfg.bm25.b,  # stored tfnorm bounds depend on k1/b
        "block_format": 2,  # v2: dl lives in the dense per-part dls table
    }
    if cfg.store_positions:
        lineage["store_positions"] = "varint-cells"  # absent for legacy indexes
    if man.is_done(part_id, lineage):
        m = man.get(part_id)["metrics"]
        return pa.table({k: [v] for k, v in m.items()})

    t0 = time.time()
    p = pq.read_table(postings_path)
    n = p.num_rows
    W = cfg.window_docs
    k1, b = cfg.bm25.k1, cfg.bm25.b

    if n == 0:
        empty_cols = {
            "term": pa.array([], type=pa.string()),
            "win": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int32()),
            "docs": pa.array([], type=pa.binary()),
            "tfs": pa.array([], type=pa.binary()),
            "max_tfnorm": pa.array([], type=pa.float64()),
            "min_tfnorm": pa.array([], type=pa.float64()),
        }
        if cfg.store_positions:
            empty_cols["pos"] = pa.array([], type=pa.large_binary())
        empty = pa.table(empty_cols)
        atomic_write_table(blocks_path, empty)
        metrics = {"part_id": part_id, "n_blocks": 0, "n_postings": 0,
                   "payload_bytes": 0, "encode_sec": round(time.time() - t0, 3)}
        man.commit(part_id, [blocks_path], lineage, metrics)
        return pa.table({k: [v] for k, v in metrics.items()})

    term_arr = p.column("term")
    doc = p.column("doc_num").to_numpy().astype(np.int64)
    tf = p.column("tf").to_numpy().astype(np.float64)
    dl = p.column("dl").to_numpy().astype(np.float64)

    # group key = (term, window); postings are sorted by (term, doc_num) so
    # groups are contiguous runs
    win = doc // W
    term_codes = term_arr.dictionary_encode().combine_chunks().indices.to_numpy().astype(np.int64)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = (term_codes[1:] != term_codes[:-1]) | (win[1:] != win[:-1])
    starts = np.flatnonzero(change)
    ends = np.concatenate((starts[1:], [n]))
    counts = (ends - starts).astype(np.int32)

    # per-entry exact tf-norm (float64, same expression as query-time
    # scoring, so the stored block bound can never be below a real score)
    tfnorm = (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * (dl / avgdl)))
    max_tfnorm = np.maximum.reduceat(tfnorm, starts)
    min_tfnorm = np.minimum.reduceat(tfnorm, starts)

    # one vectorized varint pass over ALL groups, then slice per group
    bases = (win[starts] * W).astype(np.int64)
    doc_gaps = grouped_delta_encode(doc, starts, bases)
    doc_payload = np.frombuffer(varint_encode(doc_gaps), dtype=np.uint8)
    doc_lens = varint_byte_lengths(doc_gaps)
    doc_ends = np.cumsum(doc_lens)
    doc_off = np.zeros(len(starts) + 1, dtype=np.int64)
    doc_off[1:] = doc_ends[ends - 1]

    tf_u = tf.astype(np.uint64)
    tf_payload = np.frombuffer(varint_encode(tf_u), dtype=np.uint8)
    tf_lens = varint_byte_lengths(tf_u)
    tf_ends = np.cumsum(tf_lens)
    tf_off = np.zeros(len(starts) + 1, dtype=np.int64)
    tf_off[1:] = tf_ends[ends - 1]

    def binary_from(payload: np.ndarray, offsets: np.ndarray) -> pa.Array:
        return pa.LargeBinaryArray.from_buffers(
            pa.large_binary(),
            len(offsets) - 1,
            [None, pa.py_buffer(offsets.astype(np.int64)), pa.py_buffer(payload)],
        )

    block_cols = {
        "term": term_arr.take(pa.array(starts)),
        "win": pa.array(win[starts], type=pa.int64()),
        "n": pa.array(counts, type=pa.int32()),
        "docs": binary_from(doc_payload, doc_off),
        "tfs": binary_from(tf_payload, tf_off),
        "max_tfnorm": pa.array(max_tfnorm, type=pa.float64()),
        "min_tfnorm": pa.array(min_tfnorm, type=pa.float64()),
    }
    pos_bytes = 0
    if cfg.store_positions and "pos" in p.column_names:
        # positions arrive PRE-ENCODED from tokenize (one delta+varint cell
        # per posting row, tf as the implicit length stream); block rows are
        # contiguous posting runs, so the per-(term, window) payload is a
        # pure slice of the cells buffer — no decode, no re-encode
        pcol = p.column("pos").combine_chunks()
        bufs = pcol.buffers()
        width = np.int64 if pa.types.is_large_binary(pcol.type) else np.int32
        cell_off = np.frombuffer(
            bufs[1], dtype=width, count=pcol.offset + len(pcol) + 1
        )[pcol.offset : pcol.offset + len(pcol) + 1].astype(np.int64)
        cell_data = (
            np.frombuffer(bufs[2], dtype=np.uint8)
            if bufs[2] is not None
            else np.zeros(0, dtype=np.uint8)
        )
        pos_payload = cell_data[cell_off[0] : cell_off[-1]]
        pos_off = np.concatenate((cell_off[starts], cell_off[-1:])) - cell_off[0]
        block_cols["pos"] = binary_from(np.ascontiguousarray(pos_payload), pos_off)
        pos_bytes = int(pos_off[-1])

    blocks = pa.table(block_cols)
    atomic_write_table(blocks_path, blocks)
    payload_bytes = int(doc_off[-1] + tf_off[-1]) + pos_bytes
    metrics = {
        "part_id": part_id,
        "n_blocks": len(starts),
        "n_postings": n,
        "payload_bytes": payload_bytes,
        "encode_sec": round(time.time() - t0, 3),
    }
    man.commit(part_id, [blocks_path], lineage, metrics)
    return pa.table({k: [v] for k, v in metrics.items()})


def blocks_phase(part_ids: List[int], index_dir: str, cfg: BuildConfig, avgdl: float) -> List[Dict]:
    return run_specs(
        [{"part_id": p} for p in part_ids],
        lambda row: _encode_blocks_one_part(int(row["part_id"]), index_dir, cfg, avgdl),
    )


# --------------------------------------------------------------- driver

def build_index(
    transcript_files: List[str],
    index_dir: str,
    cfg: BuildConfig = DEFAULT_BUILD_CONFIG,
    files_per_part: int = 0,
    conv_inmem_limit: int = CONV_INMEM_LIMIT,
    change_strategy: str = "timestamp",
) -> Dict[str, object]:
    """End-to-end build; returns the build report (also written to
    build_report.json).  Re-running after a crash resumes from committed
    per-partition manifests.

    ``change_strategy`` selects input change detection (reference
    change_detector.py strategies): "timestamp" (size+mtime, default),
    "hash" (sha256 content — touch-without-change rebuilds nothing) or
    "smart" (hash under 10MB via a stat-keyed cache, timestamp above).

    ``files_per_part=0`` (the default, also the CLI's) packs consecutive
    whole files into partitions by input bytes: ~PART_TARGET_BYTES each,
    and no fewer partitions than the cluster has CPUs while there are
    files to spread (``partition_groups``).  Per-partition fixed costs
    dominate both the build and shard compute when partitions are small,
    so upstream file sizing should not dictate the partition grid.
    ``files_per_part >= 1`` groups that many files per partition."""
    os.makedirs(index_dir, exist_ok=True)
    _dirs(index_dir)
    t0 = time.time()

    sig_cache = None
    if change_strategy != "timestamp":
        from oboyu_ray.state.checkpoint import SigCache

        sig_cache = SigCache(os.path.join(index_dir, "manifests", "sig_cache.json"))

    conv_info = build_conv_map(transcript_files, index_dir, change_strategy, sig_cache)
    t_conv = time.time()

    groups = partition_groups(
        [os.stat(f).st_size for f in transcript_files], files_per_part, _cluster_cpus()
    )
    summaries = ingest(
        transcript_files, index_dir, cfg, groups,
        conv_fp=int(conv_info.get("content_crc", 0)),
        per_input_crc=conv_info.get("per_input_crc"),
        conv_inmem_limit=conv_inmem_limit,
        change_strategy=change_strategy,
        sig_cache=sig_cache,
    )
    if sig_cache is not None:
        sig_cache.save()
    n_docs = int(sum(s["n_docs"] for s in summaries))
    part_ids = [int(s["part_id"]) for s in summaries]
    _gc_stale_partitions(index_dir, part_ids)
    t_ingest = time.time()

    tok_summaries = tokenize_phase(part_ids, index_dir, cfg)
    total_dl = int(sum(s["total_dl"] for s in tok_summaries))
    stats = vocabulary_phase(index_dir, cfg, n_docs, total_dl)
    t_vocab = time.time()

    block_stats = blocks_phase(part_ids, index_dir, cfg, float(stats["avgdl"]))
    t_blocks = time.time()

    report = {
        "n_docs": n_docs,
        "n_parts": len(part_ids),
        "n_terms": stats["n_terms"],
        "total_postings": int(sum(b["n_postings"] for b in block_stats)),
        "payload_bytes": int(sum(b["payload_bytes"] for b in block_stats)),
        "stats": stats,
        "config": asdict(cfg),
        "timings_sec": {
            "conv_map": round(t_conv - t0, 3),
            "ingest": round(t_ingest - t_conv, 3),
            "tokenize_vocab": round(t_vocab - t_ingest, 3),
            "blocks": round(t_blocks - t_vocab, 3),
            "total": round(t_blocks - t0, 3),
        },
        "parts": [int(p) for p in part_ids],
        "part_summaries": [
            {k: (int(v) if isinstance(v, (int, np.integer)) else v) for k, v in s.items()}
            for s in summaries
        ],
    }
    atomic_write_json(os.path.join(index_dir, "build_report.json"), report)
    return report
