"""Physical index merge: K member indexes → one monolithic index.

The rolling-ingest story's other half.  ``FederatedEngine``
(pipelines/federated.py) answers queries over many member indexes with
exactly-merged statistics but pays the member fan-out on every query;
``merge_indexes`` folds the members into ONE on-disk index offline — the
segment-merge of log-structured search engines (Lucene's
``IndexWriter.addIndexes``/forceMerge shape).  The reference has no merge —
its only path is a full rebuild (``indexing_pipeline.py:334-349``); at
10^12 turns a rebuild re-tokenizes everything, while this merge never
touches a token:

* **Parts are renumbered, then encoded by the build's own blocks
  phase.**  Each member part's docs, dls and postings tables are copied
  with ``doc_num += offset``; ``build_index.blocks_phase`` then encodes
  the renumbered postings at the merged avgdl, as a build's tail.  Every
  member offset is a multiple of ``window_docs`` and block doc-ids are
  delta-encoded against the block's WINDOW base, so the docs/tfs/positions
  payloads come out byte-identical to the member's and only ``win``
  shifts; the min/max tf-norm bounds are the build's expression at the
  merged avgdl, so the merged index is a first-class monolith with no
  query-time rescale factor.
* **Vocabulary merges as partials.**  Member vocab bucket files ARE
  term partials of the merged vocabulary: each member's become one file
  in the output's ``vocab_partials``, in the build's layout (one row group
  per crc32 bucket of the OUTPUT's bucket count, which members need not
  share), reduced by the build's own ``vocabulary_phase`` — same disjoint
  per-bucket C++ group_by, no shuffle.
* **Global statistics add** (N, total_dl → avgdl; df/cf per term), the
  same exact-merge semantics FederatedEngine proves
  (tests/test_federated.py); scores on the merged index are therefore
  bit-identical to a fresh monolithic build over the concatenated corpus.

Constraints (validated up front, before any output is written):

* Members must agree on their whole ``BM25Config`` (k1/b, tokenizer,
  stopwords, min token length, language), ``window_docs`` and
  positional storage — mixing them cannot produce a coherent index.
* Member conversation-id ranges must be DISJOINT (the same conversation
  in two members has no well-defined merged doc numbering).  Members are
  auto-ordered by conversation range so the merged conv_map keeps both
  ConvMapHandle range-mode invariants (files ascending by conv_id AND by
  conv_offset).

Every phase is manifest-checkpointed under the OUTPUT dir: a crashed merge
resumes, a re-run is a no-op, and changing a member invalidates exactly
the parts derived from it.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import asdict, replace
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from oboyu_ray.config import BuildConfig
from oboyu_ray.pipelines.build_index import (
    _vocab_bucket_ids,
    _write_partials_file,
    blocks_phase,
    run_specs,
    vocabulary_phase,
)
from oboyu_ray.state.checkpoint import (
    Manifest,
    atomic_write_json,
    atomic_write_table,
    file_sig,
    files_sig,
)


def _member_meta(d: str) -> Dict:
    with open(os.path.join(d, "stats.json")) as f:
        stats = json.load(f)
    with open(os.path.join(d, "build_report.json")) as f:
        report = json.load(f)
    cfg = BuildConfig.from_report(report.get("config", {}))
    return {"dir": d, "stats": stats, "report": report, "cfg": cfg}


def _conv_range(d: str) -> Tuple[Optional[str], Optional[str]]:
    """(min conv_id, max conv_id) of one member from conv-map file footers
    (metadata-scale: first row of the first non-empty file, last row of the
    last — conv-map files are range-partitioned and internally sorted)."""
    cdir = os.path.join(d, "conv_map")
    files = sorted(
        os.path.join(cdir, f) for f in os.listdir(cdir) if f.endswith(".parquet")
    )
    lo = hi = None
    for f in files:
        pf = pq.ParquetFile(f)
        if pf.metadata.num_rows == 0:
            continue
        head = next(pf.iter_batches(batch_size=1, columns=["conv_id"]))
        lo = str(head.column("conv_id")[0])
        break
    for f in reversed(files):
        pf = pq.ParquetFile(f)
        if pf.metadata.num_rows == 0:
            continue
        tail = pf.read_row_group(pf.metadata.num_row_groups - 1, columns=["conv_id"])
        hi = str(tail.column("conv_id")[tail.num_rows - 1])
        break
    return lo, hi


def _validate_members(metas: List[Dict]) -> None:
    """Members must score alike (every BM25Config field) and share the
    block layout the renumbering keeps."""
    c0 = metas[0]["cfg"]
    for m in metas[1:]:
        c = m["cfg"]
        if c.bm25 != c0.bm25:
            raise ValueError(
                f"merge members disagree on bm25/tokenizer config: "
                f"{metas[0]['dir']} vs {m['dir']}"
            )
        if (c.window_docs, c.store_positions) != (c0.window_docs, c0.store_positions):
            raise ValueError(
                f"merge members disagree on window_docs/store_positions: "
                f"{metas[0]['dir']} vs {m['dir']}"
            )


def _shift_doc_num(src: str, dst: str, off: int) -> np.ndarray:
    """Copy one part table with ``doc_num += off``; returns the new numbers."""
    t = pq.read_table(src)
    doc = t.column("doc_num").to_numpy().astype(np.int64) + off
    i = t.schema.get_field_index("doc_num")
    atomic_write_table(dst, t.set_column(i, "doc_num", pa.array(doc, type=pa.int64())))
    return doc


def _merge_one_part(spec: Dict, out_dir: str) -> pa.Table:
    """Renumber one member part into the output under its new part id:
    ``doc_num += offset`` in its dls, docs and postings tables.  The
    build's blocks phase then encodes the renumbered postings."""
    src = int(spec["src_part_id"])
    dst = int(spec["dst_part_id"])
    off = int(spec["doc_offset"])
    paths = [
        (os.path.join(spec["member_dir"], sub, f"{sub}-{src:05d}.parquet"),
         os.path.join(out_dir, sub, f"{sub}-{dst:05d}.parquet"))
        for sub in ("dls", "docs", "postings")
    ]
    man = Manifest(out_dir, "merge_parts")
    lineage = {"src": {s: file_sig(s) for s, _ in paths}, "doc_offset": off}
    if man.is_done(dst, lineage):
        m = man.get(dst)["metrics"]
        return pa.table({k: [v] for k, v in m.items()})

    t0 = time.time()
    doc = [_shift_doc_num(s, d, off) for s, d in paths][0]  # dls: a row per doc
    metrics = {
        "part_id": dst,
        "n_docs": len(doc),
        "doc_min": int(doc.min()) if len(doc) else off,
        "doc_max": int(doc.max()) if len(doc) else off - 1,
        "merge_sec": round(time.time() - t0, 3),
    }
    man.commit(dst, [d for _, d in paths], lineage, metrics)
    return pa.table({k: [v] for k, v in metrics.items()})


def _rebucket_vocab_partials(
    spec: Dict, out_buckets: int, out_dir: str
) -> pa.Table:
    """One member's vocab bucket files → ONE output partials file
    ``vocab_partials/m{member}.parquet`` in the build's layout (one row
    group per bucket), with crc32 buckets for the output's bucket count —
    the member's own count may differ."""
    srcs = list(spec["src_files"])
    man = Manifest(out_dir, "merge_vocab_partials")
    key = f"m{int(spec['member_idx']):03d}"
    lineage = {"src": files_sig(srcs), "out_buckets": out_buckets}
    if man.is_done(key, lineage):
        m = man.get(key)["metrics"]
        return pa.table({k: [v] for k, v in m.items()})

    t = pa.concat_tables(pq.read_table(f, columns=["term", "df", "cf"]) for f in srcs)
    buckets = _vocab_bucket_ids(t.column("term"), out_buckets)
    path = os.path.join(out_dir, "vocab_partials", f"{key}.parquet")
    _write_partials_file(path, t.rename_columns(["term", "df_partial", "cf_partial"]), buckets)
    metrics = {"key": key, "n_terms": t.num_rows}
    man.commit(key, [path], lineage, metrics)
    return pa.table({k: [v] for k, v in metrics.items()})


def _merge_conv_map(metas: List[Dict], offsets: List[int], out_dir: str) -> None:
    """Member conv-map files → output conv_map with conv_offset += member
    doc offset.  Members arrive pre-sorted by conversation range, so naming
    files m{member}-{rank} preserves BOTH ConvMapHandle orderings."""
    cdir = os.path.join(out_dir, "conv_map")
    os.makedirs(cdir, exist_ok=True)
    man = Manifest(out_dir, "merge_conv_map")
    # clear stale map files not produced by THIS member set (ConvMapHandle
    # reads the whole directory)
    expected: set = set()
    for i, m in enumerate(metas):
        src_dir = os.path.join(m["dir"], "conv_map")
        srcs = sorted(
            f for f in os.listdir(src_dir) if f.endswith(".parquet")
        )
        for j in range(len(srcs)):
            expected.add(f"conv-map-m{i:03d}-{j:05d}.parquet")
    for f in os.listdir(cdir):
        if f.endswith(".parquet") and f not in expected:
            os.remove(os.path.join(cdir, f))

    specs = []
    for i, m in enumerate(metas):
        src_dir = os.path.join(m["dir"], "conv_map")
        srcs = sorted(
            os.path.join(src_dir, f)
            for f in os.listdir(src_dir)
            if f.endswith(".parquet")
        )
        for j, src in enumerate(srcs):
            specs.append({"src": src, "off": offsets[i],
                          "dst": os.path.join(cdir, f"conv-map-m{i:03d}-{j:05d}.parquet"),
                          "key": f"m{i:03d}-{j:05d}"})

    def run(row: Dict) -> pa.Table:
        key, src, dst, off = row["key"], row["src"], row["dst"], int(row["off"])
        lineage = {"src": {src: file_sig(src)}, "off": off}
        if not man.is_done(key, lineage):
            t = pq.read_table(src)
            idx = t.schema.get_field_index("conv_offset")
            t = t.set_column(
                idx, "conv_offset",
                pa.array(t.column("conv_offset").to_numpy().astype(np.int64) + off,
                         type=pa.int64()),
            )
            atomic_write_table(dst, t)
            man.commit(key, [dst], lineage, {"rows": t.num_rows})
        return pa.table({"key": [key]})

    run_specs(specs, run)


def _gc_stale_merge_parts(out_dir: str, n_parts: int) -> None:
    """Remove part files + manifests beyond the current part count (a
    re-merge with fewer members must not leave stale higher-rank parts)."""
    import re as _re

    for sub, pat in (("docs", r"docs-(\d{5})\.parquet$"),
                     ("dls", r"dls-(\d{5})\.parquet$"),
                     ("postings", r"postings-(\d{5})\.parquet$"),
                     ("blocks", r"blocks-(\d{5})\.parquet$")):
        d = os.path.join(out_dir, sub)
        if not os.path.isdir(d):
            continue
        for f in os.listdir(d):
            m = _re.match(pat, f)
            if m and int(m.group(1)) >= n_parts:
                os.remove(os.path.join(d, f))
    for phase in ("merge_parts", "blocks"):
        mdir = os.path.join(out_dir, "manifests", phase)
        if not os.path.isdir(mdir):
            continue
        for f in os.listdir(mdir):
            m = _re.match(r"part-(\d+)\.json$", f)
            if m and int(m.group(1)) >= n_parts:
                os.remove(os.path.join(mdir, f))


def merge_indexes(
    index_dirs: List[str],
    out_dir: str,
    vocab_buckets: Optional[int] = None,
    build_sidecar: Optional[bool] = None,
) -> Dict[str, object]:
    """Merge K built indexes into one monolithic index at ``out_dir``.

    Returns the merged build report (also written to build_report.json).
    ``vocab_buckets`` defaults to the members' common bucket count (or the
    max when they differ — differing counts take the re-bucket path).
    ``build_sidecar`` defaults to True when EVERY member has a fuzzy
    sidecar (it is derived data, rebuilt over the merged vocabulary).
    """
    if not index_dirs:
        raise ValueError("merge_indexes needs at least one member index")
    if os.path.abspath(out_dir) in {os.path.abspath(d) for d in index_dirs}:
        raise ValueError("out_dir must differ from every member index dir")
    metas = [_member_meta(d) for d in index_dirs]
    _validate_members(metas)

    # order members by conversation range; ranges must be disjoint
    ranges = [_conv_range(m["dir"]) for m in metas]
    order = sorted(
        range(len(metas)),
        key=lambda i: ("" if ranges[i][0] is None else ranges[i][0]),
    )
    metas = [metas[i] for i in order]
    ranges = [ranges[i] for i in order]
    for a, b_ in zip(ranges, ranges[1:]):
        if a[1] is not None and b_[0] is not None and not (a[1] < b_[0]):
            raise ValueError(
                f"member conversation ranges overlap ({a[1]!r} vs {b_[0]!r}); "
                "merged doc numbering is undefined — deduplicate conversations "
                "or use FederatedEngine"
            )

    # every member must be a FULL build artifact — in particular carry its
    # raw postings files (pre-fix merged indexes were blocks-only; failing
    # HERE with a named member beats a FileNotFoundError mid-merge after
    # some parts were already written)
    for m in metas:
        for p in m["report"]["parts"]:
            fp = os.path.join(m["dir"], "postings", f"postings-{int(p):05d}.parquet")
            if not os.path.exists(fp):
                raise ValueError(
                    f"merge member {m['dir']} is missing raw postings file "
                    f"{fp}; members must be full build artifacts (a merged "
                    "index produced before postings carry-over must be "
                    "re-merged from its original members)"
                )

    # the merged index is built with the first member's config (they agree
    # on everything the renumbered parts depend on) and the output's buckets
    if vocab_buckets is None:
        vocab_buckets = max(m["cfg"].vocab_buckets for m in metas)
    merged_cfg = replace(metas[0]["cfg"], vocab_buckets=int(vocab_buckets))
    W = merged_cfg.window_docs

    # per-member doc offsets, each a multiple of window_docs so every
    # window-relative block payload encodes the same (gaps in doc-number
    # space are harmless: postings only ever name real documents)
    offsets: List[int] = []
    base = 0
    for m in metas:
        offsets.append(base)
        span = max(
            (int(s["doc_max"]) + 1 for s in m["report"].get("part_summaries", [])),
            default=0,
        )
        base += -(-span // W) * W  # ceil to window multiple

    n_docs = sum(int(m["stats"]["N"]) for m in metas)
    total_dl = sum(int(m["stats"]["total_dl"]) for m in metas)

    for name in ("docs", "dls", "postings", "blocks", "conv_map", "vocab", "vocab_partials"):
        os.makedirs(os.path.join(out_dir, name), exist_ok=True)
    t0 = time.time()

    # ---- parts: one task per member part, renumbered sequentially
    specs = []
    dst = 0
    for i, m in enumerate(metas):
        for p in m["report"]["parts"]:
            specs.append({
                "member_dir": m["dir"], "src_part_id": int(p),
                "dst_part_id": dst, "doc_offset": offsets[i],
            })
            dst += 1
    _gc_stale_merge_parts(out_dir, len(specs))

    part_rows = run_specs(specs, lambda row: _merge_one_part(row, out_dir))
    part_rows.sort(key=lambda r: int(r["part_id"]))
    part_ids = [int(r["part_id"]) for r in part_rows]
    t_parts = time.time()

    # ---- vocabulary: member buckets as partials → per-bucket reduce
    # GC partials not derivable from THIS member set: the reduce reads the
    # whole partials directory, so a stale partial (a removed member, the
    # per-bucket layout, a plain build's) would silently pollute the merged
    # df/cf sums.  Member i's partials file is m{i}.parquet.
    pdir = os.path.join(out_dir, "vocab_partials")
    expected = {f"m{i:03d}.parquet" for i in range(len(metas))}
    for f in os.listdir(pdir):
        if f.endswith(".parquet") and f not in expected:
            os.remove(os.path.join(pdir, f))

    vspecs = []
    for i, m in enumerate(metas):
        vdir = os.path.join(m["dir"], "vocab")
        vspecs.append({
            "member_idx": i,
            "src_files": [
                os.path.join(vdir, f) for f in sorted(os.listdir(vdir))
                if f.endswith(".parquet")
            ],
        })

    run_specs(vspecs, lambda row: _rebucket_vocab_partials(row, merged_cfg.vocab_buckets, out_dir))
    stats = vocabulary_phase(out_dir, merged_cfg, n_docs, total_dl)
    t_vocab = time.time()

    # ---- blocks: the build's encoder over the renumbered postings
    block_rows = blocks_phase(part_ids, out_dir, merged_cfg, float(stats["avgdl"]))
    t_blocks = time.time()

    # ---- conv map
    _merge_conv_map(metas, offsets, out_dir)
    crc_src = ";".join(
        f"{m['dir']}:{offsets[i]}" for i, m in enumerate(metas)
    )
    atomic_write_json(
        os.path.join(out_dir, "conv_map", "_DONE.json"),
        {
            "merged_from": [m["dir"] for m in metas],
            "n_docs_spanned": int(base),
            "content_crc": zlib.crc32(crc_src.encode()),
            "input_sig": {"merge": crc_src},
        },
    )
    t_conv = time.time()

    # ---- fuzzy sidecar (derived data: rebuild over the merged vocabulary)
    if build_sidecar is None:
        from oboyu_ray.state.fuzzy_index import SIDECAR_DIR

        build_sidecar = all(
            os.path.exists(os.path.join(m["dir"], SIDECAR_DIR, "manifest.json"))
            for m in metas
        )
    if build_sidecar:
        from oboyu_ray.state.fuzzy_index import build_fuzzy_sidecar, open_sidecar

        max_edits = 1
        scs = [open_sidecar(m["dir"]) for m in metas]
        if any(scs):
            max_edits = max(sc.max_edits for sc in scs if sc)
        build_fuzzy_sidecar(out_dir, max_edits=max_edits)
    t_sidecar = time.time()

    report = {
        "n_docs": n_docs,
        "n_parts": len(specs),
        "n_terms": stats["n_terms"],
        "total_postings": int(sum(r["n_postings"] for r in block_rows)),
        "payload_bytes": int(sum(r["payload_bytes"] for r in block_rows)),
        "stats": stats,
        "config": asdict(merged_cfg),
        "merged_from": [
            {"dir": m["dir"], "doc_offset": offsets[i],
             "n_docs": int(m["stats"]["N"])}
            for i, m in enumerate(metas)
        ],
        "timings_sec": {
            "parts": round(t_parts - t0, 3),
            "vocabulary": round(t_vocab - t_parts, 3),
            "blocks": round(t_blocks - t_vocab, 3),
            "conv_map": round(t_conv - t_blocks, 3),
            "sidecar": round(t_sidecar - t_conv, 3),
            "total": round(t_sidecar - t0, 3),
        },
        "parts": part_ids,
        "part_summaries": [
            {
                "part_id": int(r["part_id"]),
                "n_docs": int(r["n_docs"]),
                "doc_min": int(r["doc_min"]),
                "doc_max": int(r["doc_max"]),
            }
            for r in part_rows
        ],
    }
    atomic_write_json(os.path.join(out_dir, "build_report.json"), report)
    return report
