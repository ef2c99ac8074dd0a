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

* **Posting blocks carry over payload-byte-identical.**  The index is
  doc-partitioned and block doc-ids are delta-encoded against the block's
  WINDOW base (``win * window_docs``), so renumbering a member's documents
  by a constant offset that is a multiple of ``window_docs`` only shifts
  the ``win`` column — the delta+varint docs/tfs/positions payloads are
  copied, never decoded-re-encoded.
* **Block-max metadata is re-baked for the merged avgdl.**  Stored
  min/max tf-norm bounds depend on the build avgdl; the merge recomputes
  them exactly (decode tf, gather dl from the member's dense dls table,
  same float64 expression as a fresh build) so the merged index is a
  first-class monolith — no query-time rescale factor needed.
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

* Members must agree on k1/b/tokenizer config, ``window_docs`` and
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
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from oboyu_ray.state.checkpoint import (
    Manifest,
    atomic_write_json,
    atomic_write_table,
    file_sig,
    files_sig,
)
from oboyu_ray.state.codec import varint_decode

# config keys that must agree across members for the merged index to be
# coherent (same set the federated engine validates, plus the physical
# layout knobs the merge relies on)
_CONFIG_KEYS_BM25 = (
    "k1", "b", "tokenizer_mode", "use_stopwords", "min_token_length", "language",
)


def _member_meta(d: str) -> Dict:
    with open(os.path.join(d, "stats.json")) as f:
        stats = json.load(f)
    with open(os.path.join(d, "build_report.json")) as f:
        report = json.load(f)
    return {"dir": d, "stats": stats, "report": report}


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
    c0 = metas[0]["report"].get("config", {})
    sig0 = tuple(c0.get("bm25", {}).get(k) for k in _CONFIG_KEYS_BM25)
    lay0 = (c0.get("window_docs"), bool(c0.get("store_positions")))
    for m in metas[1:]:
        c = m["report"].get("config", {})
        if tuple(c.get("bm25", {}).get(k) for k in _CONFIG_KEYS_BM25) != sig0:
            raise ValueError(
                f"merge members disagree on bm25/tokenizer config: "
                f"{metas[0]['dir']} vs {m['dir']}"
            )
        if (c.get("window_docs"), bool(c.get("store_positions"))) != lay0:
            raise ValueError(
                f"merge members disagree on window_docs/store_positions: "
                f"{metas[0]['dir']} vs {m['dir']}"
            )


def _merge_one_part(
    spec: Dict, merged_avgdl: float, k1: float, b: float, window_docs: int,
    out_dir: str,
) -> pa.Table:
    """Copy one member part into the output under its new part id and doc
    offset.  Blocks: win shifts by off//W, docs/tfs/pos payloads carry over
    byte-identical, min/max tf-norm re-baked for the merged avgdl.  dls and
    docs: doc_num += off."""
    member_dir = spec["member_dir"]
    src = int(spec["src_part_id"])
    dst = int(spec["dst_part_id"])
    off = int(spec["doc_offset"])
    W = window_docs

    src_blocks = os.path.join(member_dir, "blocks", f"blocks-{src:05d}.parquet")
    src_dls = os.path.join(member_dir, "dls", f"dls-{src:05d}.parquet")
    src_docs = os.path.join(member_dir, "docs", f"docs-{src:05d}.parquet")
    src_post = os.path.join(member_dir, "postings", f"postings-{src:05d}.parquet")
    out_blocks = os.path.join(out_dir, "blocks", f"blocks-{dst:05d}.parquet")
    out_dls = os.path.join(out_dir, "dls", f"dls-{dst:05d}.parquet")
    out_docs = os.path.join(out_dir, "docs", f"docs-{dst:05d}.parquet")
    out_post = os.path.join(out_dir, "postings", f"postings-{dst:05d}.parquet")

    man = Manifest(out_dir, "merge_parts")
    lineage = {
        "blocks": {src_blocks: file_sig(src_blocks)},
        "dls": {src_dls: file_sig(src_dls)},
        "docs": {src_docs: file_sig(src_docs)},
        "postings": {src_post: file_sig(src_post)},
        "doc_offset": off,
        "avgdl": merged_avgdl,
        "k1": k1,
        "b": b,
        "window_docs": W,
    }
    if man.is_done(dst, lineage):
        m = man.get(dst)["metrics"]
        return pa.table({k: [v] for k, v in m.items()})

    t0 = time.time()
    # ---- dls: shift doc_num, keep dl; also the per-posting dl source below
    dt = pq.read_table(src_dls)
    doc_nums_local = dt.column("doc_num").to_numpy().astype(np.int64)
    dls_local = dt.column("dl").to_numpy().astype(np.float64)
    out_dls_t = dt.set_column(
        dt.schema.get_field_index("doc_num"),
        "doc_num",
        pa.array(doc_nums_local + off, type=pa.int64()),
    )
    atomic_write_table(out_dls, out_dls_t)

    # ---- docs: shift doc_num (hydration point lookups key on it)
    dtab = pq.read_table(src_docs)
    out_docs_t = dtab.set_column(
        dtab.schema.get_field_index("doc_num"),
        "doc_num",
        pa.array(dtab.column("doc_num").to_numpy().astype(np.int64) + off,
                 type=pa.int64()),
    )
    atomic_write_table(out_docs, out_docs_t)

    # ---- raw postings: shift doc_num (the checker's blocks≡postings deep
    # verify and any postings-reading pipeline need the merged index to be
    # a FULL build artifact, not blocks-only)
    pt = pq.read_table(src_post)
    out_post_t = pt.set_column(
        pt.schema.get_field_index("doc_num"),
        "doc_num",
        pa.array(pt.column("doc_num").to_numpy().astype(np.int64) + off,
                 type=pa.int64()),
    )
    atomic_write_table(out_post, out_post_t)

    # ---- blocks: shift win; re-bake tf-norm bounds at the merged avgdl
    bt = pq.read_table(src_blocks)
    n_rows = bt.num_rows
    if n_rows == 0:
        atomic_write_table(out_blocks, bt)
        metrics = {
            "part_id": dst, "n_blocks": 0, "n_postings": 0,
            "n_docs": int(len(doc_nums_local)),
            "doc_min": int(doc_nums_local.min() + off) if len(doc_nums_local) else off,
            "doc_max": int(doc_nums_local.max() + off) if len(doc_nums_local) else off - 1,
            "merge_sec": round(time.time() - t0, 3),
        }
        man.commit(dst, [out_blocks, out_dls, out_docs, out_post], lineage, metrics)
        return pa.table({k: [v] for k, v in metrics.items()})

    win = bt.column("win").to_numpy().astype(np.int64)
    counts = bt.column("n").to_numpy().astype(np.int64)
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])

    # decode every posting's (local doc, tf) in one vectorized pass — the
    # same grouped-delta reconstruction _PartIndex.decode_range does
    from oboyu_ray.state.shards import _PartIndex

    _, docs_off, docs_buf = _PartIndex._binary_views(bt.column("docs"))
    _, tfs_off, tfs_buf = _PartIndex._binary_views(bt.column("tfs"))
    gaps = varint_decode(docs_buf[docs_off[0]: docs_off[-1]]).astype(np.int64)
    tot = np.cumsum(gaps)
    shift = np.zeros(len(counts), dtype=np.int64)
    if len(counts) > 1:
        shift[1:] = tot[starts[1:] - 1]
    within = tot - np.repeat(shift, counts)
    docs_local = within + np.repeat(win * W, counts)
    tf = varint_decode(tfs_buf[tfs_off[0]: tfs_off[-1]]).astype(np.float64)

    dl_base = int(doc_nums_local.min()) if len(doc_nums_local) else 0
    dl_arr = np.zeros(
        (int(doc_nums_local.max()) - dl_base + 1) if len(doc_nums_local) else 0,
        dtype=np.float64,
    )
    if len(doc_nums_local):
        dl_arr[doc_nums_local - dl_base] = dls_local
    dl = dl_arr[docs_local - dl_base]

    tfnorm = (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * (dl / merged_avgdl)))
    max_tfnorm = np.maximum.reduceat(tfnorm, starts)
    min_tfnorm = np.minimum.reduceat(tfnorm, starts)

    out_t = bt.set_column(
        bt.schema.get_field_index("win"), "win",
        pa.array(win + off // W, type=pa.int64()),
    )
    out_t = out_t.set_column(
        out_t.schema.get_field_index("max_tfnorm"), "max_tfnorm",
        pa.array(max_tfnorm, type=pa.float64()),
    )
    out_t = out_t.set_column(
        out_t.schema.get_field_index("min_tfnorm"), "min_tfnorm",
        pa.array(min_tfnorm, type=pa.float64()),
    )
    atomic_write_table(out_blocks, out_t)

    metrics = {
        "part_id": dst,
        "n_blocks": int(n_rows),
        "n_postings": int(counts.sum()),
        "n_docs": int(len(doc_nums_local)),
        "doc_min": int(doc_nums_local.min() + off) if len(doc_nums_local) else off,
        "doc_max": int(doc_nums_local.max() + off) if len(doc_nums_local) else off - 1,
        "merge_sec": round(time.time() - t0, 3),
    }
    man.commit(dst, [out_blocks, out_dls, out_docs, out_post], lineage, metrics)
    return pa.table({k: [v] for k, v in metrics.items()})


def _rebucket_vocab_partials(
    spec: Dict, out_buckets: int, out_dir: str
) -> pa.Table:
    """One member's vocab bucket files → ONE output partials file
    ``vocab_partials/m{member}.parquet`` in the build's layout (one row
    group per bucket), with crc32 buckets for the output's bucket count —
    the member's own count may differ."""
    from oboyu_ray.pipelines.build_index import _vocab_bucket_ids, _write_partials_file

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

    def run(batch: pa.Table) -> Iterator[pa.Table]:
        for row in batch.to_pylist():
            key, src, dst, off = row["key"], row["src"], row["dst"], int(row["off"])
            lineage = {"src": {src: file_sig(src)}, "off": off}
            if man.is_done(key, lineage):
                yield pa.table({"key": [key]})
                continue
            t = pq.read_table(src)
            idx = t.schema.get_field_index("conv_offset")
            t = t.set_column(
                idx, "conv_offset",
                pa.array(t.column("conv_offset").to_numpy().astype(np.int64) + off,
                         type=pa.int64()),
            )
            atomic_write_table(dst, t)
            man.commit(key, [dst], lineage, {"rows": t.num_rows})
            yield pa.table({"key": [key]})

    if specs:
        (
            ray.data.from_items(specs)
            .map_batches(run, batch_format="pyarrow", batch_size=1)
            .take_all()
        )


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
    mdir = os.path.join(out_dir, "manifests", "merge_parts")
    if os.path.isdir(mdir):
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

    cfg0 = metas[0]["report"]["config"]
    W = int(cfg0.get("window_docs", 8192))
    k1 = float(cfg0["bm25"]["k1"])
    b = float(cfg0["bm25"]["b"])

    # per-member doc offsets, each a multiple of window_docs so block
    # payloads carry over unchanged (gaps in doc-number space are harmless:
    # postings only ever name real documents)
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
    merged_avgdl = (total_dl / n_docs) if n_docs else 0.0

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

    def run_part(batch: pa.Table) -> Iterator[pa.Table]:
        for row in batch.to_pylist():
            yield _merge_one_part(row, merged_avgdl, k1, b, W, out_dir)

    part_rows = (
        ray.data.from_items(specs)
        .map_batches(run_part, batch_format="pyarrow", batch_size=1)
        .take_all()
    )
    part_rows.sort(key=lambda r: int(r["part_id"]))
    t_parts = time.time()

    # ---- vocabulary: member buckets as partials → per-bucket reduce
    member_buckets = [
        int(m["report"]["config"].get("vocab_buckets", 32)) for m in metas
    ]
    if vocab_buckets is None:
        vocab_buckets = max(member_buckets)
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

    def run_vocab(batch: pa.Table) -> Iterator[pa.Table]:
        for row in batch.to_pylist():
            yield _rebucket_vocab_partials(row, int(vocab_buckets), out_dir)

    (
        ray.data.from_items(vspecs)
        .map_batches(run_vocab, batch_format="pyarrow", batch_size=1)
        .take_all()
    )

    from oboyu_ray.config import BuildConfig, BM25Config
    from oboyu_ray.pipelines.build_index import vocabulary_phase

    bm = cfg0["bm25"]
    merged_cfg = BuildConfig(
        bm25=BM25Config(
            k1=k1, b=b,
            min_token_length=int(bm.get("min_token_length", 2)),
            use_stopwords=bool(bm.get("use_stopwords", True)),
            language=str(bm.get("language", "ja")),
            min_doc_frequency=int(bm.get("min_doc_frequency", 1)),
            tokenizer_mode=str(bm.get("tokenizer_mode", "default")),
        ),
        window_docs=W,
        vocab_buckets=int(vocab_buckets),
        store_positions=bool(cfg0.get("store_positions", False)),
    )
    stats = vocabulary_phase(out_dir, merged_cfg, n_docs, total_dl)
    t_vocab = time.time()

    # ---- conv map
    _merge_conv_map(metas, offsets, out_dir)
    crc_src = ";".join(
        f"{m['dir']}:{offsets[i]}" for i, m in enumerate(metas)
    )
    import zlib

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

    from dataclasses import asdict

    report = {
        "n_docs": n_docs,
        "n_parts": len(specs),
        "n_terms": stats["n_terms"],
        "total_postings": int(sum(int(r["n_postings"]) for r in part_rows)),
        "payload_bytes": sum(
            int(m["report"].get("payload_bytes", 0)) for m in metas
        ),
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
            "conv_map": round(t_conv - t_vocab, 3),
            "sidecar": round(t_sidecar - t_conv, 3),
            "total": round(t_sidecar - t0, 3),
        },
        "parts": [int(r["part_id"]) for r in part_rows],
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
