"""Distributed index integrity checker (`cli check` — fsck for the index).

The north rule requires builds at 10^12-turn scale to be "resumable from
checkpoint with per-partition lineage + metrics"; at that scale an operator
also needs the converse tool: PROVE an on-disk index is internally
consistent without rebuilding it.  The reference never persists an index
(its DuckDB file is its own integrity domain); this operator is the
engine-side analog of Lucene's CheckIndex.

Every check is partition-parallel and bounded:

* structure    — every part's blocks/dls/docs files exist, manifests too.
* stats        — stats.json ≡ build_report stats; N ≡ Σ part doc counts.
* dls          — Σ dl ≡ total_dl, doc count ≡ N, doc_num ranges ≡ the
                 part summaries (one task per part, scalar results).
* conv_map     — Σ n_turns ≡ N; conv_id ascending AND conv_offset strictly
                 increasing (both ConvResolver orderings must hold).
* vocab        — Σ bucket term counts ≡ n_terms; df ≥ 1, cf ≥ df, terms
                 unique across buckets (crc32-disjoint by construction,
                 verified by count); per-bucket term-sortedness.
* sampled terms — for a deterministic sample of K vocabulary terms:
    - blocks decode (the QUERY engine's own _PartIndex.decode_range) over
      every part ⇒ per-term df/cf and an order-insensitive digest of the
      (doc_num, tf) posting multiset;
    - the SAME digest recomputed from the raw postings/ parquet (pruned,
      predicate-pushdown read) — blocks ≡ postings, byte-for-byte;
    - vocab df/cf for the sampled terms ≡ both;
    - block-max metadata: stored max/min tfnorm per block row ≡ the exact
      build expression recomputed from decoded (tf, dl)
      (build_index.py:1005 — bit-equality, not tolerance);
    - positional payloads (when present): decoded position count per
      block ≡ that block's decoded tf sum (tf is the implicit length
      stream — a short/corrupt payload cannot hide).

Returns {"ok": bool, "checks": {...}, "errors": [...]}: empty errors ⇔ ok.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

import numpy as np
import pyarrow.parquet as pq

import ray

from oboyu_ray.config import BuildConfig


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain mixing constants)."""
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)).astype(np.uint64)
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)).astype(np.uint64)
        return x ^ (x >> np.uint64(31))


def _term_stream_digest(doc_nums: np.ndarray, tfs: np.ndarray) -> int:
    """Order-insensitive digest of a term's (doc_num, tf) posting multiset
    (sum of per-row 128-bit mixes mod 2^127-1) — blocks-decode and
    postings-scan sides can stream rows in any partition order.  Fully
    vectorized: a df-in-the-millions sampled term costs two numpy passes,
    not a per-posting Python loop."""
    row = _splitmix64(
        _splitmix64(doc_nums.astype(np.uint64)) ^ tfs.astype(np.uint64)
    )
    lo = _splitmix64(row)  # second independent 64 bits per row
    acc = (int(row.sum(dtype=np.uint64)) << 64) ^ int(lo.sum(dtype=np.uint64))
    return acc % ((1 << 127) - 1)


@ray.remote
def _check_part(index_dir: str, part_id: int, window_docs: int,
                terms: List[str], k1: float, b: float, avgdl: float) -> Dict:
    """One part: dls scalars + per-sampled-term decode digests + bound and
    position verification.  Returns small scalars only."""
    from oboyu_ray.state.codec import varint_decode
    from oboyu_ray.state.shards import _PartIndex

    out: Dict = {"part_id": part_id, "errors": []}
    dt = pq.read_table(
        os.path.join(index_dir, "dls", f"dls-{part_id:05d}.parquet"),
        columns=["doc_num", "dl"],
    )
    doc_nums = dt.column("doc_num").to_numpy()
    out["n_docs"] = len(doc_nums)
    out["sum_dl"] = int(dt.column("dl").to_numpy().sum())
    out["doc_min"] = int(doc_nums.min()) if len(doc_nums) else -1
    out["doc_max"] = int(doc_nums.max()) if len(doc_nums) else -1

    part = _PartIndex(index_dir, part_id, window_docs)
    term_stats: Dict[str, Dict] = {}
    bad_bounds = 0
    bad_positions = 0
    for t in terms:
        sl = part.term_slices.get(t)
        if sl is None:
            continue
        s, e = sl
        docs, tf, dl = part.decode_range(s, e)
        # stored bounds vs the exact build expression (build_index.py:1005)
        tfnorm = (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * (dl / avgdl)))
        row_starts = part.row_starts[s : e + 1] - part.row_starts[s]
        got_max = np.maximum.reduceat(tfnorm, row_starts[:-1])
        got_min = np.minimum.reduceat(tfnorm, row_starts[:-1])
        if not (np.array_equal(got_max, part.max_tfnorm[s:e])
                and np.array_equal(got_min, part.min_tfnorm[s:e])):
            bad_bounds += int(
                np.count_nonzero(got_max != part.max_tfnorm[s:e])
                + np.count_nonzero(got_min != part.min_tfnorm[s:e])
            )
        if part.has_positions:
            for bi in range(s, e):
                pos = varint_decode(
                    part.pos_buf[part.pos_off[bi] : part.pos_off[bi + 1]]
                )
                n_expected = int(
                    varint_decode(
                        part.tfs_buf[part.tfs_off[bi] : part.tfs_off[bi + 1]]
                    ).sum()
                )
                if len(pos) != n_expected:
                    bad_positions += 1
        term_stats[t] = {
            "df": int(len(docs)),
            "cf": int(tf.sum()),
            "digest": _term_stream_digest(
                docs.astype(np.int64), tf.astype(np.int64)
            ),
        }
    out["term_stats"] = term_stats
    out["bad_bounds"] = bad_bounds
    out["bad_positions"] = bad_positions
    return out


@ray.remote
def _scan_postings_part(index_dir: str, part_id: int, terms: List[str]) -> Dict:
    """Raw postings side of the blocks≡postings equivalence: pruned,
    predicate-pushdown read of the sampled terms only."""
    t = pq.read_table(
        os.path.join(index_dir, "postings", f"postings-{part_id:05d}.parquet"),
        columns=["term", "doc_num", "tf"],
        filters=[("term", "in", terms)],
    )
    stats: Dict[str, Dict] = {}
    if t.num_rows:
        terms_col = t.column("term").to_pylist()
        docs = t.column("doc_num").to_numpy().astype(np.int64)
        tfs = t.column("tf").to_numpy().astype(np.int64)
        by_term: Dict[str, List[int]] = {}
        for i, tm in enumerate(terms_col):
            by_term.setdefault(tm, []).append(i)
        for tm, idxs in by_term.items():
            ii = np.asarray(idxs, dtype=np.int64)
            stats[tm] = {
                "df": int(len(ii)),
                "cf": int(tfs[ii].sum()),
                "digest": _term_stream_digest(docs[ii], tfs[ii]),
            }
    return {"part_id": part_id, "term_stats": stats}


@ray.remote
def _check_vocab_bucket(index_dir: str, fname: str, n_sample: int) -> Dict:
    """One vocabulary bucket: totals + sortedness + a deterministic sample
    of ≤ n_sample (term, df, cf) rows (evenly strided — bounded return)."""
    t = pq.read_table(
        os.path.join(index_dir, "vocab", fname), columns=["term", "df", "cf"]
    )
    terms = t.column("term").to_pylist()
    df = t.column("df").to_numpy()
    cf = t.column("cf").to_numpy()
    errors = []
    if np.any(df < 1):
        errors.append(f"{fname}: {int((df < 1).sum())} terms with df < 1")
    if np.any(cf < df):
        errors.append(f"{fname}: {int((cf < df).sum())} terms with cf < df")
    if terms != sorted(terms):
        errors.append(f"{fname}: terms not sorted")
    stride = max(1, len(terms) // max(1, n_sample))
    sample = [
        (terms[i], int(df[i]), int(cf[i]))
        for i in range(0, len(terms), stride)
    ][:n_sample]
    return {"n_terms": len(terms), "sum_df": int(df.sum()),
            "sum_cf": int(cf.sum()), "sample": sample, "errors": errors}


def check_index(index_dir: str, sample_terms: int = 64) -> Dict:
    """Run every integrity check; see the module docstring for the list.

    ``sample_terms`` bounds the deep-verified vocabulary sample (0 skips
    the per-term deep checks entirely — structure/stats/dls/conv-map
    still run).  Never raises on a broken index: unreadable metadata is
    itself a failing check (an fsck that crashes on the corruption it
    exists to diagnose is useless)."""
    errors: List[str] = []
    checks: Dict[str, Dict] = {}

    try:
        with open(os.path.join(index_dir, "stats.json")) as f:
            stats = json.load(f)
        with open(os.path.join(index_dir, "build_report.json")) as f:
            report = json.load(f)
        _ = (stats["avgdl"], stats["N"], stats["total_dl"],
             stats["n_terms"], report["parts"])
    except (OSError, ValueError, KeyError) as e:
        checks["metadata"] = {"ok": False, "error": f"{type(e).__name__}: {e}"}
        errors.append(f"metadata: unreadable stats/build_report ({e})")
        return {"ok": False, "checks": checks, "errors": errors}
    cfg = BuildConfig.from_report(report.get("config", {}))
    window_docs = cfg.window_docs
    k1, b = float(cfg.bm25.k1), float(cfg.bm25.b)
    avgdl = float(stats["avgdl"]) or 1.0
    parts = [int(p) for p in report["parts"]]

    # ---- structure
    missing = []
    for p in parts:
        for sub, pat in (("blocks", "blocks-%05d.parquet"),
                         ("dls", "dls-%05d.parquet"),
                         ("docs", "docs-%05d.parquet"),
                         ("postings", "postings-%05d.parquet")):
            path = os.path.join(index_dir, sub, pat % p)
            if not os.path.exists(path):
                missing.append(os.path.relpath(path, index_dir))
    vocab_dir = os.path.join(index_dir, "vocab")
    vocab_files = sorted(
        f for f in os.listdir(vocab_dir) if f.endswith(".parquet")
    ) if os.path.isdir(vocab_dir) else []
    if not vocab_files:
        missing.append("vocab/*.parquet")
    if not os.path.isdir(os.path.join(index_dir, "conv_map")):
        missing.append("conv_map/")
    checks["structure"] = {"ok": not missing, "missing": missing}
    if missing:
        errors.append(f"structure: {len(missing)} missing files")
        return {"ok": False, "checks": checks, "errors": errors}

    # ---- stats cross-agreement
    rs = report.get("stats", {})
    stats_ok = all(
        abs(float(rs.get(key, stats[key])) - float(stats[key])) == 0
        for key in ("N", "total_dl", "n_terms")
    )
    n_from_parts = sum(int(s["n_docs"]) for s in report.get("part_summaries", []))
    if n_from_parts != int(stats["N"]):
        stats_ok = False
        errors.append(
            f"stats: N={stats['N']} != sum(part n_docs)={n_from_parts}"
        )
    checks["stats"] = {"ok": stats_ok, "N": int(stats["N"]),
                       "n_parts": len(parts)}
    if not stats_ok and not errors:
        errors.append("stats: stats.json and build_report.json disagree")

    # ---- vocabulary buckets (parallel) + deterministic term sample
    per_bucket = max(1, sample_terms // max(1, len(vocab_files)))
    vres = ray.get([
        _check_vocab_bucket.remote(index_dir, f, per_bucket)
        for f in vocab_files
    ])
    n_terms_total = sum(v["n_terms"] for v in vres)
    for v in vres:
        errors.extend(v["errors"])
    vocab_ok = (n_terms_total == int(stats["n_terms"])
                and not any(v["errors"] for v in vres))
    if n_terms_total != int(stats["n_terms"]):
        errors.append(
            f"vocab: {n_terms_total} terms across buckets != "
            f"stats n_terms {stats['n_terms']}"
        )
    checks["vocab"] = {"ok": vocab_ok, "n_terms": n_terms_total}

    # deterministic sample: spread evenly across buckets, capped at the
    # requested budget (per-bucket rounding can overshoot; 0 disables the
    # deep per-term checks entirely)
    sampled: Dict[str, Dict] = {}
    for v in vres:
        for term, df, cf in v["sample"]:
            sampled[term] = {"df": df, "cf": cf}
    terms = sorted(sampled)[: max(0, int(sample_terms))]
    sampled = {t: sampled[t] for t in terms}

    # ---- per-part decode + dls (parallel over parts)
    pres = ray.get([
        _check_part.remote(index_dir, p, window_docs, terms, k1, b, avgdl)
        for p in parts
    ])
    n_docs = sum(r["n_docs"] for r in pres)
    sum_dl = sum(r["sum_dl"] for r in pres)
    dls_ok = (n_docs == int(stats["N"]) and sum_dl == int(stats["total_dl"]))
    if not dls_ok:
        errors.append(
            f"dls: N={n_docs} (want {stats['N']}), "
            f"total_dl={sum_dl} (want {stats['total_dl']})"
        )
    checks["dls"] = {"ok": dls_ok, "N": n_docs, "total_dl": sum_dl}

    bad_bounds = sum(r["bad_bounds"] for r in pres)
    bad_positions = sum(r["bad_positions"] for r in pres)
    if bad_bounds:
        errors.append(f"blocks: {bad_bounds} block rows with wrong "
                      "max/min tfnorm bounds")
    if bad_positions:
        errors.append(f"blocks: {bad_positions} blocks whose position count "
                      "!= decoded tf sum")
    checks["block_bounds"] = {"ok": bad_bounds == 0, "bad": bad_bounds}
    checks["positions"] = {"ok": bad_positions == 0, "bad": bad_positions}

    # fold blocks-side per-term stats across parts.  The cross-part digest
    # fold is a modular SUM of per-part digests: order-insensitive, and
    # comparable across the two sides because blocks-NNNNN and
    # postings-NNNNN hold the SAME rows per part by construction (the
    # structure check above already proved the 1:1 file correspondence).
    blocks_side: Dict[str, Dict] = {
        t: {"df": 0, "cf": 0, "digest": 0} for t in terms
    }
    for r in pres:
        for t, st in r["term_stats"].items():
            acc = blocks_side[t]
            acc["df"] += st["df"]
            acc["cf"] += st["cf"]
            acc["digest"] = (acc["digest"] + st["digest"]) % ((1 << 127) - 1)

    # ---- raw postings side (parallel over parts, pruned reads); an empty
    # sample (sample_terms=0) skips the scan — pyarrow rejects `in ()`
    sres = ray.get([
        _scan_postings_part.remote(index_dir, p, terms) for p in parts
    ]) if terms else []
    postings_side: Dict[str, Dict] = {
        t: {"df": 0, "cf": 0, "digest": 0} for t in terms
    }
    for r in sres:
        for t, st in r["term_stats"].items():
            acc = postings_side[t]
            acc["df"] += st["df"]
            acc["cf"] += st["cf"]
            acc["digest"] = (acc["digest"] + st["digest"]) % ((1 << 127) - 1)

    term_mismatches = []
    for t in terms:
        v, bl, po = sampled[t], blocks_side[t], postings_side[t]
        if not (v["df"] == bl["df"] == po["df"]
                and v["cf"] == bl["cf"] == po["cf"]
                and bl["digest"] == po["digest"]):
            term_mismatches.append({
                "term": t, "vocab": v,
                "blocks": {k: bl[k] for k in ("df", "cf")},
                "postings": {k: po[k] for k in ("df", "cf")},
                "digest_match": bl["digest"] == po["digest"],
            })
    if term_mismatches:
        errors.append(
            f"terms: {len(term_mismatches)}/{len(terms)} sampled terms "
            "disagree across vocab/blocks/postings"
        )
    checks["sampled_terms"] = {
        "ok": not term_mismatches, "n_sampled": len(terms),
        "mismatches": term_mismatches[:10],
    }

    # ---- conv_map
    cm_dir = os.path.join(index_dir, "conv_map")
    cm_files = sorted(
        f for f in os.listdir(cm_dir) if f.endswith(".parquet")
    )
    n_turns_total = 0
    prev_conv, prev_off = None, -1
    cm_ok = True
    for f in cm_files:
        t = pq.read_table(os.path.join(cm_dir, f),
                          columns=["conv_id", "n_turns", "conv_offset"])
        conv = t.column("conv_id").to_pylist()
        offs = t.column("conv_offset").to_numpy()
        n_turns_total += int(t.column("n_turns").to_numpy().sum())
        full_conv = ([prev_conv] if prev_conv is not None else []) + conv
        full_offs = np.concatenate(([prev_off], offs)) if prev_off >= 0 else offs
        if list(full_conv) != sorted(full_conv) or np.any(np.diff(full_offs) <= 0):
            cm_ok = False
        if conv:
            prev_conv, prev_off = conv[-1], int(offs[-1])
    if n_turns_total != int(stats["N"]):
        cm_ok = False
        errors.append(
            f"conv_map: sum(n_turns)={n_turns_total} != N={stats['N']}"
        )
    elif not cm_ok:
        errors.append("conv_map: conv_id/conv_offset ordering violated")
    checks["conv_map"] = {"ok": cm_ok, "n_turns": n_turns_total}

    # ---- fuzzy sidecar (optional artifact): manifest consistency only —
    # content equivalence (sidecar ≡ vocabulary sweep) is pinned in pytest
    fz_dir = os.path.join(index_dir, "fuzzy_fastss")
    if os.path.isdir(fz_dir):
        fz_ok = True
        try:
            with open(os.path.join(fz_dir, "manifest.json")) as f:
                man = json.load(f)
            if int(man.get("n_terms", -1)) != int(stats["n_terms"]):
                fz_ok = False
                errors.append(
                    f"fuzzy_sidecar: manifest n_terms {man.get('n_terms')} "
                    f"!= stats n_terms {stats['n_terms']} (stale sidecar — "
                    "rebuild with `cli build-fuzzy`)"
                )
            n_files = len(
                [f for f in os.listdir(fz_dir) if f.endswith(".parquet")]
            )
            if n_files != int(man.get("written_buckets", -1)):
                fz_ok = False
                errors.append(
                    f"fuzzy_sidecar: {n_files} bucket files != manifest "
                    f"written_buckets {man.get('written_buckets')}"
                )
        except (OSError, ValueError) as e:
            fz_ok = False
            errors.append(f"fuzzy_sidecar: unreadable manifest ({e})")
        checks["fuzzy_sidecar"] = {"ok": fz_ok}

    return {"ok": not errors, "checks": checks, "errors": errors}
