"""FastSS deletion-neighborhood sidecar for fuzzy retrieval.

The scale path for edit-distance vocabulary expansion (Bocek et al. 2007,
"Fast Similarity Search in Large Dictionaries"): if lev(a, b) ≤ d then the
deletion neighborhoods U_d(a) and U_d(b) intersect (delete the edited
positions from both sides), so indexing every vocabulary term under the
hash of each of its ≤d-deletion variants turns a fuzzy expansion into
O(|U_d(q)|) POINT READS — (len+1) for d=1 — instead of a full vocabulary
sweep.  The neighborhood test is a SUPERSET (distance-2 pairs can share a
variant at d=1), so candidates pass through the exact banded-DP verify;
hash collisions are likewise harmless.  Results are therefore EXACTLY the
sweep's (pytest-pinned).

Layout: ``<index_dir>/fuzzy_fastss/`` — ``fastss-{bucket:05d}.parquet``
rows (vh int64, term, df) sorted by vh with small row groups (the same
row-group-statistics point-read machinery as the vocabulary), plus a
``manifest.json`` carrying {max_edits, n_buckets, n_rows, n_terms}.  The
sidecar is derived data: rebuild it after any index rebuild (the builder
overwrites atomically).  Size: Σ_terms |U_d(term)| rows ≈ (avglen+1)×terms
at d=1 (~8× the vocabulary; measured ~1 GB at 4.2M terms).

No reference counterpart (the reference has no fuzzy matching at all).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

SIDECAR_DIR = "fuzzy_fastss"
ROW_GROUP = 4096


def deletion_variants(term: str, d: int) -> List[str]:
    """U_d(term): the term plus every string reachable by ≤d single-char
    deletions (deduplicated, term-first)."""
    seen = {term}
    frontier = [term]
    for _ in range(d):
        nxt = []
        for t in frontier:
            for i in range(len(t)):
                v = t[:i] + t[i + 1:]
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    out = [term]
    out.extend(sorted(seen - {term}))
    return out


def build_fuzzy_sidecar(
    index_dir: str, max_edits: int = 1, n_buckets: int = 32
) -> Dict:
    """Distributed sidecar build over the index's vocabulary: one explode
    pass (term → its deletion variants, hashed), one hash-bucket groupby,
    one sorted atomic parquet write per bucket."""
    from oboyu_ray.stages.sketch import _hash64

    vocab_dir = os.path.join(index_dir, "vocab")
    out_dir = os.path.join(index_dir, SIDECAR_DIR)
    os.makedirs(out_dir, exist_ok=True)
    files = [
        os.path.join(vocab_dir, f)
        for f in sorted(os.listdir(vocab_dir))
        if f.endswith(".parquet")
    ]
    d = int(max_edits)

    def explode(t: pa.Table) -> pa.Table:
        terms = t.column("term").to_pylist()
        dfs = t.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        v_all: List[str] = []
        t_idx: List[int] = []
        for i, term in enumerate(terms):
            vs = deletion_variants(term, d)
            v_all.extend(vs)
            t_idx.extend([i] * len(vs))
        vh = _hash64(pa.array(v_all, type=pa.string()))
        ti = np.asarray(t_idx, dtype=np.int64)
        return pa.table(
            {
                "vb": pa.array((vh % np.uint64(n_buckets)).astype(np.int64)),
                "vh": pa.array(vh.view(np.int64), type=pa.int64()),
                "term": pa.array([terms[i] for i in t_idx], type=pa.string()),
                "df": pa.array(dfs[ti], type=pa.int64()),
            }
        )

    def write_bucket(g) -> "pa.Table":
        import pandas as pd  # noqa: F401  (map_groups pandas block)

        b = int(g["vb"].iloc[0])
        t = pa.table(
            {
                "vh": pa.array(g["vh"].to_numpy(np.int64), type=pa.int64()),
                "term": pa.array(g["term"].tolist(), type=pa.string()),
                "df": pa.array(g["df"].to_numpy(np.int64), type=pa.int64()),
            }
        ).sort_by([("vh", "ascending"), ("term", "ascending")])
        path = os.path.join(out_dir, f"fastss-{b:05d}.parquet")
        tmp = path + ".tmp"
        pq.write_table(t, tmp, row_group_size=ROW_GROUP)
        os.replace(tmp, path)
        import pandas as _pd

        return _pd.DataFrame({"bucket": [b], "rows": [t.num_rows]})

    ds = ray.data.read_parquet(files, columns=["term", "df"])
    n_terms = ds.count()
    summary = (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby("vb")
        .map_groups(write_bucket, batch_format="pandas")
        .to_pandas()
    )
    manifest = {
        "max_edits": d,
        "n_buckets": n_buckets,
        "n_rows": int(summary["rows"].sum()),
        "n_terms": int(n_terms),
        "written_buckets": int(len(summary)),
    }
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))
    return manifest


class FuzzySidecar:
    """Point-read lookup over a built sidecar.  ``lookup(q, d)`` returns
    {term: df} for every vocabulary term within levenshtein distance d —
    identical to the sweep (exact verify on candidates)."""

    def __init__(self, sidecar_dir: str) -> None:
        with open(os.path.join(sidecar_dir, "manifest.json")) as f:
            self.manifest = json.load(f)
        self.dir = sidecar_dir
        self.max_edits = int(self.manifest["max_edits"])
        self.n_buckets = int(self.manifest["n_buckets"])
        self._pf: Dict[int, tuple] = {}
        # decoded-row-group FIFO across lookups: repeated queries share hub
        # variants (common short deletions), and re-decoding a 4096-row
        # group per call dominated warm lookup latency (measured ~110 ms
        # p50 at a 82M-row sidecar → ~15 ms with the cache).  ~100 KB per
        # entry → ≤ ~50 MB resident.
        self._group_cache: Dict[tuple, tuple] = {}
        self._group_cache_cap = 512

    def _bucket(self, b: int):
        cached = self._pf.get(b)
        if cached is None:
            path = os.path.join(self.dir, f"fastss-{b:05d}.parquet")
            if not os.path.exists(path):
                cached = (None, [])
            else:
                pf = pq.ParquetFile(path)
                mins = [
                    pf.metadata.row_group(i).column(0).statistics.min
                    for i in range(pf.metadata.num_row_groups)
                ]
                cached = (pf, mins)
            self._pf[b] = cached
        return cached

    def lookup(self, q: str, d: int, max_terms: int = 1000) -> Dict[str, int]:
        from oboyu_ray.functions.querylang import lev_at_most
        from oboyu_ray.stages.sketch import _hash64

        if d > self.max_edits:
            raise ValueError(
                f"sidecar indexed for max_edits={self.max_edits}, asked d={d}"
            )
        import bisect

        variants = deletion_variants(q, d)
        vh = _hash64(pa.array(variants, type=pa.string())).view(np.int64)
        by_bucket: Dict[int, List[int]] = {}
        for h in vh.tolist():
            # reproduce the build's UINT64 modulo from the stored int64 view
            b = (h & 0xFFFFFFFFFFFFFFFF) % self.n_buckets
            by_bucket.setdefault(b, []).append(h)
        out: Dict[str, int] = {}
        for b, hs in by_bucket.items():
            pf, mins = self._bucket(b)
            if pf is None or not mins:
                continue
            by_group: Dict[int, List[int]] = {}
            for h in sorted(set(hs)):
                # the run of h can START in the group BEFORE the first
                # group whose min >= h (tail rows of the preceding group)
                # — bisect_left, not bisect_right: with bisect_right a
                # hub run spanning groups [9..12] (mins 10..12 all == h)
                # would start the walk at 12 and silently skip 9-11.
                gi = max(bisect.bisect_left(mins, h) - 1, 0)
                by_group.setdefault(gi, []).append(h)
            def _group(gi: int):
                key = (b, gi)
                g = self._group_cache.get(key)
                if g is None:
                    tb = pf.read_row_group(gi, columns=["vh", "term", "df"])
                    g = (
                        tb.column("vh").to_numpy(),
                        tb.column("term").to_pylist(),
                        tb.column("df").to_pylist(),
                    )
                    while len(self._group_cache) >= self._group_cache_cap:
                        self._group_cache.pop(next(iter(self._group_cache)))
                    self._group_cache[key] = g
                return g

            for gi0, ghs in by_group.items():
                for h in ghs:
                    gi = gi0
                    # a hub variant's run can span row-group boundaries —
                    # walk forward from the group where the run can start,
                    # scanning each group's [left, right) range, until a
                    # group contains a value > h (groups are globally
                    # vh-sorted, so no later group can hold h then)
                    while gi < pf.metadata.num_row_groups:
                        if gi > gi0 and mins[gi] > h:
                            break
                        col, terms, dfs = _group(gi)
                        lo = int(np.searchsorted(col, h, side="left"))
                        hi = int(np.searchsorted(col, h, side="right"))
                        for j in range(lo, hi):
                            t = terms[j]
                            if t not in out and lev_at_most(t, q, d):
                                out[t] = int(dfs[j])
                        if hi < len(col):
                            # a value > h exists in this group; every
                            # later group's min exceeds it — run is done
                            break
                        gi += 1
            if len(out) > max_terms:
                raise ValueError(
                    f"fuzzy {q!r}~{d} expands to >{max_terms} terms; "
                    "lower max_edits or raise max_terms"
                )
        return out


def open_sidecar(index_dir: str) -> Optional[FuzzySidecar]:
    p = os.path.join(index_dir, SIDECAR_DIR, "manifest.json")
    return FuzzySidecar(os.path.dirname(p)) if os.path.exists(p) else None
