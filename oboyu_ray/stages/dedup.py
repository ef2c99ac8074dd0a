"""Deduplication operators for large-scale training-data pipelines.

Five dedup families over a (doc_id, text) / (vec_id, embedding) table, each
expressed Ray-Data-first:

* exact_dedup        — hash-partition on a normalized-text key, keep first
                       (min doc_id) per group.  SQL-oracled.
* ngram_jaccard      — EXACT near-dup pairs via a distributed inverted
                       shingle index (word trigrams): flat (shingle, doc)
                       rows → groupby(shingle) → per-group pair partials →
                       groupby(pair) intersection counts → Jaccard filter.
                       SQL-oracled (the same shingle join in DuckDB).
* minhash_lsh        — MinHash signatures (vectorized universal-hash perms)
                       → banded LSH buckets → groupby(band, band_hash) →
                       candidate pairs → exact-Jaccard verification.  The
                       candidate stage is probabilistic-recall; verified
                       output is a subset of ngram_jaccard's (asserted in
                       tests), so the driver check is rows-only.
* simhash            — 64-bit SimHash over word features, bit-band blocking
                       (4 × 16-bit bands → COMPLETE for hamming ≤ 3 by
                       pigeonhole), hamming verification.
* embedding_cosine   — EXACT cosine near-dup pairs over an embedding
                       column, routed through IVF cells with sound
                       centroid-radius bounds (no matrix broadcast, no
                       driver materialization — see its docstring).
                       SQL-oracled with list_cosine_similarity.

Scale notes: the shingle groupby pre-aggregates pairs per group and never
materializes a full per-shingle doc list beyond the group (hot shingles
should be df-capped upstream — a shingle appearing in >F docs contributes
O(F²) pairs; ``max_shingle_df`` drops them exactly like stopword salting).
Candidate generation AND verification are fully distributed: candidates
stay a Dataset end-to-end (pair-bucketed reduce for min-share pruning +
dedup), and verification runs as bucketed cogroups that attach each doc's
shingle set to its pairs inside map_groups — the driver only ever holds
the distinct candidate-doc id array (semi-join pushdown; a bloom filter at
extreme scale) and the final verified pair list.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from oboyu_ray.fixedpoint import micros
from oboyu_ray.functions.arrowvec import matrix_to_fixed_list, vec_matrix
from oboyu_ray.stages.textstats import WORD_RE, _normalize

# ---------------------------------------------------------------- shingles

SHINGLE_WORDS = 3


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount over uint64 (no per-row Python loop)."""
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + (
            (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
        )
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        x = (x * np.uint64(0x0101010101010101)) >> np.uint64(56)
    return x.astype(np.int64)


def _flat_word_hashes(texts: Sequence[Optional[str]]) -> Tuple[np.ndarray, np.ndarray]:
    """Every word of every text hashed in ONE vectorized pass.

    Tokenization stays per-doc (WORD_RE.findall is a C-speed call), but the
    hashing — the former per-word Python md5 hotspot — is the bulk FNV-1a +
    splitmix64 kernel from ``sketch._hash64`` over a single packed Arrow
    string array.  Returns (word_hashes uint64 flat, word counts per text).
    """
    from oboyu_ray.stages.sketch import _hash64

    words: List[str] = []
    counts = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        w = WORD_RE.findall((t or "").lower())
        counts[i] = len(w)
        words.extend(w)
    if not words:
        return np.zeros(0, dtype=np.uint64), counts
    return _hash64(pa.array(words, type=pa.string())), counts


def _batch_shingle_hashes(texts: Sequence[Optional[str]]) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct word-trigram shingle hashes for a whole batch, vectorized.

    Trigram hash = order-sensitive splitmix64 chain over the three word
    hashes (64-bit: crc32 collides too easily at corpus scale).  Returns
    (doc_idx int64, hashes uint64) with doc_idx ascending and hashes sorted
    unique within each doc run — ready for ``np.searchsorted`` slicing.
    """
    from oboyu_ray.stages.sketch import _splitmix64

    wh, counts = _flat_word_hashes(texts)
    n = len(wh)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint64)
    starts = np.cumsum(counts) - counts
    doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
    valid = pos <= np.repeat(counts, counts) - SHINGLE_WORDS
    idx = np.flatnonzero(valid)
    if len(idx) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint64)
    h = _splitmix64(wh[idx] ^ _splitmix64(wh[idx + 1] ^ _splitmix64(wh[idx + 2])))
    d = doc_of[idx]
    order = np.lexsort((h, d))
    h, d = h[order], d[order]
    keep = np.ones(len(h), dtype=bool)
    keep[1:] = (h[1:] != h[:-1]) | (d[1:] != d[:-1])
    return d[keep], h[keep]


def _batch_char_bigram_hashes(
    texts: Sequence[Optional[str]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct character-bigram hashes per text, batch-vectorized — the
    feature set of the EDC name-merge verifier (kg.token_jaccard_verify):
    lowercase, spaces removed, bigrams; a string shorter than 2 chars is its
    own single feature.  Same (doc_idx, sorted-unique hashes) contract as
    ``_batch_shingle_hashes`` so ``_verify_pairs_exact`` can use either."""
    from oboyu_ray.stages.sketch import _hash64, _splitmix64

    cleaned = [(t or "").lower().replace(" ", "") for t in texts]
    counts = np.fromiter((len(s) for s in cleaned), dtype=np.int64, count=len(cleaned))
    blob = "".join(cleaned)
    if not blob:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint64)
    ch = _hash64(pa.array(list(blob), type=pa.string()))
    starts = np.cumsum(counts) - counts
    doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pos = np.arange(len(ch), dtype=np.int64) - np.repeat(starts, counts)
    # bigram rows: positions 0..len-2 of each doc; len-1 docs contribute
    # their single char as the whole-string feature
    big = pos <= np.repeat(counts, counts) - 2
    idx = np.flatnonzero(big)
    h = _splitmix64(ch[idx] ^ _splitmix64(ch[idx + 1]))
    d = doc_of[idx]
    single = np.flatnonzero(np.repeat(counts, counts) == 1)
    h = np.concatenate([h, _splitmix64(ch[single])])
    d = np.concatenate([d, doc_of[single]])
    order = np.lexsort((h, d))
    h, d = h[order], d[order]
    keep = np.ones(len(h), dtype=bool)
    keep[1:] = (h[1:] != h[:-1]) | (d[1:] != d[:-1])
    return d[keep], h[keep]


# ---------------------------------------------------------------- exact

def exact_dedup(ds: "ray.data.Dataset", id_col: str = "doc_id", text_col: str = "text") -> "ray.data.Dataset":
    """Exact dedup on normalized text: (key, doc_id=min, n_dups=count).

    Map-side partial aggregation (per-batch groupby) bounds the shuffle to
    (#batches × distinct keys per batch); the global groupby keeps the
    canonical representative = smallest doc_id.
    """
    from ray.data.aggregate import Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        keys = [
            hashlib.md5(_normalize(t or "").encode("utf-8")).hexdigest() for t in texts
        ]
        t = pa.table(
            {
                "key": pa.array(keys, type=pa.string()),
                id_col: batch.column(id_col),
            }
        )
        g = t.group_by("key").aggregate([(id_col, "min"), (id_col, "count")])
        return pa.table(
            {
                "key": g.column("key"),
                "min_id": g.column(f"{id_col}_min").cast(pa.int64()),
                "cnt": g.column(f"{id_col}_count").cast(pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Min("min_id", alias_name=id_col), Sum("cnt", alias_name="n_dups"))
    )
    return agg


# ---------------------------------------------------------------- bucketed pair generation

PAIR_BUCKETS = 64


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _pair_bucket(a: np.ndarray, b: np.ndarray, n_buckets: int) -> np.ndarray:
    """Deterministic bucket of a (doc_a, doc_b) pair — multiplicative mix so
    correlated id ranges spread evenly."""
    with np.errstate(over="ignore"):
        mix = (a.astype(np.uint64) * _GOLDEN) ^ b.astype(np.uint64)
    return (mix % np.uint64(n_buckets)).astype(np.int64)


def _bucketed_candidate_pairs(
    rows: "ray.data.Dataset",
    key_col: str,
    id_col: str,
    max_group: int,
    n_buckets: int = PAIR_BUCKETS,
    extra_col: Optional[str] = None,
    min_count: int = 1,
    size_ratio_tau: Optional[float] = None,
) -> "ray.data.Dataset":
    """Distinct co-occurrence pairs (doc_a < doc_b sharing a key) from flat
    (key, doc) rows, as a DATASET — nothing is collected to the driver.

    Stage 1 (key-bucketed): keys hash into ``n_buckets`` groups (ONE
    map_groups call per bucket, not per key — Ray's per-group overhead would
    dominate with millions of tiny key groups), and inside a bucket the
    pair generation is a vectorized sorted-run sweep.  Keys with more than
    ``max_group`` docs are dropped (hot-key fan-out cap; callers verify
    candidates exactly so this affects recall only).

    Stage 2 (pair-bucketed): every copy of a pair lands in the same pair
    bucket, where the shared-key count is taken and pairs sharing fewer
    than ``min_count`` keys are dropped (random co-occurrence pairs
    overwhelmingly share exactly one key, real near-dups share many — this
    prunes the verification set by ~1000x), then pairs are deduplicated.
    ``extra_col`` values ride along as ``<extra>_a`` / ``<extra>_b``.

    When ``size_ratio_tau`` is set (requires a numeric ``extra_col``
    carrying each doc's set size), pairs with min(size_a, size_b) <
    tau * max(size_a, size_b) are dropped in the pair-bucket reduce — an
    EXACT prune for Jaccard >= tau (|A∩B| <= min and |A∪B| >= max, so J <=
    min/max), cutting the rows the verification cogroup must shuffle."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        k = batch.column(key_col).to_numpy()
        b = (k.astype(np.uint64) % np.uint64(n_buckets)).astype(np.int64)
        return batch.append_column("bucket", pa.array(b, type=pa.int64()))

    def bucket_pairs(group: pa.Table) -> pa.Table:
        # Arrow in/out (r5, VERDICT #8 measured-first): keys/docs/extras are
        # all numeric here (keys are hashes by construction — add_bucket's
        # uint64 cast already requires it), so (key, doc) dedup is one
        # lexsort + consecutive-equal mask instead of a pandas round trip
        keys = group.column(key_col).to_numpy(zero_copy_only=False)
        docs = group.column(id_col).to_numpy(zero_copy_only=False)
        extras = (
            group.column(extra_col).to_numpy(zero_copy_only=False)
            if extra_col else None
        )
        order = np.lexsort((docs, keys))
        keys, docs = keys[order], docs[order]
        if extras is not None:
            extras = extras[order]
        if len(keys):
            keep = np.concatenate(
                ([True], (keys[1:] != keys[:-1]) | (docs[1:] != docs[:-1]))
            )
            keys, docs = keys[keep], docs[keep]
            if extras is not None:
                extras = extras[keep]
        n = len(keys)
        out_a: List[np.ndarray] = []
        out_b: List[np.ndarray] = []
        out_ea: List[np.ndarray] = []
        out_eb: List[np.ndarray] = []
        if n:
            change = np.concatenate(([True], keys[1:] != keys[:-1]))
            starts = np.flatnonzero(change)
            ends = np.concatenate((starts[1:], [n]))
            for s, e in zip(starts, ends):
                m = e - s
                if m < 2 or m > max_group:
                    continue
                i, j = np.triu_indices(m, k=1)
                out_a.append(docs[s:e][i])
                out_b.append(docs[s:e][j])
                if extras is not None:
                    out_ea.append(extras[s:e][i])
                    out_eb.append(extras[s:e][j])
        data = {
            "doc_a": np.concatenate(out_a) if out_a else np.zeros(0, dtype=np.int64),
            "doc_b": np.concatenate(out_b) if out_b else np.zeros(0, dtype=np.int64),
        }
        if extra_col:
            data[f"{extra_col}_a"] = (
                np.concatenate(out_ea) if out_ea else np.zeros(0, dtype=np.int64)
            )
            data[f"{extra_col}_b"] = (
                np.concatenate(out_eb) if out_eb else np.zeros(0, dtype=np.int64)
            )
        return pa.table({k: pa.array(v, type=pa.int64()) for k, v in data.items()})

    cols = ["doc_a", "doc_b"] + (
        [f"{extra_col}_a", f"{extra_col}_b"] if extra_col else []
    )

    def add_pbucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "pbucket",
            pa.array(_pair_bucket(
                t.column("doc_a").to_numpy(), t.column("doc_b").to_numpy(), n_buckets
            )),
        )

    def reduce_pairs(g: pa.Table) -> pa.Table:
        # Arrow in/out: copy-count + dedup is one lexsort over the pair
        # keys — run length = shared-key count, run head = representative
        # row (extras are per-doc constants, identical across a pair's
        # copies, so any copy serves)
        a = g.column("doc_a").to_numpy(zero_copy_only=False)
        b = g.column("doc_b").to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        a_s, b_s = a[order], b[order]
        n = len(a_s)
        heads = (
            np.concatenate(([True], (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])))
            if n else np.zeros(0, dtype=bool)
        )
        starts = np.flatnonzero(heads)
        if min_count > 1 and n:
            run_len = np.diff(np.concatenate((starts, [n])))
            starts = starts[run_len >= min_count]
        sel = order[starts]
        if size_ratio_tau is not None and extra_col:
            ea = g.column(f"{extra_col}_a").to_numpy(zero_copy_only=False)[sel].astype(np.float64)
            eb = g.column(f"{extra_col}_b").to_numpy(zero_copy_only=False)[sel].astype(np.float64)
            sel = sel[np.minimum(ea, eb) >= size_ratio_tau * np.maximum(ea, eb)]
        return g.select(cols).take(pa.array(sel, type=pa.int64()))

    return (
        rows.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pyarrow")
        .map_batches(add_pbucket, batch_format="pyarrow")
        .groupby("pbucket")
        .map_groups(reduce_pairs, batch_format="pyarrow")
    )


# ---------------------------------------------------------------- n-gram Jaccard (exact)

def shingle_rows(
    ds: "ray.data.Dataset", id_col: str = "doc_id", text_col: str = "text"
) -> "ray.data.Dataset":
    """flat (shingle: uint64-as-int64, doc, ssize) rows, distinct per doc;
    ``ssize`` is the doc's distinct-shingle count (each doc's text is one
    row, so the count is exact per batch), carried so candidate generation
    can apply the exact size-ratio prune."""

    def emit(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        d, h = _batch_shingle_hashes(batch.column(text_col).to_pylist())
        counts = np.bincount(d, minlength=len(ids)) if len(d) else np.zeros(len(ids), dtype=np.int64)
        return pa.table(
            {
                "shingle": pa.array(h.view(np.int64), type=pa.int64()),
                id_col: pa.array(ids[d], type=pa.int64()),
                "ssize": pa.array(counts[d].astype(np.int64), type=pa.int64()),
            }
        )

    return ds.map_batches(emit, batch_format="pyarrow")


_EMPTY_PAIRS = {
    "doc_a": pd.Series(dtype=np.int64),
    "doc_b": pd.Series(dtype=np.int64),
    "jaccard_micros": pd.Series(dtype=np.int64),
}


def _verify_pairs_exact(
    ds: "ray.data.Dataset",
    candidates: "ray.data.Dataset",
    tau: float,
    id_col: str,
    text_col: str,
    n_buckets: int = PAIR_BUCKETS,
    shingler=None,
    as_dataset: bool = False,
):
    """DISTRIBUTED exact-Jaccard verification of candidate (doc_a, doc_b)
    pairs against true shingle sets — shared by the ngram and MinHash
    families (word-trigram shingler, the default) and EDC name merging
    (char-bigram shingler).  No shingle set and no pair list ever materializes on the
    driver; the only driver-held state is the distinct candidate-doc id
    array used as a semi-join pushdown filter (one int64 per near-dup doc;
    a bloom filter replaces it at extreme scale).

    Shape: (1) candidate pairs fan out into two side rows each, unioned
    with candidate docs' text rows; (2) groupby(doc % B) attaches each
    doc's shingle set (computed once, in the bucket task) to every pair
    side that references it; (3) groupby(pair-bucket) brings a pair's two
    sides together and computes exact Jaccard.  Every reduce is bucketed
    (B groups, vectorized inside), so group count stays bounded and hot
    docs amortize across their bucket."""
    shingler = shingler or _batch_shingle_hashes
    candidates = candidates.materialize()  # small post-pruning set, reused 2x
    parts = [
        np.unique(np.concatenate(
            [b.column("doc_a").to_numpy(), b.column("doc_b").to_numpy()]
        ))
        for b in candidates.iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    if not parts:
        if as_dataset:
            return ray.data.from_arrow(pa.table(
                {k: pa.array(v, type=pa.int64()) for k, v in _EMPTY_PAIRS.items()}
            ))
        return pd.DataFrame(_EMPTY_PAIRS)
    cand_ref = ray.put(np.unique(np.concatenate(parts)))

    def sides(t: pa.Table) -> pa.Table:
        a = t.column("doc_a").to_numpy().astype(np.int64)
        b = t.column("doc_b").to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "pair_a": pa.array(np.concatenate([a, a]), type=pa.int64()),
                "pair_b": pa.array(np.concatenate([b, b]), type=pa.int64()),
                "text": pa.nulls(2 * len(a), type=pa.string()),
            }
        )

    def set_rows(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).cast(pa.int64()).to_numpy()
        sel = t.filter(pa.array(np.isin(ids, ray.get(cand_ref))))
        n = sel.num_rows
        return pa.table(
            {
                "doc": sel.column(id_col).cast(pa.int64()),
                "pair_a": pa.array(np.full(n, -1, dtype=np.int64), type=pa.int64()),
                "pair_b": pa.array(np.full(n, -1, dtype=np.int64), type=pa.int64()),
                "text": sel.column(text_col).cast(pa.string()),
            }
        )

    unioned = candidates.map_batches(sides, batch_format="pyarrow").union(
        ds.map_batches(set_rows, batch_format="pyarrow")
    )

    def add_dbucket(t: pa.Table) -> pa.Table:
        d = t.column("doc").to_numpy().astype(np.uint64)
        return t.append_column(
            "dbucket", pa.array((d % np.uint64(n_buckets)).astype(np.int64))
        )

    def attach_sets(g: pd.DataFrame) -> pd.DataFrame:
        is_set = g["pair_a"].to_numpy() < 0
        set_docs = g.loc[is_set, "doc"].to_numpy(dtype=np.int64)
        di, dh = shingler(g.loc[is_set, "text"].tolist())
        bounds = np.searchsorted(di, np.arange(len(set_docs) + 1))
        sets = {
            int(set_docs[i]): dh[bounds[i] : bounds[i + 1]]
            for i in range(len(set_docs))
        }
        pr = g.loc[~is_set]
        blobs = [
            sets.get(int(d), np.zeros(0, dtype=np.uint64)).tobytes()
            for d in pr["doc"]
        ]
        return pd.DataFrame(
            {
                "pair_a": pr["pair_a"].to_numpy(dtype=np.int64),
                "pair_b": pr["pair_b"].to_numpy(dtype=np.int64),
                "doc": pr["doc"].to_numpy(dtype=np.int64),
                "blob": blobs,
            }
        )

    attached = (
        unioned.map_batches(add_dbucket, batch_format="pyarrow")
        .groupby("dbucket")
        .map_groups(attach_sets, batch_format="pandas")
    )

    def add_vbucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "vbucket",
            pa.array(_pair_bucket(
                t.column("pair_a").to_numpy(), t.column("pair_b").to_numpy(), n_buckets
            )),
        )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        """Exact Jaccard for every candidate pair in the bucket, with NO
        per-pair Python loop: both endpoint sets are already sorted-unique
        uint64 blobs, so |A∩B| for ALL pairs at once is one lexsort over
        (pair, hash) + an adjacent-duplicate count."""
        empty = pd.DataFrame(
            {
                "doc_a": np.zeros(0, dtype=np.int64),
                "doc_b": np.zeros(0, dtype=np.int64),
                "jaccard_micros": np.zeros(0, dtype=np.int64),
            }
        )
        pa_ids = g["pair_a"].to_numpy(dtype=np.int64)
        pb_ids = g["pair_b"].to_numpy(dtype=np.int64)
        docs = g["doc"].to_numpy(dtype=np.int64)
        blobs = g["blob"].to_numpy()
        side = np.where(docs == pa_ids, 0, np.where(docs == pb_ids, 1, -1))
        keys = np.stack([pa_ids, pb_ids], axis=1)
        uniq, pidx = np.unique(keys, axis=0, return_inverse=True)
        # first blob row per (pair, side); pairs missing a side are dropped
        slot = np.full((len(uniq), 2), -1, dtype=np.int64)
        valid = side >= 0
        order = np.lexsort((side[valid], pidx[valid]))
        vrows = np.flatnonzero(valid)[order]
        ps, ss = pidx[vrows], side[vrows]
        first = np.r_[True, (ps[1:] != ps[:-1]) | (ss[1:] != ss[:-1])]
        slot[ps[first], ss[first]] = vrows[first]
        sizes = np.fromiter((len(b) // 8 for b in blobs), dtype=np.int64, count=len(blobs))
        ok = (slot[:, 0] >= 0) & (slot[:, 1] >= 0)
        ok &= (sizes[slot[:, 0]] > 0) & (sizes[slot[:, 1]] > 0)
        pok = np.flatnonzero(ok)
        if len(pok) == 0:
            return empty
        la = sizes[slot[pok, 0]]
        lb = sizes[slot[pok, 1]]
        hcat = np.concatenate(
            [
                np.frombuffer(blobs[slot[p, s]], dtype=np.uint64)
                for p in pok
                for s in (0, 1)
            ]
        )
        pair_rep = np.repeat(np.arange(len(pok)), la + lb)
        o = np.lexsort((hcat, pair_rep))
        hs, pr = hcat[o], pair_rep[o]
        dup = (hs[1:] == hs[:-1]) & (pr[1:] == pr[:-1])
        ni = np.bincount(pr[1:][dup], minlength=len(pok))
        jac = ni / (la + lb - ni)
        keep = jac >= tau
        return pd.DataFrame(
            {
                "doc_a": uniq[pok[keep], 0],
                "doc_b": uniq[pok[keep], 1],
                "jaccard_micros": micros(jac[keep]).astype(np.int64),
            }
        )

    pairs_ds = (
        attached.map_batches(add_vbucket, batch_format="pyarrow")
        .groupby("vbucket")
        .map_groups(verify, batch_format="pandas")
    )
    if as_dataset:
        # the Dataset-returning seam: at extreme dup density the verified
        # pair stream can feed the next stage (CC edges, parquet sink)
        # without ever materializing on the driver
        return pairs_ds
    out = pairs_ds.to_pandas()
    if out.empty:
        return pd.DataFrame(_EMPTY_PAIRS)
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def ngram_jaccard_pairs(
    ds: "ray.data.Dataset",
    tau: float = 0.5,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_shingle_df: int = 16,
    min_shared_shingles: int = 2,
    as_dataset: bool = False,
):
    """Word-trigram Jaccard near-dup pairs with jaccard >= tau, exact values.

    Candidate generation: inverted shingle index — groupby(shingle) emits
    per-group co-occurrence pairs, with hot shingles (df > max_shingle_df)
    dropped to bound group fan-out (the skew cap; same role as stopword
    salting) and pairs sharing fewer than ``min_shared_shingles`` sub-cap
    shingles dropped (random co-occurrences share one; near-dups share
    dozens).  Verification: exact Jaccard over TRUE shingle sets, so
    reported values are always exact; the cap/min-share affect recall only,
    and a tau >= 0.5 near-dup is missed only if it shares < 2 non-hot
    shingles — essentially never (asserted against the uncapped SQL oracle
    on the test corpora).
    Returns (doc_a, doc_b, jaccard_micros) sorted by (doc_a, doc_b); with
    ``as_dataset=True`` the verified pair STREAM is returned as an unsorted
    Ray Dataset instead (nothing materializes on the driver — feed it to
    connected_components or a parquet sink at extreme dup density).
    """
    rows = shingle_rows(ds, id_col, text_col)
    candidates = _bucketed_candidate_pairs(
        rows,
        "shingle",
        id_col,
        max_shingle_df,
        min_count=min_shared_shingles,
        extra_col="ssize",
        size_ratio_tau=tau,
    )
    return _verify_pairs_exact(
        ds, candidates, tau, id_col, text_col, as_dataset=as_dataset
    )


# ---------------------------------------------------------------- MinHash + LSH

MINHASH_PERMS = 64
LSH_BANDS = 16  # 4 rows per band
_MERSENNE = np.uint64((1 << 61) - 1)
MINHASH_SLAB = 1 << 16  # shingles per (shingles × num_perm) hash-matrix pass


def _perm_params(num_perm: int, seed: int = 7) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.randint(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_lsh_pairs(
    ds: "ray.data.Dataset",
    tau: float = 0.5,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = MINHASH_PERMS,
    bands: int = LSH_BANDS,
    as_dataset: bool = False,
):
    """MinHash+LSH near-dup candidates, exact-Jaccard verified.

    Pipeline: map_batches[shingle → minhash sig → band keys] →
    groupby(band, band_hash) → candidate pairs → distinct →
    verify with exact shingle sets via the shared bucketed-cogroup
    verification (fully distributed — see _verify_pairs_exact).
    Output schema identical to ngram_jaccard_pairs; contents are a subset
    (LSH recall < 1 by construction).
    """
    a, b = _perm_params(num_perm)
    rows_per_band = num_perm // bands

    def band_rows(batch: pa.Table) -> pa.Table:
        from oboyu_ray.stages.sketch import _splitmix64

        ids = batch.column(id_col).to_numpy().astype(np.int64)
        d, sh = _batch_shingle_hashes(batch.column(text_col).to_pylist())
        if len(sh) == 0:
            return pa.table(
                {
                    "lshkey": pa.array([], type=pa.int64()),
                    id_col: pa.array([], type=pa.int64()),
                }
            )
        # per-doc run boundaries (docs without shingles are absent from d,
        # matching the old per-doc `continue`)
        doc_starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        present = d[doc_starts]
        # signature = segment-min of (a*x+b) & M61 — slabbed so the
        # (shingles × num_perm) hash matrix stays bounded per pass
        sig_parts: List[np.ndarray] = []
        i = 0
        while i < len(doc_starts):
            j = i + 1
            while j < len(doc_starts) and doc_starts[j] - doc_starts[i] < MINHASH_SLAB:
                j += 1
            lo = doc_starts[i]
            hi = doc_starts[j] if j < len(doc_starts) else len(sh)
            with np.errstate(over="ignore"):
                H = (sh[lo:hi, None] * a[None, :] + b[None, :]) & _MERSENNE
            sig_parts.append(np.minimum.reduceat(H, doc_starts[i:j] - lo, axis=0))
            i = j
        sig = np.concatenate(sig_parts)  # (n_docs_present, num_perm)
        # band key = (band, 32-bit fold of the band's rows) — chained
        # splitmix64 over each row, vectorized across all docs at once
        chunk = sig.reshape(len(present), bands, rows_per_band)
        acc = np.zeros((len(present), bands), dtype=np.uint64)
        for r in range(rows_per_band):
            acc = _splitmix64(acc ^ chunk[:, :, r])
        keys = (np.arange(bands, dtype=np.int64)[None, :] << 33) | (
            acc & np.uint64(0xFFFFFFFF)
        ).astype(np.int64)
        return pa.table(
            {
                "lshkey": pa.array(keys.ravel(), type=pa.int64()),
                id_col: pa.array(np.repeat(ids[present], bands), type=pa.int64()),
            }
        )

    rows = ds.map_batches(band_rows, batch_format="pyarrow")
    candidates = _bucketed_candidate_pairs(rows, "lshkey", id_col, max_group=256)
    return _verify_pairs_exact(
        ds, candidates, tau, id_col, text_col, as_dataset=as_dataset
    )


# ---------------------------------------------------------------- SimHash

SIMHASH_BITS = 64
SIMHASH_BANDS = 4  # 16 bits each → complete for hamming <= 3


def _batch_simhash(texts: Sequence[Optional[str]]) -> np.ndarray:
    """64-bit SimHash over word features weighted by term frequency, for a
    whole batch in one vectorized pass (wordless docs hash to 0).

    Per-(doc, word) term frequencies come from a sort + run-length pass;
    the 64 bit-planes accumulate via ``np.add.reduceat`` over the per-doc
    runs — no per-word Python loop anywhere."""
    wh, counts = _flat_word_hashes(texts)
    sig = np.zeros(len(texts), dtype=np.uint64)
    if len(wh) == 0:
        return sig
    doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    order = np.lexsort((wh, doc_of))
    h, d = wh[order], doc_of[order]
    new = np.ones(len(h), dtype=bool)
    new[1:] = (h[1:] != h[:-1]) | (d[1:] != d[:-1])
    grp = np.cumsum(new) - 1
    tf = np.bincount(grp).astype(np.int32)
    hu, du = h[new], d[new]  # distinct (doc, word-hash) pairs, doc-sorted
    bit_idx = np.arange(SIMHASH_BITS, dtype=np.uint64)
    bits = ((hu[:, None] >> bit_idx[None, :]) & np.uint64(1)).astype(np.int32)
    w = (2 * bits - 1) * tf[:, None]
    dstarts = np.flatnonzero(np.r_[True, du[1:] != du[:-1]])
    acc = np.add.reduceat(w, dstarts, axis=0)  # (docs_present, 64)
    on = (acc > 0).astype(np.uint64)
    sig[du[dstarts]] = (on << bit_idx[None, :]).sum(axis=1).astype(np.uint64)
    return sig


def simhash_pairs(
    ds: "ray.data.Dataset",
    hamming_max: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    as_dataset: bool = False,
):
    """Near-dup pairs with SimHash hamming distance <= hamming_max.

    Bit-band blocking: 4 bands × 16 bits; a pair within hamming <= 3 shares
    at least one identical band (pigeonhole) → blocking is COMPLETE, the
    result is exact for the SimHash metric.  groupby(band, bits) → pairs →
    hamming verify.  Returns (doc_a, doc_b, hamming) sorted.
    """
    assert hamming_max < SIMHASH_BANDS, "blocking completeness needs hamming < bands"

    def sig_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        s = _batch_simhash(batch.column(text_col).to_pylist())  # (n_docs,)
        width = SIMHASH_BITS // SIMHASH_BANDS
        mask = np.uint64((1 << width) - 1)
        bi = np.arange(SIMHASH_BANDS, dtype=np.uint64)
        # (band, band-bits) folded into one int64 key, all docs at once
        keys = (bi.astype(np.int64)[None, :] << (width + 1)) | (
            (s[:, None] >> (bi[None, :] * np.uint64(width))) & mask
        ).astype(np.int64)
        return pa.table(
            {
                "shkey": pa.array(keys.ravel(), type=pa.int64()),
                id_col: pa.array(np.repeat(ids, SIMHASH_BANDS), type=pa.int64()),
                "sig": pa.array(np.repeat(s.view(np.int64), SIMHASH_BANDS)),
            }
        )

    rows = ds.map_batches(sig_rows, batch_format="pyarrow")
    cand = _bucketed_candidate_pairs(rows, "shkey", id_col, max_group=256, extra_col="sig")

    def ham_verify(t: pa.Table) -> pa.Table:
        x = (
            t.column("sig_a").to_numpy().astype(np.uint64)
            ^ t.column("sig_b").to_numpy().astype(np.uint64)
        )
        ham = _popcount64(x)
        keep = ham <= hamming_max
        return pa.table(
            {
                "doc_a": pa.array(t.column("doc_a").to_numpy()[keep], type=pa.int64()),
                "doc_b": pa.array(t.column("doc_b").to_numpy()[keep], type=pa.int64()),
                "hamming": pa.array(ham[keep].astype(np.int64), type=pa.int64()),
            }
        )

    pairs_ds = cand.map_batches(ham_verify, batch_format="pyarrow")
    if as_dataset:
        return pairs_ds
    out = pairs_ds.to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "doc_a": pd.Series(dtype=np.int64),
                "doc_b": pd.Series(dtype=np.int64),
                "hamming": pd.Series(dtype=np.int64),
            }
        )
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# ---------------------------------------------------------------- embedding cosine

def embedding_cosine_pairs(
    ds: "ray.data.Dataset",
    tau: float = 0.4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_cells: Optional[int] = None,
    as_dataset: bool = False,
):
    """EXACT cosine near-dup pairs (cos >= tau), routed through IVF cells —
    no full-matrix broadcast, no driver-side embedding materialization.

    Scheme: train an IVF coarse quantizer (simsearch.ivf_train), measure
    each cell's angular radius r_d = max angle(member, centroid) in one
    partial-aggregation pass, then route every vector to (a) its home cell
    as a member and (b) every foreign cell d whose SOUND bound
    cos(angle(v, centroid_d) - r_d) >= tau as a probe.  A groupby(cell)
    stage compares members pairwise and probes x members.  Exactness: if
    cos(v, u) >= tau with u in cell d, the bound for (v, d) is >= cos(v, u)
    >= tau, so BOTH directions of every qualifying pair are routed — the
    ``probe.id < member.id`` rule therefore counts each cross-cell pair
    exactly once (home pairs use i < j).  Pruning engages when embeddings
    cluster (real near-dup corpora); worst case (isotropic vectors, radii
    ~90°) degenerates to n_cells-way replication, still never a driver
    bottleneck.  Returns (vec_a, vec_b, cos_micros) sorted.
    """
    from oboyu_ray.stages.simsearch import _normalize_rows, ivf_train
    from oboyu_ray.state.vector_index import auto_n_cells

    if n_cells is None:
        n_cells = auto_n_cells(ds.count())
    C = ivf_train(ds, n_cells=n_cells, id_col=id_col, vec_col=vec_col)
    cref = ray.put(C)

    # pass 1: per-cell angular radius (per-batch partial max → driver combine;
    # n_cells floats of driver state)
    def radius_partial(batch: pa.Table) -> pa.Table:
        cen = ray.get(cref)
        bm = _normalize_rows(vec_matrix(batch.column(vec_col)))
        A = np.clip(bm @ cen.T, -1.0, 1.0)
        cell = np.argmax(A, axis=1)
        theta = np.arccos(A[np.arange(len(cell)), cell])
        r = np.zeros(len(cen))
        np.maximum.at(r, cell, theta)
        return pa.table(
            {
                "cell": pa.array(np.arange(len(cen)), type=pa.int64()),
                "radius": pa.array(r, type=pa.float64()),
            }
        )

    radii = np.zeros(len(C))
    for b in ds.map_batches(radius_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        np.maximum.at(radii, b.column("cell").to_numpy(), b.column("radius").to_numpy())
    rref = ray.put(radii)

    # pass 2: route (member to home cell; probe to foreign cells the bound admits)
    def route(batch: pa.Table) -> pa.Table:
        cen, rad = ray.get(cref), ray.get(rref)
        bids = batch.column(id_col).to_numpy().astype(np.int64)
        bm = _normalize_rows(vec_matrix(batch.column(vec_col)))
        A = np.clip(bm @ cen.T, -1.0, 1.0)
        home = np.argmax(A, axis=1)
        theta = np.arccos(A)  # (n, n_cells) angle to every centroid
        bound = np.cos(np.maximum(theta - rad[None, :], 0.0))
        probe = bound >= tau
        probe[np.arange(len(home)), home] = False
        vi, cj = np.nonzero(probe)
        out_cell = np.concatenate([home, cj])
        out_kind = np.concatenate(
            [np.zeros(len(home), dtype=np.int64), np.ones(len(vi), dtype=np.int64)]
        )
        idx = np.concatenate([np.arange(len(home)), vi])
        return pa.table(
            {
                "cell": pa.array(out_cell, type=pa.int64()),
                "kind": pa.array(out_kind, type=pa.int64()),  # 0=member, 1=probe
                id_col: pa.array(bids[idx], type=pa.int64()),
                "vec": matrix_to_fixed_list(bm[idx]),
            }
        )

    def cell_pairs(g: pd.DataFrame) -> pd.DataFrame:
        mem = g[g["kind"] == 0]
        prb = g[g["kind"] == 1]
        mids = mem[id_col].to_numpy(dtype=np.int64)
        out_a: List[np.ndarray] = []
        out_b: List[np.ndarray] = []
        out_s: List[np.ndarray] = []
        if len(mids) >= 2:
            H = np.stack(mem["vec"].to_numpy())
            S = H @ H.T
            i, j = np.nonzero(S >= tau)
            keep = mids[i] < mids[j]
            out_a.append(mids[i][keep])
            out_b.append(mids[j][keep])
            out_s.append(S[i[keep], j[keep]])
        if len(prb) and len(mids):
            P = np.stack(prb["vec"].to_numpy())
            pids = prb[id_col].to_numpy(dtype=np.int64)
            S = P @ np.stack(mem["vec"].to_numpy()).T
            i, j = np.nonzero(S >= tau)
            keep = pids[i] < mids[j]  # cross-cell pair counted exactly once
            out_a.append(pids[i][keep])
            out_b.append(mids[j][keep])
            out_s.append(S[i[keep], j[keep]])
        if not out_a:
            return pd.DataFrame(
                {
                    "vec_a": np.zeros(0, dtype=np.int64),
                    "vec_b": np.zeros(0, dtype=np.int64),
                    "cos_micros": np.zeros(0, dtype=np.int64),
                }
            )
        return pd.DataFrame(
            {
                "vec_a": np.concatenate(out_a),
                "vec_b": np.concatenate(out_b),
                "cos_micros": micros(np.concatenate(out_s)),
            }
        )

    pairs_ds = (
        ds.map_batches(route, batch_format="pyarrow")
        .groupby("cell")
        .map_groups(cell_pairs, batch_format="pandas")
    )
    if as_dataset:
        return pairs_ds
    out = pairs_ds.to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "vec_a": pd.Series(dtype=np.int64),
                "vec_b": pd.Series(dtype=np.int64),
                "cos_micros": pd.Series(dtype=np.int64),
            }
        )
    return out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


# ------------------------------------------------- incremental (store) dedup

FP_STORE_BUCKETS = 64


def _fp_rows(batch: pa.Table, id_col: str, text_col: str, n_buckets: int) -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    keys = [hashlib.md5(_normalize(t or "").encode("utf-8")).hexdigest() for t in texts]
    bucket = np.fromiter((int(k[:2], 16) % n_buckets for k in keys), dtype=np.int64,
                         count=len(keys))
    return pa.table(
        {
            "key": pa.array(keys, type=pa.string()),
            id_col: batch.column(id_col),
            "bucket": pa.array(bucket),
        }
    )


def build_fingerprint_store(
    ds: "ray.data.Dataset",
    store_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = FP_STORE_BUCKETS,
) -> str:
    """Persist the corpus's exact-dedup fingerprints (md5 of normalized
    text) as a BUCKET-PARTITIONED parquet store — the standing state a
    continuously-ingesting pipeline dedups every new data drop against.
    Bucket = md5-prefix, so an incremental run touches only the bucket
    files its new keys land in; size ``n_buckets`` so one bucket file
    streams comfortably (raise it as the store grows — re-bucketing is a
    one-shuffle rewrite)."""

    def part(b: pa.Table) -> pa.Table:
        t = _fp_rows(b, id_col, text_col, n_buckets)
        # distinct within batch: the store needs each key once
        g = t.group_by(["bucket", "key"]).aggregate([])
        return g

    ds.map_batches(part, batch_format="pyarrow").write_parquet(
        store_dir, partition_cols=["bucket"]
    )
    return store_dir


def dedup_against_store(
    ds: "ray.data.Dataset",
    store_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = FP_STORE_BUCKETS,
) -> "ray.data.Dataset":
    """Incremental exact dedup: drop new docs whose normalized-text
    fingerprint already exists in the store, then canonicalize duplicates
    WITHIN the new batch (keep smallest id, count group size) — the
    production flow for a corpus that grows by drops.

    Shape: new rows bucket by key prefix and cogroup per bucket; each
    bucket task reads ONLY its store partition (one columnar file read per
    bucket, never the whole store) and anti-joins in memory.  Survivors
    then run the ordinary map-side-partial exact dedup.  Output:
    (key, doc_id, n_dups) like ``exact_dedup``."""
    import os

    import pyarrow.parquet as _pq

    def add_bucket(b: pa.Table) -> pa.Table:
        return _fp_rows(b, id_col, text_col, n_buckets)

    def anti(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.compute as _pc

        bucket = int(g["bucket"].iloc[0])
        d = os.path.join(store_dir, f"bucket={bucket}")
        parts = [
            _pq.read_table(os.path.join(d, f), columns=["key"]).column("key")
            for f in (sorted(os.listdir(d)) if os.path.isdir(d) else [])
            if f.endswith(".parquet")
        ]
        keys = pa.array(g["key"].to_numpy(dtype=object), type=pa.string())
        if parts:
            seen = pa.concat_arrays([c for p in parts for c in p.chunks])
            keep = ~_pc.is_in(keys, value_set=seen).to_numpy(zero_copy_only=False)
        else:
            keep = np.ones(len(g), dtype=bool)
        return g.loc[keep, ["key", id_col]].reset_index(drop=True)

    surv = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(anti, batch_format="pandas")
    )

    # canonicalize within the drop: map-side partial min/count per key
    from ray.data.aggregate import Min, Sum

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("key").aggregate([(id_col, "min"), (id_col, "count")])
        return pa.table(
            {
                "key": g.column("key"),
                "min_id": g.column(f"{id_col}_min").cast(pa.int64()),
                "cnt": g.column(f"{id_col}_count").cast(pa.int64()),
            }
        )

    return (
        surv.map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Min("min_id", alias_name=id_col), Sum("cnt", alias_name="n_dups"))
    )


# ------------------------------------------------------- prefix containment

def prefix_dups(
    ds: "ray.data.Dataset", id_col: str = "doc_id", text_col: str = "text"
) -> "ray.data.Dataset":
    """Docs whose text is a PREFIX of another doc's (truncated-copy dedup:
    a doc is flagged when some other doc's text starts with its text and is
    longer — or equal with a larger id, so exact-dup runs keep exactly one
    survivor).

    The sorted-adjacency trick makes this a GLOBAL SORT plus a linear scan:
    in (text, id) order, if A is a prefix of ANY later doc it is a prefix
    of its IMMEDIATE successor (every string sorting between A and
    A+suffix must itself start with A under bytewise UTF-8 comparison —
    which orders exactly like code points, so Ray/Arrow and DuckDB agree).
    Ray Data's range-partitioned ``sort`` does the wide work; flags are a
    per-block vectorized startswith over adjacent rows, plus a driver check
    of the <=2-rows-per-block boundary seam (block count rows, not data
    rows).  Output: (doc_id,) of flagged docs.
    """
    import ray.data as _rd

    sorted_ds = ds.sort([text_col, id_col]).materialize()

    def block_flags(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pylist()
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(texts) < 2:
            return pa.table({id_col: pa.array([], type=pa.int64())})
        keep = [
            (texts[i + 1] or "").startswith(texts[i] or "")
            for i in range(len(texts) - 1)
        ]
        return pa.table(
            {id_col: pa.array(ids[:-1][np.array(keep, dtype=bool)], type=pa.int64())}
        )

    def block_edges(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "pos": pa.array([], type=pa.int64()),
                    id_col: pa.array([], type=pa.int64()),
                    text_col: pa.array([], type=pa.string()),
                }
            )
        sel = pa.array([0, t.num_rows - 1])
        return pa.table(
            {
                "pos": pa.array([0, 1], type=pa.int64()),
                id_col: t.column(id_col).take(sel),
                text_col: t.column(text_col).take(sel),
            }
        )

    inner = sorted_ds.map_batches(block_flags, batch_format="pyarrow", batch_size=None)

    # boundary seam: last row of block i vs first row of block i+1 — O(blocks)
    # rows on the driver, in dataset order
    edges = sorted_ds.map_batches(
        block_edges, batch_format="pyarrow", batch_size=None
    ).take_all()
    boundary: list = []
    for i in range(0, len(edges) - 2, 2):
        tail, head = edges[i + 1], edges[i + 2]
        if (head[text_col] or "").startswith(tail[text_col] or ""):
            boundary.append(int(tail[id_col]))
    if boundary:
        inner = inner.union(
            _rd.from_arrow(pa.table({id_col: pa.array(boundary, type=pa.int64())}))
        )
    return inner


# ---------------------------------------------------- substring containment

SUBSTR_W = 16          # fingerprint gram length (chars)
SUBSTR_WIN = 8         # winnowing window (grams)
SUBSTR_MIN_LEN = SUBSTR_W + SUBSTR_WIN - 1  # shortest contained doc covered


def _batch_substr_rows(
    texts: Sequence[Optional[str]], ids: np.ndarray, w: int, win: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(fp, side, doc_id, n_chars) candidate rows for containment dedup.

    Per doc (len ≥ w+win−1 only — shorter docs can neither anchor nor, by
    strict-length containment, contain an anchored doc):

    - CONTAINER rows (side 0): the doc's winnowed fingerprint set — in each
      window of ``win`` consecutive w-gram hashes select the RIGHTMOST
      minimal one (Schleimer et al., SIGMOD'03 robust winnowing).
    - One CONTAINED row (side 1): the doc's global-min gram hash.  If this
      doc appears inside a longer doc, the region copy of that min gram is
      the min of every region-internal window containing it, and the region
      has ≥ win grams, so the CONTAINER's winnowing provably selects the
      same VALUE — candidate generation by equi-join on fp is exact (no
      recall loss), unlike similarity sketches.

    Hashing is the order-sensitive splitmix64 chain over codepoints,
    vectorized across the whole batch (w shifted passes over one flat
    array); only the per-doc winnow slicing loops in Python.
    """
    from oboyu_ray.stages.sketch import _splitmix64

    cps: List[np.ndarray] = []
    counts = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        a = np.frombuffer((t or "").encode("utf-32-le"), dtype=np.uint32)
        counts[i] = len(a)
        cps.append(a)
    flat = (
        np.concatenate(cps).astype(np.uint64)
        if cps and counts.sum()
        else np.zeros(0, dtype=np.uint64)
    )
    n = len(flat)
    out_fp: List[np.ndarray] = []
    out_side: List[np.ndarray] = []
    out_id: List[np.ndarray] = []
    out_len: List[np.ndarray] = []
    if n:
        starts = np.cumsum(counts) - counts
        doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        valid = pos <= np.repeat(counts, counts) - w
        idx = np.flatnonzero(valid)
        if len(idx):
            h = np.zeros(len(idx), dtype=np.uint64)
            for j in range(w):
                h = _splitmix64(h ^ flat[idx + j])
            gdoc = doc_of[idx]
            gstarts = np.searchsorted(gdoc, np.arange(len(counts)))
            gcounts = np.diff(np.r_[gstarts, len(gdoc)])
            sw = np.lib.stride_tricks.sliding_window_view
            for i in range(len(counts)):
                c = int(gcounts[i])
                if counts[i] < w + win - 1 or c < win:
                    continue
                g = h[gstarts[i] : gstarts[i] + c]
                # rightmost-min per window: argmin over the REVERSED window
                rev = sw(g, win)[:, ::-1]
                am = (win - 1) - np.argmin(rev, axis=1)
                sel = np.unique(g[np.arange(c - win + 1) + am])
                out_fp.append(sel)
                out_side.append(np.zeros(len(sel), dtype=np.int64))
                out_id.append(np.full(len(sel), ids[i], dtype=np.int64))
                out_len.append(np.full(len(sel), counts[i], dtype=np.int64))
                out_fp.append(np.array([g.min()], dtype=np.uint64))
                out_side.append(np.ones(1, dtype=np.int64))
                out_id.append(np.array([ids[i]], dtype=np.int64))
                out_len.append(np.array([counts[i]], dtype=np.int64))
    if not out_fp:
        return (
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    return (
        np.concatenate(out_fp),
        np.concatenate(out_side),
        np.concatenate(out_id),
        np.concatenate(out_len),
    )


def substring_dups(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    w: int = SUBSTR_W,
    win: int = SUBSTR_WIN,
    n_buckets: int = PAIR_BUCKETS,
) -> "ray.data.Dataset":
    """Docs whose text is a SUBSTRING of another doc's (copy-with-context
    dedup — the Lee et al. 2022 exact-substring motivation at document
    granularity).  Flagged: (a) text strictly contained in a LONGER doc's
    text, for docs of ≥ w+win−1 chars (the winnowing guarantee bound,
    documented operator semantics — the oracle applies the same bound);
    (b) text EQUAL to another doc's with a larger id (exact-dup runs keep
    exactly one survivor, any length).  Output: distinct (doc_id,).

    Shape: one map pass emits winnowed container fps + one anchor fp per
    doc (candidate join on fp is exact — see _batch_substr_rows); a
    fp-bucketed cogroup emits (contained, container) id pairs; texts of
    JUST the candidate ids broadcast-filter into a doc-bucketed attach and
    a pair-bucketed exact `in` verify (same two-stage shape as the ngram
    verifier).  The equal-text rule is a separate md5 pass (map-side
    partial per batch is NOT possible — flagging all-but-max needs every
    id — so it ships (hash, id) rows once; at 100 TB this is the id-scale
    shuffle every exact dedup pays).
    """
    import ray.data as _rd

    def rows_fn(t: pa.Table) -> pa.Table:
        fp, side, did, ln = _batch_substr_rows(
            t.column(text_col).to_pylist(),
            t.column(id_col).cast(pa.int64()).to_numpy(),
            w, win,
        )
        return pa.table(
            {
                "fbucket": pa.array((fp % np.uint64(n_buckets)).astype(np.int64)),
                "fp": pa.array(fp.view(np.int64), type=pa.int64()),
                "side": pa.array(side, type=pa.int64()),
                "doc": pa.array(did, type=pa.int64()),
                "nlen": pa.array(ln, type=pa.int64()),
            }
        )

    def pairs_fn(g: pd.DataFrame) -> pd.DataFrame:
        fp = g["fp"].to_numpy(dtype=np.int64)
        side = g["side"].to_numpy(dtype=np.int64)
        doc = g["doc"].to_numpy(dtype=np.int64)
        nlen = g["nlen"].to_numpy(dtype=np.int64)
        order = np.argsort(fp, kind="stable")
        fp, side, doc, nlen = fp[order], side[order], doc[order], nlen[order]
        bnd = np.flatnonzero(np.r_[True, fp[1:] != fp[:-1], True])
        out_a: List[np.ndarray] = []
        out_b: List[np.ndarray] = []
        for s, e in zip(bnd[:-1], bnd[1:]):
            cm = side[s:e] == 1
            if not cm.any() or cm.all():
                continue
            ad, al = doc[s:e][cm], nlen[s:e][cm]
            bd, bl = doc[s:e][~cm], nlen[s:e][~cm]
            # cross contained × container, strictly longer container only
            aa = np.repeat(ad, len(bd))
            bb = np.tile(bd, len(ad))
            keep = np.tile(bl, len(ad)) > np.repeat(al, len(bd))
            out_a.append(aa[keep])
            out_b.append(bb[keep])
        if not out_a:
            return pd.DataFrame(
                {"doc_a": np.zeros(0, dtype=np.int64),
                 "doc_b": np.zeros(0, dtype=np.int64)}
            )
        return pd.DataFrame(
            {"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b)}
        )

    candidates = (
        ds.map_batches(rows_fn, batch_format="pyarrow")
        .groupby("fbucket")
        .map_groups(pairs_fn, batch_format="pandas")
        .materialize()
    )

    parts = [
        np.concatenate([b.column("doc_a").to_numpy(), b.column("doc_b").to_numpy()])
        for b in candidates.iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    flagged_contained = None
    if parts:
        cand_ref = ray.put(np.unique(np.concatenate(parts)))

        def sides(t: pa.Table) -> pa.Table:
            a = t.column("doc_a").to_numpy().astype(np.int64)
            b = t.column("doc_b").to_numpy().astype(np.int64)
            return pa.table(
                {
                    "doc": pa.array(np.concatenate([a, b]), type=pa.int64()),
                    "pair_a": pa.array(np.concatenate([a, a]), type=pa.int64()),
                    "pair_b": pa.array(np.concatenate([b, b]), type=pa.int64()),
                    "text": pa.nulls(2 * len(a), type=pa.string()),
                }
            )

        def text_rows(t: pa.Table) -> pa.Table:
            ids_np = t.column(id_col).cast(pa.int64()).to_numpy()
            sel = t.filter(pa.array(np.isin(ids_np, ray.get(cand_ref))))
            m = sel.num_rows
            return pa.table(
                {
                    "doc": sel.column(id_col).cast(pa.int64()),
                    "pair_a": pa.array(np.full(m, -1, dtype=np.int64)),
                    "pair_b": pa.array(np.full(m, -1, dtype=np.int64)),
                    "text": sel.column(text_col).cast(pa.string()),
                }
            )

        unioned = candidates.map_batches(sides, batch_format="pyarrow").union(
            ds.map_batches(text_rows, batch_format="pyarrow")
        )

        def add_dbucket(t: pa.Table) -> pa.Table:
            d = t.column("doc").to_numpy().astype(np.uint64)
            return t.append_column(
                "dbucket", pa.array((d % np.uint64(n_buckets)).astype(np.int64))
            )

        def attach(g: pd.DataFrame) -> pd.DataFrame:
            is_text = g["pair_a"].to_numpy() < 0
            texts = dict(
                zip(
                    g.loc[is_text, "doc"].to_numpy(dtype=np.int64).tolist(),
                    g.loc[is_text, "text"].tolist(),
                )
            )
            pr = g.loc[~is_text]
            return pd.DataFrame(
                {
                    "pair_a": pr["pair_a"].to_numpy(dtype=np.int64),
                    "pair_b": pr["pair_b"].to_numpy(dtype=np.int64),
                    "doc": pr["doc"].to_numpy(dtype=np.int64),
                    "text": [texts.get(int(d), "") for d in pr["doc"]],
                }
            )

        attached = (
            unioned.map_batches(add_dbucket, batch_format="pyarrow")
            .groupby("dbucket")
            .map_groups(attach, batch_format="pandas")
        )

        def add_vbucket(t: pa.Table) -> pa.Table:
            return t.append_column(
                "vbucket",
                pa.array(_pair_bucket(
                    t.column("pair_a").to_numpy(),
                    t.column("pair_b").to_numpy(),
                    n_buckets,
                )),
            )

        def verify(g: pd.DataFrame) -> pd.DataFrame:
            pa_ids = g["pair_a"].to_numpy(dtype=np.int64)
            pb_ids = g["pair_b"].to_numpy(dtype=np.int64)
            docs = g["doc"].to_numpy(dtype=np.int64)
            texts = g["text"].tolist()
            keys = np.stack([pa_ids, pb_ids], axis=1)
            uniq, pidx = np.unique(keys, axis=0, return_inverse=True)
            slot_a: dict = {}
            slot_b: dict = {}
            for r in range(len(docs)):
                p = int(pidx[r])
                if docs[r] == pa_ids[r]:
                    slot_a[p] = texts[r]
                elif docs[r] == pb_ids[r]:
                    slot_b[p] = texts[r]
            hit = [
                int(uniq[p, 0])
                for p in range(len(uniq))
                if p in slot_a and p in slot_b and slot_a[p] in slot_b[p]
            ]
            return pd.DataFrame({id_col: np.array(sorted(set(hit)), dtype=np.int64)})

        flagged_contained = (
            attached.map_batches(add_vbucket, batch_format="pyarrow")
            .groupby("vbucket")
            .map_groups(verify, batch_format="pandas")
        )

    # equal-text rule: all but the max id of every exact-duplicate run
    def hrows(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pylist()
        keys = [hashlib.md5((x or "").encode("utf-8")).hexdigest() for x in texts]
        return pa.table(
            {"key": pa.array(keys, type=pa.string()),
             id_col: t.column(id_col).cast(pa.int64())}
        )

    def flag_nonmax(g: pd.DataFrame) -> pd.DataFrame:
        ids_np = np.sort(g[id_col].to_numpy(dtype=np.int64))
        return pd.DataFrame({id_col: ids_np[:-1]})

    flagged_equal = (
        ds.map_batches(hrows, batch_format="pyarrow")
        .groupby("key")
        .map_groups(flag_nonmax, batch_format="pandas")
    )

    both = (
        flagged_equal
        if flagged_contained is None
        else flagged_contained.union(flagged_equal)
    )

    def add_ibucket(t: pa.Table) -> pa.Table:
        d = t.column(id_col).to_numpy().astype(np.uint64)
        return t.append_column(
            "ibucket", pa.array((d % np.uint64(n_buckets)).astype(np.int64))
        )

    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {id_col: np.unique(g[id_col].to_numpy(dtype=np.int64))}
        )

    def enforce(b: pd.DataFrame) -> pa.Table:
        # empty groups come back as column-less pandas blocks; re-type every
        # block so an all-empty result still carries the (doc_id,) schema
        vals = (
            b[id_col].to_numpy(dtype=np.int64)
            if id_col in b.columns
            else np.zeros(0, dtype=np.int64)
        )
        return pa.table({id_col: pa.array(vals, type=pa.int64())})

    # typed empty seed: an all-empty groupby yields ZERO blocks (schema None)
    seed = _rd.from_arrow(pa.table({id_col: pa.array([], type=pa.int64())}))
    return (
        both.map_batches(add_ibucket, batch_format="pyarrow")
        .groupby("ibucket")
        .map_groups(distinct, batch_format="pandas")
        .map_batches(enforce, batch_format="pandas")
        .union(seed)
    )
