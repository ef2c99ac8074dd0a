"""Mergeable sketches — EXACT heavy hitters via Misra-Gries candidate
generation, plus the shared vectorized 64-bit hash the other stages use.

Hashing is a fully vectorized 64-bit FNV-1a + splitmix64 finalizer computed
directly over the Arrow string column's offsets/data buffers (O(max string
length) numpy passes per batch, no per-row Python).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _splitmix64(h: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = (h + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return h ^ (h >> np.uint64(31))


def _hash64(col) -> np.ndarray:
    """Stable 64-bit hashes of a column's values, vectorized.

    Accepts a pyarrow Array/ChunkedArray or a python sequence; values are
    hashed as their UTF-8 string rendering (matching ``str(v)`` for
    ints/strings).  FNV-1a over the raw string buffer — one numpy pass per
    byte position up to the batch's max length — then splitmix64 to spread
    entropy into the high bits (bucket and band indices take those)."""
    if not isinstance(col, (pa.Array, pa.ChunkedArray)):
        col = pa.array([str(v) for v in col], type=pa.string())
    if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
        col = pc.cast(col, pa.string())
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    arr = col.cast(pa.large_string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], dtype=np.int64, count=arr.offset + n + 1)[
        arr.offset : arr.offset + n + 1
    ]
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.zeros(0, np.uint8)
    lengths = off[1:] - off[:-1]
    starts = off[:-1]
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    maxlen = int(lengths.max()) if n else 0
    with np.errstate(over="ignore"):
        for i in range(maxlen):
            m = lengths > i
            b = data[starts[m] + i].astype(np.uint64)
            h[m] = (h[m] ^ b) * _FNV_PRIME
    return _splitmix64(h)


# ---------------------------------------------------------------- heavy hitters

HH_CAPACITY = 4096
HH_WORD_RE_SQL = r"[a-z0-9]+"


def heavy_hitters(
    ds: "ray.data.Dataset",
    threshold: int,
    text_col: str = "text",
    capacity: int = HH_CAPACITY,
) -> "ray.data.Dataset":
    """EXACT frequent terms: every token of ``lower(text)`` (the corpus-
    analysis ``[a-z0-9]+`` word stream) whose total occurrence count is
    ``>= threshold``, with exact counts — without ever shuffling the full
    token-frequency table.

    Shape (the sketch-then-verify pattern this engine uses for dedup):

    1. map_batches → per-batch **Misra-Gries summary**: exact in-batch
       counts, truncated to the ``capacity`` most frequent tokens by
       subtracting the (capacity+1)-th count d (every stored counter and
       every dropped token loses ≤ d); the batch's deficit d rides along.
       Rows shuffled per batch: ≤ capacity, not |distinct tokens|.
    2. small groupby(token) over the summaries; driver reads the summed
       stored counts + total deficit D = Σ d_b.  Soundness: for every
       token, stored_sum(t) ≤ true(t) ≤ stored_sum(t) + D — so
       candidates = {t: stored_sum(t) + D >= threshold} is a SUPERSET of
       the true heavy hitters, PROVIDED D < threshold (any token absent
       from all summaries has true ≤ D).  If D >= threshold the capacity
       is too small for this threshold; raise with guidance rather than
       return silently-incomplete results.
    3. broadcast the candidate set (ray.put) → one exact counting pass
       over the corpus restricted to candidates → small groupby → filter
       ``count >= threshold``.  Counts are exact, the candidate superset
       guarantees completeness, so the result is exactly the SQL
       ``GROUP BY token HAVING count(*) >= threshold``.

    Returns a Dataset (token, n_occurrences).
    """
    import re

    import pandas as pd

    word_re = re.compile(HH_WORD_RE_SQL)

    def _batch_token_counts(texts):
        toks: list = []
        for t in texts:
            toks.extend(word_re.findall((t or "").lower()))
        if not toks:
            return np.zeros(0, dtype=object), np.zeros(0, dtype=np.int64)
        arr = pd.Series(toks, dtype=object).value_counts(sort=False)
        return arr.index.to_numpy(dtype=object), arr.to_numpy(dtype=np.int64)

    def mg_partial(batch: pa.Table) -> pa.Table:
        tokens, counts = _batch_token_counts(batch.column(text_col).to_pylist())
        d = 0
        if len(tokens) > capacity:
            order = np.argsort(-counts, kind="stable")
            d = int(counts[order[capacity]])
            keep = counts > d
            tokens, counts = tokens[keep], counts[keep] - d
        deficit = np.zeros(len(tokens) + 1, dtype=np.int64)
        deficit[0] = d
        return pa.table(
            {
                "token": pa.array(
                    np.concatenate([tokens, np.array(["\x00deficit"], dtype=object)]),
                    type=pa.string(),
                ),
                "stored": pa.array(
                    np.concatenate([counts, np.zeros(1, dtype=np.int64)]),
                    type=pa.int64(),
                ),
                "deficit": pa.array(deficit, type=pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    summary = (
        ds.map_batches(mg_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("stored", alias_name="stored"), Sum("deficit", alias_name="deficit"))
        .to_pandas()
    )
    if summary.empty:
        return ray.data.from_arrow(
            pa.table({"token": pa.array([], type=pa.string()),
                      "n_occurrences": pa.array([], type=pa.int64())})
        )
    D = int(summary["deficit"].sum())
    if D >= threshold:
        raise ValueError(
            f"heavy_hitters: total Misra-Gries deficit {D} >= threshold "
            f"{threshold}; the candidate superset guarantee is void — raise "
            f"capacity (now {capacity}) or the threshold"
        )
    mask = (summary["stored"] + D >= threshold) & (summary["token"] != "\x00deficit")
    cand = summary.loc[mask, "token"].to_numpy(dtype=object)
    if len(cand) == 0:
        return ray.data.from_arrow(
            pa.table({"token": pa.array([], type=pa.string()),
                      "n_occurrences": pa.array([], type=pa.int64())})
        )
    cref = ray.put(set(cand.tolist()))

    def exact_partial(batch: pa.Table) -> pa.Table:
        cset = ray.get(cref)
        tokens, counts = _batch_token_counts(batch.column(text_col).to_pylist())
        keep = np.fromiter((t in cset for t in tokens), dtype=bool, count=len(tokens))
        return pa.table(
            {
                "token": pa.array(tokens[keep], type=pa.string()),
                "cnt": pa.array(counts[keep], type=pa.int64()),
            }
        )

    exact = (
        ds.map_batches(exact_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("cnt", alias_name="n_occurrences"))
    )
    return exact.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n_occurrences"), threshold)),
        batch_format="pyarrow",
    )
