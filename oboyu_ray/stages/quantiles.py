"""Distributed EXACT quantiles — iterative histogram refinement, no global
sort.

The textbook exact quantile needs a full sort (an all-to-all shuffle of
every row); at 10^12 rows that is the single most expensive operation an
engine can run.  This operator computes exact discrete quantiles
(``quantile_disc`` semantics: the element at 0-based rank
``max(ceil(q·n)−1, 0)`` of the sorted column — verified against DuckDB)
with a handful of streaming passes instead:

1. one aggregate pass → (count, min, max);
2. refinement rounds: every target rank keeps a live value interval
   [lo, hi] and the count of elements < lo.  A ``map_batches`` pass
   histograms each batch's values into ``n_bins`` equal-width bins per
   live interval (partial = one (targets × bins) int64 array, merged by
   ``+`` on the driver — tiny, associative, combiner-tree-able); the bin
   containing the residual rank becomes the next interval.  Each round
   divides the interval width by ``n_bins`` → rounds ≈
   log_bins(value range / smallest gap), 2-3 in practice;
3. once an interval holds ≤ ``collect_limit`` elements, one filtered
   pass collects just those values and selects the exact rank locally.

Driver state: n_targets × n_bins counters; shuffled data: none.  The
equal-width float binning is only a SEARCH accelerator — correctness
never depends on bin boundaries because the final selection runs on the
exact collected values; a pathological value distribution (all mass in
one bin, e.g. heavy duplicates) just stops shrinking the interval, which
the loop detects and falls through to collection.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

QUANTILE_BINS = 4096
COLLECT_LIMIT = 1 << 16
MAX_ROUNDS = 16


def _disc_rank(q: float, n: int) -> int:
    """DuckDB quantile_disc rank: 0-based index max(ceil(q*n)-1, 0)."""
    return max(math.ceil(q * n) - 1, 0)


def exact_quantiles(
    ds: "ray.data.Dataset",
    col: str,
    qs: Sequence[float],
    n_bins: int = QUANTILE_BINS,
    collect_limit: int = COLLECT_LIMIT,
) -> pd.DataFrame:
    """Exact discrete quantiles of a numeric column.

    Returns (q_micros, value) with one row per requested quantile; values
    are actual elements of the column (quantile_disc semantics), so
    float results compare bit-exactly against the SQL oracle reading the
    same parquet."""
    proj = ds.select_columns([col])
    stats = _count_nonnull(proj, col)
    n_total = stats[0]
    if n_total == 0:
        return pd.DataFrame(
            {"q_micros": pd.Series(dtype=np.int64), "value": pd.Series(dtype=np.float64)}
        )
    ranks = [_disc_rank(float(q), n_total) for q in qs]
    out_vals = _values_at_ranks(proj, col, ranks, n_bins, collect_limit, stats=stats)
    return pd.DataFrame(
        {
            "q_micros": np.array([int(round(q * 1e6)) for q in qs], dtype=np.int64),
            "value": np.array(out_vals, dtype=np.float64),
        }
    )


def exact_quantiles_cont(
    ds: "ray.data.Dataset",
    col: str,
    qs: Sequence[float],
    n_bins: int = QUANTILE_BINS,
    collect_limit: int = COLLECT_LIMIT,
) -> pd.DataFrame:
    """Exact CONTINUOUS (interpolated) quantiles — ``quantile_cont`` /
    ``percentile_cont`` semantics: value at fractional rank h = q·(n−1)
    interpolated as ``lo·(1−frac) + hi·frac`` between the elements at
    ranks ⌊h⌋ and ⌈h⌉.  That exact expression order is pinned empirically
    against DuckDB (the naive ``lo + frac·(hi−lo)`` differs in the last
    ulp), so results compare bit-exactly against the SQL oracle.

    Same streaming rank-selection machinery as ``exact_quantiles`` — the
    two bracketing ranks per target just join the same refinement pass."""
    proj = ds.select_columns([col])
    stats = _count_nonnull(proj, col)
    n_total = stats[0]
    if n_total == 0:
        return pd.DataFrame(
            {"q_micros": pd.Series(dtype=np.int64), "value": pd.Series(dtype=np.float64)}
        )
    hs = [float(q) * (n_total - 1) for q in qs]
    ranks: List[int] = []
    for h in hs:
        ranks.append(int(np.floor(h)))
        ranks.append(int(np.ceil(h)))
    # de-duplicate ranks for the refinement pass, then map back
    uniq = sorted(set(ranks))
    vals = dict(
        zip(uniq, _values_at_ranks(proj, col, uniq, n_bins, collect_limit, stats=stats))
    )
    out_vals = []
    for h in hs:
        lo, hi = vals[int(np.floor(h))], vals[int(np.ceil(h))]
        frac = h - np.floor(h)
        out_vals.append(lo * (1 - frac) + hi * frac)
    return pd.DataFrame(
        {
            "q_micros": np.array([int(round(q * 1e6)) for q in qs], dtype=np.int64),
            "value": np.array(out_vals, dtype=np.float64),
        }
    )


def _count_nonnull(proj: "ray.data.Dataset", col: str):
    """One streaming pass → (non-NaN count, global min, global max)."""

    def minmax_partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy().astype(np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return pa.table(
                {
                    "n": pa.array([0], type=pa.int64()),
                    "lo": pa.array([np.inf]),
                    "hi": pa.array([-np.inf]),
                }
            )
        return pa.table(
            {
                "n": pa.array([len(v)], type=pa.int64()),
                "lo": pa.array([float(v.min())]),
                "hi": pa.array([float(v.max())]),
            }
        )

    n_total, gmin, gmax = 0, np.inf, -np.inf
    for b in proj.map_batches(minmax_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        n_total += int(np.sum(b.column("n").to_numpy()))
        if b.num_rows:
            gmin = min(gmin, float(np.min(b.column("lo").to_numpy())))
            gmax = max(gmax, float(np.max(b.column("hi").to_numpy())))
    return n_total, gmin, gmax


def _values_at_ranks(
    proj: "ray.data.Dataset",
    col: str,
    ranks: Sequence[int],
    n_bins: int = QUANTILE_BINS,
    collect_limit: int = COLLECT_LIMIT,
    stats=None,
) -> List[float]:
    """Exact order statistics: the element at each 0-based sorted rank,
    via the iterative histogram refinement documented in the module
    docstring.  ``ranks`` must be valid (0 ≤ r < n).  ``stats`` is the
    (n_total, gmin, gmax) triple from ``_count_nonnull`` (recomputed here
    when not supplied)."""
    n_total, gmin, gmax = stats if stats is not None else _count_nonnull(proj, col)
    # per-target live state: [lo, hi] closed interval, residual rank within
    # it, and whether it is already resolved
    lo = np.full(len(ranks), gmin)
    hi = np.full(len(ranks), gmax)
    resid = np.array(ranks, dtype=np.int64)
    size = np.full(len(ranks), n_total, dtype=np.int64)

    for _ in range(MAX_ROUNDS):
        live = (size > collect_limit) & (lo < hi)
        if not live.any():
            break
        li = np.flatnonzero(live)
        # explicit inner boundaries per target, computed ONCE and broadcast —
        # bin membership (searchsorted against these exact floats) and the
        # next round's [lo, hi] filter then agree bit-for-bit, so the
        # residual-rank bookkeeping can never drift on boundary values
        bnds = [
            lo[i] + (hi[i] - lo[i]) * np.arange(1, n_bins) / n_bins for i in li
        ]
        ref = ray.put((lo[li], hi[li], bnds))

        def hist_partial(t: pa.Table) -> pa.Table:
            l, h, bn = ray.get(ref)
            v = t.column(col).to_numpy().astype(np.float64)
            v = v[~np.isnan(v)]
            B = len(bn[0]) + 1
            out = np.zeros((len(l), B), dtype=np.int64)
            for i in range(len(l)):
                sel = v[(v >= l[i]) & (v <= h[i])]
                bins = np.searchsorted(bn[i], sel, side="right")
                out[i] = np.bincount(bins, minlength=B)
            return pa.table({"hist": pa.array([out.tobytes()], type=pa.binary())})

        H = np.zeros((len(li), n_bins), dtype=np.int64)
        for b in proj.map_batches(hist_partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            for payload in b.column("hist").to_pylist():
                H += np.frombuffer(payload, dtype=np.int64).reshape(len(li), n_bins)

        progressed = False
        for row, i in enumerate(li):
            c = np.cumsum(H[row])
            bi = int(np.searchsorted(c, resid[i], side="right"))
            below = int(c[bi - 1]) if bi > 0 else 0
            bn = bnds[row]
            nlo = float(bn[bi - 1]) if bi > 0 else lo[i]
            nhi = float(bn[bi]) if bi < n_bins - 1 else hi[i]
            nsize = int(H[row, bi])
            if nsize < size[i] or (nlo, nhi) != (lo[i], hi[i]):
                progressed = True
            lo[i], hi[i] = nlo, nhi
            resid[i] -= below
            size[i] = nsize
        if not progressed:
            break  # duplicate-heavy bin: fall through to collection

    # final: collect each unresolved interval's values and select exactly.
    # (Intervals are tiny by now; a still-large duplicate-heavy interval
    # means nearly all values are identical — the collect below dedups.)
    ref2 = ray.put((lo, hi))

    def collect_partial(t: pa.Table) -> pa.Table:
        l, h = ray.get(ref2)
        v = t.column(col).to_numpy().astype(np.float64)
        v = v[~np.isnan(v)]
        keep = np.zeros(len(v), dtype=bool)
        for i in range(len(l)):
            keep |= (v >= l[i]) & (v <= h[i])
        sel = v[keep]
        # per-batch (value, multiplicity) so duplicate-heavy intervals ship
        # one row per distinct value, not per element
        uv, cnt = np.unique(sel, return_counts=True)
        return pa.table({"v": pa.array(uv), "c": pa.array(cnt.astype(np.int64))})

    parts = proj.map_batches(collect_partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("v", sort=True)["c"].sum()
    uvals = agg.index.to_numpy(dtype=np.float64)
    ucnts = agg.to_numpy(dtype=np.int64)

    out_vals: List[float] = []
    for i in range(len(ranks)):
        m = (uvals >= lo[i]) & (uvals <= hi[i])
        vv, cc = uvals[m], ucnts[m]
        cum = np.cumsum(cc)
        j = int(np.searchsorted(cum, resid[i], side="right"))
        out_vals.append(float(vv[j]))
    return out_vals


# ---------------------------------------------------------------- per group

GQ_BUCKETS = 64


def grouped_quantiles(
    ds: "ray.data.Dataset",
    group_col: str,
    val_col: str,
    qs: Sequence[float],
    n_buckets: int = GQ_BUCKETS,
    interpolated: bool = False,
) -> "ray.data.Dataset":
    """Exact quantiles PER GROUP — the per-stratum statistics pass of a
    training pipeline (e.g. token-count percentiles per language / source).
    ``interpolated=False`` → quantile_disc semantics; ``interpolated=True``
    → quantile_cont (value at fractional rank q·(n−1), lerped with the
    DuckDB-pinned ``lo·(1−f) + hi·f`` expression order — bit-exact).

    Groups hash-bucket across ``n_buckets`` reduce tasks; inside a bucket
    ONE lexsort over (group, value) resolves every group's every quantile
    via pure index arithmetic (group run boundaries + ceil(q·n)−1 offsets)
    — no per-group Python.  Partitioning assumption (documented, the same
    one every cogroup in this engine makes): a single GROUP's rows fit one
    reduce task.  For a group that violates it (one stratum = trillions of
    rows), use the streaming histogram operator ``exact_quantiles`` on
    that group's filtered Dataset instead — same semantics, no memory
    assumption.  Output: (group, q_micros, value).
    """
    qarr = np.array(sorted(float(q) for q in qs), dtype=np.float64)
    qmic = np.array([int(round(q * 1e6)) for q in qarr], dtype=np.int64)

    def add_gb(t: pa.Table) -> pa.Table:
        col = t.column(group_col)
        if pa.types.is_integer(col.type):
            g = col.to_numpy().astype(np.int64)
            gb = (g.astype(np.uint64) % np.uint64(n_buckets)).astype(np.int64)
            grp = pa.array(g, type=pa.int64())
        else:
            # string groups: same content-hash both engines-agnostic bucket
            # rule the joins use
            from oboyu_ray.stages.sketch import _hash64

            gb = (_hash64(col) % np.uint64(n_buckets)).astype(np.int64)
            grp = col
        v = t.column(val_col).to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "gb": pa.array(gb),
                "grp": grp,
                "val": pa.array(v, type=pa.float64()),
            }
        )

    def bucket_quantiles(b: pd.DataFrame) -> pd.DataFrame:
        # factorize → int codes keeps the lexsort vectorized for BOTH int
        # and string groups (string compares happen once, in factorize)
        codes, uniq = pd.factorize(b["grp"], sort=True)
        v = b["val"].to_numpy(dtype=np.float64)
        order = np.lexsort((v, codes))
        c_s, v_s = codes[order], v[order]
        starts = np.flatnonzero(np.r_[True, c_s[1:] != c_s[:-1]])
        ends = np.r_[starts[1:], len(c_s)]
        sizes = ends - starts
        if interpolated:
            # fractional rank h = q·(n−1) per (group, q); lerp between the
            # bracketing order statistics — vectorized over the grid
            h = qarr[None, :] * (sizes[:, None] - 1)
            lo = np.floor(h).astype(np.int64)
            hi = np.ceil(h).astype(np.int64)
            frac = h - np.floor(h)
            vlo = v_s[starts[:, None] + lo]
            vhi = v_s[starts[:, None] + hi]
            vals = vlo * (1 - frac) + vhi * frac
        else:
            # rank per (group, q): max(ceil(q*n)-1, 0) — vectorized over
            # the (groups × quantiles) grid
            ranks = np.maximum(
                np.ceil(qarr[None, :] * sizes[:, None]).astype(np.int64) - 1, 0
            )
            vals = v_s[starts[:, None] + ranks]
        return pd.DataFrame(
            {
                group_col: np.repeat(np.asarray(uniq)[c_s[starts]], len(qarr)),
                "q_micros": np.tile(qmic, len(starts)),
                "value": vals.ravel(),
            }
        )

    return (
        ds.map_batches(add_gb, batch_format="pyarrow")
        .groupby("gb")
        .map_groups(bucket_quantiles, batch_format="pandas")
    )


# ------------------------------------------------- mergeable quantile sketch

SKETCH_CAPACITY = 256  # per-level buffer; rank error ~ O(levels / capacity)


class QuantileSketch:
    """Deterministic KLL/MRL-style mergeable quantile summary.

    A compactor hierarchy: level i holds at most ``capacity`` values, each
    representing 2^i inputs.  When a level overflows it is sorted and every
    other value survives to level i+1 — with the surviving offset
    alternating DETERMINISTICALLY per level (the MRL discipline; classic
    KLL flips a random coin) so the sketch is reproducible and the rank
    error from each compaction cancels to at most 2^i over the pair of
    compactions sharing a parity cycle.

    This is the single-pass streaming complement to ``exact_quantiles``:
    that operator gives exact answers in O(log) refinement ROUNDS over the
    data; the sketch gives eps-approximate ranks in ONE pass with a
    4-ish KB mergeable state — the shape a 100 TB telemetry pipeline ships
    from every task (associative, commutative up to the documented
    determinism order, tiny)."""

    def __init__(self, capacity: int = SKETCH_CAPACITY):
        self.capacity = int(capacity)
        self.levels: List[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.parity: List[int] = [0]
        self.n = 0

    def add(self, values: np.ndarray) -> "QuantileSketch":
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        self.n += len(values)
        # feed level 0 in capacity-sized slices so buffers never balloon
        for s in range(0, len(values), self.capacity):
            self.levels[0] = np.concatenate([self.levels[0], values[s : s + self.capacity]])
            self._cascade()
        return self

    def _cascade(self) -> None:
        i = 0
        while i < len(self.levels):
            if len(self.levels[i]) > self.capacity:
                a = np.sort(self.levels[i])
                keep = a[self.parity[i] :: 2]
                self.parity[i] ^= 1
                self.levels[i] = np.empty(0, dtype=np.float64)
                if i + 1 == len(self.levels):
                    self.levels.append(np.empty(0, dtype=np.float64))
                    self.parity.append(0)
                self.levels[i + 1] = np.concatenate([self.levels[i + 1], keep])
            i += 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        assert other.capacity == self.capacity
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
            self.parity.append(0)
        for i, lv in enumerate(other.levels):
            self.levels[i] = np.concatenate([self.levels[i], lv])
        self.n += other.n
        self._cascade()
        return self

    # -- serialization (one binary blob per task)

    def to_bytes(self) -> bytes:
        import struct

        head = struct.pack("<qqq", self.n, self.capacity, len(self.levels))
        body = b"".join(
            struct.pack("<qq", len(lv), self.parity[i]) + lv.tobytes()
            for i, lv in enumerate(self.levels)
        )
        return head + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "QuantileSketch":
        import struct

        n, cap, nlev = struct.unpack_from("<qqq", blob, 0)
        off = 24
        sk = cls(capacity=cap)
        sk.n = n
        sk.levels, sk.parity = [], []
        for _ in range(nlev):
            ln, par = struct.unpack_from("<qq", blob, off)
            off += 16
            sk.levels.append(np.frombuffer(blob, dtype=np.float64, count=ln, offset=off).copy())
            sk.parity.append(int(par))
            off += 8 * ln
        return sk

    def quantile(self, q: float) -> float:
        """Value whose weighted rank best matches ceil(q*n) (quantile_disc
        semantics, matching ``_disc_rank``)."""
        if self.n == 0:
            return float("nan")
        vals = np.concatenate(self.levels)
        wts = np.concatenate(
            [np.full(len(lv), 1 << i, dtype=np.int64) for i, lv in enumerate(self.levels)]
        )
        order = np.argsort(vals, kind="stable")
        vals, wts = vals[order], wts[order]
        cum = np.cumsum(wts)
        target = _disc_rank(q, self.n) + 1  # 1-based rank
        idx = int(np.searchsorted(cum, target))
        return float(vals[min(idx, len(vals) - 1)])


def approx_quantiles_sketch(
    ds: "ray.data.Dataset",
    value_col: str,
    qs: Sequence[float],
    capacity: int = SKETCH_CAPACITY,
) -> "QuantileSketch":
    """One-pass distributed quantile sketch: per-batch sketches serialize to
    one blob each; the driver merges them in a DETERMINISTIC order (sorted
    by blob bytes — merge results depend on order only at ulp/parity
    level, and the sort pins reproducibility across nondeterministic block
    arrival).  Driver state: #batches blobs of ~capacity*levels floats."""

    def partial(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        sk = QuantileSketch(capacity).add(v)
        return pa.table({"blob": pa.array([sk.to_bytes()], type=pa.binary())})

    blobs = [
        payload
        for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
        for payload in b.column("blob").to_pylist()
    ]
    out = QuantileSketch(capacity)
    for blob in sorted(blobs):
        out.merge(QuantileSketch.from_bytes(blob))
    return out


# ------------------------------------------------------------- histogram

HIST_BINS = 32


def value_histogram(
    ds: "ray.data.Dataset", value_col: str, n_bins: int = HIST_BINS
) -> pd.DataFrame:
    """Fixed-bin value histogram: pass 1 folds per-batch min/max partials on
    the driver (two doubles), pass 2 bins every value with
    ``min(floor((v - mn) / w), n_bins - 1)`` — the exact expression the SQL
    oracle runs, so bin membership agrees bit-for-bit (same discipline as
    the exact-quantiles boundary floats).  Bin counts are bounded state
    (n_bins ints) folded in the calling process.

    The input executes TWICE (min/max pass, then the binning pass) without
    an intermediate materialization: for the common case — a pruned parquet
    read — re-reading is cheaper than parking the corpus in the object
    store; callers with an expensive upstream pipeline should pass
    ``ds.materialize()``."""

    def mm_partial(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return pa.table({"mn": pa.array([], type=pa.float64()),
                             "mx": pa.array([], type=pa.float64())})
        return pa.table({"mn": pa.array([float(v.min())]), "mx": pa.array([float(v.max())])})

    mn, mx = np.inf, -np.inf
    src = ds
    for b in src.map_batches(mm_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        if b.num_rows:
            mn = min(mn, float(b.column("mn").to_numpy(zero_copy_only=False).min()))
            mx = max(mx, float(b.column("mx").to_numpy(zero_copy_only=False).max()))
    if not np.isfinite(mn):
        return pd.DataFrame({"bin": pd.array([], dtype="int64"),
                             "n": pd.array([], dtype="int64")})
    w = (mx - mn) / float(n_bins)

    def hist_partial(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        if w > 0:
            bins = np.minimum(np.floor((v - mn) / w), n_bins - 1).astype(np.int64)
        else:
            bins = np.zeros(len(v), dtype=np.int64)  # degenerate: all equal
        counts = np.bincount(bins, minlength=n_bins)
        return pa.table({"bin": pa.array(np.arange(n_bins), type=pa.int64()),
                         "n": pa.array(counts, type=pa.int64())})

    totals = np.zeros(n_bins, dtype=np.int64)
    for b in src.map_batches(hist_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        np.add.at(
            totals,
            b.column("bin").to_numpy(zero_copy_only=False),
            b.column("n").to_numpy(zero_copy_only=False),
        )
    nz = np.flatnonzero(totals)
    return pd.DataFrame(
        {"bin": pd.array(nz, dtype="int64"), "n": pd.array(totals[nz], dtype="int64")}
    )


def mad(
    ds: "ray.data.Dataset",
    col: str,
    n_bins: int = QUANTILE_BINS,
    collect_limit: int = COLLECT_LIMIT,
) -> "pd.DataFrame":
    """Median absolute deviation — the robust dispersion measure training
    pipelines use where stddev is ruined by outliers.  DuckDB's ``mad(x)``
    is pinned empirically as quantile_cont(|x − quantile_cont(x, 0.5)|,
    0.5), so this is two chained streaming rank selections: the median,
    then the interpolated median of a derived |x − med| column — no sort,
    no materialization, same refinement machinery both times.

    Returns one row: (median, mad_value), both bit-exact vs the oracle.

    Pass economy: the single projected column is materialized once (the
    refinement re-reads it several times; one float column is bounded —
    the same column-cache trade the refinement itself makes), and phase 2
    reuses phase 1's (n, min, max): |x − med| has the same count, a valid
    conservative interval [0, max(gmax−med, med−gmin)], so its count pass
    is skipped outright."""
    proj = ds.select_columns([col]).materialize()
    stats1 = _count_nonnull(proj, col)
    n_total, gmin, gmax = stats1
    if n_total == 0:
        return pd.DataFrame(
            {"median": pd.Series(dtype=np.float64),
             "mad_value": pd.Series(dtype=np.float64)}
        )
    h = 0.5 * (n_total - 1)
    r = sorted({int(np.floor(h)), int(np.ceil(h))})
    v = _values_at_ranks(proj, col, r, n_bins, collect_limit, stats=stats1)
    vals = dict(zip(r, v))
    frac = h - np.floor(h)
    med = vals[int(np.floor(h))] * (1 - frac) + vals[int(np.ceil(h))] * frac

    def absdev(t: pa.Table) -> pa.Table:
        x = t.column(col).to_numpy().astype(np.float64)
        return pa.table({"absdev": pa.array(np.abs(x - med))})

    d = proj.map_batches(absdev, batch_format="pyarrow").materialize()
    stats2 = (n_total, 0.0, max(gmax - med, med - gmin))
    v2 = _values_at_ranks(d, "absdev", r, n_bins, collect_limit, stats=stats2)
    vals2 = dict(zip(r, v2))
    m = vals2[int(np.floor(h))] * (1 - frac) + vals2[int(np.ceil(h))] * frac
    return pd.DataFrame(
        {"median": pd.Series([med], dtype=np.float64),
         "mad_value": pd.Series([m], dtype=np.float64)}
    )
