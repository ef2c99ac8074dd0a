"""Relational-style operators: windowed aggregation + broadcast join.

The two wide-operation patterns the 100 TB brief calls out, demonstrated
over the driver's ``events`` / ``orders`` / ``customer`` tables:

* tumbling-window aggregation — per-batch PARTIAL aggregation (pyarrow C++
  group_by over (window, key) inside map_batches) before the global
  groupby, so the shuffle moves (windows × keys) partial rows per block
  instead of raw events.  Float measures are fixed-pointed to integer
  micros PER ROW before summation, making the sum exactly associative —
  bit-identical across any partitioning and to the SQL oracle.
* broadcast join — the small side (customer) is ``ray.put`` ONCE as sorted
  numpy key/value arrays; every orders task does a vectorized searchsorted
  lookup (no shuffle of the big side, no per-batch re-ship).  Same
  partial-then-global aggregation for the grouped result.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Sum


from oboyu_ray.fixedpoint import micros


def _micros_col(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    return micros(arr.to_numpy(zero_copy_only=False))


def events_window_agg(
    events: "ray.data.Dataset", unit: str = "hour"
) -> "ray.data.Dataset":
    """Tumbling-window (window_ts, event_type) → count + exact integer-micros
    value sum.  Returns (window_ts, event_type, n_events, sum_value_micros)."""

    def partial(batch: pa.Table) -> pa.Table:
        win = pc.floor_temporal(batch.column("ts"), unit=unit)
        vm = _micros_col(batch.column("value"))
        t = pa.table(
            {
                "window_ts": win,
                "event_type": batch.column("event_type"),
                "vm": pa.array(vm, type=pa.int64()),
            }
        )
        g = t.group_by(["window_ts", "event_type"]).aggregate(
            [("vm", "count"), ("vm", "sum")]
        )
        return pa.table(
            {
                "window_ts": g.column("window_ts"),
                "event_type": g.column("event_type"),
                "n_partial": g.column("vm_count").cast(pa.int64()),
                "sum_partial": g.column("vm_sum").cast(pa.int64()),
            }
        )

    return (
        events.map_batches(partial, batch_format="pyarrow")
        .groupby(["window_ts", "event_type"])
        .aggregate(
            Sum("n_partial", alias_name="n_events"),
            Sum("sum_partial", alias_name="sum_value_micros"),
        )
    )


def load_broadcast_map(
    ds: "ray.data.Dataset", key_col: str, val_col: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Small-side (sorted keys, values) arrays for ray.put broadcast."""
    t = ds.select_columns([key_col, val_col]).to_pandas()
    keys = t[key_col].to_numpy(dtype=np.int64)
    vals = t[val_col].to_numpy(dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    return keys[order], vals[order]


def orders_by_nation_broadcast(
    orders: "ray.data.Dataset", customer: "ray.data.Dataset"
) -> "ray.data.Dataset":
    """orders ⋈ customer (broadcast) → revenue per nation.

    Returns (c_nationkey, n_orders, revenue_cents); revenue fixed-pointed to
    integer cents per order before summation (exactly associative)."""
    keys, nations = load_broadcast_map(customer, "c_custkey", "c_nationkey")
    ref = ray.put((keys, nations))

    def partial(batch: pa.Table) -> pa.Table:
        k, v = ray.get(ref)
        cust = batch.column("o_custkey").to_numpy().astype(np.int64)
        ix = np.searchsorted(k, cust)
        ok = (ix < len(k)) & (k[np.minimum(ix, len(k) - 1)] == cust)
        if not ok.all():
            raise ValueError("order references unknown customer")
        nat = v[ix]
        price = batch.column("o_totalprice").to_numpy().astype(np.float64)
        cents = np.floor(price * 100 + 0.5).astype(np.int64)
        t = pa.table(
            {
                "c_nationkey": pa.array(nat, type=pa.int64()),
                "cents": pa.array(cents, type=pa.int64()),
            }
        )
        g = t.group_by("c_nationkey").aggregate([("cents", "count"), ("cents", "sum")])
        return pa.table(
            {
                "c_nationkey": g.column("c_nationkey"),
                "n_partial": g.column("cents_count").cast(pa.int64()),
                "sum_partial": g.column("cents_sum").cast(pa.int64()),
            }
        )

    return (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("c_nationkey")
        .aggregate(
            Sum("n_partial", alias_name="n_orders"),
            Sum("sum_partial", alias_name="revenue_cents"),
        )
    )


ASOF_BUCKETS = 64


def asof_join(
    events: "ray.data.Dataset",
    orders: "ray.data.Dataset",
    n_buckets: int = ASOF_BUCKETS,
) -> "ray.data.Dataset":
    """Backward as-of join: for every event, the user's LATEST order with
    o_orderdate <= event ts (ties broken by larger o_orderkey); unmatched
    events emit -1 sentinels.

    Ray Data has no as-of join; the brief names it as the canonical custom
    operator.  Expressed as the engine's standard bucketed cogroup: both
    sides hash-bucket on the join key (user), one map_groups per bucket
    sorts its orders once and answers every event with a vectorized
    searchsorted — no driver state, no all-pairs, hot users bounded by
    their own row counts.  Output: (event_id, user_id, o_orderkey,
    price_cents).
    """

    def ev_rows(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy().astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(
                    (u.astype(np.uint64) % np.uint64(n_buckets)).astype(np.int64)
                ),
                "kind": pa.array(np.zeros(len(u), dtype=np.int64)),
                "user": pa.array(u, type=pa.int64()),
                "rid": t.column("event_id").cast(pa.int64()),
                "ts_us": pa.array(
                    t.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
                ),
                "price_cents": pa.array(np.full(len(u), -1, dtype=np.int64)),
            }
        )

    def or_rows(t: pa.Table) -> pa.Table:
        u = t.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(
                    (u.astype(np.uint64) % np.uint64(n_buckets)).astype(np.int64)
                ),
                "kind": pa.array(np.ones(len(u), dtype=np.int64)),
                "user": pa.array(u, type=pa.int64()),
                "rid": t.column("o_orderkey").cast(pa.int64()),
                "ts_us": pa.array(
                    t.column("o_orderdate").to_numpy().astype("datetime64[us]").astype(np.int64)
                ),
                "price_cents": pa.array(
                    np.floor(t.column("o_totalprice").to_numpy() * 100 + 0.5).astype(np.int64)
                ),
            }
        )

    import pandas as pd

    def bucket_asof(g: pd.DataFrame) -> pd.DataFrame:
        """Vectorized bucket merge — no per-user Python loop (a bucket may
        hold millions of users): sort (user, time, kind[orders first],
        order key), forward-fill the last order position, validate the
        carry stayed within the event's user run."""
        user = g["user"].to_numpy(dtype=np.int64)
        time_ = g["ts_us"].to_numpy(dtype=np.int64)
        kind = g["kind"].to_numpy(dtype=np.int64)  # 0=event, 1=order
        rid = g["rid"].to_numpy(dtype=np.int64)
        cents = g["price_cents"].to_numpy(dtype=np.int64)
        n = len(user)
        # orders BEFORE events on (user, time) ties → equal-date orders are
        # admissible; among equal-date orders ascending key + ffill-takes-
        # last ⇒ the max-key tie rule
        is_order = kind == 1
        tie = np.where(is_order, 0, 1)
        order = np.lexsort((rid, tie, time_, user))
        u_s = user[order]
        o_s = is_order[order]
        pos = np.where(o_s, np.arange(n), -1)
        last = np.maximum.accumulate(pos)  # last order position so far
        ev_sel = ~o_s
        carry = last[ev_sel]
        ok = carry >= 0
        ok[ok] &= u_s[carry[ok]] == u_s[ev_sel][ok]  # same-user carry only
        src = order[np.maximum(carry, 0)]
        return pd.DataFrame(
            {
                "event_id": rid[order][ev_sel],
                "user_id": u_s[ev_sel],
                "o_orderkey": np.where(ok, rid[src], -1),
                "price_cents": np.where(ok, cents[src], -1),
            }
        )

    return (
        events.map_batches(ev_rows, batch_format="pyarrow")
        .union(orders.map_batches(or_rows, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(bucket_asof, batch_format="pandas")
    )


HOP_US = 15 * 60 * 1_000_000   # 15-minute hop
HOP_WINDOW_US = 60 * 60 * 1_000_000  # 60-minute window → 4 hops per window


def events_hopping_window_agg(
    events: "ray.data.Dataset",
    window_us: int = HOP_WINDOW_US,
    hop_us: int = HOP_US,
) -> "ray.data.Dataset":
    """Hopping (sliding) window aggregation: every event contributes to the
    window_us/hop_us overlapping windows covering it.  Same
    partial-then-global shape as the tumbling aggregate — replication
    happens INSIDE the batch before partial aggregation, so the shuffle
    moves (windows × types) partials, not k× raw events.  Output
    (window_ts, event_type, n_events, sum_value_micros)."""
    assert window_us % hop_us == 0
    k = window_us // hop_us

    def partial(batch: pa.Table) -> pa.Table:
        tu = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        vm = micros(batch.column("value").to_numpy(zero_copy_only=False))
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        base = (tu // hop_us) * hop_us
        n = len(tu)
        starts = np.repeat(base, k) - np.tile(
            np.arange(k, dtype=np.int64) * hop_us, n
        )
        t = pa.table(
            {
                "window_us": pa.array(starts, type=pa.int64()),
                "event_type": pa.array(np.repeat(et, k)),
                "vm": pa.array(np.repeat(vm, k), type=pa.int64()),
            }
        )
        g = t.group_by(["window_us", "event_type"]).aggregate(
            [("vm", "count"), ("vm", "sum")]
        )
        return pa.table(
            {
                "window_us": g.column("window_us"),
                "event_type": g.column("event_type"),
                "n_partial": g.column("vm_count").cast(pa.int64()),
                "sum_partial": g.column("vm_sum").cast(pa.int64()),
            }
        )

    agg = (
        events.map_batches(partial, batch_format="pyarrow")
        .groupby(["window_us", "event_type"])
        .aggregate(
            Sum("n_partial", alias_name="n_events"),
            Sum("sum_partial", alias_name="sum_value_micros"),
        )
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_ts": t.column("window_us").cast(pa.timestamp("us")),
                "event_type": t.column("event_type"),
                "n_events": t.column("n_events").cast(pa.int64()),
                "sum_value_micros": t.column("sum_value_micros").cast(pa.int64()),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- interval join

# default window sized to the driver tables: events sit decades after the
# TPC-H-style orders era, so the window reaches back into it and selects a
# STRICT subset of each user's orders (both bounds live)
INTERVAL_LOWER_US = -10_600 * 24 * 3600 * 1_000_000
INTERVAL_UPPER_US = -9_500 * 24 * 3600 * 1_000_000


def interval_join(
    events: "ray.data.Dataset",
    orders: "ray.data.Dataset",
    lower_us: int = INTERVAL_LOWER_US,
    upper_us: int = INTERVAL_UPPER_US,
    n_buckets: int = ASOF_BUCKETS,
) -> "ray.data.Dataset":
    """Keyed range (interval) join: for every event, ALL of the user's
    orders with o_orderdate in [ts + lower_us, ts + upper_us] (bounds
    default to a window reaching back into the orders era) — the
    multi-match sibling of ``asof_join`` (which keeps only the latest).

    Same bucketed-cogroup shape: both sides hash-bucket on user; inside a
    bucket the matching order RANGE per event falls out of ONE lexsort of
    (orders + two bound-query rows per event) — a query row's position
    among the sorted orders is exactly its searchsorted index, so no
    per-user and no per-event Python.  Output rows fan out via repeat /
    cumsum arithmetic: (event_id, user_id, o_orderkey, price_cents).
    """

    def ev_rows(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy().astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(
                    (u.astype(np.uint64) % np.uint64(n_buckets)).astype(np.int64)
                ),
                "kind": pa.array(np.zeros(len(u), dtype=np.int64)),
                "user": pa.array(u, type=pa.int64()),
                "rid": t.column("event_id").cast(pa.int64()),
                "ts_us": pa.array(
                    t.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
                ),
                "price_cents": pa.array(np.full(len(u), -1, dtype=np.int64)),
            }
        )

    def or_rows(t: pa.Table) -> pa.Table:
        u = t.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(
                    (u.astype(np.uint64) % np.uint64(n_buckets)).astype(np.int64)
                ),
                "kind": pa.array(np.ones(len(u), dtype=np.int64)),
                "user": pa.array(u, type=pa.int64()),
                "rid": t.column("o_orderkey").cast(pa.int64()),
                "ts_us": pa.array(
                    t.column("o_orderdate").to_numpy().astype("datetime64[us]").astype(np.int64)
                ),
                "price_cents": pa.array(
                    np.floor(t.column("o_totalprice").to_numpy() * 100 + 0.5).astype(np.int64)
                ),
            }
        )

    import pandas as pd

    def bucket_range_join(g: pd.DataFrame) -> pd.DataFrame:
        user = g["user"].to_numpy(dtype=np.int64)
        kind = g["kind"].to_numpy(dtype=np.int64)  # 0=event, 1=order
        rid = g["rid"].to_numpy(dtype=np.int64)
        ts = g["ts_us"].to_numpy(dtype=np.int64)
        cents = g["price_cents"].to_numpy(dtype=np.int64)
        is_ev = kind == 0
        n_ev = int(is_ev.sum())
        n_or = len(g) - n_ev
        empty = pd.DataFrame(
            {
                "event_id": np.zeros(0, dtype=np.int64),
                "user_id": np.zeros(0, dtype=np.int64),
                "o_orderkey": np.zeros(0, dtype=np.int64),
                "price_cents": np.zeros(0, dtype=np.int64),
            }
        )
        if n_ev == 0 or n_or == 0:
            return empty
        # orders sorted by (user, ts, key) — the array the bound indices
        # point into
        oi = np.flatnonzero(~is_ev)
        oo = oi[np.lexsort((rid[oi], ts[oi], user[oi]))]
        o_user, o_ts, o_rid, o_cents = user[oo], ts[oo], rid[oo], cents[oo]
        ei = np.flatnonzero(is_ev)
        e_user, e_ts, e_rid = user[ei], ts[ei], rid[ei]
        # merged rank trick: lo = #orders with (user, ts) < (u, t+lower)
        # [tie: query BEFORE equal-ts orders → 'left'], hi = #orders with
        # (user, ts) <= (u, t+upper) [tie: query AFTER → 'right'].  One
        # lexsort of orders + both query kinds; tie column orders
        # lo-query(0) < order(1) < hi-query(2) at equal (user, ts).
        mu = np.concatenate([o_user, e_user, e_user])
        mt = np.concatenate([o_ts, e_ts + lower_us, e_ts + upper_us])
        tie = np.concatenate(
            [
                np.ones(n_or, dtype=np.int64),
                np.zeros(n_ev, dtype=np.int64),
                np.full(n_ev, 2, dtype=np.int64),
            ]
        )
        src = np.concatenate(
            [
                np.full(n_or, -1, dtype=np.int64),
                np.arange(n_ev),
                np.arange(n_ev),
            ]
        )
        order = np.lexsort((tie, mt, mu))
        is_order_row = (tie[order] == 1).astype(np.int64)
        n_before = np.cumsum(is_order_row) - is_order_row
        lo = np.zeros(n_ev, dtype=np.int64)
        hi = np.zeros(n_ev, dtype=np.int64)
        t_s, s_s = tie[order], src[order]
        lo[s_s[t_s == 0]] = n_before[t_s == 0]
        hi[s_s[t_s == 2]] = n_before[t_s == 2]
        m = hi - lo  # matches per event (all same-user by construction)
        tot = int(m.sum())
        if tot == 0:
            return empty
        estart = np.cumsum(m) - m
        within = np.arange(tot, dtype=np.int64) - np.repeat(estart, m)
        osel = np.repeat(lo, m) + within
        return pd.DataFrame(
            {
                "event_id": np.repeat(e_rid, m),
                "user_id": np.repeat(e_user, m),
                "o_orderkey": o_rid[osel],
                "price_cents": o_cents[osel],
            }
        )

    return (
        events.map_batches(ev_rows, batch_format="pyarrow")
        .union(orders.map_batches(or_rows, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(bucket_range_join, batch_format="pandas")
    )


# ---------------------------------------------------------------- top-k per group

def next_event_join(
    events: "ray.data.Dataset",
    match_type: str = "purchase",
    n_buckets: int = ASOF_BUCKETS,
) -> "ray.data.Dataset":
    """FORWARD as-of self-join: for every event, the same user's NEXT event
    of ``match_type`` strictly after it — (ts, event_id) lexicographic
    "after", so ts ties are well-defined and a purchase never matches
    itself.  The time-to-conversion feature extractor.

    Same bucketed-cogroup shape as the backward ``asof_join``, scanned in
    DESCENDING (ts, id) order: match rows accumulate via one
    maximum.accumulate ffill, so "last accumulated" = the minimal
    admissible (ts, id) — the next match.  Output: (event_id, user_id,
    next_id, gap_us) with -1 sentinels for events with no later match.
    """

    def rows(t: pa.Table) -> "pa.Table":
        u = t.column("user_id").to_numpy().astype(np.int64)
        ts = t.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        rid = t.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        is_match = (et == match_type).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(
                    (u.astype(np.uint64) % np.uint64(n_buckets)).astype(np.int64)
                ),
                "user": pa.array(u, type=pa.int64()),
                "rid": pa.array(rid, type=pa.int64()),
                "ts_us": pa.array(ts, type=pa.int64()),
                "is_match": pa.array(is_match, type=pa.int64()),
            }
        )

    import pandas as pd

    def bucket_next(g: pd.DataFrame) -> pd.DataFrame:
        user = g["user"].to_numpy(dtype=np.int64)
        time_ = g["ts_us"].to_numpy(dtype=np.int64)
        rid = g["rid"].to_numpy(dtype=np.int64)
        is_m = g["is_match"].to_numpy(dtype=np.int64) == 1
        n = len(user)
        # every row is a LEFT row; match rows additionally act as RIGHT
        # rows.  Descending (ts, id) scan: a match accumulated BEFORE row i
        # is strictly after i in (ts, id) — including the self row, which
        # is its own left copy and only enters the accumulator after being
        # answered (tie column orders the probe before the accumulate at
        # identical sort keys is unnecessary: each row is one physical row;
        # we answer with the accumulator state EXCLUDING the current row by
        # shifting the ffill by one).
        order = np.lexsort((-rid, -time_, user))
        u_s = user[order]
        m_s = is_m[order]
        pos = np.where(m_s, np.arange(n), -1)
        last_incl = np.maximum.accumulate(pos)
        # exclude the current row from its own answer: shift within the scan
        last = np.concatenate(([-1], last_incl[:-1]))
        # user-run boundaries reset implicitly via the same-user check below
        carry = last
        ok = carry >= 0
        ok[ok] &= u_s[carry[ok]] == u_s[ok]
        src = order[np.maximum(carry, 0)]
        out = pd.DataFrame(
            {
                "event_id": rid[order],
                "user_id": u_s,
                "next_id": np.where(ok, rid[src], -1),
                "gap_us": np.where(ok, time_[src] - time_[order], -1),
            }
        )
        return out

    return (
        events.map_batches(rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_next, batch_format="pandas")
    )


def topk_per_group(
    ds: "ray.data.Dataset",
    group_col: str,
    key_col: str,
    val_col_cents: str,
    k: int,
    n_buckets: int = ASOF_BUCKETS,
) -> "ray.data.Dataset":
    """Exact top-k rows per group by (value DESC, key ASC) — the classic
    per-key selection a training pipeline uses for "best k examples per
    source".

    Two-level: map-side PARTIAL top-k per group inside each batch (a
    lexsort + cumcount mask — correct because a group's global top-k is a
    subset of the union of its per-batch top-ks), then a group-bucketed
    reduce applies the same vectorized selection to the survivors.  The
    shuffle moves ≤ k rows per (group, batch), never the full table.
    Output: (group, key, val_cents, rank) with rank 1..k.
    """

    def partial_topk(t: pa.Table) -> pa.Table:
        grp = t.column(group_col).to_numpy().astype(np.int64)
        key = t.column(key_col).to_numpy().astype(np.int64)
        val = t.column(val_col_cents).to_numpy().astype(np.int64)
        sel = _topk_mask(grp, key, val, k)
        return pa.table(
            {
                "bucket": pa.array(
                    (grp[sel].astype(np.uint64) % np.uint64(n_buckets)).astype(np.int64)
                ),
                "grp": pa.array(grp[sel], type=pa.int64()),
                "key": pa.array(key[sel], type=pa.int64()),
                "val_cents": pa.array(val[sel], type=pa.int64()),
            }
        )

    import pandas as pd

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        grp = g["grp"].to_numpy(dtype=np.int64)
        key = g["key"].to_numpy(dtype=np.int64)
        val = g["val_cents"].to_numpy(dtype=np.int64)
        sel = _topk_mask(grp, key, val, k)
        order = np.lexsort((key[sel], -val[sel], grp[sel]))
        grp_s = grp[sel][order]
        new = np.r_[True, grp_s[1:] != grp_s[:-1]]
        starts = np.flatnonzero(new)
        rank = np.arange(len(grp_s)) - np.repeat(starts, np.diff(np.r_[starts, len(grp_s)])) + 1
        return pd.DataFrame(
            {
                "grp": grp_s,
                "key": key[sel][order],
                "val_cents": val[sel][order],
                "rank": rank.astype(np.int64),
            }
        )

    return (
        ds.map_batches(partial_topk, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(final_topk, batch_format="pandas")
    )


def _topk_mask(grp: np.ndarray, key: np.ndarray, val: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the top-k rows per group by (val DESC, key ASC),
    fully vectorized (lexsort + per-group cumcount)."""
    if len(grp) == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((key, -val, grp))
    g_s = grp[order]
    new = np.r_[True, g_s[1:] != g_s[:-1]]
    starts = np.flatnonzero(new)
    cum = np.arange(len(g_s)) - np.repeat(starts, np.diff(np.r_[starts, len(g_s)]))
    mask = np.zeros(len(grp), dtype=bool)
    mask[order[cum < k]] = True
    return mask


# ---------------------------------------------------------------- hash join

JOIN_BUCKETS = 64


def hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    n_buckets: int = JOIN_BUCKETS,
    how: str = "inner",
    left_schema: "pa.Schema" = None,
    right_schema: "pa.Schema" = None,
    hot_keys=None,
    salt: int = 8,
    pre_sum_left=None,
    pre_sum_right=None,
) -> "ray.data.Dataset":
    """Large-large equi-join as a hash-bucketed cogroup.

    ``hot_keys`` (+ ``salt``) is the SKEW escape hatch: pass the known
    heavy keys (e.g. from the ``heavy_hitters`` Misra-Gries operator — at
    100 TB a single hot key can route >10% of a side into one cogroup
    task) and each hot key's LEFT rows fan out round-robin over ``salt``
    private buckets while its RIGHT rows replicate to all of them, so the
    hot key's work spreads over ``salt`` tasks instead of melting one.
    Join output is identical (each left row still meets every matching
    right row exactly once).  Unsupported for ``how="outer"``: with the
    right side replicated, "right row unmatched anywhere" is no longer
    decidable inside one bucket.

    Pass ``left_schema`` / ``right_schema`` when a side is a LAZY dataset
    with a statically-known schema: ``Dataset.schema()`` triggers execution,
    so probing it inside an iterative algorithm (PageRank's per-round join)
    re-executes every prior round — quadratic re-execution.

    ``how``: "inner" (default) / "left" (unmatched left rows keep nulls in
    the right columns) / "outer" (full outer — unmatched rows from BOTH
    sides survive with nulls on the absent side; the reconciliation-join
    shape) / "semi" (left rows WITH a match, left columns only) / "anti"
    (left rows WITHOUT a match, left columns only).  Semi/anti are the
    shapes dedup-against-store and referential-integrity checks use — only
    the key column of the right side needs to travel.  Outer is safe under
    bucketing because co-partitioning is total: a key's rows from both
    sides land in exactly one bucket, so "unmatched" is decided correctly
    per bucket.

    The shuffle-join shape for two tables that are BOTH too big to
    broadcast: each side tags rows with ``hash(key) % n_buckets``, the
    union shuffles ONCE on the bucket (co-partitioning both sides), and a
    vectorized ``pandas.merge`` joins inside each bucket group.  Key
    hashing uses the same multiplicative mix as the pair buckets so
    correlated key ranges spread evenly; skewed single keys are bounded by
    the per-bucket merge being hash-based (O(n) in the bucket's rows, not
    O(n^2)).  Column sets must be disjoint apart from the keys (the join
    keeps both key columns).  At 100 TB this is the operator you pick only
    when neither side fits a broadcast — prefer ``broadcast_join_agg``
    for dimension tables.

    ``pre_sum_left`` / ``pre_sum_right`` name value columns to per-key
    SUM inside the bucket before joining (the side must then be exactly
    ``[key] + those columns``): a caller feeding per-batch partial counts
    can skip its own upstream ``groupby().sum()`` shuffle entirely, because
    co-partitioning is total — every partial row of a key reaches the same
    bucket.  Incompatible with ``hot_keys`` (the probe side's round-robin
    fan-out splits a hot key's partials across salt buckets, which would
    undercount).

    The union requires one schema, so each side carries the other side's
    columns as typed nulls plus a ``side`` tag; both are dropped/split
    inside the bucket task.
    """

    def _arrow_schema(d: "ray.data.Dataset") -> pa.Schema:
        base = d.schema().base_schema
        if isinstance(base, pa.Schema):
            return base
        # pandas-block upstream (e.g. a chained map_groups/hash_join):
        # map numpy dtypes; object columns are strings by our conventions
        fields = []
        for n, t in zip(base.names, base.types):
            try:
                at = pa.from_numpy_dtype(t)
            except (pa.ArrowNotImplementedError, TypeError):
                at = pa.string()
            fields.append(pa.field(n, at))
        return pa.schema(fields)

    lschema: pa.Schema = left_schema if left_schema is not None else _arrow_schema(left)
    rschema: pa.Schema = right_schema if right_schema is not None else _arrow_schema(right)
    lcols = list(lschema.names)
    rcols = list(rschema.names)
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"hash_join column collision: {sorted(overlap)}")
    ltypes = {n: lschema.field(n).type for n in lcols}
    rtypes = {n: rschema.field(n).type for n in rcols}
    _GOLDEN = np.uint64(0x9E3779B97F4A7C15)

    hot_list = sorted(set(hot_keys)) if hot_keys else []
    if hot_list and how == "outer":
        raise ValueError("hash_join: hot-key salting is unsupported for how='outer'")
    if hot_list and salt < 2:
        raise ValueError("hash_join: salt must be >= 2 when hot_keys are given")
    if (pre_sum_left or pre_sum_right) and hot_list:
        raise ValueError("hash_join: pre_sum_* is incompatible with hot_keys")
    if pre_sum_left and set(lcols) != {left_on, *pre_sum_left}:
        raise ValueError("hash_join: pre_sum_left requires left == [key]+sums")
    if pre_sum_right and set(rcols) != {right_on, *pre_sum_right}:
        raise ValueError("hash_join: pre_sum_right requires right == [key]+sums")
    def _tag(key_col: str, own_cols, other_cols, other_types, side: int):
        def tag(t: pa.Table) -> pa.Table:
            col = t.column(key_col)
            if pa.types.is_integer(col.type):
                k = col.to_numpy(zero_copy_only=False).astype(np.uint64)
            else:
                # string (or other) keys: stable 64-bit content hash — both
                # sides MUST agree, so never fall back to Python hash()
                from oboyu_ray.stages.sketch import _hash64

                k = _hash64(col)
            with np.errstate(over="ignore"):
                jb = ((k * _GOLDEN) % np.uint64(n_buckets)).astype(np.int64)
            data = {n: t.column(n) for n in own_cols}
            for n in other_cols:
                data[n] = pa.nulls(t.num_rows, type=other_types[n])
            data["side"] = pa.array(np.full(t.num_rows, side, dtype=np.int64))
            out = pa.table(
                {n: data[n] for n in lcols + rcols + ["side"]}
            ).append_column("jb", pa.array(jb))
            if not hot_list:
                return out
            # hot rows leave the shared bucket space [0, n_buckets) for the
            # key's private salted range [n_buckets + idx*salt, +salt)
            hid = (
                pc.fill_null(
                    pc.index_in(col, pa.array(hot_list).cast(col.type)), -1
                )
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
            hot = hid >= 0
            if not hot.any():
                return out
            cold = out.filter(pa.array(~hot))
            hot_t = out.drop_columns(["jb"]).filter(pa.array(hot))
            base = np.int64(n_buckets) + hid[hot] * np.int64(salt)
            if side == 0:
                # probe side fans out round-robin (any spread works — the
                # result is salt-assignment-independent)
                sb = base + (np.arange(int(hot.sum()), dtype=np.int64) % salt)
                return pa.concat_tables(
                    [cold, hot_t.append_column("jb", pa.array(sb))]
                )
            # build side replicates to every salt bucket of its key
            reps = []
            for s in range(salt):
                reps.append(hot_t.append_column("jb", pa.array(base + s)))
            return pa.concat_tables([cold] + reps)

        return tag

    unioned = left.map_batches(
        _tag(left_on, lcols, rcols, rtypes, 0), batch_format="pyarrow"
    ).union(
        right.map_batches(_tag(right_on, rcols, lcols, ltypes, 1), batch_format="pyarrow")
    )

    if how not in ("inner", "left", "outer", "semi", "anti"):
        raise ValueError(f"hash_join: unsupported how={how!r}")

    # Arrow-native in-bucket merge (no pandas round-trip): staying in Arrow
    # keeps the union's typed-null padding lossless (int64 stays int64 —
    # the old pandas path needed a dtype-restore dance) and the Acero hash
    # join is ~3x the per-bucket pandas.merge in a microbench of this shape.
    _JOIN_TYPE = {"inner": "inner", "left": "left outer", "outer": "full outer"}

    def _pre_sum(tab: pa.Table, key: str, sums, types) -> pa.Table:
        # per-key partial-sum fold inside the bucket: callers can skip a
        # whole upstream groupby().sum() shuffle because co-partitioning is
        # total — every partial row of a key lands in exactly this bucket
        g2 = tab.group_by([key]).aggregate([(c, "sum") for c in sums])
        return pa.table(
            {key: g2.column(key)}
            | {c: g2.column(f"{c}_sum").cast(types[c]) for c in sums}
        )

    def merge(g: pa.Table) -> pa.Table:
        is_l = pc.equal(g.column("side"), 0)
        lf = g.filter(is_l).select(lcols)
        rf = g.filter(pc.invert(is_l)).select(rcols)
        if pre_sum_left:
            lf = _pre_sum(lf, left_on, pre_sum_left, ltypes).select(lcols)
        if pre_sum_right:
            rf = _pre_sum(rf, right_on, pre_sum_right, rtypes).select(rcols)
        if how in ("semi", "anti"):
            hit = pc.is_in(lf.column(left_on), value_set=rf.column(right_on))
            return lf.filter(hit if how == "semi" else pc.invert(hit))
        # Acero coalesces the right key away (and, for full outer, writes the
        # coalesced key into the left key slot) — presence sentinels let us
        # reconstruct BOTH declared key columns with correct nulls
        lj = lf.append_column("__lhit__", pa.repeat(pa.scalar(True), lf.num_rows))
        rj = rf.append_column("__rhit__", pa.repeat(pa.scalar(True), rf.num_rows))
        out = lj.join(
            rj,
            keys=left_on,
            right_keys=right_on,
            join_type=_JOIN_TYPE[how],
            use_threads=False,  # one Ray CPU per bucket task; don't oversubscribe
        )
        key = out.column(left_on)
        cols = {c: out.column(c) for c in lcols}
        if how == "outer":
            cols[left_on] = pc.if_else(
                pc.is_valid(out.column("__lhit__")), key, pa.scalar(None, ltypes[left_on])
            )
        rkey = (
            key.cast(rtypes[right_on])
            if how == "inner"
            else pc.if_else(
                pc.is_valid(out.column("__rhit__")), key, pa.scalar(None, rtypes[right_on])
            ).cast(rtypes[right_on])
        )
        for c in rcols:
            cols[c] = rkey if c == right_on else out.column(c)
        return pa.table(cols)

    return unioned.groupby("jb").map_groups(merge, batch_format="pyarrow")


# ---------------------------------------------------------------- funnel

FUNNEL_BUCKETS = 64
US_PER_DAY = 86_400_000_000


def funnel_conversion(
    events: "ray.data.Dataset",
    start_type: str = "signup",
    goal_type: str = "purchase",
    window_us: int = 4 * 3_600_000_000,
    n_buckets: int = FUNNEL_BUCKETS,
) -> "ray.data.Dataset":
    """Per-day conversion funnel: of the users who fired ``start_type`` on
    day D, how many fired ``goal_type`` within ``window_us`` strictly after
    it.  The per-user sequencing runs as a bucketed cogroup (user %
    n_buckets — same shape as sessionize/as-of), vectorized inside each
    bucket: one lexsort over (user, ts, kind), then a reversed per-user
    cummin gives every start event its NEXT goal timestamp; each bucket
    emits per-day partial counts so the final groupby moves days × buckets
    rows."""
    import pandas as pd

    def prep(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        mask = pc.or_(pc.equal(et, start_type), pc.equal(et, goal_type))
        sel = t.filter(mask)
        u = sel.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = sel.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        kind = pc.equal(sel.column("event_type"), goal_type).to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "u": pa.array(u),
                "t": pa.array(ts, type=pa.int64()),
                "is_goal": pa.array(kind, type=pa.bool_()),
                "bucket": pa.array((u % n_buckets).astype(np.int64)),
            }
        )

    def bucket_funnel(g: pd.DataFrame) -> pd.DataFrame:
        # sort (user, ts, goal-after-start-at-equal-ts); strict ">" then
        # falls out of next_goal > t below
        u = g["u"].to_numpy(dtype=np.int64)
        tt = g["t"].to_numpy(dtype=np.int64)
        goal = g["is_goal"].to_numpy(dtype=bool)
        order = np.lexsort((goal, tt, u))
        u, tt, goal = u[order], tt[order], goal[order]
        # reversed segmented min of goal timestamps: walk back-to-front,
        # resetting at user boundaries — vectorized via pandas cummin over
        # contiguous reversed copies
        rev_pts = pd.Series(np.where(goal, tt, np.iinfo(np.int64).max)[::-1].copy())
        rev_u = pd.Series(u[::-1].copy())
        ng = rev_pts.groupby(rev_u, sort=False).cummin().to_numpy()[::-1].copy()
        starts = ~goal
        t = tt[starts]
        ngs = ng[starts].astype(np.float64)
        converted = (ngs > t) & (ngs <= t + window_us)
        day = t // US_PER_DAY
        out = (
            pd.DataFrame({"day": day, "conv": converted.astype(np.int64)})
            .groupby("day", as_index=False)
            .agg(n_signups=("conv", "size"), n_converted=("conv", "sum"))
        )
        return out.astype({"day": "int64", "n_signups": "int64", "n_converted": "int64"})

    partials = (
        events.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_funnel, batch_format="pandas")
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "day": b.column("day"),
                "n_signups": b.column("sum(n_signups)").cast(pa.int64()),
                "n_converted": b.column("sum(n_converted)").cast(pa.int64()),
            }
        )

    return (
        partials.groupby("day")
        .sum(["n_signups", "n_converted"])
        .map_batches(finish, batch_format="pyarrow")
    )


# ----------------------------------------------------------------- rollup

ROLLUP_ALL = "ALL"  # sentinel for rolled-up key levels (SQL: COALESCE(k,'ALL'))


def _check_rollup_keys(t: pa.Table, keys: "list[str]") -> None:
    """Rollup/grouping-set key columns must not contain the ``ROLLUP_ALL``
    sentinel (a real 'ALL' value would collide with subtotal rows) or
    nulls (arrow group_by keeps nulls as their own group while the SQL
    twin's COALESCE folds them into the ALL row — silently divergent).
    Vectorized per-batch guard; raises instead of producing wrong rows."""
    import pyarrow.compute as pc

    for k in keys:
        col = t.column(k)
        if col.null_count:
            raise ValueError(
                f"rollup key column {k!r} contains nulls; COALESCE them to "
                "an explicit label upstream (they would otherwise diverge "
                "from the SQL twin's NULL-folding)"
            )
        if pc.any(pc.equal(col, ROLLUP_ALL)).as_py():
            raise ValueError(
                f"rollup key column {k!r} contains the reserved sentinel "
                f"{ROLLUP_ALL!r}; rename the value or the sentinel — "
                "subtotal rows would collide with it"
            )


def rollup_sum(
    ds: "ray.data.Dataset",
    keys: "list[str]",
    value_col: str,
    n_name: str = "n_rows",
    sum_name: str = "value_sum",
) -> "ray.data.Dataset":
    """GROUP BY ROLLUP in ONE distributed pass: every batch emits partial
    (count, sum) rows for each rollup level — (k1, k2, ...), (k1, ALL, ...),
    ..., (ALL, ALL, ...) — and a single groupby over the key tuple folds
    them.  The shuffle moves per-batch GROUP partials x (len(keys)+1)
    levels, never raw rows, so subtotals and the grand total cost one
    aggregation instead of len(keys)+1 separate scans.  ``value_col`` must
    be int64 (pre-fixed-pointed) so partial sums are associative and
    order-independent.  String keys only; rolled-up levels carry the
    ``ROLLUP_ALL`` sentinel (the SQL twin COALESCEs NULL to the same).
    Key columns must be sentinel-free and non-null (checked per batch —
    see ``_check_rollup_keys``)."""

    def partial(t: pa.Table) -> pa.Table:
        _check_rollup_keys(t, keys)
        outs = []
        for level in range(len(keys), -1, -1):
            cols = {}
            for i, k in enumerate(keys):
                if i < level:
                    cols[k] = t.column(k)
                else:
                    cols[k] = pa.array(
                        np.full(t.num_rows, ROLLUP_ALL, dtype=object),
                        type=pa.string(),
                    )
            cols["_n"] = pa.array(np.ones(t.num_rows, dtype=np.int64))
            cols["_v"] = t.column(value_col)
            g = pa.table(cols).group_by(keys).aggregate(
                [("_n", "sum"), ("_v", "sum")]
            )
            outs.append(
                pa.table(
                    {
                        **{k: g.column(k) for k in keys},
                        "_n": g.column("_n_sum").cast(pa.int64()),
                        "_v": g.column("_v_sum").cast(pa.int64()),
                    }
                )
            )
        return pa.concat_tables(outs)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                **{k: t.column(k) for k in keys},
                n_name: t.column("sum(_n)").cast(pa.int64()),
                sum_name: t.column("sum(_v)").cast(pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys)
        .sum(["_n", "_v"])
        .map_batches(finish, batch_format="pyarrow")
    )


def grouping_sets_sum(
    ds: "ray.data.Dataset",
    keys: "list[str]",
    value_col: str,
    sets: "list[tuple]",
    n_name: str = "n_rows",
    sum_name: str = "value_sum",
) -> "ray.data.Dataset":
    """GROUP BY GROUPING SETS in ONE distributed pass — the general form of
    ``rollup_sum`` (ROLLUP = prefix sets, CUBE = the powerset): every batch
    emits partial (count, sum) rows per grouping set, with keys outside the
    set replaced by the ``ROLLUP_ALL`` sentinel, and one groupby over the
    full key tuple folds them.  The shuffle moves per-batch GROUP partials
    × len(sets), never raw rows.  ``value_col`` must be int64
    (pre-fixed-pointed) so partial sums are associative; string keys only,
    sentinel-free and non-null (checked per batch, ``_check_rollup_keys``)."""
    keyset = [tuple(s) for s in sets]
    for s in keyset:
        for k in s:
            if k not in keys:
                raise ValueError(f"grouping set key {k!r} not in keys {keys}")
    if len(set(keyset)) != len(keyset):
        raise ValueError("duplicate grouping sets")

    def partial(t: pa.Table) -> pa.Table:
        _check_rollup_keys(t, keys)
        outs = []
        for s in keyset:
            cols = {}
            for k in keys:
                if k in s:
                    cols[k] = t.column(k)
                else:
                    cols[k] = pa.array(
                        np.full(t.num_rows, ROLLUP_ALL, dtype=object),
                        type=pa.string(),
                    )
            cols["_n"] = pa.array(np.ones(t.num_rows, dtype=np.int64))
            cols["_v"] = t.column(value_col)
            g = pa.table(cols).group_by(keys).aggregate(
                [("_n", "sum"), ("_v", "sum")]
            )
            outs.append(
                pa.table(
                    {
                        **{k: g.column(k) for k in keys},
                        "_n": g.column("_n_sum").cast(pa.int64()),
                        "_v": g.column("_v_sum").cast(pa.int64()),
                    }
                )
            )
        return pa.concat_tables(outs)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                **{k: t.column(k) for k in keys},
                n_name: t.column("sum(_n)").cast(pa.int64()),
                sum_name: t.column("sum(_v)").cast(pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys)
        .sum(["_n", "_v"])
        .map_batches(finish, batch_format="pyarrow")
    )


def cube_sum(
    ds: "ray.data.Dataset",
    keys: "list[str]",
    value_col: str,
    n_name: str = "n_rows",
    sum_name: str = "value_sum",
) -> "ray.data.Dataset":
    """GROUP BY CUBE: ``grouping_sets_sum`` over the powerset of ``keys``
    (2^k grouping sets — keep k small; every set multiplies the partial
    rows that shuffle)."""
    from itertools import combinations

    sets = [
        c for r in range(len(keys), -1, -1) for c in combinations(keys, r)
    ]
    return grouping_sets_sum(ds, keys, value_col, sets, n_name, sum_name)


def topk_per_group_str(
    ds: "ray.data.Dataset",
    group_col: str,
    key_col: str,
    val_col: str,
    k: int,
    n_buckets: int = ASOF_BUCKETS,
) -> "ray.data.Dataset":
    """``topk_per_group`` for STRING group/key columns (top terms per
    language, top domains per source, ...).  Same two-level shape — map-side
    partial top-k, group-bucketed exact reduce — with per-stage
    ``pd.factorize(sort=True)`` turning string ordering into int codes once,
    so the selection lexsort stays fully vectorized (codes are
    order-isomorphic to the strings within the stage, which is all the
    per-group (val DESC, key ASC) rule needs).  Output: (group, key, val,
    rank) with rank 1..k."""
    import pandas as pd

    from oboyu_ray.stages.sketch import _hash64

    def codes(s: "pd.Series") -> np.ndarray:
        c, _ = pd.factorize(s, sort=True)
        return c.astype(np.int64)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sel = _topk_mask(
            codes(df[group_col]), codes(df[key_col]),
            df[val_col].to_numpy(dtype=np.int64), k,
        )
        out = df.loc[sel, [group_col, key_col, val_col]].reset_index(drop=True)
        out["bucket"] = (
            _hash64(pa.array(out[group_col])) % np.uint64(n_buckets)
        ).astype(np.int64)
        return out

    def final(g: pd.DataFrame) -> pd.DataFrame:
        gc = codes(g[group_col])
        kc = codes(g[key_col])
        val = g[val_col].to_numpy(dtype=np.int64)
        sel = _topk_mask(gc, kc, val, k)
        gc, kc, val = gc[sel], kc[sel], val[sel]
        out = g.loc[sel, [group_col, key_col, val_col]].reset_index(drop=True)
        order = np.lexsort((kc, -val, gc))
        g_s = gc[order]
        starts = np.flatnonzero(np.r_[True, g_s[1:] != g_s[:-1]])
        rank = (
            np.arange(len(g_s))
            - np.repeat(starts, np.diff(np.r_[starts, len(g_s)]))
            + 1
        )
        out = out.iloc[order].reset_index(drop=True)
        out["rank"] = rank.astype(np.int64)
        return out

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("bucket")
        .map_groups(final, batch_format="pandas")
        .map_batches(
            lambda df: df[[group_col, key_col, val_col, "rank"]],
            batch_format="pandas",
        )
    )


# ------------------------------------------------------------------ set ops

def set_op(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    how: str = "except",
) -> "ray.data.Dataset":
    """Distinct set operations on a key column: ``intersect`` / ``except`` /
    ``union`` (all DISTINCT, ANSI set-op semantics — the relational shapes
    the reference has no counterpart for; SURVEY §2.7 notes the gap).

    Shape: each side is projected to its key + a side-indicator pair, the
    in-batch ``group_by`` collapses a batch to its distinct keys before
    anything moves, and ONE Ray groupby over the union co-locates equal keys
    and max-folds the indicators.  The shuffle moves at most one row per
    distinct key per batch per side; no driver materialization — the result
    streams out as a Dataset of distinct keys."""
    if how not in ("intersect", "except", "union"):
        raise ValueError(f"set_op: unknown how={how!r}")

    def tag(side: int):
        def _tag(t: pa.Table) -> pa.Table:
            g = (
                pa.table({on: t.column(on)})
                .group_by(on)
                .aggregate([])
            )
            n = g.num_rows
            return pa.table(
                {
                    on: g.column(on),
                    "in_l": pa.array(
                        np.full(n, 1 - side, dtype=np.int64)
                    ),
                    "in_r": pa.array(np.full(n, side, dtype=np.int64)),
                }
            )

        return _tag

    both = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow")
    )
    folded = both.groupby(on).max(["in_l", "in_r"])

    def pick(t: pa.Table) -> pa.Table:
        in_l = t.column("max(in_l)")
        in_r = t.column("max(in_r)")
        if how == "intersect":
            keep = pc.and_(pc.equal(in_l, 1), pc.equal(in_r, 1))
        elif how == "except":
            keep = pc.and_(pc.equal(in_l, 1), pc.equal(in_r, 0))
        else:  # union distinct: every folded key survives
            keep = pa.array(np.ones(t.num_rows, dtype=bool))
        return pa.table({on: t.column(on).filter(keep)})

    return folded.map_batches(pick, batch_format="pyarrow")


# -------------------------------------------------------------------- pivot

def pivot_counts(
    ds: "ray.data.Dataset",
    row_key: str,
    col_key: str,
    col_values: "list",
    val_col: str = None,
) -> "ray.data.Dataset":
    """Long → wide crosstab: one output row per ``row_key`` value, one
    ``{col_key}_{v}`` int64 column per entry of ``col_values`` holding the
    count (or the sum of integer ``val_col``) of rows at that (row, col).

    ``col_values`` is explicit and bounded by contract — at 100 TB you
    cannot stream-discover the output schema, and a pivot with unbounded
    column cardinality is a modelling error, not an operator.  Shape:
    in-batch ``group_by (row, col)`` partials (the shuffle moves one row per
    distinct pair per batch) → ONE Ray groupby on ``row_key`` →
    ``map_groups`` reshapes each key's ≤ ``len(col_values)`` rows to the
    wide layout.  Unlisted col values are dropped; absent combinations fill
    0 (SQL FILTER-count parity)."""
    allowed = list(col_values)
    names = [f"{col_key}_{v}" for v in allowed]

    def partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "rk": t.column(row_key),
                    "ck": t.column(col_key),
                    "v": (
                        t.column(val_col).cast(pa.int64())
                        if val_col is not None
                        else pa.array(np.ones(t.num_rows, dtype=np.int64))
                    ),
                }
            )
            .group_by(["rk", "ck"])
            .aggregate([("v", "sum")])
        )
        return pa.table(
            {"rk": g.column("rk"), "ck": g.column("ck"), "v": g.column("v_sum")}
        )

    def widen(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        out = {row_key: [g["rk"].iloc[0]]}
        # one partial row per (ck, source batch) — fold them here
        m = g.groupby("ck")["v"].sum().to_dict()
        for v, name in zip(allowed, names):
            out[name] = [int(m.get(v, 0))]
        return pd.DataFrame(out)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("rk")
        .map_groups(widen, batch_format="pandas")
    )


def dense_daily_agg(
    ds: "ray.data.Dataset",
    ts_col: str,
    val_col: str,
) -> "pd.DataFrame":
    """Gap-filled daily time series: per-day row count + fixed-point sum of
    ``val_col``, densified so every calendar day between the observed min
    and max appears (zero-filled) — the feed shape downstream forecasting /
    anomaly jobs expect.

    Shape: in-batch ``group_by(day)`` partials (a batch shrinks to its
    distinct days before leaving the task) → driver fold.  The fold key
    space is bounded by CALENDAR TIME, not data size (decades ≈ 10⁴ days),
    so folding in the calling process is the cheap exact plan; no shuffle
    at all."""
    import pandas as pd

    from oboyu_ray.fixedpoint import micros

    def partial(t: pa.Table) -> pa.Table:
        us = (
            t.column(ts_col)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        day = us // 86_400_000_000
        g = (
            pa.table(
                {
                    "day": pa.array(day, pa.int64()),
                    "vm": pa.array(
                        micros(t.column(val_col).to_numpy(zero_copy_only=False))
                    ),
                    "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                }
            )
            .group_by("day")
            .aggregate([("vm", "sum"), ("one", "sum")])
        )
        return pa.table(
            {"day": g.column("day"), "vm": g.column("vm_sum"), "n": g.column("one_sum")}
        )

    parts = [
        b.to_pandas()
        for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ]
    folded = (
        pd.concat(parts, ignore_index=True)
        .groupby("day", as_index=False)[["vm", "n"]]
        .sum()
    )
    full = np.arange(folded["day"].min(), folded["day"].max() + 1, dtype=np.int64)
    out = (
        folded.set_index("day")
        .reindex(full, fill_value=0)
        .reset_index(names="day")
    )
    return pd.DataFrame(
        {
            "day": pd.to_datetime(out["day"] * 86_400_000_000, unit="us"),
            "revenue_micros": out["vm"].astype("int64"),
            "n_rows": out["n"].astype("int64"),
        }
    )
