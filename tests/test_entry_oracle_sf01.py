"""sf0.1 oracle pass for the shuffle-heaviest queries (VERDICT r4 #6).

``tests/test_entry_oracle.py`` pins every query at sf0.01; the bugs that
only bite at scale live in the wide stages — quantile-refinement
convergence, histogram edge ties, skew-salt thresholds, range-sort
boundaries, join bucket spill. This module re-runs the ~20 most
shuffle-heavy SQL-oracled queries against DuckDB at sf0.1 (10× rows).

Measured ~36 s under the 4-CPU test session, so it runs by default;
deselect with ``-m "not slow"`` or skip with ``OBOYU_RAY_SLOW=0``.
"""

from __future__ import annotations

import os

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entrymod

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        os.environ.get("OBOYU_RAY_SLOW") == "0",
        reason="sf0.1 oracle pass disabled via OBOYU_RAY_SLOW=0",
    ),
]

SF_DIR = "/root/testdata/sf0.1"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()

# the shuffle-heavy / scale-sensitive set: exact quantiles (iterative
# histogram refinement), interpolated + grouped quantiles, histogram edge
# ties, skew diagnostics, bucketed joins with pre-sum folding, range-
# partitioned sort boundaries, decile concentration thresholds, weighted
# sampling margins, sketch deficit tracking, distributed prefix scan,
# cogroup window scans, witness-merge aggregates, and the skyline fold.
# cluster_representatives (hash_join + topk_per_group) and
# top_terms_per_lang (topk_per_group_str) cover the join bucket spill and the
# two-level top-k from documents-only inputs, so that coverage does not
# depend on the relational queries above.
HEAVY_QUERIES = [
    "dismax_topk",
    "boosted_topk",
    "price_quantiles",
    "price_percentiles_cont",
    "price_robust_dispersion",
    "grouped_quantiles",
    "value_percentiles_by_type",
    "price_histogram",
    "user_skew_report",
    "user_day_activity",
    "join_revenue",
    "local_supplier_volume",
    "volume_shipping",
    "market_share",
    "product_profit",
    "customer_order_dist",
    "disjunctive_revenue",
    "user_rolling_median",
    "orders_unfilled",
    "orders_range_sorted",
    "revenue_concentration",
    "weighted_sample",
    "heavy_hitters",
    "pack_sequences",
    "funnel_conversion",
    "topk_per_group",
    "sessionize",
    "user_running_totals",
    "events_daily_ohlc",
    "interval_join",
    "price_ship_frontier",
    "waiting_suppliers",
    "large_volume_customers",
    "cluster_representatives",
    "top_terms_per_lang",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return c


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns), ignore_index=True)


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def test_heavy_set_is_registered_and_oracled():
    qs, osql = entrymod.queries(), entrymod.oracle_sql()
    missing = [n for n in HEAVY_QUERIES if n not in qs or n not in osql]
    assert not missing, missing


@pytest.mark.parametrize("name", HEAVY_QUERIES)
def test_heavy_query_matches_oracle_sf01(name, con):
    q = entrymod.queries()[name]
    sql = entrymod.oracle_sql()[name]
    ours = normalize(to_pandas(q(SF_DIR)))
    assert len(ours) > 0, name
    theirs = normalize(con.execute(sql).fetchdf())
    assert list(ours.columns) == list(theirs.columns), name
    assert len(ours) == len(theirs), name
    for col in ours.columns:
        a, b = ours[col], theirs[col]
        if a.dtype != b.dtype:
            a = a.astype(b.dtype)
        pd.testing.assert_series_equal(a, b, check_names=False, obj=f"{name}.{col}")
