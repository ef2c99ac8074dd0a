"""Scope gate: the engine reads transcripts, ``documents`` and
``embeddings``. The TPC-H / clickstream tables (``orders``, ``lineitem``,
``customer``, ``supplier``, ``nation``, ``region``, ``part``, ``events``)
belong to the analytics queries listed in ``RELATIONAL_READERS`` and to
nothing else under ``oboyu_ray/``.

The list may only shrink. A new function that names one of those parquet
files fails this test, and so does a listed function that no longer reads
one (drop its entry together with the code). AST-based, so f-strings and
multi-line calls are handled.
"""

from __future__ import annotations

import ast
import pathlib
import re

PKG = pathlib.Path(__file__).resolve().parent.parent / "oboyu_ray"
RELATIONAL_PARQUET = re.compile(
    r"(?:^|/)(orders|lineitem|customer|supplier|nation|region|part|events)\.parquet"
)

# (relative path, top-level function) pairs: the analytics surface that is
# slated for removal (ROADMAP item 5).
RELATIONAL_READERS = {("pipelines/corpus_queries.py", name) for name in (
    "_event_users", "q_asof_join", "q_brand_revenue_by_region",
    "q_cohort_retention", "q_customer_order_dist", "q_daily_revenue_dense",
    "q_disjunctive_revenue", "q_events_daily_ohlc", "q_events_json_stats",
    "q_events_profile", "q_events_validation", "q_events_weekday_pivot",
    "q_events_window", "q_events_window_hopping", "q_forecast_revenue",
    "q_funnel_conversion", "q_grouped_quantiles", "q_highvalue_no_error",
    "q_idle_highvalue_customers", "q_interval_join", "q_join_revenue",
    "q_large_volume_customers", "q_latest_event_per_user",
    "q_local_supplier_volume", "q_market_share", "q_nation_revenue_share",
    "q_next_purchase", "q_order_anomaly_days", "q_order_priority_wait",
    "q_orders_by_nation", "q_orders_range_sorted", "q_orders_unfilled",
    "q_pii_redact", "q_price_histogram", "q_price_percentiles_cont",
    "q_price_quantiles", "q_price_quantiles_sketch",
    "q_price_robust_dispersion", "q_price_ship_frontier", "q_pricing_summary",
    "q_product_profit", "q_promo_revenue", "q_revenue_concentration",
    "q_revenue_cube", "q_revenue_rollup", "q_rolling_active_users",
    "q_session_paths", "q_sessionize", "q_ship_lag_priority",
    "q_shipping_priority", "q_small_order_revenue", "q_top_return_customers",
    "q_top_supplier", "q_topk_per_group", "q_user_action_context",
    "q_user_day_activity", "q_user_event_gaps", "q_user_growth",
    "q_user_rolling_median", "q_user_running_totals", "q_user_skew_report",
    "q_value_outliers", "q_value_percentiles_by_type", "q_volume_shipping",
    "q_waiting_suppliers", "q_weighted_sample",
)}


def _relational_readers():
    found = {}
    for path in sorted(PKG.rglob("*.py")):
        rel = str(path.relative_to(PKG))
        tree = ast.parse(path.read_text(), filename=rel)
        for top in tree.body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and RELATIONAL_PARQUET.search(node.value)
                ):
                    key = (rel, getattr(top, "name", "<module>"))
                    found.setdefault(key, node.lineno)
    return found


def test_relational_tables_read_only_by_listed_queries():
    found = _relational_readers()
    new = sorted(f"{rel}:{line} in {fn}" for (rel, fn), line in found.items()
                 if (rel, fn) not in RELATIONAL_READERS)
    stale = sorted(f"{rel} {fn}" for rel, fn in RELATIONAL_READERS - found.keys())
    assert not new, "new reader of a relational table:\n  " + "\n  ".join(new)
    assert not stale, "listed but no longer a reader (drop the entry):\n  " + "\n  ".join(stale)
