"""Driver contract for the oboyu_ray engine.

The driver initialises Ray BEFORE importing this module; nothing here (or in
the library) calls ``ray.init`` / ``ray.shutdown``.

* ``entry()`` — flagship pipeline at sf0.001: BM25 top-k over the documents
  table via the Dataset-native scorer.
* ``queries()`` — one callable per implemented operator (SURVEY.md §2).
* ``oracle_sql()`` — DuckDB-equivalent SQL for each query where expressible;
  omitted keys get the driver's weaker rows-only check.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    from oboyu_ray.pipelines.entry_queries import q_bm25_topk

    return q_bm25_topk("/root/testdata/sf0.001")


# Queries earlier driver rounds already verified green (rows+schema+hash
# or rows-only — the union of CORRECTNESS_r01–r04.json).  The driver
# samples the FIRST ~50 registered queries each round, so we rotate:
# queries it has never reached register first, already-driver-green last.
_DRIVER_CHECKED = frozenset(
    {
        # r1–r3 (CORRECTNESS_r01–r03.json)
        "postings", "doc_stats", "vocabulary", "collection_stats",
        "bm25_topk", "text_stats", "text_quality", "sample_documents",
        "text_fingerprint", "text_fingerprint_fast", "dedup_exact",
        "dedup_ngram_jaccard", "dedup_clusters", "dedup_minhash_lsh",
        "dedup_simhash", "dedup_embedding_cosine", "simsearch_topk",
        "simsearch_lsh", "kg_entities", "kg_relations", "graphrag_expand",
        "multimodal_features", "hybrid_rrf", "chunking", "snippets",
        "events_window", "events_window_hopping", "orders_by_nation",
        "asof_join", "text_normalize", "bm25_topk_filtered", "rerank_topk",
        "simsearch_ivf", "simsearch_ivf_persisted", "sessionize",
        "transcript_engine_topk", "doc_embeddings", "interval_join",
        "topk_per_group", "heavy_hitters",
        "price_quantiles", "grouped_quantiles", "edc_entities",
        "pii_redact", "text_repetition", "boilerplate_ngrams",
        "decontaminate", "stratified_sample", "join_revenue",
        # r4 (CORRECTNESS_r04.json, 50/50 green)
        "phrase_topk", "prefix_topk", "bm25_topk_not", "near_topk",
        "fuzzy_topk", "bm25_topk_scoped", "substring_dups",
        "order_priority_wait", "ship_lag_priority", "promo_revenue",
        "idle_highvalue_customers", "domain_mixture", "revenue_cube",
        "top_return_customers", "lang_drift_by_source", "forecast_revenue",
        "small_order_revenue", "top_supplier", "corpus_profile",
        "clean_corpus", "doc_surprisal", "embedding_clusters",
        "price_quantiles_sketch", "pack_sequences",
        "funnel_conversion", "doc_keywords", "token_counts_bpe",
        "price_histogram", "dedup_incremental", "fuzzy_terms",
        "orders_unfilled", "stratified_topk_sample", "collocations",
        "langid_confusion", "user_day_activity", "kg_pagerank",
        "decontaminate_bloom", "revenue_rollup", "value_outliers",
        "top_terms_per_lang", "prefix_dups", "user_running_totals",
        "latest_event_per_user", "rolling_active_users", "cohort_retention",
        "simsearch_pq", "simsearch_mmr", "doc_length_rank", "bm25_rm3",
    }
)


def queries() -> dict[str, Callable[[str], Any]]:
    from oboyu_ray.pipelines.corpus_queries import corpus_queries
    from oboyu_ray.pipelines.entry_queries import core_queries

    merged = {**core_queries(), **corpus_queries()}
    fresh = {k: v for k, v in merged.items() if k not in _DRIVER_CHECKED}
    seen = {k: v for k, v in merged.items() if k in _DRIVER_CHECKED}
    return {**fresh, **seen}


def oracle_sql() -> dict[str, str]:
    from oboyu_ray.pipelines.corpus_queries import corpus_oracle_sql
    from oboyu_ray.pipelines.entry_queries import core_oracle_sql

    return {**core_oracle_sql(), **corpus_oracle_sql()}
