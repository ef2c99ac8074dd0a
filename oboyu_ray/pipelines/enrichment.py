"""Schema-driven CSV/table enrichment (SURVEY §2-S8).

Reimplements the reference's enrichment pipeline
(`application/enrichment/enrichment_service.py:28-199`,
`extraction_strategies.py:58-170`): for each row of a tabular input and
each configured output column, format a query from a template
(``"{company} 概要"`` with row-value substitution), search the corpus,
filter hits by a confidence threshold, and extract a value by one of the
reference's extraction methods (``first_result`` / ``first_sentence`` /
``pattern_match`` / ``summarize`` — all reimplemented with the exact
reference string semantics, including the JP/EN sentence-ending rules).

Search backend substitution (documented): the reference routes through its
GraphRAG semantic search whose ``relevance_score`` lives in [0, 1]; this
engine's backend is the BM25 query engine, whose unbounded scores are
min-max normalized (functions/ranking.py, the reference's own normalizer
semantics) before applying ``confidence_threshold``.  Any callable
``search_fn(query, k) -> DataFrame[text, score]`` plugs in — the same
strategy seam the reference exposes via its hexagonal ports.

Execution shape: the reference loops rows in driver batches of 10
(enrichment_service.py:batch_size); ``enrich_dataframe`` enriches a frame
driver-side the same way.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Optional

import pandas as pd

from oboyu_ray.functions.ranking import normalize_scores

_HIRAGANA = set("あいうえおかきくけこさしすせそたちつてとなにぬねのはひふへほまみむめもやゆよらりるれろわをん")


def format_query_template(template: str, row: Dict[str, Any]) -> str:
    """enrichment_service.py:171-199: replace ``{col}`` placeholders with
    row values (None → empty string); unknown placeholders stay verbatim."""
    out = template
    for col, value in row.items():
        placeholder = f"{{{col}}}"
        if placeholder in template:
            out = out.replace(placeholder, str(value) if value is not None else "")
    return out


def extract_first_result(content: str) -> str:
    """extraction_strategies.py:164-168: first 200 chars, stripped."""
    return content[:200].strip()


def extract_first_sentence(content: str) -> str:
    """extraction_strategies.py:127-145: split on 。.!?, re-append 。 for
    hiragana-bearing sentences else '.'; empty first sentence → first 100
    chars."""
    sentences = re.split(r"[。.!?]", content)
    first = sentences[0].strip()
    if first:
        if any(ch in _HIRAGANA for ch in first):
            return first + "。"
        return first + "."
    return content[:100].strip()


def extract_by_pattern(contents, pattern: str) -> Optional[str]:
    """extraction_strategies.py:147-162: first regex match across results,
    IGNORECASE | MULTILINE."""
    compiled = re.compile(pattern, re.IGNORECASE | re.MULTILINE)
    for content in contents:
        matches = compiled.findall(content or "")
        if matches:
            return matches[0] if isinstance(matches[0], str) else str(matches[0])
    return None


def summarize_results(contents) -> str:
    """extraction_strategies.py:106-125: concat first 200 chars of the top 3
    results; return the first 。-sentence if > 10 chars, else first 100."""
    combined = ""
    for content in contents[:3]:
        combined += (content or "")[:200] + " "
    sentences = combined.split("。")
    if sentences and len(sentences[0]) > 10:
        return sentences[0] + "。"
    return combined[:100].strip()


def _extract(contents, method: str, col_config: Dict[str, Any]) -> Optional[str]:
    if not contents:
        return None
    if method == "summarize":
        return summarize_results(contents)
    if method == "first_sentence":
        return extract_first_sentence(contents[0])
    if method == "pattern_match":
        return extract_by_pattern(contents, col_config.get("extraction_pattern", r".*"))
    return extract_first_result(contents[0])  # first_result default


def enrich_dataframe(
    df: pd.DataFrame,
    schema: Dict[str, Any],
    search_fn: Callable[[str, int], pd.DataFrame],
    max_results: int = 5,
    confidence_threshold: float = 0.5,
    score_transform: str = "min_max",
) -> pd.DataFrame:
    """Enrich ``df`` per ``schema['enrichment_schema']['columns']``.

    ``search_fn(query, k)`` returns a frame with ``text`` and ``score``
    columns, best first.  ``score_transform`` controls how scores meet the
    confidence filter:

    * ``"none"`` — scores are filtered absolutely (the reference's
      semantics; use when the backend already emits calibrated [0,1]
      relevance, e.g. cosine similarity).
    * ``"min_max"`` (default for unbounded BM25 scores) — per-query min-max
      normalization.  CAVEAT: with ≥2 distinct scores the best hit maps to
      exactly 1.0, so the threshold trims weak TRAILING hits but can never
      reject the head — "query matched nothing relevant" is not detectable
      without absolute calibration.  This is a documented divergence from
      the reference's GraphRAG relevance filter.
    """
    enrichment_schema = schema["enrichment_schema"]
    out = df.copy()
    for col_name, col_config in enrichment_schema["columns"].items():
        values = []
        for row in df.to_dict("records"):
            query = format_query_template(col_config["query_template"], row)
            hits = search_fn(query, max_results)
            if hits is None or hits.empty:
                values.append(None)
                continue
            if score_transform == "min_max":
                hits = normalize_scores(hits, method="min_max")
            kept = hits[hits["score"] >= confidence_threshold]
            contents = kept["text"].tolist()
            values.append(_extract(contents, col_config.get("extraction_method", "first_result"), col_config))
        out[col_name] = values
    return out


def make_bm25_search_fn(engine) -> Callable[[str, int], pd.DataFrame]:
    """Adapt a QueryEngine to the enrichment search seam (hydrated text +
    raw BM25 score; normalization happens in enrich_dataframe)."""

    def search_fn(query: str, k: int) -> pd.DataFrame:
        got = engine.search(query, k=k, hydrate=True)
        if got.empty:
            return pd.DataFrame({"text": [], "score": []})
        return got[["text", "score"]].reset_index(drop=True)

    return search_fn
