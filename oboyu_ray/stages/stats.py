"""Collection statistics over Ray Datasets.

Reference semantics (bm25_statistics_calculator.py):
* df(term)  = number of documents containing the term        (:79-81)
* cf(term)  = total occurrences of the term                  (:83-85)
* N         = number of documents (empty docs included)      (:77)
* total_dl  = sum of document lengths                        (:76)
* avgdl     = total_dl / N                                   (:123-132)
* idf(term) = ln((N - df + 0.5) / (df + 0.5))                (:178) —
  deliberately WITHOUT the Lucene +1: idf goes NEGATIVE for terms in more
  than half the documents, asserted as correct by the reference's own tests
  (tests/indexer/algorithm/test_bm25_statistics_calculator.py:150-160).
"""

from __future__ import annotations

import math
from typing import Dict

import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Sum

from oboyu_ray.config import BM25Config
from oboyu_ray.stages.postings import doc_stats_batch, term_partials_batch


def idf(df: int, n_docs: int) -> float:
    """BM25 IDF — reference bm25_statistics_calculator.py:178 (no +1; may be
    negative).  df=0 → 0.0 by convention (:173-175)."""
    if df <= 0:
        return 0.0
    return math.log((n_docs - df + 0.5) / (df + 0.5))


def bm25_term_score(tf, dl, idf_value: float, avgdl: float, k1: float, b: float):
    """Per-(term, doc) BM25 contribution — reference
    bm25_statistics_calculator.py:183-187.  Vectorizes over numpy arrays."""
    return idf_value * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * (dl / avgdl)))


def vocabulary(postings_ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """postings (…, term, tf, dl) → vocabulary (term, df, cf).

    Two-level aggregation: vectorized in-batch partials (term_partials_batch)
    followed by a small groupby('term') over the partials — the only
    term-keyed shuffle in the engine, and its input is bounded by
    (#blocks × per-block vocabulary), not by total posting rows.
    """
    partials = postings_ds.map_batches(term_partials_batch, batch_format="pyarrow")
    agg = partials.groupby("term").aggregate(
        Sum("df_partial", alias_name="df"), Sum("cf_partial", alias_name="cf")
    )
    return agg


def collection_stats(docs_ds: "ray.data.Dataset", cfg: BM25Config = BM25Config(),
                     id_col: str = "doc_id", text_col: str = "text") -> Dict[str, float]:
    """Global scalars {N, total_dl, avgdl} — a streaming aggregate, no shuffle."""
    ds = docs_ds.map_batches(
        lambda b: doc_stats_batch(b, cfg, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
    )
    agg = ds.aggregate(Count(), Sum("dl", alias_name="total_dl"))
    n = int(agg["count()"])
    total_dl = int(agg["total_dl"] or 0)
    return {
        "N": n,
        "total_dl": total_dl,
        "avgdl": (total_dl / n) if n else 0.0,
    }


# ---------------------------------------------------------------- fuzzy terms

def _deletes1(s: str) -> set:
    """The word plus its 1-deletion neighborhood (SymSpell keys)."""
    return {s} | {s[:i] + s[i + 1 :] for i in range(len(s))}


def _levenshtein1(a: str, b: str) -> int:
    """Levenshtein distance, early-exit structure adequate for the ≤1
    verification of SymSpell candidates (full DP; candidate sets are tiny)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return 2
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[lb]


def fuzzy_terms(
    vocab_ds: "ray.data.Dataset", probes: "List[str]"
) -> "ray.data.Dataset":
    """Fuzzy vocabulary lookup (query spelling correction): for each probe
    word, every vocabulary term within Levenshtein distance ≤ 1, with its
    df — the candidate generator a search engine's "did you mean" uses.

    SymSpell shape: the probes' 1-deletion neighborhoods broadcast (tiny —
    |probe| keys per probe word); one stateless pass over the vocabulary
    generates each term's deletion keys, keeps terms whose neighborhood
    intersects a probe's, and VERIFIES with a real edit-distance check
    (deletion-neighborhood intersection admits distance-2 false positives
    at equal length — e.g. "ab"/"ba" — so the verify is what makes the
    output exact).  No shuffle; vocabulary never leaves its blocks."""
    probe_keys = {}
    for p in probes:
        for k in _deletes1(p):
            probe_keys.setdefault(k, []).append(p)

    def match(b: pa.Table) -> pa.Table:
        terms = b.column("term").to_pylist()
        dfs = b.column("df").to_numpy(zero_copy_only=False)
        out_p: List[str] = []
        out_t: List[str] = []
        out_d: List[int] = []
        out_e: List[int] = []
        for i, t in enumerate(terms):
            cands = set()
            for k in _deletes1(t):
                for p in probe_keys.get(k, ()):
                    cands.add(p)
            for p in cands:
                dist = _levenshtein1(p, t)
                if dist <= 1:
                    out_p.append(p)
                    out_t.append(t)
                    out_d.append(int(dfs[i]))
                    out_e.append(dist)
        return pa.table(
            {
                "query": pa.array(out_p, type=pa.string()),
                "term": pa.array(out_t, type=pa.string()),
                "df": pa.array(out_d, type=pa.int64()),
                "dist": pa.array(out_e, type=pa.int64()),
            }
        )

    return vocab_ds.map_batches(match, batch_format="pyarrow")
