"""Driver-contract query implementations + matching DuckDB oracle SQL.

Each public ``q_*`` function takes ``sf_dir`` (a directory of the driver's
parquet tables) and returns a Ray Dataset / pandas DataFrame; ``ORACLE_SQL``
holds the ANSI-SQL equivalent DuckDB runs over the same tables.  Column
names/types match exactly (the driver sorts columns by name and value-hashes).

Substrate: the ``documents`` table (doc_id:int64, text:string, …).  Each row
is one document; the tokenizer is the conformance tokenizer (stopwords ON,
min length 2 — see functions/tokenize.py).  The SQL reproduces it with
``regexp_extract_all(lower(text), …)`` — the same alternation of disjoint
character classes, identical match semantics.

Float-valued results are returned as ``*_micros = floor(x*1e6 + 0.5)`` int64
computed by the same expression on both sides, so value-hashes are stable
across summation orders.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from oboyu_ray.config import BM25Config
from oboyu_ray.functions.tokenize import DEFAULT_JAPANESE_STOP_WORDS, TOKEN_PATTERN_SQL
from oboyu_ray.pipelines.bm25_batch import brute_force_topk, tokenize_queries
from oboyu_ray.stages.postings import doc_stats_batch, postings_batch
from oboyu_ray.stages.stats import collection_stats, vocabulary

CFG = BM25Config()

# Fixed benchmark/oracle query set over the documents vocabulary: multi-term,
# single-term, hot-term, and no-hit queries; all distinct-term (the SQL
# oracle assumes multiplicity 1; duplicate-term semantics are pinned by
# tests/test_bm25_conformance.py instead).
BM25_QUERIES: List[str] = [
    "table join",
    "spark merge sort",
    "customer vector",
    "window",
    "scan stream batch",
    "zzznohit",
]
TOPK = 10

# Fixed phrase-query set: 2-term, 3-term, stopword-interrupted (the stopword
# drops out of the token stream, so the remaining terms must be adjacent),
# single-survivor, and a no-hit phrase.
PHRASE_QUERIES: List[str] = [
    "hash join",
    "merge sort table",
    "scan the stream",
    "the window",
    "window zzznohit",
]


def _docs(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])


# ---------------------------------------------------------------- SQL pieces

_SW = ", ".join("'" + w + "'" for w in sorted(DEFAULT_JAPANESE_STOP_WORDS))

SQL_POSTINGS_CTE = f"""
tok AS (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '{TOKEN_PATTERN_SQL}')) AS term
    FROM documents
),
tok_f AS (
    SELECT doc_id, term FROM tok
    WHERE length(term) >= {CFG.min_token_length} AND term NOT IN ({_SW})
),
postings AS (
    SELECT doc_id, term, count(*)::BIGINT AS tf
    FROM tok_f GROUP BY doc_id, term
),
postings_dl AS (
    SELECT doc_id, term, tf, sum(tf) OVER (PARTITION BY doc_id)::BIGINT AS dl
    FROM postings
)"""


# ---------------------------------------------------------------- queries

def q_postings(sf_dir: str) -> "ray.data.Dataset":
    """Posting rows (doc_id, term, tf, dl) over the documents table."""
    return _docs(sf_dir).map_batches(
        lambda b: postings_batch(b, CFG), batch_format="pyarrow"
    )


SQL_POSTINGS = f"""
WITH {SQL_POSTINGS_CTE}
SELECT doc_id, term, tf, dl FROM postings_dl
"""


def q_doc_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, dl, unique_terms) for every document, empty docs included."""
    return _docs(sf_dir).map_batches(
        lambda b: doc_stats_batch(b, CFG), batch_format="pyarrow"
    )


SQL_DOC_STATS = f"""
WITH {SQL_POSTINGS_CTE},
agg AS (
    SELECT doc_id, sum(tf)::BIGINT AS dl, count(*)::BIGINT AS unique_terms
    FROM postings GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.dl, 0)::BIGINT AS dl,
       coalesce(a.unique_terms, 0)::BIGINT AS unique_terms
FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
"""


def q_vocabulary(sf_dir: str) -> "ray.data.Dataset":
    """(term, df, cf) — document and collection frequencies."""
    return vocabulary(q_postings(sf_dir))


SQL_VOCABULARY = f"""
WITH {SQL_POSTINGS_CTE}
SELECT term, count(*)::BIGINT AS df, sum(tf)::BIGINT AS cf
FROM postings GROUP BY term
"""


def q_collection_stats(sf_dir: str) -> pd.DataFrame:
    """Single row (n_docs, total_dl, avgdl_micros)."""
    s = collection_stats(_docs(sf_dir), CFG)
    from oboyu_ray.fixedpoint import micros

    avgdl_micros = micros(float(s["avgdl"]))
    return pd.DataFrame(
        {
            "n_docs": pd.array([s["N"]], dtype="int64"),
            "total_dl": pd.array([s["total_dl"]], dtype="int64"),
            "avgdl_micros": pd.array([avgdl_micros], dtype="int64"),
        }
    )


SQL_COLLECTION_STATS = f"""
WITH {SQL_POSTINGS_CTE},
tot AS (SELECT coalesce(sum(tf), 0)::BIGINT AS total_dl FROM postings),
n AS (SELECT count(*)::BIGINT AS n_docs FROM documents)
SELECT n.n_docs, tot.total_dl,
       CAST(floor((tot.total_dl::DOUBLE / n.n_docs) * 1e6 + 0.5) AS BIGINT) AS avgdl_micros
FROM n, tot
"""


_BM25_MEMO: dict = {}


def q_bm25_topk(sf_dir: str) -> pd.DataFrame:
    """Top-10 BM25 per fixed query: (query_id, doc_id, score_micros, rank),
    ranked by (score_micros DESC, doc_id ASC) — identical on both sides.

    Results are memoized per (path, file signature) so downstream consumers
    (hybrid_rrf) reuse the ranking instead of re-tokenizing the corpus."""
    import os

    st = os.stat(f"{sf_dir}/documents.parquet")
    key = (sf_dir, st.st_size, st.st_mtime_ns)
    if key not in _BM25_MEMO:
        docs = _docs(sf_dir)
        queries = tokenize_queries(BM25_QUERIES, CFG)
        _BM25_MEMO.clear()  # one corpus at a time — no unbounded growth
        _BM25_MEMO[key] = brute_force_topk(docs, queries, k=TOPK, cfg=CFG)
    return _BM25_MEMO[key].copy()


def _sql_bm25_topk() -> str:
    queries = tokenize_queries(BM25_QUERIES, CFG)
    rows = []
    for qid, terms in queries.items():
        for t in sorted(set(terms)):
            rows.append(f"('{qid}', '{t}')")
    values = ", ".join(rows) if rows else "('__none__', '__none__')"
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
qterms(query_id, term) AS (VALUES {values}),
stats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
stats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM stats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
contrib AS (
    SELECT q.query_id, p.doc_id,
           (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - d.df + 0.5) / (d.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    JOIN dfreq d ON d.term = q.term
    CROSS JOIN stats2 s
),
scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM scores
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


# pagination: page 2 of the same ranking (rows TOPK+1 .. 2*TOPK with their
# GLOBAL rank) — the Lucene searchAfter / SQL OFFSET-LIMIT result shape
def q_bm25_topk_paged(sf_dir: str) -> pd.DataFrame:
    """Second page of the fixed BM25 query set: exact rows offset+1..offset+k
    of the (score_micros DESC, doc_id ASC) ranking, rank values GLOBAL.
    Map tasks emit local top-(offset+k) candidates — deep pages cost
    O(offset+k) per batch, stated in brute_force_topk's docstring."""
    docs = _docs(sf_dir)
    queries = tokenize_queries(BM25_QUERIES, CFG)
    return brute_force_topk(docs, queries, k=TOPK, cfg=CFG, offset=TOPK)


def _sql_bm25_topk_paged() -> str:
    base = _sql_bm25_topk()
    want = f"WHERE rank <= {TOPK}"
    assert want in base
    return base.replace(want, f"WHERE rank > {TOPK} AND rank <= {2 * TOPK}")



# scoped-retrieval doc_id interval [lo, hi): mid-corpus slice so the scoped
# top-k provably differs from the global one
SCOPE_LO, SCOPE_HI = 100, 350


def q_bm25_topk_scoped(sf_dir: str) -> pd.DataFrame:
    """Scoped retrieval: the same BM25 query set restricted to candidates
    in the doc_id interval [100, 350) — statistics stay full-corpus (M14
    WHERE-on-results semantics), exact top-10 within the scope."""
    from oboyu_ray.pipelines.bm25_batch import brute_force_topk

    queries = tokenize_queries(BM25_QUERIES, CFG)
    return brute_force_topk(
        _docs(sf_dir), queries, k=TOPK, cfg=CFG, scope=(SCOPE_LO, SCOPE_HI)
    )


def _sql_bm25_topk_scoped() -> str:
    queries = tokenize_queries(BM25_QUERIES, CFG)
    rows = []
    for qid, terms in queries.items():
        for t in sorted(set(terms)):
            rows.append(f"('{qid}', '{t}')")
    values = ", ".join(rows) if rows else "('__none__', '__none__')"
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
qterms(query_id, term) AS (VALUES {values}),
stats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
stats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM stats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
contrib AS (
    SELECT q.query_id, p.doc_id,
           (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - d.df + 0.5) / (d.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    JOIN dfreq d ON d.term = q.term
    CROSS JOIN stats2 s
    WHERE p.doc_id >= {SCOPE_LO} AND p.doc_id < {SCOPE_HI}
),
scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM scores
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


def q_phrase_topk(sf_dir: str) -> pd.DataFrame:
    """Exact phrase retrieval: top-10 BM25 over docs whose FILTERED token
    stream contains the phrase terms adjacently and in order (reference
    position semantics, bm25_indexer.py:290-308)."""
    from oboyu_ray.pipelines.bm25_batch import phrase_topk

    return phrase_topk(_docs(sf_dir), PHRASE_QUERIES, k=TOPK, cfg=CFG)


def _sql_phrase_topk() -> str:
    from collections import Counter

    tokq = tokenize_queries(PHRASE_QUERIES, CFG)
    phr_rows, plen_rows, qterm_rows = [], [], []
    for p, terms in tokq.items():
        if not terms:
            continue  # tokenizes away -> no rows on either side
        for off, t in enumerate(terms):
            phr_rows.append(f"('{p}', '{t}', {off})")
        plen_rows.append(f"('{p}', {len(terms)})")
        for t, mult in Counter(terms).items():
            qterm_rows.append(f"('{p}', '{t}', {mult})")
    if not phr_rows:
        return "SELECT NULL::VARCHAR AS query_id, NULL::BIGINT AS doc_id, NULL::BIGINT AS score_micros, NULL::BIGINT AS rank WHERE FALSE"
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
seq AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '{TOKEN_PATTERN_SQL}'),
                       t -> length(t) >= {CFG.min_token_length} AND t NOT IN ({_SW})) AS s
    FROM documents
),
pos AS (
    SELECT doc_id, unnest(s) AS term, generate_subscripts(s, 1) AS p FROM seq
),
phr(query_id, term, off) AS (VALUES {", ".join(phr_rows)}),
plen(query_id, m) AS (VALUES {", ".join(plen_rows)}),
starts AS (
    -- relational division on the aligned start p-off: a full adjacency
    -- match at start st satisfies every offset exactly once
    SELECT ph.query_id, po.doc_id, po.p - ph.off AS st, count(*) AS nhit
    FROM pos po JOIN phr ph ON ph.term = po.term
    GROUP BY 1, 2, 3
),
cand AS (
    SELECT DISTINCT s.query_id, s.doc_id
    FROM starts s JOIN plen l ON l.query_id = s.query_id
    WHERE s.nhit = l.m
),
qterms(query_id, term, mult) AS (VALUES {", ".join(qterm_rows)}),
stats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
stats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM stats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
contrib AS (
    SELECT q.query_id, p.doc_id,
           q.mult * (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - d.df + 0.5) / (d.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    JOIN dfreq d ON d.term = q.term
    CROSS JOIN stats2 s
),
scores AS (
    SELECT co.query_id, co.doc_id, sum(co.c) AS score
    FROM contrib co JOIN cand ca ON ca.query_id = co.query_id AND ca.doc_id = co.doc_id
    GROUP BY 1, 2
),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM scores
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


# Fixed prefix-query set: common stem, rarer stem, one-term stem, no-hit.
PREFIX_QUERIES: List[str] = ["ta", "str", "wind", "zzq"]

# Boolean-NOT query set: (positive terms, excluded terms).  Covers a hot
# exclusion that reshapes the top-k, a rare exclusion, an absent exclusion
# (no-op), and exclusion of one of the query's own terms.
NOT_QUERIES: List[tuple] = [
    ("table join", "value"),
    ("spark merge sort", "window"),
    ("customer vector", "zzznohit"),
    ("window scan", "scan"),
]


def q_bm25_topk_not(sf_dir: str) -> pd.DataFrame:
    """BM25 OR retrieval with boolean NOT: documents containing any
    excluded term are removed from the CANDIDATE set (statistics stay
    full-corpus), exact top-10."""
    docs = _docs(sf_dir)
    queries = {f"{q} -{ex}": tokenize_queries([q], CFG)[q] for q, ex in NOT_QUERIES}
    exclude = {
        f"{q} -{ex}": tokenize_queries([ex], CFG)[ex] for q, ex in NOT_QUERIES
    }
    return brute_force_topk(docs, queries, k=TOPK, cfg=CFG, exclude=exclude)


def _sql_bm25_topk_not() -> str:
    qrows, xrows = [], []
    for q, ex in NOT_QUERIES:
        qid = f"{q} -{ex}"
        for t in sorted(set(tokenize_queries([q], CFG)[q])):
            qrows.append(f"('{qid}', '{t}')")
        for t in sorted(set(tokenize_queries([ex], CFG)[ex])):
            xrows.append(f"('{qid}', '{t}')")
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
qterms(query_id, term) AS (VALUES {", ".join(qrows)}),
xterms(query_id, term) AS (VALUES {", ".join(xrows)}),
stats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
stats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM stats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
contrib AS (
    SELECT q.query_id, p.doc_id,
           (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - d.df + 0.5) / (d.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    JOIN dfreq d ON d.term = q.term
    CROSS JOIN stats2 s
),
scores AS (
    SELECT co.query_id, co.doc_id, sum(co.c) AS score
    FROM contrib co
    WHERE NOT EXISTS (
        SELECT 1 FROM xterms x JOIN postings px
          ON px.term = x.term AND px.doc_id = co.doc_id
        WHERE x.query_id = co.query_id
    )
    GROUP BY 1, 2
),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM scores
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


def q_prefix_topk(sf_dir: str) -> pd.DataFrame:
    """Wildcard ``pre*`` retrieval: each prefix expands to every vocabulary
    term starting with it, scored as the ordinary BM25 OR (idf per matched
    term) — Lucene's PrefixQuery rewrite, exact top-10."""
    from oboyu_ray.pipelines.bm25_batch import prefix_topk

    return prefix_topk(_docs(sf_dir), PREFIX_QUERIES, k=TOPK, cfg=CFG)


def _sql_prefix_topk() -> str:
    values = ", ".join(f"('{p}', '{p}')" for p in PREFIX_QUERIES)
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
qpfx(query_id, pfx) AS (VALUES {values}),
stats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
stats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM stats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
qterms AS (
    SELECT q.query_id, d.term, d.df
    FROM qpfx q JOIN dfreq d ON starts_with(d.term, q.pfx)
),
contrib AS (
    SELECT q.query_id, p.doc_id,
           (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - q.df + 0.5) / (q.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    CROSS JOIN stats2 s
),
scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM scores
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


# Fuzzy (term, max_edits) queries: misspelling with an insertion, with a
# substitution, with a deletion, an exact in-vocabulary term (distance-0 +
# neighborhood mix), a distance-2 short term (wide expansion), and a no-hit.
FUZZY_QUERIES: List[tuple] = [
    ("tble", 1),       # -> table (insertion)
    ("joim", 1),       # -> join (substitution)
    ("windoww", 1),    # -> window (deletion)
    ("vector", 1),     # exact term + its edit-1 neighborhood
    ("bath", 2),       # wide d=2 expansion over short terms
    ("zzznohit", 1),   # no vocabulary term within 1 edit
]


def q_fuzzy_topk(sf_dir: str) -> pd.DataFrame:
    """Fuzzy ``term~d`` retrieval: each query expands to every vocabulary
    term within levenshtein distance d, scored as the ordinary BM25 OR
    (idf per matched term) — Lucene's FuzzyQuery rewrite, exact top-10."""
    from oboyu_ray.pipelines.bm25_batch import fuzzy_topk

    return fuzzy_topk(_docs(sf_dir), FUZZY_QUERIES, k=TOPK, cfg=CFG)


def _sql_fuzzy_topk() -> str:
    # DuckDB's levenshtein() counts BYTES; ours counts codepoints.  The
    # documents vocabulary is pure ASCII at every sf (pinned in
    # tests/test_fuzzy.py), where the two agree exactly.
    values = ", ".join(f"('{q}~{d}', '{q}', {d})" for q, d in FUZZY_QUERIES)
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
qfz(query_id, q, d) AS (VALUES {values}),
stats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
stats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM stats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
qterms AS (
    SELECT q.query_id, f.term, f.df
    FROM qfz q JOIN dfreq f ON levenshtein(f.term, q.q) <= q.d
),
contrib AS (
    SELECT q.query_id, p.doc_id,
           (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - q.df + 0.5) / (q.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    CROSS JOIN stats2 s
),
scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM scores
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


# NEAR pairs (term_a, term_b, window): ordinary pair, tight window, self-NEAR
# (repeated term), and an absent term (strict empty).
NEAR_QUERIES: List[tuple] = [
    ("table", "join", 3),
    ("spark", "sort", 2),
    ("window", "window", 4),
    ("scan", "zzznohit", 5),
]


def q_near_topk(sf_dir: str) -> pd.DataFrame:
    """Proximity (NEAR/w) retrieval: both terms within w tokens of each
    other in the filtered token stream, any order; BM25-scored over both
    terms, exact top-10."""
    from oboyu_ray.pipelines.bm25_batch import near_topk

    return near_topk(_docs(sf_dir), NEAR_QUERIES, k=TOPK, cfg=CFG)


def _sql_near_topk() -> str:
    qrows = []
    trows = []
    from collections import Counter

    for a, b, w in NEAR_QUERIES:
        qid = f"{a} NEAR/{w} {b}"
        qrows.append(f"('{qid}', '{a}', '{b}', {w})")
        for t, mult in Counter([a, b]).items():
            trows.append(f"('{qid}', '{t}', {mult})")
    k1, bb = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
seq AS (
    SELECT doc_id,
           list_filter(regexp_extract_all(lower(text), '{TOKEN_PATTERN_SQL}'),
                       t -> length(t) >= {CFG.min_token_length} AND t NOT IN ({_SW})) AS s
    FROM documents
),
pos AS (
    SELECT doc_id, unnest(s) AS term, generate_subscripts(s, 1) AS p FROM seq
),
qpair(query_id, ta, tb, w) AS (VALUES {", ".join(qrows)}),
cand AS (
    SELECT DISTINCT q.query_id, p1.doc_id
    FROM qpair q
    JOIN pos p1 ON p1.term = q.ta
    JOIN pos p2 ON p2.term = q.tb AND p2.doc_id = p1.doc_id
    WHERE abs(p1.p - p2.p) <= q.w AND p1.p <> p2.p
),
qterms(query_id, term, mult) AS (VALUES {", ".join(trows)}),
stats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
stats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM stats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
contrib AS (
    SELECT q.query_id, p.doc_id,
           q.mult * (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {bb} + {bb} * (p.dl / s.avgdl)))
             * ln((s.n - d.df + 0.5) / (d.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    JOIN dfreq d ON d.term = q.term
    CROSS JOIN stats2 s
),
scores AS (
    SELECT co.query_id, co.doc_id, sum(co.c) AS score
    FROM contrib co JOIN cand ca ON ca.query_id = co.query_id AND ca.doc_id = co.doc_id
    GROUP BY 1, 2
),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM scores
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


# Regex term queries (full-match, RE2 on BOTH sides — pyarrow and DuckDB):
# optional groups, a single-char wildcard, alternation with a suffix class,
# a character class, and a no-hit.
REGEX_QUERIES: List[str] = [
    "tab(le)?s?",
    "jo.n",
    "(merge|sort)s?",
    "wind[aeiou]w",
    "zzz.*nohit",
]

# Lucene-wildcard term queries: trailing-*, ?-substitution, leading-* (no
# literal prefix to prune by), mixed ?/*, and a no-hit.
WILDCARD_QUERIES: List[str] = [
    "tab*",
    "j?in",
    "*dow",
    "sc?n*",
    "zzz*nohit",
]


def q_regex_topk(sf_dir: str) -> pd.DataFrame:
    """Regex term retrieval: each pattern expands to every vocabulary term
    it fully matches (RE2, implicit anchors), scored as the ordinary BM25
    OR (idf per matched term) — Lucene's RegexpQuery rewrite, exact top-10."""
    from oboyu_ray.pipelines.bm25_batch import regex_topk

    return regex_topk(_docs(sf_dir), REGEX_QUERIES, k=TOPK, cfg=CFG)


def q_wildcard_topk(sf_dir: str) -> pd.DataFrame:
    """Wildcard term retrieval (``*`` any run, ``?`` one codepoint): each
    pattern rewrites to the equivalent anchored regex and scores as the
    ordinary BM25 OR — Lucene's WildcardQuery rewrite, exact top-10."""
    from oboyu_ray.pipelines.bm25_batch import regex_topk

    return regex_topk(_docs(sf_dir), WILDCARD_QUERIES, k=TOPK, cfg=CFG,
                      wildcard=True)


def _sql_pattern_topk(pairs: "List[tuple]") -> str:
    """Shared oracle for regex/wildcard retrieval: (query_id, RE2 pattern)
    pairs expand against the vocabulary with ``regexp_full_match`` (DuckDB
    is RE2, same engine as pyarrow's match_substring_regex — pinned in
    tests/test_regex_query.py), then the standard BM25 OR scoring."""
    values = ", ".join(f"('{qid}', '{rx}')" for qid, rx in pairs)
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
qpat(query_id, pat) AS (VALUES {values}),
stats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
stats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM stats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
qterms AS (
    SELECT q.query_id, d.term, d.df
    FROM qpat q JOIN dfreq d ON regexp_full_match(d.term, q.pat)
),
contrib AS (
    SELECT q.query_id, p.doc_id,
           (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - q.df + 0.5) / (q.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    CROSS JOIN stats2 s
),
scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM scores
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


def _sql_regex_topk() -> str:
    return _sql_pattern_topk([(p, p) for p in REGEX_QUERIES])


def _sql_wildcard_topk() -> str:
    from oboyu_ray.functions.querylang import wildcard_to_regex

    return _sql_pattern_topk(
        [(p, wildcard_to_regex(p)) for p in WILDCARD_QUERIES]
    )


# More-like-this source documents (doc_ids exist at every sf: 0-499 minimum)
MLT_DOC_IDS: List[int] = [3, 57, 123, 401]
MLT_N_TERMS = 10
MLT_MIN_DF = 2


def q_mlt_topk(sf_dir: str) -> pd.DataFrame:
    """More-like-this: per source doc, its 10 most characteristic terms by
    tf × ln(1+(N-df+0.5)/(df+0.5)) (df ≥ 2) become a signed-idf BM25 OR
    query; the source doc itself is excluded — Lucene MoreLikeThis shape,
    exact top-10."""
    from oboyu_ray.pipelines.bm25_batch import mlt_topk

    return mlt_topk(_docs(sf_dir), MLT_DOC_IDS, k=TOPK, n_terms=MLT_N_TERMS,
                    min_df=MLT_MIN_DF, cfg=CFG)


def _sql_mlt_topk() -> str:
    values = ", ".join(f"({d})" for d in MLT_DOC_IDS)
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
src(src_id) AS (VALUES {values}),
stats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
stats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM stats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
src_terms AS (
    SELECT s.src_id, p.term, p.tf, d.df,
           ln(1 + (st.n - d.df + 0.5) / (d.df + 0.5)) AS w
    FROM src s
    JOIN postings p ON p.doc_id = s.src_id
    JOIN dfreq d ON d.term = p.term
    CROSS JOIN stats2 st
    WHERE d.df >= {MLT_MIN_DF}
),
sel AS (
    SELECT src_id, term,
           ROW_NUMBER() OVER (
               PARTITION BY src_id
               ORDER BY CAST(floor(tf * w * 1e6 + 0.5) AS BIGINT) DESC, term ASC
           ) AS rn
    FROM src_terms
),
qterms AS (
    SELECT 'doc:' || CAST(src_id AS VARCHAR) AS query_id, src_id, term
    FROM sel WHERE rn <= {MLT_N_TERMS}
),
contrib AS (
    SELECT q.query_id, q.src_id, p.doc_id,
           (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - d.df + 0.5) / (d.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    JOIN dfreq d ON d.term = q.term
    CROSS JOIN stats2 s
    WHERE p.doc_id <> q.src_id
),
scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM scores
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


def q_bm25_facets(sf_dir: str) -> pd.DataFrame:
    """Faceted search: per fixed BM25 query, the count of ALL matching
    documents (≥1 query term present) by language — the Lucene facets /
    terms-aggregation shape, over the full match set."""
    from oboyu_ray.pipelines.bm25_batch import facet_counts

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    queries = tokenize_queries(BM25_QUERIES, CFG)
    return facet_counts(docs, queries, "lang", cfg=CFG)


def _sql_bm25_facets() -> str:
    queries = tokenize_queries(BM25_QUERIES, CFG)
    rows = []
    for qid, terms in queries.items():
        for t in sorted(set(terms)):
            rows.append(f"('{qid}', '{t}')")
    values = ", ".join(rows) if rows else "('__none__', '__none__')"
    return f"""
WITH {SQL_POSTINGS_CTE},
qterms(query_id, term) AS (VALUES {values}),
matched AS (
    SELECT DISTINCT q.query_id, p.doc_id
    FROM qterms q JOIN postings p ON p.term = q.term
)
SELECT m.query_id, d.lang, count(*)::BIGINT AS n_docs
FROM matched m JOIN documents d ON d.doc_id = m.doc_id
GROUP BY 1, 2
"""


# Boolean-expression queries (Lucene BooleanQuery shapes): nested AND/OR,
# infix NOT, a NOT over a conjunction, and a NOT inside an OR.
BOOL_QUERIES: List[str] = [
    "(table AND join) OR vector",
    "window NOT merge",
    "(scan OR stream) AND NOT (sort AND batch)",
    "customer AND (vector OR NOT table)",
]


def q_bool_topk(sf_dir: str) -> pd.DataFrame:
    """Boolean-expression retrieval: AND/OR/NOT trees over term presence,
    scored as the signed-idf BM25 sum over the distinct POSITIVE terms
    present (negated clauses filter only); qualifying docs need ≥1 positive
    term — the Lucene BooleanQuery shape, exact top-10."""
    from oboyu_ray.pipelines.bm25_batch import bool_topk

    return bool_topk(_docs(sf_dir), BOOL_QUERIES, k=TOPK, cfg=CFG)


def _sql_bool_topk() -> str:
    from oboyu_ray.functions.querylang import (
        bool_leaves,
        parse_bool_query,
        render_bool_query,
    )

    trees = {}
    for q in BOOL_QUERIES:
        t = parse_bool_query(q)
        trees[render_bool_query(t)] = t
    all_terms = sorted({t for tr in trees.values() for t in bool_leaves(tr)[1]})
    col = {t: f"p_{i}" for i, t in enumerate(all_terms)}
    pres_cols = ",\n           ".join(
        f"bool_or(term = '{t}') AS {col[t]}" for t in all_terms
    )

    def sql_expr(node) -> str:
        if isinstance(node, str):
            return col[node]
        if node[0] == "not":
            return f"(NOT {sql_expr(node[1])})"
        j = " AND " if node[0] == "and" else " OR "
        return "(" + j.join(sql_expr(x) for x in node[1:]) + ")"

    qdoc_selects, qterm_rows = [], []
    for qid, tree in trees.items():
        pos, _ = bool_leaves(tree)
        pos_or = " OR ".join(col[t] for t in sorted(pos))
        qdoc_selects.append(
            f"SELECT '{qid}' AS query_id, doc_id FROM pres "
            f"WHERE ({sql_expr(tree)}) AND ({pos_or})"
        )
        for t in sorted(pos):
            qterm_rows.append(f"('{qid}', '{t}')")
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
pres AS (
    SELECT doc_id,
           {pres_cols}
    FROM postings GROUP BY doc_id
),
qdocs AS (
    {" UNION ALL ".join(qdoc_selects)}
),
qterms(query_id, term) AS (VALUES {", ".join(qterm_rows)}),
stats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
stats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM stats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
contrib AS (
    SELECT q.query_id, p.doc_id,
           (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - d.df + 0.5) / (d.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    JOIN dfreq d ON d.term = q.term
    CROSS JOIN stats2 s
),
scores AS (
    SELECT co.query_id, co.doc_id, sum(co.c) AS score
    FROM contrib co JOIN qdocs qd
      ON qd.query_id = co.query_id AND qd.doc_id = co.doc_id
    GROUP BY 1, 2
),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM scores
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


# Fixed synonym map (one-directional) over the documents vocabulary; the
# last entry maps onto another query term so group-vs-singleton overlap is
# exercised (a doc's "batch" tf counts in BOTH the scan-group and the
# plain batch token of the same query).
SYNONYMS = {
    "table": ["tables"],
    "join": ["merge"],
    "window": ["stream"],
    "scan": ["batch"],
    "customer": ["supplier"],
}


def q_synonym_topk(sf_dir: str) -> pd.DataFrame:
    """Blended synonym retrieval over the fixed BM25 query set: each token's
    synonym group scores as ONE term (tf summed before saturation, idf of
    the group's max df) — the Lucene SynonymQuery shape, exact top-10."""
    from oboyu_ray.pipelines.bm25_batch import synonym_topk

    return synonym_topk(_docs(sf_dir), BM25_QUERIES, SYNONYMS, k=TOPK, cfg=CFG)


def _sql_synonym_topk() -> str:
    from oboyu_ray.functions.querylang import synonym_groups

    tokq = tokenize_queries(BM25_QUERIES, CFG)
    syn_rows, mult_rows = [], []
    for q, terms in tokq.items():
        if not terms:
            continue
        mult: dict = {}
        for g in synonym_groups(terms, SYNONYMS):
            mult[tuple(g)] = mult.get(tuple(g), 0) + 1
        for g, m in mult.items():
            gid = "|".join(g)
            mult_rows.append(f"('{q}', '{gid}', {m})")
            for t in g:
                syn_rows.append(f"('{q}', '{gid}', '{t}')")
    if not syn_rows:
        return "SELECT NULL WHERE FALSE"
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
syn(query_id, gid, term) AS (VALUES {", ".join(syn_rows)}),
synm(query_id, gid, mult) AS (VALUES {", ".join(mult_rows)}),
stats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
stats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM stats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
gdf AS (
    SELECT s.query_id, s.gid, max(d.df) AS df_max
    FROM syn s JOIN dfreq d ON d.term = s.term
    GROUP BY 1, 2
),
gtf AS (
    SELECT s.query_id, s.gid, p.doc_id,
           sum(p.tf)::BIGINT AS tf, min(p.dl)::BIGINT AS dl
    FROM syn s JOIN postings_dl p ON p.term = s.term
    GROUP BY 1, 2, 3
),
contrib AS (
    SELECT g.query_id, g.doc_id,
           m.mult * (g.tf * ({k1} + 1))
             / (g.tf + {k1} * (1 - {b} + {b} * (g.dl / st.avgdl)))
             * ln((st.n - gd.df_max + 0.5) / (gd.df_max + 0.5)) AS c
    FROM gtf g
    JOIN gdf gd ON gd.query_id = g.query_id AND gd.gid = g.gid
    JOIN synm m ON m.query_id = g.query_id AND m.gid = g.gid
    CROSS JOIN stats2 st
),
scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM scores
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


# ---------------------------------------------------- dismax / boosted terms

# DisMax tiebreak: Lucene's common 0.3 — max clause dominates, others damped.
DISMAX_TIEBREAK = 0.3

# Query-time boosts over the fixed query set's tokens (terms absent from the
# map keep 1.0).  Chosen to REORDER the plain ranking: the hot term gets
# damped, rarer terms amplified.
BOOSTS = {"table": 0.5, "join": 2.0, "window": 3.0, "scan": 0.25, "vector": 2.0}


def q_dismax_topk(sf_dir: str) -> pd.DataFrame:
    """Disjunction-max retrieval over the fixed BM25 query set: per doc
    ``max + 0.3·(sum − max)`` of single-term BM25 contributions (the Lucene
    DisjunctionMaxQuery shape), exact top-10."""
    from oboyu_ray.pipelines.bm25_batch import dismax_topk

    return dismax_topk(_docs(sf_dir), BM25_QUERIES, k=TOPK,
                       tiebreak=DISMAX_TIEBREAK, cfg=CFG)


def _sql_dismax_topk() -> str:
    base = _sql_bm25_topk()
    want = "scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2)"
    assert want in base
    return base.replace(
        want,
        "scores AS (SELECT query_id, doc_id,"
        f" max(c) + {DISMAX_TIEBREAK} * (sum(c) - max(c)) AS score"
        " FROM contrib GROUP BY 1, 2)",
    )


def q_boosted_topk(sf_dir: str) -> pd.DataFrame:
    """Per-term query-time boosts (Lucene BoostQuery): score =
    Σ boost_t × bm25_t over the fixed query set, exact top-10."""
    from oboyu_ray.pipelines.bm25_batch import boosted_topk

    return boosted_topk(_docs(sf_dir), BM25_QUERIES, BOOSTS, k=TOPK, cfg=CFG)


def _sql_boosted_topk() -> str:
    queries = tokenize_queries(BM25_QUERIES, CFG)
    rows = []
    for qid, terms in queries.items():
        for t in sorted(set(terms)):
            rows.append(f"('{qid}', '{t}', {float(BOOSTS.get(t, 1.0))!r})")
    values = ", ".join(rows) if rows else "('__none__', '__none__', 1.0)"
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
qterms(query_id, term, boost) AS (VALUES {values}),
stats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
stats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM stats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
contrib AS (
    SELECT q.query_id, p.doc_id,
           q.boost * (p.tf * ({k1} + 1))
             / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - d.df + 0.5) / (d.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    JOIN dfreq d ON d.term = q.term
    CROSS JOIN stats2 s
),
scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM scores
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


def core_queries() -> dict:
    return {
        "postings": q_postings,
        "doc_stats": q_doc_stats,
        "vocabulary": q_vocabulary,
        "collection_stats": q_collection_stats,
        "bm25_topk": q_bm25_topk,
        "phrase_topk": q_phrase_topk,
        "prefix_topk": q_prefix_topk,
        "bm25_topk_not": q_bm25_topk_not,
        "near_topk": q_near_topk,
        "fuzzy_topk": q_fuzzy_topk,
        "bm25_topk_scoped": q_bm25_topk_scoped,
        "bm25_topk_paged": q_bm25_topk_paged,
        "regex_topk": q_regex_topk,
        "wildcard_topk": q_wildcard_topk,
        "mlt_topk": q_mlt_topk,
        "bm25_facets": q_bm25_facets,
        "bool_topk": q_bool_topk,
        "synonym_topk": q_synonym_topk,
        "dismax_topk": q_dismax_topk,
        "boosted_topk": q_boosted_topk,
    }


def core_oracle_sql() -> dict:
    return {
        "postings": SQL_POSTINGS,
        "doc_stats": SQL_DOC_STATS,
        "vocabulary": SQL_VOCABULARY,
        "collection_stats": SQL_COLLECTION_STATS,
        "bm25_topk": _sql_bm25_topk(),
        "phrase_topk": _sql_phrase_topk(),
        "prefix_topk": _sql_prefix_topk(),
        "bm25_topk_not": _sql_bm25_topk_not(),
        "near_topk": _sql_near_topk(),
        "fuzzy_topk": _sql_fuzzy_topk(),
        "bm25_topk_scoped": _sql_bm25_topk_scoped(),
        "bm25_topk_paged": _sql_bm25_topk_paged(),
        "regex_topk": _sql_regex_topk(),
        "wildcard_topk": _sql_wildcard_topk(),
        "mlt_topk": _sql_mlt_topk(),
        "bm25_facets": _sql_bm25_facets(),
        "bool_topk": _sql_bool_topk(),
        "synonym_topk": _sql_synonym_topk(),
        "dismax_topk": _sql_dismax_topk(),
        "boosted_topk": _sql_boosted_topk(),
    }
