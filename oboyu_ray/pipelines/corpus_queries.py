"""Training-data corpus operators as driver-contract queries + DuckDB oracles.

Query families over the driver's ``documents`` / ``embeddings`` tables:
text analysis (stats / quality / fingerprints), deduplication (exact,
n-gram Jaccard, MinHash+LSH, SimHash, embedding cosine) and similarity
search (brute-force + LSH).  SQL-expressible operators carry an oracle with
byte-identical semantics (same regexes, same double expressions, fixed-point
micros); the probabilistic/bit-twiddling ones (MinHash, SimHash, LSH probe,
multimodal decode) are rows-only checked by the driver and pinned by pytest
instead (subset/recall assertions against their exact counterparts).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from oboyu_ray.functions.normalize import HAS_FTFY as _HAS_FTFY
from oboyu_ray.functions.normalize import HAS_NEOLOGDN as _HAS_NEOLOGDN
from oboyu_ray.stages import dedup, multimodal, simsearch, textstats

JACCARD_TAU = 0.5
COSINE_TAU = 0.4
TOPK = 10
QUERY_IDS = (0, 1, 2, 3, 4)


def _docs(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )


_MEMO: dict = {}


def _memo(sf_dir: str, name: str, builder):
    """Per-(input signature) memo for intermediates shared by several
    driver queries (ngram pairs feed dedup_ngram_jaccard AND
    dedup_clusters; the kg tables feed three queries) — one corpus at a
    time, keyed on the documents file signature."""
    import os

    st = os.stat(f"{sf_dir}/documents.parquet")
    key = (name, sf_dir, st.st_size, st.st_mtime_ns)
    if key not in _MEMO:
        if any(k[1] != sf_dir for k in _MEMO):
            _MEMO.clear()
        _MEMO[key] = builder()
    return _MEMO[key]


def _embs(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )


# ---------------------------------------------------------------- text analysis

def q_text_stats(sf_dir: str) -> "ray.data.Dataset":
    return _docs(sf_dir).map_batches(textstats.text_stats_batch, batch_format="pyarrow")


SQL_TEXT_STATS = rf"""
SELECT doc_id,
       length(text)::BIGINT AS n_chars,
       len(regexp_extract_all(text, '[^ \t\n\r\f\v]+'))::BIGINT AS n_ws_tokens,
       len(regexp_extract_all(lower(text), '{textstats.WORD_RE_SQL}'))::BIGINT AS n_word_tokens,
       len(regexp_extract_all(text, '{textstats.JP_KANA_SQL}'))::BIGINT AS n_kana,
       len(regexp_extract_all(text, '{textstats.CJK_SQL}'))::BIGINT AS n_cjk,
       CASE WHEN len(regexp_extract_all(text, '{textstats.JP_KANA_SQL}')) > 0 THEN 'ja'
            WHEN len(regexp_extract_all(text, '{textstats.CJK_SQL}')) > 0 THEN 'zh'
            ELSE 'en' END AS lang
FROM documents
"""


SAMPLE_THRESHOLD_HEX = "28"  # ≈ 15.6%


def q_sample_documents(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic hash sampling: reproducible Bernoulli-by-key subset of
    the documents table (no RNG state — re-runs and both engines see the
    identical sample)."""
    return _docs(sf_dir).map_batches(
        lambda b: textstats.sample_by_hash(b, threshold_hex=SAMPLE_THRESHOLD_HEX),
        batch_format="pyarrow",
    )


SQL_SAMPLE_DOCUMENTS = f"""
SELECT doc_id, text FROM documents
WHERE md5(CAST(doc_id AS VARCHAR)) < '{SAMPLE_THRESHOLD_HEX}'
"""


def q_text_quality(sf_dir: str) -> "ray.data.Dataset":
    return _docs(sf_dir).map_batches(textstats.quality_batch, batch_format="pyarrow")


_QSW = ", ".join(f"'{w}'" for w in textstats.QUALITY_STOPWORDS)

SQL_TEXT_QUALITY = rf"""
WITH w AS (
    SELECT doc_id,
           length(text)::BIGINT AS n_chars,
           regexp_extract_all(lower(text), '{textstats.WORD_RE_SQL}') AS words
    FROM documents
),
r AS (
    SELECT doc_id,
           CASE WHEN len(words) > 0
                THEN len(list_filter(words, x -> x IN ({_QSW})))::DOUBLE / len(words)
                ELSE 0.0 END AS stop_ratio,
           least(n_chars, 500) / 500.0 AS len_score
    FROM w
)
SELECT doc_id,
       CAST(floor(stop_ratio * 1e6 + 0.5) AS BIGINT) AS stop_ratio_micros,
       CAST(floor(len_score * 1e6 + 0.5) AS BIGINT) AS len_score_micros,
       CAST(floor((0.5 * len_score + 0.5 * (1.0 - least(stop_ratio, 0.5))) * 1e6 + 0.5) AS BIGINT)
           AS quality_micros
FROM r
"""


def q_text_fingerprint(sf_dir: str) -> "ray.data.Dataset":
    return _docs(sf_dir).map_batches(textstats.fingerprint_batch, batch_format="pyarrow")


def q_text_fingerprint_fast(sf_dir: str) -> "ray.data.Dataset":
    """Production winnow mode (Karp-Rabin rolling hash) — same window
    semantics as the md5 oracle mode but a different hash family, so no SQL
    oracle; pinned instead by the brute-force-rolling conformance pytest."""
    return _docs(sf_dir).map_batches(
        textstats.fingerprint_fast_batch, batch_format="pyarrow"
    )


_W = textstats.WINNOW_WINDOW

SQL_TEXT_FINGERPRINT = rf"""
WITH n AS (
    SELECT doc_id, trim(regexp_replace(lower(text), '[ \t\n\r\f\v]+', ' ', 'g'), ' ') AS norm
    FROM documents
),
pos AS (
    SELECT doc_id, norm,
           unnest(range(1, greatest(length(norm) - {_W - 2}, 2))) AS i
    FROM n
),
win AS (
    SELECT doc_id, min(md5(substr(norm, i::INT, {_W}))) AS wfp
    FROM pos GROUP BY doc_id
)
SELECT n.doc_id, md5(n.norm) AS fingerprint, win.wfp AS winnow_fingerprint
FROM n JOIN win ON n.doc_id = win.doc_id
"""


# ---------------------------------------------------------------- dedup

def q_dedup_exact(sf_dir: str) -> "ray.data.Dataset":
    return dedup.exact_dedup(_docs(sf_dir))


SQL_DEDUP_EXACT = r"""
SELECT md5(trim(regexp_replace(lower(text), '[ \t\n\r\f\v]+', ' ', 'g'), ' ')) AS key,
       min(doc_id) AS doc_id,
       count(*)::BIGINT AS n_dups
FROM documents GROUP BY 1
"""


def q_dedup_ngram_jaccard(sf_dir: str) -> pd.DataFrame:
    return _memo(
        sf_dir, "ngram_pairs",
        lambda: dedup.ngram_jaccard_pairs(_docs(sf_dir), tau=JACCARD_TAU),
    ).copy()


SQL_DEDUP_NGRAM_JACCARD = rf"""
WITH d AS (
    SELECT doc_id, regexp_extract_all(lower(text), '{textstats.WORD_RE_SQL}') AS w
    FROM documents
),
sh AS (
    SELECT doc_id,
           unnest(list_distinct(list_transform(range(1, len(w) - 1),
                  i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))) AS tri
    FROM d WHERE len(w) >= 3
),
cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS ni
    FROM sh a JOIN sh b ON a.tri = b.tri AND a.doc_id < b.doc_id
    GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       CAST(floor(ni::DOUBLE / (ca.n + cb.n - ni) * 1e6 + 0.5) AS BIGINT) AS jaccard_micros
FROM inter
JOIN cnt ca ON ca.doc_id = doc_a
JOIN cnt cb ON cb.doc_id = doc_b
WHERE ni::DOUBLE / (ca.n + cb.n - ni) >= {JACCARD_TAU}
"""


def q_dedup_clusters(sf_dir: str) -> pd.DataFrame:
    """Near-dup pairs → transitive dedup clusters via distributed
    connected components (stages/components.py): (doc_id, component,
    is_canonical) with component = min doc id of the cluster.  Pairs come
    from the oracled ngram-Jaccard operator; at corpus scale they stay a
    Dataset end-to-end (the pandas hop here is the final driver result of
    the pair query)."""
    from oboyu_ray.stages.components import dedup_clusters

    def build():
        pairs_df = q_dedup_ngram_jaccard(sf_dir)
        pairs = ray.data.from_pandas(pairs_df[["doc_a", "doc_b"]])
        return dedup_clusters(pairs)

    # memoized: the multi-round CC also feeds cluster_representatives
    return _memo(sf_dir, "dedup_clusters", build).copy()


SQL_DEDUP_CLUSTERS = rf"""
WITH RECURSIVE
pairs AS ({SQL_DEDUP_NGRAM_JACCARD}),
edges AS (
    SELECT doc_a AS a, doc_b AS b FROM pairs
    UNION ALL
    SELECT doc_b AS a, doc_a AS b FROM pairs
),
nodes AS (SELECT DISTINCT a AS node FROM edges),
reach(node, r) AS (
    SELECT node, node FROM nodes
    UNION
    SELECT re.node, e.b FROM reach re JOIN edges e ON e.a = re.r
)
SELECT node AS doc_id,
       min(r)::BIGINT AS component,
       (CASE WHEN node = min(r) THEN 1 ELSE 0 END)::BIGINT AS is_canonical
FROM reach GROUP BY node
"""


def q_cluster_representatives(sf_dir: str) -> "ray.data.Dataset":
    """Best-quality representative per near-dup cluster — the "which copy
    do we KEEP" decision a dedup pass feeds the training corpus: ngram
    near-dup clusters (distributed CC) hash-joined to the quality scores,
    then an exact argmax per component by (quality_micros DESC, doc ASC)
    via the two-level topk_per_group reduce.  Pure composition of three
    oracled operators."""
    import pyarrow.compute as _pc

    from oboyu_ray.stages.relational import hash_join, topk_per_group

    cc = q_dedup_clusters(sf_dir)  # (doc_id, component, is_canonical)
    clusters = ray.data.from_pandas(
        cc[["doc_id", "component"]].astype(np.int64)
    )
    qual = q_text_quality(sf_dir).map_batches(
        lambda t: pa.table(
            {
                "qdoc": t.column("doc_id").cast(pa.int64()),
                "quality_micros": t.column("quality_micros").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    joined = hash_join(clusters, qual, "doc_id", "qdoc")
    rep = topk_per_group(joined, "component", "doc_id", "quality_micros", k=1)
    sizes = clusters.groupby("component").count()

    def fin_rep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "component": t.column("grp").cast(pa.int64()),
                "rep_doc_id": t.column("key").cast(pa.int64()),
                "rep_quality_micros": t.column("val_cents").cast(pa.int64()),
            }
        )

    def fin_size(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "comp2": t.column("component").cast(pa.int64()),
                "n_members": t.column("count()").cast(pa.int64()),
            }
        )

    return hash_join(
        rep.map_batches(fin_rep, batch_format="pyarrow"),
        sizes.map_batches(fin_size, batch_format="pyarrow"),
        "component",
        "comp2",
    ).drop_columns(["comp2"])


SQL_CLUSTER_REPRESENTATIVES = rf"""
WITH RECURSIVE
pairs AS ({SQL_DEDUP_NGRAM_JACCARD}),
edges AS (
    SELECT doc_a AS a, doc_b AS b FROM pairs
    UNION ALL
    SELECT doc_b AS a, doc_a AS b FROM pairs
),
nodes AS (SELECT DISTINCT a AS node FROM edges),
reach(node, r) AS (
    SELECT node, node FROM nodes
    UNION
    SELECT re.node, e.b FROM reach re JOIN edges e ON e.a = re.r
),
comp AS (SELECT node AS doc_id, min(r)::BIGINT AS component FROM reach GROUP BY node),
qual AS ({SQL_TEXT_QUALITY}),
joined AS (
    SELECT c.component, c.doc_id, q.quality_micros
    FROM comp c JOIN qual q ON q.doc_id = c.doc_id
),
rep AS (
    SELECT component, doc_id AS rep_doc_id, quality_micros AS rep_quality_micros
    FROM joined
    QUALIFY row_number() OVER (
        PARTITION BY component ORDER BY quality_micros DESC, doc_id ASC
    ) = 1
)
SELECT r.component, r.rep_doc_id, r.rep_quality_micros,
       (SELECT count(*) FROM comp c WHERE c.component = r.component)::BIGINT AS n_members
FROM rep r
"""


def q_dedup_minhash_lsh(sf_dir: str) -> pd.DataFrame:
    # probabilistic candidate recall -> rows-only driver check; pytest
    # asserts subset-of-exact + high recall vs ngram_jaccard_pairs
    return dedup.minhash_lsh_pairs(_docs(sf_dir), tau=JACCARD_TAU)


def q_dedup_simhash(sf_dir: str) -> pd.DataFrame:
    return dedup.simhash_pairs(_docs(sf_dir), hamming_max=3)


def q_dedup_embedding_cosine(sf_dir: str) -> pd.DataFrame:
    return dedup.embedding_cosine_pairs(_embs(sf_dir), tau=COSINE_TAU)


SQL_DEDUP_EMBEDDING_COSINE = f"""
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       CAST(floor(list_cosine_similarity(a.v, b.v) * 1e6 + 0.5) AS BIGINT) AS cos_micros
FROM e a JOIN e b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.v, b.v) >= {COSINE_TAU}
"""


# ---------------------------------------------------------------- similarity search

def q_simsearch_topk(sf_dir: str) -> pd.DataFrame:
    return simsearch.brute_force_cosine_topk(
        _embs(sf_dir), k=TOPK, query_ids=QUERY_IDS,
        source_path=f"{sf_dir}/embeddings.parquet",
    )


_QIDS = ", ".join(str(q) for q in QUERY_IDS)

SQL_SIMSEARCH_TOPK = f"""
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id IN ({_QIDS})),
s AS (
    SELECT q.query_id, e.vec_id,
           CAST(floor(list_cosine_similarity(q.qv, e.v) * 1e6 + 0.5) AS BIGINT) AS cos_micros
    FROM q CROSS JOIN e
),
r AS (
    SELECT query_id, vec_id, cos_micros,
           ROW_NUMBER() OVER (PARTITION BY query_id
                              ORDER BY cos_micros DESC, vec_id ASC)::BIGINT AS rank
    FROM s
)
SELECT query_id, vec_id, cos_micros, rank FROM r WHERE rank <= {TOPK}
"""


def q_simsearch_ivf(sf_dir: str) -> pd.DataFrame:
    # approximate (IVF coarse-quantized probe) -> rows-only; recall vs brute
    # force asserted in pytest
    return simsearch.ivf_cosine_topk(
        _embs(sf_dir), k=TOPK, query_ids=QUERY_IDS,
        source_path=f"{sf_dir}/embeddings.parquet",
    )


def _vector_index_dir(sf_dir: str) -> str:
    import os

    st = os.stat(f"{sf_dir}/embeddings.parquet")
    return f"/tmp/oboyu_vecindex/{os.path.basename(sf_dir.rstrip('/'))}-{st.st_size}-{st.st_mtime_ns}"


def q_simsearch_ivf_persisted(sf_dir: str) -> pd.DataFrame:
    """EXACT cosine top-k served from the persisted IVF-cell-partitioned
    vector index (state/vector_index.py): build-if-absent into /tmp (keyed
    by the embeddings file signature), then bounded-probe search that reads
    only the cell files it needs.  Same output as brute force — shares the
    SQL_SIMSEARCH_TOPK oracle."""
    from oboyu_ray.state.vector_index import ivf_persisted_topk

    return ivf_persisted_topk(
        _embs(sf_dir), _vector_index_dir(sf_dir), k=TOPK, query_ids=QUERY_IDS,
        source_path=f"{sf_dir}/embeddings.parquet",
    )


def _pq_index_dir(sf_dir: str) -> str:
    import os

    st = os.stat(f"{sf_dir}/embeddings.parquet")
    return f"/tmp/oboyu_pqindex/{os.path.basename(sf_dir.rstrip('/'))}-{st.st_size}-{st.st_mtime_ns}"


def q_simsearch_pq(sf_dir: str) -> pd.DataFrame:
    """Approximate cosine top-k via a persisted product-quantization index
    (state/pq_index.py): 8-byte codes stream through the ADC scan instead of
    512-byte vectors; the bounded candidate set is re-ranked EXACTLY from a
    pushdown point-read, so scores are true cosines and only recall is
    approximate (pinned ≥0.8 vs brute force in tests; rows-only driver
    check)."""
    from oboyu_ray.state.pq_index import pq_persisted_topk

    return pq_persisted_topk(
        _embs(sf_dir), _pq_index_dir(sf_dir), k=TOPK, query_ids=QUERY_IDS,
        source_path=f"{sf_dir}/embeddings.parquet",
    )


def q_simsearch_mmr(sf_dir: str) -> pd.DataFrame:
    """MMR-diversified top-k: exact distributed top-pool candidates, then
    the (bounded, inherently sequential) greedy λ-tradeoff selection on the
    driver.  Rows-only; pinned against a scalar reference in pytest."""
    from oboyu_ray.stages.simsearch import mmr_topk

    return mmr_topk(
        _embs(sf_dir), k=TOPK, query_ids=QUERY_IDS,
        source_path=f"{sf_dir}/embeddings.parquet",
    )


KNN_CLASSIFY_K = 10


def q_knn_classify(sf_dir: str) -> "ray.data.Dataset":
    """kNN auto-labeling: majority label of the 10 nearest reference
    vectors (broadcast labeled set, self excluded; stages/simsearch.
    knn_classify)."""
    from oboyu_ray.stages.simsearch import knn_classify

    embs = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    return knn_classify(embs, k=KNN_CLASSIFY_K)


SQL_KNN_CLASSIFY = f"""
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v, label FROM embeddings),
s AS (
    SELECT a.vec_id AS q, b.vec_id AS r, b.label,
           CAST(floor(list_cosine_similarity(a.v, b.v) * 1e6 + 0.5) AS BIGINT) AS cm
    FROM e a JOIN e b ON a.vec_id <> b.vec_id
),
nn AS (
    SELECT q, r, label FROM s
    QUALIFY row_number() OVER (PARTITION BY q ORDER BY cm DESC, r ASC) <= {KNN_CLASSIFY_K}
),
votes AS (SELECT q, label, count(*)::BIGINT AS n FROM nn GROUP BY 1, 2)
SELECT q AS vec_id, label::BIGINT AS predicted_label, n AS n_votes FROM votes
QUALIFY row_number() OVER (PARTITION BY q ORDER BY n DESC, label ASC) = 1
"""


def q_sessionize(sf_dir: str) -> "ray.data.Dataset":
    from oboyu_ray.stages.sessionize import sessionize

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    return sessionize(ev)


SQL_SESSIONIZE = """
WITH o AS (
    SELECT user_id, event_id, ts,
           CASE WHEN lag(ts) OVER w IS NULL
                  OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                THEN 1 ELSE 0 END AS new_s
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (
    SELECT user_id, ts,
           sum(new_s) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
               ROWS UNBOUNDED PRECEDING
           )::BIGINT AS session_idx
    FROM o
)
SELECT user_id, session_idx, count(*)::BIGINT AS n_events,
       min(ts) AS start_ts, max(ts) AS end_ts
FROM s GROUP BY 1, 2
"""


def q_simsearch_lsh(sf_dir: str) -> pd.DataFrame:
    # approximate (multi-probe hyperplane LSH) -> rows-only; recall vs brute
    # force asserted in pytest
    return simsearch.lsh_cosine_topk(
        _embs(sf_dir), k=TOPK, query_ids=QUERY_IDS,
        source_path=f"{sf_dir}/embeddings.parquet",
    )


# ---------------------------------------------------------------- hybrid RRF

def q_hybrid_rrf(sf_dir: str) -> pd.DataFrame:
    """RRF hybrid of the BM25 ranking (text side) and the cosine ranking
    (vector side) for paired queries i=0..4: BM25_QUERIES[i] ↔ embedding
    vec_id=i, treating vec_id as doc_id (the driver tables are aligned
    1 document ↔ 1 embedding row).  Reference semantics:
    hybrid_search_combiner.py:56-107 with rrf_k=60 (config/indexer.py:52);
    ties ordered by (rrf_micros DESC, doc_id ASC) — the documented
    deterministic choice replacing the reference's accidental dict order
    (SURVEY §2-K4).  Output (query_id, doc_id, rrf_micros, rank<=10).

    The vector side is served from the PERSISTED IVF index (exact bounded
    probe — identical results to brute force, so the hybrid oracle is
    unchanged); the BM25 side reuses q_bm25_topk's memoized ranking."""
    import numpy as np

    from oboyu_ray.functions.ranking import DEFAULT_RRF_K, rrf_combine
    from oboyu_ray.pipelines.entry_queries import BM25_QUERIES, q_bm25_topk

    bm = q_bm25_topk(sf_dir)
    sim = q_simsearch_ivf_persisted(sf_dir)
    frames = []
    for i, qstr in enumerate(BM25_QUERIES[: len(QUERY_IDS)]):
        b = bm[bm["query_id"] == qstr].sort_values("rank")[["doc_id"]]
        v = (
            sim[sim["query_id"] == i]
            .sort_values("rank")
            .rename(columns={"vec_id": "doc_id"})[["doc_id"]]
        )
        comb = rrf_combine([v, b], rrf_k=DEFAULT_RRF_K, limit=10**9)
        from oboyu_ray.fixedpoint import micros

        comb["rrf_micros"] = micros(comb["rrf_score"].to_numpy(dtype=np.float64))
        comb = comb.sort_values(
            ["rrf_micros", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(TOPK)
        comb["rank"] = pd.array(range(1, len(comb) + 1), dtype=np.int64)
        comb["query_id"] = np.int64(i)
        frames.append(comb[["query_id", "doc_id", "rrf_micros", "rank"]])
    out = pd.concat(frames, ignore_index=True)
    return out.astype(
        {"query_id": "int64", "doc_id": "int64", "rrf_micros": "int64", "rank": "int64"}
    )


def _sql_hybrid_rrf() -> str:
    from oboyu_ray.pipelines.entry_queries import (
        BM25_QUERIES,
        CFG,
        SQL_POSTINGS_CTE,
        TOPK as BM_TOPK,
    )
    from oboyu_ray.pipelines.bm25_batch import tokenize_queries

    tokenized = tokenize_queries(BM25_QUERIES[: len(QUERY_IDS)], CFG)
    rows = []
    for i, qstr in enumerate(BM25_QUERIES[: len(QUERY_IDS)]):
        for t in sorted(set(tokenized[qstr])):
            rows.append(f"({i}, '{t}')")
    values = ", ".join(rows)
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
qterms(query_id, term) AS (VALUES {values}),
gstats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
gstats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM gstats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
contrib AS (
    SELECT q.query_id, p.doc_id,
           (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - d.df + 0.5) / (d.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    JOIN dfreq d ON d.term = q.term
    CROSS JOIN gstats2 s
),
bscores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2),
bm25r AS (
    SELECT query_id, doc_id,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM bscores QUALIFY rank <= {BM_TOPK}
),
e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
qv AS (SELECT vec_id AS query_id, v AS qvec FROM e WHERE vec_id IN ({_QIDS})),
sv AS (
    SELECT qv.query_id, e.vec_id AS doc_id,
           CAST(floor(list_cosine_similarity(qv.qvec, e.v) * 1e6 + 0.5) AS BIGINT) AS cm
    FROM qv CROSS JOIN e
),
simr AS (
    SELECT query_id, doc_id,
           ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY cm DESC, doc_id ASC)::BIGINT AS rank
    FROM sv QUALIFY rank <= {TOPK}
),
allids AS (
    SELECT query_id, doc_id FROM simr
    UNION
    SELECT query_id, doc_id FROM bm25r
),
rrf AS (
    SELECT a.query_id, a.doc_id,
           coalesce(1.0 / (60 + s.rank), 0.0) + coalesce(1.0 / (60 + b.rank), 0.0) AS score
    FROM allids a
    LEFT JOIN simr s ON s.query_id = a.query_id AND s.doc_id = a.doc_id
    LEFT JOIN bm25r b ON b.query_id = a.query_id AND b.doc_id = a.doc_id
),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS rrf_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM rrf
)
SELECT query_id, doc_id, rrf_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


# ---------------------------------------------------------------- rerank (T4/K2)

RERANK_K = 10


class _PinnedCrossEncoder:
    """FakeCrossEncoder with the whitespace class PINNED to the oracle's
    ASCII set (the module default uses Python's Unicode split; for a
    value-hashed driver query both engines must tokenize identically —
    same rule as the textstats pinning)."""

    def predict(self, pairs):
        import numpy as np

        from oboyu_ray.stages.textstats import NON_WS_RE

        out = np.zeros(len(pairs), dtype=np.float64)
        for i, (q, d) in enumerate(pairs):
            qs = set(NON_WS_RE.findall((q or "").lower()))
            ds = set(NON_WS_RE.findall((d or "").lower()))
            union = len(qs | ds)
            out[i] = (len(qs & ds) / union) if union else 0.0
        return out


def q_rerank_topk(sf_dir: str) -> pd.DataFrame:
    """K2 reranked search as a value-checked driver query: BM25
    top-(k×multiplier) candidates per fixed query, cross-encoder re-score
    (deterministic fake, token-set Jaccard), re-sort by (rerank score
    DESC, original BM25 rank ASC — the reference's stable re-sort),
    truncate to k.  Output (query_id, doc_id, rerank_micros, rank)."""
    import numpy as np
    import pyarrow.parquet as pq

    from oboyu_ray.fixedpoint import micros as _micros
    from oboyu_ray.functions.rerank import DEFAULT_TOP_K_MULTIPLIER, rerank
    from oboyu_ray.pipelines.bm25_batch import brute_force_topk, tokenize_queries
    from oboyu_ray.pipelines.entry_queries import BM25_QUERIES, CFG

    docs = _docs(sf_dir)
    queries = tokenize_queries(BM25_QUERIES, CFG)
    bm = brute_force_topk(docs, queries, k=RERANK_K * DEFAULT_TOP_K_MULTIPLIER, cfg=CFG)
    if bm.empty:
        return pd.DataFrame(
            {"query_id": pd.Series(dtype=object), "doc_id": pd.Series(dtype="int64"),
             "rerank_micros": pd.Series(dtype="int64"), "rank": pd.Series(dtype="int64")}
        )
    ids = sorted(set(bm["doc_id"].tolist()))
    texts = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        filters=[("doc_id", "in", ids)],
    ).to_pandas()
    frames = []
    enc = _PinnedCrossEncoder()
    for qstr in BM25_QUERIES:
        cand = bm[bm["query_id"] == qstr].sort_values("rank").merge(texts, on="doc_id")
        if cand.empty:
            continue
        # no truncation inside rerank(): final ranking happens at MICROS
        # precision below (float-precision truncation could disagree with
        # the fixed-point oracle on ties)
        out = rerank(qstr, cand, len(cand), encoder=enc)
        out = out.assign(
            rerank_micros=_micros(out["rerank_score"].to_numpy(dtype=np.float64))
        )
        # fixed-point rank (micros DESC, bm25 rank ASC) so both engines
        # agree on ties exactly
        out = out.sort_values(
            ["rerank_micros", "rank"], ascending=[False, True], kind="mergesort"
        ).head(RERANK_K)
        out["query_id"] = qstr
        out["new_rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
        frames.append(out[["query_id", "doc_id", "rerank_micros", "new_rank"]]
                      .rename(columns={"new_rank": "rank"}))
    res = pd.concat(frames, ignore_index=True)
    return res.astype({"doc_id": "int64", "rerank_micros": "int64", "rank": "int64"})


def _sql_rerank_topk() -> str:
    from oboyu_ray.functions.rerank import DEFAULT_TOP_K_MULTIPLIER
    from oboyu_ray.pipelines.bm25_batch import tokenize_queries
    from oboyu_ray.pipelines.entry_queries import BM25_QUERIES, CFG, SQL_POSTINGS_CTE
    from oboyu_ray.stages.textstats import NON_WS_RE

    tokenized = tokenize_queries(BM25_QUERIES, CFG)
    rows = []
    for qstr in BM25_QUERIES:
        for t in sorted(set(tokenized[qstr])):
            rows.append(f"('{qstr}', '{t}')")
    values = ", ".join(rows) if rows else "('__none__', '__none__')"
    qtok_rows = []
    qlen_rows = []
    for qstr in BM25_QUERIES:
        toks = sorted(set(NON_WS_RE.findall(qstr.lower())))
        qlen_rows.append(f"('{qstr}', {len(toks)})")
        for t in toks:
            qtok_rows.append(f"('{qstr}', '{t}')")
    k1, b = CFG.k1, CFG.b
    kk = RERANK_K * DEFAULT_TOP_K_MULTIPLIER
    return f"""
WITH {SQL_POSTINGS_CTE},
qterms(query_id, term) AS (VALUES {values}),
gstats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
gstats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM gstats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
contrib AS (
    SELECT q.query_id, p.doc_id,
           (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - d.df + 0.5) / (d.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    JOIN dfreq d ON d.term = q.term
    CROSS JOIN gstats2 s
),
bscores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2),
cand AS (
    SELECT query_id, doc_id,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS bm_rank
    FROM bscores QUALIFY bm_rank <= {kk}
),
qtok(query_id, tok) AS (VALUES {", ".join(qtok_rows)}),
qlen(query_id, nq) AS (VALUES {", ".join(qlen_rows)}),
dtoks AS (
    SELECT c.query_id, c.doc_id, c.bm_rank,
           list_distinct(regexp_extract_all(lower(d.text), '[^ \t\n\r\f\v]+')) AS toks
    FROM cand c JOIN documents d ON d.doc_id = c.doc_id
),
dtok AS (SELECT query_id, doc_id, unnest(toks) AS tok FROM dtoks),
inter AS (
    SELECT d.query_id, d.doc_id, count(*)::BIGINT AS ni
    FROM dtok d JOIN qtok q ON q.query_id = d.query_id AND q.tok = d.tok
    GROUP BY 1, 2
),
scored AS (
    SELECT t.query_id, t.doc_id, t.bm_rank,
           coalesce(i.ni, 0)::DOUBLE
             / (l.nq + len(t.toks) - coalesce(i.ni, 0)) AS jac
    FROM dtoks t
    JOIN qlen l ON l.query_id = t.query_id
    LEFT JOIN inter i ON i.query_id = t.query_id AND i.doc_id = t.doc_id
),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(jac * 1e6 + 0.5) AS BIGINT) AS rerank_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(jac * 1e6 + 0.5) AS BIGINT) DESC, bm_rank ASC
           )::BIGINT AS rank
    FROM scored
)
SELECT query_id, doc_id, rerank_micros, rank FROM ranked WHERE rank <= {RERANK_K}
"""


# ---------------------------------------------------------------- chunking & snippets

CHUNK_SIZE_Q = 120
CHUNK_OVERLAP_Q = 30
SNIPPET_TERMS = ["spark", "merge", "sort", "table", "join"]


def q_chunking(sf_dir: str) -> "ray.data.Dataset":
    """Sliding-window chunking (reference M4 semantics at a chunk size small
    enough that the ~150-400-char test documents actually split).  Rows-only
    driver check; semantics pinned against the importlib-loaded reference
    DocumentChunker in tests/test_textproc.py."""
    import hashlib

    import pyarrow as pa

    from oboyu_ray.functions.textproc import chunk_batch

    def run(batch: pa.Table) -> pa.Table:
        out = chunk_batch(batch, CHUNK_SIZE_Q, CHUNK_OVERLAP_Q)
        chunks = out.column("chunk").to_pylist()
        return pa.table(
            {
                "doc_id": out.column("doc_id").cast(pa.int64()),
                "chunk_index": out.column("chunk_index").cast(pa.int64()),
                "n_chunk_chars": pa.array([len(c) for c in chunks], type=pa.int64()),
                "chunk_md5": pa.array(
                    [hashlib.md5(c.encode("utf-8")).hexdigest() for c in chunks],
                    type=pa.string(),
                ),
            }
        )

    return _docs(sf_dir).map_batches(run, batch_format="pyarrow")


def q_snippets(sf_dir: str) -> "ray.data.Dataset":
    """Snippet + highlight for a fixed term set over every document
    (reference snippet_extractor.py / text_highlighter.py semantics; pinned
    against importlib-loaded reference classes in tests)."""
    import pyarrow as pa

    from oboyu_ray.functions.textproc import highlight_matches, snippet_for_terms

    def run(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        snips = [snippet_for_terms(t or "", SNIPPET_TERMS, length=120) for t in texts]
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "snippet": pa.array(snips, type=pa.string()),
                "highlighted": pa.array(
                    [highlight_matches(s, SNIPPET_TERMS) for s in snips],
                    type=pa.string(),
                ),
            }
        )

    return _docs(sf_dir).map_batches(run, batch_format="pyarrow")


# ---------------------------------------------------------------- knowledge graph

def _kg_rows(sf_dir: str) -> "ray.data.Dataset":
    """ONE materialized actor-pool extraction pass shared by kg_entities,
    kg_relations (and through them graphrag/EDC) — the NER scan is the
    expensive stage; its mention/relation rows feed every kg table."""
    from oboyu_ray.stages import kg

    return _memo(
        sf_dir, "kg_rows", lambda: kg.extract_kg(_docs(sf_dir)).materialize()
    )


def q_kg_entities(sf_dir: str) -> pd.DataFrame:
    from oboyu_ray.stages import kg

    return _memo(
        sf_dir,
        "kg_entities",
        lambda: kg.kg_entities(rows=_kg_rows(sf_dir)).to_pandas(),
    ).copy()


def q_edc_entities(sf_dir: str) -> pd.DataFrame:
    """EDC entity dedup over the extracted kg_entities table — the full
    Dataset-native flow (normalize → bucketed exact-name edges →
    distributed cosine candidates → pair-cogroup verify → CC
    canonicalize).  Rows-only driver check (the cosine candidate stage has
    no SQL twin); merge/canonical invariants pinned in pytest."""
    from oboyu_ray.stages import kg

    ents = q_kg_entities(sf_dir)[["entity_id", "name", "entity_type"]]
    return kg.edc_dedup_entities(ents)


def _kg_lexicon_sql() -> str:
    from oboyu_ray.stages.kg import DEFAULT_LEXICON

    return ", ".join(f"('{w}', '{t}')" for w, t in sorted(DEFAULT_LEXICON.items()))


def _kg_lexicon_words_sql() -> str:
    from oboyu_ray.stages.kg import DEFAULT_LEXICON

    return ", ".join(f"'{w}'" for w in sorted(DEFAULT_LEXICON))


def _sql_kg_entities() -> str:
    from oboyu_ray.stages.kg import ENTITY_CONFIDENCE, WORD_RE_SQL as KG_WORD_SQL
    from oboyu_ray.fixedpoint import micros as _micros

    return f"""
WITH lex(w, etype) AS (VALUES {_kg_lexicon_sql()}),
tok AS (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '{KG_WORD_SQL}')) AS w
    FROM documents
),
hits AS (SELECT t.doc_id, t.w, l.etype FROM tok t JOIN lex l ON l.w = t.w),
perdoc AS (
    SELECT w AS name, etype AS entity_type, doc_id, count(*)::BIGINT AS mentions
    FROM hits GROUP BY 1, 2, 3
)
SELECT md5(name || ':' || entity_type) AS entity_id,
       name, entity_type,
       sum(mentions)::BIGINT AS n_mentions,
       count(*)::BIGINT AS n_docs,
       {int(_micros(ENTITY_CONFIDENCE))}::BIGINT AS confidence_micros
FROM perdoc GROUP BY 1, 2, 3
"""


def q_kg_relations(sf_dir: str) -> pd.DataFrame:
    from oboyu_ray.stages import kg

    return _memo(
        sf_dir,
        "kg_relations",
        lambda: kg.kg_relations(rows=_kg_rows(sf_dir)).to_pandas(),
    ).copy()


def _sql_kg_relations() -> str:
    from oboyu_ray.stages.kg import (
        RELATION_CONFIDENCE,
        RELATION_TYPE,
        WORD_RE_SQL as KG_WORD_SQL,
    )
    from oboyu_ray.fixedpoint import micros as _micros

    return f"""
WITH lex(w, etype) AS (VALUES {_kg_lexicon_sql()}),
tok AS (
    SELECT doc_id, regexp_extract_all(lower(text), '{KG_WORD_SQL}') AS ws
    FROM documents
),
f AS (
    SELECT doc_id, list_filter(ws, w -> w IN ({_kg_lexicon_words_sql()})) AS hs FROM tok
),
adj AS (
    SELECT doc_id,
           unnest(list_distinct(list_filter(
               list_transform(range(1, len(hs)), i -> hs[i] || ':' || hs[i + 1]),
               p -> split_part(p, ':', 1) <> split_part(p, ':', 2)
           ))) AS pairkey
    FROM f WHERE len(hs) >= 2
)
SELECT split_part(pairkey, ':', 1) AS source_name,
       split_part(pairkey, ':', 2) AS target_name,
       '{RELATION_TYPE}' AS relation_type,
       count(*)::BIGINT AS n_docs,
       {int(_micros(RELATION_CONFIDENCE))}::BIGINT AS confidence_micros
FROM adj GROUP BY 1, 2
"""


GRAPHRAG_QUERIES = ["spark merge", "customer table scan", "vector window", "zzznohit"]


def q_graphrag_expand(sf_dir: str) -> pd.DataFrame:
    """GraphRAG query expansion over the extracted KG: per fixed query, the
    matched entities (query tokens that are KG entities) plus 1-hop
    neighbors over CO_OCCURS_WITH relations.  Output (query_id, entity,
    is_matched) — SQL-oracled (joins over the same kg tables)."""
    from oboyu_ray.stages.kg import expand_query_with_entities

    ents = q_kg_entities(sf_dir)
    rels = q_kg_relations(sf_dir)
    rows = []
    for qi, q in enumerate(GRAPHRAG_QUERIES):
        exp = expand_query_with_entities(q, ents, rels, max_entities=10**6, expand_depth=1)
        matched = set(exp["matched_entities"])
        for e in exp["expanded_entities"]:
            rows.append((qi, e, 1 if e in matched else 0))
    return pd.DataFrame(
        {
            "query_id": pd.array([r[0] for r in rows], dtype="int64"),
            "entity": pd.array([r[1] for r in rows], dtype=str),
            "is_matched": pd.array([r[2] for r in rows], dtype="int64"),
        }
    )


def _sql_graphrag_expand() -> str:
    from oboyu_ray.stages.kg import WORD_RE_SQL as KG_WORD_SQL

    qvals = ", ".join(
        f"({i}, '{q}')" for i, q in enumerate(GRAPHRAG_QUERIES)
    )
    kg_rel = _sql_kg_relations()
    kg_ent = _sql_kg_entities()
    return f"""
WITH qs(query_id, q) AS (VALUES {qvals}),
ents AS ({kg_ent}),
rels AS ({kg_rel}),
qtok AS (
    SELECT query_id, unnest(regexp_extract_all(lower(q), '{KG_WORD_SQL}')) AS w
    FROM qs
),
matched AS (
    SELECT DISTINCT q.query_id, e.name AS entity
    FROM qtok q JOIN ents e ON e.name = q.w
),
hop AS (
    SELECT DISTINCT m.query_id, r.target_name AS entity
    FROM matched m JOIN rels r ON r.source_name = m.entity
    UNION
    SELECT DISTINCT m.query_id, r.source_name AS entity
    FROM matched m JOIN rels r ON r.target_name = m.entity
),
allents AS (
    SELECT query_id, entity, 1 AS is_matched FROM matched
    UNION ALL
    SELECT h.query_id, h.entity, 0 AS is_matched
    FROM hop h
    WHERE NOT EXISTS (
        SELECT 1 FROM matched m WHERE m.query_id = h.query_id AND m.entity = h.entity
    )
)
SELECT query_id::BIGINT AS query_id, entity, is_matched::BIGINT AS is_matched
FROM allents
"""


# ---------------------------------------------------------------- multimodal

def q_multimodal_features(sf_dir: str) -> "ray.data.Dataset":
    # deterministic fake decode (real codec stubbed; see stages/multimodal.py)
    return multimodal.multimodal_features(_docs(sf_dir))


# ---------------------------------------------------------------- normalize (M2)

def q_text_normalize(sf_dir: str) -> "ray.data.Dataset":
    from oboyu_ray.functions.normalize import normalize_batch

    return _docs(sf_dir).map_batches(normalize_batch, batch_format="pyarrow")


def _sql_text_normalize() -> str:
    # oracle expresses the stdlib fallback chain (conditional zen→han width
    # conversion + line-ending standardization); only valid when the heavy
    # libraries are absent (true in this container) — see corpus_oracle_sql()
    fw = "".join(chr(c) for c in range(0xFF01, 0xFF5F)) + "　"
    hw = "".join(chr(c) for c in range(0x21, 0x7F)) + " "
    fw_sql = fw.replace("'", "''")
    hw_sql = hw.replace("'", "''")
    return rf"""
WITH w AS (
    SELECT doc_id, text,
           regexp_matches(text, '[０-９Ａ-Ｚａ-ｚ]') AS width_converted,
           CASE WHEN regexp_matches(text, '[０-９Ａ-Ｚａ-ｚ]')
                THEN translate(text, '{fw_sql}', '{hw_sql}')
                ELSE text END AS conv
    FROM documents
)
SELECT doc_id,
       regexp_replace(
           replace(replace(conv, chr(13) || chr(10), chr(10)), chr(13), chr(10)),
           '\n{{3,}}', chr(10) || chr(10), 'g') AS normalized,
       width_converted
FROM w
"""


# ---------------------------------------------------------------- filtered search (M14)

FILTER_LANG = "en"


def q_bm25_topk_filtered(sf_dir: str) -> pd.DataFrame:
    """BM25 top-k restricted to documents with lang = FILTER_LANG (SURVEY
    §2-M14 search-filter semantics: scores computed over the full-corpus
    statistics, the filter restricts the candidate set before ranking —
    matching the reference's WHERE-clause-on-results compilation,
    common/types/search_filters.py).  The lang column rides the same
    parquet read and is filtered INSIDE the scoring batch fn — no
    driver-side (doc_id, lang) materialization, and only per-batch local
    top-ks reach the driver."""
    from oboyu_ray.pipelines.bm25_batch import brute_force_topk, tokenize_queries
    from oboyu_ray.pipelines.entry_queries import BM25_QUERIES, CFG

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    queries = tokenize_queries(BM25_QUERIES, CFG)
    return brute_force_topk(
        docs, queries, k=TOPK, cfg=CFG, filter_col="lang", filter_value=FILTER_LANG
    )


def _sql_bm25_topk_filtered() -> str:
    from oboyu_ray.pipelines.bm25_batch import tokenize_queries
    from oboyu_ray.pipelines.entry_queries import BM25_QUERIES, CFG, SQL_POSTINGS_CTE

    tokenized = tokenize_queries(BM25_QUERIES, CFG)
    rows = []
    for qstr in BM25_QUERIES:
        for t in sorted(set(tokenized[qstr])):
            rows.append(f"('{qstr}', '{t}')")
    values = ", ".join(rows) if rows else "('__none__', '__none__')"
    k1, b = CFG.k1, CFG.b
    return f"""
WITH {SQL_POSTINGS_CTE},
qterms(query_id, term) AS (VALUES {values}),
gstats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
gstats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM gstats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
contrib AS (
    SELECT q.query_id, p.doc_id,
           (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - d.df + 0.5) / (d.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    JOIN dfreq d ON d.term = q.term
    CROSS JOIN gstats2 s
),
bscores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2),
filtered AS (
    SELECT s.* FROM bscores s JOIN documents dd ON dd.doc_id = s.doc_id
    WHERE dd.lang = '{FILTER_LANG}'
),
ranked AS (
    SELECT query_id, doc_id,
           CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY query_id
               ORDER BY CAST(floor(score * 1e6 + 0.5) AS BIGINT) DESC, doc_id ASC
           )::BIGINT AS rank
    FROM filtered
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {TOPK}
"""


# ------------------------------------------------- RM3 pseudo-relevance feedback

def q_bm25_rm3(sf_dir: str) -> pd.DataFrame:
    """RM3-style query expansion: BM25 feedback docs → integer-exact
    expansion-term weights → α-mixed re-scoring (pipelines/bm25_batch.
    rm3_topk).  Every step mirrors the SQL oracle bit-for-bit."""
    from oboyu_ray.pipelines.bm25_batch import rm3_topk, tokenize_queries
    from oboyu_ray.pipelines.entry_queries import BM25_QUERIES, CFG

    docs = _docs(sf_dir)
    queries = tokenize_queries(BM25_QUERIES, CFG)
    return rm3_topk(
        docs, queries, k=TOPK, cfg=CFG,
        source_path=f"{sf_dir}/documents.parquet",
    )


def _sql_bm25_rm3() -> str:
    from oboyu_ray.pipelines.bm25_batch import (
        RM3_ALPHA_MICROS,
        RM3_EXP_TERMS,
        RM3_FB_DOCS,
        tokenize_queries,
    )
    from oboyu_ray.pipelines.entry_queries import BM25_QUERIES, CFG, SQL_POSTINGS_CTE

    tokenized = tokenize_queries(BM25_QUERIES, CFG)
    rows = []
    for qstr in BM25_QUERIES:
        for t in sorted(set(tokenized[qstr])):
            rows.append(f"('{qstr}', '{t}')")
    values = ", ".join(rows) if rows else "('__none__', '__none__')"
    k1, b = CFG.k1, CFG.b
    alpha = RM3_ALPHA_MICROS
    return f"""
WITH {SQL_POSTINGS_CTE},
qterms(query_id, term) AS (VALUES {values}),
gstats AS (
    SELECT (SELECT count(*)::BIGINT FROM documents) AS n,
           (SELECT coalesce(sum(tf), 0)::BIGINT FROM postings) AS total_dl
),
gstats2 AS (SELECT n, total_dl::DOUBLE / n AS avgdl FROM gstats),
dfreq AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY term),
contrib AS (
    SELECT q.query_id, p.doc_id,
           (p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
             * ln((s.n - d.df + 0.5) / (d.df + 0.5)) AS c
    FROM qterms q
    JOIN postings_dl p ON p.term = q.term
    JOIN dfreq d ON d.term = q.term
    CROSS JOIN gstats2 s
),
om AS (
    SELECT query_id, doc_id,
           CAST(floor(sum(c) * 1e6 + 0.5) AS BIGINT) AS o
    FROM contrib GROUP BY 1, 2
),
fb AS (
    SELECT query_id, doc_id FROM om
    QUALIFY row_number() OVER (
        PARTITION BY query_id ORDER BY o DESC, doc_id ASC
    ) <= {RM3_FB_DOCS}
),
wexp AS (
    SELECT f.query_id, p.term,
           sum(CAST(floor(p.tf / p.dl * 1e6 + 0.5) AS BIGINT)) AS w
    FROM fb f JOIN postings_dl p ON p.doc_id = f.doc_id
    WHERE NOT EXISTS (
        SELECT 1 FROM qterms q
        WHERE q.query_id = f.query_id AND q.term = p.term
    )
    GROUP BY 1, 2
),
topexp AS (
    SELECT query_id, term, w FROM wexp
    QUALIFY row_number() OVER (
        PARTITION BY query_id ORDER BY w DESC, term ASC
    ) <= {RM3_EXP_TERMS}
),
econtrib AS (
    SELECT e.query_id, p.doc_id,
           (e.w * greatest(CAST(floor(
               ((p.tf * ({k1} + 1)) / (p.tf + {k1} * (1 - {b} + {b} * (p.dl / s.avgdl)))
                * ln((s.n - d.df + 0.5) / (d.df + 0.5))) * 1e6 + 0.5
           ) AS BIGINT), 0)) // 1000000 AS ec
    FROM topexp e
    JOIN postings_dl p ON p.term = e.term
    JOIN dfreq d ON d.term = e.term
    CROSS JOIN gstats2 s
),
escores AS (SELECT query_id, doc_id, sum(ec)::BIGINT AS e FROM econtrib GROUP BY 1, 2),
mixed AS (
    SELECT coalesce(o.query_id, e.query_id) AS query_id,
           coalesce(o.doc_id, e.doc_id) AS doc_id,
           coalesce(o.o, 0) * {alpha} + coalesce(e.e, 0) * {1_000_000 - alpha} AS rm3_score
    FROM om o FULL OUTER JOIN escores e
      ON o.query_id = e.query_id AND o.doc_id = e.doc_id
),
ranked AS (
    SELECT query_id, doc_id, rm3_score::BIGINT AS rm3_score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY rm3_score DESC, doc_id ASC
           )::BIGINT AS rank
    FROM mixed
)
SELECT query_id, doc_id, rm3_score, rank FROM ranked WHERE rank <= {TOPK}
"""


# ---------------------------------------------------------------- relational

def q_events_window(sf_dir: str) -> "ray.data.Dataset":
    from oboyu_ray.stages.relational import events_window_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    return events_window_agg(ev, unit="hour")


SQL_EVENTS_WINDOW = """
SELECT date_trunc('hour', ts) AS window_ts, event_type,
       count(*)::BIGINT AS n_events,
       sum(CAST(floor(value * 1e6 + 0.5) AS BIGINT))::BIGINT AS sum_value_micros
FROM events GROUP BY 1, 2
"""


def q_events_window_hopping(sf_dir: str) -> "ray.data.Dataset":
    from oboyu_ray.stages.relational import events_hopping_window_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    return events_hopping_window_agg(ev)


SQL_EVENTS_WINDOW_HOPPING = """
WITH e AS (
    SELECT epoch_us(ts)::BIGINT AS tu, event_type,
           CAST(floor(value * 1e6 + 0.5) AS BIGINT) AS vm
    FROM events
),
x AS (SELECT tu, event_type, vm, unnest(range(0, 4)) AS i FROM e),
w AS (
    SELECT make_timestamp((tu // 900000000) * 900000000 - i * 900000000) AS window_ts,
           event_type, vm
    FROM x
)
SELECT window_ts, event_type, count(*)::BIGINT AS n_events,
       sum(vm)::BIGINT AS sum_value_micros
FROM w GROUP BY 1, 2
"""


def q_orders_by_nation(sf_dir: str) -> "ray.data.Dataset":
    from oboyu_ray.stages.relational import orders_by_nation_broadcast

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    return orders_by_nation_broadcast(orders, customer)


SQL_ORDERS_BY_NATION = """
SELECT c.c_nationkey::BIGINT AS c_nationkey,
       count(*)::BIGINT AS n_orders,
       sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT))::BIGINT AS revenue_cents
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY 1
"""


def q_asof_join(sf_dir: str) -> "ray.data.Dataset":
    """Backward as-of join (event → user's latest order at or before the
    event timestamp; -1 sentinels when none) — the custom operator Ray
    Data lacks, as a bucketed cogroup.  SQL-oracled via LEFT JOIN
    LATERAL."""
    from oboyu_ray.stages.relational import asof_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    return asof_join(ev, orders)


SQL_ASOF_JOIN = """
SELECT e.event_id, e.user_id,
       coalesce(o.k, -1)::BIGINT AS o_orderkey,
       coalesce(o.cents, -1)::BIGINT AS price_cents
FROM events e LEFT JOIN LATERAL (
    SELECT o_orderkey AS k,
           CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
    FROM orders
    WHERE o_custkey = e.user_id AND o_orderdate <= e.ts
    ORDER BY o_orderdate DESC, o_orderkey DESC LIMIT 1
) o ON TRUE
"""


def q_next_purchase(sf_dir: str) -> "ray.data.Dataset":
    """Forward as-of self-join: each event's NEXT same-user purchase
    (strictly after in (ts, event_id)); the time-to-conversion feature."""
    from oboyu_ray.stages.relational import next_event_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return next_event_join(ev, match_type="purchase")


SQL_NEXT_PURCHASE = """
SELECT e.event_id, e.user_id,
       coalesce(p.id, -1)::BIGINT AS next_id,
       coalesce(p.gap, -1)::BIGINT AS gap_us
FROM events e LEFT JOIN LATERAL (
    SELECT p.event_id AS id, epoch_us(p.ts) - epoch_us(e.ts) AS gap
    FROM events p
    WHERE p.user_id = e.user_id AND p.event_type = 'purchase'
      AND (p.ts > e.ts OR (p.ts = e.ts AND p.event_id > e.event_id))
    ORDER BY p.ts ASC, p.event_id ASC LIMIT 1
) p ON TRUE
"""


def q_interval_join(sf_dir: str) -> "ray.data.Dataset":
    """Keyed range join (event → ALL of the user's orders inside a window
    reaching back into the orders era; both bounds bind, a strict subset
    of each user's orders) — the multi-match sibling of asof_join, same
    bucketed cogroup, range bounds via one merged lexsort.  SQL-oracled
    with a plain BETWEEN join."""
    from oboyu_ray.stages.relational import interval_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    return interval_join(ev, orders)


SQL_INTERVAL_JOIN = """
SELECT e.event_id, e.user_id, o.o_orderkey,
       CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT) AS price_cents
FROM events e JOIN orders o
  ON o.o_custkey = e.user_id
 AND o.o_orderdate BETWEEN e.ts - INTERVAL 10600 DAY AND e.ts - INTERVAL 9500 DAY
"""


def q_topk_per_group(sf_dir: str) -> "ray.data.Dataset":
    """Exact top-3 orders per customer by (price DESC, key ASC) — map-side
    partial top-k per group, then a group-bucketed reduce; the shuffle
    moves ≤ k rows per (group, batch).  SQL-oracled via row_number()."""
    from oboyu_ray.stages.relational import topk_per_group

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def cents(t: pa.Table) -> pa.Table:
        import numpy as np

        return pa.table(
            {
                "o_custkey": t.column("o_custkey").cast(pa.int64()),
                "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
                "price_cents": pa.array(
                    np.floor(t.column("o_totalprice").to_numpy() * 100 + 0.5).astype("int64")
                ),
            }
        )

    out = topk_per_group(
        orders.map_batches(cents, batch_format="pyarrow"),
        group_col="o_custkey",
        key_col="o_orderkey",
        val_col_cents="price_cents",
        k=3,
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "o_custkey": t.column("grp"),
                "o_orderkey": t.column("key"),
                "price_cents": t.column("val_cents"),
                "rank": t.column("rank"),
            }
        ),
        batch_format="pyarrow",
    )


SQL_TOPK_PER_GROUP = """
SELECT o_custkey, o_orderkey, price_cents, rank FROM (
    SELECT o_custkey::BIGINT AS o_custkey, o_orderkey::BIGINT AS o_orderkey,
           CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS price_cents,
           row_number() OVER (
               PARTITION BY o_custkey
               ORDER BY floor(o_totalprice * 100 + 0.5) DESC, o_orderkey
           )::BIGINT AS rank
    FROM orders
) WHERE rank <= 3
"""


HH_THRESHOLD_FRAC = 0.002


def q_heavy_hitters(sf_dir: str) -> "ray.data.Dataset":
    """Exact frequent terms over the documents word stream (count >= 0.2%
    of all tokens) via Misra-Gries candidates + an exact verification pass
    — no full token-frequency shuffle.  SQL-oracled with GROUP BY …
    HAVING."""
    import math

    from oboyu_ray.stages.sketch import heavy_hitters
    from oboyu_ray.stages.textstats import WORD_RE

    docs = _docs(sf_dir)

    def count_tokens(t: pa.Table) -> pa.Table:
        n = sum(
            len(WORD_RE.findall((x or "").lower()))
            for x in t.column("text").to_pylist()
        )
        return pa.table({"n": pa.array([n], type=pa.int64())})

    total = sum(
        int(b.column("n").to_numpy().sum())
        for b in docs.map_batches(count_tokens, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    )
    threshold = max(1, math.ceil(HH_THRESHOLD_FRAC * total))
    return heavy_hitters(docs, threshold=threshold)


SQL_HEAVY_HITTERS = rf"""
WITH toks AS (
    SELECT unnest(regexp_extract_all(lower(text), '{textstats.WORD_RE_SQL}')) AS token
    FROM documents
)
SELECT token, count(*)::BIGINT AS n_occurrences
FROM toks
GROUP BY token
HAVING count(*) >= greatest(1, CAST(ceil({HH_THRESHOLD_FRAC} * (SELECT count(*) FROM toks)) AS BIGINT))
"""


QUANTILE_QS = (0.01, 0.25, 0.5, 0.75, 0.99)


def q_price_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact discrete quantiles of o_totalprice via iterative histogram
    refinement — a handful of streaming passes, no global sort; values are
    actual column elements so they compare bit-exactly to quantile_disc."""
    from oboyu_ray.stages.quantiles import exact_quantiles

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    return exact_quantiles(orders, "o_totalprice", QUANTILE_QS)


SQL_PRICE_QUANTILES = "\nUNION ALL\n".join(
    f"SELECT CAST({int(round(q * 1e6))} AS BIGINT) AS q_micros, "
    f"quantile_disc(o_totalprice, {q}) AS value FROM orders"
    for q in QUANTILE_QS
)


GQ_QS = (0.25, 0.5, 0.9)


def q_grouped_quantiles(sf_dir: str) -> "ray.data.Dataset":
    """Exact per-group quantiles (l_extendedprice per l_linenumber) — the
    group-bucketed cogroup variant: one lexsort per bucket answers every
    group's every quantile by index arithmetic.  SQL-oracled with
    quantile_disc … GROUP BY."""
    from oboyu_ray.stages.quantiles import grouped_quantiles

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_linenumber", "l_extendedprice"]
    )
    return grouped_quantiles(li, "l_linenumber", "l_extendedprice", GQ_QS)


SQL_GROUPED_QUANTILES = "\nUNION ALL\n".join(
    f"SELECT l_linenumber::BIGINT AS l_linenumber, "
    f"CAST({int(round(q * 1e6))} AS BIGINT) AS q_micros, "
    f"quantile_disc(l_extendedprice, {q}) AS value FROM lineitem GROUP BY l_linenumber"
    for q in GQ_QS
)


def q_prefix_dups(sf_dir: str) -> "ray.data.Dataset":
    """Truncated-copy dedup: docs whose text is a prefix of another doc's
    (longer, or equal with a larger id — exact-dup runs keep one survivor).
    Global Ray Data sort + vectorized adjacent-row startswith; the only
    driver work is the O(blocks) boundary seam."""
    from oboyu_ray.stages.dedup import prefix_dups

    return prefix_dups(_docs(sf_dir))


SQL_PREFIX_DUPS = """
WITH w AS (
    SELECT doc_id, text,
           lead(text) OVER (ORDER BY text, doc_id) AS nxt
    FROM documents
)
SELECT doc_id FROM w WHERE nxt IS NOT NULL AND starts_with(nxt, text)
"""


def q_substring_dups(sf_dir: str) -> "ray.data.Dataset":
    """Copy-with-context dedup: docs whose text is a substring of a LONGER
    doc's text (≥ 23 chars — the winnowing guarantee bound, part of the
    operator's documented semantics), plus all-but-max-id of exact-dup
    runs.  Winnowed-fingerprint candidate join (EXACT — the contained doc's
    min-gram fp is provably selected by both sides), fp-bucketed pair
    cogroup, broadcast-filtered text attach, pair-bucketed `in` verify."""
    from oboyu_ray.stages.dedup import substring_dups

    return substring_dups(_docs(sf_dir))


# Same bound as oboyu_ray.stages.dedup.SUBSTR_MIN_LEN (w=16, win=8).
SQL_SUBSTRING_DUPS = """
SELECT DISTINCT a.doc_id
FROM documents a JOIN documents b ON a.doc_id <> b.doc_id
WHERE (length(a.text) >= 23 AND length(b.text) > length(a.text)
       AND contains(b.text, a.text))
   OR (b.text = a.text AND b.doc_id > a.doc_id)
"""


def q_user_running_totals(sf_dir: str) -> "ray.data.Dataset":
    """Per-user running total + 3-row moving sum of event value (integer
    micros), ordered by (ts, event_id) within user.  ONE hash-bucketed
    cogroup on user_id — no global sort; per-bucket vectorized cumsum."""
    from oboyu_ray.stages.window import keyed_window_scan

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
    )
    return keyed_window_scan(ev, "user_id", "ts", "event_id", "value", window=3)


SQL_USER_RUNNING_TOTALS = """
WITH e AS (
    SELECT event_id AS id, user_id AS key, ts,
           CAST(floor(value * 1e6 + 0.5) AS BIGINT) AS vm
    FROM events
)
SELECT id, key,
       sum(vm) OVER (PARTITION BY key ORDER BY ts, id
                     ROWS UNBOUNDED PRECEDING)::BIGINT AS cum_micros,
       sum(vm) OVER (PARTITION BY key ORDER BY ts, id
                     ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)::BIGINT AS mv_micros
FROM e
"""


def q_latest_event_per_user(sf_dir: str) -> "ray.data.Dataset":
    """Current-state-per-user selection: latest event row by (ts DESC,
    event_id DESC).  Map-side partial argmax per batch → bucketed reduce;
    the shuffle moves ≤ one row per (user, batch)."""
    from oboyu_ray.stages.window import last_row_per_key

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return last_row_per_key(ev, "user_id", "ts", "event_id", ["event_type"])


SQL_LATEST_EVENT_PER_USER = """
SELECT user_id AS key, event_id AS id, epoch_us(ts)::BIGINT AS ts_i, event_type
FROM events
QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
"""


def q_rolling_active_users(sf_dir: str) -> "ray.data.Dataset":
    """Exact 7-day rolling distinct-user count per active day, via per-user
    coverage-interval merging + boundary deltas (ONE user-bucketed shuffle,
    no window_days× replication)."""
    from oboyu_ray.stages.window import rolling_active_users

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return rolling_active_users(ev, window_days=7)


SQL_ROLLING_ACTIVE_USERS = """
WITH d AS (
    SELECT DISTINCT epoch_us(date_trunc('day', ts))//86400000000 AS day_i, user_id
    FROM events
), days AS (SELECT DISTINCT day_i FROM d)
SELECT days.day_i AS day_i, count(DISTINCT d.user_id)::BIGINT AS active_users
FROM days JOIN d ON d.day_i BETWEEN days.day_i - 6 AND days.day_i
GROUP BY days.day_i
"""


def q_cohort_retention(sf_dir: str) -> "ray.data.Dataset":
    """Weekly cohort retention matrix (cohort = Monday week of first event;
    n distinct users active at each week offset)."""
    from oboyu_ray.stages.window import cohort_retention

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return cohort_retention(ev)


SQL_COHORT_RETENTION = """
WITH uw AS (
    SELECT DISTINCT user_id,
           epoch_us(date_trunc('week', ts))//86400000000 AS wd
    FROM events
), c AS (SELECT user_id, min(wd) AS cohort FROM uw GROUP BY user_id)
SELECT c.cohort AS cohort_week, (uw.wd - c.cohort)//7 AS week_offset,
       count(*)::BIGINT AS n_users
FROM uw JOIN c ON uw.user_id = c.user_id
GROUP BY 1, 2
"""


def q_doc_length_rank(sf_dir: str) -> "ray.data.Dataset":
    """Exact global row_number() by (n_chars, doc_id): range-partitioned
    sort + O(blocks) driver offset seam (stages/window.global_row_number)."""
    from oboyu_ray.stages.window import global_row_number

    def lens(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return pa.table(
            {
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "n_chars": _pc.utf8_length(t.column("text")).cast(pa.int64()),
            }
        )

    docs = _docs(sf_dir).map_batches(lens, batch_format="pyarrow")
    return global_row_number(
        docs, ["n_chars", "doc_id"], ["doc_id", "n_chars"], rank_col="rnk"
    )


SQL_DOC_LENGTH_RANK = """
SELECT doc_id, length(text)::BIGINT AS n_chars,
       row_number() OVER (ORDER BY length(text), doc_id)::BIGINT AS rnk
FROM documents
"""


def q_session_paths(sf_dir: str) -> "ray.data.Dataset":
    """Top-20 in-session event-type trigram paths (path mining): user-
    bucketed cogroup, factorized combo ids, bounded global reduce."""
    from oboyu_ray.stages.sessionize import session_paths

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return session_paths(ev)


SQL_SESSION_PATHS = """
WITH w AS (
    SELECT user_id, ts, event_id, event_type,
           CASE WHEN lag(ts) OVER s IS NULL
                  OR ts - lag(ts) OVER s > INTERVAL 30 MINUTE
                THEN 1 ELSE 0 END AS new_s
    FROM events
    WINDOW s AS (PARTITION BY user_id ORDER BY ts, event_id)
),
x AS (
    SELECT user_id, ts, event_id, event_type,
           sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                            ROWS UNBOUNDED PRECEDING) AS sid
    FROM w
),
t AS (
    SELECT event_type || '>' || lead(event_type, 1) OVER p
                      || '>' || lead(event_type, 2) OVER p AS path
    FROM x WINDOW p AS (PARTITION BY user_id, sid ORDER BY ts, event_id)
),
agg AS (
    SELECT path, count(*)::BIGINT AS n FROM t WHERE path IS NOT NULL GROUP BY 1
)
SELECT path, n, row_number() OVER (ORDER BY n DESC, path ASC)::BIGINT AS rank
FROM agg
ORDER BY rank LIMIT 20
"""


def _q_corpus_build_summary(sf_dir: str) -> pd.DataFrame:
    """Flagship composed data pipeline: clean → near-dup representative
    thinning → token-budget packing → resumable sharded export
    (pipelines/corpus_build.py).  Rows-only (side-effecting composition of
    individually-oracled stages); determinism + resume pinned in pytest."""
    from oboyu_ray.pipelines.corpus_build import corpus_build_summary

    return corpus_build_summary(sf_dir)


def q_events_validation(sf_dir: str) -> "ray.data.Dataset":
    """Data-quality gate over events: null/range/format rules in ONE
    streaming pass + a bucketed distinct reduce for event_id uniqueness
    (stages/validate.py).  Always #rules rows — zero violations included."""
    from oboyu_ray.stages.validate import (
        empty_string_rule,
        negative_rule,
        null_rule,
        rules_columns,
        validation_report,
    )

    rules = [
        null_rule("user_id"),
        null_rule("ts"),
        negative_rule("value"),
        empty_string_rule("event_type"),
    ]
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=rules_columns(rules, unique_col="event_id"),
    )
    return validation_report(ev, rules, unique_col="event_id")


SQL_EVENTS_VALIDATION = """
SELECT 'null_user_id' AS rule,
       count(*) FILTER (WHERE user_id IS NULL)::BIGINT AS n_violations FROM events
UNION ALL
SELECT 'null_ts', count(*) FILTER (WHERE ts IS NULL)::BIGINT FROM events
UNION ALL
SELECT 'negative_value', count(*) FILTER (WHERE value < 0)::BIGINT FROM events
UNION ALL
SELECT 'empty_event_type',
       count(*) FILTER (WHERE event_type IS NULL OR event_type = '')::BIGINT FROM events
UNION ALL
SELECT 'duplicate_event_id',
       (count(*) - count(DISTINCT event_id))::BIGINT FROM events
"""


TOP_TERMS_K = 5


def q_top_terms_per_lang(sf_dir: str) -> "ray.data.Dataset":
    """Top-K most frequent words per language — the per-stratum vocabulary
    report of a corpus audit.  Composition: per-batch partial (lang, word)
    counts → ONE distributed count groupby → string-keyed exact top-k per
    group (map-side partial top-k, group-bucketed reduce)."""
    from oboyu_ray.stages.relational import topk_per_group_str
    from oboyu_ray.stages.textstats import WORD_RE

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang"]
    )

    def partial(t: pa.Table) -> pa.Table:
        langs = t.column("lang").to_pylist()
        texts = t.column("text").to_pylist()
        L: list = []
        W: list = []
        for lang, txt in zip(langs, texts):
            ws = WORD_RE.findall((txt or "").lower())
            L.extend([lang] * len(ws))
            W.extend(ws)
        tt = pa.table(
            {
                "lang": pa.array(L, type=pa.string()),
                "word": pa.array(W, type=pa.string()),
                "one": pa.array(np.ones(len(W), dtype=np.int64)),
            }
        )
        g = tt.group_by(["lang", "word"]).aggregate([("one", "sum")])
        return pa.table(
            {
                "lang": g.column("lang"),
                "word": g.column("word"),
                "n": g.column("one_sum").cast(pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": t.column("lang"),
                "word": t.column("word"),
                "n": t.column("sum(n)").cast(pa.int64()),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "word"])
        .sum("n")
        .map_batches(finish, batch_format="pyarrow")
    )
    return topk_per_group_str(counts, "lang", "word", "n", TOP_TERMS_K)


SQL_TOP_TERMS_PER_LANG = rf"""
WITH w AS (
    SELECT lang, unnest(regexp_extract_all(lower(text), '{textstats.WORD_RE_SQL}')) AS word
    FROM documents
),
c AS (SELECT lang, word, count(*)::BIGINT AS n FROM w GROUP BY 1, 2),
r AS (
    SELECT lang, word, n,
           row_number() OVER (PARTITION BY lang ORDER BY n DESC, word ASC) AS rnk
    FROM c
)
SELECT lang, word, n, rnk::BIGINT AS "rank" FROM r WHERE rnk <= {TOP_TERMS_K}
"""


def q_value_outliers(sf_dir: str) -> "ray.data.Dataset":
    """Per-group IQR outlier detection (Tukey fences): events whose value
    falls outside [q1 - 1.5*IQR, q3 + 1.5*IQR] for their event_type.  Exact
    per-group quantiles come from the bucketed-lexsort operator; the tiny
    (group, fence) table broadcasts via ray.put and the corpus side is an
    embarrassingly-parallel filter.  All arithmetic integer micros — the
    1.5 factor is the exact rational (3*iqr)//2 both engines compute
    identically."""
    import ray as _ray

    from oboyu_ray.fixedpoint import micros
    from oboyu_ray.stages.quantiles import grouped_quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )

    def to_vm(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "event_type": t.column("event_type"),
                "vm": pa.array(
                    micros(t.column("value").to_numpy(zero_copy_only=False)),
                    type=pa.int64(),
                ),
            }
        )

    vms = ev.map_batches(to_vm, batch_format="pyarrow")
    qdf = grouped_quantiles(vms, "event_type", "vm", [0.25, 0.75]).to_pandas()
    fences: dict = {}
    for etype, grp in qdf.groupby("event_type"):
        q = dict(zip(grp["q_micros"], grp["value"].astype(np.int64)))
        q1, q3 = q[250_000], q[750_000]
        iqr = q3 - q1
        fences[etype] = (q1 - (3 * iqr) // 2, q3 + (3 * iqr) // 2)
    ref = _ray.put(fences)

    def flag(t: pa.Table) -> pa.Table:
        f = _ray.get(ref)
        types = t.column("event_type").to_pylist()
        vm = t.column("vm").to_numpy(zero_copy_only=False)
        lo = np.array([f[x][0] for x in types], dtype=np.int64)
        hi = np.array([f[x][1] for x in types], dtype=np.int64)
        keep = pa.array((vm < lo) | (vm > hi))
        out = t.filter(keep)
        return pa.table(
            {
                "event_id": out.column("event_id"),
                "event_type": out.column("event_type"),
                "value_micros": out.column("vm"),
            }
        )

    return vms.map_batches(flag, batch_format="pyarrow")


SQL_VALUE_OUTLIERS = """
WITH v AS (
    SELECT event_id, event_type,
           CAST(floor(value * 1e6 + 0.5) AS BIGINT) AS vm
    FROM events
),
q AS (
    SELECT event_type,
           quantile_disc(vm, 0.25)::BIGINT AS q1,
           quantile_disc(vm, 0.75)::BIGINT AS q3
    FROM v GROUP BY 1
)
SELECT v.event_id, v.event_type, v.vm AS value_micros
FROM v JOIN q USING (event_type)
WHERE v.vm < q.q1 - (3 * (q.q3 - q.q1)) // 2
   OR v.vm > q.q3 + (3 * (q.q3 - q.q1)) // 2
"""


def q_doc_embeddings(sf_dir: str) -> "ray.data.Dataset":
    """Actor-pool embedding stage over documents (deterministic fake model;
    real model stubbed — see functions/embed.py).  Emits hash-friendly
    per-vector summaries (the raw list<float> column is the API result of
    ``embed_documents``; a list column can't be value-sorted by the driver's
    compare).  Rows-only check; retrieval properties pinned in pytest."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from oboyu_ray.fixedpoint import micros
    from oboyu_ray.functions.embed import embed_documents

    from oboyu_ray.functions.arrowvec import vec_matrix

    def summarize(batch: pa.Table) -> pa.Table:
        M = vec_matrix(batch.column("embedding"))
        M32 = np.ascontiguousarray(M, dtype=np.float32)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "dim": pa.array(np.full(len(M), M.shape[1], dtype=np.int64)),
                "l2_micros": pa.array(
                    micros(np.linalg.norm(M, axis=1)), type=pa.int64()
                ),
                "vec_md5": pa.array(
                    [hashlib.md5(row.tobytes()).hexdigest() for row in M32],
                    type=pa.string(),
                ),
            }
        )

    return embed_documents(_docs(sf_dir)).map_batches(summarize, batch_format="pyarrow")


# ---------------------------------------------------------------- flagship engine

ENGINE_QUERIES = [
    "検索 エンジン",
    "分散 処理 高速",
    "index partition shuffle",
    "token 頻度 統計",
    "です",  # hot particle-like term → negative idf
]


def q_transcript_engine_topk(sf_dir: str) -> pd.DataFrame:
    """The flagship pipeline end-to-end under the driver contract: synthesize
    the deterministic transcript corpus (size keyed to the sf tier), build
    the full compressed index (conv_map → ingest → tokenize → vocabulary →
    delta+varint blocks, checkpointed into /tmp and reused across calls),
    query via the shard actor pool with block-max pruning, return the exact
    top-k rows.  Rows-only driver check (no SQL tokenizer); rank-identity to
    the reference BM25Indexer is pinned by tests/test_build_pipeline.py."""
    import os

    from oboyu_ray.config import DEFAULT_BUILD_CONFIG
    from oboyu_ray.pipelines.build_index import build_index
    from oboyu_ray.pipelines.query import QueryEngine
    from oboyu_ray.sources.transcripts import write_synth_transcripts_parallel

    sf = os.path.basename(sf_dir.rstrip("/")).replace("sf", "") or "0.001"
    n_convs = max(int(float(sf) * 200_000), 200)  # sf0.01 → 2000 convs
    base = f"/tmp/oboyu_engine_q/{n_convs}"
    files = write_synth_transcripts_parallel(
        f"{base}/transcripts", n_convs, seed=42, convs_per_file=max(n_convs // 8, 50)
    )
    index_dir = f"{base}/index"
    build_index(files, index_dir, DEFAULT_BUILD_CONFIG, files_per_part=1)

    # 4 shards, or one per CPU on a smaller cluster (a pool larger than the
    # cluster's CPUs cannot be scheduled)
    engine = QueryEngine(index_dir, num_shards=min(4, int(ray.cluster_resources()["CPU"])))
    frames = []
    for i, q in enumerate(ENGINE_QUERIES):
        got = engine.search(q, k=10)
        from oboyu_ray.fixedpoint import micros

        got = got.assign(
            query_id=i, score_micros=micros(got["score"].to_numpy())
        )
        got["rank"] = range(1, len(got) + 1)
        frames.append(got[["query_id", "doc_id", "score_micros", "rank"]])
    engine.close()
    out = pd.concat(frames, ignore_index=True)
    return out.astype(
        {"query_id": "int64", "doc_id": "string", "score_micros": "int64", "rank": "int64"}
    )


# -------------------------------------------------- training-data preparation

from oboyu_ray.stages import trainprep  # noqa: E402


def q_pii_redact(sf_dir: str) -> "ray.data.Dataset":
    """PII/pattern scrubbing over the events props column: ordered vectorized
    RE2 rules (emails → <EMAIL>, digit runs → <NUM>) + per-row redaction
    counts.  Stateless map_batches — streams at any scale."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "props"])
    return ds.map_batches(trainprep.redact_batch, batch_format="pyarrow")


_EMAIL_SQL = r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z][a-z]+"

SQL_PII_REDACT = rf"""
SELECT event_id,
       regexp_replace(regexp_replace(props, '{_EMAIL_SQL}', '<EMAIL>', 'g'),
                      '[0-9]+', '<NUM>', 'g') AS props_redacted,
       (len(regexp_extract_all(props, '{_EMAIL_SQL}'))
        + len(regexp_extract_all(
              regexp_replace(props, '{_EMAIL_SQL}', '<EMAIL>', 'g'),
              '[0-9]+')))::BIGINT AS n_redacted
FROM events
"""


def q_text_repetition(sf_dir: str) -> "ray.data.Dataset":
    """Gopher-style per-doc repetition signals (dup-token ratio, top-token
    ratio, repetitive flag), fully vectorized per batch."""
    return _docs(sf_dir).map_batches(trainprep.repetition_batch, batch_format="pyarrow")


SQL_TEXT_REPETITION = rf"""
WITH d AS (
    SELECT doc_id, regexp_extract_all(lower(text), '{textstats.WORD_RE_SQL}') AS w
    FROM documents
),
t AS (SELECT doc_id, unnest(w) AS word FROM d),
c AS (SELECT doc_id, word, count(*) AS n FROM t GROUP BY 1, 2),
s AS (SELECT doc_id, sum(n) AS nw, count(*) AS nd, max(n) AS mx FROM c GROUP BY 1)
SELECT d.doc_id,
       coalesce(nw, 0)::BIGINT AS n_words,
       coalesce(nd, 0)::BIGINT AS n_distinct,
       CAST(floor(CASE WHEN nw > 0 THEN (nw - nd)::DOUBLE / nw ELSE 0.0 END * 1e6 + 0.5)
            AS BIGINT) AS dup_ratio_micros,
       CAST(floor(CASE WHEN nw > 0 THEN mx::DOUBLE / nw ELSE 0.0 END * 1e6 + 0.5)
            AS BIGINT) AS top_ratio_micros,
       coalesce(mx::DOUBLE / nw > {trainprep.REP_TOP_TAU}, FALSE) AS repetitive
FROM d LEFT JOIN s USING (doc_id)
"""


def q_boilerplate_ngrams(sf_dir: str) -> "ray.data.Dataset":
    """Shared-boilerplate miner: word trigrams in ≥ BOILERPLATE_MIN_DOCS
    distinct docs (map-side partial distinct-doc counts → one groupby-sum)."""
    return trainprep.boilerplate_ngrams(_docs(sf_dir))


# shares the trigram CTE shape with SQL_DEDUP_NGRAM_JACCARD (same word regex,
# same list_transform construction) — the constructions must stay in lockstep
SQL_TRIGRAMS_CTE = rf"""
d AS (
    SELECT doc_id, regexp_extract_all(lower(text), '{textstats.WORD_RE_SQL}') AS w
    FROM documents
),
sh AS (
    SELECT doc_id,
           unnest(list_distinct(list_transform(range(1, len(w) - 1),
                  i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))) AS tri
    FROM d WHERE len(w) >= 3
)"""

SQL_BOILERPLATE_NGRAMS = rf"""
WITH {SQL_TRIGRAMS_CTE}
SELECT tri AS ngram, count(*)::BIGINT AS n_docs
FROM sh GROUP BY 1
HAVING count(*) >= {trainprep.BOILERPLATE_MIN_DOCS}
"""


def q_decontaminate(sf_dir: str) -> "ray.data.Dataset":
    """Benchmark decontamination: flag training docs sharing ≥1 word-trigram
    with the held-out set (doc_id % BENCH_MOD == 0 plays the eval suite).
    Benchmark shingle hashes are broadcast once via ray.put; the corpus side
    is an embarrassingly-parallel membership scan."""
    import ray as _ray

    docs = _docs(sf_dir)
    bench = trainprep.benchmark_shingle_set(docs)
    return trainprep.decontaminate(docs, _ray.put(bench))


SQL_DECONTAMINATE = rf"""
WITH {SQL_TRIGRAMS_CTE},
b AS (SELECT DISTINCT tri FROM sh WHERE doc_id % {trainprep.BENCH_MOD} = 0)
SELECT s.doc_id, count(*)::BIGINT AS n_hits
FROM sh s JOIN b USING (tri)
WHERE s.doc_id % {trainprep.BENCH_MOD} <> 0
GROUP BY 1
"""


def q_decontaminate_bloom(sf_dir: str) -> "ray.data.Dataset":
    """Bloom-filter decontamination — the scale path when the benchmark
    n-gram set can't broadcast as raw hashes: a fixed 128 KiB bit array
    stands in, flagged set provably a superset of the exact operator's
    (false positives only over-redact).  Rows-only: pytest pins superset +
    FPR; the exact variant carries the SQL oracle."""
    import ray as _ray

    docs = _docs(sf_dir)
    words = trainprep.benchmark_bloom(docs)
    return trainprep.decontaminate_bloom(docs, _ray.put(words))


def q_join_revenue(sf_dir: str) -> "ray.data.Dataset":
    """Large-large shuffle join: lineitem ⋈ orders on orderkey (neither side
    broadcastable at target scale), then revenue by (priority, returnflag).
    Per-row revenue is fixed-pointed to micros BEFORE the join so the final
    sum is associative; post-join partial aggregation inside map_batches
    shrinks the rows the final groupby shuffles."""
    from oboyu_ray.fixedpoint import micros
    from oboyu_ray.stages.relational import hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    )

    def rev(b: pa.Table) -> pa.Table:
        # per-row fixed-point revenue, then combine-before-shuffle: in-batch
        # group_by (l_orderkey, l_returnflag) shrinks the join's left side
        # before any row leaves the task (sum of int64 micros is associative,
        # so pre-combining cannot change the final aggregate)
        price = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = b.column("l_discount").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_returnflag": b.column("l_returnflag"),
                "rev_micros": pa.array(micros(price * (1.0 - disc)), type=pa.int64()),
                "one": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            }
        )
        g = t.group_by(["l_orderkey", "l_returnflag"]).aggregate(
            [("rev_micros", "sum"), ("one", "sum")]
        )
        return pa.table(
            {
                "l_orderkey": g.column("l_orderkey"),
                "l_returnflag": g.column("l_returnflag"),
                "rev_micros": g.column("rev_micros_sum"),
                "pre_items": g.column("one_sum"),
            }
        )

    joined = hash_join(li.map_batches(rev, batch_format="pyarrow"), orders,
                       "l_orderkey", "o_orderkey")

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_orderpriority": b.column("o_orderpriority"),
                "l_returnflag": b.column("l_returnflag"),
                "rev_micros": b.column("rev_micros"),
                "n_items": b.column("pre_items"),
            }
        )
        g = t.group_by(["o_orderpriority", "l_returnflag"]).aggregate(
            [("rev_micros", "sum"), ("n_items", "sum")]
        )
        return pa.table(
            {
                "o_orderpriority": g.column("o_orderpriority"),
                "l_returnflag": g.column("l_returnflag"),
                "rev_micros": g.column("rev_micros_sum"),
                "n_items": g.column("n_items_sum"),
            }
        )

    # final reduce: the aggregate key space is a bounded constant
    # (|priorities| × |returnflags| = 15), so per-bucket partials fold in
    # this process instead of paying a second all-to-all sort-shuffle for a
    # 15-row result
    parts = [
        b.to_pandas()
        for b in joined.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ]
    out = (
        pd.concat(parts, ignore_index=True)
        .groupby(["o_orderpriority", "l_returnflag"], as_index=False)[
            ["rev_micros", "n_items"]
        ]
        .sum()
        .rename(columns={"rev_micros": "revenue_micros"})
    )
    return out.astype({"revenue_micros": "int64", "n_items": "int64"})


SQL_JOIN_REVENUE = """
SELECT o_orderpriority, l_returnflag,
       sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 1e6 + 0.5) AS BIGINT))::BIGINT
           AS revenue_micros,
       count(*)::BIGINT AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1, 2
"""


def q_revenue_rollup(sf_dir: str) -> "ray.data.Dataset":
    """GROUP BY ROLLUP in one distributed pass: order counts + revenue at
    (status, priority), per-status subtotals, and the grand total.  Revenue
    fixed-pointed to micros per row so every partial sum is associative."""
    from oboyu_ray.fixedpoint import micros
    from oboyu_ray.stages.relational import rollup_sum

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
    )

    def fix(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderstatus": t.column("o_orderstatus"),
                "o_orderpriority": t.column("o_orderpriority"),
                "price_micros": pa.array(
                    micros(t.column("o_totalprice").to_numpy(zero_copy_only=False)),
                    type=pa.int64(),
                ),
            }
        )

    return rollup_sum(
        orders.map_batches(fix, batch_format="pyarrow"),
        keys=["o_orderstatus", "o_orderpriority"],
        value_col="price_micros",
        n_name="n_orders",
        sum_name="revenue_micros",
    )


SQL_REVENUE_ROLLUP = """
SELECT COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
       COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
       count(*)::BIGINT AS n_orders,
       sum(CAST(floor(o_totalprice * 1e6 + 0.5) AS BIGINT))::BIGINT AS revenue_micros
FROM orders
GROUP BY ROLLUP (o_orderstatus, o_orderpriority)
"""


def q_corpus_profile(sf_dir: str) -> "ray.data.Dataset":
    """Per-source corpus mixing report (doc count, language diversity, mean
    length) via two-phase partial aggregation."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang", "n_chars"]
    )
    return trainprep.corpus_profile(ds)


SQL_CORPUS_PROFILE = """
SELECT source,
       count(*)::BIGINT AS n_docs,
       count(DISTINCT lang)::BIGINT AS n_langs,
       CAST(floor(sum(n_chars)::DOUBLE / count(*) * 1e6 + 0.5) AS BIGINT)
           AS mean_chars_micros
FROM documents GROUP BY 1
"""


def q_clean_corpus(sf_dir: str) -> "ray.data.Dataset":
    """End-to-end training-prep hygiene pass: quality + repetition +
    decontamination gates in one text pass, then exact-dup
    canonicalization.  One row per kept canonical doc."""
    import ray as _ray

    docs = _docs(sf_dir)
    bench = trainprep.benchmark_shingle_set(docs)
    return trainprep.clean_corpus(docs, _ray.put(bench))


SQL_CLEAN_CORPUS = rf"""
WITH {SQL_TRIGRAMS_CTE},
contaminated AS (
    SELECT DISTINCT s.doc_id FROM sh s
    JOIN (SELECT DISTINCT tri FROM sh WHERE doc_id % {trainprep.BENCH_MOD} = 0) b
      USING (tri)
),
q AS (
    SELECT doc_id,
           CAST(floor((0.5 * (least(length(text), 500) / 500.0)
               + 0.5 * (1.0 - least(
                   CASE WHEN len(w) > 0
                        THEN len(list_filter(w, x -> x IN ({_QSW})))::DOUBLE / len(w)
                        ELSE 0.0 END, 0.5))) * 1e6 + 0.5) AS BIGINT) AS quality_micros,
           coalesce((SELECT max(cnt) FROM (
               SELECT count(*) AS cnt FROM unnest(w) AS u(word) GROUP BY word
           )), 0)::DOUBLE / nullif(len(w), 0) AS top_ratio
    FROM (SELECT doc_id, text, regexp_extract_all(lower(text), '{textstats.WORD_RE_SQL}') AS w
          FROM documents)
),
gated AS (
    SELECT d.doc_id, d.text
    FROM documents d JOIN q USING (doc_id)
    WHERE q.quality_micros >= {trainprep.QUALITY_TAU_MICROS}
      AND NOT coalesce(q.top_ratio > {trainprep.REP_TOP_TAU}, FALSE)
      AND d.doc_id % {trainprep.BENCH_MOD} <> 0
      AND d.doc_id NOT IN (SELECT doc_id FROM contaminated)
)
SELECT min(doc_id) AS doc_id, count(*)::BIGINT AS n_dups
FROM gated
GROUP BY md5(trim(regexp_replace(lower(text), '[ \t\n\r\f\v]+', ' ', 'g'), ' '))
"""


def q_dedup_incremental(sf_dir: str) -> "ray.data.Dataset":
    """Incremental dedup against a persisted fingerprint store: the
    hash-sampled subset plays the already-ingested corpus (store built once
    per input signature under /tmp), the full table plays the new drop;
    docs whose fingerprint exists in the store are dropped, survivors
    canonicalized within the drop."""
    import os

    from oboyu_ray.stages.dedup import build_fingerprint_store, dedup_against_store

    def build_store() -> str:
        st = os.stat(f"{sf_dir}/documents.parquet")
        store = f"/tmp/oboyu_fpstore/{st.st_size}_{st.st_mtime_ns}"
        if not os.path.isdir(store):
            seen = _docs(sf_dir).map_batches(
                lambda b: textstats.sample_by_hash(b, threshold_hex=SAMPLE_THRESHOLD_HEX),
                batch_format="pyarrow",
            )
            build_fingerprint_store(seen, store + ".tmp")
            os.replace(store + ".tmp", store)
        return store

    store = _memo(sf_dir, "fp_store", build_store)
    return dedup_against_store(_docs(sf_dir), store)


SQL_DEDUP_INCREMENTAL = f"""
WITH norm AS (
    SELECT doc_id,
           md5(trim(regexp_replace(lower(text), '[ \\t\\n\\r\\f\\v]+', ' ', 'g'), ' ')) AS key
    FROM documents
),
store AS (
    SELECT DISTINCT key FROM norm
    WHERE md5(CAST(doc_id AS VARCHAR)) < '{SAMPLE_THRESHOLD_HEX}'
),
surv AS (
    SELECT n.doc_id, n.key FROM norm n
    LEFT JOIN store s USING (key) WHERE s.key IS NULL
)
SELECT key, min(doc_id) AS doc_id, count(*)::BIGINT AS n_dups
FROM surv GROUP BY 1
"""


def q_pack_sequences(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic sequence packing: docs → fixed token-budget bins under
    a pseudo-random global order, via a two-phase distributed prefix scan
    (per-bucket totals → driver offsets → broadcast)."""
    return trainprep.pack_sequences(_docs(sf_dir))


SQL_PACK_SEQUENCES = rf"""
WITH t AS (
    SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS key,
           len(regexp_extract_all(lower(text), '{textstats.WORD_RE_SQL}'))::BIGINT AS n
    FROM documents
)
SELECT doc_id, n AS n_words,
       (coalesce(sum(n) OVER (ORDER BY key, doc_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
        // {trainprep.PACK_BUDGET})::BIGINT AS bin
FROM t
"""


def q_token_counts_bpe(sf_dir: str) -> "ray.data.Dataset":
    """BPE-ish pre-tokenizer counts + chars-per-token compression proxy
    (the token-budget signal a training pipeline costs data with)."""
    return _docs(sf_dir).map_batches(
        textstats.bpe_token_counts_batch, batch_format="pyarrow"
    )


SQL_TOKEN_COUNTS_BPE = rf"""
WITH b AS (
    SELECT doc_id,
           length(lower(text))::BIGINT AS n_chars,
           len(regexp_extract_all(lower(text), '{textstats.BPE_RE_SQL}'))::BIGINT AS n
    FROM documents
)
SELECT doc_id, n AS n_bpe_tokens,
       CASE WHEN n > 0
            THEN CAST(floor(n_chars::DOUBLE / n * 1e6 + 0.5) AS BIGINT)
            ELSE 0 END AS chars_per_token_micros
FROM b
"""


def q_price_histogram(sf_dir: str) -> pd.DataFrame:
    """32-bin value histogram of lineitem prices: exact min/max fold →
    broadcast edges → bounded bin-count fold (identical double binning
    expression on both engines)."""
    from oboyu_ray.stages.quantiles import value_histogram

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    return value_histogram(ds, "l_extendedprice")


SQL_PRICE_HISTOGRAM = """
WITH mm AS (
    SELECT min(l_extendedprice) AS mn, max(l_extendedprice) AS mx FROM lineitem
)
SELECT least(floor((l_extendedprice - mn) / ((mx - mn) / 32.0)), 31)::BIGINT AS bin,
       count(*)::BIGINT AS n
FROM lineitem, mm
GROUP BY 1
"""


def q_stratified_topk_sample(sf_dir: str) -> "ray.data.Dataset":
    """Fixed-size per-stratum sample: exactly k=20 docs per language by
    deterministic md5 order (map-side partial top-k, bounded shuffle)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    return trainprep.stratified_topk_sample(ds)


SQL_STRATIFIED_TOPK = f"""
WITH r AS (
    SELECT lang, doc_id,
           row_number() OVER (PARTITION BY lang
               ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
    FROM documents
)
SELECT lang, doc_id FROM r WHERE rn <= {trainprep.STRAT_TOPK}
"""


def q_collocations(sf_dir: str) -> "ray.data.Dataset":
    """Collocation mining: PMI of adjacent word pairs (count-thresholded),
    composed from two distributed count aggregations + two hash joins."""
    return trainprep.collocations(_docs(sf_dir))


SQL_COLLOCATIONS = rf"""
WITH d AS (
    SELECT regexp_extract_all(lower(text), '{textstats.WORD_RE_SQL}') AS w
    FROM documents
),
bgl AS (
    SELECT unnest(list_transform(range(1, len(w)),
                  i -> w[i] || ' ' || w[i+1])) AS bg
    FROM d WHERE len(w) >= 2
),
bc AS (SELECT bg, count(*)::BIGINT AS n FROM bgl GROUP BY 1),
t AS (SELECT unnest(w) AS word FROM d),
uc AS (SELECT word, count(*)::BIGINT AS c FROM t GROUP BY 1),
tot AS (
    SELECT (SELECT sum(n)::DOUBLE FROM bc) AS tbg,
           (SELECT sum(c)::DOUBLE FROM uc) AS tun
)
SELECT b.bg AS bigram, b.n,
       CAST(floor(ln((b.n::DOUBLE / tot.tbg) /
                     ((u1.c::DOUBLE / tot.tun) * (u2.c::DOUBLE / tot.tun)))
                  * 1e6 + 0.5) AS BIGINT) AS pmi_micros
FROM bc b
JOIN uc u1 ON u1.word = string_split(b.bg, ' ')[1]
JOIN uc u2 ON u2.word = string_split(b.bg, ' ')[2]
CROSS JOIN tot
WHERE b.n >= {trainprep.COLLOC_MIN_COUNT}
"""


def q_kg_pagerank(sf_dir: str) -> "ray.data.Dataset":
    """Entity importance over the extracted knowledge graph: integer-exact
    PageRank (fixed rounds, undirected co-occurrence edges).  The iterative
    join+groupby rounds run distributed; rank state never lands on the
    driver."""
    from oboyu_ray.stages import kg
    from oboyu_ray.stages.components import pagerank

    rels = kg.kg_relations(rows=_kg_rows(sf_dir))
    ranks = pagerank(rels, a_col="source_name", b_col="target_name")

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"entity": t.column("node"), "pr_scaled": t.column("r")})

    return ranks.map_batches(rename, batch_format="pyarrow")


def _sql_kg_pagerank() -> str:
    """Chained-CTE power iteration mirroring ``components.pagerank``
    bit-for-bit: all-integer arithmetic (floor division) makes the fixed
    rounds order-independent, so the SQL and the distributed sums agree
    exactly."""
    from oboyu_ray.stages.components import PR_ITERS, PR_SCALE

    s = PR_SCALE
    parts = [
        f"""
WITH rel AS ({_sql_kg_relations()}),
e AS (SELECT source_name AS src, target_name AS dst FROM rel
      UNION SELECT target_name, source_name FROM rel),
deg AS (SELECT src AS node, count(*)::BIGINT AS d FROM e GROUP BY 1),
nn AS (SELECT count(*)::BIGINT AS n FROM deg),
r0 AS (SELECT node, ({s} // nn.n)::BIGINT AS r FROM deg, nn)"""
    ]
    for i in range(1, PR_ITERS + 1):
        parts.append(
            f""",
r{i} AS (
    SELECT e.dst AS node,
           ((15 * {s}) // (100 * nn.n)
            + (85 * sum(r{i - 1}.r // deg.d)) // 100)::BIGINT AS r
    FROM e
    JOIN r{i - 1} ON r{i - 1}.node = e.src
    JOIN deg ON deg.node = e.src
    CROSS JOIN nn
    GROUP BY e.dst, nn.n
)"""
        )
    parts.append(f"\nSELECT node AS entity, r AS pr_scaled FROM r{PR_ITERS}")
    return "".join(parts)


US_PER_DAY = 86_400_000_000
# Composite (user_id, epoch_day) key packed as user_id * 1e6 + day.
# Requires epoch_day < 1e6 (year ~4707) AND user_id < ~9.2e12 so the
# product stays inside int64 (9.22e18); both hold by orders of magnitude
# for any realistic id space — assert-checked nowhere because overflow
# would wrap visibly and fail the oracle hash.
_UD_KEY_BASE = 1_000_000


def q_user_day_activity(sf_dir: str) -> "ray.data.Dataset":
    """Metrics reconciliation via FULL OUTER join: per (user, day) signup
    counts vs purchase counts, keeping days where a user did only one of
    the two.  Each side pre-aggregates to (key, count) before the single
    bucket shuffle — the join moves one row per active user-day, never raw
    events."""
    from oboyu_ray.stages.relational import hash_join

    def counts(etype: str, key_name: str, n_name: str) -> "ray.data.Dataset":
        # per-batch PARTIAL (key, count) rows only — no groupby here: the
        # hash_join's pre_sum folds a key's partials inside its bucket, so
        # the whole query does ONE shuffle (the join's) instead of three
        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["ts", "user_id", "event_type"]
        )

        def partial(b: pa.Table) -> pa.Table:
            t = b.filter(pc.equal(b.column("event_type"), etype))
            ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
            uid = t.column("user_id").to_numpy(zero_copy_only=False)
            key = uid * _UD_KEY_BASE + ts // US_PER_DAY
            g = pa.table(
                {key_name: pa.array(key), n_name: pa.array(np.ones(len(key), np.int64))}
            ).group_by(key_name).aggregate([(n_name, "sum")])
            return pa.table(
                {
                    key_name: g.column(key_name),
                    n_name: g.column(f"{n_name}_sum").cast(pa.int64()),
                }
            )

        return ev.map_batches(partial, batch_format="pyarrow")

    sig = counts("signup", "sk", "n_signups")
    pur = counts("purchase", "pk", "n_purchases")
    j = hash_join(
        sig, pur, "sk", "pk", how="outer",
        left_schema=pa.schema([("sk", pa.int64()), ("n_signups", pa.int64())]),
        right_schema=pa.schema([("pk", pa.int64()), ("n_purchases", pa.int64())]),
        pre_sum_left=["n_signups"], pre_sum_right=["n_purchases"],
    )

    def coalesce(t: pa.Table) -> pa.Table:
        key = (
            pc.coalesce(t.column("sk"), t.column("pk"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "user_id": pa.array(key // _UD_KEY_BASE, type=pa.int64()),
                "epoch_day": pa.array(key % _UD_KEY_BASE, type=pa.int64()),
                "n_signups": pc.fill_null(t.column("n_signups"), 0).cast(pa.int64()),
                "n_purchases": pc.fill_null(t.column("n_purchases"), 0).cast(pa.int64()),
            }
        )

    return j.map_batches(coalesce, batch_format="pyarrow")


SQL_USER_DAY_ACTIVITY = """
WITH s AS (
    SELECT user_id, epoch_us(ts) // 86400000000 AS d, count(*)::BIGINT AS n
    FROM events WHERE event_type = 'signup' GROUP BY 1, 2
),
p AS (
    SELECT user_id, epoch_us(ts) // 86400000000 AS d, count(*)::BIGINT AS n
    FROM events WHERE event_type = 'purchase' GROUP BY 1, 2
)
SELECT COALESCE(s.user_id, p.user_id) AS user_id,
       COALESCE(s.d, p.d) AS epoch_day,
       COALESCE(s.n, 0)::BIGINT AS n_signups,
       COALESCE(p.n, 0)::BIGINT AS n_purchases
FROM s FULL OUTER JOIN p ON s.user_id = p.user_id AND s.d = p.d
"""


def q_langid_confusion(sf_dir: str) -> "ray.data.Dataset":
    """Model-evaluation at corpus scale: confusion matrix of the labeled
    lang column vs the heuristic language-ID prediction.  Per-batch partial
    (label, pred) counts keep the shuffle at |langs|² rows regardless of
    corpus size."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang"]
    )
    return trainprep.langid_confusion(ds)


SQL_LANGID_CONFUSION = rf"""
SELECT lang AS label_lang,
       CASE WHEN regexp_matches(text, '{textstats.JP_KANA_SQL}') THEN 'ja'
            WHEN regexp_matches(text, '{textstats.CJK_SQL}') THEN 'zh'
            ELSE 'en' END AS pred_lang,
       count(*)::BIGINT AS n
FROM documents
GROUP BY 1, 2
"""


def q_orders_unfilled(sf_dir: str) -> "ray.data.Dataset":
    """Referential-integrity anti-join at scale: orders with NO lineitem,
    counted per status.  Only the lineitem KEY column travels (distinct
    per batch before the bucket shuffle)."""
    from oboyu_ray.stages.relational import hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    )
    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])

    def distinct_keys(b: pa.Table) -> pa.Table:
        k = np.unique(b.column("l_orderkey").to_numpy(zero_copy_only=False))
        return pa.table({"l_orderkey": pa.array(k, type=pa.int64())})

    unfilled = hash_join(
        orders, li.map_batches(distinct_keys, batch_format="pyarrow"),
        "o_orderkey", "l_orderkey", how="anti",
    )

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("o_orderstatus").aggregate([("o_orderkey", "count")])
        return pa.table(
            {
                "o_orderstatus": g.column("o_orderstatus"),
                "n": g.column("o_orderkey_count").cast(pa.int64()),
            }
        )

    # final reduce: |statuses| is a bounded constant (3), so the per-bucket
    # partials fold on the driver — same shape as join_revenue's 15-key fold
    # — instead of paying a second all-to-all sort-shuffle for a 3-row result
    parts = [
        b.to_pandas()
        for b in unfilled.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ]
    out = (
        pd.concat(parts, ignore_index=True)
        .groupby("o_orderstatus", as_index=False)["n"]
        .sum()
        .rename(columns={"n": "n_orders"})
    )
    return out.astype({"n_orders": "int64"})


SQL_ORDERS_UNFILLED = """
SELECT o_orderstatus, count(*)::BIGINT AS n_orders
FROM orders o
WHERE NOT EXISTS (SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)
GROUP BY 1
"""


# probes for the fuzzy lookup: deletion / insertion / exact / no-hit shapes
FUZZY_PROBES = ["spar", "tablee", "windo", "merge", "qzqzq"]


def q_fuzzy_terms(sf_dir: str) -> "ray.data.Dataset":
    """Spelling-correction candidates: vocabulary terms within Levenshtein
    distance ≤ 1 of each probe (SymSpell deletion-neighborhood candidates +
    exact edit-distance verify; probes broadcast, vocabulary streams)."""
    from oboyu_ray.stages.postings import postings_batch as _pb
    from oboyu_ray.stages.stats import fuzzy_terms
    from oboyu_ray.stages.stats import vocabulary as _vocab

    postings = _docs(sf_dir).map_batches(_pb, batch_format="pyarrow")
    return fuzzy_terms(_vocab(postings), FUZZY_PROBES)


_FUZZY_VALUES = ", ".join(f"('{p}')" for p in FUZZY_PROBES)

from oboyu_ray.pipelines.entry_queries import SQL_POSTINGS_CTE  # noqa: E402

SQL_FUZZY_TERMS = f"""
WITH {SQL_POSTINGS_CTE},
vocab AS (SELECT term, count(*)::BIGINT AS df FROM postings GROUP BY 1),
probes(word) AS (VALUES {_FUZZY_VALUES})
SELECT p.word AS query, v.term, v.df,
       levenshtein(p.word, v.term)::BIGINT AS dist
FROM vocab v CROSS JOIN probes p
WHERE levenshtein(p.word, v.term) <= 1
"""


FUNNEL_WINDOW_US = 4 * 3_600_000_000


def q_funnel_conversion(sf_dir: str) -> "ray.data.Dataset":
    """Per-day signup→purchase conversion within a 4h window (bucketed
    per-user cogroup, vectorized next-goal scan, per-day partials)."""
    from oboyu_ray.stages.relational import funnel_conversion

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"]
    )
    return funnel_conversion(ev, window_us=FUNNEL_WINDOW_US)


SQL_FUNNEL_CONVERSION = f"""
WITH s AS (SELECT user_id, ts FROM events WHERE event_type = 'signup')
SELECT (epoch_us(s.ts) // 86400000000)::BIGINT AS day,
       count(*)::BIGINT AS n_signups,
       count(*) FILTER (EXISTS (
           SELECT 1 FROM events p WHERE p.event_type = 'purchase'
             AND p.user_id = s.user_id AND p.ts > s.ts
             AND epoch_us(p.ts) <= epoch_us(s.ts) + {FUNNEL_WINDOW_US}
       ))::BIGINT AS n_converted
FROM s GROUP BY 1
"""


SKETCH_QS = [0.01, 0.25, 0.5, 0.75, 0.9, 0.99]


def q_price_quantiles_sketch(sf_dir: str) -> pd.DataFrame:
    """One-pass mergeable quantile sketch over lineitem prices (the
    streaming complement to the exact operator): per-batch KLL/MRL
    compactor blobs, deterministic driver merge.  Approximate — rows-only
    driver check; rank-error bound and determinism pinned in pytest."""
    from oboyu_ray.stages.quantiles import approx_quantiles_sketch

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    sk = approx_quantiles_sketch(ds, "l_extendedprice", SKETCH_QS)
    from oboyu_ray.fixedpoint import micros

    return pd.DataFrame(
        {
            "q_micros": pd.array([micros(q) for q in SKETCH_QS], dtype="int64"),
            "value_micros": pd.array(
                [micros(sk.quantile(q)) for q in SKETCH_QS], dtype="int64"
            ),
        }
    )


def q_embedding_clusters(sf_dir: str) -> "ray.data.Dataset":
    """Distributed k-means over the embeddings table: per-cluster size and
    cohesion (mean cosine-to-centroid).  Iterative — rows-only driver
    check; determinism + scalar-reference agreement pinned in pytest."""
    from oboyu_ray.stages.simsearch import kmeans_cluster_summary

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return kmeans_cluster_summary(ds, k=16, iters=3)


def _unigram_model_ref(sf_dir: str):
    """Build-once unigram model (shared by doc_surprisal + doc_keywords)."""
    import ray as _ray

    return _memo(
        sf_dir,
        "unigram_model",
        lambda: _ray.put(trainprep.unigram_model(_docs(sf_dir))),
    )


def q_doc_surprisal(sf_dir: str) -> "ray.data.Dataset":
    """Statistical LM quality signal: per-doc mean unigram surprisal under
    the corpus unigram model (built distributed, broadcast once)."""
    return trainprep.doc_surprisal(_docs(sf_dir), _unigram_model_ref(sf_dir))


def q_doc_keywords(sf_dir: str) -> "ray.data.Dataset":
    """IDF-style keyword extraction: top-3 rarest distinct words per doc
    under the shared unigram model (ties word-ascending)."""
    return trainprep.doc_keywords(_docs(sf_dir), _unigram_model_ref(sf_dir))


SQL_DOC_KEYWORDS = rf"""
WITH d AS (
    SELECT doc_id, regexp_extract_all(lower(text), '{textstats.WORD_RE_SQL}') AS w
    FROM documents
),
t AS (SELECT doc_id, unnest(w) AS word FROM d),
c AS (SELECT word, count(*) AS cnt FROM t GROUP BY 1),
tot AS (SELECT sum(cnt)::DOUBLE AS n FROM c),
s AS (
    SELECT word, CAST(floor(-ln(cnt::DOUBLE / n) * 1e6 + 0.5) AS BIGINT) AS s_micros
    FROM c, tot
),
dw AS (SELECT DISTINCT doc_id, word FROM t),
r AS (
    SELECT dw.doc_id, dw.word, s.s_micros,
           row_number() OVER (PARTITION BY dw.doc_id
                              ORDER BY s.s_micros DESC, dw.word) AS rank
    FROM dw JOIN s USING (word)
)
SELECT doc_id, word, s_micros, rank::BIGINT AS rank
FROM r WHERE rank <= {trainprep.KEYWORDS_PER_DOC}
"""


SQL_DOC_SURPRISAL = rf"""
WITH d AS (
    SELECT doc_id, regexp_extract_all(lower(text), '{textstats.WORD_RE_SQL}') AS w
    FROM documents
),
t AS (SELECT doc_id, unnest(w) AS word FROM d),
c AS (SELECT word, count(*) AS cnt FROM t GROUP BY 1),
tot AS (SELECT sum(cnt)::DOUBLE AS n FROM c),
s AS (
    SELECT word, CAST(floor(-ln(cnt::DOUBLE / n) * 1e6 + 0.5) AS BIGINT) AS s_micros
    FROM c, tot
),
doc AS (
    SELECT t.doc_id, count(*)::BIGINT AS nw, sum(s_micros)::BIGINT AS total
    FROM t JOIN s USING (word) GROUP BY 1
)
SELECT d.doc_id,
       coalesce(nw, 0)::BIGINT AS n_words,
       coalesce(total // nw, 0)::BIGINT AS mean_surprisal_micros
FROM d LEFT JOIN doc USING (doc_id)
"""


# per-stratum hex thresholds: downsample the over-represented language
STRAT_THRESHOLDS = {"en": "14"}  # ≈ 7.8%; all other langs 25%
STRAT_DEFAULT_HEX = "40"


def q_stratified_sample(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic stratified sampling by language: per-stratum
    Bernoulli-by-key rates with the md5-prefix rule (reproducible sample,
    no RNG state)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    return ds.map_batches(
        lambda b: trainprep.stratified_sample_by_hash(
            b, thresholds=STRAT_THRESHOLDS, default_hex=STRAT_DEFAULT_HEX
        ),
        batch_format="pyarrow",
    )


SQL_STRATIFIED_SAMPLE = f"""
SELECT doc_id, lang FROM documents
WHERE md5(CAST(doc_id AS VARCHAR)) <
      CASE WHEN lang = 'en' THEN '{STRAT_THRESHOLDS["en"]}' ELSE '{STRAT_DEFAULT_HEX}' END
"""


def q_events_json_stats(sf_dir: str) -> "pd.DataFrame":
    """Semi-structured extraction at scale: pull the integer field ``k`` out
    of the flat-JSON ``props`` column with ONE vectorized RE2 kernel call per
    batch (no per-row json.loads), then per-event-type row count, sum, and
    EXACT distinct-value count.  The only shuffle moves one row per distinct
    (event_type, k) pair per batch (map-side group_by partials)."""
    from oboyu_ray.stages import trainprep

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )
    return trainprep.json_grouped_stats(ds, "event_type", "props", "k")


SQL_EVENTS_JSON_STATS = """
SELECT event_type,
       count(*)::BIGINT AS n_events,
       COALESCE(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)), 0)::BIGINT
           AS sum_k,
       count(DISTINCT CAST(json_extract_string(props, '$.k') AS BIGINT))::BIGINT
           AS n_distinct_k
FROM events
GROUP BY event_type
"""


PRICING_CUTOFF = "2000-01-01"


def q_pricing_summary(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q1-shaped pricing summary: filter at the scan, per-row
    fixed-point money math (micros), in-batch group_by partials, driver fold
    over the bounded (returnflag × linestatus) key space — zero all-to-all
    shuffles for a 6-row result."""
    from oboyu_ray.fixedpoint import micros

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate",
        ],
    )
    cutoff = np.datetime64(PRICING_CUTOFF, "us")

    def partial(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate").to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(ship.astype("datetime64[us]") <= cutoff))
        if b.num_rows == 0:
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "sum_qty": pa.array([], pa.int64()),
                    "base_micros": pa.array([], pa.int64()),
                    "disc_micros": pa.array([], pa.int64()),
                    "charge_micros": pa.array([], pa.int64()),
                    "n_items": pa.array([], pa.int64()),
                }
            )
        price = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = b.column("l_discount").to_numpy(zero_copy_only=False)
        tax = b.column("l_tax").to_numpy(zero_copy_only=False)
        qty = b.column("l_quantity").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "l_linestatus": b.column("l_linestatus"),
                "sum_qty": pa.array(qty.astype(np.int64)),
                "base_micros": pa.array(micros(price)),
                "disc_micros": pa.array(micros(price * (1.0 - disc))),
                "charge_micros": pa.array(
                    micros(price * (1.0 - disc) * (1.0 + tax))
                ),
                "n_items": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            }
        )
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [
                ("sum_qty", "sum"), ("base_micros", "sum"),
                ("disc_micros", "sum"), ("charge_micros", "sum"),
                ("n_items", "sum"),
            ]
        )
        return pa.table(
            {
                "l_returnflag": g.column("l_returnflag"),
                "l_linestatus": g.column("l_linestatus"),
                "sum_qty": g.column("sum_qty_sum"),
                "base_micros": g.column("base_micros_sum"),
                "disc_micros": g.column("disc_micros_sum"),
                "charge_micros": g.column("charge_micros_sum"),
                "n_items": g.column("n_items_sum"),
            }
        )

    cols = ["sum_qty", "base_micros", "disc_micros", "charge_micros", "n_items"]
    parts = [
        b.to_pandas()
        for b in li.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ]
    out = (
        pd.concat(parts, ignore_index=True)
        .groupby(["l_returnflag", "l_linestatus"], as_index=False)[cols]
        .sum()
    )
    return out.astype({c: "int64" for c in cols})


SQL_PRICING_SUMMARY = f"""
SELECT l_returnflag, l_linestatus,
       sum(CAST(l_quantity AS BIGINT))::BIGINT AS sum_qty,
       sum(CAST(floor(l_extendedprice * 1e6 + 0.5) AS BIGINT))::BIGINT
           AS base_micros,
       sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 1e6 + 0.5)
                AS BIGINT))::BIGINT AS disc_micros,
       sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * (1.0 + l_tax) * 1e6
                      + 0.5) AS BIGINT))::BIGINT AS charge_micros,
       count(*)::BIGINT AS n_items
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '{PRICING_CUTOFF}'
GROUP BY l_returnflag, l_linestatus
"""


def _event_users(sf_dir: str, event_type: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    ).filter(expr=f'event_type == "{event_type}"')


HIGH_VALUE = 90.0


def q_highvalue_no_error(sf_dir: str) -> "ray.data.Dataset":
    """ANSI EXCEPT DISTINCT as a distributed operator: users who had a
    high-value event but never a high-value ERROR event.  One shuffle moving
    ≤1 row per distinct key per batch per side (in-batch distinct partials,
    indicator max-fold inside ``set_op``)."""
    from oboyu_ray.stages.relational import set_op

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"]
    )

    def high(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("value"), HIGH_VALUE))

    def high_err(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.and_(
                pc.greater(t.column("value"), HIGH_VALUE),
                pc.equal(t.column("event_type"), "error"),
            )
        )

    return set_op(
        ev.map_batches(high, batch_format="pyarrow"),
        ev.map_batches(high_err, batch_format="pyarrow"),
        on="user_id", how="except",
    )


SQL_HIGHVALUE_NO_ERROR = f"""
SELECT user_id FROM events WHERE value > {HIGH_VALUE}
EXCEPT
SELECT user_id FROM events WHERE value > {HIGH_VALUE} AND event_type = 'error'
"""


def q_viewers_also_purchasing(sf_dir: str) -> "ray.data.Dataset":
    """ANSI INTERSECT DISTINCT over the same shape."""
    from oboyu_ray.stages.relational import set_op

    return set_op(
        _event_users(sf_dir, "view"), _event_users(sf_dir, "purchase"),
        on="user_id", how="intersect",
    )


SQL_VIEWERS_ALSO_PURCHASING = """
SELECT user_id FROM events WHERE event_type = 'view'
INTERSECT
SELECT user_id FROM events WHERE event_type = 'purchase'
"""


SHIPPING_CUTOFF = "1997-01-01"


def q_shipping_priority(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q3-shaped composition in ONE all-to-all: the segment-filtered
    customer key set is a broadcast membership filter on orders (dimension
    side, shipped once via ray.put), then lineitem revenue partials and the
    surviving orders co-shuffle ONCE on hash(orderkey) — each bucket cogroup
    joins, completes the grouped sum (all rows of a key land in one
    bucket), and emits its local top-10; the driver merges ≤10 rows per
    bucket.  Filters at the scan, fixed-point micros per row, in-batch
    pre-combines per orderkey before anything moves."""
    from oboyu_ray.fixedpoint import micros

    cutoff = np.datetime64(SHIPPING_CUTOFF, "us")

    # customer is the DIMENSION side: the segment-filtered key set is
    # broadcast ONCE (sorted int array + searchsorted membership) instead of
    # paying a shuffle semi-join — one fewer all-to-all.  If the filtered
    # dimension ever outgrows worker memory, swap this for
    # hash_join(..., how="semi") — same semantics, one more shuffle.
    ckeys = np.sort(
        ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
        )
        .filter(expr='c_mktsegment == "BUILDING"')
        .to_pandas()["c_custkey"]
        .to_numpy(np.int64)
    )
    ckeys_ref = ray.put(ckeys)

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )

    def ofilter(t: pa.Table) -> pa.Table:
        keys = ray.get(ckeys_ref)
        od = t.column("o_orderdate").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(od.astype("datetime64[us]") < cutoff))
        ck = t.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        ix = np.searchsorted(keys, ck)
        hit = (ix < len(keys)) & (keys[np.minimum(ix, len(keys) - 1)] == ck)
        return t.filter(pa.array(hit)).select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"]
        )

    orders = orders.map_batches(ofilter, batch_format="pyarrow")

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    # ONE all-to-all for join + aggregate + top-k: both sides bucket on
    # hash(orderkey), so inside a bucket cogroup every row of an order key
    # is present — the merge task can join, complete the grouped sum, and
    # emit its bucket-local top-10 in one go.  The driver merges ≤ 10 rows
    # per bucket.  (A generic hash_join + groupby pays two extra sort
    # shuffles for data this plan already co-located.)
    N_BUCKETS = 64
    _GOLD = np.uint64(0x9E3779B97F4A7C15)

    def _jb(key: np.ndarray) -> pa.Array:
        with np.errstate(over="ignore"):
            return pa.array(
                ((key.astype(np.uint64) * _GOLD) % np.uint64(N_BUCKETS)).astype(
                    np.int64
                )
            )

    def lrev(t: pa.Table) -> pa.Table:
        ship = t.column("l_shipdate").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ship.astype("datetime64[us]") > cutoff))
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        key = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pre = pa.table(
            {
                "okey": pa.array(key),
                "rev": pa.array(micros(price * (1.0 - disc)), pa.int64()),
            }
        )
        g = pre.group_by("okey").aggregate([("rev", "sum")])
        gk = g.column("okey").to_numpy(zero_copy_only=False).astype(np.int64)
        n = g.num_rows
        return pa.table(
            {
                "jb": _jb(gk),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "okey": g.column("okey"),
                "rev": g.column("rev_sum"),
                "odate_us": pa.array(np.zeros(n, dtype=np.int64)),
                "opri": pa.array([""] * n, pa.string()),
            }
        )

    def otag(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.num_rows
        return pa.table(
            {
                "jb": _jb(key),
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "okey": pa.array(key),
                "rev": pa.array(np.zeros(n, dtype=np.int64)),
                "odate_us": t.column("o_orderdate")
                .cast(pa.timestamp("us"))
                .cast(pa.int64()),
                "opri": t.column("o_orderpriority"),
            }
        )

    def top10(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.sort_values(
            ["revenue_micros", "l_orderkey"], ascending=[False, True]
        ).head(10)

    def merge_agg(g: "pd.DataFrame") -> "pd.DataFrame":
        lef = g[g["side"] == 0]
        rig = g[g["side"] == 1]
        sums = lef.groupby("okey", as_index=False)["rev"].sum()
        j = sums.merge(
            rig[["okey", "odate_us", "opri"]], on="okey", how="inner"
        )
        j = pd.DataFrame(
            {
                "l_orderkey": j["okey"].astype("int64"),
                "o_orderdate": pd.to_datetime(j["odate_us"], unit="us"),
                "o_orderpriority": j["opri"],
                "revenue_micros": j["rev"].astype("int64"),
            }
        )
        return top10(j)

    both = li.map_batches(lrev, batch_format="pyarrow").union(
        orders.map_batches(otag, batch_format="pyarrow")
    )
    parts = [
        b
        for b in both.groupby("jb")
        .map_groups(merge_agg, batch_format="pandas")
        .iter_batches(batch_format="pandas")
    ]
    out = top10(pd.concat(parts, ignore_index=True)).reset_index(drop=True)
    return out.astype({"revenue_micros": "int64", "l_orderkey": "int64"})


SQL_SHIPPING_PRIORITY = f"""
SELECT l_orderkey, o_orderdate, o_orderpriority,
       sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 1e6 + 0.5)
                AS BIGINT))::BIGINT AS revenue_micros
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING'
  AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < TIMESTAMP '{SHIPPING_CUTOFF}'
  AND l_shipdate > TIMESTAMP '{SHIPPING_CUTOFF}'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue_micros DESC, l_orderkey
LIMIT 10
"""


def q_user_event_gaps(sf_dir: str) -> "ray.data.Dataset":
    """Per-user inter-event gap stats (count / total / max gap in integer
    microseconds) — the lag-window aggregate shape.  ONE user-bucketed
    cogroup; gaps are not mergeable across partial runs, so this is the
    minimal-shuffle exact plan."""
    from oboyu_ray.stages.window import event_gap_stats

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )
    return event_gap_stats(ev, "user_id", "ts", "event_id")


SQL_USER_EVENT_GAPS = """
WITH g AS (
    SELECT user_id,
           epoch_us(ts) - lag(epoch_us(ts))
               OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap_us
    FROM events
)
SELECT user_id,
       count(gap_us)::BIGINT AS n_gaps,
       sum(gap_us)::BIGINT AS sum_gap_us,
       max(gap_us)::BIGINT AS max_gap_us
FROM g WHERE gap_us IS NOT NULL
GROUP BY user_id
"""


def q_events_weekday_pivot(sf_dir: str) -> "ray.data.Dataset":
    """Long → wide crosstab: per event_type, counts per day-of-week as seven
    int64 columns (DuckDB dayofweek convention, Sunday = 0).  Bounded
    explicit column set; one (row, col)-pair shuffle."""
    from oboyu_ray.stages.relational import pivot_counts

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def add_dow(t: pa.Table) -> pa.Table:
        us = (
            t.column("ts")
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        # epoch day 0 (1970-01-01) was a Thursday; Sunday-0 ⇒ +4 offset
        dow = (us // 86_400_000_000 + 4) % 7
        return pa.table(
            {"event_type": t.column("event_type"), "dow": pa.array(dow, pa.int64())}
        )

    return pivot_counts(
        ev.map_batches(add_dow, batch_format="pyarrow"),
        "event_type", "dow", list(range(7)),
    )


SQL_EVENTS_WEEKDAY_PIVOT = """
SELECT event_type,
       count(*) FILTER (dayofweek(ts) = 0)::BIGINT AS dow_0,
       count(*) FILTER (dayofweek(ts) = 1)::BIGINT AS dow_1,
       count(*) FILTER (dayofweek(ts) = 2)::BIGINT AS dow_2,
       count(*) FILTER (dayofweek(ts) = 3)::BIGINT AS dow_3,
       count(*) FILTER (dayofweek(ts) = 4)::BIGINT AS dow_4,
       count(*) FILTER (dayofweek(ts) = 5)::BIGINT AS dow_5,
       count(*) FILTER (dayofweek(ts) = 6)::BIGINT AS dow_6
FROM events
GROUP BY event_type
"""


def q_daily_revenue_dense(sf_dir: str) -> "pd.DataFrame":
    """Gap-filled daily revenue time series over orders: every calendar day
    between the observed min and max appears, zero-filled — in-batch day
    partials + a calendar-bounded driver fold (no shuffle)."""
    from oboyu_ray.stages.relational import dense_daily_agg

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )
    return dense_daily_agg(orders, "o_orderdate", "o_totalprice")


SQL_DAILY_REVENUE_DENSE = """
WITH d AS (
    SELECT time_bucket(INTERVAL 1 DAY, o_orderdate) AS day,
           sum(CAST(floor(o_totalprice * 1e6 + 0.5) AS BIGINT)) AS rev,
           count(*) AS n
    FROM orders GROUP BY 1
), cal AS (
    SELECT unnest(generate_series((SELECT min(day) FROM d),
                                  (SELECT max(day) FROM d),
                                  INTERVAL 1 DAY)) AS day
)
SELECT cal.day AS day,
       COALESCE(d.rev, 0)::BIGINT AS revenue_micros,
       COALESCE(d.n, 0)::BIGINT AS n_rows
FROM cal LEFT JOIN d USING (day)
"""


PROFILE_COLS = ["event_id", "user_id", "event_type", "ts"]


def q_events_profile(sf_dir: str) -> "pd.DataFrame":
    """One-pass column profiler over events (row/null counts + lexicographic
    min/max of the string-cast value per column) — schema-drift detection as
    a zero-shuffle streaming fold."""
    from oboyu_ray.stages.validate import profile_columns

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=PROFILE_COLS)
    out = profile_columns(ev, PROFILE_COLS)
    return out.rename(columns={"column": "col_name"})


SQL_EVENTS_PROFILE = "\nUNION ALL\n".join(
    f"""SELECT '{c}' AS col_name, count(*)::BIGINT AS n_rows,
       (count(*) - count({c}))::BIGINT AS n_nulls,
       min(CAST({c} AS VARCHAR)) AS min_str,
       max(CAST({c} AS VARCHAR)) AS max_str FROM events"""
    for c in PROFILE_COLS
)


def q_brand_revenue_by_region(sf_dir: str) -> "pd.DataFrame":
    """Star-schema rollup touching every dimension table: lineitem facts
    resolve part→brand and supplier→nation→region through ray.put-broadcast
    sorted-array lookups (each dimension shipped ONCE, read zero-copy per
    task — the correct join side for dimensions at 100 TB), then in-batch
    partials and a bounded (regions × brands) driver fold.  ZERO shuffles."""
    from oboyu_ray.fixedpoint import micros
    from oboyu_ray.stages.relational import load_broadcast_map

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    ).to_pandas()
    brands = sorted(part["p_brand"].unique())
    bcode = {b: i for i, b in enumerate(brands)}
    pk = part["p_partkey"].to_numpy(np.int64)
    pv = part["p_brand"].map(bcode).to_numpy(np.int64)
    po = np.argsort(pk, kind="stable")

    sup_k, sup_nat = load_broadcast_map(
        ray.data.read_parquet(
            f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
        ),
        "s_suppkey", "s_nationkey",
    )
    nat_k, nat_reg = load_broadcast_map(
        ray.data.read_parquet(
            f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
        ),
        "n_nationkey", "n_regionkey",
    )
    region = ray.data.read_parquet(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).to_pandas()
    rname = dict(zip(region["r_regionkey"].astype(int), region["r_name"]))
    # fold supplier→nation→region on the driver: one lookup array per fact row
    sup_reg = nat_reg[np.searchsorted(nat_k, sup_nat)]
    dims = ray.put((pk[po], pv[po], sup_k, sup_reg))

    def partial(t: pa.Table) -> pa.Table:
        dpk, dpv, dsk, dsr = ray.get(dims)
        lp = t.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        ls = t.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pi = np.searchsorted(dpk, lp)
        si = np.searchsorted(dsk, ls)
        if (pi >= len(dpk)).any() or (si >= len(dsk)).any() or \
                (dpk[np.minimum(pi, len(dpk) - 1)] != lp).any() or \
                (dsk[np.minimum(si, len(dsk) - 1)] != ls).any():
            raise ValueError("lineitem references unknown part/supplier")
        brand = dpv[pi]
        reg = dsr[si]
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        g = (
            pa.table(
                {
                    "reg": pa.array(reg, pa.int64()),
                    "brand": pa.array(brand, pa.int64()),
                    "rev": pa.array(micros(price * (1.0 - disc)), pa.int64()),
                    "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                }
            )
            .group_by(["reg", "brand"])
            .aggregate([("rev", "sum"), ("one", "sum")])
        )
        return pa.table(
            {
                "reg": g.column("reg"), "brand": g.column("brand"),
                "rev": g.column("rev_sum"), "n": g.column("one_sum"),
            }
        )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    parts = [
        b.to_pandas()
        for b in li.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ]
    out = (
        pd.concat(parts, ignore_index=True)
        .groupby(["reg", "brand"], as_index=False)[["rev", "n"]]
        .sum()
    )
    return pd.DataFrame(
        {
            "r_name": out["reg"].map(rname),
            "p_brand": out["brand"].map(dict(enumerate(brands))),
            "revenue_micros": out["rev"].astype("int64"),
            "n_items": out["n"].astype("int64"),
        }
    )


SQL_BRAND_REVENUE_BY_REGION = """
SELECT r_name, p_brand,
       sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 1e6 + 0.5)
                AS BIGINT))::BIGINT AS revenue_micros,
       count(*)::BIGINT AS n_items
FROM lineitem, part, supplier, nation, region
WHERE l_partkey = p_partkey AND l_suppkey = s_suppkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
GROUP BY r_name, p_brand
"""


def q_nation_revenue_share(sf_dir: str) -> "pd.DataFrame":
    """Ratio-to-report window aggregate: each nation's share of total order
    revenue in integer parts-per-million.  The grouped sum reuses the
    broadcast-join operator (customer dimension shipped once); the share is
    an exact integer division over the bounded 25-row result on the driver
    (Python ints — no int64 overflow at any scale; the oracle mirrors with
    HUGEINT)."""
    from oboyu_ray.stages.relational import orders_by_nation_broadcast

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    rev = orders_by_nation_broadcast(orders, customer).to_pandas()
    cents = [int(x) for x in rev["revenue_cents"]]
    total = sum(cents)
    share = [c * 1_000_000 // total for c in cents]
    return pd.DataFrame(
        {
            "c_nationkey": rev["c_nationkey"].astype("int64"),
            "revenue_cents": pd.Series(cents, dtype="int64"),
            "share_ppm": pd.Series(share, dtype="int64"),
        }
    )


SQL_NATION_REVENUE_SHARE = """
WITH r AS (
    SELECT c_nationkey,
           sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS revenue_cents
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY c_nationkey
)
SELECT c_nationkey,
       revenue_cents::BIGINT AS revenue_cents,
       (revenue_cents::HUGEINT * 1000000 // sum(revenue_cents::HUGEINT) OVER ())::BIGINT
           AS share_ppm
FROM r
"""


def q_order_anomaly_days(sf_dir: str) -> "pd.DataFrame":
    """Volume-anomaly detection over the gap-filled daily series: calendar
    days whose order count exceeds the integer Tukey fence q75 + (q75 − q25)
    of the daily counts (quantile_disc ranks, so the gate is bit-exact).
    Composition: dense_daily_agg (zero shuffles) + a calendar-bounded driver
    fold for the fence and filter."""
    from oboyu_ray.stages.relational import dense_daily_agg

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )
    daily = dense_daily_agg(orders, "o_orderdate", "o_totalprice")
    import math

    n = np.sort(daily["n_rows"].to_numpy(np.int64))
    # quantile_disc rank = max(ceil(q*n)-1, 0), pinned in quantiles.py
    q25 = int(n[max(math.ceil(0.25 * len(n)) - 1, 0)])
    q75 = int(n[max(math.ceil(0.75 * len(n)) - 1, 0)])
    fence = q75 + (q75 - q25)
    out = daily[daily["n_rows"] > fence][["day", "n_rows"]]
    return out.reset_index(drop=True).rename(columns={"n_rows": "n_orders"})


SQL_ORDER_ANOMALY_DAYS = """
WITH d AS (
    SELECT time_bucket(INTERVAL 1 DAY, o_orderdate) AS day,
           count(*)::BIGINT AS n
    FROM orders GROUP BY 1
), cal AS (
    SELECT unnest(generate_series((SELECT min(day) FROM d),
                                  (SELECT max(day) FROM d),
                                  INTERVAL 1 DAY)) AS day
), dense AS (
    SELECT cal.day AS day, COALESCE(d.n, 0)::BIGINT AS n
    FROM cal LEFT JOIN d USING (day)
)
SELECT day, n AS n_orders FROM dense
WHERE n > (SELECT 2 * quantile_disc(n, 0.75) - quantile_disc(n, 0.25) FROM dense)
"""


def q_orders_range_sorted(sf_dir: str) -> "pd.DataFrame":
    """Range-partitioned global sort export (the terasort shape): orders
    sorted by o_totalprice into 8 range files under /tmp, with EXPLICIT
    deterministic boundaries (exact quantile_disc at i/8 — no sampling
    nondeterminism).  Returns the per-partition summary; the files
    themselves are the artifact (read in part order = globally sorted).
    The oracle recomputes part_id as #(boundaries strictly below the key)
    from the same quantile_disc boundaries."""
    import os

    from oboyu_ray.stages.sortexport import range_sort_export

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    out_dir = os.path.join(
        "/tmp/oboyu_sortexport", os.path.basename(os.path.normpath(sf_dir))
    )
    return range_sort_export(orders, "o_totalprice", out_dir, n_parts=8)


def _range_sorted_sql(n_parts: int = 8) -> str:
    bs = [f"quantile_disc(o_totalprice, {i / n_parts}) AS b{i}" for i in range(1, n_parts)]
    cases = " + ".join(
        f"(CASE WHEN o_totalprice > b{i} THEN 1 ELSE 0 END)" for i in range(1, n_parts)
    )
    return f"""
WITH b AS (SELECT {", ".join(bs)} FROM orders)
SELECT ({cases})::BIGINT AS part_id,
       count(*)::BIGINT AS n_rows,
       min(o_totalprice) AS key_min,
       max(o_totalprice) AS key_max,
       sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS key_sum_cents
FROM orders, b
GROUP BY part_id
"""


SQL_ORDERS_RANGE_SORTED = _range_sorted_sql(8)


def q_price_ship_frontier(sf_dir: str) -> "pd.DataFrame":
    """Pareto frontier of lineitem on (minimize l_extendedprice, minimize
    l_shipdate): the "no cheaper-and-earlier alternative exists" rows.
    Distributed shape: per-batch vectorized local skyline (closure property
    — global frontier points survive their batch's frontier) → bounded
    driver fold with the same kernel.  The oracle is the O(n log n) window
    formulation of the same semantics, not the O(n²) NOT EXISTS."""
    from oboyu_ray.stages.skyline import pareto_frontier_min2

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice", "l_shipdate"]
    )
    return pareto_frontier_min2(li, "l_extendedprice", "l_shipdate")


SQL_PRICE_SHIP_FRONTIER = """
WITH d AS (SELECT DISTINCT l_extendedprice AS p, l_shipdate AS s FROM lineitem),
m AS (SELECT p, min(s) AS s FROM d GROUP BY p),
r AS (SELECT p, s,
             min(s) OVER (ORDER BY p ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                 AS prev_min
      FROM m)
SELECT p AS l_extendedprice, s AS l_shipdate
FROM r WHERE prev_min IS NULL OR s < prev_min
"""


def q_user_growth(sf_dir: str) -> "pd.DataFrame":
    """Cumulative distinct-user growth curve (each user counts on their
    first-seen day): one key-bucketed cogroup over per-batch min-day
    partials, bounded calendar-grid driver fold."""
    from oboyu_ray.stages.window import first_seen_growth

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return first_seen_growth(events, "user_id", "ts")


SQL_USER_GROWTH = """
WITH f AS (
    SELECT user_id, min(time_bucket(INTERVAL 1 DAY, ts)) AS day
    FROM events GROUP BY user_id
), c AS (
    SELECT day, count(*)::BIGINT AS new_users FROM f GROUP BY day
)
SELECT day, new_users,
       (sum(new_users) OVER (ORDER BY day))::BIGINT AS cum_users
FROM c
"""


def q_user_skew_report(sf_dir: str) -> "pd.DataFrame":
    """Exact top-10 heaviest event keys with integer-ppm share and
    cumulative coverage — the pre-shuffle skew diagnostic."""
    from oboyu_ray.stages.validate import key_skew_report

    events = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return key_skew_report(events, "user_id", top_n=10)


SQL_USER_SKEW_REPORT = """
WITH c AS (
    SELECT user_id, count(*)::BIGINT AS n FROM events GROUP BY user_id
), t AS (SELECT sum(n)::HUGEINT AS total FROM c),
r AS (
    SELECT user_id, n,
           row_number() OVER (ORDER BY n DESC, user_id ASC) AS rk,
           sum(n) OVER (ORDER BY n DESC, user_id ASC) AS cum
    FROM c
)
SELECT user_id, n AS n_rows,
       (n::HUGEINT * 1000000 // total)::BIGINT AS share_ppm,
       (cum::HUGEINT * 1000000 // total)::BIGINT AS cum_ppm
FROM r, t WHERE rk <= 10
"""


def q_documents_checksum(sf_dir: str) -> "pd.DataFrame":
    """Order-insensitive md5 content checksum of the documents table —
    the migration/replication equality proof (modular row-hash sum:
    independent of row order, partitioning, and batch boundaries)."""
    from oboyu_ray.stages.validate import table_checksum

    return table_checksum(_docs(sf_dir), "doc_id", "text")


SQL_DOCUMENTS_CHECKSUM = """
SELECT count(*)::BIGINT AS n_rows,
       (sum(('0x' || substr(md5(doc_id::VARCHAR || '|' || COALESCE(text, '')), 1, 15))
                ::BIGINT::HUGEINT) % 2305843009213693951)::BIGINT AS checksum
FROM documents
"""


def q_price_percentiles_cont(sf_dir: str) -> "pd.DataFrame":
    """Interpolated (quantile_cont / percentile_cont) price percentiles —
    the same sort-free streaming rank selection as `price_quantiles`, with
    the two bracketing order statistics per target interpolated via the
    DuckDB-pinned ``lo·(1−frac) + hi·frac`` expression (bit-exact)."""
    from oboyu_ray.stages.quantiles import exact_quantiles_cont

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    return exact_quantiles_cont(
        li, "l_extendedprice", [0.25, 0.5, 0.75, 0.9, 0.99]
    )


SQL_PRICE_PERCENTILES_CONT = " UNION ALL ".join(
    f"SELECT {int(q * 1e6)}::BIGINT AS q_micros, "
    f"quantile_cont(l_extendedprice, {q}) AS value FROM lineitem"
    for q in (0.25, 0.5, 0.75, 0.9, 0.99)
)


def q_price_robust_dispersion(sf_dir: str) -> "pd.DataFrame":
    """Robust dispersion of order prices: median + median absolute
    deviation — two chained streaming rank selections (no sort)."""
    from oboyu_ray.stages.quantiles import mad

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"]
    )
    return mad(orders, "o_totalprice")


SQL_PRICE_ROBUST_DISPERSION = """
SELECT quantile_cont(o_totalprice, 0.5) AS median,
       mad(o_totalprice) AS mad_value
FROM orders
"""


def q_weighted_sample(sf_dir: str) -> "pd.DataFrame":
    """Reproducible weighted sampling without replacement (Efraimidis–
    Spirakis over md5-uniforms): 100 orders drawn proportional to price."""
    from oboyu_ray.stages.trainprep import weighted_sample

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    return weighted_sample(orders, "o_orderkey", "o_totalprice", k=100)


SQL_WEIGHTED_SAMPLE = """
SELECT o_orderkey, o_totalprice
FROM orders
ORDER BY pow((('0x' || substr(md5(CAST(o_orderkey AS VARCHAR)), 1, 13))::BIGINT + 1)
                 / 4503599627370496.0,
             1.0 / o_totalprice) DESC,
         o_orderkey ASC
LIMIT 100
"""


def q_bm25_topk_conjunctive(sf_dir: str) -> "pd.DataFrame":
    """Conjunctive (AND) BM25 retrieval: only documents containing EVERY
    distinct query term rank — boolean-AND candidate semantics with the
    ordinary BM25 score order.  A corpus-absent query term makes that
    query's result empty (strict AND), mirrored in the oracle by counting
    contrib rows against the full qterms list."""
    from oboyu_ray.pipelines.bm25_batch import brute_force_topk, tokenize_queries
    from oboyu_ray.pipelines.entry_queries import BM25_QUERIES, CFG, TOPK as _K

    docs = _docs(sf_dir)
    queries = tokenize_queries(BM25_QUERIES, CFG)
    return brute_force_topk(docs, queries, k=_K, cfg=CFG, require_all=True)


def _sql_bm25_topk_conjunctive() -> str:
    from oboyu_ray.pipelines.bm25_batch import tokenize_queries
    from oboyu_ray.pipelines.entry_queries import (
        BM25_QUERIES,
        CFG,
        SQL_POSTINGS_CTE,
        TOPK as _K,
    )

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
nq AS (SELECT query_id, count(*)::BIGINT AS need FROM qterms GROUP BY 1),
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
    SELECT query_id, doc_id, sum(c) AS score, count(*)::BIGINT AS nt
    FROM contrib GROUP BY 1, 2
),
ranked AS (
    SELECT s.query_id, s.doc_id,
           CAST(floor(s.score * 1e6 + 0.5) AS BIGINT) AS score_micros,
           ROW_NUMBER() OVER (
               PARTITION BY s.query_id
               ORDER BY CAST(floor(s.score * 1e6 + 0.5) AS BIGINT) DESC, s.doc_id ASC
           )::BIGINT AS rank
    FROM scores s JOIN nq ON nq.query_id = s.query_id
    WHERE s.nt = nq.need
)
SELECT query_id, doc_id, score_micros, rank FROM ranked WHERE rank <= {_K}
"""


def q_events_daily_ohlc(sf_dir: str) -> "pd.DataFrame":
    """Per-day OHLC bars over the event value stream (open/close witness
    (ts, event_id) tie-break; zero shuffles, bounded calendar fold)."""
    from oboyu_ray.stages.window import daily_ohlc

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "value", "event_id"]
    )
    return daily_ohlc(events)


SQL_EVENTS_DAILY_OHLC = """
WITH e AS (
    SELECT time_bucket(INTERVAL 1 DAY, ts) AS day, ts, event_id, value
    FROM events
), r AS (
    SELECT day, value,
           row_number() OVER (PARTITION BY day ORDER BY ts ASC, event_id ASC) AS rf,
           row_number() OVER (PARTITION BY day ORDER BY ts DESC, event_id DESC) AS rl
    FROM e
)
SELECT day,
       min(CASE WHEN rf = 1 THEN value END) AS open_value,
       max(value) AS high_value,
       min(value) AS low_value,
       min(CASE WHEN rl = 1 THEN value END) AS close_value,
       count(*)::BIGINT AS n_events
FROM r GROUP BY day
"""


def q_value_percentiles_by_type(sf_dir: str) -> "ray.data.Dataset":
    """Interpolated per-group percentiles (event value per event_type) —
    grouped_quantiles in quantile_cont mode (string groups, DuckDB-pinned
    lerp; one lexsort per group bucket)."""
    from oboyu_ray.stages.quantiles import grouped_quantiles

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return grouped_quantiles(
        events, "event_type", "value", GQ_QS, interpolated=True
    )


SQL_VALUE_PERCENTILES_BY_TYPE = "\nUNION ALL\n".join(
    f"SELECT event_type, CAST({int(round(q * 1e6))} AS BIGINT) AS q_micros, "
    f"quantile_cont(value, {q}) AS value FROM events GROUP BY event_type"
    for q in GQ_QS
)


def q_leakage_safe_split(sf_dir: str) -> "pd.DataFrame":
    """Leakage-safe train/val split: the unit of assignment is the near-dup
    CLUSTER, not the document — two near-duplicates can never straddle the
    split (the eval-set leakage a naive per-doc hash split causes).
    Composition: memoized ngram-dedup components (docs outside any cluster
    are their own singleton component) → deterministic md5 Bernoulli on the
    COMPONENT id (the `stratified_sample` hash-threshold rule).  Distributed
    as a map over docs with the bounded cluster map broadcast via ray.put
    (clusters ≈ near-dup docs only, tiny next to the corpus)."""
    import hashlib

    cc = q_dedup_clusters(sf_dir)  # (doc_id, component, is_canonical), memoized
    comp_map = dict(
        zip(cc["doc_id"].astype(np.int64), cc["component"].astype(np.int64))
    )
    comp_ref = ray.put(comp_map)

    def assign(t: pa.Table) -> pa.Table:
        cm = ray.get(comp_ref)
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        comp = np.fromiter((cm.get(i, i) for i in ids), dtype=np.int64, count=len(ids))
        split = [
            "train"
            if hashlib.md5(str(c).encode("utf-8")).hexdigest() < "8"
            else "val"
            for c in comp
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "component": pa.array(comp, type=pa.int64()),
                "split": pa.array(split, type=pa.string()),
            }
        )

    out = (
        ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .map_batches(assign, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _sql_leakage_safe_split() -> str:
    return f"""
SELECT d.doc_id,
       COALESCE(c.component, d.doc_id) AS component,
       CASE WHEN md5(CAST(COALESCE(c.component, d.doc_id) AS VARCHAR)) < '8'
            THEN 'train' ELSE 'val' END AS split
FROM documents d
LEFT JOIN ({SQL_DEDUP_CLUSTERS}) c ON d.doc_id = c.doc_id
"""


def q_user_action_context(sf_dir: str) -> "ray.data.Dataset":
    """Context-window concat over the event stream (the SFT-sample shape
    applied generically): per event, the previous 2 event_types of the
    same user ordered by (ts, event_id), joined oldest-first.  ONE
    user-bucketed cogroup, window built from n_prev vectorized
    group-shifts."""
    from oboyu_ray.stages.context import context_window_concat

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "event_type"]
    )
    return context_window_concat(
        events, "user_id", ["ts", "event_id"], "event_type", n_prev=2, sep=" "
    )


SQL_USER_ACTION_CONTEXT = """
SELECT user_id, ts, event_id, event_type,
       COALESCE(string_agg(event_type, ' ') OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN 2 PRECEDING AND 1 PRECEDING
       ), '') AS context
FROM events
"""


def q_revenue_concentration(sf_dir: str) -> "pd.DataFrame":
    """Customer revenue concentration: for each revenue-decile threshold,
    how many customers sit at-or-above it and what integer-ppm share of
    total revenue they hold ("the top customers drive X%" curve).  No
    global sort: ONE grouped sum per customer, streaming exact quantiles
    for the thresholds, one partial-agg pass for the conditional sums,
    Python-int driver division."""
    from oboyu_ray.stages.quantiles import exact_quantiles

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def partial(t: pa.Table) -> pa.Table:
        cust = t.column("o_custkey").to_numpy().astype(np.int64)
        cents = np.floor(
            t.column("o_totalprice").to_numpy().astype(np.float64) * 100 + 0.5
        ).astype(np.int64)
        uk, inv = np.unique(cust, return_inverse=True)
        s = np.zeros(len(uk), dtype=np.int64)
        np.add.at(s, inv, cents)
        return pa.table({"custkey": pa.array(uk), "rev_cents": pa.array(s)})

    # materialized: the quantile refinement + threshold pass iterate this
    # several times, and re-executing the groupby per pass would dominate;
    # per-customer aggregates are orders-of-magnitude smaller than orders
    custrev = (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("custkey")
        .sum("rev_cents")
        .materialize()
    )
    qs = [i / 10 for i in range(1, 10)]
    thr = exact_quantiles(custrev, "sum(rev_cents)", qs)
    thr_vals = thr["value"].to_numpy(np.float64)
    tref = ray.put(thr_vals)

    def above(t: pa.Table) -> pa.Table:
        tv = ray.get(tref)
        rev = t.column("sum(rev_cents)").to_numpy().astype(np.int64)
        n = np.array([(rev >= x).sum() for x in tv], dtype=np.int64)
        s = np.array([int(rev[rev >= x].sum()) for x in tv], dtype=np.int64)
        return pa.table(
            {
                "qi": pa.array(np.arange(len(tv), dtype=np.int64)),
                "n": pa.array(n),
                "s": pa.array(s),
                "ts": pa.array(np.full(len(tv), int(rev.sum()), dtype=np.int64)),
            }
        )

    parts = custrev.map_batches(above, batch_format="pyarrow").to_pandas()
    # per-batch partials summed per decile row; Python-int ppm division
    agg = parts.groupby("qi", sort=True).agg(
        n=("n", "sum"), s=("s", "sum"), ts=("ts", "sum")
    )
    return pd.DataFrame(
        {
            "q_micros": thr["q_micros"].to_numpy(np.int64),
            "threshold_cents": thr_vals.astype(np.int64),
            "n_customers": agg["n"].to_numpy(np.int64),
            "revenue_share_ppm": pd.Series(
                [int(s) * 1_000_000 // int(ts) for s, ts in zip(agg["s"], agg["ts"])],
                dtype=np.int64,
            ),
        }
    )


def _sql_revenue_concentration() -> str:
    # quantile_disc requires CONSTANT fractions → one branch per decile
    branches = "\nUNION ALL\n".join(
        f"""SELECT {int(q * 1e6)}::BIGINT AS q_micros,
       th::BIGINT AS threshold_cents,
       (SELECT count(*) FROM c WHERE rev >= th)::BIGINT AS n_customers,
       ((SELECT sum(rev::HUGEINT) FROM c WHERE rev >= th) * 1000000 // total)::BIGINT
           AS revenue_share_ppm
FROM (SELECT (SELECT quantile_disc(rev, {q}) FROM c) AS th), t"""
        for q in [i / 10 for i in range(1, 10)]
    )
    return f"""
WITH c AS (
    SELECT o_custkey,
           sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS rev
    FROM orders GROUP BY o_custkey
), t AS (SELECT sum(rev::HUGEINT) AS total FROM c)
{branches}
"""


SQL_REVENUE_CONCENTRATION = _sql_revenue_concentration()


# ------------------------------------------------- TPC-H-shaped completions

_JOIN_GOLD = np.uint64(0x9E3779B97F4A7C15)
_TPCH_BUCKETS = 64


def _jbucket(key: np.ndarray, n: int = _TPCH_BUCKETS) -> pa.Array:
    with np.errstate(over="ignore"):
        return pa.array(
            ((key.astype(np.uint64) * _JOIN_GOLD) % np.uint64(n)).astype(np.int64)
        )


def q_order_priority_wait(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q4 shape: per order priority, how many orders have ANY line
    shipped after the order date.  EXISTS-with-predicate folds to a scalar
    compare by pre-aggregating lineitem to per-order max(l_shipdate) —
    map-side partials, then ONE co-shuffle on hash(orderkey): each bucket
    completes the per-order max, joins its orders, and emits per-priority
    partial counts; the driver folds ≤5 rows per bucket."""
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )

    def lmax(t: pa.Table) -> pa.Table:
        pre = pa.table(
            {
                "okey": t.column("l_orderkey").cast(pa.int64()),
                "ship_us": t.column("l_shipdate").cast(pa.timestamp("us")).cast(pa.int64()),
            }
        )
        g = pre.group_by("okey").aggregate([("ship_us", "max")])
        k = g.column("okey").to_numpy().astype(np.int64)
        n = g.num_rows
        return pa.table(
            {
                "jb": _jbucket(k),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "okey": g.column("okey"),
                "ship_us": g.column("ship_us_max"),
                "odate_us": pa.array(np.zeros(n, dtype=np.int64)),
                "opri": pa.array([""] * n, pa.string()),
            }
        )

    def otag(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.num_rows
        return pa.table(
            {
                "jb": _jbucket(k),
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "okey": pa.array(k),
                "ship_us": pa.array(np.zeros(n, dtype=np.int64)),
                "odate_us": t.column("o_orderdate").cast(pa.timestamp("us")).cast(pa.int64()),
                "opri": t.column("o_orderpriority"),
            }
        )

    def merge_cnt(g: "pd.DataFrame") -> "pd.DataFrame":
        lef = g[g["side"] == 0]
        rig = g[g["side"] == 1]
        mx = lef.groupby("okey", as_index=False)["ship_us"].max()
        j = mx.merge(rig[["okey", "odate_us", "opri"]], on="okey", how="inner")
        j = j[j["ship_us"].to_numpy() > j["odate_us"].to_numpy()]
        out = j.groupby("opri", as_index=False).size()
        return out.rename(columns={"opri": "o_orderpriority", "size": "order_count"})

    both = li.map_batches(lmax, batch_format="pyarrow").union(
        orders.map_batches(otag, batch_format="pyarrow")
    )
    parts = [
        b
        for b in both.groupby("jb")
        .map_groups(merge_cnt, batch_format="pandas")
        .iter_batches(batch_format="pandas")
        if len(b)
    ]
    if not parts:
        return pd.DataFrame(
            {"o_orderpriority": pd.Series(dtype=object),
             "order_count": pd.Series(dtype=np.int64)}
        )
    out = (
        pd.concat(parts, ignore_index=True)
        .groupby("o_orderpriority", as_index=False)["order_count"]
        .sum()
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )
    out["order_count"] = out["order_count"].astype(np.int64)
    return out


SQL_ORDER_PRIORITY_WAIT = """
SELECT o_orderpriority, count(*)::BIGINT AS order_count
FROM orders o
WHERE EXISTS (
    SELECT 1 FROM lineitem l
    WHERE l.l_orderkey = o.o_orderkey AND l.l_shipdate > o.o_orderdate
)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def q_waiting_suppliers(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q21 shape (suppliers who kept orders waiting): for finished
    ('F') orders with >= 2 distinct suppliers, credit the supplier whose
    lines were the ONLY late ones (late := max ship date > order date +
    60 days); top 20 suppliers by credited-order count.

    The double EXISTS/NOT-EXISTS anti-join folds to per-order SET logic
    after ONE co-shuffle on hash(orderkey): lineitem pre-aggregates to
    per-(order, supplier) max ship date map-side (the only big exchange is
    those partials), each bucket joins its 'F' orders and emits per-supplier
    partial credit counts, and the driver folds <= #suppliers rows, attaching
    s_name from a pruned point read of the tiny supplier dimension."""
    LATE_US = 60 * 86_400 * 1_000_000  # 60 days in timestamp[us] units

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
    )

    def lpre(t: pa.Table) -> pa.Table:
        pre = pa.table(
            {
                "okey": t.column("l_orderkey").cast(pa.int64()),
                "skey": t.column("l_suppkey").cast(pa.int64()),
                "ship_us": t.column("l_shipdate")
                .cast(pa.timestamp("us")).cast(pa.int64()),
            }
        )
        g = pre.group_by(["okey", "skey"]).aggregate([("ship_us", "max")])
        k = g.column("okey").to_numpy().astype(np.int64)
        n = g.num_rows
        return pa.table(
            {
                "jb": _jbucket(k),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "okey": g.column("okey"),
                "skey": g.column("skey"),
                "ship_us": g.column("ship_us_max"),
                "odate_us": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    def otag(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("o_orderstatus"), "F"))
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.num_rows
        return pa.table(
            {
                "jb": _jbucket(k),
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "okey": pa.array(k),
                "skey": pa.array(np.zeros(n, dtype=np.int64)),
                "ship_us": pa.array(np.zeros(n, dtype=np.int64)),
                "odate_us": t.column("o_orderdate")
                .cast(pa.timestamp("us")).cast(pa.int64()),
            }
        )

    def credit(g: "pd.DataFrame") -> "pd.DataFrame":
        # complete the per-(order, supplier) max: lpre's group_by is
        # per-BATCH, so the same (okey, skey) may arrive as several partials
        lef = (
            g[g["side"] == 0]
            .groupby(["okey", "skey"], as_index=False)["ship_us"].max()
        )
        rig = g[g["side"] == 1][["okey", "odate_us"]]
        j = lef.merge(rig, on="okey", how="inner")  # keeps 'F' orders only
        if not len(j):
            return pd.DataFrame({"skey": pd.Series(dtype=np.int64),
                                 "numwait": pd.Series(dtype=np.int64)})
        j = j.assign(late=j["ship_us"].to_numpy()
                     > j["odate_us"].to_numpy() + LATE_US)
        per = j.groupby("okey").agg(n_sups=("skey", "size"),
                                    n_late=("late", "sum"))
        # the single late supplier of each credited order
        one = per[(per["n_sups"] >= 2) & (per["n_late"] == 1)].index
        lj = j[j["late"] & j["okey"].isin(one)]
        out = lj.groupby("skey", as_index=False).size()
        return out.rename(columns={"size": "numwait"})

    both = li.map_batches(lpre, batch_format="pyarrow").union(
        orders.map_batches(otag, batch_format="pyarrow")
    )
    parts = [
        b
        for b in both.groupby("jb")
        .map_groups(credit, batch_format="pandas")
        .iter_batches(batch_format="pandas")
        if len(b)
    ]
    empty = pd.DataFrame({"s_name": pd.Series(dtype=object),
                          "numwait": pd.Series(dtype=np.int64)})
    if not parts:
        return empty
    agg = (
        pd.concat(parts, ignore_index=True)
        .groupby("skey", as_index=False)["numwait"].sum()
    )
    import pyarrow.parquet as pq

    names = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).to_pandas()
    out = agg.merge(names, left_on="skey", right_on="s_suppkey", how="inner")
    out = out.sort_values(["numwait", "s_name"], ascending=[False, True],
                          kind="mergesort").head(20)
    out = out[["s_name", "numwait"]].reset_index(drop=True)
    out["numwait"] = out["numwait"].astype(np.int64)
    return out


SQL_WAITING_SUPPLIERS = """
WITH l AS (
    SELECT l_orderkey, l_suppkey, max(l_shipdate) AS mship
    FROM lineitem GROUP BY 1, 2
),
j AS (
    SELECT l.l_orderkey, l.l_suppkey,
           (l.mship > o.o_orderdate + INTERVAL 60 DAY) AS late
    FROM l JOIN orders o ON o.o_orderkey = l.l_orderkey
    WHERE o.o_orderstatus = 'F'
),
per_order AS (
    SELECT l_orderkey, count(*) AS n_sups,
           sum(CASE WHEN late THEN 1 ELSE 0 END) AS n_late,
           max(CASE WHEN late THEN l_suppkey END) AS late_sup
    FROM j GROUP BY 1
),
credit AS (
    SELECT late_sup AS sk FROM per_order WHERE n_sups >= 2 AND n_late = 1
)
SELECT s.s_name, count(*)::BIGINT AS numwait
FROM credit c JOIN supplier s ON s.s_suppkey = c.sk
GROUP BY 1
ORDER BY numwait DESC, s_name ASC
LIMIT 20
"""


def q_large_volume_customers(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q18 shape (large-volume customers): orders whose total line
    quantity exceeds 150, with customer name, ordered by (o_totalprice
    DESC, o_orderdate ASC, o_orderkey ASC), top 20.

    The HAVING-on-aggregate semi-join is ONE hash(orderkey) co-shuffle:
    lineitem folds to per-order int64 quantity partials map-side
    (l_quantity is integral in this schema — exact summation, no float
    order sensitivity), each bucket completes the sum, filters the
    threshold and joins its orders; survivors are rare, so the driver fold
    is bounded and c_name attaches from the small customer dimension."""
    QTY_MIN = 150

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
    )

    def lqty(t: pa.Table) -> pa.Table:
        pre = pa.table(
            {
                "okey": t.column("l_orderkey").cast(pa.int64()),
                "qty": t.column("l_quantity").cast(pa.int64()),
            }
        )
        g = pre.group_by("okey").aggregate([("qty", "sum")])
        n = g.num_rows
        k = g.column("okey").to_numpy().astype(np.int64)
        return pa.table(
            {
                "jb": _jbucket(k),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "okey": g.column("okey"),
                "qty": g.column("qty_sum"),
                "ckey": pa.array(np.zeros(n, dtype=np.int64)),
                "price": pa.array(np.zeros(n, dtype=np.float64)),
                "odate_us": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    def otag(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.num_rows
        return pa.table(
            {
                "jb": _jbucket(k),
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "okey": pa.array(k),
                "qty": pa.array(np.zeros(n, dtype=np.int64)),
                "ckey": t.column("o_custkey").cast(pa.int64()),
                "price": t.column("o_totalprice").cast(pa.float64()),
                "odate_us": t.column("o_orderdate")
                .cast(pa.timestamp("us")).cast(pa.int64()),
            }
        )

    def pick(g: "pd.DataFrame") -> "pd.DataFrame":
        # complete the per-order sum (map-side partials may split an order)
        tot = (
            g[g["side"] == 0]
            .groupby("okey", as_index=False)["qty"].sum()
        )
        tot = tot[tot["qty"] > QTY_MIN]
        if not len(tot):
            return pd.DataFrame(
                {"okey": pd.Series(dtype=np.int64),
                 "ckey": pd.Series(dtype=np.int64),
                 "price": pd.Series(dtype=np.float64),
                 "odate_us": pd.Series(dtype=np.int64),
                 "total_qty": pd.Series(dtype=np.int64)}
            )
        rig = g[g["side"] == 1][["okey", "ckey", "price", "odate_us"]]
        j = tot.merge(rig, on="okey", how="inner")
        return j.rename(columns={"qty": "total_qty"})[
            ["okey", "ckey", "price", "odate_us", "total_qty"]
        ]

    both = li.map_batches(lqty, batch_format="pyarrow").union(
        orders.map_batches(otag, batch_format="pyarrow")
    )
    parts = [
        b
        for b in both.groupby("jb")
        .map_groups(pick, batch_format="pandas")
        .iter_batches(batch_format="pandas")
        if len(b)
    ]
    empty = pd.DataFrame(
        {"c_name": pd.Series(dtype=object),
         "o_orderkey": pd.Series(dtype=np.int64),
         "o_orderdate": pd.Series(dtype="datetime64[us]"),
         "o_totalprice": pd.Series(dtype=np.float64),
         "total_qty": pd.Series(dtype=np.int64)}
    )
    if not parts:
        return empty
    import pyarrow.parquet as pq

    agg = pd.concat(parts, ignore_index=True)
    names = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).to_pandas()
    out = agg.merge(names, left_on="ckey", right_on="c_custkey", how="inner")
    out = out.sort_values(["price", "odate_us", "okey"],
                          ascending=[False, True, True],
                          kind="mergesort").head(20)
    out = pd.DataFrame(
        {
            "c_name": out["c_name"].to_numpy(),
            "o_orderkey": out["okey"].to_numpy(dtype=np.int64),
            "o_orderdate": pd.to_datetime(out["odate_us"].to_numpy(), unit="us"),
            "o_totalprice": out["price"].to_numpy(dtype=np.float64),
            "total_qty": out["total_qty"].to_numpy(dtype=np.int64),
        }
    )
    return out


SQL_LARGE_VOLUME_CUSTOMERS = """
WITH big AS (
    SELECT l_orderkey, sum(l_quantity)::BIGINT AS total_qty
    FROM lineitem GROUP BY 1 HAVING sum(l_quantity) > 150
)
SELECT c.c_name, o.o_orderkey, o.o_orderdate, o.o_totalprice, b.total_qty
FROM big b
JOIN orders o ON o.o_orderkey = b.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
ORDER BY o.o_totalprice DESC, o.o_orderdate ASC, o.o_orderkey ASC
LIMIT 20
"""


def q_ship_lag_priority(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q12 shape over available columns: lines bucketed by shipping
    lag (days from order date to ship date: 0-7 / 8-30 / 31+), counting
    high-priority (1-URGENT, 2-HIGH) vs lower-priority lines per bucket.
    Lineitem pre-combines per (orderkey, ship-day) before the ONE
    co-shuffle with orders on hash(orderkey); per-bucket partials are ≤3
    rows, driver-folded."""
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )

    def ltag(t: pa.Table) -> pa.Table:
        pre = pa.table(
            {
                "okey": t.column("l_orderkey").cast(pa.int64()),
                "ship_us": t.column("l_shipdate").cast(pa.timestamp("us")).cast(pa.int64()),
            }
        )
        g = pre.group_by(["okey", "ship_us"]).aggregate([([], "count_all")])
        k = g.column("okey").to_numpy().astype(np.int64)
        n = g.num_rows
        return pa.table(
            {
                "jb": _jbucket(k),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "okey": g.column("okey"),
                "ship_us": g.column("ship_us"),
                "cnt": g.column("count_all").cast(pa.int64()),
                "odate_us": pa.array(np.zeros(n, dtype=np.int64)),
                "opri": pa.array([""] * n, pa.string()),
            }
        )

    def otag(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.num_rows
        return pa.table(
            {
                "jb": _jbucket(k),
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "okey": pa.array(k),
                "ship_us": pa.array(np.zeros(n, dtype=np.int64)),
                "cnt": pa.array(np.zeros(n, dtype=np.int64)),
                "odate_us": t.column("o_orderdate").cast(pa.timestamp("us")).cast(pa.int64()),
                "opri": t.column("o_orderpriority"),
            }
        )

    US_DAY = 86_400_000_000

    def merge_lag(g: "pd.DataFrame") -> "pd.DataFrame":
        lef = g[g["side"] == 0]
        rig = g[g["side"] == 1]
        j = lef[["okey", "ship_us", "cnt"]].merge(
            rig[["okey", "odate_us", "opri"]], on="okey", how="inner"
        )
        if j.empty:
            return pd.DataFrame(
                {"lag_bucket": pd.Series(dtype=object),
                 "high_count": pd.Series(dtype=np.int64),
                 "low_count": pd.Series(dtype=np.int64)}
            )
        lag = np.floor_divide(
            j["ship_us"].to_numpy() - j["odate_us"].to_numpy(), US_DAY
        )
        bucket = np.where(lag <= 7, "0-7", np.where(lag <= 30, "8-30", "31+"))
        high = j["opri"].isin(["1-URGENT", "2-HIGH"]).to_numpy()
        cnt = j["cnt"].to_numpy(dtype=np.int64)
        out = pd.DataFrame(
            {
                "lag_bucket": bucket,
                "high_count": np.where(high, cnt, 0),
                "low_count": np.where(high, 0, cnt),
            }
        )
        return out.groupby("lag_bucket", as_index=False).sum()

    both = li.map_batches(ltag, batch_format="pyarrow").union(
        orders.map_batches(otag, batch_format="pyarrow")
    )
    parts = [
        b
        for b in both.groupby("jb")
        .map_groups(merge_lag, batch_format="pandas")
        .iter_batches(batch_format="pandas")
        if len(b)
    ]
    if not parts:
        return pd.DataFrame(
            {"lag_bucket": pd.Series(dtype=object),
             "high_count": pd.Series(dtype=np.int64),
             "low_count": pd.Series(dtype=np.int64)}
        )
    out = (
        pd.concat(parts, ignore_index=True)
        .groupby("lag_bucket", as_index=False)
        .sum()
        .sort_values("lag_bucket")
        .reset_index(drop=True)
    )
    return out.astype({"high_count": "int64", "low_count": "int64"})


SQL_SHIP_LAG_PRIORITY = """
WITH j AS (
    SELECT CASE
             WHEN CAST(floor((epoch(l_shipdate) - epoch(o_orderdate)) / 86400.0)
                       AS BIGINT) <= 7 THEN '0-7'
             WHEN CAST(floor((epoch(l_shipdate) - epoch(o_orderdate)) / 86400.0)
                       AS BIGINT) <= 30 THEN '8-30'
             ELSE '31+'
           END AS lag_bucket,
           (o_orderpriority IN ('1-URGENT', '2-HIGH')) AS hi
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
)
SELECT lag_bucket,
       sum(CASE WHEN hi THEN 1 ELSE 0 END)::BIGINT AS high_count,
       sum(CASE WHEN hi THEN 0 ELSE 1 END)::BIGINT AS low_count
FROM j GROUP BY lag_bucket ORDER BY lag_bucket
"""


def q_promo_revenue(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q14 shape: revenue share of PROMO-type parts.  The part table
    is the dimension side — its (sorted partkey array, is-promo bitmap)
    broadcasts once via ray.put; lineitem folds to per-batch (promo, total)
    micros partials; the driver sums two integers.  ppm is the identical
    float64 expression on both sides."""
    from oboyu_ray.fixedpoint import micros as _mic

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).to_pandas()
    order = np.argsort(part["p_partkey"].to_numpy(np.int64), kind="stable")
    pkeys = part["p_partkey"].to_numpy(np.int64)[order]
    promo = (part["p_type"].to_numpy() == "PROMO")[order]
    pk_ref = ray.put((pkeys, promo))

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        keys, isp = ray.get(pk_ref)
        lk = t.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        rev = _mic(price * (1.0 - disc)).astype(np.int64)
        ix = np.searchsorted(keys, lk)
        hit = (ix < len(keys)) & (keys[np.minimum(ix, len(keys) - 1)] == lk)
        p = isp[np.minimum(ix, len(keys) - 1)] & hit
        return pa.table(
            {
                "promo_rev": pa.array([int(rev[p].sum())], type=pa.int64()),
                "total_rev": pa.array([int(rev[hit].sum())], type=pa.int64()),
            }
        )

    agg = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    promo_rev = int(agg["promo_rev"].sum())
    total_rev = int(agg["total_rev"].sum())
    ppm = (
        int(np.floor(float(promo_rev) * 1e6 / float(total_rev) + 0.5))
        if total_rev
        else 0
    )
    return pd.DataFrame(
        {
            "promo_ppm": pd.array([ppm], dtype="int64"),
            "promo_rev_micros": pd.array([promo_rev], dtype="int64"),
            "total_rev_micros": pd.array([total_rev], dtype="int64"),
        }
    )


SQL_PROMO_REVENUE = """
WITH j AS (
    SELECT CAST(floor(l_extendedprice * (1.0 - l_discount) * 1e6 + 0.5)
                AS BIGINT) AS rev,
           (p_type = 'PROMO') AS isp
    FROM lineitem JOIN part ON l_partkey = p_partkey
),
s AS (
    SELECT sum(CASE WHEN isp THEN rev ELSE 0 END)::BIGINT AS promo_rev,
           sum(rev)::BIGINT AS total_rev
    FROM j
)
SELECT CAST(floor(CAST(promo_rev AS DOUBLE) * 1e6 / CAST(total_rev AS DOUBLE)
                  + 0.5) AS BIGINT) AS promo_ppm,
       promo_rev AS promo_rev_micros,
       total_rev AS total_rev_micros
FROM s
"""


IDLE_BIGORDER_CUTOFF = 450_000.0  # ~p90 of o_totalprice in the testdata


def q_idle_highvalue_customers(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q22 shape: customers with above-average positive account
    balance and NO large order (o_totalprice > 450k — every synthetic
    customer has SOME order, so the classic no-orders predicate is vacuous
    here), counted per market segment.  The average is an exact integer
    threshold (c_micros > sum_micros // count — for integers this equals
    c > sum/count, no float in the comparison); the no-large-order side is
    the hash-bucketed ANTI join against the scan-filtered orders; the
    ≤5-segment final aggregate is driver-folded."""
    from oboyu_ray.fixedpoint import micros as _mic
    from oboyu_ray.stages.relational import hash_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_acctbal", "c_mktsegment"],
    )

    def bal_partial(t: pa.Table) -> pa.Table:
        bal = _mic(t.column("c_acctbal").to_numpy(zero_copy_only=False)).astype(np.int64)
        pos = bal > 0
        return pa.table(
            {
                "s": pa.array([int(bal[pos].sum())], type=pa.int64()),
                "n": pa.array([int(pos.sum())], type=pa.int64()),
            }
        )

    bp = cust.map_batches(bal_partial, batch_format="pyarrow").to_pandas()
    s, n = int(bp["s"].sum()), int(bp["n"].sum())
    thresh = (s // n) if n else np.iinfo(np.int64).max  # exact integer floor

    def above(t: pa.Table) -> pa.Table:
        bal = _mic(t.column("c_acctbal").to_numpy(zero_copy_only=False)).astype(np.int64)
        sel = t.filter(pa.array(bal > thresh))
        return pa.table(
            {
                "c_custkey": sel.column("c_custkey").cast(pa.int64()),
                "bal_micros": pa.array(
                    _mic(sel.column("c_acctbal").to_numpy(zero_copy_only=False)).astype(np.int64),
                    type=pa.int64(),
                ),
                "c_mktsegment": sel.column("c_mktsegment"),
            }
        )

    rich = cust.map_batches(above, batch_format="pyarrow")
    okeys = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).filter(expr=f"o_totalprice > {IDLE_BIGORDER_CUTOFF}").select_columns(["o_custkey"])
    idle = hash_join(
        rich, okeys, "c_custkey", "o_custkey", how="anti",
        left_schema=pa.schema(
            [("c_custkey", pa.int64()), ("bal_micros", pa.int64()),
             ("c_mktsegment", pa.string())]
        ),
        right_schema=pa.schema([("o_custkey", pa.int64())]),
    )

    def seg_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("c_mktsegment").aggregate(
            [("bal_micros", "sum"), ("c_custkey", "count")]
        )
        return pa.table(
            {
                "c_mktsegment": g.column("c_mktsegment"),
                "acctbal_micros": g.column("bal_micros_sum").cast(pa.int64()),
                "n_customers": g.column("c_custkey_count").cast(pa.int64()),
            }
        )

    parts = [
        b
        for b in idle.map_batches(seg_partial, batch_format="pyarrow")
        .iter_batches(batch_format="pandas")
        if len(b)
    ]
    if not parts:
        return pd.DataFrame(
            {"c_mktsegment": pd.Series(dtype=object),
             "n_customers": pd.Series(dtype=np.int64),
             "acctbal_micros": pd.Series(dtype=np.int64)}
        )
    out = (
        pd.concat(parts, ignore_index=True)
        .groupby("c_mktsegment", as_index=False)
        .sum()
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )
    return out[["c_mktsegment", "n_customers", "acctbal_micros"]].astype(
        {"n_customers": "int64", "acctbal_micros": "int64"}
    )


SQL_IDLE_HIGHVALUE_CUSTOMERS = """
WITH cm AS (
    SELECT c_custkey, c_mktsegment,
           CAST(floor(c_acctbal * 1e6 + 0.5) AS BIGINT) AS bal
    FROM customer
),
thresh AS (
    SELECT CAST(sum(bal) // count(*) AS BIGINT) AS t FROM cm WHERE bal > 0
)
SELECT c_mktsegment,
       count(*)::BIGINT AS n_customers,
       sum(bal)::BIGINT AS acctbal_micros
FROM cm, thresh
WHERE bal > t
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = cm.c_custkey
                    AND o.o_totalprice > 450000.0)
GROUP BY c_mktsegment
ORDER BY c_mktsegment
"""


def q_revenue_cube(sf_dir: str) -> "ray.data.Dataset":
    """GROUP BY CUBE in one distributed pass: order counts + revenue over
    all four grouping sets of (status, priority) — the full cross of
    subtotals, unlike ROLLUP's prefix chain.  Per-batch partials per set,
    one groupby fold."""
    from oboyu_ray.fixedpoint import micros
    from oboyu_ray.stages.relational import cube_sum

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
    )

    def fix(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderstatus": t.column("o_orderstatus"),
                "o_orderpriority": t.column("o_orderpriority"),
                "price_micros": pa.array(
                    micros(t.column("o_totalprice").to_numpy(zero_copy_only=False)),
                    type=pa.int64(),
                ),
            }
        )

    return cube_sum(
        orders.map_batches(fix, batch_format="pyarrow"),
        keys=["o_orderstatus", "o_orderpriority"],
        value_col="price_micros",
        n_name="n_orders",
        sum_name="revenue_micros",
    )


SQL_REVENUE_CUBE = """
SELECT COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
       COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
       count(*)::BIGINT AS n_orders,
       sum(CAST(floor(o_totalprice * 1e6 + 0.5) AS BIGINT))::BIGINT AS revenue_micros
FROM orders
GROUP BY CUBE (o_orderstatus, o_orderpriority)
"""


def q_top_return_customers(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q10 shape: top-20 customers by revenue of RETURNED lineitems.
    Returned-line revenue pre-combines per orderkey, co-shuffles ONCE with
    orders on hash(orderkey) (bucket cogroup joins and re-emits partials
    keyed by custkey), then a second custkey-bucketed fold emits bucket-
    local top-20s (a custkey lives wholly in one bucket, so the global
    top-20 is a prefix of the ≤20·buckets merged rows).  Customer name and
    nation attach on the driver for the 20 survivors only — dimensions
    never shuffle."""
    from oboyu_ray.fixedpoint import micros as _mic

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )

    def lrev(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("l_returnflag"), "R"))
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        pre = pa.table(
            {
                "okey": t.column("l_orderkey").cast(pa.int64()),
                "rev": pa.array(_mic(price * (1.0 - disc)), pa.int64()),
            }
        )
        g = pre.group_by("okey").aggregate([("rev", "sum")])
        k = g.column("okey").to_numpy().astype(np.int64)
        n = g.num_rows
        return pa.table(
            {
                "jb": _jbucket(k),
                "side": pa.array(np.zeros(n, dtype=np.int64)),
                "okey": g.column("okey"),
                "rev": g.column("rev_sum").cast(pa.int64()),
                "ckey": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    def otag(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.num_rows
        return pa.table(
            {
                "jb": _jbucket(k),
                "side": pa.array(np.ones(n, dtype=np.int64)),
                "okey": pa.array(k),
                "rev": pa.array(np.zeros(n, dtype=np.int64)),
                "ckey": t.column("o_custkey").cast(pa.int64()),
            }
        )

    def to_cust(g: "pd.DataFrame") -> "pd.DataFrame":
        lef = g[g["side"] == 0]
        rig = g[g["side"] == 1]
        sums = lef.groupby("okey", as_index=False)["rev"].sum()
        j = sums.merge(rig[["okey", "ckey"]], on="okey", how="inner")
        out = j.groupby("ckey", as_index=False)["rev"].sum()
        ck = out["ckey"].to_numpy(np.uint64)
        out["cb"] = (ck % np.uint64(_TPCH_BUCKETS)).astype(np.int64)
        return out

    def cust_top(g: "pd.DataFrame") -> "pd.DataFrame":
        out = g.groupby("ckey", as_index=False)["rev"].sum()
        return out.sort_values(
            ["rev", "ckey"], ascending=[False, True], kind="mergesort"
        ).head(20)

    both = li.map_batches(lrev, batch_format="pyarrow").union(
        orders.map_batches(otag, batch_format="pyarrow")
    )
    parts = [
        b
        for b in both.groupby("jb")
        .map_groups(to_cust, batch_format="pandas")
        .groupby("cb")
        .map_groups(cust_top, batch_format="pandas")
        .iter_batches(batch_format="pandas")
        if len(b)
    ]
    if not parts:
        return pd.DataFrame(
            {"c_custkey": pd.Series(dtype=np.int64),
             "c_name": pd.Series(dtype=object),
             "n_name": pd.Series(dtype=object),
             "revenue_micros": pd.Series(dtype=np.int64)}
        )
    top = (
        pd.concat(parts, ignore_index=True)
        .sort_values(["rev", "ckey"], ascending=[False, True], kind="mergesort")
        .head(20)
        .reset_index(drop=True)
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_nationkey"]
    ).to_pandas()
    nat = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    cmap = cust.set_index("c_custkey")
    nmap = nat.set_index("n_nationkey")["n_name"]
    return pd.DataFrame(
        {
            "c_custkey": top["ckey"].astype(np.int64),
            "c_name": top["ckey"].map(cmap["c_name"]),
            "n_name": top["ckey"].map(cmap["c_nationkey"]).map(nmap),
            "revenue_micros": top["rev"].astype(np.int64),
        }
    )


SQL_TOP_RETURN_CUSTOMERS = """
SELECT c.c_custkey, c.c_name, n.n_name,
       sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 1e6 + 0.5)
                AS BIGINT))::BIGINT AS revenue_micros
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
WHERE l.l_returnflag = 'R'
GROUP BY c.c_custkey, c.c_name, n.n_name
ORDER BY revenue_micros DESC, c.c_custkey
LIMIT 20
"""


def q_forecast_revenue(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q6 shape: potential revenue from lifting small discounts on
    low-quantity lines in one year — a pure scan-filter-sum: predicate at
    the batch, per-row fixed-point, two int64 partials per batch, driver
    adds integers.  Zero shuffles."""
    from oboyu_ray.fixedpoint import micros as _mic

    lo = np.datetime64("1997-01-01", "us")
    hi = np.datetime64("1998-01-01", "us")
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"],
    )

    def partial(t: pa.Table) -> pa.Table:
        ship = t.column("l_shipdate").to_numpy(zero_copy_only=False).astype("datetime64[us]")
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        qty = t.column("l_quantity").to_numpy(zero_copy_only=False)
        m = (ship >= lo) & (ship < hi) & (disc >= 0.05) & (disc <= 0.07) & (qty < 24)
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)[m]
        rev = _mic(price * disc[m]).astype(np.int64)
        return pa.table(
            {
                "rev": pa.array([int(rev.sum())], type=pa.int64()),
                "n": pa.array([int(m.sum())], type=pa.int64()),
            }
        )

    agg = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {
            "revenue_micros": pd.array([int(agg["rev"].sum())], dtype="int64"),
            "n_lines": pd.array([int(agg["n"].sum())], dtype="int64"),
        }
    )


SQL_FORECAST_REVENUE = """
SELECT sum(CAST(floor(l_extendedprice * l_discount * 1e6 + 0.5)
                AS BIGINT))::BIGINT AS revenue_micros,
       count(*)::BIGINT AS n_lines
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
  AND l_shipdate < TIMESTAMP '1998-01-01'
  AND l_discount >= 0.05 AND l_discount <= 0.07
  AND l_quantity < 24
"""


def q_small_order_revenue(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q17 shape: revenue from lines whose quantity is below 20% of
    their part's average quantity — the self-join-on-aggregate shape.
    Pass 1: per-part (sum_qty, count) map partials → one small part-keyed
    groupby → the per-part threshold broadcasts as a sorted-array lookup
    (parts are a bounded dimension); pass 2 filters at the scan and folds
    two int64 partials.  The threshold compare is the identical float64
    expression on both sides (0.2 * (sum/count))."""
    from ray.data.aggregate import Sum

    from oboyu_ray.fixedpoint import micros as _mic

    li_cols = ["l_partkey", "l_quantity", "l_extendedprice"]

    def qty_partial(t: pa.Table) -> pa.Table:
        pre = pa.table(
            {
                "pk": t.column("l_partkey").cast(pa.int64()),
                "q": t.column("l_quantity").cast(pa.float64()),
            }
        )
        g = pre.group_by("pk").aggregate([("q", "sum"), ([], "count_all")])
        return pa.table(
            {
                "pk": g.column("pk"),
                "qs": g.column("q_sum").cast(pa.float64()),
                "n": g.column("count_all").cast(pa.int64()),
            }
        )

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=li_cols)
    agg = (
        li.map_batches(qty_partial, batch_format="pyarrow")
        .groupby("pk")
        .aggregate(Sum("qs", alias_name="qs"), Sum("n", alias_name="n"))
        .to_pandas()
    )
    pk = agg["pk"].to_numpy(np.int64)
    order = np.argsort(pk, kind="stable")
    pk = pk[order]
    thresh = (
        0.2 * (agg["qs"].to_numpy(np.float64) / agg["n"].to_numpy(np.float64))
    )[order]
    ref = ray.put((pk, thresh))

    def rev_partial(t: pa.Table) -> pa.Table:
        keys, th = ray.get(ref)
        lk = t.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        qty = t.column("l_quantity").to_numpy(zero_copy_only=False)
        ix = np.searchsorted(keys, lk)
        m = qty < th[np.minimum(ix, len(keys) - 1)]
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)[m]
        rev = _mic(price).astype(np.int64)
        return pa.table(
            {
                "rev": pa.array([int(rev.sum())], type=pa.int64()),
                "n": pa.array([int(m.sum())], type=pa.int64()),
            }
        )

    out = li.map_batches(rev_partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {
            "revenue_micros": pd.array([int(out["rev"].sum())], dtype="int64"),
            "n_lines": pd.array([int(out["n"].sum())], dtype="int64"),
        }
    )


SQL_SMALL_ORDER_REVENUE = """
WITH t AS (
    SELECT l_partkey, 0.2 * (sum(l_quantity) / count(*)) AS th
    FROM lineitem GROUP BY l_partkey
)
SELECT sum(CAST(floor(l.l_extendedprice * 1e6 + 0.5) AS BIGINT))::BIGINT
           AS revenue_micros,
       count(*)::BIGINT AS n_lines
FROM lineitem l JOIN t ON l.l_partkey = t.l_partkey
WHERE l.l_quantity < t.th
"""


def q_top_supplier(sf_dir: str) -> "pd.DataFrame":
    """TPC-H Q15 shape: the supplier(s) with maximum lineitem revenue in
    one quarter — ties INCLUDED (the detail Q15 exists to test).  Per-batch
    (suppkey, rev) partials from the scan filter → one small supplier-keyed
    groupby → the max + tie filter is a bounded driver fold; names attach
    from the broadcast-small supplier table for the winners only."""
    from ray.data.aggregate import Sum

    from oboyu_ray.fixedpoint import micros as _mic

    lo = np.datetime64("1997-01-01", "us")
    hi = np.datetime64("1997-04-01", "us")
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def partial(t: pa.Table) -> pa.Table:
        ship = t.column("l_shipdate").to_numpy(zero_copy_only=False).astype("datetime64[us]")
        t = t.filter(pa.array((ship >= lo) & (ship < hi)))
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        pre = pa.table(
            {
                "sk": t.column("l_suppkey").cast(pa.int64()),
                "rev": pa.array(_mic(price * (1.0 - disc)), pa.int64()),
            }
        )
        g = pre.group_by("sk").aggregate([("rev", "sum")])
        return pa.table({"sk": g.column("sk"), "rev": g.column("rev_sum").cast(pa.int64())})

    agg = (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("sk")
        .aggregate(Sum("rev", alias_name="rev"))
        .to_pandas()
    )
    if not len(agg):
        return pd.DataFrame(
            {"s_suppkey": pd.Series(dtype=np.int64),
             "s_name": pd.Series(dtype=object),
             "total_revenue_micros": pd.Series(dtype=np.int64)}
        )
    best = int(agg["rev"].max())
    win = agg[agg["rev"] == best].sort_values("sk")
    sup = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).to_pandas().set_index("s_suppkey")["s_name"]
    return pd.DataFrame(
        {
            "s_suppkey": win["sk"].astype(np.int64).to_numpy(),
            "s_name": win["sk"].map(sup).to_numpy(),
            "total_revenue_micros": win["rev"].astype(np.int64).to_numpy(),
        }
    ).reset_index(drop=True)


SQL_TOP_SUPPLIER = """
WITH revenue AS (
    SELECT l_suppkey,
           sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 1e6 + 0.5)
                    AS BIGINT))::BIGINT AS total_rev
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '1997-01-01'
      AND l_shipdate < TIMESTAMP '1997-04-01'
    GROUP BY l_suppkey
)
SELECT s.s_suppkey, s.s_name, r.total_rev AS total_revenue_micros
FROM supplier s JOIN revenue r ON s.s_suppkey = r.l_suppkey
WHERE r.total_rev = (SELECT max(total_rev) FROM revenue)
ORDER BY s.s_suppkey
"""


def q_lang_drift_by_source(sf_dir: str) -> "pd.DataFrame":
    """Corpus drift monitor: per-source Population Stability Index of the
    language distribution vs the global mix — the standard "did this
    source's composition shift" gate in training-data pipelines.
    PSI = Σ_lang (p−q)·ln(p/q) over languages PRESENT in the source
    (p = in-source share, q = global share; absent languages contribute
    nothing — the documented zero-cell rule, mirrored in the oracle).
    Map-side (source, lang) count partials → one small groupby → bounded
    driver fold; only integer counts ever move."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang"]
    )

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["source", "lang"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "source": g.column("source"),
                "lang": g.column("lang"),
                "n": g.column("count_all").cast(pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    c = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "lang"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    nt = float(c["n"].sum())
    gl = c.groupby("lang")["n"].sum()
    rows = []
    for src, grp in c.groupby("source"):
        ns = float(grp["n"].sum())
        p = grp["n"].to_numpy(np.float64) / ns
        q = gl[grp["lang"]].to_numpy(np.float64) / nt
        psi = float(((p - q) * np.log(p / q)).sum())
        rows.append((src, int(ns), int(np.floor(psi * 1e6 + 0.5))))
    out = pd.DataFrame(rows, columns=["source", "n_docs", "psi_micros"])
    return out.sort_values("source").reset_index(drop=True).astype(
        {"n_docs": "int64", "psi_micros": "int64"}
    )


SQL_LANG_DRIFT_BY_SOURCE = """
WITH c AS (
    SELECT source, lang, count(*)::BIGINT AS n FROM documents GROUP BY 1, 2
),
s AS (SELECT source, sum(n)::BIGINT AS ns FROM c GROUP BY 1),
g AS (SELECT lang, sum(n)::BIGINT AS nl FROM c GROUP BY 1),
t AS (SELECT sum(n)::BIGINT AS nt FROM c),
v AS (
    SELECT c.source,
           (c.n::DOUBLE / s.ns - g.nl::DOUBLE / t.nt)
             * ln((c.n::DOUBLE / s.ns) / (g.nl::DOUBLE / t.nt)) AS term
    FROM c JOIN s USING (source) JOIN g USING (lang) CROSS JOIN t
)
SELECT v.source, s.ns AS n_docs,
       CAST(floor(sum(v.term) * 1e6 + 0.5) AS BIGINT) AS psi_micros
FROM v JOIN s USING (source)
GROUP BY v.source, s.ns
ORDER BY v.source
"""


def q_domain_mixture(sf_dir: str) -> "pd.DataFrame":
    """Training-mixture planner over (source, lang) domains: doc/token
    counts plus the temperature-scaled sampling weight w_d ∝ n_tokens^0.7
    (mBERT/XLM-R multilingual up/down-sampling).  Map-side partials → one
    small domain groupby → driver-folded normalization."""
    from oboyu_ray.stages.trainprep import domain_mixture

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang", "text"]
    )
    return domain_mixture(docs)


SQL_DOMAIN_MIXTURE = r"""
WITH d AS (
    SELECT source, lang, count(*)::BIGINT AS n_docs,
           sum(length(list_filter(regexp_split_to_array(text, '\s+'),
                                  x -> x <> '')))::BIGINT AS n_tokens
    FROM documents GROUP BY source, lang
),
s AS (SELECT sum(pow(n_tokens, 0.7)) AS z FROM d)
SELECT source, lang, n_docs, n_tokens,
       CAST(floor(pow(n_tokens, 0.7) * 1e6 / z + 0.5) AS BIGINT) AS weight_ppm
FROM d, s
ORDER BY source, lang
"""


# ---------------------------------------------------------------- registry

# ------------------------------------------------ TPC-H analogs Q5/Q7/Q8/Q9
#
# Shared plan shape: lineitem ⋈ orders is the ONE large-large hash-shuffle
# join; every dimension (customer→nation, supplier→nation, part attrs,
# nation/region names) broadcasts via ray.put and resolves with a
# searchsorted gather inside map_batches — TPC-H dimension/fact ratios keep
# the broadcast sides tiny relative to the fact tables at every SF, the
# same documented trade as orders_by_nation_broadcast.  Per-row revenue is
# fixed-pointed to int64 micros BEFORE any aggregation (associative sums),
# and every final aggregate has a bounded key space (nations × years), so
# partials fold on the driver instead of paying a second shuffle.

def _bcast_i64_map(sf_dir: str, table: str, key: str, val: str):
    """ray.put a small-side (sorted keys, int64 values) lookup."""
    from oboyu_ray.stages.relational import load_broadcast_map

    ds = ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=[key, val])
    keys, vals = load_broadcast_map(ds, key, val)
    return ray.put((keys, vals))


def _gather_i64(ref, keys_np: np.ndarray, what: str) -> np.ndarray:
    """Vectorized broadcast-map gather; raises on unknown keys (referential
    integrity is a data invariant here, not a silent null)."""
    k, v = ray.get(ref)
    ix = np.searchsorted(k, keys_np)
    ok = (ix < len(k)) & (k[np.minimum(ix, len(k) - 1)] == keys_np)
    if not ok.all():
        raise ValueError(f"unknown {what} key in fact table")
    return v[ix]


Q5_REGION = "ASIA"
Q5_LO, Q5_HI = np.datetime64("1996-01-01"), np.datetime64("1998-01-01")


def q_local_supplier_volume(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5 analog: revenue by supplier nation where the CUSTOMER's
    nation equals the SUPPLIER's nation, region ASIA, orders 1996-1997.
    One lineitem⋈orders hash join; customer/supplier nations and the
    region-membership bitmap broadcast; ≤25-key driver fold."""
    from oboyu_ray.fixedpoint import micros
    from oboyu_ray.stages.relational import hash_join

    cust_nat = _bcast_i64_map(sf_dir, "customer", "c_custkey", "c_nationkey")
    supp_nat = _bcast_i64_map(sf_dir, "supplier", "s_suppkey", "s_nationkey")
    nat = pd.read_parquet(f"{sf_dir}/nation.parquet",
                          columns=["n_nationkey", "n_name", "n_regionkey"])
    reg = pd.read_parquet(f"{sf_dir}/region.parquet",
                          columns=["r_regionkey", "r_name"])
    asia_key = int(reg.loc[reg.r_name == Q5_REGION, "r_regionkey"].iloc[0])
    asia_nations = ray.put(
        np.sort(nat.loc[nat.n_regionkey == asia_key, "n_nationkey"]
                .to_numpy(dtype=np.int64))
    )
    names = dict(zip(nat.n_nationkey.astype(int), nat.n_name))

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )

    def pick_orders(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").to_numpy(zero_copy_only=False)
        b = b.filter(pa.array((d >= Q5_LO) & (d < Q5_HI)))
        cn = _gather_i64(cust_nat, b.column("o_custkey").to_numpy().astype(np.int64),
                         "customer")
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "cust_nation": pa.array(cn, type=pa.int64()),
        })

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def li_rev(b: pa.Table) -> pa.Table:
        sn = _gather_i64(supp_nat, b.column("l_suppkey").to_numpy().astype(np.int64),
                         "supplier")
        price = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = b.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "supp_nation": pa.array(sn, type=pa.int64()),
            "rev_micros": pa.array(micros(price * (1.0 - disc)), type=pa.int64()),
        })

    joined = hash_join(
        li.map_batches(li_rev, batch_format="pyarrow"),
        orders.map_batches(pick_orders, batch_format="pyarrow"),
        "l_orderkey", "o_orderkey",
    )

    def partial(b: pa.Table) -> pa.Table:
        sn = b.column("supp_nation").to_numpy(zero_copy_only=False)
        cn = b.column("cust_nation").to_numpy(zero_copy_only=False)
        asia = ray.get(asia_nations)
        ix = np.searchsorted(asia, sn)
        in_asia = (ix < len(asia)) & (asia[np.minimum(ix, len(asia) - 1)] == sn)
        keep = (sn == cn) & in_asia
        t = pa.table({
            "supp_nation": pa.array(sn[keep], type=pa.int64()),
            "rev_micros": b.column("rev_micros").filter(pa.array(keep)),
        })
        return t.group_by("supp_nation").aggregate([("rev_micros", "sum")])

    acc: dict = {}
    for b in joined.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for nk, rv in zip(b.column("supp_nation").to_pylist(),
                          b.column("rev_micros_sum").to_pylist()):
            acc[int(nk)] = acc.get(int(nk), 0) + int(rv)
    keys = sorted(acc)
    return pd.DataFrame({
        "n_name": [names[k] for k in keys],
        "revenue_micros": pd.array([acc[k] for k in keys], dtype="int64"),
    })


SQL_LOCAL_SUPPLIER_VOLUME = f"""
SELECT n_name,
       sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 1e6 + 0.5) AS BIGINT))::BIGINT
           AS revenue_micros
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = '{Q5_REGION}'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1998-01-01'
GROUP BY 1
"""


Q7_NATION_A, Q7_NATION_B = "NATION_3", "NATION_7"


def q_volume_shipping(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q7 analog: shipping volume between a nation pair (both
    directions kept distinct) by ship year, 1996-1997.  Same one-join
    plan as Q5; the (supp_nation, cust_nation, year) key space is 4."""
    from oboyu_ray.fixedpoint import micros
    from oboyu_ray.stages.relational import hash_join

    cust_nat = _bcast_i64_map(sf_dir, "customer", "c_custkey", "c_nationkey")
    supp_nat = _bcast_i64_map(sf_dir, "supplier", "s_suppkey", "s_nationkey")
    nat = pd.read_parquet(f"{sf_dir}/nation.parquet",
                          columns=["n_nationkey", "n_name"])
    names = dict(zip(nat.n_nationkey.astype(int), nat.n_name))
    ka = int(nat.loc[nat.n_name == Q7_NATION_A, "n_nationkey"].iloc[0])
    kb = int(nat.loc[nat.n_name == Q7_NATION_B, "n_nationkey"].iloc[0])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )

    def pick_orders(b: pa.Table) -> pa.Table:
        cn = _gather_i64(cust_nat, b.column("o_custkey").to_numpy().astype(np.int64),
                         "customer")
        keep = (cn == ka) | (cn == kb)
        return pa.table({
            "o_orderkey": b.column("o_orderkey").filter(pa.array(keep)),
            "cust_nation": pa.array(cn[keep], type=pa.int64()),
        })

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
    )
    lo, hi = np.datetime64("1996-01-01"), np.datetime64("1998-01-01")

    def li_rev(b: pa.Table) -> pa.Table:
        d = b.column("l_shipdate").to_numpy(zero_copy_only=False)
        sn = _gather_i64(supp_nat, b.column("l_suppkey").to_numpy().astype(np.int64),
                         "supplier")
        keep = (d >= lo) & (d < hi) & ((sn == ka) | (sn == kb))
        b2 = b.filter(pa.array(keep))
        price = b2.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = b2.column("l_discount").to_numpy(zero_copy_only=False)
        year = d[keep].astype("datetime64[Y]").astype(np.int64) + 1970
        return pa.table({
            "l_orderkey": b2.column("l_orderkey"),
            "supp_nation": pa.array(sn[keep], type=pa.int64()),
            "l_year": pa.array(year, type=pa.int64()),
            "rev_micros": pa.array(
                micros(price * (1.0 - disc)), type=pa.int64()
            ),
        })

    joined = hash_join(
        li.map_batches(li_rev, batch_format="pyarrow"),
        orders.map_batches(pick_orders, batch_format="pyarrow"),
        "l_orderkey", "o_orderkey",
    )

    acc: dict = {}
    for b in joined.iter_batches(batch_format="pyarrow"):
        sn = b.column("supp_nation").to_numpy(zero_copy_only=False)
        cn = b.column("cust_nation").to_numpy(zero_copy_only=False)
        yr = b.column("l_year").to_numpy(zero_copy_only=False)
        rv = b.column("rev_micros").to_numpy(zero_copy_only=False)
        keep = sn != cn  # the cross-nation pair, both directions
        for s, c, y, r in zip(sn[keep], cn[keep], yr[keep], rv[keep]):
            key = (int(s), int(c), int(y))
            acc[key] = acc.get(key, 0) + int(r)
    keys = sorted(acc)
    return pd.DataFrame({
        "supp_nation": [names[k[0]] for k in keys],
        "cust_nation": [names[k[1]] for k in keys],
        "l_year": pd.array([k[2] for k in keys], dtype="int64"),
        "revenue_micros": pd.array([acc[k] for k in keys], dtype="int64"),
    })


SQL_VOLUME_SHIPPING = f"""
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       year(l_shipdate)::BIGINT AS l_year,
       sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 1e6 + 0.5) AS BIGINT))::BIGINT
           AS revenue_micros
FROM supplier s
JOIN lineitem l ON s.s_suppkey = l.l_suppkey
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n1 ON n1.n_nationkey = s.s_nationkey
JOIN nation n2 ON n2.n_nationkey = c.c_nationkey
WHERE ((n1.n_name = '{Q7_NATION_A}' AND n2.n_name = '{Q7_NATION_B}')
    OR (n1.n_name = '{Q7_NATION_B}' AND n2.n_name = '{Q7_NATION_A}'))
  AND l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1998-01-01'
GROUP BY 1, 2, 3
"""


Q8_REGION_KEY = 1          # AMERICA
Q8_TYPE = "ECONOMY"
Q8_NATION = "NATION_6"


def q_market_share(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q8 analog: NATION_6's share (ppm) of ECONOMY-part revenue sold
    into region AMERICA, per order year.  Part-type and region-membership
    bitmaps broadcast; numerator and denominator accumulate as exact int64
    micros and divide once per year on the driver."""
    from oboyu_ray.fixedpoint import micros
    from oboyu_ray.stages.relational import hash_join

    cust_nat = _bcast_i64_map(sf_dir, "customer", "c_custkey", "c_nationkey")
    supp_nat = _bcast_i64_map(sf_dir, "supplier", "s_suppkey", "s_nationkey")
    nat = pd.read_parquet(f"{sf_dir}/nation.parquet",
                          columns=["n_nationkey", "n_name", "n_regionkey"])
    region_nations = ray.put(
        np.sort(nat.loc[nat.n_regionkey == Q8_REGION_KEY, "n_nationkey"]
                .to_numpy(dtype=np.int64))
    )
    target_key = int(nat.loc[nat.n_name == Q8_NATION, "n_nationkey"].iloc[0])
    part = pd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey", "p_type"])
    econ = ray.put(
        np.sort(part.loc[part.p_type == Q8_TYPE, "p_partkey"]
                .to_numpy(dtype=np.int64))
    )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )

    def pick_orders(b: pa.Table) -> pa.Table:
        cn = _gather_i64(cust_nat, b.column("o_custkey").to_numpy().astype(np.int64),
                         "customer")
        rn = ray.get(region_nations)
        ix = np.searchsorted(rn, cn)
        keep = (ix < len(rn)) & (rn[np.minimum(ix, len(rn) - 1)] == cn)
        d = b.column("o_orderdate").to_numpy(zero_copy_only=False)
        year = d.astype("datetime64[Y]").astype(np.int64) + 1970
        return pa.table({
            "o_orderkey": b.column("o_orderkey").filter(pa.array(keep)),
            "o_year": pa.array(year[keep], type=pa.int64()),
        })

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
                 "l_discount"],
    )

    def li_rev(b: pa.Table) -> pa.Table:
        pk = b.column("l_partkey").to_numpy().astype(np.int64)
        ep = ray.get(econ)
        ix = np.searchsorted(ep, pk)
        keep = (ix < len(ep)) & (ep[np.minimum(ix, len(ep) - 1)] == pk)
        b2 = b.filter(pa.array(keep))
        sn = _gather_i64(supp_nat, b2.column("l_suppkey").to_numpy().astype(np.int64),
                         "supplier")
        price = b2.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = b2.column("l_discount").to_numpy(zero_copy_only=False)
        rv = micros(price * (1.0 - disc))
        return pa.table({
            "l_orderkey": b2.column("l_orderkey"),
            "rev_micros": pa.array(rv, type=pa.int64()),
            "nat_micros": pa.array(np.where(sn == target_key, rv, 0),
                                   type=pa.int64()),
        })

    joined = hash_join(
        li.map_batches(li_rev, batch_format="pyarrow"),
        orders.map_batches(pick_orders, batch_format="pyarrow"),
        "l_orderkey", "o_orderkey",
    )

    acc: dict = {}
    for b in joined.iter_batches(batch_format="pyarrow"):
        for y, r, nr in zip(b.column("o_year").to_pylist(),
                            b.column("rev_micros").to_pylist(),
                            b.column("nat_micros").to_pylist()):
            tot, nt = acc.get(int(y), (0, 0))
            acc[int(y)] = (tot + int(r), nt + int(nr))
    from oboyu_ray.fixedpoint import micros as _mic

    years = sorted(acc)
    return pd.DataFrame({
        "o_year": pd.array(years, dtype="int64"),
        "mkt_share_ppm": pd.array(
            [int(_mic(acc[y][1] / acc[y][0])) for y in years], dtype="int64"
        ),
    })


SQL_MARKET_SHARE = f"""
WITH rev AS (
    SELECT year(o_orderdate)::BIGINT AS o_year,
           CAST(floor(l_extendedprice * (1.0 - l_discount) * 1e6 + 0.5) AS BIGINT) AS r,
           s_nationkey
    FROM lineitem
    JOIN part ON p_partkey = l_partkey
    JOIN supplier ON s_suppkey = l_suppkey
    JOIN orders ON o_orderkey = l_orderkey
    JOIN customer ON c_custkey = o_custkey
    JOIN nation nc ON nc.n_nationkey = c_nationkey
    WHERE p_type = '{Q8_TYPE}' AND nc.n_regionkey = {Q8_REGION_KEY}
)
SELECT o_year,
       CAST(floor(
           sum(CASE WHEN s_nationkey = (SELECT n_nationkey FROM nation
                                        WHERE n_name = '{Q8_NATION}')
                    THEN r ELSE 0 END)::DOUBLE
           / sum(r)::DOUBLE * 1e6 + 0.5) AS BIGINT) AS mkt_share_ppm
FROM rev GROUP BY 1
"""


Q9_NAME_SUBSTR = "red"


def q_product_profit(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q9 analog: profit by (supplier nation, order year) over parts
    whose name contains 'red'.  No partsupp table exists in this schema, so
    cost = p_retailprice × l_quantity (documented adaptation); profit =
    revenue − cost, fixed-pointed per row.  Part attrs broadcast as
    (sorted partkeys, retail micros) with a name-match bitmap."""
    from oboyu_ray.fixedpoint import micros
    from oboyu_ray.stages.relational import hash_join

    supp_nat = _bcast_i64_map(sf_dir, "supplier", "s_suppkey", "s_nationkey")
    nat = pd.read_parquet(f"{sf_dir}/nation.parquet",
                          columns=["n_nationkey", "n_name"])
    names = dict(zip(nat.n_nationkey.astype(int), nat.n_name))
    part = pd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name", "p_retailprice"]
    )
    red = part[part.p_name.str.contains(Q9_NAME_SUBSTR, regex=False)]
    order_ix = np.argsort(red.p_partkey.to_numpy())
    red_ref = ray.put((
        red.p_partkey.to_numpy(dtype=np.int64)[order_ix],
        red.p_retailprice.to_numpy(dtype=np.float64)[order_ix],
    ))

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    )

    def pick_orders(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").to_numpy(zero_copy_only=False)
        year = d.astype("datetime64[Y]").astype(np.int64) + 1970
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "o_year": pa.array(year, type=pa.int64()),
        })

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def li_profit(b: pa.Table) -> pa.Table:
        pk = b.column("l_partkey").to_numpy().astype(np.int64)
        rk, rp = ray.get(red_ref)
        ix = np.searchsorted(rk, pk)
        keep = (ix < len(rk)) & (rk[np.minimum(ix, len(rk) - 1)] == pk)
        b2 = b.filter(pa.array(keep))
        retail = rp[ix[keep]]
        sn = _gather_i64(supp_nat, b2.column("l_suppkey").to_numpy().astype(np.int64),
                         "supplier")
        price = b2.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = b2.column("l_discount").to_numpy(zero_copy_only=False)
        qty = b2.column("l_quantity").to_numpy(zero_copy_only=False)
        profit = micros(price * (1.0 - disc) - retail * qty)
        return pa.table({
            "l_orderkey": b2.column("l_orderkey"),
            "supp_nation": pa.array(sn, type=pa.int64()),
            "profit_micros": pa.array(profit, type=pa.int64()),
        })

    joined = hash_join(
        li.map_batches(li_profit, batch_format="pyarrow"),
        orders.map_batches(pick_orders, batch_format="pyarrow"),
        "l_orderkey", "o_orderkey",
    )

    acc: dict = {}
    for b in joined.iter_batches(batch_format="pyarrow"):
        for s, y, p in zip(b.column("supp_nation").to_pylist(),
                           b.column("o_year").to_pylist(),
                           b.column("profit_micros").to_pylist()):
            key = (int(s), int(y))
            acc[key] = acc.get(key, 0) + int(p)
    keys = sorted(acc)
    return pd.DataFrame({
        "n_name": [names[k[0]] for k in keys],
        "o_year": pd.array([k[1] for k in keys], dtype="int64"),
        "profit_micros": pd.array([acc[k] for k in keys], dtype="int64"),
    })


SQL_PRODUCT_PROFIT = f"""
SELECT n_name, year(o_orderdate)::BIGINT AS o_year,
       sum(CAST(floor((l_extendedprice * (1.0 - l_discount)
                       - p_retailprice * l_quantity) * 1e6 + 0.5) AS BIGINT))::BIGINT
           AS profit_micros
FROM lineitem
JOIN part ON p_partkey = l_partkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN orders ON o_orderkey = l_orderkey
JOIN nation ON n_nationkey = s_nationkey
WHERE p_name LIKE '%{Q9_NAME_SUBSTR}%'
GROUP BY 1, 2
"""


Q13_EXCLUDED_PRIORITY = "5-LOW"


def q_customer_order_dist(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q13 analog: distribution of per-customer order counts (orders
    with priority 5-LOW excluded — the comment-filter analog), INCLUDING
    the zero-order bucket.  One groupby(custkey) shuffle produces the
    per-customer counts; the distribution itself is a bounded driver fold,
    and the zero bucket is total_customers − customers_with_orders (orders
    reference only existing customers — checked by events_validation-style
    invariants), so no customer-side join is needed."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    )
    per_cust = (
        orders.filter(
            lambda r: r["o_orderpriority"] != Q13_EXCLUDED_PRIORITY
        )
        .groupby("o_custkey")
        .count()
    )
    dist: dict = {}
    n_with_orders = 0
    for b in per_cust.iter_batches(batch_format="pyarrow"):
        n_with_orders += b.num_rows
        cnts = b.column("count()").to_numpy(zero_copy_only=False)
        vals, reps = np.unique(cnts, return_counts=True)
        for v, r in zip(vals, reps):
            dist[int(v)] = dist.get(int(v), 0) + int(r)
    import pyarrow.parquet as _pq

    n_customers = _pq.ParquetFile(
        f"{sf_dir}/customer.parquet"
    ).metadata.num_rows
    zero = int(n_customers) - n_with_orders
    if zero > 0:
        dist[0] = dist.get(0, 0) + zero
    keys = sorted(dist)
    return pd.DataFrame({
        "c_count": pd.array(keys, dtype="int64"),
        "custdist": pd.array([dist[k] for k in keys], dtype="int64"),
    })


SQL_CUSTOMER_ORDER_DIST = f"""
WITH c_orders AS (
    SELECT c_custkey, count(o_orderkey)::BIGINT AS c_count
    FROM customer LEFT JOIN orders
      ON c_custkey = o_custkey AND o_orderpriority <> '{Q13_EXCLUDED_PRIORITY}'
    GROUP BY c_custkey
)
SELECT c_count, count(*)::BIGINT AS custdist
FROM c_orders GROUP BY 1
"""


# Q19 disjuncts: (brand, size_hi, qty_lo, qty_hi) with size from 1
Q19_DISJUNCTS = [
    ("Brand#1", 15, 1, 11),
    ("Brand#2", 25, 10, 20),
    ("Brand#3", 40, 20, 30),
]


def q_disjunctive_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q19 analog: revenue under an OR-of-ANDs predicate over part
    brand/size × lineitem quantity.  Part (brand-code, size) broadcast as
    aligned arrays; the whole disjunction evaluates vectorized per batch —
    one scan, zero shuffles, single-row exact result."""
    from oboyu_ray.fixedpoint import micros

    part = pd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    )
    order_ix = np.argsort(part.p_partkey.to_numpy())
    brands = {b: i for i, (b, *_ ) in enumerate(Q19_DISJUNCTS)}
    bcode = part.p_brand.map(brands).fillna(-1).to_numpy(dtype=np.int64)
    pref = ray.put((
        part.p_partkey.to_numpy(dtype=np.int64)[order_ix],
        bcode[order_ix],
        part.p_size.to_numpy(dtype=np.int64)[order_ix],
    ))

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(b: pa.Table) -> pa.Table:
        pk = b.column("l_partkey").to_numpy().astype(np.int64)
        keys, bc, sz = ray.get(pref)
        ix = np.searchsorted(keys, pk)
        ok = (ix < len(keys)) & (keys[np.minimum(ix, len(keys) - 1)] == pk)
        if not ok.all():
            raise ValueError("lineitem references unknown part")
        code, size = bc[ix], sz[ix]
        qty = b.column("l_quantity").to_numpy(zero_copy_only=False)
        keep = np.zeros(b.num_rows, dtype=bool)
        for i, (_, size_hi, qlo, qhi) in enumerate(Q19_DISJUNCTS):
            keep |= (
                (code == i) & (size >= 1) & (size <= size_hi)
                & (qty >= qlo) & (qty <= qhi)
            )
        price = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = b.column("l_discount").to_numpy(zero_copy_only=False)
        rv = micros(price * (1.0 - disc))[keep]
        return pa.table({
            "rev_micros": pa.array([int(rv.sum())], type=pa.int64()),
            "n_items": pa.array([int(keep.sum())], type=pa.int64()),
        })

    tot_r = tot_n = 0
    # iter_batches COALESCES blocks: one iterated batch carries one row per
    # upstream map task — fold EVERY row, never just [0]
    for b in li.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        tot_r += sum(int(x or 0) for x in b.column("rev_micros").to_pylist())
        tot_n += sum(int(x or 0) for x in b.column("n_items").to_pylist())
    return pd.DataFrame({
        "revenue_micros": pd.array([tot_r], dtype="int64"),
        "n_items": pd.array([tot_n], dtype="int64"),
    })


def _sql_disjunctive_revenue() -> str:
    ors = " OR ".join(
        f"(p_brand = '{b}' AND p_size BETWEEN 1 AND {sh} "
        f"AND l_quantity BETWEEN {ql} AND {qh})"
        for b, sh, ql, qh in Q19_DISJUNCTS
    )
    return f"""
SELECT sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 1e6 + 0.5) AS BIGINT))::BIGINT
           AS revenue_micros,
       count(*)::BIGINT AS n_items
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE {ors}
"""



def q_user_rolling_median(sf_dir: str) -> "ray.data.Dataset":
    """Per-user EXACT rolling median of event value over the trailing 5
    events (ordered by ts, event_id) — the order-statistic sliding window,
    one hash-bucketed cogroup, fully vectorized gather-sort kernel."""
    from oboyu_ray.stages.window import keyed_rolling_median

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
    )
    return keyed_rolling_median(ev, "user_id", "ts", "event_id", "value",
                                window=5)


SQL_USER_ROLLING_MEDIAN = """
WITH e AS (
    SELECT event_id AS id, user_id AS key, ts, value FROM events
)
SELECT id, key,
       CAST(floor(
           quantile_cont(value, 0.5) OVER (
               PARTITION BY key ORDER BY ts, id
               ROWS BETWEEN 4 PRECEDING AND CURRENT ROW
           ) * 1e6 + 0.5) AS BIGINT) AS med_micros
FROM e
"""


def corpus_queries() -> dict:
    return {
        # round-4 session-3 additions first: never driver-checked, so the
        # rotation in __ray_entry__ puts them inside the driver's sample
        "substring_dups": q_substring_dups,
        "local_supplier_volume": q_local_supplier_volume,
        "volume_shipping": q_volume_shipping,
        "market_share": q_market_share,
        "product_profit": q_product_profit,
        "customer_order_dist": q_customer_order_dist,
        "disjunctive_revenue": q_disjunctive_revenue,
        "user_rolling_median": q_user_rolling_median,
        "order_priority_wait": q_order_priority_wait,
        "waiting_suppliers": q_waiting_suppliers,
        "large_volume_customers": q_large_volume_customers,
        "ship_lag_priority": q_ship_lag_priority,
        "promo_revenue": q_promo_revenue,
        "idle_highvalue_customers": q_idle_highvalue_customers,
        "domain_mixture": q_domain_mixture,
        "revenue_cube": q_revenue_cube,
        "top_return_customers": q_top_return_customers,
        "lang_drift_by_source": q_lang_drift_by_source,
        "forecast_revenue": q_forecast_revenue,
        "small_order_revenue": q_small_order_revenue,
        "top_supplier": q_top_supplier,
        "text_stats": q_text_stats,
        "text_quality": q_text_quality,
        "sample_documents": q_sample_documents,
        "text_fingerprint": q_text_fingerprint,
        "text_fingerprint_fast": q_text_fingerprint_fast,
        "dedup_exact": q_dedup_exact,
        "dedup_ngram_jaccard": q_dedup_ngram_jaccard,
        "dedup_clusters": q_dedup_clusters,
        "dedup_minhash_lsh": q_dedup_minhash_lsh,
        "dedup_simhash": q_dedup_simhash,
        "dedup_embedding_cosine": q_dedup_embedding_cosine,
        "simsearch_topk": q_simsearch_topk,
        "simsearch_lsh": q_simsearch_lsh,
        "kg_entities": q_kg_entities,
        "kg_relations": q_kg_relations,
        "graphrag_expand": q_graphrag_expand,
        "multimodal_features": q_multimodal_features,
        "hybrid_rrf": q_hybrid_rrf,
        "chunking": q_chunking,
        "snippets": q_snippets,
        "events_window": q_events_window,
        "events_window_hopping": q_events_window_hopping,
        "orders_by_nation": q_orders_by_nation,
        "asof_join": q_asof_join,
        "text_normalize": q_text_normalize,
        "bm25_topk_filtered": q_bm25_topk_filtered,
        "rerank_topk": q_rerank_topk,
        "simsearch_ivf": q_simsearch_ivf,
        "simsearch_ivf_persisted": q_simsearch_ivf_persisted,
        "sessionize": q_sessionize,
        "transcript_engine_topk": q_transcript_engine_topk,
        "doc_embeddings": q_doc_embeddings,
        "interval_join": q_interval_join,
        "topk_per_group": q_topk_per_group,
        "heavy_hitters": q_heavy_hitters,
        "price_quantiles": q_price_quantiles,
        "grouped_quantiles": q_grouped_quantiles,
        "edc_entities": q_edc_entities,
        "pii_redact": q_pii_redact,
        "text_repetition": q_text_repetition,
        "boilerplate_ngrams": q_boilerplate_ngrams,
        "decontaminate": q_decontaminate,
        "stratified_sample": q_stratified_sample,
        "join_revenue": q_join_revenue,
        "corpus_profile": q_corpus_profile,
        "clean_corpus": q_clean_corpus,
        "doc_surprisal": q_doc_surprisal,
        "embedding_clusters": q_embedding_clusters,
        "price_quantiles_sketch": q_price_quantiles_sketch,
        "pack_sequences": q_pack_sequences,
        "funnel_conversion": q_funnel_conversion,
        "doc_keywords": q_doc_keywords,
        "token_counts_bpe": q_token_counts_bpe,
        "price_histogram": q_price_histogram,
        "dedup_incremental": q_dedup_incremental,
        "fuzzy_terms": q_fuzzy_terms,
        "orders_unfilled": q_orders_unfilled,
        "stratified_topk_sample": q_stratified_topk_sample,
        "collocations": q_collocations,
        "langid_confusion": q_langid_confusion,
        "user_day_activity": q_user_day_activity,
        "kg_pagerank": q_kg_pagerank,
        "decontaminate_bloom": q_decontaminate_bloom,
        "revenue_rollup": q_revenue_rollup,
        "value_outliers": q_value_outliers,
        "top_terms_per_lang": q_top_terms_per_lang,
        "prefix_dups": q_prefix_dups,
        "user_running_totals": q_user_running_totals,
        "latest_event_per_user": q_latest_event_per_user,
        "rolling_active_users": q_rolling_active_users,
        "cohort_retention": q_cohort_retention,
        "simsearch_pq": q_simsearch_pq,
        "simsearch_mmr": q_simsearch_mmr,
        "doc_length_rank": q_doc_length_rank,
        "bm25_rm3": q_bm25_rm3,
        "cluster_representatives": q_cluster_representatives,
        "events_validation": q_events_validation,
        "corpus_build_summary": _q_corpus_build_summary,
        "session_paths": q_session_paths,
        "knn_classify": q_knn_classify,
        "next_purchase": q_next_purchase,
        "events_json_stats": q_events_json_stats,
        "pricing_summary": q_pricing_summary,
        "highvalue_no_error": q_highvalue_no_error,
        "viewers_also_purchasing": q_viewers_also_purchasing,
        "shipping_priority": q_shipping_priority,
        "user_event_gaps": q_user_event_gaps,
        "events_weekday_pivot": q_events_weekday_pivot,
        "daily_revenue_dense": q_daily_revenue_dense,
        "events_profile": q_events_profile,
        "brand_revenue_by_region": q_brand_revenue_by_region,
        "nation_revenue_share": q_nation_revenue_share,
        "order_anomaly_days": q_order_anomaly_days,
        "orders_range_sorted": q_orders_range_sorted,
        "price_ship_frontier": q_price_ship_frontier,
        "user_growth": q_user_growth,
        "user_skew_report": q_user_skew_report,
        "documents_checksum": q_documents_checksum,
        "price_percentiles_cont": q_price_percentiles_cont,
        "price_robust_dispersion": q_price_robust_dispersion,
        "weighted_sample": q_weighted_sample,
        "bm25_topk_conjunctive": q_bm25_topk_conjunctive,
        "events_daily_ohlc": q_events_daily_ohlc,
        "value_percentiles_by_type": q_value_percentiles_by_type,
        "leakage_safe_split": q_leakage_safe_split,
        "user_action_context": q_user_action_context,
        "revenue_concentration": q_revenue_concentration,
    }


def corpus_oracle_sql() -> dict:
    return {
        "order_priority_wait": SQL_ORDER_PRIORITY_WAIT,
        "local_supplier_volume": SQL_LOCAL_SUPPLIER_VOLUME,
        "volume_shipping": SQL_VOLUME_SHIPPING,
        "market_share": SQL_MARKET_SHARE,
        "product_profit": SQL_PRODUCT_PROFIT,
        "customer_order_dist": SQL_CUSTOMER_ORDER_DIST,
        "disjunctive_revenue": _sql_disjunctive_revenue(),
        "user_rolling_median": SQL_USER_ROLLING_MEDIAN,
        "waiting_suppliers": SQL_WAITING_SUPPLIERS,
        "large_volume_customers": SQL_LARGE_VOLUME_CUSTOMERS,
        "ship_lag_priority": SQL_SHIP_LAG_PRIORITY,
        "promo_revenue": SQL_PROMO_REVENUE,
        "idle_highvalue_customers": SQL_IDLE_HIGHVALUE_CUSTOMERS,
        "domain_mixture": SQL_DOMAIN_MIXTURE,
        "revenue_cube": SQL_REVENUE_CUBE,
        "top_return_customers": SQL_TOP_RETURN_CUSTOMERS,
        "lang_drift_by_source": SQL_LANG_DRIFT_BY_SOURCE,
        "forecast_revenue": SQL_FORECAST_REVENUE,
        "small_order_revenue": SQL_SMALL_ORDER_REVENUE,
        "top_supplier": SQL_TOP_SUPPLIER,
        "text_stats": SQL_TEXT_STATS,
        "text_quality": SQL_TEXT_QUALITY,
        "sample_documents": SQL_SAMPLE_DOCUMENTS,
        "text_fingerprint": SQL_TEXT_FINGERPRINT,
        "dedup_exact": SQL_DEDUP_EXACT,
        "dedup_ngram_jaccard": SQL_DEDUP_NGRAM_JACCARD,
        "dedup_clusters": SQL_DEDUP_CLUSTERS,
        "dedup_embedding_cosine": SQL_DEDUP_EMBEDDING_COSINE,
        "simsearch_topk": SQL_SIMSEARCH_TOPK,
        # exact bounded-probe search over the persisted IVF index returns
        # the brute-force answer — same oracle applies
        "simsearch_ivf_persisted": SQL_SIMSEARCH_TOPK,
        "hybrid_rrf": _sql_hybrid_rrf(),
        "kg_entities": _sql_kg_entities(),
        "kg_relations": _sql_kg_relations(),
        "graphrag_expand": _sql_graphrag_expand(),
        "events_window": SQL_EVENTS_WINDOW,
        "events_window_hopping": SQL_EVENTS_WINDOW_HOPPING,
        "orders_by_nation": SQL_ORDERS_BY_NATION,
        "asof_join": SQL_ASOF_JOIN,
        "bm25_topk_filtered": _sql_bm25_topk_filtered(),
        "rerank_topk": _sql_rerank_topk(),
        "bm25_rm3": _sql_bm25_rm3(),
        "sessionize": SQL_SESSIONIZE,
        "interval_join": SQL_INTERVAL_JOIN,
        "topk_per_group": SQL_TOPK_PER_GROUP,
        "heavy_hitters": SQL_HEAVY_HITTERS,
        "price_quantiles": SQL_PRICE_QUANTILES,
        "grouped_quantiles": SQL_GROUPED_QUANTILES,
        "pii_redact": SQL_PII_REDACT,
        "text_repetition": SQL_TEXT_REPETITION,
        "boilerplate_ngrams": SQL_BOILERPLATE_NGRAMS,
        "decontaminate": SQL_DECONTAMINATE,
        "stratified_sample": SQL_STRATIFIED_SAMPLE,
        "join_revenue": SQL_JOIN_REVENUE,
        "corpus_profile": SQL_CORPUS_PROFILE,
        "clean_corpus": SQL_CLEAN_CORPUS,
        "doc_surprisal": SQL_DOC_SURPRISAL,
        "pack_sequences": SQL_PACK_SEQUENCES,
        "funnel_conversion": SQL_FUNNEL_CONVERSION,
        "doc_keywords": SQL_DOC_KEYWORDS,
        "token_counts_bpe": SQL_TOKEN_COUNTS_BPE,
        "price_histogram": SQL_PRICE_HISTOGRAM,
        "dedup_incremental": SQL_DEDUP_INCREMENTAL,
        "fuzzy_terms": SQL_FUZZY_TERMS,
        "orders_unfilled": SQL_ORDERS_UNFILLED,
        "stratified_topk_sample": SQL_STRATIFIED_TOPK,
        "collocations": SQL_COLLOCATIONS,
        "langid_confusion": SQL_LANGID_CONFUSION,
        "user_day_activity": SQL_USER_DAY_ACTIVITY,
        "kg_pagerank": _sql_kg_pagerank(),
        "revenue_rollup": SQL_REVENUE_ROLLUP,
        "value_outliers": SQL_VALUE_OUTLIERS,
        "top_terms_per_lang": SQL_TOP_TERMS_PER_LANG,
        "prefix_dups": SQL_PREFIX_DUPS,
        "substring_dups": SQL_SUBSTRING_DUPS,
        "user_running_totals": SQL_USER_RUNNING_TOTALS,
        "latest_event_per_user": SQL_LATEST_EVENT_PER_USER,
        "rolling_active_users": SQL_ROLLING_ACTIVE_USERS,
        "cohort_retention": SQL_COHORT_RETENTION,
        "doc_length_rank": SQL_DOC_LENGTH_RANK,
        "cluster_representatives": SQL_CLUSTER_REPRESENTATIVES,
        "events_validation": SQL_EVENTS_VALIDATION,
        "session_paths": SQL_SESSION_PATHS,
        "knn_classify": SQL_KNN_CLASSIFY,
        "next_purchase": SQL_NEXT_PURCHASE,
        "events_json_stats": SQL_EVENTS_JSON_STATS,
        "pricing_summary": SQL_PRICING_SUMMARY,
        "highvalue_no_error": SQL_HIGHVALUE_NO_ERROR,
        "viewers_also_purchasing": SQL_VIEWERS_ALSO_PURCHASING,
        "shipping_priority": SQL_SHIPPING_PRIORITY,
        "user_event_gaps": SQL_USER_EVENT_GAPS,
        "events_weekday_pivot": SQL_EVENTS_WEEKDAY_PIVOT,
        "daily_revenue_dense": SQL_DAILY_REVENUE_DENSE,
        "events_profile": SQL_EVENTS_PROFILE,
        "brand_revenue_by_region": SQL_BRAND_REVENUE_BY_REGION,
        "nation_revenue_share": SQL_NATION_REVENUE_SHARE,
        "order_anomaly_days": SQL_ORDER_ANOMALY_DAYS,
        "orders_range_sorted": SQL_ORDERS_RANGE_SORTED,
        "price_ship_frontier": SQL_PRICE_SHIP_FRONTIER,
        "user_growth": SQL_USER_GROWTH,
        "user_skew_report": SQL_USER_SKEW_REPORT,
        "documents_checksum": SQL_DOCUMENTS_CHECKSUM,
        "price_percentiles_cont": SQL_PRICE_PERCENTILES_CONT,
        "price_robust_dispersion": SQL_PRICE_ROBUST_DISPERSION,
        "weighted_sample": SQL_WEIGHTED_SAMPLE,
        "bm25_topk_conjunctive": _sql_bm25_topk_conjunctive(),
        "events_daily_ohlc": SQL_EVENTS_DAILY_OHLC,
        "value_percentiles_by_type": SQL_VALUE_PERCENTILES_BY_TYPE,
        "leakage_safe_split": _sql_leakage_safe_split(),
        "user_action_context": SQL_USER_ACTION_CONTEXT,
        "revenue_concentration": SQL_REVENUE_CONCENTRATION,
        # the normalize oracle expresses the stdlib fallback chain; register
        # it only when the heavy normalizers are absent (our chain == oracle)
        **(
            {"text_normalize": _sql_text_normalize()}
            if not (_HAS_FTFY or _HAS_NEOLOGDN)
            else {}
        ),
    }
