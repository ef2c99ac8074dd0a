"""Dataset-native brute-force BM25 scoring — the rank-identity baseline.

This is the M3 "exact scorer" of SURVEY §7: a pure Ray Data expression of
BM25 top-k.  Every scorer has the same shape, and each step of it has one
home:

* **one stats pass** (``_stats_and_dfs``): a single tokenization pass gives
  N, total_dl, avgdl and the df of every term a predicate keeps — a term
  set, prefixes, fuzzy specs or anchored regexes.  A scorer's ``stats=``
  argument replaces the N and avgdl the scores use; it saves no pass, since
  the query terms' dfs still need it;
* **two batch scorers**: the OR scorer (``_make_score_docs``: per-term
  weighted contributions folded per doc by sum or dismax) and the
  positional scorer (``_positional_topk``: phrase, ordered-span and NEAR
  matching over the batch's token streams).  Each scores a batch of DOCS in
  place — a doc's postings never cross batch boundaries, so there is NO
  global groupby shuffle;
* **one local top-k** (``_local_topk``): each batch emits only its per-query
  top-k in the global total order;
* **one merge** (``_rank_topk_frames``): the driver ranks the union of the
  local top-ks exactly (the global top-k is a prefix of it).

The sharded WAND engine (state/shards.py) must return exactly these results;
the driver's DuckDB oracle checks this pipeline's output SQL-side.  The
query-language helpers (boolean parser, synonym groups, wildcard and fuzzy
term matching) live in ``functions/querylang``, shared with the engine; no
scoring code is shared.

Candidate semantics: a document is ranked iff it contains at least one query
term (classic document-at-a-time retrieval over the inverted index).  The
reference's ``BM25Indexer.score`` (bm25_indexer.py:310-341) scores any given
doc; docs with no query terms score 0 and are never surfaced by an
inverted-index traversal, so the candidate set is the union of the query
terms' posting lists.

Scores are float64 summed per (query, doc); ``topk`` additionally emits
``score_micros = floor(score * 1e6 + 0.5)`` as int64 and ranks by
(score_micros DESC, doc ASC) so results are bit-stable across summation
orders and comparable against SQL oracles.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from oboyu_ray.config import BM25Config
from oboyu_ray.functions.querylang import (
    _anchored,
    _fuzzy_term_mask,
    bool_leaves,
    lev_at_most,
    parse_bool_query,
    render_bool_query,
    synonym_groups,
    wildcard_to_regex,
)
from oboyu_ray.stages.postings import get_tokenizer, postings_batch
from oboyu_ray.stages.stats import bm25_term_score, idf


def tokenize_queries(queries: Sequence[str], cfg: BM25Config = BM25Config()) -> Dict[str, List[str]]:
    """Query string → term list via the same tokenizer as indexing
    (reference tokenize_query == tokenize, tokenizer.py:374-376)."""
    tok = get_tokenizer(cfg)
    return {q: tok.tokenize(q) for q in queries}


def score_micros(scores: np.ndarray) -> np.ndarray:
    """floor(score*1e6 + 0.5) as int64 via the shared fixed-point helper —
    identical expression used in the DuckDB oracle SQL."""
    from oboyu_ray.fixedpoint import micros

    return np.atleast_1d(micros(scores))


# ------------------------------------------------------------ the stats pass

def _in(terms):
    """keep-predicate: membership in a term set."""
    vs = pa.array(sorted(set(terms)), type=pa.string())
    return lambda col: pc.is_in(col, value_set=vs)


def _any(match, patterns):
    """keep-predicate: OR of ``match(col, pattern=p)`` over a non-empty
    list of patterns."""
    return lambda col: reduce(pc.or_, [match(col, pattern=x) for x in patterns])


def _stats_and_dfs(
    docs_ds: "ray.data.Dataset",
    keep,
    cfg: BM25Config,
    id_col: str,
    text_col: str,
):
    """One tokenization pass → ({N, total_dl, avgdl}, df per kept term).

    ``keep(terms) -> mask`` selects among each batch's DISTINCT terms (a
    term set, prefixes, fuzzy specs or anchored regexes).  Per-batch
    partials stream back as tiny tables and combine driver-side (df = count
    of (term, doc) posting rows per term, which is batch-safe regardless of
    how doc rows split across batches)."""

    def partial(batch: pa.Table) -> pa.Table:
        p = postings_batch(batch, cfg, id_col=id_col, text_col=text_col)
        total_dl = 0
        if p.num_rows:
            total_dl = int(pc.sum(p.column("tf")).as_py() or 0)
        g = (
            p.group_by("term").aggregate([("tf", "count")])
            if p.num_rows
            else pa.table({"term": pa.array([], type=pa.string()),
                           "tf_count": pa.array([], type=pa.int64())})
        )
        if g.num_rows:
            g = g.filter(keep(g.column("term")))
        return pa.table(
            {
                "term": pa.concat_arrays([pa.array([None], type=pa.string()),
                                          g.column("term").combine_chunks().cast(pa.string())]),
                "df_partial": pa.concat_arrays(
                    [pa.array([batch.num_rows], type=pa.int64()),
                     g.column("tf_count").combine_chunks().cast(pa.int64())]
                ),
                "dl_partial": pa.concat_arrays(
                    [pa.array([total_dl], type=pa.int64()),
                     pa.nulls(g.num_rows, type=pa.int64())]
                ),
            }
        )

    n_docs = 0
    total_dl = 0
    df_map: Dict[str, int] = {}
    for b in docs_ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for t, d, dl in zip(
            b.column("term").to_pylist(),
            b.column("df_partial").to_pylist(),
            b.column("dl_partial").to_pylist(),
        ):
            if t is None:  # the per-batch global-stats row
                n_docs += int(d)
                total_dl += int(dl or 0)
            else:
                df_map[t] = df_map.get(t, 0) + int(d)
    stats = {
        "N": n_docs,
        "total_dl": total_dl,
        "avgdl": (total_dl / n_docs) if n_docs else 0.0,
    }
    return stats, df_map


def _resolve_stats(docs_ds, queries, cfg, id_col, text_col, stats):
    """({N, total_dl, avgdl}, df per query term), tokenizing the corpus only
    once; caller-given ``stats`` replace the pass's own."""
    all_terms = sorted({t for ts in queries.values() for t in ts})
    if not all_terms:
        return (stats or {"N": 0, "total_dl": 0, "avgdl": 0.0}), {}
    got, df_map = _stats_and_dfs(docs_ds, _in(all_terms), cfg, id_col, text_col)
    return (got if stats is None else stats), df_map


def _query_weights(
    queries: Dict[str, List[str]], df_map: Dict[str, int], n_docs: int
) -> Dict[str, Dict[str, float]]:
    """per-query term weights: idf × multiplicity (reference sums per query
    term occurrence — bm25_indexer.py:332; duplicate query terms count
    multiply)."""
    idf_map = {t: idf(int(df), n_docs) for t, df in df_map.items()}
    weights: Dict[str, Dict[str, float]] = {}
    for qid, terms in queries.items():
        w: Dict[str, float] = {}
        for t in terms:
            if df_map.get(t, 0) > 0:
                w[t] = w.get(t, 0.0) + idf_map[t]
        if w:
            weights[qid] = w
    return weights


# ------------------------------------------------ local top-k and the merge

def _empty_topk(id_col: str, col: str = "score_micros") -> pd.DataFrame:
    """The typed empty (query_id, <id_col>, <col>, rank) result frame."""
    return pd.DataFrame(
        {"query_id": pd.Series(dtype=object), id_col: pd.Series(dtype=np.int64),
         col: pd.Series(dtype=np.int64), "rank": pd.Series(dtype=np.int64)}
    )


def _local_topk(qid: str, ids, scores, k: int | None, id_col: str, col: str = "score"):
    """One query's rows of one batch: (query_id, <id_col>, <col>), plus
    ``score_micros`` for a float ``score``; with ``k`` set, cut to the local
    top-k in the global total order (key DESC, id ASC), so the global top-k
    is a prefix of the merged local top-ks."""
    g = pd.DataFrame({id_col: ids, col: scores})
    if k is not None:
        key = col
        if col == "score":
            key = "score_micros"
            g[key] = score_micros(g[col].to_numpy())
        g = g.sort_values([key, id_col], ascending=[False, True], kind="mergesort").head(k)
    g.insert(0, "query_id", qid)
    return g


def _batch_table(frames, batch: pa.Table, id_col: str, cols: Sequence[str]) -> pa.Table:
    """A batch's per-query frames as one Arrow table of ``cols`` — the typed
    empty table when no query matched."""
    if not frames:
        types = {"query_id": pa.string(), id_col: batch.schema.field(id_col).type,
                 "score": pa.float64()}
        return pa.table({c: pa.array([], type=types.get(c, pa.int64())) for c in cols})
    out = pd.concat(frames, ignore_index=True)
    return pa.Table.from_pandas(out[list(cols)], preserve_index=False)


def _rank_topk_frames(
    docs_ds: "ray.data.Dataset", score_docs, k: int, id_col: str,
    offset: int = 0, col: str = "score_micros", drop: Dict[str, int] | None = None,
) -> pd.DataFrame:
    """The one driver merge: run ``score_docs`` over every batch, drop each
    query's ``drop`` doc, rank the local top-k rows globally by (``col``
    DESC, id ASC) and keep ranks offset+1 .. offset+k per query."""
    pdf = docs_ds.map_batches(score_docs, batch_format="pyarrow").to_pandas()
    if drop:
        pdf = pdf[pdf[id_col] != pdf["query_id"].map(drop)]
    if pdf.empty:
        return _empty_topk(id_col, col)
    pdf = pdf.sort_values(
        ["query_id", col, id_col], ascending=[True, False, True], kind="mergesort"
    )
    pdf["rank"] = pdf.groupby("query_id").cumcount() + 1
    out = pdf[(pdf["rank"] > offset) & (pdf["rank"] <= offset + k)][
        ["query_id", id_col, col, "rank"]]
    out = out.reset_index(drop=True)
    out["rank"] = out["rank"].astype(np.int64)
    return out


# ------------------------------------------------------------ the OR scorer

def _make_score_docs(
    weights: Dict[str, Dict[str, float]],
    cfg: BM25Config,
    avgdl: float,
    id_col: str,
    text_col: str,
    local_k: int | None = None,
    filter_col: str | None = None,
    filter_value=None,
    need_terms: Dict[str, int] | None = None,
    exclude: "Dict[str, List[str]] | None" = None,
    scope: "Tuple[int, int] | None" = None,
    tiebreak: float | None = None,
):
    """Batch fn scoring a batch of DOCS against every query's term weights.

    STRUCTURAL per-doc completeness: this single function tokenizes a batch
    of docs and scores their postings in place, so a document's (query, doc)
    sum can never be split across batches regardless of how Ray re-batches
    upstream data — no global groupby shuffle.

    A doc's weighted contributions fold by sum, or with ``tiebreak`` by
    dismax's ``max + tb·(sum − max)``.  With ``local_k`` set, emits only each
    query's local top-k candidates (``_local_topk``).  ``filter_col``/
    ``filter_value`` and ``scope`` restrict the CANDIDATE set in-batch
    (scores still use full-corpus statistics — reference M14
    WHERE-on-results semantics); ``need_terms`` keeps only docs holding that
    many distinct query terms (AND), and ``exclude`` drops docs holding any
    of the query's excluded terms (NOT).
    """
    k1, b = cfg.k1, cfg.b
    exclude = {q: sorted(set(ts)) for q, ts in (exclude or {}).items() if ts}
    all_terms = sorted(
        {t for w in weights.values() for t in w}
        | {t for ts in exclude.values() for t in ts}
    )
    term_set = pa.array(all_terms, type=pa.string())
    cols = ["query_id", id_col, "score"] + (["score_micros"] if local_k is not None else [])

    def score_docs(batch: pa.Table) -> pa.Table:
        if filter_col is not None:
            batch = batch.filter(pc.equal(batch.column(filter_col), filter_value))
        if scope is not None:
            # scoped retrieval: candidates restricted to the id interval
            # [lo, hi) — statistics stay full-corpus (same semantics as
            # filter_col; mirrors the shard tier's scope)
            ids_ = batch.column(id_col)
            batch = batch.filter(
                pc.and_(pc.greater_equal(ids_, scope[0]), pc.less(ids_, scope[1]))
            )
        p = postings_batch(batch, cfg, id_col=id_col, text_col=text_col)
        pdf = p.filter(pc.is_in(p.column("term"), value_set=term_set)).to_pandas()
        frames = []
        for qid, w in weights.items():
            sub = pdf[pdf["term"].isin(w.keys())]
            if sub.empty:
                continue
            ex = exclude.get(qid)
            if ex:
                # boolean NOT: any doc containing an excluded term drops from
                # the CANDIDATE set (statistics stay full-corpus); per-doc
                # completeness makes the batch-local exclusion exact
                bad = pdf.loc[pdf["term"].isin(ex), id_col].unique()
                if len(bad):
                    sub = sub[~sub[id_col].isin(bad)]
                    if sub.empty:
                        continue
            if need_terms is not None:
                # conjunctive (AND) semantics: a doc qualifies only with ALL
                # the query's distinct terms present.  (doc, term) rows are
                # unique, so the per-doc row count IS the distinct-term
                # count; batch-local is exact because score_docs sees every
                # posting of a doc (structural per-doc completeness above).
                nmatch = sub.groupby(id_col, sort=False)[id_col].transform("size")
                sub = sub[nmatch.to_numpy() == need_terms[qid]]
                if sub.empty:
                    continue
            iw = sub["term"].map(w).to_numpy(dtype=np.float64)
            tf = sub["tf"].to_numpy(dtype=np.float64)
            dl = sub["dl"].to_numpy(dtype=np.float64)
            contrib = bm25_term_score(tf, dl, 1.0, avgdl, k1, b) * iw
            grp = pd.DataFrame({id_col: sub[id_col].to_numpy(), "c": contrib}).groupby(
                id_col, sort=True)["c"]
            if tiebreak is None:
                s = grp.sum()
                score = s.to_numpy()
            else:
                s = grp.agg(["max", "sum"])
                score = s["max"].to_numpy() + tiebreak * (s["sum"].to_numpy() - s["max"].to_numpy())
            frames.append(_local_topk(qid, s.index.to_numpy(), score, local_k, id_col))
        return _batch_table(frames, batch, id_col, cols)

    return score_docs


def _or_topk(
    docs_ds, weights, stats, k, cfg, id_col, text_col, offset: int = 0, **opts
) -> pd.DataFrame:
    """Exact top-k of the OR scorer: local top-(offset+k) per batch, then
    the one merge."""
    if not weights:
        return _empty_topk(id_col)
    score_docs = _make_score_docs(
        weights, cfg, float(stats["avgdl"]), id_col, text_col, local_k=offset + k, **opts
    )
    return _rank_topk_frames(docs_ds, score_docs, k, id_col, offset=offset)


def brute_force_scores(
    docs_ds: "ray.data.Dataset",
    queries: Dict[str, List[str]],
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
    stats: Dict[str, float] | None = None,
) -> pd.DataFrame:
    """Exact BM25 scores for EVERY (query, candidate doc) pair — the full
    score table, collected to the driver.  Test/oracle harness only: the
    production top-k path is ``brute_force_topk`` (per-batch local top-k,
    never collects the candidate set).  ``stats`` replaces the corpus's own
    N and avgdl in the scores; the stats pass still runs for the query
    terms' dfs.
    """
    stats, df_map = _resolve_stats(docs_ds, queries, cfg, id_col, text_col, stats)
    if int(stats["N"]) == 0:
        return pd.DataFrame({"query_id": [], id_col: [], "score": []})
    weights = _query_weights(queries, df_map, int(stats["N"]))
    score_docs = _make_score_docs(weights, cfg, float(stats["avgdl"]), id_col, text_col)
    return docs_ds.map_batches(score_docs, batch_format="pyarrow").to_pandas()


def brute_force_topk(
    docs_ds: "ray.data.Dataset",
    queries: Dict[str, List[str]],
    k: int = 10,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
    stats: Dict[str, float] | None = None,
    filter_col: str | None = None,
    filter_value=None,
    require_all: bool = False,
    exclude: "Dict[str, List[str]] | None" = None,
    scope: "Tuple[int, int] | None" = None,
    offset: int = 0,
) -> pd.DataFrame:
    """EXACT top-k per query: (query_id, <id_col>, score_micros, rank),
    ranked by (score_micros DESC, doc ASC) — deterministic across engines.

    ``offset`` pages past the first ``offset`` ranks (OFFSET/LIMIT — the
    Lucene ``searchAfter`` result shape): rows offset+1 .. offset+k with
    their GLOBAL rank values.  Map tasks then emit local top-(offset+k)
    candidates — deep pages cost O(offset+k) per batch, stated explicitly.

    Distributed top-k: every map task emits only its local top-k per query
    (same total order as the global rank, so the global answer is a prefix
    of the union); the driver merges k·#batches candidate rows — NEVER the
    full (query, doc) score table.  ``filter_col``/``filter_value`` restrict
    candidates in-batch (M14 filtered search) while statistics stay
    full-corpus.  ``require_all`` switches to conjunctive (AND) retrieval:
    only docs containing every distinct query term rank.
    """
    stats, df_map = _resolve_stats(docs_ds, queries, cfg, id_col, text_col, stats)
    if int(stats["N"]) == 0 or not df_map:
        return _empty_topk(id_col)
    # strict-AND needs the count of distinct terms AS ASKED (a corpus-absent
    # term is unmatchable → the conjunctive result is empty, not relaxed)
    need = {qid: len(set(ts)) for qid, ts in queries.items()} if require_all else None
    return _or_topk(
        docs_ds, _query_weights(queries, df_map, int(stats["N"])), stats, k, cfg,
        id_col, text_col, offset=int(offset), filter_col=filter_col,
        filter_value=filter_value, need_terms=need, exclude=exclude, scope=scope,
    )


RM3_FB_DOCS = 10
RM3_EXP_TERMS = 3
RM3_ALPHA_MICROS = 600_000  # weight of the original-query score


def rm3_topk(
    docs_ds: "ray.data.Dataset",
    queries: Dict[str, List[str]],
    k: int = 10,
    fb_docs: int = RM3_FB_DOCS,
    n_exp: int = RM3_EXP_TERMS,
    alpha_micros: int = RM3_ALPHA_MICROS,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
    source_path: str | None = None,
) -> pd.DataFrame:
    """Pseudo-relevance-feedback retrieval (RM3-style, Lavrenko & Croft
    2001 / Abdul-Jaleel et al. 2004 — public method): run BM25, mine
    expansion terms from the top ``fb_docs`` feedback documents, re-score
    with the expanded query.

    Deterministic integer-exact variant (every step mirrors the DuckDB
    oracle bit-for-bit):

    * expansion weight  w(t) = Σ_{d∈FB} floor(tf(t,d)/dl(d)·1e6+0.5) over
      the feedback docs' postings, original query terms excluded; top
      ``n_exp`` terms by (w DESC, term ASC);
    * per-doc expansion score  e(d) = Σ_t (w(t) · max(c_micros(t,d), 0))
      // 1e6 — the clamp keeps every integer division non-negative, where
      numpy (floor) and DuckDB (truncate) agree;
    * final  rm3_score = o_micros·α + e·(1e6−α)  — a pure integer linear
      mix with NO further division, so negative BM25 scores stay exact.

    Candidates = docs matching ≥1 original OR expansion term.  Four corpus
    passes (stats+dfs → feedback top-k → expansion dfs → final scoring);
    the driver holds only fb_docs·#queries feedback rows, the expansion
    term lists, and per-batch local top-ks.
    """
    import pyarrow.parquet as _pq

    from oboyu_ray.fixedpoint import micros as _micros

    stats, df_map = _resolve_stats(docs_ds, queries, cfg, id_col, text_col, None)
    if int(stats["N"]) == 0 or not df_map:
        return _empty_topk(id_col, "rm3_score")
    n_docs, avgdl = int(stats["N"]), float(stats["avgdl"])
    oweights = _query_weights(queries, df_map, n_docs)
    fb = _or_topk(docs_ds, oweights, stats, fb_docs, cfg, id_col, text_col)
    if fb.empty:
        return _empty_topk(id_col, "rm3_score")

    # feedback docs' postings via a bounded point-read
    fb_ids = sorted(set(int(v) for v in fb[id_col]))
    if source_path is not None:
        fb_docs_t = _pq.read_table(
            source_path, columns=[id_col, text_col],
            filters=[(id_col, "in", fb_ids)],
        )
    else:
        vs = pa.array(fb_ids, type=pa.int64())

        def pick(b: pa.Table) -> pa.Table:
            mask = pc.is_in(b.column(id_col).cast(pa.int64()), value_set=vs)
            return b.select([id_col, text_col]).filter(mask)

        import ray

        fb_docs_t = pa.concat_tables(
            ray.get(
                docs_ds.map_batches(pick, batch_format="pyarrow").to_arrow_refs()
            )
        )
    fb_post = postings_batch(fb_docs_t, cfg, id_col=id_col, text_col=text_col).to_pandas()
    fb_post["w1"] = _micros(
        fb_post["tf"].to_numpy(np.float64) / fb_post["dl"].to_numpy(np.float64)
    )

    # per-query expansion terms: top n_exp by (Σ w1 over that query's
    # feedback docs DESC, term ASC), original terms excluded
    exp_terms: Dict[str, Dict[str, int]] = {}
    for qid in queries:
        fset = set(fb.loc[fb["query_id"] == qid, id_col].astype(int))
        orig = set(queries[qid])
        sub = fb_post[fb_post[id_col].isin(fset) & ~fb_post["term"].isin(orig)]
        if sub.empty:
            exp_terms[qid] = {}
            continue
        w = sub.groupby("term")["w1"].sum().reset_index()
        w = w.sort_values(["w1", "term"], ascending=[False, True], kind="mergesort")
        exp_terms[qid] = {
            t: int(v) for t, v in w.head(n_exp)[["term", "w1"]].to_numpy()
        }

    all_exp = sorted({t for m in exp_terms.values() for t in m})
    exp_df = (
        _stats_and_dfs(docs_ds, _in(all_exp), cfg, id_col, text_col)[1] if all_exp else {}
    )

    exp_idf = {t: idf(int(df), n_docs) for t, df in exp_df.items()}
    k1, b = cfg.k1, cfg.b
    alpha = np.int64(alpha_micros)
    one_minus = np.int64(1_000_000 - alpha_micros)
    all_terms = sorted(
        {t for w in oweights.values() for t in w} | set(all_exp)
    )
    term_set = pa.array(all_terms, type=pa.string())

    def score_batch(batch: pa.Table) -> pa.Table:
        p = postings_batch(batch, cfg, id_col=id_col, text_col=text_col)
        pdf = p.filter(pc.is_in(p.column("term"), value_set=term_set)).to_pandas()
        frames = []
        for qid in queries:
            ow = oweights.get(qid, {})
            ew = exp_terms.get(qid, {})
            sub = pdf[pdf["term"].isin(set(ow) | set(ew))]
            if sub.empty:
                continue
            tf = sub["tf"].to_numpy(np.float64)
            dl = sub["dl"].to_numpy(np.float64)
            base = bm25_term_score(tf, dl, 1.0, avgdl, k1, b)
            # original-query float contributions (summed per doc, THEN micros
            # — same as brute_force_topk so the α-mix reuses its exact o)
            oc = base * sub["term"].map(lambda t: ow.get(t, 0.0)).to_numpy(np.float64)
            g = (
                pd.DataFrame({id_col: sub[id_col].to_numpy(), "o": oc})
                .groupby(id_col, sort=True)["o"].sum()
            )
            omicros = pd.Series(_micros(g.to_numpy(np.float64)), index=g.index)
            # expansion integer contributions: (w · max(c_micros,0)) // 1e6
            is_exp = sub["term"].isin(ew).to_numpy()
            if is_exp.any():
                es = sub[is_exp]
                c = base[is_exp] * es["term"].map(exp_idf).to_numpy(np.float64)
                cm = np.maximum(_micros(c), 0).astype(np.int64)
                wv = es["term"].map(ew).to_numpy(np.int64)
                contrib = (wv * cm) // np.int64(1_000_000)
                e = (
                    pd.DataFrame({id_col: es[id_col].to_numpy(), "e": contrib})
                    .groupby(id_col, sort=True)["e"].sum()
                )
            else:
                e = pd.Series(dtype=np.int64)
            docs = omicros.index.union(e.index)
            o_al = omicros.reindex(docs, fill_value=0).to_numpy(np.int64)
            e_al = e.reindex(docs, fill_value=0).to_numpy(np.int64)
            rm3 = o_al * alpha + e_al * one_minus
            frames.append(_local_topk(qid, docs.to_numpy(), rm3, k, id_col, "rm3_score"))
        return _batch_table(frames, batch, id_col, ["query_id", id_col, "rm3_score"])

    out = _rank_topk_frames(docs_ds, score_batch, k, id_col, col="rm3_score")
    return out.astype({id_col: np.int64, "rm3_score": np.int64, "rank": np.int64})


# -------------------------------------------------------- the positional scorer

def _positional_topk(
    docs_ds: "ray.data.Dataset",
    items: "List[Tuple[str, List[str], object]]",
    match,
    k: int,
    cfg: BM25Config,
    id_col: str,
    text_col: str,
    stats: Dict[str, float] | None,
    prep=None,
) -> pd.DataFrame:
    """Exact top-k of the positional scorer behind phrase, ordered-span and
    NEAR retrieval.

    ``items`` lists (query_id, terms, spec).  A query with no terms, or with
    a corpus-absent term, matches nothing.  Per batch, the docs' filtered
    token streams flatten into ``ctx``: ``codes`` (each token's query-term
    id, −1 for any other token), ``doc_of``, ``lens`` and ``tid`` (term →
    id), plus what ``prep(ctx)`` adds once per batch; ``match(ctx, spec)``
    returns the batch doc indices a query ranks.  Those score BM25 over the
    query's terms (full-corpus statistics) from a per-doc Counter, then the
    one local top-k and the one merge."""
    tok = get_tokenizer(cfg)
    items = [it for it in items if it[1]]
    if not items:
        return _empty_topk(id_col)
    stats, df_map = _resolve_stats(
        docs_ds, {q: ts for q, ts, _ in items}, cfg, id_col, text_col, stats)
    if int(stats["N"]) == 0:
        return _empty_topk(id_col)
    # a query with any zero-df term cannot match anywhere
    items = [it for it in items if all(df_map.get(t, 0) > 0 for t in it[1])]
    if not items:
        return _empty_topk(id_col)
    avgdl = float(stats["avgdl"])
    weights = _query_weights({q: ts for q, ts, _ in items}, df_map, int(stats["N"]))
    k1, b = cfg.k1, cfg.b
    tid = {t: i for i, t in enumerate(sorted({t for _, ts, _ in items for t in ts}))}

    def score_docs(batch: pa.Table) -> pa.Table:
        toks = [tok.tokenize(t or "") for t in batch.column(text_col).to_pylist()]
        lens = np.array([len(ts) for ts in toks], dtype=np.int64)
        flat: List[str] = [t for ts in toks for t in ts]
        codes = np.fromiter((tid.get(t, -1) for t in flat), dtype=np.int64, count=len(flat))
        doc_of = np.repeat(np.arange(len(toks), dtype=np.int64), lens)
        ctx = SimpleNamespace(codes=codes, doc_of=doc_of, lens=lens, tid=tid)
        if prep is not None:
            prep(ctx)
        ids_np = batch.column(id_col).to_numpy(zero_copy_only=False)
        counters: Dict[int, Counter] = {}
        frames = []
        for qid, _, spec in items:
            hit_docs = match(ctx, spec)
            if len(hit_docs) == 0:
                continue
            w = weights[qid]
            scores = []
            for di in hit_docs:
                c = counters.get(di)
                if c is None:
                    c = counters[di] = Counter(toks[di])
                dl = float(lens[di])
                s = 0.0
                for t, iw in w.items():
                    tf = float(c[t])
                    s += iw * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * (dl / avgdl)))
                scores.append(s)
            frames.append(_local_topk(qid, ids_np[hit_docs], scores, k, id_col))
        return _batch_table(frames, batch, id_col, ["query_id", id_col, "score_micros"])

    return _rank_topk_frames(docs_ds, score_docs, k, id_col)


def _phrase_docs(ctx, terms: List[str]) -> np.ndarray:
    """Docs holding ``terms`` adjacently and in order: m shifted equality
    masks over the code stream AND a same-doc guard."""
    pid = [ctx.tid[t] for t in terms]
    codes, doc_of = ctx.codes, ctx.doc_of
    m, n = len(pid), len(codes)
    if n < m:
        return np.empty(0, dtype=np.int64)
    match = codes[: n - m + 1] == pid[0]
    for j in range(1, m):
        match &= codes[j : n - m + 1 + j] == pid[j]
    if m > 1:
        match &= doc_of[: n - m + 1] == doc_of[m - 1 :]
    return np.unique(doc_of[: n - m + 1][match])


def phrase_topk(
    docs_ds: "ray.data.Dataset",
    phrases: Sequence[str],
    k: int = 10,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
    stats: Dict[str, float] | None = None,
) -> pd.DataFrame:
    """EXACT phrase top-k: rank only documents whose token stream contains
    the phrase's terms ADJACENTLY and in order, scored by BM25 over the
    phrase terms (full-corpus statistics).

    Position semantics follow the reference's ``_get_term_positions``
    (bm25_indexer.py:290-308): a term's positions are its indices in the
    FILTERED token sequence (`tokenize(text)` — stopwords and short tokens
    already removed), so "adjacent" means consecutive surviving tokens.  A
    phrase containing a corpus-absent term matches nothing; a phrase whose
    terms all tokenize away returns no rows.

    Vectorized adjacency: each batch flattens its docs' token streams into
    one int-code array (phrase terms interned, everything else -1) and a
    phrase of length m is m shifted equality masks AND a same-doc guard —
    no per-position Python loop.  Scoring touches only matched docs.
    """
    tok = get_tokenizer(cfg)
    queries = {p: tok.tokenize(p) for p in phrases}
    items = [(p, ts, ts) for p, ts in queries.items()]
    return _positional_topk(docs_ds, items, _phrase_docs, k, cfg, id_col, text_col, stats)


def span_near_topk(
    docs_ds: "ray.data.Dataset",
    phrases: Sequence[str],
    window: int,
    k: int = 10,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
    stats: Dict[str, float] | None = None,
) -> pd.DataFrame:
    """Ordered span retrieval (Lucene SpanNearQuery, inOrder=true): rank
    only documents whose filtered token stream contains the phrase's terms
    IN ORDER at positions p_1 < … < p_m with extent ``p_m − p_1 <=
    window``, scored by BM25 over the phrase terms (full-corpus
    statistics) exactly like ``phrase_topk``.  ``window == m − 1`` is the
    adjacent phrase (pinned by tests); larger windows admit gaps while
    preserving order — NEAR/w is the 2-term UNORDERED counterpart.

    Matching uses the shared vectorized greedy latest-predecessor kernel
    (`functions/spanmatch.ordered_span_docs`) over packed (doc, position)
    occurrence arrays — no per-position Python loop."""
    from oboyu_ray.functions.spanmatch import (
        SPAN_PK,
        ordered_span_docs,
        pack_token_positions,
    )

    tok = get_tokenizer(cfg)
    queries = {p: tok.tokenize(p) for p in phrases}
    win = int(window)

    def prep(ctx) -> None:
        ctx.keys = pack_token_positions(ctx.codes, ctx.doc_of, ctx.lens, len(ctx.tid))

    def match(ctx, terms: List[str]) -> np.ndarray:
        return ordered_span_docs([ctx.keys[ctx.tid[t]] for t in terms], win, SPAN_PK)

    items = [(p, ts, ts) for p, ts in queries.items()]
    return _positional_topk(docs_ds, items, match, k, cfg, id_col, text_col, stats, prep)


def near_topk(
    docs_ds: "ray.data.Dataset",
    pairs: "Sequence[Tuple[str, str, int]]",
    k: int = 10,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
    stats: Dict[str, float] | None = None,
) -> pd.DataFrame:
    """Proximity (NEAR) retrieval: rank documents where the two terms occur
    within ``w`` tokens of each other (|pos_a − pos_b| ≤ w over the FILTERED
    token stream, ANY order), scored by BM25 over both terms.

    ``pairs`` is a sequence of (term_a, term_b, w); query_id is rendered as
    ``"a NEAR/w b"``.  Vectorized: per batch, both terms' occurrences pack
    into sorted (doc, position) keys and the within-distance test is two
    searchsorted sweeps — no per-occurrence Python loop.  PK = 2^40 keeps
    cross-doc ranges disjoint for any real document length.
    """
    PK = np.int64(1) << 40
    tok = get_tokenizer(cfg)
    items = []
    for a, b, w in pairs:
        ta = tok.tokenize(a)
        tb = tok.tokenize(b)
        if len(ta) == 1 and len(tb) == 1:
            items.append((f"{ta[0]} NEAR/{int(w)} {tb[0]}", [ta[0], tb[0]],
                          (ta[0], tb[0], int(w))))

    def prep(ctx) -> None:
        doc_starts = np.zeros(len(ctx.lens), dtype=np.int64)
        if len(ctx.lens):
            np.cumsum(ctx.lens[:-1], out=doc_starts[1:])
        ctx.pos = np.arange(len(ctx.codes), dtype=np.int64) - np.repeat(doc_starts, ctx.lens)

    def match(ctx, spec) -> np.ndarray:
        a, b, w = spec
        ma = ctx.codes == ctx.tid[a]
        mb = ctx.codes == ctx.tid[b]
        if not ma.any() or not mb.any():
            return np.empty(0, dtype=np.int64)
        A = ctx.doc_of[ma] * PK + ctx.pos[ma]
        B = ctx.doc_of[mb] * PK + ctx.pos[mb]
        lo = np.searchsorted(B, A - w)
        hi = np.searchsorted(B, A + w + 1)
        # self-NEAR: every occurrence matches ITSELF at distance 0, so
        # require a second occurrence inside the window
        hit = (hi - lo) > 1 if a == b else hi > lo
        return np.unique(ctx.doc_of[ma][hit])

    return _positional_topk(docs_ds, items, match, k, cfg, id_col, text_col, stats, prep)


# ------------------------------------------- prefix / fuzzy / regex expansion

def prefix_topk(
    docs_ds: "ray.data.Dataset",
    prefixes: Sequence[str],
    k: int = 10,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Prefix (wildcard ``pre*``) retrieval: the query expands to EVERY
    vocabulary term starting with the prefix, scored as the ordinary BM25
    OR over the expanded term set (idf per matched term, multiplicity 1) —
    the classic Lucene PrefixQuery → BooleanQuery rewrite.  Exact top-k:
    (query_id, id, score_micros, rank) like ``brute_force_topk``."""
    pfx = sorted({p for p in prefixes if p})
    if not pfx:
        return _empty_topk(id_col)
    stats, df_map = _stats_and_dfs(docs_ds, _any(pc.starts_with, pfx), cfg, id_col, text_col)
    qmap = {p: sorted(t for t in df_map if t.startswith(p)) for p in prefixes if p}
    weights = _query_weights(qmap, df_map, int(stats["N"]))
    return _or_topk(docs_ds, weights, stats, k, cfg, id_col, text_col)


def fuzzy_topk(
    docs_ds: "ray.data.Dataset",
    queries: "Sequence[Tuple[str, int]]",
    k: int = 10,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Fuzzy (edit-distance) retrieval: each (term, max_edits) query expands
    to EVERY vocabulary term within levenshtein distance ``max_edits`` of
    the lowercased term (the exact term included at distance 0), scored as
    the ordinary BM25 OR over the expanded set (idf per matched term,
    multiplicity 1) — the classic Lucene FuzzyQuery → BooleanQuery rewrite
    (reference has no fuzzy matching; semantics follow its BM25 scorer,
    bm25_indexer.py:300-340, over the expanded term set).  query_id renders
    as ``"term~d"`` (Lucene syntax).  Exact top-k: (query_id, id,
    score_micros, rank) like ``brute_force_topk``."""
    specs = [(q.strip().lower(), int(d)) for q, d in queries if q and q.strip()]
    if not specs:
        return _empty_topk(id_col)
    stats, df_map = _stats_and_dfs(
        docs_ds, lambda col: pa.array(_fuzzy_term_mask(col.to_pylist(), specs)),
        cfg, id_col, text_col,
    )
    vocab = sorted(df_map)
    qmap = {f"{q}~{d}": [t for t in vocab if lev_at_most(t, q, d)] for q, d in specs}
    weights = _query_weights(qmap, df_map, int(stats["N"]))
    return _or_topk(docs_ds, weights, stats, k, cfg, id_col, text_col)


def regex_topk(
    docs_ds: "ray.data.Dataset",
    patterns: Sequence[str],
    k: int = 10,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
    wildcard: bool = False,
) -> pd.DataFrame:
    """Regex (or, with ``wildcard=True``, Lucene-wildcard) term retrieval:
    each pattern expands to EVERY vocabulary term it fully matches, scored
    as the ordinary BM25 OR over the expanded set (idf per matched term,
    multiplicity 1) — the RegexpQuery/WildcardQuery → BooleanQuery rewrite
    (reference has no pattern matching; scoring follows its BM25 scorer,
    bm25_indexer.py:300-340, over the expanded term set).  query_id is the
    pattern as given.  Exact top-k: (query_id, id, score_micros, rank) like
    ``brute_force_topk``.  pyarrow's match_substring_regex and DuckDB's
    regexp_full_match are both RE2, so the oracle expansion is
    engine-identical."""
    raw = [p for p in patterns if p]
    if not raw:
        return _empty_topk(id_col)
    regexes = {p: _anchored(wildcard_to_regex(p) if wildcard else p) for p in raw}
    stats, df_map = _stats_and_dfs(
        docs_ds, _any(pc.match_substring_regex, sorted(set(regexes.values()))),
        cfg, id_col, text_col,
    )
    vocab = pa.array(sorted(df_map), type=pa.string())
    qmap = {
        p: [t for t, ok in zip(vocab.to_pylist(), pc.match_substring_regex(
            vocab, pattern=rx).to_pylist()) if ok]
        for p, rx in regexes.items()
    }
    weights = _query_weights(qmap, df_map, int(stats["N"]))
    return _or_topk(docs_ds, weights, stats, k, cfg, id_col, text_col)


# ---------------------------------------------------------- more-like-this

def mlt_topk(
    docs_ds: "ray.data.Dataset",
    doc_ids: Sequence[int],
    k: int = 10,
    n_terms: int = 10,
    min_df: int = 2,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """More-like-this retrieval (the Lucene MoreLikeThis shape): for each
    source document, select its ``n_terms`` most characteristic terms by
    tf × ln(1 + (N-df+0.5)/(df+0.5)) — the POSITIVE BM25+-style selection
    weight (monotone-decreasing in df, so rarer terms win even on corpora
    where every term sits in over half the documents and the signed idf
    goes uniformly negative), df ≥ ``min_df``, ties (tfidf_micros DESC,
    term ASC).  SCORING then runs the ordinary signed-idf BM25 OR over the
    selected set (multiplicity 1) with the source document itself excluded
    from candidates.  query_id is ``"doc:<id>"``.  Exact top-k: (query_id,
    id, score_micros, rank) like ``brute_force_topk``.  Two passes:
    source-doc postings (a filtered scan), then stats+df for the union of
    source terms."""
    src = sorted({int(x) for x in doc_ids})
    if not src or k <= 0 or n_terms <= 0:
        return _empty_topk(id_col)
    src_arr = pa.array(src, type=pa.int64())

    def src_postings(batch: pa.Table) -> pa.Table:
        b2 = batch.filter(pc.is_in(batch.column(id_col), value_set=src_arr))
        return postings_batch(b2, cfg, id_col=id_col, text_col=text_col)

    srcp = docs_ds.map_batches(src_postings, batch_format="pyarrow").to_pandas()
    if srcp.empty:
        return _empty_topk(id_col)
    stats, df_map = _stats_and_dfs(docs_ds, _in(srcp["term"].unique()), cfg, id_col, text_col)
    n = int(stats["N"])
    if n == 0:
        return _empty_topk(id_col)
    dfv = srcp["term"].map(df_map).fillna(0).to_numpy(dtype=np.float64)
    # literal `ln(1 + ...)` (not log1p) — mirrors the DuckDB oracle expression
    selw = np.where(dfv > 0, np.log(1.0 + (n - dfv + 0.5) / (dfv + 0.5)), 0.0)
    sel = srcp.assign(
        sel_micros=score_micros(srcp["tf"].to_numpy(dtype=np.float64) * selw)
    )[dfv >= min_df]
    if sel.empty:
        return _empty_topk(id_col)
    sel = sel.sort_values(
        [id_col, "sel_micros", "term"], ascending=[True, False, True],
        kind="mergesort",
    )
    sel = sel[sel.groupby(id_col).cumcount() < n_terms]
    qmap = {
        f"doc:{d}": sorted(g["term"].tolist())
        for d, g in sel.groupby(id_col, sort=True)
    }
    # local_k = k+1: the source doc may rank anywhere in its own result —
    # dropped driver-side, so each batch must surface one spare candidate
    score_docs = _make_score_docs(
        _query_weights(qmap, df_map, n), cfg, float(stats["avgdl"]), id_col, text_col,
        local_k=k + 1,
    )
    return _rank_topk_frames(docs_ds, score_docs, k, id_col, drop={f"doc:{d}": d for d in src})


# ----------------------------------------------------------- boolean queries

def bool_topk(
    docs_ds: "ray.data.Dataset",
    queries: "Sequence",
    k: int = 10,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Boolean-expression retrieval (Lucene BooleanQuery): each query is an
    AST (see ``parse_bool_query``) evaluated per document over term
    PRESENCE; qualifying docs must additionally contain ≥1 positive term
    (pure-negative queries match nothing — the Lucene convention).  The
    score is the ordinary signed-idf BM25 sum over the DISTINCT positive
    terms present (negated clauses filter, never score), accumulated in
    sorted-term order on both tiers.  query_id is the canonical rendering.
    Exact top-k: (query_id, id, score_micros, rank)."""
    trees = {}
    for q in queries:
        t = parse_bool_query(q) if isinstance(q, str) else q
        trees[render_bool_query(t)] = t
    if not trees:
        return _empty_topk(id_col)
    leafsets = {qid: bool_leaves(t) for qid, t in trees.items()}
    all_terms = sorted({t for _, a in leafsets.values() for t in a})
    stats, df_map = _stats_and_dfs(docs_ds, _in(all_terms), cfg, id_col, text_col)
    n, avgdl = int(stats["N"]), float(stats["avgdl"])
    if n == 0:
        return _empty_topk(id_col)
    idf_map = {t: idf(int(df_map.get(t, 0)), n) for t in all_terms}
    term_set = pa.array(all_terms, type=pa.string())
    k1, b = cfg.k1, cfg.b

    def score_docs(batch: pa.Table) -> pa.Table:
        p = postings_batch(batch, cfg, id_col=id_col, text_col=text_col)
        pdf = p.filter(pc.is_in(p.column("term"), value_set=term_set)).to_pandas()
        frames = []
        by_term = {}
        if not pdf.empty:
            pdf["tfnorm"] = bm25_term_score(
                pdf["tf"].to_numpy(dtype=np.float64),
                pdf["dl"].to_numpy(dtype=np.float64), 1.0, avgdl, k1, b,
            )
            by_term = {t: g for t, g in pdf.groupby("term", sort=False)}
        for qid, tree in trees.items():
            pos_terms, qleaves = leafsets[qid]
            pos_in = [t for t in sorted(pos_terms) if t in by_term]
            if not pos_in:
                continue
            cand = np.unique(np.concatenate(
                [by_term[t][id_col].to_numpy() for t in pos_in]
            ))
            presence = {
                t: np.isin(cand, by_term[t][id_col].to_numpy())
                if t in by_term else np.zeros(len(cand), dtype=bool)
                for t in qleaves
            }

            def ev(node):
                if isinstance(node, str):
                    return presence[node]
                op = node[0]
                if op == "not":
                    return ~ev(node[1])
                m = ev(node[1])
                for sub in node[2:]:
                    m = (m & ev(sub)) if op == "and" else (m | ev(sub))
                return m

            mask = ev(tree)
            if not mask.any():
                continue
            sel = cand[mask]
            scores = np.zeros(len(sel), dtype=np.float64)
            for t in pos_in:
                g = by_term[t]
                v = (
                    pd.Series(g["tfnorm"].to_numpy(), index=g[id_col].to_numpy())
                    .reindex(sel)
                    .to_numpy()
                )
                scores += idf_map[t] * np.nan_to_num(v, nan=0.0)
            frames.append(_local_topk(qid, sel, scores, k, id_col))
        return _batch_table(frames, batch, id_col, ["query_id", id_col, "score", "score_micros"])

    return _rank_topk_frames(docs_ds, score_docs, k, id_col)


# ------------------------------------------------------------ synonym search

def synonym_topk(
    docs_ds: "ray.data.Dataset",
    queries: Sequence[str],
    synonyms: Dict[str, Sequence[str]],
    k: int = 10,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Blended synonym retrieval (Lucene SynonymQuery): each query token
    expands to its synonym group and the group scores AS ONE TERM — per doc
    the group tf is the SUM of member tfs (summed BEFORE BM25 saturation)
    and the group idf uses the group's MAX df (blending prevents a rare
    synonym's high idf from dominating — the Lucene SynonymQuery/BM25
    docFreq=max convention).  Duplicate query tokens multiply the group
    weight (reference per-occurrence summing).  Exact top-k: (query_id,
    id, score_micros, rank) like ``brute_force_topk``."""
    tokq = tokenize_queries(list(queries), cfg)
    qgroups = {q: synonym_groups(ts, synonyms) for q, ts in tokq.items() if ts}
    if not qgroups:
        return _empty_topk(id_col)
    all_terms = sorted({t for gs in qgroups.values() for g in gs for t in g})
    stats, df_map = _stats_and_dfs(docs_ds, _in(all_terms), cfg, id_col, text_col)
    n, avgdl = int(stats["N"]), float(stats["avgdl"])
    if n == 0:
        return _empty_topk(id_col)
    # per query: fold duplicate groups into (group-key → weight) with
    # multiplicity; group weight = idf(max member df)
    qweights: Dict[str, Dict[tuple, float]] = {}
    for q, gs in qgroups.items():
        w: Dict[tuple, float] = {}
        for g in gs:
            df_max = max((df_map.get(t, 0) for t in g), default=0)
            if df_max <= 0:
                continue
            key = tuple(g)
            w[key] = w.get(key, 0.0) + idf(int(df_max), n)
        if w:
            qweights[q] = w
    if not qweights:
        return _empty_topk(id_col)
    term_set = pa.array(all_terms, type=pa.string())
    k1, b = cfg.k1, cfg.b

    def score_docs(batch: pa.Table) -> pa.Table:
        p = postings_batch(batch, cfg, id_col=id_col, text_col=text_col)
        pdf = p.filter(pc.is_in(p.column("term"), value_set=term_set)).to_pandas()
        frames = []
        for qid, w in qweights.items():
            acc = None
            for g, wg in w.items():
                sub = pdf[pdf["term"].isin(g)]
                if sub.empty:
                    continue
                # group tf = per-doc SUM over members; dl is per-doc constant
                gg = sub.groupby(id_col, sort=True).agg(
                    tf=("tf", "sum"), dl=("dl", "first")
                )
                contrib = wg * bm25_term_score(
                    gg["tf"].to_numpy(dtype=np.float64),
                    gg["dl"].to_numpy(dtype=np.float64), 1.0, avgdl, k1, b,
                )
                s = pd.Series(contrib, index=gg.index)
                acc = s if acc is None else acc.add(s, fill_value=0.0)
            if acc is None or acc.empty:
                continue
            frames.append(_local_topk(qid, acc.index.to_numpy(), acc.to_numpy(), k, id_col))
        return _batch_table(frames, batch, id_col, ["query_id", id_col, "score", "score_micros"])

    return _rank_topk_frames(docs_ds, score_docs, k, id_col)


# ---------------------------------------------------- dismax / boosted terms

def dismax_topk(
    docs_ds: "ray.data.Dataset",
    queries: Sequence[str],
    k: int = 10,
    tiebreak: float = 0.3,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Disjunction-max retrieval (Lucene DisjunctionMaxQuery): per doc the
    score is the MAX single-term BM25 contribution plus ``tiebreak`` × the
    sum of the remaining contributions — ``max + tb·(sum − max)`` — so a doc
    matching one strong term is not drowned out by many weak ones.  Clauses
    are the query's DISTINCT terms (DisMax is clause-set semantics; a
    duplicated token is the same clause).  Candidates/statistics identical
    to ``brute_force_topk``; exact top-k by (score_micros DESC, id ASC)."""
    tokq = {q: sorted(set(ts)) for q, ts in tokenize_queries(list(queries), cfg).items() if ts}
    stats, df_map = _resolve_stats(docs_ds, tokq, cfg, id_col, text_col, None)
    n = int(stats["N"])
    weights = _query_weights(tokq, df_map, n) if n else {}
    return _or_topk(docs_ds, weights, stats, k, cfg, id_col, text_col, tiebreak=float(tiebreak))


def boosted_topk(
    docs_ds: "ray.data.Dataset",
    queries: Sequence[str],
    boosts: Dict[str, float],
    k: int = 10,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Query-time per-term boosts (Lucene BoostQuery around each term
    clause): score = Σ boost_t × bm25_t.  Terms absent from ``boosts``
    keep boost 1.0; duplicate query tokens multiply (same per-occurrence
    summing as the plain scorer, so ``boosts={}`` ≡ ``brute_force_topk``).
    Exact top-k by (score_micros DESC, id ASC)."""
    tokq = {q: ts for q, ts in tokenize_queries(list(queries), cfg).items() if ts}
    stats, df_map = _resolve_stats(docs_ds, tokq, cfg, id_col, text_col, None)
    n = int(stats["N"])
    weights = _query_weights(tokq, df_map, n) if n else {}
    # scale each term weight by its boost AFTER multiplicity folding —
    # boost applies per clause, multiplicity already multiplied the idf.
    # Only a boost of 0 removes a clause: an idf-0 term (df == N/2) keeps
    # its docs as candidates, as in the plain scorer.
    weights = {
        qid: {
            t: wv * float(boosts.get(t, 1.0))
            for t, wv in w.items()
            if float(boosts.get(t, 1.0)) != 0.0
        }
        for qid, w in weights.items()
    }
    weights = {qid: w for qid, w in weights.items() if w}
    return _or_topk(docs_ds, weights, stats, k, cfg, id_col, text_col)


# ------------------------------------------------------------ faceted search

def facet_counts(
    docs_ds: "ray.data.Dataset",
    queries: Dict[str, List[str]],
    facet_col: str,
    cfg: BM25Config = BM25Config(),
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Faceted search (the Lucene facets / Elasticsearch terms-aggregation
    shape): for every query, the count of ALL matching documents (≥1 query
    term present) per value of ``facet_col`` — computed over the full match
    set, not just the top-k page.  One tokenization pass; per-batch partial
    (query, facet, n) rows fold driver-side (bounded: |queries| × facet
    cardinality).  Distinct-doc counting is batch-safe because a document's
    postings never split across batches (structural per-doc completeness,
    see ``_make_score_docs``).  Returns (query_id, facet value col, n_docs)
    sorted (query_id, facet)."""
    qmap = {q: sorted(set(ts)) for q, ts in queries.items() if ts}
    empty = pd.DataFrame(
        {"query_id": pd.Series(dtype=object), facet_col: pd.Series(dtype=object),
         "n_docs": pd.Series(dtype=np.int64)}
    )
    if not qmap:
        return empty
    all_terms = pa.array(sorted({t for ts in qmap.values() for t in ts}),
                         type=pa.string())

    def partial(batch: pa.Table) -> pa.Table:
        p = postings_batch(batch, cfg, id_col=id_col, text_col=text_col)
        pdf = p.filter(pc.is_in(p.column("term"), value_set=all_terms)).to_pandas()
        facets = dict(zip(batch.column(id_col).to_pylist(),
                          batch.column(facet_col).to_pylist()))
        rows_q, rows_f, rows_n = [], [], []
        for qid, ts in qmap.items():
            sub = pdf[pdf["term"].isin(ts)]
            if sub.empty:
                continue
            docs = sub[id_col].unique()
            vc = pd.Series([facets[d] for d in docs]).value_counts()
            rows_q.extend([qid] * len(vc))
            rows_f.extend(vc.index.tolist())
            rows_n.extend(int(x) for x in vc.to_numpy())
        return pa.table({
            "query_id": pa.array(rows_q, type=pa.string()),
            facet_col: pa.array(rows_f, type=pa.string()),
            "n_docs": pa.array(rows_n, type=pa.int64()),
        })

    acc: Dict[tuple, int] = {}
    for b in docs_ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for q, f, n in zip(b.column("query_id").to_pylist(),
                           b.column(facet_col).to_pylist(),
                           b.column("n_docs").to_pylist()):
            acc[(q, f)] = acc.get((q, f), 0) + int(n)
    if not acc:
        return empty
    keys = sorted(acc)
    return pd.DataFrame({
        "query_id": [k[0] for k in keys],
        facet_col: [k[1] for k in keys],
        "n_docs": pd.array([acc[k] for k in keys], dtype="int64"),
    })
