"""BM25 conformance against the reference implementation, loaded as an oracle.

Pins: df/cf/dl/avgdl statistics, the exact (negative-capable) IDF formula,
per-(query, doc) scores to 1e-9 relative tolerance, and rank-identical top-k
over the candidate set (docs containing ≥1 query term — the inverted-index
traversal semantics; the reference's ``score`` assigns 0.0 to non-matching
docs which therefore never enter a DAAT result list)."""

from __future__ import annotations

import math

import pyarrow as pa
import pytest

import ray.data

from oboyu_ray.config import BM25Config
from oboyu_ray.pipelines.bm25_batch import brute_force_scores, brute_force_topk, tokenize_queries
from oboyu_ray.stages.postings import doc_stats_batch, postings_batch
from oboyu_ray.stages.stats import collection_stats, idf, vocabulary
from oboyu_ray.sources.transcripts import synth_transcripts_table
from tests.reference_oracle import load_reference, reference_topk

CFG = BM25Config()

# Reference-mirror fixture corpus — same texts as the reference's own BM25
# unit tests (tests/indexer/algorithm/test_bm25_indexer.py:20-80).
FIVE_DOCS = [
    ("chunk1", "Python programming language Python"),
    ("chunk2", "Java programming language"),
    ("chunk3", "Python data science analysis"),
    ("chunk4", "machine learning Python TensorFlow"),
    ("chunk5", "web development JavaScript Python"),
]
IDF_DOCS = (
    [(f"c{i}", "common word") for i in range(6)]
    + [(f"r{i}", "rare word") for i in range(2)]
    + [(f"o{i}", "other word") for i in range(2)]
)


def docs_table(pairs):
    return pa.table(
        {"doc_id": pa.array([p[0] for p in pairs], type=pa.string()),
         "text": pa.array([p[1] for p in pairs], type=pa.string())}
    )


def build_reference_index(pairs):
    ref = load_reference()
    idx = ref.BM25Indexer()
    idx.index_chunks([ref.make_chunk(i, c) for i, c in pairs])
    return idx


def docs_ds(pairs):
    return ray.data.from_arrow(docs_table(pairs))


class TestStatistics:
    def test_df_cf_dl_match_reference_five_docs(self):
        ref = build_reference_index(FIVE_DOCS)
        vocab = vocabulary(
            docs_ds(FIVE_DOCS).map_batches(
                lambda b: postings_batch(b, CFG), batch_format="pyarrow"
            )
        ).to_pandas()
        ours_df = dict(zip(vocab["term"], vocab["df"]))
        ours_cf = dict(zip(vocab["term"], vocab["cf"]))
        assert ours_df == dict(ref.document_frequencies)
        assert ours_cf == dict(ref.collection_frequencies)
        assert ours_df["python"] == 4  # pinned: test_bm25_indexer.py df(python)=4

        stats_tbl = doc_stats_batch(docs_table(FIVE_DOCS), CFG)
        ours_dl = dict(zip(stats_tbl["doc_id"].to_pylist(), stats_tbl["dl"].to_pylist()))
        assert ours_dl == dict(ref.document_lengths)
        assert ours_dl["chunk1"] == 4  # tf(python,chunk1)=2 + programming + language

    def test_collection_stats_match_reference(self):
        pairs = FIVE_DOCS + [("empty", ""), ("ws", "   ")]
        ref = build_reference_index(pairs)
        stats = collection_stats(docs_ds(pairs), CFG)
        assert stats["N"] == ref.document_count  # empty docs count toward N
        assert stats["total_dl"] == ref.total_document_length
        assert stats["avgdl"] == pytest.approx(
            ref.total_document_length / ref.document_count, rel=1e-12
        )

    def test_idf_formula_exact(self):
        # reference test_bm25_statistics_calculator.py:150-160 — 1e-10 match
        for df_, n in [(1, 10), (5, 10), (9, 10), (3, 5), (100, 101)]:
            assert idf(df_, n) == pytest.approx(
                math.log((n - df_ + 0.5) / (df_ + 0.5)), abs=1e-10
            )
        assert idf(9, 10) < 0  # negative IDF for terms in >half the docs
        assert idf(0, 10) == 0.0


class TestScores:
    @pytest.mark.parametrize(
        "query", ["python", "python programming", "rare word", "common word",
                  "learning python data", "nonexistent"]
    )
    def test_scores_match_reference(self, query):
        for pairs in (FIVE_DOCS, IDF_DOCS):
            ref = build_reference_index(pairs)
            queries = tokenize_queries([query], CFG)
            pdf = brute_force_scores(docs_ds(pairs), queries, CFG)
            ours = {
                (r.query_id, r.doc_id): r.score for r in pdf.itertuples()
            }
            terms = queries[query]
            for doc_id, _ in pairs:
                tf_map = ref.term_analyzer.analyze_document(dict(pairs)[doc_id])
                expected = ref.score(terms, doc_id, tf_map)
                got = ours.get((query, doc_id), 0.0)
                if expected == 0.0 and (query, doc_id) not in ours:
                    continue  # non-candidates are absent by design
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_duplicate_query_terms_double_count(self):
        # reference score() iterates query terms including duplicates
        ref = build_reference_index(FIVE_DOCS)
        tf_map = ref.term_analyzer.analyze_document("Python programming language Python")
        expected = ref.score(["python", "python"], "chunk1", tf_map)
        pdf = brute_force_scores(docs_ds(FIVE_DOCS), {"q": ["python", "python"]}, CFG)
        got = pdf[(pdf.query_id == "q") & (pdf.doc_id == "chunk1")].score.iloc[0]
        assert got == pytest.approx(expected, rel=1e-9)

    def test_rank_properties_pinned_by_reference_tests(self):
        # rare > common (IDF ordering), short > long (length normalization)
        pdf = brute_force_scores(docs_ds(IDF_DOCS), {"rare": ["rare"], "common": ["common"]}, CFG)
        rare = pdf[pdf.query_id == "rare"].score.max()
        common = pdf[pdf.query_id == "common"].score.max()
        assert rare > common
        # extra non-matching docs keep idf positive (as in the reference's
        # length-normalization corpus, test_bm25_indexer.py:330-399)
        ln_docs = [
            ("short", "machine learning"),
            ("long", "machine learning " + "filler " * 30),
            ("x1", "unrelated text one"),
            ("x2", "other content here"),
            ("x3", "more unrelated words"),
        ]
        pdf2 = brute_force_scores(docs_ds(ln_docs), {"q": ["machine", "learning"]}, CFG)
        s = dict(zip(pdf2.doc_id, pdf2.score))
        assert s["short"] > s["long"]


class TestTopK:
    def test_topk_rank_identical_on_synth_corpus(self):
        tbl = synth_transcripts_table(seed=7, conv_start=0, conv_end=60)
        pairs = [
            (f"{c}:{t:08d}", x)
            for c, t, x in zip(
                tbl["conv_id"].to_pylist(), tbl["turn_idx"].to_pylist(), tbl["text"].to_pylist()
            )
        ]
        ref = build_reference_index(pairs)
        query_strings = [
            "検索 インデックス",          # JP multi-term
            "python model",              # EN multi-term
            "です",                      # hot particle-like term (negative IDF likely)
            "compress 圧縮 decode",      # mixed
            "zzz_nohit",                 # no-hit
            "token",                     # single term
        ]
        queries = tokenize_queries(query_strings, CFG)
        k = 10
        ours = brute_force_topk(docs_ds(pairs), queries, k=k, cfg=CFG)

        for q, terms in queries.items():
            ref_ranked = reference_topk(ref, terms, k=len(pairs))
            # candidate semantics: docs containing ≥1 query term
            cand = {
                e[0] for t in terms for e in ref.inverted_index.get(t, [])
            }
            ref_ranked = [(d, s) for d, s in ref_ranked if d in cand]
            # tie-guard at the k boundary (SURVEY §7): ranks are compared on
            # the micros quantum, so docs whose micros agree are an
            # order-equivalence class — compare doc ids as ordered sets per
            # micros level instead of positionally
            got = ours[ours.query_id == q].sort_values("rank")
            assert len(got) == min(k, len(ref_ranked)), q
            from collections import defaultdict
            from oboyu_ray.fixedpoint import micros as _micros

            ref_levels = defaultdict(set)
            for d, sc in ref_ranked[: k + 20]:
                ref_levels[_micros(sc)].add(d)
            for row in got.itertuples():
                assert row.doc_id in ref_levels[row.score_micros], (q, row.rank)
            # and positional identity holds whenever micros are tie-free
            seen = [(_micros(sc)) for _, sc in ref_ranked[:k]]
            if len(set(seen)) == len(seen):
                assert got["doc_id"].tolist() == [d for d, _ in ref_ranked[:k]], q
