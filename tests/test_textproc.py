"""Conformance tests for chunking / snippets / highlighting / ranking
composition against the importlib-loaded reference implementations."""

from __future__ import annotations

import hypothesis.strategies as st
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings

from oboyu_ray.functions import ranking, textproc
from tests.reference_oracle import load_reference_retrieval

TEXTS = [
    "",
    "   ",
    "short text",
    "one two three four five. " * 100,
    ("パラグラフ一。日本語の文章です。" * 40) + "\n\n" + ("second paragraph here. " * 40),
    "nobreaks" * 400,
    "line\nbreaks\n" * 200,
    "sentence one. sentence two! sentence three? 文四。文五！文六？\n" * 60,
]


@pytest.fixture(scope="module")
def ref():
    return load_reference_retrieval()


# ------------------------------------------------------------------ chunker

@pytest.mark.parametrize("size,overlap", [(1024, 256), (120, 30), (64, 16)])
def test_chunker_matches_reference(ref, size, overlap):
    rc = ref.DocumentChunker(chunk_size=size, chunk_overlap=overlap)
    for t in TEXTS:
        assert textproc.chunk_text(t, size, overlap) == rc.chunk_text(t), t[:40]


def test_chunker_matches_reference_on_testdata(ref):
    docs = pq.read_table("/root/testdata/sf0.01/documents.parquet", columns=["text"])
    rc = ref.DocumentChunker(chunk_size=120, chunk_overlap=30)
    for t in docs.column("text").to_pylist():
        assert textproc.chunk_text(t, 120, 30) == rc.chunk_text(t)


# hypothesis: property-based equivalence on random boundary-rich text
@settings(max_examples=200, deadline=None)
@given(
    t=st.text(alphabet=st.sampled_from(list("ab .!?。！？\n日本語xyz")), max_size=600),
    so=st.sampled_from([(64, 16), (100, 25)]),
)
def test_chunker_property_equivalence(t, so):
    ref = load_reference_retrieval()
    size, overlap = so
    rc = ref.DocumentChunker(chunk_size=size, chunk_overlap=overlap)
    assert textproc.chunk_text(t, size, overlap) == rc.chunk_text(t)


# ------------------------------------------------------------------ snippets

def test_snippet_matches_reference(ref):
    rs = ref.SnippetExtractor()
    for t in TEXTS:
        for positions in ([], [(5, 9)], [(5, 9), (30, 35)], [(0, 3), (100, 104), (400, 404)]):
            positions = [(s, e) for s, e in positions if e <= len(t)]
            for length in (50, 200):
                assert textproc.extract_snippet(t, positions, length) == rs.extract_snippet(
                    t, positions, length
                )


def test_highlighter_matches_reference(ref):
    rh = ref.TextHighlighter()
    cases = [
        ("the quick Brown fox", ["brown", "fox"]),
        ("a nested **bold** already", ["bold"]),
        ("x", ["x"]),  # <2 chars skipped
        ("overlap overlaps overlapping", ["overlap"]),
        ("日本語 と english words", ["english", "日本語"]),
    ]
    for text, terms in cases:
        assert textproc.highlight_matches(text, terms) == rh.highlight_matches(text, terms)
    assert textproc.remove_highlights("a **b** c **d**") == rh.remove_highlights(
        "a **b** c **d**"
    )


# ------------------------------------------------------------------ ranking

def _ids(results):
    return [r.chunk_id for r in results]


def test_rrf_matches_reference(ref):
    import pandas as pd

    combiner = ref.HybridSearchCombiner(rrf_k=60)
    vec = [ref.make_result(f"d{i}", 1.0 - i * 0.05) for i in range(8)]
    bm = [ref.make_result(f"d{i}", 0.9 - i * 0.04) for i in range(4, 12)]
    expected = combiner.combine(vec, bm, limit=10)

    vdf = pd.DataFrame({"doc_id": [r.chunk_id for r in vec]})
    bdf = pd.DataFrame({"doc_id": [r.chunk_id for r in bm]})
    ours = ranking.rrf_combine([vdf, bdf], rrf_k=60, limit=10, tie_break_ids=False)
    assert ours["doc_id"].tolist() == _ids(expected)
    for score, r in zip(ours["rrf_score"], expected):
        assert abs(score - r.score) < 1e-12


@pytest.mark.parametrize("method", ["min_max", "z_score", "rank_based"])
def test_normalizers_match_reference(ref, method):
    import pandas as pd

    rn = ref.ScoreNormalizer(ref.NormalizationMethod(method))
    results = [ref.make_result(f"d{i}", s) for i, s in enumerate([0.3, 0.9, 0.11, 0.9, 0.5])]
    expected = rn.normalize_scores(list(results), "bm25")

    frame = pd.DataFrame({"doc_id": [r.chunk_id for r in results],
                          "score": [r.score for r in results]})
    ours = ranking.normalize_scores(frame, method=method)
    ref_map = {r.chunk_id: r.score for r in expected}
    for did, s in zip(ours["doc_id"], ours["score"]):
        assert abs(s - ref_map[did]) < 1e-12


def test_normalizers_degenerate_unchanged():
    import pandas as pd

    frame = pd.DataFrame({"doc_id": ["a", "b"], "score": [0.5, 0.5]})
    for method in ("min_max", "z_score"):
        out = ranking.normalize_scores(frame, method=method)
        assert out["score"].tolist() == [0.5, 0.5]


def test_merger_matches_reference(ref):
    import pandas as pd

    rm = ref.ResultMerger()
    l1 = [ref.make_result("a", 0.9), ref.make_result("b", 0.5)]
    l2 = [ref.make_result("b", 0.8), ref.make_result("c", 0.7), ref.make_result("a", 0.9)]
    expected = rm.merge(l1, l2, limit=10)

    f1 = pd.DataFrame({"doc_id": ["a", "b"], "score": [0.9, 0.5]})
    f2 = pd.DataFrame({"doc_id": ["b", "c", "a"], "score": [0.8, 0.7, 0.9]})
    ours = ranking.merge_results(f1, f2, limit=10)
    assert ours["doc_id"].tolist() == _ids(expected)
    assert ours["score"].tolist() == [r.score for r in expected]


# ------------------------------------------------------------------ rerank

def test_rerank_flow_and_truncation():
    import numpy as np
    import pandas as pd

    from oboyu_ray.functions.rerank import FakeCrossEncoder, rerank

    cand = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "alpha beta gamma",       # overlap 2/4 with query
                "alpha beta",             # overlap 2/3
                "unrelated words here",   # 0
                "alpha",                  # 1/3
            ],
        }
    )
    out = rerank("alpha beta", cand, top_k=2)
    assert len(out) == 2
    assert out["doc_id"].tolist() == [2, 1]  # jaccard 2/3 > 2/4
    assert (out["rerank_score"].to_numpy() >= 0).all()
    # empty input passes through
    empty = rerank("q", cand.iloc[0:0], top_k=3)
    assert len(empty) == 0 and "rerank_score" in empty.columns
    # batching boundary: >16 pairs processed identically
    big = pd.DataFrame({"doc_id": range(40), "text": ["alpha beta"] * 40})
    scored = FakeCrossEncoder().predict([("alpha", t) for t in big["text"]])
    assert len(set(np.round(scored, 12))) == 1


def test_rerank_stub_raises():
    import pytest as _pytest

    from oboyu_ray.functions.rerank import RealCrossEncoderStub

    with _pytest.raises(NotImplementedError):
        RealCrossEncoderStub().predict([("q", "d")])


def test_rerank_stable_order_on_ties():
    import pandas as pd

    from oboyu_ray.functions.rerank import rerank

    cand = pd.DataFrame({"doc_id": [9, 3, 5], "text": ["same text"] * 3})
    out = rerank("same", cand, top_k=3)
    # equal scores keep the original (retrieval) order — reference stable sort
    assert out["doc_id"].tolist() == [9, 3, 5]


def test_snippet_strategies_match_reference(ref):
    """fixed/sentence/paragraph strategies + match finding conformance vs
    the importlib-loaded reference snippet_strategies.py stack."""
    from oboyu_ray.functions import textproc

    jp = ref.JapaneseSnippetProcessor()
    cp = ref.ContextProvider()
    strategies = {
        "fixed_length": (ref.FixedLengthStrategy(cp, jp), textproc.snippet_fixed),
        "sentence_boundary": (ref.SentenceBoundaryStrategy(cp, jp), textproc.snippet_sentence),
        "paragraph_boundary": (ref.ParagraphBoundaryStrategy(cp, jp), textproc.snippet_paragraph),
    }
    texts = [
        "",
        "short text only.",
        ("The quick brown fox jumps over the lazy dog. " * 12)
        + "\n\nSecond paragraph talks about indexing engines. " * 6,
        "これは最初の文です。検索エンジンの話をします！二番目の段落へ続く？\n\n"
        + "新しい段落です。日本語の文章区切りを確認します。" * 8,
        "no sentence enders here just a very long runon " * 20,
        "Mixed 日本語 and English sentences. 検索します。\n\nAnother paragraph entirely. " * 5,
    ]
    queries = ["quick fox", "検索", "paragraph", "indexing engines", "zz", ""]
    for text in texts:
        for query in queries:
            ref_matches = [
                ref.SnippetMatch(m.start, m.end, m.text, m.score)
                for m in textproc.find_query_matches(text, query)
            ]
            for length in (60, 150, 300):
                cfg = ref.SnippetConfig(length=length)
                for name, (ref_strat, ours) in strategies.items():
                    want = ref_strat.process(text, ref_matches, cfg)
                    got = ours(text, textproc.find_query_matches(text, query), length)
                    assert got == want, (name, length, query, text[:40])


def test_generate_snippet_dispatch():
    from oboyu_ray.functions.textproc import generate_snippet

    text = "First sentence here. Second sentence with target word. Third one."
    s = generate_snippet(text, "target", length=40)
    assert "target" in s
    assert generate_snippet("", "x") == ""
