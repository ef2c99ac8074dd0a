"""Property-based end-to-end conformance: random tiny corpora → full
compressed-index build → shard query, rank-identical to the reference
BM25Indexer.  Hypothesis explores corpus shapes the fixed fixtures don't:
empty/whitespace turns, single-doc corpora, all-stopword documents,
duplicate texts, every-doc hot terms (negative idf), single-term vocab."""

from __future__ import annotations

import datetime

import hypothesis.strategies as st
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings

from oboyu_ray.config import BuildConfig
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.query import QueryEngine
from tests.reference_oracle import load_reference, reference_topk

# small word pool with deliberate hazards: stopwords, 1-char tokens
# (length-filtered), JP/EN mix, a near-universal term
WORDS = ["検索", "index", "の", "です", "a", "データ", "処理", "x1", "モデル", "the", "común"]


corpus_strategy = st.lists(
    st.lists(st.sampled_from(WORDS + ["", "  "]), min_size=0, max_size=12),
    min_size=1,
    max_size=24,
)

query_strategy = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("prop")


@pytest.fixture(scope="module")
def ref():
    return load_reference()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(corpus=corpus_strategy, qterms=query_strategy, data=st.data())
def test_random_corpus_rank_identity(corpus, qterms, data, workdir, ref):
    import shutil
    import uuid

    base = workdir / uuid.uuid4().hex[:12]
    texts = [" ".join(doc) for doc in corpus]
    # split into 1-2 conversations with dense turn indices
    n_convs = data.draw(st.integers(1, min(2, len(texts))))
    rows = {k: [] for k in ("conv_id", "turn_idx", "role", "text", "tool", "ts")}
    per_conv = {}
    for i, t in enumerate(texts):
        conv = f"c{i % n_convs:04d}"
        rows["conv_id"].append(conv)
        rows["turn_idx"].append(per_conv.setdefault(conv, 0))
        per_conv[conv] += 1
        rows["role"].append("user")
        rows["text"].append(t)
        rows["tool"].append("")
        rows["ts"].append(datetime.datetime(2025, 1, 1))
    base.mkdir()
    f = str(base / "t.parquet")
    pq.write_table(pa.table({
        "conv_id": pa.array(rows["conv_id"]),
        "turn_idx": pa.array(rows["turn_idx"], type=pa.int32()),
        "role": pa.array(rows["role"]),
        "text": pa.array(rows["text"]),
        "tool": pa.array(rows["tool"]),
        "ts": pa.array(rows["ts"], type=pa.timestamp("us")),
    }).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")]), f)

    index_dir = str(base / "idx")
    build_index([f], index_dir, BuildConfig(window_docs=8, vocab_buckets=4), files_per_part=1)

    # reference oracle over the same (doc_id, text) pairs
    ridx = ref.BM25Indexer()
    pairs = sorted(
        (f"{c}:{ti:08d}", t)
        for c, ti, t in zip(rows["conv_id"], rows["turn_idx"], rows["text"])
    )
    ridx.index_chunks([ref.make_chunk(i, c) for i, c in pairs])

    engine = QueryEngine(index_dir, num_shards=1)
    try:
        terms = [t for q in [" ".join(qterms)] for t in engine.tokenizer.tokenize(q)]
        cand = {e[0] for t in terms for e in ridx.inverted_index.get(t, [])}
        expect = [(d, s) for d, s in reference_topk(ridx, terms, k=len(pairs)) if d in cand][:5]
        got = engine.search(" ".join(qterms), k=5)
        assert got["doc_id"].tolist() == [d for d, _ in expect]
        np.testing.assert_allclose(
            got["score"].to_numpy(), [s for _, s in expect], rtol=1e-9, atol=1e-12
        )
        # statistics identity
        import json
        import os

        stats = json.load(open(os.path.join(index_dir, "stats.json")))
        assert stats["N"] == ridx.document_count
        assert stats["total_dl"] == ridx.total_document_length
    finally:
        engine.close()
        shutil.rmtree(base, ignore_errors=True)
