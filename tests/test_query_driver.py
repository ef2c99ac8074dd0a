"""The query driver's batched forms agree with its single forms.

``search_many`` (and its pipelined ``search_many_submit``/``_result``),
``count_many`` and ``search_phrase_many`` run every query through one df
sweep and one shard ``batch``; ``search_terms``, ``count_matches`` and
``search_phrase_terms`` fan out one query at a time.  Both decide "this
query is dead, answer empty without a fan-out" by the same rule.  These
tests pin, on a tiny hand-written corpus with a positional index:

* an empty batch returns ``[]`` from each batched form;
* an all-dead batch returns typed empties or zeros and asks no shard (the
  shards' ``queries`` counter does not move);
* a table of edge cases — a duplicated term, an idf-0 term (df == N/2), a
  df-0 term with and without ``require_all``, a stopword-only query —
  gives identical answers in every single form and its batched form.
"""

from __future__ import annotations

import datetime

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from oboyu_ray.config import BuildConfig
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.query import QueryEngine

CONVS = {
    "c0": ["alpha bravo", "alpha charlie", "alpha", "alpha alpha delta"],
    "c1": ["bravo bravo charlie", "charlie delta", "echo", "foxtrot bravo"],
}
CASES = [
    "bravo bravo charlie",   # duplicated term: double weight
    "alpha",                 # idf-0 term alone (df == N/2): live, scores 0
    "alpha bravo",           # idf-0 term next to a scoring one
    "bravo zzzabsent",       # df-0 term: dead only under require_all
    "charlie delta",         # plain two-term query, a real phrase
    "the",                   # stopword-only: no tokens, dead
    "zzzabsent",             # df-0 only: dead
]
DEAD = ["the", "zzzabsent", "", "zzzabsent yyyabsent"]


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    base = tmp_path_factory.mktemp("query_driver")
    rows = [(c, t, text) for c, texts in CONVS.items() for t, text in enumerate(texts)]
    src = str(base / "turns.parquet")
    pq.write_table(pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], type=pa.int32()),
        "role": pa.array(["user"] * len(rows)),
        "text": pa.array([r[2] for r in rows]),
        "tool": pa.array([""] * len(rows)),
        "ts": pa.array([datetime.datetime(2025, 1, 1)] * len(rows),
                       type=pa.timestamp("us")),
    }), src)
    index_dir = str(base / "index")
    build_index([src], index_dir, BuildConfig(window_docs=64, store_positions=True))
    eng = QueryEngine(index_dir, num_shards=2)
    yield eng
    eng.close()


def _assert_bare_empty(frame):
    assert list(frame.columns) == ["doc_num", "score"] and len(frame) == 0
    assert frame["doc_num"].dtype == np.int64 and frame["score"].dtype == np.float64


def test_corpus_has_the_edge_cases(engine):
    assert engine.stats["N"] == 8
    assert engine.vocab.df(["alpha", "zzzabsent"]) == {"alpha": 4, "zzzabsent": 0}
    assert engine.term_weights(["alpha"]) == {"alpha": 0.0}
    assert engine.tokenizer.tokenize("the") == []


def test_empty_batches_return_empty_lists(engine):
    assert engine.search_many([]) == []
    assert engine.search_many_result(engine.search_many_submit([])) == []
    assert engine.count_many([]) == []
    assert engine.search_phrase_many([]) == []


def test_all_dead_batch_asks_no_shard(engine):
    before = engine.query_stats()["queries"]
    many = engine.search_many(DEAD, k=5)
    strict = engine.search_many(DEAD, k=5, require_all=True)
    phrases = engine.search_phrase_many(DEAD, k=5)
    counts = engine.count_many(DEAD) + engine.count_many(DEAD, require_all=True)
    assert engine.query_stats()["queries"] == before
    assert counts == [0] * (2 * len(DEAD))
    assert all(type(c) is int for c in counts)
    for frame in many + strict + phrases:
        _assert_bare_empty(frame)
    assert len(many) == len(strict) == len(phrases) == len(DEAD)
    # a live batch does reach the shards, so the counter can move at all
    engine.search_many(["alpha bravo"], k=5)
    assert engine.query_stats()["queries"] > before


@pytest.mark.parametrize("require_all", [False, True])
def test_single_and_batched_forms_agree(engine, require_all):
    tok = engine.tokenizer.tokenize
    batched = engine.search_many(CASES, k=10, require_all=require_all)
    piped = engine.search_many_result(
        engine.search_many_submit(CASES, k=10, require_all=require_all))
    counts = engine.count_many(CASES, require_all=require_all)
    for q, many, pipe, count in zip(CASES, batched, piped, counts):
        single = engine.search_terms(tok(q), k=10, require_all=require_all)
        pd.testing.assert_frame_equal(many, single, check_exact=True)
        pd.testing.assert_frame_equal(pipe, single, check_exact=True)
        assert count == engine.count_matches(q, require_all=require_all), q
    by_query = dict(zip(CASES, batched))
    assert len(by_query["alpha"]) == 4 and (by_query["alpha"]["score"] == 0.0).all()
    assert len(by_query["bravo zzzabsent"]) == (0 if require_all else 3)
    for q in ("the", "zzzabsent"):
        _assert_bare_empty(by_query[q])


def test_single_and_batched_phrases_agree(engine):
    tok = engine.tokenizer.tokenize
    batched = engine.search_phrase_many(CASES, k=10)
    for q, many in zip(CASES, batched):
        single = engine.search_phrase_terms(tok(q), k=10)
        pd.testing.assert_frame_equal(many, single, check_exact=True)
        resolved = engine.search_phrase(q, k=10)
        np.testing.assert_array_equal(resolved["doc_num"].to_numpy(),
                                      single["doc_num"].to_numpy())
    by_query = dict(zip(CASES, batched))
    assert len(by_query["charlie delta"]) == 1
    assert len(by_query["bravo zzzabsent"]) == 0
