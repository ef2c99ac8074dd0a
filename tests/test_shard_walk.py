"""The shared part walk and running top-k of ``IndexShard``, pinned on an
in-process shard over every partition of a small positional index.

Every top-k kernel runs through ``IndexShard._walk`` and ``_TopK``, so
each one (a) counts exactly one query per call, (b) answers k = 0 and an
empty scope with nothing, and (c) returns, for a narrow scope, the
unscoped ranking filtered to the scope and cut to k.
"""

from __future__ import annotations

import collections
import json
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from oboyu_ray.config import BM25Config, BuildConfig
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.query import QueryEngine, VocabLookup
from oboyu_ray.sources.transcripts import write_synth_transcripts
from oboyu_ray.stages.postings import get_tokenizer
from oboyu_ray.state.shards import IndexShard

K = 5


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    base = tmp_path_factory.mktemp("shardwalk")
    files = write_synth_transcripts(str(base / "src"), n_convs=200, seed=7,
                                    convs_per_file=50)
    index_dir = str(base / "index")
    cfg = BuildConfig(window_docs=256, store_positions=True)
    build_index(files, index_dir, cfg, files_per_part=2)
    part_ids = sorted(
        int(f.split("-")[1].split(".")[0])
        for f in os.listdir(os.path.join(index_dir, "blocks"))
    )
    shard = IndexShard(index_dir, part_ids, cfg.window_docs)
    stats = json.load(open(os.path.join(index_dir, "stats.json")))
    shard.configure(1.2, 0.75, float(stats["avgdl"]))
    n = int(stats["N"])
    vocab = VocabLookup(os.path.join(index_dir, "vocab"))

    def weights(terms):
        return QueryEngine._weights_from_dfs(terms, vocab.df(terms), n)

    # query terms and a phrase picked from the corpus itself: the two most
    # frequent terms, a mid-frequency one, and the most frequent bigram
    tok = get_tokenizer(BM25Config())
    df, bigrams = collections.Counter(), collections.Counter()
    for f in files:
        for text in pq.read_table(f, columns=["text"])["text"].to_pylist():
            toks = tok.tokenize(text or "")
            df.update(set(toks))
            bigrams.update(zip(toks, toks[1:]))
    ranked = [t for t, _ in df.most_common()]
    terms = [ranked[0], ranked[1], ranked[len(ranked) // 4]]
    phrase = list(bigrams.most_common(1)[0][0])
    prefix = terms[2][:1]
    in_range = sorted(
        t for p in shard.parts for t in p.term_slices if prefix <= t < prefix + "￿"
    )
    return {
        "shard": shard, "n": n, "terms": terms, "w": weights(terms),
        "phrase": phrase, "pw": weights(phrase), "prefix": prefix,
        "rw": weights(in_range),
    }


def _bool(c, k, scope):
    a, b, x = c["terms"]
    return c["shard"].query_bool(
        ["or", x, ["and", a, ["not", b]]], {a: c["w"][a], x: c["w"][x]}, k,
        scope=scope,
    )


KERNELS = {
    "query": lambda c, k, scope: c["shard"].query(c["w"], k, scope=scope),
    "query_all": lambda c, k, scope: c["shard"].query_all(
        {t: c["w"][t] for t in c["terms"][:2]}, k, scope=scope),
    "query_bool": _bool,
    "query_synonym": lambda c, k, scope: c["shard"].query_synonym(
        [c["terms"][:2], c["terms"][2:]],
        [c["w"][c["terms"][0]], c["w"][c["terms"][2]]], k, scope=scope),
    "query_dismax": lambda c, k, scope: c["shard"].query_dismax(
        c["w"], 0.3, k, scope=scope),
    "query_term_range": lambda c, k, scope: c["shard"].query_term_range(
        c["prefix"], c["prefix"] + "￿", c["rw"], k, scope=scope),
    "query_phrase": lambda c, k, scope: c["shard"].query_phrase(
        c["phrase"], c["pw"], k, scope=scope),
    "query_span_near": lambda c, k, scope: c["shard"].query_span_near(
        c["phrase"], 3, c["pw"], k, scope=scope),
    "query_near": lambda c, k, scope: c["shard"].query_near(
        c["phrase"][0], c["phrase"][1], 3, c["pw"], k, scope=scope),
}


def test_every_kernel_call_counts_one_query(ctx):
    shard = ctx["shard"]
    calls = dict(KERNELS)
    calls["count_matches"] = lambda c, k, scope: c["shard"].count_matches(
        c["terms"], scope=scope)
    ticks = {}
    for name, run in calls.items():
        before = shard.get_counters()["queries"]
        run(ctx, K, None)
        ticks[name] = shard.get_counters()["queries"] - before
    assert ticks == {name: 1 for name in calls}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_walk_k0_dead_and_narrow_scope(ctx, name):
    run = KERNELS[name]
    for k, scope in ((0, None), (K, (5, 5))):
        docs, scores = run(ctx, k, scope)
        assert len(docs) == 0 and len(scores) == 0, (k, scope)

    n = ctx["n"]
    lo, hi = n // 3, n // 3 + n // 4
    all_docs, all_scores = run(ctx, n, None)
    inside = (all_docs >= lo) & (all_docs < hi)
    assert inside.sum() > K, "probe too weak: too few hits in the scope"
    want_docs, want_scores = all_docs[inside][:K + 1], all_scores[inside][:K + 1]
    docs, scores = run(ctx, K, (lo, hi))
    np.testing.assert_allclose(scores, want_scores[:K], rtol=1e-12, atol=0)
    if name != "query":
        np.testing.assert_array_equal(docs, want_docs[:K])
        np.testing.assert_array_equal(scores, want_scores[:K])
        return
    # query()'s MaxScore split depends on θ, which a scope changes, and
    # the split can move a score by an ulp — so docs whose scores tie to
    # 1e-12 (the next doc past the cut included) may trade places
    close = np.isclose(want_scores[1:], want_scores[:-1], rtol=1e-12, atol=0)
    tied = np.zeros(len(want_scores), dtype=bool)
    tied[1:] |= close
    tied[:-1] |= close
    untied = ~tied[:K]
    np.testing.assert_array_equal(docs[untied], want_docs[:K][untied])
    assert set(docs[~untied]) <= set(all_docs[inside])
