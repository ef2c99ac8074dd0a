"""The brute-force scorer against the in-repo spec oracle (``spec_oracle``):
seeded corpora, no reference checkout needed.

``brute_force_scores`` must give the spec's candidate set and float scores
within 1e-9; ``brute_force_topk`` must give the spec's top-k, compared
tie-aware on score_micros (the two sum a doc's terms in different orders,
so equal-micros docs at the cut may differ).  Every corpus holds the
hazards: a term in more than half the docs (negative idf), a duplicated
query term, a corpus-absent term and docs that tokenize to nothing."""

from __future__ import annotations

import random

import pandas as pd
import pytest

import ray.data

from oboyu_ray.config import BM25Config
from oboyu_ray.pipelines.bm25_batch import brute_force_scores, brute_force_topk
from oboyu_ray.stages.postings import get_tokenizer
from tests.spec_oracle import SpecBM25, spec_idf

CFG = BM25Config()
K = 5
WORDS = ["model", "token", "index", "search", "python", "spark", "merge",
         "decode", "shard", "検索", "データ", "処理"]
QUERIES = [
    "common model",            # negative-idf term + a rare one
    "token token search",      # duplicated query term
    "python zzznohit",         # corpus-absent term next to a live one
    "zzznohit",                # only a corpus-absent term
    "common",                  # only the negative-idf term
    "検索 データ common 処理",
    "the of",                  # tokenizes to nothing
]


def _corpus(seed: int) -> pd.DataFrame:
    rng = random.Random(seed)
    texts = []
    for i in range(72):
        if i % 17 == 3:
            texts.append("")
        elif i % 19 == 5:
            texts.append("the of and")  # stopwords only
        else:
            ws = [rng.choice(WORDS) for _ in range(rng.randint(1, 12))]
            if rng.random() < 0.75:
                ws.insert(rng.randint(0, len(ws)), "common")
            texts.append(" ".join(ws))
    rng.shuffle(texts)
    return pd.DataFrame({"doc_id": [7 * i + seed for i in range(len(texts))], "text": texts})


@pytest.fixture(scope="module", params=[11, 12, 13])
def case(request):
    df = _corpus(request.param)
    tok = get_tokenizer(CFG).tokenize
    spec = SpecBM25(dict(zip(df["doc_id"].tolist(), df["text"].tolist())), tok)
    ds = ray.data.from_pandas([df.iloc[j:j + 24] for j in range(0, len(df), 24)])
    queries = {q: tok(q) for q in QUERIES}
    return ds, spec, queries


def test_corpus_has_the_hazards(case):
    _, spec, queries = case
    assert spec_idf(spec.df["common"], spec.n) < 0
    assert queries["token token search"].count("token") == 2
    assert spec.df["zzznohit"] == 0
    assert queries["the of"] == []
    assert sum(1 for dl in spec.dl.values() if dl == 0) >= 2


def test_scores_match_spec(case):
    ds, spec, queries = case
    got = brute_force_scores(ds, queries, CFG)
    for q, terms in queries.items():
        sub = got[got["query_id"] == q]
        have = dict(zip(sub["doc_id"].astype(int), sub["score"].astype(float)))
        want = spec.scores(terms)
        assert set(have) == set(want), q
        for d, s in want.items():
            assert abs(have[d] - s) <= 1e-9, (q, d, have[d], s)


def test_topk_matches_spec_tie_aware(case):
    ds, spec, queries = case
    got = brute_force_topk(ds, queries, k=K, cfg=CFG)
    for q, terms in queries.items():
        sub = got[got["query_id"] == q]
        rows = list(zip(sub["doc_id"].astype(int), sub["score_micros"].astype(int)))
        want = spec.topk(terms, K)
        assert [m for _, m in rows] == [m for _, m in want], q
        assert sub["rank"].tolist() == list(range(1, len(rows) + 1)), q
        if not rows:
            continue
        cut = rows[-1][1]
        assert {d for d, m in rows if m > cut} == {d for d, m in want if m > cut}, q
        at_cut = {d for d, m in spec.topk(terms, spec.n) if m == cut}
        assert {d for d, m in rows if m == cut} <= at_cut, q
