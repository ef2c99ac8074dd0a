"""Every retrieval mode through the aggregator tier: an engine forced to a
two-level merge (``merge_fanout=1``: shards behind ``MergeAggregator``
actors) must return bit-identical results — same ``doc_num`` order, same
float scores, same counts, same explain rows — as a single-level engine
over the same shard assignment.  The top-k of a union is the top-k of the
per-group top-ks under the (score DESC, doc ASC) total order, so any
difference is a forwarding or reduce bug, never float noise.

Both engines use 4 shards (2 per aggregator), one after the other, so at
most 4 shard actors are alive on the 4-CPU test session.  Needs no
reference implementation.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from oboyu_ray.config import BM25Config, BuildConfig
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.query import QueryEngine
from oboyu_ray.sources.transcripts import write_synth_transcripts
from oboyu_ray.stages.postings import get_tokenizer

NUM_SHARDS = 4
QUERIES = ["検索 インデックス", "python model", "です", "token",
           "データ 処理 分散", "zzz_nohit"]


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("aggmodes")
    files = write_synth_transcripts(
        str(base / "in"), n_convs=160, seed=5, convs_per_file=20
    )
    build_index(files, str(base / "idx"),
                BuildConfig(window_docs=256, store_positions=True))
    return str(base / "idx")


def _phrases(index_dir):
    """Adjacent token runs harvested from the first docs (guaranteed
    phrase hits) plus a reversed bigram and an absent term."""
    tok = get_tokenizer(BM25Config())
    docs_dir = os.path.join(index_dir, "docs")
    t = pa.concat_tables(
        [pq.read_table(os.path.join(docs_dir, f), columns=["doc_num", "text"])
         for f in sorted(os.listdir(docs_dir))]
    ).sort_by([("doc_num", "ascending")])
    out = []
    for text in t.column("text").to_pylist():
        toks = tok.tokenize(text or "")
        if len(toks) >= 3:
            out += [" ".join(toks[:2]), " ".join(toks[:3])]
        if len(out) >= 6:
            break
    a, b = out[0].split()[:2]
    return out + [f"{b} {a}", "zzz_nohit phrase"]


def _run_modes(eng: QueryEngine, phrases) -> dict:
    """Every mode's answer on ``eng``, keyed by a readable label."""
    n = int(eng.stats["N"])
    scope = (n // 4, 3 * n // 4)
    near_a, near_b = phrases[0].split()[:2]
    out = {}
    for q in QUERIES:
        toks = eng.tokenizer.tokenize(q)
        if toks:
            out[f"bool {q}"] = eng.search_bool(" OR ".join(toks), k=10)
        out[f"synonym {q}"] = eng.search_synonym(
            q, {"python": ["model"], "検索": ["インデックス", "データ"]}, k=10)
        out[f"dismax {q}"] = eng.search_dismax(q, k=10, tiebreak=0.3)
        out[f"dismax scoped {q}"] = eng.search_dismax(q, k=10, scope=scope)
        out[f"boosted {q}"] = eng.search_boosted(
            q, {"python": 2.5, "です": 0.5}, k=10, exclude="token")
        out[f"count {q}"] = eng.count_matches(q)
        out[f"count and {q}"] = eng.count_matches(q, require_all=True,
                                                  exclude="token", scope=scope)
        top = eng.search(q, k=3)
        out[f"explain {q}"] = [eng.explain(q, int(d)) for d in top["doc_num"]]
    out["bool and-not"] = eng.search_bool("(python OR model) NOT token", k=10)
    out["bool scoped"] = eng.search_bool("python OR 検索", k=10, scope=scope)
    for p in phrases:
        out[f"phrase {p}"] = eng.search_phrase(p, k=10)
        out[f"phrase scoped {p}"] = eng.search_phrase(p, k=10, scope=scope)
        out[f"span_near {p}"] = eng.search_span_near(p, window=4, k=10)
    out["near"] = eng.search_near(near_a, near_b, window=5, k=10)
    out["near scoped"] = eng.search_near(near_a, near_b, window=8, k=10,
                                         scope=scope)
    for pre in ("tok", "mod", "デ"):
        out[f"prefix {pre}"] = eng.search_prefix(pre, k=10)
        out[f"prefix scoped {pre}"] = eng.search_prefix(pre, k=10, scope=scope)
    out["regex"] = eng.search_regex("to.*", k=10)
    out["regex scoped"] = eng.search_regex("mo.e.*", k=10, scope=scope)
    for d in (3, 57, n - 1):
        out[f"mlt {d}"] = eng.more_like_this(d, k=10, min_df=1)
    out["phrase_many"] = eng.search_phrase_many(phrases, k=10)
    out["many"] = eng.search_many(QUERIES, k=7)
    out["many and"] = eng.search_many(QUERIES, k=7, require_all=True)
    out["many exclude scope"] = eng.search_many(QUERIES, k=7, exclude="token",
                                                scope=scope)
    out["many dead scope"] = eng.search_many(QUERIES, k=7, scope=(9, 9))
    handles = [eng.search_many_submit(QUERIES, k=5, exclude="です"),
               eng.search_many_submit(QUERIES[:3], k=9, require_all=True)]
    out["pipelined"] = [eng.search_many_result(h) for h in handles]
    out["count_many"] = eng.count_many(QUERIES)
    out["count_many and"] = eng.count_many(QUERIES, require_all=True)
    return out


@pytest.fixture(scope="module")
def answers(index_dir):
    phrases = _phrases(index_dir)
    got = {}
    for fanout in (64, 1):  # single-level, then two-level
        eng = QueryEngine(index_dir, num_shards=NUM_SHARDS, merge_fanout=fanout)
        try:
            assert bool(eng.aggregators) == (fanout == 1)
            got[fanout] = _run_modes(eng, phrases)
        finally:
            eng.close()
    return got[64], got[1]


def _assert_same(a, b, label):
    if isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), label
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{label}[{i}]")
    elif isinstance(a, pd.DataFrame):
        assert list(a.columns) == list(b.columns), label
        if "score" in a.columns:  # ranked frame: exact order and floats
            assert a["doc_num"].tolist() == b["doc_num"].tolist(), label
            assert np.array_equal(a["score"].to_numpy(), b["score"].to_numpy()), label
        pd.testing.assert_frame_equal(a, b, check_exact=True, obj=label)
    else:
        assert a == b, label


def test_index_has_parts_for_every_shard(index_dir):
    import json

    with open(os.path.join(index_dir, "build_report.json")) as f:
        assert len(json.load(f)["parts"]) >= NUM_SHARDS


def test_every_mode_identical_through_aggregators(answers):
    single, two_level = answers
    assert single.keys() == two_level.keys()
    hits = 0
    for label in single:
        _assert_same(single[label], two_level[label], label)
        v = single[label]
        if isinstance(v, pd.DataFrame):
            hits += bool(len(v))
    # the probes must actually retrieve something in most modes
    assert hits >= 30, hits


@pytest.mark.parametrize("mode", [
    "bool", "synonym", "dismax", "boosted", "phrase", "span_near", "near",
    "prefix", "regex", "mlt", "phrase_many", "many", "pipelined", "count",
    "explain",
])
def test_mode_probes_non_trivial(answers, mode):
    """Each mode has at least one probe with a non-empty answer, so the
    identity above is not vacuous for it."""
    single, _ = answers

    def nonempty(v):
        if isinstance(v, list):
            return any(nonempty(x) for x in v)
        if isinstance(v, pd.DataFrame):
            return len(v) > 0
        return bool(v)

    assert any(
        nonempty(v) for label, v in single.items()
        if label.split()[0] == mode
    ), mode
