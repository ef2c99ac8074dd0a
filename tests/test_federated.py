"""Federated multi-index search: merged statistics make per-document BM25
scores bit-identical to a monolithic index built over the concatenated
corpus — the rolling-index shape (one index per day/tenant, queried
together with global idf, no merge-rebuild)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from oboyu_ray.config import BM25Config, BuildConfig
from oboyu_ray.fixedpoint import micros
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.federated import FederatedEngine
from oboyu_ray.pipelines.query import QueryEngine
from oboyu_ray.sources.transcripts import write_synth_transcripts

QUERIES = [
    "検索 インデックス",
    "python model",
    "です",            # hot term, negative idf — exercises the min-bound path
    "compress 圧縮 decode",
    "token",
    "zzz_nohit",
]


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    base = tmp_path_factory.mktemp("fed")
    # two member corpora with different seeds/sizes → different build
    # avgdls, so the bound-rescale path (r != 1) is actually exercised.
    # Conv ranges must be DISJOINT (the synth generator numbers convs from
    # 0): corpus B is the tail slice of a larger run, convs 200-290
    files_a = write_synth_transcripts(
        str(base / "ta"), n_convs=160, seed=21, convs_per_file=40
    )
    files_b = [
        f
        for f in write_synth_transcripts(
            str(base / "tb"), n_convs=290, seed=22, convs_per_file=30
        )
        if int(os.path.basename(f).split("-")[1]) >= 200
    ]
    cfg = BuildConfig(window_docs=256)
    build_index(files_a, str(base / "idx_a"), cfg, files_per_part=2)
    build_index(files_b, str(base / "idx_b"), cfg, files_per_part=2)
    build_index(files_a + files_b, str(base / "idx_all"), cfg, files_per_part=2)
    mono = QueryEngine(str(base / "idx_all"), num_shards=1)
    fed = FederatedEngine(
        [str(base / "idx_a"), str(base / "idx_b")], num_shards_each=1
    )
    yield {"mono": mono, "fed": fed, "base": base}
    fed.close()
    mono.close()


def test_merged_stats_equal_monolith(setup):
    mono, fed = setup["mono"], setup["fed"]
    assert fed.stats["N"] == mono.stats["N"]
    assert fed.stats["total_dl"] == mono.stats["total_dl"]
    assert abs(fed.stats["avgdl"] - mono.stats["avgdl"]) < 1e-9
    # the rescale path is live: members' build avgdl differ from merged
    rs = [fed.stats["avgdl"] / e.build_avgdl for e in fed.engines]
    assert any(abs(r - 1.0) > 1e-6 for r in rs), rs


def _mono_score_map(mono, q, deep_k=500):
    deep = mono.search(q, k=deep_k)
    convs, turns = mono.resolver.resolve(deep["doc_num"].to_numpy())
    sm = micros(deep["score"].to_numpy())
    return {
        (c, int(t)): int(s) for c, t, s in zip(convs, turns.tolist(), sm)
    }, sm


def test_federated_scores_match_monolith(setup):
    mono, fed = setup["mono"], setup["fed"]
    k = 12
    nonempty = 0
    for q in QUERIES:
        ref, ref_scores = _mono_score_map(mono, q)
        got = fed.search(q, k=k)
        exp_top = np.sort(ref_scores)[::-1][: len(got)]
        if len(got) == 0:
            assert len(ref) == 0, q
            continue
        nonempty += 1
        got_scores = micros(got["score"].to_numpy())
        # score vectors identical (the ranking signal), and every returned
        # (conv, turn) carries exactly the monolith's score for that doc
        np.testing.assert_array_equal(got_scores, exp_top, err_msg=q)
        for c, t, s in zip(
            got["conv_id"], got["turn_idx"].tolist(), got_scores
        ):
            assert ref[(c, int(t))] == int(s), (q, c, t)
    assert nonempty >= 4


def test_federated_and_not_paths(setup):
    mono, fed = setup["mono"], setup["fed"]
    k = 12
    for kwargs in [dict(require_all=True), dict(exclude="です")]:
        for q in ["python model", "検索 インデックス"]:
            ref, ref_scores = _mono_score_map(mono, q, deep_k=500)
            mono_r = mono.search(q, k=500, **kwargs)
            got = fed.search(q, k=k, **kwargs)
            exp = micros(mono_r["score"].to_numpy())[: len(got)]
            np.testing.assert_array_equal(
                micros(got["score"].to_numpy()), exp, err_msg=str((q, kwargs))
            )


def test_federated_count_matches_monolith(setup):
    """Federated count_matches = Σ member counts must equal the monolithic
    count for OR / AND / NOT shapes (counts are score-free, so no statistic
    merge is involved — disjoint members partition the doc set)."""
    mono, fed = setup["mono"], setup["fed"]
    nonzero = 0
    for q, kwargs in [
        ("python model", {}),
        ("python model", dict(require_all=True)),
        ("検索 インデックス", {}),
        ("python", dict(exclude="model")),
        ("zzznohit", {}),
    ]:
        a, b = mono.count_matches(q, **kwargs), fed.count_matches(q, **kwargs)
        assert a == b, (q, kwargs, a, b)
        nonzero += a > 0
    assert nonzero >= 3


def test_federated_fuzzy_matches_monolith(setup):
    """Federated fuzzy: member expansions merge by summing df — the union
    of member vocabularies IS the monolith vocabulary, so scores equal the
    monolithic search_fuzzy exactly."""
    mono, fed = setup["mono"], setup["fed"]
    k = 10
    hits = 0
    for q, d in [("tokn", 1), ("pythom", 1), ("検素", 1), ("zzznohit", 1)]:
        mono_r = mono.search_fuzzy(q, max_edits=d, k=500, max_terms=100000)
        got = fed.search_fuzzy(q, max_edits=d, k=k, max_terms=100000)
        exp = micros(mono_r["score"].to_numpy())[: len(got)]
        np.testing.assert_array_equal(
            micros(got["score"].to_numpy()), exp, err_msg=f"{q}~{d}"
        )
        if len(got):
            hits += 1
    assert hits >= 2


def test_federated_hydrate_and_close(setup):
    fed = setup["fed"]
    got = fed.search("token", k=5, hydrate=True)
    assert len(got) > 0 and "text" in got.columns
    assert got["text"].str.len().gt(0).all()


def test_federated_config_mismatch_raises(setup, tmp_path):
    base = setup["base"]
    files = write_synth_transcripts(
        str(tmp_path / "tc"), n_convs=20, seed=23, convs_per_file=20
    )
    build_index(
        files, str(tmp_path / "idx_c"),
        BuildConfig(window_docs=256, bm25=BM25Config(k1=0.9, b=0.4)),
        files_per_part=2,
    )
    with pytest.raises(ValueError, match="disagree"):
        FederatedEngine(
            [str(base / "idx_a"), str(tmp_path / "idx_c")], num_shards_each=1
        )


def _no_pool(*args, **kw):
    raise AssertionError("a member pool was spawned")


def test_federated_language_mismatch_raises_before_any_pool(setup, tmp_path, monkeypatch):
    """Members that differ only in language are refused from their build
    reports: the stand-in member has no index data at all."""
    import oboyu_ray.pipelines.federated as fed_mod

    base = setup["base"]
    other = tmp_path / "idx_en"
    other.mkdir()
    rep = json.load(open(os.path.join(base, "idx_a", "build_report.json")))
    assert rep["config"]["bm25"]["language"] == "ja"
    rep["config"]["bm25"]["language"] = "en"
    json.dump(rep, open(other / "build_report.json", "w"))
    json.dump(json.load(open(os.path.join(base, "idx_a", "stats.json"))),
              open(other / "stats.json", "w"))
    monkeypatch.setattr(fed_mod, "QueryEngine", _no_pool)
    with pytest.raises(ValueError, match="disagree"):
        FederatedEngine([str(base / "idx_a"), str(other)], num_shards_each=1)


def test_federated_pools_wider_than_cluster_raise_before_any_pool(setup, monkeypatch):
    """Each member's pool fits the cluster on its own (3 shards), but
    together they need more CPUs than it has: refused up front instead of
    the last pool waiting forever for a CPU."""
    import ray

    import oboyu_ray.pipelines.federated as fed_mod

    total = int(ray.cluster_resources()["CPU"])
    assert total >= 3
    idx_all = str(setup["base"] / "idx_all")
    assert len(json.load(open(os.path.join(idx_all, "build_report.json")))["parts"]) >= 3
    monkeypatch.setattr(fed_mod, "QueryEngine", _no_pool)
    with pytest.raises(ValueError, match="need .* CPUs but the cluster has"):
        FederatedEngine([idx_all] * (total // 3 + 1), num_shards_each=3)


def test_cli_federate_wider_than_cluster_exits_2(setup, monkeypatch, capsys):
    import argparse

    import ray

    import oboyu_ray.pipelines.federated as fed_mod
    from oboyu_ray.cli import cmd_query

    total = int(ray.cluster_resources()["CPU"])
    idx_all = str(setup["base"] / "idx_all")
    monkeypatch.setattr(fed_mod, "QueryEngine", _no_pool)
    rc = cmd_query(argparse.Namespace(
        index_dir=idx_all, q="token", num_shards=3,
        federate=",".join([idx_all] * (total // 3)),
    ))
    assert rc == 2
    assert "CPUs but the cluster has" in capsys.readouterr().err
