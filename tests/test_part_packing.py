"""Partition sizing: ``build_index`` packs consecutive whole input files
into partitions by input bytes, with no fewer partitions than cluster
CPUs (``partition_groups``).  The layout must not change what the index
says: vocabulary, stats and top-k equal a one-file-per-part build."""

from __future__ import annotations

import ast
import inspect
import json
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

import ray

from oboyu_ray.config import BuildConfig
from oboyu_ray.pipelines import build_index as bi
from oboyu_ray.pipelines.build_index import PART_TARGET_BYTES, build_index, partition_groups
from oboyu_ray.pipelines.query import QueryEngine
from oboyu_ray.sources.transcripts import write_synth_transcripts

T = PART_TARGET_BYTES


def _check_runs(groups, n_files):
    """Groups are non-empty runs of consecutive files covering every file
    once, in order."""
    assert all(groups), groups
    assert [j for g in groups for j in g] == list(range(n_files))
    for g in groups:
        assert g == list(range(g[0], g[-1] + 1))


@pytest.mark.parametrize(
    "n_files,size,cpus",
    [
        (12, 1_500, 2),      # bench shape: the CPU floor sets the count
        (12, 1_500, 4),
        (3, 1_000, 8),       # fewer files than CPUs: one file per part
        (100, T // 4, 2),    # the byte target sets the count
        (40, T + 1, 2),      # files over the target: one file per part
        (7, 3 * T, 16),
    ],
)
def test_packed_count_and_runs(n_files, size, cpus):
    groups = partition_groups([size] * n_files, 0, cpus)
    _check_runs(groups, n_files)
    expect = max(min(n_files, cpus), -(-n_files * size // T))
    assert len(groups) == min(expect, n_files)
    # equal sizes → balanced: part sizes differ by at most one file
    lens = [len(g) for g in groups]
    assert max(lens) - min(lens) <= 1


def test_huge_file_leaves_no_empty_partition():
    for sizes, cpus in [([100 * T, 1, 1, 1], 4), ([1, 1, 50 * T, 1, 1], 4),
                        ([5, 5, 10_000, 5], 4)]:
        groups = partition_groups(sizes, 0, cpus)
        _check_runs(groups, len(sizes))
        assert len(groups) <= max(min(len(sizes), cpus), -(-sum(sizes) // T))


def test_append_keeps_earlier_partitions_once_the_target_sets_the_count():
    sizes = [T // 3 + 17 * i for i in range(60)]
    before = partition_groups(sizes, 0, 2)
    after = partition_groups(sizes + [T // 3] * 7, 0, 2)
    assert after[: len(before) - 1] == before[:-1]
    assert after[len(before) - 1][: len(before[-1])] == before[-1]


def test_explicit_files_per_part_is_a_fixed_stride():
    for n_files in (0, 1, 5, 12):
        for fpp in (1, 2, 5):
            sizes = [10 ** (j % 4) for j in range(n_files)]
            groups = partition_groups(sizes, fpp, cpus=4)
            assert groups == [list(range(s, min(s + fpp, n_files)))
                              for s in range(0, n_files, fpp)]
    with pytest.raises(ValueError):
        partition_groups([1, 2], -1, cpus=4)


def test_one_packing_rule_for_library_cli_and_config():
    from oboyu_ray.cli import build_parser, build_settings
    from oboyu_ray.config_loader import ConfigManager

    args = build_parser().parse_args(["build", "--transcripts", "x", "--index-dir", "y"])
    resolved = {
        "config_loader": ConfigManager().build_config()[1],
        "cli": build_settings(args)[1],
        "build_index": inspect.signature(build_index).parameters["files_per_part"].default,
    }
    sizes = [1_000] * 12
    packed = partition_groups(sizes, 0, cpus=2)
    assert packed != partition_groups(sizes, 1, cpus=2)
    for where, value in resolved.items():
        assert partition_groups(sizes, value, cpus=2) == packed, where


def test_build_index_holds_no_second_partition_count_rule():
    """Outside ``partition_groups``, build_index.py only passes
    ``files_per_part`` through (never compares or computes with it) and
    never reads the byte target; ``partition_groups`` has one caller."""
    tree = ast.parse(inspect.getsource(bi))
    parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
    calls = 0
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "partition_groups":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id == "PART_TARGET_BYTES":
                pytest.fail(f"{fn.name} reads PART_TARGET_BYTES")
            if isinstance(node, ast.Name) and node.id == "files_per_part":
                up = parent[node]
                passed = isinstance(up, ast.keyword) or (
                    isinstance(up, ast.Call) and node in up.args
                )
                assert passed, f"{fn.name} computes with files_per_part (line {node.lineno})"
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "partition_groups"):
                calls += 1
    assert calls == 1


# --------------------------------------------------------------- build

def _vocab(index_dir: str) -> pd.DataFrame:
    d = os.path.join(index_dir, "vocab")
    t = pd.concat([pq.read_table(os.path.join(d, f)).to_pandas() for f in sorted(os.listdir(d))])
    return t.sort_values("term").reset_index(drop=True)


def _same_topk(a: pd.DataFrame, b: pd.DataFrame, tol: float = 1e-9) -> None:
    """Equal top-k up to ties: scores agree rank by rank, the docs above
    the k-th score are the same, and a doc both frames hold scores the
    same in both."""
    assert len(a) == len(b)
    sa, sb = a["score"].to_numpy(), b["score"].to_numpy()
    assert np.allclose(sa, sb, rtol=0, atol=tol)
    if not len(a):
        return
    cut = sa[-1] + tol
    da, db = a["doc_num"].to_numpy(), b["doc_num"].to_numpy()
    assert set(da[sa > cut]) == set(db[sb > cut])
    by_doc = dict(zip(db.tolist(), sb.tolist()))
    for d, s in zip(da.tolist(), sa.tolist()):
        if d in by_doc:
            assert abs(by_doc[d] - s) <= tol


def test_packed_build_matches_one_file_per_part(tmp_path):
    files = write_synth_transcripts(str(tmp_path / "in"), n_convs=120, seed=5,
                                    convs_per_file=10)
    cfg = BuildConfig(window_docs=64, vocab_buckets=4)
    packed, single = str(tmp_path / "packed"), str(tmp_path / "single")
    rp = build_index(files, packed, cfg)
    rs = build_index(files, single, cfg, files_per_part=1)
    cpus = int(ray.cluster_resources()["CPU"])
    assert rs["n_parts"] == len(files)
    assert rp["n_parts"] == min(len(files), cpus) < len(files)
    assert rp["n_docs"] == rs["n_docs"]

    pd.testing.assert_frame_equal(_vocab(packed), _vocab(single))
    with open(os.path.join(packed, "stats.json")) as fa, \
            open(os.path.join(single, "stats.json")) as fb:
        assert json.load(fa) == json.load(fb)

    queries = [
        ["search"],                      # df > N/2: negative idf
        ["search", "merge"],
        ["index", "python", "model"],
        ["検索", "索引", "shuffle"],
        ["token", "pythonmergeindex"],   # common + rare
    ]
    a, b = QueryEngine(packed, num_shards=2), QueryEngine(single, num_shards=2)
    try:
        assert a.stats == b.stats
        assert a.vocab.df(["search"])["search"] > a.stats["N"] / 2
        for terms in queries:
            for k in (10, 50):
                _same_topk(a.search_terms(terms, k=k), b.search_terms(terms, k=k))
    finally:
        a.close()
        b.close()
