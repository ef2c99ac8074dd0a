"""Tests of the benchmark's own code (no Ray session needed).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402


def _bytes(files):
    out = []
    for f in files:
        with open(f, "rb") as fh:
            out.append(fh.read())
    return out


@pytest.mark.parametrize("vocab", ["hot", "tail"])
def test_generator_is_deterministic_per_seed(tmp_path, vocab):
    a = inputs.make_corpus(str(tmp_path / "a"), vocab, 200, 3, seed=7)
    b = inputs.make_corpus(str(tmp_path / "b"), vocab, 200, 3, seed=7)
    c = inputs.make_corpus(str(tmp_path / "c"), vocab, 200, 3, seed=8)
    assert _bytes(a.files) == _bytes(b.files)
    assert _bytes(a.files) != _bytes(c.files)
    assert a.texts == b.texts


def test_corpus_rows_follow_conversations(tmp_path):
    import pyarrow.parquet as pq

    c = inputs.make_corpus(str(tmp_path), "hot", 50, 4, seed=1)
    table = pq.read_table(c.files)
    assert table.num_rows == c.n_turns
    for row, (conv, turn, text) in enumerate(zip(table.column("conv_id").to_pylist(),
                                                  table.column("turn_idx").to_pylist(),
                                                  table.column("text").to_pylist())):
        assert c.row_of(conv, turn) == row
        assert c.texts[row] == text


def test_hot_particles_have_negative_idf(tmp_path):
    c = inputs.make_corpus(str(tmp_path), "hot", 300, 2, seed=1)
    df = inputs.doc_freq(c)
    for p in inputs.HOT_PARTICLES:
        assert df[list(c.vocab).index(p)] > c.n_turns / 2


def test_tail_queries_never_share_a_word(tmp_path):
    c = inputs.make_corpus(str(tmp_path), "tail", 400, 2, seed=3)
    qs = inputs.tail_queries(c, seed=3, n=200)
    words = [w for q in qs for w in q.split()]
    assert len(words) == len(set(words))
    df = inputs.doc_freq(c)
    index = {w: i for i, w in enumerate(c.vocab)}
    assert all(2 <= df[index[w]] <= 40 for w in words)
    assert inputs.tail_queries(c, seed=3, n=200) == qs


# ------------------------------------------------------------ comparator
ORACLE = [(5, 900), (3, 800), (9, 800), (1, 700), (2, 600), (4, 600), (8, 600), (7, 500)]


def test_comparator_accepts_the_oracle_and_a_reorder_within_a_tie():
    assert oracle.compare(ORACLE[:4], ORACLE, 4, 30) == []
    assert oracle.compare([(5, 900), (9, 800), (3, 800), (1, 700)], ORACLE, 4, 30) == []


def test_comparator_accepts_a_tied_subset_at_the_boundary():
    # k=5 cuts the 600 group: any of its docs may fill the last slot
    assert oracle.compare(ORACLE[:4] + [(8, 600)], ORACLE, 5, 30) == []


def test_comparator_rejects_a_swapped_rank():
    got = [(3, 800), (5, 900), (9, 800), (1, 700)]
    assert oracle.compare(got, ORACLE, 4, 30)
    swapped_docs = [(3, 900), (5, 800), (9, 800), (1, 700)]
    assert oracle.compare(swapped_docs, ORACLE, 4, 30)


def test_comparator_rejects_a_one_micro_change():
    got = list(ORACLE[:4])
    got[3] = (1, 701)
    assert oracle.compare(got, ORACLE, 4, 30)
    got[3] = (1, 699)
    assert oracle.compare(got, ORACLE, 4, 30)


def test_comparator_rejects_a_missing_or_foreign_row():
    assert oracle.compare(ORACLE[:3], ORACLE, 4, 30)
    assert oracle.compare(ORACLE[:4] + [(6, 600)], ORACLE, 5, 30)
    assert oracle.compare([], ORACLE, 4, 30)
    assert oracle.compare(ORACLE[:4] + [(8, 600), (8, 600)], ORACLE, 6, 30)


def test_comparator_on_a_truncated_oracle_wants_k_rows():
    # the oracle stopped at its depth: there are more candidates than shown
    assert oracle.compare(ORACLE[:2], ORACLE[:3], 2, 3) == []
    assert oracle.compare(ORACLE[:1], ORACLE[:3], 2, 3)
    assert oracle.compare([], [], 10, 30) == []


# ------------------------------------------------------------ statistics
def test_sliced_uses_the_quietest_slices_of_the_window():
    # 4 slices of 1 s; slices 1 and 3 ran while the host took CPU away
    lat = [1.0] * 10 + [9.0] * 10 + [2.0] * 10 + [9.0] * 10
    done = [i / 10 for i in range(40)]
    p50, p90, used = session.sliced(lat, done, 1.0, [0.0, 0.9, 0.1, 0.8], quiet_slices=2)
    assert (p50, used) == (1.5, 20)
    assert 1.0 < p90 < 2.0
    # a slower program moves every slice
    assert session.sliced([2 * x for x in lat], done, 1.0, [0.0, 0.9, 0.1, 0.8], 2)[0] == 3.0


# ------------------------------------------------------------ tracing
def test_tracer_records_self_time_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    t = tracing.Tracer()
    with t.installed([(Layer, "outer", "a"), (Layer, "inner", "b")]):
        assert Layer().outer() == 2
    t.end_op()
    assert set(t.ops[0]) == {"a", "b"}
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")


def test_tracer_fails_loudly_on_a_missing_seam():
    t = tracing.Tracer()
    with pytest.raises(tracing.MissingSeam):
        t.patch(tracing, "no_such_function", "x")


def test_private_seams_exist():
    from oboyu_ray.pipelines import query

    for seam in tracing.PRIVATE_SEAMS:
        owner, attr = seam.split(".")
        assert hasattr(query.QueryEngine if owner == "QueryEngine" else query, attr), seam


# ------------------------------------------------------------ output
def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_every_metric_is_declared_in_benchmark_json():
    bench = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == session.E2E
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == session.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(session.WORKLOADS)


def test_last_line_parses_and_stays_compact():
    res = {"attempted": 10, "failed": 0, "errors": [],
           "metrics": {n: {"value": 1234.56789, "unit": u} for n, u in session.PER_LAYER.items()}}
    line = run.result_line(res)
    assert "\n" not in line and len(line) <= 2000
    parsed = json.loads(line)
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    assert parsed["correct"] is True
    assert run.result_line(dict(res, failed=1)).startswith('{"correct":false')


def test_without_the_package_it_refuses_to_run(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search_hot",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
