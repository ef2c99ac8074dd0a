"""bench.py's last stdout line stays short enough to parse from a 2000-char
output tail, however many operators the per-operator suite times."""

from __future__ import annotations

import json

import bench


def _full_result() -> dict:
    return {
        "metric": "transcript index build wall time (turns_per_sec = throughput; "
                  "queries = per-operator suite seconds; query_p50_ms = BM25 latency)",
        "value": 4.512,
        "unit": "sec",
        "queries": {f"operator_query_name_{i:03d}": 12.345 for i in range(150)},
        "sf": 0.1,
        "num_cpus": 32,
        "n_turns": 385123,
        "build_sec": 4.512,
        "turns_per_sec": 85355.1,
        "query_p50_ms": 10.52,
        "query_p95_ms": 14.73,
        "qps_batched": {f"k{k}": 1234.5 for k in (1, 5, 10, 20, 50)},
        "qps_pipelined": {f"k{k}": 2345.6 for k in (1, 5, 10, 20, 50)},
        "build_timings_sec": {p: 1.234 for p in
                              ("conv_map", "ingest", "tokenize_vocab", "blocks", "total")},
        "payload_bytes": 123456789,
        "total_postings": 98765432,
        "feature_p50_ms": {f"mode_{i}": 12.34 for i in range(17)},
        "positional_build_sec": 6.789,
    }


def test_last_line_fits_with_150_operator_suite():
    result = _full_result()
    line = bench.last_line(result, "/tmp/oboyu_bench/last-bench.json")
    assert len(line) <= bench.LAST_LINE_MAX
    head = json.loads(line)
    assert head["details"] == "/tmp/oboyu_bench/last-bench.json"
    for k in ("metric", "value", "unit", "query_p50_ms", "turns_per_sec", "qps_batched"):
        assert head[k] == result[k]
    assert "queries" not in head and "feature_p50_ms" not in head


def test_last_line_drops_nested_dicts_when_still_too_long():
    result = _full_result()
    result["build_timings_sec"] = {f"phase_{i}": 1.0 for i in range(200)}
    head = json.loads(bench.last_line(result, "d.json"))
    assert "build_timings_sec" not in head and "qps_batched" not in head
    assert head["value"] == result["value"] and head["details"] == "d.json"


def test_emit_writes_full_result_to_side_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "BENCH_ROOT", str(tmp_path))
    result = _full_result()
    bench.emit(result, "bench")
    head = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(head["details"]) as f:
        assert json.load(f) == result


def test_query_suite_records_a_raising_query_and_goes_on(monkeypatch):
    import pandas as pd

    import __ray_entry__

    def boom(sf_dir):
        raise ValueError("4 shards need 4 CPUs but the cluster has 2")

    monkeypatch.setattr(__ray_entry__, "queries", lambda: {
        "before": lambda sf_dir: pd.DataFrame({"x": [1]}),
        "boom": boom,
        "after": lambda sf_dir: pd.DataFrame({"x": [2]}),
    })
    got = bench.run_query_suite("unused")
    assert sorted(got["queries"]) == ["after", "before"]
    assert got["failed"] == {"boom": "ValueError: 4 shards need 4 CPUs but the cluster has 2"}
    head = json.loads(bench.last_line({"value": 1.0, **got}, "d.json"))
    assert head["failed"] == got["failed"] and "queries" not in head
