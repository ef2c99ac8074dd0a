"""JSONL transcript source: exact round-trip, streaming Dataset parity,
resumable distributed conversion, and end-to-end index parity (an index
built from converted JSONL answers queries identically to one built from
the original parquet shards)."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from oboyu_ray.config import BuildConfig
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.query import QueryEngine
from oboyu_ray.sources.jsonl import (
    jsonl_to_parquet_shards,
    read_jsonl_shard,
    read_transcripts_jsonl,
    write_transcripts_jsonl,
)
from oboyu_ray.sources.transcripts import (
    TRANSCRIPT_SCHEMA,
    synth_transcripts_table,
    write_synth_transcripts,
)

N_CONVS = 120


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("jsonl_src")
    pq_dir = str(base / "parquet")
    jl_dir = str(base / "jsonl")
    os.makedirs(jl_dir)
    files = write_synth_transcripts(pq_dir, n_convs=N_CONVS, seed=7, convs_per_file=40)
    jsonl_paths = []
    for f in files:
        stem = os.path.splitext(os.path.basename(f))[0]
        jsonl_paths.append(
            write_transcripts_jsonl(pq.read_table(f), os.path.join(jl_dir, stem + ".jsonl"))
        )
    return {"base": base, "files": files, "jsonl": jsonl_paths}


def test_roundtrip_exact(corpus):
    src = pq.read_table(corpus["files"][0])
    got = read_jsonl_shard(corpus["jsonl"][0])
    assert got.schema.equals(TRANSCRIPT_SCHEMA)
    assert got.equals(src)


def test_dataset_parity(corpus):
    ds = read_transcripts_jsonl(corpus["jsonl"])
    got = ds.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    want = (
        pa.concat_tables([pq.read_table(f) for f in corpus["files"]])
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    assert got.equals(want)


def test_conversion_resumable(corpus, tmp_path):
    out_dir = str(tmp_path / "conv")
    outs = jsonl_to_parquet_shards(corpus["jsonl"], out_dir)
    assert all(os.path.exists(p) for p in outs)
    mtimes = {p: os.path.getmtime(p) for p in outs}
    # drop one shard; re-run converts ONLY the missing one
    os.unlink(outs[1])
    outs2 = jsonl_to_parquet_shards(corpus["jsonl"], out_dir)
    assert outs2 == outs
    assert os.path.exists(outs[1])
    for p in outs:
        if p != outs[1]:
            assert os.path.getmtime(p) == mtimes[p]
    # converted shards carry the exact canonical content
    assert pq.read_table(outs[0]).equals(pq.read_table(corpus["files"][0]))


def test_index_parity_jsonl_vs_parquet(corpus, tmp_path):
    cfg = BuildConfig(window_docs=256)
    conv = jsonl_to_parquet_shards(corpus["jsonl"], str(tmp_path / "shards"))
    build_index(conv, str(tmp_path / "idx_jsonl"), cfg, files_per_part=2)
    build_index(corpus["files"], str(tmp_path / "idx_pq"), cfg, files_per_part=2)
    a = QueryEngine(str(tmp_path / "idx_jsonl"), num_shards=2)
    b = QueryEngine(str(tmp_path / "idx_pq"), num_shards=2)
    try:
        for q in ["検索 インデックス", "python model", "です", "token"]:
            ra = a.search(q, k=10)
            rb = b.search(q, k=10)
            assert ra.equals(rb)
    finally:
        a.close()
        b.close()


def test_empty_lines_and_unicode(tmp_path):
    t = synth_transcripts_table(3, 0, 5)  # includes empty/whitespace turns
    p = write_transcripts_jsonl(t, str(tmp_path / "u.jsonl"))
    assert read_jsonl_shard(p).equals(t)


def test_lenient_quarantines_bad_lines(tmp_path):
    import json

    from oboyu_ray.sources.jsonl import jsonl_to_parquet_shards, read_jsonl_shard_lenient

    t = synth_transcripts_table(5, 0, 10)
    p = str(tmp_path / "dirty.jsonl")
    write_transcripts_jsonl(t, p)
    with open(p, "a", encoding="utf-8") as f:
        f.write("{not json at all\n")
        f.write(json.dumps({"conv_id": "x", "turn_idx": "NaNish"}) + "\n")  # missing fields
        f.write(json.dumps({"conv_id": "c9", "turn_idx": 0, "role": "user",
                            "text": "ok", "tool": "", "ts": "bad-ts"}) + "\n")
    got, n_bad = read_jsonl_shard_lenient(p)
    assert n_bad == 3
    assert got.num_rows == t.num_rows  # every clean row survived
    assert got.slice(0, t.num_rows).equals(t)
    # strict mode fails the shard; lenient conversion commits + manifests
    import pytest as _pt

    with _pt.raises(Exception):
        jsonl_to_parquet_shards([p], str(tmp_path / "strict"))
    outs = jsonl_to_parquet_shards([p], str(tmp_path / "lenient"), strict=False)
    assert pq.read_table(outs[0]).num_rows == t.num_rows
    man = json.load(open(str(tmp_path / "lenient" / "conversion_manifest.json")))
    assert man[os.path.basename(outs[0])]["bad_lines"] == 3


def test_auto_files_per_part_groups_and_matches(tmp_path):
    """files_per_part=0 packs tiny shards by input bytes (no fewer parts
    than CPUs) and yields rank-identical results to the ungrouped build."""
    from oboyu_ray.sources.transcripts import write_synth_transcripts

    files = write_synth_transcripts(
        str(tmp_path / "tiny"), n_convs=400, seed=3, convs_per_file=5
    )  # 80 tiny files; 4-CPU test session → 4 parts
    cfg = BuildConfig(window_docs=256)
    ra = build_index(files, str(tmp_path / "auto"), cfg, files_per_part=0)
    rb = build_index(files, str(tmp_path / "one"), cfg, files_per_part=1)
    assert ra["n_parts"] < rb["n_parts"] == len(files)
    a = QueryEngine(str(tmp_path / "auto"), num_shards=2)
    b = QueryEngine(str(tmp_path / "one"), num_shards=2)
    try:
        for q in ["検索 インデックス", "python model", "です"]:
            assert a.search(q, k=10).equals(b.search(q, k=10))
    finally:
        a.close()
        b.close()


def test_stem_collision_disambiguated(tmp_path):
    """Two inputs with the same basename in different directories must map
    to DISTINCT outputs — neither shard's data may be lost (ADVICE r3)."""
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(); b_dir.mkdir()
    ta = synth_transcripts_table(3, 0, 5)
    tb = synth_transcripts_table(3, 100, 105)
    pa_ = write_transcripts_jsonl(ta, str(a_dir / "shard.jsonl"))
    pb_ = write_transcripts_jsonl(tb, str(b_dir / "shard.jsonl"))
    outs = jsonl_to_parquet_shards([pa_, pb_], str(tmp_path / "out"))
    assert len(set(outs)) == 2
    assert pq.read_table(outs[0]).equals(ta)
    assert pq.read_table(outs[1]).equals(tb)
    # resumable: second run returns the same names, converts nothing new
    assert jsonl_to_parquet_shards([pa_, pb_], str(tmp_path / "out")) == outs
    # duplicate input PATH is an error, not silent double-conversion
    with pytest.raises(ValueError):
        jsonl_to_parquet_shards([pa_, pa_], str(tmp_path / "dup"))


def test_lenient_salvages_iso_variants(tmp_path):
    """Whole-second ISO stamps (datetime.isoformat() on whole seconds),
    'Z' suffix, and numeric offsets are SALVAGED, not quarantined; the
    zoned forms normalize to naive UTC (ADVICE r3)."""
    import json

    from oboyu_ray.sources.jsonl import read_jsonl_shard_lenient

    p = str(tmp_path / "variants.jsonl")
    rows = [
        {"conv_id": "c0", "turn_idx": 0, "role": "user", "text": "a",
         "tool": "", "ts": "2026-01-02T03:04:05"},            # whole-second
        {"conv_id": "c0", "turn_idx": 1, "role": "assistant", "text": "b",
         "tool": "", "ts": "2026-01-02T03:04:05.250000Z"},    # Z suffix
        {"conv_id": "c0", "turn_idx": 2, "role": "user", "text": "c",
         "tool": "", "ts": "2026-01-02T05:04:05.5+02:00"},    # offset
        {"conv_id": "c0", "turn_idx": 3, "role": "user", "text": "d",
         "tool": "", "ts": "not a time"},                     # still bad
    ]
    with open(p, "w", encoding="utf-8") as f:
        f.write("{broken\n")  # force the lenient fallback path
        for r in rows:
            f.write(json.dumps(r) + "\n")
    got, n_bad = read_jsonl_shard_lenient(p)
    assert n_bad == 2  # the broken line + the unparseable ts only
    assert got.num_rows == 3
    ts = got.column("ts").to_pylist()
    import datetime as dt

    assert ts[0] == dt.datetime(2026, 1, 2, 3, 4, 5)
    assert ts[1] == dt.datetime(2026, 1, 2, 3, 4, 5, 250000)
    assert ts[2] == dt.datetime(2026, 1, 2, 3, 4, 5, 500000)  # +02:00 → UTC
