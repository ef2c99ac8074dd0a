"""The vocabulary's two-phase aggregate: each partition writes ONE partials
file (``vocab_partials/p{part}.parquet``, one row group per term bucket) and
the reduce sums them into ``vocab-{crc32(term) % B}`` files.  Pinned here
against the postings themselves, against stale partials of the per-bucket
layout, and through the merge's re-bucket path."""

from __future__ import annotations

import glob
import os
import zlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from oboyu_ray.config import BuildConfig
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.merge_index import merge_indexes
from oboyu_ray.sources.transcripts import write_synth_transcripts

B = 8


def _vocab_rows(index_dir: str) -> pa.Table:
    return pq.read_table(os.path.join(index_dir, "vocab")).select(
        ["term", "df", "cf"]
    ).sort_by("term")


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    base = tmp_path_factory.mktemp("vocab")
    files = write_synth_transcripts(str(base / "t"), n_convs=120, seed=31, convs_per_file=30)
    index_dir = str(base / "idx")
    report = build_index(files, index_dir, BuildConfig(vocab_buckets=B), files_per_part=1)
    return {"base": base, "files": files, "dir": index_dir, "report": report}


def test_vocab_equals_group_by_over_postings(built):
    postings = pa.concat_tables(
        pq.read_table(f, columns=["term", "tf"])
        for f in sorted(glob.glob(os.path.join(built["dir"], "postings", "postings-*.parquet")))
    )
    g = postings.group_by("term").aggregate([("tf", "count"), ("tf", "sum")]).sort_by("term")
    vocab = _vocab_rows(built["dir"])
    assert vocab.num_rows > 100
    assert vocab.column("term").to_pylist() == g.column("term").to_pylist()
    assert vocab.column("df").to_pylist() == g.column("tf_count").to_pylist()
    assert vocab.column("cf").to_pylist() == g.column("tf_sum").to_pylist()


def test_every_term_sits_in_its_crc_bucket(built):
    for b in range(B):
        t = pq.read_table(os.path.join(built["dir"], "vocab", f"vocab-{b:05d}.parquet"))
        terms = t.column("term").to_pylist()
        assert terms == sorted(terms)
        assert all(zlib.crc32(x.encode("utf-8")) % B == b for x in terms), b


def test_one_partials_file_per_partition(built):
    parts = built["report"]["parts"]
    assert len(parts) == len(built["files"]) > 1
    pdir = os.path.join(built["dir"], "vocab_partials")
    assert sorted(os.listdir(pdir)) == [f"p{p:05d}.parquet" for p in parts]
    for p in parts:
        pf = pq.ParquetFile(os.path.join(pdir, f"p{p:05d}.parquet"))
        buckets = [
            pf.read_row_group(i, columns=["bucket"]).column("bucket").unique().to_pylist()
            for i in range(pf.metadata.num_row_groups)
        ]
        # one row group per non-empty bucket, in bucket order
        assert all(len(u) == 1 for u in buckets)
        assert [u[0] for u in buckets] == sorted({u[0] for u in buckets})


def test_stale_per_bucket_partials_do_not_count(built, tmp_path):
    index_dir = str(tmp_path / "idx")
    pdir = os.path.join(index_dir, "vocab_partials")
    os.makedirs(pdir)
    stale = os.path.join(pdir, "b0000-p00000.parquet")
    pq.write_table(
        pa.table({"term": ["zzz_stale_term"], "df_partial": [5], "cf_partial": [7]}), stale
    )
    build_index(built["files"], index_dir, BuildConfig(vocab_buckets=B), files_per_part=1)
    assert not os.path.exists(stale)
    assert _vocab_rows(index_dir).equals(_vocab_rows(built["dir"]))


def test_merge_rebuckets_members_with_other_bucket_counts(built, tmp_path):
    files = built["files"]
    a, b, out = (str(tmp_path / n) for n in ("a", "b", "merged"))
    build_index(files[:2], a, BuildConfig(vocab_buckets=4), files_per_part=1)
    build_index(files[2:], b, BuildConfig(vocab_buckets=B), files_per_part=1)
    merge_indexes([a, b], out, vocab_buckets=B)
    assert sorted(os.listdir(os.path.join(out, "vocab_partials"))) == [
        "m000.parquet", "m001.parquet"
    ]
    # same files per bucket, same rows, as a single build over every file
    for bkt in range(B):
        name = f"vocab-{bkt:05d}.parquet"
        got = pq.read_table(os.path.join(out, "vocab", name))
        want = pq.read_table(os.path.join(built["dir"], "vocab", name))
        assert got.equals(want), name
    assert sorted(os.listdir(os.path.join(out, "vocab"))) == sorted(
        os.listdir(os.path.join(built["dir"], "vocab"))
    )
