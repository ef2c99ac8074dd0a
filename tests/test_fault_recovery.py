"""Query-tier fault injection (VERDICT r3 #6): killing an IndexShard (or
MergeAggregator) actor mid-flight must not lose or change results — the
engine respawns the pool from the on-disk index and returns the identical
ranking.  All shard state is on disk, so recovery is a pure reload."""

from __future__ import annotations

import time

import numpy as np
import pandas as pd
import pytest

import ray

from oboyu_ray.config import BuildConfig
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.query import QueryEngine
from oboyu_ray.sources.transcripts import write_synth_transcripts

QUERIES = ["検索 インデックス", "python model", "merge sort", "です"]


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    base = tmp_path_factory.mktemp("fault")
    files = write_synth_transcripts(
        str(base / "in"), n_convs=300, seed=11, convs_per_file=50
    )
    build_index(files, str(base / "idx"), BuildConfig(window_docs=256), files_per_part=1)
    # 4 shards on the 4-CPU test session; merge_fanout=1 forces the
    # aggregator tier so BOTH actor kinds are exercised
    eng = QueryEngine(str(base / "idx"), num_shards=4, merge_fanout=1)
    yield eng
    eng.close()


def _frames_equal(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    if len(a) != len(b):
        return False
    return bool(
        np.array_equal(a["doc_num"].to_numpy(), b["doc_num"].to_numpy())
        and np.allclose(a["score"].to_numpy(), b["score"].to_numpy())
    )


def test_kill_shard_actor_recovers_identically(engine):
    before = engine.search_many(QUERIES, k=10)
    assert any(len(df) for df in before)

    ray.kill(engine.actors[1])  # dead before the fan-out → RayActorError
    after = engine.search_many(QUERIES, k=10)
    for a, b in zip(before, after):
        assert _frames_equal(a, b)
    # pool is healthy again: single-query path too
    assert _frames_equal(engine.search(QUERIES[0], k=10)[["doc_num", "score"]],
                         before[0])


def test_kill_shard_with_pipelined_batches_in_flight(engine):
    """Pipelined serving survives actor death: kill a shard AFTER handles
    were submitted — search_many_result's retry re-issues the stored submit
    against the respawned pool and returns the identical rankings for every
    in-flight batch."""
    before = [engine.search_many(QUERIES, k=10),
              engine.search_many(QUERIES[:2], k=10)]

    h1 = engine.search_many_submit(QUERIES, k=10)
    h2 = engine.search_many_submit(QUERIES[:2], k=10)
    ray.kill(engine.actors[2])  # dies with both batches queued
    got = [engine.search_many_result(h1), engine.search_many_result(h2)]
    for want_batch, got_batch in zip(before, got):
        for a, b in zip(want_batch, got_batch):
            assert _frames_equal(a, b)


def test_one_death_respawns_pool_once_across_handles(engine):
    """Regression (round-5 review): with several pipelined handles in
    flight, one actor death must rebuild the pool ONCE — later handles see
    the bumped epoch and re-issue against the healthy pool instead of
    discarding it."""
    handles = [engine.search_many_submit(QUERIES, k=10) for _ in range(3)]
    epoch_before = engine._pool_epoch
    ray.kill(engine.actors[0])
    results = [engine.search_many_result(h) for h in handles]
    assert engine._pool_epoch == epoch_before + 1  # exactly one respawn
    want = engine.search_many(QUERIES, k=10)
    for got in results:
        for a, b in zip(want, got):
            assert _frames_equal(a, b)


def test_kill_aggregator_recovers_identically(engine):
    assert engine.aggregators, "fixture must exercise the two-level merge"
    before = engine.search_many(QUERIES, k=10, require_all=True)

    ray.kill(engine.aggregators[0])
    after = engine.search_many(QUERIES, k=10, require_all=True)
    for a, b in zip(before, after):
        assert _frames_equal(a, b)


def test_kill_shard_behind_aggregator_recovers(engine):
    """A shard dying while only aggregators are the driver's targets:
    the failure surfaces as a RayTaskError whose cause is RayActorError —
    the recovery path must unwrap and respawn, not re-raise."""
    before = engine.search_terms(["model", "python"], k=10)

    ray.kill(engine.actors[0])
    after = engine.search_terms(["model", "python"], k=10)
    assert _frames_equal(before, after)


def test_non_actor_errors_still_raise(engine):
    """Recovery must not swallow genuine bugs: a task that fails for a
    non-actor-death reason propagates."""
    with pytest.raises(Exception) as ei:
        engine._fanout(lambda ts: [a.query.remote(None, 10) for a in ts])
    assert not isinstance(ei.value, ray.exceptions.RayActorError)


def _live_actors() -> int:
    # the GCS actor table (the state API needs the dashboard, which the
    # test session does not start)
    from ray._private.state import actors

    return sum(a["State"] != "DEAD" for a in actors().values())


def test_unschedulable_pool_fails_fast(engine):
    """A pool wider than the cluster's CPUs could never finish spawning
    (each shard holds one CPU): the engine refuses it before creating any
    actor instead of waiting forever."""
    cpus = int(ray.cluster_resources()["CPU"])
    assert len(engine.report["parts"]) > cpus, "need more parts than CPUs"
    before = _live_actors()
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="CPUs"):
        QueryEngine(engine.index_dir, num_shards=cpus + 1)
    assert time.monotonic() - t0 < 10
    assert _live_actors() == before


def test_engine_reuse_after_close_respawns(engine):
    """A close()d engine must respawn on the next query, not silently fan
    out to zero actors and return empty (the bug that made every pre-r4
    bench QPS ladder measure empty calls)."""
    eng, query = engine, QUERIES[0]
    before_many = eng.search_many([query], k=5)
    before_one = eng.search(query, k=5)
    assert len(before_one) > 0
    eng.close()
    after_many = eng.search_many([query], k=5)  # must respawn eagerly
    assert after_many[0]["doc_num"].tolist() == before_many[0]["doc_num"].tolist()
    eng.close()
    after_one = eng.search(query, k=5)
    assert after_one["doc_num"].tolist() == before_one["doc_num"].tolist()


def test_serving_survives_concurrent_rebuild(tmp_path, engine):
    """Operational property: a LIVE engine keeps serving consistent results
    while the index directory is rebuilt underneath it (atomic tmp+rename
    writes — shard actors hold their loaded state; parquet files are
    replaced, never mutated in place).  A fresh engine opened afterwards
    sees the updated index.

    CPU budget: the session has 4 CPUs; the module fixture's pool (2 actor
    CPUs) must release BEFORE the concurrent build or the build's map tasks
    starve forever (found as a full-suite hang — the test passed solo).
    close() is safe: the fixture engine respawns on its next use."""
    import pyarrow.parquet as pq

    from oboyu_ray.sources.transcripts import write_synth_transcripts

    engine.close()  # free the module pool's CPUs for the concurrent build
    files = write_synth_transcripts(
        str(tmp_path / "in"), n_convs=120, seed=3, convs_per_file=40
    )
    idx = str(tmp_path / "idx")
    build_index(files, idx, BuildConfig(window_docs=256))
    eng = QueryEngine(idx, num_shards=1)
    try:
        q = "検索 インデックス"
        before = eng.search(q, k=8)
        assert len(before) > 0
        # rewrite one input file (append a turn to the LAST conversation so
        # conv spans stay contiguous) and rebuild the same index dir
        t = pq.read_table(files[0])
        extra = t.slice(t.num_rows - 1, 1).to_pydict()
        extra["turn_idx"] = [max(t.column("turn_idx").to_pylist()) + 1]
        extra["text"] = ["検索 インデックス 検索 インデックス fresh turn"]
        import pyarrow as pa_

        t2 = pa_.concat_tables([t, pa_.table(extra, schema=t.schema)])
        from oboyu_ray.state.checkpoint import atomic_write_table

        atomic_write_table(files[0], t2)
        build_index(files, idx, BuildConfig(window_docs=256))
        # the live engine still answers from its loaded state, identically
        during = eng.search(q, k=8)
        assert during["doc_num"].tolist() == before["doc_num"].tolist()
    finally:
        eng.close()
    eng2 = QueryEngine(idx, num_shards=1)
    try:
        after = eng2.search(q, k=8)
        # the appended doc scores the query terms twice -> results change
        assert int(eng2.stats["N"]) == int(eng.stats["N"]) + 1
        assert len(after) > 0
    finally:
        eng2.close()
