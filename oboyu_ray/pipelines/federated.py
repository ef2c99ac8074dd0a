"""Federated search over MULTIPLE indexes as one logical corpus.

The rolling-index shape real deployments run at 100 TB: one index per day /
tenant / shard-group, queried together without a merge-rebuild.  The
serving is ``QueryEngine``'s own over a list of index dirs — one shard
pool, one fan-out, every retrieval mode, ties by (score DESC, doc ASC) in
the engine's doc numbering (each member shifted by the window-rounded doc
spans of the members before it).  Global statistics merge EXACTLY — N and
total_dl add, df per term adds across the member vocabularies — so
per-document BM25 scores equal a single index built over the concatenated
corpus (pinned in tests/test_federated.py and tests/test_multi_index.py).

``FederatedEngine`` only keeps the constructor this module always had:
``num_shards_each`` is the engine's per-member ``num_shards``, and
``engines`` lists the members (each with its ``build_avgdl``).

No reference counterpart (the reference is a single-process, single-DB
engine); the statistics-merge semantics follow distributed IR practice
(global idf in sharded engines).
"""

from __future__ import annotations

from typing import Optional, Sequence

from oboyu_ray.pipelines.query import QueryEngine


class FederatedEngine(QueryEngine):
    """A ``QueryEngine`` over N member indexes."""

    def __init__(
        self,
        index_dirs: Sequence[str],
        num_shards_each: Optional[int] = None,
    ) -> None:
        super().__init__(list(index_dirs), num_shards=num_shards_each)
        self.engines = self.members
