"""Expected results from the brute-force oracle, and the comparator.

The oracle is ``oboyu_ray.pipelines.bm25_batch.brute_force_topk`` over the
benchmark's own copy of the turn texts, keyed by the global row number of a
turn in the generated files (``doc``).  It ranks by (score_micros DESC,
doc ASC); the engine ranks by float64 score.  So the comparator enforces
order only across distinct micros and compares each group of equal micros
as a set.  At the k boundary the engine keeps some of a tied group: those
must be a subset of the oracle's group.

The oracle is a Ray Data job.  Run it only while no ``QueryEngine`` is
alive: its shard actors can hold every CPU and starve the job.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Sequence, Tuple

import numpy as np

# oracle depth past k, so a tie group at the engine's k boundary is seen
# beyond the engine's cut
EXTRA = 20

# the oracle's own inputs; any change to them must miss the cache
_ORACLE_SOURCES = (
    "oboyu_ray/pipelines/bm25_batch.py",
    "oboyu_ray/stages/postings.py",
    "oboyu_ray/stages/stats.py",
    "oboyu_ray/functions/tokenize.py",
    "oboyu_ray/fixedpoint.py",
    "oboyu_ray/config.py",
)

Rows = List[Tuple[int, int]]  # (doc, score_micros) in rank order


def compare(got: Rows, expect: Rows, k: int, expect_depth: int) -> List[str]:
    """Problems with the engine's top-k ``got`` against the oracle's
    top-``expect_depth`` ``expect`` (empty list = match)."""
    docs = [d for d, _ in got]
    if len(set(docs)) != len(docs):
        return ["duplicate doc in result"]
    complete = len(expect) < expect_depth  # the oracle saw every candidate
    want_len = min(k, len(expect)) if complete else k
    if len(got) != want_len:
        return [f"{len(got)} rows, expected {want_len}"]
    if not got:
        return []
    micros = [m for _, m in got]
    if any(a < b for a, b in zip(micros, micros[1:])):
        return ["scores out of order"]
    edge = micros[-1]
    got_above = {(d, m) for d, m in got if m > edge}
    exp_above = {(d, m) for d, m in expect if m > edge}
    if got_above != exp_above:
        return [f"above the k boundary: extra {sorted(got_above - exp_above)[:3]}, "
                f"missing {sorted(exp_above - got_above)[:3]}"]
    tied = {d for d, m in got if m == edge} - {d for d, m in expect if m == edge}
    if tied:
        return [f"tied at the k boundary but not in the oracle's group: {sorted(tied)[:3]}"]
    return []


def _cache_key(root: str, tag: str, queries: Sequence[str], k: int) -> str:
    h = hashlib.sha256()
    h.update(json.dumps([tag, list(queries), k, EXTRA]).encode())
    for rel in _ORACLE_SOURCES:
        path = os.path.join(root, rel)
        h.update(rel.encode())
        if os.path.exists(path):
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:24]


def expected_topk(
    texts: List[str], queries: Sequence[str], k: int, cache_dir: str, root: str, tag: str
) -> Dict[str, Rows]:
    """Oracle top-(k+EXTRA) per distinct query, cached on disk by
    (``tag``, queries, k, oracle sources).  ``tag`` names the corpus: the
    workload and seed it was generated from."""
    queries = sorted(set(queries))
    path = os.path.join(cache_dir, _cache_key(root, tag, queries, k) + ".json")
    if os.path.exists(path):
        with open(path) as f:
            return {q: [tuple(r) for r in rows] for q, rows in json.load(f).items()}

    import pyarrow as pa
    import ray.data

    from oboyu_ray.pipelines.bm25_batch import brute_force_topk, tokenize_queries

    docs = ray.data.from_arrow(
        pa.table({"doc": np.arange(len(texts), dtype=np.int64), "text": texts})
    )
    top = brute_force_topk(docs, tokenize_queries(queries), k=k + EXTRA,
                           id_col="doc", text_col="text")
    out: Dict[str, Rows] = {q: [] for q in queries}
    for q, d, m in zip(top["query_id"], top["doc"], top["score_micros"]):
        out[q].append((int(d), int(m)))
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump(out, f)
    os.replace(tmp, path)
    return out
