"""Federated search over MULTIPLE indexes as one logical corpus.

The rolling-index shape real deployments run at 100 TB: one index per day /
tenant / shard-group, queried together without a merge-rebuild.  Global
statistics merge EXACTLY — N and total_dl add, df per term adds across the
member vocabularies — so per-document BM25 scores are bit-identical to a
single index built over the concatenated corpus (pinned in
tests/test_federated.py).  The only deviation from a monolithic index is
tie ORDER at equal score_micros: ties break by (member index, doc_num)
instead of the monolith's global doc numbering.

Soundness: each member's stored block-max bounds were computed with its OWN
build avgdl; members are spawned with the merged avgdl plus their build
avgdl so the shard tier rescales bounds by the provable factor
(IndexShard.configure).  Exact contributions always recompute from decoded
(tf, dl) with the merged avgdl.

No reference counterpart (the reference is a single-process, single-DB
engine); the statistics-merge semantics follow distributed IR practice
(global idf in sharded engines).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd

import ray

from typing import Dict, List, Optional, Sequence, Tuple

from oboyu_ray.config import BuildConfig
from oboyu_ray.pipelines.query import QueryEngine


class FederatedEngine:
    """Query facade over N member indexes with merged global statistics."""

    def __init__(
        self,
        index_dirs: Sequence[str],
        num_shards_each: Optional[int] = None,
    ) -> None:
        if not index_dirs:
            raise ValueError("FederatedEngine needs at least one index")
        # merged stats pass: read every member's stats.json first so all
        # member pools spawn already configured with the merged avgdl
        raw, reports = [], []
        for d in index_dirs:
            with open(os.path.join(d, "stats.json")) as f:
                raw.append(json.load(f))
            with open(os.path.join(d, "build_report.json")) as f:
                reports.append(json.load(f))
        # all members must score alike (every BM25Config field) — a
        # federation mixing k1/b, tokenizers or languages is a config error.
        # Validate from the on-disk reports BEFORE spawning any pool: a
        # failed construction must not leak (or deadlock-pend) actors.
        bm25 = [BuildConfig.from_report(r.get("config", {})).bm25 for r in reports]
        if any(c != bm25[0] for c in bm25[1:]):
            raise ValueError(
                "federated members disagree on k1/b/tokenizer/language config"
            )
        n = sum(int(s["N"]) for s in raw)
        total_dl = sum(int(s["total_dl"]) for s in raw)
        self.stats = {
            "N": n,
            "total_dl": total_dl,
            "avgdl": (total_dl / n) if n else 0.0,
        }
        if num_shards_each is None:
            # divide the CPU budget across members up front: letting each
            # member auto-size would hand EVERY CPU to the first pool and
            # deadlock-pend the rest (observed via the CLI path)
            avail = int(ray.available_resources().get("CPU", 4))
            num_shards_each = max(1, avail // max(1, len(index_dirs)))
        # every pool holds one CPU per shard until the federation closes, so
        # pools that together need more than the CLUSTER has never all spawn
        need = sum(min(num_shards_each, len(r["parts"])) for r in reports)
        total_cpus = int(ray.cluster_resources().get("CPU", 0))
        if need > total_cpus:
            raise ValueError(
                f"{len(index_dirs)} member pools need {need} CPUs but the "
                f"cluster has {total_cpus}; lower num_shards_each"
            )
        self.engines: List[QueryEngine] = [
            QueryEngine(
                d, num_shards=num_shards_each, stats_override=self.stats
            )
            for d in index_dirs
        ]
        self.tokenizer = self.engines[0].tokenizer

    # ------------------------------------------------------------- stats

    def df(self, terms: Sequence[str]) -> Dict[str, int]:
        """Merged document frequency: per-term sum across member vocabs."""
        out = {t: 0 for t in terms}
        for e in self.engines:
            for t, d in e.vocab.df(list(terms)).items():
                out[t] += int(d)
        return out

    # ------------------------------------------------------------ search

    def search_terms(
        self, terms: List[str], k: int = 10, require_all: bool = False,
        exclude: Optional[List[str]] = None,
    ) -> pd.DataFrame:
        """Exact top-k across every member: (index_id, doc_num, score),
        ranked by (score DESC, index_id ASC, doc_num ASC).  A query that
        is dead on the merged vocabulary (``QueryEngine._live``; e.g. a
        strict term absent from EVERY member) fans out to no member."""
        weights = QueryEngine._live(terms, self.df(sorted(set(terms))),
                                    int(self.stats["N"]), require_all)
        return self._fan_weights(weights, k, require_all=require_all,
                                 excl=exclude or ())

    def _fan_weights(
        self, weights: Optional[Dict[str, float]], k: int,
        require_all: bool = False, excl: Sequence[str] = (),
    ) -> pd.DataFrame:
        """Fan the SAME merged weights to every member's pool (each member
        merges its own shards' top-ks); the per-member top-ks merge on the
        driver with member order as the tie-break after score (the one
        documented deviation from a monolith's global doc order).  Each
        member drops the excluded terms absent from its own vocabulary.
        No weights (a dead query) → the typed empty frame, no fan-out."""
        method = "query_all" if require_all else "query"
        rows = []
        for ei, e in enumerate(self.engines if weights else ()):
            docs, scores = e._shards(method, weights, k=k, exclude_terms=excl)
            rows += [(s_, ei, d_) for d_, s_ in zip(docs.tolist(), scores.tolist())]
        rows.sort(key=lambda r: (-r[0], r[1], r[2]))
        rows = rows[:k]
        return pd.DataFrame(
            {
                "index_id": np.array([r[1] for r in rows], dtype=np.int64),
                "doc_num": np.array([r[2] for r in rows], dtype=np.int64),
                "score": np.array([r[0] for r in rows], dtype=np.float64),
            }
        )

    def search_fuzzy(
        self, term: str, max_edits: int = 1, k: int = 10,
        max_terms: int = 1000,
    ) -> pd.DataFrame:
        """Federated fuzzy retrieval: each member expands the term against
        its own vocabulary (sidecar / packed scan / sweep — whatever that
        member has), expansions merge by SUMMING df per matched term, and
        the ordinary federated OR runs with merged-idf weights — identical
        scoring to a monolithic index's search_fuzzy (same expansion set:
        the union of member vocabularies IS the monolith vocabulary)."""
        dfs: Dict[str, int] = {}
        for e in self.engines:
            for t, dv in e.vocab.df_fuzzy(
                term, max_edits=max_edits, max_terms=max_terms
            ).items():
                dfs[t] = dfs.get(t, 0) + int(dv)
        if len(dfs) > max_terms:
            raise ValueError(
                f"fuzzy {term!r}~{max_edits} expands to >{max_terms} terms "
                "across the federation"
            )
        return self._fan_weights(
            QueryEngine._idf_weights(dfs, int(self.stats["N"])), k)

    def search(
        self, query: str, k: int = 10, hydrate: bool = False,
        require_all: bool = False, exclude: Optional[str] = None,
    ) -> pd.DataFrame:
        terms = self.tokenizer.tokenize(query)
        excl = self.tokenizer.tokenize(exclude) if exclude else None
        out = self.search_terms(terms, k, require_all=require_all, exclude=excl)
        if not len(out):
            out["conv_id"] = pd.Series(dtype=object)
            out["turn_idx"] = pd.Series(dtype=np.int64)
            return out
        convs = np.empty(len(out), dtype=object)
        turns = np.zeros(len(out), dtype=np.int64)
        for ei, e in enumerate(self.engines):
            m = out["index_id"].to_numpy() == ei
            if m.any():
                c, t = e.resolver.resolve(out.loc[m, "doc_num"].to_numpy())
                convs[m] = c
                turns[m] = t
        out["conv_id"] = convs
        out["turn_idx"] = turns
        if hydrate:
            parts = []
            for ei, e in enumerate(self.engines):
                sub = out[out["index_id"] == ei]
                if len(sub):
                    h = e._hydrate(sub.drop(columns=["index_id"]))
                    h.insert(0, "index_id", ei)
                    parts.append(h)
            out = (
                pd.concat(parts, ignore_index=True)
                .sort_values(
                    ["score", "index_id", "doc_num"],
                    ascending=[False, True, True], kind="mergesort",
                )
                .reset_index(drop=True)
            )
        return out

    def count_matches(
        self, query: str, require_all: bool = False,
        exclude: Optional[str] = None,
    ) -> int:
        """Federated total-hit count: Σ per-member counts — counts are
        score-free, so unlike ranked search no statistic merge or bound
        rescale is involved; members answer independently and the driver
        sums #members integers."""
        return sum(
            e.count_matches(query, require_all=require_all, exclude=exclude)
            for e in self.engines
        )

    def close(self) -> None:
        for e in self.engines:
            e.close()
