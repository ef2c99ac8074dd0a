"""Engine configuration.

Defaults mirror the reference's live BM25 indexing configuration
(``/root/reference/src/oboyu/indexer/algorithm/bm25_indexer.py:32-37`` and
``config/indexer.py:52-61``): k1=1.2, b=0.75, min_token_length=2.
The reference's ``min_doc_frequency`` is stored but never enforced there,
so it has no field here: pruning by it would break rank-identity.

``use_stopwords=True`` is a deliberate correction of SURVEY §2-M13:
although ``BM25Indexer(use_stopwords=False)`` is the constructor default
(bm25_indexer.py:36), the statistics/index path never uses that tokenizer —
``index_chunks`` tokenizes through ``TermFrequencyAnalyzer`` built from
``TokenizerService(language, {"min_token_length": ...})``
(bm25_indexer.py:82), whose ``_create_tokenizer`` defaults
``use_stopwords=True`` (tokenizer.py:333,337-338).  The query path does the
same (retriever/orchestrators/service_registry.py:75-80).  So the LIVE
conformance semantics filter DEFAULT_JAPANESE_STOP_WORDS on both sides;
verified empirically against the reference oracle in
tests/test_bm25_conformance.py.

Scale knobs (ours; no reference equivalent — the reference is a
single-process in-memory engine):

* partitioning — the partition unit is a run of consecutive input files;
  by default ``build_index`` packs them by input bytes (~2 MiB per
  partition, no fewer partitions than cluster CPUs), and
  ``files_per_part >= 1`` fixes the files per partition instead.  Each
  partition's postings stay partition-local (document-partitioned index
  → no all-to-all shuffle of posting rows, see
  ``pipelines/build_index.py``).
* ``window_docs`` — width (in dense doc ordinals) of an aligned posting
  block/window.  All terms' blocks share window boundaries, which makes
  block-max pruning a vectorized per-window bound instead of per-cursor
  pointer chasing, and doubles as the skip structure (a query seeks directly
  to surviving windows).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict


@dataclass(frozen=True)
class BM25Config:
    """Every field changes scores or tokens: two indexes score one corpus
    together (merge, federation) only when their BM25Configs are equal."""

    k1: float = 1.2
    b: float = 0.75
    min_token_length: int = 2
    use_stopwords: bool = True
    language: str = "ja"
    # "default" = reference-conformant selection (MeCab when available,
    # regex fallback otherwise); "ngram" = character-bigram CJK runs
    # (recall for glued Japanese compounds; NOT rank-comparable with the
    # reference — an optional mode, recorded in the index lineage)
    tokenizer_mode: str = "default"


@dataclass(frozen=True)
class BuildConfig:
    bm25: BM25Config = field(default_factory=BM25Config)
    # the partition unit is a run of consecutive input files, packed by
    # input bytes (build_index files_per_part=0, PART_TARGET_BYTES) or a
    # fixed number of files per partition (files_per_part >= 1);
    # a partition is the unit of checkpointing, resume and shard assignment;
    # each build phase is one Ray Data job whose tasks (one per cluster CPU)
    # run their partitions in turn
    window_docs: int = 8_192
    # vocabulary aggregation: term partials are hash-bucketed (stable crc32)
    # into this many disjoint buckets at tokenize time (one partials file
    # per partition, one row group per bucket); the buckets are cut into
    # min(buckets, partitions) contiguous slices, each reduced by one C++
    # (pyarrow) group_by, and at most one task per cluster CPU runs its
    # slices in turn — a deterministic file-based two-phase aggregation
    # instead of a Ray Data groupby shuffle (measured ~30x faster on a small
    # corpus, and each bucket is an independent, checkpointable unit).
    # Every reduce task opens every partials file and reads its footer once,
    # so at 10^6+ partitions add a combiner tree level (partials-of-partials
    # per partition range) to bound the files each task opens.
    vocab_buckets: int = 32
    # opt-in positional index (reference BM25Indexer(store_positions=True),
    # bm25_indexer.py:38 — the reference allocates the slot but never fills
    # or reads it; here it is real): postings carry per-(term, doc) token
    # positions (indices in the FILTERED token stream) and blocks gain a
    # delta+varint positions payload, enabling exact phrase retrieval
    # (QueryEngine.search_phrase).  Costs ~1 varint per token occurrence;
    # default off so the non-phrase build is byte-identical to before.
    store_positions: bool = False

    @classmethod
    def from_report(cls, config: Dict[str, Any]) -> BuildConfig:
        """The config an index's ``build_report.json`` records under
        ``config``.  Missing keys take the defaults; unknown keys (fields
        since removed) are ignored."""
        def known(dc, d: Dict[str, Any]) -> Dict[str, Any]:
            return {f.name: d[f.name] for f in fields(dc) if f.name in d}

        bm25 = BM25Config(**known(BM25Config, config.get("bm25", {})))
        return cls(**{**known(cls, config), "bm25": bm25})


DEFAULT_BUILD_CONFIG = BuildConfig()
