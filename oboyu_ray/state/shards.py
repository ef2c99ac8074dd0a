"""Stateful query-side index shards: exact top-k BM25 with aligned-window
block-max pruning (our block-max WAND variant).

Each shard actor loads the compressed posting blocks of a set of document
partitions once (actor ``__init__`` — the T7 stateful stage of SURVEY §2.3)
and answers top-k queries over ITS documents completely: because the index
is document-partitioned, a shard computes full multi-term scores locally and
the driver's per-shard top-k merge is exact.

Pruning (safe, exact — results equal brute force by construction):
1. All terms' blocks share window boundaries (win = doc_num // window_docs),
   so the per-window score upper bound is a vectorized scatter-add over each
   query term's (win → block bound) arrays.  A term's bound contribution is
   ``idf·max_tfnorm`` when idf > 0 and **0** when idf ≤ 0: any window can
   contain docs that lack the term (whose contribution is 0), so 0 is the
   only sound per-window bound for a negative-IDF term (df > N/2,
   reference-legal) — EXCEPT when the block is saturated (its posting
   count equals the docs present in the window): then every doc pays the
   term and ``idf·min_tfnorm`` (< 0) is a sound, tighter bound.  Hot
   particle terms saturate many windows, so this refinement prunes the
   query shapes that hurt most.  Windows a term is absent from
   contribute 0.
2. Windows are processed in DESCENDING upper-bound order (MaxScore-style
   ordering on top of block-max WAND); once the bound of the next window is
   strictly below the current k-th best score θ, every remaining window is
   pruned.  Equal-to-θ windows are still processed so (score DESC, doc ASC)
   tie-breaking stays exact.
3. Surviving windows are scored exactly and fully vectorized: decode the ≤|q|
   blocks (numpy varint+cumsum, state/codec.py), scatter-add contributions
   into a dense window-local accumulator, lexsort-merge candidates into the
   running top-k.

The block table itself is the skip structure (window granularity): a query
touches only the block rows of surviving windows and never iterates postings
in Python.

Every top-k kernel (and ``count_matches``) runs the same scaffold: one part
walk (``IndexShard._walk``: empty for k ≤ 0 or an empty scope, one
``queries`` tick, in-scope parts only, the positional-index guard) and one
running top-k (``_TopK``: NOT/scope filter, exact merge, θ).  A kernel keeps
only its per-part leaf logic, built from shared leaf helpers: window
intersection, per-window block lookup and hit-doc scoring.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from oboyu_ray.state.codec import varint_decode

NEG_INF = float("-inf")

# phrase-search key packing: (part-local doc index) * PK + (position − offset).
# Requires position < 2^40 (a trillion-token document — impossible) and
# part-local doc index < 2^23 (8.4M docs per partition — far above the
# ~100k-doc partitions the build targets), so int64 never overflows.
_PHRASE_PK = np.int64(1) << 40

# query() switches to the whole-part dense accumulate at this many matched
# terms: the per-window bound machinery and MaxScore shedding loops scale
# with term count, the dense accumulate with total postings — crossover is
# far below 64 for every measured shape
WIDE_OR_TERMS = 64


class _PartIndex:
    """In-memory image of one partition's block table.

    Binary payload columns are kept as raw zero-copy numpy views
    (values buffer + row offsets), so any contiguous row range [s, e) of a
    term's blocks can be decoded in ONE vectorized pass — no per-row
    ``as_py()`` byte copies on the query path."""

    __slots__ = ("win", "n", "max_tfnorm", "min_tfnorm",
                 "term_slices", "n_windows", "win_base",
                 "docs_off", "docs_buf", "tfs_off", "tfs_buf",
                 "row_starts", "window_docs", "dl_arr", "dl_base",
                 "wdc_base", "window_doc_counts",
                 "has_positions", "pos_off", "pos_buf",
                 "uniq_terms", "uniq_starts",
                 "build_avgdl", "bscale_hi", "bscale_lo")

    @staticmethod
    def _binary_views(col):
        arr = col.combine_chunks()
        # offset width from the TYPE, not the buffer byte length (a padded
        # buffer would silently mis-decode); sliced arrays index into the
        # offsets buffer at arr.offset
        if pa.types.is_large_binary(arr.type) or pa.types.is_large_string(arr.type):
            width = np.int64
        elif pa.types.is_binary(arr.type) or pa.types.is_string(arr.type):
            width = np.int32
        else:
            raise TypeError(f"_binary_views: unsupported type {arr.type}")
        bufs = arr.buffers()
        off = np.frombuffer(bufs[1], dtype=width, count=arr.offset + len(arr) + 1)[
            arr.offset : arr.offset + len(arr) + 1
        ].astype(np.int64)
        data = (
            np.frombuffer(bufs[2], dtype=np.uint8)
            if bufs[2] is not None
            else np.zeros(0, dtype=np.uint8)
        )
        return arr, off, data

    def __init__(self, index_dir: str, part_id: int, window_docs: int,
                 doc_offset: int = 0, build_avgdl: float = 0.0) -> None:
        """``doc_offset`` shifts the part's doc numbers (a member part of a
        multi-index engine).  It must be a multiple of ``window_docs``:
        block payloads are window-relative, so only ``win`` and the dl and
        window-count bases move.  ``build_avgdl`` is the avgdl the part's
        stored bounds were computed with (0: the shard's, see
        ``IndexShard.configure``)."""
        if doc_offset % window_docs:
            raise ValueError(f"doc_offset {doc_offset} is not a multiple of "
                             f"window_docs {window_docs}")
        self.build_avgdl = build_avgdl
        # block-bound rescale for a query avgdl other than the build's (set
        # by IndexShard.configure); 1.0 = bounds used as stored
        self.bscale_hi = self.bscale_lo = 1.0
        blocks_path = os.path.join(index_dir, "blocks", f"blocks-{part_id:05d}.parquet")
        cols = ["term", "win", "n", "docs", "tfs", "max_tfnorm", "min_tfnorm"]
        self.has_positions = "pos" in pq.read_schema(blocks_path).names
        if self.has_positions:
            cols.append("pos")
        t = pq.read_table(blocks_path, columns=cols)
        self.win = t.column("win").to_numpy().astype(np.int64) + doc_offset // window_docs
        self.n = t.column("n").to_numpy().astype(np.int64)
        _, self.docs_off, self.docs_buf = self._binary_views(t.column("docs"))
        _, self.tfs_off, self.tfs_buf = self._binary_views(t.column("tfs"))
        if self.has_positions:
            _, self.pos_off, self.pos_buf = self._binary_views(t.column("pos"))
        else:
            self.pos_off = self.pos_buf = None
        # posting-row start index of each block (prefix sums of block sizes)
        self.row_starts = np.zeros(len(self.n) + 1, dtype=np.int64)
        np.cumsum(self.n, out=self.row_starts[1:])
        self.max_tfnorm = t.column("max_tfnorm").to_numpy()
        # min_tfnorm feeds the saturated-window refinement: when a block's
        # posting count equals the number of docs PRESENT in its window,
        # every doc pays the term, and a negative-idf term's largest possible
        # per-doc contribution is w·min_tfnorm (< 0) instead of 0
        self.min_tfnorm = t.column("min_tfnorm").to_numpy()
        # dense per-part document lengths (blocks v2 stores no dl varints:
        # one 8-byte int per doc here replaces a varint per POSTING there)
        dls_path = os.path.join(index_dir, "dls", f"dls-{part_id:05d}.parquet")
        dt = pq.read_table(dls_path)
        doc_nums = dt.column("doc_num").to_numpy().astype(np.int64) + doc_offset
        dls = dt.column("dl").to_numpy().astype(np.float64)
        if len(doc_nums):
            self.dl_base = int(doc_nums.min())
            self.dl_arr = np.zeros(int(doc_nums.max()) - self.dl_base + 1, dtype=np.float64)
            self.dl_arr[doc_nums - self.dl_base] = dls
            # docs present per window of THIS part (empty docs included — an
            # empty doc cannot contain a term, so its presence simply keeps
            # a window from ever counting as saturated: conservative)
            self.wdc_base = int(doc_nums.min()) // window_docs
            self.window_doc_counts = np.bincount(
                doc_nums // window_docs - self.wdc_base,
                minlength=int(doc_nums.max()) // window_docs - self.wdc_base + 1,
            ).astype(np.int64)
        else:
            self.dl_base = 0
            self.dl_arr = np.zeros(0, dtype=np.float64)
            self.wdc_base = 0
            self.window_doc_counts = np.zeros(0, dtype=np.int64)
        self.window_docs = window_docs
        # term → contiguous block-row slice (blocks sorted by term, win).
        # Vectorized run detection over dictionary codes: only UNIQUE terms
        # materialize as Python strings (block rows can be millions; their
        # term column is highly repetitive)
        self.term_slices: Dict[str, Tuple[int, int]] = {}
        nrows = t.num_rows
        if nrows:
            enc = t.column("term").combine_chunks().dictionary_encode()
            codes = enc.indices.to_numpy().astype(np.int64)
            starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
            ends = np.concatenate((starts[1:], [nrows]))
            terms_at_starts = enc.dictionary.take(
                pa.array(codes[starts])
            ).to_pylist()
            for term, s_, e_ in zip(terms_at_starts, starts, ends):
                self.term_slices[term] = (int(s_), int(e_))
            # the blocks table is (term, win)-sorted, so the unique terms
            # are ALREADY in sorted order and any term RANGE [lo, hi) is a
            # CONTIGUOUS block-row range — the prefix/range query path
            # (query_term_range) turns a 10^4-term expansion into two
            # bisects + one vectorized decode instead of per-term work
            self.uniq_terms: List[str] = terms_at_starts
            self.uniq_starts = np.concatenate(
                (starts, [nrows])
            ).astype(np.int64)
        else:
            self.uniq_terms = []
            self.uniq_starts = np.zeros(1, dtype=np.int64)
        if nrows:
            self.win_base = int(self.win.min())
            self.n_windows = int(self.win.max()) - self.win_base + 1
        else:
            self.win_base = 0
            self.n_windows = 0

    def decode_range(self, s: int, e: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode block rows [s, e) in ONE vectorized pass → (absolute
        doc_nums int64, tf float64, dl float64) for every posting in the
        range.  Rows' payload bytes are contiguous in the column's values
        buffer; each block's first doc gap is relative to its window base
        (grouped_delta_encode in the build); dl is a dense per-part gather,
        not a decoded payload."""
        gaps = varint_decode(
            self.docs_buf[self.docs_off[s] : self.docs_off[e]]
        ).astype(np.int64)
        counts = self.n[s:e]
        starts = self.row_starts[s:e] - self.row_starts[s]
        tot = np.cumsum(gaps)
        shift = np.zeros(len(counts), dtype=np.int64)
        if len(counts) > 1:
            shift[1:] = tot[starts[1:] - 1]
        within = tot - np.repeat(shift, counts)
        docs_abs = within + np.repeat(self.win[s:e] * self.window_docs, counts)
        tf = varint_decode(self.tfs_buf[self.tfs_off[s] : self.tfs_off[e]]).astype(
            np.float64
        )
        dl = self.dl_arr[docs_abs - self.dl_base]
        return docs_abs, tf, dl

    def decode_positions(self, s: int, e: int, tf: np.ndarray) -> np.ndarray:
        """Flat absolute token positions for block rows [s, e), concatenated
        per posting in row order (``tf`` — the decoded tf array for the same
        range — gives the per-posting position counts: tf == len(positions)
        by construction).  Same grouped-delta reconstruction as docs, with
        base 0 per posting."""
        gaps = varint_decode(
            self.pos_buf[self.pos_off[s] : self.pos_off[e]]
        ).astype(np.int64)
        counts = tf.astype(np.int64)
        pstarts = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=pstarts[1:])
        tot = np.cumsum(gaps)
        shift = np.zeros(len(counts), dtype=np.int64)
        if len(counts) > 1:
            shift[1:] = tot[pstarts[1:] - 1]
        return tot - np.repeat(shift, counts)


def _merge_topk(
    cur_docs: np.ndarray, cur_scores: np.ndarray,
    new_docs: np.ndarray, new_scores: np.ndarray, k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    if k <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    docs = np.concatenate((cur_docs, new_docs))
    scores = np.concatenate((cur_scores, new_scores))
    n = len(scores)
    if n > max(4 * k, 64) and k < n:
        # O(n) preselection: keep every row tied-or-above the kth largest
        # score, so the exact (score DESC, doc ASC) sort runs on ~k rows
        kth = np.partition(scores, n - k)[n - k]
        mask = scores >= kth
        docs, scores = docs[mask], scores[mask]
    order = np.lexsort((docs, -scores))[:k]
    return docs[order], scores[order]


def _merge_topk_multi(
    pairs: "List[Tuple[np.ndarray, np.ndarray]]", k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-k over MANY (docs, scores) partial results in one pass.

    Semantically identical to folding ``_merge_topk`` over ``pairs`` (same
    (score DESC, doc ASC) order), but one concatenate + one O(n) partition
    + one ~k-row lexsort instead of len(pairs) incremental merges — the
    driver/aggregator merge of a wide shard fan-out is a hot path in
    batched serving (32 shards × Q queries per batch)."""
    if k <= 0 or not pairs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if len(pairs) == 1:
        docs, scores = pairs[0]
    else:
        docs = np.concatenate([p[0] for p in pairs])
        scores = np.concatenate([p[1] for p in pairs])
    n = len(scores)
    if n > max(4 * k, 64) and k < n:
        kth = np.partition(scores, n - k)[n - k]
        mask = scores >= kth
        docs, scores = docs[mask], scores[mask]
    order = np.lexsort((docs, -scores))[:k]
    return docs[order], scores[order]


def _drop_excluded(docs_abs: np.ndarray, scores: np.ndarray, excl_abs,
                   scope=None):
    """Filter (docs, scores) against the sorted exclusion array and the
    optional ``scope`` doc_num interval [lo, hi) BEFORE any top-k
    insert — θ then derives from valid docs only, keeping every pruning
    bound sound (removing candidates can only raise the true θ, and the
    window/part bounds remain upper bounds for the surviving docs)."""
    if not len(docs_abs):
        return docs_abs, scores
    if excl_abs is not None:
        pos = np.searchsorted(excl_abs, docs_abs)
        pos_c = np.clip(pos, 0, len(excl_abs) - 1)
        keep = excl_abs[pos_c] != docs_abs
        docs_abs, scores = docs_abs[keep], scores[keep]
    if scope is not None and len(docs_abs):
        keep = (docs_abs >= scope[0]) & (docs_abs < scope[1])
        docs_abs, scores = docs_abs[keep], scores[keep]
    return docs_abs, scores


def _intersect_all(arrays) -> np.ndarray:
    """Intersection of sorted-unique int64 arrays, folded in the given
    order and stopped at the first empty result (later arrays of a lazy
    iterable are then never built); empty when there are none."""
    cur = None
    for a in arrays:
        cur = a if cur is None else np.intersect1d(cur, a, assume_unique=True)
        if not len(cur):
            break
    return np.empty(0, dtype=np.int64) if cur is None else cur


class _TopK:
    """The running exact top-k of one shard call, in (score DESC, doc ASC)
    order.  ``push`` filters NOT-excluded and out-of-scope docs (``keep``)
    before they merge, so ``theta`` — the k-th best score, −inf until k
    docs are held — derives from valid docs only."""

    __slots__ = ("k", "scope", "docs", "scores", "theta")

    def __init__(self, k: int, scope=None) -> None:
        self.k = k
        self.scope = None if scope is None else (int(scope[0]), int(scope[1]))
        self.docs = np.empty(0, dtype=np.int64)
        self.scores = np.empty(0, dtype=np.float64)
        self.theta = NEG_INF

    @property
    def full(self) -> bool:
        return len(self.docs) >= self.k

    def outside(self, lo: int, hi: int) -> bool:
        """True when the doc_num range [lo, hi) cannot meet the scope —
        scoped queries then touch only the parts (and windows) that
        overlap the interval, the structural speedup of contiguous doc
        numbering."""
        return self.scope is not None and (hi <= self.scope[0] or lo >= self.scope[1])

    def keep(self, docs_abs: np.ndarray, scores: np.ndarray, excl_abs=None):
        return _drop_excluded(docs_abs, scores, excl_abs, self.scope)

    def push(self, docs_abs: np.ndarray, scores: np.ndarray, excl_abs=None) -> None:
        docs_abs, scores = self.keep(docs_abs, scores, excl_abs)
        if len(docs_abs):
            self.docs, self.scores = _merge_topk(
                self.docs, self.scores, docs_abs, scores, self.k
            )
            if self.full:
                self.theta = self.scores[-1]


class IndexShard:
    """Actor serving top-k BM25 for a set of document partitions.

    Constructed once per actor (block tables + dl arrays resident); queries
    pass the per-term weights (idf × query multiplicity) computed by the
    driver from the vocabulary, so shards hold no global state beyond their
    own partitions.
    """

    # decoded-postings cache budget per shard actor, in posting entries
    # (idx+tfnorm arrays ≈ 16 B/posting → default ~512 MB); hot terms (high
    # df, the scan-path queries) hit this cache on every repeated query.
    # Size so a working set of ~10 hot terms per shard fits — an undersized
    # cache FIFO-thrashes and every query pays full decode (measured 75x
    # slower at 50M docs with an 8M cap)
    DECODE_CACHE_POSTINGS = 32_000_000

    def __init__(self, index_dir: Optional[str], part_ids: Sequence,
                 window_docs: int, cache_postings: Optional[int] = None) -> None:
        """``part_ids``: part ids of ``index_dir``, or ``(index_dir, part_id,
        doc_offset, build_avgdl)`` specs of parts of any index sharing
        ``window_docs`` (``_PartIndex``) — the member parts of a multi-index
        engine, each at its member's doc offset."""
        # per-shard decode-cache budget override: deployments with few huge
        # shards (docs-per-shard ≫ the sandbox's ~3M) size this to keep a
        # working set of hot terms resident — ~16 B per posting
        if cache_postings is not None:
            self.DECODE_CACHE_POSTINGS = int(cache_postings)
        self.window_docs = window_docs
        self.parts: List[_PartIndex] = [
            _PartIndex(p[0], p[1], window_docs, *p[2:])
            if isinstance(p, (tuple, list)) else _PartIndex(index_dir, p, window_docs)
            for p in part_ids
        ]
        # BM25 parameters, set per index via configure(); defaults match
        # BM25Config
        self.k1, self.b, self.avgdl = 1.2, 0.75, 1.0
        # key (part, s, e) → ((idx, tfnorm), n_postings) sparse entries;
        # key (part, s, e, -1) → (dense tfnorm array, span/2) gather entries
        self._cache: Dict[Tuple, Tuple] = {}
        self._cache_postings = 0
        # (part, ti0, ti1, weights_key) → per-unique-term weight array for
        # the range path; tiny (≤ a few k floats per entry), FIFO-bounded
        self._wuniq_cache: Dict[Tuple, np.ndarray] = {}
        # per-shard scan telemetry (get_counters / reset_counters; the
        # engine sums these across actors — the observability surface the
        # manifests don't cover: what queries actually COST)
        self.counters: Dict[str, int] = {
            "queries": 0, "windows_scanned": 0, "windows_pruned": 0,
            "postings_decoded": 0, "cache_hits": 0, "cache_misses": 0,
            "maxscore_parts": 0, "wide_or_parts": 0, "range_parts": 0,
        }

    def get_counters(self) -> Dict[str, int]:
        return dict(self.counters)

    def reset_counters(self) -> None:
        for k in self.counters:
            self.counters[k] = 0

    def _walk(self, top: _TopK, positions: Optional[str] = None):
        """The part loop of every kernel: nothing when ``top`` can hold no
        doc (k ≤ 0 or an empty scope); else one ``queries`` tick and each
        (part_idx, part) whose doc range meets the scope.  ``positions``
        names a mode that needs a positional index: an in-scope part built
        without positions raises."""
        if top.k <= 0 or (top.scope is not None and top.scope[0] >= top.scope[1]):
            return
        self.counters["queries"] += 1
        W = self.window_docs
        for part_idx, part in enumerate(self.parts):
            lo = part.win_base * W
            if top.outside(lo, lo + part.n_windows * W):
                continue
            if positions and not part.has_positions:
                raise ValueError(
                    "index was built without store_positions; rebuild with "
                    f"BuildConfig(store_positions=True) to enable {positions} "
                    "queries"
                )
            yield part_idx, part

    @staticmethod
    def _hits(part: _PartIndex, term_weights: Dict[str, float]):
        """[(w, s, e)]: weight and block-row slice of each weighted term
        the part holds."""
        return [
            (w, *part.term_slices[t])
            for t, w in term_weights.items()
            if t in part.term_slices
        ]

    @staticmethod
    def _block_row(part: _PartIndex, s: int, e: int, win_abs: int) -> int:
        """Block row of term slice [s, e) in window ``win_abs`` (one row per
        window, sorted by window), or -1 when the term has none there."""
        bi = s + int(np.searchsorted(part.win[s:e], win_abs))
        return bi if bi < e and part.win[bi] == win_abs else -1

    def _window_contribs(self, part: _PartIndex, hits, win_abs: int):
        """(window-local doc index, weighted contribution) of each hit
        term's block in window ``win_abs``; terms without one are
        skipped."""
        base = win_abs * self.window_docs
        for w, s, e in hits:
            bi = self._block_row(part, s, e, win_abs)
            if bi >= 0:
                docs_abs, tf, dl = part.decode_range(bi, bi + 1)
                yield docs_abs - base, w * self._tfnorm(tf, dl)

    def _part_contribs(self, part_idx: int, hits):
        """(part-local doc index, weighted contribution) of each hit term
        over its whole block range, through the contribution cache."""
        for w, s, e in hits:
            idx, tfnorm = self._contrib_cached(part_idx, s, e)
            yield idx, w * tfnorm

    @staticmethod
    def _or_fold(size: int, contribs):
        """OR-sum of (local doc index, contribution) pairs over ``size``
        local docs, accumulated per term in the given order → (candidate
        local docs, scores)."""
        acc = np.zeros(size, dtype=np.float64)
        present = np.zeros(size, dtype=bool)
        for idx, c in contribs:
            acc[idx] += c
            present[idx] = True
        cand = np.flatnonzero(present)
        return cand, acc[cand]

    @staticmethod
    def _dismax_fold(size: int, contribs, tb: float):
        """DisMax of (local doc index, contribution) pairs: per doc
        ``m + tb·(Σc − m)`` with m the largest contribution → (candidate
        local docs, scores)."""
        acc = np.zeros(size, dtype=np.float64)
        mx = np.full(size, -np.inf, dtype=np.float64)
        present = np.zeros(size, dtype=bool)
        for idx, c in contribs:
            acc[idx] += c
            # idx is unique per term (one posting per doc), so the
            # vectorized gather/compare/scatter replaces the ~10x slower
            # unbuffered np.maximum.at
            mx[idx] = np.maximum(mx[idx], c)
            present[idx] = True
        cand = np.flatnonzero(present)
        m = mx[cand]
        return cand, m + tb * (acc[cand] - m)

    def _score_hits(self, part_idx: int, part: _PartIndex, terms,
                    term_weights: Dict[str, float], hit_idx: np.ndarray):
        """(absolute doc_nums, BM25 scores) of part-local ``hit_idx`` docs,
        each of which holds every one of ``terms``: one searchsorted per
        term into its cached contributions, summed in ``terms`` order."""
        scores = np.zeros(len(hit_idx), dtype=np.float64)
        for t in terms:
            idx, tfnorm = self._contrib_cached(part_idx, *part.term_slices[t])
            scores += term_weights[t] * tfnorm[np.searchsorted(idx, hit_idx)]
        return part.win_base * self.window_docs + hit_idx, scores

    def _contrib_cached(self, part_idx: int, s: int, e: int):
        """FIFO-bounded cache of (part-local doc index, tfnorm) for a term's
        full block range.  tfnorm depends only on (tf, dl, k1, b, avgdl) —
        all query-independent — so the scan path's per-query work collapses
        to one fused multiply-add per cached hot term.  Cleared by
        configure() (k1/b/avgdl changes)."""
        key = (part_idx, s, e)
        hit = self._cache.get(key)
        if hit is not None:
            self.counters["cache_hits"] += 1
            return hit[0]
        self.counters["cache_misses"] += 1
        part = self.parts[part_idx]
        docs_abs, tf, dl = part.decode_range(s, e)
        self.counters["postings_decoded"] += len(docs_abs)
        idx = docs_abs - part.win_base * self.window_docs
        tfnorm = self._tfnorm(tf, dl)
        out = (idx, tfnorm)
        self._cache_put(key, out, len(idx))
        return out

    def _cache_put(self, key, payload, n: int) -> None:
        if n > self.DECODE_CACHE_POSTINGS:
            return
        while self._cache and self._cache_postings + n > self.DECODE_CACHE_POSTINGS:
            old_key = next(iter(self._cache))
            self._cache_postings -= self._cache.pop(old_key)[1]
        self._cache[key] = (payload, n)
        self._cache_postings += n

    def _dense_contrib_cached(self, part_idx: int, s: int, e: int, span: int):
        """Dense part-local tfnorm array (0 where the term is absent) for a
        term's block range — the gather-side representation the MaxScore
        non-essential lookup uses for LONG lists (O(1) gather per candidate
        instead of an O(log n) cache-cold binary search).  Built once from
        the sparse cache entry; accounted in the same posting budget
        (span/2 entries: 8 B each vs 16 B sparse)."""
        key = (part_idx, s, e, -1)
        hit = self._cache.get(key)
        if hit is not None:
            return hit[0]
        idx, tfnorm = self._contrib_cached(part_idx, s, e)
        dense = np.zeros(span, dtype=np.float64)
        dense[idx] = tfnorm
        self._cache_put(key, dense, span // 2)
        return dense

    def _tfdl_cached(self, part_idx: int, s: int, e: int):
        """FIFO-cached RAW (part-local doc index, tf, dl) for a term's block
        range — the synonym path needs pre-normalization tf so group members
        can SUM their tfs before the BM25 saturation applies (SynonymQuery
        semantics: tfnorm(tf1+tf2) ≠ tfnorm(tf1)+tfnorm(tf2)).  Accounted
        ~1.5× a contribution entry (three arrays instead of two)."""
        key = (part_idx, s, e, -4)
        hit = self._cache.get(key)
        if hit is not None:
            self.counters["cache_hits"] += 1
            return hit[0]
        self.counters["cache_misses"] += 1
        part = self.parts[part_idx]
        docs_abs, tf, dl = part.decode_range(s, e)
        self.counters["postings_decoded"] += len(docs_abs)
        idx = docs_abs - part.win_base * self.window_docs
        out = (idx, tf, dl)
        self._cache_put(key, out, len(idx) + len(idx) // 2)
        return out

    def query_synonym(
        self, groups, group_weights, k: int, scope=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Blended synonym-group top-k (Lucene SynonymQuery): each group is
        a list of interchangeable terms scored AS ONE TERM — per doc the
        group tf is the SUM of member tfs (summed BEFORE the BM25
        saturation), weighted by the caller-supplied group weight (idf of
        the group's max df × query multiplicity).  A doc matching any
        member of any group is a candidate; score = Σ_g w_g ·
        tfnorm(Σ_t tf).  Dense part-span accumulation (the wide-OR shape):
        per group one np.add.at scatter of raw tfs + one vectorized
        saturation over the group's candidates — no per-doc Python."""
        W = self.window_docs
        top = _TopK(k, scope)
        for part_idx, part in self._walk(top):
            span = part.n_windows * W
            acc = None
            present = None
            for g, w in zip(groups, group_weights):
                members = [t for t in g if t in part.term_slices]
                if not members:
                    continue
                if acc is None:
                    acc = np.zeros(span, dtype=np.float64)
                    present = np.zeros(span, dtype=bool)
                tfsum = np.zeros(span, dtype=np.float64)
                dlv = np.zeros(span, dtype=np.float64)
                for t in members:
                    idx, tf, dl = self._tfdl_cached(
                        part_idx, *part.term_slices[t]
                    )
                    np.add.at(tfsum, idx, tf.astype(np.float64))
                    dlv[idx] = dl  # same doc → same dl whichever member wrote it
                cand_g = np.flatnonzero(tfsum)
                acc[cand_g] += w * self._tfnorm(tfsum[cand_g], dlv[cand_g])
                present[cand_g] = True
            if acc is None:
                continue
            cand = np.flatnonzero(present)
            top.push(part.win_base * W + cand, acc[cand])
        return top.docs, top.scores

    def query_dismax(
        self, term_weights: Dict[str, float], tiebreak: float, k: int,
        scope=None, force: str | None = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Disjunction-max top-k (Lucene DisjunctionMaxQuery): per doc the
        score is ``max_t(c_t) + tiebreak · (Σ_t c_t − max_t)`` over the
        weighted single-term contributions c_t = w_t · tfnorm.  Same
        candidate semantics as query(): any doc containing ≥1 query term.

        Adaptive execution: rewriting the score as
        ``(1−tb)·max + tb·sum`` gives a sound per-window bound
        ``(1−tb)·ub_max + tb·ub_sum`` for tb ∈ [0, 1] (both coefficients
        non-negative; ub_max/ub_sum from ``_window_bounds``), so the
        block-max window walk prunes exactly like query()'s WAND pass —
        this is what keeps a hot-term dismax from decoding the whole
        part.  Per-doc scoring keeps the ``m + tb·(sum − m)`` expression,
        bit-identical to the dense path and the brute force (the bound
        form is used only for pruning).  Wide queries (≥ WIDE_OR_TERMS)
        and tb outside [0, 1] fall back to the dense whole-part
        accumulation; ``force`` pins "dense"/"pruned" for tests."""
        W = self.window_docs
        tb = float(tiebreak)
        top = _TopK(k, scope)
        for part_idx, part in self._walk(top):
            hits = self._hits(part, term_weights)
            if not hits:
                continue
            # one dense pass, with no bounds to compute, for wide queries
            # (bound bookkeeping costs more than it prunes), tb outside
            # [0, 1] (no sound bound) and an unfilled heap (prunes nothing)
            dense = force == "dense" or (force is None and (
                len(hits) >= WIDE_OR_TERMS or not (0.0 <= tb <= 1.0)
                or not top.full
            ))
            if not dense:
                uniq_wins, ub_sum, ub_max = self._window_bounds(
                    part, hits, want_max=True
                )
                bound = (1.0 - tb) * ub_max + tb * ub_sum
                # adaptive execution (mirrors query()): when the bound
                # cannot drop most windows — hot terms — the per-window
                # decode loop loses to one dense pass
                dense = force is None and (
                    int((bound >= top.theta).sum()) * 2 > len(uniq_wins)
                )
            if dense:
                cand, sc = self._dismax_fold(
                    part.n_windows * W, self._part_contribs(part_idx, hits), tb
                )
                top.push(part.win_base * W + cand, sc)
                continue
            order = np.argsort(-bound, kind="stable")
            for n_done, oi in enumerate(order):
                if bound[oi] < top.theta:
                    self.counters["windows_pruned"] += len(order) - n_done
                    break
                win_abs = int(uniq_wins[oi])
                if top.outside(win_abs * W, (win_abs + 1) * W):
                    continue
                self.counters["windows_scanned"] += 1
                idx, sc = self._dismax_fold(
                    W, self._window_contribs(part, hits, win_abs), tb
                )
                top.push(win_abs * W + idx, sc)
        return top.docs, top.scores

    def count_matches(
        self, terms: List[str], require_all: bool = False,
        exclude_terms: Sequence[str] = (), scope=None,
    ) -> int:
        """Total matching-document count (Lucene IndexSearcher.count): how
        many docs this shard holds matching the query under OR (any term) or
        AND (every distinct term) semantics, honoring NOT exclusions and the
        scope interval — no scoring, no top-k.  Dense per-part presence
        accumulation through the contribution cache (one scatter per term);
        the returned int is the only thing that crosses the wire, so a
        256-node count is #shards integers."""
        W = self.window_docs
        distinct = list(dict.fromkeys(terms))
        need = len(distinct) if require_all else 1
        top = _TopK(1, scope)  # a count holds no docs: only keep() is used
        total = 0
        for part_idx, part in self._walk(top):
            present_terms = [t for t in distinct if t in part.term_slices]
            if not present_terms or len(present_terms) < need:
                continue
            nseen = np.zeros(part.n_windows * W, dtype=np.int32)
            for t in present_terms:
                idx, _ = self._contrib_cached(part_idx, *part.term_slices[t])
                nseen[idx] += 1
            cand = np.flatnonzero(nseen >= need)
            if not len(cand):
                continue
            excl_abs = self._excluded_abs(part_idx, part, exclude_terms)
            docs_abs, _ = top.keep(
                part.win_base * W + cand, np.empty(len(cand)), excl_abs
            )
            total += len(docs_abs)
        return total

    def _excluded_abs(self, part_idx: int, part: _PartIndex, exclude_terms):
        """Sorted absolute doc_nums in this part containing ANY excluded
        term (boolean NOT support), None when there is none — decoded
        through the shared contribution cache, so repeated NOT queries pay
        nothing."""
        arrs = []
        for t in exclude_terms or ():
            se = part.term_slices.get(t)
            if se:
                idx, _ = self._contrib_cached(part_idx, *se)
                arrs.append(idx)
        if not arrs:
            return None
        u = np.unique(np.concatenate(arrs)) if len(arrs) > 1 else arrs[0]
        return u + part.win_base * self.window_docs

    def _window_bounds(self, part, hits, want_max: bool = False):
        """Per unique window of ``hits`` = [(w, s, e), …]: sound upper
        bounds for (a) the OR-SUM of weighted contributions (``ub_sum`` —
        the WAND bound, signed-idf rules: positive terms add
        w·hi·max_tfnorm; a NEGATIVE term adds w·lo·min_tfnorm only when its
        block is SATURATED, because an unsaturated negative term's largest
        per-doc contribution is 0 — see the soundness comment in query())
        and (b), when ``want_max``, the single largest weighted
        contribution of any PRESENT term (``ub_max`` — the DisMax clause
        bound: per term the best a doc HAVING it can get, w·hi·max_tfnorm
        for w>0 / w·lo·min_tfnorm for w<0 regardless of saturation; every
        candidate doc has ≥1 present term, so max over the window's term
        bounds dominates max over any doc's present terms)."""
        all_wins = np.concatenate([part.win[s:e] for _, s, e in hits])
        uniq_wins, inv = np.unique(all_wins, return_inverse=True)
        ub = np.zeros(len(uniq_wins), dtype=np.float64)
        ubm = np.full(len(uniq_wins), NEG_INF, dtype=np.float64) if want_max else None
        pos = 0
        for w, s, e in hits:
            m = e - s
            # within one term's hit, part.win[s:e] is sorted-unique, so the
            # inv slice is unique → gather/compare/scatter replaces the
            # ~10x slower unbuffered ufunc.at (same fix as the dense path)
            iv = inv[pos : pos + m]
            if w > 0:
                hi = (w * part.bscale_hi) * part.max_tfnorm[s:e]
                ub[iv] += hi
                if want_max:
                    ubm[iv] = np.maximum(ubm[iv], hi)
            elif w < 0:
                best_neg = (w * part.bscale_lo) * part.min_tfnorm[s:e]
                if want_max:
                    ubm[iv] = np.maximum(ubm[iv], best_neg)
                if len(part.window_doc_counts):
                    widx = part.win[s:e] - part.wdc_base
                    clipped = np.clip(widx, 0, len(part.window_doc_counts) - 1)
                    counts = np.where(
                        (widx >= 0) & (widx < len(part.window_doc_counts)),
                        part.window_doc_counts[clipped],
                        -1,
                    )
                    sat = part.n[s:e] == counts
                    if sat.any():
                        ub[iv] += np.where(sat, best_neg, 0.0)
            elif want_max:
                # w == 0 (idf crosses zero exactly at df == N/2): the
                # term's contribution is exactly 0 — ub_sum adds nothing,
                # but ub_max must see 0.0 or a window covered only by this
                # term keeps −inf and gets pruned unsoundly (and tb·(−inf)
                # at tb=1 is NaN)
                ubm[iv] = np.maximum(ubm[iv], 0.0)
            pos += m
        return uniq_wins, ub, ubm

    def query(
        self, term_weights: Dict[str, float], k: int,
        exclude_terms: "Sequence[str]" = (), scope=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-k over this shard's docs.  ``term_weights`` maps term →
        idf × multiplicity.  Returns (doc_nums, scores) sorted by
        (score DESC, doc ASC), at most k rows.  ``exclude_terms`` applies
        boolean NOT: docs containing any of them never rank.  ``scope``
        restricts the CANDIDATE set to the doc_num interval [lo, hi) —
        scores still use full-corpus statistics (M14 WHERE-on-results
        semantics); disjoint parts and windows are skipped outright."""
        W = self.window_docs
        top = _TopK(k, scope)
        for part_idx, part in self._walk(top):
            hits = self._hits(part, term_weights)
            if not hits:
                continue
            excl_abs = self._excluded_abs(part_idx, part, exclude_terms)
            # WIDE-OR shape (prefix expansions, massive query vocabularies):
            # with many terms, per-window bound bookkeeping and the MaxScore
            # candidate-shedding loops cost more than the thing they avoid —
            # one dense accumulate over the part (work = Σ df_in_part, one
            # fused multiply-add per term through the contribution cache)
            # is exact and asymptotically right.  Measured at 50M docs on a
            # 4,096-term prefix expansion: 18.1 s → dense path (see
            # BASELINE).  Same float summation order as the other dense
            # paths (per-term accumulate), so scores are identical.
            if len(hits) >= WIDE_OR_TERMS:
                self.counters["wide_or_parts"] += 1
                idxs, sc = self._or_fold(
                    part.n_windows * W, self._part_contribs(part_idx, hits)
                )
                top.push(part.win_base * W + idxs, sc, excl_abs)
                continue
            # sparse per-window upper bound (block-max), only over windows
            # where at least one query term has a block.  SOUNDNESS under
            # negative IDF: a window may contain docs that LACK a term
            # (contribution 0), so a negative-weight term's largest possible
            # per-doc contribution is 0 — UNLESS the block is SATURATED
            # (posting count == docs present in the window): then every doc
            # pays the term and the largest contribution is w·min_tfnorm
            # (w<0, tfnorm ≥ min_tfnorm ⇒ w·tfnorm ≤ w·min_tfnorm < 0),
            # tightening the bound for hot-particle terms.  Unconditional
            # w·min_tfnorm would under-state the bound and prune true top-k
            # docs that lack the hot term — regression-tested in
            # test_negative_idf_pruning_soundness.
            # adaptive execution: when pruning cannot drop most windows
            # (common terms / unfilled heap), run the vectorized MaxScore
            # pass over the whole part (essential/non-essential term split
            # against θ — see _maxscore_part); else walk windows in
            # descending-bound order with block-max pruning.  An unfilled
            # heap prunes nothing, so the bounds are computed only once the
            # heap holds k docs.
            maxscore = not top.full
            if top.full:
                uniq_wins, ub, _ = self._window_bounds(part, hits)
                maxscore = int((ub >= top.theta).sum()) * 2 > len(uniq_wins)
            if maxscore:
                self.counters["maxscore_parts"] += 1
                res = self._maxscore_part(part_idx, part, hits, top.theta)
                if res is not None:
                    top.push(*res, excl_abs)
                continue
            order = np.argsort(-ub, kind="stable")
            for n_done, oi in enumerate(order):
                if ub[oi] < top.theta:
                    self.counters["windows_pruned"] += len(order) - n_done
                    break  # strict <: equal-bound windows still processed
                win_abs = int(uniq_wins[oi])
                if top.outside(win_abs * W, (win_abs + 1) * W):
                    continue  # window disjoint from the scope interval
                self.counters["windows_scanned"] += 1
                idx, sc = self._or_fold(
                    W, self._window_contribs(part, hits, win_abs)
                )
                top.push(win_abs * W + idx, sc, excl_abs)
        return top.docs, top.scores

    def query_all(
        self, term_weights: Dict[str, float], k: int,
        exclude_terms: "Sequence[str]" = (), scope=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Conjunctive (AND) top-k: only docs containing EVERY term in
        ``term_weights`` rank, scored with the ordinary BM25 sum.

        Boolean AND is the classic intersection fast path: a part missing
        any term is skipped outright, and the aligned-window layout gives
        window-granular intersection for free — only windows where ALL
        terms have a posting block can hold a qualifying doc, so the scan
        set is ∩(term window lists) (np.intersect1d over sorted block-row
        windows), usually a tiny fraction of any single term's blocks.
        Within a surviving window, a per-doc presence count == n_terms
        filters exactly.  AND prunes harder than any WAND bound, so no
        block-max machinery is needed on this path."""
        W = self.window_docs
        nt = len(term_weights)
        top = _TopK(k, scope)
        for part_idx, part in self._walk(top):
            hits = self._hits(part, term_weights)
            if not hits or len(hits) < nt:
                continue  # some term absent from this part → no AND match
            excl_abs = self._excluded_abs(part_idx, part, exclude_terms)
            # a term's rows hold one block per window, in window order
            wins = _intersect_all(part.win[s:e] for _, s, e in hits)
            if not len(wins):
                continue
            # adaptive execution, mirroring query(): when the intersection
            # covers most of the rarest term's windows (common-term ANDs),
            # per-window decode loses to one vectorized whole-range pass
            # through the contribution cache + a presence-count filter
            rarest = min(e - s for _, s, e in hits)
            if len(wins) * 2 > rarest:
                # rarest-driven intersection: candidates are the RAREST
                # term's postings; every other term contributes through its
                # cached dense tfnorm array (one gather per candidate —
                # tfnorm > 0 for any real posting, so nonzero IS presence).
                # Work per query is O(rarest df), not O(Σ df): with a
                # 64%-df head term ANDed against a 5% term at 100M docs the
                # old whole-part scatter paid the head term's 64M postings
                # every query (measured 350 ms warm p50); this pays the 5%
                # term's.  Scores are bit-identical (same per-doc addition
                # order as the scatter).
                span = part.n_windows * W
                order = sorted(
                    hits, key=lambda h: part.row_starts[h[2]] - part.row_starts[h[1]]
                )
                w0, s0, e0 = order[0]
                idx0, tfnorm0 = self._contrib_cached(part_idx, s0, e0)
                scores = w0 * tfnorm0
                ok = np.ones(len(idx0), dtype=bool)
                for w, s, e in order[1:]:
                    dense = self._dense_contrib_cached(part_idx, s, e, span)
                    v = dense[idx0]
                    ok &= v != 0.0
                    scores = scores + w * v
                top.push(part.win_base * W + idx0[ok], scores[ok], excl_abs)
                continue
            for win_abs in wins.tolist():
                base = int(win_abs) * W
                if top.outside(base, base + W):
                    continue
                acc = np.zeros(W, dtype=np.float64)
                cnt = np.zeros(W, dtype=np.int64)
                for local, c in self._window_contribs(part, hits, win_abs):
                    acc[local] += c
                    cnt[local] += 1
                idx = np.flatnonzero(cnt == nt)
                top.push(base + idx, acc[idx], excl_abs)
        return top.docs, top.scores

    def query_bool(
        self, tree, term_weights: Dict[str, float], k: int, scope=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Boolean-expression top-k (Lucene BooleanQuery): ``tree`` is a
        nested-list AST (["and"|"or", x, ...] / ["not", x] / term string)
        evaluated per document over term PRESENCE; candidates are the union
        of the POSITIVE terms' postings (a doc matching only negated
        clauses never ranks — the Lucene convention), and the score is the
        signed-idf BM25 sum over the distinct positive terms present
        (``term_weights``; negated-only leaves carry no weight).

        Execution is the dense-array shape shared with the rarest-AND and
        wide-OR paths: per part, candidates gather one cached contribution
        slice per positive term (union), every leaf's presence is one
        gather from its cached dense tfnorm array (tfnorm > 0 ⇔ present),
        the AST evaluates vectorized over the candidate vector, and scores
        accumulate in sorted-term order.  Work per part is O(Σ positive
        df + |leaves|·|candidates|) — no per-doc Python, no block-max
        machinery (presence filtering prunes harder than any bound)."""
        from oboyu_ray.functions.querylang import bool_leaves

        W = self.window_docs
        pos_terms, all_terms = bool_leaves(tree)
        pos_sorted = sorted(pos_terms)
        top = _TopK(k, scope)
        for part_idx, part in self._walk(top):
            pos_in = [t for t in pos_sorted if t in part.term_slices]
            if not pos_in:
                continue
            span = part.n_windows * W
            cand_list = [
                self._contrib_cached(part_idx, *part.term_slices[t])[0]
                for t in pos_in
            ]
            cand = (
                cand_list[0]
                if len(cand_list) == 1
                else np.unique(np.concatenate(cand_list))
            )
            dense = {
                t: self._dense_contrib_cached(
                    part_idx, *part.term_slices[t], span
                )
                for t in all_terms
                if t in part.term_slices
            }
            zeros = None

            def ev(node):
                nonlocal zeros
                if isinstance(node, str):
                    d = dense.get(node)
                    if d is None:
                        if zeros is None:
                            zeros = np.zeros(len(cand), dtype=bool)
                        return zeros
                    return d[cand] != 0.0
                op = node[0]
                if op == "not":
                    return ~ev(node[1])
                m = ev(node[1])
                for sub in node[2:]:
                    m = (m & ev(sub)) if op == "and" else (m | ev(sub))
                return m

            sel = cand[ev(tree)]
            scores = np.zeros(len(sel), dtype=np.float64)
            for t in pos_in:
                scores += term_weights[t] * dense[t][sel]
            top.push(part.win_base * W + sel, scores)
        return top.docs, top.scores

    def _range_cached(self, part_idx: int, part: _PartIndex,
                      ti0: int, ti1: int):
        """FIFO-cached whole-range decode for unique-term interval
        [ti0, ti1) of a part: (part-local doc index, tfnorm, per-posting
        unique-term index RELATIVE to ti0).  Weight application stays
        per-query (one gather + multiply), so the same cached range serves
        any weighting of its terms.  Accounted ~1.5× a sparse term entry
        (the extra int32 per posting)."""
        key = (part_idx, int(ti0), int(ti1), -3)
        hit = self._cache.get(key)
        if hit is not None:
            self.counters["cache_hits"] += 1
            return hit[0]
        self.counters["cache_misses"] += 1
        S = int(part.uniq_starts[ti0])
        E = int(part.uniq_starts[ti1])
        docs_abs, tf, dl = part.decode_range(S, E)
        self.counters["postings_decoded"] += len(docs_abs)
        idx = docs_abs - part.win_base * self.window_docs
        tfnorm = self._tfnorm(tf, dl)
        rows_per_uniq = np.diff(part.uniq_starts[ti0:ti1 + 1])
        row_uniq = np.repeat(
            np.arange(ti1 - ti0, dtype=np.int32), rows_per_uniq
        )
        uniq_ix = np.repeat(row_uniq, part.n[S:E])
        out = (idx, tfnorm, uniq_ix)
        self._cache_put(key, out, len(idx) + len(idx) // 2)
        return out

    def query_term_range(
        self, lo: str, hi: str, term_weights: Dict[str, float], k: int,
        exclude_terms: "Sequence[str]" = (), scope=None, weights_key=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-k OR query over EVERY indexed term in the string range
        [lo, hi) — the PrefixQuery fast path.  The blocks table is
        (term, win)-sorted, so the range is a CONTIGUOUS block-row interval
        per part: two bisects over the part's unique-term list, ONE
        vectorized decode of the interval, one bincount accumulate —
        per-query work is O(postings in range), with no per-term Python.

        ``term_weights`` must cover every vocabulary term in the range (the
        driver's df_prefix expansion does); scoring is identical to
        query()'s wide-OR dense path — per-doc BM25 sums over matched
        terms, a zero-weight matched term still marks presence.  Lucene's
        PrefixQuery→BooleanQuery rewrite collapsed to the term-sorted
        layout (SURVEY §8)."""
        import bisect

        W = self.window_docs
        top = _TopK(k, scope)
        for part_idx, part in self._walk(top):
            ti0 = bisect.bisect_left(part.uniq_terms, lo)
            ti1 = bisect.bisect_left(part.uniq_terms, hi)
            if ti0 >= ti1:
                continue
            self.counters["range_parts"] += 1
            excl_abs = self._excluded_abs(part_idx, part, exclude_terms)
            idx, tfnorm, uniq_ix = self._range_cached(part_idx, part, ti0, ti1)
            # the weight vector for a range is a pure function of the index's
            # global stats, so the engine passes the prefix as weights_key
            # and repeated queries skip the per-term dict walk; callers
            # supplying CUSTOM weights must pass weights_key=None (no cache)
            wk = (part_idx, ti0, ti1, weights_key)
            w_uniq = (
                self._wuniq_cache.get(wk) if weights_key is not None else None
            )
            if w_uniq is None:
                w_uniq = np.fromiter(
                    (term_weights[t] for t in part.uniq_terms[ti0:ti1]),
                    dtype=np.float64, count=ti1 - ti0,
                )
                if weights_key is not None:
                    while len(self._wuniq_cache) >= 4096:
                        self._wuniq_cache.pop(next(iter(self._wuniq_cache)))
                    self._wuniq_cache[wk] = w_uniq
            contrib = w_uniq[uniq_ix] * tfnorm
            span = part.n_windows * W
            acc = np.bincount(idx, weights=contrib, minlength=span)
            cnt = np.bincount(idx, minlength=span)
            idxs = np.flatnonzero(cnt)
            top.push(part.win_base * W + idxs, acc[idxs], excl_abs)
        return top.docs, top.scores

    def _positions_cached(self, part_idx: int, s: int, e: int):
        """FIFO-cached (docidx-repeated-per-occurrence, positions) for a
        term's full block range — the phrase dense path's working set.
        Budget-accounted per occurrence in the shared decode cache."""
        key = (part_idx, s, e, -2)
        hit = self._cache.get(key)
        if hit is not None:
            return hit[0]
        part = self.parts[part_idx]
        docs_abs, tf, _ = part.decode_range(s, e)
        pos = part.decode_positions(s, e, tf)
        idx_rep = np.repeat(
            docs_abs - part.win_base * self.window_docs, tf.astype(np.int64)
        )
        out = (idx_rep, pos)
        self._cache_put(key, out, len(pos))
        return out

    def query_phrase(
        self, phrase_terms: List[str], term_weights: Dict[str, float], k: int,
        force: str | None = None, scope=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact phrase top-k: docs whose positional postings contain
        ``phrase_terms`` adjacently in order, scored with the ordinary BM25
        sum over the phrase's distinct terms (reference position semantics —
        positions are indices in the filtered token stream).

        The scan set is the conjunctive window intersection (a phrase match
        implies an AND match, so every query_all pruning argument applies
        unchanged); within a window, adjacency is ONE vectorized
        intersection chain over packed (local doc, position − offset) keys:
        a surviving key is a phrase start.  No per-candidate Python loop.

        Requires an index built with ``store_positions=True`` (raises
        otherwise — detected per part from the block schema).
        """
        W = self.window_docs
        PK = _PHRASE_PK
        distinct = list(dict.fromkeys(phrase_terms))
        top = _TopK(k, scope)
        for part_idx, part in self._walk(top, positions="phrase"):
            if any(t not in part.term_slices for t in distinct):
                continue  # some term absent from this part → no match here
            slices = [part.term_slices[t] for t in phrase_terms]
            wins = _intersect_all(part.win[s:e] for s, e in slices)
            if not len(wins):
                continue
            # adaptive execution, mirroring query_all: when the intersection
            # covers most of the rarest term's windows (common-term phrases),
            # the per-window decode loop loses to ONE whole-range packed
            # intersection through the positions cache
            rarest = min(e - s for s, e in slices)
            dense = len(wins) * 2 > rarest if force is None else force == "dense"
            if dense:
                # intersect ascending-by-size: the packed keys already carry
                # the phrase offset, so the chain is commutative — starting
                # from the rarest term keeps `cur` (and every merge) small
                # even when the phrase contains a head term
                j_order = sorted(
                    range(len(slices)),
                    key=lambda j: (
                        part.row_starts[slices[j][1]]
                        - part.row_starts[slices[j][0]]
                    ),
                )

                def keys(j):  # slot j's occurrences, shifted to phrase starts
                    idx_rep, pos = self._positions_cached(part_idx, *slices[j])
                    return idx_rep * PK + (pos - j)

                cur = _intersect_all(keys(j) for j in j_order)
                if len(cur):
                    top.push(*self._score_hits(
                        part_idx, part, distinct, term_weights,
                        np.unique(cur // PK),
                    ))
                continue
            for win_abs in wins.tolist():
                base = int(win_abs) * W
                if top.outside(base, base + W):
                    continue
                data, keys0 = {}, {}
                for t in distinct:  # decode each distinct term's block ONCE
                    bi = self._block_row(part, *part.term_slices[t], win_abs)
                    docs_abs, tf, dl = part.decode_range(bi, bi + 1)
                    pos = part.decode_positions(bi, bi + 1, tf)
                    data[t] = (docs_abs - base, tf, dl)
                    keys0[t] = np.repeat(data[t][0], tf.astype(np.int64)) * PK + pos
                cur = _intersect_all(
                    keys0[t] - j for j, t in enumerate(phrase_terms)
                )
                if not len(cur):
                    continue
                hit_local = np.unique(cur // PK)
                scores = np.zeros(len(hit_local), dtype=np.float64)
                for t in distinct:
                    local, tf, dl = data[t]
                    ii = np.searchsorted(local, hit_local)
                    scores += term_weights[t] * self._tfnorm(tf[ii], dl[ii])
                top.push(base + hit_local, scores)
        return top.docs, top.scores

    def query_span_near(
        self, phrase_terms: List[str], window: int,
        term_weights: Dict[str, float], k: int, scope=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ordered span top-k (Lucene SpanNearQuery, inOrder=true): docs
        whose positional postings contain ``phrase_terms`` in order at
        positions spanning at most ``window`` (p_last − p_first), scored
        like query_phrase (BM25 over the distinct terms, full statistics).

        The conjunctive window intersection (an ordered span match implies
        an AND match) is only an early exit: a part where the terms share
        no window is skipped.  Otherwise matching scans every position of
        the terms in the part, not just the intersected windows — the
        shared greedy latest-predecessor kernel over the whole-part
        positions cache, one searchsorted per phrase slot, no
        per-candidate Python.
        Requires an index built with ``store_positions=True``."""
        from oboyu_ray.functions.spanmatch import SPAN_PK, ordered_span_docs

        if int(window) < len(phrase_terms) - 1:
            k = 0  # no ordered span of m terms fits in fewer than m − 1
        distinct = list(dict.fromkeys(phrase_terms))
        top = _TopK(k, scope)
        for part_idx, part in self._walk(top, positions="span"):
            if any(t not in part.term_slices for t in distinct):
                continue
            slices = [part.term_slices[t] for t in distinct]
            if not len(_intersect_all(part.win[s:e] for s, e in slices)):
                continue
            keys_by_term: Dict[str, np.ndarray] = {}
            for t, (s, e) in zip(distinct, slices):
                idx_rep, pos = self._positions_cached(part_idx, s, e)
                keys_by_term[t] = idx_rep * SPAN_PK + pos
            hit_idx = ordered_span_docs(
                [keys_by_term[t] for t in phrase_terms], int(window), SPAN_PK
            )
            if len(hit_idx):
                top.push(*self._score_hits(
                    part_idx, part, distinct, term_weights, hit_idx
                ))
        return top.docs, top.scores

    def query_near(
        self, term_a: str, term_b: str, window: int,
        term_weights: Dict[str, float], k: int, scope=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Proximity (NEAR) top-k: docs where ``term_a`` and ``term_b``
        occur within ``window`` tokens of each other (any order), scored by
        BM25 over both terms.  Runs the dense positions path unconditionally
        — both occurrence streams pack into sorted (doc, position) keys per
        part and the distance test is two vectorized searchsorted sweeps
        through the positions cache (cross-doc ranges disjoint because
        position < 2^40).  Requires a positional index."""
        top = _TopK(k, scope)
        for part_idx, part in self._walk(top, positions="NEAR"):
            sa = part.term_slices.get(term_a)
            sb = part.term_slices.get(term_b)
            if sa is None or sb is None:
                continue
            # sweep from the RARER side: |pos_a − pos_b| ≤ w is symmetric,
            # so candidates can come from either term — |A| searchsorteds
            # into the bigger B beats the reverse when one side is a head
            # term
            if term_a != term_b:
                na = part.row_starts[sa[1]] - part.row_starts[sa[0]]
                nb = part.row_starts[sb[1]] - part.row_starts[sb[0]]
                if nb < na:
                    sa, sb = sb, sa
            ia, pa_ = self._positions_cached(part_idx, *sa)
            A = ia * _PHRASE_PK + pa_
            if term_a == term_b:
                lo = np.searchsorted(A, A - window)
                hi = np.searchsorted(A, A + window + 1)
                hit = (hi - lo) > 1  # a second occurrence besides itself
            else:
                ib, pb_ = self._positions_cached(part_idx, *sb)
                B = ib * _PHRASE_PK + pb_
                lo = np.searchsorted(B, A - window)
                hi = np.searchsorted(B, A + window + 1)
                hit = hi > lo
            if hit.any():
                top.push(*self._score_hits(
                    part_idx, part, dict.fromkeys((term_a, term_b)),
                    term_weights, np.unique(ia[hit]),
                ))
        return top.docs, top.scores

    def _maxscore_part(
        self,
        part_idx: int,
        part: _PartIndex,
        hits: List[Tuple[float, int, int]],
        theta: float,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Exact MaxScore scan of one whole part (the ≥2-common-term shape
        where window pruning is toothless: every window's bound clears θ).

        Term-at-a-time, vectorized, document-partition-local:

        1. Per-term part-level upper bound ub_t = w·max(block max_tfnorm)
           for w > 0, else 0 (a doc lacking a negative-idf term contributes
           0 — same soundness argument as the window bounds above).
        2. Terms sorted by ub ascending; the longest prefix whose summed
           bound is STRICTLY below θ is non-essential: a doc appearing
           only in those lists scores < θ and cannot even tie (tie-breaks
           go to (score DESC, doc ASC), but a strictly-lower score never
           wins).  Common terms have low idf, hence low ub — exactly the
           lists this split excludes from candidate generation.
        3. Candidates = union of the essential (high-idf, short) lists;
           their essential partial scores come from the contribution cache.
        4. Candidates that cannot reach θ even with every non-essential
           bound (partial + P < θ, P = summed non-essential ub) are dropped
           BEFORE the non-essential lookups; survivors get exact
           contributions via vectorized searchsorted into each
           non-essential term's cached (sorted, unique) doc array.

        Equality with brute force is pinned in
        test_maxscore_matches_brute_force (incl. negative-idf terms).
        Returns None when the whole part is pruned (Σub < θ)."""
        ubs = np.array(
            [
                (w * part.bscale_hi) * float(part.max_tfnorm[s:e].max())
                if w > 0 else 0.0
                for w, s, e in hits
            ]
        )
        order = np.argsort(ubs, kind="stable")  # ascending bound
        prefix = np.cumsum(ubs[order])
        if theta > NEG_INF and prefix[-1] < theta:
            return None  # no doc in this part can reach θ
        jstar = (
            int(np.searchsorted(prefix, theta, side="left"))
            if theta > NEG_INF
            else 0
        )
        if jstar >= len(hits):  # Σub == θ exactly: ties still possible
            jstar = len(hits) - 1
        ess = [hits[order[i]] for i in range(jstar, len(hits))]
        noness = [hits[order[i]] for i in range(jstar)]
        P = float(prefix[jstar - 1]) if jstar > 0 else 0.0
        W = self.window_docs
        base = part.win_base * W
        span = part.n_windows * W

        if len(ess) == 1:
            w, s, e = ess[0]
            idx, tfnorm = self._contrib_cached(part_idx, s, e)
            cand = idx
            sc = w * tfnorm
        else:
            # dense scatter over the part span beats a sparse union here:
            # an O(span) zero/scan costs less than sorting the concatenated
            # essential lists (measured: sparse-union sort ≈ 2× the scatter)
            cand, sc = self._or_fold(span, self._part_contribs(part_idx, ess))
        if noness:
            sc = np.asarray(sc, dtype=np.float64).copy()
            # pair each non-essential term with its part-level bound;
            # process highest-bound first so the remaining-bound re-filter
            # after each term sheds candidates fastest
            noness_ub = sorted(
                ((hits[order[i]], float(ubs[order[i]])) for i in range(jstar)),
                key=lambda p: -p[1],
            )
            rem = P
            for (w, s, e), ub_t in noness_ub:
                if theta > NEG_INF and len(cand):
                    # drop candidates that cannot reach θ even if every
                    # remaining term contributes its full bound (≥ keeps
                    # exact-tie docs alive for the doc-id tie-break)
                    keep = sc + rem >= theta
                    cand = cand[keep]
                    sc = sc[keep]
                if len(cand) == 0:
                    break
                n_post = int(part.row_starts[e] - part.row_starts[s])
                if n_post * 8 > span:
                    # long list → dense O(1) gather beats binary search
                    # (zeros where the term is absent contribute 0: exact)
                    dense = self._dense_contrib_cached(part_idx, s, e, span)
                    sc += w * dense[cand]
                elif n_post:
                    idx, tfnorm = self._contrib_cached(part_idx, s, e)
                    pos = np.searchsorted(idx, cand)
                    pos_c = np.minimum(pos, len(idx) - 1)
                    match = (pos < len(idx)) & (idx[pos_c] == cand)
                    sc[match] += w * tfnorm[pos_c[match]]
                rem -= ub_t
        return base + cand, sc

    def _tfnorm(self, tf: np.ndarray, dl: np.ndarray) -> np.ndarray:
        k1, b = self.k1, self.b
        return (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * (dl / self.avgdl)))

    def explain(
        self, term_weights: Dict[str, float], doc_abs: int
    ) -> List[Tuple[str, int, int, float, float]]:
        """Per-term score breakdown for ONE document (the Lucene `explain`
        shape): (term, tf, dl, weight, contribution) for every query term
        present in the doc.  Empty when this shard doesn't own the doc.
        Decodes exactly one window block per matching term — point reads,
        no scan.  Adjacent parts can share the doc's window, so every part
        covering it is asked; only the owning part holds its postings."""
        W = self.window_docs
        doc_abs = int(doc_abs)
        win = doc_abs // W
        out: List[Tuple[str, int, int, float, float]] = []
        for part in self.parts:
            lo = part.win_base * W
            hi = lo + part.n_windows * W
            if not (lo <= doc_abs < hi):
                continue
            for t, w in term_weights.items():
                se = part.term_slices.get(t)
                bi = self._block_row(part, *se, win) if se else -1
                if bi < 0:
                    continue
                docs, tf, dl = part.decode_range(bi, bi + 1)
                j = int(np.searchsorted(docs, doc_abs))
                if j < len(docs) and docs[j] == doc_abs:
                    tfn = float(self._tfnorm(tf[j : j + 1], dl[j : j + 1])[0])
                    out.append(
                        (t, int(tf[j]), int(dl[j]), float(w), float(w) * tfn)
                    )
        return out

    def batch(self, method: str, calls, **kw):
        """Batched calls — one actor round-trip for N calls of ONE query or
        count method (amortizes the per-call RPC + serialization overhead
        for throughput serving): ``method(*args, **kw)`` for each ``args``
        in ``calls``, with ``kw`` shared by the whole batch (the serving
        shape: one k, tenant and conversation range per batch).
        Consecutive calls share the decode/positions caches, so a batch
        touching the same hot terms decodes them once."""
        run = getattr(self, method)
        return [run(*args, **kw) for args in calls]

    def configure(self, k1: float, b: float, avgdl: float,
                  build_avgdl: Optional[float] = None) -> None:
        """``build_avgdl``: the avgdl the on-disk block-max bounds were
        computed with, for the parts that carry none of their own (a part of
        a multi-index engine carries its member's).  When the QUERY avgdl
        differs from a part's (a multi-index engine's summed statistics),
        that part's stored per-block tfnorm bounds rescale by a provably
        sound factor: for r = avgdl/build_avgdl,
        tfnorm(avgdl)/tfnorm(build_avgdl) ∈ [min(1, r), max(1, r)] for every
        (tf, dl) — the denominator D = tf + k1(1−b) + k1·b·dl/avg changes by
        at most the factor r in either direction — so stored max bounds ×
        max(1, r) stay upper bounds and stored min bounds × min(1, r) stay
        lower bounds.  Exact contributions are unaffected (tfnorm is always
        recomputed from decoded (tf, dl) with the configured avgdl)."""
        self.k1 = k1
        self.b = b
        self.avgdl = avgdl
        for part in self.parts:
            base = part.build_avgdl or build_avgdl
            r = (avgdl / base) if base else 1.0
            part.bscale_hi, part.bscale_lo = max(1.0, r), min(1.0, r)
        self._cache.clear()
        self._cache_postings = 0
        # weights can change with the engine's global stats — a
        # reconfigured actor must not serve stale range weight vectors
        self._wuniq_cache.clear()

    def ping(self) -> bool:
        return True
