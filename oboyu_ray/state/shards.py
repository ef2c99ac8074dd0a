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
                 "uniq_terms", "uniq_starts")

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

    def __init__(self, index_dir: str, part_id: int, window_docs: int) -> None:
        blocks_path = os.path.join(index_dir, "blocks", f"blocks-{part_id:05d}.parquet")
        cols = ["term", "win", "n", "docs", "tfs", "max_tfnorm", "min_tfnorm"]
        self.has_positions = "pos" in pq.read_schema(blocks_path).names
        if self.has_positions:
            cols.append("pos")
        t = pq.read_table(blocks_path, columns=cols)
        self.win = t.column("win").to_numpy().astype(np.int64)
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
        doc_nums = dt.column("doc_num").to_numpy().astype(np.int64)
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
                __import__("pyarrow").array(codes[starts])
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
        if not self.has_positions:
            raise ValueError(
                "index was built without store_positions; rebuild with "
                "BuildConfig(store_positions=True) to enable phrase queries"
            )
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

    def __init__(self, index_dir: str, part_ids: List[int], window_docs: int,
                 cache_postings: Optional[int] = None) -> None:
        # per-shard decode-cache budget override: deployments with few huge
        # shards (docs-per-shard ≫ the sandbox's ~3M) size this to keep a
        # working set of hot terms resident — ~16 B per posting
        if cache_postings is not None:
            self.DECODE_CACHE_POSTINGS = int(cache_postings)
        self.window_docs = window_docs
        self.parts: List[_PartIndex] = []
        for pid in part_ids:
            self.parts.append(_PartIndex(index_dir, pid, window_docs))
        # key (part, s, e) → ((idx, tfnorm), n_postings) sparse entries;
        # key (part, s, e, -1) → (dense tfnorm array, span/2) gather entries
        self._cache: Dict[Tuple, Tuple] = {}
        self._cache_postings = 0
        # (part, ti0, ti1, weights_key) → per-unique-term weight array for
        # the range path; tiny (≤ a few k floats per entry), FIFO-bounded
        self._wuniq_cache: Dict[Tuple, np.ndarray] = {}
        self._bscale_hi = 1.0  # block-bound rescale for avgdl overrides
        self._bscale_lo = 1.0  # (see configure); 1.0 = bounds used as stored
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
        top_docs = np.empty(0, dtype=np.int64)
        top_scores = np.empty(0, dtype=np.float64)
        if k <= 0 or not groups:
            return top_docs, top_scores
        if scope is not None:
            scope = (int(scope[0]), int(scope[1]))
            if scope[0] >= scope[1]:
                return top_docs, top_scores
        self.counters["queries"] += 1
        for part_idx, part in enumerate(self.parts):
            if self._part_outside_scope(part, scope):
                continue
            span = part.n_windows * W
            base = part.win_base * W
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
            if not len(cand):
                continue
            docs_abs, sc = self._drop_excluded(
                base + cand, acc[cand], None, scope
            )
            if len(docs_abs):
                top_docs, top_scores = _merge_topk(
                    top_docs, top_scores, docs_abs, sc, k
                )
        return top_docs, top_scores

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
        top_docs = np.empty(0, dtype=np.int64)
        top_scores = np.empty(0, dtype=np.float64)
        if k <= 0 or not term_weights:
            return top_docs, top_scores
        if scope is not None:
            scope = (int(scope[0]), int(scope[1]))
            if scope[0] >= scope[1]:
                return top_docs, top_scores
        tb = float(tiebreak)
        theta = NEG_INF
        self.counters["queries"] += 1
        for part_idx, part in enumerate(self.parts):
            if self._part_outside_scope(part, scope):
                continue
            hits = [
                (w, *part.term_slices[t])
                for t, w in term_weights.items()
                if t in part.term_slices
            ]
            if not hits:
                continue
            uniq_wins = ub_sum = ub_max = bound = None
            if force is not None:
                dense = force == "dense"
            elif len(hits) >= WIDE_OR_TERMS or not (0.0 <= tb <= 1.0):
                dense = True
            elif len(top_docs) < k:
                # an unfilled heap prunes nothing: one dense pass, with no
                # bounds to compute (mirrors query())
                dense = True
            else:
                # adaptive execution (mirrors query()): when the bound
                # cannot drop most windows — hot terms — the per-window
                # decode loop loses to one dense pass
                uniq_wins, ub_sum, ub_max = self._window_bounds(
                    part, hits, want_max=True
                )
                bound = (1.0 - tb) * ub_max + tb * ub_sum
                dense = int((bound >= theta).sum()) * 2 > len(uniq_wins)
            span = part.n_windows * W
            base = part.win_base * W
            if dense:
                sum_acc = np.zeros(span, dtype=np.float64)
                max_acc = np.full(span, -np.inf, dtype=np.float64)
                present = np.zeros(span, dtype=bool)
                for w, s, e in hits:
                    idx, tfnorm = self._contrib_cached(part_idx, s, e)
                    c = w * tfnorm
                    sum_acc[idx] += c
                    # idx is unique per term (one posting per doc), so the
                    # vectorized gather/compare/scatter replaces the ~10x
                    # slower unbuffered np.maximum.at
                    max_acc[idx] = np.maximum(max_acc[idx], c)
                    present[idx] = True
                cand = np.flatnonzero(present)
                if not len(cand):
                    continue
                m = max_acc[cand]
                sc = m + tb * (sum_acc[cand] - m)
                docs_abs, sc = self._drop_excluded(base + cand, sc, None, scope)
                if len(docs_abs):
                    top_docs, top_scores = _merge_topk(
                        top_docs, top_scores, docs_abs, sc, k
                    )
                    if len(top_docs) >= k:
                        theta = top_scores[-1]
                continue
            if bound is None:  # force="pruned" skipped the adaptive block
                uniq_wins, ub_sum, ub_max = self._window_bounds(
                    part, hits, want_max=True
                )
                bound = (1.0 - tb) * ub_max + tb * ub_sum
            order = np.argsort(-bound, kind="stable")
            for n_done, oi in enumerate(order):
                if len(top_docs) >= k and bound[oi] < theta:
                    self.counters["windows_pruned"] += len(order) - n_done
                    break
                win_abs = int(uniq_wins[oi])
                if scope is not None and (
                    (win_abs + 1) * W <= scope[0] or win_abs * W >= scope[1]
                ):
                    continue
                self.counters["windows_scanned"] += 1
                wbase = win_abs * W
                acc = np.zeros(W, dtype=np.float64)
                mx = np.full(W, -np.inf, dtype=np.float64)
                present = np.zeros(W, dtype=bool)
                for w, s, e in hits:
                    bi = s + int(np.searchsorted(part.win[s:e], win_abs))
                    if bi >= e or part.win[bi] != win_abs:
                        continue
                    docs_abs, tf, dl = part.decode_range(bi, bi + 1)
                    local = docs_abs - wbase
                    c = w * self._tfnorm(tf, dl)
                    acc[local] += c
                    mx[local] = np.maximum(mx[local], c)
                    present[local] = True
                idx = np.flatnonzero(present)
                if not len(idx):
                    continue
                m = mx[idx]
                sc = m + tb * (acc[idx] - m)
                docs_abs, sc = self._drop_excluded(wbase + idx, sc, None, scope)
                if not len(docs_abs):
                    continue
                top_docs, top_scores = _merge_topk(
                    top_docs, top_scores, docs_abs, sc, k
                )
                if len(top_docs) >= k:
                    theta = top_scores[-1]
        return top_docs, top_scores

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
        if not distinct:
            return 0
        if scope is not None:
            scope = (int(scope[0]), int(scope[1]))
            if scope[0] >= scope[1]:
                return 0
        self.counters["queries"] += 1
        total = 0
        for part_idx, part in enumerate(self.parts):
            if self._part_outside_scope(part, scope):
                continue
            present_terms = [t for t in distinct if t in part.term_slices]
            if not present_terms or (require_all and len(present_terms) < len(distinct)):
                continue
            span = part.n_windows * W
            base = part.win_base * W
            nseen = np.zeros(span, dtype=np.int32)
            for t in present_terms:
                idx, _ = self._contrib_cached(part_idx, *part.term_slices[t])
                nseen[idx] += 1
            cand = np.flatnonzero(
                nseen >= (len(distinct) if require_all else 1)
            )
            if not len(cand):
                continue
            excl_abs = self._excluded_abs(part_idx, part, exclude_terms or ())
            docs_abs, _ = self._drop_excluded(
                base + cand, np.empty(len(cand)), excl_abs, scope
            )
            total += len(docs_abs)
        return total

    def _excluded_abs(self, part_idx: int, part: _PartIndex, exclude_terms):
        """Sorted absolute doc_nums in this part containing ANY excluded
        term (boolean NOT support) — decoded through the shared contribution
        cache, so repeated NOT queries pay nothing."""
        arrs = []
        for t in exclude_terms:
            se = part.term_slices.get(t)
            if se:
                idx, _ = self._contrib_cached(part_idx, *se)
                arrs.append(idx)
        if not arrs:
            return None
        u = np.unique(np.concatenate(arrs)) if len(arrs) > 1 else arrs[0]
        return u + part.win_base * self.window_docs

    @staticmethod
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

    def _part_outside_scope(self, part, scope) -> bool:
        """True when a part's doc_num range cannot intersect the scope —
        scoped queries then touch only the parts (and windows) that overlap
        the interval, the structural speedup of contiguous doc numbering."""
        if scope is None:
            return False
        lo = part.win_base * self.window_docs
        hi = lo + part.n_windows * self.window_docs
        return hi <= scope[0] or lo >= scope[1]

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
                hi = (w * self._bscale_hi) * part.max_tfnorm[s:e]
                ub[iv] += hi
                if want_max:
                    ubm[iv] = np.maximum(ubm[iv], hi)
            elif w < 0:
                best_neg = (w * self._bscale_lo) * part.min_tfnorm[s:e]
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
        top_docs = np.empty(0, dtype=np.int64)
        top_scores = np.empty(0, dtype=np.float64)
        if k <= 0:
            return top_docs, top_scores
        if scope is not None:
            scope = (int(scope[0]), int(scope[1]))
            if scope[0] >= scope[1]:
                return top_docs, top_scores
        theta = NEG_INF
        self.counters["queries"] += 1

        for part_idx, part in enumerate(self.parts):
            if self._part_outside_scope(part, scope):
                continue
            hits = [
                (w, *part.term_slices[t])
                for t, w in term_weights.items()
                if t in part.term_slices
            ]
            if not hits:
                continue
            excl_abs = (
                self._excluded_abs(part_idx, part, exclude_terms)
                if exclude_terms else None
            )
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
                span = part.n_windows * W
                base = part.win_base * W
                acc = np.zeros(span, dtype=np.float64)
                present = np.zeros(span, dtype=bool)
                for w, s, e in hits:
                    idx, tfnorm = self._contrib_cached(part_idx, s, e)
                    acc[idx] += w * tfnorm
                    present[idx] = True
                idxs = np.flatnonzero(present)
                docs_abs, scores = self._drop_excluded(
                    base + idxs, acc[idxs], excl_abs, scope
                )
                if len(docs_abs):
                    top_docs, top_scores = _merge_topk(
                        top_docs, top_scores, docs_abs, scores, k
                    )
                    if len(top_docs) >= k:
                        theta = top_scores[-1]
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
            heap_full = len(top_docs) >= k
            if heap_full:
                uniq_wins, ub, _ = self._window_bounds(part, hits)
                maxscore = int((ub >= theta).sum()) * 2 > len(uniq_wins)
            if not heap_full or maxscore:
                self.counters["maxscore_parts"] += 1
                res = self._maxscore_part(
                    part_idx, part, hits, theta if heap_full else NEG_INF
                )
                if res is None:
                    continue
                docs_abs, scores = self._drop_excluded(*res, excl_abs, scope)
                if len(docs_abs) == 0:
                    continue
                top_docs, top_scores = _merge_topk(
                    top_docs, top_scores, docs_abs, scores, k
                )
                if len(top_docs) >= k:
                    theta = top_scores[-1]
                continue

            order = np.argsort(-ub, kind="stable")
            for n_done, oi in enumerate(order):
                bound = ub[oi]
                if len(top_docs) >= k and bound < theta:
                    self.counters["windows_pruned"] += len(order) - n_done
                    break  # strict <: equal-bound windows still processed
                win_abs = int(uniq_wins[oi])
                if scope is not None and (
                    (win_abs + 1) * W <= scope[0] or win_abs * W >= scope[1]
                ):
                    continue  # window disjoint from the scope interval
                self.counters["windows_scanned"] += 1
                acc = np.zeros(W, dtype=np.float64)
                present = np.zeros(W, dtype=bool)
                base = win_abs * W
                for w, s, e in hits:
                    # binary search this term's block row for the window
                    bi = s + int(np.searchsorted(part.win[s:e], win_abs))
                    if bi >= e or part.win[bi] != win_abs:
                        continue
                    docs_abs, tf, dl = part.decode_range(bi, bi + 1)
                    local = docs_abs - base
                    contrib = w * self._tfnorm(tf, dl)
                    acc[local] += contrib
                    present[local] = True
                idx = np.flatnonzero(present)
                if len(idx) == 0:
                    continue
                docs_abs, scores = self._drop_excluded(
                    base + idx, acc[idx], excl_abs, scope
                )
                if len(docs_abs) == 0:
                    continue
                top_docs, top_scores = _merge_topk(
                    top_docs, top_scores, docs_abs, scores, k
                )
                if len(top_docs) >= k:
                    theta = top_scores[-1]
        return top_docs, top_scores

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
        top_docs = np.empty(0, dtype=np.int64)
        top_scores = np.empty(0, dtype=np.float64)
        if k <= 0 or nt == 0:
            return top_docs, top_scores
        if scope is not None:
            scope = (int(scope[0]), int(scope[1]))
            if scope[0] >= scope[1]:
                return top_docs, top_scores
        for part_idx, part in enumerate(self.parts):
            if self._part_outside_scope(part, scope):
                continue
            hits = [
                (w, *part.term_slices[t])
                for t, w in term_weights.items()
                if t in part.term_slices
            ]
            if len(hits) < nt:
                continue  # some term absent from this part → no AND match
            excl_abs = (
                self._excluded_abs(part_idx, part, exclude_terms)
                if exclude_terms else None
            )
            wins = None
            for _, s, e in hits:
                tw = part.win[s:e]  # sorted, one block row per window
                wins = tw if wins is None else np.intersect1d(
                    wins, tw, assume_unique=True
                )
                if not len(wins):
                    break
            if wins is None or not len(wins):
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
                base = part.win_base * W
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
                if ok.any():
                    docs_abs, sc = self._drop_excluded(
                        base + idx0[ok], scores[ok], excl_abs, scope
                    )
                    if len(docs_abs):
                        top_docs, top_scores = _merge_topk(
                            top_docs, top_scores, docs_abs, sc, k
                        )
                continue
            for win_abs in wins.tolist():
                base = int(win_abs) * W
                if scope is not None and (
                    base + W <= scope[0] or base >= scope[1]
                ):
                    continue
                acc = np.zeros(W, dtype=np.float64)
                cnt = np.zeros(W, dtype=np.int64)
                for w, s, e in hits:
                    bi = s + int(np.searchsorted(part.win[s:e], win_abs))
                    docs_abs, tf, dl = part.decode_range(bi, bi + 1)
                    local = docs_abs - base
                    acc[local] += w * self._tfnorm(tf, dl)
                    cnt[local] += 1
                idx = np.flatnonzero(cnt == nt)
                if not len(idx):
                    continue
                docs_abs, scores = self._drop_excluded(
                    base + idx, acc[idx], excl_abs, scope
                )
                if not len(docs_abs):
                    continue
                top_docs, top_scores = _merge_topk(
                    top_docs, top_scores, docs_abs, scores, k
                )
        return top_docs, top_scores

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
        from oboyu_ray.pipelines.bm25_batch import bool_leaves

        W = self.window_docs
        top_docs = np.empty(0, dtype=np.int64)
        top_scores = np.empty(0, dtype=np.float64)
        pos_terms, all_terms = bool_leaves(tree)
        pos_sorted = sorted(pos_terms)
        if k <= 0 or not pos_sorted:
            return top_docs, top_scores
        if scope is not None:
            scope = (int(scope[0]), int(scope[1]))
            if scope[0] >= scope[1]:
                return top_docs, top_scores
        self.counters["queries"] += 1
        for part_idx, part in enumerate(self.parts):
            if self._part_outside_scope(part, scope):
                continue
            pos_in = [t for t in pos_sorted if t in part.term_slices]
            if not pos_in:
                continue
            span = part.n_windows * W
            base = part.win_base * W
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

            mask = ev(tree)
            if not mask.any():
                continue
            sel = cand[mask]
            scores = np.zeros(len(sel), dtype=np.float64)
            for t in pos_in:
                scores += term_weights[t] * dense[t][sel]
            docs_abs, sc = self._drop_excluded(base + sel, scores, None, scope)
            if len(docs_abs):
                top_docs, top_scores = _merge_topk(
                    top_docs, top_scores, docs_abs, sc, k
                )
        return top_docs, top_scores

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
        top_docs = np.empty(0, dtype=np.int64)
        top_scores = np.empty(0, dtype=np.float64)
        if k <= 0 or lo >= hi:
            return top_docs, top_scores
        if scope is not None:
            scope = (int(scope[0]), int(scope[1]))
            if scope[0] >= scope[1]:
                return top_docs, top_scores
        self.counters["queries"] += 1
        for part_idx, part in enumerate(self.parts):
            if self._part_outside_scope(part, scope):
                continue
            ti0 = bisect.bisect_left(part.uniq_terms, lo)
            ti1 = bisect.bisect_left(part.uniq_terms, hi)
            if ti0 >= ti1:
                continue
            self.counters["range_parts"] += 1
            excl_abs = (
                self._excluded_abs(part_idx, part, exclude_terms)
                if exclude_terms else None
            )
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
            base = part.win_base * W
            acc = np.bincount(idx, weights=contrib, minlength=span)
            cnt = np.bincount(idx, minlength=span)
            idxs = np.flatnonzero(cnt)
            docs_abs, scores = self._drop_excluded(
                base + idxs, acc[idxs], excl_abs, scope
            )
            if len(docs_abs):
                top_docs, top_scores = _merge_topk(
                    top_docs, top_scores, docs_abs, scores, k
                )
        return top_docs, top_scores

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
        top_docs = np.empty(0, dtype=np.int64)
        top_scores = np.empty(0, dtype=np.float64)
        m = len(phrase_terms)
        if k <= 0 or m == 0:
            return top_docs, top_scores
        if scope is not None:
            scope = (int(scope[0]), int(scope[1]))
            if scope[0] >= scope[1]:
                return top_docs, top_scores
        distinct = list(dict.fromkeys(phrase_terms))
        nt = len(distinct)
        PK = _PHRASE_PK
        for part_idx, part in enumerate(self.parts):
            if self._part_outside_scope(part, scope):
                continue
            if not part.has_positions:
                raise ValueError(
                    "index was built without store_positions; rebuild with "
                    "BuildConfig(store_positions=True) to enable phrase queries"
                )
            if any(t not in part.term_slices for t in distinct):
                continue  # some term absent from this part → no match here
            wins = None
            for t in distinct:
                s, e = part.term_slices[t]
                tw = part.win[s:e]  # sorted, one block row per window
                wins = tw if wins is None else np.intersect1d(
                    wins, tw, assume_unique=True
                )
                if not len(wins):
                    break
            if wins is None or not len(wins):
                continue
            # adaptive execution, mirroring query_all: when the intersection
            # covers most of the rarest term's windows (common-term phrases),
            # the per-window decode loop loses to ONE whole-range packed
            # intersection through the positions cache
            rarest = min(
                part.term_slices[t][1] - part.term_slices[t][0] for t in distinct
            )
            dense = len(wins) * 2 > rarest if force is None else force == "dense"
            if dense:
                part_base = part.win_base * W
                # intersect ascending-by-size: the packed keys already carry
                # the phrase offset, so the chain is commutative — starting
                # from the rarest term keeps `cur` (and every merge) small
                # even when the phrase contains a head term
                j_order = sorted(
                    range(m),
                    key=lambda j: (
                        part.row_starts[part.term_slices[phrase_terms[j]][1]]
                        - part.row_starts[part.term_slices[phrase_terms[j]][0]]
                    ),
                )
                cur = None
                for j in j_order:
                    t = phrase_terms[j]
                    s, e = part.term_slices[t]
                    idx_rep, pos = self._positions_cached(part_idx, s, e)
                    keys = idx_rep * _PHRASE_PK + (pos - j)
                    cur = keys if cur is None else np.intersect1d(
                        cur, keys, assume_unique=True
                    )
                    if not len(cur):
                        break
                if cur is None or not len(cur):
                    continue
                hit_idx = np.unique(cur // _PHRASE_PK)
                scores = np.zeros(len(hit_idx), dtype=np.float64)
                for t in distinct:
                    s, e = part.term_slices[t]
                    idx, tfnorm = self._contrib_cached(part_idx, s, e)
                    ii = np.searchsorted(idx, hit_idx)
                    scores += term_weights[t] * tfnorm[ii]
                docs_abs, scores = self._drop_excluded(
                    part_base + hit_idx, scores, None, scope
                )
                if len(docs_abs):
                    top_docs, top_scores = _merge_topk(
                        top_docs, top_scores, docs_abs, scores, k
                    )
                continue
            for win_abs in wins.tolist():
                base = int(win_abs) * W
                if scope is not None and (
                    base + W <= scope[0] or base >= scope[1]
                ):
                    continue
                data = {}
                for t in distinct:  # decode each distinct term's block ONCE
                    s, e = part.term_slices[t]
                    bi = s + int(np.searchsorted(part.win[s:e], win_abs))
                    docs_abs, tf, dl = part.decode_range(bi, bi + 1)
                    pos = part.decode_positions(bi, bi + 1, tf)
                    data[t] = (docs_abs - base, tf, dl, pos)
                cur = None
                for j, t in enumerate(phrase_terms):
                    local, tf, _, pos = data[t]
                    keys = np.repeat(local, tf.astype(np.int64)) * PK + (pos - j)
                    cur = keys if cur is None else np.intersect1d(
                        cur, keys, assume_unique=True
                    )
                    if not len(cur):
                        break
                if cur is None or not len(cur):
                    continue
                hit_local = np.unique(cur // PK)
                scores = np.zeros(len(hit_local), dtype=np.float64)
                for t in distinct:
                    local, tf, dl, _ = data[t]
                    ii = np.searchsorted(local, hit_local)
                    scores += term_weights[t] * self._tfnorm(tf[ii], dl[ii])
                docs_abs, scores = self._drop_excluded(
                    base + hit_local, scores, None, scope
                )
                if len(docs_abs):
                    top_docs, top_scores = _merge_topk(
                        top_docs, top_scores, docs_abs, scores, k
                    )
        return top_docs, top_scores

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

        W = self.window_docs
        top_docs = np.empty(0, dtype=np.int64)
        top_scores = np.empty(0, dtype=np.float64)
        m = len(phrase_terms)
        if k <= 0 or m == 0 or int(window) < m - 1:
            return top_docs, top_scores
        if scope is not None:
            scope = (int(scope[0]), int(scope[1]))
            if scope[0] >= scope[1]:
                return top_docs, top_scores
        distinct = list(dict.fromkeys(phrase_terms))
        self.counters["queries"] += 1
        for part_idx, part in enumerate(self.parts):
            if self._part_outside_scope(part, scope):
                continue
            if not part.has_positions:
                raise ValueError(
                    "index was built without store_positions; rebuild with "
                    "BuildConfig(store_positions=True) to enable span queries"
                )
            if any(t not in part.term_slices for t in distinct):
                continue
            wins = None
            for t in distinct:
                s, e = part.term_slices[t]
                tw = part.win[s:e]
                wins = tw if wins is None else np.intersect1d(
                    wins, tw, assume_unique=True
                )
                if not len(wins):
                    break
            if wins is None or not len(wins):
                continue
            part_base = part.win_base * W
            keys_by_term: Dict[str, np.ndarray] = {}
            for t in distinct:
                s, e = part.term_slices[t]
                idx_rep, pos = self._positions_cached(part_idx, s, e)
                keys_by_term[t] = idx_rep * SPAN_PK + pos
            hit_idx = ordered_span_docs(
                [keys_by_term[t] for t in phrase_terms], int(window), SPAN_PK
            )
            if not len(hit_idx):
                continue
            scores = np.zeros(len(hit_idx), dtype=np.float64)
            for t in distinct:
                s, e = part.term_slices[t]
                idx, tfnorm = self._contrib_cached(part_idx, s, e)
                ii = np.searchsorted(idx, hit_idx)
                scores += term_weights[t] * tfnorm[ii]
            docs_abs, scores = self._drop_excluded(
                part_base + hit_idx, scores, None, scope
            )
            if len(docs_abs):
                top_docs, top_scores = _merge_topk(
                    top_docs, top_scores, docs_abs, scores, k
                )
        return top_docs, top_scores

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
        top_docs = np.empty(0, dtype=np.int64)
        top_scores = np.empty(0, dtype=np.float64)
        if k <= 0:
            return top_docs, top_scores
        if scope is not None:
            scope = (int(scope[0]), int(scope[1]))
            if scope[0] >= scope[1]:
                return top_docs, top_scores
        W = self.window_docs
        for part_idx, part in enumerate(self.parts):
            if self._part_outside_scope(part, scope):
                continue
            if not part.has_positions:
                raise ValueError(
                    "index was built without store_positions; rebuild with "
                    "BuildConfig(store_positions=True) to enable NEAR queries"
                )
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
            if not hit.any():
                continue
            hit_idx = np.unique(ia[hit])
            scores = np.zeros(len(hit_idx), dtype=np.float64)
            for t in ({term_a, term_b}):
                s, e = part.term_slices[t]
                idx, tfnorm = self._contrib_cached(part_idx, s, e)
                ii = np.searchsorted(idx, hit_idx)
                scores += term_weights[t] * tfnorm[ii]
            docs_abs, scores = self._drop_excluded(
                part.win_base * W + hit_idx, scores, None, scope
            )
            if len(docs_abs):
                top_docs, top_scores = _merge_topk(
                    top_docs, top_scores, docs_abs, scores, k
                )
        return top_docs, top_scores

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
                (w * self._bscale_hi) * float(part.max_tfnorm[s:e].max())
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

        if len(ess) == 1:
            w, s, e = ess[0]
            idx, tfnorm = self._contrib_cached(part_idx, s, e)
            cand = idx
            sc = w * tfnorm
        else:
            # dense scatter over the part span beats a sparse union here:
            # an O(span) zero/scan costs less than sorting the concatenated
            # essential lists (measured: sparse-union sort ≈ 2× the scatter)
            span = part.n_windows * W
            acc = np.zeros(span, dtype=np.float64)
            present = np.zeros(span, dtype=bool)
            for w, s, e in ess:
                idx, tfnorm = self._contrib_cached(part_idx, s, e)
                acc[idx] += w * tfnorm
                present[idx] = True
            cand = np.flatnonzero(present)
            sc = acc[cand]
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
            span = part.n_windows * W
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
        # set per-query via configure(); defaults match BM25Config
        k1 = getattr(self, "k1", 1.2)
        b = getattr(self, "b", 0.75)
        avgdl = getattr(self, "avgdl", 1.0)
        return (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * (dl / avgdl)))

    def explain(
        self, term_weights: Dict[str, float], doc_abs: int
    ) -> List[Tuple[str, int, int, float, float]]:
        """Per-term score breakdown for ONE document (the Lucene `explain`
        shape): (term, tf, dl, weight, contribution) for every query term
        present in the doc.  Empty when this shard doesn't own the doc.
        Decodes exactly one window block per matching term — point reads,
        no scan."""
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
                if not se:
                    continue
                s, e = se
                bi = s + int(np.searchsorted(part.win[s:e], win))
                if bi >= e or part.win[bi] != win:
                    continue
                docs, tf, dl = part.decode_range(bi, bi + 1)
                j = int(np.searchsorted(docs, doc_abs))
                if j < len(docs) and docs[j] == doc_abs:
                    tfn = float(self._tfnorm(tf[j : j + 1], dl[j : j + 1])[0])
                    out.append(
                        (t, int(tf[j]), int(dl[j]), float(w), float(w) * tfn)
                    )
            return out
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
        computed with.  When the QUERY avgdl differs (federated search over
        merged statistics), the stored per-block tfnorm bounds rescale by a
        provably sound factor: for r = avgdl/build_avgdl,
        tfnorm(avgdl)/tfnorm(build_avgdl) ∈ [min(1, r), max(1, r)] for every
        (tf, dl) — the denominator D = tf + k1(1−b) + k1·b·dl/avg changes by
        at most the factor r in either direction — so stored max bounds ×
        max(1, r) stay upper bounds and stored min bounds × min(1, r) stay
        lower bounds.  Exact contributions are unaffected (tfnorm is always
        recomputed from decoded (tf, dl) with the configured avgdl)."""
        self.k1 = k1
        self.b = b
        self.avgdl = avgdl
        r = (avgdl / build_avgdl) if build_avgdl else 1.0
        self._bscale_hi = max(1.0, r)
        self._bscale_lo = min(1.0, r)
        self._cache.clear()
        self._cache_postings = 0
        # weights can change with the engine's global stats (federated
        # merged N) — a reconfigured actor must not serve stale range
        # weight vectors
        self._wuniq_cache.clear()

    def ping(self) -> bool:
        return True
