"""Per-layer timing from outside the program.

``Tracer`` wraps public functions of each layer (and, where no public
function bounds a layer, the private seams listed in ``PRIVATE_SEAMS``) and
records, per operation, the self time of every layer: a span's duration
minus the part its child spans cover.  Spans nest on one thread; the
benchmark drives the engine from one thread.

A seam that no longer exists raises ``MissingSeam`` when the wrappers are
installed, so a refactor fails the traced run loudly instead of reporting
zeros.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

# private seams used because no public function bounds the layer
PRIVATE_SEAMS = (
    "QueryEngine._fanout",
    "QueryEngine._finish",
    "QueryEngine._hydrate",
    "query._merge_topk_multi",
)

BUILD_PHASES = {  # build_index looks these up as module globals
    "build_conv_map": "build.conv_map",
    "ingest": "build.ingest",
    "tokenize_phase": "build.tokenize",
    "vocabulary_phase": "build.vocab",
    "blocks_phase": "build.blocks",
}


class MissingSeam(RuntimeError):
    pass


class Tracer:
    def __init__(self) -> None:
        self._stack: List[List[float]] = []     # per open span: [child time]
        self._op: Dict[str, float] = defaultdict(float)
        self.ops: List[Dict[str, float]] = []   # per finished op: layer -> self s
        self.spans: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------
    def span(self, layer: str, fn: Callable, keep_spans: bool = False) -> Callable:
        tracer = self

        def wrapped(*args, **kwargs):
            tracer._stack.append([0.0])
            t0 = time.perf_counter()
            wall0 = time.time()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = tracer._stack.pop()[0]
                tracer._op[layer] += dur - child
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                if keep_spans:
                    tracer.spans[layer].append((wall0, wall0 + dur))

        wrapped.__wrapped__ = fn
        return wrapped

    def end_op(self, snippet: bool = False) -> None:
        """Close the current operation: its layer self times become one
        sample.  ``snippet`` marks a hydrated search."""
        op = dict(self._op)
        if snippet:
            op["snippet"] = 1.0
        self.ops.append(op)
        self._op.clear()

    def take_ops(self) -> List[Dict[str, float]]:
        ops, self.ops = self.ops, []
        return ops

    # -- installing ------------------------------------------------------
    def patch(self, owner, attr: str, layer: str, keep_spans: bool = False) -> None:
        if not hasattr(owner, attr):
            raise MissingSeam(f"{getattr(owner, '__name__', owner)!s}.{attr} is gone; "
                              "the traced run cannot time this layer")
        had_own = attr in vars(owner)
        orig = vars(owner).get(attr)
        # an instance that inherits the method gets a wrapped bound method
        setattr(owner, attr, self.span(layer, orig if had_own else getattr(owner, attr),
                                       keep_spans))
        self._undo.append(
            (lambda: setattr(owner, attr, orig)) if had_own else (lambda: delattr(owner, attr))
        )

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def installed(self, seams):
        """Wrap each (owner, attribute, layer[, keep spans]) of ``seams``
        for the duration of the block."""
        try:
            for owner, attr, layer, *keep in seams:
                self.patch(owner, attr, layer, keep_spans=bool(keep and keep[0]))
            yield self
        finally:
            self.restore()


def build_seams():
    from oboyu_ray.pipelines import build_index as bi

    return [(bi, fn, layer) for fn, layer in BUILD_PHASES.items()]


def query_seams(engine):
    from oboyu_ray.pipelines import query as q

    E = q.QueryEngine
    return [
        (E, "search", "query.glue"),
        (E, "search_terms", "query.glue"),
        (E, "_fanout", "query.fanout", True),
        (E, "_finish", "query.finish"),
        (E, "_hydrate", "query.hydrate"),
        (E, "attach_snippets", "query.snippet"),
        (q, "_merge_topk_multi", "query.merge"),
        (q.VocabLookup, "df", "query.vocab_df"),
        (q.ConvResolver, "resolve", "query.resolve"),
        (engine.tokenizer, "tokenize", "query.tokenize"),
    ]


def median_self(ops: List[Dict[str, float]], layer: str) -> float:
    """Median self time in seconds of ``layer`` over the ops that
    entered it (0 when none did)."""
    vals = [o[layer] for o in ops if layer in o]
    return float(np.median(vals)) if vals else 0.0


def shard_exec_per_span(events: List[dict], spans: List[Tuple[float, float]]) -> List[float]:
    """For each engine-side span (wall start, wall end), the longest shard task
    that started inside it, in ms (the shard on the critical path).  Spans
    with no shard task are skipped."""
    starts = np.array([e["ts"] / 1e6 for e in events])
    durs = np.array([e["dur"] / 1e3 for e in events])
    order = np.argsort(starts)
    starts, durs = starts[order], durs[order]
    out = []
    for s, e in spans:
        lo, hi = np.searchsorted(starts, [s, e])
        if hi > lo:
            out.append(float(durs[lo:hi].max()))
    return out


def shard_events(timeline: List[dict], t0: float, t1: float) -> List[dict]:
    """``ray.timeline()`` events of IndexShard tasks that started in
    [t0, t1] (wall seconds)."""
    return [
        e for e in timeline
        if str(e.get("cat", "")).startswith("task::IndexShard.") and e.get("ph") == "X"
        and t0 * 1e6 <= e["ts"] <= t1 * 1e6
    ]
