"""Lint gate: every IndexShard kernel shares one part walk and one top-k.

Inside ``state/shards.py``, ``_merge_topk(`` and ``_drop_excluded(`` may
be called only from the running top-k object (``_TopK``), and the
``queries`` counter is ticked only by the part walk
(``IndexShard._walk``).  A kernel that merges, filters or counts on its
own re-grows the scaffold whose copies drifted apart (three kernels
once never counted their queries).

AST-based, like ``test_lint_single_fanout``, so multi-line calls are
handled.
"""

from __future__ import annotations

import ast
import pathlib

SHARDS = pathlib.Path(__file__).resolve().parent.parent / "oboyu_ray" / "state" / "shards.py"

# name → the (class, function) scopes allowed to call it; None = any function
ALLOWED_CALLS = {
    "_merge_topk": {("_TopK", None)},
    "_drop_excluded": {("_TopK", None)},
}


def _sites(tree):
    """Yield (node, class, outermost function in that class) for every node."""
    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            c, f = cls, fn
            if isinstance(child, ast.ClassDef):
                c, f = child.name, None
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                f = f or child.name
            yield child, c, f
            yield from visit(child, c, f)

    yield from visit(tree, None, None)


def _called_name(call: ast.Call) -> str:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return ""


def _is_queries_tick(node) -> bool:
    """``<x>.counters["queries"] += …``"""
    return (
        isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Subscript)
        and isinstance(node.target.value, ast.Attribute)
        and node.target.value.attr == "counters"
        and isinstance(node.target.slice, ast.Constant)
        and node.target.slice.value == "queries"
    )


def test_topk_merge_filter_and_query_tick_have_one_home():
    tree = ast.parse(SHARDS.read_text(), filename=str(SHARDS))
    offenders, calls, ticks = [], {name: 0 for name in ALLOWED_CALLS}, []
    for node, cls, fn in _sites(tree):
        if isinstance(node, ast.Call) and _called_name(node) in ALLOWED_CALLS:
            name = _called_name(node)
            calls[name] += 1
            ok = ALLOWED_CALLS[name]
            if (cls, fn) not in ok and (cls, None) not in ok:
                offenders.append(f"shards.py:{node.lineno} {name}( in {cls}.{fn}")
        elif _is_queries_tick(node):
            ticks.append(f"shards.py:{node.lineno} in {cls}.{fn}")
            if (cls, fn) != ("IndexShard", "_walk"):
                offenders.append(
                    f"shards.py:{node.lineno} counters['queries'] tick in {cls}.{fn}"
                )
    assert not offenders, (
        "top-k merge/filter or the queries tick outside _TopK / "
        "IndexShard._walk (push results through the kernel's _TopK and "
        "loop parts with self._walk):\n  " + "\n  ".join(offenders)
    )
    assert calls == {"_merge_topk": 1, "_drop_excluded": 1}, calls
    assert len(ticks) == 1, ticks
