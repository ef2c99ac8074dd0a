"""Lint gate: every driver→shard query or count call goes through one path.

A ``.remote(`` call on an ``IndexShard`` query/count method (or on
``MergeAggregator.forward``, or on a method picked by name with
``getattr``) may appear only inside the engine dispatcher
(``QueryEngine._shard_call``) or the ``MergeAggregator`` class.  Pool
management (``configure``, ``get_counters``, ``reset_counters``, ``ping``)
is exempt.

AST-based, like ``test_lint_pruned_reads``, so multi-line calls and
lambdas are handled.
"""

from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "oboyu_ray"

POOL_METHODS = {"configure", "get_counters", "reset_counters", "ping"}

# (relative path, enclosing class, enclosing function or None = any)
ALLOWED = {
    ("pipelines/query.py", "QueryEngine", "_shard_call"),
    ("pipelines/query.py", "MergeAggregator", None),
}


def _shard_methods():
    """Public IndexShard methods that answer queries or counts."""
    tree = ast.parse((PKG / "state" / "shards.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "IndexShard":
            return {
                f.name for f in node.body
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            } - POOL_METHODS
    raise AssertionError("IndexShard not found in state/shards.py")


def _scopes(tree):
    """Map a line number to its innermost (class, function) names."""
    spans = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            c, f = cls, fn
            if isinstance(child, ast.ClassDef):
                c, f = child.name, None
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                f = f or child.name  # outermost function within the class
            if (c, f) != (cls, fn):
                spans.append((child.lineno, child.end_lineno, c, f))
            visit(child, c, f)

    visit(tree, None, None)
    spans.sort(key=lambda s: s[1] - s[0])  # innermost first

    def lookup(lineno):
        for lo, hi, c, f in spans:
            if lo <= lineno <= hi:
                return c, f
        return None, None

    return lookup


def _fanout_call(call: ast.Call, methods) -> str:
    """The shard method a ``X.<m>.remote(...)`` call targets, '' if none."""
    f = call.func
    if not (isinstance(f, ast.Attribute) and f.attr == "remote"):
        return ""
    target = f.value
    if isinstance(target, ast.Attribute) and target.attr in methods | {"forward"}:
        return target.attr
    if isinstance(target, ast.Call) and getattr(target.func, "id", "") == "getattr":
        return "getattr(...)"
    return ""


def test_shard_calls_only_in_dispatcher():
    methods = _shard_methods()
    assert {"query", "count_matches", "explain"} <= methods
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        rel = str(path.relative_to(PKG))
        tree = ast.parse(path.read_text(), filename=rel)
        scope_of = _scopes(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _fanout_call(node, methods)
            if not name:
                continue
            cls, fn = scope_of(node.lineno)
            if (rel, cls, fn) in ALLOWED or (rel, cls, None) in ALLOWED:
                continue
            offenders.append(f"{rel}:{node.lineno} {name}.remote in {cls}.{fn}")
    assert not offenders, (
        "shard query/count fan-out outside QueryEngine._shard_call / "
        "MergeAggregator (route it through QueryEngine._shards):\n  "
        + "\n  ".join(offenders)
    )
