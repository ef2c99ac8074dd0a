"""Lint gate: the query driver decides "this query is dead" in one place and
batches in one place.

In ``pipelines/query.py`` and ``pipelines/federated.py``:

* ``len(set(`` — the "some distinct term is absent" half of the dead-query
  rule — is called only in ``QueryEngine._live``;
* a batched shard call (``_shards_submit(``, ``_shards("batch", …)`` or
  ``_shard_call("batch", …)``) is made only by the batched pair
  ``QueryEngine._many_submit`` / ``_many_result``;
* ``federated.py`` calls no ``idf(``: its weights come from the engine's
  helpers (``_weights_from_dfs``, ``_live``, ``_idf_weights``).

A mode that re-derives liveness or batches on its own re-grows the copies
that used to drift (ten liveness sites, three batched paths).  AST-based,
like ``test_lint_single_topk``, so multi-line calls are handled.
"""

from __future__ import annotations

import ast
import pathlib

PIPELINES = pathlib.Path(__file__).resolve().parent.parent / "oboyu_ray" / "pipelines"
FILES = ("query.py", "federated.py")
BATCHED_PAIR = {("QueryEngine", "_many_submit"), ("QueryEngine", "_many_result")}


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


def _is_len_set(call: ast.Call) -> bool:
    return (
        _called_name(call) == "len"
        and len(call.args) == 1
        and isinstance(call.args[0], ast.Call)
        and _called_name(call.args[0]) == "set"
    )


def _is_batched_call(call: ast.Call) -> bool:
    name = _called_name(call)
    if name == "_shards_submit":
        return True
    first = call.args[0] if call.args else None
    return (
        name in ("_shards", "_shard_call")
        and isinstance(first, ast.Constant)
        and first.value == "batch"
    )


def test_dead_query_rule_and_batched_path_have_one_home():
    offenders = []
    for fname in FILES:
        path = PIPELINES / fname
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, cls, fn in _sites(tree):
            if not isinstance(node, ast.Call):
                continue
            where = f"{fname}:{node.lineno} in {cls}.{fn}"
            if _is_len_set(node) and (cls, fn) != ("QueryEngine", "_live"):
                offenders.append(f"{where}: len(set( outside QueryEngine._live")
            if _is_batched_call(node) and (cls, fn) not in BATCHED_PAIR:
                offenders.append(
                    f"{where}: batched shard call outside _many_submit/_many_result"
                )
            if fname == "federated.py" and _called_name(node) == "idf":
                offenders.append(f"{where}: idf( in federated.py")
    assert not offenders, (
        "decide liveness with QueryEngine._live, batch through "
        "_many_submit/_many_result, and take federated weights from the "
        "engine's helpers:\n  " + "\n  ".join(offenders)
    )
