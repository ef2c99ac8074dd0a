"""Lint gate: one engine serves one index or many.

* ``ray.remote(IndexShard)`` appears once under ``oboyu_ray/``, in
  ``QueryEngine._spawn_pool``: the only shard pool is the engine's.
* ``pipelines/federated.py`` defines no function but ``__init__`` and makes
  no ``_shards`` call: ``FederatedEngine`` is a constructor over the
  multi-index ``QueryEngine``, never a second engine with its own search,
  fuzzy, count, resolve or hydrate code.

AST-based, like ``test_lint_single_liveness``; the last test re-adds a
``search`` method to a copy of ``federated.py`` and checks the gate fails.
"""

from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "oboyu_ray"
FEDERATED = PKG / "pipelines" / "federated.py"


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


def _is_remote_index_shard(call: ast.Call) -> bool:
    f = call.func
    return (
        isinstance(f, ast.Attribute) and f.attr == "remote"
        and isinstance(f.value, ast.Name) and f.value.id == "ray"
        and len(call.args) == 1
        and isinstance(call.args[0], ast.Name) and call.args[0].id == "IndexShard"
    )


def _federated_offenders(source: str) -> list:
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "__init__":
            offenders.append(f"federated.py:{node.lineno} defines {node.name}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_shards"):
            offenders.append(f"federated.py:{node.lineno} calls _shards")
    return offenders


def test_the_shard_pool_spawns_in_one_place():
    sites = []
    for path in sorted(PKG.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, cls, fn in _sites(tree):
            if isinstance(node, ast.Call) and _is_remote_index_shard(node):
                sites.append((str(path.relative_to(PKG)), cls, fn))
    assert sites == [("pipelines/query.py", "QueryEngine", "_spawn_pool")], sites


def test_federated_is_a_constructor_only():
    offenders = _federated_offenders(FEDERATED.read_text())
    assert not offenders, (
        "FederatedEngine only constructs the multi-index QueryEngine; serve "
        "a mode in QueryEngine instead:\n  " + "\n  ".join(offenders)
    )


def test_gate_catches_a_re_added_search_method():
    mutated = FEDERATED.read_text() + (
        "\n    def search(self, query, k=10):\n"
        "        return self._shards('query', {}, k=k)\n"
    )
    tree = ast.parse(mutated)
    facade = next(n for n in tree.body if isinstance(n, ast.ClassDef))
    assert any(getattr(f, "name", "") == "search" for f in facade.body)
    offenders = _federated_offenders(mutated)
    assert any("defines search" in o for o in offenders), offenders
    assert any("calls _shards" in o for o in offenders), offenders
