"""Lint gate: the build, merge and retraction jobs have one Ray Data shape.

Across ``pipelines/build_index.py``, ``pipelines/merge_index.py`` and
``pipelines/retract.py``, ``ray.data.from_items`` is called exactly once,
inside ``build_index.run_specs``.  That helper cuts a job's spec rows
(partitions, files, bucket slices) into one block per cluster CPU, so a
phase never again pays one Ray task per partition.

AST-based, like ``test_lint_single_block_encoder``, so multi-line calls
and aliased imports are handled.
"""

from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "oboyu_ray"

FILES = ("pipelines/build_index.py", "pipelines/merge_index.py", "pipelines/retract.py")
HOME = ("pipelines/build_index.py", "run_specs")


def _from_items_aliases(tree):
    """Names ``from_items`` is bound to by ``from ray.data import ...``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ray"):
            names |= {a.asname or a.name for a in node.names if a.name == "from_items"}
    return names


def _from_items_calls(tree):
    """(line, enclosing function name) of every ``from_items`` call, by
    attribute (``ray.data.from_items``, ``rd.from_items``) or bare alias."""
    aliases = _from_items_aliases(tree)

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Attribute) and f.attr == "from_items") or (
                    isinstance(f, ast.Name) and f.id in aliases
                ):
                    yield child.lineno, fn
            yield from visit(child, inner)

    yield from visit(tree, None)


def test_phase_jobs_go_through_one_helper():
    sites = []
    for rel in FILES:
        path = PKG / rel
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [(rel, line, fn) for line, fn in _from_items_calls(tree)]
    outside = [f"{rel}:{line} (in {fn})" for rel, line, fn in sites if (rel, fn) != HOME]
    assert not outside, (
        "build, merge and retraction jobs run through build_index.run_specs "
        "(one block per cluster CPU, not one task per row):\n  " + "\n  ".join(outside)
    )
    assert len(sites) == 1, f"expected one from_items call in run_specs, found {sites}"
