"""Lint gate: the query surfaces dispatch every retrieval through one table.

CLI ``query`` (``cli.py``) and MCP ``search`` (``pipelines/mcp_server.py``)
build a request and hand it to ``pipelines/search_modes.py``; neither may
call an engine retrieval method itself (``search*``, ``count_matches``,
``more_like_this``, ``attach_snippets``, ``_hydrate``), directly or
through ``getattr``.  Only ``search_modes.run`` does.

AST-based, like ``test_lint_single_fanout``, so multi-line calls are seen.
"""

from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "oboyu_ray"

SURFACES = ("cli.py", "pipelines/mcp_server.py")
RETRIEVAL = {"count_matches", "more_like_this", "attach_snippets", "_hydrate"}


def _retrieval_name(call: ast.Call) -> str:
    """The engine retrieval method a call invokes, '' if none."""
    f = call.func
    if isinstance(f, ast.Attribute):
        name = f.attr
    elif (isinstance(f, ast.Name) and f.id == "getattr" and len(call.args) > 1
          and isinstance(call.args[1], ast.Constant)
          and isinstance(call.args[1].value, str)):
        name = call.args[1].value
    else:
        return ""
    return name if name.startswith("search") or name in RETRIEVAL else ""


def _calls(rel: str):
    tree = ast.parse((PKG / rel).read_text(), filename=rel)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _retrieval_name(node):
            yield f"{rel}:{node.lineno} {_retrieval_name(node)}"


def test_surfaces_never_call_engine_retrieval():
    offenders = [site for rel in SURFACES for site in _calls(rel)]
    assert not offenders, (
        "engine retrieval call in a query surface (add or change a row of "
        "search_modes.MODES and go through search_modes.run):\n  "
        + "\n  ".join(offenders)
    )


def test_search_modes_is_the_dispatcher():
    # the gate above must not pass vacuously: the one dispatcher is seen
    sites = list(_calls("pipelines/search_modes.py"))
    assert any("count_matches" in s for s in sites)
    assert any("attach_snippets" in s for s in sites)
