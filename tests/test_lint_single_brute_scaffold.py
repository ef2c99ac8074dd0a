"""Lint gate: the brute-force scorer keeps one stats pass, one merge and one
positional scorer.

In ``pipelines/bm25_batch.py``:

* ``iter_batches(`` — a pass whose partials the driver folds — is called
  only by the one stats pass ``_stats_and_dfs`` and by ``facet_counts``
  (whose partials are facet counts, not statistics);
* a ``"rank"`` column is assigned only in ``_rank_topk_frames``, the one
  driver merge;
* ``Counter(`` — the per-doc tf scorer of matched docs — appears only in
  the positional scorer ``_positional_topk``.

A scorer that grows its own stats pass, merge or token-stream scorer
re-grows the copies that used to drift (four stats passes, ten inlined
merges, three positional scorers).  AST-based, like
``test_lint_single_liveness``, so multi-line calls are handled.
"""

from __future__ import annotations

import ast
import pathlib

PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "oboyu_ray" / "pipelines" / "bm25_batch.py"
)
HOMES = {
    "iter_batches": {"_stats_and_dfs", "facet_counts"},
    "rank": {"_rank_topk_frames"},
    "Counter": {"_positional_topk"},
}


def _sites(tree):
    """Yield (node, outermost module-level function) for every node."""
    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            f = fn
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                f = f or child.name
            yield child, f
            yield from visit(child, f)

    yield from visit(tree, None)


def _called_name(call: ast.Call) -> str:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return ""


def _is_rank(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == "rank"


def _assigns_rank(node) -> bool:
    """``x["rank"] = …``, ``x.assign(rank=…)`` or ``x.insert(i, "rank", …)``."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Subscript) and _is_rank(t.slice) for t in targets)
    if isinstance(node, ast.Call):
        name = _called_name(node)
        if name == "assign":
            return any(kw.arg == "rank" for kw in node.keywords)
        if name == "insert":
            return any(_is_rank(a) for a in node.args)
    return False


def test_brute_scorer_steps_have_one_home():
    tree = ast.parse(PATH.read_text(), filename=str(PATH))
    offenders = []
    for node, fn in _sites(tree):
        found = []
        if isinstance(node, ast.Call) and _called_name(node) in ("iter_batches", "Counter"):
            found.append(_called_name(node))
        if _assigns_rank(node):
            found.append("rank")
        for what in found:
            if fn not in HOMES[what]:
                offenders.append(f"bm25_batch.py:{node.lineno} in {fn}: {what}")
    assert not offenders, (
        "fold corpus statistics in _stats_and_dfs, rank in _rank_topk_frames "
        "and score matched token streams in _positional_topk:\n  "
        + "\n  ".join(offenders)
    )
