"""Lint gate: posting blocks have one encoder, the build's blocks phase.

Outside ``state/codec.py`` (where they are defined), ``varint_encode`` and
``grouped_delta_encode`` may be called only from
``pipelines/build_index.py``, under any import alias.  ``merge_index.py``
may import nothing from ``oboyu_ray.state.shards`` or
``oboyu_ray.state.codec``: a merge renumbers member parts and hands them
to ``build_index.blocks_phase``, so a change to what blocks hold or key on
lands once.

AST-based, like ``test_lint_single_topk``, so multi-line calls and
aliased imports are handled.
"""

from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "oboyu_ray"

ENCODERS = {"varint_encode", "grouped_delta_encode"}
ENCODER_HOME = "pipelines/build_index.py"
MERGE = "pipelines/merge_index.py"
MERGE_BANNED = {"oboyu_ray.state.shards", "oboyu_ray.state.codec"}


def _imported_modules(node):
    """The dotted modules an import statement reads from."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def _encoder_calls(tree):
    """Line numbers of calls to an encoder, by name, alias or attribute."""
    names = set(ENCODERS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.asname for a in node.names if a.name in ENCODERS and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in names:
                yield node.lineno


def test_blocks_have_one_encoder_and_merge_reads_no_block_codec():
    offenders, home_calls = [], 0
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel == "state/codec.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for line in _encoder_calls(tree):
            if rel == ENCODER_HOME:
                home_calls += 1
            else:
                offenders.append(f"{rel}:{line} calls a block encoder")
        if rel == MERGE:
            for node in ast.walk(tree):
                bad = [m for m in _imported_modules(node) if m in MERGE_BANNED]
                if bad:
                    offenders.append(f"{rel}:{node.lineno} imports {bad[0]}")
    assert not offenders, (
        "posting blocks are encoded only by build_index's blocks phase "
        "(a merge renumbers parts and runs blocks_phase):\n  "
        + "\n  ".join(offenders)
    )
    assert home_calls > 0, "build_index.py no longer calls the block encoder"
