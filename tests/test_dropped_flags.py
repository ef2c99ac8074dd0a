"""No flag is silently dropped: a retrieval mode that cannot honour
``--exclude`` / a command-line ``--require-all`` (CLI) or ``require_all``
(MCP) refuses the combination instead of answering without it.  The
refusals happen before any engine is built, so no index is needed."""

from __future__ import annotations

import argparse

import pytest

# CLI mode flag → the argparse attribute value that turns it on
CLI_MODES = {
    "--phrase": ("phrase", True), "--prefix": ("prefix", True),
    "--near": ("near", 3), "--span-near": ("span_near", 3),
    "--fuzzy": ("fuzzy", 1), "--regex": ("regex", "tok.*"),
    "--wildcard": ("wildcard", "tok*"), "--more-like": ("more_like", "0"),
    "--bool": ("bool_expr", "a AND b"), "--synonyms": ("synonyms", "/nope.json"),
    "--dismax": ("dismax", 0.3), "--boosts": ("boosts", "/nope.json"),
}


def test_cli_refuses_flags_a_mode_would_drop(capsys):
    from oboyu_ray.cli import cmd_query

    base = dict(index_dir="/nonexistent", q="a b", k=5, num_shards=1,
                hydrate=False, num_cpus=None)
    cases = [
        (mode, {attr: on, "exclude": "zzz"}, "--exclude")
        for mode, (attr, on) in CLI_MODES.items() if mode != "--boosts"
    ] + [
        (mode, {attr: on, "require_all": True}, "--require-all")
        for mode, (attr, on) in CLI_MODES.items()
    ] + [
        ("--fuzzy", {"federate": "/other", "fuzzy": 1, "exclude": "zzz"},
         "--exclude"),
        ("--fuzzy", {"federate": "/other", "fuzzy": 1, "require_all": True},
         "--require-all"),
    ]
    for mode, extra, flag in cases:
        rc = cmd_query(argparse.Namespace(**{**base, **extra}))
        err = capsys.readouterr().err
        assert rc == 2, extra
        assert flag in err and mode in err and "not supported" in err, (extra, err)


@pytest.mark.parametrize("mode", [
    {"phrase": True}, {"prefix": True}, {"near": 3}, {"fuzzy": 1},
    {"regex": True}, {"wildcard": True}, {"bool_query": True},
    {"dismax": 0.3}, {"boosts": {"a": 2.0}}, {"span_near": 3},
])
def test_mcp_refuses_require_all_outside_plain_search(mode):
    from oboyu_ray.pipelines.mcp_server import McpServer

    with pytest.raises(ValueError, match="require_all"):
        McpServer().tool_search("a b", "/nonexistent", require_all=True, **mode)
