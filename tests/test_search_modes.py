"""CLI ``query`` and MCP ``search`` share one retrieval-mode table
(``pipelines/search_modes.py``): the same combinations are refused on both
surfaces, malformed requests are refused before any engine is built (the
index dir ``/nonexistent`` would fail to open), and the CLI closes its
engine even when a search raises."""

from __future__ import annotations

import argparse
import itertools

import pytest

from oboyu_ray.cli import build_parser, cmd_query
from oboyu_ray.pipelines import search_modes
from oboyu_ray.pipelines.mcp_server import TOOLS, McpServer

# per table row: the CLI argv that turns the mode on, the MCP value
MODE_ON = {
    "plain": ([], None), "phrase": ([], True), "prefix": ([], True),
    "near": (["2"], 2), "span_near": (["3"], 3), "fuzzy": (["1"], 1),
    "regex": (["tok.*"], True), "wildcard": (["tok*"], True),
    "more_like": (["0"], None), "bool_expr": (["a AND b"], True),
    "synonyms": (["/nope.json"], None), "dismax": (["0.3"], 0.3),
    "boosts": (["/nope.json"], {"a": 2.0}),
}
# per modifier both surfaces expose: CLI argv, MCP value
MODIFIER_ON = {
    "require_all": ([], True), "page": (["1"], 1), "collapse": ([], True),
    "count": ([], True), "scope": (["0:5"], [0, 5]), "snippet": ([], True),
}
QUERY_BASE = ["query", "--index-dir", "/nonexistent", "--q", "a b"]


def _cli(mode, mods):
    argv = list(QUERY_BASE)
    if mode.cli:
        argv += [mode.cli, *MODE_ON[mode.name][0]]
    for m in mods:
        argv += [search_modes.SPELLING[m][0], *MODIFIER_ON[m][0]]
    ns = build_parser().parse_args(argv)
    return search_modes.cli_request({**search_modes.CLI_DEFAULTS, **vars(ns)})


def _mcp(mode, mods):
    kw = {search_modes.SPELLING[m][1]: MODIFIER_ON[m][1] for m in mods}
    if mode.mcp:
        kw[mode.mcp] = MODE_ON[mode.name][1]
    return search_modes.mcp_request("a b", 5, **kw)


def _refusal(req):
    try:
        search_modes.validate(req)
    except ValueError as e:
        return str(e)
    return None


def test_table_spellings_exist_on_both_surfaces():
    """Each row's CLI flag parses into the row's request key and each MCP
    key is a property of the ``search`` tool's input schema; likewise for
    every modifier."""
    props = TOOLS[0]["inputSchema"]["properties"]
    argv = {**{key: v[0] for key, v in {**MODE_ON, **MODIFIER_ON}.items()},
            "q": ["x"], "exclude": ["x"], "hydrate": [], "federate": ["/x"]}
    flags = [(m.name, m.cli, m.mcp) for m in search_modes.MODES] + [
        (key, cli, mcp) for key, (cli, mcp) in search_modes.SPELLING.items()]
    for key, cli, mcp in flags:
        if cli:
            ns = build_parser().parse_args(QUERY_BASE + [cli, *argv[key]])
            assert search_modes._on(vars(ns)[key]), cli
        assert mcp is None or mcp in props, mcp
    assert [m.name for m in search_modes.MODES] == list(MODE_ON)


def test_cli_and_mcp_refuse_the_same_combinations():
    """Every mode both surfaces expose × every set of ≤ 2 shared modifiers:
    the CLI and MCP requests are refused alike, each message spelled the
    surface's way."""
    shared = [m for m in search_modes.MODES if m is search_modes.PLAIN or m.mcp]
    refused = accepted = 0
    for mode in shared:
        for r in range(3):
            for mods in itertools.combinations(MODIFIER_ON, r):
                cli, mcp = _refusal(_cli(mode, mods)), _refusal(_mcp(mode, mods))
                assert (cli is None) == (mcp is None), (mode.name, mods, cli, mcp)
                if cli is None:
                    accepted += 1
                    continue
                refused += 1
                assert "--" in cli and "--" not in mcp, (cli, mcp)
    assert refused > 100 and accepted > 20, (refused, accepted)


@pytest.mark.parametrize("extra,flag", [
    (["--scope", "5"], "--scope"),
    (["--scope", "a:b"], "--scope"),
    (["--scope", "1:2:3"], "--scope"),
    (["--page", "-1"], "--page"),
    (["--near", "3"], "--near"),  # --q "a b c" is three terms
    (["--synonyms", "/nonexistent/syn.json"], "--synonyms"),
    (["--boosts", "/nonexistent/boosts.json"], "--boosts"),
])
def test_cli_refuses_malformed_requests_before_any_engine(capsys, extra, flag):
    ns = build_parser().parse_args(
        ["query", "--index-dir", "/nonexistent", "--q", "a b c", *extra])
    assert cmd_query(ns) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"query: {flag}"), err


@pytest.mark.parametrize("kw,match", [
    ({"scope": [5]}, "scope takes two integer bounds"),
    ({"scope": [1, 2, 3]}, "scope takes two integer bounds"),
    ({"scope": ["a", "b"]}, "scope takes two integer bounds"),
    ({"page": -1}, "page must be >= 0"),
    ({"near": 3}, "near takes exactly 2 terms in query"),
    ({"more_like": 0}, "unexpected arguments: more_like"),
])
def test_mcp_refuses_malformed_requests_before_any_engine(kw, match):
    server = McpServer()
    with pytest.raises((ValueError, TypeError), match=match):
        server.tool_search("a b c", "/nonexistent", **kw)
    assert not server._engines


def test_cli_closes_engine_when_search_raises(monkeypatch):
    import oboyu_ray.pipelines.query as query_mod

    closed = []

    class RaisingEngine:
        def __init__(self, index_dir, num_shards=None):
            pass

        def search(self, *args, **kw):
            raise RuntimeError("shard died")

        def close(self):
            closed.append(True)

    monkeypatch.setattr(query_mod, "QueryEngine", RaisingEngine)
    with pytest.raises(RuntimeError, match="shard died"):
        cmd_query(argparse.Namespace(index_dir="/nonexistent", q="a b"))
    assert closed == [True]


@pytest.mark.parametrize("kw,key", [
    ({"dismax": "x"}, "dismax"),
    ({"boosts": [1, 2]}, "boosts"),
    ({"fuzzy": "one"}, "fuzzy"),
])
def test_mcp_refuses_ill_typed_mode_values_before_any_engine(kw, key):
    server = McpServer()
    with pytest.raises(ValueError, match=f"^{key} got an invalid value"):
        server.tool_search("a b", "/nonexistent", **kw)
    assert not server._engines


def test_cli_refuses_ill_typed_more_like_before_any_engine(capsys):
    ns = build_parser().parse_args(
        ["query", "--index-dir", "/nonexistent", "--more-like", "abc"])
    assert cmd_query(ns) == 2
    err = capsys.readouterr().err
    assert err.startswith("query: --more-like got an invalid value 'abc'"), err


def test_cli_refuses_non_numeric_boost_weight_in_file(tmp_path, capsys):
    path = tmp_path / "boosts.json"
    path.write_text('{"a": "heavy"}')
    ns = build_parser().parse_args(
        ["query", "--index-dir", "/nonexistent", "--q", "a b",
         "--boosts", str(path)])
    assert cmd_query(ns) == 2
    err = capsys.readouterr().err
    assert err.startswith("query: --boosts got an invalid value"), err
