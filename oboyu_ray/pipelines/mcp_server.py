"""MCP (Model Context Protocol) stdio transport over the file-index API.

Reference parity: `src/oboyu/mcp/server.py:70-300` exposes three tools —
``search``, ``index_directory``, ``get_index_info`` — via FastMCP.  The
heavy MCP SDK isn't in this container, but the protocol itself is public
and small: newline-delimited JSON-RPC 2.0 over stdio with ``initialize`` /
``tools/list`` / ``tools/call``.  This module implements exactly that with
the stdlib, delegating tool bodies to ``pipelines/file_index.py`` (the
plain-python API the reference's tools wrap).

Transport loop is dependency-injected (any readable/writable text streams)
so tests drive the full protocol in-process; ``python -m
oboyu_ray.pipelines.mcp_server --index-dir DIR`` serves real stdio.

Like the reference (server.py:28-68), engines are lazy singletons per
index_dir; ``index_directory`` invalidates the cached engine for the dir
it rebuilds.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Optional, TextIO

PROTOCOL_VERSION = "2024-11-05"

TOOLS = [
    {
        "name": "search",
        "description": (
            "BM25 full-text search over an indexed corpus "
            "(Japanese/English/mixed queries supported)."
        ),
        "inputSchema": {
            "type": "object",
            "properties": {
                "query": {"type": "string"},
                "top_k": {"type": "integer", "default": 5},
                "index_dir": {"type": "string"},
                "require_all": {
                    "type": "boolean",
                    "default": False,
                    "description": "conjunctive (AND): only documents "
                                   "containing every query term rank",
                },
                "phrase": {
                    "type": "boolean",
                    "default": False,
                    "description": "exact adjacency phrase retrieval "
                                   "(requires an index built with "
                                   "store_positions)",
                },
                "prefix": {
                    "type": "boolean",
                    "default": False,
                    "description": "wildcard pre* retrieval (query is the "
                                   "prefix; bounded vocabulary expansion)",
                },
                "near": {
                    "type": "integer",
                    "description": "proximity window: the query's two terms "
                                   "within this many tokens (positional "
                                   "index required)",
                },
                "fuzzy": {
                    "type": "integer",
                    "description": "fuzzy retrieval: expand the query term "
                                   "to every vocabulary term within this "
                                   "levenshtein distance",
                },
                "scope": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "description": "scoped retrieval: [lo, hi) doc_num "
                                   "interval restricting candidates "
                                   "(full-corpus statistics)",
                },
                "page": {
                    "type": "integer",
                    "default": 0,
                    "description": "result page (0-based): exact rows "
                                   "top_k*page+1 .. top_k*(page+1) of the "
                                   "global ranking; plain search mode only",
                },
                "regex": {
                    "type": "boolean",
                    "default": False,
                    "description": "regex term retrieval: the query is an "
                                   "RE2 pattern fully matched against the "
                                   "vocabulary (bounded expansion)",
                },
                "wildcard": {
                    "type": "boolean",
                    "default": False,
                    "description": "wildcard term retrieval: the query uses "
                                   "* (any run) and ? (one char), rewritten "
                                   "to the regex path",
                },
                "bool_query": {
                    "type": "boolean",
                    "default": False,
                    "description": "boolean retrieval: the query is an "
                                   "'(a AND b) OR c NOT d' expression over "
                                   "index terms (negated clauses filter, "
                                   "positive terms score)",
                },
                "collapse": {
                    "type": "boolean",
                    "default": False,
                    "description": "collapse results by conversation: top-k "
                                   "conversations ranked by their best "
                                   "turn, one result each (plain search "
                                   "semantics)",
                },
                "count_only": {
                    "type": "boolean",
                    "default": False,
                    "description": "return only the total matching-document "
                                   "count (no ranked results; plain search "
                                   "semantics with require_all)",
                },
                "snippet": {
                    "type": "boolean",
                    "default": False,
                    "description": "return a highlighted match snippet as "
                                   "each result's content instead of the "
                                   "full document text",
                },
                "span_near": {
                    "type": "integer",
                    "description": "ordered span retrieval: the query's "
                                   "terms IN ORDER within a position extent "
                                   "of this window (m-1 = exact phrase; "
                                   "positional index required)",
                },
                "dismax": {
                    "type": "number",
                    "description": "disjunction-max scoring tiebreak: per "
                                   "doc max + tiebreak*(sum-max) over "
                                   "single-term contributions (Lucene "
                                   "DisjunctionMaxQuery)",
                },
                "boosts": {
                    "type": "object",
                    "description": "per-term query-time boost map "
                                   "(term -> float); score = "
                                   "sum(boost_t * bm25_t), absent terms 1.0",
                },
            },
            "required": ["query", "index_dir"],
        },
    },
    {
        "name": "index_directory",
        "description": "Discover, chunk and index a directory of text/markdown files.",
        "inputSchema": {
            "type": "object",
            "properties": {
                "root": {"type": "string"},
                "index_dir": {"type": "string"},
                "include_patterns": {"type": "array", "items": {"type": "string"}},
                "exclude_patterns": {"type": "array", "items": {"type": "string"}},
                "store_positions": {
                    "type": "boolean",
                    "default": False,
                    "description": "positional index (enables phrase search)",
                },
            },
            "required": ["root", "index_dir"],
        },
    },
    {
        "name": "get_index_info",
        "description": "Statistics of an existing index (docs, vocabulary, sizes, timings).",
        "inputSchema": {
            "type": "object",
            "properties": {"index_dir": {"type": "string"}},
            "required": ["index_dir"],
        },
    },
]


class McpServer:
    """Tool dispatch + JSON-RPC handling; one engine cache per server."""

    def __init__(self) -> None:
        self._engines: Dict[str, object] = {}

    # ------------------------------------------------------------ tools

    def _engine(self, index_dir: str):
        if index_dir not in self._engines:
            from oboyu_ray.pipelines.file_index import open_search

            self._engines[index_dir] = open_search(index_dir)
        return self._engines[index_dir]

    def tool_search(
        self, query: str, index_dir: str, top_k: int = 5,
        require_all: bool = False, phrase: bool = False,
        prefix: bool = False, near: Optional[int] = None,
        fuzzy: Optional[int] = None, scope: Optional[list] = None,
        page: int = 0, regex: bool = False, wildcard: bool = False,
        bool_query: bool = False, dismax: Optional[float] = None,
        boosts: Optional[Dict] = None, span_near: Optional[int] = None,
        snippet: bool = False, count_only: bool = False,
        collapse: bool = False,
    ) -> Dict:
        # scope composes with every mode (the engine methods all take it) —
        # never silently drop it on the fuzzy/prefix/phrase/near branches
        sc = (int(scope[0]), int(scope[1])) if scope else None
        # pagination is a plain-search feature; refuse it elsewhere instead
        # of silently answering page 0 (the silently-dropped-flag hazard)
        if int(page) and (phrase or prefix or near is not None
                          or fuzzy is not None or regex or wildcard
                          or bool_query or dismax is not None or boosts
                          or span_near is not None):
            raise ValueError("page is only supported in plain search mode")
        # ONE retrieval mode per call: the elif chain below would otherwise
        # silently answer whichever mode wins precedence (the
        # silently-answered-different-query hazard)
        modes = (bool(phrase), bool(prefix), near is not None,
                 fuzzy is not None, bool(regex), bool(wildcard),
                 bool(bool_query), dismax is not None, bool(boosts),
                 span_near is not None)
        if sum(modes) > 1:
            raise ValueError(
                "phrase/prefix/near/fuzzy/regex/wildcard/bool_query/dismax/"
                "boosts/span_near are mutually exclusive"
            )
        # only plain search honours require_all: refuse it elsewhere
        if require_all and any(modes):
            raise ValueError("require_all is only supported in plain search mode")
        eng = self._engine(index_dir)
        if count_only:
            if any(modes) or int(page) or snippet or collapse:
                raise ValueError(
                    "count_only is only supported in plain search mode"
                )
            n = eng.count_matches(query, require_all=bool(require_all), scope=sc)
            return {"count": int(n), "stats": {"query": query}}
        if collapse:
            if any(modes) or int(page):
                raise ValueError(
                    "collapse is only supported in plain search mode"
                )
            df = eng.search_collapse(
                query, k=int(top_k), hydrate=True,
                require_all=bool(require_all), scope=sc,
            )
        elif span_near is not None:
            df = eng.search_span_near(
                query, window=int(span_near), k=int(top_k), hydrate=True,
                scope=sc,
            )
        elif dismax is not None:
            df = eng.search_dismax(
                query, k=int(top_k), tiebreak=float(dismax), hydrate=True,
                resolve=True, scope=sc,
            )
        elif boosts:
            df = eng.search_boosted(
                query, {str(t): float(w) for t, w in boosts.items()},
                k=int(top_k), hydrate=True, resolve=True, scope=sc,
            )
        elif bool_query:
            df = eng.search_bool(query, k=int(top_k), hydrate=True, scope=sc)
        elif regex or wildcard:
            fn = eng.search_regex if regex else eng.search_wildcard
            df = fn(query, k=int(top_k), hydrate=True, resolve=True, scope=sc)
        elif near is not None:
            sides = query.split()
            if len(sides) != 2:
                raise ValueError("near search takes exactly two terms")
            df = eng.search_near(
                sides[0], sides[1], window=int(near), k=int(top_k),
                hydrate=True, scope=sc,
            )
        elif fuzzy is not None:
            df = eng.search_fuzzy(
                query, max_edits=int(fuzzy), k=int(top_k), hydrate=True,
                resolve=True, scope=sc,
            )
        elif prefix:
            df = eng.search_prefix(
                query, k=int(top_k), hydrate=True, resolve=True, scope=sc
            )
        elif phrase:
            df = eng.search_phrase(query, k=int(top_k), hydrate=True, scope=sc)
        elif int(page):
            df = eng.search_page(
                query, k=int(top_k), page=int(page), hydrate=True,
                require_all=bool(require_all), scope=sc,
            )
        else:
            df = eng.search(
                query, k=int(top_k), hydrate=True, require_all=bool(require_all),
                scope=sc,
            )
        if snippet:
            # reference result shape: per-hit match snippet with the query
            # terms highlighted (pattern modes fall back to head snippets —
            # the matched terms are only known term-wise for term queries)
            df = eng.attach_snippets(df, query, highlight=True)
        results = [
            {
                "uri": str(r["doc_id"]),
                "score": float(r["score"]),
                "content": r.get("snippet", r.get("text", ""))
                if snippet else r.get("text", ""),
            }
            for r in df.to_dict("records")
        ]
        return {"results": results, "stats": {"count": len(results), "query": query}}

    def tool_index_directory(
        self,
        root: str,
        index_dir: str,
        include_patterns: Optional[list] = None,
        exclude_patterns: Optional[list] = None,
        store_positions: bool = False,
    ) -> Dict:
        from oboyu_ray.config import BuildConfig
        from oboyu_ray.pipelines.file_index import index_directory

        if index_dir in self._engines:  # rebuilt index → stale engine
            self._engines.pop(index_dir).close()
        report = index_directory(
            root, index_dir, include_patterns=include_patterns,
            exclude_patterns=exclude_patterns,
            cfg=BuildConfig(store_positions=bool(store_positions)),
        )
        return {
            "status": "ok",
            "documents_indexed": int(report["n_docs"]),
            "partitions": int(report["n_parts"]),
        }

    def tool_get_index_info(self, index_dir: str) -> Dict:
        from oboyu_ray.pipelines.file_index import get_index_info

        return get_index_info(index_dir)

    # ------------------------------------------------------------ rpc

    def handle(self, msg: Dict) -> Optional[Dict]:
        """One JSON-RPC message → response dict (None for notifications)."""
        mid = msg.get("id")
        method = msg.get("method", "")
        if method.startswith("notifications/"):
            return None

        def ok(result) -> Dict:
            return {"jsonrpc": "2.0", "id": mid, "result": result}

        def err(code: int, text: str) -> Dict:
            return {"jsonrpc": "2.0", "id": mid, "error": {"code": code, "message": text}}

        try:
            if method == "initialize":
                return ok(
                    {
                        "protocolVersion": PROTOCOL_VERSION,
                        "capabilities": {"tools": {}},
                        "serverInfo": {"name": "oboyu-ray", "version": "0.2"},
                    }
                )
            if method == "ping":
                return ok({})
            if method == "tools/list":
                return ok({"tools": TOOLS})
            if method == "tools/call":
                params = msg.get("params", {})
                name = params.get("name")
                args = params.get("arguments", {}) or {}
                fn = {
                    "search": self.tool_search,
                    "index_directory": self.tool_index_directory,
                    "get_index_info": self.tool_get_index_info,
                }.get(name)
                if fn is None:
                    return err(-32602, f"unknown tool {name!r}")
                result = fn(**args)
                return ok(
                    {
                        "content": [{"type": "text", "text": json.dumps(result)}],
                        "isError": False,
                    }
                )
            return err(-32601, f"method not found: {method}")
        except Exception as e:  # tool errors surface as MCP tool errors
            if method == "tools/call":
                return ok(
                    {
                        "content": [{"type": "text", "text": f"{type(e).__name__}: {e}"}],
                        "isError": True,
                    }
                )
            return err(-32603, f"{type(e).__name__}: {e}")

    def close(self) -> None:
        for eng in self._engines.values():
            eng.close()
        self._engines.clear()


def serve(inp: TextIO, out: TextIO) -> None:
    """Newline-delimited JSON-RPC loop until EOF."""
    server = McpServer()
    try:
        for line in inp:
            line = line.strip()
            if not line:
                continue
            try:
                msg = json.loads(line)
            except json.JSONDecodeError:
                resp = {
                    "jsonrpc": "2.0",
                    "id": None,
                    "error": {"code": -32700, "message": "parse error"},
                }
            else:
                resp = server.handle(msg)
            if resp is not None:
                out.write(json.dumps(resp) + "\n")
                out.flush()
    finally:
        server.close()


def main() -> None:
    import argparse

    import ray

    argparse.ArgumentParser(description="oboyu-ray MCP stdio server").parse_known_args()
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    try:
        serve(sys.stdin, sys.stdout)
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
