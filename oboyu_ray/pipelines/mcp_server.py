"""MCP (Model Context Protocol) stdio transport over the file-index API.

Reference parity: `src/oboyu/mcp/server.py:70-300` exposes three tools —
``search``, ``index_directory``, ``get_index_info`` — via FastMCP.  The
heavy MCP SDK isn't in this container, but the protocol itself is public
and small: newline-delimited JSON-RPC 2.0 over stdio with ``initialize`` /
``tools/list`` / ``tools/call``.  This module implements exactly that with
the stdlib, delegating tool bodies to ``pipelines/file_index.py`` (the
plain-python API the reference's tools wrap); ``search`` answers through
the retrieval-mode table of ``pipelines/search_modes.py``, like CLI
``query``.

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

    def tool_search(self, query: str, index_dir: str, top_k: int = 5,
                    **options) -> Dict:
        from oboyu_ray.pipelines import search_modes

        req = search_modes.mcp_request(query, top_k, **options)
        search_modes.validate(req)  # refused before the engine opens
        out = search_modes.run(self._engine(index_dir), req)
        if req.count:
            return {"count": out, "stats": {"query": query}}
        results = [
            {"uri": str(r["doc_id"]), "score": float(r["score"]),
             "content": r.get("snippet" if req.snippet else "text", r.get("text", ""))}
            for r in out.to_dict("records")
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
