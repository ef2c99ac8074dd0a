"""File-corpus indexing — the `oboyu index DIR` / `oboyu search` equivalent.

Composes the engine's existing pieces end-to-end over a document directory
(reference lifecycle SURVEY §3.1/3.2):

    discover (S1) → read + front-matter (S2/S3) → chunk (M4, 1024/256) →
    transcripts-shaped table (conv_id = file path, turn_idx = chunk_index)
    → the SAME distributed index build → QueryEngine search.

Mapping a chunked file corpus onto the transcript schema is exact: the
north-rule document key (conv_id, turn_idx) becomes (path, chunk_index),
doc_ids read "path:chunk_index", and every build/query property
(checkpointed resume, rank-identity, hydration) carries over unchanged.
`get_index_info` mirrors the reference MCP tool of the same name
(mcp/server.py:271; stats shape from bm25_indexer.py:150-185).
"""

from __future__ import annotations

import datetime
import os
from typing import Dict, Iterator, List, Optional

import pyarrow as pa

import ray.data

from oboyu_ray.config import BuildConfig, DEFAULT_BUILD_CONFIG
from oboyu_ray.functions.textproc import DEFAULT_CHUNK_OVERLAP, DEFAULT_CHUNK_SIZE, chunk_text
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.query import QueryEngine
from oboyu_ray.sources.files import discover_files, read_documents
from oboyu_ray.state.checkpoint import atomic_write_table

_EPOCH = datetime.datetime(2025, 1, 1)


def corpus_to_transcripts(
    docs: "ray.data.Dataset",
    out_dir: str,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    chunk_overlap: int = DEFAULT_CHUNK_OVERLAP,
    files_per_shard: int = 64,
) -> List[str]:
    """(path, title, uri, text) docs → transcript-schema parquet shards.

    conv_id = file path (unique, stable), turn_idx = chunk index, role
    carries the title, tool carries the uri.  Shards are written per input
    batch; each file's chunks stay together (the conv-contiguity assumption
    of the zero-shuffle conv_map path holds by construction because input
    batches partition the path-sorted document stream)."""
    os.makedirs(out_dir, exist_ok=True)

    def to_turns(batch: pa.Table) -> pa.Table:
        cols: Dict[str, List] = {k: [] for k in ("conv_id", "turn_idx", "role", "text", "tool", "ts")}
        for row in batch.to_pylist():
            for i, chunk in enumerate(chunk_text(row["text"] or "", chunk_size, chunk_overlap)):
                cols["conv_id"].append(row["path"])
                cols["turn_idx"].append(i)
                cols["role"].append(row["title"] or "")
                cols["text"].append(chunk)
                cols["tool"].append(row["uri"] or "")
                cols["ts"].append(_EPOCH)
        return pa.table(
            {
                "conv_id": pa.array(cols["conv_id"], type=pa.string()),
                "turn_idx": pa.array(cols["turn_idx"], type=pa.int32()),
                "role": pa.array(cols["role"], type=pa.string()),
                "text": pa.array(cols["text"], type=pa.string()),
                "tool": pa.array(cols["tool"], type=pa.string()),
                "ts": pa.array(cols["ts"], type=pa.timestamp("us")),
            }
        )

    turns = docs.map_batches(to_turns, batch_format="pyarrow", batch_size=files_per_shard)
    paths: List[str] = []
    for i, batch in enumerate(turns.iter_batches(batch_format="pyarrow")):
        path = os.path.join(out_dir, f"corpus-{i:05d}.parquet")
        atomic_write_table(path, batch)
        paths.append(path)
    return paths


def index_directory(
    root: str,
    index_dir: str,
    include_patterns: Optional[List[str]] = None,
    exclude_patterns: Optional[List[str]] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    chunk_overlap: int = DEFAULT_CHUNK_OVERLAP,
    cfg: BuildConfig = DEFAULT_BUILD_CONFIG,
) -> Dict[str, object]:
    """`oboyu index DIR` equivalent: discover → read → chunk → build.
    Returns the build report.  Re-running resumes/refreshes incrementally
    through the ordinary checkpoint lineage."""
    files = discover_files(root, include_patterns, exclude_patterns)
    if not files:
        raise ValueError(f"no indexable files under {root!r}")
    docs = read_documents(files)
    shards = corpus_to_transcripts(
        docs, os.path.join(index_dir, "corpus"), chunk_size, chunk_overlap
    )
    return build_index(shards, index_dir, cfg)


def open_search(index_dir: str, num_shards: Optional[int] = None) -> QueryEngine:
    """`oboyu search` backend: the regular QueryEngine over a file-corpus
    index — result doc_ids read "path:chunk_index" and ``hydrate=True``
    returns chunk text."""
    return QueryEngine(index_dir, num_shards=num_shards)


def get_index_info(index_dir: str) -> Dict[str, object]:
    """`get_index_info` MCP-tool equivalent (reference mcp/server.py:271)."""
    import json

    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    with open(os.path.join(index_dir, "build_report.json")) as f:
        report = json.load(f)
    return {
        "document_count": stats["N"],
        "vocabulary_size": stats["n_terms"],
        "total_document_length": stats["total_dl"],
        "avg_document_length": stats["avgdl"],
        "total_postings": report["total_postings"],
        "payload_bytes": report["payload_bytes"],
        "n_partitions": report["n_parts"],
        "timings_sec": report["timings_sec"],
    }
