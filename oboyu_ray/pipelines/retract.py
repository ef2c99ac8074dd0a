"""Document retraction (SURVEY §2.9).

The reference retracts documents by mutating its in-memory index
(`inverted_index_builder.py:70-92` — an O(vocabulary) scan — plus
`bm25_statistics_calculator.py:189-217` for the statistics).  The
distributed analog here is *rebuild the affected partitions*: retraction is
an input-level filter composed with the engine's content-sensitive
incremental build (state/checkpoint.py lineage):

1. ``retract_conversations`` rewrites only the transcript files that
   contain a retracted conversation (parallel map tasks; untouched files
   keep their original paths and signatures).
2. Re-running ``build_index`` then rebuilds exactly the affected
   partitions' docs/postings/partials, the vocabulary buckets they feed,
   and — because N/avgdl moved — the block-max metadata, all through the
   ordinary lineage invalidation (tested in test_build_pipeline.py).

This keeps retraction exact (statistics and scores equal a from-scratch
build over the filtered corpus) with work proportional to the retracted
partitions, not the corpus.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from oboyu_ray.pipelines.build_index import run_specs
from oboyu_ray.state.checkpoint import atomic_write_table


def retract_conversations(
    transcript_files: Sequence[str],
    conv_ids: Sequence[str],
    out_dir: str,
) -> List[str]:
    """Filter the given conversations out of a transcript corpus.

    Returns a new file list where files containing retracted conversations
    are rewritten under ``out_dir`` (same basename) and all other files are
    the ORIGINAL paths — so a subsequent incremental ``build_index`` only
    rebuilds the partitions the retraction touched.
    """
    os.makedirs(out_dir, exist_ok=True)
    removed = pa.array(sorted(set(conv_ids)), type=pa.string())

    def filter_one(row: Dict) -> pa.Table:
        f = row["file"]
        t = pq.read_table(f)
        mask = pc.is_in(t.column("conv_id"), value_set=removed)
        n_hit = int(pc.sum(mask.cast(pa.int8())).as_py() or 0)
        if n_hit == 0:
            return pa.table({"file": [f], "out": [f], "removed_turns": [0]})
        kept = t.filter(pc.invert(mask))
        out_path = os.path.join(out_dir, os.path.basename(f))
        atomic_write_table(out_path, kept)
        return pa.table({"file": [f], "out": [out_path], "removed_turns": [n_hit]})

    results = run_specs([{"file": f} for f in transcript_files], filter_one)
    by_file = {r["file"]: r["out"] for r in results}
    return [by_file[f] for f in transcript_files]
