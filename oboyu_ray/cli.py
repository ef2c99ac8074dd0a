"""Job entrypoints — `ray job submit`-compatible build and query drivers.

On a cluster:

    ray job submit --working-dir . -- \
        python -m oboyu_ray.cli build --transcripts '/data/transcripts/*.parquet' \
        --index-dir /data/index

    python -m oboyu_ray.cli query --index-dir /data/index --q "検索 エンジン" -k 10

Locally the same commands run against `ray.init(address="local")`.  These
are the only module-level owners of a Ray session besides bench.py and the
test fixture; the library itself never calls ray.init (driver contract).
"""

from __future__ import annotations

import argparse
import glob
import json
import sys


def _ensure_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "ignore_reinit_error": True}
        if num_cpus is not None:
            kwargs["num_cpus"] = num_cpus
        # under `ray job submit` RAY_ADDRESS points at the cluster; standalone
        # it defaults to a fresh local session
        ray.init(**kwargs)


def build_settings(args: argparse.Namespace):
    """``(BuildConfig, files_per_part)`` of a ``build`` invocation:
    CLI > --config YAML > dataclass defaults (None = flag not provided)."""
    from oboyu_ray.config_loader import ConfigManager

    cm = ConfigManager(getattr(args, "config", None))
    return cm.build_config(
        build_overrides={
            "files_per_part": getattr(args, "files_per_part", None),
            "window_docs": getattr(args, "window_docs", None),
            "vocab_buckets": getattr(args, "vocab_buckets", None),
            "store_positions": getattr(args, "store_positions", None),
        },
        bm25_overrides={
            "k1": getattr(args, "k1", None),
            "b": getattr(args, "b", None),
        },
    )


def cmd_build(args: argparse.Namespace) -> int:
    _ensure_ray(args.num_cpus)
    from oboyu_ray.pipelines.build_index import build_index

    in_format = getattr(args, "format", "parquet")  # absent on programmatic Namespaces
    files = sorted(glob.glob(args.transcripts))
    if not files:
        print(f"no {in_format} files match {args.transcripts!r}", file=sys.stderr)
        return 2
    if in_format == "jsonl":
        # normalize-at-the-edge: resumable distributed JSONL→parquet shard
        # conversion, then the ordinary columnar build path
        import os

        from oboyu_ray.sources.jsonl import jsonl_to_parquet_shards

        files = jsonl_to_parquet_shards(
            files,
            os.path.join(args.index_dir, "converted_shards"),
            strict=not getattr(args, "lenient", False),
        )
    cfg, files_per_part = build_settings(args)
    report = build_index(files, args.index_dir, cfg, files_per_part=files_per_part)
    print(json.dumps(report["timings_sec"] | {
        "n_docs": report["n_docs"],
        "n_terms": report["n_terms"],
        "payload_bytes": report["payload_bytes"],
    }))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from oboyu_ray.config_loader import ConfigManager
    from oboyu_ray.pipelines import search_modes

    a = {**search_modes.CLI_DEFAULTS, **vars(args)}
    req = search_modes.cli_request(a)
    try:
        search_modes.validate(req)
        search_modes.read_cli_files(req)
        # CLI > --config YAML > defaults (None = flag not provided); a file
        # default applies only where the mode honours it, never refused
        qcfg = ConfigManager(a["config"]).merge_cli_overrides(
            "query", {key: a[key] for key in ("k", "num_shards", "hydrate", "require_all")})
    except (OSError, ValueError) as e:
        print(f"query: {e}", file=sys.stderr)
        return 2
    req.k, req.hydrate = int(qcfg["k"]), bool(qcfg["hydrate"])
    req.require_all = bool(qcfg["require_all"])
    _ensure_ray(a["num_cpus"])
    from oboyu_ray.pipelines.query import QueryEngine

    members = [a["index_dir"]] + [d for d in (req.federate or "").split(",") if d]
    try:  # a pool the cluster cannot hold or disagreeing members
        engine = QueryEngine(members, num_shards=qcfg["num_shards"])
    except ValueError as e:
        print(f"query: {e}", file=sys.stderr)
        return 2
    try:
        out = search_modes.run(engine, req)
    finally:
        engine.close()
    print(out if req.count else out.to_string(index=False))
    return 0


def cmd_build_fuzzy(args: argparse.Namespace) -> int:
    """Build the FastSS deletion-neighborhood sidecar for fuzzy retrieval."""
    _ensure_ray(args.num_cpus)
    from oboyu_ray.config_loader import ConfigManager
    from oboyu_ray.state.fuzzy_index import build_fuzzy_sidecar

    fcfg = ConfigManager(getattr(args, "config", None)).merge_cli_overrides(
        "fuzzy",
        {"max_edits": getattr(args, "max_edits", None),
         "buckets": getattr(args, "buckets", None)},
    )
    manifest = build_fuzzy_sidecar(
        args.index_dir, max_edits=int(fcfg["max_edits"]),
        n_buckets=int(fcfg["buckets"]),
    )
    print(json.dumps(manifest))
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    """Physically merge K built indexes into one monolith (segment merge)."""
    _ensure_ray(args.num_cpus)
    from oboyu_ray.pipelines.merge_index import merge_indexes

    report = merge_indexes(
        args.members,
        args.out_dir,
        vocab_buckets=args.vocab_buckets,
        build_sidecar=(None if args.sidecar == "auto" else args.sidecar == "yes"),
    )
    print(json.dumps({
        "n_docs": report["n_docs"], "n_parts": report["n_parts"],
        "n_terms": report["n_terms"], **report["timings_sec"],
    }))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Index integrity check (Lucene CheckIndex analog) — exit 1 on any
    inconsistency, 0 on a clean report."""
    _ensure_ray(args.num_cpus)
    from oboyu_ray.pipelines.check_index import check_index

    report = check_index(args.index_dir, sample_terms=args.sample_terms)
    print(json.dumps(report))
    return 0 if report["ok"] else 1


def cmd_explain(args: argparse.Namespace) -> int:
    """Per-term score breakdown for one document (Lucene explain shape)."""
    _ensure_ray(args.num_cpus)
    from oboyu_ray.pipelines.query import QueryEngine

    engine = QueryEngine(args.index_dir, num_shards=args.num_shards)
    out = engine.explain(args.q, args.doc)
    print(out.to_string(index=False))
    print(f"total_score {float(out['contribution'].sum()):.6f}")
    engine.close()
    return 0


def cmd_index_dir(args: argparse.Namespace) -> int:
    """`oboyu index DIR` equivalent over a file corpus."""
    _ensure_ray(args.num_cpus)
    from oboyu_ray.config_loader import ConfigManager
    from oboyu_ray.pipelines.file_index import index_directory

    dcfg = ConfigManager(getattr(args, "config", None)).merge_cli_overrides(
        "index_dir",
        {"include": getattr(args, "include", None),
         "exclude": getattr(args, "exclude", None),
         "chunk_size": getattr(args, "chunk_size", None),
         "chunk_overlap": getattr(args, "chunk_overlap", None)},
    )
    report = index_directory(
        args.root,
        args.index_dir,
        include_patterns=dcfg["include"].split(",") if dcfg["include"] else None,
        exclude_patterns=dcfg["exclude"].split(",") if dcfg["exclude"] else None,
        chunk_size=int(dcfg["chunk_size"]),
        chunk_overlap=int(dcfg["chunk_overlap"]),
    )
    print(json.dumps({"n_docs": report["n_docs"], "n_terms": report["n_terms"],
                      **report["timings_sec"]}))
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    """Run one named driver-contract corpus query and land it as parquet."""
    _ensure_ray(args.num_cpus)
    import __ray_entry__ as entrymod  # repo-root module (cwd = repo or working_dir)

    qs = entrymod.queries()
    if args.name not in qs:
        print(f"unknown query {args.name!r}; available: {sorted(qs)}", file=sys.stderr)
        return 2
    from oboyu_ray.sources.sinks import write_result

    result = qs[args.name](args.sf_dir)
    manifest = write_result(result, args.out)
    print(json.dumps(manifest))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oboyu_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build the BM25 index over transcripts parquet")
    b.add_argument("--transcripts", required=True, help="glob of transcript input files")
    b.add_argument("--format", choices=["parquet", "jsonl"], default="parquet",
                   help="input shard format (jsonl converts once into "
                        "<index-dir>/converted_shards, then builds columnar)")
    b.add_argument("--index-dir", required=True)
    b.add_argument("--lenient", action="store_true",
                   help="jsonl only: quarantine malformed lines (counted in "
                        "conversion_manifest.json) instead of failing the shard")
    b.add_argument("--config", default=None, metavar="YAML",
                   help="sectioned YAML config (build/bm25 sections); "
                        "precedence: CLI flags > file > defaults")
    b.add_argument("--files-per-part", type=int, default=None,
                   help="input files per build partition; 0 (default) packs "
                        "consecutive files by input bytes (~2 MiB per "
                        "partition, no fewer partitions than CPUs)")
    b.add_argument("--window-docs", type=int, default=None,
                   help="aligned posting-block width in docs (default 8192)")
    b.add_argument("--store-positions", action="store_true", default=None,
                   help="positional index (enables `query --phrase`)")
    b.add_argument("--vocab-buckets", type=int, default=None,
                   help="vocabulary hash buckets (default 32)")
    b.add_argument("--k1", type=float, default=None, help="BM25 k1 (default 1.2)")
    b.add_argument("--b", type=float, default=None, help="BM25 b (default 0.75)")
    b.add_argument("--num-cpus", type=int, default=None)
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="top-k BM25 query against a built index")
    q.add_argument("--index-dir", required=True)
    q.add_argument("--q", default=None,
                   help="query text (required except with --regex/--wildcard)")
    q.add_argument("--config", default=None, metavar="YAML",
                   help="sectioned YAML config (query section); "
                        "precedence: CLI flags > file > defaults")
    q.add_argument("-k", type=int, default=None, help="top-k (default 10)")
    q.add_argument("--num-shards", type=int, default=None)
    q.add_argument("--hydrate", action="store_true", default=None)
    q.add_argument("--collapse", action="store_true", default=False,
                   help="collapse results by conversation: top-k "
                        "CONVERSATIONS ranked by their best turn, one row "
                        "each (Solr field-collapse shape)")
    q.add_argument("--count", action="store_true", default=False,
                   help="print the total matching-document count instead of "
                        "ranked results (composes with --require-all / "
                        "--exclude / --scope)")
    q.add_argument("--snippet", action="store_true", default=False,
                   help="attach a highlighted match snippet per result "
                        "(reference search-result shape; implies hydration)")
    q.add_argument("--phrase", action="store_true",
                   help="exact adjacency phrase retrieval (positional index)")
    q.add_argument("--prefix", action="store_true",
                   help="wildcard pre* retrieval (vocabulary prefix expansion)")
    q.add_argument("--fuzzy", type=int, default=None, metavar="D",
                   help="fuzzy term~D retrieval (vocabulary expansion within "
                        "levenshtein distance D)")
    q.add_argument("--regex", default=None, metavar="PATTERN",
                   help="regex term retrieval: every vocabulary term fully "
                        "matching the RE2 pattern, scored as BM25 OR "
                        "(--q is ignored)")
    q.add_argument("--wildcard", default=None, metavar="PATTERN",
                   help="wildcard term retrieval (* any run, ? one char), "
                        "rewritten to the regex path (--q is ignored)")
    q.add_argument("--more-like", default=None, metavar="DOC_NUM",
                   help="more-like-this: rank documents similar to the "
                        "given doc_num (--q is ignored)")
    q.add_argument("--bool", dest="bool_expr", default=None, metavar="EXPR",
                   help="boolean retrieval: '(a AND b) OR c NOT d' over "
                        "index terms; negated clauses filter, positive "
                        "terms score (--q is ignored)")
    q.add_argument("--synonyms", default=None, metavar="JSON",
                   help="blended synonym retrieval: JSON file mapping "
                        "term -> [synonyms...]; each query token's group "
                        "scores as one term (SynonymQuery semantics)")
    q.add_argument("--dismax", type=float, default=None, metavar="TB",
                   help="disjunction-max scoring with tiebreak TB: per doc "
                        "max + TB*(sum-max) over single-term contributions "
                        "(Lucene DisjunctionMaxQuery)")
    q.add_argument("--boosts", default=None, metavar="JSON",
                   help="per-term query-time boost map file (term -> float); "
                        "score = sum(boost_t * bm25_t), absent terms boost 1.0")
    q.add_argument("--exclude", default=None,
                   help="boolean NOT terms: documents containing any never rank")
    q.add_argument("--span-near", dest="span_near", type=int, default=None,
                   metavar="W",
                   help="ordered span retrieval: the query's terms IN ORDER "
                        "within a position extent of W (window m-1 = exact "
                        "phrase; positional index required)")
    q.add_argument("--near", type=int, default=None, metavar="W",
                   help="proximity: the two terms in --q within W tokens (positional index)")
    q.add_argument("--page", type=int, default=0,
                   help="result page (0-based): exact rows k*page+1..k*(page+1) "
                        "of the global ranking; plain search mode only")
    q.add_argument("--require-all", action="store_true", default=None,
                   help="conjunctive (AND) retrieval: only docs containing "
                        "every query term rank")
    q.add_argument("--scope", default=None, metavar="LO:HI",
                   help="scoped retrieval: candidates restricted to the "
                        "doc_num interval [LO, HI) (full-corpus statistics)")
    q.add_argument("--federate", default=None, metavar="DIR[,DIR...]",
                   help="federated search: additional member index dirs "
                        "served with --index-dir as one index (one shard "
                        "pool, summed statistics, every mode); --num-shards "
                        "is per member, and --scope is in the engine's "
                        "global doc numbers (each member shifted by the "
                        "window-rounded doc spans of the members before it)")
    q.add_argument("--num-cpus", type=int, default=None)
    q.set_defaults(fn=cmd_query)

    bf = sub.add_parser("build-fuzzy",
                        help="build the FastSS sidecar (point-read fuzzy expansion)")
    bf.add_argument("--index-dir", required=True)
    bf.add_argument("--config", default=None, metavar="YAML",
                    help="sectioned YAML config (fuzzy section)")
    bf.add_argument("--max-edits", type=int, default=None,
                    help="levenshtein radius of the sidecar (default 1)")
    bf.add_argument("--buckets", type=int, default=None,
                    help="sidecar hash buckets (default 32)")
    bf.add_argument("--num-cpus", type=int, default=None)
    bf.set_defaults(fn=cmd_build_fuzzy)

    mg = sub.add_parser(
        "merge",
        help="physically merge built indexes into one monolith "
             "(no re-tokenize; posting payloads carry over byte-identical)",
    )
    mg.add_argument("members", nargs="+", help="member index dirs (disjoint conv ranges)")
    mg.add_argument("--out-dir", required=True)
    mg.add_argument("--vocab-buckets", type=int, default=None)
    mg.add_argument("--sidecar", choices=["auto", "yes", "no"], default="auto",
                    help="rebuild the fuzzy sidecar over the merged vocabulary "
                         "(auto: when every member has one)")
    mg.add_argument("--num-cpus", type=int, default=None)
    mg.set_defaults(fn=cmd_merge)

    ck = sub.add_parser("check", help="index integrity check (structure, stats, "
                        "vocab, blocks==postings, block-max bounds, conv map)")
    ck.add_argument("--index-dir", required=True)
    ck.add_argument("--sample-terms", type=int, default=64,
                    help="vocabulary terms to deep-verify (blocks decode == "
                         "raw postings == vocab df/cf; bounds re-baked)")
    ck.add_argument("--num-cpus", type=int, default=None)
    ck.set_defaults(fn=cmd_check)

    x = sub.add_parser("explain", help="per-term score breakdown for one document")
    x.add_argument("--index-dir", required=True)
    x.add_argument("--q", required=True)
    x.add_argument("--doc", type=int, required=True, help="doc_num to explain")
    x.add_argument("--num-shards", type=int, default=None)
    x.add_argument("--num-cpus", type=int, default=None)
    x.set_defaults(fn=cmd_explain)

    d = sub.add_parser("index-dir", help="index a document directory (oboyu index DIR equivalent)")
    d.add_argument("--root", required=True)
    d.add_argument("--index-dir", required=True)
    d.add_argument("--config", default=None, metavar="YAML",
                   help="sectioned YAML config (index_dir section)")
    d.add_argument("--include", default=None, help="comma-separated globs (default *.txt,*.md)")
    d.add_argument("--exclude", default=None)
    d.add_argument("--chunk-size", type=int, default=None,
                   help="chunk size in chars (default 1024)")
    d.add_argument("--chunk-overlap", type=int, default=None,
                   help="chunk overlap in chars (default 256)")
    d.add_argument("--num-cpus", type=int, default=None)
    d.set_defaults(fn=cmd_index_dir)

    c = sub.add_parser("corpus", help="run a named corpus query, write parquet + manifest")
    c.add_argument("--name", required=True)
    c.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    c.add_argument("--out", required=True)
    c.add_argument("--num-cpus", type=int, default=None)
    c.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rc = args.fn(args)

    import ray

    ray.shutdown()
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
