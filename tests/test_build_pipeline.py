"""End-to-end engine tests: build the compressed index over synthetic
transcripts, query via shard actors with block-max pruning, and assert
rank-identity against (a) the Dataset-native brute-force scorer and (b) the
reference BM25Indexer oracle.  Plus resume and determinism properties."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from oboyu_ray.config import BM25Config, BuildConfig
from oboyu_ray.pipelines.bm25_batch import brute_force_scores, tokenize_queries
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.query import QueryEngine
from oboyu_ray.sources.transcripts import write_synth_transcripts
from tests.reference_oracle import load_reference

CFG = BM25Config()

N_CONVS = 300
QUERIES = [
    "検索 インデックス",
    "python model",
    "です",            # hot term → negative idf likely
    "compress 圧縮 decode",
    "zzz_nohit",
    "token",
    "データ 処理 分散",
]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    base = tmp_path_factory.mktemp("engine")
    data_dir = str(base / "transcripts")
    index_dir = str(base / "index")
    files = write_synth_transcripts(data_dir, n_convs=N_CONVS, seed=11, convs_per_file=50)
    cfg = BuildConfig(window_docs=256)  # small windows → pruning actually exercised
    report = build_index(files, index_dir, cfg, files_per_part=2)
    return {"files": files, "index_dir": index_dir, "report": report, "cfg": cfg}


@pytest.fixture(scope="module")
def engine(built):
    eng = QueryEngine(built["index_dir"], num_shards=2)
    yield eng
    eng.close()


def load_pairs(files):
    t = pa.concat_tables([pq.read_table(f) for f in files])
    return [
        (f"{c}:{ti:08d}", x)
        for c, ti, x in zip(
            t["conv_id"].to_pylist(), t["turn_idx"].to_pylist(), t["text"].to_pylist()
        )
    ]


def test_report_sanity(built):
    r = built["report"]
    assert r["n_docs"] > 1000
    assert r["n_terms"] > 50
    assert r["total_postings"] > r["n_terms"]
    # compression: payload bytes well under raw 8B/posting for docs alone
    assert r["payload_bytes"] < r["total_postings"] * 24


def test_docs_text_equality_with_source(built):
    """North-rule invariant: per-turn text byte-equality under stable
    (conv_id, turn_idx) ordering."""
    src = pa.concat_tables([pq.read_table(f) for f in built["files"]])
    src = src.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    docs_dir = os.path.join(built["index_dir"], "docs")
    docs = pa.concat_tables(
        [pq.read_table(os.path.join(docs_dir, f)) for f in sorted(os.listdir(docs_dir))]
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert docs.num_rows == src.num_rows
    assert docs.column("text").to_pylist() == src.column("text").to_pylist()
    assert docs.column("conv_id").to_pylist() == src.column("conv_id").to_pylist()
    # doc_num is dense 0..N-1 (conversation offsets + dense turn_idx)
    dn = np.sort(docs.column("doc_num").to_numpy())
    assert np.array_equal(dn, np.arange(len(dn)))


def test_stats_match_reference(built):
    REF = load_reference()
    pairs = load_pairs(built["files"])
    ridx = REF.BM25Indexer()
    ridx.index_chunks([REF.make_chunk(i, c) for i, c in pairs])
    stats = json.load(open(os.path.join(built["index_dir"], "stats.json")))
    assert stats["N"] == ridx.document_count
    assert stats["total_dl"] == ridx.total_document_length
    assert stats["n_terms"] == len(ridx.document_frequencies)


def test_wand_matches_brute_force(built, engine):
    """The compressed/pruned path must be score-exact vs the Dataset brute
    force (same float64 expression, candidate-set semantics)."""
    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    queries = tokenize_queries(QUERIES, CFG)
    stats = json.load(open(os.path.join(built["index_dir"], "stats.json")))
    brute = brute_force_scores(
        docs_ds, queries, CFG, id_col="doc_num", text_col="text",
        stats={"N": stats["N"], "total_dl": stats["total_dl"], "avgdl": stats["avgdl"]},
    )
    k = 12
    for q, terms in queries.items():
        b = brute[brute.query_id == q]
        b = b.sort_values(["score", "doc_num"], ascending=[False, True], kind="mergesort")
        got = engine.search_terms(terms, k=k)
        expect = b.head(k)
        assert len(got) == min(k, len(b)), q
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), q
        np.testing.assert_allclose(
            got["score"].to_numpy(), expect["score"].to_numpy(), rtol=1e-9, atol=1e-12
        )


def test_conjunctive_engine_matches_brute_force(built, engine):
    """query_all (window-intersection AND path) must be rank- and
    score-identical to the Dataset brute force with require_all=True,
    including strict-empty on corpus-absent terms."""
    from oboyu_ray.pipelines.bm25_batch import brute_force_topk

    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    queries = tokenize_queries(QUERIES, CFG)
    stats = json.load(open(os.path.join(built["index_dir"], "stats.json")))
    k = 12
    brute = brute_force_topk(
        docs_ds, queries, k=k, cfg=CFG, id_col="doc_num", text_col="text",
        stats={"N": stats["N"], "total_dl": stats["total_dl"], "avgdl": stats["avgdl"]},
        require_all=True,
    )
    from oboyu_ray.pipelines.bm25_batch import score_micros

    for q, terms in queries.items():
        got = engine.search_terms(terms, k=k, require_all=True)
        expect = brute[brute.query_id == q]
        assert len(got) == len(expect), q
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), q
        if len(got):
            np.testing.assert_array_equal(
                score_micros(got["score"].to_numpy()),
                expect["score_micros"].to_numpy(), err_msg=q,
            )
        # conjunctive results are a subset of the unrestricted candidates
        loose = engine.search_terms(terms, k=1000)
        assert set(got["doc_num"]) <= set(loose["doc_num"]) or len(got) == 0
    # absent term → strict empty
    assert len(engine.search_terms(["token", "zzz_nohit"], k=5, require_all=True)) == 0


def test_search_many_require_all_matches_single(built, engine):
    """Batched conjunctive == per-query conjunctive (incl. an absent-term
    query that must come back strict-empty in the batch)."""
    qs = ["token 検索", "です", "python model", "token zzz_nohit"]
    batched = engine.search_many(qs, k=8, require_all=True)
    for q, got in zip(qs, batched):
        single = engine.search_terms(engine.tokenizer.tokenize(q), k=8, require_all=True)
        assert got["doc_num"].tolist() == single["doc_num"].tolist(), q
    assert len(batched[3]) == 0  # absent term → strict empty


def test_engine_matches_reference_oracle(built, engine):
    """Rank-identical top-k docIDs + scores vs the reference BM25Indexer."""
    from tests.reference_oracle import reference_topk

    REF = load_reference()
    pairs = load_pairs(built["files"])
    ridx = REF.BM25Indexer()
    ridx.index_chunks([REF.make_chunk(i, c) for i, c in pairs])
    k = 10
    for q in QUERIES:
        terms = engine.tokenizer.tokenize(q)
        # candidate set = union of posting lists (DAAT semantics)
        cand = {e[0] for t in terms for e in ridx.inverted_index.get(t, [])}
        scored = [
            (d, s) for d, s in reference_topk(ridx, terms, k=len(pairs)) if d in cand
        ][:k]
        got = engine.search(q, k=k)
        assert got["doc_id"].tolist() == [d for d, _ in scored], q
        np.testing.assert_allclose(
            got["score"].to_numpy(), [s for _, s in scored], rtol=1e-9, atol=1e-12
        )


def test_hydration(engine):
    got = engine.search("python model", k=5, hydrate=True)
    assert len(got) == 5
    assert got["text"].notna().all()
    low = got["text"].str.lower()
    assert (low.str.contains("python") | low.str.contains("model")).all()


def test_resume_is_noop_and_deterministic(built):
    """Re-running the build skips all committed partitions and leaves
    byte-identical artifacts."""
    index_dir = built["index_dir"]
    blocks_dir = os.path.join(index_dir, "blocks")
    before = {
        f: open(os.path.join(blocks_dir, f), "rb").read()
        for f in sorted(os.listdir(blocks_dir))
    }
    import time

    t0 = time.time()
    report2 = build_index(built["files"], index_dir, built["cfg"], files_per_part=2)
    resumed_sec = time.time() - t0
    assert report2["n_docs"] == built["report"]["n_docs"]
    after = {
        f: open(os.path.join(blocks_dir, f), "rb").read()
        for f in sorted(os.listdir(blocks_dir))
    }
    assert before == after
    assert resumed_sec < 60


def test_resume_after_partial_failure(built, tmp_path):
    """Delete one partition's outputs + manifest → rebuild regenerates ONLY
    that partition, byte-identical to the original."""
    index_dir = str(tmp_path / "index2")
    shutil.copytree(built["index_dir"], index_dir)
    victim = built["report"]["parts"][1]
    blocks_path = os.path.join(index_dir, "blocks", f"blocks-{victim:05d}.parquet")
    original = open(blocks_path, "rb").read()
    os.remove(blocks_path)
    os.remove(os.path.join(index_dir, "manifests", "blocks", f"part-{victim}.json"))
    build_index(built["files"], index_dir, built["cfg"], files_per_part=2)
    regenerated = open(blocks_path, "rb").read()
    assert regenerated == original


INDEX_SUBDIRS = ("docs", "postings", "dls", "blocks", "vocab", "vocab_partials", "conv_map")


def _index_bytes(index_dir: str) -> dict:
    """{relative path: bytes} of an index's parquet tables and stats.json."""
    out = {"stats.json": open(os.path.join(index_dir, "stats.json"), "rb").read()}
    for sub in INDEX_SUBDIRS:
        for f in sorted(os.listdir(os.path.join(index_dir, sub))):
            if f.endswith(".parquet"):
                out[f"{sub}/{f}"] = open(os.path.join(index_dir, sub, f), "rb").read()
    return out


def test_build_is_identical_at_any_job_width(tmp_path, monkeypatch):
    """Phase jobs cut their partitions (and vocabulary bucket slices) into
    one block per cluster CPU.  One block, or five, must write the same
    bytes: the job width changes only which task runs which partition."""
    from oboyu_ray.pipelines import build_index as bi

    files = write_synth_transcripts(str(tmp_path / "t"), n_convs=120, seed=5, convs_per_file=20)
    cfg = BuildConfig(window_docs=256, store_positions=True)
    trees, asked = {}, []
    for cpus in (1, 5):
        monkeypatch.setattr(bi, "_cluster_cpus", lambda n=cpus: asked.append(n) or n)
        report = build_index(files, str(tmp_path / f"idx{cpus}"), cfg, files_per_part=1)
        assert report["n_parts"] == len(files) == 6
        trees[cpus] = _index_bytes(str(tmp_path / f"idx{cpus}"))
    assert set(asked) == {1, 5}
    assert sorted(trees[1]) == sorted(trees[5])
    assert {k.split("/")[0] for k in trees[1]} == {"stats.json", *INDEX_SUBDIRS}
    assert [k for k in trees[1] if trees[1][k] != trees[5][k]] == []


def test_incremental_rebuild_after_content_change(built, tmp_path):
    """Change-detection lineage (file size+mtime signatures, the reference
    change_detector.py 'smart' strategy analog): editing ONE input file
    rebuilds only the affected partition (ingest/tokenize level) and
    converges to exactly the state a from-scratch build produces."""
    import time

    data_dir = str(tmp_path / "transcripts")
    files = write_synth_transcripts(data_dir, n_convs=120, seed=23, convs_per_file=30)
    cfg = built["cfg"]
    inc_dir = str(tmp_path / "index_inc")
    build_index(files, inc_dir, cfg, files_per_part=2)

    # edit one transcript file: replace the text of its first turn (same
    # conversation structure -> conv offsets unchanged)
    victim = files[2]
    t = pq.read_table(victim)
    texts = t.column("text").to_pylist()
    texts[0] = "完全に 新しい 内容 totally new incremental content"
    cols = {name: t.column(name) for name in t.schema.names}
    cols["text"] = pa.array(texts, type=pa.string())
    time.sleep(0.02)  # ensure mtime_ns moves even on coarse filesystems
    pq.write_table(pa.table(cols), victim)

    def mtimes(sub):
        d = os.path.join(inc_dir, sub)
        return {f: os.stat(os.path.join(d, f)).st_mtime_ns for f in os.listdir(d)}

    before_postings = mtimes("postings")
    before_docs = mtimes("docs")
    build_index(files, inc_dir, cfg, files_per_part=2)

    # ingest + tokenize are partition-local: only the victim partition's
    # docs/postings were rewritten (files[2] is in group 1, files_per_part=2).
    # Blocks legitimately rebuild everywhere: the edit changed global avgdl,
    # which the stored block-max bounds depend on (blocks lineage).
    changed_p = [f for f, m in mtimes("postings").items() if before_postings[f] != m]
    changed_d = [f for f, m in mtimes("docs").items() if before_docs[f] != m]
    assert changed_p == ["postings-00001.parquet"]
    assert changed_d == ["docs-00001.parquet"]

    # and the incremental state equals a from-scratch build
    fresh_dir = str(tmp_path / "index_fresh")
    build_index(files, fresh_dir, cfg, files_per_part=2)
    for sub in ("blocks", "vocab", "dls"):
        a_dir, b_dir = os.path.join(inc_dir, sub), os.path.join(fresh_dir, sub)
        assert sorted(os.listdir(a_dir)) == sorted(os.listdir(b_dir))
        for f in sorted(os.listdir(a_dir)):
            if f.endswith(".parquet"):
                assert (
                    open(os.path.join(a_dir, f), "rb").read()
                    == open(os.path.join(b_dir, f), "rb").read()
                ), (sub, f)
    inc_stats = json.load(open(os.path.join(inc_dir, "stats.json")))
    fresh_stats = json.load(open(os.path.join(fresh_dir, "stats.json")))
    assert inc_stats == fresh_stats


def test_cli_build_and_query(built, tmp_path, capsys):
    """`python -m oboyu_ray.cli` entrypoints (ray job submit driver): build
    into a fresh dir and query it — exercised in-process against the test
    Ray session (cmd_* don't own the session; main() does)."""
    import argparse

    from oboyu_ray.cli import cmd_build, cmd_query

    index_dir = str(tmp_path / "cli_index")
    rc = cmd_build(argparse.Namespace(
        transcripts=os.path.join(os.path.dirname(built["files"][0]), "*.parquet"),
        index_dir=index_dir, files_per_part=2, window_docs=256,
        vocab_buckets=8, k1=1.2, b=0.75, num_cpus=None,
    ))
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["n_docs"] == built["report"]["n_docs"]

    rc = cmd_query(argparse.Namespace(
        index_dir=index_dir, q="python model", k=5, num_shards=2,
        hydrate=False, num_cpus=None,
    ))
    assert rc == 0
    assert "doc_num" in capsys.readouterr().out


def test_cli_explain_runs(built, capsys):
    """Regression (round-5 review): the ConfigManager refactor left
    cmd_explain referencing a cmd_query-local variable — `cli explain`
    crashed with NameError on every invocation."""
    import argparse

    from oboyu_ray.cli import cmd_explain

    rc = cmd_explain(argparse.Namespace(
        index_dir=built["index_dir"], q="python model", doc=0,
        num_shards=2, num_cpus=None,
    ))
    assert rc == 0
    assert "total_score" in capsys.readouterr().out


def test_cli_regex_wildcard_modes(built, engine, capsys):
    """`query --regex` / `--wildcard` work without --q; plain mode without
    --q exits 2; --page refuses pattern modes (the silently-dropped-flag
    hazard)."""
    import argparse

    from oboyu_ray.cli import cmd_query

    base = dict(index_dir=built["index_dir"], q=None, k=5, num_shards=2,
                hydrate=False, num_cpus=None)
    rc = cmd_query(argparse.Namespace(**{**base, "regex": "tok(en)?s?"}))
    assert rc == 0 and "doc_num" in capsys.readouterr().out
    rc = cmd_query(argparse.Namespace(**{**base, "wildcard": "tok*"}))
    assert rc == 0 and "doc_num" in capsys.readouterr().out
    rc = cmd_query(argparse.Namespace(**{**base, "more_like": "0"}))
    assert rc == 0 and "doc_num" in capsys.readouterr().out
    rc = cmd_query(argparse.Namespace(
        **{**base, "bool_expr": "(token AND python) OR model"}))
    assert rc == 0 and "doc_num" in capsys.readouterr().out
    import json as _json
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        _json.dump({"token": ["model"]}, f)
    rc = cmd_query(argparse.Namespace(
        **{**base, "q": "token", "synonyms": f.name}))
    assert rc == 0 and "doc_num" in capsys.readouterr().out
    # dismax / boosts modes (both need --q)
    rc = cmd_query(argparse.Namespace(**{**base, "q": "token python", "dismax": 0.3}))
    assert rc == 0 and "doc_num" in capsys.readouterr().out
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        _json.dump({"token": 2.0}, f)
    rc = cmd_query(argparse.Namespace(
        **{**base, "q": "token python", "boosts": f.name}))
    assert rc == 0 and "doc_num" in capsys.readouterr().out
    # plain mode still requires --q
    rc = cmd_query(argparse.Namespace(**base))
    assert rc == 2 and "--q is required" in capsys.readouterr().err
    # pagination refuses pattern modes
    rc = cmd_query(argparse.Namespace(**{**base, "regex": "tok.*", "page": 1}))
    assert rc == 2 and "plain search mode" in capsys.readouterr().err
    rc = cmd_query(argparse.Namespace(**{**base, "q": "token", "dismax": 0.3, "page": 1}))
    assert rc == 2 and "plain search mode" in capsys.readouterr().err
    # one retrieval mode per invocation — combined modes are refused
    # instead of silently answering whichever wins elif precedence
    rc = cmd_query(argparse.Namespace(
        **{**base, "q": "token", "dismax": 0.3, "prefix": True}))
    assert rc == 2 and "mutually exclusive" in capsys.readouterr().err
    rc = cmd_query(argparse.Namespace(
        **{**base, "q": "token python", "phrase": True, "span_near": 3}))
    assert rc == 2 and "mutually exclusive" in capsys.readouterr().err


def test_hot_term_skew_balance(tmp_path):
    """North-rule skew handling, evidenced: a term present in EVERY document
    (df = N, strongly negative idf) cannot concentrate work — the index is
    document-partitioned, so its postings spread uniformly across partitions,
    and the vocabulary reduce sees one partial row per (partition, term)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from oboyu_ray.config import BM25Config, BuildConfig
    from oboyu_ray.pipelines.query import QueryEngine
    from oboyu_ray.stages.stats import idf as idf_fn

    data_dir = tmp_path / "hot"
    data_dir.mkdir()
    files = []
    n_files, convs_per_file, turns = 6, 40, 5
    for fi in range(n_files):
        cols = {"conv_id": [], "turn_idx": [], "role": [], "text": [], "tool": [], "ts": []}
        for ci in range(convs_per_file):
            conv = f"c{fi * convs_per_file + ci:06d}"
            for t in range(turns):
                cols["conv_id"].append(conv)
                cols["turn_idx"].append(t)
                cols["role"].append("user")
                cols["text"].append(f"ホット特売 every doc has this word w{fi}x{ci}y{t} unique{fi}_{ci}_{t}")
                cols["tool"].append("")
                import datetime

                cols["ts"].append(datetime.datetime(2025, 1, 1, 0, 0, t))
        path = str(data_dir / f"part-{fi}.parquet")
        pq.write_table(pa.table({
            "conv_id": pa.array(cols["conv_id"]),
            "turn_idx": pa.array(cols["turn_idx"], type=pa.int32()),
            "role": pa.array(cols["role"]),
            "text": pa.array(cols["text"]),
            "tool": pa.array(cols["tool"]),
            "ts": pa.array(cols["ts"], type=pa.timestamp("us")),
        }), path)
        files.append(path)

    index_dir = str(tmp_path / "hot_index")
    report = build_index(files, index_dir, BuildConfig(window_docs=64), files_per_part=1)
    n_docs = report["n_docs"]

    # hot term postings spread evenly: every partition holds exactly its share
    per_part = []
    for pid in report["parts"]:
        t = pq.read_table(
            os.path.join(index_dir, "postings", f"postings-{pid:05d}.parquet"),
            filters=[("term", "=", "ホット特売")],
        )
        per_part.append(t.num_rows)
    assert len(set(per_part)) == 1 and per_part[0] == n_docs // n_files

    # vocabulary reduce fan-in for the hot term == #partitions partial rows
    import glob as g

    partial_rows = 0
    for f in g.glob(os.path.join(index_dir, "vocab_partials", "*.parquet")):
        t = pq.read_table(f, filters=[("term", "=", "ホット特売")])
        partial_rows += t.num_rows
    assert partial_rows == n_files

    # df == N → strongly negative idf; the hot-term query still ranks exactly
    eng = QueryEngine(index_dir, num_shards=2)
    got = eng.search("ホット特売", k=5)
    assert len(got) == 5
    expected_idf = idf_fn(n_docs, n_docs)
    assert expected_idf < 0
    assert (got["score"] < 0).all()
    eng.close()


def test_corpus_sink_cli(tmp_path, capsys):
    """`cli corpus` lands a query result as parquet + commit manifest."""
    import argparse

    import pyarrow.parquet as pq2

    from oboyu_ray.cli import cmd_corpus
    from oboyu_ray.sources.sinks import is_committed

    out = str(tmp_path / "sinkout")
    rc = cmd_corpus(argparse.Namespace(
        name="text_stats", sf_dir="/root/testdata/sf0.001", out=out, num_cpus=None,
    ))
    assert rc == 0
    assert is_committed(out)
    man = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    files = [os.path.join(dp, f) for dp, _, fs in os.walk(out) for f in fs if f.endswith(".parquet")]
    total = sum(pq2.ParquetFile(f).metadata.num_rows for f in files)
    assert total == man["n_rows"] == 500
    assert "lang" in man["columns"]


def test_retraction_exact_and_partition_local(tmp_path):
    """Retracting conversations == input filter + incremental rebuild:
    converges to the from-scratch build over the filtered corpus, touching
    only the affected partitions at the ingest/tokenize level, and the
    retracted turns disappear from query results."""
    from oboyu_ray.config import BuildConfig
    from oboyu_ray.pipelines.query import QueryEngine
    from oboyu_ray.pipelines.retract import retract_conversations

    cfg = BuildConfig(window_docs=256)
    files = write_synth_transcripts(str(tmp_path / "t"), n_convs=120, seed=31, convs_per_file=30)
    index_dir = str(tmp_path / "idx")
    build_index(files, index_dir, cfg, files_per_part=2)

    # retract two conversations living in files[2] (partition group 1)
    victims = ["c00000061", "c00000064"]
    new_files = retract_conversations(files, victims, str(tmp_path / "filtered"))
    assert new_files[2] != files[2]  # rewritten
    assert new_files[0] == files[0] and new_files[1] == files[1]  # untouched

    def mtimes(sub):
        d = os.path.join(index_dir, sub)
        return {f: os.stat(os.path.join(d, f)).st_mtime_ns for f in os.listdir(d)}

    before_docs = mtimes("docs")
    report2 = build_index(new_files, index_dir, cfg, files_per_part=2)
    changed_docs = [f for f, m in mtimes("docs").items() if before_docs[f] != m]
    assert changed_docs == ["docs-00001.parquet"]

    # equals a from-scratch build over the filtered corpus
    fresh_dir = str(tmp_path / "fresh")
    report3 = build_index(new_files, fresh_dir, cfg, files_per_part=2)
    assert report2["n_docs"] == report3["n_docs"]
    assert report2["stats"] == report3["stats"]
    for f in sorted(os.listdir(os.path.join(index_dir, "blocks"))):
        assert (
            open(os.path.join(index_dir, "blocks", f), "rb").read()
            == open(os.path.join(fresh_dir, "blocks", f), "rb").read()
        )

    # retracted conversations are gone from results
    eng = QueryEngine(index_dir, num_shards=2)
    got = eng.search("python model 検索 データ", k=50)
    assert not set(got["conv_id"]).intersection(victims)
    eng.close()


def test_conv_map_shuffle_fallback_interleaved_files(tmp_path):
    """When input files interleave conversations (overlapping conv-id
    ranges), build_conv_map falls back to the global groupby path and the
    engine still builds + queries exactly (vs the reference oracle stats)."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from oboyu_ray.config import BuildConfig
    from oboyu_ray.pipelines.query import QueryEngine

    # conversations c0..c19; EVEN turns in file A, ODD turns in file B →
    # both files cover the full conv range (max overlap)
    rows_a, rows_b = [], []
    for ci in range(20):
        for t in range(6):
            row = {
                "conv_id": f"c{ci:04d}", "turn_idx": t, "role": "user",
                "text": f"doc {ci} turn {t} 検索 content word{ci % 5}",
                "tool": "", "ts": datetime.datetime(2025, 1, 1, 0, ci, t),
            }
            (rows_a if t % 2 == 0 else rows_b).append(row)

    def write(rows, path):
        pq.write_table(pa.table({
            "conv_id": pa.array([r["conv_id"] for r in rows]),
            "turn_idx": pa.array([r["turn_idx"] for r in rows], type=pa.int32()),
            "role": pa.array([r["role"] for r in rows]),
            "text": pa.array([r["text"] for r in rows]),
            "tool": pa.array([r["tool"] for r in rows]),
            "ts": pa.array([r["ts"] for r in rows], type=pa.timestamp("us")),
        }), path)

    fa, fb = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    write(rows_a, fa)
    write(rows_b, fb)

    index_dir = str(tmp_path / "idx")
    report = build_index([fa, fb], index_dir, BuildConfig(window_docs=64), files_per_part=2)
    assert report["n_docs"] == 120
    # dense doc numbering survived the interleaving (single combined part)
    docs = pq.read_table(os.path.join(index_dir, "docs", "docs-00000.parquet"))
    dn = np.sort(docs.column("doc_num").to_numpy())
    assert np.array_equal(dn, np.arange(120))

    eng = QueryEngine(index_dir, num_shards=1)
    got = eng.search("検索", k=5)
    assert len(got) == 5 and (got["score"] < 0).all()  # df == N → negative idf
    eng.close()


def test_negative_idf_pruning_soundness(tmp_path):
    """Regression (found by review): with a hot term (df > N/2, idf < 0), a
    window full of heavy hot-term docs must NOT be pruned when it contains a
    top-k doc that LACKS the hot term.  The sound per-window bound for a
    negative-weight term is 0, not w*min_tfnorm."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from oboyu_ray.config import BuildConfig
    from oboyu_ray.pipelines.bm25_batch import brute_force_scores, tokenize_queries
    from oboyu_ray.pipelines.query import QueryEngine

    def make_rows():
        return {k: [] for k in ("conv_id", "turn_idx", "role", "text", "tool", "ts")}

    def add(rows, conv, turn, text):
        rows["conv_id"].append(conv)
        rows["turn_idx"].append(turn)
        rows["role"].append("user")
        rows["text"].append(text)
        rows["tool"].append("")
        rows["ts"].append(datetime.datetime(2025, 1, 1))

    def write(rows, path):
        pq.write_table(pa.table({
            "conv_id": pa.array(rows["conv_id"]),
            "turn_idx": pa.array(rows["turn_idx"], type=pa.int32()),
            "role": pa.array(rows["role"]),
            "text": pa.array(rows["text"]),
            "tool": pa.array(rows["tool"]),
            "ts": pa.array(rows["ts"], type=pa.timestamp("us")),
        }), path)

    # TWO partitions (the single-partition dense-scan path masks the bug):
    # part 0 (conv a) fills the top-k heap and sets theta; part 1 (conv b)
    # holds heavy hot-tf docs + ONE doc with only the rare term, whose
    # window bound under the buggy w*min_tfnorm formula sinks below theta
    # and gets pruned despite containing the true top-1
    ra = make_rows()
    for t in range(64):
        add(ra, "a0", t, "ホット common filler" if t % 5 else "ホット rareterm mix")
    rb = make_rows()
    for t in range(64):
        if t == 33:
            add(rb, "b0", t, "rareterm alone here")
        else:
            add(rb, "b0", t, "ホット " * 12)  # heavy tf → very negative contribution
    fa, fb = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    write(ra, fa)
    write(rb, fb)
    index_dir = str(tmp_path / "idx")
    build_index([fa, fb], index_dir, BuildConfig(window_docs=64), files_per_part=1)

    eng = QueryEngine(index_dir, num_shards=1)
    for q in ("rareterm ホット", "ホット rareterm"):
        terms = eng.tokenizer.tokenize(q)
        docs_ds = ray.data.read_parquet(os.path.join(index_dir, "docs"))
        stats = json.load(open(os.path.join(index_dir, "stats.json")))
        brute = brute_force_scores(
            docs_ds, {q: terms}, CFG, id_col="doc_num", text_col="text",
            stats={"N": stats["N"], "total_dl": stats["total_dl"], "avgdl": stats["avgdl"]},
        ).sort_values(["score", "doc_num"], ascending=[False, True], kind="mergesort")
        for k in (1, 3, 10):
            got = eng.search_terms(terms, k=k)
            expect = brute.head(k)
            assert got["doc_num"].tolist() == expect["doc_num"].tolist(), (q, k)
            np.testing.assert_allclose(
                got["score"].to_numpy(), expect["score"].to_numpy(), rtol=1e-9
            )
    eng.close()


def test_shrinking_inputs_gc_stale_partitions(tmp_path):
    """Regression (found by review): rebuilding with FEWER input files must
    not leave removed partitions' artifacts behind — vocabulary df/cf and
    the served index must equal a from-scratch build of the smaller corpus."""
    import pyarrow.parquet as pq

    from oboyu_ray.config import BuildConfig

    files = write_synth_transcripts(str(tmp_path / "t"), n_convs=80, seed=13, convs_per_file=40)
    cfg = BuildConfig(window_docs=256)
    index_dir = str(tmp_path / "idx")
    build_index(files, index_dir, cfg, files_per_part=1)
    report2 = build_index(files[:1], index_dir, cfg, files_per_part=1)

    fresh_dir = str(tmp_path / "fresh")
    report3 = build_index(files[:1], fresh_dir, cfg, files_per_part=1)
    assert report2["n_docs"] == report3["n_docs"]
    assert report2["stats"] == report3["stats"]

    for sub in ("docs", "postings", "dls", "blocks", "vocab", "vocab_partials"):
        a = sorted(os.listdir(os.path.join(index_dir, sub)))
        b = sorted(os.listdir(os.path.join(fresh_dir, sub)))
        assert a == b, sub
    va = pq.read_table(os.path.join(index_dir, "vocab")).sort_by("term")
    vb = pq.read_table(os.path.join(fresh_dir, "vocab")).sort_by("term")
    assert va.equals(vb)


def test_config_changes_invalidate_lineage(tmp_path):
    """Regression (review round 3): rebuilding the same index_dir with
    changed k1/b, tokenizer settings, or fewer vocab buckets must converge
    to exactly the state a fresh build with that config produces (stale
    bounds / postings / bucket outputs all invalidated)."""
    from oboyu_ray.config import BM25Config, BuildConfig

    files = write_synth_transcripts(str(tmp_path / "t"), n_convs=60, seed=7, convs_per_file=30)
    index_dir = str(tmp_path / "idx")
    base = BuildConfig(window_docs=256, vocab_buckets=8)
    build_index(files, index_dir, base, files_per_part=1)

    for changed in (
        BuildConfig(bm25=BM25Config(k1=2.0), window_docs=256, vocab_buckets=8),
        BuildConfig(bm25=BM25Config(use_stopwords=False), window_docs=256, vocab_buckets=8),
        BuildConfig(window_docs=256, vocab_buckets=4),  # bucket shrink
    ):
        build_index(files, index_dir, changed, files_per_part=1)
        fresh = str(tmp_path / f"fresh_{changed.vocab_buckets}_{changed.bm25.k1}_{changed.bm25.use_stopwords}")
        build_index(files, fresh, changed, files_per_part=1)
        for sub in ("blocks", "vocab", "postings"):
            a_dir, b_dir = os.path.join(index_dir, sub), os.path.join(fresh, sub)
            assert sorted(os.listdir(a_dir)) == sorted(os.listdir(b_dir)), (sub, changed)
            for f in sorted(os.listdir(a_dir)):
                if f.endswith(".parquet"):
                    assert (
                        open(os.path.join(a_dir, f), "rb").read()
                        == open(os.path.join(b_dir, f), "rb").read()
                    ), (sub, f, changed)
        # rebuild back to base so the next iteration starts consistent
        build_index(files, index_dir, base, files_per_part=1)


def test_query_engine_rejects_k1_b_override(built):
    from oboyu_ray.config import BM25Config
    from oboyu_ray.pipelines.query import QueryEngine

    with pytest.raises(ValueError, match="block-max bounds"):
        QueryEngine(built["index_dir"], num_shards=1, cfg=BM25Config(k1=2.0))


def test_query_k_zero_returns_empty(engine):
    out = engine.search("python model", k=0)
    assert len(out) == 0


def test_search_many_matches_single(engine):
    """Batched fan-out returns exactly the single-query results."""
    queries = ["python model", "検索 インデックス", "zzz_nohit", "です"]
    batched = engine.search_many(queries, k=7)
    for q, got in zip(queries, batched):
        single = engine.search_terms(engine.tokenizer.tokenize(q), k=7)
        assert got["doc_num"].tolist() == single["doc_num"].tolist(), q
        np.testing.assert_array_equal(got["score"].to_numpy(), single["score"].to_numpy())


def test_search_many_pipelined_matches_sequential(engine):
    """Double-buffered serving (search_many_submit/result with the next
    batch in flight while the previous merges) returns exactly what the
    blocking search_many returns, batch by batch."""
    batches = [
        ["python model", "検索 インデックス"],
        ["です", "zzz_nohit", "python 検索"],
        ["model index", "インデックス"],
    ]
    want = [engine.search_many(b, k=7) for b in batches]
    got = []
    handle = engine.search_many_submit(batches[0], k=7)
    for nxt in batches[1:]:
        nxt_handle = engine.search_many_submit(nxt, k=7)
        got.append(engine.search_many_result(handle))
        handle = nxt_handle
    got.append(engine.search_many_result(handle))
    for w_batch, g_batch in zip(want, got):
        for w, g in zip(w_batch, g_batch):
            assert g["doc_num"].tolist() == w["doc_num"].tolist()
            np.testing.assert_array_equal(
                g["score"].to_numpy(), w["score"].to_numpy()
            )


def test_search_page_is_exact_slicing(engine):
    """Pagination: pages 0..2 concatenated are exactly the global top-3k
    with a correct global rank column; page 0 equals plain search."""
    q, k = "python model", 5
    full = engine.search_terms(engine.tokenizer.tokenize(q), k=3 * k)
    pages = [engine.search_page(q, k=k, page=p) for p in range(3)]
    got = np.concatenate([p["doc_num"].to_numpy() for p in pages])
    np.testing.assert_array_equal(got, full["doc_num"].to_numpy())
    ranks = np.concatenate([p["rank"].to_numpy() for p in pages])
    np.testing.assert_array_equal(ranks, np.arange(1, len(got) + 1))
    page0 = engine.search(q, k=k)
    assert pages[0]["doc_num"].tolist() == page0["doc_num"].tolist()
    # past-the-end page is empty, not an error
    assert len(engine.search_page("zzz_nohit", k=k, page=4)) == 0
    with pytest.raises(ValueError):
        engine.search_page(q, k=k, page=-1)


def test_brute_topk_offset_pages_match_full_ranking(ray_session):
    """brute_force_topk(offset=o) returns exactly rows o+1..o+k of the
    full ranking, rank values global — the bm25_topk_paged contract."""
    import ray.data

    from oboyu_ray.config import BM25Config
    from oboyu_ray.pipelines.bm25_batch import brute_force_topk, tokenize_queries

    docs = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    cfg = BM25Config()
    queries = tokenize_queries(["spark merge sort", "customer table"], cfg)
    full = brute_force_topk(docs, queries, k=30, cfg=cfg)
    for off, k in ((10, 10), (5, 7), (0, 30)):
        page = brute_force_topk(docs, queries, k=k, cfg=cfg, offset=off)
        want = full[(full["rank"] > off) & (full["rank"] <= off + k)]
        assert page.reset_index(drop=True).equals(want.reset_index(drop=True)), (off, k)


def test_merge_topk_multi_equals_incremental_fold():
    """_merge_topk_multi (one-pass wide merge, the batched-serving hot
    path) is exactly the fold of _merge_topk over the same partials,
    including (score DESC, doc ASC) tie order.  Pure numpy — no Ray."""
    from oboyu_ray.state.shards import _merge_topk, _merge_topk_multi

    rng = np.random.default_rng(7)
    for trial in range(50):
        n_parts = int(rng.integers(1, 40))
        k = int(rng.integers(0, 12))
        pairs = []
        for _ in range(n_parts):
            m = int(rng.integers(0, 8))
            docs = rng.choice(200, size=m, replace=False).astype(np.int64)
            # quantized scores force score ties across partials
            scores = (rng.integers(0, 5, size=m) / 2.0).astype(np.float64)
            pairs.append((docs, scores))
        fold_d = np.empty(0, dtype=np.int64)
        fold_s = np.empty(0, dtype=np.float64)
        for d, s in pairs:
            fold_d, fold_s = _merge_topk(fold_d, fold_s, d, s, k)
        multi_d, multi_s = _merge_topk_multi(pairs, k)
        np.testing.assert_array_equal(multi_d, fold_d, err_msg=f"trial {trial}")
        np.testing.assert_array_equal(multi_s, fold_s, err_msg=f"trial {trial}")


def test_conv_map_range_mode_build_and_query(tmp_path):
    """Forcing the in-memory conv-map path OFF (inmem_limit=0) must produce
    a byte-identical build and identical query results: ingest tasks range-
    read only the conv-map files covering their conversations, and the
    query-side resolver range-reads per resolve call (VERDICT r1 item 5)."""
    from oboyu_ray.pipelines.build_index import ConvMapHandle

    data_dir = str(tmp_path / "t")
    files = write_synth_transcripts(data_dir, n_convs=120, seed=5, convs_per_file=30)
    cfg = BuildConfig(window_docs=256)

    idx_a = str(tmp_path / "idx_inmem")
    idx_b = str(tmp_path / "idx_range")
    rep_a = build_index(files, idx_a, cfg, files_per_part=2)
    rep_b = build_index(files, idx_b, cfg, files_per_part=2, conv_inmem_limit=0)
    assert rep_a["total_postings"] == rep_b["total_postings"]
    # block artifacts byte-identical across modes
    for sub in ("blocks", "dls"):
        fa = sorted(os.listdir(os.path.join(idx_a, sub)))
        fb = sorted(os.listdir(os.path.join(idx_b, sub)))
        assert fa == fb
        for f in fa:
            with open(os.path.join(idx_a, sub, f), "rb") as ha, open(
                os.path.join(idx_b, sub, f), "rb"
            ) as hb:
                assert ha.read() == hb.read(), f"{sub}/{f}"

    # handle modes + lookup equivalence on a sample
    h_in = ConvMapHandle(idx_a)
    h_rg = ConvMapHandle(idx_b, inmem_limit=0)
    assert h_in.mode == "inmem" and h_rg.mode == "range"
    sample = np.arange(0, h_in.n_convs * 2, 7, dtype=np.int64)
    ca, ta = h_in.resolve(sample)
    cb, tb = h_rg.resolve(sample)
    assert list(ca) == list(cb) and (ta == tb).all()

    # engines opened SEQUENTIALLY with 1 shard each: the 4-CPU test cluster
    # can't host this test's actors alongside the module fixture's engine
    qs = ("検索 インデックス", "です", "token")
    eng_a = QueryEngine(idx_a, num_shards=1)
    try:
        res_a = {q: eng_a.search(q, k=10) for q in qs}
    finally:
        eng_a.close()
    eng_b = QueryEngine(idx_b, num_shards=1, conv_inmem_limit=0)
    try:
        assert eng_b.resolver._handle.mode == "range"
        for q in qs:
            ra = res_a[q]
            rb = eng_b.search(q, k=10)
            assert ra["doc_id"].tolist() == rb["doc_id"].tolist(), q
            assert (ra["score"].to_numpy() == rb["score"].to_numpy()).all(), q
    finally:
        eng_b.close()


def test_content_hash_change_detection(tmp_path):
    """change_strategy='hash': touching inputs without changing content
    rebuilds ZERO partitions (reference change_detector hash strategy);
    the default timestamp strategy rebuilds on the same touch."""
    data_dir = str(tmp_path / "t")
    files = write_synth_transcripts(data_dir, n_convs=60, seed=9, convs_per_file=20)
    cfg = BuildConfig(window_docs=256)

    idx = str(tmp_path / "idx_hash")
    build_index(files, idx, cfg, files_per_part=1, change_strategy="hash")
    docs_dir = os.path.join(idx, "docs")
    before = {f: os.stat(os.path.join(docs_dir, f)).st_mtime_ns for f in os.listdir(docs_dir)}
    man_dir = os.path.join(idx, "manifests", "ingest")
    man_before = {f: open(os.path.join(man_dir, f)).read() for f in os.listdir(man_dir)}

    for f in files:  # touch: newer mtime, identical bytes
        os.utime(f, ns=(os.stat(f).st_atime_ns, os.stat(f).st_mtime_ns + 10**9))
    build_index(files, idx, cfg, files_per_part=1, change_strategy="hash")
    after = {f: os.stat(os.path.join(docs_dir, f)).st_mtime_ns for f in os.listdir(docs_dir)}
    man_after = {f: open(os.path.join(man_dir, f)).read() for f in os.listdir(man_dir)}
    assert before == after  # zero partitions rebuilt
    assert man_before == man_after

    # contrast: timestamp strategy rebuilds on the same touch
    idx2 = str(tmp_path / "idx_ts")
    build_index(files, idx2, cfg, files_per_part=1)
    d2 = os.path.join(idx2, "docs")
    b2 = {f: os.stat(os.path.join(d2, f)).st_mtime_ns for f in os.listdir(d2)}
    for f in files:
        os.utime(f, ns=(os.stat(f).st_atime_ns, os.stat(f).st_mtime_ns + 10**9))
    build_index(files, idx2, cfg, files_per_part=1)
    a2 = {f: os.stat(os.path.join(d2, f)).st_mtime_ns for f in os.listdir(d2)}
    assert b2 != a2

    # a REAL content change under hash strategy does rebuild
    t = pq.read_table(files[0])
    texts = t.column("text").to_pylist()
    texts[0] = (texts[0] or "") + " edited"
    cols = {n: t.column(n) for n in t.schema.names}
    cols["text"] = pa.array(texts, type=pa.string())
    pq.write_table(pa.table(cols), files[0])
    build_index(files, idx, cfg, files_per_part=1, change_strategy="hash")
    after_edit = {f: os.stat(os.path.join(docs_dir, f)).st_mtime_ns for f in os.listdir(docs_dir)}
    changed = [f for f in after_edit if after_edit[f] != after[f]]
    assert changed  # the edited partition rebuilt


def test_saturated_window_min_tfnorm_bounds_exact(tmp_path):
    """Saturated-window refinement: when EVERY doc in a window contains the
    hot negative-idf term, its bound tightens to w*min_tfnorm — results
    must stay exactly rank-identical to brute force (windows where any doc
    lacks the term keep the 0 bound; test_negative_idf_pruning_soundness
    covers that side)."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from oboyu_ray.pipelines.bm25_batch import brute_force_scores

    def write(rows, path):
        pq.write_table(pa.table({
            "conv_id": pa.array([r[0] for r in rows]),
            "turn_idx": pa.array([r[1] for r in rows], type=pa.int32()),
            "role": pa.array(["user"] * len(rows)),
            "text": pa.array([r[2] for r in rows]),
            "tool": pa.array([""] * len(rows)),
            "ts": pa.array([datetime.datetime(2025, 1, 1)] * len(rows), type=pa.timestamp("us")),
        }), path)

    # part a: heap filler with rare + hot mixes.  part b: ALL docs carry the
    # hot term (every 64-doc window saturated), with varying tf/dl so
    # min_tfnorm is nontrivial; a few also carry the rare term.
    rows_a = [("a0", t, "ホット rare2 filler" if t % 3 else "ホット rare2") for t in range(64)]
    rows_b = []
    for t in range(128):
        if t % 17 == 0:
            rows_b.append(("b0", t, "rare2 " + "ホット " * (1 + t % 4)))
        else:
            rows_b.append(("b0", t, "ホット " * (1 + t % 7)))
    fa, fb = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    write(rows_a, fa)
    write(rows_b, fb)
    index_dir = str(tmp_path / "idx")
    build_index([fa, fb], index_dir, BuildConfig(window_docs=64), files_per_part=1)

    eng = QueryEngine(index_dir, num_shards=1)
    try:
        # saturation actually present: every window of part b is fully
        # covered by the hot term
        part = eng and True
        from oboyu_ray.state.shards import _PartIndex

        p = _PartIndex(index_dir, 1, 64)
        s, e = p.term_slices["ホット"]
        widx = p.win[s:e] - p.wdc_base
        assert (p.n[s:e] == p.window_doc_counts[widx]).all()

        stats = json.load(open(os.path.join(index_dir, "stats.json")))
        docs_ds = ray.data.read_parquet(os.path.join(index_dir, "docs"))
        for q in ("rare2 ホット", "ホット", "rare2"):
            terms = eng.tokenizer.tokenize(q)
            brute = brute_force_scores(
                docs_ds, {q: terms}, CFG, id_col="doc_num", text_col="text",
                stats={"N": stats["N"], "total_dl": stats["total_dl"], "avgdl": stats["avgdl"]},
            ).sort_values(["score", "doc_num"], ascending=[False, True], kind="mergesort")
            for k in (1, 5, 20):
                got = eng.search_terms(terms, k=k)
                expect = brute.head(k)
                assert got["doc_num"].tolist() == expect["doc_num"].tolist(), (q, k)
                np.testing.assert_allclose(
                    got["score"].to_numpy(), expect["score"].to_numpy(), rtol=1e-9
                )
    finally:
        eng.close()


def test_two_level_merge_identical(built, engine):
    """Forcing merge_fanout=1 interposes aggregator actors (two-level
    merge); results must be identical to the single-level engine for both
    search and search_many."""
    eng2 = QueryEngine(built["index_dir"], num_shards=2, merge_fanout=1)
    try:
        assert len(eng2.aggregators) >= 1
        for q in QUERIES:
            a = engine.search(q, k=10)
            b = eng2.search(q, k=10)
            assert a["doc_num"].tolist() == b["doc_num"].tolist(), q
            assert (a["score"].to_numpy() == b["score"].to_numpy()).all(), q
        many_a = engine.search_many(QUERIES, k=7)
        many_b = eng2.search_many(QUERIES, k=7)
        for x, y in zip(many_a, many_b):
            assert x["doc_num"].tolist() == y["doc_num"].tolist()
        # the prefix term-range path proxies through aggregators too
        a = engine.search_prefix("tok", k=10)
        b = eng2.search_prefix("tok", k=10)
        assert a["doc_num"].tolist() == b["doc_num"].tolist()
        assert (a["score"].to_numpy() == b["score"].to_numpy()).all()
    finally:
        eng2.close()


def test_sigcache_evicts_superseded_stat_keys(tmp_path):
    """Regression (r2 ADVICE): touch/rewrite cycles must not grow the
    persisted sig cache — a new stat key for a path evicts the old ones."""
    import os

    from oboyu_ray.state.checkpoint import SigCache

    f = tmp_path / "a.parquet"
    f.write_bytes(b"hello")
    cache = SigCache(str(tmp_path / "sig_cache.json"))
    s1 = cache.sha(str(f), os.stat(str(f)))
    for i in range(5):
        os.utime(str(f), ns=(1_000_000_000 * (i + 1),) * 2)
        assert cache.sha(str(f), os.stat(str(f))) == s1
        assert len(cache.data) == 1  # superseded keys evicted
    f.write_bytes(b"world!")
    s2 = cache.sha(str(f), os.stat(str(f)))
    assert s2 != s1 and len(cache.data) == 1
    cache.save()
    reloaded = SigCache(str(tmp_path / "sig_cache.json"))
    assert reloaded.data == cache.data


def test_prefix_engine_matches_brute_force(built, engine):
    """search_prefix (vocab range expansion → OR query through the shards)
    must be rank- and score-identical to the Dataset brute force, and the
    bucketed range-scan df_prefix must agree with the in-memory map."""
    from oboyu_ray.pipelines.bm25_batch import prefix_topk, score_micros

    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    stats = json.load(open(os.path.join(built["index_dir"], "stats.json")))
    prefixes = ["tok", "検索", "de", "zzq"]
    k = 12
    brute = prefix_topk(docs_ds, prefixes, k=k, cfg=CFG, id_col="doc_num",
                        text_col="text")
    hits = 0
    for p in prefixes:
        got = engine.search_prefix(p, k=k)
        expect = brute[brute.query_id == p]
        assert len(got) == len(expect), p
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), p
        if len(got):
            np.testing.assert_array_equal(
                score_micros(got["score"].to_numpy()),
                expect["score_micros"].to_numpy(), err_msg=p,
            )
            hits += 1
    assert hits >= 2

    # bucketed (file range-scan) path == in-memory path; expansion cap raises
    vl = engine.vocab
    for p in prefixes:
        inmem = vl.df_prefix(p)
        vl2_map, vl._map = vl._map, None
        try:
            scan = vl.df_prefix(p)
        finally:
            vl._map = vl2_map
        assert scan == inmem, p
    import pytest as _pytest

    with _pytest.raises(ValueError, match="expands"):
        engine.vocab.df_prefix("t", max_terms=1)
    with _pytest.raises(ValueError, match="empty"):
        engine.vocab.df_prefix("")


def test_fuzzy_sidecar_matches_sweep(built, engine, monkeypatch):
    """The FastSS deletion-neighborhood sidecar must return EXACTLY the
    sweep's expansion (superset candidates + exact verify), for d=1 and
    d=2, including with tiny row groups that force hub-variant runs to
    span row-group boundaries; df_fuzzy auto-prefers a built sidecar and
    falls back to the sweep beyond its max_edits."""
    import oboyu_ray.state.fuzzy_index as fz

    monkeypatch.setattr(fz, "ROW_GROUP", 64)  # force cross-group runs
    manifest = fz.build_fuzzy_sidecar(built["index_dir"], max_edits=2,
                                      n_buckets=8)
    assert manifest["n_terms"] > 1000
    assert manifest["n_rows"] > manifest["n_terms"] * 3  # variants exploded
    sc = fz.open_sidecar(built["index_dir"])
    assert sc is not None and sc.max_edits == 2

    vl = engine.vocab
    vl._sc = None  # force the sweep for the reference expansion
    probes = [("tokn", 1), ("pythom", 1), ("検素", 1), ("model", 2),
              ("de", 2), ("zzznohit", 1)]
    for q, d in probes:
        sweep = vl.df_fuzzy(q, max_edits=d, max_terms=100000)
        got = sc.lookup(q, d, max_terms=100000)
        assert got == sweep, (q, d)
    # auto-preference: with the sidecar open, df_fuzzy routes through it
    del vl._sc
    assert vl._sidecar() is not None
    for q, d in probes[:3]:
        assert vl.df_fuzzy(q, max_edits=d, max_terms=100000) == sc.lookup(
            q, d, max_terms=100000
        )
    # beyond the sidecar's max_edits: falls back to the sweep, not an error
    vl3 = vl.df_fuzzy("model", max_edits=3, max_terms=100000)
    vl._sc = None
    assert vl3 == vl.df_fuzzy("model", max_edits=3, max_terms=100000)
    # cap still raises through the sidecar path
    del vl._sc
    import pytest as _pytest

    with _pytest.raises(ValueError, match="expands"):
        vl.df_fuzzy("de", max_edits=2, max_terms=1)
    vl._sc = None  # leave the module fixture on the sweep path


def test_deletion_variants():
    from oboyu_ray.state.fuzzy_index import deletion_variants

    assert deletion_variants("abc", 1) == ["abc", "ab", "ac", "bc"]
    assert set(deletion_variants("ab", 2)) == {"ab", "a", "b", ""}
    assert deletion_variants("a", 1) == ["a", ""]
    v2 = deletion_variants("abcd", 2)
    assert "ab" in v2 and "cd" in v2 and "abcd" in v2 and len(v2) == 1 + 4 + 6


def test_explain_matches_search_scores(built, engine):
    """explain(query, doc) (one point-read per term on the owning shard)
    must decompose exactly into the search score: Σ contribution == score,
    dl constant across rows, df == vocabulary df, duplicate query terms
    double the weight, absent query → empty frame."""
    from oboyu_ray.pipelines.bm25_batch import score_micros

    for q in ["検索 インデックス", "python model", "compress 圧縮 decode"]:
        res = engine.search(q, k=5)
        assert len(res) > 0, q
        for doc, score in zip(res["doc_num"].tolist(), res["score"].tolist()):
            ex = engine.explain(q, doc)
            assert len(ex) >= 1, (q, doc)
            total = float(ex["contribution"].sum())
            assert np.isclose(total, score, rtol=1e-9, atol=1e-12), (q, doc)
            assert abs(int(score_micros(np.array([total]))[0])
                       - int(score_micros(np.array([score]))[0])) <= 1
            assert ex["dl"].nunique() == 1 and (ex["tf"] >= 1).all()
            dfs = engine.vocab.df(ex["term"].tolist())
            assert all(int(r.df) == dfs[r.term] for r in ex.itertuples())
    # duplicate query terms: weight (idf × multiplicity) doubles
    res = engine.search("token", k=1)
    d0 = int(res["doc_num"].iloc[0])
    one = engine.explain("token", d0)
    two = engine.explain("token token", d0)
    assert np.isclose(
        float(two["weight"].iloc[0]), 2.0 * float(one["weight"].iloc[0])
    )
    # no-hit query and non-matching doc
    assert len(engine.explain("zzz_nohit", d0)) == 0
    assert len(engine.explain("token", 10**9)) == 0


def test_scoped_engine_matches_brute_force(built, engine):
    """Scoped retrieval (doc_num interval pushdown through the shard
    actors' part/window skipping + candidate mask) must be rank- and
    score-identical to the brute force with the same scope, on OR, AND,
    and NOT paths — and must be able to surface docs the global top-k
    hides."""
    from oboyu_ray.pipelines.bm25_batch import brute_force_topk, score_micros

    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    stats = json.load(open(os.path.join(built["index_dir"], "stats.json")))
    st = {"N": stats["N"], "total_dl": stats["total_dl"], "avgdl": stats["avgdl"]}
    n = int(stats["N"])
    k = 12
    scopes = [
        (0, n // 3),                 # first part only
        (n // 3, 2 * n // 3 + 7),    # straddles a part boundary
        (n - 5, n + 100),            # tail sliver past the end
        (n // 2, n // 2),            # empty interval
    ]
    tokq = tokenize_queries(QUERIES, CFG)
    reshaped = 0
    for lo, hi in scopes:
        brute = brute_force_topk(
            docs_ds, tokq, k=k, cfg=CFG, id_col="doc_num", text_col="text",
            stats=st, scope=(lo, hi),
        )
        for q in QUERIES:
            got = engine.search(q, k=k, scope=(lo, hi))
            expect = brute[brute.query_id == q]
            assert got["doc_num"].tolist() == expect["doc_num"].tolist(), (q, lo, hi)
            if len(got):
                np.testing.assert_array_equal(
                    score_micros(got["score"].to_numpy()),
                    expect["score_micros"].to_numpy(), err_msg=f"{q} {lo}:{hi}",
                )
                assert got["doc_num"].between(lo, hi - 1).all()
            plain = engine.search(q, k=k)
            if len(got) and set(got["doc_num"]) - set(plain["doc_num"]):
                reshaped += 1  # scope surfaced docs the global top-k hid
    assert reshaped >= 2
    # scope composes with AND and NOT
    lo, hi = 0, 2 * n // 3
    and_brute = brute_force_topk(
        docs_ds, {"python model": tokq["python model"]}, k=k, cfg=CFG,
        id_col="doc_num", text_col="text", stats=st, scope=(lo, hi),
        require_all=True,
    )
    got = engine.search("python model", k=k, require_all=True, scope=(lo, hi))
    assert got["doc_num"].tolist() == and_brute["doc_num"].tolist()
    not_brute = brute_force_topk(
        docs_ds, {"token": tokq["token"]}, k=k, cfg=CFG,
        id_col="doc_num", text_col="text", stats=st, scope=(lo, hi),
        exclude={"token": tokenize_queries(["です"], CFG)["です"]},
    )
    got = engine.search("token", k=k, exclude="です", scope=(lo, hi))
    assert got["doc_num"].tolist() == not_brute["doc_num"].tolist()
    # scope composes with prefix/fuzzy expansions: identical to the plain
    # OR query over the same expanded term set with the same scope
    fterms = sorted(engine.vocab.df_fuzzy("tokn", max_edits=1))
    a = engine.search_fuzzy("tokn", max_edits=1, k=k, scope=(lo, hi))
    b = engine.search_terms(fterms, k=k, scope=(lo, hi))
    assert a["doc_num"].tolist() == b["doc_num"].tolist() and len(a)
    pterms = sorted(engine.vocab.df_prefix("tok"))
    a = engine.search_prefix("tok", k=k, scope=(lo, hi))
    b = engine.search_terms(pterms, k=k, scope=(lo, hi))
    assert a["doc_num"].tolist() == b["doc_num"].tolist() and len(a)


def test_fuzzy_engine_matches_brute_force(built, engine):
    """search_fuzzy (levenshtein vocab expansion → OR query through the
    shards) must be rank- and score-identical to the Dataset brute force,
    and the bucket-file sweep df_fuzzy must agree with the in-memory map
    (both the serial and the Ray-task-parallel sweep)."""
    from oboyu_ray.pipelines.bm25_batch import fuzzy_topk, score_micros

    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    cases = [
        ("tokn", 1),      # deletion neighbor of "token"
        ("pythom", 1),    # substitution neighbor of "python"
        ("検素", 1),       # multibyte substitution neighbor of "検索"
        ("model", 2),     # exact term + its d=2 neighborhood
        ("zzznohit", 1),  # empty expansion
    ]
    k = 12
    brute = fuzzy_topk(docs_ds, cases, k=k, cfg=CFG, id_col="doc_num",
                       text_col="text")
    hits = 0
    for q, d in cases:
        qid = f"{q}~{d}"
        got = engine.search_fuzzy(q, max_edits=d, k=k)
        expect = brute[brute.query_id == qid]
        assert len(got) == len(expect), qid
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), qid
        if len(got):
            np.testing.assert_array_equal(
                score_micros(got["score"].to_numpy()),
                expect["score_micros"].to_numpy(), err_msg=qid,
            )
            hits += 1
    assert hits >= 3

    # bucket-file sweep paths (serial + ray-parallel) == in-memory path
    vl = engine.vocab
    for q, d in cases:
        inmem = vl.df_fuzzy(q, max_edits=d)
        saved, vl._map = vl._map, None
        try:
            par = vl.df_fuzzy(q, max_edits=d, parallel=True)
            ser = vl.df_fuzzy(q, max_edits=d, parallel=False)
        finally:
            vl._map = saved
        assert par == inmem and ser == inmem, q
    import pytest as _pytest

    with _pytest.raises(ValueError, match="expands"):
        engine.vocab.df_fuzzy("de", max_edits=2, max_terms=1)
    with _pytest.raises(ValueError, match="empty"):
        engine.vocab.df_fuzzy("")


def test_regex_wildcard_engine_matches_brute_force(built, engine):
    """search_regex / search_wildcard (RE2 vocab expansion → OR query
    through the shards) must be rank- and score-identical to the Dataset
    brute force; the bucket-file sweep df_regex must agree with the
    in-memory vectorized path (serial and Ray-task-parallel), and the
    wildcard literal-prefix prune must not change the expansion."""
    from oboyu_ray.pipelines.bm25_batch import (
        regex_topk,
        score_micros,
        wildcard_to_regex,
    )

    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    k = 12
    regexes = ["tok(en)?s?", "mod.l", "(python|decode)", "zzznohit.*"]
    wildcards = ["tok*", "m?del", "*dex", "zz*hit"]

    brute_rx = regex_topk(docs_ds, regexes, k=k, cfg=CFG, id_col="doc_num",
                          text_col="text")
    hits = 0
    for p in regexes:
        got = engine.search_regex(p, k=k)
        expect = brute_rx[brute_rx.query_id == p]
        assert len(got) == len(expect), p
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), p
        if len(got):
            np.testing.assert_array_equal(
                score_micros(got["score"].to_numpy()),
                expect["score_micros"].to_numpy(), err_msg=p,
            )
            hits += 1
    assert hits >= 2

    brute_wc = regex_topk(docs_ds, wildcards, k=k, cfg=CFG, id_col="doc_num",
                          text_col="text", wildcard=True)
    hits = 0
    for p in wildcards:
        got = engine.search_wildcard(p, k=k)
        expect = brute_wc[brute_wc.query_id == p]
        assert len(got) == len(expect), p
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), p
        if len(got):
            hits += 1
    assert hits >= 2

    # in-memory vectorized path == bucket-file sweep (serial AND parallel);
    # the wildcard literal-prefix prune changes nothing but the scan cost
    vl = engine.vocab
    for p in regexes + [wildcard_to_regex(w) for w in wildcards]:
        inmem = vl.df_regex(p)
        saved, vl._map = vl._map, None
        try:
            par = vl.df_regex(p, parallel=True)
            ser = vl.df_regex(p, parallel=False)
        finally:
            vl._map = saved
        assert par == inmem and ser == inmem, p
    assert vl.df_regex("tok.*", literal_prefix="tok") == vl.df_regex("tok.*")
    with pytest.raises(ValueError, match="expands"):
        vl.df_regex(".*", max_terms=5)


def test_bool_engine_matches_brute_force(built, engine):
    """search_bool (AST evaluated over cached dense presence arrays through
    the shards) must be rank- and score-identical to the Dataset brute
    force bool_topk, across AND/OR/NOT nestings, absent terms, double
    negation, and the pure-negative degenerate (empty)."""
    from oboyu_ray.pipelines.bm25_batch import (
        bool_topk,
        parse_bool_query,
        render_bool_query,
        score_micros,
    )

    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    k = 12
    exprs = [
        "(token AND python) OR model",
        "検索 NOT python",
        "(token OR model) AND NOT (python AND 検索)",
        "token AND (model OR NOT python)",
        "token AND zzznohit",          # absent term in an AND -> still candidates via token? NO: and(token, absent)=False
        "token OR zzznohit",           # absent term in an OR -> token alone
        "NOT NOT token",               # double negation -> plain token query
    ]
    brute = bool_topk(docs_ds, exprs, k=k, cfg=CFG, id_col="doc_num",
                      text_col="text")
    hits = 0
    for s in exprs:
        qid = render_bool_query(parse_bool_query(s))
        got = engine.search_bool(s, k=k)
        expect = brute[brute.query_id == qid]
        assert len(got) == len(expect), s
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), s
        if len(got):
            np.testing.assert_array_equal(
                score_micros(got["score"].to_numpy()),
                expect["score_micros"].to_numpy(), err_msg=s,
            )
            hits += 1
    assert hits >= 4
    # pure-negative: no positive leaf -> empty on both tiers
    assert engine.search_bool("NOT token", k=5).empty
    assert bool_topk(docs_ds, ["NOT token"], k=5, cfg=CFG, id_col="doc_num",
                     text_col="text").empty
    # scope composes
    a = engine.search_bool("(token AND python) OR model", k=k, scope=(0, 100))
    assert (a["doc_num"] < 100).all()


def test_synonym_engine_matches_brute_force(built, engine):
    """search_synonym (raw-tf dense group accumulation through the shards)
    must be rank- and score-identical to the Dataset brute force
    synonym_topk: group tf sums BEFORE saturation, group idf = max member
    df, duplicate tokens multiply, absent-synonym singletons degrade to the
    plain query, unknown groups drop."""
    from oboyu_ray.pipelines.bm25_batch import score_micros, synonym_topk

    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    syn = {
        "token": ["model"],           # both common
        "python": ["zzznohit"],       # absent synonym -> degrades to plain
        "検索": ["圧縮", "token"],     # multibyte + overlap with another group
        "zzqnope": ["token"],         # absent head, present synonym
    }
    queries = ["token python", "検索 token", "zzqnope", "token token"]
    k = 12
    brute = synonym_topk(docs_ds, queries, syn, k=k, cfg=CFG,
                         id_col="doc_num", text_col="text")
    hits = 0
    for q in queries:
        got = engine.search_synonym(q, syn, k=k)
        expect = brute[brute.query_id == q]
        assert len(got) == len(expect), q
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), q
        if len(got):
            np.testing.assert_array_equal(
                score_micros(got["score"].to_numpy()),
                expect["score_micros"].to_numpy(), err_msg=q,
            )
            hits += 1
    assert hits >= 3
    # no synonym map -> identical to plain search (groups are singletons
    # with df_max = the term's own df)
    a = engine.search_synonym("token python", {}, k=k)
    b = engine.search("token python", k=k)
    assert a["doc_num"].tolist() == b["doc_num"].tolist()
    np.testing.assert_allclose(a["score"].to_numpy(), b["score"].to_numpy(),
                               rtol=0, atol=1e-9)


def test_count_matches(built, engine):
    """count_matches (per-shard dense presence counting, one int per shard)
    must equal the deep-search result size for every semantics combination;
    absent/stopword-only queries count zero; strict-AND on a corpus-absent
    term counts zero even when other terms match."""
    deep = 10**6
    for q, kw in [
        ("token python", {}),
        ("token python", {"require_all": True}),
        ("token", {"exclude": "python"}),
        ("token python", {"scope": (0, 250)}),
        ("token python", {"require_all": True, "scope": (0, 250)}),
    ]:
        n = engine.count_matches(q, **kw)
        want = len(engine.search(q, k=deep, **kw))
        assert n == want, (q, kw)
        assert n > 0, (q, kw)  # probes must be non-trivial
    assert engine.count_matches("zzznohit") == 0
    assert engine.count_matches("token zzznohit", require_all=True) == 0
    assert engine.count_matches("token zzznohit") == engine.count_matches("token")
    assert engine.count_matches("です") == 0  # stopword-only tokenizes away
    assert engine.count_matches("token", scope=(5, 5)) == 0


def test_search_many_scope_exclude_matches_single(built, engine):
    """Batched search with uniform scope/exclude must equal per-query
    single search with the same kwargs (the one-tenant serving shape),
    on both the blocking and pipelined paths."""
    queries = ["token python", "token", "検索 token", "zzznohit"]
    for kw in (dict(scope=(0, 250)), dict(exclude="python"),
               dict(scope=(50, 400), exclude="model")):
        batched = engine.search_many(queries, k=8, **kw)
        for q, got in zip(queries, batched):
            single = engine.search(q, k=8, **kw)
            assert got["doc_num"].tolist() == single["doc_num"].tolist(), (q, kw)
            np.testing.assert_allclose(
                got["score"].to_numpy(), single["score"].to_numpy(),
                rtol=0, atol=1e-12,
            )
    assert sum(len(r) for r in engine.search_many(queries, k=8, scope=(0, 250))) > 0
    # empty scope interval → all-empty without any fan-out
    empty = engine.search_many(queries, k=8, scope=(7, 7))
    assert all(r.empty for r in empty)


def test_search_collapse_matches_groupby(built, engine):
    """Collapsed retrieval (one best turn per conversation) must equal the
    pandas groupby-first over an exhaustive deep search, for several ks and
    semantics combos; ranks by (best score DESC, best doc ASC); composes
    with scope/exclude/require_all; no-hit stays empty."""
    deep_k = 10**6
    for q, kw in [
        ("token python", {}),
        ("token", {"exclude": "python"}),
        ("token python", {"require_all": True}),
        ("token python", {"scope": (0, 300)}),
    ]:
        deep = engine.search(q, k=deep_k, **kw)
        expect_full = deep.drop_duplicates(subset=["conv_id"], keep="first")
        for k in (3, 10, 200):
            got = engine.search_collapse(q, k=k, **kw)
            expect = expect_full.head(k)
            assert got["conv_id"].tolist() == expect["conv_id"].tolist(), (q, kw, k)
            assert got["doc_num"].tolist() == expect["doc_num"].tolist(), (q, kw, k)
            np.testing.assert_allclose(
                got["score"].to_numpy(), expect["score"].to_numpy(),
                rtol=0, atol=1e-12,
            )
            # one row per conversation, scores non-increasing
            assert got["conv_id"].is_unique
            assert (np.diff(got["score"].to_numpy()) <= 1e-12).all()
    assert engine.search_collapse("zzznohit", k=5).empty
    h = engine.search_collapse("token python", k=3, hydrate=True)
    assert "text" in h.columns and len(h) == 3
    # inner hits (per_conv > 1): each group's top members in global order,
    # == pandas groupby-head over the exhaustive search
    deep = engine.search("token python", k=deep_k)
    for k, pc in ((5, 2), (10, 3)):
        got = engine.search_collapse("token python", k=k, per_conv=pc)
        top_convs = deep.drop_duplicates(
            subset=["conv_id"], keep="first")["conv_id"].head(k).tolist()
        expect = (
            deep[deep["conv_id"].isin(top_convs)]
            .groupby("conv_id", sort=False).head(pc)
        )
        order = {c: i for i, c in enumerate(top_convs)}
        expect = expect.assign(_g=expect["conv_id"].map(order)).sort_values(
            ["_g"], kind="mergesort")
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), (k, pc)
        assert got["group_rank"].max() <= k
        assert (got.groupby("conv_id").size() <= pc).all()


def test_cli_collapse_mode(built, capsys):
    import argparse

    from oboyu_ray.cli import cmd_query

    base = dict(index_dir=built["index_dir"], q="token python", k=5,
                num_shards=2, hydrate=False, num_cpus=None, collapse=True)
    rc = cmd_query(argparse.Namespace(**base))
    assert rc == 0 and "conv_id" in capsys.readouterr().out
    rc = cmd_query(argparse.Namespace(**{**base, "phrase": True}))
    assert rc == 2 and "plain search mode" in capsys.readouterr().err
    rc = cmd_query(argparse.Namespace(**{**base, "count": True}))
    assert rc == 2


def test_cross_mode_consistency_randomized(built, engine):
    """Seeded randomized consistency net across the retrieval modes — the
    algebraic identities that must hold for ANY query: dismax(tb=1) ≡
    plain OR over distinct terms; boosted({}) ≡ plain; count ≡ deep-search
    size; scoped results ⊆ unscoped deep results ∩ scope; AND ⊆ OR."""
    import numpy as np

    rng = np.random.default_rng(7)
    vocab = ["token", "python", "model", "検索", "圧縮", "インデックス",
             "zzznohit", "データ"]
    deep = 10**6
    checked = 0
    for _ in range(12):
        n_terms = int(rng.integers(1, 4))
        q = " ".join(rng.choice(vocab, size=n_terms, replace=False))
        plain_distinct = engine.search(" ".join(sorted(set(q.split()))), k=25)
        dm = engine.search_dismax(q, k=25, tiebreak=1.0)
        assert dm["doc_num"].tolist() == plain_distinct["doc_num"].tolist(), q
        plain = engine.search(q, k=25)
        bo = engine.search_boosted(q, {}, k=25)
        assert bo["doc_num"].tolist() == plain["doc_num"].tolist(), q
        assert engine.count_matches(q) == len(engine.search(q, k=deep)), q
        lo, hi = sorted(rng.integers(0, 500, size=2).tolist())
        if lo < hi:
            scoped = set(engine.search(q, k=deep, scope=(lo, hi))["doc_num"])
            full = set(engine.search(q, k=deep)["doc_num"])
            assert scoped == {d for d in full if lo <= d < hi}, (q, lo, hi)
        and_docs = set(engine.search(q, k=deep, require_all=True)["doc_num"])
        or_docs = set(engine.search(q, k=deep)["doc_num"])
        assert and_docs <= or_docs, q
        checked += len(plain) > 0
    assert checked >= 6


def test_count_many_matches_single(built, engine):
    """Batched counts (one df sweep + one fan-out) must equal the
    single-query count_matches per query, including dead queries."""
    queries = ["token python", "token", "zzznohit", "検索 token", "です"]
    for ra in (False, True):
        batched = engine.count_many(queries, require_all=ra)
        singles = [engine.count_matches(q, require_all=ra) for q in queries]
        assert batched == singles, ra
    assert sum(engine.count_many(queries)) > 0


def test_cli_count_mode(built, capsys):
    """`query --count` prints the bare integer; combining with a non-plain
    mode is refused (never silently count a different query)."""
    import argparse

    from oboyu_ray.cli import cmd_query

    base = dict(index_dir=built["index_dir"], q="token python", k=5,
                num_shards=2, hydrate=False, num_cpus=None, count=True)
    rc = cmd_query(argparse.Namespace(**base))
    out = capsys.readouterr().out.strip()
    assert rc == 0 and out.isdigit() and int(out) > 0
    rc = cmd_query(argparse.Namespace(**{**base, "phrase": True}))
    assert rc == 2 and "plain search mode" in capsys.readouterr().err
    # results-shaping flags are refused too, never silently dropped
    for extra in ({"snippet": True}, {"page": 2}, {"hydrate": True}):
        rc = cmd_query(argparse.Namespace(**{**base, **extra}))
        assert rc == 2 and "plain search mode" in capsys.readouterr().err, extra


def test_search_snippets(built, engine):
    """search(snippet=True) returns the reference-shaped snippet column:
    hydration implied, every matched doc's snippet contains a query term,
    highlight wraps terms in the reference ** format, snippets are windows
    of the source text, and no-hit results carry an empty snippet column.
    attach_snippets refuses unhydrated frames."""
    q = "token python"
    out = engine.search(q, k=6, snippet=True, highlight=True)
    assert len(out) > 0 and "snippet" in out.columns and "text" in out.columns
    from oboyu_ray.functions.textproc import remove_highlights

    import re as _re

    terms = engine.tokenizer.tokenize(q)
    hit_any = 0
    for _, r in out.iterrows():
        plain = remove_highlights(r["snippet"])
        assert plain in (r["text"] or ""), "snippet must be a text window"
        if any(t in plain.lower() for t in terms):
            hit_any += 1
        # highlighting is word-boundary faithful (reference
        # text_highlighter semantics): a term flanked by \w (incl. CJK)
        # stays un-highlighted; boundary-isolated occurrences MUST wrap
        if any(
            _re.search(r"\b" + _re.escape(t) + r"\b", plain, _re.IGNORECASE)
            for t in terms
        ):
            assert "**" in r["snippet"], "boundary match must be highlighted"
    assert hit_any > 0
    # snippet without explicit hydrate=True still hydrates
    out2 = engine.search(q, k=3, snippet=True)
    assert "snippet" in out2.columns and len(out2) == 3
    # empty result keeps the snippet column
    empty = engine.search("zzznohit", k=5, snippet=True)
    assert len(empty) == 0 and "snippet" in empty.columns
    # unhydrated frames are refused loudly
    bare = engine.search(q, k=3)
    with pytest.raises(ValueError, match="hydrated"):
        engine.attach_snippets(bare, q)
    # composable with other flavors' hydrated output
    ph = engine.search_synonym(q, {}, k=3, hydrate=True)
    sn = engine.attach_snippets(ph, q)
    assert "snippet" in sn.columns and len(sn) == 3


def test_dismax_engine_matches_brute_force(built, engine):
    """search_dismax (dense max+sum accumulation through the shards) must
    be rank- and score-identical to the Dataset brute force dismax_topk:
    max + tb·(sum − max) over weighted single-term contributions, distinct
    clauses (a duplicated token is the same clause), tiebreak=1 ≡ plain
    OR sum."""
    from oboyu_ray.pipelines.bm25_batch import dismax_topk, score_micros

    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    queries = ["token python", "検索 token model", "token token", "zzznohit"]
    k, tb = 12, 0.3
    brute = dismax_topk(docs_ds, queries, k=k, tiebreak=tb, cfg=CFG,
                        id_col="doc_num", text_col="text")
    hits = 0
    for q in queries:
        got = engine.search_dismax(q, k=k, tiebreak=tb)
        expect = brute[brute.query_id == q]
        assert len(got) == len(expect), q
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), q
        if len(got):
            np.testing.assert_array_equal(
                score_micros(got["score"].to_numpy()),
                expect["score_micros"].to_numpy(), err_msg=q,
            )
            hits += 1
    assert hits >= 2
    # tiebreak=1 → max + (sum − max) = sum: identical to the plain OR
    # query over the DISTINCT term set
    a = engine.search_dismax("token python", k=k, tiebreak=1.0)
    b = engine.search("token python", k=k)
    assert a["doc_num"].tolist() == b["doc_num"].tolist()
    np.testing.assert_allclose(a["score"].to_numpy(), b["score"].to_numpy(),
                               rtol=0, atol=1e-9)
    # scope composes: every result inside the interval, subset semantics
    s = engine.search_dismax("token python", k=k, tiebreak=tb, scope=(0, 200))
    assert ((s["doc_num"] >= 0) & (s["doc_num"] < 200)).all()


def test_dismax_pruned_and_dense_paths_identical(built, engine):
    """The block-max pruned window walk (bound = (1−tb)·ub_max + tb·ub_sum)
    and the dense whole-part accumulation must return identical (doc,
    score) dismax results — including hot+rare mixes (the pruning shape)
    and duplicate-free negative-idf terms, at several tiebreaks and ks."""
    import json as _json
    import os as _os

    from oboyu_ray.state.shards import IndexShard

    blocks = sorted(_os.listdir(_os.path.join(built["index_dir"], "blocks")))
    part_ids = [int(f.split("-")[1].split(".")[0]) for f in blocks]
    shard = IndexShard(built["index_dir"], part_ids, built["cfg"].window_docs)
    stats = _json.load(open(_os.path.join(built["index_dir"], "stats.json")))
    shard.configure(1.2, 0.75, float(stats["avgdl"]))

    probes = ["token python", "token model", "検索 token", "python 圧縮"]
    n_hits = 0
    for q in probes:
        terms = sorted(set(engine.tokenizer.tokenize(q)))
        w = engine.term_weights(terms)
        if not w:
            continue
        for tb in (0.0, 0.3, 1.0):
            for k in (3, 10, 50):
                d = shard.query_dismax(w, tb, k, force="dense")
                p = shard.query_dismax(w, tb, k, force="pruned")
                a = shard.query_dismax(w, tb, k)  # adaptive
                np.testing.assert_array_equal(d[0], p[0], err_msg=f"{q} tb={tb} k={k}")
                np.testing.assert_allclose(d[1], p[1], rtol=0, atol=0,
                                           err_msg=f"{q} tb={tb} k={k}")
                np.testing.assert_array_equal(a[0], d[0], err_msg=f"{q} tb={tb} k={k}")
                n_hits += len(d[0]) > 0
    assert n_hits >= 9
    # scope composes on the pruned path too
    d = shard.query_dismax(engine.term_weights(["token"]), 0.3, 10,
                           scope=(0, 200), force="pruned")
    assert ((d[0] >= 0) & (d[0] < 200)).all()
    # ZERO-weight clause (idf crosses 0 exactly at df == N/2): its
    # contribution is exactly 0, so the pruned bound must treat windows
    # covered only by it as ub_max == 0, not −inf (review-pass regression:
    # −inf bounds pruned true top-k docs; tb=1 gave NaN bounds).  The
    # negative-weight partner fills the heap with negative θ so the zero
    # windows actually face pruning.
    wz = dict(engine.term_weights(["検索"]))  # 検索 is negative-idf here
    assert next(iter(wz.values())) < 0
    wz["token"] = 0.0
    for tb in (0.3, 1.0):
        dz = shard.query_dismax(wz, tb, 25, force="dense")
        pz = shard.query_dismax(wz, tb, 25, force="pruned")
        az = shard.query_dismax(wz, tb, 25)
        np.testing.assert_array_equal(dz[0], pz[0], err_msg=f"zero-w tb={tb}")
        np.testing.assert_allclose(dz[1], pz[1], rtol=0, atol=0)
        np.testing.assert_array_equal(az[0], dz[0], err_msg=f"zero-w tb={tb}")
        assert not np.isnan(pz[1]).any()


def test_boosted_engine_matches_brute_force(built, engine):
    """search_boosted (pre-scaled weights through the ordinary WAND/dense
    OR path) must be rank- and score-identical to the Dataset brute force
    boosted_topk; boosts={} ≡ plain search; boost 0 removes the clause."""
    from oboyu_ray.pipelines.bm25_batch import boosted_topk, score_micros

    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    boosts = {"token": 2.5, "python": 0.5, "検索": 3.0}
    queries = ["token python", "検索 token", "token token python"]
    k = 12
    brute = boosted_topk(docs_ds, queries, boosts, k=k, cfg=CFG,
                         id_col="doc_num", text_col="text")
    hits = 0
    for q in queries:
        got = engine.search_boosted(q, boosts, k=k)
        expect = brute[brute.query_id == q]
        assert len(got) == len(expect), q
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), q
        if len(got):
            np.testing.assert_array_equal(
                score_micros(got["score"].to_numpy()),
                expect["score_micros"].to_numpy(), err_msg=q,
            )
            hits += 1
    assert hits >= 2
    # empty boosts → identical to plain search
    a = engine.search_boosted("token python", {}, k=k)
    b = engine.search("token python", k=k)
    assert a["doc_num"].tolist() == b["doc_num"].tolist()
    np.testing.assert_allclose(a["score"].to_numpy(), b["score"].to_numpy(),
                               rtol=0, atol=1e-9)
    # boost 0 removes the clause entirely ≡ querying the remaining term
    c = engine.search_boosted("token python", {"python": 0.0}, k=k)
    d = engine.search("token", k=k)
    assert c["doc_num"].tolist() == d["doc_num"].tolist()
    # exclude is a term STRING tokenized like the query (the review-pass
    # regression: a raw string iterated as characters silently dropped
    # the exclusion) — neutral boosts + exclude ≡ plain search + exclude
    e1 = engine.search_boosted("token model", {}, k=k, exclude="python")
    e2 = engine.search("token model", k=k, exclude="python")
    assert e1["doc_num"].tolist() == e2["doc_num"].tolist()
    excluded = set(engine.search("python", k=10**6)["doc_num"])
    assert not (set(e1["doc_num"]) & excluded)


def test_mlt_engine_matches_brute_force(built, engine):
    """more_like_this (hydrate source text → tf×selection-weight term pick
    → signed-idf OR query, self excluded) must be rank- and score-identical
    to the Dataset brute force mlt_topk; the source doc never appears in
    its own neighborhood; unknown doc_num → empty."""
    from oboyu_ray.pipelines.bm25_batch import mlt_topk, score_micros

    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    k, n_terms = 8, 6
    src_docs = [0, 7, 101, 555]
    brute = mlt_topk(docs_ds, src_docs, k=k, n_terms=n_terms, cfg=CFG,
                     id_col="doc_num", text_col="text")
    hits = 0
    for d in src_docs:
        got = engine.more_like_this(d, k=k, n_terms=n_terms)
        expect = brute[brute.query_id == f"doc:{d}"]
        assert len(got) == len(expect), d
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), d
        assert int(d) not in got["doc_num"].tolist()
        if len(got):
            np.testing.assert_array_equal(
                score_micros(got["score"].to_numpy()),
                expect["score_micros"].to_numpy(), err_msg=str(d),
            )
            hits += 1
    assert hits >= 3
    # unknown doc_num → empty, hydrate path intact
    assert engine.more_like_this(10**9, k=5).empty
    h = engine.more_like_this(src_docs[0], k=3, hydrate=True)
    assert "text" in h.columns and len(h) == 3


def test_not_engine_matches_brute_force(built, engine):
    """Boolean NOT through the shard actors (WAND + AND paths) must match
    the brute force exactly; exclusion must be able to RESHAPE the top-k
    (not just truncate it) and θ-pruning must stay sound."""
    from oboyu_ray.pipelines.bm25_batch import brute_force_topk, score_micros

    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    stats = json.load(open(os.path.join(built["index_dir"], "stats.json")))
    st = {"N": stats["N"], "total_dl": stats["total_dl"], "avgdl": stats["avgdl"]}
    cases = [
        ("検索 インデックス", "python"),   # exclusion overlaps the topic
        ("token", "です"),                 # hot-term exclusion (df ≈ N)
        ("python model", "zzz_nohit"),     # absent exclusion → no-op
        ("compress 圧縮", "compress"),     # excludes one of the query's own terms
    ]
    k = 12
    tokq = tokenize_queries([q for q, _ in cases], CFG)
    queries = {f"{q} -{x}": tokq[q] for q, x in cases}
    exclude = {f"{q} -{x}": tokenize_queries([x], CFG)[x] for q, x in cases}
    brute = brute_force_topk(
        docs_ds, queries, k=k, cfg=CFG, id_col="doc_num", text_col="text",
        stats=st, exclude=exclude,
    )
    reshaped = 0
    for q, x in cases:
        qid = f"{q} -{x}"
        got = engine.search(q, k=k, exclude=x)
        expect = brute[brute.query_id == qid]
        assert got["doc_num"].tolist() == expect["doc_num"].tolist(), qid
        if len(got):
            np.testing.assert_array_equal(
                score_micros(got["score"].to_numpy()),
                expect["score_micros"].to_numpy(), err_msg=qid,
            )
        plain = engine.search(q, k=k)
        if set(got["doc_num"]) != set(plain["doc_num"]):
            reshaped += 1
        # excluded docs are really absent from a deep result
        deep = engine.search(q, k=5000, exclude=x)
        bad = engine.search(x, k=5000)
        assert not (set(deep["doc_num"]) & set(bad["doc_num"])), qid
    assert reshaped >= 2  # exclusions actually changed rankings

    # conjunctive + NOT through the AND path
    got = engine.search("python model", k=k, require_all=True, exclude="です")
    exp = brute_force_topk(
        docs_ds, {"pm": tokq["python model"]}, k=k, cfg=CFG, id_col="doc_num",
        text_col="text", stats=st, require_all=True,
        exclude={"pm": tokenize_queries(["です"], CFG)["です"]},
    )
    assert got["doc_num"].tolist() == exp["doc_num"].tolist()


def test_wide_or_dense_path_matches_brute_force(built, engine):
    """Queries with >= WIDE_OR_TERMS matched terms (prefix expansions) take
    the whole-part dense accumulate — must stay rank+score identical to the
    brute force (and to the narrow-query paths by construction)."""
    from oboyu_ray.pipelines.bm25_batch import brute_force_topk, score_micros
    from oboyu_ray.state.shards import WIDE_OR_TERMS

    vocab_dir = os.path.join(built["index_dir"], "vocab")
    terms = []
    for f in sorted(os.listdir(vocab_dir)):
        if f.endswith(".parquet"):
            terms += pq.read_table(
                os.path.join(vocab_dir, f), columns=["term"]
            ).column("term").to_pylist()
    terms = sorted(terms)[: WIDE_OR_TERMS + 20]
    assert len(terms) >= WIDE_OR_TERMS

    docs_dir = os.path.join(built["index_dir"], "docs")
    docs_ds = ray.data.read_parquet(docs_dir)
    stats = json.load(open(os.path.join(built["index_dir"], "stats.json")))
    k = 15
    brute = brute_force_topk(
        docs_ds, {"wide": terms}, k=k, cfg=CFG, id_col="doc_num",
        text_col="text",
        stats={"N": stats["N"], "total_dl": stats["total_dl"], "avgdl": stats["avgdl"]},
    )
    got = engine.search_terms(terms, k=k)
    expect = brute[brute.query_id == "wide"]
    assert len(got) == len(expect) > 0
    assert got["doc_num"].tolist() == expect["doc_num"].tolist()
    np.testing.assert_array_equal(
        score_micros(got["score"].to_numpy()), expect["score_micros"].to_numpy()
    )
    # and with an exclusion through the dense path
    ex = [t for t in terms if t][:1]
    got2 = engine.search_terms(terms, k=k, exclude=ex)
    brute2 = brute_force_topk(
        docs_ds, {"wide": terms}, k=k, cfg=CFG, id_col="doc_num",
        text_col="text",
        stats={"N": stats["N"], "total_dl": stats["total_dl"], "avgdl": stats["avgdl"]},
        exclude={"wide": ex},
    )
    assert got2["doc_num"].tolist() == brute2["doc_num"].tolist()


def test_query_stats_telemetry(built, engine):
    """query_stats aggregates real scan telemetry: pruning happens on
    selective queries, caches hit on repeats, and reset zeroes an epoch."""
    engine.query_stats(reset=True)
    engine.search_terms(tokenize_queries(["python model"], CFG)["python model"], k=3)
    s1 = engine.query_stats()
    assert s1["queries"] >= 1
    assert s1["windows_scanned"] + s1["maxscore_parts"] + s1["wide_or_parts"] > 0
    assert s1["cache_misses"] + s1["cache_hits"] >= 0
    # repeat the same query: decode work is cached now
    engine.search_terms(tokenize_queries(["python model"], CFG)["python model"], k=3)
    s2 = engine.query_stats()
    assert s2["queries"] > s1["queries"]
    assert s2["postings_decoded"] >= s1["postings_decoded"]
    # a k=1 selective query on small windows should prune at least one
    # window somewhere across the suite of probes
    for q in QUERIES:
        engine.search_terms(tokenize_queries([q], CFG)[q], k=1)
    s3 = engine.query_stats(reset=True)
    assert s3["windows_pruned"] >= 0  # counter exists and is consistent
    assert engine.query_stats()["queries"] == 0  # reset zeroed the epoch
