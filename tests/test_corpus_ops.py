"""Tests for the training-data corpus operators (dedup / simsearch /
textstats / multimodal) — DuckDB-oracle equality for the SQL-expressible
ones (mirroring the driver's check), subset/recall pinning for the
probabilistic ones, schema + determinism for the multimodal plumbing."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

SF = "/root/testdata/sf0.01"

ORACLED = [
    "text_stats",
    "text_quality",
    "text_fingerprint",
    "dedup_exact",
    "dedup_ngram_jaccard",
    "dedup_embedding_cosine",
    "simsearch_topk",
    "hybrid_rrf",
    "events_window",
    "orders_by_nation",
    "text_normalize",
    "bm25_topk_filtered",
    "sessionize",
    "interval_join",
    "topk_per_group",
    "heavy_hitters",
    "price_quantiles",
    "grouped_quantiles",
]


@pytest.fixture(scope="module")
def entrymod():
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as E

    return E


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in ("documents", "embeddings", "events", "orders", "customer", "lineitem"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


def _as_df(res) -> pd.DataFrame:
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    return pd.DataFrame(res)


@pytest.mark.parametrize("name", ORACLED)
def test_oracle_equality(entrymod, duck, name):
    sql = entrymod.oracle_sql().get(name)
    if sql is None:  # conditionally-registered oracle (e.g. text_normalize)
        pytest.skip(f"{name}: oracle not registered in this environment")
    df = _as_df(entrymod.queries()[name](SF))
    ora = duck.execute(sql).fetchdf()
    cols = sorted(df.columns)
    assert cols == sorted(ora.columns)
    a = df[cols].sort_values(cols).reset_index(drop=True)
    b = ora[cols].sort_values(cols).reset_index(drop=True)
    assert a.shape == b.shape
    assert (a.values == b.values).all()


def test_minhash_lsh_subset_and_recall(entrymod):
    exact = _as_df(entrymod.queries()["dedup_ngram_jaccard"](SF))
    lsh = _as_df(entrymod.queries()["dedup_minhash_lsh"](SF))
    ek = set(map(tuple, exact[["doc_a", "doc_b"]].to_numpy()))
    lk = set(map(tuple, lsh[["doc_a", "doc_b"]].to_numpy()))
    # verified LSH output is a subset of the exact pair set, values identical
    assert lk <= ek
    merged = lsh.merge(exact, on=["doc_a", "doc_b"], suffixes=("_l", "_e"))
    assert (merged["jaccard_micros_l"] == merged["jaccard_micros_e"]).all()
    # recall at tau=0.5 with 64 perms / 16 bands should be near-total
    assert len(lk) >= 0.9 * len(ek)


def test_simhash_deterministic_and_self_consistent(entrymod):
    a = _as_df(entrymod.queries()["dedup_simhash"](SF))
    b = _as_df(entrymod.queries()["dedup_simhash"](SF))
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0  # sf0.01 has planted near-dups; empty would be vacuous
    assert (a["hamming"] <= 3).all()
    assert (a["doc_a"] < a["doc_b"]).all()


def test_simhash_finds_identical_texts():
    from oboyu_ray.stages.dedup import simhash_pairs

    ds = ray.data.from_items(
        [
            {"doc_id": 1, "text": "alpha beta gamma delta epsilon zeta"},
            {"doc_id": 2, "text": "alpha beta gamma delta epsilon zeta"},
            {"doc_id": 3, "text": "totally different words entirely here now"},
        ]
    )
    out = simhash_pairs(ds)
    assert list(map(tuple, out[["doc_a", "doc_b", "hamming"]].to_numpy())) == [(1, 2, 0)]


def test_exact_dedup_groups_duplicates():
    from oboyu_ray.stages.dedup import exact_dedup

    ds = ray.data.from_items(
        [
            {"doc_id": 5, "text": "Hello  World"},
            {"doc_id": 3, "text": "hello world"},  # same after normalize
            {"doc_id": 9, "text": "something else"},
        ]
    )
    out = exact_dedup(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(out) == 2
    dup = out[out["n_dups"] == 2]
    assert len(dup) == 1 and int(dup["doc_id"].iloc[0]) == 3  # min id kept


def test_lsh_topk_scores_consistent_with_brute(entrymod):
    brute = _as_df(entrymod.queries()["simsearch_topk"](SF))
    lsh = _as_df(entrymod.queries()["simsearch_lsh"](SF))
    assert len(brute) > 0 and len(lsh) > 0
    assert set(lsh["query_id"]) == set(brute["query_id"])  # every query probed
    # self-match is always probed (hamming 0) and tops the list
    for qid, grp in lsh.groupby("query_id"):
        top = grp[grp["rank"] == 1].iloc[0]
        assert top["vec_id"] == qid and top["cos_micros"] == 1_000_000
    # any (query, vec) the probe returns scores identically to brute force
    merged = lsh.merge(
        brute, on=["query_id", "vec_id"], suffixes=("_l", "_b"), how="inner"
    )
    assert (merged["cos_micros_l"] == merged["cos_micros_b"]).all()
    # probe recall@10 is useful (not vacuous)
    bk = set(map(tuple, brute[["query_id", "vec_id"]].to_numpy()))
    lk = set(map(tuple, lsh[["query_id", "vec_id"]].to_numpy()))
    assert len(lk & bk) >= 0.5 * len(bk)


def test_multimodal_schema_and_determinism(entrymod):
    a = _as_df(entrymod.queries()["multimodal_features"](SF)).sort_values("doc_id").reset_index(drop=True)
    b = _as_df(entrymod.queries()["multimodal_features"](SF)).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert list(a.columns) == ["doc_id", "width", "height", "n_bytes", "mean_byte_micros"]
    assert (a["n_bytes"] == a["width"] * a["height"]).all()
    assert len(a) == 500


def test_multimodal_payload_roundtrip():
    from oboyu_ray.stages.multimodal import HEADER, MAGIC, synth_payload_batch

    batch = pa.table({"doc_id": [7], "text": ["some text"]})
    out = synth_payload_batch(batch)
    p = out.column("payload")[0].as_py()
    magic, w, h, n = HEADER.unpack_from(p, 0)
    assert magic == MAGIC and len(p) == HEADER.size + n and n == w * h


def test_real_decode_stub_raises():
    from oboyu_ray.stages.multimodal import RealDecodeStub

    stub = RealDecodeStub(target_size=(64, 64))
    with pytest.raises(NotImplementedError):
        stub(pa.table({"doc_id": [1], "payload": [b"x"]}))


def test_ngram_jaccard_has_planted_near_dups(entrymod):
    out = _as_df(entrymod.queries()["dedup_ngram_jaccard"](SF))
    assert len(out) > 0
    assert (out["jaccard_micros"] >= 500_000).all()
    assert (out["doc_a"] < out["doc_b"]).all()


def test_normalize_chain_semantics():
    from oboyu_ray.functions.normalize import (
        needs_width_conversion,
        process_japanese_text,
        standardize_line_endings,
        zen_to_han_ascii_digit,
    )

    assert zen_to_han_ascii_digit("ＡＢＣ１２３！ カナ　x") == "ABC123! カナ x"
    assert not needs_width_conversion("カナ！。")  # punctuation alone does not trigger
    assert needs_width_conversion("１")
    assert standardize_line_endings("a\r\nb\rc\n\n\n\nd") == "a\nb\nc\n\nd"
    out, steps = process_japanese_text("ＡＢ\r\n\n\n\nカナ")
    assert out == "AB\n\nカナ"
    assert "zen_to_han" in steps and "line_endings" in steps
    # kana untouched when no full-width ascii/digits present
    out2, steps2 = process_japanese_text("カナ テスト")
    assert out2 == "カナ テスト" and "zen_to_han" not in steps2


def test_filtered_bm25_only_allowed_lang(entrymod, duck):
    out = _as_df(entrymod.queries()["bm25_topk_filtered"](SF))
    langs = duck.execute("SELECT doc_id, lang FROM documents").fetchdf()
    merged = out.merge(langs, on="doc_id")
    assert (merged["lang"] == "en").all()
    assert len(out) > 0


def test_ivf_recall_and_score_consistency(entrymod):
    brute = _as_df(entrymod.queries()["simsearch_topk"](SF))
    ivf = _as_df(entrymod.queries()["simsearch_ivf"](SF))
    # scores identical where returned; recall useful; deterministic
    merged = ivf.merge(brute, on=["query_id", "vec_id"], suffixes=("_i", "_b"), how="inner")
    assert (merged["cos_micros_i"] == merged["cos_micros_b"]).all()
    bk = set(map(tuple, brute[["query_id", "vec_id"]].to_numpy()))
    ik = set(map(tuple, ivf[["query_id", "vec_id"]].to_numpy()))
    assert len(ik & bk) >= 0.7 * len(bk)
    again = _as_df(entrymod.queries()["simsearch_ivf"](SF))
    pd.testing.assert_frame_equal(ivf, again)


def test_sessionize_semantics():
    from datetime import datetime, timedelta

    from oboyu_ray.stages.sessionize import sessionize

    t0 = datetime(2025, 1, 1)
    rows = [
        {"event_id": 1, "user_id": 7, "ts": t0},
        {"event_id": 2, "user_id": 7, "ts": t0 + timedelta(minutes=29)},  # same session
        {"event_id": 3, "user_id": 7, "ts": t0 + timedelta(minutes=65)},  # gap 36m -> new
        {"event_id": 4, "user_id": 8, "ts": t0 + timedelta(minutes=1)},   # other user
    ]
    out = (
        sessionize(ray.data.from_items(rows))
        .to_pandas()
        .sort_values(["user_id", "session_idx"])
        .reset_index(drop=True)
    )
    assert out[["user_id", "session_idx", "n_events"]].values.tolist() == [
        [7, 1, 2],
        [7, 2, 1],
        [8, 1, 1],
    ]


def test_sessionize_gap_boundary_exact():
    from datetime import datetime, timedelta

    from oboyu_ray.stages.sessionize import sessionize

    t0 = datetime(2025, 1, 1)
    rows = [
        {"event_id": 1, "user_id": 1, "ts": t0},
        {"event_id": 2, "user_id": 1, "ts": t0 + timedelta(minutes=30)},  # == gap: same session
    ]
    out = sessionize(ray.data.from_items(rows)).to_pandas()
    assert len(out) == 1 and int(out["n_events"].iloc[0]) == 2


def test_fake_embedder_self_retrieval(entrymod):
    """The embed stage's vectors support retrieval: querying with a document's
    own text returns that document at rank 1 (cosine 1.0)."""
    import numpy as np

    from oboyu_ray.functions.embed import FakeEmbedder
    from oboyu_ray.stages.simsearch import brute_force_cosine_topk

    from oboyu_ray.functions.embed import embed_documents

    summary = entrymod.queries()["doc_embeddings"](SF).to_pandas()
    assert list(summary.columns) == ["doc_id", "dim", "l2_micros", "vec_md5"]
    assert len(summary) == 500 and (summary["dim"] == 64).all()
    assert (summary["l2_micros"] == 1_000_000).all()  # normalized vectors

    docs_ds = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    df = embed_documents(docs_ds).to_pandas()
    assert len(df) == 500 and len(df["embedding"].iloc[0]) == 64

    enc = FakeEmbedder()
    docs = duckdb.sql(
        f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet') LIMIT 3"
    ).fetchdf()
    M = np.stack(df.sort_values("doc_id")["embedding"].to_numpy()).astype(np.float64)
    ids = df.sort_values("doc_id")["doc_id"].to_numpy()
    for _, row in docs.iterrows():
        q = enc._encode_one(row["text"])
        sims = M @ q
        assert ids[int(np.argmax(sims))] == row["doc_id"]

    ds = ray.data.from_pandas(df.rename(columns={"doc_id": "vec_id"}))
    top = brute_force_cosine_topk(ds, k=3, query_ids=(int(docs["doc_id"].iloc[0]),))
    assert int(top[top["rank"] == 1]["vec_id"].iloc[0]) == int(docs["doc_id"].iloc[0])


def test_real_embedder_stub_raises():
    from oboyu_ray.functions.embed import RealEmbedderStub

    with pytest.raises(NotImplementedError):
        RealEmbedderStub()(pa.table({"doc_id": [1], "text": ["x"]}))


def test_file_corpus_source(tmp_path):
    """S1-S3: discovery (globs, size cap, depth), decode fallback, markdown
    front-matter extraction, parallel read into a Dataset."""
    import os

    from oboyu_ray.sources.files import discover_files, parse_front_matter, read_documents

    (tmp_path / "a.md").write_text("---\ntitle: Doc A\nuri: http://x\n---\nbody A text")
    (tmp_path / "b.txt").write_text("plain body B")
    (tmp_path / "skip.py").write_text("not included")
    (tmp_path / "big.txt").write_bytes(b"x" * (11 * 1024 * 1024))  # over size cap
    sub = tmp_path / "sub" / "deep"
    sub.mkdir(parents=True)
    (sub / "c.md").write_text("no front matter here")
    (tmp_path / "node_modules").mkdir()
    (tmp_path / "node_modules" / "d.txt").write_text("excluded")
    (tmp_path / "latin.txt").write_bytes("café".encode("latin-1"))  # non-utf8

    files = discover_files(str(tmp_path), exclude_patterns=["node_modules/*"])
    names = sorted(os.path.basename(f) for f in files)
    assert names == ["a.md", "b.txt", "c.md", "latin.txt"]
    assert "big.txt" not in names and "d.txt" not in names and "skip.py" not in names

    ds = read_documents(files)
    df = ds.to_pandas().set_index("path")
    a = df.loc[str(tmp_path / "a.md")]
    assert a["title"] == "Doc A" and a["uri"] == "http://x" and a["text"] == "body A text"
    assert df.loc[str(tmp_path / "b.txt")]["text"] == "plain body B"
    assert df.loc[str(tmp_path / "latin.txt")]["text"] == "café"

    # front-matter edge cases
    body, meta = parse_front_matter("no delimiters at all")
    assert body == "no delimiters at all" and meta == {}
    body, meta = parse_front_matter("---\ntitle: T\nignored_key: v\n---\nrest")
    assert meta == {"title": "T"} and body == "rest"


def test_index_directory_end_to_end(tmp_path):
    """`oboyu index DIR` + `oboyu search` equivalent: file corpus → chunked
    transcript shards → full distributed index → rank-exact search with
    hydration, verified against the reference BM25Indexer over the same
    chunked corpus."""
    import os

    from oboyu_ray.functions.textproc import chunk_text
    from oboyu_ray.pipelines.file_index import get_index_info, index_directory, open_search
    from tests.reference_oracle import load_reference, reference_topk

    root = tmp_path / "corpus"
    root.mkdir()
    (root / "alpha.md").write_text(
        "---\ntitle: Alpha\n---\n" + ("alpha document search engine text. " * 60)
    )
    (root / "beta.txt").write_text("beta indexing pipeline content. " * 50)
    (root / "gamma.txt").write_text("gamma 検索 日本語 文書 content. " * 40)
    (root / "ignored.bin").write_bytes(b"\x00\x01")

    index_dir = str(tmp_path / "idx")
    report = index_directory(
        str(root), index_dir, chunk_size=200, chunk_overlap=50
    )
    assert report["n_docs"] > 3  # chunking actually split the files

    info = get_index_info(index_dir)
    assert info["document_count"] == report["n_docs"]
    assert info["vocabulary_size"] > 5

    engine = open_search(index_dir, num_shards=1)
    got = engine.search("検索 日本語", k=3, hydrate=True)
    assert len(got) > 0
    assert all(d.startswith(str(root / "gamma.txt")) for d in got["doc_id"])
    assert got["text"].str.contains("検索").all()

    # rank-identity vs the reference over the SAME chunked corpus
    ref = load_reference()
    ridx = ref.BM25Indexer()
    chunks = []
    for fname in ("alpha.md", "beta.txt", "gamma.txt"):
        body = (root / fname).read_text()
        if body.startswith("---"):
            body = body.split("---\n", 2)[2]
        for i, c in enumerate(chunk_text(body, 200, 50)):
            chunks.append(ref.make_chunk(f"{root / fname}:{i:08d}", c))
    ridx.index_chunks(chunks)
    for q in ("alpha search", "indexing pipeline", "検索"):
        terms = engine.tokenizer.tokenize(q)
        cand = {e[0] for t in terms for e in ridx.inverted_index.get(t, [])}
        expect = [(d, s) for d, s in reference_topk(ridx, terms, k=99) if d in cand][:5]
        got = engine.search(q, k=5)
        assert got["doc_id"].tolist() == [d for d, _ in expect], q
    engine.close()


def test_whitespace_class_pinned_vs_duckdb():
    """Python and DuckDB whitespace handling is pinned to the same explicit
    ASCII class (+ explicit space-only trim): U+3000 ideographic spaces and
    NBSP in ordinary Japanese text must produce identical dedup keys,
    fingerprints and whitespace-token counts on both engines (ADVICE r1)."""
    import hashlib

    from oboyu_ray.pipelines.corpus_queries import (
        SQL_DEDUP_EXACT,
        SQL_TEXT_FINGERPRINT,
        SQL_TEXT_STATS,
    )
    from oboyu_ray.stages import textstats

    raw = [
        "日本　テキスト  test",  # JP with U+3000
        " 　edge　 ",
        "a\tb\ncd",
        " nbsp test",
        "dup  A",
        "dup A",
    ]
    docs = pd.DataFrame({"doc_id": range(len(raw)), "text": raw})
    con = duckdb.connect()
    con.register("documents", docs)

    batch = pa.table(
        {"doc_id": pa.array(range(len(raw)), type=pa.int64()), "text": pa.array(raw)}
    )
    py_stats = textstats.text_stats_batch(batch).to_pandas()
    sq_stats = con.execute(SQL_TEXT_STATS).fetchdf().sort_values("doc_id", ignore_index=True)
    assert py_stats["n_ws_tokens"].tolist() == sq_stats["n_ws_tokens"].tolist()

    py_fp = textstats.fingerprint_batch(batch).to_pandas()
    sq_fp = con.execute(SQL_TEXT_FINGERPRINT).fetchdf().sort_values("doc_id", ignore_index=True)
    assert py_fp["fingerprint"].tolist() == sq_fp["fingerprint"].tolist()
    assert py_fp["winnow_fingerprint"].tolist() == sq_fp["winnow_fingerprint"].tolist()

    py_keys = sorted({hashlib.md5(textstats._normalize(t).encode()).hexdigest() for t in raw})
    sq_keys = sorted(con.execute(SQL_DEDUP_EXACT).fetchdf()["key"].tolist())
    assert py_keys == sq_keys


def test_vector_index_persisted_exact_and_prunes(tmp_path):
    """Persisted IVF index: exact top-k vs brute force, and on clustered
    data the bounded probe reads strictly fewer cells than a full scan."""
    import ray

    from oboyu_ray.state.vector_index import VectorIndex, build_vector_index
    from oboyu_ray.stages.simsearch import brute_force_cosine_topk, load_query_matrix

    rng = np.random.RandomState(3)
    # 8 tight clusters -> small cell radii -> real pruning
    centers = rng.standard_normal((8, 16)) * 5
    vecs = np.concatenate(
        [centers[i % 8] + rng.standard_normal(16) * 0.05 for i in range(400)]
    ).reshape(400, 16)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(400), type=pa.int64()),
                "embedding": pa.array(list(vecs), type=pa.list_(pa.float64())),
            }
        )
    )
    idx_dir = str(tmp_path / "vi")
    man = build_vector_index(ds, idx_dir, n_cells=8)
    assert man["n_vectors"] == 400
    qids, Q = load_query_matrix(ds, (0, 1, 2))
    idx = VectorIndex(idx_dir)
    got = idx.search(Q, k=5, query_ids=qids)
    want = brute_force_cosine_topk(ds, k=5, query_ids=(0, 1, 2))
    pd.testing.assert_frame_equal(
        got.sort_values(["query_id", "rank"], ignore_index=True),
        want.sort_values(["query_id", "rank"], ignore_index=True),
        check_dtype=False,
    )
    assert idx.cells_read < 8  # pruning engaged on clustered data

    # idempotent: second build short-circuits on the manifest
    man2 = build_vector_index(ds, idx_dir, n_cells=8)
    assert man2 == man


def test_vector_index_tiny_corpus(tmp_path):
    """Regression (r2 ADVICE): a corpus smaller than the minimum auto cell
    count (16) must still build — per-cell arrays are sized by the trained
    centroid count, not the requested one."""
    import ray

    from oboyu_ray.state.vector_index import VectorIndex, build_vector_index
    from oboyu_ray.stages.simsearch import brute_force_cosine_topk

    rng = np.random.RandomState(7)
    vecs = rng.standard_normal((5, 8))
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(5), type=pa.int64()),
        "embedding": pa.array(list(vecs), type=pa.list_(pa.float64())),
    }))
    idx_dir = str(tmp_path / "tiny")
    man = build_vector_index(ds, idx_dir)  # auto sizing clamps to 16 > 5
    assert man["n_vectors"] == 5 and man["n_cells"] <= 5
    idx = VectorIndex(idx_dir)
    got = idx.search(vecs[:2], k=3, query_ids=(0, 1))
    want = brute_force_cosine_topk(ds, k=3, query_ids=(0, 1))
    pd.testing.assert_frame_equal(
        got.sort_values(["query_id", "rank"], ignore_index=True),
        want.sort_values(["query_id", "rank"], ignore_index=True),
        check_dtype=False,
    )


def test_arrowvec_vec_matrix():
    """Zero-copy list-column decode: variable list, fixed_size_list, sliced
    and chunked inputs all reshape to the same matrix; ragged rows raise."""
    from oboyu_ray.functions.arrowvec import matrix_to_fixed_list, vec_matrix

    M = np.arange(24, dtype=np.float32).reshape(6, 4)
    var = pa.array([r.tolist() for r in M], type=pa.list_(pa.float32()))
    assert (vec_matrix(var) == M).all()
    assert (vec_matrix(var.slice(2, 3)) == M[2:5]).all()
    assert (vec_matrix(pa.chunked_array([var.slice(0, 2), var.slice(2, 4)])) == M).all()
    fixed = matrix_to_fixed_list(M, dtype=pa.float32())
    assert pa.types.is_fixed_size_list(fixed.type)
    assert (vec_matrix(fixed) == M).all()
    assert (vec_matrix(fixed.slice(1, 4)) == M[1:5]).all()
    with pytest.raises(ValueError, match="ragged"):
        vec_matrix(pa.array([[1.0, 2.0], [3.0]], type=pa.list_(pa.float64())))


def test_mcp_stdio_transport(tmp_path):
    """Drive search / index_directory / get_index_info through the MCP
    JSON-RPC transport layer (newline-delimited, in-process streams) —
    reference mcp/server.py tool surface (S7)."""
    import io
    import json as _json

    from oboyu_ray.pipelines.mcp_server import serve

    root = tmp_path / "corpus"
    root.mkdir()
    (root / "alpha.md").write_text(
        "---\ntitle: Alpha\n---\nalpha search engine document with tokens"
    )
    (root / "beta.txt").write_text("beta indexing pipeline text with tokens")
    index_dir = str(tmp_path / "idx")

    reqs = [
        {"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {}},
        {"jsonrpc": "2.0", "method": "notifications/initialized"},
        {"jsonrpc": "2.0", "id": 2, "method": "tools/list"},
        {"jsonrpc": "2.0", "id": 3, "method": "tools/call",
         "params": {"name": "index_directory",
                    "arguments": {"root": str(root), "index_dir": index_dir,
                                  "store_positions": True}}},
        {"jsonrpc": "2.0", "id": 4, "method": "tools/call",
         "params": {"name": "get_index_info", "arguments": {"index_dir": index_dir}}},
        {"jsonrpc": "2.0", "id": 5, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "alpha search", "index_dir": index_dir,
                                  "top_k": 3}}},
        {"jsonrpc": "2.0", "id": 6, "method": "tools/call",
         "params": {"name": "nope", "arguments": {}}},
        {"jsonrpc": "2.0", "id": 7, "method": "bogus/method"},
        {"jsonrpc": "2.0", "id": 8, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "alpha indexing", "index_dir": index_dir,
                                  "top_k": 3, "require_all": True}}},
        {"jsonrpc": "2.0", "id": 9, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokens document", "index_dir": index_dir,
                                  "top_k": 3, "require_all": True}}},
        {"jsonrpc": "2.0", "id": 10, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "search engine", "index_dir": index_dir,
                                  "top_k": 3, "phrase": True}}},
        {"jsonrpc": "2.0", "id": 11, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "engine search", "index_dir": index_dir,
                                  "top_k": 3, "phrase": True}}},
        {"jsonrpc": "2.0", "id": 12, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "alpha engine", "index_dir": index_dir,
                                  "top_k": 3, "near": 2}}},
        {"jsonrpc": "2.0", "id": 13, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "alpha engine", "index_dir": index_dir,
                                  "top_k": 3, "near": 1}}},
        {"jsonrpc": "2.0", "id": 14, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tok", "index_dir": index_dir,
                                  "top_k": 3, "prefix": True}}},
        {"jsonrpc": "2.0", "id": 15, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokems", "index_dir": index_dir,
                                  "top_k": 3, "fuzzy": 1}}},
        {"jsonrpc": "2.0", "id": 16, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "zzznope", "index_dir": index_dir,
                                  "top_k": 3, "fuzzy": 1}}},
        {"jsonrpc": "2.0", "id": 17, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokens", "index_dir": index_dir,
                                  "top_k": 3, "scope": [0, 1]}}},
        {"jsonrpc": "2.0", "id": 18, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tok(en)?s?", "index_dir": index_dir,
                                  "top_k": 3, "regex": True}}},
        {"jsonrpc": "2.0", "id": 19, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tok*", "index_dir": index_dir,
                                  "top_k": 3, "wildcard": True}}},
    ]
    inp = io.StringIO("\n".join(_json.dumps(r) for r in reqs) + "\n")
    out = io.StringIO()
    serve(inp, out)
    resps = {m["id"]: m for m in map(_json.loads, out.getvalue().splitlines())}

    assert resps[1]["result"]["serverInfo"]["name"] == "oboyu-ray"
    assert [t["name"] for t in resps[2]["result"]["tools"]] == [
        "search", "index_directory", "get_index_info",
    ]
    built = _json.loads(resps[3]["result"]["content"][0]["text"])
    assert built["status"] == "ok" and built["documents_indexed"] > 0
    info = _json.loads(resps[4]["result"]["content"][0]["text"])
    assert info["document_count"] == built["documents_indexed"]
    hits = _json.loads(resps[5]["result"]["content"][0]["text"])
    assert hits["stats"]["count"] > 0
    assert any("alpha" in r["content"] for r in hits["results"])
    assert "alpha.md" in hits["results"][0]["uri"]
    assert resps[6]["error"]["code"] == -32602
    assert resps[7]["error"]["code"] == -32601
    # conjunctive: "alpha"∧"indexing" never co-occur → 0; "tokens"∧"document"
    # co-occur only in alpha.md
    and_none = _json.loads(resps[8]["result"]["content"][0]["text"])
    assert and_none["stats"]["count"] == 0
    and_one = _json.loads(resps[9]["result"]["content"][0]["text"])
    assert and_one["stats"]["count"] == 1
    assert "alpha.md" in and_one["results"][0]["uri"]
    # phrase through the protocol: "search engine" is adjacent in alpha.md,
    # the reversed order is not
    phr = _json.loads(resps[10]["result"]["content"][0]["text"])
    assert phr["stats"]["count"] == 1 and "alpha.md" in phr["results"][0]["uri"]
    phr_rev = _json.loads(resps[11]["result"]["content"][0]["text"])
    assert phr_rev["stats"]["count"] == 0
    # NEAR through the protocol: alpha..engine are 2 apart in alpha.md
    nr2 = _json.loads(resps[12]["result"]["content"][0]["text"])
    assert nr2["stats"]["count"] == 1 and "alpha.md" in nr2["results"][0]["uri"]
    nr1 = _json.loads(resps[13]["result"]["content"][0]["text"])
    assert nr1["stats"]["count"] == 0
    # prefix: tok* matches "tokens" present in BOTH docs
    pfx = _json.loads(resps[14]["result"]["content"][0]["text"])
    assert pfx["stats"]["count"] == 2
    # fuzzy: "tokems"~1 expands to "tokens" (both docs); no-hit stays empty
    fz = _json.loads(resps[15]["result"]["content"][0]["text"])
    assert fz["stats"]["count"] == 2
    fz0 = _json.loads(resps[16]["result"]["content"][0]["text"])
    assert fz0["stats"]["count"] == 0
    # scoped search: "tokens" is in BOTH docs globally; scope [0, 1) keeps one
    sc = _json.loads(resps[17]["result"]["content"][0]["text"])
    assert sc["stats"]["count"] == 1
    # regex/wildcard through the protocol: both expand to "tokens" (both docs)
    rx = _json.loads(resps[18]["result"]["content"][0]["text"])
    assert rx["stats"]["count"] == 2
    wc = _json.loads(resps[19]["result"]["content"][0]["text"])
    assert wc["stats"]["count"] == 2

    # r5 ADVICE regression: scope must compose with fuzzy/prefix/phrase/
    # near too (it was silently dropped on those branches).  Work out which
    # doc number alpha.md got from the scoped plain result, then scope each
    # mode to EXCLUDE its known match and require emptiness (a dropped
    # scope returns hits).
    alpha_in_0 = "alpha.md" in sc["results"][0]["uri"]
    alpha_scope = [0, 1] if alpha_in_0 else [1, 2]
    not_alpha_scope = [1, 2] if alpha_in_0 else [0, 1]
    reqs2 = [
        {"jsonrpc": "2.0", "id": 20, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokems", "index_dir": index_dir,
                                  "top_k": 3, "fuzzy": 1,
                                  "scope": alpha_scope}}},
        {"jsonrpc": "2.0", "id": 21, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tok", "index_dir": index_dir,
                                  "top_k": 3, "prefix": True,
                                  "scope": alpha_scope}}},
        {"jsonrpc": "2.0", "id": 22, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "search engine",
                                  "index_dir": index_dir, "top_k": 3,
                                  "phrase": True,
                                  "scope": not_alpha_scope}}},
        {"jsonrpc": "2.0", "id": 23, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "alpha engine",
                                  "index_dir": index_dir, "top_k": 3,
                                  "near": 2, "scope": not_alpha_scope}}},
    ]
    inp2 = io.StringIO("\n".join(_json.dumps(r) for r in reqs2) + "\n")
    out2 = io.StringIO()
    serve(inp2, out2)
    resps2 = {m["id"]: m for m in map(_json.loads, out2.getvalue().splitlines())}
    # fuzzy/prefix match both docs unscoped — scoped to one doc → exactly 1
    assert _json.loads(resps2[20]["result"]["content"][0]["text"])["stats"]["count"] == 1
    assert _json.loads(resps2[21]["result"]["content"][0]["text"])["stats"]["count"] == 1
    # phrase/near match only alpha.md — scoped AWAY from it → empty
    assert _json.loads(resps2[22]["result"]["content"][0]["text"])["stats"]["count"] == 0
    assert _json.loads(resps2[23]["result"]["content"][0]["text"])["stats"]["count"] == 0

    # pagination through the protocol: "tokens" matches both docs; page 0
    # at top_k=1 and page 1 at top_k=1 partition the 2-doc ranking; page
    # combined with a non-plain mode is refused (never silently page 0)
    reqs3 = [
        {"jsonrpc": "2.0", "id": 30, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokens", "index_dir": index_dir,
                                  "top_k": 1}}},
        {"jsonrpc": "2.0", "id": 31, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokens", "index_dir": index_dir,
                                  "top_k": 1, "page": 1}}},
        {"jsonrpc": "2.0", "id": 32, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tok", "index_dir": index_dir,
                                  "top_k": 1, "page": 1, "prefix": True}}},
    ]
    inp3 = io.StringIO("\n".join(_json.dumps(r) for r in reqs3) + "\n")
    out3 = io.StringIO()
    serve(inp3, out3)
    resps3 = {m["id"]: m for m in map(_json.loads, out3.getvalue().splitlines())}
    p0 = _json.loads(resps3[30]["result"]["content"][0]["text"])
    p1 = _json.loads(resps3[31]["result"]["content"][0]["text"])
    assert p0["stats"]["count"] == 1 and p1["stats"]["count"] == 1
    assert {p0["results"][0]["uri"], p1["results"][0]["uri"]} == {
        r["uri"] for r in p0["results"] + p1["results"]
    } and p0["results"][0]["uri"] != p1["results"][0]["uri"]
    assert resps3[32]["result"]["isError"] is True
    assert "plain search mode" in resps3[32]["result"]["content"][0]["text"]

    # dismax / boosts through the protocol: dismax at tiebreak 1.0 reduces
    # to the plain OR ranking; a huge boost on "beta" forces beta.txt to
    # rank first for a query both docs match; combining the two is refused
    reqs4 = [
        {"jsonrpc": "2.0", "id": 40, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "alpha tokens", "index_dir": index_dir,
                                  "top_k": 3, "dismax": 1.0}}},
        {"jsonrpc": "2.0", "id": 41, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "alpha tokens", "index_dir": index_dir,
                                  "top_k": 3}}},
        {"jsonrpc": "2.0", "id": 42, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokens", "index_dir": index_dir,
                                  "top_k": 3, "boosts": {"tokens": -1.0}}}},
        {"jsonrpc": "2.0", "id": 44, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokens", "index_dir": index_dir,
                                  "top_k": 3}}},
        {"jsonrpc": "2.0", "id": 43, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokens", "index_dir": index_dir,
                                  "top_k": 3, "dismax": 0.3,
                                  "boosts": {"tokens": 2.0}}}},
        # ordered span: alpha..engine sit 2 apart in alpha.md → window 2
        # hits, window 1 (sub-adjacent for the gap) misses
        {"jsonrpc": "2.0", "id": 45, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "alpha engine", "index_dir": index_dir,
                                  "top_k": 3, "span_near": 2}}},
        {"jsonrpc": "2.0", "id": 46, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "alpha engine", "index_dir": index_dir,
                                  "top_k": 3, "span_near": 1}}},
        {"jsonrpc": "2.0", "id": 47, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "engine alpha", "index_dir": index_dir,
                                  "top_k": 3, "span_near": 5}}},
        {"jsonrpc": "2.0", "id": 48, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "alpha search", "index_dir": index_dir,
                                  "top_k": 3, "snippet": True}}},
        # combined retrieval modes are refused, not precedence-resolved
        {"jsonrpc": "2.0", "id": 49, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "alpha engine", "index_dir": index_dir,
                                  "top_k": 3, "phrase": True, "span_near": 3}}},
        # count_only: bare total, matches the unscoped result count
        {"jsonrpc": "2.0", "id": 50, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokens", "index_dir": index_dir,
                                  "count_only": True}}},
        {"jsonrpc": "2.0", "id": 51, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokens", "index_dir": index_dir,
                                  "count_only": True, "phrase": True}}},
        {"jsonrpc": "2.0", "id": 52, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokens", "index_dir": index_dir,
                                  "count_only": True, "snippet": True}}},
        # collapse: both docs are single-"conversation" files → 2 groups
        {"jsonrpc": "2.0", "id": 53, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokens", "index_dir": index_dir,
                                  "top_k": 5, "collapse": True}}},
        {"jsonrpc": "2.0", "id": 54, "method": "tools/call",
         "params": {"name": "search",
                    "arguments": {"query": "tokens", "index_dir": index_dir,
                                  "collapse": True, "phrase": True}}},
    ]
    inp4 = io.StringIO("\n".join(_json.dumps(r) for r in reqs4) + "\n")
    out4 = io.StringIO()
    serve(inp4, out4)
    resps4 = {m["id"]: m for m in map(_json.loads, out4.getvalue().splitlines())}
    dm = _json.loads(resps4[40]["result"]["content"][0]["text"])
    plain = _json.loads(resps4[41]["result"]["content"][0]["text"])
    assert [r["uri"] for r in dm["results"]] == [r["uri"] for r in plain["results"]]
    assert dm["stats"]["count"] == 2
    # boost −1 negates the term weight → per doc the boosted score is
    # exactly −1 × the plain score (same candidates, plumbing proven
    # end-to-end; rank flips are pinned against brute force in
    # test_boosted_engine_matches_brute_force on a real corpus)
    bo = _json.loads(resps4[42]["result"]["content"][0]["text"])
    plain_tok = _json.loads(resps4[44]["result"]["content"][0]["text"])
    assert bo["stats"]["count"] == 2 and plain_tok["stats"]["count"] == 2
    plain_by_uri = {r["uri"]: r["score"] for r in plain_tok["results"]}
    for r in bo["results"]:
        assert abs(r["score"] + plain_by_uri[r["uri"]]) < 1e-9
    assert resps4[43]["result"]["isError"] is True
    assert "mutually exclusive" in resps4[43]["result"]["content"][0]["text"]
    sn2 = _json.loads(resps4[45]["result"]["content"][0]["text"])
    assert sn2["stats"]["count"] == 1 and "alpha.md" in sn2["results"][0]["uri"]
    sn1 = _json.loads(resps4[46]["result"]["content"][0]["text"])
    assert sn1["stats"]["count"] == 0
    # ordered: reversed term order never matches regardless of window
    snr = _json.loads(resps4[47]["result"]["content"][0]["text"])
    assert snr["stats"]["count"] == 0
    # snippet mode: content is the highlighted match window, not full text
    sni = _json.loads(resps4[48]["result"]["content"][0]["text"])
    assert sni["stats"]["count"] > 0
    assert "**alpha**" in sni["results"][0]["content"]
    assert resps4[49]["result"]["isError"] is True
    assert "mutually exclusive" in resps4[49]["result"]["content"][0]["text"]
    cnt = _json.loads(resps4[50]["result"]["content"][0]["text"])
    assert cnt["count"] == 2  # "tokens" is in both docs
    assert resps4[51]["result"]["isError"] is True
    assert "plain search mode" in resps4[51]["result"]["content"][0]["text"]
    assert resps4[52]["result"]["isError"] is True  # count_only + snippet
    col = _json.loads(resps4[53]["result"]["content"][0]["text"])
    assert col["stats"]["count"] == 2  # one collapsed row per file-conv
    assert resps4[54]["result"]["isError"] is True  # collapse + phrase


def test_title_generation_fallbacks_and_pdf_gate(tmp_path):
    """M12: front-matter title -> first-line (<100 chars, no '.') -> stem
    (reference crawler.py:251-275); S2 PDF path availability-gated."""
    from oboyu_ray.sources.files import HAS_PDF, extract_pdf, generate_title, read_documents

    assert generate_title("/x/doc.md", "body", {"title": "Meta Title"}) == "Meta Title"
    assert generate_title("/x/doc.md", "A Fine Heading\nrest of body", {}) == "A Fine Heading"
    # first line with a '.' or too long -> stem
    assert generate_title("/x/notes.txt", "see file.py for details\nmore", {}) == "notes"
    assert generate_title("/x/notes.txt", "x" * 120 + "\nrest", {}) == "notes"
    assert generate_title("/x/empty.txt", "   ", {}) == "empty"

    # read_documents applies the fallback chain
    (tmp_path / "heading.txt").write_text("The Heading Line\nbody follows here")
    df = read_documents([str(tmp_path / "heading.txt")]).to_pandas()
    assert df["title"].iloc[0] == "The Heading Line"

    if not HAS_PDF:  # true in this container
        with pytest.raises(ImportError, match="pymupdf4llm"):
            extract_pdf("/nonexistent.pdf")


def test_embedding_cache(tmp_path):
    """T3: sha256-keyed .npy embedding cache — identical vectors with and
    without cache, cache hits on re-run, corrupted entries recovered."""
    import ray

    from oboyu_ray.functions.embed import CachedEmbedder, EmbeddingCache, embed_documents

    t = pa.table(
        {
            "doc_id": pa.array(range(20), type=pa.int64()),
            "text": pa.array([f"document number {i} with words" for i in range(20)]),
        }
    )
    ds = ray.data.from_arrow(t)
    cache_dir = str(tmp_path / "embcache")
    plain = embed_documents(ds).to_pandas().sort_values("doc_id", ignore_index=True)
    cached1 = embed_documents(ds, cache_dir=cache_dir).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    cached2 = embed_documents(ds, cache_dir=cache_dir).to_pandas().sort_values(
        "doc_id", ignore_index=True
    )
    for a, b in ((plain, cached1), (cached1, cached2)):
        for va, vb in zip(a["embedding"], b["embedding"]):
            assert (np.asarray(va) == np.asarray(vb)).all()

    # cache populated, and the actor counts hits on a warm pass
    import os

    assert len(os.listdir(cache_dir)) == 20
    emb = CachedEmbedder(cache_dir=cache_dir)
    emb(t)
    assert emb.hits == 20 and emb.misses == 0

    # corrupted entry → dropped and regenerated (reference behavior)
    c = EmbeddingCache(cache_dir)
    p = c._path("document number 3 with words", "fake-feature-hash")
    with open(p, "wb") as f:
        f.write(b"garbage")
    emb2 = CachedEmbedder(cache_dir=cache_dir)
    out = emb2(t).to_pandas()
    assert emb2.misses == 1
    assert (
        np.asarray(out["embedding"][3]) == np.asarray(plain["embedding"][3])
    ).all()


def test_langid_reference_semantics():
    """M1/T5: language detection decision order with the fasttext model
    gated out (fallbacks) and with an injected fake model (confidence /
    allowlist / __label__ handling) — reference language_detector.py."""
    from oboyu_ray.functions.langid import HAS_FASTTEXT, detect_language, detect_language_batch

    assert not HAS_FASTTEXT  # container reality the gate encodes
    assert detect_language("short") == "en"  # <10 chars
    assert detect_language("これは日本語のテキストです、長めに書きます") == "ja"  # ratio pre-check
    assert detect_language("mostly english text here okay") == "en"  # no model -> fallback
    assert detect_language("english text with 日 single char padding") == "ja"  # jp>0 fallback

    class Fake:
        def __init__(self, label, conf):
            self.label, self.conf = label, conf

        def predict(self, sample, k=1):
            return ([self.label], [self.conf])

    t = "the quick brown fox jumps over the lazy dog"
    assert detect_language(t, model=Fake("__label__fr", 0.9)) == "fr"
    assert detect_language(t, model=Fake("__label__ja", 0.9)) == "ja"
    assert detect_language(t, model=Fake("__label__fr", 0.3)) == "fr"  # low-conf known
    assert detect_language(t, model=Fake("__label__xx", 0.3)) == "xx"  # low-conf other
    assert detect_language(t, model=Fake("de", 0.8)) == "de"  # no __label__ prefix

    batch = pa.table(
        {"doc_id": pa.array([1, 2], type=pa.int64()),
         "text": pa.array(["これは日本語のテキストです、長めに書きます", "plain english body text"])}
    )
    out = detect_language_batch(batch)
    assert out.column("lang").to_pylist() == ["ja", "en"]


def test_connected_components_chain_and_clusters():
    """Min-label propagation CC: a 5-node chain (worst diameter), a
    triangle, and an isolated pair — labels converge to the component min
    regardless of bucketing."""
    import ray

    from oboyu_ray.stages.components import connected_components, dedup_clusters

    edges = [(10, 11), (11, 12), (12, 13), (13, 14),  # chain
             (20, 21), (21, 22), (20, 22),            # triangle
             (30, 31)]                                # pair
    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([a for a, _ in edges], type=pa.int64()),
        "doc_b": pa.array([b for _, b in edges], type=pa.int64()),
    }))
    cc = connected_components(pairs, n_buckets=4)
    got = dict(zip(cc["doc_id"], cc["component"]))
    assert got == {10: 10, 11: 10, 12: 10, 13: 10, 14: 10,
                   20: 20, 21: 20, 22: 20, 30: 30, 31: 30}

    cl = dedup_clusters(pairs)
    canon = set(cl[cl["is_canonical"] == 1]["doc_id"])
    assert canon == {10, 20, 30}


def test_connected_components_pointer_doubling_chain():
    """A 300-node path (diameter 299) must converge in O(log n) rounds via
    the pointer-doubling shortcut, and an exhausted max_iters must RAISE
    instead of returning unconverged labels (r2 ADVICE)."""
    import ray

    from oboyu_ray.stages.components import connected_components

    n = 300
    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array(list(range(n - 1)), type=pa.int64()),
        "doc_b": pa.array(list(range(1, n)), type=pa.int64()),
    }))
    stats = {}
    cc = connected_components(pairs, n_buckets=8, _stats=stats)
    assert (cc["component"] == 0).all() and len(cc) == n
    assert stats["iters"] <= 15, stats  # O(log 300), not O(300)

    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components(pairs, n_buckets=8, max_iters=2)


def test_dedup_clusters_matches_recursive_oracle(entrymod, duck):
    df = _as_df(entrymod.queries()["dedup_clusters"](SF))
    ora = duck.execute(entrymod.oracle_sql()["dedup_clusters"]).fetchdf()
    cols = sorted(df.columns)
    a = df[cols].sort_values(cols).reset_index(drop=True)
    b = ora[cols].sort_values(cols).reset_index(drop=True)
    assert a.shape == b.shape and (a.values == b.values).all()


def test_kg_entities_ndocs_under_block_splitting():
    """Regression (r2 ADVICE high): n_docs must count DISTINCT docs even
    when one doc's mention rows are sliced across blocks by Ray's dynamic
    block splitting.  A doc with 3000 mentions must still count as 1 doc."""
    import ray
    from ray.data.context import DataContext

    from oboyu_ray.stages.kg import kg_entities

    # the context must be shrunk BEFORE the dataset is created (Ray snapshots
    # DataContext at dataset creation); 4 KB forces the 3000-mention doc's
    # extractor output into ~38 blocks, reproducing the straddle
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 4 * 1024
    try:
        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                ["spark " * 3000, "spark table", "table join"], type=pa.string()
            ),
        }))
        out = kg_entities(docs).to_pandas().set_index("name")
    finally:
        ctx.target_max_block_size = old
    assert int(out.loc["spark", "n_docs"]) == 2
    assert int(out.loc["spark", "n_mentions"]) == 3001
    assert int(out.loc["table", "n_docs"]) == 2
    assert int(out.loc["join", "n_docs"]) == 1


def test_kg_edc_dedup_and_graphrag():
    """T6/D4: EDC entity dedup (normalize -> candidates -> verify ->
    connected-component canonicalization) and GraphRAG query expansion."""
    from oboyu_ray.stages.kg import (
        RealLLMExtractorStub,
        RealLLMVerifierStub,
        edc_dedup_entities,
        entity_id,
        expand_query_with_entities,
        graphrag_search,
        normalize_entity_name,
    )

    # normalization mirrors the reference rules
    assert normalize_entity_name("トヨタ株式会社", "COMPANY") == normalize_entity_name("トヨタ", "COMPANY")
    assert normalize_entity_name("田中さん", "PERSON") == "田中"
    assert normalize_entity_name("Ｔｏｙｏｔａ", "COMPANY") == "Toyota"  # NFKC width fold
    assert normalize_entity_name("Acme  Inc.", "COMPANY") == "Acme"

    names = [
        ("トヨタ株式会社", "COMPANY"),
        ("トヨタ", "COMPANY"),
        ("田中さん", "PERSON"),
        ("田中", "PERSON"),
        ("spark", "TECHNOLOGY"),
    ]
    ents = pd.DataFrame(
        {
            "entity_id": [entity_id(n, t) for n, t in names],
            "name": [n for n, _ in names],
            "entity_type": [t for _, t in names],
        }
    )
    out = edc_dedup_entities(ents)
    by_name = out.set_index("name")
    assert by_name.loc["トヨタ株式会社", "canonical_id"] == by_name.loc["トヨタ", "canonical_id"]
    assert by_name.loc["田中さん", "canonical_id"] == by_name.loc["田中", "canonical_id"]
    assert by_name.loc["spark", "is_canonical"] == 1
    # exactly one canonical per component
    assert (out.groupby("canonical_id")["is_canonical"].sum() == 1).all()

    # Dataset-native path: Dataset in → Dataset out, same rows as the wrapper
    import ray as _ray

    from oboyu_ray.stages.kg import edc_dedup_entities_ds

    ds_out = edc_dedup_entities_ds(_ray.data.from_pandas(ents))
    assert isinstance(ds_out, _ray.data.Dataset)
    got = (
        ds_out.to_pandas()
        .sort_values(["entity_type", "normalized_name", "entity_id"])
        .reset_index(drop=True)[out.columns.tolist()]
    )
    pd.testing.assert_frame_equal(got, out)

    # graphrag expansion: query entity + 1-hop neighbors
    entities = pd.DataFrame({"name": ["spark", "table", "vector"], "entity_type": ["TECHNOLOGY"] * 3})
    relations = pd.DataFrame(
        {"source_name": ["spark", "table"], "target_name": ["table", "vector"],
         "relation_type": ["CO_OCCURS_WITH"] * 2}
    )
    exp = expand_query_with_entities("spark merge", entities, relations, expand_depth=1)
    assert exp["matched_entities"] == ["spark"]
    assert "table" in exp["expanded_entities"] and "vector" not in exp["expanded_entities"]
    exp2 = expand_query_with_entities("spark merge", entities, relations, expand_depth=2)
    assert "vector" in exp2["expanded_entities"]

    class FakeEngine:
        def search(self, q, k=10):
            self.last = q
            return pd.DataFrame({"doc_id": [], "score": []})

    eng = FakeEngine()
    _, exp3 = graphrag_search("spark merge", eng, entities, relations, k=5)
    assert "table" in eng.last and eng.last.startswith("spark merge")

    # model seams raise with guidance
    with pytest.raises(NotImplementedError):
        RealLLMExtractorStub()(pa.table({"doc_id": [1], "text": ["x"]}))
    with pytest.raises(NotImplementedError):
        RealLLMVerifierStub().verify("a", "b")


def test_asof_join_edges():
    """As-of join semantics at the edges: exact-timestamp match included,
    ties broken by larger order key, events before any order -> -1."""
    import datetime

    import ray

    from oboyu_ray.stages.relational import asof_join

    T = lambda d: datetime.datetime(2025, 1, d)
    ev = ray.data.from_arrow(pa.table({
        "event_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "user_id": pa.array([7, 7, 7, 8], type=pa.int64()),
        "ts": pa.array([T(1), T(5), T(10), T(5)], type=pa.timestamp("us")),
    }))
    orders = pa.table({
        "o_orderkey": pa.array([100, 101, 102, 103], type=pa.int64()),
        "o_custkey": pa.array([7, 7, 7, 9], type=pa.int64()),
        "o_orderdate": pa.array([T(5), T(5), T(8), T(1)], type=pa.timestamp("us")),
        "o_totalprice": pa.array([10.0, 20.0, 30.0, 40.0], type=pa.float64()),
    })
    out = asof_join(ev, ray.data.from_arrow(orders)).to_pandas().set_index("event_id")
    assert out.loc[1, "o_orderkey"] == -1            # before any order
    assert out.loc[2, "o_orderkey"] == 101           # tie at T5 -> max key
    assert out.loc[3, "o_orderkey"] == 102           # latest <= T10
    assert out.loc[4, "o_orderkey"] == -1            # user with no orders
    assert out.loc[2, "price_cents"] == 2000


def test_vector_index_exact_on_divergent_queries(tmp_path):
    """Soundness regression: queries with very different bound/kth profiles
    must not early-stop past a cell another query still needs (the
    max-over-queries probe order is not per-query monotone). Random
    off-cluster queries vs brute force."""
    import ray

    from oboyu_ray.state.vector_index import VectorIndex, build_vector_index

    rng = np.random.RandomState(17)
    centers = rng.standard_normal((6, 12)) * 4
    vecs = np.stack([centers[i % 6] + rng.standard_normal(12) * 0.3 for i in range(300)])
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(300), type=pa.int64()),
        "embedding": pa.array(list(vecs), type=pa.list_(pa.float64())),
    }))
    idx_dir = str(tmp_path / "vi2")
    build_vector_index(ds, idx_dir, n_cells=6)
    idx = VectorIndex(idx_dir)

    # mixed query set: one near a cluster center (tight kth fast), several
    # random isotropic (loose bounds everywhere) — the divergent shape
    Q = np.vstack([centers[0], rng.standard_normal((6, 12))])
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    Vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    S = Qn @ Vn.T
    from oboyu_ray.fixedpoint import micros as _micros

    got = idx.search(Q, k=7)
    for qi in range(len(Q)):
        su = _micros(S[qi])
        want_order = np.lexsort((np.arange(300), -su))[:7]
        g = got[got["query_id"] == qi].sort_values("rank")
        assert g["vec_id"].tolist() == list(want_order), qi
        assert g["cos_micros"].tolist() == [int(su[j]) for j in want_order], qi


def test_connected_components_random_graphs():
    """Property test: CC against a driver union-find reference on random
    graphs (the union-find stays in the TEST as an oracle — the operator
    under test never builds driver state)."""
    import ray

    from oboyu_ray.stages.components import connected_components

    rng = np.random.RandomState(23)
    for trial in range(2):
        n_nodes = 300
        n_edges = int(rng.randint(200, 600))
        a = rng.randint(0, n_nodes, n_edges).astype(np.int64)
        b = rng.randint(0, n_nodes, n_edges).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]

        parent = list(range(n_nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x, y in zip(a, b):
            rx, ry = find(int(x)), find(int(y))
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
        # min id per component, only for nodes that appear in edges
        touched = sorted(set(a.tolist()) | set(b.tolist()))
        comp_min = {}
        for x in touched:
            r = find(x)
            comp_min[r] = min(comp_min.get(r, x), x)
        want = {x: comp_min[find(x)] for x in touched}

        pairs = ray.data.from_arrow(pa.table({
            "doc_a": pa.array(a, type=pa.int64()),
            "doc_b": pa.array(b, type=pa.int64()),
        }))
        cc = connected_components(pairs, n_buckets=8)
        got = dict(zip(cc["doc_id"], cc["component"]))
        assert got == want, trial


def test_char_bigram_kernel_matches_verifier_semantics():
    """The vectorized char-bigram kernel used for distributed EDC name
    verification must reproduce token_jaccard_verify's feature sets:
    lowercase, spaces removed, bigrams, whole-string feature below 2 chars
    — so pairwise Jaccard agrees with the scalar fake verifier."""
    from oboyu_ray.stages.dedup import _batch_char_bigram_hashes
    from oboyu_ray.stages.kg import token_jaccard_verify

    names = ["Acme Corp", "acmecorp", "Acme", "A", "トヨタ", "トヨタ自動車", "x y"]
    d, h = _batch_char_bigram_hashes(names)
    bounds = np.searchsorted(d, np.arange(len(names) + 1))
    sets = [set(h[bounds[i]: bounds[i + 1]].tolist()) for i in range(len(names))]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            _, want = token_jaccard_verify(names[i], names[j])
            si, sj = sets[i], sets[j]
            got = len(si & sj) / len(si | sj) if si | sj else 0.0
            assert abs(got - want) < 1e-12, (names[i], names[j], got, want)
    # single-char names: the whole string is the one feature
    assert len(sets[3]) == 1


def test_fast_fingerprint_matches_bruteforce_rolling():
    """The vectorized Karp-Rabin winnow kernel must equal a scalar
    reference implementation of the same scheme (same base, same mix, same
    window semantics as the md5 oracle mode) on adversarial shapes: empty,
    shorter-than-window, exactly-window, long, repeated chars, unicode."""
    from oboyu_ray.stages.sketch import _splitmix64
    from oboyu_ray.stages.textstats import (
        FP_BASE,
        WINNOW_WINDOW,
        _FP_EMPTY,
        _normalize,
        fingerprint_fast_batch,
    )

    def brute(text: str) -> str:
        s = _normalize(text or "")
        if not s:
            return _FP_EMPTY
        c = [ord(ch) for ch in s]
        w = min(len(c), WINNOW_WINDOW)
        best = None
        for t in range(len(c) - w + 1):
            h = 0
            for j in range(w - 1, -1, -1):
                h = (h * FP_BASE + c[t + j]) % (1 << 64)
            m = int(_splitmix64(np.array([h ^ w], dtype=np.uint64))[0])
            best = m if best is None else min(best, m)
        return format(best, "016x")

    rng = np.random.RandomState(3)
    texts = [
        "", " ", "a", "ab", "x" * WINNOW_WINDOW, "x" * (WINNOW_WINDOW + 1),
        "The quick brown fox jumps over the lazy dog",
        "日本語のテキスト、ウィンドウより長い文章です。", "aaaa bbbb " * 10,
    ] + ["".join(rng.choice(list("abcdef ガナ"), size=rng.randint(1, 80))) for _ in range(30)]
    batch = pa.table({
        "doc_id": pa.array(np.arange(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    got = fingerprint_fast_batch(batch).to_pandas()["winnow_fingerprint"].tolist()
    want = [brute(t) for t in texts]
    assert got == want
    # differing window content changes the value; appending a char whose
    # windows are all already present does not (winnowing robustness)
    one_more = fingerprint_fast_batch(
        pa.table({"doc_id": pa.array([0, 1], type=pa.int64()),
                  "text": pa.array(["y" * WINNOW_WINDOW, "x" * WINNOW_WINDOW])})
    ).to_pandas()["winnow_fingerprint"].tolist()
    assert one_more[0] != one_more[1]
    assert got[4] == got[5]  # "x"*W vs "x"*(W+1): identical window set


def test_heavy_hitters_mg_pruning_exact():
    """With a tiny Misra-Gries capacity the per-batch summaries actually
    truncate (deficit > 0), yet the verified result must still equal the
    exact GROUP BY / HAVING answer; an unattainable threshold raises."""
    from oboyu_ray.stages.sketch import heavy_hitters

    rng = np.random.RandomState(5)
    vocab = [f"w{i}" for i in range(200)]
    weights = np.array([1.0 / (i + 1) for i in range(200)])  # zipf-ish
    weights /= weights.sum()
    docs = [
        " ".join(rng.choice(vocab, size=50, p=weights)) for _ in range(200)
    ]
    ds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(docs)]
    ).repartition(8)
    # exact counts for the oracle
    from collections import Counter
    true = Counter(w for t in docs for w in t.split())
    threshold = 150
    want = {w: c for w, c in true.items() if c >= threshold}
    got = heavy_hitters(ds, threshold=threshold, capacity=16).to_pandas()
    assert dict(zip(got["token"], got["n_occurrences"])) == want
    with pytest.raises(ValueError, match="deficit"):
        # capacity 2 over 200-word docs → deficit explodes past threshold=3
        heavy_hitters(ds, threshold=3, capacity=2).to_pandas()


def test_exact_quantiles_adversarial_vs_duckdb():
    """Histogram-refinement quantiles vs DuckDB quantile_disc on shapes
    chosen to stress the refinement: heavy duplicates (bins stop
    shrinking), constants, skew, tiny n — with tiny bins/collect_limit to
    force multiple rounds."""
    import duckdb as _duck

    from oboyu_ray.stages.quantiles import exact_quantiles

    rng = np.random.RandomState(11)
    cases = {
        "normal": rng.standard_normal(20_000) * 100,
        "heavy_dup": np.repeat([1.0, 2.0, 2.0, 3.0], 5_000)[rng.permutation(20_000)],
        "constant": np.full(3_000, 7.25),
        "skewed": np.exp(rng.standard_normal(10_000) * 3),
        "small": np.array([3.0, 1.0, 2.0]),
    }
    qs = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    for name, vals in cases.items():
        ds = ray.data.from_arrow(pa.table({"x": pa.array(vals)})).repartition(4)
        got = exact_quantiles(ds, "x", qs, n_bins=32, collect_limit=128)
        con = _duck.connect()
        con.register("v", pa.table({"x": pa.array(vals)}))
        want = [
            con.execute(f"SELECT quantile_disc(x, {q}) FROM v").fetchone()[0]
            for q in qs
        ]
        assert got["value"].tolist() == want, name


def test_exact_quantiles_cont_vs_duckdb():
    """Interpolated quantiles must be BIT-exact vs DuckDB quantile_cont —
    the lerp expression order (lo·(1−f) + hi·f) is pinned empirically;
    same adversarial shapes as the disc test plus tiny-n edge cases."""
    import duckdb as _duck

    from oboyu_ray.stages.quantiles import exact_quantiles_cont

    rng = np.random.RandomState(23)
    cases = {
        "normal": rng.standard_normal(20_000) * 100,
        "heavy_dup": np.repeat([1.0, 2.0, 2.0, 3.0], 5_000)[rng.permutation(20_000)],
        "constant": np.full(3_000, 7.25),
        "skewed": np.exp(rng.standard_normal(10_000) * 3),
        "small": np.array([3.0, 1.0, 2.0]),
        "single": np.array([42.0]),
        "pair": np.array([10.0, 20.0]),
    }
    qs = [0.0, 0.01, 0.25, 0.5, 0.613, 0.75, 0.9, 0.99, 1.0]
    for name, vals in cases.items():
        ds = ray.data.from_arrow(pa.table({"x": pa.array(vals)})).repartition(4)
        got = exact_quantiles_cont(ds, "x", qs, n_bins=32, collect_limit=128)
        con = _duck.connect()
        con.register("v", pa.table({"x": pa.array(vals)}))
        want = [
            con.execute(f"SELECT quantile_cont(x, {q}) FROM v").fetchone()[0]
            for q in qs
        ]
        assert got["value"].tolist() == want, name


def test_mad_vs_duckdb():
    """mad() == quantile_cont(|x − quantile_cont(x,0.5)|, 0.5), bit-exact,
    including the heavy-duplicate shape where refinement stalls."""
    import duckdb as _duck

    from oboyu_ray.stages.quantiles import mad

    rng = np.random.RandomState(31)
    for name, vals in {
        "skewed": np.round(np.exp(rng.standard_normal(15_000) * 2) * 10, 2),
        "heavy_dup": np.repeat([5.0, 5.0, 9.0, 100.0], 3_000).astype(np.float64),
        "small": np.array([1.0, 2.0, 10.0]),
    }.items():
        ds = ray.data.from_arrow(pa.table({"x": pa.array(vals)})).repartition(4)
        got = mad(ds, "x", n_bins=32, collect_limit=128)
        con = _duck.connect()
        con.register("v", pa.table({"x": pa.array(vals)}))
        med, mv = con.execute(
            "SELECT quantile_cont(x, 0.5), mad(x) FROM v"
        ).fetchone()
        assert got["median"][0] == med, name
        assert got["mad_value"][0] == mv, name


def test_interval_join_bound_edges():
    """Inclusive bounds on both ends; multi-match fan-out; users with no
    in-window orders emit nothing."""
    import datetime

    from oboyu_ray.stages.relational import interval_join

    T = lambda d: datetime.datetime(2025, 1, d)
    DAY_US = 24 * 3600 * 1_000_000
    ev = ray.data.from_arrow(pa.table({
        "event_id": pa.array([1, 2], type=pa.int64()),
        "user_id": pa.array([7, 8], type=pa.int64()),
        "ts": pa.array([T(10), T(10)], type=pa.timestamp("us")),
    }))
    orders = ray.data.from_arrow(pa.table({
        "o_orderkey": pa.array([100, 101, 102, 103, 104], type=pa.int64()),
        "o_custkey": pa.array([7, 7, 7, 7, 9], type=pa.int64()),
        # window for lower=-5d upper=-2d around Jan 10 → [Jan 5, Jan 8]
        "o_orderdate": pa.array([T(4), T(5), T(8), T(9), T(6)], type=pa.timestamp("us")),
        "o_totalprice": pa.array([1.0, 2.0, 3.0, 4.0, 5.0], type=pa.float64()),
    }))
    out = (
        interval_join(ev, orders, lower_us=-5 * DAY_US, upper_us=-2 * DAY_US)
        .to_pandas()
        .sort_values("o_orderkey")
    )
    # event 1 (user 7): orders at Jan 5 (lower edge, inclusive) and Jan 8
    # (upper edge, inclusive); Jan 4 and Jan 9 excluded.  event 2 (user 8):
    # nothing; user 9's order never leaks.
    assert out["event_id"].tolist() == [1, 1]
    assert out["o_orderkey"].tolist() == [101, 102]


def test_topk_per_group_ties_and_partials():
    """Global top-k must survive batch partials; ties break by smaller key."""
    from oboyu_ray.stages.relational import topk_per_group

    rows = []
    # group 1: values 10,10,10,9 → top-2 = keys 1,2 (tie on 10 → min keys)
    for key, val in [(3, 10), (1, 10), (2, 10), (4, 9)]:
        rows.append({"g": 1, "k": key, "v": val})
    # group 2: single row
    rows.append({"g": 2, "k": 9, "v": 5})
    ds = ray.data.from_items(rows).repartition(4)
    out = (
        topk_per_group(ds, "g", "k", "v", k=2)
        .to_pandas()
        .sort_values(["grp", "rank"])
        .reset_index(drop=True)
    )
    assert out[["grp", "key", "rank"]].to_numpy().tolist() == [
        [1, 1, 1], [1, 2, 2], [2, 9, 1]
    ]


def test_edc_entities_driver_query(entrymod):
    """Driver-visible EDC: runs the full Dataset-native flow over the
    extracted entity table; canonical invariants hold and every lexicon
    entity survives."""
    out = _as_df(entrymod.queries()["edc_entities"](SF))
    assert len(out) > 0
    assert (out.groupby("canonical_id")["is_canonical"].sum() == 1).all()
    assert set(out["canonical_id"]) <= set(out["entity_id"])
    assert list(out.columns) == [
        "entity_id", "name", "entity_type", "normalized_name",
        "canonical_id", "canonical_name", "is_canonical",
    ]


def test_grouped_quantiles_vs_duckdb_per_group():
    """Per-group exact quantiles: ties, singleton groups, duplicate-heavy
    groups — each group's answer equals quantile_disc over that group."""
    import duckdb as _duck

    from oboyu_ray.stages.quantiles import grouped_quantiles

    rng = np.random.RandomState(23)
    g = np.concatenate([
        np.full(1000, 1), np.full(1, 2), np.full(500, 3), np.full(200, 4),
    ])
    v = np.concatenate([
        rng.standard_normal(1000) * 10,
        [42.0],
        np.repeat([5.0, 7.0], 250)[rng.permutation(500)],
        rng.exponential(3.0, 200),
    ])
    ds = ray.data.from_arrow(pa.table({"g": pa.array(g, type=pa.int64()),
                                       "v": pa.array(v)})).repartition(8)
    qs = [0.0, 0.25, 0.5, 0.9, 1.0]
    got = (
        grouped_quantiles(ds, "g", "v", qs, n_buckets=4)
        .to_pandas()
        .sort_values(["g", "q_micros"])
        .reset_index(drop=True)
    )
    con = _duck.connect()
    con.register("t", pa.table({"g": pa.array(g, type=pa.int64()), "v": pa.array(v)}))
    want = con.execute(
        "\nUNION ALL\n".join(
            f"SELECT g, CAST({int(round(q*1e6))} AS BIGINT) AS q_micros, "
            f"quantile_disc(v, {q}) AS value FROM t GROUP BY g"
            for q in qs
        ) + "\nORDER BY g, q_micros"
    ).df()
    assert got["value"].tolist() == want["value"].tolist()
    assert got["g"].tolist() == want["g"].tolist()


def test_trainprep_edge_cases():
    """Kernel edge cases: empty text, <3-word docs, null text, no matches."""
    import pyarrow.compute as pc

    from oboyu_ray.stages import trainprep as tp

    b = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(["", "one two", None, "a a a a b"], type=pa.string()),
        }
    )
    rep = tp.repetition_batch(b).to_pandas()
    assert rep["n_words"].tolist() == [0, 2, 0, 5]
    assert rep["n_distinct"].tolist() == [0, 2, 0, 2]
    assert rep["dup_ratio_micros"].tolist() == [0, 0, 0, 600000]
    assert rep["top_ratio_micros"].tolist() == [0, 500000, 0, 800000]
    assert rep["repetitive"].tolist() == [False, True, False, True]

    d, tri = tp._batch_trigram_strings(b.column("text").to_pylist())
    # only doc idx 3 has ≥3 words; distinct trigrams of "a a a a b"
    assert d.tolist() == [3, 3]
    assert set(tri.to_pylist()) == {"a a a", "a a b"}

    red = tp.redact_batch(
        pa.table(
            {
                "event_id": pa.array([1, 2], type=pa.int64()),
                "props": pa.array(["mail bob@x.com x12", None], type=pa.string()),
            }
        )
    ).to_pandas()
    assert red["props_redacted"].tolist()[0] == "mail <EMAIL> x<NUM>"
    assert red["n_redacted"].tolist() == [2, 0]

    # decontaminate: empty benchmark set → nothing flagged
    import ray as _ray

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], type=pa.int64()),
                "text": pa.array(["w1 w2 w3 w4", "w2 w3 w4"], type=pa.string()),
            }
        )
    )
    out = tp.decontaminate(docs, _ray.put(np.zeros(0, dtype=np.uint64))).to_pandas()
    assert len(out) == 0


def test_decontaminate_counts_distinct_shared_trigrams():
    import ray as _ray

    from oboyu_ray.stages import trainprep as tp

    # doc 0 is the benchmark (BENCH_MOD divides 0); doc 1 shares two
    # trigrams, doc 2 shares none, doc 97*2 is benchmark too (excluded)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, tp.BENCH_MOD * 2], type=pa.int64()),
                "text": pa.array(
                    [
                        "a b c d",      # bench trigrams: "a b c", "b c d"
                        "x a b c d y",  # shares both
                        "c b a d e f",  # shares none (order-sensitive)
                        "a b c q",      # benchmark member → excluded
                    ],
                    type=pa.string(),
                ),
            }
        )
    )
    bench = tp.benchmark_shingle_set(docs)
    out = tp.decontaminate(docs, _ray.put(bench)).to_pandas()
    assert out["doc_id"].tolist() == [1]
    assert out["n_hits"].tolist() == [2]


def test_stratified_sample_rates():
    from oboyu_ray.stages import trainprep as tp

    n = 4000
    b = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "lang": pa.array(["en" if i % 2 else "de" for i in range(n)], type=pa.string()),
        }
    )
    out = tp.stratified_sample_by_hash(
        b, thresholds={"en": "14"}, default_hex="40"
    ).to_pandas()
    en = (out["lang"] == "en").sum() / (n / 2)
    de = (out["lang"] == "de").sum() / (n / 2)
    assert 0.04 < en < 0.12   # ≈ 0x14/0x100 = 7.8%
    assert 0.20 < de < 0.31   # ≈ 0x40/0x100 = 25%
    # determinism: same input → identical sample
    out2 = tp.stratified_sample_by_hash(b, thresholds={"en": "14"}, default_hex="40").to_pandas()
    assert out["doc_id"].tolist() == out2["doc_id"].tolist()


def test_hash_join_semantics():
    """Inner-join semantics incl. multi-match fan-out, skewed key, misses,
    and the column-collision guard."""
    from oboyu_ray.stages.relational import hash_join

    left = ray.data.from_arrow(
        pa.table(
            {
                "lk": pa.array([1, 1, 2, 3, 99], type=pa.int64()),
                "lv": pa.array(["a", "b", "c", "d", "miss"], type=pa.string()),
            }
        )
    ).repartition(3)
    right = ray.data.from_arrow(
        pa.table(
            {
                "rk": pa.array([1, 2, 2, 4], type=pa.int64()),
                "rv": pa.array([10, 20, 21, 40], type=pa.int64()),
            }
        )
    ).repartition(2)
    out = (
        hash_join(left, right, "lk", "rk", n_buckets=4)
        .to_pandas()
        .sort_values(["lk", "lv", "rv"], ignore_index=True)
    )
    # lk=1 matches rv=10 twice (two left rows), lk=2 fans out to rv∈{20,21},
    # lk=3 and lk=99 and rk=4 drop (inner)
    assert out[["lk", "lv", "rv"]].values.tolist() == [
        [1, "a", 10],
        [1, "b", 10],
        [2, "c", 20],
        [2, "c", 21],
    ]

    import pytest as _pytest

    with _pytest.raises(ValueError, match="collision"):
        hash_join(left, left, "lk", "lk")


def test_doc_surprisal_model_and_oov():
    """Unigram model top-K truncation: words beyond the model score the
    rarest-word (OOV) surprisal; integer mean is exact."""
    import ray as _ray

    from oboyu_ray.fixedpoint import micros as _micros
    from oboyu_ray.stages import trainprep as tp

    # corpus: "common" x8, "mid" x4, "rare" x4  (N=16)
    ds = ray.data.from_items(
        [
            {"doc_id": 1, "text": "common common common common"},
            {"doc_id": 2, "text": "common common common common"},
            {"doc_id": 3, "text": "mid mid mid mid"},
            {"doc_id": 4, "text": "rare rare rare rare"},
        ]
    )
    wh, s, n = tp.unigram_model(ds, top_k=2)
    assert n == 16 and len(wh) == 2  # truncated to top-2 (common, mid|rare tie)
    out = (
        tp.doc_surprisal(ds, _ray.put((wh, s, n)))
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert out["n_words"].tolist() == [4, 4, 4, 4]
    s_common = int(_micros(-np.log(8 / 16)))
    oov = int(_micros(-np.log(1 / 16)))
    assert out["mean_surprisal_micros"][0] == s_common
    # tie at cnt=4 broken by word ASC: "mid" kept, "rare" is OOV
    s_mid = int(_micros(-np.log(4 / 16)))
    assert out["mean_surprisal_micros"][2] == s_mid
    assert out["mean_surprisal_micros"][3] == oov


def test_kmeans_summary_matches_scalar_reference(entrymod):
    """Distributed k-means summary == single-process scalar reference of
    the SAME algorithm (init = first-k-by-id, Lloyd iterations, empty
    clusters keep their centroid), and is deterministic across runs."""
    import pyarrow.parquet as pq

    from oboyu_ray.fixedpoint import micros as _micros
    from oboyu_ray.functions.arrowvec import vec_matrix
    from oboyu_ray.stages.simsearch import _normalize_rows

    got = _as_df(entrymod.queries()["embedding_clusters"](SF)).sort_values(
        "cluster", ignore_index=True
    )
    got2 = _as_df(entrymod.queries()["embedding_clusters"](SF)).sort_values(
        "cluster", ignore_index=True
    )
    pd.testing.assert_frame_equal(got, got2)

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    t = t.take(pa.compute.sort_indices(t.column("vec_id")))
    M = _normalize_rows(vec_matrix(t.column("embedding")))
    k, iters = 16, 3
    C = M[:k].copy()
    for _ in range(iters):
        cell = np.argmax(M @ C.T, axis=1)
        for c in range(k):
            sel = cell == c
            if sel.any():
                C[c] = _normalize_rows(M[sel].mean(axis=0)[None, :])[0]
    sims = M @ C.T
    cell = np.argmax(sims, axis=1)
    cm = _micros(sims[np.arange(len(cell)), cell]).astype(np.int64)
    want = (
        pd.DataFrame({"cluster": cell, "cm": cm})
        .groupby("cluster")
        .agg(n_vecs=("cm", "size"), total=("cm", "sum"))
        .reset_index()
    )
    want["mean_cos_micros"] = want["total"] // want["n_vecs"]
    assert got["cluster"].tolist() == want["cluster"].tolist()
    assert got["n_vecs"].tolist() == want["n_vecs"].tolist()
    # float matmul blocking may differ by ulps between shapes; micros means
    # agree to the last digit or one
    assert (got["mean_cos_micros"] - want["mean_cos_micros"]).abs().max() <= 1
    assert int(got["n_vecs"].sum()) == len(M)


def test_quantile_sketch_rank_error_and_determinism(entrymod, duck):
    from oboyu_ray.pipelines.corpus_queries import SKETCH_QS

    a = _as_df(entrymod.queries()["price_quantiles_sketch"](SF))
    b = _as_df(entrymod.queries()["price_quantiles_sketch"](SF))
    pd.testing.assert_frame_equal(a, b)  # deterministic across runs
    vals = duck.execute("SELECT l_extendedprice FROM lineitem").fetchnumpy()[
        "l_extendedprice"
    ]
    srt = np.sort(vals)
    n = len(srt)
    from oboyu_ray.stages.quantiles import _disc_rank

    for q, est_micros in zip(SKETCH_QS, a["value_micros"]):
        est = est_micros / 1e6
        true_rank = np.searchsorted(srt, est, side="right")
        target = _disc_rank(q, n) + 1
        assert abs(true_rank - target) / n < 0.02, (q, est)


def test_quantile_sketch_merge_associativity():
    from oboyu_ray.stages.quantiles import QuantileSketch

    rng = np.random.RandomState(7)
    data = rng.standard_normal(50000)
    parts = np.array_split(data, 8)
    # two different merge groupings over the same sorted-blob order
    blobs = sorted(QuantileSketch().add(p).to_bytes() for p in parts)
    flat = QuantileSketch()
    for bl in blobs:
        flat.merge(QuantileSketch.from_bytes(bl))
    left = QuantileSketch()
    for bl in blobs[:4]:
        left.merge(QuantileSketch.from_bytes(bl))
    right = QuantileSketch()
    for bl in blobs[4:]:
        right.merge(QuantileSketch.from_bytes(bl))
    tree = left.merge(right)
    assert tree.n == flat.n == len(data)
    srt = np.sort(data)
    for q in (0.1, 0.5, 0.9):
        for est in (flat.quantile(q), tree.quantile(q)):
            rank = np.searchsorted(srt, est, side="right")
            assert abs(rank - q * len(data)) / len(data) < 0.02


def test_pack_sequences_bin_invariants(entrymod):
    """Bins are budget-bounded up to one straddling doc, cover all docs,
    and are contiguous from 0."""
    from oboyu_ray.stages.trainprep import PACK_BUDGET

    out = _as_df(entrymod.queries()["pack_sequences"](SF))
    assert len(out) == 500 and out["doc_id"].is_unique
    g = out.groupby("bin")["n_words"].sum().sort_index()
    assert list(g.index) == list(range(len(g)))
    # every bin except possibly the last holds >= budget - (max doc - 1)
    # tokens... simplest exact invariant: total tokens of bins 0..k-1 lands
    # in [k*budget, k*budget + max_doc) for every k (prefix property)
    csum = g.cumsum().to_numpy()
    mx = int(out["n_words"].max())
    for k, c in enumerate(csum[:-1], start=1):
        assert k * PACK_BUDGET <= c < k * PACK_BUDGET + mx


def test_funnel_semantics_edges():
    """Same-ts goal excluded (strict >), window boundary inclusive,
    cross-user goals never count, multiple signups each evaluated."""
    from oboyu_ray.stages.relational import funnel_conversion

    US_H = 3_600_000_000
    base = 86_400_000_000 * 20000  # day 20000
    rows = [
        # user 1: signup, purchase exactly at +4h → converted (inclusive)
        {"user_id": 1, "event_type": "signup", "ts": base},
        {"user_id": 1, "event_type": "purchase", "ts": base + 4 * US_H},
        # user 2: purchase at SAME ts as signup → not converted
        {"user_id": 2, "event_type": "signup", "ts": base},
        {"user_id": 2, "event_type": "purchase", "ts": base},
        # user 3: purchase just outside window
        {"user_id": 3, "event_type": "signup", "ts": base},
        {"user_id": 3, "event_type": "purchase", "ts": base + 4 * US_H + 1},
        # user 4: signup only; user 5: purchase only (never a signup row)
        {"user_id": 4, "event_type": "signup", "ts": base},
        {"user_id": 5, "event_type": "purchase", "ts": base + US_H},
        # user 6: two signups, second converts via the shared later purchase
        {"user_id": 6, "event_type": "signup", "ts": base},
        {"user_id": 6, "event_type": "signup", "ts": base + 3 * US_H},
        {"user_id": 6, "event_type": "purchase", "ts": base + 5 * US_H},
        # noise event type ignored
        {"user_id": 1, "event_type": "click", "ts": base + US_H},
    ]
    import pyarrow as _pa

    ds = ray.data.from_arrow(
        _pa.table(
            {
                "user_id": _pa.array([r["user_id"] for r in rows], type=_pa.int64()),
                "event_type": _pa.array([r["event_type"] for r in rows]),
                "ts": _pa.array([r["ts"] for r in rows], type=_pa.timestamp("us")),
            }
        )
    ).repartition(3)
    out = funnel_conversion(ds, window_us=4 * US_H).to_pandas()
    assert out["day"].tolist() == [20000]
    assert int(out["n_signups"].iloc[0]) == 6
    # converted: user1 (boundary), user6 second signup → 2
    assert int(out["n_converted"].iloc[0]) == 2


def test_vector_index_incremental_append(tmp_path):
    """Append epoch: build on half the corpus, append the rest -> search is
    exact vs brute force over the FULL corpus; unlisted epoch dirs
    (crashed append) stay invisible; radii only grow."""
    import os

    import ray as _ray

    from oboyu_ray.state.vector_index import (
        VectorIndex,
        append_vector_index,
        build_vector_index,
    )
    from oboyu_ray.stages.simsearch import brute_force_cosine_topk, load_query_matrix

    rng = np.random.RandomState(11)
    centers = rng.standard_normal((6, 12)) * 4
    vecs = np.concatenate(
        [centers[i % 6] + rng.standard_normal(12) * 0.4 for i in range(300)]
    ).reshape(300, 12)

    def mk(lo, hi):
        return ray.data.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(np.arange(lo, hi), type=pa.int64()),
                    "embedding": pa.array(list(vecs[lo:hi]), type=pa.list_(pa.float64())),
                }
            )
        )

    idx_dir = str(tmp_path / "vi_inc")
    man = build_vector_index(mk(0, 150), idx_dir, n_cells=6)
    assert man["n_vectors"] == 150 and man["epochs"] == ["cells"]
    man2 = append_vector_index(idx_dir, mk(150, 300))
    assert man2["n_vectors"] == 300 and man2["epochs"] == ["cells", "cells_epoch_1"]

    full = mk(0, 300)
    qids, Q = load_query_matrix(full, (0, 200, 299))
    idx = VectorIndex(idx_dir)
    got = idx.search(Q, k=7, query_ids=qids)
    want = brute_force_cosine_topk(full, k=7, query_ids=(0, 200, 299))
    pd.testing.assert_frame_equal(
        got.sort_values(["query_id", "rank"], ignore_index=True),
        want.sort_values(["query_id", "rank"], ignore_index=True),
        check_dtype=False,
    )

    # crash simulation: an epoch dir NOT in the manifest must be invisible
    ghost = os.path.join(idx_dir, "cells_epoch_2", "cell=0")
    os.makedirs(ghost, exist_ok=True)
    import pyarrow.parquet as _pq

    _pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([999999], type=pa.int64()),
                "vec": pa.array([list(np.ones(12) / np.sqrt(12))], type=pa.list_(pa.float64())),
                "theta": pa.array([0.0]),
            }
        ),
        os.path.join(ghost, "ghost.parquet"),
    )
    idx2 = VectorIndex(idx_dir)
    got2 = idx2.search(Q, k=7, query_ids=qids)
    assert 999999 not in set(got2["vec_id"])
    pd.testing.assert_frame_equal(
        got2.sort_values(["query_id", "rank"], ignore_index=True),
        want.sort_values(["query_id", "rank"], ignore_index=True),
        check_dtype=False,
    )


def test_incremental_dedup_store_semantics(tmp_path):
    """Store anti-join drops already-seen fingerprints; within-drop dups
    canonicalize to the min id; normalization-equal texts match across
    store and drop."""
    from oboyu_ray.stages.dedup import build_fingerprint_store, dedup_against_store

    old = ray.data.from_items(
        [
            {"doc_id": 1, "text": "alpha beta"},
            {"doc_id": 2, "text": "gamma  delta"},  # normalizes to "gamma delta"
        ]
    )
    store = str(tmp_path / "fp")
    build_fingerprint_store(old, store)

    new = ray.data.from_items(
        [
            {"doc_id": 10, "text": "Alpha Beta"},      # seen (case-normalized)
            {"doc_id": 11, "text": "gamma delta"},     # seen (ws-normalized)
            {"doc_id": 12, "text": "epsilon zeta"},    # fresh
            {"doc_id": 13, "text": "epsilon  zeta"},   # dup of 12 within drop
            {"doc_id": 14, "text": "eta theta"},       # fresh
        ]
    ).repartition(3)
    out = (
        dedup_against_store(new, store)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert out["doc_id"].tolist() == [12, 14]
    assert out.set_index("doc_id")["n_dups"].to_dict() == {12: 2, 14: 1}


def test_fuzzy_terms_edge_semantics():
    """SymSpell candidates + verify: distance-2 equal-length false positives
    (shared deletion, e.g. transposition) must NOT appear; ED 0 and 1 do."""
    from oboyu_ray.stages.stats import _levenshtein1, fuzzy_terms

    vocab = ray.data.from_items(
        [
            {"term": "spark", "df": 10},
            {"term": "spark2", "df": 1},
            {"term": "ab", "df": 5},
            {"term": "ba", "df": 4},  # deletes {a,b} intersect "ab"'s — ED 2
        ]
    )
    out = (
        fuzzy_terms(vocab, ["spark", "spar", "ab"])
        .to_pandas()
        .sort_values(["query", "term"], ignore_index=True)
    )
    got = set(map(tuple, out[["query", "term", "dist"]].to_numpy()))
    assert ("spark", "spark", 0) in got
    assert ("spar", "spark", 1) in got
    assert ("ab", "ab", 0) in got
    assert ("ab", "ba", 2) not in got and ("ab", "ba", 1) not in got
    assert ("spark", "spark2", 1) in got
    assert _levenshtein1("ab", "ba") == 2


def test_hash_join_modes():
    from oboyu_ray.stages.relational import hash_join

    left = ray.data.from_arrow(
        pa.table({"lk": pa.array([1, 2, 3], type=pa.int64()),
                  "lv": pa.array(["a", "b", "c"])})
    )
    right = ray.data.from_arrow(
        pa.table({"rk": pa.array([2, 2, 4], type=pa.int64()),
                  "rv": pa.array([20, 21, 40], type=pa.int64())})
    )
    semi = hash_join(left, right, "lk", "rk", how="semi").to_pandas()
    assert semi["lk"].tolist() == [2] and list(semi.columns) == ["lk", "lv"]
    anti = sorted(hash_join(left, right, "lk", "rk", how="anti").to_pandas()["lk"])
    assert anti == [1, 3]
    lj = hash_join(left, right, "lk", "rk", how="left").to_pandas().sort_values(
        ["lk", "rv"], ignore_index=True
    )
    assert len(lj) == 4  # 1-null, 2x2, 3-null
    assert lj.loc[lj["lk"] == 1, "rv"].isna().all()
    fo = hash_join(left, right, "lk", "rk", how="outer").to_pandas()
    assert len(fo) == 5  # 1-null, 2x2, 3-null, right-only 4
    assert fo.loc[fo["rk"] == 4, "lk"].isna().all()
    assert sorted(fo["rk"].dropna()) == [2, 2, 4]
    import pytest as _pytest

    with _pytest.raises(ValueError, match="unsupported"):
        hash_join(left, right, "lk", "rk", how="cross")


def test_langid_confusion_predicts_all_branches():
    from oboyu_ray.stages.trainprep import langid_confusion

    ds = ray.data.from_arrow(
        pa.table(
            {
                "text": pa.array(
                    [
                        "hello world",          # en
                        "こんにちは世界",        # kana present → ja (kana wins over cjk)
                        "中文文本没有假名",      # cjk only → zh
                        "mislabeled ascii",     # en predicted, ja labeled
                        None,                   # null text → en branch, not a crash
                    ]
                ),
                "lang": pa.array(["en", "ja", "zh", "ja", "en"]),
            }
        )
    )
    out = langid_confusion(ds).to_pandas()
    got = {
        (r.label_lang, r.pred_lang): r.n
        for r in out.itertuples(index=False)
    }
    assert got == {
        ("en", "en"): 2,
        ("ja", "ja"): 1,
        ("zh", "zh"): 1,
        ("ja", "en"): 1,
    }


def test_pagerank_matches_scalar_reference():
    from collections import Counter

    from oboyu_ray.stages.components import PR_SCALE, pagerank

    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "c")]
    iters, scale = 3, PR_SCALE

    sym = set()
    for a, b in edges:
        sym.add((a, b))
        sym.add((b, a))
    nodes = sorted({x for e in sym for x in e})
    deg = Counter(s for s, _ in sym)
    n = len(nodes)
    r = {v: scale // n for v in nodes}
    base = (15 * scale) // (100 * n)
    for _ in range(iters):
        s = dict.fromkeys(nodes, 0)
        for u, v in sym:
            s[v] += r[u] // deg[u]
        r = {v: base + (85 * s[v]) // 100 for v in nodes}

    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([e[0] for e in edges]),
                "dst": pa.array([e[1] for e in edges]),
            }
        )
    )
    got = pagerank(ds, iters=iters).to_pandas()
    assert dict(zip(got["node"], got["r"])) == r
    # hub c (degree 3) outranks the leaf d (degree 1)
    assert r["c"] > r["d"]


def test_pagerank_empty_edges():
    from oboyu_ray.stages.components import pagerank

    ds = ray.data.from_arrow(
        pa.table({"src": pa.array([], pa.string()), "dst": pa.array([], pa.string())})
    )
    out = pagerank(ds)
    assert out.count() == 0
    assert out.schema().names == ["node", "r"]


def test_decontaminate_bloom_superset_and_fpr():
    import ray as _ray

    from oboyu_ray.stages import trainprep
    from oboyu_ray.stages.trainprep import (
        BLOOM_BITS_LOG2,
        BLOOM_K,
        _bloom_positions,
        _bloom_test,
    )

    # docs where id % 97 == 0 play the benchmark; 1 and 2 share its trigrams
    rows = [
        {"doc_id": 0, "text": "the quick brown fox jumps over the lazy dog"},
        {"doc_id": 1, "text": "quick brown fox story and other tales"},
        {"doc_id": 2, "text": "over the lazy dog went the quick brown fox"},
        {"doc_id": 3, "text": "completely unrelated content about databases"},
        {"doc_id": 97, "text": "another benchmark document with shared words here"},
        {"doc_id": 4, "text": "benchmark document with shared words here indeed"},
    ]
    ds = ray.data.from_items(rows)
    exact = trainprep.decontaminate(
        ds, _ray.put(trainprep.benchmark_shingle_set(ds))
    ).to_pandas()
    words = trainprep.benchmark_bloom(ds)
    bloom = trainprep.decontaminate_bloom(ds, _ray.put(words)).to_pandas()

    e = dict(zip(exact["doc_id"], exact["n_hits"]))
    b = dict(zip(bloom["doc_id"], bloom["n_hits"]))
    # no false negatives: every exact hit present with >= the exact count
    assert set(e) <= set(b)
    for k, v in e.items():
        assert b[k] >= v
    # benchmark members never flagged
    assert 0 not in b and 97 not in b

    # FPR bound: random non-member hashes probe positive well under 1%
    rng_h = (np.arange(1, 200_001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)) ^ np.uint64(0xDEADBEEFCAFE)
    hit = np.ones(len(rng_h), dtype=bool)
    for pos in _bloom_positions(rng_h, BLOOM_BITS_LOG2, BLOOM_K):
        hit &= _bloom_test(words, pos)
    assert hit.mean() < 0.01


def test_grouped_quantiles_string_groups():
    from oboyu_ray.stages.quantiles import grouped_quantiles

    rows = [
        {"g": "a", "v": float(x)} for x in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    ] + [{"g": "b", "v": float(x)} for x in [100, 200, 300]]
    out = grouped_quantiles(ray.data.from_items(rows), "g", "v", [0.25, 0.5]).to_pandas()
    got = {(r.g, r.q_micros): r.value for r in out.itertuples(index=False)}
    # quantile_disc: rank = max(ceil(q*n)-1, 0)
    assert got == {
        ("a", 250_000): 3.0,
        ("a", 500_000): 5.0,
        ("b", 250_000): 100.0,
        ("b", 500_000): 200.0,
    }


def test_topk_per_group_str_tiebreak():
    from oboyu_ray.stages.relational import topk_per_group_str

    rows = [
        {"g": "en", "w": "beta", "n": 5},
        {"g": "en", "w": "alpha", "n": 5},   # tie on n -> word ASC wins
        {"g": "en", "w": "gamma", "n": 9},
        {"g": "en", "w": "delta", "n": 1},
        {"g": "ja", "w": "zz", "n": 2},
    ]
    out = (
        topk_per_group_str(ray.data.from_items(rows), "g", "w", "n", k=2)
        .to_pandas()
        .sort_values(["g", "rank"], ignore_index=True)
    )
    got = list(zip(out["g"], out["w"], out["n"], out["rank"]))
    assert got == [
        ("en", "gamma", 9, 1),
        ("en", "alpha", 5, 2),
        ("ja", "zz", 2, 1),
    ]


def test_prefix_dups_cross_block_and_ties():
    from oboyu_ray.stages.dedup import prefix_dups

    rows = [
        {"doc_id": 1, "text": "hello world"},
        {"doc_id": 2, "text": "hello world and more"},   # contains 1
        {"doc_id": 3, "text": "hello"},                  # prefix of 1 and 2
        {"doc_id": 4, "text": "zebra"},                  # no relation
        {"doc_id": 5, "text": "hello world"},            # equal to 1 AND prefix of 2
        {"doc_id": 6, "text": ""},                       # empty: prefix of everything
    ]
    # many tiny blocks force the boundary-seam path
    ds = ray.data.from_items(rows).repartition(6)
    got = sorted(prefix_dups(ds).to_pandas()["doc_id"])
    # 1 (equal text, smaller id), 3 ("hello" prefix), 5 (prefix of doc 2),
    # 6 (empty) — matches the lead()-window DuckDB oracle exactly
    assert got == [1, 3, 5, 6]


def test_keyed_window_scan_cross_batch():
    from oboyu_ray.stages.window import keyed_window_scan

    # two keys interleaved across many tiny blocks; values chosen so the
    # 3-row moving sum differs from the running total from row 3 onward
    rows = []
    for i in range(10):
        rows.append({"user_id": i % 2, "ts": 1000 + i, "event_id": i, "value": float(i + 1)})
    ds = ray.data.from_items(rows).repartition(5)
    got = (
        keyed_window_scan(ds, "user_id", "ts", "event_id", "value", window=3)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    # key 0 gets values 1,3,5,7,9 ; key 1 gets 2,4,6,8,10 (in ts order)
    import itertools

    for key, vals in ((0, [1, 3, 5, 7, 9]), (1, [2, 4, 6, 8, 10])):
        sub = got[got["key"] == key].reset_index(drop=True)
        cums = list(itertools.accumulate(v * 1_000_000 for v in vals))
        assert list(sub["cum_micros"]) == cums
        mv = [
            sum(vals[max(0, i - 2) : i + 1]) * 1_000_000
            for i in range(len(vals))
        ]
        assert list(sub["mv_micros"]) == mv


def test_pq_recall_exact_scores_and_determinism(entrymod, tmp_path):
    from oboyu_ray.state.pq_index import build_pq_index, pq_persisted_topk

    src = f"{SF}/embeddings.parquet"
    embs = ray.data.read_parquet(src, columns=["vec_id", "embedding"])
    idx = str(tmp_path / "pq")
    man = build_pq_index(embs, idx)
    assert man["n_vectors"] == 500 and man["m"] == 16 and man["dim"] == 64

    got = pq_persisted_topk(embs, idx, k=10, source_path=src)
    exact = _as_df(entrymod.queries()["simsearch_topk"](SF))
    # recall@10 ≥ 0.8 per query vs brute force
    for q in got["query_id"].unique():
        g = set(got.loc[got["query_id"] == q, "vec_id"])
        e = set(exact.loc[exact["query_id"] == q, "vec_id"].head(10))
        assert len(g & e) >= 8, (q, g, e)
    # returned scores are EXACT cosines: every (q, vec) also in brute force
    # must carry an identical score
    merged = got.merge(exact, on=["query_id", "vec_id"], suffixes=("_pq", "_ex"))
    assert (merged["cos_micros_pq"] == merged["cos_micros_ex"]).all()
    # deterministic across a rebuild into a fresh dir
    idx2 = str(tmp_path / "pq2")
    build_pq_index(embs, idx2)
    again = pq_persisted_topk(embs, idx2, k=10, source_path=src)
    pd.testing.assert_frame_equal(got, again)


def test_pq_codes_are_compact(tmp_path):
    import os

    import pyarrow.parquet as pq_

    from oboyu_ray.state.pq_index import build_pq_index

    src = f"{SF}/embeddings.parquet"
    embs = ray.data.read_parquet(src, columns=["vec_id", "embedding"])
    idx = str(tmp_path / "pq")
    build_pq_index(embs, idx)
    codes_dir = os.path.join(idx, "codes")
    t = pa.concat_tables(
        pq_.read_table(os.path.join(codes_dir, f))
        for f in sorted(os.listdir(codes_dir))
        if f.endswith(".parquet")
    )
    assert t.num_rows == 500
    code_type = t.schema.field("code").type
    assert pa.types.is_fixed_size_list(code_type) and code_type.list_size == 16
    assert code_type.value_type == pa.uint8()


def test_next_event_join_self_and_ties():
    from oboyu_ray.stages.relational import next_event_join

    MIN = 60_000_000

    def ev(uid, t_min, eid, et):
        return {"user_id": uid, "ts": pd.Timestamp(t_min * MIN * 1000),
                "event_id": eid, "event_type": et}

    rows = [
        ev(1, 0, 1, "view"),       # → purchase 3
        ev(1, 1, 3, "purchase"),   # → purchase 4 (same ts, larger id)
        ev(1, 1, 4, "purchase"),   # → purchase 9
        ev(1, 5, 9, "purchase"),   # → none (-1)
        ev(2, 0, 2, "view"),       # user 2 never purchases → -1
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(3)
    got = (
        next_event_join(ds, match_type="purchase")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    expect = {1: 3, 3: 4, 4: 9, 9: -1, 2: -1}
    assert {int(e): int(n) for e, n in zip(got["event_id"], got["next_id"])} == expect
    gaps = {int(e): int(g) for e, g in zip(got["event_id"], got["gap_us"])}
    assert gaps[3] == 0 and gaps[1] == MIN and gaps[4] == 4 * MIN


def test_knn_classify_planted_clusters():
    from oboyu_ray.stages.simsearch import knn_classify

    rng = np.random.RandomState(5)
    rows = []
    # two tight clusters around orthogonal axes with labels 7 and 3
    for i in range(30):
        base = np.zeros(8)
        if i < 15:
            base[0] = 1.0
            lab = 7
        else:
            base[1] = 1.0
            lab = 3
        v = base + rng.normal(0, 0.05, 8)
        rows.append({"vec_id": i, "embedding": v.tolist(), "label": lab})
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(4)
    got = knn_classify(ds, k=5).to_pandas().sort_values("vec_id")
    # every vector is labeled by its own cluster, never by itself
    assert list(got["predicted_label"]) == [7] * 15 + [3] * 15
    assert (got["n_votes"] == 5).all()


def test_session_paths_break_mid_triple():
    from oboyu_ray.stages.sessionize import session_paths

    MIN = 60_000_000  # 1 minute in us

    def ev(uid, t_min, eid, et):
        return {"user_id": uid, "ts": pd.Timestamp(t_min * MIN * 1000), "event_id": eid,
                "event_type": et}

    rows = [
        # user 1, session 1: a b c d → paths a>b>c, b>c>d
        ev(1, 0, 1, "a"), ev(1, 1, 2, "b"), ev(1, 2, 3, "c"), ev(1, 3, 4, "d"),
        # 31-minute gap → session 2: a b c → a>b>c again
        ev(1, 40, 5, "a"), ev(1, 41, 6, "b"), ev(1, 42, 7, "c"),
        # user 2: only two events — no triple
        ev(2, 0, 8, "a"), ev(2, 1, 9, "b"),
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(4)
    got = session_paths(ds).to_pandas()
    assert list(got["path"]) == ["a>b>c", "b>c>d"]
    assert list(got["n"]) == [2, 1]
    assert list(got["rank"]) == [1, 2]


def test_build_corpus_end_to_end(tmp_path):
    import os

    from oboyu_ray.pipelines.corpus_build import build_corpus

    docs = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    out = str(tmp_path / "corpus")
    man = build_corpus(docs, out, n_shards=8)
    # funnel sanity: every stage only removes rows
    assert man["n_input"] == 500
    assert 0 < man["n_clean"] <= man["n_input"]
    assert man["n_exported"] == man["n_clean"] - man["n_neardup_dropped"]
    assert man["n_neardup_dropped"] > 0  # sf0.01 has planted near-dups
    assert man["n_bins"] > 0
    assert sorted(man["rewritten_shards"]) == list(range(8))
    # resume: a second call rewrites nothing
    man2 = build_corpus(docs, out, n_shards=8)
    assert man2["rewritten_shards"] == []
    assert man2["n_exported"] == man["n_exported"]
    # exported rows carry (doc_id, text, n_words, bin) exactly once each
    import pyarrow.parquet as pq_

    tables = []
    for name in os.listdir(out):
        d = os.path.join(out, name)
        if name.startswith("shard=") and os.path.isdir(d):
            for f in os.listdir(d):
                if f.endswith(".parquet"):
                    tables.append(pq_.read_table(os.path.join(d, f)))
    t = pa.concat_tables(tables, promote_options="default")
    assert t.num_rows == man["n_exported"]
    assert {"doc_id", "text", "n_words", "bin"} <= set(t.schema.names)
    assert len(set(t.column("doc_id").to_pylist())) == t.num_rows


def test_validation_report_planted_violations():
    from oboyu_ray.stages.validate import (
        empty_string_rule,
        negative_rule,
        null_rule,
        validation_report,
    )

    rows = []
    for i in range(40):
        rows.append(
            {
                "event_id": i % 35,  # 5 duplicate ids
                "user_id": None if i in (3, 9) else i,
                "value": -1.5 if i in (1, 2, 4) else float(i),
                "event_type": "" if i == 5 else ("x" if i != 6 else None),
            }
        )
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(6)
    rep = (
        validation_report(
            ds,
            [null_rule("user_id"), negative_rule("value"), empty_string_rule("event_type")],
            unique_col="event_id",
        )
        .to_pandas()
        .set_index("rule")["n_violations"]
        .to_dict()
    )
    assert rep == {
        "null_user_id": 2,
        "negative_value": 3,
        "empty_event_type": 2,
        "duplicate_event_id": 5,
    }


def test_export_shards_resume_and_determinism(tmp_path):
    import os

    import pyarrow.parquet as pq_

    from oboyu_ray.sources.sinks import export_shards

    docs = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    out = str(tmp_path / "export")
    man1 = export_shards(docs, out, key_col="doc_id", n_shards=16)
    assert man1["n_rows"] == 500 and len(man1["rewritten_shards"]) == 16

    def read_commit(s):
        import json

        with open(os.path.join(out, f"shard={s}", "_COMMIT.json")) as f:
            return json.load(f)

    commits1 = {s: read_commit(s) for s in range(16)}

    # delete two shards (one data dir, one commit only) → resume rewrites
    # exactly those; untouched shard files keep their mtimes
    import shutil as sh

    sh.rmtree(os.path.join(out, "shard=3"))
    os.remove(os.path.join(out, "shard=7", "_COMMIT.json"))
    keep_mtime = {}
    for s in (0, 1, 2):
        d = os.path.join(out, f"shard={s}")
        keep_mtime[s] = sorted(
            (f, os.stat(os.path.join(d, f)).st_mtime_ns)
            for f in os.listdir(d) if f.endswith(".parquet")
        )
    man2 = export_shards(docs, out, key_col="doc_id", n_shards=16)
    assert sorted(man2["rewritten_shards"]) == [3, 7]
    assert man2["n_rows"] == 500
    for s in (0, 1, 2):
        d = os.path.join(out, f"shard={s}")
        now = sorted(
            (f, os.stat(os.path.join(d, f)).st_mtime_ns)
            for f in os.listdir(d) if f.endswith(".parquet")
        )
        assert now == keep_mtime[s], s
    # commit stats identical after resume (content determinism)
    commits2 = {s: read_commit(s) for s in range(16)}
    assert commits1 == commits2
    # every row lands exactly once across shards
    total = 0
    ids = []
    for s in range(16):
        d = os.path.join(out, f"shard={s}")
        for f in os.listdir(d):
            if f.endswith(".parquet"):
                t = pq_.read_table(os.path.join(d, f), columns=["doc_id"])
                total += t.num_rows
                ids.extend(t.column("doc_id").to_pylist())
    assert total == 500 and len(set(ids)) == 500


def test_rm3_expansion_is_live():
    """RM3 must actually expand: with α<1 and a corpus where feedback docs
    share off-query vocabulary, the RM3 ranking differs from plain BM25 for
    at least one query (else the operator silently degenerated to BM25)."""
    from oboyu_ray.config import BM25Config
    from oboyu_ray.pipelines.bm25_batch import brute_force_topk, rm3_topk, tokenize_queries
    from oboyu_ray.pipelines.entry_queries import BM25_QUERIES, CFG

    docs = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    queries = tokenize_queries(BM25_QUERIES, CFG)
    rm3 = rm3_topk(docs, queries, k=10, cfg=CFG, source_path=f"{SF}/documents.parquet")
    plain = brute_force_topk(docs, queries, k=10, cfg=CFG)
    assert len(rm3) > 0
    diffs = 0
    for q in plain["query_id"].unique():
        a = list(rm3.loc[rm3["query_id"] == q, "doc_id"])
        b = list(plain.loc[plain["query_id"] == q, "doc_id"])
        if a != b:
            diffs += 1
    assert diffs >= 1


def test_global_row_number_cross_block_ties():
    from oboyu_ray.stages.window import global_row_number

    rng = np.random.RandomState(11)
    vals = rng.randint(0, 10, 200)  # heavy ties → id tiebreak matters
    df = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64)[::-1].copy(),
                       "v": vals.astype(np.int64)})
    ds = ray.data.from_pandas(df).repartition(7)
    got = (
        global_row_number(ds, ["v", "doc_id"], ["doc_id", "v"])
        .to_pandas()
        .sort_values("rnk")
        .reset_index(drop=True)
    )
    ref = df.sort_values(["v", "doc_id"]).reset_index(drop=True)
    assert list(got["doc_id"]) == list(ref["doc_id"])
    assert list(got["rnk"]) == list(range(1, 201))


def test_mmr_matches_scalar_reference(entrymod):
    from oboyu_ray.stages.simsearch import mmr_topk

    src = f"{SF}/embeddings.parquet"
    embs = ray.data.read_parquet(src, columns=["vec_id", "embedding"])
    got = mmr_topk(embs, k=10, pool=50, source_path=src)

    # scalar reference: same greedy MMR over the brute-force pool, computed
    # from first principles with plain numpy
    import pyarrow.parquet as pq_

    t = pq_.read_table(src, columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy().astype(np.int64)
    M = np.stack([np.asarray(v, dtype=np.float64) for v in t.column("embedding").to_pylist()])
    M = M / np.maximum(np.linalg.norm(M, axis=1), 1e-30)[:, None]
    lam, om = 700_000, 300_000
    for q in (0, 1, 2, 3, 4):
        qi = int(np.flatnonzero(ids == q)[0])
        rel_all = np.floor(M[qi] @ M.T * 1e6 + 0.5).astype(np.int64)
        order = np.lexsort((ids, -rel_all))[:50]
        cids, rel = ids[order], rel_all[order]
        S = np.floor(M[order] @ M[order].T * 1e6 + 0.5).astype(np.int64)
        picked, maxsim = [], np.zeros(50, dtype=np.int64)
        avail = np.ones(50, dtype=bool)
        expect = []
        for step in range(10):
            sc = lam * rel - (om * maxsim if picked else 0)
            cand = np.flatnonzero(avail)
            b = cand[np.lexsort((cids[cand], -sc[cand]))[0]]
            picked.append(b)
            avail[b] = False
            maxsim = np.maximum(maxsim, S[b])
            expect.append((q, int(cids[b]), int(sc[b] // 1_000_000), step + 1))
        sub = got[got["query_id"] == q].reset_index(drop=True)
        assert list(map(tuple, sub.to_numpy())) == expect
        # each pick is a DISTINCT vector (regression: an int64-min sentinel
        # under lexsort negation overflowed and re-picked the same row)
        assert sub["vec_id"].nunique() == 10
    # rank 1 is the pure-relevance top hit (the query's own vector)
    r1 = got[got["rank"] == 1]
    assert (r1["vec_id"].to_numpy() == r1["query_id"].to_numpy()).all()


def test_hash_join_salted_hot_keys_matches_unsalted():
    from oboyu_ray.stages.relational import hash_join

    rng = np.random.RandomState(3)
    # 80% of left rows share key 7 (the hot key); right has 3 rows for it
    lkeys = np.where(rng.rand(500) < 0.8, 7, rng.randint(0, 40, 500))
    left = pd.DataFrame({"lk": lkeys.astype(np.int64), "lv": np.arange(500, dtype=np.int64)})
    rkeys = np.r_[np.array([7, 7, 7]), np.arange(0, 40, 2)].astype(np.int64)
    right = pd.DataFrame({"rk": rkeys, "rv": np.arange(len(rkeys), dtype=np.int64) * 10})
    lds = ray.data.from_pandas(left).repartition(4)
    rds = ray.data.from_pandas(right).repartition(2)

    for how in ("inner", "left", "semi", "anti"):
        salted = (
            hash_join(lds, rds, "lk", "rk", n_buckets=8, how=how, hot_keys=[7], salt=4)
            .to_pandas()
        )
        plain = hash_join(lds, rds, "lk", "rk", n_buckets=8, how=how).to_pandas()
        cols = sorted(salted.columns)
        assert cols == sorted(plain.columns), how
        a = salted[cols].sort_values(cols).reset_index(drop=True)
        b = plain[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=how)

    # outer + salting is undecidable per bucket → must refuse
    with pytest.raises(ValueError):
        hash_join(lds, rds, "lk", "rk", how="outer", hot_keys=[7])


def test_rolling_active_users_interval_merge():
    from oboyu_ray.stages.window import rolling_active_users

    # epoch-day → ts(us); user 1 active days {0, 3, 20}; user 2 day {5};
    # day 3 & 0 merge into one coverage run, 20 starts a new one
    def ev(uid, day, eid):
        return {"user_id": uid, "ts": pd.Timestamp(day * 86_400_000_000 * 1000), "event_id": eid}

    rows = [ev(1, 0, 1), ev(1, 3, 2), ev(1, 20, 3), ev(2, 5, 4), ev(1, 3, 5)]
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(4)
    got = (
        rolling_active_users(ds, window_days=7)
        .to_pandas()
        .sort_values("day_i")
        .reset_index(drop=True)
    )
    # brute force: active(w) = #{u : some active day in [w-6, w]}
    active_days = {1: {0, 3, 20}, 2: {5}}
    present = sorted({d for s in active_days.values() for d in s})
    expect = [
        (w, sum(1 for s in active_days.values() if any(w - 6 <= d <= w for d in s)))
        for w in present
    ]
    assert list(map(tuple, got[["day_i", "active_users"]].to_numpy())) == expect


def test_cohort_retention_brute_force():
    from oboyu_ray.stages.window import cohort_retention

    rng = np.random.RandomState(7)
    rows = []
    for eid in range(400):
        uid = int(rng.randint(0, 25))
        day = int(rng.randint(0, 60))
        rows.append(
            {"user_id": uid, "ts": pd.Timestamp(day * 86_400_000_000 * 1000), "event_id": eid}
        )
    df = pd.DataFrame(rows)
    ds = ray.data.from_pandas(df).repartition(5)
    got = (
        cohort_retention(ds)
        .to_pandas()
        .sort_values(["cohort_week", "week_offset"])
        .reset_index(drop=True)
    )
    # scalar reference
    day = df["ts"].astype("int64") // 1000 // 86_400_000_000
    week = day - ((day - 4) % 7)
    uw = pd.DataFrame({"u": df["user_id"], "w": week}).drop_duplicates()
    cohort = uw.groupby("u")["w"].min()
    uw["cohort_week"] = uw["u"].map(cohort)
    uw["week_offset"] = (uw["w"] - uw["cohort_week"]) // 7
    ref = (
        uw.groupby(["cohort_week", "week_offset"])
        .size()
        .reset_index(name="n_users")
        .sort_values(["cohort_week", "week_offset"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype("int64"), ref.astype("int64"), check_names=False
    )


def test_last_row_per_key_cross_batch_ties():
    from oboyu_ray.stages.window import last_row_per_key

    rows = [
        {"user_id": 1, "ts": 100, "event_id": 1, "event_type": "a"},
        {"user_id": 1, "ts": 200, "event_id": 2, "event_type": "b"},
        {"user_id": 1, "ts": 200, "event_id": 3, "event_type": "c"},  # ts tie → bigger id
        {"user_id": 2, "ts": 50, "event_id": 4, "event_type": "d"},
        {"user_id": 2, "ts": 49, "event_id": 5, "event_type": "e"},
    ]
    ds = ray.data.from_items(rows).repartition(5)  # force partial-per-batch path
    got = (
        last_row_per_key(ds, "user_id", "ts", "event_id", ["event_type"])
        .to_pandas()
        .sort_values("key")
        .reset_index(drop=True)
    )
    assert list(got["key"]) == [1, 2]
    assert list(got["id"]) == [3, 4]
    assert list(got["event_type"]) == ["c", "d"]


def test_set_op_matches_python_sets():
    from oboyu_ray.stages.relational import set_op

    rng = np.random.default_rng(7)
    left = [f"k{int(x)}" for x in rng.integers(0, 40, 300)]
    right = [f"k{int(x)}" for x in rng.integers(20, 60, 300)]
    lds = ray.data.from_pandas(pd.DataFrame({"key": left})).repartition(5)
    rds = ray.data.from_pandas(pd.DataFrame({"key": right})).repartition(3)
    ls, rs = set(left), set(right)
    expect = {
        "intersect": ls & rs,
        "except": ls - rs,
        "union": ls | rs,
    }
    for how, want in expect.items():
        got = set(
            set_op(lds, rds, on="key", how=how).to_pandas()["key"].tolist()
        )
        assert got == want, how
    with pytest.raises(ValueError):
        set_op(lds, rds, on="key", how="xor")


def test_set_op_int_keys_distinct_output():
    from oboyu_ray.stages.relational import set_op

    lds = ray.data.from_pandas(pd.DataFrame({"k": [1, 1, 2, 3, 3, 3]}))
    rds = ray.data.from_pandas(pd.DataFrame({"k": [3, 4]}))
    out = set_op(lds, rds, on="k", how="union").to_pandas()["k"].tolist()
    assert sorted(out) == [1, 2, 3, 4]  # distinct, ANSI UNION semantics


def test_event_gap_stats_cross_partition_matches_pandas():
    from oboyu_ray.stages.window import event_gap_stats

    rng = np.random.default_rng(11)
    n = 400
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 9, n),
            "ts": pd.to_datetime(rng.integers(0, 10**9, n), unit="s"),
            "event_id": np.arange(n, dtype=np.int64),
        }
    )
    # single-event user must yield no row
    df = pd.concat(
        [df, pd.DataFrame({"user_id": [99], "ts": [pd.Timestamp("2030-01-01")],
                           "event_id": [n]})],
        ignore_index=True,
    )
    got = (
        event_gap_stats(
            ray.data.from_pandas(df).repartition(7), "user_id", "ts", "event_id"
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    ref_rows = []
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"])
        gap = g["ts"].astype("datetime64[us]").astype("int64").diff().dropna()
        if len(gap):
            ref_rows.append((uid, len(gap), int(gap.sum()), int(gap.max())))
    ref = pd.DataFrame(
        ref_rows, columns=["user_id", "n_gaps", "sum_gap_us", "max_gap_us"]
    ).astype("int64").sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[ref.columns].astype("int64"), ref)
    assert 99 not in got["user_id"].tolist()


def test_bm25_conjunctive_strict_and():
    """Conjunctive retrieval: every result doc contains ALL distinct query
    terms; a corpus-absent term empties that query's result entirely."""
    from oboyu_ray.config import BM25Config
    from oboyu_ray.pipelines.bm25_batch import brute_force_topk

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": pa.array([
            "spark merge spark table",
            "spark only here",
            "merge table spark merge",
            "table merge nothing-else",
        ]),
    })).repartition(2)
    cfg = BM25Config()
    res = brute_force_topk(
        docs,
        {"both": ["spark", "merge"], "ghost": ["spark", "zzzznohit"]},
        k=10, cfg=cfg, require_all=True,
    )
    both = res[res["query_id"] == "both"]["doc_id"].tolist()
    assert sorted(both) == [1, 3]          # docs containing BOTH terms
    assert (res["query_id"] == "ghost").sum() == 0  # absent term → empty


def test_pair_operators_dataset_variant_identical():
    """as_dataset=True returns the verified pair STREAM as a Ray Dataset;
    collected + sorted it must equal the DataFrame-returning path for all
    four near-dup families (incl. the empty-candidates seam)."""
    from oboyu_ray.stages.dedup import (
        embedding_cosine_pairs,
        minhash_lsh_pairs,
        ngram_jaccard_pairs,
        simhash_pairs,
    )

    base = "one two three four five six seven eight nine ten"
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base + " eleven"},
        {"doc_id": 3, "text": "totally different words entirely here now friend"},
        {"doc_id": 4, "text": base},
    ]
    ds = ray.data.from_items(rows).repartition(2)
    for fn, cols in [
        (ngram_jaccard_pairs, ["doc_a", "doc_b", "jaccard_micros"]),
        (minhash_lsh_pairs, ["doc_a", "doc_b", "jaccard_micros"]),
        (simhash_pairs, ["doc_a", "doc_b", "hamming"]),
    ]:
        df = fn(ray.data.from_items(rows).repartition(2))
        stream = fn(ray.data.from_items(rows).repartition(2), as_dataset=True)
        got = (
            stream.to_pandas()[cols]
            .sort_values(cols[:2])
            .reset_index(drop=True)
            .astype("int64")
        )
        assert len(df) > 0, fn.__name__  # fixtures plant real near-dups
        pd.testing.assert_frame_equal(got, df[cols].astype("int64"), obj=fn.__name__)

    rng = np.random.RandomState(0)
    v = rng.rand(6, 8)
    v[1] = v[0] + 0.01  # planted near-dup
    vec_rows = [{"vec_id": i, "embedding": v[i].tolist()} for i in range(len(v))]
    df = embedding_cosine_pairs(ray.data.from_items(vec_rows), tau=0.95)
    stream = embedding_cosine_pairs(
        ray.data.from_items(vec_rows), tau=0.95, as_dataset=True
    )
    got = (
        stream.to_pandas()
        .sort_values(["vec_a", "vec_b"])
        .reset_index(drop=True)
        .astype("int64")
    )
    assert len(df) > 0
    pd.testing.assert_frame_equal(got, df.astype("int64"))

    # empty-candidate seam: no shingles long enough for trigrams
    tiny = ray.data.from_items([{"doc_id": 1, "text": "just two"}])
    empty_stream = ngram_jaccard_pairs(tiny, as_dataset=True)
    assert empty_stream.to_pandas().empty
