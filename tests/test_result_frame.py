"""The engine's result-frame contract.

Every search flavor returns its merged top-k as a pandas frame: the bare
(doc_num, score) frame, or the resolved one with conv_id, turn_idx and
doc_id (plus text / snippet when hydrated, rank when paged).  These tests
pin that contract for ``search``, ``search_terms``, ``search_page`` and
``search_boosted``:

* the doc_nums and scores equal the Dataset brute-force oracle
  (``brute_force_topk`` / ``boosted_topk``, score_micros ranking);
* the frame equals, by ``pd.testing.assert_frame_equal``, a frame built
  from the same (doc_num, score) arrays the way the engine used to build
  it — pandas assign plus a per-row ``doc_id`` loop (``_old_way`` below);
* column order and dtypes are explicit, including the empty result.

They also pin two fixes that ride on the same path: ``search_boosted`` keeps
an idf-0 clause (df == N/2) unless its boost is 0, and CLI
``--hydrate --snippet`` keeps the ``text`` column.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from oboyu_ray.config import BM25Config, BuildConfig
from oboyu_ray.pipelines.bm25_batch import (
    boosted_topk, brute_force_topk, score_micros, tokenize_queries,
)
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.query import QueryEngine
from oboyu_ray.sources.transcripts import write_synth_transcripts

CFG = BM25Config()
K = 8
QUERIES = ["python model", "token 検索", "データ 処理 分散", "です", "zzz_nohit"]
RESOLVED = ["doc_num", "score", "conv_id", "turn_idx", "doc_id"]
DTYPES = {"doc_num": np.int64, "score": np.float64, "conv_id": object,
          "turn_idx": np.int64, "doc_id": object, "rank": np.int64,
          "text": object, "snippet": object}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    base = tmp_path_factory.mktemp("result_frame")
    files = write_synth_transcripts(str(base / "transcripts"), n_convs=90,
                                    seed=5, convs_per_file=30)
    index_dir = str(base / "index")
    build_index(files, index_dir, BuildConfig(window_docs=64), files_per_part=1)
    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    return {"index_dir": index_dir,
            "docs_ds": ray.data.read_parquet(os.path.join(index_dir, "docs")),
            "stats": {k: stats[k] for k in ("N", "total_dl", "avgdl")}}


@pytest.fixture(scope="module")
def engine(built):
    eng = QueryEngine(built["index_dir"], num_shards=2)
    yield eng
    eng.close()


def _old_way(engine, docs, scores, hydrate=False, rank=None, resolve=True):
    """The result frame as the engine built it before the one-constructor
    ``_finish``: an eager typed empty frame, a (doc_num, score) frame,
    ``assign`` of rank / conv_id / turn_idx, then a per-row doc_id loop
    over the frame's columns, then hydration."""
    if len(docs):
        out = pd.DataFrame({"doc_num": docs, "score": scores})
    else:
        out = pd.DataFrame({"doc_num": pd.Series(dtype=np.int64),
                            "score": pd.Series(dtype=np.float64)})
    if rank is not None:
        out = out.assign(rank=rank)
    if not resolve:
        return out
    if len(out):
        conv, turn = engine.resolver.resolve(out["doc_num"].to_numpy())
        out = out.assign(conv_id=conv, turn_idx=turn)
        out["doc_id"] = [
            f"{c}:{t:08d}" for c, t in zip(out["conv_id"], out["turn_idx"])
        ]
    else:
        out = out.assign(conv_id=pd.Series(dtype=object),
                         turn_idx=pd.Series(dtype=np.int64),
                         doc_id=pd.Series(dtype=object))
    if hydrate and len(out):
        out = engine._hydrate(out)
    return out


def _check_contract(got, columns):
    assert list(got.columns) == columns
    for c in columns:
        assert got[c].dtype == DTYPES[c], (c, got[c].dtype)
    if "doc_id" in columns:
        assert got["doc_id"].tolist() == [
            f"{c}:{t:08d}" for c, t in zip(got["conv_id"], got["turn_idx"])
        ]


def _same_as_old(engine, got, **kw):
    """``got`` equals the old-way frame built from its own arrays."""
    ref = _old_way(engine, got["doc_num"].to_numpy(), got["score"].to_numpy(),
                   rank=got["rank"].to_numpy() if "rank" in got else None, **kw)
    pd.testing.assert_frame_equal(got, ref)


def _oracle(built, k, **kw):
    """query → (doc_nums, score_micros) from the brute-force top-k, with
    the same require_all / exclude / scope semantics as the engine."""
    queries = tokenize_queries(QUERIES, CFG)
    ex = kw.pop("exclude", None)
    if ex is not None:
        ex_terms = tokenize_queries([ex], CFG)[ex]
        kw["exclude"] = {q: ex_terms for q in queries}
    top = brute_force_topk(built["docs_ds"], queries, k=k, cfg=CFG,
                           id_col="doc_num", text_col="text",
                           stats=built["stats"], **kw)
    return {q: (top.loc[top.query_id == q, "doc_num"].tolist(),
                top.loc[top.query_id == q, "score_micros"].tolist())
            for q in QUERIES}


def _matches_oracle(got, expect):
    docs, micros = expect
    assert got["doc_num"].tolist() == docs
    assert score_micros(got["score"].to_numpy()).tolist() == micros


@pytest.mark.parametrize("opts", [
    {},
    {"require_all": True},
    {"exclude": "python"},
    {"scope": (40, 400)},
    {"scope": (300, 300)},   # empty interval → empty result
])
def test_search_and_search_terms_frames(built, engine, opts):
    expect = _oracle(built, K, **dict(opts))
    n_hits = 0
    for q in QUERIES:
        terms = engine.tokenizer.tokenize(q)
        excl = engine.tokenizer.tokenize(opts["exclude"]) if "exclude" in opts else None
        bare = engine.search_terms(terms, k=K, **{**opts, "exclude": excl})
        _check_contract(bare, ["doc_num", "score"])
        _matches_oracle(bare, expect[q])
        _same_as_old(engine, bare, resolve=False)

        got = engine.search(q, k=K, **opts)
        _check_contract(got, RESOLVED)
        _matches_oracle(got, expect[q])
        _same_as_old(engine, got)
        n_hits += len(got) > 0
    assert n_hits >= (0 if opts.get("scope") == (300, 300) else 2)


def test_empty_result_schema(engine):
    paged = ["doc_num", "score", "rank", "conv_id", "turn_idx", "doc_id"]
    for got, columns in (
        (engine.search("zzz_nohit", k=K), RESOLVED),
        (engine.search("zzz_nohit", k=K, hydrate=True), RESOLVED),
        (engine.search("python", k=0), RESOLVED),
        (engine.search_page("zzz_nohit", k=K, page=2), paged),
        (engine.search_page("python", k=K, page=10**4), paged),
        (engine.search_boosted("zzz_nohit", {}, k=K, resolve=True), RESOLVED),
    ):
        assert len(got) == 0
        _check_contract(got, columns)
        _same_as_old(engine, got)
    bare = engine.search_terms(["zzz_nohit"], k=K)
    _check_contract(bare, ["doc_num", "score"])
    _same_as_old(engine, bare, resolve=False)
    snip = engine.search("zzz_nohit", k=K, snippet=True)
    _check_contract(snip, RESOLVED + ["snippet"])


def test_hydrate_and_snippet_frames(engine):
    q = "python model"
    got = engine.search(q, k=K, hydrate=True)
    _check_contract(got, RESOLVED + ["text"])
    assert len(got) == K and got["text"].notna().all()
    _same_as_old(engine, got, hydrate=True)

    snip = engine.search(q, k=K, snippet=True, highlight=True)
    _check_contract(snip, RESOLVED + ["text", "snippet"])
    ref = engine.attach_snippets(
        _old_way(engine, snip["doc_num"].to_numpy(), snip["score"].to_numpy(),
                 hydrate=True),
        q, highlight=True,
    )
    pd.testing.assert_frame_equal(snip, ref)


def test_search_page_frames(built, engine):
    q = "python model"
    deep = _oracle(built, 4 * K)[q]
    pages = [engine.search_page(q, k=K, page=p) for p in range(4)]
    for p, got in enumerate(pages):
        _check_contract(got, ["doc_num", "score", "rank", "conv_id",
                              "turn_idx", "doc_id"])
        rows = slice(p * K, (p + 1) * K)
        _matches_oracle(got, (deep[0][rows], deep[1][rows]))
        assert got["rank"].tolist() == list(range(p * K + 1, p * K + 1 + len(got)))
        _same_as_old(engine, got)
    hyd = engine.search_page(q, k=K, page=1, hydrate=True, exclude="token")
    _check_contract(hyd, ["doc_num", "score", "rank", "conv_id", "turn_idx",
                          "doc_id", "text"])
    _same_as_old(engine, hyd, hydrate=True)


def test_search_boosted_frames(built, engine):
    boosts = {"python": 2.5, "token": 0.5}
    queries = ["python model", "token 検索", "python python token"]
    brute = boosted_topk(built["docs_ds"], queries, boosts, k=K, cfg=CFG,
                         id_col="doc_num", text_col="text")
    for q in queries:
        expect = (brute.loc[brute.query_id == q, "doc_num"].tolist(),
                  brute.loc[brute.query_id == q, "score_micros"].tolist())
        bare = engine.search_boosted(q, boosts, k=K)
        _check_contract(bare, ["doc_num", "score"])
        _matches_oracle(bare, expect)
        _same_as_old(engine, bare, resolve=False)
        for kw in ({"resolve": True}, {"hydrate": True}):
            got = engine.search_boosted(q, boosts, k=K, **kw)
            _check_contract(got, RESOLVED + (["text"] if "hydrate" in kw else []))
            _matches_oracle(got, expect)
            _same_as_old(engine, got, hydrate="hydrate" in kw)


# ------------------------------------------------------- idf-0 boosted clause

def _write_turns(path, convs):
    rows = [(c, t, text) for c, texts in convs.items() for t, text in enumerate(texts)]
    pq.write_table(pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], type=pa.int32()),
        "role": pa.array(["user"] * len(rows)),
        "text": pa.array([r[2] for r in rows]),
        "tool": pa.array([""] * len(rows)),
        "ts": pa.array([datetime.datetime(2025, 1, 1)] * len(rows),
                       type=pa.timestamp("us")),
    }), path)


def test_boosted_keeps_idf_zero_clause(tmp_path):
    """``alpha`` is in exactly half the docs (df == N/2 → idf 0).  Its
    clause weighs 0 but still makes its docs candidates, so
    ``boosts={}`` — and any non-zero boost on it — must equal plain
    search_terms; only a boost of 0 removes the clause.  The brute-force
    boosted_topk follows the same rule."""
    src = tmp_path / "turns.parquet"
    _write_turns(str(src), {
        "c0": ["alpha bravo", "alpha charlie", "alpha", "alpha alpha delta"],
        "c1": ["bravo", "charlie delta", "echo", "foxtrot bravo"],
    })
    index_dir = str(tmp_path / "index")
    build_index([str(src)], index_dir, BuildConfig(window_docs=64))
    eng = QueryEngine(index_dir, num_shards=1)
    try:
        assert eng.vocab.df(["alpha"]) == {"alpha": 4} and eng.stats["N"] == 8
        assert eng.term_weights(["alpha"]) == {"alpha": 0.0}
        plain = eng.search_terms(["alpha", "bravo"], k=10)
        assert len(plain) == 6 and (plain["score"] == 0.0).sum() == 3
        for boosts in ({}, {"alpha": 2.0}, {"bravo": 1.0}):
            got = eng.search_boosted("alpha bravo", boosts, k=10)
            pd.testing.assert_frame_equal(got, plain, check_exact=True)
        no_alpha = eng.search_boosted("alpha bravo", {"alpha": 0.0}, k=10)
        pd.testing.assert_frame_equal(
            no_alpha, eng.search_terms(["bravo"], k=10), check_exact=True)

        docs_ds = ray.data.read_parquet(os.path.join(index_dir, "docs"))
        brute_plain = brute_force_topk(
            docs_ds, {"q": ["alpha", "bravo"]}, k=10, cfg=CFG,
            id_col="doc_num", text_col="text")
        brute_boosted = boosted_topk(docs_ds, ["alpha bravo"], {}, k=10,
                                     cfg=CFG, id_col="doc_num", text_col="text")
        assert brute_boosted["doc_num"].tolist() == brute_plain["doc_num"].tolist()
        assert brute_boosted["doc_num"].tolist() == plain["doc_num"].tolist()
        assert (brute_boosted["score_micros"].tolist()
                == score_micros(plain["score"].to_numpy()).tolist())
    finally:
        eng.close()


# ------------------------------------------------------ CLI --hydrate --snippet

@pytest.mark.parametrize("hydrate", [False, True])
def test_cli_snippet_keeps_text_only_when_hydrate_asked(built, capsys, hydrate):
    from oboyu_ray.cli import cmd_query

    rc = cmd_query(argparse.Namespace(
        index_dir=built["index_dir"], q="python model", k=3, num_shards=1,
        hydrate=hydrate, snippet=True, num_cpus=None,
    ))
    assert rc == 0
    header = capsys.readouterr().out.splitlines()[0].split()
    assert "snippet" in header and "doc_id" in header
    assert ("text" in header) == hydrate
