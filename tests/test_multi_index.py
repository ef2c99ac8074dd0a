"""One ``QueryEngine`` over several member indexes is one logical index.

Two members with different build avgdls and disjoint conversation ranges
(the ``test_federated`` corpus split, positional builds), their monolith
(one build over all their files) and their ``merge_indexes`` output:

* every row of ``search_modes.MODES``, and plain search with exclude,
  require_all, scope, page, collapse and count, answers on
  ``QueryEngine([a, b])`` with the monolith's micro-scores and
  ``(conv_id, turn_idx)`` rows, and with the merged index's ``doc_num``s
  (the engine numbers members as ``merge_indexes`` does);
* CLI ``query --federate`` prints the monolith's rows;
* every refusal comes before any index data is opened or any pool spawns;
* an in-process ``IndexShard`` whose parts sit at a doc offset answers as
  the unshifted shard, shifted, and each part's bound scale keeps MaxScore
  equal to dense scoring.

Scores are compared as micro-scores, tie-aware: a row must carry the
reference's score for the same document, and the score vectors must match.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os

import numpy as np
import pandas as pd
import pytest
import ray

from oboyu_ray.config import BM25Config, BuildConfig
from oboyu_ray.fixedpoint import micros
from oboyu_ray.pipelines import search_modes
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.merge_index import merge_indexes, read_members
from oboyu_ray.pipelines.query import QueryEngine, VocabLookup, VocabUnion
from oboyu_ray.sources.transcripts import write_synth_transcripts
from oboyu_ray.stages.postings import get_tokenizer
from oboyu_ray.state.shards import IndexShard

K = 10
DEEP = 100_000  # deeper than every answer: the whole ranking
W = 256


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    base = tmp_path_factory.mktemp("multi")
    files_a = write_synth_transcripts(
        str(base / "ta"), n_convs=160, seed=21, convs_per_file=40
    )
    files_b = [
        f
        for f in write_synth_transcripts(
            str(base / "tb"), n_convs=290, seed=22, convs_per_file=30
        )
        if int(os.path.basename(f).split("-")[1]) >= 200
    ]
    cfg = BuildConfig(window_docs=W, store_positions=True)
    dirs = {name: str(base / name) for name in ("a", "b", "all", "merged")}
    build_index(files_a, dirs["a"], cfg, files_per_part=2)
    build_index(files_b, dirs["b"], cfg, files_per_part=2)
    build_index(files_a + files_b, dirs["all"], cfg, files_per_part=2)
    report = merge_indexes([dirs["a"], dirs["b"]], dirs["merged"])
    members = read_members([dirs["a"], dirs["b"]])
    # the monolith numbers b's docs right after a's; the engine and the
    # merge start them at a's window-rounded span
    span_a = max(s["doc_max"] + 1 for s in members[0].report["part_summaries"])
    off_b = members[1].doc_offset
    assert off_b % W == 0 and off_b > span_a, (off_b, span_a)
    return {**dirs, "report": report, "members": members,
            "span_a": span_a, "off_b": off_b, "base": base}


def _to_mono(built):
    """Engine doc number → the monolith's."""
    off, span = built["off_b"], built["span_a"]
    return lambda d: d if d < off else d - off + span


def _phrase(built, member: str) -> str:
    """The first two tokens of the first multi-token doc of ``member``."""
    import pyarrow.parquet as pq

    tok = get_tokenizer(BM25Config())
    docs = os.path.join(built[member], "docs")
    for f in sorted(os.listdir(docs)):
        for text in pq.read_table(os.path.join(docs, f), columns=["text"])["text"].to_pylist():
            toks = tok.tokenize(text or "")
            if len(toks) >= 2:
                return " ".join(toks[:2])
    raise AssertionError(f"no two-token doc in {member}")


def _cases(built):
    """label → (request fields, reference-numbering aware): every MODES row
    and the plain-search modifiers.  ``doc`` marks a field holding engine
    doc numbers (more_like's source, a scope), mapped for the monolith."""
    off = built["off_b"]
    phrase_b = _phrase(built, "b")
    near = phrase_b.split()
    scope = (100, off + 200)  # spans both members
    return {
        "plain": dict(q="python model"),
        "phrase": dict(q=phrase_b, modes={"phrase": True}),
        "prefix": dict(q="tok", modes={"prefix": True}),
        "near": dict(q=" ".join(near), modes={"near": 3}),
        "span_near": dict(q=phrase_b, modes={"span_near": 2}),
        "fuzzy": dict(q="tokn", modes={"fuzzy": 1}),
        "regex": dict(q=None, modes={"regex": "to.*"}),
        "wildcard": dict(q=None, modes={"wildcard": "t*n"}),
        "more_like": dict(q=None, modes={"more_like": off + 3}, doc="more_like"),
        "bool_expr": dict(q=None, modes={"bool_expr": "(python OR model) NOT token"}),
        "synonyms": dict(q="python 検索", modes={"synonyms": {
            "python": ["model"], "検索": ["インデックス", "データ"]}}),
        "dismax": dict(q="python model token", modes={"dismax": 0.3}),
        "boosts": dict(q="python model", modes={"boosts": {"python": 2.5, "です": 0.5}}),
        "plain exclude": dict(q="python model", exclude="token"),
        "plain require_all": dict(q="python model", require_all=True),
        "plain scope": dict(q="python model です", scope=scope, doc="scope"),
        "phrase scope": dict(q=phrase_b, modes={"phrase": True}, scope=scope, doc="scope"),
        "plain page": dict(q="python model", page=1),
        "plain collapse": dict(q="python model です", collapse=True),
        "plain count": dict(q="python model", count=True),
        "plain count and not": dict(q="python model", count=True, require_all=True,
                                    exclude="token"),
        "plain count scope": dict(q="python token", count=True, scope=scope, doc="scope"),
        "plain hydrate": dict(q="検索 インデックス", hydrate=True),
        "fuzzy hydrate": dict(q="pythom", modes={"fuzzy": 1}, hydrate=True),
    }


LABELS = [
    "plain", "phrase", "prefix", "near", "span_near", "fuzzy", "regex",
    "wildcard", "more_like", "bool_expr", "synonyms", "dismax", "boosts",
    "plain exclude", "plain require_all", "plain scope", "phrase scope",
    "plain page", "plain collapse", "plain count", "plain count and not",
    "plain count scope", "plain hydrate", "fuzzy hydrate",
]


def _request(case: dict, to_ref=lambda d: d) -> search_modes.Request:
    fields = {key: v for key, v in case.items() if key != "doc"}
    fields["modes"] = dict(fields.get("modes", {}))
    if case.get("doc") == "more_like":
        fields["modes"]["more_like"] = str(to_ref(fields["modes"]["more_like"]))
    if case.get("doc") == "scope":
        lo, hi = fields["scope"]
        fields["scope"] = f"{to_ref(lo)}:{to_ref(hi)}"
    req = search_modes.Request("cli", k=K, **fields)
    search_modes.validate(req)
    return req


def _answer(engine, req, k=K):
    return search_modes.run(engine, dataclasses.replace(req, k=k))


def _deep(engine, req):
    """The whole ranking ``req`` draws from: the same request at depth
    ``DEEP`` (a page draws from the plain ranking)."""
    return search_modes.run(engine, dataclasses.replace(req, k=DEEP, page=0))


def _rows(out):
    return zip(out["doc_num"].tolist(), out["conv_id"], out["turn_idx"].tolist(),
               micros(out["score"].to_numpy()).tolist(),
               out["text"] if "text" in out.columns else [None] * len(out))


@pytest.fixture(scope="class")
def engines(built):
    multi = QueryEngine([built["a"], built["b"]], num_shards=1)
    mono = QueryEngine(built["all"], num_shards=1)
    merged = QueryEngine(built["merged"], num_shards=1)
    yield {"multi": multi, "mono": mono, "merged": merged}
    for e in (multi, mono, merged):
        e.close()


class TestOneLogicalIndex:
    def test_members_follow_merge_numbering_and_statistics(self, built, engines):
        multi, mono = engines["multi"], engines["mono"]
        assert [m.doc_offset for m in multi.members] == [
            m["doc_offset"] for m in built["report"]["merged_from"]]
        assert len(multi.actors) == 2  # num_shards is per member
        for key in ("N", "total_dl"):
            assert multi.stats[key] == mono.stats[key]
        assert multi.stats["avgdl"] == mono.stats["avgdl"]
        # the bound rescale is live: the members' build avgdls differ
        assert len({m.build_avgdl for m in multi.members}) == 2
        assert all(m.build_avgdl != multi.stats["avgdl"] for m in multi.members)

    @pytest.mark.parametrize("label", LABELS)
    def test_mode_equals_monolith_and_merge(self, built, engines, label):
        case = _cases(built)[label]
        multi, mono, merged = engines["multi"], engines["mono"], engines["merged"]
        req = _request(case)
        mono_req = _request(case, _to_mono(built))
        got = _answer(multi, req)
        if case.get("count"):
            assert got == _answer(mono, mono_req) == _answer(merged, req)
            assert got > 0, label
            return
        assert len(got) > 0, label
        for ref, ref_req, key in ((mono, mono_req, "conv"), (merged, req, "doc")):
            top = _answer(ref, ref_req)
            assert len(got) == len(top), (label, key)
            np.testing.assert_array_equal(
                micros(got["score"].to_numpy()), micros(top["score"].to_numpy()),
                err_msg=f"{label} vs {key}")
            deep = {(c, t) if key == "conv" else d: (c, t, m, x)
                    for d, c, t, m, x in _rows(_deep(ref, ref_req))}
            for d, c, t, m, x in _rows(got):
                assert deep[(c, t) if key == "conv" else d] == (c, t, m, x), (label, key, d)

    def test_every_mode_row_is_covered(self, built):
        assert list(_cases(built)) == LABELS
        assert {label.split()[0] for label in LABELS} == {
            m.name for m in search_modes.MODES}

    def test_explain_finds_docs_in_windows_shared_by_two_parts(self, engines):
        """Each member's parts share one shard; the first doc of a later
        part sits in a window its predecessor also covers."""
        multi = engines["multi"]
        firsts = [m.doc_offset + s["doc_min"] for m in multi.members
                  for s in m.report["part_summaries"][1:]]
        assert any(d % W for d in firsts)
        for d in firsts:
            terms = multi._hydrate(pd.DataFrame({"doc_num": [d]}))["text"][0].split()
            q = " ".join(terms[:4])
            rows = multi.explain(q, d)
            assert len(rows), (d, q)
            hit = multi.search(q, k=DEEP)
            score = hit.loc[hit["doc_num"] == d, "score"]
            assert micros(rows["contribution"].sum()) == micros(score.iloc[0]), d

    def test_hydrate_routes_each_doc_to_its_member_part(self, engines):
        multi, mono = engines["multi"], engines["mono"]
        off = multi.members[1].doc_offset
        docs = multi.search("python model です", k=DEEP)
        pick = pd.concat([docs[docs["doc_num"] < off].head(6),
                          docs[docs["doc_num"] >= off].head(6)])
        assert len(pick) == 12
        got = multi._hydrate(pick)
        ref = mono.search("python model です", k=DEEP, hydrate=True)
        text = dict(zip(zip(ref["conv_id"], ref["turn_idx"]), ref["text"]))
        for c, t, x in zip(got["conv_id"], got["turn_idx"], got["text"]):
            assert x and x == text[(c, t)]


def _cli_rows(capsys, **ns) -> list:
    from oboyu_ray.cli import cmd_query

    base = dict(k=5, num_shards=1, hydrate=False, num_cpus=None)
    assert cmd_query(argparse.Namespace(**{**base, **ns})) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) > 1, ns
    # every column but the first (doc_num, numbered per index)
    return [line.split()[1:] for line in lines]


def test_cli_federate_prints_the_monolith_rows(built, capsys):
    """``--federate`` serves the modes it used to refuse: each prints the
    monolith's rows (doc_num aside, which counts from each index's own
    numbering)."""
    to_mono = _to_mono(built)
    lo, hi = 100, built["off_b"] + 200
    phrase = _phrase(built, "b")
    for extra, mono_extra in [
        (dict(q=phrase, phrase=True), {}),
        (dict(q="python model です", scope=f"{lo}:{hi}"),
         dict(scope=f"{to_mono(lo)}:{to_mono(hi)}")),
        (dict(q="python model", page=1), {}),
        (dict(q="tokn", fuzzy=1, hydrate=True), {}),
    ]:
        fed = _cli_rows(capsys, index_dir=built["a"], federate=built["b"], **extra)
        mono = _cli_rows(capsys, index_dir=built["all"], **{**extra, **mono_extra})
        assert fed == mono, extra


def _stand_in(built, tmp_path, name, edit=lambda rep: None):
    """A member with only its build report (edited) and stats: no index
    data, so opening any of it would raise FileNotFoundError."""
    d = tmp_path / name
    d.mkdir()
    rep = json.load(open(os.path.join(built["a"], "build_report.json")))
    edit(rep)
    json.dump(rep, open(d / "build_report.json", "w"))
    json.dump(json.load(open(os.path.join(built["a"], "stats.json"))),
              open(d / "stats.json", "w"))
    return str(d)


def _no_pool(self):
    raise AssertionError("a shard pool was spawned")


def test_engine_refuses_before_opening_data_or_spawning(built, tmp_path, monkeypatch):
    monkeypatch.setattr(QueryEngine, "_spawn_pool", _no_pool)
    same = _stand_in(built, tmp_path, "same")
    english = _stand_in(built, tmp_path, "en",
                        lambda rep: rep["config"]["bm25"].update(language="en"))
    with pytest.raises(ValueError, match="disagree on bm25"):
        QueryEngine([same, english], num_shards=1)
    wide = _stand_in(built, tmp_path, "w512",
                     lambda rep: rep["config"].update(window_docs=512))
    with pytest.raises(ValueError, match="disagree on window_docs"):
        QueryEngine([same, wide], num_shards=1)
    total = int(ray.cluster_resources()["CPU"])
    n_parts = len(json.load(open(os.path.join(same, "build_report.json")))["parts"])
    assert n_parts >= 2
    with pytest.raises(ValueError, match="need .* CPUs but the cluster has"):
        QueryEngine([same] * (total // 2 + 1), num_shards=2)


def _dense_topk(shard, weights, k):
    """Exact top-k by decoding every posting of every term: no bounds."""
    acc = {}
    for part in shard.parts:
        for t, w in weights.items():
            if t in part.term_slices:
                docs, tf, dl = part.decode_range(*part.term_slices[t])
                for d, c in zip(docs.tolist(), (w * shard._tfnorm(tf, dl)).tolist()):
                    acc[d] = acc.get(d, 0.0) + c
    top = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return (np.array([d for d, _ in top], dtype=np.int64),
            np.array([s for _, s in top], dtype=np.float64))


def test_shard_parts_at_a_doc_offset_answer_shifted(built):
    """In process, no actors: parts of both members at offset 3·W answer
    exactly as at offset 0, shifted.  The second part carries the other
    member's build avgdl, so each part rescales its own bounds against the
    query avgdl — the summed one, and then one far from both build avgdls
    (bounds used as stored would prune true hits there) — and MaxScore
    still equals dense scoring."""
    a, b = built["members"]
    pa, pb = int(a.report["parts"][0]), int(b.report["parts"][-1])
    shift = 3 * W

    def shard(off):
        return IndexShard(None, [(a.dir, pa, off, a.build_avgdl),
                                 (b.dir, pb, b.doc_offset + off, b.build_avgdl)], W)

    n = int(a.stats["N"]) + int(b.stats["N"])
    vocab = VocabUnion([VocabLookup(os.path.join(m.dir, "vocab")) for m in (a, b)])
    tok = get_tokenizer(BM25Config())

    def weights(text):
        terms = tok.tokenize(text)
        return QueryEngine._weights_from_dfs(terms, vocab.df(terms), n)

    def same(x, y, label):
        assert x[0].tolist() == (y[0] + shift).tolist(), label
        assert np.array_equal(x[1], y[1]), label

    lo, hi = 50, b.doc_offset + 150
    phrase = tok.tokenize(_phrase(built, "b"))
    pw = weights(" ".join(phrase))
    queries = ["python model", "です token", "検索 インデックス データ",
               "compress 圧縮 decode", "python です model token"]
    ref, got = shard(0), shard(shift)
    summed = (int(a.stats["total_dl"]) + int(b.stats["total_dl"])) / n
    for avgdl in (summed, 4 * summed):
        for s in (ref, got):
            s.configure(1.2, 0.75, avgdl)
        assert got.parts[0].bscale_hi != got.parts[1].bscale_hi
        for q in queries:
            w = weights(q)
            for k in (3, 10, 40):
                same(got.query(w, k), ref.query(w, k), (q, k))
                same(got.query_all(w, k), ref.query_all(w, k), (q, k, "and"))
                same(got.query(w, k, exclude_terms=["token"]),
                     ref.query(w, k, exclude_terms=["token"]), (q, k, "not"))
                same(got.query(w, k, scope=(lo + shift, hi + shift)),
                     ref.query(w, k, scope=(lo, hi)), (q, k, "scope"))
                dense = _dense_topk(got, w, k)
                pruned = got.query(w, k)
                assert pruned[0].tolist() == dense[0].tolist(), (avgdl, q, k)
                np.testing.assert_allclose(pruned[1], dense[1], rtol=1e-9, atol=1e-12)
        for k in (3, 10):
            hit = got.query_phrase(phrase, pw, k)
            assert len(hit[0])
            same(hit, ref.query_phrase(phrase, pw, k), ("phrase", k))
            same(got.query_phrase(phrase, pw, k, scope=(lo + shift, hi + shift)),
                 ref.query_phrase(phrase, pw, k, scope=(lo, hi)), ("phrase scope", k))
    assert got.counters["maxscore_parts"] > 0 and got.counters["windows_pruned"] > 0


def test_hydrate_reads_every_part_covering_a_doc(tmp_path):
    """Doc numbers follow one global conversation sort, while parts are
    groups of input files.  Two files that interleave every conversation,
    one file per part, give two parts whose [doc_min, doc_max] ranges
    overlap almost entirely (one holds the even turns, the other the odd
    ones).  Hydration must read every part that covers a doc, not only the
    last one whose doc_min is at or below it."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = {0: [], 1: []}
    for ci in range(20):
        for t in range(6):
            rows[t % 2].append((f"c{ci:04d}", t, f"doc {ci} turn {t} 検索 word{ci % 5}",
                                datetime.datetime(2025, 1, 1, 0, ci, t)))
    files = []
    for half, rs in rows.items():
        path = str(tmp_path / f"half{half}.parquet")
        pq.write_table(pa.table({
            "conv_id": pa.array([r[0] for r in rs]),
            "turn_idx": pa.array([r[1] for r in rs], type=pa.int32()),
            "role": pa.array(["user"] * len(rs)),
            "text": pa.array([r[2] for r in rs]),
            "tool": pa.array([""] * len(rs)),
            "ts": pa.array([r[3] for r in rs], type=pa.timestamp("us")),
        }), path)
        files.append(path)
    index_dir = str(tmp_path / "idx")
    report = build_index(files, index_dir, BuildConfig(window_docs=64), files_per_part=1)
    spans = sorted((s["doc_min"], s["doc_max"]) for s in report["part_summaries"])
    assert len(spans) == 2 and spans[1][0] <= spans[0][1], spans  # overlap

    eng = QueryEngine(index_dir, num_shards=1)
    try:
        n = int(report["n_docs"])
        got = eng._hydrate(pd.DataFrame({"doc_num": np.arange(n, dtype=np.int64)}))
        assert got["text"].notna().all(), got[got["text"].isna()]
        conv, turn = eng.resolver.resolve(np.arange(n, dtype=np.int64))
        for c, t, text in zip(conv, turn.tolist(), got["text"]):
            assert text.startswith(f"doc {int(c[1:])} turn {t} "), (c, t, text)
        mlt = eng.more_like_this(2, k=5, min_df=1)
        assert len(mlt) and 2 not in mlt["doc_num"].tolist()
    finally:
        eng.close()
