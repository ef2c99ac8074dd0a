"""Physical index merge (merge_indexes): the merged monolith answers every
query mode identically to a fresh monolithic build over the concatenated
corpus — scores bit-equal, no re-tokenization, resumable/no-op re-runs.

Reuses the federated equality harness (same member/monolith corpus split);
the reference's only analog is a full rebuild (indexing_pipeline.py:334-349).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from oboyu_ray.config import BuildConfig
from oboyu_ray.fixedpoint import micros
from oboyu_ray.pipelines.build_index import build_index
from oboyu_ray.pipelines.merge_index import merge_indexes
from oboyu_ray.pipelines.query import QueryEngine
from oboyu_ray.sources.transcripts import write_synth_transcripts
from oboyu_ray.state.fuzzy_index import build_fuzzy_sidecar

QUERIES = [
    "検索 インデックス",
    "python model",
    "です",            # hot term, negative idf — min-bound path
    "compress 圧縮 decode",
    "token",
    "zzz_nohit",
]


def _tree_checksums(d: str) -> dict:
    out = {}
    for root, _, files in os.walk(d):
        for f in files:
            if f.endswith(".parquet") or f == "stats.json":
                p = os.path.join(root, f)
                with open(p, "rb") as fh:
                    out[os.path.relpath(p, d)] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    base = tmp_path_factory.mktemp("merge")
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
    # positional builds so the phrase/NEAR paths are exercised end-to-end;
    # different member sizes → different build avgdls, so the re-baked
    # block-max bounds actually change values during the merge
    cfg = BuildConfig(window_docs=256, store_positions=True)
    build_index(files_a, str(base / "idx_a"), cfg, files_per_part=2)
    build_index(files_b, str(base / "idx_b"), cfg, files_per_part=2)
    build_index(files_a + files_b, str(base / "idx_all"), cfg, files_per_part=2)
    # member sidecars → the merge rebuilds one over the merged vocabulary
    build_fuzzy_sidecar(str(base / "idx_a"), max_edits=1, n_buckets=8)
    build_fuzzy_sidecar(str(base / "idx_b"), max_edits=1, n_buckets=8)

    # members passed in REVERSE order: merge must auto-order by conv range
    report1 = merge_indexes(
        [str(base / "idx_b"), str(base / "idx_a")], str(base / "idx_m")
    )
    sums1 = _tree_checksums(str(base / "idx_m"))
    # second run = pure manifest replay (resume/no-op path), before any
    # engine holds CPUs
    report2 = merge_indexes(
        [str(base / "idx_b"), str(base / "idx_a")], str(base / "idx_m")
    )
    sums2 = _tree_checksums(str(base / "idx_m"))

    mono = QueryEngine(str(base / "idx_all"), num_shards=1)
    merged = QueryEngine(str(base / "idx_m"), num_shards=1)
    yield {
        "mono": mono, "merged": merged, "base": base,
        "report1": report1, "report2": report2,
        "sums1": sums1, "sums2": sums2,
    }
    merged.close()
    mono.close()


def test_merged_stats_equal_monolith(setup):
    mono, merged = setup["mono"], setup["merged"]
    assert merged.stats["N"] == mono.stats["N"]
    assert merged.stats["total_dl"] == mono.stats["total_dl"]
    assert merged.stats["avgdl"] == mono.stats["avgdl"]  # same ints divided
    assert merged.stats["n_terms"] == mono.stats["n_terms"]
    # a real monolith: stored bounds are native to the merged avgdl
    assert merged.build_avgdl == merged.stats["avgdl"]


def _score_map(eng, q, deep_k=500):
    deep = eng.search(q, k=deep_k)
    convs, turns = eng.resolver.resolve(deep["doc_num"].to_numpy())
    sm = micros(deep["score"].to_numpy())
    return {(c, int(t)): int(s) for c, t, s in zip(convs, turns.tolist(), sm)}, sm


def test_merged_scores_match_monolith(setup):
    mono, merged = setup["mono"], setup["merged"]
    k = 12
    nonempty = 0
    for q in QUERIES:
        ref, ref_scores = _score_map(mono, q)
        got = merged.search(q, k=k)
        if len(got) == 0:
            assert len(ref) == 0, q
            continue
        nonempty += 1
        got_scores = micros(got["score"].to_numpy())
        np.testing.assert_array_equal(
            got_scores, np.sort(ref_scores)[::-1][: len(got)], err_msg=q
        )
        convs, turns = merged.resolver.resolve(got["doc_num"].to_numpy())
        for c, t, s in zip(convs, turns.tolist(), got_scores):
            assert ref[(c, int(t))] == int(s), (q, c, t)
    assert nonempty >= 4


def test_merged_and_not_scope_paths(setup):
    mono, merged = setup["mono"], setup["merged"]
    for kwargs in [dict(require_all=True), dict(exclude="です")]:
        for q in ["python model", "検索 インデックス"]:
            mono_r = mono.search(q, k=500, **kwargs)
            got = merged.search(q, k=12, **kwargs)
            np.testing.assert_array_equal(
                micros(got["score"].to_numpy()),
                micros(mono_r["score"].to_numpy())[: len(got)],
                err_msg=str((q, kwargs)),
            )


def test_merged_phrase_near_prefix_fuzzy_match_monolith(setup):
    mono, merged = setup["mono"], setup["merged"]
    k = 12
    # harvest a real bigram from the corpus so phrase/NEAR actually hit
    docs0 = sorted(os.listdir(os.path.join(setup["base"], "idx_all", "docs")))[0]
    t = pq.read_table(
        os.path.join(setup["base"], "idx_all", "docs", docs0), columns=["text"]
    )
    toks = []
    for row in t.column("text").to_pylist():
        toks = mono.tokenizer.tokenize(row)
        if len(toks) >= 2:
            break
    assert len(toks) >= 2
    phrase = f"{toks[0]} {toks[1]}"

    pairs = [
        ("phrase", lambda e: e.search_phrase(phrase, k=k)),
        ("near", lambda e: e.search_near(toks[0], toks[1], window=4, k=k)),
        ("prefix", lambda e: e.search_prefix("tok", k=k, max_terms=100000)),
        ("fuzzy", lambda e: e.search_fuzzy("tokn", max_edits=1, k=k,
                                           max_terms=100000)),
        ("span_near", lambda e: e.search_span_near(phrase, window=3, k=k)),
        ("dismax", lambda e: e.search_dismax(phrase, k=k, tiebreak=0.3)),
        ("boosted", lambda e: e.search_boosted(
            phrase, {toks[0]: 2.0}, k=k)),
    ]
    hits = 0
    for name, fn in pairs:
        a, b = fn(mono), fn(merged)
        assert len(a) == len(b), name
        if len(a):
            hits += 1
            np.testing.assert_array_equal(
                micros(b["score"].to_numpy()), micros(a["score"].to_numpy()),
                err_msg=name,
            )
            ca, ta = mono.resolver.resolve(a["doc_num"].to_numpy())
            cb, tb = merged.resolver.resolve(b["doc_num"].to_numpy())
            assert list(zip(ca, ta.tolist())) == list(zip(cb, tb.tolist())), name
    assert hits >= 3
    # total-hit counts agree too (one int per shard, merged-index doc
    # numbering has window-multiple gaps — counts must not see them)
    for ra in (False, True):
        assert mono.count_matches(phrase, require_all=ra) == \
            merged.count_matches(phrase, require_all=ra), ra


def test_merged_df_equals_monolith(setup):
    mono, merged = setup["mono"], setup["merged"]
    # a vocabulary sample: every query term plus a prefix expansion
    terms = sorted(
        set(sum((q.split() for q in QUERIES), []))
        | set(mono.vocab.df_prefix("tok", max_terms=100000))
    )
    assert mono.vocab.df(terms) == merged.vocab.df(terms)
    assert merged.vocab.n_terms == mono.vocab.n_terms


def test_merge_rerun_is_noop(setup):
    assert setup["sums1"] == setup["sums2"]
    assert setup["report1"]["parts"] == setup["report2"]["parts"]
    assert setup["report1"]["stats"] == setup["report2"]["stats"]
    # sidecar was rebuilt over the merged vocabulary
    man = json.load(
        open(os.path.join(setup["base"], "idx_m", "fuzzy_fastss", "manifest.json"))
    )
    assert man["n_terms"] == setup["report1"]["n_terms"]


def test_cli_merge_smoke(setup, capsys):
    """`cli merge` plumbs through to merge_indexes; re-running over the
    already-merged out dir is a manifest replay (cheap under the test
    session's CPU budget)."""
    import argparse

    from oboyu_ray.cli import cmd_merge

    base = setup["base"]
    rc = cmd_merge(argparse.Namespace(
        members=[str(base / "idx_a"), str(base / "idx_b")],
        out_dir=str(base / "idx_m"), vocab_buckets=None, sidecar="auto",
        num_cpus=None,
    ))
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["n_docs"] == setup["report1"]["n_docs"]
    assert out["n_terms"] == setup["report1"]["n_terms"]


def test_merged_index_passes_integrity_check(setup):
    """The CheckIndex analog must pass a MERGED index clean — merged doc
    numbering has window-multiple gaps between members and a rebuilt fuzzy
    sidecar, both shapes the checker has to accept as consistent."""
    from oboyu_ray.pipelines.check_index import check_index

    report = check_index(str(setup["base"] / "idx_m"), sample_terms=16)
    assert report["ok"], report


def test_merge_validation_raises(setup):
    base = setup["base"]
    # overlapping conversation ranges (idx_all contains idx_a's convs)
    with pytest.raises(ValueError, match="overlap"):
        merge_indexes(
            [str(base / "idx_a"), str(base / "idx_all")], str(base / "idx_bad")
        )
    # out_dir must not be a member
    with pytest.raises(ValueError, match="out_dir"):
        merge_indexes([str(base / "idx_a")], str(base / "idx_a"))
    # a blocks-only member (missing raw postings) is refused BY NAME before
    # any output is written — not a FileNotFoundError mid-merge
    import shutil as _shutil

    degraded = str(base / "idx_nopost")
    _shutil.copytree(str(base / "idx_b"), degraded)
    _shutil.rmtree(os.path.join(degraded, "postings"))
    with pytest.raises(ValueError, match="missing raw postings"):
        merge_indexes([str(base / "idx_a"), degraded], str(base / "idx_bad3"))
    # refusal happened before any part output was written
    assert not os.path.isdir(os.path.join(base, "idx_bad3", "blocks"))
    # config disagreement (window_docs) detected before any output
    with pytest.raises(ValueError, match="window_docs"):
        fake = str(base / "idx_cfg")
        os.makedirs(fake, exist_ok=True)
        rep = json.load(open(os.path.join(base, "idx_a", "build_report.json")))
        rep["config"]["window_docs"] = 512
        json.dump(rep, open(os.path.join(fake, "build_report.json"), "w"))
        json.dump(
            json.load(open(os.path.join(base, "idx_a", "stats.json"))),
            open(os.path.join(fake, "stats.json"), "w"),
        )
        merge_indexes([str(base / "idx_a"), fake], str(base / "idx_bad2"))


def _part_sources(setup):
    """(merged part id, member dir, member part id, doc offset), in the
    merge's own numbering: members in merged order, parts in member order."""
    out, dst = [], 0
    for m in setup["report1"]["merged_from"]:
        rep = json.load(open(os.path.join(m["dir"], "build_report.json")))
        for p in rep["parts"]:
            out.append((dst, m["dir"], int(p), int(m["doc_offset"])))
            dst += 1
    return out


def test_merged_block_payloads_are_the_members_bytes(setup):
    """Offsets are window multiples, so the build's encoder over renumbered
    postings writes every member payload unchanged and only shifts win."""
    W = setup["report1"]["config"]["window_docs"]
    out_dir = os.path.join(setup["base"], "idx_m")
    sources = _part_sources(setup)
    assert len(sources) == setup["report1"]["n_parts"]
    for dst, member, src, off in sources:
        assert off % W == 0
        got = pq.read_table(os.path.join(out_dir, "blocks", f"blocks-{dst:05d}.parquet"))
        ref = pq.read_table(os.path.join(member, "blocks", f"blocks-{src:05d}.parquet"))
        assert got.num_rows == ref.num_rows > 0
        for col in ("term", "n", "docs", "tfs", "pos"):
            assert got.column(col).equals(ref.column(col)), (dst, col)
        np.testing.assert_array_equal(
            got.column("win").to_numpy(), ref.column("win").to_numpy() + off // W
        )


def test_merged_payload_bytes_sum_over_members(setup):
    members = [
        json.load(open(os.path.join(m["dir"], "build_report.json")))
        for m in setup["report1"]["merged_from"]
    ]
    assert setup["report1"]["payload_bytes"] == sum(r["payload_bytes"] for r in members)
    assert setup["report1"]["total_postings"] == sum(r["total_postings"] for r in members)


def test_merge_is_identical_at_any_job_width(setup, monkeypatch):
    """The merge's jobs (renumber, re-bucket, vocabulary, blocks, conv map)
    run one block per cluster CPU.  One block, or five, must write the same
    bytes as the fixture's merge."""
    from oboyu_ray.pipelines import build_index as bi

    members = [str(setup["base"] / "idx_b"), str(setup["base"] / "idx_a")]
    dirs = ("docs", "postings", "dls", "blocks", "vocab", "vocab_partials", "conv_map")

    def tables(d: str) -> dict:
        return {k: v for k, v in _tree_checksums(d).items()
                if k == "stats.json" or k.split(os.sep)[0] in dirs}

    want = tables(str(setup["base"] / "idx_m"))
    assert {k.split(os.sep)[0] for k in want} == {"stats.json", *dirs}
    for cpus in (1, 5):
        monkeypatch.setattr(bi, "_cluster_cpus", lambda n=cpus: n)
        out = str(setup["base"] / f"idx_m_width{cpus}")
        merge_indexes(members, out, build_sidecar=False)
        assert tables(out) == want, cpus
