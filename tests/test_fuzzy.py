"""Fuzzy (edit-distance) retrieval: lev_at_most conformance + the driver
query vs its DuckDB oracle (the same levenshtein() both sides)."""

from __future__ import annotations

import itertools
import random

import duckdb
import numpy as np
import pytest

from oboyu_ray.pipelines.bm25_batch import lev_at_most


def _lev_ref(a: str, b: str) -> int:
    """Textbook full-matrix Levenshtein over CODEPOINTS (the reference for
    the banded early-exit implementation)."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[len(b)]


def test_lev_at_most_matches_duckdb_levenshtein():
    """Property check on ASCII words: the banded-DP threshold test agrees
    with DuckDB's levenshtein() for every (pair, d).  ASCII only because
    DuckDB's levenshtein counts BYTES, not codepoints ('c' vs '検索' → 6);
    the documents vocabulary the fuzzy oracle runs over is pure ASCII at
    every sf (verified), so byte == codepoint there and the oracle is exact.
    Multibyte conformance is pinned against the codepoint reference DP in
    test_lev_at_most_multibyte instead."""
    rng = random.Random(7)
    alpha = "abcde"
    words = [
        "".join(rng.choice(alpha) for _ in range(rng.randint(0, 7)))
        for _ in range(80)
    ] + [""]
    con = duckdb.connect()
    for a, b in itertools.combinations(words, 2):
        ref = con.execute("select levenshtein(?, ?)", [a, b]).fetchone()[0]
        for d in (0, 1, 2, 3):
            assert lev_at_most(a, b, d) == (ref <= d), (a, b, d, ref)
        assert lev_at_most(b, a, 2) == (ref <= 2), (a, b, ref)  # symmetry


def test_lev_at_most_multibyte():
    """Codepoint (not byte) semantics on multibyte text, vs the reference
    full-matrix DP."""
    words = ["検索", "検素", "索検", "インデックス", "インデクス", "インデックスエンジン", "c", ""]
    for a, b in itertools.combinations(words, 2):
        ref = _lev_ref(a, b)
        for d in (0, 1, 2, 3):
            assert lev_at_most(a, b, d) == (ref <= d), (a, b, d, ref)
    assert lev_at_most("検索", "検素", 1)  # one codepoint substitution


def test_lev_at_most_edges():
    assert lev_at_most("", "", 0)
    assert lev_at_most("", "ab", 2) and not lev_at_most("", "ab", 1)
    assert lev_at_most("abc", "abc", 0)
    assert not lev_at_most("abcdef", "abc", 2)
    # plain Levenshtein: a transposition costs 2, not 1 (no Damerau)
    assert not lev_at_most("tabel", "table", 1)
    assert lev_at_most("tabel", "table", 2)


def test_fuzzy_vocab_packed_matches_mask():
    """The pre-packed FuzzyVocab (zero-copy per-length views) must return
    exactly the terms fuzzy_mask flags, for d=1 and the d=2 fallback."""
    from oboyu_ray.functions.querylang import FuzzyVocab, fuzzy_mask

    rng = random.Random(23)
    words = [
        "".join(rng.choice("abcd") for _ in range(rng.randint(1, 8)))
        for _ in range(400)
    ] + ["検索", "検素", "インデックス"]
    fv = FuzzyVocab(words)
    for q in ["abc", "aaa", "dcba", "検索", "インデクス"]:
        for d in (1, 2):
            got = sorted(int(i) for i in fv.candidates(q, d))
            exp = sorted(np.flatnonzero(fuzzy_mask(words, q, d)).tolist())
            assert got == exp, (q, d)


def test_fuzzy_mask_matches_banded_dp():
    """The vectorized d=1 prefix+suffix decomposition must agree with the
    banded DP on random words (incl. multibyte and adversarial repeats);
    d=2 exercises the fallback path."""
    from oboyu_ray.functions.querylang import fuzzy_mask

    rng = random.Random(13)
    words = [
        "".join(rng.choice("abcde") for _ in range(rng.randint(1, 9)))
        for _ in range(600)
    ] + ["検索", "検素", "索検", "インデックス", "インデクス", "aaaa", "aaab", "baaa", "aba", "ab"]
    queries = ["abcd", "aaa", "ab", "検索", "インデックス", "e", "abcde"]
    for q in queries:
        for d in (1, 2):
            m = fuzzy_mask(words, q, d)
            ref = [lev_at_most(w, q, d) for w in words]
            assert m.tolist() == ref, (q, d)


@pytest.mark.parametrize("sf_dir", ["/root/testdata/sf0.001"])
def test_fuzzy_topk_matches_duckdb_oracle(sf_dir):
    """The registered driver query equals its oracle SQL row-for-row."""
    from oboyu_ray.pipelines.entry_queries import _sql_fuzzy_topk, q_fuzzy_topk

    got = (
        q_fuzzy_topk(sf_dir)
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        "create view documents as select * from "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    exp = (
        con.execute(_sql_fuzzy_topk())
        .df()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert got.shape == exp.shape and len(got) > 0
    cols = ["query_id", "doc_id", "score_micros", "rank"]
    assert (got[cols].values == exp[cols].values).all()
    # the no-hit spec must expand to nothing
    assert not (got["query_id"] == "zzznohit~1").any()


def test_sidecar_single_shared_variant_run_spans_row_groups(
    tmp_path, monkeypatch
):
    """Regression (r5 ADVICE): a hub variant whose hash run spans several
    row groups must return EVERY indexed term under it, even when the
    query shares exactly ONE deletion variant with each match (a d=1
    substitution pair shares only the doubly-deleted string, so one miss
    is unrecoverable).  The old bisect_right start picked the LAST group
    whose min <= h and silently skipped earlier rows of the run."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import oboyu_ray.state.fuzzy_index as fz

    # terms "a{X}bc": U1 intersection with U1("abc") is exactly {"abc"} —
    # 300 of them hash-collide on the same variant row, a 300-row run
    hubs = [f"a{chr(c)}bc" for c in range(0x100, 0x100 + 300)]
    # filler with hashes scattered above/below so the run neither starts
    # at group 0 nor ends the file
    filler = [f"filler{i:04d}" for i in range(500)]
    vocab = hubs + filler
    idx = tmp_path / "idx"
    (idx / "vocab").mkdir(parents=True)
    pq.write_table(
        pa.table(
            {
                "term": pa.array(vocab, type=pa.string()),
                "df": pa.array([1] * len(vocab), type=pa.int64()),
            }
        ),
        str(idx / "vocab" / "vocab-00000.parquet"),
    )
    monkeypatch.setattr(fz, "ROW_GROUP", 16)  # run spans ~19 groups
    fz.build_fuzzy_sidecar(str(idx), max_edits=1, n_buckets=1)
    sc = fz.open_sidecar(str(idx))
    got = sc.lookup("abc", 1, max_terms=100000)
    expected = {t: 1 for t in vocab if lev_at_most(t, "abc", 1)}
    assert set(expected) == set(hubs)  # the fixture is what it claims
    assert got == expected
    # every probe term must also find itself + its substitution siblings
    for probe in (hubs[0], hubs[150], hubs[-1]):
        got_p = sc.lookup(probe, 1, max_terms=100000)
        exp_p = {t: 1 for t in vocab if lev_at_most(t, probe, 1)}
        assert got_p == exp_p, probe
