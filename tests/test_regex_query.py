"""Regex / wildcard term retrieval kernels.

The oracle contract rests on pyarrow's ``match_substring_regex`` and
DuckDB's ``regexp_full_match`` being the SAME engine (RE2): these tests pin
that agreement on the driver pattern set plus adversarial cases, pin the
wildcard→regex translation, and verify the brute tier against the DuckDB
oracle at sf0.001 (the sf0.01 run lives in test_entry_oracle.py).
"""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from oboyu_ray.pipelines.bm25_batch import wildcard_to_regex
from oboyu_ray.pipelines.entry_queries import REGEX_QUERIES, WILDCARD_QUERIES

TERMS = [
    "table", "tables", "tab", "tabXle", "join", "jon", "jo1n", "jin",
    "merge", "merges", "sort", "sorts", "sorted", "window", "windaw",
    "shadow", "scan", "scon", "scans", "zzznohit", "データ", "検索",
    "a", "", "tab.le", "j*in",
]


def _duck_matches(pattern: str) -> list:
    con = duckdb.connect()
    return sorted(
        r[0]
        for r in con.execute(
            "SELECT t FROM (SELECT unnest(?) AS t) WHERE regexp_full_match(t, ?)",
            [TERMS, pattern],
        ).fetchall()
    )


def _arrow_matches(pattern: str) -> list:
    m = pc.match_substring_regex(
        pa.array(TERMS, type=pa.string()), pattern=f"^(?:{pattern})$"
    )
    return sorted(t for t, ok in zip(TERMS, m.to_pylist()) if ok)


@pytest.mark.parametrize(
    "pattern",
    REGEX_QUERIES
    + [wildcard_to_regex(w) for w in WILDCARD_QUERIES]
    + [r"tab\.le", "j\\*in", "(a|tab)", ".", ".*", "[^a-z]+"],
)
def test_pyarrow_and_duckdb_regex_agree(pattern):
    assert _arrow_matches(pattern) == _duck_matches(pattern), pattern


def test_wildcard_to_regex_translation():
    assert wildcard_to_regex("tab*") == "tab.*"
    assert wildcard_to_regex("j?in") == "j.in"
    assert wildcard_to_regex("*dow") == ".*dow"
    assert wildcard_to_regex("sc?n*") == "sc.n.*"
    # regex metachars in the literal part are escaped, not interpreted
    assert wildcard_to_regex("a.b*") == "a\\.b.*"
    assert wildcard_to_regex("a+?") == "a\\+."
    # escaped literals stay literal through RE2
    m = pc.match_substring_regex(
        pa.array(["a.b", "axb", "a.bc"]), pattern=f"^(?:{wildcard_to_regex('a.b')})$"
    )
    assert m.to_pylist() == [True, False, False]


def test_wildcard_semantics():
    # * matches the empty run; ? matches exactly one codepoint (incl. multibyte)
    arr = pa.array(["tab", "table", "データ", "デーキ", "デー"])
    star = pc.match_substring_regex(arr, pattern=f"^(?:{wildcard_to_regex('tab*')})$")
    assert star.to_pylist()[:2] == [True, True]
    q = pc.match_substring_regex(arr, pattern=f"^(?:{wildcard_to_regex('デー?')})$")
    assert q.to_pylist()[2:] == [True, True, False]


@pytest.mark.parametrize("sf_dir", ["/root/testdata/sf0.001"])
def test_regex_topk_matches_duckdb_oracle(sf_dir):
    """Brute tier at sf0.001 vs the full SQL oracle (both pattern families)."""
    import pandas as pd

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        df = df[sorted(df.columns)]
        return df.sort_values(by=list(df.columns), ignore_index=True)

    for name in ("regex_topk", "wildcard_topk"):
        ours = norm(entrymod.queries()[name](sf_dir))
        theirs = norm(con.execute(entrymod.oracle_sql()[name]).fetchdf())
        assert len(ours) > 0
        pd.testing.assert_frame_equal(
            ours.astype(theirs.dtypes.to_dict()), theirs, obj=name
        )


def _bucketed_vocab(tmp_path, n_buckets=4):
    """A small vocab dir in the build's layout: vocab-{crc32(term) % B}
    files, term-sorted, with 3-row row groups so the row-group index and
    the bucket-file sweeps both have several groups to walk."""
    import zlib

    import pyarrow.parquet as pq

    vocab = {t: 1 + i for i, t in enumerate(sorted(set(TERMS) - {""}))}
    vocab_dir = tmp_path / "vocab"
    vocab_dir.mkdir()
    for b in range(n_buckets):
        terms = sorted(t for t in vocab
                       if zlib.crc32(t.encode("utf-8")) % n_buckets == b)
        pq.write_table(
            pa.table({"term": pa.array(terms, type=pa.string()),
                      "df": pa.array([vocab[t] for t in terms], type=pa.int64())}),
            vocab_dir / f"vocab-{b:05d}.parquet", row_group_size=3,
        )
    return str(vocab_dir), vocab


@pytest.mark.parametrize("pattern,literal_prefix", [
    ("tab.*", ""), ("tab.*", "tab"), ("sc.ns?", "sc"), ("(join|jon)", ""),
    ("j.*", "j"), ("zzz.*", "zzz"), ("デ.*", "デ"),
])
def test_df_regex_sweeps_match_in_memory(tmp_path, pattern, literal_prefix):
    """The bucket-file sweep of ``df_regex`` — serial and as Ray tasks —
    equals the in-memory vectorized path, with and without the
    literal-prefix narrowing; the prefix and point lookups that share the
    row-group index agree with the in-memory map too."""
    from oboyu_ray.pipelines.query import VocabLookup

    vocab_dir, vocab = _bucketed_vocab(tmp_path)
    vl = VocabLookup(vocab_dir)
    assert vl._map == vocab and vl._bucketed
    inmem = vl.df_regex(pattern, literal_prefix=literal_prefix)
    assert inmem == vl.df_regex(pattern)
    assert inmem == {t: d for t, d in vocab.items()
                     if t in _arrow_matches(pattern)}
    pfx = literal_prefix or "t"
    inmem_pfx = vl.df_prefix(pfx)
    vl._map = None
    par = vl.df_regex(pattern, parallel=True, literal_prefix=literal_prefix)
    ser = vl.df_regex(pattern, parallel=False, literal_prefix=literal_prefix)
    assert par == inmem and ser == inmem, pattern
    assert vl.df_prefix(pfx) == inmem_pfx
    assert vl.df(sorted(vocab) + ["zzzabsent"]) == {**vocab, "zzzabsent": 0}
    with pytest.raises(ValueError, match="expands"):
        vl.df_regex(".*", max_terms=2, parallel=False)


@pytest.mark.parametrize("pattern,literal_prefix", [
    ("tab.*", "tab"), ("sc.ns?", "sc"), ("j.*", "j"), ("zzz.*", "zzz"),
    ("デ.*", "デ"),
])
def test_df_regex_file_path_reads_only_the_literal_prefix_range(
    tmp_path, monkeypatch, pattern, literal_prefix,
):
    """Beyond the in-memory limit, a regex with a literal prefix reads only
    the row groups covering [lit, lit+U+FFFF) — the same row groups as
    ``df_prefix(lit)``, fewer than the vocabulary has — and still equals
    the in-memory answer."""
    import pyarrow.parquet as pq

    from oboyu_ray.pipelines.query import VocabLookup

    vocab_dir, _ = _bucketed_vocab(tmp_path)
    vl = VocabLookup(vocab_dir)
    inmem = vl.df_regex(pattern, literal_prefix=literal_prefix)
    vl._map = None
    reads = []
    read_row_group = pq.ParquetFile.read_row_group

    def counting(self, *args, **kwargs):
        reads.append(args[0] if args else kwargs.get("i"))
        return read_row_group(self, *args, **kwargs)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", counting)
    got = vl.df_regex(pattern, literal_prefix=literal_prefix)
    n_regex = len(reads)
    reads.clear()
    vl.df_prefix(literal_prefix)
    assert got == inmem, pattern
    assert n_regex == len(reads) > 0, (n_regex, len(reads))
    all_groups = sum(pq.read_metadata(f).num_row_groups for f in vl.files)
    assert n_regex < all_groups, (n_regex, all_groups)
