"""Tokenizer conformance: our tokenizer must produce token streams identical
to the reference's (fallback path — the live path in this sandbox), for every
turn of a synthetic transcript corpus and for the edge cases the reference's
own tests pin."""

from __future__ import annotations

import pytest

from oboyu_ray.functions.tokenize import (
    DEFAULT_JAPANESE_STOP_WORDS,
    FallbackTokenizer,
    create_tokenizer,
    default_tokenizer,
    normalize_japanese_text,
)
from oboyu_ray.sources.transcripts import synth_transcripts_table
from tests.reference_oracle import load_reference


def test_reference_uses_fallback_in_sandbox():
    REF = load_reference()
    assert not REF.HAS_JAPANESE_TOKENIZER
    tok = REF.create_tokenizer(language="ja", min_token_length=2, use_stopwords=False)
    assert type(tok).__name__ == "FallbackTokenizer"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "Python programming language Python",
        "日本語のテキスト検索です",
        "Mixed 日本語 and English123 テキストです ﾃｽﾄ",
        "a b cd 一 二三 カナ かな ABC-DEF_GHI",
        "UPPER lower MiXeD 42 4x x4",
        "〜テスト～ ソート順",
        "tabs\tand\nnewlines  spaces",
    ],
)
def test_token_stream_matches_reference(text):
    REF = load_reference()
    # the LIVE indexing tokenizer: TokenizerService(language, {min_token_length})
    # → use_stopwords defaults True (bm25_indexer.py:82, tokenizer.py:333)
    ref_svc = REF.TokenizerService("ja", {"min_token_length": 2})
    ours = default_tokenizer()
    assert ours.tokenize(text) == ref_svc.tokenize(text)
    assert ours.get_term_frequencies(text) == ref_svc.get_term_frequencies(text)


@pytest.mark.parametrize("use_stopwords", [False, True])
def test_token_stream_matches_reference_both_modes(use_stopwords):
    REF = load_reference()
    ref_tok = REF.create_tokenizer(language="ja", min_token_length=2, use_stopwords=use_stopwords)
    ours = create_tokenizer(language="ja", min_token_length=2, use_stopwords=use_stopwords)
    for text in ["Python の programming です", "これはテストです the and of",
                 "検索 インデックス 構築 します"]:
        assert ours.tokenize(text) == ref_tok.tokenize(text)


def test_token_stream_matches_reference_with_stopwords():
    REF = load_reference()
    ref_tok = REF.create_tokenizer(language="ja", min_token_length=2, use_stopwords=True)
    ours = create_tokenizer(language="ja", min_token_length=2, use_stopwords=True)
    for text in ["the quick brown fox", "これはテストです", "search the index of です"]:
        assert ours.tokenize(text) == ref_tok.tokenize(text)


def test_stopword_set_matches_reference():
    load_reference()  # registers oboyu.common.stop_words
    import sys

    ref_sw = sys.modules["oboyu.common.stop_words"].DEFAULT_JAPANESE_STOP_WORDS
    assert set(DEFAULT_JAPANESE_STOP_WORDS) == set(ref_sw)


def test_min_token_length_filter():
    t = FallbackTokenizer(min_token_length=2)
    # single-char tokens dropped; JP runs stay contiguous
    assert t.tokenize("a bc 一 二三") == ["bc", "二三"]
    t1 = FallbackTokenizer(min_token_length=1)
    assert t1.tokenize("a bc") == ["a", "bc"]


def test_contiguous_japanese_runs_are_single_tokens():
    REF = load_reference()
    t = FallbackTokenizer()
    # exact parity with the reference is the assertion:
    ref = REF.create_tokenizer(language="ja", min_token_length=2, use_stopwords=False)
    for s in ["これはテスト用の漢字です", "カタカナとひらがなと漢字"]:
        assert t.tokenize(s) == ref.tokenize(s)


def test_synth_corpus_token_streams_match_reference():
    REF = load_reference()
    tbl = synth_transcripts_table(seed=42, conv_start=0, conv_end=120)
    ref_tok = REF.TokenizerService("ja", {"min_token_length": 2})
    ours = default_tokenizer()
    texts = tbl.column("text").to_pylist()
    assert len(texts) > 400
    for text in texts:
        assert ours.tokenize(text) == ref_tok.tokenize(text)


def test_normalize_japanese_text_matches_reference_shape():
    # The MeCab-path normalizer (NFKC, lower, h2z kana, tilde fold) — only
    # exercised when fugashi is present, but its pure parts are testable.
    assert normalize_japanese_text("ＡＢＣ　１２３") == "abc 123"
    assert normalize_japanese_text("ﾃｽﾄﾀﾞﾖ") == "テストダヨ"
    # NFKC folds U+FF5E ～ to ASCII ~ BEFORE the reference's replace("～","ー")
    # runs, so only the wave dash 〜 (U+301C) becomes ー — reference behavior.
    assert normalize_japanese_text("あ〜い～う") == "あーい~う"


def test_ngram_mode_matches_glued_compounds(tmp_path):
    """Optional bigram mode: a query term embedded in a glued Japanese
    compound matches (the conformance-default fallback cannot); end-to-end
    through build + shard query with the mode recorded in the index."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from oboyu_ray.config import BM25Config, BuildConfig
    from oboyu_ray.functions.tokenize import NgramTokenizer, create_tokenizer
    from oboyu_ray.pipelines.build_index import build_index
    from oboyu_ray.pipelines.query import QueryEngine

    ng = NgramTokenizer(min_token_length=2)
    assert ng.tokenize("検索エンジンです") == ["検索", "索エ", "エン", "ンジ", "ジン", "ンで", "です"]
    assert ng.tokenize("ray data 検索") == ["ray", "data", "検索"]
    assert ng.tokenize("") == []
    assert create_tokenizer(mode="ngram").tokenize("犬") == []  # 1-gram < min len

    rows = {
        "conv_id": ["c0", "c0", "c0"],
        "turn_idx": [0, 1, 2],
        "role": ["user"] * 3,
        "text": ["高速検索エンジンを実装", "無関係な内容だけです", "data pipeline text"],
        "tool": [""] * 3,
        "ts": [datetime.datetime(2025, 1, 1)] * 3,
    }
    f = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({
        "conv_id": pa.array(rows["conv_id"]),
        "turn_idx": pa.array(rows["turn_idx"], type=pa.int32()),
        "role": pa.array(rows["role"]),
        "text": pa.array(rows["text"]),
        "tool": pa.array(rows["tool"]),
        "ts": pa.array(rows["ts"], type=pa.timestamp("us")),
    }), f)
    cfg = BuildConfig(bm25=BM25Config(tokenizer_mode="ngram"), window_docs=64, vocab_buckets=4)
    index_dir = str(tmp_path / "idx")
    build_index([f], index_dir, cfg, files_per_part=1)
    eng = QueryEngine(index_dir, num_shards=1)
    assert eng.cfg.tokenizer_mode == "ngram"  # mode restored from the report
    got = eng.search("検索", k=3)
    assert got["doc_id"].tolist()[:1] == ["c0:00000000"]  # glued compound matched
    assert len(eng.search("存在しない単語", k=3)) == 0 or (eng.search("存在しない単語", k=3)["score"] < got["score"].iloc[0]).all()
    eng.close()
