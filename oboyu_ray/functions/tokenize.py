"""Tokenization semantics matching the reference engine exactly.

The conformance target is the reference's live BM25 indexing path
(``/root/reference/src/oboyu/common/services/tokenizer.py``):

* ``FallbackTokenizer`` (tokenizer.py:263-302) — the path actually taken in
  environments without fugashi/MeCab, including this sandbox: lowercase the
  raw text, then find all matches of contiguous Japanese-script runs
  (hiragana U+3040-309F, katakana U+30A0-30FF, CJK unified U+4E00-9FFF) or
  ASCII alphanumeric runs (tokenizer.py:276), keep tokens with
  ``len(token) >= min_token_length`` that are not stop words.  Note the
  fallback path applies **no NFKC normalization** — only ``str.lower()``.
* ``JapaneseTokenizer`` (tokenizer.py:58-172) — MeCab morphological path,
  availability-gated exactly like the reference (tokenizer.py:14-21): NFKC →
  lower → half-width→full-width kana → tilde folding, then POS filtering and
  lemmatization.  Implemented here behind the same import gate; in this
  sandbox fugashi is absent so the fallback is selected, keeping oracle
  comparisons apples-to-apples.
* Selection logic mirrors ``TokenizerService._create_tokenizer``
  (tokenizer.py:327-359).  The conformance default is
  ``min_token_length=2, use_stopwords=True``: ``BM25Indexer``'s own
  ``use_stopwords=False`` (bm25_indexer.py:36) is never used by its index
  or query paths, which tokenize through ``TokenizerService`` and its
  ``use_stopwords=True`` default (tokenizer.py:333,337-338; see
  ``oboyu_ray/config.py``).

Everything here is pure-Python/stdlib and deterministic so it can run inside
Ray Data ``map_batches`` workers with zero per-batch setup cost (the compiled
regex and frozensets are module-level constants shared per process).
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from typing import Dict, List, Optional, Set

try:  # same availability gate as reference tokenizer.py:14-21
    import fugashi  # type: ignore  # noqa: F401
    import unidic_lite  # type: ignore  # noqa: F401

    HAS_JAPANESE_TOKENIZER = True
except ImportError:
    HAS_JAPANESE_TOKENIZER = False

# Token pattern of the fallback path (reference tokenizer.py:276): one
# alternation of Japanese-script runs and ASCII alphanumeric runs.
TOKEN_PATTERN = re.compile(r"[぀-ゟ゠-ヿ一-鿿]+|[a-zA-Z0-9]+")

# The same character-class alternation as an RE2-compatible pattern usable in
# DuckDB ``regexp_extract_all`` for oracle SQL (identical match semantics:
# the two alternatives cover disjoint character sets, so leftmost matching is
# unambiguous in both engines).
TOKEN_PATTERN_SQL = (
    r"[\x{3040}-\x{309f}\x{30a0}-\x{30ff}\x{4e00}-\x{9fff}]+|[a-zA-Z0-9]+"
)

# Japanese stop-word set — behavioral data constant required for parity with
# the reference's stop-word filtering (common/stop_words.py:4-103; 103
# entries: particles, auxiliary verbs, pronouns, common nouns, EN function
# words, high-frequency verbs).  The conformance-default configuration
# filters it on both the index and the query side (use_stopwords=True).
DEFAULT_JAPANESE_STOP_WORDS: frozenset = frozenset(
    "は が を に で と も や の へ から まで より ね よ "
    "です ます だ である でした ました でしょう ましょう "
    "これ それ あれ どれ この その あの どの "
    "こと もの ため とき ところ ほう さん くん ちゃん "
    "the a an and or but in on at to for of with "
    "為る する し 居る いる い 成る なる なり なっ 有る ある あり "
    "言う いう 思う 見る 出る 来る 行く 分かる わかる 知る 聞く "
    "読む 書く 話す 働く 立つ 座る 歩く 走る 食べる 飲む 寝る "
    "起きる 買う 売る 作る".split()
)

# MeCab-path POS filter constants (reference tokenizer.py:29-55).
EXCLUDED_POS_TAGS = frozenset(
    {"助詞", "助動詞", "記号", "補助記号", "空白", "フィラー", "感動詞"}
)
INCLUDED_POS_TAGS = frozenset({"名詞", "動詞", "形容詞", "副詞", "連体詞", "接続詞"})
EXCLUDED_POS_SUBCATEGORIES = (
    ("名詞", "代名詞"),
    ("名詞", "非自立"),
    ("動詞", "非自立"),
    ("形容詞", "非自立"),
)

_HIRAGANA_RANGE = ("぀", "ゟ")
_KATAKANA_RANGE = ("゠", "ヿ")
_KANJI_RANGE = ("一", "鿿")

# Half-width → full-width katakana mapping used by the MeCab-path normalizer
# (functional equivalent of jaconv.h2z(kana=True), reference tokenizer.py:242).
_H2Z_BASE = {
    "ｱ": "ア", "ｲ": "イ", "ｳ": "ウ", "ｴ": "エ", "ｵ": "オ",
    "ｶ": "カ", "ｷ": "キ", "ｸ": "ク", "ｹ": "ケ", "ｺ": "コ",
    "ｻ": "サ", "ｼ": "シ", "ｽ": "ス", "ｾ": "セ", "ｿ": "ソ",
    "ﾀ": "タ", "ﾁ": "チ", "ﾂ": "ツ", "ﾃ": "テ", "ﾄ": "ト",
    "ﾅ": "ナ", "ﾆ": "ニ", "ﾇ": "ヌ", "ﾈ": "ネ", "ﾉ": "ノ",
    "ﾊ": "ハ", "ﾋ": "ヒ", "ﾌ": "フ", "ﾍ": "ヘ", "ﾎ": "ホ",
    "ﾏ": "マ", "ﾐ": "ミ", "ﾑ": "ム", "ﾒ": "メ", "ﾓ": "モ",
    "ﾔ": "ヤ", "ﾕ": "ユ", "ﾖ": "ヨ",
    "ﾗ": "ラ", "ﾘ": "リ", "ﾙ": "ル", "ﾚ": "レ", "ﾛ": "ロ",
    "ﾜ": "ワ", "ｦ": "ヲ", "ﾝ": "ン",
    "ｧ": "ァ", "ｨ": "ィ", "ｩ": "ゥ", "ｪ": "ェ", "ｫ": "ォ",
    "ｬ": "ャ", "ｭ": "ュ", "ｮ": "ョ", "ｯ": "ッ",
    "ｰ": "ー", "｡": "。", "｢": "「", "｣": "」", "､": "、", "･": "・",
}
_H2Z_VOICED = {
    "ｶ": "ガ", "ｷ": "ギ", "ｸ": "グ", "ｹ": "ゲ", "ｺ": "ゴ",
    "ｻ": "ザ", "ｼ": "ジ", "ｽ": "ズ", "ｾ": "ゼ", "ｿ": "ゾ",
    "ﾀ": "ダ", "ﾁ": "ヂ", "ﾂ": "ヅ", "ﾃ": "デ", "ﾄ": "ド",
    "ﾊ": "バ", "ﾋ": "ビ", "ﾌ": "ブ", "ﾍ": "ベ", "ﾎ": "ボ",
    "ｳ": "ヴ",
}
_H2Z_SEMIVOICED = {"ﾊ": "パ", "ﾋ": "ピ", "ﾌ": "プ", "ﾍ": "ペ", "ﾎ": "ポ"}


def is_japanese_text(text: str) -> bool:
    """True if any char is hiragana/katakana/kanji (reference tokenizer.py:250-260)."""
    for ch in text:
        if (
            _HIRAGANA_RANGE[0] <= ch <= _HIRAGANA_RANGE[1]
            or _KATAKANA_RANGE[0] <= ch <= _KATAKANA_RANGE[1]
            or _KANJI_RANGE[0] <= ch <= _KANJI_RANGE[1]
        ):
            return True
    return False


def _h2z_kana(text: str) -> str:
    """Half-width → full-width katakana conversion (kana only)."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if i + 1 < n and text[i + 1] == "ﾞ" and ch in _H2Z_VOICED:  # ﾞ
            out.append(_H2Z_VOICED[ch])
            i += 2
        elif i + 1 < n and text[i + 1] == "ﾟ" and ch in _H2Z_SEMIVOICED:  # ﾟ
            out.append(_H2Z_SEMIVOICED[ch])
            i += 2
        elif ch in _H2Z_BASE:
            out.append(_H2Z_BASE[ch])
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def normalize_japanese_text(text: str) -> str:
    """MeCab-path text normalization (reference tokenizer.py:231-248).

    NFKC → lowercase → half-width kana to full-width → fold 〜/～ to ー.
    NOT applied on the fallback regex path (which only lowercases).
    """
    text = unicodedata.normalize("NFKC", text)
    text = text.lower()
    text = _h2z_kana(text)
    return text.replace("〜", "ー").replace("～", "ー")


class FallbackTokenizer:
    """Regex tokenizer — the live conformance path (reference tokenizer.py:263-302)."""

    def __init__(self, stop_words: Optional[Set[str]] = None, min_token_length: int = 2) -> None:
        # Reference default for direct construction is the EMPTY set
        # (tokenizer.py:272); TokenizerService passes the resolved set.
        self.stop_words = stop_words or set()
        self.min_token_length = min_token_length

    def tokenize(self, text: str) -> List[str]:
        if not text:
            return []
        matches = TOKEN_PATTERN.findall(text.lower())
        mtl = self.min_token_length
        sw = self.stop_words
        return [t for t in matches if len(t) >= mtl and t not in sw]

    def get_term_frequencies(self, text: str) -> Dict[str, int]:
        return dict(Counter(self.tokenize(text)))


class JapaneseTokenizer:
    """MeCab morphological tokenizer (reference tokenizer.py:58-172).

    Availability-gated exactly like the reference; raises ImportError when
    fugashi/unidic-lite are absent (true in this sandbox, where the
    FallbackTokenizer is therefore the selected, tested path).
    """

    def __init__(
        self,
        stop_words: Optional[Set[str]] = None,
        min_token_length: int = 2,
        use_pos_filter: bool = True,
        normalize_text: bool = True,
        use_lemmatization: bool = True,
    ) -> None:
        if not HAS_JAPANESE_TOKENIZER:
            raise ImportError(
                "fugashi/unidic-lite not available; FallbackTokenizer is the live path"
            )
        self.stop_words = stop_words or set(DEFAULT_JAPANESE_STOP_WORDS)
        self.min_token_length = min_token_length
        self.use_pos_filter = use_pos_filter
        self.normalize_text = normalize_text
        self.use_lemmatization = use_lemmatization
        self.tagger = fugashi.Tagger()

    def tokenize(self, text: str) -> List[str]:
        if not text:
            return []
        normalized = normalize_japanese_text(text) if self.normalize_text else text
        tokens: List[str] = []
        for node in self.tagger(normalized):
            token = node.surface
            feature = getattr(node, "feature", None)
            if feature is None:
                features: List[str] = []
            elif isinstance(feature, str):
                features = feature.split(",")
            else:
                features = str(feature).split(",")
            if len(token) < self.min_token_length:
                continue
            if token.lower() in self.stop_words:
                continue
            if self.use_pos_filter:
                pos = features[0] if features else ""
                subpos1 = features[1] if len(features) > 1 else ""
                if pos in EXCLUDED_POS_TAGS:
                    continue
                excluded = False
                for exc_pos, exc_sub in EXCLUDED_POS_SUBCATEGORIES:
                    if pos == exc_pos and (exc_sub == "*" or subpos1 == exc_sub):
                        excluded = True
                        break
                if excluded:
                    continue
                if pos in INCLUDED_POS_TAGS and self.use_lemmatization:
                    base_form = features[7] if len(features) > 7 else None
                    if base_form and base_form != "*":
                        # Reference keeps the surface form when lemmatization
                        # would introduce a non-Japanese suffix (tokenizer.py:164).
                        if "-" in base_form and not is_japanese_text(base_form.split("-", 1)[1]):
                            pass
                        else:
                            token = base_form
            tokens.append(token)
        return tokens

    def get_term_frequencies(self, text: str) -> Dict[str, int]:
        return dict(Counter(self.tokenize(text)))


class NgramTokenizer:
    """Character-bigram tokenizer for Japanese-script runs (optional mode,
    NOT the conformance default).

    The fallback tokenizer keeps a maximal Japanese run as ONE token, so a
    query for 検索 cannot match the glued compound 検索エンジン — a known
    recall limitation shared with the reference's fallback path.  This mode
    applies the classic CJK bigram treatment: Japanese-script runs emit
    overlapping character 2-grams (a 1-char run emits itself), while ASCII
    alphanumeric runs stay whole words; min-length and stopword filters then
    apply to the emitted tokens.  Build and query must both use it (the
    engine records the tokenizer mode in the index lineage/config)."""

    def __init__(self, stop_words: Optional[Set[str]] = None, min_token_length: int = 2,
                 n: int = 2) -> None:
        self.stop_words = stop_words or set()
        self.min_token_length = min_token_length
        self.n = n

    _JP_RUN = re.compile(r"[぀-ゟ゠-ヿ一-鿿]+")

    def tokenize(self, text: str) -> List[str]:
        if not text:
            return []
        out: List[str] = []
        n = self.n
        for m in TOKEN_PATTERN.finditer(text.lower()):
            run = m.group()
            if self._JP_RUN.fullmatch(run):
                if len(run) < n:
                    out.append(run)
                else:
                    out.extend(run[i : i + n] for i in range(len(run) - n + 1))
            else:
                out.append(run)
        mtl = self.min_token_length
        sw = self.stop_words
        return [t for t in out if len(t) >= mtl and t not in sw]

    def get_term_frequencies(self, text: str) -> Dict[str, int]:
        return dict(Counter(self.tokenize(text)))


def create_tokenizer(
    language: str = "ja",
    stop_words: Optional[Set[str]] = None,
    min_token_length: int = 2,
    use_fallback: bool = False,
    use_stopwords: bool = True,
    mode: str = "default",
):
    """Tokenizer selection mirroring TokenizerService._create_tokenizer
    (reference tokenizer.py:327-359):

    * resolve the stop-word set (defaults when enabled, empty when disabled),
    * Japanese + MeCab available → JapaneseTokenizer,
    * otherwise → FallbackTokenizer with the same stop words / min length.
    """
    if use_stopwords and stop_words is None:
        stop_words = set(DEFAULT_JAPANESE_STOP_WORDS)
    elif not use_stopwords:
        stop_words = set()
    if mode == "ngram":
        return NgramTokenizer(stop_words=stop_words, min_token_length=min_token_length)
    if language == "ja" and not use_fallback and HAS_JAPANESE_TOKENIZER:
        return JapaneseTokenizer(stop_words=stop_words, min_token_length=min_token_length)
    return FallbackTokenizer(stop_words=stop_words, min_token_length=min_token_length)


def default_tokenizer():
    """The conformance-default tokenizer of the reference's LIVE indexing and
    query paths: language="ja", min_token_length=2, use_stopwords=True.

    Note: this is stopwords-ON.  ``BM25Indexer``'s own ``self.tokenizer``
    defaults to stopwords-off (bm25_indexer.py:36) but is never used for
    statistics — ``index_chunks`` tokenizes through
    ``TokenizerService(language, {"min_token_length": ...})``
    (bm25_indexer.py:82) which defaults ``use_stopwords=True``
    (tokenizer.py:333); the retriever's query tokenizer is built the same way
    (service_registry.py:75-80)."""
    return create_tokenizer(language="ja", min_token_length=2, use_stopwords=True)
