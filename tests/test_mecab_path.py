"""MeCab-path (SURVEY §2-M8) conformance without MeCab.

fugashi/unidic are absent in this sandbox, so the morphological path is
normally gate-skipped.  Here a FAKE fugashi module (a lexicon-driven Tagger
emitting .surface/.feature nodes, the exact interface both sides consume)
is injected into sys.modules by the ``fake_mecab_gate`` fixture, and our
tokenizer is re-imported fresh under the gate.

``test_mecab_expected_filtering`` needs only that gate: it checks our
tokenizer against the fake LEXICON and the filtering rules written out in
its comments.  The other three tests also load the reference tokenizer and
stop words (``REF_TOK``, ``REF_STOP_WORDS``) under the same gate and compare
the two over scenarios covering every branch of the reference loop
(tokenizer.py:95-172): POS excludes, subcategory excludes, lemmatization
incl. the non-Japanese-suffix rule, min length, stopwords, and the non-str
feature (UnidicFeatures-like) path.  On teardown the gate is lifted and our
tokenizer is reloaded gate-off, also when the reference fails to load.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

REF_TOK = "/root/reference/src/oboyu/common/services/tokenizer.py"
REF_STOP_WORDS = str(Path(REF_TOK).parents[1] / "stop_words.py")

# fake lexicon: surface → feature CSV (unidic-style: pos,subpos1,subpos2,
# ...,[7]=lemma).  Scenarios cover each filter branch.
LEXICON = {
    "犬": "名詞,一般,*,*,*,*,*,*",                 # noun, no lemma, len 1 → length-filtered
    "犬猫": "名詞,一般,*,*,*,*,*,イヌネコ",          # noun with JP lemma → lemma used
    "これ": "名詞,代名詞,*,*,*,*,*,*",              # excluded subcategory (名詞,代名詞)
    "して": "動詞,非自立,*,*,*,*,*,スル",            # excluded subcategory (動詞,非自立)
    "歩いた": "動詞,自立,*,*,*,*,*,歩く",            # verb, lemma applied
    "走った": "動詞,自立,*,*,*,*,*,走る-ハシル",      # lemma with JP suffix → lemma kept
    "coded": "動詞,自立,*,*,*,*,*,code-ed",        # lemma with non-JP suffix → surface kept
    "です": "助動詞,*,*,*,*,*,*,デス",              # excluded POS (also a stopword)
    "綺麗": "形容詞,自立,*,*,*,*,*,綺麗だ",          # adjective, lemma applied
    "、": "記号,読点,*,*,*,*,*,*",                 # excluded POS (symbol)
    "ｱｲｳ": "名詞,一般,*,*,*,*,*,*",                # half-width kana: normalized before tagging
    "アイウ": "名詞,一般,*,*,*,*,*,*",              # full-width form after h2z
    "novel": "名詞,一般,*,*,*,*,*,*",              # no lemma (*)
}


class _Node:
    def __init__(self, surface: str, feature):
        self.surface = surface
        self.feature = feature


class _ObjFeature:
    """UnidicFeatures-like: not a str; both sides str() it."""

    def __init__(self, csv: str) -> None:
        self._csv = csv

    def __str__(self) -> str:
        return self._csv


class _FakeTagger:
    """Whitespace tokenizer + lexicon lookup; unknown tokens become plain
    nouns.  Surfaces the same node interface fugashi exposes."""

    def __init__(self, *a, **kw) -> None:
        self.as_object_features = False

    def __call__(self, text: str):
        for tok in text.split():
            feat = LEXICON.get(tok, "名詞,一般,*,*,*,*,*,*")
            yield _Node(tok, _ObjFeature(feat) if self.as_object_features else feat)


@pytest.fixture()
def fake_mecab_gate():
    fake = types.ModuleType("fugashi")
    fake.Tagger = _FakeTagger
    fake_unidic = types.ModuleType("unidic_lite")
    fake_jaconv = types.ModuleType("jaconv")
    # the reference normalizer calls jaconv.h2z(kana=True, ascii=False,
    # digit=False); our functional equivalent IS the conformance claim for
    # that step (tested separately), so back the fake with it
    from oboyu_ray.functions.tokenize import _h2z_kana

    fake_jaconv.h2z = lambda text, kana=True, ascii=False, digit=False: _h2z_kana(text)
    saved = {k: sys.modules.get(k) for k in ("fugashi", "unidic_lite", "jaconv")}
    sys.modules["fugashi"] = fake
    sys.modules["unidic_lite"] = fake_unidic
    sys.modules["jaconv"] = fake_jaconv
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v
        import oboyu_ray.functions.tokenize as ours_mod

        importlib.reload(ours_mod)  # restore the gate-off state


@pytest.fixture()
def ours_tokenizer(fake_mecab_gate):
    # fresh import of OUR tokenizer under the gate
    import oboyu_ray.functions.tokenize as ours_mod

    ours_mod = importlib.reload(ours_mod)
    assert ours_mod.HAS_JAPANESE_TOKENIZER
    return ours_mod


@pytest.fixture()
def both_tokenizers(ours_tokenizer):
    # fresh import of the REFERENCE tokenizer under the gate
    sys.modules.setdefault("oboyu", types.ModuleType("oboyu"))
    spec = importlib.util.spec_from_file_location("_ref_tok_mecab", REF_TOK)
    ref_mod = importlib.util.module_from_spec(spec)
    # the reference module imports oboyu.common.stop_words
    sw_spec = importlib.util.spec_from_file_location("oboyu.common.stop_words", REF_STOP_WORDS)
    sw_mod = importlib.util.module_from_spec(sw_spec)
    sys.modules["oboyu.common.stop_words"] = sw_mod
    sw_spec.loader.exec_module(sw_mod)
    spec.loader.exec_module(ref_mod)
    assert ref_mod.HAS_JAPANESE_TOKENIZER
    return ref_mod, ours_tokenizer


TEXTS = [
    "犬 犬猫 これ して 歩いた 走った coded です 綺麗 、 novel",
    "ｱｲｳ 犬猫",           # h2z normalization feeds the tagger the full-width form
    "novel novel 歩いた",
    "",
]


def test_mecab_path_matches_reference(both_tokenizers):
    ref_mod, ours_mod = both_tokenizers
    for use_pos in (True, False):
        for use_lemma in (True, False):
            ref = ref_mod.JapaneseTokenizer(
                min_token_length=2, use_pos_filter=use_pos, use_lemmatization=use_lemma
            )
            ours = ours_mod.JapaneseTokenizer(
                min_token_length=2, use_pos_filter=use_pos, use_lemmatization=use_lemma
            )
            for t in TEXTS:
                assert ours.tokenize(t) == ref.tokenize(t), (t, use_pos, use_lemma)


def test_mecab_expected_filtering(ours_tokenizer):
    tok = ours_tokenizer.JapaneseTokenizer(min_token_length=2)
    out = tok.tokenize("犬 犬猫 これ して 歩いた 走った coded です 綺麗 、 novel")
    assert out == ["イヌネコ", "歩く", "走る-ハシル", "coded", "綺麗だ", "novel"]
    # 犬: length<2; これ/して: subcategory excludes; です: excluded POS;
    # 、: symbol; coded keeps surface (lemma suffix 'ed' is non-Japanese);
    # 走った takes its lemma because the suffix ハシル IS Japanese


def test_mecab_object_features(both_tokenizers):
    ref_mod, ours_mod = both_tokenizers
    ref = ref_mod.JapaneseTokenizer(min_token_length=2)
    ours = ours_mod.JapaneseTokenizer(min_token_length=2)
    ref.tagger.as_object_features = True
    ours.tagger.as_object_features = True
    t = "犬猫 歩いた novel"
    assert ours.tokenize(t) == ref.tokenize(t) == ["イヌネコ", "歩く", "novel"]


def test_selection_uses_mecab_when_available(both_tokenizers):
    ref_mod, ours_mod = both_tokenizers
    ours = ours_mod.create_tokenizer(language="ja", min_token_length=2, use_stopwords=True)
    assert type(ours).__name__ == "JapaneseTokenizer"
    svc = ref_mod.TokenizerService(language="ja", tokenizer_kwargs={"min_token_length": 2})
    assert type(svc.tokenizer).__name__ == "JapaneseTokenizer"
    for t in TEXTS:
        assert ours.tokenize(t) == svc.tokenizer.tokenize(t), t
