"""YAML ConfigManager — precedence, validation, round-trip.

Reference semantics: /root/reference/src/oboyu/config/base.py:32-151
(file > defaults deep-merge one level deep; CLI > file via None-filtered
overrides; invalid file warns and falls back to defaults; save round-trips).
Ray-free module — pure config resolution.
"""

from __future__ import annotations

import warnings

import pytest

from oboyu_ray.config import BM25Config, BuildConfig
from oboyu_ray.config_loader import ConfigManager


def test_defaults_match_dataclasses():
    cfg, fpp = ConfigManager().build_config()
    assert cfg == BuildConfig()
    assert fpp == 0
    q = ConfigManager().get_section("query")
    assert q == {"k": 10, "num_shards": None, "hydrate": False,
                 "require_all": False}


def test_file_overrides_defaults(tmp_path):
    p = tmp_path / "oboyu.yaml"
    p.write_text(
        "build:\n  window_docs: 256\n  store_positions: true\n"
        "bm25:\n  k1: 1.5\n"
        "query:\n  k: 25\n"
    )
    cm = ConfigManager(p)
    cfg, fpp = cm.build_config()
    assert cfg.window_docs == 256
    assert cfg.store_positions is True
    assert cfg.bm25.k1 == 1.5
    assert cfg.bm25.b == 0.75  # untouched keys keep defaults
    assert cfg.vocab_buckets == 32
    assert fpp == 0
    assert cm.get_section("query")["k"] == 25


def test_cli_beats_file_none_filtered(tmp_path):
    p = tmp_path / "oboyu.yaml"
    p.write_text("build:\n  window_docs: 256\nbm25:\n  k1: 1.5\n")
    cm = ConfigManager(p)
    cfg, fpp = cm.build_config(
        build_overrides={"window_docs": 64, "files_per_part": None},
        bm25_overrides={"k1": None, "b": 0.5},
    )
    assert cfg.window_docs == 64        # CLI wins over file
    assert cfg.bm25.k1 == 1.5           # None CLI value falls through to file
    assert cfg.bm25.b == 0.5            # CLI wins over default
    assert fpp == 0
    # False is a real CLI value, not "absent" — must not be filtered
    merged = cm.merge_cli_overrides("query", {"hydrate": False, "k": None})
    assert merged["hydrate"] is False and merged["k"] == 10


def test_unknown_key_in_known_section_raises(tmp_path):
    p = tmp_path / "oboyu.yaml"
    p.write_text("build:\n  window_doc: 256\n")  # typo
    with pytest.raises(ValueError, match="window_doc"):
        ConfigManager(p).load_config()


def test_unknown_section_carries_through(tmp_path):
    p = tmp_path / "oboyu.yaml"
    p.write_text("my_extension:\n  anything: 1\n")
    cm = ConfigManager(p)
    assert cm.get_section("my_extension") == {"anything": 1}
    # known sections are untouched
    assert cm.build_config()[0] == BuildConfig()


def test_invalid_yaml_warns_and_uses_defaults(tmp_path):
    p = tmp_path / "oboyu.yaml"
    p.write_text("build: [not, a, mapping\n")  # malformed YAML
    cm = ConfigManager(p)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        cfg, _ = cm.build_config()
    assert any("Failed to load config" in str(x.message) for x in w)
    assert cfg == BuildConfig()


def test_missing_file_is_defaults(tmp_path):
    cm = ConfigManager(tmp_path / "absent.yaml")
    assert cm.build_config()[0] == BuildConfig()


def test_save_round_trip(tmp_path):
    p = tmp_path / "sub" / "oboyu.yaml"
    cm = ConfigManager(p)
    data = cm.load_config()
    data["build"]["window_docs"] = 512
    cm.save_config(data)
    cfg, _ = ConfigManager(p).build_config()
    assert cfg.window_docs == 512
    with pytest.raises(ValueError):
        ConfigManager().save_config()  # no path


def test_cli_parser_resolves_through_config(tmp_path):
    """`--config` YAML feeds cmd_build/cmd_query resolution: parser defaults
    are None so only explicitly-typed flags override the file."""
    from oboyu_ray.config_loader import ConfigManager as CM

    p = tmp_path / "oboyu.yaml"
    p.write_text("build:\n  window_docs: 4096\nquery:\n  k: 7\n")
    # simulate cmd_build's resolution with one explicit flag
    cfg, _ = CM(p).build_config(build_overrides={"window_docs": None,
                                                 "vocab_buckets": 8})
    assert cfg.window_docs == 4096 and cfg.vocab_buckets == 8
    merged = CM(p).merge_cli_overrides("query", {"k": None, "hydrate": None})
    assert merged["k"] == 7 and merged["hydrate"] is False


def test_full_bm25_section_resolves():
    cfg, _ = ConfigManager().build_config(
        bm25_overrides={"language": "en", "tokenizer_mode": "ngram"}
    )
    assert cfg.bm25 == BM25Config(language="en", tokenizer_mode="ngram")


def test_failed_load_is_not_memoized(tmp_path):
    """Regression (round-5 review): an unknown-key ValueError must not
    leave a partially-merged config behind — every later call re-raises
    instead of silently returning the partial merge."""
    p = tmp_path / "oboyu.yaml"
    p.write_text("build:\n  window_docs: 999\nquery:\n  topk: 5\n")  # typo
    cm = ConfigManager(p)
    with pytest.raises(ValueError, match="topk"):
        cm.load_config()
    with pytest.raises(ValueError, match="topk"):
        cm.get_section("build")  # NOT {window_docs: 999} silently


def test_fuzzy_and_index_dir_sections_resolve(tmp_path):
    """Regression (round-5 review): the fuzzy / index_dir sections are
    consumed by cmd_build_fuzzy / cmd_index_dir (not schema-validated dead
    weight) — resolution honors file values under None CLI overrides."""
    p = tmp_path / "oboyu.yaml"
    p.write_text("fuzzy:\n  max_edits: 2\nindex_dir:\n  chunk_size: 2048\n")
    cm = ConfigManager(p)
    f = cm.merge_cli_overrides("fuzzy", {"max_edits": None, "buckets": None})
    assert f == {"max_edits": 2, "buckets": 32}
    d = cm.merge_cli_overrides("index_dir", {"chunk_size": None})
    assert d["chunk_size"] == 2048 and d["chunk_overlap"] == 256


def test_removed_min_doc_frequency_is_refused(tmp_path):
    """The field was never enforced; a file that sets it is refused rather
    than silently ignored."""
    p = tmp_path / "oboyu.yaml"
    p.write_text("bm25:\n  min_doc_frequency: 2\n")
    with pytest.raises(ValueError, match="min_doc_frequency"):
        ConfigManager(p).load_config()


def test_from_report_reads_old_and_partial_reports():
    # an old report still carries min_doc_frequency: ignored
    old = {"bm25": {"k1": 1.5, "b": 0.5, "min_doc_frequency": 1,
                    "language": "en"},
           "window_docs": 256, "store_positions": True}
    cfg = BuildConfig.from_report(old)
    assert cfg == BuildConfig(
        bm25=BM25Config(k1=1.5, b=0.5, language="en"),
        window_docs=256, store_positions=True,
    )
    # missing keys take the dataclass defaults
    assert BuildConfig.from_report({}) == BuildConfig()
    assert BuildConfig.from_report({"bm25": {"b": 0.4}}).bm25 == BM25Config(b=0.4)
