"""Crawl-time Japanese text normalization (SURVEY §2-M2).

Reimplements the reference's normalize chain
(`crawler/services/encoding_detector.py:78-148`):
ftfy mojibake fix → neologdn normalization → conditional full-width
ASCII/digit → half-width conversion (mojimoji ``zen_to_han(kana=False)``)
→ LF line endings with ≤2 consecutive blank lines.

ftfy / neologdn / mojimoji are not available in this container; following
the reference's availability-gating style, the chain uses them when
importable and otherwise falls back to exact stdlib implementations of the
deterministic steps (width conversion, line endings — byte-equal to
mojimoji for the ascii/digit subset) while skipping the heuristic
mojibake/neologdn passes.  The active steps are reported so callers can
tell which path ran.

NOTE (north-rule invariant): this operator is for file-corpus ingestion
modes; the transcript index pipeline never applies it to persisted turn
text (per-turn byte equality with the source is a conformance requirement).
"""

from __future__ import annotations

import re
from typing import List, Tuple

import pyarrow as pa

try:  # pragma: no cover - not in this container
    import ftfy  # type: ignore

    HAS_FTFY = True
except ImportError:
    HAS_FTFY = False

try:  # pragma: no cover - not in this container
    import neologdn  # type: ignore

    HAS_NEOLOGDN = True
except ImportError:
    HAS_NEOLOGDN = False

try:  # pragma: no cover - not in this container
    import mojimoji  # type: ignore

    HAS_MOJIMOJI = True
except ImportError:
    HAS_MOJIMOJI = False

# Full-width ASCII/digit → half-width (U+FF01–U+FF5E → U+0021–U+007E, plus
# ideographic space → space).  Exactly mojimoji.zen_to_han(kana=False,
# ascii=True, digit=True) on this character subset.
_Z2H = {c: c - 0xFEE0 for c in range(0xFF01, 0xFF5F)}
_Z2H[0x3000] = 0x20

_FW_DIGIT = re.compile(r"[０-９]")
_FW_ALPHA = re.compile(r"[Ａ-Ｚａ-ｚ]")


def needs_width_conversion(text: str) -> bool:
    """encoding_detector.py:109-127: full-width digits or ASCII letters."""
    return bool(_FW_DIGIT.search(text)) or bool(_FW_ALPHA.search(text))


def zen_to_han_ascii_digit(text: str) -> str:
    """Full-width ASCII + digits (+ ideographic space) → half-width; kana
    untouched (mojimoji.zen_to_han(kana=False) equivalent)."""
    if HAS_MOJIMOJI:  # pragma: no cover
        return mojimoji.zen_to_han(text, kana=False, ascii=True, digit=True)
    return text.translate(_Z2H)


def standardize_line_endings(text: str) -> str:
    """encoding_detector.py:129-148: CRLF/CR → LF, ≥3 newlines → 2."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return re.sub(r"\n{3,}", "\n\n", text)


def process_japanese_text(text: str) -> Tuple[str, List[str]]:
    """The full M2 chain; returns (normalized, applied_step_names)."""
    steps: List[str] = []
    out = text
    if HAS_FTFY:  # pragma: no cover
        out = ftfy.fix_text(out)
        steps.append("ftfy")
    if HAS_NEOLOGDN:  # pragma: no cover
        out = neologdn.normalize(out)
        steps.append("neologdn")
    if needs_width_conversion(out):
        out = zen_to_han_ascii_digit(out)
        steps.append("zen_to_han")
    out = standardize_line_endings(out)
    steps.append("line_endings")
    return out, steps


def normalize_batch(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """map_batches stage: (id, text) → (id, normalized, width_converted)."""
    texts = batch.column(text_col).to_pylist()
    out: List[str] = []
    converted: List[bool] = []
    for t in texts:
        n, steps = process_japanese_text(t or "")
        out.append(n)
        converted.append("zen_to_han" in steps)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "normalized": pa.array(out, type=pa.string()),
            "width_converted": pa.array(converted, type=pa.bool_()),
        }
    )
