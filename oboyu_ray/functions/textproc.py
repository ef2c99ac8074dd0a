"""Text processing operators: chunking, snippets, highlighting.

Faithful reimplementations of the reference's text-processing semantics
(verified against importlib-loaded reference classes in
tests/test_textproc.py):

* chunk_text        — sliding-window chunker with paragraph/sentence boundary
                      snapping, reference indexer/core/document_chunker.py:27-113
                      (SURVEY §2-M4).  Exposed both as a pure function and as
                      a flat-map style ``map_batches`` stage (1 doc → n chunk
                      rows) for long-text mode; the transcript index keeps
                      1 turn = 1 doc per the north rule.
* extract_snippet   — match-window snippet extraction,
                      retriever/search/snippet_extractor.py:9-107.
* highlight_matches — word-boundary highlighting with ``**{}**`` format,
                      retriever/search/text_highlighter.py:19-101.
"""

from __future__ import annotations

import re
from typing import List, Tuple

import pyarrow as pa

# ------------------------------------------------------------------ chunking

DEFAULT_CHUNK_SIZE = 1024
DEFAULT_CHUNK_OVERLAP = 256
_MAX_ITER = 10_000

_SENTENCE_BREAKS = (". ", "。", "! ", "？", "? ", "！", "\n")


def _best_break_point(text: str, start: int, end: int, chunk_size: int) -> int:
    """document_chunker.py:80-113: prefer the last paragraph break past the
    half-window, else the latest sentence break past the half-window (+1 to
    include the punctuation), else the hard cut."""
    half = start + chunk_size // 2
    paragraph_break = text.rfind("\n\n", start, end)
    if paragraph_break != -1 and paragraph_break > half:
        return paragraph_break
    breaks = [text.rfind(sep, start, end) for sep in _SENTENCE_BREAKS]
    valid = [b for b in breaks if b != -1 and b > half]
    if valid:
        return max(valid) + 1
    return end


def chunk_text(
    text: str,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    chunk_overlap: int = DEFAULT_CHUNK_OVERLAP,
) -> List[str]:
    """Reference document_chunker.py:27-78 semantics exactly: empty /
    whitespace-only → [""], short text → [text], else overlapping windows
    with boundary snapping, stripped, empty chunks dropped, with the same
    forced-progress guard against pathological boundaries."""
    if not text or not text.strip():
        return [""]
    if len(text) <= chunk_size:
        return [text]
    chunks: List[str] = []
    start = 0
    it = 0
    while start < len(text) and it < _MAX_ITER:
        it += 1
        end = start + chunk_size
        if end < len(text):
            end = _best_break_point(text, start, end, chunk_size)
        chunk = text[start:end].strip()
        if chunk:
            chunks.append(chunk)
        old_start = start
        start = end - chunk_overlap if end < len(text) else len(text)
        if start <= old_start and it > 1:
            start = old_start + max(1, chunk_size // 2)
    return chunks


def chunk_batch(
    batch: pa.Table,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    chunk_overlap: int = DEFAULT_CHUNK_OVERLAP,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pa.Table:
    """Flat-map chunking stage: (id, text) rows → (id, chunk_index, chunk)
    rows.  chunk_index mirrors the reference's per-document enumeration
    (document_processor.py:85-105)."""
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    out_ids: List = []
    out_idx: List[int] = []
    out_chunks: List[str] = []
    for d, t in zip(ids, texts):
        for i, c in enumerate(chunk_text(t or "", chunk_size, chunk_overlap)):
            out_ids.append(d)
            out_idx.append(i)
            out_chunks.append(c)
    return pa.table(
        {
            id_col: pa.array(out_ids, type=batch.column(id_col).type),
            "chunk_index": pa.array(out_idx, type=pa.int32()),
            "chunk": pa.array(out_chunks, type=pa.string()),
        }
    )


# ------------------------------------------------------------------ snippets

def find_match_positions(
    content: str, terms: List[str], case_sensitive: bool = False
) -> List[Tuple[int, int]]:
    """(start, end) spans of every term occurrence, in position order."""
    if not content:
        return []
    hay = content if case_sensitive else content.lower()
    spans: List[Tuple[int, int]] = []
    for t in terms:
        if not t:
            continue
        needle = t if case_sensitive else t.lower()
        at = hay.find(needle)
        while at != -1:
            spans.append((at, at + len(needle)))
            at = hay.find(needle, at + 1)
    return sorted(spans)


def extract_snippet(
    content: str,
    match_positions: List[Tuple[int, int]],
    length: int = 200,
    context_window: int = 50,
) -> str:
    """snippet_extractor.py:9-107 semantics: center on the first match,
    expand symmetrically toward the target length, grow to cover every
    match, truncate from the end if over-length."""
    if not content or not content.strip():
        return ""
    if not match_positions:
        return content if len(content) <= length else content[:length].strip()
    first = match_positions[0]
    center = (first[0] + first[1]) // 2
    start = max(0, center - context_window)
    end = min(len(content), center + context_window)
    cur = end - start
    if cur < length:
        expansion = (length - cur) // 2
        new_start = max(0, start - expansion)
        new_end = min(len(content), end + expansion)
        for ms, me in match_positions:
            new_start = min(new_start, ms)
            new_end = max(new_end, me)
        if new_end - new_start > length:
            new_end = new_start + length
        start, end = new_start, min(len(content), new_end)
    return content[start:end]


def snippet_for_terms(
    content: str, terms: List[str], length: int = 200, context_window: int = 50
) -> str:
    return extract_snippet(
        content, find_match_positions(content, terms), length, context_window
    )


# ------------------------------------------------------------------ highlight

DEFAULT_HIGHLIGHT_FORMAT = "**{}**"


def highlight_matches(
    text: str,
    matches: List[str],
    case_sensitive: bool = False,
    highlight_format: str = DEFAULT_HIGHLIGHT_FORMAT,
) -> str:
    """text_highlighter.py:19-80: per-term word-boundary regex substitution;
    terms shorter than 2 chars are skipped; each term applied in order over
    the running result (so earlier insertions are visible to later terms,
    exactly like the reference)."""
    if not matches:
        return text
    out = text
    for m in matches:
        if len(m) < 2:
            continue
        flags = 0 if case_sensitive else re.IGNORECASE
        pattern = re.compile(r"\b" + re.escape(m) + r"\b", flags)
        out = pattern.sub(lambda g: highlight_format.format(g.group()), out)
    return out


def remove_highlights(text: str) -> str:
    return re.sub(r"\*\*(.*?)\*\*", r"\1", text)


# ------------------------------------------------------------- snippet strategies
#
# Reference retriever/search/snippet_strategies.py:11-239 (Strategy ABC with
# fixed_length / sentence_boundary / paragraph_boundary) +
# japanese_snippet_processor.py:7-139 boundary rules +
# snippet_processor.py:109-165 match finding.  Conformance pinned against the
# importlib-loaded reference classes in tests/test_textproc.py.

from dataclasses import dataclass


@dataclass
class SnippetMatch:
    """snippet_types.SnippetMatch — (start, end, text, score)."""

    start: int
    end: int
    text: str
    score: float = 0.0


_JP_SENTENCE_ENDINGS = re.compile(r"[。！？]")
_PARAGRAPH_BREAKS = re.compile(r"\n\s*\n")
_JP_ANY = re.compile(r"[぀-ゟ゠-ヿ一-龯]")
_EN_SENTENCE_END = re.compile(r"[.!?]\s+")


def find_query_matches(content: str, query: str) -> List[SnippetMatch]:
    """snippet_processor.py:109-165: exact-phrase occurrences score 1.0,
    word-boundary single-word occurrences score 0.5 (words < 2 chars
    skipped)."""
    matches: List[SnippetMatch] = []
    if not content or not query:
        return matches
    content_lower = content.lower()
    query_lower = query.lower()
    start = 0
    while True:
        pos = content_lower.find(query_lower, start)
        if pos == -1:
            break
        matches.append(SnippetMatch(pos, pos + len(query), content[pos : pos + len(query)], 1.0))
        start = pos + 1
    for word in query.split():
        if len(word) < 2:
            continue
        wl = word.lower()
        start = 0
        while True:
            pos = content_lower.find(wl, start)
            if pos == -1:
                break
            if (pos == 0 or not content[pos - 1].isalnum()) and (
                pos + len(word) >= len(content) or not content[pos + len(word)].isalnum()
            ):
                matches.append(
                    SnippetMatch(pos, pos + len(word), content[pos : pos + len(word)], 0.5)
                )
            start = pos + 1
    return matches


def is_japanese_text(text: str) -> bool:
    """japanese_snippet_processor.py:54-68."""
    return bool(text) and bool(_JP_ANY.search(text))


def adjust_to_jp_sentence_boundaries(text: str) -> str:
    """japanese_snippet_processor.py:92-114: cut at the LAST 。！？."""
    ends = [m.end() for m in _JP_SENTENCE_ENDINGS.finditer(text)]
    return text[: ends[-1]].strip() if ends else text


def adjust_to_jp_paragraph_boundaries(text: str) -> str:
    """japanese_snippet_processor.py:116-139: cut at the LAST blank line,
    else fall back to sentence boundaries."""
    starts = [m.start() for m in _PARAGRAPH_BREAKS.finditer(text)]
    if starts:
        return text[: starts[-1]].strip()
    return adjust_to_jp_sentence_boundaries(text)


def _avoid_word_breaks(text: str) -> str:
    """snippet_strategies.py:156-181."""
    if not text:
        return text
    if text[-1].isalnum():
        for i in range(len(text) - 1, -1, -1):
            if not text[i].isalnum():
                return text[: i + 1].strip()
        for i in range(len(text)):
            if not text[i].isalnum():
                return text[:i].strip()
    return text.strip()


def _adjust_to_en_sentence_boundaries(text: str) -> str:
    """snippet_strategies.py:132-154: cut after the last '[.!?]\\s+', else
    avoid breaking the final word."""
    ms = list(_EN_SENTENCE_END.finditer(text))
    if ms:
        return text[: ms[-1].end()].strip()
    return _avoid_word_breaks(text)


def _adjust_to_en_paragraph_boundaries(text: str) -> str:
    """snippet_strategies.py:220-239."""
    ms = list(_PARAGRAPH_BREAKS.finditer(text))
    if ms:
        return text[: ms[-1].start()].strip()
    return _adjust_to_en_sentence_boundaries(text)


def snippet_fixed(content: str, matches: List[SnippetMatch], length: int = 300) -> str:
    """snippet_strategies.py:57-92 FixedLengthStrategy: center the window on
    the best-scoring match (first on ties, like Python max)."""
    if not content:
        return ""
    if not matches:
        return content if len(content) <= length else content[:length].strip()
    best = max(matches, key=lambda m: m.score)
    center = (best.start + best.end) // 2
    half = length // 2
    start = max(0, center - half)
    end = min(len(content), start + length)
    if end == len(content):
        start = max(0, end - length)
    return content[start:end].strip()


def snippet_sentence(
    content: str,
    matches: List[SnippetMatch],
    length: int = 300,
    prefer_complete_sentences: bool = True,
    japanese_aware: bool = True,
) -> str:
    """snippet_strategies.py:95-130 SentenceBoundaryStrategy: fixed window,
    then boundary-adjust (JP rules when the snippet contains Japanese),
    falling back to the fixed window if adjustment drops below 50% of the
    target length."""
    if not content:
        return ""
    initial = snippet_fixed(content, matches, length)
    if not prefer_complete_sentences:
        return initial
    if japanese_aware and is_japanese_text(initial):
        adjusted = adjust_to_jp_sentence_boundaries(initial)
    else:
        adjusted = _adjust_to_en_sentence_boundaries(initial)
    if len(adjusted) < length * 0.5:
        return initial
    return adjusted


def snippet_paragraph(
    content: str,
    matches: List[SnippetMatch],
    length: int = 300,
    prefer_complete_sentences: bool = True,
    japanese_aware: bool = True,
) -> str:
    """snippet_strategies.py:184-218 ParagraphBoundaryStrategy: sentence
    snippet, then paragraph-adjust, falling back below 30% of target."""
    if not content:
        return ""
    initial = snippet_sentence(content, matches, length, prefer_complete_sentences, japanese_aware)
    if japanese_aware and is_japanese_text(initial):
        adjusted = adjust_to_jp_paragraph_boundaries(initial)
    else:
        adjusted = _adjust_to_en_paragraph_boundaries(initial)
    if len(adjusted) < length * 0.3:
        return initial
    return adjusted


SNIPPET_STRATEGIES = {
    "fixed_length": snippet_fixed,
    "sentence_boundary": snippet_sentence,
    "paragraph_boundary": snippet_paragraph,
}


def generate_snippet(
    content: str, query: str, length: int = 300, strategy: str = "sentence_boundary"
) -> str:
    """Query → matches → strategy snippet (reference default strategy is
    sentence_boundary, snippet_types.SnippetConfig)."""
    matches = find_query_matches(content, query)
    return SNIPPET_STRATEGIES[strategy](content, matches, length)
