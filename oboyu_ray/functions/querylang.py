"""Query-language helpers shared by the brute-force scorer
(``pipelines/bm25_batch``) and the index engine (``pipelines/query``,
``state/shards``, ``state/fuzzy_index``): the boolean-query parser, synonym
groups, wildcard → regex translation, and Levenshtein term matching.

Pure functions over strings and term lists — no Ray, no index state — so
both tiers expand a query the same way while sharing no scoring code.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

import numpy as np


# ----------------------------------------------------------- boolean queries

def parse_bool_query(s: str):
    """Parse ``(a AND b) OR c NOT d`` into a nested-list AST:
    ``["or"|"and", x, y, ...]`` / ``["not", x]`` / term string.  Precedence
    NOT > AND > OR; ``a NOT b`` is sugar for ``a AND (NOT b)`` (the Lucene
    query-parser convention); parens group.  Terms are lowercased single
    tokens (the caller's tokenizer normalization is NOT applied — boolean
    queries name index terms directly)."""
    toks = re.findall(r"\(|\)|[^\s()]+", s)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def eat(t=None):
        nonlocal pos
        if pos >= len(toks) or (t is not None and toks[pos] != t):
            raise ValueError(f"bool query parse error at token {pos}: {s!r}")
        pos += 1
        return toks[pos - 1]

    def atom():
        if peek() == "(":
            eat("(")
            node = expr_or()
            eat(")")
            return node
        if peek() in (")", "AND", "OR", "NOT", None):
            raise ValueError(f"bool query parse error: unexpected {peek()!r} in {s!r}")
        return eat().lower()

    def expr_not():
        if peek() == "NOT":
            eat("NOT")
            return ["not", expr_not()]
        return atom()

    def expr_and():
        node = expr_not()
        while peek() in ("AND", "NOT"):
            if peek() == "NOT":  # infix NOT: a NOT b == a AND (NOT b)
                eat("NOT")
                node = ["and", node, ["not", expr_not()]]
            else:
                eat("AND")
                node = ["and", node, expr_not()]
        return node

    def expr_or():
        node = expr_and()
        while peek() == "OR":
            eat("OR")
            node = ["or", node, expr_and()]
        return node

    out = expr_or()
    if pos != len(toks):
        raise ValueError(f"bool query parse error: trailing tokens in {s!r}")
    return out


def bool_leaves(tree, negated: bool = False):
    """(positive_terms, all_terms): positive = leaves under an EVEN number
    of NOTs (they score); the rest are filter-only (Lucene MUST_NOT)."""
    if isinstance(tree, str):
        return (set() if negated else {tree}), {tree}
    op = tree[0]
    if op == "not":
        return bool_leaves(tree[1], not negated)
    pos: set = set()
    al: set = set()
    for sub in tree[1:]:
        p, a = bool_leaves(sub, negated)
        pos |= p
        al |= a
    return pos, al


def render_bool_query(tree) -> str:
    """Canonical string form of an AST (used as query_id)."""
    if isinstance(tree, str):
        return tree
    op = tree[0]
    if op == "not":
        return f"NOT {render_bool_query(tree[1])}"
    joiner = f" {op.upper()} "
    return "(" + joiner.join(render_bool_query(x) for x in tree[1:]) + ")"


# ------------------------------------------------------------ synonyms

def synonym_groups(
    terms: Sequence[str], synonyms: Dict[str, Sequence[str]]
) -> "List[List[str]]":
    """Per query-token synonym group: ``[t] + synonyms[t]`` (one-directional
    map form, duplicates dropped, member order sorted).  A token without an
    entry is a singleton group — plain term scoring."""
    out = []
    for t in terms:
        g = sorted({t, *synonyms.get(t, ())})
        out.append(g)
    return out


# --------------------------------------------------- regex / wildcard terms

def wildcard_to_regex(pattern: str) -> str:
    """Lucene WildcardQuery → regex: ``*`` matches any run (incl. empty),
    ``?`` exactly one codepoint; everything else is literal.  The output is
    RE2-safe (no backrefs / lookaround), so pyarrow and DuckDB agree."""
    out = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


def _anchored(pattern: str) -> str:
    """Full-term match semantics (Lucene RegexpQuery anchors implicitly)."""
    return f"^(?:{pattern})$"


# ------------------------------------------------------------ fuzzy terms

def lev_at_most(a: str, b: str, d: int) -> bool:
    """True iff levenshtein(a, b) <= d.  Banded DP (band width 2d+1) with an
    early abort when the whole band exceeds d — O(min(len)·d) per pair.
    Plain Levenshtein (insert/delete/substitute, NO transposition), matching
    DuckDB's ``levenshtein()`` so the SQL oracle reproduces the expansion."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > d:
        return False
    if la > lb:  # iterate the shorter string's rows
        a, b, la, lb = b, a, lb, la
    big = d + 1
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        lo = max(1, i - d)
        hi = min(lb, i + d)
        cur = [big] * (lb + 1)
        cur[lo - 1] = prev[lo - 1] + 1 if lo == 1 else big
        ca = a[i - 1]
        best = cur[lo - 1]
        for j in range(lo, hi + 1):
            c = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ca != b[j - 1]),
            )
            cur[j] = c
            if c < best:
                best = c
        if best > d:
            return False
        prev = cur
    return prev[lb] <= d


def fuzzy_mask(
    terms, q: str, d: int, lens: "np.ndarray | None" = None
) -> np.ndarray:
    """Boolean mask over ``terms`` where levenshtein(term, q) <= d.

    d == 1 is EXACT and fully vectorized via the prefix+suffix
    decomposition: with |len(t) − len(q)| ≤ 1, lev(t, q) ≤ 1 ⟺
    common_prefix + common_suffix ≥ len(t) − 1 when lengths are equal
    (≤1 substitution at the single uncovered position), or ≥ min(len)
    when they differ by 1 (the shorter splits into a prefix+suffix of the
    longer around one inserted char).  Terms group by length; each group
    packs into an (n, L) codepoint matrix (utf-32) and the prefix/suffix
    runs are two cumprod-sums — no per-term Python.  d ≥ 2 falls back to
    the banded DP on length-band survivors (rare query shape; wide
    expansions hit max_terms first anyway)."""
    n = len(terms)
    if lens is None:
        lens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=n)
    mask = np.zeros(n, dtype=bool)
    lq = len(q)
    if lq == 0 or n == 0:
        return mask
    if d == 1:
        qa = np.frombuffer(q.encode("utf-32-le"), dtype=np.uint32)
        for L in (lq - 1, lq, lq + 1):
            if L < 1:
                continue
            sel = np.flatnonzero(lens == L)
            if not len(sel):
                continue
            blob = "".join([terms[i] for i in sel])
            mat = np.frombuffer(blob.encode("utf-32-le"), dtype=np.uint32)
            mat = mat.reshape(len(sel), L)
            m = min(L, lq)
            cp = (mat[:, :m] == qa[:m]).cumprod(axis=1).sum(axis=1)
            cs = (mat[:, L - m:][:, ::-1] == qa[lq - m:][::-1]).cumprod(axis=1).sum(axis=1)
            ok = (cp + cs) >= (L - 1 if L == lq else m)
            mask[sel[ok]] = True
        return mask
    cand = np.flatnonzero(np.abs(lens - lq) <= d)
    for ix in cand:
        if lev_at_most(terms[ix], q, d):
            mask[ix] = True
    return mask


class FuzzyVocab:
    """Pre-packed vocabulary for repeated fuzzy expansions: terms sorted by
    length into ONE flat codepoint array, so each query's per-length
    matrices are zero-copy reshaped views — the join+encode packing cost
    (~1-2 s at 4M terms) is paid once, per-query work is just the
    vectorized compares (~10-40 ms at 4M terms)."""

    def __init__(self, terms: "List[str]") -> None:
        n = len(terms)
        lens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=n)
        order = np.argsort(lens, kind="stable")
        self.terms = terms
        self.order = order
        self.lens_sorted = lens[order]
        blob = "".join([terms[i] for i in order])
        self.flat = np.frombuffer(blob.encode("utf-32-le"), dtype=np.uint32)
        self.flat_start = np.cumsum(self.lens_sorted) - self.lens_sorted

    def candidates(self, q: str, d: int) -> np.ndarray:
        """Original indices of terms with levenshtein(term, q) <= d (d=1
        exact vectorized, d>=2 banded-DP fallback over the length band)."""
        lq = len(q)
        if lq == 0 or not len(self.order):
            return np.zeros(0, dtype=np.int64)
        if d == 1:
            qa = np.frombuffer(q.encode("utf-32-le"), dtype=np.uint32)
            hits = []
            for L in (lq - 1, lq, lq + 1):
                if L < 1:
                    continue
                rs = int(np.searchsorted(self.lens_sorted, L, side="left"))
                re_ = int(np.searchsorted(self.lens_sorted, L, side="right"))
                if rs == re_:
                    continue
                fs = int(self.flat_start[rs])
                mat = self.flat[fs : fs + (re_ - rs) * L].reshape(re_ - rs, L)
                m = min(L, lq)
                cp = (mat[:, :m] == qa[:m]).cumprod(axis=1).sum(axis=1)
                cs = (mat[:, L - m:][:, ::-1] == qa[lq - m:][::-1]).cumprod(axis=1).sum(axis=1)
                ok = (cp + cs) >= (L - 1 if L == lq else m)
                hits.append(self.order[rs:re_][ok])
            return (
                np.concatenate(hits).astype(np.int64)
                if hits
                else np.zeros(0, dtype=np.int64)
            )
        rs = int(np.searchsorted(self.lens_sorted, lq - d, side="left"))
        re_ = int(np.searchsorted(self.lens_sorted, lq + d, side="right"))
        band = self.order[rs:re_]
        return np.array(
            [int(i) for i in band if lev_at_most(self.terms[int(i)], q, d)],
            dtype=np.int64,
        )


def _fuzzy_term_mask(terms, qspecs: "Sequence[Tuple[str, int]]"):
    """Boolean numpy mask over ``terms`` (a python list) — True where a term
    is within max_edits of ANY query spec (vectorized per spec)."""
    lens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=len(terms))
    mask = np.zeros(len(terms), dtype=bool)
    for q, d in qspecs:
        mask |= fuzzy_mask(terms, q, int(d), lens=lens)
    return mask
