"""In-repo BM25 spec oracle: the reference ``BM25Indexer`` semantics written
down from PAPER.md / SURVEY §1, in plain Python dicts.

* idf(t) = ln((N − df + 0.5) / (df + 0.5)) — NO Lucene ``+1``, so a term in
  more than half the documents has a NEGATIVE idf;
* dl = Σ tf over the document's tokens AFTER tokenization; avgdl = Σ dl / N,
  where N counts every document, empty ones included;
* k1 = 1.2, b = 0.75;
* score(q, d) = Σ over query-term OCCURRENCES, in query-term order, of
  idf(t) · tf·(k1+1) / (tf + k1·(1 − b + b·dl/avgdl)) — a duplicated query
  term counts once per occurrence; a term absent from d adds 0, and a doc
  that tokenizes to nothing scores 0;
* candidates are the docs holding ≥1 query term; top-k ranks by
  (score_micros DESC, doc ASC) with score_micros = floor(score·1e6 + 0.5).

It shares no code with ``oboyu_ray``: the caller passes the tokenizer (the
engine's ``get_tokenizer(cfg).tokenize``), which is the one thing both sides
must agree on by construction.  No reference checkout is needed.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

K1 = 1.2
B = 0.75


def spec_idf(df: int, n_docs: int) -> float:
    return math.log((n_docs - df + 0.5) / (df + 0.5))


def spec_micros(score: float) -> int:
    return math.floor(score * 1e6 + 0.5)


class SpecBM25:
    """Plain-dict BM25 over ``{doc_id: text}``."""

    def __init__(self, texts: Dict[Hashable, str], tokenize: Callable[[str], List[str]]):
        self.tf = {d: Counter(tokenize(t or "")) for d, t in texts.items()}
        self.dl = {d: sum(c.values()) for d, c in self.tf.items()}
        self.n = len(texts)
        self.avgdl = sum(self.dl.values()) / self.n if self.n else 0.0
        self.df: Counter = Counter()
        for c in self.tf.values():
            self.df.update(c.keys())

    def score(self, terms: Sequence[str], doc: Hashable) -> float:
        dl = self.dl[doc]
        if dl == 0:
            return 0.0
        s = 0.0
        for t in terms:
            tf = self.tf[doc].get(t, 0)
            if tf == 0:
                continue
            norm = tf + K1 * (1 - B + B * (dl / self.avgdl))
            s += spec_idf(self.df[t], self.n) * (tf * (K1 + 1)) / norm
        return s

    def scores(self, terms: Sequence[str]) -> Dict[Hashable, float]:
        """Score of every candidate doc (≥1 query term present)."""
        qs = set(terms)
        return {d: self.score(terms, d) for d, c in self.tf.items() if qs & c.keys()}

    def topk(self, terms: Sequence[str], k: int) -> List[Tuple[Hashable, int]]:
        """(doc, score_micros) ranked by (score_micros DESC, doc ASC)."""
        rows = [(d, spec_micros(s)) for d, s in self.scores(terms).items()]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[:k]
