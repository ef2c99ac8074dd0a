"""Cross-encoder reranking stage (SURVEY §2-T4/K2).

Reference flow (`retriever/services/reranker.py:60-257` and
`search_orchestrator.py:76-95`): retrieve ``top_k × multiplier`` candidates
(multiplier 2, `config/indexer.py:56`), score (query, content) pairs with a
cross-encoder in batches of 16, re-sort descending, truncate to ``top_k``.

The torch/ONNX model is not available in this container, so — as with the
multimodal codec — the model call is stubbed two ways, both clearly marked:
``RealCrossEncoderStub`` raises ``NotImplementedError`` at the exact seam
where a model would plug in, and ``FakeCrossEncoder`` is a deterministic
stand-in (lexical-overlap scoring) so the surrounding flow — actor-pool
batching, multiplier/truncation arithmetic, stable re-sort — is real and
tested.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd

DEFAULT_TOP_K_MULTIPLIER = 2  # reference config/indexer.py:56
DEFAULT_RERANK_BATCH = 16  # reference config/indexer.py:34


class FakeCrossEncoder:
    """Deterministic cross-encoder stand-in: scores a (query, doc) pair by
    word-overlap Jaccard — load in ``__init__`` (the once-per-actor seam),
    batched ``predict`` like a real model."""

    def __init__(self, batch_size: int = DEFAULT_RERANK_BATCH) -> None:
        self.batch_size = batch_size

    def predict(self, pairs: Sequence[tuple]) -> np.ndarray:
        out = np.zeros(len(pairs), dtype=np.float64)
        for start in range(0, len(pairs), self.batch_size):  # model-style batching
            for i, (q, d) in enumerate(pairs[start : start + self.batch_size]):
                qs = set((q or "").lower().split())
                ds = set((d or "").lower().split())
                union = len(qs | ds)
                out[start + i] = (len(qs & ds) / union) if union else 0.0
        return out


class RealCrossEncoderStub:
    """Seam for a real torch/ONNX cross-encoder.

    Loads ``sentence_transformers.CrossEncoder`` when importable (NOT in
    this container) and scores (query, text) pairs with the reference
    semantics (reranker.py:60-257); otherwise ``predict`` raises at this
    exact seam and ``FakeCrossEncoder`` is the tested stand-in.  The shared
    contract (predict(pairs) → float64 ndarray, len == len(pairs)) is
    pinned in tests/test_real_model_contract.py, which re-runs against the
    real weights under ``OBOYU_RAY_REAL_MODELS=1``."""

    def __init__(self, model_name: str = "cl-nagoya/ruri-reranker-small") -> None:
        self.model_name = model_name
        self._model = None
        try:  # pragma: no cover - torch absent in this container
            from sentence_transformers import CrossEncoder

            self._model = CrossEncoder(model_name)
        except ImportError:
            pass

    def predict(self, pairs: Sequence[tuple]) -> np.ndarray:
        if self._model is None:
            raise NotImplementedError(
                "cross-encoder inference requires torch/onnxruntime, absent in "
                "this container; use FakeCrossEncoder for the tested flow"
            )
        return np.asarray(  # pragma: no cover
            self._model.predict(list(pairs)), dtype=np.float64
        )


def rerank(
    query: str,
    candidates: pd.DataFrame,
    top_k: int,
    encoder=None,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Re-score candidates with the (stub) cross-encoder and truncate.

    ``candidates`` should hold ``top_k × multiplier`` rows (the caller
    over-fetches, search_orchestrator.py:76-79).  Result is sorted by
    (rerank score DESC, original order) — the reference's stable sort —
    truncated to ``top_k``, with the new score in ``rerank_score``.
    """
    if candidates.empty:
        return candidates.assign(rerank_score=pd.Series(dtype=np.float64))
    enc = encoder or FakeCrossEncoder()
    pairs = [(query, t) for t in candidates[text_col].tolist()]
    scores = enc.predict(pairs)
    out = candidates.copy()
    out["rerank_score"] = scores
    out = out.sort_values("rerank_score", ascending=False, kind="mergesort")
    return out.head(top_k).reset_index(drop=True)
