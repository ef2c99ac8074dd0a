"""Seeded benchmark inputs: transcript corpora and query streams.

The generator lives with the benchmark, not in the package, so a change to
``oboyu_ray`` cannot change what the benchmark feeds it.  Everything is a
pure function of the seed: the same seed gives byte-identical Parquet.

Two vocabularies:

* ``hot``  — ~100 content words plus a few particle-like words that occur in
  most turns (df > N/2, so their idf is negative).  Every query term has a
  large df and queries repeat, so the shards' decode cache stays resident.
* ``tail`` — a Zipf vocabulary of 200k words.  Queries draw low-df words
  without replacement, so no query reuses a posting list another decoded.

Transcript schema: ``conv_id, turn_idx, role, text, tool, ts``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

HOT_CONTENT = (
    "search index token vector query ranking parquet dataset batch stream "
    "shuffle partition actor worker cluster latency throughput compress "
    "decode merge pipeline schema column arrow python model prompt agent "
    "error retry timeout cache memory gradient training corpus document "
    "retrieval embedding checkpoint lineage metric skew salt block posting "
    "wand score frequency window bound "
    "検索 索引 形態素 解析 日本語 文書 変換 処理 分散 計算 高速 圧縮 辞書 "
    "単語 頻度 統計 質問 回答 会話 履歴 結果 評価 学習 推論 談話 翻訳 要約 "
    "抽出 分類 構築 設計 実装 性能 測定 改善 最適化 エンジン クエリ トークン "
    "ベクトル ランキング システム データ モデル キャッシュ ノード クラスタ"
).split()
# particle-like words: none is a stop word, so each survives tokenization
# and lands in most turns (negative idf)
HOT_PARTICLES = ["した", "ので", "just", "also", "then"]
PARTICLE_SHARE = 0.3

TAIL_VOCAB = 200_000
TAIL_ALPHA = 1.07

ROLES = np.array(["user", "assistant", "tool"], dtype=object)
TOOLS = np.array(["", "", "", "bash", "search", "read_file", "python"], dtype=object)
EPOCH_US = 1_735_689_600_000_000  # 2025-01-01T00:00:00


@dataclass(frozen=True)
class Corpus:
    files: List[str]
    texts: List[str]          # turn text in global row order
    word_ids: np.ndarray      # all words, concatenated in row order
    offsets: np.ndarray       # row i owns word_ids[offsets[i]:offsets[i+1]]
    vocab: np.ndarray         # word id -> word
    conv_start: np.ndarray    # conversation number -> row of its first turn

    @property
    def n_turns(self) -> int:
        return len(self.texts)

    @property
    def text_bytes(self) -> int:
        return sum(len(t.encode("utf-8")) for t in self.texts)

    def row_of(self, conv_id: str, turn_idx: int) -> int:
        """Global row of a turn, from its conversation id ``c<number>``."""
        return int(self.conv_start[int(conv_id[1:])]) + int(turn_idx)


def hot_vocab() -> np.ndarray:
    return np.array(HOT_CONTENT + HOT_PARTICLES, dtype=object)


def tail_vocab() -> np.ndarray:
    return np.array([f"w{i:05x}" for i in range(TAIL_VOCAB)], dtype=object)


def _draw_words(rng: np.random.Generator, vocab: str, n: int) -> np.ndarray:
    if vocab == "hot":
        n_content = len(HOT_CONTENT)
        w = 1.0 / np.arange(1, n_content + 1) ** 0.7
        content = rng.choice(n_content, size=n, p=w / w.sum())
        particle = n_content + rng.integers(0, len(HOT_PARTICLES), size=n)
        return np.where(rng.random(n) < PARTICLE_SHARE, particle, content)
    if vocab == "tail":
        w = np.arange(1, TAIL_VOCAB + 1, dtype=np.float64) ** -TAIL_ALPHA
        cum = np.cumsum(w / w.sum())
        return np.minimum(np.searchsorted(cum, rng.random(n)), TAIL_VOCAB - 1)
    raise ValueError(f"unknown vocabulary {vocab!r}")


def make_corpus(out_dir: str, vocab: str, n_convs: int, n_files: int, seed: int) -> Corpus:
    """Write ``n_files`` Parquet files of consecutive conversations and
    return the corpus with its word-level ground truth."""
    rng = np.random.default_rng([seed, 1 if vocab == "hot" else 2])
    words = hot_vocab() if vocab == "hot" else tail_vocab()
    n_turns = rng.integers(2, 15, size=n_convs)
    total = int(n_turns.sum())
    n_words = rng.integers(3, 61, size=total)
    blank = rng.random(total)
    n_words[blank < 0.02] = 0  # ~1% empty and ~1% whitespace-only turns
    offsets = np.concatenate(([0], np.cumsum(n_words)))
    word_ids = _draw_words(rng, vocab, int(offsets[-1]))
    word_strs = words[word_ids]
    texts = [
        " ".join(word_strs[offsets[i]:offsets[i + 1]]) if n_words[i]
        else ("" if blank[i] < 0.01 else "   ")
        for i in range(total)
    ]
    conv_of_row = np.repeat(np.arange(n_convs), n_turns)
    conv_ids = np.array([f"c{i:08d}" for i in range(n_convs)], dtype=object)[conv_of_row]
    turn_idx = np.concatenate([np.arange(t) for t in n_turns]).astype(np.int32)
    tools = TOOLS[rng.integers(0, len(TOOLS), size=total)]
    ts = EPOCH_US + conv_of_row * 37_000_000 + turn_idx.astype(np.int64) * 11_000_000

    os.makedirs(out_dir, exist_ok=True)
    conv_bounds = np.linspace(0, n_convs, n_files + 1).astype(np.int64)
    row_bounds = np.concatenate(([0], np.cumsum(n_turns)))[conv_bounds]
    files = []
    for f in range(n_files):
        lo, hi = int(row_bounds[f]), int(row_bounds[f + 1])
        table = pa.Table.from_arrays(
            [
                pa.array(conv_ids[lo:hi], type=pa.string()),
                pa.array(turn_idx[lo:hi], type=pa.int32()),
                pa.array(ROLES[turn_idx[lo:hi] % 3], type=pa.string()),
                pa.array(texts[lo:hi], type=pa.string()),
                pa.array(tools[lo:hi], type=pa.string()),
                pa.array(ts[lo:hi], type=pa.timestamp("us")),
            ],
            schema=SCHEMA,
        )
        path = os.path.join(out_dir, f"transcripts-{f:03d}.parquet")
        pq.write_table(table, path, compression="zstd")
        files.append(path)
    conv_start = np.concatenate(([0], np.cumsum(n_turns)[:-1]))
    return Corpus(files, texts, word_ids, offsets, words, conv_start)


def doc_freq(corpus: Corpus) -> np.ndarray:
    """Per word id, the number of turns that contain it."""
    row = np.repeat(np.arange(corpus.n_turns), np.diff(corpus.offsets))
    pairs = np.unique(row.astype(np.int64) * len(corpus.vocab) + corpus.word_ids)
    return np.bincount(pairs % len(corpus.vocab), minlength=len(corpus.vocab))


def hot_queries(seed: int, n: int) -> List[str]:
    """``n`` queries of 2-4 content words; about a third also carry a
    particle (negative idf)."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for _ in range(n):
        terms = list(rng.choice(HOT_CONTENT, size=int(rng.integers(2, 5)), replace=False))
        if rng.random() < 0.35:
            terms.insert(int(rng.integers(0, len(terms) + 1)),
                         HOT_PARTICLES[int(rng.integers(0, len(HOT_PARTICLES)))])
        out.append(" ".join(terms))
    return out


def tail_queries(corpus: Corpus, seed: int, n: int,
                 df_lo: int = 2, df_hi: int = 40) -> List[str]:
    """``n`` queries of 2-4 words whose df lies in [df_lo, df_hi], drawn
    without replacement: no two queries share a word.  Raises if the corpus
    holds too few such words."""
    rng = np.random.default_rng([seed, 4])
    df = doc_freq(corpus)
    pool = np.flatnonzero((df >= df_lo) & (df <= df_hi))
    sizes = rng.integers(2, 5, size=n)
    if sizes.sum() > len(pool):
        raise ValueError(f"{n} tail queries need {sizes.sum()} words; "
                         f"the corpus has {len(pool)} with df in [{df_lo}, {df_hi}]")
    pool = rng.permutation(pool)
    ends = np.cumsum(sizes)
    return [" ".join(corpus.vocab[pool[e - s:e]]) for s, e in zip(sizes, ends)]
