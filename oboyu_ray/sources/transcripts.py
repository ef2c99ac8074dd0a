"""Deterministic synthetic multi-turn conversation transcripts.

Shape per ``BASELINE.json.input_hint``: Parquet table with columns
(conv_id: string, turn_idx: int32, role: string, text: string, tool: string,
ts: timestamp[us]).  Mixed JP/EN text with a Zipf content-term distribution
plus high-document-frequency particle-like hot terms (は/の/です …) to
exercise skew handling, and occasional empty / whitespace-only turns (the
reference counts empty docs with dl=0 and scores them 0 —
bm25_indexer.py:327-329).

Everything is seeded and chunk-addressable: ``synth_conversation(seed, i)``
is a pure function of (seed, i), so generation parallelizes over conv ranges
and regenerating any partition yields identical bytes (the property the
resume test relies on).
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta
from typing import Iterator, List, Optional

import pyarrow as pa

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

_EN_VOCAB = [
    "search", "index", "token", "vector", "query", "ranking", "parquet",
    "dataset", "batch", "stream", "shuffle", "partition", "actor", "worker",
    "cluster", "latency", "throughput", "compress", "decode", "merge",
    "pipeline", "schema", "column", "arrow", "python", "model", "prompt",
    "agent", "tool", "error", "retry", "timeout", "cache", "memory",
    "gradient", "training", "corpus", "document", "retrieval", "embedding",
    "checkpoint", "lineage", "metric", "skew", "salt", "block", "posting",
    "wand", "score", "frequency",
]
_JP_VOCAB = [
    "検索", "索引", "形態素", "解析", "日本語", "文書", "変換", "処理",
    "分散", "計算", "高速", "圧縮", "辞書", "単語", "頻度", "統計",
    "質問", "回答", "会話", "履歴", "結果", "評価", "学習", "推論",
    "談話", "翻訳", "要約", "抽出", "分類", "構築", "設計", "実装",
    "性能", "測定", "改善", "最適化", "エンジン", "クエリ", "トークン",
    "ベクトル", "ランキング", "システム", "データ", "モデル", "キャッシュ",
    "ノード", "クラスタ", "パーティション", "シャッフル", "ブロック",
]
# hot particle-like terms — near-every-doc document frequency (skew drivers);
# NOTE: single-char particles (は, の, …) are dropped by min_token_length=2,
# so include 2+ char hot terms that actually survive tokenization.
_HOT_TERMS = ["です", "ます", "これ", "した", "ので", "から", "the", "and", "of"]
_ROLES = ["user", "assistant", "tool"]
_TOOLS = ["", "", "", "bash", "search", "read_file", "python"]
_EPOCH = datetime(2025, 1, 1)


def _zipf_choice(rng: random.Random, vocab: List[str]) -> str:
    # Zipf-ish: rank r chosen with P(r) ∝ 1/(r+1)
    n = len(vocab)
    # inverse-CDF sampling over harmonic weights, precomputed cheaply
    u = rng.random()
    # approximate via power transform (good enough for a skewed synthetic dist)
    r = int(n ** u) - 1
    return vocab[min(max(r, 0), n - 1)]


def synth_conversation(seed: int, conv_i: int) -> dict:
    """Generate one conversation as a dict of column lists (pure function)."""
    rng = random.Random((seed << 32) ^ conv_i)
    conv_id = f"c{conv_i:08d}"
    n_turns = rng.randint(2, 14)
    cols: dict = {k: [] for k in ("conv_id", "turn_idx", "role", "text", "tool", "ts")}
    t0 = _EPOCH + timedelta(seconds=conv_i * 37)
    for turn in range(n_turns):
        r = rng.random()
        if r < 0.01:
            text = ""
        elif r < 0.02:
            text = "   "
        else:
            n_words = rng.randint(3, 60)
            words = []
            for _ in range(n_words):
                p = rng.random()
                if p < 0.25:
                    words.append(rng.choice(_HOT_TERMS))
                elif p < 0.65:
                    words.append(_zipf_choice(rng, _EN_VOCAB))
                else:
                    words.append(_zipf_choice(rng, _JP_VOCAB))
            # occasionally glue JP words (no spaces) like real JP text
            if rng.random() < 0.3:
                text = "".join(w for w in words)
            else:
                text = " ".join(words)
        cols["conv_id"].append(conv_id)
        cols["turn_idx"].append(turn)
        cols["role"].append(_ROLES[turn % 3])
        cols["tool"].append(rng.choice(_TOOLS))
        cols["text"].append(text)
        cols["ts"].append(t0 + timedelta(seconds=turn * 11))
    return cols


# ---------------------------------------------------------------- zipf mode
# A second, Zipf-REALISTIC corpus (VERDICT r3 #7): ~10^5 distinct content
# words with P(rank r) ∝ 1/(r+1)^alpha, alpha ≈ 1.07 (web-text-like).  The
# default "bench" corpus above is adversarially scan-heavy (~100 content
# words, every query term df ≈ 10^6-7); this one has a realistic df ladder
# (a handful of stop-like heads, a long tail of rare terms) so latency
# numbers generalize.  Vectorized numpy generation: deterministic per
# (seed, conv range) — the writers key files by range, so regeneration is
# byte-identical per file.

ZIPF_VOCAB_SIZE = 100_000
ZIPF_ALPHA = 1.07
_zipf_state: dict = {}


def _zipf_tables(vocab_size: int, alpha: float):
    import numpy as np

    key = (vocab_size, alpha)
    if key not in _zipf_state:
        ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
        w = ranks ** (-alpha)
        cum = np.cumsum(w / w.sum())
        words = np.array([f"t{i:05x}" for i in range(vocab_size)], dtype=object)
        _zipf_state[key] = (cum, words)
    return _zipf_state[key]


def synth_zipf_table(
    seed: int,
    conv_start: int,
    conv_end: int,
    vocab_size: int = ZIPF_VOCAB_SIZE,
    alpha: float = ZIPF_ALPHA,
) -> pa.Table:
    """Arrow table of Zipf-vocabulary conversations [conv_start, conv_end).
    Same schema / turn structure / empty-turn rate as the bench corpus;
    only the text distribution differs."""
    import numpy as np

    cum, words = _zipf_tables(vocab_size, alpha)
    rng = np.random.default_rng((seed << 32) ^ conv_start ^ (conv_end << 1))
    n_convs = conv_end - conv_start
    n_turns = rng.integers(2, 15, size=n_convs)
    total_turns = int(n_turns.sum())
    n_words = rng.integers(3, 61, size=total_turns)
    blank = rng.random(total_turns)
    # ~1% empty and ~1% whitespace-only turns (dl=0 docs, reference semantics)
    n_words[blank < 0.02] = 0
    total_words = int(n_words.sum())
    samples = np.searchsorted(cum, rng.random(total_words))
    word_arr = words[samples]
    offsets = np.concatenate(([0], np.cumsum(n_words)))
    texts = [
        " ".join(word_arr[offsets[i] : offsets[i + 1]])
        if n_words[i]
        else ("" if blank[i] < 0.01 else "   ")
        for i in range(total_turns)
    ]
    conv_ids = np.repeat(
        np.array([f"c{conv_start + i:08d}" for i in range(n_convs)], dtype=object),
        n_turns,
    )
    turn_idx = np.concatenate([np.arange(t) for t in n_turns]).astype(np.int32)
    roles = np.array(_ROLES, dtype=object)[turn_idx % 3]
    tools = np.array(_TOOLS, dtype=object)[rng.integers(0, len(_TOOLS), size=total_turns)]
    conv_off = np.repeat(np.arange(n_convs) + conv_start, n_turns)
    ts_us = (
        (np.datetime64(_EPOCH, "us") - np.datetime64(0, "us")).astype(np.int64)
        + conv_off * 37_000_000
        + turn_idx.astype(np.int64) * 11_000_000
    )
    return pa.Table.from_arrays(
        [
            pa.array(conv_ids, type=pa.string()),
            pa.array(turn_idx, type=pa.int32()),
            pa.array(roles, type=pa.string()),
            pa.array(texts, type=pa.string()),
            pa.array(tools, type=pa.string()),
            pa.array(ts_us, type=pa.timestamp("us")),
        ],
        schema=TRANSCRIPT_SCHEMA,
    )


def synth_transcripts_table(seed: int, conv_start: int, conv_end: int) -> pa.Table:
    """Arrow table of conversations [conv_start, conv_end) — deterministic."""
    merged: dict = {k: [] for k in ("conv_id", "turn_idx", "role", "text", "tool", "ts")}
    for i in range(conv_start, conv_end):
        c = synth_conversation(seed, i)
        for k, v in c.items():
            merged[k].extend(v)
    return pa.Table.from_pydict(merged, schema=TRANSCRIPT_SCHEMA)


def _table_fn(vocab: str):
    if vocab == "zipf":
        return synth_zipf_table
    if vocab == "bench":
        return synth_transcripts_table
    raise ValueError(f"unknown synth vocab {vocab!r} (use 'bench' or 'zipf')")


def write_synth_transcripts(
    out_dir: str,
    n_convs: int,
    seed: int = 42,
    convs_per_file: int = 2_000,
    vocab: str = "bench",
) -> List[str]:
    """Write a deterministic transcript corpus as multiple parquet files
    (one per conv range — the file is the natural input shard)."""
    import os

    import pyarrow.parquet as pq

    gen_table = _table_fn(vocab)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for start in range(0, n_convs, convs_per_file):
        end = min(start + convs_per_file, n_convs)
        path = os.path.join(out_dir, f"transcripts-{start:08d}-{end:08d}.parquet")
        if not os.path.exists(path):
            tbl = gen_table(seed, start, end)
            tmp = path + ".tmp"
            pq.write_table(tbl, tmp)
            os.replace(tmp, path)
        paths.append(path)
    return paths


def write_synth_transcripts_parallel(
    out_dir: str,
    n_convs: int,
    seed: int = 42,
    convs_per_file: int = 2_000,
    vocab: str = "bench",
) -> List[str]:
    """Same corpus as ``write_synth_transcripts`` (identical bytes per file —
    generation is a pure function of (seed, conv range)) but generated by
    parallel Ray tasks.  Requires an initialised Ray session."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    gen_table = _table_fn(vocab)
    os.makedirs(out_dir, exist_ok=True)
    ranges = []
    paths = []
    for start in range(0, n_convs, convs_per_file):
        end = min(start + convs_per_file, n_convs)
        path = os.path.join(out_dir, f"transcripts-{start:08d}-{end:08d}.parquet")
        paths.append(path)
        if not os.path.exists(path):
            ranges.append({"start": start, "end": end, "path": path})
    if ranges:
        def gen(batch: pa.Table) -> Iterator[pa.Table]:
            for row in batch.to_pylist():
                tbl = gen_table(seed, row["start"], row["end"])
                tmp = row["path"] + ".tmp"
                pq.write_table(tbl, tmp)
                os.replace(tmp, row["path"])
                yield pa.table({"path": [row["path"]], "rows": [tbl.num_rows]})

        ray.data.from_items(ranges).map_batches(
            gen, batch_format="pyarrow", batch_size=1
        ).take_all()
    return paths
