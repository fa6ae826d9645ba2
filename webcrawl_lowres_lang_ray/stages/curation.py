"""Training-data curation operators: benchmark decontamination, bloom-gated
incremental dedup, temperature-scaled source mixing, and DSIR-style
importance scoring.

All four are standard components of a web-scale LLM data pipeline, built
from public descriptions only:

* n-gram benchmark decontamination — Brown et al. 2020 (GPT-3, appendix C)
  flag training documents sharing n-grams with an evaluation set;
* Bloom filter membership gate — Bloom 1970; the one-sided-error filter
  fronts the exact shuffle join so novel documents (the overwhelming
  majority at scale) never enter the exchange;
* sampling-temperature source mixing — Arivazhagan et al. 2019 (§4) style
  ``p_s^alpha / sum`` re-weighting of corpus sources;
* DSIR hashed n-gram importance weights — Xie et al. 2023: log-ratio of a
  target vs raw bag-of-hashed-bigrams model, used to rank/resample raw data
  toward a target distribution.

Scale notes (100 TB target):
* the benchmark n-gram set and the DSIR count vectors are SMALL by
  construction (a fixed eval suite / 2^16 buckets) -> broadcast once via
  ``ray.put``, read per actor, never shuffled;
* the Bloom bitmap is a mergeable per-batch partial (one 128 KiB blob per
  batch on the exchange, OR-merged) exactly like the HLL/CMS sketches in
  ``stages/sketch.py``; at larger corpora raise ``m_bits`` or tree-merge;
* only bloom-POSITIVE candidates ride the verify shuffle, one
  ``join.hash_join`` on the content-key md5.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from ..functions.hashing import md5_batch
from .agg import combiner_agg
from .join import hash_join

# ---------------------------------------------------------------------------
# shared small helpers
# ---------------------------------------------------------------------------


def _word_ngram_set(text: str, n: int) -> set[str]:
    """Distinct whitespace-word n-grams (joined with single spaces) —
    mirrors the SQL oracle's regexp_split + list_transform construction."""
    ws = text.split()
    if len(ws) < n:
        return set()
    return {" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)}


def _md5_words(hexes) -> np.ndarray:
    """Column of 32-char md5 hex digests -> (n, 4) big-endian uint32 words
    via ONE bytes.fromhex (no per-row int parsing)."""
    if len(hexes) == 0:
        return np.zeros((0, 4), dtype=np.uint32)
    return (
        np.frombuffer(bytes.fromhex("".join(hexes)), dtype=np.uint8)
        .reshape(-1, 16)[:, :16]
        .copy()
        .view(">u4")
        .astype(np.uint32)
    )


# ---------------------------------------------------------------------------
# 1. benchmark decontamination (n-gram overlap flagging)
# ---------------------------------------------------------------------------


def benchmark_ngrams(
    docs: "ray.data.Dataset",
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    bench_mod: int = 50,
) -> frozenset:
    """Distinct word n-grams of the benchmark slice (``doc_id % bench_mod
    == 0`` — the deterministic in-table stand-in for a fixed eval suite).

    The benchmark side is small by construction (real decontamination runs
    carry a fixed eval set of ~1e6 n-grams), so collecting it to the driver
    and broadcasting is the correct scale shape — the 100 TB training side
    streams."""

    def grams(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[id_col] % bench_mod == 0]
        out: set[str] = set()
        for t in b[text_col]:
            out |= _word_ngram_set(t, n)
        # dtype=object even when empty: a [] column defaults to float64,
        # which flaps the block schema across batches
        return pd.DataFrame({"gram": pd.Series(sorted(out), dtype=object)})

    parts = docs.map_batches(grams, batch_format="pandas").to_pandas()
    return frozenset(parts["gram"])


def decontaminate(
    docs: "ray.data.Dataset",
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    bench_mod: int = 50,
) -> "ray.data.Dataset":
    """Flag training documents that share >= 1 distinct word ``n``-gram with
    the benchmark slice.  Output per TRAINING doc (``doc_id % bench_mod !=
    0``): ``(doc_id, n_ngrams, overlap_ngrams, contaminated)``."""
    bench_ref = ray.put(benchmark_ngrams(docs, n, id_col, text_col, bench_mod))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        bench = ray.get(bench_ref)
        b = b[b[id_col] % bench_mod != 0]
        n_ngrams = np.zeros(len(b), dtype=np.int64)
        overlap = np.zeros(len(b), dtype=np.int64)
        for i, t in enumerate(b[text_col]):
            g = _word_ngram_set(t, n)
            n_ngrams[i] = len(g)
            overlap[i] = sum(1 for x in g if x in bench)
        return pd.DataFrame(
            {
                "doc_id": b[id_col].to_numpy(np.int64),
                "n_ngrams": n_ngrams,
                "overlap_ngrams": overlap,
                "contaminated": overlap > 0,
            }
        )

    return docs.map_batches(score, batch_format="pandas")


# ---------------------------------------------------------------------------
# 2. bloom-gated incremental dedup (new batch vs prior corpus)
# ---------------------------------------------------------------------------

_BLOOM_BITS = 1 << 20  # 128 KiB bitmap; k=4 hashes -> <1e-4 FP at ~2e4 keys


def _bloom_positions(hexes, m_bits: int = _BLOOM_BITS) -> np.ndarray:
    """(n, 4) bit positions per md5 digest: its four big-endian uint32
    words mod ``m_bits`` (k=4 independent-enough hash functions)."""
    return _md5_words(hexes) % np.uint32(m_bits)


def bloom_build(
    hash_ds: "ray.data.Dataset", hash_col: str, m_bits: int = _BLOOM_BITS
) -> bytes:
    """Mergeable Bloom bitmap over a column of md5 hex digests: per-batch
    partial bitmaps (one blob per batch on the exchange, never raw keys),
    OR-merged on the driver — same shape as the HLL register merge."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        bitmap = np.zeros(m_bits // 8, dtype=np.uint8)
        if len(b):
            pos = _bloom_positions(list(b[hash_col]), m_bits).ravel()
            np.bitwise_or.at(bitmap, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
        return pd.DataFrame({"bitmap": [bitmap.tobytes()]})

    merged = np.zeros(m_bits // 8, dtype=np.uint8)
    for row in bloom_partials(hash_ds, partial):
        merged |= np.frombuffer(row, dtype=np.uint8)
    return merged.tobytes()


def bloom_partials(hash_ds, partial):
    df = hash_ds.map_batches(partial, batch_format="pandas").to_pandas()
    return list(df["bitmap"])


def bloom_probe(bitmap: np.ndarray, hexes, m_bits: int = _BLOOM_BITS) -> np.ndarray:
    """Vectorized membership probe -> bool[n] (one-sided: no false
    negatives)."""
    if len(hexes) == 0:
        return np.zeros(0, dtype=bool)
    pos = _bloom_positions(hexes, m_bits)
    bits = (bitmap[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
    return bits.all(axis=1)


def content_key(text: str, k_words: int = 8) -> str:
    """Normalized dedup key: the first ``k_words`` whitespace words — the
    prefix-key family used for bulk URL/doc dedup (exact-hash dedup is the
    degenerate ``k=inf`` case; a shorter prefix keys near-identical
    boilerplate openings together)."""
    return " ".join(text.split()[:k_words])


def incremental_dedup(
    docs: "ray.data.Dataset",
    new_mod: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    parts: int = 32,
    m_bits: int = _BLOOM_BITS,
    k_words: int = 8,
) -> "ray.data.Dataset":
    """Dedup an incoming batch (``doc_id % new_mod == 0``) against the prior
    corpus (the rest) by md5 of the normalized content key (first
    ``k_words`` words).

    Plan: build a Bloom filter over the prior corpus' key-md5s (mergeable
    partials); probe each new doc — bloom-NEGATIVE docs are provably novel
    and never touch the exchange; bloom-positive candidates are verified
    exactly by a left ``hash_join`` onto the distinct prior key md5s,
    which also removes Bloom false positives.  Output:
    ``(doc_id, key_md5, is_dup)`` — exact, SQL-oracle-checkable."""

    def hashed(b: pd.DataFrame, keep_new: bool) -> pd.DataFrame:
        mask = (b[id_col] % new_mod == 0) == keep_new
        b = b[mask]
        return pd.DataFrame(
            {
                "doc_id": b[id_col].to_numpy(np.int64),
                "key_md5": md5_batch(
                    [content_key(t, k_words) for t in b[text_col]]
                ),
            }
        )

    prior = docs.map_batches(
        lambda b: hashed(b, False), batch_format="pandas"
    ).materialize()  # read once: feeds BOTH the bloom build and the distinct keys
    bloom = np.frombuffer(bloom_build(prior, "key_md5", m_bits), dtype=np.uint8)
    prior_keys = combiner_agg(
        prior, ["key_md5"], [("n_prior", None, "count")], parts
    ).materialize()
    bloom_ref = ray.put(bloom)

    new_hashed = docs.map_batches(
        lambda b: hashed(b, True), batch_format="pandas"
    ).materialize()  # small incoming slice; probed twice (split below)

    def probe_col(b: pd.DataFrame) -> np.ndarray:
        return bloom_probe(ray.get(bloom_ref), list(b["key_md5"]), m_bits)

    def negatives(b: pd.DataFrame) -> pd.DataFrame:
        b = b[~probe_col(b)].copy()
        b["is_dup"] = np.zeros(len(b), dtype=bool)
        return b

    def positives(b: pd.DataFrame) -> pd.DataFrame:
        return b[probe_col(b)].copy()

    novel = new_hashed.map_batches(negatives, batch_format="pandas")
    cand = new_hashed.map_batches(positives, batch_format="pandas")

    # exact verify: left join of the candidates onto the distinct prior
    # keys; a matched key is a duplicate
    def mark(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "key_md5": b["key_md5"].to_numpy(object),
                "is_dup": b["n_prior"].notna().to_numpy(),
            }
        )

    verified = hash_join(
        cand, prior_keys, "key_md5", how="left", parts=parts
    ).map_batches(mark, batch_format="pandas")
    return novel.select_columns(["doc_id", "key_md5", "is_dup"]).union(verified)


# ---------------------------------------------------------------------------
# 3. temperature-scaled source mixing weights
# ---------------------------------------------------------------------------


def source_mix_weights(
    docs: "ray.data.Dataset", alpha: float = 0.5, round_dp: int = 6
) -> pd.DataFrame:
    """Per-source corpus stats + sampling-temperature mixing weight
    ``w_s = total_words_s^alpha / sum_t total_words_t^alpha`` (alpha < 1
    up-weights small sources).  Combiner agg -> one tiny frame; the driver
    math is over |sources| rows."""
    from ..stages.textstats import round_half_away

    def wc(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": b["source"].to_numpy(object),
                "n_words": np.fromiter(
                    (len(t.split()) for t in b["text"]), dtype=np.int64, count=len(b)
                ),
            }
        )

    agg = (
        combiner_agg(
            docs.map_batches(wc, batch_format="pandas"),
            ["source"],
            [("n_docs", None, "count"), ("total_words", "n_words", "sum")],
        )
        .to_pandas()
        .sort_values("source", kind="mergesort")
        .reset_index(drop=True)
    )
    tw = float(agg["total_words"].sum())
    pw = np.power(agg["total_words"].to_numpy(np.float64), alpha)
    agg["raw_frac"] = round_half_away(agg["total_words"] / tw, round_dp)
    agg["weight"] = round_half_away(pw / pw.sum(), round_dp)
    return agg


# ---------------------------------------------------------------------------
# 4. DSIR-style hashed-bigram importance scores
# ---------------------------------------------------------------------------

_DSIR_BUCKETS = 1 << 16


def _bigram_buckets(text: str, buckets: int = _DSIR_BUCKETS) -> np.ndarray:
    """Hashed word-bigram bucket ids: the first 16 bits (4 hex chars) of
    ``md5("a b")`` — a convention DuckDB reproduces exactly with
    ``substr(md5(g), 1, 4)``, which is what makes the whole DSIR score
    SQL-oracle-checkable (SQL_DOC_DSIR_SCORE in pipelines/queries.py)."""
    import hashlib

    ws = text.split() if isinstance(text, str) else []
    if len(ws) < 2:
        return np.zeros(0, dtype=np.int64)
    shift = 128 - (buckets - 1).bit_length()
    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(f"{a} {b}".encode()).digest(), "big") >> shift
            for a, b in zip(ws, ws[1:])
        ),
        dtype=np.int64,
        count=len(ws) - 1,
    )


def _hashed_counts(
    docs: "ray.data.Dataset",
    text_col: str,
    mask_fn,
    buckets: int = _DSIR_BUCKETS,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused single-pass (masked, unmasked) bincount partials — two
    length-``buckets`` blobs per batch on the exchange, summed on the
    driver: the mergeable-sketch shape, and each text is hashed once."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        masked = np.zeros(buckets, dtype=np.int64)
        total = np.zeros(buckets, dtype=np.int64)
        mask = mask_fn(b).to_numpy() if mask_fn is not None else None
        for i, t in enumerate(b[text_col]):
            ids = _bigram_buckets(t, buckets)
            if len(ids):
                c = np.bincount(ids, minlength=buckets)
                total += c
                if mask is not None and mask[i]:
                    masked += c
        return pd.DataFrame({"masked": [masked.tobytes()], "total": [total.tobytes()]})

    parts = docs.map_batches(partial, batch_format="pandas").to_pandas()
    masked = np.zeros(buckets, dtype=np.int64)
    total = np.zeros(buckets, dtype=np.int64)
    for blob in parts["masked"]:
        masked += np.frombuffer(blob, dtype=np.int64)
    for blob in parts["total"]:
        total += np.frombuffer(blob, dtype=np.int64)
    return masked, total


def dsir_log_weights(
    tgt: np.ndarray, raw: np.ndarray, buckets: int = _DSIR_BUCKETS
) -> np.ndarray:
    """Integer micro-unit (1e-6) per-bucket log-ratio weights
    ``round(1e6 * (log p_target(b) - log p_raw(b)))`` with add-1 smoothing.

    Quantizing each weight to an int64 BEFORE the per-doc sum makes the
    score exactly order-independent across batch/partition boundaries and
    bit-identical to the DuckDB oracle's ``CAST(ROUND(...*1e6) AS BIGINT)``
    — a float sum would drift with Ray's nondeterministic batch order.
    ``math.log`` (libm) is used instead of np.log so the driver computes
    the same doubles DuckDB's ``ln`` does."""
    import math

    t_den = float(tgt.sum() + buckets)
    r_den = float(raw.sum() + buckets)
    lw = np.fromiter(
        (
            1e6 * (math.log((t + 1.0) / t_den) - math.log((r + 1.0) / r_den))
            for t, r in zip(tgt.tolist(), raw.tolist())
        ),
        dtype=np.float64,
        count=buckets,
    )
    return (np.floor(np.abs(lw) + 0.5) * np.sign(lw)).astype(np.int64)


def dsir_scores(
    docs: "ray.data.Dataset",
    target_lang: str = "en",
    id_col: str = "doc_id",
    text_col: str = "text",
    buckets: int = _DSIR_BUCKETS,
    round_dp: int = 4,
) -> "ray.data.Dataset":
    """Per-doc DSIR importance log-ratio ``sum_b log(p_target(b) /
    p_raw(b))`` over the doc's hashed bigrams (add-1 smoothing), target =
    docs with ``lang == target_lang``.  The quantized weight vector (2^16
    int64) broadcasts via ray.put; scoring is one np.take + int sum per
    doc.  SQL-oracled end-to-end (SQL_DOC_DSIR_SCORE)."""
    from ..stages.textstats import round_half_away

    tgt, raw = _hashed_counts(
        docs, text_col, lambda b: b["lang"] == target_lang, buckets
    )
    w_ref = ray.put(dsir_log_weights(tgt, raw, buckets))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        w = ray.get(w_ref)
        n = np.zeros(len(b), dtype=np.int64)
        s = np.zeros(len(b), dtype=np.int64)
        for i, t in enumerate(b[text_col]):
            ids = _bigram_buckets(t, buckets)
            n[i] = len(ids)
            s[i] = w[ids].sum() if len(ids) else 0
        return pd.DataFrame(
            {
                "doc_id": b[id_col].to_numpy(np.int64),
                "n_bigrams": n,
                "dsir_logratio": round_half_away(pd.Series(s / 1e6), round_dp),
            }
        )

    return docs.map_batches(score, batch_format="pandas")


# ---------------------------------------------------------------------------
# 5. composed end-to-end curation decision
# ---------------------------------------------------------------------------


def curate_corpus(
    docs: "ray.data.Dataset",
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    bench_mod: int = 50,
    parts: int = 32,
    k_words: int = 8,
) -> "ray.data.Dataset":
    """The composed keep/drop decision per document — the gates above run as
    ONE pipeline: benchmark exclusion -> prefix-key exact dedup (first
    ``doc_id`` wins) -> benchmark-n-gram decontamination -> Gopher-style
    repetition filter.  Output: ``(doc_id, keep, reason)``; ``reason`` is
    the FIRST failing gate in that precedence order, else ``'kept'``.

    Plan shape: one text pass computes every per-doc flag (md5 prefix key,
    contamination vs the broadcast benchmark set, repetition keep); the ONLY
    exchange is the dedup groupby, keyed by md5-prefix partition — the flag
    columns ride along as a few bytes/row, so no second join is needed."""
    from ..stages.textstats import repetition_batch

    bench_ref = ray.put(benchmark_ngrams(docs, n, id_col, text_col, bench_mod))

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        bench = ray.get(bench_ref)
        rep = repetition_batch(b, text_col=text_col)
        keys = [content_key(t, k_words) for t in b[text_col]]
        h = md5_batch(keys)
        contaminated = np.zeros(len(b), dtype=bool)
        for i, t in enumerate(b[text_col]):
            g = _word_ngram_set(t, n)
            contaminated[i] = any(x in bench for x in g)
        words = _md5_words(list(h))
        return pd.DataFrame(
            {
                "doc_id": b[id_col].to_numpy(np.int64),
                "h": h,
                "part": (words[:, 0] % np.uint32(parts)).astype(np.int64)
                if len(b)
                else np.zeros(0, dtype=np.int64),
                "is_bench": (b[id_col] % bench_mod == 0).to_numpy(),
                "contaminated": contaminated,
                "rep_keep": rep["keep"].to_numpy(),
            }
        )

    def decide(g: pd.DataFrame) -> pd.DataFrame:
        keeper = g.groupby("h")["doc_id"].transform("min")
        reason = np.select(
            [
                g["is_bench"].to_numpy(),
                (g["doc_id"] != keeper).to_numpy(),
                g["contaminated"].to_numpy(),
                ~g["rep_keep"].to_numpy(),
            ],
            ["benchmark", "duplicate", "contaminated", "repetition"],
            default="kept",
        )
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "keep": reason == "kept",
                "reason": reason,
            }
        )

    return (
        docs.map_batches(flags, batch_format="pandas")
        .groupby("part")
        .map_groups(decide, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# 6. training-shard export (curate -> kept docs -> partitioned Parquet)
# ---------------------------------------------------------------------------


def training_shard_export(
    docs: "ray.data.Dataset",
    out_dir: str,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    bench_mod: int = 50,
    parts: int = 32,
    k_words: int = 8,
) -> pd.DataFrame:
    """Materialize the curated training corpus as resumable partitioned
    Parquet: curate -> keep only ``kept`` docs -> deterministic 16-way shard
    (first hex char of ``md5(doc_id)``) -> one ``shard=X/`` directory per
    shard.  Returns the per-shard manifest ``(shard, n_docs, total_words)``
    computed by READING BACK the written files (write validation included).

    Scale shape: the kept doc ids join back onto the doc stream via ONE
    doc_id-keyed ``hash_join`` — the standard pay-once write shuffle
    (text rides an exchange exactly once; decisions are a few bytes/row).
    The 16-way shard split means a failed export rerun can skip finished
    ``shard=X`` directories; rewrite here is whole-dir (idempotent)."""
    import shutil

    decisions = curate_corpus(
        docs, n=n, id_col=id_col, text_col=text_col,
        bench_mod=bench_mod, parts=parts, k_words=k_words,
    )

    kept_ids = decisions.map_batches(
        lambda b: b.loc[b["keep"], ["doc_id"]], batch_format="pandas"
    ).materialize()

    def doc_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b[id_col].to_numpy(np.int64),
                "text": b[text_col].to_numpy(object),
            }
        )

    def shard(b: pd.DataFrame) -> pd.DataFrame:
        h = md5_batch([str(i) for i in b["doc_id"]])
        return b.assign(shard=np.array([x[0] for x in h], dtype=object))

    kept = hash_join(
        docs.map_batches(doc_rows, batch_format="pandas"), kept_ids, "doc_id", parts=parts
    ).map_batches(shard, batch_format="pandas")
    shutil.rmtree(out_dir, ignore_errors=True)
    kept.write_parquet(out_dir, partition_cols=["shard"])

    # manifest from the files themselves (validates the write)
    back = ray.data.read_parquet(out_dir)

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "shard": b["shard"].astype(str).to_numpy(object),
                "nw": np.fromiter(
                    (len(t.split()) for t in b["text"]),
                    dtype=np.int64,
                    count=len(b),
                ),
            }
        )

    out = (
        combiner_agg(
            back.map_batches(stats, batch_format="pandas"),
            ["shard"],
            [("n_docs", None, "count"), ("total_words", "nw", "sum")],
        )
        .to_pandas()
        .sort_values("shard", kind="mergesort")
        .reset_index(drop=True)
    )
    return out


# ---------------------------------------------------------------------------
# 6. dataset splits + sequence packing
# ---------------------------------------------------------------------------


def split_assign(
    docs: "ray.data.Dataset",
    id_col: str = "doc_id",
    val_pct: int = 10,
    test_pct: int = 10,
) -> "ray.data.Dataset":
    """Deterministic train/val/test split by content-free id hash:
    ``bucket = first-8-hex-digits-of-md5(id) mod 100`` -> test / val /
    train.  Hash-based (not positional) so the assignment is stable under
    re-partitioning, resharding and incremental corpus growth — the
    standard reproducible-split recipe.  Embarrassingly parallel, no
    shuffle."""

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy(np.int64)
        hexes = md5_batch([str(int(i)) for i in ids])
        bucket = np.array(
            [int(h[:8], 16) % 100 for h in hexes], dtype=np.int64
        )
        split = np.where(
            bucket < test_pct,
            "test",
            np.where(bucket < test_pct + val_pct, "val", "train"),
        )
        return pd.DataFrame({id_col: ids, "bucket": bucket, "split": split})

    return docs.select_columns([id_col]).map_batches(fn, batch_format="pandas")


def pack_sequences(
    docs: "ray.data.Dataset",
    budget: int = 512,
    id_col: str = "doc_id",
    text_col: str = "text",
    shards: int = 16,
) -> "ray.data.Dataset":
    """Greedy sequence packing: concatenate docs in ``id_col`` order into
    training sequences of at most ``budget`` whitespace tokens (the
    fill-then-open-new-bin packing used to build fixed-length LM training
    batches; docs longer than the budget get a sequence of their own).

    Distributed form: docs hash-shard by ``md5(id) % shards`` and each
    shard packs ITS OWN id-ordered stream independently — sequence ids are
    ``(shard, seq_in_shard)``, so packing is deterministic and
    shard-parallel while each shard's stream preserves the reference
    serial semantics (parity vs a serial packer is pinned per shard in
    tests).  Output: one row per doc ``(doc_id, shard, seq_id, n_tokens)``
    — ``seq_id`` is the packed sequence index within the shard.

    Partitioning note: a shard's docs are packed in one pass (cumsum with
    reset), so a shard must fit in a worker — raise ``shards`` with corpus
    size; shard streams never interact."""

    def tokens_and_shard(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy(np.int64)
        hexes = md5_batch([str(int(i)) for i in ids])
        return pd.DataFrame(
            {
                id_col: ids,
                "shard": np.array(
                    [int(h[:8], 16) % shards for h in hexes], dtype=np.int64
                ),
                "n_tokens": np.array(
                    [len(t.split()) if isinstance(t, str) else 0 for t in b[text_col]],
                    dtype=np.int64,
                ),
            }
        )

    def pack_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort").reset_index(drop=True)
        toks = g["n_tokens"].to_numpy(np.int64)
        seq_ids = np.zeros(len(g), dtype=np.int64)
        cur, cur_seq = 0, 0
        for i, t in enumerate(toks):
            if cur > 0 and cur + t > budget:
                cur_seq += 1
                cur = 0
            seq_ids[i] = cur_seq
            cur += t
        out = g[[id_col, "shard", "n_tokens"]].copy()
        out["seq_id"] = seq_ids
        return out[[id_col, "shard", "seq_id", "n_tokens"]]

    return (
        docs.select_columns([id_col, text_col])
        .map_batches(tokens_and_shard, batch_format="pandas")
        .groupby("shard")
        .map_groups(pack_shard, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# PII detection + redaction (streaming map)
# ---------------------------------------------------------------------------

# Deliberately simple ASCII-only patterns with identical semantics under
# Python ``re`` and DuckDB's RE2 (no lookarounds, no Unicode classes).
PII_EMAIL = r"[A-Za-z0-9._]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE = r"\+\d{2}-\d{3}-\d{4}"
PII_IP = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def pii_augment_frame(b: pd.DataFrame, id_col: str = "doc_id", text_col: str = "text") -> pd.Series:
    """Deterministic synthetic-PII augmentation of the document text (the
    sandbox corpus contains no real PII): docs with ``id % 3 == 0`` gain an
    email, ``% 5 == 0`` a phone number, ``% 7 == 0`` an IPv4 — all derived
    from the id, so the SQL oracle reconstructs the identical view.  Kept
    as a separate view-building step so ``pii_scrub`` itself stays a pure
    text -> text operator."""
    ids = b[id_col].to_numpy(np.int64)
    txt = b[text_col].fillna("").astype(str)
    email = np.where(ids % 3 == 0, [f" contact user{i}@example.com" for i in ids], "")
    phone = np.where(
        ids % 5 == 0,
        [f" call +64-{i % 1000:03d}-{i % 10000:04d}" for i in ids],
        "",
    )
    ip = np.where(ids % 7 == 0, [f" host 10.{i % 256}.0.{i % 100}" for i in ids], "")
    return txt + pd.Series(email, index=b.index) + pd.Series(phone, index=b.index) + pd.Series(ip, index=b.index)


def pii_scrub(
    docs: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    augment: bool = True,
) -> "ray.data.Dataset":
    """Detect and redact emails / phone numbers / IPv4 addresses per doc —
    the standard pre-training privacy pass (e.g. the regex scrubbers in
    public C4/RefinedWeb pipelines).  Pure streaming ``map_batches``: no
    exchange, no state, scale-limited only by read bandwidth.

    Output: ``(doc_id, n_emails, n_phones, n_ips, clean_md5)`` where
    ``clean_md5`` is the md5 of the text after replacing matches with
    ``<EMAIL>`` / ``<PHONE>`` / ``<IP>`` (in that fixed order), proving
    byte-level redaction parity against the SQL oracle without shipping
    the full redacted text through the comparison."""
    import re

    pats = [
        (re.compile(PII_EMAIL), "<EMAIL>"),
        (re.compile(PII_PHONE), "<PHONE>"),
        (re.compile(PII_IP), "<IP>"),
    ]

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        t = pii_augment_frame(b, id_col, text_col) if augment else b[text_col].fillna("").astype(str)
        counts = [t.str.count(p.pattern) for p, _ in pats]
        for p, repl in pats:
            t = t.str.replace(p, repl, regex=True)
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(np.int64),
                "n_emails": counts[0].to_numpy(np.int64),
                "n_phones": counts[1].to_numpy(np.int64),
                "n_ips": counts[2].to_numpy(np.int64),
                "clean_md5": md5_batch(list(t)),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(fn, batch_format="pandas")


# ---------------------------------------------------------------------------
# token-budget selection (histogram threshold — no global sort)
# ---------------------------------------------------------------------------


def token_budget_select(
    docs: "ray.data.Dataset",
    budget: int,
    id_col: str = "doc_id",
    text_col: str = "text",
    rank_col: str = "n_chars",
) -> "ray.data.Dataset":
    """Select the best documents (by ``rank_col`` desc, id asc) until the
    cumulative whitespace-token count reaches ``budget`` — the "fill the
    training-token budget from the top of the quality ranking" selection
    every pretraining data pipeline ends with.

    Scale shape: instead of a global sort + sequential prefix-sum, pass 1
    builds a tiny per-``rank_col``-value token histogram (combiner partials,
    one row per distinct value per batch -> driver merge: the histogram is
    bounded by the value domain, not the corpus).  The driver computes each
    bin's global START OFFSET in rank order; pass 2 filters to surviving
    bins and computes the within-bin id-ordered prefix sum per group
    (``groupby(rank_col).map_groups``), adding the broadcast bin offset.
    One bounded exchange; nothing quadratic; a hot bin can be salted by
    sub-bucketing on id if the value domain is too coarse.

    Output: ``(doc_id, n_chars, n_tokens, cum_tokens)`` for selected docs.
    """

    def tok(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(np.int64),
                rank_col: b[rank_col].to_numpy(np.int64),
                "n_tokens": np.array(
                    [len(t.split()) if isinstance(t, str) else 0 for t in b[text_col]],
                    dtype=np.int64,
                ),
            }
        )

    base = docs.select_columns([id_col, text_col, rank_col]).map_batches(
        tok, batch_format="pandas"
    )

    # pass 1: per-bin token totals (partial per batch -> tiny driver merge)
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(rank_col, as_index=False)["n_tokens"].sum()
        return g

    hist = (
        base.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby(rank_col, as_index=False)["n_tokens"]
        .sum()
        .sort_values(rank_col, ascending=False)
        .reset_index(drop=True)
    )
    offsets: dict[int, int] = {}
    running = 0
    cutoff = None  # smallest rank value that still contributes rows
    for v, t in zip(hist[rank_col].to_numpy(), hist["n_tokens"].to_numpy()):
        if running >= budget:
            break
        offsets[int(v)] = running
        cutoff = int(v)
        running += int(t)
    if cutoff is None:
        # Return the empty Arrow table itself: an empty ray Dataset loses its
        # schema on to_pandas, which breaks downstream column checks.
        import pyarrow as pa

        return pa.table(
            {
                id_col: pa.array([], pa.int64()),
                rank_col: pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "cum_tokens": pa.array([], pa.int64()),
            }
        )
    off_ref = ray.put(offsets)

    def cut(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        start = off.get(int(g[rank_col].iloc[0]))
        if start is None:
            return g.iloc[0:0].assign(cum_tokens=np.int64(0))
        g = g.sort_values(id_col, kind="mergesort").reset_index(drop=True)
        g["cum_tokens"] = start + g["n_tokens"].cumsum()
        return g[g["cum_tokens"] <= budget]

    lo = cutoff
    return (
        base.filter(lambda r, lo=lo: r[rank_col] >= lo)
        .groupby(rank_col)
        .map_groups(cut, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# dedup-cluster representative selection (argmax combiner)
# ---------------------------------------------------------------------------


def cluster_representatives(
    docs: "ray.data.Dataset",
    k_words: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
    rank_col: str = "n_chars",
) -> "ray.data.Dataset":
    """Group documents by their ``content_key`` (first ``k_words`` words —
    the boilerplate-opening cluster key used by ``incremental_dedup``) and
    keep ONE representative per cluster: the highest-``rank_col`` doc, ties
    to the smallest id — the "keep the best copy" step that follows any
    near-dup clustering (NemoCurator / RefinedWeb keep-longest policy).

    Argmax is associative, so each batch emits one candidate row per key it
    saw (a combiner partial) and the groupby exchange only carries those
    partials — never the full cluster membership."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        keys = [content_key(t, k_words) if isinstance(t, str) else "" for t in b[text_col]]
        f = pd.DataFrame(
            {
                "ckey": keys,
                id_col: b[id_col].to_numpy(np.int64),
                rank_col: b[rank_col].to_numpy(np.int64),
            }
        )
        f = f.sort_values([rank_col, id_col], ascending=[False, True], kind="mergesort")
        best = f.drop_duplicates("ckey", keep="first")
        sizes = f.groupby("ckey").size().rename("cluster_size")
        return best.merge(sizes, on="ckey")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([rank_col, id_col], ascending=[False, True], kind="mergesort")
        out = g.iloc[:1][["ckey", id_col, rank_col]].copy()
        out["cluster_size"] = np.int64(g["cluster_size"].sum())
        return out.rename(columns={id_col: "rep_doc_id", rank_col: "rep_n_chars"})

    return (
        docs.select_columns([id_col, text_col, rank_col])
        .map_batches(partial, batch_format="pandas")
        .groupby("ckey")
        .map_groups(merge, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# temperature-mixed deterministic resampling + per-source cap downsampling
# ---------------------------------------------------------------------------


def source_mix_sample(
    docs: "ray.data.Dataset",
    alpha: float = 0.5,
    rate: float = 0.5,
    id_col: str = "doc_id",
    text_col: str = "text",
    src_col: str = "source",
) -> "ray.data.Dataset":
    """Materialize the temperature-mixed corpus that ``source_mix_weights``
    plans: resample each source with keep-probability
    ``p_s = min(1, w_s * rate * total_words / words_s)`` so the expected word
    mass per source follows the alpha-temperature weights at overall rate
    ``rate`` (Arivazhagan et al. 2019 sampling, made deterministic).

    Determinism + SQL parity: the per-source sqrt-weights are quantized to
    integer micro-units BEFORE summing (integer sums are order-exact, unlike
    float sums whose value depends on reduction order), and the Bernoulli
    draw is ``first-8-hex-md5(doc_id) mod 1e6 < floor(p_s * 1e6)`` — fully
    reproducible by the DuckDB oracle.  Scale shape: one combiner-aggregated
    word-count pass (|sources| rows to the driver), thresholds broadcast
    once, then a pure streaming filter — no data exchange at all."""
    import math

    def wc(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                src_col: b[src_col].to_numpy(object),
                "n_words": np.fromiter(
                    (len(t.split()) if isinstance(t, str) else 0 for t in b[text_col]),
                    dtype=np.int64,
                    count=len(b),
                ),
            }
        )

    agg = (
        combiner_agg(
            docs.select_columns([src_col, text_col]).map_batches(
                wc, batch_format="pandas"
            ),
            [src_col],
            [("total_words", "n_words", "sum")],
        )
        .to_pandas()
        .sort_values(src_col, kind="mergesort")
        .reset_index(drop=True)
    )
    words = agg["total_words"].to_numpy(np.int64)
    # integer micro-unit sqrt weights: the cross-source sum is order-exact
    pwi = np.floor(np.sqrt(words.astype(np.float64)) * 1e6).astype(np.int64)
    s_total = int(pwi.sum())
    total = int(words.sum())
    thr: dict[str, int] = {}
    for src, w_i, p_i in zip(agg[src_col], words, pwi):
        if w_i == 0 or s_total == 0:
            thr[src] = 0
            continue
        p = min(1.0, (float(p_i) / float(s_total)) * (rate * float(total)) / float(w_i))
        thr[src] = int(math.floor(p * 1e6))
    thr_ref = ray.put(thr)

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        t = ray.get(thr_ref)
        ids = b[id_col].to_numpy(np.int64)
        hexes = md5_batch([str(int(i)) for i in ids])
        bucket = np.array([int(h[:8], 16) % 1_000_000 for h in hexes], dtype=np.int64)
        lim = np.array([t.get(s, 0) for s in b[src_col]], dtype=np.int64)
        m = bucket < lim
        return pd.DataFrame(
            {
                id_col: ids[m],
                src_col: b[src_col].to_numpy(object)[m],
                "bucket": bucket[m],
            }
        )

    return docs.select_columns([id_col, src_col]).map_batches(
        keep, batch_format="pandas"
    )


def source_cap_sample(
    docs: "ray.data.Dataset",
    cap: int = 50,
    id_col: str = "doc_id",
    src_col: str = "source",
) -> "ray.data.Dataset":
    """Per-source cap downsampling: keep at most ``cap`` documents per
    source, chosen by md5(doc_id) rank (content-free, so the selection is
    stable under re-partitioning and incremental growth) — the RefinedWeb /
    C4-style "no domain dominates" balancing step.

    Top-N per key is associative: each batch emits at most ``cap`` candidate
    rows per source it saw (a combiner partial), so the single groupby
    exchange carries <= cap * |sources| * n_batches rows — never the corpus.
    Output ``(source, doc_id, rk)`` with ``rk`` = 1..cap in (md5, id) order,
    matching ``ROW_NUMBER() OVER (PARTITION BY source ORDER BY md5, id)``."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy(np.int64)
        f = pd.DataFrame(
            {
                src_col: b[src_col].to_numpy(object),
                id_col: ids,
                "hx": md5_batch([str(int(i)) for i in ids]),
            }
        )
        f = f.sort_values(["hx", id_col], kind="mergesort")
        return f.groupby(src_col, sort=False).head(cap)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["hx", id_col], kind="mergesort").head(cap).copy()
        g["rk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[[src_col, id_col, "rk"]]

    return (
        docs.select_columns([id_col, src_col])
        .map_batches(partial, batch_format="pandas")
        .groupby(src_col)
        .map_groups(merge, batch_format="pandas")
    )
