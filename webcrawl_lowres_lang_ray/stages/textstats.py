"""Text-analysis stages over a document Dataset: quality scoring, token
counting, fingerprinting, language ID — the large-scale training-data
operators the rebuild adds on top of the reference's surface.

Everything is a vectorized ``map_batches`` kernel; the language-ID stage is
the actor-pool pattern (profiles built once per actor).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

import ray.data

_WS_RE = re.compile(r"\s+")
_BPE_ISH_RE = re.compile(r"\w+|[^\w\s]")  # word pieces + punctuation marks
_PUNCT_RE = re.compile(r"[^\w\s]")

STOPWORDS = ("the", "a", "and", "of", "to")


def round_half_away(x, dp: int):
    """SQL-compatible rounding (DuckDB/C++ round: half away from zero;
    numpy rounds half to even — 4.40625 would otherwise hash-mismatch)."""
    x = np.asarray(x, dtype=np.float64)
    scale = 10.0 ** dp
    return np.sign(x) * np.floor(np.abs(x) * scale + 0.5) / scale


def quality_batch(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Per-doc quality metrics: token/char counts, ratios (4dp)."""
    texts = batch[text_col].to_numpy()
    n = len(texts)
    n_tokens = np.zeros(n, dtype=np.int64)
    n_chars = np.zeros(n, dtype=np.int64)
    n_punct = np.zeros(n, dtype=np.int64)
    n_stop = np.zeros(n, dtype=np.int64)
    mean_tok_len = np.zeros(n, dtype=np.float64)
    for i, t in enumerate(texts):
        if not t:
            continue
        toks = t.split()
        n_tokens[i] = len(toks)
        n_chars[i] = len(t)
        n_punct[i] = len(_PUNCT_RE.findall(t))
        n_stop[i] = sum(1 for w in toks if w.lower() in STOPWORDS)
        if toks:
            mean_tok_len[i] = sum(len(w) for w in toks) / len(toks)
    out = batch.copy()
    out["n_tokens"] = n_tokens
    out["punct_ratio"] = round_half_away(np.divide(n_punct, np.maximum(n_chars, 1)), 4)
    out["stopword_ratio"] = round_half_away(np.divide(n_stop, np.maximum(n_tokens, 1)), 4)
    out["mean_token_len"] = round_half_away(mean_tok_len, 4)
    return out


def token_count_bpeish(text: str) -> int:
    """BPE-ish token estimate: \\w+ runs plus individual punctuation marks."""
    return len(_BPE_ISH_RE.findall(text))


def add_token_counts_frame(b: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    b["ws_tokens"] = np.array([len(t.split()) for t in b[text_col]], dtype=np.int64)
    b["bpeish_tokens"] = np.array(
        [token_count_bpeish(t) for t in b[text_col]], dtype=np.int64
    )
    return b


def fingerprint(text: str) -> str:
    """Document fingerprint: md5 of whitespace-normalized lowercase text."""
    normalized = _WS_RE.sub(" ", text.lower()).strip()
    return hashlib.md5(normalized.encode()).hexdigest()


def rolling_hashes(text: str, window: int = 16, base: int = 257) -> np.ndarray:
    """Rabin–Karp window hashes over the char stream (winnowing building
    block for fingerprint-based near-dup), FULLY VECTORIZED: one uint64
    multiply-add per window position (modulus = 2^64 wraparound, the
    standard vectorizable Rabin-Karp variant) instead of a per-char Python
    loop — the difference between ~1 µs/char and memory bandwidth on a
    megabyte document."""
    n = len(text)
    if n < window:
        return np.empty(0, dtype=np.uint64)
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(
        np.uint64
    )
    b = np.uint64(base)
    out = np.zeros(n - window + 1, dtype=np.uint64)
    for j in range(window):  # window is a small constant; each step vectorized
        out *= b  # in-place: no 8 MB temporaries per step
        out += codes[j : n - window + 1 + j]
    return out


def winnow_fingerprints(text: str, window: int = 16, select: int = 8) -> np.ndarray:
    """Winnowing: min hash per sliding window of ``select`` rolling hashes,
    consecutive repeats collapsed (Schleimer et al. 2003) — windowed min
    via one stride-tricks reduction."""
    hs = rolling_hashes(text, window)
    if not len(hs):
        return hs
    if len(hs) <= select:
        return np.array([hs.min()], dtype=np.uint64)
    # windowed min as `select` shifted elementwise minimums (contiguous
    # slices — a strided sliding_window_view reduction is ~100x slower)
    m = len(hs) - select + 1
    mins = hs[:m].copy()
    for j in range(1, select):
        np.minimum(mins, hs[j : m + j], out=mins)
    keep = np.concatenate([[True], mins[1:] != mins[:-1]])
    return mins[keep]


class LangIdStage:
    """Actor-pool language ID: char-trigram profiles per language, built once
    per actor from provided per-language lexicons (or word lists)."""

    def __init__(self, profiles: dict[str, dict[str, int]]):
        from ..functions.langid import NgramLangModel

        self.models = {lang: NgramLangModel(lex) for lang, lex in profiles.items()}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        langs = []
        confs = []
        for t in batch["text"]:
            best_lang, best_conf = "", 0.0
            for lang, m in self.models.items():
                c = m.confidence(t)
                if c > best_conf:
                    best_lang, best_conf = lang, c
            langs.append(best_lang)
            confs.append(round(best_conf, 4))
        batch["pred_lang"] = langs
        batch["pred_conf"] = confs
        return batch


def repetition_batch(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Gopher-style repetition metrics per document (Rae et al. 2021, §A1.1
    "Repetition" filters, adapted to single-line web text): distinct-word
    ratio, most-frequent-word fraction, most-frequent-bigram fraction, and
    the composite ``keep`` gate.

    Vectorized across the whole batch: one factorize over every word in the
    batch, then (doc, word-id) bincounts via a single pandas groupby — no
    per-document Counter loop.  Ratios are 4 dp half-away rounding (the SQL
    oracle's round())."""
    texts = batch[text_col].to_numpy()
    n = len(texts)
    words_per_doc = [("" if t is None else t).split() for t in texts]
    counts = np.array([len(w) for w in words_per_doc], dtype=np.int64)
    total_flat = int(counts.sum())

    dw = np.zeros(n, dtype=np.int64)       # distinct words
    top_n = np.zeros(n, dtype=np.int64)    # max single-word count
    btop = np.zeros(n, dtype=np.int64)     # max bigram count
    if total_flat:
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        flat = np.empty(total_flat, dtype=object)
        pos = 0
        for ws in words_per_doc:
            flat[pos : pos + len(ws)] = ws
            pos += len(ws)
        wid, _ = pd.factorize(flat)
        g = (
            pd.DataFrame({"d": doc_idx, "w": wid})
            .groupby(["d", "w"], sort=False)
            .size()
        )
        agg = g.groupby(level=0).agg(["max", "size"])
        dw[agg.index.to_numpy()] = agg["size"].to_numpy(np.int64)
        top_n[agg.index.to_numpy()] = agg["max"].to_numpy(np.int64)

        # bigrams: adjacent word-id pairs within a doc (mask doc boundaries)
        if total_flat > 1:
            same_doc = doc_idx[1:] == doc_idx[:-1]
            k = int(wid.max()) + 1
            bg = wid[:-1].astype(np.int64) * k + wid[1:]
            gb = (
                pd.DataFrame({"d": doc_idx[1:][same_doc], "b": bg[same_doc]})
                .groupby(["d", "b"], sort=False)
                .size()
            )
            if len(gb):
                bagg = gb.groupby(level=0).max()
                btop[bagg.index.to_numpy()] = bagg.to_numpy(np.int64)

    btotal = np.maximum(counts - 1, 0)
    safe_total = np.maximum(counts, 1)
    safe_btotal = np.maximum(btotal, 1)
    distinct_ratio = round_half_away(
        np.where(counts > 0, dw / safe_total, 0.0), 4
    )
    top_word_frac = round_half_away(
        np.where(counts > 0, top_n / safe_total, 0.0), 4
    )
    top_bigram_frac = round_half_away(
        np.where(btotal > 0, btop / safe_btotal, 0.0), 4
    )
    out = batch.copy()
    out["total_words"] = counts
    out["distinct_word_ratio"] = distinct_ratio
    out["top_word_frac"] = top_word_frac
    out["top_bigram_frac"] = top_bigram_frac
    # Gopher-ish composite gate (thresholds tuned to the synthetic corpus
    # scale; the reference thresholds are corpus-specific anyway)
    out["keep"] = (
        (distinct_ratio >= 0.2)
        & (top_word_frac <= 0.2)
        & (top_bigram_frac <= 0.15)
    )
    return out


def ntile_bucket(rank0, size: int, rem: int) -> np.ndarray:
    """SQL NTILE bucket (1-based) for 0-based global ranks, given ``size =
    N // k`` and ``rem = N % k``: the first ``rem`` buckets hold ``size+1``
    rows, the rest ``size`` (property-tested against a serial NTILE)."""
    rank0 = np.asarray(rank0, dtype=np.int64)
    head = rem * (size + 1)
    return np.where(
        rank0 < head,
        rank0 // max(size + 1, 1) + 1,
        rem + np.where(size > 0, (rank0 - head) // max(size, 1), 0) + 1,
    ).astype(np.int64)


def quality_ntile(
    ds: "ray.data.Dataset",
    k: int = 10,
    value_col: str = "n_chars",
    id_col: str = "doc_id",
    parts: int = 64,
    with_percent_rank: bool = False,
) -> "ray.data.Dataset":
    """Exact global NTILE(k) quality binning by ``(value_col, id_col)`` —
    the "assign every document a corpus-wide quality decile" step of a
    curation pipeline, matching SQL ``NTILE(k) OVER (ORDER BY value, id)``.

    Distributed plan (no global sort of raw rows, nothing large on the
    driver):

    1. a combiner aggregation counts docs per distinct ``value_col``
       (exchange carries one row per distinct value per batch; the result —
       bounded by the number of DISTINCT doc lengths, not by N — lands on
       the driver and broadcasts as a cumulative-offset lookup);
    2. a ``value_col``-keyed partition groupby ranks ties by ``id_col``
       within each distinct value (vectorized argsort per group) and adds
       the broadcast offset -> exact 0-based global rank;
    3. the NTILE bucket is pure arithmetic on (rank, N, k).

    Partitioning assumption: rows sharing one distinct value fit in a
    worker (at 100 TB, heavily-tied value domains should pre-bucket ties by
    an ``id_col`` range split; doc-length ties are naturally bounded).
    """
    from .agg import combiner_agg

    hist = (
        combiner_agg(
            ds.select_columns([value_col]),
            [value_col],
            [("n_docs", None, "count")],
            parts=min(parts, 16),
        )
        .to_pandas()
        .sort_values(value_col, kind="mergesort")
        .reset_index(drop=True)
    )
    total = int(hist["n_docs"].sum())
    offs = np.concatenate([[0], np.cumsum(hist["n_docs"].to_numpy(np.int64))[:-1]])
    offset_map = dict(zip(hist[value_col].tolist(), offs.tolist()))
    size, rem = divmod(total, k)
    bundle = ray.put((offset_map, total, size, rem))

    def rank_part(g: pd.DataFrame) -> pd.DataFrame:
        offset_by_value, _n, sz, r = ray.get(bundle)
        out = g.sort_values([value_col, id_col], kind="mergesort").reset_index(
            drop=True
        )
        vals = out[value_col].to_numpy()
        # within-value rank: position minus the first index of the value run
        starts = np.flatnonzero(np.concatenate([[True], vals[1:] != vals[:-1]]))
        run_id = np.cumsum(np.concatenate([[0], (vals[1:] != vals[:-1]).astype(np.int64)]))
        within = np.arange(len(out), dtype=np.int64) - starts[run_id]
        base = pd.Series(vals).map(offset_by_value).to_numpy(np.int64)
        rank0 = base + within
        bucket = ntile_bucket(rank0, sz, r)
        res = pd.DataFrame(
            {
                id_col: out[id_col].to_numpy(np.int64),
                value_col: out[value_col].to_numpy(np.int64),
                "decile": bucket,
            }
        )
        if with_percent_rank:
            # no ties under the (value, id) total order, so SQL RANK ==
            # ROW_NUMBER and percent_rank = rank0 / (N - 1)
            res["pct_rank"] = round_half_away(
                rank0 / max(_n - 1, 1), 6
            )
        return res

    def add_part(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[id_col, value_col]].copy()
        b["__vpart"] = (
            pd.util.hash_array(b[value_col].to_numpy(np.int64)) % np.uint64(parts)
        ).astype(np.int64)
        return b

    def rank_drop_part(g: pd.DataFrame) -> pd.DataFrame:
        return rank_part(g.drop(columns="__vpart"))

    # partition-key groupby: all rows of one distinct value share a
    # partition, so within-value ranks are complete; one vectorized pass per
    # partition handles its whole set of distinct values (no per-value
    # dispatch).
    return (
        ds.select_columns([id_col, value_col])
        .map_batches(add_part, batch_format="pandas")
        .groupby("__vpart")
        .map_groups(rank_drop_part, batch_format="pandas")
    )


def tfidf_top_terms(
    ds: "ray.data.Dataset",
    topk: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    parts: int = 64,
    round_dp: int = 4,
) -> "ray.data.Dataset":
    """Per-document top-``topk`` TF-IDF terms (Sparck Jones 1972 idf):
    ``tfidf = tf * ln(N / df)``, ranked ``(tfidf DESC, token)`` per doc.

    Distributed plan — two bounded exchanges, the IDF table never exists as
    a materialized artifact:

    1. ``map_batches`` emits exact ``(doc_id, token, tf)`` rows (docs are
       row-atomic, so per-batch term counts are final);
    2. a token-hash partition groupby owns every row of each token, so
       ``df`` is a vectorized transform INSIDE the partition — no separate
       IDF build, no broadcast, no join; the same pass keeps only each
       doc's per-partition top-``topk`` rows (global top-k is a subset of
       the union of partition top-ks);
    3. a doc-hash partition groupby merges the partials and assigns ranks.

    ``N`` is ``ds.count()`` (Parquet metadata, no scan).  Scores round to
    ``round_dp`` BEFORE ranking on both this and the SQL-oracle side.
    """
    n_docs = ds.count()

    def tf_rows(b: pd.DataFrame) -> pd.DataFrame:
        ids: list[int] = []
        toks: list[str] = []
        tfs: list[int] = []
        for i, t in zip(b[id_col].to_numpy(np.int64), b[text_col]):
            ws = _PUNCT_RE.sub(" ", t).lower().split()
            if not ws:
                continue
            from collections import Counter

            for w, c in Counter(ws).items():
                ids.append(int(i))
                toks.append(w)
                tfs.append(int(c))
        tok_arr = np.array(toks, dtype=object)
        part = (
            (pd.util.hash_array(tok_arr) % np.uint64(parts)).astype(np.int64)
            if len(tok_arr)
            else np.zeros(0, dtype=np.int64)
        )
        return pd.DataFrame(
            {
                id_col: np.asarray(ids, dtype=np.int64),
                "token": tok_arr,
                "tf": np.asarray(tfs, dtype=np.int64),
                "__tpart": part,
            }
        )

    def score_part(g: pd.DataFrame) -> pd.DataFrame:
        dfc = g.groupby("token", sort=False)[id_col].transform("size").to_numpy(
            np.float64
        )
        tfidf = round_half_away(
            g["tf"].to_numpy(np.float64) * np.log(float(n_docs) / dfc), round_dp
        )
        out = pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(np.int64),
                "token": g["token"].to_numpy(),
                "tfidf": tfidf,
            }
        )
        out = out.sort_values(
            [id_col, "tfidf", "token"], ascending=[True, False, True], kind="mergesort"
        )
        out = out.groupby(id_col, sort=False).head(topk).reset_index(drop=True)
        out["__dpart"] = (
            pd.util.hash_array(out[id_col].to_numpy(np.int64)) % np.uint64(parts)
        ).astype(np.int64)
        return out

    def rank_final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.sort_values(
            [id_col, "tfidf", "token"], ascending=[True, False, True], kind="mergesort"
        ).reset_index(drop=True)
        out["rk"] = out.groupby(id_col, sort=False).cumcount().to_numpy(np.int64) + 1
        out = out[out["rk"] <= topk].reset_index(drop=True)
        return out[[id_col, "token", "tfidf", "rk"]].astype(
            {id_col: "int64", "tfidf": "float64", "rk": "int64"}
        )

    return (
        ds.select_columns([id_col, text_col])
        .map_batches(tf_rows, batch_format="pandas")
        .groupby("__tpart")
        .map_groups(score_part, batch_format="pandas")
        .groupby("__dpart")
        .map_groups(rank_final, batch_format="pandas")
    )


def compression_ratio_batch(
    batch: pd.DataFrame, text_col: str = "text", round_dp: int = 4
) -> pd.DataFrame:
    """Per-doc zlib compression ratio (compressed/raw bytes, level 6) — the
    "too repetitive / too random" quality signal (machine-generated spam
    compresses to almost nothing; binary junk doesn't compress at all) used
    alongside the Gopher repetition gates in web-corpus cleaning.
    Deterministic for a fixed zlib, vectorized over the batch."""
    import zlib

    texts = batch[text_col].to_numpy()
    raw = np.zeros(len(texts), dtype=np.int64)
    comp = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        if not isinstance(t, str) or not t:
            continue
        b = t.encode()
        raw[i] = len(b)
        comp[i] = len(zlib.compress(b, 6))
    out = pd.DataFrame(
        {
            "doc_id": batch["doc_id"].to_numpy(np.int64),
            "raw_bytes": raw,
            "compressed_bytes": comp,
            "compression_ratio": round_half_away(
                comp / np.maximum(raw, 1), round_dp
            ),
        }
    )
    return out


def user_value_zscore(
    ds: "ray.data.Dataset",
    key_col: str = "user_id",
    value_col: str = "value",
    round_dp: int = 4,
    parts: int = 32,
) -> pd.DataFrame:
    """Per-key mean deviation from the population in population-σ units:
    ``z = (mean_k - mean_g) / stddev_pop_g`` — the anomalous-host /
    anomalous-user detector of a crawl-health dashboard.

    Combiner pattern twice over one pass: per-key (sum, sumsq, n) partials
    feed both the per-key means and (summed on the driver, a few hundred
    bytes) the exact global moments — the raw values never ride an
    exchange twice."""
    from .agg import combiner_agg

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b[value_col].to_numpy(np.float64)
        g = (
            pd.DataFrame({key_col: b[key_col].to_numpy(np.int64), "s": v, "q": v * v})
            .groupby(key_col, sort=False)
            .agg(s=("s", "sum"), q=("q", "sum"), n=("s", "size"))
            .reset_index()
        )
        g["__part"] = (
            pd.util.hash_array(g[key_col].to_numpy(np.int64)) % np.uint64(parts)
        ).astype(np.int64)
        return g

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby(key_col, sort=False)[["s", "q", "n"]].sum().reset_index()
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    per_key = (
        ds.select_columns([key_col, value_col])
        .map_batches(partial, batch_format="pandas")
        .groupby("__part")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    n_g = float(per_key["n"].sum())
    mean_g = per_key["s"].sum() / n_g
    var_g = per_key["q"].sum() / n_g - mean_g * mean_g
    std_g = float(np.sqrt(max(var_g, 0.0)))
    out = pd.DataFrame(
        {
            key_col: per_key[key_col].to_numpy(np.int64),
            "n_events": per_key["n"].to_numpy(np.int64),
            "mean_value": round_half_away(
                per_key["s"].to_numpy() / per_key["n"].to_numpy(np.float64), round_dp
            ),
            "zscore": round_half_away(
                (per_key["s"].to_numpy() / per_key["n"].to_numpy(np.float64) - mean_g)
                / (std_g if std_g > 0 else 1.0),
                round_dp,
            ),
        }
    )
    return out.sort_values(key_col, kind="mergesort").reset_index(drop=True)


def token_entropy_batch(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Per-doc Shannon entropy (nats) of the whitespace-token unigram
    distribution — the classic gibberish / boilerplate detector (low
    entropy = repeated tokens, SEO spam; used alongside the Gopher
    repetition signals).  Pure per-batch map: explode tokens WITH their
    doc ids, one (doc, token) value_counts, then a grouped
    -(p·ln p) fold — no exchange, no Python per-row loop."""
    texts = batch[text_col]
    toks = texts.str.split(" ").to_numpy(object)
    lens = np.fromiter((len(t) for t in toks), dtype=np.int64, count=len(toks))
    doc_ids = np.repeat(batch["doc_id"].to_numpy(np.int64), lens)
    flat = pd.DataFrame(
        {"doc_id": doc_ids, "w": np.concatenate([np.asarray(t, object) for t in toks])}
    )
    flat = flat[flat["w"] != ""]
    cnt = flat.groupby(["doc_id", "w"], sort=False).size().reset_index(name="c")
    n = cnt.groupby("doc_id", sort=False)["c"].transform("sum").to_numpy(np.float64)
    p = cnt["c"].to_numpy(np.float64) / n
    cnt["term"] = -p * np.log(p)
    agg = cnt.groupby("doc_id", sort=False).agg(
        entropy=("term", "sum"), n_tokens=("c", "sum")
    )
    out = pd.DataFrame(
        {
            "doc_id": agg.index.to_numpy(np.int64),
            "entropy": agg["entropy"].to_numpy(np.float64),
            "n_tokens": agg["n_tokens"].to_numpy(np.int64),
        }
    )
    # docs whose text is all-empty tokens vanish from flat; restore with 0
    missing = batch.loc[~batch["doc_id"].isin(out["doc_id"]), "doc_id"]
    if len(missing):
        out = pd.concat(
            [out, pd.DataFrame({"doc_id": missing.to_numpy(np.int64),
                                "entropy": 0.0, "n_tokens": np.int64(0)})],
            ignore_index=True,
        )
    return out


def token_pmi(
    ds: "ray.data.Dataset",
    min_count: int = 5,
    k: int = 20,
    text_col: str = "text",
    round_dp: int = 5,
) -> pd.DataFrame:
    """Top-k adjacent-bigram collocations by pointwise mutual information
    (Church & Hanks 1990) — the statistical phrase detector:
    pmi(a,b) = ln( (c_ab·N_uni²) / (N_bi·c_a·c_b) ).

    One pass emits LOCAL unigram + bigram count partials (union schema,
    one value_counts each per batch), one key-hash combiner exchange sums
    them; surviving bigrams (>= min_count) join their unigram counts
    through the generic partition hash join — the full vocabulary is
    never broadcast or collected.  Totals fold from the same partials."""
    import ray.data  # noqa: F401

    from .agg import combiner_agg
    from .join import hash_join

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        # bigrams ride the exchange as TWO key columns (key_a, key_b), not a
        # delimiter-joined string: tokens are arbitrary non-space bytes, so
        # any in-band delimiter could collide with token content.  Unigram
        # rows set key_b = "" — unambiguous because empty tokens are
        # filtered out above.
        toks = b[text_col].str.split(" ").to_numpy(object)
        toks = [np.asarray([w for w in t if w != ""], object) for t in toks]
        uni = pd.Series(
            np.concatenate(toks) if toks else np.array([], object)
        ).value_counts()
        pa = [t[:-1] for t in toks if len(t) > 1]
        pb = [t[1:] for t in toks if len(t) > 1]
        if pa:
            bi = (
                pd.DataFrame(
                    {"key_a": np.concatenate(pa), "key_b": np.concatenate(pb)}
                )
                .groupby(["key_a", "key_b"], sort=False)
                .size()
            )
        else:
            bi = pd.Series(np.array([], np.int64))
        bi_a = [a for a, _ in bi.index] if len(bi) else []
        bi_b = [bb for _, bb in bi.index] if len(bi) else []
        return pd.DataFrame(
            {
                "kind": ["u"] * len(uni) + ["b"] * len(bi),
                "key_a": list(uni.index) + bi_a,
                "key_b": [""] * len(uni) + bi_b,
                "c": np.concatenate(
                    [uni.to_numpy(np.int64), bi.to_numpy(np.int64)]
                ),
            }
        )

    counts = combiner_agg(
        ds.map_batches(partials, batch_format="pandas"),
        ["kind", "key_a", "key_b"],
        [("c", "c", "sum")],
    ).materialize()

    tot = counts.map_batches(
        lambda b: b.groupby("kind", sort=False)["c"].sum().reset_index(),
        batch_format="pandas",
    ).to_pandas()
    n_uni = int(tot.loc[tot["kind"] == "u", "c"].sum())
    n_bi = int(tot.loc[tot["kind"] == "b", "c"].sum())

    bi = counts.map_batches(
        lambda b: (
            lambda f: pd.DataFrame(
                {
                    "a": f["key_a"].to_numpy(object),
                    "b": f["key_b"].to_numpy(object),
                    "c_ab": f["c"].to_numpy(np.int64),
                }
            )
        )(b[(b["kind"] == "b") & (b["c"] >= min_count)]),
        batch_format="pandas",
    )
    uni = counts.map_batches(
        lambda b: b[b["kind"] == "u"][["key_a", "c"]].rename(
            columns={"key_a": "w", "c": "c_w"}
        ),
        batch_format="pandas",
    )
    j1 = hash_join(bi, uni, left_key="a", right_key="w")
    j2 = hash_join(j1, uni, left_key="b", right_key="w", suffixes=("", "_b"))
    f = j2.to_pandas()
    if len(f) == 0:
        # every bigram fell below min_count: an empty Dataset loses its
        # schema on to_pandas(), so build the typed empty result here
        return pd.DataFrame(
            {
                "w_a": pd.Series([], dtype=object),
                "w_b": pd.Series([], dtype=object),
                "c_ab": pd.Series([], dtype=np.int64),
                "pmi": pd.Series([], dtype=np.float64),
            }
        )
    ca = f["c_w"].to_numpy(np.float64)
    cb = f["c_w_b"].to_numpy(np.float64)
    cab = f["c_ab"].to_numpy(np.float64)
    pmi = round_half_away(
        np.log((cab * n_uni * n_uni) / (float(n_bi) * ca * cb)), round_dp
    )
    out = pd.DataFrame(
        {
            "w_a": f["a"],
            "w_b": f["b"],
            "c_ab": f["c_ab"].astype(np.int64),
            "pmi": pmi,
        }
    )
    out = out.sort_values(
        ["pmi", "w_a", "w_b"], ascending=[False, True, True], kind="mergesort"
    )
    return out.head(k).reset_index(drop=True)
