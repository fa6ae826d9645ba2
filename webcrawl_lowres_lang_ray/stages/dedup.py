"""Deduplication operators over a text Dataset.

The reference's dedup surface (SURVEY.md §2.7): exact content dedup by
SHA-256 ``file_hash`` with first-wins clone (sql.py:167-172,
lrl-crawler.py:116-147) and URL dedup by hash (sql.py:180-189).  This module
provides the training-data-pipeline generalizations as Ray Data pipelines:

* ``exact_dedup``     — hash-partition + per-group first (hash column added
                        vectorized, groupby(hash).map_groups head-1);
* ``minhash_lsh``     — word-shingle -> 64-perm MinHash -> banded LSH
                        (emit (band, band_hash, doc) rows, groupby bucket,
                        intra-bucket candidate pairs, similarity estimate);
* ``simhash``         — 64-bit SimHash fingerprints + near-dup pairs by
                        Hamming distance (banded_hamming_pairs: d + 1
                        bands, two docs within distance d share >= 1);
* ``ngram_jaccard_*`` — exact n-gram Jaccard pairs (LSH candidates + verify,
                        or the inverted-index join).

All hashing is content-derived (pandas SipHash with its fixed default key,
plus a polynomial combine for shingles) — deterministic across processes
and runs, no Python ``hash()``.

Scale notes: every "pairs that share a key" operator (substring, winnow,
inverted n-gram Jaccard, LSH candidates, SRP buckets, banded Hamming) runs
one kernel, ``_run_pairs``: per *partition-key* group (``_PAIR_PARTITIONS``
groups, not one map_groups call per bucket — per-group Python dispatch at
10^5+ buckets otherwise dominates the wall clock) it sorts rows by (key,
id) and emits the pairs of every key run at once, vectorized.
``_shared_key_pairs`` wraps it in the key exchange and the pair-keyed
count exchange.
"""

from __future__ import annotations

import hashlib
import numpy as np
import pandas as pd

import ray
import ray.data

_MERSENNE = (1 << 61) - 1
_N_PERM = 64
_PAIR_PARTITIONS = 64

# caps for the BROADCAST verification oracles — they exist to pin the
# shuffle-join scale paths on small corpora and must fail loudly, not OOM,
# if someone feeds them corpus-scale input
NGRAM_ORACLE_MAX_ROWS = 20_000
MINHASH_BROADCAST_MAX_ROWS = 100_000
_POLY = np.uint64(1099511628211)  # FNV prime, shingle combine multiplier


def _word_hashes(text: str) -> np.ndarray:
    """Whitespace tokens -> uint64 (pandas SipHash — vectorized, process-stable)."""
    words = text.split()
    if not words:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(np.asarray(words, dtype=object))


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Word k-shingles -> uint64 hashes (polynomial combine of word hashes,
    uint64 wraparound — fully vectorized)."""
    wh = _word_hashes(text)
    if len(wh) == 0:
        return wh
    if len(wh) < k:
        k = len(wh)
    out = wh[: len(wh) - k + 1].copy()
    for j in range(1, k):
        out = out * _POLY + wh[j : len(wh) - k + 1 + j]
    return out


def _perm_params(n_perm: int = _N_PERM, seed: int = 1234) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=n_perm, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=n_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def minhash_signature(text: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sh = _shingle_hashes(text)
    if len(sh) == 0:
        return np.full(len(a), np.uint64(_MERSENNE), dtype=np.uint64)
    # ((a * x) mod 2^64 + b) mod p, vectorized over perms x shingles.  The
    # uint64 product wraps before the % p, so this is NOT the classical
    # (a*x+b) mod p universal family — it is a deterministic mixed-radix
    # variant (weaker independence guarantees, empirically uniform); estimates
    # are self-consistent across runs, which is what the pipeline needs.
    prod = (a[:, None] * (sh[None, :] % _MERSENNE)) % _MERSENNE
    vals = (prod + b[:, None]) % _MERSENNE
    return vals.min(axis=1).astype(np.uint64)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64-style finalizer (public-domain constant mix)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(33)
    return x


def _pair_part(id_a, id_b) -> np.ndarray:
    """Pair-keyed exchange partition of (id_a, id_b) rows."""
    key = np.asarray(id_a, np.int64) * np.int64(2654435761) + np.asarray(id_b, np.int64)
    return (pd.util.hash_array(key) % np.uint64(_PAIR_PARTITIONS)).astype(np.int64)


def _key_part(keys: pd.DataFrame) -> np.ndarray:
    """Key-keyed exchange partition: rows with equal key columns meet."""
    h = pd.util.hash_pandas_object(keys, index=False).to_numpy(np.uint64)
    return (h % np.uint64(_PAIR_PARTITIONS)).astype(np.int64)


def _dedup_pairs(pairs: "ray.data.Dataset", cols: list[str]) -> "ray.data.Dataset":
    """Distinct (id_a, id_b) rows: hash-partition by pair key, then a
    vectorized pandas drop_duplicates per partition (valid because every
    non-key column is a pure function of the pair, so duplicates are
    identical rows).  O(#partitions) group dispatches, not O(#pairs)."""

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(pair_part=_pair_part(b["id_a"], b["id_b"]))

    def drop_dups(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["id_a", "id_b"], kind="mergesort").drop_duplicates(
            ["id_a", "id_b"]
        )[cols]

    return (
        pairs.map_batches(keyed, batch_format="pandas")
        .groupby("pair_part")
        .map_groups(drop_dups, batch_format="pandas")
    )


def _sorted_runs(keys, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort one partition's rows by (key, id), drop repeated (key, id) rows
    and find the runs of equal keys.  ``keys`` is one key array or a list
    of them (int64 or string); each is factorized first, so the sort is an
    int64 lexsort, never an object-array one.  Returns (rows, starts,
    ends): the kept row indices in sorted order and each run's
    [start, end) bounds into ``rows``."""
    code = None
    for k in keys if isinstance(keys, (list, tuple)) else [keys]:
        c, uniq = pd.factorize(k)
        code = c if code is None else pd.factorize(code * len(uniq) + c)[0]
    ids = np.asarray(ids, np.int64)
    rows = np.lexsort((ids, code))
    c, d = code[rows], ids[rows]
    new_key = np.ones(len(rows), dtype=bool)
    new_key[1:] = c[1:] != c[:-1]
    keep = new_key.copy()
    keep[1:] |= d[1:] != d[:-1]
    rows, new_key = rows[keep], new_key[keep]
    starts = np.flatnonzero(new_key)
    return rows, starts, np.append(starts[1:], len(rows))


def _run_pairs(keys, ids: np.ndarray, max_bucket: int | None = None):
    """Row-index pairs (i, j), ids[i] < ids[j], of every two rows that
    share a key (see _sorted_runs), emitted vectorized over all runs at
    once.  A run larger than ``max_bucket`` emits star pairs to its min id
    instead of all C(c, 2) pairs (see MINHASH_MAX_BUCKET)."""
    rows, starts, ends = _sorted_runs(keys, ids)
    size = ends - starts
    run_size = np.repeat(size, size)
    offset = np.arange(len(rows)) - np.repeat(starts, size)
    later = run_size - 1 - offset  # rows after this one in its run
    if max_bucket is not None:
        later = np.where(
            run_size > max_bucket, np.where(offset == 0, run_size - 1, 0), later
        )
    left = np.repeat(np.arange(len(rows)), later)
    first = np.cumsum(later) - later
    right = left + 1 + np.arange(len(left)) - np.repeat(first, later)
    return rows[left], rows[right]


def _pair_counts(id_a, id_b, n) -> pd.DataFrame:
    """Sum ``n`` per (id_a, id_b)."""
    df = pd.DataFrame(
        {"id_a": np.asarray(id_a, np.int64), "id_b": np.asarray(id_b, np.int64), "n": n}
    )
    return df.groupby(["id_a", "id_b"], sort=False, as_index=False)["n"].sum()


def _shared_key_pairs(
    rows: "ray.data.Dataset",
    key_cols: list[str],
    id_col: str,
    max_bucket: int | None = None,
    count_col: str | None = "n",
) -> "ray.data.Dataset":
    """The set-intersection join: every (id_a, id_b), id_a < id_b, that
    shares a key, with ``count_col`` = the number of distinct keys they
    share (no count column when ``count_col`` is None).

    Two bounded exchanges, nothing broadcast: (id, key...) rows
    hash-partition by key; each partition pairs the rows of every key run
    (_run_pairs) and counts per pair; a pair-keyed exchange sums the
    partition counts (a key lives in one partition, so the sum is exact).
    A key shared by c ids emits C(c, 2) pairs, or c - 1 star pairs above
    ``max_bucket``."""

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[id_col, *key_cols]]
        return b.assign(key_part=_key_part(b[key_cols]))

    def part_counts(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy(np.int64)
        i, j = _run_pairs([g[c].to_numpy() for c in key_cols], ids, max_bucket)
        out = _pair_counts(ids[i], ids[j], 1)
        return out.assign(pair_part=_pair_part(out["id_a"], out["id_b"]))

    def sum_counts(g: pd.DataFrame) -> pd.DataFrame:
        out = _pair_counts(g["id_a"], g["id_b"], g["n"].to_numpy(np.int64))
        if count_col is None:
            return out[["id_a", "id_b"]]
        return out.rename(columns={"n": count_col})

    return (
        rows.map_batches(keyed, batch_format="pandas")
        .groupby("key_part")
        .map_groups(part_counts, batch_format="pandas")
        .groupby("pair_part")
        .map_groups(sum_counts, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def add_content_hash(ds: "ray.data.Dataset", text_col: str, out_col: str = "content_md5") -> "ray.data.Dataset":
    def fn(b: pd.DataFrame) -> pd.DataFrame:
        b[out_col] = [
            hashlib.md5(t.encode()).hexdigest() for t in b[text_col]
        ]
        return b

    return ds.map_batches(fn, batch_format="pandas")


def exact_dedup_stats(
    ds: "ray.data.Dataset", text_col: str = "text", id_col: str = "doc_id"
) -> "ray.data.Dataset":
    """Per content-hash group: keeper (min id) + multiplicity.

    Equivalent of the reference's first-wins content dedup: the min-id row is
    the one that would be NLP-scored; the rest clone (lrl-crawler.py:421-428).
    """
    hashed = add_content_hash(ds.select_columns([id_col, text_col]), text_col)
    from .agg import combiner_agg

    return combiner_agg(
        hashed, ["content_md5"], [("keeper", id_col, "min"), ("n", None, "count")]
    )


def exact_dedup_keep_first(
    ds: "ray.data.Dataset", text_col: str = "text", id_col: str = "doc_id"
) -> "ray.data.Dataset":
    """Drop duplicate-content rows, keeping the min-id row per hash group."""
    hashed = add_content_hash(ds, text_col)

    def first(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(id_col, kind="mergesort").head(1)

    return hashed.groupby("content_md5").map_groups(first, batch_format="pandas")


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

def _minhash_sigs(
    ds: "ray.data.Dataset", text_col: str, id_col: str, a: np.ndarray, b: np.ndarray
) -> "ray.data.Dataset":
    def sig_stage(batch: pd.DataFrame) -> pd.DataFrame:
        sigs = [minhash_signature(t, a, b).tobytes() for t in batch[text_col]]
        return pd.DataFrame({id_col: batch[id_col].to_numpy(np.int64), "sig": sigs})

    return ds.select_columns([id_col, text_col]).map_batches(
        sig_stage, batch_format="pandas"
    )


# Buckets larger than this emit star edges (everyone <-> bucket-min) instead
# of all C(c,2) pairs.  A bucket of c docs sharing one LSH band is a dense
# near-dup cluster; all-pairs is O(c^2) rows x ~1 KB of attached signatures
# each — the round-5 10x opsoak caught a single 80 GB partition on a
# template-heavy 500k-doc corpus.  Star edges are O(c), and for dedup
# clustering (connected components) they preserve connectivity exactly.
MINHASH_MAX_BUCKET = 256


def _band_rows(batch: pd.DataFrame, id_col: str, bands: int, rows_per_band: int) -> pd.DataFrame:
    """(id, band, band_hash) rows, one per doc per LSH band.  Band hashing is
    fully vectorized: polynomial combine down the band's rows + a
    splitmix64 finalizer keyed by band index (one matrix pass per batch, no
    per-row Python)."""
    n = len(batch)
    mat = np.frombuffer(b"".join(batch["sig"]), dtype=np.uint64).reshape(
        n, bands, rows_per_band
    )
    acc = np.zeros((n, bands), dtype=np.uint64)
    for j in range(rows_per_band):
        acc = acc * _POLY + mat[:, :, j]
    band_key = _mix64(np.arange(bands, dtype=np.uint64))
    bh = (_mix64(acc ^ band_key[None, :]) >> np.uint64(1)).astype(np.int64)
    return pd.DataFrame(
        {id_col: np.repeat(batch[id_col].to_numpy(np.int64), bands),
         "band": np.tile(np.arange(bands, dtype=np.int64), n),
         "band_hash": bh.ravel()}
    )


def _lsh_candidates(
    sigs_ds: "ray.data.Dataset",
    id_col: str,
    bands: int,
    rows_per_band: int,
    max_bucket: int = MINHASH_MAX_BUCKET,
) -> "ray.data.Dataset":
    """Distinct candidate pairs from banded LSH: the shared-key join over
    (band, band_hash) keys.  Only (id, band, band_hash:int64) rows ride the
    shuffle — no signature payload (512 B x bands per doc would dominate
    the exchange).  Buckets above ``max_bucket`` fall back to star edges
    (see MINHASH_MAX_BUCKET)."""
    banded = sigs_ds.map_batches(
        lambda b: _band_rows(b, id_col, bands, rows_per_band), batch_format="pandas"
    )
    return _shared_key_pairs(
        banded, ["band", "band_hash"], id_col, max_bucket, count_col=None
    )


# Salt fan-out for the pair side of _attach_sig.  Star-edge hubs (a bucket-min
# id appearing in up to bands x cluster-size pairs) would otherwise funnel
# every one of their pair rows into ONE join partition — the round-5 10x
# opsoak observed a single 15 GB join_part task.  Pairs spread across
# _ATTACH_SALTS partitions keyed by the OPPOSITE pair id; each sig row is
# replicated once per salt (sigs are ~520 B/doc, so the replication is cheap
# next to the pair payload it de-skews).
_ATTACH_SALTS = 8


def _attach_sig(
    pairs: "ray.data.Dataset",
    sigs_ds: "ray.data.Dataset",
    key: str,
    carry: list[str],
    out_name: str,
    id_col: str,
) -> "ray.data.Dataset":
    """Shuffle hash-join: attach ``sig`` bytes from sigs_ds to each pair row
    by ``pairs[key] == sigs[id_col]``.  Both sides are tagged into one
    schema-aligned dataset, hash-partitioned on (join key, salt), and merged
    with a vectorized dict-map per partition — the signature matrix is never
    collected on the driver (the round-1 broadcast verify died at ~10^9
    docs), and hot join keys are salted by the opposite pair id (see
    _ATTACH_SALTS)."""
    cols = ["jkey", "jsalt", "is_sig", "sig", *carry]
    other = "id_b" if key == "id_a" else "id_a"

    def prep_pairs(b: pd.DataFrame) -> pd.DataFrame:
        out = b[carry].copy()
        out["jkey"] = b[key].to_numpy(np.int64)
        out["jsalt"] = (
            pd.util.hash_array(b[other].to_numpy(np.int64)) % _ATTACH_SALTS
        ).astype(np.int64)
        out["is_sig"] = False
        out["sig"] = pd.Series([b""] * len(b), dtype=object, index=out.index)
        return out[cols]

    def prep_sigs(b: pd.DataFrame) -> pd.DataFrame:
        n = len(b)
        out = pd.DataFrame(
            {"jkey": np.repeat(b[id_col].to_numpy(np.int64), _ATTACH_SALTS)}
        )
        out["jsalt"] = np.tile(np.arange(_ATTACH_SALTS, dtype=np.int64), n)
        out["is_sig"] = True
        out["sig"] = np.repeat(b["sig"].to_numpy(object), _ATTACH_SALTS)
        for c in carry:
            out[c] = (
                pd.Series([b""] * len(out), dtype=object)
                if c.startswith("sig")
                else np.int64(-1)
            )
        return out[cols]

    def add_part(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return b.assign(jpart=pd.Series(dtype="int64"))
        b = b.copy()
        b["jpart"] = (
            (pd.util.hash_array(b["jkey"].to_numpy(np.int64)) % _PAIR_PARTITIONS)
            * _ATTACH_SALTS
            + b["jsalt"].to_numpy(np.int64)
        ).astype(np.int64)
        return b

    def join_part(g: pd.DataFrame) -> pd.DataFrame:
        is_sig = g["is_sig"].to_numpy(bool)
        lookup = dict(zip(g.loc[is_sig, "jkey"], g.loc[is_sig, "sig"]))
        p = g.loc[~is_sig, ["jkey", *carry]].copy()
        p[out_name] = p["jkey"].map(lookup)
        return p.drop(columns=["jkey"])

    tagged = pairs.map_batches(prep_pairs, batch_format="pandas").union(
        sigs_ds.map_batches(prep_sigs, batch_format="pandas")
    )
    return (
        tagged.map_batches(add_part, batch_format="pandas")
        .groupby("jpart")
        .map_groups(join_part, batch_format="pandas")
    )


def _bucket_verified_pairs(
    sigs_ds: "ray.data.Dataset",
    id_col: str,
    bands: int,
    rows_per_band: int,
    threshold: float,
    max_bucket: int,
) -> "ray.data.Dataset":
    """Bucket-local LSH verify: band rows carry the FULL signature into the
    bucket partition, and pairs are generated AND verified inside it — no
    pair-keyed signature join at all.  Exchange = n_docs x bands x sig_width,
    independent of candidate count.  This is the scale path for dense
    (template-heavy) corpora: the round-5 500k-doc opsoak cell produced
    40.7M candidates whose two ``_attach_sig`` exchanges shipped 28 + 26 GB
    (the 512 B signature replicated per pair row, twice) and took ~2,300 s;
    carrying signatures once per band is 8.6 GB and the survivors (est >=
    threshold, ~23k rows) are the only pair rows that ever ride a shuffle.
    Arrow-native blocks (binary signature column) keep the exchange
    zero-copy.  Output is identical to the attach-sig path: distinct
    (id_a, id_b, est_jaccard), id_a < id_b, est rounded to 4 dp."""
    import pyarrow as pa

    pairs_schema = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), ("est_jaccard", pa.float64())]
    )

    def band_stage_sig(batch: pd.DataFrame):
        out = _band_rows(batch, id_col, bands, rows_per_band)
        return pa.table(
            {**{c: out[c].to_numpy() for c in out},
             "part": _key_part(out[["band", "band_hash"]]),
             "sig": pa.array(np.repeat(batch["sig"].to_numpy(object), bands),
                             type=pa.binary())}
        )

    banded = sigs_ds.map_batches(band_stage_sig, batch_format="pandas")

    def part_verify(g: "pa.Table") -> "pa.Table":
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keys = [g[c].to_numpy(zero_copy_only=False) for c in ("band", "band_hash")]
        mat = np.frombuffer(
            b"".join(g["sig"].to_numpy(zero_copy_only=False)), dtype=np.uint64
        ).reshape(len(ids), -1)
        i, j = _run_pairs(keys, ids, max_bucket)
        est = np.empty(len(i))
        for s in range(0, len(i), 1 << 16):  # bounds the (pairs x sig) compare
            e = s + (1 << 16)
            est[s:e] = (mat[i[s:e]] == mat[j[s:e]]).mean(axis=1)
        est = np.round(est, 4)
        keep = est >= threshold
        # within-partition distinct (a pair recurs across this partition's
        # bands); cross-partition dups fall to _dedup_pairs below
        out = pd.DataFrame(
            {"id_a": ids[i[keep]], "id_b": ids[j[keep]], "est_jaccard": est[keep]}
        ).drop_duplicates(["id_a", "id_b"])
        return pa.Table.from_arrays(
            [out[c].to_numpy() for c in pairs_schema.names], schema=pairs_schema
        )

    survivors = banded.groupby("part").map_groups(
        part_verify, batch_format="pyarrow"
    )
    return _dedup_pairs(survivors, ["id_a", "id_b", "est_jaccard"])


def minhash_lsh_pairs(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    bands: int = 32,
    rows_per_band: int = 2,
    threshold: float = 0.5,
    max_bucket: int = MINHASH_MAX_BUCKET,
    verify: str = "auto",
) -> "ray.data.Dataset":
    """Candidate near-dup pairs with MinHash-estimated Jaccard >= threshold.

    shingle -> minhash (per batch, vectorized) -> materialize compact
    signature rows (object store, not driver) -> banded LSH candidates
    (_lsh_candidates: band-hash rows only on the shuffle) -> verify, by one
    of two exchange plans picked from measured candidate density
    (``verify="auto"``, the ``pagerank_auto``/``auto_join`` precedent):

    * ``attach`` — shuffle-join both signatures onto each candidate pair
      (_attach_sig twice; ~1 KB per pair on the exchange).  Optimal for
      sparse corpora (few candidates relative to corpus size).
    * ``bucket`` — re-shuffle band rows WITH the full signature and verify
      inside the bucket partition (_bucket_verified_pairs; n x bands x
      sig_width on the exchange, independent of pair count).  Optimal for
      dense/template-heavy corpora; crossover at 2 x pairs > n x bands.

    Returns (id_a, id_b, est_jaccard), id_a < id_b — identical rows from
    either plan.
    """
    a, b = _perm_params(bands * rows_per_band)
    sigs_ds = _minhash_sigs(ds, text_col, id_col, a, b).materialize()
    if verify == "bucket":
        return _bucket_verified_pairs(
            sigs_ds, id_col, bands, rows_per_band, threshold, max_bucket
        )
    cands = _lsh_candidates(sigs_ds, id_col, bands, rows_per_band, max_bucket)
    if verify == "auto":
        cands = cands.materialize()
        n_pairs = cands.count()
        n_docs = sigs_ds.count()
        # exchange-volume crossover: attach ships ~2 x pairs x sig_width,
        # bucket ships n_docs x bands x sig_width
        if 2 * n_pairs > n_docs * bands:
            return _bucket_verified_pairs(
                sigs_ds, id_col, bands, rows_per_band, threshold, max_bucket
            )
    elif verify != "attach":
        raise ValueError(f"verify must be auto|attach|bucket, got {verify!r}")
    with_a = _attach_sig(cands, sigs_ds, "id_a", ["id_a", "id_b"], "sig_a", id_col)
    with_ab = _attach_sig(
        with_a, sigs_ds, "id_b", ["id_a", "id_b", "sig_a"], "sig_b", id_col
    )

    def verify_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"),
                 "est_jaccard": pd.Series(dtype="float64")}
            )
        n = len(batch)
        ma = np.frombuffer(b"".join(batch["sig_a"]), dtype=np.uint64).reshape(n, -1)
        mb = np.frombuffer(b"".join(batch["sig_b"]), dtype=np.uint64).reshape(n, -1)
        est = np.round((ma == mb).mean(axis=1), 4)
        out = batch[["id_a", "id_b"]].copy()
        out["est_jaccard"] = est
        return out.loc[est >= threshold].reset_index(drop=True)

    return with_ab.map_batches(verify_pairs, batch_format="pandas")


def minhash_lsh_pairs_broadcast(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    bands: int = 32,
    rows_per_band: int = 2,
    threshold: float = 0.5,
) -> "ray.data.Dataset":
    """Broadcast-verify variant (signature matrix via ray.put): the small-N
    oracle used in tests to pin the shuffle-join implementation's pair set.
    Collects all signatures — do not use at scale."""
    a, b = _perm_params(bands * rows_per_band)
    sigs_ds = _minhash_sigs(ds, text_col, id_col, a, b).materialize()
    sig_df = sigs_ds.to_pandas()
    if len(sig_df) > MINHASH_BROADCAST_MAX_ROWS:
        raise ValueError(
            f"minhash_lsh_pairs_broadcast collects the full signature matrix "
            f"(got {len(sig_df)} rows > cap {MINHASH_BROADCAST_MAX_ROWS}); "
            "use minhash_lsh_pairs (shuffle-joined verify) at scale"
        )
    ids_all = sig_df[id_col].to_numpy(np.int64)
    sigmat = np.frombuffer(b"".join(sig_df["sig"]), dtype=np.uint64).reshape(
        len(sig_df), -1
    )
    row_of = {int(i): r for r, i in enumerate(ids_all)}
    sig_ref = ray.put((row_of, sigmat))
    cands = _lsh_candidates(sigs_ds, id_col, bands, rows_per_band)

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return batch.assign(est_jaccard=pd.Series(dtype="float64"))
        rows, mat = ray.get(sig_ref)
        ra = np.fromiter((rows[int(i)] for i in batch["id_a"]), dtype=np.int64, count=len(batch))
        rb = np.fromiter((rows[int(i)] for i in batch["id_b"]), dtype=np.int64, count=len(batch))
        est = np.round((mat[ra] == mat[rb]).mean(axis=1), 4)
        out = batch.copy()
        out["est_jaccard"] = est
        return out.loc[est >= threshold].reset_index(drop=True)

    return cands.map_batches(verify, batch_format="pandas")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (vectorized bit votes)."""
    wh = _word_hashes(text)
    if len(wh) == 0:
        return 0
    bits = (wh[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
    votes = 2 * bits.astype(np.int64).sum(axis=0) - len(wh)
    return int(((votes > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def add_simhash(ds: "ray.data.Dataset", text_col: str = "text") -> "ray.data.Dataset":
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        batch["simhash"] = np.array(
            [np.uint64(simhash64(t)) for t in batch[text_col]], dtype=np.uint64
        )
        return batch

    return ds.map_batches(fn, batch_format="pandas")


_POPCOUNT8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def banded_hamming_pairs(
    rows: "ray.data.Dataset", id_col: str, hash_col: str, max_hamming: int
) -> "ray.data.Dataset":
    """Pairs of 64-bit hashes within Hamming distance ``max_hamming`` — the
    banded (pigeonhole) join shared by SimHash text near-dup and the image
    (dHash) / audio (envelope fingerprint) near-dup operators.  The 64 bits
    split into ``max_hamming + 1`` bands, so two hashes within that distance
    agree on at least one whole band: candidates are the shared-band pairs
    of each band partition (_run_pairs), verified by one vectorized
    popcount; a pair sharing several bands is deduplicated by
    _dedup_pairs.  Returns (id_a, id_b, hamming), id_a < id_b."""
    if not 0 <= max_hamming <= 63:
        raise ValueError(f"max_hamming must be in [0, 63], got {max_hamming}")
    n_bands = max_hamming + 1
    edges = [64 * i // n_bands for i in range(n_bands + 1)]

    def explode_bands(b: pd.DataFrame) -> pd.DataFrame:
        h = b[hash_col].to_numpy().view(np.uint64)
        ids = b[id_col].to_numpy(np.int64)
        out = pd.DataFrame(
            {id_col: np.tile(ids, n_bands),
             "hash": np.tile(h.view(np.int64), n_bands),
             "band": np.repeat(np.arange(n_bands, dtype=np.int64), len(b)),
             "band_val": np.concatenate(
                 [((h >> np.uint64(lo)) & np.uint64((1 << (hi - lo)) - 1)).view(np.int64)
                  for lo, hi in zip(edges[:-1], edges[1:])]
             )}
        )
        return out.assign(part=_key_part(out[["band", "band_val"]]))

    def part_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy(np.int64)
        h = g["hash"].to_numpy(np.int64).view(np.uint64)
        i, j = _run_pairs([g["band"].to_numpy(), g["band_val"].to_numpy()], ids)
        x = (h[i] ^ h[j]).view(np.uint8).reshape(-1, 8)
        d = _POPCOUNT8[x].sum(axis=1, dtype=np.int64)
        keep = d <= max_hamming
        return pd.DataFrame(
            {"id_a": ids[i[keep]], "id_b": ids[j[keep]], "hamming": d[keep]}
        )

    pairs = (
        rows.map_batches(explode_bands, batch_format="pandas")
        .groupby("part")
        .map_groups(part_pairs, batch_format="pandas")
    )
    return _dedup_pairs(pairs, ["id_a", "id_b", "hamming"])


def simhash_neardup_pairs(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
) -> "ray.data.Dataset":
    """Near-dup pairs by SimHash Hamming distance <= max_hamming, through
    the banded Hamming join (banded_hamming_pairs)."""
    withhash = add_simhash(ds.select_columns([id_col, text_col]), text_col)
    return banded_hamming_pairs(withhash, id_col, "simhash", max_hamming)


# ---------------------------------------------------------------------------
# exact n-gram Jaccard (verification / small-scale oracle)
# ---------------------------------------------------------------------------

def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    sa = set(_shingle_hashes(text_a, k).tolist())
    sb = set(_shingle_hashes(text_b, k).tolist())
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _string_shingles(text: str, k: int = 3) -> set[str]:
    """Word k-shingles as STRINGS (not hashes) — the SQL-comparable form.
    Texts shorter than k words collapse to one whole-text shingle."""
    words = text.split()
    if not words:
        return set()
    if len(words) < k:
        return {" ".join(words)}
    return {" ".join(words[i : i + k]) for i in range(len(words) - k + 1)}


def ngram_jaccard_lsh(
    ds: "ray.data.Dataset",
    threshold: float = 0.5,
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    bands: int = 32,
    rows_per_band: int = 2,
    round_dp: int = 4,
) -> "ray.data.Dataset":
    """EXACT n-gram Jaccard >= threshold over MinHash-LSH candidate pairs —
    the scale path for ngram_jaccard_allpairs (which stays the quadratic
    small-N oracle).  Candidates come from banded LSH (band-hash rows only
    on the shuffle); the exact verify shuffle-joins each doc's serialized
    string-shingle SET onto its candidate pairs (_attach_sig — nothing is
    broadcast or driver-collected) and computes true Jaccard.  Recall vs
    the exact oracle at the LSH operating point is pinned in tests.
    Returns (id_a, id_b, jaccard), id_a < id_b."""
    a, b = _perm_params(bands * rows_per_band)
    sigs_ds = _minhash_sigs(ds, text_col, id_col, a, b).materialize()
    cands = _lsh_candidates(sigs_ds, id_col, bands, rows_per_band)

    def shingle_stage(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                id_col: batch[id_col].to_numpy(np.int64),
                # \x1f is a safe delimiter: it is Unicode whitespace for
                # str.split() (shingles are space-joins of split() words, so
                # none can contain it)
                "sig": [
                    "\x1f".join(sorted(_string_shingles(t, k))).encode()
                    for t in batch[text_col]
                ],
            }
        )

    sets_ds = (
        ds.select_columns([id_col, text_col])
        .map_batches(shingle_stage, batch_format="pandas")
        .materialize()
    )
    with_a = _attach_sig(cands, sets_ds, "id_a", ["id_a", "id_b"], "sig_a", id_col)
    with_ab = _attach_sig(
        with_a, sets_ds, "id_b", ["id_a", "id_b", "sig_a"], "sig_b", id_col
    )

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"),
                 "jaccard": pd.Series(dtype="float64")}
            )
        jac = np.empty(len(batch), dtype=np.float64)
        for i, (sa, sb) in enumerate(zip(batch["sig_a"], batch["sig_b"])):
            xa = set(sa.decode().split("\x1f")) if sa else set()
            xb = set(sb.decode().split("\x1f")) if sb else set()
            if not xa and not xb:
                jac[i] = 1.0
            elif not xa or not xb:
                jac[i] = 0.0
            else:
                inter = len(xa & xb)
                jac[i] = inter / (len(xa) + len(xb) - inter)
        keep = jac >= threshold
        out = batch.loc[keep, ["id_a", "id_b"]].copy()
        out["jaccard"] = np.round(jac[keep], round_dp)
        return out.reset_index(drop=True)

    return with_ab.map_batches(verify, batch_format="pandas")


def ngram_jaccard_allpairs(
    ds: "ray.data.Dataset",
    threshold: float = 0.5,
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    block_rows: int = 256,
    round_dp: int = 4,
) -> "ray.data.Dataset":
    """Exact n-gram Jaccard over ALL pairs >= threshold (id_a < id_b).

    Shingle sets are built distributed, broadcast once, and the O(N^2) pair
    space fans out as row blocks (same broadcast-block pattern as
    ann.cosine_neardup_pairs).  Exact all-pairs is the verification oracle —
    quadratic by definition; at scale run minhash_lsh_pairs first and feed
    only candidate pairs through ``ngram_jaccard``."""

    def shingle_stage(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(np.int64),
                "sh": [sorted(_string_shingles(t, k)) for t in b[text_col]],
            }
        )

    sets_df = (
        ds.select_columns([id_col, text_col])
        .map_batches(shingle_stage, batch_format="pandas")
        .to_pandas()
        .sort_values(id_col, kind="mergesort")
        .reset_index(drop=True)
    )
    if len(sets_df) > NGRAM_ORACLE_MAX_ROWS:
        raise ValueError(
            f"ngram_jaccard_allpairs is the quadratic small-N oracle "
            f"(got {len(sets_df)} rows > cap {NGRAM_ORACLE_MAX_ROWS}); "
            "use ngram_jaccard_lsh (banded MinHash candidates + exact "
            "Jaccard verify) for corpus-scale near-dup"
        )
    ids = sets_df[id_col].to_numpy(np.int64)
    shingle_sets = [set(s) for s in sets_df["sh"]]
    ref = ray.put((ids, shingle_sets))
    n = len(ids)
    nblocks = max(1, (n + block_rows - 1) // block_rows)

    def block_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        ids_all, sets_all = ray.get(ref)
        out = []
        for blk in batch["id"].to_numpy():
            lo = int(blk) * block_rows
            hi = min(lo + block_rows, len(ids_all))
            for i in range(lo, hi):
                si = sets_all[i]
                for j in range(i + 1, len(ids_all)):
                    sj = sets_all[j]
                    if not si and not sj:
                        jac = 1.0
                    elif not si or not sj:
                        jac = 0.0
                    else:
                        inter = len(si & sj)
                        jac = inter / (len(si) + len(sj) - inter)
                    if jac >= threshold:
                        out.append((int(min(ids_all[i], ids_all[j])),
                                    int(max(ids_all[i], ids_all[j])),
                                    round(jac, round_dp)))
        return pd.DataFrame(out, columns=["id_a", "id_b", "jaccard"]).astype(
            {"id_a": "int64", "id_b": "int64", "jaccard": "float64"}
        )

    return ray.data.range(nblocks).map_batches(
        block_pairs, batch_format="pandas", batch_size=1
    )


def ngram_jaccard_inverted(
    ds: "ray.data.Dataset",
    threshold: float = 0.5,
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_dp: int = 4,
    score: str = "jaccard",
) -> "ray.data.Dataset":
    """EXACT n-gram Jaccard >= threshold via an inverted-index
    set-similarity join — no all-pairs stage, no broadcast, no per-pair
    set shipping (the PPJoin-family inverted-index plan, Xiao et al. 2008
    §2, minus the prefix filter so the result stays exactly the SQL
    oracle's).

    Plan:
    1. one pass emits (doc, g1, g2) per DISTINCT shingle per doc — the
       shingle key is a 128-bit pair of rolling polynomial hashes over
       two independent SipHash word hashes (equal word sequences always
       collide; unequal ones collide with ~2^-128 odds); per-doc set
       sizes ride along as one extra row per doc;
    2. the shared-key join (_shared_key_pairs) over (g1, g2) gives
       |A ∩ B| for every pair sharing a shingle;
    3. per-doc sizes are shuffle-joined on (the same _attach_sig
       tagged-union partition join as the LSH verifies, payload one
       int64); jaccard = inter / (|A| + |B| - inter).
    Pairs sharing no shingle never materialize (their jaccard is 0 except
    the empty-empty case, which a pseudo-shingle routes together: two
    empty shingle sets are jaccard 1.0, matching the SQL oracle).

    Scale note: a shingle shared by c docs emits c(c-1)/2 partials —
    boilerplate "stop shingles" are the skew risk at corpus scale; the
    exact-parity contract forbids dropping them here, so a corpus with
    known boilerplate should pre-filter it (or accept the PPJoin prefix
    filter's threshold-aware pruning as a follow-up).  Returns
    (id_a, id_b, jaccard), id_a < id_b.
    """
    _HK2 = "wllr-jaccard-k2x"  # 16 chars, second independent SipHash key
    # pseudo-key routing empty docs together (real-shingle collision ~2^-128)
    _EMPTY_G1 = np.int64(-0x215D41C5A1B2C3D4)
    _EMPTY_G2 = np.int64(0x6B43E1F2A9D80123)

    def shingle_rows(b: pd.DataFrame) -> pd.DataFrame:
        id_arr = b[id_col].to_numpy(np.int64)
        flat: list[str] = []
        spans: list[tuple[int, int, int]] = []  # (doc_id, word_offset, n_words)
        for i, t in zip(id_arr, b[text_col]):
            ws = t.split() if isinstance(t, str) else []
            spans.append((int(i), len(flat), len(ws)))
            flat.extend(ws)
        if flat:
            fa = np.asarray(flat, dtype=object)
            wh1 = pd.util.hash_array(fa)
            wh2 = pd.util.hash_array(fa, hash_key=_HK2)
        ids: list[np.ndarray] = []
        g1s: list[np.ndarray] = []
        g2s: list[np.ndarray] = []
        for i, s, length in spans:
            if length == 0:
                ids.append(np.array([i], dtype=np.int64))
                g1s.append(np.array([_EMPTY_G1]))
                g2s.append(np.array([_EMPTY_G2]))
                continue
            ke = min(k, length)  # short texts collapse to one whole-text shingle

            def roll(wh: np.ndarray) -> np.ndarray:
                seg = wh[s : s + length]
                out = seg[: length - ke + 1].copy()
                for j in range(1, ke):
                    out = out * _POLY + seg[j : length - ke + 1 + j]
                return out

            a1 = roll(wh1).view(np.int64)
            a2 = roll(wh2).view(np.int64)
            ids.append(np.full(len(a1), i, dtype=np.int64))
            g1s.append(a1)
            g2s.append(a2)
        df = pd.DataFrame(
            {
                id_col: np.concatenate(ids),
                "g1": np.concatenate(g1s),
                "g2": np.concatenate(g2s),
            }
        ).drop_duplicates()  # distinct shingles per doc
        is_empty = (df["g1"].to_numpy() == _EMPTY_G1) & (
            df["g2"].to_numpy() == _EMPTY_G2
        )
        df["size"] = np.int64(-1)
        # per-doc distinct set size (empty docs: 0 — the pseudo row doesn't count)
        counts = (
            df.loc[~is_empty]
            .groupby(id_col, sort=False)
            .size()
            .reindex(id_arr, fill_value=0)
        )
        size_rows = pd.DataFrame(
            {
                id_col: id_arr,
                "g1": np.int64(0),
                "g2": np.int64(0),
                "size": counts.to_numpy(np.int64),
            }
        )
        return pd.concat([df, size_rows], ignore_index=True)

    emitted = ds.select_columns([id_col, text_col]).map_batches(
        shingle_rows, batch_format="pandas"
    ).materialize()

    def to_sizes(b: pd.DataFrame) -> pd.DataFrame:
        s = b[b["size"] >= 0]
        return pd.DataFrame(
            {id_col: s[id_col].to_numpy(np.int64),
             "sig": [int(v).to_bytes(8, "big") for v in s["size"]]}
        )

    sizes_ds = emitted.map_batches(to_sizes, batch_format="pandas")
    grams = emitted.map_batches(
        lambda b: b[b["size"] < 0][[id_col, "g1", "g2"]], batch_format="pandas"
    )
    pairs = _shared_key_pairs(grams, ["g1", "g2"], id_col, count_col="inter")
    with_a = _attach_sig(
        pairs, sizes_ds, "id_a", ["id_a", "id_b", "inter"], "sig_a", id_col
    )
    with_ab = _attach_sig(
        with_a, sizes_ds, "id_b", ["id_a", "id_b", "inter", "sig_a"], "sig_b", id_col
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            cols = (
                {"jaccard": pd.Series(dtype="float64")}
                if score == "jaccard"
                else {
                    "cont_a": pd.Series(dtype="float64"),
                    "cont_b": pd.Series(dtype="float64"),
                }
            )
            return pd.DataFrame(
                {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"),
                 **cols}
            )
        na = np.array([int.from_bytes(s, "big") for s in b["sig_a"]], dtype=np.int64)
        nb = np.array([int.from_bytes(s, "big") for s in b["sig_b"]], dtype=np.int64)
        inter = b["inter"].to_numpy(np.int64)
        both_empty = (na == 0) & (nb == 0)
        if score == "containment":
            # one-sided overlap: |A∩B| / |A| (excerpt/quote detection —
            # a short doc fully inside a long one scores 1.0 though its
            # Jaccard is tiny).  Both-empty -> 1.0; one-empty pairs never
            # meet (no shared shingle) and are defined 0.
            ca = np.where(both_empty, 1.0, inter / np.where(na == 0, 1, na))
            cb = np.where(both_empty, 1.0, inter / np.where(nb == 0, 1, nb))
            keep = np.maximum(ca, cb) >= threshold
            out = b.loc[keep, ["id_a", "id_b"]].copy()
            out["cont_a"] = np.round(ca[keep], round_dp)
            out["cont_b"] = np.round(cb[keep], round_dp)
            return out.reset_index(drop=True)
        denom = np.where(both_empty, 1, na + nb - inter)
        jac = np.where(both_empty, 1.0, inter / denom)
        keep = jac >= threshold
        out = b.loc[keep, ["id_a", "id_b"]].copy()
        out["jaccard"] = np.round(jac[keep], round_dp)
        return out.reset_index(drop=True)

    return with_ab.map_batches(finish, batch_format="pandas")


def line_dedup(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    parts: int = _PAIR_PARTITIONS,
    min_chars: int = 1,
) -> "ray.data.Dataset":
    """CCNet-style corpus-level line deduplication (Wenzek et al. 2020
    §3.1): every duplicated line keeps ONLY its first occurrence in global
    ``(doc, line_idx)`` order — later copies (nav menus, footers, cookie
    banners: the boilerplate that dominates web text) are dropped from the
    document body.

    Plan (two bounded exchanges, nothing broadcast):
    1. explode each doc into (doc, idx, h1, h2) rows — the line key is a
       128-bit pair of independent SipHashes of the stripped line (equal
       lines always collide, unequal ~2^-128; computed in two vectorized
       passes, no per-line hashlib loop); whitespace-only lines are
       structural, never deduped — partitioned by h1;
    2. per hash partition, one vectorized pass finds each line's owner
       (min (doc, idx)) and emits DROP rows for every later copy — the
       exchange carries only duplicate occurrences, not the corpus;
    3. drops partition-join back onto the docs by ``id`` hash (tagged
       union, same shape as _attach_sig) and each doc's surviving lines
       are re-joined in order.

    Returns (id, n_lines, n_dropped, text) with ``text`` rebuilt.  Serial
    first-wins oracle parity is pinned in tests/test_stages.py.
    """
    _HK2 = "wllr-linededup2x"  # 16 chars, second independent SipHash key

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ids: list[int] = []
        idxs: list[int] = []
        lines: list[str] = []
        for i, t in zip(b[id_col].to_numpy(np.int64), b[text_col]):
            if not isinstance(t, str):
                continue
            for j, ln in enumerate(t.split("\n")):
                s = ln.strip()
                if len(s) >= min_chars:
                    ids.append(int(i))
                    idxs.append(j)
                    lines.append(s)
        if lines:
            la = np.asarray(lines, dtype=object)
            h1 = pd.util.hash_array(la).view(np.int64)
            h2 = pd.util.hash_array(la, hash_key=_HK2).view(np.int64)
            part = (h1.view(np.uint64) % np.uint64(parts)).astype(np.int64)
        else:
            h1 = h2 = part = np.zeros(0, dtype=np.int64)
        return pd.DataFrame(
            {
                "doc": np.array(ids, dtype=np.int64),
                "idx": np.array(idxs, dtype=np.int64),
                "h1": h1,
                "h2": h2,
                "part": part,
            }
        )

    def drops_in_part(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"doc": pd.Series(dtype="int64"), "idx": pd.Series(dtype="int64")}
        )
        if len(g) == 0:
            return empty
        g2 = g.sort_values(["h1", "h2", "doc", "idx"], kind="mergesort")
        first = ~g2.duplicated(["h1", "h2"], keep="first")
        drops = g2.loc[~first, ["doc", "idx"]]
        return drops if len(drops) else empty

    drops = (
        ds.select_columns([id_col, text_col])
        .map_batches(explode, batch_format="pandas")
        .groupby("part")
        .map_groups(drops_in_part, batch_format="pandas")
    )

    # tagged-union partition join: docs carry text, drop rows carry idx
    def tag_docs(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "doc": b[id_col].to_numpy(np.int64),
                "idx": np.int64(-1),
                "txt": b[text_col].to_numpy(object),
            }
        )
        return out

    def tag_drops(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc": b["doc"].to_numpy(np.int64),
                "idx": b["idx"].to_numpy(np.int64),
                "txt": pd.Series([None] * len(b), dtype=object),
            }
        )

    def add_doc_part(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return b.assign(dpart=pd.Series(dtype="int64"))
        b = b.copy()
        b["dpart"] = (
            pd.util.hash_array(b["doc"].to_numpy(np.int64)) % parts
        ).astype(np.int64)
        return b

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                id_col: pd.Series(dtype="int64"),
                "n_lines": pd.Series(dtype="int64"),
                "n_dropped": pd.Series(dtype="int64"),
                text_col: pd.Series(dtype=object),
            }
        )
        if len(g) == 0:
            return empty
        is_doc = g["idx"].to_numpy(np.int64) == -1
        docs_g = g.loc[is_doc]
        drop_map: dict[int, set] = {}
        for d, i in zip(g.loc[~is_doc, "doc"], g.loc[~is_doc, "idx"]):
            drop_map.setdefault(int(d), set()).add(int(i))
        out_id, out_n, out_drop, out_txt = [], [], [], []
        for d, t in zip(docs_g["doc"], docs_g["txt"]):
            lines = t.split("\n") if isinstance(t, str) else []
            dset = drop_map.get(int(d), ())
            kept = [ln for j, ln in enumerate(lines) if j not in dset]
            out_id.append(int(d))
            out_n.append(len(lines))
            out_drop.append(len(dset))
            out_txt.append("\n".join(kept))
        return pd.DataFrame(
            {
                id_col: np.array(out_id, dtype=np.int64),
                "n_lines": np.array(out_n, dtype=np.int64),
                "n_dropped": np.array(out_drop, dtype=np.int64),
                text_col: np.array(out_txt, dtype=object),
            }
        )

    tagged = (
        ds.select_columns([id_col, text_col])
        .map_batches(tag_docs, batch_format="pandas")
        .union(drops.map_batches(tag_drops, batch_format="pandas"))
    )
    return (
        tagged.map_batches(add_doc_part, batch_format="pandas")
        .groupby("dpart")
        .map_groups(rebuild, batch_format="pandas")
    )


def substring_dedup_pairs(
    ds: "ray.data.Dataset",
    window: int = 40,
    stride: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """Exact substring-sharing dedup (Lee et al. 2021, "Deduplicating
    Training Data Makes Language Models Better", arXiv:2107.06499, the
    exact-substring family): document pairs (id_a < id_b) sharing at least
    one length-``window`` character substring sampled every ``stride``
    chars, with the count of distinct shared windows.

    Scale shape: the shared-key join (_shared_key_pairs) over EXACT window
    strings (no hash-collision false pairs) — nothing is broadcast and no
    all-pairs stage exists.  A window shared by k docs emits k(k-1)/2
    pairs: near-dup cluster size bounds the fan-out (cap hot windows with
    a HAVING-style frequency filter if a corpus has boilerplate shared by
    thousands of docs — not applied here so the SQL oracle stays exact)."""

    def windows_stage(b: pd.DataFrame) -> pd.DataFrame:
        ids_out: list[int] = []
        wins_out: list[str] = []
        for i, t in zip(b[id_col].to_numpy(np.int64), b[text_col]):
            if t is None or len(t) < window:
                continue
            seen = set()
            for o in range(0, len(t) - window + 1, stride):
                w = t[o : o + window]
                if w not in seen:
                    seen.add(w)
                    ids_out.append(int(i))
                    wins_out.append(w)
        return pd.DataFrame(
            {id_col: pd.Series(ids_out, dtype="int64"),
             "win": pd.Series(wins_out, dtype="object")}
        )

    windows = ds.select_columns([id_col, text_col]).map_batches(
        windows_stage, batch_format="pandas"
    )
    return _shared_key_pairs(windows, ["win"], id_col, count_col="shared_windows")


def dup_ngram_fraction(
    ds: "ray.data.Dataset",
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    parts: int = 64,
    round_dp: int = 4,
) -> "ray.data.Dataset":
    """Duplicated-n-gram-fraction filter (the CCNet / RefinedWeb
    "fraction of duplicated n-grams" document-quality signal — Wenzek et
    al. 2020, Penedo et al. 2023 §4.2): for each doc, the fraction of its
    DISTINCT word n-grams whose first corpus occurrence (owner = min
    ``doc_id`` containing the n-gram) is an earlier document.

    Plan (two bounded exchanges, nothing broadcast or driver-collected):

    1. ``map_batches`` emits one ``(doc_id, g1, g2)`` row per distinct
       shingle per doc — the 128-bit (two uint64) rolling-hash key bounds
       exchange width no matter how long the n-gram text is, and is
       computed fully vectorized (no per-shingle hashlib loop);
    2. hash-partition by shingle digest; inside each partition one
       vectorized pandas pass computes the per-shingle owner (min doc) and
       collapses to PER-DOC PARTIAL counts — the second exchange carries at
       most one row per (doc, partition), never shingle rows;
    3. a small ``groupby(doc_id)`` partition-sum yields
       ``(doc_id, n_shingles, n_dup, dup_fraction)``.

    A shingle lives in exactly one partition, so partial counts sum exactly.
    Output ``dup_fraction`` is rounded (``round_dp``) to match the SQL
    oracle; docs with < n words have no shingles and are absent (SQL join
    semantics).

    Hot-path note (round-5, measured at a 500k-doc / 348M-shingle opsoak
    cell): the original pandas version spent 36 s/task in
    ``DataFrame.drop_duplicates`` and 12 s/task double-hashing the word
    array, and shipped pandas blocks through both exchanges.  This version
    is Arrow-native end to end — ``pyarrow.compute`` whitespace split (no
    per-doc Python loop), one ``pd.factorize`` + vocab-only double hash,
    ``np.lexsort`` + run-boundary masks for the per-doc distinct and the
    per-partition owner min (no pandas groupby), and ``pa.Table`` blocks
    through the sorts (zero-copy exchange instead of pickled frames).
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.textstats import round_half_away

    # Shingle identity = TWO independent 64-bit keys (SipHash over words
    # with distinct hash keys, rolling polynomial combine): 128-bit
    # effective — collision odds ~S^2/2^129, negligible at corpus scale —
    # while the exchange row is (id, g1, g2, part) = 24 B of key instead
    # of a 32-char md5 hex string.  The digest never reaches the output
    # (only counts do), so the SQL oracle's md5(gram) grouping is matched
    # by ANY injective keying; this one is fully vectorized (no per-shingle
    # hashlib loop, no string joins).
    _HK2 = "wllr-dupngram-k2"  # 16 chars, second independent SipHash key

    _SHINGLE_SCHEMA = pa.schema(
        [(id_col, pa.int64()), ("g1", pa.int64()), ("g2", pa.int64()),
         ("__part", pa.int64())]
    )
    _PARTIAL_SCHEMA = pa.schema(
        [(id_col, pa.int64()), ("n_shingles", pa.int64()),
         ("n_dup", pa.int64()), ("__dpart", pa.int64())]
    )

    def shingle_rows(b: pa.Table) -> pa.Table:
        ids_all = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = pc.fill_null(
            pc.cast(b[text_col].combine_chunks(), pa.string()), ""
        )
        lst = pc.utf8_split_whitespace(texts)
        flat = pc.list_flatten(lst)
        counts = pc.list_value_length(lst).to_numpy().astype(np.int64)
        # arrow's split emits empty strings at text edges (python str.split
        # drops them — and the SQL oracle list_filter()s them out): mask
        ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        docidx = np.repeat(np.arange(len(ids_all), dtype=np.int64), counts)[ne]
        words = flat.to_numpy(zero_copy_only=False)[ne]
        if len(words) < n:
            return pa.Table.from_arrays(
                [pa.array([], type=pa.int64())] * 4, schema=_SHINGLE_SCHEMA
            )
        # one categorize pass; the double SipHash runs on the small vocab
        # only (hash_array(obj) is elementwise, so uh[codes] == hash of
        # every word — bit-identical to hashing the full flat array)
        codes, uniq = pd.factorize(words)
        wh1 = pd.util.hash_array(uniq, categorize=False)[codes]
        wh2 = pd.util.hash_array(uniq, hash_key=_HK2, categorize=False)[codes]

        def rolling(wh: np.ndarray) -> np.ndarray:
            out = wh[: len(wh) - n + 1].copy()
            for j in range(1, n):
                out = out * _POLY + wh[j : len(wh) - n + 1 + j]
            return out

        g1 = rolling(wh1).view(np.int64)
        g2 = rolling(wh2).view(np.int64)
        # valid shingle starts: the window [j, j+n) stays inside one doc
        # (docidx is sorted, so "same doc n-1 ahead" == "window in one doc")
        valid = docidx[: len(docidx) - n + 1] == docidx[n - 1 :]
        if not valid.any():
            return pa.Table.from_arrays(
                [pa.array([], type=pa.int64())] * 4, schema=_SHINGLE_SCHEMA
            )
        doc = ids_all[docidx[: len(docidx) - n + 1][valid]]
        g1 = g1[valid]
        g2 = g2[valid]
        # distinct (doc, g1, g2): lexsort + run-boundary mask (pandas
        # drop_duplicates was 36 s/task at this volume; this is ~2 s)
        order = np.lexsort((g2, g1, doc))
        doc, g1, g2 = doc[order], g1[order], g2[order]
        keep = np.empty(len(doc), dtype=bool)
        keep[0] = True
        keep[1:] = (
            (doc[1:] != doc[:-1]) | (g1[1:] != g1[:-1]) | (g2[1:] != g2[:-1])
        )
        doc, g1, g2 = doc[keep], g1[keep], g2[keep]
        part = (g1.view(np.uint64) % np.uint64(parts)).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(doc), pa.array(g1), pa.array(g2), pa.array(part)],
            schema=_SHINGLE_SCHEMA,
        )

    def owner_partials(g: pa.Table) -> pa.Table:
        doc = g[id_col].to_numpy(zero_copy_only=False)
        g1 = g["g1"].to_numpy(zero_copy_only=False)
        g2 = g["g2"].to_numpy(zero_copy_only=False)
        order = np.lexsort((doc, g2, g1))
        doc, g1, g2 = doc[order], g1[order], g2[order]
        newrun = np.empty(len(g1), dtype=bool)
        newrun[0] = True
        newrun[1:] = (g1[1:] != g1[:-1]) | (g2[1:] != g2[:-1])
        starts = np.nonzero(newrun)[0]
        # doc is the lexsort minor key -> run-first element IS the run min
        owner_per_row = np.repeat(doc[starts], np.diff(np.append(starts, len(doc))))
        dup = doc > owner_per_row
        udoc, inv = np.unique(doc, return_inverse=True)
        n_shingles = np.bincount(inv)
        n_dup = np.bincount(inv, weights=dup).astype(np.int64)
        dpart = (pd.util.hash_array(udoc) % np.uint64(parts)).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(udoc), pa.array(n_shingles.astype(np.int64)),
             pa.array(n_dup), pa.array(dpart)],
            schema=_PARTIAL_SCHEMA,
        )

    def finish(g: pa.Table) -> pa.Table:
        doc = g[id_col].to_numpy(zero_copy_only=False)
        udoc, inv = np.unique(doc, return_inverse=True)
        n_shingles = np.bincount(
            inv, weights=g["n_shingles"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        n_dup = np.bincount(
            inv, weights=g["n_dup"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        frac = round_half_away(
            n_dup.astype(np.float64)
            / np.maximum(n_shingles.astype(np.float64), 1.0),
            round_dp,
        )
        return pa.Table.from_arrays(
            [pa.array(udoc), pa.array(n_shingles), pa.array(n_dup),
             pa.array(frac)],
            names=[id_col, "n_shingles", "n_dup", "dup_fraction"],
        )

    return (
        ds.select_columns([id_col, text_col])
        .map_batches(shingle_rows, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(owner_partials, batch_format="pyarrow")
        .groupby("__dpart")
        .map_groups(finish, batch_format="pyarrow")
    )


def winnow_neardup_pairs(
    ds: "ray.data.Dataset",
    window: int = 16,
    select: int = 8,
    min_shared: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """Winnowing near-dup pairs (Schleimer, Wilkerson & Aiken 2003, "Winnowing:
    Local Algorithms for Document Fingerprinting" — the MOSS algorithm):
    each doc keeps the minimum Rabin-Karp hash per sliding window of
    ``select`` rolling hashes (``textstats.winnow_fingerprints``), and two
    docs sharing >= ``min_shared`` selected fingerprints form a candidate
    near-dup pair.  Winnowing guarantees any shared substring of length
    >= window + select - 1 contributes a shared fingerprint, making this
    the position-robust complement of the fixed-stride exact-substring
    family above.

    The pairs come from the shared-key join (_shared_key_pairs) over
    (fingerprint, doc) rows — no broadcast, no driver collection.  Returns
    (id_a, id_b, shared_fps), id_a < id_b, shared_fps >= min_shared."""
    from .textstats import winnow_fingerprints

    def fp_rows(b: pd.DataFrame) -> pd.DataFrame:
        ids: list[int] = []
        fps: list[int] = []
        for i, t in zip(b[id_col].to_numpy(np.int64), b[text_col]):
            sel = set(winnow_fingerprints(t if isinstance(t, str) else "", window, select))
            ids.extend([int(i)] * len(sel))
            fps.extend(sel)
        # fingerprints are uint64; reinterpret as int64 (bijective) so the
        # key column stays a native pandas dtype
        return pd.DataFrame(
            {id_col: np.asarray(ids, dtype=np.int64),
             "fp": np.fromiter(fps, dtype=np.uint64, count=len(fps)).view(np.int64)}
        )

    fps = ds.select_columns([id_col, text_col]).map_batches(
        fp_rows, batch_format="pandas"
    )
    return _shared_key_pairs(fps, ["fp"], id_col, count_col="shared_fps").map_batches(
        lambda b: b.loc[b["shared_fps"] >= min_shared].reset_index(drop=True),
        batch_format="pandas",
    )
