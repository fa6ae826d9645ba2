"""Distributed edit-distance-1 similarity self-join via the
deletion-neighborhood (FastSS / SymSpell) blocking scheme — the fuzzy
matching primitive behind typo clustering, near-identical entity names
and OCR-noise dedup.

Why not (length, prefix) blocking: on real ID-like strings everything
shares a prefix and the block degenerates to one O(N^2) partition.
Deletion neighborhoods are exact for lev <= 1: two strings at edit
distance 1 ALWAYS share a key in {identity} ∪ {delete one char} —
a substitution pair shares the key deleting the differing position; an
insert/delete pair shares (long minus inserted char) == (short
identity).  Keys are 64-bit hashes (a collision only creates an extra
CANDIDATE; the vectorized verify removes false pairs).

Plan: distinct values (one hash exchange) → vectorized per-length key
emission (numpy char matrix, one np.delete per position — no Python
per-string loop) → key-hash partitioned groupby expands every key run to
candidate pairs at once (``dedup._run_pairs``) → vectorized lev==1
verify → pair-hash partitioned dedup.  Every row moves O(L) times (once
per emitted key), never N^2.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from .dedup import _run_pairs

# exchange partitions of the distinct, key and pair exchanges
FUZZY_PARTITIONS = 64


def _deletion_keys(words: np.ndarray) -> pd.DataFrame:
    """(key, w) rows: identity key + one key per deleted position, for an
    object array of UNIQUE strings.  Vectorized per length group."""
    out_keys: list[np.ndarray] = []
    out_words: list[np.ndarray] = []
    lens = np.fromiter((len(w) for w in words), np.int64, len(words))
    out_keys.append(pd.util.hash_array(words.astype(object)))
    out_words.append(words)
    for L in np.unique(lens):
        if L == 0:
            continue
        grp = words[lens == L]
        m = np.array(grp, dtype=f"U{L}").view(np.uint32).reshape(len(grp), L)
        for i in range(L):
            var = np.ascontiguousarray(np.delete(m, i, axis=1))
            vs = (
                var.view(f"U{L - 1}").ravel().astype(object)
                if L > 1
                else np.array([""] * len(grp), dtype=object)
            )
            out_keys.append(pd.util.hash_array(vs))
            out_words.append(grp)
    return pd.DataFrame(
        {
            "key": np.concatenate(out_keys).astype(np.int64, copy=False),
            "w": np.concatenate(out_words).astype(object),
        }
    )


def _lev1_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized 'levenshtein(a, b) == 1' for object arrays of pairs.
    Equal length -> hamming distance 1; length diff 1 -> the longer is
    the shorter plus one inserted char (prefix/suffix decomposition);
    else False.  No pair-by-pair Python in the equal-length bulk."""
    la = np.fromiter((len(x) for x in a), np.int64, len(a))
    lb = np.fromiter((len(x) for x in b), np.int64, len(b))
    ok = np.zeros(len(a), dtype=bool)
    same = la == lb
    for L in np.unique(la[same]):
        if L == 0:
            continue
        sel = same & (la == L)
        ma = np.array(a[sel], dtype=f"U{L}").view(np.uint32).reshape(-1, L)
        mb = np.array(b[sel], dtype=f"U{L}").view(np.uint32).reshape(-1, L)
        ok[sel] = (ma != mb).sum(axis=1) == 1
    diff1 = np.abs(la - lb) == 1
    if diff1.any():
        idx = np.flatnonzero(diff1)
        for k in idx:
            lo, hi = (a[k], b[k]) if la[k] < lb[k] else (b[k], a[k])
            # single insertion: longest common prefix + rest must match
            # with one char skipped in hi
            p = 0
            n = len(lo)
            while p < n and lo[p] == hi[p]:
                p += 1
            ok[k] = lo[p:] == hi[p + 1 :]
    return ok


def fuzzy_pairs_lev1(
    ds: "ray.data.Dataset",
    col: str,
    out_cols: tuple[str, str] = ("w_a", "w_b"),
) -> "ray.data.Dataset":
    """All unordered pairs of DISTINCT ``col`` values at edit distance
    exactly 1.  Output columns ``out_cols`` with w_a < w_b."""
    ca, cb = out_cols
    parts = np.uint64(FUZZY_PARTITIONS)

    def distinct_local(b: pd.DataFrame) -> pd.DataFrame:
        f = b[[col]].drop_duplicates().copy()
        f["__p"] = (pd.util.hash_array(f[col].to_numpy(object)) % parts).astype(np.int64)
        return f

    def emit_keys(g: pd.DataFrame) -> pd.DataFrame:
        words = g[col].drop_duplicates().to_numpy(object)
        f = _deletion_keys(words)
        f["__kp"] = (f["key"].to_numpy(np.uint64) % parts).astype(np.int64)
        return f

    def pairs_part(g: pd.DataFrame) -> pd.DataFrame:
        # sorted codes: code order is string order, so every pair of a
        # key run comes out as (w_a, w_b) with w_a < w_b
        codes, words = pd.factorize(g["w"].to_numpy(object), sort=True)
        i, j = _run_pairs(g["key"].to_numpy(np.int64), codes)
        av, bv = words[codes[i]], words[codes[j]]
        keep = _lev1_mask(av, bv)
        out = pd.DataFrame({ca: av[keep], cb: bv[keep]}).drop_duplicates()
        # the joined string is ONLY a partition router: two distinct pairs
        # colliding on it (possible if a value contains \x1f) merely land in
        # the same partition — pair identity downstream is always the two
        # columns (dedup_part drops duplicates on [ca, cb], never the key)
        out["__pp"] = (
            pd.util.hash_array((out[ca] + "\x1f" + out[cb]).to_numpy(object)) % parts
        ).astype(np.int64)
        return out

    def dedup_part(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates([ca, cb])[[ca, cb]]

    return (
        ds.map_batches(distinct_local, batch_format="pandas")
        .groupby("__p")
        .map_groups(
            lambda g: emit_keys(g.drop_duplicates(col)), batch_format="pandas"
        )
        .groupby("__kp")
        .map_groups(pairs_part, batch_format="pandas")
        .groupby("__pp")
        .map_groups(dedup_part, batch_format="pandas")
    )
