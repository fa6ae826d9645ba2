"""Similarity search over an embedding column (list<float>).

* ``brute_force_topk`` — the exact baseline: the (small) query matrix is
  ``ray.put`` once and every batch does one numpy matmul against it — a
  broadcast join, no shuffle.  Top-k is per-batch partial top-k followed by
  a tiny driver-side merge (the classic distributed top-k combiner).
* ``srp_lsh_topk``     — the scale path: signed-random-projection LSH.
  An indexing pass assigns each vector a b-bit signature bucket (seeded
  hyperplanes, deterministic); the query probes its own bucket plus all
  buckets within Hamming distance <= ``probe_hamming``, computing exact
  cosine only on candidates.  Recall vs the brute-force baseline is
  asserted in tests.
"""

from __future__ import annotations

import itertools

import numpy as np
import pandas as pd

import ray
import ray.data

from .textstats import round_half_away

# cosine_neardup_pairs broadcasts the full normalized matrix and computes
# O(N^2 D): fine as a verification oracle, a scale-killer beyond this.
COSINE_ORACLE_MAX_ROWS = 50_000


def _batch_matrix(batch: pd.DataFrame, vec_col: str) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=np.float64) for v in batch[vec_col]])


def _cosine_scores(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    qn = q / np.linalg.norm(q)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return (mat @ qn) / norms


def brute_force_topk(
    ds: "ray.data.Dataset",
    query_vec: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_dp: int = 5,
) -> pd.DataFrame:
    """Exact cosine top-k. Returns (id, score) ordered by (-score, id)."""
    q_ref = ray.put(np.asarray(query_vec, dtype=np.float64))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        mat = _batch_matrix(batch, vec_col)
        scores = round_half_away(_cosine_scores(mat, q), round_dp)
        order = np.lexsort((batch[id_col].to_numpy(), -scores))[:k]
        return pd.DataFrame(
            {id_col: batch[id_col].to_numpy()[order], "score": scores[order]}
        )

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        partial, batch_format="pandas"
    )
    allp = partials.to_pandas()  # <= k rows per batch — tiny
    allp = allp.sort_values(["score", id_col], ascending=[False, True], kind="mergesort")
    return allp.head(k).reset_index(drop=True)


# ---------------------------------------------------------------------------
# SRP-LSH
# ---------------------------------------------------------------------------

def _srp_planes(dim: int, bits: int, table: int, seed: int = 99) -> np.ndarray:
    rng = np.random.RandomState(seed + 1000 * table)
    return rng.normal(size=(bits, dim))


def _signature(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (mat @ planes.T) > 0
    out = np.zeros(len(mat), dtype=np.int64)
    for j in range(planes.shape[0]):
        out |= bits[:, j].astype(np.int64) << j
    return out


def build_srp_index(
    ds: "ray.data.Dataset",
    dim: int,
    bits: int = 8,
    n_tables: int = 4,
    vec_col: str = "embedding",
    seed: int = 99,
) -> "ray.data.Dataset":
    """Indexing pass: n_tables signature columns sig0..sigL-1 (deterministic
    hyperplanes; L independent tables is the standard SRP recall lever)."""
    planes = [_srp_planes(dim, bits, t, seed) for t in range(n_tables)]
    planes_ref = ray.put(planes)

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        mat = _batch_matrix(batch, vec_col)
        pls = ray.get(planes_ref)
        for t, pl in enumerate(pls):
            batch[f"sig{t}"] = _signature(mat, pl)
        return batch

    return ds.map_batches(fn, batch_format="pandas")


def _probe_set(qsig: int, bits: int, probe_hamming: int) -> set[int]:
    sigs = {qsig}
    for dist in range(1, probe_hamming + 1):
        for flip in itertools.combinations(range(bits), dist):
            s = qsig
            for f in flip:
                s ^= 1 << f
            sigs.add(s)
    return sigs


def srp_lsh_topk(
    indexed: "ray.data.Dataset",
    query_vec: np.ndarray,
    dim: int,
    k: int = 10,
    bits: int = 8,
    n_tables: int = 4,
    probe_hamming: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed: int = 99,
    round_dp: int = 5,
) -> pd.DataFrame:
    """Multi-table multi-probe SRP-LSH top-k over a build_srp_index index.

    A row is a candidate if it matches the query's probe set in ANY table
    (union of tables); exact cosine is computed only on candidates."""
    q = np.asarray(query_vec, dtype=np.float64)
    probe_sets = []
    for t in range(n_tables):
        planes = _srp_planes(dim, bits, t, seed)
        qsig = int(_signature(q[None, :], planes)[0])
        probe_sets.append(_probe_set(qsig, bits, probe_hamming))
    probes_ref = ray.put(probe_sets)

    def cand_filter(batch: pd.DataFrame) -> pd.DataFrame:
        ps = ray.get(probes_ref)
        mask = np.zeros(len(batch), dtype=bool)
        for t, sigs in enumerate(ps):
            mask |= batch[f"sig{t}"].isin(list(sigs)).to_numpy()
        return batch.loc[mask]

    cands = indexed.map_batches(cand_filter, batch_format="pandas")
    q_ref = ray.put(q)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        qq = ray.get(q_ref)
        mat = _batch_matrix(batch, vec_col)
        scores = round_half_away(_cosine_scores(mat, qq), round_dp)
        order = np.lexsort((batch[id_col].to_numpy(), -scores))[:k]
        return pd.DataFrame(
            {id_col: batch[id_col].to_numpy()[order], "score": scores[order]}
        )

    allp = cands.map_batches(partial, batch_format="pandas").to_pandas()
    if len(allp) == 0:
        return pd.DataFrame({id_col: [], "score": []})
    allp = allp.sort_values(["score", id_col], ascending=[False, True], kind="mergesort")
    return allp.head(k).reset_index(drop=True)


# ---------------------------------------------------------------------------
# SRP-bucketed embedding near-dup (the scale path)
# ---------------------------------------------------------------------------

def srp_neardup_pairs(
    ds: "ray.data.Dataset",
    dim: int,
    threshold: float = 0.35,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    bits: int = 8,
    n_tables: int = 8,
    seed: int = 99,
    round_dp: int = 3,
    verify: str = "auto",
) -> "ray.data.Dataset":
    """Approximate embedding-cosine near-dup pairs via SRP-LSH buckets.

    Candidate generation: each vector emits, per table, its ``bits``-bit SRP
    signature plus every 1-bit flip (``bits``+1 probe rows) — two vectors
    within Hamming distance 2 in a table then share >= 1 probe bucket, so a
    table catches a pair with prob P(d<=2) and ``n_tables`` tables multiply
    recall (8x8-bit tables + 1-bit probes ~ 0.96+ at cos 0.35).  Exact
    cosine verification runs by one of two exchange plans picked from
    measured bucket density (``verify="auto"``, the ``minhash_lsh_pairs``
    precedent — the r5 sf1 querysoak found the attach plan's candidate
    exchange explodes on a cosine continuum: 20k vectors x 24 tables
    produced ~1e9 candidate pair rows and filled the disk):

    * ``attach`` — probe rows carry (id, bucket) only; per-bucket pair ids
      are deduped then shuffle-joined onto the normalized vectors
      (_attach_sig twice).  Optimal when buckets prune (TRUE near-dup
      clusters): exchange ~ 2 x pairs x vec_width.
    * ``bucket`` — probe rows carry the normalized vector; pairs are
      generated AND verified inside the bucket partition via a chunked
      (rows x bucket) matmul, and only threshold survivors ride the final
      pair-dedup shuffle.  Exchange = n x tables x (bits+1) x vec_width,
      independent of candidate count — the degenerate-regime plan.

    ``auto`` measures exact bucket counts first (bucket ids live in a
    bounded key space, <= n_tables x 2^bits values, so the count pass is a
    tiny partial-value_counts aggregation) and picks by the exchange-volume
    crossover 2 x candidate_pairs vs n x tables x (bits+1).  Both plans
    return identical rows.  Exact all-pairs (``cosine_neardup_pairs``) is
    the small-N oracle; recall vs it is pinned in tests.  Returns
    (id_a, id_b, cos_sim), id_a < id_b.
    """
    from .dedup import (
        _attach_sig,
        _dedup_pairs,
        _key_part,
        _shared_key_pairs,
        _sorted_runs,
    )

    planes = [_srp_planes(dim, bits, t, seed) for t in range(n_tables)]
    planes_ref = ray.put(planes)

    def norm_vec_stage(batch: pd.DataFrame) -> pd.DataFrame:
        mat = _batch_matrix(batch, vec_col)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        matn = mat / norms[:, None]
        return pd.DataFrame(
            {id_col: batch[id_col].to_numpy(np.int64),
             "sig": [v.tobytes() for v in matn]}
        )

    vecs_ds = (
        ds.select_columns([id_col, vec_col])
        .map_batches(norm_vec_stage, batch_format="pandas")
        .materialize()
    )

    nprobes = bits + 1

    def _probe_stage(with_sig: bool):
        def probe_stage(batch: pd.DataFrame) -> pd.DataFrame:
            n = len(batch)
            matn = np.frombuffer(b"".join(batch["sig"]), dtype=np.float64).reshape(n, dim)
            ids = batch[id_col].to_numpy(np.int64)
            pls = ray.get(planes_ref)
            out_id, out_bucket = [], []
            flips = np.concatenate(([0], 1 << np.arange(bits, dtype=np.int64)))
            for t, pl in enumerate(pls):
                sig = _signature(matn, pl)
                probed = sig[:, None] ^ flips[None, :]  # (n, bits+1)
                out_id.append(np.repeat(ids, nprobes))
                out_bucket.append((np.int64(t) << np.int64(bits + 1)) | probed.ravel())
            out = pd.DataFrame(
                {id_col: np.concatenate(out_id), "bucket": np.concatenate(out_bucket)}
            )
            if with_sig:
                out["part"] = _key_part(out[["bucket"]])
                # same (table-major, id, probe) row order as out_id above
                out["sig"] = np.tile(
                    np.repeat(batch["sig"].to_numpy(object), nprobes), n_tables
                )
            return out

        return probe_stage

    probes = vecs_ds.map_batches(_probe_stage(False), batch_format="pandas")

    if verify == "auto":
        # Bucket ids live in a bounded key space (<= n_tables * 2**bits
        # distinct values), so exact bucket counts are a tiny aggregation:
        # per-batch value_counts partials summed driver-side — bounded by
        # #blocks x n_tables x 2**bits rows, never by probe-row count.
        def bucket_partials(b: pd.DataFrame) -> pd.DataFrame:
            vc = b["bucket"].value_counts()
            return pd.DataFrame(
                {"bucket": vc.index.to_numpy(np.int64),
                 "n": vc.to_numpy(np.int64)}
            )

        agg = (
            probes.map_batches(bucket_partials, batch_format="pandas")
            .to_pandas()
            .groupby("bucket")["n"]
            .sum()
        )
        cand_rows = float((agg * (agg - 1) // 2).sum())
        n_vecs = vecs_ds.count()
        # exchange-volume crossover (minhash_lsh_pairs precedent): attach
        # ships ~2 x candidate pair rows x vec_width through _attach_sig;
        # the bucket plan ships every probe row with its vector once.
        verify = (
            "bucket"
            if 2.0 * cand_rows > float(n_vecs * n_tables * nprobes)
            else "attach"
        )

    if verify == "bucket":
        _empty_pairs = pd.DataFrame(
            {"id_a": pd.Series(dtype="int64"),
             "id_b": pd.Series(dtype="int64"),
             "cos_sim": pd.Series(dtype="float64")}
        )

        def bucket_verify(g: pd.DataFrame) -> pd.DataFrame:
            rows, starts, ends = _sorted_runs(
                g["bucket"].to_numpy(np.int64), g[id_col].to_numpy(np.int64)
            )
            ids_all = g[id_col].to_numpy(np.int64)[rows]
            mat = np.frombuffer(
                b"".join(g["sig"].to_numpy(object)[rows]), dtype=np.float64
            ).reshape(len(rows), dim)
            ia_all, ib_all, cs_all = [], [], []
            for s, e in zip(starts, ends):
                c = e - s
                if c < 2:
                    continue
                bi = ids_all[s:e]  # ascending, distinct
                m = mat[s:e]
                # chunked (rows x bucket) matmul bounds task memory on
                # degenerate buckets; only threshold survivors materialize
                for i0 in range(0, c, 2048):
                    i1 = min(i0 + 2048, c)
                    sims = m[i0:i1] @ m.T
                    ii, jj = np.nonzero(sims >= threshold)
                    keep = (ii + i0) < jj
                    ii, jj = ii[keep], jj[keep]
                    if len(ii):
                        ia_all.append(bi[ii + i0])
                        ib_all.append(bi[jj])
                        cs_all.append(sims[ii, jj])
            if not ia_all:
                return _empty_pairs.copy()
            return pd.DataFrame(
                {"id_a": np.concatenate(ia_all),
                 "id_b": np.concatenate(ib_all),
                 "cos_sim": round_half_away(np.concatenate(cs_all), round_dp)}
            )

        verified = (
            vecs_ds.map_batches(_probe_stage(True), batch_format="pandas")
            .groupby("part")
            .map_groups(bucket_verify, batch_format="pandas")
        )
        # cos_sim is a pure function of the pair, so multi-bucket duplicates
        # are identical rows — exactly _dedup_pairs's contract
        return _dedup_pairs(verified, ["id_a", "id_b", "cos_sim"])

    cands = _shared_key_pairs(probes, ["bucket"], id_col, count_col=None)
    with_a = _attach_sig(cands, vecs_ds, "id_a", ["id_a", "id_b"], "sig_a", id_col)
    with_ab = _attach_sig(
        with_a, vecs_ds, "id_b", ["id_a", "id_b", "sig_a"], "sig_b", id_col
    )

    def attach_verify(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"),
                 "cos_sim": pd.Series(dtype="float64")}
            )
        n = len(batch)
        va = np.frombuffer(b"".join(batch["sig_a"]), dtype=np.float64).reshape(n, dim)
        vb = np.frombuffer(b"".join(batch["sig_b"]), dtype=np.float64).reshape(n, dim)
        cos = (va * vb).sum(axis=1)
        keep = cos >= threshold
        out = batch.loc[keep, ["id_a", "id_b"]].copy()
        out["cos_sim"] = round_half_away(cos[keep], round_dp)
        return out.reset_index(drop=True)

    return with_ab.map_batches(attach_verify, batch_format="pandas")


# ---------------------------------------------------------------------------
# embedding-cosine near-dup (exact all-pairs) + IVF
# ---------------------------------------------------------------------------

def cosine_neardup_pairs(
    ds: "ray.data.Dataset",
    threshold: float = 0.35,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    block_rows: int = 512,
    round_dp: int = 3,
) -> "ray.data.Dataset":
    """Exact embedding-cosine near-dup pairs: (id_a < id_b, cos >= threshold).

    The normalized matrix is broadcast once (``ray.put``); work fans out as
    row blocks, each computing one (block x all) matmul — O(N^2 D) compute
    over N/block_rows tasks with zero shuffle.  The broadcast bounds N to
    what fits one worker's heap (N x D float64); beyond that use the
    SRP-LSH bucketed variant (``build_srp_index`` + within-bucket pairs) —
    the documented scale path, same pattern as dedup's MinHash-LSH.

    Guarded: raises above ``COSINE_ORACLE_MAX_ROWS`` rows instead of
    OOMing/stalling — this operator is the small-N verification oracle,
    not the scale path.
    """
    tbl = ds.select_columns([id_col, vec_col]).to_pandas()
    if len(tbl) > COSINE_ORACLE_MAX_ROWS:
        raise ValueError(
            f"cosine_neardup_pairs is the quadratic small-N oracle "
            f"(got {len(tbl)} rows > cap {COSINE_ORACLE_MAX_ROWS}); "
            "use srp_neardup_pairs (SRP-LSH bucketed candidates + exact "
            "verify) for corpus-scale near-dup"
        )
    ids = tbl[id_col].to_numpy(np.int64)
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in tbl[vec_col]])
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    matn = mat / norms[:, None]
    ref = ray.put((ids, matn))
    n = len(ids)
    nblocks = max(1, (n + block_rows - 1) // block_rows)

    def block_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        ids_all, matn_all = ray.get(ref)
        out_a, out_b, out_s = [], [], []
        for blk in batch["id"].to_numpy():
            lo = int(blk) * block_rows
            hi = min(lo + block_rows, len(ids_all))
            sims = matn_all[lo:hi] @ matn_all.T
            # upper triangle only: global column index > global row index
            rows, cols = np.nonzero(sims >= threshold)
            keep = cols > (rows + lo)
            rows, cols = rows[keep], cols[keep]
            ia, ib = ids_all[rows + lo], ids_all[cols]
            out_a.append(np.minimum(ia, ib))
            out_b.append(np.maximum(ia, ib))
            out_s.append(round_half_away(sims[rows, cols], round_dp))
        if not out_a:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"),
                 "cos_sim": pd.Series(dtype="float64")}
            )
        return pd.DataFrame(
            {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b),
             "cos_sim": np.concatenate(out_s)}
        )

    return ray.data.range(nblocks).map_batches(
        block_pairs, batch_format="pandas", batch_size=1
    )


def cosine_pairs_blocked(
    ds: "ray.data.Dataset",
    threshold: float = 0.35,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    rows_per_block: int = 1024,
    n_blocks: int | None = None,
    round_dp: int = 3,
) -> "ray.data.Dataset":
    """EXACT cosine >= threshold pair join with NO broadcast and NO driver
    collection — the shipped scale path for the low-threshold regime.

    Why not LSH here: a low threshold over a cosine CONTINUUM (the test
    corpus has its qualifying pairs hugging 0.35, none above 0.7) defeats
    bucket pruning — at a recall-1.0 operating point nearly every pair
    collides in some table, so SRP-LSH degenerates to all-pairs plus probe
    and shuffle overhead (measured 44 s vs 2 s at sf0.1; BASELINE.md round
    4).  Exact similarity joins at low thresholds are inherently O(N^2 D)
    compute; the engine's job is to spread that evenly with bounded
    exchange — the classic distributed block all-pairs:

    1. one normalize pass -> (id, 8D-byte sig, block = id-hash % B);
    2. each vector re-emitted B times keyed by the unordered block pair
       (lo*B+hi) it participates in — the ONLY exchange, O(N*B) rows (B
       grows ~sqrt(N/rows_per_block), so exchange volume is O(N^1.5 D)
       while compute stays O(N^2 D) — compute-bound long before the
       exchange matters);
    3. ``groupby(pair).map_groups`` does ONE (n_lo x n_hi) matmul per
       group — B(B+1)/2 evenly-sized tasks, low-cardinality grouping.

    Every unordered vector pair {u,v} lands in exactly one block-pair
    group, so the result EQUALS the broadcast oracle (and the SQL oracle)
    bit-for-bit.  SRP-LSH (``srp_neardup_pairs``) remains the right scale
    path when the data has true near-duplicates (cos >= ~0.7) and recall
    < 1 is acceptable.  Returns (id_a, id_b, cos_sim), id_a < id_b.
    """
    if n_blocks is None:
        n = ds.count()
        n_blocks = int(min(64, max(1, -(-n // rows_per_block))))
    nb = int(n_blocks)

    def emit(batch: pd.DataFrame) -> pd.DataFrame:
        m = len(batch)
        if m == 0:
            return pd.DataFrame(
                {id_col: pd.Series(dtype="int64"),
                 "sig": pd.Series(dtype=object),
                 "pair": pd.Series(dtype="int64"),
                 "side": pd.Series(dtype="int64")}
            )
        mat = _batch_matrix(batch, vec_col)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        matn = mat / norms[:, None]
        ids = batch[id_col].to_numpy(np.int64)
        blk = (pd.util.hash_array(ids) % np.uint64(nb)).astype(np.int64)
        sigs = [v.tobytes() for v in matn]
        other = np.arange(nb, dtype=np.int64)
        lo = np.minimum(blk[:, None], other[None, :])  # (m, nb)
        hi = np.maximum(blk[:, None], other[None, :])
        pair = (lo * nb + hi).ravel()
        side = (blk[:, None] != lo).astype(np.int64).ravel()
        return pd.DataFrame(
            {
                id_col: np.repeat(ids, nb),
                "sig": np.array(sigs, dtype=object).repeat(nb),
                "pair": pair,
                "side": side,
            }
        )

    def group_pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"),
             "cos_sim": pd.Series(dtype="float64")}
        )
        if len(g) == 0:
            return empty
        pair = int(g["pair"].iloc[0])
        diag = (pair // nb) == (pair % nb)

        def decode(sub: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
            ids = sub[id_col].to_numpy(np.int64)
            mat = np.frombuffer(b"".join(sub["sig"]), dtype=np.float64).reshape(
                len(sub), -1
            )
            return ids, mat

        if diag:
            ids, mat = decode(g)
            sims = mat @ mat.T
            r, c = np.nonzero(np.triu(sims >= threshold, k=1))
            ia, ib = ids[r], ids[c]
        else:
            a = g[g["side"] == 0]
            b = g[g["side"] == 1]
            if len(a) == 0 or len(b) == 0:
                return empty
            ids_a, mat_a = decode(a)
            ids_b, mat_b = decode(b)
            sims = mat_a @ mat_b.T
            r, c = np.nonzero(sims >= threshold)
            ia, ib = ids_a[r], ids_b[c]
        if len(ia) == 0:
            return empty
        return pd.DataFrame(
            {
                "id_a": np.minimum(ia, ib),
                "id_b": np.maximum(ia, ib),
                "cos_sim": round_half_away(sims[r, c], round_dp),
            }
        )

    return (
        ds.select_columns([id_col, vec_col])
        .map_batches(emit, batch_format="pandas")
        .groupby("pair")
        .map_groups(group_pairs, batch_format="pandas")
    )


def ivf_train_centroids(
    ds: "ray.data.Dataset",
    nlist: int = 16,
    vec_col: str = "embedding",
    sample_rows: int = 4096,
    iters: int = 10,
    seed: int = 7,
) -> np.ndarray:
    """Deterministic k-means coarse quantizer trained on a bounded sample
    (the IVF 'train' phase; FAISS-style).  Sample -> driver, Lloyd iterations
    in numpy; centroids are tiny and get broadcast to the assign stage."""
    sample = ds.select_columns([vec_col]).limit(sample_rows).to_pandas()
    x = np.stack([np.asarray(v, dtype=np.float64) for v in sample[vec_col]])
    rng = np.random.RandomState(seed)
    cents = x[rng.choice(len(x), size=min(nlist, len(x)), replace=False)].copy()
    for _ in range(iters):
        d = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(cents)):
            members = x[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
    return cents


def ivf_topk(
    ds: "ray.data.Dataset",
    centroids: np.ndarray,
    query_vec: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_dp: int = 5,
) -> pd.DataFrame:
    """IVF approximate top-k: assign each vector to its nearest centroid
    inside map_batches (broadcast centroids), keep only vectors whose list is
    among the query's ``nprobe`` closest lists, exact cosine + partial top-k
    on the survivors.  With nprobe == nlist this is exhaustive and equals
    ``brute_force_topk`` exactly (the SQL-checkable configuration)."""
    q = np.asarray(query_vec, dtype=np.float64)
    dq = ((centroids - q[None, :]) ** 2).sum(axis=1)
    probed = set(np.argsort(dq)[:nprobe].tolist())
    bundle_ref = ray.put((centroids, q, probed))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cents, qv, probe_set = ray.get(bundle_ref)
        mat = _batch_matrix(batch, vec_col)
        d = ((mat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        lists = d.argmin(axis=1)
        mask = np.isin(lists, list(probe_set))
        if not mask.any():
            return pd.DataFrame(
                {id_col: pd.Series(dtype="int64"), "score": pd.Series(dtype="float64")}
            )
        sub = mat[mask]
        ids = batch[id_col].to_numpy()[mask]
        scores = round_half_away(_cosine_scores(sub, qv), round_dp)
        order = np.lexsort((ids, -scores))[:k]
        return pd.DataFrame({id_col: ids[order], "score": scores[order]})

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        partial, batch_format="pandas"
    )
    allp = partials.to_pandas()
    allp = allp.sort_values(["score", id_col], ascending=[False, True], kind="mergesort")
    return allp.head(k).reset_index(drop=True)


def semantic_dedup(
    ds: "ray.data.Dataset",
    ncluster: int = 8,
    tau: float = 0.95,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_dp: int = 5,
) -> "ray.data.Dataset":
    """SemDeDup semantic deduplication (Abbas et al. 2023, arXiv:2303.09540):
    k-means-cluster the embeddings, then inside each cluster drop every item
    whose cosine similarity to an already-kept item is >= ``tau``.

    Deviations from the paper, both deterministic by construction: the
    coarse quantizer is the repo's bounded-sample k-means
    (``ivf_train_centroids``, fixed seed) rather than faiss, and the keeper
    within a near-dup group is the LOWEST id (greedy in ``id_col`` order)
    rather than the item with lowest centroid similarity — first-wins
    matches every other dedup family in this repo (D5 semantics).

    Scale shape: centroids broadcast once (``ray.put``); the only shuffle is
    the cluster-keyed groupby, exactly the paper's partitioning trick — the
    quadratic verify runs per cluster, never across the corpus.
    Partitioning assumption (documented, as the paper's): one cluster's
    vectors fit in a worker; raise ``ncluster`` so expected cluster size
    stays bounded (the paper uses ~100k clusters at web scale).

    Output: ``(vec_id, cluster, keep, max_sim)`` where ``max_sim`` is the
    highest cosine to any kept earlier same-cluster item (rounded; -1.0
    when the cluster has no earlier kept item).
    """
    cents = ivf_train_centroids(ds, nlist=ncluster, vec_col=vec_col)
    cents_ref = ray.put(cents)

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cents_ref)
        mat = _batch_matrix(b, vec_col)
        d = ((mat[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        normed = mat / norms[:, None]
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(np.int64),
                "cluster": d.argmin(axis=1).astype(np.int64),
                "nvec": [v.tobytes() for v in normed],
            }
        )

    dim = cents.shape[1]

    def dedup_cluster(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort").reset_index(drop=True)
        mat = np.frombuffer(b"".join(g["nvec"]), dtype=np.float64).reshape(-1, dim)
        n = len(g)
        keep = np.zeros(n, dtype=bool)
        max_sim = np.full(n, -1.0)
        kept_rows: list[int] = []
        for i in range(n):
            if kept_rows:
                sims = mat[kept_rows] @ mat[i]
                best = float(sims.max())
                max_sim[i] = best
                if best >= tau:
                    continue
            keep[i] = True
            kept_rows.append(i)
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(np.int64),
                "cluster": g["cluster"].to_numpy(np.int64),
                "keep": keep,
                "max_sim": round_half_away(max_sim, round_dp),
            }
        )

    return (
        ds.select_columns([id_col, vec_col])
        .map_batches(assign, batch_format="pandas")
        .groupby("cluster")
        .map_groups(dedup_cluster, batch_format="pandas")
    )


def label_centroids(
    ds: "ray.data.Dataset",
    label_col: str = "label",
    vec_col: str = "embedding",
    round_dp: int = 5,
) -> pd.DataFrame:
    """Per-label embedding centroids, one row per (label, dim): the class
    prototypes of prototype-based classification / clustering QA — and the
    'train' half of a nearest-centroid labeler.

    Combiner shape: each batch reduces to one (label, sum-vector, n) row
    per label (vectors summed with one np.add.at), so the exchange carries
    ``labels x dims`` floats per batch, never raw vectors; the driver fold
    divides and emits the (label, dim, mean_val) long form the SQL oracle
    can express with ``embedding[i]`` indexing."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        mat = _batch_matrix(b, vec_col)
        labels = b[label_col].to_numpy(np.int64)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), mat.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, mat)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pd.DataFrame(
            {
                label_col: uniq,
                "s": [v.tobytes() for v in sums],
                "n": cnt,
            }
        )

    parts = ds.select_columns([label_col, vec_col]).map_batches(
        partial, batch_format="pandas"
    ).to_pandas()
    if not len(parts):
        return pd.DataFrame({label_col: [], "dim": [], "mean_val": []})
    dim = len(np.frombuffer(parts["s"].iloc[0], dtype=np.float64))
    agg: dict[int, tuple[np.ndarray, int]] = {}
    for lbl, blob, n in zip(parts[label_col], parts["s"], parts["n"]):
        v = np.frombuffer(blob, dtype=np.float64)
        if int(lbl) in agg:
            pv, pn = agg[int(lbl)]
            agg[int(lbl)] = (pv + v, pn + int(n))
        else:
            agg[int(lbl)] = (v.copy(), int(n))
    rows = []
    for lbl in sorted(agg):
        v, n = agg[lbl]
        mean = round_half_away(v / n, round_dp)
        for i in range(dim):
            rows.append((lbl, i + 1, mean[i]))
    return pd.DataFrame(rows, columns=[label_col, "dim", "mean_val"]).astype(
        {label_col: "int64", "dim": "int64", "mean_val": "float64"}
    )


def hard_negatives(
    ds: "ray.data.Dataset",
    query_ids: np.ndarray,
    query_mat: np.ndarray,
    query_labels: np.ndarray,
    k: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str = "label",
    round_dp: int = 5,
) -> pd.DataFrame:
    """Hard-negative mining for contrastive training: for each query
    vector, the k most-cosine-similar corpus vectors with a DIFFERENT
    label — the near-misses a retrieval model must learn to separate
    (DPR / SimCSE training-data construction).

    Batched multi-query shape: the (Q, d) normalized query matrix +
    labels broadcast once via ray.put; each batch does ONE matmul for
    all queries, masks same-label columns, and emits <= k rows per
    (query, batch) partials — the driver merge sees k x Q x n_batches
    rows, never scores.  Returns (qid, vec_id, score) ordered per query."""
    qm = np.asarray(query_mat, dtype=np.float64)
    qn = qm / np.maximum(np.linalg.norm(qm, axis=1, keepdims=True), 1e-300)
    ref = ray.put(
        (
            np.asarray(query_ids, dtype=np.int64),
            qn,
            np.asarray(query_labels),
        )
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        qids, qmat, qlabs = ray.get(ref)
        mat = _batch_matrix(batch, vec_col)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        scores = round_half_away((mat / norms[:, None]) @ qmat.T, round_dp)
        labs = batch[label_col].to_numpy()
        ids = batch[id_col].to_numpy(np.int64)
        outs = []
        for j in range(len(qids)):
            mask = labs != qlabs[j]
            if not mask.any():
                continue
            sj = scores[mask, j]
            ij = ids[mask]
            order = np.lexsort((ij, -sj))[:k]
            outs.append(
                pd.DataFrame({"qid": qids[j], id_col: ij[order], "score": sj[order]})
            )
        if not outs:
            return pd.DataFrame(
                {
                    "qid": pd.Series([], dtype=np.int64),
                    id_col: pd.Series([], dtype=np.int64),
                    "score": pd.Series([], dtype=np.float64),
                }
            )
        return pd.concat(outs, ignore_index=True)

    allp = (
        ds.select_columns([id_col, vec_col, label_col])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    allp = allp.sort_values(
        ["qid", "score", id_col], ascending=[True, False, True], kind="mergesort"
    )
    return allp.groupby("qid", sort=True).head(k).reset_index(drop=True)
