"""Distributed equi-joins.  ``hash_join`` is the package's partitioned
equi-join, on one key column or a list of them: the graph operators'
degree, rank, frontier and wedge-closing joins, the curation and profile
semi/anti-joins and the per-query pipelines call it (``dedup``'s salted
signature attach and ``line_dedup``'s rebuild keep their own exchange
shapes).  Broadcast joins stay the right call for SMALL sides
(``auto_join`` picks); ``hash_join`` is for two datasets that may both
exceed worker memory.

Plan (the tagged-union partition join): each side tags its rows with the
hash of its canonicalized key columns, both sides are aligned to one
exchange schema (no int64 value is widened on the way), union into ONE
key-hash partitioned groupby, and each partition runs a vectorized pandas
merge on its slice.  Every row moves exactly once; there is no driver
materialization and no secondary shuffle.  Each side's dtypes are read
from its first non-empty batch: materialize a side that ends in an
exchange first, or it executes twice.

Skew note: a single hot key lands in one partition — ``salted_hash_join``
spreads it, or broadcast the dimension side when it fits.  Partitioning
assumption (documented like every partition-key op here): one
partition's rows fit in a worker; raise ``parts`` to shrink partitions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data


def _np_dtype(t) -> np.dtype:
    """Schema type (pyarrow DataType, numpy or pandas dtype) -> numpy
    dtype; object when none fits."""
    import pyarrow as pa

    try:
        return np.dtype(t.to_pandas_dtype() if isinstance(t, pa.DataType) else t)
    except (TypeError, NotImplementedError):
        return np.dtype(object)


def _cat(dt: np.dtype) -> str:
    if np.issubdtype(dt, np.bool_):
        return "bool"
    if np.issubdtype(dt, np.integer):
        return "int"
    if np.issubdtype(dt, np.floating):
        return "float"
    if np.issubdtype(dt, np.datetime64):
        return "datetime"
    return "other"


def _side_dtypes(ds: "ray.data.Dataset") -> dict[str, np.dtype]:
    """Column -> dtype of one join side, read from its first non-empty
    batch (a ``limit(1)`` execution).  ``Dataset.schema()`` is not used
    while the side has rows: Ray Data passes an empty block through
    ``map_batches`` and ``select_columns`` unchanged, so a side whose
    first block is an empty exchange output reports that block's stale
    columns."""
    try:
        first = ds.take_batch(1, batch_format="pandas")
    except ValueError:  # no rows
        sch = ds.schema()
        return {} if sch is None else {n: _np_dtype(t) for n, t in zip(sch.names, sch.types)}
    return {c: _np_dtype(t) for c, t in first.dtypes.items()}


# exchange (dtype, fill) of a column one side lacks, per dtype category
_EXCHANGE = {"int": ("int64", 0), "bool": ("bool", False), "float": ("float64", np.nan)}


def _exchange_plan(ldt: dict, rdt: dict):
    """One exchange schema both sides can emit, so the tagged union is
    schema-stable (mixed-schema bundles draw Ray's 'different schema'
    warning and would be illegal as Arrow blocks).  Per column: the dtype
    both sides cast to (None keeps it: datetimes and other categories are
    trusted equal; object if the two sides' categories disagree), and the
    value the side WITHOUT the column fills in.  Ints, bools and floats
    keep their own dtype (0 / False / NaN fill), so no int64 value is
    widened to float64 on the way; join_part reads each side's own
    columns only, so a fill value is never read back."""
    all_cols = list(ldt) + [c for c in rdt if c not in ldt]
    plan: dict[str, tuple[object, object]] = {}
    for c in all_cols:
        cats = {_cat(d[c]) for d in (ldt, rdt) if c in d}
        cat = cats.pop() if len(cats) == 1 else "mixed"
        if cat in _EXCHANGE:
            plan[c] = _EXCHANGE[cat]
        elif cat == "datetime":
            plan[c] = (None, ldt.get(c, rdt.get(c)))
        elif cat == "other" and c in ldt and c in rdt:
            plan[c] = (None, None)
        else:
            plan[c] = (object, None)
    return all_cols, plan


def _canon_key(arr: np.ndarray) -> np.ndarray:
    """Canonical dtype for partition hashing: equal key values must hash
    equally on both sides regardless of each side's physical width."""
    if np.issubdtype(arr.dtype, np.bool_):
        return arr.astype(np.int64)
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64)
    if np.issubdtype(arr.dtype, np.floating):
        return arr.astype(np.float64)
    return arr


def _align_batch(
    b: pd.DataFrame, have: frozenset, all_cols: list, plan: dict
) -> pd.DataFrame:
    for c in all_cols:
        dtype, fill = plan[c]
        if c in have:
            if dtype is not None:
                b[c] = b[c].astype(dtype)
        elif isinstance(fill, np.dtype):  # datetime: typed NaT
            b[c] = pd.Series(pd.NaT, index=b.index, dtype=fill)
        elif fill is None:
            b[c] = pd.Series(np.nan, index=b.index, dtype=object)
        else:
            b[c] = fill
    return b


def _keys(key: str | list[str]) -> list[str]:
    return [key] if isinstance(key, str) else list(key)


def _key_hash(b: pd.DataFrame, keys: list[str]) -> np.ndarray:
    """uint64 hash of a batch's key columns, each canonicalized first, so
    equal key values hash equally on both sides."""
    h = pd.util.hash_array(_canon_key(b[keys[0]].to_numpy()))
    for k in keys[1:]:
        h = h * np.uint64(0x100000001B3) + pd.util.hash_array(
            _canon_key(b[k].to_numpy())
        )
    return h


def _int_casts(dt: dict) -> dict[str, str]:
    """int64/bool restore casts of one side's int and bool columns."""
    return {
        n: ("int64" if _cat(t) == "int" else "bool")
        for n, t in dt.items() if _cat(t) in ("int", "bool")
    }


def hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str | list[str],
    right_key: str | list[str] | None = None,
    how: str = "inner",
    parts: int = 64,
    suffixes: tuple[str, str] = ("", "_r"),
) -> "ray.data.Dataset":
    """Equi-join two Datasets on one key column or a list of them.
    ``how`` is 'inner', 'left' or 'outer' (pandas semantics inside each
    partition — globally correct because key columns are hash-partitioned
    identically on both sides, so each partition holds every row of its
    keys from BOTH inputs; an unmatched key's rows still reach their
    partition and survive a left/outer merge there).  NaN-widening of int
    columns on the unmatched side is the caller's to coalesce.  Each
    side's columns and dtypes come from its first non-empty batch, a
    ``limit(1)`` execution (``_side_dtypes``), so a side that ends in an
    exchange executes twice unless the caller materializes it first."""
    lkeys = _keys(left_key)
    rkeys = _keys(right_key) if right_key is not None else lkeys
    # column lists + integer/bool dtypes recorded BEFORE the union; both
    # sides are aligned to ONE exchange schema, so every bundle the union
    # emits has the same schema
    ldt, rdt = _side_dtypes(left), _side_dtypes(right)
    lcols, rcols = list(ldt), list(rdt)
    lcasts, rcasts = _int_casts(ldt), _int_casts(rdt)
    all_cols, plan = _exchange_plan(ldt, rdt)
    out_cols = all_cols + ["__side", "__jp"]

    def tag(side: int, keys: list[str], have: frozenset):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            jp = (_key_hash(b, keys) % np.uint64(parts)).astype(np.int64)
            b = _align_batch(b.copy(), have, all_cols, plan)
            b["__side"] = np.int64(side)
            b["__jp"] = jp
            return b[out_cols]

        return fn

    lt = left.map_batches(tag(0, lkeys, frozenset(lcols)), batch_format="pandas")
    rt = right.map_batches(tag(1, rkeys, frozenset(rcols)), batch_format="pandas")

    # post-merge dtype stabilization: a left/outer partition WITH unmatched
    # rows NaN-widens the nullable side's int->float64 / bool->object while
    # a fully-matched partition keeps the native dtypes — per-partition
    # divergence that both warns and feeds mixed blocks downstream.  Cast
    # the nullable side(s) unconditionally so every partition emits one
    # schema (a shared-name equi-key is never NaN and is excluded).
    shared = {lk for lk, rk in zip(lkeys, rkeys) if lk == rk}
    overlap = (set(lcols) & set(rcols)) - shared
    nullable_sides = {"inner": (), "left": (1,), "outer": (0, 1)}.get(how, ())
    stab_casts: dict[str, str] = {}
    for side, cols_casts in ((0, lcasts), (1, rcasts)):
        if side in nullable_sides:
            for c, t in cols_casts.items():
                if c not in shared:
                    name = c + suffixes[side] if c in overlap else c
                    stab_casts[name] = "float64" if t == "int64" else "object"

    def join_part(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == 0][lcols].astype(lcasts)
        rg = g[g["__side"] == 1][rcols].astype(rcasts)
        merged = lg.merge(
            rg, left_on=lkeys, right_on=rkeys, how=how, suffixes=suffixes
        )
        if stab_casts:
            merged = merged.astype(
                {k: v for k, v in stab_casts.items() if k in merged.columns}
            )
        return merged

    return lt.union(rt).groupby("__jp").map_groups(join_part, batch_format="pandas")


def salted_hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    right_key: str | None = None,
    hot_keys: tuple = (),
    salt_n: int = 8,
    parts: int = 64,
    suffixes: tuple[str, str] = ("", "_r"),
) -> "ray.data.Dataset":
    """``hash_join`` with HOT-KEY SALTING (inner join): a hot key's left
    rows spread over ``salt_n`` sub-partitions (salt = row position mod
    salt_n — any assignment yields the same join SET), while the right
    side's rows for that key replicate once per salt, so no single
    partition holds a hot key's full row set.  The standard skew-join:
    replicate the small side of the hot key, never its big side.

    ``hot_keys`` is the (small, driver-known) set of skewed key values —
    in practice the output of a heavy-hitter pass
    (``sketch.approx_heavy_hitters``).  Non-hot keys take the plain
    single-salt path, so the exchange grows only by
    ``len(hot_keys) x salt_n`` replicated right rows."""
    right_key = right_key or left_key
    ldt, rdt = _side_dtypes(left), _side_dtypes(right)
    lcols, rcols = list(ldt), list(rdt)
    lcasts, rcasts = _int_casts(ldt), _int_casts(rdt)
    all_cols, plan = _exchange_plan(ldt, rdt)
    out_cols = all_cols + ["__salt", "__side", "__jp"]
    hot = set(hot_keys)

    def tag_left(b: pd.DataFrame) -> pd.DataFrame:
        keys = _canon_key(b[left_key].to_numpy())
        is_hot = np.isin(keys, list(hot)) if hot else np.zeros(len(b), dtype=bool)
        salt = np.where(is_hot, np.arange(len(b), dtype=np.int64) % salt_n, 0)
        b = _align_batch(b.copy(), frozenset(lcols), all_cols, plan)
        b["__salt"] = salt
        b["__side"] = np.int64(0)
        b["__jp"] = (
            (pd.util.hash_array(keys) + np.uint64(0x9E37) * salt.astype(np.uint64))
            % np.uint64(parts)
        ).astype(np.int64)
        return b[out_cols]

    def tag_right(b: pd.DataFrame) -> pd.DataFrame:
        keys = _canon_key(b[right_key].to_numpy())
        is_hot = np.isin(keys, list(hot)) if hot else np.zeros(len(b), dtype=bool)
        cold = b[~is_hot].copy()
        cold["__salt"] = np.int64(0)
        frames = [cold]
        hot_rows = b[is_hot]
        for s in range(salt_n):
            rep = hot_rows.copy()
            rep["__salt"] = np.int64(s)
            frames.append(rep)
        out = pd.concat(frames, ignore_index=True)
        kk = _canon_key(out[right_key].to_numpy())  # BEFORE dtype alignment
        out = _align_batch(out, frozenset(rcols), all_cols, plan)
        out["__side"] = np.int64(1)
        out["__jp"] = (
            (
                pd.util.hash_array(kk)
                + np.uint64(0x9E37) * out["__salt"].to_numpy(np.int64).astype(np.uint64)
            )
            % np.uint64(parts)
        ).astype(np.int64)
        return out[out_cols]

    lt = left.map_batches(tag_left, batch_format="pandas")
    rt = right.map_batches(tag_right, batch_format="pandas")

    # the merge keys INCLUDE the salt: two salts of one key can hash into
    # the same partition, and matching on (key, salt) keeps each left row
    # paired with exactly one replica of each right row — no dedup that
    # would eat legitimately-duplicated right rows
    def join_part(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == 0].reindex(columns=lcols + ["__salt"]).astype(lcasts)
        rg = g[g["__side"] == 1].reindex(columns=rcols + ["__salt"]).astype(rcasts)
        merged = lg.merge(
            rg,
            left_on=[left_key, "__salt"],
            right_on=[right_key, "__salt"],
            how="inner",
            suffixes=suffixes,
        )
        return merged.drop(columns="__salt")

    return lt.union(rt).groupby("__jp").map_groups(join_part, batch_format="pandas")


def bloom_filtered_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    right_key: str | None = None,
    parts: int = 64,
    suffixes: tuple[str, str] = ("", "_r"),
) -> "ray.data.Dataset":
    """``hash_join`` with a BLOOM PRE-FILTER on the big side — the classic
    selective-join optimization: when the right side matches only a small
    fraction of left keys, most left rows would ride the exchange just to
    find no partner.  A mergeable Bloom bitmap of the right keys (128 KiB,
    built from per-batch partial bitmaps — ``curation.bloom_build``)
    broadcasts once via ``ray.put``; a ``map_batches`` filter drops left
    rows whose key is definitely absent BEFORE the shuffle.  One-sided
    error makes this transparent: false positives just ride the exchange
    and fall out of the exact partition merge, so results equal the plain
    join exactly.

    Keys are bloomed through their md5-hex string form on both sides
    (dtype-independent)."""
    import hashlib

    import ray as _ray

    from .curation import _BLOOM_BITS, bloom_build, bloom_probe

    right_key = right_key or left_key
    md5 = hashlib.md5

    def keyhash(col):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"__kh": [md5(str(v).encode()).hexdigest() for v in b[col]]}
            )

        return fn

    bitmap_blob = bloom_build(
        right.select_columns([right_key]).map_batches(
            keyhash(right_key), batch_format="pandas"
        ),
        "__kh",
    )
    bitmap_ref = _ray.put(np.frombuffer(bitmap_blob, dtype=np.uint8))

    def prefilter(b: pd.DataFrame) -> pd.DataFrame:
        bm = _ray.get(bitmap_ref)
        hexes = [md5(str(v).encode()).hexdigest() for v in b[left_key]]
        keep = bloom_probe(bm, hexes, _BLOOM_BITS)
        return b[keep].reset_index(drop=True)

    return hash_join(
        left.map_batches(prefilter, batch_format="pandas"),
        right,
        left_key=left_key,
        right_key=right_key,
        parts=parts,
        suffixes=suffixes,
    )


def auto_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    right_key: str | None = None,
    how: str = "inner",
    parts: int = 64,
    suffixes: tuple[str, str] = ("", "_r"),
    broadcast_max_rows: int = 100_000,
    skew_sample: int = 50_000,
    skew_frac: float = 0.2,
    salt_n: int = 8,
    explain: bool = False,
):
    """Join-strategy auto-dispatch — the planner step a declarative engine
    does for you, expressed over this module's three physical joins:

    * right side <= ``broadcast_max_rows`` and how in (inner, left):
      **broadcast** — the right frame is ``ray.put`` once and every left
      batch merges against it locally; zero exchanges (the Spark
      broadcast-hash-join regime).  Outer joins never broadcast (right-only
      rows would need global dedup).
    * else, if a bounded sample of left keys shows one key carrying more
      than ``skew_frac`` of rows: **salted** — ``salted_hash_join`` spreads
      the hot key over ``salt_n`` sub-partitions.
    * else: the plain tagged-union partition **hash** join.

    The decision inputs are one cheap ``count()`` of the (small) right side
    and one bounded left sample — nothing scans the big side twice.  All
    three paths produce identical rows (pinned in tests/test_stages.py);
    pass ``explain=True`` to get ``(dataset, strategy)`` back."""
    import ray as _ray

    right_key = right_key or left_key
    n_right = right.count()
    if n_right <= broadcast_max_rows and how in ("inner", "left"):
        rdf = right.to_pandas()
        ref = _ray.put(rdf)

        def bjoin(b: pd.DataFrame) -> pd.DataFrame:
            r = _ray.get(ref)
            return b.merge(
                r, left_on=left_key, right_on=right_key, how=how, suffixes=suffixes
            )

        out = left.map_batches(bjoin, batch_format="pandas")
        return (out, "broadcast") if explain else out

    strategy, hot = "hash", ()
    if how == "inner":
        sample = left.limit(skew_sample).to_pandas()
        if len(sample):
            vc = sample[left_key].value_counts(sort=True)
            hot = tuple(vc.index[(vc / len(sample)) > skew_frac])
            if hot:
                strategy = "salted"
    if strategy == "salted":
        out = salted_hash_join(
            left, right, left_key=left_key, right_key=right_key,
            hot_keys=hot, salt_n=salt_n, parts=parts, suffixes=suffixes,
        )
    else:
        out = hash_join(
            left, right, left_key=left_key, right_key=right_key,
            how=how, parts=parts, suffixes=suffixes,
        )
    return (out, strategy) if explain else out
