"""Table profiling — the ``describe`` operator of a data-engineering
pipeline: per-column row/null counts, min/max, and exact distinct counts,
in two bounded passes.

* counts/min/max: per-batch partials (one row per column per batch —
  mergeable by sum/min/max) folded on the driver;
* exact distinct: one ``(column, value-string)`` distinct emission per
  batch into a hash-partitioned groupby — the exchange carries each
  batch's DISTINCT values only, and the per-partition count is a
  vectorized nunique.  At corpus scale swap this stage for the HLL sketch
  (``sketch.approx_distinct``) — same output shape, bounded exchange.

Values are compared/emitted through their shortest-round-trip string form
(injective for the supported dtypes), which is also what the SQL oracle's
``CAST(x AS VARCHAR)`` produces — pinned by the ``events_profile`` gate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data


def _val_str(v) -> str:
    if isinstance(v, float):
        return repr(v)  # shortest round-trip, matches DuckDB VARCHAR cast
    if isinstance(v, pd.Timestamp):
        return str(v)
    return str(v)


def table_profile(
    ds: "ray.data.Dataset",
    columns: list[str],
    parts: int = 32,
) -> pd.DataFrame:
    """Profile ``columns``: returns one row per column —
    ``(column, n, n_null, min_v, max_v, n_distinct)`` with min/max as
    strings — sorted by column name."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in columns:
            s = b[c]
            nn = s.notna()
            sub = s[nn]
            # record the SOURCE dtype kind so the driver fold compares
            # extrema in the column's own domain — a VARCHAR column holding
            # numeric-looking strings must stay lexicographic (as the SQL
            # oracle's CAST AS VARCHAR min/max does), not get float-parsed
            kind = (
                "num"
                if pd.api.types.is_numeric_dtype(s)
                else ("ts" if pd.api.types.is_datetime64_any_dtype(s) else "str")
            )
            rows.append(
                {
                    "column": c,
                    "kind": kind,
                    "n": np.int64(len(s)),
                    "n_null": np.int64((~nn).sum()),
                    "min_v": _val_str(sub.min()) if len(sub) else None,
                    "max_v": _val_str(sub.max()) if len(sub) else None,
                }
            )
        return pd.DataFrame(rows)

    parts_df = ds.map_batches(partial, batch_format="pandas").to_pandas()

    def distinct_rows(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in columns:
            s = b[c].dropna()
            vals = pd.unique(np.array([_val_str(v) for v in s], dtype=object))
            frames.append(pd.DataFrame({"column": c, "v": vals}))
        out = pd.concat(frames, ignore_index=True)
        out["__part"] = (
            pd.util.hash_array(out["v"].to_numpy(object)) % np.uint64(parts)
        ).astype(np.int64)
        return out

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby("column", sort=False)["v"].nunique().reset_index(name="nd")
        )
        return out.astype({"nd": "int64"})

    nd = (
        ds.map_batches(distinct_rows, batch_format="pandas")
        .groupby("__part")
        .map_groups(count_part, batch_format="pandas")
        .to_pandas()
        .groupby("column")["nd"]
        .sum()
    )

    g = parts_df.groupby("column")
    out = pd.DataFrame(
        {
            "column": sorted(columns),
        }
    )
    out["n"] = [int(g.get_group(c)["n"].sum()) for c in out["column"]]
    out["n_null"] = [int(g.get_group(c)["n_null"].sum()) for c in out["column"]]

    def best(c, col, fn):
        grp = g.get_group(c)
        vals = grp[col].dropna()
        if not len(vals):
            return None
        # compare in the column's SOURCE domain, recorded by the partials:
        # numeric columns re-parse their string extrema; timestamp (ISO) and
        # string columns compare lexicographically — so a VARCHAR column of
        # numeric-looking strings keeps the SQL oracle's string ordering
        kind = grp["kind"].iloc[0]
        if kind == "num":
            return fn(vals, key=float)
        return fn(vals)

    out["min_v"] = [best(c, "min_v", min) for c in out["column"]]
    out["max_v"] = [best(c, "max_v", max) for c in out["column"]]
    out["n_distinct"] = [int(nd.get(c, 0)) for c in out["column"]]
    return out.reset_index(drop=True)


def table_checksum(
    ds: "ray.data.Dataset",
    cols: list[str],
    mod: int = 2147483647,
) -> pd.DataFrame:
    """Order-insensitive content checksum — the migration/copy validator:
    two tables match iff their row multisets match, checked without
    co-locating or sorting either side.  Per row: md5 of the '|'-joined
    column strings, first 8 hex digits as an integer; the checksum is the
    SUM of those integers mod ``mod`` (addition commutes, so row order,
    partitioning and parallelism cannot change it).

    Per-batch partial sums ride the exchange as ONE int per batch; the
    driver folds them in arbitrary-precision Python ints, so 10^10-row
    sums cannot overflow.  Returns one row: (n_rows, checksum)."""
    import hashlib

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        md5 = hashlib.md5
        total = 0
        for tup in zip(*[b[c] for c in cols]):
            h = md5("|".join(str(v) for v in tup).encode()).hexdigest()
            total += int(h[:8], 16)
        return pd.DataFrame({"n": [np.int64(len(b))], "s": [str(total)]})

    parts = ds.select_columns(cols).map_batches(partial, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    s = sum(int(x) for x in parts["s"])
    return pd.DataFrame(
        {"n_rows": [np.int64(n)], "checksum": [np.int64(s % mod)]}
    )


def expectation_checks(sf_reader) -> pd.DataFrame:
    """Deequ / Great-Expectations-style data-quality gate over the
    warehouse tables: each check is a small distributed pipeline over the
    engine's own primitives, and the result is one row per check —
    ``(check, violations, passed)`` — the shape a 100 TB ingest run gates
    its promotion step on.

    Checks and their scale shapes:
    * ``fk_orders_customer`` / ``fk_lineitem_orders`` — referential
      integrity by anti-join: the PK side is combiner-deduplicated, the
      child keys left-join onto it (``join.hash_join``) and every
      unmatched child row is a violation.
    * ``pk_unique_orders`` — duplicate primary keys via partition groupby
      (count>1 sums, combiner partials).
    * ``nonneg_events_value`` / ``null_events_props`` — streaming predicate
      counts (one pass, zero exchanges).

    ``sf_reader(table, cols)`` -> Dataset, so the stage stays decoupled
    from file layout."""
    from .agg import combiner_agg
    from .join import hash_join

    def _count(ds, fn) -> int:
        def cnt(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"n": [int(fn(b).sum())]})

        part = ds.map_batches(cnt, batch_format="pandas").to_pandas()
        return int(part["n"].sum())

    def _anti_count(child, child_key: str, parent, parent_key: str) -> int:
        """# of child rows whose key is absent from the parent key set —
        a left join onto the parent keys, counting the unmatched rows.
        The keys are distinct per batch only: a key repeated across
        batches multiplies its matched rows, never an unmatched one."""
        keys = parent.map_batches(
            lambda b: b[[parent_key]].drop_duplicates().assign(matched=True),
            batch_format="pandas",
        )
        joined = hash_join(
            child, keys, child_key, parent_key, how="left", parts=32
        )
        return _count(joined, lambda b: b["matched"].isna())

    def _dup_count(ds, key: str) -> int:
        counts = combiner_agg(ds, [key], [("n", None, "count")])

        def extra(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"n": [int((b["n"] - 1).clip(lower=0).sum())]})

        part = counts.map_batches(extra, batch_format="pandas").to_pandas()
        return int(part["n"].sum())

    checks = [
        (
            "fk_orders_customer",
            _anti_count(
                sf_reader("orders", ["o_custkey"]),
                "o_custkey",
                sf_reader("customer", ["c_custkey"]),
                "c_custkey",
            ),
        ),
        (
            "fk_lineitem_orders",
            _anti_count(
                sf_reader("lineitem", ["l_orderkey"]),
                "l_orderkey",
                sf_reader("orders", ["o_orderkey"]),
                "o_orderkey",
            ),
        ),
        (
            "pk_unique_orders",
            _dup_count(sf_reader("orders", ["o_orderkey"]), "o_orderkey"),
        ),
        (
            "nonneg_events_value",
            _count(sf_reader("events", ["value"]), lambda b: b["value"] < 0),
        ),
        (
            "null_events_props",
            _count(
                sf_reader("events", ["props"]),
                lambda b: b["props"].isna() | (b["props"] == ""),
            ),
        ),
    ]
    out = pd.DataFrame(
        {
            "check_name": [c for c, _ in checks],
            "violations": np.array([v for _, v in checks], dtype=np.int64),
        }
    )
    out["passed"] = out["violations"] == 0
    return out.sort_values("check_name", kind="mergesort").reset_index(drop=True)
