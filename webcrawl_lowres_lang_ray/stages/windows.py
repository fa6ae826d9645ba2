"""Custom relational operators Ray Data lacks natively: as-of join,
sliding-window aggregate, salted groupby.

Each is a composition of map_batches + groupby().map_groups + vectorized
pandas kernels (SURVEY.md §2 "custom operators" guidance: composition
first, actor state only if semantics demand it — none of these do).

Partitioning assumptions (documented per the build brief):
* ``asof_join_by_key`` — correctness requires all rows of one key on one
  partition; guaranteed here by the groupby(key-hash-partition) exchange.
* ``sliding_window_agg`` — one partition per group key (small group-key
  cardinality, e.g. event_type); each group's full time range is processed
  vectorized in pandas.
* ``salted_sum`` — no co-location requirement at stage 1 (the salt spreads
  a hot key over ``salt_n`` reducers); stage 2 merges ``salt_n`` partials
  per key, so the final exchange carries #keys x salt_n rows, never the
  raw rows of a hot key.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from .textstats import round_half_away

_PARTS = 64


def _with_part(ds: "ray.data.Dataset", key: str) -> "ray.data.Dataset":
    def add(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__part"] = (
            pd.util.hash_array(b[key].to_numpy(np.int64)) % _PARTS
        ).astype(np.int64)
        return b

    return ds.map_batches(add, batch_format="pandas")


def asof_join_by_key(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key: str,
    ts_col: str = "ts",
    right_cols: tuple[str, ...] = (),
    suffix: str = "_r",
) -> "ray.data.Dataset":
    """For each left row, the latest right row with same ``key`` and
    right.ts <= left.ts (inclusive — DuckDB ASOF JOIN semantics).  Left rows
    with no prior right row are dropped (inner as-of).

    Both sides are hash-partitioned on ``key`` into the same partition space
    and each partition runs a vectorized ``pd.merge_asof`` (sorted by ts,
    ``by=key``).  One key's rows always land in one partition, so the merge
    is exact.
    """
    lt = _with_part(left, key).map_batches(
        lambda b: b.assign(__side=np.int8(0)), batch_format="pandas"
    )
    rt = _with_part(right, key).map_batches(
        lambda b: b.assign(__side=np.int8(1)), batch_format="pandas"
    )
    both = lt.union(rt)

    def merge_part(g: pd.DataFrame) -> pd.DataFrame:
        lg = g.loc[g["__side"] == 0].drop(columns=["__part", "__side"])
        rg = g.loc[g["__side"] == 1].drop(columns=["__part", "__side"])
        if len(lg) == 0 or len(rg) == 0:
            out = lg.iloc[0:0].copy()
            for c in right_cols:
                out[c + suffix] = pd.Series(dtype=rg[c].dtype if c in rg else "object")
            return out
        lg = lg.sort_values([ts_col, "event_id"] if "event_id" in lg else ts_col,
                            kind="mergesort")
        extra = [c for c in right_cols if c not in (key, ts_col)]
        rg = rg[[key, ts_col, *extra]].copy()
        rg.columns = [key, ts_col + suffix, *[c + suffix for c in extra]]
        rg = rg.sort_values(ts_col + suffix, kind="mergesort")
        merged = pd.merge_asof(
            lg, rg,
            left_on=ts_col, right_on=ts_col + suffix,
            by=key, allow_exact_matches=True, direction="backward",
        )
        merged = merged.loc[merged[ts_col + suffix].notna()]
        if ts_col not in right_cols:
            merged = merged.drop(columns=[ts_col + suffix])
        return merged

    return both.groupby("__part").map_groups(merge_part, batch_format="pandas")


def sliding_window_agg(
    ds: "ray.data.Dataset",
    group_col: str,
    ts_col: str = "ts",
    value_col: str = "value",
    window_hours: int = 3,
) -> "ray.data.Dataset":
    """Per (group, hour): count and value-sum over the trailing
    ``window_hours``-hour window (RANGE semantics: [hour - (w-1)h, hour],
    only hours that actually contain rows are emitted).

    Stage 1 pre-aggregates (group, hour) partials inside map_batches (the
    combiner pattern — the shuffle carries one row per group-hour per batch,
    not raw events).  Stage 2 is one vectorized pandas pass per group:
    reindex to the full hourly grid, rolling(window) sum, re-filter to
    occupied hours.
    """

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        hr = b[ts_col].dt.floor("h")
        g = (
            b.assign(hr=hr)
            .groupby([group_col, "hr"], sort=False, observed=True)
            .agg(n=(value_col, "size"), v=(value_col, "sum"))
            .reset_index()
        )
        return g

    partials = ds.map_batches(partial, batch_format="pandas")

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby("hr", sort=True).agg(n=("n", "sum"), v=("v", "sum"))
        grid = pd.date_range(g.index.min(), g.index.max(), freq="h")
        filled = g.reindex(grid, fill_value=0)
        out = pd.DataFrame(
            {
                "n_window": filled["n"].rolling(window_hours, min_periods=1).sum().astype(np.int64),
                # round_half_away matches DuckDB round() on exact-tie values;
                # pandas .round() is half-to-even (latent hash mismatch)
                "v_window": round_half_away(
                    filled["v"].rolling(window_hours, min_periods=1).sum().to_numpy(), 2
                ),
            },
            index=grid,
        )
        out = out.loc[g.index[g["n"] > 0]]
        out.insert(0, "hour", out.index.strftime("%Y-%m-%d %H:00"))
        return out.reset_index(drop=True)

    def roll_group(g: pd.DataFrame) -> pd.DataFrame:
        key = g[group_col].iloc[0]
        out = roll(g)
        out.insert(0, group_col, key)
        return out

    return partials.groupby(group_col).map_groups(roll_group, batch_format="pandas")


def salted_sum(
    ds: "ray.data.Dataset",
    key: str,
    value_col: str,
    salt_n: int = 16,
) -> "ray.data.Dataset":
    """groupby(key).sum(value) with hot-key salting: stage 1 groups on
    (key, salt) so a hot key's rows spread over ``salt_n`` reducers; stage 2
    merges the per-salt partials.  Identical result to a plain groupby-sum
    (asserted by the SQL gate) — the point is the exchange shape under skew.
    """

    def salted_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__salt"] = np.arange(len(b), dtype=np.int64) % salt_n
        out = (
            b.groupby([key, "__salt"], sort=False)[value_col].sum().reset_index()
        ).rename(columns={value_col: "__partial"})
        # stage-1 reducer routing: (key, salt) — a hot key spreads over
        # salt_n reducers
        out["__p1"] = (
            pd.util.hash_pandas_object(out[[key, "__salt"]], index=False)
            % _PARTS
        ).astype(np.int64)
        return out

    def stage1_merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby([key, "__salt"], sort=False)["__partial"].sum().reset_index()
        out["__p2"] = (
            pd.util.hash_array(out[key].to_numpy(np.int64)) % _PARTS
        ).astype(np.int64)
        return out

    def stage2_merge(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby(key, sort=False)["__partial"].sum()
            .rename("sum_" + value_col)
            .reset_index()
        )

    return (
        ds.map_batches(salted_partial, batch_format="pandas")
        .groupby("__p1")
        .map_groups(stage1_merge, batch_format="pandas")
        .groupby("__p2")
        .map_groups(stage2_merge, batch_format="pandas")
    )


def grouped_quantiles(
    ds: "ray.data.Dataset",
    group_col: str,
    value_col: str,
    qs: tuple[float, ...] = (0.25, 0.5, 0.9),
    round_dp: int = 4,
) -> "ray.data.Dataset":
    """Exact per-group quantiles (linear interpolation — DuckDB
    quantile_cont semantics, verified equal to numpy 'linear').

    Exact quantiles need each group's full value multiset co-located, so
    this shuffles values per group — correct for low group cardinality
    (event types, languages, segments).  For high-cardinality or giant
    groups the scale path is a mergeable sketch (t-digest / KLL) built as
    map_batches partials; exact is the oracle the sketch is tested against.
    """

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        v = g[value_col].to_numpy(np.float64)
        row = {group_col: g[group_col].iloc[0]}
        for q in qs:
            row[f"q{int(q * 100)}"] = round(float(np.quantile(v, q, method="linear")), round_dp)
        return pd.DataFrame([row])

    return (
        ds.select_columns([group_col, value_col])
        .groupby(group_col)
        .map_groups(per_group, batch_format="pandas")
    )


def sessionize(
    ds: "ray.data.Dataset",
    key: str,
    ts_col: str = "ts",
    id_col: str = "event_id",
    gap_minutes: int = 30,
) -> "ray.data.Dataset":
    """Session assignment: per key, a new session starts when the gap to the
    previous event exceeds ``gap_minutes`` (the classic streaming session
    window, computed batch-style).  Hash-partition by key, then one
    vectorized pandas pass per partition: sort by (ts, id), per-key cumsum
    of gap-breaks.  Returns (id, key, session_num), session_num 1-based per
    key."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def sess_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, id_col], kind="mergesort")
        prev_ts = g.groupby(key, sort=False)[ts_col].shift()
        new_sess = prev_ts.isna() | ((g[ts_col] - prev_ts) > gap)
        g = g.assign(session_num=new_sess.astype(np.int64))
        g["session_num"] = g.groupby(key, sort=False)["session_num"].cumsum()
        return g[[id_col, key, "session_num"]]

    return (
        _with_part(ds.select_columns([id_col, key, ts_col]), key)
        .groupby("__part")
        .map_groups(sess_part, batch_format="pandas")
    )


def grouped_topk(
    ds: "ray.data.Dataset",
    group_col: str,
    value_col: str,
    id_col: str,
    k: int = 3,
) -> "ray.data.Dataset":
    """Top-k rows per group by value (row_number() semantics, ties broken by
    ascending id).  Per-batch partial top-k (combiner: at most k rows per
    group per batch cross the exchange) -> per-group merge."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[group_col, id_col, value_col]].sort_values(
            [group_col, value_col, id_col], ascending=[True, False, True],
            kind="mergesort",
        )
        return b.groupby(group_col, sort=False).head(k)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([value_col, id_col], ascending=[False, True], kind="mergesort")
        return g.head(k)

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(group_col)
        .map_groups(merge, batch_format="pandas")
    )


def range_join_broadcast(
    ds: "ray.data.Dataset",
    intervals: pd.DataFrame,
    ts_col: str = "ts",
    interval_id_col: str = "interval_id",
    start_col: str = "start_ts",
    end_col: str = "end_ts",
    carry_cols: tuple[str, ...] = (),
) -> "ray.data.Dataset":
    """Range (interval-containment) join: each fact row matches every
    interval with ``start <= ts < end`` — intervals may OVERLAP, so this is
    a genuine one-to-many range join, not a bucketization.

    Partitioning assumption: the interval side is SMALL (broadcast via
    ``ray.put`` once, one vectorized mask per interval per batch — zero
    shuffle).  For a large interval table the composition flips to
    sort-both-sides + per-key-range partition ``searchsorted``; this
    broadcast form is the common case (campaign windows, maintenance
    windows, SLA periods vs an event stream).
    """
    iv = intervals[[interval_id_col, start_col, end_col]].copy()
    ref = ray.put(
        (
            iv[interval_id_col].to_numpy(np.int64),
            iv[start_col].astype("datetime64[ns]").to_numpy().astype(np.int64),
            iv[end_col].astype("datetime64[ns]").to_numpy().astype(np.int64),
        )
    )
    carry = list(carry_cols)

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        ids, starts, ends = ray.get(ref)
        ts = b[ts_col].astype("datetime64[ns]").to_numpy().astype(np.int64)
        out_frames = []
        for iid, s, e in zip(ids, starts, ends):
            m = (ts >= s) & (ts < e)
            if not m.any():
                continue
            sub = b.loc[m, carry].copy() if carry else pd.DataFrame(index=np.flatnonzero(m))
            sub.insert(0, interval_id_col, np.int64(iid))
            out_frames.append(sub.reset_index(drop=True))
        if not out_frames:
            return pd.DataFrame(
                {interval_id_col: pd.Series(dtype="int64"),
                 **{c: b[c].iloc[0:0] for c in carry}}
            )
        return pd.concat(out_frames, ignore_index=True)

    return ds.map_batches(fn, batch_format="pandas")


def running_window_cols(
    ds: "ray.data.Dataset",
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    parts: int = 64,
    round_dp: int = 2,
    moving_window: int | None = None,
    moving_round_dp: int = 4,
) -> "ray.data.Dataset":
    """Per-key ordered window columns — SQL ``row_number() /
    sum() ROWS UNBOUNDED PRECEDING / lag() OVER (PARTITION BY key ORDER BY
    ts, id)`` — the running-total / previous-event features of a
    sessionized event table.  With ``moving_window`` set, the same single
    shuffle also yields the bounded-frame trailing mean (``moving_avg``,
    SQL ``ROWS BETWEEN w-1 PRECEDING AND CURRENT ROW``) — all four window
    columns for the price of one key-hash exchange.

    One key-hash partition shuffle; inside each partition a single
    vectorized pass (sort + grouped cumsum/cumcount/shift) computes every
    key's windows — no per-key dispatch.  The cumulative sum's summation
    ORDER is pinned by the (ts, id) sort on both this and the SQL side, so
    rounded outputs hash-match.  ``prev_value`` uses 0.0 for the first row
    of a key (COALESCE in the oracle — avoids NULL-vs-NaN hash ambiguity).

    Partitioning assumption: one key's rows fit in a worker (same as every
    per-user operator here); skewed keys would pre-split by time range.
    """

    def add_part(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[id_col, key_col, ts_col, value_col]].copy()
        b["__p"] = (
            pd.util.hash_array(b[key_col].to_numpy(np.int64)) % np.uint64(parts)
        ).astype(np.int64)
        return b

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort").reset_index(
            drop=True
        )
        grp = g.groupby(key_col, sort=False)
        rn = (grp.cumcount() + 1).to_numpy(np.int64)
        cum = grp[value_col].cumsum().to_numpy(np.float64)
        prev = grp[value_col].shift(1).fillna(0.0).to_numpy(np.float64)
        out = pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(np.int64),
                key_col: g[key_col].to_numpy(np.int64),
                "rn": rn,
                "cum_value": round_half_away(cum, round_dp),
                "prev_value": round_half_away(prev, round_dp),
            }
        )
        if moving_window is not None:
            mov = (
                grp[value_col]
                .rolling(moving_window, min_periods=1)
                .mean()
                .reset_index(drop=True)
                .to_numpy(np.float64)
            )
            out["moving_avg"] = round_half_away(mov, moving_round_dp)
        return out

    return (
        ds.map_batches(add_part, batch_format="pandas")
        .groupby("__p")
        .map_groups(per_part, batch_format="pandas")
    )


def event_funnel(
    events: "ray.data.Dataset",
    steps: list[str],
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
) -> "ray.data.Dataset":
    """Ordered-sequence funnel (SQL MATCH_RECOGNIZE-lite / the product-
    analytics conversion funnel): per key, how many of ``steps`` were
    completed IN ORDER — step i+1 counts only with a strictly-later
    timestamp than the chosen (earliest-valid) step i occurrence.

    Matching is min-timestamp chaining, not positional scanning, so no
    per-key sort and no tie-break ambiguity: t_1 = min ts of step 1;
    t_{i+1} = min ts of step i+1 with ts > t_i.  One key-hash exchange;
    inside each partition the chain is |steps| vectorized
    groupby-min/merge passes over that partition's events — never a
    Python loop per key.  Output: ``(key, steps_completed)`` for every
    key present in the input."""

    def funnel_part(g: pd.DataFrame) -> pd.DataFrame:
        users = pd.DataFrame({key_col: g[key_col].unique()})
        done = pd.Series(0, index=users[key_col].to_numpy(), dtype=np.int64)
        prev: pd.DataFrame | None = None  # (key, __t_prev)
        for i, s in enumerate(steps):
            ev = g.loc[g[type_col] == s, [key_col, ts_col]]
            if prev is not None:
                ev = ev.merge(prev, on=key_col)
                ev = ev[ev[ts_col] > ev["__t_prev"]]
            cur = (
                ev.groupby(key_col, sort=False)[ts_col]
                .min()
                .reset_index()
                .rename(columns={ts_col: "__t_prev"})
            )
            if not len(cur):
                break
            done.loc[cur[key_col].to_numpy()] = i + 1
            prev = cur
        return pd.DataFrame(
            {key_col: done.index.to_numpy(), "steps_completed": done.to_numpy()}
        )

    return (
        _with_part(events.select_columns([key_col, ts_col, type_col]), key_col)
        .groupby("__part")
        .map_groups(funnel_part, batch_format="pandas")
    )
