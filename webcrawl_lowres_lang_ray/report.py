"""Crawl-ledger stats suite — the reference's reporting surface
(display.stats display.py:7-198; aggregate queries sql.py:337-1044) as
Ray Data pipelines over the ledger Dataset.

Each function: Dataset -> small pandas result.  The ledger Dataset is the
engine's urls-table equivalent (frontier.py LEDGER_META_COLS); all groupbys
run distributed, only aggregates reach the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum


def partitioned_key_counts(
    ds: "ray.data.Dataset", key: str, parts: int = 64
) -> "ray.data.Dataset":
    """groupby(key).count() for HIGH-cardinality keys: per-batch vectorized
    value_counts (combiner — the exchange carries unique keys, not rows),
    hash-partitioned merge with one vectorized pandas groupby per partition.
    Low-cardinality keys can use ray.data's groupby().aggregate directly;
    per-group dispatch at 10^5+ groups costs ~ms each."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b[key].value_counts()
        out = pd.DataFrame({key: vc.index, "n": vc.to_numpy(np.int64)})
        out["kc_part"] = (
            pd.util.hash_array(out[key].to_numpy(object)) % parts
        ).astype(np.int64)
        return out

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(key, sort=False)["n"].sum().reset_index()
        return m

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("kc_part")
        .map_groups(merge, batch_format="pandas")
    )


def verdict_counts(ledger: "ray.data.Dataset") -> pd.DataFrame:
    """G3/G4 (sql.py:369-405): counts per full-language verdict."""
    # reindex, here and in every report below: Ray's to_pandas of an empty
    # result has no columns
    out = (
        ledger.groupby("nlp_full_lang").aggregate(Count(alias_name="n")).to_pandas()
    ).reindex(columns=["nlp_full_lang", "n"])
    return out.sort_values("nlp_full_lang").reset_index(drop=True)


def outcome_counts(ledger: "ray.data.Dataset") -> pd.DataFrame:
    """downloaded / failed / skipped / robots / rejected totals (G8 shape:
    0-1 flag columns summed in one pass)."""

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "downloaded": b["downloaded"].astype(np.int64),
                "failed": b["downloaded_failed"].astype(np.int64),
                "skipped_relative": b["skipped_relative"].astype(np.int64),
                "robots_blocked": b["robots_blocked"].astype(np.int64),
                "rejected": b["rejected"].astype(np.int64),
                "total": np.int64(1),
            }
        )

    agg = (
        ledger.map_batches(flags, batch_format="pandas")
        .sum(["downloaded", "failed", "skipped_relative", "robots_blocked", "rejected", "total"])
    )
    # each sum is None over an empty ledger
    return pd.DataFrame([{k: int(v or 0) for k, v in agg.items()}]).rename(
        columns=lambda c: c.replace("sum(", "").replace(")", "")
    )


def dup_url_hash_stats(ledger: "ray.data.Dataset", top: int = 5) -> pd.DataFrame:
    """G6 (sql.py:419-450): duplicate url_hash total + top-k by count.

    (The engine's frontier dedups by canonical SHA-1, so duplicates here are
    distinct verbatim URLs sharing an MD5 only through canonicalization.)"""
    counts = partitioned_key_counts(ledger.select_columns(["url_hash"]), "url_hash")
    dups = counts.filter(expr="n > 1")
    return (
        dups.sort(["n", "url_hash"], descending=[True, False]).limit(top).to_pandas()
    ).reindex(columns=["url_hash", "n"])


def dup_file_hash_stats(ledger: "ray.data.Dataset", top: int = 5) -> pd.DataFrame:
    """G7 (sql.py:452-492): duplicate content groups + null/absent count."""
    nonempty = ledger.select_columns(["file_hash"]).filter(expr="file_hash != ''")
    counts = partitioned_key_counts(nonempty, "file_hash")
    return (
        counts.filter(expr="n > 1")
        .sort(["n", "file_hash"], descending=[True, False])
        .limit(top)
        .to_pandas()
    ).reindex(columns=["file_hash", "n"])


def per_domain_counts(ledger: "ray.data.Dataset", top: int = 10) -> pd.DataFrame:
    """G10 (sql.py:884-940): per-host URL counts, top + bottom.

    The reference accumulates a Python dict over every row; here it is a
    distributed groupby on the host column (the skew axis — hot hosts land
    in single groups, which is fine for counts: combiner pre-aggregation)."""
    counts = partitioned_key_counts(
        ledger.select_columns(["host"]).filter(expr="host != ''"), "host"
    )
    top_hosts = counts.sort(["n", "host"], descending=[True, False]).limit(top).to_pandas()
    top_hosts["which"] = "top"
    bottom = counts.sort(["n", "host"], descending=[False, False]).limit(top).to_pandas()
    bottom["which"] = "bottom"
    return pd.concat([top_hosts, bottom], ignore_index=True).reindex(
        columns=["host", "n", "which"]
    )


def confidence_extremes(ledger: "ray.data.Dataset", k: int = 5) -> pd.DataFrame:
    """T3 (sql.py:531-575): top/bottom-k scored URLs by full confidence."""
    scored = ledger.filter(lambda r: bool(r["downloaded"]) and bool(r["handled"]))
    cols = ["seq", "url", "nlp_full_confidence"]
    hi = scored.select_columns(cols).sort(
        ["nlp_full_confidence", "seq"], descending=[True, False]
    ).limit(k).to_pandas()
    hi["which"] = "high"
    lo = scored.select_columns(cols).sort(
        ["nlp_full_confidence", "seq"], descending=[False, False]
    ).limit(k).to_pandas()
    lo["which"] = "low"
    return pd.concat([hi, lo], ignore_index=True).reindex(columns=[*cols, "which"])


def confidence_histogram(ledger: "ray.data.Dataset") -> pd.DataFrame:
    """G11 (sql.py:943-1044): decile histograms in ONE pass (the reference
    issues 10 range-count queries each for confidence and para-percentage)."""

    def bucketize(b: pd.DataFrame) -> pd.DataFrame:
        m = b["downloaded"] & b["handled"]
        b = b.loc[m]
        return pd.DataFrame(
            {
                "conf_decile": np.clip((b["nlp_full_confidence"] * 10).astype(np.int64), 0, 9),
                "perc_decile": np.clip((b["nlp_para_perc_lrl"] / 10).astype(np.int64), 0, 9),
            }
        )

    buck = ledger.map_batches(bucketize, batch_format="pandas")
    conf = buck.groupby("conf_decile").aggregate(Count(alias_name="n_conf")).to_pandas()
    perc = buck.groupby("perc_decile").aggregate(Count(alias_name="n_perc")).to_pandas()
    conf = conf.reindex(columns=["conf_decile", "n_conf"])
    perc = perc.reindex(columns=["perc_decile", "n_perc"])
    conf = conf.rename(columns={"conf_decile": "decile"})
    perc = perc.rename(columns={"perc_decile": "decile"})
    return conf.merge(perc, on="decile", how="outer").fillna(0).sort_values("decile").reset_index(drop=True)


def urls_per_query(ledger: "ray.data.Dataset", top: int = 5) -> pd.DataFrame:
    """J1/T1 (sql.py:783-809): URL counts per originating query, top/bottom."""
    counts = ledger.groupby("query_id").aggregate(Count(alias_name="total_count"))
    hi = counts.sort(["total_count", "query_id"], descending=[True, False]).limit(top).to_pandas()
    hi["which"] = "top"
    lo = counts.sort(["total_count", "query_id"], descending=[False, False]).limit(top).to_pandas()
    lo["which"] = "bottom"
    return pd.concat([hi, lo], ignore_index=True).reindex(
        columns=["query_id", "total_count", "which"]
    )


def engine_breakdown(ledger: "ray.data.Dataset") -> pd.DataFrame:
    """G8 per search engine (sql.py:712-766): outcome sums per engine."""

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "engine": b["engine"],
                "downloaded": b["downloaded"].astype(np.int64),
                "failed": b["downloaded_failed"].astype(np.int64),
                "rejected": b["rejected"].astype(np.int64),
            }
        )

    out = (
        ledger.map_batches(flags, batch_format="pandas")
        .groupby("engine")
        .aggregate(
            Count(alias_name="n"),
            Sum("downloaded", alias_name="downloaded"),
            Sum("failed", alias_name="failed"),
            Sum("rejected", alias_name="rejected"),
        )
    ).to_pandas().reindex(columns=["engine", "n", "downloaded", "failed", "rejected"])
    return out.sort_values("engine").reset_index(drop=True)


def full_report(out_dir: str) -> dict[str, pd.DataFrame]:
    """The display.stats equivalent: every report over one ledger read."""
    from .pipelines.crawl_queries import ledger_dataset

    led = ledger_dataset(out_dir, include_pending=False).materialize()
    return {
        "verdict_counts": verdict_counts(led),
        "outcome_counts": outcome_counts(led),
        "dup_url_hash": dup_url_hash_stats(led),
        "dup_file_hash": dup_file_hash_stats(led),
        "per_domain": per_domain_counts(led),
        "confidence_extremes": confidence_extremes(led),
        "confidence_histogram": confidence_histogram(led),
        "urls_per_query": urls_per_query(led),
        "engine_breakdown": engine_breakdown(led),
    }
