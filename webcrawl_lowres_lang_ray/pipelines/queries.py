"""Correctness-gate pipelines: one Ray Data implementation per operator
family from SURVEY.md §2, each paired (where SQL-expressible) with an ANSI
SQL oracle the driver runs through DuckDB on the same parquet tables.

Conventions:
* every callable takes ``sf_dir`` and returns a Dataset / DataFrame;
* every computed column is named identically in the Ray pipeline and the
  SQL (the driver's value-hash sorts columns by name);
* floats that survive a reduction are rounded (2–5 dp) on BOTH sides so
  summation-order noise cannot flip the hash;
* heavy aggregations pre-aggregate inside map_batches (combiner pattern)
  before the groupby shuffle;
* small join sides are broadcast via ray.put — never shuffled.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd

import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..functions.tokenize import tokenize_batch
from ..stages.lexicon import token_frequencies_ds
from ..stages.textstats import round_half_away


def _read(sf_dir: str, table: str, columns=None) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns
    )


def _combiner_agg(
    ds: "ray.data.Dataset",
    keys: list[str],
    spec: list[tuple[str, str | None, str]],
    parts: int = 32,
) -> pd.DataFrame:
    """stages/agg.combiner_agg collected to a key-sorted DataFrame."""
    from ..stages.agg import combiner_agg

    out = combiner_agg(ds, keys, spec, parts).to_pandas()
    return out.sort_values(keys, kind="mergesort").reset_index(drop=True)


# ===========================================================================
# documents: tokenizing, dedup, quality, hashing (M16-M18, G1, D1/D5, F4)
# ===========================================================================

def q_token_frequency(sf_dir: str):
    """G1 (extract.py:72-78): reference-tokenizer frequency counts."""
    docs = _read(sf_dir, "documents", ["text"])
    return token_frequencies_ds(docs, "text")


SQL_TOKEN_FREQUENCY = r"""
WITH toks AS (
    SELECT lower(token) AS token
    FROM (
        SELECT unnest(string_split_regex(regexp_replace(text, '[^\w\s]', ' ', 'g'), '\s+')) AS token
        FROM documents
    )
    WHERE length(token) >= 3 AND NOT regexp_matches(token, '[0-9]')
)
SELECT token, CAST(count(*) AS BIGINT) AS "count" FROM toks GROUP BY token
"""


def q_doc_dedup_exact(sf_dir: str):
    """D5 (sql.py:167-172): per content-hash group keeper + multiplicity."""
    from ..stages.dedup import exact_dedup_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return exact_dedup_stats(docs)


SQL_DOC_DEDUP_EXACT = """
SELECT md5(text) AS content_md5, min(doc_id) AS keeper, CAST(count(*) AS BIGINT) AS n
FROM documents GROUP BY md5(text)
"""


def q_sorted_token_dedup(sf_dir: str):
    """D1 (queries.py:51-55): order-insensitive term-set dedup key."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        b["sorted_key"] = [" ".join(sorted(t.split())) for t in b["text"]]
        return b

    return (
        docs.map_batches(keyed, batch_format="pandas")
        .groupby("sorted_key")
        .aggregate(Min("doc_id", alias_name="keeper"), Count(alias_name="n"))
    )


SQL_SORTED_TOKEN_DEDUP = """
SELECT array_to_string(list_sort(string_split(text, ' ')), ' ') AS sorted_key,
       min(doc_id) AS keeper, CAST(count(*) AS BIGINT) AS n
FROM documents GROUP BY 1
"""


def q_lang_counts(sf_dir: str):
    """G3-style verdict counts (sql.py:369-379 analog)."""
    return (
        _read(sf_dir, "documents", ["lang"])
        .groupby("lang")
        .aggregate(Count(alias_name="n"))
    )


SQL_LANG_COUNTS = "SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY lang"


def q_doc_quality(sf_dir: str):
    """Quality scoring: token/punct/stopword metrics per doc (4dp), plus
    the training-data token accounting (whitespace + BPE-ish regex token
    counts — the former token_counts query) in the SAME single pass over
    the text column."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        from ..stages.textstats import add_token_counts_frame, quality_batch

        out = quality_batch(b)
        tok = add_token_counts_frame(b)
        out = out[["doc_id", "n_tokens", "punct_ratio", "stopword_ratio", "mean_token_len"]]
        out["ws_tokens"] = tok["ws_tokens"].to_numpy(np.int64)
        out["bpeish_tokens"] = tok["bpeish_tokens"].to_numpy(np.int64)
        return out

    return docs.map_batches(fn, batch_format="pandas")


SQL_DOC_QUALITY = r"""
SELECT doc_id,
       CAST(length(string_split(text, ' ')) AS BIGINT) AS n_tokens,
       round(length(regexp_replace(text, '[\w\s]', '', 'g'))
             / greatest(length(text), 1), 4) AS punct_ratio,
       round(length(list_filter(string_split(text, ' '),
                                x -> lower(x) IN ('the','a','and','of','to')))
             / greatest(length(string_split(text, ' ')), 1), 4) AS stopword_ratio,
       round((length(text) - (length(string_split(text, ' ')) - 1))
             / CAST(length(string_split(text, ' ')) AS DOUBLE), 4) AS mean_token_len,
       len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS ws_tokens,
       len(regexp_extract_all(text, '\w+|[^\w\s]')) AS bpeish_tokens
FROM documents
"""


def q_top_docs_by_chars(sf_dir: str):
    """T1-style sort + limit (sql.py:783-809 analog)."""
    return (
        _read(sf_dir, "documents", ["doc_id", "n_chars"])
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(10)
    )


SQL_TOP_DOCS_BY_CHARS = (
    "SELECT doc_id, n_chars FROM documents ORDER BY n_chars DESC, doc_id LIMIT 10"
)


def q_source_conditional_agg(sf_dir: str):
    """G8 (sql.py:496-514): SUM(CASE WHEN ...) per group via 0/1 flag cols."""
    docs = _read(sf_dir, "documents", ["source", "lang", "n_chars"])

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        b["n_en"] = (b["lang"] == "en").astype(np.int64)
        return b[["source", "n_chars", "n_en"]]

    return (
        docs.map_batches(flags, batch_format="pandas")
        .groupby("source")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="total_chars"),
            Sum("n_en", alias_name="n_en"),
        )
    )


SQL_SOURCE_CONDITIONAL_AGG = """
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS total_chars,
       CAST(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT) AS n_en
FROM documents GROUP BY source
"""


def q_chars_histogram(sf_dir: str):
    """G11 (sql.py:943-1044): one-pass bucketize + count (vs 10 range scans)."""
    docs = _read(sf_dir, "documents", ["n_chars"])

    def bucketize(b: pd.DataFrame) -> pd.DataFrame:
        b["bucket"] = (b["n_chars"] // 100).astype(np.int64)
        return b[["bucket"]]

    return (
        docs.map_batches(bucketize, batch_format="pandas")
        .groupby("bucket")
        .aggregate(Count(alias_name="n"))
    )


SQL_CHARS_HISTOGRAM = """
SELECT CAST(n_chars // 100 AS BIGINT) AS bucket, CAST(count(*) AS BIGINT) AS n
FROM documents GROUP BY 1
"""


def q_doc_signatures(sf_dir: str):
    """Per-doc content signatures in ONE pass: md5 + sha256 content hashes
    (F4 — fileutils.py:101, lrl-crawler.py:231-233 parity) plus the
    whitespace-normalized-lowercase fingerprint — the former doc_hashes and
    doc_fingerprint queries merged so one map_batches (and one driver
    correctness slot) covers both operators."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        from ..stages.textstats import fingerprint

        b["md5_hash"] = [hashlib.md5(t.encode()).hexdigest() for t in b["text"]]
        b["sha256_hash"] = [hashlib.sha256(t.encode()).hexdigest() for t in b["text"]]
        b["fp"] = [fingerprint(t) for t in b["text"]]
        return b[["doc_id", "md5_hash", "sha256_hash", "fp"]]

    return docs.map_batches(fn, batch_format="pandas")


SQL_DOC_SIGNATURES = r"""
SELECT doc_id, md5(text) AS md5_hash, sha256(text) AS sha256_hash,
       md5(trim(regexp_replace(lower(text), '\s+', ' ', 'g'))) AS fp
FROM documents
"""


# ===========================================================================
# analytics: joins, anti-joins, grouped/conditional aggs, top-k, histograms
# (J1/J2, G3-G12, T1-T3 analogs over the TPC-H-ish tables)
# ===========================================================================

def q_lineitem_pricing(sf_dir: str):
    """TPC-H-Q1-shaped grouped aggregate (G8/G13 analog)."""
    li = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        b["disc_price"] = b["l_extendedprice"] * (1 - b["l_discount"])
        return b

    out = _combiner_agg(
        li.map_batches(derive, batch_format="pandas"),
        ["l_returnflag", "l_linestatus"],
        [
            ("sum_qty", "l_quantity", "sum"),
            ("sum_base_price", "l_extendedprice", "sum"),
            ("sum_disc_price", "disc_price", "sum"),
            ("avg_qty", "l_quantity", "mean"),
            ("count_order", None, "count"),
        ],
    )
    for c, dp in [("sum_qty", 2), ("sum_base_price", 2), ("sum_disc_price", 2), ("avg_qty", 4)]:
        out[c] = round_half_away(out[c], dp)
    return out


SQL_LINEITEM_PRICING = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       round(avg(l_quantity), 4) AS avg_qty,
       CAST(count(*) AS BIGINT) AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q_orders_by_segment(sf_dir: str):
    """J1 (sql.py:381-391): broadcast join small dim -> grouped agg."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    seg_map_ref = ray.put(cust.set_index("c_custkey")["c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def join(b: pd.DataFrame) -> pd.DataFrame:
        seg = ray.get(seg_map_ref)  # Series: vectorized reindex lookup
        b["c_mktsegment"] = b["o_custkey"].map(seg).fillna("")
        return b[["c_mktsegment", "o_totalprice"]]

    out = _combiner_agg(
        orders.map_batches(join, batch_format="pandas"),
        ["c_mktsegment"],
        [("n_orders", None, "count"), ("total_price", "o_totalprice", "sum")],
    )
    out["total_price"] = round_half_away(out["total_price"], 2)
    return out


SQL_ORDERS_BY_SEGMENT = """
SELECT c.c_mktsegment, CAST(count(*) AS BIGINT) AS n_orders,
       round(sum(o.o_totalprice), 2) AS total_price
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""


_BIG_ORDER = 300_000.0


def q_customers_without_orders(sf_dir: str):
    """J2 (sql.py:842-853): anti-join via a broadcast key set — customers
    with no large (> _BIG_ORDER) order.  The key set is distinct custkeys of
    the filtered big side: filter pushed into the read, distinct via
    ``unique`` (small), broadcast with ray.put, probe inside map_batches."""
    import pyarrow.compute as pc_

    big = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey"],
        filter=(pc_.field("o_totalprice") > _BIG_ORDER),
    )
    have_ref = ray.put(set(big.unique("o_custkey")))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])

    def anti(b: pd.DataFrame) -> pd.DataFrame:
        h = ray.get(have_ref)
        return b.loc[~b["c_custkey"].isin(h)]

    return cust.map_batches(anti, batch_format="pandas")


SQL_CUSTOMERS_WITHOUT_ORDERS = f"""
SELECT c.c_custkey, c.c_name
FROM customer c
WHERE NOT EXISTS (
    SELECT 1 FROM orders o
    WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > {_BIG_ORDER}
)
"""


def q_part_revenue_by_brand(sf_dir: str):
    """Broadcast join lineitem -> part, revenue per brand."""
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"]).to_pandas()
    brand_ref = ray.put(part.set_index("p_partkey")["p_brand"])
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def join(b: pd.DataFrame) -> pd.DataFrame:
        brands = ray.get(brand_ref)  # Series: vectorized reindex lookup
        b["p_brand"] = b["l_partkey"].map(brands).fillna("")
        b["revenue"] = b["l_extendedprice"] * (1 - b["l_discount"])
        return b[["p_brand", "revenue"]]

    out = _combiner_agg(
        li.map_batches(join, batch_format="pandas"),
        ["p_brand"],
        [("revenue", "revenue", "sum"), ("n_items", None, "count")],
    )
    out["revenue"] = round_half_away(out["revenue"], 2)
    return out


SQL_PART_REVENUE_BY_BRAND = """
SELECT p.p_brand, round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
GROUP BY p.p_brand
"""


def q_events_hourly(sf_dir: str):
    """Windowed aggregate: per (event_type, hour bucket) count + sum."""
    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def bucketize(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")  # timestamp[us] -> microseconds
        b["hour_bucket"] = (us // 3_600_000_000).astype(np.int64)
        return b[["event_type", "hour_bucket", "value"]]

    out = _combiner_agg(
        ev.map_batches(bucketize, batch_format="pandas"),
        ["event_type", "hour_bucket"],
        [("n", None, "count"), ("total_value", "value", "sum")],
    )
    out["total_value"] = round_half_away(out["total_value"], 4)
    return out


SQL_EVENTS_HOURLY = """
SELECT event_type, CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour_bucket,
       CAST(count(*) AS BIGINT) AS n, round(sum(value), 4) AS total_value
FROM events GROUP BY 1, 2
"""


def q_event_type_summary(sf_dir: str):
    """G9-style threshold/extremes per event_type."""
    ev = _read(sf_dir, "events", ["event_type", "value"])
    out = _combiner_agg(
        ev,
        ["event_type"],
        [
            ("n", None, "count"),
            ("avg_value", "value", "mean"),
            ("min_value", "value", "min"),
            ("max_value", "value", "max"),
        ],
    )
    for c in ("avg_value", "min_value", "max_value"):
        out[c] = round_half_away(out[c], 4)
    return out


SQL_EVENT_TYPE_SUMMARY = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n, round(avg(value), 4) AS avg_value,
       round(min(value), 4) AS min_value, round(max(value), 4) AS max_value
FROM events GROUP BY event_type
"""


def q_top_users_by_value(sf_dir: str):
    """T1/T3-style top-k after a grouped sum."""
    ev = _read(sf_dir, "events", ["user_id", "value"])
    out = _combiner_agg(ev, ["user_id"], [("total_value", "value", "sum")])
    out["total_value"] = round_half_away(out["total_value"], 4)
    out = out.sort_values(
        ["total_value", "user_id"], ascending=[False, True], kind="mergesort"
    ).head(5)
    return out.reset_index(drop=True)


SQL_TOP_USERS_BY_VALUE = """
SELECT user_id, round(sum(value), 4) AS total_value
FROM events GROUP BY user_id
ORDER BY total_value DESC, user_id LIMIT 5
"""


def q_order_priority_counts(sf_dir: str):
    """G4/G5-style categorical counts with a HAVING filter."""
    orders = _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"])
    out = (
        orders.groupby(["o_orderpriority", "o_orderstatus"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    return out.loc[out["n"] > 5].reset_index(drop=True)


SQL_ORDER_PRIORITY_COUNTS = """
SELECT o_orderpriority, o_orderstatus, CAST(count(*) AS BIGINT) AS n
FROM orders GROUP BY 1, 2 HAVING count(*) > 5
"""


def q_nation_region_rollup(sf_dir: str):
    """Two-level dim join rollup: customers per region."""
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    n2r = dict(zip(nation["n_nationkey"], nation["n_regionkey"]))
    r2n = dict(zip(region["r_regionkey"], region["r_name"]))
    map_ref = ray.put({k: r2n.get(v, "") for k, v in n2r.items()})
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def join(b: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(map_ref)
        b["r_name"] = [m.get(k, "") for k in b["c_nationkey"]]
        return b[["r_name", "c_acctbal"]]

    out = (
        cust.map_batches(join, batch_format="pandas")
        .groupby("r_name")
        .aggregate(Count(alias_name="n_customers"), Sum("c_acctbal", alias_name="total_acctbal"))
    ).to_pandas()
    out["total_acctbal"] = round_half_away(out["total_acctbal"], 2)
    return out


SQL_NATION_REGION_ROLLUP = """
SELECT r.r_name, CAST(count(*) AS BIGINT) AS n_customers,
       round(sum(c.c_acctbal), 2) AS total_acctbal
FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name
"""


# ===========================================================================
# embeddings: ANN + label stats
# ===========================================================================

def _query_vec(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), filters=[("vec_id", "=", 0)]
    )
    return np.asarray(t["embedding"].to_pylist()[0], dtype=np.float64)


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 vs the vec_id=0 query (broadcast matmul)."""
    from ..stages.ann import brute_force_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return brute_force_topk(emb, _query_vec(sf_dir), k=10)


SQL_ANN_TOPK = """
WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0)
SELECT e.vec_id,
       round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                    CAST((SELECT qe FROM q) AS DOUBLE[])), 5) AS score
FROM embeddings e ORDER BY score DESC, e.vec_id LIMIT 10
"""


def q_doc_stratified_sample(sf_dir: str):
    """Deterministic stratified sampling for training-data curation: 10
    documents per language, ranked by md5(doc_id) — a seeded-hash sample an
    independent SQL engine reproduces exactly (unlike RNG sampling).  Runs
    as the grouped-top-k combiner: each batch emits at most k rows per
    stratum, the merge keeps the global k — the exchange never carries more
    than k x strata x batches rows."""
    import hashlib as _hashlib

    k = 10
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])

    def rank_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[["doc_id", "lang"]].copy()
        b["rk"] = [
            _hashlib.md5(str(int(i)).encode()).hexdigest() for i in b["doc_id"]
        ]
        b = b.sort_values(["lang", "rk"], kind="mergesort")
        return b.groupby("lang", sort=False).head(k)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("rk", kind="mergesort").head(k)

    out = (
        docs.map_batches(rank_partial, batch_format="pandas")
        .groupby("lang")
        .map_groups(merge, batch_format="pandas")
    )
    return out.drop_columns(["rk"])


SQL_DOC_STRATIFIED_SAMPLE = """
SELECT doc_id, lang FROM (
  SELECT doc_id, lang,
         row_number() OVER (
           PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR))
         ) AS rn
  FROM documents
) WHERE rn <= 10
"""


def q_embedding_norms(sf_dir: str):
    """Per-label mean L2 norm (vectorized numpy kernel per batch) plus the
    per-label row count (the former label_counts query) from the same
    grouped aggregation."""
    emb = _read(sf_dir, "embeddings", ["label", "embedding"])

    def norms(b: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack([np.asarray(v, dtype=np.float64) for v in b["embedding"]])
        b["norm"] = np.linalg.norm(mat, axis=1)
        return b[["label", "norm"]]

    out = (
        emb.map_batches(norms, batch_format="pandas")
        .groupby("label")
        .aggregate(Mean("norm", alias_name="mean_norm"), Count(alias_name="n"))
    ).to_pandas()
    out["mean_norm"] = round_half_away(out["mean_norm"], 4)
    out["n"] = out["n"].astype(np.int64)
    return out


SQL_EMBEDDING_NORMS = """
SELECT label,
       round(avg(sqrt(list_sum(list_transform(CAST(embedding AS DOUBLE[]), x -> x * x)))), 4) AS mean_norm,
       CAST(count(*) AS BIGINT) AS n
FROM embeddings GROUP BY label
"""


# ===========================================================================
# embedding near-dup, IVF ANN, n-gram Jaccard, token counts (training-data
# pipeline ops, SQL-checkable at gate scale; scale paths documented in the
# stage modules)
# ===========================================================================

def q_embedding_neardup(sf_dir: str):
    """Exact embedding-cosine near-dup pairs (broadcast-block all-pairs —
    the SQL-checkable oracle; q_embedding_neardup_lsh is the scale path)."""
    from ..stages.ann import cosine_neardup_pairs

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return cosine_neardup_pairs(emb, threshold=0.35)


def q_approx_top_users(sf_dir: str) -> pd.DataFrame:
    """Count-Min heavy hitters: approximate top-10 users by event count.
    The exchange carries fixed-size sketches + per-batch candidates, never
    rows (rows-only; CMS one-sided accuracy pinned in tests)."""
    from ..stages.sketch import approx_heavy_hitters

    ev = _read(sf_dir, "events", ["user_id"])
    return approx_heavy_hitters(ev, "user_id", k=10)


def q_doc_embed_neardup(sf_dir: str):
    """Text -> embedding bridge: hash-embed the documents table (md5
    feature hashing, functions/embed.py — no model state) and find
    cos>=0.9 pairs through the exact distributed block join — the
    end-to-end 'embed raw text, dedup by cosine' pipeline a training-data
    curation run needs.  SQL-oracled END-TO-END since round 4: DuckDB
    reproduces the tokenizer, the signed hashing vectorizer AND the cosine
    pair join (SQL_DOC_EMBED_NEARDUP).  The SRP-LSH path over the same
    embeddings keeps its recall gate in tests/test_stages.py."""
    from ..functions.embed import HashingEmbedStage
    from ..stages.ann import cosine_pairs_blocked

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    emb = docs.map_batches(
        HashingEmbedStage,
        fn_constructor_kwargs={"text_col": "text", "dim": 256},
        batch_format="pandas",
        batch_size=256,
        concurrency=2,
    ).drop_columns(["text"])
    # materialize: cosine_pairs_blocked sizes its blocks with ds.count(),
    # which would otherwise execute the embed stage a second time
    return cosine_pairs_blocked(
        emb.materialize(), threshold=0.9, id_col="doc_id", vec_col="embedding"
    )


SQL_DOC_EMBED_NEARDUP = r"""
WITH toks AS (
  SELECT doc_id, lower(w) AS w
  FROM (
    SELECT doc_id,
           unnest(list_filter(
               regexp_split_to_array(regexp_replace(text, '[^\w\s]', ' ', 'g'),
                                     '\s+'),
               x -> length(x) >= 3 AND NOT regexp_matches(x, '[0-9]')
           )) AS w
    FROM documents
  )
), h AS (
  SELECT doc_id, md5(w) AS hx FROM toks
), feat AS (
  SELECT doc_id,
         ((strpos('0123456789abcdef', substr(hx, 1, 1)) - 1) * 4096
        + (strpos('0123456789abcdef', substr(hx, 2, 1)) - 1) * 256
        + (strpos('0123456789abcdef', substr(hx, 3, 1)) - 1) * 16
        + (strpos('0123456789abcdef', substr(hx, 4, 1)) - 1)) % 256 AS bucket,
         CASE WHEN strpos('0123456789abcdef', substr(hx, 5, 1)) - 1 >= 8
              THEN -1.0 ELSE 1.0 END AS s
  FROM h
), vec AS (
  SELECT doc_id, bucket, sum(s) AS v FROM feat GROUP BY doc_id, bucket
), nrm AS (
  SELECT doc_id, sqrt(sum(v * v)) AS n FROM vec GROUP BY doc_id
), dot AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, sum(a.v * b.v) AS d
  FROM vec a JOIN vec b ON a.bucket = b.bucket AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT dot.id_a, dot.id_b,
       round(dot.d / (na.n * nb.n), 3) AS cos_sim
FROM dot
JOIN nrm na ON na.doc_id = dot.id_a
JOIN nrm nb ON nb.doc_id = dot.id_b
WHERE dot.d / (na.n * nb.n) >= 0.9
"""


def q_embedding_neardup_blocked(sf_dir: str):
    """Exact cosine>=0.35 pair join via distributed block all-pairs
    (stages/ann.py:cosine_pairs_blocked): no broadcast, no driver
    collection, one O(N*B)-row exchange, B(B+1)/2 evenly-sized matmul
    tasks.  The shipped scale path for the low-threshold regime, where a
    cosine continuum defeats LSH pruning (see cosine_pairs_blocked
    docstring + BASELINE.md round 4); driver-checked against the same SQL
    oracle as the broadcast verification oracle."""
    from ..stages.ann import cosine_pairs_blocked

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return cosine_pairs_blocked(emb, threshold=0.35)


def q_embedding_neardup_lsh(sf_dir: str):
    """SRP-LSH bucketed near-dup (probe-bucket candidates + shuffle-joined
    exact cosine, nothing broadcast) — the scale path for TRUE near-dup
    regimes (cos >= ~0.7 clusters), where buckets prune.

    Operating point: 24 tables x 8 bits with 1-bit probes — per-pair miss
    probability ~0.654^24 ~ 4e-5 at the cos-0.35 worst case, so on the
    deterministic test corpora the output EQUALS the exact all-pairs set
    (checked against the same SQL oracle as embedding_neardup; equality at
    sf0.001/0.01/0.1 pinned in tests).  NOTE on this corpus's cosine
    continuum this recall-1.0 point degenerates to all-pairs with probe
    overhead (measured in BASELINE.md round 4) — the exact blocked join
    (q_embedding_neardup_blocked) is the right tool there; this query
    stays as the LSH surface + its SQL-equality gate at small sf."""
    from ..stages.ann import srp_neardup_pairs

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return srp_neardup_pairs(emb, dim=64, threshold=0.35, n_tables=24)


SQL_EMBEDDING_NEARDUP = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 3) AS cos_sim
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.35
"""


def q_ann_ivf_topk(sf_dir: str):
    """IVF top-k with exhaustive probing (nprobe == nlist): identical to the
    exact result, so SQL-checkable; recall at nprobe < nlist is pinned by
    tests/test_stages.py."""
    from ..stages.ann import ivf_topk, ivf_train_centroids

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents = ivf_train_centroids(emb, nlist=16)
    return ivf_topk(emb, cents, _query_vec(sf_dir), k=10, nprobe=16)


SQL_ANN_IVF_TOPK = """
WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0)
SELECT e.vec_id,
       round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                    CAST((SELECT qe FROM q) AS DOUBLE[])), 5) AS score
FROM embeddings e ORDER BY score DESC, e.vec_id LIMIT 10
"""


def q_ngram_jaccard(sf_dir: str):
    """Exact 3-gram Jaccard near-dup pairs over documents (the verification
    oracle for the MinHash estimate; quadratic — q_ngram_jaccard_lsh is the
    shipped scale path)."""
    from ..stages.dedup import ngram_jaccard_allpairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_jaccard_allpairs(docs, threshold=0.5)


def q_ngram_jaccard_inverted(sf_dir: str):
    """EXACT n-gram Jaccard >= 0.5 via the inverted-index set-similarity
    join (stages/dedup.py:ngram_jaccard_inverted): docs sharing a shingle
    pair up in a shingle-partitioned exchange (_shared_key_pairs),
    per-pair intersection partials sum in a pair-keyed exchange, sizes
    shuffle-join on — no
    all-pairs stage, no broadcast, no per-pair set shipping.  Same SQL
    oracle as the quadratic verification oracle."""
    from ..stages.dedup import ngram_jaccard_inverted

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_jaccard_inverted(docs, threshold=0.5)


def q_ngram_jaccard_lsh(sf_dir: str):
    """MinHash-LSH candidates + EXACT Jaccard on shuffle-joined shingle
    sets (no broadcast, no driver collection; recall vs the exact oracle
    pinned in tests/test_stages.py).  At its recall-1.0 operating point it
    equals the exact pair set on the test corpora (same SQL oracle); the
    inverted-index join (q_ngram_jaccard_inverted) is the exact scale path
    when the jaccard distribution defeats banding."""
    from ..stages.dedup import ngram_jaccard_lsh

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_jaccard_lsh(docs, threshold=0.5)


SQL_NGRAM_JACCARD = r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
), sh AS (
  SELECT doc_id,
         CASE
           WHEN len(ws) = 0 THEN []::VARCHAR[]
           WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
           ELSE list_distinct(list_transform(range(1, len(ws) - 1),
                                             i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))
         END AS s
  FROM w
), pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         len(list_intersect(a.s, b.s)) AS inter,
         len(a.s) AS na, len(b.s) AS nb
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
)
SELECT id_a, id_b,
       round(CASE WHEN na = 0 AND nb = 0 THEN 1.0
                  WHEN na = 0 OR nb = 0 THEN 0.0
                  ELSE inter::DOUBLE / (na + nb - inter) END, 4) AS jaccard
FROM pairs
WHERE CASE WHEN na = 0 AND nb = 0 THEN 1.0
           WHEN na = 0 OR nb = 0 THEN 0.0
           ELSE inter::DOUBLE / (na + nb - inter) END >= 0.5
"""


def q_dup_ngram_fraction(sf_dir: str):
    """CCNet / RefinedWeb duplicated-n-gram-fraction quality signal: per
    doc, the fraction of its distinct word 5-grams first seen in an earlier
    document (owner = min doc_id).  Shingle-hash partition groupby computes
    owners; only md5-bounded shingle rows and per-(doc, partition) partial
    counts ride the exchanges."""
    from ..stages.dedup import dup_ngram_fraction

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dup_ngram_fraction(docs, n=5)


SQL_DUP_NGRAM_FRACTION = r"""
WITH words AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), w -> w <> '') AS ws
  FROM documents
), sh AS (
  SELECT doc_id, md5(array_to_string(ws[i:i+4], ' ')) AS g
  FROM words, unnest(range(1, len(ws) - 3)) AS t(i)
  WHERE len(ws) >= 5
), dsh AS (
  SELECT DISTINCT doc_id, g FROM sh
), own AS (
  SELECT g, min(doc_id) AS owner FROM dsh GROUP BY g
)
SELECT d.doc_id,
       CAST(count(*) AS BIGINT) AS n_shingles,
       CAST(sum(CASE WHEN o.owner < d.doc_id THEN 1 ELSE 0 END) AS BIGINT) AS n_dup,
       round(sum(CASE WHEN o.owner < d.doc_id THEN 1 ELSE 0 END) / count(*), 4)
         AS dup_fraction
FROM dsh d JOIN own o USING (g)
GROUP BY d.doc_id
"""


def q_doc_quality_ranks(sf_dir: str):
    """Exact global NTILE(10) binning AND PERCENT_RANK over (n_chars,
    doc_id) from ONE distributed rank pass — distinct-value histogram
    broadcast + value-partition tie ranking (no global row sort, no driver
    frame); the former doc_quality_ntile and doc_quality_percentile
    queries merged."""
    from ..stages.textstats import quality_ntile

    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return quality_ntile(docs, k=10, with_percent_rank=True)


SQL_DOC_QUALITY_RANKS = """
SELECT doc_id, n_chars,
       CAST(NTILE(10) OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS decile,
       round(percent_rank() OVER (ORDER BY n_chars, doc_id), 6) AS pct_rank
FROM documents
"""


def q_tfidf_top_terms(sf_dir: str):
    """Per-doc top-3 TF-IDF terms; df computed inside a token-hash
    partition groupby (no broadcast IDF table), partial top-k per
    partition, doc-partition merge for ranks."""
    from ..stages.textstats import tfidf_top_terms

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_top_terms(docs, topk=3)


SQL_TFIDF_TOP_TERMS = r"""
WITH toks AS (
  SELECT doc_id, lower(w) AS token
  FROM (
    SELECT doc_id,
           unnest(string_split_regex(regexp_replace(text, '[^\w\s]', ' ', 'g'),
                                     '\s+')) AS w
    FROM documents
  )
  WHERE w <> ''
), tf AS (
  SELECT doc_id, token, count(*) AS tf FROM toks GROUP BY doc_id, token
), df AS (
  SELECT token, count(DISTINCT doc_id) AS df FROM toks GROUP BY token
), n AS (
  SELECT count(*) AS n FROM documents
), scored AS (
  SELECT tf.doc_id, tf.token, round(tf.tf * ln(n.n / df.df), 4) AS tfidf
  FROM tf JOIN df USING (token) CROSS JOIN n
), ranked AS (
  SELECT *, row_number() OVER (
      PARTITION BY doc_id ORDER BY tfidf DESC, token) AS rk
  FROM scored
)
SELECT doc_id, token, tfidf, CAST(rk AS BIGINT) AS rk
FROM ranked WHERE rk <= 3
"""


def q_winnow_neardup(sf_dir: str):
    """Winnowing (MOSS) fingerprint near-dup pairs — the position-robust
    shared-substring family: guarantees a shared fingerprint for any
    common run of >= window+select-1 chars.  Rows-only gate; parity vs a
    serial brute-force fingerprint-overlap oracle pinned in tests."""
    from ..stages.dedup import winnow_neardup_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return winnow_neardup_pairs(docs, min_shared=3)


def q_semantic_dedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-means clusters + greedy first-wins
    intra-cluster cosine dedup over the embeddings table.  Rows-only gate
    (k-means has no SQL form); greedy/cluster invariants pinned in
    tests/test_corpus_ops.py."""
    from ..stages.ann import semantic_dedup

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return semantic_dedup(emb, ncluster=8, tau=0.95)


def q_lm_perplexity(sf_dir: str):
    """CCNet-style LM quality filter: hashed-bigram add-one LM trained on
    the lang='en' subset, bits-per-bigram cross-entropy for every doc.
    Rows-only gate; separation/determinism pinned in tests."""
    from ..stages.lm import lm_perplexity

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return lm_perplexity(docs, target_lang="en")


def q_user_window_stats(sf_dir: str):
    """Per-user ordered window columns — row_number, running sum, lag AND
    the trailing-3-row moving average — ALL from one key-hash partition
    shuffle (the former user_running_totals and user_moving_avg queries
    merged; the bounded frame rides the same vectorized grouped pass)."""
    from ..stages.windows import running_window_cols

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return running_window_cols(ev, moving_window=3)


SQL_USER_WINDOW_STATS = """
SELECT event_id, user_id,
       CAST(row_number() OVER w AS BIGINT) AS rn,
       round(sum(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING), 2) AS cum_value,
       round(COALESCE(lag(value) OVER w, 0.0), 2) AS prev_value,
       round(avg(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 4)
         AS moving_avg
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_order_customer_join(sf_dir: str):
    """Big-x-big equi-join via the generic tagged-union hash join
    (stages/join.py — every row moves exactly once), then a combiner
    rollup per (mktsegment, orderstatus)."""
    from ..stages.join import hash_join

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"]
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = hash_join(orders, cust, left_key="o_custkey", right_key="c_custkey")
    out = _combiner_agg(
        joined,
        ["c_mktsegment", "o_orderstatus"],
        [("n_orders", None, "count"), ("total_price", "o_totalprice", "sum")],
    )
    out["total_price"] = round_half_away(out["total_price"].to_numpy(np.float64), 2)
    return out


SQL_ORDER_CUSTOMER_JOIN = """
SELECT c.c_mktsegment, o.o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       round(sum(o.o_totalprice), 2) AS total_price
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment, o.o_orderstatus
"""


def q_events_user_salted_join(sf_dir: str):
    """Skew-safe enrichment join: per-user mean values (combiner agg) join
    back onto the raw event stream via salted_hash_join, with the hot keys
    supplied by the Count-Min heavy-hitter sketch — the composed
    hot-key-aware join a skewed event log needs at scale."""
    from ..stages.join import salted_hash_join
    from ..stages.sketch import approx_heavy_hitters

    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    hot = approx_heavy_hitters(ev, "user_id", k=3)["user_id"].tolist()
    means = _combiner_agg(ev, ["user_id"], [("user_mean", "value", "mean")])
    means["user_mean"] = round_half_away(means["user_mean"].to_numpy(np.float64), 4)
    joined = salted_hash_join(
        ev,
        ray.data.from_pandas(means),
        left_key="user_id",
        hot_keys=tuple(hot),
        salt_n=8,
    )
    return joined.select_columns(["event_id", "user_id", "value", "user_mean"])


SQL_EVENTS_USER_SALTED_JOIN = """
WITH u AS (
  SELECT user_id, round(avg(value), 4) AS user_mean FROM events GROUP BY user_id
)
SELECT e.event_id, e.user_id, e.value, u.user_mean
FROM events e JOIN u USING (user_id)
"""


def q_label_centroids(sf_dir: str):
    """Per-label embedding centroids in (label, dim, mean_val) long form —
    one combiner pass, vectors summed per batch, exchange carries only
    labels x dims floats."""
    from ..stages.ann import label_centroids

    emb = _read(sf_dir, "embeddings", ["label", "embedding"])
    return label_centroids(emb)


SQL_LABEL_CENTROIDS = """
SELECT CAST(label AS BIGINT) AS label, CAST(i AS BIGINT) AS dim,
       round(avg(embedding[CAST(i AS INTEGER)]), 5) AS mean_val
FROM embeddings, unnest(range(1, 65)) AS t(i)
GROUP BY label, i
"""


def q_events_pivot(sf_dir: str):
    """Pivot: per-user event counts spread into one column per event type
    (the classic long->wide reshape).  Combiner agg on (user, type) —
    exchange carries one row per pair per batch — then a vectorized pandas
    pivot inside a user-partition groupby; missing combinations fill 0."""
    from ..stages.agg import combiner_agg

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    pairs = combiner_agg(
        ev, ["user_id", "event_type"], [("n", None, "count")], parts=16
    )
    types = ["click", "error", "purchase", "signup", "view"]

    def add_part(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__up"] = (
            pd.util.hash_array(b["user_id"].to_numpy(np.int64)) % np.uint64(16)
        ).astype(np.int64)
        return b

    def pivot_part(g: pd.DataFrame) -> pd.DataFrame:
        # the wide schema is fixed by the SQL oracle's column list; a new
        # event_type in the data must fail loudly, not vanish from the output
        extra = set(g["event_type"]) - set(types)
        if extra:
            raise ValueError(
                f"events_pivot: unexpected event_type values {sorted(extra)}; "
                "extend the pivoted column list (and the SQL oracle) to match"
            )
        w = (
            g.pivot_table(
                index="user_id", columns="event_type", values="n",
                aggfunc="sum", fill_value=0,
            )
            .reindex(columns=types, fill_value=0)
            .reset_index()
        )
        w.columns = ["user_id"] + [f"n_{t}" for t in types]
        return w.astype({c: "int64" for c in w.columns})

    return (
        pairs.map_batches(add_part, batch_format="pandas")
        .groupby("__up")
        .map_groups(pivot_part, batch_format="pandas")
    )


SQL_EVENTS_PIVOT = """
SELECT user_id,
       CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
       CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
       CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
       CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view
FROM events GROUP BY user_id
"""


def q_events_props_extract(sf_dir: str):
    """Semi-structured extraction: parse the JSON ``props`` column, pull
    the ``k`` field, bucket it and count — the JSON-sidecar pattern of an
    event log.  Parsing is per-batch Python json (the column is opaque
    string); the aggregation is the usual combiner."""
    import json as _json

    from ..stages.agg import combiner_agg

    ev = _read(sf_dir, "events", ["props"])

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        # null/empty props rows are dropped on BOTH sides (the SQL oracle
        # filters `props IS NOT NULL AND props <> ''`) — SQL would group
        # them under a NULL key, which has no integer-bucket equivalent
        ks = np.array(
            [
                int(_json.loads(p)["k"])
                for p in b["props"]
                if isinstance(p, str) and p
            ],
            dtype=np.int64,
        )
        return pd.DataFrame({"k_bucket": ks // 10})

    buckets = ev.map_batches(extract, batch_format="pandas")
    out = _combiner_agg(buckets, ["k_bucket"], [("n", None, "count")])
    return out.astype({"k_bucket": "int64", "n": "int64"})


SQL_EVENTS_PROPS_EXTRACT = """
SELECT CAST(CAST(json_extract_string(props, '$.k') AS BIGINT) // 10 AS BIGINT)
         AS k_bucket,
       CAST(count(*) AS BIGINT) AS n
FROM events
WHERE props IS NOT NULL AND props <> ''
GROUP BY 1
"""


def q_events_unpivot(sf_dir: str):
    """Unpivot (wide->long reshape): the pivoted per-user type counts melt
    back to (user_id, event_type, n) rows, dropping empty combinations —
    an embarrassingly-parallel map_batches over the pivot output (melt is
    row-local; no extra shuffle beyond the pivot's own)."""
    pivoted = q_events_pivot(sf_dir)

    def melt(b: pd.DataFrame) -> pd.DataFrame:
        # derive the value columns from the pivot output itself so a wider
        # pivot schema melts completely instead of silently dropping columns
        out = b.melt(
            id_vars=["user_id"],
            value_vars=[c for c in b.columns if c.startswith("n_")],
            var_name="event_type",
            value_name="n",
        )
        out["event_type"] = out["event_type"].str.slice(2)
        out = out[out["n"] > 0].reset_index(drop=True)
        return out.astype({"user_id": "int64", "n": "int64"})

    return pivoted.map_batches(melt, batch_format="pandas")


SQL_EVENTS_UNPIVOT = """
SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY user_id, event_type
"""


def q_doc_table_checksum(sf_dir: str):
    """Order-insensitive documents-table checksum (migration/copy
    validation without co-locating either side): sum of the first-8-hex
    md5 of each '|'-joined row mod 2^31-1; per-batch partial sums only on
    the exchange, driver folds in Python big ints."""
    from ..stages.profile import table_checksum

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return table_checksum(docs, ["doc_id", "text"])


SQL_DOC_TABLE_CHECKSUM = """
WITH h AS (
  SELECT substr(md5(CAST(doc_id AS VARCHAR) || '|' || text), 1, 8) AS hx
  FROM documents
), v AS (
  SELECT CAST(list_sum(list_transform(range(1, 9),
      i -> (strpos('0123456789abcdef', substr(hx, CAST(i AS INTEGER), 1)) - 1)
           * power(16, 8 - i))) AS BIGINT) AS val
  FROM h
)
SELECT CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(val) % 2147483647 AS BIGINT) AS checksum
FROM v
"""


def q_events_profile(sf_dir: str):
    """Table profiler ("describe"): per-column counts, nulls, min/max and
    exact distinct counts in two bounded passes (partials + a distinct
    value-partition groupby; HLL is the documented at-scale swap)."""
    from ..stages.profile import table_profile

    cols = ["event_id", "ts", "user_id", "event_type", "value"]
    ev = _read(sf_dir, "events", cols)
    return table_profile(ev, cols)


SQL_EVENTS_PROFILE = """
WITH p AS (
  SELECT 'event_id' AS "column", CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CASE WHEN event_id IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_null,
         CAST(min(event_id) AS VARCHAR) AS min_v,
         CAST(max(event_id) AS VARCHAR) AS max_v,
         CAST(count(DISTINCT event_id) AS BIGINT) AS n_distinct
  FROM events
  UNION ALL
  SELECT 'ts', CAST(count(*) AS BIGINT),
         CAST(sum(CASE WHEN ts IS NULL THEN 1 ELSE 0 END) AS BIGINT),
         CAST(min(ts) AS VARCHAR), CAST(max(ts) AS VARCHAR),
         CAST(count(DISTINCT ts) AS BIGINT)
  FROM events
  UNION ALL
  SELECT 'user_id', CAST(count(*) AS BIGINT),
         CAST(sum(CASE WHEN user_id IS NULL THEN 1 ELSE 0 END) AS BIGINT),
         CAST(min(user_id) AS VARCHAR), CAST(max(user_id) AS VARCHAR),
         CAST(count(DISTINCT user_id) AS BIGINT)
  FROM events
  UNION ALL
  SELECT 'event_type', CAST(count(*) AS BIGINT),
         CAST(sum(CASE WHEN event_type IS NULL THEN 1 ELSE 0 END) AS BIGINT),
         min(event_type), max(event_type),
         CAST(count(DISTINCT event_type) AS BIGINT)
  FROM events
  UNION ALL
  SELECT 'value', CAST(count(*) AS BIGINT),
         CAST(sum(CASE WHEN value IS NULL THEN 1 ELSE 0 END) AS BIGINT),
         CAST(min(value) AS VARCHAR), CAST(max(value) AS VARCHAR),
         CAST(count(DISTINCT value) AS BIGINT)
  FROM events
)
SELECT * FROM p ORDER BY "column"
"""


def q_orders_building_bloom_join(sf_dir: str):
    """Selective join via the Bloom pre-filter: only BUILDING-segment
    customers survive the right side, so the broadcast bitmap prunes most
    order rows BEFORE the exchange; exact results equal the plain join
    (one-sided error).  Rolled up per orderstatus."""
    from ..stages.join import bloom_filtered_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderstatus", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).filter(
        expr="c_mktsegment == 'BUILDING'"
    )
    joined = bloom_filtered_join(
        orders, cust, left_key="o_custkey", right_key="c_custkey"
    )
    out = _combiner_agg(
        joined,
        ["o_orderstatus"],
        [("n_orders", None, "count"), ("total_price", "o_totalprice", "sum")],
    )
    out["total_price"] = round_half_away(out["total_price"].to_numpy(np.float64), 2)
    return out


SQL_ORDERS_BUILDING_BLOOM_JOIN = """
SELECT o.o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       round(sum(o.o_totalprice), 2) AS total_price
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
WHERE c.c_mktsegment = 'BUILDING'
GROUP BY o.o_orderstatus
"""


def q_user_value_zscore(sf_dir: str):
    """Per-user mean deviation from the population in population-σ units —
    the anomalous-user detector.  One pass of per-key (sum, sumsq, n)
    partials feeds both the per-key means and the driver-summed global
    moments; raw values ride no second exchange."""
    from ..stages.textstats import user_value_zscore

    ev = _read(sf_dir, "events", ["user_id", "value"])
    return user_value_zscore(ev)


SQL_USER_VALUE_ZSCORE = """
WITH g AS (
  SELECT avg(value) AS m, stddev_pop(value) AS sd FROM events
), u AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n_events, avg(value) AS mu
  FROM events GROUP BY user_id
)
SELECT u.user_id, u.n_events,
       round(u.mu, 4) AS mean_value,
       round((u.mu - g.m) / (CASE WHEN g.sd > 0 THEN g.sd ELSE 1 END), 4)
         AS zscore
FROM u, g
"""


def q_doc_compression(sf_dir: str):
    """Per-doc zlib compression ratio (spam compresses to nothing, junk
    not at all) — rows-only gate (zlib has no SQL form); determinism and
    monotonicity pinned in tests."""
    from ..stages.textstats import compression_ratio_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(compression_ratio_batch, batch_format="pandas")


def q_doc_split_assign(sf_dir: str):
    """Deterministic train/val/test split by md5(doc_id) bucket — stable
    under resharding/corpus growth; embarrassingly parallel, no shuffle."""
    from ..stages.curation import split_assign

    docs = _read(sf_dir, "documents", ["doc_id"])
    return split_assign(docs)


SQL_DOC_SPLIT_ASSIGN = """
WITH h AS (
  SELECT doc_id, substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS hx FROM documents
), v AS (
  SELECT doc_id,
         CAST(list_sum(list_transform(range(1, 9),
             i -> (strpos('0123456789abcdef', substr(hx, CAST(i AS INTEGER), 1)) - 1)
                  * power(16, 8 - i))) AS BIGINT) % 100 AS bucket
  FROM h
)
SELECT doc_id, bucket,
       CASE WHEN bucket < 10 THEN 'test'
            WHEN bucket < 20 THEN 'val'
            ELSE 'train' END AS split
FROM v
"""


def q_pack_sequences(sf_dir: str):
    """Greedy fixed-token-budget sequence packing for LM training batches,
    hash-sharded so each shard packs its id-ordered stream independently.
    Rows-only gate (iterative bin reset has no SQL form); per-shard parity
    vs a serial packer pinned in tests."""
    from ..stages.curation import pack_sequences

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return pack_sequences(docs, budget=128)


def q_bpe_token_stats(sf_dir: str):
    """Subword tokenization end-to-end: distributed BPE training (pair
    counts as mergeable partials over the word-frequency table, 40 merges)
    then actor-pool encoding — per-doc subword counts + compression ratio.
    Rows-only gate (iterative training has no SQL form); serial-BPE parity
    pinned in tests/test_corpus_ops.py."""
    from ..stages.bpe import bpe_token_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return bpe_token_stats(docs, num_merges=40)


# ===========================================================================
# custom relational operators: as-of join, sliding window, salted groupby
# (stages/windows.py — compositions Ray Data lacks natively)
# ===========================================================================

def interval_epoch_sec(td: pd.Series) -> np.ndarray:
    """Seconds of a non-negative timedelta series the way DuckDB's
    ``epoch(ts - ts)`` computes them: ``days*86400 + micros/1e6`` in
    doubles.  ``total_seconds()`` divides the whole microsecond count
    instead; on an exact half-millisecond tie such as 332,352,299,500 us
    the two differ in the last bit (the sum lands one ulp below the tie),
    so they round to different milliseconds: 332352.299 vs 332352.3."""
    us = td.to_numpy().astype("timedelta64[us]").astype(np.int64)
    days = us // 86_400_000_000
    return days * 86400.0 + (us - days * 86_400_000_000) / 1e6


def q_asof_click_view(sf_dir: str):
    """Per click event: the latest prior (<=) view by the same user, as a
    distributed as-of join (hash-partition by user, merge_asof per part)."""
    from ..stages.windows import asof_join_by_key

    # one parquet scan: materialize the pruned read, then both sides filter
    # object-store blocks instead of re-reading the table
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"]).materialize()
    clicks = ev.filter(expr="event_type == 'click'").drop_columns(["event_type"])
    views = ev.filter(expr="event_type == 'view'").drop_columns(["event_type"])
    joined = asof_join_by_key(
        clicks, views, key="user_id", ts_col="ts", right_cols=("event_id", "ts")
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": b["event_id"].astype("int64"),
                "user_id": b["user_id"].astype("int64"),
                "view_event_id": b["event_id_r"].astype("int64"),
                "gap_sec": round_half_away(interval_epoch_sec(b["ts"] - b["ts_r"]), 3),
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


SQL_ASOF_CLICK_VIEW = """
SELECT c.event_id, c.user_id, v.event_id AS view_event_id,
       round(epoch(c.ts - v.ts), 3) AS gap_sec
FROM (SELECT * FROM events WHERE event_type = 'click') c
ASOF JOIN (SELECT * FROM events WHERE event_type = 'view') v
  ON c.user_id = v.user_id AND c.ts >= v.ts
"""


def q_events_range_join(sf_dir: str):
    """Range (interval-containment) join: 40 OVERLAPPING 8-hour campaign
    windows on a 6-hour stride, anchored at the stream's first day, joined
    to every event inside them (a genuine one-to-many range join — the
    broadcast-small-side form, zero shuffle), then a per (interval,
    event_type) rollup through the combiner."""
    from ..stages.windows import range_join_broadcast

    ev = _read(sf_dir, "events", ["ts", "event_type", "value"]).materialize()
    # distributed min(ts): per-batch partials, tiny driver merge
    mins = ev.map_batches(
        lambda b: pd.DataFrame({"m": [b["ts"].min()]}), batch_format="pandas"
    ).to_pandas()
    day0 = mins["m"].min().floor("D")
    iv = pd.DataFrame(
        {
            "interval_id": np.arange(40, dtype=np.int64),
            "start_ts": [day0 + pd.Timedelta(hours=6 * i) for i in range(40)],
            "end_ts": [day0 + pd.Timedelta(hours=6 * i + 8) for i in range(40)],
        }
    )
    joined = range_join_broadcast(
        ev, iv, ts_col="ts", carry_cols=("event_type", "value")
    )
    out = _combiner_agg(
        joined,
        ["interval_id", "event_type"],
        [("n_events", None, "count"), ("sum_value", "value", "sum")],
    )
    out["sum_value"] = round_half_away(out["sum_value"], 2)
    return out


SQL_EVENTS_RANGE_JOIN = """
WITH d AS (SELECT date_trunc('day', min(ts)) AS day0 FROM events),
iv AS (
  SELECT i AS interval_id,
         day0 + to_hours(6 * i) AS start_ts,
         day0 + to_hours(6 * i + 8) AS end_ts
  FROM range(0, 40) t(i), d
)
SELECT iv.interval_id, e.event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       round(sum(e.value), 2) AS sum_value
FROM events e JOIN iv ON e.ts >= iv.start_ts AND e.ts < iv.end_ts
GROUP BY iv.interval_id, e.event_type
"""


def q_events_sliding_window(sf_dir: str):
    """Trailing 3-hour windowed (count, value-sum) per event_type per
    occupied hour (combiner pre-agg + per-group vectorized rolling)."""
    from ..stages.windows import sliding_window_agg

    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])
    return sliding_window_agg(ev, "event_type", window_hours=3)


SQL_EVENTS_SLIDING_WINDOW = """
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS hr,
         count(*)::BIGINT AS n, sum(value) AS v
  FROM events GROUP BY 1, 2
)
SELECT event_type, strftime(hr, '%Y-%m-%d %H:00') AS hour,
       CAST(sum(n) OVER w AS BIGINT) AS n_window,
       round(sum(v) OVER w, 2) AS v_window
FROM h
WINDOW w AS (PARTITION BY event_type ORDER BY hr
             RANGE BETWEEN INTERVAL 2 HOURS PRECEDING AND CURRENT ROW)
"""


def q_user_value_salted(sf_dir: str):
    """groupby(user).sum(value) through the salted two-stage exchange (the
    hot-key skew pattern; result equals the plain groupby, which is exactly
    what the SQL gate asserts)."""
    from ..stages.windows import salted_sum

    ev = _read(sf_dir, "events", ["user_id", "value"])
    out = salted_sum(ev, "user_id", "value", salt_n=16)

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["sum_value"] = round_half_away(b["sum_value"].to_numpy(), 2)
        return b

    return out.map_batches(fin, batch_format="pandas")


SQL_USER_VALUE_SALTED = """
SELECT user_id, round(sum(value), 2) AS sum_value FROM events GROUP BY user_id
"""


def q_event_value_quantiles(sf_dir: str):
    """Exact per-event-type value quantiles (DuckDB quantile_cont parity)."""
    from ..stages.windows import grouped_quantiles

    ev = _read(sf_dir, "events", ["event_type", "value"])
    return grouped_quantiles(ev, "event_type", "value")


SQL_EVENT_VALUE_QUANTILES = """
SELECT event_type,
       round(quantile_cont(value, 0.25), 4) AS q25,
       round(quantile_cont(value, 0.50), 4) AS q50,
       round(quantile_cont(value, 0.90), 4) AS q90
FROM events GROUP BY event_type
"""


def q_event_value_quantiles_approx(sf_dir: str):
    """t-digest approximate per-type quantiles — the sketch scale path of
    q_event_value_quantiles (accuracy pinned by tests/test_stages.py)."""
    from ..stages.sketch import approx_grouped_quantiles

    ev = _read(sf_dir, "events", ["event_type", "value"])
    return approx_grouped_quantiles(ev, "event_type", "value")


def q_approx_distinct_users(sf_dir: str):
    """HyperLogLog approximate distinct users per event_type (exchange
    carries 4KB register arrays, never keys)."""
    from ..stages.sketch import approx_distinct

    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    return approx_distinct(ev, "user_id", "event_type")


def q_user_sessions(sf_dir: str):
    """Session windows per user (30-minute inactivity gap)."""
    from ..stages.windows import sessionize

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return sessionize(ev, "user_id")


SQL_USER_SESSIONS = """
WITH e AS (
  SELECT event_id, user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL 30 MINUTES
              THEN 1 ELSE 0 END AS new_sess
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT event_id, user_id,
       CAST(sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_num
FROM e
"""


def q_top_events_per_type(sf_dir: str):
    """Top-3 events by value per event_type (grouped top-k / row_number)."""
    from ..stages.windows import grouped_topk

    ev = _read(sf_dir, "events", ["event_type", "event_id", "value"])
    return grouped_topk(ev, "event_type", "value", "event_id", k=3)


SQL_TOP_EVENTS_PER_TYPE = """
SELECT event_type, event_id, value FROM (
  SELECT event_type, event_id, value,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY value DESC, event_id) AS rn
  FROM events
) WHERE rn <= 3
"""


# ===========================================================================
# training-data gates: Gopher-style repetition filter + exact-substring dedup
# ===========================================================================

def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition metrics + keep gate per document (Rae et al.
    2021 §A1.1, adapted to single-line web text)."""
    from ..stages.textstats import repetition_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(repetition_batch, batch_format="pandas").select_columns(
        [
            "doc_id",
            "total_words",
            "distinct_word_ratio",
            "top_word_frac",
            "top_bigram_frac",
            "keep",
        ]
    )


SQL_DOC_REPETITION = r"""
WITH t AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
),
u AS (SELECT doc_id, unnest(ws) AS w FROM t),
c AS (SELECT doc_id, w, count(*) AS n FROM u GROUP BY 1, 2),
s AS (SELECT doc_id, sum(n) AS total, max(n) AS top_n, count(*) AS dw
      FROM c GROUP BY 1),
bg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(ws)),
                               i -> ws[i] || ' ' || ws[i + 1])) AS g
  FROM t WHERE len(ws) >= 2
),
cb AS (SELECT doc_id, g, count(*) AS n FROM bg GROUP BY 1, 2),
sb AS (SELECT doc_id, max(n) AS btop, sum(n) AS btotal FROM cb GROUP BY 1)
SELECT t.doc_id,
       coalesce(s.total, 0)::BIGINT AS total_words,
       CASE WHEN coalesce(s.total, 0) > 0
            THEN round(s.dw / s.total::DOUBLE, 4) ELSE 0.0 END AS distinct_word_ratio,
       CASE WHEN coalesce(s.total, 0) > 0
            THEN round(s.top_n / s.total::DOUBLE, 4) ELSE 0.0 END AS top_word_frac,
       CASE WHEN coalesce(sb.btotal, 0) > 0
            THEN round(sb.btop / sb.btotal::DOUBLE, 4) ELSE 0.0 END AS top_bigram_frac,
       (CASE WHEN coalesce(s.total, 0) > 0
             THEN round(s.dw / s.total::DOUBLE, 4) ELSE 0.0 END) >= 0.2
       AND (CASE WHEN coalesce(s.total, 0) > 0
                 THEN round(s.top_n / s.total::DOUBLE, 4) ELSE 0.0 END) <= 0.2
       AND (CASE WHEN coalesce(sb.btotal, 0) > 0
                 THEN round(sb.btop / sb.btotal::DOUBLE, 4) ELSE 0.0 END) <= 0.15
           AS keep
FROM t
LEFT JOIN s USING (doc_id)
LEFT JOIN sb USING (doc_id)
"""


def q_substring_dedup(sf_dir: str):
    """Exact-substring duplicate pairs: docs sharing >= 1 exact 40-char
    window (stride 10), with distinct shared-window counts (Lee et al. 2021
    exact-substring dedup family)."""
    from ..stages.dedup import substring_dedup_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return substring_dedup_pairs(docs, window=40, stride=10)


SQL_SUBSTRING_DEDUP = r"""
WITH w AS (
  SELECT DISTINCT doc_id, substr(text, o, 40) AS win
  FROM documents,
       LATERAL (SELECT unnest(generate_series(1, len(text) - 39, 10)) AS o) AS offs
  WHERE len(text) >= 40
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       count(DISTINCT a.win)::BIGINT AS shared_windows
FROM w a JOIN w b ON a.win = b.win AND a.doc_id < b.doc_id
GROUP BY 1, 2
"""


# ===========================================================================
# training-data curation: decontamination, incremental dedup, source mixing,
# DSIR importance scores (stages/curation.py)
# ===========================================================================

def q_doc_decontaminate(sf_dir: str):
    """Benchmark n-gram decontamination (GPT-3 appendix-C style): flag
    training docs sharing a distinct word 5-gram with the benchmark slice
    (doc_id % 50 == 0 — deterministic stand-in for a fixed eval suite)."""
    from ..stages.curation import decontaminate

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return decontaminate(docs, n=5, bench_mod=50)


SQL_DOC_DECONTAMINATE = r"""
WITH t AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
),
g AS (
  SELECT DISTINCT doc_id,
         unnest(list_transform(range(1, len(ws) - 3),
                i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' ||
                     ws[i+3] || ' ' || ws[i+4])) AS gram
  FROM t WHERE len(ws) >= 5
),
bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % 50 = 0),
ov AS (
  SELECT tr.doc_id, count(*) AS n_ngrams, count(b.gram) AS overlap_ngrams
  FROM (SELECT * FROM g WHERE doc_id % 50 <> 0) tr
  LEFT JOIN bench b ON tr.gram = b.gram
  GROUP BY 1
)
SELECT d.doc_id,
       coalesce(ov.n_ngrams, 0)::BIGINT AS n_ngrams,
       coalesce(ov.overlap_ngrams, 0)::BIGINT AS overlap_ngrams,
       coalesce(ov.overlap_ngrams, 0) > 0 AS contaminated
FROM documents d LEFT JOIN ov ON d.doc_id = ov.doc_id
WHERE d.doc_id % 50 <> 0
"""


def q_doc_dedup_incremental(sf_dir: str):
    """Bloom-gated incremental dedup: the incoming slice (doc_id % 5 == 0)
    vs the prior corpus, md5 of the first-8-word content key, with a Bloom
    pre-filter so novel docs skip the verify shuffle."""
    from ..stages.curation import incremental_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return incremental_dedup(docs, new_mod=5, k_words=8)


SQL_DOC_DEDUP_INCREMENTAL = r"""
WITH k AS (
  SELECT doc_id,
         md5(array_to_string(
             list_filter(regexp_split_to_array(text, '\s+'),
                         x -> x <> '')[1:8], ' ')) AS key_md5
  FROM documents
),
prior AS (SELECT DISTINCT key_md5 FROM k WHERE doc_id % 5 <> 0),
newb AS (SELECT doc_id, key_md5 FROM k WHERE doc_id % 5 = 0)
SELECT n.doc_id, n.key_md5, (p.key_md5 IS NOT NULL) AS is_dup
FROM newb n LEFT JOIN prior p ON n.key_md5 = p.key_md5
"""


def q_source_mix_weights(sf_dir: str):
    """Sampling-temperature corpus mixing: per-source doc/word counts and
    alpha=0.5 temperature-scaled sampling weight."""
    from ..stages.curation import source_mix_weights

    docs = _read(sf_dir, "documents", ["source", "text"])
    return source_mix_weights(docs, alpha=0.5)


SQL_SOURCE_MIX_WEIGHTS = r"""
WITH s AS (
  SELECT source,
         CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(len(list_filter(regexp_split_to_array(text, '\s+'),
                                  x -> x <> ''))) AS BIGINT) AS total_words
  FROM documents GROUP BY 1
)
SELECT source, n_docs, total_words,
       round(total_words / (SELECT sum(total_words) FROM s), 6) AS raw_frac,
       round(pow(total_words, 0.5) /
             (SELECT sum(pow(total_words, 0.5)) FROM s), 6) AS weight
FROM s
"""


def q_corpus_curate(sf_dir: str):
    """Composed end-to-end curation decision: benchmark exclusion ->
    prefix-key dedup -> decontamination -> repetition gate, one pipeline,
    single exchange (the dedup groupby; flags ride along)."""
    from ..stages.curation import curate_corpus

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return curate_corpus(docs, n=5, bench_mod=50, k_words=8)


SQL_CORPUS_CURATE = r"""
WITH t AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
),
k AS (SELECT doc_id, md5(array_to_string(ws[1:8], ' ')) AS h FROM t),
keeper AS (SELECT h, min(doc_id) AS keeper FROM k GROUP BY 1),
g AS (
  SELECT DISTINCT doc_id,
         unnest(list_transform(range(1, len(ws) - 3),
                i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' ||
                     ws[i+3] || ' ' || ws[i+4])) AS gram
  FROM t WHERE len(ws) >= 5
),
bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % 50 = 0),
cont AS (SELECT DISTINCT g.doc_id FROM g JOIN bench b ON g.gram = b.gram),
u AS (SELECT doc_id, unnest(ws) AS w FROM t),
c AS (SELECT doc_id, w, count(*) AS n FROM u GROUP BY 1, 2),
s AS (SELECT doc_id, sum(n) AS total, max(n) AS top_n, count(*) AS dw
      FROM c GROUP BY 1),
bg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(ws)),
                               i -> ws[i] || ' ' || ws[i + 1])) AS gr
  FROM t WHERE len(ws) >= 2
),
cb AS (SELECT doc_id, gr, count(*) AS n FROM bg GROUP BY 1, 2),
sb AS (SELECT doc_id, max(n) AS btop, sum(n) AS btotal FROM cb GROUP BY 1),
rep AS (
  SELECT t.doc_id,
         (CASE WHEN coalesce(s.total, 0) > 0
               THEN round(s.dw / s.total::DOUBLE, 4) ELSE 0.0 END) >= 0.2
         AND (CASE WHEN coalesce(s.total, 0) > 0
                   THEN round(s.top_n / s.total::DOUBLE, 4) ELSE 0.0 END) <= 0.2
         AND (CASE WHEN coalesce(sb.btotal, 0) > 0
                   THEN round(sb.btop / sb.btotal::DOUBLE, 4) ELSE 0.0 END) <= 0.15
             AS keep
  FROM t LEFT JOIN s USING (doc_id) LEFT JOIN sb USING (doc_id)
),
r AS (
  SELECT k.doc_id,
         CASE WHEN k.doc_id % 50 = 0 THEN 'benchmark'
              WHEN k.doc_id <> kp.keeper THEN 'duplicate'
              WHEN c2.doc_id IS NOT NULL THEN 'contaminated'
              WHEN NOT rep.keep THEN 'repetition'
              ELSE 'kept' END AS reason
  FROM k
  JOIN keeper kp ON k.h = kp.h
  LEFT JOIN cont c2 ON k.doc_id = c2.doc_id
  JOIN rep ON k.doc_id = rep.doc_id
)
SELECT doc_id, (reason = 'kept') AS keep, reason FROM r
"""


def q_training_shards(sf_dir: str):
    """Curated-corpus export: kept docs written as 16-way md5-sharded
    Parquet under /tmp, manifest (shard, n_docs, total_words) computed from
    the written files — the resumable-output story, SQL-gated on the
    manifest values."""
    from ..stages.curation import training_shard_export

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out_dir = os.path.join(
        "/tmp/wllr_training_shards", os.path.basename(os.path.normpath(sf_dir))
    )
    return training_shard_export(docs, out_dir, n=5, bench_mod=50, k_words=8)


SQL_TRAINING_SHARDS = rf"""
WITH r AS ({SQL_CORPUS_CURATE}),
j AS (
  SELECT d.doc_id,
         substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 1) AS shard,
         len(list_filter(regexp_split_to_array(d.text, '\s+'),
                         x -> x <> '')) AS nw
  FROM documents d JOIN r ON d.doc_id = r.doc_id AND r.keep
)
SELECT shard, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(nw) AS BIGINT) AS total_words
FROM j GROUP BY 1
"""


def q_doc_dsir_score(sf_dir: str):
    """DSIR-style hashed-bigram importance log-ratios (target lang = 'en').
    SQL-oracled: the bucket hash is the first 4 hex chars of md5(gram) and
    the per-bucket log-weights are quantized to integer micro-units before
    the per-doc sum, so DuckDB reproduces the score bit-for-bit (see
    stages/curation.py:dsir_log_weights)."""
    from ..stages.curation import dsir_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return dsir_scores(docs, target_lang="en")


def q_doc_c4_filter(sf_dir: str):
    """C4 heuristic filter battery (Raffel et al. 2020 §2.2) at doc level:
    word-count band, mean-word-length band, brace/'lorem ipsum'/
    'javascript' markers -> keep_doc bit.  Pure streaming map_batches."""
    from ..stages.classify import c4_flags_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(c4_flags_batch, batch_format="pandas")


SQL_DOC_C4_FILTER = r"""
WITH t AS (
  SELECT doc_id, text,
         list_filter(string_split(text, ' '), w -> w <> '') AS ws
  FROM documents
),
m AS (
  SELECT doc_id,
         CAST(len(ws) AS BIGINT) AS n_words,
         round(CASE WHEN len(ws) = 0 THEN 0.0
               ELSE CAST(list_sum(list_transform(ws, w -> length(w))) AS DOUBLE)
                    / len(ws) END, 4) AS mean_word_len,
         CAST(CASE WHEN contains(lower(text), '{')
                     OR contains(lower(text), 'lorem ipsum')
                     OR contains(lower(text), 'javascript')
              THEN 1 ELSE 0 END AS BIGINT) AS has_marker
  FROM t
)
SELECT doc_id, n_words, mean_word_len, has_marker,
       CAST(CASE WHEN n_words BETWEEN 50 AND 100000
                  AND mean_word_len BETWEEN 3.0 AND 10.0
                  AND has_marker = 0 THEN 1 ELSE 0 END AS BIGINT) AS keep_doc
FROM m
"""


def q_doc_nb_langid(sf_dir: str):
    """Multinomial Naive Bayes language classifier trained ON the corpus
    itself (lang column = labels) over md5-bucketed hashed unigrams, then
    applied back to every doc — the fastText-style reference-corpus
    scorer of CCNet/LLaMA pipelines in sandbox form.  Training is one
    streaming pass of mergeable per-class bincount partials; the 2.6 MB
    micro-unit model broadcasts once.  Bit-for-bit SQL-oracled (same
    md5-prefix + integer micro-unit trick as DSIR)."""
    from ..stages.classify import nb_classify, nb_train

    langs = sorted(
        _read(sf_dir, "documents", ["lang"]).unique("lang")
    )
    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    priors_q, weights_q = nb_train(docs, langs)
    return nb_classify(docs, langs, priors_q, weights_q)


SQL_DOC_NB_LANGID = r"""
WITH cls AS (SELECT DISTINCT lang AS c FROM documents),
nd  AS (SELECT lang AS c, count(*) AS n FROM documents GROUP BY 1),
ndt AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
pri AS (SELECT nd.c,
               CAST(ROUND(1e6 * ln(nd.n * 1.0 / ndt.n)) AS BIGINT) AS pq
        FROM nd, ndt),
t AS (SELECT doc_id, lang,
             list_filter(string_split(text, ' '), w -> w <> '') AS ws
      FROM documents),
g AS (SELECT doc_id, lang,
        (strpos('0123456789abcdef', substr(hx, 1, 1)) - 1) * 4096
      + (strpos('0123456789abcdef', substr(hx, 2, 1)) - 1) * 256
      + (strpos('0123456789abcdef', substr(hx, 3, 1)) - 1) * 16
      + (strpos('0123456789abcdef', substr(hx, 4, 1)) - 1) AS bucket
      FROM (SELECT doc_id, lang, substr(md5(ws[CAST(i AS INTEGER)]), 1, 4) AS hx
            FROM t, LATERAL (SELECT unnest(range(1, len(ws) + 1)) AS i) AS r) q0),
tot AS (SELECT lang AS c, count(*) AS tc FROM g GROUP BY 1),
cnt AS (SELECT lang AS c, bucket, count(*) AS bc FROM g GROUP BY 1, 2),
w AS (SELECT cnt.c, cnt.bucket,
             CAST(ROUND(1e6 * ln((cnt.bc + 1.0) / (tot.tc + 65536.0)))
                  AS BIGINT) AS lwq
      FROM cnt JOIN tot USING (c)),
dflt AS (SELECT cls.c,
                CAST(ROUND(1e6 * ln(1.0 / (COALESCE(tot.tc, 0) + 65536.0)))
                     AS BIGINT) AS defq
         FROM cls LEFT JOIN tot ON cls.c = tot.c),
gs AS (SELECT g.doc_id, cls.c, sum(COALESCE(w.lwq, dflt.defq)) AS s
       FROM g CROSS JOIN cls
       JOIN dflt ON dflt.c = cls.c
       LEFT JOIN w ON w.c = cls.c AND w.bucket = g.bucket
       GROUP BY 1, 2),
sc AS (SELECT d.doc_id, d.lang, cls.c, pri.pq + COALESCE(gs.s, 0) AS score
       FROM documents d CROSS JOIN cls
       JOIN pri ON pri.c = cls.c
       LEFT JOIN gs ON gs.doc_id = d.doc_id AND gs.c = cls.c),
ranked AS (SELECT doc_id, lang, c, score,
                  row_number() OVER (PARTITION BY doc_id
                                     ORDER BY score DESC, c ASC) AS rn
           FROM sc)
SELECT r1.doc_id, r1.c AS pred_lang,
       ROUND((r1.score - r2.score) / 1e6, 4) AS margin,
       CAST(CASE WHEN r1.c = r1.lang THEN 1 ELSE 0 END AS BIGINT) AS is_correct
FROM ranked r1
JOIN ranked r2 ON r1.doc_id = r2.doc_id AND r2.rn = 2
WHERE r1.rn = 1
"""


SQL_DOC_DSIR_SCORE = r"""
WITH t AS (
  SELECT doc_id, lang, string_split(text, ' ') AS ws FROM documents
),
g AS (
  SELECT doc_id, lang,
         substr(md5(ws[CAST(i AS INTEGER)] || ' ' || ws[CAST(i AS INTEGER) + 1]),
                1, 4) AS hx
  FROM t, LATERAL (SELECT unnest(range(1, len(ws))) AS i) AS r
),
gb AS (
  SELECT doc_id, lang,
         (strpos('0123456789abcdef', substr(hx, 1, 1)) - 1) * 4096
       + (strpos('0123456789abcdef', substr(hx, 2, 1)) - 1) * 256
       + (strpos('0123456789abcdef', substr(hx, 3, 1)) - 1) * 16
       + (strpos('0123456789abcdef', substr(hx, 4, 1)) - 1) AS bucket
  FROM g
),
tot AS (
  SELECT count(*) AS r_tot,
         sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS t_tot
  FROM gb
),
cnt AS (
  SELECT bucket, count(*) AS rc,
         sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS tc
  FROM gb GROUP BY bucket
),
w AS (
  SELECT bucket,
         CAST(ROUND(1e6 * (ln((tc + 1.0) / (t_tot + 65536.0))
                         - ln((rc + 1.0) / (r_tot + 65536.0)))) AS BIGINT) AS lwq
  FROM cnt, tot
),
s AS (
  SELECT gb.doc_id, count(*) AS nb, sum(w.lwq) AS sq
  FROM gb JOIN w USING (bucket) GROUP BY gb.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(s.nb, 0) AS BIGINT) AS n_bigrams,
       ROUND(COALESCE(s.sq, 0) / 1e6, 4) AS dsir_logratio
FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
"""


# ---------------------------------------------------------------------------
# round 4 late additions: PII scrub / token-budget select / cluster reps
# ---------------------------------------------------------------------------


def q_doc_pii_scrub(sf_dir: str):
    """PII detection + redaction over the (deterministically PII-augmented)
    documents table — counts per class + md5 of the redacted text."""
    from ..stages.curation import pii_scrub

    return pii_scrub(_read(sf_dir, "documents", ["doc_id", "text"]))


# The augmented view mirrors stages/curation.pii_augment_frame exactly;
# patterns mirror PII_EMAIL / PII_PHONE / PII_IP (ASCII-safe in both
# Python re and DuckDB RE2).
SQL_DOC_PII_SCRUB = r"""
WITH aug AS (
  SELECT doc_id,
         COALESCE(text, '')
         || CASE WHEN doc_id % 3 = 0
                 THEN ' contact user' || doc_id || '@example.com' ELSE '' END
         || CASE WHEN doc_id % 5 = 0
                 THEN ' call +64-' || lpad(CAST(doc_id % 1000 AS VARCHAR), 3, '0')
                      || '-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                 ELSE '' END
         || CASE WHEN doc_id % 7 = 0
                 THEN ' host 10.' || (doc_id % 256) || '.0.' || (doc_id % 100)
                 ELSE '' END AS t
  FROM documents
)
SELECT doc_id,
       CAST(len(regexp_extract_all(t, '[A-Za-z0-9._]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT) AS n_emails,
       CAST(len(regexp_extract_all(t, '\+\d{2}-\d{3}-\d{4}')) AS BIGINT) AS n_phones,
       CAST(len(regexp_extract_all(t, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS BIGINT) AS n_ips,
       md5(regexp_replace(regexp_replace(regexp_replace(t,
             '[A-Za-z0-9._]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
             '\+\d{2}-\d{3}-\d{4}', '<PHONE>', 'g'),
             '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g')) AS clean_md5
FROM aug
"""


def q_token_budget_select(sf_dir: str):
    """Fill a 20k-token training budget from the top of the n_chars
    ranking (desc, doc_id asc tie-break) — histogram-threshold two-pass,
    no global sort."""
    from ..stages.curation import token_budget_select

    return token_budget_select(
        _read(sf_dir, "documents", ["doc_id", "text", "n_chars"]), budget=20_000
    )


SQL_TOKEN_BUDGET_SELECT = r"""
WITH t AS (
  SELECT doc_id, n_chars,
         CAST(len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS BIGINT) AS n_tokens
  FROM documents
),
w AS (
  SELECT doc_id, n_chars, n_tokens,
         SUM(n_tokens) OVER (ORDER BY n_chars DESC, doc_id
                             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS cum
  FROM t
)
SELECT doc_id, n_chars, n_tokens, CAST(cum AS BIGINT) AS cum_tokens
FROM w WHERE cum <= 20000
"""


def q_cluster_representatives(sf_dir: str):
    """Keep-best-copy per content-key cluster (first-8-words key, max
    n_chars wins, ties to the smallest doc_id)."""
    from ..stages.curation import cluster_representatives

    return cluster_representatives(_read(sf_dir, "documents", ["doc_id", "text", "n_chars"]))


SQL_CLUSTER_REPRESENTATIVES = r"""
WITH k AS (
  SELECT doc_id, n_chars,
         array_to_string(list_slice(
             list_filter(regexp_split_to_array(COALESCE(text, ''), '\s+'), x -> x <> ''),
             1, 8), ' ') AS ckey
  FROM documents
),
r AS (
  SELECT ckey, doc_id, n_chars,
         row_number() OVER (PARTITION BY ckey ORDER BY n_chars DESC, doc_id) AS rn,
         count(*) OVER (PARTITION BY ckey) AS cs
  FROM k
)
SELECT ckey, doc_id AS rep_doc_id, n_chars AS rep_n_chars,
       CAST(cs AS BIGINT) AS cluster_size
FROM r WHERE rn = 1
"""


def q_source_mix_sample(sf_dir: str):
    """Deterministic temperature-mixed resampling of the corpus at the
    alpha=0.5 weights (rate 0.5) — integer micro-unit weight quantization
    makes the cross-source sum order-exact, md5-bucket Bernoulli draws make
    the sample reproducible in SQL."""
    from ..stages.curation import source_mix_sample

    return source_mix_sample(
        _read(sf_dir, "documents", ["doc_id", "text", "source"]), alpha=0.5, rate=0.5
    )


SQL_SOURCE_MIX_SAMPLE = r"""
WITH s AS (
  SELECT source,
         CAST(sum(len(list_filter(regexp_split_to_array(text, '\s+'),
                                  x -> x <> ''))) AS BIGINT) AS words
  FROM documents GROUP BY 1
), g AS (
  SELECT source, words,
         CAST(floor(sqrt(CAST(words AS DOUBLE)) * 1000000) AS BIGINT) AS pwi,
         SUM(CAST(floor(sqrt(CAST(words AS DOUBLE)) * 1000000) AS BIGINT)) OVER () AS s_total,
         SUM(words) OVER () AS total
  FROM s
), t AS (
  SELECT source,
         CASE WHEN words = 0 OR s_total = 0 THEN 0
              ELSE CAST(floor(LEAST(1.0,
                     (CAST(pwi AS DOUBLE) / CAST(s_total AS DOUBLE))
                     * (0.5 * CAST(total AS DOUBLE)) / CAST(words AS DOUBLE))
                   * 1000000) AS BIGINT)
         END AS thr
  FROM g
), h AS (
  SELECT doc_id, source, substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS hx
  FROM documents
), b AS (
  SELECT doc_id, source,
         CAST(list_sum(list_transform(range(1, 9),
             i -> (strpos('0123456789abcdef', substr(hx, CAST(i AS INTEGER), 1)) - 1)
                  * power(16, 8 - i))) AS BIGINT) % 1000000 AS bucket
  FROM h
)
SELECT b.doc_id, b.source, b.bucket
FROM b JOIN t USING (source) WHERE b.bucket < t.thr
"""


def q_source_cap_sample(sf_dir: str):
    """Per-source cap downsampling (<= 50 docs per source by md5 rank) —
    the domain-balancing step; top-N-per-key is an argmin combiner so the
    exchange carries only candidate partials."""
    from ..stages.curation import source_cap_sample

    return source_cap_sample(_read(sf_dir, "documents", ["doc_id", "source"]), cap=50)


SQL_SOURCE_CAP_SAMPLE = r"""
WITH h AS (
  SELECT source, doc_id, md5(CAST(doc_id AS VARCHAR)) AS hx FROM documents
), r AS (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY source ORDER BY hx, doc_id) AS rk
  FROM h
)
SELECT source, doc_id, CAST(rk AS BIGINT) AS rk FROM r WHERE rk <= 50
"""


def q_orders_rollup(sf_dir: str):
    """GROUP BY ROLLUP(o_orderpriority, o_orderstatus) with subtotal and
    grand-total rows — the OLAP rollup Ray Data lacks natively.  Scale
    shape: ONE combiner pass at the finest grain (the exchange carries one
    row per (priority, status) per batch); the coarser levels are derived
    from that tiny result on the driver — never a second scan.  Prices are
    summed as exact integer cents so the distributed sum is order-exact;
    rolled-up levels use the 'ALL' sentinel (the dims are never NULL)."""

    def cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderpriority": b["o_orderpriority"].to_numpy(object),
                "o_orderstatus": b["o_orderstatus"].to_numpy(object),
                "cents": np.round(b["o_totalprice"].to_numpy(np.float64) * 100).astype(
                    np.int64
                ),
            }
        )

    fine = _combiner_agg(
        _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus", "o_totalprice"])
        .map_batches(cents, batch_format="pandas"),
        ["o_orderpriority", "o_orderstatus"],
        [("n_orders", None, "count"), ("c", "cents", "sum")],
    )

    def level(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
        if keys:
            g = df.groupby(keys, as_index=False).agg(
                n_orders=("n_orders", "sum"), c=("c", "sum")
            )
        else:
            g = pd.DataFrame(
                {"n_orders": [int(df["n_orders"].sum())], "c": [int(df["c"].sum())]}
            )
        for col in ("o_orderpriority", "o_orderstatus"):
            if col not in g.columns:
                g[col] = "ALL"
        return g[["o_orderpriority", "o_orderstatus", "n_orders", "c"]]

    out = pd.concat(
        [
            level(fine, ["o_orderpriority", "o_orderstatus"]),
            level(fine, ["o_orderpriority"]),
            level(fine, []),
        ],
        ignore_index=True,
    )
    out["total_price"] = round_half_away(out.pop("c").astype(np.float64) / 100.0, 2)
    out["n_orders"] = out["n_orders"].astype(np.int64)
    return out


SQL_ORDERS_ROLLUP = """
SELECT COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
       COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       round(CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS DOUBLE) / 100.0, 2)
         AS total_price
FROM orders
GROUP BY ROLLUP(o_orderpriority, o_orderstatus)
"""


def q_lineitem_corr(sf_dir: str):
    """Grouped Pearson correlation + covariance (price vs quantity per
    return flag) from EXACT integer moment sums: x/y are floored to whole
    dollars/units so Sx/Sy/Sxy/Sxx/Syy are order-exact int64 partials on
    the combiner exchange; the final float formula runs over identical
    integer inputs on both sides (one IEEE op sequence — deterministic)."""

    def mom(b: pd.DataFrame) -> pd.DataFrame:
        x = np.floor(b["l_extendedprice"].to_numpy(np.float64)).astype(np.int64)
        y = np.floor(b["l_quantity"].to_numpy(np.float64)).astype(np.int64)
        return pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"].to_numpy(object),
                "x": x,
                "y": y,
                "xy": x * y,
                "xx": x * x,
                "yy": y * y,
            }
        )

    s = _combiner_agg(
        _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"])
        .map_batches(mom, batch_format="pandas"),
        ["l_returnflag"],
        [
            ("n_rows", None, "count"),
            ("sx", "x", "sum"),
            ("sy", "y", "sum"),
            ("sxy", "xy", "sum"),
            ("sxx", "xx", "sum"),
            ("syy", "yy", "sum"),
        ],
    )
    n = s["n_rows"].to_numpy(np.float64)
    sx = s["sx"].to_numpy(np.float64)
    sy = s["sy"].to_numpy(np.float64)
    sxy = s["sxy"].to_numpy(np.float64)
    sxx = s["sxx"].to_numpy(np.float64)
    syy = s["syy"].to_numpy(np.float64)
    num = n * sxy - sx * sy
    return pd.DataFrame(
        {
            "l_returnflag": s["l_returnflag"],
            "n_rows": s["n_rows"].astype(np.int64),
            "cov_price_qty": round_half_away(num / (n * n), 6),
            "corr_price_qty": round_half_away(
                num / np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)), 6
            ),
        }
    )


SQL_LINEITEM_CORR = """
WITH t AS (
  SELECT l_returnflag,
         CAST(floor(l_extendedprice) AS BIGINT) AS x,
         CAST(floor(l_quantity) AS BIGINT) AS y
  FROM lineitem
), s AS (
  SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n_rows,
         sum(x) AS sx, sum(y) AS sy, sum(x * y) AS sxy,
         sum(x * x) AS sxx, sum(y * y) AS syy
  FROM t GROUP BY 1
)
SELECT l_returnflag, n_rows,
       round((CAST(n_rows AS DOUBLE) * CAST(sxy AS DOUBLE)
              - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
             / (CAST(n_rows AS DOUBLE) * CAST(n_rows AS DOUBLE)), 6) AS cov_price_qty,
       round((CAST(n_rows AS DOUBLE) * CAST(sxy AS DOUBLE)
              - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
             / sqrt((CAST(n_rows AS DOUBLE) * CAST(sxx AS DOUBLE)
                     - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                    * (CAST(n_rows AS DOUBLE) * CAST(syy AS DOUBLE)
                       - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE))), 6) AS corr_price_qty
FROM s
"""


def q_user_customer_outer(sf_dir: str):
    """FULL OUTER equi-join through the generic tagged-union partition
    join (stages/join.py hash_join, how='outer': each key's rows from
    BOTH sides land in one partition, so the per-partition pandas outer
    merge is globally correct).  Per-user event counts vs the customer
    dim restricted to EVEN c_custkey, making all three row classes
    non-degenerate at every SF: left-only (odd users), matched (even
    users), right-only (even custkeys beyond the user range).
    NaN-widened columns are coalesced back exactly as the SQL oracle
    does."""
    from ..stages.agg import combiner_agg
    from ..stages.join import hash_join

    per_user = combiner_agg(
        _read(sf_dir, "events", ["user_id"]),
        ["user_id"],
        [("n_events", None, "count")],
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]).map_batches(
        lambda b: b[b["c_custkey"] % 2 == 0], batch_format="pandas"
    )
    j = hash_join(
        per_user, cust, left_key="user_id", right_key="c_custkey", how="outer"
    ).to_pandas()
    ukey = j["user_id"].where(j["user_id"].notna(), j["c_custkey"])
    out = pd.DataFrame(
        {
            "ukey": ukey.to_numpy(np.float64).astype(np.int64),
            "n_events": j["n_events"].fillna(0).to_numpy(np.float64).astype(np.int64),
            "has_customer": j["c_custkey"].notna().to_numpy(),
            "acctbal": round_half_away(
                j["c_acctbal"].fillna(0.0).to_numpy(np.float64), 2
            ),
        }
    )
    return out.sort_values("ukey", kind="mergesort").reset_index(drop=True)


SQL_USER_CUSTOMER_OUTER = """
WITH u AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n_events FROM events GROUP BY 1
), c AS (
  SELECT c_custkey, c_acctbal FROM customer WHERE c_custkey % 2 = 0
)
SELECT CAST(COALESCE(u.user_id, c.c_custkey) AS BIGINT) AS ukey,
       CAST(COALESCE(u.n_events, 0) AS BIGINT) AS n_events,
       c.c_custkey IS NOT NULL AS has_customer,
       round(COALESCE(c.c_acctbal, 0), 2) AS acctbal
FROM u FULL OUTER JOIN c ON u.user_id = c.c_custkey
"""


def q_event_funnel(sf_dir: str):
    """Conversion funnel view -> click -> purchase per user (ordered,
    strictly-later chaining) through stages/windows.py:event_funnel — one
    key-hash exchange, vectorized min-timestamp chaining per partition."""
    from ..stages.windows import event_funnel

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    out = (
        event_funnel(ev, ["view", "click", "purchase"])
        .to_pandas()
        .sort_values("user_id", kind="mergesort")
        .reset_index(drop=True)
    )
    out["user_id"] = out["user_id"].astype(np.int64)
    return out


SQL_EVENT_FUNNEL = """
WITH s1 AS (
  SELECT user_id, min(ts) AS t1 FROM events WHERE event_type = 'view' GROUP BY 1
), s2 AS (
  SELECT e.user_id, min(e.ts) AS t2
  FROM events e JOIN s1 ON e.user_id = s1.user_id
  WHERE e.event_type = 'click' AND e.ts > s1.t1 GROUP BY 1
), s3 AS (
  SELECT e.user_id, min(e.ts) AS t3
  FROM events e JOIN s2 ON e.user_id = s2.user_id
  WHERE e.event_type = 'purchase' AND e.ts > s2.t2 GROUP BY 1
), u AS (
  SELECT DISTINCT user_id FROM events
)
SELECT u.user_id,
       CAST(CASE WHEN s3.user_id IS NOT NULL THEN 3
                 WHEN s2.user_id IS NOT NULL THEN 2
                 WHEN s1.user_id IS NOT NULL THEN 1
                 ELSE 0 END AS BIGINT) AS steps_completed
FROM u
LEFT JOIN s1 ON u.user_id = s1.user_id
LEFT JOIN s2 ON u.user_id = s2.user_id
LEFT JOIN s3 ON u.user_id = s3.user_id
"""


def q_user_retention(sf_dir: str):
    """Cohort retention matrix — users bucketed by first-activity week
    (the cohort), counted in each later activity week as an offset.  The
    product-analytics staple, composed from this engine's primitives:
    per-(user, week) distinct via the partition pattern, cohort = combiner
    min per user, one user-keyed partition join to attach cohorts, then a
    tiny (cohort, offset) count combiner.  Three bounded exchanges; the
    raw event stream is deduplicated to user-weeks before anything joins."""
    from ..stages.agg import combiner_agg
    from ..stages.join import hash_join

    WK = 604_800_000_000  # microseconds per week

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def weeks(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        f = pd.DataFrame(
            {"user_id": b["user_id"].to_numpy(np.int64), "wk": us // WK}
        ).drop_duplicates()
        f["__p"] = (
            pd.util.hash_array(f["user_id"].to_numpy()) % np.uint64(32)
        ).astype(np.int64)
        return f

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["user_id", "wk"])[["user_id", "wk"]]

    uw = (
        ev.map_batches(weeks, batch_format="pandas")
        .groupby("__p")
        .map_groups(dedup, batch_format="pandas")
        .materialize()
    )
    firsts = combiner_agg(uw, ["user_id"], [("cohort", "wk", "min")])
    joined = hash_join(uw, firsts, left_key="user_id")

    def offs(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "cohort_week": b["cohort"].to_numpy(np.int64),
                "week_offset": (b["wk"] - b["cohort"]).to_numpy(np.int64),
            }
        )

    out = (
        combiner_agg(
            joined.map_batches(offs, batch_format="pandas"),
            ["cohort_week", "week_offset"],
            [("n_users", None, "count")],
        )
        .to_pandas()
        .sort_values(["cohort_week", "week_offset"], kind="mergesort")
        .reset_index(drop=True)
    )
    return out.astype(
        {"cohort_week": "int64", "week_offset": "int64", "n_users": "int64"}
    )


SQL_USER_RETENTION = """
WITH w AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 604800000000 AS wk FROM events
), f AS (
  SELECT user_id, min(wk) AS cohort FROM w GROUP BY 1
)
SELECT CAST(f.cohort AS BIGINT) AS cohort_week,
       CAST(w.wk - f.cohort AS BIGINT) AS week_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM w JOIN f ON w.user_id = f.user_id
GROUP BY 1, 2
"""


def q_table_expectations(sf_dir: str):
    """Deequ-style data-quality gate: referential integrity (partition
    anti-joins), PK uniqueness (combiner dup counts) and streaming
    predicate checks, one row per check (stages/profile.py)."""
    from ..stages.profile import expectation_checks

    return expectation_checks(lambda t, cols: _read(sf_dir, t, cols))


SQL_TABLE_EXPECTATIONS = """
WITH c AS (
  SELECT 'fk_orders_customer' AS check_name, CAST(count(*) AS BIGINT) AS violations
  FROM orders o WHERE o.o_custkey NOT IN (SELECT c_custkey FROM customer)
  UNION ALL
  SELECT 'fk_lineitem_orders', CAST(count(*) AS BIGINT)
  FROM lineitem l WHERE l.l_orderkey NOT IN (SELECT o_orderkey FROM orders)
  UNION ALL
  SELECT 'pk_unique_orders', CAST(COALESCE(sum(n - 1), 0) AS BIGINT)
  FROM (SELECT o_orderkey, count(*) AS n FROM orders GROUP BY 1 HAVING count(*) > 1)
  UNION ALL
  SELECT 'nonneg_events_value', CAST(count(*) AS BIGINT)
  FROM events WHERE value < 0
  UNION ALL
  SELECT 'null_events_props', CAST(count(*) AS BIGINT)
  FROM events WHERE props IS NULL OR props = ''
)
SELECT check_name, violations, violations = 0 AS passed FROM c ORDER BY check_name
"""


def q_snapshot_diff(sf_dir: str):
    """Change-data-capture diff between two deterministic snapshots of
    the orders table (stages/cdc.py snapshot_diff — ONE tagged-union
    key-hash exchange; unchanged rows die inside their partition, so on
    a 100 TB table with 1% daily churn the exchange emits ~1% of its
    input).  OLD = orders minus keys ≡7 (mod 10), with totalprice
    perturbed on keys ≡0 (mod 5) and status rewritten on keys ≡0
    (mod 17); NEW = orders minus keys ≡3 (mod 13).  Output: one row per
    added / removed / changed key with both sides' compared values
    (absent side coalesced to ''/-1 exactly as the SQL oracle does)."""
    from ..stages.cdc import snapshot_diff

    base = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_totalprice"])

    def make_old(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["o_orderkey"] % 10 != 7].copy()
        k = b["o_orderkey"].to_numpy(np.int64)
        price = b["o_totalprice"].to_numpy(np.float64).copy()
        price[k % 5 == 0] += 1.5
        status = b["o_orderstatus"].to_numpy(object).copy()
        status[k % 17 == 0] = "X"
        return pd.DataFrame(
            {"o_orderkey": k, "o_orderstatus": status, "o_totalprice": price}
        )

    old = base.map_batches(make_old, batch_format="pandas")
    new = base.map_batches(
        lambda b: b[b["o_orderkey"] % 13 != 3], batch_format="pandas"
    )
    out = snapshot_diff(
        old, new, "o_orderkey", ["o_orderstatus", "o_totalprice"]
    ).to_pandas()
    for c in ("old_o_orderstatus", "new_o_orderstatus"):
        out[c] = out[c].fillna("")
    for c in ("old_o_totalprice", "new_o_totalprice"):
        out[c] = round_half_away(out[c].fillna(-1.0).to_numpy(np.float64), 2)
    out["o_orderkey"] = out["o_orderkey"].astype(np.int64)
    return out.sort_values("o_orderkey", kind="mergesort").reset_index(drop=True)


SQL_SNAPSHOT_DIFF = """
WITH old AS (
  SELECT o_orderkey,
         CASE WHEN o_orderkey % 17 = 0 THEN 'X' ELSE o_orderstatus END AS o_orderstatus,
         o_totalprice + CASE WHEN o_orderkey % 5 = 0 THEN 1.5 ELSE 0 END AS o_totalprice
  FROM orders WHERE o_orderkey % 10 <> 7
), new AS (
  SELECT o_orderkey, o_orderstatus, o_totalprice
  FROM orders WHERE o_orderkey % 13 <> 3
)
SELECT CAST(COALESCE(old.o_orderkey, new.o_orderkey) AS BIGINT) AS o_orderkey,
       CASE WHEN old.o_orderkey IS NULL THEN 'added'
            WHEN new.o_orderkey IS NULL THEN 'removed'
            ELSE 'changed' END AS change,
       COALESCE(old.o_orderstatus, '') AS old_o_orderstatus,
       COALESCE(new.o_orderstatus, '') AS new_o_orderstatus,
       round(COALESCE(old.o_totalprice, -1), 2) AS old_o_totalprice,
       round(COALESCE(new.o_totalprice, -1), 2) AS new_o_totalprice
FROM old FULL OUTER JOIN new ON old.o_orderkey = new.o_orderkey
WHERE old.o_orderkey IS NULL OR new.o_orderkey IS NULL
   OR old.o_orderstatus IS DISTINCT FROM new.o_orderstatus
   OR old.o_totalprice IS DISTINCT FROM new.o_totalprice
"""


def q_doc_token_entropy(sf_dir: str):
    """Per-doc Shannon entropy of the whitespace-token unigram
    distribution (stages/textstats.py:token_entropy_batch — the
    gibberish / boilerplate detector next to the Gopher repetition
    signals).  Embarrassingly parallel: one exploded value_counts and a
    grouped -(p·ln p) fold per batch, zero exchanges."""
    from ..stages.textstats import token_entropy_batch

    out = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(token_entropy_batch, batch_format="pandas")
        .to_pandas()
    )
    out["entropy"] = round_half_away(out["entropy"].to_numpy(np.float64), 4)
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


SQL_DOC_TOKEN_ENTROPY = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents
), cnt AS (
  SELECT doc_id, w, count(*) AS c FROM tok WHERE w <> '' GROUP BY 1, 2
), tot AS (
  SELECT doc_id, sum(c) AS n FROM cnt GROUP BY 1
), ent AS (
  SELECT cnt.doc_id,
         round(sum(-(c / n) * ln(c / n)), 4) AS entropy,
         CAST(tot.n AS BIGINT) AS n_tokens
  FROM cnt JOIN tot USING (doc_id) GROUP BY cnt.doc_id, tot.n
)
SELECT d.doc_id,
       COALESCE(ent.entropy, 0.0) AS entropy,
       COALESCE(ent.n_tokens, 0) AS n_tokens
FROM documents d LEFT JOIN ent ON d.doc_id = ent.doc_id
"""


def q_doc_skyline(sf_dir: str):
    """Pareto frontier of documents maximizing (n_chars, lexical
    diversity) — multi-criteria data selection via the distributed
    skyline (stages/skyline.py: per-block local skyline kills dominated
    rows BEFORE the exchange; frontiers are tiny so the exact merge is
    driver-cheap, with a loud candidate cap)."""
    from ..stages.skyline import skyline

    def with_dims(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].str.split(" ").to_numpy(object)
        lens = np.fromiter((len(t) for t in toks), np.int64, len(toks))
        doc = np.repeat(np.arange(len(b), dtype=np.int64), lens)
        flat = pd.DataFrame(
            {"i": doc, "w": np.concatenate([np.asarray(t, object) for t in toks])}
        )
        flat = flat[flat["w"] != ""]
        g = flat.groupby("i", sort=False)["w"]
        nuniq = np.zeros(len(b), np.float64)
        ntot = np.zeros(len(b), np.float64)
        nuniq[g.nunique().index.to_numpy()] = g.nunique().to_numpy(np.float64)
        ntot[g.size().index.to_numpy()] = g.size().to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            div = np.where(ntot > 0, nuniq / ntot, 0.0)
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "n_chars": b["n_chars"].to_numpy(np.int64),
                "lex_div": div,
            }
        )

    dims = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"]).map_batches(
        with_dims, batch_format="pandas"
    )
    out = skyline(dims, dims=["n_chars", "lex_div"], keep_cols=["doc_id"])
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["n_chars"] = out["n_chars"].astype(np.int64)
    out["lex_div"] = round_half_away(out["lex_div"].to_numpy(np.float64), 6)
    return out.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


SQL_DOC_SKYLINE = """
WITH m AS (
  SELECT doc_id, n_chars,
         CASE WHEN len(list_filter(string_split(text, ' '), x -> x <> '')) = 0
              THEN 0.0
              ELSE CAST(len(list_distinct(list_filter(string_split(text, ' '),
                        x -> x <> ''))) AS DOUBLE)
                   / len(list_filter(string_split(text, ' '), x -> x <> ''))
         END AS lex_div
  FROM documents
)
SELECT doc_id, n_chars, round(lex_div, 6) AS lex_div
FROM m a
WHERE NOT EXISTS (
  SELECT 1 FROM m b
  WHERE b.n_chars >= a.n_chars AND b.lex_div >= a.lex_div
    AND (b.n_chars > a.n_chars OR b.lex_div > a.lex_div)
)
"""


def q_event_type_user_overlap(sf_dir: str):
    """Audience-overlap matrix: for every pair of event types, how many
    distinct users did BOTH — the set-intersection (INTERSECT) primitive
    behind funnel sizing and feature co-usage.  Plan: dedup to distinct
    (user, type) inside user-hash partitions, expand each user's type
    set to pairs with a per-partition self-merge (bounded: a user has at
    most |types| rows), then a tiny (type_a, type_b) count combiner.
    Two bounded exchanges, nothing quadratic in users."""
    from ..stages.agg import combiner_agg

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def dedup_local(b: pd.DataFrame) -> pd.DataFrame:
        f = b.drop_duplicates()
        f = f.copy()
        f["__p"] = (
            pd.util.hash_array(f["user_id"].to_numpy()) % np.uint64(32)
        ).astype(np.int64)
        return f

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        f = g.drop_duplicates(["user_id", "event_type"])[["user_id", "event_type"]]
        m = f.merge(f, on="user_id", suffixes=("_a", "_b"))
        m = m[m["event_type_a"] < m["event_type_b"]]
        return m[["event_type_a", "event_type_b"]].rename(
            columns={"event_type_a": "type_a", "event_type_b": "type_b"}
        )

    pair_rows = (
        ev.map_batches(dedup_local, batch_format="pandas")
        .groupby("__p")
        .map_groups(pairs, batch_format="pandas")
    )
    out = (
        combiner_agg(pair_rows, ["type_a", "type_b"], [("n_users", None, "count")])
        .to_pandas()
        .sort_values(["type_a", "type_b"], kind="mergesort")
        .reset_index(drop=True)
    )
    out["n_users"] = out["n_users"].astype(np.int64)
    return out


SQL_EVENT_TYPE_USER_OVERLAP = """
WITH du AS (SELECT DISTINCT event_type, user_id FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(count(*) AS BIGINT) AS n_users
FROM du a JOIN du b ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2
"""


def q_name_fuzzy_pairs(sf_dir: str):
    """Edit-distance-1 self-join over distinct customer names — fuzzy
    entity matching through the deletion-neighborhood (FastSS/SymSpell)
    exchange in stages/fuzzy.py.  The naive blocking (length + prefix)
    degenerates to ONE O(N^2) block on ID-like names; deletion keys keep
    every partition tiny and move each value only O(len) times.  The SQL
    oracle is the exact unblocked quadratic levenshtein join."""
    from ..stages.fuzzy import fuzzy_pairs_lev1

    cust = _read(sf_dir, "customer", ["c_name"])
    out = (
        fuzzy_pairs_lev1(cust, "c_name", out_cols=("name_a", "name_b"))
        .to_pandas()
        .sort_values(["name_a", "name_b"], kind="mergesort")
        .reset_index(drop=True)
    )
    return out


SQL_NAME_FUZZY_PAIRS = """
WITH w AS (SELECT DISTINCT c_name AS w FROM customer)
SELECT a.w AS name_a, b.w AS name_b
FROM w a JOIN w b ON a.w < b.w AND levenshtein(a.w, b.w) = 1
"""


def q_changelog_apply(sf_dir: str):
    """MERGE INTO / SCD-1 upsert: apply a deterministic CDC changelog
    (upserts re-pricing keys ≡1 mod 7, inserts of fresh negative keys
    for keys ≡0 mod 19, deletes of keys ≡2 mod 11 not already upserted)
    to the orders base through stages/cdc.py:changelog_apply — ONE
    tagged-union key-hash exchange, changelog-wins first-dedup per
    partition, deletes dropped in place.  The inverse operator of
    snapshot_diff."""
    from ..stages.cdc import changelog_apply

    base = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_totalprice"])

    def make_changes(b: pd.DataFrame) -> pd.DataFrame:
        k = b["o_orderkey"].to_numpy(np.int64)
        price = b["o_totalprice"].to_numpy(np.float64)
        up = k % 7 == 1
        ins = k % 19 == 0
        dele = (k % 11 == 2) & ~up
        return pd.DataFrame(
            {
                "o_orderkey": np.concatenate([k[up], -k[ins] - 1, k[dele]]),
                "o_orderstatus": np.concatenate(
                    [
                        np.full(up.sum(), "U", dtype=object),
                        np.full(ins.sum(), "N", dtype=object),
                        b["o_orderstatus"].to_numpy(object)[dele],
                    ]
                ),
                "o_totalprice": np.concatenate(
                    [
                        round_half_away(price[up] * 1.1, 2),
                        np.full(ins.sum(), 1000.0),
                        price[dele],
                    ]
                ),
                "op": np.concatenate(
                    [
                        np.full(up.sum(), "upsert", dtype=object),
                        np.full(ins.sum(), "upsert", dtype=object),
                        np.full(dele.sum(), "delete", dtype=object),
                    ]
                ),
            }
        )

    changes = base.map_batches(make_changes, batch_format="pandas")
    out = changelog_apply(base, changes, "o_orderkey").to_pandas()
    out["o_orderkey"] = out["o_orderkey"].astype(np.int64)
    out["o_totalprice"] = round_half_away(
        out["o_totalprice"].to_numpy(np.float64), 2
    )
    return out.sort_values("o_orderkey", kind="mergesort").reset_index(drop=True)


SQL_CHANGELOG_APPLY = """
WITH ch AS (
  SELECT o_orderkey, 'U' AS o_orderstatus,
         round(o_totalprice * 1.1, 2) AS o_totalprice, 'upsert' AS op
  FROM orders WHERE o_orderkey % 7 = 1
  UNION ALL
  SELECT -o_orderkey - 1, 'N', 1000.0, 'upsert'
  FROM orders WHERE o_orderkey % 19 = 0
  UNION ALL
  SELECT o_orderkey, o_orderstatus, o_totalprice, 'delete'
  FROM orders WHERE o_orderkey % 11 = 2 AND o_orderkey % 7 <> 1
)
SELECT CAST(o_orderkey AS BIGINT) AS o_orderkey, o_orderstatus,
       round(o_totalprice, 2) AS o_totalprice
FROM (
  SELECT o_orderkey, o_orderstatus, o_totalprice FROM ch WHERE op = 'upsert'
  UNION ALL
  SELECT o.o_orderkey, o.o_orderstatus, o.o_totalprice
  FROM orders o WHERE o.o_orderkey NOT IN (SELECT o_orderkey FROM ch)
)
"""


def q_user_activity_streaks(sf_dir: str):
    """Gaps-and-islands: per user, distinct active days and the longest
    run of CONSECUTIVE days — the retention/engagement streak metric.
    The SQL form needs the row_number() islands trick; here each
    user-hash partition computes islands with one vectorized pass
    (sorted day diffs != 1 start a new island, cumsum labels, grouped
    sizes) after an in-partition (user, day) dedup.  One exchange; the
    raw event stream collapses to user-days before it moves."""
    from ..stages.agg import combiner_agg

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def days_local(b: pd.DataFrame) -> pd.DataFrame:
        d = b["ts"].to_numpy(dtype="datetime64[D]").astype(np.int64)
        f = pd.DataFrame(
            {"user_id": b["user_id"].to_numpy(np.int64), "day": d}
        ).drop_duplicates()
        f["__p"] = (
            pd.util.hash_array(f["user_id"].to_numpy()) % np.uint64(32)
        ).astype(np.int64)
        return f

    def streaks(g: pd.DataFrame) -> pd.DataFrame:
        f = g.drop_duplicates(["user_id", "day"]).sort_values(
            ["user_id", "day"], kind="mergesort"
        )
        u = f["user_id"].to_numpy(np.int64)
        d = f["day"].to_numpy(np.int64)
        new_island = np.r_[True, (u[1:] != u[:-1]) | (d[1:] != d[:-1] + 1)]
        isl = np.cumsum(new_island)
        t = pd.DataFrame({"user_id": u, "isl": isl})
        sizes = t.groupby(["user_id", "isl"], sort=False).size().reset_index(name="s")
        out = sizes.groupby("user_id", sort=False).agg(
            longest_streak=("s", "max"), n_days=("s", "sum")
        )
        return pd.DataFrame(
            {
                "user_id": out.index.to_numpy(np.int64),
                "n_days": out["n_days"].to_numpy(np.int64),
                "longest_streak": out["longest_streak"].to_numpy(np.int64),
            }
        )

    out = (
        ev.map_batches(days_local, batch_format="pandas")
        .groupby("__p")
        .map_groups(streaks, batch_format="pandas")
        .to_pandas()
        .sort_values("user_id", kind="mergesort")
        .reset_index(drop=True)
    )
    return out


SQL_USER_ACTIVITY_STREAKS = """
WITH d AS (
  SELECT DISTINCT user_id, CAST(ts AS DATE) AS day FROM events
), r AS (
  SELECT user_id, day,
         row_number() OVER (PARTITION BY user_id ORDER BY day) AS rn
  FROM d
), g AS (
  SELECT user_id, count(*) AS streak
  FROM r GROUP BY user_id, day - CAST(rn AS INTEGER)
)
SELECT user_id,
       CAST(sum(streak) AS BIGINT) AS n_days,
       CAST(max(streak) AS BIGINT) AS longest_streak
FROM g GROUP BY user_id
"""


def q_ann_hard_negatives(sf_dir: str):
    """Hard-negative mining (stages/ann.py:hard_negatives): for each of
    the 5 lowest-vec_id query embeddings, the 3 nearest-cosine vectors
    with a DIFFERENT label — one broadcast query matrix, one matmul per
    batch for all queries, <= k-per-query partials to the driver."""
    import pyarrow.parquet as pq_
    import os as os_

    from ..stages.ann import hard_negatives

    qt = pq_.read_table(
        os_.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "<", 5)],
    ).to_pandas()
    qt = qt.sort_values("vec_id")
    qmat = np.stack([np.asarray(v, np.float64) for v in qt["embedding"]])

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    out = hard_negatives(
        emb,
        qt["vec_id"].to_numpy(np.int64),
        qmat,
        qt["label"].to_numpy(),
        k=3,
    )
    out["qid"] = out["qid"].astype(np.int64)
    out["vec_id"] = out["vec_id"].astype(np.int64)
    return out


SQL_ANN_HARD_NEGATIVES = """
WITH q AS (
  SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe, label AS qlab
  FROM embeddings WHERE vec_id < 5
), s AS (
  SELECT q.qid, e.vec_id,
         round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe), 5)
           AS score
  FROM embeddings e CROSS JOIN q
  WHERE e.label <> q.qlab
), r AS (
  SELECT qid, vec_id, score,
         row_number() OVER (PARTITION BY qid ORDER BY score DESC, vec_id) AS rn
  FROM s
)
SELECT qid, vec_id, score FROM r WHERE rn <= 3 ORDER BY qid, score DESC, vec_id
"""


def q_doc_bm25_search(sf_dir: str):
    """Ranked full-text search: top-10 documents by BM25 (k1=1.2,
    b=0.75, Lucene idf) for the fixed query ['scan','merge','sort']
    through stages/bm25.py:bm25_topk — stats pass computes per-doc
    (dl, tf) for the QUERY terms only, corpus constants fold from tiny
    partials and broadcast once, score pass emits local top-k per batch.
    No postings index is materialized, no global sort."""
    from ..stages.bm25 import bm25_topk

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_topk(docs, ["scan", "merge", "sort"], k=10)


SQL_DOC_BM25_SEARCH = """
WITH s AS (
  SELECT doc_id,
         len(list_filter(string_split(text, ' '), x -> x <> '')) AS dl,
         len(list_filter(string_split(text, ' '), x -> x = 'scan')) AS tf0,
         len(list_filter(string_split(text, ' '), x -> x = 'merge')) AS tf1,
         len(list_filter(string_split(text, ' '), x -> x = 'sort')) AS tf2
  FROM documents
), c AS (
  SELECT count(*) AS n,
         CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl,
         sum(CASE WHEN tf0 > 0 THEN 1 ELSE 0 END) AS df0,
         sum(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END) AS df1,
         sum(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END) AS df2
  FROM s
)
SELECT doc_id,
       round(
         ln(1 + (n - df0 + 0.5) / (df0 + 0.5)) * tf0 * 2.2
           / (tf0 + 1.2 * (0.25 + 0.75 * dl / avgdl))
       + ln(1 + (n - df1 + 0.5) / (df1 + 0.5)) * tf1 * 2.2
           / (tf1 + 1.2 * (0.25 + 0.75 * dl / avgdl))
       + ln(1 + (n - df2 + 0.5) / (df2 + 0.5)) * tf2 * 2.2
           / (tf2 + 1.2 * (0.25 + 0.75 * dl / avgdl)), 5) AS score
FROM s, c
ORDER BY score DESC, doc_id
LIMIT 10
"""


def q_token_pmi(sf_dir: str):
    """Top-20 adjacent-bigram collocations by PMI (Church & Hanks 1990)
    through stages/textstats.py:token_pmi — local unigram+bigram count
    partials, one combiner exchange, surviving bigrams join their
    unigram counts via the generic partition hash join (the vocabulary
    is never broadcast or collected)."""
    from ..stages.textstats import token_pmi

    docs = _read(sf_dir, "documents", ["text"])
    return token_pmi(docs, min_count=5, k=20)


SQL_TOKEN_PMI = """
WITH t AS (
  SELECT list_filter(string_split(text, ' '), x -> x <> '') AS l FROM documents
), uni AS (
  SELECT w, count(*) AS c FROM (SELECT unnest(l) AS w FROM t) GROUP BY 1
), nu AS (SELECT sum(c) AS n FROM uni),
bi AS (
  SELECT a, b, count(*) AS c_ab FROM (
    SELECT l[i] AS a, l[i + 1] AS b
    FROM t, LATERAL (SELECT unnest(range(1, len(l))) AS i) r
  ) GROUP BY 1, 2
), nb AS (SELECT sum(c_ab) AS n FROM bi)
SELECT bi.a AS w_a, bi.b AS w_b, CAST(bi.c_ab AS BIGINT) AS c_ab,
       round(ln((CAST(bi.c_ab AS DOUBLE) * nu.n * nu.n)
                / (CAST(nb.n AS DOUBLE) * ua.c * ub.c)), 5) AS pmi
FROM bi CROSS JOIN nu CROSS JOIN nb
JOIN uni ua ON ua.w = bi.a
JOIN uni ub ON ub.w = bi.b
WHERE bi.c_ab >= 5
ORDER BY pmi DESC, w_a, w_b
LIMIT 20
"""


def q_approx_type_overlap(sf_dir: str):
    """Sketch twin of event_type_user_overlap: pairwise distinct-user
    intersections by HLL inclusion-exclusion (stages/sketch.py:
    approx_pair_overlap) — register blobs on the exchange, never user
    ids.  Rows-only; accuracy vs the exact operator pinned in
    tests/test_relational_ops.py."""
    from ..stages.sketch import approx_pair_overlap

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    out = approx_pair_overlap(ev, "user_id", "event_type")
    return out.rename(
        columns={"event_type_a": "type_a", "event_type_b": "type_b"}
    ).sort_values(["type_a", "type_b"], kind="mergesort").reset_index(drop=True)


def q_event_transitions(sf_dir: str):
    """First-order Markov transition matrix over per-user time-ordered
    event streams — the behavioral-model / anomaly-baseline primitive:
    count and probability of (from_type -> to_type) steps.  One
    user-hash exchange; each partition sorts ITS users' events once
    (vectorized boundary-masked shift replaces the SQL lag window) and
    emits local (from, to) counts; a tiny combiner sums the 25-row
    matrix; probabilities normalize per from_type on the driver."""
    from ..stages.agg import combiner_agg

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        f = b.copy()
        f["__p"] = (
            pd.util.hash_array(f["user_id"].to_numpy()) % np.uint64(32)
        ).astype(np.int64)
        return f

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        f = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = f["user_id"].to_numpy(np.int64)
        t = f["event_type"].to_numpy(object)
        same = u[1:] == u[:-1]
        return pd.DataFrame({"from_type": t[:-1][same], "to_type": t[1:][same]})

    counts = (
        combiner_agg(
            ev.map_batches(tag, batch_format="pandas")
            .groupby("__p")
            .map_groups(pairs, batch_format="pandas"),
            ["from_type", "to_type"],
            [("n", None, "count")],
        )
        .to_pandas()
        .sort_values(["from_type", "to_type"], kind="mergesort")
        .reset_index(drop=True)
    )
    counts["n"] = counts["n"].astype(np.int64)
    tot = counts.groupby("from_type")["n"].transform("sum").to_numpy(np.float64)
    counts["p"] = round_half_away(
        counts["n"].to_numpy(np.float64) / tot, 5
    )
    return counts


SQL_EVENT_TRANSITIONS = """
WITH s AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev
  FROM events
), c AS (
  SELECT prev AS from_type, event_type AS to_type, count(*) AS n
  FROM s WHERE prev IS NOT NULL GROUP BY 1, 2
)
SELECT from_type, to_type, CAST(n AS BIGINT) AS n,
       round(CAST(n AS DOUBLE) / sum(n) OVER (PARTITION BY from_type), 5) AS p
FROM c
"""


def q_user_value_trend(sf_dir: str):
    """Per-user OLS trend (slope of value over time, units/day) from
    EXACT integer moment sums, the lineitem_corr recipe: timestamps
    quantized to integer seconds since 2024-01-01, values to 1e-4
    micro-units, so the combiner exchange carries order-exact int64
    partials and the closed-form slope is one deterministic IEEE
    expression on both sides.  One bounded exchange (five sums/user);
    no window, no sort."""
    from ..stages.agg import combiner_agg

    X0 = np.datetime64("2024-01-01", "us").astype(np.int64)

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        x = (
            (b["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64) - X0)
            // 1_000_000
        ).astype(np.int64)
        v = round_half_away(b["value"].to_numpy(np.float64) * 10000, 0).astype(
            np.int64
        )
        return pd.DataFrame(
            {
                "user_id": b["user_id"].to_numpy(np.int64),
                "x": x,
                "v": v,
                "xx": x * x,
                "xv": x * v,
            }
        )

    s = _combiner_agg(
        ev.map_batches(prep, batch_format="pandas"),
        ["user_id"],
        [
            ("n", None, "count"),
            ("sx", "x", "sum"),
            ("sy", "v", "sum"),
            ("sxx", "xx", "sum"),
            ("sxy", "xv", "sum"),
        ],
    )
    n = s["n"].to_numpy(np.float64)
    sx = s["sx"].to_numpy(np.float64)
    sy = s["sy"].to_numpy(np.float64)
    sxx = s["sxx"].to_numpy(np.float64)
    sxy = s["sxy"].to_numpy(np.float64)
    denom = n * sxx - sx * sx
    keep = (s["n"].to_numpy(np.int64) >= 2) & (denom != 0)
    slope = round_half_away(
        (n * sxy - sx * sy) / denom * 86400 / 10000, 6
    )
    out = pd.DataFrame(
        {
            "user_id": s["user_id"].to_numpy(np.int64)[keep],
            "n": s["n"].to_numpy(np.int64)[keep],
            "slope_per_day": slope[keep],
        }
    )
    return out.sort_values("user_id", kind="mergesort").reset_index(drop=True)


SQL_USER_VALUE_TREND = """
WITH qv AS (
  SELECT user_id,
         date_diff('second', TIMESTAMP '2024-01-01', ts) AS x,
         CAST(round(value * 10000, 0) AS BIGINT) AS v
  FROM events
), s AS (
  SELECT user_id, count(*) AS n, sum(x) AS sx, sum(v) AS sy,
         sum(x * x) AS sxx, sum(x * v) AS sxy
  FROM qv GROUP BY 1
)
SELECT user_id, CAST(n AS BIGINT) AS n,
       round((CAST(n AS DOUBLE) * sxy - CAST(sx AS DOUBLE) * sy)
             / (CAST(n AS DOUBLE) * sxx - CAST(sx AS DOUBLE) * sx)
             * 86400 / 10000, 6) AS slope_per_day
FROM s
WHERE n >= 2 AND (CAST(n AS DOUBLE) * sxx - CAST(sx AS DOUBLE) * sx) <> 0
"""


def q_doc_weighted_sample(sf_dir: str):
    """Weighted sampling WITHOUT replacement, k=50, weight = n_chars —
    the Efraimidis–Spirakis (2006) one-pass reservoir scheme made
    deterministic: each doc draws u from its md5(doc_id) hash and keys
    on ln(u)/w (order-equivalent to u^(1/w)); the global top-k by key is
    an exact weighted sample an independent engine reproduces bit-for-bit.
    Per-batch local top-k partials, driver merges k x n_batches rows —
    no global sort, no RNG state."""
    import hashlib as _hl

    k = 50

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(np.int64)
        w = b["n_chars"].to_numpy(np.float64)
        h = np.array(
            [int(_hl.md5(str(i).encode()).hexdigest()[:8], 16) for i in ids],
            dtype=np.float64,
        )
        u = (h + 1.0) / 4294967296.0
        key = round_half_away(np.log(u) / w, 8)
        order = np.lexsort((ids, -key))[:k]
        return pd.DataFrame(
            {
                "doc_id": ids[order],
                "n_chars": b["n_chars"].to_numpy(np.int64)[order],
                "es_key": key[order],
            }
        )

    allp = (
        _read(sf_dir, "documents", ["doc_id", "n_chars"])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    allp = allp.sort_values(
        ["es_key", "doc_id"], ascending=[False, True], kind="mergesort"
    )
    return allp.head(k).reset_index(drop=True)


SQL_DOC_WEIGHTED_SAMPLE = """
WITH h AS (
  SELECT doc_id, n_chars,
         substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS hx
  FROM documents
), v AS (
  SELECT doc_id, n_chars,
         (CAST(list_sum(list_transform(range(1, 9),
             i -> (strpos('0123456789abcdef', substr(hx, CAST(i AS INTEGER), 1)) - 1)
                  * power(16, 8 - i))) AS BIGINT) + 1) / 4294967296.0 AS u
  FROM h
)
SELECT doc_id, n_chars, round(ln(u) / n_chars, 8) AS es_key
FROM v
ORDER BY es_key DESC, doc_id
LIMIT 50
"""


def q_doc_containment(sf_dir: str):
    """One-sided set-overlap (containment) join: pairs where
    max(|A∩B|/|A|, |A∩B|/|B|) >= 0.5 over word-3-gram shingle sets —
    the excerpt/quote detector symmetric Jaccard misses (a short doc
    fully inside a long one).  Same PPJoin-family inverted-index
    exchange as ngram_jaccard_inverted (score='containment'): no
    all-pairs stage, nothing broadcast."""
    from ..stages.dedup import ngram_jaccard_inverted

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = (
        ngram_jaccard_inverted(docs, threshold=0.5, k=3, score="containment")
        .to_pandas()
        .sort_values(["id_a", "id_b"], kind="mergesort")
        .reset_index(drop=True)
    )
    out["id_a"] = out["id_a"].astype(np.int64)
    out["id_b"] = out["id_b"].astype(np.int64)
    return out


SQL_DOC_CONTAINMENT = r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
), sh AS (
  SELECT doc_id,
         CASE
           WHEN len(ws) = 0 THEN []::VARCHAR[]
           WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
           ELSE list_distinct(list_transform(range(1, len(ws) - 1),
                                             i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))
         END AS s
  FROM w
), pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         len(list_intersect(a.s, b.s)) AS inter,
         len(a.s) AS na, len(b.s) AS nb
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
), scored AS (
  SELECT id_a, id_b,
         CASE WHEN na = 0 AND nb = 0 THEN 1.0
              WHEN na = 0 OR nb = 0 THEN 0.0
              ELSE inter::DOUBLE / na END AS ca,
         CASE WHEN na = 0 AND nb = 0 THEN 1.0
              WHEN na = 0 OR nb = 0 THEN 0.0
              ELSE inter::DOUBLE / nb END AS cb
  FROM pairs
)
SELECT id_a, id_b, round(ca, 4) AS cont_a, round(cb, 4) AS cont_b
FROM scored
WHERE greatest(ca, cb) >= 0.5
"""


def q_events_cube(sf_dir: str):
    """GROUP BY CUBE(event_type, hour) — all four aggregation levels
    (fine, by-type, by-hour, grand total) from ONE combiner pass at the
    finest grain; the coarser levels fold from that tiny (type, hour)
    result on the driver, never a second scan.  Values summed as exact
    1e-4 integer units so the distributed sum is order-exact; rolled-up
    dims use the 'ALL' sentinel."""

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        ts = b["ts"].to_numpy(dtype="datetime64[us]")
        hours = (ts.astype(np.int64) // 3_600_000_000) % 24
        return pd.DataFrame(
            {
                "event_type": b["event_type"].to_numpy(object),
                "hr": hours.astype(np.int64),
                "v": round_half_away(
                    b["value"].to_numpy(np.float64) * 10000, 0
                ).astype(np.int64),
            }
        )

    fine = _combiner_agg(
        _read(sf_dir, "events", ["event_type", "ts", "value"]).map_batches(
            prep, batch_format="pandas"
        ),
        ["event_type", "hr"],
        [("n", None, "count"), ("c", "v", "sum")],
    )
    fine["hr_key"] = fine["hr"].astype(np.int64).astype(str)

    def level(keys: list[str]) -> pd.DataFrame:
        if keys:
            g = fine.groupby(keys, as_index=False).agg(
                n=("n", "sum"), c=("c", "sum")
            )
        else:
            g = pd.DataFrame({"n": [int(fine["n"].sum())], "c": [int(fine["c"].sum())]})
        for col in ("event_type", "hr_key"):
            if col not in g.columns:
                g[col] = "ALL"
        return g[["event_type", "hr_key", "n", "c"]]

    out = pd.concat(
        [level(["event_type", "hr_key"]), level(["event_type"]),
         level(["hr_key"]), level([])],
        ignore_index=True,
    )
    out["n"] = out["n"].astype(np.int64)
    out["total_value"] = round_half_away(
        out["c"].to_numpy(np.float64) / 10000.0, 4
    )
    out = out.drop(columns=["c"])
    return out.sort_values(
        ["event_type", "hr_key"], kind="mergesort"
    ).reset_index(drop=True)


SQL_EVENTS_CUBE = """
WITH e AS (
  SELECT event_type, EXTRACT(hour FROM ts) AS hr,
         CAST(round(value * 10000, 0) AS BIGINT) AS v
  FROM events
)
SELECT COALESCE(event_type, 'ALL') AS event_type,
       COALESCE(CAST(hr AS VARCHAR), 'ALL') AS hr_key,
       CAST(count(*) AS BIGINT) AS n,
       round(CAST(sum(v) AS DOUBLE) / 10000.0, 4) AS total_value
FROM e GROUP BY CUBE(event_type, hr)
"""


def q_token_chi2(sf_dir: str):
    """Chi-square feature selection: per language, the 5 tokens most
    positively associated with it (the classic text-classification
    feature ranking).  Presence counts a = docs-of-lang-containing-token
    flow through ONE token-partitioned combiner ((token, lang) rows);
    per-token totals fold INSIDE each token partition, per-lang doc
    totals and N broadcast as a tiny frame — chi² and the lift>1 gate
    are vectorized per partition, then a grouped top-k combiner keeps 5
    per language.  At this corpus the grid is tiny; the plan never
    collects the vocabulary."""
    from ..stages.agg import combiner_agg

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def tok_rows(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].str.split(" ").to_numpy(object)
        toks = [np.unique([w for w in t if w != ""]) for t in toks]
        lens = np.fromiter((len(t) for t in toks), np.int64, len(toks))
        return pd.DataFrame(
            {
                "w": np.concatenate(toks) if len(b) else np.array([], object),
                "lang": np.repeat(b["lang"].to_numpy(object), lens),
            }
        )

    tl = combiner_agg(
        docs.map_batches(tok_rows, batch_format="pandas"),
        ["w", "lang"],
        [("a", None, "count")],
    ).to_pandas()  # (vocab x langs) — tiny here; stays distributed upstream

    lang_tot = (
        _combiner_agg(
            _read(sf_dir, "documents", ["lang"]), ["lang"], [("nl", None, "count")]
        )
        .set_index("lang")["nl"]
        .astype(np.int64)
    )
    n = int(lang_tot.sum())
    tok_tot = tl.groupby("w")["a"].sum()

    a = tl["a"].to_numpy(np.float64)
    ta = tl["w"].map(tok_tot).to_numpy(np.float64)      # a + b
    nl = tl["lang"].map(lang_tot).to_numpy(np.float64)  # a + c
    b_ = ta - a
    c_ = nl - a
    d_ = n - ta - nl + a
    chi2 = (
        n * (a * d_ - b_ * c_) ** 2
        / ((a + b_) * (c_ + d_) * (a + c_) * (b_ + d_))
    )
    tl["chi2"] = round_half_away(chi2, 4)
    pos = tl[a * n > ta * nl]  # lift > 1: positive association only
    out = (
        pos.sort_values(["lang", "chi2", "w"], ascending=[True, False, True],
                        kind="mergesort")
        .groupby("lang")
        .head(5)
        .reset_index(drop=True)
    )
    out["a"] = out["a"].astype(np.int64)
    return out[["lang", "w", "a", "chi2"]]


SQL_TOKEN_CHI2 = """
WITH dt AS (
  SELECT DISTINCT doc_id, lang, w FROM (
    SELECT doc_id, lang, unnest(string_split(text, ' ')) AS w FROM documents
  ) WHERE w <> ''
), tl AS (
  SELECT w, lang, CAST(count(*) AS BIGINT) AS a FROM dt GROUP BY 1, 2
), lt AS (
  SELECT lang, count(*) AS nl FROM documents GROUP BY 1
), tt AS (
  SELECT w, sum(a) AS ta FROM tl GROUP BY 1
), nn AS (SELECT count(*) AS n FROM documents),
scored AS (
  SELECT tl.lang, tl.w, tl.a,
         round(CAST(n AS DOUBLE)
               * (CAST(tl.a AS DOUBLE) * (n - ta - nl + tl.a)
                  - (ta - tl.a) * (nl - tl.a)) ^ 2
               / (CAST(ta AS DOUBLE) * (n - ta) * nl * (n - nl)), 4) AS chi2,
         CAST(tl.a AS DOUBLE) * n > CAST(ta AS DOUBLE) * nl AS pos
  FROM tl JOIN tt USING (w) JOIN lt USING (lang) CROSS JOIN nn
)
SELECT lang, w, a, chi2 FROM (
  SELECT lang, w, a, chi2,
         row_number() OVER (PARTITION BY lang ORDER BY chi2 DESC, w) AS rn
  FROM scored WHERE pos
) WHERE rn <= 5
"""


def q_events_value_psi(sf_dir: str):
    """Population Stability Index per event type — the drift monitor a
    production pipeline runs between two time windows: PSI =
    Σ (p_i − q_i)·ln(p_i/q_i) over 10 fixed value bins, comparing the
    first half of the time range (reference) vs the second (current).
    One combiner pass carries (type, period, bin) counts; Laplace +1
    smoothing keeps empty bins finite EXACTLY as the SQL oracle does."""
    from ..stages.agg import combiner_agg

    BINS = 10

    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])
    lo, hi = ev.min("ts"), ev.max("ts")
    # midpoint in integer MICROSECONDS on both sides — DuckDB interval
    # division truncates the day component (a 29d23h range halves to
    # 14d11h, 12 hours off), so neither side may use timestamp/interval
    # arithmetic for the split
    lo_us = np.datetime64(lo, "us").astype(np.int64)
    hi_us = np.datetime64(hi, "us").astype(np.int64)
    mid_us = lo_us + (hi_us - lo_us) // 2
    vmax = float(ev.max("value")) or 1.0

    def binned(b: pd.DataFrame) -> pd.DataFrame:
        period = np.where(
            b["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64) <= mid_us,
            "ref",
            "cur",
        ).astype(object)
        # floor-then-clip so a negative value bins identically to the SQL
        # oracle's GREATEST(LEAST(floor(...), 9), 0) (astype alone truncates
        # toward zero, which disagrees with floor() below 0)
        bins = np.clip(
            np.floor(b["value"].to_numpy(np.float64) / vmax * BINS).astype(np.int64),
            0,
            BINS - 1,
        )
        return pd.DataFrame(
            {"event_type": b["event_type"].to_numpy(object), "period": period,
             "bin": bins}
        )

    cnt = combiner_agg(
        ev.map_batches(binned, batch_format="pandas"),
        ["event_type", "period", "bin"],
        [("n", None, "count")],
    ).to_pandas()
    # dense (type, period, bin) grid with +1 smoothing
    types = sorted(cnt["event_type"].unique())
    grid = pd.MultiIndex.from_product(
        [types, ["ref", "cur"], range(BINS)], names=["event_type", "period", "bin"]
    )
    dense = (
        cnt.set_index(["event_type", "period", "bin"])["n"]
        .reindex(grid, fill_value=0)
        .astype(np.int64)
        + 1
    ).reset_index(name="n")
    tot = dense.groupby(["event_type", "period"])["n"].transform("sum")
    dense["p"] = dense["n"] / tot
    piv = dense.pivot_table(
        index=["event_type", "bin"], columns="period", values="p"
    ).reset_index()
    term = (piv["cur"] - piv["ref"]) * np.log(piv["cur"] / piv["ref"])
    piv["term"] = term
    out = (
        piv.groupby("event_type")["term"].sum().reset_index(name="psi")
    )
    out["psi"] = round_half_away(out["psi"].to_numpy(np.float64), 6)
    return out.sort_values("event_type", kind="mergesort").reset_index(drop=True)


SQL_EVENTS_VALUE_PSI = """
WITH bounds AS (
  SELECT epoch_us(min(ts)) AS lo_us, epoch_us(max(ts)) AS hi_us,
         max(value) AS vmax
  FROM events
), e AS (
  SELECT event_type,
         CASE WHEN epoch_us(ts) <= lo_us + (hi_us - lo_us) // 2
              THEN 'ref' ELSE 'cur' END AS period,
         GREATEST(LEAST(CAST(floor(value / vmax * 10) AS BIGINT), 9), 0) AS bin
  FROM events CROSS JOIN bounds
), grid AS (
  SELECT t.event_type, p.period, b.bin
  FROM (SELECT DISTINCT event_type FROM events) t
  CROSS JOIN (SELECT unnest(['ref', 'cur']) AS period) p
  CROSS JOIN (SELECT unnest(range(10)) AS bin) b
), cnt AS (
  SELECT g.event_type, g.period, g.bin,
         COALESCE(c.n, 0) + 1 AS n
  FROM grid g LEFT JOIN (
    SELECT event_type, period, bin, count(*) AS n FROM e GROUP BY 1, 2, 3
  ) c USING (event_type, period, bin)
), p AS (
  SELECT event_type, period, bin,
         CAST(n AS DOUBLE) / sum(n) OVER (PARTITION BY event_type, period) AS p
  FROM cnt
), piv AS (
  SELECT r.event_type, r.bin, r.p AS pref, c.p AS pcur
  FROM p r JOIN p c ON r.event_type = c.event_type AND r.bin = c.bin
  WHERE r.period = 'ref' AND c.period = 'cur'
)
SELECT event_type, round(sum((pcur - pref) * ln(pcur / pref)), 6) AS psi
FROM piv GROUP BY event_type
"""


def q_doc_hybrid_search(sf_dir: str):
    """Hybrid retrieval: Reciprocal Rank Fusion of the BM25 lexical
    top-50 and the hashing-embedding cosine top-50 for the fixed query
    ['scan','merge','sort'] (stages/bm25.py:hybrid_rrf_topk).  Both
    candidate lists are per-batch local top-k partials; the semantic
    rank key is dot/sqrt(ssq) over EXACT integer hashed vectors, so the
    entire fusion — tokenizer, vectorizer, both rankings, RRF — is
    reproduced bit-for-bit by the SQL oracle."""
    from ..stages.bm25 import hybrid_rrf_topk

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return hybrid_rrf_topk(docs, ["scan", "merge", "sort"], k=10)


SQL_DOC_HYBRID_SEARCH = r"""
WITH s AS (
  SELECT doc_id,
         len(list_filter(string_split(text, ' '), x -> x <> '')) AS dl,
         len(list_filter(string_split(text, ' '), x -> x = 'scan')) AS tf0,
         len(list_filter(string_split(text, ' '), x -> x = 'merge')) AS tf1,
         len(list_filter(string_split(text, ' '), x -> x = 'sort')) AS tf2
  FROM documents
), c AS (
  SELECT count(*) AS n, CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl,
         sum(CASE WHEN tf0 > 0 THEN 1 ELSE 0 END) AS df0,
         sum(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END) AS df1,
         sum(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END) AS df2
  FROM s
), lex AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY score DESC, doc_id) AS rank_lex
  FROM (
    SELECT doc_id,
           round(
             ln(1 + (n - df0 + 0.5) / (df0 + 0.5)) * tf0 * 2.2
               / (tf0 + 1.2 * (0.25 + 0.75 * dl / avgdl))
           + ln(1 + (n - df1 + 0.5) / (df1 + 0.5)) * tf1 * 2.2
               / (tf1 + 1.2 * (0.25 + 0.75 * dl / avgdl))
           + ln(1 + (n - df2 + 0.5) / (df2 + 0.5)) * tf2 * 2.2
               / (tf2 + 1.2 * (0.25 + 0.75 * dl / avgdl)), 5) AS score
    FROM s, c
  ) ORDER BY rank_lex LIMIT 50
), toks AS (
  SELECT doc_id, lower(w) AS w
  FROM (
    SELECT doc_id,
           unnest(list_filter(
               regexp_split_to_array(regexp_replace(text, '[^\w\s]', ' ', 'g'),
                                     '\s+'),
               x -> length(x) >= 3 AND NOT regexp_matches(x, '[0-9]')
           )) AS w
    FROM documents
  )
), feat AS (
  SELECT doc_id,
         ((strpos('0123456789abcdef', substr(md5(w), 1, 1)) - 1) * 4096
        + (strpos('0123456789abcdef', substr(md5(w), 2, 1)) - 1) * 256
        + (strpos('0123456789abcdef', substr(md5(w), 3, 1)) - 1) * 16
        + (strpos('0123456789abcdef', substr(md5(w), 4, 1)) - 1)) % 256 AS bucket,
         CASE WHEN strpos('0123456789abcdef', substr(md5(w), 5, 1)) - 1 >= 8
              THEN -1 ELSE 1 END AS sgn
  FROM toks
), vec AS (
  SELECT doc_id, bucket, sum(sgn) AS v FROM feat GROUP BY 1, 2
), ssq AS (
  SELECT doc_id, sum(v * v) AS q FROM vec GROUP BY 1
), qfeat AS (
  SELECT ((strpos('0123456789abcdef', substr(md5(w), 1, 1)) - 1) * 4096
        + (strpos('0123456789abcdef', substr(md5(w), 2, 1)) - 1) * 256
        + (strpos('0123456789abcdef', substr(md5(w), 3, 1)) - 1) * 16
        + (strpos('0123456789abcdef', substr(md5(w), 4, 1)) - 1)) % 256 AS bucket,
         CASE WHEN strpos('0123456789abcdef', substr(md5(w), 5, 1)) - 1 >= 8
              THEN -1 ELSE 1 END AS sgn
  FROM (SELECT unnest(['scan', 'merge', 'sort']) AS w)
), qvec AS (
  SELECT bucket, sum(sgn) AS qv FROM qfeat GROUP BY 1
), dot AS (
  SELECT vec.doc_id, sum(vec.v * qvec.qv) AS d
  FROM vec JOIN qvec USING (bucket) GROUP BY 1
), sem AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY score DESC, doc_id) AS rank_sem
  FROM (
    SELECT d0.doc_id,
           CASE WHEN COALESCE(ssq.q, 0) > 0
                THEN CAST(COALESCE(dot.d, 0) AS DOUBLE)
                     / sqrt(CAST(ssq.q AS DOUBLE))
                ELSE 0.0 END AS score
    FROM documents d0
    LEFT JOIN ssq ON d0.doc_id = ssq.doc_id
    LEFT JOIN dot ON d0.doc_id = dot.doc_id
  ) ORDER BY rank_sem LIMIT 50
)
SELECT CAST(COALESCE(lex.doc_id, sem.doc_id) AS BIGINT) AS doc_id,
       CAST(COALESCE(rank_lex, 0) AS BIGINT) AS rank_lex,
       CAST(COALESCE(rank_sem, 0) AS BIGINT) AS rank_sem,
       round(COALESCE(1.0 / (60 + rank_lex), 0)
             + COALESCE(1.0 / (60 + rank_sem), 0), 8) AS rrf
FROM lex FULL OUTER JOIN sem ON lex.doc_id = sem.doc_id
ORDER BY rrf DESC, COALESCE(lex.doc_id, sem.doc_id)
LIMIT 10
"""


def q_event_paths(sf_dir: str):
    """Top-10 three-step behavioral paths (t1 -> t2 -> t3) over per-user
    time-ordered event streams — the path-analysis extension of
    event_transitions: same one user-hash exchange, the vectorized
    double-shift replaces two SQL lag windows, tiny path-count combiner,
    (n desc, path) top-k."""
    from ..stages.agg import combiner_agg

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        f = b.copy()
        f["__p"] = (
            pd.util.hash_array(f["user_id"].to_numpy()) % np.uint64(32)
        ).astype(np.int64)
        return f

    def paths(g: pd.DataFrame) -> pd.DataFrame:
        f = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = f["user_id"].to_numpy(np.int64)
        t = f["event_type"].to_numpy(object)
        if len(f) < 3:
            return pd.DataFrame(
                {"t1": pd.Series([], dtype=object),
                 "t2": pd.Series([], dtype=object),
                 "t3": pd.Series([], dtype=object)}
            )
        same = (u[2:] == u[1:-1]) & (u[1:-1] == u[:-2])
        return pd.DataFrame(
            {"t1": t[:-2][same], "t2": t[1:-1][same], "t3": t[2:][same]}
        )

    counts = (
        combiner_agg(
            ev.map_batches(tag, batch_format="pandas")
            .groupby("__p")
            .map_groups(paths, batch_format="pandas"),
            ["t1", "t2", "t3"],
            [("n", None, "count")],
        )
        .to_pandas()
    )
    counts["n"] = counts["n"].astype(np.int64)
    out = counts.sort_values(
        ["n", "t1", "t2", "t3"], ascending=[False, True, True, True],
        kind="mergesort",
    ).head(10)
    return out.reset_index(drop=True)


SQL_EVENT_PATHS = """
WITH s AS (
  SELECT user_id, event_type,
         lag(event_type, 1) OVER w AS p1,
         lag(event_type, 2) OVER w AS p2
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT p2 AS t1, p1 AS t2, event_type AS t3, CAST(count(*) AS BIGINT) AS n
FROM s WHERE p2 IS NOT NULL
GROUP BY 1, 2, 3
ORDER BY n DESC, t1, t2, t3
LIMIT 10
"""


def q_value_outliers(sf_dir: str):
    """Tukey-fence outlier report per event type: exact q1/q3 (DuckDB
    quantile_cont parity), fences at 1.5 IQR, outlier count and rate —
    the data-quality observability op run before trusting a numeric
    column.  Each type's value multiset is already co-located by the
    exact-quantile shuffle, so fences AND counts come from the SAME
    single exchange (low group cardinality; the sketch twin covers the
    high-cardinality regime)."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        v = g["value"].to_numpy(np.float64)
        q1 = float(np.quantile(v, 0.25, method="linear"))
        q3 = float(np.quantile(v, 0.75, method="linear"))
        lo = q1 - 1.5 * (q3 - q1)
        hi = q3 + 1.5 * (q3 - q1)
        n_out = int(((v < lo) | (v > hi)).sum())
        return pd.DataFrame(
            [
                {
                    "event_type": g["event_type"].iloc[0],
                    "q1": round_half_away(q1, 4),
                    "q3": round_half_away(q3, 4),
                    "n_outliers": np.int64(n_out),
                    "outlier_pct": round_half_away(n_out / len(v), 6),
                }
            ]
        )

    out = (
        ev.groupby("event_type")
        .map_groups(per_group, batch_format="pandas")
        .to_pandas()
        .sort_values("event_type", kind="mergesort")
        .reset_index(drop=True)
    )
    out["n_outliers"] = out["n_outliers"].astype(np.int64)
    return out


SQL_VALUE_OUTLIERS = """
WITH qs AS (
  SELECT event_type,
         quantile_cont(value, 0.25) AS q1,
         quantile_cont(value, 0.75) AS q3,
         count(*) AS n
  FROM events GROUP BY 1
)
SELECT e.event_type,
       round(any_value(qs.q1), 4) AS q1,
       round(any_value(qs.q3), 4) AS q3,
       CAST(sum(CASE WHEN e.value < qs.q1 - 1.5 * (qs.q3 - qs.q1)
                       OR e.value > qs.q3 + 1.5 * (qs.q3 - qs.q1)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers,
       round(CAST(sum(CASE WHEN e.value < qs.q1 - 1.5 * (qs.q3 - qs.q1)
                             OR e.value > qs.q3 + 1.5 * (qs.q3 - qs.q1)
                           THEN 1 ELSE 0 END) AS DOUBLE) / any_value(qs.n), 6)
         AS outlier_pct
FROM events e JOIN qs USING (event_type)
GROUP BY e.event_type
"""


def q_key_skew_report(sf_dir: str):
    """Join-key skew report for events.user_id — the diagnostic a
    planner reads before choosing plain vs salted vs broadcast joins
    (stages/join.py:auto_join samples this same signal): per-key counts
    from ONE combiner exchange, then Gini coefficient, max/mean ratio
    and the top-5 heavy keys from the tiny per-key result.  At
    high key cardinality the count table itself is the operator's
    output partition; the Count-Min twin (approx_top_users) covers the
    can't-hold-the-counts regime."""
    from ..stages.agg import combiner_agg

    cnt = (
        combiner_agg(
            _read(sf_dir, "events", ["user_id"]),
            ["user_id"],
            [("n", None, "count")],
        )
        .to_pandas()
        .sort_values(["n", "user_id"], kind="mergesort")
        .reset_index(drop=True)
    )
    c = cnt["n"].to_numpy(np.float64)
    k = len(c)
    tot = c.sum()
    # Gini over the count distribution (counts ascending, 1-based ranks)
    gini = (2.0 * (np.arange(1, k + 1) * c).sum()) / (k * tot) - (k + 1.0) / k
    top = cnt.sort_values(["n", "user_id"], ascending=[False, True],
                          kind="mergesort").head(5)
    out = pd.DataFrame(
        {
            "stat": ["n_keys", "gini", "max_over_mean"]
            + [f"top{i+1}_key" for i in range(len(top))],
            "value": [
                float(k),
                float(round_half_away(gini, 6)),
                float(round_half_away(c.max() / (tot / k), 6)),
            ]
            + [float(u) for u in top["user_id"]],
        }
    )
    return out.reset_index(drop=True)


SQL_KEY_SKEW_REPORT = """
WITH c AS (
  SELECT user_id, count(*) AS n FROM events GROUP BY 1
), r AS (
  SELECT user_id, n,
         row_number() OVER (ORDER BY n, user_id) AS rk,
         count(*) OVER () AS k,
         sum(n) OVER () AS tot
  FROM c
), g AS (
  SELECT any_value(k) AS k, any_value(tot) AS tot,
         sum(CAST(rk AS DOUBLE) * n) AS rn, max(n) AS mx
  FROM r
), top AS (
  SELECT user_id, row_number() OVER (ORDER BY n DESC, user_id) AS i
  FROM c QUALIFY i <= 5
)
SELECT stat, value FROM (
  SELECT 'n_keys' AS stat, CAST(k AS DOUBLE) AS value, 0 AS ord FROM g
  UNION ALL
  SELECT 'gini', round(2.0 * rn / (k * tot) - (k + 1.0) / k, 6), 1 FROM g
  UNION ALL
  SELECT 'max_over_mean', round(mx / (CAST(tot AS DOUBLE) / k), 6), 2 FROM g
  UNION ALL
  SELECT 'top' || CAST(i AS VARCHAR) || '_key', CAST(user_id AS DOUBLE), 2 + i
  FROM top
) ORDER BY ord
"""


def q_user_recency_features(sf_dir: str):
    """Churn-model feature engineering per user: days since last
    activity (vs the corpus max timestamp), distinct active days, events
    per active day — the standard RFM-style feature block, built from
    ONE combiner pass (max ts, count) plus the user-day dedup exchange;
    day arithmetic in integer days since epoch on both sides."""
    from ..stages.agg import combiner_agg

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    hi_day = np.datetime64(ev.max("ts"), "us").astype("datetime64[D]").astype(np.int64)

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        d = b["ts"].to_numpy(dtype="datetime64[D]").astype(np.int64)
        return pd.DataFrame(
            {"user_id": b["user_id"].to_numpy(np.int64), "day": d}
        )

    base = ev.map_batches(prep, batch_format="pandas").materialize()
    agg = _combiner_agg(
        base, ["user_id"],
        [("n_events", None, "count"), ("last_day", "day", "max")],
    )

    def dedup_days(b: pd.DataFrame) -> pd.DataFrame:
        f = b.drop_duplicates()
        f = f.copy()
        f["__p"] = (
            pd.util.hash_array(f["user_id"].to_numpy()) % np.uint64(32)
        ).astype(np.int64)
        return f

    days = (
        combiner_agg(
            base.map_batches(dedup_days, batch_format="pandas")
            .groupby("__p")
            .map_groups(
                lambda g: g.drop_duplicates(["user_id", "day"])[["user_id", "day"]],
                batch_format="pandas",
            ),
            ["user_id"],
            [("n_days", None, "count")],
        )
        .to_pandas()
    )
    out = agg.merge(days, on="user_id")
    out["days_since_last"] = (hi_day - out["last_day"]).astype(np.int64)
    out["n_events"] = out["n_events"].astype(np.int64)
    out["n_days"] = out["n_days"].astype(np.int64)
    out["events_per_day"] = round_half_away(
        out["n_events"].to_numpy(np.float64) / out["n_days"].to_numpy(np.float64), 4
    )
    out = out[["user_id", "n_events", "n_days", "days_since_last", "events_per_day"]]
    return out.sort_values("user_id", kind="mergesort").reset_index(drop=True)


SQL_USER_RECENCY_FEATURES = """
WITH hi AS (
  SELECT CAST(max(ts) AS DATE) - DATE '1970-01-01' AS hi_day FROM events
), f AS (
  SELECT user_id,
         CAST(count(*) AS BIGINT) AS n_events,
         CAST(count(DISTINCT CAST(ts AS DATE)) AS BIGINT) AS n_days,
         max(CAST(ts AS DATE) - DATE '1970-01-01') AS last_day
  FROM events GROUP BY 1
)
SELECT user_id, n_events, n_days,
       CAST(hi_day - last_day AS BIGINT) AS days_since_last,
       round(CAST(n_events AS DOUBLE) / n_days, 4) AS events_per_day
FROM f CROSS JOIN hi
"""


def q_monthly_revenue_growth(sf_dir: str):
    """Monthly revenue time series with month-over-month growth — the
    reporting staple that needs an ordered window over an AGGREGATED
    series: one (year, month) combiner pass in exact integer cents, then
    the lag/pct-change on the tiny monthly frame (driver-side — the
    series is months, not rows).  Growth = (rev - prev)/prev, first
    month NULL->0 sentinel, 6 dp."""

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        d = b["o_orderdate"].to_numpy(dtype="datetime64[M]")
        yr = d.astype("datetime64[Y]").astype(np.int64) + 1970
        mo = d.astype(np.int64) % 12 + 1
        return pd.DataFrame(
            {
                "yr": yr.astype(np.int64),
                "mo": mo.astype(np.int64),
                "cents": np.round(
                    b["o_totalprice"].to_numpy(np.float64) * 100
                ).astype(np.int64),
            }
        )

    m = _combiner_agg(
        _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"]).map_batches(
            prep, batch_format="pandas"
        ),
        ["yr", "mo"],
        [("n_orders", None, "count"), ("c", "cents", "sum")],
    ).sort_values(["yr", "mo"]).reset_index(drop=True)
    rev = m["c"].to_numpy(np.float64) / 100.0
    prev = np.r_[np.nan, rev[:-1]]
    growth = np.where(np.isnan(prev), 0.0, (rev - prev) / prev)
    out = pd.DataFrame(
        {
            "yr": m["yr"].astype(np.int64),
            "mo": m["mo"].astype(np.int64),
            "n_orders": m["n_orders"].astype(np.int64),
            "revenue": round_half_away(rev, 2),
            "mom_growth": round_half_away(growth, 6),
        }
    )
    return out


SQL_MONTHLY_REVENUE_GROWTH = """
WITH m AS (
  SELECT EXTRACT(year FROM o_orderdate) AS yr,
         EXTRACT(month FROM o_orderdate) AS mo,
         CAST(count(*) AS BIGINT) AS n_orders,
         sum(CAST(round(o_totalprice * 100, 0) AS BIGINT)) AS c
  FROM orders GROUP BY 1, 2
), g AS (
  SELECT yr, mo, n_orders,
         CAST(c AS DOUBLE) / 100.0 AS rev,
         lag(CAST(c AS DOUBLE) / 100.0) OVER (ORDER BY yr, mo) AS prev
  FROM m
)
SELECT CAST(yr AS BIGINT) AS yr, CAST(mo AS BIGINT) AS mo, n_orders,
       round(rev, 2) AS revenue,
       round(CASE WHEN prev IS NULL THEN 0.0 ELSE (rev - prev) / prev END, 6)
         AS mom_growth
FROM g
"""


def q_customer_linkage(sf_dir: str):
    """Record linkage (Fellegi–Sunter-lite): candidate pairs from the
    FastSS deletion-neighborhood lev-1 join on names, then agreement
    scoring on the blocked attributes — same nation (+2), same market
    segment (+1), account balances within 500 (+1).  The fuzzy join is
    the scale stage (each name moves O(len) times); attributes attach
    through the generic partition hash join, twice, never broadcast.
    Output: pairs scoring >= 3 of 4."""
    from ..stages.fuzzy import fuzzy_pairs_lev1
    from ..stages.join import hash_join

    cust = _read(
        sf_dir, "customer",
        ["c_name", "c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"],
    )
    pairs = fuzzy_pairs_lev1(
        cust.select_columns(["c_name"]), "c_name", out_cols=("name_a", "name_b")
    )
    j1 = hash_join(pairs, cust, left_key="name_a", right_key="c_name")
    j2 = hash_join(
        j1, cust, left_key="name_b", right_key="c_name", suffixes=("", "_b")
    )
    f = j2.to_pandas()
    score = (
        (f["c_nationkey"] == f["c_nationkey_b"]).to_numpy() * 2
        + (f["c_mktsegment"] == f["c_mktsegment_b"]).to_numpy() * 1
        + (
            (f["c_acctbal"] - f["c_acctbal_b"]).abs().to_numpy() <= 500.0
        ) * 1
    ).astype(np.int64)
    f["score"] = score
    out = f.loc[f["score"] >= 3, ["name_a", "name_b", "score"]]
    return out.sort_values(
        ["name_a", "name_b"], kind="mergesort"
    ).reset_index(drop=True)


SQL_CUSTOMER_LINKAGE = """
WITH w AS (SELECT DISTINCT c_name AS w FROM customer),
p AS (
  SELECT a.w AS name_a, b.w AS name_b
  FROM w a JOIN w b ON a.w < b.w AND levenshtein(a.w, b.w) = 1
)
SELECT p.name_a, p.name_b,
       CAST(CASE WHEN ca.c_nationkey = cb.c_nationkey THEN 2 ELSE 0 END
          + CASE WHEN ca.c_mktsegment = cb.c_mktsegment THEN 1 ELSE 0 END
          + CASE WHEN abs(ca.c_acctbal - cb.c_acctbal) <= 500 THEN 1 ELSE 0 END
         AS BIGINT) AS score
FROM p JOIN customer ca ON ca.c_name = p.name_a
       JOIN customer cb ON cb.c_name = p.name_b
WHERE CASE WHEN ca.c_nationkey = cb.c_nationkey THEN 2 ELSE 0 END
    + CASE WHEN ca.c_mktsegment = cb.c_mktsegment THEN 1 ELSE 0 END
    + CASE WHEN abs(ca.c_acctbal - cb.c_acctbal) <= 500 THEN 1 ELSE 0 END >= 3
"""


def q_daily_active_users(sf_dir: str):
    """DAU / trailing-7-day WAU / stickiness per day — the engagement
    report that needs a WINDOWED DISTINCT COUNT (no SQL window frame
    expresses it; engines resort to self-joins).  Plan: user-day dedup
    inside user-hash partitions, then each user-day fans out to its <= 7
    trailing day-buckets (bucket set pruned to OBSERVED days via a tiny
    broadcast), a second (bucket, user) dedup inside bucket-hash
    partitions, and a count combiner.  Exchanges carry user-days x 7,
    never raw events; day arithmetic in integer days since epoch."""
    from ..stages.agg import combiner_agg

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def user_days(b: pd.DataFrame) -> pd.DataFrame:
        d = b["ts"].to_numpy(dtype="datetime64[D]").astype(np.int64)
        f = pd.DataFrame(
            {"user_id": b["user_id"].to_numpy(np.int64), "day": d}
        ).drop_duplicates()
        f["__p"] = (
            pd.util.hash_array(f["user_id"].to_numpy()) % np.uint64(32)
        ).astype(np.int64)
        return f

    ud = (
        ev.map_batches(user_days, batch_format="pandas")
        .groupby("__p")
        .map_groups(
            lambda g: g.drop_duplicates(["user_id", "day"])[["user_id", "day"]],
            batch_format="pandas",
        )
        .materialize()
    )
    days = np.sort(
        ud.map_batches(
            lambda b: pd.DataFrame({"day": b["day"].unique()}),
            batch_format="pandas",
        )
        .to_pandas()["day"]
        .unique()
    )
    days_ref = ray.put(set(int(x) for x in days))

    def fan_out(b: pd.DataFrame) -> pd.DataFrame:
        present = ray.get(days_ref)
        u = np.repeat(b["user_id"].to_numpy(np.int64), 7)
        d = np.repeat(b["day"].to_numpy(np.int64), 7) + np.tile(
            np.arange(7, dtype=np.int64), len(b)
        )
        keep = np.fromiter((int(x) in present for x in d), bool, len(d))
        f = pd.DataFrame({"bucket": d[keep], "user_id": u[keep]}).drop_duplicates()
        f["__bp"] = (
            pd.util.hash_array(f["bucket"].to_numpy()) % np.uint64(32)
        ).astype(np.int64)
        return f

    wau = (
        combiner_agg(
            ud.map_batches(fan_out, batch_format="pandas")
            .groupby("__bp")
            .map_groups(
                lambda g: g.drop_duplicates(["bucket", "user_id"])[
                    ["bucket", "user_id"]
                ],
                batch_format="pandas",
            ),
            ["bucket"],
            [("wau", None, "count")],
        )
        .to_pandas()
        .rename(columns={"bucket": "day_num"})
    )
    dau = (
        _combiner_agg(ud, ["day"], [("dau", None, "count")])
        .rename(columns={"day": "day_num"})
    )
    out = dau.merge(wau, on="day_num")
    out["day_num"] = out["day_num"].astype(np.int64)
    out["dau"] = out["dau"].astype(np.int64)
    out["wau"] = out["wau"].astype(np.int64)
    out["stickiness"] = round_half_away(
        out["dau"].to_numpy(np.float64) / out["wau"].to_numpy(np.float64), 4
    )
    return out.sort_values("day_num", kind="mergesort").reset_index(drop=True)


SQL_DAILY_ACTIVE_USERS = """
WITH ud AS (
  SELECT DISTINCT CAST(ts AS DATE) - DATE '1970-01-01' AS day, user_id
  FROM events
), days AS (
  SELECT DISTINCT day FROM ud
), wau AS (
  SELECT d.day AS day_num, CAST(count(DISTINCT u.user_id) AS BIGINT) AS wau
  FROM days d JOIN ud u ON u.day BETWEEN d.day - 6 AND d.day
  GROUP BY 1
), dau AS (
  SELECT day AS day_num, CAST(count(*) AS BIGINT) AS dau FROM ud GROUP BY 1
)
SELECT CAST(day_num AS BIGINT) AS day_num, dau, wau,
       round(CAST(dau AS DOUBLE) / wau, 4) AS stickiness
FROM dau JOIN wau USING (day_num)
"""
