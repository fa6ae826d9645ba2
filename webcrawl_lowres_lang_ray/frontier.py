"""The distributed crawl: URL frontier + fetch scheduler as Ray Data waves.

Reproduces the oracle's semantics (oracle.py — itself the reference's
num_threads=1 FIFO semantics) with Ray Data execution per wave:

  frontier parquet (sorted spill)                        [checkpoint.py]
    -> politeness admission   groupby(host) head-k by seq [state/politeness.py]
    -> relative-URL skip + robots gate                    [state/robots.py, in
                                                           the state actor]
    -> fetch = partitioned hash join vs the page table
       (pre-partitioned by HOST-hash bucket — the crawl's
       single partitioning key); bucket groups LPT-bin-
       packed into ~4x cluster-CPU tasks                   [_wave_task]
    -> doc-type dispatch (M5) + extract + clean + score   [one fused Arrow
       + link-extract                                      stage, model
                                                           cached per worker]
    -> ledger partition write  ledger/wave=N/ (per bucket)
    -> candidate prep: excluded-domain filter, hashes,     [per-wave-task
       relative/robots gates (one robots RPC per task)      prep]
    -> candidate insertion: within-wave dedup
       (first occurrence by (parent_seq, link_idx)), seen probe
       (the one state actor owns every cuckoo-filter shard
       and the robots cache),
       deterministic global seq assignment                 [_insert_*]
    -> next frontier partition + manifest + seen snapshots

Determinism: execution order inside a wave is free (preserve_order=False);
logical order is restored by explicit sort keys — admission by ``seq``,
insertion rank by ``(parent_seq, link_idx)`` — so the ledger equals the
single-threaded oracle's bit-for-bit (tests/test_crawl_conformance.py).

Scale notes (the 100 TB story):
* Above ``DRIVER_PATH_MAX_ROWS`` pending rows a wave runs FULLY STREAMED
  (_run_wave_streamed): the frontier is read as a Dataset, admission
  partitions write deferred rows and norun ledger rows straight to their
  next-wave partition files, the fused fetch/score stage consumes zero-copy
  Arrow batches, and insertion's rank tasks write the new frontier
  partitions themselves.  Driver traffic per wave: the O(rank-buckets) seq
  histogram, per-partition counts, and Parquet footers — never a frontier
  frame (tests/test_crawl_conformance.py pins this with a to_pandas row cap
  and asserts bit-for-bit ledger equality with the driver fast path, which
  small waves still take because a cluster fan-out costs more than the
  work).
* The page-table side of fetch is only ever read one host-hash bucket at a
  time, and inside it only the url-sorted row groups whose footer
  statistics can hold the requested URLs (sources/fetch.py) — no stage
  scans the whole corpus.
* html bytes flow fetch->score inside one streaming execution as Arrow
  binary columns (never pandas object columns) and are dropped before any
  write; the ledger keeps text, hashes and metrics only.
* Admission orders by (priority DESC, seq ASC) — the priority-frontier
  hook; all-default priorities degrade to exact reference FIFO parity.
* Seen-set checkpoints are written by the state actor itself, one delta
  file per shard (snapshot_to), so 10^10-key snapshots never route through
  the driver.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from . import checkpoint as ckpt
from .config import CrawlConfig
from .functions.hashing import (
    hex_to_digests,
    host_bucket_batch,
    md5_batch,
    sha1_batch,
)
from .functions.extract_doc import extract_text_auto, sniff_doc_type
from .functions.html_text import extract_text_and_links
from .functions.scoring import LangScoringModel
from .functions.urltools import excluded_mask_batch, host_batch, relative_mask_batch, canonicalize_batch
from .sources.synth import load_lexicon
from .state.robots import create_robots_actors, robots_blocked_mask
from .state.seen import (
    create_seen_shards,
    restore_all_from,
    seen_add,
    seen_probe_new,
    snapshot_all_to,
)

# switch to the distributed admission/insertion path above this many rows
DRIVER_PATH_MAX_ROWS = 200_000
# politeness-bound tail waves (a few URLs per hot host) run locally with the
# SAME kernels — paying a cluster fan-out for <~a hundred rows costs more
# than the work; any real scheduler makes this call.  Conformance tests force
# both paths and assert identical ledgers.
SMALL_WAVE_MAX_ROWS = 128
_RANK_BUCKET = 256

FRONTIER_FIELDS = [
    ("seq", pa.int64()),
    ("url", pa.string()),
    ("url_hash", pa.string()),
    ("canon_sha1", pa.string()),
    ("host", pa.string()),
    ("bucket", pa.int32()),
    ("query_id", pa.int64()),
    ("engine", pa.string()),
    ("is_rel", pa.bool_()),
    ("robots_blocked", pa.bool_()),
    # priority frontier hook (north star): admission orders by
    # (priority DESC, seq ASC); default 0 everywhere == reference FIFO parity
    ("priority", pa.int64()),
]
FRONTIER_SCHEMA = pa.schema(FRONTIER_FIELDS)

LEDGER_META_COLS = [
    "seq", "url", "url_hash", "canon_sha1", "host", "query_id", "engine",
    "wave", "downloaded", "downloaded_failed", "handled", "skipped_relative",
    "robots_blocked", "doc_type", "file_hash", "text",
    "nlp_full_lang", "nlp_full_confidence", "nlp_para_count",
    "nlp_para_count_lrl", "nlp_para_perc_lrl", "rejected",
]

LEDGER_DTYPES = {
    "seq": "int64", "url": "object", "url_hash": "object",
    "canon_sha1": "object", "host": "object", "query_id": "int64",
    "engine": "object", "wave": "int64", "downloaded": "bool",
    "downloaded_failed": "bool", "handled": "bool",
    "skipped_relative": "bool", "robots_blocked": "bool",
    "doc_type": "object", "file_hash": "object", "text": "object",
    "nlp_full_lang": "object", "nlp_full_confidence": "float64",
    "nlp_para_count": "int64", "nlp_para_count_lrl": "int64",
    "nlp_para_perc_lrl": "float64", "rejected": "bool",
}


# CrawlStats counter -> the ledger bool column it counts.  Every ledger
# partition carries its own sums in its Parquet footer (key-value metadata
# under _LEDGER_COUNTS_KEY); after each wave the driver adds that wave's
# footers to CrawlStats and the manifest — no row data is read back.
LEDGER_COUNTERS = {
    "fetched": "downloaded",
    "failed": "downloaded_failed",
    "rejected": "rejected",
    "skipped_relative": "skipped_relative",
    "robots_blocked": "robots_blocked",
}
_LEDGER_COUNTS_KEY = b"ledger_counts"


def _write_ledger_part(tbl: pa.Table, path: str) -> None:
    """Write one ledger partition with its counter sums in the footer."""
    counts = {k: int(pc.sum(tbl.column(c)).as_py() or 0) for k, c in LEDGER_COUNTERS.items()}
    meta = {**(tbl.schema.metadata or {}), _LEDGER_COUNTS_KEY: json.dumps(counts).encode()}
    pq.write_table(tbl.replace_schema_metadata(meta), path)


def _wave_counts(ledger_dir: str) -> dict[str, int]:
    """One wave's ledger counters, summed from its partitions' footers."""
    total = dict.fromkeys(LEDGER_COUNTERS, 0)
    for f in os.listdir(ledger_dir):
        if f.endswith(".parquet"):
            meta = pq.read_metadata(os.path.join(ledger_dir, f)).metadata
            for k, v in json.loads(meta[_LEDGER_COUNTS_KEY]).items():
                total[k] += v
    return total


def empty_ledger_df(columns: list[str] | None = None) -> pd.DataFrame:
    """Zero-row ledger frame with the REAL column dtypes (a 0-wave crawl
    must not hand consumers an all-object schema)."""
    return pd.DataFrame(
        {c: pd.Series(dtype=LEDGER_DTYPES[c]) for c in (columns or LEDGER_META_COLS)}
    )


@dataclass
class CrawlStats:
    waves: int = 0
    inserted: int = 0
    fetched: int = 0
    failed: int = 0
    skipped_relative: int = 0
    robots_blocked: int = 0
    rejected: int = 0
    elapsed_sec: float = 0.0
    per_wave: list[dict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# scorer-model cache: one model per worker process (stateless wave tasks
# reuse worker processes, so the model builds once per worker per crawl).
# Each run_crawl puts its lexicon once under one fixed cfg, so the lexicon
# ObjectRef alone identifies the model and one slot is enough.
# ---------------------------------------------------------------------------
_MODEL_CACHE: tuple[str, LangScoringModel] | None = None


def _get_model(lexicon_ref, cfg: CrawlConfig) -> LangScoringModel:
    global _MODEL_CACHE
    key = lexicon_ref.hex()
    if _MODEL_CACHE is None or _MODEL_CACHE[0] != key:
        _MODEL_CACHE = (key, LangScoringModel(ray.get(lexicon_ref), cfg))
    return _MODEL_CACHE[1]


# ---------------------------------------------------------------------------
# per-wave stages
# ---------------------------------------------------------------------------

def _admit_driver(df: pd.DataFrame, k: int) -> pd.DataFrame:
    df = df.sort_values(
        ["priority", "seq"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    df["admit"] = df.groupby("host").cumcount() < k
    return df


def _wave_task(pages_dir: str, lexicon_ref, cfg: CrawlConfig, wave: int, ledger_dir: str, robots_actors=None, fetcher=None):
    """The wave body as ONE task over a batch of host buckets.  Per bucket:
    partitioned fetch join -> extract/score -> write this bucket's ledger
    partition (resumable layout: ledger/wave=N/part-bKKK-sSSSSSSSSS.parquet,
    idempotent overwrite).  Then per-wave-task prep: explode the links of
    every bucket once and prepare them as one candidate frame (excluded
    filter, canon/sha1/md5/host/bucket, one robots RPC).

    Arrow-native: the batch flows in as a zero-copy pyarrow Table
    (``batch_format="pyarrow"`` at both call sites), the page-table html
    bytes go straight from the Parquet read into the scorer, and the ledger
    partition is written as an Arrow table — the wide binary/text payloads
    never pass through pandas object columns.  Only the small prepared
    candidate rows (urls + hashes + ints) come out as a DataFrame.

    Fusing the chain keeps each wave at a single Ray Data execution and a
    single driver pull of *prepared candidate* rows, which is what makes the
    wave loop's serial fraction small enough to scale (BASELINE.md scaling
    criterion)."""

    from .sources.fetch import PageTableFetcher

    page_fetcher = fetcher if fetcher is not None else PageTableFetcher(pages_dir)

    def one_bucket(tbl: pa.Table) -> list[list[str]]:
        import hashlib

        bucket = int(tbl.column("bucket")[0].as_py())
        urls = tbl.column("url").to_pylist()
        # the fetch seam (sources/fetch.py): bucket-pruned page-table read
        # by default, real urllib HTTP when an HttpFetcher is plugged in;
        # URLs absent from the mapping are failed fetches either way
        web: dict[str, tuple] = page_fetcher.fetch(bucket, urls)
        model = _get_model(lexicon_ref, cfg)
        n = len(urls)
        downloaded = np.zeros(n, dtype=bool)
        failed = np.zeros(n, dtype=bool)
        handled = np.zeros(n, dtype=bool)
        rejected = np.zeros(n, dtype=bool)
        doc_type = np.full(n, "", dtype=object)
        file_hash = np.full(n, "", dtype=object)
        text_col = np.full(n, "", dtype=object)
        full_lang = np.full(n, "", dtype=object)
        full_conf = np.zeros(n, dtype=np.float64)
        para_count = np.zeros(n, dtype=np.int64)
        para_lrl = np.zeros(n, dtype=np.int64)
        para_perc = np.zeros(n, dtype=np.float64)
        links: list[list[str]] = [()] * n  # type: ignore[assignment]

        for i, u in enumerate(urls):
            hit = web.get(u)
            if hit is None or not isinstance(hit[0], (bytes, bytearray)):
                failed[i] = True  # miss -> failed fetch
                links[i] = []
                continue
            html, ct = hit
            downloaded[i] = True
            dt = sniff_doc_type(ct)
            doc_type[i] = dt or ""
            file_hash[i] = hashlib.sha256(html).hexdigest()
            if dt == "html":
                text, links[i] = extract_text_and_links(html)
            else:
                # pdf/docx extract through PyPDF2/python-docx when importable,
                # else the stdlib pdfmini/docxmini kernels (real text for the
                # Flate/OOXML subset).  Unknown types return None — the
                # reference's extract-returns-None path (nlp.py:113-115,
                # lrl-crawler.py:431-433): score as empty text.  Non-html
                # rows contribute no links either way.
                try:
                    text = extract_text_auto(html, dt) if dt else None
                except NotImplementedError:
                    text = None
                text = text or ""
                links[i] = []
            text_col[i] = text
            sr = model.score_text(text)
            handled[i] = True
            full_lang[i] = sr.full_lang or ""
            full_conf[i] = sr.full_conf
            para_count[i] = sr.para_count
            para_lrl[i] = sr.para_count_lrl
            para_perc[i] = sr.para_perc_lrl
            rejected[i] = sr.rejected

        ledger_tbl = pa.table(
            {
                "seq": tbl.column("seq"),
                "url": tbl.column("url"),
                "url_hash": tbl.column("url_hash"),
                "canon_sha1": tbl.column("canon_sha1"),
                "host": tbl.column("host"),
                "query_id": tbl.column("query_id"),
                "engine": tbl.column("engine"),
                "wave": pa.array(np.full(n, wave, dtype=np.int64)),
                "downloaded": pa.array(downloaded),
                "downloaded_failed": pa.array(failed),
                "handled": pa.array(handled),
                "skipped_relative": pa.array(np.zeros(n, dtype=bool)),
                "robots_blocked": pa.array(np.zeros(n, dtype=bool)),
                "doc_type": pa.array(doc_type, type=pa.string()),
                "file_hash": pa.array(file_hash, type=pa.string()),
                "text": pa.array(text_col, type=pa.string()),
                "nlp_full_lang": pa.array(full_lang, type=pa.string()),
                "nlp_full_confidence": pa.array(full_conf),
                "nlp_para_count": pa.array(para_count),
                "nlp_para_count_lrl": pa.array(para_lrl),
                "nlp_para_perc_lrl": pa.array(para_perc),
                "rejected": pa.array(rejected),
            }
        ).select(LEDGER_META_COLS)
        # filename carries the slice's min seq: on the streamed path a
        # bucket's rows may arrive split across blocks, and two disjoint
        # slices always have distinct minima — so names never collide and a
        # retried task deterministically rewrites exactly its own file
        min_seq = int(tbl.column("seq").to_numpy().min())
        _write_ledger_part(
            ledger_tbl,
            os.path.join(ledger_dir, f"part-b{bucket:03d}-s{min_seq:09d}.parquet"),
        )
        return links

    def fn(batch) -> pd.DataFrame:
        if isinstance(batch, pd.DataFrame):  # driver local fast path
            batch = pa.Table.from_pandas(batch, preserve_index=False)
        if "fetch_part" in batch.column_names:  # streamed-path partition tag
            batch = batch.drop_columns(["fetch_part"])
        if batch.num_rows == 0:
            return _empty_candidates_df()
        buckets = batch.column("bucket").to_numpy()
        if (buckets[1:] < buckets[:-1]).any():
            order = np.argsort(buckets, kind="stable")
            batch = batch.take(pa.array(order))
            buckets = buckets[order]
        bounds = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1], True])
        # fetch, score and the ledger write stay per bucket; the links come
        # back in batch row order, so one explode and one candidate prep
        # (one robots RPC) serve the whole task
        links = [
            l
            for a, b in zip(bounds[:-1], bounds[1:])
            for l in one_bucket(batch.slice(a, b - a))
        ]
        counts = np.fromiter(map(len, links), dtype=np.int64, count=len(links))
        total = int(counts.sum())
        starts = np.cumsum(counts) - counts
        cand = pd.DataFrame(
            {
                "url": pd.Series([h for l in links for h in l], dtype="object"),
                "query_id": np.repeat(batch.column("query_id").to_numpy(), counts),
                "engine": pd.Series(["link"] * total, dtype="object"),
                "ord1": np.repeat(batch.column("seq").to_numpy(), counts),
                "ord2": np.arange(total, dtype=np.int64) - np.repeat(starts, counts),
            }
        )
        return _prepare_candidates(cand, cfg, robots_actors)

    return fn


def _empty_candidates_df() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "url": pd.Series(dtype="object"),
            "query_id": pd.Series(dtype="int64"),
            "engine": pd.Series(dtype="object"),
            "ord1": pd.Series(dtype="int64"),
            "ord2": pd.Series(dtype="int64"),
            "canon_sha1": pd.Series(dtype="object"),
            "url_hash": pd.Series(dtype="object"),
            "host": pd.Series(dtype="object"),
            "bucket": pd.Series(dtype="int32"),
            "is_rel": pd.Series(dtype="bool"),
            "robots_blocked": pd.Series(dtype="bool"),
            "priority": pd.Series(dtype="int64"),
        }
    )


def _norun_ledger_rows(df: pd.DataFrame, wave: int, relative: np.ndarray, robots: np.ndarray) -> pd.DataFrame:
    """Ledger rows for admitted URLs that never fetch (relative / robots)."""
    out = df.copy()
    out["wave"] = np.int64(wave)
    out["downloaded"] = False
    out["downloaded_failed"] = False
    out["handled"] = True
    out["skipped_relative"] = relative
    out["robots_blocked"] = robots
    out["doc_type"] = ""
    out["file_hash"] = ""
    out["text"] = ""
    out["nlp_full_lang"] = ""
    out["nlp_full_confidence"] = 0.0
    out["nlp_para_count"] = np.int64(0)
    out["nlp_para_count_lrl"] = np.int64(0)
    out["nlp_para_perc_lrl"] = 0.0
    out["rejected"] = False
    return out[LEDGER_META_COLS]


# ---------------------------------------------------------------------------
# candidate insertion (excluded filter -> dedup -> seen -> seq assignment)
# ---------------------------------------------------------------------------

def _prepare_candidates(
    df: pd.DataFrame, cfg: CrawlConfig, robots_actors=None
) -> pd.DataFrame:
    """Vectorized: drop excluded, add canon/sha1/md5/host/bucket columns plus
    the pre-evaluated admission gates (is_rel, robots_blocked).

    Gate precomputation here — inside the distributed wave task — is what
    keeps the per-wave driver section flat: every candidate is gated exactly
    once at insertion instead of re-parsed on the driver at admission."""
    if len(df) == 0:
        return _empty_candidates_df()
    urls = df["url"].to_numpy()
    keep = ~excluded_mask_batch(urls, cfg.excluded_domains)
    df = df.loc[keep].copy()
    if len(df) == 0:
        return _empty_candidates_df()
    urls = df["url"].to_numpy()
    canon = canonicalize_batch(urls)
    sha1 = sha1_batch(canon)
    df["canon_sha1"] = sha1
    df["url_hash"] = md5_batch(urls)
    df["host"] = host_batch(urls)
    df["bucket"] = host_bucket_batch(df["host"].to_numpy(), cfg.num_url_buckets)
    rel = relative_mask_batch(urls)
    df["is_rel"] = rel
    blocked = np.zeros(len(df), dtype=bool)
    absolute = ~rel
    if cfg.apply_robots and robots_actors and absolute.any():
        # relative links never fetch: only absolute ones ask the robots cache
        blocked[absolute] = robots_blocked_mask(robots_actors, list(urls[absolute]))
    df["robots_blocked"] = blocked
    if "priority" not in df.columns:  # seeds may carry their own priority
        df["priority"] = np.int64(cfg.link_priority)
    return df


def _insert_driver(
    cand: pd.DataFrame, seen_shards, base_seq: int, cfg: CrawlConfig
) -> pd.DataFrame:
    """Driver insertion path: dedup + seen-probe + seq over PREPARED
    candidates (columns of _empty_candidates_df; prep happens inside the
    distributed wave task).

    Seen-marking happens AFTER the ``max_pages`` budget, matching the
    oracle's order (oracle.py:106-112: budget return precedes seen.add) —
    a budget-dropped candidate is re-crawlable on a raised-budget resume."""
    if len(cand) == 0:
        return _empty_frontier_df()
    # within-wave dedup: first occurrence by (ord1, ord2)
    cand = cand.sort_values(["ord1", "ord2"], kind="mergesort")
    cand = cand.drop_duplicates(subset=["canon_sha1"], keep="first")
    new_mask = seen_probe_new(seen_shards, hex_to_digests(cand["canon_sha1"].to_numpy()))
    cand = cand.loc[new_mask]
    cand = cand.reset_index(drop=True)
    cand["seq"] = base_seq + np.arange(len(cand), dtype=np.int64)
    if cfg.max_pages:  # global insertion budget: only seqs < max_pages exist
        cand = cand.loc[cand["seq"] < cfg.max_pages]
    if len(cand):
        seen_add(seen_shards, hex_to_digests(cand["canon_sha1"].to_numpy()))
    return cand[[n for n, _ in FRONTIER_FIELDS]]


def _insert_streamed(
    cand_ds: "ray.data.Dataset",
    seen_shards,
    base_seq: int,
    cfg: CrawlConfig,
    write_dir: str,
    sections: dict | None = None,
) -> int:
    """Distributed insertion over PREPARED candidates, one shuffle: candidates
    are partitioned by a digest key, and each partition task then runs the
    whole chain vectorized — within-wave first-occurrence dedup (via
    hash-partitioned drop_duplicates, NOT groupby(key).map_groups — per-group
    dispatch at 10^5+ distinct urls costs ~ms each), one READ-ONLY seen
    probe RPC per partition, and the rank columns for seq assignment.

    The surviving rows are written as next-frontier partition files
    (``insert-pNNN.parquet``, deterministic names => idempotent re-run)
    directly by the rank tasks — the new frontier rows never visit the
    driver; only the O(rank-buckets) histogram does.  Returns the number
    of rows inserted (after the ``max_pages`` seq budget, if set)."""

    def add_part(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return b.assign(dedup_part=pd.Series(dtype="int64"))
        b = b.copy()
        mat = hex_to_digests(b["canon_sha1"].to_numpy())
        # bytes 12:16 — independent of both the seen-shard bytes (trailing 4)
        # and the cuckoo bucket bytes (leading)
        b["dedup_part"] = (
            mat[:, 12:16].copy().view("<u4").ravel() % np.uint32(64)
        ).astype(np.int64)
        return b

    def dedup_probe_rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ord1", "ord2"], kind="mergesort")
        g = g.drop_duplicates("canon_sha1", keep="first").drop(
            columns=["dedup_part"]
        )
        # READ-ONLY probe: a Ray task retry re-probes and gets the same
        # verdicts (no state mutated from a retryable task).  Keys register
        # later, in assign_write, only for rows that actually insert — which
        # also matches the oracle's max_pages order (budget before seen.add).
        new = seen_probe_new(seen_shards, hex_to_digests(g["canon_sha1"].to_numpy()))
        g = g.loc[new]
        if len(g) == 0:
            return g.assign(
                rank_bucket=pd.Series(dtype="int64"),
                rank_part=pd.Series(dtype="int64"),
            )
        g = g.assign(rank_bucket=(g["ord1"] // _RANK_BUCKET).astype(np.int64))
        # all rows of one rank_bucket land in one partition (the pattern:
        # 64 group dispatches total, vectorized pandas inside — NOT one
        # map_groups per rank bucket, which is ~100ms each at 10^3+ buckets)
        g["rank_part"] = (
            pd.util.hash_array(g["rank_bucket"].to_numpy(np.int64)) % 64
        ).astype(np.int64)
        return g

    t0 = time.time()
    survivors = (
        cand_ds.map_batches(add_part, batch_format="pandas")
        .groupby("dedup_part")
        .map_groups(dedup_probe_rank, batch_format="pandas")
        .materialize()
    )
    if sections is not None:
        sections["exec_main"] = round(time.time() - t0, 3)
    t0 = time.time()

    # pass 1: per-batch rank-bucket histograms -> tiny driver merge -> prefix
    # offsets, broadcast back
    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["rank_bucket"].value_counts()
        return pd.DataFrame({"rank_bucket": vc.index.to_numpy(np.int64),
                             "n": vc.to_numpy(np.int64)})

    hist = survivors.map_batches(hist_partial, batch_format="pandas").to_pandas()
    if sections is not None:
        sections["exec_hist"] = round(time.time() - t0, 3)
    if len(hist) == 0:  # every candidate excluded / duplicate / already seen
        return 0
    hist = hist.groupby("rank_bucket")["n"].sum().sort_index()
    starts = np.cumsum(hist.to_numpy()) - hist.to_numpy()
    offsets = dict(zip(hist.index.to_numpy(), starts))
    offsets_ref = ray.put(offsets)
    max_pages = cfg.max_pages

    # pass 2: per-partition vectorized local rank + broadcast global offset;
    # each rank partition writes its own frontier file — no driver pull
    def assign_write(g: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(offsets_ref)
        part = int(g["rank_part"].iloc[0])
        g = g.sort_values(["rank_bucket", "ord1", "ord2"], kind="mergesort")
        counts = g.groupby("rank_bucket", sort=True).size()
        seq = np.concatenate(
            [offs[int(rb)] + np.arange(c, dtype=np.int64) for rb, c in counts.items()]
        ) if len(counts) else np.empty(0, dtype=np.int64)
        g["seq"] = base_seq + seq
        if max_pages:
            g = g.loc[g["seq"] < max_pages]
        out = g[[n for n, _ in FRONTIER_FIELDS]]
        pq.write_table(
            pa.Table.from_pandas(out, schema=FRONTIER_SCHEMA, preserve_index=False),
            os.path.join(write_dir, f"insert-p{part:03d}.parquet"),
        )
        if len(out):
            # register ONLY rows that actually inserted (post-budget) — the
            # retry-safe half of the probe/add split: add_blob is an
            # idempotent set union, and the file rewrite above is
            # deterministic, so a retried task cannot corrupt state.
            seen_add(seen_shards, hex_to_digests(out["canon_sha1"].to_numpy()))
        return pd.DataFrame({"n": [np.int64(len(out))]})

    t0 = time.time()
    ns = (
        survivors.groupby("rank_part")
        .map_groups(assign_write, batch_format="pandas")
        .to_pandas()
    )
    if sections is not None:
        sections["exec_assign"] = round(time.time() - t0, 3)
    return int(ns["n"].sum()) if len(ns) else 0


def _empty_frontier_df() -> pd.DataFrame:
    def dt(t):
        if t == pa.string():
            return "object"
        if t == pa.int32():
            return "int32"
        if t == pa.bool_():
            return "bool"
        return "int64"

    return pd.DataFrame({name: pd.Series(dtype=dt(t)) for name, t in FRONTIER_FIELDS})


def _clear_dir(path_dir: str) -> None:
    """Reset a per-wave partition directory: re-running a killed wave must
    not leave orphan files from the partial attempt (file names can differ
    between the driver and streamed paths)."""
    if os.path.isdir(path_dir):
        shutil.rmtree(path_dir)
    os.makedirs(path_dir, exist_ok=True)


def _write_frontier(df: pd.DataFrame, path_dir: str) -> None:
    _clear_dir(path_dir)
    tbl = pa.Table.from_pandas(df[ [n for n,_ in FRONTIER_FIELDS] ], schema=FRONTIER_SCHEMA, preserve_index=False)
    pq.write_table(tbl, os.path.join(path_dir, "part-0.parquet"))


def _frontier_row_count(path_dir: str) -> int:
    """Pending size from Parquet footers only — no row data read."""
    n = 0
    for f in os.listdir(path_dir):
        if f.endswith(".parquet"):
            n += pq.read_metadata(os.path.join(path_dir, f)).num_rows
    return n


def _from_pandas_chunked(df: pd.DataFrame, nchunks: int = 64) -> "ray.data.Dataset":
    """from_pandas of one frame yields ONE block (downstream runs on one
    core) — chunk first."""
    if len(df) == 0:
        return ray.data.from_pandas([df])
    parts = np.array_split(np.arange(len(df)), min(nchunks, len(df)))
    return ray.data.from_pandas(
        [df.iloc[ix].reset_index(drop=True) for ix in parts if len(ix)]
    )


# ---------------------------------------------------------------------------
# the fully-streamed wave (pending frontier never on the driver)
# ---------------------------------------------------------------------------

_SHUFFLE_PARTS = 64

# fetch/score task granularity: LPT bins per cluster CPU on the driver wave
# path.  Higher = smaller tasks = shorter wave-barrier drain when per-task
# cost varies (zipf text lengths, host jitter); lower = less dispatch
# overhead.  A 2x2 A/B at 16 cpus sf0.1 showed 8 within noise of (slightly
# behind) 4 — the drain is already bounded by LPT largest-first emission.
_LPT_TASKS_PER_CPU = 4


@ray.remote
def _apply_wave_block(fn, blk: pd.DataFrame) -> pd.DataFrame:
    """One packed wave block through the fused fetch/score kernel (the
    raw-task dispatch of the driver-path wave)."""
    return fn(blk)


def _run_wave_streamed(
    out_dir: str,
    pages_dir: str,
    wave: int,
    cfg: CrawlConfig,
    lexicon_ref,
    seen_shards,
    robots_actors,
    next_seq: int,
    sections: dict | None = None,
    fetcher=None,
) -> tuple[int, int]:
    """One politeness wave as Datasets end-to-end.  The driver never holds a
    frontier frame: admission partitions route deferred rows and norun ledger
    rows straight to their next-wave partition files, to-fetch rows flow into
    the fused fetch/score/ledger-write stage, and insertion writes the new
    frontier rows from its rank tasks.  Driver traffic per wave: the
    O(rank-buckets) seq histogram, per-partition row counts, Parquet footer
    reads.  Returns (inserted, pending_next).

    ONE shuffle feeds admission AND fetch: the admission partition key is the
    host-hash page bucket (every URL of a host shares a bucket — per-host
    politeness stays exact), so admit_route's output is already page-bucket-
    aligned and flows straight into the fused fetch/score stage as zero-copy
    Arrow with no second exchange."""
    frontier_path = ckpt.wave_dir(out_dir, "frontier", wave)
    next_frontier = ckpt.wave_dir(out_dir, "frontier", wave + 1)
    ledger_dir = ckpt.wave_dir(out_dir, "ledger", wave)
    _clear_dir(next_frontier)
    _clear_dir(ledger_dir)

    k = cfg.per_host_per_wave
    fields = [n for n, _ in FRONTIER_FIELDS]
    cpus = int(ray.cluster_resources().get("CPU", 8))
    nparts = max(_SHUFFLE_PARTS, min(4 * cpus, cfg.num_url_buckets))
    # frontier rows are slim (~150 B) but each to-fetch row costs ~ms of
    # downstream fetch+score CPU: cap blocks at 1 MB so a hot admission
    # partition (one zipf-heavy host) splits into several fetch/score tasks
    # instead of one straggler serializing the wave barrier
    ctx = ray.data.DataContext.get_current()
    prev_max_block = ctx.target_max_block_size
    ctx.target_max_block_size = 1 << 20

    def add_admit_part(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return b.assign(admit_part=pd.Series(dtype="int64"))
        b = b.copy()
        b["admit_part"] = (
            b["bucket"].to_numpy(np.int64) % nparts
        ).astype(np.int64)
        return b

    def admit_route(g: pd.DataFrame) -> pd.DataFrame:
        """Per host-partition: politeness mark, then route — deferred rows to
        the next frontier partition, relative/robots rows to a norun ledger
        partition, to-fetch rows downstream.  All hosts of a row live in this
        partition, so the per-host budget is exact."""
        part = int(g["admit_part"].iloc[0])
        g = g.drop(columns=["admit_part"]).sort_values(
            ["priority", "seq"], ascending=[False, True], kind="mergesort"
        )
        admit = (g.groupby("host").cumcount() < k).to_numpy(bool)
        deferred = g.loc[~admit]
        pq.write_table(
            pa.Table.from_pandas(
                deferred[fields], schema=FRONTIER_SCHEMA, preserve_index=False
            ),
            os.path.join(next_frontier, f"deferred-p{part:03d}.parquet"),
        )
        adm = g.loc[admit]
        rel = adm["is_rel"].to_numpy(bool)
        rob = adm["robots_blocked"].to_numpy(bool)
        norun = rel | rob
        if norun.any():
            rows = _norun_ledger_rows(adm.loc[norun], wave, rel[norun], rob[norun])
            _write_ledger_part(
                pa.Table.from_pandas(rows, preserve_index=False),
                os.path.join(ledger_dir, f"norun-p{part:03d}.parquet"),
            )
        return adm.loc[~norun]

    wave_fn = _wave_task(pages_dir, lexicon_ref, cfg, wave, ledger_dir, robots_actors, fetcher=fetcher)

    candidates = (
        ray.data.read_parquet(frontier_path)
        .map_batches(add_admit_part, batch_format="pandas")
        .groupby("admit_part")
        .map_groups(admit_route, batch_format="pandas")
        # admission output is already bucket-aligned (admit_part = bucket %
        # nparts): the fused fetch/score stage consumes it block-by-block as
        # zero-copy Arrow, slicing per exact bucket inside the task — no
        # second shuffle
        .map_batches(wave_fn, batch_format="pyarrow", batch_size=None)
    )
    try:
        inserted = _insert_streamed(
            candidates, seen_shards, next_seq, cfg, next_frontier, sections
        )
    finally:
        ctx.target_max_block_size = prev_max_block
    return inserted, _frontier_row_count(next_frontier)


# ---------------------------------------------------------------------------
# the crawl driver
# ---------------------------------------------------------------------------

def run_crawl(
    corpus_dir: str,
    out_dir: str,
    cfg: CrawlConfig | None = None,
    resume: bool = False,
    fetcher=None,
) -> CrawlStats:
    """Run the full crawl; requires ray to be initialised by the caller.

    ``fetcher`` plugs the page-acquisition seam (sources/fetch.py):
    default = bucket-pruned page-table reads (PageTableFetcher); pass an
    HttpFetcher for live urllib fetches against a real / mirrored web."""
    cfg = cfg or CrawlConfig()
    pages_dir = os.path.join(corpus_dir, "pages")
    robots_path = os.path.join(corpus_dir, "robots.parquet") if cfg.apply_robots else None
    stats = CrawlStats()
    t0 = time.time()

    lexicon_ref = ray.put(load_lexicon(corpus_dir))
    seen_shards = create_seen_shards(cfg.num_seen_shards)
    robots_actors = (
        create_robots_actors(robots_path, seen_shards) if cfg.apply_robots else []
    )

    manifest = ckpt.latest_manifest(out_dir) if resume else None
    if manifest is not None:
        wave = manifest["wave"] + 1
        next_seq = manifest["next_seq"]
        stats.inserted = manifest["inserted"]
        # a manifest from before the counters were carried per wave lacks
        # some of them: those restart from 0 (the ledger is unaffected)
        for k in LEDGER_COUNTERS:
            setattr(stats, k, manifest.get(k, 0))
        restore_all_from(
            seen_shards, ckpt.seen_delta_paths(out_dir, wave, cfg.num_seen_shards)
        )
        pending_df = None  # read lazily if the wave takes the driver path
        pending_count = _frontier_row_count(ckpt.wave_dir(out_dir, "frontier", wave))
    else:
        ckpt.clear_output(out_dir)
        wave = 0
        # --- seed insertion (reference: query-gen + search stage seeds the
        # urls table in id order; here the seed list is the frontier bootstrap)
        seeds = pq.read_table(os.path.join(corpus_dir, "seeds.parquet")).to_pandas()
        seeds = seeds.sort_values("seq", kind="mergesort")
        cand = pd.DataFrame(
            {
                "url": seeds["url"],
                "query_id": seeds["query_id"].astype(np.int64),
                "engine": seeds["engine"],
                "ord1": seeds["seq"].astype(np.int64),
                "ord2": np.int64(0),
            }
        )
        # seeds default to priority 0 (they are not links — cfg.link_priority
        # must not apply, or engine and oracle diverge for link_priority != 0)
        cand["priority"] = (
            seeds["priority"].astype(np.int64)
            if "priority" in seeds.columns
            else np.int64(0)
        )
        pending_df = _insert_driver(
            _prepare_candidates(cand, cfg, robots_actors), seen_shards, 0, cfg
        )
        next_seq = int(len(pending_df))
        stats.inserted = next_seq
        pending_count = next_seq
        _write_frontier(pending_df, ckpt.wave_dir(out_dir, "frontier", 0))

    while pending_count > 0 and wave < cfg.max_waves:
        wave_t0 = time.time()
        sec = {}  # per-section timing -> manifest (scaling diagnostics)

        if pending_count > DRIVER_PATH_MAX_ROWS:
            # ---- fully-streamed wave: frontier never becomes a driver frame
            pending_df = None
            inserted, pending_next = _run_wave_streamed(
                out_dir, pages_dir, wave, cfg, lexicon_ref, seen_shards,
                robots_actors, next_seq, sections=sec, fetcher=fetcher,
            )
            admitted_n = pending_count - (pending_next - inserted)
            next_seq += inserted
            stats.inserted += inserted
            pending_count = pending_next
            sec["streamed_wave"] = round(time.time() - wave_t0, 3)
        else:
            # ---- driver fast path (small wave): same kernels, driver frame
            if pending_df is None:
                pending_df = _read_frontier(ckpt.wave_dir(out_dir, "frontier", wave))
            # 1. politeness admission ((priority, seq) order, per-host budget)
            marked = _admit_driver(pending_df, cfg.per_host_per_wave)
            admitted = marked.loc[marked["admit"]].drop(columns=["admit"])
            deferred = marked.loc[~marked["admit"]].drop(columns=["admit"])
            admitted_n = int(len(admitted))
            sec["admit"] = round(time.time() - wave_t0, 3)

            # 2. relative / robots gates (precomputed at candidate prep,
            # inside the distributed wave task — here just column reads)
            t_sec = time.time()
            rel_mask = admitted["is_rel"].to_numpy(dtype=bool)
            rob_mask = admitted["robots_blocked"].to_numpy(dtype=bool)
            norun_mask = rel_mask | rob_mask
            norun = admitted.loc[norun_mask]
            to_fetch = admitted.loc[~norun_mask]

            ledger_dir = ckpt.wave_dir(out_dir, "ledger", wave)
            _clear_dir(ledger_dir)
            if len(norun):
                norun_rows = _norun_ledger_rows(
                    norun, wave, rel_mask[norun_mask], rob_mask[norun_mask]
                )
                _write_ledger_part(
                    pa.Table.from_pandas(norun_rows, preserve_index=False),
                    os.path.join(ledger_dir, "norun.parquet"),
                )

            sec["gates"] = round(time.time() - t_sec, 3)
            t_sec = time.time()
            # 3. fetch -> extract -> score -> ledger write -> links: ONE fused
            # task (_wave_task) per packed block of buckets; per bucket it
            # reads exactly one page-table bucket file (partitioned hash
            # join, no sort shuffle) and writes its own ledger partition,
            # then returns the block's candidates from one per-wave-task prep.
            cand_df = _empty_candidates_df()
            wave_fn = _wave_task(pages_dir, lexicon_ref, cfg, wave, ledger_dir, robots_actors, fetcher=fetcher)
            if len(to_fetch) and len(to_fetch) <= SMALL_WAVE_MAX_ROWS:
                # local fast path: same kernel, no cluster fan-out, the whole
                # wave as one task
                cand_df = wave_fn(to_fetch)
            elif len(to_fetch):
                # task granularity is decoupled from the bucket count: bucket
                # groups are LPT-bin-packed into ~4x cluster CPUs blocks (a
                # task handles several buckets, still reading one bucket file
                # each), emitted largest-first so the wave barrier isn't
                # stretched by a big block landing last.  Hundreds of tiny
                # tasks would serialize on driver dispatch; a handful of huge
                # ones would straggle.
                groups = [
                    g.reset_index(drop=True)
                    for _, g in to_fetch.groupby("bucket", sort=True)
                ]
                cpus = int(ray.cluster_resources().get("CPU", 8))
                nbins = max(8, min(_LPT_TASKS_PER_CPU * cpus, len(groups)))
                bins: list[list[pd.DataFrame]] = [[] for _ in range(nbins)]
                sizes = np.zeros(nbins, dtype=np.int64)
                for g in sorted(groups, key=len, reverse=True):
                    i = int(sizes.argmin())
                    bins[i].append(g)
                    sizes[i] += len(g)
                order = np.argsort(-sizes)
                blocks = [
                    pd.concat(bins[i], ignore_index=True) for i in order if bins[i]
                ]
                sec["fs_pack"] = round(time.time() - t_sec, 3)
                t_fs = time.time()
                # raw-task scatter/gather: the blocks are already packed and
                # sit on the driver, and the wave is a fixed barrier — the
                # shape a Dataset adds nothing to but ~0.2 s of streaming-
                # executor spin-up per execution.  Gathering in submission
                # order keeps the candidate frame's order deterministic.
                # The streamed path (pending > DRIVER_PATH_MAX_ROWS) stays
                # fully Dataset-based.
                fn_ref = ray.put(wave_fn)  # serialize the closure once per wave
                parts = ray.get([_apply_wave_block.remote(fn_ref, b) for b in blocks])
                sec["fs_exec"] = round(time.time() - t_fs, 3)
                t_fs2 = time.time()
                parts = [p for p in parts if len(p)]
                cand_df = (
                    pd.concat(parts, ignore_index=True)
                    if parts else _empty_candidates_df()
                )
                sec["fs_pull"] = round(time.time() - t_fs2, 3)
            sec["fetch_score"] = round(time.time() - t_sec, 3)
            t_sec = time.time()

            # 4. candidate insertion + next frontier
            next_dir = ckpt.wave_dir(out_dir, "frontier", wave + 1)
            if len(cand_df) <= DRIVER_PATH_MAX_ROWS:
                new_rows = _insert_driver(cand_df, seen_shards, next_seq, cfg)
                inserted = int(len(new_rows))
                pending_df = pd.concat(
                    [deferred, new_rows], ignore_index=True
                ) if inserted else deferred.reset_index(drop=True)
                _write_frontier(pending_df, next_dir)
                pending_count = int(len(pending_df))
            else:
                # the link fan-out outgrew the driver: stream the insertion,
                # frontier goes back to Parquet partitions
                _write_frontier(deferred, next_dir)
                inserted = _insert_streamed(
                    _from_pandas_chunked(cand_df), seen_shards, next_seq, cfg, next_dir
                )
                pending_df = None
                pending_count = _frontier_row_count(next_dir)
            next_seq += inserted
            stats.inserted += inserted
            sec["insert"] = round(time.time() - t_sec, 3)

        # ---- checkpoint (common tail): counters from this wave's ledger
        # footers, actor-side seen snapshots, manifest
        t_sec = time.time()
        counts = _wave_counts(ckpt.wave_dir(out_dir, "ledger", wave))
        for k, v in counts.items():
            setattr(stats, k, getattr(stats, k) + v)
        snap_paths = snapshot_all_to(
            seen_shards,
            ckpt.seen_snapshot_paths(out_dir, wave + 1, cfg.num_seen_shards),
        )
        ckpt.write_manifest(
            out_dir,
            wave,
            {
                "wave": wave,
                "next_seq": next_seq,
                "inserted": stats.inserted,
                **{k: getattr(stats, k) for k in LEDGER_COUNTERS},
                "wave_counts": counts,
                "pending": int(pending_count),
                "seen_snapshots": snap_paths,
                "wave_sec": round(time.time() - wave_t0, 3),
                "sections": {**sec, "ckpt": round(time.time() - t_sec, 3)},
            },
        )
        stats.per_wave.append(
            {"wave": wave, "admitted": int(admitted_n), "pending": int(pending_count),
             "sec": round(time.time() - wave_t0, 3)}
        )
        wave += 1

    stats.waves = wave
    stats.elapsed_sec = time.time() - t0
    return stats


def _read_frontier(path_dir: str) -> pd.DataFrame:
    files = sorted(
        os.path.join(path_dir, f)
        for f in os.listdir(path_dir)
        if f.endswith(".parquet")
    )
    return pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()


def load_ledger(out_dir: str, include_pending: bool = True) -> pd.DataFrame:
    """Read the full ledger (all wave partitions), sorted by seq.

    With include_pending, frontier rows never fetched are appended with
    wave=-1 and all flags false — matching the oracle's ledger of inserted
    rows."""
    import glob

    parts = sorted(glob.glob(os.path.join(out_dir, "ledger", "wave=*", "*.parquet")))
    if parts:
        import pyarrow.dataset as pads

        # multithreaded C++ scan across the many per-bucket partition files
        ledger = pads.dataset(parts, format="parquet").to_table().to_pandas()
    else:
        ledger = empty_ledger_df()
    if include_pending:
        fdirs = sorted(glob.glob(os.path.join(out_dir, "frontier", "wave=*")))
        if fdirs:
            pend = _read_frontier(fdirs[-1])
            if len(pend):
                rows = _norun_ledger_rows(
                    pend, -1, np.zeros(len(pend), dtype=bool), np.zeros(len(pend), dtype=bool)
                )
                rows["handled"] = False
                rows["wave"] = np.int64(-1)
                # skip empty frames in the concat (pandas deprecation: empty
                # entries would otherwise influence result dtypes)
                ledger = (
                    pd.concat([ledger, rows], ignore_index=True)
                    if len(ledger)
                    else rows
                )
    ledger = ledger.sort_values("seq", kind="mergesort").reset_index(drop=True)
    return ledger[LEDGER_META_COLS]
