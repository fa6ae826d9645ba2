"""The distributed crawl: URL frontier + fetch scheduler as Ray Data waves.

Reproduces the oracle's semantics (oracle.py — itself the reference's
num_threads=1 FIFO semantics) with Ray Data execution per wave:

  frontier/wave=N parquet (sorted spill, read from disk)  [checkpoint.py]
    -> admission: per-host head-k by (priority, seq);     [admit_route]
       deferred rows -> frontier/wave=N+1, relative/robots
       rows -> a norun ledger partition
    -> fetch = partitioned hash join vs the page table
       (pre-partitioned by HOST-hash bucket — the crawl's
       single partitioning key)                            [_wave_task]
    -> doc-type dispatch (M5) + extract + clean + score   [one fused Arrow
       + link-extract; ledger/wave=N/ write per bucket     stage]
    -> candidate prep: excluded-domain filter, hashes,     [per-wave-task
       relative/robots gates (one robots RPC per task)      prep]
    -> insertion: within-wave dedup (first occurrence by   [insert_probe]
       (parent_seq, link_idx)) + read-only seen probe;
       then global seq, max_pages cut, next-frontier       [insert_commit]
       partition write, seen_add of the written rows
    -> manifest + seen snapshots

Every wave (and seed insertion) runs these same kernels; one size switch
chooses only the executor.  At most ``DRIVER_PATH_MAX_ROWS`` pending rows
(summed from the frontier's Parquet footers), the driver runs admission and
insertion as ONE partition (seq = base + arange), and fetch/score as raw Ray
tasks, one per cluster CPU, over LPT-packed bucket blocks.  Above it the
wave runs FULLY STREAMED (_run_wave_streamed): admission once per host
partition, the fused stage over zero-copy Arrow batches, insertion once per
digest partition with a rank-offset histogram for the seqs.  Driver traffic
per streamed wave: that O(rank-buckets) histogram, per-partition counts and
Parquet footers — never a frontier frame (tests/test_crawl_conformance.py
pins this with a to_pandas row cap, and pins bit-for-bit ledger equality
across the paths, including a crawl that switches between them).

Determinism: execution order inside a wave is free (preserve_order=False);
logical order is restored by explicit sort keys — admission by ``seq``,
insertion rank by ``(parent_seq, link_idx)`` — so the ledger equals the
single-threaded oracle's bit-for-bit (tests/test_crawl_conformance.py).

Scale notes (the 100 TB story):
* The page-table side of fetch is only ever read one host-hash bucket at a
  time, and inside it only the url-sorted row groups whose footer
  statistics can hold the requested URLs (sources/fetch.py) — no stage
  scans the whole corpus.
* html bytes flow fetch->score inside one streaming execution as Arrow
  binary columns (never pandas object columns) and are dropped before any
  write; the ledger keeps text, hashes and metrics only.
* All-default priorities degrade to exact reference FIFO parity.
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

# above this many pending rows a wave runs streamed: the frontier never
# becomes a driver frame (same kernels, other executor)
DRIVER_PATH_MAX_ROWS = 200_000
_RANK_BUCKET = 256

FRONTIER_SCHEMA = pa.schema([
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
])

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


def _frontier_table(df: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(
        df[FRONTIER_SCHEMA.names], schema=FRONTIER_SCHEMA, preserve_index=False
    ).replace_schema_metadata(None)


def _write_frontier_part(df: pd.DataFrame, path: str) -> None:
    pq.write_table(_frontier_table(df), path)


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
# scorer-model cache: one model per worker process.  Wave tasks run only in
# Ray workers (the driver never scores), and stateless tasks reuse worker
# processes, so the model builds once per worker that runs a wave task.
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

def admit_route(
    frontier: pd.DataFrame, k: int, wave: int, part: int, next_frontier: str, ledger_dir: str
) -> pd.DataFrame:
    """Admission over one frontier partition: politeness mark, then route —
    deferred rows to ``next_frontier/deferred-pNNN.parquet``, relative/robots
    rows to ``ledger_dir/norun-pNNN.parquet``, to-fetch rows back to the
    caller.  Every row of a host must be in this partition, so the per-host
    budget is exact.  Deterministic file names make a re-run idempotent."""
    g = frontier.sort_values(
        ["priority", "seq"], ascending=[False, True], kind="mergesort"
    )
    admit = (g.groupby("host").cumcount() < k).to_numpy(bool)
    _write_frontier_part(g.loc[~admit], os.path.join(next_frontier, f"deferred-p{part:03d}.parquet"))
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


def _wave_task(pages_dir: str, lexicon_ref, cfg: CrawlConfig, wave: int, ledger_dir: str, robots_actors=None, fetcher=None):
    """The wave body as ONE task over a batch of host buckets.  Per bucket:
    partitioned fetch join -> extract/score -> write this bucket's ledger
    partition (resumable layout: ledger/wave=N/part-bKKK-sSSSSSSSSS.parquet,
    idempotent overwrite).  Then per-wave-task prep: explode the links of
    every bucket once and prepare them as one candidate frame (excluded
    filter, canon/sha1/md5/host/bucket, one robots RPC).

    Arrow-native: the streamed path hands the batch in as a zero-copy
    pyarrow Table (``batch_format="pyarrow"``); the driver path's raw tasks
    hand in the admitted pandas rows (slim frontier columns), which are
    converted once.  The page-table html bytes go straight from the
    Parquet read into the scorer, and the ledger partition is written as an
    Arrow table — the wide binary/text payloads never pass through pandas
    object columns.  Only the small prepared candidate rows (urls + hashes
    + ints) come out as a DataFrame.

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
        if isinstance(batch, pd.DataFrame):  # the driver path's raw tasks
            batch = pa.Table.from_pandas(batch, preserve_index=False)
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


# prepared candidate rows (what a wave task returns and insertion takes):
# the frontier columns, with (parent seq, link index) in place of seq
CANDIDATE_SCHEMA = pa.schema(
    [("ord1", pa.int64()), ("ord2", pa.int64()), *(f for f in FRONTIER_SCHEMA if f.name != "seq")]
)


def _empty_candidates_df() -> pd.DataFrame:
    return CANDIDATE_SCHEMA.empty_table().to_pandas()


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


def pending_ledger_rows(pending: pd.DataFrame) -> pd.DataFrame:
    """Still-pending frontier rows as ledger rows: wave=-1 and every flag
    false, matching the oracle's ledger of inserted-but-never-run rows."""
    zeros = np.zeros(len(pending), dtype=bool)
    rows = _norun_ledger_rows(pending, -1, zeros, zeros)
    rows["handled"] = False
    return rows


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


def insert_probe(cand: pd.DataFrame, seen_shards) -> pd.DataFrame:
    """Insertion, first half, over PREPARED candidates (columns of
    _empty_candidates_df; prep happens inside the wave task): within-wave
    dedup — first occurrence by (ord1, ord2) — then one READ-ONLY seen
    probe.  Returns the new rows in (ord1, ord2) order.  A Ray task retry
    re-probes and gets the same verdicts: no state is mutated here."""
    cand = cand.sort_values(["ord1", "ord2"], kind="mergesort")
    cand = cand.drop_duplicates(subset=["canon_sha1"], keep="first")
    if len(cand) == 0:
        return cand
    return cand.loc[seen_probe_new(seen_shards, hex_to_digests(cand["canon_sha1"].to_numpy()))]


def insert_commit(new: pd.DataFrame, seq: np.ndarray, max_pages: int, path: str, seen_shards) -> int:
    """Insertion, second half: give ``new`` its global ``seq``, cut at the
    ``max_pages`` budget, write the survivors as the next-frontier partition
    ``path``, then seen-mark exactly those rows.  Returns their count.

    Seen-marking happens AFTER the budget, matching the oracle's order
    (oracle.py:106-112: budget return precedes seen.add) — a budget-dropped
    candidate is re-crawlable on a raised-budget resume.  The retry-safe
    half of the probe/add split: the file rewrite is deterministic and
    add_blob is an idempotent set union, so a retried task cannot corrupt
    state."""
    new = new.assign(seq=seq)
    if max_pages:  # global insertion budget: only seqs < max_pages exist
        new = new.loc[new["seq"] < max_pages]
    _write_frontier_part(new, path)
    if len(new):
        seen_add(seen_shards, hex_to_digests(new["canon_sha1"].to_numpy()))
    return len(new)


def _insert_one_part(cand: pd.DataFrame, seen_shards, base_seq: int, cfg: CrawlConfig, frontier_dir: str) -> int:
    """Both insertion halves over one partition (seed insertion and the
    driver-path wave): seqs are ``base_seq`` + rank in (ord1, ord2) order."""
    new = insert_probe(cand, seen_shards)
    return insert_commit(
        new, base_seq + np.arange(len(new), dtype=np.int64), cfg.max_pages,
        os.path.join(frontier_dir, "insert-p000.parquet"), seen_shards,
    )


def _candidate_block(df: pd.DataFrame, *int_cols: str) -> pa.Table:
    """Candidate rows plus int64 ``int_cols`` as an Arrow block of one fixed
    schema.  Ray Data sizes a pandas block's object columns with
    ``np.vectorize``, which raises on 0 rows and logs one error per column;
    an Arrow block is sized from its buffers, and one schema for empty and
    full blocks alike leaves Ray nothing to unify."""
    schema = CANDIDATE_SCHEMA
    for c in int_cols:
        schema = schema.append(pa.field(c, pa.int64()))
    return pa.Table.from_pandas(df, schema=schema, preserve_index=False).replace_schema_metadata(None)


def _insert_streamed(
    cand_ds: "ray.data.Dataset",
    seen_shards,
    base_seq: int,
    cfg: CrawlConfig,
    write_dir: str,
    sections: dict,
) -> int:
    """Distributed insertion over PREPARED candidates, one shuffle: candidates
    are partitioned by a digest key (hash-partitioned, NOT
    groupby(key).map_groups — per-group dispatch at 10^5+ distinct urls
    costs ~ms each), and each partition task runs ``insert_probe`` (one
    READ-ONLY seen probe RPC per partition) and adds the rank columns.

    A per-batch rank-bucket histogram gives each rank partition its seq
    offsets, and the rank tasks run ``insert_commit`` — the new frontier
    rows never visit the driver; only the O(rank-buckets) histogram does.
    Returns the number of rows inserted."""

    def add_part(b: pd.DataFrame) -> pa.Table:
        mat = hex_to_digests(b["canon_sha1"].to_numpy())
        # bytes 12:16 — independent of both the seen-shard bytes (trailing 4)
        # and the cuckoo bucket bytes (leading)
        part = mat[:, 12:16].copy().view("<u4").ravel() % np.uint32(64)
        return _candidate_block(b.assign(dedup_part=part.astype(np.int64)), "dedup_part")

    def dedup_probe_rank(g: pd.DataFrame) -> pa.Table:
        # keys register later, in assign_write, only for rows that insert
        g = insert_probe(g.drop(columns=["dedup_part"]), seen_shards)
        g = g.assign(rank_bucket=(g["ord1"] // _RANK_BUCKET).astype(np.int64))
        # all rows of one rank_bucket land in one partition (the pattern:
        # 64 group dispatches total, vectorized pandas inside — NOT one
        # map_groups per rank bucket, which is ~100ms each at 10^3+ buckets)
        g["rank_part"] = (
            pd.util.hash_array(g["rank_bucket"].to_numpy(np.int64)) % 64
        ).astype(np.int64)
        return _candidate_block(g, "rank_bucket", "rank_part")

    t0 = time.time()
    survivors = (
        cand_ds.map_batches(add_part, batch_format="pandas")
        .groupby("dedup_part")
        .map_groups(dedup_probe_rank, batch_format="pandas")
        .materialize()
    )
    sections["exec_main"] = round(time.time() - t0, 3)
    t0 = time.time()

    # pass 1: per-batch rank-bucket histograms -> tiny driver merge -> prefix
    # offsets, broadcast back
    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["rank_bucket"].value_counts()
        return pd.DataFrame({"rank_bucket": vc.index.to_numpy(np.int64),
                             "n": vc.to_numpy(np.int64)})

    hist = survivors.map_batches(hist_partial, batch_format="pandas").to_pandas()
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
        n = insert_commit(
            g, base_seq + seq, max_pages,
            os.path.join(write_dir, f"insert-p{part:03d}.parquet"), seen_shards,
        )
        return pd.DataFrame({"n": [np.int64(n)]})

    t0 = time.time()
    ns = (
        survivors.groupby("rank_part")
        .map_groups(assign_write, batch_format="pandas")
        .to_pandas()
    )
    sections["exec_assign"] = round(time.time() - t0, 3)
    return int(ns["n"].sum()) if len(ns) else 0


def _clear_dir(path_dir: str) -> None:
    """Reset a per-wave partition directory: re-running a killed wave must
    not leave orphan files from the partial attempt (file names can differ
    between the driver and streamed paths)."""
    if os.path.isdir(path_dir):
        shutil.rmtree(path_dir)
    os.makedirs(path_dir, exist_ok=True)


def _frontier_row_count(path_dir: str) -> int:
    """Pending size from Parquet footers only — no row data read."""
    n = 0
    for f in os.listdir(path_dir):
        if f.endswith(".parquet"):
            n += pq.read_metadata(os.path.join(path_dir, f)).num_rows
    return n


# ---------------------------------------------------------------------------
# the two wave executors: the same kernels on a driver frame or streamed
# ---------------------------------------------------------------------------

_SHUFFLE_PARTS = 64


@ray.remote
def _apply_wave_block(fn, blk: pd.DataFrame) -> pd.DataFrame:
    """One packed wave block through the fused fetch/score kernel (the
    raw-task dispatch of the driver-path wave)."""
    return fn(blk)


def _run_wave_driver(
    out_dir: str,
    pages_dir: str,
    wave: int,
    cfg: CrawlConfig,
    lexicon_ref,
    seen_shards,
    robots_actors,
    next_seq: int,
    sections: dict,
    fetcher=None,
) -> int:
    """One politeness wave with the frontier as a driver frame: admission
    and insertion run as ONE partition; fetch/score runs as raw Ray tasks,
    one per cluster CPU, over LPT-packed bucket blocks.  Returns the number
    of rows inserted."""
    t_sec = time.time()
    next_frontier = ckpt.wave_dir(out_dir, "frontier", wave + 1)
    ledger_dir = ckpt.wave_dir(out_dir, "ledger", wave)
    to_fetch = admit_route(
        _read_frontier(ckpt.wave_dir(out_dir, "frontier", wave)),
        cfg.per_host_per_wave, wave, 0, next_frontier, ledger_dir,
    )
    sections["admit"] = round(time.time() - t_sec, 3)
    t_sec = time.time()
    # fetch -> extract -> score -> ledger write -> links: ONE fused task
    # (_wave_task) per packed block of buckets; per bucket it reads exactly
    # one page-table bucket file (partitioned hash join, no sort shuffle)
    # and writes its own ledger partition, then returns the block's
    # candidates from one per-wave-task prep (one robots RPC).
    #
    # One block per cluster CPU: bucket groups are LPT-bin-packed
    # (largest group to the lightest bin) and emitted largest-first, so no
    # big block lands last and stretches the wave barrier.  More, smaller
    # blocks measured slower on both benchmark workloads — each task pays
    # dispatch and a robots RPC, and a tail wave is a few rows per bucket.
    groups = [g for _, g in to_fetch.groupby("bucket", sort=True)]
    nbins = min(max(1, int(ray.cluster_resources().get("CPU", 1))), len(groups))
    bins: list[list[pd.DataFrame]] = [[] for _ in range(nbins)]
    sizes = np.zeros(nbins, dtype=np.int64)
    for g in sorted(groups, key=len, reverse=True):
        i = int(sizes.argmin())
        bins[i].append(g)
        sizes[i] += len(g)
    blocks = [pd.concat(bins[i], ignore_index=True) for i in np.argsort(-sizes, kind="stable")]
    sections["fs_pack"] = round(time.time() - t_sec, 3)
    t_fs = time.time()
    # raw-task scatter/gather: the blocks are already packed and sit on the
    # driver, and the wave is a fixed barrier — the shape a Dataset adds
    # nothing to but ~0.2 s of streaming-executor spin-up per execution.
    # Gathering in submission order keeps the candidate frame's order
    # deterministic.
    wave_fn = _wave_task(pages_dir, lexicon_ref, cfg, wave, ledger_dir, robots_actors, fetcher=fetcher)
    fn_ref = ray.put(wave_fn)  # serialize the closure once per wave
    parts = ray.get([_apply_wave_block.remote(fn_ref, b) for b in blocks])
    sections["fs_exec"] = round(time.time() - t_fs, 3)
    parts = [p for p in parts if len(p)]
    cand_df = pd.concat(parts, ignore_index=True) if parts else _empty_candidates_df()
    sections["fetch_score"] = round(time.time() - t_sec, 3)
    t_sec = time.time()
    inserted = _insert_one_part(cand_df, seen_shards, next_seq, cfg, next_frontier)
    sections["insert"] = round(time.time() - t_sec, 3)
    return inserted


def _run_wave_streamed(
    out_dir: str,
    pages_dir: str,
    wave: int,
    cfg: CrawlConfig,
    lexicon_ref,
    seen_shards,
    robots_actors,
    next_seq: int,
    sections: dict,
    fetcher=None,
) -> int:
    """One politeness wave as Datasets end-to-end.  The driver never holds a
    frontier frame: admission partitions route deferred rows and norun ledger
    rows straight to their next-wave partition files, to-fetch rows flow into
    the fused fetch/score/ledger-write stage, and insertion writes the new
    frontier rows from its rank tasks.  Driver traffic per wave: the
    O(rank-buckets) seq histogram, per-partition row counts, Parquet footer
    reads.  Returns the number of rows inserted.

    ONE shuffle feeds admission AND fetch: the admission partition key is the
    host-hash page bucket (every URL of a host shares a bucket — per-host
    politeness stays exact), so admit_route's output is already page-bucket-
    aligned and flows straight into the fused fetch/score stage as zero-copy
    Arrow with no second exchange."""
    next_frontier = ckpt.wave_dir(out_dir, "frontier", wave + 1)
    ledger_dir = ckpt.wave_dir(out_dir, "ledger", wave)
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

    def admit_part(g: pd.DataFrame) -> pa.Table:
        # Arrow out, one schema even at 0 rows (see _candidate_block)
        return _frontier_table(admit_route(
            g, cfg.per_host_per_wave, wave,
            int(g["admit_part"].iloc[0]), next_frontier, ledger_dir,
        ))

    wave_fn = _wave_task(pages_dir, lexicon_ref, cfg, wave, ledger_dir, robots_actors, fetcher=fetcher)

    candidates = (
        ray.data.read_parquet(ckpt.wave_dir(out_dir, "frontier", wave))
        .map_batches(add_admit_part, batch_format="pandas")
        .groupby("admit_part")
        .map_groups(admit_part, batch_format="pandas")
        # admission output is already bucket-aligned (admit_part = bucket %
        # nparts): the fused fetch/score stage consumes it block-by-block as
        # zero-copy Arrow, slicing per exact bucket inside the task — no
        # second shuffle
        .map_batches(
            lambda b: _candidate_block(wave_fn(b)), batch_format="pyarrow", batch_size=None
        )
    )
    try:
        return _insert_streamed(candidates, seen_shards, next_seq, cfg, next_frontier, sections)
    finally:
        ctx.target_max_block_size = prev_max_block


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
        frontier0 = ckpt.wave_dir(out_dir, "frontier", 0)
        _clear_dir(frontier0)
        next_seq = stats.inserted = _insert_one_part(
            _prepare_candidates(cand, cfg, robots_actors), seen_shards, 0, cfg, frontier0
        )
    # every wave reads its frontier from disk; its size comes from footers
    pending_count = _frontier_row_count(ckpt.wave_dir(out_dir, "frontier", wave))

    while pending_count > 0 and wave < cfg.max_waves:
        wave_t0 = time.time()
        sec = {}  # per-section timing -> manifest (scaling diagnostics)
        next_frontier = ckpt.wave_dir(out_dir, "frontier", wave + 1)
        _clear_dir(next_frontier)
        _clear_dir(ckpt.wave_dir(out_dir, "ledger", wave))
        # the size switch picks the executor; both run the same kernels
        run_wave = _run_wave_streamed if pending_count > DRIVER_PATH_MAX_ROWS else _run_wave_driver
        inserted = run_wave(
            out_dir, pages_dir, wave, cfg, lexicon_ref, seen_shards,
            robots_actors, next_seq, sec, fetcher,
        )
        next_seq += inserted
        stats.inserted += inserted
        pending_next = _frontier_row_count(next_frontier)
        admitted_n = pending_count - (pending_next - inserted)
        pending_count = pending_next

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
    """One wave's frontier partition files as one driver frame."""
    return pq.read_table(path_dir).to_pandas()


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
                rows = pending_ledger_rows(pend)
                # skip empty frames in the concat (pandas deprecation: empty
                # entries would otherwise influence result dtypes)
                ledger = (
                    pd.concat([ledger, rows], ignore_index=True)
                    if len(ledger)
                    else rows
                )
    ledger = ledger.sort_values("seq", kind="mergesort").reset_index(drop=True)
    return ledger[LEDGER_META_COLS]
