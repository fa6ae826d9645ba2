"""The distributed crawl: URL frontier + fetch scheduler as Ray Data waves.

Reproduces the oracle's semantics (oracle.py — itself the reference's
num_threads=1 FIFO semantics) with Ray Data execution per wave:

  frontier/wave=N parquet (sorted spill, read from disk)
    -> admission: per-host head-k by (priority, seq);     [admit_route]
       deferred rows -> frontier/wave=N+1 deferred-pNNN,
       relative/robots rows -> ledger/wave=N norun-pNNN
    -> fetch = partitioned hash join vs the page table
       (pre-partitioned by HOST-hash bucket — the crawl's
       single partitioning key)                            [_wave_task]
    -> doc-type dispatch (M5) + extract + clean + score   [one fused
       + link-extract; ledger/wave=N part-bKKK-sSSSSSSSSS  stage]
       write per bucket
    -> candidate prep: excluded-domain filter, hashes,     [per-wave-task
       relative/robots gates (one robots RPC per task)      prep]
    -> insertion: within-wave dedup (first occurrence by   [insert_probe]
       (parent_seq, link_idx)) + read-only seen probe;
       then global seq, max_pages cut, next-frontier       [insert_commit]
       partition write (insert-pNNN), seen_add of the
       written rows
    -> manifest + seen snapshots

checkpoint.py owns that layout: every file name, directory reset, footer
read and listing of the output goes through it (``ckpt.*``), so this
module never spells an output path.

Every row the crawl moves — frontier, candidate and ledger rows — is a
``pa.Table`` of one fixed schema (FRONTIER_SCHEMA, CANDIDATE_SCHEMA,
LEDGER_SCHEMA) from the Parquet read to the Parquet write; only
``load_ledger`` hands its caller a DataFrame.

Every wave (and seed insertion) runs these same kernels; one size switch
chooses only the executor.  At most ``DRIVER_PATH_MAX_ROWS`` pending rows
(summed from the frontier's Parquet footers), the driver runs admission and
insertion as ONE partition (seq = base + arange), and fetch/score as raw Ray
tasks, one per cluster CPU, over LPT-packed bucket blocks.  Above it the
wave runs FULLY STREAMED (_run_wave_streamed): admission once per host
partition, the fused stage over zero-copy Arrow batches, insertion once per
digest partition with a rank-offset histogram for the seqs.  Driver traffic
per streamed wave: that O(rank-buckets) histogram, per-partition counts and
Parquet footers — never a frontier table (tests/test_crawl_conformance.py
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
* html bytes flow fetch->score inside one task as Arrow binary columns and
  are dropped before any write; the ledger keeps text, hashes and metrics
  only.
* All-default priorities degrade to exact reference FIFO parity.
* Seen-set checkpoints are written by the state actor itself, one delta
  file per shard (snapshot_to), so 10^10-key snapshots never route through
  the driver.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

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
    release_seen_shards,
    restore_all_from,
    seen_add,
    seen_probe_new,
    snapshot_all_to,
)

# above this many pending rows a wave runs streamed: the frontier never
# reaches the driver (same kernels, other executor)
DRIVER_PATH_MAX_ROWS = 200_000
_RANK_BUCKET = 256
_SHUFFLE_PARTS = 64

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

# prepared candidate rows (what a wave task returns and insertion takes):
# the frontier columns, with (parent seq, link index) in place of seq
CANDIDATE_SCHEMA = pa.schema(
    [("ord1", pa.int64()), ("ord2", pa.int64()), *(f for f in FRONTIER_SCHEMA if f.name != "seq")]
)

LEDGER_SCHEMA = pa.schema([
    # key columns: copied from the frontier row
    ("seq", pa.int64()),
    ("url", pa.string()),
    ("url_hash", pa.string()),
    ("canon_sha1", pa.string()),
    ("host", pa.string()),
    ("query_id", pa.int64()),
    ("engine", pa.string()),
    # outcome columns
    ("wave", pa.int64()),
    ("downloaded", pa.bool_()),
    ("downloaded_failed", pa.bool_()),
    ("handled", pa.bool_()),
    ("skipped_relative", pa.bool_()),
    ("robots_blocked", pa.bool_()),
    ("doc_type", pa.string()),
    ("file_hash", pa.string()),
    ("text", pa.string()),
    ("nlp_full_lang", pa.string()),
    ("nlp_full_confidence", pa.float64()),
    ("nlp_para_count", pa.int64()),
    ("nlp_para_count_lrl", pa.int64()),
    ("nlp_para_perc_lrl", pa.float64()),
    ("rejected", pa.bool_()),
])
LEDGER_META_COLS = LEDGER_SCHEMA.names
_LEDGER_KEYS = LEDGER_META_COLS[:7]
_ZERO = {pa.int64(): 0, pa.float64(): 0.0, pa.bool_(): False, pa.string(): ""}


def _ledger_rows(rows: pa.Table, wave: int, **cols) -> pa.Table:
    """Ledger rows for frontier ``rows``: the key columns come from
    ``rows``, ``wave`` and the given outcome columns (arrays, or scalars
    for every row) are set, and every other column is zero, "" or False."""
    n = rows.num_rows
    cols["wave"] = wave

    def column(f: pa.Field):
        if f.name in _LEDGER_KEYS:
            return rows.column(f.name)
        v = cols.get(f.name, _ZERO[f.type])
        return pa.array(v, f.type) if np.ndim(v) else pa.repeat(pa.scalar(v, f.type), n)

    return pa.Table.from_arrays([column(f) for f in LEDGER_SCHEMA], schema=LEDGER_SCHEMA)


# CrawlStats counter -> the ledger bool column it counts.  Every ledger
# partition carries its own sums in its Parquet footer (checkpoint.py
# writes and reads them); after each wave the driver adds that wave's
# footers to CrawlStats and the manifest — no row data is read back.
LEDGER_COUNTERS = {
    "fetched": "downloaded",
    "failed": "downloaded_failed",
    "rejected": "rejected",
    "skipped_relative": "skipped_relative",
    "robots_blocked": "robots_blocked",
}


def _write_ledger_part(tbl: pa.Table, path: str) -> None:
    """Write one ledger partition with its counter sums in the footer."""
    ckpt.write_ledger_part(
        tbl, path, {k: int(pc.sum(tbl.column(c)).as_py() or 0) for k, c in LEDGER_COUNTERS.items()}
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


def _codes(col: pa.ChunkedArray) -> np.ndarray:
    """Dense integer codes of a string column from one hash pass; codes
    number the distinct values in order of first appearance."""
    return pc.dictionary_encode(col.combine_chunks()).indices.to_numpy()


# ---------------------------------------------------------------------------
# per-wave stages
# ---------------------------------------------------------------------------

def admit_route(
    frontier: pa.Table, k: int, wave: int, part: int, next_frontier: str, ledger_dir: str
) -> pa.Table:
    """Admission over one frontier partition: politeness mark, then route —
    deferred rows to ``next_frontier/deferred-pNNN.parquet``, relative/robots
    rows to ``ledger_dir/norun-pNNN.parquet``, to-fetch rows back to the
    caller.  Every row of a host must be in this partition, so the per-host
    budget is exact.  Deterministic file names make a re-run idempotent."""
    g = frontier.sort_by([("priority", "descending"), ("seq", "ascending")])
    # rank of each row within its host, in that order: one stable argsort
    # of the host codes, minus the position where each host's run starts
    host = _codes(g.column("host"))
    by_host = np.argsort(host, kind="stable")
    sorted_host = host[by_host]
    rank = np.empty(len(host), dtype=np.int64)
    rank[by_host] = np.arange(len(host)) - np.searchsorted(sorted_host, sorted_host)
    admit = rank < k
    pq.write_table(g.filter(~admit).select(FRONTIER_SCHEMA.names), ckpt.deferred_path(next_frontier, part))
    adm = g.filter(admit)
    rel = adm.column("is_rel").to_numpy()
    rob = adm.column("robots_blocked").to_numpy()
    norun = rel | rob
    if norun.any():
        _write_ledger_part(
            _ledger_rows(
                adm.filter(norun), wave,
                handled=True, skipped_relative=rel[norun], robots_blocked=rob[norun],
            ),
            ckpt.norun_path(ledger_dir, part),
        )
    return adm.filter(~norun)


def _wave_task(pages_dir: str, lexicon_ref, cfg: CrawlConfig, wave: int, ledger_dir: str, robots_actors=None, fetcher=None):
    """The wave body as ONE task over a batch of host buckets.  Per bucket:
    partitioned fetch join -> extract/score -> write this bucket's ledger
    partition (resumable layout: ledger/wave=N/part-bKKK-sSSSSSSSSS.parquet,
    idempotent overwrite).  Then per-wave-task prep: explode the links of
    every bucket once and prepare them as one candidate table (excluded
    filter, canon/sha1/md5/host/bucket, one robots RPC).

    The returned ``fn`` takes admitted frontier rows and returns prepared
    candidate rows, both as ``pa.Table``: the streamed path hands it
    zero-copy batches (``batch_format="pyarrow"``), the driver path's raw
    tasks their packed blocks.  The page-table html bytes go straight from
    the Parquet read into the scorer.

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
                links[i] = []  # miss -> failed fetch
                continue
            html, ct = hit
            downloaded[i] = True
            dt = sniff_doc_type(ct)
            doc_type[i] = dt or ""
            file_hash[i] = hashlib.sha256(html).hexdigest()
            if dt == "html":
                text, links[i] = extract_text_and_links(html)
            else:
                # pdf/docx extract through the stdlib pdfmini/docxmini
                # kernels (real text for the Flate/OOXML subset).  Unknown
                # types return None — the reference's extract-returns-None
                # path (nlp.py:113-115, lrl-crawler.py:431-433): score as
                # empty text.  Non-html rows contribute no links either way.
                text = (extract_text_auto(html, dt) if dt else None) or ""
                links[i] = []
            text_col[i] = text
            sr = model.score_text(text)
            full_lang[i] = sr.full_lang or ""
            full_conf[i] = sr.full_conf
            para_count[i] = sr.para_count
            para_lrl[i] = sr.para_count_lrl
            para_perc[i] = sr.para_perc_lrl
            rejected[i] = sr.rejected

        ledger_tbl = _ledger_rows(
            tbl, wave,
            downloaded=downloaded, downloaded_failed=~downloaded, handled=downloaded,
            doc_type=doc_type, file_hash=file_hash, text=text_col,
            nlp_full_lang=full_lang, nlp_full_confidence=full_conf,
            nlp_para_count=para_count, nlp_para_count_lrl=para_lrl,
            nlp_para_perc_lrl=para_perc, rejected=rejected,
        )
        # filename carries the slice's min seq: on the streamed path a
        # bucket's rows may arrive split across blocks, and two disjoint
        # slices always have distinct minima — so names never collide and a
        # retried task deterministically rewrites exactly its own file
        min_seq = int(tbl.column("seq").to_numpy().min())
        _write_ledger_part(ledger_tbl, ckpt.ledger_part_path(ledger_dir, bucket, min_seq))
        return links

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return CANDIDATE_SCHEMA.empty_table()
        buckets = batch.column("bucket").to_numpy()
        if (buckets[1:] < buckets[:-1]).any():
            order = np.argsort(buckets, kind="stable")
            batch = batch.take(order)
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
        cand = pa.table(
            {
                "url": pa.array([h for l in links for h in l], pa.string()),
                "query_id": np.repeat(batch.column("query_id").to_numpy(), counts),
                "engine": pa.repeat(pa.scalar("link"), total),
                "ord1": np.repeat(batch.column("seq").to_numpy(), counts),
                "ord2": np.arange(total, dtype=np.int64) - np.repeat(starts, counts),
            }
        )
        return _prepare_candidates(cand, cfg, robots_actors)

    return fn


# ---------------------------------------------------------------------------
# candidate insertion (excluded filter -> dedup -> seen -> seq assignment)
# ---------------------------------------------------------------------------

def _prepare_candidates(cand: pa.Table, cfg: CrawlConfig, robots_actors=None) -> pa.Table:
    """Vectorized: drop excluded, add canon/sha1/md5/host/bucket columns plus
    the pre-evaluated admission gates (is_rel, robots_blocked).  Takes
    (url, query_id, engine, ord1, ord2[, priority]) rows, returns
    CANDIDATE_SCHEMA rows.

    Gate precomputation here — inside the distributed wave task — is what
    keeps the per-wave driver section flat: every candidate is gated exactly
    once at insertion instead of re-parsed on the driver at admission."""
    urls = cand.column("url").to_numpy(zero_copy_only=False)
    keep = ~excluded_mask_batch(urls, cfg.excluded_domains)
    cand, urls = cand.filter(keep), urls[keep]
    host = host_batch(urls)
    rel = relative_mask_batch(urls)
    blocked = np.zeros(len(urls), dtype=bool)
    absolute = ~rel
    if cfg.apply_robots and robots_actors and absolute.any():
        # relative links never fetch: only absolute ones ask the robots cache
        blocked[absolute] = robots_blocked_mask(robots_actors, list(urls[absolute]))
    return pa.table(
        {
            "ord1": cand.column("ord1"),
            "ord2": cand.column("ord2"),
            "url": urls,
            "url_hash": md5_batch(urls),
            "canon_sha1": sha1_batch(canonicalize_batch(urls)),
            "host": host,
            "bucket": host_bucket_batch(host, cfg.num_url_buckets),
            "query_id": cand.column("query_id"),
            "engine": cand.column("engine"),
            "is_rel": rel,
            "robots_blocked": blocked,
            # seeds may carry their own priority
            "priority": (
                cand.column("priority") if "priority" in cand.column_names
                else np.full(len(urls), cfg.link_priority, dtype=np.int64)
            ),
        },
        schema=CANDIDATE_SCHEMA,
    )


def insert_probe(cand: pa.Table, seen_shards) -> pa.Table:
    """Insertion, first half, over PREPARED candidates (CANDIDATE_SCHEMA
    columns, plus any the caller carries along; prep happens inside the
    wave task): within-wave dedup — first occurrence by (ord1, ord2) — then
    one READ-ONLY seen probe.  Returns the new rows in (ord1, ord2) order.
    A Ray task retry re-probes and gets the same verdicts: no state is
    mutated here."""
    cand = cand.sort_by([("ord1", "ascending"), ("ord2", "ascending")])
    # codes number the keys in first-seen order, so the first-occurrence
    # indices come out ascending: row order is kept
    _, first = np.unique(_codes(cand.column("canon_sha1")), return_index=True)
    cand = cand.take(first)
    if cand.num_rows == 0:
        return cand
    return cand.filter(seen_probe_new(seen_shards, hex_to_digests(cand.column("canon_sha1").to_pylist())))


def insert_commit(new: pa.Table, seq: np.ndarray, max_pages: int, path: str, seen_shards) -> int:
    """Insertion, second half: give ``new`` its global ``seq``, cut at the
    ``max_pages`` budget, write the survivors as the next-frontier partition
    ``path``, then seen-mark exactly those rows.  Returns their count.

    Seen-marking happens AFTER the budget, matching the oracle's order
    (oracle.py:106-112: budget return precedes seen.add) — a budget-dropped
    candidate is re-crawlable on a raised-budget resume.  The retry-safe
    half of the probe/add split: the file rewrite is deterministic and
    add_blob is an idempotent set union, so a retried task cannot corrupt
    state."""
    new = new.append_column("seq", pa.array(seq, pa.int64()))
    if max_pages:  # global insertion budget: only seqs < max_pages exist
        new = new.filter(seq < max_pages)
    pq.write_table(new.select(FRONTIER_SCHEMA.names), path)
    if new.num_rows:
        seen_add(seen_shards, hex_to_digests(new.column("canon_sha1").to_pylist()))
    return new.num_rows


def _insert_one_part(cand: pa.Table, seen_shards, base_seq: int, cfg: CrawlConfig, frontier_dir: str) -> int:
    """Both insertion halves over one partition (seed insertion and the
    driver-path wave): seqs are ``base_seq`` + rank in (ord1, ord2) order."""
    new = insert_probe(cand, seen_shards)
    return insert_commit(
        new, base_seq + np.arange(new.num_rows, dtype=np.int64), cfg.max_pages,
        ckpt.insert_path(frontier_dir, 0), seen_shards,
    )


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

    def add_part(b: pa.Table) -> pa.Table:
        mat = hex_to_digests(b.column("canon_sha1").to_pylist())
        # bytes 12:16 — independent of both the seen-shard bytes (trailing 4)
        # and the cuckoo bucket bytes (leading)
        part = mat[:, 12:16].copy().view("<u4").ravel() % np.uint32(_SHUFFLE_PARTS)
        return b.append_column("dedup_part", pa.array(part.astype(np.int64)))

    def dedup_probe_rank(g: pa.Table) -> pa.Table:
        # keys register later, in assign_write, only for rows that insert
        g = insert_probe(g.drop_columns(["dedup_part"]), seen_shards)
        rank_bucket = g.column("ord1").to_numpy() // _RANK_BUCKET
        # all rows of one rank_bucket land in one partition (the pattern:
        # _SHUFFLE_PARTS group dispatches total, vectorized inside — NOT one
        # map_groups per rank bucket, which is ~100ms each at 10^3+ buckets)
        return g.append_column("rank_bucket", pa.array(rank_bucket)).append_column(
            "rank_part", pa.array(rank_bucket % _SHUFFLE_PARTS)
        )

    t0 = time.time()
    survivors = (
        cand_ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("dedup_part")
        .map_groups(dedup_probe_rank, batch_format="pyarrow")
        .materialize()
    )
    sections["exec_main"] = round(time.time() - t0, 3)
    t0 = time.time()

    # pass 1: per-batch rank-bucket histograms -> tiny driver merge -> prefix
    # offsets, broadcast back
    def hist_partial(b: pa.Table) -> pa.Table:
        rb, n = np.unique(b.column("rank_bucket").to_numpy(), return_counts=True)
        return pa.table({"rank_bucket": rb, "n": n.astype(np.int64)})

    hist = survivors.map_batches(hist_partial, batch_format="pyarrow").to_pandas()
    sections["exec_hist"] = round(time.time() - t0, 3)
    if len(hist) == 0:  # every candidate excluded / duplicate / already seen
        return 0
    rb, inv = np.unique(hist["rank_bucket"].to_numpy(), return_inverse=True)
    n = np.bincount(inv, weights=hist["n"].to_numpy()).astype(np.int64)
    offsets_ref = ray.put(dict(zip(rb.tolist(), (np.cumsum(n) - n).tolist())))
    max_pages = cfg.max_pages

    # pass 2: per-partition vectorized local rank + broadcast global offset;
    # each rank partition writes its own frontier file — no driver pull
    def assign_write(g: pa.Table) -> pa.Table:
        offs = ray.get(offsets_ref)
        part = g.column("rank_part")[0].as_py()
        g = g.sort_by([("rank_bucket", "ascending"), ("ord1", "ascending"), ("ord2", "ascending")])
        rb, first, inv = np.unique(
            g.column("rank_bucket").to_numpy(), return_index=True, return_inverse=True
        )
        start = np.array([offs[b] for b in rb.tolist()], dtype=np.int64)
        seq = start[inv] + np.arange(g.num_rows) - first[inv]
        n = insert_commit(
            g, base_seq + seq, max_pages,
            ckpt.insert_path(write_dir, part), seen_shards,
        )
        return pa.table({"n": pa.array([n], pa.int64())})

    t0 = time.time()
    inserted = (
        survivors.groupby("rank_part")
        .map_groups(assign_write, batch_format="pyarrow")
        .sum("n")
    )
    sections["exec_assign"] = round(time.time() - t0, 3)
    return int(inserted or 0)


# ---------------------------------------------------------------------------
# the two wave executors: the same kernels on a driver table or streamed
# ---------------------------------------------------------------------------

@ray.remote
def _apply_wave_block(fn, blk: pa.Table) -> pa.Table:
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
    """One politeness wave with the frontier as a driver table: admission
    and insertion run as ONE partition; fetch/score runs as raw Ray tasks,
    one per cluster CPU, over LPT-packed bucket blocks.  Returns the number
    of rows inserted."""
    t_sec = time.time()
    next_frontier = ckpt.frontier_dir(out_dir, wave + 1)
    ledger_dir = ckpt.ledger_dir(out_dir, wave)
    to_fetch = admit_route(
        pq.read_table(ckpt.frontier_dir(out_dir, wave)),
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
    # One block per cluster CPU: bucket groups (row indices, bucket order)
    # are LPT-bin-packed (largest group to the lightest bin) and emitted
    # largest-first, so no big block lands last and stretches the wave
    # barrier.  More, smaller blocks measured slower on both benchmark
    # workloads — each task pays dispatch and a robots RPC, and a tail wave
    # is a few rows per bucket.
    buckets = to_fetch.column("bucket").to_numpy()
    order = np.argsort(buckets, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(buckets[order])) + 1) if len(order) else []
    nbins = min(max(1, int(ray.cluster_resources().get("CPU", 1))), len(groups))
    bins: list[list[np.ndarray]] = [[] for _ in range(nbins)]
    sizes = np.zeros(nbins, dtype=np.int64)
    for g in sorted(groups, key=len, reverse=True):
        i = int(sizes.argmin())
        bins[i].append(g)
        sizes[i] += len(g)
    blocks = [to_fetch.take(np.concatenate(bins[i])) for i in np.argsort(-sizes, kind="stable")]
    sections["fs_pack"] = round(time.time() - t_sec, 3)
    t_fs = time.time()
    # raw-task scatter/gather: the blocks are already packed and sit on the
    # driver, and the wave is a fixed barrier — the shape a Dataset adds
    # nothing to but ~0.2 s of streaming-executor spin-up per execution.
    wave_fn = _wave_task(pages_dir, lexicon_ref, cfg, wave, ledger_dir, robots_actors, fetcher=fetcher)
    fn_ref = ray.put(wave_fn)  # serialize the closure once per wave
    parts = ray.get([_apply_wave_block.remote(fn_ref, b) for b in blocks])
    sections["fs_exec"] = round(time.time() - t_fs, 3)
    cand = pa.concat_tables(parts) if parts else CANDIDATE_SCHEMA.empty_table()
    sections["fetch_score"] = round(time.time() - t_sec, 3)
    t_sec = time.time()
    inserted = _insert_one_part(cand, seen_shards, next_seq, cfg, next_frontier)
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
    frontier table: admission partitions route deferred rows and norun ledger
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
    next_frontier = ckpt.frontier_dir(out_dir, wave + 1)
    ledger_dir = ckpt.ledger_dir(out_dir, wave)
    cpus = int(ray.cluster_resources().get("CPU", 8))
    nparts = max(_SHUFFLE_PARTS, min(4 * cpus, cfg.num_url_buckets))
    # frontier rows are slim (~150 B) but each to-fetch row costs ~ms of
    # downstream fetch+score CPU: cap blocks at 1 MB so a hot admission
    # partition (one zipf-heavy host) splits into several fetch/score tasks
    # instead of one straggler serializing the wave barrier
    ctx = ray.data.DataContext.get_current()
    prev_max_block = ctx.target_max_block_size
    ctx.target_max_block_size = 1 << 20

    def add_admit_part(b: pa.Table) -> pa.Table:
        return b.append_column(
            "admit_part", pa.array(b.column("bucket").to_numpy().astype(np.int64) % nparts)
        )

    def admit_part(g: pa.Table) -> pa.Table:
        return admit_route(
            g.drop_columns(["admit_part"]), cfg.per_host_per_wave, wave,
            g.column("admit_part")[0].as_py(), next_frontier, ledger_dir,
        )

    wave_fn = _wave_task(pages_dir, lexicon_ref, cfg, wave, ledger_dir, robots_actors, fetcher=fetcher)

    candidates = (
        ray.data.read_parquet(ckpt.frontier_dir(out_dir, wave))
        .map_batches(add_admit_part, batch_format="pyarrow")
        .groupby("admit_part")
        .map_groups(admit_part, batch_format="pyarrow")
        # admission output is already bucket-aligned (admit_part = bucket %
        # nparts): the fused fetch/score stage consumes it block-by-block as
        # zero-copy Arrow, slicing per exact bucket inside the task — no
        # second shuffle
        .map_batches(wave_fn, batch_format="pyarrow", batch_size=None)
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
    default = bucket-pruned page-table reads (PageTableFetcher), whose page
    table must hold ``cfg.num_url_buckets`` bucket files (ValueError
    otherwise); pass an HttpFetcher for live urllib fetches against a real /
    mirrored web."""
    cfg = cfg or CrawlConfig()
    pages_dir = os.path.join(corpus_dir, "pages")
    if fetcher is None:
        # a page table bucketed by another count sends most URLs to the
        # wrong bucket file, where they read as failed fetches
        n = sum(f.startswith("bucket=") and f.endswith(".parquet") for f in os.listdir(pages_dir))
        if n != cfg.num_url_buckets:
            raise ValueError(
                f"page table {pages_dir} has {n} bucket files, "
                f"but num_url_buckets is {cfg.num_url_buckets}"
            )
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
        ckpt.reset_dir(out_dir)
        wave = 0
        # --- seed insertion (reference: query-gen + search stage seeds the
        # urls table in id order; here the seed list is the frontier bootstrap)
        seeds = pq.read_table(os.path.join(corpus_dir, "seeds.parquet"))
        zeros = np.zeros(seeds.num_rows, dtype=np.int64)
        cand = pa.table(
            {
                "url": seeds.column("url"),
                "query_id": seeds.column("query_id").cast(pa.int64()),
                "engine": seeds.column("engine"),
                "ord1": seeds.column("seq").cast(pa.int64()),
                "ord2": zeros,
                # seeds default to priority 0 (they are not links —
                # cfg.link_priority must not apply, or engine and oracle
                # diverge for link_priority != 0)
                "priority": (
                    seeds.column("priority").cast(pa.int64())
                    if "priority" in seeds.column_names
                    else zeros
                ),
            }
        )
        frontier0 = ckpt.frontier_dir(out_dir, 0)
        ckpt.reset_dir(frontier0)
        next_seq = stats.inserted = _insert_one_part(
            _prepare_candidates(cand, cfg, robots_actors), seen_shards, 0, cfg, frontier0
        )
    # every wave reads its frontier from disk; its size comes from footers
    pending_count = ckpt.footer_sums(ckpt.parquet_files(ckpt.frontier_dir(out_dir, wave)))[0]

    while pending_count > 0 and wave < cfg.max_waves:
        wave_t0 = time.time()
        sec = {}  # per-section timing -> manifest (scaling diagnostics)
        next_frontier = ckpt.frontier_dir(out_dir, wave + 1)
        ledger_dir = ckpt.ledger_dir(out_dir, wave)
        ckpt.reset_dir(next_frontier)
        ckpt.reset_dir(ledger_dir)
        # the size switch picks the executor; both run the same kernels
        run_wave = _run_wave_streamed if pending_count > DRIVER_PATH_MAX_ROWS else _run_wave_driver
        inserted = run_wave(
            out_dir, pages_dir, wave, cfg, lexicon_ref, seen_shards,
            robots_actors, next_seq, sec, fetcher,
        )
        next_seq += inserted
        stats.inserted += inserted
        pending_count = ckpt.footer_sums(ckpt.parquet_files(next_frontier))[0]

        # ---- checkpoint (common tail): counters from this wave's ledger
        # footers, actor-side seen snapshots, manifest
        t_sec = time.time()
        counts = dict.fromkeys(LEDGER_COUNTERS, 0)
        counts.update(ckpt.footer_sums(ckpt.parquet_files(ledger_dir))[1])
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
        wave += 1

    stats.waves = wave
    stats.elapsed_sec = time.time() - t0
    # not in a finally: a crawl that raised may have left the actor dead or
    # half-written, so its handle is dropped and Ray reaps the actor
    release_seen_shards(seen_shards)
    return stats


def load_ledger(out_dir: str, include_pending: bool = True) -> pd.DataFrame:
    """Read the full ledger (all wave partitions), sorted by seq.

    With include_pending, frontier rows never fetched are appended with
    wave=-1 and all flags false — matching the oracle's ledger of inserted
    rows."""
    import pyarrow.dataset as pads

    parts, pending = ckpt.output_files(out_dir)
    # multithreaded C++ scan across the many per-bucket partition files
    tables = [pads.dataset(parts, format="parquet", schema=LEDGER_SCHEMA).to_table()]
    if include_pending and pending:
        tables.append(_ledger_rows(pq.read_table(pending, partitioning=None), -1))
    ledger = pa.concat_tables(tables).sort_by("seq")
    return ledger.to_pandas()


def ledger_dataset(
    out_dir: str,
    columns: list[str] | None = None,
    include_pending: bool = True,
) -> "ray.data.Dataset":
    """The crawl ledger as a streaming Dataset with column pruning pushed
    into the Parquet read — the 100 TB path (only 3 of the 13 ledger
    consumers need the text column; none need html).  With include_pending,
    still-pending frontier rows are unioned in as wave=-1 rows with all
    flags false (``load_ledger``'s semantics).

    The read takes its columns' LEDGER_SCHEMA fields, which carry no
    key-value metadata: Ray Data hashes block schemas, and pyarrow's
    ``Schema.__hash__`` raises on the footers' ``ledger_counts`` dict."""
    want = columns or LEDGER_SCHEMA.names
    schema = pa.schema([LEDGER_SCHEMA.field(c) for c in want])
    parts, pending = ckpt.output_files(out_dir)
    if parts:
        ds = ray.data.read_parquet(parts, columns=columns, schema=schema)
    else:  # pending-only output (0 waves ran): zero-row ledger, REAL dtypes
        ds = ray.data.from_arrow(schema.empty_table())
    if include_pending and ckpt.footer_sums(pending)[0]:
        ds = ds.union(
            ray.data.read_parquet(pending).map_batches(
                lambda b: _ledger_rows(b, -1).select(want), batch_format="pyarrow"
            )
        )
    return ds


def accepted_texts(out_dir: str) -> "ray.data.Dataset":
    """The ``text`` of every fetched, unrejected ledger row — the lexicon
    loop's input — as a streaming Dataset pruned at the read."""
    return ledger_dataset(
        out_dir, columns=["text", "downloaded", "rejected"], include_pending=False
    ).map_batches(
        lambda t: t.filter(
            pc.and_(t["downloaded"], pc.invert(t["rejected"]))
        ).select(["text"]),
        batch_format="pyarrow",
    )
