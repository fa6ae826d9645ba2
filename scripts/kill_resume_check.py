"""Kill-and-resume determinism check at bench scale (round-5, scripted so
the r4 ad-hoc validation is repeatable per round — VERDICT r4 ask #7).

Runs the sf0.1-sized crawl three ways in ONE Ray session:
  full     — uninterrupted 8-wave run
  killed   — same config capped at --kill-waves (the simulated crash:
             per-wave ledger/frontier partitions + manifests are already
             on disk, exactly what a real SIGKILL leaves behind)
  resumed  — run_crawl(resume=True) over the killed output, which restores
             the latest manifest (frontier offset, incremental seen-shard
             snapshots, counters) and finishes the remaining waves

and asserts the resumed ledger is hash-identical to the uninterrupted one
(order-insensitive md5 over all rows of every ledger column, text included).

The three crawls share one state actor: each finished crawl releases it and
the next resets it (state/seen.py ``create_seen_shards``).  So the check
also covers that reset: an actor that kept the full run's seen set would
see every seed of the killed run as already crawled.

    python scripts/kill_resume_check.py [--pages 300000] [--cpus N]
                                        [--kill-waves 4]

``--cpus`` defaults to the CPUs this process may run on.

Prints one JSON line: {"pages":..., "kill_waves":..., "ledger_rows":...,
"full_md5":..., "resumed_md5":..., "identical": true, "sec": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def ledger_md5(out_dir: str) -> tuple[str, int]:
    """Order-insensitive md5 over every LEDGER_META_COLS column (``text``
    included) of every ledger row."""
    import pyarrow.parquet as pq

    from webcrawl_lowres_lang_ray.checkpoint import output_files
    from webcrawl_lowres_lang_ray.frontier import LEDGER_META_COLS

    rows = []
    for f in output_files(out_dir)[0]:
        d = pq.read_table(f, columns=LEDGER_META_COLS).to_pydict()
        rows.extend("\x1f".join(map(repr, r)) for r in zip(*(d[c] for c in LEDGER_META_COLS)))
    digest = hashlib.md5("\n".join(sorted(rows)).encode()).hexdigest()
    return digest, len(rows)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pages", type=int, default=300_000)
    ap.add_argument("--cpus", type=int, default=len(os.sched_getaffinity(0)))
    ap.add_argument("--kill-waves", type=int, default=4)
    args = ap.parse_args()

    import ray

    ray.init(
        address="local", num_cpus=args.cpus, include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    from webcrawl_lowres_lang_ray.config import CrawlConfig
    from webcrawl_lowres_lang_ray.frontier import run_crawl
    from webcrawl_lowres_lang_ray.raylog import install_empty_schema_filter
    from webcrawl_lowres_lang_ray.sources.synth import corpus_dir_for_pages

    install_empty_schema_filter()
    DataContext.get_current().enable_progress_bars = False

    corpus = corpus_dir_for_pages(args.pages)
    cfg = CrawlConfig(per_host_per_wave=256, max_waves=8)
    base = "/tmp/wllr_resume_check"
    shutil.rmtree(base, ignore_errors=True)
    secs = {}

    t0 = time.time()
    run_crawl(corpus, os.path.join(base, "full"), cfg)
    secs["full"] = round(time.time() - t0, 1)

    t0 = time.time()
    run_crawl(
        corpus, os.path.join(base, "part"), cfg.replace(max_waves=args.kill_waves)
    )
    secs["killed"] = round(time.time() - t0, 1)

    t0 = time.time()
    stats = run_crawl(corpus, os.path.join(base, "part"), cfg, resume=True)
    secs["resumed"] = round(time.time() - t0, 1)

    full_md5, full_rows = ledger_md5(os.path.join(base, "full"))
    res_md5, res_rows = ledger_md5(os.path.join(base, "part"))
    out = {
        "pages": args.pages,
        "cpus": args.cpus,
        "kill_waves": args.kill_waves,
        "resumed_total_waves": stats.waves,
        "ledger_rows": full_rows,
        "resumed_rows": res_rows,
        "full_md5": full_md5,
        "resumed_md5": res_md5,
        "identical": full_md5 == res_md5 and full_rows == res_rows,
        "sec": secs,
    }
    ray.shutdown()
    print(json.dumps(out))
    if not out["identical"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
