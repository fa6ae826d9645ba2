"""Smoke mode: every crawl workload's code path, the oracle gate and the
traced-run reconciliation on a 500-page corpus, plus a handful of queries
when ``--sf-dir`` is given.  Finishes in a minute or so (longer on a
loaded host).

    python3 perfbench/run.py --smoke [--sf-dir DIR]

Each workload keeps its politeness budget but crawls at most four waves
from at most 200 seeds, enough for bulk's first waves to take the raw-task
path and for polite and tail to stay on the driver-local path.  Each
workload runs one traced session (reconciled against the crawl's counters);
the first also runs one untraced session.  ``--trace 1`` runs add an
untraced session per workload for ``trace.overhead_frac``.
"""

from __future__ import annotations

import dataclasses
import time

PAGES = 500
MAX_SEEDS = 200
MAX_WAVES = 4


def run(args) -> dict:
    import queries
    import run as bench
    import session

    t0 = time.perf_counter()
    metrics, attempted, failed, correct = {}, 0, 0, True
    for i, wl in enumerate(bench.WORKLOADS.values()):
        small = dataclasses.replace(
            wl, n_pages=PAGES, n_seeds=min(wl.n_seeds, MAX_SEEDS),
            crawl={**wl.crawl, "max_waves": min(wl.crawl["max_waves"], MAX_WAVES)},
        )
        results = [bench.run_traced(small, args.seed, untraced=False)]
        if i == 0:
            results.append(bench.run_untraced(small, args.seed, 0.0, cycles=1))
        for r in results:
            attempted += r["attempted"]
            failed += r["failed"]
            correct &= r["correct"]
            for k, v in r["metrics"].items():
                metrics[f"{wl.name}.{k}"] = v
        bench.log(f"smoke {wl.name}: done")
    if args.sf_dir:
        session.ray_setup(args.sf_dir, bench.WORK)
        times, bad = queries.run_queries(args.sf_dir, queries.SMOKE_QUERIES, bench.log)
        session.ray_down()
        attempted += len(times)
        failed += len(bad)
        correct &= not bad
        for k, v in times.items():
            metrics[f"pipelines.queries.{k}_s"] = bench.m(v, "s")
    else:
        bench.log("smoke: no --sf-dir, queries skipped")
    metrics["smoke_s"] = bench.m(time.perf_counter() - t0, "s")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
