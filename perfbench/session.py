"""One measured session: a fresh driver process that sets Ray up, runs one
crawl, tears Ray down and writes what it measured as JSON.

    python3 perfbench/session.py SPEC.json

SPEC holds ``corpus``, ``out_dir``, ``crawl`` (CrawlConfig overrides),
``traced``, ``work``, ``result`` (where to write the result), and for an
untraced session ``cycles``, ``seconds`` and ``max_seconds``.

A traced session sets Ray up once and crawls once, into ``out_dir``.  An
untraced session runs ``cycles`` cycles of set-up, crawl and tear-down, so
its crawls are spread over the whole session; the last cycle goes on
crawling the same input until the next crawl would take the crawl time past
``seconds``, never starting one that could end past ``max_seconds`` after
the session began.  Crawl ``i`` writes ``<out_dir>_<i>``.  run.py starts a
fresh session process per run so that no run inherits the caches a previous
run warmed in the driver (compiled regexes, ``urlsplit``'s cache, the
driver-local scorer model).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

N_CPUS = len(os.sched_getaffinity(0))


def ray_temp_dir(work: str) -> str | None:
    # Ray puts unix sockets under its temp dir; keep it inside the checkout
    # when the socket paths stay under the 107-byte limit
    d = os.path.join(work, "ray")
    return d if len(d) <= 40 else None


def ray_setup(input_dir: str, work: str, traced: bool = False) -> float:
    """Start Ray, spawn and import one worker per CPU, read the input files
    (the corpus page table, or the query tables) through the page cache.
    Returns the wall seconds all of that took."""
    import ray

    t0 = time.perf_counter()
    kw = {}
    if traced:
        kw["runtime_env"] = {"worker_process_setup_hook": "layer_trace.install"}
    tmp = ray_temp_dir(work)
    if tmp:
        kw["_temp_dir"] = tmp
    ray.init(
        address="local", num_cpus=N_CPUS, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False,
        object_store_memory=512 * 1024 * 1024, **kw,
    )

    @ray.remote(num_cpus=1)
    def _ready():
        import webcrawl_lowres_lang_ray.frontier  # noqa: F401

        return os.getpid()

    pids: set[int] = set()
    for _ in range(20):
        pids.update(ray.get([_ready.remote() for _ in range(N_CPUS)]))
        if len(pids) >= N_CPUS:
            break
    else:
        raise RuntimeError(f"only {len(pids)} of {N_CPUS} workers came up")
    for f in sorted(os.listdir(input_dir)):
        with open(os.path.join(input_dir, f), "rb") as fh:
            while fh.read(1 << 22):
                pass
    return time.perf_counter() - t0


def ray_down() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


def timed_crawl(corpus_dir: str, out_dir: str, cfg) -> dict:
    """One ``run_crawl``, measured outside-in: wall, CPU of the driver and of
    every Ray process (/proc), driver peak RSS, output bytes per kind."""
    import procstat
    from webcrawl_lowres_lang_ray.frontier import run_crawl

    procstat.reset_peak_rss()
    before = procstat.snapshot()
    t0 = time.perf_counter()
    start_wall = time.time()
    stats = run_crawl(corpus_dir, out_dir, cfg)
    crawl_s = time.perf_counter() - t0
    cpu = procstat.cpu_delta(before, procstat.snapshot())
    return {
        "crawl_s": crawl_s, "start_wall": start_wall, "cpu": cpu,
        "peak_rss_mb": procstat.peak_rss_mb(),
        "stats": {k: getattr(stats, k) for k in (
            "waves", "inserted", "fetched", "failed", "skipped_relative", "robots_blocked")},
        "bytes": {k: procstat.tree_bytes(os.path.join(out_dir, k))
                  for k in ("ledger", "frontier", "seen", "manifest")},
    }


def crawl_cycles(spec: dict, cfg, pages: str) -> dict:
    import procstat

    t_start = time.monotonic()
    setups: list[float] = []
    crawls: list[dict] = []

    def crawl() -> None:
        crawls.append(timed_crawl(spec["corpus"], f"{spec['out_dir']}_{len(crawls)}", cfg))

    for cycle in range(spec["cycles"]):
        setups.append(ray_setup(pages, spec["work"]))
        crawl()
        if cycle == spec["cycles"] - 1:
            while True:
                total = sum(c["crawl_s"] for c in crawls)
                nxt = max(c["crawl_s"] for c in crawls)
                if (total + nxt > spec["seconds"]
                        or time.monotonic() - t_start + nxt > spec["max_seconds"]):
                    break
                crawl()
        ray_down()
        procstat.kill_tree()
    return {"setups": setups, "crawls": crawls}


def main(spec_path: str) -> None:
    # a terminated session still tears Ray down (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with open(spec_path) as f:
        spec = json.load(f)
    from webcrawl_lowres_lang_ray.config import CrawlConfig

    pages = os.path.join(spec["corpus"], "pages")
    cfg = CrawlConfig(**spec["crawl"])
    try:
        if spec["traced"]:
            import layer_trace

            setup_s = ray_setup(pages, spec["work"], traced=True)
            layer_trace.install()
            dt = layer_trace.DriverTrace()
            res = timed_crawl(spec["corpus"], spec["out_dir"], cfg)
            res["actors"] = dt.actor_stats()
            spans = layer_trace.take_spans()[1]
            for worker_spans in layer_trace.flush_workers(N_CPUS).values():
                spans.extend(worker_spans)
            res["spans"] = spans
            res["setup_s"] = setup_s
        else:
            res = crawl_cycles(spec, cfg, pages)
    finally:
        import procstat

        ray_down()
        procstat.kill_tree()
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w") as f:
        json.dump(res, f)
    os.replace(tmp, spec["result"])

if __name__ == "__main__":
    main(sys.argv[1])
