"""Per-layer spans recorded from the benchmark's own files.

Three mechanisms, one per kind of call site:

* Driver-side layers: the wave loop looks up ``checkpoint.write_manifest``
  and ``frontier.{seen_probe_new, seen_add, snapshot_all_to,
  create_seen_shards, create_robots_actors}`` at call time, so wrapping
  those names in the driver records every call.
* Worker-side class methods: ``LangScoringModel.score_text`` and
  ``PageTableFetcher.fetch`` are wrapped on the class by ``install`` --
  in the driver (the driver-local wave path) and, through Ray's
  ``worker_process_setup_hook``, in every worker.  Workers keep their spans
  in memory; ``flush_workers`` collects them after the crawl (``atexit``
  never runs in Ray workers).
* Module-level kernels bound by the pickled wave closure
  (``extract_text_and_links``, the ``urltools``/``hashing`` batch kernels)
  cannot be wrapped this way.  ``replay_kernels`` times them by replaying
  the traced crawl's fetched pages through the same public functions,
  grouped per (wave, bucket) as the crawl grouped them.

A span is ``(layer, start, end, cpu_s, count, extra)``; start/end are
``time.time()``; cpu_s is ``time.thread_time()`` spent inside the call.
"""

from __future__ import annotations

import functools
import os
import time

SPANS: list[tuple] = []


def _span(layer: str, count_of=None, extra_of=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0, c0 = time.time(), time.thread_time()
            out = fn(*args, **kwargs)
            c1, t1 = time.thread_time(), time.time()
            SPANS.append((
                layer, t0, t1, c1 - c0,
                count_of(args, out) if count_of else 1,
                extra_of(args, out) if extra_of else 0,
            ))
            return out

        return wrapper

    return deco


def _patch(owner, name: str, wrapper_factory) -> None:
    setattr(owner, name, wrapper_factory(getattr(owner, name)))


def install() -> None:
    """Wrap the worker-side class methods (also the Ray setup hook)."""
    from webcrawl_lowres_lang_ray.functions.scoring import LangScoringModel
    from webcrawl_lowres_lang_ray.sources.fetch import PageTableFetcher

    _patch(LangScoringModel, "score_text", _span("functions.scoring"))
    # count = URLs asked for, extra = URLs the page table returned
    _patch(PageTableFetcher, "fetch", _span(
        "sources.fetch", lambda a, out: len(a[2]), lambda a, out: len(out)))


def take_spans() -> tuple[int, list[tuple]]:
    out = SPANS[:]
    SPANS.clear()
    return os.getpid(), out


class DriverTrace:
    """Wraps the driver-side names for the rest of the process (a session
    runs one crawl) and keeps the state-actor handles the crawl creates."""

    def __init__(self):
        import webcrawl_lowres_lang_ray.checkpoint as ckpt
        import webcrawl_lowres_lang_ray.frontier as fr

        self.seen_shards = None
        self.robots_actors = None

        def keep(attr):
            def factory(fn):
                @functools.wraps(fn)
                def wrapper(*a, **kw):
                    out = fn(*a, **kw)
                    setattr(self, attr, out)
                    return out

                return wrapper

            return factory

        _patch(ckpt, "write_manifest", _span("checkpoint.write_manifest"))
        _patch(fr, "seen_probe_new", _span(
            "state.seen.probe", lambda a, out: len(out), lambda a, out: int(out.sum())))
        _patch(fr, "seen_add", _span("state.seen.add", lambda a, out: out))
        _patch(fr, "snapshot_all_to", _span("state.seen.snapshot"))
        _patch(fr, "create_seen_shards", keep("seen_shards"))
        _patch(fr, "create_robots_actors", keep("robots_actors"))

    def actor_stats(self) -> dict:
        import ray

        shards = self.seen_shards or []
        robots = self.robots_actors or []
        sizes = ray.get([s.size.remote() for s in shards])
        runs = ray.get([s.run_count.remote() for s in shards])
        rstats = ray.get([r.stats.remote() for r in robots])
        return {
            "seen_size": int(sum(sizes)),
            "seen_runs": int(sum(runs)),
            "robots_hosts_cached": int(sum(s["hosts_cached"] for s in rstats)),
            "robots_fetches": int(sum(s["fetches"] for s in rstats)),
        }


def flush_workers(n_cpus: int) -> dict[int, list[tuple]]:
    """Collect the in-memory spans of every task worker.  ``n_cpus`` one-CPU
    tasks that each hold their slot for a moment land on ``n_cpus`` distinct
    workers; reconciliation against the crawl's counters catches a worker
    this misses."""
    import ray

    @ray.remote(num_cpus=1)
    def _flush():
        time.sleep(0.5)
        import layer_trace

        return layer_trace.take_spans()

    return dict(ray.get([_flush.remote() for _ in range(n_cpus)]))


def replay_kernels(out_dir: str, corpus_dir: str, cfg) -> dict:
    """Time html extraction and candidate prep on the traced crawl's fetched
    pages, per (wave, bucket) group as the wave task runs them."""
    import glob

    import numpy as np
    import pyarrow.parquet as pq

    from webcrawl_lowres_lang_ray.functions.extract_doc import sniff_doc_type
    from webcrawl_lowres_lang_ray.functions.hashing import (
        host_bucket_batch, md5_batch, sha1_batch,
    )
    from webcrawl_lowres_lang_ray.functions.html_text import extract_text_and_links
    from webcrawl_lowres_lang_ray.functions.urltools import (
        canonicalize_batch, excluded_mask_batch, host_batch, relative_mask_batch,
    )
    from webcrawl_lowres_lang_ray.sources.fetch import PageTableFetcher

    fetcher = PageTableFetcher(os.path.join(corpus_dir, "pages"))
    html_cpu = prep_cpu = 0.0
    pages = candidates = 0
    for wdir in sorted(glob.glob(os.path.join(out_dir, "ledger", "wave=*"))):
        for part in sorted(glob.glob(os.path.join(wdir, "part-b*.parquet"))):
            t = pq.read_table(part, columns=["url", "downloaded"])
            urls = [u for u, d in zip(t["url"].to_pylist(), t["downloaded"].to_pylist()) if d]
            if not urls:
                continue
            bucket = int(os.path.basename(part)[6:9])
            web = fetcher.fetch(bucket, urls)
            links: list[str] = []
            for u in urls:
                html, ct = web[u]
                if sniff_doc_type(ct) != "html":
                    continue
                c0 = time.thread_time()
                _, ls = extract_text_and_links(html)
                html_cpu += time.thread_time() - c0
                pages += 1
                links.extend(ls)
            if not links:
                continue
            c0 = time.thread_time()
            arr = np.array(links, dtype=object)
            keep = arr[~excluded_mask_batch(arr, cfg.excluded_domains)]
            sha1_batch(canonicalize_batch(keep))
            md5_batch(keep)
            host_bucket_batch(host_batch(keep), cfg.num_url_buckets)
            relative_mask_batch(keep)
            prep_cpu += time.thread_time() - c0
            candidates += len(links)
    return {"html_pages": pages, "html_cpu_s": html_cpu,
            "candidates": candidates, "prep_cpu_s": prep_cpu}
