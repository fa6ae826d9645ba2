"""Workload table and input preparation for the crawl benchmark.

Each workload is a corpus shape plus a ``CrawlConfig``.  The corpus (the
synthetic "web") is generated once per checkout with
``sources.synth.generate_corpus`` and cached under ``.perfbench/`` keyed by
``CORPUS_VERSION``, page count and the package source hash; a cached corpus
is reused only when its ``_SUCCESS`` file exists.  ``--seed`` then draws the
crawl's seed list -- which pages the crawl starts from, and in which order
-- from that corpus.  Generating a whole corpus per seed costs about 2 ms
per page, which a timed run cannot afford; drawing the seed list is free and
still changes every wave the crawl runs.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "webcrawl_lowres_lang_ray")
WORK = os.path.join(ROOT, ".perfbench")


@dataclass(frozen=True)
class Workload:
    name: str
    n_pages: int
    n_seeds: int
    crawl: dict  # CrawlConfig overrides


WORKLOADS = {
    # per-page kernels dominate: big host buckets, few waves, a fixed
    # insertion budget so every seed resolves the same number of URLs
    "bulk": Workload(
        "bulk", 20_000, 500,
        {"per_host_per_wave": 256, "max_waves": 8, "max_pages": 3_000},
    ),
    # reference-parity politeness budget: ~1-2 URLs per host bucket per
    # wave on the raw-task path, so per-bucket fixed cost dominates.  Here
    # and in tail the seed list covers every host, so every wave admits
    # the same number of URLs whatever the seed.
    "polite": Workload(
        "polite", 20_000, 2_000,
        {"per_host_per_wave": 2, "max_waves": 8},
    ),
    # politeness-bound tail: every wave is small enough for the
    # driver-local path, so the driver runs each wave itself.  The insertion
    # budget binds only in the last waves; it keeps the ledger the same
    # size whatever the seed.
    "tail": Workload(
        "tail", 3_000, 300,
        {"per_host_per_wave": 1, "max_waves": 10, "max_pages": 800},
    ),
}


def package_hash() -> str:
    """Hash of every package source file: keys the corpus and oracle caches
    so a cached result is never reused across code changes."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(PKG):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, PKG).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def base_corpus(n_pages: int, pkg_hash: str, log) -> str:
    """Build (or reuse) the corpus with host count derived as
    ``corpus_dir_for_pages`` derives it.  Generation is load generation:
    its time is logged, never reported as set-up."""
    from webcrawl_lowres_lang_ray.config import SynthConfig
    from webcrawl_lowres_lang_ray.sources.synth import CORPUS_VERSION, generate_corpus

    out = os.path.join(WORK, "corpus", f"v{CORPUS_VERSION}_n{n_pages}_{pkg_hash}")
    if not os.path.exists(os.path.join(out, "_SUCCESS")):
        from gate import in_child

        t0 = time.perf_counter()
        scfg = SynthConfig(
            n_pages=n_pages,
            n_hosts=max(24, n_pages // 100),
            seeds_per_corpus=max(16, n_pages // 40),
        )
        in_child(generate_corpus, (out, scfg), timeout=150)
        log(f"generated {n_pages}-page corpus in {time.perf_counter() - t0:.1f} s")
    return out


def seeded_corpus(base: str, n_seeds: int, seed: int) -> str:
    """A corpus directory that shares ``base``'s page table, lexicon and
    robots rules but starts the crawl from a seed list drawn with ``seed``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from webcrawl_lowres_lang_ray.sources.synth import corpus_page_urls

    out = f"{base}_rr{n_seeds}_s{seed}"
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    os.makedirs(out, exist_ok=True)
    for name in ("pages", "lexicon.parquet", "robots.parquet", "english_ref.parquet"):
        dst = os.path.join(out, name)
        if not os.path.lexists(dst):
            os.symlink(os.path.join(base, name), dst)
    rng = random.Random(seed)
    by_host: dict[str, list[str]] = {}
    for u in sorted(corpus_page_urls(base)):
        by_host.setdefault(urlsplit(u).netloc, []).append(u)
    hosts = sorted(by_host)
    rng.shuffle(hosts)
    for h in hosts:
        rng.shuffle(by_host[h])
    # round-robin over the hosts: each host gets n_seeds // n_hosts seeds
    # (one more for the first n_seeds % n_hosts), whatever the seed
    rounds = max(len(v) for v in by_host.values())
    picked = [by_host[h][i] for i in range(rounds) for h in hosts if i < len(by_host[h])][:n_seeds]
    rng.shuffle(picked)
    n = len(picked)
    pq.write_table(pa.table({
        "seq": pa.array(range(n), pa.int64()),
        "url": pa.array(picked, pa.string()),
        "query_id": pa.array([i % 7 for i in range(n)], pa.int64()),
        "engine": pa.array(
            [["google", "google_api", "bing", "bing_api"][i % 4] for i in range(n)],
            pa.string(),
        ),
    }), os.path.join(out, "seeds.parquet"))
    with open(os.path.join(out, "_SUCCESS"), "w") as f:
        f.write(f"seeds={n} seed={seed}\n")
    return out
