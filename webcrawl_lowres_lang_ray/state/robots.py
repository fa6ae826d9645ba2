"""Robots.txt cache actors.

The reference re-fetches and re-parses robots.txt for EVERY url
(lrl-crawler.py:173-181 — a RobotFileParser per call, no cache; SURVEY.md
§2.3 A6 flags this).  The north rule mandates caching actors: hosts are
routed across ``RobotsCache`` actors by host bucket; each actor lazily
"fetches" (here: reads from the corpus's robots table — the sandbox
stand-in for an HTTP fetch of ``<root>/robots.txt``) and caches the parsed
rules per host, then answers vectorized allow/deny queries.

Rule semantics match the reference's observable behavior with
``RobotFileParser.can_fetch("*", url)`` for simple ``Disallow:`` prefix
rules: a URL is blocked iff its path starts with any disallowed prefix for
its host.
"""

from __future__ import annotations

from urllib.parse import urlparse

import numpy as np
import pyarrow.parquet as pq
import ray


@ray.remote(num_cpus=0)  # lightweight RPC state actor: microsecond lookups, no compute slot
class RobotsCache:
    """One shard of the robots cache; caches per-host rules on first miss."""

    def __init__(self, robots_parquet_path: str | None):
        self._source_path = robots_parquet_path
        self._source: dict[str, list[str]] | None = None
        self.cache: dict[str, list[str]] = {}
        self.fetches = 0  # how many host rule-sets were "fetched" (cache misses)

    def _fetch_host(self, host: str) -> list[str]:
        # sandbox stand-in for GET <root>/robots.txt + parse
        if self._source is None:
            if self._source_path is None:
                self._source = {}
            else:
                t = pq.read_table(self._source_path)
                self._source = dict(
                    zip(t["host"].to_pylist(), t["disallow"].to_pylist())
                )
        self.fetches += 1
        return self._source.get(host, [])

    def blocked_batch(self, urls: list[str]) -> np.ndarray:
        out = np.zeros(len(urls), dtype=bool)
        for i, u in enumerate(urls):
            p = urlparse(u)
            host = p.netloc
            rules = self.cache.get(host)
            if rules is None:
                rules = self._fetch_host(host)
                self.cache[host] = rules
            out[i] = any(p.path.startswith(pref) for pref in rules)
        return out

    def stats(self) -> dict:
        return {"hosts_cached": len(self.cache), "fetches": self.fetches}


def create_robots_actors(robots_parquet_path: str | None, num_shards: int = 2):
    return [RobotsCache.remote(robots_parquet_path) for _ in range(num_shards)]


def robots_blocked_mask(actors, urls: list[str], buckets) -> np.ndarray:
    """Route URLs to robots shards by host bucket; gather the blocked mask.

    ``buckets`` is the stable ``host_bucket_batch`` of each URL's host (the
    crawl's partitioning key), so every process sends a host to the same
    shard and each host's rules are fetched and cached exactly once."""
    out = np.zeros(len(urls), dtype=bool)
    shard = np.asarray(buckets, dtype=np.int64) % len(actors)
    futures, idx_lists = [], []
    for s in range(len(actors)):
        idxs = np.flatnonzero(shard == s)
        if len(idxs):
            futures.append(actors[s].blocked_batch.remote([urls[i] for i in idxs]))
            idx_lists.append(idxs)
    for idxs, res in zip(idx_lists, ray.get(futures)):
        out[idxs] = res
    return out
