"""Robots.txt cache.

The reference re-fetches and re-parses robots.txt for EVERY url
(lrl-crawler.py:173-181 — a RobotFileParser per call, no cache; SURVEY.md
§2.3 A6 flags this).  The north rule mandates a caching actor: one
``RobotsCache`` lives inside the crawl's single state actor (the one that
also owns the URL-seen shards, ``state/seen.py``) and serves every process
of the crawl, so each host's rules are "fetched" (here: read from the
corpus's robots table — the sandbox stand-in for an HTTP fetch of
``<root>/robots.txt``) and parsed once, then it answers vectorized
allow/deny queries.

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


class RobotsCache:
    """The crawl's robots cache; caches per-host rules on first miss."""

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


def create_robots_actors(robots_parquet_path: str | None, state):
    """Give the crawl's state actor (``state``, the handle list
    ``seen.create_seen_shards`` returned) its robots source and return that
    list.  Waits until the source is set: wave tasks query the actor from
    other processes, whose calls are not ordered after this one."""
    (actor,) = state
    ray.get(actor.load_robots.remote(robots_parquet_path))
    return state


def robots_blocked_mask(actors, urls: list[str]) -> np.ndarray:
    """The blocked mask of ``urls`` from the crawl's state actor."""
    (actor,) = actors
    return ray.get(actor.blocked_batch.remote(urls))
