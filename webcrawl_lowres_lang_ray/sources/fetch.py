"""Pluggable page fetchers for the crawl's fused wave stage.

The reference crawls the live web (lrl-crawler.py:185-226 urllib path,
seleniumutils.py:51-85 browser path); the sandboxed engine simulates the
web as a host-hash-bucketed Parquet page table.  Both are the same seam:
``fetch(bucket, urls) -> {url: (payload_bytes, content_type)}``, called
once per host bucket by ``frontier._wave_task`` (whose candidate prep runs
once per wave task).  URLs absent from the mapping are failed
fetches (404 / timeout / non-HTML), exactly how the wave body already
treats page-table misses.

* ``PageTableFetcher`` — the default: a point lookup into one bucket
  file.  The file's row-group footer statistics prune it to the row groups
  whose ``url`` min/max range holds a requested URL; only those groups and
  only the three needed columns are decoded, then filtered to the exact
  URLs.  Any page table works — a row group without statistics is always
  read — but the synthetic one (sources/synth.py) is url-sorted in 16-row
  groups, so a one-URL fetch decodes 16 rows, not the whole bucket.
* ``HttpFetcher``    — a real network fetcher over stdlib urllib: one
  actor-task-local opener, per-URL timeout, optional ``base_url`` rewrite
  (point a synthetic frontier's absolute URLs at a proxy / mirror / test
  server).  No third-party deps; tested against a local ``http.server``
  in tests/test_fetchers.py — the sandbox has no external network, but
  the fetch surface, error handling and wave integration are real.

Fetchers must be cheaply picklable (they are constructed on the driver
and shipped inside the fused wave closure).
"""

from __future__ import annotations

import os
from bisect import bisect_left
from urllib.parse import urlsplit

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


class PageTableFetcher:
    """Simulated web: stats-pruned point lookups into the corpus page table."""

    def __init__(self, pages_dir: str):
        self.pages_dir = pages_dir

    def fetch(self, bucket: int, urls: list[str]) -> dict[str, tuple]:
        path = os.path.join(self.pages_dir, f"bucket={bucket:03d}.parquet")
        if not os.path.exists(path):
            return {}
        want = sorted(set(urls))
        with pq.ParquetFile(path) as pf:
            meta = pf.metadata
            col = meta.schema.names.index("url")
            groups = []
            for g in range(meta.num_row_groups):
                st = meta.row_group(g).column(col).statistics
                if st is not None and st.has_min_max:
                    # Parquet compares UTF-8 min/max by unsigned bytes, which
                    # is code-point order: the order of Python str and sorted()
                    i = bisect_left(want, st.min)
                    if i == len(want) or want[i] > st.max:
                        continue  # no requested url inside [min, max]
                groups.append(g)
            if not groups:
                return {}
            pages = pf.read_row_groups(
                groups, columns=["url", "html", "content_type"], use_threads=False
            )
        pages = pages.filter(
            pc.is_in(pages.column("url"), value_set=pa.array(want, pa.string()))
        )
        return {
            u: (h, ct)
            for u, h, ct in zip(
                pages.column("url").to_pylist(),
                pages.column("html").to_pylist(),
                pages.column("content_type").to_pylist(),
            )
        }


class HttpFetcher:
    """Live HTTP fetch via stdlib urllib (the reference's urllib path,
    lrl-crawler.py:185-226, re-expressed for the wave stage).

    ``base_url`` (e.g. ``http://127.0.0.1:8123``) rewrites each URL to
    ``base_url + path?query`` — the test-server / mirror pattern.  Errors
    (HTTP >= 400, timeouts, connection refusals) simply omit the URL from
    the result: the wave body records a failed fetch, politeness and
    frontier semantics unchanged.  ``max_bytes`` truncates pathological
    payloads so one huge page can't blow a worker's heap."""

    def __init__(
        self,
        base_url: str | None = None,
        timeout: float = 10.0,
        user_agent: str = "webcrawl-lowres-lang-ray/1.0",
        max_bytes: int = 16 << 20,
    ):
        self.base_url = base_url.rstrip("/") if base_url else None
        self.timeout = timeout
        self.user_agent = user_agent
        self.max_bytes = max_bytes

    def _target(self, url: str) -> str:
        if not self.base_url:
            return url
        parts = urlsplit(url)
        path = parts.path or "/"
        if parts.query:
            path += "?" + parts.query
        return self.base_url + path

    def fetch(self, bucket: int, urls: list[str]) -> dict[str, tuple]:
        import urllib.error
        import urllib.request

        out: dict[str, tuple] = {}
        for u in urls:
            req = urllib.request.Request(
                self._target(u), headers={"User-Agent": self.user_agent}
            )
            try:
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    body = resp.read(self.max_bytes)
                    # absent header stays None — sniff_doc_type treats a
                    # missing Content-Type differently from an empty one
                    ct = resp.headers.get("Content-Type")
            except (urllib.error.URLError, OSError, ValueError):
                continue  # failed fetch: absent from the mapping
            # keep the FULL header value (charset parameters drive the
            # extractor's decoding, functions/html_text.py)
            out[u] = (body, ct)
        return out


__all__ = ["PageTableFetcher", "HttpFetcher"]
