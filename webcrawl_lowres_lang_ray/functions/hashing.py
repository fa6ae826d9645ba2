"""Hashing kernels.

* ``md5_url``      — MD5 hex of the UTF-8 URL, the reference's URL-seen key
                     (fileutils.py:99-101).
* ``sha1_url``     — canonicalized SHA-1 URL key, the frontier-internal seen
                     key mandated by the north rule (BASELINE.json).
* ``sha256_bytes`` — SHA-256 hex of page bytes, the content-dedup key
                     (lrl-crawler.py:230-233).

Batch variants take numpy object arrays and return numpy arrays; hashing
is C-level per element so a row loop is the natural shape.
``url_bucket`` maps a digest to a stable partition id for the bucketed
fetch join / seen-shard routing.
"""

from __future__ import annotations

import hashlib

import numpy as np


def md5_url(url: str) -> str:
    return hashlib.md5(url.encode()).hexdigest()


def sha1_url(url: str) -> str:
    return hashlib.sha1(url.encode()).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def md5_batch(strings) -> np.ndarray:
    md5 = hashlib.md5
    return np.array(
        ["" if s is None else md5(s.encode()).hexdigest() for s in strings],
        dtype=object,
    )


def sha1_batch(strings) -> np.ndarray:
    sha1 = hashlib.sha1
    return np.array(
        ["" if s is None else sha1(s.encode()).hexdigest() for s in strings],
        dtype=object,
    )


def digest_to_shard(hex_digest: str, num_shards: int) -> int:
    """Stable shard id from the first 8 hex chars of a digest."""
    return int(hex_digest[:8], 16) % num_shards


def hex_to_digests(hex_digests) -> np.ndarray:
    """A column of 40-char hex digests -> (n, 20) uint8 matrix, via ONE
    ``bytes.fromhex`` over the joined column (no per-row Python)."""
    if len(hex_digests) == 0:
        return np.zeros((0, 20), dtype=np.uint8)
    return np.frombuffer(
        bytes.fromhex("".join(hex_digests)), dtype=np.uint8
    ).reshape(-1, 20)


def host_bucket(host: str, num_buckets: int) -> int:
    """Stable page/frontier bucket from the URL host.

    Bucketing pages by HOST hash (not url hash) is what lets the streamed
    wave reuse ONE partitioning key end-to-end: every URL of a host shares a
    bucket, so the politeness-admission partitions (keyed by bucket) are both
    host-complete (exact per-host budgets) and page-bucket-aligned (the fused
    fetch/score stage consumes admission output with no second shuffle)."""
    return digest_to_shard(hashlib.sha1(host.encode()).hexdigest(), num_buckets)


def host_bucket_batch(hosts, num_buckets: int) -> np.ndarray:
    """Vectorized ``host_bucket``: hash each DISTINCT host once (link batches
    repeat hosts heavily), then scatter via the inverse index."""
    hosts = np.asarray(hosts, dtype=object)
    if not len(hosts):
        return np.zeros(0, dtype=np.int32)
    uniq, inv = np.unique(hosts, return_inverse=True)
    ub = np.array([host_bucket(h, num_buckets) for h in uniq], dtype=np.int32)
    return ub[inv]
