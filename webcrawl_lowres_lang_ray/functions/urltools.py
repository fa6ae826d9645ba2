"""URL normalization, filtering and decoding.

* relative-URL detection       — scheme://netloc == "://" (lrl-crawler.py:157-162)
* excluded-domain filter       — substring membership against the config list
                                 (fileutils.py:104-106, config.json:29-44)
* host extraction              — urlparse().netloc (sql.py:896 per-domain stats)
* Bing redirect base64 decode  — strip 2 chars, append '==', _->/ -->+
                                 (search.py:148-192)
* URL canonicalization         — the north rule keys the seen set on the
                                 *canonicalized* SHA-1; canonical form here:
                                 lowercase scheme+host, drop default port,
                                 drop fragment, keep query, '' path -> '/'.
"""

from __future__ import annotations

import base64
from urllib.parse import parse_qs, urlparse, urlunparse

import numpy as np


def is_relative(url: str) -> bool:
    p = urlparse(url)
    return f"{p.scheme}://{p.netloc}" == "://"


def is_excluded(url: str, excluded_domains) -> bool:
    return any(domain in url for domain in excluded_domains)


def canonicalize(url: str) -> str:
    """Deterministic canonical URL (north_rule seen-set key input)."""
    p = urlparse(url)
    scheme = p.scheme.lower()
    netloc = p.netloc.lower()
    if netloc.endswith(":80") and scheme == "http":
        netloc = netloc[:-3]
    elif netloc.endswith(":443") and scheme == "https":
        netloc = netloc[:-4]
    path = p.path or "/"
    return urlunparse((scheme, netloc, path, p.params, p.query, ""))


def bing_base64_decode_one(url: str) -> str:
    """Decode a bing.com/...?u=a1<base64> redirect URL (search.py:148-192).

    Non-bing URLs and decode failures pass through unchanged (the reference
    appends the raw URL on exception, search.py:185-188).
    """
    p = urlparse(url)
    if p.netloc != "www.bing.com":
        return url
    qs = parse_qs(p.query)
    if "u" not in qs:
        # reference quirk: bing URLs without a 'u' param are DROPPED
        # (search.py:175-183 only appends inside `if 'u' in query_params`).
        return ""
    try:
        encoded = qs["u"][0]
        temp = encoded[2:] + "=="
        temp = temp.replace("_", "/").replace("-", "+")
        return base64.b64decode(temp).decode("utf-8")
    except Exception:
        return url


def bing_base64_decode(urls: list[str]) -> list[str]:
    """List form matching the reference's signature; drops param-less bing URLs."""
    out = []
    for url in urls:
        decoded = bing_base64_decode_one(url)
        if decoded:
            out.append(decoded)
    return out


# ---------------------------------------------------------------------------
# Batch kernels
# ---------------------------------------------------------------------------

def host_batch(urls) -> np.ndarray:
    return np.array(
        ["" if u is None else urlparse(u).netloc for u in urls], dtype=object
    )


def relative_mask_batch(urls) -> np.ndarray:
    return np.array([u is None or is_relative(u) for u in urls], dtype=bool)


def excluded_mask_batch(urls, excluded_domains) -> np.ndarray:
    ex = tuple(excluded_domains)
    return np.array(
        [u is not None and any(d in u for d in ex) for u in urls], dtype=bool
    )


def canonicalize_batch(urls) -> np.ndarray:
    return np.array(
        ["" if u is None else canonicalize(u) for u in urls], dtype=object
    )
