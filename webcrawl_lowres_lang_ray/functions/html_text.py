"""HTML -> text extraction (the per-row byte-identical invariant).

The reference extracts text with
``bs4.BeautifulSoup(f, 'html.parser').get_text(separator="\\n", strip=True)``
over the raw downloaded bytes, letting BeautifulSoup sniff the charset
(reference nlp.py:90-99).  BeautifulSoup is not available in this
environment, so this module implements the same observable semantics with
the standard library:

* charset detection: BOM, then a ``<meta charset=...>`` /
  ``<meta http-equiv="Content-Type" content="...charset=...">`` declaration in
  the document head, then UTF-8, then windows-1252 (the UnicodeDammit
  fallback order, simplified and deterministic).
* parsing: ``html.parser.HTMLParser`` with ``convert_charrefs=True`` — the
  same underlying tokenizer bs4's ``html.parser`` tree builder uses, so
  entity handling matches.
* ``get_text(separator="\\n", strip=True)`` semantics: every text node in
  document order, ``str.strip()``-ed, empties dropped, joined with ``"\\n"``.
  Comments / declarations / processing instructions contribute nothing;
  ``<script>`` / ``<style>`` contents DO contribute (as in bs4's get_text).

The synthetic corpus's golden ``text`` column (sources/synth.py) is produced
by this exact function, and the conformance tests assert that the distributed
``map_batches`` extraction stage reproduces it byte-identically per url —
the ``input_hint`` invariant.
"""

from __future__ import annotations

import codecs
import re
from html.parser import HTMLParser

import pyarrow as pa

_META_CHARSET_RE = re.compile(
    rb"""<meta[^>]+charset\s*=\s*["']?([a-zA-Z0-9_\-]+)""", re.IGNORECASE
)

# BOM -> a codec that CONSUMES the BOM (UnicodeDammit strips it from the
# markup; 'utf-16-le' etc. would leave a U+FEFF text node)
_BOMS = (
    (codecs.BOM_UTF8, "utf-8-sig"),
    (codecs.BOM_UTF32_LE, "utf-32"),
    (codecs.BOM_UTF32_BE, "utf-32"),
    (codecs.BOM_UTF16_LE, "utf-16"),
    (codecs.BOM_UTF16_BE, "utf-16"),
)


def detect_charset(data: bytes) -> str:
    """Deterministic charset sniff: BOM > <meta> declaration > utf-8 > cp1252."""
    for bom, enc in _BOMS:
        if data.startswith(bom):
            return enc
    m = _META_CHARSET_RE.search(data[:2048])
    if m:
        declared = m.group(1).decode("ascii", "replace").lower()
        try:
            codecs.lookup(declared)
            return declared
        except LookupError:
            pass
    try:
        data.decode("utf-8")
        return "utf-8"
    except UnicodeDecodeError:
        return "windows-1252"


def decode_html(data: bytes) -> str:
    enc = detect_charset(data)
    return data.decode(enc, errors="replace")


class _TextExtractor(HTMLParser):
    """Collects text nodes in document order (bs4 .strings equivalent).

    Two bs4 behaviors matter for byte-parity on adversarial HTML:

    * bs4 buffers consecutive ``handle_data`` events into ONE
      NavigableString (``soup.endData`` flushes on every non-data event), so
      invalid bare ``<`` — which the tokenizer emits as its own data event —
      must merge with its neighbours, not become a separate stripped chunk.
    * ``<![CDATA[...]]>`` reaches bs4 as ``unknown_decl('CDATA[...')`` and is
      stored as a CData string, which get_text() INCLUDES; other unknown
      declarations become Declaration strings, which it excludes (as are
      comments, <!DOCTYPE>, and <?pi?>).
    """

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.chunks: list[str] = []
        self._buf: list[str] = []

    def _flush(self) -> None:
        if self._buf:
            self.chunks.append("".join(self._buf))
            self._buf = []

    def handle_data(self, data: str) -> None:
        self._buf.append(data)

    def handle_starttag(self, tag: str, attrs) -> None:
        self._flush()

    def handle_endtag(self, tag: str) -> None:
        self._flush()

    def handle_comment(self, data: str) -> None:
        self._flush()

    def handle_decl(self, decl: str) -> None:
        self._flush()

    def handle_pi(self, data: str) -> None:
        self._flush()

    def unknown_decl(self, data: str) -> None:
        self._flush()
        if data.startswith("CDATA["):
            self.chunks.append(data[len("CDATA["):])

    def close(self) -> None:
        super().close()
        self._flush()


def html_to_text(html: str) -> str:
    """``soup.get_text(separator="\\n", strip=True)`` equivalent on a str."""
    p = _TextExtractor()
    p.feed(html)
    p.close()
    out = []
    for chunk in p.chunks:
        s = chunk.strip()
        if s:
            out.append(s)
    return "\n".join(out)


def extract_text_from_html_bytes(data: bytes) -> str:
    """Raw page bytes -> extracted text (reference nlp.py:90-99 semantics)."""
    return html_to_text(decode_html(data))


class _TextAndLinkExtractor(_TextExtractor):
    """One tokenizer pass collecting BOTH text nodes and <a href> values —
    the crawl needs both per fetched page, and parsing dominates the
    per-page payload; byte-for-byte identical outputs to running
    html_to_text and extract_links separately (pinned by tests)."""

    def __init__(self) -> None:
        super().__init__()
        self.hrefs: list[str] = []

    def handle_starttag(self, tag: str, attrs) -> None:
        self._flush()
        if tag == "a":
            for k, v in attrs:
                if k == "href" and v is not None:
                    self.hrefs.append(v)


def extract_text_and_links(data: bytes) -> tuple[str, list[str]]:
    """Raw page bytes -> (extracted text, hrefs in document order) in a
    single decode + single parse (equals extract_text_from_html_bytes +
    extract_links(decode_html(data)))."""
    p = _TextAndLinkExtractor()
    p.feed(decode_html(data))
    p.close()
    out = []
    for chunk in p.chunks:
        s = chunk.strip()
        if s:
            out.append(s)
    return "\n".join(out), p.hrefs


def extract_links(html: str) -> list[str]:
    """All ``<a href=...>`` values in document order (raw, un-normalized).

    The reference discovers URLs via search-result pages (search.py:38-77);
    the rebuild's frontier instead grows by link extraction from fetched
    pages, which is the crawl-native equivalent.
    """

    class _A(HTMLParser):
        def __init__(self) -> None:
            super().__init__(convert_charrefs=True)
            self.hrefs: list[str] = []

        def handle_starttag(self, tag: str, attrs) -> None:
            if tag == "a":
                for k, v in attrs:
                    if k == "href" and v is not None:
                        self.hrefs.append(v)

    p = _A()
    p.feed(html)
    p.close()
    return p.hrefs


# ---------------------------------------------------------------------------
# Batch kernels (Arrow in / Arrow columns out) for map_batches stages.
# ---------------------------------------------------------------------------

def extract_links_batch(html_col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """binary html column -> list<string> hrefs column (document order)."""
    if isinstance(html_col, pa.ChunkedArray):
        html_col = html_col.combine_chunks()
    out: list[list[str]] = []
    for v in html_col:
        b = v.as_py()
        if b is None:
            out.append([])
        else:
            out.append(extract_links(decode_html(b)))
    return pa.array(out, type=pa.list_(pa.string()))
