"""Single-threaded pure-Python crawl oracle.

This is the rebuild's equivalent of running the reference with
``num_threads=1`` (strict FIFO, SURVEY.md §2.10): it defines the exact
observable semantics — crawl (seq) ordering, URL-seen membership, politeness
admission waves, per-url extracted text, ledger NLP columns — that the
distributed Ray Data engine (frontier.py) must reproduce bit-for-bit.

Semantics mapped from the reference:

* insertion filters: excluded-domain substring filter (fileutils.py:104-106,
  applied at search_and_fetch, lrl-crawler.py:301-308) and URL-seen dedup by
  hash (sql.py:180-189).  Seen key: SHA-1 of the canonicalized URL (north
  rule); the ledger also records the reference's MD5-of-verbatim-url
  (fileutils.py:99-101) for parity checks.
* seq: ledger insertion order == SQLite autoincrement id (sql.py:49).
  Filtered URLs never insert, so they consume no seq.
* politeness: the reference sleeps sleep_delay + U(0,sleep_delay) sec per
  query per worker (lrl-crawler.py:332-335).  The rebuild's deterministic
  virtual-time form: one wave == one politeness slot; per wave each host may
  be fetched at most ``per_host_per_wave`` times, admission in seq order.
* fetch outcomes (download_and_save, lrl-crawler.py:150-255): relative URL ->
  skipped (handled, not downloaded); robots-blocked -> handled, not
  downloaded; URL absent from the page table -> downloaded_failed (the
  non-200 path, lrl-crawler.py:186-189); hit -> downloaded, sha256 file_hash
  (lrl-crawler.py:230-233), doc_type html.
* NLP (nlp_worker, lrl-crawler.py:388-477): extract -> clean -> score ->
  langinfo columns + rejection policy.  Content-duplicate rows score
  identically by construction (same bytes), matching the reference's clone
  semantics (lrl-crawler.py:116-147) without a shared index.
* discovery: links extracted from each fetched page in document order,
  inserted in (parent seq, link position) order at wave close.  (The
  reference grows its frontier from search-result pages, search.py:38-77;
  link extraction is the crawl-native equivalent over the synthetic web.)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from urllib.parse import urlparse

import pyarrow.parquet as pq

from .config import CrawlConfig
from .functions.extract_doc import extract_text_auto, sniff_doc_type
from .functions.hashing import md5_url, sha1_url, sha256_bytes
from .functions.html_text import extract_text_and_links
from .functions.scoring import LangScoringModel
from .functions.urltools import canonicalize, is_excluded, is_relative
from .sources.synth import load_lexicon, load_robots

LEDGER_COLUMNS = [
    "seq", "url", "url_hash", "canon_sha1", "host", "query_id", "engine",
    "wave", "downloaded", "downloaded_failed", "handled", "skipped_relative",
    "robots_blocked", "doc_type", "file_hash", "text",
    "nlp_full_lang", "nlp_full_confidence", "nlp_para_count",
    "nlp_para_count_lrl", "nlp_para_perc_lrl", "rejected",
]


@dataclass
class OracleResult:
    ledger: list[dict] = field(default_factory=list)
    seen: set[str] = field(default_factory=set)          # canonical SHA-1 hex
    waves_run: int = 0


def _robots_blocked(url: str, robots: dict[str, list[str]]) -> bool:
    p = urlparse(url)
    rules = robots.get(p.netloc)
    if not rules:
        return False
    return any(p.path.startswith(prefix) for prefix in rules)


def run_oracle(corpus_dir: str, cfg: CrawlConfig | None = None) -> OracleResult:
    cfg = cfg or CrawlConfig()
    lexicon = load_lexicon(corpus_dir)
    robots = load_robots(corpus_dir) if cfg.apply_robots else {}
    scorer = LangScoringModel(lexicon, cfg)

    # the "web": url -> (html bytes, content type)
    pages_dir = os.path.join(corpus_dir, "pages")
    web: dict[str, tuple] = {}
    for fname in sorted(os.listdir(pages_dir)):
        if fname.endswith(".parquet"):
            t = pq.read_table(
                os.path.join(pages_dir, fname),
                columns=["url", "html", "content_type"],
            )
            for u, h, ct in zip(
                t["url"].to_pylist(), t["html"].to_pylist(),
                t["content_type"].to_pylist(),
            ):
                web[u] = (h, ct)

    res = OracleResult()
    pending: list[dict] = []  # rows inserted but not yet resolved
    next_seq = 0

    def insert(url: str, query_id: int, engine: str, priority: int = 0) -> None:
        nonlocal next_seq
        if is_excluded(url, cfg.excluded_domains):
            return
        if cfg.max_pages and next_seq >= cfg.max_pages:
            return  # global insertion budget exhausted (permanently)
        canon = canonicalize(url)
        key = sha1_url(canon)
        if key in res.seen:
            return
        res.seen.add(key)
        row = {
            "seq": next_seq,
            "url": url,
            "url_hash": md5_url(url),
            "canon_sha1": key,
            "host": urlparse(url).netloc,
            "query_id": query_id,
            "engine": engine,
            "wave": -1,
            "downloaded": False,
            "downloaded_failed": False,
            "handled": False,
            "skipped_relative": False,
            "robots_blocked": False,
            "doc_type": "",
            "file_hash": "",
            "text": "",
            "nlp_full_lang": "",
            "nlp_full_confidence": 0.0,
            "nlp_para_count": 0,
            "nlp_para_count_lrl": 0,
            "nlp_para_perc_lrl": 0.0,
            "rejected": False,
            "priority": priority,
        }
        next_seq += 1
        res.ledger.append(row)
        pending.append(row)

    # --- seed insertion, in seed seq order ---
    seeds = pq.read_table(os.path.join(corpus_dir, "seeds.parquet"))
    for s in sorted(seeds.to_pylist(), key=lambda r: r["seq"]):
        insert(s["url"], s["query_id"], s["engine"], int(s.get("priority", 0)))

    # --- wave loop ---
    wave = 0
    while pending and wave < cfg.max_waves:
        # politeness admission: per host, first k by (priority DESC, seq)
        pending.sort(key=lambda r: (-r["priority"], r["seq"]))
        budget: dict[str, int] = {}
        admitted: list[dict] = []
        deferred: list[dict] = []
        for row in pending:
            used = budget.get(row["host"], 0)
            if used < cfg.per_host_per_wave:
                budget[row["host"]] = used + 1
                admitted.append(row)
            else:
                deferred.append(row)

        discovered: list[tuple[int, int, str, int, str]] = []
        for row in admitted:
            row["wave"] = wave
            url = row["url"]
            if is_relative(url):
                row["skipped_relative"] = True
                row["handled"] = True
                continue
            if _robots_blocked(url, robots):
                row["robots_blocked"] = True
                row["handled"] = True
                continue
            hit = web.get(url)
            if hit is None:
                row["downloaded_failed"] = True
                continue
            html, ct = hit
            row["downloaded"] = True
            dt = sniff_doc_type(ct)
            row["doc_type"] = dt or ""
            row["file_hash"] = sha256_bytes(html)

            # NLP stage (M5 dispatch: pdf/docx via the stdlib pdfmini/
            # docxmini kernels; unknown -> None, scored as empty text —
            # reference nlp.py:113-115)
            page_links: list[str] = []
            if dt == "html":
                text, page_links = extract_text_and_links(html)
            else:
                text = (extract_text_auto(html, dt) if dt else None) or ""
            row["text"] = text
            sr = scorer.score_text_reference(text)
            row["handled"] = True
            row["nlp_full_lang"] = sr.full_lang or ""
            row["nlp_full_confidence"] = sr.full_conf
            row["nlp_para_count"] = sr.para_count
            row["nlp_para_count_lrl"] = sr.para_count_lrl
            row["nlp_para_perc_lrl"] = sr.para_perc_lrl
            row["rejected"] = sr.rejected

            # discovery: links in document order (html only)
            for li, href in enumerate(page_links):
                discovered.append((row["seq"], li, href, row["query_id"], "link"))

        pending = deferred
        # insertion order is (parent seq, link position) — admission order may
        # differ when priorities reorder the wave, so sort explicitly
        for _pseq, _li, href, qid, eng in sorted(discovered):
            insert(href, qid, eng, cfg.link_priority)
        wave += 1

    res.waves_run = wave
    return res
