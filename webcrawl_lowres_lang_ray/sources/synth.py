"""Deterministic synthetic Common-Crawl-style corpus (the sandbox "web").

BASELINE.json's input_hint mandates a Parquet page table
``(url:string, warc_ts:timestamp, html:binary, text:string, lang:string)``.
No such table ships in /root/testdata, so this module synthesizes one —
fully deterministic from a seed, no external data — with every code path the
reference exercises (FIXTURES.md §1):

* Zipf-skewed hosts (a few hot hosts -> frontier skew handling is real work);
* embedded ``<a href>`` links into other rows' urls so the frontier grows,
  plus relative links (lrl-crawler.py:157-162 path), excluded-domain links
  (config.json:29-44 path) and dead links (fetch-failure path,
  lrl-crawler.py:186-189);
* byte-identical duplicate bodies across urls (content-dedup path,
  sql.py:167-172) and empty/whitespace bodies (lrl-crawler.py:436-438);
* utf-8 and latin-1 encodings with ``<meta charset>`` (bs4 charset-sniff
  path, nlp.py:92-95);
* robots.txt rules per host (lrl-crawler.py:173-181 path);
* a Zipf lexicon with counts on both sides of the common/uncommon split at
  freq 10 (queries.py:36-38) and an english_ref overlap (queries.py:57-70).

The golden ``text`` column is produced by functions/html_text.py (the same
code the distributed extraction stage runs — the per-row invariant), and the
golden ``lang`` column by functions/scoring.py.

The page table is written pre-partitioned by HOST-hash bucket
(``pages/bucket=NNN.parquet``) — the layout the bucketed fetch join relies
on: at 10^10-URL scale the "web" side of fetch is only ever read one bucket
at a time.  Host (not url) hashing makes the bucket the crawl's single
partitioning key: politeness admission, the fetch join and the per-wave
ledger partitions all co-locate on it (functions/hashing.py host_bucket).
Inside a bucket file the rows are sorted by ``url`` and written in row
groups of ``PAGE_ROW_GROUP_ROWS`` with column statistics, so a fetch of a
few URLs reads only the row groups whose ``url`` min/max range can hold
them (sources/fetch.py) — a point lookup, like Common Crawl's per-URL
index, instead of a decode of the whole bucket.
"""

from __future__ import annotations

import os
import random
from datetime import datetime, timedelta

import pyarrow as pa
import pyarrow.parquet as pq

from ..config import CrawlConfig, SynthConfig
from ..functions.hashing import host_bucket
from ..functions.html_text import extract_text_from_html_bytes
from ..functions.scoring import LangScoringModel
from urllib.parse import urlparse

# rows per page-table row group: the unit a fetch decodes (sources/fetch.py)
PAGE_ROW_GROUP_ROWS = 16

_CONSONANTS = "hkmnptvw"
_VOWELS = "aeiou"

_EN_WORDS = (
    "the quick brown fox jumps over lazy dog and cat with some words about "
    "nothing in particular because this page mostly contains english text "
    "written for testing language detection pipelines which should not match "
    "our synthetic low resource language at all even when repeated many times"
).split()

_NAV_WORDS = ["Home", "About", "Contact", "News", "Login"]


def _make_lrl_vocab(rng: random.Random, size: int) -> list[str]:
    vocab: set[str] = set()
    while len(vocab) < size:
        n_syll = rng.randint(2, 4)
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(n_syll)
        )
        if len(word) >= 3:
            vocab.add(word)
    return sorted(vocab)


def make_lexicon(rng: random.Random, size: int) -> dict[str, int]:
    """Zipf counts; both sides of the >10 common/uncommon split populated."""
    vocab = _make_lrl_vocab(rng, size)
    rng.shuffle(vocab)
    lex = {}
    for rank, word in enumerate(vocab, start=1):
        lex[word] = max(1, int(500 / rank))
    return lex


def _lrl_para(rng: random.Random, words: list[str], weights: list[int], n: int) -> str:
    return " ".join(rng.choices(words, weights=weights, k=n))


def _en_para(rng: random.Random, n: int) -> str:
    return " ".join(rng.choices(_EN_WORDS, k=n))


_GEN_CTX: dict | None = None


def _gen_init(ctx: dict) -> None:
    global _GEN_CTX
    _GEN_CTX = ctx


def _build_pages_chunk(args: tuple[int, int]) -> list[bytes]:
    """Build the html for pids [lo, hi) that are 'normal' kind.  Each page is
    driven by its own seeded Random — independent of every other page, which
    is what makes generation order-free and parallel while staying
    deterministic."""
    lo, hi = args
    ctx = _GEN_CTX
    seed = ctx["seed"]
    hosts = ctx["hosts"]
    urls = ctx["urls"]
    lex_words = ctx["lex_words"]
    lex_weights = ctx["lex_weights"]
    excluded = ctx["excluded"]
    kinds = ctx["kinds"]
    latin1_fraction = ctx["latin1_fraction"]
    dead_link_fraction = ctx["dead_link_fraction"]
    n = len(urls)
    n_hosts = len(hosts)
    out: list[bytes] = []
    for pid in range(lo, hi):
        kind = kinds[pid]
        if kind in (1, 2):  # empty / dup bodies are filled by the caller
            out.append(b"")
            continue
        rng = random.Random(f"{seed}:page:{pid}")
        if kind == 5:
            # unknown Content-Type: real-looking binary filler; M5 maps the
            # type to None and the crawl takes the extract-returns-None path
            filler = bytes(rng.randrange(32, 127) for _ in range(rng.randint(200, 800)))
            out.append(b"\x00\x01BIN" + filler)
            continue
        if kind in (3, 4):
            # REAL pdf/docx payloads (functions/pdfmini, functions/docxmini):
            # valid containers whose text the stdlib kernels extract, so M9/
            # M10 rows carry golden text through the crawl instead of ""
            from ..functions.docxmini import build_docx
            from ..functions.pdfmini import build_pdf

            n_paras = rng.randint(2, 6)
            paras = []
            for _ in range(n_paras):
                wc = rng.randint(20, 80)
                if rng.random() < 0.45:
                    paras.append(_lrl_para(rng, lex_words, lex_weights, wc))
                else:
                    paras.append(_en_para(rng, wc))
            if kind == 3:
                out.append(build_pdf(paras, compress=rng.random() < 0.8))
            else:
                out.append(build_docx(paras))
            continue
        latin1 = rng.random() < latin1_fraction
        charset = "iso-8859-1" if latin1 else "utf-8"
        # page weight ~ real crawl text: a few hundred to ~2k words
        n_paras = rng.randint(2, 12)
        paras = []
        for _ in range(n_paras):
            wc = rng.randint(30, 180)
            if rng.random() < 0.45:
                paras.append(_lrl_para(rng, lex_words, lex_weights, wc))
            else:
                paras.append(_en_para(rng, wc))

        # links: real pages, relative, excluded, dead
        n_links = rng.randint(0, 6)
        links = []
        for _ in range(n_links):
            lr = rng.random()
            if lr < dead_link_fraction:
                links.append(
                    f"https://{hosts[rng.randrange(n_hosts)]}/missing/{rng.randrange(10 * n)}"
                )
            elif lr < dead_link_fraction + 0.06:
                links.append(f"/p/{rng.randrange(n)}")  # relative href
            elif lr < dead_link_fraction + 0.10:
                links.append(f"https://{rng.choice(excluded)}/x{pid}")
            else:
                links.append(urls[rng.randrange(n)])

        body_parts = [
            f'<!DOCTYPE html><html><head><meta charset="{charset}">'
            f"<title>Page {pid}</title>"
            "<style>body { font: café serif; }</style></head><body>"
            if latin1
            else f'<!DOCTYPE html><html><head><meta charset="{charset}">'
            f"<title>Page {pid}</title></head><body>",
            "<!-- generated page -->",
            "<nav>" + " | ".join(f'<a href="{u}">{w}</a>' for u, w in zip(links, _NAV_WORDS)) + "</nav>"
            if links
            else "<nav>no links</nav>",
        ]
        for p in paras:
            body_parts.append(f"<p>{p}</p>")
        for u in links[len(_NAV_WORDS):]:
            body_parts.append(f'<a href="{u}">more</a>')
        body_parts.append("<script>var x = 1;</script></body></html>")
        out.append("\n".join(body_parts).encode(charset, errors="replace"))
    return out


def _score_chunk(args: tuple[list[bytes], list]) -> tuple[list[str], list[str]]:
    """Golden text + lang for a chunk (same kernels the engine runs).
    pdf/docx rows extract through the stdlib kernels (pdfmini/docxmini);
    unknown content types have no extractor -> golden text '' and
    lang '<NONE>'."""
    htmls, cts = args
    ctx = _GEN_CTX
    global _GEN_SCORER
    try:
        scorer = _GEN_SCORER  # noqa: F821
    except NameError:
        globals()["_GEN_SCORER"] = scorer = LangScoringModel(ctx["lexicon"], CrawlConfig())
    from ..functions.extract_doc import extract_text_auto, sniff_doc_type

    texts, langs = [], []
    for h, ct in zip(htmls, cts):
        dt = sniff_doc_type(ct)
        if dt == "html":
            t = extract_text_from_html_bytes(h)
        else:
            t = (extract_text_auto(h, dt) if dt else None) or ""
        texts.append(t)
        if not t and dt != "html":
            langs.append("<NONE>")
            continue
        res = scorer.score_text_reference(t)
        langs.append(res.full_lang if res.full_lang is not None else "<NONE>")
    return texts, langs


def generate_corpus(out_dir: str, scfg: SynthConfig, ccfg: CrawlConfig | None = None) -> None:
    """Write the full corpus (pages buckets, seeds, lexicon, robots,
    english_ref).  Deterministic from the seed AND parallel: global
    structure (hosts, kinds, urls) comes from seeded numpy vectors, page
    bodies from per-page seeded Randoms, so chunks can build on a
    multiprocessing pool in any order."""
    import multiprocessing as mp

    import numpy as np

    ccfg = ccfg or CrawlConfig()
    rng = random.Random(scfg.seed)
    os.makedirs(out_dir, exist_ok=True)

    lexicon = make_lexicon(rng, scfg.lexicon_size)
    lex_words = list(lexicon.keys())
    lex_weights = list(lexicon.values())

    # --- hosts, zipf-skewed (alpha < 1: hot hosts exist — the skew axis —
    # but no single host owns double-digit percent of the web, which would
    # turn any politeness-correct crawl into a single-host serial tail) ---
    hosts = [f"host{i:03d}.example.org" for i in range(scfg.n_hosts)]
    host_weights = np.array([1.0 / (i + 1) ** 0.85 for i in range(scfg.n_hosts)])
    robots_disallow = {
        h: ["/private/"] for i, h in enumerate(hosts) if i % 5 == 2
    }
    robots_hosts = set(robots_disallow)

    # --- vectorized global structure (seeded numpy: order-free) ---
    n = scfg.n_pages
    nprng = np.random.RandomState(scfg.seed ^ 0x5EED)
    page_host = nprng.choice(
        scfg.n_hosts, size=n, p=host_weights / host_weights.sum()
    )
    style = nprng.random_sample(n)
    kind_r = nprng.random_sample(n)
    # kind: 0 normal html, 1 empty, 2 dup-of-earlier, 3 pdf, 4 docx,
    # 5 unknown content-type
    kinds = np.zeros(n, dtype=np.int8)
    edges = np.cumsum(
        [scfg.empty_fraction, scfg.dup_fraction, scfg.pdf_fraction,
         scfg.docx_fraction, scfg.unknown_ct_fraction]
    )
    for code, (lo_e, hi_e) in enumerate(zip(np.r_[0.0, edges[:-1]], edges), start=1):
        kinds[(kind_r >= lo_e) & (kind_r < hi_e)] = code
    kinds[0] = 0  # a dup needs an earlier page
    empty_variant = nprng.randint(0, 2, size=n)
    dup_target_raw = (nprng.random_sample(n) * np.arange(n)).astype(np.int64)
    ct_variant = nprng.randint(0, 2, size=n)

    urls = []
    for pid in range(n):
        h = hosts[page_host[pid]]
        s = style[pid]
        if s < 0.08 and h in robots_hosts:
            path = f"/private/p{pid}"
        elif s < 0.5:
            path = f"/p/{pid}"
        elif s < 0.8:
            path = f"/articles/{pid}.html"
        else:
            path = f"/p/{pid}?ref=nav"
        urls.append(f"https://{h}{path}")

    # --- page bodies: normal pages in parallel, then empties + dup chains ---
    ctx = {
        "seed": scfg.seed,
        "hosts": hosts,
        "urls": urls,
        "lex_words": lex_words,
        "lex_weights": lex_weights,
        "lexicon": lexicon,
        "excluded": list(ccfg.excluded_domains),
        "kinds": kinds,
        "latin1_fraction": scfg.latin1_fraction,
        "dead_link_fraction": scfg.dead_link_fraction,
    }
    chunk = 4096
    spans = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    procs = min(16, max(1, (os.cpu_count() or 8) - 2))
    if n >= 20000:
        with mp.Pool(procs, initializer=_gen_init, initargs=(ctx,)) as pool:
            chunks = pool.map(_build_pages_chunk, spans)
    else:
        _gen_init(ctx)
        chunks = [_build_pages_chunk(s) for s in spans]
    htmls: list[bytes] = [h for c in chunks for h in c]

    empty_bodies = [b"", b"<html><body>   \n\n   </body></html>"]
    for pid in np.nonzero(kinds == 1)[0]:
        htmls[pid] = empty_bodies[empty_variant[pid]]

    # content types: missing header (None -> html per M5) vs explicit, plus
    # the pdf / docx / unknown rows
    _HTML_CTS = [None, "text/html; charset=utf-8"]
    _DOCX_CTS = [
        "application/msword",
        "application/vnd.openxmlformats-officedocument.wordprocessingml.document",
    ]
    content_types: list[str | None] = [
        "application/pdf" if kinds[p] == 3
        else _DOCX_CTS[ct_variant[p]] if kinds[p] == 4
        else "application/octet-stream" if kinds[p] == 5
        else _HTML_CTS[ct_variant[p]]
        for p in range(n)
    ]
    # dup chains: follow target until a non-dup page; empty targets fall
    # through to the empty body (still a byte-identical dup pair).  The dup
    # copies BOTH body and content type (a clone is the same response).
    for pid in np.nonzero(kinds == 2)[0]:
        t = int(dup_target_raw[pid])
        hops = 0
        while kinds[t] == 2 and hops < 64:
            t = int(dup_target_raw[t])
            hops += 1
        htmls[pid] = htmls[t]
        content_types[pid] = content_types[t]

    # --- golden text + lang (parallel; same kernels as the engine) ---
    score_spans = [(htmls[lo:hi], content_types[lo:hi]) for lo, hi in spans]
    if n >= 20000:
        with mp.Pool(procs, initializer=_gen_init, initargs=(ctx,)) as pool:
            scored = pool.map(_score_chunk, score_spans)
    else:
        _gen_init(ctx)
        scored = [_score_chunk(s) for s in score_spans]
    texts = [t for ts, _ in scored for t in ts]
    langs = [l for _, ls in scored for l in ls]
    base_ts = datetime(2024, 1, 1)
    warc_ts = [base_ts + timedelta(seconds=pid) for pid in range(n)]

    # --- write pages partitioned by host-hash bucket (the crawl's single
    # partitioning key; must match frontier._prepare_candidates) ---
    buckets = [
        host_bucket(urlparse(u).netloc, scfg.num_url_buckets) for u in urls
    ]
    table = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(warc_ts, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "content_type": pa.array(content_types, pa.string()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "bucket": pa.array(buckets, pa.int32()),
        }
    )
    pages_dir = os.path.join(out_dir, "pages")
    os.makedirs(pages_dir, exist_ok=True)
    import pyarrow.compute as pc

    for b in range(scfg.num_url_buckets):
        # sorted by url, so each row group's url min/max bounds a contiguous
        # range (Arrow sort_by, Python str and Parquet's unsigned-byte UTF-8
        # statistics all compare in code-point order)
        sub = table.filter(pc.equal(table["bucket"], b)).sort_by("url")
        pq.write_table(
            sub,
            os.path.join(pages_dir, f"bucket={b:03d}.parquet"),
            row_group_size=PAGE_ROW_GROUP_ROWS,
            write_statistics=True,
        )

    # --- seeds: spread across hosts, first-page-ish, deterministic order ---
    seed_pids = sorted(rng.sample(range(n), min(scfg.seeds_per_corpus, n)))
    seeds = pa.table(
        {
            "seq": pa.array(range(len(seed_pids)), pa.int64()),
            "url": pa.array([urls[p] for p in seed_pids], pa.string()),
            "query_id": pa.array([p % 7 for p in range(len(seed_pids))], pa.int64()),
            "engine": pa.array(
                [
                    ["google", "google_api", "bing", "bing_api"][p % 4]
                    for p in range(len(seed_pids))
                ],
                pa.string(),
            ),
        }
    )
    pq.write_table(seeds, os.path.join(out_dir, "seeds.parquet"))

    # --- lexicon + english_ref ---
    lex_tbl = pa.table(
        {
            "token": pa.array(list(lexicon.keys()), pa.string()),
            "count": pa.array([lexicon[k] for k in lexicon], pa.int64()),
        }
    )
    pq.write_table(lex_tbl, os.path.join(out_dir, "lexicon.parquet"))
    en_overlap = rng.sample(lex_words, 5) + ["the", "and", "with", "about", "words"]
    pq.write_table(
        pa.table({"token": pa.array(sorted(set(en_overlap)), pa.string())}),
        os.path.join(out_dir, "english_ref.parquet"),
    )

    # --- robots rules ---
    rb_hosts = sorted(robots_disallow.keys())
    pq.write_table(
        pa.table(
            {
                "host": pa.array(rb_hosts, pa.string()),
                "disallow": pa.array(
                    [robots_disallow[h] for h in rb_hosts], pa.list_(pa.string())
                ),
            }
        ),
        os.path.join(out_dir, "robots.parquet"),
    )

    with open(os.path.join(out_dir, "_SUCCESS"), "w") as f:
        f.write(f"n_pages={n} seed={scfg.seed}\n")


def corpus_page_urls(corpus_dir: str) -> list[str]:
    """All page-table URLs (columnar read of the url column only)."""
    pages_dir = os.path.join(corpus_dir, "pages")
    urls: list[str] = []
    for fname in sorted(os.listdir(pages_dir)):
        if fname.endswith(".parquet"):
            urls.extend(
                pq.read_table(
                    os.path.join(pages_dir, fname), columns=["url"]
                )["url"].to_pylist()
            )
    return urls


_SF_PAGES = {"0.001": 500, "0.01": 5000, "0.1": 300000}

# bump when generation/extraction/scoring semantics change so cached corpora
# under /tmp are regenerated rather than silently reused
# v8: html_to_text merges adjacent data events + CDATA (bs4 parity)
# v9: content_type column + pdf/docx/unknown rows (M5/M9/M10 in the crawl)
# v10: vectorized trigram confidence (same math, different fp summation
#      order -> possible ULP-level confidence shifts; goldens regenerate)
# v11: history-independent hashed ids for out-of-profile trigrams (unknown-
#      gram 32-bit hash collisions can merge pnorm counts; goldens regenerate)
# v12: pdf/docx rows are REAL payloads (pdfmini/docxmini kernels) with
#      extractable golden text; M9/M10 no longer take the None path
# v13: pages bucketed by HOST hash (single partitioning key: admission,
#      fetch join and ledger partitions co-locate on it); page content and
#      goldens unchanged, file layout only
# v14: each bucket file sorted by url in 16-row groups with statistics (the
#      fetch reads only the row groups that can hold the requested urls);
#      page content and goldens unchanged, file layout only
CORPUS_VERSION = 14


def corpus_dir_for_sf(sf_dir: str, cache_root: str = "/tmp/wllr_corpus") -> str:
    """Deterministic corpus sized to match a testdata sf directory, cached.

    sf0.001 -> 500 pages, sf0.01 -> 5k, sf0.1 -> 50k (mirroring the driver's
    documents-table row counts).  Generation is driver-side, pure Python,
    one-time; all queries/benchmarks read the cached parquet.
    """
    base = os.path.basename(sf_dir.rstrip("/"))
    sf = base.replace("sf", "") if base.startswith("sf") else "0.001"
    n_pages = _SF_PAGES.get(sf, 500)
    return corpus_dir_for_pages(n_pages, cache_root)


def corpus_dir_for_pages(n_pages: int, cache_root: str = "/tmp/wllr_corpus") -> str:
    scfg = SynthConfig(
        n_pages=n_pages,
        n_hosts=max(24, n_pages // 100),
        seeds_per_corpus=max(16, n_pages // 40),
    )
    out_dir = os.path.join(cache_root, f"v{CORPUS_VERSION}_n{n_pages}_s{scfg.seed}")
    if not os.path.exists(os.path.join(out_dir, "_SUCCESS")):
        generate_corpus(out_dir, scfg)
    return out_dir


def load_lexicon(corpus_dir: str) -> dict[str, int]:
    t = pq.read_table(os.path.join(corpus_dir, "lexicon.parquet"))
    return dict(zip(t["token"].to_pylist(), t["count"].to_pylist()))


def load_robots(corpus_dir: str) -> dict[str, list[str]]:
    t = pq.read_table(os.path.join(corpus_dir, "robots.parquet"))
    return dict(zip(t["host"].to_pylist(), t["disallow"].to_pylist()))
