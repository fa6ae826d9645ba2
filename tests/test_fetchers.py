"""The fetch seam (sources/fetch.py): PageTableFetcher parity and a REAL
HTTP crawl through a local http.server — the live-fetch surface the
reference exercises with urllib (lrl-crawler.py:185-226), run end-to-end
against the wave machinery with ledger equality vs the simulated web."""

from __future__ import annotations

import glob
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pandas as pd
import pytest

from webcrawl_lowres_lang_ray.sources.fetch import HttpFetcher, PageTableFetcher


def _pages_df(corpus_dir: str) -> pd.DataFrame:
    files = sorted(glob.glob(f"{corpus_dir}/pages/*.parquet"))
    return pd.concat(
        [pd.read_parquet(f, columns=["url", "html", "content_type"]) for f in files],
        ignore_index=True,
    )


@pytest.fixture(scope="module")
def corpus_server(small_corpus):
    """Local HTTP mirror of the synthetic web: serves each page's html at
    its url's path?query with the page table's Content-Type header."""
    from urllib.parse import urlsplit

    df = _pages_df(small_corpus)
    routes = {}
    for u, h, ct in zip(df["url"], df["html"], df["content_type"]):
        parts = urlsplit(u)
        key = parts.path + (f"?{parts.query}" if parts.query else "")
        routes[key] = (bytes(h), ct)

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            hit = routes.get(self.path)
            if hit is None:
                self.send_error(404)
                return
            body, ct = hit
            self.send_response(200)
            if ct is not None:  # NULL content_type pages send NO header
                self.send_header("Content-Type", ct)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):  # quiet
            pass

    srv = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}", small_corpus
    srv.shutdown()


class TestPageTableFetcher:
    def test_bucket_pruned_lookup(self, small_corpus):
        df = _pages_df(small_corpus)
        f = PageTableFetcher(f"{small_corpus}/pages")
        # find a bucket with pages by probing the partition files
        path0 = sorted(glob.glob(f"{small_corpus}/pages/bucket=*.parquet"))[0]
        bucket = int(path0.rsplit("=", 1)[1].split(".")[0])
        sub = pd.read_parquet(path0, columns=["url", "html"])
        got = f.fetch(bucket, sub["url"].head(5).tolist() + ["http://nowhere/x"])
        assert len(got) == 5
        u0 = sub["url"].iloc[0]
        assert bytes(got[u0][0]) == bytes(sub["html"].iloc[0])
        assert "http://nowhere/x" not in got

    def test_missing_bucket_is_empty(self, small_corpus):
        f = PageTableFetcher(f"{small_corpus}/pages")
        assert f.fetch(999, ["http://a/"]) == {}

    @pytest.mark.parametrize("corpus", ["small_corpus", "tiny_corpus"])
    def test_generated_page_table_layout(self, corpus, request):
        """Every generated bucket file is url-sorted in row groups of at most
        PAGE_ROW_GROUP_ROWS rows, each with url min/max statistics; page
        urls are unique across the table."""
        import pyarrow.parquet as pq

        from webcrawl_lowres_lang_ray.sources.synth import PAGE_ROW_GROUP_ROWS

        corpus_dir = request.getfixturevalue(corpus)
        urls = []
        for path in sorted(glob.glob(f"{corpus_dir}/pages/bucket=*.parquet")):
            meta = pq.read_metadata(path)
            col = meta.schema.names.index("url")
            file_urls = pq.read_table(path, columns=["url"])["url"].to_pylist()
            assert file_urls == sorted(file_urls), path
            start = 0
            for g in range(meta.num_row_groups):
                rg = meta.row_group(g)
                assert rg.num_rows <= PAGE_ROW_GROUP_ROWS, (path, g)
                if rg.num_rows:
                    st = rg.column(col).statistics
                    assert st is not None and st.has_min_max, (path, g)
                    assert (st.min, st.max) == (
                        file_urls[start], file_urls[start + rg.num_rows - 1]
                    ), (path, g)
                start += rg.num_rows
            urls.extend(file_urls)
        assert len(urls) > 100 and len(set(urls)) == len(urls)


def _write_layouts(tmp_dir, table) -> dict[str, str]:
    """The same pages as bucket 0 of three page tables: the generator's
    layout, one unsorted row group, and sorted small groups with no
    statistics (every group must be read)."""
    import os

    import pyarrow.parquet as pq

    from webcrawl_lowres_lang_ray.sources.synth import PAGE_ROW_GROUP_ROWS

    srt = table.sort_by("url")
    layouts = {
        "sorted_stats": (srt, dict(row_group_size=PAGE_ROW_GROUP_ROWS)),
        "unsorted_one_group": (table, {}),
        "no_statistics": (
            srt, dict(row_group_size=PAGE_ROW_GROUP_ROWS, write_statistics=False)
        ),
    }
    dirs = {}
    for name, (tbl, kw) in layouts.items():
        d = os.path.join(tmp_dir, name)
        os.makedirs(d)
        pq.write_table(tbl, os.path.join(d, "bucket=000.parquet"), **kw)
        dirs[name] = d
    return dirs


class TestPageTableFetcherEquivalence:
    """fetch == a full read filtered in Python, whatever the file layout:
    row-group pruning may only change the speed, never the answer."""

    @pytest.fixture(scope="class")
    def layouts(self, small_corpus, tmp_path_factory):
        import pyarrow as pa
        import pyarrow.parquet as pq

        path0 = sorted(glob.glob(f"{small_corpus}/pages/bucket=*.parquet"))[0]
        pages = pq.read_table(path0, columns=["url", "html", "content_type"])
        # non-ASCII urls: 2-, 3- and 4-byte UTF-8, sorting between and
        # after the ASCII ones, plus a NULL content type
        extra = [
            "http://host000.example.org/\u00fcber",
            "http://host000.example.org/\u65e5\u672c/1",
            "http://host000.example.org/\U0001f600",
            "http://host000.example.org/a\u00e9",
            "http://h\u00f6st.example.org/",
            "http://\U0001f600.example/x",
        ]
        pages = pa.concat_tables([pages, pa.table({
            "url": pa.array(extra, pa.string()),
            "html": pa.array([u.encode() for u in extra], pa.binary()),
            "content_type": pa.array(
                [None] + ["text/html"] * (len(extra) - 1), pa.string()
            ),
        })])
        # a fixed shuffle, so the unsorted layout is really unsorted
        pages = pages.take(pa.array(
            sorted(range(pages.num_rows), key=lambda i: (i * 7919) % pages.num_rows)
        ))
        assert pages.num_rows > 40
        dirs = _write_layouts(str(tmp_path_factory.mktemp("layouts")), pages)
        full = dict(zip(
            pages["url"].to_pylist(),
            zip(pages["html"].to_pylist(), pages["content_type"].to_pylist()),
        ))
        return dirs, full

    def test_fetch_equals_filtered_full_read(self, layouts):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        dirs, full = layouts
        present = sorted(full)
        fetchers = {n: PageTableFetcher(d) for n, d in dirs.items()}
        absent_text = st.text(
            st.characters(blacklist_categories=("Cs",)), max_size=12
        )
        url = st.one_of(
            st.sampled_from(present),
            # near misses: inside a row group's [min, max] but not a page
            st.sampled_from(present).map(lambda u: u + "x"),
            st.sampled_from(present).map(lambda u: u[:-1]),
            absent_text.map(lambda t: "http://host000.example.org/" + t),
            absent_text,
        )

        @settings(max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(st.lists(url, max_size=40))
        def check(urls):
            want = {u: full[u] for u in urls if u in full}
            for name, f in fetchers.items():
                assert f.fetch(0, urls) == want, name

        check()

    def test_pruning_reads_few_row_groups(self, layouts, monkeypatch):
        """On the generator's layout a one-url fetch decodes one row group."""
        import pyarrow.parquet as pq

        dirs, full = layouts
        reads = []
        real = pq.ParquetFile.read_row_groups

        def spy(self, groups, *a, **kw):
            reads.append(list(groups))
            return real(self, groups, *a, **kw)

        monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
        f = PageTableFetcher(dirs["sorted_stats"])
        for u in sorted(full)[::7]:
            assert f.fetch(0, [u]) == {u: full[u]}
        assert reads and all(len(g) == 1 for g in reads)
        reads.clear()
        # below the file's first url and above its last: no group is read
        assert f.fetch(0, ["ftp://before", "~after"]) == {}
        assert reads == []


class TestHttpFetcher:
    def test_fetch_and_miss(self, corpus_server):
        base, corpus = corpus_server
        df = _pages_df(corpus)
        f = HttpFetcher(base_url=base, timeout=5)
        urls = df["url"].head(3).tolist()
        got = f.fetch(0, urls + ["https://host001.example.org/definitely/404"])
        assert set(got) == set(urls)
        for u in urls:
            row = df[df["url"] == u].iloc[0]
            assert got[u][0] == bytes(row["html"])
            assert got[u][1] == row["content_type"]

    def test_connection_refused_is_failed_fetch(self):
        f = HttpFetcher(base_url="http://127.0.0.1:9", timeout=0.5)
        assert f.fetch(0, ["http://h/x"]) == {}

    def test_max_bytes_truncates(self, corpus_server):
        base, corpus = corpus_server
        df = _pages_df(corpus)
        u = df["url"].iloc[0]
        f = HttpFetcher(base_url=base, timeout=5, max_bytes=10)
        got = f.fetch(0, [u])
        assert len(got[u][0]) == 10


class TestHttpCrawlEndToEnd:
    def test_http_crawl_ledger_equals_table_crawl(
        self, ray_session, corpus_server, tmp_path
    ):
        """Full crawl through the LIVE local web server == full crawl
        against the page table, ledger bit-for-bit (url ordering, seen set,
        politeness, extraction — the whole invariant surface)."""
        from webcrawl_lowres_lang_ray.config import CrawlConfig
        from webcrawl_lowres_lang_ray.frontier import LEDGER_META_COLS, run_crawl
        from webcrawl_lowres_lang_ray.pipelines.crawl_queries import ledger_dataset

        base, corpus = corpus_server
        cfg = CrawlConfig(max_waves=4)

        def ledger(out_dir, fetcher):
            run_crawl(corpus, out_dir, cfg, fetcher=fetcher)
            return (
                ledger_dataset(out_dir, columns=LEDGER_META_COLS)
                .to_pandas()
                .sort_values("seq", kind="mergesort")
                .reset_index(drop=True)
            )

        want = ledger(str(tmp_path / "table"), None)
        got = ledger(str(tmp_path / "http"), HttpFetcher(base_url=base, timeout=10))
        pd.testing.assert_frame_equal(got, want)
        assert want["downloaded"].sum() > 50
