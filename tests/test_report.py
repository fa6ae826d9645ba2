"""Tests for the stats/report suite (reference display.py:7-198 analog)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


@pytest.fixture(scope="module")
def crawl_out(tiny_corpus, tmp_path_factory, ray_session):
    from webcrawl_lowres_lang_ray.config import CrawlConfig
    from webcrawl_lowres_lang_ray.frontier import run_crawl

    out = str(tmp_path_factory.mktemp("report") / "crawl")
    run_crawl(tiny_corpus, out, CrawlConfig(per_host_per_wave=8))
    return out


class TestReport:
    def test_full_report_shapes(self, crawl_out):
        from webcrawl_lowres_lang_ray.report import full_report

        rep = full_report(crawl_out)
        assert set(rep) == {
            "verdict_counts", "outcome_counts", "dup_url_hash", "dup_file_hash",
            "per_domain", "confidence_extremes", "confidence_histogram",
            "urls_per_query", "engine_breakdown",
        }
        for name, df in rep.items():
            assert isinstance(df, pd.DataFrame), name

    def test_counts_match_pandas_ground_truth(self, crawl_out):
        from webcrawl_lowres_lang_ray.frontier import load_ledger
        from webcrawl_lowres_lang_ray.pipelines.crawl_queries import ledger_dataset
        from webcrawl_lowres_lang_ray.report import (
            outcome_counts,
            per_domain_counts,
            verdict_counts,
        )

        led_df = load_ledger(crawl_out, include_pending=False)
        led = ledger_dataset(crawl_out, include_pending=False)

        v = verdict_counts(led)
        expect = led_df["nlp_full_lang"].value_counts()
        for _, row in v.iterrows():
            assert row["n"] == expect[row["nlp_full_lang"]]

        o = outcome_counts(led)
        assert int(o["downloaded"].iloc[0]) == int(led_df["downloaded"].sum())
        assert int(o["total"].iloc[0]) == len(led_df)

        d = per_domain_counts(led, top=3)
        top_truth = led_df.loc[led_df["host"] != "", "host"].value_counts()
        top_row = d.loc[d["which"] == "top"].iloc[0]
        assert top_row["n"] == top_truth.max()

    def test_ledger_blocks_have_hashable_schemas(self, crawl_out):
        """Ray Data hashes block schemas to deduplicate them and logs
        "Failed to hash the schemas" when that raises; a ledger file's
        footer metadata (``ledger_counts``) makes pyarrow's
        ``Schema.__hash__`` raise, so the ledger read must not carry it.
        Full and column-pruned reads return the same rows as load_ledger."""
        import ray

        from webcrawl_lowres_lang_ray.frontier import LEDGER_META_COLS, ledger_dataset, load_ledger

        want = load_ledger(crawl_out, include_pending=False)
        for cols in (None, [c for c in LEDGER_META_COLS if c != "text"], ["seq", "url", "wave"]):
            ds = ledger_dataset(crawl_out, columns=cols, include_pending=False)
            blocks = ray.get(ds.to_arrow_refs())
            assert blocks
            for b in blocks:
                hash(b.schema)
            got = ds.to_pandas().sort_values("seq").reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want[list(got.columns)])

    def test_dup_file_hash_detects_content_dups(self, crawl_out):
        from webcrawl_lowres_lang_ray.pipelines.crawl_queries import ledger_dataset
        from webcrawl_lowres_lang_ray.report import dup_file_hash_stats

        d = dup_file_hash_stats(ledger_dataset(crawl_out, include_pending=False))
        # corpus plants byte-identical duplicate bodies across urls
        assert len(d) > 0 and (d["n"] > 1).all()

    def test_confidence_histogram_sums(self, crawl_out):
        from webcrawl_lowres_lang_ray.frontier import load_ledger
        from webcrawl_lowres_lang_ray.pipelines.crawl_queries import ledger_dataset
        from webcrawl_lowres_lang_ray.report import confidence_histogram

        led_df = load_ledger(crawl_out, include_pending=False)
        h = confidence_histogram(ledger_dataset(crawl_out, include_pending=False))
        scored = led_df.loc[led_df["downloaded"] & led_df["handled"]]
        assert int(h["n_conf"].sum()) == len(scored)

    def test_accepted_texts_match_pandas(self, crawl_out):
        from webcrawl_lowres_lang_ray.frontier import accepted_texts, load_ledger

        led = load_ledger(crawl_out, include_pending=False)
        want = sorted(led.loc[led["downloaded"] & ~led["rejected"], "text"])
        got = accepted_texts(crawl_out).to_pandas()
        assert list(got.columns) == ["text"]
        assert want and sorted(got["text"]) == want

    def test_crawl_stats_report_matches_pandas(self):
        """q_crawl_stats_report (pending rows included) against the same
        stats computed in pandas from load_ledger."""
        from webcrawl_lowres_lang_ray.frontier import load_ledger
        from webcrawl_lowres_lang_ray.pipelines.crawl_queries import (
            crawl_output_dir,
            q_crawl_stats_report,
        )

        sf = "/root/testdata/sf0.001"
        got = q_crawl_stats_report(sf)
        led = load_ledger(crawl_output_dir(sf), include_pending=True)
        rows = [("total_urls", "", len(led))]
        for stat, col in [
            ("downloaded", "downloaded"), ("failed", "downloaded_failed"),
            ("rejected", "rejected"), ("skipped_relative", "skipped_relative"),
            ("robots_blocked", "robots_blocked"),
        ]:
            rows.append((stat, "", led[col].sum()))
        verdicts = led.loc[led["nlp_full_lang"] != "", "nlp_full_lang"].value_counts()
        rows += [("verdict", v, n) for v, n in verdicts.items()]
        hosts = led.loc[led["host"] != "", "host"].value_counts()
        top = sorted(hosts.items(), key=lambda hn: (-hn[1], hn[0]))[:10]
        rows += [("top_domain", h, n) for h, n in top]
        conf = led.loc[led["downloaded"] & led["handled"], "nlp_full_confidence"]
        deciles = np.clip((conf * 10).astype(np.int64), 0, 9).value_counts()
        rows += [("confidence_decile", str(d), n) for d, n in deciles.items()]
        want = (
            pd.DataFrame(rows, columns=["stat", "key", "value"])
            .astype({"value": np.float64})
            .sort_values(["stat", "key"], kind="mergesort")
            .reset_index(drop=True)
        )
        assert len(want) > 20
        pd.testing.assert_frame_equal(got, want)

    def test_zero_wave_report_counts_zero(self, tiny_corpus, tmp_path):
        """A crawl stopped before its first wave has no ledger partitions:
        the report still runs, and every count in it is zero."""
        from webcrawl_lowres_lang_ray.config import CrawlConfig
        from webcrawl_lowres_lang_ray.frontier import run_crawl
        from webcrawl_lowres_lang_ray.report import full_report

        out = str(tmp_path / "zero")
        assert run_crawl(tiny_corpus, out, CrawlConfig(max_waves=0)).waves == 0
        rep = full_report(out)
        assert rep["outcome_counts"].to_dict("records") == [
            dict.fromkeys(
                ["downloaded", "failed", "skipped_relative", "robots_blocked", "rejected", "total"], 0
            )
        ]
        assert int(rep["engine_breakdown"]["n"].sum()) == 0
        assert int(rep["confidence_histogram"]["n_conf"].sum()) == 0
        columns = {
            "verdict_counts": ["nlp_full_lang", "n"],
            "dup_url_hash": ["url_hash", "n"],
            "dup_file_hash": ["file_hash", "n"],
            "per_domain": ["host", "n", "which"],
            "confidence_extremes": ["seq", "url", "nlp_full_confidence", "which"],
            "urls_per_query": ["query_id", "total_count", "which"],
        }
        for name, cols in columns.items():
            assert len(rep[name]) == 0, name
            assert list(rep[name].columns) == cols, name


class TestCli:
    def test_crawl_and_report_cli(self, tiny_corpus, tmp_path):
        import json

        from webcrawl_lowres_lang_ray.cli import main

        out = str(tmp_path / "cli_out")
        main(["crawl", "--corpus", tiny_corpus, "--out", out,
              "--per-host-per-wave", "8"])
        main(["report", "--out", out])
        main(["regen-lexicon", "--out", out, "--corpus", tiny_corpus])
