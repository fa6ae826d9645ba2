"""Command-line entry point (``ray job submit``-able).

Stage flags mirror the reference's ``--run_querygen/--run_websearch/
--run_download/--run_nlp/--all`` surface (lrl-crawler.py:81-91); in the
rebuild the search+download+nlp stages are one streaming crawl, so the
stages are: crawl, report, regen-lexicon.

Examples:
    python -m webcrawl_lowres_lang_ray.cli crawl --corpus <dir> --out /tmp/run1
    python -m webcrawl_lowres_lang_ray.cli crawl --pages 5000 --out /tmp/run2 --resume
    python -m webcrawl_lowres_lang_ray.cli report --out /tmp/run1
    python -m webcrawl_lowres_lang_ray.cli regen-lexicon --out /tmp/run1 --corpus <dir>
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None) -> bool:
    """Init Ray if nobody else owns the session; returns True if we own it."""
    import ray

    owns = False
    if not ray.is_initialized():
        kwargs = dict(
            address="local", include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
        owns = True
    from webcrawl_lowres_lang_ray.raylog import install_empty_schema_filter
    install_empty_schema_filter()
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.preserve_order = False
    return owns


def main(argv=None):
    p = argparse.ArgumentParser(prog="webcrawl_lowres_lang_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="run the URL-frontier crawl")
    c.add_argument("--corpus", help="corpus dir (from sources.synth)")
    c.add_argument("--pages", type=int, help="synthesize/cache a corpus of N pages")
    c.add_argument("--out", required=True)
    c.add_argument("--resume", action="store_true")
    c.add_argument("--per-host-per-wave", type=int, default=2)
    c.add_argument("--max-waves", type=int, default=10_000)
    c.add_argument("--max-pages", type=int, default=0,
                   help="global insertion budget (0 = unlimited)")
    c.add_argument("--no-robots", action="store_true")

    r = sub.add_parser("report", help="stats suite over a crawl output dir")
    r.add_argument("--out", required=True)

    g = sub.add_parser("regen-lexicon", help="one lexicon-growth phase")
    g.add_argument("--out", required=True)
    g.add_argument("--corpus", required=True)
    g.add_argument("--algorithm", choices=["cossim", "primary"], default="cossim")
    g.add_argument("--output-mode", choices=["merge", "replace"], default="merge")

    args = p.parse_args(argv)
    owns_ray = _init_ray(args.num_cpus)

    if args.cmd == "crawl":
        from .config import CrawlConfig
        from .frontier import run_crawl
        from .sources.synth import corpus_dir_for_pages

        corpus = args.corpus or corpus_dir_for_pages(args.pages or 500)
        cfg = CrawlConfig(
            per_host_per_wave=args.per_host_per_wave,
            max_waves=args.max_waves,
            max_pages=args.max_pages,
            apply_robots=not args.no_robots,
        )
        stats = run_crawl(corpus, args.out, cfg, resume=args.resume)
        print(json.dumps({
            "waves": stats.waves, "inserted": stats.inserted,
            "fetched": stats.fetched, "failed": stats.failed,
            "rejected": stats.rejected, "elapsed_sec": round(stats.elapsed_sec, 2),
        }))
    elif args.cmd == "report":
        from .report import full_report

        for name, df in full_report(args.out).items():
            print(f"==== {name} ====")
            print(df.to_string(index=False))
    elif args.cmd == "regen-lexicon":
        from .frontier import accepted_texts
        from .sources.synth import load_lexicon
        from .stages.lexicon import regenerate_lexicon
        from .config import CrawlConfig

        grown = regenerate_lexicon(
            accepted_texts(args.out), load_lexicon(args.corpus), CrawlConfig(),
            algorithm=args.algorithm, output_mode=args.output_mode,
        )
        print(json.dumps({"tokens": len(grown), "total_count": sum(grown.values())}))

    if owns_ray:
        import ray

        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
