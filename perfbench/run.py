"""Crawl benchmark: seeded workloads through ``frontier.run_crawl``, every
ledger checked against the oracle, metrics printed as one JSON line.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke [--sf-dir DIR]
    python3 perfbench/run.py --workload queries --sf-dir DIR --seed 1

Run from the repository root.  Each invocation is one run: a fresh process
that starts its own Ray sessions at ``len(os.sched_getaffinity(0))`` CPUs and
tears each down before it exits.  Inputs (corpus, seed list, oracle) are
prepared before any timed section.

``--trace 0`` runs one session, a fresh driver process (session.py), of
three cycles: set Ray up, crawl, tear Ray down.  The last cycle goes on
crawling the same input until ``--seconds`` of crawl time is used.
``setup_s`` is the median of the three set-ups, every other metric the
median over the crawls.
``--trace 1`` runs the crawl once untraced and once traced, each in its own
session, and reports the per-layer metrics (see layer_trace.py).  Both modes
gate every crawl on the oracle; a mismatching ledger row is a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import procstat  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, WORK, WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170
T0 = time.monotonic()
CYCLES = 3  # set-up/crawl/tear-down cycles per untraced run
SESSION_MARGIN_S = 25  # what a run needs after its last crawl: teardown, gates
N_CPUS = len(os.sched_getaffinity(0))


def log(msg: str) -> None:
    print(f"[perfbench {time.monotonic() - T0:6.1f}s] {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# sessions: one fresh driver process per Ray session (session.py)
# ---------------------------------------------------------------------------

def _resolved(crawl: dict) -> dict:
    st = crawl["stats"]
    crawl["resolved"] = st["fetched"] + st["failed"] + st["skipped_relative"] + st["robots_blocked"]
    log(f"  crawl {crawl['crawl_s']:.2f} s, cpu "
        + ", ".join(f"{k} {v:.2f}" for k, v in crawl["cpu"].items()))
    return crawl


def run_session(corpus: str, out_dir: str, crawl: dict, traced: bool = False,
                cycles: int = 1, seconds: float = 0.0) -> dict:
    """Run session.py in a child process, bounded by what is left of the
    run's time limit; on timeout it is killed with its Ray processes.  A
    traced session returns its one crawl, with ``setup_s``.  An untraced one
    returns ``setups`` and ``crawls``: ``cycles`` cycles of set-up, crawl and
    tear-down, the last crawling on until about ``seconds`` of crawl time
    (session.py)."""
    import subprocess

    result = out_dir + ".result.json"
    left = T0 + RUN_LIMIT_S - time.monotonic()
    spec = {"corpus": corpus, "out_dir": out_dir, "crawl": crawl, "traced": traced,
            "work": WORK, "result": result, "cycles": cycles, "seconds": seconds,
            "max_seconds": left - SESSION_MARGIN_S}
    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    with open(out_dir + ".spec.json", "w") as f:
        json.dump(spec, f)
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "session.py"), out_dir + ".spec.json"],
        stdout=sys.stderr)
    try:
        rc = child.wait(timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        procstat.kill_tree()
        raise TimeoutError(f"session did not finish within the run's {RUN_LIMIT_S} s limit")
    if rc != 0:
        raise RuntimeError(f"session exited with code {rc}")
    with open(result) as f:
        res = json.load(f)
    os.remove(result)
    os.remove(out_dir + ".spec.json")
    if traced:
        log(f"session: setup {res['setup_s']:.2f} s")
        return _resolved(res)
    log("session: setups " + ", ".join(f"{x:.2f}" for x in res["setups"]) + " s")
    for c in res["crawls"]:
        _resolved(c)
    return res


def prepare(wl, seed: int):
    """Corpus, seed list and oracle for one run: all before any timing."""
    import gate

    pkg_hash = workloads.package_hash()
    base = workloads.base_corpus(wl.n_pages, pkg_hash, log)
    corpus = workloads.seeded_corpus(base, wl.n_seeds, seed)
    t0 = time.perf_counter()
    orc = gate.oracle(WORK, corpus, wl.crawl, f"{pkg_hash}:{corpus}", timeout=120)
    log(f"oracle ready in {time.perf_counter() - t0:.1f} s")
    return corpus, gate.Reference(orc, corpus)


def check(ref, out_dir: str) -> dict:
    res = ref.check(out_dir)
    for e in res["errors"]:
        log(f"GATE: {e}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return res


def verdict(gates: list[dict], metrics: dict) -> dict:
    failed = sum(g["failed"] for g in gates)
    return {
        "correct": failed == 0 and not any(g["errors"] for g in gates),
        "attempted": sum(g["attempted"] for g in gates),
        "failed": failed,
        "metrics": metrics,
    }


def m(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(wl, seed: int, seconds: float, cycles: int = CYCLES) -> dict:
    """One session of ``cycles`` set-up/crawl/tear-down cycles and about
    ``seconds`` of crawl time.  ``setup_s`` is the median of the set-ups,
    every other metric the median over the crawls."""
    corpus, ref = prepare(wl, seed)
    tag = os.path.join(WORK, "out", f"{wl.name}_s{seed}_{os.getpid()}")
    sess = run_session(corpus, tag, wl.crawl, cycles=cycles, seconds=seconds)
    runs = sess["crawls"]
    gates = [check(ref, f"{tag}_{i}") for i in range(len(runs))]

    def med(f):
        return statistics.median(f(r) for r in runs)

    return verdict(gates, {
        "crawl_s": m(med(lambda r: r["crawl_s"]), "s"),
        "urls_per_s": m(med(lambda r: r["resolved"] / r["crawl_s"]), "1/s"),
        "cpu_ms_per_url": m(med(lambda r: 1000.0 * sum(r["cpu"].values()) / r["resolved"]), "ms"),
        "driver_peak_rss_mb": m(med(lambda r: r["peak_rss_mb"]), "MB"),
        "setup_s": m(statistics.median(sess["setups"]), "s"),
    })


def _pct(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def run_traced(wl, seed: int, untraced: bool = True) -> dict:
    """Per-layer metrics from a traced session; the /proc figures and the
    tracing overhead come from an untraced session of the same input."""
    import layer_trace

    corpus, ref = prepare(wl, seed)
    tag = os.path.join(WORK, "out", f"{wl.name}_s{seed}_{os.getpid()}")
    out_plain, out_traced = tag + "_plain", tag + "_traced"
    plain = run_session(corpus, out_plain, wl.crawl)["crawls"][0] if untraced else None
    traced = run_session(corpus, out_traced, wl.crawl, traced=True)
    spans, actors = traced["spans"], traced["actors"]

    from webcrawl_lowres_lang_ray.config import CrawlConfig

    kernels = layer_trace.replay_kernels(out_traced, corpus, CrawlConfig(**wl.crawl))
    gates = [check(ref, out_traced)] + ([check(ref, out_plain + "_0")] if plain else [])

    def of(layer):
        return [s for s in spans if s[0] == layer]

    st = traced["stats"]
    fetched, failed, waves = st["fetched"], st["failed"], st["waves"]
    score, fetch = of("functions.scoring"), of("sources.fetch")
    fetch_urls = sum(s[4] for s in fetch)
    fetch_hits = sum(s[5] for s in fetch)
    manifests = sorted(of("checkpoint.write_manifest"), key=lambda s: s[2])
    problems = []
    if len(score) != fetched:
        problems.append(f"score calls {len(score)} != fetched {fetched}")
    if fetch_urls != fetched + failed:
        problems.append(f"fetched URLs {fetch_urls} != fetched + failed {fetched + failed}")
    if fetch_hits != fetched:
        problems.append(f"fetch hits {fetch_hits} != fetched {fetched}")
    if len(manifests) != waves:
        problems.append(f"manifest writes {len(manifests)} != waves {waves}")
    if actors["seen_size"] != st["inserted"]:
        problems.append(f"seen keys {actors['seen_size']} != inserted {st['inserted']}")
    if problems:
        raise RuntimeError("traced run failed reconciliation: " + "; ".join(problems))

    ends = [traced["start_wall"]] + [s[2] for s in manifests]
    wave_ms = [1000.0 * (b - a) for a, b in zip(ends, ends[1:])]
    probe, add, snap = of("state.seen.probe"), of("state.seen.add"), of("state.seen.snapshot")
    probed = sum(s[4] for s in probe)
    base = plain or traced
    cpu = base["cpu"]
    mb = 1.0 / (1 << 20)
    trace_path = os.path.join(WORK, "trace", os.path.basename(tag) + ".json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as f:
        json.dump({"workload": wl.name, "seed": seed,
                   "fields": ["layer", "start", "end", "cpu_s", "count", "extra"],
                   "spans": spans}, f)
    log(f"wrote {len(spans)} spans to {os.path.relpath(trace_path, ROOT)}")

    metrics = {
        "frontier.driver_cpu_s": m(cpu["driver"], "s"),
        "frontier.worker_cpu_s": m(cpu["worker"], "s"),
        "frontier.cpu_utilization": m(cpu["worker"] / (base["crawl_s"] * N_CPUS), "ratio"),
        "frontier.ray_system_cpu_s": m(cpu["daemon"], "s"),
        "frontier.waves": m(waves, "count"),
        "frontier.wave_ms_p50": m(_pct(wave_ms, 50), "ms"),
        "frontier.wave_ms_p90": m(_pct(wave_ms, 90), "ms"),
        "sources.fetch.calls": m(len(fetch), "count"),
        "sources.fetch.urls": m(fetch_urls, "count"),
        "sources.fetch.hit_ratio": m(fetch_hits / max(fetch_urls, 1), "ratio"),
        "sources.fetch.cpu_us_per_call": m(1e6 * sum(s[3] for s in fetch) / max(len(fetch), 1), "us"),
        "sources.fetch.cpu_us_per_url": m(1e6 * sum(s[3] for s in fetch) / max(fetch_urls, 1), "us"),
        "functions.html_text.pages": m(kernels["html_pages"], "count"),
        "functions.html_text.cpu_us_per_page": m(
            1e6 * kernels["html_cpu_s"] / max(kernels["html_pages"], 1), "us"),
        "functions.scoring.pages": m(len(score), "count"),
        "functions.scoring.cpu_us_per_page": m(1e6 * sum(s[3] for s in score) / max(len(score), 1), "us"),
        "functions.urltools.candidates": m(kernels["candidates"], "count"),
        "functions.urltools.cpu_us_per_candidate": m(
            1e6 * kernels["prep_cpu_s"] / max(kernels["candidates"], 1), "us"),
        "state.seen.keys_probed": m(probed, "count"),
        "state.seen.keys_added": m(sum(s[4] for s in add), "count"),
        "state.seen.new_ratio": m(sum(s[5] for s in probe) / max(probed, 1), "ratio"),
        "state.seen.rpc_ms": m(1000.0 * sum(s[2] - s[1] for s in probe + add), "ms"),
        "state.seen.snapshot_ms": m(1000.0 * sum(s[2] - s[1] for s in snap), "ms"),
        "state.seen.runs": m(actors["seen_runs"], "count"),
        "state.robots.hosts_cached": m(actors["robots_hosts_cached"], "count"),
        "state.robots.fetches": m(actors["robots_fetches"], "count"),
        "state.actor_cpu_s": m(cpu["actor"], "s"),
        "checkpoint.manifests": m(len(manifests), "count"),
        "checkpoint.write_ms": m(1000.0 * sum(s[2] - s[1] for s in manifests), "ms"),
        "checkpoint.ledger_mb": m(base["bytes"]["ledger"] * mb, "MB"),
        "checkpoint.frontier_mb": m(base["bytes"]["frontier"] * mb, "MB"),
        "checkpoint.seen_mb": m(base["bytes"]["seen"] * mb, "MB"),
        "checkpoint.manifest_kb": m(base["bytes"]["manifest"] / 1024.0, "KB"),
    }
    if plain:
        metrics["trace.overhead_frac"] = m(traced["crawl_s"] / plain["crawl_s"] - 1.0, "ratio")
    return verdict(gates, metrics)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _install_limits(limit: int) -> None:
    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded its {limit} s limit")

    def hard_stop():
        log(f"run still alive {limit + 8} s after start; killing it")
        procstat.kill_tree()
        os._exit(3)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.alarm(limit)
    t = threading.Timer(limit + 8, hard_stop)
    t.daemon = True
    t.start()


def _check_package() -> None:
    if not os.path.isdir(workloads.PKG):
        raise SystemExit(f"perfbench: package not found next to {HERE}; run from the repository root")
    sys.path.insert(0, ROOT)
    # Ray workers import the package and the trace hook from these paths
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["queries"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload, traced and untraced, on a 500-page corpus")
    ap.add_argument("--sf-dir", help="table directory for the query workload")
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload or --smoke is required")
    _check_package()
    _install_limits(RUN_LIMIT_S)
    sys.modules.setdefault("run", sys.modules[__name__])  # smoke/queries import this module
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.smoke:
            import smoke

            result = smoke.run(args)
        elif args.workload == "queries":
            import queries

            result = queries.run(args)
        else:
            wl = WORKLOADS[args.workload]
            result = (run_traced(wl, args.seed) if args.trace
                      else run_untraced(wl, args.seed, args.seconds))
    finally:
        signal.alarm(0)
        procstat.kill_tree()
    for k, v in result["metrics"].items():
        log(f"{k:42s} {v['value']:>14.4f} {v['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
