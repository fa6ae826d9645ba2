"""Correctness gate: every crawl's ledger against the single-threaded oracle.

The oracle runs from the code under test (``oracle.run_oracle``) in a child
process.  Its ledger and seen set are cached under a key that includes the
package source hash, the seed list and the crawl config.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os

import pyarrow.parquet as pq


def _oracle_child(corpus_dir: str, cfg_kw: dict, out_dir: str) -> None:
    import pandas as pd
    import pyarrow as pa

    from webcrawl_lowres_lang_ray.config import CrawlConfig
    from webcrawl_lowres_lang_ray.frontier import LEDGER_META_COLS
    from webcrawl_lowres_lang_ray.oracle import run_oracle

    res = run_oracle(corpus_dir, CrawlConfig(**cfg_kw))
    df = pd.DataFrame(res.ledger)[LEDGER_META_COLS].sort_values("seq", kind="mergesort")
    tmp = out_dir + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(tmp, "ledger.parquet"))
    pq.write_table(pa.table({"canon_sha1": sorted(res.seen)}),
                   os.path.join(tmp, "seen.parquet"))
    with open(os.path.join(tmp, "oracle.json"), "w") as f:
        json.dump({"waves_run": res.waves_run}, f)
    os.replace(tmp, out_dir)


def in_child(target, args: tuple, timeout: float) -> None:
    """Run ``target(*args)`` in a child process, so its memory never shows
    in the driver; fail loudly on timeout or error."""
    p = mp.get_context("spawn").Process(target=target, args=args)
    p.start()
    p.join(timeout)
    if p.is_alive():
        import procstat

        procstat.kill_tree()
        p.join()
        raise TimeoutError(f"{target.__name__} did not finish within {timeout:.0f} s")
    if p.exitcode != 0:
        raise RuntimeError(f"{target.__name__} exited with code {p.exitcode}")


def oracle(cache_root: str, corpus_dir: str, cfg_kw: dict, key: str, timeout: float) -> str:
    """Directory holding the oracle's ledger.parquet and seen.parquet."""
    h = hashlib.sha256(json.dumps([key, cfg_kw], sort_keys=True).encode()).hexdigest()[:20]
    out = os.path.join(cache_root, "oracle", h)
    if not os.path.exists(os.path.join(out, "oracle.json")):
        os.makedirs(os.path.dirname(out), exist_ok=True)
        in_child(_oracle_child, (corpus_dir, cfg_kw, out), timeout)
    return out


class Reference:
    """The oracle's ledger and seen set plus the corpus golden text, loaded
    once per run and checked against every crawl of that run."""

    def __init__(self, oracle_dir: str, corpus_dir: str):
        import glob

        self.ledger = pq.read_table(os.path.join(oracle_dir, "ledger.parquet")).to_pandas()
        self.seen = set(pq.read_table(os.path.join(oracle_dir, "seen.parquet"))["canon_sha1"].to_pylist())
        self.golden: dict[str, str] = {}
        for f in glob.glob(os.path.join(corpus_dir, "pages", "bucket=*.parquet")):
            t = pq.read_table(f, columns=["url", "text"])
            self.golden.update(zip(t["url"].to_pylist(), t["text"].to_pylist()))

    def check(self, out_dir: str) -> dict:
        """Compare the engine ledger with the oracle on every
        LEDGER_META_COLS column, the canon_sha1 set and the golden text.
        Each mismatching ledger row is one failed operation."""
        import numpy as np

        from webcrawl_lowres_lang_ray.frontier import LEDGER_META_COLS, load_ledger

        eng = load_ledger(out_dir).sort_values("seq", kind="mergesort").reset_index(drop=True)
        orc = self.ledger
        errors: list[str] = []
        attempted = max(len(eng), len(orc))
        if len(eng) != len(orc):
            errors.append(f"ledger rows {len(eng)} != oracle rows {len(orc)}")
            bad_rows = attempted
        else:
            bad = np.zeros(len(eng), dtype=bool)
            for c in LEDGER_META_COLS:
                col_bad = eng[c].to_numpy() != orc[c].to_numpy()
                if col_bad.any():
                    i = int(np.flatnonzero(col_bad)[0])
                    errors.append(f"column {c}: {int(col_bad.sum())} mismatches, first at seq "
                                  f"{eng['seq'].iat[i]}: {eng[c].iat[i]!r} != {orc[c].iat[i]!r}")
                bad |= col_bad
            text_bad = np.array([
                bool(f) and self.golden.get(u) != t
                for f, u, t in zip(eng["downloaded"], eng["url"], eng["text"])
            ], dtype=bool)
            if text_bad.any():
                errors.append(f"text: {int(text_bad.sum())} rows differ from the corpus golden text")
            bad |= text_bad
            bad_rows = int(bad.sum())
        if set(eng["canon_sha1"]) != self.seen:
            errors.append("canon_sha1 set differs from the oracle's seen set")
            bad_rows = max(bad_rows, 1)
        return {"attempted": int(attempted), "failed": int(bad_rows), "errors": errors}
