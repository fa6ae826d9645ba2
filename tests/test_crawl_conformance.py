"""E2E conformance: the distributed Ray Data crawl == the single-threaded
oracle, bit-for-bit, on every ledger column (SURVEY.md §5 step 3).

Pinned invariants (north rule / input_hint):
* byte-identical extracted ``text`` per url,
* exact crawl ordering (``seq`` and ``wave``),
* identical URL-seen membership,
* identical NLP columns and rejection flags,
* determinism across reruns and across the driver/Ray admission-insertion
  code paths,
* kill-and-resume equals an uninterrupted run.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from webcrawl_lowres_lang_ray.config import CrawlConfig
from webcrawl_lowres_lang_ray.frontier import LEDGER_META_COLS, load_ledger, run_crawl
from webcrawl_lowres_lang_ray.oracle import run_oracle

CFG = CrawlConfig(per_host_per_wave=4)


def _oracle_df(corpus, cfg) -> pd.DataFrame:
    res = run_oracle(corpus, cfg)
    return (
        pd.DataFrame(res.ledger)[LEDGER_META_COLS]
        .sort_values("seq")
        .reset_index(drop=True)
    )


_STAT_FIELDS = (
    "waves", "inserted", "fetched", "failed", "rejected",
    "skipped_relative", "robots_blocked",
)


def _stat_values(stats) -> dict:
    return {k: getattr(stats, k) for k in _STAT_FIELDS}


def _assert_manifest_counts(out: str, stats) -> None:
    """Each wave's manifest carries that wave's ledger counter sums and the
    running totals through it; the last totals are the crawl's CrawlStats."""
    import json
    import os

    import webcrawl_lowres_lang_ray.checkpoint as ckpt
    from webcrawl_lowres_lang_ray.frontier import LEDGER_COUNTERS

    ledger = load_ledger(out, include_pending=False)
    assert stats.waves > 0
    for w in range(stats.waves):
        with open(ckpt.manifest_path(out, w)) as f:
            man = json.load(f)
        rows, upto = ledger.loc[ledger["wave"] == w], ledger.loc[ledger["wave"] <= w]
        for k, col in LEDGER_COUNTERS.items():
            assert man["wave_counts"][k] == int(rows[col].sum()), (w, k)
            assert man[k] == int(upto[col].sum()), (w, k)
    for k in LEDGER_COUNTERS:
        assert getattr(stats, k) == man[k], k


def _assert_ledger_equal(eng: pd.DataFrame, orc: pd.DataFrame):
    assert len(eng) == len(orc), f"row count {len(eng)} != {len(orc)}"
    for c in LEDGER_META_COLS:
        bad = (eng[c] != orc[c])
        assert not bad.any(), (
            f"column {c}: {int(bad.sum())} mismatches; first at seq "
            f"{eng.loc[bad.idxmax(), 'seq']}: {eng[c][bad].iloc[0]!r} != {orc[c][bad].iloc[0]!r}"
        )


def _count_state_actors(monkeypatch) -> list:
    """From now on, every state actor a crawl creates is appended to the
    returned list (an actor taken from the idle slot is not)."""
    import webcrawl_lowres_lang_ray.state.seen as seen

    created = []
    actor_cls = seen.SeenShardsAndRobots

    class Counting:
        @staticmethod
        def remote(*a, **kw):
            created.append(actor_cls.remote(*a, **kw))
            return created[-1]

    monkeypatch.setattr(seen, "SeenShardsAndRobots", Counting)
    return created


@pytest.mark.usefixtures("ray_session")
class TestCrawlConformance:
    def test_ledger_matches_oracle(self, tiny_corpus, tmp_path, monkeypatch):
        import ray

        import webcrawl_lowres_lang_ray.frontier as fr

        states = []
        create = fr.create_robots_actors

        def keep(*a, **kw):
            states.append(create(*a, **kw))
            return states[-1]

        monkeypatch.setattr(fr, "create_robots_actors", keep)
        stats = run_crawl(tiny_corpus, str(tmp_path / "out"), CFG)
        # every wave takes the driver path: at most one wave task per CPU,
        # each with one candidate prep and so one robots RPC, plus one for
        # seed insertion, however many buckets a wave fetches.  The RPCs
        # come from worker processes, so the state actor counts them.
        ((state,),) = states
        lookups = ray.get(state.stats.remote())["lookups"]
        tasks = min(int(ray.cluster_resources()["CPU"]), CFG.num_url_buckets)
        assert 0 < lookups <= stats.waves * tasks + 1, (lookups, stats.waves)
        eng = load_ledger(str(tmp_path / "out")).sort_values("seq").reset_index(drop=True)
        orc = _oracle_df(tiny_corpus, CFG)
        _assert_ledger_equal(eng, orc)
        assert stats.fetched > 0 and stats.failed > 0  # corpus exercises both
        # the M5 dispatch runs inside the crawl: non-html doc types appear,
        # and the stdlib pdfmini/docxmini kernels extract REAL text from
        # them (regression gate: M9/M10 must not fall back to the None path)
        pdf_rows = eng.loc[(eng["doc_type"] == "pdf") & eng["downloaded"]]
        docx_rows = eng.loc[(eng["doc_type"] == "docx") & eng["downloaded"]]
        assert len(pdf_rows) > 0 and (pdf_rows["text"].str.len() > 0).any()
        assert len(docx_rows) > 0 and (docx_rows["text"].str.len() > 0).any()

    def test_text_bytes_identical_to_golden(self, tiny_corpus, tmp_path):
        import glob
        import pyarrow.parquet as pq

        run_crawl(tiny_corpus, str(tmp_path / "out"), CFG)
        eng = load_ledger(str(tmp_path / "out"))
        golden = {}
        for f in glob.glob(tiny_corpus + "/pages/bucket=*.parquet"):
            t = pq.read_table(f, columns=["url", "text"])
            golden.update(zip(t["url"].to_pylist(), t["text"].to_pylist()))
        fetched = eng.loc[eng["downloaded"]]
        assert len(fetched) > 0
        for url, text in zip(fetched["url"], fetched["text"]):
            assert text == golden[url]

    def test_seen_membership_matches_oracle(self, tiny_corpus, tmp_path):
        run_crawl(tiny_corpus, str(tmp_path / "out"), CFG)
        eng = load_ledger(str(tmp_path / "out"))
        orc = run_oracle(tiny_corpus, CFG)
        assert set(eng["canon_sha1"]) == orc.seen

    def test_rerun_deterministic(self, tiny_corpus, tmp_path):
        run_crawl(tiny_corpus, str(tmp_path / "a"), CFG)
        run_crawl(tiny_corpus, str(tmp_path / "b"), CFG)
        a = load_ledger(str(tmp_path / "a"))
        b = load_ledger(str(tmp_path / "b"))
        _assert_ledger_equal(a, b)

    def test_resume_equals_uninterrupted(self, tiny_corpus, tmp_path):
        full_out = str(tmp_path / "full")
        full = run_crawl(tiny_corpus, full_out, CFG)
        # "kill" after 2 waves, then resume
        part_out = str(tmp_path / "part")
        run_crawl(tiny_corpus, part_out, CFG.replace(max_waves=2))
        stats = run_crawl(tiny_corpus, part_out, CFG, resume=True)
        assert stats.waves > 2
        _assert_ledger_equal(load_ledger(part_out), load_ledger(full_out))
        # the counters of the two waves before the stop come back from the
        # manifest: the resumed crawl reports the uninterrupted crawl's stats
        assert _stat_values(stats) == _stat_values(full)
        _assert_manifest_counts(part_out, stats)

    def test_resume_from_single_file_frontier(self, tiny_corpus, tmp_path):
        """A stopped crawl whose frontier is one ``part-0.parquet`` per wave
        (the layout earlier versions of the driver path wrote) resumes to
        the uninterrupted ledger."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        import webcrawl_lowres_lang_ray.checkpoint as ckpt

        full_out = str(tmp_path / "full")
        run_crawl(tiny_corpus, full_out, CFG)
        part_out = str(tmp_path / "part")
        run_crawl(tiny_corpus, part_out, CFG.replace(max_waves=2))
        fdir = ckpt.wave_dir(part_out, "frontier", 2)
        files = sorted(os.path.join(fdir, f) for f in os.listdir(fdir))
        assert len(files) > 1
        merged = pa.concat_tables([pq.read_table(f) for f in files])
        assert merged.num_rows > 0
        for f in files:
            os.remove(f)
        pq.write_table(merged, os.path.join(fdir, "part-0.parquet"))
        stats = run_crawl(tiny_corpus, part_out, CFG, resume=True)
        assert stats.waves > 2
        _assert_ledger_equal(load_ledger(part_out), load_ledger(full_out))

    def test_crawl_switching_paths_matches_oracle(self, tiny_corpus, tmp_path, monkeypatch):
        """A threshold inside the tiny corpus's range of per-wave pending
        counts (8 to 19 at CFG) makes one crawl switch between the driver
        and streamed paths several times; the ledger still equals the
        oracle's bit for bit."""
        import webcrawl_lowres_lang_ray.frontier as fr

        streamed_waves = []
        real = fr._run_wave_streamed

        def counting(out_dir, pages_dir, wave, *a, **kw):
            streamed_waves.append(wave)
            return real(out_dir, pages_dir, wave, *a, **kw)

        monkeypatch.setattr(fr, "DRIVER_PATH_MAX_ROWS", 10)
        monkeypatch.setattr(fr, "_run_wave_streamed", counting)
        stats = run_crawl(tiny_corpus, str(tmp_path / "out"), CFG)
        driver_waves = sorted(set(range(stats.waves)) - set(streamed_waves))
        # both paths ran, and each hands over to the other at least once
        assert streamed_waves and driver_waves, (streamed_waves, stats.waves)
        assert min(streamed_waves) < max(driver_waves)
        assert min(driver_waves) < max(streamed_waves)
        eng = load_ledger(str(tmp_path / "out")).sort_values("seq").reset_index(drop=True)
        _assert_ledger_equal(eng, _oracle_df(tiny_corpus, CFG))

    @pytest.mark.parametrize("path", ["fanout", "streamed"])
    def test_manifest_counters_equal_ledger_sums(
        self, tiny_corpus, tmp_path, monkeypatch, path
    ):
        """Every wave manifest records that wave's five ledger counters,
        summed from the ledger partitions' footers, on each wave path: the
        driver path's raw-task fan-out and the streamed wave (whose norun
        partitions are written by the admission tasks).  Every frontier and
        ledger file either path writes has exactly FRONTIER_SCHEMA /
        LEDGER_SCHEMA, and its only footer metadata is a ledger file's
        ``ledger_counts``.  Every file the crawl writes has a name of the
        checkpoint layout (checkpoint.py), which resumes and perfbench's
        ``ledger/wave=*/part-b*.parquet`` glob rely on."""
        import glob
        import os
        import re
        import shutil

        import pyarrow as pa
        import pyarrow.parquet as pq

        import webcrawl_lowres_lang_ray.frontier as fr

        # the tiny corpus blocks no crawled URL by robots.txt: a copy whose
        # robots rules shut out one host exercises all five counters
        corpus = str(tmp_path / "corpus")
        shutil.copytree(tiny_corpus, corpus)
        robots = pq.read_table(f"{corpus}/robots.parquet").to_pylist()
        robots.append({"host": "host001.example.org", "disallow": ["/"]})
        pq.write_table(pa.Table.from_pylist(robots), f"{corpus}/robots.parquet")
        if path == "streamed":
            monkeypatch.setattr(fr, "DRIVER_PATH_MAX_ROWS", 0)
        out = str(tmp_path / "out")
        stats = run_crawl(corpus, out, CFG)
        _assert_manifest_counts(out, stats)
        assert all(v > 0 for v in _stat_values(stats).values()), _stat_values(stats)
        layout = re.compile(
            r"ledger/wave=\d{5}/(part-b\d{3}-s\d{9}|norun-p\d{3})\.parquet"
            r"|frontier/wave=\d{5}/(deferred|insert)-p\d{3}\.parquet"
            r"|seen/wave=\d{5}/shard-\d{3}\.bin"
            r"|manifest/wave=\d{5}\.json"
        )
        written = sorted(
            os.path.relpath(os.path.join(d, f), out) for d, _, fs in os.walk(out) for f in fs
        )
        assert written and [f for f in written if not layout.fullmatch(f)] == []
        for kind, schema, keys in (
            ("frontier", fr.FRONTIER_SCHEMA, set()),
            ("ledger", fr.LEDGER_SCHEMA, {b"ledger_counts"}),
        ):
            files = glob.glob(f"{out}/{kind}/wave=*/*.parquet")
            assert files, kind
            for f in files:
                got = pq.read_schema(f)
                assert got.equals(schema), (f, got)
                assert set(got.metadata or {}) == keys, (f, got.metadata)

    def test_one_state_actor_serves_seen_and_robots(self, tiny_corpus, tmp_path, monkeypatch):
        """A crawl uses exactly one state actor: both factories hand back its
        handle list, and the seen counters and robots stats come from it.
        The next crawl of the session creates none: it resets the actor the
        first crawl released and reads only its own crawl's state from it.
        A released actor keeps those counters but maps none of the crawl's
        seen run files."""
        import ray

        import webcrawl_lowres_lang_ray.frontier as fr

        created, got = _count_state_actors(monkeypatch), {}

        def keeping(name):
            real = getattr(fr, name)

            def keep(*a, **kw):
                got[name] = real(*a, **kw)
                return got[name]

            return keep

        for name in ("create_seen_shards", "create_robots_actors"):
            monkeypatch.setattr(fr, name, keeping(name))

        def mapped_under(state, root):
            def maps(_actor):
                with open("/proc/self/maps") as f:
                    return sorted({ln.split()[-1] for ln in f if root in ln})

            return ray.get(state.__ray_call__.remote(maps))

        def crawl(name):
            out = str(tmp_path / name)
            stats = run_crawl(tiny_corpus, out, CFG)
            assert got["create_robots_actors"] is got["create_seen_shards"]
            (state,) = got["create_seen_shards"]
            assert mapped_under(state, out) == []
            assert ray.get(state.size.remote()) == stats.inserted > 0
            robots = ray.get(state.stats.remote())
            assert robots["hosts_cached"] == robots["fetches"] > 0
            return state, stats, ray.get(state.run_count.remote()), robots

        # an earlier test may have left an idle actor: this first crawl
        # takes it or creates one, never more than one
        first, stats1, runs1, robots1 = crawl("first")
        assert created in ([], [first])
        assert runs1 > 0

        created.clear()
        second, stats2, runs2, robots2 = crawl("second")
        assert created == []
        assert second == first
        # the same crawl again: the actor's counters restarted at checkout
        assert _stat_values(stats2) == _stat_values(stats1)
        assert (runs2, robots2) == (runs1, robots1)

    def test_dead_idle_actor_is_replaced(self, tiny_corpus, tmp_path, monkeypatch):
        """The idle actor dying between crawls costs the next crawl one fresh
        actor, not its ledger."""
        import time

        import ray

        import webcrawl_lowres_lang_ray.frontier as fr

        got = []
        create = fr.create_seen_shards

        def keep(*a, **kw):
            got.append(create(*a, **kw))
            return got[-1]

        monkeypatch.setattr(fr, "create_seen_shards", keep)
        run_crawl(tiny_corpus, str(tmp_path / "first"), CFG)
        ((idle,),) = got
        ray.kill(idle)
        # wait until a call fails, so the kill cannot land mid-crawl
        deadline = time.time() + 60
        while time.time() < deadline:
            try:
                ray.get(idle.size.remote())
            except ray.exceptions.RayActorError:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("killed actor still answers")

        created = _count_state_actors(monkeypatch)
        out = str(tmp_path / "second")
        run_crawl(tiny_corpus, out, CFG)
        assert len(created) == 1 and got[-1] == created
        eng = load_ledger(out).sort_values("seq").reset_index(drop=True)
        _assert_ledger_equal(eng, _oracle_df(tiny_corpus, CFG))

    def test_crawl_after_ray_restart_in_one_process(self, tiny_corpus, tmp_path):
        """crawl, ray.shutdown(), ray.init(), crawl, crawl in one driver
        process: the second Ray session does not take the first session's
        idle actor (the job id repeats, the node id does not), and its second
        crawl runs on the actor its first released, so the three ledgers
        are equal only if the reset empties that actor."""
        import os
        import subprocess
        import sys

        code = (
            "import sys, ray\n"
            "from webcrawl_lowres_lang_ray.config import CrawlConfig\n"
            "from webcrawl_lowres_lang_ray.frontier import run_crawl\n"
            "corpus, a, b, c = sys.argv[1:]\n"
            "for outs in ([a], [b, c]):\n"
            "    ray.init(address='local', num_cpus=2, include_dashboard=False,\n"
            "             logging_level='ERROR', log_to_driver=False)\n"
            "    for out in outs:\n"
            "        print(run_crawl(corpus, out, CrawlConfig(per_host_per_wave=4)).inserted)\n"
            "    ray.shutdown()\n"
        )
        outs = [str(tmp_path / name) for name in "abc"]
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        res = subprocess.run(
            [sys.executable, "-c", code, tiny_corpus, *outs],
            cwd=root, capture_output=True, text=True, timeout=240,
        )
        assert res.returncode == 0, res.stderr[-3000:]
        inserted = res.stdout.split()
        assert len(inserted) == 3 and len(set(inserted)) == 1 and int(inserted[0]) > 0
        for out in outs[1:]:
            _assert_ledger_equal(load_ledger(out), load_ledger(outs[0]))

    def test_dead_seen_actor_fails_loudly_then_resumes(self, tiny_corpus, tmp_path, monkeypatch):
        """The seen actor dying after wave 1's manifest must stop the crawl
        with Ray's actor error — not hang, not finish on lost state — and a
        resume from that manifest must give the uninterrupted ledger."""
        import threading

        import ray

        import webcrawl_lowres_lang_ray.checkpoint as ckpt
        import webcrawl_lowres_lang_ray.frontier as fr

        full_out = str(tmp_path / "full")
        run_crawl(tiny_corpus, full_out, CFG)

        handles = []
        create, write_manifest = fr.create_seen_shards, ckpt.write_manifest

        def keep(*a, **kw):
            handles.extend(create(*a, **kw))
            return handles

        def kill_after_wave1(root, wave, payload):
            write_manifest(root, wave, payload)
            if wave == 1:
                for actor in handles:
                    ray.kill(actor)

        monkeypatch.setattr(fr, "create_seen_shards", keep)
        monkeypatch.setattr(ckpt, "write_manifest", kill_after_wave1)
        part_out = str(tmp_path / "part")
        raised = []

        def crawl():
            try:
                run_crawl(tiny_corpus, part_out, CFG)
            except Exception as e:  # asserted below
                raised.append(e)

        t = threading.Thread(target=crawl, daemon=True)
        t.start()
        t.join(180)
        assert not t.is_alive(), "crawl hung on a dead seen actor"
        assert len(raised) == 1 and isinstance(raised[0], ray.exceptions.RayActorError), raised
        monkeypatch.undo()
        assert ckpt.latest_manifest(part_out)["wave"] == 1
        # the crawl that raised released nothing: the resume boots an actor
        created = _count_state_actors(monkeypatch)
        stats = run_crawl(tiny_corpus, part_out, CFG, resume=True)
        assert len(created) == 1 and created[0] not in handles
        assert stats.waves > 2
        _assert_ledger_equal(load_ledger(part_out), load_ledger(full_out))

    def test_ray_paths_equal_driver_paths(self, tiny_corpus, tmp_path, monkeypatch):
        import webcrawl_lowres_lang_ray.frontier as fr

        run_crawl(tiny_corpus, str(tmp_path / "drv"), CFG)
        # force the fully-distributed path for admission, insertion AND fetch
        monkeypatch.setattr(fr, "DRIVER_PATH_MAX_ROWS", 0)
        run_crawl(tiny_corpus, str(tmp_path / "ray"), CFG)
        _assert_ledger_equal(
            load_ledger(str(tmp_path / "drv")), load_ledger(str(tmp_path / "ray"))
        )

    def test_driver_wave_submits_one_task_per_cpu(self, tiny_corpus, tmp_path, monkeypatch):
        """A driver-path wave over G bucket groups submits exactly
        min(CPUs, G) wave tasks, and every group lands in exactly one of
        them (one ledger partition per bucket)."""
        import glob
        import os

        import ray

        import webcrawl_lowres_lang_ray.checkpoint as ckpt
        import webcrawl_lowres_lang_ray.frontier as fr

        blocks = []
        real = fr._apply_wave_block

        class Counting:
            @staticmethod
            def remote(fn, blk):
                blocks.append(blk.to_pandas())
                return real.remote(fn, blk)

        monkeypatch.setattr(fr, "_apply_wave_block", Counting)
        out = str(tmp_path / "out")
        stats = run_crawl(tiny_corpus, out, CFG)
        ledger = load_ledger(out, include_pending=False)
        wave_of = dict(zip(ledger["seq"], ledger["wave"]))
        by_wave: dict[int, list[pd.DataFrame]] = {}
        for blk in blocks:
            (w,) = {wave_of[s] for s in blk["seq"]}
            by_wave.setdefault(w, []).append(blk)
        cpus = int(ray.cluster_resources()["CPU"])
        groups = []
        for w in range(stats.waves):
            parts = glob.glob(os.path.join(ckpt.wave_dir(out, "ledger", w), "part-b*.parquet"))
            buckets = [b for blk in by_wave.get(w, []) for b in blk["bucket"].unique()]
            assert len(buckets) == len(set(buckets)) == len(parts), w
            assert len(by_wave.get(w, [])) == min(cpus, len(parts)), w
            groups.append(len(parts))
        assert max(groups) > cpus, groups  # the per-CPU cap was exercised

    def test_streamed_crawl_logs_no_block_size_errors(self, tiny_corpus, tmp_path, monkeypatch):
        """A streamed insertion partition whose rows are all seen leaves 0
        rows.  Ray Data sizes a pandas block's object columns with
        ``np.vectorize``, which raises on 0 rows and logs "Error calculating
        size" once per column from the worker; the streamed stages emit
        Arrow blocks of one fixed schema instead."""
        import glob
        import os
        import time

        import ray

        import webcrawl_lowres_lang_ray.frontier as fr

        logs = ray._private.worker.global_worker.node.get_logs_dir_path()

        def size_errors() -> int:
            n = 0
            for f in glob.glob(os.path.join(logs, "worker-*")):
                with open(f, errors="replace") as fh:
                    n += fh.read().count("Error calculating size")
            return n

        # worker log lines reach their files asynchronously: let earlier
        # tests' lines land before counting, and this crawl's after
        time.sleep(1)
        before = size_errors()
        monkeypatch.setattr(fr, "DRIVER_PATH_MAX_ROWS", 0)
        stats = run_crawl(tiny_corpus, str(tmp_path / "out"), CFG)
        assert stats.waves > 2
        time.sleep(1)
        assert size_errors() == before

    def test_model_cache_is_keyed_by_lexicon_ref(self, tiny_corpus):
        """Wave tasks reuse the worker's scorer model while the crawl's
        lexicon ObjectRef stays the same; the next crawl's ray.put is a new
        ref and must rebuild (its lexicon or config may differ)."""
        import ray

        import webcrawl_lowres_lang_ray.frontier as fr
        from webcrawl_lowres_lang_ray.sources.synth import load_lexicon

        ref = ray.put(load_lexicon(tiny_corpus))
        m1 = fr._get_model(ref, CFG)
        assert fr._get_model(ref, CFG) is m1
        m2 = fr._get_model(ray.put({"w": 1}), CrawlConfig(lang_supported=False))
        assert m2 is not m1 and m2.cfg.lang_supported is False

    def test_wave_task_survives_worker_crash(self, tiny_corpus, tmp_path, monkeypatch):
        """Fault tolerance of the raw-task wave dispatch: a worker process
        dying mid-wave (os._exit, the crash Ray retries — unlike a Python
        exception) must not change the ledger.  Ledger partition writes are
        idempotent overwrites, so the retried task simply rewrites its
        partition — the multi-node story where worker loss is routine."""
        import ray

        import webcrawl_lowres_lang_ray.frontier as fr

        run_crawl(tiny_corpus, str(tmp_path / "clean"), CFG)

        marker = str(tmp_path / "died_once")

        @ray.remote(max_retries=3)
        def dying(fn, blk):
            import os as _os

            if not _os.path.exists(marker):
                with open(marker, "w"):
                    pass
                _os._exit(1)  # hard worker crash mid-task
            return fn(blk)

        monkeypatch.setattr(fr, "_apply_wave_block", dying)
        run_crawl(tiny_corpus, str(tmp_path / "crashed"), CFG)
        assert (tmp_path / "died_once").exists(), "crash hook never fired"
        _assert_ledger_equal(
            load_ledger(str(tmp_path / "clean")),
            load_ledger(str(tmp_path / "crashed")),
        )

    def test_wave_task_batch_equals_per_bucket_calls(self, tiny_corpus, tmp_path):
        """One wave-task call over a multi-bucket batch (rows not in bucket
        order) writes the same ledger files as one call per bucket, and
        returns the same candidates once both are sorted by (ord1, ord2)."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray

        import webcrawl_lowres_lang_ray.checkpoint as ckpt
        import webcrawl_lowres_lang_ray.frontier as fr
        from webcrawl_lowres_lang_ray.sources.synth import load_lexicon
        from webcrawl_lowres_lang_ray.state.robots import create_robots_actors
        from webcrawl_lowres_lang_ray.state.seen import create_seen_shards

        out = str(tmp_path / "out")
        run_crawl(tiny_corpus, out, CFG.replace(max_waves=1))
        pending = pq.read_table(ckpt.frontier_dir(out, 1)).to_pandas()
        batch = pending.loc[~(pending["is_rel"] | pending["robots_blocked"])]
        batch = batch.reset_index(drop=True)
        assert batch["bucket"].nunique() > 1
        assert (np.diff(batch["bucket"].to_numpy()) < 0).any()
        lexicon_ref = ray.put(load_lexicon(tiny_corpus))
        robots = create_robots_actors(
            os.path.join(tiny_corpus, "robots.parquet"),
            create_seen_shards(CFG.num_seen_shards),
        )
        pages = os.path.join(tiny_corpus, "pages")

        def run(name, blocks):
            ledger_dir = str(tmp_path / name)
            os.makedirs(ledger_dir)
            fn = fr._wave_task(pages, lexicon_ref, CFG, 1, ledger_dir, robots)
            cand = pd.concat(
                [fn(pa.Table.from_pandas(b, preserve_index=False)).to_pandas() for b in blocks],
                ignore_index=True,
            )
            cand = cand.sort_values(["ord1", "ord2"]).reset_index(drop=True)
            return ledger_dir, cand

        per_dir, per_cand = run(
            "per_bucket", [g.reset_index(drop=True) for _, g in batch.groupby("bucket")]
        )
        one_dir, one_cand = run("batched", [batch])
        names = sorted(os.listdir(per_dir))
        assert names == sorted(os.listdir(one_dir))
        assert len(names) == batch["bucket"].nunique()
        for f in names:
            assert pq.read_table(os.path.join(per_dir, f)).equals(
                pq.read_table(os.path.join(one_dir, f))
            ), f
        assert len(one_cand) > 0
        pd.testing.assert_frame_equal(per_cand, one_cand)

    def test_streamed_waves_keep_frontier_off_driver(self, tiny_corpus, tmp_path, monkeypatch):
        """With the streamed path forced, the pending frontier must never
        become a driver frame: no wave runs the driver path (the one that
        reads the frontier into a driver table), and every Dataset->driver
        pull stays O(histogram)."""
        import ray.data

        import webcrawl_lowres_lang_ray.frontier as fr

        monkeypatch.setattr(fr, "DRIVER_PATH_MAX_ROWS", 0)

        def no_read(out_dir, pages_dir, wave, *a, **kw):
            raise AssertionError(f"driver read the frontier of wave {wave}")

        monkeypatch.setattr(fr, "_run_wave_driver", no_read)
        orig = ray.data.Dataset.to_pandas
        cap = 2048  # >> rank-bucket histogram, << any frontier/ledger frame

        def capped(self, *a, **k):
            df = orig(self, *a, **k)
            assert len(df) <= cap, f"driver pulled a {len(df)}-row frame"
            return df

        monkeypatch.setattr(ray.data.Dataset, "to_pandas", capped)
        stats = fr.run_crawl(tiny_corpus, str(tmp_path / "out"), CFG)
        assert stats.inserted > 50 and stats.fetched > 0

    def test_priority_reorders_admission(self, tiny_corpus, tmp_path):
        """Priority frontier hook: under a per-host budget of 1, a
        higher-priority seed on the same host is fetched in an earlier wave
        than a lower-seq seed; the oracle agrees bit-for-bit."""
        import glob
        import shutil

        import pyarrow as pa
        import pyarrow.parquet as pq

        from webcrawl_lowres_lang_ray.functions.urltools import host_batch

        corpus = str(tmp_path / "prio_corpus")
        shutil.copytree(tiny_corpus, corpus)
        # find one host with >= 2 pages; seed both its urls, the later one
        # with higher priority
        urls = []
        for f in glob.glob(corpus + "/pages/bucket=*.parquet"):
            urls.extend(pq.read_table(f, columns=["url"])["url"].to_pylist())
        by_host: dict[str, list[str]] = {}
        for u in sorted(urls):
            by_host.setdefault(host_batch(np.array([u], dtype=object))[0], []).append(u)
        host, pair = next((h, v[:2]) for h, v in sorted(by_host.items()) if len(v) >= 2)
        seeds = pa.table(
            {
                "seq": pa.array([0, 1], type=pa.int64()),
                "url": pa.array(pair, type=pa.string()),
                "query_id": pa.array([0, 0], type=pa.int64()),
                "engine": pa.array(["seed", "seed"], type=pa.string()),
                "priority": pa.array([0, 5], type=pa.int64()),
            }
        )
        pq.write_table(seeds, corpus + "/seeds.parquet")
        cfg = CFG.replace(per_host_per_wave=1, apply_robots=False, max_waves=3)
        run_crawl(corpus, str(tmp_path / "prio_out"), cfg)
        eng = load_ledger(str(tmp_path / "prio_out"))
        w = dict(zip(eng["url"], eng["wave"]))
        assert w[pair[1]] == 0, "high-priority seed must run in wave 0"
        assert w[pair[0]] > 0, "low-priority same-host seed must defer"
        _assert_ledger_equal(
            eng.sort_values("seq").reset_index(drop=True), _oracle_df(corpus, cfg)
        )

    def test_link_priority_conformance(self, tiny_corpus, tmp_path):
        """Non-default link_priority (links outrank waiting seeds) must stay
        bit-for-bit with the oracle — seeds default to priority 0 in BOTH
        (regression: the engine once backfilled seeds with link_priority)."""
        cfg = CFG.replace(link_priority=2, max_waves=5)
        run_crawl(tiny_corpus, str(tmp_path / "lp"), cfg)
        eng = load_ledger(str(tmp_path / "lp")).sort_values("seq").reset_index(drop=True)
        _assert_ledger_equal(eng, _oracle_df(tiny_corpus, cfg))

    def test_max_pages_caps_insertion(self, tiny_corpus, tmp_path):
        """max_pages = global seq budget, identical in engine and oracle."""
        cfg = CFG.replace(max_pages=40)
        run_crawl(tiny_corpus, str(tmp_path / "cap"), cfg)
        eng = load_ledger(str(tmp_path / "cap")).sort_values("seq").reset_index(drop=True)
        orc = _oracle_df(tiny_corpus, cfg)
        assert len(eng) == len(orc) <= 40
        _assert_ledger_equal(eng, orc)

    def test_ledger_dataset_pending_only_output(self, tiny_corpus, tmp_path):
        """A crawl stopped before any wave (max_waves=0) leaves a
        pending-only output; ledger_dataset must still produce the wave=-1
        rows instead of crashing on the empty partition list."""
        from webcrawl_lowres_lang_ray.pipelines.crawl_queries import ledger_dataset

        out = str(tmp_path / "pend")
        run_crawl(tiny_corpus, out, CFG.replace(max_waves=0))
        ds = ledger_dataset(out, columns=["seq", "url", "wave"])
        df = ds.to_pandas()
        assert len(df) > 0 and (df["wave"] == -1).all()
        full = load_ledger(out)
        assert len(full) == len(df)

    def test_bucket_count_mismatch_fails_loudly(self, tiny_corpus, tmp_path):
        """A page table written with another bucket count would turn most
        fetches into misses; the default fetcher refuses it up front."""
        with pytest.raises(ValueError, match="256 bucket files.*num_url_buckets is 128"):
            run_crawl(tiny_corpus, str(tmp_path / "out"), CFG.replace(num_url_buckets=128))

    def test_politeness_budget_shapes_waves(self, tiny_corpus, tmp_path):
        s1 = run_crawl(tiny_corpus, str(tmp_path / "k1"), CFG.replace(per_host_per_wave=1))
        s8 = run_crawl(tiny_corpus, str(tmp_path / "k8"), CFG.replace(per_host_per_wave=8))
        assert s1.waves > s8.waves
        # membership (closure) is admission-order independent
        a = load_ledger(str(tmp_path / "k1"))
        b = load_ledger(str(tmp_path / "k8"))
        assert set(a["canon_sha1"]) == set(b["canon_sha1"])
