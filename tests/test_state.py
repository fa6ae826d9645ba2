"""Tests for stateful actors: seen-set shards, cuckoo filter, robots cache,
politeness buckets."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webcrawl_lowres_lang_ray.state.politeness import HostBudget
from webcrawl_lowres_lang_ray.state.seen import CuckooFilter


def _digest(i: int) -> bytes:
    return hashlib.sha1(str(i).encode()).digest()


def _probe_add(shards, keys) -> np.ndarray:
    """The crawl's insertion protocol (frontier.insert_probe, then
    frontier.insert_commit): a read-only probe, then an add of exactly the
    keys it reported new."""
    from webcrawl_lowres_lang_ray.state.seen import seen_add, seen_probe_new

    new = seen_probe_new(shards, keys)
    if new.any():
        seen_add(shards, [k for k, n in zip(keys, new) if n])
    return new


class TestCuckooFilter:
    def test_no_false_negatives(self):
        cf = CuckooFilter(capacity=4096)
        keys = [_digest(i) for i in range(3000)]
        for k in keys:
            cf.add(k)
        assert all(cf.might_contain(k) for k in keys)

    def test_false_positive_rate_bounded(self):
        cf = CuckooFilter(capacity=8192)
        for i in range(4000):
            cf.add(_digest(i))
        probes = [_digest(i) for i in range(100_000, 120_000)]
        fp = sum(cf.might_contain(p) for p in probes)
        assert fp / len(probes) < 0.02  # 16-bit fingerprints, 2 buckets

    def test_overflow_goes_to_stash_not_lost(self):
        cf = CuckooFilter(capacity=16)  # deliberately tiny
        keys = [_digest(i) for i in range(500)]
        for k in keys:
            cf.add(k)
        assert all(cf.might_contain(k) for k in keys)


@pytest.mark.usefixtures("ray_session")
class TestSeenShards:
    def test_contains_and_add_first_wins(self):
        """A key is new only in the first batch that carries it."""
        from webcrawl_lowres_lang_ray.state.seen import create_seen_shards

        shards = create_seen_shards(4)
        batch1 = [_digest(i) for i in range(100)]
        assert _probe_add(shards, batch1).all()
        batch2 = [_digest(i) for i in range(50, 150)]
        new2 = _probe_add(shards, batch2)
        assert (~new2[:50]).all() and new2[50:].all()

    def test_snapshot_restore_roundtrip(self, tmp_path):
        """Per-wave delta snapshots restore to the same membership, whatever
        order each shard's delta files arrive in (resume reads them from a
        directory listing)."""
        import ray

        from webcrawl_lowres_lang_ray.state.seen import (
            create_seen_shards,
            restore_all_from,
            snapshot_all_to,
        )

        shards = create_seen_shards(3)
        waves = [[_digest(i) for i in range(w * 200, w * 200 + 200)] for w in range(2)]
        paths = []
        for w, keys in enumerate(waves):
            _probe_add(shards, keys)
            paths.append([str(tmp_path / f"w{w}-{s}.bin") for s in range(3)])
            snapshot_all_to(shards, paths[-1])
        fresh = create_seen_shards(3)
        restored = restore_all_from(fresh, [[p1, p0] for p0, p1 in zip(*paths)])
        assert sum(restored) == 400
        assert sum(ray.get([s.size.remote() for s in fresh])) == 400
        # everything already present after restore; a non-member is still new
        assert not _probe_add(fresh, waves[0] + waves[1]).any()
        assert _probe_add(fresh, [_digest(9_999_999)]).all()


@pytest.mark.usefixtures("ray_session")
class TestPagedSeenStore:
    """The disk-paged exact store: after a delta snapshot, an actor's exact
    keys live ONLY in sorted on-disk runs (memmapped, cuckoo-gated probes);
    RAM holds just the keys added since.  Membership answers never change."""

    def test_paging_bounds_ram_and_keeps_membership(self, tmp_path):
        import ray

        from webcrawl_lowres_lang_ray.state.seen import (
            create_seen_shards,
            snapshot_all_to,
        )

        shards = create_seen_shards(3)
        wave1 = [_digest(i) for i in range(500)]
        assert _probe_add(shards, wave1).all()
        snapshot_all_to(
            shards, [str(tmp_path / f"d1-{s}.bin") for s in range(3)]
        )
        # the paged-store bound: zero exact keys in actor RAM after paging
        assert sum(ray.get([s.ram_key_count.remote() for s in shards])) == 0
        assert sum(ray.get([s.run_count.remote() for s in shards])) >= 1
        # membership is exact across the run files: members all present,
        # a disjoint probe set all absent (cuckoo FPs must be confirmed away)
        assert not _probe_add(shards, wave1).any()
        probes = [_digest(i) for i in range(10_000, 12_000)]
        assert _probe_add(shards, probes).all()  # marks wave2 seen
        snapshot_all_to(
            shards, [str(tmp_path / f"d2-{s}.bin") for s in range(3)]
        )
        assert sum(ray.get([s.ram_key_count.remote() for s in shards])) == 0
        # spans both runs + fresh keys in one batch
        mixed = wave1[::7] + probes[::5] + [_digest(i) for i in range(20_000, 20_050)]
        got = _probe_add(shards, mixed)
        expect = np.array(
            [False] * len(wave1[::7]) + [False] * len(probes[::5]) + [True] * 50
        )
        assert (got == expect).all()
        assert sum(ray.get([s.size.remote() for s in shards])) == 2550

    def test_probe_readonly_add_idempotent(self):
        import ray

        from webcrawl_lowres_lang_ray.state.seen import (
            create_seen_shards,
            seen_add,
            seen_probe_new,
        )

        shards = create_seen_shards(2)
        keys = [_digest(i) for i in range(300)]
        # probe mutates nothing: repeated probes return identical verdicts
        assert seen_probe_new(shards, keys).all()
        assert seen_probe_new(shards, keys).all()
        assert sum(ray.get([s.size.remote() for s in shards])) == 0
        # add is an idempotent set union (task-retry safety)
        assert seen_add(shards, keys) == 300
        assert seen_add(shards, keys) == 0
        assert sum(ray.get([s.size.remote() for s in shards])) == 300
        assert not seen_probe_new(shards, keys).any()

    def test_restore_from_is_paged(self, tmp_path):
        import ray

        from webcrawl_lowres_lang_ray.state.seen import (
            create_seen_shards,
            restore_all_from,
            snapshot_all_to,
        )

        shards = create_seen_shards(2)
        keys = [_digest(i) for i in range(400)]
        _probe_add(shards, keys)
        paths = [str(tmp_path / f"d-{s}.bin") for s in range(2)]
        snapshot_all_to(shards, paths)
        fresh = create_seen_shards(2)
        restore_all_from(fresh, [[p] for p in paths])
        # restored exact authority is the memmapped run, not actor RAM
        assert sum(ray.get([s.ram_key_count.remote() for s in fresh])) == 0
        assert not _probe_add(fresh, keys).any()
        assert _probe_add(fresh, [_digest(9_999_999)]).all()

    def test_budget_dropped_candidates_recrawlable(self, tmp_path):
        """oracle.py:106-112 order: the max_pages budget drops a candidate
        BEFORE seen-marking, so a raised-budget resume re-crawls it.  Runs
        the crawl's two insertion kernels as one partition, as seed
        insertion and the driver-path wave do.  Some candidates repeat an
        earlier candidate's ``canon_sha1`` key; only the first by
        (ord1, ord2) inserts, wherever the repeats sit in row order."""
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from webcrawl_lowres_lang_ray.config import CrawlConfig
        from webcrawl_lowres_lang_ray.frontier import (
            _prepare_candidates,
            insert_commit,
            insert_probe,
        )
        from webcrawl_lowres_lang_ray.state.seen import create_seen_shards

        base = [f"http://site{i}.example.com/p" for i in range(20)]
        # repeated keys: each url canonicalizes to the key of base[3] or
        # base[10] but sorts after it by (ord1, ord2); they come first in
        # row order
        repeats = {
            "http://SITE3.example.com:80/p#a": (20, 0),
            "http://site10.example.com/p": (10, 1),
            "http://site3.example.com/p": (3, 1),
        }
        cand = pd.DataFrame(
            {
                "url": [*repeats, *base],
                "query_id": np.int64(0),
                "engine": "test",
                "ord1": np.array([o for o, _ in repeats.values()] + list(range(20)), dtype=np.int64),
                "ord2": np.array([o for _, o in repeats.values()] + [0] * 20, dtype=np.int64),
                "priority": np.int64(0),
            }
        )
        shards = create_seen_shards(2)

        def insert(cfg, base_seq, name):
            new = insert_probe(
                _prepare_candidates(pa.Table.from_pandas(cand, preserve_index=False), cfg), shards
            )
            seq = base_seq + np.arange(new.num_rows, dtype=np.int64)
            path = str(tmp_path / name)
            n = insert_commit(new, seq, cfg.max_pages, path, shards)
            rows = pq.read_table(path).to_pandas()
            assert n == len(rows)
            return rows

        cfg = CrawlConfig(max_pages=8, apply_robots=False)
        first = insert(cfg, 0, "first.parquet")
        assert list(first["url"]) == base[:8]
        assert list(first["seq"]) == list(range(8))
        # resume with a raised budget: the 12 dropped rows were never
        # seen-marked, so they insert now; the 8 inserted ones stay deduped
        cfg2 = CrawlConfig(max_pages=0, apply_robots=False)
        second = insert(cfg2, 8, "second.parquet")
        assert list(second["url"]) == base[8:]
        assert list(second["seq"]) == list(range(8, 20))


@pytest.mark.usefixtures("ray_session")
class TestRobotsCache:
    def test_caching_and_blocking(self, small_corpus):
        import os

        from webcrawl_lowres_lang_ray.sources.synth import load_robots
        from webcrawl_lowres_lang_ray.state.robots import (
            create_robots_actors,
            robots_blocked_mask,
        )
        from webcrawl_lowres_lang_ray.state.seen import create_seen_shards
        import ray

        rules = load_robots(small_corpus)
        host = next(iter(rules))
        actors = create_robots_actors(
            os.path.join(small_corpus, "robots.parquet"), create_seen_shards(2)
        )
        urls = [
            f"https://{host}/private/x",
            f"https://{host}/public/x",
            "https://unknown.example.net/anything",
            f"https://{host}/private/y",
        ]
        mask = robots_blocked_mask(actors, urls)
        assert list(mask) == [True, False, False, True]
        # cache: each host's rules fetched once despite repeat queries
        assert list(robots_blocked_mask(actors, urls)) == list(mask)
        stats = ray.get([a.stats.remote() for a in actors])
        assert sum(s["fetches"] for s in stats) == 2  # distinct hosts

    def test_lookup_leaves_pyarrow_dataset_unimported(self, small_corpus):
        """The first lookup reads the robots table in the state actor's
        fresh process, where ``pq.read_table`` would first import
        ``pyarrow.dataset`` (about 0.15 s); the cache reads it without."""
        import os
        import subprocess
        import sys

        from webcrawl_lowres_lang_ray.sources.synth import load_robots

        host, rules = next((h, r) for h, r in load_robots(small_corpus).items() if r)
        code = (
            "import sys\n"
            "from webcrawl_lowres_lang_ray.state.robots import RobotsCache\n"
            f"c = RobotsCache({os.path.join(small_corpus, 'robots.parquet')!r})\n"
            f"assert list(c.blocked_batch(['https://{host}{rules[0]}x'])) == [True]\n"
            "print('pyarrow.dataset' in sys.modules)\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False", out.stdout

    def test_each_host_cached_once_across_processes(self, small_corpus):
        """Two worker processes (each with its own salted str ``hash``) gate
        the same URLs through the crawl's candidate prep: the robots cache
        is shared, so the summed robots fetches equal the number of
        distinct hosts."""
        import os

        import pandas as pd
        import pyarrow as pa
        import ray

        from webcrawl_lowres_lang_ray.config import CrawlConfig
        from webcrawl_lowres_lang_ray.frontier import _prepare_candidates
        from webcrawl_lowres_lang_ray.state.robots import create_robots_actors
        from webcrawl_lowres_lang_ray.state.seen import create_seen_shards

        urls = [f"https://host{h}.example.org/p{i}" for h in range(40) for i in range(3)]
        cand = pd.DataFrame(
            {
                "url": urls,
                "query_id": np.int64(0),
                "engine": "link",
                "ord1": np.arange(len(urls), dtype=np.int64),
                "ord2": np.int64(0),
            }
        )
        actors = create_robots_actors(
            os.path.join(small_corpus, "robots.parquet"), create_seen_shards(2)
        )

        # max_calls=1: each call runs in a fresh worker process
        @ray.remote(num_cpus=1, max_calls=1)
        def gate(cand, actors):
            _prepare_candidates(cand, CrawlConfig(), actors)
            return os.getpid()

        cand = pa.Table.from_pandas(cand, preserve_index=False)
        pids = ray.get([gate.remote(cand, actors) for _ in range(2)])
        assert len(set(pids)) == 2
        stats = ray.get([a.stats.remote() for a in actors])
        assert sum(s["fetches"] for s in stats) == 40
        assert sum(s["hosts_cached"] for s in stats) == 40


class TestPoliteness:
    def test_budget_per_wave(self):
        hb = HostBudget(2)
        rows = [(0, "a"), (1, "a"), (2, "a"), (3, "b")]
        assert hb.admit_order(rows) == [True, True, False, True]
        hb.new_wave()
        assert hb.try_admit("a")

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 400),
        hosts=st.integers(1, 20),
        k=st.integers(1, 6),
        priorities=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @example(n=500, hosts=10, k=3, priorities=3, seed=7)
    def test_matches_groupby_headk_semantics(self, n, hosts, k, priorities, seed):
        """The crawl's one admission kernel equals HostBudget fed the
        (priority DESC, seq ASC) order, and routes every row: admitted
        relative/robots rows to the norun ledger partition, the other
        admitted rows back to the caller, the rest to the next frontier."""
        import os
        import tempfile

        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from webcrawl_lowres_lang_ray.frontier import FRONTIER_SCHEMA, admit_route

        rng = np.random.RandomState(seed)
        df = pd.DataFrame(
            {
                "seq": np.arange(n, dtype=np.int64),
                "url": [f"http://h/{i}" for i in range(n)],
                "url_hash": "",
                "canon_sha1": "",
                "host": [f"h{rng.randint(hosts)}" for _ in range(n)],
                "bucket": np.int32(0),
                "query_id": np.int64(0),
                "engine": "link",
                "is_rel": rng.rand(n) < 0.1,
                "robots_blocked": rng.rand(n) < 0.1,
                "priority": rng.randint(0, priorities, n).astype(np.int64),
            }
        )
        order = df.sort_values(["priority", "seq"], ascending=[False, True])
        hb = HostBudget(k)
        expect = np.array(hb.admit_order(list(zip(order["seq"], order["host"]))), dtype=bool)
        admitted = order.loc[expect]
        gated = (admitted["is_rel"] | admitted["robots_blocked"]).to_numpy()

        shuffled = pa.Table.from_pandas(
            df.iloc[rng.permutation(n)], schema=FRONTIER_SCHEMA, preserve_index=False
        )
        with tempfile.TemporaryDirectory() as d:
            to_fetch = admit_route(shuffled, k, 5, 7, d, d).to_pandas()
            deferred = pq.read_table(os.path.join(d, "deferred-p007.parquet")).to_pandas()
            norun_path = os.path.join(d, "norun-p007.parquet")
            # a norun partition is written only when some admitted row is gated
            assert os.path.exists(norun_path) == gated.any()
            if gated.any():
                norun = pq.read_table(norun_path).to_pandas()
                assert sorted(norun["seq"]) == sorted(admitted.loc[gated, "seq"])
                assert (norun["wave"] == 5).all() and norun["handled"].all()
        assert list(to_fetch["seq"]) == list(admitted.loc[~gated, "seq"])
        assert sorted(deferred["seq"]) == sorted(order.loc[~expect, "seq"])


class TestMapGroupsBlockIntegrity:
    def test_group_never_splits_under_small_block_cap(self, ray_session):
        """Pins the Ray invariant the streamed wave relies on: admission sets
        target_max_block_size=1MB (frontier.py _run_wave_streamed) so hot
        partitions split into several fetch/score tasks — but a groupby key
        group must STILL arrive at map_groups in one piece (politeness
        budgets are computed per whole host group).  A ~5 MB single group
        under a 1 MB cap must reach the UDF as exactly one call."""
        import pandas as pd
        import ray as _ray

        ctx = _ray.data.DataContext.get_current()
        prev = ctx.target_max_block_size
        ctx.target_max_block_size = 1 << 20
        try:
            n = 50_000
            df = pd.DataFrame(
                {
                    "g": np.r_[
                        np.zeros(n, dtype=np.int64), np.ones(1000, dtype=np.int64)
                    ],
                    "payload": ["x" * 100] * (n + 1000),
                }
            )
            parts = np.array_split(np.arange(len(df)), 8)
            ds = _ray.data.from_pandas([df.iloc[ix] for ix in parts])

            def fn(g: pd.DataFrame) -> pd.DataFrame:
                return pd.DataFrame(
                    {"g": [int(g["g"].iloc[0])], "rows": [len(g)]}
                )

            out = (
                ds.groupby("g")
                .map_groups(fn, batch_format="pandas")
                .to_pandas()
                .sort_values("g")
                .reset_index(drop=True)
            )
            assert list(out["g"]) == [0, 1]
            assert list(out["rows"]) == [n, 1000]
        finally:
            ctx.target_max_block_size = prev
