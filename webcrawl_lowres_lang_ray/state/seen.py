"""Sharded URL-seen set — cuckoo-filter shards over a DISK-PAGED exact store.

The reference's URL-seen check is a SQLite ``url_hash IN (...)`` existence
probe before insert (sql.py:180-189, used by insert_urls_many
sql.py:213-246).  The rebuild shards the seen set by the digest's trailing
4 bytes ``% num_shards`` (north rule: sharded cuckoo filter, SHA-1
canonical-URL keys).  The shards are data, not processes: the crawl's ONE
state actor (``SeenShardsAndRobots``) owns every shard and routes each
batch inside itself, so a probe, add or snapshot is one RPC whatever the
shard count, and the same process also hosts the robots cache
(``state/robots.py``) — one actor process, not one per kind of state, and
not one per crawl: a finished crawl releases it and the next crawl of the
same Ray session resets and reuses it:

* ``CuckooFilter`` — a real partial-key cuckoo filter (numpy table,
  4-slot buckets, 16-bit fingerprints): answers "definitely new" without
  touching the exact store.  No false negatives; bounded false positives
  (property-tested).
* ``SeenShard`` — one shard, the unit of cuckoo filter, run file and delta
  snapshot.  The exact authority is PAGED:
  - ``recent``: the in-RAM key set holds ONLY keys added since the last
    delta snapshot (one politeness wave's worth);
  - ``runs``: every earlier key lives in sorted immutable run files on disk
    (the per-wave delta snapshots double as the runs), mapped with
    ``np.memmap`` so the OS page cache decides residency.  A probe touches
    a run only when the cuckoo filter says "maybe" — at the north rule's
    10^10-URL scale the filter (~4.5 bytes/key) stays in RAM while the
    ~200 GB of exact keys stay on disk, and the filter's ~1e-4 FP rate
    means ~one binary search per 10^4 genuinely-new keys.
* ``SeenShardsAndRobots`` — the state actor: ``num_shards`` ``SeenShard``
  objects plus one ``RobotsCache``.

Retry-safe protocol (the two insertion kernels, frontier.insert_probe and
frontier.insert_commit, on every wave path): ``probe_new`` is READ-ONLY, so
a Ray task retry that re-probes returns the same verdicts; keys are
registered via ``add_blob`` only by ``insert_commit``, for rows that
actually inserted (idempotent: re-adding a key is a set union).  This also matches the oracle's ``max_pages`` semantics
(oracle.py:102-112): a candidate dropped by the insertion budget is never
seen-marked, so raising the budget on resume re-crawls it.

The crawl probes each candidate digest at most once per wave (candidates
are pre-deduplicated within the wave), so RPC arrival order cannot affect
membership — determinism holds under any RPC scheduling.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import ray

from .robots import RobotsCache

_EVICTION_LIMIT = 500
KEY_LEN = 20
_V20 = np.dtype("V20")


def as_digest_matrix(digests) -> np.ndarray:
    """Normalize digests to an (n, 20) uint8 matrix.

    Accepts a list of 20-byte keys, a V20 numpy array, or an (n, 20) uint8
    matrix (returned as-is).  Hex-string columns are converted upstream by
    ``functions.hashing.hex_to_digests`` (one ``bytes.fromhex`` for the whole
    column — no per-row Python)."""
    if isinstance(digests, np.ndarray):
        if digests.dtype == np.uint8:
            return digests.reshape(-1, KEY_LEN)
        if digests.dtype == _V20:
            return digests.view(np.uint8).reshape(-1, KEY_LEN)
    if isinstance(digests, (bytes, bytearray, memoryview)):
        return np.frombuffer(digests, dtype=np.uint8).reshape(-1, KEY_LEN)
    return np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(-1, KEY_LEN)


class CuckooFilter:
    """Partial-key cuckoo filter over 20-byte digests (4 slots/bucket)."""

    def __init__(self, capacity: int = 1 << 16):
        nbuckets = 1 << max(4, int(np.ceil(np.log2(max(16, capacity) / 4 * 1.1))))
        self.nbuckets = nbuckets
        self.mask = nbuckets - 1
        self.table = np.zeros((nbuckets, 4), dtype=np.uint16)
        self.stash: set[int] = set()  # overflow (never loses a key)
        self.count = 0
        self._rng = np.random.RandomState(0xC0FFEE)  # deterministic evictions

    @staticmethod
    def _mix_digests(digests) -> np.ndarray:
        """Vectorized full-digest mixer: every one of the 20 bytes feeds the
        result (digests sharing a short prefix must not become guaranteed
        mutual false positives — the adversarial inputs the FP-rate property
        probes with).  Three overlapping uint64 lanes xor-combined through a
        splitmix64-style finalizer; fixed constants, so filter state is
        reproducible across processes."""
        arr = as_digest_matrix(digests)
        a = arr[:, 0:8].copy().view("<u8").ravel()
        b = arr[:, 8:16].copy().view("<u8").ravel()
        c = arr[:, 12:20].copy().view("<u8").ravel()

        def mix(x: np.ndarray) -> np.ndarray:
            x = x.copy()
            x ^= x >> np.uint64(33)
            x *= np.uint64(0xFF51AFD7ED558CCD)
            x ^= x >> np.uint64(33)
            x *= np.uint64(0xC4CEB9FE1A85EC53)
            x ^= x >> np.uint64(33)
            return x

        return mix(a) ^ mix(b * np.uint64(0x9E3779B97F4A7C15)) ^ mix(
            c * np.uint64(0xD6E8FEB86659FD93)
        )

    def _decompose_batch(self, digests):
        m = self._mix_digests(digests)
        fp = (m & np.uint64(0xFFFF)).astype(np.int64)
        fp[fp == 0] = 1
        i1 = ((m >> np.uint64(16)).astype(np.int64)) & self.mask
        i2 = (i1 ^ (fp * 0x5BD1)) & self.mask
        return fp, i1, i2

    def _decompose(self, digest: bytes) -> tuple[int, int, int]:
        fp, i1, i2 = self._decompose_batch([digest])
        return int(fp[0]), int(i1[0]), int(i2[0])

    def _place(self, fp: int, i1: int, i2: int) -> None:
        for idx in (i1, i2):
            row = self.table[idx]
            empty = np.nonzero(row == 0)[0]
            if len(empty):
                row[empty[0]] = fp
                self.count += 1
                return
        # evict loop
        idx = i1 if self._rng.randint(2) else i2
        cur = fp
        for _ in range(_EVICTION_LIMIT):
            slot = self._rng.randint(4)
            cur, self.table[idx][slot] = int(self.table[idx][slot]), cur
            idx = (idx ^ (cur * 0x5BD1)) & self.mask
            row = self.table[idx]
            empty = np.nonzero(row == 0)[0]
            if len(empty):
                row[empty[0]] = cur
                self.count += 1
                return
        self.stash.add(cur)
        self.count += 1

    def add(self, digest: bytes) -> None:
        fp, i1, i2 = self._decompose(digest)
        self._place(fp, i1, i2)

    def add_many(self, digests) -> None:
        """Batch insert: one vectorized decomposition, then placements."""
        mat = as_digest_matrix(digests)
        if not len(mat):
            return
        fps, i1s, i2s = self._decompose_batch(mat)
        for k in range(len(mat)):
            self._place(int(fps[k]), int(i1s[k]), int(i2s[k]))

    def might_contain(self, digest: bytes) -> bool:
        fp, i1, i2 = self._decompose(digest)
        return (
            bool((self.table[i1] == fp).any())
            or bool((self.table[i2] == fp).any())
            or fp in self.stash
        )

    def might_contain_many(self, digests) -> np.ndarray:
        """Vectorized membership: one table gather per bucket choice."""
        mat = as_digest_matrix(digests)
        if not len(mat):
            return np.zeros(0, dtype=bool)
        fp, i1, i2 = self._decompose_batch(mat)
        hit = (self.table[i1] == fp[:, None]).any(axis=1)
        hit |= (self.table[i2] == fp[:, None]).any(axis=1)
        if self.stash:
            hit |= np.isin(fp, np.fromiter(self.stash, dtype=np.int64))
        return hit


def _load_run(path: str) -> np.ndarray | None:
    """A run file as a memory-mapped sorted V20 array (disk-paged: the OS
    page cache owns residency; a probe faults in only the touched pages)."""
    size = os.path.getsize(path)
    if size == 0:
        return None
    return np.memmap(path, dtype=_V20, mode="r")


class SeenShard:
    """One shard of the URL-seen set (cuckoo gate + paged exact authority).

    RAM holds the cuckoo filter plus only the keys added since the last
    delta snapshot (``recent``); every older key lives in a sorted on-disk
    run (the snapshot deltas themselves).  ``probe_new`` is read-only;
    ``add_blob`` is idempotent — together the retry-safe protocol the
    streamed insertion path relies on."""

    def __init__(self, shard_id: int, capacity: int = 1 << 16):
        self.shard_id = shard_id
        self.recent: set[bytes] = set()
        self.runs: list[np.ndarray] = []
        self._run_paths: list[str] = []
        self._nrun_keys = 0
        self.cuckoo = CuckooFilter(capacity)

    # -- internals ----------------------------------------------------------

    def _present_mask(self, keys: np.ndarray) -> np.ndarray:
        """True where the key IS already seen.  Exact: the cuckoo gate has no
        false negatives, so only its "maybe" rows pay a run binary-search /
        recent-set probe."""
        n = len(keys)
        present = np.zeros(n, dtype=bool)
        maybe = self.cuckoo.might_contain_many(keys)
        if not maybe.any():
            return present
        sub = keys.view(_V20).ravel()[maybe]
        hit = np.zeros(len(sub), dtype=bool)
        for run in self.runs:
            miss = np.flatnonzero(~hit)
            if not len(miss):
                break
            q = sub[miss]
            idx = np.searchsorted(run, q)
            idxc = np.minimum(idx, len(run) - 1)
            found = (idx < len(run)) & (run[idxc] == q)
            hit[miss[found]] = True
        if self.recent:
            recent = self.recent
            for j in np.flatnonzero(~hit):
                if sub[j].tobytes() in recent:
                    hit[j] = True
        present[np.flatnonzero(maybe)] = hit
        return present

    def _register_new(self, keys: np.ndarray) -> None:
        mat = keys.reshape(-1, KEY_LEN)
        self._maybe_grow(len(mat))
        blob = mat.tobytes()
        self.recent.update(
            blob[i : i + KEY_LEN] for i in range(0, len(blob), KEY_LEN)
        )
        self.cuckoo.add_many(mat)

    def _maybe_grow(self, incoming: int) -> None:
        """Keep the cuckoo under ~80% load: past that, inserts degrade into
        eviction storms (hundreds of displacement hops per add).  Rehash
        re-adds every run (sequential scan of the memmaps) plus the recent
        set — O(total keys), amortized geometric."""
        total = self._nrun_keys + len(self.recent)
        cap = self.cuckoo.nbuckets * 4
        if total + incoming <= 0.8 * cap:
            return
        target = max(cap * 2, int((total + incoming) * 2))
        self.cuckoo = CuckooFilter(target)
        for run in self.runs:
            self.cuckoo.add_many(np.asarray(run))
        if self.recent:
            self.cuckoo.add_many(sorted(self.recent))

    # -- retry-safe split API (blob in, mask out) ---------------------------

    def probe_new(self, blob: bytes) -> np.ndarray:
        """READ-ONLY: True where the digest is NOT yet seen.  Safe under Ray
        task retry — a re-executed probe returns the original verdicts."""
        keys = np.frombuffer(blob, dtype=np.uint8).reshape(-1, KEY_LEN)
        return ~self._present_mask(keys)

    def add_blob(self, blob: bytes) -> int:
        """Register digests as seen.  Idempotent: re-adding is a set union,
        so a retried caller cannot corrupt state.  Returns keys newly added
        (a key repeated within the blob counts once)."""
        keys = np.frombuffer(blob, dtype=np.uint8).reshape(-1, KEY_LEN)
        _, first = np.unique(keys.view(_V20).ravel(), return_index=True)
        if len(first) < len(keys):
            keys = keys[np.sort(first)]
        fresh = ~self._present_mask(keys)
        if fresh.any():
            self._register_new(keys[fresh])
        return int(fresh.sum())

    # -- introspection ------------------------------------------------------

    def size(self) -> int:
        return self._nrun_keys + len(self.recent)

    def ram_key_count(self) -> int:
        """Exact keys currently held in actor RAM (the paged-store bound:
        only keys added since the last delta snapshot)."""
        return len(self.recent)

    def run_count(self) -> int:
        return len(self.runs)

    # -- incremental paged snapshots ----------------------------------------

    def snapshot_delta_to(self, path: str) -> str:
        """Write the keys added since the previous delta (sorted concat) from
        the actor itself — incremental, blobs never visit the driver — then
        PAGE THEM OUT: the delta file becomes a sorted on-disk run and the
        RAM copy is dropped.  After this call the actor's exact-key RAM is
        empty; membership answers are unchanged (cuckoo gate -> run probe)."""
        blob = b"".join(sorted(self.recent))
        with open(path + ".tmp", "wb") as f:
            f.write(blob)
        os.replace(path + ".tmp", path)
        if blob:
            run = _load_run(path)
            self.runs.append(run)
            self._run_paths.append(path)
            self._nrun_keys += len(run)
        self.recent = set()
        return path

    def restore_from(self, paths: list[str], key_len: int = KEY_LEN) -> int:
        """Rebuild from delta files (one per checkpointed wave): each becomes
        a paged run; the cuckoo filter is rebuilt by one sequential scan."""
        self.recent = set()
        self.runs = []
        self._run_paths = []
        self._nrun_keys = 0
        for path in paths:
            run = _load_run(path)
            if run is not None:
                self.runs.append(run)
                self._run_paths.append(path)
                self._nrun_keys += len(run)
        self.cuckoo = CuckooFilter(max(1 << 16, 2 * self._nrun_keys))
        for run in self.runs:
            self.cuckoo.add_many(np.asarray(run))
        return self._nrun_keys


def matrix_shard_ids(mat: np.ndarray, num_shards: int) -> np.ndarray:
    """Owning shard of each row of an (n, 20) digest matrix, from the
    digest's trailing 4 bytes (leading bytes drive the cuckoo bucket index —
    using different bytes keeps shard routing and filter placement
    independent)."""
    return (
        mat[:, -4:].copy().view("<u4").ravel() % np.uint32(num_shards)
    ).astype(np.int64)


# one process for all crawl state: an actor boot is a fresh Python process
# (~0.35 s wall on a 4-CPU host), so one actor holds every kind of state and
# outlives the crawl: ``create_seen_shards`` resets the actor the previous
# crawl of this Ray session released instead of booting another.  That only
# saves time where one Ray session runs several crawls; a one-crawl process
# (the CLI) still pays one boot.  A released actor keeps only its crawl's
# counters (``release``): after a 20k-page crawl the idle process held
# ~140 MB RSS, against ~126 MB for a freshly booted one, and mapped no file
# of the crawl's output directory.  The class name keeps the ``SeenShard``
# process-name prefix that perfbench/procstat.py counts as state-actor CPU.
@ray.remote(num_cpus=0)  # lightweight RPC state actor: microsecond lookups, no compute slot
class SeenShardsAndRobots:
    """Every shard of the URL-seen set and the robots cache in one process:
    each seen call splits its digest blob by owning shard here, so callers
    send one RPC per batch."""

    def __init__(self, num_shards: int, capacity: int = 1 << 16):
        self.shards = [SeenShard(i, capacity) for i in range(num_shards)]
        self.robots: RobotsCache | None = None  # set by load_robots

    def reset(self, num_shards: int, capacity: int = 1 << 16) -> None:
        """The state of a fresh actor: empty shards, no robots cache."""
        self.__init__(num_shards, capacity)

    def release(self) -> None:
        """Drop the finished crawl's keys, cuckoo filters, run-file maps and
        robots table; ``size``/``ram_key_count``/``run_count``/``stats`` keep
        answering with the counters the crawl ended with."""
        finished = _FinishedCrawl(self)
        self.shards = [finished]
        if self.robots is not None:
            self.robots = finished

    def _split(self, blob: bytes):
        mat = np.frombuffer(blob, dtype=np.uint8).reshape(-1, KEY_LEN)
        sid = matrix_shard_ids(mat, len(self.shards))
        for s, shard in enumerate(self.shards):
            idxs = np.flatnonzero(sid == s)
            if len(idxs):
                yield shard, idxs, mat[idxs].tobytes()

    def probe_new(self, blob: bytes) -> np.ndarray:
        out = np.zeros(len(blob) // KEY_LEN, dtype=bool)
        for shard, idxs, part in self._split(blob):
            out[idxs] = shard.probe_new(part)
        return out

    def add_blob(self, blob: bytes) -> int:
        return sum(shard.add_blob(part) for shard, _, part in self._split(blob))

    def size(self) -> int:
        return sum(s.size() for s in self.shards)

    def ram_key_count(self) -> int:
        return sum(s.ram_key_count() for s in self.shards)

    def run_count(self) -> int:
        return sum(s.run_count() for s in self.shards)

    def snapshot_to(self, paths: list[str]) -> list[str]:
        """paths[i] = shard i's new delta file (written by the shard, paged out)."""
        assert len(paths) == len(self.shards)
        return [s.snapshot_delta_to(p) for s, p in zip(self.shards, paths)]

    def restore_from(self, per_shard_paths: list[list[str]]) -> list[int]:
        assert len(per_shard_paths) == len(self.shards)
        return [s.restore_from(ps) for s, ps in zip(self.shards, per_shard_paths)]

    def load_robots(self, robots_parquet_path: str | None) -> None:
        self.robots = RobotsCache(robots_parquet_path)

    def blocked_batch(self, urls: list[str]) -> np.ndarray:
        return self.robots.blocked_batch(urls)

    def stats(self) -> dict:
        return self.robots.stats()


class _FinishedCrawl:
    """What a released state actor keeps of its crawl: the counters, in
    place of its shard list and robots cache, so an idle actor holds no
    crawl data and maps no file of the crawl's output directory."""

    def __init__(self, state: SeenShardsAndRobots):
        self._size = state.size()
        self._ram_keys = state.ram_key_count()
        self._runs = state.run_count()
        self._stats = state.stats() if state.robots is not None else None

    def size(self) -> int:
        return self._size

    def ram_key_count(self) -> int:
        return self._ram_keys

    def run_count(self) -> int:
        return self._runs

    def stats(self) -> dict:
        return self._stats


# (session key, actor) a finished crawl released, or None.  The node id is
# part of the key: the job id repeats across ray.shutdown(); ray.init().
_idle = None
_idle_lock = threading.Lock()


def _session_key() -> tuple[str, str]:
    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


def create_seen_shards(num_shards: int, capacity_hint: int = 1 << 16):
    """The crawl's state actor, owning ``num_shards`` empty shards, as a list
    (the handle list every ``seen_*`` helper and, once
    ``robots.create_robots_actors`` has loaded its source, every robots
    helper takes).

    Takes the actor an earlier crawl of this Ray session released
    (``release_seen_shards``) and resets it; creates one when there is none
    or the idle one has died.  The checkout empties the slot, so concurrent
    crawls never share an actor.  The reset ends what a handle held from
    the earlier crawl reads: from here on its ``size()``/``stats()`` are
    this crawl's."""
    global _idle
    with _idle_lock:
        idle, _idle = _idle, None
    if idle is not None and idle[0] == _session_key():
        try:
            ray.get(idle[1].reset.remote(num_shards, capacity_hint))
            return [idle[1]]
        except ray.exceptions.RayActorError:
            pass
    return [SeenShardsAndRobots.remote(num_shards, capacity_hint)]


def release_seen_shards(shards) -> None:
    """Hand a finished crawl's state actor to the next ``create_seen_shards``
    of this Ray session.  The actor drops the crawl's data at once but keeps
    its counters: ``size()``, ``ram_key_count()``, ``run_count()`` and
    ``stats()`` on a held handle report the finished crawl only until the
    next crawl of the session starts, because that crawl resets the actor."""
    global _idle
    (actor,) = shards
    actor.release.remote()
    with _idle_lock:
        _idle = (_session_key(), actor)


def seen_probe_new(shards, digests) -> np.ndarray:
    """READ-ONLY batch probe; True where the digest is unseen.  Safe to call
    from retryable Ray Data tasks (no state mutation)."""
    (actor,) = shards
    return ray.get(actor.probe_new.remote(as_digest_matrix(digests).tobytes()))


def seen_add(shards, digests) -> int:
    """Idempotent batch add (keys that actually inserted)."""
    (actor,) = shards
    return ray.get(actor.add_blob.remote(as_digest_matrix(digests).tobytes()))


def snapshot_all_to(shards, paths: list[str]) -> list[str]:
    """Actor-side incremental snapshot writes (blobs never on the driver);
    each shard pages its RAM keys out to its new run file ``paths[i]``."""
    (actor,) = shards
    return ray.get(actor.snapshot_to.remote(paths))


def restore_all_from(shards, per_shard_paths: list[list[str]]) -> list[int]:
    """per_shard_paths[i] = every delta file for shard i, in any order."""
    (actor,) = shards
    return ray.get(actor.restore_from.remote(per_shard_paths))
