"""The crawl's output files: this module alone names, lists, resets and
atomically writes them — resumable crawl lineage.

The reference resumes by re-running over SQLite ``handled``/``downloaded``
flags plus idempotent content-addressed files (lrl-crawler.py:101-106,
345-347, 400-402; sql.py:312-334).  The rebuild's equivalent, per the north
rule ("every partition checkpoints lineage: frontier offset, cuckoo-filter
shard snapshot, fetch counters"):

* ``ledger/wave=NNNNN/``   — immutable per-wave ledger partitions:
  ``part-bKKK-sSSSSSSSSS.parquet`` per fetched host bucket K (S = the
  slice's min seq) and ``norun-pNNN.parquet`` per admission partition
  (relative/robots rows); each carries its counter sums in its Parquet
  footer under ``ledger_counts``;
* ``frontier/wave=NNNNN/`` — the pending frontier at the START of wave N:
  ``deferred-pNNN.parquet`` per admission partition of wave N-1 and
  ``insert-pNNN.parquet`` per insertion partition;
* ``seen/wave=NNNNN/shard-KKK.bin`` — per-shard seen-set delta;
* ``manifest/wave=NNNNN.json`` — wave number, next_seq watermark, counters.

A manifest is written only after all of its wave's partitions are durable,
so the latest manifest always names a consistent state: resume = restore
seen shards from its snapshots, re-read its frontier partition, continue
from its wave.  Killed mid-wave -> that wave's directories are reset and
rewritten on re-run (deterministic names, idempotent writes).

The seen-set state actor imports this module, so it imports nothing that
process does not load anyway (``pyarrow.parquet``, not ``pyarrow.dataset``).
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow.parquet as pq

LEDGER_COUNTS_KEY = b"ledger_counts"


def wave_dir(root: str, kind: str, wave: int) -> str:
    return os.path.join(root, kind, f"wave={wave:05d}")


def ledger_dir(root: str, wave: int) -> str:
    return wave_dir(root, "ledger", wave)


def frontier_dir(root: str, wave: int) -> str:
    return wave_dir(root, "frontier", wave)


def manifest_path(root: str, wave: int) -> str:
    return os.path.join(root, "manifest", f"wave={wave:05d}.json")


# ---------------------------------------------------------------------------
# per-wave partition files
# ---------------------------------------------------------------------------

def deferred_path(frontier: str, part: int) -> str:
    return os.path.join(frontier, f"deferred-p{part:03d}.parquet")


def insert_path(frontier: str, part: int) -> str:
    return os.path.join(frontier, f"insert-p{part:03d}.parquet")


def norun_path(ledger: str, part: int) -> str:
    return os.path.join(ledger, f"norun-p{part:03d}.parquet")


def ledger_part_path(ledger: str, bucket: int, min_seq: int) -> str:
    return os.path.join(ledger, f"part-b{bucket:03d}-s{min_seq:09d}.parquet")


def write_ledger_part(tbl, path: str, counts: dict[str, int]) -> None:
    """Write one ledger partition with its counter sums in the footer."""
    pq.write_table(tbl.replace_schema_metadata({LEDGER_COUNTS_KEY: json.dumps(counts)}), path)


def parquet_files(path_dir: str) -> list[str]:
    """One wave directory's Parquet files, sorted by name."""
    if not os.path.isdir(path_dir):
        return []
    return sorted(os.path.join(path_dir, f) for f in os.listdir(path_dir) if f.endswith(".parquet"))


def _wave_dirs(root: str, kind: str) -> list[str]:
    base = os.path.join(root, kind)
    if not os.path.isdir(base):
        return []
    return [os.path.join(base, d) for d in sorted(os.listdir(base)) if d.startswith("wave=")]


def output_files(root: str) -> tuple[list[str], list[str]]:
    """Every ledger partition file, and the files of the last frontier wave
    (the rows still pending), each sorted by path."""
    ledger = [f for d in _wave_dirs(root, "ledger") for f in parquet_files(d)]
    frontiers = _wave_dirs(root, "frontier")
    return ledger, parquet_files(frontiers[-1]) if frontiers else []


def footer_sums(files: list[str]) -> tuple[int, dict[str, int]]:
    """Row count and ledger counter sums of ``files``, from their Parquet
    footers only — no row data is read.  Files without ``ledger_counts``
    (frontier files) add rows only."""
    rows, counts = 0, {}
    for f in files:
        meta = pq.read_metadata(f)
        rows += meta.num_rows
        for k, v in json.loads((meta.metadata or {}).get(LEDGER_COUNTS_KEY, b"{}")).items():
            counts[k] = counts.get(k, 0) + v
    return rows, counts


# ---------------------------------------------------------------------------
# resets, atomic writes, manifests and seen deltas
# ---------------------------------------------------------------------------

def reset_dir(path_dir: str) -> None:
    """Empty (or create) a directory: a fresh crawl's output root, or a
    per-wave partition directory — re-running a killed wave must not leave
    orphan files from the partial attempt (file names can differ between
    the driver and streamed paths)."""
    if os.path.isdir(path_dir):
        shutil.rmtree(path_dir)
    os.makedirs(path_dir, exist_ok=True)


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file and a rename, so
    a reader never sees a partial file."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def write_manifest(root: str, wave: int, payload: dict) -> None:
    os.makedirs(os.path.join(root, "manifest"), exist_ok=True)
    write_atomic(manifest_path(root, wave), json.dumps(payload, indent=1, sort_keys=True).encode())


def latest_manifest(root: str) -> dict | None:
    mdir = os.path.join(root, "manifest")
    if not os.path.isdir(mdir):
        return None
    names = sorted(n for n in os.listdir(mdir) if n.endswith(".json"))
    if not names:
        return None
    with open(os.path.join(mdir, names[-1])) as f:
        return json.load(f)


def seen_snapshot_paths(root: str, wave: int, num_shards: int) -> list[str]:
    """Create the snapshot dir and return per-shard target paths — the seen
    actor writes the files itself (driver never holds the blobs)."""
    d = wave_dir(root, "seen", wave)
    os.makedirs(d, exist_ok=True)
    return [os.path.join(d, f"shard-{i:03d}.bin") for i in range(num_shards)]


def seen_delta_paths(root: str, upto_wave: int, num_shards: int) -> list[list[str]]:
    """Every delta file per shard for waves <= upto_wave (snapshots are
    incremental: restore = union of the deltas; a killed wave's partial
    delta sits above upto_wave and is excluded)."""
    out: list[list[str]] = [[] for _ in range(num_shards)]
    for d in _wave_dirs(root, "seen"):
        if int(d.rsplit("=", 1)[1]) > upto_wave:
            continue
        for i in range(num_shards):
            p = os.path.join(d, f"shard-{i:03d}.bin")
            if os.path.exists(p):
                out[i].append(p)
    return out
