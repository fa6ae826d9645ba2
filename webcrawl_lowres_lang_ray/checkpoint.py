"""Per-wave checkpoint manifests — resumable crawl lineage.

The reference resumes by re-running over SQLite ``handled``/``downloaded``
flags plus idempotent content-addressed files (lrl-crawler.py:101-106,
345-347, 400-402; sql.py:312-334).  The rebuild's equivalent, per the north
rule ("every partition checkpoints lineage: frontier offset, cuckoo-filter
shard snapshot, fetch counters"):

* ``ledger/wave=NNNNN/``   — immutable per-wave ledger partitions;
* ``frontier/wave=NNNNN/`` — the pending frontier at the START of wave N
  (sorted Parquet spill of the priority frontier);
* ``seen/wave=NNNNN/shard-K.bin`` — exact seen-set snapshot per shard;
* ``manifest/wave=NNNNN.json`` — wave number, next_seq watermark, counters.

A manifest is written only after all of its wave's partitions are durable,
so the latest manifest always names a consistent state: resume = restore
seen shards from its snapshots, re-read its frontier partition, continue
from its wave.  Killed mid-wave -> that wave's partial output is simply
overwritten on re-run (writes are per-wave-directory, idempotent).
"""

from __future__ import annotations

import json
import os
import shutil


def wave_dir(root: str, kind: str, wave: int) -> str:
    return os.path.join(root, kind, f"wave={wave:05d}")


def manifest_path(root: str, wave: int) -> str:
    return os.path.join(root, "manifest", f"wave={wave:05d}.json")


def write_manifest(root: str, wave: int, payload: dict) -> None:
    os.makedirs(os.path.join(root, "manifest"), exist_ok=True)
    tmp = manifest_path(root, wave) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    os.replace(tmp, manifest_path(root, wave))


def latest_manifest(root: str) -> dict | None:
    mdir = os.path.join(root, "manifest")
    if not os.path.isdir(mdir):
        return None
    names = sorted(n for n in os.listdir(mdir) if n.endswith(".json"))
    if not names:
        return None
    with open(os.path.join(mdir, names[-1])) as f:
        return json.load(f)


def clear_output(root: str) -> None:
    if os.path.isdir(root):
        shutil.rmtree(root)
    os.makedirs(root, exist_ok=True)


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
    base = os.path.join(root, "seen")
    out: list[list[str]] = [[] for _ in range(num_shards)]
    if os.path.isdir(base):
        for d in sorted(os.listdir(base)):
            if not d.startswith("wave="):
                continue
            if int(d.split("=")[1]) > upto_wave:
                continue
            for i in range(num_shards):
                p = os.path.join(base, d, f"shard-{i:03d}.bin")
                if os.path.exists(p):
                    out[i].append(p)
    return out

