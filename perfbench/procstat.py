"""Outside-in resource accounting from /proc: no hooks in the engine.

Every Ray process of a local session descends from the driver (GCS, raylet
and the other daemons are its children; workers are the raylet's).  A
process is a *worker* when its name starts with ``ray::``; an *actor* when
that name is one of the engine's state actors; anything else is a daemon.
The state actors exit as soon as ``run_crawl`` drops their handles, often
before the closing snapshot: once the raylet has reaped them their CPU shows
only in its children's CPU, which is therefore counted as actor CPU.
"""

from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")
STATE_ACTORS = ("SeenShard", "RobotsCach")  # process names stop at 15 bytes


def _read(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return f.read().decode(errors="replace")
    except OSError:
        return None


def _stat(pid: int) -> tuple[int, str, float, float] | None:
    """(ppid, name, own CPU seconds, reaped children's CPU seconds)."""
    s = _read(f"/proc/{pid}/stat")
    if s is None:
        return None
    name = s[s.index("(") + 1:s.rindex(")")]
    f = s[s.rindex(")") + 2:].split()
    return (int(f[1]), name, (int(f[11]) + int(f[12])) / _TICK,
            (int(f[13]) + int(f[14])) / _TICK)


def _kind(name: str) -> str:
    if name.startswith("ray::"):
        return "actor" if name[5:].startswith(STATE_ACTORS) else "worker"
    return "daemon"


def descendants(root: int | None = None) -> list[int]:
    root = root or os.getpid()
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                children.setdefault(st[0], []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def snapshot() -> dict:
    """CPU seconds of the driver and of every Ray process under it."""
    procs = {}
    for pid in descendants():
        st = _stat(pid)
        if st is not None:
            procs[pid] = (_kind(st[1]), st[2], st[3])
    t = os.times()
    return {"driver": t.user + t.system, "procs": procs}


def cpu_delta(before: dict, after: dict) -> dict:
    """CPU seconds spent between two snapshots, per process kind."""
    out = {"driver": after["driver"] - before["driver"], "worker": 0.0, "actor": 0.0, "daemon": 0.0}
    for pid, (kind, own, reaped) in after["procs"].items():
        _, own0, reaped0 = before["procs"].get(pid, (kind, 0.0, 0.0))
        out[kind] += own - own0
        out["actor"] += reaped - reaped0
    return out


def reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    for line in (_read("/proc/self/status") or "").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def kill_tree(grace_s: float = 10.0) -> None:
    """SIGKILL every process the benchmark started and wait until each has
    ended (reaped, or a zombie waiting on its own parent)."""
    import signal
    import time

    pids = descendants()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.time() + grace_s
    for pid in pids:
        while time.time() < deadline:
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    break
            except ChildProcessError:
                pass
            stat = _read(f"/proc/{pid}/stat")
            if stat is None or stat[stat.rindex(")") + 2] == "Z":
                break
            time.sleep(0.05)
