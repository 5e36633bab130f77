"""Host probes read straight from /proc and the cgroup tree (no psutil).

- `descendants` finds every process this one spawned (Ray's GCS,
  raylet and workers are all its descendants under
  `ray.init(address="local")`); `reap` waits until they have ended.
- `PeakPss` samples the summed PSS of that tree in a thread.
- `host_counters` snapshots steal time, container CPU time and load;
  `host_window` turns two snapshots into the run record's diagnostics.
  These explain outliers; they never normalize a metric.
"""

from __future__ import annotations

import os
import signal
import threading
import time

_TCK = os.sysconf("SC_CLK_TCK")


def _ppids() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # comm may hold spaces: fields resume after the last ')'
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[0] != "Z":  # a zombie has already ended
            out[int(name)] = int(fields[1])
    return out


def descendants(root: int) -> list[int]:
    """Every live process below `root` (not including it)."""
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppids().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def pss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_pss_mb(root: int) -> float:
    return sum(pss_mb(p) for p in [root, *descendants(root)])


class PeakPss:
    """Peak summed PSS of a process tree, sampled in a thread."""

    def __init__(self, root: int, interval_s: float = 0.25):
        self._root = root
        self._interval = interval_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.peak_mb = 0.0
        self.samples = 0

    def __enter__(self) -> "PeakPss":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, tree_pss_mb(self._root))
            self.samples += 1
            if self._stop.wait(self._interval):
                return

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


def process_age_s() -> float:
    """Seconds since this process started (kernel start time)."""
    with open("/proc/self/stat") as f:
        stat = f.read()
    start_ticks = int(stat[stat.rfind(")") + 2 :].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / _TCK


def _cgroup_cpu_s() -> float | None:
    try:
        with open("/sys/fs/cgroup/cpuacct/cpuacct.usage") as f:
            return int(f.read()) / 1e9
    except OSError:
        pass
    try:  # cgroup v2
        with open("/sys/fs/cgroup/cpu.stat") as f:
            for line in f:
                if line.startswith("usage_usec"):
                    return int(line.split()[1]) / 1e6
    except OSError:
        pass
    return None


def host_counters() -> dict:
    with open("/proc/stat") as f:
        cpu = f.readline().split()
    with open("/proc/loadavg") as f:
        load1 = float(f.read().split()[0])
    return {"t": time.time(), "steal_s": int(cpu[8]) / _TCK,
            "cgroup_cpu_s": _cgroup_cpu_s(), "load1": load1}


def host_window(a: dict, b: dict) -> dict:
    cpu = None
    if a["cgroup_cpu_s"] is not None and b["cgroup_cpu_s"] is not None:
        cpu = round(b["cgroup_cpu_s"] - a["cgroup_cpu_s"], 3)
    return {
        "wall_s": round(b["t"] - a["t"], 3),
        "steal_s": round(b["steal_s"] - a["steal_s"], 3),
        "container_cpu_s": cpu,
        "load1_start": a["load1"],
        "load1_end": b["load1"],
    }


def reap(root: int, timeout_s: float = 30.0) -> list[int]:
    """Wait until no process below `root` is left; SIGKILL what is
    still there at the deadline. Returns the pids that had to be
    killed."""
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if not descendants(root):
            return []
        time.sleep(0.2)
    left = descendants(root)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    t_end = time.time() + 5
    while descendants(root) and time.time() < t_end:
        time.sleep(0.1)
    return left
