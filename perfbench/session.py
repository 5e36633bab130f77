"""The benchmark's Ray session: one local node with a fixed shape.

- num_cpus = 1: the one-core benchmark, run from this one process.
- a fixed object store, so spilling never follows host free memory.
- PYTHONPATH through runtime_env, so workers import geotools_ray (and
  this package) from the checkout whatever their cwd.
- no dashboard, no progress bars, no worker log forwarding.
- the session dir under the checkout when its socket paths fit.
"""

from __future__ import annotations

import os
import shutil

from . import host
from .inputs import ROOT

NUM_CPUS = 1
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX socket paths are capped at 107 bytes; Ray's session suffix
# (session_<date>_<time>_<us>_<pid>/sockets/plasma_store) takes 63
_RAY_SUFFIX = len("/session_2026-01-01_00-00-00_000000_1234567/sockets/plasma_store")


def ray_temp_dir() -> str | None:
    """`.perfbench_ray` under the checkout, or None (Ray's default
    temp dir) when the checkout path is too long for the sockets."""
    d = os.path.join(ROOT, ".perfbench_ray")
    return d if len(d) + _RAY_SUFFIX <= 107 else None


def start_ray() -> str | None:
    """-> this session's dir when it lives under the checkout."""
    import logging

    import ray
    from ray.data import DataContext

    d = ray_temp_dir()
    before = set(os.listdir(d)) if d and os.path.isdir(d) else set()
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=ray_temp_dir(),
        runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    if not d:
        return None
    new = [n for n in os.listdir(d) if n.startswith("session_2") and n not in before]
    return os.path.join(d, new[0]) if len(new) == 1 else None


def stop_ray(session_dir: str | None) -> list[int]:
    """Shut Ray down, wait until every process it started has ended and
    remove its session dir; returns the pids that had to be killed."""
    import ray

    ray.shutdown()
    killed = host.reap(os.getpid())
    if session_dir:
        shutil.rmtree(session_dir, ignore_errors=True)
    return killed
