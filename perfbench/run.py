"""geotools_ray benchmark: one workload, one process, one Ray CPU.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Workloads (see workloads.py):
flagship_mixed, flagship_resume, lidar_grid_zonal.

--trace 0 (end to end): set up (imports, ray.init, input page-cache
warm, one warm-up pass over one input file), then repeat the
workload's operation (whole rounds) until --seconds have passed, each
output checked against the DuckDB digest made at generation time.
Metrics: input_rows_per_s (over the checked rounds of the whole
window), setup_s, peak_mem_mb
(peak summed PSS of this process and every Ray process while timed).

--trace 1 (per layer): the traced run of trace.py, which times each
layer from outside by calling its public functions.

The second-to-last stdout line is the run record (per-operation walls,
input digest, host diagnostics); the last line is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Inputs are generated on first use per seed, in a child process, and
cached under .perfbench_cache/; generation is excluded from setup_s.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_e2e(wl, seconds: int, t_gen: float) -> tuple[dict, dict]:
    from perfbench import host, inputs

    if inputs.file_digest(wl.input_files()) != wl.input_digest():
        raise RuntimeError("cached input does not match its recorded digest")
    t_warm = time.perf_counter()
    wl.warmup()
    warm_s = time.perf_counter() - t_warm
    setup_s = host.process_age_s() - t_gen

    rounds = []
    h0 = host.host_counters()
    with host.PeakPss(os.getpid()) as pss:
        t0 = time.perf_counter()
        while True:  # closed loop: whole rounds until --seconds have passed
            rounds.append(wl.round())
            if time.perf_counter() - t0 >= seconds:
                break
        timed_s = time.perf_counter() - t0
    h1 = host.host_counters()

    ops = [op for r in rounds for op in r]
    good = [op for r in rounds if all(op.ok for op in r) for op in r] or ops
    round_walls = [sum(op.wall_s for op in r) for r in rounds]
    metrics = {
        # input rows over the timed wall of every checked round: the
        # whole window, so a slow stretch of the host weighs by its length
        "input_rows_per_s": metric(sum(op.rows for op in good) / sum(op.wall_s for op in good),
                                   "rows/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_mem_mb": metric(pss.peak_mb, "MB"),
    }
    record = {
        "ops": [op.as_dict() for op in ops],
        "round_walls_s": [round(w, 4) for w in round_walls],
        # warm-up check: the first timed round against the later ones
        "first_round_vs_rest": round(round_walls[0] / statistics.median(round_walls[1:]), 4)
        if len(round_walls) > 1 else None,
        "timed_s": round(timed_s, 3),
        "warmup_s": round(warm_s, 3),
        "generation_s": round(t_gen, 3),
        "pss_samples": pss.samples,
        "host": host.host_window(h0, h1),
    }
    return metrics, record


def build_workload(name: str, trace: int, size: str, seed: int, work: str):
    if trace:
        from perfbench.trace import Traced

        return Traced(size, seed, work)
    from perfbench.workloads import WORKLOADS

    return WORKLOADS[name](size, seed, work)


def generate(*spec) -> None:
    """Child process: make (or find) the run's cached inputs, so the
    generator's imports and memory stay out of the measured process
    whether or not the inputs were cached."""
    build_workload(*spec).prepare()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size (tiny: the smoke test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "geotools_ray", "__init__.py")):
        print(f"perfbench: no geotools_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    from perfbench import inputs, session
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(inputs.CACHE, exist_ok=True)
    work = os.path.join(inputs.CACHE, f"work_{os.getpid()}")
    os.makedirs(work)
    spec = (args.workload, args.trace, args.size, args.seed, work)
    wl = build_workload(*spec)

    try:
        # input generation (cached per seed) is the load generator's
        # cost: timed here and left out of setup_s
        t = time.perf_counter()
        code = f"from perfbench.run import generate; generate(*{spec!r})"
        rc = subprocess.run([sys.executable, "-c", code], cwd=ROOT).returncode
        if rc != 0:
            print(f"perfbench: input generation failed (exit {rc})", file=sys.stderr)
            return 1
        wl.prepare()  # cached now: reads the inputs' metadata
        os.sync()  # so the writeback of fresh inputs stays out of the timed window
        t_gen = time.perf_counter() - t
        session_dir = session.start_ray()
        try:
            if args.trace:
                from perfbench import trace

                metrics, record = trace.run_trace(wl, t_gen)
            else:
                metrics, record = run_e2e(wl, args.seconds, t_gen)
        finally:
            killed = session.stop_ray(session_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in record["ops"] if not op["ok"])
    record.update({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "num_cpus": session.NUM_CPUS, "input_digest": wl.input_digest(),
        "killed_after_shutdown": killed,
    })
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(record["ops"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
