"""Smoke test of the benchmark itself (tiny inputs, a few minutes).

    python3 perfbench/smoke.py

Checks that:
- each workload of BENCHMARK.json, and flagship_resume (runnable but
  not timed by BENCHMARK.json), runs once at the tiny size, every
  operation matches the DuckDB digest, and flagship_resume's output
  digest equals flagship_mixed's;
- the traced run emits exactly the per-layer metrics BENCHMARK.json
  names, with their units;
- the end-to-end run emits exactly BENCHMARK.json's end-to-end metrics;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int, cwd: str = ROOT, seed: int = 1) -> tuple[int, list[str]]:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    if p.returncode:
        sys.stderr.write(p.stderr[-3000:])
    return p.returncode, p.stdout.strip().splitlines()


def result(lines: list[str]) -> tuple[dict, dict]:
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    digests = {}
    for w in [x["name"] for x in bench["workloads"]] + ["flagship_resume"]:
        rc, lines = run(w, 0)
        if rc:
            problems.append(f"{w}: exit {rc}")
            continue
        record, res = result(lines)
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            problems.append(f"{w}: {res['failed']}/{res['attempted']} failed: {record['ops']}")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != e2e:
            problems.append(f"{w}: end-to-end metrics {got} != {e2e}")
        digests[w] = {op["digest"] for op in record["ops"]}
    if digests.get("flagship_resume") != digests.get("flagship_mixed"):
        problems.append(f"flagship_resume digest {digests.get('flagship_resume')} != "
                        f"flagship_mixed {digests.get('flagship_mixed')}")

    rc, lines = run(bench["workloads"][0]["name"], 1)
    if rc:
        problems.append(f"traced run: exit {rc}")
    else:
        record, res = result(lines)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != per_layer:
            problems.append(f"traced run: missing {sorted(set(per_layer) - set(got))}, "
                            f"extra {sorted(set(got) - set(per_layer))}, "
                            f"unit mismatch {[k for k in got if k in per_layer and got[k] != per_layer[k]]}")
        if not res["correct"]:
            problems.append(f"traced run: failed ops {record['ops']}")

    bare = os.path.join(ROOT, ".perfbench_cache", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run(bench["workloads"][0]["name"], 0, cwd=bare)
        if rc == 0 or any(line.startswith('{"correct"') for line in lines):
            problems.append(f"bare directory: exit {rc}, printed {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
