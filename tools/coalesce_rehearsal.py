"""Rehearsal for grouped_map's coalesce decision.

Times one keyed exchange (grouped_map, P=16, a per-partition
count/sum per key) over 517k rows fed by a lazy map, in two input
layouts held in ONE Ray session:

- fragmented: a materialized 256-block table (the lazy map reports
  256 blocks, > 2*P, so grouped_map coalesces to P blocks first);
- compact: the same rows in 16 blocks (<= 2*P, no coalesce).

Each round runs both layouts back to back; the JSON lines give the
plan's block estimate, whether the plan holds a Repartition, the wall
and an order-insensitive checksum of the output, so two checkouts can
be compared by running this script from each in alternation.

Usage: python tools/coalesce_rehearsal.py [--rounds 3] [--cpus 1]
Writes one JSON line per (layout, round) to stdout, prefixed REHEARSAL.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pandas as pd
import pyarrow as pa

N_ROWS = 517_000
N_KEYS = 50_000
P = 16


def _op_names(ds) -> set[str]:
    seen, stack = set(), [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        seen.add(type(op).__name__)
        stack.extend(op.input_dependencies)
    return seen


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--cpus", type=int, default=1)
    args = ap.parse_args()

    import ray
    import ray.data

    if not ray.is_initialized():
        ray.init(
            num_cpus=args.cpus, include_dashboard=False, logging_level="ERROR",
            runtime_env={"env_vars": {"PYTHONPATH": sys.path[0]}},
        )
    ray.data.DataContext.get_current().enable_progress_bars = False

    from geotools_ray.stages.grouped import grouped_map

    rng = np.random.RandomState(17)
    t = pa.table({
        "k": rng.randint(0, N_KEYS, N_ROWS).astype(np.int64),
        "v": rng.uniform(0, 100, N_ROWS),
    })

    def split(n_blocks: int):
        step = -(-N_ROWS // n_blocks)
        return [t.slice(i, step) for i in range(0, N_ROWS, step)]

    layouts = {
        "fragmented": ray.data.from_arrow(split(256)).materialize(),
        "compact": ray.data.from_arrow(split(P)).materialize(),
    }

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", sort=False)["v"].agg(["count", "sum"]).reset_index()

    def touch(b: pa.Table) -> pa.Table:
        return b

    for r in range(args.rounds):
        for name, src in layouts.items():
            ds = grouped_map(
                src.map_batches(touch, batch_format="pyarrow"), ["k"], per_part,
                num_parts=P,
            )
            t0 = time.perf_counter()
            out = ds.to_pandas()
            wall = time.perf_counter() - t0
            out = out.sort_values("k")
            print("REHEARSAL " + json.dumps({
                "layout": name,
                "round": r,
                "input_blocks": src.num_blocks(),
                "plan_estimate": src.map_batches(touch)._plan.initial_num_blocks(),
                "repartition_in_plan": "Repartition" in _op_names(ds),
                "wall_s": round(wall, 3),
                "keys": int(len(out)),
                "rows": int(out["count"].sum()),
                "sum_v": round(float(out["sum"].sum()), 3),
            }), flush=True)

    ray.shutdown()


if __name__ == "__main__":
    main()
