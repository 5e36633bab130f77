"""The three workloads: each is a closed loop (one Ray client process,
one pipeline at a time) whose operation is checked against the DuckDB digest made
at generation time.

- flagship_mixed: `ops.imagepipeline.flagship_full` with a fresh
  durable checkpoint dir over the seed's mixed-layout image table.
- flagship_resume (runnable, smoke-tested and traced, but not timed by
  BENCHMARK.json): the same pipeline resumed from a checkpoint in which
  half of the 32 partitions are done (copied from a template before
  each operation, outside the timed window). The template is built at
  generation time, in its own Ray session, by this checkout's code.
- lidar_grid_zonal: over the seed's LAS tiles, `read_las` followed by
  grid_stats (partial), grid_stats (exact, salted) and zonal_stats;
  each of the three pipelines is one checked operation.
"""

from __future__ import annotations

import os
import shutil
import time

from . import inputs, session

# stats of the repo's own grid oracles (queries.q_grid_stats and
# queries.q_grid_exact), so their SQL applies unchanged
PARTIAL_STATS = ("count", "min", "max", "mean", "density")
EXACT_STATS = ("count", "median", "variance", "stddev", "skew", "kurtosis", "q1", "q2", "q3")


def grid_configs():
    from geotools_ray import queries as Q
    from geotools_ray.ops.gridstats import GridConfig

    return (
        GridConfig(res=Q.RES, stats=PARTIAL_STATS),
        GridConfig(res=Q.RES, stats=EXACT_STATS, strategy="exact", salt_hot=True),
    )


# Ray result frame -> the oracle SQL's column shape


def partial_digest(df) -> str:
    return inputs.table_digest({
        "cell_id": df["cell_id"].to_numpy(), "n": df["count"].to_numpy().astype("int64"),
        "min_z": df["min"].to_numpy(), "max_z": df["max"].to_numpy(),
        "mean_z": df["mean"].to_numpy(), "density": df["density"].to_numpy(),
    })


def exact_digest(df) -> str:
    df = df[df["count"] > 1]  # the oracle keeps cells with n > 1
    names = {"median": "median_z", "variance": "var_z", "stddev": "stddev_z",
             "skew": "skew_z", "kurtosis": "kurt_z", "q1": "q1", "q2": "q2", "q3": "q3"}
    cols = {dst: df[src].to_numpy() for src, dst in names.items()}
    cols["cell_id"] = df["cell_id"].to_numpy()
    cols["n"] = df["count"].to_numpy().astype("int64")
    return inputs.table_digest(cols)


def zonal_digest(df) -> str:
    return inputs.df_digest(df.astype({"polygon_id": "int64", "n": "int64"}))


def lidar_pipelines():
    """name -> (build(points) -> Dataset, digest(frame) -> str)."""
    from geotools_ray import queries as Q
    from geotools_ray.ops.gridstats import grid_stats
    from geotools_ray.ops.zonal import zonal_stats

    partial, exact = grid_configs()
    return {
        "grid_partial": (lambda pts: grid_stats(pts, partial), partial_digest),
        "grid_exact": (lambda pts: grid_stats(pts, exact), exact_digest),
        "zonal": (lambda pts: zonal_stats(pts, Q.RECT_POLYS, value_col="z", quantiles=4),
                  zonal_digest),
    }


def _first_rows(t):
    return t.slice(0, 1)


class Op:
    """One timed operation's record."""

    def __init__(self, name: str, rows: int):
        self.name, self.rows = name, rows
        self.wall_s = 0.0
        self.ok = False
        self.digest: str | None = None
        self.error: str | None = None

    def as_dict(self) -> dict:
        return {"name": self.name, "rows": self.rows, "wall_s": round(self.wall_s, 4),
                "ok": self.ok, "digest": self.digest, "error": self.error}


def timed(op: Op, run, digest, expected: str) -> Op:
    t0 = time.perf_counter()
    try:
        out = run()
        op.wall_s = time.perf_counter() - t0
        op.digest = digest(out)
        op.ok = op.digest == expected
        if not op.ok:
            op.error = f"output digest differs from the oracle's {expected}"
    except Exception as e:  # a failing operation is counted, not fatal
        op.wall_s = op.wall_s or time.perf_counter() - t0
        op.error = f"{type(e).__name__}: {e}"[:300]
    return op


class Flagship:
    """flagship_mixed (resume=False) and flagship_resume (resume=True)."""

    def __init__(self, size: str, seed: int, work: str, resume: bool):
        self.size, self.seed, self.work, self.resume = size, seed, work, resume
        self.img: dict = {}

    def run(self, paths, ck: str):
        import ray.data

        from geotools_ray.ops.imagepipeline import flagship_full

        return flagship_full(ray.data.read_parquet(paths), checkpoint_dir=ck).to_pandas()

    def prepare(self) -> None:
        self.img = inputs.image_table(self.size, self.seed)
        if self.resume and not os.path.isdir(self.img["template"]):
            def full_run(ck):
                got = inputs.flagship_digest(self.run(self.img["dir"], ck))
                if got != self.img["expected"]:
                    raise RuntimeError("resume template: full run does not match the oracle")

            # its own Ray session, so the timed run's set-up starts cold
            # whether or not the template was cached
            session_dir = session.start_ray()
            try:
                inputs.build_resume_template(self.img, full_run)
            finally:
                session.stop_ray(session_dir)

    def input_files(self) -> list[str]:
        return self.img["files"]

    def input_digest(self) -> str:
        return self.img["input_digest"]

    def warmup(self) -> None:
        """Start the Ray worker with the layers imported: decode 64 rows
        and run one small hash exchange over them (enough by the run
        record's first_round_vs_rest)."""
        import ray.data

        from geotools_ray.stages.grouped import grouped_map
        from geotools_ray.stages.imaging import decode_features_batch

        small = ray.data.read_parquet(self.img["files"][0]).limit(64).map_batches(
            decode_features_batch, batch_format="pyarrow")
        grouped_map(small, ["phash"], _first_rows, num_parts=2, batch_format="pyarrow").materialize()

    def round(self) -> list[Op]:
        ck = os.path.join(self.work, "ck")
        shutil.rmtree(ck, ignore_errors=True)
        if self.resume:
            shutil.copytree(self.img["template"], ck)
        else:
            os.makedirs(ck)
        name = "flagship_resume" if self.resume else "flagship_mixed"
        op = timed(Op(name, self.img["rows"]), lambda: self.run(self.img["dir"], ck),
                    inputs.flagship_digest, self.img["expected"])
        shutil.rmtree(ck, ignore_errors=True)
        return [op]


class Lidar:
    """lidar_grid_zonal: one round = the three checked pipelines."""

    def __init__(self, size: str, seed: int):
        self.size, self.seed = size, seed
        self.las: dict = {}

    def prepare(self) -> None:
        self.las = inputs.lidar_tiles(self.size, self.seed)

    def input_files(self) -> list[str]:
        return self.las["files"]

    def input_digest(self) -> str:
        return self.las["input_digest"]

    def _read(self, paths):
        from geotools_ray.sources.las import read_las

        return read_las(paths, chunk_points=inputs.LAS_CHUNK)

    def warmup(self) -> None:
        # the three pipelines over a few thousand points of one tile
        small = self._read(self.las["files"][0]).limit(4096).materialize()
        for build, _ in lidar_pipelines().values():
            build(small).to_pandas()

    def round(self) -> list[Op]:
        return [
            timed(Op(name, self.las["rows"]),
                   lambda: build(self._read(self.las["dir"])).to_pandas(),
                   digest, self.las["expected"][name])
            for name, (build, digest) in lidar_pipelines().items()
        ]


WORKLOADS = {
    "flagship_mixed": lambda size, seed, work: Flagship(size, seed, work, resume=False),
    "flagship_resume": lambda size, seed, work: Flagship(size, seed, work, resume=True),
    "lidar_grid_zonal": lambda size, seed, work: Lidar(size, seed),
}
