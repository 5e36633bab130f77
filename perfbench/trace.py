"""Traced run: per-layer metrics, timed from outside.

Every number here comes from calling a layer's public functions from
the benchmark, with the result materialized at each layer boundary
(staged), or from calling decode and the kernels in-process on pinned
batches. Nothing is instrumented inside geotools_ray. The traced run
covers every layer whatever the workload, so each traced run emits the
same metric set; it runs over the seed's image table and LAS tiles.

Each ratio is emitted with its base count beside it (METRICS lists
both). `ops.imagepipeline.fused_minus_staged_s` is the untraced
(fused) flagship wall minus the sum of its staged layer times; it is
negative when materializing every boundary costs more than fusion.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import inputs
from .workloads import Flagship, Lidar, Op, grid_configs, lidar_pipelines, timed

LAYOUTS = ("jpeg420", "jpeg422", "jpeg444", "jpegprog", "png", "mixed")
DECODE_BATCH = 2048  # flagship_full's decode batch size
REPEATS = 3

METRICS: dict[str, str] = {
    **{f"stages.imaging.decode_ms_per_img.{k}": "ms/img" for k in LAYOUTS},
    **{f"stages.imaging.decode_imgs.{k}": "count" for k in LAYOUTS},
    "stages.imaging.layout_gap": "ratio",
    "stages.imaging.verify_drop_rows": "count",
    "sources.read_parquet.s": "s",
    "sources.las.read_las.s": "s",
    "sources.las.read_las.mb_per_s": "MB/s",
    "sources.las.read_las.mb": "MB",
    "ops.imagepipeline.decode_verify.s": "s",
    "ops.imagepipeline.assign_and_join.s": "s",
    "ops.imagepipeline.checkpoint_join.s": "s",
    "ops.imagepipeline.dedup_by_phash.s": "s",
    "ops.imagepipeline.cell_rollup.s": "s",
    "ops.imagepipeline.staged_sum_s": "s",
    "ops.imagepipeline.fused_s": "s",
    "ops.imagepipeline.fused_minus_staged_s": "s",
    "ops.imagepipeline.assign_and_join.prefilter_hit_ratio": "ratio",
    "ops.imagepipeline.assign_and_join.prefilter_candidates": "count",
    "ops.imagepipeline.resume_skip_ratio": "ratio",
    "ops.imagepipeline.input_rows": "count",
    "ops.gridstats.compute_bounds.s": "s",
    "ops.gridstats.grid_stats.partial.s": "s",
    "ops.gridstats.grid_stats.exact.s": "s",
    "ops.gridstats.grid_stats.partial.shuffle_rows_per_input_row": "ratio",
    "ops.gridstats.grid_stats.exact.shuffle_rows_per_input_row": "ratio",
    "ops.gridstats.input_rows": "count",
    "ops.zonal.zonal_stats.s": "s",
    "ops.zonal.zonal_stats.join_rows_per_input_row": "ratio",
    "stages.grouped.grouped_map.s": "s",
    "stages.grouped.grouped_map.rows_shuffled": "count",
    "stages.grouped.detect_hot_buckets.s": "s",
    "stages.grouped.detect_hot_buckets.hot_buckets": "count",
    "state.manifest.write_partitioned.s": "s",
    "state.manifest.read_partitioned.s": "s",
    "state.manifest.load_manifest.s": "s",
    "state.manifest.files": "count",
    "state.manifest.rows": "count",
    "state.manifest.bytes_per_row": "B/row",
    "kernels.geom.points_in_polygon.ns_per_pt": "ns/pt",
    "kernels.geom.points_in_polygon.tests": "count",
    "kernels.cellindex.encode.ns_per_pt": "ns/pt",
    "kernels.cellindex.encode.points": "count",
    "kernels.stats.exact.us_per_cell": "us/cell",
    "kernels.stats.exact.cells": "count",
}


def _clock(fn):
    """-> (result, seconds)."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _median_clock(fn, repeats: int = REPEATS) -> float:
    return statistics.median(_clock(fn)[1] for _ in range(repeats))


# map fns shipped to Ray workers (module-level: pickled by reference)


def _verify(t: pa.Table) -> pa.Table:
    """flagship_full's verify gate: keep rows whose recomputed phash
    matches, project to the join's narrow input."""
    return t.filter(t["verify_ok"]).select(["image_id", "phash"])


def _distinct_cells(t: pa.Table) -> pa.Table:
    """Rows a per-batch partial aggregate emits: one per distinct cell."""
    return pa.table({"n": [len(np.unique(t["cell_id"].to_numpy(zero_copy_only=False)))]})


def _group_sizes(df):
    return df.groupby("cell_id", sort=False).size().rename("n").reset_index()


# ---------------------------------------------------------------------------


def decode_split(img: dict, m: dict) -> None:
    """decode_features_batch on pinned per-layout batches (in-process)."""
    from geotools_ray.stages.imaging import decode_features_batch

    table = pa.concat_tables(pq.read_table(f) for f in img["files"])
    layout = pq.read_table(img["side"], columns=["layout"])["layout"].to_numpy(zero_copy_only=False)
    batches = {k: np.flatnonzero(layout == k)[:DECODE_BATCH] for k in LAYOUTS[:-1]}
    batches["mixed"] = np.arange(min(DECODE_BATCH, len(table)))
    for k, idx in batches.items():
        batch = table.take(pa.array(idx))
        m[f"stages.imaging.decode_imgs.{k}"] = len(idx)
        m[f"stages.imaging.decode_ms_per_img.{k}"] = (
            _median_clock(lambda: decode_features_batch(batch)) * 1e3 / len(idx))
    # row-weighted per-layout floor of the mixed batch
    mix = layout[batches["mixed"]]
    floor = sum(np.mean(mix == k) * m[f"stages.imaging.decode_ms_per_img.{k}"] for k in LAYOUTS[:-1])
    m["stages.imaging.layout_gap"] = m["stages.imaging.decode_ms_per_img.mixed"] / floor


def flagship_staged(img: dict, work: str, m: dict) -> Op:
    """flagship_full's layers one at a time, each materialized."""
    import ray
    import ray.data

    from geotools_ray.ops import imagepipeline as IP
    from geotools_ray.stages.imaging import decode_features_batch, footprint_cells_batch

    op = Op("flagship_staged", img["rows"])
    ck = os.path.join(work, "ck_staged")
    t_all = time.perf_counter()

    def staged():
        raw, m["sources.read_parquet.s"] = _clock(lambda: ray.data.read_parquet(img["dir"]).materialize())
        dec, m["ops.imagepipeline.decode_verify.s"] = _clock(lambda: raw.map_batches(
            decode_features_batch, batch_format="pyarrow", batch_size=DECODE_BATCH,
        ).map_batches(_verify, batch_format="pyarrow").materialize())
        m["stages.imaging.verify_drop_rows"] = raw.count() - dec.count()
        joined, m["ops.imagepipeline.assign_and_join.s"] = _clock(
            lambda: IP.assign_and_join(dec).materialize())
        # checkpoint_join = write_partitioned (eager, inside the call)
        # + read_partitioned (the lazy read it returns)
        back, w = _clock(lambda: IP.checkpoint_join(joined, ck))
        back, r = _clock(back.materialize)
        m["state.manifest.write_partitioned.s"] = w
        m["state.manifest.read_partitioned.s"] = r
        m["ops.imagepipeline.checkpoint_join.s"] = w + r
        dd, m["ops.imagepipeline.dedup_by_phash.s"] = _clock(
            lambda: IP.dedup_by_phash(back, salt_hot=True).materialize())
        out, m["ops.imagepipeline.cell_rollup.s"] = _clock(lambda: IP.cell_rollup(dd).to_pandas())

        # counts, off the clock
        ids = pa.concat_tables(ray.get(dec.select_columns(["image_id"]).to_arrow_refs()))
        cells = footprint_cells_batch(ids, IP.DEFAULT_LEVEL)["cell_id"].to_numpy()
        pre = IP.polygon_cell_prefilter(IP.FLAGSHIP_POLYGONS, IP.DEFAULT_LEVEL)
        cand = sum(int(np.isin(cells, c).sum()) for c in pre.values())
        m["ops.imagepipeline.assign_and_join.prefilter_candidates"] = cand
        m["ops.imagepipeline.assign_and_join.prefilter_hit_ratio"] = joined.count() / max(cand, 1)
        files = [os.path.join(ck, d, "data.parquet") for d in os.listdir(ck) if d.startswith("part=")]
        m["state.manifest.files"] = len(files)
        m["state.manifest.rows"] = back.count()
        m["state.manifest.bytes_per_row"] = (
            sum(os.path.getsize(f) for f in files) / max(m["state.manifest.rows"], 1))
        return out

    timed(op, staged, inputs.flagship_digest, img["expected"])
    shutil.rmtree(ck, ignore_errors=True)
    m["ops.imagepipeline.staged_sum_s"] = sum(m[f"ops.imagepipeline.{k}.s"] for k in (
        "decode_verify", "assign_and_join", "checkpoint_join", "dedup_by_phash", "cell_rollup",
    )) + m["sources.read_parquet.s"]
    op.wall_s = time.perf_counter() - t_all
    return op


def resume_counts(img: dict, m: dict) -> None:
    """load_manifest on the half-done checkpoint, and the share of input
    rows its prefilter skips before decode."""
    from geotools_ray.stages.grouped import hash_columns
    from geotools_ray.state.manifest import load_manifest

    done = load_manifest(img["template"])
    m["state.manifest.load_manifest.s"] = _median_clock(lambda: load_manifest(img["template"]), 5)
    ids = pa.concat_tables(pq.read_table(f, columns=["image_id"]) for f in img["files"])
    part = (hash_columns(ids, ["image_id"]) % np.uint64(32)).astype(np.int64)
    m["ops.imagepipeline.input_rows"] = len(ids)
    m["ops.imagepipeline.resume_skip_ratio"] = float(
        np.isin(part, [int(k) for k in done]).mean())


def lidar_staged(las: dict, m: dict) -> list[Op]:
    from geotools_ray import queries as Q
    from geotools_ray.kernels import stats as K
    from geotools_ray.kernels.geom import points_in_polygon
    from geotools_ray.kernels.grid import cell_id_of_points
    from geotools_ray.ops.gridstats import assign_cells, compute_bounds
    from geotools_ray.sources.las import read_las
    from geotools_ray.stages.grouped import detect_hot_buckets, grouped_map

    n = las["rows"]
    m["ops.gridstats.input_rows"] = n
    pts, m["sources.las.read_las.s"] = _clock(
        lambda: read_las(las["dir"], chunk_points=inputs.LAS_CHUNK).materialize())
    mb = sum(os.path.getsize(f) for f in las["files"]) / 1e6
    m["sources.las.read_las.mb"] = mb
    m["sources.las.read_las.mb_per_s"] = mb / m["sources.las.read_las.s"]
    partial, exact = grid_configs()
    b, m["ops.gridstats.compute_bounds.s"] = _clock(lambda: compute_bounds(pts, Q.RES))

    # the three checked pipelines over the materialized points (bounds
    # are cached per dataset, so grid times exclude the bounds pass)
    ops = [timed(Op(name, n), lambda: build(pts).to_pandas(), digest, las["expected"][name])
           for name, (build, digest) in lidar_pipelines().items()]
    wall = {op.name: op.wall_s for op in ops}
    m["ops.gridstats.grid_stats.partial.s"] = wall["grid_partial"]
    m["ops.gridstats.grid_stats.exact.s"] = wall["grid_exact"]
    m["ops.zonal.zonal_stats.s"] = wall["zonal"]

    partial_rows = assign_cells(pts, partial, b).map_batches(
        _distinct_cells, batch_format="pyarrow").sum("n")
    m["ops.gridstats.grid_stats.partial.shuffle_rows_per_input_row"] = partial_rows / n
    cells = assign_cells(pts, exact, b).materialize()
    shuffled = cells.count()
    m["ops.gridstats.grid_stats.exact.shuffle_rows_per_input_row"] = shuffled / n
    hot, m["stages.grouped.detect_hot_buckets.s"] = _clock(lambda: detect_hot_buckets(cells, ["cell_id"]))
    m["stages.grouped.detect_hot_buckets.hot_buckets"] = len(hot[1])
    _, m["stages.grouped.grouped_map.s"] = _clock(
        lambda: grouped_map(cells, ["cell_id"], _group_sizes).materialize())
    m["stages.grouped.grouped_map.rows_shuffled"] = shuffled

    # kernels on pinned arrays, in-process
    xyz = pts.select_columns(["x", "y", "z"]).to_pandas()
    x, y, z = (xyz[c].to_numpy() for c in ("x", "y", "z"))

    def pip() -> int:
        return sum(int(points_in_polygon(x, y, p.rings).sum()) for p in Q.RECT_POLYS)

    tests = n * len(Q.RECT_POLYS)
    m["kernels.geom.points_in_polygon.tests"] = tests
    m["kernels.geom.points_in_polygon.ns_per_pt"] = _median_clock(pip) * 1e9 / tests
    m["ops.zonal.zonal_stats.join_rows_per_input_row"] = pip() / n

    cid = cell_id_of_points(x, y, b, Q.RES)
    order = np.argsort(cid, kind="stable")
    groups = np.split(z[order], np.flatnonzero(np.diff(cid[order])) + 1)
    kernels = [K.STAT_KERNELS[k] for k in ("median", "variance", "stddev", "skew", "kurtosis")]

    def exact_kernels():
        for v in groups:
            for f in kernels:
                f(v)
            for i in (1, 2, 3):
                K.ref_quantile(v, i, 4)

    m["kernels.stats.exact.cells"] = len(groups)
    m["kernels.stats.exact.us_per_cell"] = _median_clock(exact_kernels) * 1e6 / len(groups)
    return ops


def cellindex_kernel(seed: int, m: dict) -> None:
    from geotools_ray.kernels import cellindex as ci

    rng = np.random.default_rng(seed)
    npts = 1 << 20
    lon, lat = rng.uniform(-20, 20, npts), rng.uniform(-20, 20, npts)
    m["kernels.cellindex.encode.points"] = npts
    m["kernels.cellindex.encode.ns_per_pt"] = _median_clock(lambda: ci.encode(lon, lat, 12)) * 1e9 / npts


class Traced:
    """The traced run's inputs: the seed's image table (with its resume
    template) and its LAS tiles, whichever workload was named."""

    def __init__(self, size: str, seed: int, work: str):
        self.size, self.seed, self.work = size, seed, work
        self.images = Flagship(size, seed, work, resume=True)
        self.lidar = Lidar(size, seed)

    def prepare(self) -> None:
        self.images.prepare()
        self.lidar.prepare()

    def input_digest(self) -> str:
        return f"{self.images.input_digest()}+{self.lidar.input_digest()}"


def run_trace(wl: Traced, t_gen: float) -> tuple[dict, dict]:
    """Trace every layer; -> (metrics, run record)."""
    img_wl, seed, work = wl.images, wl.seed, wl.work
    img, las = img_wl.img, wl.lidar.las
    inputs.file_digest(img["files"] + las["files"])  # page-cache warm

    m: dict = {}
    _, warmup_s = _clock(img_wl.warmup)
    decode_split(img, m)
    ops = [flagship_staged(img, work, m)]
    fresh = Flagship(wl.size, seed, work, resume=False)
    fresh.img = img
    ops += fresh.round()
    m["ops.imagepipeline.fused_s"] = ops[-1].wall_s
    m["ops.imagepipeline.fused_minus_staged_s"] = ops[-1].wall_s - m["ops.imagepipeline.staged_sum_s"]
    ops += img_wl.round()
    resume_counts(img, m)
    ops += lidar_staged(las, m)
    cellindex_kernel(seed, m)

    missing = sorted(set(METRICS) - set(m))
    if missing:
        raise RuntimeError(f"traced run did not produce {missing}")
    metrics = {k: {"value": float(m[k]), "unit": u} for k, u in METRICS.items()}
    record = {
        "ops": [op.as_dict() for op in ops],
        "generation_s": round(t_gen, 3),
        "warmup_s": round(warmup_s, 3),
    }
    return metrics, record
