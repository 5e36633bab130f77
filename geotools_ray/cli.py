"""Command-line front-end — the drop-in analog of the reference's
per-tool binaries (lasgrid, pointstats, pointzonalstats, lasclip,
lasmerge, las2csrs, pointnormalize, lasboundary, treetops, mosaic,
flood, lasreclass...), reading/writing parquet tables.

    python -m geotools_ray.cli grid --in pts.parquet --out stats/ \
        --res 2 --stats count,mean,median
    python -m geotools_ray.cli zonal --in pts.parquet --rects "1,0,0,50,50" ...
    python -m geotools_ray.cli transform --in pts.parquet --frame itrf2000 \
        --efrom 1986 --eto 2011 --from-epsg 26912 --to-epsg 2956 ...

The CLI owns its Ray session (guarded init, shutdown on exit); the
library never does.
"""

from __future__ import annotations

import argparse
import os
import sys


def _session(args):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _read(args):
    import ray.data

    fmt = getattr(args, "in_format", "parquet")
    if fmt == "wds":
        from .sources.wds import read_wds_shards

        return read_wds_shards(args.input)
    if fmt == "tfrecord":
        from .sources.images import IMAGE_SCHEMA
        from .sources.tfrecord import read_tfrecord_shards

        # the image table's types pinned exactly (schema-driven decode)
        return read_tfrecord_shards(
            args.input, string_cols=("image_id", "fmt", "caption"),
            schema=IMAGE_SCHEMA,
        )
    return ray.data.read_parquet(args.input)


def _write(ds, args):
    import ray.data

    # replace, don't merge: Ray names part files with a fresh UUID per
    # execution, so writing into a non-empty dir would UNION this run's
    # rows with a previous run's (duplicate/conflicting cells on read)
    if os.path.isdir(args.output) and os.listdir(args.output):
        import shutil

        shutil.rmtree(args.output)
    if isinstance(ds, ray.data.Dataset):
        ds.write_parquet(args.output)
    else:  # pandas
        import pyarrow as pa
        import pyarrow.parquet as pq

        os.makedirs(args.output, exist_ok=True)
        pq.write_table(pa.Table.from_pandas(ds, preserve_index=False),
                       os.path.join(args.output, "part-0.parquet"))
    print(f"wrote {args.output}")


def cmd_grid(args):
    from .ops.gridstats import GridConfig, grid_stats

    ds = _read(args)
    cfg = GridConfig(
        res=args.res,
        radius=args.radius,
        stats=tuple(args.stats.split(",")),
        class_filter=frozenset(int(c) for c in args.classes.split(",")) if args.classes else None,
        angle_limit=args.angle,
    )
    _write(grid_stats(ds, cfg), args)


def cmd_zonal(args):
    from .ops.zonal import rect, zonal_stats

    polys = []
    for spec in args.rects:
        pid, a, b, c, d = spec.split(",")
        polys.append(rect(int(pid), float(a), float(b), float(c), float(d)))
    _write(zonal_stats(_read(args), polys, value_col=args.value), args)


def cmd_clip(args):
    from .ops.zonal import clip, rect

    polys = []
    for spec in args.rects:
        pid, a, b, c, d = spec.split(",")
        polys.append(rect(int(pid), float(a), float(b), float(c), float(d)))
    _write(clip(_read(args), polys, anti=args.anti), args)


def cmd_merge(args):
    import ray.data

    if args.bbox:
        # J7 pushdown: the bbox predicate prunes parquet row groups at
        # the read — non-matching fragments never leave storage
        from .sources.io import read_points_bbox

        minx, miny, maxx, maxy = (float(v) for v in args.bbox.split(","))
        ds = read_points_bbox(args.inputs, minx, miny, maxx, maxy)
    else:
        ds = ray.data.read_parquet(args.inputs)
    _write(ds, args)


def cmd_transform(args):
    from .ops.datum import DEFAULT_SHARE, datum_transform

    out = datum_transform(
        _read(args), args.frame, args.efrom, args.eto, args.from_epsg, args.to_epsg,
        share_dir=args.share_dir or DEFAULT_SHARE,
    )
    _write(out, args)


def cmd_normalize(args):
    import pyarrow as pa

    from .kernels.grid import Bounds, cell_id_of_points
    from .ops.gridstats import compute_bounds
    from .ops.interp import normalize_height

    ds = _read(args)
    b = compute_bounds(ds, args.res)

    def with_cells(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        return t.append_column("cell_id", pa.array(cell_id_of_points(x, y, b, args.res)))

    _write(normalize_height(ds.map_batches(with_cells, batch_format="pyarrow"),
                            drop_negative=args.drop_negative), args)


def cmd_knn(args):
    import pyarrow.parquet as pq

    from .ops.neighbors import knn_join

    _write(knn_join(_read(args), pq.read_table(args.queries), k=args.k), args)


def cmd_flightline(args):
    from .ops.flightline import recover_flightlines

    out, merged = recover_flightlines(_read(args), args.file_col, time_gap=args.gap)
    print("merged flight lines:", merged)
    _write(out, args)


def cmd_interp(args):
    import pyarrow.parquet as pq
    import ray.data

    from .ops.gridstats import compute_bounds
    from .ops.interp import avg_at, idw_at, kriging_at, natural_neighbour_at, planar_at
    from .queries_ops import _all_cells_table

    pts = _read(args)
    b = compute_bounds(pts, args.res)
    targets = ray.data.from_arrow(_all_cells_table(b, args.res))
    smp = pq.read_table(args.samples)
    fn = {"idw": idw_at, "avg": avg_at, "planar": planar_at,
          "kriging": kriging_at, "nn": natural_neighbour_at}[args.method]
    _write(fn(targets, smp), args)


def cmd_lakes(args):
    """SINGLE-SCENE limit: this CLI path assembles the dense (rows,
    cols) grid on the driver — fine for one SRTM tile, OOM territory
    for continental extents at fine --res. The scale path is
    q_srtm_lakes (queries_ops.py), which assembles per-scene inside a
    grouped_map worker so the driver never holds pixels."""
    import numpy as np
    import pandas as pd

    from .kernels.raster import srtm_lakes
    from .ops.gridstats import GridConfig, compute_bounds, grid_stats

    pts = _read(args)
    b = compute_bounds(pts, args.res)
    stats = grid_stats(pts, GridConfig(res=args.res, bounds=b, stats=("mean",))).to_pandas()
    cols, rows = b.cols(args.res), b.rows(args.res)
    grid = np.full(cols * rows, -9999.0)
    grid[stats["cell_id"].to_numpy()] = stats["mean"].to_numpy()
    grid = grid.reshape(rows, cols)
    quant = np.where(grid == -9999.0, -9999.0, np.floor(grid / args.quant) * args.quant)
    water = srtm_lakes(quant, minsize=args.minsize)
    rs, cs = np.nonzero(water > 0)
    _write(pd.DataFrame({"row": rs, "col": cs, "elevation": water[rs, cs]}), args)


def cmd_flagship(args):
    """The north-rule job: decode+verify -> tile assignment -> PIP
    join -> phash dedup -> parent-cell rollup over an image+caption
    table, with the durable per-partition checkpoint manifest. This is
    the entrypoint a cluster run submits (`ray job submit -- python -m
    geotools_ray.cli flagship --in <table> --checkpoint <dir> --out
    <dir>`); re-running with the same --checkpoint resumes, skipping
    completed partitions' decode+join entirely."""
    import time

    from .ops.imagepipeline import flagship_full
    from .state.manifest import load_manifest

    t0 = time.time()
    images = _read(args)
    out = flagship_full(
        images,
        checkpoint_dir=args.checkpoint,
        checkpoint_parts=args.checkpoint_parts,
    )
    _write(out, args)
    if args.checkpoint:
        recs = load_manifest(args.checkpoint)
        rows = sum(r.get("row_count", 0) for r in recs.values())
        byts = sum(r.get("byte_count", 0) for r in recs.values())
        print(
            f"checkpoint: {len(recs)} partitions, {rows} rows, "
            f"{byts} bytes, {time.time() - t0:.1f}s wall"
        )


def cmd_dedup(args):
    from .ops.dedup import exact_dedup, minhash_lsh_dedup

    ds = _read(args)
    if args.method == "exact":
        _write(exact_dedup(ds, args.keys.split(","), args.order), args)
    else:
        _write(minhash_lsh_dedup(ds, threshold=args.threshold), args)


def main(argv=None):
    p = argparse.ArgumentParser(prog="geotools_ray")
    p.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", 8)))
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, multi_in=False):
        if multi_in:
            sp.add_argument("--in", dest="inputs", nargs="+", required=True)
        else:
            sp.add_argument("--in", dest="input", required=True)
        sp.add_argument("--out", dest="output", required=True)

    sp = sub.add_parser("grid", help="lasgrid/pointstats: per-cell stats")
    common(sp)
    sp.add_argument("--res", type=float, required=True)
    sp.add_argument("--radius", type=float, default=0.0)
    sp.add_argument("--stats", default="count,min,max,mean")
    sp.add_argument("--classes", default=None)
    sp.add_argument("--angle", type=int, default=None)
    sp.set_defaults(fn=cmd_grid)

    sp = sub.add_parser("zonal", help="pointzonalstats: zonal stat bundle")
    common(sp)
    sp.add_argument("--rects", nargs="+", required=True, help="id,minx,miny,maxx,maxy")
    sp.add_argument("--value", default="z")
    sp.set_defaults(fn=cmd_zonal)

    sp = sub.add_parser("clip", help="lasclip: semi/anti polygon clip")
    common(sp)
    sp.add_argument("--rects", nargs="+", required=True)
    sp.add_argument("--anti", action="store_true")
    sp.set_defaults(fn=cmd_clip)

    sp = sub.add_parser("merge", help="lasmerge: union files with bbox filter")
    common(sp, multi_in=True)
    sp.add_argument("--bbox", default=None, help="minx,miny,maxx,maxy")
    sp.set_defaults(fn=cmd_merge)

    sp = sub.add_parser("transform", help="las2csrs: datum transform")
    common(sp)
    sp.add_argument("--frame", required=True)
    sp.add_argument("--efrom", type=float, required=True)
    sp.add_argument("--eto", type=float, required=True)
    sp.add_argument("--from-epsg", type=int, required=True)
    sp.add_argument("--to-epsg", type=int, required=True)
    sp.add_argument("--share-dir", default=None)
    sp.set_defaults(fn=cmd_transform)

    sp = sub.add_parser("normalize", help="pointnormalize: height above ground")
    common(sp)
    sp.add_argument("--res", type=float, default=25.0)
    sp.add_argument("--drop-negative", action="store_true")
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("knn", help="kNN lookup against a query table")
    common(sp)
    sp.add_argument("--queries", required=True)
    sp.add_argument("-k", type=int, default=5)
    sp.set_defaults(fn=cmd_knn)

    sp = sub.add_parser("flightline", help="lasreclass: recover flight lines")
    common(sp)
    sp.add_argument("--file-col", default="file")
    sp.add_argument("--gap", type=float, default=50.0)
    sp.set_defaults(fn=cmd_flightline)

    sp = sub.add_parser(
        "flagship",
        help="image decode+verify -> tile join -> dedup -> rollup "
        "(checkpoint-resumable; the ray-job-submit entrypoint)",
    )
    common(sp)
    sp.add_argument("--in-format", dest="in_format",
                    choices=["parquet", "wds", "tfrecord"], default="parquet",
                    help="input layout: parquet dir, webdataset tar "
                         "shards, or TFRecord shards (schema-pinned)")
    sp.add_argument("--checkpoint", default=None,
                    help="manifest dir for the durable restart boundary")
    sp.add_argument("--checkpoint-parts", type=int, default=32)
    sp.set_defaults(fn=cmd_flagship)

    sp = sub.add_parser("dedup", help="exact / minhash near-dup")
    common(sp)
    sp.add_argument("--method", choices=["exact", "minhash"], default="exact")
    sp.add_argument("--keys", default="phash")
    sp.add_argument("--order", default="image_id")
    sp.add_argument("--threshold", type=float, default=0.7)
    sp.set_defaults(fn=cmd_dedup)

    sp = sub.add_parser("interp", help="rastfit interpolators at cell centroids")
    common(sp)
    sp.add_argument("--samples", required=True, help="parquet with sx,sy,sz")
    sp.add_argument("--method", choices=["idw", "avg", "planar", "kriging", "nn"],
                    default="idw")
    sp.add_argument("--res", type=float, default=5.0)
    sp.set_defaults(fn=cmd_interp)

    sp = sub.add_parser("lakes", help="srtm_lakes: flatten equal-elevation regions")
    common(sp)
    sp.add_argument("--res", type=float, default=2.0)
    sp.add_argument("--quant", type=float, default=5.0)
    sp.add_argument("--minsize", type=int, default=10)
    sp.set_defaults(fn=cmd_lakes)

    args = p.parse_args(argv)
    _session(args)
    try:
        args.fn(args)
    finally:
        import ray

        ray.shutdown()


if __name__ == "__main__":
    main()
