"""Second query batch: interpolators, flight-lines (oracle-checked)
and the raster / dedup / datum pipelines (rows-only — semantics are
pytest-verified against kernel oracles; results here are
deterministic so the driver's row counts are stable).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .kernels.grid import cell_centroids
from .ops.gridstats import GridConfig, compute_bounds, grid_stats
from .queries import R6, RES, _round_away
from .stages import tpch
from .stages.grouped import parts_for_tiles

# ---------------------------------------------------------------------------
# R2 IDW / R3 avg-kNN at every grid cell centroid (oracle-checked)

def _all_cells_table(b, res):
    cols = b.cols(res)
    rows = b.rows(res)
    cid = np.arange(cols * rows, dtype=np.int64)
    cx, cy = cell_centroids(cid, b, res)
    return pa.table({"cell_id": cid, "cx": cx, "cy": cy})


def q_idw(sf_dir: str):
    from .ops.interp import idw_at

    pts = tpch.read_points(sf_dir)
    b = compute_bounds(pts, RES)
    targets = ray.data.from_arrow(_all_cells_table(b, RES))
    smp = tpch.read_samples_table(sf_dir)
    out = idw_at(targets, smp, exponent=1.0)

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell_id": t["cell_id"].to_numpy(zero_copy_only=False),
                "idw_z": _round_away(t["idw_z"].to_numpy(zero_copy_only=False), R6),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


SQL_IDW = f"""
WITH pts AS ({tpch.PTS_SQL}),
b AS (
  SELECT floor(min(x)/{RES})*{RES} AS minx, floor(min(y)/{RES})*{RES} AS miny,
         floor(max(x)/{RES})*{RES}+{RES} AS maxx, floor(max(y)/{RES})*{RES}+{RES} AS maxy
  FROM pts),
g AS (
  SELECT greatest(1, CAST(ceil((maxx-minx)/{RES}) AS BIGINT)) AS ncols,
         greatest(1, CAST(ceil((maxy-miny)/{RES}) AS BIGINT)) AS nrows,
         minx, miny FROM b),
allcells AS (
  SELECT (r.r * g.ncols + c.c) AS cell_id,
         g.minx + c.c*{RES} + {RES}*0.5 AS cx,
         g.miny + (g.nrows - r.r - 1)*{RES} + {RES}*0.5 AS cy
  FROM g, generate_series(0, 63) c(c), generate_series(0, 63) r(r)
  WHERE c.c < g.ncols AND r.r < g.nrows),
smp AS ({tpch.SAMPLES_SQL})
SELECT a.cell_id,
  round(sum(s.sz / ((a.cx-s.sx)*(a.cx-s.sx) + (a.cy-s.sy)*(a.cy-s.sy)))
        / sum(1.0 / ((a.cx-s.sx)*(a.cx-s.sx) + (a.cy-s.sy)*(a.cy-s.sy))), {R6}) AS idw_z
FROM allcells a CROSS JOIN smp s
GROUP BY a.cell_id"""


def q_avg_knn(sf_dir: str):
    """R3 kNN-mean at each sample location from the big point cloud's
    5 nearest samples — here: mean sz of each CELL's 5 nearest
    samples."""
    from .ops.interp import avg_at

    pts = tpch.read_points(sf_dir)
    b = compute_bounds(pts, RES)
    targets = ray.data.from_arrow(_all_cells_table(b, RES))
    smp = tpch.read_samples_table(sf_dir)
    out = avg_at(targets, smp, neighbours=5)

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell_id": t["cell_id"].to_numpy(zero_copy_only=False),
                "avg_z": _round_away(t["avg_z"].to_numpy(zero_copy_only=False), R6),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


SQL_AVG_KNN = f"""
WITH pts AS ({tpch.PTS_SQL}),
b AS (
  SELECT floor(min(x)/{RES})*{RES} AS minx, floor(min(y)/{RES})*{RES} AS miny,
         floor(max(x)/{RES})*{RES}+{RES} AS maxx, floor(max(y)/{RES})*{RES}+{RES} AS maxy
  FROM pts),
g AS (
  SELECT greatest(1, CAST(ceil((maxx-minx)/{RES}) AS BIGINT)) AS ncols,
         greatest(1, CAST(ceil((maxy-miny)/{RES}) AS BIGINT)) AS nrows,
         minx, miny FROM b),
allcells AS (
  SELECT (r.r * g.ncols + c.c) AS cell_id,
         g.minx + c.c*{RES} + {RES}*0.5 AS cx,
         g.miny + (g.nrows - r.r - 1)*{RES} + {RES}*0.5 AS cy
  FROM g, generate_series(0, 63) c(c), generate_series(0, 63) r(r)
  WHERE c.c < g.ncols AND r.r < g.nrows),
smp AS ({tpch.SAMPLES_SQL}),
ranked AS (
  SELECT a.cell_id, s.sz,
         row_number() OVER (
           PARTITION BY a.cell_id
           ORDER BY (a.cx-s.sx)*(a.cx-s.sx) + (a.cy-s.sy)*(a.cy-s.sy), s.s_suppkey) AS rn
  FROM allcells a CROSS JOIN smp s)
SELECT cell_id, round(avg(sz), {R6}) AS avg_z FROM ranked WHERE rn <= 5 GROUP BY cell_id"""


# NOTE on cell_id in the two queries above: targets enumerate cells in
# ROW-MAJOR TOP-FIRST order (cell_id = top_row*ncols + col), matching
# cell_centroids' inverse mapping.


# ---------------------------------------------------------------------------
# M8 flight-line segmentation (oracle-checked interval merge)

TIME_GAP_DAYS = 30.0


def _stream_points(sf_dir: str):
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_suppkey", "l_shipdate"],
    )

    def fn(t: pa.Table) -> pa.Table:
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = t["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "file": sk % 5,
                "gps_time": us / 1e6 / 86400.0,
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def q_flightline(sf_dir: str):
    from .ops.flightline import grouped_map, merge_segments

    pts = _stream_points(sf_dir)

    def per_file(df: pd.DataFrame) -> pd.DataFrame:
        from .ops.flightline import _file_segments

        out = []
        for f, g in df.groupby("file", sort=False):
            g = g.sort_values(["gps_time", "l_orderkey", "l_linenumber"])
            for st, en in _file_segments(g, "gps_time", TIME_GAP_DAYS):
                out.append({"t_start": st, "t_end": en})
        return pd.DataFrame(out, columns=["t_start", "t_end"])

    raw = grouped_map(pts, ["file"], per_file).to_pandas()
    merged = merge_segments(list(zip(raw["t_start"], raw["t_end"])))
    return pd.DataFrame(
        {
            "flightline_id": [m[0] for m in merged],
            "t_start": [float(_round_away(m[1], R6)) for m in merged],
            "t_end": [float(_round_away(m[2], R6)) for m in merged],
        }
    )


SQL_FLIGHTLINE = f"""
WITH e AS (
  SELECT (l_suppkey % 5) AS f, epoch(l_shipdate)/86400.0 AS t, l_orderkey, l_linenumber
  FROM lineitem),
o AS (
  SELECT f, t, l_orderkey, l_linenumber,
    CASE WHEN lag(t) OVER w IS NULL OR t - lag(t) OVER w > {TIME_GAP_DAYS} THEN 1 ELSE 0 END AS brk
  FROM e WINDOW w AS (PARTITION BY f ORDER BY t, l_orderkey, l_linenumber)),
i AS (
  -- the running sum must use the SAME tie-break as brk's window:
  -- t alone is day-granular here, and an unspecified tie order could
  -- place same-day rows before the brk row, fusing two segments
  SELECT f, t, sum(brk) OVER (
    PARTITION BY f ORDER BY t, l_orderkey, l_linenumber
    ROWS UNBOUNDED PRECEDING) AS seg
  FROM o),
segs AS (SELECT f, seg, min(t) AS s, max(t) AS e FROM i GROUP BY f, seg),
segs2 AS (
  SELECT s, e FROM segs
  WHERE NOT (seg = (SELECT max(seg) FROM segs x WHERE x.f = segs.f) AND s = e)),
m AS (
  SELECT s, e,
    CASE WHEN max(e) OVER (ORDER BY s, e ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) IS NULL
           OR s >= max(e) OVER (ORDER BY s, e ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) + 1.0
         THEN 1 ELSE 0 END AS brk
  FROM segs2),
fl AS (SELECT s, e, sum(brk) OVER (ORDER BY s, e ROWS UNBOUNDED PRECEDING) AS fid FROM m)
SELECT fid::BIGINT AS flightline_id, round(min(s), {R6}) AS t_start, round(max(e), {R6}) AS t_end
FROM fl GROUP BY fid"""


# ---------------------------------------------------------------------------
# rows-only pipelines (deterministic; semantics pytest-verified)

def _mean_tiles(sf_dir: str, res: float = 2.0, tile: int = 16):
    """Distributed mean-z raster as tile rows: grid stats -> ONE
    grouped shuffle (tiles_from_cellstats) — no driver dense grid."""
    from .ops.raster import tiles_from_cellstats

    pts = tpch.read_points(sf_dir)
    b = compute_bounds(pts, res)
    stats = grid_stats(pts, GridConfig(res=res, bounds=b, stats=("mean",)))
    cols = b.cols(res)
    rows = b.rows(res)
    tiles = tiles_from_cellstats(stats, "mean", cols, rows, tile, dense=True)
    return tiles, b, rows, cols


def _tile_checksums(out):
    from .ops.raster import NODATA, list_col_views

    def fin(t: pa.Table) -> pd.DataFrame:
        views = list_col_views(t["data"])
        nv = np.zeros(len(views), dtype=np.int64)
        cks = np.zeros(len(views), dtype=np.float64)
        for i, v in enumerate(views):
            valid = v != NODATA
            nv[i] = valid.sum()
            cks[i] = float(_round_away(v[valid].sum(), 4)) if nv[i] else 0.0
        return pd.DataFrame(
            {
                "trow": t["trow"].to_numpy(zero_copy_only=False).astype(np.int64),
                "tcol": t["tcol"].to_numpy(zero_copy_only=False).astype(np.int64),
                "n_valid": nv,
                "checksum": cks,
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


def q_raster_smooth(sf_dir: str):
    """W1 gaussian smooth of the mean-z raster, tile-parallel end to
    end (distributed assembly -> halo exchange -> checksums)."""
    from .ops.raster import smooth_tiles

    tiles, b, H, W = _mean_tiles(sf_dir)
    out = smooth_tiles(tiles, sigma=1.0, size=3, H=H, W=W, tile=16, num_parts=parts_for_tiles(H, W, 16))
    return _tile_checksums(out)


def q_treetops(sf_dir: str):
    """O3 local-max detection over the smoothed mean-z raster —
    distributed assembly -> distributed smooth -> distributed top
    detection (two chained halo exchanges)."""
    from .ops.raster import local_maxima_tiles, smooth_tiles

    tiles, b, H, W = _mean_tiles(sf_dir)
    sm = smooth_tiles(tiles, sigma=1.0, size=3, H=H, W=W, tile=16, num_parts=parts_for_tiles(H, W, 16))
    out = local_maxima_tiles(sm, window=3, min_height=20.0, H=H, W=W, tile=16, num_parts=parts_for_tiles(H, W, 16))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["z"] = _round_away(df["z"].to_numpy(), 4)
        return df

    return out.map_batches(fin, batch_format="pandas")


def q_flood_basins(sf_dir: str):
    """W4 flood-fill basin labeling — local labels per tile task, only
    (label, label) boundary pairs + per-label stats leave the tiles."""
    from .ops.raster import flood_basins_tiles

    tiles, b, H, W = _mean_tiles(sf_dir)
    out = flood_basins_tiles(tiles, [20.0], H, W, 16)
    return out[["basin", "area"]]


def q_mosaic(sf_dir: str):
    """W3 feather+blend of the count raster over the mean raster —
    both sides assembled co-tiled in ONE shuffle from the same grid
    stats, split locally into the blend's base/overlay inputs."""
    from .ops.raster import NODATA, mosaic_tiles, tiles_multi_from_cellstats

    pts = tpch.read_points(sf_dir)
    res = 2.0
    b = compute_bounds(pts, res)
    stats = grid_stats(pts, GridConfig(res=res, bounds=b, stats=("mean", "count")))
    cols = b.cols(res)
    rows = b.rows(res)

    def with_overlay(t: pa.Table) -> pa.Table:
        cid = t["cell_id"].to_numpy(zero_copy_only=False)
        n = t["count"].to_numpy(zero_copy_only=False).astype(np.float64)
        # overlay = counts on the left half only (nodata elsewhere,
        # matching the old filtered+dense assembly)
        ov = np.where(cid % cols < cols // 2, n, NODATA)
        return t.append_column("ocount", pa.array(ov))

    mt = tiles_multi_from_cellstats(
        stats.map_batches(with_overlay, batch_format="pyarrow"),
        ["mean", "ocount"], cols, rows, 16, dense=True,
    ).materialize()

    def pick(col):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table(
                {"trow": t["trow"], "tcol": t["tcol"], "h": t["h"], "w": t["w"],
                 "data": t["data_" + col]}
            )
        return fn

    bt = mt.map_batches(pick("mean"), batch_format="pyarrow")
    ot = mt.map_batches(pick("ocount"), batch_format="pyarrow")
    H, W = rows, cols
    out = mosaic_tiles(bt, ot, distance=3.0, resolution=1.0, H=H, W=W, tile=16, num_parts=parts_for_tiles(H, W, 16))
    return _tile_checksums(out)


def q_datum_transform(sf_dir: str):
    """M6: transform derived UTM12 coords itrf2000@1986 -> CSRS@2011."""
    from .ops.datum import datum_transform

    pts = tpch.read_points(sf_dir)

    def to_utm(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy(zero_copy_only=False) * 100.0 + 460000.0
        y = t["y"].to_numpy(zero_copy_only=False) * 100.0 + 6510000.0
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "x": x,
                "y": y,
                "z": t["z"].to_numpy(zero_copy_only=False),
            }
        )

    utm = pts.map_batches(to_utm, batch_format="pyarrow")
    out = datum_transform(utm, "itrf2000", 1986.0, 2011.0, 26912, 2956, concurrency=2)

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "x": _round_away(t["x"].to_numpy(zero_copy_only=False), 4),
                "y": _round_away(t["y"].to_numpy(zero_copy_only=False), 4),
                "z": _round_away(t["z"].to_numpy(zero_copy_only=False), 4),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


def q_normalize_height(sf_dir: str):
    """M7: TIN height normalization per 12.5-unit cell; per-cell rollup."""
    from .ops.interp import normalize_height

    pts = tpch.read_points(sf_dir)
    res = 12.5
    b = compute_bounds(pts, res)

    def with_cells(t: pa.Table) -> pa.Table:
        from .kernels.grid import cell_id_of_points

        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        cid = cell_id_of_points(x, y, b, res)
        return pa.table(
            {
                "cell_id": cid,
                "x": x,
                "y": y,
                "z": t["z"].to_numpy(zero_copy_only=False),
                "cls": t["cls"].to_numpy(zero_copy_only=False),
            }
        )

    pc = pts.map_batches(with_cells, batch_format="pyarrow")
    # cells are the unit of work (each TINs its ground points); default
    # num_parts (2xCPU) keeps the per-part cell count low so the
    # slowest part holds 1-2 TINs, not 8
    def rollup(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell_id", sort=False)["z"]
        res_df = pd.DataFrame(
            {
                "cell_id": list(g.groups.keys()),
                "n": g.count().to_numpy().astype(np.int64),
                "sum_nz": _round_away(g.sum().to_numpy(), 4),
            }
        )
        return res_df

    # the rollup runs INSIDE the normalize partitions (each holds its
    # cells whole) — a second grouped_map here re-shuffled the entire
    # normalized point set to compute 64 count/sum rows
    return normalize_height(pc, reduce_fn=rollup)


def q_minhash_dedup(sf_dir: str):
    from .ops.dedup import minhash_lsh_dedup

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=32,  # one-file table: split so the per-doc hashing stages parallelize
    )
    return minhash_lsh_dedup(docs, threshold=0.5)


def q_simhash_pairs(sf_dir: str):
    from .ops.dedup import simhash_pairs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=32,  # one-file table: split so the per-doc hashing stages parallelize
    )
    return simhash_pairs(docs, max_hamming=10)


def q_ngram_pairs(sf_dir: str):
    from .ops.dedup import ngram_jaccard_pairs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=32,  # one-file table: split so the per-doc hashing stages parallelize
    )
    # route_budget=None: the SQL oracle is recall-1 exact, so the
    # oracle-checked query must never take the banded-recall route
    out = ngram_jaccard_pairs(docs, n=3, threshold=0.3, route_budget=None)

    def fin(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("jaccard")
        return t.set_column(
            i, "jaccard", pa.array(_round_away(t["jaccard"].to_numpy(zero_copy_only=False), 6))
        )

    return out.map_batches(fin, batch_format="pyarrow")


def q_planar_fit(sf_dir: str):
    """R4: plane fit over the samples, evaluated at cell centroids."""
    from .ops.interp import planar_at

    pts = tpch.read_points(sf_dir)
    b = compute_bounds(pts, RES)
    targets = ray.data.from_arrow(_all_cells_table(b, RES))
    smp = tpch.read_samples_table(sf_dir)
    out = planar_at(targets, smp)

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell_id": t["cell_id"].to_numpy(zero_copy_only=False),
                "plane_z": _round_away(t["plane_z"].to_numpy(zero_copy_only=False), R6),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# crown / boundary / spectral / raster-diff / void-fill / rugosity
# (rows-only; semantics pytest-verified vs kernels)

def q_crowns(sf_dir: str):
    """O3 + W6: distributed smooth -> distributed top detection (the
    small tops table is the ONLY thing collected — ST4) -> tile-
    parallel crown growth."""
    import pyarrow as pa

    from .ops.crowns import crown_growth_tiles
    from .ops.raster import local_maxima_tiles, smooth_tiles

    tiles, b, H, W = _mean_tiles(sf_dir)
    sm = smooth_tiles(tiles, sigma=1.0, size=3, H=H, W=W, tile=16, num_parts=parts_for_tiles(H, W, 16)).materialize()
    tops_df = (
        local_maxima_tiles(sm, window=3, min_height=20.0, H=H, W=W, tile=16, num_parts=parts_for_tiles(H, W, 16))
        .to_pandas()
        .sort_values(["row", "col"])  # kernel's row-major emission order
        .reset_index(drop=True)
    )
    tops = pa.table(
        {
            "id": np.arange(1, len(tops_df) + 1, dtype=np.int64),
            "col": tops_df["col"].to_numpy().astype(np.int64),
            "row": tops_df["row"].to_numpy().astype(np.int64),
            "z": tops_df["z"].to_numpy().astype(np.float64),
        }
    )
    out = crown_growth_tiles(sm, tops, min_height=5.0, height_fraction=0.5,
                             radius=4.0, H=H, W=W, tile=16, num_parts=parts_for_tiles(H, W, 16))

    def fin(t: pa.Table) -> pd.DataFrame:
        from .ops.raster import list_col_views

        views = list_col_views(t["data"])
        ncl = np.array([int((v > 0).sum()) for v in views], dtype=np.int64)
        ids = np.array([int(v.sum()) for v in views], dtype=np.int64)
        return pd.DataFrame(
            {
                "trow": t["trow"].to_numpy(zero_copy_only=False).astype(np.int64),
                "tcol": t["tcol"].to_numpy(zero_copy_only=False).astype(np.int64),
                "n_claimed": ncl,
                "id_sum": ids,
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


def q_crowns_verify(sf_dir: str):
    """W6 verify: the crown-growth kernel (same smooth -> tops ->
    crown_growth_tiles chain as q_crowns) pinned against a recursive-
    CTE SQL oracle on ISOLATED tops. The engine's FIFO/visited-set
    growth is order-dependent only where two tops can claim the same
    cell — impossible when the nearest other top is further than
    2*radius (dist^2 > 16 in cells at the verify radius of 2.0; at
    q_crowns' radius 4.0 the synthetic canopy has NO isolated top,
    min spacing ~5.7 cells) — so for isolated tops the claimed
    set equals the descending-path reachability closure the recursion
    computes (see SQL_CROWNS_VERIFY; reference src/treetops.cpp:279-408).
    Growth runs over ALL tops (the real pipeline); only isolated ids
    are emitted. Output: (id, top_col, top_row, n_cells, sum_v)."""
    import pyarrow as pa

    from .ops.crowns import crown_growth_tiles
    from .ops.raster import local_maxima_tiles, smooth_tiles

    tiles, b, H, W = _mean_tiles(sf_dir)
    sm = smooth_tiles(
        tiles, sigma=1.0, size=3, H=H, W=W, tile=16, num_parts=parts_for_tiles(H, W, 16)
    ).materialize()
    tops_df = (
        local_maxima_tiles(sm, window=3, min_height=20.0, H=H, W=W, tile=16, num_parts=parts_for_tiles(H, W, 16))
        .to_pandas()
        .sort_values(["row", "col"])  # kernel's row-major emission order
        .reset_index(drop=True)
    )
    n = len(tops_df)
    col = tops_df["col"].to_numpy().astype(np.int64)
    row = tops_df["row"].to_numpy().astype(np.int64)
    z = tops_df["z"].to_numpy().astype(np.float64)
    ids = np.arange(1, n + 1, dtype=np.int64)
    if n > 20_000:
        # the SQL oracle's NOT EXISTS is O(n^2) too: this verify query
        # is a bounded-surface contract, not a scale path (q_crowns is)
        raise ValueError(f"crowns_verify: {n} tops exceeds the bounded-surface cap")
    if n > 1:
        d2 = (col[:, None] - col[None, :]) ** 2 + (row[:, None] - row[None, :]) ** 2
        np.fill_diagonal(d2, np.iinfo(np.int64).max)
        iso = d2.min(axis=1) > 16
    else:
        iso = np.ones(n, dtype=bool)
    tops = pa.table({"id": ids, "col": col, "row": row, "z": z})
    out = crown_growth_tiles(
        sm, tops, min_height=5.0, height_fraction=0.5, radius=2.0,
        H=H, W=W, tile=16, num_parts=parts_for_tiles(H, W, 16),
    )
    # per-id stats need the claimed cells' smoothed values: zip the id
    # tiles with the sm tiles by (trow, tcol) DISTRIBUTED — each tile
    # reduces to its per-id (n, sum_v) partials, so the driver only
    # collects O(tiles x ids-present-per-tile) rows, never a pixel grid
    from .ops.spectral import zip_tiles

    def tile_partial(trow, tcol, gi, gv):
        idarr = gi.astype(np.int64).ravel()
        varr = gv.ravel()
        m = idarr > 0
        if not m.any():
            return pd.DataFrame({"id": [], "n": [], "sv": []})
        nc = np.bincount(idarr[m])
        sv = np.bincount(idarr[m], weights=varr[m])
        present = np.flatnonzero(nc)
        return pd.DataFrame({"id": present, "n": nc[present], "sv": sv[present]})

    partials = zip_tiles(
        out, sm, tile_partial,
        empty=pd.DataFrame({"id": [], "n": [], "sv": []}),
    ).to_pandas()
    n_cells = np.zeros(n + 1, dtype=np.int64)
    sum_v = np.zeros(n + 1, dtype=np.float64)
    if len(partials):
        pid = partials["id"].to_numpy().astype(np.int64)
        n_cells[: pid.max() + 1] = np.bincount(pid, weights=partials["n"].to_numpy())
        sum_v[: pid.max() + 1] = np.bincount(pid, weights=partials["sv"].to_numpy())
    sel = np.flatnonzero(iso) + 1
    return pd.DataFrame(
        {
            "id": sel.astype(np.int64),
            "top_col": col[sel - 1],
            "top_row": row[sel - 1],
            "n_cells": n_cells[sel],
            "sum_v": _round_away(sum_v[sel], 4),
        }
    )


def q_boundary(sf_dir: str):
    """W7 boundary extraction over the point cloud."""
    from .ops.crowns import boundary_edges

    pts = tpch.read_points(sf_dir)
    edges = boundary_edges(pts, res=5.0, max_len=15.0)
    edges = edges.copy()
    for c in ("x0", "y0", "x1", "y1", "length"):
        edges[c] = _round_away(edges[c].to_numpy(), 6)
    return edges


def q_spectral(sf_dir: str):
    """J5: index raster (cell_id+1 where count >= SPECTRAL_MIN_N — an oracle-
    checkable deterministic labeling) ⋈ mean raster by pixel."""
    import pyarrow as pa

    from .ops.raster import NODATA, tiles_multi_from_cellstats
    from .ops.spectral import spectral_extract_cotiled
    from .queries_raster_sql import SPECTRAL_MIN_N

    pts = tpch.read_points(sf_dir)
    res = 2.0
    b = compute_bounds(pts, res)
    stats = grid_stats(pts, GridConfig(res=res, bounds=b, stats=("mean", "count")))
    cols = b.cols(res)
    rows = b.rows(res)

    def idx_vals(t: pa.Table) -> pa.Table:
        cid = t["cell_id"].to_numpy(zero_copy_only=False)
        n = t["count"].to_numpy(zero_copy_only=False)
        # below-threshold cells keep their mean but get a nodata index
        # (same pixel set as the old filtered index raster)
        v = np.where(n >= SPECTRAL_MIN_N, (cid + 1).astype(np.float64), NODATA)
        return t.append_column("idxval", pa.array(v))

    mt = tiles_multi_from_cellstats(
        stats.map_batches(idx_vals, batch_format="pyarrow"),
        ["idxval", "mean"], cols, rows, 16, dense=True,
    )
    out = spectral_extract_cotiled(mt, "idxval", "mean", 16, res=2.0, minx=b.minx, miny=b.miny)

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        for c in ("x", "y", "dn"):
            df[c] = _round_away(df[c].to_numpy(), 4)
        return df

    return out.map_batches(fin, batch_format="pandas")


def q_raster_diff(sf_dir: str):
    """J6/A14: per-class stats of (mean - median) rasters — all three
    tile sets assembled distributed from the same exact-stat pass."""
    from .ops.raster import tiles_multi_from_cellstats
    from .ops.spectral import raster_diff_stats_cotiled

    pts = tpch.read_points(sf_dir)
    res = 2.0
    b = compute_bounds(pts, res)
    stats = grid_stats(
        pts, GridConfig(res=res, bounds=b, stats=("mean", "median", "count"), strategy="exact")
    )
    cols = b.cols(res)
    rows = b.rows(res)

    def clsval(t: pa.Table) -> pa.Table:
        n = t["count"].to_numpy(zero_copy_only=False)
        return t.append_column("clsv", pa.array(n % 4.0 + 1.0))

    mt = tiles_multi_from_cellstats(
        stats.map_batches(clsval, batch_format="pyarrow"),
        ["mean", "median", "clsv"], cols, rows, 16, dense=True,
    )
    out = raster_diff_stats_cotiled(mt, "mean", "median", "clsv")

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        for c in ("mean_diff", "stddev_diff", "min_diff", "max_diff"):
            df[c] = _round_away(df[c].to_numpy(), 6)
        return df

    return out.map_batches(fin, batch_format="pandas")


def q_void_fill(sf_dir: str):
    """W2: fill the mean raster's empty cells by expanding-radius IDW
    (distributed assembly + vectorized ring-accumulation fill)."""
    from .ops.raster import void_fill_tiles

    tiles, b, H, W = _mean_tiles(sf_dir)
    out = void_fill_tiles(tiles, radius=2.0, count=3, exp=1.0, H=H, W=W,
                          tile=16, max_radius=6, num_parts=parts_for_tiles(H, W, 16))
    return _tile_checksums(out)


def q_rugosity(sf_dir: str):
    """A10: per-cell ACR rugosity (Delaunay area / POBF hull area)."""
    from .kernels.stats import ref_rugosity
    from .stages.grouped import grouped_map

    pts = tpch.read_points(sf_dir)
    res = 25.0
    b = compute_bounds(pts, res)

    import pyarrow as pa

    def with_cells(t: pa.Table) -> pa.Table:
        from .kernels.grid import cell_id_of_points

        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "cell_id": cell_id_of_points(x, y, b, res),
                "x": x,
                "y": y,
                "z": t["z"].to_numpy(zero_copy_only=False),
            }
        )

    pc = pts.map_batches(with_cells, batch_format="pyarrow")

    def per_cell(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for cid, g in df.groupby("cell_id", sort=False):
            g = g.sort_values(["x", "y", "z"])  # deterministic triangulation
            # subsample for tractability; deterministic head after sort
            g = g.head(400)
            r = ref_rugosity(g["x"].to_numpy(), g["y"].to_numpy(), g["z"].to_numpy())
            rows.append({"cell_id": int(cid), "rugosity": float(_round_away(r, 4))})
        return pd.DataFrame(rows, columns=["cell_id", "rugosity"])

    return grouped_map(pc, ["cell_id"], per_cell)


def q_ann_ivf(sf_dir: str):
    """IVF ANN through the full bucket path with nprobe = nlist
    (exhaustive probing => exact result, oracle-checked against the
    brute-force SQL); the PRUNED nprobe < nlist tier's recall and
    partition-pruned reads are pytest-asserted
    (tests/test_ann_multimodal.py)."""
    from .ops.ann import _stack, ivf_topk

    import pyarrow.parquet as pq
    import pyarrow.compute as pc

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qt = t.filter(pc.less(t["vec_id"], 5))
    Q = _stack(qt["embedding"])
    qids = qt["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    vecs = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = ivf_topk(vecs, Q, qids, k=10, nlist=8, nprobe=8)
    return out.select_columns(["q_id", "vec_id", "rank"])


def q_ann_ivfpq(sf_dir: str):
    """IVF-PQ ANN through the full codes path — coarse assign, m-byte
    PQ encode, ADC shortlist, exact rerank — in its EXACT configuration
    (nprobe = nlist, rerank >= corpus => the shortlist covers
    everything and the rerank is exact-cosine; oracle-checked against
    the brute-force SQL, the q_ann_ivf exhaustive-probe trick). The
    pruned tier (nprobe < nlist, rerank ~ 4k) is the memory-scale path
    — codes are 32x smaller than the raw vectors — with recall,
    compression, and partition-pruned reads pytest-asserted
    (tests/test_ann_multimodal.py)."""
    from .ops.ann import _stack, ivfpq_topk

    import pyarrow.parquet as pq
    import pyarrow.compute as pc

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qt = t.filter(pc.less(t["vec_id"], 5))
    Q = _stack(qt["embedding"])
    qids = qt["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    vecs = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = ivfpq_topk(
        vecs, Q, qids, k=10, nlist=8, m=8, nbits=6, nprobe=8, rerank=t.num_rows
    )
    return out.select_columns(["q_id", "vec_id", "rank"])


def q_minima(sf_dir: str):
    """O5 flood seed minima over the mean-z raster (oracle-checked),
    distributed assembly + halo exchange."""
    from .ops.raster import minima_tiles

    tiles, b, H, W = _mean_tiles(sf_dir)
    out = minima_tiles(tiles, H=H, W=W, tile=16, num_parts=parts_for_tiles(H, W, 16))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["z"] = _round_away(df["z"].to_numpy(), 4)
        return df

    return out.map_batches(fin, batch_format="pandas")


def q_detect_edges(sf_dir: str):
    """M9 flight-line turn detection (two-queue scan) — per-file
    rollup of reclassed counts (rows-only; the scan is inherently
    sequential per file and not SQL-expressible)."""
    from .ops.flightline import detect_edges

    pts = tpch.read_points(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        sk = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = t["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "file": sk % 5,
                "gps_time": (sk * 7 + ln).astype(np.float64) / 100.0,
                "x": t["x"],
                "y": t["y"],
                "cls": t["cls"],
            }
        )

    prepped = pts.map_batches(prep, batch_format="pyarrow")
    out = detect_edges(prepped, "file", order_cols=("x", "y"))

    def rollup(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("file", sort=False)
        return pd.DataFrame(
            {
                "file": list(g.groups.keys()),
                "n_turn": g["cls"].apply(lambda c: int((c == 31).sum())).to_numpy(np.int64),
                "n_total": g.size().to_numpy(np.int64),
            }
        )

    from .stages.grouped import grouped_map

    return grouped_map(out, ["file"], rollup)


def q_detect_edges_verify(sf_dir: str):
    """M9 two-queue flip scan, hash-checked END-TO-END against a
    recursive-CTE oracle. With the gap flush disabled (flush_gap=1e9 —
    the gap path keeps its pytest + the rows-only q_detect_edges) the
    scan's state collapses to a single recursion: a check fires at
    every row rn >= last_reset + 2*queue_len, a flip at p reclasses
    exactly rows p-39..p (both queues) and resets, so the flip set is
    `p_{k+1} = min{rn >= p_k + 40 : angle_cond(rn)}` with angle_cond a
    pure LAG-window expression (atan2 over the 19/20/39-row-back
    endpoints, normalized to [0, 2pi)). One file (l_orderkey % 5 = 0)
    bounds the sequential surface; the order key (t, x, y, ok, ln) is
    total so tie order cannot diverge. Positional fingerprint: sums of
    x and y over reclassed rows (round 4 — wide enough that float
    accumulation order can't flip the quantized digit at any sf).
    Reference semantics: recoverEdges src/lasreclass.cpp:186-259."""
    from .ops.flightline import detect_edges

    pts = tpch.read_points(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = t["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ok % 5 == 0
        ok, ln = ok[keep], ln[keep]
        return pa.table(
            {
                "file": np.zeros(len(ok), dtype=np.int64),
                "gps_time": (ok * 7 + ln) / 100.0,
                "x": t["x"].to_numpy(zero_copy_only=False)[keep],
                "y": t["y"].to_numpy(zero_copy_only=False)[keep],
                "cls": t["cls"].to_numpy(zero_copy_only=False)[keep],
                "okey": ok,
                "ln": ln,
            }
        )

    prepped = pts.map_batches(prep, batch_format="pyarrow")
    out = detect_edges(
        prepped, "file", order_cols=("x", "y", "okey", "ln"), flush_gap=1e9
    )

    def rollup(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for f, g in df.groupby("file", sort=False):
            turned = g[g["cls"].to_numpy() == 31]
            rows.append(
                {
                    "file": np.int64(f),
                    "n_turn": np.int64(len(turned)),
                    "n_total": np.int64(len(g)),
                    "sum_x_turn": float(_round_away(turned["x"].to_numpy().sum(), 4)),
                    "sum_y_turn": float(_round_away(turned["y"].to_numpy().sum(), 4)),
                }
            )
        return pd.DataFrame(
            rows, columns=["file", "n_turn", "n_total", "sum_x_turn", "sum_y_turn"]
        )

    from .stages.grouped import grouped_map

    return grouped_map(out, ["file"], rollup)


SQL_DETECT_EDGES_VERIFY = """
WITH RECURSIVE pts AS ({PTS}),
ord0 AS (
  SELECT (l_orderkey*7 + l_linenumber)/100.0 AS t, x, y,
         l_orderkey AS ok, l_linenumber AS ln
  FROM pts WHERE l_orderkey % 5 = 0),
ordr AS (
  SELECT x, y, row_number() OVER (ORDER BY t, x, y, ok, ln) AS rn FROM ord0),
dirs AS (
  SELECT rn, x, y,
    atan2(y - lag(y, 19) OVER w, x - lag(x, 19) OVER w) AS a0,
    atan2(lag(y, 20) OVER w - lag(y, 39) OVER w,
          lag(x, 20) OVER w - lag(x, 39) OVER w) AS a1
  FROM ordr WINDOW w AS (ORDER BY rn)),
cond AS (
  SELECT rn, x, y,
    CASE WHEN rn >= 40 THEN
      abs((CASE WHEN a0 < 0 THEN a0 + 2*pi() ELSE a0 END)
        - (CASE WHEN a1 < 0 THEN a1 + 2*pi() ELSE a1 END)) > 0.75*pi()
    ELSE false END AS is_flip
  FROM dirs),
fl AS (
  SELECT min(rn) AS p FROM cond WHERE is_flip
  UNION ALL
  SELECT (SELECT min(rn) FROM cond c WHERE c.rn >= fl.p + 40 AND c.is_flip)
  FROM fl WHERE fl.p IS NOT NULL),
flips AS (SELECT p FROM fl WHERE p IS NOT NULL),
turned AS (
  SELECT o.rn, o.x, o.y FROM cond o JOIN flips f ON o.rn BETWEEN f.p - 39 AND f.p)
SELECT 0 AS file,
       (SELECT count(*) FROM turned) AS n_turn,
       (SELECT count(*) FROM ordr) AS n_total,
       round(coalesce((SELECT sum(x) FROM turned), 0), 4) AS sum_x_turn,
       round(coalesce((SELECT sum(y) FROM turned), 0), 4) AS sum_y_turn
""".format(PTS=tpch.PTS_SQL)


def q_boundary_cells(sf_dir: str):
    """W7 boundary edge cells (the distributed occupancy + edge-cell
    part of lasboundary — oracle-checked; the Delaunay multiline over
    them is q_boundary, rows-only)."""
    from .ops.crowns import boundary_cells

    pts = tpch.read_points(sf_dir)
    return boundary_cells(pts, res=5.0)


def q_datum_vectors(sf_dir: str):
    """M6 parity pin: transform the 11 published las2csrs vectors
    (reference tests/_test_las2csrs.py:31-45); oracle pins the outputs
    at 3 decimals (each verified < 0.52 mm from published values)."""
    from .kernels.transform import ShiftGrid, load_helmert, transform_points
    from .ops.datum import DEFAULT_SHARE

    vectors = [
        ("itrf88", 1986.0, 2011.0, 26912, 2956, 470000.000, 6520000.000, 200.000),
        ("itrf89", 1992.0, 2002.0, 26910, 3157, 211704.236, 5617008.921, 53.000),
        ("itrf90", 1990.0, 2001.0, 32611, 2955, 467473.356, 6430442.112, 981.230),
        ("itrf91", 1986.0, 2011.0, 26912, 2956, 470000.000, 6520000.000, 200.000),
        ("itrf92", 1992.0, 2002.0, 26910, 3157, 211704.236, 5617008.921, 53.000),
        ("itrf93", 1990.0, 2001.0, 32611, 2955, 467473.356, 6430442.112, 981.230),
        ("itrf94", 1986.0, 2011.0, 26912, 2956, 470000.000, 6520000.000, 200.000),
        ("itrf96", 1992.0, 2002.0, 26910, 3157, 211705.325, 5617008.251, 53.000),
        ("itrf97", 1990.0, 2001.0, 32611, 2955, 467473.356, 6430442.112, 981.230),
        ("itrf2000", 1986.0, 2011.0, 26912, 2956, 470000.000, 6520000.000, 200.000),
        ("nad83csrs", 1992.0, 2002.0, 26910, 3157, 211704.236, 5617008.921, 53.000),
    ]
    sg = ShiftGrid.from_tif(f"{DEFAULT_SHARE}/NAD83v6VG.tif")
    rows = []
    for i, (frame, efrom, eto, fs, ts, x0, y0, z0) in enumerate(vectors):
        hp = load_helmert(f"{DEFAULT_SHARE}/itrf.csv", frame)
        ox, oy, oz = transform_points(
            np.array([x0]), np.array([y0]), np.array([z0]),
            frame, efrom, eto, fs, ts, hp, sg,
        )
        rows.append(
            {
                "case_id": np.int64(i),
                "x": float(_round_away(ox[0], 3)),
                "y": float(_round_away(oy[0], 3)),
                "z": float(_round_away(oz[0], 3)),
            }
        )
    return pd.DataFrame(rows)


def q_srtm_lakes(sf_dir: str):
    """R12 lake flattening (flat regions >= minsize become water at
    their elevation) — rows-only; the BFS consume-on-pop quirk
    (src/utils/srtm_lakes.cpp:23-93) is globally scan-ordered, so the
    kernel is inherently per-SCENE: the reference itself processes one
    SRTM tile per invocation, and cross-scene map_batches is the
    100-TB parallel axis. The dense grid is assembled INSIDE a worker
    task (grouped_map over scene id) from the distributed tile table —
    the driver never holds pixels; per-task memory is bounded by one
    scene (a 1-degree SRTM tile), pytest-verified with planted
    lakes."""
    from .kernels.raster import srtm_lakes
    from .ops.raster import tiles_to_grid
    from .stages.grouped import grouped_map

    tiles, b, H, W = _mean_tiles(sf_dir)
    scene = tiles.map_batches(
        lambda t: t.append_column(
            "scene", pa.array(np.zeros(len(t), dtype=np.int64))
        ),
        batch_format="pyarrow",
    )

    def per_scene(t: pa.Table) -> pd.DataFrame:
        grid = tiles_to_grid(t, H, W, 16)
        quant = np.where(grid == -9999.0, -9999.0, np.floor(grid / 5.0) * 5.0)
        water = srtm_lakes(quant, minsize=10)
        els, counts = np.unique(water[water > 0], return_counts=True)
        return pd.DataFrame(
            {"elevation": els.astype(np.float64), "n_cells": counts.astype(np.int64)}
        )

    return grouped_map(scene, ["scene"], per_scene, num_parts=4,
                       batch_format="pyarrow")


def q_zonal_wkb(sf_dir: str):
    """S6: zonal pair join where the polygon layer arrives as a WKB
    binary column (parsed through sources/wkb) — same oracle as
    zonal_pairs, proving ingestion parity."""
    from .queries import RECT_POLYS
    from .sources.wkb import polygon_to_wkb, read_polygon_table
    from .ops import zonal as Z

    ptab = pa.table(
        {
            "polygon_id": np.array([p.polygon_id for p in RECT_POLYS], dtype=np.int64),
            "wkb": pa.array([polygon_to_wkb(p.rings) for p in RECT_POLYS], pa.binary()),
            "name": [f"zone{p.polygon_id}" for p in RECT_POLYS],
        }
    )
    polys, attrs = read_polygon_table(ptab, attr_cols=("name",))
    # the attr-parse path is part of what this query proves: check it
    # round-tripped before discarding (attrs don't join the output —
    # the oracle compares the spatial join only)
    assert [attrs.loc[p.polygon_id, "name"] for p in RECT_POLYS] == [
        f"zone{p.polygon_id}" for p in RECT_POLYS
    ]
    pts = tpch.read_points(sf_dir)
    return Z.zonal_join(pts, polys, keep_cols=("l_orderkey", "l_linenumber"))


def q_kriging_verify(sf_dir: str):
    """R6 kriging solve pinned by a closed-form design: with nugget=0
    and a vanishing variogram range, every distinct pair sits at the
    sill, so the (n+1)x(n+1) Lagrange system has KNOWN solutions —
    a target AT sample k solves to the unit weight vector e_k (exact
    interpolation, prediction = z_k) and any other target solves to
    uniform weights 1/n (prediction = mean z). The query runs the
    REAL assembly + inverse + batched solve (ops/interp.kriging_at)
    on 5 supplier samples and 3 far probes; the oracle states the
    closed forms in SQL. The fitted-variogram pipeline keeps its
    pytest + the rows-only `kriging` query."""
    from .ops.interp import kriging_at

    smp = tpch.read_samples_table(sf_dir)
    order = np.argsort(smp["s_suppkey"].to_numpy())[:5]
    s5 = smp.take(pa.array(order, pa.int64()))
    far = [(-50.0, -50.0), (150.0, 123.0), (777.5, -3.25)]
    tids = np.array([1, 2, 3, 4, 5, 101, 102, 103], dtype=np.int64)
    cx = np.concatenate([s5["sx"].to_numpy(), [p[0] for p in far]])
    cy = np.concatenate([s5["sy"].to_numpy(), [p[1] for p in far]])
    targets = ray.data.from_arrow(
        pa.table({"tid": tids, "cx": cx, "cy": cy})
    )
    out = kriging_at(targets, s5, params=(0.0, 10.0, 1e-9))

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "tid": t["tid"],
                "krige_z": pa.array(
                    _round_away(
                        t["krige_z"].to_numpy(zero_copy_only=False), R6
                    )
                ),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


SQL_KRIGING_VERIFY = f"""
WITH smp AS ({tpch.SAMPLES_SQL}),
s5 AS (
  SELECT sx, sy, CAST(sz AS DOUBLE) AS sz,
         row_number() OVER (ORDER BY s_suppkey) AS tid
  FROM smp ORDER BY s_suppkey LIMIT 5),
m AS (SELECT avg(sz) AS mz FROM s5)
SELECT tid, round(sz, {R6}) AS krige_z FROM s5
UNION ALL
SELECT t.tid, round(m.mz, {R6}) AS krige_z
FROM (VALUES (101), (102), (103)) AS t(tid), m"""


def q_zonal_shp(sf_dir: str):
    """S6 via a REAL .shp/.dbf pair (sources/shp.py, the OGR-read
    restatement — src/lasclip.cpp:60-97): the rect zones are written
    as a shapefile fixture, parsed back into the WKB polygon table,
    and joined with the same zonal operator — same oracle as
    zonal_pairs, proving the binary ingestion end to end."""
    import os
    import tempfile

    from .ops import zonal as Z
    from .queries import RECT_POLYS
    from .sources.shp import read_shapefile, write_shapefile
    from .sources.wkb import read_polygon_table

    d = tempfile.mkdtemp(prefix="geotools_shp_")
    base = os.path.join(d, "zones")
    write_shapefile(
        base,
        [p.rings for p in RECT_POLYS],
        {
            "polygon_id": [p.polygon_id for p in RECT_POLYS],
            "name": [f"zone{p.polygon_id}" for p in RECT_POLYS],
        },
    )
    ptab = read_shapefile(base + ".shp")
    polys, attrs = read_polygon_table(ptab, attr_cols=("name",))
    assert [attrs.loc[p.polygon_id, "name"] for p in RECT_POLYS] == [
        f"zone{p.polygon_id}" for p in RECT_POLYS
    ]
    pts = tpch.read_points(sf_dir)
    return Z.zonal_join(pts, polys, keep_cols=("l_orderkey", "l_linenumber"))


def q_raster_correction(sf_dir: str):
    """R8 mosaic-graph diff correction: four class-filtered mean
    rasters (rid 0 = all points = the root), all-pairs overlap diff
    stats in one grouped shuffle, greedy max-count chains -> per-
    raster z shift (rows-only; chain semantics pytest-verified against
    a straight-line transcription)."""
    from .ops.mosaicgraph import raster_diff_correction
    from .ops.raster import tiles_multi_from_cellstats

    from .stages.grouped import grouped_map

    pts = tpch.read_points(sf_dir)
    res = 2.0
    b = compute_bounds(pts, res)
    cols = b.cols(res)
    rows = b.rows(res)

    # ONE pass: per-batch partial (cell, cls) sums -> one grouped
    # rollup pivots to the 4 mean columns (all/cls1/cls2/cls3);
    # integer z sums are exact, so the derived means are bit-identical
    # to 4 separate filtered grid_stats passes
    def partials(t: pa.Table) -> pa.Table:
        from .kernels.grid import cell_id_of_points

        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        z = t["z"].to_numpy(zero_copy_only=False)
        cls = t["cls"].to_numpy(zero_copy_only=False)
        cid = cell_id_of_points(x, y, b, res)
        key = cid * 4 + np.clip(cls, 0, 3)
        uniq, inv = np.unique(key, return_inverse=True)
        return pa.table(
            {
                "cell_id": (uniq // 4).astype(np.int64),
                "cls": (uniq % 4).astype(np.int64),
                "s": np.bincount(inv, weights=z),
                "n": np.bincount(inv).astype(np.int64),
            }
        )

    def rollup(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["cell_id", "cls"], sort=False)[["s", "n"]].sum().reset_index()
        piv_s = g.pivot_table(index="cell_id", columns="cls", values="s",
                              aggfunc="sum", fill_value=0.0)
        piv_n = g.pivot_table(index="cell_id", columns="cls", values="n",
                              aggfunc="sum", fill_value=0)
        out = {"cell_id": piv_s.index.to_numpy().astype(np.int64)}
        stot = piv_s.sum(axis=1).to_numpy()
        ntot = piv_n.sum(axis=1).to_numpy()
        out["m0"] = stot / ntot
        for c in (1, 2, 3):
            sc = piv_s[c].to_numpy() if c in piv_s else np.zeros(len(piv_s))
            nc = piv_n[c].to_numpy() if c in piv_n else np.zeros(len(piv_n), dtype=np.int64)
            with np.errstate(divide="ignore", invalid="ignore"):
                out[f"m{c}"] = np.where(nc > 0, sc / np.where(nc > 0, nc, 1), -9999.0)
        return pd.DataFrame(out)

    # consumed exactly once (tiles_multi_from_cellstats) — no pin
    stats = grouped_map(
        pts.map_batches(partials, batch_format="pyarrow"), ["cell_id"], rollup
    )

    # one co-tiled assembly for all four rasters (invalid cells carry
    # -9999 already = the nodata the old per-rid filter produced),
    # then a narrow local explode into the tagged rows the correction
    # graph expects — 4 shuffles + union collapse into 1 shuffle
    mt = tiles_multi_from_cellstats(stats, ["m0", "m1", "m2", "m3"], cols, rows, 16, dense=True)

    def explode(t: pa.Table) -> pa.Table:
        # zero-copy: one slice of column references per raster id
        parts = []
        for rid in (0, 1, 2, 3):
            parts.append(
                pa.table(
                    {
                        "trow": t["trow"], "tcol": t["tcol"],
                        "h": t["h"], "w": t["w"],
                        "data": t[f"data_m{rid}"],
                        "rid": pa.array(np.full(len(t), rid, dtype=np.int64)),
                    }
                )
            )
        return pa.concat_tables(parts)

    tagged = mt.map_batches(explode, batch_format="pyarrow")

    out = raster_diff_correction(tagged, root=0)
    out = out.copy()
    out["shift"] = _round_away(out["shift"].to_numpy(), 6)
    out["rid"] = out["rid"].astype(np.int64)
    return out


def q_natural_neighbour(sf_dir: str):
    """R5 Sibson natural-neighbour interpolation of sample z at cell
    centroids (rows-only — Voronoi area-stealing is not SQL-
    expressible; linear-precision + exactness are pytest-verified)."""
    from .ops.interp import natural_neighbour_at

    pts = tpch.read_points(sf_dir)
    b = compute_bounds(pts, RES)
    targets = ray.data.from_arrow(_all_cells_table(b, RES))
    smp = tpch.read_samples_table(sf_dir)
    out = natural_neighbour_at(targets, smp)

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell_id": t["cell_id"].to_numpy(zero_copy_only=False),
                "nn_z": _round_away(t["nn_z"].to_numpy(zero_copy_only=False), 4),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


def q_spill_points(sf_dir: str):
    """W5: spill points between flood basins — fully distributed:
    tile-local flood labels + label-graph union-find (pixels never
    leave their tasks), halo'd edge-cell detection, exactly-once
    bucketed pair join (J4 range-join pattern, src/flood.cpp:369-401).
    No driver dense grid anywhere."""
    from .ops.raster import flood_label_tiles, spill_points_tiles

    tiles, b, H, W = _mean_tiles(sf_dir)
    labels = flood_label_tiles(tiles, 20.0, H, W, 16)
    empty = pa.table(
        {c: pa.array([], pa.int64()) for c in ("id1", "c1", "r1", "id2", "c2", "r2")}
    ).append_column("dist", pa.array([], pa.float64()))
    if getattr(labels, "_gt_n_basins", None) == 0:
        # no basins at this elevation/sf: skip the edge/pair shuffles
        return ray.data.from_arrow(empty)
    sp = spill_points_tiles(labels, 4.0, H, W, 16)

    def fin(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("dist"), "dist",
            pa.array(_round_away(t["dist"].to_numpy(zero_copy_only=False), 6)),
        )

    # pin the schema even when zero pairs survive (a fully empty
    # grouped_map yields zero blocks -> schema-less dataset)
    return sp.map_batches(fin, batch_format="pyarrow").union(ray.data.from_arrow(empty))


def q_tin_interp(sf_dir: str):
    """W8: TIN interpolation of sample z at query points (per-sample
    Delaunay of the points within radius 2, barycentric z).  Candidate
    gathering reuses the chunked range join; the per-sample TIN is
    bounded to 300 deterministic points."""
    from .kernels.delaunay import interp_tin
    from .ops.neighbors import range_join
    from .stages.grouped import grouped_map

    import ray as _ray

    pts = tpch.read_points(sf_dir)
    smp = tpch.read_samples_table(sf_dir)
    sref = _ray.put(
        {
            int(k): (float(x), float(y))
            for k, x, y in zip(
                smp["s_suppkey"].to_numpy(zero_copy_only=False),
                smp["sx"].to_numpy(zero_copy_only=False),
                smp["sy"].to_numpy(zero_copy_only=False),
            )
        }
    )
    cand = range_join(pts, smp, radius=2.0, point_cols=("x", "y", "z"))

    def per_sample(df: pd.DataFrame) -> pd.DataFrame:
        pos = _ray.get(sref)
        rows = []
        for k, g in df.groupby("s_suppkey", sort=False):
            g = g.sort_values(["x", "y", "z"]).drop_duplicates(["x", "y"]).head(300)
            sx, sy = pos[int(k)]
            if len(g) >= 3:
                z = interp_tin(
                    np.array([sx]), np.array([sy]),
                    g[["x", "y"]].to_numpy(), g["z"].to_numpy(),
                )[0]
            else:
                z = np.nan
            rows.append({"s_suppkey": int(k),
                         "tin_z": float(_round_away(z, 4)) if not np.isnan(z) else -9999.0})
        return pd.DataFrame(rows, columns=["s_suppkey", "tin_z"])

    return grouped_map(cand, ["s_suppkey"], per_sample)


def q_tin_verify(sf_dir: str):
    """W8/M7 TIN kernel chain, hash-checked END-TO-END: Delaunay
    (kernels/delaunay.py Bowyer-Watson) + barycentric interpolation
    (interp_corners) of every sample against ONE bounded deterministic
    ground set — the same kernels q_tin_interp / q_normalize_height
    run per-sample/per-cell, here against a SQL oracle that enumerates
    the Delaunay triangles as empty-circumcircle triples and mirrors
    the interp arithmetic term-for-term.

    The ground points carry a deterministic integer-derived jitter:
    the raw derived x/y live on a 0.1 lattice whose cocircular
    degeneracy makes the Delaunay triangulation non-unique (either
    diagonal of a cocircular quad is valid, and engine vs oracle could
    legally pick different ones); the jitter puts the ground set in
    general position, where the triangulation is unique and equals
    exactly the set of triples with an empty open circumdisk. Ground
    size is capped by the orderkey predicate (l_orderkey % 53 = 0 AND
    l_orderkey <= 6000, first row per orderkey) — <= ~50 points at any
    sf, the broadcast-TIN pattern (tiny TIN via ray.put, queries
    streamed through map_batches). Reference semantics:
    interpolateTriangle src/lasvalidate.cpp:169-232,
    src/pointnormalize.cpp:126-152."""
    import pyarrow.compute as pc
    import ray as _ray

    from .kernels.delaunay import delaunay, interp_corners

    raw = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=tpch.LINEITEM_COLS,
        filter=(pc.field("l_orderkey") <= 6000) & (pc.field("l_linenumber") == 1),
    ).map_batches(tpch.derive_points_batch, batch_format="pyarrow")

    def gsel(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ok % 53 == 0
        return pa.table(
            {
                "k": ok[keep],
                "x": t["x"].to_numpy(zero_copy_only=False)[keep],
                "y": t["y"].to_numpy(zero_copy_only=False)[keep],
                "z": t["z"].to_numpy(zero_copy_only=False)[keep],
            }
        )

    # bounded collect (<= ~50 rows by the orderkey cap): duplicate
    # (l_orderkey, l_linenumber) rows exist in lineitem — canonicalize
    # to the first row per orderkey under (y, z) order, like the
    # oracle's ROW_NUMBER ... ORDER BY y, z
    g = raw.map_batches(gsel, batch_format="pyarrow").to_pandas()
    g = g.sort_values(["k", "y", "z"]).drop_duplicates("k").reset_index(drop=True)
    k = g["k"].to_numpy(np.int64)
    gx = g["x"].to_numpy() + ((k * 7919 + 104729) % 997) / 99700.0
    gy = g["y"].to_numpy() + ((k * 6211 + 20353) % 991) / 99100.0
    gz = g["z"].to_numpy().astype(np.float64)
    xy = np.column_stack([gx, gy])
    T = np.asarray(delaunay(xy), dtype=np.int64).reshape(-1, 3)
    ref = _ray.put((xy, gz, T))

    smp = tpch.read_samples_table(sf_dir)
    qds = ray.data.from_arrow(smp.select(["s_suppkey", "sx", "sy"]))

    def interp(t: pa.Table) -> pa.Table:
        xy, gz, T = _ray.get(ref)
        qx = t["sx"].to_numpy(zero_copy_only=False).astype(np.float64)
        qy = t["sy"].to_numpy(zero_copy_only=False).astype(np.float64)
        out = np.full(len(qx), np.nan)
        if len(T):
            interp_corners(
                qx, qy,
                xy[T[:, 0]], xy[T[:, 1]], xy[T[:, 2]],
                gz[T[:, 0]], gz[T[:, 1]], gz[T[:, 2]],
                out,
            )
        z = np.where(np.isnan(out), -9999.0, _round_away(out, 4))
        return pa.table({"s_suppkey": t["s_suppkey"], "tin_z": z})

    return qds.map_batches(interp, batch_format="pyarrow")


def _sq(p: str, q: str) -> str:
    """(p - q)^2 spelled out — DuckDB pow() round-trips through
    exp/log and is not exactly x*x."""
    return f"(({p}) - ({q})) * (({p}) - ({q}))"


SQL_TIN_VERIFY = f"""
WITH pts AS ({{PTS}}),
g0 AS (
  SELECT l_orderkey AS k, x, y, z,
         row_number() OVER (PARTITION BY l_orderkey ORDER BY y, z) AS rn
  FROM pts
  WHERE l_orderkey % 53 = 0 AND l_orderkey <= 6000 AND l_linenumber = 1),
g AS (
  SELECT k,
         x + ((k * 7919 + 104729) % 997) / 99700.0 AS gx,
         y + ((k * 6211 + 20353) % 991) / 99100.0 AS gy,
         z AS gz
  FROM g0 WHERE rn = 1),
tri AS (
  SELECT a.gx AS ax, a.gy AS ay, a.gz AS az,
         b.gx AS bx, b.gy AS b_y, b.gz AS bz,
         c.gx AS cx, c.gy AS cy, c.gz AS cz,
         (b.gy - c.gy) * (a.gx - c.gx) + (c.gx - b.gx) * (a.gy - c.gy) AS det
  FROM g a, g b, g c
  WHERE a.k < b.k AND b.k < c.k
    AND (b.gx - a.gx) * (c.gy - a.gy) - (b.gy - a.gy) * (c.gx - a.gx) <> 0
    AND NOT EXISTS (
      SELECT 1 FROM g d
      WHERE d.k <> a.k AND d.k <> b.k AND d.k <> c.k
        AND ((a.gx - d.gx) * ((b.gy - d.gy) * ({_sq('c.gx', 'd.gx')} + {_sq('c.gy', 'd.gy')})
                              - (c.gy - d.gy) * ({_sq('b.gx', 'd.gx')} + {_sq('b.gy', 'd.gy')}))
             - (a.gy - d.gy) * ((b.gx - d.gx) * ({_sq('c.gx', 'd.gx')} + {_sq('c.gy', 'd.gy')})
                                - (c.gx - d.gx) * ({_sq('b.gx', 'd.gx')} + {_sq('b.gy', 'd.gy')}))
             + ({_sq('a.gx', 'd.gx')} + {_sq('a.gy', 'd.gy')})
               * ((b.gx - d.gx) * (c.gy - d.gy) - (c.gx - d.gx) * (b.gy - d.gy)))
            * ((b.gx - a.gx) * (c.gy - a.gy) - (b.gy - a.gy) * (c.gx - a.gx)) > 0)),
smp AS ({{SAMPLES}}),
lam AS (
  SELECT s.s_suppkey,
         ((t.b_y - t.cy) * (s.sx - t.cx) + (t.cx - t.bx) * (s.sy - t.cy)) / t.det AS l1,
         ((t.cy - t.ay) * (s.sx - t.cx) + (t.ax - t.cx) * (s.sy - t.cy)) / t.det AS l2,
         t.az, t.bz, t.cz
  FROM smp s CROSS JOIN tri t),
hit AS (
  SELECT s_suppkey,
         round(l1 * az + l2 * bz + (1.0 - l1 - l2) * cz, 4) AS zi
  FROM lam
  WHERE l1 >= -1e-12 AND l2 >= -1e-12 AND (1.0 - l1 - l2) >= -1e-12)
SELECT s.s_suppkey, coalesce(min(h.zi), -9999.0) AS tin_z
FROM smp s LEFT JOIN hit h USING (s_suppkey)
GROUP BY s.s_suppkey"""

SQL_TIN_VERIFY = SQL_TIN_VERIFY.format(PTS=tpch.PTS_SQL, SAMPLES=tpch.SAMPLES_SQL)


def q_bbox_pruned(sf_dir: str):
    """J7: bbox predicate pushed to the parquet reader (row-group
    pruning) — verified against a plain SQL WHERE."""
    from ray.data.aggregate import Count, Sum

    import pyarrow.compute as pc

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_quantity"],
        filter=(pc.field("l_orderkey") >= 100) & (pc.field("l_orderkey") <= 2000),
    )
    agg = ds.aggregate(Count(), Sum("l_quantity"))
    return pd.DataFrame(
        {"n": [np.int64(agg["count()"])],
         "sum_qty": [float(_round_away(agg["sum(l_quantity)"], 6))]}
    )


SQL_BBOX_PRUNED = """
SELECT count(*) AS n, round(sum(l_quantity), 6) AS sum_qty
FROM lineitem WHERE l_orderkey >= 100 AND l_orderkey <= 2000"""


def q_knn_cellring(sf_dir: str):
    """J9 scale path: kNN via lockstep cell-ring expansion over the
    ACTOR-SHARDED cell index (ST3 — streaming build, batched per-ring
    RPCs) — oracle-checked against the same SQL as the broadcast kNN."""
    from .kernels.grid import Bounds
    from .ops.celljoin import build_sharded_cell_index, knn_cell_ring_sharded

    pts = tpch.read_points(sf_dir)
    smp = tpch.read_samples_table(sf_dir)
    idx = build_sharded_cell_index(
        pts, res=5.0, bounds=Bounds(0.0, 0.0, 100.0, 100.0), num_shards=16
    )
    qds = ray.data.from_arrow(smp)
    out = knn_cell_ring_sharded(qds, idx, k=5)

    def fin(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("dist")
        return t.set_column(
            i, "dist", pa.array(_round_away(t["dist"].to_numpy(zero_copy_only=False), R6))
        )

    return out.map_batches(fin, batch_format="pyarrow")


def q_range_join_cells(sf_dir: str):
    """J4 scale path: large-large cell-bucketed range join — same SQL
    oracle as the broadcast range join."""
    from .kernels.grid import Bounds
    from .ops.celljoin import range_join_cells

    pts = tpch.read_points(sf_dir)
    smp = tpch.read_samples_table(sf_dir)
    right = ray.data.from_arrow(
        pa.table({"s_suppkey": smp["s_suppkey"], "rx": smp["sx"], "ry": smp["sy"]})
    )
    out = range_join_cells(pts, right, radius=4.0, bounds=Bounds(0.0, 0.0, 100.0, 100.0))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["dist"] = _round_away(df["dist"].to_numpy(), R6)
        return df

    return out.map_batches(fin, batch_format="pandas")


def q_kriging(sf_dir: str):
    """R6 simple kriging of sample z at cell centroids (batch
    variogram fit; rows-only — kriging exactness is pytest-verified)."""
    from .ops.interp import kriging_at

    pts = tpch.read_points(sf_dir)
    b = compute_bounds(pts, RES)
    targets = ray.data.from_arrow(_all_cells_table(b, RES))
    smp = tpch.read_samples_table(sf_dir)
    out = kriging_at(targets, smp)

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell_id": t["cell_id"].to_numpy(zero_copy_only=False),
                "krige_z": _round_away(t["krige_z"].to_numpy(zero_copy_only=False), 4),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


def q_flood_sweep(sf_dir: str):
    """R10: the flood tool's elevation sweep — every elevation's local
    labeling runs inside the tile tasks (one pass over the tiles)."""
    from .ops.raster import flood_basins_tiles

    tiles, b, H, W = _mean_tiles(sf_dir)
    basins = flood_basins_tiles(tiles, [15.0, 20.0, 25.0, 30.0], H, W, 16)
    basins = basins.copy()
    basins["elevation"] = _round_away(basins["elevation"].to_numpy(), 4)
    return basins


def q_rastfit(sf_dir: str):
    """R7: fit a correction surface between the mean and median
    rasters and apply it — fully distributed: the diff samples are a
    hash-ranked sort+limit over the CELL table (tiny), the IDW
    correction evaluates per batch, the checksum is an aggregate. No
    dense raster anywhere (src/rastfit.cpp:148-197)."""
    from ray.data.aggregate import Count, Sum

    from .ops.interp import idw_at
    from .queries_raster_sql import RASTFIT_N

    pts = tpch.read_points(sf_dir)
    res = 2.0
    b = compute_bounds(pts, res)
    stats = grid_stats(
        pts, GridConfig(res=res, bounds=b, stats=("mean", "median"), strategy="exact")
    ).materialize()
    cols = b.cols(res)

    def keyed(t: pa.Table) -> pa.Table:
        cid = t["cell_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "cell_id": cid,
                "cx": (cid % cols).astype(np.float64),
                "cy": (cid // cols).astype(np.float64),
                "mean": t["mean"],
                "diff": t["mean"].to_numpy(zero_copy_only=False)
                - t["median"].to_numpy(zero_copy_only=False),
                "hkey": (cid * 2654435761) % 4294967296,
            }
        )

    cellds = stats.map_batches(keyed, batch_format="pyarrow")
    smp_df = cellds.sort(["hkey", "cell_id"]).limit(RASTFIT_N).to_pandas()
    samples = pa.table(
        {
            "sx": smp_df["cx"].to_numpy(),
            "sy": smp_df["cy"].to_numpy(),
            "sz": smp_df["diff"].to_numpy(),
        }
    )
    corr = idw_at(cellds, samples, exponent=1.0, exact_hits=True)

    def corrected(t: pa.Table) -> pa.Table:
        cv = t["mean"].to_numpy(zero_copy_only=False) - t["idw_z"].to_numpy(
            zero_copy_only=False
        )
        return pa.table({"cv": cv})

    agg = corr.map_batches(corrected, batch_format="pyarrow").aggregate(
        Count(), Sum("cv")
    )
    return pd.DataFrame(
        {
            "n_valid": [np.int64(agg["count()"])],
            "checksum": [float(_round_away(agg["sum(cv)"], 4))],
        }
    )
