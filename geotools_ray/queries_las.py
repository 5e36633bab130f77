"""LAS round-trip query + DuckDB oracle (S1/S2 in the flesh).

`las_grid` proves the whole binary source end-to-end: the lineitem-
derived point cloud is written to real .las tiles (point format 1,
scale 0.1/0.1/0.01 — conventional cm-class LAS quantization), read
back through sources/las.read_las (header parse on the driver,
chunked record decode in Ray tasks), and aggregated with the SAME
grid_stats operator and output shape as queries.q_grid_stats.

The oracle must model LAS quantization explicitly — int32 storage
means x' = round(x/scale)*scale, and pretending floats survive a LAS
round trip would make the comparison depend on 1-ulp luck at cell
boundaries. The SQL pts CTE therefore applies the IDENTICAL
round-then-multiply (same IEEE ops DuckDB and numpy both execute), so
Ray and DuckDB agree bit-for-bit by construction.

Reference anchors: include/lasreader.hpp:17-160 (batched reads),
src/laspoint.cpp:124-243 (field decode + scale apply).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from . import queries as Q
from .ops.gridstats import GridConfig, grid_stats
from .sources.las import read_las, write_las
from .stages import tpch

_SCALE = (0.1, 0.1, 0.01)
_FILES = 4  # fixture tiles (one read chunk each at fixture sizes)


def _las_fixture_dir(sf_dir: str) -> str:
    """Write the derived point cloud as .las tiles once per sf tier
    (atomic dir publish, same crash-safe pattern as the bench cache)."""
    import shutil

    tier = os.path.basename(os.path.normpath(sf_dir))
    d = f"/tmp/geotools_ray_oracle/las_{tier}_v1"
    done = os.path.join(d, "_DONE")
    if os.path.exists(done):
        return d
    pts = tpch.read_points(sf_dir).select_columns(
        ["x", "y", "z", "intensity", "cls", "return_num", "num_returns", "scan_angle"]
    )
    tb = pa.concat_tables(
        list(pts.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    tmp = f"{d}.tmp.{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    n = len(tb)
    per = -(-n // _FILES)
    for i in range(_FILES):
        part = tb.slice(i * per, per)
        if len(part):
            write_las(
                part, os.path.join(tmp, f"tile{i}.las"),
                point_format=1, scale=_SCALE,
            )
    with open(os.path.join(tmp, "_DONE"), "w"):
        pass
    if os.path.isdir(d) and not os.path.exists(done):
        shutil.rmtree(d)
    try:
        os.rename(tmp, d)
    except OSError:
        shutil.rmtree(tmp)  # another process won the race
    return d


def q_las_grid(sf_dir: str):
    d = _las_fixture_dir(sf_dir)
    pts = read_las(d, chunk_points=250_000)
    out = grid_stats(
        pts, GridConfig(res=Q.RES, stats=("count", "min", "max", "mean", "density"))
    )

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell_id": t["cell_id"].to_numpy(zero_copy_only=False),
                "n": t["count"].to_numpy(zero_copy_only=False).astype(np.int64),
                "min_z": t["min"].to_numpy(zero_copy_only=False),
                "max_z": t["max"].to_numpy(zero_copy_only=False),
                "mean_z": Q._round_away(t["mean"].to_numpy(zero_copy_only=False), Q.R6),
                "density": Q._round_away(
                    t["density"].to_numpy(zero_copy_only=False), Q.R6
                ),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


def _quant(expr: str, scale: float) -> str:
    """The LAS round trip in SQL: round((v-0)/s) stored as int32, read
    back as int*s + 0 — identical op order to write_las/_chunk_to_table.
    round_even, not round: write_las quantizes with np.round, which
    rounds .5 ties to even where DuckDB's round goes away from zero."""
    # (expr)/scale via multiply-by-inverse would NOT match numpy's
    # division; write the literal division DuckDB evaluates the same way
    return f"CAST(round_even(({expr}) / {scale!r}, 0) AS BIGINT) * {scale!r}"


SQL_LAS_GRID = f"""
WITH raw AS ({tpch.PTS_SQL}),
pts AS (
  SELECT {_quant('x', _SCALE[0])} AS x,
         {_quant('y', _SCALE[1])} AS y,
         {_quant('CAST(z AS DOUBLE)', _SCALE[2])} AS z
  FROM raw),
b AS (
  SELECT floor(min(x)/{Q.RES})*{Q.RES} AS minx, floor(min(y)/{Q.RES})*{Q.RES} AS miny,
         floor(max(x)/{Q.RES})*{Q.RES}+{Q.RES} AS maxx, floor(max(y)/{Q.RES})*{Q.RES}+{Q.RES} AS maxy
  FROM pts),
g AS (
  SELECT greatest(1, CAST(ceil((maxx-minx)/{Q.RES}) AS BIGINT)) AS ncols,
         greatest(1, CAST(ceil((maxy-miny)/{Q.RES}) AS BIGINT)) AS nrows,
         minx, miny FROM b),
cells AS (
  SELECT (g.nrows - CAST(floor((p.y-g.miny)/{Q.RES}) AS BIGINT) - 1)*g.ncols
         + CAST(floor((p.x-g.minx)/{Q.RES}) AS BIGINT) AS cell_id, p.*
  FROM pts p, g)
SELECT cell_id, count(*) AS n, min(z) AS min_z, max(z) AS max_z,
       round(avg(z), {Q.R6}) AS mean_z,
       round(count(*)/({Q.RES}*{Q.RES}), {Q.R6}) AS density
FROM cells GROUP BY cell_id"""
