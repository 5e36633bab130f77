"""Grid/cell statistics pipeline — the Ray Data restatement of
`pointstats`/`lasgrid` (reference src/pointstats.cpp:274-379,
src/lasgrid.cpp:153-487):

    read -> map_batches(filter + cell assign [+ radius window])
         -> per-cell aggregate -> (optional) tile assembly

Two execution strategies:
  - "partial": per-batch partial aggregation (one row per cell per
    batch: n/sum/sumsq/min/max) followed by a small groupby over the
    partials.  Scales to arbitrarily skewed cells — the shuffle moves
    O(#cells x #blocks) rows, not O(#points). Algebraic stats only.
  - "exact": shuffle raw per-cell values and run the reference's exact
    kernels per group (median / quantiles / skew / kurtosis / gap
    fractions need the full value list).  This is what the golden
    tests compare bit-for-bit.
"auto" picks "partial" when every requested stat is algebraic.

Statefulness: none — bounds are computed by a tiny min/max aggregate
(the analog of FinalizedPointStream's pass 1,
src/finalizedpointstream.cpp:24-52) and closed over by the stage fns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..kernels import stats as K
from ..kernels.grid import Bounds, cell_centroids, cell_id_of_points, radius_cells_of_points

ALGEBRAIC = {"count", "min", "max", "mean", "density", "variance", "stddev", "pvariance", "pstddev"}


@dataclass(frozen=True)
class GridConfig:
    res: float
    radius: float = 0.0
    bounds: Bounds | None = None
    stats: tuple[str, ...] = ("count", "min", "max", "mean")
    class_filter: frozenset | None = None   # M1: keep cls in set (src/lasgrid.cpp:290-292)
    angle_limit: int | None = None          # M2: |scan_angle| <= limit (src/lasgrid.cpp:281-282)
    quantiles: int = 4                      # num for qN stats (n+2 values semantics)
    value_col: str = "z"
    strategy: str = "auto"
    salt_hot: bool = False  # exact path: probe for hot cells and salt them


_BOUNDS_CACHE: dict = {}  # (id(ds), res) -> (weakref to ds, Bounds)


def compute_bounds(points: ray.data.Dataset, res: float) -> Bounds:
    """Data-driven snapped bounds (pass 1 of the reference). Cached per
    dataset object: the bench sweep shares ONE materialized points
    table across ~40 queries, each of which needs the same bounds.
    Entries hold WEAK references, so dead pipelines' (possibly
    materialized, object-store-backed) datasets are not pinned by the
    cache and a recycled id() cannot produce a stale hit."""
    import weakref

    key = (id(points), res)
    hit = _BOUNDS_CACHE.get(key)
    if hit is not None and hit[0]() is points:
        return hit[1]
    agg = points.aggregate(Min("x"), Max("x"), Min("y"), Max("y"))
    if agg is None:  # ray returns None for an empty dataset
        raise ValueError("compute_bounds: points dataset is empty")
    b = Bounds(agg["min(x)"], agg["min(y)"], agg["max(x)"], agg["max(y)"]).snap(res)
    if len(_BOUNDS_CACHE) > 64:
        for k in [k for k, v in _BOUNDS_CACHE.items() if v[0]() is None]:
            del _BOUNDS_CACHE[k]
    _BOUNDS_CACHE[key] = (weakref.ref(points), b)
    return b


def _apply_filters(t: pa.Table, cfg: GridConfig, b: Bounds, skip_class: bool = False):
    mask = np.ones(len(t), dtype=bool)
    if cfg.class_filter is not None and not skip_class:
        cls = t["cls"].to_numpy(zero_copy_only=False)
        mask &= np.isin(cls, list(cfg.class_filter))
    if cfg.angle_limit is not None:
        ang = t["scan_angle"].to_numpy(zero_copy_only=False)
        mask &= np.abs(ang) <= cfg.angle_limit
    x = t["x"].to_numpy(zero_copy_only=False)
    y = t["y"].to_numpy(zero_copy_only=False)
    mask &= b.contains(x, y)
    return t.filter(pa.array(mask)) if not mask.all() else t


def assign_cells(points: ray.data.Dataset, cfg: GridConfig, b: Bounds,
                 keep_cols: tuple[str, ...] = (),
                 defer_class: bool = False) -> ray.data.Dataset:
    """filter + cell-id column (radius window flat-maps a point into
    every cell whose centroid is within radius — R1 semantics).

    defer_class=True keeps class-filtered rows with a `keep` flag
    instead of dropping them — the reference's kurtosis divides by the
    UNFILTERED per-cell count (cellstats.hpp:356), which is lost once
    the rows are gone."""

    def fn(t: pa.Table) -> pa.Table:
        t = _apply_filters(t, cfg, b, skip_class=defer_class)
        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        keep = None
        if defer_class and cfg.class_filter is not None:
            cls = t["cls"].to_numpy(zero_copy_only=False)
            keep = np.isin(cls, list(cfg.class_filter)).astype(np.int8)
        if cfg.radius == 0.0:
            cid = cell_id_of_points(x, y, b, cfg.res)
            # a point exactly on the closed-interval maxx/maxy boundary
            # gets col==cols / row==rows; the reference's clamped cell
            # window drops it (lasgrid.cpp:308-310) — unclamped it
            # would wrap into a wrong cell id
            cols_g, rows_g = b.cols(cfg.res), b.rows(cfg.res)
            col = np.floor((x - b.minx) / cfg.res)
            row = np.floor((y - b.miny) / cfg.res)
            ok = (col >= 0) & (col < cols_g) & (row >= 0) & (row < rows_g)
            if not ok.all():
                t = t.filter(pa.array(ok))
                cid = cid[ok]
                if keep is not None:
                    keep = keep[ok]
            cols = {"cell_id": cid, "v": t[cfg.value_col].to_numpy(zero_copy_only=False)}
            for c in keep_cols:
                cols[c] = t[c].to_numpy(zero_copy_only=False)
            if keep is not None:
                cols["keep"] = keep
        else:
            pi, cid = radius_cells_of_points(x, y, b, cfg.res, cfg.radius)
            v = t[cfg.value_col].to_numpy(zero_copy_only=False)
            cols = {"cell_id": cid, "v": v[pi]}
            for c in keep_cols:
                cols[c] = t[c].to_numpy(zero_copy_only=False)[pi]
            if keep is not None:
                cols["keep"] = keep[pi]
        return pa.table(cols)

    return points.map_batches(fn, batch_format="pyarrow")


def _partial_agg(t: pa.Table) -> pa.Table:
    """Per-batch combiner: one row per cell with n/sum/sumsq/min/max."""
    cid = t["cell_id"].to_numpy(zero_copy_only=False)
    v = t["v"].to_numpy(zero_copy_only=False).astype(np.float64)
    uniq, inv = np.unique(cid, return_inverse=True)
    n = np.bincount(inv)
    s = np.bincount(inv, weights=v)
    ss = np.bincount(inv, weights=v * v)
    mn = np.full(len(uniq), np.inf)
    np.minimum.at(mn, inv, v)
    mx = np.full(len(uniq), -np.inf)
    np.maximum.at(mx, inv, v)
    return pa.table(
        {"cell_id": uniq, "pn": n.astype(np.int64), "ps": s, "pss": ss, "pmn": mn, "pmx": mx}
    )


def grid_stats(points: ray.data.Dataset, cfg: GridConfig) -> ray.data.Dataset:
    """-> Dataset(cell_id, col, row, n?, <stat cols>) — empty cells are
    absent (the raster-assembly op materializes nodata)."""
    b = cfg.bounds or compute_bounds(points, cfg.res)
    strategy = cfg.strategy
    if strategy == "auto":
        strategy = "partial" if all(s in ALGEBRAIC for s in cfg.stats) else "exact"
    # kurtosis + class filter: the reference divides by the UNFILTERED
    # per-cell count (cellstats.hpp:356) — carry the dropped rows as a
    # keep flag so the exact kernels can see both counts
    quirk = (
        strategy == "exact"
        and "kurtosis" in cfg.stats
        and cfg.class_filter is not None
    )
    cells = assign_cells(points, cfg, b, defer_class=quirk)
    cell_area = cfg.res * cfg.res

    if strategy == "partial":
        partials = cells.map_batches(_partial_agg, batch_format="pyarrow")
        agg = partials.groupby("cell_id").aggregate(
            Sum("pn", alias_name="n"),
            Sum("ps", alias_name="s"),
            Sum("pss", alias_name="ss"),
            Min("pmn", alias_name="mn"),
            Max("pmx", alias_name="mx"),
        )

        def finalize(t: pa.Table) -> pa.Table:
            n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
            s = t["s"].to_numpy(zero_copy_only=False)
            ss = t["ss"].to_numpy(zero_copy_only=False)
            out = {"cell_id": t["cell_id"].to_numpy(zero_copy_only=False)}
            mean = s / n
            for st in cfg.stats:
                if st == "count":
                    out["count"] = n
                elif st == "min":
                    out["min"] = t["mn"].to_numpy(zero_copy_only=False)
                elif st == "max":
                    out["max"] = t["mx"].to_numpy(zero_copy_only=False)
                elif st == "mean":
                    out["mean"] = mean
                elif st == "density":
                    out["density"] = n / cell_area
                elif st in ("variance", "stddev", "pvariance", "pstddev"):
                    m2 = np.maximum(ss - n * mean * mean, 0.0)
                    denom = (n - 1) if st in ("variance", "stddev") else n
                    with np.errstate(divide="ignore", invalid="ignore"):
                        var = np.where(denom > 0, m2 / np.where(denom > 0, denom, 1), np.nan)
                    out[st] = np.sqrt(var) if st.endswith("stddev") else var
            return pa.table(out)

        return agg.map_batches(finalize, batch_format="pyarrow")

    # exact path: raw values per cell through ONE hash-partitioned
    # shuffle (grouped_map); the per-cell kernel loop runs inside each
    # partition — Python dispatch per partition, not per key
    stats = cfg.stats
    qn = cfg.quantiles

    from ..stages.grouped import grouped_map, salted_grouped_map

    def _finalize_rows(cids, values, unf=None) -> pd.DataFrame:
        rows: dict[str, list] = {"cell_id": []}
        for st in stats:
            rows[st] = []
        for gi, (cid, v) in enumerate(zip(cids, values)):
            rows["cell_id"].append(cid)
            for st in stats:
                if st.startswith("q") and st[1:].isdigit():
                    rows[st].append(K.ref_quantile(v, int(st[1:]), qn))
                elif st == "density":
                    rows[st].append(K.ref_density(v, cell_area))
                elif st == "kurtosis":
                    rows[st].append(
                        K.ref_kurtosis(v, unf[gi] if unf is not None else None)
                    )
                else:
                    rows[st].append(K.STAT_KERNELS[st](v))
        return pd.DataFrame(rows)

    if not cfg.salt_hot:

        def per_part(df: pd.DataFrame) -> pd.DataFrame:
            groups = list(df.groupby("cell_id", sort=False))
            if not quirk:
                return _finalize_rows(
                    [cid for cid, _ in groups],
                    [g["v"].to_numpy(dtype=np.float64) for _, g in groups],
                )
            cids, vals, unf = [], [], []
            for cid, g in groups:
                k = g["keep"].to_numpy().astype(bool)
                if not k.any():
                    continue  # no filtered points: cell absent (nodata)
                cids.append(cid)
                vals.append(g["v"].to_numpy(dtype=np.float64)[k])
                unf.append(len(g))
            return _finalize_rows(cids, vals, unf)

        return grouped_map(cells, ["cell_id"], per_part)

    # skew-salted exact path (north_rule: hot cells are salted and
    # split): salted_grouped_map flags cells holding more than one
    # partition's share of the rows; their raw values shuffle under
    # (cell_id, salt) so no phase-1 partition holds a whole hot cell,
    # then the per-cell exact kernels run on the re-merged (sorted)
    # values. The exact kernels need the full value multiset, so a hot
    # cell's bytes still meet in its phase-2 merge task — but that task
    # holds ONE cell, not a partition's worth, and every algebraic stat
    # should use the 'partial' strategy instead (skew-free by design).

    def chunk(df: pd.DataFrame) -> pd.DataFrame:
        groups = list(df.groupby(["cell_id", "_salt"], sort=False))
        cids = [cid for (cid, _s), _ in groups]
        if not quirk:
            return pd.DataFrame(
                {
                    "cell_id": cids,
                    # no per-chunk sort: merge() re-sorts the full
                    # concatenation anyway, so phase-1 ordering is wasted
                    "vals": [g["v"].to_numpy(dtype=np.float64) for _, g in groups],
                    "unf": np.zeros(len(cids), dtype=np.int64),
                }
            )
        vals, unf = [], []
        for _, g in groups:
            k = g["keep"].to_numpy().astype(bool)
            vals.append(g["v"].to_numpy(dtype=np.float64)[k])
            unf.append(len(g))
        return pd.DataFrame({"cell_id": cids, "vals": vals, "unf": unf})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        groups = list(df.groupby("cell_id", sort=False))
        cids, vals, unf = [], [], []
        for cid, g in groups:
            v = np.sort(
                np.concatenate([np.asarray(a, dtype=np.float64) for a in g["vals"]])
            )
            if quirk and not len(v):
                continue  # no filtered points: cell absent (nodata)
            cids.append(cid)
            vals.append(v)
            unf.append(int(g["unf"].sum()))
        return _finalize_rows(cids, vals, unf if quirk else None)

    return salted_grouped_map(cells, ["cell_id"], chunk, merge)


def add_cell_coords(stats_ds: ray.data.Dataset, b: Bounds, res: float) -> ray.data.Dataset:
    """Append col / row / centroid columns for export."""
    cols = b.cols(res)
    rows = b.rows(res)

    def fn(t: pa.Table) -> pa.Table:
        cid = t["cell_id"].to_numpy(zero_copy_only=False)
        cx, cy = cell_centroids(cid, b, res)
        return (
            t.append_column("col", pa.array(cid % cols))
            .append_column("row", pa.array(cid // cols))
            .append_column("cx", pa.array(cx))
            .append_column("cy", pa.array(cy))
        )

    return stats_ds.map_batches(fn, batch_format="pyarrow")
