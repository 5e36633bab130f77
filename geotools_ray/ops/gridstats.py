"""Grid/cell statistics pipeline — the Ray Data restatement of
`pointstats`/`lasgrid` (reference src/pointstats.cpp:274-379,
src/lasgrid.cpp:153-487):

    read -> map_batches(filter + cell assign [+ radius window])
         -> per-cell aggregate -> (optional) tile assembly

Two strategies, each reducing in numpy inside grouped_map partitions:
  - "partial": per-batch partials (one row per cell per batch:
    n/sum/sumsq/min/max) combined with np.bincount.  Skew-proof: the
    shuffle moves O(#cells x #blocks) rows. Algebraic stats only.
  - "exact": raw values shuffle; one stable sort cuts a partition into
    per-cell runs (_runs) for the reference's exact kernels (median /
    quantiles / skew / kurtosis need the full value list).  This is
    what the golden tests compare bit-for-bit.
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
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Max, Min

from ..kernels import stats as K
from ..kernels.grid import Bounds, cell_id_of_points, radius_cells_of_points

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
    dataset object, for a caller that passes one materialized points
    dataset to several grid_stats calls: perfbench's traced LiDAR split
    (`trace.lidar_staged` times this pass, then its partial and exact
    runs hit, so their times exclude it) and `Lidar.warmup`. Queries
    build a fresh dataset per call and never hit.
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


def _col(t: pa.Table, name: str) -> np.ndarray:
    return t[name].to_numpy(zero_copy_only=False)


def _cell_sums(cell_id, n, s, ss, mn, mx) -> dict:
    """One row per distinct cell: n / s / ss summed in row order, mn /
    mx the least / greatest."""
    uniq, inv = np.unique(cell_id, return_inverse=True)
    lo, hi = np.full(len(uniq), np.inf), np.full(len(uniq), -np.inf)
    np.minimum.at(lo, inv, mn)
    np.maximum.at(hi, inv, mx)
    n, s, ss = (np.bincount(inv, weights=w, minlength=len(uniq)) for w in (n, s, ss))
    return {"cell_id": uniq, "n": n, "s": s, "ss": ss, "mn": lo, "mx": hi}


def _partial_agg(t: pa.Table) -> pa.Table:
    """Per-batch combiner: one row per cell with n/sum/sumsq/min/max."""
    v = _col(t, "v").astype(np.float64)
    return pa.table(_cell_sums(_col(t, "cell_id"), np.ones(len(v)), v, v * v, v, v))


def _runs(t: pa.Table, keys: list[str]):
    """Rows of `t` stably sorted by `keys` (np.lexsort; over one key it
    is the stable argsort) and cut where any key changes -> (each run's
    keys, value offsets, float64 "v" values, run lengths): run i's
    values are values[off[i]:off[i+1]], in row order. With a "keep"
    column the values hold only the kept rows, so a run's value slice
    may be empty while its length counts every row."""
    ks = [_col(t, k) for k in keys]
    order = np.lexsort(ks[::-1])
    ks = [k[order] for k in ks]
    new = np.zeros(len(order), dtype=bool)  # row starts a run
    new[:1] = True
    for k in ks:
        new[1:] |= k[1:] != k[:-1]
    heads = np.flatnonzero(new)
    bounds = off = np.append(heads, len(order))
    vs = np.asarray(_col(t, "v"), dtype=np.float64)[order]
    if "keep" in t.column_names:
        kept = _col(t, "keep")[order].astype(bool)
        off, vs = np.append(0, np.cumsum(kept))[bounds], vs[kept]
    return [k[heads] for k in ks], off, vs, np.diff(bounds)


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
    quirk = strategy == "exact" and "kurtosis" in cfg.stats and cfg.class_filter is not None
    cells = assign_cells(points, cfg, b, defer_class=quirk)
    cell_area = cfg.res * cfg.res

    from ..stages.grouped import grouped_map, salted_grouped_map

    if strategy == "partial":

        def combine(t: pa.Table) -> pa.Table:
            p = _cell_sums(*(_col(t, c) for c in ("cell_id", "n", "s", "ss", "mn", "mx")))
            n, s, ss = p["n"], p["s"], p["ss"]
            out = {"cell_id": p["cell_id"]}
            mean = s / n
            for st in cfg.stats:
                if st == "count":
                    out["count"] = n
                elif st == "min":
                    out["min"] = p["mn"]
                elif st == "max":
                    out["max"] = p["mx"]
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

        partials = cells.map_batches(_partial_agg, batch_format="pyarrow")
        return grouped_map(partials, ["cell_id"], combine, batch_format="pyarrow")

    # exact path: raw values per cell through ONE hash-partitioned
    # shuffle (grouped_map); each partition is cut into per-cell runs by
    # one stable sort (_runs) and the kernel loop runs per cell —
    # Python dispatch per partition and per cell, no per-group frames
    stats = cfg.stats
    qn = cfg.quantiles

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

    def finish(cids, off, vals, unf, sort: bool) -> pd.DataFrame:
        runs = [vals[i:j] for i, j in zip(off[:-1], off[1:])]
        if sort:
            runs = [np.sort(r) for r in runs]
        if not quirk:
            return _finalize_rows(cids, runs)
        has = np.diff(off) > 0  # no filtered points: cell absent (nodata)
        return _finalize_rows(cids[has], [r for r, h in zip(runs, has) if h], unf[has])

    if not cfg.salt_hot:

        def per_part(t: pa.Table) -> pd.DataFrame:
            (cids,), off, vals, n = _runs(t, ["cell_id"])
            return finish(cids, off, vals, n, sort=False)

        return grouped_map(cells, ["cell_id"], per_part, batch_format="pyarrow")

    # skew-salted exact path (north_rule: hot cells are salted and
    # split): salted_grouped_map flags cells holding more than one
    # partition's share of the rows; their raw values shuffle under
    # (cell_id, salt) so no phase-1 partition holds a whole hot cell,
    # then the per-cell exact kernels run on the re-merged (sorted)
    # values. The exact kernels need the full value multiset, so a hot
    # cell's bytes still meet in its phase-2 merge task — but that task
    # holds ONE cell, not a partition's worth, and every algebraic stat
    # should use the 'partial' strategy instead (skew-free by design).

    def chunk(t: pa.Table) -> pa.Table:
        # one list<double> row per (cell, salt) run, unsorted (merge
        # sorts); int64 offsets, so a partition may pass 2^31 values
        (cids, _), off, vals, n = _runs(t, ["cell_id", "_salt"])
        runs = pa.LargeListArray.from_arrays(pa.array(off, pa.int64()), pa.array(vals))
        return pa.table({"cell_id": cids, "vals": runs, "unf": n})

    def merge(t: pa.Table) -> pd.DataFrame:
        lens = pc.list_value_length(t["vals"]).to_numpy(zero_copy_only=False)
        flat = pa.table({"cell_id": np.repeat(_col(t, "cell_id"), lens),
                         "v": pc.list_flatten(t["vals"])})
        (cids,), off, vals, _ = _runs(flat, ["cell_id"])
        unf = None
        if quirk:  # per-cell sum of the phase-1 unfiltered counts
            uniq, inv = np.unique(_col(t, "cell_id"), return_inverse=True)
            tot = np.bincount(inv, weights=_col(t, "unf"))
            unf = tot[np.searchsorted(uniq, cids)].astype(np.int64)
        return finish(cids, off, vals, unf, sort=True)

    return salted_grouped_map(cells, ["cell_id"], chunk, merge, batch_format="pyarrow")
