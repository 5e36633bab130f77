"""grid_stats against straight-line per-cell oracles.

Exact path: the unsalted output equals the reference kernels run on
each cell's values in row order, bit for bit; the salted output equals
them run on each cell's sorted values (the merge re-sorts the salted
runs). Partial path: every algebraic stat matches numpy."""

import numpy as np
import pyarrow as pa
import pytest

EXACT = ("count", "min", "max", "mean", "median", "variance", "stddev",
         "pvariance", "pstddev", "skew", "kurtosis", "density", "q1", "q2", "q3")


def _points(seed, n_cold, hot_n, cells, hot_cell=(0, 0), one_point=None):
    """Points on a cells x cells grid at res 1: n_cold spread out,
    hot_n in one cell, plus one lone point at `one_point` (x, y)."""
    rng = np.random.RandomState(seed)
    x = [rng.uniform(0, cells, n_cold), hot_cell[0] + rng.uniform(0, 1, hot_n)]
    y = [rng.uniform(0, cells, n_cold), hot_cell[1] + rng.uniform(0, 1, hot_n)]
    if one_point is not None:
        # keep every other point out of the lone point's cell
        inside = [(np.floor(a) == one_point[0]) & (np.floor(b) == one_point[1])
                  for a, b in zip(x, y)]
        x = [a[~m] for a, m in zip(x, inside)] + [np.array([one_point[0] + 0.5])]
        y = [b[~m] for b, m in zip(y, inside)] + [np.array([one_point[1] + 0.5])]
    x, y = np.concatenate(x), np.concatenate(y)
    return pa.table({"x": x, "y": y, "z": rng.uniform(0, 30, len(x)),
                     "cls": rng.randint(1, 4, len(x)).astype(np.int64)})


def _cfg(cells, **kw):
    from geotools_ray.kernels.grid import Bounds
    from geotools_ray.ops.gridstats import GridConfig

    return GridConfig(res=1.0, bounds=Bounds(0.0, 0.0, float(cells), float(cells)), **kw)


def _oracle(t: pa.Table, cfg, sort: bool):
    """cell_id -> {stat: value}, one kernel call per cell and stat."""
    from geotools_ray.kernels import stats as K
    from geotools_ray.kernels.grid import cell_id_of_points

    x, y, z = (t[c].to_numpy() for c in ("x", "y", "z"))
    cid = cell_id_of_points(x, y, cfg.bounds, cfg.res)
    kept = np.ones(len(z), dtype=bool)
    if cfg.class_filter is not None:
        kept = np.isin(t["cls"].to_numpy(), list(cfg.class_filter))
    out = {}
    for c in np.unique(cid):
        v = z[(cid == c) & kept]
        if not len(v):
            continue  # no filtered point: the cell is absent
        if sort:
            v = np.sort(v)
        unf = int((cid == c).sum()) if cfg.class_filter is not None else None
        row = {}
        for st in cfg.stats:
            if st in ("q1", "q2", "q3"):
                row[st] = K.ref_quantile(v, int(st[1:]), cfg.quantiles)
            elif st == "density":
                row[st] = K.ref_density(v, cfg.res * cfg.res)
            elif st == "kurtosis":
                row[st] = K.ref_kurtosis(v, unf)
            else:
                row[st] = K.STAT_KERNELS[st](v)
        out[int(c)] = row
    return out


def _check_exact(ds, t, cfg, sort):
    from geotools_ray.ops.gridstats import grid_stats

    got = grid_stats(ds, cfg).to_pandas().sort_values("cell_id").reset_index(drop=True)
    want = _oracle(t, cfg, sort)
    assert got["cell_id"].tolist() == sorted(want)
    for st in cfg.stats:
        w = np.array([want[c][st] for c in sorted(want)])
        assert np.array_equal(got[st].to_numpy(), w, equal_nan=True), st
    return got


@pytest.mark.parametrize("salt", [False, True])
def test_exact_matches_per_cell_oracle(ray_session, salt):
    """A hot cell (salted when salt_hot), a one-value cell (variance
    NaN), one input block so row order is the table's."""
    import ray.data

    t = _points(7, 2_000, 20_000, cells=8, one_point=(5, 6))
    cfg = _cfg(8, stats=EXACT, strategy="exact", salt_hot=salt)
    got = _check_exact(ray.data.from_arrow(t), t, cfg, sort=salt)
    lone = got[got["count"] == 1]
    assert len(lone) == 1 and np.isnan(lone["variance"].iloc[0])


@pytest.mark.parametrize("salt", [False, True])
def test_exact_more_parts_than_cells(ray_session, salt):
    """4 cells over the default 16 partitions: most partitions are
    empty, and with salting every cell is hot."""
    import ray.data

    t = _points(8, 400, 0, cells=2)
    cfg = _cfg(2, stats=EXACT, strategy="exact", salt_hot=salt)
    got = _check_exact(ray.data.from_arrow(t), t, cfg, sort=salt)
    assert len(got) == 4


@pytest.mark.parametrize("salt", [False, True])
def test_kurtosis_quirk_drops_cells_with_no_kept_rows(ray_session, salt):
    """kurtosis + class filter divides by the unfiltered count; a cell
    whose points are all filtered out is absent, salted or not."""
    import ray.data

    from geotools_ray.kernels.grid import cell_id_of_points

    t = _points(9, 2_000, 20_000, cells=8)
    cls = t["cls"].to_numpy().copy()
    empty = (np.floor(t["x"].to_numpy()) == 3) & (np.floor(t["y"].to_numpy()) == 4)
    cls[empty] = 1  # filtered out below
    t = t.set_column(t.schema.get_field_index("cls"), "cls", pa.array(cls))
    cfg = _cfg(8, stats=("count", "kurtosis", "median"), strategy="exact",
               class_filter=frozenset({2, 3}), salt_hot=salt)
    got = _check_exact(ray.data.from_arrow(t), t, cfg, sort=salt)
    absent = int(cell_id_of_points(np.array([3.5]), np.array([4.5]), cfg.bounds, 1.0)[0])
    assert absent not in set(got["cell_id"])
    assert len(got) == 63


def test_partial_matches_numpy(ray_session):
    """Every algebraic stat at rtol 1e-12, with cells spread over
    several input blocks and a one-point cell."""
    import ray.data

    from geotools_ray.kernels.grid import cell_id_of_points
    from geotools_ray.ops.gridstats import ALGEBRAIC, grid_stats

    t = _points(10, 6_000, 3_000, cells=6, one_point=(2, 3))
    blocks = [t.slice(0, 1_000), t.slice(1_000, 3_000), t.slice(4_000)]
    cfg = _cfg(6, stats=tuple(sorted(ALGEBRAIC)))
    got = (grid_stats(ray.data.from_arrow(blocks), cfg).to_pandas()
           .sort_values("cell_id").reset_index(drop=True))
    cid = cell_id_of_points(t["x"].to_numpy(), t["y"].to_numpy(), cfg.bounds, 1.0)
    z = t["z"].to_numpy()
    cells = np.unique(cid)
    assert got["cell_id"].tolist() == cells.tolist()
    per = [z[cid == c] for c in cells]
    with np.errstate(invalid="ignore", divide="ignore"):
        want = {
            "count": [len(v) for v in per],
            "min": [v.min() for v in per],
            "max": [v.max() for v in per],
            "mean": [v.mean() for v in per],
            "density": [len(v) / 1.0 for v in per],
            "variance": [np.var(v, ddof=1) if len(v) > 1 else np.nan for v in per],
            "stddev": [np.std(v, ddof=1) if len(v) > 1 else np.nan for v in per],
            "pvariance": [np.var(v) for v in per],
            "pstddev": [np.std(v) for v in per],
        }
    assert set(want) == ALGEBRAIC
    assert min(want["count"]) == 1 and max(want["count"]) > 3_000
    for st, w in want.items():
        np.testing.assert_allclose(got[st].to_numpy(), np.array(w, dtype=np.float64),
                                   rtol=1e-12, atol=0, equal_nan=True, err_msg=st)


def test_compute_bounds_one_map_pass(ray_session, monkeypatch):
    """Over several blocks, one of them empty and one holding a null x,
    the bounds equal Ray's Min/Max aggregate snapped; an all-empty
    input raises ValueError; a second call on the same dataset object
    is answered from the cache without running a pass."""
    import ray.data
    from ray.data.aggregate import Max, Min

    from geotools_ray.kernels.grid import Bounds
    from geotools_ray.ops import gridstats as G

    t = _points(12, 3_000, 0, cells=8)
    xs = t["x"].to_pylist()
    xs[5] = None
    t = t.set_column(0, "x", pa.array(xs, pa.float64()))
    blocks = [t.slice(0, 1_000), t.slice(0, 0), t.slice(1_000)]
    ds = ray.data.from_arrow(blocks)
    assert ds.num_blocks() == 3
    b = G.compute_bounds(ds, 0.7)
    agg = ds.aggregate(Min("x"), Min("y"), Max("x"), Max("y"))
    assert b == Bounds(agg["min(x)"], agg["min(y)"], agg["max(x)"], agg["max(y)"]).snap(0.7)

    with pytest.raises(ValueError, match="empty"):
        G.compute_bounds(ray.data.from_arrow([t.slice(0, 0), t.slice(0, 0)]), 0.7)

    def no_pass(*a, **kw):
        raise AssertionError("compute_bounds ran a pass on a cached dataset")

    monkeypatch.setattr(ray.data.Dataset, "map_batches", no_pass)
    assert G.compute_bounds(ds, 0.7) == b
