"""zonal_stats against the per-polygon reference kernels, bit for bit:
each (polygon[, cls]) group's stats equal the kernels run on its
values in row order."""

import numpy as np
import pyarrow as pa
import pytest

STATS = ("n", "sum_v", "min_v", "max_v", "mean_v", "median_v", "var_v", "stddev_v",
         "q1", "q2", "q3", "q4")


def _oracle(v):
    from geotools_ray.kernels import stats as K

    return [float(len(v)), float(np.sum(v)), float(np.min(v)), float(np.max(v)),
            K.ref_mean(v), K.ref_median(v), K.ref_variance(v), K.ref_stddev(v),
            *(K.ref_quantile(v, i, 4) for i in range(1, 5))]


@pytest.fixture(scope="module")
def scene():
    """One input block: 6,000 points on [0, 10)^2 plus one lone point;
    polygons 1 and 2 overlap, polygon 3 holds only the lone point and
    polygon 4 holds none."""
    from geotools_ray.ops.zonal import Polygon, rect

    rng = np.random.RandomState(5)
    n = 6_000
    x = np.append(rng.uniform(0, 10, n), 20.5)
    y = np.append(rng.uniform(0, 10, n), 20.5)
    t = pa.table({"x": x, "y": y, "z": np.round(rng.normal(12, 4, n + 1), 2),
                  "cls": rng.randint(1, 4, n + 1).astype(np.uint8)})
    tri = Polygon(2, (((3.05, 2.05), (9.05, 4.05), (5.05, 9.05)),))
    return t, [rect(1, 0.05, 0.05, 6.05, 6.05), tri, rect(3, 20.05, 20.05, 21.05, 21.05),
               rect(4, 30.05, 30.05, 31.05, 31.05)]


def _inside(t, poly):
    from geotools_ray.kernels.geom import points_in_polygon

    return points_in_polygon(t["x"].to_numpy(), t["y"].to_numpy(), poly.rings)


def _check(got, want):
    assert sorted(want) == list(map(tuple, got.iloc[:, :len(next(iter(want)))].to_numpy()))
    g = got[list(STATS)].to_numpy()
    w = np.array([want[k] for k in sorted(want)], dtype=np.float64)
    assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_zonal_stats_matches_per_polygon_kernels(ray_session, scene):
    import ray.data

    from geotools_ray.ops.zonal import zonal_stats

    t, polys = scene
    z = t["z"].to_numpy()
    got = (zonal_stats(ray.data.from_arrow(t), polys).to_pandas()
           .sort_values("polygon_id").reset_index(drop=True))
    assert list(got.columns) == ["polygon_id", *STATS]
    m1, m2 = _inside(t, polys[0]), _inside(t, polys[1])
    assert (m1 & m2).sum() > 100  # the overlap counts in both polygons
    with np.errstate(invalid="ignore"):
        want = {(p.polygon_id,): _oracle(z[_inside(t, p)]) for p in polys[:3]}
    _check(got, want)
    lone = got[got["polygon_id"] == 3].iloc[0]
    assert lone["n"] == 1 and np.isnan(lone["var_v"]) and np.isnan(lone["stddev_v"])
    assert 4 not in set(got["polygon_id"])  # no point: absent


def test_zonal_stats_by_cls_keys(ray_session, scene):
    import ray.data

    from geotools_ray.ops.zonal import zonal_stats

    t, polys = scene
    z, cls = t["z"].to_numpy(), t["cls"].to_numpy()
    got = (zonal_stats(ray.data.from_arrow(t), polys, by_cls=True).to_pandas()
           .sort_values(["polygon_id", "cls"]).reset_index(drop=True))
    assert list(got.columns[:2]) == ["polygon_id", "cls"] and got["cls"].dtype == np.uint8
    want = {}
    with np.errstate(invalid="ignore"):
        for p in polys:
            inside = _inside(t, p)
            for c in np.unique(cls[inside]):
                want[(p.polygon_id, int(c))] = _oracle(z[inside & (cls == c)])
    assert len(want) == 3 + 3 + 1
    _check(got, want)
