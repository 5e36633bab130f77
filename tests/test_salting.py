"""Skew salting (north_rule: "skewed cells are salted and split via
explicit repartition + groupby-aggregate shuffles"): a planted
10^5-row hot key must (a) be found by the histogram probe, (b) split
across salt partitions so no phase-1 group holds more than ~1/8 of
it, and (c) produce output IDENTICAL to the unsalted computation.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


HOT_N = 100_000
COLD_KEYS = 40
COLD_N = 100


def _skewed_table(seed=3):
    rng = np.random.RandomState(seed)
    k = np.concatenate(
        [np.repeat(np.arange(COLD_KEYS, dtype=np.int64), COLD_N),
         np.full(HOT_N, 99, dtype=np.int64)]
    )
    v = rng.uniform(0, 50, len(k))
    order = rng.permutation(len(k))
    return pa.table({"k": k[order], "v": v[order]})


def _bucket_of(k: int) -> int:
    """The probe's histogram bucket of int64 key `k` in column "k"."""
    from geotools_ray.stages.grouped import N_BUCKETS, hash_columns

    key = pa.table({"k": np.array([k], dtype=np.int64)})
    return int(hash_columns(key, ["k"])[0] % np.uint64(N_BUCKETS))


def test_probe_finds_hot_key(ray_session):
    import ray.data

    from geotools_ray.stages.grouped import detect_hot_buckets

    ds = ray.data.from_arrow(_skewed_table())
    _, hot = detect_hot_buckets(ds, ["k"])
    # the hot key's bucket, and nothing cold (~0.1% of rows per key)
    assert hot.tolist() == [_bucket_of(99)]


def test_probe_cut_is_one_partitions_share(ray_session):
    """A key is hot when it holds more than 1/num_parts of the rows,
    and the probe counts every row, so block layout cannot move it."""
    import ray.data

    from geotools_ray.stages.grouped import detect_hot_buckets

    n = 20_000
    k = np.concatenate([
        np.full(n // 10, 1),                    # 10%
        np.full(n // 50, 2),                    # 2%
        np.arange(100, 100 + n - n // 10 - n // 50),  # distinct cold keys
    ]).astype(np.int64)
    t = pa.table({"k": np.random.RandomState(4).permutation(k)})
    b1, b2 = _bucket_of(1), _bucket_of(2)

    one_block = ray.data.from_arrow(t)
    uneven = ray.data.from_arrow(
        [t.slice(0, 3_001), t.slice(3_001, 9_000), t.slice(12_001)]
    ).repartition(7)
    _, hot = detect_hot_buckets(one_block, ["k"], num_parts=16)
    assert hot.tolist() == [b1]  # 10% > 1/16; 2% is not
    _, hot2 = detect_hot_buckets(uneven, ["k"], num_parts=16)
    assert np.array_equal(hot, hot2)
    # a wider exchange has a smaller fair share: 2% > 1/64
    _, wide = detect_hot_buckets(one_block, ["k"], num_parts=64)
    assert sorted(wide.tolist()) == sorted([b1, b2])


def test_salted_grouped_map_bounds_and_identity(ray_session):
    import ray.data

    from geotools_ray.stages.grouped import salted_grouped_map

    ds = ray.data.from_arrow(_skewed_table())
    salt_k = 8  # the salt width is max(8, P // 2), so at least 8

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["k", "_salt"], sort=False)["v"]
        out = g.agg(["count", "sum"]).reset_index()
        # (b): no phase-1 group holds more than ~1/salt_k of the hot key
        assert out["count"].max() <= HOT_N // salt_k + HOT_N // 10
        return out.rename(columns={"count": "n", "sum": "s"})[["k", "n", "s"]]

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", sort=False)[["n", "s"]].sum().reset_index()

    got = (
        salted_grouped_map(ds, ["k"], partial, merge)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    want = (
        _skewed_table().to_pandas().groupby("k")["v"].agg(["count", "sum"])
        .reset_index().rename(columns={"count": "n", "sum": "s"})
    )
    assert np.array_equal(got["k"], want["k"])
    assert np.array_equal(got["n"], want["n"])
    assert np.allclose(got["s"], want["s"])
    # hot key split into salt_k phase-1 partials
    assert HOT_N // salt_k > COLD_N  # the bound in partial() was a real test


def test_grid_exact_salted_identity(ray_session):
    """grid_stats exact path, salted vs unsalted, planted hot cell:
    identical per-cell order statistics and moments."""
    import ray.data

    from geotools_ray.ops.gridstats import GridConfig, grid_stats

    rng = np.random.RandomState(5)
    # 10x10 grid at res 1; cell (0,0) gets 60k points, others ~30
    n_cold = 3000
    x = rng.uniform(0, 10, n_cold)
    y = rng.uniform(0, 10, n_cold)
    xh = rng.uniform(0, 1, 60_000)
    yh = rng.uniform(0, 1, 60_000)
    t = pa.table(
        {
            "x": np.concatenate([x, xh]),
            "y": np.concatenate([y, yh]),
            "z": rng.uniform(0, 30, n_cold + 60_000),
        }
    )
    ds = ray.data.from_arrow(t)
    stats = ("count", "median", "q1", "q3", "skew", "kurtosis")
    base = GridConfig(res=1.0, stats=stats, strategy="exact")
    want = (
        grid_stats(ds, base).to_pandas().sort_values("cell_id").reset_index(drop=True)
    )
    got = (
        grid_stats(ds, GridConfig(res=1.0, stats=stats, strategy="exact", salt_hot=True))
        .to_pandas().sort_values("cell_id").reset_index(drop=True)
    )
    assert np.array_equal(got["cell_id"], want["cell_id"])
    for c in stats:
        assert np.allclose(got[c], want[c], rtol=1e-9, atol=1e-9), c


def test_exact_dedup_salted_identity(ray_session):
    import ray.data

    from geotools_ray.ops.dedup import exact_dedup

    rng = np.random.RandomState(7)
    k = np.concatenate(
        [np.repeat(np.arange(20, dtype=np.int64), 50),
         np.full(50_000, 999, dtype=np.int64)]
    )
    oid = rng.permutation(len(k)).astype(np.int64)
    t = pa.table({"key": k, "oid": oid})
    ds = ray.data.from_arrow(t)
    want = (
        exact_dedup(ds, ["key"], "oid").to_pandas()
        .sort_values("key").reset_index(drop=True)
    )
    got = (
        exact_dedup(ds, ["key"], "oid", salt_hot=True).to_pandas()
        .sort_values("key").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["key", "oid"]], want[["key", "oid"]])


def test_dedup_by_phash_salted_identity(ray_session):
    import ray.data

    from geotools_ray.ops.imagepipeline import dedup_by_phash
    from geotools_ray.stages.grouped import detect_hot_buckets

    rng = np.random.RandomState(11)
    ph = np.concatenate(
        [rng.randint(0, 500, 2000), np.full(30_000, 42)]
    ).astype(np.int64)
    pid = rng.randint(1, 5, len(ph)).astype(np.int64)
    iid = np.array([f"img{j:07d}" for j in rng.permutation(len(ph))])
    t = pa.table({"phash": ph, "polygon_id": pid, "image_id": iid})
    ds = ray.data.from_arrow(t)
    want = (
        dedup_by_phash(ds).to_pandas()
        .sort_values(["phash", "polygon_id"]).reset_index(drop=True)
    )
    _, hot = detect_hot_buckets(ds, ["phash", "polygon_id"])
    assert len(hot) >= 1  # the probe fires on the planted skew
    # the flagship wiring: salt_hot=True probes, salts the planted hot
    # keys, and the salted answer is identical to the unsalted one
    got = (
        dedup_by_phash(ds, salt_hot=True).to_pandas()
        .sort_values(["phash", "polygon_id"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["phash", "polygon_id", "image_id"]],
        want[["phash", "polygon_id", "image_id"]],
    )


def _kurt_ref(v, unf):
    v = np.asarray(v, dtype=np.float64)
    m = v.mean()
    s = v.std(ddof=1)
    return float(np.sum((v - m) ** 4 / unf) / s**4 - 3.0)


def test_kurtosis_unfiltered_count_quirk(ray_session):
    """Reference CellKurtosis divides by the UNFILTERED per-cell count
    (cellstats.hpp: count = values.size() while other stats use the
    filtered list) — the exact path must preserve that when a class
    filter is active, on both the plain and salted shuffles."""
    import ray.data

    from geotools_ray.kernels.grid import Bounds
    from geotools_ray.ops.gridstats import GridConfig, grid_stats

    rng = np.random.RandomState(11)
    n = 4000
    t = pa.table(
        {
            "x": rng.uniform(0, 40, n),
            "y": rng.uniform(0, 40, n),
            "z": rng.uniform(0, 30, n),
            "cls": rng.choice([1, 2, 3], n).astype(np.int64),
            "scan_angle": np.zeros(n, dtype=np.int64),
        }
    )
    b = Bounds(0.0, 0.0, 40.0, 40.0)
    for salt in (False, True):
        cfg = GridConfig(
            res=10.0, bounds=b, stats=("count", "kurtosis"),
            class_filter=frozenset({1}), strategy="exact", salt_hot=salt,
        )
        out = (
            grid_stats(ray.data.from_arrow(t), cfg)
            .to_pandas().set_index("cell_id").sort_index()
        )
        # straight-line oracle per cell
        x = t["x"].to_numpy(); y = t["y"].to_numpy()
        z = t["z"].to_numpy(); cls = t["cls"].to_numpy()
        col = np.floor(x / 10.0).astype(int)
        row = np.floor(y / 10.0).astype(int)
        rows_g = 4
        cid = (rows_g - row - 1) * 4 + col
        for c in np.unique(cid):
            in_cell = cid == c
            vf = z[in_cell & (cls == 1)]
            if not len(vf):
                assert c not in out.index
                continue
            assert out.loc[c, "count"] == len(vf)
            want = _kurt_ref(vf, int(in_cell.sum()))
            assert out.loc[c, "kurtosis"] == pytest.approx(want, rel=1e-12)


def test_grid_boundary_point_dropped(ray_session):
    """A point exactly on the closed-interval maxx/maxy boundary is
    DROPPED (reference lasgrid's clamped window), not wrapped into a
    neighbouring cell id."""
    import ray.data

    from geotools_ray.kernels.grid import Bounds
    from geotools_ray.ops.gridstats import GridConfig, grid_stats

    t = pa.table(
        {
            "x": np.array([5.0, 10.0, 5.0]),
            "y": np.array([5.0, 5.0, 10.0]),
            "z": np.array([1.0, 2.0, 3.0]),
            "cls": np.array([1, 1, 1], dtype=np.int64),
            "scan_angle": np.zeros(3, dtype=np.int64),
        }
    )
    b = Bounds(0.0, 0.0, 10.0, 10.0)
    cfg = GridConfig(res=5.0, bounds=b, stats=("count",), strategy="exact")
    out = grid_stats(ray.data.from_arrow(t), cfg).to_pandas()
    # only the interior point (5,5) lands; the two boundary points are
    # dropped, and notably NOT wrapped into cells 0/2/3
    assert out["count"].sum() == 1
