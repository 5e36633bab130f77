"""Mergeable sketches: HyperLogLog distinct counts, Misra-Gries heavy
hitters, and the exact sketch-then-verify cut (ops/sketch.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(ray_session, ids, num_blocks=4):
    import ray.data

    t = pa.table({"k": np.asarray(ids, dtype=np.int64)})
    return ray.data.from_arrow(t).repartition(num_blocks)


def test_hll_register_kernel_exact_bitmath():
    from geotools_ray.ops.sketch import _bit_length_u64, hll_registers

    # bit-length across the whole uint64 range incl. the float-log2
    # danger zone near powers of two above 2^53
    w = np.array([0, 1, 2, 3, 2**53 - 1, 2**53, 2**53 + 1, 2**63, 2**64 - 1],
                 dtype=np.uint64)
    want = np.array([0, 1, 2, 2, 53, 54, 54, 64, 64])
    np.testing.assert_array_equal(_bit_length_u64(w), want)

    # rho: hash with all remaining bits zero -> 64 - p + 1
    p = 4
    h = np.array([0], dtype=np.uint64)  # idx 0, rem 0
    regs = hll_registers(h, p)
    assert regs[0] == 64 - p + 1


def test_hll_accuracy_and_partition_invariance(ray_session):
    from geotools_ray.ops.sketch import approx_ndistinct

    rng = np.random.RandomState(0)
    true_n = 10_000
    ids = rng.randint(0, true_n, 60_000) * 7 + 3  # 10k distinct values
    true_d = len(np.unique(ids))
    est2 = approx_ndistinct(_ds(ray_session, ids, num_blocks=2), ["k"], p=14)
    est8 = approx_ndistinct(_ds(ray_session, ids, num_blocks=8), ["k"], p=14)
    # registers max-merge is associative/commutative: any partitioning
    # gives the IDENTICAL estimate
    assert est2 == est8
    assert abs(est2 - true_d) / true_d < 0.03  # ~4 sigma at p=14


def test_mg_guarantee_planted_hot_keys(ray_session):
    from geotools_ray.ops.sketch import heavy_hitter_hashes
    from geotools_ray.stages.grouped import hash_columns

    rng = np.random.RandomState(1)
    cold = rng.randint(1000, 100_000, 40_000)
    hot = np.concatenate([np.full(12_000, 7), np.full(9_000, 13)])
    ids = np.concatenate([cold, hot])
    rng.shuffle(ids)
    got = heavy_hitter_hashes(_ds(ray_session, ids, 8), ["k"], threshold_frac=0.05)
    want = hash_columns(pa.table({"k": np.array([7, 13], dtype=np.int64)}), ["k"])
    # the deterministic guarantee: keys above threshold CANNOT be missed
    assert set(want.tolist()) <= set(got.tolist())
    # and the superset stays bounded (capacity-sized, not the key space)
    assert len(got) <= 4.0 / 0.05 + 2


def test_mg_all_distinct_does_not_crash(ray_session):
    from geotools_ray.ops.sketch import heavy_hitter_hashes

    ids = np.arange(5000)
    got = heavy_hitter_hashes(_ds(ray_session, ids, 4), ["k"], threshold_frac=0.01)
    assert isinstance(got, np.ndarray)  # superset may be nonempty; no crash


def test_heavy_hitters_exact_matches_pandas(ray_session):
    from geotools_ray.ops.sketch import heavy_hitters_exact

    rng = np.random.RandomState(2)
    ids = np.concatenate(
        [rng.randint(0, 200, 20_000), np.full(3_000, 42), np.full(1_500, 99)]
    )
    rng.shuffle(ids)
    frac = 0.01
    out = heavy_hitters_exact(_ds(ray_session, ids, 8), ["k"], frac).to_pandas()
    vc = pd.Series(ids).value_counts()
    import math

    thresh = math.ceil(frac * len(ids))
    want = vc[vc >= thresh].sort_index()
    got = out.sort_values("k")
    np.testing.assert_array_equal(got["k"].to_numpy(), want.index.to_numpy())
    np.testing.assert_array_equal(got["cnt"].to_numpy(), want.to_numpy())


def test_heavy_hitters_exact_empty_result(ray_session):
    from geotools_ray.ops.sketch import heavy_hitters_exact

    ids = np.arange(4000)  # all unique: nothing reaches 5%
    res = heavy_hitters_exact(_ds(ray_session, ids, 4), ["k"], 0.05)
    # schema survives the empty result (ray's to_pandas drops columns
    # when every block is empty, so assert on the dataset schema)
    assert res.schema().names == ["k", "cnt"]
    assert res.count() == 0


def _nearest_rank_up(x, q):
    import math

    xs = np.sort(x)
    return xs[min(max(1, math.ceil(q * len(xs))), len(xs)) - 1]


def test_exact_quantiles_matches_sorted_oracle(ray_session):
    from geotools_ray.ops.sketch import exact_quantiles

    rng = np.random.RandomState(4)
    x = np.concatenate(
        [rng.standard_normal(30_000) * 10, np.full(2_000, 3.5)]  # tie flood
    )
    rng.shuffle(x)
    import ray.data

    ds = ray.data.from_arrow(pa.table({"value": x})).repartition(8)
    qs = [0.01, 0.25, 0.5, 0.75, 0.99]
    out = exact_quantiles(ds, "value", qs).to_pandas()
    for q, v in zip(out["q"], out["value"]):
        assert v == _nearest_rank_up(x, q), (q, v, _nearest_rank_up(x, q))


def test_exact_quantiles_small_and_skewed(ray_session):
    """Tiny input (every rank inside the bracket slack) and a summary
    that must widen/retry still certify exactly."""
    from geotools_ray.ops.sketch import exact_quantiles

    import ray.data

    x = np.array([5.0, 1.0, 9.0, 1.0, 7.0])
    ds = ray.data.from_arrow(pa.table({"value": x}))
    out = exact_quantiles(ds, "value", [0.5, 1.0], B=2).to_pandas()
    assert out["value"].tolist() == [_nearest_rank_up(x, 0.5), 9.0]


def test_exact_quantiles_partition_invariance(ray_session):
    from geotools_ray.ops.sketch import exact_quantiles

    import ray.data

    rng = np.random.RandomState(6)
    x = rng.exponential(3.0, 20_000)
    a = exact_quantiles(
        ray.data.from_arrow(pa.table({"value": x})).repartition(2), "value", [0.9]
    ).to_pandas()["value"][0]
    b = exact_quantiles(
        ray.data.from_arrow(pa.table({"value": x})).repartition(16), "value", [0.9]
    ).to_pandas()["value"][0]
    assert a == b == _nearest_rank_up(x, 0.9)
