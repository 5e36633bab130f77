"""Stat kernels vs independent formula transcriptions (cellstats.hpp,
src/pointzonalstats.cpp:281-294, src/raster.cpp:58-113)."""

import numpy as np
import pytest

from geotools_ray.kernels import stats as S


@pytest.fixture
def v():
    rng = np.random.RandomState(7)
    return rng.normal(10, 5, size=101)


def test_median_even_odd():
    assert S.ref_median(np.array([3.0, 1.0, 2.0])) == 2.0
    assert S.ref_median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.5
    assert S.ref_median(np.array([])) == S.NODATA


def test_quantile_nearest_rank_up():
    vals = np.arange(10, dtype=float)  # sorted 0..9, cnt=10
    q = S.ref_quantiles(vals, 4)  # quartiles: 6 values incl min/max
    import math

    want = [vals[int(math.ceil(i / 5 * 9))] for i in range(6)]
    assert q.tolist() == want
    assert q[0] == 0.0 and q[-1] == 9.0


def test_variance_matches_two_pass(v):
    m = v.sum() / len(v)
    assert S.ref_variance(v, True) == pytest.approx(((v - m) ** 2).sum() / (len(v) - 1))
    assert S.ref_variance(v, False) == pytest.approx(((v - m) ** 2).sum() / len(v))


def test_skew_kurtosis_reference_quirks(v):
    m = v.sum() / len(v)
    s = np.sqrt(((v - m) ** 2).sum() / (len(v) - 1))
    assert S.ref_skewness(v) == pytest.approx(((v - m) ** 3 / len(v)).sum() / s**3)
    # kurtosis with unfiltered count bug: filtered 50 values of a 101 group
    filt = v[:50]
    mf = filt.sum() / 50
    sf = np.sqrt(((filt - mf) ** 2).sum() / 49)
    want = ((filt - mf) ** 4 / 101).sum() / sf**4 - 3.0
    assert S.ref_kurtosis(filt, unfiltered_count=101) == pytest.approx(want)


def test_welford_merge_matches_single_pass(v):
    parts = np.array_split(v, 7)
    acc = (0, 0.0, 0.0)
    for p in parts:
        acc = S.welford_merge(acc, S.welford_partial(p))
    n, m, m2 = acc
    assert n == len(v)
    assert m == pytest.approx(v.mean())
    assert m2 / n == pytest.approx(v.var())


def test_normalize_reference_bug():
    # mean divides by TOTAL size incl nodata; divisor is sqrt(SS) not sigma
    vals = np.array([1.0, 2.0, S.NODATA, 3.0])
    out = S.normalize_reference(vals, total_size=4)
    mean = 6.0 / 4
    sd = np.sqrt((1 - mean) ** 2 + (2 - mean) ** 2 + (3 - mean) ** 2)
    assert out[0] == pytest.approx((1 - mean) / sd)
    assert out[2] == S.NODATA


def test_gap_fractions():
    intensity = np.array([10, 20, 30, 40, 50], dtype=float)
    cls = np.array([2, 1, 2, 1, 1])
    rn = np.array([1, 1, 2, 2, 1])
    nr = np.array([1, 2, 2, 3, 1])
    # IR: canopy intensity / total
    assert S.gap_fraction_ir(intensity, cls) == pytest.approx((20 + 40 + 50) / 150)
    # BLa: 1 - sqrt(gnd / sum(cls<2))
    assert S.gap_fraction_bla(intensity, cls) == pytest.approx(
        1 - np.sqrt((10 + 30) / (20 + 40 + 50))
    )
    # RR: canopy count / total
    assert S.gap_fraction_rr(cls) == pytest.approx(3 / 5)
    # FR: first returns only
    fst = (nr > 0) & (rn == 1)
    canopy = (fst & (cls != 2)).sum()
    assert S.gap_fraction_fr(cls, rn, nr) == pytest.approx(canopy / fst.sum())
    # BLb transcription
    g = cls == 2
    sgl = nr == 1
    lst = (nr > 0) & (rn == nr)
    mid = (nr > 2) & (rn > 1) & (rn < nr)
    total = intensity.sum()
    denom = (intensity[fst].sum() + intensity[sgl].sum()) / total + np.sqrt(
        (intensity[mid].sum() + intensity[lst].sum()) / total
    )
    want = (
        intensity[g & sgl].sum() / total + np.sqrt(intensity[g & lst].sum() / total)
    ) / denom
    assert S.gap_fraction_blb(intensity, cls, rn, nr) == pytest.approx(want)


def test_empty_inputs_nodata():
    e = np.array([])
    for name, fn in S.STAT_KERNELS.items():
        if name == "count":
            assert fn(e) == 0.0
        else:
            assert fn(e) == S.NODATA


ALL_STATS = ("count", "sum", "min", "max", "mean", "median", "variance", "stddev",
             "pvariance", "pstddev", "skew", "kurtosis", "density", "q1", "q2", "q3", "q4")


def _per_stat(v, stats, num, cell_area, unf=None):
    """The per-stat kernels, one call each: group_stats' oracle."""
    out = []
    for st in stats:
        if st == "sum":
            out.append(float(np.sum(v)) if len(v) else S.NODATA)
        elif st == "density":
            out.append(S.ref_density(v, cell_area))
        elif st == "kurtosis":
            out.append(S.ref_kurtosis(v, unf))
        elif st[0] == "q":
            out.append(S.ref_quantile(v, int(st[1:]), num))
        else:
            out.append(S.STAT_KERNELS[st](v))
    return out


def _same_bits(got, want):
    return np.array_equal(np.array(got, dtype=np.float64).view(np.int64),
                          np.array(want, dtype=np.float64).view(np.int64))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 101, 256, 100_003])
def test_group_stats_matches_per_stat_kernels(n):
    """Bit for bit against one kernel call per stat, on unsorted v; at
    n = 1 the sample variance, stddev, skew and kurtosis are NaN."""
    rng = np.random.RandomState(n)
    v = np.round(rng.normal(20, 6, size=n), 2)  # ties, as LAS z values have
    with np.errstate(invalid="ignore", divide="ignore"):
        got = S.group_stats(v, np.sort(v), ALL_STATS, num=4, cell_area=2.5)
        want = _per_stat(v, ALL_STATS, 4, 2.5)
    assert _same_bits(got, want)
    if n == 1:
        for st in ("variance", "stddev", "skew", "kurtosis"):
            assert np.isnan(got[ALL_STATS.index(st)]), st
        assert got[ALL_STATS.index("pvariance")] == 0.0
    if n == 0:
        assert got[0] == 0.0 and set(got[1:]) == {S.NODATA}


def test_group_stats_unsorted_order_and_requested_subset():
    """The moments follow v's order (not s's): here the skew of the
    same values differs in the last bits between row and sorted order,
    and group_stats matches the kernels in each. Only the requested
    stats come back, in order."""
    rng = np.random.RandomState(3)
    v = rng.uniform(0, 1e6, 5_001)
    s = np.sort(v)
    skews = set()
    for order in (v, s, v[::-1]):
        got = S.group_stats(order, s, ALL_STATS, num=4)
        assert _same_bits(got, _per_stat(order, ALL_STATS, 4, 1.0))
        skews.add(got[ALL_STATS.index("skew")])
    assert len(skews) > 1
    sub = ("q3", "count", "median")
    assert S.group_stats(v, s, sub, num=9) == _per_stat(v, sub, 9, 1.0)


def test_group_stats_kurtosis_unfiltered_count():
    rng = np.random.RandomState(11)
    filt = rng.normal(10, 5, size=50)
    got = S.group_stats(filt, np.sort(filt), ("kurtosis", "skew"), unfiltered_count=101)
    want = [S.ref_kurtosis(filt, unfiltered_count=101), S.ref_skewness(filt)]
    assert _same_bits(got, want)
    assert got[0] != S.ref_kurtosis(filt)
