"""Per-cell statistic kernels — exact reference semantics, including
the reference's quirks (reproduced bug-for-bug, see SURVEY.md §7.4):

  - median: sort; even n -> (v[n/2] + v[n/2-1])/2     (cellstats.hpp:211-230)
  - quantiles: n+2 values, index c = ceil((i/(num+1))*(cnt-1)) over the
    SORTED values (src/pointzonalstats.cpp:281-294)
  - sample variance: sum((v-mean)^2)/(n-1)            (cellstats.hpp:264-280)
  - skewness: Fisher-Pearson with SAMPLE stddev       (cellstats.hpp:324-342)
  - kurtosis: divisor n is the UNFILTERED count       (cellstats.hpp:344-361,
    note `count = values.size()` at :356 — reproduced)
  - gap fractions IR/BLa/BLb/RR/FR                    (cellstats.hpp:470-542)
  - normalize: mean = sum/size() over ALL cells incl. nodata, divisor
    sqrt(sum of squared deviations) NOT sigma         (src/raster.cpp:93-113)
  - Welford streaming + parallel merge                (src/raster.cpp:58-90,
    include/RunningStats.hpp)

All kernels take numpy arrays of one group's values and return floats;
empty input -> NODATA (-9999.0).

`group_stats` is the one-pass form the grid and zonal pipelines call:
every requested stat of one group from its values and one sort of
them, the moments computed once — bit-identical to the per-stat
kernels, which stay as its oracles.
"""

from __future__ import annotations

import numpy as np

NODATA = -9999.0


def ref_median(v: np.ndarray) -> float:
    n = len(v)
    if n == 0:
        return NODATA
    s = np.sort(v)
    if n % 2 == 0:
        return float((s[n // 2] + s[n // 2 - 1]) / 2.0)
    return float(s[n // 2])


def ref_quantiles(v: np.ndarray, num: int) -> np.ndarray:
    """num+2 values including min and max (src/pointzonalstats.cpp:281-294)."""
    cnt = len(v)
    out = np.full(num + 2, np.nan)
    if cnt == 0:
        return out
    s = np.sort(v)
    for i in range(num + 2):
        c = int(np.ceil((i / (num + 1)) * (cnt - 1)))
        out[i] = s[c]
    return out


def ref_quantile(v: np.ndarray, i: int, num: int) -> float:
    cnt = len(v)
    if cnt == 0:
        return NODATA
    s = np.sort(v)
    c = int(np.ceil((i / (num + 1)) * (cnt - 1)))
    return float(s[c])


def ref_mean(v: np.ndarray) -> float:
    if len(v) == 0:
        return NODATA
    return float(np.sum(v) / len(v))


def ref_variance(v: np.ndarray, sample: bool = True) -> float:
    n = len(v)
    if n == 0:
        return NODATA
    m = np.sum(v) / n
    ss = float(np.sum((v - m) ** 2))
    denom = (n - 1) if sample else n
    if denom == 0:
        return float("nan")
    return ss / denom


def ref_stddev(v: np.ndarray, sample: bool = True) -> float:
    n = len(v)
    if n == 0:
        return NODATA
    return float(np.sqrt(ref_variance(v, sample)))


def ref_skewness(v: np.ndarray) -> float:
    """Fisher-Pearson: sum((v-m)^3/n) / s^3, s = sample stddev."""
    n = len(v)
    if n == 0:
        return NODATA
    m = np.sum(v) / n
    s = ref_stddev(v, sample=True)
    return float(np.sum((v - m) ** 3 / n) / s**3)


def ref_kurtosis(v: np.ndarray, unfiltered_count: int | None = None) -> float:
    """sum((v-m)^4/count)/s^4 - 3 where count is the UNFILTERED group
    size (cellstats.hpp:356) — pass it when a class filter was applied."""
    n = len(v)
    if n == 0:
        return NODATA
    cnt = unfiltered_count if unfiltered_count is not None else n
    m = np.sum(v) / n
    s = ref_stddev(v, sample=True)
    return float(np.sum((v - m) ** 4 / cnt) / s**4 - 3.0)


def ref_density(v: np.ndarray, cell_area: float) -> float:
    if len(v) == 0:
        return NODATA
    return float(len(v) / cell_area)


_MOMENT_STATS = {"variance", "stddev", "pvariance", "pstddev", "skew", "kurtosis"}


def group_stats(
    v: np.ndarray,
    s: np.ndarray,
    stats,
    num: int = 4,
    cell_area: float = 1.0,
    unfiltered_count: int | None = None,
) -> list[float]:
    """Every stat in `stats` of one group, in order: `v` holds its
    values in the order the per-stat kernels would see them, `s` the
    same values sorted. The mean and the deviations are computed once
    and shared by variance, stddev, skew and kurtosis; median and
    q<i> (of `num`) index into `s`. Names: STAT_KERNELS' plus "sum",
    "density" (over `cell_area`) and "q<i>"; kurtosis divides by
    `unfiltered_count` when given. Bit-identical to the per-stat
    kernels (ref_*), which stay as its oracles."""
    n = len(v)
    if n == 0:
        return [0.0 if st == "count" else NODATA for st in stats]
    tot = np.sum(v)
    m = tot / n
    if _MOMENT_STATS.intersection(stats):
        d = v - m
        ss = float(np.sum(d**2))
        var = ss / (n - 1) if n > 1 else float("nan")
        sd = float(np.sqrt(var))
    out = []
    for st in stats:
        if st == "count":
            out.append(float(n))
        elif st == "sum":
            out.append(float(tot))
        elif st == "min":
            out.append(float(np.min(v)))
        elif st == "max":
            out.append(float(np.max(v)))
        elif st == "mean":
            out.append(float(m))
        elif st == "density":
            out.append(float(n / cell_area))
        elif st == "median":
            out.append(float((s[n // 2] + s[n // 2 - 1]) / 2.0) if n % 2 == 0 else float(s[n // 2]))
        elif st[0] == "q" and st[1:].isdigit():
            out.append(float(s[int(np.ceil((int(st[1:]) / (num + 1)) * (n - 1)))]))
        elif st == "variance":
            out.append(var)
        elif st == "stddev":
            out.append(sd)
        elif st == "pvariance":
            out.append(ss / n)
        elif st == "pstddev":
            out.append(float(np.sqrt(ss / n)))
        elif st == "skew":
            out.append(float(np.sum(d**3 / n) / sd**3))
        elif st == "kurtosis":
            cnt = unfiltered_count if unfiltered_count is not None else n
            out.append(float(np.sum(d**4 / cnt) / sd**4 - 3.0))
        else:
            raise ValueError(f"group_stats: unknown stat {st!r}")
    return out


# ---------------------------------------------------------------------------
# Return-type predicates (src/sortedpointstream.cpp:184-202)

def pred_last(return_num, num_returns):
    return (num_returns > 0) & (return_num == num_returns)


def pred_first(return_num, num_returns):
    return (num_returns > 0) & (return_num == 1)


def pred_intermediate(return_num, num_returns):
    return (num_returns > 2) & (return_num > 1) & (return_num < num_returns)


def pred_ground(cls):
    return np.asarray(cls) == 2


def pred_single(num_returns):
    return np.asarray(num_returns) == 1


# ---------------------------------------------------------------------------
# Gap fractions (Hopkinson & Chasmer 2009; cellstats.hpp:470-542)

def gap_fraction_ir(intensity, cls) -> float:
    if len(intensity) == 0:
        return NODATA
    intensity = np.asarray(intensity, dtype=np.float64)
    total = float(np.sum(intensity))
    canopy = float(np.sum(intensity[~pred_ground(cls)]))
    return canopy / total if total != 0.0 else NODATA


def gap_fraction_bla(intensity, cls) -> float:
    if len(intensity) == 0:
        return NODATA
    intensity = np.asarray(intensity, dtype=np.float64)
    cls = np.asarray(cls)
    gnd = float(np.sum(intensity[cls == 2]))
    allv = float(np.sum(intensity[cls < 2]))
    return 1.0 - np.sqrt(gnd / allv) if allv != 0.0 else NODATA


def gap_fraction_blb(intensity, cls, return_num, num_returns) -> float:
    if len(intensity) == 0:
        return NODATA
    intensity = np.asarray(intensity, dtype=np.float64)
    g = pred_ground(cls)
    sgl = pred_single(num_returns)
    lst = pred_last(return_num, num_returns)
    fst = pred_first(return_num, num_returns)
    mid = pred_intermediate(return_num, num_returns)
    gnd_single = float(np.sum(intensity[g & sgl]))
    gnd_last = float(np.sum(intensity[g & lst]))
    first = float(np.sum(intensity[fst]))
    single = float(np.sum(intensity[sgl]))
    intermediate = float(np.sum(intensity[mid]))
    last = float(np.sum(intensity[lst]))
    total = float(np.sum(intensity))
    if total == 0.0:
        return NODATA
    denom = (first + single) / total + np.sqrt((intermediate + last) / total)
    if denom == 0.0:
        return NODATA
    return float((gnd_single / total + np.sqrt(gnd_last / total)) / denom)


def gap_fraction_rr(cls) -> float:
    total = len(cls)
    if total == 0:
        return NODATA
    canopy = int(np.sum(~pred_ground(cls)))
    return canopy / total


def gap_fraction_fr(cls, return_num, num_returns) -> float:
    fst = pred_first(return_num, num_returns)
    total = int(np.sum(fst))
    if total == 0:
        return NODATA
    canopy = int(np.sum(fst & ~pred_ground(cls)))
    return canopy / total


# ---------------------------------------------------------------------------
# Welford running stats with parallel merge (Chan et al.) — the
# distributed-safe analog of src/raster.cpp:58-90 / RunningStats.hpp.

def welford_partial(v: np.ndarray):
    """Return (count, mean, M2) of one partition."""
    n = len(v)
    if n == 0:
        return (0, 0.0, 0.0)
    m = float(np.mean(v))
    m2 = float(np.sum((v - m) ** 2))
    return (n, m, m2)


def welford_merge(a, b):
    na, ma, m2a = a
    nb, mb, m2b = b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = mb - ma
    m = ma + delta * nb / n
    m2 = m2a + m2b + delta * delta * na * nb / n
    return (n, m, m2)


def normalize_reference(values: np.ndarray, total_size: int, nodata: float = NODATA):
    """Grid<T>::normalize (src/raster.cpp:93-113), bug-for-bug:
    mean = sum(valid)/TOTAL size (nodata cells included in divisor);
    divisor = sqrt(sum of squared deviations) — not sigma.
    Returns a copy with valid cells normalized, nodata untouched."""
    v = np.asarray(values, dtype=np.float64).copy()
    valid = (v != nodata) & ~np.isnan(v)
    mean = float(np.sum(v[valid])) / total_size
    ss = float(np.sum((v[valid] - mean) ** 2))
    sd = np.sqrt(ss)
    v[valid] = (v[valid] - mean) / sd
    return v


# name -> kernel registry (the engine analog of getComputer,
# src/pointstats.cpp:182-203)
STAT_KERNELS = {
    "count": lambda v: float(len(v)),
    "min": lambda v: float(np.min(v)) if len(v) else NODATA,
    "max": lambda v: float(np.max(v)) if len(v) else NODATA,
    "mean": ref_mean,
    "median": ref_median,
    "variance": lambda v: ref_variance(v, sample=True),
    "stddev": lambda v: ref_stddev(v, sample=True),
    "pvariance": lambda v: ref_variance(v, sample=False),
    "pstddev": lambda v: ref_stddev(v, sample=False),
    "skew": ref_skewness,
    "kurtosis": ref_kurtosis,
}


def ref_rugosity(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
    """A10 rugosity (ACR, Du Preez 2014; cellstats.hpp:378-462):
    Delaunay 3-D surface area / area of the xy convex hull lifted onto
    the PCA best-fit plane of the hull points (fan around the 3-D hull
    centroid, Heron areas). Density factor is commented out in the
    reference (:461) — omitted here too."""
    from .delaunay import delaunay
    from .geom import convex_hull, tri_area_heron

    n = len(x)
    if n == 0:
        return NODATA
    pts2 = np.column_stack([x, y])
    tris = delaunay(pts2)
    tarea = 0.0
    for t in tris:
        tarea += float(
            tri_area_heron(
                x[t[0]], y[t[0]], z[t[0]],
                x[t[1]], y[t[1]], z[t[1]],
                x[t[2]], y[t[2]], z[t[2]],
            )
        )
    hull_xy = convex_hull(pts2)
    if len(hull_xy) < 3:
        return NODATA
    # recover z of hull points (first match per xy)
    hz = np.empty(len(hull_xy))
    for i, (hx, hy) in enumerate(hull_xy):
        j = int(np.nonzero((x == hx) & (y == hy))[0][0])
        hz[i] = z[j]
    hull3 = np.column_stack([hull_xy, hz])
    centroid = hull3.mean(axis=0)
    # PCA plane of the hull points (CGAL linear_least_squares_fitting_3)
    cov = np.cov((hull3 - centroid).T)
    evals, evecs = np.linalg.eigh(cov)
    a, b, c = evecs[:, 0]  # normal = smallest-eigenvalue direction
    d = -(a * centroid[0] + b * centroid[1] + c * centroid[2])
    if c == 0:
        return NODATA

    def to_plane(px, py):
        return (px * a + py * b + d) / -c

    parea = 0.0
    m = len(hull3)
    for i in range(m):
        p0 = hull3[i]
        p1 = hull3[(i + 1) % m]
        parea += float(
            tri_area_heron(
                p0[0], p0[1], to_plane(p0[0], p0[1]),
                p1[0], p1[1], to_plane(p1[0], p1[1]),
                centroid[0], centroid[1], centroid[2],
            )
        )
    if parea == 0.0:
        return NODATA
    return tarea / parea
