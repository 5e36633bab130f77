"""Hierarchical spatial cell index (H3/S2-style, quadtree on an
equirectangular projection of lon/lat).

This is the engine's global partitioning key (north_rule): every image
footprint centroid maps to an int64 cell id at a level; ids support
parent/children/k-ring/bbox-cover/compact — the operations geotools
gets implicitly from raster col/row math (src/lasgrid.cpp:303-314),
generalized to a hierarchy.

Encoding (64-bit): [ 5 bits level | 58 bits morton(x, y) ] with
x = floor((lon+180)/360 * 2^L), y = floor((lat+90)/180 * 2^L),
L in [0, 29]. Morton interleave keeps spatial locality so contiguous
id ranges are contiguous on the ground — good for range pruning and
for co-locating neighbor cells in the same sort partition.
"""

from __future__ import annotations

import numpy as np

MAX_LEVEL = 29


def _part1by1(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of v into even bit positions."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _compact1by1(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64) & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def morton_encode(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _part1by1(np.asarray(x)) | (_part1by1(np.asarray(y)) << np.uint64(1))


def morton_decode(m: np.ndarray):
    m = np.asarray(m, dtype=np.uint64)
    return _compact1by1(m), _compact1by1(m >> np.uint64(1))


def lonlat_to_xy(lon, lat, level: int):
    n = np.int64(1) << level
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    # non-finite coordinates must fail here — floor(nan).astype(int64)
    # is INT64_MIN, which the edge clamp below would silently turn into
    # the valid southwest-corner cell (a garbage row joining a real
    # cell is far worse than a loud error); out-of-range lon wraps like
    # k_ring's longitude arithmetic, lat clamps at the poles
    if not (np.isfinite(lon).all() and np.isfinite(lat).all()):
        raise ValueError("lonlat_to_xy: non-finite lon/lat")
    x = np.floor((lon + 180.0) / 360.0 * n).astype(np.int64) % n
    y = np.floor((lat + 90.0) / 180.0 * n).astype(np.int64)
    # clamp the +90 edge (and any out-of-range lat) into the edge cell
    np.clip(y, 0, n - 1, out=y)
    return x, y


def encode(lon, lat, level: int) -> np.ndarray:
    """(lon, lat) -> int64 cell id at `level`."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
    x, y = lonlat_to_xy(lon, lat, level)
    m = morton_encode(x.astype(np.uint64), y.astype(np.uint64))
    return ((np.uint64(level) << np.uint64(58)) | m).astype(np.int64)


def level_of(cell) -> np.ndarray:
    return (np.asarray(cell).astype(np.uint64) >> np.uint64(58)).astype(np.int64)


def xy_of(cell):
    c = np.asarray(cell).astype(np.uint64)
    m = c & np.uint64((1 << 58) - 1)
    x, y = morton_decode(m)
    return x.astype(np.int64), y.astype(np.int64)


def parent(cell, steps: int = 1) -> np.ndarray:
    c = np.asarray(cell)
    lvl = level_of(c)
    new_lvl = lvl - steps
    if (new_lvl < 0).any():
        raise ValueError("parent below level 0")
    m = c.astype(np.uint64) & np.uint64((1 << 58) - 1)
    m = m >> (np.uint64(2) * np.uint64(steps))
    return ((new_lvl.astype(np.uint64) << np.uint64(58)) | m).astype(np.int64)


def children(cell) -> np.ndarray:
    """The 4 children of each cell; returns shape (n, 4)."""
    c = np.atleast_1d(np.asarray(cell))
    lvl = level_of(c)
    if (lvl >= MAX_LEVEL).any():
        raise ValueError("children above max level")
    m = (c.astype(np.uint64) & np.uint64((1 << 58) - 1)) << np.uint64(2)
    kids = m[:, None] | np.arange(4, dtype=np.uint64)[None, :]
    return (((lvl + 1).astype(np.uint64)[:, None] << np.uint64(58)) | kids).astype(np.int64)


def from_xy(x, y, level: int) -> np.ndarray:
    if not 0 <= level <= MAX_LEVEL:
        # level 30+ morton bits overflow the 58-bit field and collide
        # across unrelated cells — same guard as encode()
        raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
    m = morton_encode(np.asarray(x).astype(np.uint64), np.asarray(y).astype(np.uint64))
    return ((np.uint64(level) << np.uint64(58)) | m).astype(np.int64)


def k_ring(cell: int, k: int = 1) -> np.ndarray:
    """All cells within Chebyshev distance k of `cell` (same level).
    Longitude wraps; latitude clamps at the poles."""
    lvl = int(level_of(np.int64(cell)))
    n = 1 << lvl
    x, y = xy_of(np.int64(cell))
    x, y = int(x), int(y)
    dx, dy = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1))
    xs = (x + dx.ravel()) % n
    ys = y + dy.ravel()
    ok = (ys >= 0) & (ys < n)
    return np.unique(from_xy(xs[ok], ys[ok], lvl))


def ring_distance(cell_a, cell_b) -> np.ndarray:
    """Chebyshev grid distance between same-level cells (lon-wrapped)."""
    la = level_of(np.atleast_1d(cell_a))
    lb = level_of(np.atleast_1d(cell_b))
    if (la != la[0]).any() or (lb != la[0]).any():
        # mixed levels decode coordinates in different grids; a direct
        # difference would be plausible-looking garbage
        raise ValueError("ring_distance requires same-level cells")
    lvl = int(la[0])
    n = 1 << lvl
    xa, ya = xy_of(cell_a)
    xb, yb = xy_of(cell_b)
    dx = np.abs(xa - xb)
    dx = np.minimum(dx, n - dx)
    dy = np.abs(ya - yb)
    return np.maximum(dx, dy)


def cover_bbox(minlon, minlat, maxlon, maxlat, level: int) -> np.ndarray:
    """All cell ids at `level` intersecting the bbox. A bbox crossing
    the antimeridian (minlon > maxlon) splits into two lobes; an
    inverted LATITUDE range is an error (there is no wrap there)."""
    if minlat > maxlat:
        raise ValueError("cover_bbox: minlat > maxlat")
    if minlon > maxlon:
        # antimeridian crossing: union of the [minlon, 180] and
        # [-180, maxlon] lobes (used to silently return an EMPTY cover,
        # dropping every point of the region from any join prefilter)
        return np.unique(
            np.concatenate(
                [
                    cover_bbox(minlon, minlat, 180.0, maxlat, level),
                    cover_bbox(-180.0, minlat, maxlon, maxlat, level),
                ]
            )
        )
    n = 1 << level
    x0 = max(0, int(np.floor((minlon + 180.0) / 360.0 * n)))
    x1 = min(n - 1, int(np.floor((maxlon + 180.0) / 360.0 * n)))
    y0 = max(0, int(np.floor((minlat + 90.0) / 180.0 * n)))
    y1 = min(n - 1, int(np.floor((maxlat + 90.0) / 180.0 * n)))
    xs, ys = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
    return from_xy(xs.ravel(), ys.ravel(), level)


def cell_bounds(cell):
    """(minlon, minlat, maxlon, maxlat) of each cell."""
    c = np.atleast_1d(np.asarray(cell))
    lvl = level_of(c)
    n = (np.int64(1) << lvl).astype(np.float64)
    x, y = xy_of(c)
    minlon = x / n * 360.0 - 180.0
    maxlon = (x + 1) / n * 360.0 - 180.0
    minlat = y / n * 180.0 - 90.0
    maxlat = (y + 1) / n * 180.0 - 90.0
    return minlon, minlat, maxlon, maxlat


def cover_polygon(rings, level: int) -> np.ndarray:
    """Conservative polygon cover = the cover of its bbox. This is a
    SUPERSET of the cells the polygon touches (up to bbox-minus-polygon
    overcount for thin diagonals), which is exactly what a join
    PREFILTER needs; it is NOT a tight cover — don't use it for area
    estimation or cell counting."""
    from .geom import polygon_bbox

    minx, miny, maxx, maxy = polygon_bbox(rings)
    return cover_bbox(minx, miny, maxx, maxy, level)


def compact(cells: np.ndarray) -> np.ndarray:
    """Replace any complete set of 4 siblings by their parent,
    recursively (H3 compact analog). Input: unique same-level ids."""
    cells = np.unique(np.asarray(cells, dtype=np.int64))
    out = []
    cur = cells
    while len(cur):
        lvl = level_of(cur)
        if (lvl == 0).all():
            out.append(cur)
            break
        # group by parent: a parent is complete iff 4 children present
        par = parent(cur)
        uniq, counts = np.unique(par, return_counts=True)
        complete = uniq[counts == 4]
        if len(complete) == 0:
            out.append(cur)
            break
        is_promoted = np.isin(par, complete)
        out.append(cur[~is_promoted])
        cur = complete
    return np.concatenate(out) if out else cells
