"""Numpy-vectorized Bowyer-Watson Delaunay triangulation for per-cell
point sets (the scipy-free replacement for the reference's CGAL usage
in pointnormalize/lasvalidate/rugosity).

Insertion is sequential (deterministic in input order) but each
insertion's circumcircle tests and each query's point location run
vectorized over all triangles — ~1k-point cells triangulate in
fractions of a second instead of minutes.
"""

from __future__ import annotations

import numpy as np


def delaunay(points: np.ndarray) -> list[tuple[int, int, int]]:
    """-> list of triangles as index triples into `points` (n, 2).

    Bowyer-Watson with a SYMBOLIC infinite vertex (index -1) instead
    of a finite super-triangle: a finite super-triangle culls every
    sliver whose circumradius exceeds its span, so near-collinear
    point sets (a single flight-line strip crossing a cell — common
    lidar geometry) triangulated to NOTHING. With the infinite vertex
    the predicates are local: finite triangles (stored CCW) use the
    strict in-circumcircle determinant; an infinite triangle
    (u, v, -1) represents the half-plane left of hull edge u->v
    (hull edges directed CW), and a point falls in its "circumdisk"
    iff it is strictly left of u->v, or exactly on the edge's open
    segment (which dissolves the hull edge). Exactly-collinear inputs
    return [] (no TIN exists)."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < 3:
        return []
    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1])

    # initial triangle: first distinct pair, first non-collinear third
    nz = np.flatnonzero((x != x[0]) | (y != y[0]))
    if not len(nz):
        return []
    j = int(nz[0])
    cr = (x[j] - x[0]) * (y - y[0]) - (y[j] - y[0]) * (x - x[0])
    nz2 = np.flatnonzero(cr != 0)
    if not len(nz2):
        return []  # all points collinear
    k0 = int(nz2[0])
    i0, i1, i2 = 0, j, k0
    if cr[k0] < 0:
        i1, i2 = i2, i1  # make (i0, i1, i2) CCW
    tris = np.array(
        [[i0, i1, i2], [i1, i0, -1], [i2, i1, -1], [i0, i2, -1]],
        dtype=np.int64,
    )

    used = {i0, i1, i2}
    for i in range(n):
        if i in used:
            continue
        px, py = x[i], y[i]
        u, v, w = tris[:, 0], tris[:, 1], tris[:, 2]
        is_fin = w >= 0
        ws = np.where(is_fin, w, 0)  # safe index for the -1 slot
        ax = x[u] - px
        ay = y[u] - py
        bx = x[v] - px
        by = y[v] - py
        cx_ = x[ws] - px
        cy_ = y[ws] - py
        det = (
            (ax * ax + ay * ay) * (bx * cy_ - by * cx_)
            - (bx * bx + by * by) * (ax * cy_ - ay * cx_)
            + (cx_ * cx_ + cy_ * cy_) * (ax * by - ay * bx)
        )
        # infinite: strictly left of the CW hull edge u->v, or exactly
        # on its open segment (then the edge itself must dissolve);
        # collinear-BEYOND points are caught strictly by the adjacent
        # hull edge at the turn, so they must NOT mark this one bad
        # (that would fabricate a degenerate triangle on the edge line)
        ex = x[v] - x[u]
        ey = y[v] - y[u]
        o = ex * (py - y[u]) - ey * (px - x[u])
        t = (px - x[u]) * ex + (py - y[u]) * ey
        L2 = ex * ex + ey * ey
        # strict t bounds: o==0 with t==0 (or t==L2) means p IS the hull
        # vertex u (resp. v) — a duplicate to skip, not an edge dissolve
        bad = np.where(
            is_fin, det > 0, (o > 0) | ((o == 0) & (t > 0) & (t < L2))
        )
        if not bad.any():
            continue  # duplicate of an existing vertex
        bad_tris = tris[bad]
        tris = tris[~bad]
        # cavity boundary = DIRECTED edges appearing exactly once (a
        # shared edge appears once per direction and cancels)
        edges = np.concatenate(
            [bad_tris[:, [0, 1]], bad_tris[:, [1, 2]], bad_tris[:, [2, 0]]]
        )
        lo = np.minimum(edges[:, 0], edges[:, 1]) + 1  # -1 -> 0
        hi = np.maximum(edges[:, 0], edges[:, 1]) + 1
        key = lo * np.int64(n + 2) + hi
        uniq, first_idx, counts = np.unique(key, return_index=True, return_counts=True)
        boundary = edges[first_idx[counts == 1]]  # keep stored direction
        bx_, by_ = boundary[:, 0], boundary[:, 1]
        pcol = np.full(len(boundary), i, dtype=np.int64)
        # (bx, by, i), rotated so the infinite vertex sits in slot 2
        # (cyclic order — and thus orientation — is preserved)
        new = np.where(
            (bx_ == -1)[:, None],
            np.column_stack([by_, pcol, bx_]),
            np.where(
                (by_ == -1)[:, None],
                np.column_stack([pcol, bx_, by_]),
                np.column_stack([bx_, by_, pcol]),
            ),
        )
        tris = np.vstack([tris, new])

    keep = (tris >= 0).all(axis=1)
    return [tuple(t) for t in tris[keep]]


def interp_tin(qx, qy, pts_xy: np.ndarray, pts_z: np.ndarray, nodata=np.nan):
    """Interpolate z at (qx, qy) arrays from a TIN of the sample points
    (barycentric inside the containing triangle — the reference's
    interpolateTriangle semantics, src/lasvalidate.cpp:169-232);
    queries outside the hull -> nodata."""
    tris = delaunay(pts_xy)
    qx = np.atleast_1d(np.asarray(qx, dtype=np.float64))
    qy = np.atleast_1d(np.asarray(qy, dtype=np.float64))
    out = np.full(len(qx), nodata, dtype=np.float64)
    if not tris:
        return out
    T = np.asarray(tris, dtype=np.int64)
    interp_corners(
        qx, qy,
        pts_xy[T[:, 0]], pts_xy[T[:, 1]], pts_xy[T[:, 2]],
        pts_z[T[:, 0]], pts_z[T[:, 1]], pts_z[T[:, 2]],
        out,
    )
    return out


def interp_corners(qx, qy, a, b, c, za, zb, zc, out) -> None:
    """Barycentric interpolation against explicit triangle corner
    arrays (n_tri, 2) — writes into `out` in place, leaving misses
    untouched. First containing triangle in array order wins (the
    interp_tin quirk). Callers with MANY disjoint TINs (one per cell)
    concatenate their corners and make ONE call: the chunked bbox
    prune keeps each query chunk against its own cell's triangles as
    long as queries arrive cell-sorted and cells are offset to
    disjoint x-ranges."""
    det = (b[:, 1] - c[:, 1]) * (a[:, 0] - c[:, 0]) + (c[:, 0] - b[:, 0]) * (a[:, 1] - c[:, 1])
    ok_tri = det != 0
    eps = 1e-12
    # triangle bboxes for pruning (bbox superset -> excluding a
    # triangle by bbox can never drop a containing triangle)
    tminx = np.minimum(np.minimum(a[:, 0], b[:, 0]), c[:, 0])
    tmaxx = np.maximum(np.maximum(a[:, 0], b[:, 0]), c[:, 0])
    tminy = np.minimum(np.minimum(a[:, 1], b[:, 1]), c[:, 1])
    tmaxy = np.maximum(np.maximum(a[:, 1], b[:, 1]), c[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        # chunked queries x candidate triangles: callers pass queries
        # in (x, y) sorted order, so each chunk spans a narrow x-range
        # and the bbox prune keeps the candidate set small
        chunk = 256
        for s in range(0, len(qx), chunk):
            px = qx[s : s + chunk]
            py = qy[s : s + chunk]
            sel = np.nonzero(
                ok_tri
                & (tmaxx >= px.min()) & (tminx <= px.max())
                & (tmaxy >= py.min()) & (tminy <= py.max())
            )[0]
            if not len(sel):
                continue
            ax, ay = a[sel, 0], a[sel, 1]
            bx, by = b[sel, 0], b[sel, 1]
            cx, cy = c[sel, 0], c[sel, 1]
            d = det[sel]
            l1 = ((by - cy)[None, :] * (px[:, None] - cx[None, :]) + (cx - bx)[None, :] * (py[:, None] - cy[None, :])) / d[None, :]
            l2 = ((cy - ay)[None, :] * (px[:, None] - cx[None, :]) + (ax - cx)[None, :] * (py[:, None] - cy[None, :])) / d[None, :]
            l3 = 1.0 - l1 - l2
            inside = (l1 >= -eps) & (l2 >= -eps) & (l3 >= -eps)
            any_hit = inside.any(axis=1)
            # first containing triangle in original list order: sel is
            # ascending, so argmax over the subset picks the same one
            first = np.argmax(inside, axis=1)
            rows = np.nonzero(any_hit)[0]
            t = sel[first[rows]]
            r1 = l1[rows, first[rows]]
            r2 = l2[rows, first[rows]]
            r3 = l3[rows, first[rows]]
            out[s + rows] = r1 * za[t] + r2 * zb[t] + r3 * zc[t]
