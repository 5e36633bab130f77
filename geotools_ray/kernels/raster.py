"""Raster / windowed-neighborhood kernels — exact reference semantics
over full numpy grids.  These are the single-grid oracles; the
tile-parallel versions in ops/raster.py must reproduce them exactly
(asserted in tests).

Grids are 2-D float64 numpy arrays with NODATA sentinel -9999.0
(value grids) as in the reference (src/lasgrid.cpp:231,478).
"""

from __future__ import annotations

import numpy as np

NODATA = -9999.0


def gaussian_weights(size: int, sigma: float) -> np.ndarray:
    """Grid<T>::gaussianWeights (src/raster.cpp:42-56). size bumped to
    odd."""
    if size % 2 == 0:
        size += 1
    r = np.arange(size)
    x = size // 2 - r  # note: x from cols, y from rows — symmetric
    xx, yy = np.meshgrid(x, x)
    return (1.0 / (2.0 * np.pi * sigma * sigma)) * np.exp(
        -((xx * xx + yy * yy) / (2.0 * sigma * sigma))
    )


def smooth(grid: np.ndarray, sigma: float, size: int, nodata: float = NODATA) -> np.ndarray:
    """Grid<T>::smooth (src/raster.cpp:224-300): gaussian convolution;
    ANY nodata inside the window -> output nodata; border cells where
    the window does not fit stay nodata (the reference only writes
    centers at size/2 .. dim-size/2).

    NOTE the reference quirk: its per-strip loops run r < rows-size
    (not rows-size+1), so the LAST valid center row/col is
    dim - size/2 - 2, not dim - size/2 - 1 — reproduced here.
    """
    if size % 2 == 0:
        size += 1
    h, w = grid.shape
    half = size // 2
    out = np.full_like(grid, nodata, dtype=np.float64)
    weights = gaussian_weights(size, sigma)
    valid = grid != nodata
    # sliding windows (h-size+1, w-size+1, size, size)
    if h < size or w < size:
        return out
    sw = np.lib.stride_tricks.sliding_window_view(grid, (size, size))
    vw = np.lib.stride_tricks.sliding_window_view(valid, (size, size))
    all_valid = vw.all(axis=(2, 3))
    conv = np.einsum("ijkl,kl->ij", sw, weights)
    # reference loop bound: r in [0, strip_rows - size) => one row/col
    # short at the far edge
    res = np.where(all_valid, conv, nodata)
    out[half : half + sw.shape[0] - 1, half : half + sw.shape[1] - 1] = res[:-1, :-1]
    return out


def _shift_add(acc: np.ndarray, src: np.ndarray, dr: int, dc: int, wgt: float):
    """acc[p] += wgt * src[p + (dr, dc)] for in-bounds p."""
    h, w = acc.shape
    acc[max(0, -dr) : h - max(0, dr), max(0, -dc) : w - max(0, dc)] += (
        wgt * src[max(0, dr) : h + min(0, dr), max(0, dc) : w + min(0, dc)]
    )


def void_fill_idw_vec(
    grid: np.ndarray,
    radius: float,
    count: int,
    exp: float,
    max_radius: int,
    nodata: float = NODATA,
) -> np.ndarray:
    """Vectorized expanding-radius IDW void fill: per radius step the
    newly-covered ring of offsets is accumulated as shifted adds
    (O(|disk|) full-grid adds instead of a per-pixel loop); a pixel is
    resolved at the FIRST radius whose disk holds >= count valid
    neighbours, exactly as the reference's expansion loop."""
    h, w = grid.shape
    out = grid.copy()
    voids = grid == nodata
    if not voids.any():
        return out
    valid = (~voids).astype(np.float64)
    vals = np.where(voids, 0.0, grid)
    # offsets grouped by the radius step that first covers them
    mr = int(max_radius)
    rr, cc = np.meshgrid(np.arange(-mr, mr + 1), np.arange(-mr, mr + 1), indexing="ij")
    d2 = (rr * rr + cc * cc).astype(np.float64)
    sel = (d2 > 0) & (d2 <= mr * mr)
    offs = sorted(
        zip(rr[sel].tolist(), cc[sel].tolist(), d2[sel].tolist()), key=lambda t: t[2]
    )
    num = np.zeros((h, w))
    den = np.zeros((h, w))
    cnt = np.zeros((h, w))
    done = ~voids
    oi = 0
    rad = int(radius)
    while rad <= mr:
        lim = float(rad * rad)
        while oi < len(offs) and offs[oi][2] <= lim:
            dr, dc, dd = offs[oi]
            wgt = 1.0 / np.power(dd, exp)
            _shift_add(num, vals * valid * wgt, int(dr), int(dc), 1.0)
            _shift_add(den, valid, int(dr), int(dc), wgt)
            _shift_add(cnt, valid, int(dr), int(dc), 1.0)
            oi += 1
        newly = (~done) & (cnt >= count)
        if newly.any():
            out[newly] = num[newly] / den[newly]
            done |= newly
        rad += 1
    return out


def void_fill_idw(
    grid: np.ndarray, radius: float, count: int, exp: float, nodata: float = NODATA
) -> np.ndarray:
    """Grid<T>::voidFillIDW (src/raster.cpp:162-222): for each nodata
    cell, expand radius by 1 until >= count valid neighbours within
    (squared-)distance <= radius^2; weight = 1/(d2^exp) where d2 is the
    SQUARED cell distance (reference passes g_sq values to pow).
    The expansion loop runs while rad < min(h, w)."""
    h, w = grid.shape
    return void_fill_idw_vec(grid, radius, count, exp, min(h, w) - 1, nodata)


def local_maxima(
    grid: np.ndarray, window: int, min_height: float, nodata: float = NODATA
) -> list[tuple[int, int, float]]:
    """Treetop detection (src/treetops.cpp:72-91 isMaxCenter +
    :199-212): center of each window is a top iff center >= min_height,
    center != nodata, and the row-major first-maximum of the window is
    the center (ties: an EARLIER equal value wins, a LATER equal value
    does not displace).  Returns (col, row, value) of tops.

    Reference quirk: both loops run one window short (col < cols -
    window; the row strips' bufSize0 = rows - brow - window likewise),
    so centers in the last window/2+1 columns/rows are never
    considered. Reproduced.
    """
    h, w = grid.shape
    half = window // 2
    if h < window + 1 or w < window + 1:
        return []
    # windows whose top-left is in [0, h-window) x [0, w-window) —
    # vectorized row-major first-argmax over sliding windows
    vals = np.where(grid != nodata, grid, -np.inf)
    sw = np.lib.stride_tricks.sliding_window_view(vals, (window, window))
    sw = sw[: h - window - 1 + 1, : w - window - 1 + 1]  # drop the last start (quirk)
    nh, nw = h - window, w - window
    sw = sw[:nh, :nw].reshape(nh, nw, window * window)
    first = sw.argmax(axis=2)  # row-major FIRST max (argmax tie rule)
    mx = np.take_along_axis(sw, first[..., None], axis=2)[..., 0]
    center_flat = half * window + half
    cv = grid[half : half + nh, half : half + nw]
    ok = (
        (first == center_flat)
        & (mx > 0)
        & np.isfinite(mx)
        & (cv != nodata)
        & (cv >= min_height)
    )
    rs, cs = np.nonzero(ok)
    return [
        (int(c + half), int(r + half), float(grid[r + half, c + half]))
        for r, c in zip(rs.tolist(), cs.tolist())
    ]


def find_minima(grid: np.ndarray, nodata: float = NODATA) -> list[tuple[int, int, float]]:
    """Flood seeds (src/flood.cpp:430-452): cell is a seed iff no
    non-nodata 8-neighbour is strictly lower."""
    h, w = grid.shape
    # vectorized: min of the 8 shifted neighbour grids (nodata -> +inf)
    vals = np.where(grid != nodata, grid, np.inf)
    nbmin = np.full((h, w), np.inf)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            src = vals[
                max(0, dr) : h + min(0, dr), max(0, dc) : w + min(0, dc)
            ]
            dst = nbmin[
                max(0, -dr) : h - max(0, dr), max(0, -dc) : w - max(0, dc)
            ]
            np.minimum(dst, src, out=dst)
    ok = (grid != nodata) & ~(nbmin < grid)
    rs, cs = np.nonzero(ok)
    return [(int(c), int(r), float(grid[r, c])) for r, c in zip(rs.tolist(), cs.tolist())]


def tan_curve(step: float, steps: float) -> float:
    """mosaic tanCurve (src/mosaic.cpp:31-34)."""
    step = min(steps, max(0.0, step))
    return float(np.tanh(((step - steps / 2.0) / (steps / 2.0)) * np.pi) * 0.5 + 0.5)


def feather(src: np.ndarray, distance: float, resolution: float, nodata: float = NODATA):
    """mosaic feather (src/mosaic.cpp:56-99): snow-in erosion assigning
    tanCurve(step) alpha to successive edge layers. Returns the alpha
    grid (dst starts unspecified in the reference; we use 1.0 for
    interior never reached, 0 elsewhere — interior pixels past the
    feather distance keep alpha from initialization, which the
    reference's caller primes to 1).
    """
    h, w = src.shape
    fill = (src != nodata).astype(np.int8)
    if fill.sum() == 0:
        return None
    alpha = np.ones((h, w), dtype=np.float64)
    alpha[fill == 0] = 0.0
    steps = max(1.0, distance / resolution)
    step = 0.0
    while step <= steps:
        # edge pixel: fill==1 and any 8-neighbour is 0 OR on grid border
        # (isEdgePixel treats c<=0 / r<=0 / c>=cols-1 / r>=rows-1 as edge,
        # src/mosaic.cpp:40-53)
        f = fill == 1
        pad = np.pad(fill == 0, 1, constant_values=True)
        nb_zero = np.zeros((h, w), dtype=bool)
        for dr in (0, 1, 2):
            for dc in (0, 1, 2):
                nb_zero |= pad[dr : dr + h, dc : dc + w]
        border = np.zeros((h, w), dtype=bool)
        border[0, :] = border[-1, :] = True
        border[:, 0] = border[:, -1] = True
        edge = f & (nb_zero | border)
        if not edge.any():
            break
        alpha[edge] = tan_curve(step, steps)
        fill[edge] = 0
        step += 1.0
    return alpha


def blend(im: np.ndarray, bg: np.ndarray, alpha: np.ndarray, im_nodata: float,
          bg_nodata: float, buffer: int = 0) -> np.ndarray:
    """mosaic blend (src/mosaic.cpp:104-115): bg = bg*(1-a) + im*a where
    both valid; interior-only when buffer > 0."""
    out = bg.copy()
    h, w = im.shape
    r0, r1 = buffer, h - buffer
    c0, c1 = buffer, w - buffer
    sub_im = im[r0:r1, c0:c1]
    sub_bg = bg[r0:r1, c0:c1]
    sub_a = alpha[r0:r1, c0:c1]
    ok = (sub_bg != bg_nodata) & (sub_im != im_nodata)
    out[r0:r1, c0:c1] = np.where(ok, sub_bg * (1.0 - sub_a) + sub_im * sub_a, sub_bg)
    return out


def flood_fill_label(grid: np.ndarray, elevation: float, nodata: float = NODATA) -> np.ndarray:
    """Label connected regions (4-connectivity, as the reference's
    scanline-BFS floodFill, include/raster.hpp:215-299) of cells with
    value <= elevation (LEFillOperator), excluding nodata... note the
    reference operator tests value <= elevation only; nodata (-9999)
    passes `<=` and IS filled — but seeds come from minima which skip
    nodata. We label all cells passing the operator, reference-faithful.

    Returns int32 label grid (0 = unlabeled), labels assigned in
    scan order of the first cell reached.
    """
    h, w = grid.shape
    fillable = grid <= elevation
    labels = np.zeros((h, w), dtype=np.int32)
    nxt = 0
    from collections import deque

    for sr in range(h):
        for sc in range(w):
            if not fillable[sr, sc] or labels[sr, sc]:
                continue
            nxt += 1
            q = deque([(sr, sc)])
            labels[sr, sc] = nxt
            while q:
                r, c = q.popleft()
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= rr < h and 0 <= cc < w and fillable[rr, cc] and not labels[rr, cc]:
                        labels[rr, cc] = nxt
                        q.append((rr, cc))
    return labels


def basin_edges(labels: np.ndarray, basin_id: int) -> list[tuple[int, int]]:
    """computeEdges (src/flood.cpp:150-173): cells of the basin with
    any 8-neighbour (in bounds) not equal to the basin id. Off-grid
    neighbours do NOT count."""
    h, w = labels.shape
    out = []
    rs, cs = np.nonzero(labels == basin_id)
    for r, c in zip(rs.tolist(), cs.tolist()):
        edge = False
        for rr in range(r - 1, r + 2):
            for cc in range(c - 1, c + 2):
                if (cc == c and rr == r) or not (0 <= rr < h and 0 <= cc < w):
                    continue
                if labels[rr, cc] != basin_id:
                    edge = True
                    break
            if edge:
                break
        if edge:
            out.append((c, r))
    return out


def spill_points(
    labels: np.ndarray, max_dist: float, res_x: float = 1.0, res_y: float = 1.0
) -> list[tuple[int, int, int, int, int, int, float]]:
    """findSpillPoints (src/flood.cpp:369-401): all pairs of basin edge
    cells from different basins within max_dist (cell-centre distance
    scaled by resolution). Returns (id1, c1, r1, id2, c2, r2, dist)."""
    ids = sorted(int(i) for i in np.unique(labels) if i != 0)
    edges = {i: basin_edges(labels, i) for i in ids}
    out = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            for c1, r1 in edges[ids[a]]:
                for c2, r2 in edges[ids[b]]:
                    dist = np.sqrt(((c1 - c2) * res_x) ** 2 + ((r1 - r2) * res_y) ** 2)
                    if dist <= max_dist:
                        out.append((ids[a], c1, r1, ids[b], c2, r2, float(dist)))
    return out


def crown_growth(
    grid: np.ndarray,
    tops: list[tuple[int, int, int, float]],
    min_height: float,
    height_fraction: float,
    radius: float,
    nodata: float = NODATA,
) -> np.ndarray:
    """Treetop crown delineation (src/treetops.cpp:279-408): multi-
    source FIFO BFS from `tops` [(id, col, row, z), ...], 8-neighbour
    offsets in the reference's order, claiming a neighbour cell iff
      v != nodata AND v < current.z AND v >= min_height AND
      v / top.z >= height_fraction AND
      (dc^2 + dr^2) <= radius^2 from the top.
    Cells are claimed once (visited on enqueue); each popped node
    stamps its id (later pops overwrite — reproduced).
    Returns an int64 id grid (0 = unclaimed)."""
    from collections import deque

    h, w = grid.shape
    out = np.zeros((h, w), dtype=np.int64)
    visited = np.zeros((h, w), dtype=bool)
    offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    q = deque()
    for tid, c, r, z in tops:
        q.append((tid, c, r, z, c, r, z))  # id, c, r, z, top_c, top_r, top_z
    r2 = radius * radius
    while q:
        tid, c, r, z, tc, tr, tz = q.popleft()
        out[r, c] = tid
        for dc, dr in offsets:
            cc, rr = c + dc, r + dr
            if not (0 <= rr < h and 0 <= cc < w) or visited[rr, cc]:
                continue
            v = grid[rr, cc]
            if (
                v != nodata
                and v < z
                and v >= min_height
                and (v / tz) >= height_fraction
                and (tc - cc) ** 2 + (tr - rr) ** 2 <= r2
            ):
                q.append((tid, cc, rr, v, tc, tr, tz))
                visited[rr, cc] = True
    return out


def edge_cells_boundary(occ: np.ndarray) -> list[tuple[int, int]]:
    """lasboundary edge cells (src/lasboundary.cpp:85-99): occupied
    cells that do NOT have all 8 neighbours occupied (grid-border
    occupied cells are always edges)."""
    h, w = occ.shape
    occb = occ.astype(bool)
    pad = np.pad(occb, 1, constant_values=False)
    all_nb = np.ones((h, w), dtype=bool)
    for dr in (0, 1, 2):
        for dc in (0, 1, 2):
            if dr == 1 and dc == 1:
                continue
            all_nb &= pad[dr : dr + h, dc : dc + w]
    border = np.zeros((h, w), dtype=bool)
    border[0, :] = border[-1, :] = True
    border[:, 0] = border[:, -1] = True
    edge = occb & (border | ~all_nb)
    rs, cs = np.nonzero(edge)  # row-major == the scan order above
    return [(int(c), int(r)) for r, c in zip(rs, cs)]


def srtm_lakes(grid: np.ndarray, minsize: int, nodata: float = NODATA) -> np.ndarray:
    """R12 lake flattening (src/utils/srtm_lakes.cpp:23-93): row-major
    seed scan; 8-connected BFS collects cells EQUAL to the seed
    elevation; every popped cell is consumed (set nodata in the work
    grid) even when unequal — the reference's quirk, reproduced — and
    regions of >= minsize cells write their elevation into the water
    grid (else nothing)."""
    from collections import deque

    h, w = grid.shape
    work = grid.copy()
    water = np.zeros_like(grid)
    for sr in range(h):
        for sc in range(w):
            el = work[sr, sc]
            if el == nodata:
                continue
            q = deque([(sc, sr)])
            out = []
            while q:
                c, r = q.popleft()
                if c < 0 or r < 0 or c >= w or r >= h:
                    continue
                v = work[r, c]
                if v != nodata:
                    work[r, c] = nodata
                    if v == el:
                        out.append((c, r))
                        for dc, dr in ((-1, 0), (1, 0), (0, -1), (0, 1),
                                       (-1, -1), (-1, 1), (1, -1), (1, 1)):
                            q.append((c + dc, r + dr))
            if len(out) >= minsize:
                for c, r in out:
                    water[r, c] = el
    return water
