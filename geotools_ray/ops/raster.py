"""Tile-parallel raster operators over tile-row Datasets (SURVEY §1.3):

    (trow:int64, tcol:int64, h:int32, w:int32, data:list<float64>)

A full raster = a Dataset of disjoint tiles of a global H x W grid.
Windowed ops exchange HALOS: each tile flat-maps the border strips its
neighbours need, a grouped_map by tile key assembles the padded tile,
the numpy kernel runs on it, and only the interior is emitted — the
Ray Data restatement of the reference's strip/tile + buffer pattern
(src/raster.cpp:237-257 strips, src/mosaic.cpp:296-357 tiles,
src/treetops.cpp:172-232 strips).

All tile ops are tested for EXACT equality against the full-grid
kernels in kernels/raster.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..kernels import raster as KR
from ..stages.grouped import grouped_map

NODATA = KR.NODATA


def list_col_views(col) -> list[np.ndarray]:
    """Tile `data` column -> per-row numpy views of the flat values
    (zero copy; no .as_py() python-object explosion — a 1024-px
    reference tile would otherwise box a million floats). Handles
    arrow list/large_list AND Ray's tensor extension types (what a
    pandas block with ndarray cells converts to)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if isinstance(t, pa.ExtensionType):  # ray ArrowTensorArray variants
        arr = col.to_numpy(zero_copy_only=False)
        return [np.asarray(v, dtype=np.float64).ravel() for v in arr]
    if pa.types.is_fixed_size_list(t):
        k = t.list_size
        flat = col.values.to_numpy(zero_copy_only=False)
        off0 = col.offset * k
        return [flat[off0 + i * k : off0 + (i + 1) * k] for i in range(len(col))]
    offs = col.offsets.to_numpy(zero_copy_only=False)
    flat = col.values.to_numpy(zero_copy_only=False)
    return [flat[offs[i] : offs[i + 1]] for i in range(len(col))]


def list_col_of(arrays: list[np.ndarray]) -> pa.ListArray:
    """list<float64> column from flat numpy buffers — the WRITE-side
    counterpart of list_col_views: one concatenate + zero-copy offsets,
    never a python-float boxing pass (`.ravel().tolist()` on a
    1024-px reference tile boxes a million floats per tile per hop)."""
    lens = np.fromiter((a.size for a in arrays), dtype=np.int64, count=len(arrays))
    if lens.sum() >= 2**31:  # int32 list offsets; size num_parts down instead
        raise ValueError("tile batch exceeds 2^31 values; increase num_parts")
    offs = np.zeros(len(arrays) + 1, dtype=np.int32)
    np.cumsum(lens, out=offs[1:])
    vals = (
        np.ascontiguousarray(np.concatenate([a.ravel() for a in arrays]))
        if arrays else np.array([], dtype=np.float64)
    )
    return pa.ListArray.from_arrays(
        pa.array(offs, pa.int32()),
        pa.array(vals.astype(np.float64, copy=False), pa.float64()),
    )


def group_slices(*keys: np.ndarray):
    """Stable group boundaries over parallel key arrays. Returns
    (order, [(s, e), ...]): one lexsort, then each (s, e) slice of
    `order` indexes one group's rows in the original table — the
    vectorized replacement for df.groupby(...) + iterrows in tile
    assembly."""
    order = np.lexsort(tuple(reversed(keys)))
    n = len(order)
    if n == 0:
        return order, []
    ks = [k[order] for k in keys]
    brk = np.zeros(n, dtype=bool)
    for k in ks:
        brk[1:] |= k[1:] != k[:-1]
    starts = np.concatenate([[0], np.nonzero(brk)[0]])
    ends = np.concatenate([starts[1:], [n]])
    return order, list(zip(starts.tolist(), ends.tolist()))


def iter_padded_tiles(t: pa.Table, tile: int, halo: int, H: int, W: int, nodata: float):
    """Assemble each (trow, tcol) group of halo pieces into a padded
    tile array — zero-copy reads via list_col_views, one lexsort.
    Yields (tr, tc, gr0, gc0, h, w, padded)."""
    views = list_col_views(t["data"])
    trs = t["trow"].to_numpy(zero_copy_only=False)
    tcs = t["tcol"].to_numpy(zero_copy_only=False)
    ys = t["y"].to_numpy(zero_copy_only=False)
    xs = t["x"].to_numpy(zero_copy_only=False)
    phs = t["ph"].to_numpy(zero_copy_only=False)
    pws = t["pw"].to_numpy(zero_copy_only=False)
    order, slices = group_slices(trs, tcs)
    for s, e in slices:
        g = order[s:e]
        tr = int(trs[g[0]])
        tc = int(tcs[g[0]])
        gr0, gc0 = tr * tile, tc * tile
        h = min(tile, H - gr0)
        w = min(tile, W - gc0)
        padded = np.full((h + 2 * halo, w + 2 * halo), nodata, dtype=np.float64)
        for i in g:
            y, x, ph, pw = int(ys[i]), int(xs[i]), int(phs[i]), int(pws[i])
            padded[y : y + ph, x : x + pw] = views[i].reshape(ph, pw)
        yield tr, tc, gr0, gc0, h, w, padded


# ---------------------------------------------------------------------------
# tile <-> grid helpers (driver-side, used by tests and export edges)

def grid_to_tiles(grid: np.ndarray, tile: int) -> pa.Table:
    H, W = grid.shape
    trs, tcs, hs, ws, arrays = [], [], [], [], []
    for tr in range(0, H, tile):
        for tc in range(0, W, tile):
            sub = grid[tr : tr + tile, tc : tc + tile]
            trs.append(tr // tile)
            tcs.append(tc // tile)
            hs.append(sub.shape[0])
            ws.append(sub.shape[1])
            arrays.append(np.ascontiguousarray(sub, dtype=np.float64))
    return pa.table(
        {
            "trow": np.array(trs, dtype=np.int64),
            "tcol": np.array(tcs, dtype=np.int64),
            "h": np.array(hs, dtype=np.int64),
            "w": np.array(ws, dtype=np.int64),
            "data": list_col_of(arrays),
        }
    )


def tiles_to_grid(df, H: int, W: int, tile: int, nodata: float = NODATA) -> np.ndarray:
    """Dense grid from tile rows; accepts a pa.Table (zero-copy views)
    or a pandas frame (object-list cells, test/export edges only)."""
    out = np.full((H, W), nodata, dtype=np.float64)
    if isinstance(df, pa.Table):
        views = list_col_views(df["data"])
        trs = df["trow"].to_numpy(zero_copy_only=False)
        tcs = df["tcol"].to_numpy(zero_copy_only=False)
        hs = df["h"].to_numpy(zero_copy_only=False)
        ws = df["w"].to_numpy(zero_copy_only=False)
        for i in range(len(df)):
            h, w = int(hs[i]), int(ws[i])
            r0, c0 = int(trs[i]) * tile, int(tcs[i]) * tile
            out[r0 : r0 + h, c0 : c0 + w] = views[i].reshape(h, w)
        return out
    for _, r in df.iterrows():
        tr, tc = int(r["trow"]), int(r["tcol"])
        h, w = int(r["h"]), int(r["w"])
        out[tr * tile : tr * tile + h, tc * tile : tc * tile + w] = np.asarray(
            r["data"], dtype=np.float64
        ).reshape(h, w)
    return out


# ---------------------------------------------------------------------------
# halo exchange


def _edge_key(ek0: int, ek1: int, ek2: int) -> int:
    """Collision-free packing of a boundary-strip key (orientation,
    tile_row, tile_col) where row/col can be -1 for grid-edge strips:
    1+26+26-bit fields (< 2^53). The previous decimal *100000 fields
    aliased (a, b, -1) with (a, b-1, 99999) once a tile grid axis
    reached 100000."""
    return (((ek0 << 26) | (ek1 + 1)) << 26) | (ek2 + 1)


def tile_map_with_halo(
    tiles: ray.data.Dataset,
    fn,
    halo: int,
    H: int,
    W: int,
    tile: int,
    nodata: float = NODATA,
    num_parts: int | None = None,
) -> ray.data.Dataset:
    """fn(padded, halo, gr0, gc0) -> interior array (h x w) for the
    tile whose global origin is (gr0, gc0). `padded` is the tile plus
    `halo` cells of context on every side (nodata beyond the grid)."""

    def assemble(t: pa.Table) -> pa.Table:
        out_tr, out_tc, out_h, out_w, arrays = [], [], [], [], []
        for tr, tc, gr0, gc0, h, w, padded in iter_padded_tiles(t, tile, halo, H, W, nodata):
            out_tr.append(tr); out_tc.append(tc); out_h.append(h); out_w.append(w)
            arrays.append(fn(padded, halo, gr0, gc0))
        return pa.table(
            {
                "trow": np.array(out_tr, dtype=np.int64),
                "tcol": np.array(out_tc, dtype=np.int64),
                "h": np.array(out_h, dtype=np.int64),
                "w": np.array(out_w, dtype=np.int64),
                "data": list_col_of(arrays),
            }
        )

    return _pieces_grouped(
        tiles, halo, H, W, tile, nodata, assemble, num_parts=num_parts
    )


# ---------------------------------------------------------------------------
# W1 smooth

def smooth_tiles(tiles, sigma, size, H, W, tile, nodata=NODATA, **kw):
    """Gaussian smooth (src/raster.cpp:224-300) tile-parallel; exact
    incl. the reference's one-short far-edge quirk (see kernels)."""
    if size % 2 == 0:
        size += 1
    half = size // 2
    weights = KR.gaussian_weights(size, sigma)

    def fn(padded, halo, gr0, gc0):
        ph, pw = padded.shape
        h, w = ph - 2 * halo, pw - 2 * halo
        out = np.full((h, w), nodata)
        if ph < size or pw < size:
            return out
        valid = padded != nodata
        sw = np.lib.stride_tricks.sliding_window_view(padded, (size, size))
        vw = np.lib.stride_tricks.sliding_window_view(valid, (size, size))
        conv = np.einsum("ijkl,kl->ij", sw, weights)
        res = np.where(vw.all(axis=(2, 3)), conv, nodata)
        # res[i,j] is the value at padded[i+half, j+half]; interior cell
        # (r, c) (tile coords) = padded[r+halo, c+halo] -> res index
        # (r + halo - half, c + halo - half); reference writes centers
        # whose global coords are in [half, dim - half - 2] (one-short
        # far-edge quirk) — vectorized global-range mask
        rr = np.arange(h) + gr0
        cc = np.arange(w) + gc0
        rmask = (rr >= half) & (rr <= H - half - 2)
        cmask = (cc >= half) & (cc <= W - half - 2)
        m = rmask[:, None] & cmask[None, :]
        sub = res[halo - half : halo - half + h, halo - half : halo - half + w]
        out[m] = sub[m]
        return out

    return tile_map_with_halo(tiles, fn, halo=half, H=H, W=W, tile=tile, nodata=nodata, **kw)


# ---------------------------------------------------------------------------
# O3 treetop local maxima

def local_maxima_tiles(tiles, window, min_height, H, W, tile, nodata=NODATA, **kw):
    """Windowed top-1 detection; emits (col, row, z) rows (the tops
    table that replaces the reference's SQLite sink, ST4)."""
    half = window // 2
    halo = window

    def assemble_tops(t: pa.Table) -> pd.DataFrame:
        rows = []
        for tr, tc, gr0, gc0, h, w, padded in iter_padded_tiles(t, tile, halo, H, W, nodata):
            tops = KR.local_maxima(padded, window, min_height, nodata)
            for c, r, z in tops:
                gr, gc = gr0 + (r - halo), gc0 + (c - halo)
                # keep interior tops only; enforce the global-range quirk
                if not (0 <= gr - gr0 < h and 0 <= gc - gc0 < w):
                    continue
                if not (half <= gr <= H - window + half - 1 and half <= gc <= W - window + half - 1):
                    continue
                rows.append({"col": gc, "row": gr, "z": z})
        return pd.DataFrame(rows, columns=["col", "row", "z"]).astype(
            {"col": np.int64, "row": np.int64, "z": np.float64}
        )

    return _pieces_grouped(tiles, halo, H, W, tile, nodata, assemble_tops, **kw)


# ---------------------------------------------------------------------------
# O5 minima seeds

def minima_tiles(tiles, H, W, tile, nodata=NODATA, **kw):
    def assemble(t: pa.Table) -> pd.DataFrame:
        halo = 1
        rows = []
        for tr, tc, gr0, gc0, h, w, padded in iter_padded_tiles(t, tile, 1, H, W, nodata):
            for c, r, z in KR.find_minima(padded, nodata):
                rr, cc = r - halo, c - halo
                if 0 <= rr < h and 0 <= cc < w:
                    rows.append({"col": gc0 + cc, "row": gr0 + rr, "z": z})
        return pd.DataFrame(rows, columns=["col", "row", "z"]).astype(
            {"col": np.int64, "row": np.int64, "z": np.float64}
        )

    return _pieces_grouped(tiles, 1, H, W, tile, nodata, assemble, **kw)


def _pieces_grouped(tiles, halo, H, W, tile, nodata, assemble, **kw):
    ntr = (H + tile - 1) // tile
    ntc = (W + tile - 1) // tile
    # a halo wider than one tile needs pieces from ceil(halo/tile)
    # rings of neighbours — a fixed 3x3 would silently nodata-fill the
    # context beyond one tile away
    reach = max(1, -(-halo // tile))

    def emit(t: pa.Table) -> pa.Table:
        out = []
        views = list_col_views(t["data"])
        trows = t["trow"].to_numpy(zero_copy_only=False)
        tcols = t["tcol"].to_numpy(zero_copy_only=False)
        hs = t["h"].to_numpy(zero_copy_only=False)
        ws = t["w"].to_numpy(zero_copy_only=False)
        for i in range(len(t)):
            tr = int(trows[i]); tc = int(tcols[i])
            h = int(hs[i]); w = int(ws[i])
            data = views[i].reshape(h, w)
            gr0, gc0 = tr * tile, tc * tile
            for dr in range(-reach, reach + 1):
                for dc in range(-reach, reach + 1):
                    ttr, ttc = tr + dr, tc + dc
                    if not (0 <= ttr < ntr and 0 <= ttc < ntc):
                        continue
                    pr0, pc0 = ttr * tile - halo, ttc * tile - halo
                    pr1 = min(ttr * tile + tile, H) + halo
                    pc1 = min(ttc * tile + tile, W) + halo
                    or0, oc0 = max(gr0, pr0), max(gc0, pc0)
                    or1, oc1 = min(gr0 + h, pr1), min(gc0 + w, pc1)
                    if or0 >= or1 or oc0 >= oc1:
                        continue
                    sub = data[or0 - gr0 : or1 - gr0, oc0 - gc0 : oc1 - gc0]
                    out.append({"trow": ttr, "tcol": ttc, "y": or0 - pr0, "x": oc0 - pc0,
                                "ph": sub.shape[0], "pw": sub.shape[1],
                                "data": np.ascontiguousarray(sub).ravel()})
        if not out:
            return pa.table(
                {"trow": pa.array([], pa.int64()), "tcol": pa.array([], pa.int64()),
                 "y": pa.array([], pa.int64()), "x": pa.array([], pa.int64()),
                 "ph": pa.array([], pa.int64()), "pw": pa.array([], pa.int64()),
                 "data": pa.array([], pa.list_(pa.float64()))}
            )
        return pa.table(
            {k: pa.array([o[k] for o in out])
             for k in ("trow", "tcol", "y", "x", "ph", "pw")}
            | {"data": list_col_of([o["data"] for o in out])}
        )

    pieces = tiles.map_batches(emit, batch_format="pyarrow")
    return grouped_map(pieces, ["trow", "tcol"], assemble, batch_format="pyarrow", **kw)


# ---------------------------------------------------------------------------
# W3 mosaic feather + blend (per overlay, tile-parallel)

def mosaic_tiles(base_tiles, overlay_tiles, distance, resolution, H, W, tile,
                 nodata=NODATA, **kw):
    """One overlay blended into the base (src/mosaic.cpp:211-367).
    halo = steps + 2 bounds the feather erosion's reach; feather runs
    on the padded overlay, blend writes the tile interior only."""
    steps = max(1.0, distance / resolution)
    halo = int(steps) + 2
    # a halo wider than one tile needs ceil(halo/tile) rings of
    # neighbour pieces (cf. _pieces_grouped)
    reach = max(1, -(-halo // tile))

    # tag the two sides, union, and assemble pairs per tile
    def tag(name):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column("side", pa.array([name] * len(t)))
        return fn

    both = base_tiles.map_batches(tag("base"), batch_format="pyarrow").union(
        overlay_tiles.map_batches(tag("over"), batch_format="pyarrow")
    )

    ntr = (H + tile - 1) // tile
    ntc = (W + tile - 1) // tile

    def emit(t: pa.Table) -> pa.Table:
        out = []
        views = list_col_views(t["data"])
        sides = t["side"].to_pylist()
        trows = t["trow"].to_numpy(zero_copy_only=False)
        tcols = t["tcol"].to_numpy(zero_copy_only=False)
        hs = t["h"].to_numpy(zero_copy_only=False)
        ws = t["w"].to_numpy(zero_copy_only=False)
        for i in range(len(t)):
            side = sides[i]
            tr = int(trows[i]); tc = int(tcols[i])
            h = int(hs[i]); w = int(ws[i])
            data = views[i].reshape(h, w)
            gr0, gc0 = tr * tile, tc * tile
            hal = halo if side == "over" else 0  # base needs no halo
            for dr in range(-reach, reach + 1):
                for dc in range(-reach, reach + 1):
                    if side == "base" and (dr or dc):
                        continue
                    ttr, ttc = tr + dr, tc + dc
                    if not (0 <= ttr < ntr and 0 <= ttc < ntc):
                        continue
                    pr0, pc0 = ttr * tile - hal, ttc * tile - hal
                    pr1 = min(ttr * tile + tile, H) + hal
                    pc1 = min(ttc * tile + tile, W) + hal
                    or0, oc0 = max(gr0, pr0), max(gc0, pc0)
                    or1, oc1 = min(gr0 + h, pr1), min(gc0 + w, pc1)
                    if or0 >= or1 or oc0 >= oc1:
                        continue
                    sub = data[or0 - gr0 : or1 - gr0, oc0 - gc0 : oc1 - gc0]
                    out.append({"trow": ttr, "tcol": ttc, "side": side,
                                "y": or0 - pr0, "x": oc0 - pc0,
                                "ph": sub.shape[0], "pw": sub.shape[1],
                                "data": np.ascontiguousarray(sub).ravel()})
        if not out:
            return pa.table(
                {"trow": pa.array([], pa.int64()), "tcol": pa.array([], pa.int64()),
                 "side": pa.array([], pa.string()),
                 "y": pa.array([], pa.int64()), "x": pa.array([], pa.int64()),
                 "ph": pa.array([], pa.int64()), "pw": pa.array([], pa.int64()),
                 "data": pa.array([], pa.list_(pa.float64()))}
            )
        return pa.table(
            {"trow": pa.array([o["trow"] for o in out]),
             "tcol": pa.array([o["tcol"] for o in out]),
             "side": pa.array([o["side"] for o in out]),
             "y": pa.array([o["y"] for o in out]),
             "x": pa.array([o["x"] for o in out]),
             "ph": pa.array([o["ph"] for o in out]),
             "pw": pa.array([o["pw"] for o in out]),
             "data": list_col_of([o["data"] for o in out])}
        )

    pieces = both.map_batches(emit, batch_format="pyarrow")

    def assemble(t: pa.Table) -> pa.Table:
        views = list_col_views(t["data"])
        trs = t["trow"].to_numpy(zero_copy_only=False)
        tcs = t["tcol"].to_numpy(zero_copy_only=False)
        ys = t["y"].to_numpy(zero_copy_only=False)
        xs = t["x"].to_numpy(zero_copy_only=False)
        phs = t["ph"].to_numpy(zero_copy_only=False)
        pws = t["pw"].to_numpy(zero_copy_only=False)
        is_over = np.array([s == "over" for s in t["side"].to_pylist()])
        order, slices = group_slices(trs, tcs)
        out_tr, out_tc, out_h, out_w, arrays = [], [], [], [], []
        for s, e in slices:
            g = order[s:e]
            tr = int(trs[g[0]])
            tc = int(tcs[g[0]])
            gr0, gc0 = tr * tile, tc * tile
            h = min(tile, H - gr0)
            w = min(tile, W - gc0)
            over = np.full((h + 2 * halo, w + 2 * halo), nodata, dtype=np.float64)
            base = np.full((h, w), nodata, dtype=np.float64)
            for i in g:
                y, x, ph, pw = int(ys[i]), int(xs[i]), int(phs[i]), int(pws[i])
                arr = views[i].reshape(ph, pw)
                if is_over[i]:
                    over[y : y + ph, x : x + pw] = arr
                else:
                    base[y : y + ph, x : x + pw] = arr
            alpha = KR.feather(over, distance, resolution, nodata)
            merged = base
            if alpha is not None:
                blended = KR.blend(over, np.pad(base, halo, constant_values=nodata),
                                   alpha, nodata, nodata, buffer=0)
                merged = blended[halo : halo + h, halo : halo + w]
            out_tr.append(tr); out_tc.append(tc); out_h.append(h); out_w.append(w)
            arrays.append(merged)
        return pa.table(
            {
                "trow": np.array(out_tr, dtype=np.int64),
                "tcol": np.array(out_tc, dtype=np.int64),
                "h": np.array(out_h, dtype=np.int64),
                "w": np.array(out_w, dtype=np.int64),
                "data": list_col_of(arrays),
            }
        )

    return grouped_map(pieces, ["trow", "tcol"], assemble, batch_format="pyarrow", **kw)


# ---------------------------------------------------------------------------
# W2 void-fill IDW (bounded-radius tile variant)

def void_fill_tiles(tiles, radius, count, exp, H, W, tile, max_radius=None,
                    nodata=NODATA, **kw):
    """voidFillIDW tile-parallel. The reference expands the search
    radius without bound (src/raster.cpp:162-222); a tile op must
    bound it: `max_radius` caps the expansion (halo = max_radius), and
    cells still unfilled at the cap stay nodata (the reference would
    print a warning and continue likewise when its loop exhausts the
    grid). With max_radius >= the reference's terminal radius the
    results agree exactly."""
    max_radius = int(max_radius) if max_radius is not None else int(radius * 4)
    halo = max_radius + 1

    def fn(padded, hal, gr0, gc0):
        h = padded.shape[0] - 2 * hal
        w = padded.shape[1] - 2 * hal
        filled = KR.void_fill_idw_vec(padded, radius, count, exp, max_radius, nodata)
        return filled[hal : hal + h, hal : hal + w]

    return tile_map_with_halo(tiles, fn, halo=halo, H=H, W=W, tile=tile, nodata=nodata, **kw)


# ---------------------------------------------------------------------------
# distributed raster assembly: cell stats -> tile rows

def tiles_from_cellstats(stats, value_col, cols, rows, tile, nodata=NODATA,
                         num_parts=None, dense=False):
    """Assemble the per-cell stat Dataset (cell_id row-major-from-top)
    into dense tile rows with nodata fill — the distributed
    raster-export edge (reference: MemRaster filled via writeBlock,
    src/pointstats.cpp:360-374). One grouped shuffle by tile key.
    dense=True also emits tiles with NO populated cells (a tiny
    skeleton union — one marker row per tile)."""

    def key(t: pa.Table) -> pa.Table:
        cid = t["cell_id"].to_numpy(zero_copy_only=False)
        r = cid // cols
        c = cid % cols
        return pa.table(
            {
                "trow": r // tile,
                "tcol": c // tile,
                "ir": r % tile,
                "ic": c % tile,
                "v": t[value_col].to_numpy(zero_copy_only=False).astype(np.float64),
            }
        )

    keyed = stats.map_batches(key, batch_format="pyarrow")
    ntr = (rows + tile - 1) // tile
    ntc = (cols + tile - 1) // tile
    if dense:
        tr_all, tc_all = np.meshgrid(np.arange(ntr), np.arange(ntc), indexing="ij")
        skeleton = ray.data.from_arrow(
            pa.table(
                {
                    "trow": tr_all.ravel().astype(np.int64),
                    "tcol": tc_all.ravel().astype(np.int64),
                    "ir": np.full(ntr * ntc, -1, dtype=np.int64),
                    "ic": np.full(ntr * ntc, -1, dtype=np.int64),
                    "v": np.full(ntr * ntc, nodata),
                }
            )
        )
        keyed = keyed.union(skeleton)

    def fill(t: pa.Table) -> pa.Table:
        trs = t["trow"].to_numpy(zero_copy_only=False)
        tcs = t["tcol"].to_numpy(zero_copy_only=False)
        irs = t["ir"].to_numpy(zero_copy_only=False)
        ics = t["ic"].to_numpy(zero_copy_only=False)
        vs = t["v"].to_numpy(zero_copy_only=False)
        order, slices = group_slices(trs, tcs)
        out_tr, out_tc, out_h, out_w, arrays = [], [], [], [], []
        for s, e in slices:
            g = order[s:e]
            tr = int(trs[g[0]])
            tc = int(tcs[g[0]])
            h = min(tile, rows - tr * tile)
            w = min(tile, cols - tc * tile)
            arr = np.full((h, w), nodata)
            keep = g[irs[g] >= 0]
            arr[irs[keep], ics[keep]] = vs[keep]
            out_tr.append(tr); out_tc.append(tc); out_h.append(h); out_w.append(w)
            arrays.append(arr)
        return pa.table(
            {
                "trow": np.array(out_tr, dtype=np.int64),
                "tcol": np.array(out_tc, dtype=np.int64),
                "h": np.array(out_h, dtype=np.int64),
                "w": np.array(out_w, dtype=np.int64),
                "data": list_col_of(arrays),
            }
        )

    return grouped_map(keyed, ["trow", "tcol"], fill, num_parts=num_parts,
                       batch_format="pyarrow")


def tiles_multi_from_cellstats(stats, value_cols, cols, rows, tile, nodata=NODATA,
                               num_parts=None, dense=False):
    """Assemble SEVERAL per-cell stat columns into co-located tile rows
    in ONE grouped shuffle: each output row is (trow, tcol, h, w,
    data_<col> ...).  Replaces N separate tiles_from_cellstats passes +
    a zip co-partition when all rasters derive from the same cell-stat
    table (the common case for diff/extract/mosaic pipelines).
    Per-column masking: set a cell's value to `nodata` upstream — dense
    fill writes `nodata` into unpopulated pixels anyway."""

    def key(t: pa.Table) -> pa.Table:
        cid = t["cell_id"].to_numpy(zero_copy_only=False)
        r = cid // cols
        c = cid % cols
        d = {
            "trow": r // tile,
            "tcol": c // tile,
            "ir": r % tile,
            "ic": c % tile,
        }
        for vc in value_cols:
            d["v_" + vc] = t[vc].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(d)

    keyed = stats.map_batches(key, batch_format="pyarrow")
    ntr = (rows + tile - 1) // tile
    ntc = (cols + tile - 1) // tile
    if dense:
        tr_all, tc_all = np.meshgrid(np.arange(ntr), np.arange(ntc), indexing="ij")
        d = {
            "trow": tr_all.ravel().astype(np.int64),
            "tcol": tc_all.ravel().astype(np.int64),
            "ir": np.full(ntr * ntc, -1, dtype=np.int64),
            "ic": np.full(ntr * ntc, -1, dtype=np.int64),
        }
        for vc in value_cols:
            d["v_" + vc] = np.full(ntr * ntc, nodata)
        keyed = keyed.union(ray.data.from_arrow(pa.table(d)))

    def fill(t: pa.Table) -> pa.Table:
        trs = t["trow"].to_numpy(zero_copy_only=False)
        tcs = t["tcol"].to_numpy(zero_copy_only=False)
        irs = t["ir"].to_numpy(zero_copy_only=False)
        ics = t["ic"].to_numpy(zero_copy_only=False)
        vals = {vc: t["v_" + vc].to_numpy(zero_copy_only=False) for vc in value_cols}
        order, slices = group_slices(trs, tcs)
        out_tr, out_tc, out_h, out_w = [], [], [], []
        arrays = {vc: [] for vc in value_cols}
        for s, e in slices:
            g = order[s:e]
            tr = int(trs[g[0]])
            tc = int(tcs[g[0]])
            h = min(tile, rows - tr * tile)
            w = min(tile, cols - tc * tile)
            keep = g[irs[g] >= 0]
            ir = irs[keep]
            ic = ics[keep]
            out_tr.append(tr); out_tc.append(tc); out_h.append(h); out_w.append(w)
            for vc in value_cols:
                arr = np.full((h, w), nodata)
                arr[ir, ic] = vals[vc][keep]
                arrays[vc].append(arr)
        cols_out = {
            "trow": np.array(out_tr, dtype=np.int64),
            "tcol": np.array(out_tc, dtype=np.int64),
            "h": np.array(out_h, dtype=np.int64),
            "w": np.array(out_w, dtype=np.int64),
        }
        for vc in value_cols:
            cols_out["data_" + vc] = list_col_of(arrays[vc])
        return pa.table(cols_out)

    return grouped_map(keyed, ["trow", "tcol"], fill, num_parts=num_parts,
                       batch_format="pyarrow")


# ---------------------------------------------------------------------------
# W4 distributed flood basins: local labels per tile (map_batches),
# only (label, label) boundary pairs + per-label stats move; a tiny
# driver union-find over LABELS (not pixels) merges across tiles.

def flood_basins_tiles(
    tiles: ray.data.Dataset,
    elevations: list[float],
    H: int,
    W: int,
    tile: int,
    nodata: float = NODATA,
    num_parts: int | None = None,
) -> pd.DataFrame:
    """-> (elevation, basin, area): 4-connected components of
    (valid AND v <= elev), labels canonicalized to the full-grid
    kernel's scan-order ids (rank of the component's min row-major
    index). The pixel grids never leave their tile tasks."""
    ntc = (W + tile - 1) // tile
    cap = tile * tile
    elevs = list(elevations)

    def local(t: pa.Table) -> pa.Table:
        stat_rows = {"elev": [], "gid": [], "cnt": [], "minidx": []}
        edge_rows = {"elev": [], "ek": [], "pos": [], "gid": []}
        views = list_col_views(t["data"])
        trows = t["trow"].to_numpy(zero_copy_only=False)
        tcols = t["tcol"].to_numpy(zero_copy_only=False)
        hs = t["h"].to_numpy(zero_copy_only=False)
        ws = t["w"].to_numpy(zero_copy_only=False)
        for i in range(len(t)):
            tr = int(trows[i])
            tc = int(tcols[i])
            h = int(hs[i])
            w = int(ws[i])
            sub = views[i].reshape(h, w)
            work = np.where(sub == nodata, np.inf, sub)
            gr0, gc0 = tr * tile, tc * tile
            base = (tr * ntc + tc) * cap
            gidx = (gr0 + np.arange(h))[:, None] * W + (gc0 + np.arange(w))[None, :]
            for ei, elev in enumerate(elevs):
                lab = KR.flood_fill_label(work, elev)
                nlab = int(lab.max())
                if nlab == 0:
                    continue
                flat = lab.ravel()
                m = flat > 0
                cnt = np.bincount(flat[m], minlength=nlab + 1)[1:]
                mi = np.full(nlab + 1, np.iinfo(np.int64).max)
                np.minimum.at(mi, flat[m], gidx.ravel()[m])
                stat_rows["elev"].extend([elev] * nlab)
                stat_rows["gid"].extend((base + np.arange(1, nlab + 1)).tolist())
                stat_rows["cnt"].extend(cnt.tolist())
                stat_rows["minidx"].extend(mi[1:].tolist())
                # boundary strips: (orientation, tr_of_boundary, tc) keys
                for ek, strip, npos in (
                    ((0, tr, tc), lab[:, w - 1], h),      # right edge of me
                    ((0, tr, tc - 1), lab[:, 0], h),      # left edge -> west bnd
                    ((1, tr, tc), lab[h - 1, :], w),      # bottom edge
                    ((1, tr - 1, tc), lab[0, :], w),      # top edge -> north bnd
                ):
                    pos = np.nonzero(strip > 0)[0]
                    if not len(pos):
                        continue
                    kid = _edge_key(*ek) * len(elevs) + ei  # len(elevs) < 1024 keeps this < 2^63
                    edge_rows["elev"].extend([elev] * len(pos))
                    edge_rows["ek"].extend([kid] * len(pos))
                    edge_rows["pos"].extend(pos.tolist())
                    edge_rows["gid"].extend((base + strip[pos]).tolist())
        st = pa.table(
            {
                "kind": np.zeros(len(stat_rows["elev"]), dtype=np.int64),
                "elev": np.array(stat_rows["elev"], dtype=np.float64),
                "ek": np.zeros(len(stat_rows["elev"]), dtype=np.int64),
                "pos": np.zeros(len(stat_rows["elev"]), dtype=np.int64),
                "gid": np.array(stat_rows["gid"], dtype=np.int64),
                "cnt": np.array(stat_rows["cnt"], dtype=np.int64),
                "minidx": np.array(stat_rows["minidx"], dtype=np.int64),
            }
        )
        ed = pa.table(
            {
                "kind": np.ones(len(edge_rows["elev"]), dtype=np.int64),
                "elev": np.array(edge_rows["elev"], dtype=np.float64),
                "ek": np.array(edge_rows["ek"], dtype=np.int64),
                "pos": np.array(edge_rows["pos"], dtype=np.int64),
                "gid": np.array(edge_rows["gid"], dtype=np.int64),
                "cnt": np.zeros(len(edge_rows["elev"]), dtype=np.int64),
                "minidx": np.zeros(len(edge_rows["elev"]), dtype=np.int64),
            }
        )
        return pa.concat_tables([st, ed])

    both = tiles.map_batches(local, batch_format="pyarrow").materialize()

    def keep(kind):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pa.array(t["kind"].to_numpy(zero_copy_only=False) == kind))

        return fn

    # boundary pairs: same (ek, pos) from the two adjoining tiles
    def pair_up(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_e = [], [], []
        for (_, _), g in df.groupby(["ek", "pos"], sort=False):
            gids = g["gid"].to_numpy()
            if len(gids) == 2:
                out_a.append(int(gids[0]))
                out_b.append(int(gids[1]))
                out_e.append(float(g["elev"].iloc[0]))
        return pd.DataFrame({"elev": out_e, "ga": out_a, "gb": out_b})

    edges_df = grouped_map(
        both.map_batches(keep(1), batch_format="pyarrow"), ["ek"], pair_up,
        num_parts=num_parts,
    ).to_pandas()
    if "elev" not in edges_df.columns:  # no cross-tile pairs anywhere
        edges_df = pd.DataFrame({"elev": [], "ga": [], "gb": []})
    stats_df = both.map_batches(keep(0), batch_format="pyarrow").to_pandas()
    if "elev" not in stats_df.columns:
        stats_df = pd.DataFrame({"elev": [], "gid": [], "cnt": [], "minidx": []})

    # tiny driver union-find over labels, per elevation
    out_rows = []
    for elev in elevs:
        st = stats_df[stats_df["elev"] == elev]
        ed = edges_df[edges_df["elev"] == elev]
        parent = {g: g for g in st["gid"]}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for ga, gb in zip(ed["ga"], ed["gb"]):
            ra, rb = find(int(ga)), find(int(gb))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        roots = {g: find(int(g)) for g in st["gid"]}
        agg: dict[int, list] = {}
        for g, c, mi in zip(st["gid"], st["cnt"], st["minidx"]):
            r = roots[int(g)]
            if r not in agg:
                agg[r] = [0, np.iinfo(np.int64).max]
            agg[r][0] += int(c)
            agg[r][1] = min(agg[r][1], int(mi))
        comp = sorted(agg.values(), key=lambda v: v[1])
        for bid, (area, _) in enumerate(comp, start=1):
            out_rows.append({"elevation": float(elev), "basin": bid, "area": area})
    return pd.DataFrame(out_rows, columns=["elevation", "basin", "area"]).astype(
        {"basin": np.int64, "area": np.int64}
    )


def flood_label_tiles(
    tiles: ray.data.Dataset,
    elevation: float,
    H: int,
    W: int,
    tile: int,
    nodata: float = NODATA,
    num_parts: int | None = None,
) -> ray.data.Dataset:
    """Distributed flood labels (W4 front half, src/flood.cpp LEFill):
    tile-local flood_fill_label per tile (pixels never leave their
    task), boundary strips + per-label min row-major index to the
    driver (label-graph only), union-find over LABELS, then one
    relabel pass mapping local gids to the full-grid kernel's
    scan-order basin ids (rank of component min index). Returns tile
    rows (trow, tcol, h, w, data) where data holds the canonical
    basin id per pixel (0 = not in any basin)."""
    ntc = (W + tile - 1) // tile
    cap = tile * tile

    def local(t: pa.Table) -> pa.Table:
        out = {"trow": [], "tcol": [], "h": [], "w": [], "data": []}
        views = list_col_views(t["data"])
        trows = t["trow"].to_numpy(zero_copy_only=False)
        tcols = t["tcol"].to_numpy(zero_copy_only=False)
        hs = t["h"].to_numpy(zero_copy_only=False)
        ws = t["w"].to_numpy(zero_copy_only=False)
        for i in range(len(t)):
            tr = int(trows[i]); tc = int(tcols[i])
            h = int(hs[i]); w = int(ws[i])
            sub = views[i].reshape(h, w)
            work = np.where(sub == nodata, np.inf, sub)
            lab = KR.flood_fill_label(work, elevation).astype(np.float64)
            base = (tr * ntc + tc) * cap
            lab[lab > 0] += base
            out["trow"].append(tr); out["tcol"].append(tc)
            out["h"].append(h); out["w"].append(w)
            out["data"].append(lab.ravel())
        return pa.table(
            {
                "trow": np.array(out["trow"], dtype=np.int64),
                "tcol": np.array(out["tcol"], dtype=np.int64),
                "h": np.array(out["h"], dtype=np.int64),
                "w": np.array(out["w"], dtype=np.int64),
                "data": list_col_of(out["data"]),
            }
        )

    local_tiles = tiles.map_batches(local, batch_format="pyarrow").materialize()

    # label-graph extraction: per-gid min row-major index + boundary
    # strips — small int rows; pixels stay in the object store
    def graph(t: pa.Table) -> pa.Table:
        st = {"kind": [], "ek": [], "pos": [], "gid": [], "minidx": []}
        views = list_col_views(t["data"])
        trows = t["trow"].to_numpy(zero_copy_only=False)
        tcols = t["tcol"].to_numpy(zero_copy_only=False)
        hs = t["h"].to_numpy(zero_copy_only=False)
        ws = t["w"].to_numpy(zero_copy_only=False)
        for i in range(len(t)):
            tr = int(trows[i]); tc = int(tcols[i])
            h = int(hs[i]); w = int(ws[i])
            lab = views[i].reshape(h, w).astype(np.int64)
            gr0, gc0 = tr * tile, tc * tile
            gidx = (gr0 + np.arange(h))[:, None] * W + (gc0 + np.arange(w))[None, :]
            flat = lab.ravel()
            m = flat > 0
            if m.any():
                uniq, inv = np.unique(flat[m], return_inverse=True)
                mi = np.full(len(uniq), np.iinfo(np.int64).max)
                np.minimum.at(mi, inv, gidx.ravel()[m])
                st["kind"].extend([0] * len(uniq))
                st["ek"].extend([0] * len(uniq))
                st["pos"].extend([0] * len(uniq))
                st["gid"].extend(uniq.tolist())
                st["minidx"].extend(mi.tolist())
            for ek, strip in (
                ((0, tr, tc), lab[:, w - 1]),
                ((0, tr, tc - 1), lab[:, 0]),
                ((1, tr, tc), lab[h - 1, :]),
                ((1, tr - 1, tc), lab[0, :]),
            ):
                pos = np.nonzero(strip > 0)[0]
                if not len(pos):
                    continue
                kid = _edge_key(*ek)
                st["kind"].extend([1] * len(pos))
                st["ek"].extend([kid] * len(pos))
                st["pos"].extend(pos.tolist())
                st["gid"].extend((strip[pos]).tolist())
                st["minidx"].extend([0] * len(pos))
        return pa.table({k: np.array(v, dtype=np.int64) for k, v in st.items()})

    g = local_tiles.map_batches(graph, batch_format="pyarrow").materialize()

    def keep(kind):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pa.array(t["kind"].to_numpy(zero_copy_only=False) == kind))

        return fn

    def pair_up(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, gg in df.groupby(["ek", "pos"], sort=False):
            gids = gg["gid"].to_numpy()
            if len(gids) == 2:
                out_a.append(int(gids[0]))
                out_b.append(int(gids[1]))
        return pd.DataFrame({"ga": np.array(out_a, dtype=np.int64),
                             "gb": np.array(out_b, dtype=np.int64)})

    edges_df = grouped_map(
        g.map_batches(keep(1), batch_format="pyarrow"), ["ek"], pair_up,
        num_parts=num_parts,
    ).to_pandas()
    stats_df = g.map_batches(keep(0), batch_format="pyarrow").to_pandas()
    if "gid" not in stats_df.columns:  # zero labels anywhere (all cells above elev)
        stats_df = pd.DataFrame(
            {"gid": np.array([], dtype=np.int64),
             "minidx": np.array([], dtype=np.int64)}
        )

    parent = {int(gid): int(gid) for gid in stats_df["gid"]}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    if "ga" in edges_df.columns:
        for ga, gb in zip(edges_df["ga"], edges_df["gb"]):
            ra, rb = find(int(ga)), find(int(gb))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([find(int(gd)) for gd in stats_df["gid"]], dtype=np.int64)
    mini = stats_df["minidx"].to_numpy()
    root_min: dict[int, int] = {}
    for r, mi in zip(roots.tolist(), mini.tolist()):
        if r not in root_min or mi < root_min[r]:
            root_min[r] = mi
    ordered = sorted(root_min, key=lambda r: root_min[r])
    bid_of_root = {r: i + 1 for i, r in enumerate(ordered)}
    if not bid_of_root:  # no basin anywhere: local tiles are already all-zero
        local_tiles._gt_n_basins = 0  # driver-known count (free: stats_df is here)
        return local_tiles
    gids_sorted = np.sort(stats_df["gid"].to_numpy())
    order = np.argsort(stats_df["gid"].to_numpy())
    bids_sorted = np.array(
        [bid_of_root[int(r)] for r in roots[order]], dtype=np.int64
    )
    import ray as _ray

    mref = _ray.put((gids_sorted, bids_sorted))

    def relabel(t: pa.Table) -> pa.Table:
        gs, bs = _ray.get(mref)
        views = list_col_views(t["data"])
        out = []
        for v in views:
            lab = v.astype(np.int64)
            m = lab > 0
            canon = np.zeros(len(lab), dtype=np.float64)
            if m.any():
                canon[m] = bs[np.searchsorted(gs, lab[m])]
            out.append(canon)
        return pa.table(
            {
                "trow": t["trow"],
                "tcol": t["tcol"],
                "h": t["h"],
                "w": t["w"],
                "data": list_col_of(out),
            }
        )

    out = local_tiles.map_batches(relabel, batch_format="pyarrow")
    out._gt_n_basins = len(bid_of_root)  # driver-known basin count
    return out


def spill_points_tiles(
    label_tiles: ray.data.Dataset,
    max_dist: float,
    H: int,
    W: int,
    tile: int,
    num_parts: int | None = None,
) -> ray.data.Dataset:
    """W5 findSpillPoints (src/flood.cpp:369-401), distributed: halo'd
    per-tile edge-cell detection (a basin cell with any in-bounds
    8-neighbour of a different label; off-grid neighbours do NOT
    count), then an exactly-once bucketed pair join — edge cells land
    in ceil(max_dist)-sized buckets, each point replicates to its 3x3
    bucket neighbourhood, and a pair is emitted only from the task of
    the lexicographically smaller home bucket. Per-bucket work is
    bounded by bucket capacity (<= ceil(max_dist)^2 cells), never n^2
    in the basin count. Emits (id1, c1, r1, id2, c2, r2, dist) with
    id1 < id2 like the kernel."""

    def assemble_edges(t: pa.Table) -> pd.DataFrame:
        bids, cols_, rows_ = [], [], []
        for tr, tc, gr0, gc0, h, w, padded in iter_padded_tiles(t, tile, 1, H, W, 0.0):
            center = padded[1:-1, 1:-1]
            rr = gr0 + np.arange(h)
            cc = gc0 + np.arange(w)
            edge = np.zeros((h, w), dtype=bool)
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    nb = padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
                    inb = (
                        ((rr + dr >= 0) & (rr + dr < H))[:, None]
                        & ((cc + dc >= 0) & (cc + dc < W))[None, :]
                    )
                    edge |= inb & (nb != center)
            edge &= center > 0
            er, ec = np.nonzero(edge)
            bids.append(center[er, ec].astype(np.int64))
            cols_.append(gc0 + ec)
            rows_.append(gr0 + er)
        if not bids:
            return pd.DataFrame(
                {"bid": pd.Series(dtype=np.int64), "col": pd.Series(dtype=np.int64),
                 "row": pd.Series(dtype=np.int64)}
            )
        return pd.DataFrame(
            {"bid": np.concatenate(bids), "col": np.concatenate(cols_),
             "row": np.concatenate(rows_)}
        ).astype({"bid": np.int64, "col": np.int64, "row": np.int64})

    edges = _pieces_grouped(
        label_tiles, 1, H, W, tile, 0.0, assemble_edges, num_parts=num_parts
    )

    B = max(1, int(np.ceil(max_dist)))
    nbx = (W + B - 1) // B
    max2 = float(max_dist) * float(max_dist)

    def replicate(t: pa.Table) -> pa.Table:
        bid = t["bid"].to_numpy(zero_copy_only=False)
        col = t["col"].to_numpy(zero_copy_only=False)
        row = t["row"].to_numpy(zero_copy_only=False)
        home = (row // B) * nbx + (col // B)
        nby = (H + B - 1) // B
        outs = {"bk": [], "home": [], "bid": [], "col": [], "row": []}
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                by = row // B + dr
                bx = col // B + dc
                m = (by >= 0) & (by < nby) & (bx >= 0) & (bx < nbx)
                outs["bk"].append((by * nbx + bx)[m])
                outs["home"].append(home[m])
                outs["bid"].append(bid[m])
                outs["col"].append(col[m])
                outs["row"].append(row[m])
        return pa.table({k: np.concatenate(v) for k, v in outs.items()})

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for bk, gg in df.groupby("bk", sort=False):
            bid = gg["bid"].to_numpy()
            col = gg["col"].to_numpy()
            row = gg["row"].to_numpy()
            home = gg["home"].to_numpy()
            idx = row * W + col
            hm = home == bk
            if not hm.any():
                continue
            d2 = (
                (col[hm][:, None] - col[None, :]) ** 2
                + (row[hm][:, None] - row[None, :]) ** 2
            ).astype(np.float64)
            once = (home[None, :] > bk) | (
                (home[None, :] == bk) & (idx[hm][:, None] < idx[None, :])
            )
            keep = (d2 <= max2) & once & (bid[hm][:, None] != bid[None, :])
            ii, jj = np.nonzero(keep)
            if not len(ii):
                continue
            ba, ca, ra = bid[hm][ii], col[hm][ii], row[hm][ii]
            bb, cb, rb = bid[jj], col[jj], row[jj]
            swap = ba > bb
            id1 = np.where(swap, bb, ba)
            id2 = np.where(swap, ba, bb)
            c1 = np.where(swap, cb, ca)
            r1 = np.where(swap, rb, ra)
            c2 = np.where(swap, ca, cb)
            r2 = np.where(swap, ra, rb)
            out.append(
                pd.DataFrame(
                    {"id1": id1, "c1": c1, "r1": r1, "id2": id2, "c2": c2,
                     "r2": r2, "dist": np.sqrt(d2[ii, jj])}
                )
            )
        if not out:
            return pd.DataFrame(
                {"id1": pd.Series(dtype=np.int64), "c1": pd.Series(dtype=np.int64),
                 "r1": pd.Series(dtype=np.int64), "id2": pd.Series(dtype=np.int64),
                 "c2": pd.Series(dtype=np.int64), "r2": pd.Series(dtype=np.int64),
                 "dist": pd.Series(dtype=np.float64)}
            )
        return pd.concat(out, ignore_index=True)

    return grouped_map(
        edges.map_batches(replicate, batch_format="pyarrow"), ["bk"], pairs,
        num_parts=num_parts,
    )
