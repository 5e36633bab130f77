"""Tile-parallel raster ops must EXACTLY reproduce the full-grid
kernels (which themselves transcribe the reference formulas)."""

import numpy as np
import pandas as pd
import pytest

from geotools_ray.kernels import raster as KR

NODATA = KR.NODATA


def make_grid(h=23, w=31, holes=True, seed=0):
    rng = np.random.RandomState(seed)
    g = rng.uniform(0, 30, (h, w))
    if holes:
        mask = rng.rand(h, w) < 0.1
        g[mask] = NODATA
    return g


@pytest.fixture(scope="module")
def ray_ctx(ray_session):
    import ray.data

    return ray.data


def _tiles_ds(ray_data, grid, tile):
    from geotools_ray.ops.raster import grid_to_tiles

    return ray_data.from_arrow(grid_to_tiles(grid, tile))


def test_smooth_tiles_match_kernel(ray_ctx):
    from geotools_ray.ops.raster import smooth_tiles, tiles_to_grid

    g = make_grid()
    want = KR.smooth(g, sigma=1.2, size=5)
    for tile in (8, 16):
        ds = _tiles_ds(ray_ctx, g, tile)
        out = smooth_tiles(ds, 1.2, 5, g.shape[0], g.shape[1], tile, num_parts=4)
        got = tiles_to_grid(out.to_pandas(), g.shape[0], g.shape[1], tile)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_local_maxima_tiles_match_kernel(ray_ctx):
    from geotools_ray.ops.raster import local_maxima_tiles

    g = make_grid(29, 37, holes=True, seed=3)
    want = sorted(KR.local_maxima(g, window=5, min_height=5.0))
    for tile in (8, 16):
        ds = _tiles_ds(ray_ctx, g, tile)
        out = local_maxima_tiles(ds, 5, 5.0, g.shape[0], g.shape[1], tile, num_parts=4)
        df = out.to_pandas()
        got = sorted(zip(df["col"], df["row"], df["z"]))
        assert got == want


def test_minima_tiles_match_kernel(ray_ctx):
    from geotools_ray.ops.raster import minima_tiles

    g = make_grid(20, 25, holes=True, seed=5)
    want = sorted(KR.find_minima(g))
    ds = _tiles_ds(ray_ctx, g, 8)
    out = minima_tiles(ds, g.shape[0], g.shape[1], 8, num_parts=4)
    df = out.to_pandas()
    got = sorted(zip(df["col"], df["row"], df["z"]))
    assert got == want


def test_mosaic_tiles_match_kernel(ray_ctx):
    from geotools_ray.ops.raster import mosaic_tiles, tiles_to_grid

    rng = np.random.RandomState(7)
    H, W = 24, 30
    base = rng.uniform(0, 10, (H, W))
    over = np.full((H, W), NODATA)
    over[6:18, 8:26] = rng.uniform(20, 30, (12, 18))  # an overlay patch
    # full-grid oracle: feather overlay, blend into base
    alpha = KR.feather(over, distance=3.0, resolution=1.0)
    want = KR.blend(over, base, alpha, NODATA, NODATA, buffer=0)
    tile = 8
    b = _tiles_ds(ray_ctx, base, tile)
    o = _tiles_ds(ray_ctx, over, tile)
    out = mosaic_tiles(b, o, 3.0, 1.0, H, W, tile, num_parts=4)
    got = tiles_to_grid(out.to_pandas(), H, W, tile)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_spill_points_and_edges():
    g = np.full((9, 12), 50.0)
    g[2:4, 2:4] = 1.0   # basin A
    g[5:7, 8:10] = 2.0  # basin B
    labels = KR.flood_fill_label(g, 5.0)
    assert labels.max() == 2
    sp = KR.spill_points(labels, max_dist=20.0)
    assert len(sp) > 0
    # nearest pair distance is between the adjacent corners
    dmin = min(s[-1] for s in sp)
    assert dmin == pytest.approx(np.sqrt((8 - 3) ** 2 + (5 - 3) ** 2))


def test_void_fill_idw():
    g = make_grid(12, 14, holes=False, seed=2)
    g[5, 6] = NODATA
    out = KR.void_fill_idw(g, radius=2.0, count=3, exp=1.0)
    assert out[5, 6] != NODATA
    # transcription check: weights 1/d2 over valid neighbours in radius
    a = b = 0.0
    for r in range(3, 8):
        for c in range(4, 9):
            d2 = (c - 6) ** 2.0 + (r - 5) ** 2.0
            if 0 < d2 <= 4.0:
                a += (1.0 / d2) * g[r, c]
                b += 1.0 / d2
    assert out[5, 6] == pytest.approx(a / b)


def test_gaussian_weights_formula():
    wts = KR.gaussian_weights(5, 1.0)
    # center weight = 1/(2*pi*sigma^2)
    assert wts[2, 2] == pytest.approx(1.0 / (2 * np.pi))
    assert wts[0, 0] == pytest.approx((1.0 / (2 * np.pi)) * np.exp(-(8) / 2.0))


def test_tiles_from_cellstats_roundtrip(ray_ctx):
    from geotools_ray.ops.raster import tiles_from_cellstats, tiles_to_grid

    rng = np.random.RandomState(3)
    cols, rows = 30, 20
    cid = rng.choice(cols * rows, 300, replace=False)
    vals = rng.uniform(0, 9, 300)
    ds = ray_ctx.from_items(
        [{"cell_id": int(c), "mean": float(v)} for c, v in zip(cid, vals)]
    )
    tiles = tiles_from_cellstats(ds, "mean", cols, rows, tile=8, num_parts=4)
    g = tiles_to_grid(tiles.to_pandas(), rows, cols, 8)
    want = np.full(cols * rows, NODATA)
    want[cid] = vals
    np.testing.assert_allclose(g.ravel(), want)


def test_flood_basins_tiles_matches_kernel(ray_session):
    """Distributed basin labeling (local labels + boundary-pair
    union-find) == the full-grid scanline kernel's (basin, area)."""
    import ray.data

    from geotools_ray.kernels import raster as KR
    from geotools_ray.ops.raster import flood_basins_tiles, grid_to_tiles

    rng = np.random.RandomState(9)
    grid = rng.uniform(0, 40, (37, 53))
    grid[rng.uniform(size=grid.shape) < 0.3] = KR.NODATA
    H, W = grid.shape
    tiles = ray.data.from_arrow(grid_to_tiles(grid, 16))
    got = flood_basins_tiles(tiles, [20.0], H, W, 16)

    labels = KR.flood_fill_label(np.where(grid == KR.NODATA, np.inf, grid), 20.0)
    ids, counts = np.unique(labels[labels > 0], return_counts=True)
    want = pd.DataFrame({"basin": ids.astype(np.int64), "area": counts.astype(np.int64)})
    pd.testing.assert_frame_equal(
        got[["basin", "area"]].reset_index(drop=True), want
    )


def test_raster_diff_correction_chains(ray_session):
    """R8: distributed pairwise stats + greedy chains match a
    straight-line transcription of the reference's graph walk."""
    import ray.data

    from geotools_ray.ops.mosaicgraph import (
        build_chains, pairwise_diff_stats, raster_diff_correction,
    )
    from geotools_ray.ops.raster import grid_to_tiles

    rng = np.random.RandomState(21)
    base = rng.uniform(10, 20, (30, 40))
    NOD = -9999.0
    rasters = {}
    shifts = {0: 0.0, 1: 1.5, 2: -2.25, 3: 0.75}
    for rid, sh in shifts.items():
        g = base + sh
        mask = rng.uniform(size=g.shape) < 0.15 * (rid + 1) / 4
        g[mask] = NOD
        rasters[rid] = g

    tagged = None
    for rid, g in rasters.items():
        t = grid_to_tiles(g, 16).to_pandas()
        t["rid"] = rid
        ds = ray.data.from_pandas(t)
        tagged = ds if tagged is None else tagged.union(ds)

    pairs = pairwise_diff_stats(tagged)
    # straight-line oracle for the pair stats
    for _, r in pairs.iterrows():
        a, b = rasters[int(r["i"])], rasters[int(r["j"])]
        ok = (a != NOD) & (b != NOD)
        assert int(r["count"]) == int(ok.sum())
        assert abs(float(r["sum"]) - float((a[ok] - b[ok]).sum())) < 1e-6

    out = raster_diff_correction(tagged, root=0).set_index("rid")["shift"]
    # every raster's chain lands on rid 0 (full overlap -> max-count
    # edge from j is to the raster with most valid pixels, rid 0);
    # shift recovers -(planted offset) within diff-mean noise
    for rid in (1, 2, 3):
        assert abs(out.loc[rid] - (-shifts[rid])) < 1e-6
    assert 0 not in out.index  # the root emits no row (reference quirk)


def test_srtm_lakes_planted():
    """R12: planted flat regions >= minsize become water at their
    elevation; smaller flats and varying terrain do not."""
    from geotools_ray.kernels.raster import NODATA, srtm_lakes

    rng = np.random.RandomState(5)
    g = rng.uniform(100, 200, (20, 20))
    g[2:6, 2:6] = 150.0          # 16-cell lake
    g[10:12, 10:12] = 170.0      # 4-cell flat (below minsize)
    g[0, 19] = NODATA
    water = srtm_lakes(g, minsize=10)
    assert (water[2:6, 2:6] == 150.0).all()
    assert (water[10:12, 10:12] == 0.0).all()
    assert water[15, 15] == 0.0


def test_tiles_multi_matches_single_assembly(ray_ctx):
    """tiles_multi_from_cellstats must equal N independent
    tiles_from_cellstats passes, column for column (dense mode)."""
    from geotools_ray.ops.raster import (
        tiles_from_cellstats,
        tiles_multi_from_cellstats,
        tiles_to_grid,
    )

    rng = np.random.RandomState(11)
    cols, rows = 27, 18
    cid = rng.choice(cols * rows, 220, replace=False)
    a = rng.uniform(0, 9, 220)
    b = rng.uniform(-5, 5, 220)
    ds = ray_ctx.from_items(
        [
            {"cell_id": int(c), "ma": float(x), "mb": float(y)}
            for c, x, y in zip(cid, a, b)
        ]
    )
    mt = tiles_multi_from_cellstats(ds, ["ma", "mb"], cols, rows, tile=8,
                                    num_parts=4, dense=True).to_pandas()
    for col, vals in (("ma", a), ("mb", b)):
        single = tiles_from_cellstats(ds, col, cols, rows, tile=8,
                                      num_parts=4, dense=True)
        want = tiles_to_grid(single.to_pandas(), rows, cols, 8)
        got = tiles_to_grid(
            mt.rename(columns={"data_" + col: "data"}), rows, cols, 8
        )
        np.testing.assert_allclose(got, want)


def test_flood_label_tiles_canonical_ids(ray_session):
    """Distributed label tiles == the full-grid kernel's label grid,
    including scan-order id assignment across tile merges."""
    import ray.data

    from geotools_ray.ops.raster import (
        flood_label_tiles, grid_to_tiles, tiles_to_grid)

    rng = np.random.RandomState(11)
    grid = rng.uniform(0, 40, (37, 53))
    grid[rng.uniform(size=grid.shape) < 0.3] = NODATA
    H, W = grid.shape
    want = KR.flood_fill_label(np.where(grid == NODATA, np.inf, grid), 20.0)
    for tile in (8, 16):
        tiles = ray.data.from_arrow(grid_to_tiles(grid, tile))
        lab = flood_label_tiles(tiles, 20.0, H, W, tile)
        got = tiles_to_grid(lab.to_pandas(), H, W, tile, nodata=0.0)
        assert np.array_equal(got.astype(np.int64), want)


def test_spill_points_tiles_matches_kernel(ray_session):
    """Distributed halo'd edges + bucketed exactly-once pair join ==
    the full-grid all-pairs kernel (same pair set, same coords)."""
    import ray.data

    from geotools_ray.ops.raster import (
        flood_label_tiles, grid_to_tiles, spill_points_tiles)

    rng = np.random.RandomState(12)
    grid = rng.uniform(0, 40, (41, 47))
    grid[rng.uniform(size=grid.shape) < 0.25] = NODATA
    H, W = grid.shape
    labels = KR.flood_fill_label(np.where(grid == NODATA, np.inf, grid), 20.0)
    want = pd.DataFrame(
        KR.spill_points(labels, max_dist=4.0),
        columns=["id1", "c1", "r1", "id2", "c2", "r2", "dist"],
    )
    tiles = ray.data.from_arrow(grid_to_tiles(grid, 16))
    lab = flood_label_tiles(tiles, 20.0, H, W, 16)
    got = spill_points_tiles(lab, 4.0, H, W, 16).to_pandas()
    key = ["id1", "c1", "r1", "id2", "c2", "r2"]
    want = want.sort_values(key).reset_index(drop=True)
    got = got.sort_values(key).reset_index(drop=True)
    assert len(got) == len(want)
    for c in key:
        assert np.array_equal(got[c].to_numpy(), want[c].to_numpy()), c
    assert np.allclose(got["dist"], want["dist"])


def test_smooth_tiles_halo_wider_than_tile(ray_ctx):
    """Round-3 review fix: a window whose halo exceeds the tile size
    must replicate ceil(halo/tile) neighbour rings — the fixed 3x3
    silently nodata-filled context beyond one tile away."""
    from geotools_ray.ops.raster import smooth_tiles, tiles_to_grid

    g = make_grid(30, 34, seed=8)
    # size=13 -> half=6 > tile=4 (reach 2); also > tile=8 edge case no
    want = KR.smooth(g, sigma=2.0, size=13)
    for tile in (4, 8):
        ds = _tiles_ds(ray_ctx, g, tile)
        out = smooth_tiles(ds, 2.0, 13, g.shape[0], g.shape[1], tile, num_parts=4)
        got = tiles_to_grid(out.to_pandas(), g.shape[0], g.shape[1], tile)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
