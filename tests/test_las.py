"""sources/las.py: LAS 1.2 binary reader/writer (point formats 0-3)."""

import struct

import numpy as np
import pyarrow as pa
import pytest

from geotools_ray.sources import las as L


def _point_table(n=500, seed=0, rgb=False, gps=False):
    rng = np.random.RandomState(seed)
    cols = {
        "x": np.round(rng.uniform(0, 100, n), 1),
        "y": np.round(rng.uniform(0, 100, n), 1),
        "z": np.round(rng.uniform(-50, 50, n), 2),
        "intensity": rng.randint(0, 65536, n).astype(np.int64),
        "cls": rng.randint(0, 32, n).astype(np.int64),
        "return_num": rng.randint(1, 6, n).astype(np.int64),
        "num_returns": rng.randint(1, 6, n).astype(np.int64),
        "scan_angle": rng.randint(-90, 91, n).astype(np.int64),
        "point_source_id": rng.randint(0, 100, n).astype(np.int64),
    }
    if gps:
        cols["gps_time"] = rng.uniform(0, 1e6, n)
    if rgb:
        for c in ("red", "green", "blue"):
            cols[c] = rng.randint(0, 65536, n).astype(np.int64)
    return pa.table(cols)


@pytest.mark.parametrize("fmt", [0, 1, 2, 3])
def test_roundtrip_all_formats(ray_session, tmp_path, fmt):
    t = _point_table(300, seed=fmt, rgb=fmt in (2, 3), gps=fmt in (1, 3))
    p = str(tmp_path / f"f{fmt}.las")
    assert L.write_las(t, p, point_format=fmt) == 300
    hdr = L.las_header_info(p)
    assert hdr["fmt"] == fmt and hdr["npoints"] == 300
    back = L.read_las(p).to_pandas().sort_values(["x", "y", "z"]).reset_index(drop=True)
    src = t.to_pandas().sort_values(["x", "y", "z"]).reset_index(drop=True)
    # x/y at scale 0.1 and 1-decimal inputs: quantization is lossless
    # up to the documented re-quantize (round(v/s)*s)
    for c in ("x", "y"):
        assert np.allclose(back[c], src[c], atol=0.051)
    assert np.allclose(back["z"], src["z"], atol=0.0051)
    for c in ("intensity", "cls", "return_num", "num_returns", "scan_angle",
              "point_source_id"):
        assert (back[c].to_numpy() == src[c].to_numpy()).all(), c
    if fmt in (1, 3):
        assert np.allclose(back["gps_time"], src["gps_time"])  # f64: exact
    if fmt in (2, 3):
        for c in ("red", "green", "blue"):
            assert (back[c].to_numpy() == src[c].to_numpy()).all()


def test_chunked_read_equals_whole(ray_session, tmp_path):
    t = _point_table(1000, seed=9)
    p = str(tmp_path / "big.las")
    L.write_las(t, p, point_format=0)
    whole = L.read_las(p).to_pandas().sort_values(["x", "y", "z"]).reset_index(drop=True)
    chunked = (
        L.read_las(p, chunk_points=137)
        .to_pandas().sort_values(["x", "y", "z"]).reset_index(drop=True)
    )
    assert whole.equals(chunked)


def test_header_bbox_matches_quantized_data(tmp_path):
    t = _point_table(200, seed=3)
    p = str(tmp_path / "b.las")
    L.write_las(t, p, point_format=0)
    hdr = L.las_header_info(p)
    minx, miny, maxx, maxy, minz, maxz = hdr["bbox"]
    import ray.data  # noqa: F401  (read path needs an initialized ray)

    back = L.read_las(p).to_pandas()
    assert minx == back["x"].min() and maxx == back["x"].max()
    assert minz == back["z"].min() and maxz == back["z"].max()


def test_extra_record_bytes_are_skipped(ray_session, tmp_path):
    """Files with record length > the format size (extra bytes per
    point, allowed by the spec) parse via the strided dtype."""
    t = _point_table(50, seed=5)
    p = str(tmp_path / "pad.las")
    L.write_las(t, p, point_format=0)
    raw = bytearray(open(p, "rb").read())
    # rewrite with 3 pad bytes appended to every record
    dt = L._POINT_DTYPES[0]
    n = 50
    pts = raw[L.HEADER_SIZE:]
    padded = b"".join(
        bytes(pts[i * dt.itemsize : (i + 1) * dt.itemsize]) + b"\x00\x01\x02"
        for i in range(n)
    )
    struct.pack_into("<H", raw, 105, dt.itemsize + 3)
    p2 = str(tmp_path / "pad2.las")
    with open(p2, "wb") as f:
        f.write(raw[: L.HEADER_SIZE])
        f.write(padded)
    a = L.read_las(p).to_pandas().sort_values(["x", "y"]).reset_index(drop=True)
    b = L.read_las(p2).to_pandas().sort_values(["x", "y"]).reset_index(drop=True)
    assert a.equals(b)


def test_errors_are_loud(ray_session, tmp_path):
    t = _point_table(20, seed=1)
    p = str(tmp_path / "x.las")
    L.write_las(t, p, point_format=0)
    # truncated payload
    raw = open(p, "rb").read()
    p2 = str(tmp_path / "trunc.las")
    with open(p2, "wb") as f:
        f.write(raw[:-10])
    with pytest.raises(Exception, match="truncated"):
        L.read_las(p2).materialize()
    # bad signature
    p3 = str(tmp_path / "bad.las")
    with open(p3, "wb") as f:
        f.write(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="signature"):
        L.las_header_info(p3)
    # mixed formats in one call are refused
    p4 = str(tmp_path / "y.las")
    L.write_las(t, p4, point_format=1)
    with pytest.raises(ValueError, match="mixed point formats"):
        L.read_las([p, p4])


def test_partitioned_sink_hashes_whole_payload(tmp_path):
    """Two tiles with IDENTICAL x/y but different z must get distinct
    content-addressed names — a coordinate-only hash would let a
    retried sibling silently overwrite (the wds/tfrecord bug class)."""
    import hashlib

    t1 = _point_table(50, seed=2)
    t2 = t1.set_column(
        t1.schema.get_field_index("z"), "z",
        pa.array(np.round(t1["z"].to_numpy() + 1.0, 2)),
    )
    h1, p1, _ = L._render_las(t1, 1, (0.1, 0.1, 0.01), (0.0, 0.0, 0.0))
    h2, p2, _ = L._render_las(t2, 1, (0.1, 0.1, 0.01), (0.0, 0.0, 0.0))
    assert hashlib.md5(h1 + p1).digest() != hashlib.md5(h2 + p2).digest()
    # determinism: same table -> same bytes (retry idempotence)
    h3, p3, _ = L._render_las(t1, 1, (0.1, 0.1, 0.01), (0.0, 0.0, 0.0))
    assert (h1, p1) == (h3, p3)


def test_partitioned_sink_manifest(ray_session, tmp_path):
    import os

    import ray.data

    t = _point_table(400, seed=7)
    out = str(tmp_path / "tiles")
    man = L.write_las_partitioned(
        ray.data.from_arrow(t).repartition(4), out, point_format=1
    )
    assert man["rows"].to_numpy().sum() == 400
    files = sorted(f for f in os.listdir(out) if f.endswith(".las"))
    assert sorted(man["file"].to_pylist()) == files
    back = L.read_las(out).to_pandas()
    assert len(back) == 400


def test_quantization_property_random_tables(ray_session, tmp_path):
    """LAS round trip re-quantizes to the grid: |x' - x| <= scale/2
    for every axis, across random magnitudes/offsets."""
    rng = np.random.RandomState(77)
    for trial, (scale, offset) in enumerate(
        [((0.001, 0.001, 0.001), (500000.0, 4000000.0, 0.0)),
         ((0.5, 0.25, 0.125), (-10.0, 3.0, 100.0))]
    ):
        n = 300
        t = pa.table({
            "x": offset[0] + rng.uniform(-1000, 1000, n),
            "y": offset[1] + rng.uniform(-1000, 1000, n),
            "z": offset[2] + rng.uniform(-100, 100, n),
            # pairing key: sorting by quantized coords would mispair
            "point_source_id": np.arange(n, dtype=np.int64),
        })
        p = str(tmp_path / f"q{trial}.las")
        L.write_las(t, p, point_format=0, scale=scale, offset=offset)
        back = L.read_las(p).to_pandas().sort_values("point_source_id")
        src = t.to_pandas().sort_values("point_source_id")
        for c, s in zip(("x", "y", "z"), scale):
            d = np.abs(back[c].to_numpy() - src[c].to_numpy())
            assert d.max() <= s / 2 + 1e-9, (trial, c, d.max())


def test_oracle_quantization_rounds_ties_to_even():
    """The las_grid oracle's SQL quantization must round .5 ties the
    way write_las's np.round does (to even), not away from zero."""
    import duckdb

    from geotools_ray.queries_las import _quant

    # v / 0.5 is an exact tie for each value: 20.5, 3.5, -2.5
    v = np.array([10.25, 1.75, -1.25])
    sql = f"SELECT {_quant('v', 0.5)} AS q FROM (SELECT unnest(?) AS v)"
    got = np.array([r[0] for r in duckdb.execute(sql, [v.tolist()]).fetchall()])
    want = np.round(v / 0.5) * 0.5
    assert want.tolist() == [10.0, 2.0, -1.0]
    assert got.tolist() == want.tolist()


def _tiles(tmp_path, sizes):
    """One point-format-0 file per size, in sorted-name order."""
    paths = []
    for i, n in enumerate(sizes):
        p = str(tmp_path / f"tile{i}.las")
        L.write_las(_point_table(n, seed=10 + i), p, point_format=0)
        paths.append(p)
    return paths


def _per_range(paths, chunk_points):
    """The files' rows as the concatenation of their chunk ranges, read
    in (file, start) order outside Ray."""
    parts = []
    for p in paths:
        h = L.las_header_info(p)
        for start in range(0, h["npoints"], chunk_points):
            parts.append(L._chunk_to_table(
                p, h["fmt"], h["reclen"], h["data_offset"], start,
                min(chunk_points, h["npoints"] - start), h["scale"], h["offset"], None))
    return pa.concat_tables(parts)


def test_read_tasks_follow_cluster_cpus(ray_session, tmp_path):
    # the fixture's session has 4 CPUs: 8 ranges pack into 4 tasks
    paths = _tiles(tmp_path, [250, 300, 170])  # 3 + 3 + 2 ranges
    ds = L.read_las(paths, chunk_points=100)
    assert ds._plan.initial_num_blocks() == 4
    assert ds.materialize().num_blocks() == 4


def test_read_tasks_never_exceed_ranges(ray_session, tmp_path):
    paths = _tiles(tmp_path, [90, 60])  # one range per file
    ds = L.read_las(paths, chunk_points=100)
    assert ds._plan.initial_num_blocks() == 2
    assert ds.materialize().num_blocks() == 2


def test_packed_read_keeps_range_order(ray_session, tmp_path):
    import ray
    from ray.data import DataContext

    paths = _tiles(tmp_path, [250, 300, 170])
    opts = DataContext.get_current().execution_options
    keep = opts.preserve_order
    opts.preserve_order = True
    try:
        got = pa.concat_tables(ray.get(L.read_las(paths, chunk_points=100).to_arrow_refs()))
    finally:
        opts.preserve_order = keep
    assert got.equals(_per_range(paths, 100))


def test_read_tasks_grow_past_cpus_for_big_blocks(ray_session, tmp_path):
    from ray.data import DataContext

    paths = _tiles(tmp_path, [250, 300, 170])  # 720 points x 9 columns
    ctx = DataContext.get_current()
    keep = ctx.target_max_block_size
    # one 100-point range's estimate: ceil(720 * 72 / 7200) = 8 tasks
    ctx.target_max_block_size = 100 * 8 * 9
    try:
        ds = L.read_las(paths, chunk_points=100)
        assert ds._plan.initial_num_blocks() == 8
        assert ds.materialize().num_blocks() > 4
    finally:
        ctx.target_max_block_size = keep


def test_pack_balances_contiguous_groups():
    assert L._pack(np.full(8, 100), 4) == [2, 4, 6]
    assert L._pack(np.array([90, 60]), 2) == [1]
    assert L._pack(np.full(5, 7), 1) == []
    # a dominant first range still leaves every group non-empty
    assert L._pack(np.array([1000, 1, 1, 1]), 3) == [1, 2]
