"""LAS 1.2 binary point-cloud source/sink (point formats 0-3).

The reference ingests .las files through a header parse + batched
point reads (reference include/lasreader.hpp:17-160 BATCH_SIZE=1e6,
src/laspoint.cpp:124-243 field decode); every LAS-derived semantic in
this engine already runs over point TABLES, so this module closes the
last source family: real .las bytes -> the engine's point schema.

Scale design: the DRIVER only reads 227-byte headers (one tiny read
per file, like the reference's header scan); the point payload is
split into fixed-size record ranges and each range is read + decoded
INSIDE a Ray task with one seek + one contiguous read + one
np.frombuffer over a structured dtype — no Python per point, no whole
-file bytes through the object store. A 100 GB flight line becomes
~100 1M-point ranges; read_las packs ranges into one task per CPU (or
per target block size, when that gives more tasks).

Quantization note: LAS stores int32 grid coordinates; x = X*scale +
offset re-quantizes any float input. Oracles over a LAS round trip
must model that explicitly (queries_las.SQL mirrors the exact
round + multiply in SQL) instead of pretending floats survive.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pyarrow as pa
import ray.data

from ..stages.grouped import cluster_cpus

HEADER_SIZE = 227  # LAS 1.2
_POINT_DTYPES = {
    0: np.dtype(
        [
            ("X", "<i4"), ("Y", "<i4"), ("Z", "<i4"), ("intensity", "<u2"),
            ("flags", "u1"), ("cls", "u1"), ("scan_angle", "i1"),
            ("user_data", "u1"), ("point_source_id", "<u2"),
        ]
    ),
    1: np.dtype(
        [
            ("X", "<i4"), ("Y", "<i4"), ("Z", "<i4"), ("intensity", "<u2"),
            ("flags", "u1"), ("cls", "u1"), ("scan_angle", "i1"),
            ("user_data", "u1"), ("point_source_id", "<u2"), ("gps_time", "<f8"),
        ]
    ),
    2: np.dtype(
        [
            ("X", "<i4"), ("Y", "<i4"), ("Z", "<i4"), ("intensity", "<u2"),
            ("flags", "u1"), ("cls", "u1"), ("scan_angle", "i1"),
            ("user_data", "u1"), ("point_source_id", "<u2"),
            ("red", "<u2"), ("green", "<u2"), ("blue", "<u2"),
        ]
    ),
    3: np.dtype(
        [
            ("X", "<i4"), ("Y", "<i4"), ("Z", "<i4"), ("intensity", "<u2"),
            ("flags", "u1"), ("cls", "u1"), ("scan_angle", "i1"),
            ("user_data", "u1"), ("point_source_id", "<u2"), ("gps_time", "<f8"),
            ("red", "<u2"), ("green", "<u2"), ("blue", "<u2"),
        ]
    ),
}


def las_header_info(path: str) -> dict:
    """Parse the 227-byte LAS 1.2 public header block."""
    with open(path, "rb") as f:
        hdr = f.read(HEADER_SIZE)
    if hdr[:4] != b"LASF":
        raise ValueError(f"{path}: not a LAS file (bad signature)")
    ver_major, ver_minor = hdr[24], hdr[25]
    if (ver_major, ver_minor) not in ((1, 0), (1, 1), (1, 2)):
        raise NotImplementedError(f"LAS {ver_major}.{ver_minor} (supported: 1.0-1.2)")
    (header_size,) = struct.unpack_from("<H", hdr, 94)
    (data_offset,) = struct.unpack_from("<I", hdr, 96)
    fmt = hdr[104]
    if fmt not in _POINT_DTYPES:
        raise NotImplementedError(f"LAS point format {fmt} (supported: 0-3)")
    (reclen,) = struct.unpack_from("<H", hdr, 105)
    (npoints,) = struct.unpack_from("<I", hdr, 107)
    sx, sy, sz, ox, oy, oz = struct.unpack_from("<6d", hdr, 131)
    maxx, minx, maxy, miny, maxz, minz = struct.unpack_from("<6d", hdr, 179)
    want = _POINT_DTYPES[fmt].itemsize
    if reclen < want:
        raise ValueError(f"{path}: record length {reclen} < format {fmt} size {want}")
    return {
        "path": path, "fmt": int(fmt), "reclen": int(reclen),
        "npoints": int(npoints), "data_offset": int(data_offset),
        "header_size": int(header_size),
        "scale": (sx, sy, sz), "offset": (ox, oy, oz),
        "bbox": (minx, miny, maxx, maxy, minz, maxz),
    }


def _chunk_to_table(
    path, fmt, reclen, data_offset, start, count, scale, offset, columns
) -> pa.Table:
    dt = _POINT_DTYPES[fmt]
    with open(path, "rb") as f:
        f.seek(data_offset + start * reclen)
        raw = f.read(count * reclen)
    if len(raw) < count * reclen:
        raise ValueError(
            f"{path}: truncated point data (chunk at {start} wants "
            f"{count} x {reclen} bytes)"
        )
    if reclen == dt.itemsize:
        rec = np.frombuffer(raw, dtype=dt, count=count)
    else:  # extra bytes per record: view through a strided dtype
        padded = np.dtype({
            "names": list(dt.names), "formats": [dt[n] for n in dt.names],
            "offsets": [dt.fields[n][1] for n in dt.names], "itemsize": reclen,
        })
        rec = np.frombuffer(raw, dtype=padded, count=count)
    flags = rec["flags"]
    cols: dict[str, np.ndarray] = {
        # same op order as the queries_las SQL mirror: int * scale + offset
        "x": rec["X"].astype(np.float64) * scale[0] + offset[0],
        "y": rec["Y"].astype(np.float64) * scale[1] + offset[1],
        "z": rec["Z"].astype(np.float64) * scale[2] + offset[2],
        "intensity": rec["intensity"].astype(np.int64),
        # classification byte: low 5 bits are the class, bits 5-7 are
        # synthetic/keypoint/withheld (laspoint.cpp keeps the low bits)
        "cls": (rec["cls"] & 0x1F).astype(np.int64),
        "return_num": (flags & 0x07).astype(np.int64),
        "num_returns": ((flags >> 3) & 0x07).astype(np.int64),
        "scan_angle": rec["scan_angle"].astype(np.int64),
        "point_source_id": rec["point_source_id"].astype(np.int64),
    }
    if "gps_time" in dt.names:
        cols["gps_time"] = rec["gps_time"].astype(np.float64)
    if "red" in dt.names:
        for c in ("red", "green", "blue"):
            cols[c] = rec[c].astype(np.int64)
    if columns is not None:
        cols = {c: cols[c] for c in columns}
    return pa.table(cols)


def _pack(counts: np.ndarray, n_groups: int) -> list[int]:
    """Cut points splitting ranges, in order, into `n_groups`
    contiguous non-empty groups balanced by point count."""
    cum = np.cumsum(counts)
    cuts: list[int] = []
    lo, n = 0, len(counts)
    for k in range(1, n_groups):
        c = int(np.searchsorted(cum, cum[-1] * k / n_groups)) + 1
        lo = min(max(c, lo + 1), n - n_groups + k)
        cuts.append(lo)
    return cuts


def read_las(
    paths, chunk_points: int = 1_000_000, columns: list[str] | None = None
) -> ray.data.Dataset:
    """.las file / directory / list -> point Dataset; all files must
    share a point format so blocks have one schema.

    The driver reads headers only and cuts each file's records into
    ranges of at most `chunk_points`: the most one seek + contiguous
    read + decode covers. The ranges, in (file, start) order, are
    packed into T contiguous groups balanced by point count, and each
    group is one Ray task and one output block (rows keep the
    (file, start) order):

        T = min(ranges, max(ceil(est_bytes / target_max_block_size),
                            cluster CPUs))

    with est_bytes = points x 8 B x output columns. T fills the cluster
    once and keeps blocks under Ray's target size; it does not grow
    with the chunk count, because every downstream map and sort
    shuffle pays a fixed cost per block (one 600k-row exchange on one
    CPU: 0.27-0.29 s from 5 blocks, 0.14 s from 1)."""
    if isinstance(paths, str):
        if os.path.isdir(paths):
            paths = sorted(
                os.path.join(paths, f)
                for f in os.listdir(paths)
                if f.endswith(".las")
            )
        else:
            paths = [paths]
    if not paths:
        raise ValueError("read_las: no .las files")
    chunks: list[dict] = []
    fmt0 = None
    for p in paths:
        hdr = las_header_info(p)
        if fmt0 is None:
            fmt0 = hdr["fmt"]
        elif hdr["fmt"] != fmt0:
            raise ValueError(
                f"read_las: mixed point formats ({fmt0} and {hdr['fmt']}) — "
                "read them in separate calls"
            )
        for start in range(0, hdr["npoints"], chunk_points):
            cnt = min(chunk_points, hdr["npoints"] - start)
            chunks.append(
                {
                    "path": p, "fmt": hdr["fmt"], "reclen": hdr["reclen"],
                    "data_offset": hdr["data_offset"], "start": start,
                    "count": cnt,
                    "sx": hdr["scale"][0], "sy": hdr["scale"][1], "sz": hdr["scale"][2],
                    "ox": hdr["offset"][0], "oy": hdr["offset"][1], "oz": hdr["offset"][2],
                }
            )
    empty = _chunk_to_table(paths[0], fmt0, _POINT_DTYPES[fmt0].itemsize,
                            HEADER_SIZE, 0, 0, (1, 1, 1), (0, 0, 0), columns)
    if not chunks:  # all files hold zero points: empty typed dataset
        return ray.data.from_arrow(empty)
    plan = pa.Table.from_pylist(chunks)

    def parse(t: pa.Table) -> pa.Table:
        parts = [
            _chunk_to_table(
                r["path"], r["fmt"], r["reclen"], r["data_offset"], r["start"],
                r["count"], (r["sx"], r["sy"], r["sz"]), (r["ox"], r["oy"], r["oz"]),
                columns,
            )
            for r in t.to_pylist()
        ]
        return pa.concat_tables(parts)

    counts = plan["count"].to_numpy()
    est_bytes = int(counts.sum()) * 8 * empty.num_columns
    target = ray.data.DataContext.get_current().target_max_block_size
    cpus = cluster_cpus() or os.cpu_count() or 1
    n_tasks = min(len(chunks), max(-(-est_bytes // target), cpus))
    bounds = [0, *_pack(counts, n_tasks), len(chunks)]
    groups = [plan.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    return ray.data.from_arrow(groups).map_batches(
        parse, batch_format="pyarrow", batch_size=None
    )


def write_las(
    t: pa.Table,
    path: str,
    point_format: int = 1,
    scale=(0.1, 0.1, 0.01),
    offset=(0.0, 0.0, 0.0),
) -> int:
    """Point table -> one .las file (the fixture/writer side; a real
    corpus writes one file per partition). Columns x/y/z required;
    intensity/cls/return_num/num_returns/scan_angle/gps_time/red/
    green/blue/point_source_id used when present. Returns rows."""
    hdr, payload, n = _render_las(t, point_format, scale, offset)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(hdr)
        f.write(payload)
    os.replace(tmp, path)
    return n


def _render_las(t: pa.Table, point_format: int, scale, offset):
    """-> (header bytes, point payload bytes, rows) — deterministic
    for a given table, so sinks can content-address whole files."""
    dt = _POINT_DTYPES[point_format]
    n = len(t)
    rec = np.zeros(n, dtype=dt)

    def col(name, default=0):
        if name in t.schema.names:
            return t[name].to_numpy(zero_copy_only=False)
        return np.full(n, default)

    x = col("x").astype(np.float64)
    y = col("y").astype(np.float64)
    z = col("z").astype(np.float64)
    for axis, arr, s, o in (("X", x, scale[0], offset[0]),
                            ("Y", y, scale[1], offset[1]),
                            ("Z", z, scale[2], offset[2])):
        q = np.round((arr - o) / s)
        if (np.abs(q) > 2**31 - 1).any():
            raise ValueError(f"write_las: {axis} exceeds int32 at scale {s}")
        rec[axis] = q.astype(np.int32)
    rec["intensity"] = np.clip(col("intensity"), 0, 65535).astype(np.uint16)
    rn = np.clip(col("return_num", 1), 0, 7).astype(np.uint8)
    nr = np.clip(col("num_returns", 1), 0, 7).astype(np.uint8)
    rec["flags"] = rn | (nr << 3)
    rec["cls"] = np.clip(col("cls"), 0, 31).astype(np.uint8)
    rec["scan_angle"] = np.clip(col("scan_angle"), -128, 127).astype(np.int8)
    rec["point_source_id"] = np.clip(col("point_source_id"), 0, 65535).astype(np.uint16)
    if "gps_time" in dt.names:
        rec["gps_time"] = col("gps_time", 0.0).astype(np.float64)
    if "red" in dt.names:
        for c in ("red", "green", "blue"):
            rec[c] = np.clip(col(c), 0, 65535).astype(np.uint16)

    # by-return histogram (returns 1..5, the header's legacy counters)
    by_ret = np.bincount(np.clip(rn, 1, 5), minlength=6)[1:6]
    hdr = bytearray(HEADER_SIZE)
    hdr[0:4] = b"LASF"
    hdr[24] = 1  # version 1.2
    hdr[25] = 2
    hdr[26:26 + 10] = b"geotools_r"[:10]  # system identifier (padded field)
    struct.pack_into("<H", hdr, 94, HEADER_SIZE)
    struct.pack_into("<I", hdr, 96, HEADER_SIZE)  # data right after header
    struct.pack_into("<I", hdr, 100, 0)  # no VLRs
    hdr[104] = point_format
    struct.pack_into("<H", hdr, 105, dt.itemsize)
    struct.pack_into("<I", hdr, 107, n)
    struct.pack_into("<5I", hdr, 111, *(int(c) for c in by_ret))
    struct.pack_into("<6d", hdr, 131, *scale, *offset)
    # real (post-quantization) bounds, like any conforming writer
    xr = rec["X"].astype(np.float64) * scale[0] + offset[0]
    yr = rec["Y"].astype(np.float64) * scale[1] + offset[1]
    zr = rec["Z"].astype(np.float64) * scale[2] + offset[2]
    if n:
        struct.pack_into(
            "<6d", hdr, 179,
            float(xr.max()), float(xr.min()), float(yr.max()),
            float(yr.min()), float(zr.max()), float(zr.min()),
        )
    return bytes(hdr), rec.tobytes(), n


def write_las_partitioned(
    ds: ray.data.Dataset, out_dir: str, point_format: int = 1,
    scale=(0.1, 0.1, 0.01), offset=(0.0, 0.0, 0.0),
) -> pa.Table:
    """Dataset -> one .las tile per block (content-named, idempotent
    retry like the wds/tfrecord sinks); returns the (file, rows)
    manifest — the only driver-side state."""
    import hashlib

    os.makedirs(out_dir, exist_ok=True)

    def write_batch(t: pa.Table) -> pa.Table:
        # hash the WHOLE rendered file, not a column subset: two tiles
        # sharing x/y but differing in z/intensity must not collide
        # into one name and silently overwrite (the prefix-hash bug
        # class fixed in tfrecord/wds)
        hdr, payload, rows = _render_las(t, point_format, scale, offset)
        name = "tile-" + hashlib.md5(hdr + payload).hexdigest()[:16] + ".las"
        path = os.path.join(out_dir, name)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(hdr)
            f.write(payload)
        os.replace(tmp, path)  # idempotent on retry
        return pa.table({
            "file": pa.array([name], type=pa.string()),
            "rows": pa.array([rows], type=pa.int64()),
        })

    man = ds.map_batches(write_batch, batch_format="pyarrow", batch_size=None)
    return pa.concat_tables(
        list(man.iter_batches(batch_format="pyarrow", batch_size=None))
    )
