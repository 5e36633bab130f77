"""Seeded input generator and DuckDB expected results.

Everything here is a function of (size, seed) and is cached under
`.perfbench_cache/` at the checkout root, so the timed program only
ever sees finished files:

- images: a table of the v5 mixed-layout image corpus (50% PNG; JPEG
  rows 9/16 4:2:0, 4/16 4:4:4, 2/16 4:2:2, 1/16 progressive; every
  100th row a root-dereferenced duplicate). Encoding is the costly
  part (~1.5 ms/img with the repo's spec codecs), so one pool of
  encoded rows is built per checkout and each seed draws a layout-
  stratified permutation of it under fresh image ids.
- lidar: LAS 1.2 point-format-1 tiles (2x2 quadrants of a 100 x 100
  area) with a dense hot spot, written by `sources.las.write_las`.
  z is stored at a binary scale (2^-7) so sums and means are exact in
  any summation order, which keeps the DuckDB comparison bit-stable.
- resume template: a checked checkpoint of the seed's image table with
  half of its partitions done, made by a full flagship run of this
  checkout's code and keyed by the digest of its sources.

Expected outputs come from the repo's own DuckDB oracle SQL
(`queries_img_sql.SQL_IMG_FLAGSHIP`, `queries.SQL_GRID_STATS`,
`SQL_GRID_EXACT`, `SQL_ZONAL_STATS`), re-pointed at side parquet files
written here instead of the oracle's fixed paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(ROOT, ".perfbench_cache")
VERSION = "v2"

POOL_SEED = 20251017
DUP_EVERY = 100
IMG_FILES = 4
# LAS scale: 0.1 on x/y (multiples of 0.1 never meet the .x5 zonal
# rectangle edges of queries.RECTS) and 2^-7 on z (exact sums)
LAS_SCALE = (0.1, 0.1, 0.0078125)
LAS_CHUNK = 250_000

SIZES = {
    # images per table (a multiple of 32 * IMG_FILES keeps the layout
    # mix exact per file), LiDAR points per tile set
    "full": {"images": 16384, "points": 600_000},
    "tiny": {"images": 256, "points": 40_000},
}


def _atomic_dir(final: str, build) -> str:
    """Build into a temp sibling and rename into place, so a crashed
    generator never leaves a half-written cache entry behind."""
    if os.path.isdir(final):
        return final
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    try:
        os.rename(tmp, final)
    except OSError:  # a concurrent generator won the race
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def file_digest(paths: list[str]) -> str:
    """sha256 over the bytes of `paths` in sorted order (also pulls
    them into the page cache)."""
    h = hashlib.sha256()
    for p in sorted(paths):
        with open(p, "rb") as f:
            while chunk := f.read(1 << 22):
                h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output digests


def round_half_away(x: np.ndarray, digits: int = 6) -> np.ndarray:
    """DuckDB ROUND(x, 6) semantics (half away from zero)."""
    x = np.asarray(x, dtype=np.float64)
    p = 10.0**digits
    return np.copysign(np.floor(np.abs(x) * p + 0.5), x) / p


def table_digest(cols: dict[str, np.ndarray]) -> str:
    """Order-insensitive digest of a result: floats rounded to 6
    decimals and printed with 6 decimals, ints printed as ints, rows
    sorted, columns by name."""
    names = sorted(cols)
    text = []
    for n in names:
        v = np.asarray(cols[n])
        if v.dtype.kind == "f":
            text.append(np.char.mod("%.6f", round_half_away(v)))
        else:
            text.append(v.astype(np.int64).astype(str))
    rows = sorted("|".join(r) for r in zip(*text)) if names else []
    h = hashlib.sha256(",".join(names).encode())
    h.update("\n".join(rows).encode())
    return h.hexdigest()


def df_digest(df) -> str:
    return table_digest({c: df[c].to_numpy() for c in df.columns})


# ---------------------------------------------------------------------------
# images


def _layout(j: int) -> str:
    """Layout class of pool row j (the repo generator's row rule)."""
    from geotools_ray.sources.images import FMTS, jpeg_variant

    if FMTS[j % len(FMTS)] == "png":
        return "png"
    v = jpeg_variant(j)
    return "jpegprog" if v == "prog" else f"jpeg{v}"


def _pool(n: int) -> str:
    """n encoded rows of the v5 corpus (no duplicates), built once."""
    from geotools_ray.sources.images import image_rows

    def build(tmp):
        parts = [image_rows(range(s, min(s + 512, n)), POOL_SEED, 0) for s in range(0, n, 512)]
        pq.write_table(pa.concat_tables(parts), os.path.join(tmp, "pool.parquet"), compression="none")

    return _atomic_dir(os.path.join(CACHE, f"pool_{VERSION}_n{n}"), build)


def image_table(size: str, seed: int) -> dict:
    """-> {"dir", "files", "side", "rows", "expected", "input_digest",
    "template"} for the seed's image table (generated on first use)."""
    n = SIZES[size]["images"]
    d = os.path.join(CACHE, f"img_{VERSION}_n{n}_s{seed}")

    def build(tmp):
        from geotools_ray.sources.images import dup_root

        pool = pq.read_table(os.path.join(_pool(n), "pool.parquet"))
        rng = np.random.default_rng(seed)
        layouts = np.array([_layout(j) for j in range(n)])
        # each position keeps the pool's layout sequence; which pool row
        # of that layout lands there is the seed's permutation
        src = np.empty(n, dtype=np.int64)
        for lay in np.unique(layouts):
            pos = np.flatnonzero(layouts == lay)
            src[pos] = rng.permutation(pos)
        for k in range(n):
            r = dup_root(k, DUP_EVERY)
            if r is not None:
                src[k] = src[r]
                layouts[k] = layouts[r]
        t = pool.take(pa.array(src))
        # ids in the repo's form (footprints derive from the id), drawn
        # at random from the corpus id space: footprints hashed from a
        # contiguous id range cluster, so the PIP hit count, and with it
        # the work of a run, would vary from seed to seed
        ids = pa.array([f"img{x:012d}" for x in rng.choice(10**12, n, replace=False)], pa.string())
        t = t.set_column(t.schema.get_field_index("image_id"), "image_id", ids)
        os.makedirs(os.path.join(tmp, "images"))
        per = n // IMG_FILES
        for i in range(IMG_FILES):
            pq.write_table(
                t.slice(i * per, per),
                os.path.join(tmp, "images", f"part-{i:03d}.parquet"),
                compression="none",
            )
        side = _flagship_side(t, layouts)
        pq.write_table(side, os.path.join(tmp, "side.parquet"))
        expected = _flagship_expected(os.path.join(tmp, "side.parquet"))
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump({"rows": n, "expected": expected,
                       "input_digest": file_digest(_files(os.path.join(tmp, "images")))}, f)

    _atomic_dir(d, build)
    with open(os.path.join(d, "meta.json")) as f:
        meta = json.load(f)
    img = os.path.join(d, "images")
    return {
        "dir": img,
        "files": _files(img),
        "side": os.path.join(d, "side.parquet"),
        "rows": meta["rows"],
        "expected": meta["expected"],
        "input_digest": meta["input_digest"],
        "template": os.path.join(d, f"resume_template_{program_digest()[:16]}"),
    }


def _files(d: str) -> list[str]:
    return sorted(os.path.join(d, f) for f in os.listdir(d) if not f.startswith((".", "_")))


def _flagship_side(t: pa.Table, layouts: np.ndarray) -> pa.Table:
    """(image_id, lon, lat, phash) for the oracle SQL, plus the row's
    layout class for the traced decode split."""
    from geotools_ray.sources.images import footprint_lonlat

    # the pipeline derives footprints with its default seed (42)
    lon, lat = footprint_lonlat(t["image_id"], seed=42)
    return pa.table({
        "image_id": t["image_id"].combine_chunks(),
        "lon": pa.array(lon), "lat": pa.array(lat),
        "phash": t["phash"].combine_chunks(),
        "layout": pa.array(layouts.tolist(), pa.string()),
    })


def _duck(sql: str):
    import duckdb

    con = duckdb.connect()
    try:
        return con.execute(sql).df()
    finally:
        con.close()


def _flagship_expected(side: str) -> str:
    from geotools_ray.queries_img_sql import SIDE_PATH, SQL_IMG_FLAGSHIP

    return df_digest(_duck(SQL_IMG_FLAGSHIP.replace(SIDE_PATH, side)))


def flagship_digest(df) -> str:
    """Digest of flagship_full's output in the oracle's column shape."""
    cols = ["polygon_id", "parent_cell", "n_images"]
    if df.empty:  # Ray returns a frame without columns for no rows
        return table_digest({c: np.empty(0, np.int64) for c in cols})
    return df_digest(df[cols])


def program_digest() -> str:
    """sha256 over the geotools_ray sources. The resume template is the
    program's own output, so it is keyed by the code that wrote it: a
    checkout never resumes from a checkpoint another version made."""
    pkg = os.path.join(ROOT, "geotools_ray")
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, pkg).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def build_resume_template(img: dict, fill) -> None:
    """Checkpoint of a run that finished half of the 32 partitions:
    `fill(dir)` puts a full, checked checkpoint of the program's own
    flagship run into dir; the even-numbered partitions (data and
    manifest record) are then removed."""

    def build(tmp):
        fill(tmp)
        for k in range(0, 32, 2):
            shutil.rmtree(os.path.join(tmp, f"part={k}"))
            os.remove(os.path.join(tmp, "_manifest", f"{k}.json"))

    _atomic_dir(img["template"], build)


# ---------------------------------------------------------------------------
# LiDAR


def lidar_tiles(size: str, seed: int) -> dict:
    """-> {"dir", "files", "rows", "expected": {op: digest}} for the
    seed's LAS tile set (generated on first use)."""
    n = SIZES[size]["points"]
    d = os.path.join(CACHE, f"las_{VERSION}_n{n}_s{seed}")

    def build(tmp):
        from geotools_ray.sources.las import write_las

        rng = np.random.default_rng(seed)
        n_hot = n * 3 // 10
        hx, hy = rng.uniform(20, 80, 2)
        x = np.concatenate([rng.uniform(0, 100, n - n_hot), rng.normal(hx, 1.5, n_hot)])
        y = np.concatenate([rng.uniform(0, 100, n - n_hot), rng.normal(hy, 1.5, n_hot)])
        # integer LAS grid first, so the float values the reader
        # reconstructs (X * scale) are known exactly here
        X = np.clip(np.floor(x / LAS_SCALE[0]), 0, 999).astype(np.int64)
        Y = np.clip(np.floor(y / LAS_SCALE[1]), 0, 999).astype(np.int64)
        Z = np.floor((rng.gamma(2.0, 6.0, n) + 0.05 * X * LAS_SCALE[0]) / LAS_SCALE[2]).astype(np.int64)
        order = rng.permutation(n)
        X, Y, Z = X[order], Y[order], Z[order]
        pts = pa.table({
            "x": X * LAS_SCALE[0], "y": Y * LAS_SCALE[1], "z": Z * LAS_SCALE[2],
            "intensity": rng.integers(0, 4096, n), "cls": rng.integers(1, 7, n),
            "return_num": np.ones(n, np.int64), "num_returns": np.ones(n, np.int64),
            "scan_angle": rng.integers(-20, 21, n), "gps_time": np.arange(n) * 1e-5,
        })
        os.makedirs(os.path.join(tmp, "tiles"))
        q = (X >= 500).astype(np.int64) + 2 * (Y >= 500).astype(np.int64)
        for i in range(4):
            write_las(pts.filter(pa.array(q == i)), os.path.join(tmp, "tiles", f"tile{i}.las"),
                      point_format=1, scale=LAS_SCALE)
        side = os.path.join(tmp, "side.parquet")
        pq.write_table(pts.select(["x", "y", "z"]), side)
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump({"rows": n, "expected": _lidar_expected(side),
                       "input_digest": file_digest(_files(os.path.join(tmp, "tiles")))}, f)

    _atomic_dir(d, build)
    with open(os.path.join(d, "meta.json")) as f:
        meta = json.load(f)
    tiles = os.path.join(d, "tiles")
    return {"dir": tiles, "files": _files(tiles), "rows": meta["rows"],
            "expected": meta["expected"], "input_digest": meta["input_digest"]}


def _lidar_expected(side: str) -> dict[str, str]:
    from geotools_ray import queries as Q
    from geotools_ray.stages import tpch

    def point(sql: str) -> str:
        return (sql.replace(tpch.PTS_SQL, f"SELECT x, y, z FROM read_parquet('{side}')")
                .replace(tpch.SAMPLES_SQL, "SELECT 1 AS s"))

    return {
        "grid_partial": df_digest(_duck(point(Q.SQL_GRID_STATS))),
        "grid_exact": df_digest(_duck(point(Q.SQL_GRID_EXACT))),
        "zonal": df_digest(_duck(point(Q.SQL_ZONAL_STATS))),
    }
