"""The flagship image pipeline (the benchmark headline, BASELINE.md):

  image+caption table
    -> map_batches, ONE fused map per DECODE_BATCH_ROWS input rows
       (decode_and_join): footprint derive + hierarchical cell encode
       (tile assignment) from image_id, broadcast PIP spatial join
       against a polygon set with a cell-id prefilter (np.isin against
       the polygons' cell cover), then decode + verify of only the
       rows a polygon contains; emits the narrow join rows (pixels
       stay out of every shuffle)
    -> exact dedup by phash (hash-partitioned groupby, keep first)
    -> per-cell aggregate (images per cell)

Throughput metric = input images / wall seconds end-to-end.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import ray.data

from ..kernels import cellindex as ci
from ..kernels.geom import points_in_polygon
from ..ops.zonal import Polygon
from ..stages.imaging import decode_features_batch, footprint_cells_batch

DEFAULT_LEVEL = 12

# input rows per flagship_full front task (decode_and_join): ~42% of
# them match a polygon and about half of those are JPEG, so one decode
# call runs ~1,700 JPEGs through ONE wide entropy pass, whose cost is
# set by its longest restart segment, not its lane count
# (sources/jpegwide). 2048 gave ~430 JPEGs per pass: 0.30 ms/img
# against 0.23 at 1,700 on one CPU. One task for the whole input
# (16,384, IDCT unchunked) raised peak memory 16-27%.
DECODE_BATCH_ROWS = 8192

# deterministic lon/lat polygon fixture for the flagship join: three
# overlapping convex zones + one concave zone inside the +/-20 deg
# footprint bbox (F3 shape)
FLAGSHIP_POLYGONS = [
    Polygon(1, (((-15.0, -15.0), (0.5, -15.0), (0.5, 0.5), (-15.0, 0.5)),)),
    Polygon(2, (((-5.0, -5.0), (10.5, -5.0), (10.5, 10.5), (-5.0, 10.5)),)),
    Polygon(3, (((0.0, 0.0), (18.0, 2.0), (15.0, 15.0), (8.0, 18.0), (1.0, 12.0)),)),
    Polygon(4, (((-18.0, 5.0), (-2.0, 5.0), (-2.0, 9.0), (-12.0, 9.0), (-12.0, 15.0), (-18.0, 15.0)),)),
]


def polygon_cell_prefilter(polys: list[Polygon], level: int) -> dict[int, np.ndarray]:
    """polygon_id -> sorted array of candidate cell ids (bbox cover)."""
    return {p.polygon_id: np.sort(ci.cover_polygon([list(r) for r in p.rings], level)) for p in polys}


@functools.cache
def _flagship_side() -> tuple[list[Polygon], dict[int, np.ndarray]]:
    """The flagship polygons and their cell prefilter, built once per
    process (a pure function of module constants: ~13 ms, where a
    broadcast would ship 2 MB and need a Ray session)."""
    return FLAGSHIP_POLYGONS, polygon_cell_prefilter(FLAGSHIP_POLYGONS, DEFAULT_LEVEL)


def polygon_matcher():
    """-> match(t) -> (cell_id per row, row index, polygon_id), one
    (row, polygon) pair per footprint a flagship polygon contains: the
    cell-id prefilter (np.isin against each polygon's cell cover), then
    exact PIP on the candidates. Needs only t's image_id column — the
    footprint derives from it — so it can run before any decode."""

    def match(t: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        polys, prefilter = _flagship_side()
        f = footprint_cells_batch(t.select(["image_id"]), DEFAULT_LEVEL)
        lon = f["lon"].to_numpy(zero_copy_only=False)
        lat = f["lat"].to_numpy(zero_copy_only=False)
        cell = f["cell_id"].to_numpy(zero_copy_only=False)
        out_i, out_p = [np.array([], dtype=np.int64)], [np.array([], dtype=np.int64)]
        for p in polys:
            sub = np.flatnonzero(np.isin(cell, prefilter[p.polygon_id]))
            if not len(sub):
                continue
            sel = sub[points_in_polygon(lon[sub], lat[sub], [list(r) for r in p.rings])]
            out_i.append(sel)
            out_p.append(np.full(len(sel), p.polygon_id, dtype=np.int64))
        return cell, np.concatenate(out_i), np.concatenate(out_p)

    return match


def _join_rows(t: pa.Table, cell: np.ndarray, pi: np.ndarray, pid: np.ndarray) -> pa.Table:
    """-> (image_id, phash, cell_id, polygon_id), one row per (row pi
    of t, polygon pid) pair."""
    ids = t["image_id"].to_numpy(zero_copy_only=False)
    ph = t["phash"].to_numpy(zero_copy_only=False)
    # explicit types: a zero-match batch must emit string/int64
    # blocks, not null-typed ones (schema-unstable blocks break the
    # downstream union/shuffle — the zip_tiles bug class)
    return pa.table(
        {
            "image_id": pa.array(ids[pi], type=pa.string()),
            "phash": pa.array(ph[pi], type=pa.int64()),
            "cell_id": pa.array(cell[pi], type=pa.int64()),
            "polygon_id": pa.array(pid, type=pa.int64()),
        }
    )


def decode_and_join():
    """-> front(t): flagship_full's whole front half over one batch of
    the raw image table, in one pass. The polygon match runs once, on
    image_id; only the rows it matched are decoded and verified
    (phash recompute, the per-row input_hint invariant); the join rows
    come out of the match itself, so no row is matched twice. The
    verify is a GATE, not a report: a row whose recomputed perceptual
    hash mismatches the stored phash (bit-rot, mislabeled payload)
    loses every one of its (row, polygon) pairs, with a warning,
    instead of silently flowing into the dedup and rollup. A row no
    polygon contains is never decoded."""
    match = polygon_matcher()

    def front(t: pa.Table) -> pa.Table:
        cell, pi, pid = match(t)
        rows = np.unique(pi)
        ok = decode_features_batch(t.take(rows))["verify_ok"].to_numpy(zero_copy_only=False)
        if not ok.all():
            import logging

            logging.getLogger(__name__).warning(
                "flagship_full: dropping %d/%d images failing decode "
                "verification",
                int((~ok).sum()),
                len(ok),
            )
            keep = ok[np.searchsorted(rows, pi)]
            pi, pid = pi[keep], pid[keep]
        return _join_rows(t, cell, pi, pid)

    return front


def coalesce_blocks(ds: ray.data.Dataset) -> ray.data.Dataset:
    """A materialized `ds` merged into ceil(size_bytes /
    DataContext.target_min_block_size) blocks (Ray's own 1 MiB block
    floor) and materialized; returned as is when it has no more blocks
    than that. An exchange pays a fixed cost per input block, however
    small: the flagship join of 16,384 images (8 blocks of 16-50 KB)
    took 0.61 s to write, 0.46 s to dedup and 0.32 s to roll up on one
    CPU, and 0.32, 0.15 and 0.09 s merged into 1 block. The merge (a
    split repartition, no shuffle) runs downstream of the
    materialization, so it never fuses into the operator that produced
    `ds`, and it leaves no empty block, which a row-count re-bundling
    map would keep."""
    from ray.data import DataContext

    want = max(1, -(-ds.size_bytes() // DataContext.get_current().target_min_block_size))
    if ds.num_blocks() <= want:
        return ds
    return ds.repartition(want).materialize()


def assign_and_join(images: ray.data.Dataset) -> ray.data.Dataset:
    """-> (image_id, phash, cell_id, polygon_id) one row per match,
    with no decode or verify."""
    match = polygon_matcher()

    def fn(t: pa.Table) -> pa.Table:
        return _join_rows(t, *match(t))

    # pixels never reach this stage's output: project first, join narrow
    narrow = images.select_columns(["image_id", "phash"])
    return narrow.map_batches(fn, batch_format="pyarrow")


def dedup_by_phash(joined: ray.data.Dataset, salt_hot: bool = False) -> ray.data.Dataset:
    """Exact dedup (U4): keep the lexicographically-first image_id per
    (phash, polygon_id) — ops/dedup.exact_dedup, one hash exchange of
    Arrow partitions, salted over hot keys with `salt_hot`."""
    from .dedup import exact_dedup

    return exact_dedup(joined, ["phash", "polygon_id"], "image_id", salt_hot=salt_hot)


def cell_rollup(joined: ray.data.Dataset) -> ray.data.Dataset:
    """Images per (polygon, parent cell at level-2) — the compaction-
    style rollup (ST7). Partial-aggregates per batch first so the
    shuffle moves one row per (polygon, parent) per batch."""
    from ..stages.grouped import grouped_map

    def partial(t: pa.Table) -> pa.Table:
        keys = pa.table(
            {
                "polygon_id": t["polygon_id"],
                "parent_cell": ci.parent(t["cell_id"].to_numpy(zero_copy_only=False), 2),
            }
        )
        out = keys.group_by(["polygon_id", "parent_cell"]).aggregate([([], "count_all")])
        return out.select(["polygon_id", "parent_cell", "count_all"]).rename_columns(
            ["polygon_id", "parent_cell", "pn"]
        )

    def final(t: pa.Table) -> pa.Table:
        out = t.group_by(["polygon_id", "parent_cell"]).aggregate([("pn", "sum")])
        # select by NAME: pyarrow's key-vs-aggregate column order in
        # group_by output has differed across versions
        return out.select(["polygon_id", "parent_cell", "pn_sum"]).rename_columns(
            ["polygon_id", "parent_cell", "n_images"]
        )

    partials = joined.map_batches(partial, batch_format="pyarrow")
    return grouped_map(
        partials, ["polygon_id", "parent_cell"], final, batch_format="pyarrow"
    )


def _parquet_fingerprint(path: str) -> list | None:
    """Content identity of one parquet file from its footer alone (no
    data page is read): byte size, row count, and each row group's
    image_id min/max. None when it is not a local parquet file."""
    import os

    import pyarrow.parquet as pq

    try:
        md, size = pq.read_metadata(path), os.path.getsize(path)
    except (OSError, pa.ArrowInvalid):
        return None
    ids = []
    if "image_id" in md.schema.names:
        col = md.schema.names.index("image_id")
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(col).statistics
            ids.append([st.min, st.max] if st is not None and st.has_min_max else None)
    return [size, md.num_rows, ids]


def _input_token(images: ray.data.Dataset) -> str:
    """Input identity for resume validation, by content, not by path.
    A parquet-file input is fingerprinted from each file's footer
    (_parquet_fingerprint, order-insensitive over files), so a copied
    input resumes and different bytes under the same path are refused.
    Any other input (from_arrow, tar or TFRecord shards, remote files)
    hashes its image_id column, order-insensitively (one narrow pass).
    Guards against resuming a checkpoint against a DIFFERENT input,
    where rows hashing into completed partitions would be silently
    dropped."""
    import hashlib
    import json

    fps = [_parquet_fingerprint(f) for f in images.input_files() or []]
    if fps and None not in fps:
        blob = json.dumps(sorted(fps, key=json.dumps)).encode()
        return "parquet:" + hashlib.sha1(blob).hexdigest()
    from ray.data.aggregate import Sum

    from ..stages.grouped import hash_columns

    def hid(t: pa.Table) -> pa.Table:
        h = hash_columns(t, ["image_id"])
        # split into two unsigned-32 halves so int64 partial sums can't
        # overflow below 2^31 rows (sum order must not matter)
        return pa.table(
            {
                "_lo": (h & np.uint64(0xFFFFFFFF)).astype(np.int64),
                "_hi": (h >> np.uint64(32)).astype(np.int64),
            }
        )

    agg = (
        images.select_columns(["image_id"])
        .map_batches(hid, batch_format="pyarrow")
        .aggregate(Sum("_lo", alias_name="lo"), Sum("_hi", alias_name="hi"))
    ) or {}
    return f"ids:{int(agg.get('lo') or 0):x}:{int(agg.get('hi') or 0):x}"


def checkpoint_join(
    joined: ray.data.Dataset,
    out_dir: str,
    num_parts: int = 32,
    input_fragments: list[str] | None = None,
) -> ray.data.Dataset:
    """Durable restart boundary for the flagship: write the narrow
    join output as `num_parts` image_id-hash partitions with manifest
    records (atomic rename + lineage, state/manifest.py), and return
    the join rows for the shuffle stages from the object store, not
    from the files just written. The files are only the restart
    boundary (the reference's "skip outputs that exist"): a fresh run
    returns `joined` itself, a resumed run the read of the partitions
    done before this run plus `joined`.

    `joined` should be materialized (a resumed write passes over it
    twice) and must hold no row of a done partition (flagship_full's
    done filter drops them before decode), or this raises before any
    file is written."""
    from ..state.manifest import open_checkpoint, write_partitioned

    return write_partitioned(joined, open_checkpoint(out_dir, num_parts, input_fragments))


def flagship_full(
    images: ray.data.Dataset,
    checkpoint_dir: str | None = None,
    checkpoint_parts: int = 32,
) -> ray.data.Dataset:
    """The end-to-end metric pipeline (BASELINE.md headline): one
    fused map per DECODE_BATCH_ROWS input rows (decode_and_join:
    footprint/cell tile assignment and cell-prefiltered PIP join on
    image_id, then decode + verify of only the matched rows) -> phash
    dedup -> parent-cell rollup.

    The plan, from Dataset.stats() over a 16,384-image v5 table on a
    one-CPU node: ReadParquet->SplitBlocks(11) runs as its own
    operator (4 tasks, 44 blocks, 43 MB), so the payload bytes DO
    cross the object store once. The front then runs as ONE map of 2
    tasks (one per DECODE_BATCH_ROWS = 8,192 input rows; ~3,400
    matched rows, ~1,700 of them JPEG, decode in one call each) whose
    output is only the narrow join (8,176 rows, 0.35 MB). The join is
    then materialized and merged to one block per MiB
    (coalesce_blocks) before its exchanges.

    With `checkpoint_dir` the join output is checkpointed through the
    resumable manifest store (state/manifest): hash-partitioned by
    image_id into `checkpoint_parts` atomic parquet partitions, each
    with a lineage record. The manifest is read once (open_checkpoint),
    and on rerun the done filter (skip_done) runs on the RAW input
    table (partition key = hash(image_id), known before any compute),
    so the decode+join of completed partitions is genuinely never
    repaid. The files are a restart boundary, not a data path: dedup
    and rollup read the materialized join from the object store, and a
    resumed run adds a read of only the partitions done before it
    (write_partitioned). At design scale this is the restart boundary
    between the embarrassingly-parallel front half and the shuffle
    back half."""
    from ..state.manifest import open_checkpoint, skip_done, write_partitioned

    if checkpoint_dir is not None:
        ck = open_checkpoint(checkpoint_dir, checkpoint_parts, [_input_token(images)])
        images = skip_done(images, ck)
    joined = images.map_batches(
        decode_and_join(), batch_format="pyarrow", batch_size=DECODE_BATCH_ROWS
    )
    # materialize the NARROW join output (~40 B/row) before any
    # exchange: the streaming executor schedules an AllToAll chained
    # directly after the heavy fused decode-map very poorly (measured
    # 6x slowdown at 8 cpus: 97 s lazy vs 16 s materialized; 22.5 s ->
    # 13.0 s on the 2M-image headline). It arrives as one small block
    # per decode task (2 of ~175 KB at 16,384 images); coalesced, the
    # write, dedup and rollup exchanges each pay the one-block cost
    joined = coalesce_blocks(joined.materialize())
    if checkpoint_dir is not None:
        joined = write_partitioned(joined, ck)
    deduped = dedup_by_phash(joined, salt_hot=True)
    return cell_rollup(deduped)
