"""The flagship image pipeline (the benchmark headline, BASELINE.md):

  image+caption table
    -> map_batches: footprint derive + hierarchical cell encode  (tile assignment)
    -> narrow projection (pixels stay out of every shuffle)
    -> broadcast PIP spatial join against a polygon set, with a
       cell-id prefilter (np.isin against the polygons' cell cover)
    -> exact dedup by phash (hash-partitioned groupby, keep first)
    -> per-cell aggregate (images per cell + mean dims)

Throughput metric = input images / wall seconds end-to-end.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..kernels import cellindex as ci
from ..kernels.geom import points_in_polygon
from ..ops.zonal import Polygon
from ..stages.imaging import footprint_cells_batch

DEFAULT_LEVEL = 12

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


def assign_and_join(
    images: ray.data.Dataset,
    polygons: list[Polygon] | None = None,
    level: int = DEFAULT_LEVEL,
    seed: int = 42,
) -> ray.data.Dataset:
    """-> (image_id, phash, cell_id, polygon_id) one row per match."""
    polygons = polygons or FLAGSHIP_POLYGONS
    pre = polygon_cell_prefilter(polygons, level)
    bc = ray.put((polygons, pre))

    def fn(t: pa.Table) -> pa.Table:
        polys, prefilter = ray.get(bc)
        t = footprint_cells_batch(t, level, seed)
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        cell = t["cell_id"].to_numpy(zero_copy_only=False)
        ids = t["image_id"].to_numpy(zero_copy_only=False)
        ph = t["phash"].to_numpy(zero_copy_only=False)
        out_i, out_p = [], []
        for p in polys:
            cand = np.isin(cell, prefilter[p.polygon_id], assume_unique=False)
            if not cand.any():
                continue
            sub = np.nonzero(cand)[0]
            hit = points_in_polygon(lon[sub], lat[sub], [list(r) for r in p.rings])
            sel = sub[hit]
            out_i.append(sel)
            out_p.append(np.full(len(sel), p.polygon_id, dtype=np.int64))
        if out_i:
            pi = np.concatenate(out_i)
            pid = np.concatenate(out_p)
        else:
            pi = np.array([], dtype=np.int64)
            pid = np.array([], dtype=np.int64)
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

    # pixels never reach this stage's output: project first, join narrow
    narrow = images.select_columns(["image_id", "phash"])
    return narrow.map_batches(fn, batch_format="pyarrow")


def dedup_by_phash(joined: ray.data.Dataset, num_parts: int | None = None,
                   salt_hot: bool = False) -> ray.data.Dataset:
    """Exact dedup (U4): keep the lexicographically-first image_id per
    (phash, polygon_id), permutation-safe and fully vectorized.

    Two-phase: (1) batch-local combiner drops duplicates inside each
    batch (shrinks the shuffle), then (2) grouped_map hash-partitions
    by key and drops duplicates per partition — ONE shuffle, Python
    dispatch per partition rather than per key (a per-group map_groups
    here cost ~30 s at 100k images / 50k keys; this path is ~1 s).

    first-per-key is associative, so a hot phash (a meme duplicated
    10^5x across the corpus) salts cleanly: with `salt_hot`,
    salted_grouped_map probes for hot keys and splits their rows over
    its phase-1 partitions, a per-(key, salt) first each, then a
    per-key merge of the few survivors (north_rule)."""
    from ..stages.grouped import grouped_map, salted_grouped_map

    def _first_per(cols):
        def fn(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            order = pc.sort_indices(t, sort_keys=[("image_id", "ascending")])
            t2 = t.take(order)
            # EXACT key grouping (a 64-bit hash as the identity would
            # silently merge colliding keys at ~1e8-key scale): stable
            # lexsort on the real columns preserves image_id order
            # within each key, so first-of-run = first in id order
            arrs = [
                t2[c].to_numpy(zero_copy_only=False) for c in cols
            ]
            ord2 = np.lexsort(tuple(reversed(arrs)))
            new = np.zeros(len(t2), dtype=bool)
            if len(new):
                new[0] = True
                for a in arrs:
                    sa = a[ord2]
                    new[1:] |= sa[1:] != sa[:-1]
            return t2.take(np.sort(ord2[np.flatnonzero(new)]))

        return fn

    key = ["phash", "polygon_id"]
    if salt_hot:

        def merge(t: pa.Table) -> pa.Table:
            return _first_per(key)(t).drop_columns(["_salt"])

        return salted_grouped_map(
            joined, key, _first_per(key + ["_salt"]), merge,
            num_parts=num_parts, batch_format="pyarrow",
        )

    # batch-local combine is skipped: dups are ~1% so it wouldn't shrink
    # the shuffle; the single grouped_map shuffle does all the work
    return grouped_map(
        joined, key, _first_per(key), num_parts=num_parts, batch_format="pyarrow",
    )


def cell_rollup(joined: ray.data.Dataset, shuffle_blocks: int | None = None) -> ray.data.Dataset:
    """Images per (polygon, parent cell at level-2) — the compaction-
    style rollup (ST7). Partial-aggregates per batch first so the
    shuffle moves one row per (polygon, parent) per batch."""

    def partial(t: pa.Table) -> pa.Table:
        cell = t["cell_id"].to_numpy(zero_copy_only=False)
        pid = t["polygon_id"].to_numpy(zero_copy_only=False)
        par = ci.parent(cell, 2)
        # EXACT (pid, parent) grouping via one lexsort — bit-packing
        # the pair into 64 bits overflows for deep levels (morton bits
        # of a level>=23 parent exceed the 40-bit field) and would
        # silently merge distinct groups
        if not len(pid):
            return pa.table(
                {"polygon_id": pid, "parent_cell": par,
                 "pn": np.empty(0, dtype=np.int64)}
            )
        order = np.lexsort((par, pid))
        sp, sc = pid[order], par[order]
        new = np.empty(len(sp), dtype=bool)
        new[0] = True
        new[1:] = (sp[1:] != sp[:-1]) | (sc[1:] != sc[:-1])
        starts = np.flatnonzero(new)
        cnt = np.diff(np.append(starts, len(sp)))
        return pa.table(
            {
                "polygon_id": sp[starts],
                "parent_cell": sc[starts],
                "pn": cnt.astype(np.int64),
            }
        )

    from ..stages.grouped import grouped_map

    def final(t: pa.Table) -> pa.Table:
        out = t.group_by(["polygon_id", "parent_cell"]).aggregate([("pn", "sum")])
        # select by NAME: pyarrow's key-vs-aggregate column order in
        # group_by output has differed across versions
        return out.select(["polygon_id", "parent_cell", "pn_sum"]).rename_columns(
            ["polygon_id", "parent_cell", "n_images"]
        )

    partials = joined.map_batches(partial, batch_format="pyarrow")
    return grouped_map(
        partials, ["polygon_id", "parent_cell"], final, num_parts=shuffle_blocks, batch_format="pyarrow"
    )


def flagship(images: ray.data.Dataset, level: int = DEFAULT_LEVEL) -> ray.data.Dataset:
    joined = assign_and_join(images, level=level)
    deduped = dedup_by_phash(joined)
    return cell_rollup(deduped)


def _input_token(images: ray.data.Dataset) -> str:
    """Cheap input-identity fingerprint for resume validation: the
    sorted source-file list when the input is file-backed (no scan),
    else an order-insensitive hash of the image_id column (one narrow
    pass). Guards against resuming a checkpoint against a DIFFERENT
    input, where rows hashing into completed partitions would be
    silently dropped."""
    import hashlib

    files = sorted(images.input_files() or [])
    if files:
        return "files:" + hashlib.sha1("\n".join(files).encode()).hexdigest()
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
    records (atomic rename + lineage, state/manifest.py), then read
    it back as the input of the shuffle stages. On resume, partitions
    already in the manifest are filtered out at the first map stage,
    so their decode/join work is never repaid."""
    from ..stages.grouped import hash_columns
    from ..state.manifest import read_partitioned, write_partitioned

    def key_fn(t: pa.Table) -> np.ndarray:
        return (hash_columns(t, ["image_id"]) % np.uint64(num_parts)).astype(np.int64)

    write_partitioned(
        joined, out_dir, key_fn, num_parts=num_parts,
        input_fragments=input_fragments,
    )
    return read_partitioned(out_dir)


def flagship_full(
    images: ray.data.Dataset,
    level: int = DEFAULT_LEVEL,
    decode_concurrency: int | tuple | None = None,
    # 2048: the v5 mixed-layout corpus fragments each batch into ~12
    # (size x sampling) decode groups, and the bigger batch restores
    # their amortization — equal at best epochs, ~10% better at
    # contended ones (interleaved A/B: 1024 = [19.1, 16.8] s,
    # 2048 = [17.1, 16.7] s)
    decode_batch_size: int = 2048,
    checkpoint_dir: str | None = None,
    checkpoint_parts: int = 32,
) -> ray.data.Dataset:
    """The end-to-end metric pipeline (BASELINE.md headline):
    decode + verify (phash recompute, the per-row input_hint
    invariant) -> footprint/cell tile assignment -> cell-prefiltered
    PIP join -> phash dedup -> parent-cell rollup.

    The decode fn is STATELESS so Ray fuses it into the read task —
    pixel bytes never cross the object store; only the narrow
    (image_id, phash) projection flows on. Pass decode_concurrency to
    run it as an actor pool instead (model-style decoders).

    With `checkpoint_dir` the join output is checkpointed through the
    resumable manifest store (state/manifest): hash-partitioned by
    image_id into `checkpoint_parts` atomic parquet partitions, each
    with a lineage record. On rerun, the completed-partition anti-join
    runs on the RAW input table (partition key = hash(image_id), known
    before any compute), so the decode+join of completed partitions is
    genuinely never repaid — a downstream filter could not skip the
    upstream fused decode. read_partitioned then returns old + new
    partitions together. At design scale this is the restart boundary
    between the embarrassingly-parallel front half and the shuffle
    back half."""
    from ..stages.grouped import hash_columns
    from ..stages.imaging import DecodeStage, decode_features_batch
    from ..state.manifest import load_manifest

    input_token = None
    if checkpoint_dir is not None:
        input_token = _input_token(images)
        done = load_manifest(checkpoint_dir)
        if done:
            # the prefilter drops rows BEFORE write_partitioned's own
            # guard could run, so a partition-count or input-identity
            # mismatch must be refused here, not downstream
            for rec in done.values():
                npr = rec.get("num_parts")
                if npr is not None and npr != checkpoint_parts:
                    raise ValueError(
                        f"checkpoint at {checkpoint_dir} was written with "
                        f"num_parts={npr}, cannot resume with "
                        f"checkpoint_parts={checkpoint_parts}"
                    )
                frags = rec.get("input_fragments")
                if frags and frags != [input_token]:
                    # resuming against a different input would silently
                    # drop every new row hashing into a done partition
                    raise ValueError(
                        f"checkpoint at {checkpoint_dir} was written from "
                        f"a different input ({frags} != "
                        f"{[input_token]}); use a fresh checkpoint_dir"
                    )
            done_ref = ray.put(np.array(sorted(int(k) for k in done), dtype=np.int64))

            def prefilter(t: pa.Table) -> pa.Table:
                part = (
                    hash_columns(t, ["image_id"]) % np.uint64(checkpoint_parts)
                ).astype(np.int64)
                mask = ~np.isin(part, ray.get(done_ref))
                return t.filter(pa.array(mask))

            images = images.map_batches(prefilter, batch_format="pyarrow")

    def enforce_verify(t: pa.Table) -> pa.Table:
        # the input_hint invariant is a GATE, not a report: rows whose
        # recomputed perceptual hash mismatches the stored phash
        # (bit-rot, mislabeled payload) are dropped with a warning
        # instead of silently flowing into the join/dedup/rollup
        ok = t["verify_ok"].to_numpy(zero_copy_only=False).astype(bool)
        if not ok.all():
            import logging

            logging.getLogger(__name__).warning(
                "flagship_full: dropping %d/%d images failing decode "
                "verification",
                int((~ok).sum()),
                len(ok),
            )
            t = t.filter(pa.array(ok))
        return t.select(["image_id", "phash"])

    if decode_concurrency is None:
        decoded = images.map_batches(
            decode_features_batch, batch_format="pyarrow", batch_size=decode_batch_size
        ).map_batches(enforce_verify, batch_format="pyarrow")
    else:
        decoded = images.map_batches(
            DecodeStage,
            batch_format="pyarrow",
            batch_size=decode_batch_size,
            concurrency=decode_concurrency,
            num_cpus=1,
        ).map_batches(enforce_verify, batch_format="pyarrow")
    joined = assign_and_join(decoded, level=level)
    # checkpoint the NARROW join output before the shuffle stages: the
    # streaming executor schedules an AllToAll chained directly after
    # the heavy fused decode-map very poorly (measured 6x slowdown at
    # 8 cpus: 97 s lazy vs 16 s checkpointed); the checkpoint is the
    # durable per-partition parquet manifest when a dir is given
    # (resumable), else the object store holds it (~40 B/row)
    # BOTH branches materialize first: the narrow rows (~40 B/row) land
    # in the object store once, so checkpoint_join's grouped shuffle
    # starts from settled blocks instead of chaining an AllToAll onto
    # the decode map (measured 22.5 s -> 13.0 s on the 2M-image
    # headline; write itself is ~1.1 s once the input is materialized)
    joined = joined.materialize()
    if checkpoint_dir is not None:
        joined = checkpoint_join(
            joined, checkpoint_dir, num_parts=checkpoint_parts,
            input_fragments=[input_token],
        )
    deduped = dedup_by_phash(joined, salt_hot=True)
    return cell_rollup(deduped)
