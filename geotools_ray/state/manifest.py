"""Resumable partitioned output + per-partition lineage (north_rule).

Layout of a checkpointed output:

    out_dir/
      part=<k>/data.parquet      (written via temp + atomic rename)
      _manifest/<k>.json         (one record per completed partition)

where k = hash_columns(image_id) % num_parts: the partition rule of
every grouped_map exchange (stages/grouped.hash_parts) applied to KEY.
A manifest record carries the partition's lineage and metrics:
    {partition_key, input_fragments, row_count, byte_count, checksum,
     status, wall_s, num_parts}

Each checkpoint decision is made once, here:
- open_checkpoint reads _manifest/ once per run and refuses a
  checkpoint written with another num_parts or from another input;
- skip_done is the one done filter: a resumed run drops the rows of
  done partitions from its RAW input, before any compute on them;
- write_partitioned writes each remaining partition from exactly one
  exchange group, in Arrow. It refuses any row of a done partition
  before it replaces any file, and gives each partition that received
  no row a record and an empty file with the input's schema.

A crashed run leaves no half-written partition visible, because data
and record land under temp names first (the reference's analog is
'skip outputs that exist', src/pointnormalize.cpp:88-91 — this adds
integrity + lineage).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..stages import grouped

KEY = ["image_id"]


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def load_manifest(out_dir: str) -> dict[str, dict]:
    """-> {partition_key: record} of completed partitions."""
    mdir = _manifest_dir(out_dir)
    out = {}
    if not os.path.isdir(mdir):
        return out
    for f in os.listdir(mdir):
        # dotfiles are in-flight temp writes (never valid records); a
        # record that fails to parse is stale crash debris from a
        # pre-rename writer — skip it, never crash the resume path
        if f.startswith(".") or not f.endswith(".json"):
            continue
        try:
            with open(os.path.join(mdir, f)) as fh:
                rec = json.load(fh)
        except (json.JSONDecodeError, OSError):
            continue
        if rec.get("status") == "done":
            out[rec["partition_key"]] = rec
    return out


@dataclass(frozen=True)
class Checkpoint:
    """One run's view of a checkpoint: its records as read once at the
    start of the run (open_checkpoint)."""

    out_dir: str
    num_parts: int
    done: dict[str, dict]
    input_fragments: list[str]

    def in_done(self, t: pa.Table) -> np.ndarray:
        """Mask of the rows of `t` whose partition is done."""
        done = np.array([int(k) for k in self.done], dtype=np.int64)
        return np.isin(grouped.hash_parts(t, KEY, self.num_parts), done)


def open_checkpoint(
    out_dir: str, num_parts: int, input_fragments: list[str] | None = None
) -> Checkpoint:
    """Read the manifest at `out_dir` and validate it against this run:
    a checkpoint written with another num_parts partitions the key
    space differently, and one written from another input (when
    `input_fragments` is given) holds done partitions this input's rows
    also hash into — resuming either would silently drop or duplicate
    rows, so both are refused."""
    done = load_manifest(out_dir)
    for rec in done.values():
        npr = rec.get("num_parts")
        if npr is not None and npr != num_parts:
            raise ValueError(
                f"checkpoint at {out_dir} was written with num_parts="
                f"{npr}, cannot resume with num_parts={num_parts}"
            )
        frags = rec.get("input_fragments")
        if input_fragments and frags and frags != input_fragments:
            raise ValueError(
                f"checkpoint at {out_dir} was written from a different "
                f"input ({frags} != {input_fragments}); use a fresh "
                f"checkpoint dir"
            )
    return Checkpoint(out_dir, num_parts, done, list(input_fragments or []))


def skip_done(ds, ck: Checkpoint):
    """`ds` without the rows of `ck`'s done partitions (`ds` itself on a
    fresh checkpoint). Partition ids derive from image_id alone, so
    this runs on the raw input, before any compute on those rows."""
    if not ck.done:
        return ds
    return ds.map_batches(
        lambda t: t.filter(pa.array(~ck.in_done(t))), batch_format="pyarrow"
    )


def table_checksum(t: pa.Table) -> int:
    """Order-insensitive content checksum (crc32 of sorted row hashes)."""
    import pandas as pd

    df = t.to_pandas()
    df = df.reindex(sorted(df.columns), axis=1)
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()
    h.sort()
    return int(zlib.crc32(h.tobytes()))


def write_partition(ck: Checkpoint, key: str, table: pa.Table) -> None:
    """Atomically write one partition + its manifest record."""
    t0 = time.time()
    pdir = os.path.join(ck.out_dir, f"part={key}")
    os.makedirs(pdir, exist_ok=True)
    tmp = os.path.join(pdir, f".tmp-{os.getpid()}-{int(t0 * 1e6)}.parquet")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(pdir, "data.parquet"))

    rec = {
        "partition_key": key,
        "input_fragments": ck.input_fragments,
        "row_count": table.num_rows,
        "byte_count": table.nbytes,
        "checksum": table_checksum(table),
        "status": "done",
        "wall_s": round(time.time() - t0, 4),
        "num_parts": ck.num_parts,
    }
    mdir = _manifest_dir(ck.out_dir)
    os.makedirs(mdir, exist_ok=True)
    # temp name: no .json suffix (load_manifest must never pick up a
    # partial write) and uniquified per writer (a re-executed task must
    # not interleave into a concurrent writer's file)
    mtmp = os.path.join(mdir, f".tmp-{key}-{os.getpid()}-{int(t0 * 1e6)}")
    with open(mtmp, "w") as fh:
        json.dump(rec, fh)
    os.replace(mtmp, os.path.join(mdir, f"{key}.json"))


def write_partitioned(ds, ck: Checkpoint):
    """Write the rows of `ds` as `ck`'s partitions, each with its
    record, and return every row of the checkpoint: `ds` itself on a
    fresh checkpoint, else the read of the partitions done before this
    run plus `ds`.

    The exchange is grouped_map over KEY, so each exchange group is
    exactly one partition, written from its Arrow table as is. `ds`
    must hold no row of a done partition (skip_done drops them
    upstream): on a resumed checkpoint one pass counts such rows, and
    any is refused before a file is written. Partitions that received
    ZERO rows still get a done record and an empty data file with
    `ds`'s schema: the full input has been processed once the exchange
    completes, so an absent group is genuinely empty — without the
    record, resume would re-decode its inputs on every rerun."""
    if ck.done:
        again = sum(r["n"] for r in ds.map_batches(
            lambda t: pa.table({"n": [int(ck.in_done(t).sum())]}),
            batch_format="pyarrow",
        ).take_all())
        if again:
            raise ValueError(
                f"checkpoint at {ck.out_dir}: {again} rows fall in partitions "
                f"done before this run; they must not be passed in again"
            )

    def write(t: pa.Table) -> pa.Table:
        key = str(int(grouped.hash_parts(t.slice(0, 1), KEY, ck.num_parts)[0]))
        write_partition(ck, key, t)
        return pa.table({"partition_key": [key]})

    written = {r["partition_key"] for r in grouped.grouped_map(
        ds, KEY, write, num_parts=ck.num_parts, batch_format="pyarrow",
    ).take_all()}
    missing = [k for k in map(str, range(ck.num_parts)) if k not in written and k not in ck.done]
    if missing:
        sch = ds.schema()
        empty = pa.Table.from_pylist([], schema=getattr(sch, "base_schema", sch))
        for k in missing:
            write_partition(ck, k, empty)
    if not ck.done:
        return ds
    return read_partitioned(ck.out_dir, list(ck.done)).union(ds)


def read_partitioned(out_dir: str, keys: list[str] | None = None):
    """Read a checkpointed output back as a Dataset: the partitions
    `keys`, or every partition on disk when None."""
    import ray.data

    if keys is None:
        keys = [d[len("part="):] for d in os.listdir(out_dir) if d.startswith("part=")]
    parts = sorted(os.path.join(out_dir, f"part={k}", "data.parquet") for k in keys)
    if not parts:
        raise FileNotFoundError(
            f"no partitions under {out_dir} — not a checkpointed output"
        )
    # partitioning=None: the part=<k> dirs are OUR bookkeeping, not a
    # hive column — inferring it would ship a dead int column through
    # every downstream shuffle
    return ray.data.read_parquet(parts, partitioning=None)
