"""Resumable partitioned output + per-partition lineage (north_rule).

Layout of a checkpointed output:

    out_dir/
      part=<key>/data.parquet      (written via temp + atomic rename)
      _manifest/<key>.json         (one record per completed partition)

A manifest record carries the partition's lineage and metrics:
    {partition_key, input_fragments, row_count, byte_count, checksum,
     status, wall_s}

Resume = anti-join the partition list against the completed manifest
(load_manifest) and process only the missing keys; a crashed run
leaves no half-written partition visible because data lands under a
temp name first (the reference's analog is 'skip outputs that exist',
src/pointnormalize.cpp:88-91 — this adds integrity + lineage).
"""

from __future__ import annotations

import json
import os
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


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


def pending_partitions(out_dir: str, all_keys: list[str]) -> list[str]:
    done = load_manifest(out_dir)
    return [k for k in all_keys if k not in done]


def table_checksum(t: pa.Table) -> int:
    """Order-insensitive content checksum (crc32 of sorted row hashes)."""
    import pandas as pd

    df = t.to_pandas()
    df = df.reindex(sorted(df.columns), axis=1)
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()
    h.sort()
    return int(zlib.crc32(h.tobytes()))


def write_partition(
    out_dir: str,
    key: str,
    table: pa.Table,
    input_fragments: list[str] | None = None,
    extra_meta: dict | None = None,
) -> dict:
    """Atomically write one partition + its manifest record."""
    t0 = time.time()
    pdir = os.path.join(out_dir, f"part={key}")
    os.makedirs(pdir, exist_ok=True)
    tmp = os.path.join(pdir, f".tmp-{os.getpid()}-{int(t0 * 1e6)}.parquet")
    pq.write_table(table, tmp)
    final = os.path.join(pdir, "data.parquet")
    os.replace(tmp, final)

    rec = {
        "partition_key": key,
        "input_fragments": input_fragments or [],
        "row_count": table.num_rows,
        "byte_count": table.nbytes,
        "checksum": table_checksum(table),
        "status": "done",
        "wall_s": round(time.time() - t0, 4),
    }
    if extra_meta:
        rec.update(extra_meta)
    mdir = _manifest_dir(out_dir)
    os.makedirs(mdir, exist_ok=True)
    # temp name: no .json suffix (load_manifest must never pick up a
    # partial write) and uniquified per writer (a re-executed task must
    # not interleave into a concurrent writer's file)
    mtmp = os.path.join(mdir, f".tmp-{key}-{os.getpid()}-{int(t0 * 1e6)}")
    with open(mtmp, "w") as fh:
        json.dump(rec, fh)
    os.replace(mtmp, os.path.join(mdir, f"{key}.json"))
    return rec


def write_partitioned(
    ds,
    out_dir: str,
    key_fn,
    num_parts: int,
    input_fragments: list[str] | None = None,
    resume: bool = True,
):
    """Write a Dataset as `num_parts` hash partitions with manifests;
    on resume, completed partitions are skipped BEFORE any compute on
    their rows (the filter runs at the first map stage).

    key_fn(table) -> int64 array of partition ids in [0, num_parts).
    Returns the list of manifest records written this run.
    """
    import pandas as pd
    import ray

    from ..stages.grouped import grouped_map

    prior = load_manifest(out_dir)
    # a checkpoint written with a different num_parts partitions the
    # key space differently — resuming against it silently drops or
    # duplicates rows, so refuse loudly
    for rec in prior.values():
        np_rec = rec.get("num_parts")
        if np_rec is not None and np_rec != num_parts:
            raise ValueError(
                f"checkpoint at {out_dir} was written with num_parts="
                f"{np_rec}, cannot resume with num_parts={num_parts}"
            )
    done = set(prior) if resume else set()
    done_ids = {int(k) for k in done}
    done_ref = ray.put(done_ids)

    def assign(t: pa.Table) -> pa.Table:
        part = np.asarray(key_fn(t), dtype=np.int64)
        t = t.append_column("_pkey", pa.array(part))
        skip = ray.get(done_ref)
        if skip:
            mask = ~np.isin(part, list(skip))
            t = t.filter(pa.array(mask))
        return t

    keyed = ds.map_batches(assign, batch_format="pyarrow")

    meta = {"num_parts": num_parts}

    def write(df: pd.DataFrame) -> pd.DataFrame:
        recs = []
        for k, g in df.groupby("_pkey", sort=False):
            t = pa.Table.from_pandas(g.drop(columns=["_pkey"]), preserve_index=False)
            rec = write_partition(out_dir, str(int(k)), t, input_fragments, meta)
            recs.append(
                {
                    "partition_key": rec["partition_key"],
                    "row_count": rec["row_count"],
                    "byte_count": rec["byte_count"],
                    "checksum": rec["checksum"],
                }
            )
        return pd.DataFrame(
            recs, columns=["partition_key", "row_count", "byte_count", "checksum"]
        )

    out = grouped_map(keyed, ["_pkey"], write, num_parts=num_parts).to_pandas()

    # partitions that received ZERO rows still get a done record (and
    # an empty data file carrying the schema): the full input has been
    # processed by the time the shuffle above completes, so an absent
    # group is genuinely empty — without the record, resume would
    # re-decode its inputs on every rerun
    have = set(load_manifest(out_dir))
    missing = [i for i in range(num_parts) if str(i) not in have]
    if missing:
        schema = None
        if os.path.isdir(out_dir):
            for d in sorted(os.listdir(out_dir)):
                p = os.path.join(out_dir, d, "data.parquet")
                if d.startswith("part=") and os.path.exists(p):
                    schema = pq.read_schema(p)
                    break
        if schema is None:
            sch = ds.schema()
            schema = getattr(sch, "base_schema", sch)
        empty = pa.Table.from_pylist([], schema=schema)
        for i in missing:
            write_partition(out_dir, str(i), empty, input_fragments, meta)
    return out


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
