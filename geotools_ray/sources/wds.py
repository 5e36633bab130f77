"""WebDataset-style tar shards for image+caption tables.

The de-facto on-disk layout for web-scale image corpora (img2dataset,
OpenCLIP training runs) is a directory of tar shards whose members
group by key: `<key>.<fmt>` holds the encoded image bytes, `<key>.txt`
the caption, `<key>.json` sidecar metadata. This module round-trips
the engine's image table (image_id, bytes, w, h, fmt, caption, phash —
the input_hint schema) through that layout with Ray Data doing the
per-shard parallelism:

- write: one tar per input block via map_batches (a task per shard,
  no driver bytes); shard names are CONTENT-ADDRESSED (md5 of the
  whole tar payload — mtime=0 makes the bytes deterministic), written
  tmp-then-rename, so a re-executed task overwrites its own shard
  instead of duplicating rows — the same idempotence contract as
  state/manifest. Key-only hashing would let two batches with the
  same id sequence but different payloads silently overwrite each
  other (the tfrecord.py prefix-hash bug class).
- read: ray.data.read_binary_files over the shard dir (one block per
  shard) -> a map_batches that untars and regroups members by key,
  entirely inside workers.

Tar parsing is stdlib `tarfile` over in-memory bytes — no external
deps. At 100 TB the unit of parallelism is the shard (~1k images,
tens of MB), which is exactly how these corpora ship.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tarfile

import numpy as np
import pyarrow as pa
import ray.data


def _shard_bytes(t: pa.Table) -> tuple[str, bytes, int]:
    """One batch -> (content-addressed shard name, tar payload, rows)."""
    for col in ("image_id", "bytes", "w", "h", "fmt", "phash"):
        nulls = t[col].null_count
        if nulls:
            raise ValueError(
                f"write_wds_shards: column {col!r} has {nulls} null value(s); "
                "only 'caption' may be null (written as an absent .txt member)"
            )
    ids = t["image_id"].to_pylist()
    fmts = t["fmt"].to_pylist()
    blobs = t["bytes"].to_pylist()
    caps = t["caption"].to_pylist()
    ws = t["w"].to_numpy(zero_copy_only=False)
    hs = t["h"].to_numpy(zero_copy_only=False)
    ph = t["phash"].to_numpy(zero_copy_only=False)
    buf = io.BytesIO()
    # USTAR, no compression: members stay seekable and the write is
    # dominated by payload memcpy, not format overhead
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tf:
        for i, key in enumerate(ids):
            members = [(f"{key}.{fmts[i]}", blobs[i])]
            if caps[i] is not None:  # webdataset convention: null caption = no .txt
                members.append((f"{key}.txt", caps[i].encode("utf-8")))
            members.append((f"{key}.json", json.dumps(
                {"w": int(ws[i]), "h": int(hs[i]), "phash": int(ph[i])}
            ).encode("ascii")))
            for name, payload in members:
                info = tarfile.TarInfo(name)
                info.size = len(payload)
                info.mtime = 0  # deterministic bytes for a given batch
                tf.addfile(info, io.BytesIO(payload))
    data = buf.getvalue()
    # hash the WHOLE payload: key-only hashing collides for same-id
    # batches with different payloads and os.replace would drop data
    name = "shard-" + hashlib.md5(data).hexdigest()[:16] + ".tar"
    return name, data, len(ids)


def write_wds_shards(images: ray.data.Dataset, out_dir: str,
                     shard_rows: int = 1000) -> pa.Table:
    """Write the image table as webdataset tar shards; returns the
    manifest (shard, rows, bytes) — the only thing the driver holds."""
    os.makedirs(out_dir, exist_ok=True)

    def write_batch(t: pa.Table) -> pa.Table:
        name, data, nrows = _shard_bytes(t)
        tmp = os.path.join(out_dir, f".tmp-{name}-{os.getpid()}")
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, os.path.join(out_dir, name))  # idempotent on retry
        return pa.table({
            "shard": pa.array([name], type=pa.string()),
            "rows": pa.array([nrows], type=pa.int64()),
            "bytes": pa.array([len(data)], type=pa.int64()),
        })

    manifest = images.map_batches(
        write_batch, batch_format="pyarrow", batch_size=shard_rows
    )
    return pa.concat_tables(
        list(manifest.iter_batches(batch_format="pyarrow", batch_size=None))
    )


def _parse_tar(data: bytes) -> pa.Table:
    rows: dict[str, dict] = {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tf:
        for m in tf.getmembers():
            if not m.isfile():
                continue
            key, ext = m.name.rsplit(".", 1)
            rec = rows.setdefault(key, {})
            payload = tf.extractfile(m).read()
            if ext == "txt":
                rec["caption"] = payload.decode("utf-8")
            elif ext == "json":
                rec.update(json.loads(payload))
            else:
                rec["fmt"] = ext
                rec["bytes"] = payload
    keys = sorted(rows)
    # caption is optional (absent .txt member == null caption)
    missing = [k for k in keys if {"bytes", "w"} - set(rows[k])]
    if missing:
        raise ValueError(f"wds shard: incomplete member groups for keys {missing[:5]}")
    return pa.table({
        "image_id": pa.array(keys, type=pa.string()),
        "bytes": pa.array([rows[k]["bytes"] for k in keys], type=pa.binary()),
        "w": pa.array(np.array([rows[k]["w"] for k in keys], dtype=np.int32)),
        "h": pa.array(np.array([rows[k]["h"] for k in keys], dtype=np.int32)),
        "fmt": pa.array([rows[k]["fmt"] for k in keys], type=pa.string()),
        "caption": pa.array([rows[k].get("caption") for k in keys], type=pa.string()),
        "phash": pa.array(np.array([rows[k]["phash"] for k in keys], dtype=np.int64)),
    })


def read_wds_shards(shard_dir: str) -> ray.data.Dataset:
    """Shard dir -> image-table Dataset (input_hint schema); one task
    per shard, untar + regroup inside workers."""
    files = ray.data.read_binary_files(shard_dir, file_extensions=["tar"])

    empty = pa.table({
        "image_id": pa.array([], type=pa.string()),
        "bytes": pa.array([], type=pa.binary()),
        "w": pa.array([], type=pa.int32()),
        "h": pa.array([], type=pa.int32()),
        "fmt": pa.array([], type=pa.string()),
        "caption": pa.array([], type=pa.string()),
        "phash": pa.array([], type=pa.int64()),
    })

    def parse(t: pa.Table) -> pa.Table:
        parts = [_parse_tar(b.as_py()) for b in t["bytes"]]
        return pa.concat_tables(parts) if parts else empty

    return files.map_batches(parse, batch_format="pyarrow", batch_size=1)
