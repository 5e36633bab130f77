"""Checkpoint / resume / lineage / metrics (north_rule resilience)."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest


# lambda (pickled by value) — a top-level test-module function would be
# pickled by reference and fail to import on workers
_key_fn = lambda t: t["k"].to_numpy(zero_copy_only=False) % 4  # noqa: E731


def test_write_resume_and_lineage(ray_session, tmp_path):
    import ray.data

    from geotools_ray.state.manifest import (
        load_manifest,
        pending_partitions,
        read_partitioned,
        write_partitioned,
    )

    out = str(tmp_path / "ckpt")
    rows = [{"k": i, "v": float(i) * 1.5} for i in range(1000)]
    ds = ray.data.from_items(rows)
    recs = write_partitioned(ds, out, _key_fn, num_parts=4, input_fragments=["frag-a"])
    assert len(recs) == 4
    man = load_manifest(out)
    assert set(man) == {"0", "1", "2", "3"}
    assert sum(r["row_count"] for r in man.values()) == 1000
    assert all(r["input_fragments"] == ["frag-a"] for r in man.values())

    # full roundtrip
    back = read_partitioned(out).to_pandas().sort_values("k").reset_index(drop=True)
    assert len(back) == 1000
    assert back["v"].sum() == pytest.approx(sum(r["v"] for r in rows))

    # simulate a crashed partition: delete part 2 + its manifest
    shutil.rmtree(os.path.join(out, "part=2"))
    os.remove(os.path.join(out, "_manifest", "2.json"))
    assert pending_partitions(out, ["0", "1", "2", "3"]) == ["2"]

    # resume: only partition 2 is rewritten
    recs2 = write_partitioned(ray.data.from_items(rows), out, _key_fn, num_parts=4)
    assert list(recs2["partition_key"]) == ["2"]
    man2 = load_manifest(out)
    assert set(man2) == {"0", "1", "2", "3"}
    # checksums stable across runs (content-addressed lineage)
    assert man2["2"]["checksum"] == man["2"]["checksum"]

    back2 = read_partitioned(out).to_pandas()
    assert len(back2) == 1000


def test_flagship_checkpoint_kill_and_resume(ray_session, tmp_path):
    """flagship_full(checkpoint_dir=...) — identical output to the
    in-memory path, and a crashed partition's loss is repaid alone:
    surviving partitions are skipped (files untouched) on the rerun."""
    import ray.data

    from geotools_ray.ops import imagepipeline as IP
    from geotools_ray.sources import images as I
    from geotools_ray.state.manifest import load_manifest

    t = I.generate_image_table(600, seed=7)

    def run(**kw):
        out = IP.flagship_full(ray.data.from_arrow(t), **kw).to_pandas()
        return out.sort_values(["polygon_id", "parent_cell"]).reset_index(drop=True)

    ref = run()
    assert len(ref) > 0

    ck = str(tmp_path / "ck")
    out1 = run(checkpoint_dir=ck, checkpoint_parts=8)
    assert out1.equals(ref)
    done = load_manifest(ck)
    assert len(done) >= 2  # need survivors + a victim

    # crash simulation: one partition's data + manifest record lost
    victim = sorted(done)[0]
    survivors = [k for k in done if k != victim]
    shutil.rmtree(os.path.join(ck, f"part={victim}"))
    os.remove(os.path.join(ck, "_manifest", f"{victim}.json"))
    mtimes = {
        k: os.path.getmtime(os.path.join(ck, f"part={k}", "data.parquet"))
        for k in survivors
    }

    out2 = run(checkpoint_dir=ck, checkpoint_parts=8)
    assert out2.equals(ref)
    man2 = load_manifest(ck)
    assert set(man2) == set(done)  # victim rewritten...
    assert man2[victim]["checksum"] == done[victim]["checksum"]
    for k in survivors:  # ...survivors never rewritten (manifest anti-join)
        assert os.path.getmtime(os.path.join(ck, f"part={k}", "data.parquet")) == mtimes[k]

    # decode/join of completed partitions is genuinely never repaid:
    # with every partition checkpointed, rerun over POISONED payloads
    # (any decode attempt would raise) — the manifest prefilter drops
    # all rows before the decode stage and the output comes entirely
    # from the checkpoint
    poisoned = t.set_column(
        t.schema.get_field_index("bytes"),
        "bytes",
        pa.array([b"junk"] * len(t), pa.binary()),
    )
    out3 = (
        IP.flagship_full(
            ray.data.from_arrow(poisoned), checkpoint_dir=ck, checkpoint_parts=8
        )
        .to_pandas()
        .sort_values(["polygon_id", "parent_cell"])
        .reset_index(drop=True)
    )
    assert out3.equals(ref)


def test_flagship_checkpoint_refuses_different_input(ray_session, tmp_path):
    """Resuming a checkpoint against an input with DIFFERENT image_ids
    must fail loudly: new rows hashing into completed partitions would
    otherwise be silently dropped before decode."""
    import ray.data

    from geotools_ray.ops import imagepipeline as IP
    from geotools_ray.sources import images as I

    t = I.generate_image_table(200, seed=7)
    ck = str(tmp_path / "ck")
    IP.flagship_full(ray.data.from_arrow(t), checkpoint_dir=ck, checkpoint_parts=4).to_pandas()

    t2 = I.generate_image_table(260, seed=7)  # 60 new image_ids
    with pytest.raises(ValueError, match="different input"):
        IP.flagship_full(
            ray.data.from_arrow(t2), checkpoint_dir=ck, checkpoint_parts=4
        ).to_pandas()


def test_manifest_crash_debris_and_empty_partitions(ray_session, tmp_path):
    """Round-3 review fixes: (a) stale/partial temp files in _manifest
    never break load_manifest; (b) partitions receiving zero rows get
    done records + empty data files so resume skips their inputs;
    (c) resuming with a different num_parts is refused loudly."""
    import json

    import ray.data

    from geotools_ray.state.manifest import (
        load_manifest,
        read_partitioned,
        write_partitioned,
    )

    out = str(tmp_path / "ckpt")
    # keys only hash to parts {0, 2} of 4 -> parts 1 and 3 are empty
    rows = [{"k": i * 2, "v": float(i)} for i in range(100)]

    def key4(t):
        import numpy as np

        return (t["k"].to_numpy(zero_copy_only=False) % 4).astype("int64")

    write_partitioned(ray.data.from_items(rows), out, key4, num_parts=4)
    man = load_manifest(out)
    assert set(man) == {"0", "1", "2", "3"}
    assert man["1"]["row_count"] == 0 and man["3"]["row_count"] == 0
    assert man["0"]["num_parts"] == 4
    # empty partitions carry the schema on disk
    back = read_partitioned(out).to_pandas()
    assert len(back) == 100 and set(back.columns) == {"k", "v"}

    # crash debris: a partial temp write and a corrupt record
    mdir = os.path.join(out, "_manifest")
    with open(os.path.join(mdir, ".tmp-7-999-123"), "w") as fh:
        fh.write('{"partition_key": "7", "stat')  # truncated
    with open(os.path.join(mdir, "9.json"), "w") as fh:
        fh.write("{not json")
    man2 = load_manifest(out)
    assert set(man2) == {"0", "1", "2", "3"}  # debris skipped, no crash

    # a rerun writes nothing new (all four partitions are done)
    recs = write_partitioned(ray.data.from_items(rows), out, key4, num_parts=4)
    assert len(recs) == 0

    # num_parts mismatch is refused
    with pytest.raises(ValueError, match="num_parts"):
        write_partitioned(ray.data.from_items(rows), out, key4, num_parts=8)


def test_flagship_verify_gate_drops_corrupt_rows(ray_session, tmp_path):
    """A row whose stored phash mismatches its decoded pixels must be
    dropped by flagship_full (the input_hint invariant is a gate)."""
    import pyarrow.parquet as pq
    import ray.data

    from geotools_ray.ops.imagepipeline import flagship_full
    from geotools_ray.sources.images import generate_image_table

    t = generate_image_table(400, seed=11)
    full = flagship_full(ray.data.from_arrow(t)).to_pandas()
    # corrupt one image's stored phash -> its decode verify fails
    ph = t["phash"].to_numpy(zero_copy_only=False).copy()
    ph[0] ^= 0x5A5A5A5A
    bad = t.set_column(t.schema.get_field_index("phash"), "phash", pa.array(ph))
    out = flagship_full(ray.data.from_arrow(bad)).to_pandas()
    assert out["n_images"].sum() <= full["n_images"].sum()
    assert out["n_images"].sum() >= full["n_images"].sum() - 1


def test_cli_flagship_wds_and_tfrecord_resume(ray_session, tmp_path):
    """The job entrypoint reads interchange layouts end to end: the
    SAME image table through parquet, webdataset tar shards and
    TFRecord shards produces identical flagship output, and re-running
    over the shard dir with the same checkpoint resumes byte-equal."""
    from types import SimpleNamespace

    import pyarrow.parquet as pq
    import ray.data

    from geotools_ray import cli
    from geotools_ray.sources.images import IMAGE_SCHEMA, make_image_row
    from geotools_ray.sources.tfrecord import write_tfrecord_shards
    from geotools_ray.sources.wds import write_wds_shards

    # ids 300-379: a footprint cluster that lands inside the flagship
    # polygons (the hash-derived clusters of low ids miss them all)
    rows = [make_image_row(i, seed=33) for i in range(300, 380)]
    t = pa.Table.from_pylist(rows, schema=IMAGE_SCHEMA)
    wds_dir = str(tmp_path / "wds")
    write_wds_shards(ray.data.from_arrow(t).repartition(2), wds_dir, shard_rows=40)
    tfr_dir = str(tmp_path / "tfr")
    write_tfrecord_shards(ray.data.from_arrow(t).repartition(2), tfr_dir, shard_rows=40)
    pq_dir = str(tmp_path / "pq")
    os.makedirs(pq_dir)
    pq.write_table(t, os.path.join(pq_dir, "part0.parquet"))

    def run(fmt, inp, out, ckpt, transcode=False):
        cli.cmd_flagship(
            SimpleNamespace(
                input=inp, output=out, in_format=fmt,
                checkpoint=ckpt, checkpoint_parts=4, transcode=transcode,
            )
        )
        df = pq.read_table(out).to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    o_wds = run("wds", wds_dir, str(tmp_path / "o1"), str(tmp_path / "c1"))
    # resume over the same shard dir + checkpoint: byte-equal output
    o_wds2 = run("wds", wds_dir, str(tmp_path / "o2"), str(tmp_path / "c1"))
    assert o_wds.equals(o_wds2)
    o_tfr = run("tfrecord", tfr_dir, str(tmp_path / "o3"), str(tmp_path / "c3"))
    o_pq = run("parquet", pq_dir, str(tmp_path / "o4"), None)
    assert o_wds.equals(o_tfr)
    assert o_wds.equals(o_pq)
    # --transcode normalizes progressive rows LOSSLESSLY: phash (and
    # therefore the whole flagship result) must be unchanged
    o_tc = run("parquet", pq_dir, str(tmp_path / "o5"), None, transcode=True)
    assert o_tc.equals(o_pq)
