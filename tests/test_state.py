"""Checkpoint / resume / lineage / metrics (north_rule resilience)."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest


def _id_rows(n: int, parts=None, num_parts: int = 4) -> list[dict]:
    """Rows (image_id, v) of n candidate ids, only those whose
    checkpoint partition is in `parts` when it is given."""
    from geotools_ray.stages.grouped import hash_parts

    ids = pa.table({"image_id": [f"img{i:05d}" for i in range(n)]})
    part = hash_parts(ids, ["image_id"], num_parts)
    return [
        {"image_id": s, "v": float(i) * 1.5}
        for i, (s, p) in enumerate(zip(ids["image_id"].to_pylist(), part))
        if parts is None or p in parts
    ]


def _files(d: str) -> dict[str, bytes]:
    """Every file under d, by relative path, with its bytes."""
    out = {}
    for root, _, names in os.walk(d):
        for f in names:
            with open(os.path.join(root, f), "rb") as fh:
                out[os.path.relpath(os.path.join(root, f), d)] = fh.read()
    return out


def test_write_resume_and_lineage(ray_session, tmp_path):
    import ray.data

    from geotools_ray.state.manifest import (
        load_manifest,
        open_checkpoint,
        read_partitioned,
        skip_done,
        write_partitioned,
    )

    out = str(tmp_path / "ckpt")
    rows = _id_rows(1000)
    ds = ray.data.from_items(rows)
    assert write_partitioned(ds, open_checkpoint(out, 4, ["frag-a"])).count() == 1000
    man = load_manifest(out)
    assert set(man) == {"0", "1", "2", "3"}
    assert sum(r["row_count"] for r in man.values()) == 1000
    assert all(r["input_fragments"] == ["frag-a"] for r in man.values())
    assert all(r["num_parts"] == 4 and r["status"] == "done" for r in man.values())

    # full roundtrip
    back = read_partitioned(out).to_pandas()
    assert len(back) == 1000
    assert back["v"].sum() == pytest.approx(sum(r["v"] for r in rows))

    # simulate a crashed partition: delete part 2 + its manifest
    shutil.rmtree(os.path.join(out, "part=2"))
    os.remove(os.path.join(out, "_manifest", "2.json"))
    before = _files(out)

    # resume: only partition 2 is rewritten, the rest byte for byte kept
    ck = open_checkpoint(out, 4, ["frag-a"])
    assert sorted(ck.done) == ["0", "1", "3"]
    back2 = write_partitioned(skip_done(ray.data.from_items(rows), ck), ck)
    after = _files(out)
    assert {k: v for k, v in after.items() if k in before} == before
    assert sorted(set(after) - set(before)) == ["_manifest/2.json", "part=2/data.parquet"]
    man2 = load_manifest(out)
    assert set(man2) == {"0", "1", "2", "3"}
    # checksums stable across runs (content-addressed lineage)
    assert man2["2"]["checksum"] == man["2"]["checksum"]
    assert man2["2"]["input_fragments"] == ["frag-a"]

    assert back2.count() == 1000
    assert len(read_partitioned(out).to_pandas()) == 1000


def test_checkpoint_partitions_by_image_id_hash(ray_session, tmp_path):
    """Every row under part=<k> has hash_columns(image_id) % P == k:
    the rule perfbench's resume counts recompute from the input."""
    import pyarrow.parquet as pq
    import ray.data

    from geotools_ray.ops import imagepipeline as IP
    from geotools_ray.sources import images as I
    from geotools_ray.stages.grouped import hash_columns

    joined = IP.assign_and_join(ray.data.from_arrow(I.generate_image_table(600, seed=7)))
    joined = joined.materialize()
    ck = str(tmp_path / "ck")
    IP.checkpoint_join(joined, ck)
    parts = sorted(d for d in os.listdir(ck) if d.startswith("part="))
    assert len(parts) == 32
    seen = 0
    for d in parts:
        t = pq.read_table(os.path.join(ck, d, "data.parquet"))
        k = int(d[len("part="):])
        assert ((hash_columns(t, ["image_id"]) % np.uint64(32)) == k).all(), d
        seen += len(t)
    assert seen == joined.count() > 0


def test_checkpointed_flagship_reads_the_manifest_once(ray_session, tmp_path, monkeypatch):
    """One checkpointed flagship_full run, fresh or resumed, reads
    _manifest/ once: the validation, the done filter and the write all
    use that one read."""
    import ray.data

    from geotools_ray.ops import imagepipeline as IP
    from geotools_ray.sources import images as I
    from geotools_ray.state import manifest

    calls = []
    load = manifest.load_manifest

    def counted(out_dir):
        calls.append(out_dir)
        return load(out_dir)

    monkeypatch.setattr(manifest, "load_manifest", counted)
    t = I.generate_image_table(600, seed=7)
    ck = str(tmp_path / "ck")
    ref = _canon(IP.flagship_full(ray.data.from_arrow(t), checkpoint_dir=ck, checkpoint_parts=8))
    assert calls == [ck]
    os.remove(os.path.join(ck, "_manifest", "3.json"))
    calls.clear()
    out = _canon(IP.flagship_full(ray.data.from_arrow(t), checkpoint_dir=ck, checkpoint_parts=8))
    assert calls == [ck]
    assert out.equals(ref)


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


def test_flagship_checkpoint_resumes_a_copied_input_and_refuses_rewritten_bytes(
    ray_session, tmp_path
):
    """Resume identity is the input's content, read from the parquet
    footers, not its path: the same file copied to another directory
    resumes to the same output, and different bytes under the path the
    checkpoint was written from are refused."""
    import pyarrow.parquet as pq
    import ray.data

    from geotools_ray.ops import imagepipeline as IP
    from geotools_ray.sources import images as I
    from geotools_ray.state.manifest import load_manifest

    src, copy = tmp_path / "src", tmp_path / "copy"
    os.makedirs(src)
    pq.write_table(I.generate_image_table(300, seed=7), str(src / "part0.parquet"))
    ck = str(tmp_path / "ck")

    def run(d):
        return _canon(IP.flagship_full(ray.data.read_parquet(str(d)), checkpoint_dir=ck,
                                       checkpoint_parts=4))

    ref = run(src)
    victim = sorted(load_manifest(ck))[0]
    shutil.rmtree(os.path.join(ck, f"part={victim}"))
    os.remove(os.path.join(ck, "_manifest", f"{victim}.json"))
    shutil.copytree(src, copy)
    assert run(copy).equals(ref)
    assert set(load_manifest(ck)) == {"0", "1", "2", "3"}

    # same path, same ids, other pixels
    pq.write_table(I.generate_image_table(300, seed=8), str(copy / "part0.parquet"))
    with pytest.raises(ValueError, match="different input"):
        run(copy)


def _drop_data_files_after_write(monkeypatch):
    """Make write_partitioned delete every part=*/data.parquet as soon as
    it has written them: a pipeline that reads its checkpoint back
    fails, one that keeps the rows in the object store does not."""
    import glob

    from geotools_ray.state import manifest

    write = manifest.write_partitioned

    def write_then_drop(ds, ck):
        rows = write(ds, ck)
        for f in glob.glob(os.path.join(ck.out_dir, "part=*", "data.parquet")):
            os.remove(f)
        return rows

    monkeypatch.setattr(manifest, "write_partitioned", write_then_drop)


def test_flagship_fresh_checkpoint_is_not_read_back(ray_session, tmp_path, monkeypatch):
    """A fresh flagship_full run writes its checkpoint but feeds dedup
    and rollup from the materialized join: with every data file gone
    right after the write, the output still equals the run without a
    checkpoint. The records written count exactly the join's rows."""
    import ray.data

    from geotools_ray.ops import imagepipeline as IP
    from geotools_ray.sources import images as I
    from geotools_ray.stages.imaging import decode_features_batch
    from geotools_ray.state.manifest import load_manifest

    t = I.generate_image_table(600, seed=7)
    ref = _canon(IP.flagship_full(ray.data.from_arrow(t)))

    _drop_data_files_after_write(monkeypatch)
    ck = str(tmp_path / "ck")
    out = IP.flagship_full(ray.data.from_arrow(t), checkpoint_dir=ck, checkpoint_parts=8)
    assert not any(
        os.path.exists(os.path.join(ck, d, "data.parquet")) for d in os.listdir(ck)
    )
    assert _canon(out).equals(ref)

    decoded = ray.data.from_arrow(t).map_batches(decode_features_batch, batch_format="pyarrow")
    assert decoded.select_columns(["verify_ok"]).to_pandas()["verify_ok"].all()
    join_rows = IP.assign_and_join(ray.data.from_arrow(t)).count()
    man = load_manifest(ck)
    assert len(man) == 8 and join_rows > 0
    assert sum(r["row_count"] for r in man.values()) == join_rows


def test_checkpoint_join_refuses_rows_of_done_partitions(ray_session, tmp_path):
    """checkpoint_join returns old + new partitions without reading the
    new ones back, so rows that fall into a partition done before the
    call would be counted twice: such rows are refused before any file
    is replaced, so every data file and record stays byte for byte."""
    import ray.data

    from geotools_ray.ops import imagepipeline as IP
    from geotools_ray.sources import images as I

    joined = IP.assign_and_join(ray.data.from_arrow(I.generate_image_table(600, seed=7)))
    joined = joined.materialize()
    ck = str(tmp_path / "ck")
    back = IP.checkpoint_join(joined, ck, num_parts=4)
    assert back.count() == joined.count()
    os.remove(os.path.join(ck, "_manifest", "1.json"))
    before = _files(ck)
    assert "part=0/data.parquet" in before and "_manifest/0.json" in before
    with pytest.raises(ValueError, match="must not be passed in again"):
        IP.checkpoint_join(joined, ck, num_parts=4)
    assert _files(ck) == before


def test_flagship_exchanges_see_one_block(ray_session, tmp_path, monkeypatch):
    """The join reaches every exchange of flagship_full (the checkpoint
    write, dedup, rollup) as ONE block when it is under 1 MiB, though
    the decode runs as several tasks and emits a block each; on resume
    the new rows are written from one block too."""
    import ray.data

    from geotools_ray.ops import imagepipeline as IP
    from geotools_ray.sources import images as I
    from geotools_ray.stages import grouped as G
    from geotools_ray.state.manifest import load_manifest

    seen, joins = [], []
    grouped_map, coalesce = G.grouped_map, IP.coalesce_blocks

    def spy(ds, *a, **kw):
        seen.append(ds._plan.initial_num_blocks())
        return grouped_map(ds, *a, **kw)

    def spy_coalesce(ds):
        joins.append(ds.num_blocks())
        return coalesce(ds)

    monkeypatch.setattr(G, "grouped_map", spy)
    monkeypatch.setattr(IP, "coalesce_blocks", spy_coalesce)
    monkeypatch.setattr(IP, "DECODE_BATCH_ROWS", 64)
    t = I.generate_image_table(600, seed=7)

    def run(**kw):
        src = ray.data.from_arrow([t.slice(i * 150, 150) for i in range(4)])
        return _canon(IP.flagship_full(src, **kw))

    ref = run()
    assert seen == [1, 1]  # dedup, rollup
    assert joins == [4]
    ck = str(tmp_path / "ck")
    seen.clear()
    assert run(checkpoint_dir=ck, checkpoint_parts=8).equals(ref)
    assert seen == [1, 1, 1]  # write, dedup, rollup

    for k in sorted(load_manifest(ck))[:3]:
        shutil.rmtree(os.path.join(ck, f"part={k}"))
        os.remove(os.path.join(ck, "_manifest", f"{k}.json"))
    seen.clear()
    assert run(checkpoint_dir=ck, checkpoint_parts=8).equals(ref)
    assert seen[0] == 1


def test_polygon_matcher_pairs_are_exactly_the_contained_rows(ray_session):
    """polygon_matcher, the one match flagship_full's front and
    assign_and_join run, pairs each row with exactly the flagship
    polygons that contain it (straight PIP, no prefilter)."""
    from geotools_ray.ops.imagepipeline import FLAGSHIP_POLYGONS, polygon_matcher
    from geotools_ray.sources.images import generate_image_table

    t = generate_image_table(400, seed=11)
    inside = _contained(t)
    assert inside.any() and not inside.all()
    _, pi, pid = polygon_matcher()(t)
    assert sorted(zip(pi.tolist(), pid.tolist())) == sorted(
        (i, p.polygon_id)
        for p, m in zip(FLAGSHIP_POLYGONS, _containing(t))
        for i in np.flatnonzero(m).tolist()
    )


def test_flagship_front_matches_each_row_once(monkeypatch):
    """decode_and_join derives each batch's footprints once, over all
    of its rows, and decodes only the rows a polygon contains: one
    footprint call per front call, not one before decode and another
    in the join."""
    from geotools_ray.ops import imagepipeline as IP
    from geotools_ray.sources.images import image_rows

    seen, decoded = [], []
    footprint, decode = IP.footprint_cells_batch, IP.decode_features_batch

    def spy_footprint(t, *a, **kw):
        seen.append(t["image_id"].to_pylist())
        return footprint(t, *a, **kw)

    def spy_decode(t):
        decoded.append(len(t))
        return decode(t)

    monkeypatch.setattr(IP, "footprint_cells_batch", spy_footprint)
    monkeypatch.setattr(IP, "decode_features_batch", spy_decode)
    t = image_rows(range(2048), 42, 100)
    out = IP.decode_and_join()(t)
    assert seen == [t["image_id"].to_pylist()]
    assert decoded == [int(_contained(t).sum())] and 0 < decoded[0] < len(t)
    assert out.num_rows == int(_containing(t).sum()) > decoded[0]


def test_manifest_crash_debris_and_empty_partitions(ray_session, tmp_path):
    """Round-3 review fixes: (a) stale/partial temp files in _manifest
    never break load_manifest; (b) partitions receiving zero rows get
    done records + empty data files so resume skips their inputs;
    (c) resuming with a different num_parts is refused loudly."""
    import pyarrow.parquet as pq
    import ray.data

    from geotools_ray.state.manifest import (
        load_manifest,
        open_checkpoint,
        read_partitioned,
        skip_done,
        write_partitioned,
    )

    out = str(tmp_path / "ckpt")
    # ids only in parts {0, 2} of 4 -> parts 1 and 3 are empty
    rows = _id_rows(200, parts=(0, 2))
    write_partitioned(ray.data.from_items(rows), open_checkpoint(out, 4))
    man = load_manifest(out)
    assert set(man) == {"0", "1", "2", "3"}
    assert man["1"]["row_count"] == 0 and man["3"]["row_count"] == 0
    assert man["0"]["num_parts"] == 4
    # empty partitions carry the input's schema on disk
    assert pq.read_schema(os.path.join(out, "part=1", "data.parquet")).names == ["image_id", "v"]
    back = read_partitioned(out).to_pandas()
    assert len(back) == len(rows) and set(back.columns) == {"image_id", "v"}

    # crash debris: a partial temp write and a corrupt record
    mdir = os.path.join(out, "_manifest")
    with open(os.path.join(mdir, ".tmp-7-999-123"), "w") as fh:
        fh.write('{"partition_key": "7", "stat')  # truncated
    with open(os.path.join(mdir, "9.json"), "w") as fh:
        fh.write("{not json")
    man2 = load_manifest(out)
    assert set(man2) == {"0", "1", "2", "3"}  # debris skipped, no crash

    # a rerun writes nothing new (all four partitions are done)
    before = _files(out)
    ck = open_checkpoint(out, 4)
    assert write_partitioned(skip_done(ray.data.from_items(rows), ck), ck).count() == len(rows)
    assert _files(out) == before

    # num_parts mismatch is refused
    with pytest.raises(ValueError, match="num_parts"):
        open_checkpoint(out, 8)


def _contained(t: pa.Table) -> np.ndarray:
    """Rows whose footprint some flagship polygon contains."""
    return _containing(t).any(axis=0)


def _containing(t: pa.Table) -> np.ndarray:
    """(polygon, row) mask: flagship polygon i contains row j's
    footprint (straight PIP, no cell prefilter)."""
    from geotools_ray.kernels.geom import points_in_polygon
    from geotools_ray.ops.imagepipeline import FLAGSHIP_POLYGONS
    from geotools_ray.sources.images import footprint_lonlat

    lon, lat = footprint_lonlat(t["image_id"])
    return np.array(
        [points_in_polygon(lon, lat, [list(r) for r in p.rings]) for p in FLAGSHIP_POLYGONS]
    )


def _corrupt_phash(t: pa.Table, rows) -> pa.Table:
    ph = t["phash"].to_numpy(zero_copy_only=False).copy()
    ph[list(rows)] ^= 0x5A5A5A5A
    return t.set_column(t.schema.get_field_index("phash"), "phash", pa.array(ph))


def _gate_fixture():
    """-> (400-row image table, contained-row mask, a row two
    overlapping polygons contain that no other row shares a phash with
    (dedup never drops it), a row no polygon contains)."""
    from geotools_ray.sources.images import generate_image_table

    t = generate_image_table(400, seed=11)
    inside = _contained(t)
    ph = t["phash"].to_numpy(zero_copy_only=False)
    vals, counts = np.unique(ph, return_counts=True)
    twice = _containing(t).sum(axis=0) >= 2
    hit = int(np.flatnonzero(twice & np.isin(ph, vals[counts == 1]))[0])
    return t, inside, hit, int(np.flatnonzero(~inside)[0])


def _canon(ds):
    df = ds.to_pandas()
    return df.sort_values(["polygon_id", "parent_cell"]).reset_index(drop=True)


def test_flagship_verify_gate_drops_corrupt_rows(ray_session):
    """A row two polygons contain whose stored phash mismatches its
    decoded pixels loses both of its (row, polygon) pairs in
    flagship_full (the input_hint invariant is a gate): the output
    equals the run over the table without that row. A corrupt row no
    polygon contains changes nothing."""
    import pandas as pd
    import ray.data

    from geotools_ray.ops.imagepipeline import flagship_full

    def run(tb):
        return _canon(flagship_full(ray.data.from_arrow(tb)))

    t, _, hit, miss = _gate_fixture()
    full = run(t)
    without = run(t.filter(pa.array(np.arange(len(t)) != hit)))
    changed = full.merge(without, how="outer", indicator=True)
    # the row counts in the output, under both polygons
    assert changed[changed["_merge"] != "both"]["polygon_id"].nunique() >= 2
    pd.testing.assert_frame_equal(run(_corrupt_phash(t, [hit])), without)
    pd.testing.assert_frame_equal(run(_corrupt_phash(t, [miss])), full)


def test_flagship_matches_decode_everything_composition(ray_session):
    """flagship_full runs the polygon match before decode + verify. Its
    output equals the public stages composed to decode EVERY row
    (decode_features_batch -> verify filter -> assign_and_join ->
    dedup_by_phash -> cell_rollup), over PNG, baseline and progressive
    JPEG rows and corrupt-phash rows on both sides of the polygons.
    A row no polygon contains is never decoded, so a payload there
    that decode_image refuses (an unknown codec tag) fails nothing."""
    import pandas as pd
    import ray.data

    from geotools_ray.ops import imagepipeline as IP
    from geotools_ray.sources.images import decode_image
    from geotools_ray.sources.jpegprog import _frame_marker
    from geotools_ray.stages.imaging import decode_features_batch

    def layout(b: bytes) -> str:
        if b[:4] == b"\x89PNG":
            return "png"
        return "progressive" if _frame_marker(b) == 0xC2 else "baseline"

    t, inside, hit, miss = _gate_fixture()
    kinds = np.array([layout(b) for b in t["bytes"].to_pylist()])
    for k in ("png", "baseline", "progressive"):
        assert (inside & (kinds == k)).any() and (~inside & (kinds == k)).any(), k
    t = _corrupt_phash(t, [hit, miss])

    def verified(b: pa.Table) -> pa.Table:
        return b.filter(b["verify_ok"]).select(["image_id", "phash"])

    decoded = ray.data.from_arrow(t).map_batches(
        decode_features_batch, batch_format="pyarrow", batch_size=2048
    ).map_batches(verified, batch_format="pyarrow")
    expected = _canon(IP.cell_rollup(IP.dedup_by_phash(IP.assign_and_join(decoded))))

    ids = pa.array([f"unknown{k:04d}" for k in range(100)])
    outside = ids.filter(pa.array(~_contained(pa.table({"image_id": ids}))))
    junk = dict(t.slice(0, 1).to_pylist()[0], image_id=outside[0].as_py(), bytes=b"XXXX" + bytes(32))
    with pytest.raises(NotImplementedError, match="unknown codec tag"):
        decode_image(junk["bytes"])
    with_junk = pa.concat_tables([t, pa.Table.from_pylist([junk], schema=t.schema)])
    got = _canon(IP.flagship_full(ray.data.from_arrow(with_junk)))
    pd.testing.assert_frame_equal(got, expected)


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

    def run(fmt, inp, out, ckpt):
        cli.cmd_flagship(
            SimpleNamespace(
                input=inp, output=out, in_format=fmt,
                checkpoint=ckpt, checkpoint_parts=4,
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
