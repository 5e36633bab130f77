import numpy as np

from geotools_ray.sources import codecs as C
from geotools_ray.sources import images as I


def test_png_roundtrip_exact():
    rng = np.random.RandomState(0)
    px = rng.randint(0, 256, size=(32, 16, 3)).astype(np.uint8)
    assert (I.decode_image(I.encode_image(px, "png")) == px).all()


def test_jpeg_lossy_psnr_over_40db():
    """input_hint gate: REAL T.81 JPEG at the table's quality holds
    PSNR >= 40 dB on the generator's photo-like content (and stays
    genuinely lossy). Checked across all three sizes."""
    rng = np.random.RandomState(1)
    for size in (16, 32, 64):
        px = I.synth_pixels(rng, size, size)
        data = I.encode_image(px, "jpeg")
        assert data[:2] == b"\xff\xd8"  # real JPEG, not a stand-in
        dec = I.decode_image(data)
        assert C.psnr(px, dec) >= 40.0
        assert not (dec == px).all()  # genuinely lossy


def test_jpeg_q98_holds_gate_on_noise():
    """Worst-case content (uniform noise) still meets the 40 dB gate at
    the interchange quality (q98) used by img_codecs."""
    rng = np.random.RandomState(1)
    px = rng.randint(0, 256, size=(32, 32, 3)).astype(np.uint8)
    dec = I.decode_image(I.encode_image(px, "jpeg_real"))
    assert C.psnr(px, dec) >= 40.0


def test_image_rows_matches_scalar_oracle():
    """The batched generator (wide stack encode for 4:4:4, scalar
    subsampled/progressive encoders, one wide decode for phash) is
    row-identical to per-row make_image_row — across a window wide
    enough to hit every JPEG_VARIANTS entry."""
    t = I.image_rows(range(90, 130), 42, 100)
    for j, i in enumerate(range(90, 130)):
        assert t.slice(j, 1).to_pylist()[0] == I.make_image_row(
            i, seed=42, dup_of=I.dup_root(i, 100)
        )


def test_table_deterministic_and_duplicated():
    t1 = I.generate_image_table(250, seed=42)
    t2 = I.generate_image_table(250, seed=42)
    assert t1.equals(t2)
    assert t1.schema.equals(I.IMAGE_SCHEMA)
    # dup fixture: row 199 duplicates row 99 (dup_every=100)
    r199 = t1.slice(199, 1).to_pylist()[0]
    r99 = t1.slice(99, 1).to_pylist()[0]
    assert r199["phash"] == r99["phash"]
    assert I.decode_image(r199["bytes"]).tobytes() == I.decode_image(r99["bytes"]).tobytes()
    assert r199["image_id"] != r99["image_id"]


def test_footprints_stable_under_order():
    ids = [f"img{i:012d}" for i in range(100)]
    lon1, lat1 = I.footprint_lonlat(ids)
    lon2, lat2 = I.footprint_lonlat(ids[::-1])
    assert np.allclose(lon1, lon2[::-1]) and np.allclose(lat1, lat2[::-1])
    assert (np.abs(lon1) <= 20).all() and (np.abs(lat1) <= 20).all()


def test_phash_duplicates_cluster():
    t = I.generate_image_table(400, seed=42)
    ph = t.column("phash").to_pylist()
    # dup chains dereference to the root: 199, 299, 399 are all
    # byte-exact copies of row 99 (a growing meme-style cluster)
    assert ph[199] == ph[99]
    assert ph[299] == ph[99]
    assert ph[399] == ph[99]
    b = t.column("bytes").to_pylist()
    assert b[299] == b[99] and b[399] == b[99]
    n_unique = len(set(ph))
    assert n_unique < 400  # some dups exist
    assert n_unique > 390  # but not many collisions


def test_fixture_carries_web_corpus_layout_mix():
    """The table genuinely contains 4:2:0 / 4:2:2 / 4:4:4 / progressive
    jpeg rows, and every lossy row meets the layout-aware fidelity
    gates: full-RGB PSNR >= 33 dB and luma PSNR >= 40 dB (luma is
    never subsampled; chroma bandwidth is bounded by the layout)."""
    from geotools_ray.sources import codecs as C

    t = I.image_rows(range(0, 64), 42, 0)
    seen = set()
    for row in t.to_pylist():
        if row["fmt"] != "jpeg":
            continue
        data = row["bytes"]
        if b"\xff\xc2" in data[:200]:
            seen.add("prog")
        else:
            sof = data.find(b"\xff\xc0")
            seen.add({0x11: "444", 0x21: "422", 0x22: "420"}[data[sof + 11]])
        # fidelity gates vs the deterministic source pixels
        i = int(row["image_id"][3:])
        rng = I._rng_for(f"img{i:012d}", 42)
        w = int(I.SIZES[rng.randint(len(I.SIZES))])
        h = int(I.SIZES[rng.randint(len(I.SIZES))])
        src = I.synth_pixels(rng, h, w)
        dec = I.decode_image(data)
        assert C.psnr(src, dec) >= 33.0, row["image_id"]
        l1 = 0.299 * src[..., 0].astype(float) + 0.587 * src[..., 1] + 0.114 * src[..., 2]
        l2 = 0.299 * dec[..., 0].astype(float) + 0.587 * dec[..., 1] + 0.114 * dec[..., 2]
        mse = np.mean((l1 - l2) ** 2)
        luma_psnr = 10 * np.log10(255.0**2 / mse)
        assert luma_psnr >= 40.0, row["image_id"]
    assert seen == {"444", "422", "420", "prog"}


def test_caption_equality_end_to_end(ray_session, tmp_path):
    """input_hint invariant: captions survive the write/read/pipeline
    path byte-for-byte."""
    import ray.data

    from geotools_ray.sources import images as I

    t = I.generate_image_table(300, seed=42)
    path = str(tmp_path / "imgs")
    ray.data.from_arrow(t).write_parquet(path)
    back = ray.data.read_parquet(path, columns=["image_id", "caption"]).to_pandas()
    orig = t.select(["image_id", "caption"]).to_pandas()
    merged = orig.merge(back, on="image_id", suffixes=("_a", "_b"))
    assert len(merged) == 300
    assert (merged["caption_a"] == merged["caption_b"]).all()
    # and through the decode stage (caption column carried, untouched)
    from geotools_ray.stages.imaging import decode_features_batch

    out = (
        ray.data.read_parquet(path)
        .map_batches(decode_features_batch, batch_format="pyarrow")
        .to_pandas()
    )
    m2 = orig.merge(out[["image_id", "caption"]], on="image_id")
    assert (m2["caption_x"] == m2["caption_y"]).all()
    assert out["verify_ok"].all()


def _resize_ref(img, H, W):
    """Per-pixel bilinear reference (half-pixel centers, edge clamp)."""
    h, w, c = img.shape
    out = np.zeros((H, W, c))
    for y in range(H):
        sy = (y + 0.5) * (h / H) - 0.5  # same float association as the kernel
        y0 = int(np.floor(sy)); fy = sy - y0
        y0c, y1c = min(max(y0, 0), h - 1), min(max(y0 + 1, 0), h - 1)
        for x in range(W):
            sx = (x + 0.5) * (w / W) - 0.5
            x0 = int(np.floor(sx)); fx = sx - x0
            x0c, x1c = min(max(x0, 0), w - 1), min(max(x0 + 1, 0), w - 1)
            top = img[y0c, x0c] * (1 - fx) + img[y0c, x1c] * fx
            bot = img[y1c, x0c] * (1 - fx) + img[y1c, x1c] * fx
            out[y, x] = top * (1 - fy) + bot * fy
    return np.rint(out).clip(0, 255).astype(np.uint8)


def test_resize_bilinear_matches_reference_and_identity():
    from geotools_ray.stages.imaging import resize_bilinear_stack

    rng = np.random.RandomState(3)
    imgs = rng.randint(0, 256, (4, 13, 9, 3), dtype=np.uint8)
    for H, W in ((7, 7), (20, 5), (13, 9), (1, 1)):
        got = resize_bilinear_stack(imgs, H, W)
        for j in range(len(imgs)):
            np.testing.assert_array_equal(got[j], _resize_ref(imgs[j], H, W), err_msg=f"{H}x{W}")
    # same-size resize is the identity (half-pixel centers land on
    # integer sample points)
    np.testing.assert_array_equal(resize_bilinear_stack(imgs, 13, 9), imgs)


def test_resize_stage_emits_valid_image_table(ray_session):
    """ResizeStage output is a decodable input_hint table: dims are the
    target, phash verifies against the re-encoded payloads, captions
    ride through — for both png (lossless) and jpeg (wide encoder)."""
    import pyarrow as pa
    import ray.data

    from geotools_ray.sources.images import IMAGE_SCHEMA, decode_image, make_image_row
    from geotools_ray.stages.imaging import ResizeStage, decode_features_batch

    rows = [make_image_row(i, seed=21) for i in range(48)]
    t = pa.Table.from_pylist(rows, schema=IMAGE_SCHEMA)
    for fmt in ("png", "jpeg"):
        out = (
            ray.data.from_arrow(t)
            .map_batches(
                ResizeStage,
                batch_format="pyarrow",
                batch_size=16,
                concurrency=2,
                fn_constructor_kwargs={"out_w": 24, "out_h": 16, "fmt": fmt},
            )
            .take_all()
        )
        assert len(out) == 48
        ot = pa.Table.from_pylist(out)
        feats = decode_features_batch(ot)
        ok = feats["verify_ok"].to_numpy(zero_copy_only=False)
        assert ok.all(), f"{fmt}: {int((~ok).sum())} phash mismatches"
        px = decode_image(out[0]["bytes"])
        assert px.shape == (16, 24, 3)
        assert {r["caption"] for r in out} == {r["caption"] for r in rows}
