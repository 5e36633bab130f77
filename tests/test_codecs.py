"""Real-codec tests: spec-compliant PNG / baseline JPEG / WAV / Y4M
(sources/codecs.py) and their wiring into the image + multimodal
stages. These exercise the input_hint invariants against REAL formats:
PSNR >= 40 dB for the lossy codec, bit-exact round-trip for the
lossless ones."""

import struct
import zlib

import numpy as np
import pytest

from geotools_ray.sources import codecs as C
from geotools_ray.sources import images as I


def _noise(shape, seed=0):
    return np.random.RandomState(seed).randint(0, 256, shape, dtype=np.uint8)


# ---------------------------------------------------------------------------
# PNG


def test_png_roundtrip_rgb_and_gray():
    px = _noise((37, 53, 3))
    data = C.encode_png(px)
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    assert np.array_equal(C.decode_png(data), px)
    assert C.png_info(data) == (53, 37, 3)
    g = _noise((16, 24))
    assert np.array_equal(C.decode_png(C.encode_png(g)), g)


def test_png_crc_detects_corruption():
    data = bytearray(C.encode_png(_noise((8, 8, 3))))
    data[50] ^= 0xFF  # flip a bit inside IDAT
    with pytest.raises(ValueError, match="CRC"):
        C.decode_png(bytes(data))


def test_png_decodes_all_five_filter_types():
    """Hand-encode one row per filter type (spec reference math) and
    check the decoder reconstructs the source exactly."""
    rng = np.random.RandomState(7)
    h, w, bpp = 5, 9, 3
    img = rng.randint(0, 256, (h, w, bpp), dtype=np.uint8)

    def paeth(a, b, c):
        p = a + b - c
        pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
        return a if pa_ <= pb_ and pa_ <= pc_ else (b if pb_ <= pc_ else c)

    rows = bytearray()
    prior = np.zeros(w * bpp, np.int32)
    for y in range(h):
        ft = y % 5
        cur = img[y].reshape(-1).astype(np.int32)
        enc = np.empty_like(cur)
        for i in range(w * bpp):
            left = cur[i - bpp] if i >= bpp else 0
            ul = int(prior[i - bpp]) if i >= bpp else 0
            up = int(prior[i])
            if ft == 0:
                pred = 0
            elif ft == 1:
                pred = left
            elif ft == 2:
                pred = up
            elif ft == 3:
                pred = (left + up) // 2
            else:
                pred = paeth(left, up, ul)
            enc[i] = (cur[i] - pred) % 256
        rows.append(ft)
        rows += bytes(enc.astype(np.uint8))
        prior = cur
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    data = (
        C._PNG_SIG
        + C._png_chunk(b"IHDR", ihdr)
        + C._png_chunk(b"IDAT", zlib.compress(bytes(rows)))
        + C._png_chunk(b"IEND", b"")
    )
    assert np.array_equal(C.decode_png(data), img)


# ---------------------------------------------------------------------------
# JPEG


def test_jpeg_roundtrip_smooth_image_high_psnr():
    x, y = np.meshgrid(np.arange(64), np.arange(48))
    px = np.stack([(x * 2) % 256, (y * 3) % 256, ((x + y) * 2) % 256], axis=-1).astype(
        np.uint8
    )
    dec = C.decode_jpeg(C.encode_jpeg(px, quality=90))
    assert dec.shape == px.shape
    assert C.psnr(px, dec) >= 45.0


def test_jpeg_psnr_gate_holds_on_worst_case_noise():
    """input_hint invariant: PSNR >= 40 dB for the lossy codec — held
    at q98 even on uniform noise (the generator's image content)."""
    for seed, shape in ((0, (16, 16, 3)), (1, (64, 64, 3)), (2, (32, 64, 3))):
        px = _noise(shape, seed)
        dec = C.decode_jpeg(C.encode_jpeg(px, quality=98))
        assert C.psnr(px, dec) >= 40.0


def test_jpeg_gray_and_nonmultiple_of_8_sizes():
    g = _noise((17, 23), 3)
    dec = C.decode_jpeg(C.encode_jpeg(g, quality=95))
    assert dec.shape == g.shape
    px = _noise((20, 12, 3), 4)
    dec3 = C.decode_jpeg(C.encode_jpeg(px, quality=95))
    assert dec3.shape == px.shape


def test_jpeg_marker_structure():
    """The emitted stream is a structurally valid baseline JFIF file:
    SOI, APP0-JFIF, 2x DQT, SOF0, 4x DHT, SOS, EOI in order."""
    data = C.encode_jpeg(_noise((16, 16, 3)), quality=90)
    assert data[:2] == b"\xff\xd8" and data[-2:] == b"\xff\xd9"
    assert data[2:4] == b"\xff\xe0" and data[6:11] == b"JFIF\x00"
    markers = []
    pos = 2
    while pos < len(data) - 2:
        assert data[pos] == 0xFF
        m = data[pos + 1]
        markers.append(m)
        (ln,) = struct.unpack(">H", data[pos + 2 : pos + 4])
        pos += 2 + ln
        if m == 0xDA:
            break
    assert markers.count(0xDB) == 2  # lum + chroma quant tables
    assert markers.count(0xC4) == 4  # 4 standard Huffman tables
    assert 0xC0 in markers and markers[-1] == 0xDA


def test_jpeg_quality_monotonic():
    px = _noise((32, 32, 3), 5)
    sizes = [len(C.encode_jpeg(px, quality=q)) for q in (50, 75, 90, 98)]
    assert sizes == sorted(sizes)  # higher quality -> more bytes
    p50 = C.psnr(px, C.decode_jpeg(C.encode_jpeg(px, quality=50)))
    p98 = C.psnr(px, C.decode_jpeg(C.encode_jpeg(px, quality=98)))
    assert p98 > p50


# ---------------------------------------------------------------------------
# WAV


def test_wav_roundtrip_bit_exact_mono_and_stereo():
    rng = np.random.RandomState(11)
    mono = (rng.standard_normal(12345) * 8000).astype(np.int16)
    dec, sr = C.decode_wav(C.encode_wav(mono, 16000))
    assert sr == 16000
    assert np.array_equal((dec * 32768.0).astype(np.int16), mono)
    stereo = (rng.standard_normal((500, 2)) * 8000).astype(np.int16)
    dec2, sr2 = C.decode_wav(C.encode_wav(stereo, 44100))
    assert sr2 == 44100 and dec2.shape == (500, 2)
    assert np.array_equal((dec2 * 32768.0).astype(np.int16), stereo)


def test_wav_skips_foreign_chunks():
    """Spec behavior: unknown chunks (LIST/fact) are skipped, with the
    word-alignment padding rule honored (odd-length chunk)."""
    s = np.arange(100, dtype=np.int16)
    data = bytearray(C.encode_wav(s, 8000))
    # splice an odd-length junk chunk between fmt and data
    fmt_end = 12 + 8 + 16
    junk = b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"  # padded
    data = bytes(data[:fmt_end]) + junk + bytes(data[fmt_end:])
    data = data[:4] + struct.pack("<I", len(data) - 8) + data[8:]
    dec, sr = C.decode_wav(data)
    assert np.array_equal((dec * 32768.0).astype(np.int16), s)


# ---------------------------------------------------------------------------
# Y4M


def test_y4m_header_and_o1_frame_seek():
    fr = _noise((9, 24, 32), 13)
    data = C.encode_y4m(fr, fps=25.0)
    assert data.startswith(b"YUV4MPEG2 ")
    info = C.y4m_info(data)
    assert (info["w"], info["h"], info["n_frames"]) == (32, 24, 9)
    assert info["fps"] == 25.0
    for idx in (0, 4, 8):
        assert np.array_equal(C.decode_y4m_frame(data, idx, info), fr[idx])
    with pytest.raises(IndexError):
        C.decode_y4m_frame(data, 9, info)


def test_y4m_444_planar():
    fr = _noise((3, 3, 8, 10), 17)  # (n, 3, h, w)
    data = C.encode_y4m(fr, fps=30.0)
    info = C.y4m_info(data)
    assert info["planes"] == 3
    assert np.array_equal(C.decode_y4m_frame(data, 1, info), fr[1])


# ---------------------------------------------------------------------------
# wiring: image seam + multimodal stages


def test_decode_image_dispatches_real_formats():
    px = _noise((32, 64, 3), 19)
    real_png = I.encode_image(px, "png")
    assert real_png[:8] == b"\x89PNG\r\n\x1a\n"  # flagship png IS real PNG
    assert np.array_equal(I.decode_image(real_png), px)
    jb = C.encode_jpeg(px, quality=98)
    assert C.psnr(px, I.decode_image(jb)) >= 40.0


def test_decode_features_batch_handles_real_png_and_filters():
    import pyarrow as pa

    from geotools_ray.stages.imaging import decode_features_batch

    rows = [I.make_image_row(i) for i in range(32)]
    t = pa.Table.from_pylist(rows, schema=I.IMAGE_SCHEMA)
    out = decode_features_batch(t)
    assert out["verify_ok"].to_numpy(zero_copy_only=False).all()
    # non-zero filter types fall back to the per-image unfilter path:
    # re-encode one image with Up-filtered rows and check the phash
    px = I.decode_image(rows[0]["bytes"])
    h, w, _ = px.shape
    enc = np.empty((h, 1 + 3 * w), dtype=np.uint8)
    enc[:, 0] = 2  # Up filter
    flat = px.reshape(h, 3 * w).astype(np.int32)
    enc[0, 1:] = flat[0]
    enc[1:, 1:] = ((flat[1:] - flat[:-1]) % 256).astype(np.uint8)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    filt_png = (
        C._PNG_SIG
        + C._png_chunk(b"IHDR", ihdr)
        + C._png_chunk(b"IDAT", zlib.compress(enc.tobytes()))
        + C._png_chunk(b"IEND", b"")
    )
    assert np.array_equal(C.decode_png(filt_png), px)
    rows2 = [dict(rows[0], bytes=filt_png)]
    out2 = decode_features_batch(pa.Table.from_pylist(rows2, schema=I.IMAGE_SCHEMA))
    assert out2["verify_ok"].to_numpy(zero_copy_only=False).all()


def test_decode_features_batch_foreign_payloads():
    """Regression trio: (1) real-JPEG rows used to die with an opaque
    zlib.error (wrong assumed frame layout) — now they take the
    per-image magic-byte path; (2) a spec-valid PNG whose size is not
    a multiple of 8 crashed the batched phash reshape; (3) grayscale
    PNGs (2-D decode) crashed perceptual_hash. All must decode AND
    verify (recomputed phash == stored)."""
    import pyarrow as pa

    from geotools_ray.stages.imaging import decode_features_batch

    rng = np.random.RandomState(11)

    def row(i, px, fmt):
        data = I.encode_image(px, fmt) if px.ndim == 3 else C.encode_png(px)
        return {
            "image_id": f"f{i:04d}",
            "bytes": data,
            "w": px.shape[1],
            "h": px.shape[0],
            "fmt": fmt,
            "caption": "x",
            "phash": I.perceptual_hash(I.decode_image(data)),
        }

    rows = [
        row(0, rng.randint(0, 256, (16, 16, 3)).astype(np.uint8), "jpeg_real"),
        row(1, (rng.rand(24, 24, 3) * 40 + 100).astype(np.uint8), "jpeg_real"),
        row(2, rng.randint(0, 256, (20, 20, 3)).astype(np.uint8), "png"),
        row(3, rng.randint(0, 256, (13, 27, 3)).astype(np.uint8), "png"),
        row(4, rng.randint(0, 256, (20, 20)).astype(np.uint8), "png"),  # gray 2-D
        row(5, rng.randint(0, 256, (16, 16, 3)).astype(np.uint8), "png"),
    ]
    out = decode_features_batch(pa.Table.from_pylist(rows, schema=I.IMAGE_SCHEMA))
    assert out["verify_ok"].to_numpy(zero_copy_only=False).all()
    # unknown tags still raise loudly (per-image dispatch, not zlib),
    # the retired GJPG stand-in codec included
    for tag in (b"XXXX", b"GJPG"):
        bad = [dict(rows[5], bytes=tag + b"\x00" * 32)]
        with pytest.raises(NotImplementedError, match="unknown codec tag"):
            decode_features_batch(pa.Table.from_pylist(bad, schema=I.IMAGE_SCHEMA))


def test_audio_stage_real_wav():
    from geotools_ray.stages import multimodal as MM

    t = MM.generate_audio_table(8, seed=3)
    out = MM.AudioFeatureStage()(t)
    rms = out["rms"].to_numpy()
    # the synthetic waveform is ~0.5 amplitude sines at 20000/32768 gain
    assert (rms > 0.05).all() and (rms < 1.0).all()
    # parse parity: stage features equal a direct decode of the payload
    w0, sr = C.decode_wav(t["bytes"][0].as_py())
    assert sr == 16000
    assert abs(float(np.sqrt(np.mean(w0**2))) - float(rms[0])) < 1e-6


def test_video_stage_real_y4m():
    from geotools_ray.stages import multimodal as MM

    t = MM.generate_video_table(5, seed=3)
    out = MM.VideoFrameSampleStage(stride=30)(t)
    nf = t["n_frames"].to_numpy()
    expect = int(sum(len(range(0, int(k), 30)) for k in nf))
    assert len(out) == expect
    # frame 0 luma matches a direct decode
    luma0 = out["mean_luma"][0].as_py()
    fr0 = C.decode_y4m_frame(t["bytes"][0].as_py(), 0)
    assert abs(luma0 - float(fr0.mean())) < 1e-9


def test_codec_roundtrip_batch_gate():
    import pyarrow as pa

    from geotools_ray.stages.imaging import codec_roundtrip_batch

    rows = [I.make_image_row(i) for i in range(6)]
    out = codec_roundtrip_batch(pa.Table.from_pylist(rows, schema=I.IMAGE_SCHEMA))
    assert len(out) == 12  # png + jpeg per image
    df = out.to_pandas()
    assert df[df.fmt == "png"].lossless.all()
    assert (df[df.fmt == "jpeg"].psnr_db >= 40.0).all()


def test_jpeg_truncated_stream_raises():
    """A truncated entropy segment must raise, not return plausible
    garbage pixels (the decoder pads refills with 0xFF past the real
    data; the consumed-bits guard catches streams that run dry)."""
    px = _noise((32, 32, 3), 23)
    b = C.encode_jpeg(px, quality=95)
    for cut in (len(b) // 2, len(b) - 30):
        with pytest.raises(ValueError):
            C.decode_jpeg(b[:cut])


# ---------------------------------------------------------------------------
# property tests (bounded-example hypothesis sweeps)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _HAVE_HYP = True
except ImportError:  # pragma: no cover
    _HAVE_HYP = False

if _HAVE_HYP:

    @settings(max_examples=25, deadline=None)
    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 40),
        gray=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_prop_png_roundtrip_lossless(h, w, gray, seed):
        shape = (h, w) if gray else (h, w, 3)
        px = _noise(shape, seed)
        assert np.array_equal(C.decode_png(C.encode_png(px)), px)

    @settings(max_examples=15, deadline=None)
    @given(
        h=st.integers(1, 32),
        w=st.integers(1, 32),
        q=st.integers(95, 100),
        seed=st.integers(0, 2**16),
    )
    def test_prop_jpeg_shape_and_psnr(h, w, q, seed):
        """Any size (incl. non-multiple-of-8 and 1-px edges) round-trips
        with the right shape. On uniform noise (DCT worst case) PSNR is
        quality-bounded: calibrated floors are ~34.9 dB at q95 and
        ~42.9 dB at q98 for full-block images; sub-block images are
        dominated by pad-replication + chroma quantization (real
        libjpeg behaves the same). The 40 dB input_hint gate is
        asserted separately at q98 on the generator's sizes."""
        px = _noise((h, w, 3), seed)
        dec = C.decode_jpeg(C.encode_jpeg(px, quality=q))
        assert dec.shape == px.shape
        if h >= 8 and w >= 8:
            assert C.psnr(px, dec) >= 33.0

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 5000),
        ch=st.integers(1, 2),
        sr=st.sampled_from([8000, 16000, 44100]),
        seed=st.integers(0, 2**16),
    )
    def test_prop_wav_bit_exact(n, ch, sr, seed):
        rng = np.random.RandomState(seed)
        shape = (n,) if ch == 1 else (n, ch)
        s = rng.randint(-32768, 32768, shape).astype(np.int16)
        dec, got_sr = C.decode_wav(C.encode_wav(s, sr))
        assert got_sr == sr
        assert np.array_equal((dec * 32768.0).astype(np.int16), s)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(1, 12),
        h=st.integers(1, 24),
        w=st.integers(1, 24),
        idx_frac=st.floats(0.0, 0.999),
        seed=st.integers(0, 2**16),
    )
    def test_prop_y4m_any_frame_exact(n, h, w, idx_frac, seed):
        fr = _noise((n, h, w), seed)
        data = C.encode_y4m(fr)
        info = C.y4m_info(data)
        assert info["n_frames"] == n
        idx = int(idx_frac * n)
        assert np.array_equal(C.decode_y4m_frame(data, idx, info), fr[idx])


def test_sliced_fixture_generation_matches_sequential():
    """image_rows/audio_rows/video_rows over arbitrary index slices
    reproduce the sequential generators byte-for-byte — the contract
    the parallel fixture generation in __ray_entry__ relies on."""
    from geotools_ray.stages import multimodal as MM

    # images: cross a dup boundary (dup_every=100 -> row 199 dups 99)
    full = I.generate_image_table(210, seed=42, dup_frac=0.01)
    ids = [0, 5, 99, 100, 150, 199, 209]
    part = I.image_rows(ids, 42, 100)
    assert part.equals(full.take(ids))

    lens = MM.audio_clip_lens(40, seed=7)
    afull = MM.generate_audio_table(40, seed=7)
    apart = MM.audio_rows(np.array([3, 17, 39]), lens)
    assert apart.equals(afull.take([3, 17, 39]))

    nfr = MM.video_frame_counts(25, seed=7)
    vfull = MM.generate_video_table(25, seed=7)
    vpart = MM.video_rows(np.array([0, 11, 24]), nfr)
    assert vpart.equals(vfull.take([0, 11, 24]))


def test_wav_real_corpus_sample_formats():
    """8/24/32-bit PCM and IEEE float32 decode to the same float
    contract as pcm16 (real corpora are not all 16-bit)."""
    import numpy as np

    from geotools_ray.sources import codecs as C

    rng = np.random.RandomState(4)
    s = (rng.standard_normal(999) * 12000).astype(np.int16)
    want = s.astype(np.float32) / 32768.0
    for fmt, tol in (("pcm16", 0.0), ("pcm24", 0.0), ("pcm32", 0.0),
                     ("float32", 0.0), ("pcm8", 1 / 128)):
        out, rate = C.decode_wav(C.encode_wav(s, 16000, sample_format=fmt))
        assert rate == 16000
        assert np.abs(out - want).max() <= tol + 1e-7, fmt
    # stereo 24-bit keeps channel interleave
    st = np.stack([s, -s], axis=1)
    out, _ = C.decode_wav(C.encode_wav(st, 8000, sample_format="pcm24"))
    assert out.shape == (999, 2)
    assert np.allclose(out[:, 0], want) and np.allclose(out[:, 1], -want)
    # EXTENSIBLE wrapper: same PCM16 payload behind a 0xFFFE fmt chunk
    # whose GUID sub-format carries the real tag
    import struct

    data = bytes(C.encode_wav(s, 16000))
    fi = data.find(b"fmt ")
    (old_len,) = struct.unpack("<I", data[fi + 4 : fi + 8])
    _, nch, rate2, brate, blk, bps = struct.unpack(
        "<HHIIHH", data[fi + 8 : fi + 8 + 16]
    )
    ext = struct.pack("<HHIIHH", 0xFFFE, nch, rate2, brate, blk, bps)
    ext += struct.pack("<H", 22)  # cbSize
    ext += struct.pack("<HI", bps, 0)  # valid bits, channel mask
    ext += struct.pack("<H", 1) + b"\x00" * 14  # GUID: sub-format tag 1
    newdata = (
        data[:fi] + b"fmt " + struct.pack("<I", len(ext)) + ext
        + data[fi + 8 + old_len :]
    )
    # RIFF size field is stale but decode_wav walks by chunk lengths
    out2, _ = C.decode_wav(newdata)
    assert np.allclose(out2, want)


def test_y4m_c420_roundtrip_and_seek():
    """C420 (the layout real streams ship): encode box-downsamples
    chroma, decode replication-upsamples; luma survives exactly and
    O(1) frame seek holds."""
    import numpy as np

    from geotools_ray.sources import codecs as C

    rng = np.random.RandomState(6)
    frames = rng.randint(0, 256, size=(5, 3, 32, 48)).astype(np.uint8)
    data = C.encode_y4m(frames, fps=24.0, colourspace="420")
    info = C.y4m_info(data)
    assert info["n_frames"] == 5 and info["cs"] == "420"
    assert info["frame_size"] == 32 * 48 + 2 * 16 * 24
    for i in (0, 4):
        out = C.decode_y4m_frame(data, i, info)
        assert out.shape == (3, 32, 48)
        assert (out[0] == frames[i, 0]).all()  # luma untouched
        # chroma within quantization of the 2x2 box mean
        for p in (1, 2):
            up = out[p].reshape(16, 2, 24, 2).mean(axis=(1, 3))
            src = frames[i, p].reshape(16, 2, 24, 2).mean(axis=(1, 3))
            assert np.abs(up - src).max() <= 0.5 + 1e-9
    # odd dims refused at encode (real C420 is even-dimensioned)
    import pytest

    with pytest.raises(ValueError, match="even"):
        C.encode_y4m(frames[:, :, :31, :], colourspace="420")
