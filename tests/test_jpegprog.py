"""Subsampled (4:2:0/4:2:2) and progressive (SOF2) JPEG coverage.

The hermetic correctness pin: encode_progressive emits the SAME
quantized coefficients as the baseline encoder, so the progressive
decode must be pixel-IDENTICAL to the baseline decode — any scan
mis-parse (band, successive approximation, EOB run, refinement bit)
breaks the equality. Subsampled baseline is pinned by round-trip PSNR
plus wide==scalar bit-identity (test_jpegwide covers the mixed batch).
"""

import numpy as np
import pytest

from geotools_ray.sources import codecs as C
from geotools_ray.sources import jpegprog as P
from geotools_ray.sources import jpegwide as W


def _photo(h, w, seed=3):
    rng = np.random.RandomState(seed)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    base = 128 + 60 * np.sin(xx / 17) + 50 * np.cos(yy / 23)
    px = np.stack(
        [base, base * 0.8 + 30 * np.sin((xx + yy) / 31), base * 0.6 + 40 * np.cos(xx / 11)],
        axis=-1,
    )
    px += rng.normal(0, 3, px.shape)
    return np.clip(px, 0, 255).astype(np.uint8)


@pytest.mark.parametrize("samp", ["422", "420"])
@pytest.mark.parametrize("shape", [(64, 64), (37, 53), (61, 17)])
def test_subsampled_roundtrip_psnr(samp, shape):
    px = _photo(*shape)
    for ri in (0, 4):
        data = C.encode_jpeg(px, quality=92, restart_interval=ri, sampling=samp)
        out = C.decode_jpeg(data)
        assert out.shape == px.shape
        assert C.psnr(px, out) >= 34.0  # ~1 dB under the 4:4:4 encode
    # subsampling actually shrinks the payload on photo content
    d444 = C.encode_jpeg(px, quality=92, sampling="444")
    dsub = C.encode_jpeg(px, quality=92, sampling=samp)
    assert len(dsub) < len(d444)


def test_sof_declares_sampling_factors():
    px = _photo(32, 48)
    for samp, yb in (("444", 0x11), ("422", 0x21), ("420", 0x22)):
        data = C.encode_jpeg(px, 90, sampling=samp)
        sof = data.find(b"\xff\xc0")
        assert sof > 0
        assert data[sof + 11] == yb  # Y component H/V nibbles
        assert data[sof + 14] == 0x11  # Cb stays 1x1


@pytest.mark.parametrize("samp", ["444", "422", "420"])
def test_progressive_equals_baseline(samp):
    """Same quantized coefficients -> identical pixels: pins every
    scan type in the script (DC first Al=1, AC first Al=2/1, AC
    refinement with EOB runs + correction bits, DC refinement)."""
    for shape in [(64, 64), (37, 53), (8, 8), (96, 128)]:
        px = _photo(*shape, seed=7)
        base = C.decode_jpeg(C.encode_jpeg(px, 92, sampling=samp))
        prog = C.decode_jpeg(P.encode_progressive(px, 92, sampling=samp))
        assert np.array_equal(base, prog), (samp, shape)


def test_progressive_gray_and_flat_blocks():
    g = _photo(40, 40)[..., 0]
    assert np.array_equal(
        C.decode_jpeg(C.encode_jpeg(g, 85)),
        C.decode_jpeg(P.encode_progressive(g, 85)),
    )
    # constant image: every AC scan is pure EOB runs
    flat = np.full((24, 24, 3), 77, dtype=np.uint8)
    assert np.array_equal(
        C.decode_jpeg(C.encode_jpeg(flat, 92)),
        C.decode_jpeg(P.encode_progressive(flat, 92)),
    )


def test_progressive_is_sof2_and_routed():
    px = _photo(24, 24)
    data = P.encode_progressive(px, 90)
    assert b"\xff\xc2" in data and b"\xff\xc0" not in data
    # the wide batch decoder routes SOF2 payloads to the scalar
    # progressive decoder and keeps baseline lanes on the wide machine
    dbase = C.encode_jpeg(px, 90)
    outs = W.decode_jpeg_batch([data, dbase, data])
    assert np.array_equal(outs[0], C.decode_jpeg(data))
    assert np.array_equal(outs[1], C.decode_jpeg(dbase))
    assert np.array_equal(outs[0], outs[2])


def test_wide_batch_mixed_sampling_bit_identical():
    """One wide pass over mixed 444/422/420/gray/restart payloads ==
    the scalar decoder per payload, bit for bit."""
    payloads, want = [], []
    for shape in [(64, 64), (37, 53), (33, 65)]:
        px = _photo(*shape, seed=11)
        for samp in ("444", "422", "420"):
            for ri in (0, 3):
                d = C.encode_jpeg(px, 92, restart_interval=ri, sampling=samp)
                payloads.append(d)
                want.append(C.decode_jpeg(d))
        dg = C.encode_jpeg(px[..., 0], 85)
        payloads.append(dg)
        want.append(C.decode_jpeg(dg))
    got = W.decode_jpeg_batch(payloads)
    for i in range(len(payloads)):
        assert np.array_equal(got[i], want[i]), i


@pytest.mark.parametrize("samp", ["444", "420"])
def test_transcode_lossless_and_wide_decodable(samp):
    """progressive -> baseline transcode keeps the EXACT quantized
    coefficients: decoded pixels identical through the scalar AND the
    wide batch decoder, and the output is SOF0 with restart markers."""
    px = _photo(61, 47, seed=31)
    prog = P.encode_progressive(px, 92, sampling=samp)
    tc = P.transcode_to_baseline(prog)
    assert b"\xff\xc0" in tc and b"\xff\xc2" not in tc[: tc.find(b"\xff\xda")]
    assert b"\xff\xdd" in tc  # restart structure for wide parallelism
    want = P.decode_progressive(prog)
    assert np.array_equal(want, C.decode_jpeg(tc))
    assert np.array_equal(want, W.decode_jpeg_batch([tc])[0])
    # gray + baseline passthrough
    g = px[..., 0]
    tg = P.transcode_to_baseline(P.encode_progressive(g, 85))
    assert np.array_equal(C.decode_jpeg(tg), P.decode_progressive(P.encode_progressive(g, 85)))
    base = C.encode_jpeg(px, 90)
    assert P.transcode_to_baseline(base) == base


def _with_segment(jpeg: bytes, marker: int, body: bytes) -> bytes:
    """`jpeg` with one extra marker segment right after SOI."""
    seg = bytes([0xFF, marker]) + (len(body) + 2).to_bytes(2, "big") + body
    return jpeg[:2] + seg + jpeg[2:]


def test_transcode_baseline_with_sof2_bytes_in_body_passes_through():
    """FF C2 inside an APPn or COM body is payload, not a frame header:
    a baseline JPEG carrying it is returned unchanged."""
    base = C.encode_jpeg(_photo(40, 24, seed=5), 90)
    for marker in (0xE1, 0xFE):  # APP1, COM
        tagged = _with_segment(base, marker, b"tag\xff\xc2\x00\x11end")
        assert P.transcode_to_baseline(tagged) == tagged


def test_transcode_progressive_with_sof0_bytes_in_com_is_transcoded():
    """FF C0 inside a COM body does not make a progressive JPEG look
    sequential: it is still transcoded, losslessly."""
    prog = _with_segment(
        P.encode_progressive(_photo(40, 24, seed=6), 90), 0xFE, b"x\xff\xc0y"
    )
    tc = P.transcode_to_baseline(prog)
    assert tc != prog
    assert np.array_equal(C.decode_jpeg(tc), P.decode_progressive(prog))


def test_transcode_batch_preserves_phash():
    """The normalization stage keeps every row's stored phash valid
    (losslessness is what makes transcode-on-ingest legitimate)."""
    import pyarrow as pa

    from geotools_ray.sources.images import image_rows
    from geotools_ray.stages.imaging import decode_features_batch, transcode_batch

    t = image_rows(range(0, 64), 42, 0)  # covers every JPEG_VARIANTS entry
    t2 = transcode_batch(t)
    # progressive rows were rewritten, others byte-identical
    rewritten = sum(
        a.as_py() != b.as_py() for a, b in zip(t["bytes"], t2["bytes"])
    )
    assert rewritten > 0
    out = decode_features_batch(t2)
    assert all(out["verify_ok"].to_pylist())
    # nothing progressive remains among jpeg rows (PNG payloads may
    # contain \xff\xc2 as compressed data — check SOF markers only)
    from geotools_ray.sources.jpegwide import _parse_cached

    for b in t2["bytes"]:
        raw = b.as_py()
        if raw[:2] == b"\xff\xd8":
            _parse_cached(raw)  # raises ProgressiveJpeg if still SOF2


def test_decode_stage_handles_subsampled_and_progressive():
    """The pipeline decode stage (decode_pixel_stacks consumers) must
    verify phash on 4:2:0 and progressive rows like any other."""
    import pyarrow as pa

    from geotools_ray.sources.images import perceptual_hash
    from geotools_ray.stages.imaging import decode_features_batch

    rows = []
    for i, (samp, prog) in enumerate(
        [("420", False), ("422", False), ("444", True), ("420", True)]
    ):
        px = _photo(48, 32, seed=20 + i)
        data = (
            P.encode_progressive(px, 92, sampling=samp)
            if prog
            else C.encode_jpeg(px, 92, sampling=samp)
        )
        decoded = C.decode_jpeg(data)
        rows.append(
            {
                "image_id": f"sub{i:03d}",
                "bytes": data,
                "w": 32,
                "h": 48,
                "fmt": "jpeg",
                "caption": "x",
                "phash": int(perceptual_hash(decoded)),
            }
        )
    t = pa.Table.from_pylist(rows)
    out = decode_features_batch(t)
    assert out["verify_ok"].to_pylist() == [True] * len(rows)


def test_truncated_progressive_raises():
    """A progressive stream cut mid-scan must fail loudly (the refill
    fabricates pad bytes, the consumed-bits window check rejects)."""
    px = _photo(48, 48, seed=9)
    data = P.encode_progressive(px, 92)
    # cut inside the LAST scan's entropy span (well past its start)
    cut = data[: int(len(data) * 0.9)]
    with pytest.raises(ValueError):
        P.decode_progressive(cut)
    # and a corrupted byte inside a scan span flips coefficients or
    # dies loudly — it must never return the ORIGINAL pixels
    bad = bytearray(data)
    bad[len(bad) // 2] ^= 0x55
    try:
        out = P.decode_progressive(bytes(bad))
        assert not np.array_equal(out, P.decode_progressive(data))
    except (ValueError, NotImplementedError, IndexError):
        pass
