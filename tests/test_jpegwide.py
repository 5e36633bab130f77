"""Wide (SIMD-across-lanes) JPEG codec vs the scalar T.81 oracle.

The scalar implementation in sources/codecs.py is spec-derived
(ITU-T T.81 baseline) and separately pinned by tests/test_codecs.py;
this file pins jpegwide's batched decoder/encoder BIT/BYTE-identical
to it across sizes, color/gray, restart intervals, and table mixes —
plus the validation contract (corrupt streams must raise, not
silently emit pixels).
"""

import numpy as np
import pytest

from geotools_ray.sources import codecs
from geotools_ray.sources import jpegprog
from geotools_ray.sources import jpegwide as jw


def _noise(rng, h, w, gray=False):
    shape = (h, w) if gray else (h, w, 3)
    return rng.randint(0, 256, size=shape).astype(np.uint8)


def _smooth(rng, h, w):
    base = np.linspace(0, 255, w)[None, :, None]
    px = base + rng.normal(0, 12, (h, w, 3))
    return px.clip(0, 255).astype(np.uint8)


def test_decode_batch_bit_identical_mixed():
    """Mixed sizes, gray+color, restart+no-restart, two quant tables —
    one batch, every output bit-identical to the scalar decoder."""
    rng = np.random.RandomState(11)
    payloads = []
    for i in range(14):
        h, w = int(rng.randint(8, 70)), int(rng.randint(8, 70))
        gray = i % 4 == 0
        px = _noise(rng, h, w, gray) if i % 2 else _smooth(rng, h, w)
        if gray and px.ndim == 3:
            px = px[..., 0]
        q = (85, 92, 98)[i % 3]
        ri = (0, 3, 8)[i % 3]
        payloads.append(codecs.encode_jpeg(px, quality=q, restart_interval=ri))
    wide = jw.decode_jpeg_batch(payloads)
    for p, got in zip(payloads, wide):
        assert np.array_equal(got, codecs.decode_jpeg(p))


def test_decode_batch_empty_and_single():
    assert jw.decode_jpeg_batch([]) == []
    rng = np.random.RandomState(3)
    p = codecs.encode_jpeg(_smooth(rng, 24, 40), quality=90)
    (got,) = jw.decode_jpeg_batch([p])
    assert np.array_equal(got, codecs.decode_jpeg(p))


def test_encode_stack_byte_identical():
    """Stack encode == scalar encode per image, color and gray, with
    and without restart markers."""
    rng = np.random.RandomState(5)
    for gray in (False, True):
        for ri in (0, 4):
            if gray:
                stack = np.stack([_noise(rng, 40, 56, True) for _ in range(6)])
            else:
                stack = np.stack([_smooth(rng, 40, 56) for _ in range(6)])
            wide = jw.encode_jpeg_stack(stack, quality=88, restart_interval=ri)
            for px, got in zip(stack, wide):
                assert got == codecs.encode_jpeg(px, quality=88, restart_interval=ri)


def test_encode_stack_nonmultiple_of_8():
    """Edge-padded partial blocks match the scalar encoder exactly."""
    rng = np.random.RandomState(9)
    stack = np.stack([_smooth(rng, 19, 27) for _ in range(4)])
    wide = jw.encode_jpeg_stack(stack, quality=92, restart_interval=2)
    for px, got in zip(stack, wide):
        assert got == codecs.encode_jpeg(px, quality=92, restart_interval=2)


def test_encode_stack_empty():
    assert jw.encode_jpeg_stack(np.zeros((0, 8, 8, 3), np.uint8), 90) == []


def test_scalar_restart_roundtrip_psnr():
    """The restart-interval encoder stays decodable by BOTH decoders
    and holds the lossy-fidelity gate on smooth content."""
    rng = np.random.RandomState(21)
    base = np.linspace(0, 255, 48)[None, :, None]
    px = (base + rng.normal(0, 1.5, (48, 48, 3))).clip(0, 255).astype(np.uint8)
    p = codecs.encode_jpeg(px, quality=92, restart_interval=8)
    out_s = codecs.decode_jpeg(p)
    (out_w,) = jw.decode_jpeg_batch([p])
    assert np.array_equal(out_s, out_w)
    mse = np.mean((out_s.astype(np.float64) - px) ** 2)
    assert 10 * np.log10(255.0**2 / mse) >= 40.0


def test_decode_rejects_truncated_stream():
    rng = np.random.RandomState(2)
    p = codecs.encode_jpeg(_noise(rng, 32, 32), quality=92, restart_interval=4)
    # chop entropy bytes out of the middle, keep the EOI marker
    bad = p[: len(p) - 40] + p[-2:]
    with pytest.raises(ValueError):
        jw.decode_jpeg_batch([bad])


def test_decode_rejects_wrong_segment_count():
    rng = np.random.RandomState(2)
    p = codecs.encode_jpeg(_noise(rng, 32, 32), quality=92, restart_interval=4)
    # strip one RST marker: segment count no longer matches DRI math
    i = p.find(b"\xff\xd0")
    assert i > 0
    bad = p[:i] + p[i + 2 :]
    with pytest.raises(ValueError):
        jw.decode_jpeg_batch([bad])


def test_decode_one_bad_image_names_it():
    """A corrupt stream rejects the batch with its position in the
    caller's batch — never silently corrupts its neighbours — also
    behind a progressive payload (routed off the wide path) and past
    the dequantize + IDCT chunk size."""
    rng = np.random.RandomState(7)
    good = codecs.encode_jpeg(_smooth(rng, 24, 24), quality=90)
    p = codecs.encode_jpeg(_noise(rng, 32, 32), quality=92)
    bad = p[:-30] + p[-2:]
    prog = jpegprog.encode_progressive(_smooth(rng, 16, 16), 90)
    for batch, at in (
        ([good, bad], 1),
        ([prog, good, bad], 2),
        ([good] * 1000 + [bad], 1000),
    ):
        with pytest.raises(ValueError, match=rf"batch images \[{at}\]"):
            jw.decode_jpeg_batch(batch)


def test_decode_batch_bit_identical_across_idct_chunks():
    """More than 2 x _IDCT_CHUNK payloads in one call: one entropy pass,
    then dequantize + IDCT + assembly per image chunk. Every output is
    bit-identical to the scalar decoder, through a first chunk of one
    table layout (the broadcast dequant) and mixed chunks of 4:4:4,
    4:2:2, 4:2:0 and gray, sizes, restart intervals and progressive
    rows, which shift the baseline chunk seams."""
    rng = np.random.RandomState(13)
    same, mixed = [], []
    for h, w in ((16, 16), (37, 53), (64, 32)):
        px = _smooth(rng, h, w)
        for ri in (0, 4):
            same.append(codecs.encode_jpeg(px, 92, restart_interval=ri, sampling="420"))
            for samp in ("444", "422"):
                mixed.append(codecs.encode_jpeg(px, 88, restart_interval=ri, sampling=samp))
        mixed.append(codecs.encode_jpeg(px[..., 0], 85, restart_interval=3))
        mixed.append(jpegprog.encode_progressive(px, 92, sampling="420"))
    distinct = same + mixed
    want = [codecs.decode_jpeg(d) for d in distinct]  # SOF2 -> Annex G
    ids = [i % len(same) for i in range(700)] + [
        len(same) + i % len(mixed) for i in range(500)
    ]
    assert len(ids) > 2 * jw._IDCT_CHUNK
    got = jw.decode_jpeg_batch([distinct[i] for i in ids])
    for k, i in enumerate(ids):
        assert np.array_equal(got[k], want[i]), k


def test_decode_features_batch_runs_one_entropy_pass(monkeypatch):
    """One decode_features_batch call over a 2,048-row v5 batch runs
    the wide entropy machine exactly once, over every baseline JPEG of
    the batch."""
    from geotools_ray.sources.images import image_rows
    from geotools_ray.stages.imaging import decode_features_batch

    t = image_rows(range(2048), 42, 0)
    baseline = sum(
        b[:2] == b"\xff\xd8" and jpegprog._frame_marker(b) != 0xC2
        for b in t["bytes"].to_pylist()
    )
    passes = []
    entropy_pass = jw._entropy_pass

    def counted(*args):
        passes.append(len(np.unique(args[-1])))  # images across the lanes
        return entropy_pass(*args)

    monkeypatch.setattr(jw, "_entropy_pass", counted)
    out = decode_features_batch(t)
    assert all(out["verify_ok"].to_pylist())
    assert passes == [baseline]


def test_decode_not_a_jpeg():
    with pytest.raises(ValueError):
        jw.decode_jpeg_batch([b"\x89PNG____not_a_jpeg"])
