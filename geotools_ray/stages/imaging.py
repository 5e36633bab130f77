"""Image-side stages: footprint/cell encoding and decode/verify.

Decode shapes (M11/ST7):

- `decode_features_batch` — a STATELESS batch fn. Ray fuses it into
  the read task, so the wide `bytes` column never crosses the object
  store: read -> decode -> drop pixels happens inside one task. This
  is the default for codec-style decodes whose setup cost is nil.
- `DecodeStage` — the actor-pool form of the same work, for stages
  whose per-actor setup is expensive (model weights, GPU context).
  Size `concurrency` WELL BELOW the CPU count: a pool reserving every
  CPU starves the read stage and the pipeline serializes (measured:
  concurrency=30 of 32 cpus was 2.3x slower than 24).

Per-row invariant (input_hint): the decoded pixels' perceptual hash
must equal the stored `phash` column — `verify_ok` carries the check.
PSNR-vs-source (>= 40 dB for lossy) is asserted against the generator
in tests, where the source pixels exist.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import cellindex as ci
from ..sources import codecs
from ..sources import images as I


def footprint_cells_batch(t: pa.Table, level: int, seed: int = 42) -> pa.Table:
    """Derive (lon, lat) footprints from image_id and append the int64
    cell id at `level` — the tile-assignment core, all vectorized."""
    lon, lat = I.footprint_lonlat(t["image_id"], seed=seed)
    cell = ci.encode(lon, lat, level)
    return (
        t.append_column("lon", pa.array(lon))
        .append_column("lat", pa.array(lat))
        .append_column("cell_id", pa.array(cell))
    )


def _binary_views(col):
    """Zero-copy memoryview per value of a (chunked) binary column —
    avoids to_pylist()'s full copy of every compressed payload."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    for chunk in chunks:
        bufs = chunk.buffers()
        width = 8 if pa.types.is_large_binary(chunk.type) else 4
        offs = np.frombuffer(
            bufs[1], dtype=np.int64 if width == 8 else np.int32,
            count=len(chunk) + 1, offset=chunk.offset * width,
        )
        data = memoryview(bufs[2])
        for j in range(len(chunk)):
            yield data[offs[j] : offs[j + 1]]


def decode_pixel_stacks(t: pa.Table):
    """Decode every payload in the batch into same-size RGB stacks:
    -> ({(tag, h, w, ctype): (row_idx, (n, h, w, 3) uint8 stack)},
        [(row_idx, (h, w, 3) uint8)] singles for foreign codecs).

    Per-image zlib decompress is irreducible; ALL pixel math runs
    batched per (h, w, fmt) size-group so python touches each image
    once, numpy does the rest over (group, h, w, 3) stacks. Real
    JPEGs decode through ONE wide entropy pass (sources/jpegwide.py).
    Shared by decode_features_batch (the flagship decode+verify) and
    ResizeStage (thumbnailing)."""
    import zlib

    from ..sources import jpegwide as jw

    groups: dict[tuple, list] = {}
    slow: list[tuple[int, bytes]] = []
    jpg_idx: list[int] = []
    jpg_pay: list = []
    for i, d in enumerate(_binary_views(t["bytes"])):
        tag = bytes(d[:4])
        if tag == b"\x89PNG":
            # real PNG (codecs.encode_png layout): w/h big-endian in
            # IHDR; payload is the concatenated IDAT zlib stream.
            # color type (IHDR byte 9) keys the group so gray (0) and
            # RGB (2) batches reshape with the right channel count.
            w = int.from_bytes(d[16:20], "big")
            h = int.from_bytes(d[20:24], "big")
            ctype = d[25]
            groups.setdefault((tag, h, w, ctype), []).append(
                (i, zlib.decompress(codecs.png_idat(d)))
            )
        elif tag[:2] == b"\xff\xd8":
            # real baseline JPEG: ALL payloads in the batch decode
            # through ONE wide entropy pass (sources/jpegwide.py,
            # bit-identical to the scalar T.81 decoder), then join the
            # per-(h, w) feature groups below as pixel stacks
            jpg_idx.append(i)
            jpg_pay.append(d)
        else:
            # foreign codec: per-image magic-byte dispatch below —
            # decode_image raises NotImplementedError for genuinely
            # unknown tags instead of an opaque zlib.error from a
            # wrongly-assumed frame layout
            slow.append((i, bytes(d)))
    px_groups: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    if jpg_idx:
        decoded = jw.decode_jpeg_batch(jpg_pay)
        jgroups: dict[tuple, list[int]] = {}
        for j, px in enumerate(decoded):
            jgroups.setdefault(px.shape, []).append(j)
        for shape, members in jgroups.items():
            idx = np.array([jpg_idx[j] for j in members])
            px = np.stack([decoded[j] for j in members])
            if px.ndim == 3:  # grayscale JPEG: replicate for RGB path
                px = np.repeat(px[..., None], 3, axis=3)
            px_groups[("jpeg",) + shape] = (idx, px)
    for (tag, h, w, ctype), items in groups.items():
        idx = np.array([i for i, _ in items])
        raw = np.frombuffer(b"".join(r for _, r in items), dtype=np.uint8)
        nch = 3 if ctype == 2 else 1
        # (n, h, 1 + nch*w) filter-byte-prefixed rows; our encoder
        # writes filter 0 everywhere -> strip the filter column.
        # Foreign files with other filters take the per-image path.
        rows = raw.reshape(len(items), h, 1 + nch * w)
        if np.any(rows[:, :, 0]):
            px = np.stack(
                [
                    codecs._png_unfilter(r, h, nch * w, nch).reshape(h, w, nch)
                    for r in rows
                ]
            )
        else:
            px = np.ascontiguousarray(rows[:, :, 1:]).reshape(
                len(items), h, w, nch
            )
        if nch == 1:  # grayscale: replicate to the RGB feature path
            px = np.repeat(px, 3, axis=3)
        px_groups[(tag, h, w, ctype)] = (idx, px)
    singles = []
    for i, payload in slow:
        # foreign formats: per-image magic-byte decode (real JPEG runs
        # the T.81 decoder)
        px1 = I.decode_image(payload)
        if px1.ndim == 2:
            px1 = np.repeat(px1[:, :, None], 3, axis=2)
        singles.append((i, px1))
    return px_groups, singles


def phash_stack(px: np.ndarray) -> np.ndarray:
    """Batched perceptual hash over a same-size stack — identical
    arithmetic to sources.images.perceptual_hash per image (float64
    gray, 8x8 block means): uint16 channel add is exact (<= 765) and
    / 3.0 is the same single float64 rounding as mean(axis=3)."""
    n, h, w = px.shape[:3]
    gray = (px[..., 0].astype(np.uint16) + px[..., 1] + px[..., 2]) / 3.0
    if h % 8 == 0 and w % 8 == 0:
        small = gray.reshape(n, 8, h // 8, 8, w // 8).mean(axis=(2, 4))
    else:
        # foreign sizes (not multiples of 8): per-image block means
        # in EXACTLY perceptual_hash's fallback order (same np.mean
        # reduction per block — bit-identical, so verify_ok stays
        # true for a correctly-stored phash)
        ys = (np.arange(9) * h) // 8
        xs = (np.arange(9) * w) // 8
        small = np.empty((n, 8, 8))
        for ii in range(n):
            for bi in range(8):
                for bj in range(8):
                    small[ii, bi, bj] = gray[
                        ii, ys[bi] : ys[bi + 1], xs[bj] : xs[bj + 1]
                    ].mean()
    bits = small > small.mean(axis=(1, 2))[:, None, None]
    packed = (
        bits.reshape(n, 64).astype(np.uint64)
        << np.arange(64, dtype=np.uint64)[None, :]
    ).sum(axis=1, dtype=np.uint64)
    return packed.astype(np.int64)  # same two's-complement map


def decode_features_batch(t: pa.Table) -> pa.Table:
    """decode -> verify (phash recompute == stored phash) -> featurize
    (mean RGB + 4x4 thumbnail brightness) -> DROP pixel bytes.

    Per-image decode is inherently per-row (variable-size payloads);
    the batch amortizes dispatch and numpy does all pixel math (see
    decode_pixel_stacks)."""
    stored_ph = t["phash"].to_numpy(zero_copy_only=False)
    n = len(t)
    mean_rgb = np.empty((n, 3))
    phash = np.empty(n, dtype=np.int64)
    px_groups, singles = decode_pixel_stacks(t)
    for (_, h, w, *_), (idx, px) in px_groups.items():
        # int64 channel sums / count == float64 mean bit-for-bit
        # (integer-valued float64 partial sums are exact below 2^53);
        # contiguous per-channel slice sums are ~7x faster than the
        # strided (n, hw, 3) axis-1 reduction
        mean_rgb[idx] = np.stack(
            [px[..., c].sum(axis=(1, 2), dtype=np.int64) for c in range(3)], axis=1
        ) / (h * w)
        phash[idx] = phash_stack(px)
    for i, px1 in singles:
        # foreign formats: identical feature arithmetic to the
        # batched path — exact int64 channel sums, perceptual_hash
        h1, w1 = px1.shape[:2]
        mean_rgb[i] = [
            px1[..., c].sum(dtype=np.int64) / (h1 * w1) for c in range(3)
        ]
        phash[i] = I.perceptual_hash(px1)
    ok = phash == stored_ph
    out = t.drop_columns(["bytes"])
    out = (
        out.append_column("mean_r", pa.array(mean_rgb[:, 0]))
        .append_column("mean_g", pa.array(mean_rgb[:, 1]))
        .append_column("mean_b", pa.array(mean_rgb[:, 2]))
        .append_column("verify_ok", pa.array(ok))
    )
    return out


class DecodeStage:
    """Actor-pool wrapper around decode_features_batch (see module
    docstring for when to prefer it over the fused stateless fn).
    The verify gate is phash equality (verify_ok); PSNR-vs-source is a
    test-side invariant (the source pixels only exist there)."""

    def __init__(self):
        self._fn = decode_features_batch  # codec table bound once per actor

    def __call__(self, t: pa.Table) -> pa.Table:
        return self._fn(t)


def codec_roundtrip_batch(t: pa.Table) -> pa.Table:
    """REAL-codec interchange check: decode each stored image, re-encode
    with the spec-compliant PNG and baseline-JPEG codecs
    (sources/codecs.py), decode again, and report bytes + fidelity.
    Emits two rows per image (fmt "png" lossless, fmt "jpeg" q98 with
    the input_hint's PSNR >= 40 dB invariant asserted)."""
    ids, fmts, nbytes, psnr_db, lossless = [], [], [], [], []
    for i, d in enumerate(_binary_views(t["bytes"])):
        px = I.decode_image(bytes(d))
        image_id = t["image_id"][i].as_py()
        pb = codecs.encode_png(px)
        # explicit raise, not assert: the interchange invariants must
        # survive python -O
        if not np.array_equal(codecs.decode_png(pb), px):
            raise ValueError(f"PNG round-trip not lossless for {image_id}")
        ids.append(image_id)
        fmts.append("png")
        nbytes.append(len(pb))
        psnr_db.append(float("inf"))
        lossless.append(True)
        jb = codecs.encode_jpeg(px, quality=98)
        p = codecs.psnr(px, codecs.decode_jpeg(jb))
        if p < 40.0:
            raise ValueError(f"PSNR {p:.2f} < 40 dB for {image_id}")
        ids.append(image_id)
        fmts.append("jpeg")
        nbytes.append(len(jb))
        psnr_db.append(round(p, 2))
        lossless.append(False)
    return pa.table(
        {
            "image_id": pa.array(ids),
            "fmt": pa.array(fmts),
            "nbytes": pa.array(nbytes, pa.int64()),
            "psnr_db": pa.array(psnr_db, pa.float64()),
            "lossless": pa.array(lossless),
        }
    )


def transcode_batch(t: pa.Table) -> pa.Table:
    """Corpus normalization (jpegtran-style): progressive JPEG rows
    losslessly re-enter baseline entropy coding (same quantized
    coefficients, original quant tables — decoded pixels IDENTICAL,
    phash column stays valid), so every downstream pass decodes on
    the wide SIMD batch path instead of the scalar Annex G fallback.
    Baseline JPEG / PNG / other rows pass through untouched. A 100 TB
    ingest runs this once; it is STATELESS, so Ray fuses it into the
    read tasks."""
    from ..sources.jpegprog import transcode_to_baseline

    out: list[bytes] = []
    for d in _binary_views(t["bytes"]):
        b = bytes(d)
        out.append(transcode_to_baseline(b) if b[:2] == b"\xff\xd8" else b)
    idx = t.schema.get_field_index("bytes")
    return t.set_column(idx, "bytes", pa.array(out, type=t.schema.field(idx).type))


def resize_bilinear_stack(px: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Vectorized bilinear resize of a same-size stack: (n, h, w, c)
    uint8 -> (n, out_h, out_w, c) uint8, half-pixel-center convention
    (src = (dst + 0.5) * scale - 0.5, edge-clamped — what
    OpenCV/PIL/TF resize with align_corners=False compute). At equal
    size the sample points are exactly the integer centers, so the
    resize is the identity (pytest-pinned)."""
    n, h, w, c = px.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0f = np.floor(ys)
    x0f = np.floor(xs)
    fy = (ys - y0f)[None, :, None, None]  # broadcast over (n, H, W, c)
    fx = (xs - x0f)[None, None, :, None]
    y0 = np.clip(y0f.astype(np.int64), 0, h - 1)
    y1 = np.clip(y0f.astype(np.int64) + 1, 0, h - 1)
    x0 = np.clip(x0f.astype(np.int64), 0, w - 1)
    x1 = np.clip(x0f.astype(np.int64) + 1, 0, w - 1)
    # gather rows once per y-index set, then columns: two fancy
    # gathers instead of four full (n, H, W, c) corner tensors
    r0 = px[:, y0].astype(np.float64)  # (n, H, w, c)
    r1 = px[:, y1].astype(np.float64)
    top = r0[:, :, x0] * (1.0 - fx) + r0[:, :, x1] * fx
    bot = r1[:, :, x0] * (1.0 - fx) + r1[:, :, x1] * fx
    out = top * (1.0 - fy) + bot * fy
    return np.rint(out).clip(0, 255).astype(np.uint8)


class ResizeStage:
    """Actor-pool thumbnail stage (the prompt's multimodal 'resize'):
    decode (wide JPEG pass + batched PNG unfilter via
    decode_pixel_stacks) -> bilinear resize to (out_h, out_w) ->
    re-encode -> emit a VALID image table (input_hint schema, phash
    recomputed on the resized pixels), so the output composes with
    every image consumer (flagship, wds shards, dedup).

    fmt="jpeg" re-encodes whole size-groups through the wide
    vectorized encoder (sources/jpegwide.encode_jpeg_stack);
    fmt="png" is lossless (per-image zlib deflate, C-speed).
    Use as images.map_batches(ResizeStage, fn_constructor_kwargs=...,
    concurrency=N, batch_size=B) — codec tables bind once per actor."""

    def __init__(self, out_w: int = 64, out_h: int = 64, fmt: str = "png"):
        if fmt not in ("png", "jpeg"):
            raise ValueError(f"ResizeStage: unsupported output fmt {fmt!r}")
        self.out_w, self.out_h, self.fmt = out_w, out_h, fmt
        from ..sources import jpegwide as jw

        self._encode_stack = jw.encode_jpeg_stack

    def __call__(self, t: pa.Table) -> pa.Table:
        n = len(t)
        out_bytes: list = [None] * n
        phash = np.zeros(n, dtype=np.int64)
        px_groups, singles = decode_pixel_stacks(t)
        stacks = [(idx, px) for (idx, px) in px_groups.values()]
        stacks.extend((np.array([i]), px1[None]) for i, px1 in singles)
        for idx, px in stacks:
            r = resize_bilinear_stack(px, self.out_h, self.out_w)
            if self.fmt == "jpeg":
                payloads = self._encode_stack(
                    r, quality=I.JPEG_QUALITY, restart_interval=I.JPEG_RESTART
                )
                # the table convention (make_image_row): phash is the
                # hash of the pixels a READER decodes — for lossy jpeg
                # that is the decoded payload, not the pre-encode pixels
                from ..sources import jpegwide as jw

                hash_px = jw.decode_jpeg_batch(payloads)
            else:
                payloads = [codecs.encode_png(r[j]) for j in range(len(idx))]
                hash_px = r  # png is lossless
            hp = np.stack([np.asarray(p) for p in hash_px])
            if hp.ndim == 3:  # grayscale decode: replicate like the readers do
                hp = np.repeat(hp[..., None], 3, axis=3)
            phash[idx] = phash_stack(hp)
            for j, i in enumerate(idx):
                out_bytes[i] = payloads[j]
        cols = {
            "image_id": t["image_id"],
            "bytes": pa.array(out_bytes, type=pa.binary()),
            "w": pa.array(np.full(n, self.out_w, dtype=np.int32)),
            "h": pa.array(np.full(n, self.out_h, dtype=np.int32)),
            "fmt": pa.array([self.fmt] * n, type=pa.string()),
        }
        if "caption" in t.schema.names:
            cols["caption"] = t["caption"]
        cols["phash"] = pa.array(phash)
        return pa.table(cols)
