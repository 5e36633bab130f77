"""Deterministic image+caption table generator (FIXTURES.md F1) and
the image codec seam.

Schema (BASELINE.json input_hint, exact):
  (image_id:string, bytes:binary, w:int32, h:int32, fmt:string,
   caption:string, phash:int64)

Codecs (see sources/codecs.py for the real implementations):
  - "png":  REAL spec-compliant PNG (RFC 2083, 8-bit RGB, filter-0
            rows, CRC'd chunks) — LOSSLESS, readable by any PNG tool.
            This is what the 2M-row flagship table stores for its png
            rows; decode stays batched (zlib + filter-byte strip).
  - "jpeg": REAL baseline JPEG (ITU-T T.81, JFIF, 4:4:4, standard
            Annex K tables) at JPEG_QUALITY with restart markers every
            JPEG_RESTART MCUs. Restart segments are independently
            decodable, which is what lets the bulk 2M-row table decode
            through the wide SIMD-across-segments codec
            (sources/jpegwide.py) instead of the ~35 ms/image scalar
            entropy loop; encode_jpeg_stack gives the same speedup on
            generation. The input_hint's PSNR >= 40 dB invariant holds
            at q92 on the generator's photo-like content (min ~43 dB,
            pytest-pinned) and at q>=98 even on uniform noise
            (img_codecs / tests/test_codecs.py).

Pixel content is photo-like (synth_pixels): a bilinear low-frequency
field with one control point every FIELD_STEP pixels plus mild sensor
noise. Real corpora are photographs, not white noise — uniform-noise
payloads made lossy-codec cost ~10x the realistic case and could not
hold 40 dB below q98.

decode_image dispatches on magic bytes: real PNG or real JPEG; any
other payload raises NotImplementedError naming its tag. Everything
Ray-side (schema, batch sizing, actor signatures, PSNR gate) is
format-agnostic.

Geometry is DERIVED, not stored (SURVEY.md §7.2): a seeded RNG keyed
by image_id yields the footprint centroid (lon, lat); extent comes
from (w, h) at a fixed ground resolution. This mirrors how the
reference derives raster cells from point x/y
(/root/reference/src/lasgrid.cpp:303-314).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels.text import stable_hash64
from . import codecs

SIZES = (16, 32, 64)
FMTS = ("png", "jpeg")
GROUND_RES = 1e-4  # degrees per pixel for footprint extent
JPEG_QUALITY = 92  # min PSNR ~43 dB on synth_pixels content (gate: 40)
JPEG_RESTART = 8  # MCUs per restart segment (wide-decode parallelism)
# Per-row JPEG layout, cycled over jpeg rows — the realistic
# web-corpus mix (scraped corpora are mostly 4:2:0 baseline with a
# progressive slice): 9/16 4:2:0, 4/16 4:4:4, 2/16 4:2:2, 1/16
# progressive 4:2:0. Subsampled rows hold luma PSNR >= 40 dB (chroma
# is genuinely band-limited by the layout itself — full-RGB gate 33,
# see tests/test_images.py).
JPEG_VARIANTS = (
    "420", "444", "420", "422", "420", "444", "420", "420",
    "420", "444", "420", "422", "420", "444", "420", "prog",
)
FIELD_STEP = 16  # control-point spacing of the low-frequency field
NOISE_SIGMA = 1.0  # sensor-noise sigma added to the field

_NOUNS = ["tree", "river", "mountain", "house", "car", "bridge", "field", "lake"]
_PLACES = ["oslo", "quito", "lagos", "perth", "lima", "kyoto", "reno", "turin"]


# ---------------------------------------------------------------------------
# codecs (real spec implementations in sources/codecs.py)

def jpeg_variant(src: int) -> str:
    """Layout variant of a jpeg row, keyed by the SOURCE index (dup
    rows inherit the root's variant so duplicates stay byte-exact)."""
    return JPEG_VARIANTS[(src // len(FMTS)) % len(JPEG_VARIANTS)]


def dup_root(i: int, dup_every: int) -> int | None:
    """Source row a dup row copies, dereferenced to the chain ROOT:
    every dup_every-th row duplicates the row dup_every earlier, and
    when that row is itself a dup the copy follows through to the
    first real row — so img000...099's pixels reappear at 199, 299,
    399, ... (a realistic meme-style growing duplicate cluster; the
    pre-round-5 fixture left 299+ as orphans that duplicated
    nothing)."""
    if not dup_every or i % dup_every != dup_every - 1 or i < dup_every:
        return None
    j = i - dup_every
    while j % dup_every == dup_every - 1 and j >= dup_every:
        j -= dup_every
    return j


def encode_image(pixels: np.ndarray, fmt: str, variant: str | None = None) -> bytes:
    """pixels: (h, w, 3) uint8 -> bytes (see module docstring for the
    per-format story). `variant` picks the jpeg layout (444/422/420/
    prog); None keeps the legacy 4:4:4 bytes."""
    if fmt == "png":
        return codecs.encode_png(pixels)
    if fmt == "jpeg":
        v = variant or "444"
        if v == "prog":
            from . import jpegprog

            return jpegprog.encode_progressive(
                pixels, quality=JPEG_QUALITY, sampling="420"
            )
        return codecs.encode_jpeg(
            pixels, quality=JPEG_QUALITY, restart_interval=JPEG_RESTART, sampling=v
        )
    if fmt == "jpeg_real":  # legacy alias from the stand-in era
        return codecs.encode_jpeg(pixels, quality=98)
    raise NotImplementedError(f"codec {fmt!r} not available in this container")


def decode_image(data: bytes) -> np.ndarray:
    """Magic-byte dispatch: real PNG / real JPEG."""
    if data[:8] == codecs._PNG_SIG:
        return codecs.decode_png(data)
    if data[:2] == b"\xff\xd8":
        return codecs.decode_jpeg(data)
    raise NotImplementedError(f"unknown codec tag {data[:4]!r}")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0**2 / mse))


def perceptual_hash(pixels: np.ndarray) -> int:
    """64-bit average-hash of the grayscale image downsampled to 8x8 —
    deterministic, duplicate images share a phash. Accepts (h, w, 3)
    RGB or (h, w) grayscale (decode_png returns 2-D for color-type-0
    PNGs)."""
    gray = (
        pixels.astype(np.float64).mean(axis=2)
        if pixels.ndim == 3
        else pixels.astype(np.float64)
    )
    h, w = gray.shape
    if h % 8 == 0 and w % 8 == 0:
        # fast path: block means via reshape (all generator sizes are
        # multiples of 8)
        small = gray.reshape(8, h // 8, 8, w // 8).mean(axis=(1, 3))
    else:
        ys = (np.arange(8 + 1) * h) // 8
        xs = (np.arange(8 + 1) * w) // 8
        small = np.empty((8, 8))
        for i in range(8):
            for j in range(8):
                small[i, j] = gray[ys[i] : ys[i + 1], xs[j] : xs[j + 1]].mean()
    bits = (small > small.mean()).ravel()
    out = 0
    for i, b in enumerate(bits):
        if b:
            out |= 1 << i
    # map to signed int64 range
    return out - (1 << 64) if out >= (1 << 63) else out


# ---------------------------------------------------------------------------
# deterministic generation

def _rng_for(image_id: str, seed: int) -> np.random.RandomState:
    return np.random.RandomState((stable_hash64(image_id.encode(), seed) % (2**31)))


def synth_pixels(rng: np.random.RandomState, h: int, w: int) -> np.ndarray:
    """Photo-like deterministic content: a random bilinear control
    field with one control point every FIELD_STEP pixels (so spatial
    frequency — and therefore codec cost — is size-invariant) plus
    NOISE_SIGMA gaussian sensor noise. Draw order (ctrl, then noise)
    is part of the table contract."""
    gy, gx = h // FIELD_STEP + 2, w // FIELD_STEP + 2
    ctrl = rng.uniform(0, 255, (gy, gx, 3))
    yi = np.arange(h) / FIELD_STEP
    xi = np.arange(w) / FIELD_STEP
    y0 = np.floor(yi).astype(np.int64)
    x0 = np.floor(xi).astype(np.int64)
    fy = (yi - y0)[:, None, None]
    fx = (xi - x0)[None, :, None]
    c00 = ctrl[y0][:, x0]
    c01 = ctrl[y0][:, x0 + 1]
    c10 = ctrl[y0 + 1][:, x0]
    c11 = ctrl[y0 + 1][:, x0 + 1]
    img = (1 - fy) * ((1 - fx) * c00 + fx * c01) + fy * ((1 - fx) * c10 + fx * c11)
    img = img + rng.normal(0, NOISE_SIGMA, (h, w, 3))
    return img.clip(0, 255).astype(np.uint8)


def _row_meta(i: int, seed: int, dup_of: int | None):
    """(image_id, w, h, fmt, pixels, caption, variant) for one row —
    the pixel / size / layout draws shared by the scalar and batched
    generators."""
    src = i if dup_of is None else dup_of
    rng = _rng_for(f"img{src:012d}", seed)
    w = int(SIZES[rng.randint(len(SIZES))])
    h = int(SIZES[rng.randint(len(SIZES))])
    fmt = FMTS[src % len(FMTS)]
    variant = jpeg_variant(src) if fmt == "jpeg" else None
    pixels = synth_pixels(rng, h, w)
    caption = (
        f"a photo of {_NOUNS[src % len(_NOUNS)]} near "
        f"{_PLACES[(src // len(_NOUNS)) % len(_PLACES)]}"
    )
    return f"img{i:012d}", w, h, fmt, pixels, caption, variant


def make_image_row(i: int, seed: int = 42, dup_of: int | None = None) -> dict:
    """One deterministic row (the scalar oracle for image_rows).
    dup_of: generate identical pixels to row `dup_of` (the ~1%
    duplicate fixture for dedup) — pass dup_root(i, dup_every)."""
    image_id, w, h, fmt, pixels, caption, variant = _row_meta(i, seed, dup_of)
    data = encode_image(pixels, fmt, variant)
    ph = perceptual_hash(decode_image(data))
    return {
        "image_id": image_id,
        "bytes": data,
        "w": w,
        "h": h,
        "fmt": fmt,
        "caption": caption,
        "phash": ph,
    }


def footprint_lonlat(image_ids, seed: int = 42, bbox=(-20.0, -20.0, 20.0, 20.0)):
    """Derived footprint centroids, vectorized: uniform in bbox keyed by
    image_id hash (stable under any row order / partitioning).
    Accepts a list of str, numpy array, or pyarrow (Chunked)Array."""
    from ..kernels.text import stable_hash64_array

    minlon, minlat, maxlon, maxlat = bbox
    hashes = stable_hash64_array(image_ids, seed ^ 0x5EED)
    u = (hashes % np.uint64(2**32)).astype(np.float64) / 2**32
    v = ((hashes >> np.uint64(32)) % np.uint64(2**32)).astype(np.float64) / 2**32
    lon = minlon + u * (maxlon - minlon)
    lat = minlat + v * (maxlat - minlat)
    return lon, lat


def footprint_extent(w, h, res: float = GROUND_RES):
    """Footprint half-extent (degrees) from image pixel dims."""
    return np.asarray(w) * res / 2.0, np.asarray(h) * res / 2.0


IMAGE_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)


def image_rows(ids, seed: int, dup_every: int) -> pa.Table:
    """Rows for arbitrary global indices of the deterministic table —
    the ONE place the duplicate-fixture rule lives (every dup_every-th
    row is a pixel-exact duplicate of the row dup_every earlier). Row
    content depends only on the global index, so generation
    parallelizes under any partitioning.

    Batched: 4:4:4 JPEG rows group by (h, w) through the wide stack
    encoder; 4:2:0/4:2:2/progressive rows encode through the scalar
    subsampled / Annex G encoders (byte-identical to make_image_row,
    pytest-pinned); phash for every lossy row comes from ONE wide
    batch decode. PNG is lossless, so its phash comes straight from
    the source pixels."""
    from . import jpegwide as jw

    metas = []
    for i in ids:
        i = int(i)
        metas.append(_row_meta(i, seed, dup_root(i, dup_every)))

    n = len(metas)
    data: list = [None] * n
    ph: list = [0] * n
    jpeg_groups: dict[tuple, list[int]] = {}
    for j, (_, w, h, fmt, px, _, var) in enumerate(metas):
        if fmt == "jpeg":
            jpeg_groups.setdefault((h, w, var), []).append(j)
        else:
            data[j] = codecs.encode_png(px)
            ph[j] = perceptual_hash(px)  # lossless: decode == source
    jpg_j: list[int] = []
    jpg_pay: list[bytes] = []
    for (h, w, var), members in jpeg_groups.items():
        if var == "444":
            stack = np.stack([metas[j][4] for j in members])
            payloads = jw.encode_jpeg_stack(
                stack, quality=JPEG_QUALITY, restart_interval=JPEG_RESTART
            )
        elif var == "prog":
            from . import jpegprog

            payloads = [
                jpegprog.encode_progressive(
                    metas[j][4], quality=JPEG_QUALITY, sampling="420"
                )
                for j in members
            ]
        else:
            payloads = [
                codecs.encode_jpeg(
                    metas[j][4], quality=JPEG_QUALITY,
                    restart_interval=JPEG_RESTART, sampling=var,
                )
                for j in members
            ]
        jpg_j.extend(members)
        jpg_pay.extend(payloads)
    if jpg_j:
        decoded = jw.decode_jpeg_batch(jpg_pay)
        for j, payload, px in zip(jpg_j, jpg_pay, decoded):
            data[j] = payload
            ph[j] = perceptual_hash(px)

    return pa.table(
        {
            "image_id": pa.array([m[0] for m in metas], pa.string()),
            "bytes": pa.array(data, pa.binary()),
            "w": pa.array([m[1] for m in metas], pa.int32()),
            "h": pa.array([m[2] for m in metas], pa.int32()),
            "fmt": pa.array([m[3] for m in metas], pa.string()),
            "caption": pa.array([m[5] for m in metas], pa.string()),
            "phash": pa.array(ph, pa.int64()),
        },
        schema=IMAGE_SCHEMA,
    )


def _chunk_table(start: int, stop: int, seed: int, dup_every: int) -> pa.Table:
    return image_rows(range(start, stop), seed, dup_every)


def generate_image_table(n: int, seed: int = 42, dup_frac: float = 0.01) -> pa.Table:
    """Deterministic n-row image table; every ~1/dup_frac-th row is a
    pixel-exact duplicate of an earlier row (dedup fixture)."""
    dup_every = int(1 / dup_frac) if dup_frac > 0 else 0
    return _chunk_table(0, n, seed, dup_every)


def write_image_table(
    path: str,
    n: int,
    seed: int = 42,
    rows_per_file: int = 50_000,
    dup_frac: float = 0.01,
):
    """Write the synthetic table as a directory of parquet files (or a
    Lance dataset when the lance package is available) — streamed in
    rows_per_file chunks on BOTH branches so the n-row table is never
    materialized whole."""
    import os

    import pyarrow.parquet as pq

    try:
        import lance
    except ImportError:
        lance = None

    os.makedirs(path, exist_ok=True)
    dup_every = int(1 / dup_frac) if dup_frac > 0 else 0
    for start in range(0, n, rows_per_file):
        stop = min(start + rows_per_file, n)
        t = _chunk_table(start, stop, seed, dup_every)
        if lance is not None:
            lance.write_dataset(
                t, path, mode="overwrite" if start == 0 else "append"
            )
        else:
            pq.write_table(t, os.path.join(path, f"part-{start:012d}.parquet"))
    return path
