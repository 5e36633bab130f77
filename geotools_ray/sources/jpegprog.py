"""Progressive (SOF2) JPEG codec — T.81 Annex G, from scratch.

Real scraped web corpora carry a large share of progressive JPEGs, so
the decode path cannot stop at baseline. This module implements:

  decode_progressive(data) -> uint8 pixels
      Full successive-approximation + spectral-selection decode:
      interleaved/non-interleaved DC scans (first + refinement), AC
      band scans with EOB runs (first + the G.1.2.3 correction-bit
      refinement walk), restart markers, any sampling-factor layout
      (4:4:4 / 4:2:2 / 4:2:0 / gray). Coefficients accumulate in
      zigzag order per component and finish through the same
      dequant + IDCT + replication-upsample assembly as the baseline
      decoder, so a progressive and a baseline encode of the same
      quantized coefficients decode to IDENTICAL pixels (pinned in
      tests/test_jpegprog.py).

  encode_progressive(pixels, quality, sampling) -> bytes
      A conforming progressive encoder with a libjpeg-style scan
      script (DC Al=1 -> AC bands at Al=2/1 -> DC refinement -> AC
      refinements to Al=0). It reuses the Annex K Huffman tables by
      flushing every EOB run at length 1 (EOB0 — the only EOBn symbol
      those tables define), trading a little compression for zero new
      table machinery. Its purpose is hermetic decoder verification
      (no external JPEGs exist in this sandbox) plus transcode tests.

The entropy decode here is scalar Python: progressive is the ROUTED
fallback for the minority of corpus rows, while baseline bulk decode
stays on the wide SIMD-across-lanes path (sources/jpegwide.py). The
marker grammar (0xFF00 stuffing, RSTn) is shared with codecs.py.
"""

from __future__ import annotations

import struct

import numpy as np

from .codecs import (
    _HT_AC_CHR,
    _HT_AC_LUM,
    _HT_DC_CHR,
    _HT_DC_LUM,
    _T,
    _ZZ,
    SAMPLING_HV,
    _huff_decode_table,
    _huff_encode_table,
    _quality_tables,
    _rgb_to_ycbcr,
    _stuff_ff,
    _ycbcr_to_rgb,
    entropy_segments,
)

# ---------------------------------------------------------------------------
# decode


class ProgMeta:
    """Parsed progressive stream: geometry + one entry per scan with
    its TABLES RESOLVED AT SCAN TIME (DHT may redefine between scans)
    and its raw entropy span sliced out — decode applies scans in
    file order over zigzag coefficient grids."""

    __slots__ = ("h", "w", "comps", "hvs", "qtabs", "geo", "scans", "nblk")


class _Scan:
    __slots__ = ("scomps", "ss", "se", "ah", "al", "dri", "span")


def parse_progressive(data: bytes) -> ProgMeta:
    if data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG")
    pos, n = 2, len(data)
    m = ProgMeta()
    m.qtabs = {}
    m.comps = []
    m.hvs = []
    m.geo = None
    m.scans = []
    m.h = m.w = 0
    htabs_raw: dict[tuple[int, int], tuple[list, list]] = {}
    dri = 0
    # one global marker scan for every scan span end (the per-scan
    # rescan-from-pos variant cost ~20% of decode on small files)
    arr = np.frombuffer(data, dtype=np.uint8)
    ff = np.flatnonzero(arr[:-1] == 0xFF)
    nxt = arr[ff + 1]
    real_markers = ff[(nxt != 0x00) & ((nxt < 0xD0) | (nxt > 0xD7)) & (nxt != 0xFF)]

    while pos < n:
        if data[pos] != 0xFF:
            raise ValueError(f"marker expected at {pos}")
        while pos + 1 < n and data[pos + 1] == 0xFF:
            pos += 1
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        (ln,) = struct.unpack(">H", data[pos : pos + 2])
        body = data[pos + 2 : pos + ln]
        if marker == 0xDB:
            bpos = 0
            while bpos < len(body):
                pq, tq = body[bpos] >> 4, body[bpos] & 15
                if pq != 0:
                    raise NotImplementedError("16-bit quant tables")
                zz = np.frombuffer(body[bpos + 1 : bpos + 65], dtype=np.uint8)
                qt = np.zeros(64, dtype=np.int32)
                qt[_ZZ] = zz
                m.qtabs[tq] = qt.reshape(8, 8)
                bpos += 65
        elif marker == 0xC2:  # SOF2
            prec, m.h, m.w, nc = struct.unpack(">BHHB", body[:6])
            if prec != 8:
                raise NotImplementedError("non-8-bit JPEG")
            for ci in range(nc):
                cid, samp, tq = body[6 + 3 * ci : 9 + 3 * ci]
                m.comps.append((cid, tq))
                m.hvs.append((samp >> 4, samp & 15))
            hmax = max(H for H, _ in m.hvs)
            vmax = max(V for _, V in m.hvs)
            mcux = -(-m.w // (8 * hmax))
            mcuy = -(-m.h // (8 * vmax))
            bpr = [mcux * H for H, _ in m.hvs]
            # non-interleaved scans cover only the REAL block grid of
            # the component (T.81 A.2.2), not the MCU-padded grid:
            # ceil(ceil(dim*f/fmax)/8) == ceil(dim*f/(fmax*8))
            bdim = [
                (-(-m.h * V // (vmax * 8)), -(-m.w * H // (hmax * 8)))
                for H, V in m.hvs
            ]
            m.geo = (mcux, mcuy, bpr, bdim, hmax, vmax)
            m.nblk = [mcux * H * mcuy * V for H, V in m.hvs]
        elif marker in (0xC0, 0xC1, 0xC3):
            raise ValueError("not a progressive JPEG (SOF%d)" % (marker - 0xC0))
        elif 0xC5 <= marker <= 0xCF and marker not in (0xC8, 0xCC):
            # SOF5-15: differential / arithmetic-coded / hierarchical
            # families — refuse loudly instead of skipping the frame
            # header and failing later with a confusing parse error
            raise NotImplementedError(
                "unsupported JPEG coding process (SOF%d)" % (marker - 0xC0)
            )
        elif marker == 0xC4:
            bpos = 0
            while bpos < len(body):
                tc, th = body[bpos] >> 4, body[bpos] & 15
                bits_ = list(body[bpos + 1 : bpos + 17])
                nv = sum(bits_)
                htabs_raw[(tc, th)] = (
                    bits_, list(body[bpos + 17 : bpos + 17 + nv])
                )
                bpos += 17 + nv
        elif marker == 0xDD:
            (dri,) = struct.unpack(">H", body[:2])
        elif marker == 0xDA:  # SOS: snapshot one scan
            if m.geo is None:
                raise ValueError("SOS before SOF2")
            ns = body[0]
            sc = _Scan()
            sc.scomps = []  # (comp idx, dc (bits, vals), ac (bits, vals))
            for si in range(ns):
                cid, tt = body[1 + 2 * si : 3 + 2 * si]
                idx = next(i for i, (c, _) in enumerate(m.comps) if c == cid)
                sc.scomps.append(
                    (idx, htabs_raw.get((0, tt >> 4)), htabs_raw.get((1, tt & 15)))
                )
            sc.ss, sc.se, a = body[1 + 2 * ns : 4 + 2 * ns]
            sc.ah, sc.al = a >> 4, a & 15
            sc.dri = dri
            pos += ln
            j = np.searchsorted(real_markers, pos)
            span_end = int(real_markers[j]) if j < len(real_markers) else n
            sc.span = data[pos:span_end]
            m.scans.append(sc)
            pos = span_end
            continue
        pos += ln
    if m.geo is None:
        raise ValueError("JPEG missing SOF2")
    return m


def decode_progressive_coefficients(data: bytes):
    """-> (ProgMeta, per-component (nblk, 64) int32 zigzag arrays) —
    the quantized coefficients after ALL scans, before dequant/IDCT."""
    m = parse_progressive(data)
    coefs = [[[0] * 64 for _ in range(nb)] for nb in m.nblk]
    for sc in m.scans:
        _decode_scan(
            sc.span, sc.scomps, sc.ss, sc.se, sc.ah, sc.al,
            coefs, m.geo, m.hvs, sc.dri,
        )
    return m, [np.array(c, dtype=np.int32) for c in coefs]


def decode_progressive(data: bytes) -> np.ndarray:
    m, arrays = decode_progressive_coefficients(data)
    from .codecs import _idct_assemble

    return _idct_assemble(
        arrays, m.qtabs, m.comps, m.hvs, m.h, m.w, m.geo[0], m.geo[1]
    )


def _frame_marker(data: bytes) -> int:
    """The first SOFn marker byte, found by walking the length-delimited
    marker segments as parse_progressive does, so an FF Cx byte pair
    inside an APPn/COM body is never taken for the frame header."""
    if data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG")
    pos, n = 2, len(data)
    while pos + 1 < n:
        if data[pos] != 0xFF:
            raise ValueError(f"marker expected at {pos}")
        while pos + 1 < n and data[pos + 1] == 0xFF:
            pos += 1
        marker = data[pos + 1]
        if 0xC0 <= marker <= 0xCF and marker not in (0xC4, 0xC8, 0xCC):
            return marker
        if marker in (0xD9, 0xDA) or pos + 4 > n:  # EOI / SOS first, or truncated
            break
        (ln,) = struct.unpack(">H", data[pos + 2 : pos + 4])
        pos += 2 + ln
    raise ValueError("no SOF marker")


def transcode_to_baseline(data: bytes, restart_interval: int = 8) -> bytes:
    """LOSSLESS progressive -> baseline transcode (jpegtran -copy
    none semantics): the decoded quantized coefficients re-enter a
    baseline interleaved entropy stream with the ORIGINAL quant
    tables, so the output decodes to pixels IDENTICAL to the
    progressive source — but through the wide SIMD batch decoder.
    This is the corpus-normalization operator a 100 TB ingest runs
    once so every downstream pass stays on the vectorized path.
    Baseline inputs pass through unchanged. restart_interval gives
    the output the restart structure the wide decoder parallelizes
    over (default 8, the bulk-table convention)."""
    # cheap dispatch: the frame header decides (SOF5-15 fall through to
    # parse_progressive, which refuses them)
    if _frame_marker(data) in (0xC0, 0xC1, 0xC3):
        return data  # already sequential
    m, arrays = decode_progressive_coefficients(data)
    from .codecs import _ZZ as _zz
    from .codecs import entropy_encode_interleaved

    mcux, mcuy, bpr, bdim, hmax, vmax = m.geo
    entropy = entropy_encode_interleaved(
        arrays, bpr, m.hvs, mcux, mcuy, restart_interval
    )
    # header: original quant tables + sampling, Annex K huffman (the
    # tables entropy_encode_interleaved used)
    from .codecs import _HT_AC_CHR, _HT_AC_LUM, _HT_DC_CHR, _HT_DC_LUM

    def seg(marker: int, body: bytes) -> bytes:
        return struct.pack(">HH", marker, len(body) + 2) + body

    out = bytearray(b"\xff\xd8")
    out += seg(0xFFE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    # one DQT per distinct table id actually referenced, in id order
    for tq in sorted({tq for _, tq in m.comps}):
        zzbytes = bytes(m.qtabs[tq].reshape(64)[_zz].astype(np.uint8))
        out += seg(0xFFDB, bytes([tq]) + zzbytes)
    if restart_interval:
        out += seg(0xFFDD, struct.pack(">H", restart_interval))
    ncomp = len(m.comps)
    sof = struct.pack(">BHHB", 8, m.h, m.w, ncomp)
    for ci, (cid, tq) in enumerate(m.comps):
        sof += bytes([cid, (m.hvs[ci][0] << 4) | m.hvs[ci][1], tq])
    out += seg(0xFFC0, sof)
    for cls, tid, (bits_, vals) in (
        (0, 0, _HT_DC_LUM), (1, 0, _HT_AC_LUM), (0, 1, _HT_DC_CHR), (1, 1, _HT_AC_CHR),
    ):
        if ncomp == 1 and tid == 1:
            continue
        out += seg(0xFFC4, bytes([(cls << 4) | tid]) + bytes(bits_) + bytes(vals))
    sos = bytes([ncomp])
    for ci, (cid, _tq) in enumerate(m.comps):
        t = 0 if ci == 0 else 1
        sos += bytes([cid, (t << 4) | t])
    sos += b"\x00\x3f\x00"
    out += seg(0xFFDA, sos)
    out += entropy
    out += b"\xff\xd9"
    return bytes(out)


def _decode_scan(span, scomps, ss, se, ah, al, coefs, geo, hvs, dri):
    mcux, mcuy, bpr, bdim, hmax, vmax = geo
    segments = entropy_segments(span)
    interleaved = len(scomps) > 1
    if interleaved:
        if ss != 0 or se != 0:
            raise ValueError("interleaved AC scan is not legal in progressive")
        units = mcux * mcuy
        pattern = [
            (idx, v, u)
            for idx, _dcbv, _acbv in scomps
            for v in range(hvs[idx][1])
            for u in range(hvs[idx][0])
        ]
    else:
        idx = scomps[0][0]
        bh, bw = bdim[idx]
        units = bh * bw
    per = dri if dri else units
    nseg_expected = max(1, -(-units // per))
    if len(segments) != nseg_expected:
        raise ValueError(
            f"JPEG restart segments: found {len(segments)}, expected {nseg_expected}"
        )
    # lazily: refinement DC scans read no Huffman table at all, and
    # encoders may leave the unused selector pointing at a table that
    # was never defined
    dc_lut = {
        idx: _huff_decode_table(*dcbv) if dcbv else None
        for idx, dcbv, _acbv in scomps
        if ss == 0
    }
    ac_lut = {
        idx: _huff_decode_table(*acbv) if acbv else None
        for idx, _dcbv, acbv in scomps
        if se > 0
    }
    # hot entropy loops with the bit reader INLINED in locals (a
    # method-call reader object measured ~25% slower on the corpus
    # mix); refill fabricates 0xFF pad bytes past the segment end and
    # the consumed-bits window check at segment close catches real
    # truncation
    p1 = 1 << al
    m1 = -1 << al
    u0 = 0
    for segarr in segments:
        d = segarr.tobytes()
        nd = len(d)
        acc = 0
        nacc = 0
        bp = 0
        pred = {idx: 0 for idx, _, _ in scomps}
        eobrun = 0
        hi = min(u0 + per, units)
        for unit in range(u0, hi):
            if interleaved:
                my, mx = divmod(unit, mcux)
                blks = [
                    (idx, coefs[idx][(my * hvs[idx][1] + v) * bpr[idx] + mx * hvs[idx][0] + u])
                    for idx, v, u in pattern
                ]
            else:
                idx = scomps[0][0]
                by, bx = divmod(unit, bdim[idx][1])
                blks = [(idx, coefs[idx][by * bpr[idx] + bx])]
            if ss == 0:
                for idx, blk in blks:
                    if ah == 0:  # DC first
                        sym_l, len_l = dc_lut[idx]
                        while nacc < 16:
                            acc = (acc << 8) | (d[bp] if bp < nd else 0xFF)
                            bp += 1
                            nacc += 8
                        window = (acc >> (nacc - 16)) & 0xFFFF
                        ln = len_l[window]
                        if ln == 0:
                            raise ValueError("invalid Huffman code")
                        nacc -= ln
                        acc &= (1 << nacc) - 1
                        t = sym_l[window]
                        if t:
                            while nacc < t:
                                acc = (acc << 8) | (d[bp] if bp < nd else 0xFF)
                                bp += 1
                                nacc += 8
                            nacc -= t
                            v = (acc >> nacc) & ((1 << t) - 1)
                            acc &= (1 << nacc) - 1
                            pred[idx] += (
                                v if v >= (1 << (t - 1)) else v - (1 << t) + 1
                            )
                        blk[0] = pred[idx] << al
                    else:  # DC refinement: one raw bit
                        if nacc < 1:
                            acc = (acc << 8) | (d[bp] if bp < nd else 0xFF)
                            bp += 1
                            nacc += 8
                        nacc -= 1
                        if (acc >> nacc) & 1:
                            blk[0] |= p1
                        acc &= (1 << nacc) - 1
                continue
            idx, blk = blks[0]
            if ah == 0:  # AC first (G.1.2.2)
                if eobrun > 0:
                    eobrun -= 1
                    continue
                sym_l, len_l = ac_lut[idx]
                k = ss
                while k <= se:
                    while nacc < 16:
                        acc = (acc << 8) | (d[bp] if bp < nd else 0xFF)
                        bp += 1
                        nacc += 8
                    window = (acc >> (nacc - 16)) & 0xFFFF
                    ln = len_l[window]
                    if ln == 0:
                        raise ValueError("invalid Huffman code")
                    nacc -= ln
                    acc &= (1 << nacc) - 1
                    rs = sym_l[window]
                    r = rs >> 4
                    s = rs & 15
                    if s == 0:
                        if r == 15:
                            k += 16
                            continue
                        eobrun = (1 << r) - 1
                        if r:
                            while nacc < r:
                                acc = (acc << 8) | (d[bp] if bp < nd else 0xFF)
                                bp += 1
                                nacc += 8
                            nacc -= r
                            eobrun += (acc >> nacc) & ((1 << r) - 1)
                            acc &= (1 << nacc) - 1
                        break
                    k += r
                    if k > se:
                        raise ValueError("AC band overrun")
                    while nacc < s:
                        acc = (acc << 8) | (d[bp] if bp < nd else 0xFF)
                        bp += 1
                        nacc += 8
                    nacc -= s
                    v = (acc >> nacc) & ((1 << s) - 1)
                    acc &= (1 << nacc) - 1
                    blk[k] = (
                        v if v >= (1 << (s - 1)) else v - (1 << s) + 1
                    ) << al
                    k += 1
            else:  # AC refinement (G.1.2.3 / jdphuff decode_mcu_AC_refine)
                k = ss
                if eobrun == 0:
                    sym_l, len_l = ac_lut[idx]
                    while k <= se:
                        while nacc < 16:
                            acc = (acc << 8) | (d[bp] if bp < nd else 0xFF)
                            bp += 1
                            nacc += 8
                        window = (acc >> (nacc - 16)) & 0xFFFF
                        ln = len_l[window]
                        if ln == 0:
                            raise ValueError("invalid Huffman code")
                        nacc -= ln
                        acc &= (1 << nacc) - 1
                        rs = sym_l[window]
                        r = rs >> 4
                        s = rs & 15
                        if s:
                            if nacc < 1:
                                acc = (acc << 8) | (d[bp] if bp < nd else 0xFF)
                                bp += 1
                                nacc += 8
                            nacc -= 1
                            s = p1 if (acc >> nacc) & 1 else m1
                            acc &= (1 << nacc) - 1
                        elif r != 15:
                            eobrun = 1 << r
                            if r:
                                while nacc < r:
                                    acc = (acc << 8) | (d[bp] if bp < nd else 0xFF)
                                    bp += 1
                                    nacc += 8
                                nacc -= r
                                eobrun += (acc >> nacc) & ((1 << r) - 1)
                                acc &= (1 << nacc) - 1
                            break
                        while k <= se:
                            cur = blk[k]
                            if cur != 0:
                                if nacc < 1:
                                    acc = (acc << 8) | (d[bp] if bp < nd else 0xFF)
                                    bp += 1
                                    nacc += 8
                                nacc -= 1
                                bit = (acc >> nacc) & 1
                                acc &= (1 << nacc) - 1
                                if bit and (cur & p1) == 0:
                                    blk[k] = cur + (p1 if cur >= 0 else m1)
                            else:
                                if r == 0:
                                    break
                                r -= 1
                            k += 1
                        if s:
                            if k > se:
                                raise ValueError("AC refine overrun")
                            blk[k] = s
                        k += 1
                if eobrun > 0:
                    while k <= se:
                        cur = blk[k]
                        if cur != 0:
                            if nacc < 1:
                                acc = (acc << 8) | (d[bp] if bp < nd else 0xFF)
                                bp += 1
                                nacc += 8
                            nacc -= 1
                            bit = (acc >> nacc) & 1
                            acc &= (1 << nacc) - 1
                            if bit and (cur & p1) == 0:
                                blk[k] = cur + (p1 if cur >= 0 else m1)
                        k += 1
                    eobrun -= 1
        # consumed-bits window check (the refill past nd fabricates
        # 0xFF pad; anything beyond the real stream is truncation)
        if 8 * bp - nacc > 8 * nd:
            raise ValueError("truncated JPEG entropy segment")
        u0 = hi


# ---------------------------------------------------------------------------
# encode


class _BitWriter:
    __slots__ = ("acc", "nbits", "buf")

    def __init__(self):
        self.acc = 0
        self.nbits = 0
        self.buf = bytearray()

    def put(self, code: int, ln: int):
        if ln == 0:
            return
        self.acc = (self.acc << ln) | code
        self.nbits += ln
        if self.nbits >= 512:
            keep = self.nbits & 7
            self.buf += (self.acc >> keep).to_bytes((self.nbits - keep) // 8, "big")
            self.acc &= (1 << keep) - 1
            self.nbits = keep

    def flush_segment(self) -> bytes:
        pad = (8 - (self.nbits & 7)) & 7
        self.acc = (self.acc << pad) | ((1 << pad) - 1)
        self.nbits += pad
        if self.nbits:
            self.buf += self.acc.to_bytes(self.nbits // 8, "big")
        out = _stuff_ff(self.buf)
        self.acc, self.nbits, self.buf = 0, 0, bytearray()
        return out


# libjpeg-style default scan script for 3 components; (comps, Ss, Se,
# Ah, Al). DC uses successive approximation Al=1, AC approximates
# 2 -> 1 -> 0 for luma and 1 -> 0 for chroma.
_SCRIPT_3 = [
    ((0, 1, 2), 0, 0, 0, 1),
    ((0,), 1, 5, 0, 2),
    ((2,), 1, 63, 0, 1),
    ((1,), 1, 63, 0, 1),
    ((0,), 6, 63, 0, 2),
    ((0,), 1, 63, 2, 1),
    ((0, 1, 2), 0, 0, 1, 0),
    ((2,), 1, 63, 1, 0),
    ((1,), 1, 63, 1, 0),
    ((0,), 1, 63, 1, 0),
]
_SCRIPT_1 = [
    ((0,), 0, 0, 0, 1),
    ((0,), 1, 63, 0, 2),
    ((0,), 1, 63, 2, 1),
    ((0,), 0, 0, 1, 0),
    ((0,), 1, 63, 1, 0),
]


def encode_progressive(
    pixels: np.ndarray, quality: int = 90, sampling: str = "444",
    restart_interval: int = 0,
) -> bytes:
    """uint8 pixels -> progressive (SOF2) JPEG with the scan script
    above. Quantized coefficients are IDENTICAL to encode_jpeg's at
    the same quality/sampling, so decode(progressive) must equal
    decode(baseline) bit-for-bit — the hermetic correctness pin.
    restart_interval > 0 emits DRI and an RSTn every that many scan
    units (MCUs interleaved, blocks otherwise) in EVERY scan."""
    gray = pixels.ndim == 2
    h, w = pixels.shape[:2]
    ql, qc = _quality_tables(quality)
    hv = (((1, 1),) if gray else SAMPLING_HV[sampling])[: 1 if gray else 3]
    hmax = max(H for H, _ in hv)
    vmax = max(V for _, V in hv)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    PH, PW = mcuy * 8 * vmax, mcux * 8 * hmax
    chans = (
        [pixels.astype(np.float64)]
        if gray
        else [
            _rgb_to_ycbcr(pixels)[..., ci] for ci in range(3)
        ]
    )
    qts = [ql] if gray else [ql, qc, qc]
    plane_zz: list[np.ndarray] = []
    bpr: list[int] = []
    for ci, (H, V) in enumerate(hv):
        pad = np.pad(chans[ci], ((0, PH - h), (0, PW - w)), mode="edge")
        fy, fx = vmax // V, hmax // H
        if fy > 1 or fx > 1:
            pad = pad.reshape(PH // fy, fy, PW // fx, fx).mean(axis=(1, 3))
        ph, pw = pad.shape
        blk = (
            (pad - 128.0)
            .reshape(ph // 8, 8, pw // 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(-1, 8, 8)
        )
        coef = np.matmul(np.matmul(_T, blk), _T.T)
        plane_zz.append(
            np.round(coef / qts[ci]).astype(np.int32).reshape(-1, 64)[:, _ZZ]
        )
        bpr.append(pw // 8)
    bdim = [(-(-h * V // (vmax * 8)), -(-w * H // (hmax * 8))) for H, V in hv]

    enc_dc = [_huff_encode_table(*_HT_DC_LUM), _huff_encode_table(*_HT_DC_CHR)]
    enc_ac = [_huff_encode_table(*_HT_AC_LUM), _huff_encode_table(*_HT_AC_CHR)]

    # header
    def seg(marker: int, body: bytes) -> bytes:
        return struct.pack(">HH", marker, len(body) + 2) + body

    out = bytearray(b"\xff\xd8")
    out += seg(0xFFE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    out += seg(0xFFDB, b"\x00" + bytes(ql.reshape(64)[_ZZ].astype(np.uint8)))
    if not gray:
        out += seg(0xFFDB, b"\x01" + bytes(qc.reshape(64)[_ZZ].astype(np.uint8)))
    if restart_interval:
        out += seg(0xFFDD, struct.pack(">H", restart_interval))
    ncomp = 1 if gray else 3
    sof = struct.pack(">BHHB", 8, h, w, ncomp)
    for ci in range(ncomp):
        sof += bytes([ci + 1, (hv[ci][0] << 4) | hv[ci][1], 0 if ci == 0 else 1])
    out += seg(0xFFC2, sof)  # SOF2 progressive
    for cls, tid, (bits_, vals) in (
        (0, 0, _HT_DC_LUM), (1, 0, _HT_AC_LUM), (0, 1, _HT_DC_CHR), (1, 1, _HT_AC_CHR),
    ):
        if gray and tid == 1:
            continue
        out += seg(0xFFC4, bytes([(cls << 4) | tid]) + bytes(bits_) + bytes(vals))

    script = _SCRIPT_1 if gray else _SCRIPT_3
    for members, ss, se, ah, al in script:
        sos = bytes([len(members)])
        for idx in members:
            t = 0 if idx == 0 else 1
            sos += bytes([idx + 1, (t << 4) | t])
        sos += bytes([ss, se, (ah << 4) | al])
        out += seg(0xFFDA, sos)
        out += _encode_scan(
            members, ss, se, ah, al, plane_zz, bpr, bdim, hv,
            mcux, mcuy, enc_dc, enc_ac, restart_interval,
        )
    out += b"\xff\xd9"
    return bytes(out)


def _encode_scan(
    members, ss, se, ah, al, plane_zz, bpr, bdim, hv, mcux, mcuy,
    enc_dc, enc_ac, ri=0,
) -> bytes:
    bw = _BitWriter()
    out = bytearray()
    rst_n = 0

    def maybe_restart(unit_idx: int) -> bool:
        nonlocal rst_n
        if ri and unit_idx and unit_idx % ri == 0:
            out.extend(bw.flush_segment())
            out.extend(bytes((0xFF, 0xD0 + (rst_n & 7))))
            rst_n += 1
            return True
        return False

    if ss == 0:  # DC scan
        if len(members) > 1:
            pattern = [
                (idx, v, u)
                for idx in members
                for v in range(hv[idx][1])
                for u in range(hv[idx][0])
            ]
            units = [
                [
                    (idx, (my * hv[idx][1] + v) * bpr[idx] + mx * hv[idx][0] + u)
                    for idx, v, u in pattern
                ]
                for my in range(mcuy)
                for mx in range(mcux)
            ]
        else:
            idx = members[0]
            units = [
                [(idx, by * bpr[idx] + bx)]
                for by in range(bdim[idx][0])
                for bx in range(bdim[idx][1])
            ]
        pred = {i: 0 for i in members}
        for ui, unit in enumerate(units):
            if maybe_restart(ui):
                pred = {i: 0 for i in members}
            for idx, bi in unit:
                if ah == 0:
                    v = int(plane_zz[idx][bi, 0]) >> al
                    diff = v - pred[idx]
                    pred[idx] = v
                    size = diff.bit_length() if diff > 0 else (-diff).bit_length()
                    code, ln = enc_dc[min(idx, 1)][size]
                    bw.put(code, ln)
                    if size:
                        bw.put(diff if diff >= 0 else diff + (1 << size) - 1, size)
                else:
                    bw.put((int(plane_zz[idx][bi, 0]) >> al) & 1, 1)
        out.extend(bw.flush_segment())
        return bytes(out)

    # AC scan: single component, band [ss, se]
    idx = members[0]
    tac = enc_ac[min(idx, 1)]
    eob_code, eob_ln = tac[0x00]
    zrl_code, zrl_ln = tac[0xF0]
    ui = -1
    for by in range(bdim[idx][0]):
        for bx in range(bdim[idx][1]):
            ui += 1
            maybe_restart(ui)  # EOB runs flush per block; no carried state
            blk = plane_zz[idx][by * bpr[idx] + bx]
            if ah == 0:  # AC first (G.1.2.2); EOB runs flushed per block
                run = 0
                wrote = False
                for k in range(ss, se + 1):
                    v = int(blk[k])
                    av = (-v if v < 0 else v) >> al
                    if av == 0:
                        run += 1
                        continue
                    while run > 15:
                        bw.put(zrl_code, zrl_ln)
                        run -= 16
                    s = av.bit_length()
                    code, ln = tac[(run << 4) | s]
                    bw.put(code, ln)
                    t = av if v >= 0 else -av
                    bw.put(t if t >= 0 else t + (1 << s) - 1, s)
                    run = 0
                    wrote = True
                if run > 0 or not wrote:
                    # end-of-band: EOB0 (run length 1, no extension bits)
                    bw.put(eob_code, eob_ln)
            else:  # AC refinement (jcphuff encode_mcu_AC_refine shape)
                p_absv = []
                last_nz = ss - 1
                for k in range(ss, se + 1):
                    v = int(blk[k])
                    av = (-v if v < 0 else v) >> al
                    p_absv.append(av)
                    if av == 1:
                        last_nz = k  # newly-significant in this pass
                run = 0
                corr: list[int] = []
                for k in range(ss, se + 1):
                    av = p_absv[k - ss]
                    if av == 0:
                        run += 1
                        continue
                    while run > 15 and k <= last_nz:
                        bw.put(zrl_code, zrl_ln)
                        run -= 16
                        for b in corr:
                            bw.put(b, 1)
                        corr = []
                    if av > 1:
                        # history coefficient: buffer its correction bit
                        corr.append(av & 1)
                        continue
                    # newly significant: (run<<4)|1 + sign + buffered bits
                    code, ln = tac[(run << 4) | 1]
                    bw.put(code, ln)
                    bw.put(0 if int(blk[k]) < 0 else 1, 1)
                    for b in corr:
                        bw.put(b, 1)
                    corr = []
                    run = 0
                if run > 0 or corr:
                    bw.put(eob_code, eob_ln)  # EOB0 flushes this block
                    for b in corr:
                        bw.put(b, 1)
    out.extend(bw.flush_segment())
    return bytes(out)
