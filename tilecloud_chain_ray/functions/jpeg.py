"""Baseline JPEG (JFIF) codec from scratch — public ITU-T.81 spec.

Closes the multimodal decode stub for the most common web-image codec
without any native library: a full baseline decoder (SOF0; arbitrary
1-2 sampling factors incl. 4:2:0/4:2:2; multiple DQT/DHT segments;
restart markers; byte stuffing) plus a 4:4:4 encoder using the Annex K
example quantization and Huffman tables, used by the tests and
``synthesize_media`` to produce real JPEG payloads to decode.

Reference parity: the reference pipeline gets JPEG via Pillow
(`/root/reference/tilecloud_chain/__init__.py` image handling); this is
the same wire format from the published spec, not a port.

Hot-path note: per-symbol Huffman decoding is Python-loop bound — fine
for the task-map decode stage's small batches (the contract in
stages/multimodal.py), and the IDCT/color legs are vectorized numpy.
"""

from __future__ import annotations

import struct

import numpy as np

# --- Annex K tables -------------------------------------------------------

QUANT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int32).reshape(8, 8)

QUANT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int32).reshape(8, 8)

# (BITS[1..16], HUFFVAL) — Annex K.3
DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUMA_VALS = list(range(12))
DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DC_CHROMA_VALS = list(range(12))
AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]
AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
    0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
    0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]

ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)

# orthonormal DCT-II basis: spatial = C.T @ coeffs @ C
_K = np.arange(8)
_DCT_C = np.cos((2 * _K[None, :] + 1) * _K[:, None] * np.pi / 16) * np.where(
    _K[:, None] == 0, np.sqrt(1 / 8), np.sqrt(2 / 8)
)


def _scaled_quant(base: np.ndarray, quality: int) -> np.ndarray:
    """IJG quality scaling (libjpeg convention, public)."""
    quality = min(100, max(1, quality))
    scale = 5000 // quality if quality < 50 else 200 - quality * 2
    q = (base * scale + 50) // 100
    return np.clip(q, 1, 255).astype(np.int32)


def _huff_codes(bits: list[int], vals: list[int]) -> dict[int, tuple[int, int]]:
    """symbol -> (code, length), canonical (C.2)."""
    out: dict[int, tuple[int, int]] = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


def _huff_lookup(bits: list[int], vals: list[int]) -> dict[tuple[int, int], int]:
    """(length, code) -> symbol, for the bit-serial decoder."""
    return {(ln, code): sym for sym, (code, ln) in _huff_codes(bits, vals).items()}


# --- bit IO ---------------------------------------------------------------


class _BitWriter:
    def __init__(self) -> None:
        self.bytes = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            b = (self.acc >> (self.nbits - 8)) & 0xFF
            self.nbits -= 8
            self.bytes.append(b)
            if b == 0xFF:
                self.bytes.append(0x00)  # byte stuffing

    def flush(self) -> None:
        if self.nbits:
            self.put(0x7F, 7 - ((self.nbits - 1) % 8) + 1)  # pad with 1s
            # (put() drains whole bytes; any residue is now zero)
            self.nbits = 0


class _BitReader:
    """Bit-serial reader over the entropy-coded segment (destuffed)."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.acc = 0
        self.nbits = 0

    def read_bit(self) -> int:
        if self.nbits == 0:
            if self.pos >= len(self.data):
                return 0  # spec: pad past end
            self.acc = self.data[self.pos]
            self.pos += 1
            self.nbits = 8
        self.nbits -= 1
        return (self.acc >> self.nbits) & 1

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def align(self) -> None:
        self.nbits = 0

    def decode_huff(self, table: dict[tuple[int, int], int]) -> int:
        code = 0
        for length in range(1, 17):
            code = (code << 1) | self.read_bit()
            sym = table.get((length, code))
            if sym is not None:
                return sym
        raise ValueError("invalid Huffman code")


def _extend(v: int, t: int) -> int:
    """F.2.2.1 sign extension of a t-bit magnitude."""
    if t == 0:
        return 0
    return v if v >= (1 << (t - 1)) else v - (1 << t) + 1


def _category(v: int) -> int:
    return int(v).bit_length() if v > 0 else int(-v).bit_length()


# --- encoder (4:4:4 / grayscale, Annex K tables) --------------------------


def _rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    r = rgb[..., 0].astype(np.float64)
    g = rgb[..., 1].astype(np.float64)
    b = rgb[..., 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.stack([y, cb, cr], axis=-1)


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    y = ycc[..., 0]
    cb = ycc[..., 1] - 128.0
    cr = ycc[..., 2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.round(np.stack([r, g, b], axis=-1)), 0, 255).astype(np.uint8)


def _encode_component(
    plane: np.ndarray,
    quant: np.ndarray,
    dc_codes: dict[int, tuple[int, int]],
    ac_codes: dict[int, tuple[int, int]],
    writer: _BitWriter,
    pred: int,
) -> int:
    h, w = plane.shape
    for by in range(0, h, 8):
        for bx in range(0, w, 8):
            block = plane[by : by + 8, bx : bx + 8].astype(np.float64) - 128.0
            coeffs = _DCT_C @ block @ _DCT_C.T
            q = np.round(coeffs / quant).astype(np.int64).ravel()[ZIGZAG]
            diff = int(q[0]) - pred
            pred = int(q[0])
            t = _category(diff)
            code, ln = dc_codes[t]
            writer.put(code, ln)
            if t:
                writer.put(diff if diff >= 0 else diff + (1 << t) - 1, t)
            run = 0
            last_nz = int(np.max(np.nonzero(q)[0])) if np.any(q[1:]) else 0
            for i in range(1, 64):
                v = int(q[i])
                if v == 0:
                    if i > last_nz:
                        code, ln = ac_codes[0x00]  # EOB
                        writer.put(code, ln)
                        break
                    run += 1
                    if run == 16:
                        code, ln = ac_codes[0xF0]  # ZRL
                        writer.put(code, ln)
                        run = 0
                    continue
                t = _category(v)
                code, ln = ac_codes[(run << 4) | t]
                writer.put(code, ln)
                writer.put(v if v >= 0 else v + (1 << t) - 1, t)
                run = 0
    return pred


def encode_jpeg(img: np.ndarray, quality: int = 85, subsampling: str = "444") -> bytes:
    """Baseline JFIF bytes for an (h, w, 3) RGB or (h, w) gray uint8
    image — 4:4:4 or 4:2:0, Annex K Huffman tables, IJG quality
    scaling."""
    if subsampling not in ("444", "420"):
        raise ValueError(subsampling)
    gray = img.ndim == 2
    h, w = img.shape[:2]
    ql = _scaled_quant(QUANT_LUMA, quality)
    qc = _scaled_quant(QUANT_CHROMA, quality)
    ncomp = 1 if gray else 3
    if gray:
        factors = [(1, 1)]
    elif subsampling == "420":
        factors = [(2, 2), (1, 1), (1, 1)]
    else:
        factors = [(1, 1)] * 3
    hmax = max(f[0] for f in factors)
    vmax = max(f[1] for f in factors)
    mcus_x = (w + 8 * hmax - 1) // (8 * hmax)
    mcus_y = (h + 8 * vmax - 1) // (8 * vmax)

    if gray:
        comps_full = [img.astype(np.float64)]
    else:
        ycc = _rgb_to_ycbcr(img)
        comps_full = [ycc[..., i] for i in range(3)]
    planes = []
    for (fh, fv), p in zip(factors, comps_full):
        if fh != hmax or fv != vmax:  # box-downsample chroma
            sy, sx = vmax // fv, hmax // fh
            ph2 = (h + sy - 1) // sy * sy
            pw2 = (w + sx - 1) // sx * sx
            p = np.pad(p, ((0, ph2 - h), (0, pw2 - w)), mode="edge")
            p = p.reshape(ph2 // sy, sy, pw2 // sx, sx).mean(axis=(1, 3))
        th = mcus_y * fv * 8
        tw = mcus_x * fh * 8
        p = np.pad(p, ((0, th - p.shape[0]), (0, tw - p.shape[1])), mode="edge")
        planes.append(p)

    out = bytearray()
    out += b"\xff\xd8"  # SOI
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for tid, q in ((0, ql),) if gray else ((0, ql), (1, qc)):
        out += b"\xff\xdb" + struct.pack(">HB", 67, tid) + bytes(
            int(q.ravel()[ZIGZAG][i]) for i in range(64)
        )
    out += b"\xff\xc0" + struct.pack(">HBHHB", 8 + 3 * ncomp, 8, h, w, ncomp)
    for cid in range(1, ncomp + 1):
        fh, fv = factors[cid - 1]
        out += struct.pack("BBB", cid, (fh << 4) | fv, 0 if cid == 1 else 1)
    for cls, tid, bits, vals in (
        (0, 0, DC_LUMA_BITS, DC_LUMA_VALS),
        (1, 0, AC_LUMA_BITS, AC_LUMA_VALS),
        (0, 1, DC_CHROMA_BITS, DC_CHROMA_VALS),
        (1, 1, AC_CHROMA_BITS, AC_CHROMA_VALS),
    )[: 2 if gray else 4]:
        out += b"\xff\xc4" + struct.pack(">HB", 3 + len(bits) + len(vals), (cls << 4) | tid)
        out += bytes(bits) + bytes(vals)
    out += b"\xff\xda" + struct.pack(">HB", 6 + 2 * ncomp, ncomp)
    for cid in range(1, ncomp + 1):
        tid = 0 if cid == 1 else 1
        out += struct.pack("BB", cid, (tid << 4) | tid)
    out += b"\x00\x3f\x00"

    dc_l = _huff_codes(DC_LUMA_BITS, DC_LUMA_VALS)
    ac_l = _huff_codes(AC_LUMA_BITS, AC_LUMA_VALS)
    dc_c = _huff_codes(DC_CHROMA_BITS, DC_CHROMA_VALS)
    ac_c = _huff_codes(AC_CHROMA_BITS, AC_CHROMA_VALS)
    writer = _BitWriter()
    preds = [0] * ncomp
    for my in range(mcus_y):
        for mx in range(mcus_x):
            for ci, plane in enumerate(planes):
                fh, fv = factors[ci]
                quant = ql if ci == 0 else qc
                dc, ac = (dc_l, ac_l) if ci == 0 else (dc_c, ac_c)
                for v in range(fv):
                    for hh in range(fh):
                        by = (my * fv + v) * 8
                        bx = (mx * fh + hh) * 8
                        preds[ci] = _encode_component(
                            plane[by : by + 8, bx : bx + 8], quant, dc, ac, writer, preds[ci]
                        )
    writer.flush()
    out += writer.bytes
    out += b"\xff\xd9"  # EOI
    return bytes(out)


# --- decoder --------------------------------------------------------------


def decode_jpeg(data: bytes) -> np.ndarray:
    """Decode baseline (SOF0) JFIF bytes -> (h, w, 3) RGB uint8 (or
    (h, w) for grayscale streams).  Supports 1-2 sampling factors
    (4:4:4 / 4:2:2 / 4:2:0), multiple DQT/DHT segments, DRI restarts."""
    if data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (no SOI)")
    pos = 2
    quant: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    frame = None
    restart_interval = 0
    while pos < len(data):
        if data[pos] != 0xFF:
            raise ValueError(f"marker expected at {pos}")
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        length = struct.unpack_from(">H", data, pos)[0]
        seg = data[pos + 2 : pos + length]
        pos += length
        if marker == 0xDB:  # DQT
            o = 0
            while o < len(seg):
                prec, tid = seg[o] >> 4, seg[o] & 15
                o += 1
                if prec:
                    vals = np.frombuffer(seg, dtype=">u2", count=64, offset=o).astype(np.int32)
                    o += 128
                else:
                    vals = np.frombuffer(seg, dtype=np.uint8, count=64, offset=o).astype(np.int32)
                    o += 64
                tbl = np.zeros(64, dtype=np.int32)
                tbl[ZIGZAG] = vals
                quant[tid] = tbl.reshape(8, 8)
        elif marker == 0xC4:  # DHT
            o = 0
            while o < len(seg):
                cls, tid = seg[o] >> 4, seg[o] & 15
                bits = list(seg[o + 1 : o + 17])
                nvals = sum(bits)
                vals = list(seg[o + 17 : o + 17 + nvals])
                huff[(cls, tid)] = _huff_lookup(bits, vals)
                o += 17 + nvals
        elif marker == 0xC0 or marker == 0xC1:  # SOF0/1 (baseline/ext seq)
            _prec, fh, fw, nc = struct.unpack_from(">BHHB", seg, 0)
            comps = []
            for i in range(nc):
                cid, hv, tq = struct.unpack_from("BBB", seg, 6 + 3 * i)
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 15, "tq": tq})
            frame = {"h": fh, "w": fw, "comps": comps}
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError("only baseline (SOF0) JPEG is supported")
        elif marker == 0xDD:  # DRI
            restart_interval = struct.unpack_from(">H", seg, 0)[0]
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise ValueError("SOS before SOF0")
            ns = seg[0]
            scan = {}
            for i in range(ns):
                cs, tt = seg[1 + 2 * i], seg[2 + 2 * i]
                scan[cs] = (tt >> 4, tt & 15)
            return _decode_scan(
                data, pos, frame, scan, quant, huff, restart_interval
            )
        # APPn / COM / others: skipped
    raise ValueError("no SOS segment")


def _decode_scan(data, pos, frame, scan, quant, huff, restart_interval):
    # entropy-coded bytes: destuff FF00, stop at any non-RST marker
    ecs = bytearray()
    rst_breaks = []
    i = pos
    n = len(data)
    while i < n:
        b = data[i]
        if b != 0xFF:
            ecs.append(b)
            i += 1
            continue
        m = data[i + 1] if i + 1 < n else 0xD9
        if m == 0x00:
            ecs.append(0xFF)
            i += 2
        elif 0xD0 <= m <= 0xD7:
            rst_breaks.append(len(ecs))
            i += 2
        else:
            break

    comps = frame["comps"]
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcu_w, mcu_h = 8 * hmax, 8 * vmax
    mcus_x = (frame["w"] + mcu_w - 1) // mcu_w
    mcus_y = (frame["h"] + mcu_h - 1) // mcu_h
    planes = [
        np.zeros((mcus_y * c["v"] * 8, mcus_x * c["h"] * 8), dtype=np.float64)
        for c in comps
    ]
    reader = _BitReader(bytes(ecs))
    preds = [0] * len(comps)
    seg_idx = 0
    mcu_count = 0
    for my in range(mcus_y):
        for mx in range(mcus_x):
            if restart_interval and mcu_count and mcu_count % restart_interval == 0:
                # jump to the byte offset after the RST marker
                if seg_idx < len(rst_breaks):
                    reader.pos = rst_breaks[seg_idx]
                    reader.nbits = 0
                    seg_idx += 1
                preds = [0] * len(comps)
            mcu_count += 1
            for ci, c in enumerate(comps):
                dc_tbl = huff[(0, scan[c["id"]][0])]
                ac_tbl = huff[(1, scan[c["id"]][1])]
                q = quant[c["tq"]]
                for v in range(c["v"]):
                    for hh in range(c["h"]):
                        t = reader.decode_huff(dc_tbl)
                        diff = _extend(reader.read_bits(t), t)
                        preds[ci] += diff
                        zz = np.zeros(64, dtype=np.int64)
                        zz[0] = preds[ci]
                        k = 1
                        while k < 64:
                            rs = reader.decode_huff(ac_tbl)
                            if rs == 0x00:  # EOB
                                break
                            if rs == 0xF0:  # ZRL
                                k += 16
                                continue
                            k += rs >> 4
                            t = rs & 15
                            if k > 63:
                                break
                            zz[k] = _extend(reader.read_bits(t), t)
                            k += 1
                        coeffs = np.zeros(64, dtype=np.float64)
                        coeffs[ZIGZAG] = zz
                        block = _DCT_C.T @ (coeffs.reshape(8, 8) * q) @ _DCT_C + 128.0
                        py = (my * c["v"] + v) * 8
                        px = (mx * c["h"] + hh) * 8
                        planes[ci][py : py + 8, px : px + 8] = block

    h, w = frame["h"], frame["w"]
    full = []
    for c, p in zip(comps, planes):
        if c["h"] != hmax or c["v"] != vmax:
            p = np.repeat(np.repeat(p, vmax // c["v"], axis=0), hmax // c["h"], axis=1)
        full.append(p[:h, :w])
    if len(full) == 1:
        return np.clip(np.round(full[0]), 0, 255).astype(np.uint8)
    return _ycbcr_to_rgb(np.stack(full, axis=-1))
