"""Minimal deterministic PNG codec (RGBA8, filter 0) — no PIL here.

Encoder output is byte-deterministic (fixed zlib level 6, no ancillary
chunks), which is what makes the constant empty-tile hash drop (M6)
well-defined for our renderer, the way MapServer's fixed output made the
reference's ``empty_tile_detection`` sha1 constants stable
(``/root/reference/tilecloud_chain/tests/tilegeneration/test-nosns.yaml:
110-128``).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def encode_png(rgba: np.ndarray, level: int = 6) -> bytes:
    """(h, w, 4) uint8 -> PNG bytes (color type 6, bit depth 8).

    ``level`` is the zlib level.  The default (6) is what hash-pinned
    configs (``empty_tile_detection``) were computed against — keep it
    for any path a user may pin; throughput-bound paths whose tiles are
    never hash-pinned (density rendering) pass a lower level (measured
    on dense 256px tiles: level 3 = 2.3x faster for +6.5% bytes).
    """
    if rgba.dtype != np.uint8 or rgba.ndim != 3 or rgba.shape[2] != 4:
        raise ValueError("expected (h, w, 4) uint8")
    h, w = rgba.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 6, 0, 0, 0)
    # filter byte 0 prepended to every scanline; the pixels (a strided
    # crop too) are copied once, straight into the buffer zlib reads
    raw = np.empty((h, w * 4 + 1), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:].reshape(h, w, 4)[...] = rgba
    idat = zlib.compress(raw, level)
    return _SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}  # color type -> samples per pixel


def decode_png(data: bytes) -> np.ndarray:
    """Full 8-bit PNG decode -> (h, w, c) uint8, c per color type
    (1 gray, 2 gray+alpha, 3 RGB, 4 RGBA).  All five scanline filters
    (None/Sub/Up/Average/Paeth, PNG spec §9); no interlace, no palette,
    no 16-bit.  Public-spec implementation — no image library needed."""
    if data[:8] != _SIG:
        raise ValueError("not a PNG")
    pos = 8
    w = h = c = None
    idat = bytearray()
    while pos + 8 <= len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, ctype, _comp, _filt, interlace = struct.unpack_from(
                ">IIBBBBB", payload
            )
            if depth != 8:
                raise ValueError("only 8-bit depth supported")
            if ctype not in _CHANNELS:
                raise ValueError(f"unsupported color type {ctype} (palette?)")
            if interlace:
                raise ValueError("interlaced PNG unsupported")
            c = _CHANNELS[ctype]
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("missing IHDR")
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    stride = w * c + 1
    raw = raw.reshape(h, stride)
    filters = raw[:, 0]
    scan = raw[:, 1:]
    if (filters == 0).all():
        return scan.reshape(h, w, c).copy()
    recon = np.zeros((h, w * c), dtype=np.uint8)
    prev = np.zeros(w * c, dtype=np.int32)
    for row in range(h):
        f = int(filters[row])
        cur = scan[row].astype(np.int32)
        if f == 0:
            out = cur
        elif f == 2:  # Up
            out = (cur + prev) & 255
        else:
            out = cur.copy()
            if f == 1:  # Sub
                for x in range(c, w * c):
                    out[x] = (out[x] + out[x - c]) & 255
            elif f == 3:  # Average
                for x in range(w * c):
                    a = out[x - c] if x >= c else 0
                    out[x] = (out[x] + ((a + prev[x]) >> 1)) & 255
            elif f == 4:  # Paeth
                for x in range(w * c):
                    a = int(out[x - c]) if x >= c else 0
                    b = int(prev[x])
                    cc = int(prev[x - c]) if x >= c else 0
                    p = a + b - cc
                    pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - cc)
                    if pa_ <= pb_ and pa_ <= pc_:
                        pred = a
                    elif pb_ <= pc_:
                        pred = b
                    else:
                        pred = cc
                    out[x] = (out[x] + pred) & 255
            else:
                raise ValueError(f"unsupported PNG filter {f}")
        recon[row] = out.astype(np.uint8)
        prev = out
    return recon.reshape(h, w, c)


def is_uniform(rgba: np.ndarray) -> bool:
    """All pixels identical (the HashLogger uniformity check analog,
    ``/root/reference/tilecloud_chain/__init__.py:2590-2606``)."""
    # rgba is (h, w, 4) uint8, possibly a strided crop; each pixel is
    # compared as one uint32: about 2 ms for a 2304² metatile on one
    # Xeon core
    px = rgba.view(np.uint32)
    return bool((px == px[0, 0]).all())
