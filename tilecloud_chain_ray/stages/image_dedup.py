"""Image near-duplicate detection: perceptual hashing (dHash / pHash)
+ hamming-blocked pair expansion.

The multimodal analog of text simhash dedup (``stages/dedup.py``):
each image decodes (from-scratch PNG/JPEG codecs in ``functions/``),
reduces to a 64-bit perceptual fingerprint that is stable under
resize / re-encode / mild noise, and pairs within hamming distance
flow through the SAME pigeonhole blocking machinery as text simhash
(:func:`~tilecloud_chain_ray.stages.dedup.hamming_blocked_pairs` —
equal 16-bit quarter blocking, exact for max_hamming <= 3, salted
bucket groupby, never all-pairs).

* **dHash** (difference hash): grayscale -> 9x8 bilinear downsample ->
  1 bit per horizontal neighbor comparison.  Cheap, robust to resize
  and recompression.
* **pHash** (DCT hash): grayscale -> 32x32 downsample -> 2D DCT-II ->
  sign of the 8x8 low-frequency block (minus DC) vs its median.
  Robust to stronger noise / gamma shifts than dHash.

Decode is the expensive leg, so hashing runs as an actor-pool
``map_batches`` stage with SMALL batches (a decoded batch is
``batch_size * h * w * c`` bytes — same wide-binary guidance as
``stages/multimodal.MediaDecoder``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.stages.dedup import hamming_blocked_pairs
from tilecloud_chain_ray.stages.multimodal import _decode_image, _resize_bilinear


def _to_gray(arr: np.ndarray) -> np.ndarray:
    """(h, w, c) uint8 -> (h, w) float64 luma (Rec. 601 weights)."""
    if arr.ndim == 2:
        return arr.astype(np.float64)
    c = arr.shape[2]
    if c == 1:
        return arr[:, :, 0].astype(np.float64)
    rgb = arr[:, :, :3].astype(np.float64)
    return rgb @ np.array([0.299, 0.587, 0.114])


def _resize_gray(gray: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Area-average resample of a float grayscale image to (th, tw).

    Each target pixel is the exact mean of its (fractional) source box,
    computed from a bilinear-sampled integral image — the equivalent of
    PIL's ANTIALIAS/box reduction.  Point-sampled bilinear was measured
    too unstable for fingerprinting: a 48->24 downsize flipped up to 6
    dHash bits where the gradient is flat, area averaging flips <= 2."""
    h, w = gray.shape
    integral = np.zeros((h + 1, w + 1))
    integral[1:, 1:] = gray.cumsum(0).cumsum(1)
    ys = np.linspace(0, h, th + 1)
    xs = np.linspace(0, w, tw + 1)
    y0 = np.minimum(np.floor(ys).astype(np.int64), h)
    x0 = np.minimum(np.floor(xs).astype(np.int64), w)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    y1 = np.minimum(y0 + 1, h)
    x1 = np.minimum(x0 + 1, w)
    a = integral[np.ix_(y0, x0)]
    b = integral[np.ix_(y0, x1)]
    c = integral[np.ix_(y1, x0)]
    d = integral[np.ix_(y1, x1)]
    grid = a * (1 - fy) * (1 - fx) + b * (1 - fy) * fx + c * fy * (1 - fx) + d * fy * fx
    box = grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1]
    area = np.outer(np.diff(ys), np.diff(xs))
    return box / area


def _pack_bits(bits: np.ndarray) -> np.uint64:
    """64 bools (row-major) -> uint64, bit 63 first (vectorized)."""
    by = np.packbits(bits.ravel().astype(np.uint8))
    return np.uint64(int.from_bytes(by.tobytes(), "big"))


def dhash64(arr: np.ndarray) -> np.uint64:
    """Difference hash: 9x8 luma, bit = left pixel > right neighbor."""
    g = _resize_gray(_to_gray(arr), 8, 9)
    return _pack_bits(g[:, :-1] > g[:, 1:])


_DCT32 = None


def _dct_matrix(n: int = 32) -> np.ndarray:
    global _DCT32
    if _DCT32 is None:
        k = np.arange(n)
        _DCT32 = np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))
    return _DCT32


def phash64(arr: np.ndarray) -> np.uint64:
    """DCT hash: 32x32 luma -> 2D DCT-II -> sign of the 8x8
    low-frequency coefficients (DC excluded) vs their median."""
    g = _resize_gray(_to_gray(arr), 32, 32)
    m = _dct_matrix(32)
    coef = m @ g @ m.T
    low = coef[:8, :8].copy().ravel()
    low[0] = np.median(low[1:])  # neutralize DC: it only tracks brightness
    med = np.median(low)
    bits = low > med
    bits[0] = False  # fixed DC bit keeps the hash 63-informative + stable
    return _pack_bits(bits.reshape(8, 8))


class ImageHasher:
    """Actor-pool stage: (key, payload) -> (key, imghash).

    ``method``: ``dhash`` | ``phash``.  ``codec``: raw | png | jpeg
    (the from-scratch codecs in ``functions/``)."""

    def __init__(
        self,
        key_col: str = "media_id",
        payload_col: str = "payload",
        codec: str = "png",
        method: str = "dhash",
    ) -> None:
        if method not in ("dhash", "phash"):
            raise ValueError(method)
        self.key_col, self.payload_col = key_col, payload_col
        self.codec = codec
        self.fn = dhash64 if method == "dhash" else phash64
        if method == "phash":
            _dct_matrix(32)  # build once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_numpy(zero_copy_only=False)
        hashes = np.empty(batch.num_rows, dtype=np.uint64)
        for i, payload in enumerate(batch[self.payload_col].to_pylist()):
            hashes[i] = self.fn(_decode_image(payload, self.codec))
        return pa.Table.from_pydict(
            {
                self.key_col: pa.array(keys, pa.int64()),
                "imghash": pa.array(hashes.astype(np.int64), pa.int64()),
            }
        )


def image_hashes(
    media: ray.data.Dataset,
    key_col: str = "media_id",
    payload_col: str = "payload",
    codec: str = "png",
    method: str = "dhash",
    batch_size: int = 64,
    concurrency: int | tuple[int, int] = (1, 8),
) -> ray.data.Dataset:
    """Perceptual-hash every image: actor pool, small batches (decode
    inflates payloads h*w*c-fold)."""
    return media.map_batches(
        ImageHasher,
        fn_constructor_kwargs={
            "key_col": key_col,
            "payload_col": payload_col,
            "codec": codec,
            "method": method,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def image_near_dup_pairs(
    media: ray.data.Dataset,
    key_col: str = "media_id",
    payload_col: str = "payload",
    codec: str = "png",
    method: str = "dhash",
    max_hamming: int = 3,
    batch_size: int = 64,
    concurrency: int | tuple[int, int] = (1, 8),
) -> ray.data.Dataset:
    """(key_a < key_b, hamming) pairs of perceptually-near-duplicate
    images.  Hashing is the actor-pool decode stage; pairing is the
    shared quarter-blocked machinery (bucketed, no all-pairs) — only
    16 B/image of (key, hash) ever shuffles."""
    hashed = image_hashes(
        media,
        key_col=key_col,
        payload_col=payload_col,
        codec=codec,
        method=method,
        batch_size=batch_size,
        concurrency=concurrency,
    )
    return hamming_blocked_pairs(
        hashed,
        key_col=key_col,
        hash_col="imghash",
        max_hamming=max_hamming,
    )
