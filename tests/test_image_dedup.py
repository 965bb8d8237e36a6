"""Image near-dup (stages/image_dedup.py): pHash/dHash stability under
resize and JPEG re-encode, bucketed pair expansion through the shared
quarter-blocking machinery, and driver-vs-distributed path equality."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from tilecloud_chain_ray.functions.jpeg import encode_jpeg
from tilecloud_chain_ray.functions.png import encode_png
from tilecloud_chain_ray.stages.dedup import hamming_blocked_pairs
from tilecloud_chain_ray.stages.image_dedup import (
    dhash64,
    image_hashes,
    image_near_dup_pairs,
    phash64,
)


def _base_image(i: int, h: int = 48, w: int = 48) -> np.ndarray:
    """Photo-like smooth 2D noise (a seeded 6x6 grid smoothly
    upsampled): structure in every direction, no saturated flats —
    dHash is all noise on images that are horizontally flat, which is a
    property of the hash family, not the operator."""
    from tilecloud_chain_ray.stages.image_dedup import _resize_gray

    rng = np.random.default_rng(100 + i)
    lum = _resize_gray(rng.uniform(30, 225, (6, 6)), h, w)
    rgb = np.stack(
        [lum, np.clip(lum * 0.8 + 20, 0, 255), np.clip(255 - lum, 0, 255)], axis=-1
    )
    return np.clip(rgb, 0, 255).astype(np.uint8)


def _resize_rgb(arr: np.ndarray, t: int) -> np.ndarray:
    from tilecloud_chain_ray.stages.multimodal import _resize_bilinear

    return _resize_bilinear(arr, t)


def _png(arr: np.ndarray) -> bytes:
    rgba = np.concatenate([arr, np.full(arr.shape[:2] + (1,), 255, np.uint8)], axis=2)
    return encode_png(rgba)


@pytest.mark.parametrize("hash_fn", [dhash64, phash64])
def test_hash_stable_under_resize_and_reencode(hash_fn):
    """The fingerprint of a resized or JPEG-recompressed variant stays
    within hamming 3 of the original; distinct images stay far apart."""

    def ham(a, b):
        return bin(int(a) ^ int(b)).count("1")

    originals = [_base_image(i) for i in range(12)]
    for i, img in enumerate(originals):
        h0 = hash_fn(img)
        assert ham(h0, hash_fn(_resize_rgb(img, 64))) <= 3, f"resize moved img {i}"
        assert ham(h0, hash_fn(_resize_rgb(img, 24))) <= 3, f"downsize moved img {i}"
        from tilecloud_chain_ray.functions.jpeg import decode_jpeg

        rt = decode_jpeg(encode_jpeg(img, quality=90))
        assert ham(h0, hash_fn(rt)) <= 3, f"jpeg roundtrip moved img {i}"
    # distinct images: median pairwise distance well above the threshold
    hs = [hash_fn(img) for img in originals]
    dists = [ham(hs[i], hs[j]) for i in range(12) for j in range(i + 1, 12)]
    assert np.median(dists) > 10


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("method", ["dhash", "phash"])
def test_image_near_dup_finds_planted_variants(method):
    """Planted resize variants are found across the bucketed (never
    all-pairs) path; unrelated images are not paired."""
    n = 24
    payloads, ids = [], []
    for i in range(n):
        img = _base_image(i)
        payloads.append(_png(img))
        ids.append(i)
        payloads.append(_png(_resize_rgb(img, 64)))  # planted near-dup
        ids.append(1000 + i)
    media = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"media_id": pa.array(ids, pa.int64()), "payload": pa.array(payloads, pa.binary())}
        )
    ).repartition(4)
    pairs = image_near_dup_pairs(
        media, codec="png", method=method, max_hamming=3, concurrency=(1, 2)
    ).to_pandas()
    got = {(a, b) for a, b in zip(pairs["key_a"], pairs["key_b"])}
    for i in range(n):
        assert (i, 1000 + i) in got, f"variant of {i} missed by {method}"
    cross = [(a, b) for a, b in got if (a % 1000) != (b % 1000)]
    assert not cross, f"unrelated images paired: {cross[:5]}"


@pytest.mark.usefixtures("ray_session")
def test_image_near_dup_distributed_matches_driver(on_cluster):
    n = 16
    payloads, ids = [], []
    for i in range(n):
        img = _base_image(i)
        payloads.append(_png(img))
        ids.append(i)
        payloads.append(_png(_resize_rgb(img, 32)))
        ids.append(1000 + i)
    media = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"media_id": pa.array(ids, pa.int64()), "payload": pa.array(payloads, pa.binary())}
        )
    )
    kw = dict(codec="png", method="dhash", max_hamming=3, concurrency=(1, 2))
    fast = image_near_dup_pairs(media, **kw).to_pandas()
    with on_cluster():
        dist = image_near_dup_pairs(media, **kw).to_pandas()
    fp = {(a, b, h) for a, b, h in zip(fast["key_a"], fast["key_b"], fast["hamming"])}
    dp = {(a, b, h) for a, b, h in zip(dist["key_a"], dist["key_b"], dist["hamming"])}
    assert fp == dp and len(fp) >= n


@pytest.mark.usefixtures("ray_session")
def test_cross_codec_near_dup_via_shared_machinery():
    """PNG originals vs JPEG re-encodes of the same pixels: hash each
    codec with its own actor pool, union the (key, hash) tables, and
    run ONE blocked pair pass — the operator composes across codecs."""
    n = 10
    png_rows, jpg_rows = [], []
    for i in range(n):
        img = _base_image(i)
        png_rows.append((i, _png(img)))
        jpg_rows.append((1000 + i, encode_jpeg(img, quality=90)))
    mk = lambda rows: ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "media_id": pa.array([r[0] for r in rows], pa.int64()),
                "payload": pa.array([r[1] for r in rows], pa.binary()),
            }
        )
    )
    hashed = image_hashes(mk(png_rows), codec="png", concurrency=(1, 2)).union(
        image_hashes(mk(jpg_rows), codec="jpeg", concurrency=(1, 2))
    )
    pairs = hamming_blocked_pairs(
        hashed, key_col="media_id", hash_col="imghash", max_hamming=3
    ).to_pandas()
    got = {(a, b) for a, b in zip(pairs["key_a"], pairs["key_b"])}
    for i in range(n):
        assert (i, 1000 + i) in got
