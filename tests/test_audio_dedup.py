"""Audio near-dup (stages/audio_dedup.py): spectral-fingerprint
invariance (gain / resample / mild noise), planted-variant recovery
through the shared quarter-blocked pairing, and driver/distributed
equality."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from tilecloud_chain_ray.functions.wav import encode_wav
from tilecloud_chain_ray.stages.audio_dedup import (
    _BAND_EDGES_HZ,
    audio_fingerprint64,
    audio_near_dup_pairs,
)

RATE = 16000


def _clip(i: int, sec: float = 2.0) -> np.ndarray:
    """Content-bearing clip: two enveloped tones in EVERY analysis band
    (a band with no content hashes its noise floor — a property of any
    spectral fingerprint, not of this operator)."""
    rng = np.random.default_rng(500 + i)
    t = np.arange(int(RATE * sec)) / RATE
    x = np.zeros_like(t)
    for b in range(8):
        for _ in range(2):
            f = rng.uniform(_BAND_EDGES_HZ[b], min(_BAND_EDGES_HZ[b + 1], RATE / 2 * 0.95))
            env = np.interp(t, np.linspace(0, sec, 6), rng.uniform(0.05, 1.0, 6))
            x += rng.uniform(0.3, 1.0) * env * np.sin(2 * np.pi * f * t + rng.uniform(0, 6.28))
    return (x / np.max(np.abs(x)) * 20000).astype(np.int16)


def _resample2x(s: np.ndarray) -> np.ndarray:
    xi = np.arange(2 * len(s)) / 2
    return np.interp(xi, np.arange(len(s)), s.astype(np.float64)).astype(np.int16)


def _ham(a, b) -> int:
    return bin(int(a) ^ int(b)).count("1")


def test_fingerprint_invariances():
    for i in range(12):
        s = _clip(i)
        h0 = audio_fingerprint64(s, RATE)
        # gain: log-energies shift uniformly, per-band median comparison cancels it
        assert _ham(h0, audio_fingerprint64((s * 0.4).astype(np.int16), RATE)) <= 1
        # mild additive noise (-40 dB) on content-bearing bands
        rng = np.random.default_rng(i)
        noisy = (s + (200 * rng.standard_normal(len(s))).astype(np.int16))
        assert _ham(h0, audio_fingerprint64(noisy, RATE)) <= 3
        # 2x resample: Hz-anchored bands keep their content
        assert _ham(h0, audio_fingerprint64(_resample2x(s), 2 * RATE)) <= 6
    # distinct clips stay far apart
    hs = [audio_fingerprint64(_clip(i), RATE) for i in range(12)]
    dists = [_ham(hs[i], hs[j]) for i in range(12) for j in range(i + 1, 12)]
    assert min(dists) > 8 and np.median(dists) > 20


@pytest.mark.usefixtures("ray_session")
def test_audio_near_dup_finds_planted_variants():
    n = 16
    payloads, ids = [], []
    for i in range(n):
        s = _clip(i)
        payloads.append(encode_wav(s, RATE))
        ids.append(i)
        rng = np.random.default_rng(i)
        variant = ((s * 0.5).astype(np.int16) + (150 * rng.standard_normal(len(s))).astype(np.int16))
        payloads.append(encode_wav(variant, RATE))
        ids.append(1000 + i)
    media = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"media_id": pa.array(ids, pa.int64()), "payload": pa.array(payloads, pa.binary())}
        )
    ).repartition(4)
    pairs = audio_near_dup_pairs(media, max_hamming=3).to_pandas()
    got = {(a, b) for a, b in zip(pairs["key_a"], pairs["key_b"])}
    for i in range(n):
        assert (i, 1000 + i) in got, f"variant of clip {i} missed"
    cross = [(a, b) for a, b in got if (a % 1000) != (b % 1000)]
    assert not cross, f"unrelated clips paired: {cross[:5]}"


@pytest.mark.usefixtures("ray_session")
def test_audio_near_dup_distributed_matches_driver(on_cluster):
    n = 10
    payloads, ids = [], []
    for i in range(n):
        s = _clip(i)
        payloads.append(encode_wav(s, RATE))
        ids.append(i)
        payloads.append(encode_wav((s * 0.6).astype(np.int16), RATE))
        ids.append(1000 + i)
    media = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"media_id": pa.array(ids, pa.int64()), "payload": pa.array(payloads, pa.binary())}
        )
    )
    fast = audio_near_dup_pairs(media, max_hamming=3).to_pandas()
    with on_cluster():
        dist = audio_near_dup_pairs(media, max_hamming=3).to_pandas()
    fp = {(a, b, h) for a, b, h in zip(fast["key_a"], fast["key_b"], fast["hamming"])}
    dp = {(a, b, h) for a, b, h in zip(dist["key_a"], dist["key_b"], dist["hamming"])}
    assert fp == dp and len(fp) >= n
