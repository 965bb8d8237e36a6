"""Audio near-duplicate detection: spectrogram perceptual hashing
over decoded PCM + the shared hamming-blocked pair expansion.

Completes the near-dup triad (text simhash — ``stages/dedup.py``,
image pHash/dHash — ``stages/image_dedup.py``) for the audio column:
each clip decodes (from-scratch WAV codec, ``functions/wav.py``),
reduces to a 64-bit spectral fingerprint that is stable under volume
scaling, resampling and mild noise, and candidate pairs flow through
:func:`~tilecloud_chain_ray.stages.dedup.hamming_blocked_pairs`
(equal 16-bit quarter blocking, salted bucket groupby, no all-pairs).

Fingerprint (aHash-on-spectrogram): the clip is cut into 8 equal time
slices; each slice's magnitude spectrum (numpy rfft) is pooled into 8
log-spaced frequency bands; each of the 64 (time, band) log-energies
is compared to ITS BAND'S median over the 8 time slices — volume
scaling shifts every log-energy equally, so the bit pattern is
gain-invariant by construction, and the per-band baseline also
cancels spectral tilt and band-wide noise floors.  Bands whose
log-energy spread over time is below a small epsilon (silence /
constant tone) contribute all-zero bits: their comparisons would
otherwise be float-noise-determined and destabilize the hamming
distance near the ``max_hamming`` cutoff.  Resampling preserves the
time/band energy layout (bands are anchored at absolute Hz).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.functions.wav import decode_wav
from tilecloud_chain_ray.stages.dedup import hamming_blocked_pairs

_N_TIME = 8
_N_BANDS = 8


# Band edges in Hz (NOT Nyquist fractions): a resampled copy of the
# same audio keeps its content at the same absolute frequencies, so
# the band energies — and the hash — survive a rate change.  Top edge
# 6 kHz stays under Nyquist for every common rate >= 16 kHz.
_BAND_EDGES_HZ = np.geomspace(100.0, 6000.0, _N_BANDS + 1)


def audio_fingerprint64(samples: np.ndarray, rate: int) -> np.uint64:
    """64-bit spectral fingerprint of a mono PCM clip (any dtype).

    Bit (t, b) = band b's log-energy in time slice t vs that band's
    own median over time — invariant to gain (log shifts cancel), to
    spectral tilt, and to broadband noise floors (a band-wide additive
    floor moves the band's median with it), on top of the Hz-anchored
    bands' resampling invariance."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim > 1:
        x = x.mean(axis=1)
    n = len(x)
    if n < _N_TIME * 2:  # degenerate clip: pad to a well-defined hash
        x = np.pad(x, (0, _N_TIME * 2 - n))
        n = len(x)
    cells = np.empty((_N_TIME, _N_BANDS))
    step = n // _N_TIME
    for t in range(_N_TIME):
        seg = x[t * step : (t + 1) * step]
        mag = np.abs(np.fft.rfft(seg * np.hanning(len(seg))))
        hz_per_bin = rate / 2 / (len(mag) - 1)
        for b in range(_N_BANDS):
            lo = max(1, int(_BAND_EDGES_HZ[b] / hz_per_bin))
            hi = max(lo + 1, int(_BAND_EDGES_HZ[b + 1] / hz_per_bin) + 1)
            cells[t, b] = np.sum(mag[lo:hi] ** 2) / (hi - lo)
    logs = np.log10(cells + 1e-12)
    bits = logs > np.median(logs, axis=0, keepdims=True)
    # a band with (near-)constant energy over time — silence, DC, a
    # steady tone — has comparisons decided by float noise; zero its
    # bits so two encodings of the same silent clip can't drift
    # within the max_hamming budget
    spread = logs.max(axis=0) - logs.min(axis=0)
    bits[:, spread < 1e-6] = False
    by = np.packbits(bits.ravel().astype(np.uint8))
    return np.uint64(int.from_bytes(by.tobytes(), "big"))


class AudioHasher:
    """Actor-pool stage: (key, payload WAV bytes) -> (key, audiohash)."""

    def __init__(self, key_col: str = "media_id", payload_col: str = "payload") -> None:
        self.key_col, self.payload_col = key_col, payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_numpy(zero_copy_only=False)
        hashes = np.empty(batch.num_rows, dtype=np.uint64)
        for i, payload in enumerate(batch[self.payload_col].to_pylist()):
            rate, samples = decode_wav(payload)
            hashes[i] = audio_fingerprint64(samples, rate)
        return pa.Table.from_pydict(
            {
                self.key_col: pa.array(keys, pa.int64()),
                "audiohash": pa.array(hashes.astype(np.int64), pa.int64()),
            }
        )


def audio_hashes(
    media: ray.data.Dataset,
    key_col: str = "media_id",
    payload_col: str = "payload",
    batch_size: int = 64,
    concurrency: int | tuple[int, int] = (1, 8),
) -> ray.data.Dataset:
    return media.map_batches(
        AudioHasher,
        fn_constructor_kwargs={"key_col": key_col, "payload_col": payload_col},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def audio_near_dup_pairs(
    media: ray.data.Dataset,
    key_col: str = "media_id",
    payload_col: str = "payload",
    max_hamming: int = 3,
    batch_size: int = 64,
    concurrency: int | tuple[int, int] = (1, 8),
) -> ray.data.Dataset:
    """(key_a < key_b, hamming) pairs of perceptually-near-duplicate
    clips; decode is the actor-pool leg, pairing is the shared blocked
    machinery — only (key, hash) shuffles."""
    hashed = audio_hashes(
        media,
        key_col=key_col,
        payload_col=payload_col,
        batch_size=batch_size,
        concurrency=concurrency,
    )
    return hamming_blocked_pairs(
        hashed,
        key_col=key_col,
        hash_col="audiohash",
        max_hamming=max_hamming,
    )
