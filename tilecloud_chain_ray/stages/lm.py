"""Character n-gram LM perplexity scoring — the CCNet-style quality
filter (Wenzek et al., "CCNet: Extracting High Quality Monolingual
Datasets from Web Crawl Data": score every document with a language
model trained on a trusted reference corpus, keep the low-perplexity
head).  CCNet uses KenLM; no LM library ships in this container, so
this is a from-scratch byte-trigram model with add-alpha smoothing —
the same pipeline shape with a smaller model.

Training counts the trigrams of a bounded hash sample on the driver
(the key space is at most 256^3 packed trigrams; real text uses
~10^4-10^5) into a sorted-array model that broadcasts once via
``ray.put`` and scores batches with two ``searchsorted`` lookups per
trigram — no Python loop over characters.

Scale notes: the reference slice is SAMPLED (``sample_max_docs``), so
training cost is fixed regardless of corpus size; the model is a few
MB and broadcasts like any other small side; scoring streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import ray


def _packed_trigrams(data: bytes) -> np.ndarray:
    """Byte string -> uint32 array of packed (c0<<16 | c1<<8 | c2)."""
    b = np.frombuffer(data, dtype=np.uint8)
    if len(b) < 3:
        return np.empty(0, dtype=np.uint32)
    return (
        (b[:-2].astype(np.uint32) << np.uint32(16))
        | (b[1:-1].astype(np.uint32) << np.uint32(8))
        | b[2:].astype(np.uint32)
    )


@dataclass(frozen=True)
class CharLM:
    """Sorted packed-trigram counts + their bigram-context totals.

    P(c2 | c0 c1) = (count(c0 c1 c2) + alpha) / (count(c0 c1) + 256*alpha)
    """

    tri_keys: np.ndarray  # uint32, sorted
    tri_counts: np.ndarray  # int64
    bi_keys: np.ndarray  # uint32 (c0<<8 | c1), sorted
    bi_counts: np.ndarray  # int64
    alpha: float = 0.1

    def logprob_per_char(self, data: bytes) -> float:
        tri = _packed_trigrams(data)
        if len(tri) == 0:
            return 0.0
        t = _lookup(self.tri_keys, self.tri_counts, tri)
        bi = _lookup(self.bi_keys, self.bi_counts, tri >> np.uint32(8))
        logp = np.log(t + self.alpha) - np.log(bi + 256.0 * self.alpha)
        return float(logp.mean())


def _lookup(keys: np.ndarray, counts: np.ndarray, probe: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(keys, probe)
    pos_c = np.clip(pos, 0, max(len(keys) - 1, 0))
    hit = (pos < len(keys)) & (len(keys) > 0)
    if len(keys):
        hit &= keys[pos_c] == probe
    out = np.zeros(len(probe), dtype=np.float64)
    if len(keys):
        out[hit] = counts[pos_c[hit]]
    return out


def _trigram_counts(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """Distinct packed trigrams of ``texts`` and their counts."""
    tris = [_packed_trigrams(t.encode("utf-8", "ignore")) for t in texts if t]
    if not tris:
        return np.empty(0, np.uint32), np.empty(0, np.int64)
    return np.unique(np.concatenate(tris), return_counts=True)


def train_char_lm(
    ds: ray.data.Dataset,
    text_col: str = "text",
    sample_max_docs: int = 100_000,
    alpha: float = 0.1,
) -> CharLM:
    """Train the byte-trigram model on (a sample of) a reference slice.

    The sample is the layout-independent bottom-n-by-hash set
    (``curation.hash_sample_rows``) keyed on a hash of the text
    (``curation.text_key``): the same rows in any block order train
    the same model, and with at most ``sample_max_docs`` rows every row
    trains it.  The sample is bounded and lands on the driver, where
    the counts are summed chunk by chunk — the model is a bounded-size
    side table, like the decontamination shingle set.
    """
    from tilecloud_chain_ray.stages.curation import hash_sample_rows, text_key

    # materialized once: the sample's count and filtered scans read the
    # object store instead of re-running the upstream
    keyed = ds.map_batches(text_key(text_col, "__text_key"), batch_format="pyarrow").materialize()
    sample = hash_sample_rows(keyed, sample_max_docs, "__text_key", cols=[text_col])
    counted = [
        _trigram_counts(b.column(text_col).to_pylist())
        for b in sample.to_batches(max_chunksize=1024)
    ]
    keys = np.concatenate([np.empty(0, np.uint32)] + [k for k, _ in counted])
    tri_keys, where = np.unique(keys, return_inverse=True)
    tri_counts = np.zeros(len(tri_keys), np.int64)
    np.add.at(tri_counts, where, np.concatenate([np.empty(0, np.int64)] + [n for _, n in counted]))
    # bigram totals roll up from the trigram table (prefix of the key)
    bi_all = tri_keys >> np.uint32(8)
    first = np.ones(len(bi_all), dtype=bool)  # no trigram (empty input): no bigram
    first[1:] = bi_all[1:] != bi_all[:-1]
    starts = np.flatnonzero(first)
    bi_keys = bi_all[starts]
    bi_counts = np.add.reduceat(tri_counts, starts)
    return CharLM(tri_keys, tri_counts, bi_keys, bi_counts, alpha)


def lm_score_batch(
    batch: pa.Table, model: CharLM, text_col: str = "text"
) -> pa.Table:
    """Append ``lm_logprob`` (mean log P per char; 0 for <3-byte text)
    and ``lm_ppl`` (exp(-logprob)).

    Fully vectorized across the batch: trigrams are computed over the
    Arrow string column's SINGLE underlying utf-8 data buffer
    (zero-copy), boundary-spanning positions are masked with the
    offsets buffer, and per-doc means come from one cumsum — no Python
    loop over rows or characters.
    """
    arr = batch[text_col].combine_chunks()
    if isinstance(arr, pa.ChunkedArray):  # num_chunks==0 edge
        arr = pa.array([], pa.string())
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = (
        np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
            arr.offset : arr.offset + len(arr) + 1
        ].astype(np.int64)
        if len(arr)
        else np.zeros(1, dtype=np.int64)
    )
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8) if arr.buffers()[2] else np.empty(0, np.uint8)
    seg = data[offs[0] : offs[-1]]
    if len(seg) >= 3:
        tri = (
            (seg[:-2].astype(np.uint32) << np.uint32(16))
            | (seg[1:-1].astype(np.uint32) << np.uint32(8))
            | seg[2:].astype(np.uint32)
        )
        t = _lookup(model.tri_keys, model.tri_counts, tri)
        bi = _lookup(model.bi_keys, model.bi_counts, tri >> np.uint32(8))
        logp = np.log(t + model.alpha) - np.log(bi + 256.0 * model.alpha)
    else:
        logp = np.empty(0, dtype=np.float64)
    csum = np.concatenate([[0.0], np.cumsum(logp)])
    starts = offs[:-1] - offs[0]
    ends = offs[1:] - offs[0]
    # a doc's valid trigram positions are [start, end - 3]; the two
    # positions spanning into the next doc are excluded
    lo = np.minimum(starts, len(logp))
    hi = np.minimum(np.maximum(ends - 2, starts), len(logp))
    cnt = hi - lo
    lp = np.where(cnt > 0, (csum[hi] - csum[lo]) / np.maximum(cnt, 1), 0.0)
    out = batch.append_column("lm_logprob", pa.array(lp, pa.float64()))
    return out.append_column("lm_ppl", pa.array(np.exp(-lp), pa.float64()))


def perplexity_filter(
    ds: ray.data.Dataset,
    model: CharLM,
    max_ppl: float,
    text_col: str = "text",
) -> ray.data.Dataset:
    """Keep rows whose LM perplexity is at most ``max_ppl`` (the CCNet
    head/middle cut).  The model broadcasts once; scoring streams."""
    model_ref = ray.put(model)

    def fn(batch: pa.Table) -> pa.Table:
        m = ray.get(model_ref)
        scored = lm_score_batch(batch, m, text_col)
        keep = np.asarray(scored["lm_ppl"].to_numpy(zero_copy_only=False) <= max_ppl)
        return scored.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")
