"""Char-trigram LM perplexity scoring (stages/lm.py, the CCNet-style
quality filter)."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pytest

from tilecloud_chain_ray.stages.lm import (
    CharLM,
    _packed_trigrams,
    lm_score_batch,
    train_char_lm,
)


def tiny_model() -> CharLM:
    # counts for "abcabcabd": trigrams abc x2, bca, cab, abd, bcd? no:
    # a b c a b c a b d -> abc, bca, cab, abc, bca, cab? (len 9 -> 7)
    tri = _packed_trigrams(b"abcabcabd")
    uniq, counts = np.unique(tri, return_counts=True)
    order = np.argsort(uniq)
    tri_keys, tri_counts = uniq[order], counts[order].astype(np.int64)
    bi_all = tri_keys >> np.uint32(8)
    starts = np.flatnonzero(np.r_[True, bi_all[1:] != bi_all[:-1]])
    return CharLM(tri_keys, tri_counts, bi_all[starts], np.add.reduceat(tri_counts, starts))


def reference_logprob(model: CharLM, text: str) -> float:
    """Plain-python per-trigram reference."""
    b = text.encode("utf-8", "ignore")
    if len(b) < 3:
        return 0.0
    lps = []
    for i in range(len(b) - 2):
        tri = (b[i] << 16) | (b[i + 1] << 8) | b[i + 2]
        bi = tri >> 8
        ti = np.searchsorted(model.tri_keys, tri)
        t = (
            float(model.tri_counts[ti])
            if ti < len(model.tri_keys) and model.tri_keys[ti] == tri
            else 0.0
        )
        bj = np.searchsorted(model.bi_keys, bi)
        bcount = (
            float(model.bi_counts[bj])
            if bj < len(model.bi_keys) and model.bi_keys[bj] == bi
            else 0.0
        )
        lps.append(math.log(t + model.alpha) - math.log(bcount + 256.0 * model.alpha))
    return float(np.mean(lps))


def test_batch_scoring_matches_reference_and_masks_boundaries():
    m = tiny_model()
    texts = ["abcabc", "zzzzz", "", "ab", "abcabd xyz", None]
    batch = pa.table({"text": pa.array(texts, pa.string()), "i": list(range(len(texts)))})
    out = lm_score_batch(batch, m)
    lp = out["lm_logprob"].to_pylist()
    for i, t in enumerate(texts):
        want = reference_logprob(m, t) if t else 0.0
        assert abs(lp[i] - want) < 1e-12, (i, t, lp[i], want)
    # in-distribution text scores strictly better than junk
    assert lp[0] > lp[1]
    ppl = out["lm_ppl"].to_pylist()
    assert all(abs(p - math.exp(-l)) < 1e-12 for p, l in zip(ppl, lp))


def test_scalar_path_agrees_with_batch():
    m = tiny_model()
    s = "abcabcab"
    batch = pa.table({"text": [s]})
    assert abs(
        lm_score_batch(batch, m)["lm_logprob"][0].as_py() - m.logprob_per_char(s.encode())
    ) < 1e-12


@pytest.mark.usefixtures("ray_session")
def test_train_and_filter_end_to_end():
    import ray

    from tilecloud_chain_ray.stages.lm import perplexity_filter
    from tilecloud_chain_ray.util import read_parquet_clean

    docs = read_parquet_clean(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).materialize()
    model = train_char_lm(docs, sample_max_docs=200)
    assert len(model.tri_keys) > 100

    # corpus text scores far better than random bytes under the model
    rng = np.random.default_rng(4)
    junk = ["".join(chr(c) for c in rng.integers(33, 127, 400)) for _ in range(20)]
    scored_junk = lm_score_batch(pa.table({"text": junk}), model)
    scored_real = lm_score_batch(
        pa.concat_tables(ray.get(docs.limit(20).to_arrow_refs())).select(["text"]), model
    )
    assert (
        np.mean(scored_real["lm_logprob"].to_numpy())
        > np.mean(scored_junk["lm_logprob"].to_numpy()) + 1.0
    )

    # the filter keeps the low-perplexity head and streams
    mixed = docs.limit(50).map_batches(
        lambda b: b.select(["text"]), batch_format="pyarrow"
    ).union(ray.data.from_arrow(pa.table({"text": junk})))
    ppl_cut = float(np.exp(-np.min(scored_real["lm_logprob"].to_numpy())) * 1.05)
    kept = perplexity_filter(mixed, model, max_ppl=ppl_cut).take_all()
    assert 0 < len(kept) <= 50
    kept_texts = {r["text"] for r in kept}
    assert kept_texts.isdisjoint(set(junk))


def test_lm_scoring_multibyte_utf8():
    """Non-ASCII text: the batch path scores the utf-8 BYTES, exactly
    like the scalar encode() reference."""
    m = tiny_model()
    texts = ["héllo wörld", "日本語のテキスト", "abcabc"]
    batch = pa.table({"text": texts})
    lp = lm_score_batch(batch, m)["lm_logprob"].to_pylist()
    for i, t in enumerate(texts):
        assert abs(lp[i] - reference_logprob(m, t)) < 1e-12


@pytest.mark.usefixtures("ray_session")
def test_sampled_model_does_not_depend_on_block_order():
    """Above ``sample_max_docs`` the training rows are a hash sample of
    the texts, so the same rows in another block order train the same
    model (a first-rows cut would train on different rows)."""
    import ray

    rng = np.random.default_rng(11)
    words = ["river", "stone", "quiet", "lamp", "orbit", "maple", "zinc", "fjord"]
    texts = [" ".join(rng.choice(words, 9)) + f" #{i}" for i in range(300)]
    forward = ray.data.from_arrow(pa.table({"text": texts})).repartition(5)
    backward = ray.data.from_arrow(pa.table({"text": texts[::-1]})).repartition(3)
    a = train_char_lm(forward, sample_max_docs=60)
    b = train_char_lm(backward, sample_max_docs=60)
    full = train_char_lm(forward, sample_max_docs=300)
    for field in ("tri_keys", "tri_counts", "bi_keys", "bi_counts"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert a.tri_counts.sum() < full.tri_counts.sum()  # 60 of the 300 rows
