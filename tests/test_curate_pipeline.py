"""End-to-end curate_corpus over the sf0.001 documents table: every
stage's effect observable, output layout partitioned by lang, shard
packing consistent with a sequential reference."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecloud_chain_ray.pipelines.curate import curate_corpus
from tilecloud_chain_ray.stages.curation import benchmark_shingles

SF_DIR = "/root/testdata/sf0.001"

pytestmark = pytest.mark.usefixtures("ray_session")


def test_curate_corpus_full_chain(tmp_path):
    out = str(tmp_path / "corpus")
    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    bench = benchmark_shingles(docs, max_key=5)
    result = curate_corpus(
        docs,
        out_dir=out,
        quality_min=0.3,
        rep_max=0.5,
        bench_shingles=bench,
        sample_rates=0.9,
        shard_budget=1000,
        shard_bucket_size=64,
    )
    surv = result.survivors.to_pandas()
    n_input = pq.read_metadata(os.path.join(SF_DIR, "documents.parquet")).num_rows
    assert 0 < len(surv) < n_input
    # dedup: texts unique among survivors
    texts = ray.data.read_parquet(out).to_pandas()
    assert texts["text"].nunique() == len(texts)
    # partitioned layout: one directory per lang value
    langs = sorted(d.split("=")[1] for d in os.listdir(out) if d.startswith("lang="))
    assert langs == sorted(surv["lang"].unique())
    # shards: exclusive cumsum within (lang, doc_id order) // budget
    sh = result.shards.to_pandas().sort_values(["lang", "doc_id"]).reset_index(drop=True)
    for lang, sub in sh.groupby("lang"):
        w = sub["n_tokens"].to_numpy(dtype=np.int64)
        excl = np.concatenate(([0], np.cumsum(w)[:-1]))
        assert (sub["shard"].to_numpy() == excl // 1000).all()
    # every survivor got a shard
    assert sorted(sh["doc_id"]) == sorted(surv["doc_id"])


def test_curate_corpus_no_write_no_shards():
    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    result = curate_corpus(docs, quality_min=0.0)
    assert result.shards is None and result.out_dir is None
    surv = result.survivors.to_pandas()
    assert surv["text"].nunique() == len(surv)  # dedup still applies


def test_curate_corpus_near_dedup():
    """Opt-in near-dedup: strictly fewer (or equal) survivors than the
    exact-only chain, equal to the manual pairs->components->min-key
    computation, with one survivor per near-dup cluster."""
    from tilecloud_chain_ray.stages.components import connected_components
    from tilecloud_chain_ray.stages.dedup import minhash_dedup_pairs

    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    exact = curate_corpus(docs, quality_min=0.0)
    near = curate_corpus(docs, quality_min=0.0, near_dedup_threshold=0.8)
    exact_df = exact.survivors.to_pandas()
    near_df = near.survivors.to_pandas()
    assert len(near_df) <= len(exact_df)

    # manual expectation from the exact survivors
    surv_ds = ray.data.from_pandas(exact_df)
    pairs = minhash_dedup_pairs(surv_ds, threshold=0.8)
    comp = connected_components(pairs).to_pandas()
    dropped = set(comp.loc[comp["key"] != comp["component"], "key"])
    assert set(near_df["doc_id"]) == set(exact_df["doc_id"]) - dropped
    assert len(dropped) > 0  # the fixture contains near-dups


@pytest.mark.parametrize("cluster", [False, True])
def test_curate_near_dedup_one_execution_before_consumption(
    count_executions, map_operators, on_cluster, cluster
):
    """The read chain is the only Ray Data execution before the caller
    consumes the near-dedup survivors on the driver placement (exact
    dedup, banding, candidates, verify, union-find and the drop filter
    run on block refs), consuming them there runs no map operator, and
    both placements keep the manual pairs -> components -> min-key
    survivors."""
    import contextlib

    from tilecloud_chain_ray.stages.components import connected_components
    from tilecloud_chain_ray.stages.dedup import minhash_dedup_pairs

    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "lang", "text"]
    ).materialize()
    exact_df = curate_corpus(docs, quality_min=0.0).survivors.to_pandas()
    pairs = minhash_dedup_pairs(ray.data.from_pandas(exact_df), threshold=0.8)
    comp = connected_components(pairs).to_pandas()
    dropped = set(comp.loc[comp["key"] != comp["component"], "key"])
    assert dropped

    with on_cluster() if cluster else contextlib.nullcontext():
        with count_executions() as calls:
            near = curate_corpus(docs, quality_min=0.0, near_dedup_threshold=0.8)
        before = len(calls)
        with count_executions() as calls:
            got = set(near.survivors.to_pandas()["doc_id"])
    if not cluster:
        assert before == 1
        assert [map_operators(c) for c in calls] == [[]]
    assert got == set(exact_df["doc_id"]) - dropped


def test_exact_dedup_spreads_over_a_wide_exchange(at_width):
    """The exact-dedup exchange partitions on the content md5, not on
    the 256-valued ``_bucket`` tag: at width 512, 1,000+ distinct texts
    fill more than 256 partitions, with the survivors of width 1."""
    import pyarrow as pa

    rng = np.random.default_rng(5)
    picks = rng.permutation(np.concatenate([np.arange(1200), rng.integers(0, 1200, 300)]))
    n = len(picks)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(rng.permutation(n), pa.int64()),
                "lang": [("de", "en", "fr")[p % 3] for p in picks],
                "text": [f"page number {p} of the wide exchange test" for p in picks],
            }
        )
    ).materialize()
    outs = {}
    for width in (1, 512):
        with at_width(width):
            outs[width] = curate_corpus(docs, quality_min=0.0).survivors.materialize()
    assert outs[512].num_blocks() > 256
    ids = {w: sorted(outs[w].to_pandas()["doc_id"]) for w in outs}
    assert ids[1] == ids[512] and len(ids[1]) == 1200


def test_curate_corpus_substring_cut():
    """Opt-in ExactSubstr pass: curate(substring_k=8) equals running
    the span cut manually first, then the plain chain — boilerplate
    runs vanish from survivor texts before analysis and dedup."""
    from tilecloud_chain_ray.stages.substring_dedup import (
        cut_duplicate_spans,
        dedup_substring_spans,
    )

    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    got = curate_corpus(
        docs, quality_min=0.0, substring_k=8, substring_winnow=None
    ).survivors.to_pandas()

    pre = docs.materialize()
    spans = dedup_substring_spans(pre, k=8)
    cut_docs = cut_duplicate_spans(pre, spans)
    want = curate_corpus(cut_docs, quality_min=0.0).survivors.to_pandas()

    got = got.sort_values("doc_id").reset_index(drop=True)
    want = want.sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["text"].tolist() == want["text"].tolist()
    # the fixture really contains cross-doc duplicated runs
    raw = {r["doc_id"]: r["text"] for r in pre.take_all()}
    assert any(raw[d] != t for d, t in zip(got["doc_id"], got["text"]))


def test_curate_corpus_all_optins_compose(tmp_path):
    """substring cut + LM ceiling + near-dedup in ONE run: executes
    end-to-end with write + shards, survivors are a subset of the
    substring-only run, schema and partition layout intact."""
    out = str(tmp_path / "corpus")
    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    full = curate_corpus(
        docs,
        out_dir=out,
        quality_min=0.3,
        substring_k=8,
        substring_winnow=None,
        lm_max_ppl=1e9,  # keep-all ceiling: exercises the stage, not the cut
        near_dedup_threshold=0.8,
        shard_budget=1000,
        shard_bucket_size=64,
    )
    full_df = full.survivors.to_pandas()
    base_df = curate_corpus(
        docs, quality_min=0.3, substring_k=8, substring_winnow=None
    ).survivors.to_pandas()
    assert set(full_df["doc_id"]) <= set(base_df["doc_id"])
    assert 0 < len(full_df) <= len(base_df)
    assert sorted(full_df.columns) == sorted(base_df.columns)
    langs = sorted(d.split("=")[1] for d in os.listdir(out) if d.startswith("lang="))
    assert langs == sorted(full_df["lang"].unique())
    sh = full.shards.to_pandas()
    assert sorted(sh["doc_id"]) == sorted(full_df["doc_id"])


def test_curate_corpus_bpe_weighted_shards(tmp_path):
    """Opt-in learned-BPE pack weights: shard assignment follows the
    exclusive cumsum of n_bpe_learned (recomputed manually with the
    same deterministic tokenizer); the written corpus schema is
    unchanged."""
    from tilecloud_chain_ray.stages.bpe import bpe_encode_counts, train_bpe

    out = str(tmp_path / "corpus")
    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    kw = dict(quality_min=0.3, shard_budget=500, shard_bucket_size=64)
    base = curate_corpus(docs, out_dir=out, **kw)
    got = curate_corpus(docs, bpe_merges=64, **kw)
    # corpus schema identical with or without the opt-in
    assert sorted(got.survivors.to_pandas().columns) == sorted(
        base.survivors.to_pandas().columns
    )
    sh = got.shards.to_pandas().sort_values(["lang", "doc_id"]).reset_index(drop=True)
    # recompute weights with the same deterministic tokenizer
    surv = got.survivors.materialize()
    tok = train_bpe(surv, num_merges=64)
    w = (
        bpe_encode_counts(surv, tok)
        .to_pandas()[["doc_id", "lang", "n_bpe_learned"]]
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )
    assert sh["doc_id"].tolist() == w["doc_id"].tolist()
    for lang, sub in sh.groupby("lang"):
        weights = w.loc[w["lang"] == lang, "n_bpe_learned"].to_numpy(np.int64)
        excl = np.concatenate(([0], np.cumsum(weights)[:-1]))
        assert (sub["shard"].to_numpy() == excl // 500).all()


def test_curate_corpus_bpe_distributed_option(tmp_path):
    """bpe_distributed=True weights the packing by the EXACT
    corpus-trained merge table (train_bpe_distributed) — shard weights
    recomputed with the same tokenizer match."""
    from tilecloud_chain_ray.stages.bpe import bpe_encode_counts, train_bpe_distributed

    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    kw = dict(quality_min=0.3, shard_budget=500, shard_bucket_size=64)
    got = curate_corpus(docs, bpe_merges=24, bpe_distributed=True, **kw)
    sh = got.shards.to_pandas().sort_values(["lang", "doc_id"]).reset_index(drop=True)
    surv = got.survivors.materialize()
    tok = train_bpe_distributed(surv, num_merges=24)
    w = (
        bpe_encode_counts(surv, tok)
        .to_pandas()[["doc_id", "lang", "n_bpe_learned"]]
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )
    assert sh["doc_id"].tolist() == w["doc_id"].tolist()
    for lang, sub in sh.groupby("lang"):
        weights = w.loc[w["lang"] == lang, "n_bpe_learned"].to_numpy(np.int64)
        excl = np.concatenate(([0], np.cumsum(weights)[:-1]))
        assert (sub["shard"].to_numpy() == excl // 500).all()


def test_curate_corpus_semantic_dedup():
    """Opt-in SemDeDup: survivors whose embedding is a semantic
    duplicate (planted identical-up-to-noise vectors) drop via the
    Bloom anti-join; a clean embedding table is a no-op."""
    import pyarrow as pa

    from tilecloud_chain_ray.stages.semdedup import semdedup_verdicts

    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    base = curate_corpus(docs, quality_min=0.0).survivors.to_pandas()
    base_ids = sorted(base["doc_id"])

    rng = np.random.default_rng(13)
    vecs = rng.standard_normal((len(base_ids), 16))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    # plant: pairs of consecutive base survivors share an embedding
    for i in range(0, 10, 2):
        vecs[i + 1] = vecs[i] + 1e-4 * rng.standard_normal(16)
        vecs[i + 1] /= np.linalg.norm(vecs[i + 1])
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(base_ids, pa.int64()),
                "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
            }
        )
    )
    got = curate_corpus(
        docs, quality_min=0.0, embeddings=emb, semantic_threshold=0.95, semantic_clusters=4
    ).survivors.to_pandas()
    verd = semdedup_verdicts(emb, threshold=0.95, n_clusters=4).to_pandas()
    dropped = set(verd.loc[~verd["keep"], "vec_id"])
    assert len(dropped) >= 5  # the five planted pairs each lose one
    assert set(got["doc_id"]) == set(base_ids) - dropped

    # clean table (no vectors above threshold): identity
    clean = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(base_ids, pa.int64()),
                "embedding": pa.array(
                    (rng.standard_normal((len(base_ids), 16))).tolist(),
                    pa.list_(pa.float64()),
                ),
            }
        )
    )
    same = curate_corpus(
        docs, quality_min=0.0, embeddings=clean, semantic_threshold=0.9999
    ).survivors.to_pandas()
    assert sorted(same["doc_id"]) == base_ids


def test_curate_corpus_lm_filter():
    """Opt-in perplexity cut: survivors are a subset of the no-cut run
    with identical schema, and a tight ceiling drops rows."""
    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    base = curate_corpus(docs, quality_min=0.0)
    cut = curate_corpus(docs, quality_min=0.0, lm_max_ppl=1e9)  # keep all
    base_df = base.survivors.to_pandas()
    cut_df = cut.survivors.to_pandas()
    assert sorted(cut_df.columns) == sorted(base_df.columns)
    assert set(cut_df["doc_id"]) == set(base_df["doc_id"])

    # median-perplexity ceiling drops roughly the worse half
    from tilecloud_chain_ray.stages.lm import lm_score_batch, train_char_lm
    import pyarrow as pa

    model = train_char_lm(docs.materialize(), sample_max_docs=200)
    scored = lm_score_batch(
        pa.Table.from_pandas(base_df[["text"]], preserve_index=False), model
    )
    med = float(np.median(scored["lm_ppl"].to_numpy()))
    tight = curate_corpus(docs, quality_min=0.0, lm_max_ppl=med, lm_sample_max_docs=200)
    n_tight = tight.survivors.count()
    assert 0 < n_tight < len(base_df)


def _pandas_dedup_reference(batch, key_col):
    """The exact-dedup kernel as a pandas sort + drop_duplicates."""
    import pyarrow as pa

    g = (
        batch.to_pandas()
        .sort_values(["content_md5", key_col])
        .drop_duplicates("content_md5", keep="first")
        .drop(columns=["content_md5", "_bucket"])
    )
    return pa.Table.from_pandas(g, preserve_index=False)


@given(
    picks=st.lists(st.integers(0, 9), min_size=1, max_size=80),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_dedup_partition_matches_pandas_reference(picks, seed):
    import pyarrow as pa

    from tilecloud_chain_ray.pipelines.curate import make_dedup_partition, make_md5_bucket

    rng = np.random.default_rng(seed)
    n = len(picks)
    t = pa.table(
        {
            "doc_id": pa.array(rng.permutation(n), pa.int64()),
            "lang": [("de", "en", "fr")[p % 3] for p in picks],
            "quality": pa.array(rng.random(n)),
            "text": [f"text {p}" for p in picks],
        }
    )
    tagged = make_md5_bucket("text")(t)
    got = make_dedup_partition("doc_id")(tagged)
    assert got.to_pydict() == _pandas_dedup_reference(tagged, "doc_id").to_pydict()
    assert got.schema.names == ["doc_id", "lang", "quality", "text"]


@pytest.mark.parametrize("cluster", [False, True])
def test_exact_dedup_exchange_carries_no_bucket_tag(monkeypatch, on_cluster, cluster):
    """curate_corpus tags rows with ``content_md5`` alone: the exact-dedup
    exchange input has no ``_bucket`` column (only curate_resumable's
    committed partials keep it), and the survivors are the min key per
    text on either placement."""
    import contextlib

    import pyarrow as pa

    import tilecloud_chain_ray.pipelines.curate as curate

    seen = []
    exchange = curate.exchange_refs

    def recording(refs, keys, kernel, in_bytes, *args):
        seen.append({n for t in ray.get(list(refs)) for n in t.schema.names})
        return exchange(refs, keys, kernel, in_bytes, *args)

    monkeypatch.setattr(curate, "exchange_refs", recording)
    rng = np.random.default_rng(9)
    picks = rng.integers(0, 150, 400)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(rng.permutation(400), pa.int64()),
                "lang": [("de", "en")[p % 2] for p in picks],
                "text": [f"the page numbered {p} of a small corpus" for p in picks],
            }
        )
    ).repartition(4)
    with on_cluster() if cluster else contextlib.nullcontext():
        surv = curate_corpus(docs, quality_min=0.0).survivors.to_pandas()
    assert len(seen) == 1 and "content_md5" in seen[0] and "_bucket" not in seen[0]
    want = docs.to_pandas().groupby("text")["doc_id"].min()
    assert sorted(surv["doc_id"]) == sorted(want)


def test_trainers_and_lm_cut_on_empty_input():
    """The sample trainers accept a 0-row input: ``train_char_lm`` and
    ``train_bpe`` return an empty model, and a curation run whose quality
    floor drops every row trains its perplexity cut on the empty stream
    and keeps 0 survivors."""
    import pyarrow as pa

    from tilecloud_chain_ray.stages.bpe import train_bpe
    from tilecloud_chain_ray.stages.lm import train_char_lm

    typed = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1], pa.int64()), "text": pa.array(["ab"], pa.string())})
    )
    # 0-row blocks, and no block at all
    for empty in (typed.filter(lambda r: False), typed.limit(0)):
        model = train_char_lm(empty)
        assert len(model.tri_keys) == len(model.bi_keys) == 0
        assert train_bpe(empty, num_merges=8).merges == ()

    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    result = curate_corpus(docs, quality_min=1.1, lm_max_ppl=100.0)
    assert result.survivors.count() == 0
