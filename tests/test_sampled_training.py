"""Unbiased sampled training (round 5): IVF / SemDeDup / BPE training
samples come from ``hash_sample_rows`` (bottom-n by key hash) instead
of ``limit()`` — on a corpus SORTED by source, the first-N rows are one
biased slice and centroid/merge quality silently degrades.  These tests
sort adversarially and assert order independence + cluster coverage."""

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.stages.curation import hash_sample_rows


def _clustered_embeddings(n_groups=8, per_group=400, d=16, seed=11):
    """Well-separated spherical clusters; rows ORDERED group-by-group
    (the adversarial layout: limit(train) sees only the first group)."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_groups, d)) * 6
    vecs, gids = [], []
    for g in range(n_groups):
        vecs.append(centers[g] + 0.05 * rng.standard_normal((per_group, d)))
        gids.extend([g] * per_group)
    v = np.concatenate(vecs).astype(np.float32)
    ids = np.arange(len(v), dtype=np.int64)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(v.tolist(), pa.list_(pa.float32())),
            "group": pa.array(gids, pa.int64()),
        }
    )
    return tbl, n_groups


def test_hash_sample_rows_layout_independent(ray_session):
    tbl, _ = _clustered_embeddings()
    ds_sorted = ray.data.from_arrow(tbl).repartition(8)
    perm = np.random.default_rng(0).permutation(tbl.num_rows)
    ds_shuffled = ray.data.from_arrow(tbl.take(pa.array(perm))).repartition(3)
    a = hash_sample_rows(ds_sorted, 256, "vec_id", cols=["vec_id"])
    b = hash_sample_rows(ds_shuffled, 256, "vec_id", cols=["vec_id"])
    assert sorted(a["vec_id"].to_pylist()) == sorted(b["vec_id"].to_pylist())
    assert a.num_rows == 256


def test_hash_sample_covers_all_groups_on_sorted_corpus(ray_session):
    """The exact failure mode of limit(): on the group-sorted layout a
    first-N sample sees ONLY group 0; the hash sample covers all."""
    tbl, n_groups = _clustered_embeddings()
    ds = ray.data.from_arrow(tbl).repartition(8)
    n = 256
    limit_groups = {r["group"] for r in ds.limit(n).take_all()}
    assert len(limit_groups) == 1  # the bias being fixed
    sampled = hash_sample_rows(ds, n, "vec_id", cols=["group"])
    assert set(sampled["group"].to_pylist()) == set(range(n_groups))


def test_ivf_recall_on_adversarially_sorted_corpus(ray_session):
    """IVF trained via the hash sample reaches near-brute recall on the
    sorted layout, and produces the SAME result on a shuffled layout
    (training no longer depends on input order)."""
    from tilecloud_chain_ray.stages.knn import knn_brute, knn_ivf

    tbl, n_groups = _clustered_embeddings()
    rng = np.random.default_rng(5)
    q_rows = rng.choice(tbl.num_rows, 12, replace=False)
    queries = np.stack(
        [tbl["embedding"][int(i)].as_py() for i in q_rows]
    ).astype(np.float64)

    ds = ray.data.from_arrow(tbl.select(["vec_id", "embedding"])).repartition(8)
    brute = {
        (r["query_id"], r["vec_id"])
        for r in knn_brute(ds, queries, k=5).take_all()
    }
    ivf = knn_ivf(
        ds, queries, k=5, n_lists=n_groups, nprobe=2, train_sample=512
    )
    got = {(r["query_id"], r["vec_id"]) for r in ivf.take_all()}
    recall = len(got & brute) / len(brute)
    assert recall >= 0.9, recall

    # same training sample -> same output on a different layout
    perm = np.random.default_rng(1).permutation(tbl.num_rows)
    ds2 = ray.data.from_arrow(
        tbl.select(["vec_id", "embedding"]).take(pa.array(perm))
    ).repartition(3)
    got2 = {
        (r["query_id"], r["vec_id"])
        for r in knn_ivf(
            ds2, queries, k=5, n_lists=n_groups, nprobe=2, train_sample=512
        ).take_all()
    }
    assert got2 == got


def test_semdedup_verdicts_order_independent(ray_session):
    from tilecloud_chain_ray.stages.semdedup import semdedup_verdicts

    rng = np.random.default_rng(7)
    base = rng.standard_normal((120, 12))
    dup = base[:30] + 1e-4 * rng.standard_normal((30, 12))
    v = np.concatenate([base, dup]).astype(np.float32)
    ids = np.arange(len(v), dtype=np.int64)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(v.tolist(), pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(6)
    perm = np.random.default_rng(2).permutation(tbl.num_rows)
    ds2 = ray.data.from_arrow(tbl.take(pa.array(perm))).repartition(2)
    kw = dict(threshold=0.95, n_clusters=4, train_sample=64)
    a = {(r["vec_id"], r["keep"]) for r in semdedup_verdicts(ds, **kw).take_all()}
    b = {(r["vec_id"], r["keep"]) for r in semdedup_verdicts(ds2, **kw).take_all()}
    assert a == b


def test_bpe_training_order_independent(ray_session):
    from tilecloud_chain_ray.stages.bpe import train_bpe

    rng = np.random.default_rng(9)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    texts = [" ".join(rng.choice(vocab, 30)) for _ in range(300)]
    ids = np.arange(300, dtype=np.int64)
    tbl = pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())}
    )
    ds = ray.data.from_arrow(tbl).repartition(5)
    perm = np.random.default_rng(3).permutation(300)
    ds2 = ray.data.from_arrow(tbl.take(pa.array(perm))).repartition(2)
    t1 = train_bpe(ds, num_merges=40, sample_max_docs=100)
    t2 = train_bpe(ds2, num_merges=40, sample_max_docs=100)
    assert t1.merges == t2.merges and t1.vocab == t2.vocab


def test_bpe_keyless_sample_covers_sorted_clusters(ray_session):
    """Without a key column the sample is still bottom-n by a hash of
    the text: on a corpus sorted into two disjoint-alphabet clusters it
    covers both (``limit()`` saw only the first), and the merges do not
    depend on input order."""
    from tilecloud_chain_ray.stages.bpe import train_bpe

    rng = np.random.default_rng(5)
    first = ["alpha", "beta", "gamma", "delta"]
    second = ["xyzzy", "quux", "vqvq", "wkwk"]
    texts = [" ".join(rng.choice(first, 20)) for _ in range(200)]
    texts += [" ".join(rng.choice(second, 20)) for _ in range(200)]
    tbl = pa.table({"text": pa.array(texts, pa.string())})
    ds = ray.data.from_arrow(tbl).repartition(4)
    perm = np.random.default_rng(6).permutation(tbl.num_rows)
    ds2 = ray.data.from_arrow(tbl.take(pa.array(perm))).repartition(3)
    t1 = train_bpe(ds, num_merges=30, sample_max_docs=50)
    t2 = train_bpe(ds2, num_merges=30, sample_max_docs=50)
    assert set("xyzqvwk") <= set(t1.vocab) and set("alphbetgmd") <= set(t1.vocab)
    assert t1.merges == t2.merges and t1.vocab == t2.vocab
