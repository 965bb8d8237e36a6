"""Operators ask only a materialized dataset for its schema or a row.

``Dataset.schema()`` or ``Dataset.take()`` on a lazy dataset runs the
plan until its first block and cancels the tasks still in flight; a
task reply that races such a cancellation can trip a fatal check in
Ray's core worker and kill the driver.  Here ``Dataset.schema`` and
``Dataset.take`` fail on any dataset that is not materialized, and the
operators that need a schema or a first row run on lazy inputs through
them."""

import numpy as np
import pyarrow as pa
import pytest
import ray


@pytest.fixture
def materialized_schema_only():
    from ray.data import Dataset
    from ray.data.dataset import MaterializedDataset

    schema = Dataset.schema

    def guarded(self, *args, **kwargs):
        if not isinstance(self, MaterializedDataset):
            raise AssertionError("schema() asked of a lazy dataset")
        return schema(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Dataset, "schema", guarded)
        yield


@pytest.fixture
def materialized_take_only():
    from ray.data import Dataset
    from ray.data.dataset import MaterializedDataset

    take = Dataset.take

    def guarded(self, *args, **kwargs):
        if not isinstance(self, MaterializedDataset):
            raise AssertionError("take() asked of a lazy dataset")
        return take(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Dataset, "take", guarded)
        yield


def lazy(tbl: pa.Table, blocks: int = 3) -> ray.data.Dataset:
    return ray.data.from_arrow(tbl).repartition(blocks).map_batches(
        lambda b: b, batch_format="pyarrow"
    )


@pytest.mark.usefixtures("ray_session", "materialized_schema_only")
def test_hash_join_and_asof_join_on_lazy_inputs():
    from tilecloud_chain_ray.stages.join import asof_join, hash_join

    left = pa.table({"k": np.arange(40) % 7, "t": np.arange(40) * 10, "lv": np.arange(40)})
    right = pa.table({"k": np.arange(14) % 7, "t": np.arange(14) * 25, "rv": np.arange(14) * 2})

    joined = hash_join(lazy(left), lazy(right), on="k").take_all()
    assert sorted((r["lv"], r["rv"]) for r in joined) == sorted(
        (int(lv), int(rv))
        for k, lv in zip(left["k"].to_pylist(), left["lv"].to_pylist())
        for k2, rv in zip(right["k"].to_pylist(), right["rv"].to_pylist())
        if k == k2
    )

    asof = asof_join(lazy(left), lazy(right), key="k", ts="t", right_cols=["rv"]).take_all()
    want = {}
    for k, t, lv in zip(*(left[c].to_pylist() for c in ("k", "t", "lv"))):
        earlier = [
            (t2, rv)
            for k2, t2, rv in zip(*(right[c].to_pylist() for c in ("k", "t", "rv")))
            if k2 == k and t2 < t
        ]
        want[lv] = max(earlier)[1] if earlier else None
    got = {r["lv"]: (None if r["r_rv"] != r["r_rv"] else r["r_rv"]) for r in asof}
    assert got == want


@pytest.mark.usefixtures("ray_session", "materialized_schema_only")
def test_bloom_anti_join_cluster_residue_on_lazy_inputs(on_cluster):
    from tilecloud_chain_ray.stages.bloom import bloom_anti_join

    keys = np.arange(3000, dtype=np.int64)
    drop = np.arange(0, 3000, 5, dtype=np.int64)
    with on_cluster():
        out = bloom_anti_join(
            lazy(pa.table({"k": keys, "v": keys * 2})),
            lazy(pa.table({"k": drop})),
            on="k",
            n_keys_hint=len(drop),
            bits_per_key=2,
        ).take_all()
    assert sorted(r["k"] for r in out) == sorted(set(keys.tolist()) - set(drop.tolist()))


@pytest.mark.usefixtures("ray_session", "materialized_schema_only")
@pytest.mark.parametrize("with_key", [True, False])
def test_train_bpe_on_lazy_input(with_key):
    from tilecloud_chain_ray.stages.bpe import train_bpe

    rng = np.random.default_rng(4)
    vocab = ["alpha", "beta", "gamma", "delta"]
    texts = [" ".join(rng.choice(vocab, 12)) for _ in range(120)]
    cols = {"doc_id": np.arange(120, dtype=np.int64)} if with_key else {}
    tbl = pa.table({**cols, "text": texts})
    got = train_bpe(lazy(tbl), num_merges=20, sample_max_docs=40)
    ref = train_bpe(ray.data.from_arrow(tbl), num_merges=20, sample_max_docs=40)
    assert got.merges == ref.merges and len(got.merges) > 0


@pytest.mark.usefixtures("ray_session", "materialized_take_only")
def test_embedding_near_dup_on_lazy_input():
    from tilecloud_chain_ray.stages.dedup import embedding_near_dup

    rng = np.random.default_rng(8)
    base = rng.standard_normal((120, 16))
    vecs = np.concatenate([base, base[:30] + 1e-4 * rng.standard_normal((30, 16))])
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(vecs)), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(pa.array(vecs.ravel()), 16),
        }
    )

    def pairs(ds):
        return sorted((r["key_a"], r["key_b"]) for r in embedding_near_dup(ds).take_all())

    got = pairs(lazy(tbl))
    assert got == pairs(ray.data.from_arrow(tbl).materialize())
    assert {(i, 120 + i) for i in range(30)} <= set(got)
