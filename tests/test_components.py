"""Connected components + near-dedup survivors (stages/components.py).

The oracle is a DuckDB recursive-CTE transitive closure: component =
min key reachable over the undirected pair graph — SQL-exact, so the
driver path AND the distributed min-label-propagation path are both
checked against it (and against each other)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

CLOSURE_SQL = """
WITH RECURSIVE e AS (
    SELECT key_a AS a, key_b AS b FROM pairs
    UNION
    SELECT key_b AS a, key_a AS b FROM pairs
),
reach(a, b) AS (
    SELECT a, a FROM (SELECT DISTINCT a FROM e)
    UNION
    SELECT r.a, e.b FROM reach r JOIN e ON r.b = e.a
)
SELECT a AS key, min(b) AS component FROM reach GROUP BY a ORDER BY key
"""


def oracle_components(df: pd.DataFrame) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("pairs", df)
    return con.execute(CLOSURE_SQL).df()


def random_pairs(rng, n_nodes: int, n_edges: int) -> pd.DataFrame:
    a = rng.integers(0, n_nodes, n_edges).astype(np.int64) * 7 + 3  # sparse keys
    b = rng.integers(0, n_nodes, n_edges).astype(np.int64) * 7 + 3
    keep = a != b
    return pd.DataFrame({"key_a": a[keep], "key_b": b[keep]})


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("cluster", [False, True])
def test_connected_components_vs_sql_closure(cluster, on_cluster, at_width):
    import contextlib

    import ray

    from tilecloud_chain_ray.stages.components import connected_components

    rng = np.random.default_rng(17)
    df = random_pairs(rng, n_nodes=200, n_edges=300)
    with at_width(8), on_cluster() if cluster else contextlib.nullcontext():
        got = (
            connected_components(ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)))
            .to_pandas()
            .sort_values("key")
            .reset_index(drop=True)
        )
    want = oracle_components(df).astype({"key": np.int64, "component": np.int64})
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_connected_components_chain_diameter(on_cluster, at_width):
    """A long path graph exercises multi-round label propagation (the
    min label must travel the full diameter)."""
    import ray

    from tilecloud_chain_ray.stages.components import connected_components

    keys = np.arange(50, dtype=np.int64)[::-1] + 100  # 149..100 chained
    df = pd.DataFrame({"key_a": keys[:-1], "key_b": keys[1:]})
    with at_width(4), on_cluster():
        got = connected_components(
            ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
        ).to_pandas()
    assert (got["component"] == 100).all()
    assert len(got) == 50


@pytest.mark.usefixtures("ray_session")
def test_connected_components_empty():
    import ray

    from tilecloud_chain_ray.stages.components import connected_components

    empty = ray.data.from_arrow(
        pa.table({"key_a": pa.array([], pa.int64()), "key_b": pa.array([], pa.int64())})
    )
    assert connected_components(empty).count() == 0


@pytest.mark.usefixtures("ray_session")
def test_near_dedup_survivors_on_documents():
    """End-to-end: minhash pairs over the sf0.001 documents -> one
    survivor (the min doc_id) per cluster, everything else kept."""
    import ray

    from tilecloud_chain_ray.stages.components import (
        connected_components,
        near_dedup_survivors,
    )
    from tilecloud_chain_ray.stages.dedup import minhash_dedup_pairs
    from tilecloud_chain_ray.util import read_parquet_clean

    docs = read_parquet_clean(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).materialize()
    pairs = minhash_dedup_pairs(docs, threshold=0.8).materialize()
    n_docs = docs.count()

    comp = connected_components(pairs).to_pandas()
    survivors = near_dedup_survivors(docs, pairs).materialize()
    kept = set(r["doc_id"] for r in survivors.select_columns(["doc_id"]).take_all())

    dropped = set(comp.loc[comp["key"] != comp["component"], "key"].tolist())
    assert len(kept) == n_docs - len(dropped)
    assert kept.isdisjoint(dropped)
    # every cluster representative is kept
    reps = set(comp["component"].tolist())
    assert reps <= kept
    # at least some duplicates exist in the fixture (else the test is vacuous)
    assert len(dropped) > 0


@pytest.mark.usefixtures("ray_session")
def test_near_dedup_survivors_bloom_path_equals_broadcast(on_cluster):
    """Pin the cluster placement (components by label propagation, the
    drop set through the Bloom anti-join) and assert it keeps exactly
    the same docs as the driver placement."""
    import ray

    from tilecloud_chain_ray.stages.components import near_dedup_survivors

    rng = np.random.default_rng(23)
    n = 2000
    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64())})
    )
    # clusters of 3: (i, i+1), (i+1, i+2) for i % 10 == 0
    base = np.arange(0, n - 2, 10, dtype=np.int64)
    df = pd.DataFrame(
        {
            "key_a": np.concatenate([base, base + 1]),
            "key_b": np.concatenate([base + 1, base + 2]),
        }
    )
    pairs = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))

    a = set(
        r["doc_id"]
        for r in near_dedup_survivors(docs, pairs, key_col="doc_id").take_all()
    )
    with on_cluster():
        b = set(
            r["doc_id"] for r in near_dedup_survivors(docs, pairs, key_col="doc_id").take_all()
        )
    assert a == b
    assert len(a) == n - 2 * len(base)  # two dropped per 3-cluster
    assert set(base.tolist()) <= a  # min key survives


@pytest.mark.usefixtures("ray_session")
def test_near_dedup_survivors_no_pairs():
    """Empty pair list: every doc survives (regression: empty drop set
    must not index an empty array)."""
    import ray

    from tilecloud_chain_ray.stages.components import near_dedup_survivors

    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.arange(100, dtype=np.int64), pa.int64())})
    )
    empty = ray.data.from_arrow(
        pa.table({"key_a": pa.array([], pa.int64()), "key_b": pa.array([], pa.int64())})
    )
    assert near_dedup_survivors(docs, empty).count() == 100


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("cluster", [False, True])
def test_connected_components_self_and_duplicate_pairs(cluster, on_cluster, at_width):
    """Self-pairs and repeated pairs neither crash nor change components."""
    import contextlib

    import ray

    from tilecloud_chain_ray.stages.components import connected_components

    df = pd.DataFrame(
        {
            "key_a": [5, 5, 5, 9, 11],
            "key_b": [5, 7, 7, 7, 11],
        }
    )
    with at_width(4), on_cluster() if cluster else contextlib.nullcontext():
        got = (
            connected_components(ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)))
            .to_pandas()
            .sort_values("key")
            .reset_index(drop=True)
        )
    want = oracle_components(df).astype({"key": np.int64, "component": np.int64})
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    comp = dict(zip(got["key"], got["component"]))
    assert comp[5] == comp[7] == comp[9] == 5 and comp[11] == 11
