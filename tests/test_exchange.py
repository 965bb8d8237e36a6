"""Direct unit tests for util.hash_group_blocks / util.exchange_aggregate
— the round-5 task exchange every bounded-key shuffle rides.

Covers the contract edges the pipeline tests only hit incidentally:
string keys, multi-column keys, empty input (typed-empty fallback),
partition widths 1/3/16 (including widths >> distinct keys, so most
merge tasks see zero rows), and key co-location (each key's rows meet
exactly one kernel invocation).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from tilecloud_chain_ray.util import exchange_aggregate, hash_group_blocks


def _table(n=1000, seed=7):
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "g": rng.integers(0, 13, n),
            "s": pa.array([f"k{v}" for v in rng.integers(0, 5, n)]),
            "v": rng.integers(-50, 50, n),
        }
    )


def test_exchange_aggregate_matches_pandas(ray_session, at_width):
    t = _table()
    ds = ray.data.from_arrow(t).repartition(7)
    for width in (1, 3, 16):
        with at_width(width):
            agg = exchange_aggregate(
                ds,
                ["g", "s"],
                [("v", "sum"), ("v", "min"), ("v", "count")],
                ["g", "s", "v_sum", "v_min", "v_count"],
            ).to_pandas()
        out = agg.sort_values(["g", "s"]).reset_index(drop=True)
        exp = (
            t.to_pandas()
            .groupby(["g", "s"], as_index=False)
            .agg(v_sum=("v", "sum"), v_min=("v", "min"), v_count=("v", "count"))
            .sort_values(["g", "s"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            out.astype({"v_count": "int64"}), exp.astype({"v_count": "int64"})
        )


def test_hash_group_blocks_colocates_keys(ray_session):
    # kernel tags every row with a partition serial; a key straddling
    # two kernel invocations would show two serials for one key
    t = _table(n=400, seed=3)
    ds = ray.data.from_arrow(t).repartition(5)

    def kernel(tbl: pa.Table) -> pa.Table:
        import uuid

        tag = uuid.uuid4().hex
        return tbl.append_column("part", pa.array([tag] * tbl.num_rows))

    out = hash_group_blocks(ds, ["g"], kernel, num_partitions=4).to_pandas()
    assert len(out) == 400
    assert (out.groupby("g")["part"].nunique() == 1).all()


def test_hash_group_blocks_empty_input(ray_session):
    empty = pa.table({"g": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    ds = ray.data.from_arrow(empty)

    def kernel(tbl: pa.Table) -> pa.Table:
        assert tbl.num_rows == 0
        return pa.table({"g": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})

    out = hash_group_blocks(ds, ["g"], kernel)
    assert out.count() == 0
    assert out.schema().names == ["g", "n"]


def test_null_int_keys_hash_consistently(ray_session, at_width):
    # one block carries nulls, another doesn't: the same non-null key
    # must land in ONE partition regardless (a per-block dtype branch
    # would split it), and nulls group together as their own key
    t1 = pa.table({"g": pa.array([1, 2, None, 2], pa.int64()), "v": pa.array([1, 2, 3, 4])})
    t2 = pa.table({"g": pa.array([1, 2, 1], pa.int64()), "v": pa.array([5, 6, 7])})
    ds = ray.data.from_arrow([t1, t2])

    def kernel(tbl: pa.Table) -> pa.Table:
        import uuid

        return tbl.append_column("part", pa.array([uuid.uuid4().hex] * tbl.num_rows))

    out = hash_group_blocks(ds, ["g"], kernel, num_partitions=8).to_pandas()
    assert len(out) == 7
    assert (out.groupby("g", dropna=False)["part"].nunique() == 1).all()
    with at_width(8):
        agg = exchange_aggregate(ds, ["g"], [("v", "sum")], ["g", "v_sum"]).to_pandas()
    got = agg.sort_values("g").reset_index(drop=True)
    exp = (
        pa.concat_tables([t1, t2])
        .to_pandas()
        .groupby("g", as_index=False, dropna=False)["v"]
        .sum()
        .rename(columns={"v": "v_sum"})
        .sort_values("g")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-5, 5)),  # int key w/ nulls
            st.sampled_from(["a", "b", "c"]),  # string key
            st.integers(-1000, 1000),  # value
        ),
        min_size=0,
        max_size=60,
    ),
    width=st.sampled_from([1, 2, 7]),
    blocks=st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_exchange_aggregate_property(ray_session, at_width, rows, width, blocks):
    t = pa.table(
        {
            "gi": pa.array([r[0] for r in rows], pa.int64()),
            "gs": pa.array([r[1] for r in rows]),
            "v": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(blocks)
    with at_width(width):
        out = exchange_aggregate(
            ds, ["gi", "gs"], [("v", "sum"), ("v", "min")], ["gi", "gs", "v_sum", "v_min"]
        ).to_pandas()
    if not rows:
        # Ray loses the schema of a fully-empty execution (zero-column
        # blocks), so the documented degraded result is 0 rows — the
        # column set is unrecoverable
        assert len(out) == 0
        return
    exp = (
        t.to_pandas()
        .groupby(["gi", "gs"], as_index=False, dropna=False)
        .agg(v_sum=("v", "sum"), v_min=("v", "min"))
    )
    key = ["gi", "gs"]
    out = out.sort_values(key, na_position="last").reset_index(drop=True)
    exp = exp.sort_values(key, na_position="last").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 6), st.integers(-100, 100)),
        min_size=1,
        max_size=80,
    ),
    width=st.sampled_from([1, 3, 8]),
    blocks=st.integers(1, 4),
)
@settings(max_examples=20, deadline=None)
def test_grouped_distinct_counts_property(ray_session, at_width, rows, width, blocks):
    from tilecloud_chain_ray.stages.distinct import grouped_distinct_counts

    g = np.array([r[0] for r in rows], dtype=np.int64)
    k = np.array([r[1] for r in rows], dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table({"grp": pa.array(g), "key": pa.array(k)})
    ).repartition(blocks)
    with at_width(width):
        out = grouped_distinct_counts(ds, "grp", "key").to_pandas()
    out = out.sort_values("grp").reset_index(drop=True)
    exp = (
        pd.DataFrame({"grp": g, "key": k})
        .groupby("grp")
        .agg(n_distinct=("key", "nunique"), n_rows=("key", "size"))
        .reset_index()
    )
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)


def test_hash_group_blocks_width_exceeds_keys(ray_session, at_width):
    # 2 distinct keys through 16 partitions: 14+ merges see zero rows
    # and must not emit blocks (nor zero-schema bundles)
    t = pa.table({"g": pa.array([1, 2] * 50), "v": pa.array(range(100))})
    ds = ray.data.from_arrow(t).repartition(4)
    with at_width(16):
        out = exchange_aggregate(ds, ["g"], [("v", "sum")], ["g", "v_sum"]).to_pandas()
    assert sorted(out["g"]) == [1, 2]
    assert out["v_sum"].sum() == sum(range(100))
