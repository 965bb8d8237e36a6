"""Exchange width sizing: ``util.default_buckets`` follows the cluster's
CPU count (no fixed floor), ``util.hash_group_blocks`` widens to one
partition per ``DataContext.target_max_block_size`` of input, the
widening spreads rows for every operator on a 1-CPU cluster (no salt
fixed from the CPU count caps it), and every exchange-backed operator
gives the same rows at any width.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import pytest
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecloud_chain_ray import util
from tilecloud_chain_ray.util import default_buckets, exchange_aggregate, hash_group_blocks

WIDTHS = (1, 4, 32)


@pytest.mark.parametrize("cpus", [1, 4, 64])
def test_default_buckets_tracks_cluster_cpus(monkeypatch, cpus):
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(cpus)})
    assert default_buckets() == cpus


def test_default_buckets_at_least_one(monkeypatch):
    # a head started with num_cpus=0, workers not yet joined
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 0.0})
    assert default_buckets() == 1


def _sorted_rows(tbl: pa.Table, cols=None) -> list:
    if tbl.num_rows == 0:
        return []  # an empty exchange result may carry no columns
    df = tbl.to_pandas()
    cols = list(cols or df.columns)
    return sorted(df[cols].itertuples(index=False, name=None))


def _collect(ds: ray.data.Dataset) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 9), st.integers(-100, 100)), min_size=1, max_size=60
    ),
    blocks=st.integers(1, 3),
)
@settings(max_examples=6, deadline=None)
def test_exchange_aggregate_same_at_any_width(ray_session, at_width, rows, blocks):
    t = pa.table(
        {
            "g": pa.array([r[0] for r in rows], pa.int64()),
            "v": pa.array([r[1] for r in rows], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(blocks)

    def at(w):
        with at_width(w):
            return _collect(
                exchange_aggregate(
                    ds,
                    ["g"],
                    [("v", "sum"), ("v", "max"), ([], "count_all")],
                    ["g", "v_sum", "v_max", "n"],
                )
            )

    outs = [_sorted_rows(at(w)) for w in WIDTHS]
    assert outs[0] == outs[1] == outs[2]
    assert len(outs[0]) == len({r[0] for r in rows})


@given(
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=40),
    blocks=st.integers(1, 3),
)
@settings(max_examples=6, deadline=None)
def test_curate_dedup_partition_same_at_any_width(ray_session, picks, blocks):
    from tilecloud_chain_ray.pipelines.curate import make_dedup_partition, make_md5_bucket

    texts = [f"text number {p}" for p in picks]
    t = pa.table({"doc_id": pa.array(range(len(picks)), pa.int64()), "text": texts})
    tagged = (
        ray.data.from_arrow(t)
        .repartition(blocks)
        .map_batches(make_md5_bucket("text"), batch_format="pyarrow")
    )
    outs = [
        _sorted_rows(
            _collect(
                hash_group_blocks(
                    tagged, ["_bucket"], make_dedup_partition("doc_id"), num_partitions=w
                )
            ),
            ["doc_id", "text"],
        )
        for w in WIDTHS
    ]
    assert outs[0] == outs[1] == outs[2]
    # survivor per distinct text = its first doc_id
    first = {}
    for i, p in enumerate(picks):
        first.setdefault(p, i)
    assert [r[0] for r in outs[0]] == sorted(first.values())


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 3), st.integers(0, 5)),
        min_size=2,
        max_size=60,
        unique_by=lambda r: (r[0], r[1]),  # one row per (key, band)
    ),
)
@settings(max_examples=6, deadline=None)
def test_expand_hot_bucket_pairs_same_at_any_width(ray_session, at_width, rows):
    from tilecloud_chain_ray.stages.dedup import _expand_hot_bucket_pairs

    banded = ray.data.from_arrow(
        pa.table(
            {
                "key": pa.array([r[0] for r in rows], pa.int64()),
                "band": pa.array([r[1] for r in rows], pa.int64()),
                "band_hash": pa.array([r[2] for r in rows], pa.int64()),
            }
        )
    ).materialize()

    def at(w):
        with at_width(w):
            return _collect(_expand_hot_bucket_pairs(banded))

    outs = [_sorted_rows(at(w), ["key_a", "key_b"]) for w in WIDTHS]
    assert outs[0] == outs[1] == outs[2]
    exp = {
        (a[0], b[0])
        for a in rows
        for b in rows
        if a[0] < b[0] and a[1] == b[1] and a[2] == b[2]
    }
    assert outs[0] == sorted(exp)


@given(doc_ids=st.lists(st.integers(0, 50_000), min_size=1, max_size=200, unique=True))
@settings(max_examples=3, deadline=None)
def test_density_pyramid_same_at_any_width(ray_session, at_width, doc_ids):
    from tilecloud_chain_ray.config import Layer
    from tilecloud_chain_ray.grid import WEBMERC
    from tilecloud_chain_ray.pipelines.density import density_pyramid
    from tilecloud_chain_ray.stages.geocode import make_geocoder

    docs = ray.data.from_arrow(pa.table({"doc_id": pa.array(doc_ids, pa.int64())})).map_batches(
        make_geocoder(WEBMERC.bbox, "doc_id", cell_res=12), batch_format="pyarrow"
    )
    lay = Layer(name="width_density", grid=WEBMERC, meta=False)

    def tiles(w):
        with at_width(w):
            res = density_pyramid(docs, lay, zooms=[0, 1, 2], with_summary=False)
            t = _collect(res.tiles)
        return sorted(
            (r["z"], r["x"], r["y"], r["status"], hashlib.sha1(r["data"] or b"").hexdigest())
            for r in t.select(["z", "x", "y", "status", "data"]).to_pylist()
        )

    outs = [tiles(w) for w in WIDTHS]
    assert outs[0] == outs[1] == outs[2]
    assert outs[0]


def _wide_input(n_rows=4000, n_blocks=4) -> ray.data.Dataset:
    rng = np.random.default_rng(5)
    payload = rng.integers(0, 1 << 62, (n_rows, 128))  # 1 KiB a row
    t = pa.table(
        {
            "g": pa.array(rng.integers(0, 997, n_rows), pa.int64()),
            "v": pa.array(rng.integers(-10, 10, n_rows), pa.int64()),
            "pad": pa.FixedSizeListArray.from_arrays(pa.array(payload.ravel()), 128),
        }
    )
    return ray.data.from_arrow(t).repartition(n_blocks).materialize()


def test_width_grows_with_input_bytes(ray_session, at_width):
    ds = _wide_input()
    in_bytes = sum(m.size_bytes for b in ds.iter_internal_ref_bundles() for _, m in b.blocks)
    assert in_bytes > 3 << 20  # a multi-MiB input

    def partition_rows(t: pa.Table) -> pa.Table:
        return pa.table({"rows": pa.array([t.num_rows], pa.int64())})

    aggs = [("v", "sum"), ([], "count_all")]
    names = ["g", "v_sum", "n"]
    with at_width(1):
        at_width_1 = _sorted_rows(_collect(exchange_aggregate(ds, ["g"], aggs, names)))

    ctx = ray.data.DataContext.get_current()
    old_target = ctx.target_max_block_size
    target = 256 << 10
    ctx.target_max_block_size = target
    try:
        # every merge task emits one row, so the row count is the width
        parts = _collect(hash_group_blocks(ds, ["g"], partition_rows, num_partitions=1))
        sized = _sorted_rows(_collect(exchange_aggregate(ds, ["g"], aggs, names)))
    finally:
        ctx.target_max_block_size = old_target
    assert parts.num_rows == math.ceil(in_bytes / target)
    assert sum(parts["rows"].to_pylist()) == ds.count()
    assert sized == at_width_1



def _join_case():
    from tilecloud_chain_ray.stages.join import hash_join

    rng = np.random.default_rng(3)
    n = 6000
    left = pa.table({"k": pa.array(rng.integers(0, 2000, n), pa.int64()),
                     "pad": pa.array(rng.integers(0, 1 << 40, n), pa.int64())})
    right = pa.table({"k": pa.array(np.arange(0, 2000, 3), pa.int64()),
                      "v": pa.array(np.arange(0, 2000, 3) * 7, pa.int64())})

    def run():
        return hash_join(
            ray.data.from_arrow(left).repartition(3), ray.data.from_arrow(right), on="k"
        )

    exp = left.to_pandas().merge(right.to_pandas(), on="k")
    return run, sorted(exp[["k", "pad", "v"]].itertuples(index=False, name=None))


def _bloom_case():
    from tilecloud_chain_ray.stages.bloom import bloom_anti_join

    rng = np.random.default_rng(4)
    keys = rng.integers(0, 4000, 6000)
    left = pa.table({"k": pa.array(keys, pa.int64()), "pad": pa.array(np.arange(6000), pa.int64())})
    drop = np.arange(0, 4000, 2)

    def run():
        return bloom_anti_join(
            ray.data.from_arrow(left).repartition(3),
            ray.data.from_arrow(pa.table({"k": pa.array(drop, pa.int64())})),
            on="k",
        )

    kept = left.filter(pa.array(keys % 2 == 1))
    return run, _sorted_rows(kept)


def _distinct_case():
    from tilecloud_chain_ray.stages.distinct import grouped_distinct_counts

    # ONE group: only a salt as wide as the exchange can spread it
    k = np.random.default_rng(5).integers(0, 30_000, 40_000)
    t = pa.table({"g": pa.array(np.zeros(len(k)), pa.int64()), "k": pa.array(k, pa.int64())})

    def run():
        return grouped_distinct_counts(ray.data.from_arrow(t).repartition(4), "g", "k")

    return run, [(0, len(np.unique(k)), len(k))]


def _pairs_case():
    from tilecloud_chain_ray.stages.dedup import _expand_hot_bucket_pairs

    n = 8000
    key = np.arange(n)
    banded = pa.table({"key": pa.array(key, pa.int64()),
                       "band": pa.array(np.zeros(n), pa.int64()),
                       "band_hash": pa.array(key // 2, pa.int64())})

    def run():
        return _expand_hot_bucket_pairs(ray.data.from_arrow(banded).repartition(3).materialize())

    return run, [(int(a), int(a) + 1) for a in range(0, n, 2)]


@pytest.mark.parametrize("case", [_join_case, _bloom_case, _distinct_case, _pairs_case])
def test_byte_floor_spreads_rows_on_one_cpu(ray_session, monkeypatch, case):
    """Default widths on a 1-CPU cluster with a 64 KiB block target:
    the largest exchange of each operator must reach more than one
    non-empty merge partition (a CPU-sized salt would keep every row in
    one), and the output must still be exact."""
    run, expected = case()
    monkeypatch.setattr(util, "DRIVER_MAX_BYTES", 0)  # the bloom residue on the cluster
    outputs: list = []
    orig = util.exchange_refs

    def spy(refs, keys, kernel, in_bytes, num_partitions=None):
        out_refs, rows = orig(refs, keys, kernel, in_bytes, num_partitions)
        outputs.append(len(out_refs))  # one ref per non-empty partition
        return out_refs, rows

    # every exchange, on Datasets (hash_group_blocks) or on refs, runs here
    monkeypatch.setattr(util, "exchange_refs", spy)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    ctx = ray.data.DataContext.get_current()
    monkeypatch.setattr(ctx, "target_max_block_size", 64 << 10)
    got = _sorted_rows(_collect(run()))
    assert max(outputs) > 1
    assert got == expected
