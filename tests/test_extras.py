"""Post-process, error budget, formatters, manifest, server read API,
shard filter, pages text-passthrough invariant."""

import json
import os
import zlib

import numpy as np
import pyarrow as pa
import pytest
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.functions.format import duration_format, size_format
from tilecloud_chain_ray.functions.png import decode_png, encode_png
from tilecloud_chain_ray.grid import SWISSGRID_5, WEBMERC
from tilecloud_chain_ray.geom import MultiPoint, Point
from tilecloud_chain_ray.server import ParquetTileServer, get_tile_fs
from tilecloud_chain_ray.sinks.manifest import write_manifest
from tilecloud_chain_ray.stages.error_budget import (
    ErrorBudgetExceeded,
    make_error_budget_stage,
)
from tilecloud_chain_ray.stages.postprocess import (
    make_external_process,
    png_recompress,
)
from tilecloud_chain_ray.stages.shard import local_process_filter

POINTS = MultiPoint((Point(600000, 200000), Point(530000, 150000)))


def point_layer():
    return Layer(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(POINTS,),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )


def test_formatters():
    assert size_format(500) == "500 o"
    assert size_format(2048) == "2.0 Kio"
    assert duration_format(3725) == "1:02:05"


def test_external_process_allow_list():
    with pytest.raises(ValueError):
        make_external_process("rm -rf %(in)s")
    # allow-listed but missing binary: rows become error rows, no raise
    proc = make_external_process("optipng -o2 %(in)s")
    batch = pa.Table.from_pydict(
        {
            "z": [0],
            "x": [1],
            "y": [2],
            "data": [encode_png(np.zeros((4, 4, 4), dtype=np.uint8))],
            "status": ["generated"],
        }
    )
    out = proc(batch)
    assert out["status"].to_pylist() == ["error"]
    assert out["data"].to_pylist() == [None]
    assert out["error"][0].as_py()


def test_png_recompress_deterministic():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 4, (32, 32, 4), dtype=np.uint8)
    blob = encode_png(img)
    batch = pa.Table.from_pydict({"data": [blob]})
    out1 = png_recompress(9)(batch)["data"][0].as_py()
    out2 = png_recompress(9)(batch)["data"][0].as_py()
    assert out1 == out2
    assert (decode_png(out1) == img).all()
    assert len(out1) <= len(blob)


@pytest.mark.usefixtures("ray_session")
def test_error_budget():
    stage = make_error_budget_stage(max_errors=2)
    ok = pa.Table.from_pydict({"status": ["stored"] * 10})
    bad = pa.Table.from_pydict({"status": ["error"] * 3})
    stage(ok)
    with pytest.raises(ErrorBudgetExceeded):
        stage(bad)


def test_shard_filter_partition():
    batch = pa.Table.from_pydict(
        {
            "z": [0] * 20,
            "x": [i * 8 for i in range(20)],
            "y": [0] * 20,
            "n": [8] * 20,
        }
    )
    parts = [local_process_filter(2, p)(batch) for p in (0, 1)]
    assert parts[0].num_rows + parts[1].num_rows == 20
    assert parts[0].num_rows > 0 and parts[1].num_rows > 0


@pytest.mark.usefixtures("ray_session")
def test_layer_presence_filter():
    """M4: rows without layer metadata drop; valued rows keep order
    and payload (reference generate.py:278-283 slave skip)."""
    import ray

    from tilecloud_chain_ray.stages.shard import drop_layerless

    t = pa.table(
        {
            "layer": pa.array(["a", None, "b", None], pa.string()),
            "z": pa.array([0, 1, 2, 3], pa.int32()),
        }
    )
    out = drop_layerless(ray.data.from_arrow(t)).take_all()
    assert [(r["layer"], r["z"]) for r in out] == [("a", 0), ("b", 2)]


@pytest.mark.usefixtures("ray_session")
def test_manifest_and_server(tmp_path):
    from tilecloud_chain_ray.pipelines.generate import generate_tiles

    layer = point_layer()
    wmts = str(tmp_path / "wmts")
    pq_dir = str(tmp_path / "tiles_pq")
    result = generate_tiles(layer, out_wmts=wmts, out_parquet=pq_dir, concurrency=(1, 2))

    manifest_path = write_manifest(str(tmp_path), [layer], result.tiles)
    doc = json.load(open(manifest_path))
    lay = doc["layers"][0]
    assert lay["name"] == "point_hash"
    assert lay["grid"]["matrices"][0] == {"id": "0", "zoom": 0, "width": 19, "height": 13}
    assert sum(lay["stored_tiles_per_zoom"].values()) == 8

    # filesystem read API
    r = get_tile_fs(wmts, layer, 0, 7, 5)  # col 7, row 5
    assert r.status == 200 and r.data and r.content_type == "image/png"
    assert get_tile_fs(wmts, layer, 0, 0, 0).status == 204
    assert get_tile_fs(wmts, layer, 9, 0, 0).status == 400
    assert get_tile_fs(wmts, layer, 0, 50, 0).status == 400

    # parquet read API
    server = ParquetTileServer(pq_dir)
    hit = server.get_tile(0, 7, 5)
    assert hit.status == 200 and hit.data == r.data
    assert server.get_tile(0, 1, 1).status == 204


@pytest.mark.usefixtures("ray_session")
def test_pages_text_passthrough(tmp_path):
    """Byte-identical text per url through the full pipeline (the
    input_hint invariant), checked via crc join input <-> output."""
    from tilecloud_chain_ray.sources.pages import synthesize_pages
    from tilecloud_chain_ray.stages.geocode import make_geocoder
    from tilecloud_chain_ray.stages.text import token_count_batch

    src = str(tmp_path / "pages")
    synthesize_pages(src, 2000, avg_html=256, rows_per_file=500)
    in_crc = {}
    import pyarrow.parquet as pq_mod

    for f in sorted(os.listdir(src)):
        t = pq_mod.read_table(os.path.join(src, f), columns=["url", "text"])
        for u, x in zip(t["url"].to_pylist(), t["text"].to_pylist()):
            in_crc[u] = zlib.crc32(x.encode())

    out_dir = str(tmp_path / "out")
    ds = ray.data.read_parquet(src)
    ds = ds.map_batches(
        make_geocoder(WEBMERC.bbox, key_column="url", cell_res=12), batch_format="pyarrow"
    )
    ds = ds.map_batches(token_count_batch, batch_format="pyarrow")
    ds = ds.repartition(8, shuffle=True)  # force data movement
    ds.write_parquet(out_dir)

    out = ray.data.read_parquet(out_dir, columns=["url", "text"])
    mismatches = 0
    seen = 0
    for batch in out.iter_batches(batch_size=4096, batch_format="pyarrow"):
        for u, x in zip(batch["url"].to_pylist(), batch["text"].to_pylist()):
            seen += 1
            if in_crc[u] != zlib.crc32(x.encode()):
                mismatches += 1
    assert seen == 2000
    assert mismatches == 0


@pytest.mark.usefixtures("ray_session")
def test_error_list_roundtrip(tmp_path):
    """status=error rows -> error.list file -> tiles_file source re-run."""
    from tilecloud_chain_ray.sinks.error_list import write_error_list
    from tilecloud_chain_ray.sources.tiles_file import tiles_file_dataset

    tiles = ray.data.from_items(
        [
            {"z": 0, "x": 5, "y": 7, "n": 1, "status": "stored", "error": None},
            {"z": 2, "x": 16, "y": 32, "n": 8, "status": "error", "error": "boom\nmultiline"},
            {"z": 3, "x": 58, "y": 70, "n": 1, "status": "error", "error": "timeout"},
        ]
    )
    path = str(tmp_path / "error.list")
    n = write_error_list(tiles, path)
    assert n == 2
    lines = open(path).read().splitlines()
    assert len(lines) == 2
    assert all("#" in line for line in lines)
    rerun = tiles_file_dataset(path, "point_hash", "swissgrid_5").take_all()
    assert {(r["z"], r["x"], r["y"], r["n"]) for r in rerun} == {
        (2, 16, 32, 8),
        (3, 58, 70, 1),
    }


@pytest.mark.usefixtures("ray_session")
def test_grouped_approx_distinct_within_error():
    import numpy as np
    import pyarrow as pa
    import ray

    from tilecloud_chain_ray.stages.sketch import grouped_approx_distinct

    rng = np.random.default_rng(9)
    n = 60_000
    groups = np.where(rng.random(n) < 0.5, "a", "b")
    # distinct universes of different sizes per group
    keys = np.where(
        groups == "a",
        rng.integers(0, 5_000, n),
        rng.integers(0, 800, n),
    ).astype(np.int64)
    ds = ray.data.from_arrow(
        pa.Table.from_pydict({"g": pa.array(groups.tolist()), "k": pa.array(keys)})
    ).repartition(8)
    out = {r["g"]: r["approx_distinct"] for r in grouped_approx_distinct(ds, "g", "k").take_all()}
    for g in ("a", "b"):
        exact = len(np.unique(keys[groups == g]))
        assert abs(out[g] - exact) / exact < 0.05, (g, out[g], exact)


@pytest.mark.usefixtures("ray_session")
def test_hll_merge_kernel_null_group_keeps_real_groups():
    """A null group co-located with real groups (always so at exchange
    width 1) must not relabel its registers as the last real group."""
    import numpy as np
    import pyarrow as pa
    import ray

    from tilecloud_chain_ray.stages.sketch import _hll_merge_kernel, _hll_registers
    from tilecloud_chain_ray.util import hash_group_blocks

    p = 8
    keys = {"a": np.arange(100), "b": np.arange(1000, 1030), None: np.arange(5000, 9000)}
    sketches = pa.table(
        {
            "g": pa.array([g for g in keys for _ in range(2)]),
            "regs": pa.array(
                [_hll_registers(k[i::2], p).tolist() for k in keys.values() for i in range(2)],
                pa.list_(pa.uint8()),
            ),
        }
    )
    kernel = _hll_merge_kernel("g", "approx_distinct", p)
    direct = kernel(sketches).to_pylist()
    via_exchange = hash_group_blocks(
        ray.data.from_arrow(sketches), ["g"], kernel, num_partitions=1
    ).take_all()
    for rows in (direct, via_exchange):
        assert sorted(r["g"] for r in rows) == ["a", "b"], rows
        out = {r["g"]: r["approx_distinct"] for r in rows}
        assert abs(out["a"] - 100) <= 10 and abs(out["b"] - 30) <= 3, out


@pytest.mark.usefixtures("ray_session")
def test_skew_join_matches_plain_join():
    """Hot keys through the broadcast map-side path produce exactly the
    plain bucketed join's rows (one key holding 50% of the left side)."""
    import numpy as np
    import pyarrow as pa
    import ray

    import pandas as pd

    from tilecloud_chain_ray.stages.join import hash_join

    rng = np.random.default_rng(5)
    n = 20_000
    keys = np.where(rng.random(n) < 0.5, 7, rng.integers(0, 2_000, n)).astype(np.int64)
    left = ray.data.from_arrow(
        pa.Table.from_pydict({"k": pa.array(keys), "lv": pa.array(np.arange(n))})
    ).repartition(8)
    rkeys = np.arange(0, 2_000, dtype=np.int64)  # includes the hot key once
    right = ray.data.from_arrow(
        pa.Table.from_pydict({"k": pa.array(rkeys), "rv": pa.array(rkeys * 10)})
    )

    def norm(ds):
        return (
            ds.to_pandas()
            .sort_values(["k", "lv"])
            .reset_index(drop=True)[["k", "lv", "rv"]]
        )

    plain = norm(hash_join(left, right, on="k", how="inner"))
    skew = norm(hash_join(left, right, on="k", how="inner", skew_keys=[7]))
    # values identical; the skew path deliberately normalizes int value
    # columns to float64 for a deterministic union schema
    pd.testing.assert_frame_equal(plain, skew, check_dtype=False)
    assert (plain["k"] == 7).sum() > 9000
    # deterministic schema: every skew-output block agrees (the live
    # failure mode was int64 blocks from the hot path unioned with
    # float64 blocks from the null-padded bucketed path)
    left_j = hash_join(left, right, on="k", how="left", skew_keys=[7, 999_999])
    kinds = {
        tuple(str(t) for t in b.schema.types)
        for b in left_j.iter_batches(batch_size=4096, batch_format="pyarrow")
        if b.num_rows
    }
    assert len(kinds) == 1, kinds


@pytest.mark.usefixtures("ray_session")
def test_skew_join_auto_detection():
    """skew_keys='auto' (Misra-Gries pre-pass) finds a planted 30%-hot
    key by itself and produces exactly the plain bucketed join's rows;
    a skew-free input must take the plain path untouched."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from tilecloud_chain_ray.stages.join import hash_join
    from tilecloud_chain_ray.stages.sketch import heavy_hitters

    rng = np.random.default_rng(6)
    n = 30_000
    keys = np.where(rng.random(n) < 0.3, 42, rng.integers(0, 3_000, n)).astype(
        np.int64
    )
    left_tbl = pa.Table.from_pydict({"k": pa.array(keys), "lv": pa.array(np.arange(n))})
    left = ray.data.from_arrow(left_tbl).repartition(8)
    rkeys = np.arange(0, 3_000, dtype=np.int64)
    right = ray.data.from_arrow(
        pa.Table.from_pydict({"k": pa.array(rkeys), "rv": pa.array(rkeys * 10)})
    )

    # the detector itself surfaces the planted key (and only heavy ones)
    hot = heavy_hitters(left.select_columns(["k"]), "k", capacity=64, min_share=0.05)
    assert 42 in hot["key"].to_pylist()

    def norm(ds):
        return (
            ds.to_pandas()
            .sort_values(["k", "lv"])
            .reset_index(drop=True)[["k", "lv", "rv"]]
        )

    plain = norm(hash_join(left, right, on="k", how="inner"))
    auto = norm(hash_join(left, right, on="k", how="inner", skew_keys="auto"))
    pd.testing.assert_frame_equal(plain, auto, check_dtype=False)
    assert (auto["k"] == 42).sum() > 8000

    # skew-free input: detection returns nothing, plain path, dtypes kept
    flat_keys = rng.integers(0, 3_000, n).astype(np.int64)
    flat = ray.data.from_arrow(
        pa.Table.from_pydict({"k": pa.array(flat_keys), "lv": pa.array(np.arange(n))})
    ).repartition(8)
    out = hash_join(flat, right, on="k", how="inner", skew_keys="auto")
    got = norm(out)
    want = norm(hash_join(flat, right, on="k", how="inner"))
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.usefixtures("ray_session")
def test_bloom_anti_join_exact_under_false_positives():
    """A deliberately tiny bitmap (high FP rate) must still give the
    exact anti-join thanks to the residue verification pass."""
    import numpy as np
    import pyarrow as pa
    import ray

    from tilecloud_chain_ray.stages.bloom import bloom_anti_join, bloom_build_block, bloom_contains

    left_keys = np.arange(10_000, dtype=np.int64)
    right_keys = np.arange(0, 10_000, 7, dtype=np.int64)  # every 7th present
    left = ray.data.from_arrow(
        pa.Table.from_pydict({"k": pa.array(left_keys), "v": pa.array(left_keys * 2)})
    ).repartition(6)
    right = ray.data.from_arrow(pa.Table.from_pydict({"k": pa.array(right_keys)}))
    # bits_per_key=2 -> FP rate ~38%: the prefilter alone would be wrong
    out = bloom_anti_join(left, right, on="k", n_keys_hint=len(right_keys), bits_per_key=2)
    got = sorted(r["k"] for r in out.take_all())
    want = sorted(set(left_keys.tolist()) - set(right_keys.tolist()))
    assert got == want
    # and the filter itself has NO false negatives by construction
    bm = bloom_build_block(right_keys, 256, 3)
    assert bloom_contains(bm, right_keys, 256, 3).all()


@pytest.mark.usefixtures("ray_session")
def test_asof_join_high_cardinality_bucketed():
    """asof_join must scale with the exchange width, not distinct keys:
    100k distinct keys / 200k rows through the partitioned path, equal to a
    single-process pandas merge_asof(by=key) reference, inside a loose
    wall-time bound (the old per-key groupby took minutes here)."""
    import time

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from tilecloud_chain_ray.stages.join import asof_join

    rng = np.random.default_rng(42)
    n_keys, n_left, n_right = 100_000, 100_000, 100_000
    lkey = rng.integers(0, n_keys, n_left).astype(np.int64)
    lts = rng.integers(0, 10_000_000, n_left).astype(np.int64)
    rkey = rng.integers(0, n_keys, n_right).astype(np.int64)
    rts = rng.integers(0, 10_000_000, n_right).astype(np.int64)
    left = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"k": pa.array(lkey), "t": pa.array(lts), "lid": pa.array(np.arange(n_left))}
        )
    ).repartition(8)
    right = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"k": pa.array(rkey), "t": pa.array(rts), "val": pa.array(rts * 3)}
        )
    ).repartition(8)

    t0 = time.perf_counter()
    got = (
        asof_join(left, right, key="k", ts="t", right_cols=["val"], strict=True)
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"bucketed asof took {elapsed:.1f}s"

    ldf = pd.DataFrame({"k": lkey, "t": lts, "lid": np.arange(n_left)}).sort_values(
        "t", kind="mergesort"
    )
    rdf = pd.DataFrame({"k": rkey, "t": rts, "r_val": rts * 3}).sort_values(
        "t", kind="mergesort"
    )
    want = (
        pd.merge_asof(ldf, rdf, on="t", by="k", allow_exact_matches=False, direction="backward")
        .sort_values("lid")
        .reset_index(drop=True)
    )
    assert len(got) == n_left
    pd.testing.assert_series_equal(
        got["r_val"], want["r_val"], check_dtype=False, check_names=False
    )


@pytest.mark.usefixtures("ray_session")
def test_hash_join_inner_preserves_int_dtypes():
    """Inner joins can never null-pad, so integer value columns must
    come out with their input types (the float64 widening applies only
    under how="left", and only to the right side)."""
    import pyarrow as pa
    import ray

    from tilecloud_chain_ray.stages.join import hash_join

    left = ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "k": pa.array([1, 2, 3], pa.int64()),
                "a": pa.array([10, 20, 30], pa.int32()),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "k": pa.array([2, 3, 4], pa.int64()),
                "b": pa.array([7, 8, 9], pa.int64()),
            }
        )
    )
    inner = hash_join(left, right, on="k", how="inner")
    schema = {f.name: f.type for b in inner.iter_batches(batch_format="pyarrow") for f in b.schema}
    assert schema["a"] == pa.int32(), schema
    assert schema["b"] == pa.int64(), schema
    got = sorted((r["k"], r["a"], r["b"]) for r in inner.take_all())
    assert got == [(2, 20, 7), (3, 30, 8)]

    # left join: left side keeps ints, right side widens (carries nulls)
    lj = hash_join(left, right, on="k", how="left")
    schema = {f.name: f.type for b in lj.iter_batches(batch_format="pyarrow") for f in b.schema}
    assert schema["a"] == pa.int32(), schema
    assert schema["b"] == pa.float64(), schema


@pytest.mark.usefixtures("ray_session")
def test_bloom_anti_join_distributed_residue_equals_driver(on_cluster):
    """The cluster placement routes the flagged residue through the
    bucketed arrow anti-join; at bits_per_key=2 (~38% FP) both paths
    must produce the exact anti-join with identical schema."""
    import numpy as np
    import pyarrow as pa
    import ray

    from tilecloud_chain_ray.stages.bloom import bloom_anti_join

    rng = np.random.default_rng(9)
    left_keys = rng.integers(0, 50_000, 30_000).astype(np.int64)
    right_keys = np.unique(rng.integers(0, 50_000, 20_000)).astype(np.int64)
    # duplicate right keys on purpose: the anti-check must not fan out
    right_dup = np.concatenate([right_keys, right_keys[:500]])
    left = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"k": pa.array(left_keys), "v": pa.array((left_keys * 3).astype(np.int32), pa.int32())}
        )
    ).repartition(6)
    right = ray.data.from_arrow(pa.Table.from_pydict({"k": pa.array(right_dup)}))

    kw = dict(on="k", n_keys_hint=len(right_keys), bits_per_key=2)
    driver = bloom_anti_join(left, right, **kw)
    with on_cluster():
        dist = bloom_anti_join(left, right, **kw)
    want = sorted(
        (int(k), int(k) * 3) for k in left_keys if k not in set(right_keys.tolist())
    )
    got_driver = sorted((r["k"], r["v"]) for r in driver.take_all())
    got_dist = sorted((r["k"], r["v"]) for r in dist.take_all())
    assert got_driver == want
    assert got_dist == want
    # schema parity across physical paths (int32 column survives)
    kinds = {
        tuple(str(t) for t in b.schema.types)
        for b in dist.iter_batches(batch_format="pyarrow")
        if b.num_rows
    }
    assert kinds == {("int64", "int32")}, kinds


@pytest.mark.usefixtures("ray_session")
def test_bloom_build_tree_reduce_equals_driver_merge(on_cluster, monkeypatch):
    """The task-tree-reduced bitmap build (the cluster placement) must
    produce bit-identical output to the driver OR-merge."""
    import numpy as np
    import pyarrow as pa
    import ray

    from tilecloud_chain_ray import util
    from tilecloud_chain_ray.stages.bloom import build_bloom

    tree_keys = []
    orig = util.hash_group_blocks

    def spy(ds, keys, kernel, num_partitions=None):
        tree_keys.append(keys)
        return orig(ds, keys, kernel, num_partitions)

    monkeypatch.setattr(util, "hash_group_blocks", spy)
    keys = np.arange(0, 100_000, 3, dtype=np.int64)
    ds = ray.data.from_arrow(pa.Table.from_pydict({"k": pa.array(keys)})).repartition(10)
    bm_driver, nb1, k1 = build_bloom(ds, "k", len(keys))
    assert tree_keys == []  # ten partials of 53 KiB: the driver ORs them
    with on_cluster():
        bm_tree, nb2, k2 = build_bloom(ds, "k", len(keys))
    assert tree_keys == [["slot"]]
    assert (nb1, k1) == (nb2, k2)
    assert np.array_equal(bm_driver, bm_tree)


@pytest.mark.usefixtures("ray_session")
def test_grouped_approx_quantiles_tdigest():
    """Mergeable t-digest quantiles: per-group rank error well within
    the k1-scale bound, regardless of block layout."""
    import numpy as np
    import pyarrow as pa
    import ray

    from tilecloud_chain_ray.stages.sketch import grouped_approx_quantiles

    rng = np.random.default_rng(11)
    gs, vs = [], []
    dists = {
        0: rng.lognormal(0, 1, 60_000),  # heavy tail
        1: rng.normal(100, 15, 40_000),
        2: rng.integers(0, 10, 20_000).astype(float),  # discrete
    }
    for g, v in dists.items():
        gs.append(np.full(len(v), g, dtype=np.int64))
        vs.append(v)
    tbl = pa.table({"g": np.concatenate(gs), "v": np.concatenate(vs)})
    qs = (0.1, 0.5, 0.9, 0.99)
    ds = ray.data.from_arrow(tbl).repartition(9)
    out = {
        int(r["g"]): [r[f"q_{q}"] for q in qs]
        for r in grouped_approx_quantiles(ds, "g", "v", qs=qs).take_all()
    }
    assert set(out) == set(dists)
    for g, v in dists.items():
        if g == 2:
            # discrete atoms: interpolation smears rank at the atom
            # boundaries, but the VALUE estimate is within half a step
            exact = np.quantile(v, qs)
            assert np.abs(np.asarray(out[g]) - exact).max() < 0.5, (g, out[g])
            continue
        sv = np.sort(v)
        ranks = np.searchsorted(sv, out[g]) / len(sv)
        # rank error < 0.005 at delta=200 (observed ~3e-4)
        assert np.abs(ranks - np.asarray(qs)).max() < 0.005, (g, ranks)


@pytest.mark.usefixtures("ray_session")
def test_heavy_hitters_misra_gries():
    """Misra-Gries guarantee over a Zipf stream: every key with true
    frequency > n/(capacity+1) is present, and [count_lo, count_hi]
    brackets the true count — regardless of block layout."""
    import numpy as np
    import pyarrow as pa
    import ray

    from tilecloud_chain_ray.stages.sketch import heavy_hitters

    rng = np.random.default_rng(31)
    keys = rng.zipf(1.4, 300_000).astype(np.int64)
    keys = keys[keys < 10_000]
    n = len(keys)
    true = {int(k): int(c) for k, c in zip(*np.unique(keys, return_counts=True))}

    ds = ray.data.from_arrow(pa.table({"k": keys})).repartition(7)
    cap = 128
    out = heavy_hitters(ds, "k", capacity=cap)
    got = {
        int(k): (int(lo), int(hi))
        for k, lo, hi in zip(
            out["key"].to_pylist(), out["count_lo"].to_pylist(), out["count_hi"].to_pylist()
        )
    }
    guarantee = n / (cap + 1)
    for k, c in true.items():
        if c > guarantee:
            assert k in got, (k, c, guarantee)
    for k, (lo, hi) in got.items():
        assert lo <= true.get(k, 0) <= hi, (k, lo, true.get(k, 0), hi)

    # min_share drops the long tail but keeps the top key
    top_key = max(true, key=true.get)
    filtered = heavy_hitters(ds, "k", capacity=cap, min_share=0.02)
    assert top_key in set(filtered["key"].to_pylist())


@pytest.mark.usefixtures("ray_session")
def test_sketch_and_sample_empty_inputs():
    """Empty datasets (whose blocks Ray passes through without running
    the UDF) return canonical empty results, not schema errors."""
    import numpy as np
    import pyarrow as pa
    import ray

    from tilecloud_chain_ray.stages.curation import weighted_sample
    from tilecloud_chain_ray.stages.sketch import heavy_hitters

    empty = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.float64()),
            }
        )
    )
    hh = heavy_hitters(empty, "k")
    assert hh.num_rows == 0 and hh.schema.names == ["key", "count_lo", "count_hi"]
    ws = weighted_sample(empty, k=5)
    assert ws.num_rows == 0 and "priority" in ws.schema.names
