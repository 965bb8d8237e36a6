"""Source width sizing: ``sources.pages.read_pages`` reads a local page
table into ``util.exchange_width`` of its on-disk bytes (one block per
cluster core, raised per ``DataContext.target_max_block_size``) by file
group, with no Parquet sampling task and no ``strip_meta`` map, while
``util.read_parquet_clean`` keeps Ray's own read width.  The
enumeration sources cut their interval tables on the driver into one
block per core, raised per ``enumerate.BLOCK_UNIT`` of work and balanced
by coord count, with no repartition; ``generate_tiles`` renders each of
those blocks as its own task.  Tile output is the same at any width.

Widths are checked through public surfaces only: the keywords handed to
``ray.data.read_parquet`` (where it still reads), ``num_blocks()`` of a
materialized Dataset, the blocks behind ``to_arrow_refs()`` and the
plan string.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.geom import MultiPoint, Point, Polygon
from tilecloud_chain_ray.grid import SWISSGRID_5, Grid
from tilecloud_chain_ray.pipelines.generate import generate_tiles
from tilecloud_chain_ray.sources.enumerate import (
    BLOCK_UNIT,
    dense_coord_dataset,
    source_blocks,
    sparse_coord_dataset,
)
from tilecloud_chain_ray.sources.pages import read_pages
from tilecloud_chain_ray.util import exchange_width, read_parquet_clean

N_FILES = 16


def _mock_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(cpus)})


@pytest.fixture
def read_calls(monkeypatch) -> list[dict]:
    """Keywords of every ``ray.data.read_parquet`` call (the read still runs)."""
    calls: list[dict] = []
    real = ray.data.read_parquet

    def spy(paths, **kwargs):
        calls.append(kwargs)
        return real(paths, **kwargs)

    monkeypatch.setattr(ray.data, "read_parquet", spy)
    return calls


@pytest.fixture(scope="module")
def parquet_dir(tmp_path_factory) -> tuple[str, int]:
    """16 files of 2k rows (~30 KiB each on disk): the directory and its bytes."""
    d = tmp_path_factory.mktemp("source_sizing")
    rng = np.random.default_rng(11)
    for i in range(N_FILES):
        t = pa.table(
            {
                "k": pa.array(np.arange(2000) + 2000 * i, pa.int64()),
                "v": pa.array(rng.integers(0, 1 << 62, 2000), pa.int64()),
            }
        )
        pq.write_table(t, str(d / f"part_{i:02d}.parquet"))
    nbytes = sum(os.path.getsize(d / n) for n in os.listdir(d))
    return str(d), nbytes


@pytest.fixture
def schema_reads(monkeypatch) -> list[str]:
    """Paths of every ``pq.read_schema`` call (the read still runs)."""
    calls: list[str] = []
    real = pq.read_schema

    def spy(path, *args, **kwargs):
        calls.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(pq, "read_schema", spy)
    return calls


@pytest.mark.parametrize("cpus", [1, 4, 64])
def test_page_read_width_follows_cores(
    ray_session, monkeypatch, read_calls, schema_reads, parquet_dir, cpus
):
    path, nbytes = parquet_dir
    _mock_cpus(monkeypatch, cpus)
    assert exchange_width(nbytes) == cpus  # a sub-MiB input: the core count alone
    ds = read_pages(path).materialize()
    assert len(schema_reads) == 1  # listed once, handed on
    assert ds.schema().names == ["k", "v"]
    assert read_calls == []  # read by file group, not ray.data.read_parquet
    assert ds.num_blocks() == cpus  # with more cores than files, tasks yield slices
    assert ds.count() == N_FILES * 2000


def test_page_read_width_rises_with_bytes(ray_session, monkeypatch, read_calls, parquet_dir):
    path, nbytes = parquet_dir
    _mock_cpus(monkeypatch, 1)
    target = 64 << 10
    monkeypatch.setattr(ray.data.DataContext.get_current(), "target_max_block_size", target)
    expected = -(-nbytes // target)
    assert 1 < expected < N_FILES
    ds = read_pages(path, columns=["k"]).materialize()
    assert ds.num_blocks() == expected and ds.count() == N_FILES * 2000
    assert read_calls == []


@pytest.mark.parametrize("cpus", [1, 4, 64])
def test_page_read_rows_equal_pyarrow(ray_session, monkeypatch, parquet_dir, cpus):
    """Rows and their order are the files' own, read one after another."""
    path, _ = parquet_dir
    _mock_cpus(monkeypatch, cpus)
    want = pa.concat_tables(
        [pq.read_table(os.path.join(path, f), columns=["v", "k"]) for f in sorted(os.listdir(path))]
    )
    got = pa.concat_tables(ray.get(read_pages(path, columns=["v", "k"]).to_arrow_refs()))
    assert got.equals(want)


def test_page_read_blocks_stay_within_target(ray_session, monkeypatch, tmp_path):
    """A group whose rows outgrow the block target (compressible text:
    small on disk, large in memory) is yielded in slices within it, and
    the pandas schema metadata of the files is dropped."""
    import pandas as pd

    for i in range(3):
        df = pd.DataFrame({"k": np.arange(20000) + 20000 * i, "s": ["abc" * 10] * 20000})
        pq.write_table(pa.Table.from_pandas(df), str(tmp_path / f"p{i}.parquet"))
    _mock_cpus(monkeypatch, 1)
    target = 64 << 10
    monkeypatch.setattr(ray.data.DataContext.get_current(), "target_max_block_size", target)
    ds = read_pages(str(tmp_path)).materialize()
    blocks = ray.get(ds.to_arrow_refs())
    assert len(blocks) > 3 and max(b.nbytes for b in blocks) <= target
    assert all(b.schema.metadata is None for b in blocks)
    assert pa.concat_tables(blocks)["k"].to_pylist() == list(range(60000))


def test_page_read_plan_starts_no_task(ray_session, monkeypatch, parquet_dir):
    """Building the read plan submits no Ray task (Ray's Parquet reader
    samples files in tasks), and the plan has no ``strip_meta`` map."""
    from ray.remote_function import RemoteFunction

    path, _ = parquet_dir
    _mock_cpus(monkeypatch, 4)
    submitted: list[str] = []
    real = RemoteFunction._remote

    def spy(self, *args, **kwargs):
        submitted.append(self._function_name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", spy)
    ds = read_pages(path, columns=["k"])
    assert submitted == []
    monkeypatch.setattr(RemoteFunction, "_remote", real)
    ds = ds.materialize()
    assert "strip_meta" not in ds.stats() and "ReadPageFiles" in ds.stats()


def test_page_read_of_partitioned_dir_is_sized(ray_session, monkeypatch, read_calls, tmp_path):
    for lang in ("de", "en", "fr"):
        part = tmp_path / f"lang={lang}"
        part.mkdir()
        for i in range(2):
            pq.write_table(pa.table({"k": pa.array([i], pa.int64())}), str(part / f"{i}.parquet"))
    _mock_cpus(monkeypatch, 4)
    ds = read_pages(str(tmp_path)).materialize()
    assert [(c["override_num_blocks"], c["schema"]) for c in read_calls] == [(4, None)]
    assert sorted(ds.to_pandas()["lang"].tolist()) == ["de", "de", "en", "en", "fr", "fr"]


def test_read_parquet_clean_keeps_ray_width(ray_session, monkeypatch, read_calls, parquet_dir):
    path, _ = parquet_dir
    _mock_cpus(monkeypatch, 64)
    assert read_parquet_clean(path).count() == N_FILES * 2000
    ds = read_parquet_clean(path, override_num_blocks=3).materialize()
    assert ds.num_blocks() == 3
    assert "override_num_blocks" not in read_calls[0]
    assert read_calls[1]["override_num_blocks"] == 3


def test_remote_path_keeps_ray_default(monkeypatch):
    seen: list[dict] = []

    def fake_read_parquet(paths, **kwargs):
        seen.append(kwargs)
        return ray.data.from_items([{"k": 1}])

    monkeypatch.setattr(ray.data, "read_parquet", fake_read_parquet)
    read_pages("s3://bucket/pages", columns=["k"])
    read_parquet_clean(["s3://bucket/a.parquet", "s3://bucket/b.parquet"])
    assert seen == [{"columns": ["k"], "schema": None, "override_num_blocks": None}, {}]


POINTS = MultiPoint((Point(600000, 200000), Point(530000, 150000)))


def _point_layer() -> Layer:
    return Layer(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(POINTS,),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )


def _dense_layer(max_zoom: int) -> Layer:
    """A polygon on a 2048 km grid, meta_size 2: 16 metatiles at z0, x4 per zoom."""
    grid = Grid(
        name="g2048",
        resolutions=tuple(1000 / 2**z for z in range(max_zoom + 1)),
        bbox=(0, 0, 2048000, 2048000),
    )
    poly = Polygon(((100000, 100000), (1900000, 150000), (1000000, 1900000), (100000, 100000)))
    return Layer(name="dense", grid=grid, geometries=(poly,), meta=True, meta_size=2, meta_buffer=0)


def _sorted_coords(ds: ray.data.Dataset) -> list[tuple]:
    return sorted((r["z"], r["x"], r["y"]) for r in ds.take_all())


@pytest.mark.parametrize("cpus", [1, 4, 64])
@pytest.mark.parametrize("enumerate_fn", [dense_coord_dataset, sparse_coord_dataset])
def test_enumeration_blocks_follow_cores(ray_session, monkeypatch, enumerate_fn, cpus):
    layer = _point_layer()
    _mock_cpus(monkeypatch, 1)
    coords = _sorted_coords(enumerate_fn(layer))
    _mock_cpus(monkeypatch, cpus)
    ds = enumerate_fn(layer)
    assert "Repartition" not in str(ds)
    ds = ds.materialize()
    interval_rows = 7  # the point_hash layer: one band per seeded (zoom, row), 10 coords
    assert ds.num_blocks() == min(cpus, interval_rows)
    assert _sorted_coords(ds) == coords


@pytest.mark.parametrize("cpus", [0, 1, 4])
def test_dense_blocks_rise_with_coords_and_balance(ray_session, monkeypatch, cpus):
    """Above BLOCK_UNIT coords per core the block count follows the
    coord count, also on a head that reports no CPUs, and the cut
    balances coords, not interval rows (rows hold 4 to 64 coords)."""
    _mock_cpus(monkeypatch, cpus)
    ds = dense_coord_dataset(_dense_layer(4))
    sizes = [b.num_rows for b in ray.get(ds.to_arrow_refs())]
    total = sum(sizes)
    k = max(cpus, -(-total // BLOCK_UNIT))
    assert total > 4 * BLOCK_UNIT and len(sizes) == k
    assert max(sizes) - min(sizes) <= 64  # within one interval row of each other


def test_block_unit_rises_to_heaviest_row(ray_session, monkeypatch):
    """Rows are never split, so no block is cut lighter than the
    heaviest row: 100 one-coord rows then four 1000-coord rows make
    ceil(4100 / 1000) = 5 blocks, not ceil(4100 / BLOCK_UNIT) = 17."""
    _mock_cpus(monkeypatch, 1)
    weights = np.array([1] * 100 + [1000] * 4)
    ds = source_blocks(pa.table({"w": weights}), weights)
    assert [int(b["w"].to_numpy().sum()) for b in ray.get(ds.to_arrow_refs())] == [100] + [1000] * 4


def _tile_digests(tiles: ray.data.Dataset) -> list[tuple]:
    t = pa.concat_tables(ray.get(tiles.to_arrow_refs()))
    return sorted(
        (r["z"], r["x"], r["y"], r["status"], hashlib.sha1(r["data"] or b"").hexdigest())
        for r in t.select(["z", "x", "y", "status", "data"]).to_pylist()
    )


def test_generate_tiles_same_at_any_width(ray_session, monkeypatch, tmp_path):
    layer = _point_layer()
    outs = []
    for cpus in (1, 4):
        _mock_cpus(monkeypatch, cpus)
        result = generate_tiles(layer, out_parquet=str(tmp_path / f"cpus{cpus}"))
        outs.append((result.summary, _tile_digests(result.tiles)))
    assert outs[0] == outs[1]
    assert outs[0][0]["tiles_stored"] == 8


def test_generate_tiles_renders_each_source_block(ray_session, monkeypatch):
    """A dense job above 256 coords renders one task per source block
    (one output block each), with no bundling back into one task."""
    layer = _dense_layer(2)
    digests = []
    for cpus in (1, 4):
        _mock_cpus(monkeypatch, cpus)
        blocks = dense_coord_dataset(layer).materialize().num_blocks()
        tiles = generate_tiles(layer, with_summary=False).tiles.materialize()
        assert blocks > 1 and tiles.num_blocks() == blocks
        digests.append(_tile_digests(tiles))
    assert digests[0] == digests[1]
