"""Ray Dataset enumeration + geometry filter: golden parity."""

import numpy as np
import pytest

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.geom import MultiPoint, Point, Polygon, box
from tilecloud_chain_ray.geom.ops import box_intersects, box_intersects_many
from tilecloud_chain_ray.grid import SWISSGRID_5
from tilecloud_chain_ray.sources.enumerate import dense_coord_dataset, sparse_coord_dataset
from tilecloud_chain_ray.stages.geom_filter import add_geom_filter

POINTS = MultiPoint((Point(600000, 200000), Point(530000, 150000)))


def point_layer(**kw):
    defaults = dict(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(POINTS,),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )
    defaults.update(kw)
    return Layer(**defaults)


def test_box_intersects_many_matches_scalar():
    rng = np.random.default_rng(5)
    geoms = [
        POINTS,
        Polygon([(530000, 150000), (600000, 150000), (600000, 200000), (530000, 200000)]),
        box(500000, 100000, 700000, 250000),
    ]
    boxes = np.column_stack(
        [
            rng.uniform(400000, 900000, 300),
            rng.uniform(30000, 350000, 300),
            np.zeros(300),
            np.zeros(300),
        ]
    )
    boxes[:, 2] = boxes[:, 0] + rng.uniform(1000, 120000, 300)
    boxes[:, 3] = boxes[:, 1] + rng.uniform(1000, 120000, 300)
    for geom in geoms:
        vec = box_intersects_many(geom, boxes)
        ref = np.array([box_intersects(geom, tuple(b)) for b in boxes])
        assert (vec == ref).all()


@pytest.mark.usefixtures("ray_session")
def test_dense_dataset_filtered_ten_metatiles():
    layer = point_layer()
    ds = dense_coord_dataset(layer)
    filtered = add_geom_filter(ds, layer)
    rows = filtered.take_all()
    assert len(rows) == 10
    by_zoom = {}
    for r in rows:
        by_zoom[r["z"]] = by_zoom.get(r["z"], 0) + 1
        assert r["n"] == 8
        assert r["x"] % 8 == 0 and r["y"] % 8 == 0
        assert r["layer"] == "point_hash" and r["grid"] == "swissgrid_5"
    assert by_zoom == {0: 1, 1: 1, 2: 6, 3: 2}


@pytest.mark.usefixtures("ray_session")
def test_sparse_dataset_six_jobs():
    layer = point_layer(name="point")
    ds = sparse_coord_dataset(layer)
    rows = ds.take_all()
    got = {(r["z"], r["x"], r["y"]) for r in rows}
    assert got == {
        (0, 0, 0),
        (1, 8, 8),
        (2, 32, 24),
        (2, 16, 32),
        (3, 64, 56),
        (3, 40, 72),
    }


@pytest.mark.usefixtures("ray_session")
def test_dense_dataset_247_no_meta():
    layer = Layer(name="nm", grid=SWISSGRID_5, meta=False)
    ds = dense_coord_dataset(layer, zooms=[0])
    assert ds.count() == 247


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("concurrency", [2, (1, 4)])
def test_sparse_walk_is_a_task_map(actor_pools, concurrency):
    """The band walk is a plain task map (no actor pool, whose object-store
    constructor arguments break its restart), refuses the pool-size knob
    in both of its former forms, and gives exactly the coords of walking
    every band row of every zoom on the driver."""
    import pyarrow as pa

    from tilecloud_chain_ray.coords import sparse_row_intervals
    from tilecloud_chain_ray.sources.enumerate import expand_intervals_batch, intervals_to_table

    layer = point_layer(
        name="mixed",
        geometries=(
            POINTS,
            Polygon([(560000, 120000), (640000, 130000), (600000, 210000)]),
        ),
        min_resolution_seed=12,
    )
    with pytest.raises(TypeError, match="concurrency"):
        sparse_coord_dataset(layer, concurrency=concurrency)
    ds = sparse_coord_dataset(layer)
    assert actor_pools(ds) == []

    geoms = layer.geoms_per_zoom()
    ref = expand_intervals_batch(
        intervals_to_table(
            [iv for z in layer.seed_zooms() for iv in sparse_row_intervals(layer, geoms[z], z)],
            layer.name,
            layer.grid.name,
        )
    )
    key = lambda t: sorted(zip(*(t[c].to_pylist() for c in ("z", "x", "y", "n"))))  # noqa: E731
    got = pa.concat_tables(ds.iter_batches(batch_format="pyarrow"))
    assert key(got) == key(ref) and got.num_rows > 6
