"""Remaining reference goldens + new operators: matrix_identifier=
resolution runs, UTFGrid vector tiles, legend dedup, status rollup,
multi-grid union."""

import glob
import json
import os

import pytest

from tilecloud_chain_ray.config import Dimension, Layer
from tilecloud_chain_ray.functions.legend import dedup_legends
from tilecloud_chain_ray.geom import Polygon
from tilecloud_chain_ray.grid import SWISSGRID_01, SWISSGRID_5
from tilecloud_chain_ray.pipelines.generate import (
    generate_tiles,
    generate_tiles_multi_grid,
)
from tilecloud_chain_ray.stages.vector_render import UTFGridRenderer, render_utfgrid

POLYGON = Polygon(
    [(600000, 200000), (600000, 150000), (530000, 150000), (530000, 200000), (600000, 200000)]
)
DATE = Dimension(name="DATE", default="2012", generate=("2012",), values=("2005", "2010", "2012"))


def polygon2_layer():
    # reference layer polygon2: swissgrid_01, meta 8, matrix_identifier=resolution
    return Layer(
        name="polygon2",
        grid=SWISSGRID_01,
        geometries=(POLYGON,),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        dimensions=(DATE,),
    )


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "zoom,matrix,rows,cols,stored",
    [
        (0, "1", range(585, 592), range(429, 432), 21),
        (1, "0_2", range(2929, 2936), range(2148, 2152), 28),
        (2, "0_1", range(5859, 5864), range(4296, 4304), 40),
    ],
)
def test_zoom_identifier_golden(tmp_path, zoom, matrix, rows, cols, stored):
    # reference test_generate.py:1102-1184: -t 1 (first metatile only),
    # one zoom at a time; exact stored tile sets under resolution paths
    out = str(tmp_path / "tiles")
    result = generate_tiles(polygon2_layer(), zooms=[zoom], test_n=1, out_wmts=out)
    assert result.summary["metatiles_generated"] == 1
    assert result.summary["metatiles_dropped"] == 0
    assert result.summary["tiles_generated"] == 64
    assert result.summary["tiles_stored"] == stored
    files = sorted(glob.glob(os.path.join(out, "**", "*.png"), recursive=True))
    rel = {os.path.relpath(f, out) for f in files}
    expected = {
        f"1.0.0/polygon2/default/2012/swissgrid_01/{matrix}/{r}/{c}.png"
        for r in rows
        for c in cols
    }
    assert rel == expected


def test_render_utfgrid_basic():
    doc = render_utfgrid(
        [("poly", POLYGON)],
        extent=(520000, 140000, 610000, 210000),
        tile_size=256,
        resolution=16,
    )
    assert len(doc["grid"]) == 16
    assert all(len(row) == 16 for row in doc["grid"])
    assert doc["keys"] == ["", "1"]
    assert doc["data"]["1"]["name"] == "poly"
    # polygon occupies the middle of the extent
    assert any("!" in row for row in doc["grid"])  # id 1 -> chr(33) = '!'
    # empty extent -> no keys
    empty = render_utfgrid([("poly", POLYGON)], (0, 0, 100, 100), 256, 16)
    assert empty["keys"] == [""]


@pytest.mark.usefixtures("ray_session")
def test_utfgrid_pipeline_drop_empty(tmp_path):
    # mapnik_grid_drop analog: vector tiles, empties dropped
    layer = Layer(
        name="polygon_grid",
        grid=SWISSGRID_5,
        geometries=(POLYGON,),
        meta=False,
        extension="json",
        mime_type="application/utfgrid",
    )
    from tilecloud_chain_ray.sources.enumerate import dense_coord_dataset
    from tilecloud_chain_ray.stages.geom_filter import add_geom_filter

    coords = dense_coord_dataset(layer, zooms=[0])
    coords = add_geom_filter(coords, layer)
    tiles = coords.map_batches(
        UTFGridRenderer(layer=layer, drop_empty=True), batch_format="pyarrow"
    )
    rows = tiles.take_all()
    assert len(rows) == 12  # all 12 filtered tiles reach the renderer
    kept = [r for r in rows if r["status"] == "generated"]
    dropped = [r for r in rows if r["status"] == "dropped"]
    # tiles whose polygon sliver is below the 16px sample resolution
    # drop (drop_empty_utfgrid semantics); with this fixture that is
    # the 3 edge tiles
    assert len(kept) == 9 and len(dropped) == 3
    assert all(r["data"] is None for r in dropped)
    doc = json.loads(kept[0]["data"])
    assert doc["data"][doc["keys"][1]]["name"] == "polygon_grid_0"


def test_legend_dedup():
    imgs = [(100.0, b"A"), (50.0, b"A"), (20.0, b"B"), (10.0, b"B"), (5.0, b"C")]
    bands = dedup_legends(imgs)
    assert [b.image for b in bands] == [b"A", b"B", b"C"]
    assert bands[0].max_resolution is None
    assert bands[0].min_resolution == pytest.approx((50 * 20) ** 0.5)
    assert bands[1].min_resolution == pytest.approx((10 * 5) ** 0.5)
    assert bands[2].min_resolution is None
    assert dedup_legends([]) == []


@pytest.mark.usefixtures("ray_session")
def test_status_rollup(tmp_path):
    from tilecloud_chain_ray.geom import MultiPoint, Point
    from tilecloud_chain_ray.pipelines.resumable import generate_resumable
    from tilecloud_chain_ray.sinks.lineage import status_rollup

    layer = Layer(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(MultiPoint((Point(600000, 200000), Point(530000, 150000))),),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )
    out = str(tmp_path / "p")
    generate_resumable(layer, out, max_coords_per_partition=4, fail_partitions={1})
    roll = status_rollup(out)
    assert any(c["status"] == "error" for c in roll["counts"])
    assert len(roll["recent_errors"]) == 1
    assert "injected" in roll["recent_errors"][0]["error"]
    assert roll["eta_seconds"] is not None


@pytest.mark.usefixtures("ray_session")
def test_multi_grid_union():
    from tilecloud_chain_ray.grid import SWISSGRID_2_5

    base = dict(geometries=(POLYGON,), meta=False)
    layers = [
        Layer(name="polygon", grid=SWISSGRID_5, **base),
    ]
    result = generate_tiles_multi_grid(
        [Layer(name="polygon", grid=SWISSGRID_5, **base)],
        zooms=[0],
    )
    assert result.summary["tiles_stored"] == 12


@pytest.mark.usefixtures("ray_session")
def test_multigeom_golden(tmp_path):
    """Reference test_multigeom (test_generate.py:1026-1098): layer pp,
    polygon geometry for coarse zooms, point geometry for resolutions
    10..20 (per-source min/max_resolution), meta=false -> exactly 51
    stored tiles."""
    from tilecloud_chain_ray.config import GeometrySource
    from tilecloud_chain_ray.geom import MultiPoint, Point
    from tilecloud_chain_ray.grid import Grid

    grid4 = Grid(
        name="swissgrid_5",
        resolutions=(100, 50, 20, 10),
        bbox=(420000, 30000, 900000, 350000),
        srs="EPSG:21781",
    )
    points = MultiPoint((Point(600000, 200000), Point(530000, 150000)))
    layer = Layer(
        name="pp",
        grid=grid4,
        geometries=(
            GeometrySource(POLYGON),
            GeometrySource(points, min_resolution=10, max_resolution=20),
        ),
        meta=False,
        dimensions=(DATE,),
    )
    out = str(tmp_path / "tiles")
    result = generate_tiles(layer, out_wmts=out)
    assert result.summary["tiles_generated"] == 51
    assert result.summary["tiles_dropped"] == 0
    assert result.summary["tiles_stored"] == 51
    files = sorted(glob.glob(os.path.join(out, "**", "*.png"), recursive=True))
    got = set()
    for f in files:
        parts = os.path.relpath(f, out).split(os.sep)
        z, row, col = int(parts[-3]), int(parts[-2]), int(parts[-1].split(".")[0])
        got.add((z, row, col))
    expected = (
        {(0, r, c) for r in range(5, 8) for c in range(4, 8)}
        | {(1, r, c) for r in range(11, 16) for c in range(8, 15)}
        | {(2, 29, 35), (2, 39, 21), (3, 78, 42), (3, 58, 70)}
    )
    assert got == expected
