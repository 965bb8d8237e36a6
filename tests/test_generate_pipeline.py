"""End-to-end generate pipeline vs the reference's golden counters.

Golden (reference tests/test_generate.py:1281-1316, point_hash):
10 metatiles generated, 4 dropped, 384 tiles generated, 376 dropped,
8 stored at exact (z, row, col) coordinates.
"""

import glob
import os

import numpy as np
import pytest

from tilecloud_chain_ray.config import Dimension, Layer
from tilecloud_chain_ray.functions.png import decode_png, encode_png, is_uniform
from tilecloud_chain_ray.geom import MultiPoint, Point, Polygon
from tilecloud_chain_ray.grid import SWISSGRID_5
from tilecloud_chain_ray.pipelines.generate import generate_tiles
from tilecloud_chain_ray.stages.hashdrop import empty_signatures

POINTS = MultiPoint((Point(600000, 200000), Point(530000, 150000)))
POLYGON = Polygon(
    [(600000, 200000), (600000, 150000), (530000, 150000), (530000, 200000), (600000, 200000)]
)
DATE = Dimension(name="DATE", default="2012", generate=("2012",), values=("2005", "2010", "2012"))


def point_hash_layer(**kw):
    defaults = dict(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(POINTS,),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
        dimensions=(DATE,),
    )
    defaults.update(kw)
    return Layer(**defaults)


def test_png_roundtrip():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (64, 48, 4), dtype=np.uint8)
    assert (decode_png(encode_png(img)) == img).all()
    flat = np.zeros((16, 16, 4), dtype=np.uint8)
    assert is_uniform(flat)
    flat[3, 3, 0] = 1
    assert not is_uniform(flat)


def test_empty_signatures_deterministic():
    layer = point_hash_layer()
    a = empty_signatures(layer)
    b = empty_signatures(layer)
    assert a == b
    assert a[0].size != a[1].size  # metatile PNG bigger than tile PNG


@pytest.mark.usefixtures("ray_session")
def test_point_hash_golden_run(tmp_path):
    layer = point_hash_layer()
    out = str(tmp_path / "tiles")
    result = generate_tiles(layer, out_wmts=out)
    assert result.summary == {
        "tiles_generated": 384,
        "tiles_dropped": 376,
        "tiles_stored": 8,
        "metatiles_dropped": 4,
        "metatiles_generated": 10,
    }
    files = sorted(glob.glob(os.path.join(out, "**", "*.png"), recursive=True))
    rel = [os.path.relpath(f, out) for f in files]
    expected = [
        ("point_hash", 0, 5, 7),
        ("point_hash", 0, 7, 4),
        ("point_hash", 1, 11, 14),
        ("point_hash", 1, 15, 8),
        ("point_hash", 2, 29, 35),
        ("point_hash", 2, 39, 21),
        ("point_hash", 3, 58, 70),
        ("point_hash", 3, 78, 42),
    ]
    assert rel == sorted(
        f"1.0.0/{name}/default/2012/swissgrid_5/{z}/{row}/{col}.png"
        for name, z, row, col in expected
    )
    # stored tiles contain the point pixel
    img = decode_png(open(files[0], "rb").read())
    assert img.shape == (256, 256, 4)
    assert not is_uniform(img)


@pytest.mark.usefixtures("ray_session")
def test_point_px_buffer_golden(tmp_path):
    # test_generate.py:1319-1344: px_buffer=100, zooms 0-2 -> 384 generated,
    # 378 dropped, 6 stored
    layer = point_hash_layer(name="point_px_buffer", px_buffer=100, min_resolution_seed=None)
    result = generate_tiles(layer, zooms=[0, 1, 2])
    assert result.summary["tiles_stored"] == 6
    assert result.summary["tiles_generated"] == 384
    assert result.summary["tiles_dropped"] == 378
    assert result.summary["metatiles_generated"] == 10
    assert result.summary["metatiles_dropped"] == 4


@pytest.mark.usefixtures("ray_session")
def test_polygon_no_meta(tmp_path):
    # polygon layer z0: 12 tiles generated; every tile intersecting the
    # polygon contains polygon pixels -> all 12 stored
    layer = Layer(
        name="polygon",
        grid=SWISSGRID_5,
        geometries=(POLYGON,),
        meta=False,
        dimensions=(DATE,),
    )
    result = generate_tiles(layer, zooms=[0])
    assert result.summary["tiles_generated"] == 12
    assert result.summary["tiles_stored"] == 12


@pytest.mark.usefixtures("ray_session")
def test_master_sparse_role(tmp_path):
    # master/slave parity (test_generate.py:1895-1930): sparse seed of 6
    # metatile jobs -> 384 generated; without empty-tile hashes everything
    # is stored (the reference's layer `point` has no hash config)
    layer = point_hash_layer(name="point")
    result = generate_tiles(layer, role="master", auto_empty=False)
    assert result.summary["tiles_generated"] == 384
    assert result.summary["tiles_stored"] == 384
    assert result.summary["metatiles_generated"] == 6
    assert result.summary["metatiles_dropped"] == 0


@pytest.mark.usefixtures("ray_session")
def test_zoom_filter_single(tmp_path):
    # --zoom 1 (test_generate.py:1218-1244): 1 metatile, 64 generated,
    # 62 dropped, 2 stored at (1,11,14),(1,15,8)
    layer = point_hash_layer()
    result = generate_tiles(layer, zooms=[1])
    assert result.summary == {
        "tiles_generated": 64,
        "tiles_dropped": 62,
        "tiles_stored": 2,
        "metatiles_dropped": 0,
        "metatiles_generated": 1,
    }


@pytest.mark.usefixtures("ray_session")
def test_zoom_filter_range(tmp_path):
    # --zoom 1-3 (test_generate.py:1246-1280): 9 metatiles, 4 dropped,
    # 320 generated, 314 dropped, 6 stored
    layer = point_hash_layer()
    result = generate_tiles(layer, zooms=[1, 2, 3])
    assert result.summary == {
        "tiles_generated": 320,
        "tiles_dropped": 314,
        "tiles_stored": 6,
        "metatiles_dropped": 4,
        "metatiles_generated": 9,
    }


@pytest.mark.usefixtures("ray_session")
def test_no_meta_dense_247(tmp_path):
    # point_hash_no_meta (test_generate.py:1743-1774): no geoms -> full
    # z0 matrix 247 tiles rendered; hash drop keeps the 2 point tiles
    # reference layer has NO geoms config: enumeration covers the
    # whole grid; the renderer still draws the point data (the WMS
    # would) -> render_geometries decouples content from seeding
    layer = Layer(
        name="point_hash_no_meta",
        grid=SWISSGRID_5,
        meta=False,
        dimensions=(DATE,),
    )
    result = generate_tiles(layer, zooms=[0], render_geometries=(POINTS,))
    assert result.summary["tiles_generated"] == 247
    assert result.summary["tiles_dropped"] == 245
    assert result.summary["tiles_stored"] == 2
