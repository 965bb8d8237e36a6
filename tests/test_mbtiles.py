"""MBTiles single-file store roundtrip vs the WMTS filesystem layout
(reference mbtiles cache type, top-left row convention)."""

import glob
import os

import pytest

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.geom import MultiPoint, Point
from tilecloud_chain_ray.grid import SWISSGRID_5
from tilecloud_chain_ray.sinks.mbtiles import MBTilesStore, to_dataset, write_mbtiles


@pytest.fixture(scope="module")
def generated(ray_session, tmp_path_factory):
    from tilecloud_chain_ray.pipelines.generate import generate_tiles

    out = tmp_path_factory.mktemp("mbt")
    layer = Layer(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(MultiPoint((Point(600000, 200000), Point(530000, 150000))),),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )
    wmts = str(out / "wmts")
    result = generate_tiles(layer, out_wmts=wmts)
    mb_path = str(out / "tiles.mbtiles")
    n = write_mbtiles(result.tiles, mb_path, layer=layer)
    return layer, wmts, mb_path, n


def test_roundtrip_coords_and_bytes_match_wmts(generated):
    layer, wmts, mb_path, n = generated
    assert n == 8  # the stored golden set

    # WMTS layout files: 1.0.0/<layer>/<style>/<matrix>/<row>/<col>.png
    fs = {}
    for p in glob.glob(os.path.join(wmts, "**", "*.png"), recursive=True):
        parts = p.split(os.sep)
        z, row, col = int(parts[-3]), int(parts[-2]), int(parts[-1][:-4])
        with open(p, "rb") as fh:
            fs[(z, col, row)] = fh.read()
    assert len(fs) == 8

    store = MBTilesStore(mb_path)
    assert store.count() == 8
    for (z, x, y), data in fs.items():
        assert store.get(z, x, y) == data
    assert store.metadata()["name"] == "point_hash"
    assert store.metadata()["format"] == "png"
    store.close()

    ds = to_dataset(mb_path)
    rows = {(r["z"], r["x"], r["y"]): r["data"] for r in ds.take_all()}
    assert rows.keys() == fs.keys()
    for k in fs:
        assert rows[k] == fs[k]


def test_tms_flip_convention(tmp_path):
    path = str(tmp_path / "t.mbtiles")
    store = MBTilesStore(path, topleft=False)
    store.put_many([(2, 1, 0, b"abc")])  # y=0 topleft -> TMS row 3
    raw = store.conn.execute("SELECT tile_row FROM tiles").fetchone()[0]
    assert raw == 3
    assert store.get(2, 1, 0) == b"abc"
    store.close()
    ds = to_dataset(path, topleft=False)
    assert ds.take_all()[0]["y"] == 0
