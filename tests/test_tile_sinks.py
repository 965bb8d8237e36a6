"""The tile sinks of both tile pipelines: ``out_wmts`` writes every stored
tile at its WMTS path and ``out_parquet`` writes the whole tile table
partitioned by zoom and returns it read back.  The digests pin the
written tile files and the returned rows."""

import hashlib
import os

import pytest

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.grid import WEBMERC
from tilecloud_chain_ray.queries import _point_hash_layer
from tilecloud_chain_ray.sinks.wmts import tile_path

# sha256 of (relative path, bytes) of every written WMTS file, and of
# (z, x, y, status, data) of every returned row, both in sorted order
EXPECTED = {
    "generate": (
        "292e33a8a5fae099cf39d8cd366a98f2db8d806c56c290325f597e35e82ecc70",
        "577bfd0f213a6f1531b6cf975d6d482e115e78ede3b6bce2733e936d219ca747",
    ),
    "density": (
        "5de18e7a67edbbba7b10af8df724e5e7802242e4f955886d7d1fd3d098a22a5a",
        "c07f3ebb7fe40370ee6a787ca75b2f741613f3c676316f83ff5eaafd4aca0baa",
    ),
}


def _files_digest(root):
    h = hashlib.sha256()
    for d, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _rows_digest(rows):
    h = hashlib.sha256()
    for z, x, y, status, data in sorted(
        (int(r["z"]), r["x"], r["y"], r["status"], r["data"] or b"") for r in rows
    ):
        h.update(f"{z}/{x}/{y}/{status}".encode())
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def _run(pipeline, **sinks):
    import ray

    if pipeline == "generate":
        from tilecloud_chain_ray.pipelines.generate import generate_tiles

        layer = _point_hash_layer(meta=True)
        return layer, generate_tiles(layer, with_summary=False, **sinks)
    from tilecloud_chain_ray.pipelines.density import density_pyramid
    from tilecloud_chain_ray.stages.geocode import make_geocoder

    docs = ray.data.range(2000).map_batches(
        lambda b: b.rename_columns(["doc_id"]), batch_format="pyarrow"
    ).map_batches(make_geocoder(WEBMERC.bbox, "doc_id", cell_res=12), batch_format="pyarrow")
    layer = Layer(name="doc_density", grid=WEBMERC, meta=False)
    return layer, density_pyramid(docs, layer, zooms=[0, 1, 2], with_summary=False, **sinks)


@pytest.mark.parametrize("pipeline", ["generate", "density"])
def test_wmts_and_parquet_sinks(ray_session, tmp_path, pipeline):
    wmts, pq_dir = str(tmp_path / "wmts"), str(tmp_path / "tiles")
    layer, result = _run(pipeline, out_wmts=wmts, out_parquet=pq_dir)
    rows = result.tiles.take_all()
    stored = {
        tile_path(wmts, layer, int(r["z"]), r["x"], r["y"])
        for r in rows
        if r["status"] == "stored"
    }
    written = {os.path.join(d, n) for d, _, names in os.walk(wmts) for n in names}
    assert stored and written == stored
    zooms = sorted({int(r["z"]) for r in rows})
    assert sorted(os.listdir(pq_dir)) == [f"z={z}" for z in zooms]
    # the sinks change nothing in the rows: the same chain without them
    _, plain = _run(pipeline)
    assert _rows_digest(rows) == _rows_digest(plain.tiles.take_all())
    assert (_files_digest(wmts), _rows_digest(rows)) == EXPECTED[pipeline]
