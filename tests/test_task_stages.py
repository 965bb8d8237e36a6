"""Every stage whose per-worker state is cheap runs as a plain task map.

Such a stage passes Ray a callable instance, or builds its state once
per worker process with ``util.process_cached``; no plan below holds an
actor-pool operator (the one actor pool left is the HTTP fetch pool,
``stages/fetch.fetch_tiles``).  A callable instance also checks its
arguments on the driver, when the stage is added.
"""

import pyarrow as pa
import pytest
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.geom import MultiPoint, Point, box
from tilecloud_chain_ray.grid import SWISSGRID_5

pytestmark = pytest.mark.usefixtures("ray_session")


def _media() -> ray.data.Dataset:
    from tilecloud_chain_ray.stages.multimodal import synthesize_media

    return ray.data.from_arrow(synthesize_media(4, codec="png").select(["media_id", "payload"]))


def test_media_hashers_and_decoder_are_task_maps(actor_pools):
    from tilecloud_chain_ray.stages.audio_dedup import audio_hashes
    from tilecloud_chain_ray.stages.image_dedup import image_hashes
    from tilecloud_chain_ray.stages.multimodal import decode_media

    media = _media()
    for ds in (image_hashes(media), audio_hashes(media), decode_media(media, codec="png")):
        assert actor_pools(ds) == []
    # the real run: four PNGs decode and hash on plain tasks
    assert image_hashes(media, method="phash").count() == 4
    assert decode_media(media, codec="png").count() == 4


def test_decoder_rejects_a_codec_on_the_driver():
    from tilecloud_chain_ray.stages.multimodal import decode_media

    with pytest.raises(NotImplementedError, match="avif"):
        decode_media(_media(), codec="avif")


def test_pip_join_is_a_task_map(actor_pools):
    from tilecloud_chain_ray.stages.pip_join import pip_join

    pts = ray.data.from_arrow(pa.table({"x": [0.5, 2.5, 9.0], "y": [0.5, 2.5, 9.0]}))
    joined = pip_join(pts, [("a", box(0, 0, 1, 1)), ("b", box(2, 2, 3, 3))])
    assert actor_pools(joined) == []
    got = {(r["x"], r["layer"]) for r in joined.take_all()}
    assert got == {(0.5, "a"), (2.5, "b"), (9.0, None)}


@pytest.mark.parametrize("role", ["local", "master"])
def test_generate_tiles_has_no_actor_pool(actor_pools, tmp_path, role):
    from tilecloud_chain_ray.pipelines.generate import generate_tiles
    from tilecloud_chain_ray.sources.enumerate import sparse_coord_dataset

    layer = Layer(
        name="point",
        grid=SWISSGRID_5,
        geometries=(MultiPoint((Point(600000, 200000), Point(530000, 150000))),),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )
    assert actor_pools(sparse_coord_dataset(layer)) == []
    tiles = generate_tiles(
        layer, role=role, out_wmts=str(tmp_path / "wmts"), with_summary=False
    ).tiles
    assert actor_pools(tiles) == []
    assert sum(r["status"] == "stored" for r in tiles.take_all()) == 8
