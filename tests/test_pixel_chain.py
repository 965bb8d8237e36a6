"""Metatiles handed from renderer to splitter as pixels: the pixel-space
metatile drop and the pixel splitter agree with hashing and cropping the
PNG they replace, and both pipelines share one chain."""

import dataclasses

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.functions.png import decode_png, encode_png
from tilecloud_chain_ray.geom import MultiPoint, Point
from tilecloud_chain_ray.grid import SWISSGRID_5
from tilecloud_chain_ray.pipelines.generate import PIXEL_BATCH, generate_tiles, tile_chain
from tilecloud_chain_ray.pipelines.resumable import (
    generate_resumable,
    plan_partitions,
    read_tiles,
)
from tilecloud_chain_ray.sources.enumerate import expand_intervals_batch
from tilecloud_chain_ray.stages.geom_filter import CoordGeomFilter
from tilecloud_chain_ray.stages.hashdrop import (
    _empty_signature_px,
    empty_signatures,
    make_hash_dropper,
    signature,
)
from tilecloud_chain_ray.stages.render import (
    BACKGROUND,
    GeometryRenderer,
    background_png,
    pixel_images,
    pixels_array,
)
from tilecloud_chain_ray.stages.split import MetatileSplitter, split_pixels
from tilecloud_chain_ray.wmts_server import default_tile_source, split_metatile

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


def background(side: int) -> np.ndarray:
    img = np.empty((side, side, 4), dtype=np.uint8)
    img[:] = BACKGROUND
    return img


def pixel_batch(images: list[np.ndarray]) -> pa.Table:
    offsets = np.cumsum([0] + [img.nbytes for img in images])
    flat = np.concatenate([img.reshape(-1) for img in images])
    return pa.table({"pixels": pixels_array(flat, offsets)})


def coord_rows(layer: Layer, zooms) -> pa.Table:
    parts = plan_partitions(layer, zooms, max_coords_per_partition=1 << 20)
    coords = pa.concat_tables([expand_intervals_batch(p) for p in parts])
    return CoordGeomFilter(layer, layer.geoms_per_zoom())(coords)


@given(
    side=st.sampled_from([4, 16, 40]),
    kind=st.sampled_from(["background", "pixel", "alpha", "uniform"]),
    where=st.integers(0, 10**6),
    value=st.integers(0, 255),
)
@settings(max_examples=60, deadline=None)
def test_pixel_drop_agrees_with_png_signature(side, kind, where, value):
    img = background(side)
    row, col = divmod(where % (side * side), side)
    if kind == "pixel":
        ch = where % 3
        img[row, col, ch] = value if value != BACKGROUND[ch] else value + 1
    elif kind == "alpha":
        img[row, col, 3] = value if value != BACKGROUND[3] else value - 1
    elif kind == "uniform":
        img[:] = (value, where % 256, 7, 255)
    by_png = signature(encode_png(img)) == _empty_signature_px(side)
    out = make_hash_dropper(_empty_signature_px(side), "meta_dropped")(pixel_batch([img]))
    assert (out["status"][0].as_py() == "meta_dropped") == by_png
    assert by_png == (kind == "background")
    # the pixels survive untouched (zero-copy views, no re-encode)
    assert (pixel_images(out["pixels"])[0] == img).all()


def test_split_from_pixels_equals_split_from_png():
    ts, n, buf = 16, 3, 5
    rng = np.random.default_rng(1)
    img = background(n * ts + 2 * buf)
    img[buf + 2 : buf + 6, buf + 3 : buf + 9] = rng.integers(0, 256, (4, 6, 4), dtype=np.uint8)
    img[buf + 2 * ts + 7, buf + ts + 1, 3] = 17  # one alpha value
    img[0, 0] = (1, 2, 3, 4)  # in the buffer: no child sees it
    decoded = decode_png(encode_png(img))
    by_png = [
        encode_png(
            np.ascontiguousarray(
                decoded[buf + dy * ts : buf + (dy + 1) * ts, buf + dx * ts : buf + (dx + 1) * ts]
            )
        )
        for dy in range(n)
        for dx in range(n)
    ]
    by_pixels = [png for _, _, png in split_pixels(img, n, ts, buf)]
    assert by_pixels == by_png
    assert sum(png == background_png(ts) for png in by_pixels) == n * n - 2
    assert background_png(ts) == encode_png(background(ts))


def test_splitter_decodes_png_metatiles_to_the_same_children():
    layer = point_layer(meta_size=2, meta_buffer=16, min_resolution_seed=None)
    coords = coord_rows(layer, [0, 1])
    rendered = GeometryRenderer(layer)(coords)
    as_png = rendered.drop_columns(["pixels"]).append_column(
        "data",
        pa.array([encode_png(img) for img in pixel_images(rendered["pixels"])], pa.binary()),
    )
    a = MetatileSplitter(layer)(rendered)
    b = MetatileSplitter(layer)(as_png)
    assert a.select(b.schema.names).equals(b)


def test_pinned_non_empty_metatile_signature_drops_exactly_that_metatile():
    layer = point_layer(meta_size=2, meta_buffer=16, min_resolution_seed=None)
    coords = coord_rows(layer, [0, 1, 2])
    assert coords.num_rows > PIXEL_BATCH  # the chain runs in several pieces
    images = pixel_images(GeometryRenderer(layer)(coords)["pixels"])
    sigs = [signature(encode_png(img)) for img in images]
    sig_meta, sig_tile = empty_signatures(layer)
    target = next(i for i, s in enumerate(sigs) if s != sig_meta)
    pinned = dataclasses.replace(layer, empty_metatile=sigs[target])

    out = tile_chain(pinned, pinned.empty_metatile, sig_tile, GeometryRenderer(pinned))(coords)
    dropped = [
        (z, x, y)
        for z, x, y, s in zip(
            out["z"].to_pylist(), out["x"].to_pylist(), out["y"].to_pylist(),
            out["status"].to_pylist(),
        )
        if s == "meta_dropped"
    ]
    c = coords.slice(target, 1)
    assert dropped == [(c["z"][0].as_py(), c["x"][0].as_py(), c["y"][0].as_py())]


def test_serving_path_splits_pixels_like_png():
    layer = point_layer(meta_size=2, meta_buffer=16, min_resolution_seed=None)
    source = default_tile_source(layer)
    c = coord_rows(layer, [1]).slice(0, 1)
    z, x, y, n = (int(c[k][0].as_py()) for k in ("z", "x", "y", "n"))
    img = source(z, x, y, n)
    assert isinstance(img, np.ndarray)
    assert list(split_metatile(layer, img, x, y, n)) == list(
        split_metatile(layer, encode_png(img), x, y, n)
    )


@pytest.mark.usefixtures("ray_session")
def test_auto_empty_false_drops_no_metatile():
    result = generate_tiles(point_layer(), zooms=[0, 1], auto_empty=False, concurrency=2)
    assert result.summary["metatiles_dropped"] == 0
    assert result.summary["tiles_dropped"] == 0
    assert result.summary["tiles_generated"] > 0


@pytest.mark.usefixtures("ray_session")
def test_generate_and_resumable_share_the_chain(tmp_path):
    layer = point_layer()

    def rows(records):
        return sorted(
            (r["z"], r["x"], r["y"], r["status"], r["sha1"]) for r in records
        )

    streamed = rows(generate_tiles(layer, concurrency=2, with_summary=False).tiles.take_all())
    summary = generate_resumable(layer, str(tmp_path / "pyramid"))
    assert summary["tiles_generated"] == 384
    assert summary["metatiles_dropped"] == 4
    resumed = rows(read_tiles(str(tmp_path / "pyramid")).take_all())
    assert resumed == streamed
    assert sum(1 for r in streamed if r[3] == "stored") == 8
