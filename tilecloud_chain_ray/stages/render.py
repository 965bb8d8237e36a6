"""Deterministic metatile renderer (A1/A2 analog).

The reference fetches metatile images from WMS/Mapnik
(``/root/reference/tilecloud_chain/store/url.py:29-145``,
``store/mapnik_.py:16-114``); this environment has no network or map
server, so the engine renders deterministically itself:

* ``GeometryRenderer`` — rasterizes the layer geometries (points as
  single pixels, lines sampled, polygons PIP-filled over pixel
  centers).  Gives renderer-independent parity with the reference's
  structural goldens: a child tile is non-empty iff geometry touches it.
  It is a batch kernel for ``map_batches`` (state: decoded geometries
  and their STRtree, built once per worker process through
  ``util.process_cached``); ``content_type`` = image/png.
* ``render_density_image`` — shades one tile's per-pixel page counts;
  ``pipelines.density`` calls it once per tile.

Both write each RGBA pixel as one native-order ``uint32`` word
(``_words``): filling a metatile that way is ~50x faster than numpy's
4-byte broadcast of a color, and the bytes are the same
(``tests/test_render_words.py``).

``GeometryRenderer`` on a non-meta layer emits PNG bytes in column
``data``.  On a meta layer it emits column ``pixels`` instead: the raw
RGBA rows of every metatile of the batch in one contiguous
``large_binary`` buffer (``pixels_array``), which the metatile
hash-drop and the splitter read as zero-copy numpy views
(``pixel_images``).  The metatile PNG is internal to the chain, never
stored, so it is never encoded.
"""

from __future__ import annotations

import math
import zlib
from functools import lru_cache

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.functions.png import encode_png, is_uniform
from tilecloud_chain_ray.geom import Geometry, LineString, Point, Polygon
from tilecloud_chain_ray.geom.geometry import iter_leaves
from tilecloud_chain_ray.geom.ops import points_in_polygon

BACKGROUND = np.array([240, 240, 240, 255], dtype=np.uint8)


def _words(img: np.ndarray) -> np.ndarray:
    """The (h, w) ``uint32`` view of the (h, w, 4) ``uint8`` image
    ``img``: one word per RGBA pixel, in native byte order."""
    return img.view(np.uint32)[..., 0]


def _word(color: np.ndarray) -> np.uint32:
    """The 4-byte RGBA ``color`` as the word ``_words`` stores for it."""
    return np.ascontiguousarray(color, dtype=np.uint8).view(np.uint32)[0]


_BACKGROUND_WORD = _word(BACKGROUND)


def is_background(img: np.ndarray) -> bool:
    """Every pixel of the RGBA image ``img`` is ``BACKGROUND``."""
    return bool((img[0, 0] == BACKGROUND).all()) and is_uniform(img)


@lru_cache(maxsize=64)
def background_png(side: int, level: int = 6) -> bytes:
    """``encode_png`` of a geometry-free ``side``² render."""
    img = np.empty((side, side, 4), dtype=np.uint8)
    _words(img).fill(_BACKGROUND_WORD)
    return encode_png(img, level=level)


def pixels_array(
    pixels: np.ndarray, offsets: np.ndarray, valid: np.ndarray | None = None
) -> pa.Array:
    """Wrap the flat uint8 buffer ``pixels`` (row ``i`` is
    ``pixels[offsets[i]:offsets[i + 1]]``, null where ``valid`` is
    False) as a ``large_binary`` array without copying it."""
    validity = pa.array(valid, pa.bool_()).buffers()[1] if valid is not None else None
    return pa.Array.from_buffers(
        pa.large_binary(),
        len(offsets) - 1,
        [validity, pa.py_buffer(offsets.astype(np.int64, copy=False)), pa.py_buffer(pixels)],
    )


def pixel_images(column: pa.ChunkedArray | pa.Array) -> list[np.ndarray | None]:
    """Zero-copy (side, side, 4) uint8 views of a ``pixels`` column of
    square RGBA images; None for null rows."""
    chunks = column.chunks if isinstance(column, pa.ChunkedArray) else [column]
    out: list[np.ndarray | None] = []
    for chunk in chunks:
        n = len(chunk)
        if n == 0:
            continue
        _, offsets_buf, data_buf = chunk.buffers()
        offsets = np.frombuffer(offsets_buf, np.int64)[chunk.offset : chunk.offset + n + 1]
        data = np.frombuffer(data_buf, np.uint8) if data_buf is not None else None
        valid = chunk.is_valid().to_numpy(zero_copy_only=False)
        for i in range(n):
            if not valid[i]:
                out.append(None)
                continue
            row = data[offsets[i] : offsets[i + 1]]
            side = math.isqrt(len(row) // 4)
            out.append(row.reshape(side, side, 4))
    return out


def layer_color(name: str) -> np.ndarray:
    h = zlib.crc32(name.encode())
    return np.array([(h >> 16) & 0xFF, (h >> 8) & 0xFF, h & 0xFF, 255], dtype=np.uint8)


def render_geometries(
    geoms: list[Geometry],
    extent: tuple[float, float, float, float],
    size: tuple[int, int],
    color: np.ndarray,
) -> np.ndarray:
    """Rasterize geometries into an RGBA image over ``extent``."""
    return render_leaves(list(iter_leaves_all(geoms)), extent, size, color)


def render_leaves(
    leaves: list[Geometry],
    extent: tuple[float, float, float, float],
    size: tuple[int, int],
    color: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rasterize leaf geometries into an RGBA image over ``extent``.

    Pixel (row 0, col 0) is the top-left; pixel centers sample the map.
    ``out``, a (height, width, 4) uint8 array whose rows are C-contiguous
    (a window of a larger C-ordered image is), receives the image when
    given.
    """
    width, height = size
    minx, miny, maxx, maxy = extent
    resx = (maxx - minx) / width
    resy = (maxy - miny) / height
    if out is None:
        img = np.empty((height, width, 4), dtype=np.uint8)
    elif out.dtype != np.uint8 or out.shape != (height, width, 4) or out.strides[1:] != (4, 1):
        raise ValueError(
            f"out must be a ({height}, {width}, 4) uint8 array with C-contiguous rows"
        )
    else:
        img = out
    words = _words(img)
    words.fill(_BACKGROUND_WORD)
    ink = _word(color)

    def to_px(mx, my):
        col = np.floor((np.asarray(mx) - minx) / resx).astype(np.int64)
        row = np.floor((maxy - np.asarray(my)) / resy).astype(np.int64)
        return col, row

    for leaf in leaves:
        if isinstance(leaf, Point):
            col, row = to_px(leaf.x, leaf.y)
            if 0 <= col < width and 0 <= row < height:
                words[row, col] = ink
        elif isinstance(leaf, LineString):
            c = leaf.coords
            for i in range(len(c) - 1):
                seg_len_px = (
                    abs(c[i + 1, 0] - c[i, 0]) / resx + abs(c[i + 1, 1] - c[i, 1]) / resy
                )
                steps = max(2, int(seg_len_px * 2) + 1)
                t = np.linspace(0.0, 1.0, steps)
                col, row = to_px(
                    c[i, 0] + t * (c[i + 1, 0] - c[i, 0]),
                    c[i, 1] + t * (c[i + 1, 1] - c[i, 1]),
                )
                ok = (col >= 0) & (col < width) & (row >= 0) & (row < height)
                words[row[ok], col[ok]] = ink
        elif isinstance(leaf, Polygon):
            gminx, gminy, gmaxx, gmaxy = leaf.bounds
            c0 = max(0, int(np.floor((gminx - minx) / resx)))
            c1 = min(width, int(np.ceil((gmaxx - minx) / resx)) + 1)
            r0 = max(0, int(np.floor((maxy - gmaxy) / resy)))
            r1 = min(height, int(np.ceil((maxy - gminy) / resy)) + 1)
            if c0 >= c1 or r0 >= r1:
                continue
            cols = np.arange(c0, c1)
            rows = np.arange(r0, r1)
            px = minx + (cols + 0.5) * resx
            py = maxy - (rows + 0.5) * resy
            gx, gy = np.meshgrid(px, py)
            inside = points_in_polygon(gx.ravel(), gy.ravel(), leaf).reshape(len(rows), len(cols))
            words[r0:r1, c0:c1][inside] = ink
    return img


def iter_leaves_all(geoms):
    for g in geoms:
        yield from iter_leaves(g)


class GeometryRenderer:
    """Render each (meta)tile coord row from the layer geometries.

    On a meta layer a call holds every metatile of its batch as pixels
    (21 MiB each at meta_size 8, buffer 128, 256 px tiles), so callers
    keep batches small; ``pipelines.generate.tile_chain`` renders at
    most ``PIXEL_BATCH`` metatiles at a time."""

    def __init__(self, layer: Layer, geoms_ref=None) -> None:
        from tilecloud_chain_ray.geom.strtree import STRtree

        self.layer = layer
        geoms = ray.get(geoms_ref) if isinstance(geoms_ref, ray.ObjectRef) else geoms_ref
        raw = list(geoms) if geoms is not None else list(layer.geometries)
        # unwrap GeometrySource entries: the renderer draws every
        # source's data at every zoom (WMS renders all its layers; the
        # per-resolution bounds only steer seeding geometry)
        self.geoms = [getattr(g, "geometry", g) for g in raw]
        self.color = layer_color(layer.name)
        # per-process STRtree over leaf bounds: each render touches only
        # the leaves intersecting its extent, not every source geometry
        self.leaves = list(iter_leaves_all(self.geoms))
        self.tree = STRtree(
            np.array([lf.bounds for lf in self.leaves], dtype=np.float64).reshape(-1, 4)
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        grid = self.layer.grid
        buffer_px = self.layer.meta_buffer if self.layer.meta else 0
        z = batch["z"].to_numpy(zero_copy_only=False)
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        sides = n.astype(np.int64) * grid.tile_size + 2 * buffer_px
        if self.layer.meta:
            offsets = np.zeros(batch.num_rows + 1, dtype=np.int64)
            np.cumsum(sides * sides * 4, out=offsets[1:])
            pixels = np.empty(int(offsets[-1]), dtype=np.uint8)
        blobs = []
        for i in range(batch.num_rows):
            side = int(sides[i])
            extent = grid.extent(int(z[i]), int(x[i]), int(y[i]), int(n[i]), buffer_px)
            hit = [self.leaves[j] for j in self.tree.query(*extent)]
            if self.layer.meta:
                img = pixels[offsets[i] : offsets[i + 1]].reshape(side, side, 4)
                render_leaves(hit, extent, (side, side), self.color, out=img)
            else:
                blobs.append(encode_png(render_leaves(hit, extent, (side, side), self.color)))
        if self.layer.meta:
            out = batch.append_column("pixels", pixels_array(pixels, offsets))
        else:
            out = batch.append_column("data", pa.array(blobs, pa.binary()))
        return out.append_column(
            "content_type", pa.array(["image/png"] * batch.num_rows, pa.string())
        )


def render_density_image(
    cols: np.ndarray,
    rows: np.ndarray,
    counts: np.ndarray,
    size_px: int,
    color: np.ndarray,
    log_scale: bool = True,
) -> np.ndarray:
    """Shade per-pixel counts into a ``size_px``² RGBA image; pixels
    outside it are skipped."""
    img = np.empty((size_px, size_px, 4), dtype=np.uint8)
    words = _words(img)
    words.fill(_BACKGROUND_WORD)
    ok = (cols >= 0) & (cols < size_px) & (rows >= 0) & (rows < size_px)
    if ok.any():
        v = counts[ok].astype(np.float64)
        shade = (
            np.log1p(v) / np.log1p(max(v.max(), 1.0)) if log_scale else v / max(v.max(), 1.0)
        )
        px = np.empty((int(ok.sum()), 4), dtype=np.uint8)
        px[:, :3] = (
            BACKGROUND[:3].astype(np.float64) * (1 - shade[:, None])
            + color[:3].astype(np.float64) * shade[:, None]
        ).astype(np.uint8)
        px[:, 3] = 255
        words[rows[ok], cols[ok]] = px.view(np.uint32)[:, 0]
    return img

