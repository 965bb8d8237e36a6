"""Metatile splitter (A3): one metatile row -> n*n child tile rows.

Reference semantics (``/root/reference/tilecloud_chain/__init__.py:
1483-1595``, splitter geometry ``cost.py:166-185``): crop ``tile_size``
windows offset by ``meta_buffer`` from the metatile image and encode
each child as PNG.  The metatile arrives as raw RGBA in column
``pixels`` (``stages/render.py``), and the crops are zero-copy views of
it; a PNG ``data`` column (a metatile fetched from a WMS server) is
decoded once into that form first.  A child that is all background
reuses one cached encoding of the background tile, byte-identical to
encoding it, so the tile hash-drop sees the same bytes.  Rows already
marked ``meta_dropped`` by the metatile hash drop pass through as
zero-child marker rows — preserving the reference's "dropped metatile
=> children never materialize" ordering (``generate.py:305-319``) while
keeping drop counts in-band.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
import pyarrow as pa

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.functions.png import decode_png, encode_png
from tilecloud_chain_ray.stages.render import (
    background_png,
    is_background,
    pixel_images,
    pixels_array,
)

_PASSTHROUGH_EXCLUDE = {"x", "y", "n", "data", "pixels", "status"}


def split_pixels(
    img: np.ndarray, n: int, tile_size: int, buffer_px: int
) -> Iterator[tuple[int, int, bytes]]:
    """Yield ``(dx, dy, png)`` for the n² children of the RGBA metatile
    ``img``, row by row."""
    for dy in range(n):
        for dx in range(n):
            crop = img[
                buffer_px + dy * tile_size : buffer_px + (dy + 1) * tile_size,
                buffer_px + dx * tile_size : buffer_px + (dx + 1) * tile_size,
            ]
            if is_background(crop):
                yield dx, dy, background_png(tile_size)
            else:
                yield dx, dy, encode_png(crop)


def decode_metatiles(batch: pa.Table) -> pa.Table:
    """Replace the PNG column ``data`` with the decoded RGBA ``pixels``."""
    images = [decode_png(b) if b is not None else None for b in batch["data"].to_pylist()]
    for img in images:
        if img is not None and img.shape[2] != 4:
            raise ValueError("expected an RGBA metatile")
    sizes = [img.nbytes if img is not None else 0 for img in images]
    offsets = np.zeros(len(images) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    flat = [img.reshape(-1) for img in images if img is not None]
    pixels = np.concatenate(flat) if flat else np.empty(0, dtype=np.uint8)
    valid = np.array([img is not None for img in images], dtype=bool)
    i = batch.schema.get_field_index("data")
    return batch.set_column(i, "pixels", pixels_array(pixels, offsets, valid))


class MetatileSplitter:
    def __init__(self, layer: Layer) -> None:
        self.layer = layer

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.layer.meta:
            if "status" not in batch.schema.names:
                batch = batch.append_column(
                    "status", pa.array(["generated"] * batch.num_rows, pa.string())
                )
            return batch
        if "pixels" not in batch.schema.names:
            batch = decode_metatiles(batch)
        ts = self.layer.grid.tile_size
        buf = self.layer.meta_buffer
        has_status = "status" in batch.schema.names
        statuses = (
            batch["status"].to_pylist() if has_status else ["generated"] * batch.num_rows
        )
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        images = pixel_images(batch["pixels"])

        take_idx: list[int] = []
        out_x: list[int] = []
        out_y: list[int] = []
        out_n: list[int] = []
        out_data: list[bytes | None] = []
        out_status: list[str] = []
        for i, img in enumerate(images):
            if statuses[i] == "meta_dropped" or img is None:
                take_idx.append(i)
                out_x.append(int(x[i]))
                out_y.append(int(y[i]))
                out_n.append(int(n[i]))
                out_data.append(None)
                out_status.append(statuses[i])
                continue
            for dx, dy, png in split_pixels(img, int(n[i]), ts, buf):
                take_idx.append(i)
                out_x.append(int(x[i]) + dx)
                out_y.append(int(y[i]) + dy)
                out_n.append(1)
                out_data.append(png)
                out_status.append("generated")

        carried = batch.select(
            [c for c in batch.schema.names if c not in _PASSTHROUGH_EXCLUDE]
        ).take(pa.array(take_idx, pa.int64()))
        out = carried.append_column("x", pa.array(out_x, pa.int64()))
        out = out.append_column("y", pa.array(out_y, pa.int64()))
        out = out.append_column("n", pa.array(out_n, pa.int32()))
        out = out.append_column("data", pa.array(out_data, pa.binary()))
        return out.append_column("status", pa.array(out_status, pa.string()))
