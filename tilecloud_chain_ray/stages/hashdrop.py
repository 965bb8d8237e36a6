"""Constant-hash empty-tile drop (M6) + hash logger (M7).

``HashDropper`` semantics (``/root/reference/tilecloud_chain/__init__.py:
2442-2493``): a tile whose payload has exactly the configured (size,
sha1) is "empty" and dropped.  Here dropping is in-band: the row's
``data`` becomes null and ``status`` records the drop level, so
downstream counters/lineage see every row (the reference's counter
wiring, ``generate.py:305-334``) while the heavy bytes are freed.

Rows that carry a ``pixels`` column (metatiles the local renderer hands
to the splitter, see ``stages/render.py``) are checked in pixel space,
with the same outcome as hashing their PNG: ``encode_png`` is lossless
and deterministic, so ``signature(encode_png(img))`` equals the
geometry-free render's signature exactly when every pixel of ``img`` is
the background.  Only a configured signature that is not the
background's (a pinned ``empty_metatile``) makes a row encode at level 6
and compare.  A dropped pixel row keeps its pixels (the batch shares one
buffer, so nulling one row would free nothing); its status marks it.

``signature`` / ``empty_signatures`` replace the ``--get-hash``
discovery tool (``HashLogger``, ``__init__.py:2572-2611``): they render
a geometry-free (meta)tile once and freeze its (size, sha1).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pyarrow as pa

from tilecloud_chain_ray.config import EmptyHash, Layer
from tilecloud_chain_ray.functions.png import encode_png
from tilecloud_chain_ray.stages.render import background_png, is_background, pixel_images


def signature(data: bytes) -> EmptyHash:
    return EmptyHash(size=len(data), sha1=hashlib.sha1(data).hexdigest())


@lru_cache(maxsize=64)
def _empty_signature_px(size_px: int, png_level: int = 6) -> EmptyHash:
    """Signature of a geometry-free square render: depends only on the
    pixel size and the constant background — cached (the big metatile
    encode costs ~0.3 s of driver time otherwise)."""
    return signature(background_png(size_px, png_level))


def empty_signatures(layer: Layer, png_level: int = 6) -> tuple[EmptyHash, EmptyHash]:
    """(empty_metatile, empty_tile) signatures for this layer's renderer.
    ``png_level`` must match the zlib level the render path encodes
    with, or no tile can ever match the signature."""
    ts = layer.grid.tile_size
    meta_px = layer.meta_size * ts + 2 * layer.meta_buffer if layer.meta else ts
    return _empty_signature_px(meta_px, png_level), _empty_signature_px(ts, png_level)


def make_hash_dropper(empty: EmptyHash | None, level: str):
    """Per-batch dropper; ``level`` is the status to stamp on matches
    (``meta_dropped`` before the splitter, ``dropped`` after)."""

    def is_empty_image(img: np.ndarray) -> bool:
        """``signature(encode_png(img)) == empty``, in pixel space unless
        ``empty`` is not the background's signature."""
        background_empty = _empty_signature_px(img.shape[0]) == empty
        if is_background(img):
            return background_empty
        return not background_empty and signature(encode_png(img)) == empty

    def drop(batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        has_status = "status" in batch.schema.names
        statuses = batch["status"].to_pylist() if has_status else ["generated"] * n_rows
        sizes = np.zeros(n_rows, dtype=np.int64)
        cols = dict(zip(batch.schema.names, batch.columns))
        if "pixels" in cols:
            for i, img in enumerate(pixel_images(batch["pixels"])):
                if img is None or statuses[i] not in ("generated", None):
                    continue
                sizes[i] = img.nbytes
                if empty is not None and is_empty_image(img):
                    statuses[i] = level
        else:
            blobs = cols["data"].to_pylist() if "data" in cols else [None] * n_rows
            new_data: list[bytes | None] = [None] * n_rows
            for i in range(n_rows):
                blob = blobs[i]
                if blob is None or statuses[i] not in ("generated", None):
                    continue
                sizes[i] = len(blob)
                # size check first: sha1 only when the cheap gate matches
                if empty is not None and len(blob) == empty.size:
                    if hashlib.sha1(blob).hexdigest() == empty.sha1:
                        statuses[i] = level
                        continue
                new_data[i] = blob
            cols["data"] = pa.array(new_data, pa.binary())
        cols["status"] = pa.array(statuses, pa.string())
        cols["size"] = pa.array(sizes, pa.int64())
        return pa.Table.from_pydict(cols)

    return drop


def finalize_tiles(batch: pa.Table) -> pa.Table:
    """Stamp surviving rows 'stored' and add their sha1 column
    (the tiles-table schema of SURVEY.md §1.4)."""
    statuses = batch["status"].to_pylist()
    blobs = batch["data"].to_pylist()
    sha1s: list[str | None] = [None] * batch.num_rows
    for i in range(batch.num_rows):
        if statuses[i] == "generated" and blobs[i] is not None:
            statuses[i] = "stored"
            sha1s[i] = hashlib.sha1(blobs[i]).hexdigest()
    cols = dict(zip(batch.schema.names, batch.columns))
    cols["status"] = pa.array(statuses, pa.string())
    cols["sha1"] = pa.array(sha1s, pa.string())
    return pa.Table.from_pydict(cols)
