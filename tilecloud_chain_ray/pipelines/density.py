"""Page-density tile pyramid: the graft flagship (north rule).

geocoded rows -> per-zoom pixel partial counts (:func:`pixel_partials`,
pre-aggregated inside map_batches so only (tile, pixel, count) rows
move) -> ONE tile-keyed task exchange -> data-driven tile rows (only
tiles that contain data — a z-14 pyramid never enumerates its empty
tiles) -> PNG render (stages/render.render_density_image) -> hash-drop
-> sinks (:func:`density_tiles`, shared with ``density_resumable``).

Tile/pixel alignment: 256-px tiles on a 2^z matrix (WEBMERC) make a
pixel at zoom z exactly a cell at res z+8, so per-pixel counts are
cell-count rollups — no re-binning of raw rows per zoom.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.functions.cells import cell_decode
from tilecloud_chain_ray.sinks.wmts import summarize, write_tiles_parquet, write_wmts
from tilecloud_chain_ray.stages.hashdrop import (
    empty_signatures,
    finalize_tiles,
    make_hash_dropper,
)
from tilecloud_chain_ray.util import hash_group_blocks

PARTIALS_BATCH_SIZE = 65536  # geocoded rows per pixel_partials call


def pixel_partials(cells: np.ndarray, zooms: Sequence[int]) -> pa.Table:
    """Cell ids -> per-pixel partial counts for EVERY zoom in one
    vectorized pass (np.unique combiner: only distinct pixels leave the
    batch).  Rows are ``(tile, pix, n)``: the packed tile id (uint64
    ``z<<44 | tx<<22 | ty`` — z<<60 would overflow int64 at high z), the
    packed pixel id (uint16 ``pcol<<8 | prow``) and the count — 18
    bytes a partial.  Zoom-major, each zoom's pixels in ascending
    ``(px, py)`` order.  The map stage of :func:`density_pyramid` and
    phase 1 of ``density_resumable`` both emit exactly this table."""
    res, cx, cy = cell_decode(cells)
    tiles, pixs, ns = [], [], []
    for zoom in zooms:
        pixel_res = zoom + 8
        shift = res - pixel_res
        if (shift < 0).any():
            raise ValueError(
                f"cell res {int(res.min())} coarser than pixel res {pixel_res} "
                f"(need zoom <= cell_res - 8); requested zooms {tuple(zooms)}"
            )
        px = (cx >> shift).astype(np.uint64)
        py = (cy >> shift).astype(np.uint64)
        packed = (px << np.uint64(22)) | py  # fits: z+8 <= 22 bits
        uniq, counts = np.unique(packed, return_counts=True)
        upx = uniq >> np.uint64(22)
        upy = uniq & np.uint64((1 << 22) - 1)
        tx, ty = upx >> np.uint64(8), upy >> np.uint64(8)
        tiles.append((np.uint64(zoom) << np.uint64(44)) | (tx << np.uint64(22)) | ty)
        pcol, prow = upx & np.uint64(255), upy & np.uint64(255)
        pixs.append(((pcol << np.uint64(8)) | prow).astype(np.uint16))
        ns.append(counts.astype(np.int64))
    return pa.table(
        {
            "tile": pa.array(np.concatenate(tiles), pa.uint64()),
            "pix": pa.array(np.concatenate(pixs), pa.uint16()),
            "n": pa.array(np.concatenate(ns)),
        }
    )


# NOTE: a per-(z,tx,ty) grouping variant ("tiles_with_pixels") used to
# live here; it was removed because a sort-based tile-key groupby is one
# Ray group per tile — the shape the round-1 ledger measured at 334 s.
# The only assembly path is the tile-keyed task exchange inside
# density_tiles below (one task per partition, not per tile).


def density_tiles(
    partials: ray.data.Dataset,
    layer: Layer,
    out_wmts: str | None = None,
) -> ray.data.Dataset:
    """Pixel partials (:func:`pixel_partials` rows) -> finalized tile
    rows: assemble, render + PNG, hash-drop, finalize, and with
    ``out_wmts`` the WMTS write.  The tail of both density pyramids.

    The partials move through one task exchange keyed on the packed
    tile id (util.hash_group_blocks, at
    :func:`~tilecloud_chain_ray.util.exchange_width`): each merge task sums every tile of its partition in one
    vectorized pass, so the per-call overhead amortizes over many
    tiles — never one Ray group per tile, which Ray's sort groupby
    packed into a handful of blocks (observed: effective parallelism
    ~1) — and the exchange can widen as far as its input's bytes ask.
    The encode stage downstream sees one block per non-empty partition,
    so its parallelism follows the exchange width.

    PNG level: user-pinned empty_tile_detection hashes (jobs/tcr.py
    get-hash) are computed at the level-6 encoding, and encoding at any
    other level would silently disable empty-tile dropping — so a layer
    with a pinned ``empty_tile`` encodes at 6, any other at 3.
    """
    from tilecloud_chain_ray.functions.png import encode_png
    from tilecloud_chain_ray.stages.render import layer_color, render_density_image

    png_level = 6 if layer.empty_tile is not None else 3
    ts = layer.grid.tile_size
    color = layer_color(layer.name)

    def assemble_partition(t: pa.Table) -> pa.Table:
        """Sum duplicate pixels and emit ONE ROW PER TILE carrying its
        pixel arrays — the cheap reduce leg.  PNG encoding is NOT done
        here: one merge task per hash partition (util.hash_group_blocks)
        emits tile rows so the encode stage re-splits into small
        map_batches tasks at full parallelism (the round-2 bench
        measured the render leg flat at 8 vs 32 cpus when it ran at
        sorted-block parallelism)."""
        if t.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "z": pa.array([], pa.int32()),
                    "x": pa.array([], pa.int64()),
                    "y": pa.array([], pa.int64()),
                    "pix": pa.array([], pa.binary()),
                    "pns": pa.array([], pa.binary()),
                }
            )
        full = (t["tile"].to_numpy().astype(np.uint64) << np.uint64(16)) | t[
            "pix"
        ].to_numpy().astype(np.uint64)
        n = t["n"].to_numpy()
        order = np.argsort(full, kind="stable")
        full, n = full[order], n[order]
        # collapse duplicate (tile, pixel) keys
        newpix = np.flatnonzero(np.r_[True, full[1:] != full[:-1]])
        sums = np.add.reduceat(n, newpix)
        full = full[newpix]
        pix = (full & np.uint64(0xFFFF)).astype(np.int64)  # pcol<<8 | prow
        tile_key = full >> np.uint64(16)
        ty = (tile_key & np.uint64((1 << 22) - 1)).astype(np.int64)
        tx = ((tile_key >> np.uint64(22)) & np.uint64((1 << 22) - 1)).astype(np.int64)
        z = (tile_key >> np.uint64(44)).astype(np.int64)
        starts = np.flatnonzero(np.r_[True, tile_key[1:] != tile_key[:-1]])
        ends = np.r_[starts[1:], len(tile_key)]
        return pa.Table.from_pydict(
            {
                "z": pa.array(z[starts].astype(np.int32), pa.int32()),
                "x": pa.array(tx[starts], pa.int64()),
                "y": pa.array(ty[starts], pa.int64()),
                # packed byte payloads (uint16 pixel ids, int64 counts):
                # binary cells move as buffers, no per-element Python
                "pix": pa.array(
                    [pix[s:e].astype(np.uint16).tobytes() for s, e in zip(starts, ends)],
                    pa.binary(),
                ),
                "pns": pa.array(
                    [sums[s:e].tobytes() for s, e in zip(starts, ends)], pa.binary()
                ),
            }
        )

    def render_tiles(batch: pa.Table) -> pa.Table:
        zs = batch["z"].to_numpy(zero_copy_only=False)
        xs = batch["x"].to_numpy(zero_copy_only=False)
        ys = batch["y"].to_numpy(zero_copy_only=False)
        blobs = []
        pix_col = batch["pix"].to_pylist()
        pns_col = batch["pns"].to_pylist()
        for i in range(batch.num_rows):
            pix = np.frombuffer(pix_col[i], dtype=np.uint16).astype(np.int64)
            pns = np.frombuffer(pns_col[i], dtype=np.int64)
            img = render_density_image(pix >> 8, pix & 255, pns, ts, color)
            blobs.append(encode_png(img, level=png_level))
        return pa.Table.from_pydict(
            {
                "layer": pa.array([layer.name] * len(blobs), pa.string()),
                "grid": pa.array([layer.grid.name] * len(blobs), pa.string()),
                "z": pa.array(zs.astype(np.int32), pa.int32()),
                "x": pa.array(xs, pa.int64()),
                "y": pa.array(ys, pa.int64()),
                "n": pa.array(np.ones(len(blobs), dtype=np.int32), pa.int32()),
                "data": pa.array(blobs, pa.binary()),
                "content_type": pa.array(["image/png"] * len(blobs), pa.string()),
            }
        )

    assembled = hash_group_blocks(partials, ["tile"], assemble_partition)
    _, empty_tile = empty_signatures(layer, png_level=png_level)
    tiles = assembled.map_batches(render_tiles, batch_format="pyarrow")
    tiles = tiles.map_batches(
        make_hash_dropper(layer.empty_tile or empty_tile, "dropped"),
        batch_format="pyarrow",
    )
    tiles = tiles.map_batches(finalize_tiles, batch_format="pyarrow")
    if out_wmts is not None:
        tiles = write_wmts(tiles, layer, out_wmts)
    return tiles


def density_pyramid(
    geocoded: ray.data.Dataset,
    layer: Layer,
    zooms: Sequence[int],
    cell_col: str = "cell",
    out_wmts: str | None = None,
    out_parquet: str | None = None,
    with_summary: bool = True,
):
    """Full density pyramid for the given zooms (finest first not
    required).  Returns (tiles_dataset, summary_dict).

    The assembly exchange (see :func:`density_tiles`) runs at
    :func:`~tilecloud_chain_ray.util.exchange_width`: one partition per
    cluster core, raised when the partials' bytes call for it.  The
    tiles are the same at any width."""
    from tilecloud_chain_ray.pipelines.generate import GenerateResult

    assert not layer.meta, "density tiles are rendered per-tile (meta=False)"

    # ONE pass over the raw rows: per-batch partial pixel counts for
    # every zoom at once (only (tile, pixel, n) partials cross the
    # wire), then ONE task exchange whose merge kernel sums duplicate
    # pixels and the encode stage renders the PNGs — no intermediate
    # cell-count shuffle, no second group pass.
    def partials_of(batch: pa.Table) -> pa.Table:
        return pixel_partials(batch[cell_col].to_numpy(zero_copy_only=False), zooms)

    partials = geocoded.map_batches(
        partials_of, batch_format="pyarrow", batch_size=PARTIALS_BATCH_SIZE
    )
    tiles = density_tiles(partials, layer, out_wmts=out_wmts)
    if out_parquet is not None:
        tiles = write_tiles_parquet(tiles, out_parquet)
    summary = summarize(tiles, layer.meta_size, meta=False) if with_summary else {}
    return GenerateResult(tiles=tiles, summary=summary)
