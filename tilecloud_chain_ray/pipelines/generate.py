"""The flagship batch pipeline: ``generate-tiles`` re-expressed on Ray Data.

Stage order mirrors the reference chain
(``/root/reference/tilecloud_chain/generate.py`` — see SURVEY.md §3.1):

  enumerate (dense/sparse) -> dimension cross-product -> geometry filter
  -> render metatiles -> metatile hash-drop -> split n² -> tile
  hash-drop -> finalize/store (WMTS layout and/or Parquet tile table)

Everything is a lazy ``Dataset`` transform; the streaming executor
pipelines render/split/write with backpressure.  Render through
finalize is one per-batch function (``tile_chain``), so a metatile's
pixels live only inside the task that renders and splits it.  Drops
stay in-band as ``status`` rows so run counters come from one small
groupby instead of mutable driver-side counters
(``__init__.py:2399-2439`` analog).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.sinks.wmts import summarize, write_tiles_parquet, write_wmts
from tilecloud_chain_ray.sources.enumerate import dense_coord_dataset, sparse_coord_dataset
from tilecloud_chain_ray.stages.geom_filter import add_geom_filter
from tilecloud_chain_ray.stages.hashdrop import (
    empty_signatures,
    finalize_tiles,
    make_hash_dropper,
)
from tilecloud_chain_ray.stages.render import GeometryRenderer
from tilecloud_chain_ray.stages.split import MetatileSplitter


def add_dimensions(ds: ray.data.Dataset, layer: Layer) -> ray.data.Dataset:
    """Dimension cross-product (M1, ``__init__.py:1321-1338``): one row
    per (coord, dimension-combination), as ``dimension_<NAME>`` columns."""
    combos = layer.dimension_combinations()
    if combos == [{}]:
        return ds
    names = [d.name for d in layer.dimensions]

    def expand(batch: pa.Table) -> pa.Table:
        k = len(combos)
        idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), k)
        out = batch.take(pa.array(idx))
        for name in names:
            values = [combo[name] for combo in combos] * batch.num_rows
            out = out.append_column(f"dimension_{name}", pa.array(values, pa.string()))
        return out

    return ds.map_batches(expand, batch_format="pyarrow")


def fetch_status_to_inband(batch: pa.Table) -> pa.Table:
    """Map HTTPFetcher output onto the pipeline's in-band row schema:
    ``fetch_status='error'`` becomes ``status='error'`` (hash-drop and
    split pass such rows through untouched; WmtsWriter skips them),
    everything else proceeds as a freshly generated (meta)tile."""
    statuses = pa.array(
        ["error" if s == "error" else "generated" for s in batch["fetch_status"].to_pylist()],
        pa.string(),
    )
    return batch.drop_columns(["fetch_status"]).append_column("status", statuses)


# (meta)tiles whose pixels one ``tile_chain`` call holds at a time:
# 8 x 21 MiB at meta_size 8, buffer 128 and 256 px tiles
PIXEL_BATCH = 8


def tile_chain(layer: Layer, empty_meta, empty_tile, render=None):
    """The per-batch chain render -> metatile hash-drop -> split -> tile
    hash-drop -> finalize, shared by ``generate_tiles`` and the
    resumable pipeline.

    ``render`` turns coord rows into (meta)tile rows; without it the
    input rows already are (meta)tiles, e.g. fetched from a WMS server.
    A locally rendered metatile stays raw RGBA pixels from the renderer
    to the splitter inside one call, so it is never PNG-encoded and
    never enters the object store.  Meta-layer batches run
    ``PIXEL_BATCH`` rows at a time, which bounds the pixels a task holds
    whatever the batch size.
    """
    meta_drop = make_hash_dropper(empty_meta, "meta_dropped") if layer.meta else None
    tile_drop = make_hash_dropper(empty_tile, "dropped")
    splitter = MetatileSplitter(layer)

    def render_split(batch: pa.Table) -> pa.Table:
        step = PIXEL_BATCH if layer.meta else max(batch.num_rows, 1)
        parts = []
        for start in range(0, max(batch.num_rows, 1), step):
            part = batch.slice(start, step)
            if render is not None:
                part = render(part)
            if meta_drop is not None:
                part = meta_drop(part)
            parts.append(finalize_tiles(tile_drop(splitter(part))))
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)

    return render_split


@dataclass
class GenerateResult:
    tiles: ray.data.Dataset
    summary: dict[str, int]


def generate_tiles(
    layer: Layer,
    *,
    role: str = "local",
    cli_bbox: tuple[float, float, float, float] | None = None,
    zooms: Sequence[int] | None = None,
    out_wmts: str | None = None,
    out_parquet: str | None = None,
    renderer_cls=GeometryRenderer,
    renderer_kwargs: dict | None = None,
    auto_empty: bool = True,
    with_summary: bool = True,
    test_n: int | None = None,
    render_geometries=None,
    tiles_file: str | None = None,
    wms_url: str | None = None,
    wms_kwargs: dict | None = None,
) -> GenerateResult:
    """Run the full pyramid generation for one layer.

    ``role='local'`` = dense enumeration + geometry filter (reference
    local role); ``role='master'`` = sparse enumeration (the reference
    master seeds the queue sparsely, ``generate.py:229-234`` — here the
    Dataset *is* the queue, so the sparse path feeds the same
    downstream stages directly).
    """
    geoms = layer.geoms_per_zoom(cli_bbox=cli_bbox)
    if tiles_file is not None:
        # --tiles error.list re-run (reference TilesFileStore,
        # __init__.py:2842-2872): the file's coords replace enumeration;
        # the geometry filter still applies, as in the reference chain.
        from tilecloud_chain_ray.sources.tiles_file import tiles_file_dataset

        coords = tiles_file_dataset(tiles_file, layer.name, layer.grid.name)
        coords = add_geom_filter(coords, layer, geoms=geoms)
    elif test_n is not None:
        # --test N (reference __init__.py:2389-2391): take the first N
        # (meta)tile coords in enumeration order.  Driver-side so the
        # cut is deterministic regardless of block scheduling.
        from itertools import islice

        from tilecloud_chain_ray.coords import dense_intervals
        from tilecloud_chain_ray.sources.enumerate import COORD_SCHEMA

        zoom_list = list(zooms) if zooms is not None else layer.seed_zooms()
        first = list(
            islice(
                (c for i in dense_intervals(layer, geoms, zoom_list) for c in i.coords()),
                test_n,
            )
        )
        coords = ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "layer": [layer.name] * len(first),
                    "grid": [layer.grid.name] * len(first),
                    "z": pa.array([c.z for c in first], pa.int32()),
                    "x": pa.array([c.x for c in first], pa.int64()),
                    "y": pa.array([c.y for c in first], pa.int64()),
                    "n": pa.array([c.n for c in first], pa.int32()),
                },
                schema=COORD_SCHEMA,
            )
        )
        coords = add_geom_filter(coords, layer, geoms=geoms)
    elif role == "master":
        coords = sparse_coord_dataset(layer, cli_bbox=cli_bbox, zooms=zooms)
    else:
        from tilecloud_chain_ray.coords import dense_intervals

        zoom_list = list(zooms) if zooms is not None else layer.seed_zooms()
        intervals = list(dense_intervals(layer, geoms, zoom_list))
        coords = dense_coord_dataset(layer, intervals=intervals)
        coords = add_geom_filter(coords, layer, geoms=geoms)
    coords = add_dimensions(coords, layer)

    empty_meta = layer.empty_metatile
    empty_tile = layer.empty_tile
    if auto_empty and (empty_meta is None or empty_tile is None):
        sig_meta, sig_tile = empty_signatures(layer)
        empty_meta = empty_meta or sig_meta
        empty_tile = empty_tile or sig_tile

    # the renderer draws the layer's own source geometries (the WMS/Mapnik
    # data analog), independent of the seeding bbox/geometry filter.
    # Renderer state (decoded geoms via one broadcast ray.put, color
    # table) is built once per worker process: a task-based stage, one
    # fused operator on warm workers.
    from tilecloud_chain_ray.util import process_cached

    if wms_url is not None:
        # real A1: fetch (meta)tiles from a WMS server over HTTP instead
        # of rendering locally (reference store/url.py via get_store,
        # generate.py:525-573).  204/404 vanish (the reference's None
        # tiles); HTTP/WMS errors flow on in-band as status='error'
        # rows with the message in the ``error`` column, consumable by
        # the error-budget / error-list stages like any other failure.
        from tilecloud_chain_ray.stages.fetch import fetch_tiles

        rows = fetch_tiles(
            coords, layer, wms_url, **(wms_kwargs or {})
        ).map_batches(fetch_status_to_inband, batch_format="pyarrow")
        render_fn = None
    else:
        geoms_ref = ray.put(
            list(render_geometries) if render_geometries is not None else list(layer.geometries)
        )
        rkw = dict(renderer_kwargs or {})

        def render_fn(batch: pa.Table) -> pa.Table:
            r = process_cached(
                ("renderer", renderer_cls.__name__, layer.name, geoms_ref.hex()),
                lambda: renderer_cls(layer=layer, geoms_ref=geoms_ref, **rkw),
            )
            return r(batch)

        rows = coords
    chain = tile_chain(layer, empty_meta, empty_tile, render_fn)

    def render_block(block: pa.Table):
        # PIXEL_BATCH rows per call inside each block, with no
        # batch_size on the map: that would bundle small input blocks
        # (the fused enumeration's interval rows) into one task
        for start in range(0, max(block.num_rows, 1), PIXEL_BATCH):
            yield chain(block.slice(start, PIXEL_BATCH))

    tiles = rows.map_batches(render_block, batch_format="pyarrow", batch_size=None)

    if out_wmts is not None:
        tiles = write_wmts(tiles, layer, out_wmts)
    if out_parquet is not None:
        tiles = write_tiles_parquet(tiles, out_parquet)

    summary = (
        summarize(tiles, layer.meta_size, layer.meta) if with_summary else {}
    )
    return GenerateResult(tiles=tiles, summary=summary)


def generate_tiles_multi_grid(
    layers: Sequence[Layer],
    *,
    role: str = "local",
    cli_bbox: tuple[float, float, float, float] | None = None,
    zooms: Sequence[int] | None = None,
    out_wmts: str | None = None,
) -> GenerateResult:
    """Multi-grid layer run (§2.7): the reference concatenates a layer's
    per-grid tile streams (``__init__.py:2182-2230``); here each grid is
    one ``generate_tiles`` Dataset and the results union (the ``grid``
    column distinguishes them).  Pass one ``Layer`` per grid (same name,
    different ``grid``); the options are ``generate_tiles``' and apply
    to every grid alike."""
    results = [
        generate_tiles(
            layer,
            role=role,
            cli_bbox=cli_bbox,
            zooms=zooms,
            out_wmts=out_wmts,
            with_summary=False,
        )
        for layer in layers
    ]
    tiles = results[0].tiles
    if len(results) > 1:
        tiles = tiles.union(*[r.tiles for r in results[1:]])
    meta = layers[0].meta
    summary = summarize(tiles, layers[0].meta_size, meta)
    return GenerateResult(tiles=tiles, summary=summary)
