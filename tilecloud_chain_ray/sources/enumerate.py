"""Tile-coordinate enumeration as Ray Datasets.

The scalable shape (SURVEY.md S1/S2): enumeration emits *interval rows*
(one row per run of x indices on one row of one zoom — ~10^4 rows for a
10^8-coordinate pyramid), which a vectorized ``map_batches`` stage
expands to coordinate rows.  The expansion is numpy ``repeat``/``arange``
(no Python loop over coordinates) and Ray's dynamic block splitting
keeps expanded blocks bounded.

Dense enumeration (``/root/reference/tilecloud_chain/__init__.py:
2117-2161``) is pure per-zoom math -> driver builds the interval list
directly.  Sparse enumeration (``__init__.py:438-626``) needs a
geometry walk per row-band -> the (zoom, row-chunk) space is fanned out
over workers via ``map_batches``; each task clips the layer
geometry to its bands.
"""

from __future__ import annotations

import uuid
from typing import Iterable, Mapping, Sequence

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.coords import (
    CoordInterval,
    _y_index_range,
    dense_intervals,
    sparse_row_intervals,
)
from tilecloud_chain_ray.geom import Geometry, buffer_geometry
from tilecloud_chain_ray.util import default_buckets, weight_bounds

INTERVAL_SCHEMA = pa.schema(
    [
        ("layer", pa.string()),
        ("grid", pa.string()),
        ("z", pa.int32()),
        ("y", pa.int64()),
        ("x_start", pa.int64()),
        ("x_end", pa.int64()),
        ("n", pa.int32()),
    ]
)

COORD_SCHEMA = pa.schema(
    [
        ("layer", pa.string()),
        ("grid", pa.string()),
        ("z", pa.int32()),
        ("x", pa.int64()),
        ("y", pa.int64()),
        ("n", pa.int32()),
    ]
)


def split_interval(interval: CoordInterval, max_coords: int) -> Iterable[CoordInterval]:
    """Split a long run into chunks of <= max_coords coordinates so
    expanded blocks stay balanced (zoom-skew mitigation: a z-14 row is
    16k metatiles, a z-0 row is 1)."""
    step = max_coords * interval.n
    for x in range(interval.x_start, interval.x_end + 1, step):
        yield CoordInterval(
            interval.z,
            interval.y,
            x,
            min(interval.x_end, x + step - interval.n),
            interval.n,
        )


def intervals_to_table(
    intervals: Iterable[CoordInterval],
    layer_name: str,
    grid_name: str,
    max_coords: int = 4096,
) -> pa.Table:
    rows = [s for i in intervals for s in split_interval(i, max_coords)]
    return pa.Table.from_pydict(
        {
            "layer": pa.array([layer_name] * len(rows), pa.string()),
            "grid": pa.array([grid_name] * len(rows), pa.string()),
            "z": pa.array([r.z for r in rows], pa.int32()),
            "y": pa.array([r.y for r in rows], pa.int64()),
            "x_start": pa.array([r.x_start for r in rows], pa.int64()),
            "x_end": pa.array([r.x_end for r in rows], pa.int64()),
            "n": pa.array([r.n for r in rows], pa.int32()),
        },
        schema=INTERVAL_SCHEMA,
    )


def expand_intervals_batch(batch: pa.Table) -> pa.Table:
    """Interval rows -> coordinate rows, fully vectorized."""
    if batch.num_rows == 0:
        return pa.Table.from_pydict(
            {k: [] for k in COORD_SCHEMA.names}, schema=COORD_SCHEMA
        )
    z = batch["z"].to_numpy(zero_copy_only=False).astype(np.int32)
    y = batch["y"].to_numpy(zero_copy_only=False)
    x_start = batch["x_start"].to_numpy(zero_copy_only=False)
    x_end = batch["x_end"].to_numpy(zero_copy_only=False)
    n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    counts = (x_end - x_start) // n + 1
    total = int(counts.sum())
    # x = x_start[row] + (arange - offset[row]) * n[row]
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    row_of = np.repeat(np.arange(len(counts)), counts)
    within = np.arange(total, dtype=np.int64) - offsets[row_of]
    xs = x_start[row_of] + within * n[row_of]
    layer_rep = batch["layer"].take(pa.array(row_of, pa.int64()))
    grid_rep = batch["grid"].take(pa.array(row_of, pa.int64()))
    return pa.Table.from_arrays(
        [
            layer_rep,
            grid_rep,
            pa.array(z[row_of], pa.int32()),
            pa.array(xs, pa.int64()),
            pa.array(y[row_of], pa.int64()),
            pa.array(n[row_of].astype(np.int32), pa.int32()),
        ],
        schema=COORD_SCHEMA,
    )


# work of one source block: a source is cut into one block per cluster
# core, raised to one per BLOCK_UNIT coords (dense) or (z, row) bands
# (sparse), so a large job stays spread whatever core count the plan saw
BLOCK_UNIT = 256


def source_blocks(table: pa.Table, weights: np.ndarray) -> ray.data.Dataset:
    """``table`` as contiguous blocks cut on the driver, each holding
    about an equal share of ``weights`` (the rows' work): one block per
    cluster core, raised to one per :data:`BLOCK_UNIT` of total weight
    or per heaviest row if that is more (rows are not split, so a finer
    cut only adds light blocks).

    The downstream stages take whole blocks (no ``batch_size``), so a
    block is one fused task.  The core count alone is no floor: it is
    read once, when the plan is built, and a head started with
    ``num_cpus=0`` reports none.  Cutting on the driver costs no
    all-to-all barrier: on 1 CPU the traced ``metatile_seed`` source
    (6 metatiles) took 0.17 s with a ``repartition`` to one block per
    row and 0.10 s with driver slices."""
    rows = table.num_rows
    total = int(weights.sum())
    unit = max(BLOCK_UNIT, int(weights.max(initial=0)))
    k = max(1, min(rows, max(default_buckets(), -(-total // unit))))
    bounds = weight_bounds(weights, k)
    return ray.data.from_arrow([table.slice(a, b - a) for a, b in zip(bounds, bounds[1:])])


def dense_coord_dataset(
    layer: Layer,
    cli_bbox: tuple[float, float, float, float] | None = None,
    zooms: Sequence[int] | None = None,
    max_coords_per_row: int = 4096,
    intervals: list[CoordInterval] | None = None,
) -> ray.data.Dataset:
    """Dense enumeration -> Dataset of coordinate rows (meta-promoted).

    ``intervals`` lets a caller that already ran ``dense_intervals``
    (e.g. to size batches from the total coord count) pass them in.
    """
    if intervals is None:
        zooms = list(zooms) if zooms is not None else layer.seed_zooms()
        geoms = layer.geoms_per_zoom(cli_bbox=cli_bbox)
        intervals = list(dense_intervals(layer, geoms, zooms))
    table = intervals_to_table(
        intervals, layer.name, layer.grid.name, max_coords_per_row
    )
    coords = (table["x_end"].to_numpy() - table["x_start"].to_numpy()) // table["n"].to_numpy() + 1
    return source_blocks(table, coords).map_batches(
        expand_intervals_batch, batch_format="pyarrow"
    )


class _BandWalker:
    """Clips the layer geometry to row-bands: each batch of (z, row)
    band rows produces merged x-interval rows — the distributed version
    of ``SparseMetaTileBoundingPyramid.metatilecoords``
    (``__init__.py:604-626``).  Built once per worker process
    (``util.process_cached``), so the per-zoom buffering runs once."""

    def __init__(self, layer: Layer, geoms: Mapping[int, Geometry]) -> None:
        self.layer = layer
        self.geoms = geoms
        # pre-buffer per zoom (px_buffer * resolution map units)
        self.buffered: dict[int, Geometry] = {}
        for z, g in geoms.items():
            m = layer.px_buffer * layer.grid.resolutions[z]
            self.buffered[z] = buffer_geometry(g, m) if m else g

    def __call__(self, batch: pa.Table) -> pa.Table:
        zs = batch["z"].to_numpy(zero_copy_only=False)
        rows = batch["row"].to_numpy(zero_copy_only=False)
        out: list[CoordInterval] = []
        for z in np.unique(zs):
            geom = self.buffered.get(int(z))
            if geom is None or geom.is_empty:
                continue
            zrows = rows[zs == z]
            out.extend(
                sparse_row_intervals(
                    self.layer, self.geoms[int(z)], int(z), rows=zrows.tolist()
                )
            )
        return intervals_to_table(out, self.layer.name, self.layer.grid.name)


def sparse_coord_dataset(
    layer: Layer,
    cli_bbox: tuple[float, float, float, float] | None = None,
    zooms: Sequence[int] | None = None,
    concurrency: int | tuple[int, int] = (1, 4),
) -> ray.data.Dataset:
    """Sparse enumeration -> Dataset of metatile coordinate rows.

    Driver computes only the per-zoom row ranges (cheap bounds math);
    the geometry clipping per row-band runs distributed, one task per
    source block.  ``concurrency`` caps the concurrent walk tasks (of
    a ``(min, max)`` pool size, the max).
    """
    zooms = list(zooms) if zooms is not None else layer.seed_zooms()
    geoms = layer.geoms_per_zoom(cli_bbox=cli_bbox)
    grid = layer.grid
    n = layer.meta_size if layer.meta else 1

    band_rows: list[tuple[int, int]] = []
    for z in zooms:
        geom = geoms.get(z)
        if geom is None or geom.is_empty:
            continue
        m = layer.px_buffer * grid.resolutions[z]
        buffered = buffer_geometry(geom, m) if m else geom
        if buffered.is_empty:
            continue
        bminx, bminy, bmaxx, bmaxy = buffered.bounds
        if bminx != bminx:
            continue
        span = grid.span(z, n)
        _, height = grid.matrix_dims(z, n)
        rng = _y_index_range(bminy, bmaxy, grid.bbox[3], span, height - 1)
        if rng is None:
            continue
        band_rows.extend((z, row) for row in range(rng[0], rng[1] + 1))

    if not band_rows:
        return ray.data.from_arrow(
            pa.Table.from_pydict({k: [] for k in COORD_SCHEMA.names}, schema=COORD_SCHEMA)
        )
    bands = pa.Table.from_pydict(
        {
            "z": pa.array([b[0] for b in band_rows], pa.int32()),
            "row": pa.array([b[1] for b in band_rows], pa.int64()),
        }
    )
    # a plain task map, not an actor pool: Ray Data puts an actor's
    # constructor arguments in the object store, which breaks its
    # restart; the geometry rides in the closure and is buffered once
    # per worker process under a key unique to this call
    key = ("band_walker", uuid.uuid4().hex)

    def walk(batch: pa.Table) -> pa.Table:
        from tilecloud_chain_ray.util import process_cached

        return process_cached(key, lambda: _BandWalker(layer, geoms))(batch)

    intervals = source_blocks(bands, np.ones(len(band_rows), np.int64)).map_batches(
        walk,
        batch_format="pyarrow",
        concurrency=concurrency[1] if isinstance(concurrency, tuple) else concurrency,
        batch_size=None,
    )
    return intervals.map_batches(expand_intervals_batch, batch_format="pyarrow")
