"""Resumable pyramid generation: partitioned execution with lineage.

The coordinate space is split into deterministic partitions (chunks of
enumeration intervals).  Each partition runs the full per-row chain
(filter -> render -> meta-drop -> split -> tile-drop -> finalize) as one
task of the shared checkpoint runner (``sinks.lineage.run_partitions``)
— render through finalize is the streaming pipeline's own
``tile_chain`` — which commits the parquet part file, then the lineage
record (atomic renames).  Partitions whose lineage says ``done`` are
skipped, so a killed run resumes without recomputation (north rule).

Fault injection for tests: ``fail_partitions`` raises inside those
partitions before the commit point.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import pyarrow as pa
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.coords import dense_intervals
from tilecloud_chain_ray.pipelines.generate import tile_chain
from tilecloud_chain_ray.sinks import lineage as lin
from tilecloud_chain_ray.sources.enumerate import (
    expand_intervals_batch,
    intervals_to_table,
    split_interval,
)
from tilecloud_chain_ray.stages.geom_filter import CoordGeomFilter
from tilecloud_chain_ray.stages.hashdrop import empty_signatures
from tilecloud_chain_ray.stages.render import GeometryRenderer
from tilecloud_chain_ray.util import read_parquet_clean


def plan_partitions(
    layer: Layer,
    zooms: Sequence[int] | None = None,
    cli_bbox: tuple[float, float, float, float] | None = None,
    max_coords_per_partition: int = 64,
) -> list[pa.Table]:
    """Deterministic partition plan: interval chunks of bounded size."""
    zooms = list(zooms) if zooms is not None else layer.seed_zooms()
    geoms = layer.geoms_per_zoom(cli_bbox=cli_bbox)
    chunks: list[pa.Table] = []
    pending = []
    pending_coords = 0
    for interval in dense_intervals(layer, geoms, zooms):
        for piece in split_interval(interval, max_coords_per_partition):
            pending.append(piece)
            pending_coords += piece.count()
            if pending_coords >= max_coords_per_partition:
                chunks.append(intervals_to_table(pending, layer.name, layer.grid.name))
                pending, pending_coords = [], 0
    if pending:
        chunks.append(intervals_to_table(pending, layer.name, layer.grid.name))
    return chunks


def _process_partition(layer: Layer, intervals: pa.Table) -> tuple[pa.Table, dict]:
    """One partition's work: the full per-row chain over its intervals."""
    coords = expand_intervals_batch(intervals)
    input_rows = coords.num_rows
    coords = CoordGeomFilter(layer, layer.geoms_per_zoom())(coords)
    sig_meta, sig_tile = empty_signatures(layer)
    empty_meta = layer.empty_metatile or sig_meta
    empty_tile = layer.empty_tile or sig_tile
    render = GeometryRenderer(layer, list(layer.geometries))
    tiles = tile_chain(layer, empty_meta, empty_tile, render)(coords)

    statuses = tiles["status"].to_pylist()
    meta_dropped = statuses.count("meta_dropped")
    dropped = statuses.count("dropped")
    stored = statuses.count("stored")
    return tiles, {
        "input_rows": input_rows,
        "tiles_generated": dropped + stored,
        "tiles_dropped": dropped,
        "tiles_stored": stored,
        "metatiles_generated": meta_dropped
        + (dropped + stored) // (layer.meta_size**2 if layer.meta else 1),
        "metatiles_dropped": meta_dropped,
    }


def generate_resumable(
    layer: Layer,
    out_dir: str,
    job_id: str = "job-1",
    zooms: Sequence[int] | None = None,
    cli_bbox: tuple[float, float, float, float] | None = None,
    max_coords_per_partition: int = 64,
    fail_partitions: set[int] | None = None,
) -> dict:
    """Run (or resume) a partitioned generation.  Returns the lineage
    summary plus how many partitions were skipped as already done."""
    partitions = plan_partitions(layer, zooms, cli_bbox, max_coords_per_partition)
    parts = [
        (pid, sorted(set(tbl["z"].to_pylist())), tbl) for pid, tbl in enumerate(partitions)
    ]
    return lin.run_partitions(
        out_dir, job_id, parts, partial(_process_partition, layer), fail_partitions or ()
    )


def read_tiles(out_dir: str) -> ray.data.Dataset:
    return read_parquet_clean(out_dir)
