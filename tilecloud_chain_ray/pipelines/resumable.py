"""Resumable pyramid generation: partitioned execution with lineage.

The coordinate space is split into deterministic partitions (chunks of
enumeration intervals).  Each partition runs the full per-row chain
(filter -> render -> meta-drop -> split -> tile-drop -> finalize) as one
Ray task — render through finalize is the streaming pipeline's own
``tile_chain`` — and commits: parquet part file (atomic rename), then
lineage record (atomic rename).  ``generate_resumable`` skips
partitions whose lineage says ``done``, so a killed run resumes without
recomputation (north rule).

Fault injection for tests: ``fail_partitions`` raises inside those
partitions before the commit point.
"""

from __future__ import annotations

import os
from typing import Sequence

import pyarrow as pa
import pyarrow.parquet as pq
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


def _process_partition(
    layer: Layer,
    job_id: str,
    partition_id: int,
    intervals: pa.Table,
    out_dir: str,
    fail_partitions: set[int],
) -> dict:
    started = lin.now()
    try:
        geoms = layer.geoms_per_zoom()
        coords = expand_intervals_batch(intervals)
        input_rows = coords.num_rows
        coords = CoordGeomFilter(layer, geoms)(coords)
        sig_meta, sig_tile = empty_signatures(layer)
        empty_meta = layer.empty_metatile or sig_meta
        empty_tile = layer.empty_tile or sig_tile

        render = GeometryRenderer(layer, list(layer.geometries))
        tiles = tile_chain(layer, empty_meta, empty_tile, render)(coords)

        if partition_id in fail_partitions:
            raise RuntimeError(f"injected failure in partition {partition_id}")

        statuses = tiles["status"].to_pylist()
        meta_dropped = statuses.count("meta_dropped")
        dropped = statuses.count("dropped")
        stored = statuses.count("stored")

        os.makedirs(out_dir, exist_ok=True)
        part_path = os.path.join(out_dir, f"tiles_part_{partition_id:06d}.parquet")
        tmp = part_path + ".tmp"
        pq.write_table(tiles, tmp)
        os.replace(tmp, part_path)  # output commit
        lin.write_record(
            out_dir,
            lin.LineageRecord(
                job_id=job_id,
                partition_id=partition_id,
                zooms=sorted(set(intervals["z"].to_pylist())),
                input_rows=input_rows,
                tiles_generated=dropped + stored,
                tiles_dropped=dropped,
                tiles_stored=stored,
                metatiles_generated=meta_dropped
                + (dropped + stored) // (layer.meta_size**2 if layer.meta else 1),
                metatiles_dropped=meta_dropped,
                status="done",
                started_at=started,
                finished_at=lin.now(),
            ),
        )
        return {"partition_id": partition_id, "status": "done"}
    except Exception as exc:  # record the error, like the queue's error rows
        lin.write_record(
            out_dir,
            lin.LineageRecord(
                job_id=job_id,
                partition_id=partition_id,
                zooms=sorted(set(intervals["z"].to_pylist())),
                input_rows=0,
                tiles_generated=0,
                tiles_dropped=0,
                tiles_stored=0,
                metatiles_generated=0,
                metatiles_dropped=0,
                status="error",
                started_at=started,
                finished_at=lin.now(),
                error=str(exc),
            ),
        )
        return {"partition_id": partition_id, "status": "error", "error": str(exc)}


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
    done = lin.done_partitions(out_dir)
    todo = [(pid, tbl) for pid, tbl in enumerate(partitions) if pid not in done]
    fail = fail_partitions or set()

    if todo:
        process = ray.remote(max_retries=0)(_process_partition)
        layer_ref = ray.put(layer)
        futures = [
            process.remote(layer_ref, job_id, pid, tbl, out_dir, fail) for pid, tbl in todo
        ]
        ray.get(futures)

    summary = lin.summarize_lineage(out_dir)
    summary["partitions_total"] = len(partitions)
    summary["partitions_skipped"] = len(done)
    return summary


def read_tiles(out_dir: str) -> ray.data.Dataset:
    return read_parquet_clean(out_dir)
