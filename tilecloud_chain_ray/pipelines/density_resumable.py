"""Checkpointed density pyramid: the resumable shape of the pages job.

Two phases, per the north rule's lineage requirement (input cell
ranges + counts per partition):

* **Phase 1 (expensive, checkpointed)**: one partition per input
  parquet shard.  Each partition geocodes its pages, computes the
  per-zoom pixel partial counts, writes them as a parquet part (atomic
  rename) and then its lineage record carrying the input row count and
  the [min_cell, max_cell] range it covered.  A resumed run skips
  shards whose lineage says ``done`` — the raw pages are never re-read.
* **Phase 2 (cheap, recomputed on resume)**: read all partials,
  aggregate + render tiles (the single-shuffle assembly of
  ``pipelines.density``).  Deterministic given phase-1 output, so
  re-running it after a crash is idempotent.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.functions.cells import cell_decode
from tilecloud_chain_ray.sinks import lineage as lin
from tilecloud_chain_ray.stages.geocode import make_geocoder


def _phase1_partition(
    shard_path: str,
    partition_id: int,
    out_dir: str,
    bbox: tuple[float, float, float, float],
    key_column: str,
    cell_res: int,
    zooms: tuple[int, ...],
    job_id: str,
    fail: bool,
) -> dict:
    started = lin.now()
    try:
        table = pq.read_table(shard_path, columns=[key_column])
        geocoded = make_geocoder(bbox, key_column, cell_res)(table)
        cells = geocoded["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        res, cx, cy = cell_decode(cells)
        parts = []
        for zoom in zooms:
            pixel_res = zoom + 8
            shift = (res - pixel_res).astype(np.int64)
            if (shift < 0).any():
                raise ValueError(
                    f"cell res {int(res.max())} coarser than pixel res {pixel_res} "
                    f"(need zoom <= cell_res - 8); requested zooms {zooms}"
                )
            px = (cx >> shift).astype(np.uint64)
            py = (cy >> shift).astype(np.uint64)
            packed = (px << np.uint64(22)) | py
            uniq, counts = np.unique(packed, return_counts=True)
            upx = (uniq >> np.uint64(22)).astype(np.int64)
            upy = (uniq & np.uint64((1 << 22) - 1)).astype(np.int64)
            parts.append(
                pa.Table.from_pydict(
                    {
                        "z": pa.array(np.full(len(uniq), zoom, dtype=np.int32), pa.int32()),
                        "tx": pa.array(upx >> 8, pa.int64()),
                        "ty": pa.array(upy >> 8, pa.int64()),
                        "pcol": pa.array(upx & 255, pa.int64()),
                        "prow": pa.array(upy & 255, pa.int64()),
                        "n": pa.array(counts.astype(np.int64), pa.int64()),
                    }
                )
            )
        partial = pa.concat_tables(parts)
        if fail:
            raise RuntimeError(f"injected failure in shard {partition_id}")
        os.makedirs(out_dir, exist_ok=True)
        part_path = os.path.join(out_dir, f"partials_{partition_id:06d}.parquet")
        tmp = part_path + ".tmp"
        pq.write_table(partial, tmp)
        os.replace(tmp, part_path)
        lin.write_record(
            out_dir,
            lin.LineageRecord(
                job_id=job_id,
                partition_id=partition_id,
                zooms=list(zooms),
                input_rows=table.num_rows,
                tiles_generated=0,
                tiles_dropped=0,
                tiles_stored=0,
                metatiles_generated=0,
                metatiles_dropped=0,
                status="done",
                started_at=started,
                finished_at=lin.now(),
                error=None,
                cell_range=[int(cells.min()), int(cells.max())],
            ),
        )
        return {"partition_id": partition_id, "status": "done"}
    except Exception as exc:
        lin.write_record(
            out_dir,
            lin.LineageRecord(
                job_id=job_id,
                partition_id=partition_id,
                zooms=list(zooms),
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


def density_resumable(
    pages_dir: str,
    layer: Layer,
    out_dir: str,
    zooms: Sequence[int] = (0, 1, 2, 3, 4),
    key_column: str = "url",
    cell_res: int = 14,
    job_id: str = "density-1",
    out_wmts: str | None = None,
    fail_partitions: set[int] | None = None,
    n_buckets: int | None = None,  # assembly exchange width; None = cluster-sized
):
    """Run (or resume) the checkpointed density job; returns
    (tiles_dataset, summary)."""
    bad = [z for z in zooms if z + 8 > cell_res]
    if bad:
        raise ValueError(
            f"zooms {bad} need pixel res > cell_res {cell_res}; "
            f"use cell_res >= {max(zooms) + 8} or drop zooms above {cell_res - 8}"
        )
    shards = sorted(
        os.path.join(pages_dir, f)
        for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )
    partials_dir = os.path.join(out_dir, "partials")
    done = lin.done_partitions(partials_dir)
    todo = [(pid, s) for pid, s in enumerate(shards) if pid not in done]
    fail = fail_partitions or set()

    if todo:
        task = ray.remote(max_retries=0)(_phase1_partition)
        ray.get(
            [
                task.remote(
                    shard,
                    pid,
                    partials_dir,
                    layer.grid.bbox,
                    key_column,
                    cell_res,
                    tuple(zooms),
                    job_id,
                    pid in fail,
                )
                for pid, shard in todo
            ]
        )

    summary = lin.summarize_lineage(partials_dir)
    summary["partitions_total"] = len(shards)
    summary["partitions_skipped"] = len(done)
    if summary["partitions_error"]:
        return None, summary

    # phase 2: assemble tiles from the committed partials
    from tilecloud_chain_ray.pipelines.density import assemble_and_render_tiles
    from tilecloud_chain_ray.stages.hashdrop import (
        empty_signatures,
        finalize_tiles,
        make_hash_dropper,
    )
    from tilecloud_chain_ray.util import process_cached, read_parquet_clean

    partials = read_parquet_clean(
        [
            os.path.join(partials_dir, f)
            for f in sorted(os.listdir(partials_dir))
            if f.startswith("partials_") and f.endswith(".parquet")
        ]
    )
    # Pinned empty_tile_detection hashes are level-6 signatures (see
    # density.density_pyramid): encode at 6 when one is set.
    png_level = 6 if layer.empty_tile is not None else 3
    rendered = assemble_and_render_tiles(
        partials, layer, n_buckets=n_buckets, png_level=png_level
    )
    _, empty_tile = empty_signatures(layer, png_level=png_level)
    tiles = rendered.map_batches(
        make_hash_dropper(layer.empty_tile or empty_tile, "dropped"), batch_format="pyarrow"
    )
    tiles = tiles.map_batches(finalize_tiles, batch_format="pyarrow")
    if out_wmts is not None:
        from tilecloud_chain_ray.sinks.wmts import WmtsWriter

        def write_fn(batch: pa.Table) -> pa.Table:
            w = process_cached(
                ("wmts_writer", layer.name, out_wmts), lambda: WmtsWriter(layer, out_wmts)
            )
            return w(batch)

        tiles = tiles.map_batches(write_fn, batch_format="pyarrow")
    return tiles, summary
