"""Checkpointed density pyramid: the resumable shape of the pages job.

Two phases, per the north rule's lineage requirement (input cell
ranges + counts per partition):

* **Phase 1 (expensive, checkpointed)**: one partition per input
  parquet shard, identified by its path (``lineage.shard_id``), run by
  the shared checkpoint runner (``sinks.lineage.run_partitions``).
  Each partition geocodes its pages and computes the per-zoom pixel
  partial counts (``density.pixel_partials``, the streaming pyramid's
  own kernel); the runner commits them as a parquet part and then the
  lineage record carrying the input row count and the
  [min_cell, max_cell] range it covered.  A resumed run skips shards
  whose lineage says ``done`` — the raw pages are never re-read.
* **Phase 2 (cheap, recomputed on resume)**: read the partials of the
  current shards and run the streaming pyramid's tail
  (``density.density_tiles``: assemble, render, hash-drop, finalize).
  Deterministic given phase-1 output, so re-running it after a crash
  is idempotent.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Sequence

import pyarrow as pa
import pyarrow.parquet as pq

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.pipelines.density import density_tiles, pixel_partials
from tilecloud_chain_ray.sinks import lineage as lin
from tilecloud_chain_ray.stages.geocode import make_geocoder
from tilecloud_chain_ray.util import read_parquet_clean


def _phase1_partition(
    bbox: tuple[float, float, float, float],
    key_column: str,
    cell_res: int,
    zooms: tuple[int, ...],
    shard_path: str,
) -> tuple[pa.Table, dict]:
    table = pq.read_table(shard_path, columns=[key_column])
    geocoded = make_geocoder(bbox, key_column, cell_res)(table)
    cells = geocoded["cell"].to_numpy(zero_copy_only=False)
    return pixel_partials(cells, zooms), {
        "input_rows": table.num_rows,
        "cell_range": [int(cells.min()), int(cells.max())],
    }


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
):
    """Run (or resume) the checkpointed density job; returns
    (tiles_dataset, summary).  ``fail_partitions`` holds positions in
    the sorted shard list whose phase-1 task fails (fault injection)."""
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
    sids = [lin.shard_id(s) for s in shards]
    partials_dir = os.path.join(out_dir, "partials")
    zooms = tuple(zooms)
    summary = lin.run_partitions(
        partials_dir,
        job_id,
        [(sid, list(zooms), s) for sid, s in zip(sids, shards)],
        partial(_phase1_partition, layer.grid.bbox, key_column, cell_res, zooms),
        fail_partitions or (),
    )
    if summary["partitions_error"]:
        return None, summary

    partials = read_parquet_clean([lin.part_path(partials_dir, sid) for sid in sids])
    return density_tiles(partials, layer, out_wmts=out_wmts), summary
