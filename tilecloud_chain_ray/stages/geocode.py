"""Geocode stage (M12): key -> deterministic position -> cell index.

Zero-copy Arrow ``map_batches`` stage: appends columns to the incoming
batch without touching existing ones, so the byte-identical ``text``
passthrough invariant holds structurally (columns are never re-encoded).

Two key flavors:
* int64 key (``doc_id``): exact integer arithmetic, reproducible in the
  DuckDB oracle (see ``functions.hashing.micro_from_ids``).
* string key (``url``): crc32-based, rows-only oracle.

Appended columns: ``ux, uy`` (int64 micro coords), ``x, y`` (float64 map
coords in the grid bbox), ``cell`` (uint64 Morton cell at ``cell_res``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.functions.cells import cell_for_micro
from tilecloud_chain_ray.functions.hashing import (
    micro_from_ids,
    micro_from_strings,
    micro_to_map,
)


def make_geocoder(
    bbox: tuple[float, float, float, float],
    key_column: str = "doc_id",
    cell_res: int = 14,
    with_map_coords: bool = True,
):
    """Build the per-batch geocode function (stateless -> Ray tasks)."""

    def geocode(batch: pa.Table) -> pa.Table:
        key = batch[key_column]
        if pa.types.is_integer(key.type):
            ids = key.to_numpy(zero_copy_only=False).astype(np.int64)
            ux, uy = micro_from_ids(ids)
        else:
            ux, uy = micro_from_strings(key)
        out = batch.append_column("ux", pa.array(ux.astype(np.int64), pa.int64()))
        out = out.append_column("uy", pa.array(uy.astype(np.int64), pa.int64()))
        if with_map_coords:
            x, y = micro_to_map(ux, uy, bbox)
            out = out.append_column("x", pa.array(x, pa.float64()))
            out = out.append_column("y", pa.array(y, pa.float64()))
        cell = cell_for_micro(ux, uy, cell_res)
        out = out.append_column("cell", pa.array(cell, pa.uint64()))
        return out

    return geocode


def geocode_dataset(
    ds: ray.data.Dataset,
    bbox: tuple[float, float, float, float],
    key_column: str = "doc_id",
    cell_res: int = 14,
) -> ray.data.Dataset:
    """Geocode every block of ``ds`` in one call, so the map fuses into
    its producer (a row-count batch size behind a row-changing operator
    would stop Ray from fusing it and re-bundle the blocks)."""
    return ds.map_batches(
        make_geocoder(bbox, key_column, cell_res), batch_format="pyarrow", batch_size=None
    )
