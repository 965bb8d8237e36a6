"""WMTS-layout filesystem sink + tiles Parquet table sink.

Path layout = WMTS REST (``1.0.0/{layer}/{style}/{dims}/{grid}/{matrix}/
{row}/{col}.{ext}``), matching the reference's golden patterns
(``tests/test_generate.py:1290``:
``1.0.0/point_hash/default/2012/swissgrid_5/%i/%i/%i.png`` filled with
(z, row, col)).  Tile writes are idempotent last-write-wins puts, like
the reference's filesystem store (``store/filesystem.py``), so
at-least-once re-execution is safe.
"""

from __future__ import annotations

import os
from typing import Mapping

import pyarrow as pa
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.util import exchange_aggregate, process_cached, read_parquet_clean


def tile_path(
    root: str,
    layer: Layer,
    z: int,
    x: int,
    y: int,
    dims: tuple[str, ...] = (),
) -> str:
    dim_part = list(dims) if dims else [d.default for d in layer.dimensions]
    parts = [
        root,
        "1.0.0",
        layer.name,
        layer.wmts_style,
        *dim_part,
        layer.grid.name,
        layer.grid.matrix_id(z),
        str(y),  # TileRow
        f"{x}.{layer.extension}",  # TileCol
    ]
    return os.path.join(*parts)


def resolve_fs(root: str):
    """Resolve a cache root to ``(filesystem, base_path)``.

    A plain path stays on the fast ``os`` write path (None, path); a
    URI (``file://``, ``s3://``, ``gs://``, ``hdfs://`` — everything
    ``pyarrow.fs.FileSystem.from_uri`` speaks) goes through pyarrow's
    filesystem layer.  This is how the reference's ``s3`` / ``azure``
    cache types (``__init__.py:1366-1383``) map onto this engine: one
    URI-driven object-store sink instead of per-vendor store classes.
    (No network in this sandbox — the URI path is exercised with
    ``file://`` in tests; ``s3://`` uses the identical calls.)
    """
    if "://" not in root:
        return None, root
    from pyarrow import fs as pafs

    return pafs.FileSystem.from_uri(root)


class WmtsWriter:
    """Batch kernel: writes stored rows to the WMTS layout, passes rows on
    (with payload intact so downstream parquet sinks still see it).

    ``cache_control`` mirrors the reference S3/Azure stores' per-object
    Cache-Control metadata; it is attached via the filesystem's
    key-value metadata on URI roots and ignored on plain paths."""

    def __init__(self, layer: Layer, root: str, cache_control: str | None = None) -> None:
        self.layer = layer
        self.fs, self.root = resolve_fs(root)
        self.dim_names = [d.name for d in layer.dimensions]
        self.cache_control = cache_control
        self._made_dirs: set[str] = set()

    def __call__(self, batch: pa.Table) -> pa.Table:
        statuses = batch["status"].to_pylist()
        data = batch["data"]
        z = batch["z"].to_numpy(zero_copy_only=False)
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        dim_cols = [
            batch[f"dimension_{name}"].to_pylist()
            if f"dimension_{name}" in batch.schema.names
            else None
            for name in self.dim_names
        ]
        for i in range(batch.num_rows):
            if statuses[i] != "stored":
                continue
            dims = tuple(
                col[i] if col is not None else self.layer.dimensions[j].default
                for j, col in enumerate(dim_cols)
            )
            path = tile_path(self.root, self.layer, int(z[i]), int(x[i]), int(y[i]), dims)
            payload = data[i].as_py()
            if self.fs is None:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                tmp = path + ".tmp"
                with open(tmp, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)  # atomic publish
            else:
                # object-store put is atomic last-write-wins already
                # (reference S3 store does a straight put_object); local
                # pyarrow filesystems need the parent dirs
                parent = path.rsplit("/", 1)[0]
                if parent not in self._made_dirs:
                    self.fs.create_dir(parent, recursive=True)
                    self._made_dirs.add(parent)
                metadata = (
                    {"Cache-Control": self.cache_control} if self.cache_control else None
                )
                with self.fs.open_output_stream(path, metadata=metadata) as out:
                    out.write(payload)
        return batch


def write_wmts(tiles: ray.data.Dataset, layer: Layer, root: str) -> ray.data.Dataset:
    """Write the stored rows of ``tiles`` under ``root`` and pass every
    row on: a task map over one :class:`WmtsWriter` per worker process
    (it keeps the filesystem and the directories it has made)."""
    key = ("wmts_writer", layer.name, root)

    def write_fn(batch: pa.Table) -> pa.Table:
        return process_cached(key, lambda: WmtsWriter(layer, root))(batch)

    return tiles.map_batches(write_fn, batch_format="pyarrow")


def write_tiles_parquet(ds: ray.data.Dataset, out_dir: str) -> ray.data.Dataset:
    """Write the tile table (every row: statuses are kept for lineage)
    partitioned by zoom, so a resumed run or a reader can prune by zoom,
    never one giant file; returns the table read back."""
    ds.write_parquet(out_dir, partition_cols=["z"])
    return read_parquet_clean(out_dir)


def summarize(tiles: ray.data.Dataset, meta_size: int, meta: bool) -> dict[str, int]:
    """:func:`run_counters` of ``tiles``' status column, counted through
    the task exchange (:func:`~tilecloud_chain_ray.util.exchange_aggregate`)."""
    by_status = exchange_aggregate(
        tiles.select_columns(["status"]), ["status"], [([], "count_all")], ["status", "n"]
    )
    counts = {r["status"]: r["n"] for r in by_status.take_all()}
    return run_counters(counts, meta_size, meta)


def run_counters(counts: Mapping[str, int], meta_size: int, meta: bool) -> dict[str, int]:
    """Reference-style run counters (``generate.py:410-482`` summary
    block) from the number of tile rows of each in-band status."""
    meta_dropped = counts.get("meta_dropped", 0)
    dropped = counts.get("dropped", 0)
    stored = counts.get("stored", 0)
    generated = dropped + stored
    summary = {
        "tiles_generated": generated,
        "tiles_dropped": dropped,
        "tiles_stored": stored,
    }
    if meta:
        summary["metatiles_dropped"] = meta_dropped
        summary["metatiles_generated"] = meta_dropped + generated // (meta_size**2)
    return summary
