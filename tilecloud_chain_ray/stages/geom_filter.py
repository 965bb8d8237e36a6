"""Geometry-filter stage: the coord ⋈ geometry spatial semi-join (M2/J1).

Task-based ``map_batches`` stage.  Each worker process decodes the
broadcast per-zoom geometries once in ``__init__``; ``__call__``
computes the buffered tile extents for a batch vectorized and keeps
rows whose extent intersects the zoom geometry (``IntersectGeometryFilter``,
``/root/reference/tilecloud_chain/__init__.py:2637-2697``, including
the px-buffer-in-pixels quirk — see ``Grid.extent``).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.geom import Geometry
from tilecloud_chain_ray.geom.ops import box_intersects_many


class CoordGeomFilter:
    """Keep coordinate rows intersecting the layer geometry."""

    def __init__(self, layer: Layer, geoms_ref=None) -> None:
        self.layer = layer
        geoms = ray.get(geoms_ref) if isinstance(geoms_ref, ray.ObjectRef) else geoms_ref
        if geoms is None:
            geoms = layer.geoms_per_zoom()
        self.geoms: Mapping[int, Geometry] = geoms
        self.filter_px = layer.filter_px_buffer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.layer.geom_filter or batch.num_rows == 0:
            return batch
        grid = self.layer.grid
        z = batch["z"].to_numpy(zero_copy_only=False)
        x = batch["x"].to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch["y"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        keep = np.zeros(batch.num_rows, dtype=bool)
        for zoom in np.unique(z):
            geom = self.geoms.get(int(zoom))
            if geom is None or geom.is_empty:
                continue
            mask = z == zoom
            res = grid.res_scaled(int(zoom)) / grid.scale
            border = grid.resolutions[int(zoom)] * self.filter_px  # pixel units
            ts = grid.tile_size
            xs, ys, ns = x[mask], y[mask], n[mask]
            boxes = np.empty((len(xs), 4))
            boxes[:, 0] = grid.bbox[0] + (ts * xs - border) * res
            boxes[:, 2] = grid.bbox[0] + (ts * (xs + ns) + border) * res
            boxes[:, 3] = grid.bbox[3] - (ts * ys - border) * res
            boxes[:, 1] = grid.bbox[3] - (ts * (ys + ns) + border) * res
            keep[mask] = box_intersects_many(geom, boxes)
        return batch.filter(pa.array(keep))


def add_geom_filter(
    ds: ray.data.Dataset,
    layer: Layer,
    geoms: Mapping[int, Geometry] | None = None,
) -> ray.data.Dataset:
    """Wire the filter as a task stage with per-process state.

    The filter state (decode the one broadcast geometry dict, build the
    tiny per-zoom structures) is built once per worker process, so the
    stage fuses with the upstream expansion and starts no actor pool
    (~1 s serial on small jobs); its parallelism is the input's blocks.
    """
    geoms_ref = ray.put(geoms if geoms is not None else layer.geoms_per_zoom())
    key = ("coord_geom_filter", layer.name, layer.grid.name, geoms_ref.hex())

    def filter_fn(batch: pa.Table) -> pa.Table:
        from tilecloud_chain_ray.util import process_cached

        stage = process_cached(
            key, lambda: CoordGeomFilter(layer=layer, geoms_ref=geoms_ref)
        )
        return stage(batch)

    return ds.map_batches(filter_fn, batch_format="pyarrow", batch_size=None)
