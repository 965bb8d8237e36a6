"""Pyramid manifest: the GetCapabilities analog (SURVEY.md §3.3).

The reference serves WMTS capabilities XML from a Jinja template over
config (``/root/reference/tilecloud_chain/server.py:498-562``); our
serving surface is a read API over the tile table, so the equivalent is
a machine-readable manifest written next to the pyramid: layers, grids
(resolutions/bbox/srs/matrix dims), dimensions, zoom extents, and the
per-zoom tile counts of what was actually stored.
"""

from __future__ import annotations

import json
import os

import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.util import exchange_aggregate


def write_manifest(out_dir: str, layers: list[Layer], tiles: ray.data.Dataset | None = None) -> str:
    per_zoom_counts: dict[str, int] = {}
    if tiles is not None:
        keys = ["layer", "z", "status"]
        counts = exchange_aggregate(
            tiles.select_columns(keys), keys, [([], "count_all")], [*keys, "n"]
        )
        for row in counts.take_all():
            if row["status"] == "stored":
                per_zoom_counts[f"{row['layer']}/{row['z']}"] = row["n"]
    doc = {
        "format": "tilecloud-chain-ray/manifest/1",
        "layers": [
            {
                "name": layer.name,
                "style": layer.wmts_style,
                "mime_type": layer.mime_type,
                "extension": layer.extension,
                "meta": layer.meta,
                "meta_size": layer.meta_size,
                "meta_buffer": layer.meta_buffer,
                "min_resolution_seed": layer.min_resolution_seed,
                "dimensions": [
                    {"name": d.name, "default": d.default, "values": list(d.values)}
                    for d in layer.dimensions
                ],
                "grid": {
                    "name": layer.grid.name,
                    "srs": layer.grid.srs,
                    "bbox": list(layer.grid.bbox),
                    "tile_size": layer.grid.tile_size,
                    "resolutions": list(layer.grid.resolutions),
                    "matrix_identifier": layer.grid.matrix_identifier,
                    "matrices": [
                        {
                            "id": layer.grid.matrix_id(z),
                            "zoom": z,
                            "width": layer.grid.matrix_dims(z)[0],
                            "height": layer.grid.matrix_dims(z)[1],
                        }
                        for z in layer.grid.zooms()
                    ],
                },
                "stored_tiles_per_zoom": {
                    str(z): per_zoom_counts.get(f"{layer.name}/{z}", 0)
                    for z in layer.grid.zooms()
                },
            }
            for layer in layers
        ],
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)
    # the WMTS interoperability artifact next to the JSON manifest
    from tilecloud_chain_ray.sinks.capabilities import write_capabilities

    write_capabilities(out_dir, layers)
    return path
