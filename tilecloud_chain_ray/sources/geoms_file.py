"""File-based geometry sources (PostGIS/OGR substitute).

The reference builds layer geometries from live PostGIS SQL / OGR
datasources (``/root/reference/tilecloud_chain/__init__.py:1815-2014``,
``get_geoms`` with per-zoom resolution bounds).  No database exists in
this environment, so the equivalent data surface is a Parquet geometry
table per config::

    layer: string, geom_wkb: binary,
    min_resolution: double (nullable), max_resolution: double (nullable),
    srs: string (nullable — reprojected to the grid CRS on load)

Loading is driver-side (geometry tables are small — they are broadcast
to the STRtree task stages anyway); the WKB codec is the engine's own
(``geom/wkb.py``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from tilecloud_chain_ray.config import GeometrySource
from tilecloud_chain_ray.geom.wkb import geometry_from_wkb, geometry_to_wkb

SCHEMA = pa.schema(
    [
        ("layer", pa.string()),
        ("geom_wkb", pa.binary()),
        ("min_resolution", pa.float64()),
        ("max_resolution", pa.float64()),
        ("srs", pa.string()),
    ]
)


def write_geometry_table(path: str, entries: list[dict]) -> None:
    """entries: dicts with keys layer, geometry (geom.Geometry) and
    optional min_resolution / max_resolution / srs."""
    table = pa.Table.from_pydict(
        {
            "layer": [e["layer"] for e in entries],
            "geom_wkb": [geometry_to_wkb(e["geometry"]) for e in entries],
            "min_resolution": [e.get("min_resolution") for e in entries],
            "max_resolution": [e.get("max_resolution") for e in entries],
            "srs": [e.get("srs") for e in entries],
        },
        schema=SCHEMA,
    )
    pq.write_table(table, path)


def load_layer_geometries(
    path: str,
    layer_name: str,
    grid_proj4: str | None = None,
) -> tuple[GeometrySource, ...]:
    """GeometrySource entries for one layer, reprojected into the grid
    CRS when a row declares a different ``srs``."""
    table = pq.read_table(path)
    mask = pa.compute.equal(table["layer"], layer_name)
    table = table.filter(mask)
    sources: list[GeometrySource] = []
    for i in range(table.num_rows):
        geom = geometry_from_wkb(table["geom_wkb"][i].as_py())
        srs = table["srs"][i].as_py() if "srs" in table.column_names else None
        if srs and grid_proj4:
            from tilecloud_chain_ray.proj import (
                Transformer,
                get_proj4_literal,
                transform_geometry,
            )

            src_lit = get_proj4_literal(srs)
            if src_lit != grid_proj4:
                geom = transform_geometry(geom, Transformer.from_proj4(src_lit, grid_proj4))
        sources.append(
            GeometrySource(
                geom,
                min_resolution=table["min_resolution"][i].as_py(),
                max_resolution=table["max_resolution"][i].as_py(),
            )
        )
    return tuple(sources)
