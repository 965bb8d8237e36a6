"""Cache copy / process (S5 + M8 composition).

``generate-copy`` (``/root/reference/tilecloud_chain/copy_.py:43-66``):
read tiles back from one store, optionally post-process, write to
another.  Here both stores are either a WMTS filesystem layout or a
tiles parquet table; reading the layout is
``read_binary_files(include_paths=True)`` + path parsing.
"""

from __future__ import annotations

import os
import re

import pyarrow as pa
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.sinks.wmts import write_wmts

_PATH_RE = re.compile(
    r"1\.0\.0/(?P<layer>[^/]+)/(?P<style>[^/]+)/(?P<dims>.*?)(?P<grid>[^/]+)/"
    r"(?P<matrix>[^/]+)/(?P<row>\d+)/(?P<col>\d+)\.(?P<ext>\w+)$"
)


def read_wmts_layout(root: str, layer: Layer) -> ray.data.Dataset:
    """Cache-as-source: WMTS tree -> tile rows (S5)."""
    files = ray.data.read_binary_files(root, include_paths=True)
    matrix_to_zoom = {layer.grid.matrix_id(z): z for z in layer.grid.zooms()}

    def parse(batch: pa.Table) -> pa.Table:
        zs, xs, ys, datas, layers = [], [], [], [], []
        for path, data in zip(batch["path"].to_pylist(), batch["bytes"].to_pylist()):
            m = _PATH_RE.search(path.replace(os.sep, "/"))
            if not m:
                continue
            z = matrix_to_zoom.get(m.group("matrix"))
            if z is None:
                continue
            zs.append(z)
            ys.append(int(m.group("row")))
            xs.append(int(m.group("col")))
            datas.append(data)
            layers.append(m.group("layer"))
        return pa.Table.from_pydict(
            {
                "layer": pa.array(layers, pa.string()),
                "grid": pa.array([layer.grid.name] * len(zs), pa.string()),
                "z": pa.array(zs, pa.int32()),
                "x": pa.array(xs, pa.int64()),
                "y": pa.array(ys, pa.int64()),
                "n": pa.array([1] * len(zs), pa.int32()),
                "data": pa.array(datas, pa.binary()),
                "status": pa.array(["stored"] * len(zs), pa.string()),
            }
        )

    return files.map_batches(parse, batch_format="pyarrow")


def copy_cache(
    src_root: str,
    dst_root: str,
    layer: Layer,
    process=None,
) -> int:
    """Copy a cache tree (optionally transforming tile bytes); returns
    the number of tiles copied."""
    tiles = read_wmts_layout(src_root, layer)
    if process is not None:
        tiles = tiles.map_batches(process, batch_format="pyarrow")
    return write_wmts(tiles, layer, dst_root).count()
