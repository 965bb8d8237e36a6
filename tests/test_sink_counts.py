"""Run counters of the tile sinks (``sinks.wmts.summarize``,
``sinks.manifest.write_manifest``) against plain Python counts, on a
mixed-status tile table spread over several blocks and on an empty
one, at exchange widths 1 and 4."""

from __future__ import annotations

import json
from collections import Counter

import pyarrow as pa
import pytest
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.grid import SWISSGRID_5
from tilecloud_chain_ray.sinks.manifest import write_manifest
from tilecloud_chain_ray.sinks.wmts import summarize

ROWS = (
    [("a", 0, "stored")] * 5
    + [("a", 0, "dropped")] * 7
    + [("a", 1, "stored")] * 3
    + [("a", 2, "meta_dropped")] * 2
    + [("b", 1, "stored")] * 4
    + [("b", 1, "dropped")] * 1
)
SCHEMA = pa.schema([("layer", pa.string()), ("z", pa.int32()), ("status", pa.string())])


def _tiles(rows) -> ray.data.Dataset:
    t = pa.Table.from_pylist(
        [dict(zip(SCHEMA.names, r)) for r in rows], schema=SCHEMA
    )
    return ray.data.from_arrow(t).repartition(3) if rows else ray.data.from_arrow(t)


def _layers():
    return [Layer(name=n, grid=SWISSGRID_5, meta=False) for n in ("a", "b")]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("rows", [ROWS, []], ids=["mixed", "empty"])
def test_summary_counts(at_width, width, rows):
    by_status = Counter(s for _, _, s in rows)
    with at_width(width):
        got = summarize(_tiles(rows), meta_size=2, meta=True)
    generated = by_status["dropped"] + by_status["stored"]
    assert got == {
        "tiles_generated": generated,
        "tiles_dropped": by_status["dropped"],
        "tiles_stored": by_status["stored"],
        "metatiles_dropped": by_status["meta_dropped"],
        "metatiles_generated": by_status["meta_dropped"] + generated // 4,
    }


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("rows", [ROWS, []], ids=["mixed", "empty"])
def test_manifest_counts(tmp_path, at_width, width, rows):
    stored = Counter((layer, z) for layer, z, s in rows if s == "stored")
    with at_width(width):
        path = write_manifest(str(tmp_path), _layers(), _tiles(rows))
    doc = json.load(open(path))
    for lay in doc["layers"]:
        assert lay["stored_tiles_per_zoom"] == {
            str(z): stored[(lay["name"], z)] for z in SWISSGRID_5.zooms()
        }
