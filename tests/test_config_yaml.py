"""YAML loader + WKT: a reference-style config drives the engine."""

import warnings

import pytest

from tilecloud_chain_ray.config_yaml import load_config
from tilecloud_chain_ray.geom import GeometryCollection, MultiPoint, Point, Polygon
from tilecloud_chain_ray.geom.wkt import geometry_from_wkt, geometry_to_wkt

YAML = """
grids:
  swissgrid_5: &swissgrid
    resolutions: [100, 50, 20, 10, 5]
    bbox: [420000, 30000, 900000, 350000]
    tile_size: 256
    srs: EPSG:21781
  swissgrid_01:
    resolutions: [1, 0.2, 0.1]
    bbox: [420000, 30000, 900000, 350000]
    srs: EPSG:21781
    matrix_identifier: resolution

caches:
  local:
    type: filesystem
    http_url: http://wmts1/
    folder: /tmp/tiles
  s3ish:
    type: s3
    bucket: tiles

defaults:
  layer: &layer
    grids: [swissgrid_5]
    wmts_style: default
    mime_type: image/png
    extension: png
    dimensions:
      - name: DATE
        default: '2012'
        generate: ['2012']
        values: ['2005', '2010', '2012']
    meta: true
    meta_size: 8
    meta_buffer: 128

layers:
  point_hash:
    <<: *layer
    geoms:
      - wkt: MULTIPOINT((600000 200000), (530000 150000))
    min_resolution_seed: 10
    empty_metatile_detection:
      size: 20743
      hash: 01062bb3b25dcead792d7824f9a7045f0dd92992
    empty_tile_detection:
      size: 334
      hash: dd6cb45962bccb3ad2450ab07011ef88f766eda8
  from_postgis:
    <<: *layer
    geoms:
      - sql: the_geom AS geom FROM tests.point
        connection: user=x password=y
"""


def test_load_reference_style_yaml():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        loaded = load_config(text=YAML)
    cfg = loaded.engine
    assert set(cfg.grids) == {"swissgrid_5", "swissgrid_01"}
    assert cfg.grids["swissgrid_01"].matrix_id(1) == "0_2"
    layer = cfg.layers["point_hash"]
    assert layer.meta and layer.meta_size == 8 and layer.meta_buffer == 128
    assert layer.min_resolution_seed == 10
    assert layer.empty_tile.size == 334
    assert layer.empty_tile.sha1.startswith("dd6cb459")
    assert layer.dimensions[0].name == "DATE"
    from tilecloud_chain_ray.config import GeometrySource
    assert isinstance(layer.geometries[0], GeometrySource)
    assert isinstance(layer.geometries[0].geometry, MultiPoint)
    assert layer.seed_zooms() == [0, 1, 2, 3]
    # PostGIS source skipped with a warning
    assert any("live service" in w for w in loaded.warnings_)
    assert cfg.layers["from_postgis"].geometries == ()
    assert loaded.caches == {"local": "/tmp/tiles"}


def test_yaml_layer_runs_pipeline(ray_session):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        loaded = load_config(text=YAML)
    layer = loaded.engine.layers["point_hash"]
    from tilecloud_chain_ray.pipelines.generate import generate_tiles

    # empty-tile hashes in the YAML are MapServer's, not our renderer's:
    # auto_empty replaces unset ones only, so drop them for the run
    from dataclasses import replace

    layer = replace(layer, empty_metatile=None, empty_tile=None)
    result = generate_tiles(layer)
    assert result.summary["tiles_stored"] == 8
    assert result.summary["metatiles_generated"] == 10


def test_wkt_roundtrip():
    cases = [
        "POINT(600000 200000)",
        "LINESTRING(0 0, 10 5, 20 0)",
        "POLYGON((0 0, 10 0, 10 10, 0 10, 0 0))",
        "POLYGON((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))",
        "MULTIPOINT((1 2), (3 4))",
        "MULTILINESTRING((0 0, 1 1), (2 2, 3 3))",
        "MULTIPOLYGON(((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))",
        "GEOMETRYCOLLECTION(POINT(1 2), LINESTRING(0 0, 1 1))",
    ]
    for wkt in cases:
        g = geometry_from_wkt(wkt)
        back = geometry_from_wkt(geometry_to_wkt(g))
        assert type(back) is type(g)
        assert back.bounds == pytest.approx(g.bounds)
    p = geometry_from_wkt("MULTIPOINT(1 2, 3 4)")  # paren-less variant
    assert isinstance(p, MultiPoint) and len(p.points) == 2
    with pytest.raises(ValueError):
        geometry_from_wkt("CIRCLE(0 0, 5)")


BAD_YAML = """
grids:
  bad_grid:
    resolutions: [5, 10, 100]
    bbox: [900000, 30000, 420000]
  no_res:
    bbox: [0, 0, 1, 1]
    tile_size: -5
layers:
  broken:
    grids: [missing_grid]
    meta: true
    meta_size: 0
    empty_tile_detection:
      size: 334
      hash: nothex
  grid_meta:
    type: mapnik
    output_format: grid
    meta: true
    grids: [no_res]
"""


def test_validate_config_structured_errors():
    from tilecloud_chain_ray.config_yaml import ConfigError, validate_config
    import yaml as _yaml

    errors = validate_config(_yaml.safe_load(BAD_YAML), file="bad.yaml")
    joined = "\n".join(errors)
    assert "grids.bad_grid.resolutions" in joined and "descending" in joined
    assert "grids.bad_grid.bbox" in joined
    assert "grids.no_res.resolutions" in joined
    assert "grids.no_res.tile_size" in joined
    assert "layers.broken.grids" in joined and "missing_grid" in joined
    assert "layers.broken.meta_size" in joined
    assert "empty_tile_detection.hash" in joined
    assert "Mapnik/Grid" in joined

    with pytest.raises(ConfigError) as exc:
        load_config(text=BAD_YAML)
    assert len(exc.value.errors) >= 7
    # ignore_error loads anyway (like the reference's flag)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(Exception):
            load_config(text=BAD_YAML, ignore_error=True)  # Grid ctor still asserts


def test_validate_config_resolution_scale():
    from tilecloud_chain_ray.config_yaml import validate_config

    doc = {
        "grids": {
            "g": {
                "resolutions": [0.3, 0.1],
                "bbox": [0, 0, 1, 1],
                "resolution_scale": 3,
            }
        }
    }
    errors = validate_config(doc)
    assert any("not an integer" in e for e in errors)
    doc["grids"]["g"]["resolution_scale"] = 10
    assert validate_config(doc) == []


def test_validate_config_unknown_keys_warn_not_error():
    from tilecloud_chain_ray.config_yaml import validate_config

    doc = {
        "grids": {
            "g": {"resolutions": [10, 5], "bbox": [0, 0, 1, 1], "bogus_key": 1}
        }
    }
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        assert validate_config(doc) == []
    assert any("bogus_key" in str(w.message) for w in rec)


PROJ_YAML = """
grids:
  lv95:
    resolutions: [100, 50]
    bbox: [2420000, 1030000, 2900000, 1350000]
    srs: EPSG:2056
layers:
  pts:
    grids: [lv95]
    bbox: [420000, 30000, 900000, 350000]
    srs: EPSG:21781
    geoms:
      - wkt: POINT(600000 200000)
        srs: EPSG:21781
    meta: false
"""


def test_yaml_reprojects_layer_bbox_and_geoms():
    loaded = load_config(text=PROJ_YAML)
    layer = loaded.engine.layers["pts"]
    # LV03 -> LV95 is an exact +2'000'000/+1'000'000 shift
    assert layer.bbox == pytest.approx((2420000, 1030000, 2900000, 1350000))
    g = layer.geometries[0].geometry
    assert (g.x, g.y) == pytest.approx((2600000, 1200000))


def test_layer_srs_same_as_grid_is_noop_and_unknown_is_structured():
    """A layer srs equal to the grid's must load without requiring a
    proj4-literal-table entry; an unknown srs that WOULD reproject must
    raise a structured ConfigError, not a bare ValueError."""
    from tilecloud_chain_ray.config_yaml import ConfigError

    base = """
caches:
  local: {type: filesystem, folder: /tmp/t, http_url: "http://x/"}
grids:
  g:
    srs: EPSG:3035
    bbox: [0, 0, 1000, 1000]
    resolutions: [10, 5]
    tile_size: 256
layers:
  lay:
    grid: g
    grids: [g]
    srs: %s
    bbox: [0, 0, 500, 500]
"""
    # EPSG:3035 is NOT in the built-in literal table — but srs == grid
    # srs means no reprojection, so this must load
    cfg = load_config(text=base % "EPSG:3035")
    assert tuple(cfg.engine.layers["lay"].bbox or ()) == (0, 0, 500, 500)

    # a different unknown srs needs a transform -> structured error
    with pytest.raises(ConfigError) as exc:
        load_config(text=base % "EPSG:9999")
    assert "EPSG:9999" in "\n".join(exc.value.errors)
