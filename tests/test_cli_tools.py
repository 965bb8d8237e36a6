"""CLI discovery tools (get-bbox/get-hash/capabilities/cost) + the
file-based geometry source (PostGIS substitute)."""

import json
import subprocess
import sys

import pytest

CONFIG = """
grids:
  swissgrid_5:
    resolutions: [100, 50, 20, 10, 5]
    bbox: [420000, 30000, 900000, 350000]
    tile_size: 256
    srs: EPSG:21781
layers:
  point_hash:
    grids: [swissgrid_5]
    geoms:
      - wkt: MULTIPOINT((600000 200000), (530000 150000))
    meta: true
    meta_size: 8
    meta_buffer: 128
    min_resolution_seed: 10
"""


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "config.yaml"
    p.write_text(CONFIG)
    return str(p)


def run_cli(*argv):
    out = subprocess.run(
        [sys.executable, "jobs/tcr.py", *argv],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_get_bbox_reference_golden(config_path):
    # reference --get-bbox golden: 4/4/4 on swissgrid_5 ->
    # [425120, 343600, 426400, 344880] (tests/test_generate.py:813-837)
    out = json.loads(run_cli("get-bbox", "4/4/4", "--config", config_path,
                             "--layer", "point_hash"))
    assert out == [425120, 343600, 426400, 344880]


def test_get_hash_matches_empty_signatures(config_path):
    from tilecloud_chain_ray.config_yaml import load_config
    from tilecloud_chain_ray.stages.hashdrop import empty_signatures

    layer = load_config(config_path).engine.layers["point_hash"]
    em, et = empty_signatures(layer)
    meta = json.loads(run_cli("get-hash", "0/0/0:+8/+8", "--config", config_path,
                              "--layer", "point_hash"))
    tile = json.loads(run_cli("get-hash", "0/0/0", "--config", config_path,
                              "--layer", "point_hash"))
    assert (meta["size"], meta["hash"]) == (em.size, em.sha1)
    assert (tile["size"], tile["hash"]) == (et.size, et.sha1)


def test_capabilities_cli(config_path, tmp_path):
    path = run_cli("capabilities", "--config", config_path, "--out", str(tmp_path))
    import xml.etree.ElementTree as ET

    ET.parse(path)


def test_cost_cli(config_path):
    lines = run_cli("cost", "--config", config_path, "--layer", "point_hash").splitlines()
    rows = [json.loads(l) for l in lines]
    assert [r["zoom"] for r in rows] == [0, 1, 2, 3]


def test_geometry_file_source(tmp_path):
    from tilecloud_chain_ray.config_yaml import load_config
    from tilecloud_chain_ray.geom import MultiPoint, Point, Polygon
    from tilecloud_chain_ray.sources.geoms_file import (
        load_layer_geometries,
        write_geometry_table,
    )

    path = str(tmp_path / "geoms.parquet")
    write_geometry_table(
        path,
        [
            {
                "layer": "point_hash",
                "geometry": MultiPoint((Point(600000, 200000), Point(530000, 150000))),
                "min_resolution": 10.0,
            },
            # declared in LV95 -> must come back shifted into LV03
            {
                "layer": "point_hash",
                "geometry": Point(2650000, 1250000),
                "srs": "EPSG:2056",
            },
            {"layer": "other", "geometry": Polygon([(0, 0), (1, 0), (1, 1), (0, 0)])},
        ],
    )
    from tilecloud_chain_ray.proj import get_proj4_literal

    sources = load_layer_geometries(path, "point_hash", get_proj4_literal(21781))
    assert len(sources) == 2
    assert sources[0].min_resolution == 10.0
    p = sources[1].geometry
    assert (p.x, p.y) == pytest.approx((650000, 250000))

    # and through the YAML loader
    cfg = CONFIG.replace(
        "      - wkt: MULTIPOINT((600000 200000), (530000 150000))",
        f"      - file: {path}",
    )
    layer = load_config(text=cfg).engine.layers["point_hash"]
    assert len(layer.geometries) == 2


def test_time_cli(config_path):
    out = json.loads(run_cli("time", "2", "--config", config_path,
                             "--layer", "point_hash"))
    assert out["metatiles"] == 2
    assert out["tiles"] == 128  # 2 metatiles x 64 children
    assert out["us_per_tile"] > 0


def test_serve_cli(config_path):
    """serve: WMTS over HTTP with dynamic mapcache beyond the seed."""
    import urllib.request

    proc = subprocess.Popen(
        [sys.executable, "jobs/tcr.py", "serve", "--config", config_path,
         "--port", "0", "--dynamic"],
        stdout=subprocess.PIPE, text=True, cwd="/root/repo",
    )
    try:
        info = json.loads(proc.stdout.readline())
        assert info["layers"] == ["point_hash"] and info["dynamic"]
        base = info["url"].rstrip("/")
        with urllib.request.urlopen(f"{base}/1.0.0/WMTSCapabilities.xml") as r:
            assert r.status == 200 and b"point_hash" in r.read()
        # z4 is beyond the seeded zooms (min_resolution_seed=10 -> 0..3):
        # generated on demand through the mapcache
        with urllib.request.urlopen(
            f"{base}/1.0.0/point_hash/default/swissgrid_5/4/117/140.png"
        ) as r:
            assert r.status == 200
            assert r.headers["Tile-Backend"] == "mapcache-generate"
            assert r.read().startswith(b"\x89PNG")
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_daemon_watch_loop(config_path, tmp_path):
    """--watch daemon: drop-dir tiles files consumed, results moved to
    done/ (queue analog of the reference --daemon loop)."""
    watch = tmp_path / "queue"
    out = tmp_path / "tiles"
    watch.mkdir()
    # metatile containing the two stored z3 tiles + a bad file
    (watch / "a.list").write_text("3/64/56:+8/+8\n# comment\n3/40/72:+8/+8\n")
    (watch / "bad.list").write_text("not-a-coord\n")
    proc = subprocess.run(
        [sys.executable, "jobs/run_pyramid.py", "--config", config_path,
         "--layer", "point_hash", "--out", str(out),
         "--watch", str(watch), "--once"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(l) for l in proc.stdout.strip().splitlines()]
    by_file = {l["file"]: l for l in lines}
    assert by_file["a.list"]["tiles_stored"] == 2
    assert "error" in by_file["bad.list"]
    assert (watch / "done" / "a.list").exists()
    assert (watch / "error" / "bad.list").exists()
    assert (watch / "error" / "bad.list.err").read_text().strip()
    assert not (watch / "a.list").exists()
    # the two stored tiles landed in the WMTS layout
    import glob

    pngs = sorted(glob.glob(str(out / "**" / "*.png"), recursive=True))
    assert [p.split("swissgrid_5/")[1] for p in pngs] == ["3/58/70.png", "3/78/42.png"]


@pytest.mark.usefixtures("ray_session")
def test_run_pyramid_pages_resume(tmp_path):
    """run_pyramid.py --pages is the checkpointed density job: a second
    run over the same shards skips both and reports the same tiles; a
    cell resolution too coarse for the zooms is rejected with the
    library's message as a usage error."""
    import os

    import ray

    from tilecloud_chain_ray.sources.pages import synthesize_pages

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pages = tmp_path / "pages"
    synthesize_pages(str(pages), 1000, avg_html=64, rows_per_file=500)  # 2 shards
    env = {**os.environ, "RAY_ADDRESS": ray.get_runtime_context().gcs_address}

    def run(*extra):
        return subprocess.run(
            [sys.executable, "jobs/run_pyramid.py", "--pages", str(pages),
             "--out", str(tmp_path / "out"), "--zooms", "0-2", *extra],
            capture_output=True, text=True, cwd=root, env=env,
        )

    def summary(proc):
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    first, second = summary(run()), summary(run())
    assert first["partitions_done"] == 2 and first["partitions_skipped"] == 0
    assert second["partitions_skipped"] == 2 and second["partitions_error"] == 0
    assert second["tiles"] == first["tiles"] > 0

    coarse = run("--cell-res", "9")
    assert coarse.returncode == 2
    assert "need pixel res > cell_res 9" in coarse.stderr
