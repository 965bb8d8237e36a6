#!/usr/bin/env python
"""Interactive discovery CLI — the ``generate-tiles --get-hash`` /
``--get-bbox`` / ``generate-controller`` / ``generate-cost`` analogs
(reference ``generate.py:709-897``, ``controller.py``, ``cost.py``).

Subcommands (all driver-side; no Ray session needed except ``cost
--algo count``):

  get-bbox   z/x/y[:+n/+n] --config C --layer L [--px-buffer N]
  get-hash   z/x/y[:+n/+n] --config C --layer L
  capabilities --config C --out DIR [--base-url URL]
  cost       --config C --layer L [--algo area|count]

Examples:
  python jobs/tcr.py get-bbox 4/4/4 --config cfg.yaml --layer point_hash
  python jobs/tcr.py get-hash 0/0/0:+8/+8 --config cfg.yaml --layer point_hash
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# make the checkout importable when run as ``python jobs/<name>.py``
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def cmd_get_bbox(args) -> None:
    from tilecloud_chain_ray.config_yaml import load_config
    from tilecloud_chain_ray.coords import parse_tilecoord

    layer = load_config(args.config).engine.layers[args.layer]
    c = parse_tilecoord(args.tilecoord)
    bbox = layer.grid.extent(c.z, c.x, c.y, c.n, args.px_buffer)
    print(json.dumps(list(bbox)))


def cmd_get_hash(args) -> None:
    """Size + sha1 of the tile/metatile the deterministic renderer
    produces for an EMPTY extent — the value to put in
    empty_{metatile,tile}_detection (reference HashLogger)."""
    from tilecloud_chain_ray.config_yaml import load_config
    from tilecloud_chain_ray.coords import parse_tilecoord
    from tilecloud_chain_ray.stages.hashdrop import empty_signatures

    layer = load_config(args.config).engine.layers[args.layer]
    c = parse_tilecoord(args.tilecoord)
    empty_meta, empty_tile = empty_signatures(layer, png_level=args.png_level)
    sig = empty_meta if c.n > 1 else empty_tile
    print(
        json.dumps(
            {
                "tilecoord": str(c),
                "size": sig.size,
                "hash": sig.sha1,
                "png_level": args.png_level,
            },
        )
    )


def cmd_capabilities(args) -> None:
    from tilecloud_chain_ray.config_yaml import load_config
    from tilecloud_chain_ray.sinks.capabilities import write_capabilities

    loaded = load_config(args.config)
    path = write_capabilities(
        args.out,
        list(loaded.engine.layers.values()),
        base_urls=[args.base_url] if args.base_url else None,
    )
    print(path)


def cmd_cost(args) -> None:
    from tilecloud_chain_ray.config_yaml import load_config
    from tilecloud_chain_ray.pipelines.cost import estimate_cost

    if args.algo == "count":
        import ray

        if not ray.is_initialized():
            ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    layer = load_config(args.config).engine.layers[args.layer]
    rows = estimate_cost(layer, algo=args.algo)
    for r in rows:
        print(
            json.dumps(
                {
                    "zoom": r.zoom,
                    "n_tiles": r.n_tiles,
                    "n_metatiles": r.n_metatiles,
                    "time_sec": r.time_sec,
                    "size_kb": r.size_kb,
                }
            )
        )
    if args.algo == "count":
        import ray

        ray.shutdown()


def cmd_vectorize(args) -> None:
    """Raster -> vector: a stored tile table (parquet with z/x/y/data)
    -> pixel/cell rows and WKT rectangle polygons in map coordinates
    (pipelines/vectorize.py — the gdal_polygonize analog)."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import tilecloud_chain_ray.grid as gridmod
    from tilecloud_chain_ray.pipelines.vectorize import (
        tiles_to_polygons,
        vectorize_tiles,
    )
    from tilecloud_chain_ray.util import read_parquet_clean

    grid = getattr(gridmod, args.grid.upper())
    tiles = read_parquet_clean(args.tiles).materialize()
    pixels = vectorize_tiles(tiles)
    polys = tiles_to_polygons(tiles, grid)
    os.makedirs(args.out, exist_ok=True)
    pixels.write_parquet(os.path.join(args.out, "pixels"))
    polys.write_parquet(os.path.join(args.out, "polygons"))
    print(
        json.dumps(
            {
                "tiles": tiles.count(),
                "pixels": pixels.count(),
                "polygons": polys.count(),
                "out": args.out,
            }
        )
    )
    ray.shutdown()


def cmd_time(args) -> None:
    """The reference's ``--time N`` protocol (generate.py:378-408):
    N warm-up tiles (untimed), then N measured, report us/tile."""
    import time as _time

    import ray

    from tilecloud_chain_ray.config_yaml import load_config
    from tilecloud_chain_ray.pipelines.generate import generate_tiles

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    layer = load_config(args.config).engine.layers[args.layer]
    n = args.n
    # warm-up: same coords, untimed (JIT/page-cache/worker spawn)
    generate_tiles(layer, test_n=n, with_summary=False).tiles.count()
    t0 = _time.perf_counter()
    result = generate_tiles(layer, test_n=n, with_summary=False)
    tiles = result.tiles.count()
    dt = _time.perf_counter() - t0
    print(
        json.dumps(
            {
                "metatiles": n,
                "tiles": tiles,
                "sec": round(dt, 4),
                "us_per_tile": round(dt / max(tiles, 1) * 1e6, 1),
            }
        )
    )
    ray.shutdown()


def cmd_serve(args) -> None:
    """Serve the configured layers over WMTS (KVP + REST), the analog of
    the reference's FastAPI server (``server.py:1103-1219``).  With
    ``--dynamic``, tiles beyond the seeded zooms (or outside the layer
    geometry) are generated on demand through the internal mapcache —
    from each layer's configured WMS ``url`` when present, else the
    deterministic renderer."""
    from tilecloud_chain_ray.config_yaml import load_config
    from tilecloud_chain_ray.wmts_server import (
        LocalMapCache,
        WmtsServer,
        default_tile_source,
        serve_wmts,
        wms_tile_source,
    )

    loaded = load_config(args.config)
    root = args.root or next(iter(loaded.caches.values()), None)
    mapcache = LocalMapCache() if args.dynamic else None

    def tile_source(layer):
        url = loaded.urls.get(layer.name)
        if url:
            return wms_tile_source(layer, url)
        return default_tile_source(layer)

    server = WmtsServer(
        loaded.engine.layers,
        root,
        mapcache=mapcache,
        tile_source=tile_source,
        max_zoom_seed=args.max_zoom_seed,
    )
    httpd = serve_wmts(server, host=args.host, port=args.port)
    print(
        json.dumps(
            {
                "url": f"http://{args.host}:{httpd.server_address[1]}/",
                "layers": sorted(loaded.engine.layers),
                "root": root,
                "dynamic": bool(mapcache),
            }
        ),
        flush=True,
    )
    try:
        import threading

        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        httpd.shutdown()


def cmd_jobs_list(args) -> None:
    from tilecloud_chain_ray.console import list_jobs

    print(json.dumps(list_jobs(args.root), indent=2))


def cmd_jobs_status(args) -> None:
    from tilecloud_chain_ray.console import job_status

    print(json.dumps(job_status(args.dir, top_errors=args.top_errors), indent=2))


def cmd_jobs_errors(args) -> None:
    from tilecloud_chain_ray.console import tail_errors

    print(json.dumps(tail_errors(args.dir, args.n), indent=2))


def cmd_jobs_requeue(args) -> None:
    from tilecloud_chain_ray.console import requeue_errors

    print(json.dumps(requeue_errors(args.dir)))


def cmd_jobs_metrics(args) -> None:
    from tilecloud_chain_ray.console import metrics_summary

    print(json.dumps(metrics_summary(args.path), indent=2, default=str))


def cmd_jobs_serve(args) -> None:
    from tilecloud_chain_ray.console import serve

    commands = None
    if args.commands:
        with open(args.commands) as fh:
            commands = json.load(fh)  # {name: argv_list} — the allow-list
    srv = serve(
        args.root, port=args.port, host=args.host, commands=commands, token=args.token
    )
    print(f"console on http://{args.host}:{srv.server_address[1]}", file=sys.stderr)
    print(f"POST token: {srv.console.token}", file=sys.stderr)
    srv.serve_forever()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("get-bbox", help="meter bounds of a (meta)tile coord")
    p.add_argument("tilecoord")
    p.add_argument("--config", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument("--px-buffer", type=float, default=0.0)
    p.set_defaults(fn=cmd_get_bbox)

    p = sub.add_parser("get-hash", help="empty-tile size+sha1 for hash drop config")
    p.add_argument("tilecoord")
    p.add_argument("--config", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument(
        "--png-level",
        type=int,
        default=6,
        help="PNG encode level the target pipeline uses (generate: 6; "
        "pipelines force 6 whenever empty_tile_detection pins a hash)",
    )
    p.set_defaults(fn=cmd_get_hash)

    p = sub.add_parser("capabilities", help="write WMTSCapabilities.xml")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--base-url")
    p.set_defaults(fn=cmd_capabilities)

    p = sub.add_parser("vectorize", help="tile table -> pixel rows + WKT polygons")
    p.add_argument("--tiles", required=True, help="parquet tile table (z,x,y,data)")
    p.add_argument("--grid", default="WEBMERC", help="named grid (WEBMERC, SWISSGRID_5, ...)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_vectorize)

    p = sub.add_parser("time", help="N warm-up + N measured (meta)tiles, us/tile")
    p.add_argument("n", type=int, nargs="?", default=4)
    p.add_argument("--config", required=True)
    p.add_argument("--layer", required=True)
    p.set_defaults(fn=cmd_time)

    p = sub.add_parser("cost", help="per-zoom tile counts / time / size estimate")
    p.add_argument("--config", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument("--algo", default="area", choices=["area", "count"])
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("serve", help="WMTS server (KVP+REST) over a pyramid")
    p.add_argument("--config", required=True)
    p.add_argument("--root", help="static pyramid dir (default: first cache)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--dynamic", action="store_true", help="mapcache beyond seed")
    p.add_argument("--max-zoom-seed", type=int)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "jobs", help="operator console over lineage records (admin-UI analog)"
    )
    jsub = p.add_subparsers(dest="jobs_cmd", required=True)
    jp = jsub.add_parser("list", help="all runs under a root directory")
    jp.add_argument("--root", required=True)
    jp.set_defaults(fn=cmd_jobs_list)
    jp = jsub.add_parser("status", help="rollup + recent errors + ETA of one run")
    jp.add_argument("--dir", required=True)
    jp.add_argument("--top-errors", type=int, default=5)
    jp.set_defaults(fn=cmd_jobs_status)
    jp = jsub.add_parser("errors", help="tail of a run's error records")
    jp.add_argument("--dir", required=True)
    jp.add_argument("-n", type=int, default=20)
    jp.set_defaults(fn=cmd_jobs_errors)
    jp = jsub.add_parser(
        "requeue", help="clear error records so the next resume re-runs them"
    )
    jp.add_argument("--dir", required=True)
    jp.set_defaults(fn=cmd_jobs_requeue)
    jp = jsub.add_parser("metrics", help="per-stage wall/cpu table from metrics parquet")
    jp.add_argument("--path", required=True)
    jp.set_defaults(fn=cmd_jobs_metrics)
    jp = jsub.add_parser("serve", help="JSON HTTP console (/jobs /status /errors /requeue)")
    jp.add_argument("--root", required=True)
    jp.add_argument("--host", default="127.0.0.1")
    jp.add_argument("--port", type=int, default=8081)
    jp.add_argument(
        "--commands",
        help="JSON file {name: argv_list}: the predefined-command allow-list "
        "served at /commands and runnable via POST /run?name=... "
        "(reference server.predefined_commands)",
    )
    jp.add_argument(
        "--token",
        help="shared secret required on POST routes (?token= or "
        "X-Console-Token header); auto-generated and printed if omitted",
    )
    jp.set_defaults(fn=cmd_jobs_serve)

    args = ap.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
