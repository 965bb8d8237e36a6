#!/usr/bin/env python
"""Cluster job entrypoint: `ray job submit -- python jobs/run_pyramid.py ...`

Runs a pyramid generation (resumable, lineage-checkpointed) or a pages
density job against a cluster.  On the sandbox single node it attaches
to a local session; on a real cluster `ray.init(address="auto")`
attaches to the running cluster the job was submitted to.

Examples:
  # reference-style geometry pyramid from a YAML config
  ray job submit --working-dir . -- python jobs/run_pyramid.py \\
      --config tilegeneration/config.yaml --layer point_hash \\
      --out /data/pyramid --zooms 0-3

  # pages density pyramid, checkpointed per input shard
  ray job submit --working-dir . -- python jobs/run_pyramid.py \\
      --pages /data/pages --out /data/density --zooms 0-8
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# make the checkout importable when run as ``python jobs/<name>.py``
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def parse_zooms(text: str | None) -> list[int] | None:
    if not text:
        return None
    out: set[int] = set()
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.update(range(int(a), int(b) + 1))
        else:
            out.add(int(part))
    return sorted(out)


def watch_loop(
    layer,
    watch_dir: str,
    out: str,
    *,
    poll_interval: float = 5.0,
    once: bool = False,
) -> None:
    """Daemon loop: consume tiles files dropped into ``watch_dir``.

    The reference's ``--daemon`` keeps the queue store polling forever
    (``generate.py:750-754``; SQS/PostgreSQL queue).  Here the Dataset
    is the queue, so the daemon analog consumes *work files* — each a
    tiles file of ``z/x/y[:+n/+n]`` lines (error-list re-runs, seed
    drops) — runs the full generate chain on each, and moves the file
    to ``done/`` (or ``error/`` with a ``.err`` note).  Claims are
    rename-based, so several daemons can watch one directory without
    double-processing (at-least-once, like the queue's visibility
    timeout).
    """
    import time

    from tilecloud_chain_ray.pipelines.generate import generate_tiles

    done_dir = os.path.join(watch_dir, "done")
    error_dir = os.path.join(watch_dir, "error")
    claim_dir = os.path.join(watch_dir, "claimed")
    for d in (done_dir, error_dir, claim_dir):
        os.makedirs(d, exist_ok=True)

    while True:
        pending = sorted(
            f
            for f in os.listdir(watch_dir)
            if os.path.isfile(os.path.join(watch_dir, f))
        )
        for name in pending:
            claimed = os.path.join(claim_dir, name)
            try:
                os.rename(os.path.join(watch_dir, name), claimed)
            except OSError:
                continue  # another daemon claimed it first
            try:
                result = generate_tiles(layer, tiles_file=claimed, out_wmts=out)
                os.replace(claimed, os.path.join(done_dir, name))
                print(json.dumps({"file": name, **result.summary}), flush=True)
            except Exception as exc:  # file-scoped failure, daemon lives on
                os.replace(claimed, os.path.join(error_dir, name))
                with open(os.path.join(error_dir, name + ".err"), "w") as fh:
                    fh.write(f"{type(exc).__name__}: {exc}\n")
                print(
                    json.dumps({"file": name, "error": f"{type(exc).__name__}: {exc}"}),
                    flush=True,
                )
        if once:
            return
        time.sleep(poll_interval)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="reference-style YAML config")
    ap.add_argument("--layer", help="layer name from the config")
    ap.add_argument("--pages", help="pages parquet dir (density mode)")
    ap.add_argument("--out", required=True, help="output root")
    ap.add_argument("--zooms", help="e.g. 0-3 or 0,2,5")
    ap.add_argument("--bbox", nargs=4, type=float, help="minx miny maxx maxy")
    ap.add_argument("--role", default="local", choices=["local", "master"])
    ap.add_argument("--test", type=int, dest="test_n", help="first N (meta)tiles only")
    ap.add_argument("--partition-size", type=int, default=256)
    ap.add_argument("--job-id", default="job-1")
    ap.add_argument(
        "--cell-res",
        type=int,
        help="geocode cell resolution (density mode); default max(14, max_zoom+8)",
    )
    ap.add_argument(
        "--watch",
        help="daemon mode: drop dir of tiles files (z/x/y[:+n/+n] lines) "
        "consumed continuously — the reference's --daemon queue loop "
        "(generate.py:750-754) with the filesystem as the queue",
    )
    ap.add_argument("--poll-interval", type=float, default=5.0)
    ap.add_argument(
        "--once", action="store_true", help="drain the watch dir once, then exit"
    )
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "auto"),
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    zooms = parse_zooms(args.zooms)

    if args.pages:
        from tilecloud_chain_ray.config import Layer
        from tilecloud_chain_ray.grid import WEBMERC
        from tilecloud_chain_ray.pipelines.density_resumable import density_resumable

        layer = Layer(name="page_density", grid=WEBMERC, meta=False)
        zs = tuple(zooms or range(9))
        try:
            tiles, summary = density_resumable(
                args.pages,
                layer,
                args.out,
                zooms=zs,
                cell_res=args.cell_res or max(14, max(zs) + 8),
                job_id=args.job_id,
                out_wmts=os.path.join(args.out, "wmts"),
            )
        except ValueError as exc:  # e.g. --cell-res too coarse for the zooms
            ap.error(str(exc))
        if tiles is not None:
            # materialize (not count): count() runs a derived plan and
            # leaves the handle without execution stats
            tiles = tiles.materialize()
            summary["tiles"] = tiles.count()
            # per-stage execution metrics, queryable like lineage (A7)
            from tilecloud_chain_ray.sinks.metrics import (
                collect_stage_metrics,
                write_metrics,
            )

            m = collect_stage_metrics(
                tiles, job_id=args.job_id or "", pipeline="density_resumable"
            )
            if m.num_rows:
                summary["metrics_file"] = write_metrics(
                    m, os.path.join(args.out, "metrics")
                )
        print(json.dumps(summary))
        return

    if not (args.config and args.layer):
        ap.error("need --config + --layer, or --pages")
    from tilecloud_chain_ray.config_yaml import load_config
    from tilecloud_chain_ray.pipelines.resumable import generate_resumable

    loaded = load_config(args.config)
    layer = loaded.engine.layers[args.layer]

    if args.watch:
        watch_loop(
            layer,
            args.watch,
            args.out,
            poll_interval=args.poll_interval,
            once=args.once,
        )
        return
    summary = generate_resumable(
        layer,
        args.out,
        job_id=args.job_id,
        zooms=zooms,
        cli_bbox=tuple(args.bbox) if args.bbox else None,
        max_coords_per_partition=args.partition_size,
    )
    print(json.dumps(summary))
    if summary.get("partitions_error"):
        sys.exit(1)


if __name__ == "__main__":
    main()
