#!/usr/bin/env python
"""Kernel-level scaling attribution: run the headline analysis kernel
(url-geocode + token/lang/quality + MinHash banding) through a plain
``multiprocessing.Pool`` — NO Ray — at two worker counts.

Purpose: separate the silicon's scaling ceiling (per-core turbo droop +
DRAM bandwidth at >16 busy cores on this host) from engine overhead.
``bench.py --scaling`` measures the Ray Data pipeline; this probe
measures the same per-batch kernel with zero framework, so

    ray_efficiency / probe_efficiency

is the engine's true scheduling efficiency.  Round-2 measurement on
this host (800k pages, 64 files):

    probe  8 -> 32 procs: 12.3 s -> 5.1 s  = 0.61   (hardware ceiling)
    ray    8 -> 32 cpus:  18.1 s -> 8.3 s  = 0.55   (analysis stage)
    => Ray Data runs at ~90 % of the no-framework ceiling.

Usage: python jobs/scale_probe.py [pages_dir]   (runs 8 then 32, prints
one JSON line per level plus the efficiency ratio).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import sys
import time

# make the checkout importable when run as ``python jobs/<name>.py``
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

PAGES_DIR = sys.argv[1] if len(sys.argv) > 1 else "/tmp/graft_pages_800000"


def work_file(path: str) -> int:
    import pyarrow.parquet as pq

    from tilecloud_chain_ray.grid import WEBMERC
    from tilecloud_chain_ray.stages.dedup import MinHashStage
    from tilecloud_chain_ray.stages.geocode import make_geocoder
    from tilecloud_chain_ray.stages.text import (
        lang_id_batch,
        quality_score_batch,
        token_count_batch,
    )
    from tilecloud_chain_ray.util import process_cached

    geocoder = process_cached(
        ("probe_geo",), lambda: make_geocoder(WEBMERC.bbox, key_column="url", cell_res=14)
    )
    stage = process_cached(
        ("probe_minhash",), lambda: MinHashStage(key_col="n_tokens", text_col="text")
    )
    t = pq.read_table(path, columns=["url", "text"])
    n = 0
    for i in range(0, t.num_rows, 4096):
        b = t.slice(i, 4096)
        a = quality_score_batch(lang_id_batch(token_count_batch(geocoder(b))))
        n += stage(a).num_rows
    return n


def run_pool(nproc: int, files: list[str]) -> float:
    t0 = time.perf_counter()
    with mp.Pool(nproc) as p:
        p.map(work_file, files, chunksize=1)
    return time.perf_counter() - t0


def main() -> None:
    files = sorted(
        os.path.join(PAGES_DIR, f) for f in os.listdir(PAGES_DIR) if f.endswith(".parquet")
    )
    lo, hi = 8, 32
    sec_lo = run_pool(lo, files)
    sec_hi = run_pool(hi, files)
    eff = (sec_lo / sec_hi) / (hi / lo)
    print(json.dumps({"metric": "mp_kernel_probe", "nproc_lo": lo, "sec_lo": round(sec_lo, 2),
                      "nproc_hi": hi, "sec_hi": round(sec_hi, 2),
                      "efficiency": round(eff, 3), "files": len(files)}))


if __name__ == "__main__":
    main()
