#!/usr/bin/env python
"""End-to-end demo: everything a tilecloud-chain user runs, on Ray Data.

Runs (a) the reference-parity geometry pyramid with WMTS output,
manifest, cost estimate and read-back; (b) the web-page graft: synthetic
Common-Crawl-style pages -> geocode -> text analysis -> dedup -> density
pyramid, checkpointed with lineage.

    python examples/full_demo.py [out_dir]
"""

from __future__ import annotations

import json
import sys

import ray


def main() -> None:
    out_root = sys.argv[1] if len(sys.argv) > 1 else "/tmp/tcr_demo"
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from tilecloud_chain_ray.config import Dimension, EmptyHash, Layer
    from tilecloud_chain_ray.geom import MultiPoint, Point, Polygon
    from tilecloud_chain_ray.grid import SWISSGRID_5, WEBMERC
    from tilecloud_chain_ray.pipelines.cost import estimate_cost
    from tilecloud_chain_ray.pipelines.density_resumable import density_resumable
    from tilecloud_chain_ray.pipelines.generate import generate_tiles
    from tilecloud_chain_ray.server import get_tile_fs
    from tilecloud_chain_ray.sinks.manifest import write_manifest
    from tilecloud_chain_ray.sources.pages import synthesize_pages

    # -- (a) geometry pyramid: the reference's flagship -----------------
    layer = Layer(
        name="demo_points",
        grid=SWISSGRID_5,
        geometries=(
            MultiPoint((Point(600000, 200000), Point(530000, 150000))),
            Polygon([(560000, 160000), (590000, 160000), (590000, 190000), (560000, 190000)]),
        ),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
        dimensions=(Dimension("DATE", "2012", ("2012",), ("2005", "2010", "2012")),),
    )
    print("cost estimate (area algo):")
    for c in estimate_cost(layer, algo="area"):
        print(f"  z{c.zoom}: ~{c.n_tiles} tiles, ~{c.time_sec:.0f}s, ~{c.size_kb:.0f} KB")

    wmts = f"{out_root}/wmts"
    result = generate_tiles(layer, out_wmts=wmts)
    print("pyramid summary:", result.summary)
    write_manifest(out_root, [layer], result.tiles)
    print("manifest:", json.load(open(f"{out_root}/manifest.json"))["layers"][0]["stored_tiles_per_zoom"])

    stored = [r for r in result.tiles.take_all() if r["status"] == "stored"]
    z, x, y = stored[0]["z"], stored[0]["x"], stored[0]["y"]
    resp = get_tile_fs(wmts, layer, z, x, y)
    print(f"served tile {z}/{y}/{x}: HTTP {resp.status}, {len(resp.data or b'')} bytes")

    # -- (b) the web-page graft ----------------------------------------
    pages_dir = f"{out_root}/pages"
    synthesize_pages(pages_dir, 20000, avg_html=512, rows_per_file=2500)
    density_layer = Layer(name="page_density", grid=WEBMERC, meta=False)
    tiles, summary = density_resumable(
        pages_dir,
        density_layer,
        f"{out_root}/density",
        zooms=(0, 1, 2, 3, 4, 5),
        out_wmts=f"{out_root}/density_wmts",
    )
    n = tiles.count()
    print(f"density pyramid: {n} tiles, lineage: {summary}")

    from tilecloud_chain_ray.stages.dedup import exact_dedup

    pages = ray.data.read_parquet(pages_dir, columns=["url", "text"])
    dups = exact_dedup(pages, key_col="url").to_pandas()
    print(f"exact dedup: {len(dups)} distinct texts, {int((dups['dup_count'] > 1).sum())} dup groups")

    # -- (c) the training-data curation leg -----------------------------
    import numpy as np
    import pyarrow as pa
    import zlib

    from tilecloud_chain_ray.pipelines.curate import curate_corpus

    def to_docs(batch: pa.Table) -> pa.Table:
        ids = np.array(
            [zlib.crc32(u.encode()) for u in batch["url"].to_pylist()], dtype=np.int64
        )
        lang = np.where(ids % 2 == 0, "en", "de")
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": pa.array(lang.tolist(), pa.string()),
                "text": batch["text"],
            }
        )

    docs = pages.map_batches(to_docs, batch_format="pyarrow")
    curated = curate_corpus(
        docs,
        out_dir=f"{out_root}/corpus",
        quality_min=0.3,
        rep_max=0.9,
        sample_rates=0.8,
        shard_budget=100_000,
    )
    n_surv = curated.survivors.count()
    n_shard_rows = curated.shards.count()
    print(f"curated corpus: {n_surv} survivors -> {out_root}/corpus (lang=*/), "
          f"{n_shard_rows} shard assignments")
    ray.shutdown()


if __name__ == "__main__":
    main()
