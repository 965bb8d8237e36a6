#!/usr/bin/env python
"""Scale soak of the flagship curation chain (round-5 item: surface any
cliff the sf0.1 suite can't see — hot LSH buckets, span-table size,
lineage/shuffle fan-out — before it happens at 100 TB).

Runs ``curate_corpus`` with EVERY opt-in enabled over the deterministic
synthetic pages table at ~10x the scaling corpus (default 8M pages):

  quality floor -> ExactSubstr span cutting (winnow anchors) ->
  exact md5 dedup -> MinHash+LSH near-dedup -> SemDeDup over a
  synthesized 8M x 32-d embedding table -> distributed-BPE-weighted
  sequence packing -> partitioned survivor write.

Input synthesis (pages + embeddings) is cached on disk and UNTIMED —
the measured window is the curation chain only.  Prints one JSON line:
wall time, survivor count, pages/s, peak /dev/shm (object store) use.
``max_bucket`` skip warnings, if any, appear on stderr (run with
``2>&1 | tee`` and grep — the soak's done-bar is zero such warnings).

Usage:
  python jobs/soak.py [--pages 8000000] [--num-cpus 32] [--dim 32]
                      [--clusters 1024] [--out /tmp/soak_corpus]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading
import time

import numpy as np
import pyarrow as pa

# make the checkout importable when run as ``python jobs/<name>.py``
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer — vectorized uint64 -> uint64 mixing."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def make_embed_fn(dim: int):
    """doc_id -> deterministic unit vector (layout/seed-free: every
    component is a pure function of the id, so re-runs and re-orderings
    reproduce bit-identical vectors).  Plants near-dup pairs: ids with
    id % 100 < 2 derive from the pair base (id & ~1) plus 1e-3 noise,
    so SemDeDup has real work at every scale."""

    def embed(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        paired = (ids % np.uint64(100)) < np.uint64(2)
        base = np.where(paired, ids & ~np.uint64(1), ids + (np.uint64(1) << np.uint64(33)))
        d = np.uint64(dim)
        keys = base[:, None] * d + np.arange(dim, dtype=np.uint64)[None, :]
        vec = mix64(keys).astype(np.float64) / 2**63 - 1.0  # uniform [-1, 1)
        noise = mix64(ids[:, None] * d + np.arange(dim, dtype=np.uint64)[None, :] + np.uint64(7)).astype(
            np.float64
        ) / 2**63 - 1.0
        vec = vec + np.where(paired[:, None], 1e-3, 0.0) * noise
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        flat = pa.array(vec.astype(np.float32).reshape(-1), pa.float32())
        return pa.table(
            {
                "vec_id": batch["doc_id"],
                "embedding": pa.FixedSizeListArray.from_arrays(flat, dim),
            }
        )

    return embed


class ShmSampler(threading.Thread):
    """Peak /dev/shm usage (Ray's plasma store is shm-backed here)."""

    def __init__(self, interval: float = 0.5):
        super().__init__(daemon=True)
        self.peak = 0
        self.base = shutil.disk_usage("/dev/shm").used
        self._halt = threading.Event()  # NB: Thread owns a private _stop
        self.interval = interval

    def run(self) -> None:
        while not self._halt.is_set():
            used = shutil.disk_usage("/dev/shm").used
            self.peak = max(self.peak, used - self.base)
            self._halt.wait(self.interval)

    def stop(self) -> int:
        self._halt.set()
        self.join()
        return self.peak


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pages", type=int, default=8_000_000)
    ap.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--clusters", type=int, default=1024)
    ap.add_argument("--out", default="/tmp/soak_corpus")
    args = ap.parse_args()

    for d in (args.out, args.out.rstrip("/") + "_shards"):
        if os.path.exists(d):
            shutil.rmtree(d)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="WARNING",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from tilecloud_chain_ray.pipelines.curate import curate_corpus
    from tilecloud_chain_ray.sources.pages import PAGES_BASE_TS_US, synthesize_pages
    from tilecloud_chain_ray.util import read_parquet_clean

    # --- untimed: cached deterministic inputs -------------------------
    pages_dir = f"/tmp/graft_pages_{args.pages}_50000"
    t_synth = time.perf_counter()
    synthesize_pages(pages_dir, args.pages, avg_html=512, rows_per_file=50_000)

    def add_doc_id(batch: pa.Table) -> pa.Table:
        ts = batch["warc_ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        doc_id = (ts - PAGES_BASE_TS_US) // 1_000_000
        return batch.drop_columns(["warc_ts"]).append_column(
            "doc_id", pa.array(doc_id, pa.int64())
        )

    emb_dir = f"/tmp/graft_emb_{args.pages}_{args.dim}"
    if not os.path.exists(os.path.join(emb_dir, "_DONE")):
        if os.path.exists(emb_dir):
            shutil.rmtree(emb_dir)
        (
            read_parquet_clean(pages_dir, columns=["warc_ts"])
            .map_batches(add_doc_id, batch_format="pyarrow")
            .map_batches(make_embed_fn(args.dim), batch_format="pyarrow")
            .write_parquet(emb_dir)
        )
        open(os.path.join(emb_dir, "_DONE"), "w").close()
    t_synth = time.perf_counter() - t_synth

    # --- timed: the full chain ----------------------------------------
    sampler = ShmSampler()
    sampler.start()
    t0 = time.perf_counter()
    docs = read_parquet_clean(pages_dir, columns=["warc_ts", "text", "lang"]).map_batches(
        add_doc_id, batch_format="pyarrow"
    )
    emb = read_parquet_clean(emb_dir)
    result = curate_corpus(
        docs,
        out_dir=args.out,
        quality_min=0.5,
        substring_k=8,
        substring_winnow=4,
        near_dedup_threshold=0.8,
        embeddings=emb,
        semantic_threshold=0.95,
        semantic_clusters=args.clusters,
        bpe_merges=100,
        bpe_distributed=True,
        shard_budget=1 << 20,
    )
    n_out = result.survivors.count()
    n_shard_rows = result.shards.count() if result.shards is not None else None
    wall = time.perf_counter() - t0
    peak = sampler.stop()

    print(
        json.dumps(
            {
                "metric": "soak_curate_all_optins",
                "value": round(wall, 2),
                "unit": "sec",
                "pages": args.pages,
                "survivors": n_out,
                "shard_rows": n_shard_rows,
                "pages_per_sec": round(args.pages / wall, 1),
                "peak_shm_gb": round(peak / 2**30, 2),
                "synth_sec_untimed": round(t_synth, 1),
                "num_cpus": args.num_cpus,
                "dim": args.dim,
                "semantic_clusters": args.clusters,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
