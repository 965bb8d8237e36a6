#!/usr/bin/env python
"""Corpus-curation CLI: run the full curate_corpus chain over a parquet
documents table and write the partitioned survivor corpus (+ optional
training-shard manifest).

  python jobs/curate.py --in /root/testdata/sf0.01 --out /tmp/corpus \
      --quality-min 0.5 --rep-max 0.05 --decontam-max-key 5 \
      --sample en=0.5,de=0.25 --shard-budget 100000

Owns its Ray session (guarded init); library code never calls
ray.init.  Output layout: ``<out>/lang=<value>/*.parquet`` (resumable:
a re-run with a fresh --out regenerates; finished partitions of an
interrupted run are listable for a skip-list).  The shard manifest
(when --shard-budget is set) lands at ``<out>_shards/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# make the checkout importable when run as ``python jobs/<name>.py``
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def parse_rates(spec: str | None):
    """'0.5' -> float; 'en=0.5,de=0.25' -> dict; malformed -> SystemExit."""
    if not spec:
        return None
    try:
        if "=" not in spec:
            return float(spec)
        out = {}
        for part in spec.split(","):
            lang, _, rate = part.partition("=")
            if not lang or not rate:
                raise ValueError(part)
            out[lang] = float(rate)
        return out
    except ValueError as exc:
        raise SystemExit(
            f"--sample: expected RATE or lang=RATE[,lang=RATE...], got {spec!r} ({exc})"
        ) from exc


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--in", dest="in_dir", required=True,
                    help="documents parquet file/dir (doc_id, lang, text)")
    ap.add_argument("--out", required=True, help="output corpus directory")
    ap.add_argument("--quality-min", type=float, default=0.5)
    ap.add_argument("--rep-max", type=float, default=None,
                    help="max duplicate word-3-gram fraction (Gopher rule)")
    ap.add_argument("--decontam-max-key", type=int, default=None,
                    help="build the eval shingle set from doc_id < N")
    ap.add_argument("--sample", default=None,
                    help="rate (0.5) or per-lang rates (en=0.5,de=0.25)")
    ap.add_argument("--shard-budget", type=int, default=None,
                    help="tokens per training shard (writes <out>_shards/)")
    ap.add_argument("--near-dedup", type=float, default=None, metavar="JACCARD",
                    help="also drop NEAR duplicates: MinHash pairs at this "
                         "Jaccard threshold -> clusters -> keep min key")
    ap.add_argument("--substring-k", type=int, default=None, metavar="K",
                    help="cut duplicated word runs first (ExactSubstr): "
                         "every K-gram occurring twice+ across 2+ docs")
    ap.add_argument("--substring-winnow", type=int, default=4, metavar="W",
                    help="winnow window for --substring-k (anchors only; "
                         "complete for runs >= K+W-1 words; 0 = exact)")
    ap.add_argument("--bpe-merges", type=int, default=None, metavar="N",
                    help="weight training shards by a learned-BPE token "
                         "count (N merges trained on a sample) instead of "
                         "whitespace tokens")
    ap.add_argument("--bpe-distributed", action="store_true",
                    help="train the BPE merge table on the EXACT corpus-wide "
                         "word-frequency table (one bounded-key groupby per "
                         "merge round) instead of a bounded sample")
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "0")) or None)
    args = ap.parse_args()

    shards_dir = args.out.rstrip("/") + "_shards"
    for d in (args.out, shards_dir) if args.shard_budget else (args.out,):
        if os.path.exists(d) and os.listdir(d):
            raise SystemExit(
                f"{d} exists and is non-empty — parquet writes APPEND, which "
                "would double-count; remove it or pass a fresh --out"
            )

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from tilecloud_chain_ray.pipelines.curate import curate_corpus
    from tilecloud_chain_ray.stages.curation import benchmark_shingles

    path = args.in_dir
    if os.path.isdir(path) and os.path.exists(os.path.join(path, "documents.parquet")):
        path = os.path.join(path, "documents.parquet")
    from tilecloud_chain_ray.util import read_parquet_clean

    docs = read_parquet_clean(path, columns=["doc_id", "lang", "text"])

    bench = None
    if args.decontam_max_key is not None:
        bench = benchmark_shingles(docs, max_key=args.decontam_max_key)

    result = curate_corpus(
        docs,
        out_dir=args.out,
        quality_min=args.quality_min,
        rep_max=args.rep_max,
        bench_shingles=bench,
        sample_rates=parse_rates(args.sample),
        shard_budget=args.shard_budget,
        near_dedup_threshold=args.near_dedup,
        substring_k=args.substring_k,
        substring_winnow=args.substring_winnow or None,
        bpe_merges=args.bpe_merges,
        bpe_distributed=args.bpe_distributed,
    )
    n_out = result.survivors.count()
    n_shards = None
    if result.shards is not None:
        result.shards.write_parquet(shards_dir)
        # count distinct (lang, shard) pairs — shard ids restart at 0
        # per group — from the WRITTEN manifest (re-consuming
        # result.shards would re-execute the scan shuffle)
        import glob

        import duckdb

        files = glob.glob(os.path.join(shards_dir, "*.parquet"))
        if files:
            con = duckdb.connect()
            n_shards = con.execute(
                "SELECT count(DISTINCT (lang, shard)) FROM read_parquet(?)", [files]
            ).fetchone()[0]
        else:
            n_shards = 0
    print(json.dumps({"survivors": n_out, "out": args.out, "shards": n_shards}))
    ray.shutdown()


if __name__ == "__main__":
    main()
