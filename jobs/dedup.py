"""Unified dedup CLI: run any of the engine's deduplication operators
over a documents / embeddings parquet and write the report (pairs,
drop verdicts, spans or a cleaned corpus) as parquet.

    python jobs/dedup.py --in /root/testdata/sf0.01 --method exact --out /tmp/d
    python jobs/dedup.py --in DIR --method minhash --threshold 0.8 --out /tmp/d
    python jobs/dedup.py --in DIR --method simhash --max-hamming 3 --out /tmp/d
    python jobs/dedup.py --in DIR --method substring --k 20 --winnow 4 \
        --cut cleaned/ --out /tmp/d
    python jobs/dedup.py --in DIR --method semantic --threshold 0.95 --out /tmp/d
    python jobs/dedup.py --in DIR --method embedding --threshold 0.95 --out /tmp/d

Text methods read ``documents.parquet`` (doc_id, text); ``semantic``
and ``embedding`` read ``embeddings.parquet`` (vec_id, embedding).
Prints one JSON summary line; output is partitioned parquet so a
consumer (or a re-run) can work per shard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# make the checkout importable when run as ``python jobs/<name>.py``
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _resolve(in_dir: str, table: str) -> str:
    p = in_dir
    if os.path.isdir(p) and os.path.exists(os.path.join(p, f"{table}.parquet")):
        return os.path.join(p, f"{table}.parquet")
    return p


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--in", dest="in_dir", required=True,
                    help="parquet file, or a directory holding "
                         "documents.parquet / embeddings.parquet")
    ap.add_argument("--out", required=True, help="report output directory")
    ap.add_argument("--method", required=True,
                    choices=["exact", "minhash", "simhash", "substring",
                             "semantic", "embedding"])
    ap.add_argument("--threshold", type=float, default=None,
                    help="jaccard (minhash) / cosine (semantic, embedding)")
    ap.add_argument("--max-hamming", type=int, default=3, help="simhash radius")
    ap.add_argument("--k", type=int, default=20,
                    help="substring: words per duplicated window")
    ap.add_argument("--winnow", type=int, default=4,
                    help="substring: winnow window (0 = exact mode)")
    ap.add_argument("--cut", default=None, metavar="DIR",
                    help="substring: also write the span-cut corpus here")
    ap.add_argument("--keep-first", action="store_true",
                    help="substring: leave the min-(key,pos) occurrence of "
                         "each duplicated window unflagged (one copy survives)")
    ap.add_argument("--n-clusters", type=int, default=16,
                    help="semantic: kmeans cluster count (scale with corpus)")
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "0")) or None)
    args = ap.parse_args()

    for d in (args.out, args.cut):
        if d and os.path.exists(d) and os.listdir(d):
            raise SystemExit(f"{d} exists and is non-empty — parquet writes "
                             "APPEND; remove it or pass a fresh directory")

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from tilecloud_chain_ray.util import read_parquet_clean

    if args.method in ("semantic", "embedding"):
        ds = read_parquet_clean(_resolve(args.in_dir, "embeddings"))
    else:
        ds = read_parquet_clean(
            _resolve(args.in_dir, "documents"), columns=["doc_id", "text"]
        )

    if args.method == "exact":
        from tilecloud_chain_ray.stages.dedup import exact_dedup

        report = exact_dedup(ds)  # (content_md5, keep_key, dup_count)
    elif args.method == "minhash":
        from tilecloud_chain_ray.stages.dedup import minhash_dedup_pairs

        report = minhash_dedup_pairs(ds, threshold=args.threshold or 0.8)
    elif args.method == "simhash":
        from tilecloud_chain_ray.stages.dedup import simhash_candidates

        report = simhash_candidates(ds, max_hamming=args.max_hamming)
    elif args.method == "substring":
        from tilecloud_chain_ray.stages.substring_dedup import (
            cut_duplicate_spans,
            dedup_substring_spans,
        )

        ds = ds.materialize()  # spans + optional cut share one input pass
        report = dedup_substring_spans(
            ds, k=args.k, winnow=args.winnow or None, keep_first=args.keep_first
        ).materialize()
        if args.cut:
            cut_duplicate_spans(ds, report).write_parquet(args.cut)
    elif args.method == "semantic":
        from tilecloud_chain_ray.stages.semdedup import semdedup_verdicts

        report = semdedup_verdicts(
            ds, threshold=args.threshold or 0.95, n_clusters=args.n_clusters
        )
    else:  # embedding
        from tilecloud_chain_ray.stages.dedup import embedding_near_dup

        report = embedding_near_dup(ds, threshold=args.threshold or 0.95)

    # one execution: pin the report, count from the pinned blocks, then
    # write (a fully-empty report writes no parquet files, so counting
    # via read-back would crash on the missing directory)
    report = report.materialize()
    n = report.count()
    if n:
        report.write_parquet(args.out)
    else:
        os.makedirs(args.out, exist_ok=True)
    print(json.dumps({"method": args.method, "rows": n, "out": args.out,
                      "cut": args.cut}))
    ray.shutdown()


if __name__ == "__main__":
    main()
