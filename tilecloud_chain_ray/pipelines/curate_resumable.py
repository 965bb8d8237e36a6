"""Checkpointed corpus curation: the kill-and-resume shape of the
flagship pipeline (pipelines/curate.curate_corpus).

The one long job a 100-TB user must be able to kill and resume is the
curation chain; this module runs it on the shared checkpoint runner
``sinks.lineage.run_partitions`` (reference analog: the PostgreSQL job
resume of ``store/postgresql.py:443-477`` — completed work is never
redone, failed work re-runs, commits are atomic renames):

* **Phase 0 (opt-in ExactSubstr, committed once)**: with
  ``substring_k`` the corpus-global span table (stages/
  substring_dedup.py) is computed on the first attempt and committed
  by atomic directory rename; phase-1 shard tasks apply it through a
  per-worker-process cached span map, so resumes never re-fingerprint
  the corpus and every attempt cuts identically.

* **Phase 1 (expensive, per input shard, checkpointed)**: each input
  parquet shard, identified by its path (``lineage.shard_id``), runs
  the per-row leg of the chain — fused analyze/filter, benchmark
  decontamination, deterministic hash sample, content md5 +
  dedup-bucket assignment — and the runner commits the surviving
  projection as a parquet part plus a lineage record (input rows,
  surviving rows, status).  A resumed run skips shards whose lineage
  says ``done``: raw text is read, scored and hashed at most once per
  shard across any number of attempts.
  The kernels are the SAME module-level functions curate_corpus uses
  (make_analyze_filter / hash_sample_mask / contaminated_mask /
  make_md5_bucket), so streaming and checkpointed runs cannot diverge.

* **Phase 2 (cheap, deterministic, recomputed on resume)**: read the
  committed partials of the current shards, run the exact-dedup
  exchange on the committed ``content_md5`` (min-key survivor —
  independent of which attempt committed which shard, and of the
  cluster's width) and the optional near-dedup tail, both shared with
  curate_corpus, rewrite the group-partitioned
  corpus, optionally pack shards.  Idempotent given phase-1 output;
  the corpus directory is wiped before the rewrite so a crash inside
  phase 2 cannot leave doubled partitions (output dirs are
  append-on-rewrite).

The dedup exchange itself is deliberately NOT checkpointed: phase-1
output is a narrow projection (no raw html), and the exchange is one
task exchange on the content md5 — re-running it on resume costs
minutes at 100 TB, versus re-reading and re-scoring the raw corpus
which costs hours and is what phase 1 amortizes.
"""

from __future__ import annotations

import os
import shutil
from functools import partial
from typing import Sequence

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from tilecloud_chain_ray.pipelines.curate import (
    CurateResult,
    exact_dedup_refs,
    make_analyze_filter,
    make_md5_bucket,
)
from tilecloud_chain_ray.sinks import lineage as lin
from tilecloud_chain_ray.stages.curation import contaminated_mask, hash_sample_mask
from tilecloud_chain_ray.util import read_parquet_clean


def _cut_with_committed_spans(
    table: pa.Table, spans_dir: str, key_col: str, text_col: str
) -> pa.Table:
    """Apply a phase-0 COMMITTED span table to one raw shard: the
    packed span map loads once per worker process (process_cached on
    the spans path), rows get a ``__spans`` column from the map, and
    the shared vectorized splice cuts the flagged words."""
    from tilecloud_chain_ray.stages.substring_dedup import (
        pack_spans_by_key,
        splice_packed_spans,
    )
    from tilecloud_chain_ray.util import process_cached

    span_map = process_cached(
        ("curate-spans", spans_dir),
        lambda: pack_spans_by_key(pq.read_table(spans_dir), key_col),
    )
    keys = table[key_col].to_numpy(zero_copy_only=False)
    packed = [span_map.get(int(k)) for k in keys]
    with_spans = table.append_column("__spans", pa.array(packed, pa.string()))
    return splice_packed_spans(with_spans, text_col)


def _phase1_shard(
    key_col: str,
    text_col: str,
    group_col: str,
    quality_min: float,
    rep_max: float | None,
    bench_shingles: frozenset[str] | None,
    sample_rates,
    spans_dir: str | None,
    shard_path: str,
) -> tuple[pa.Table, dict]:
    table = pq.read_table(shard_path, columns=[key_col, group_col, text_col])
    n_in = table.num_rows
    if spans_dir is not None:
        table = _cut_with_committed_spans(table, spans_dir, key_col, text_col)
    t = make_analyze_filter(key_col, text_col, group_col, quality_min, rep_max)(table)
    if bench_shingles is not None:
        mask = contaminated_mask(t[text_col].to_pylist(), bench_shingles)
        t = t.filter(pa.array(~mask))
    if sample_rates is not None:
        ids = t[key_col].to_numpy(zero_copy_only=False)
        strat = t[group_col].to_pylist() if isinstance(sample_rates, dict) else None
        t = t.filter(pa.array(hash_sample_mask(ids, strat, sample_rates)))
    t = make_md5_bucket(text_col)(t)
    return t, {"input_rows": n_in, "rows_out": t.num_rows}


def curate_resumable(
    docs_dir: str | Sequence[str],
    out_dir: str,
    key_col: str = "doc_id",
    text_col: str = "text",
    group_col: str = "lang",
    quality_min: float = 0.5,
    rep_max: float | None = None,
    bench_shingles: frozenset[str] | None = None,
    sample_rates: dict[str, float] | float | None = None,
    shard_budget: int | None = None,
    shard_bucket_size: int = 1 << 20,
    job_id: str = "curate-1",
    fail_partitions: set[int] | None = None,
    near_dedup_threshold: float | None = None,
    substring_k: int | None = None,
    substring_winnow: int | None = 4,
    substring_keep_first: bool = False,
) -> tuple[CurateResult | None, dict]:
    """Run (or resume) the checkpointed curation job.

    ``docs_dir``: a directory of parquet shards (each shard = one
    resume partition) or an explicit list of shard paths.  Returns
    ``(result, summary)``; ``result`` is None while any partition is in
    error (fix / re-run to resume — done shards are skipped)."""
    if isinstance(docs_dir, str):
        shards = sorted(
            os.path.join(docs_dir, f)
            for f in os.listdir(docs_dir)
            if f.endswith(".parquet")
        )
    else:
        shards = list(docs_dir)
    sids = [lin.shard_id(s) for s in shards]
    partials_dir = os.path.join(out_dir, "filtered")

    # Phase 0 (opt-in ExactSubstr): the span table is corpus-global and
    # expensive (a fingerprint pass over every raw byte), so it is
    # computed ONCE per job and COMMITTED by atomic directory rename —
    # a resumed run reuses the committed spans instead of re-reading
    # the corpus, and every attempt cuts identically even if the shard
    # set changes between attempts (spans are fixed at job creation;
    # duplicates involving later-added shards are not cut — document
    # before relying on mid-job shard additions).
    spans_dir = None
    if substring_k is not None:
        from tilecloud_chain_ray.stages.substring_dedup import dedup_substring_spans

        spans_dir = os.path.join(out_dir, "spans")
        if not os.path.isdir(spans_dir):
            docs_all = read_parquet_clean(shards, columns=[key_col, text_col])
            spans = dedup_substring_spans(
                docs_all,
                key_col=key_col,
                text_col=text_col,
                k=substring_k,
                winnow=substring_winnow,
                keep_first=substring_keep_first,
            ).materialize()
            tmp = spans_dir + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            if spans.count():
                spans.write_parquet(tmp)
            else:
                # write an explicit empty typed file so phase 1 can
                # always pq.read_table the committed directory
                os.makedirs(tmp, exist_ok=True)
                empty = pa.table(
                    {
                        key_col: pa.array([], pa.int64()),
                        "span_start": pa.array([], pa.int64()),
                        "span_end": pa.array([], pa.int64()),
                    }
                )
                pq.write_table(empty, os.path.join(tmp, "empty.parquet"))
            os.replace(tmp, spans_dir)  # commit

    summary = lin.run_partitions(
        partials_dir,
        job_id,
        [(sid, [], s) for sid, s in zip(sids, shards)],
        partial(
            _phase1_shard,
            key_col,
            text_col,
            group_col,
            quality_min,
            rep_max,
            bench_shingles,
            sample_rates,
            spans_dir,
        ),
        fail_partitions or (),
    )
    recs = lin.load_records(partials_dir)
    summary["rows_filtered"] = sum(
        recs[sid].rows_out or 0 for sid in sids if recs[sid].status == "done"
    )
    if summary["partitions_error"]:
        return None, summary

    # phase 2: dedup + partitioned corpus from the committed partials of
    # the CURRENT shard list, so stale partials from removed shards
    # cannot leak into the corpus.
    partials = read_parquet_clean([lin.part_path(partials_dir, sid) for sid in sorted(sids)])
    # the same exchange as the non-resumable curate, partitioned on the
    # COMMITTED content md5, so resume attempts with different cluster
    # widths still co-locate identical texts
    refs, rows = exact_dedup_refs(partials, key_col)
    if near_dedup_threshold is not None:
        # near-dedup rides phase 2's recompute-on-resume model: pairs,
        # clustering and the min-key survivor rule are all deterministic
        # functions of the committed phase-1 partials, so a resumed run
        # reproduces the same drop set without checkpointing the pairs
        # (same rationale as not checkpointing the dedup shuffle).
        from tilecloud_chain_ray.stages.components import near_dedup_refs

        survivors = near_dedup_refs(refs, sum(rows), key_col, text_col, near_dedup_threshold)
    else:
        survivors = ray.data.from_arrow_refs(refs)
    corpus_dir = os.path.join(out_dir, "corpus")
    shutil.rmtree(corpus_dir, ignore_errors=True)  # append-on-rewrite guard
    survivors.write_parquet(corpus_dir, partition_cols=[group_col])
    survivors = read_parquet_clean(corpus_dir)

    shards_ds = None
    if shard_budget is not None:
        from tilecloud_chain_ray.stages.scan import pack_shards

        shards_ds = pack_shards(
            survivors,
            group_col,
            key_col,
            "n_tokens",
            budget=shard_budget,
            bucket_size=shard_bucket_size,
            pin_input=False,  # survivors are a parquet read
        )
    return CurateResult(survivors=survivors, shards=shards_ds, out_dir=corpus_dir), summary
