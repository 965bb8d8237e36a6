"""Distributed ordered prefix-scan and training-shard packing.

``pack_shards`` assigns every row a shard id so that consecutive rows
(ordered by ``order_col`` within ``group_col``) fill fixed token
budgets — the sequence-packing step that turns a curated corpus into
training shards:

    shard = exclusive_prefix_sum(weight) // budget

SQL equivalent (the oracle):
``sum(w) OVER (PARTITION BY g ORDER BY o ROWS UNBOUNDED PRECEDING) - w``.

A prefix sum is inherently sequential, so the distributed shape is the
classic two-phase scan:

1. **Partial sums** — rows bucket by ``order_col // bucket_size``; one
   ``map_batches`` combiner emits one (group, bucket, sum) row per
   occupied bucket per block, a tiny groupby sums them.  The partials
   table has one row per occupied bucket — bounded by
   ``max(order) / bucket_size``, NOT by row count (documented driver
   materialization: ~16 B/bucket; 100 TB with 10^10 rows at the default
   2^20 bucket size is ~10^4 rows).
2. **Offsets** — the driver sorts the partials per group and computes
   each bucket's exclusive offset (cumsum shifted), broadcast once via
   ``ray.put``.
3. **Apply** — rows shuffle once to their (group, bucket); each bucket
   sorts locally by ``order_col``, adds its offset to the local
   exclusive cumsum, divides by the budget.

Partitioning assumption: one bucket's rows fit a worker (pick
``bucket_size`` accordingly); buckets are independent after phase 2.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from tilecloud_chain_ray.util import exchange_aggregate, hash_group_blocks


def bucket_partials(
    ds: ray.data.Dataset,
    group_col: str,
    order_col: str,
    weight_col: str,
    bucket_size: int,
) -> ray.data.Dataset:
    """Phase 1: (group, bucket) -> total weight, pre-combined per block."""

    def partial(batch: pa.Table) -> pa.Table:
        o = batch[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame(
            {
                "g": batch[group_col].to_pylist(),
                "bucket": o // bucket_size,
                "w": batch[weight_col].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )
        out = df.groupby(["g", "bucket"], sort=False)["w"].sum().reset_index()
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return exchange_aggregate(partials, ["g", "bucket"], [("w", "sum")], ["g", "bucket", "w"])


def pack_shards(
    ds: ray.data.Dataset,
    group_col: str,
    order_col: str,
    weight_col: str,
    budget: int,
    bucket_size: int = 1 << 20,
    shard_col: str = "shard",
    pin_input: bool = True,
) -> ray.data.Dataset:
    """Rows -> (order_col, group_col, weight_col, shard): contiguous
    fixed-budget packing by cumulative weight in ``order_col`` order
    within each group.  See module docstring for the scan shape.

    Both scan phases consume ``ds``; with ``pin_input`` (default) the
    narrow (group, order, weight) projection is materialized once into
    the object store (~24 B/row — cheap next to re-running an upstream
    tokenizer twice; the store spills if needed).  Pass
    ``pin_input=False`` when ``ds`` is already a plain re-readable
    source."""
    ds = ds.select_columns([group_col, order_col, weight_col])
    if pin_input:
        ds = ds.materialize()
    partials = bucket_partials(ds, group_col, order_col, weight_col, bucket_size)
    # driver table: one row per occupied (group, bucket) — scan-bounded
    part_rows = partials.take_all()
    offsets: dict[tuple, int] = {}
    by_group: dict = {}
    for r in part_rows:
        by_group.setdefault(r["g"], []).append((r["bucket"], r["w"]))
    for g, rows in by_group.items():
        rows.sort()
        acc = 0
        for bucket, w in rows:
            offsets[(g, bucket)] = acc
            acc += w
    offsets_ref = ray.put(offsets)

    def add_bucket(batch: pa.Table) -> pa.Table:
        o = batch[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "_bucket", pa.array(o // bucket_size, pa.int64())
        )

    def apply_scan(batch: pa.Table) -> pa.Table:
        """Multi-group kernel over one hash partition: one lexsort
        serves every (group, bucket) co-located in the block (the
        sort-groupby ran this once per group; see util.hash_group_blocks
        for why the sort path also emitted zero-schema empty bundles)."""
        offs = ray.get(offsets_ref)
        gcol = batch[group_col]
        out_types = {
            order_col: batch.schema.field(order_col).type,
            group_col: batch.schema.field(group_col).type,
            weight_col: batch.schema.field(weight_col).type,
        }
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    order_col: pa.array([], out_types[order_col]),
                    group_col: pa.array([], out_types[group_col]),
                    weight_col: pa.array([], out_types[weight_col]),
                    shard_col: pa.array([], pa.int64()),
                }
            )
        g_vals = gcol.to_numpy(zero_copy_only=False)
        codes, uniques = pd.factorize(g_vals)
        o = batch[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["_bucket"].to_numpy(zero_copy_only=False)
        order = np.lexsort((o, b, codes))
        cs, bs, ws = codes[order], b[order], w[order]
        n = len(order)
        new_run = np.empty(n, dtype=bool)
        new_run[0] = True
        new_run[1:] = (cs[1:] != cs[:-1]) | (bs[1:] != bs[:-1])
        run_starts = np.flatnonzero(new_run)
        run_lens = np.diff(np.concatenate((run_starts, [n])))
        csum = np.cumsum(ws)
        excl = csum - ws
        excl = excl - np.repeat(excl[run_starts], run_lens)
        base = np.fromiter(
            (offs[(uniques[cs[i]], int(bs[i]))] for i in run_starts),
            np.int64,
            len(run_starts),
        )
        excl += np.repeat(base, run_lens)
        idx = pa.array(order, pa.int64())
        return pa.Table.from_pydict(
            {
                order_col: batch[order_col].take(idx),
                group_col: gcol.take(idx),
                weight_col: batch[weight_col].take(idx),
                shard_col: pa.array(excl // budget, pa.int64()),
            }
        )

    bucketed = ds.map_batches(add_bucket, batch_format="pyarrow")
    return hash_group_blocks(bucketed, [group_col, "_bucket"], apply_scan)
