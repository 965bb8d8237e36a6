"""Partitioned hash join for two LARGE datasets.

The engine's other joins broadcast the small side (geometry, dims,
key sets); when both sides are big, the portable Ray Data pattern is an
explicit partitioned join (ray guide "Joins and lookups"): tag each
side, union the two tagged streams, hash-partition them on the join key
(util.hash_group_blocks), and merge each partition's sides with a pandas
join.  Only the projected join columns should be fed in (project before
joining).

Ray's native ``Dataset.join`` (hash-partitioned) exists in recent
releases; this implementation is version-portable and makes the skew
path explicit (hot keys go through ``skew_keys``).  The exchange width
is the engine's: :func:`~tilecloud_chain_ray.util.exchange_width`.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray



def _output_schema(
    on: str,
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    lmap: dict[str, str],
    rmap: dict[str, str],
    how: str = "inner",
) -> pa.Schema:
    """Deterministic join-output schema: key int64; RIGHT-side integer
    value columns widen to float64 only under ``how="left"`` (the only
    case where the merge itself pads them with nulls — inner joins and
    the left side of a left join keep their integer types); everything
    else keeps its arrow type.  Both the partitioned and the skew paths
    cast to this, so no block or parquet file can drift (Ray's pandas
    conversion otherwise null-types all-NaN columns per group)."""
    fields = [pa.field(on, pa.int64())]
    for c, t in zip(left_schema.names, left_schema.types):
        if c in lmap:
            fields.append(pa.field(lmap[c], t))
    widen_right = how == "left"
    for c, t in zip(right_schema.names, right_schema.types):
        if c in rmap:
            t_out = pa.float64() if (widen_right and pa.types.is_integer(t)) else t
            fields.append(pa.field(rmap[c], t_out))
    return pa.schema(fields)


def _frame_to_schema(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    """pandas -> arrow honoring the target schema per column.
    ``Array.from_pandas(series, type=...)`` maps NaN -> null even when
    the pandas column was upcast to float64 by null padding, which a
    plain ``Table.cast`` cannot do (safe float->int cast rejects NaN)."""
    return pa.Table.from_arrays(
        [pa.Array.from_pandas(df[f.name], type=f.type) for f in schema], schema=schema
    )


def _column_maps(
    left_cols: list[str], right_cols: list[str], suffixes: tuple[str, str]
) -> tuple[dict[str, str], dict[str, str]]:
    """Collision-suffixed output names for each side's non-key columns
    (shared by the partitioned and skew join paths so they stay in sync)."""
    collisions = set(left_cols) & set(right_cols)
    lmap = {c: c + suffixes[0] if c in collisions else c for c in left_cols}
    rmap = {c: c + suffixes[1] if c in collisions else c for c in right_cols}
    return lmap, rmap


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    how: str = "inner",
    suffixes: tuple[str, str] = ("_l", "_r"),
    skew_keys: "list[int] | str | None" = None,
    skew_min_share: float = 0.05,
) -> ray.data.Dataset:
    """Join two datasets on an int64 key column.

    ``how``: inner | left.  Output columns: join key + both sides'
    other columns (suffixed on collision).

    The exchange runs at :func:`~tilecloud_chain_ray.util.exchange_width`:
    one partition per cluster core, raised when the input's bytes call
    for it (util.hash_group_blocks).

    Skew: partitioning by key hash cannot split a single hot key — all
    of a hot key's rows land in one partition no matter how wide the
    exchange is.  Pass the hot keys via ``skew_keys`` (from domain
    knowledge or a cheap sampled count) and they take a broadcast
    map-side path: their RIGHT rows are collected (must be the small
    side per hot key — the usual many-left × few-right skew), joined
    against left batches with no shuffle, and unioned with the partitioned
    join of the remaining keys.

    ``skew_keys="auto"`` detects the hot keys itself with one
    Misra-Gries pass over the LEFT side's key column
    (``stages/sketch.heavy_hitters`` — one sketch row per block, no
    shuffle): every key whose upper count bound reaches
    ``skew_min_share`` of the rows is broadcast.  The left side is
    materialized first so the detection scan and the join both read it
    from the object store instead of re-running the upstream pipeline.
    """
    if how not in ("inner", "left"):
        raise ValueError(how)
    if isinstance(skew_keys, str):
        if skew_keys != "auto":
            raise ValueError(skew_keys)
        from tilecloud_chain_ray.stages.sketch import heavy_hitters

        left = left.materialize()
        hot = heavy_hitters(
            left.select_columns([on]),
            on,
            capacity=max(64, int(2 / max(skew_min_share, 1e-6))),
            min_share=skew_min_share,
        )
        skew_keys = hot["key"].to_pylist() or None
    if skew_keys:
        return _skew_join(left, right, on, how, suffixes, skew_keys)

    # union of tagged sides: schemas differ -> pad each side with the
    # other side's columns as nulls so the union has one schema
    left_schema, right_schema = left.schema(), right.schema()
    left_cols = [c for c in left_schema.names if c != on]
    right_cols = [c for c in right_schema.names if c != on]
    lmap, rmap = _column_maps(left_cols, right_cols, suffixes)
    out_schema = _output_schema(on, left_schema, right_schema, lmap, rmap, how)

    # pad with TYPED nulls: pa.nulls(n) without a type gives the arrow
    # null type, so every left block's schema differs from every right
    # block's in the union — Ray then re-pickles the schema per block
    # and its per-reduce schema dedup ("Failed to hash the schemas")
    # silently degrades, the same failure read_parquet_clean stamps out
    # at the read layer (tests/test_schema_hygiene.py)
    ltypes = dict(zip(left_schema.names, left_schema.types))
    rtypes = dict(zip(right_schema.names, right_schema.types))

    def widen(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols: dict = {on: batch[on]}
            if side == 0:
                for c in left_cols:
                    cols[lmap[c]] = batch[c]
                for c in right_cols:
                    cols[rmap[c]] = pa.nulls(n, type=rtypes[c])
            else:
                for c in left_cols:
                    cols[lmap[c]] = pa.nulls(n, type=ltypes[c])
                for c in right_cols:
                    cols[rmap[c]] = batch[c]
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int8), pa.int8())
            return pa.Table.from_pydict(cols)

        return fn

    both = left.map_batches(widen(0), batch_format="pyarrow").union(
        right.map_batches(widen(1), batch_format="pyarrow")
    )

    lcols_out = [lmap[c] for c in left_cols]
    rcols_out = [rmap[c] for c in right_cols]

    def join_partition(batch: pa.Table) -> pa.Table:
        # every row of a key is in this partition, next to other keys:
        # pandas merge joins on key equality, so they merge independently
        group = batch.to_pandas()
        lhs = group[group["__side"] == 0][[on, *lcols_out]]
        rhs = group[group["__side"] == 1][[on, *rcols_out]]
        merged = lhs.merge(rhs, on=on, how=how)
        # per-column arrow conversion to the fixed schema: restores the
        # integer widths the null-padded union upcast to float64, and
        # gives all-null columns their real type (not arrow null type)
        return _frame_to_schema(merged, out_schema)

    from tilecloud_chain_ray.util import hash_group_blocks

    # task exchange on the join key itself, not sort-groupby
    # (zero-schema empty bundles) and not a salt column: a salt fixed at
    # plan time would cap how far the exchange can widen for its bytes
    return hash_group_blocks(both, [on], join_partition)


def _skew_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    how: str,
    suffixes: tuple[str, str],
    skew_keys: list[int],
) -> ray.data.Dataset:
    """Hot keys broadcast map-side, cold keys through the partitioned
    join (see hash_join docstring).

    Both inputs are consumed by two filters each (hot / cold), so each
    projected input is materialized once — one scan of the upstream
    pipeline + zero-copy object-store reads for the two filters,
    instead of re-running the upstream twice.  The union's schema is
    made deterministic by casting every integer value column to
    float64 on BOTH paths (the partitioned path's null-padding does this
    implicitly; without the explicit cast the hot path emits int64
    blocks and the output parquet would carry per-file schema drift).
    """
    import pyarrow.compute as pc

    hot_arr = pa.array(sorted(set(int(k) for k in skew_keys)), pa.int64())
    left = left.materialize()
    right = right.materialize()

    def split(ds: ray.data.Dataset, keep_hot: bool) -> ray.data.Dataset:
        def fn(batch: pa.Table) -> pa.Table:
            mask = pc.is_in(batch[on], value_set=hot_arr)
            return batch.filter(mask if keep_hot else pc.invert(mask))

        return ds.map_batches(fn, batch_format="pyarrow")

    # same output-column naming as the partitioned path
    left_schema, right_schema = left.schema(), right.schema()
    left_cols = [c for c in left_schema.names if c != on]
    right_cols = [c for c in right_schema.names if c != on]
    lmap, rmap = _column_maps(left_cols, right_cols, suffixes)
    out_cols = [on, *(lmap[c] for c in left_cols), *(rmap[c] for c in right_cols)]

    target_schema = _output_schema(on, left_schema, right_schema, lmap, rmap, how)

    def align(batch: pa.Table) -> pa.Table:
        return batch.select(out_cols).cast(target_schema)

    # hot right side: small per hot key by contract — broadcast once
    hot_right = split(right, True).take_all()
    if hot_right:
        hot_df = pd.DataFrame(hot_right, columns=[on, *right_cols]).rename(columns=rmap)
    else:  # skew keys absent from right: typed empty frame so the
        # map-side merge still aligns on the int64 key
        hot_df = pd.DataFrame(
            {on: pd.Series([], dtype=np.int64),
             **{
                 rmap[c]: pd.Series(
                     [],
                     dtype=(
                         target_schema.field(rmap[c]).type.to_pandas_dtype()
                         if pa.types.is_integer(t) or pa.types.is_floating(t)
                         else object
                     ),
                 )
                 for c, t in zip(right_schema.names, right_schema.types)
                 if c in rmap
             }}
        )
    hot_ref = ray.put(hot_df)

    def map_side(batch: pa.Table) -> pa.Table:
        from tilecloud_chain_ray.util import process_cached

        rhs = process_cached(("skew_join_rhs", hot_ref.hex()), lambda: ray.get(hot_ref))
        lhs = batch.to_pandas().rename(columns=lmap)
        merged = lhs.merge(rhs, on=on, how=how)
        return align(pa.Table.from_pandas(merged[out_cols], preserve_index=False).replace_schema_metadata(None))

    hot_joined = split(left, True).map_batches(map_side, batch_format="pyarrow")
    cold_joined = hash_join(
        split(left, False), split(right, False), on, how, suffixes
    ).map_batches(align, batch_format="pyarrow")
    return cold_joined.union(hot_joined)


def range_join(
    ds: ray.data.Dataset,
    intervals: list[tuple[int, int, str]],
    value_col: str,
    out_col: str = "range_name",
    keep_unmatched: bool = False,
) -> ray.data.Dataset:
    """Tag each row with the (non-overlapping, sorted) interval
    containing ``value_col`` (半 [lo, hi) semantics).

    The interval table is the broadcast small side: a sorted bound
    array + ``np.searchsorted`` per batch — the range-join pattern of
    SURVEY custom operators (no shuffle).
    """
    lows = np.array([iv[0] for iv in intervals], dtype=np.int64)
    highs = np.array([iv[1] for iv in intervals], dtype=np.int64)
    names = np.array([iv[2] for iv in intervals], dtype=object)
    if not (lows[:-1] <= lows[1:]).all():
        raise ValueError("intervals must be sorted by low bound")
    shared = ray.put((lows, highs, names))

    def tag(batch: pa.Table) -> pa.Table:
        lo, hi, nm = ray.get(shared)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(lo, v, side="right") - 1
        ok = (idx >= 0) & (v < hi[np.clip(idx, 0, len(hi) - 1)])
        name_out = np.where(ok, nm[np.clip(idx, 0, len(nm) - 1)], None)
        out = batch.append_column(out_col, pa.array(name_out.tolist(), pa.string()))
        if keep_unmatched:
            return out
        return out.filter(pa.array(ok))

    return ds.map_batches(tag, batch_format="pyarrow")


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    ts: str,
    right_cols: list[str],
    strict: bool = True,
) -> ray.data.Dataset:
    """As-of join: for each left row, the latest right row of the same
    ``key`` with ``right.ts < left.ts`` (``strict``) or ``<=``.

    SURVEY.md "custom operators" shape (a), partitioned: both sides
    hash-partition on ``key`` (util.hash_group_blocks), so the exchange
    runs one task per partition — NOT one group per distinct key, which
    is row-scale for clickstreams and the shape BASELINE.md's ledger
    measured at ~30x slower (per-group scheduling ~1 ms × millions of
    keys).  Inside a partition ONE vectorized ``pd.merge_asof(...,
    by=key)`` handles every key at once.  Each key's full history
    co-locates in its partition — the standard as-of partitioning
    assumption; salt by time range when a single key's history is huge.
    """

    left_schema = left.schema()
    left_cols = [c for c in left_schema.names if c not in (key, ts)]
    # The null-padded union makes every left column nullable, so pandas
    # upcasts ints to float64 inside merge_partition; remember each integral
    # left column's ORIGINAL width so we can cast back (int32 stays
    # int32).  Left rows CAN carry real nulls, so the cast is per-group
    # conditional — a column with NaN in this group passes through as
    # float, matching the pre-cast behavior instead of crashing.
    int_left = {
        c: t.to_pandas_dtype()
        for c, t in zip(left_schema.names, left_schema.types)
        if c in left_cols and pa.types.is_integer(t)
    }

    # typed null pads, for the same reason as hash_join's widen():
    # untyped pa.nulls() makes every left/right block schema diverge in
    # the union and defeats Ray's per-reduce schema dedup
    right_schema = right.schema()
    ltypes = dict(zip(left_schema.names, left_schema.types))
    rtypes = dict(zip(right_schema.names, right_schema.types))

    def widen(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols: dict = {
                key: batch[key],
                ts: batch[ts],
                "__side": pa.array(np.full(n, side, dtype=np.int8), pa.int8()),
            }
            for c in left_cols:
                cols[c] = batch[c] if side == 0 else pa.nulls(n, type=ltypes[c])
            for c in right_cols:
                cols["r_" + c] = batch[c] if side == 1 else pa.nulls(n, type=rtypes[c])
            return pa.Table.from_pydict(cols)

        return fn

    both = left.map_batches(widen(0), batch_format="pyarrow").union(
        right.map_batches(widen(1), batch_format="pyarrow")
    )
    rcols = ["r_" + c for c in right_cols]

    def merge_partition(batch: pa.Table) -> pd.DataFrame:
        # merge_asof(by=) wants both frames globally sorted by ts only;
        # by=key keeps the partition's co-located keys independent
        group = batch.to_pandas()
        lhs = group[group["__side"] == 0].sort_values(ts, kind="mergesort")
        rhs = group[group["__side"] == 1].sort_values(ts, kind="mergesort")
        if lhs.empty:
            return lhs.drop(columns=["__side"])
        merged = pd.merge_asof(
            lhs[[key, ts, *left_cols]],
            rhs[[key, ts, *rcols]],
            on=ts,
            by=key,
            allow_exact_matches=not strict,
            direction="backward",
        )
        for c, dtype in int_left.items():
            if not merged[c].isna().any():
                merged[c] = merged[c].astype(dtype)
        return merged

    from tilecloud_chain_ray.util import hash_group_blocks

    return hash_group_blocks(both, [key], merge_partition)
