"""Small runtime helpers."""

from __future__ import annotations

import functools
import os
from typing import Any, Callable

# Per-worker-process object cache: the engine's one way to hold
# per-worker state.  A task-based map_batches stage builds its state
# (decoded broadcast geometry, STRtrees, open filesystems) once per
# process the way an actor's __init__ would, while Ray stays free to
# schedule the stage as ordinary fused tasks on warm workers.  A stage
# whose state is a few arguments passes Ray a callable instance instead.
_PROCESS_CACHE: dict[Any, Any] = {}
_PROCESS_CACHE_MAX = 64  # bounded: per-run keys (ObjectRef-derived) would
# otherwise accumulate one state object per historical job in every
# long-lived worker process


def process_cached(key: Any, factory: Callable[[], Any]) -> Any:
    obj = _PROCESS_CACHE.get(key)
    if obj is None:
        obj = factory()
        while len(_PROCESS_CACHE) >= _PROCESS_CACHE_MAX:
            _PROCESS_CACHE.pop(next(iter(_PROCESS_CACHE)))  # evict oldest
        _PROCESS_CACHE[key] = obj
    else:
        # refresh LRU position
        _PROCESS_CACHE.pop(key, None)
        _PROCESS_CACHE[key] = obj
    return obj


def default_buckets() -> int:
    """Cluster-proportional width for bucketed shuffles (join / bloom /
    dedup / density / sessionize): one bucket per cluster core, at
    least one.

    The bucketed-groupby pattern pays a fixed scheduling cost per
    bucket and parallelizes at bucket granularity, so the right width
    tracks total cores, not a constant: the density ledger measured
    256 fixed buckets = 1.5-2.2 s vs 32 = 0.7-0.95 s on a 341-tile
    output at 32 cpus, while a 256-node cluster wants thousands.  There
    is no fixed floor and no multiplier: a partition per core is all
    the parallelism a small cluster can use, and every extra partition
    is one more merge task and ``blocks`` more driver refs (on 1 CPU a
    1k-row aggregate took 0.021 s at width 1 and 0.183 s at width 32).

    The count is whatever the cluster reports when this is called: 0
    (a head started with ``num_cpus=0``, workers not yet joined) gives
    1, and with no cluster up it is this host's CPU count — what a
    local ``ray.init()`` would start.  Memory does not depend on it:
    :func:`exchange_width` raises every exchange to its input's bytes,
    and the library's exchanges partition on their natural keys (no
    salt column fixed from this count), so that raise always spreads
    rows."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 1))
    except ray.exceptions.RaySystemError:  # no cluster yet: size to this host
        cpus = os.cpu_count() or 1
    return max(1, cpus)


# The one driver-or-cluster placement rule.  Every operator with a
# driver shortcut (MinHash verify, hamming pairs, connected components,
# the near-dedup drop set, the Bloom residue) takes it when the bytes
# the driver would hold fit this constant, and runs on the cluster
# otherwise.  No caller picks the path; tests pin the cluster path by
# setting it to 0.
DRIVER_MAX_BYTES = 48 << 20


def fits_driver(nbytes: int) -> bool:
    """Whether an operator's driver-side working set of ``nbytes``
    (its own estimate of what it would pull to the driver) is small
    enough to run there: ``nbytes <= DRIVER_MAX_BYTES``."""
    return nbytes <= DRIVER_MAX_BYTES


def exchange_width(in_bytes: int, num_partitions: int | None = None) -> int:
    """Partition count of a task exchange over ``in_bytes`` of input,
    and the one place an exchange's width is decided: one partition per
    cluster core (:func:`default_buckets`) raised to
    ``ceil(in_bytes / DataContext.target_max_block_size)``, so a merge
    task concatenates about one Ray Data target block (128 MiB) of
    input at most — provided the partition key has at least that many
    distinct values.  :func:`hash_group_blocks` sizes itself with it;
    a caller whose per-block combiner emits one row per salt value
    (``stages/distinct``) sizes its salt with it too.  No operator
    takes a width: ``num_partitions`` replaces the per-core count only
    for a key of fixed cardinality (the distinct salt, the Bloom OR
    tree's slots)."""
    import ray

    width = num_partitions or default_buckets()
    target = ray.data.DataContext.get_current().target_max_block_size
    return max(width, -(-in_bytes // target)) if target else width


def strip_meta(batch):
    """Drop Arrow schema metadata (zero-copy).  A pandas-converted
    block (any ``map_groups(..., batch_format="pandas")`` output)
    carries a ``b'pandas'`` metadata dict that makes its ``pa.Schema``
    UNHASHABLE, which silently defeats Ray's per-reduce schema dedup in
    any FOLLOWING shuffle ("Failed to hash the schemas ... unhashable
    type: 'dict'") — the same failure ``read_parquet_clean`` stamps out
    at the read layer.  Call at every shuffle entry point whose input
    may have passed through a pandas stage."""
    return batch.replace_schema_metadata(None) if batch.schema.metadata else batch


def local_parquet_listing(paths, columns):
    """One walk of local parquet ``paths``: ``(schema, nbytes, files)``.

    ``schema`` is the metadata-free read schema of the first file, or
    None when it can't be derived safely (hive-partitioned directory —
    the partition columns aren't in the file schema — or a requested
    column missing from the file).  ``nbytes`` is the on-disk size of
    every parquet file the read covers and ``files`` their
    ``(path, size)`` in read order (directories walked sorted), both
    None when any path is not a local file or directory (a remote
    URI)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    files: list[tuple[str, int]] = []
    partitioned = False
    for p in paths if isinstance(paths, (list, tuple)) else [paths]:
        if not isinstance(p, str):
            return None, None, None
        if os.path.isfile(p):
            files.append((p, os.path.getsize(p)))
        elif os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs.sort()
                partitioned |= bool(dirs)
                for n in sorted(names):
                    if n.endswith(".parquet"):
                        f = os.path.join(root, n)
                        files.append((f, os.path.getsize(f)))
        else:
            return None, None, None
    nbytes = sum(size for _, size in files)
    if partitioned or not files:
        return None, nbytes, files
    try:
        schema = pq.read_schema(files[0][0]).remove_metadata()
        if columns:
            schema = pa.schema([schema.field(c) for c in columns])
        return schema, nbytes, files
    except (OSError, KeyError):
        return None, nbytes, files


def weight_bounds(weights, k: int) -> list[int]:
    """Cut points of ``len(weights)`` items into ``k`` contiguous runs
    (``1 <= k <= len(weights)``) of about equal weight: run ``i`` is
    ``bounds[i]:bounds[i + 1]``.  Cut ``i`` goes where the items' weight
    midpoints pass ``i/k`` of the total, moved just enough that every
    run keeps an item."""
    import numpy as np

    weights = np.asarray(weights, dtype=np.float64)
    n = len(weights)
    step = np.arange(1, k)
    near = np.searchsorted(np.cumsum(weights) - weights / 2, weights.sum() * step / k)
    cuts = step + np.clip(np.maximum.accumulate(near - step), 0, n - k)
    return [0, *cuts.tolist(), n]


def read_parquet_clean(paths, **kwargs):
    """``ray.data.read_parquet`` with hashable (metadata-free) block
    schemas; see :func:`strip_meta`.

    Passes an explicit stripped ``schema=`` when one can be derived
    from the first file (kills the slow unify + warning *inside* the
    read tasks too), and always appends the zero-copy strip stage as a
    catch-all for partitioned layouts where the schema can't be
    pre-computed.  A caller that already listed the paths
    (:func:`local_parquet_listing`) passes ``schema=``, even None, and
    no second walk is made.  The read width is Ray's unless the caller
    passes ``override_num_blocks=``."""
    import ray

    if "schema" not in kwargs:
        schema = local_parquet_listing(paths, kwargs.get("columns"))[0]
        if schema is not None:
            kwargs["schema"] = schema
    return ray.data.read_parquet(paths, **kwargs).map_batches(
        strip_meta, batch_format="pyarrow"
    )


def vecs_from_arrow(col, dtype=None):
    """Decode a ``list<float>`` / ``fixed_size_list<float, d>`` column
    to a 2-D numpy array WITHOUT per-row Python objects.

    The hot ingest path of every embedding operator (kNN, IVF, SemDeDup,
    embedding near-dup): the old ``np.stack(col.to_pylist())`` built one
    Python list per vector per batch — at 1e9 x 256-d that conversion
    dominates the whole scan.  Here equal-width lists take the
    zero-copy path: ``flatten()`` (offset-aware buffer slice) →
    ``to_numpy()`` (no copy for non-null floats) → ``reshape(n, d)``;
    the only copy is the optional dtype cast, one vectorized
    ``astype``.  Ragged lists or lists with null rows fall back to the
    object path (correctness unchanged).

    ``dtype=None`` preserves the storage dtype (float32 stays float32);
    pass ``np.float64`` where the math wants doubles.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    n = len(col)
    listy = (
        pa.types.is_fixed_size_list(t)
        or pa.types.is_list(t)
        or pa.types.is_large_list(t)
    )
    if listy and col.null_count == 0:
        if pa.types.is_fixed_size_list(t):
            d = t.list_size
        else:
            widths = pc.list_value_length(col).to_numpy(zero_copy_only=False)
            d = int(widths[0]) if n and widths.min() == widths.max() else -1
        if n == 0:
            return np.empty((0, max(d, 0)), dtype=dtype or np.float64)
        if d >= 0:
            flat = col.flatten().to_numpy(zero_copy_only=False)
            if flat.size == n * d:
                out = flat.reshape(n, d)
                return out if dtype is None else out.astype(dtype, copy=False)
    # ragged / null / non-list fallback — the old object path
    if n == 0:
        return np.empty((0, 0), dtype=dtype or np.float64)
    out = np.stack(col.to_pylist())
    return out if dtype is None else out.astype(dtype, copy=False)


def binary_views(col):
    """Zero-copy ``memoryview`` slices of a binary column (``None``
    for null rows) — replaces ``to_pylist()``, which copies every
    payload into a fresh Python ``bytes``.  Decode loops stay per-blob
    by nature (one PNG/JPEG per row), but the batch's payload bytes
    need never be duplicated: each view aliases the Arrow data buffer.
    Non-binary columns fall back to ``to_pylist()``."""
    import numpy as np
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if not (pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        return col.to_pylist()
    bufs = col.buffers()
    odt = np.int64 if pa.types.is_large_binary(t) else np.int32
    offs = np.frombuffer(bufs[1], dtype=odt)[col.offset : col.offset + len(col) + 1]
    # cast to unsigned-byte format: pyarrow buffers expose format 'b'
    # (signed), under which memoryview == bytes compares item VALUES
    # (-119 != 0x89) and magic-number checks silently fail
    data = (
        memoryview(bufs[2]).cast("B") if bufs[2] is not None else memoryview(b"")
    )
    valid = col.is_valid().to_numpy(zero_copy_only=False) if col.null_count else None
    return [
        None
        if valid is not None and not valid[i]
        else data[offs[i] : offs[i + 1]]
        for i in range(len(col))
    ]


def _combined_key_hash(batch, keys):
    """uint64 hash of one or more key columns, vectorized (int columns
    via the multiplicative hash, everything else via
    ``pd.util.hash_array``); multi-column keys mix with the FNV prime."""
    import numpy as np
    import pandas as pd

    import pyarrow as pa
    import pyarrow.compute as pc

    acc = None
    for c in keys:
        col = batch[c]
        # nulls in an int column surface as NaN floats from to_numpy —
        # NaN->uint64 is undefined.  Fill with a fixed sentinel BEFORE
        # the dtype branch so the same non-null key hashes identically
        # whether or not its block happens to contain nulls (a
        # per-block branch would split one key across partitions); a
        # sentinel collision merely co-locates two keys, which
        # multi-group kernels handle by construction.
        if pa.types.is_integer(col.type) and col.null_count:
            col = pc.fill_null(col, -(1 << 62) + 41)
        v = col.to_numpy(zero_copy_only=False)
        if np.issubdtype(v.dtype, np.integer):
            h = (v.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(1)
        else:
            h = pd.util.hash_array(np.asarray(v, dtype=object))
        acc = h if acc is None else (acc * np.uint64(0x100000001B3)) ^ h
    return acc


@functools.lru_cache(maxsize=None)
def _remote(fn: Callable, num_returns: int = 1):
    """``fn`` as a Ray remote function, built once per process (Ray
    re-exports it to each new session on its first call there)."""
    import ray

    return ray.remote(num_returns=num_returns)(fn)


def _to_arrow(block):
    """A Ray Data block as a pyarrow table (a pandas block is converted)."""
    import pyarrow as pa

    if isinstance(block, pa.Table):
        return block
    from ray.data.block import BlockAccessor

    return strip_meta(BlockAccessor.for_block(block).to_arrow())


def _apply(block, fn: Callable, *args):
    return fn(_to_arrow(block), *args)


def map_refs(refs: list, fn: Callable, *args) -> list:
    """``fn(table, *args)`` on every block ref, as one plain task each
    (the block as a pyarrow table): the output refs, in input order.
    No Dataset, no execution; the caller gets the results with
    ``ray.get`` or hands the refs on."""
    task = _remote(_apply)
    return [task.remote(ref, fn, *args) for ref in refs]


def block_refs(mat) -> tuple[list, list[int], int]:
    """``(refs, rows, nbytes)`` of the blocks of the materialized Dataset
    ``mat`` that hold rows, read from the block metadata: no block is
    fetched and nothing executes.  When no block holds a row, every
    (empty) block is returned, so that a kernel applied to them still
    sees the input's column types."""
    refs, rows, nbytes, empty = [], [], 0, []
    for bundle in mat.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows == 0:
                empty.append(ref)
                continue
            refs.append(ref)
            rows.append(meta.num_rows)
            nbytes += meta.size_bytes or 0
    return (refs, rows, nbytes) if refs else (empty, [0] * len(empty), 0)


def _split_block(tbl, width: int, keys: tuple) -> list:
    """One block cut into ``width`` sub-tables by key hash (an empty
    block, possibly without columns, into ``width`` copies of itself)."""
    import numpy as np
    import pyarrow as pa

    tbl = _to_arrow(tbl)
    if tbl.num_rows == 0:
        return [tbl] * width
    part = (_combined_key_hash(tbl, keys) % np.uint64(width)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(width + 1))
    taken = tbl.take(pa.array(order, pa.int64()))
    return [taken.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(width)]


def _run_kernel(kernel, tbl):
    """``kernel(tbl)`` as a metadata-free pyarrow table (a pandas
    result is converted)."""
    import pyarrow as pa

    out = kernel(tbl)
    if not isinstance(out, pa.Table):
        out = pa.Table.from_pandas(out, preserve_index=False)
    return strip_meta(out)


def _merge_parts(kernel, *parts):
    """One partition: its slices concatenated, then the kernel; the
    output and its row count (two returns, so the driver reads counts
    without fetching blocks)."""
    import pyarrow as pa

    parts = [_to_arrow(p) for p in parts]
    live = [p for p in parts if p.num_rows]
    if live:
        merged = pa.concat_tables(live, promote_options="default")
    else:  # typed empty: the widest schema among the empty parts
        merged = max(parts, key=lambda p: p.num_columns).slice(0, 0)
    out = _run_kernel(kernel, merged)
    return out, out.num_rows


def exchange_refs(refs: list, keys, kernel, in_bytes: int, num_partitions=None):
    """The engine's task exchange on block refs: hash-partition the
    blocks ``refs`` (``in_bytes`` in all) by ``keys`` and run ``kernel``
    (pyarrow table -> pyarrow table) once per partition.  Returns
    ``(refs, rows)`` of the non-empty output partitions, or of one
    typed-empty output when every partition came out empty.

    One SPLIT task per block cuts it into ``width`` sub-tables by key
    hash (plain tasks, no actor pool), and one MERGE task per partition
    concatenates its slices and applies the kernel to every co-located
    key group at once (the repo's kernels are vectorized multi-group
    passes).  At width 1 there is no split layer: one merge over every
    block.  The driver reads only the merge tasks' row counts; no
    Dataset is built and no Ray Data execution runs, so a chain of
    exchanges hands refs from one to the next.  Deterministic and
    retry-safe (stateless tasks).

    Width: :func:`exchange_width` of ``in_bytes`` — one partition per
    cluster core (``num_partitions`` only for a key of fixed
    cardinality), raised per ``DataContext.target_max_block_size`` of
    input.  The raise bounds a merge task to about one target block
    only if ``keys`` spread the rows: hash the natural key, not a salt
    whose cardinality was fixed before the width was known.  Kernels
    must rely only on key co-location: every partition may hold many
    keys.  With no input block the kernel runs on the driver over a
    zero-column empty table (the kernels' zero-column probe).

    Driver footprint at scale: above width 1 the driver holds
    ``blocks × width`` ObjectRefs (the split outputs) until the merges
    are submitted — at ~100 bytes a ref, a 100k-block input through a
    1024-wide exchange is ~10 GB of driver refs, which is the practical
    ceiling.  The repo's callers stay far under it because ``blocks``
    tracks the source's read width, not its row count, and most
    exchange inputs are combiner outputs (one small partial block per
    input block); for a raw-row exchange at that scale, coalesce the
    input first or split the exchange into two hash levels (sqrt(width)
    each) — the same ref-fan trade Ray's push-based shuffle makes."""
    import pyarrow as pa
    import ray

    if not refs:
        out = _run_kernel(kernel, pa.table({}))
        return [ray.put(out)], [out.num_rows]
    width = exchange_width(in_bytes, num_partitions)
    merge = _remote(_merge_parts, 2)
    kern_ref = ray.put(kernel)
    if width == 1:
        # no split layer (Ray's num_returns=1 would hand the merge the
        # slice LIST, not the table): one merge over every block
        outs = [merge.remote(kern_ref, *refs)]
    else:
        split = _remote(_split_block).options(num_returns=width)
        splits = [split.remote(ref, width, tuple(keys)) for ref in refs]
        outs = [merge.remote(kern_ref, *[s[p] for s in splits]) for p in range(width)]
        del splits  # the merge tasks hold the slices now
    counts = ray.get([c for _, c in outs])
    keep = [(o, n) for (o, _), n in zip(outs, counts) if n] or [(outs[0][0], 0)]
    return [o for o, _ in keep], [n for _, n in keep]


def hash_group_blocks(ds, keys, kernel, num_partitions=None):
    """Key-co-located block mapping on a Dataset: ``ds`` materialized,
    run through :func:`exchange_refs` (``kernel`` once per non-empty
    hash partition, width from the blocks' metadata bytes) and wrapped
    back into a Dataset of the non-empty outputs.  Per-partition work
    after the exchange goes in ``kernel``, not in a map on its output.

    Why not ``groupby().map_groups``: the sort-based path emits
    (0 rows, 0 cols) bundles for empty sort ranges (duplicate sampled
    boundaries — a few per run whenever a hot key spans a quantile);
    those zero-schema bundles trip Ray's "RefBundle with a different
    schema" warning and knock out its per-reduce schema dedup for the
    next bundle.  Why not ``repartition(keys=...)`` under
    ``ShuffleStrategy.HASH_SHUFFLE``: it spawns one aggregator ACTOR
    per partition per execution (~2 s fixed cost at 32 partitions —
    measured round 5), the wrong trade for a stage that runs inside a
    larger pipeline.

    A chain of exchanges that needs no Dataset between its steps calls
    :func:`exchange_refs` directly: each ``from_arrow_refs`` here costs
    a metadata task per output block, and the next consumer's
    execution.  An input with no rows runs the kernel over its empty
    blocks, which keeps their column types; an input with no blocks at
    all probes the kernel with a zero-column empty table."""
    import ray

    refs, _, in_bytes = block_refs(ds.materialize())
    out_refs, _ = exchange_refs(refs, keys, kernel, in_bytes, num_partitions)
    return ray.data.from_arrow_refs(out_refs)


# the Acero aggregates ``exchange_aggregate`` takes, each with the one
# that re-aggregates its per-block partials
_COMBINE = {"count_all": "sum", "count": "sum", "sum": "sum", "min": "min", "max": "max"}


def exchange_aggregate(ds, keys, aggs, names):
    """Grouped aggregate on :func:`hash_group_blocks`: Acero
    ``group_by(keys).aggregate(aggs)``, with each agg's function one of
    ``_COMBINE`` (``count_all``, ``count``, ``sum``, ``min``, ``max``;
    no agg is a distinct).  pyarrow puts the key columns first, then
    one column per agg — ``names`` renames that full output.  Drop-in
    for ``ds.groupby(keys).aggregate(...)``: same exactness, no sort,
    no zero-schema empty bundles, and the exchange width is sized as in
    :func:`exchange_refs`.

    Each input block is first aggregated on its own, in a map fused
    with its producer, so the exchange moves at most one row per key
    per block (as Ray's sort aggregate combines each block before its
    shuffle); the kernel of each hash partition re-aggregates those
    partials (a count becomes a sum)."""

    import pyarrow as pa

    keys, names = list(keys), list(names)
    parts = [f"_part{i}" for i in range(len(aggs))]
    block_aggs = list(aggs)
    for _, fn in block_aggs:
        if fn not in _COMBINE:
            raise ValueError(f"exchange_aggregate: no per-block combine for {fn!r}")
    merge_aggs = [(p, _COMBINE[fn]) for p, (_, fn) in zip(parts, block_aggs)]

    def partial(t):
        return t.group_by(keys).aggregate(block_aggs).rename_columns(keys + parts)

    def kernel(t):
        if t.num_rows == 0 and not set(keys) <= set(t.column_names):
            # zero-column probe: a fully-empty upstream loses its schema
            # inside Ray (plan_udf_map_op forwards empty blocks around
            # the UDF), so the key types are unrecoverable — degrade to
            # a typed-empty-less result instead of an Acero crash
            return pa.table({})
        return t.group_by(keys).aggregate(merge_aggs).rename_columns(names)

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return hash_group_blocks(partials, keys, kernel)
