"""Small runtime helpers."""

from __future__ import annotations

import os
from typing import Any, Callable

# Per-worker-process object cache: lets a *task-based* map_batches stage
# amortize cheap construction (compiled hashers, color tables) the way an
# actor's __init__ would, while keeping Ray free to schedule the stage as
# ordinary fused tasks on warm workers.  Use actors instead when the
# state is genuinely heavy (broadcast geometry, models, indexes).
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
    """One walk of local parquet ``paths``: ``(schema, nbytes)``.

    ``schema`` is the metadata-free read schema of the first file, or
    None when it can't be derived safely (hive-partitioned directory —
    the partition columns aren't in the file schema — or a requested
    column missing from the file).  ``nbytes`` is the on-disk size of
    every parquet file the read covers, or None when any path is not a
    local file or directory (a remote URI)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    files: list[str] = []
    nbytes = 0
    partitioned = False
    for p in paths if isinstance(paths, (list, tuple)) else [paths]:
        if not isinstance(p, str):
            return None, None
        if os.path.isfile(p):
            files.append(p)
            nbytes += os.path.getsize(p)
        elif os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs.sort()
                partitioned |= bool(dirs)
                for n in sorted(names):
                    if n.endswith(".parquet"):
                        files.append(os.path.join(root, n))
                        nbytes += os.path.getsize(files[-1])
        else:
            return None, None
    if partitioned or not files:
        return None, nbytes
    try:
        schema = pq.read_schema(files[0]).remove_metadata()
        if columns:
            schema = pa.schema([schema.field(c) for c in columns])
        return schema, nbytes
    except (OSError, KeyError):
        return None, nbytes


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
        schema, _ = local_parquet_listing(paths, kwargs.get("columns"))
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


def hash_group_blocks(ds, keys, kernel, num_partitions=None):
    """Key-co-located block mapping WITHOUT zero-schema empty bundles:
    hash-partition ``ds`` by ``keys`` with a two-layer task exchange
    and run ``kernel`` (pyarrow table -> pyarrow table) once per
    NON-EMPTY partition.

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

    Shape: the input materializes (the sort path's reduce pays the
    same object-store residency), one SPLIT task per block cuts it
    into ``num_partitions`` sub-tables by key hash (plain tasks — no
    actor pool), and one MERGE task per partition concats its slices
    and applies the kernel to every co-located key group at once (the
    repo's kernels are vectorized multi-group passes).  Empty
    partitions never produce a block: merge tasks report row counts
    and the driver drops empty outputs before ``from_arrow_refs``.
    Deterministic and retry-safe (stateless tasks).

    Width: :func:`exchange_width` — one partition per cluster core
    (``num_partitions`` only for a key of fixed cardinality) raised to
    ``ceil(input bytes / DataContext.target_max_block_size)``; the
    bytes are summed from the materialized block metadata, so sizing
    costs no extra pass.  A small input on a small cluster therefore
    runs at width 1: one merge task over every input block, no split
    layer.  The raise bounds a merge task to about one Ray Data target
    block (128 MiB) of input only if ``keys`` spread the rows: hash
    the natural key, not a salt column whose cardinality was fixed
    before the width was known (a 1-value salt puts every row in one
    partition at any width).  Kernels must only rely on key
    co-location — the exchange may run wider than requested, and
    every partition may hold many keys.

    Driver footprint at scale: above width 1 the driver holds
    ``blocks × width`` ObjectRefs (the split outputs) — at ~100 bytes
    a ref, a 100k-block input through a 1024-wide exchange is ~10 GB
    of driver refs, which is the practical ceiling.  The repo's callers
    stay far under it because ``blocks`` tracks the source's read
    width, not its row count (the page table reads into
    :func:`exchange_width` of its on-disk bytes, other parquet reads
    into Ray's default ``max(min(200, MiB), 2 × cpus)`` blocks), and
    most exchange inputs are COMBINER OUTPUTS (one small partial block
    per input block); for a raw-row exchange at that scale, coalesce
    the input first (``repartition(shuffle=False)``) or split the
    exchange into two hash levels (sqrt(width) each) — the same
    ref-fan trade Ray's push-based shuffle makes internally.
    """
    import pyarrow as pa
    import ray

    @ray.remote
    def _split(tbl: pa.Table, np_: int, key_cols: tuple) -> list:
        import numpy as np

        h = _combined_key_hash(tbl, key_cols)
        part = (h % np.uint64(np_)).astype(np.int64)
        order = np.argsort(part, kind="stable")
        sorted_part = part[order]
        bounds = np.searchsorted(sorted_part, np.arange(np_ + 1))
        idx = pa.array(order, pa.int64())
        taken = tbl.take(idx)
        return [taken.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(np_)]

    @ray.remote(num_returns=2)
    def _merge(kern, *parts):
        merged = pa.concat_tables([p for p in parts if p.num_rows], promote_options="default") if any(
            p.num_rows for p in parts
        ) else parts[0].slice(0, 0)
        out = kern(merged)
        if not isinstance(out, pa.Table):
            import pyarrow as _pa

            out = _pa.Table.from_pandas(out, preserve_index=False)
        out = strip_meta(out)
        return out, out.num_rows

    mat = ds.materialize()
    all_refs: list = []
    block_refs: list = []
    in_bytes = 0
    try:
        for bundle in mat.iter_internal_ref_bundles():
            for blk, meta in bundle.blocks:
                all_refs.append(blk)
                if meta.num_rows is None or meta.num_rows > 0:
                    block_refs.append(blk)
                    in_bytes += meta.size_bytes or 0
    except Exception:  # metadata API drift: take every block
        block_refs = list(mat.to_arrow_refs())
    if not block_refs:
        # typed empty result: run the kernel locally on an empty input.
        # schema() is None whenever every block is empty (Ray drops the
        # schema even for typed 0-row blocks), so recover the type from
        # an actual block when one exists; only a dataset with NO blocks
        # at all (e.g. zero drop keys feeding a bloom build) probes the
        # kernel with a zero-column empty — kernels that reference
        # columns are exercised with their real schema either way
        sch = mat.schema()
        base = sch.base_schema if sch is not None else pa.schema([])
        if not base.names and all_refs:
            base = ray.get(all_refs[0]).schema
        empty = pa.Table.from_pylist([], schema=base)
        out = kernel(empty)
        if not isinstance(out, pa.Table):
            out = pa.Table.from_pandas(out, preserve_index=False)
        return ray.data.from_arrow(strip_meta(out))
    num_partitions = exchange_width(in_bytes, num_partitions)
    kern_ref = ray.put(kernel)
    out_refs, count_refs = [], []
    if num_partitions == 1:
        # degenerate width: no split layer (Ray's num_returns=1 would
        # hand _merge the slice LIST, not the table) — one merge over
        # every input block, which is the same exchange semantics
        o, c = _merge.remote(kern_ref, *block_refs)
        out_refs.append(o)
        count_refs.append(c)
    else:
        splits = [
            _split.options(num_returns=num_partitions).remote(
                ref, num_partitions, tuple(keys)
            )
            for ref in block_refs
        ]
        for p in range(num_partitions):
            o, c = _merge.remote(kern_ref, *[s[p] for s in splits])
            out_refs.append(o)
            count_refs.append(c)
    counts = ray.get(count_refs)
    keep = [r for r, n in zip(out_refs, counts) if n]
    if not keep:
        keep = [out_refs[0]]  # typed empty output from the kernel
    return ray.data.from_arrow_refs(keep)


def exchange_aggregate(ds, keys, aggs, names):
    """Bounded-boilerplate grouped aggregate on :func:`hash_group_blocks`:
    one Acero ``group_by(keys).aggregate(aggs)`` kernel per non-empty
    hash partition (pyarrow puts the key columns first, then one column
    per agg — ``names`` renames that full output).  Drop-in for
    ``ds.groupby(keys).aggregate(...)`` when the caller already ships
    per-block partials: same exactness, no sort, no zero-schema empty
    bundles, and the exchange width is sized as in :func:`hash_group_blocks`."""

    import pyarrow as pa

    def kernel(t):
        if t.num_rows == 0 and not set(keys) <= set(t.column_names):
            # zero-column probe: a fully-empty upstream loses its schema
            # inside Ray (plan_udf_map_op forwards empty blocks around
            # the UDF), so the key types are unrecoverable — degrade to
            # a typed-empty-less result instead of an Acero crash
            return pa.table({})
        return t.group_by(list(keys)).aggregate(list(aggs)).rename_columns(list(names))

    return hash_group_blocks(ds, list(keys), kernel)
