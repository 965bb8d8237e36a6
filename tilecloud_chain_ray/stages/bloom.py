"""Bloom-filter anti-join: the broadcast-membership scale path.

An exact anti-join against a large key set normally needs either a full
shuffle of both sides or a broadcast of every key.  A Bloom filter cuts
the broadcast to ``bits_per_key/8`` bytes per key and keeps the result
EXACT with the standard two-pass trick:

1. build the bitmap DISTRIBUTED: each block of the key side emits one
   fixed-size partial bitmap row; bitmaps OR-merge associatively (same
   mergeable-sketch shape as stages/sketch.py's HLL);
2. probe: rows whose key misses the filter are definite non-members —
   emitted immediately (Bloom filters have no false negatives);
3. verify: only the flagged rows (true members + the ~0.1 % false
   positives at the default 13 bits/key) go through an exact
   key-partitioned semi-check against the real key set.

Hashing: splitmix64 finalizer + double hashing (h1 + i*h2), all
vectorized uint64 numpy.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from tilecloud_chain_ray.functions.hashing import mix64 as _mix64
from tilecloud_chain_ray.util import fits_driver

# Slots of the OR tree: a tree-merged build hands the driver at most
# this many bitmaps, however many blocks the key side has.
REDUCE_FANOUT = 16


def _bit_positions(keys: np.ndarray, n_bits: int, k: int) -> np.ndarray:
    """(len(keys), k) bit indexes via double hashing."""
    h = keys.astype(np.uint64)
    h1 = _mix64(h)
    h2 = _mix64(h ^ np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)  # odd
    i = np.arange(k, dtype=np.uint64)[None, :]
    with np.errstate(over="ignore"):
        return ((h1[:, None] + i * h2[:, None]) % np.uint64(n_bits)).astype(np.int64)


def bloom_build_block(keys: np.ndarray, n_bits: int, k: int) -> np.ndarray:
    """Packed uint8 bitmap (n_bits/8 bytes) for one block of keys."""
    pos = _bit_positions(keys, n_bits, k).ravel()
    bitmap = np.zeros((n_bits + 7) // 8, dtype=np.uint8)
    np.bitwise_or.at(bitmap, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
    return bitmap


def bloom_contains(bitmap: np.ndarray, keys: np.ndarray, n_bits: int, k: int) -> np.ndarray:
    """Vectorized membership mask (True = possibly present)."""
    pos = _bit_positions(keys, n_bits, k)
    bits = (bitmap[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
    return bits.all(axis=1)


def build_bloom(
    keys_ds: ray.data.Dataset,
    key_col: str,
    n_keys_hint: int,
    bits_per_key: int = 13,
) -> tuple[np.ndarray, int, int]:
    """Distributed bitmap build: one fixed-size partial per block,
    OR-merged.  Returns (bitmap, n_bits, k).  k = ln2 * bits_per_key
    (≈0.7), FP ≈ 0.6185^bits_per_key (~0.1 % at 13).

    The partials OR on the driver when their bytes (partials × bitmap
    bytes) fit :func:`~tilecloud_chain_ray.util.fits_driver`.
    Otherwise they merge through a task tree first: each partial lands
    in one of ``REDUCE_FANOUT`` slots, slots OR-merge in tasks, and the
    driver only merges ``REDUCE_FANOUT`` bitmaps."""
    n_bits = max(64, n_keys_hint * bits_per_key)
    k = max(1, int(round(0.693 * bits_per_key)))
    bm_bytes = (n_bits + 7) // 8

    def block_bitmap(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        bm = bloom_build_block(keys, n_bits, k)
        # slot assignment only needs balance, not determinism (OR is
        # commutative): hash the block's first key + length
        seed = np.uint64(keys.astype(np.uint64)[0] if len(keys) else 0) ^ np.uint64(len(keys))
        slot = int(_mix64(np.array([seed], np.uint64))[0] % np.uint64(REDUCE_FANOUT))
        return pa.Table.from_pydict(
            {"slot": pa.array([slot], pa.int64()), "bm": pa.array([bm.tobytes()], pa.binary())}
        )

    partials = keys_ds.map_batches(block_bitmap, batch_format="pyarrow").materialize()
    if not fits_driver(partials.count() * bm_bytes):
        def or_group(g: pa.Table) -> pa.Table:
            # OR is commutative/associative, so one row per hash
            # partition is as good as one per slot.  num_rows guard
            # FIRST: an empty probe input may carry zero columns
            acc = np.zeros(bm_bytes, dtype=np.uint8)
            if g.num_rows == 0:
                return pa.Table.from_pydict(
                    {"slot": pa.array([0], pa.int64()),
                     "bm": pa.array([acc.tobytes()], pa.binary())}
                )
            for buf in g["bm"].to_pylist():
                acc |= np.frombuffer(buf, dtype=np.uint8)
            return pa.Table.from_pydict(
                {"slot": pa.array([g["slot"][0].as_py()], pa.int64()),
                 "bm": pa.array([acc.tobytes()], pa.binary())}
            )

        from tilecloud_chain_ray.util import hash_group_blocks

        # task exchange, not sort-groupby (zero-schema empty bundles)
        partials = hash_group_blocks(
            partials, ["slot"], or_group, num_partitions=REDUCE_FANOUT
        )

    merged = np.zeros(bm_bytes, dtype=np.uint8)
    for row in partials.iter_rows():
        merged |= np.frombuffer(row["bm"], dtype=np.uint8)
    return merged, n_bits, k


def _anti_join_partitioned(
    flagged: ray.data.Dataset,
    right_keys: ray.data.Dataset,
    on: str,
    right_key_col: str,
) -> ray.data.Dataset:
    """Exact anti-join of the flagged residue against the right key
    set, hash-partitioned on the key, all in arrow (no pandas upcast,
    so the output keeps the left schema's exact types and unions
    cleanly with the Bloom-cleared stream).  Duplicate right keys are
    harmless — the per-partition check is a set-membership ``is_in``."""
    schema = flagged.schema()  # Ray Schema wrapper: .names / .types
    cols = list(schema.names)
    col_types = dict(zip(schema.names, schema.types))
    key_type = col_types[on]

    def tag_left(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__side", pa.array(np.zeros(b.num_rows, dtype=np.int8), pa.int8())
        )

    def tag_right(b: pa.Table) -> pa.Table:
        n = b.num_rows
        key = b[right_key_col].combine_chunks().cast(key_type)
        data: dict = {}
        for name in cols:
            data[name] = key if name == on else pa.nulls(n, type=col_types[name])
        data["__side"] = pa.array(np.ones(n, dtype=np.int8), pa.int8())
        return pa.Table.from_pydict(data)

    both = flagged.map_batches(tag_left, batch_format="pyarrow").union(
        right_keys.map_batches(tag_right, batch_format="pyarrow")
    )

    def anti(g: pa.Table) -> pa.Table:
        side = g["__side"]
        lf = g.filter(pc.equal(side, 0))
        rk = g.filter(pc.equal(side, 1))[on].combine_chunks()
        keep = pc.invert(pc.is_in(lf[on], value_set=rk))
        return lf.filter(keep).select(cols)

    from tilecloud_chain_ray.util import hash_group_blocks

    # partitioned on the key itself (both sides carry it at the same
    # type): is_in is membership on the co-located key set
    return hash_group_blocks(both, [on], anti)


def bloom_anti_join(
    left: ray.data.Dataset,
    right_keys: ray.data.Dataset,
    on: str,
    right_key_col: str | None = None,
    n_keys_hint: int = 1 << 20,
    bits_per_key: int = 13,
) -> ray.data.Dataset:
    """EXACT anti-join (left rows whose key is absent from right_keys)
    via Bloom prefilter + exact verification of the flagged residue.

    The bitmap (bits_per_key/8 bytes per right key) broadcasts once;
    definite non-members stream straight through with no shuffle; only
    flagged rows (members + ~0.1 % FPs) go through an exact check.
    Two residue placements with identical semantics, picked by
    :func:`~tilecloud_chain_ray.util.fits_driver` like the dedup
    stages:

    * **driver** — when the flagged key set (~16 B/key) fits, the
      flagged keys are
      collected, the MATCHING right keys semi-filtered against them
      and broadcast back (measured 800k rows vs 100k keys in ~9 s);
    * **cluster** — otherwise (corpus-scale match sets), the
      flagged rows and the right keys hash-partition on the key and
      each partition does a vectorized arrow anti-check
      (``_anti_join_partitioned``): nothing key-shaped touches the
      driver.
    """
    right_key_col = right_key_col or on
    # consumed twice (bitmap build + residue present-check): pin the
    # key projection once instead of re-running its upstream pipeline
    right_keys = right_keys.select_columns([right_key_col]).materialize()
    bitmap, n_bits, k = build_bloom(right_keys, right_key_col, n_keys_hint, bits_per_key)
    bm_ref = ray.put(bitmap)

    def probe(batch: pa.Table) -> pa.Table:
        from tilecloud_chain_ray.util import process_cached

        bm = process_cached(("bloom", bm_ref.hex()), lambda: ray.get(bm_ref))
        keys = batch[on].to_numpy(zero_copy_only=False).astype(np.int64)
        flagged = bloom_contains(bm, keys, n_bits, k)
        return batch.append_column("_flagged", pa.array(flagged))

    probed = left.map_batches(probe, batch_format="pyarrow").materialize()
    clean = probed.map_batches(
        lambda b: b.drop_columns(["_flagged"]).filter(pc.invert(b["_flagged"])),
        batch_format="pyarrow",
    )
    flagged_rows = probed.map_batches(
        lambda b: b.drop_columns(["_flagged"]).filter(b["_flagged"]),
        batch_format="pyarrow",
    )

    # placement by the flagged-key volume (exact count — probed is
    # already materialized, so this is a metadata-cheap second pass)
    n_flagged = sum(
        r["n"]
        for r in probed.map_batches(
            lambda b: pa.Table.from_pydict(
                {"n": pa.array([int(pc.sum(pc.cast(b["_flagged"], pa.int64())).as_py() or 0)], pa.int64())}
            ),
            batch_format="pyarrow",
        ).take_all()
    )
    if not fits_driver(n_flagged * 16):
        fp_survivors = _anti_join_partitioned(flagged_rows, right_keys, on, right_key_col)
        return clean.union(fp_survivors)

    # exact check of the residue: the flagged keys are few by design,
    # so an exact broadcast of the MATCHING right keys is bounded by
    # the flag count (semi-join the right keys against the flag set)
    flag_keys = pa.array(
        sorted(
            {
                r[on]
                for b in flagged_rows.iter_batches(batch_size=65536, batch_format="pyarrow")
                for r in b.select([on]).to_pylist()
            }
        ),
        pa.int64(),
    )
    present = right_keys.map_batches(
        lambda b: b.select([right_key_col]).filter(
            pc.is_in(b[right_key_col], value_set=flag_keys)
        ),
        batch_format="pyarrow",
    ).take_all()
    present_arr = pa.array(sorted({r[right_key_col] for r in present}), pa.int64())
    fp_survivors = flagged_rows.map_batches(
        lambda b: b.filter(pc.invert(pc.is_in(b[on], value_set=present_arr))),
        batch_format="pyarrow",
    )
    return clean.union(fp_survivors)
