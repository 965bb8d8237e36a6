"""Mergeable sketches: HyperLogLog approximate distinct count.

The guide's sketch pattern: each batch emits ONE serialized sketch row;
sketches merge associatively (register-wise max), so the reduce is a
tiny tree regardless of input size — the approximate companion to
``stages/distinct.grouped_distinct_counts`` for when exactness can be
traded for a fixed-size shuffle (standard HyperLogLog, Flajolet et al.,
public algorithm).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray


def _hll_registers(keys: np.ndarray, p: int) -> np.ndarray:
    """Dense HLL registers (2^p uint8) for int64 keys."""
    from tilecloud_chain_ray.functions.hashing import mix64

    m = 1 << p
    h = mix64(keys)
    idx = (h & np.uint64(m - 1)).astype(np.int64)
    w = h >> np.uint64(p)
    # rank = position of first 1-bit in the remaining 64-p bits (1-based)
    bits = 64 - p
    rank = np.full(len(h), bits + 1, dtype=np.uint8)
    found = np.zeros(len(h), dtype=bool)
    for b in range(bits):
        hit = ~found & (((w >> np.uint64(b)) & np.uint64(1)) == 1)
        rank[hit] = b + 1
        found |= hit
    registers = np.zeros(m, dtype=np.uint8)
    np.maximum.at(registers, idx, rank)
    return registers


def _hll_estimate(registers: np.ndarray) -> float:
    m = len(registers)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** (-registers.astype(np.float64)))
    zeros = int((registers == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # small-range correction
    return float(est)


def approx_distinct(ds: ray.data.Dataset, col: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT col) (int64 column), ±~1.04/sqrt(2^p).

    One fixed-size (2^p bytes) sketch row per block crosses the wire;
    the merge is register-wise max on the driver.
    """

    def sketch_batch(batch: pa.Table) -> pa.Table:
        keys = batch[col].to_numpy(zero_copy_only=False).astype(np.int64)
        regs = _hll_registers(keys, p)
        return pa.Table.from_pydict({"regs": pa.array([regs.tolist()], pa.list_(pa.uint8()))})

    sketches = ds.map_batches(sketch_batch, batch_format="pyarrow")
    merged = np.zeros(1 << p, dtype=np.uint8)
    for row in sketches.iter_rows():
        merged = np.maximum(merged, np.asarray(row["regs"], dtype=np.uint8))
    return _hll_estimate(merged)


def _hll_merge_kernel(group_col: str, out_col: str, p: int):
    """Task-exchange kernel for :func:`grouped_approx_distinct`: every
    group co-located in one hash partition merges in one
    register-matrix pass (flatten the fixed-width regs lists to
    (rows, 2^p), sort by group code, register-wise
    ``np.maximum.reduceat`` per group run).

    Null groups are dropped, matching the per-block sketch pass (its
    ``df.groupby`` skips null keys, so the library's own sketch tables
    carry none — the guard is for sketch tables built elsewhere):
    ``pd.factorize`` codes a null as -1, which sorts ahead of every
    real group, and ``uniques[-1]`` would then label the null group's
    registers with the LAST real group — a duplicate, wrongly
    estimated row."""
    import pandas as pd
    import pyarrow.compute as pc

    def merge_partition(t: pa.Table) -> pa.Table:
        if t.num_rows and t[group_col].null_count:
            t = t.filter(pc.is_valid(t[group_col]))
        if t.num_rows == 0:
            return pa.table({})  # dropped driver-side by count
        codes, uniques = pd.factorize(t[group_col].to_pandas(), sort=True)
        regs = (
            t["regs"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
        ).reshape(t.num_rows, 1 << p)
        order = np.argsort(codes, kind="stable")
        sc, sr = codes[order], regs[order]
        starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]])
        merged = np.maximum.reduceat(sr, starts, axis=0).astype(np.uint8)
        ests = [int(round(_hll_estimate(m))) for m in merged]
        return pa.table(
            {
                group_col: pa.array(np.asarray(uniques)[sc[starts]]),
                out_col: pa.array(ests, pa.int64()),
            }
        )

    return merge_partition


def grouped_approx_distinct(
    ds: ray.data.Dataset,
    group_col: str,
    key_col: str,
    p: int = 12,
    out_col: str = "approx_distinct",
) -> ray.data.Dataset:
    """Approximate COUNT(DISTINCT key) PER GROUP: one fixed-size sketch
    row per (block, group) crosses the wire, sketches merge by
    register-wise max in a task-exchange kernel — the scale
    path for distinct-user-style rollups where the exact bundled
    shuffle (stages/distinct.py) would move every key.
    """
    import pandas as pd

    def sketch_batch(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch[group_col].to_pylist(),
                "k": batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )
        groups, regs = [], []
        for g, sub in df.groupby("g", sort=False):
            groups.append(g)
            regs.append(_hll_registers(sub["k"].to_numpy(), p).tolist())
        return pa.Table.from_pydict(
            {
                group_col: pa.array(groups),
                "regs": pa.array(regs, pa.list_(pa.uint8())),
            }
        )

    from tilecloud_chain_ray.util import hash_group_blocks

    sketches = ds.map_batches(sketch_batch, batch_format="pyarrow")
    return hash_group_blocks(sketches, [group_col], _hll_merge_kernel(group_col, out_col, p))


# -- t-digest: mergeable approximate quantiles ------------------------------
#
# Dunning & Ertl's t-digest (public algorithm): a bounded set of
# (mean, weight) centroids whose sizes shrink near the distribution's
# tails (scale function k1).  Per block one digest row crosses the
# wire; digests merge associatively, so grouped quantiles over 10^12
# rows shuffle kilobytes per group instead of the rows — the
# approximate companion to ``stages/curation.grouped_quantiles``.


def _tdigest_compress(
    means: np.ndarray, weights: np.ndarray, delta: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted (mean, weight) centroids to <= ~delta centroids
    using the k1 quantile-scale bound."""
    order = np.argsort(means, kind="stable")
    means, weights = means[order], weights[order]
    total = weights.sum()
    if total == 0 or len(means) <= 1:
        return means, weights
    out_m: list[float] = []
    out_w: list[float] = []
    # k1 scale: k(q) = delta/(2*pi) * asin(2q - 1)
    k_of = lambda q: delta / (2 * np.pi) * np.arcsin(np.clip(2 * q - 1, -1, 1))  # noqa: E731
    cur_m, cur_w = float(means[0]), float(weights[0])
    w_before = 0.0
    for m, w in zip(means[1:], weights[1:]):
        q0 = w_before / total
        q2 = (w_before + cur_w + w) / total
        if k_of(q2) - k_of(q0) <= 1.0:
            cur_m = (cur_m * cur_w + float(m) * float(w)) / (cur_w + float(w))
            cur_w += float(w)
        else:
            out_m.append(cur_m)
            out_w.append(cur_w)
            w_before += cur_w
            cur_m, cur_w = float(m), float(w)
    out_m.append(cur_m)
    out_w.append(cur_w)
    return np.asarray(out_m, np.float64), np.asarray(out_w, np.float64)


def _tdigest_from_values(values: np.ndarray, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Build a digest from raw values: pre-bucket to <= 8*delta uniform
    rank clusters (exact), then compress with the scale function."""
    values = np.sort(values.astype(np.float64))
    n = len(values)
    if n == 0:
        return np.empty(0), np.empty(0)
    k = min(n, 8 * delta)
    edges = (np.arange(k + 1) * n) // k
    sums = np.add.reduceat(values, edges[:-1])
    counts = np.diff(edges).astype(np.float64)
    return _tdigest_compress(sums / counts, counts, delta)


def _tdigest_quantile(
    means: np.ndarray, weights: np.ndarray, qs: np.ndarray
) -> np.ndarray:
    """Quantile estimates by linear interpolation between centroid
    mid-ranks (the standard t-digest estimator)."""
    if len(means) == 0:
        return np.full(len(qs), np.nan)
    total = weights.sum()
    cum = np.cumsum(weights) - weights / 2.0  # centroid mid-ranks
    targets = np.asarray(qs, np.float64) * total
    return np.interp(targets, cum, means)


def grouped_approx_quantiles(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    qs: tuple[float, ...] = (0.5, 0.9, 0.99),
    delta: int = 200,
) -> ray.data.Dataset:
    """Per-group approximate quantiles via mergeable t-digests.

    Returns one row per group: (group_col, q_<q> ... ).  Shuffle
    payload = one <= ~delta-centroid digest per (block, group) — fixed
    size regardless of row count.  Typical relative rank error is
    O(1/delta) in the body and far tighter in the tails (k1 scale).
    """
    import pandas as pd

    def sketch_batch(batch: pa.Table) -> pa.Table:
        g = batch[group_col]
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        df = pd.DataFrame({"g": g.to_numpy(zero_copy_only=False), "v": v})
        rows_g, rows_m, rows_w = [], [], []
        for gv, sub in df.groupby("g", sort=False):
            m, w = _tdigest_from_values(sub["v"].to_numpy(), delta)
            rows_g.append(gv)
            rows_m.append(m)
            rows_w.append(w)
        return pa.Table.from_pydict(
            {
                "g": pa.array(rows_g),
                "means": pa.array([m.tolist() for m in rows_m], pa.list_(pa.float64())),
                "weights": pa.array([w.tolist() for w in rows_w], pa.list_(pa.float64())),
            }
        )

    def merge_partition(t: pa.Table) -> pa.Table:
        """Task-exchange kernel: each co-located group's digests merge
        with one ``_tdigest_compress`` call (digest compression is
        centroid-count-bounded, so a per-group Python pass over the
        partition's few digest rows is the cheap part)."""
        if t.num_rows == 0:
            return pa.table({})  # dropped driver-side by count
        df = t.to_pandas()
        rows: dict[str, list] = {group_col: []}
        for q in qs:
            rows[f"q_{q}"] = []
        for gv, sub in df.groupby("g", sort=True):
            means = np.concatenate([np.asarray(a, np.float64) for a in sub["means"]])
            weights = np.concatenate([np.asarray(a, np.float64) for a in sub["weights"]])
            m, w = _tdigest_compress(means, weights, delta)
            est = _tdigest_quantile(m, w, np.asarray(qs))
            rows[group_col].append(gv)
            for q, e in zip(qs, est):
                rows[f"q_{q}"].append(float(e))
        return pa.Table.from_pydict(rows)

    from tilecloud_chain_ray.util import hash_group_blocks

    partials = ds.map_batches(sketch_batch, batch_format="pyarrow")
    return hash_group_blocks(partials, ["g"], merge_partition)


# -- Misra-Gries: mergeable heavy hitters ------------------------------------
#
# The third classic mergeable summary in this module (with HLL and the
# t-digest): a bounded table of <= capacity (key, count) pairs
# whose counts underestimate true frequencies by at most
# n_decremented / capacity.  Summaries merge by adding counts then
# re-compressing (Agarwal et al., "Mergeable Summaries", PODS'12 —
# merging preserves the error bound), so corpus-wide top-k candidates
# cost one sketch row per block regardless of input size.


def _mg_compress(
    keys: np.ndarray, counts: np.ndarray, capacity: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Keep <= capacity entries; returns (keys, counts, decremented).

    The classic decrement step, vectorized: subtract the
    (capacity+1)-th largest count from everything and drop <= 0.
    """
    if len(keys) <= capacity:
        return keys, counts, 0
    order = np.argsort(-counts, kind="stable")
    thresh = counts[order[capacity]]
    kept = counts > thresh
    decremented = int(thresh)
    return keys[kept], counts[kept] - thresh, decremented


def _mg_from_values(keys: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray, int]:
    uniq, counts = np.unique(keys, return_counts=True)
    return _mg_compress(uniq, counts.astype(np.int64), capacity)


def heavy_hitters(
    ds: ray.data.Dataset,
    key_col: str,
    capacity: int = 256,
    min_share: float | None = None,
) -> pa.Table:
    """Approximate heavy hitters over an int64 column.

    Returns (key, count_lo, count_hi): true frequency is within
    [count_lo, count_hi]; every key with true frequency >
    n / (capacity + 1) is guaranteed present (the Misra-Gries
    guarantee).  With ``min_share``, rows whose count_hi is below
    ``min_share * n`` are dropped.

    One sketch row per block crosses the wire; the driver merge is a
    vectorized add + one compress per block — O(blocks * capacity).
    """

    def sketch_batch(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        k, c, dec = _mg_from_values(keys, capacity)
        return pa.table(
            {
                "keys": pa.array([k.tobytes()], pa.binary()),
                "counts": pa.array([c.tobytes()], pa.binary()),
                "dec": pa.array([dec], pa.int64()),
                "n": pa.array([len(keys)], pa.int64()),
            }
        )

    parts = ray.get(ds.map_batches(sketch_batch, batch_format="pyarrow").to_arrow_refs())
    # Ray passes empty input blocks through without running the UDF —
    # keep only blocks carrying the sketch schema
    parts = [t for t in parts if "keys" in t.schema.names]
    if not parts:
        return pa.table(
            {
                "key": pa.array([], pa.int64()),
                "count_lo": pa.array([], pa.int64()),
                "count_hi": pa.array([], pa.int64()),
            }
        )
    tbl = pa.concat_tables(parts)
    cur_k = np.empty(0, dtype=np.int64)
    cur_c = np.empty(0, dtype=np.int64)
    total_dec = 0
    total_n = 0
    for i in range(tbl.num_rows):
        k = np.frombuffer(tbl["keys"][i].as_py(), dtype=np.int64)
        c = np.frombuffer(tbl["counts"][i].as_py(), dtype=np.int64)
        total_dec += int(tbl["dec"][i].as_py())
        total_n += int(tbl["n"][i].as_py())
        both_k = np.concatenate([cur_k, k])
        both_c = np.concatenate([cur_c, c])
        order = np.argsort(both_k, kind="stable")
        both_k, both_c = both_k[order], both_c[order]
        starts = np.flatnonzero(np.r_[True, both_k[1:] != both_k[:-1]])
        sums = np.add.reduceat(both_c, starts)
        cur_k, cur_c, dec = _mg_compress(both_k[starts], sums, capacity)
        total_dec += dec
    # count bounds: the stored count underestimates by at most total_dec
    out_order = np.argsort(-cur_c, kind="stable")
    cur_k, cur_c = cur_k[out_order], cur_c[out_order]
    hi = cur_c + total_dec
    if min_share is not None:
        keep = hi >= min_share * total_n
        cur_k, cur_c, hi = cur_k[keep], cur_c[keep], hi[keep]
    return pa.table(
        {
            "key": pa.array(cur_k, pa.int64()),
            "count_lo": pa.array(cur_c, pa.int64()),
            "count_hi": pa.array(hi, pa.int64()),
        }
    )
