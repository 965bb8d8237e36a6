"""Partitioned sessionize: gap-based session assignment over an event
stream (the streaming-shaped windowed aggregate of SURVEY.md §2.9;
reference analog: the per-run event accounting the database logger
groups by run, ``/root/reference/tilecloud_chain/database_logger.py``).

A naive ``events.groupby(user_id).map_groups(...)`` creates ONE Ray
group per distinct user — row-scale key cardinality for clickstreams,
the exact shuffle shape BASELINE.md's ledger measured ~30x slower than
a salted bucket groupby (per-group scheduling ~1 ms x millions of
keys).  Here the events hash-partition on the key
(util.hash_group_blocks, at the engine's width; every key's full
history co-locates in its partition) and the per-partition
kernel is ONE vectorized numpy pass over ALL users in the partition at
once — no per-user Python.

Partitioning assumption (same as :func:`~.join.asof_join`): a single
key's events fit in one partition.  Salt by time range if one key's
history is itself huge.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.util import hash_group_blocks, strip_meta


def session_counts(
    events: ray.data.Dataset,
    key: str = "user_id",
    ts: str = "ts",
    gap: int = 600_000_000,
    tie: str | None = None,
) -> ray.data.Dataset:
    """Per-key session counts: a new session starts when the time since
    the previous event of the same key exceeds ``gap`` (in the unit of
    ``ts`` cast to int64 — microseconds for ``timestamp[us]``).

    Returns a Dataset of ``(key, n_sessions)``.
    """
    sort_cols = [key, ts] + ([tie] if tie else [])

    def bucket_sessions(batch: pa.Table) -> pa.Table:
        key_type = batch.schema.field(key).type
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {key: pa.array([], key_type), "n_sessions": pa.array([], pa.int64())}
            )
        group = batch.select(sort_cols).to_pandas()
        g = group.sort_values(sort_cols, kind="mergesort")
        k = g[key].to_numpy()
        t = g[ts].astype("int64").to_numpy()
        n = len(g)
        new_key = np.empty(n, dtype=bool)
        new_key[0] = True
        new_key[1:] = k[1:] != k[:-1]
        new_sess = new_key.copy()
        new_sess[1:] |= (t[1:] - t[:-1]) > gap
        starts = np.flatnonzero(new_key)
        counts = np.add.reduceat(new_sess.astype(np.int64), starts)
        return pa.Table.from_pydict(
            {
                key: pa.array(k[starts]).cast(key_type),
                "n_sessions": pa.array(counts, pa.int64()),
            }
        )

    # hash-partition straight on the key (util.hash_group_blocks): the
    # bounded-bucket co-location of the old salted sort-groupby, minus
    # its zero-schema empty bundles and per-group UDF calls
    cleaned = events.map_batches(strip_meta, batch_format="pyarrow")
    return hash_group_blocks(cleaned, [key], bucket_sessions)


def assign_sessions(
    events: ray.data.Dataset,
    key: str = "user_id",
    ts: str = "ts",
    gap: int = 600_000_000,
    tie: str | None = None,
    session_col: str = "session_id",
) -> ray.data.Dataset:
    """Per-event session ids: every input row plus a ``session_col``
    numbering each key's sessions 0,1,2,... in time order.  Same
    key-partitioned exchange as :func:`session_counts`; the kernel stays one vectorized
    pass (cumsum of session starts minus each key's base)."""
    sort_cols = [key, ts] + ([tie] if tie else [])

    def bucket_assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(session_col, pa.array([], pa.int64()))
        # sort the whole partition once; session math over column views
        idx_df = batch.select(sort_cols).to_pandas()
        order = np.asarray(
            idx_df.sort_values(sort_cols, kind="mergesort").index, dtype=np.int64
        )
        k = idx_df[key].to_numpy()[order]
        t = idx_df[ts].astype("int64").to_numpy()[order]
        n = len(order)
        new_key = np.empty(n, dtype=bool)
        new_key[0] = True
        new_key[1:] = k[1:] != k[:-1]
        new_sess = new_key.copy()
        new_sess[1:] |= (t[1:] - t[:-1]) > gap
        sess_idx = np.cumsum(new_sess) - 1  # global session ordinal
        base = sess_idx[new_key]  # first ordinal of each key
        sess_of_key = sess_idx - np.repeat(
            base, np.diff(np.append(np.flatnonzero(new_key), n))
        )
        out = batch.take(pa.array(order, pa.int64()))
        return out.append_column(
            session_col, pa.array(sess_of_key.astype(np.int64), pa.int64())
        )

    cleaned = events.map_batches(strip_meta, batch_format="pyarrow")
    return hash_group_blocks(cleaned, [key], bucket_assign)
