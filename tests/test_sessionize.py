"""Partitioned sessionize stage (stages/sessionize.py): correctness vs
a single-process pandas reference, string-key support, per-event
session ids, and the high-cardinality wall-time bound that proves the
exchange scales with its width, not distinct users."""

import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from tilecloud_chain_ray.stages.sessionize import assign_sessions, session_counts


def _ref_counts(df: pd.DataFrame, gap: int) -> pd.DataFrame:
    g = df.sort_values(["user_id", "ts", "eid"], kind="mergesort")
    new = (g["user_id"] != g["user_id"].shift()) | (
        g["ts"] - g["ts"].shift() > gap
    )
    return (
        pd.DataFrame({"user_id": g["user_id"], "new": new})
        .groupby("user_id", sort=True)["new"]
        .sum()
        .astype(np.int64)
        .rename("n_sessions")
        .reset_index()
    )


@pytest.mark.usefixtures("ray_session")
def test_session_counts_matches_pandas(at_width):
    rng = np.random.default_rng(7)
    n = 20_000
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 500, n).astype(np.int64),
            "ts": rng.integers(0, 5_000, n).astype(np.int64),
            "eid": np.arange(n, dtype=np.int64),
        }
    )
    events = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(8)
    with at_width(16):
        got = session_counts(events, key="user_id", ts="ts", gap=100, tie="eid").to_pandas()
    got = got.sort_values("user_id").reset_index(drop=True)
    want = _ref_counts(df, gap=100)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_session_counts_string_keys(at_width):
    df = pd.DataFrame(
        {
            "user_id": ["a", "b", "a", "a", "b", "c"],
            "ts": np.array([0, 5, 50, 500, 510, 0], dtype=np.int64),
            "eid": np.arange(6, dtype=np.int64),
        }
    )
    events = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    with at_width(4):
        got = session_counts(events, key="user_id", ts="ts", gap=100, tie="eid").to_pandas()
    got = got.sort_values("user_id").reset_index(drop=True)
    # a: 0,50 then gap to 500 -> 2; b: 5 then gap to 510 -> 2; c: 1
    want = pd.DataFrame({"user_id": ["a", "b", "c"], "n_sessions": [2, 2, 1]})
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_assign_sessions_ids(at_width):
    df = pd.DataFrame(
        {
            "user_id": np.array([1, 1, 1, 2, 2], dtype=np.int64),
            "ts": np.array([0, 50, 500, 0, 1000], dtype=np.int64),
            "eid": np.arange(5, dtype=np.int64),
        }
    )
    events = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    with at_width(4):
        got = assign_sessions(events, key="user_id", ts="ts", gap=100, tie="eid").to_pandas()
    got = got.sort_values("eid").reset_index(drop=True)
    assert got["session_id"].tolist() == [0, 0, 1, 0, 1]
    # counts derived from ids match session_counts
    derived = got.groupby("user_id")["session_id"].nunique()
    assert derived.tolist() == [2, 2]


@pytest.mark.usefixtures("ray_session")
def test_sessionize_high_cardinality_bucketed():
    """100k distinct users / 400k events must flow through a bounded
    bucket groupby in seconds; the per-user groupby this stage replaced
    priced this shape at ~30x (BASELINE.md ledger)."""
    rng = np.random.default_rng(11)
    n_users, n_events = 100_000, 400_000
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, n_users, n_events).astype(np.int64),
            "ts": rng.integers(0, 10_000_000, n_events).astype(np.int64),
            "eid": np.arange(n_events, dtype=np.int64),
        }
    )
    events = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(8)
    t0 = time.perf_counter()
    got = (
        session_counts(events, key="user_id", ts="ts", gap=1_000, tie="eid")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"bucketed sessionize took {elapsed:.1f}s"
    want = _ref_counts(df, gap=1_000)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
