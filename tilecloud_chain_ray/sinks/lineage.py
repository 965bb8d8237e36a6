"""Per-partition lineage records and the one checkpoint runner.

Replaces the reference's PostgreSQL job/queue state machine
(``/root/reference/tilecloud_chain/store/postgresql.py:73-89,143-194``,
retry semantics ``:443-477``): work is split into deterministic
partitions (coordinate-interval ranges, input shards);
:func:`run_partitions` writes a partition's output parquet to a temp
name and atomically renames it, THEN writes its lineage record (atomic
rename too).  A resumed run skips partitions whose record is ``done`` —
"completed work is never redone", failed work re-runs, and the
at-least-once write is idempotent (same deterministic output path per
partition).  The three resumable pipelines (``pipelines/resumable``,
``density_resumable``, ``curate_resumable``) each supply only their
per-partition work.

Lineage schema follows FIXTURES.md §6.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Collection, Sequence

import pyarrow as pa
import pyarrow.parquet as pq
import ray


# keyword-only so the counters can default to 0 without reordering the
# fields: the on-disk JSON keeps its key order
@dataclass(kw_only=True)
class LineageRecord:
    job_id: str
    partition_id: int
    zooms: list[int]
    input_rows: int = 0
    tiles_generated: int = 0
    tiles_dropped: int = 0
    tiles_stored: int = 0
    metatiles_generated: int = 0
    metatiles_dropped: int = 0
    status: str  # done | error
    started_at: float
    finished_at: float
    error: str | None = None
    cell_range: list[int] | None = None  # [min_cell, max_cell] of the input shard
    rows_out: int | None = None  # output rows of non-tile jobs (e.g. curation)


def lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def record_path(out_dir: str, partition_id: int) -> str:
    return os.path.join(lineage_dir(out_dir), f"part_{partition_id:06d}.json")


def write_record(out_dir: str, record: LineageRecord) -> None:
    os.makedirs(lineage_dir(out_dir), exist_ok=True)
    path = record_path(out_dir, record.partition_id)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(asdict(record), fh)
    os.replace(tmp, path)  # commit point


def load_records(out_dir: str) -> dict[int, LineageRecord]:
    d = lineage_dir(out_dir)
    records: dict[int, LineageRecord] = {}
    if not os.path.isdir(d):
        return records
    for name in os.listdir(d):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(d, name)) as fh:
            data = json.load(fh)
        rec = LineageRecord(**data)
        records[rec.partition_id] = rec
    return records


def done_partitions(out_dir: str) -> set[int]:
    return {pid for pid, rec in load_records(out_dir).items() if rec.status == "done"}


def summarize_lineage(out_dir: str) -> dict[str, int | float]:
    return _summarize(load_records(out_dir).values())


def _summarize(recs: Collection[LineageRecord]) -> dict[str, int | float]:
    done = [r for r in recs if r.status == "done"]
    return {
        "partitions_done": len(done),
        "partitions_error": len([r for r in recs if r.status != "done"]),
        "tiles_generated": sum(r.tiles_generated for r in done),
        "tiles_dropped": sum(r.tiles_dropped for r in done),
        "tiles_stored": sum(r.tiles_stored for r in done),
        "metatiles_generated": sum(r.metatiles_generated for r in done),
        "metatiles_dropped": sum(r.metatiles_dropped for r in done),
        "elapsed": sum(r.finished_at - r.started_at for r in done),
    }


def now() -> float:
    return time.time()


def part_path(out_dir: str, partition_id: int) -> str:
    """Committed output parquet of one partition."""
    return os.path.join(out_dir, f"part_{partition_id:012x}.parquet")


def shard_id(path: str) -> int:
    """Stable per-shard identity: 48 bits of the md5 of the absolute
    path.  Lineage records and part files key off this, so the shard
    set can grow/shrink between runs without re-mapping ids (a position
    in the sorted list would shift when a shard is added or removed)."""
    return int(hashlib.md5(os.path.abspath(path).encode()).hexdigest()[:12], 16)


def _run_partition(
    out_dir: str,
    job_id: str,
    partition_id: int,
    zooms: list[int],
    arg: Any,
    work: Callable,
    fail: bool,
) -> None:
    started = now()
    try:
        table, fields = work(arg)
        if fail:
            raise RuntimeError(f"injected failure in partition {partition_id}")
        path = part_path(out_dir, partition_id)
        pq.write_table(table, path + ".tmp")
        os.replace(path + ".tmp", path)  # commit the data BEFORE the lineage record
        fields = {"status": "done", **fields}
    except Exception as exc:  # record the error, like the queue's error rows
        fields = {"status": "error", "error": str(exc)}
    write_record(
        out_dir,
        LineageRecord(
            job_id=job_id,
            partition_id=partition_id,
            zooms=zooms,
            started_at=started,
            finished_at=now(),
            **fields,
        ),
    )


def run_partitions(
    out_dir: str,
    job_id: str,
    parts: Sequence[tuple[int, list[int], Any]],
    work: Callable[[Any], tuple[pa.Table, dict[str, Any]]],
    fail: Collection[int] = (),
) -> dict[str, int | float]:
    """Run (or resume) one checkpointed job.

    ``parts`` lists ``(partition_id, zooms, arg)``.  Every part whose
    lineage record is not ``done`` runs ``work(arg) -> (table, fields)``
    as one Ray task (no retries: a failure becomes an ``error`` record
    and the next run re-runs it); ``table`` is committed to
    :func:`part_path`, then the ``done`` record carrying ``fields``
    (``LineageRecord`` counters) is written.  ``fail`` holds positions
    in ``parts`` whose task raises after ``work`` and before the commit
    (fault injection for tests).

    Returns the lineage summary over the given ids only — records of
    partitions no longer listed neither count nor block — plus
    ``partitions_total`` and ``partitions_skipped``."""
    done = done_partitions(out_dir)
    todo = [(pos, p) for pos, p in enumerate(parts) if p[0] not in done]
    if todo:
        os.makedirs(out_dir, exist_ok=True)
        task = ray.remote(max_retries=0)(_run_partition)
        work_ref = ray.put(work)  # stored once, shared by every task
        ray.get(
            [
                task.remote(out_dir, job_id, pid, zooms, arg, work_ref, pos in fail)
                for pos, (pid, zooms, arg) in todo
            ]
        )
    ids = {pid for pid, _, _ in parts}
    current = [r for pid, r in load_records(out_dir).items() if pid in ids]
    return {
        **_summarize(current),
        "partitions_total": len(parts),
        "partitions_skipped": len(done & ids),
    }


def status_rollup(out_dir: str, top_errors: int = 5) -> dict:
    """Queue/job status rollup (G3/J5): per-(status, zoom) partition
    counts + the most recent errors, the analog of the PostgreSQL
    ``GROUP BY job_id, zoom, status`` + row_number top-5 query
    (``/root/reference/tilecloud_chain/store/postgresql.py:536-606``).
    """
    recs = list(load_records(out_dir).values())
    by_key: dict[tuple[str, str, int], int] = {}
    for r in recs:
        for z in r.zooms:
            key = (r.job_id, r.status, z)
            by_key[key] = by_key.get(key, 0) + 1
    errors = sorted(
        (r for r in recs if r.status == "error"),
        key=lambda r: r.finished_at,
        reverse=True,
    )[:top_errors]
    done = [r for r in recs if r.status == "done"]
    elapsed = sum(r.finished_at - r.started_at for r in done)
    remaining = len([r for r in recs if r.status != "done"])
    eta = (elapsed / len(done) * remaining) if done else None
    return {
        "counts": [
            {"job_id": j, "status": s, "zoom": z, "partitions": c}
            for (j, s, z), c in sorted(by_key.items())
        ],
        "recent_errors": [
            {"partition_id": r.partition_id, "error": r.error, "finished_at": r.finished_at}
            for r in errors
        ],
        "eta_seconds": eta,
    }
