"""Seeded benchmark inputs, cached on disk per (seed, rows).

Pages come from the library's own deterministic generator
(``sources.pages.pages_chunk``), plus an int64 ``doc_id`` and planted
near-duplicates: a row equal to its predecessor with one word replaced.
The generator's built-in exact duplicates (every 37th row repeats the
row before it) are kept intact.  Generation is never timed.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

EXACT_DUP_EVERY = 37  # sources.pages: row i (i >= 37, i % 37 == 0) repeats row i-1
NEAR_DUP_RATE = 1 / 20  # share of eligible rows turned into near-duplicates
FILES = 16  # parquet files per input (read blocks)


def plant_near_dups(texts: list[str], seed: int, rate: float = NEAR_DUP_RATE) -> list[int]:
    """Turn some rows into near-duplicates of their predecessor, in place.

    A planted row is its predecessor's text with one word replaced by a
    word that occurs nowhere else.  Rows that are exact duplicates, rows
    whose successor is an exact duplicate (its copy must stay exact) and
    rows right after a planted row (no chains) are never planted.
    Returns the planted row indices.
    """
    rng = np.random.default_rng([seed, 0x4E454152])
    draws = rng.random(len(texts))
    planted: list[int] = []
    last = -2
    for i in range(1, len(texts)):
        if i % EXACT_DUP_EVERY == 0 or (i + 1) % EXACT_DUP_EVERY == 0 or last == i - 1:
            continue
        if draws[i] >= rate:
            continue
        words = texts[i - 1].split()
        pos = int(rng.integers(len(words)))
        words[pos] = f"nd{seed % 1000}x{i}"
        texts[i] = " ".join(words)
        planted.append(i)
        last = i
    return planted


def exact_dup_rows(n: int) -> int:
    return len(range(EXACT_DUP_EVERY, n, EXACT_DUP_EVERY))


def pages_table(seed: int, rows: int):
    """(table[doc_id, url, text, lang], shares) for ``seed``."""
    import pyarrow as pa

    from tilecloud_chain_ray.sources.pages import pages_chunk

    raw = pages_chunk(0, rows, seed=seed, avg_html=2)
    texts = raw["text"].to_pylist()
    planted = plant_near_dups(texts, seed)
    table = pa.table(
        {
            "doc_id": pa.array(np.arange(rows, dtype=np.int64)),
            "url": raw["url"],
            "text": pa.array(texts, pa.string()),
            "lang": raw["lang"],
        }
    )
    shares = {
        "exact_dup_frac": exact_dup_rows(rows) / rows,
        "near_dup_frac": len(planted) / rows,
    }
    return table, shares


def cached_pages(state_dir: str, seed: int, rows: int) -> tuple[str, dict]:
    """Directory of parquet files for (seed, rows), written once and
    published atomically; returns (data path, planted shares)."""
    import pyarrow.parquet as pq

    path = os.path.join(state_dir, "inputs", f"pages_s{seed}_n{rows}")
    data, meta = os.path.join(path, "data"), os.path.join(path, "shares.json")
    if os.path.exists(meta):
        with open(meta) as fh:
            return data, json.load(fh)
    table, shares = pages_table(seed, rows)
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "data"))
    per = -(-rows // FILES)
    for k, start in enumerate(range(0, rows, per)):
        pq.write_table(table.slice(start, per), os.path.join(tmp, "data", f"part{k:03d}.parquet"))
    with open(os.path.join(tmp, "shares.json"), "w") as fh:
        json.dump(shares, fh)
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return data, shares


def read_table(path: str, columns: list[str]):
    """The cached input as one Arrow table (for the oracles)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    files = sorted(f for f in os.listdir(path) if f.endswith(".parquet"))
    return pa.concat_tables(pq.read_table(os.path.join(path, f), columns=columns) for f in files)


# -- metatile_seed geometry -------------------------------------------------

def seed_geometry(seed: int) -> dict:
    """A rectangle and a horizontal line on swissgrid_5, shifted by a
    seeded multiple of 100 m.  At zoom 2 the envelope spans 2 x 2
    metatiles (40.96 km each) and the geometry touches three of them: the
    rectangle sits in the upper left one, the line crosses the lower two,
    so the upper right metatile renders empty and is dropped whole.

    Rectangle edges sit on multiples of 100 m from the grid origin, so at
    every zoom they fall on pixel edges and no pixel centre lies on them;
    the line's coordinates sit 3-7 m off every 10 m pixel edge.  Every
    shift keeps the same metatiles: 6 rendered, 1 of them empty.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    dx = 100 * int(rng.integers(-8, 9))
    dy = 100 * int(rng.integers(-8, 9))
    rect = (560_000 + dx, 195_000 + dy, 575_000 + dx, 210_000 + dy)
    line_y = 170_123 + dy
    line = (565_017 + dx, line_y, 600_033 + dx, line_y)
    return {"rect": rect, "line": line}
