"""Deterministic Common-Crawl-style pages table (BASELINE.json input_hint).

Schema: ``url: string, warc_ts: timestamp[us], html: binary,
text: string, lang: string``.  Synthesized in seeded chunks (no external
data); every value is a pure function of (seed, row index) so any scale
factor is reproducible.  ``text`` occasionally repeats an earlier row's
text verbatim to exercise exact/near dedup.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tilecloud_chain_ray.util import exchange_width, local_parquet_listing, read_parquet_clean

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# warc_ts of row i is PAGES_BASE_TS_US + i * 1_000_000 — consumers can
# recover the row index (a stable doc id) from the timestamp alone.
PAGES_BASE_TS_US = int(datetime(2024, 1, 1, tzinfo=timezone.utc).timestamp() * 1_000_000)

_LANGS = ("en", "de", "fr", "it")
_VOCAB = (
    "the quick brown fox jumps over lazy dog alpine valley tile map cloud "
    "chain ray data arrow batch stream shard zoom pyramid meta buffer hash "
    "page crawl web text index spatial join cell morton row column render "
    "vector raster layer grid bbox extent queue store cache lineage commit"
).split()
_DUP_EVERY = 37  # every 37th row repeats the previous row's text


def _row_text(rng: np.random.Generator, n_words: int) -> str:
    idx = rng.integers(0, len(_VOCAB), n_words)
    return " ".join(_VOCAB[i] for i in idx)


def pages_chunk(start: int, count: int, seed: int = 42, avg_html: int = 2048) -> pa.Table:
    """Rows [start, start+count) of the deterministic pages table."""
    urls = [f"https://site{i % 997}.example/p/{i}" for i in range(start, start + count)]
    ts = pa.array(
        np.arange(start, start + count, dtype=np.int64) * 1_000_000 + PAGES_BASE_TS_US,
        pa.timestamp("us"),
    )
    htmls = []
    texts: list[str] = []
    langs = []
    for i in range(start, start + count):
        rng = np.random.default_rng(seed * 1_000_003 + i)
        htmls.append(rng.integers(0, 256, int(rng.integers(avg_html // 2, avg_html * 2)), dtype=np.uint8).tobytes())
        if i >= _DUP_EVERY and i % _DUP_EVERY == 0:
            # duplicate content under a different url (dedup fixture):
            # copy the PREVIOUS row (never itself a dup), replaying its
            # rng consumption exactly (same dtypes!) so its text
            # reproduces byte-identically
            dup_rng = np.random.default_rng(seed * 1_000_003 + i - 1)
            dup_rng.integers(
                0, 256, int(dup_rng.integers(avg_html // 2, avg_html * 2)), dtype=np.uint8
            )
            texts.append(_row_text(dup_rng, int(dup_rng.integers(20, 200))))
        else:
            texts.append(_row_text(rng, int(rng.integers(20, 200))))
        langs.append(_LANGS[i % len(_LANGS)])
    return pa.Table.from_arrays(
        [pa.array(urls), ts, pa.array(htmls, pa.binary()), pa.array(texts), pa.array(langs)],
        schema=PAGES_SCHEMA,
    )


def _write_chunk(out_dir: str, start: int, count: int, seed: int, avg_html: int) -> str:
    path = os.path.join(out_dir, f"pages_{start:012d}.parquet")
    if os.path.exists(path):
        return path
    table = pages_chunk(start, count, seed=seed, avg_html=avg_html)
    tmp = path + f".tmp{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)
    return path


def synthesize_pages(
    out_dir: str,
    num_pages: int,
    seed: int = 42,
    avg_html: int = 2048,
    rows_per_file: int = 50_000,
) -> str:
    """Write the pages table as partitioned parquet; returns out_dir.

    One file per row-chunk so readers parallelize and a partial rerun
    can skip complete files (idempotent: atomic per-file writes, chunks
    generated in parallel via Ray when a session is up).
    """
    os.makedirs(out_dir, exist_ok=True)
    chunks = [
        (start, min(rows_per_file, num_pages - start))
        for start in range(0, num_pages, rows_per_file)
    ]
    todo = [
        (s, c)
        for s, c in chunks
        if not os.path.exists(os.path.join(out_dir, f"pages_{s:012d}.parquet"))
    ]
    if not todo:
        return out_dir
    try:
        import ray

        parallel = ray.is_initialized()
    except ImportError:
        parallel = False
    if parallel and len(todo) > 1:
        write = ray.remote(_write_chunk)
        ray.get([write.remote(out_dir, s, c, seed, avg_html) for s, c in todo])
    else:
        for s, c in todo:
            _write_chunk(out_dir, s, c, seed, avg_html)
    return out_dir


def read_pages(path: str, columns: list[str] | None = None):
    """The pages table at ``path`` as a Dataset, read like an exchange:
    :func:`~tilecloud_chain_ray.util.exchange_width` of its on-disk
    bytes, i.e. one block per cluster core, raised per
    ``DataContext.target_max_block_size``.

    A local, non-partitioned path is listed once and read by file
    group: one read task per group of contiguous files of about equal
    bytes (at most one task per file), each reading its files whole
    with ``pq.read_table``, dropping the schema metadata and yielding
    blocks of at most the target block size.  With more cores than
    files, Ray splits each task's output so the block count still
    equals the width.  Building this plan starts no Ray task:
    ``ray.data.read_parquet`` samples files in tasks on every call, and
    its width, ``max(min(200, est. MiB), 2 × cpus)``, split a 4.6 MiB,
    16-file page table into 12 read tasks on 1 CPU (0.30 s against
    0.12 s as one task).

    A hive-partitioned or remote ``path`` (or one whose files lack a
    requested column) goes through
    :func:`~tilecloud_chain_ray.util.read_parquet_clean`, since only
    Ray's reader handles those inputs; a partitioned local one is
    sized the same way, a remote one keeps Ray's width."""
    import ray

    from tilecloud_chain_ray.sources.page_files import PageFilesDatasource

    schema, nbytes, files = local_parquet_listing(path, columns)
    if schema is None:
        return read_parquet_clean(
            path,
            columns=columns,
            schema=None,
            override_num_blocks=None if nbytes is None else exchange_width(nbytes),
        )
    return ray.data.read_datasource(
        PageFilesDatasource(files, columns, schema), override_num_blocks=exchange_width(nbytes)
    )
