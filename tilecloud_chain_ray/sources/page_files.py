"""The datasource behind :func:`~tilecloud_chain_ray.sources.pages.read_pages`
for local, non-partitioned page tables: contiguous file groups of about
equal on-disk bytes, one group per read task, cut on the driver from the
listing :func:`~tilecloud_chain_ray.util.local_parquet_listing` already
made.  Its own module so that importing ``sources.pages`` (the page
synthesizer) does not import Ray Data."""

from __future__ import annotations

import functools

import pyarrow as pa
import pyarrow.parquet as pq
from ray.data import DataContext
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from tilecloud_chain_ray.util import weight_bounds


def _read_group(paths: list[str], columns: list[str] | None, target: int | None):
    """One read task: the files ``paths`` read whole and concatenated,
    schema metadata dropped, yielded in slices of at most ``target``
    bytes (one slice when ``target`` is None)."""
    table = pa.concat_tables(
        [pq.read_table(p, columns=columns).replace_schema_metadata(None) for p in paths],
        promote_options="default",
    )
    pieces = -(-table.nbytes // target) if target else 1
    step = max(1, -(-table.num_rows // max(pieces, 1)))
    for start in range(0, max(table.num_rows, 1), step):
        yield table.slice(start, step)


class PageFilesDatasource(Datasource):
    """Local parquet files read in contiguous groups of about equal
    on-disk bytes, one group per read task; the groups are cut on the
    driver from the listing, so building the plan starts no task."""

    def __init__(self, files: list[tuple[str, int]], columns, schema: pa.Schema) -> None:
        self._files = files
        self._columns = columns
        self._schema = schema

    def get_name(self) -> str:
        return "PageFiles"

    def estimate_inmemory_data_size(self) -> int | None:
        return None  # the width is passed in; no size-based split

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        target = DataContext.get_current().target_max_block_size
        bounds = weight_bounds([size for _, size in self._files], min(parallelism, len(self._files)))
        tasks = []
        for a, b in zip(bounds, bounds[1:]):
            paths = [path for path, _ in self._files[a:b]]
            meta = BlockMetadata(
                num_rows=None,
                size_bytes=sum(size for _, size in self._files[a:b]),
                input_files=paths,
                exec_stats=None,
            )
            read = functools.partial(_read_group, paths, self._columns, target)
            tasks.append(ReadTask(read, meta, schema=self._schema))
        return tasks
