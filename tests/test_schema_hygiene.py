"""Block-schema hygiene: every block entering a shuffle must have a
HASHABLE Arrow schema.

A ``pyarrow.Schema`` with non-empty metadata is unhashable
(``hash(schema)`` raises ``unhashable type: 'dict'``) — parquet files
written by pandas carry a ``b"pandas"`` metadata dict, and
``pa.Table.from_pandas`` re-attaches one.  Unhashable schemas silently
defeat Ray Data's per-reduce-task schema deduplication
(``transform_pyarrow.unify_schemas`` falls back to the expensive unify
path in EVERY shuffle the blocks flow through; measured on this repo's
bench: pyramid_z14 2.7 s -> 1.7 s, pack_shards 2.1 s -> 1.5 s at sf0.1
once stripped).  The engine strips metadata at the read boundary
(``util.read_parquet_clean``) and at every ``from_pandas`` kernel.
"""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tilecloud_chain_ray.util import (
    local_parquet_listing,
    read_parquet_clean,
    strip_meta,
)

SF_DIR = "/root/testdata/sf0.001"


def _assert_hashable(schema: pa.Schema, ctx: str) -> None:
    assert schema.metadata is None or len(schema.metadata) == 0, ctx
    hash(schema)  # raises if the schema would defeat Ray's dedup


def test_testdata_parquet_has_unhashable_schema():
    """The premise: driver testdata carries pandas metadata (if this
    ever stops holding, the strip becomes a no-op — still correct)."""
    sch = pq.read_schema(os.path.join(SF_DIR, "documents.parquet"))
    if sch.metadata:
        with pytest.raises(TypeError):
            hash(sch)


def test_strip_schema_metadata_zero_copy():
    tbl = pa.table({"a": [1, 2]}).replace_schema_metadata({b"pandas": b"{}"})
    out = strip_meta(tbl)
    _assert_hashable(out.schema, "stripped table")
    # zero-copy: same underlying buffer addresses
    assert (
        out.column("a").chunks[0].buffers()[1].address
        == tbl.column("a").chunks[0].buffers()[1].address
    )
    # no-op path returns the identical object
    assert strip_meta(out) is out


def _stripped_read_schema(paths, columns):
    return local_parquet_listing(paths, columns)[0]


def test_stripped_read_schema_modes(tmp_path):
    # single file, full + column subset
    path = os.path.join(SF_DIR, "events.parquet")
    full = _stripped_read_schema(path, None)
    _assert_hashable(full, "full file schema")
    sub = _stripped_read_schema(path, ["user_id", "ts"])
    assert sub.names == ["user_id", "ts"]
    _assert_hashable(sub, "subset schema")
    # flat directory of parquet files
    d = tmp_path / "flat"
    d.mkdir()
    pq.write_table(pa.table({"x": [1]}), str(d / "part0.parquet"))
    assert _stripped_read_schema(str(d), None).names == ["x"]
    # hive-partitioned directory -> None (partition col not in file schema)
    h = tmp_path / "hive" / "lang=en"
    h.mkdir(parents=True)
    pq.write_table(pa.table({"x": [1]}), str(h / "p.parquet"))
    assert _stripped_read_schema(str(tmp_path / "hive"), None) is None
    # missing column -> None (caller falls back to plain read + strip)
    assert _stripped_read_schema(path, ["no_such_column"]) is None


def test_read_parquet_clean_blocks_hashable(ray_session):
    ds = read_parquet_clean(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "lang"]
    )
    for batch in ds.iter_batches(batch_size=256, batch_format="pyarrow"):
        _assert_hashable(batch.schema, "read block")
        assert batch.column_names == ["doc_id", "lang"]
        break


def test_read_parquet_clean_partitioned_fallback(ray_session, tmp_path):
    """Hive-partitioned read-back (curate's consumption layout): the
    schema can't be pre-computed, the strip stage still applies."""
    import ray

    src = pa.Table.from_pandas(
        pd.DataFrame({"k": [1, 2, 3, 4], "lang": ["en", "en", "de", "de"]})
    )
    ray.data.from_arrow(src).write_parquet(str(tmp_path), partition_cols=["lang"])
    ds = read_parquet_clean(str(tmp_path))
    rows = 0
    for batch in ds.iter_batches(batch_size=256, batch_format="pyarrow"):
        _assert_hashable(batch.schema, "partitioned read block")
        rows += batch.num_rows
    assert rows == 4


def test_kernel_outputs_hashable():
    """from_pandas-based kernels must not reintroduce metadata."""
    from tilecloud_chain_ray.stages.curation import grouped_quantiles  # noqa: F401
    from tilecloud_chain_ray.stages.scan import pack_shards  # noqa: F401

    df = pd.DataFrame({"z": [0, 0, 1], "tx": [1, 1, 2], "ty": [3, 3, 4]})
    out = pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
    _assert_hashable(out.schema, "from_pandas kernel output")
