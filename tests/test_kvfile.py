"""Single-file KV tile store (the bsddb cache-type analog,
reference ``__init__.py:1402-1430`` / ``USAGE.rst:62-66``): KV
semantics, crash recovery, reopen-append, and pipeline roundtrip parity
with the WMTS filesystem layout."""

import glob
import os
import struct

import pytest

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.geom import MultiPoint, Point
from tilecloud_chain_ray.grid import SWISSGRID_5
from tilecloud_chain_ray.sinks.kvfile import (
    _FOOTER_MAGIC,
    KVFile,
    KVFileStore,
    to_dataset,
    write_kvfile,
)


def test_kvfile_put_get_delete_overwrite(tmp_path):
    path = str(tmp_path / "t.kv")
    kv = KVFile(path)
    kv.put(b"a", b"1")
    kv.put(b"b", b"22")
    kv.put(b"a", b"333")  # last write wins
    kv.delete(b"b")
    assert kv.get(b"a") == b"333" and kv.get(b"b") is None
    assert b"a" in kv and b"b" not in kv and len(kv) == 1
    kv.close()
    # reopen from the persisted index
    kv = KVFile(path, read_only=True)
    assert kv.get(b"a") == b"333" and len(kv) == 1
    with pytest.raises(OSError):
        kv.put(b"x", b"y")
    kv.close()


def test_kvfile_crash_recovery(tmp_path):
    """Strip the footer (simulated writer crash) -> log scan recovers
    every committed record; a torn tail record is dropped."""
    path = str(tmp_path / "t.kv")
    kv = KVFile(path)
    for i in range(100):
        kv.put(f"k{i}".encode(), bytes([i]) * (i % 7 + 1))
    kv.delete(b"k7")
    kv.close()
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        fh.seek(size - 16)
        (index_off,) = struct.unpack("<Q", fh.read(8))
        assert fh.read(8) == _FOOTER_MAGIC
    # crash 1: footer + index gone entirely
    with open(path, "r+b") as fh:
        fh.truncate(index_off)
    kv = KVFile(path, read_only=True)
    assert len(kv) == 99 and kv.get(b"k7") is None
    assert kv.get(b"k99") == bytes([99]) * (99 % 7 + 1)
    kv.close()
    # crash 2: additionally tear the last record (the k7 tombstone)
    # mid-bytes — the torn, uncommitted op is dropped, committed puts
    # all survive
    with open(path, "r+b") as fh:
        fh.truncate(index_off - 3)
    kv = KVFile(path)
    assert len(kv) == 100 and kv.get(b"k7") is not None
    kv.close()


def test_kvfile_reopen_append(tmp_path):
    path = str(tmp_path / "t.kv")
    kv = KVFile(path)
    kv.put(b"a", b"1")
    kv.close()
    kv = KVFile(path)  # "c" mode: open existing for write
    kv.put(b"b", b"2")
    kv.close()
    kv = KVFile(path, read_only=True)
    assert kv.get(b"a") == b"1" and kv.get(b"b") == b"2" and len(kv) == 2
    kv.close()


def test_kvfile_crash_after_reopen_put(tmp_path):
    """The recovery contract must hold for a writer that REOPENED an
    existing file: the stale footer is invalidated on open, so a crash
    right after a put() (simulated by never calling close()) falls back
    to the log scan instead of loading an index whose offsets point into
    overwritten record bytes."""
    path = str(tmp_path / "t.kv")
    kv = KVFile(path)
    for i in range(50):
        kv.put(f"k{i}".encode(), b"v" * 40)
    kv.close()
    kv = KVFile(path)  # reopen for write — must truncate the stale footer
    kv.put(b"new1", b"A" * 8)  # short record: old footer would survive past it
    del kv  # crash: no close(), no fresh footer written
    rec = KVFile(path, read_only=True)
    assert len(rec) == 51
    assert rec.get(b"new1") == b"A" * 8 and rec.get(b"k49") == b"v" * 40
    rec.close()


def test_store_metadata_and_tiles(tmp_path):
    st = KVFileStore(str(tmp_path / "t.kv"))
    st.set_metadata(name="layer1", format="png")
    st.put_many([(3, 58, 70, b"png1"), (0, 5, 7, b"png0")])
    assert st.get(3, 58, 70) == b"png1" and st.get(1, 1, 1) is None
    assert st.count() == 2 and st.metadata() == {"name": "layer1", "format": "png"}
    batches = list(st.iter_tiles())
    st.close()
    assert sum(b.num_rows for b in batches) == 2
    first = batches[0].to_pylist()[0]
    assert (first["z"], first["x"], first["y"]) == (0, 5, 7)  # (z,x,y) order


@pytest.fixture(scope="module")
def generated(ray_session, tmp_path_factory):
    from tilecloud_chain_ray.pipelines.generate import generate_tiles

    out = tmp_path_factory.mktemp("kvf")
    layer = Layer(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(MultiPoint((Point(600000, 200000), Point(530000, 150000))),),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )
    wmts = str(out / "wmts")
    result = generate_tiles(layer, out_wmts=wmts)
    kv_path = str(out / "tiles.kv")
    n = write_kvfile(result.tiles, kv_path, layer=layer)
    return layer, wmts, kv_path, n


def test_pipeline_roundtrip_matches_wmts(generated):
    layer, wmts, kv_path, n = generated
    assert n == 8  # the stored golden set

    by_coord = {}
    for path in glob.glob(os.path.join(wmts, "**", "*.png"), recursive=True):
        matrix, row, col = path.split(os.sep)[-3:]
        z = next(z for z in layer.grid.zooms() if layer.grid.matrix_id(z) == matrix)
        with open(path, "rb") as fh:
            by_coord[(z, int(col.split(".")[0]), int(row))] = fh.read()
    assert len(by_coord) == 8

    st = KVFileStore(kv_path, read_only=True)
    assert st.count() == 8 and st.metadata()["name"] == "point_hash"
    for (z, x, y), data in by_coord.items():
        assert st.get(z, x, y) == data  # byte-identical vs the layout
    st.close()

    ds = to_dataset(kv_path)
    rows = {(r["z"], r["x"], r["y"]): r["data"] for r in ds.take_all()}
    assert rows == by_coord
