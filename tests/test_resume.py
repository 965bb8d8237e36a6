"""Lineage + resume: kill a partition, resume, nothing recomputed."""

import os

import pytest

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.geom import MultiPoint, Point
from tilecloud_chain_ray.grid import SWISSGRID_5
from tilecloud_chain_ray.pipelines.resumable import (
    generate_resumable,
    plan_partitions,
    read_tiles,
)
from tilecloud_chain_ray.sinks import lineage as lin

POINTS = MultiPoint((Point(600000, 200000), Point(530000, 150000)))


def layer():
    return Layer(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(POINTS,),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )


def test_plan_is_deterministic():
    p1 = plan_partitions(layer(), max_coords_per_partition=4)
    p2 = plan_partitions(layer(), max_coords_per_partition=4)
    assert len(p1) == len(p2) > 1
    for a, b in zip(p1, p2):
        assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
def test_fail_then_resume(tmp_path):
    out = str(tmp_path / "pyramid")
    lay = layer()

    # run with an injected failure in partition 0
    s1 = generate_resumable(lay, out, max_coords_per_partition=4, fail_partitions={0})
    assert s1["partitions_error"] == 1
    n_parts = s1["partitions_total"]
    assert s1["partitions_done"] == n_parts - 1

    done_before = lin.done_partitions(out)
    finish_times = {
        pid: rec.finished_at for pid, rec in lin.load_records(out).items() if rec.status == "done"
    }

    # resume: only the failed partition runs
    s2 = generate_resumable(lay, out, max_coords_per_partition=4)
    assert s2["partitions_skipped"] == n_parts - 1
    assert s2["partitions_done"] == n_parts
    assert s2["partitions_error"] == 0
    after = lin.load_records(out)
    for pid in done_before:
        assert after[pid].finished_at == finish_times[pid], "completed partition re-ran"

    # final result equals the golden full-run counters
    assert s2["tiles_generated"] == 384
    assert s2["tiles_dropped"] == 376
    assert s2["tiles_stored"] == 8
    assert s2["metatiles_generated"] == 10
    assert s2["metatiles_dropped"] == 4

    tiles = read_tiles(out)
    stored = [r for r in tiles.take_all() if r["status"] == "stored"]
    assert {(r["z"], r["y"], r["x"]) for r in stored} == {
        (0, 5, 7),
        (0, 7, 4),
        (1, 11, 14),
        (1, 15, 8),
        (2, 29, 35),
        (2, 39, 21),
        (3, 58, 70),
        (3, 78, 42),
    }


@pytest.mark.usefixtures("ray_session")
def test_density_resumable(tmp_path):
    """Two-phase checkpointed density job: kill one shard, resume,
    phase-1 partials are never recomputed; cell ranges in lineage."""
    from tilecloud_chain_ray.config import Layer
    from tilecloud_chain_ray.grid import WEBMERC
    from tilecloud_chain_ray.pipelines.density_resumable import density_resumable
    from tilecloud_chain_ray.sources.pages import synthesize_pages

    pages = str(tmp_path / "pages")
    synthesize_pages(pages, 3000, avg_html=128, rows_per_file=500)  # 6 shards
    out = str(tmp_path / "density")
    lay = Layer(name="pages_density", grid=WEBMERC, meta=False)

    tiles, s1 = density_resumable(
        pages, lay, out, zooms=(0, 1, 2), cell_res=12, fail_partitions={2}
    )
    assert tiles is None
    assert s1["partitions_error"] == 1 and s1["partitions_done"] == 5

    import os as _os
    partials_dir = _os.path.join(out, "partials")
    finish = {
        pid: r.finished_at
        for pid, r in lin.load_records(partials_dir).items()
        if r.status == "done"
    }

    tiles, s2 = density_resumable(pages, lay, out, zooms=(0, 1, 2), cell_res=12)
    assert s2["partitions_skipped"] == 5 and s2["partitions_error"] == 0
    after = lin.load_records(partials_dir)
    for pid, t in finish.items():
        assert after[pid].finished_at == t, "phase-1 shard re-ran"
        assert after[pid].cell_range is not None
        assert after[pid].input_rows == 500

    rows = tiles.take_all()
    assert len(rows) > 0
    # z0 single world tile counts every page
    z0 = [r for r in rows if r["z"] == 0]
    assert len(z0) == 1 and z0[0]["status"] == "stored"


@pytest.mark.usefixtures("ray_session")
def test_density_resumable_rejects_too_fine_zoom(tmp_path):
    """Guard: zoom+8 > cell_res must raise, not silently corrupt counts."""
    from tilecloud_chain_ray.config import Layer
    from tilecloud_chain_ray.grid import WEBMERC
    from tilecloud_chain_ray.pipelines.density_resumable import density_resumable
    from tilecloud_chain_ray.sources.pages import synthesize_pages

    pages = str(tmp_path / "pages")
    synthesize_pages(pages, 200, avg_html=64, rows_per_file=200)
    lay = Layer(name="pages_density", grid=WEBMERC, meta=False)
    with pytest.raises(ValueError):
        density_resumable(
            pages, lay, str(tmp_path / "d"), zooms=(0, 7), cell_res=12
        )


@pytest.mark.usefixtures("ray_session")
def test_density_pyramid_out_wmts(tmp_path, count_executions, map_operators):
    """density_pyramid(out_wmts=...) writes a WMTS layout a tile can be
    read back from (regression: missing process_cached import).  It
    renders, hash-drops and writes inside the call, which is one Ray
    Data execution (the fused read -> geocode -> partials) with the
    default summary; consuming the tiles is one more execution with no
    map operator, and it rewrites no stored tile."""
    import ray

    from tilecloud_chain_ray.config import Layer
    from tilecloud_chain_ray.grid import WEBMERC
    from tilecloud_chain_ray.pipelines.density import density_pyramid
    from tilecloud_chain_ray.server import get_tile_fs
    from tilecloud_chain_ray.stages.geocode import make_geocoder

    docs = ray.data.range(2000).map_batches(
        lambda b: b.rename_columns(["doc_id"]), batch_format="pyarrow"
    ).map_batches(
        make_geocoder(WEBMERC.bbox, "doc_id", cell_res=12), batch_format="pyarrow"
    )
    lay = Layer(name="doc_density", grid=WEBMERC, meta=False)
    wmts = str(tmp_path / "wmts")

    def stamps() -> dict:
        return {
            os.path.join(d, f): os.stat(os.path.join(d, f)).st_mtime_ns
            for d, _, names in os.walk(wmts)
            for f in names
        }

    with count_executions() as calls:
        result = density_pyramid(docs, lay, zooms=[0, 1], out_wmts=wmts)
    assert len(calls) == 1
    written = stamps()
    assert written and result.summary["tiles_stored"] == len(written)

    with count_executions() as calls:
        stored = [r for r in result.tiles.take_all() if r["status"] == "stored"]
    assert len(calls) == 1 and map_operators(calls[0]) == []
    assert stamps() == written and len(stored) == len(written)
    resp = get_tile_fs(wmts, lay, 0, 0, 0)
    assert resp.status == 200 and resp.data and resp.data[:8] == b"\x89PNG\r\n\x1a\n"


@pytest.mark.usefixtures("ray_session")
def test_curate_resumable_fail_then_resume(tmp_path):
    """Kill one input shard of the curation chain mid-run; the resume
    must skip committed shards (unchanged lineage timestamps, raw text
    never re-read) and produce exactly the streaming curate_corpus
    result."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    from tilecloud_chain_ray.pipelines.curate import curate_corpus
    from tilecloud_chain_ray.pipelines.curate_resumable import curate_resumable
    from tilecloud_chain_ray.stages.curation import benchmark_shingles

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                        columns=["doc_id", "lang", "text"])
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    n = src.num_rows
    step = (n + 3) // 4
    for i in range(4):
        pq.write_table(src.slice(i * step, step), str(shard_dir / f"docs_{i}.parquet"))

    docs = ray.data.read_parquet(str(shard_dir))
    bench = benchmark_shingles(docs, max_key=5)
    kw = dict(quality_min=0.4, bench_shingles=bench, sample_rates=0.8,
              shard_budget=1500, shard_bucket_size=64)

    out = str(tmp_path / "curated")
    r1, s1 = curate_resumable(str(shard_dir), out, fail_partitions={1}, **kw)
    assert r1 is None
    assert s1["partitions_error"] == 1 and s1["partitions_done"] == 3

    from tilecloud_chain_ray.sinks import lineage as lin
    partials_dir = f"{out}/filtered"
    finish_before = {
        pid: rec.finished_at
        for pid, rec in lin.load_records(partials_dir).items()
        if rec.status == "done"
    }

    r2, s2 = curate_resumable(str(shard_dir), out, **kw)
    assert s2["partitions_skipped"] == 3
    assert s2["partitions_done"] == 4 and s2["partitions_error"] == 0
    finish_after = {
        pid: rec.finished_at
        for pid, rec in lin.load_records(partials_dir).items()
        if rec.status == "done"
    }
    for pid, t in finish_before.items():
        assert finish_after[pid] == t, f"shard {pid} was recomputed"

    # result equals the streaming (non-checkpointed) chain exactly
    direct = curate_corpus(docs, **kw)
    want = direct.survivors.to_pandas().sort_values("doc_id").reset_index(drop=True)
    got = r2.survivors.to_pandas().sort_values("doc_id").reset_index(drop=True)
    cols = ["doc_id", "lang", "n_tokens", "quality", "text"]
    pd.testing.assert_frame_equal(got[cols], want[cols], check_dtype=False)
    # shard packing ran over the committed corpus
    assert r2.shards is not None
    ws = direct.shards.to_pandas().sort_values("doc_id").reset_index(drop=True)
    gs = r2.shards.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        gs[["doc_id", "shard"]], ws[["doc_id", "shard"]], check_dtype=False
    )
    # a second resume with everything done only re-runs phase 2
    r3, s3 = curate_resumable(str(shard_dir), out, **kw)
    assert s3["partitions_skipped"] == 4
    g3 = r3.survivors.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g3[cols], want[cols], check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_curate_resumable_near_dedup_equals_streaming(tmp_path):
    """Near-dedup in the checkpointed chain: a kill-and-resume run
    produces exactly the streaming curate_corpus(near_dedup) corpus —
    the pair/cluster/min-key chain is deterministic over committed
    phase-1 partials, so resume never changes the drop set."""
    import pyarrow.parquet as pq
    import ray

    from tilecloud_chain_ray.pipelines.curate import curate_corpus
    from tilecloud_chain_ray.pipelines.curate_resumable import curate_resumable

    src = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    n = src.num_rows
    step = (n + 2) // 3
    for i in range(3):
        pq.write_table(src.slice(i * step, step), str(shard_dir / f"docs_{i}.parquet"))

    kw = dict(quality_min=0.0, near_dedup_threshold=0.8)
    out = str(tmp_path / "curated")
    r1, s1 = curate_resumable(str(shard_dir), out, fail_partitions={2}, **kw)
    assert r1 is None and s1["partitions_error"] == 1
    r2, s2 = curate_resumable(str(shard_dir), out, **kw)
    assert s2["partitions_skipped"] == 2 and s2["partitions_error"] == 0

    stream = curate_corpus(
        ray.data.read_parquet(str(shard_dir)), **kw
    ).survivors.to_pandas()
    resumed = r2.survivors.to_pandas()
    assert set(resumed["doc_id"]) == set(stream["doc_id"])
    assert len(resumed) < src.num_rows  # near-dups actually dropped


@pytest.mark.usefixtures("ray_session")
def test_curate_resumable_substring_equals_streaming(tmp_path):
    """ExactSubstr in the checkpointed chain: phase 0 commits the span
    table once (atomic rename), a kill-and-resume run reuses it
    (unchanged mtime — the corpus is never re-fingerprinted) and
    produces exactly the streaming curate_corpus(substring_k) corpus,
    text byte-equal."""
    import os

    import pyarrow.parquet as pq
    import ray

    from tilecloud_chain_ray.pipelines.curate import curate_corpus
    from tilecloud_chain_ray.pipelines.curate_resumable import curate_resumable

    src = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    step = (src.num_rows + 2) // 3
    for i in range(3):
        pq.write_table(src.slice(i * step, step), str(shard_dir / f"docs_{i}.parquet"))

    kw = dict(quality_min=0.0, substring_k=8, substring_winnow=None)
    out = str(tmp_path / "curated")
    r1, s1 = curate_resumable(str(shard_dir), out, fail_partitions={1}, **kw)
    assert r1 is None and s1["partitions_error"] == 1
    spans_dir = os.path.join(out, "spans")
    assert os.path.isdir(spans_dir)
    mtime_before = os.path.getmtime(spans_dir)

    r2, s2 = curate_resumable(str(shard_dir), out, **kw)
    assert s2["partitions_skipped"] == 2 and s2["partitions_error"] == 0
    assert os.path.getmtime(spans_dir) == mtime_before  # spans reused, not recomputed

    stream = curate_corpus(
        ray.data.read_parquet(str(shard_dir)),
        quality_min=0.0,
        substring_k=8,
        substring_winnow=None,
    ).survivors.to_pandas()
    resumed = r2.survivors.to_pandas()
    got = resumed.sort_values("doc_id").reset_index(drop=True)
    want = stream.sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["text"].tolist() == want["text"].tolist()
    # the cut actually changed text for at least one survivor
    raw = {k: t for k, t in zip(src["doc_id"].to_pylist(), src["text"].to_pylist())}
    assert any(raw[k] != t for k, t in zip(got["doc_id"], got["text"]))


@pytest.mark.usefixtures("ray_session")
def test_curate_resumable_shard_set_changes(tmp_path):
    """Resume identity is the shard PATH, not its sorted position:
    adding a shard that sorts FIRST and removing another between runs
    must neither reprocess committed shards nor leak stale partials from
    the removed shard into the phase-2 corpus."""
    import pyarrow.parquet as pq
    import ray

    from tilecloud_chain_ray.pipelines.curate import curate_corpus
    from tilecloud_chain_ray.pipelines.curate_resumable import curate_resumable
    from tilecloud_chain_ray.sinks import lineage as lin

    src = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    step = (src.num_rows + 3) // 4
    parts = [src.slice(i * step, step) for i in range(4)]
    # run 1 over shards b,c,d (a held back so it later sorts before them)
    for name, t in zip(["b", "c", "d"], parts[:3]):
        pq.write_table(t, str(shard_dir / f"docs_{name}.parquet"))

    kw = dict(quality_min=0.4)
    out = str(tmp_path / "curated")
    r1, s1 = curate_resumable(str(shard_dir), out, **kw)
    assert s1["partitions_done"] == 3 and s1["partitions_error"] == 0

    partials_dir = f"{out}/filtered"
    finish_before = {
        pid: rec.finished_at for pid, rec in lin.load_records(partials_dir).items()
    }

    # mutate the shard set: add docs_a (sorts first, shifting every
    # positional id) and remove docs_d entirely
    pq.write_table(parts[3], str(shard_dir / "docs_a.parquet"))
    (shard_dir / "docs_d.parquet").unlink()

    r2, s2 = curate_resumable(str(shard_dir), out, **kw)
    assert s2["partitions_total"] == 3
    assert s2["partitions_skipped"] == 2, "committed b,c must be skipped"
    assert s2["partitions_done"] == 3 and s2["partitions_error"] == 0
    finish_after = lin.load_records(partials_dir)
    for pid, t in finish_before.items():
        assert finish_after[pid].finished_at == t, "committed shard was recomputed"

    # phase-2 corpus == streaming run over the CURRENT shard list (a,b,c):
    # docs_d's stale partial must not leak in
    current = [str(shard_dir / f"docs_{n}.parquet") for n in ["a", "b", "c"]]
    stream = curate_corpus(ray.data.read_parquet(current), **kw).survivors.to_pandas()
    resumed = r2.survivors.to_pandas()
    assert set(resumed["doc_id"]) == set(stream["doc_id"])


def _density_rows(tiles):
    return sorted((r["z"], r["x"], r["y"], r["status"], r["data"]) for r in tiles.take_all())


@pytest.mark.usefixtures("ray_session")
def test_density_resumable_shard_set_changes(tmp_path):
    """Resume identity is the shard PATH, not its sorted position:
    adding a shard that sorts FIRST and removing another between runs
    must neither reprocess committed shards nor leak the removed
    shard's partial into phase 2."""
    import shutil

    from tilecloud_chain_ray.config import Layer
    from tilecloud_chain_ray.grid import WEBMERC
    from tilecloud_chain_ray.pipelines.density_resumable import density_resumable
    from tilecloud_chain_ray.sources.pages import synthesize_pages

    pages = tmp_path / "pages"
    synthesize_pages(str(pages), 2000, avg_html=64, rows_per_file=500)  # 4 shards
    shards = sorted(pages.iterdir())
    held = tmp_path / shards[0].name
    shutil.move(str(shards[0]), str(held))  # run 1 without the first shard
    lay = Layer(name="pages_density", grid=WEBMERC, meta=False)
    kw = dict(zooms=(0, 1, 2), cell_res=12)
    out = str(tmp_path / "density")
    _, s1 = density_resumable(str(pages), lay, out, **kw)
    assert s1["partitions_done"] == 3 and s1["partitions_error"] == 0
    partials_dir = os.path.join(out, "partials")
    finish_before = {pid: r.finished_at for pid, r in lin.load_records(partials_dir).items()}

    shutil.move(str(held), str(shards[0]))  # sorts before every committed shard
    shards[-1].unlink()
    tiles, s2 = density_resumable(str(pages), lay, out, **kw)
    assert s2["partitions_total"] == 3
    assert s2["partitions_skipped"] == 2, "the two committed shards left must be skipped"
    assert s2["partitions_done"] == 3 and s2["partitions_error"] == 0
    after = lin.load_records(partials_dir)
    for pid, t in finish_before.items():
        assert after[pid].finished_at == t, "committed shard was recomputed"

    fresh, _ = density_resumable(str(pages), lay, str(tmp_path / "fresh"), **kw)
    assert _density_rows(tiles) == _density_rows(fresh)


@pytest.mark.usefixtures("ray_session")
def test_density_resumable_equals_streaming(tmp_path):
    """The checkpointed pyramid (one injected failure, then a resume)
    and the streaming density_pyramid share the pixel kernel and the
    tail: identical (z, x, y, status, data) rows."""
    from tilecloud_chain_ray.config import Layer
    from tilecloud_chain_ray.grid import WEBMERC
    from tilecloud_chain_ray.pipelines.density import density_pyramid
    from tilecloud_chain_ray.pipelines.density_resumable import density_resumable
    from tilecloud_chain_ray.sources.pages import synthesize_pages
    from tilecloud_chain_ray.stages.geocode import make_geocoder
    from tilecloud_chain_ray.util import read_parquet_clean

    pages = str(tmp_path / "pages")
    synthesize_pages(pages, 1500, avg_html=64, rows_per_file=500)  # 3 shards
    lay = Layer(name="pages_density", grid=WEBMERC, meta=False)
    kw = dict(zooms=(0, 1, 2, 3), cell_res=12)
    out = str(tmp_path / "density")
    tiles, s1 = density_resumable(pages, lay, out, fail_partitions={1}, **kw)
    assert tiles is None and s1["partitions_error"] == 1
    tiles, s2 = density_resumable(pages, lay, out, **kw)
    assert s2["partitions_skipped"] == 2 and s2["partitions_error"] == 0

    geocoded = read_parquet_clean(pages, columns=["url"]).map_batches(
        make_geocoder(WEBMERC.bbox, "url", 12), batch_format="pyarrow"
    )
    stream = density_pyramid(geocoded, lay, zooms=list(kw["zooms"]), with_summary=False)
    assert _density_rows(tiles) == _density_rows(stream.tiles)
