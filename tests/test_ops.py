"""Operator tests: dedup family, kNN, text, cost, expire, copy,
tiles-file source, multimodal stages."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.grid import SWISSGRID_5
from tilecloud_chain_ray.pipelines.cost import estimate_cost, geometry_area
from tilecloud_chain_ray.pipelines.expire import merge_tile_runs, union_area_of_boxes
from tilecloud_chain_ray.geom import Polygon, box
from tilecloud_chain_ray.stages import dedup as dd
from tilecloud_chain_ray.stages import knn as knn_mod
from tilecloud_chain_ray.stages.multimodal import (
    FrameSampler,
    MediaDecoder,
    MediaResizer,
    synthesize_media,
)


def docs_with_dups(n=200, dup_every=10):
    texts = []
    for i in range(n):
        if i >= dup_every and i % dup_every == 0:
            texts.append(texts[i - dup_every])
        else:
            rng = np.random.default_rng(1000 + i)
            texts.append(" ".join(f"w{v}" for v in rng.integers(0, 500, 60)))
    return pa.Table.from_pydict({"doc_id": list(range(n)), "text": texts})


@pytest.mark.usefixtures("ray_session")
def test_exact_dedup_finds_planted():
    table = docs_with_dups()
    ds = ray.data.from_arrow(table)
    out = dd.exact_dedup(ds).to_pandas()
    dups = out[out["dup_count"] > 1]
    # the planted copies chain (20 copies 10 which copies 0): one group
    # of all multiples of 10, surviving under the smallest doc_id
    assert len(dups) == 1
    assert dups["dup_count"].iloc[0] == 20
    assert dups["keep_key"].iloc[0] == 0
    assert len(out) == 200 - 19  # 181 distinct texts


@pytest.mark.usefixtures("ray_session")
def test_exact_dedup_counts_null_key_rows():
    # dup_count is the number of rows with the text, null keys included
    table = pa.table(
        {
            "doc_id": pa.array([None, 4, None, 7, 9], pa.int64()),
            "text": ["same", "same", "same", "other", "other"],
        }
    )
    out = dd.exact_dedup(ray.data.from_arrow(table)).to_pandas()
    counts = dict(zip(out["keep_key"], out["dup_count"]))
    assert counts == {4: 3, 7: 2}
    assert out["dup_count"].sum() == table.num_rows


@pytest.mark.usefixtures("ray_session")
def test_distributed_pair_paths_without_pairs(on_cluster):
    # no candidate pairs anywhere: the pair-dedup exchange gets a
    # schema-less empty input and must still return typed empty pairs
    banded = ray.data.from_arrow(
        pa.table({"key": [0, 0], "band": [0, 1], "band_hash": [0, 0]})
    )
    assert dd._expand_hot_bucket_pairs(banded).count() == 0
    hashed = ray.data.from_arrow(
        pa.table({"doc_id": [1, 2], "simhash": pa.array([0, (1 << 62) - 1], pa.int64())})
    )
    with on_cluster():
        assert dd.hamming_blocked_pairs(hashed).count() == 0


@pytest.mark.usefixtures("ray_session")
def test_minhash_finds_exact_dups():
    table = docs_with_dups()
    ds = ray.data.from_arrow(table)
    verified = dd.minhash_dedup_pairs(ds, threshold=0.99).to_pandas()
    got = {(a, b) for a, b in zip(verified["key_a"], verified["key_b"])}
    expected = {(i - 10, i) for i in range(10, 200, 10)}
    assert expected <= got


@pytest.mark.usefixtures("ray_session")
def test_minhash_distributed_path_matches_driver(on_cluster):
    """The bucketed sig-join verify must produce the same verified
    pairs and Jaccard as the driver verify (no take_all on a
    duplication-proportional dataset)."""
    table = docs_with_dups()
    ds = ray.data.from_arrow(table)
    fast = dd.minhash_dedup_pairs(ds, threshold=0.8).to_pandas()
    with on_cluster():
        dist = dd.minhash_dedup_pairs(ds, threshold=0.8).to_pandas()
    fp = {(a, b) for a, b in zip(fast["key_a"], fast["key_b"])}
    dp = {(a, b) for a, b in zip(dist["key_a"], dist["key_b"])}
    assert fp == dp and len(fp) > 0
    fj = dict(zip(zip(fast["key_a"], fast["key_b"]), fast["jaccard"]))
    dj = dict(zip(zip(dist["key_a"], dist["key_b"]), dist["jaccard"]))
    for k in fp:
        assert abs(fj[k] - dj[k]) < 1e-12


@pytest.mark.usefixtures("ray_session")
def test_verify_jaccard_distributed_matches_broadcast(on_cluster):
    """The two verify placements of ``minhash_dedup_pairs`` agree at a
    second threshold, on an input read as several blocks."""
    table = docs_with_dups()
    ds = ray.data.from_arrow(table).repartition(3).materialize()
    broad = dd.minhash_dedup_pairs(ds, threshold=0.9).to_pandas()
    with on_cluster():
        dist = dd.minhash_dedup_pairs(ds, threshold=0.9).to_pandas()
    bp = {(a, b) for a, b in zip(broad["key_a"], broad["key_b"])}
    dp = {(a, b) for a, b in zip(dist["key_a"], dist["key_b"])}
    assert bp == dp and len(bp) > 0


@pytest.mark.usefixtures("ray_session")
def test_verify_jaccard_distributed_dup_heavy(on_cluster):
    """Dup-heavy corpus (~60% planted copies across 30k docs) through
    the distributed verify leg: the vectorized combine_bucket (one
    lexsort over concatenated sig buffers, no per-pair Python) must
    agree with a direct per-pair Jaccard and finish in seconds."""
    import time

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    rng = np.random.default_rng(3)
    n_base, copies = 12_000, 18_000
    base = [
        " ".join(rng.choice(["alpha", "beta", "gamma", "delta", "eps"], 12))
        for _ in range(n_base)
    ]
    src = rng.integers(0, n_base, copies)
    texts = base + [base[i] for i in src]
    ids = np.arange(len(texts), dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.Table.from_pydict({"doc_id": pa.array(ids), "text": pa.array(texts)})
    ).repartition(8)
    verified = []
    orig = dd._verify_pairs_distributed

    def spy(*a, **k):
        verified.append(True)
        return orig(*a, **k)

    t0 = time.perf_counter()
    with on_cluster(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(dd, "_verify_pairs_distributed", spy)
        dist = dd.minhash_dedup_pairs(ds, threshold=0.99).to_pandas()
    elapsed = time.perf_counter() - t0
    assert verified, "the dup-heavy case must verify on the cluster"
    assert elapsed < 120, f"minhash_dedup_pairs took {elapsed:.1f}s"
    # every planted (source, copy) pair with distinct texts verifies at 1.0
    pairs = {(a, b) for a, b in zip(dist["key_a"], dist["key_b"])}
    sample = [(int(min(s, n_base + j)), int(max(s, n_base + j)))
              for j, s in enumerate(src[:200])]
    for a, b in sample:
        assert (a, b) in pairs
    assert (dist["jaccard"] >= 0.99).all()


def test_candidate_rules_repeated_keys_and_max_bucket(caplog):
    """The one candidate kernel: a key repeated in a run never pairs
    with itself, its pair with another key is reported once, keys come
    out as key_a < key_b, and ``max_bucket`` counts the rows of a run
    (repeated keys included), skipping a larger run with a warning."""
    import logging

    batch = pa.table(
        {
            "key": pa.array([7, 3, 7, 9, 9, 4, 4, 5], pa.int64()),
            "band": pa.array([0, 0, 0, 1, 1, 2, 2, 2], pa.int32()),
            "band_hash": pa.array([5, 5, 5, 6, 6, 8, 8, 8], pa.int64()),
        }
    )
    with caplog.at_level(logging.WARNING, logger=dd.logger.name):
        got = dd._bucket_run_pairs(batch, max_bucket=10).to_pylist()
    assert not caplog.records
    # run (0, 5) = {7, 3, 7}; run (1, 6) = {9, 9}; run (2, 8) = {4, 4, 5}
    assert sorted((r["key_a"], r["key_b"]) for r in got) == [(3, 7), (4, 5)]
    assert all(r["key_a"] < r["key_b"] for r in got)

    with caplog.at_level(logging.WARNING, logger=dd.logger.name):
        got = dd._bucket_run_pairs(batch, max_bucket=2).to_pylist()
    # both 3-row runs are skipped although each has only 2 distinct keys
    assert got == []
    assert "max_bucket=2" in caplog.text and "NOT reported" in caplog.text


@pytest.mark.usefixtures("ray_session")
def test_minhash_dedup_pairs_repeated_keys_and_max_bucket():
    """End to end: repeated doc keys give no self-pair and one row per
    pair, and identical texts above ``max_bucket`` rows give no pair."""
    texts = ["a b c d e f g"] * 3 + ["p q r s t u v"] * 2
    ds = ray.data.from_arrow(pa.table({"doc_id": [1, 1, 2, 5, 6], "text": texts}))
    got = dd.minhash_dedup_pairs(ds).to_pandas()
    assert sorted(zip(got["key_a"], got["key_b"])) == [(1, 2), (5, 6)]
    assert (got["jaccard"] == 1.0).all()
    got = dd.minhash_dedup_pairs(ds, max_bucket=2).to_pandas()
    assert sorted(zip(got["key_a"], got["key_b"])) == [(5, 6)]


@pytest.mark.usefixtures("ray_session")
def test_minhash_dedup_pairs_empty_input():
    empty = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    )
    out = dd.minhash_dedup_pairs(empty)
    assert out.count() == 0
    assert out.schema().names == ["key_a", "key_b", "jaccard"]


@pytest.mark.usefixtures("ray_session")
def test_minhash_verify_placed_by_candidate_universe(monkeypatch):
    """The verify runs on the driver while two 4 KiB shingle sets per
    candidate pair fit ``util.DRIVER_MAX_BYTES`` and on the cluster
    one byte beyond, with the same pairs either way."""
    from tilecloud_chain_ray import util

    ds = ray.data.from_arrow(docs_with_dups()).materialize()
    n_cand = dd._expand_hot_bucket_pairs(
        ds.map_batches(lambda b: dd._band_cached(b, "doc_id", "text", 64, 16), batch_format="pyarrow")
    ).count()
    assert n_cand > 0
    placed = []
    orig_driver, orig_cluster = dd._pair_jaccard_refs, dd._verify_pairs_distributed

    def driver(*a, **k):
        placed.append("driver")
        return orig_driver(*a, **k)

    def cluster(*a, **k):
        placed.append("cluster")
        return orig_cluster(*a, **k)

    monkeypatch.setattr(dd, "_pair_jaccard_refs", driver)
    monkeypatch.setattr(dd, "_verify_pairs_distributed", cluster)
    results = []
    for limit in (n_cand * 2 * 4096, n_cand * 2 * 4096 - 1):
        monkeypatch.setattr(util, "DRIVER_MAX_BYTES", limit)
        out = dd.minhash_dedup_pairs(ds).to_pandas()
        results.append(sorted(zip(out["key_a"], out["key_b"], out["jaccard"])))
    assert placed == ["driver", "cluster"]
    assert results[0] == results[1] and results[0]


@pytest.mark.usefixtures("ray_session")
def test_simhash_distributed_path_matches_driver(on_cluster):
    table = docs_with_dups(100)
    ds = ray.data.from_arrow(table)
    fast = dd.simhash_candidates(ds, max_hamming=3).to_pandas()
    with on_cluster():
        dist = dd.simhash_candidates(ds, max_hamming=3).to_pandas()
    fp = {(a, b, h) for a, b, h in zip(fast["key_a"], fast["key_b"], fast["hamming"])}
    dp = {(a, b, h) for a, b, h in zip(dist["key_a"], dist["key_b"], dist["hamming"])}
    assert fp == dp and len(fp) > 0


@pytest.mark.usefixtures("ray_session")
def test_hamming_hot_block_run_bounded(on_cluster):
    """A hot 16-bit block value (20k hashes sharing one quarter — the
    all-black-image shape) must complete in bounded memory/time via
    the chunked kernel and return exactly the planted near pairs."""
    import time

    import numpy as np

    from tilecloud_chain_ray.stages.dedup import hamming_blocked_pairs

    rng = np.random.default_rng(5)
    n = 20000
    # quarter 0 identical everywhere (the hot run); the other 48 bits
    # random -> expected hamming ~24 between random rows, far above 3
    hashes = (rng.integers(0, 1 << 48, n, dtype=np.uint64) << np.uint64(16)).astype(
        np.uint64
    )
    # plant 50 near pairs: copy with 2 flipped high bits
    for i in range(50):
        hashes[n - 50 + i] = hashes[i] ^ (np.uint64(0b101) << np.uint64(40))
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "simhash": pa.array(hashes.astype(np.int64), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(4)
    t0 = time.perf_counter()
    with on_cluster():
        pairs = hamming_blocked_pairs(ds, hash_col="simhash", max_hamming=3).to_pandas()
    wall = time.perf_counter() - t0
    got = {(a, b) for a, b in zip(pairs["key_a"], pairs["key_b"])}
    assert {(i, n - 50 + i) for i in range(50)} <= got
    # random 48-bit tails make accidental <=3 pairs vanishingly rare
    assert len(got) < 200
    assert wall < 120, wall


@pytest.mark.usefixtures("ray_session")
def test_simhash_finds_exact_dups():
    table = docs_with_dups(100)
    ds = ray.data.from_arrow(table)
    out = dd.simhash_candidates(ds, max_hamming=3).to_pandas()
    got = {(a, b) for a, b in zip(out["key_a"], out["key_b"])}
    expected = {(i - 10, i) for i in range(10, 100, 10)}
    assert expected <= got
    assert (out["hamming"] <= 3).all()


@pytest.mark.usefixtures("ray_session")
def test_knn_brute_exact():
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((200, 16)).astype(np.float32)
    table = pa.Table.from_pydict(
        {"vec_id": list(range(200)), "embedding": [v.tolist() for v in vecs]}
    )
    ds = ray.data.from_arrow(table)
    out = knn_mod.knn_brute(ds, vecs[:3].astype(np.float64), k=4, query_ids=np.arange(3))
    df = out.to_pandas()
    # brute-force reference
    v64 = vecs.astype(np.float64)
    v64 /= np.linalg.norm(v64, axis=1, keepdims=True)
    for qid in range(3):
        scores = v64 @ v64[qid]
        expect = np.argsort(-scores, kind="stable")[:4]
        got = df[df["query_id"] == qid].sort_values("rank")["vec_id"].to_numpy()
        assert got[0] == qid  # self is rank 1
        assert set(got) == set(expect)


def test_union_area_and_runs():
    boxes = np.array(
        [[0, 0, 2, 2], [1, 1, 3, 3], [10, 10, 11, 11]], dtype=np.float64
    )
    assert union_area_of_boxes(boxes) == pytest.approx(4 + 4 - 1 + 1)
    runs = merge_tile_runs(np.array([[1, 5], [2, 5], [3, 5], [5, 5], [1, 6]]))
    assert runs == [(5, 1, 3), (5, 5, 5), (6, 1, 1)]


def test_cost_estimator():
    poly = box(530000, 150000, 600000, 200000)
    assert geometry_area(poly) == pytest.approx(70000 * 50000)
    layer = Layer(name="polygon", grid=SWISSGRID_5, geometries=(poly,), meta=False)
    by_area = estimate_cost(layer, zooms=[0], algo="area")[0]
    by_count = estimate_cost(layer, zooms=[0], algo="count")[0]
    # z0 span 25600 -> area/tile^2 = 5.34 -> ~5; exact count = 12 (edge tiles)
    assert by_count.n_tiles == 12
    assert 4 <= by_area.n_tiles <= 12
    assert by_count.time_sec == pytest.approx(12 * 0.040)


@pytest.mark.usefixtures("ray_session")
def test_copy_cache_roundtrip(tmp_path):
    from tilecloud_chain_ray.geom import MultiPoint, Point
    from tilecloud_chain_ray.pipelines.copy_ import copy_cache, read_wmts_layout
    from tilecloud_chain_ray.pipelines.generate import generate_tiles

    layer = Layer(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(MultiPoint((Point(600000, 200000), Point(530000, 150000))),),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )
    src = str(tmp_path / "src")
    dst = str(tmp_path / "dst")
    generate_tiles(layer, out_wmts=src, concurrency=(1, 2))
    n = copy_cache(src, dst, layer, concurrency=(1, 2))
    assert n == 8
    back = read_wmts_layout(dst, layer)
    assert back.count() == 8
    rows = back.take_all()
    assert {(r["z"], r["y"], r["x"]) for r in rows} == {
        (0, 5, 7), (0, 7, 4), (1, 11, 14), (1, 15, 8),
        (2, 29, 35), (2, 39, 21), (3, 58, 70), (3, 78, 42),
    }


@pytest.mark.usefixtures("ray_session")
def test_tiles_file_source(tmp_path):
    from tilecloud_chain_ray.sources.tiles_file import tiles_file_dataset

    p = tmp_path / "error.list"
    p.write_text(
        "0/5/7\n"
        "3/58/70 layer=point_hash\n"
        "0/0/0:+8/+8# [2024-01-01] some error message\n"
        "\n"
    )
    ds = tiles_file_dataset(str(p), "point_hash", "swissgrid_5")
    rows = ds.take_all()
    # block scheduling does not guarantee row order -> compare as a set
    assert {(r["z"], r["x"], r["y"], r["n"]) for r in rows} == {
        (0, 5, 7, 1),
        (3, 58, 70, 1),
        (0, 0, 0, 8),
    }


def test_multimodal_stages():
    media = synthesize_media(20, kind="video")
    decoded = MediaDecoder("raw")(media)
    assert decoded.num_rows == 20
    assert "mean_intensity" in decoded.schema.names
    assert (decoded["decoded_h"].to_numpy() == media["meta_height"].to_numpy()).all()

    resized = MediaResizer(target=8)(media)
    assert (resized["meta_width"].to_numpy() == 8).all()
    d2 = MediaDecoder("raw")(resized)
    assert (d2["decoded_h"].to_numpy() == 8).all()

    frames = FrameSampler(n_frames=3)(media)
    assert frames.num_rows == 60
    assert frames["frame_ts_ms"].to_numpy().max() <= media["meta_duration_ms"].to_numpy().max()

    # mp3/mp4 demux + metadata decode are real (functions/mp3.py, mp4.py);
    # only the codec-proper steps remain stubbed behind explicit flags
    with pytest.raises(NotImplementedError):
        MediaDecoder("mp3", to_pcm=True)
    with pytest.raises(NotImplementedError):
        MediaDecoder("mp4", to_pixels=True)


def test_media_decoder_rejects_unknown_codec_message():
    with pytest.raises(NotImplementedError, match="codec"):
        MediaDecoder("webm")


@pytest.mark.usefixtures("ray_session")
def test_knn_lsh_recall():
    rng = np.random.default_rng(9)
    vecs = rng.standard_normal((1000, 32)).astype(np.float32)
    table = pa.Table.from_pydict(
        {"vec_id": list(range(1000)), "embedding": [v.tolist() for v in vecs]}
    )
    ds = ray.data.from_arrow(table)
    q = vecs[:5].astype(np.float64)
    brute = knn_mod.knn_brute(ds, q, k=5, query_ids=np.arange(5)).to_pandas()
    approx = knn_mod.knn_lsh(
        ds, q, k=5, query_ids=np.arange(5), n_planes=8, probe_hamming=2
    ).to_pandas()
    hits = 0
    for qid in range(5):
        b = set(brute[brute["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        assert qid in a  # self always survives (same bucket)
        hits += len(b & a)
    recall = hits / 25
    assert recall >= 0.4  # multi-probe recall on random gaussian data


@pytest.mark.usefixtures("ray_session")
def test_knn_input_without_blocks():
    """An input with no blocks reaches the top-k kernels as the
    exchange's zero-column probe: 0 rows back, not a KeyError."""
    from tilecloud_chain_ray.functions.cells import cell_id
    from tilecloud_chain_ray.grid import WEBMERC

    empty = ray.data.from_items([])
    qc = int(cell_id(np.array([3], np.uint64), np.array([5], np.uint64), 12)[0])
    assert knn_mod.knn_cell(empty, [qc], WEBMERC.bbox, k=2).count() == 0
    assert knn_mod.knn_lsh(empty, np.ones((2, 4)), k=2).count() == 0


@pytest.mark.usefixtures("ray_session")
def test_minhash_dedup_pairs_fast_path():
    """The driver verify finds every planted dup at Jaccard 1."""
    table = docs_with_dups()
    ds = ray.data.from_arrow(table)
    fast = dd.minhash_dedup_pairs(ds, threshold=0.99).to_pandas()
    got = {(a, b) for a, b in zip(fast["key_a"], fast["key_b"])}
    expected = {(i - 10, i) for i in range(10, 200, 10)}
    assert expected <= got
    assert (fast["jaccard"] >= 0.99).all()


@pytest.mark.usefixtures("ray_session")
def test_grouped_distinct_counts():
    from tilecloud_chain_ray.stages.distinct import grouped_distinct_counts

    rng = np.random.default_rng(12)
    g = rng.integers(0, 4, 20000)
    k = rng.integers(0, 500, 20000)
    ds = ray.data.from_arrow(
        pa.Table.from_pydict({"grp": pa.array(g, pa.int64()), "key": pa.array(k, pa.int64())})
    ).repartition(8)
    out = grouped_distinct_counts(ds, "grp", "key").to_pandas().sort_values("grp")
    import pandas as pd

    expected = (
        pd.DataFrame({"grp": g, "key": k})
        .groupby("grp")
        .agg(n_distinct=("key", "nunique"), n_rows=("key", "size"))
        .reset_index()
    )
    assert out.reset_index(drop=True).equals(expected.astype({"grp": "int64", "n_distinct": "int64", "n_rows": "int64"}))


def perturbed_docs(n=120, every=6, n_words=200, change=4):
    """Every `every`-th doc is the previous doc with `change` words
    swapped — a true NEAR duplicate (not exact)."""
    rng = np.random.default_rng(77)
    texts = []
    for i in range(n):
        if i % every == 0 and i > 0:
            words = texts[i - 1].split()
            idx = rng.integers(0, len(words), change)
            for j in idx:
                words[j] = f"sub{rng.integers(0, 999)}"
            texts.append(" ".join(words))
        else:
            texts.append(" ".join(f"w{v}" for v in rng.integers(0, 5000, n_words)))
    return pa.Table.from_pydict({"doc_id": list(range(n)), "text": texts})


@pytest.mark.usefixtures("ray_session")
def test_minhash_finds_near_dups_not_unrelated():
    ds = ray.data.from_arrow(perturbed_docs())
    pairs = dd.minhash_dedup_pairs(ds, threshold=0.8).to_pandas()
    got = {(a, b) for a, b in zip(pairs["key_a"], pairs["key_b"])}
    planted = {(i - 1, i) for i in range(6, 120, 6)}
    # near-dups: 4 of ~198 shingles changed -> jaccard ~0.94 >> 0.8;
    # LSH recall at s=0.94 with 16 bands of 4 rows is ~1
    assert len(planted & got) >= len(planted) - 1
    # nothing unrelated: every found pair is a planted one
    assert got <= planted
    assert (pairs["jaccard"] >= 0.8).all()


@pytest.mark.usefixtures("ray_session")
def test_simhash_near_dups():
    ds = ray.data.from_arrow(perturbed_docs(n_words=400, change=3))
    out = dd.simhash_candidates(ds, max_hamming=6).to_pandas()
    got = {(a, b) for a, b in zip(out["key_a"], out["key_b"])}
    planted = {(i - 1, i) for i in range(6, 120, 6)}
    # 3 of 400 words changed: simhash hamming stays small
    assert len(planted & got) >= len(planted) // 2
    assert got <= planted


@pytest.mark.usefixtures("ray_session")
def test_embedding_near_dup_planted():
    rng = np.random.default_rng(31)
    base = rng.standard_normal((300, 32)).astype(np.float32)
    # plant: vec 100.. copies of vec 0..19 with tiny noise (cosine ~0.999)
    planted = base.copy()
    for j in range(20):
        planted[100 + j] = base[j] + 0.02 * rng.standard_normal(32).astype(np.float32)
    table = pa.Table.from_pydict(
        {"vec_id": list(range(300)), "embedding": [v.tolist() for v in planted]}
    )
    ds = ray.data.from_arrow(table)
    out = dd.embedding_near_dup(ds, threshold=0.95, n_planes=8).to_pandas()
    got = {(a, b) for a, b in zip(out["key_a"], out["key_b"])}
    expected = {(j, 100 + j) for j in range(20)}
    # hyperplane LSH with 8 planes: near-identical vectors share the
    # bucket with prob (1 - theta/pi)^8 ~ 0.93 -> expect most planted
    assert len(expected & got) >= 12
    assert (out["cosine"] >= 0.95).all()
    # no false positives among random vectors
    assert all(a in range(20) and b == a + 100 for a, b in got - expected) or got <= expected


@pytest.mark.usefixtures("ray_session")
def test_hash_join_inner_left():
    from tilecloud_chain_ray.stages.join import hash_join

    left = ray.data.from_arrow(
        pa.Table.from_pydict({"k": [1, 2, 3, 4], "a": ["w", "x", "y", "z"]})
    )
    right = ray.data.from_arrow(
        pa.Table.from_pydict({"k": [2, 2, 3, 9], "b": [10, 11, 12, 13]})
    )
    inner = hash_join(left, right, on="k").to_pandas().sort_values(["k", "b"])
    assert list(zip(inner["k"], inner["a"], inner["b"])) == [
        (2, "x", 10), (2, "x", 11), (3, "y", 12),
    ]
    lj = hash_join(left, right, on="k", how="left").to_pandas()
    assert len(lj) == 5  # 1,4 null-matched; 2 twice; 3 once
    assert lj[lj["k"] == 1]["b"].isna().all()


@pytest.mark.usefixtures("ray_session")
def test_hll_approx_distinct():
    from tilecloud_chain_ray.stages.sketch import approx_distinct

    rng = np.random.default_rng(15)
    # 50k rows, ~20k distinct
    keys = rng.integers(0, 20000, 50000)
    ds = ray.data.from_arrow(pa.Table.from_pydict({"k": pa.array(keys, pa.int64())})).repartition(8)
    est = approx_distinct(ds, "k", p=12)
    exact = len(np.unique(keys))
    assert abs(est - exact) / exact < 0.05  # p=12 -> ~1.6% std error


@pytest.mark.usefixtures("ray_session")
def test_knn_ivf_recall_and_full_probe_exactness():
    rng = np.random.default_rng(11)
    # 16 planted clusters so the coarse quantizer has real structure
    centers = rng.standard_normal((16, 24))
    vecs = np.concatenate(
        [c + 0.15 * rng.standard_normal((40, 24)) for c in centers]
    ).astype(np.float64)
    n = len(vecs)
    table = pa.Table.from_pydict(
        {"vec_id": list(range(n)), "embedding": [v.tolist() for v in vecs]}
    )
    ds = ray.data.from_arrow(table)
    queries = vecs[:5] + 0.05 * rng.standard_normal((5, 24))
    qids = np.arange(5)

    brute = knn_mod.knn_brute(ds, queries, k=4, query_ids=qids).to_pandas()
    exact = {
        q: set(brute[brute["query_id"] == q]["vec_id"]) for q in range(5)
    }

    # full probe == exhaustive == brute force, exactly
    full = knn_mod.knn_ivf(
        ds, queries, k=4, query_ids=qids, n_lists=8, nprobe=8
    ).to_pandas()
    for q in range(5):
        assert set(full[full["query_id"] == q]["vec_id"]) == exact[q]

    # probing 2/8 lists on clustered data keeps high recall
    approx = knn_mod.knn_ivf(
        ds, queries, k=4, query_ids=qids, n_lists=8, nprobe=2
    ).to_pandas()
    hits = sum(
        len(set(approx[approx["query_id"] == q]["vec_id"]) & exact[q]) for q in range(5)
    )
    assert hits / (5 * 4) >= 0.8, hits


@pytest.mark.usefixtures("ray_session")
def test_generate_from_tiles_file_rerun(tmp_path):
    """--tiles error.list re-run (reference TilesFileStore): the listed
    metatiles regenerate exactly, everything else untouched."""
    from tilecloud_chain_ray.geom import MultiPoint, Point
    from tilecloud_chain_ray.pipelines.generate import generate_tiles

    layer = Layer(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(MultiPoint((Point(600000, 200000), Point(530000, 150000))),),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )
    # the two z3 content metatiles (stored tiles (z,y,x)=(3,58,70),(3,78,42))
    p = tmp_path / "error.list"
    p.write_text("3/64/56:+8/+8\n3/40/72:+8/+8\n")
    out = str(tmp_path / "wmts")
    result = generate_tiles(layer, tiles_file=str(p), out_wmts=out, concurrency=(1, 2))
    assert result.summary == {
        "tiles_generated": 128,
        "tiles_dropped": 126,
        "tiles_stored": 2,
        "metatiles_dropped": 0,
        "metatiles_generated": 2,
    }
    stored = [r for r in result.tiles.take_all() if r["status"] == "stored"]
    assert {(r["z"], r["y"], r["x"]) for r in stored} == {(3, 58, 70), (3, 78, 42)}


@pytest.mark.usefixtures("ray_session")
def test_knn_ivf_pq_recall_and_full_probe():
    """IVF-PQ with residual encoding + exact re-rank: planted near
    neighbors (real margins, the regime ANN is built for) are all
    recovered at full probe and mostly at nprobe<n_lists.

    (k-NN with margins below the quantizer's resolution — e.g. dense
    gaussian clusters where the top-100 cosines differ by 1e-3 — is
    unrecoverable for ANY fixed-budget PQ; that regime needs
    knn_brute or a bigger rerank window.)"""
    rng = np.random.default_rng(13)
    vecs = rng.standard_normal((1200, 64)).astype(np.float64)
    # queries 0..4 each get 4 planted neighbors at cos ~0.99
    for i in range(5):
        for j in range(4):
            vecs[100 + i * 4 + j] = vecs[i] + 0.15 * rng.standard_normal(64)
    vecs = vecs.astype(np.float32)
    table = pa.Table.from_pydict(
        {"vec_id": list(range(1200)), "embedding": [v.tolist() for v in vecs]}
    )
    ds = ray.data.from_arrow(table)
    q = vecs[:5].astype(np.float64)
    brute = knn_mod.knn_brute(ds, q, k=5, query_ids=np.arange(5)).to_pandas()
    for i in range(5):  # sanity: brute finds self + the 4 planted
        got = set(brute[brute["query_id"] == i]["vec_id"])
        assert got == {i, *(100 + i * 4 + j for j in range(4))}

    full = knn_mod.knn_ivf_pq(
        ds, q, k=5, query_ids=np.arange(5), n_lists=8, nprobe=8, m_sub=8, n_codes=64
    ).to_pandas()
    hits = sum(
        len(
            set(brute[brute["query_id"] == i]["vec_id"])
            & set(full[full["query_id"] == i]["vec_id"])
        )
        for i in range(5)
    )
    assert hits / 25 >= 0.9  # full probe: only PQ-candidate error left
    for i in range(5):
        top = full[(full["query_id"] == i) & (full["rank"] == 1)]["vec_id"].iloc[0]
        assert top == i

    approx = knn_mod.knn_ivf_pq(
        ds, q, k=5, query_ids=np.arange(5), n_lists=8, nprobe=3, m_sub=8, n_codes=64
    ).to_pandas()
    hits = sum(
        len(
            set(brute[brute["query_id"] == i]["vec_id"])
            & set(approx[approx["query_id"] == i]["vec_id"])
        )
        for i in range(5)
    )
    assert hits / 25 >= 0.7  # planted neighbors share the query's list
