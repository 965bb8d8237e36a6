"""The oracles accept the pipelines' real output on a tiny seed and reject
damaged output; the input generator plants what it reports."""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np
import pytest

from perfbench import inputs, oracles, workloads
from perfbench.run import ROOT


def _png(img: np.ndarray, filters) -> bytes:
    h, w, _ = img.shape
    rows = []
    for r in range(h):
        line = img[r].reshape(-1).astype(np.int64)
        f = filters[r % len(filters)]
        if f == 1:
            left = np.r_[np.zeros(4, np.int64), line[:-4]]
            line = line - left
        elif f == 2:
            up = img[r - 1].reshape(-1).astype(np.int64) if r else np.zeros_like(line)
            line = line - up
        rows.append(bytes([f]) + (line % 256).astype(np.uint8).tobytes())

    def chunk(tag, body):
        return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", zlib.crc32(tag + body))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 6, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(b"".join(rows))) + chunk(b"IEND", b""))


@pytest.mark.parametrize("filters", [(0,), (1,), (2,), (0, 1, 2)])
def test_png_decoder_handles_none_sub_up(filters):
    img = np.random.default_rng(3).integers(0, 256, (7, 5, 4), dtype=np.uint8)
    assert (oracles.decode_png_rgba(_png(img, filters)) == img).all()


def test_near_dups_are_planted_as_stated():
    table, shares = inputs.pages_table(seed=5, rows=2000)
    texts = table["text"].to_pylist()
    planted = [i for i, t in enumerate(texts) if "nd5x" in t]
    assert shares["near_dup_frac"] == pytest.approx(len(planted) / 2000) and planted
    for i in planted:
        assert i % 37 and (i + 1) % 37 and i - 1 not in planted
        a, b = texts[i - 1].split(), texts[i].split()
        assert len(a) == len(b) and sum(x != y for x, y in zip(a, b)) == 1
    for i in range(37, 2000, 37):
        assert texts[i] == texts[i - 1]
    assert shares["exact_dup_frac"] == pytest.approx(len(range(37, 2000, 37)) / 2000)


def test_curate_oracle_without_ray():
    words = [f"w{i}" for i in range(200)]
    base = " ".join(words[:60])
    near = " ".join(words[:59] + ["other"])
    texts = [base, base, near, " ".join(words[100:160]), "too short", " ".join(words[60:120])]
    ids = np.arange(len(texts))
    # exact survivors: 0, 2, 3, 5 (1 repeats 0, 4 fails the quality floor)
    assert oracles.exact_survivors(ids, texts, 0.5).tolist() == [0, 2, 3, 5]
    ok, stats = oracles.check_curate([0, 3, 5], ids, texts, 0.5, 0.8)
    assert ok == [] and stats["near_dup_drops"] == 1
    assert oracles.check_curate([0, 2, 3, 5], ids, texts, 0.5, 0.8)[0] == []
    assert oracles.check_curate([0, 1, 2, 3, 5], ids, texts, 0.5, 0.8)[0]  # kept a duplicate
    assert oracles.check_curate([0, 2, 3, 4, 5], ids, texts, 0.5, 0.8)[0]  # kept low quality
    assert oracles.check_curate([0, 2, 5], ids, texts, 0.5, 0.8)[0]  # dropped without partner


# -- with Ray ------------------------------------------------------------------


@pytest.fixture(scope="module")
def ray_session(tmp_path_factory):
    ray = pytest.importorskip("ray")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    ray.init(address="local", num_cpus=1, include_dashboard=False, log_to_driver=False,
             _temp_dir=str(tmp_path_factory.mktemp("ray")))
    ray.data.DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


class TinyDensity(workloads.DensityPages):
    ROWS = 400
    ZOOMS = (0, 1, 2)


class TinyCurate(workloads.CurateText):
    ROWS = 600


class TinySeed(workloads.MetatileSeed):
    ZOOMS = (0, 2)


def test_density_oracle(ray_session, tmp_path):
    w = TinyDensity(str(tmp_path), seed=1)
    items, out = w.run(None)
    assert items == 400 and w.check(out) == []
    bad = dict(out, z=out["z"][1:], x=out["x"][1:], y=out["y"][1:],
               status=out["status"][1:], data=out["data"][1:])
    assert w.check(bad)  # a tile is missing
    img = oracles.decode_png_rgba(out["data"][0]).copy()
    img[0, 0, :3] ^= 0x40
    assert w.check(dict(out, data=[_png(img, (0,))] + out["data"][1:]))  # a pixel changed


def test_curate_oracle(ray_session, tmp_path):
    w = TinyCurate(str(tmp_path), seed=1)
    items, out = w.run(None)
    assert w.check(out) == []
    ids = out["doc_id"]
    assert w.check({"doc_id": ids + [ids[0]]})  # duplicate survivor
    assert w.check({"doc_id": ids[:-1]})  # a survivor went missing without a partner


def test_seed_oracle(ray_session, tmp_path):
    w = TinySeed(str(tmp_path), seed=1)
    w.prepare()
    items, out = w.run(None)
    assert items > 0 and w.check(out) == []
    i = out["status"].index("stored")
    flipped = dict(out, status=out["status"][:i] + ["dropped"] + out["status"][i + 1 :])
    assert w.check(flipped)  # a stored tile reported as dropped
    for dirpath, _, files in os.walk(w.out_dir):
        if files:
            os.remove(os.path.join(dirpath, files[0]))
            break
    assert w.check(out)  # a tile file is missing


def test_point_hash_golden(ray_session):
    assert oracles.point_hash_smoke() == []
