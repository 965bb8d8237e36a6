"""The three workloads.  Each builds a real pipeline through the public
API on its seeded input, consumes the result completely, and checks it
against an oracle in :mod:`perfbench.oracles`.

A workload's ``run`` is the timed part; ``digest`` and ``check`` run
after the clock stops.  ``tracer`` is a :class:`perfbench.trace.Tracer`
in a traced session and ``None`` otherwise.
"""

from __future__ import annotations

import hashlib
import os
import shutil

from perfbench import inputs, oracles


def collect(ds, columns: list[str]) -> dict:
    """Consume ``ds`` fully, keeping ``columns`` as Python lists."""
    import pyarrow as pa

    tables = [b.select(columns) for b in ds.iter_batches(batch_size=None, batch_format="pyarrow")]
    if not tables:
        return {c: [] for c in columns}
    table = pa.concat_tables(tables)
    return {c: table[c].to_pylist() for c in columns}


class DensityPages:
    """Seeded pages (``url``) -> geocode -> density pyramid z0-4 ->
    render/PNG -> hash-drop."""

    name = "density_pages"
    ROWS = 20_000
    ZOOMS = tuple(range(5))
    CELL_RES = 14

    def __init__(self, state_dir: str, seed: int) -> None:
        self.path, self.shares = inputs.cached_pages(state_dir, seed, self.ROWS)

    def prepare(self) -> None:
        pass

    def run(self, tracer) -> tuple[int, dict]:
        from tilecloud_chain_ray.config import Layer
        from tilecloud_chain_ray.grid import WEBMERC
        from tilecloud_chain_ray.pipelines.density import density_pyramid
        from tilecloud_chain_ray.sources.pages import read_pages
        from tilecloud_chain_ray.stages.geocode import geocode_dataset

        pages = read_pages(self.path, columns=["url"])
        if tracer is not None:
            pages = tracer.read_source(pages)
        geocoded = geocode_dataset(pages, WEBMERC.bbox, key_column="url", cell_res=self.CELL_RES)
        layer = Layer(name="page_density", grid=WEBMERC, meta=False)
        result = density_pyramid(geocoded, layer, zooms=list(self.ZOOMS), with_summary=False)
        return self.ROWS, collect(result.tiles, ["z", "x", "y", "status", "data"])

    def digest(self, out: dict) -> str:
        return oracles.tiles_digest(out["z"], out["x"], out["y"], out["status"], out["data"])

    def check(self, out: dict) -> list[str]:
        from tilecloud_chain_ray.grid import WEBMERC
        from tilecloud_chain_ray.stages.geocode import make_geocoder

        urls = inputs.read_table(self.path, ["url"])
        cells = make_geocoder(WEBMERC.bbox, key_column="url", cell_res=self.CELL_RES)(urls)["cell"]
        return oracles.check_density(out, cells.to_numpy(), self.ZOOMS)


class CurateText:
    """``curate_corpus`` on ``doc_id, text, lang`` with a quality floor
    and MinHash near-dedup."""

    name = "curate_text"
    ROWS = 6_000
    QUALITY_MIN = 0.5
    NEAR_DEDUP = 0.8

    def __init__(self, state_dir: str, seed: int) -> None:
        self.path, self.shares = inputs.cached_pages(state_dir, seed, self.ROWS)

    def prepare(self) -> None:
        pass

    def run(self, tracer) -> tuple[int, dict]:
        from tilecloud_chain_ray.pipelines.curate import curate_corpus
        from tilecloud_chain_ray.sources.pages import read_pages

        docs = read_pages(self.path, columns=["doc_id", "text", "lang"])
        if tracer is not None:
            docs = tracer.read_source(docs)
        result = curate_corpus(
            docs, quality_min=self.QUALITY_MIN, near_dedup_threshold=self.NEAR_DEDUP
        )
        return self.ROWS, collect(result.survivors, ["doc_id"])

    def digest(self, out: dict) -> str:
        return oracles.ids_digest(out["doc_id"])

    def check(self, out: dict) -> list[str]:
        table = inputs.read_table(self.path, ["doc_id", "text"])
        errors, _ = oracles.check_curate(
            out["doc_id"],
            table["doc_id"].to_numpy(),
            table["text"].to_pylist(),
            self.QUALITY_MIN,
            self.NEAR_DEDUP,
        )
        return errors


class MetatileSeed:
    """``generate_tiles`` on a polygon and a line: dense enumerate ->
    geometry filter -> metatile render -> metatile hash-drop -> split ->
    tile hash-drop -> WMTS tree."""

    name = "metatile_seed"
    ZOOMS = (0, 1, 2)

    def __init__(self, state_dir: str, seed: int) -> None:
        self.geometry = inputs.seed_geometry(seed)
        self.out_dir = os.path.join(state_dir, "wmts")
        self.shares = {"exact_dup_frac": 0.0, "near_dup_frac": 0.0}

    def layer(self):
        from tilecloud_chain_ray.config import Layer
        from tilecloud_chain_ray.geom import LineString, Polygon
        from tilecloud_chain_ray.grid import SWISSGRID_5

        x0, y0, x1, y1 = self.geometry["rect"]
        lx0, ly, lx1, _ = self.geometry["line"]
        return Layer(
            name=self.name,
            grid=SWISSGRID_5,
            geometries=(
                Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]),
                LineString([(lx0, ly), (lx1, ly)]),
            ),
            meta=True,
            meta_size=8,
            meta_buffer=128,
        )

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self, tracer) -> tuple[int, dict]:
        from tilecloud_chain_ray.pipelines.generate import generate_tiles

        result = generate_tiles(
            self.layer(), zooms=list(self.ZOOMS), out_wmts=self.out_dir, with_summary=False
        )
        out = collect(result.tiles, ["z", "x", "y", "status", "sha1"])
        rendered = sum(1 for s in out["status"] if s in ("stored", "dropped"))
        return rendered, out

    def digest(self, out: dict) -> str:
        sha = [h.encode() if h is not None else None for h in out["sha1"]]
        files = sorted(
            os.path.relpath(os.path.join(d, f), self.out_dir)
            for d, _, names in os.walk(self.out_dir)
            for f in names
        )
        rows = oracles.tiles_digest(out["z"], out["x"], out["y"], out["status"], sha)
        return f"{rows}:{hashlib.sha1(repr(files).encode()).hexdigest()}"

    def check(self, out: dict) -> list[str]:
        oracle = oracles.SeedOracle(self.geometry["rect"], self.geometry["line"], self.ZOOMS)
        return oracles.check_seed(out, oracle, self.out_dir)


WORKLOADS = {w.name: w for w in (DensityPages, CurateText, MetatileSeed)}
