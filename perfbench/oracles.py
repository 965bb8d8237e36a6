"""Independent output checks.  Each returns a list of error strings
(empty when the output is correct).

The oracles re-derive the expected output from the inputs with their own
arithmetic (numpy / pandas / plain geometry); they call no library code
except the geocoder that produces the density oracle's input cells.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib

import numpy as np

# -- PNG --------------------------------------------------------------------


def decode_png_rgba(data: bytes) -> np.ndarray:
    """8-bit RGBA PNG -> (h, w, 4) uint8; scanline filters None, Sub, Up."""
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG")
    pos, idat, ihdr = 8, [], None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat.append(body)
    if ihdr is None:
        raise ValueError("PNG without IHDR")
    w, h, depth, ctype, _, _, interlace = ihdr
    if (depth, ctype, interlace) != (8, 6, 0):
        raise ValueError(f"unsupported PNG (depth {depth}, color type {ctype}, interlace {interlace})")
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8).reshape(h, 1 + 4 * w)
    if not raw[:, 0].any():  # every scanline unfiltered
        return raw[:, 1:].reshape(h, w, 4)
    out = np.empty((h, 4 * w), dtype=np.uint8)
    prev = np.zeros(4 * w, dtype=np.uint8)
    for r in range(h):
        f, line = raw[r, 0], raw[r, 1:]
        if f == 0:
            rec = line
        elif f == 1:
            rec = (np.cumsum(line.reshape(w, 4).astype(np.int64), axis=0) % 256).astype(np.uint8).ravel()
        elif f == 2:
            rec = line + prev  # uint8 wraps mod 256
        else:
            raise ValueError(f"unsupported PNG filter {f}")
        out[r] = rec
        prev = out[r]
    return out.reshape(h, w, 4)


# -- digests of a repetition's output -----------------------------------------


def tiles_digest(z, x, y, status, data) -> str:
    h = hashlib.sha1()
    rows = sorted(
        (int(a), int(b), int(c), s or "", hashlib.sha1(d).hexdigest() if d is not None else "")
        for a, b, c, s, d in zip(z, x, y, status, data)
    )
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()


def ids_digest(ids) -> str:
    return hashlib.sha1(np.sort(np.asarray(ids, dtype=np.int64)).tobytes()).hexdigest()


# -- density_pages --------------------------------------------------------------


def morton_split(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved bits -> (even bits, odd bits), bit by bit."""
    cx = np.zeros(len(code), dtype=np.uint64)
    cy = np.zeros(len(code), dtype=np.uint64)
    for k in range(29):
        cx |= ((code >> np.uint64(2 * k)) & np.uint64(1)) << np.uint64(k)
        cy |= ((code >> np.uint64(2 * k + 1)) & np.uint64(1)) << np.uint64(k)
    return cx, cy


def density_expected(cells: np.ndarray, zooms) -> dict:
    """(z, x, y) -> (pixel rows, pixel cols, counts) rolled up from the
    cell ids: a pixel at zoom z is a cell at resolution z + 8."""
    cells = np.asarray(cells, dtype=np.uint64)
    res = (cells >> np.uint64(58)).astype(np.int64)
    cx, cy = morton_split(cells & np.uint64((1 << 58) - 1))
    out = {}
    for z in zooms:
        shift = (res - (z + 8)).astype(np.uint64)
        px, py = cx >> shift, cy >> shift
        key = (px << np.uint64(32)) | py
        uniq, counts = np.unique(key, return_counts=True)
        upx, upy = uniq >> np.uint64(32), uniq & np.uint64(0xFFFFFFFF)
        tx, ty = (upx >> np.uint64(8)).astype(np.int64), (upy >> np.uint64(8)).astype(np.int64)
        tile = tx * (1 << 24) + ty
        order = np.argsort(tile, kind="stable")
        tile, upx, upy, counts = tile[order], upx[order], upy[order], counts[order]
        starts = np.flatnonzero(np.r_[True, tile[1:] != tile[:-1]])
        ends = np.r_[starts[1:], len(tile)]
        for s, e in zip(starts, ends):
            out[(z, int(tile[s] >> 24), int(tile[s] & ((1 << 24) - 1)))] = (
                (upy[s:e] & np.uint64(255)).astype(np.int64),
                (upx[s:e] & np.uint64(255)).astype(np.int64),
                counts[s:e],
            )
    return out


def check_density(out: dict, cells: np.ndarray, zooms, tile_size: int = 256) -> list[str]:
    """Tile set, status, lit pixels and shading against the rollup.

    Each tile shades a pixel by log1p(count) / log1p(tile max count)
    between one background colour and one layer colour; both colours
    are read off the output (a pixel without pages, the tile's densest
    pixel) and must agree across tiles.  Shades may differ by one level
    from this float64 re-computation.
    """
    errors: list[str] = []
    expected = density_expected(cells, zooms)
    got = {
        (int(z), int(x), int(y)): (s, d)
        for z, x, y, s, d in zip(out["z"], out["x"], out["y"], out["status"], out["data"])
    }
    if len(got) != len(out["z"]):
        errors.append("duplicate tiles in the output")
    if set(got) != set(expected):
        missing = len(set(expected) - set(got))
        extra = len(set(got) - set(expected))
        errors.append(f"tile set differs: {missing} missing, {extra} unexpected")
        return errors
    bg = layer = None
    for key, (rows, cols, counts) in expected.items():
        status, data = got[key]
        if status != "stored" or data is None:
            errors.append(f"tile {key}: status {status!r}, expected a stored tile")
            continue
        img = decode_png_rgba(data)
        if img.shape != (tile_size, tile_size, 4):
            errors.append(f"tile {key}: image shape {img.shape}")
            continue
        lit = np.zeros((tile_size, tile_size), dtype=bool)
        lit[rows, cols] = True
        packed = np.ascontiguousarray(img).view(np.uint32)[..., 0]  # one word per pixel
        if bg is None:
            first_unlit = np.flatnonzero(~lit.ravel())
            if not len(first_unlit):
                continue
            bg = img.reshape(-1, 4)[first_unlit[0]].astype(np.int64)
            bg_word = packed.ravel()[first_unlit[0]]
        if ((packed != bg_word) & ~lit).any():
            errors.append(f"tile {key}: pixels without pages are not the background")
            continue
        px = img[rows, cols].astype(np.int64)
        colour = px[int(np.argmax(counts))]
        if layer is None:
            layer = colour.copy()
        if not (colour == layer).all():
            errors.append(f"tile {key}: densest pixel {colour.tolist()} is not the layer colour")
            continue
        v = counts.astype(np.float64)
        shade = np.log1p(v) / np.log1p(max(v.max(), 1.0))
        want = (bg[:3] * (1 - shade[:, None]) + layer[:3] * shade[:, None]).astype(np.int64)
        if (np.abs(px[:, :3] - want) > 1).any() or (px[:, 3] != 255).any():
            errors.append(f"tile {key}: pixel shades do not match the page counts")
    return errors[:20]


# -- curate_text ----------------------------------------------------------------


def quality(texts) -> np.ndarray:
    """min(tokens, 100) / 100 * (1 - uppercase / chars), tokens split on
    runs of whitespace."""
    import pandas as pd

    s = pd.Series(texts, dtype=object)
    n_tok = s.map(lambda t: max(len(t.split()), 1)).to_numpy(np.float64)
    n_chars = s.str.len().to_numpy(np.float64)
    n_upper = s.str.count(r"[A-Z]").to_numpy(np.float64)
    return np.minimum(n_tok, 100.0) / 100.0 * (1.0 - n_upper / np.maximum(n_chars, 1.0))


def exact_survivors(doc_id, texts, quality_min: float) -> np.ndarray:
    """Min doc_id per distinct text among rows with quality >= floor."""
    import pandas as pd

    df = pd.DataFrame({"doc_id": np.asarray(doc_id), "text": texts})
    df = df[quality(texts) >= quality_min]
    return np.sort(df.groupby("text", sort=False)["doc_id"].min().to_numpy())


def shingles(text: str, k: int = 3) -> set:
    words = text.split()
    if len(words) < k:
        return {tuple(words)}
    return {tuple(words[i : i + k]) for i in range(len(words) - k + 1)}


def jaccard(a: set, b: set) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def check_curate(
    survivors, doc_id, texts, quality_min: float, threshold: float
) -> tuple[list[str], dict]:
    """Survivors must be exact-dedup survivors of the quality filter; each
    exact survivor the pipeline dropped must have a kept partner whose
    word-3-shingle Jaccard is >= ``threshold``."""
    errors: list[str] = []
    surv = np.asarray(survivors, dtype=np.int64)
    expected = exact_survivors(doc_id, texts, quality_min)
    if len(np.unique(surv)) != len(surv):
        errors.append("duplicate doc_id among survivors")
    extra = np.setdiff1d(surv, expected)
    if len(extra):
        errors.append(f"{len(extra)} survivors are not exact-dedup survivors, e.g. {extra[:5].tolist()}")
    dropped = np.setdiff1d(expected, surv)
    text_of = dict(zip(np.asarray(doc_id).tolist(), texts))
    kept = set(surv.tolist())
    unresolved = []
    for d in dropped.tolist():
        sd = shingles(text_of[d])
        near = [c for c in range(d - 4, d + 5) if c != d and c in kept]
        if not any(jaccard(sd, shingles(text_of[c])) >= threshold for c in near):
            unresolved.append(d)
    if unresolved:
        # no partner nearby: search every survivor sharing a shingle
        want = {d: shingles(text_of[d]) for d in unresolved}
        index: dict = {}
        for d, sh in want.items():
            for s in sh:
                index.setdefault(s, []).append(d)
        found = set()
        for c in kept:
            sc = shingles(text_of[c])
            for d in {d for s in sc for d in index.get(s, ())}:
                if d not in found and jaccard(want[d], sc) >= threshold:
                    found.add(d)
        missing = [d for d in unresolved if d not in found]
        if missing:
            errors.append(
                f"{len(missing)} near-dup drops have no kept partner with "
                f"Jaccard >= {threshold}, e.g. {missing[:5]}"
            )
    stats = {"exact_survivors": len(expected), "near_dup_drops": len(dropped)}
    return errors, stats


# -- metatile_seed ----------------------------------------------------------------


class SeedOracle:
    """Expected metatile-seeding result for a rectangle plus a horizontal
    line on swissgrid_5, from tile extents and pixel edges alone.

    Spec (the reference's ``generate_tiles`` local role):
    * the enumerated metatiles cover the tile index range of the
      geometries' envelope, aligned down to multiples of ``meta``;
    * the geometry filter keeps a metatile whose extent grown by
      ``meta_buffer * resolution**2`` map units touches a geometry (the
      reference's pixel-buffer quirk);
    * a rendered image holds a rectangle pixel when the rectangle overlaps
      the image with positive area (its edges lie on pixel edges), and a
      line pixel when the line's y lies inside the image and its x range
      overlaps the image's;
    * a metatile image (grown by ``meta_buffer`` pixels) without geometry
      pixels is dropped whole; its children otherwise are stored when
      they hold geometry pixels and dropped when they do not.
    """

    RESOLUTIONS = (100, 50, 20, 10, 5)
    BBOX = (420_000, 30_000, 900_000, 350_000)
    TILE = 256

    def __init__(self, rect, line, zooms, meta: int = 8, meta_buffer: int = 128) -> None:
        self.rect, self.line = rect, line
        self.zooms, self.meta, self.buffer = list(zooms), meta, meta_buffer

    def _extent(self, z, x, y, n, border):
        span = self.TILE * self.RESOLUTIONS[z]
        x0, y1 = self.BBOX[0], self.BBOX[3]
        return (x0 + x * span - border, y1 - (y + n) * span - border,
                x0 + (x + n) * span + border, y1 - y * span + border)

    def _touches(self, e) -> bool:  # closed boxes
        r, (lx0, ly, lx1, _) = self.rect, self.line
        rect = r[0] <= e[2] and r[2] >= e[0] and r[1] <= e[3] and r[3] >= e[1]
        return rect or (e[1] <= ly <= e[3] and lx0 <= e[2] and lx1 >= e[0])

    def _has_pixels(self, e) -> bool:
        r, (lx0, ly, lx1, _) = self.rect, self.line
        rect = r[0] < e[2] and r[2] > e[0] and r[1] < e[3] and r[3] > e[1]
        return rect or (e[1] < ly < e[3] and lx0 < e[2] and lx1 > e[0])

    def expected(self) -> dict:
        r, l = self.rect, self.line
        env = (min(r[0], l[0]), min(r[1], l[1]), max(r[2], l[2]), max(r[3], l[3]))
        stored, dropped, meta_dropped, rendered = set(), 0, 0, 0
        n = self.meta
        for z in self.zooms:
            res = self.RESOLUTIONS[z]
            span = self.TILE * res
            cols = int(np.ceil((self.BBOX[2] - self.BBOX[0]) / span))
            rows = int(np.ceil((self.BBOX[3] - self.BBOX[1]) / span))
            xi0 = int((env[0] - self.BBOX[0]) // span)
            xi1 = int((env[2] - self.BBOX[0]) // span)
            yi0 = int((self.BBOX[3] - env[3]) // span)
            yi1 = int((self.BBOX[3] - env[1]) // span)
            for my in range((yi0 // n) * n, yi1 + 1, n):
                for mx in range((xi0 // n) * n, (xi1 // n) * n + 1, n):
                    border = self.buffer * res * res
                    if not self._touches(self._extent(z, mx, my, n, border)):
                        continue
                    rendered += 1
                    if not self._has_pixels(self._extent(z, mx, my, n, self.buffer * res)):
                        meta_dropped += 1
                        continue
                    if mx + n > cols or my + n > rows:
                        raise ValueError("geometry too close to the grid edge for this oracle")
                    for ty in range(my, my + n):
                        for tx in range(mx, mx + n):
                            if self._has_pixels(self._extent(z, tx, ty, 1, 0)):
                                stored.add((z, tx, ty))
                            else:
                                dropped += 1
        return {"stored": stored, "dropped": dropped, "meta_dropped": meta_dropped,
                "rendered_metatiles": rendered}


def check_seed(out: dict, oracle: SeedOracle, wmts_root: str) -> list[str]:
    errors: list[str] = []
    want = oracle.expected()
    status = list(out["status"])
    stored = {
        (int(z), int(x), int(y))
        for z, x, y, s in zip(out["z"], out["x"], out["y"], status)
        if s == "stored"
    }
    counts = {s: status.count(s) for s in set(status)}
    if set(counts) - {"stored", "dropped", "meta_dropped"}:
        errors.append(f"unexpected statuses {sorted(counts)}")
    if stored != want["stored"]:
        errors.append(
            f"stored tiles differ: {len(want['stored'] - stored)} missing, "
            f"{len(stored - want['stored'])} unexpected"
        )
    for key in ("dropped", "meta_dropped"):
        if counts.get(key, 0) != want[key]:
            errors.append(f"{key}: {counts.get(key, 0)} tiles, expected {want[key]}")
    on_disk = set()
    sha = {}
    for z, x, y, s, h in zip(out["z"], out["x"], out["y"], status, out["sha1"]):
        if s == "stored":
            sha[(int(z), int(x), int(y))] = h
    for dirpath, _, files in os.walk(wmts_root):
        for f in files:
            if not f.endswith(".png"):
                continue
            parts = os.path.join(dirpath, f)[len(wmts_root) :].strip(os.sep).split(os.sep)
            key = (int(parts[-3]), int(f[:-4]), int(parts[-2]))
            on_disk.add(key)
            with open(os.path.join(dirpath, f), "rb") as fh:
                if hashlib.sha1(fh.read()).hexdigest() != sha.get(key):
                    errors.append(f"file for tile {key} does not hold the stored tile")
    if on_disk != stored:
        errors.append(f"{len(on_disk)} tile files written for {len(stored)} stored tiles")
    return errors[:20]


# -- reference golden -------------------------------------------------------------

POINT_HASH_GOLDEN = {
    "metatiles_generated": 10,
    "metatiles_dropped": 4,
    "tiles_generated": 384,
    "tiles_dropped": 376,
    "tiles_stored": 8,
}


def source_digest(root: str) -> str:
    """sha1 over the library's Python sources (names and contents)."""
    h = hashlib.sha1()
    pkg = os.path.join(root, "tilecloud_chain_ray")
    for dirpath, dirs, files in os.walk(pkg):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def point_hash_smoke() -> list[str]:
    """The reference's point_hash run: two points on swissgrid_5, meta 8,
    buffer 128, resolutions >= 10, one DATE dimension."""
    from tilecloud_chain_ray.config import Dimension, Layer
    from tilecloud_chain_ray.geom import MultiPoint, Point
    from tilecloud_chain_ray.grid import SWISSGRID_5
    from tilecloud_chain_ray.pipelines.generate import generate_tiles

    layer = Layer(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(MultiPoint((Point(600000, 200000), Point(530000, 150000))),),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
        dimensions=(
            Dimension(name="DATE", default="2012", generate=("2012",), values=("2005", "2010", "2012")),
        ),
    )
    summary = generate_tiles(layer).summary
    got = {k: summary.get(k) for k in POINT_HASH_GOLDEN}
    return [] if got == POINT_HASH_GOLDEN else [f"point_hash summary {got} != {POINT_HASH_GOLDEN}"]
