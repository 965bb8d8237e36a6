"""Point-in-polygon join (J3): geocoded rows ⋈ layer polygons.

A task stage with per-process state: each worker process builds, once,
an STR bbox tree over all layer leaf polygons (broadcast via one
``ray.put``); per batch, points are bucketed into coarse cells, the
tree is queried once per occupied bucket, and the exact PIP test runs
vectorized per candidate polygon over that bucket's points.

Modes (reference J1 is ``semi``): ``semi`` keep matching rows, ``left``
tag with first-match layer name (null if none), ``inner`` one output
row per (point, polygon) match.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.geom import Geometry, Polygon
from tilecloud_chain_ray.geom.geometry import iter_leaves
from tilecloud_chain_ray.geom.strtree import STRtree
from tilecloud_chain_ray.geom.ops import points_in_polygon


class PIPJoin:
    def __init__(
        self,
        layers_ref,
        mode: str = "left",
        x_col: str = "x",
        y_col: str = "y",
        out_col: str = "layer",
    ) -> None:
        layers: list[tuple[str, Geometry]] = (
            ray.get(layers_ref) if isinstance(layers_ref, ray.ObjectRef) else layers_ref
        )
        if mode not in ("semi", "left", "inner"):
            raise ValueError(mode)
        self.mode = mode
        self.x_col, self.y_col, self.out_col = x_col, y_col, out_col
        # flatten to leaf polygons, remember owning layer name
        self.polys: list[Polygon] = []
        self.poly_layer: list[str] = []
        for name, geom in layers:
            for leaf in iter_leaves(geom):
                if isinstance(leaf, Polygon):
                    self.polys.append(leaf)
                    self.poly_layer.append(name)
        bounds = np.array([p.bounds for p in self.polys]).reshape(-1, 4)
        self.tree = STRtree(bounds)
        if len(bounds):
            self.extent = (
                bounds[:, 0].min(),
                bounds[:, 1].min(),
                bounds[:, 2].max(),
                bounds[:, 3].max(),
            )
        else:
            self.extent = (0.0, 0.0, 1.0, 1.0)
        # ~1 polygon per bucket row: fine grids only pay off when the
        # polygon set is large (few polygons -> few bucket iterations)
        self.bucket_bits = max(0, min(8, int(np.ceil(np.log2(max(len(self.polys), 1)) / 2))))

    def _buckets(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = 1 << self.bucket_bits
        minx, miny, maxx, maxy = self.extent
        bx = np.clip(((x - minx) / max(maxx - minx, 1e-300) * n).astype(np.int64), 0, n - 1)
        by = np.clip(((y - miny) / max(maxy - miny, 1e-300) * n).astype(np.int64), 0, n - 1)
        return bx * n + by

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch[self.x_col].to_numpy(zero_copy_only=False)
        y = batch[self.y_col].to_numpy(zero_copy_only=False)
        npts = len(x)
        first_match = np.full(npts, -1, dtype=np.int64)
        pairs_pt: list[np.ndarray] = []
        pairs_poly: list[int] = []

        buckets = self._buckets(x, y)
        order = np.argsort(buckets, kind="stable")
        sorted_b = buckets[order]
        starts = np.flatnonzero(np.r_[True, sorted_b[1:] != sorted_b[:-1]])
        ends = np.r_[starts[1:], len(sorted_b)]
        n = 1 << self.bucket_bits
        minx, miny, maxx, maxy = self.extent
        sx = max(maxx - minx, 1e-300) / n
        sy = max(maxy - miny, 1e-300) / n
        for s, e in zip(starts, ends):
            idx = order[s:e]
            b = sorted_b[s]
            bx, by = divmod(int(b), n)
            qbox = (minx + bx * sx, miny + by * sy, minx + (bx + 1) * sx, miny + (by + 1) * sy)
            cands = self.tree.query(*qbox)
            if len(cands) == 0:
                continue
            px, py = x[idx], y[idx]
            for ci in sorted(cands.tolist()):
                inside = points_in_polygon(px, py, self.polys[ci])
                if not inside.any():
                    continue
                hit_idx = idx[inside]
                if self.mode == "inner":
                    pairs_pt.append(hit_idx)
                    pairs_poly.append(ci)
                unset = hit_idx[first_match[hit_idx] < 0]
                first_match[unset] = ci

        if self.mode == "semi":
            return batch.filter(pa.array(first_match >= 0))
        if self.mode == "left":
            names = pa.array(
                [self.poly_layer[m] if m >= 0 else None for m in first_match], pa.string()
            )
            return batch.append_column(self.out_col, names)
        # inner: one row per match
        if not pairs_pt:
            empty = batch.slice(0, 0)
            return empty.append_column(self.out_col, pa.array([], pa.string()))
        take = np.concatenate(pairs_pt)
        names_np = np.concatenate(
            [np.full(len(p), self.poly_layer[ci], dtype=object) for p, ci in zip(pairs_pt, pairs_poly)]
        )
        out = batch.take(pa.array(take, pa.int64()))
        return out.append_column(self.out_col, pa.array(names_np.tolist(), pa.string()))


def pip_join(
    ds: ray.data.Dataset,
    layers: list[tuple[str, Geometry]],
    mode: str = "left",
    cache_key: str | None = None,
    x_col: str = "x",
    y_col: str = "y",
    out_col: str = "layer",
) -> ray.data.Dataset:
    """PIP join as a plain task map: the STRtree is built once per
    worker process (``process_cached``) from a single broadcast
    ``ray.put``, and Ray schedules the stage as ordinary fused tasks on
    warm workers, with no actor-pool start-up (~1-2 s flat, which
    dominates small jobs).  Each call sees a whole block, so the map
    fuses into its producer's tasks (one per block)."""
    from tilecloud_chain_ray.util import process_cached

    layers_ref = ray.put(layers)
    # default cache identity = the broadcast ref itself (unique per put,
    # never recycled — unlike id(), which CPython reuses after gc and
    # could serve a stale tree built from a different layer set); an
    # explicit cache_key opts into cross-call sharing
    ident = cache_key if cache_key is not None else layers_ref.hex()
    kw = dict(mode=mode, x_col=x_col, y_col=y_col, out_col=out_col)
    key = ("pip_join", ident, tuple(kw.items()))

    def fn(batch: pa.Table) -> pa.Table:
        st = process_cached(key, lambda: PIPJoin(layers_ref, **kw))
        return st(batch)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)
