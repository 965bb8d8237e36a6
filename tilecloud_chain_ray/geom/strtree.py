"""Packed STR (Sort-Tile-Recursive) bounding-box tree.

Bulk-loaded once per worker process in the PIP-join / renderer task stages
(the role shapely's STRtree plays in the north rule).  Query returns
candidate geometry indices whose bbox intersects the query box; callers
refine with exact predicates.

Leaves are stored level-by-level in flat numpy arrays, so the tree is
cheaply picklable and queries are allocation-light.
"""

from __future__ import annotations

import math

import numpy as np


class STRtree:
    def __init__(self, bounds: np.ndarray, node_capacity: int = 16) -> None:
        """``bounds``: (n, 4) float64 array of (minx, miny, maxx, maxy)."""
        bounds = np.asarray(bounds, dtype=np.float64).reshape(-1, 4)
        self.n = len(bounds)
        self.node_capacity = node_capacity
        if self.n == 0:
            self.order = np.empty(0, dtype=np.int64)
            self.levels: list[np.ndarray] = []
            return
        # STR packing: sort by center-x, slice into vertical slabs,
        # sort each slab by center-y.
        cx = (bounds[:, 0] + bounds[:, 2]) * 0.5
        cy = (bounds[:, 1] + bounds[:, 3]) * 0.5
        nleaf = math.ceil(self.n / node_capacity)
        nslabs = math.ceil(math.sqrt(nleaf))
        slab_size = math.ceil(self.n / nslabs)
        order = np.argsort(cx, kind="stable")
        for s in range(0, self.n, slab_size):
            chunk = order[s : s + slab_size]
            order[s : s + slab_size] = chunk[np.argsort(cy[chunk], kind="stable")]
        self.order = order
        self.leaf_bounds = bounds[order]
        # build internal levels bottom-up: each node = bbox of `capacity` children
        self.levels = []
        current = self.leaf_bounds
        while len(current) > 1:
            m = math.ceil(len(current) / node_capacity)
            parent = np.empty((m, 4), dtype=np.float64)
            for i in range(m):
                chunk = current[i * node_capacity : (i + 1) * node_capacity]
                parent[i, 0] = chunk[:, 0].min()
                parent[i, 1] = chunk[:, 1].min()
                parent[i, 2] = chunk[:, 2].max()
                parent[i, 3] = chunk[:, 3].max()
            self.levels.append(parent)
            current = parent
        self.levels.reverse()  # levels[0] = root level

    def query(self, minx: float, miny: float, maxx: float, maxy: float) -> np.ndarray:
        """Indices (into the original bounds array) whose bbox hits the box."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        cap = self.node_capacity
        # walk levels top-down keeping candidate node index sets
        nodes = np.array([0], dtype=np.int64)
        for level in range(len(self.levels)):
            lb = self.levels[level]
            if level == 0:
                cand = np.arange(len(lb), dtype=np.int64)
            else:
                cand = (nodes[:, None] * cap + np.arange(cap)[None, :]).ravel()
                cand = cand[cand < len(lb)]
            hit = (
                (lb[cand, 0] <= maxx)
                & (lb[cand, 2] >= minx)
                & (lb[cand, 1] <= maxy)
                & (lb[cand, 3] >= miny)
            )
            nodes = cand[hit]
            if len(nodes) == 0:
                return np.empty(0, dtype=np.int64)
        # expand to leaf entries
        cand = (nodes[:, None] * cap + np.arange(cap)[None, :]).ravel()
        cand = cand[cand < self.n]
        lb = self.leaf_bounds
        hit = (
            (lb[cand, 0] <= maxx)
            & (lb[cand, 2] >= minx)
            & (lb[cand, 1] <= maxy)
            & (lb[cand, 3] >= miny)
        )
        return self.order[cand[hit]]
