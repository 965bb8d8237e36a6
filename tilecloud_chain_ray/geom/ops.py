"""Geometry predicates and constructions used by the tiling engine.

Covers the subset of shapely the reference relies on:

* ``box_intersects``  — ``bbox_polygon(extent).intersects(geom)``
  (geometry filter, ``/root/reference/tilecloud_chain/__init__.py:2668-2674``)
* ``clip_to_box``     — ``geom.intersection(box(...))`` (row-band walk of the
  sparse enumeration, ``__init__.py:584-588``, and layer-extent clipping,
  ``__init__.py:1793-1803``)
* ``leaf_geometries`` — ``_iter_leaf_geometries`` (``__init__.py:517-524``)
* ``buffer_geometry`` — ``geom.buffer(m, 1)`` (``__init__.py:537-539``);
  quad_segs=1 diamond caps, implemented as an exact Minkowski sum with the
  L1 diamond (piecewise, returned as a collection — union semantics).
* ``points_in_polygon`` — vectorized crossing-number PIP for the join.
"""

from __future__ import annotations

import numpy as np

from tilecloud_chain_ray.geom.geometry import (
    EMPTY,
    Geometry,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    Point,
    Polygon,
    iter_leaves,
)

Box = tuple[float, float, float, float]


def leaf_geometries(geometry: Geometry):
    return iter_leaves(geometry)


# ---------------------------------------------------------------------------
# segment / box primitives
# ---------------------------------------------------------------------------


def _segment_intersects_box(x0, y0, x1, y1, b: Box) -> bool:
    """Liang-Barsky: does segment (p0,p1) hit the closed box?"""
    minx, miny, maxx, maxy = b
    dx = x1 - x0
    dy = y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x0 - minx),
        (dx, maxx - x0),
        (-dy, y0 - miny),
        (dy, maxy - y0),
    ):
        if p == 0.0:
            if q < 0.0:
                return False
        else:
            r = q / p
            if p < 0.0:
                if r > t1:
                    return False
                if r > t0:
                    t0 = r
            else:
                if r < t1:
                    t1 = r
                if r < t0:
                    return False
    return t0 <= t1


def _clip_segment_to_box(x0, y0, x1, y1, b: Box):
    """Liang-Barsky clip; returns clipped endpoints or None."""
    minx, miny, maxx, maxy = b
    dx = x1 - x0
    dy = y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x0 - minx),
        (dx, maxx - x0),
        (-dy, y0 - miny),
        (dy, maxy - y0),
    ):
        if p == 0.0:
            if q < 0.0:
                return None
        else:
            r = q / p
            if p < 0.0:
                if r > t1:
                    return None
                if r > t0:
                    t0 = r
            else:
                if r < t1:
                    t1 = r
                if r < t0:
                    return None
    if t0 > t1:
        return None
    return (x0 + t0 * dx, y0 + t0 * dy, x0 + t1 * dx, y0 + t1 * dy)


def _point_in_ring(px: float, py: float, ring: np.ndarray) -> bool:
    """Crossing-number PIP against one closed ring (boundary -> True)."""
    x = ring[:-1, 0]
    y = ring[:-1, 1]
    xn = ring[1:, 0]
    yn = ring[1:, 1]
    # boundary check: point on any segment
    cross = (xn - x) * (py - y) - (yn - y) * (px - x)
    on = (
        (np.abs(cross) < 1e-9 * (np.abs(xn - x) + np.abs(yn - y) + 1.0))
        & (px >= np.minimum(x, xn) - 1e-12)
        & (px <= np.maximum(x, xn) + 1e-12)
        & (py >= np.minimum(y, yn) - 1e-12)
        & (py <= np.maximum(y, yn) + 1e-12)
    )
    if on.any():
        return True
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = ((y > py) != (yn > py)) & (px < x + (xn - x) * (py - y) / (yn - y))
    return bool(np.count_nonzero(crossing) % 2)


def point_in_polygon(px: float, py: float, polygon: Polygon) -> bool:
    if not _point_in_ring(px, py, polygon.shell):
        return False
    return not any(_point_in_ring(px, py, hole) for hole in polygon.holes)


def points_in_polygon(px: np.ndarray, py: np.ndarray, polygon: Polygon) -> np.ndarray:
    """Vectorized PIP over many points (boundary-exclusive on holes).

    Crossing number over each ring's edges; edges loop is O(ring size),
    points dimension fully vectorized (the hot path of the PIP join).
    """

    def in_ring(ring: np.ndarray) -> np.ndarray:
        inside = np.zeros(len(px), dtype=bool)
        x = ring[:-1, 0]
        y = ring[:-1, 1]
        xn = ring[1:, 0]
        yn = ring[1:, 1]
        for i in range(len(x)):
            yi, yni = y[i], yn[i]
            if yi == yni:
                continue
            # the crossing x only for points in the edge's y band: there
            # |py - yi| <= |yni - yi|, so a near-horizontal edge cannot
            # overflow it the way it does for points far outside the band
            hit = np.flatnonzero((yi > py) != (yni > py))
            xint = x[i] + (xn[i] - x[i]) * (py[hit] - yi) / (yni - yi)
            inside[hit] ^= px[hit] < xint
        return inside

    result = in_ring(polygon.shell)
    for hole in polygon.holes:
        result &= ~in_ring(hole)
    return result


# ---------------------------------------------------------------------------
# box_intersects
# ---------------------------------------------------------------------------


def box_intersects(geometry: Geometry, b: Box) -> bool:
    """Closed-box vs geometry intersection test (exact)."""
    minx, miny, maxx, maxy = b
    gb = geometry.bounds
    if geometry.is_empty or gb[0] != gb[0]:  # NaN bounds
        return False
    if gb[0] > maxx or gb[2] < minx or gb[1] > maxy or gb[3] < miny:
        return False
    if isinstance(geometry, Point):
        return True  # bbox check above is exact for a point
    if isinstance(geometry, LineString):
        c = geometry.coords
        return any(
            _segment_intersects_box(c[i, 0], c[i, 1], c[i + 1, 0], c[i + 1, 1], b)
            for i in range(len(c) - 1)
        )
    if isinstance(geometry, Polygon):
        for ring in geometry.rings:
            for i in range(len(ring) - 1):
                if _segment_intersects_box(
                    ring[i, 0], ring[i, 1], ring[i + 1, 0], ring[i + 1, 1], b
                ):
                    return True
        # no edge crosses the box: either box fully inside polygon
        # (respecting holes) or fully outside.
        return point_in_polygon(minx, miny, geometry)
    geoms = getattr(geometry, "geoms", None)
    if geoms is not None:
        return any(box_intersects(g, b) for g in geoms)
    raise TypeError(f"unsupported geometry {type(geometry)}")


def _segment_intersects_boxes(x0, y0, x1, y1, boxes: np.ndarray) -> np.ndarray:
    """Vectorized Liang-Barsky: one segment vs (n, 4) boxes -> bool[n]."""
    minx, miny, maxx, maxy = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    n = len(boxes)
    dx = x1 - x0
    dy = y1 - y0
    t0 = np.zeros(n)
    t1 = np.ones(n)
    ok = np.ones(n, dtype=bool)
    for p, q in (
        (-dx, x0 - minx),
        (dx, maxx - x0),
        (-dy, y0 - miny),
        (dy, maxy - y0),
    ):
        if p == 0.0:
            ok &= q >= 0.0
        elif p < 0.0:
            np.maximum(t0, q / p, out=t0)
        else:
            np.minimum(t1, q / p, out=t1)
    return ok & (t0 <= t1)


def box_intersects_many(geometry: Geometry, boxes: np.ndarray) -> np.ndarray:
    """Vectorized ``box_intersects`` over (n, 4) boxes -> bool[n].

    The hot path of the geometry-filter stage: the per-edge loop is over
    geometry edges (small), the box dimension is fully vectorized.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    result = np.zeros(len(boxes), dtype=bool)
    for leaf in iter_leaves(geometry):
        if leaf.is_empty:
            continue
        gb = leaf.bounds
        if gb[0] != gb[0]:
            continue
        overlap = (
            (boxes[:, 0] <= gb[2])
            & (boxes[:, 2] >= gb[0])
            & (boxes[:, 1] <= gb[3])
            & (boxes[:, 3] >= gb[1])
            & ~result
        )
        if not overlap.any():
            continue
        idx = np.nonzero(overlap)[0]
        sub = boxes[idx]
        if isinstance(leaf, Point):
            result[idx] = True  # bbox overlap is exact for a point
            continue
        hit = np.zeros(len(idx), dtype=bool)
        if isinstance(leaf, LineString):
            c = leaf.coords
            for i in range(len(c) - 1):
                todo = ~hit
                if not todo.any():
                    break
                hit[todo] |= _segment_intersects_boxes(
                    c[i, 0], c[i, 1], c[i + 1, 0], c[i + 1, 1], sub[todo]
                )
        elif isinstance(leaf, Polygon):
            for ring in leaf.rings:
                for i in range(len(ring) - 1):
                    todo = ~hit
                    if not todo.any():
                        break
                    hit[todo] |= _segment_intersects_boxes(
                        ring[i, 0], ring[i, 1], ring[i + 1, 0], ring[i + 1, 1], sub[todo]
                    )
            todo = ~hit
            if todo.any():
                # no edge crosses the box: it is fully inside the
                # polygon (or a hole) or fully outside -> any corner
                # decides.  Exact-boundary corners were already caught
                # by the edge test (an edge through a corner crosses
                # the closed box).
                hit[todo] = points_in_polygon(sub[todo, 0], sub[todo, 1], leaf)
        else:
            raise TypeError(f"unsupported leaf geometry {type(leaf)}")
        result[idx] |= hit
    return result


# ---------------------------------------------------------------------------
# clip_to_box
# ---------------------------------------------------------------------------


def _clip_ring_sh(ring: np.ndarray, b: Box) -> np.ndarray | None:
    """Sutherland-Hodgman clip of a closed ring against a box."""
    minx, miny, maxx, maxy = b

    def clip_edge(pts: list, inside, intersect):
        if not pts:
            return pts
        out = []
        prev = pts[-1]
        prev_in = inside(prev)
        for cur in pts:
            cur_in = inside(cur)
            if cur_in:
                if not prev_in:
                    out.append(intersect(prev, cur))
                out.append(cur)
            elif prev_in:
                out.append(intersect(prev, cur))
            prev, prev_in = cur, cur_in
        return out

    def ix_at_x(p, c, xv):
        t = (xv - p[0]) / (c[0] - p[0])
        return (xv, p[1] + t * (c[1] - p[1]))

    def ix_at_y(p, c, yv):
        t = (yv - p[1]) / (c[1] - p[1])
        return (p[0] + t * (c[0] - p[0]), yv)

    pts = [tuple(p) for p in ring[:-1]]
    pts = clip_edge(pts, lambda p: p[0] >= minx, lambda p, c: ix_at_x(p, c, minx))
    pts = clip_edge(pts, lambda p: p[0] <= maxx, lambda p, c: ix_at_x(p, c, maxx))
    pts = clip_edge(pts, lambda p: p[1] >= miny, lambda p, c: ix_at_y(p, c, miny))
    pts = clip_edge(pts, lambda p: p[1] <= maxy, lambda p, c: ix_at_y(p, c, maxy))
    # drop consecutive duplicates
    dedup = []
    for p in pts:
        if not dedup or (abs(p[0] - dedup[-1][0]) > 1e-12 or abs(p[1] - dedup[-1][1]) > 1e-12):
            dedup.append(p)
    if len(dedup) >= 2 and abs(dedup[0][0] - dedup[-1][0]) <= 1e-12 and abs(dedup[0][1] - dedup[-1][1]) <= 1e-12:
        dedup.pop()
    if len(dedup) < 3:
        return None
    return np.asarray(dedup + [dedup[0]], dtype=np.float64)


def _ring_signed_area(ring: np.ndarray) -> float:
    """Shoelace signed area of a closed ring (n, 2) array."""
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def clip_to_box(geometry: Geometry, b: Box) -> Geometry:
    """``geometry.intersection(box(b))`` for the supported types.

    Concave polygons may come back as a single Sutherland-Hodgman
    polygon with degenerate bridges; bounds (all the sparse enumeration
    consumes) are unaffected.
    """
    minx, miny, maxx, maxy = b
    if geometry.is_empty:
        return EMPTY
    if isinstance(geometry, Point):
        if minx <= geometry.x <= maxx and miny <= geometry.y <= maxy:
            return geometry
        return EMPTY
    if isinstance(geometry, MultiPoint):
        kept = tuple(
            p for p in geometry.points if minx <= p.x <= maxx and miny <= p.y <= maxy
        )
        if not kept:
            return EMPTY
        return kept[0] if len(kept) == 1 else MultiPoint(kept)
    if isinstance(geometry, LineString):
        pieces = []
        run: list[tuple[float, float]] = []
        c = geometry.coords
        for i in range(len(c) - 1):
            seg = _clip_segment_to_box(c[i, 0], c[i, 1], c[i + 1, 0], c[i + 1, 1], b)
            if seg is None:
                if len(run) >= 2:
                    pieces.append(LineString(run))
                run = []
                continue
            x0, y0, x1, y1 = seg
            if (x0, y0) == (x1, y1):
                continue
            if run and abs(run[-1][0] - x0) <= 1e-12 and abs(run[-1][1] - y0) <= 1e-12:
                run.append((x1, y1))
            else:
                if len(run) >= 2:
                    pieces.append(LineString(run))
                run = [(x0, y0), (x1, y1)]
        if len(run) >= 2:
            pieces.append(LineString(run))
        if not pieces:
            return EMPTY
        return pieces[0] if len(pieces) == 1 else MultiLineString(tuple(pieces))
    if isinstance(geometry, Polygon):
        shell = _clip_ring_sh(geometry.shell, b)
        if shell is None:
            return EMPTY
        holes = []
        shell_area = abs(_ring_signed_area(shell))
        for hole in geometry.holes:
            clipped = _clip_ring_sh(hole, b)
            if clipped is not None:
                # box entirely inside a hole: both shell and hole clip to
                # the full box — the true intersection is empty, and
                # emitting (shell == hole) would make sparse enumeration
                # yield tiles across donut holes the reference skips
                if abs(_ring_signed_area(clipped)) >= shell_area - 1e-9:
                    return EMPTY
                holes.append(clipped)
        return Polygon(shell, holes)
    geoms = getattr(geometry, "geoms", None)
    if geoms is not None:
        kept = tuple(
            g2 for g2 in (clip_to_box(g, b) for g in geoms) if not g2.is_empty
        )
        if not kept:
            return EMPTY
        return kept[0] if len(kept) == 1 else GeometryCollection(kept)
    raise TypeError(f"unsupported geometry {type(geometry)}")


# ---------------------------------------------------------------------------
# buffer (quad_segs = 1 -> L1 diamond caps)
# ---------------------------------------------------------------------------


def _diamond(x: float, y: float, r: float) -> Polygon:
    return Polygon([(x + r, y), (x, y + r), (x - r, y), (x, y - r), (x + r, y)])


def _segment_rect(x0, y0, x1, y1, r) -> Polygon | None:
    """Rectangle of half-width r around a segment (perpendicular offset)."""
    dx, dy = x1 - x0, y1 - y0
    length = float(np.hypot(dx, dy))
    if length == 0.0:
        return None
    ox, oy = -dy / length * r, dx / length * r
    return Polygon(
        [
            (x0 + ox, y0 + oy),
            (x1 + ox, y1 + oy),
            (x1 - ox, y1 - oy),
            (x0 - ox, y0 - oy),
            (x0 + ox, y0 + oy),
        ]
    )


def buffer_geometry(geometry: Geometry, r: float) -> Geometry:
    """Approximate ``geom.buffer(r, quad_segs=1)``.

    Exact Minkowski sum with the L1 diamond of radius r, represented as a
    non-dissolved collection of pieces (equivalent under union semantics
    — every consumer here is an intersects / clip-bounds predicate).
    Matches shapely's quad_segs=1 point buffer exactly; for line/polygon
    corners the cap shape differs from GEOS's rotated join by < r.
    """
    if r == 0 or geometry.is_empty:
        return geometry
    if r < 0:
        raise NotImplementedError("negative buffers are not supported")
    if isinstance(geometry, Point):
        return _diamond(geometry.x, geometry.y, r)
    if isinstance(geometry, MultiPoint):
        return GeometryCollection(tuple(_diamond(p.x, p.y, r) for p in geometry.points))
    if isinstance(geometry, LineString):
        pieces: list[Geometry] = []
        c = geometry.coords
        for i in range(len(c) - 1):
            rect = _segment_rect(c[i, 0], c[i, 1], c[i + 1, 0], c[i + 1, 1], r)
            if rect is not None:
                pieces.append(rect)
        pieces.extend(_diamond(x, y, r) for x, y in c)
        return GeometryCollection(tuple(pieces))
    if isinstance(geometry, Polygon):
        pieces = [Polygon(geometry.shell, geometry.holes)]
        for ring in geometry.rings:
            for i in range(len(ring) - 1):
                rect = _segment_rect(ring[i, 0], ring[i, 1], ring[i + 1, 0], ring[i + 1, 1], r)
                if rect is not None:
                    pieces.append(rect)
            pieces.extend(_diamond(x, y, r) for x, y in ring[:-1])
        return GeometryCollection(tuple(pieces))
    geoms = getattr(geometry, "geoms", None)
    if geoms is not None:
        return GeometryCollection(tuple(buffer_geometry(g, r) for g in geoms))
    raise TypeError(f"unsupported geometry {type(geometry)}")
