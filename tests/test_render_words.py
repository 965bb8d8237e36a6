"""The word-at-a-time render kernels against the per-channel forms they
replaced: ``render_leaves``, ``render_density_image`` and
``encode_png`` must produce the same bytes, so every hash a user pinned
from an earlier render (``tcr get-hash``) stays valid."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecloud_chain_ray.functions.png import decode_png, encode_png
from tilecloud_chain_ray.geom import LineString, Point, Polygon
from tilecloud_chain_ray.geom.ops import points_in_polygon
from tilecloud_chain_ray.stages.render import (
    BACKGROUND,
    background_png,
    render_density_image,
    render_leaves,
)

# all four bytes differ, so a byte-order slip changes the image
COLOR = np.array([1, 2, 3, 4], dtype=np.uint8)


def ref_render_leaves(leaves, extent, size, color) -> np.ndarray:
    """Per-channel reference: every pixel written as a 4-byte broadcast."""
    width, height = size
    minx, miny, maxx, maxy = extent
    resx = (maxx - minx) / width
    resy = (maxy - miny) / height
    img = np.empty((height, width, 4), dtype=np.uint8)
    img[:] = BACKGROUND

    def to_px(mx, my):
        col = np.floor((np.asarray(mx) - minx) / resx).astype(np.int64)
        row = np.floor((maxy - np.asarray(my)) / resy).astype(np.int64)
        return col, row

    for leaf in leaves:
        if isinstance(leaf, Point):
            col, row = to_px(leaf.x, leaf.y)
            if 0 <= col < width and 0 <= row < height:
                img[row, col] = color
        elif isinstance(leaf, LineString):
            c = leaf.coords
            for i in range(len(c) - 1):
                seg_len_px = (
                    abs(c[i + 1, 0] - c[i, 0]) / resx + abs(c[i + 1, 1] - c[i, 1]) / resy
                )
                steps = max(2, int(seg_len_px * 2) + 1)
                t = np.linspace(0.0, 1.0, steps)
                col, row = to_px(
                    c[i, 0] + t * (c[i + 1, 0] - c[i, 0]),
                    c[i, 1] + t * (c[i + 1, 1] - c[i, 1]),
                )
                ok = (col >= 0) & (col < width) & (row >= 0) & (row < height)
                img[row[ok], col[ok]] = color
        elif isinstance(leaf, Polygon):
            gminx, gminy, gmaxx, gmaxy = leaf.bounds
            c0 = max(0, int(np.floor((gminx - minx) / resx)))
            c1 = min(width, int(np.ceil((gmaxx - minx) / resx)) + 1)
            r0 = max(0, int(np.floor((maxy - gmaxy) / resy)))
            r1 = min(height, int(np.ceil((maxy - gminy) / resy)) + 1)
            if c0 >= c1 or r0 >= r1:
                continue
            cols = np.arange(c0, c1)
            rows = np.arange(r0, r1)
            px = minx + (cols + 0.5) * resx
            py = maxy - (rows + 0.5) * resy
            gx, gy = np.meshgrid(px, py)
            inside = points_in_polygon(gx.ravel(), gy.ravel(), leaf).reshape(len(rows), len(cols))
            img[r0:r1, c0:c1][inside] = color
    return img


def ref_render_density_image(cols, rows, counts, size_px, color, log_scale=True) -> np.ndarray:
    """Per-channel reference of the density shading."""
    img = np.empty((size_px, size_px, 4), dtype=np.uint8)
    img[:] = BACKGROUND
    ok = (cols >= 0) & (cols < size_px) & (rows >= 0) & (rows < size_px)
    if ok.any():
        v = counts[ok].astype(np.float64)
        shade = (
            np.log1p(v) / np.log1p(max(v.max(), 1.0)) if log_scale else v / max(v.max(), 1.0)
        )
        px = np.empty((int(ok.sum()), 4), dtype=np.uint8)
        px[:, :3] = (
            BACKGROUND[:3].astype(np.float64) * (1 - shade[:, None])
            + color[:3].astype(np.float64) * shade[:, None]
        ).astype(np.uint8)
        px[:, 3] = 255
        img[rows[ok], cols[ok]] = px
    return img


# map coordinates span the extent and half of it again on every side, so
# leaves fall inside, across the edge and wholly outside
_U = st.floats(-0.5, 1.5, allow_nan=False)


@st.composite
def scenes(draw):
    width = draw(st.integers(1, 40))
    height = draw(st.integers(1, 40))
    minx = draw(st.floats(-1e4, 1e4, allow_nan=False))
    miny = draw(st.floats(-1e4, 1e4, allow_nan=False))
    # pixel sizes the extent does not divide into round numbers
    resx = draw(st.floats(0.37, 13.3))
    resy = draw(st.floats(0.37, 13.3))
    extent = (minx, miny, minx + width * resx, miny + height * resy)
    sx, sy = width * resx, height * resy

    def pt(u):
        return (minx + u[0] * sx, miny + u[1] * sy)

    uv = st.tuples(_U, _U)
    leaves = []
    for kind, n in draw(
        st.lists(st.tuples(st.sampled_from("plgd"), st.integers(2, 5)), max_size=8)
    ):
        if kind == "p":
            leaves.append(Point(*pt(draw(uv))))
        elif kind == "l":
            leaves.append(LineString([pt(draw(uv)) for _ in range(n)]))
        elif kind == "g":
            shell = [pt(draw(uv)) for _ in range(n + 1)]
            leaves.append(Polygon(shell + shell[:1]))
        else:
            # degenerate: a zero-length line and a zero-area polygon
            a = pt(draw(uv))
            b = pt(draw(uv))
            leaves.append(LineString([a, a]))
            leaves.append(Polygon([a, b, b, a]))
    return leaves, extent, (width, height)


@given(
    scene=scenes(),
    color=st.sampled_from([(1, 2, 3, 4), (240, 240, 240, 255), (255, 0, 9, 0)]),
)
@settings(max_examples=150, deadline=None)
def test_render_leaves_matches_per_channel_reference(scene, color):
    leaves, extent, (width, height) = scene
    color = np.array(color, dtype=np.uint8)
    expected = ref_render_leaves(leaves, extent, (width, height), color)

    got = render_leaves(leaves, extent, (width, height), color)
    assert got.dtype == np.uint8 and got.shape == (height, width, 4)
    assert got.tobytes() == expected.tobytes()

    # the GeometryRenderer meta path: a contiguous run of a flat pixel buffer
    flat = np.full(height * width * 4 + 12, 0xAB, dtype=np.uint8)
    out = flat[8 : 8 + height * width * 4].reshape(height, width, 4)
    assert render_leaves(leaves, extent, (width, height), color, out=out) is out
    assert out.tobytes() == expected.tobytes()
    assert (flat[:8] == 0xAB).all() and (flat[-4:] == 0xAB).all()

    # a column window of a larger image: rows strided, pixels contiguous
    big = np.full((height + 3, width + 5, 4), 0xCD, dtype=np.uint8)
    window = big[1 : 1 + height, 2 : 2 + width]
    render_leaves(leaves, extent, (width, height), color, out=window)
    assert window.tobytes() == expected.tobytes()
    rest = big.copy()
    rest[1 : 1 + height, 2 : 2 + width] = 0xCD
    assert (rest == 0xCD).all()


def test_render_leaves_into_unaligned_buffer():
    leaves = [Polygon([(1, 1), (9, 2), (4, 8)]), LineString([(0, 0), (10, 10)]), Point(5, 5)]
    expected = ref_render_leaves(leaves, (0, 0, 10, 10), (13, 11), COLOR)
    flat = np.zeros(13 * 11 * 4 + 1, dtype=np.uint8)
    out = flat[1:].reshape(11, 13, 4)
    render_leaves(leaves, (0, 0, 10, 10), (13, 11), COLOR, out=out)
    assert out.tobytes() == expected.tobytes()


def test_render_leaves_rejects_non_contiguous_out():
    leaves = [Point(5, 5)]
    big = np.zeros((8, 16, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="C-contiguous"):
        render_leaves(leaves, (0, 0, 10, 10), (8, 8), COLOR, out=big[:, ::2])
    fortran = np.zeros((8, 8, 4), np.uint8, order="F")
    with pytest.raises(ValueError, match="C-contiguous"):
        render_leaves(leaves, (0, 0, 10, 10), (8, 8), COLOR, out=fortran)
    with pytest.raises(ValueError):
        render_leaves(leaves, (0, 0, 10, 10), (8, 8), COLOR, out=np.zeros((8, 9, 4), np.uint8))
    with pytest.raises(ValueError):
        render_leaves(leaves, (0, 0, 10, 10), (8, 8), COLOR, out=np.zeros((8, 8, 4), np.int32))


@given(
    size_px=st.integers(1, 64),
    data=st.data(),
    log_scale=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_render_density_image_matches_per_channel_reference(size_px, data, log_scale):
    n = data.draw(st.integers(0, 200))
    # cols and rows run past the image on both sides
    coord = st.integers(-3, size_px + 3)
    cols = np.array(data.draw(st.lists(coord, min_size=n, max_size=n)), dtype=np.int64)
    rows = np.array(data.draw(st.lists(coord, min_size=n, max_size=n)), dtype=np.int64)
    counts = np.array(
        data.draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n)), dtype=np.int64
    )
    expected = ref_render_density_image(cols, rows, counts, size_px, COLOR, log_scale)
    got = render_density_image(cols, rows, counts, size_px, COLOR, log_scale)
    assert got.tobytes() == expected.tobytes()


@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    r0=st.integers(0, 5),
    c0=st.integers(0, 5),
    step=st.sampled_from([(1, 1), (1, 2), (2, 1), (3, 2)]),
    seed=st.integers(0, 2**16),
    level=st.sampled_from([3, 6]),
)
@settings(max_examples=80, deadline=None)
def test_encode_png_of_strided_crop_equals_contiguous(h, w, r0, c0, step, seed, level):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (r0 + h * step[0] + 2, c0 + w * step[1] + 3, 4), dtype=np.uint8)
    img[:, :, 3] = 255 * (rng.random(img.shape[:2]) < 0.9)  # some runs for zlib to find
    crop = img[r0 : r0 + h * step[0] : step[0], c0 : c0 + w * step[1] : step[1]]
    assert crop.shape == (h, w, 4)
    png = encode_png(crop, level)
    assert png == encode_png(np.ascontiguousarray(crop), level)
    assert (decode_png(png) == crop).all()


# sha1s of background_png as computed before the word kernels: users pin
# them in empty_tile_detection (tcr get-hash), so they must never move
@pytest.mark.parametrize(
    "side, level, sha1",
    [
        (256, 6, "a0504337d5593cdf83e89f2feaf1fbcf0991f89b"),
        (256, 3, "8fa9061646ae05f6f93991ebdf6de2fa5873065d"),
        (2304, 6, "5303feea5a613081232bb9db62ee64aea8eb0044"),
    ],
)
def test_background_png_pinned_hashes(side, level, sha1):
    assert hashlib.sha1(background_png(side, level)).hexdigest() == sha1
