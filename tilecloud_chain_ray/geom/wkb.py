"""WKB (well-known binary) encode/decode for the geometry types.

Standard OGC WKB, little-endian, 2D.  Used to ship layer geometries
through the object store (``ray.put`` of WKB blobs -> worker-side decode),
the role PostGIS WKB plays in the reference
(``/root/reference/tilecloud_chain/__init__.py:1863-1886``).
"""

from __future__ import annotations

import struct

import numpy as np

from tilecloud_chain_ray.geom.geometry import (
    Geometry,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)

_WKB_POINT = 1
_WKB_LINESTRING = 2
_WKB_POLYGON = 3
_WKB_MULTIPOINT = 4
_WKB_MULTILINESTRING = 5
_WKB_MULTIPOLYGON = 6
_WKB_COLLECTION = 7


def geometry_to_wkb(geometry: Geometry) -> bytes:
    out = bytearray()
    _encode(geometry, out)
    return bytes(out)


def _encode(geometry: Geometry, out: bytearray) -> None:
    out.append(1)  # little endian
    if isinstance(geometry, Point):
        out += struct.pack("<Idd", _WKB_POINT, geometry.x, geometry.y)
    elif isinstance(geometry, LineString):
        out += struct.pack("<II", _WKB_LINESTRING, len(geometry.coords))
        out += geometry.coords.astype("<f8").tobytes()
    elif isinstance(geometry, Polygon):
        rings = geometry.rings
        out += struct.pack("<II", _WKB_POLYGON, len(rings))
        for ring in rings:
            out += struct.pack("<I", len(ring))
            out += ring.astype("<f8").tobytes()
    elif isinstance(geometry, (MultiPoint, MultiLineString, MultiPolygon, GeometryCollection)):
        code = {
            MultiPoint: _WKB_MULTIPOINT,
            MultiLineString: _WKB_MULTILINESTRING,
            MultiPolygon: _WKB_MULTIPOLYGON,
            GeometryCollection: _WKB_COLLECTION,
        }[type(geometry)]
        geoms = tuple(geometry.geoms)
        out += struct.pack("<II", code, len(geoms))
        for g in geoms:
            _encode(g, out)
    else:
        raise TypeError(f"unsupported geometry {type(geometry)}")


def geometry_from_wkb(data: bytes) -> Geometry:
    geometry, offset = _decode(memoryview(data), 0)
    return geometry


def _decode(buf: memoryview, offset: int) -> tuple[Geometry, int]:
    endian = buf[offset]
    fmt = "<" if endian == 1 else ">"
    offset += 1
    (code,) = struct.unpack_from(fmt + "I", buf, offset)
    offset += 4
    code &= 0xFF  # strip SRID/Z flags if present upstream
    if code == _WKB_POINT:
        x, y = struct.unpack_from(fmt + "dd", buf, offset)
        return Point(x, y), offset + 16
    if code == _WKB_LINESTRING:
        (n,) = struct.unpack_from(fmt + "I", buf, offset)
        offset += 4
        coords = np.frombuffer(buf, dtype=fmt + "f8", count=n * 2, offset=offset).reshape(n, 2)
        return LineString(coords.copy()), offset + n * 16
    if code == _WKB_POLYGON:
        (nrings,) = struct.unpack_from(fmt + "I", buf, offset)
        offset += 4
        rings = []
        for _ in range(nrings):
            (n,) = struct.unpack_from(fmt + "I", buf, offset)
            offset += 4
            ring = np.frombuffer(buf, dtype=fmt + "f8", count=n * 2, offset=offset).reshape(n, 2)
            rings.append(ring.copy())
            offset += n * 16
        return Polygon(rings[0], rings[1:]), offset
    if code in (_WKB_MULTIPOINT, _WKB_MULTILINESTRING, _WKB_MULTIPOLYGON, _WKB_COLLECTION):
        (n,) = struct.unpack_from(fmt + "I", buf, offset)
        offset += 4
        geoms = []
        for _ in range(n):
            g, offset = _decode(buf, offset)
            geoms.append(g)
        if code == _WKB_MULTIPOINT:
            return MultiPoint(tuple(geoms)), offset
        if code == _WKB_MULTILINESTRING:
            return MultiLineString(tuple(geoms)), offset
        if code == _WKB_MULTIPOLYGON:
            return MultiPolygon(tuple(geoms)), offset
        return GeometryCollection(tuple(geoms)), offset
    raise ValueError(f"unsupported WKB geometry code {code}")
