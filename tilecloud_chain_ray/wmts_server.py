"""WMTS serving stack: KVP + REST parsing, static/dynamic dispatch,
internal mapcache with per-metatile locks, GetFeatureInfo proxy.

Reference semantics (``/root/reference/tilecloud_chain/server.py``):

* ``serve`` (``:466-746``) — KVP validation order and the exact 400
  messages (Wrong Service / Version / Layer / Style / TileMatrixSet /
  Format / Request, missing-parameter lists), GetCapabilities
  shortcut, dimension defaulting from layer config, GetFeatureInfo
  forwarding to the WMS backend with the tile's extent as BBOX.
* REST routes (``:1103-1219``) —
  ``{version}/{layer}/{style}/[{dims}/]{tilematrixset}/{tilematrix}/
  {tilerow}/{tilecol}.{ext}`` (+ ``/{i}/{j}`` for feature info),
  ``static/{path}`` behind an extension allow-list, and
  ``{version}/WMTSCapabilities.xml``.
* ``_get_tile`` (``:683-746``) — tiles at or below the seeded zoom
  (and inside the layer geometry) come from the static cache, 204 on
  miss; beyond it the internal mapcache generates on demand.
* ``internal_mapcache.fetch`` (``:260-335``) — read cache; on miss
  take the **per-metatile lock**, re-read (another worker may have
  generated while we waited), generate the whole metatile, store every
  child, answer from the fresh set; ``Tile-Backend`` header records
  which path served the request.

Ray-Data-first note: serving is a point-lookup surface, not a Dataset
pipeline.  The cluster-shared mutable cache + per-key locks is exactly
the "shared mutable index" case where a raw Ray actor is the right
tool (``RayMapCache``); a threading twin (``LocalMapCache``) serves
single-process deployments and tests.  Everything else is pure
functions over the same Layer/Grid objects the batch pipelines use.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import urllib.parse
from collections import OrderedDict
from dataclasses import dataclass, field
from mimetypes import guess_type

import numpy as np

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.functions.png import decode_png
from tilecloud_chain_ray.geom.ops import box_intersects_many
from tilecloud_chain_ray.server import TileResponse, get_tile_fs
from tilecloud_chain_ray.sinks.capabilities import wmts_capabilities_xml
from tilecloud_chain_ray.sinks.wmts import tile_path
from tilecloud_chain_ray.stages.split import split_pixels


class WmtsError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class ParsedRequest:
    request: str  # GetCapabilities | GetTile | GetFeatureInfo | Static
    layer: str | None = None
    style: str | None = None
    tilematrixset: str | None = None
    z: int = 0
    col: int = 0
    row: int = 0
    dimensions: dict[str, str] = field(default_factory=dict)
    format: str | None = None
    i: int | None = None
    j: int | None = None
    info_format: str | None = None
    static_path: str | None = None


_REQUIRED_TILE_PARAMS = (
    "FORMAT", "LAYER", "TILEMATRIXSET", "TILEMATRIX", "TILEROW", "TILECOL",
)


def parse_kvp(params: dict[str, str], layers: dict[str, Layer]) -> ParsedRequest:
    """Parse a KVP query dict (case-insensitive keys) into a request.

    Validation order and messages follow the reference ``serve``
    (``server.py:502-676``).
    """
    p = {k.upper(): v for k, v in params.items()}
    if p.get("SERVICE", "WMTS") != "WMTS":
        raise WmtsError(400, f"Wrong Service '{p.get('SERVICE', 'WMTS')}'")
    if p.get("VERSION", "1.0.0") != "1.0.0":
        raise WmtsError(400, f"Wrong Version '{p.get('VERSION', '1.0.0')}'")
    request = p.get("REQUEST", "GetCapabilities")
    if request == "GetCapabilities":
        return ParsedRequest(request="GetCapabilities")

    if any(k not in p for k in _REQUIRED_TILE_PARAMS):
        raise WmtsError(
            400,
            "Not all required parameters are present, required parameters "
            "are FORMAT, LAYER, TILEMATRIXSET, TILEMATRIX, TILEROW, and TILECOL",
        )
    name = p["LAYER"]
    if name not in layers:
        raise WmtsError(400, f"Wrong Layer '{name}'")
    layer = layers[name]

    dimensions = {
        d.name: p.get(d.name.upper(), d.default) for d in layer.dimensions
    }
    if p.get("STYLE") != layer.wmts_style:
        raise WmtsError(400, f"Wrong Style '{p.get('STYLE')}'")
    if p["TILEMATRIXSET"] != layer.grid.name:
        raise WmtsError(
            400,
            f"Wrong TileMatrixSet '{p['TILEMATRIXSET']}' should be in "
            f"'{layer.grid.name}'",
        )

    parsed = ParsedRequest(
        request=request,
        layer=name,
        style=p.get("STYLE"),
        tilematrixset=p["TILEMATRIXSET"],
        z=int(p["TILEMATRIX"]),
        col=int(p["TILECOL"]),
        row=int(p["TILEROW"]),
        dimensions=dimensions,
        format=p["FORMAT"],
    )
    if request == "GetFeatureInfo":
        if any(k not in p for k in ("I", "J", "INFO_FORMAT")):
            raise WmtsError(
                400,
                "Not all required parameters are present, required "
                "parameters are I, J, and INFO_FORMAT",
            )
        parsed.i, parsed.j = int(p["I"]), int(p["J"])
        parsed.info_format = p["INFO_FORMAT"]
        return parsed
    if request != "GetTile":
        raise WmtsError(400, f"Wrong Request '{request}'")
    if parsed.format != layer.mime_type:
        raise WmtsError(400, f"Wrong Format '{parsed.format}'")
    return parsed


_CAPABILITIES_RE = re.compile(r"^(?P<version>[0-9.]+)/WMTSCapabilities\.xml$")


def parse_rest(path: str, layers: dict[str, Layer]) -> ParsedRequest:
    """Parse a REST path (no leading slash) into a request.

    Route shapes mirror the reference's FastAPI routes
    (``server.py:1103-1219``); the dimensions segment length comes
    from the layer's own dimension list, as in the reference where
    missing dimensions on a dimensioned layer is a 400.
    """
    path = path.lstrip("/")
    if path.startswith("static/"):
        return ParsedRequest(request="Static", static_path=path[len("static/"):])
    m = _CAPABILITIES_RE.match(path)
    if m:
        if m.group("version") != "1.0.0":
            raise WmtsError(400, f"Wrong Version '{m.group('version')}'")
        return ParsedRequest(request="GetCapabilities")

    parts = path.split("/")
    if len(parts) < 6:
        raise WmtsError(400, f"Not a WMTS path '{path}'")
    version, name, style = parts[0], parts[1], parts[2]
    if version != "1.0.0":
        raise WmtsError(400, f"Wrong Version '{version}'")
    if name not in layers:
        raise WmtsError(400, f"Wrong Layer '{name}'")
    layer = layers[name]
    ndims = len(layer.dimensions)
    rest = parts[3:]

    # trailing segments: either {tms}/{z}/{row}/{col}.{ext} (GetTile)
    # or {tms}/{z}/{row}/{col}/{i}/{j} (GetFeatureInfo)
    feature_info = len(rest) - ndims == 6
    tail = 6 if feature_info else 4
    if len(rest) - ndims != tail:
        raise WmtsError(
            400,
            f"Wrong path '{path}': layer '{name}' has {ndims} dimension(s)",
        )
    dims = rest[:ndims]
    rest = rest[ndims:]
    parsed = ParsedRequest(
        request="GetFeatureInfo" if feature_info else "GetTile",
        layer=name,
        style=style,
        tilematrixset=rest[0],
        dimensions=dict(zip((d.name for d in layer.dimensions), dims)),
    )
    if style != layer.wmts_style:
        raise WmtsError(400, f"Wrong Style '{style}'")
    if parsed.tilematrixset != layer.grid.name:
        raise WmtsError(
            400,
            f"Wrong TileMatrixSet '{parsed.tilematrixset}' should be in "
            f"'{layer.grid.name}'",
        )
    try:
        parsed.z = int(rest[1])
        parsed.row = int(rest[2])
        if feature_info:
            parsed.col = int(rest[3])
            parsed.i, parsed.j = int(rest[4]), int(rest[5])
            parsed.info_format = "application/json"
            parsed.format = layer.mime_type
        else:
            col, _, ext = rest[3].rpartition(".")
            if not col or ext != layer.extension:
                raise WmtsError(400, f"Wrong extension '{rest[3]}'")
            parsed.col = int(col)
            parsed.format = layer.mime_type
    except ValueError as exc:
        raise WmtsError(400, f"Bad tile index in '{path}': {exc}") from None
    return parsed


# -- internal mapcache ----------------------------------------------------


class LocalMapCache:
    """In-process mapcache: bounded LRU of tile payloads + one lock per
    metatile key (reference ``RedisStore`` get/put/lock surface,
    ``internal_mapcache.py:53-148``).  A cached ``None`` payload means
    "known empty" -> 204 without regeneration."""

    def __init__(self, max_entries: int = 2048) -> None:
        self.max_entries = max_entries
        self._store: OrderedDict[str, tuple[str | None, bytes | None]] = OrderedDict()
        self._store_lock = threading.Lock()
        self._tile_locks: dict[str, threading.Lock] = {}

    def get(self, key: str):
        with self._store_lock:
            if key not in self._store:
                return None
            self._store.move_to_end(key)
            return self._store[key]

    def put(self, key: str, content_type: str | None, data: bytes | None) -> None:
        with self._store_lock:
            self._store[key] = (content_type, data)
            self._store.move_to_end(key)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)

    def lock(self, key: str):
        with self._store_lock:
            lock = self._tile_locks.setdefault(key, threading.Lock())
        return lock


try:  # pragma: no cover - exercised via RayMapCache tests
    import ray

    @ray.remote(num_cpus=0)
    class _MapCacheActor:
        """Async actor: cluster-shared store + per-metatile asyncio locks
        (the Redis analog: one cache and one lock namespace visible from
        every serving process on every node)."""

        def __init__(self, max_entries: int) -> None:
            import asyncio

            self._asyncio = asyncio
            self.max_entries = max_entries
            self._store: OrderedDict[str, tuple[str | None, bytes | None]] = OrderedDict()
            self._locks: dict[str, object] = {}

        async def get(self, key: str):
            if key not in self._store:
                return None
            self._store.move_to_end(key)
            return self._store[key]

        async def put(self, key: str, content_type, data) -> None:
            self._store[key] = (content_type, data)
            self._store.move_to_end(key)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)

        async def acquire(self, key: str) -> None:
            await self._locks.setdefault(key, self._asyncio.Lock()).acquire()

        async def release(self, key: str) -> None:
            lock = self._locks.get(key)
            if lock is not None and lock.locked():
                lock.release()

except ImportError:  # pragma: no cover
    _MapCacheActor = None


class _ActorLock:
    def __init__(self, actor, key: str) -> None:
        self.actor, self.key = actor, key

    def __enter__(self):
        import ray

        ray.get(self.actor.acquire.remote(self.key))
        return self

    def __exit__(self, *exc) -> bool:
        self.actor.release.remote(self.key)
        return False


class RayMapCache:
    """Same surface as :class:`LocalMapCache`, backed by one detached-by
    -handle actor so every serving worker in the cluster shares the
    cache and the per-metatile locks."""

    def __init__(self, max_entries: int = 2048, actor=None) -> None:
        self.actor = (
            actor
            if actor is not None
            else _MapCacheActor.remote(max_entries)
        )

    def get(self, key: str):
        import ray

        return ray.get(self.actor.get.remote(key))

    def put(self, key: str, content_type, data) -> None:
        import ray

        ray.get(self.actor.put.remote(key, content_type, data))

    def lock(self, key: str):
        return _ActorLock(self.actor, key)


# -- the server ----------------------------------------------------------


def default_tile_source(layer: Layer):
    """Deterministic metatile source: the same renderer the generate
    pipeline uses (A1 substitute; swap for ``wms_tile_source`` against
    a real server).  It returns the RGBA pixels, which
    ``split_metatile`` crops without a PNG round-trip."""
    from tilecloud_chain_ray.stages.render import layer_color, render_geometries

    geoms = [getattr(g, "geometry", g) for g in layer.geometries]
    color = layer_color(layer.name)

    def source(z: int, x: int, y: int, n: int) -> np.ndarray:
        border = layer.meta_buffer if layer.meta else 0
        size = n * layer.grid.tile_size + 2 * border
        extent = layer.grid.extent(z, x, y, n, border_px=border)
        return render_geometries(geoms, extent, (size, size), color)

    return source


def wms_tile_source(layer: Layer, wms_url: str, **fetcher_kwargs):
    """Metatile source backed by a live WMS server (reference
    ``internal_mapcache.Generator`` pulls through the URL store)."""
    from tilecloud_chain_ray.stages.fetch import HTTPFetcher, WMSLayout

    layout = WMSLayout(wms_url, layer)
    fetcher = HTTPFetcher(**fetcher_kwargs)

    def source(z: int, x: int, y: int, n: int) -> bytes:
        data, _ctype, status, error = fetcher._fetch(layout.url(z, x, y, n))
        if status != "ok":
            raise WmtsError(502, error or "empty tile from WMS backend")
        return data

    return source


def split_metatile(layer: Layer, data: bytes | np.ndarray, mx: int, my: int, n: int):
    """Yield ``(x, y, png_bytes)`` children of a metatile given as RGBA
    pixels or as PNG bytes (decoded once) — the serving path's use of
    the generate pipeline's ``stages/split.split_pixels``."""
    img = data if isinstance(data, np.ndarray) else decode_png(data)
    buf = layer.meta_buffer if layer.meta else 0
    for dx, dy, png in split_pixels(img, n, layer.grid.tile_size, buf):
        yield mx + dx, my + dy, png


def filter_tilecoord(layer: Layer, geoms, z: int, x: int, y: int, n: int) -> bool:
    """Single-coord version of ``stages/geom_filter.CoordGeomFilter``
    (reference ``filter_tilecoord``, ``server.py:700-717``)."""
    geom = geoms.get(z)
    if geom is None or geom.is_empty:
        return False
    grid = layer.grid
    res = grid.res_scaled(z) / grid.scale
    border = grid.resolutions[z] * layer.filter_px_buffer()
    ts = grid.tile_size
    box = np.array(
        [
            [
                grid.bbox[0] + (ts * x - border) * res,
                grid.bbox[3] - (ts * (y + n) + border) * res,
                grid.bbox[0] + (ts * (x + n) + border) * res,
                grid.bbox[3] - (ts * y - border) * res,
            ]
        ]
    )
    return bool(box_intersects_many(geom, box)[0])


class WmtsServer:
    """The serving stack over a generated pyramid + dynamic mapcache.

    ``root`` is the static WMTS filesystem layout (None = no static
    cache, everything dynamic).  ``mapcache`` turns on the dynamic path
    for tiles beyond ``max_zoom_seed`` or outside the layer geometry;
    ``tile_source`` computes a missing metatile as RGBA pixels or PNG
    bytes (default: the deterministic renderer, pixels).
    ``feature_info`` maps layer name -> ``{"url": ..., "query_layers":
    ..., "layers": ...}`` for the GetFeatureInfo WMS proxy.
    """

    STATIC_ALLOW_EXTENSION = ("png", "jpeg", "jpg", "xml", "json")

    def __init__(
        self,
        layers: dict[str, Layer] | list[Layer],
        root: str | None = None,
        *,
        mapcache=None,
        tile_source=None,
        max_zoom_seed: dict[str, int] | int | None = None,
        feature_info: dict[str, dict] | None = None,
        expires_hours: float = 8.0,
        static_allow_extension: tuple[str, ...] | None = None,
    ) -> None:
        if not isinstance(layers, dict):
            layers = {layer.name: layer for layer in layers}
        self.layers = layers
        self.root = root
        self.mapcache = mapcache
        self._tile_sources = {}
        self._tile_source_factory = tile_source or default_tile_source
        self.max_zoom_seed = max_zoom_seed
        self.feature_info = dict(feature_info or {})
        self.expires_hours = expires_hours
        self.static_allow = tuple(
            static_allow_extension or self.STATIC_ALLOW_EXTENSION
        )
        self._geoms = {}
        self._capabilities: str | None = None

    # -- helpers --

    def _cache_headers(self) -> dict:
        import datetime

        expires = datetime.datetime.now(tz=datetime.timezone.utc) + datetime.timedelta(
            hours=self.expires_hours
        )
        return {
            "Expires": expires.isoformat(),
            "Cache-Control": f"max-age={int(3600 * self.expires_hours)}",
        }

    def _layer_max_zoom_seed(self, layer: Layer) -> int:
        if isinstance(self.max_zoom_seed, dict):
            if layer.name in self.max_zoom_seed:
                return self.max_zoom_seed[layer.name]
        elif self.max_zoom_seed is not None:
            return int(self.max_zoom_seed)
        zooms = layer.seed_zooms()
        return max(zooms) if zooms else len(layer.grid.resolutions) - 1

    def _layer_geoms(self, layer: Layer):
        if layer.name not in self._geoms:
            self._geoms[layer.name] = layer.geoms_per_zoom()
        return self._geoms[layer.name]

    def _source(self, layer: Layer):
        if layer.name not in self._tile_sources:
            self._tile_sources[layer.name] = self._tile_source_factory(layer)
        return self._tile_sources[layer.name]

    # -- entry point --

    def handle(
        self,
        path: str,
        query: dict[str, str] | str | None = None,
        *,
        if_none_match: str | None = None,
    ) -> TileResponse:
        """Serve one request; ``path`` is the URL path (REST) and
        ``query`` the KVP parameters (used when ``path`` is empty).

        ``if_none_match``: the request's ``If-None-Match`` header.
        Conditional GET is an extension beyond the reference (its
        FastAPI server sends only Expires/Cache-Control,
        ``server.py:501-505``): every 200 body gets a strong
        content-addressed ``ETag`` (sha1 of the bytes — the same hash
        the empty-tile drop uses), and a matching ``If-None-Match``
        short-circuits to ``304 Not Modified`` with the cache headers
        preserved."""
        if isinstance(query, str):
            query = dict(urllib.parse.parse_qsl(query))
        try:
            if path.strip("/") == "" and query:
                parsed = parse_kvp(query, self.layers)
            else:
                parsed = parse_rest(path, self.layers)
            resp = self._dispatch(parsed)
        except WmtsError as exc:
            return TileResponse(exc.status, message=exc.message)
        return self._conditional(resp, if_none_match)

    @staticmethod
    def _conditional(resp: TileResponse, if_none_match: str | None) -> TileResponse:
        if resp.status != 200 or resp.data is None:
            return resp
        etag = f'"{hashlib.sha1(resp.data).hexdigest()}"'
        resp.headers = {**(resp.headers or {}), "ETag": etag}
        if if_none_match is not None:
            candidates = {v.strip() for v in if_none_match.split(",")}
            if etag in candidates or "*" in candidates:
                return TileResponse(304, headers=resp.headers)
        return resp

    def _dispatch(self, parsed: ParsedRequest) -> TileResponse:
        if parsed.request == "GetCapabilities":
            if self._capabilities is None:
                self._capabilities = wmts_capabilities_xml(list(self.layers.values()))
            return TileResponse(
                200,
                data=self._capabilities.encode(),
                content_type="application/xml",
                headers=self._cache_headers(),
            )
        if parsed.request == "Static":
            return self._static(parsed.static_path or "")
        if parsed.request == "GetFeatureInfo":
            return self._feature_info(parsed)
        return self._get_tile(parsed)

    # -- request classes --

    def _static(self, rel: str) -> TileResponse:
        if self.root is None:
            return TileResponse(404, message="no static cache configured")
        if rel.rsplit(".", maxsplit=1)[-1].lower() not in self.static_allow:
            return TileResponse(403, message="Extension not allowed")
        # realpath, not abspath: a symlink under the static root must not
        # escape it (abspath leaves symlinks unresolved, so a link to
        # /etc/... would pass the prefix check).
        base = os.path.realpath(self.root)
        path = os.path.realpath(os.path.join(base, rel))
        if not path.startswith(base + os.sep):
            return TileResponse(403, message="Path not allowed")
        if not os.path.isfile(path):
            return TileResponse(404, message=f"{rel} not found")
        with open(path, "rb") as fh:
            return TileResponse(
                200,
                data=fh.read(),
                content_type=guess_type(path)[0],
                headers=self._cache_headers(),
            )

    def _get_tile(self, parsed: ParsedRequest) -> TileResponse:
        layer = self.layers[parsed.layer]
        z, x, y = parsed.z, parsed.col, parsed.row
        if not 0 <= z < len(layer.grid.resolutions):
            return TileResponse(400, message=f"zoom {z} out of range")
        width, height = layer.grid.matrix_dims(z)
        if not (0 <= x < width and 0 <= y < height):
            return TileResponse(
                400, message=f"tile {x}/{y} outside matrix {width}x{height}"
            )

        dims = tuple(parsed.dimensions.values())
        if self.mapcache is not None:
            beyond_seed = z > self._layer_max_zoom_seed(layer)
            meta_size = layer.meta_size if layer.meta else 1
            mx, my = (x // meta_size) * meta_size, (y // meta_size) * meta_size
            outside = layer.geom_filter and not filter_tilecoord(
                layer, self._layer_geoms(layer), z, mx, my, meta_size
            )
            if beyond_seed or outside:
                return self._map_cache(layer, parsed, mx, my, meta_size)

        if self.root is None:
            return TileResponse(400, message=f"No store found for layer '{layer.name}'")
        resp = get_tile_fs(self.root, layer, z, x, y, dims)
        if resp.status == 200:
            resp.headers = {**self._cache_headers(), "Tile-Backend": "Cache"}
        return resp

    def _map_cache(
        self, layer: Layer, parsed: ParsedRequest, mx: int, my: int, n: int
    ) -> TileResponse:
        z, x, y = parsed.z, parsed.col, parsed.row
        dims = tuple(parsed.dimensions.values())
        key = tile_path("mapcache", layer, z, x, y, dims)
        backend = "mapcache"
        cached = self.mapcache.get(key)
        if cached is None:
            backend = "mapcache-wait"
            meta_key = tile_path("mapcache", layer, z, mx, my, dims) + f"@{n}"
            with self.mapcache.lock(meta_key):
                cached = self.mapcache.get(key)
                if cached is None:
                    backend = "mapcache-generate"
                    try:
                        data = self._source(layer)(z, mx, my, n)
                    except WmtsError as exc:
                        return TileResponse(exc.status, message=exc.message)
                    empty = layer.empty_tile
                    for cx, cy, png in split_metatile(layer, data, mx, my, n):
                        if (
                            empty is not None
                            and len(png) == empty.size
                            and hashlib.sha1(png).hexdigest() == empty.sha1
                        ):
                            png = None
                        self.mapcache.put(
                            tile_path("mapcache", layer, z, cx, cy, dims),
                            layer.mime_type if png is not None else None,
                            png,
                        )
                    cached = self.mapcache.get(key)
                    if cached is None:
                        return TileResponse(
                            500,
                            message=f"tile {z}/{x}/{y} missing from generated "
                            f"metatile {z}/{mx}/{my}@{n}",
                        )
        content_type, data = cached
        if data is None:
            return TileResponse(204, headers={"Tile-Backend": backend})
        return TileResponse(
            200,
            data=data,
            content_type=content_type,
            headers={**self._cache_headers(), "Tile-Backend": backend},
        )

    def _feature_info(self, parsed: ParsedRequest) -> TileResponse:
        layer = self.layers[parsed.layer]
        info = self.feature_info.get(parsed.layer)
        if not info or "url" not in info:
            return TileResponse(400, message=f"Layer '{parsed.layer}' not queryable")
        grid = layer.grid
        bbox = grid.extent(parsed.z, parsed.col, parsed.row, 1)
        params = {
            "SERVICE": "WMS",
            "VERSION": info.get("version", "1.1.1"),
            "REQUEST": "GetFeatureInfo",
            "LAYERS": info.get("layers", parsed.layer),
            "QUERY_LAYERS": info.get("query_layers", info.get("layers", parsed.layer)),
            "STYLES": parsed.style or "",
            "FORMAT": parsed.format or layer.mime_type,
            "INFO_FORMAT": parsed.info_format or "application/json",
            "WIDTH": str(grid.tile_size),
            "HEIGHT": str(grid.tile_size),
            "SRS": grid.srs,
            "BBOX": ",".join(str(v) for v in bbox),
            "X": str(parsed.i),
            "Y": str(parsed.j),
            **{name: value for name, value in parsed.dimensions.items()},
        }
        url = info["url"] + ("&" if "?" in info["url"] else "?") + urllib.parse.urlencode(params)
        return self._forward(url)

    def _forward(self, url: str) -> TileResponse:
        """Forward to the WMS backend (reference ``Server.forward``,
        ``server.py:758-827``): 200 passes body+type through, anything
        else is a 502 with the upstream status in the message."""
        import http.client

        parts = urllib.parse.urlsplit(url)
        if parts.scheme == "https":
            conn = http.client.HTTPSConnection(parts.hostname, parts.port or 443, timeout=30)
        elif parts.scheme == "http":
            conn = http.client.HTTPConnection(parts.hostname, parts.port or 80, timeout=30)
        else:
            return TileResponse(
                502, message=f"The URL '{url}' has unsupported scheme '{parts.scheme}'"
            )
        try:
            path = parts.path + ("?" + parts.query if parts.query else "")
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            if resp.status == 200:
                return TileResponse(
                    200,
                    data=body,
                    content_type=resp.getheader("Content-Type"),
                    headers={"Cache-Control": "no-cache"},
                )
            return TileResponse(
                502,
                message=f"The URL '{url}' return '{resp.status} {resp.reason}', "
                f"content:\n{body[:1000].decode('utf-8', 'replace')}",
            )
        except OSError as exc:
            return TileResponse(502, message=f"The URL '{url}' failed: {exc}")
        finally:
            conn.close()


def serve_wmts(server: WmtsServer, host: str = "127.0.0.1", port: int = 0):
    """Expose a :class:`WmtsServer` over HTTP (threaded, stdlib-only).

    Returns the running ``ThreadingHTTPServer``; call ``.shutdown()``
    to stop.  The URL base is ``http://{host}:{server_port}/``.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_GET(self):
            parts = urllib.parse.urlsplit(self.path)
            resp = server.handle(
                urllib.parse.unquote(parts.path),
                parts.query or None,
                if_none_match=self.headers.get("If-None-Match"),
            )
            body = resp.data if resp.data is not None else (resp.message or "").encode()
            if resp.status == 304:
                body = b""  # a 304 carries no body by RFC 9110
            self.send_response(resp.status)
            if resp.content_type:
                self.send_header("Content-Type", resp.content_type)
            for k, v in (resp.headers or {}).items():
                self.send_header(k, v)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if body and self.command != "HEAD":
                self.wfile.write(body)

    httpd = ThreadingHTTPServer((host, port), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd
