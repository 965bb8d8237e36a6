"""HTTP (meta)tile fetcher — the real A1 (WMS GetMap) stage.

Reference semantics: ``/root/reference/tilecloud_chain/store/url.py:29-145``
(URLTileStore: aiohttp session, per-host concurrency semaphores,
404/204 -> empty tile, 2xx image/* -> data, 2xx non-image -> the body
is an error message (WMS error XML), missing Content-Type -> error
unless allowed) and the WMS GetMap URL construction of
``generate.py:525-573`` (WMSTileLayout: BBOX from the metatile extent
grown by ``meta_buffer`` pixels, STYLES defaulted per sub-layer,
VERSION >= 1.3 renames SRS -> CRS).

Ray-Data-first shape: the fetcher is a callable CLASS for
``map_batches`` — connection pools, per-host semaphores and the
thread pool are built once per actor in ``__init__``; ``__call__``
fetches one Arrow batch of (meta)tile coords concurrently.  I/O-bound
stages want MANY in-flight requests per CPU, so run it as an actor
pool (``concurrency=N``) with small ``num_cpus`` per actor and size
``requests_per_actor`` to the server's capacity: the cluster-wide
cap on one host is ``actors x per_host_limit``, exactly like the
reference's per-process semaphores under multiprocessing.
"""

from __future__ import annotations

import http.client
import queue
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor

import pyarrow as pa

from tilecloud_chain_ray.config import Layer

# WMS params the layer's own `params` dict may not override
# (reference WMS_RESERVED_PARAMS, server-side copy in generate.py:537)
WMS_RESERVED_PARAMS = {
    "SERVICE", "VERSION", "REQUEST", "LAYERS", "STYLES", "SRS", "CRS",
    "BBOX", "WIDTH", "HEIGHT", "FORMAT", "TRANSPARENT",
}


class WMSLayout:
    """Build GetMap URLs for (meta)tile coord rows over a layer grid.

    The analog of ``tilecloud.layout.wms.WMSTileLayout`` as the
    reference configures it (``generate.py:556-569``): the request
    extent is the metatile extent grown by ``border`` pixels, the
    image size is ``n * tile_size + 2 * border``.
    """

    def __init__(
        self,
        url: str,
        layer: Layer,
        *,
        layers: str | None = None,
        version: str = "1.1.1",
        transparent: bool = True,
        params: dict[str, str] | None = None,
    ) -> None:
        self.base_url = url
        self.layer = layer
        self.layers = layers if layers is not None else layer.name
        self.version = version
        self.transparent = transparent
        extra = dict(params or {})
        for key in list(extra):
            if key.upper() in WMS_RESERVED_PARAMS:
                del extra[key]  # reference warns + drops (generate.py:538-546)
        if "STYLES" not in {k.upper() for k in extra}:
            extra["STYLES"] = ",".join(
                layer.wmts_style for _ in self.layers.split(",")
            )
        self.extra = extra

    def url(self, z: int, x: int, y: int, n: int = 1) -> str:
        grid = self.layer.grid
        border = self.layer.meta_buffer if self.layer.meta else 0
        minx, miny, maxx, maxy = grid.extent(z, x, y, n, border_px=border)
        size = n * grid.tile_size + 2 * border
        params = {
            "SERVICE": "WMS",
            "VERSION": self.version,
            "REQUEST": "GetMap",
            "FORMAT": self.layer.mime_type,
            "TRANSPARENT": "TRUE" if self.transparent else "FALSE",
            "LAYERS": self.layers,
            "SRS": grid.srs,
            "BBOX": f"{minx:f},{miny:f},{maxx:f},{maxy:f}",
            "WIDTH": str(size),
            "HEIGHT": str(size),
            **self.extra,
        }
        if self.version.startswith("1.3"):
            params["CRS"] = params.pop("SRS")
        sep = "&" if "?" in self.base_url else "?"
        return self.base_url + sep + urllib.parse.urlencode(params)


class _HostPool:
    """Keep-alive connection pool + concurrency semaphore for one host."""

    def __init__(self, host: str, port: int, limit: int, timeout: float) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.semaphore = threading.BoundedSemaphore(limit)
        self.idle: queue.SimpleQueue[http.client.HTTPConnection] = queue.SimpleQueue()

    def acquire(self) -> http.client.HTTPConnection:
        try:
            return self.idle.get_nowait()
        except queue.Empty:
            return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def release(self, conn: http.client.HTTPConnection, *, reusable: bool) -> None:
        if reusable:
            self.idle.put(conn)
        else:
            conn.close()


class HTTPFetcher:
    """``map_batches`` actor: GET one URL per row, concurrently.

    Input rows carry either a ``url`` column or (z, x, y[, n]) coords
    resolved through a ``WMSLayout``.  Output appends:

    * ``data``        binary | null — body for 2xx image responses
    * ``content_type``string | null
    * ``fetch_status``string — ``ok`` | ``empty`` (204/404, the
      reference's None tile) | ``error``
    * ``error``       string | null — status line, WMS error XML body,
      or the connection error after retries

    Error rows flow on (the engine's error-budget / error-list stages
    consume them downstream) — one bad tile never kills the job.
    """

    def __init__(
        self,
        layout: WMSLayout | None = None,
        *,
        url_column: str = "url",
        headers: dict[str, str] | None = None,
        allows_no_contenttype: bool = False,
        per_host_limit: int = 8,
        host_limits: dict[str, int] | None = None,
        requests_per_actor: int = 16,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.1,
    ) -> None:
        self.layout = layout
        self.url_column = url_column
        self.headers = dict(headers or {})
        self.allows_no_contenttype = allows_no_contenttype
        self.per_host_limit = per_host_limit
        self.host_limits = dict(host_limits or {})
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._pools: dict[tuple[str, int], _HostPool] = {}
        self._pools_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(max_workers=requests_per_actor)

    # -- per-host plumbing -------------------------------------------------

    def _pool(self, host: str, port: int) -> _HostPool:
        key = (host, port)
        with self._pools_lock:
            pool = self._pools.get(key)
            if pool is None:
                limit = self.host_limits.get(host, self.per_host_limit)
                pool = _HostPool(host, port, limit, self.timeout)
                self._pools[key] = pool
            return pool

    # -- one request ---------------------------------------------------------

    def _fetch_once(self, pool: _HostPool, path: str) -> tuple[object, object, str, object]:
        conn = pool.acquire()
        try:
            conn.request("GET", path, headers=self.headers)
            resp = conn.getresponse()
            body = resp.read()
        except Exception:
            pool.release(conn, reusable=False)
            raise
        pool.release(conn, reusable=not resp.will_close)

        status = resp.status
        content_type = resp.getheader("Content-Type")
        if status in (204, 404):
            # reference url.py:120-122 — an empty tile, not an error
            return None, None, "empty", None
        if status >= 300:
            return None, content_type, "error", f"{status}: {resp.reason}\n{body[:2048].decode('utf-8', 'replace')}"
        error = None
        if status != 200:
            error = f"Unsupported status code {status}: {resp.reason}"
        if content_type:
            if content_type.split(";")[0].strip().startswith("image/"):
                return body, content_type, "error" if error else "ok", error
            # 2xx non-image: the body IS the error (WMS exception XML)
            return None, content_type, "error", body[:4096].decode("utf-8", "replace")
        if self.allows_no_contenttype:
            return body, None, "error" if error else "ok", error
        return None, None, "error", "The Content-Type header is missing"

    def _fetch(self, url: str) -> tuple[object, object, str, object]:
        parts = urllib.parse.urlsplit(url)
        if parts.scheme != "http":
            return None, None, "error", f"unsupported scheme {parts.scheme!r}"
        assert parts.hostname is not None, f"URL missing hostname: {url!r}"
        pool = self._pool(parts.hostname, parts.port or 80)
        path = parts.path or "/"
        if parts.query:
            path += "?" + parts.query
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            with pool.semaphore:
                try:
                    return self._fetch_once(pool, path)
                except Exception as exc:  # connection-level: retry w/ backoff
                    last = exc
            if attempt < self.retries:
                time.sleep(self.backoff * (2**attempt))
        return None, None, "error", f"{type(last).__name__}: {last}"

    # -- the batch transform ---------------------------------------------------

    def _urls(self, batch: pa.Table) -> list[str]:
        if self.layout is None:
            return batch[self.url_column].to_pylist()
        z = batch["z"].to_pylist()
        x = batch["x"].to_pylist()
        y = batch["y"].to_pylist()
        n = batch["n"].to_pylist() if "n" in batch.schema.names else [1] * len(z)
        return [self.layout.url(int(a), int(b), int(c), int(d))
                for a, b, c, d in zip(z, x, y, n)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        results = list(self._executor.map(self._fetch, self._urls(batch)))
        data, ctype, status, error = zip(*results) if results else ((), (), (), ())
        return (
            batch.append_column("data", pa.array(data, pa.binary()))
            .append_column("content_type", pa.array(ctype, pa.string()))
            .append_column("fetch_status", pa.array(status, pa.string()))
            .append_column("error", pa.array(error, pa.string()))
        )


def fetch_tiles(
    ds,
    layer: Layer,
    url: str,
    *,
    concurrency: int = 4,
    batch_size: int = 16,
    num_cpus: float = 0.25,
    drop_empty: bool = True,
    url_column: str = "url",
    headers: dict[str, str] | None = None,
    allows_no_contenttype: bool = False,
    per_host_limit: int = 8,
    host_limits: dict[str, int] | None = None,
    requests_per_actor: int = 16,
    timeout: float = 30.0,
    retries: int = 2,
    backoff: float = 0.1,
):
    """Wire a coord Dataset through an HTTPFetcher actor pool (the
    options from ``url_column`` on are :class:`HTTPFetcher`'s).

    I/O-bound: each actor holds ``requests_per_actor`` in-flight GETs
    but burns little CPU, so ``num_cpus`` is fractional — 4 actors at
    0.25 cpu occupy one core while sustaining 64 concurrent requests.
    ``drop_empty`` removes 204/404 rows (the reference's None tiles
    simply vanish from the stream).
    """
    import pyarrow.compute as pc

    layout = WMSLayout(url, layer)
    fetched = ds.map_batches(
        HTTPFetcher,
        fn_constructor_kwargs=dict(
            layout=layout,
            url_column=url_column,
            headers=headers,
            allows_no_contenttype=allows_no_contenttype,
            per_host_limit=per_host_limit,
            host_limits=host_limits,
            requests_per_actor=requests_per_actor,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=num_cpus,
    )
    if drop_empty:
        fetched = fetched.map_batches(
            lambda b: b.filter(pc.field("fetch_status") != "empty"),
            batch_format="pyarrow",
        )
    return fetched
