"""WMTS serving stack: KVP/REST parsing, static/dynamic dispatch,
per-metatile mapcache locks, feature-info proxy.

Reference behaviors under test: ``/root/reference/tilecloud_chain/
server.py:466-746`` (validation messages, 204 miss, Tile-Backend
header) and ``internal_mapcache.py:260-335`` (lock -> re-read ->
generate metatile -> store children)."""

import json
import os
import threading
import time
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from tilecloud_chain_ray.config import Dimension, Layer
from tilecloud_chain_ray.geom import MultiPoint, Point
from tilecloud_chain_ray.grid import SWISSGRID_5
from tilecloud_chain_ray.stages.hashdrop import empty_signatures
from tilecloud_chain_ray.wmts_server import (
    LocalMapCache,
    RayMapCache,
    WmtsError,
    WmtsServer,
    parse_kvp,
    parse_rest,
    serve_wmts,
)

POINTS = MultiPoint((Point(600000, 200000), Point(530000, 150000)))
DATE = Dimension(name="DATE", default="2012", generate=("2012",), values=("2012",))


def make_layer(**kw):
    defaults = dict(
        name="point_hash",
        grid=SWISSGRID_5,
        geometries=(POINTS,),
        meta=True,
        meta_size=8,
        meta_buffer=128,
        min_resolution_seed=10,
    )
    defaults.update(kw)
    return Layer(**defaults)


LAYERS = {"point_hash": make_layer()}
DIM_LAYERS = {"dated": make_layer(name="dated", dimensions=(DATE,))}


# -- KVP parsing ---------------------------------------------------------


def kvp(**kw):
    base = dict(
        SERVICE="WMTS",
        VERSION="1.0.0",
        REQUEST="GetTile",
        LAYER="point_hash",
        STYLE="default",
        TILEMATRIXSET="swissgrid_5",
        TILEMATRIX="3",
        TILEROW="58",
        TILECOL="70",
        FORMAT="image/png",
    )
    base.update(kw)
    return {k: v for k, v in base.items() if v is not None}


def test_kvp_get_tile():
    p = parse_kvp(kvp(), LAYERS)
    assert (p.request, p.layer, p.z, p.row, p.col) == ("GetTile", "point_hash", 3, 58, 70)
    assert p.format == "image/png" and p.dimensions == {}


def test_kvp_validation_messages():
    with pytest.raises(WmtsError, match="Wrong Service 'WMS'"):
        parse_kvp(kvp(SERVICE="WMS"), LAYERS)
    with pytest.raises(WmtsError, match="Wrong Version '1.1.0'"):
        parse_kvp(kvp(VERSION="1.1.0"), LAYERS)
    with pytest.raises(WmtsError, match="required parameters are FORMAT"):
        parse_kvp(kvp(FORMAT=None), LAYERS)
    with pytest.raises(WmtsError, match="Wrong Layer 'nope'"):
        parse_kvp(kvp(LAYER="nope"), LAYERS)
    with pytest.raises(WmtsError, match="Wrong Style 'fancy'"):
        parse_kvp(kvp(STYLE="fancy"), LAYERS)
    with pytest.raises(WmtsError, match="Wrong TileMatrixSet 'webmercator'"):
        parse_kvp(kvp(TILEMATRIXSET="webmercator"), LAYERS)
    with pytest.raises(WmtsError, match="Wrong Format 'image/jpeg'"):
        parse_kvp(kvp(FORMAT="image/jpeg"), LAYERS)
    with pytest.raises(WmtsError, match="Wrong Request 'GetMap'"):
        parse_kvp(kvp(REQUEST="GetMap"), LAYERS)


def test_kvp_defaults_and_dimensions():
    # SERVICE/VERSION/REQUEST default like the reference signature
    p = parse_kvp({}, LAYERS)
    assert p.request == "GetCapabilities"
    p = parse_kvp(kvp(LAYER="dated", DATE="2012"), DIM_LAYERS)
    assert p.dimensions == {"DATE": "2012"}
    p = parse_kvp(kvp(LAYER="dated"), DIM_LAYERS)
    assert p.dimensions == {"DATE": "2012"}  # default applied


def test_kvp_feature_info():
    with pytest.raises(WmtsError, match="required parameters are I, J"):
        parse_kvp(kvp(REQUEST="GetFeatureInfo"), LAYERS)
    p = parse_kvp(
        kvp(REQUEST="GetFeatureInfo", I="10", J="20", INFO_FORMAT="application/json"),
        LAYERS,
    )
    assert (p.request, p.i, p.j) == ("GetFeatureInfo", 10, 20)


# -- REST parsing --------------------------------------------------------


def test_rest_get_tile():
    p = parse_rest("1.0.0/point_hash/default/swissgrid_5/3/70/58.png", LAYERS)
    assert (p.request, p.layer, p.z, p.row, p.col) == ("GetTile", "point_hash", 3, 70, 58)
    p = parse_rest("/1.0.0/dated/default/2012/swissgrid_5/2/35/29.png", DIM_LAYERS)
    assert p.dimensions == {"DATE": "2012"} and (p.z, p.row, p.col) == (2, 35, 29)


def test_rest_feature_info_capabilities_static():
    p = parse_rest("1.0.0/point_hash/default/swissgrid_5/3/70/58/12/34", LAYERS)
    assert (p.request, p.i, p.j) == ("GetFeatureInfo", 12, 34)
    assert parse_rest("1.0.0/WMTSCapabilities.xml", LAYERS).request == "GetCapabilities"
    p = parse_rest("static/1.0.0/WMTSCapabilities.xml", LAYERS)
    assert p.request == "Static" and p.static_path == "1.0.0/WMTSCapabilities.xml"


def test_rest_errors():
    with pytest.raises(WmtsError, match="Wrong Version '2.0.0'"):
        parse_rest("2.0.0/point_hash/default/swissgrid_5/3/70/58.png", LAYERS)
    with pytest.raises(WmtsError, match="Wrong Layer 'nope'"):
        parse_rest("1.0.0/nope/default/swissgrid_5/3/70/58.png", LAYERS)
    with pytest.raises(WmtsError, match="Wrong Style 'fancy'"):
        parse_rest("1.0.0/point_hash/fancy/swissgrid_5/3/70/58.png", LAYERS)
    with pytest.raises(WmtsError, match="has 1 dimension"):
        parse_rest("1.0.0/dated/default/swissgrid_5/3/70/58.png", DIM_LAYERS)
    with pytest.raises(WmtsError, match="Wrong extension"):
        parse_rest("1.0.0/point_hash/default/swissgrid_5/3/70/58.jpeg", LAYERS)
    with pytest.raises(WmtsError, match="Not a WMTS path"):
        parse_rest("1.0.0/point_hash", LAYERS)


# -- static pyramid serving ---------------------------------------------


@pytest.fixture(scope="module")
def pyramid(tmp_path_factory, request):
    request.getfixturevalue("ray_session")
    from tilecloud_chain_ray.pipelines.generate import generate_tiles

    root = str(tmp_path_factory.mktemp("pyramid"))
    layer = make_layer()
    generate_tiles(layer, out_wmts=root, with_summary=False).tiles.count()
    return root


@pytest.mark.usefixtures("ray_session")
def test_static_tile_serving(pyramid):
    srv = WmtsServer(LAYERS, pyramid)
    ok = srv.handle("1.0.0/point_hash/default/swissgrid_5/3/58/70.png")
    assert ok.status == 200 and ok.data.startswith(b"\x89PNG")
    assert ok.headers["Tile-Backend"] == "Cache"
    assert ok.content_type == "image/png"
    # dropped (empty) tile -> 204; out-of-matrix -> 400; bad layer -> 400
    assert srv.handle("1.0.0/point_hash/default/swissgrid_5/3/0/0.png").status == 204
    assert srv.handle("1.0.0/point_hash/default/swissgrid_5/3/9999/0.png").status == 400
    assert srv.handle("1.0.0/nope/default/swissgrid_5/3/0/0.png").status == 400
    # same tile via KVP
    q = urllib.parse.urlencode(kvp())
    assert srv.handle("/", q).status == 200


def test_capabilities_and_static_files(tmp_path):
    root = tmp_path / "cache"
    (root / "1.0.0").mkdir(parents=True)
    (root / "1.0.0" / "legend.png").write_bytes(b"\x89PNGfake")
    (root / "1.0.0" / "secret.key").write_bytes(b"nope")
    srv = WmtsServer(LAYERS, str(root))
    cap = srv.handle("1.0.0/WMTSCapabilities.xml")
    assert cap.status == 200 and b"<Capabilities" in cap.data
    assert cap.content_type == "application/xml"
    assert b"point_hash" in cap.data
    ok = srv.handle("static/1.0.0/legend.png")
    assert ok.status == 200 and ok.data == b"\x89PNGfake"
    assert srv.handle("static/1.0.0/secret.key").status == 403
    assert srv.handle("static/1.0.0/missing.png").status == 404
    assert srv.handle("static/../../etc/passwd.png").status == 403


def test_static_symlink_escape_blocked(tmp_path):
    """A symlink placed under the static root pointing outside it must
    not be served (realpath, not abspath, guards the prefix check)."""
    root = tmp_path / "cache"
    (root / "1.0.0").mkdir(parents=True)
    outside = tmp_path / "outside.png"
    outside.write_bytes(b"\x89PNGsecret")
    os.symlink(str(outside), str(root / "1.0.0" / "leak.png"))
    srv = WmtsServer(LAYERS, str(root))
    assert srv.handle("static/1.0.0/leak.png").status == 403
    # a symlink that stays inside the root still serves
    (root / "1.0.0" / "real.png").write_bytes(b"\x89PNGok")
    os.symlink(str(root / "1.0.0" / "real.png"), str(root / "1.0.0" / "alias.png"))
    ok = srv.handle("static/1.0.0/alias.png")
    assert ok.status == 200 and ok.data == b"\x89PNGok"


def test_forward_rejects_unknown_scheme():
    from tilecloud_chain_ray.wmts_server import WmtsServer

    srv = WmtsServer(LAYERS, None)
    resp = srv._forward("ftp://example.invalid/info")
    assert resp.status == 502 and "scheme" in resp.message


# -- internal mapcache ---------------------------------------------------


def counting_source(layer, calls, delay=0.0):
    from tilecloud_chain_ray.wmts_server import default_tile_source

    inner = default_tile_source(layer)

    def source(z, x, y, n):
        calls.append((z, x, y, n))
        if delay:
            time.sleep(delay)
        return inner(z, x, y, n)

    return source


def test_mapcache_generate_and_hit(pyramid):
    layer = make_layer(empty_tile=empty_signatures(make_layer())[1])
    calls = []
    srv = WmtsServer(
        {"point_hash": layer},
        pyramid,
        mapcache=LocalMapCache(),
        tile_source=lambda l: counting_source(l, calls),
        max_zoom_seed=2,  # z3 becomes dynamic
    )
    path = "1.0.0/point_hash/default/swissgrid_5/3/58/70.png"
    first = srv.handle(path)
    assert first.status == 200 and first.headers["Tile-Backend"] == "mapcache-generate"
    # byte-identical to what the generate pipeline stored
    static = WmtsServer(LAYERS, pyramid).handle(path)
    assert first.data == static.data
    # one metatile generated, covering the requested tile
    assert calls == [(3, 64, 56, 8)]
    # second request: cache hit, no regeneration
    again = srv.handle(path)
    assert again.status == 200 and again.headers["Tile-Backend"] == "mapcache"
    assert calls == [(3, 64, 56, 8)]
    # empty sibling inside the same metatile -> cached 204, still no regen
    empty = srv.handle("1.0.0/point_hash/default/swissgrid_5/3/58/71.png")
    assert empty.status == 204 and empty.headers["Tile-Backend"] == "mapcache"
    assert calls == [(3, 64, 56, 8)]


def test_mapcache_outside_geometry_goes_dynamic(pyramid):
    # z3 is seeded, but metatile (3, 0, 0) is outside the layer geometry
    # (beyond the 128 px filter buffer): the reference routes those to
    # the mapcache too (server.py:700-717)
    calls = []
    srv = WmtsServer(
        LAYERS,
        pyramid,
        mapcache=LocalMapCache(),
        tile_source=lambda l: counting_source(l, calls),
    )
    resp = srv.handle("1.0.0/point_hash/default/swissgrid_5/3/0/0.png")
    assert resp.status == 200  # dynamically rendered background tile
    assert resp.headers["Tile-Backend"] == "mapcache-generate"
    assert calls == [(3, 0, 0, 8)]
    # the seeded, inside-geometry tile still comes from the static cache
    ok = srv.handle("1.0.0/point_hash/default/swissgrid_5/3/58/70.png")
    assert ok.status == 200 and ok.headers["Tile-Backend"] == "Cache"
    assert len(calls) == 1


def test_mapcache_lock_single_generation(pyramid):
    calls = []
    srv = WmtsServer(
        LAYERS,
        pyramid,
        mapcache=LocalMapCache(),
        tile_source=lambda l: counting_source(l, calls, delay=0.2),
        max_zoom_seed=2,
    )
    results = []

    def hit(col, row):
        results.append(
            srv.handle(f"1.0.0/point_hash/default/swissgrid_5/3/{row}/{col}.png").status
        )

    threads = [
        threading.Thread(target=hit, args=(56 + i % 8, 64 + i // 8)) for i in range(12)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # 12 concurrent requests into one metatile: generated exactly once
    assert len(calls) == 1
    assert all(s in (200, 204) for s in results)


@pytest.mark.usefixtures("ray_session")
def test_ray_mapcache_shared(pyramid):
    calls = []
    srv = WmtsServer(
        LAYERS,
        pyramid,
        mapcache=RayMapCache(),
        tile_source=lambda l: counting_source(l, calls, delay=0.1),
        max_zoom_seed=2,
    )
    statuses = []
    threads = [
        threading.Thread(
            target=lambda c=c: statuses.append(
                srv.handle(f"1.0.0/point_hash/default/swissgrid_5/3/64/{c}.png").status
            )
        )
        for c in range(56, 64)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1  # actor lock serialized the metatile generation
    assert sorted(set(statuses)) in ([200], [204], [200, 204])
    # a SECOND server instance sharing the same actor sees the cache
    srv2 = WmtsServer(
        LAYERS,
        pyramid,
        mapcache=RayMapCache(actor=srv.mapcache.actor),
        tile_source=lambda l: counting_source(l, calls),
        max_zoom_seed=2,
    )
    r = srv2.handle("1.0.0/point_hash/default/swissgrid_5/3/64/56.png")
    assert r.headers["Tile-Backend"] == "mapcache"
    assert len(calls) == 1


# -- HTTP wrapper + feature-info proxy ----------------------------------


class _InfoHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_GET(self):
        q = dict(urllib.parse.parse_qsl(urllib.parse.urlsplit(self.path).query))
        body = json.dumps(
            {"request": q.get("REQUEST"), "x": q.get("X"), "y": q.get("Y"),
             "bbox": q.get("BBOX"), "query_layers": q.get("QUERY_LAYERS")}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_feature_info_proxy(pyramid):
    backend = ThreadingHTTPServer(("127.0.0.1", 0), _InfoHandler)
    threading.Thread(target=backend.serve_forever, daemon=True).start()
    try:
        srv = WmtsServer(
            LAYERS,
            pyramid,
            feature_info={
                "point_hash": {
                    "url": f"http://127.0.0.1:{backend.server_address[1]}/wms",
                    "query_layers": "ph_query",
                }
            },
        )
        resp = srv.handle("1.0.0/point_hash/default/swissgrid_5/3/70/58/12/34")
        assert resp.status == 200
        doc = json.loads(resp.data)
        assert doc["request"] == "GetFeatureInfo"
        assert (doc["x"], doc["y"]) == ("12", "34")
        assert doc["query_layers"] == "ph_query"
        layer = LAYERS["point_hash"]
        assert doc["bbox"] == ",".join(str(v) for v in layer.grid.extent(3, 58, 70, 1))
    finally:
        backend.shutdown()
    # not queryable without config
    bare = WmtsServer(LAYERS, pyramid)
    resp = bare.handle("1.0.0/point_hash/default/swissgrid_5/3/70/58/12/34")
    assert resp.status == 400 and "not queryable" in resp.message


@pytest.mark.usefixtures("ray_session")
def test_conditional_get_etag(pyramid):
    """Extension beyond the reference: strong content ETag + 304 on
    If-None-Match (the reference server sends only Expires/Cache-
    Control, ``server.py:501-505``)."""
    import hashlib

    srv = WmtsServer(LAYERS, pyramid)
    path = "1.0.0/point_hash/default/swissgrid_5/3/58/70.png"
    ok = srv.handle(path)
    etag = ok.headers["ETag"]
    assert etag == f'"{hashlib.sha1(ok.data).hexdigest()}"'
    # matching If-None-Match -> 304, no body, cache headers preserved
    not_mod = srv.handle(path, if_none_match=etag)
    assert not_mod.status == 304 and not_mod.data is None
    assert not_mod.headers["ETag"] == etag and "Cache-Control" in not_mod.headers
    # multi-value and wildcard match
    assert srv.handle(path, if_none_match=f'"stale", {etag}').status == 304
    assert srv.handle(path, if_none_match="*").status == 304
    # non-matching -> 200 with full body
    miss = srv.handle(path, if_none_match='"deadbeef"')
    assert miss.status == 200 and miss.data == ok.data
    # 204/4xx never carry an ETag
    empty = srv.handle("1.0.0/point_hash/default/swissgrid_5/3/0/0.png")
    assert empty.status == 204 and not (empty.headers or {}).get("ETag")
    # capabilities (any 200 body) is conditional too
    cap = srv.handle("1.0.0/WMTSCapabilities.xml")
    assert srv.handle(
        "1.0.0/WMTSCapabilities.xml", if_none_match=cap.headers["ETag"]
    ).status == 304


def test_serve_wmts_http(pyramid):
    httpd = serve_wmts(WmtsServer(LAYERS, pyramid))
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    try:
        with urllib.request.urlopen(
            f"{base}/1.0.0/point_hash/default/swissgrid_5/3/58/70.png"
        ) as resp:
            assert resp.status == 200
            assert resp.headers["Tile-Backend"] == "Cache"
            assert resp.read().startswith(b"\x89PNG")
        q = urllib.parse.urlencode(kvp())
        with urllib.request.urlopen(f"{base}/?{q}") as resp:
            assert resp.status == 200
        with urllib.request.urlopen(f"{base}/1.0.0/WMTSCapabilities.xml") as resp:
            assert resp.status == 200 and b"<Capabilities" in resp.read()
        # conditional GET over real HTTP: ETag -> 304 with empty body
        with urllib.request.urlopen(
            f"{base}/1.0.0/point_hash/default/swissgrid_5/3/58/70.png"
        ) as resp:
            etag = resp.headers["ETag"]
        req = urllib.request.Request(
            f"{base}/1.0.0/point_hash/default/swissgrid_5/3/58/70.png",
            headers={"If-None-Match": etag},
        )
        try:
            urllib.request.urlopen(req)
            raise AssertionError("expected 304")
        except urllib.error.HTTPError as err:
            assert err.code == 304
            assert err.read() == b""
        try:
            urllib.request.urlopen(f"{base}/1.0.0/nope/default/swissgrid_5/3/0/0.png")
            raise AssertionError("expected 400")
        except urllib.error.HTTPError as err:
            assert err.code == 400
    finally:
        httpd.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_wmts_writer_uri_filesystem(pyramid, tmp_path):
    """URI cache roots (the s3/azure analog) write byte-identical trees
    through pyarrow.fs — exercised with file:// (same calls as s3://)."""
    import glob
    import os

    from tilecloud_chain_ray.pipelines.generate import generate_tiles

    out = str(tmp_path / "fs_tiles")
    layer = make_layer()
    generate_tiles(layer, out_wmts=f"file://{out}", with_summary=False).tiles.count()

    def tree(root):
        return {
            os.path.relpath(p, root): open(p, "rb").read()
            for p in glob.glob(os.path.join(root, "**", "*.png"), recursive=True)
        }

    got, expected = tree(out), tree(pyramid)
    assert got.keys() == expected.keys() and len(got) == 8
    assert all(got[k] == expected[k] for k in got)
