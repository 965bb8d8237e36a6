"""Spans around the calls into each layer, recorded from outside the program.

The library is not edited.  Two mechanisms put spans at layer boundaries:

* Driver side, :class:`Tracer` replaces module attributes with wrappers
  while a traced repetition runs: the task exchange
  (``util.hash_group_blocks`` in every module namespace that binds it),
  the driver-side entry points of the near-dedup layers, the source
  enumeration, and the factories that build per-batch kernels (geocode,
  text filter, hash-drop), whose kernels then record spans in the worker.
* Worker side, :func:`install_worker_hooks` is Ray's
  ``worker_process_setup_hook``.  It wraps the layer functions and
  classes that run inside tasks (render, PNG, split, geometry filter,
  WMTS writer, MinHash banding, tile finalisation).

Tracing is on only while the file ``<trace dir>/on`` exists (it holds
the traced repetition's number, the run id of every span), so one Ray
session serves untraced and traced repetitions alike.  Each worker keeps
its spans in memory and appends them to ``<trace dir>/<pid>.jsonl`` when
its outermost span closes (a worker may be killed between tasks, so
"the end" of a worker is the end of each traced call).

Every span carries a name, a layer (``None`` marks a span whose own time
is not any layer's), start and end on the system-wide monotonic clock,
its parent, and counters.  :func:`self_times` turns the spans of one
repetition into per-layer self time; :func:`layer_metrics` adds the
counters.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import os
import sys
import time
from typing import Any, Callable

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ON_FILE = "on"

# layer -> the per-layer metric that reports its self time
SELF_METRIC = {
    "sources": "sources.read_s",
    "geocode": "geocode.busy_s",
    "text": "text.busy_s",
    "minhash": "minhash.busy_s",
    "components": "components.s",
    "exchange": "exchange.s",
    "render": "render.busy_s",
    "png": "png.busy_s",
    "geom_filter": "geom_filter.busy_s",
    "split": "split.busy_s",
    "hashdrop": "hashdrop.busy_s",
    "wmts": "wmts.write_s",
}

# per-layer metrics reported by a traced run, with units
LAYER_METRICS = {
    "exchange.calls": "count",
    "exchange.in_blocks": "count",
    "exchange.in_rows": "count",
    "exchange.in_mb": "MiB",
    "exchange.width": "count",
    "exchange.refs": "count",
    "exchange.tasks": "count",
    "exchange.nonempty_frac": "ratio",
    "exchange.upstream_s": "s",
    "exchange.s": "s",
    "sources.read_rows": "count",
    "sources.read_s": "s",
    "sources.enumerate_coords": "count",
    "geocode.busy_s": "s",
    "text.busy_s": "s",
    "text.kept_frac": "ratio",
    "minhash.busy_s": "s",
    "minhash.candidate_pairs": "count",
    "minhash.verified_frac": "ratio",
    "components.s": "s",
    "render.tiles": "count",
    "render.busy_s": "s",
    "png.busy_s": "s",
    "png.mb": "MiB",
    "geom_filter.kept_frac": "ratio",
    "geom_filter.busy_s": "s",
    "split.tiles": "count",
    "split.busy_s": "s",
    "hashdrop.dropped_frac": "ratio",
    "hashdrop.busy_s": "s",
    "wmts.tiles_written": "count",
    "wmts.write_s": "s",
    "store.peak_mb": "MiB",
    "input.exact_dup_frac": "ratio",
    "input.near_dup_frac": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


@dataclasses.dataclass
class Span:
    name: str
    layer: str | None
    start: float
    end: float
    sid: tuple  # (pid, id within the process)
    parent: tuple | None = None
    attrs: dict = dataclasses.field(default_factory=dict)
    run: int = 0  # the traced repetition the span belongs to


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[Span], root: Span) -> tuple[dict[str, float], float]:
    """Split ``root``'s duration among layers; returns (self, unattributed).

    Each instant of the root interval goes to the spans active then that
    have no active descendant (the leaves), in equal shares when several
    processes run leaves at once.  A leaf's share counts for its layer;
    the share of the root or of a span without a layer is unattributed.
    So the layers' self times plus the unattributed time equal the root's
    duration exactly.

    A span whose parent is in another process (a worker span has none
    recorded) hangs under the deepest driver span that contains its
    start; driver spans are those in the root's process.  Children are
    clipped to their parent's interval so that spans nest.
    """
    root_pid = root.sid[0]
    by_id = {s.sid: s for s in spans if s.sid != root.sid}
    by_id[root.sid] = root
    driver = [s for s in by_id.values() if s.sid[0] == root_pid]
    parent: dict[tuple, tuple | None] = {root.sid: None}
    for s in driver:
        if s.sid != root.sid:
            parent[s.sid] = s.parent if s.parent in by_id else root.sid
    depth: dict[tuple, int] = {}

    def depth_(sid):
        if sid in depth:
            return depth[sid]
        chain = []
        cur = sid
        while cur is not None and cur not in depth:
            chain.append(cur)
            cur = parent.get(cur)
        d = -1 if cur is None else depth[cur]
        for c in reversed(chain):
            d += 1
            depth[c] = d
        return depth[sid]

    for s in driver:
        depth_(s.sid)
    drivers_by_depth = sorted(driver, key=lambda s: -depth[s.sid])
    for s in by_id.values():
        if s.sid[0] == root_pid:
            continue
        if s.parent in by_id:
            parent[s.sid] = s.parent
            continue
        host = root
        for d in drivers_by_depth:
            if d.start <= s.start < d.end:
                host = d
                break
        parent[s.sid] = host.sid
    for sid in by_id:
        depth_(sid)

    # clip children to parents, parents first
    start: dict[tuple, float] = {}
    end: dict[tuple, float] = {}
    for sid in sorted(by_id, key=lambda k: depth[k]):
        s = by_id[sid]
        p = parent[sid]
        lo, hi = s.start, s.end
        if p is not None:
            if p not in start:
                continue  # parent was dropped
            lo, hi = max(lo, start[p]), min(hi, end[p])
        if hi > lo:
            start[sid], end[sid] = lo, hi

    events = []
    for sid in start:
        events.append((start[sid], 1, depth[sid], sid))
        events.append((end[sid], 0, -depth[sid], sid))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    acc: dict[str | None, float] = {}
    active_children: dict[tuple, int] = {}
    leaves: set[tuple] = set()
    prev = None
    for t, kind, _, sid in events:
        if prev is not None and t > prev and leaves:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                layer = by_id[leaf].layer if leaf != root.sid else None
                acc[layer] = acc.get(layer, 0.0) + share
        prev = t
        p = parent[sid]
        if kind == 1:
            leaves.add(sid)
            active_children[sid] = 0
            if p is not None and p in active_children:
                active_children[p] += 1
                leaves.discard(p)
        else:
            leaves.discard(sid)
            active_children.pop(sid, None)
            if p is not None and p in active_children:
                active_children[p] -= 1
                if active_children[p] == 0:
                    leaves.add(p)
    unattributed = acc.pop(None, 0.0)
    return acc, unattributed


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], root: Span) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (without the
    ``input.*``, ``store.peak_mb`` and ``trace.overhead_s`` entries, which
    the caller adds)."""
    selfs, unattributed = self_times(spans, root)

    def total(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    exchanges = [s for s in spans if s.name == "exchange"]
    width_sum = total("exchange", "width")
    out = {
        "exchange.calls": float(len(exchanges)),
        "exchange.in_blocks": total("exchange", "in_blocks"),
        "exchange.in_rows": total("exchange", "in_rows"),
        "exchange.in_mb": total("exchange", "in_bytes") / 2**20,
        "exchange.width": float(max((s.attrs.get("width", 0) for s in exchanges), default=0)),
        "exchange.refs": total("exchange", "refs"),
        "exchange.tasks": total("exchange", "tasks"),
        "exchange.nonempty_frac": _ratio(total("exchange", "nonempty"), width_sum),
        "exchange.upstream_s": sum(
            s.end - s.start for s in spans if s.name == "exchange.upstream"
        ),
        "sources.read_rows": total("sources", "rows"),
        "sources.enumerate_coords": total("sources", "coords"),
        "text.kept_frac": _ratio(total("text", "rows_out"), total("text", "rows_in")),
        "minhash.candidate_pairs": total("minhash", "candidates"),
        "minhash.verified_frac": _ratio(
            total("minhash", "verified"), total("minhash", "candidates")
        ),
        "render.tiles": total("render", "tiles"),
        "png.mb": total("png", "bytes") / 2**20,
        "geom_filter.kept_frac": _ratio(
            total("geom_filter", "rows_out"), total("geom_filter", "rows_in")
        ),
        "split.tiles": total("split", "tiles"),
        "hashdrop.dropped_frac": _ratio(
            total("hashdrop", "dropped"), total("hashdrop", "checked")
        ),
        "wmts.tiles_written": total("wmts", "written"),
        "trace.wall_s": root.end - root.start,
        "trace.unattributed_s": unattributed,
    }
    for layer, metric in SELF_METRIC.items():
        out[metric] = selfs.get(layer, 0.0)
    return out


def attributed_total(metrics: dict[str, float]) -> float:
    """Layers' self times plus the unattributed time (equals
    ``trace.wall_s``)."""
    return sum(metrics[m] for m in SELF_METRIC.values()) + metrics["trace.unattributed_s"]


# ---------------------------------------------------------------------------
# counters (args, result) -> attrs
# ---------------------------------------------------------------------------


def _status_count(table, value: str) -> int:
    if "status" not in table.schema.names:
        return 0
    return sum(1 for s in table["status"].to_pylist() if s == value)


# The batch is the last positional argument of every wrapped kernel and
# ``__call__``.


def count_rows_in_out(args, out) -> dict:
    return {"rows_in": args[-1].num_rows, "rows_out": out.num_rows}


def count_png(args, out) -> dict:
    return {"bytes": len(out)}


def count_one_tile(args, out) -> dict:
    return {"tiles": 1}


def count_meta_render(args, out) -> dict:
    n = args[-1]["n"].to_numpy(zero_copy_only=False)
    return {"tiles": int((n.astype("int64") ** 2).sum())}


def count_split(args, out) -> dict:
    return {"tiles": _status_count(out, "generated")}


def count_written(args, out) -> dict:
    return {"written": _status_count(args[-1], "stored")}


def make_drop_counter(level: str) -> Callable:
    def count(args, out) -> dict:
        return {
            "checked": args[-1].num_rows,
            "dropped": _status_count(out, level) - _status_count(args[-1], level),
        }

    return count


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class WorkerRecorder:
    """Spans of one worker process, appended to ``<dir>/<pid>.jsonl``."""

    def __init__(self, trace_dir: str) -> None:
        self.dir = trace_dir
        self.on_path = os.path.join(trace_dir, ON_FILE)
        self.pid = os.getpid()
        self.ids = itertools.count()
        self.stack: list[int] = []
        self.done: list[list] = []
        self.run: int | None = None

    def current_run(self) -> int | None:
        """The traced repetition in progress (written to the ``on``
        file by the driver), or None when tracing is off."""
        if self.stack:
            return self.run
        try:
            with open(self.on_path) as fh:
                self.run = int(fh.read())
        except (FileNotFoundError, ValueError):
            self.run = None
        return self.run

    def flush(self) -> None:
        if not self.done:
            return
        lines = "".join(json.dumps(rec) + "\n" for rec in self.done)
        with open(os.path.join(self.dir, f"{self.pid}.jsonl"), "a") as fh:
            fh.write(lines)
        self.done.clear()


# One recorder per worker process: the setup hook creates it and the
# module-level wrappers it installs (which Ray pickles by reference) reach
# it here.
_RECORDER: WorkerRecorder | None = None


def worker_call(name: str, layer: str, fn: Callable, args: tuple, kwargs: dict, count=None):
    """Call ``fn`` inside a worker span when tracing is on."""
    rec = _RECORDER
    run = rec.current_run() if rec is not None else None
    if run is None:
        return fn(*args, **kwargs)
    sid = next(rec.ids)
    parent = rec.stack[-1] if rec.stack else None
    rec.stack.append(sid)
    t0 = time.monotonic()
    try:
        out = fn(*args, **kwargs)
    finally:
        t1 = time.monotonic()
        rec.stack.pop()
    attrs = count(args, out) if count is not None else {}
    rec.done.append([name, layer, t0, t1, sid, parent, attrs, run])
    if not rec.stack:
        rec.flush()
    return out


def traced_kernel(name: str, kernel: Callable, count=count_rows_in_out) -> Callable:
    """Wrap a per-batch kernel built on the driver so that it records a
    worker span named ``name`` (also its layer)."""

    def kernel_with_span(batch):
        return worker_call(name, name, kernel, (batch,), {}, count)

    return kernel_with_span


def _wrap(fn: Callable, name: str, count=None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return worker_call(name, name, fn, args, kwargs, count)

    return traced


def _rebind_everywhere(orig: Callable, new: Callable) -> None:
    """Point every loaded library module's binding of ``orig`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("tilecloud_chain_ray"):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


# (module, function, span name, counter) wrapped in every worker
_WORKER_FUNCTIONS = (
    ("tilecloud_chain_ray.functions.png", "encode_png", "png", count_png),
    ("tilecloud_chain_ray.stages.render", "render_density_image", "render", count_one_tile),
    ("tilecloud_chain_ray.stages.hashdrop", "finalize_tiles", "hashdrop", None),
    ("tilecloud_chain_ray.stages.dedup", "_band_cached", "minhash", None),
)
# (module, class, span name, counter) whose __call__ is wrapped
_WORKER_CLASSES = (
    ("tilecloud_chain_ray.stages.render", "GeometryRenderer", "render", count_meta_render),
    ("tilecloud_chain_ray.stages.split", "MetatileSplitter", "split", count_split),
    ("tilecloud_chain_ray.stages.geom_filter", "CoordGeomFilter", "geom_filter", count_rows_in_out),
    ("tilecloud_chain_ray.sinks.wmts", "WmtsWriter", "wmts", count_written),
)


def install_worker_hooks() -> None:
    """Ray ``worker_process_setup_hook``: wrap the worker-side layer
    functions when the session was started for tracing."""
    global _RECORDER
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir or _RECORDER is not None:
        return
    import importlib

    _RECORDER = WorkerRecorder(trace_dir)
    mods = {m for m, *_ in _WORKER_FUNCTIONS + _WORKER_CLASSES}
    mods |= {
        "tilecloud_chain_ray.pipelines.density",
        "tilecloud_chain_ray.pipelines.generate",
        "tilecloud_chain_ray.pipelines.curate",
    }
    for m in sorted(mods):
        importlib.import_module(m)
    for mod_name, fn_name, name, count in _WORKER_FUNCTIONS:
        orig = getattr(sys.modules[mod_name], fn_name)
        _rebind_everywhere(orig, _wrap(orig, name, count))
    for mod_name, cls_name, name, count in _WORKER_CLASSES:
        cls = getattr(sys.modules[mod_name], cls_name)
        cls.__call__ = _wrap(cls.__call__, name, count)


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------


class Tracer:
    """Driver-side spans and the patches that record them.

    ``install`` patches the library's module attributes (kept until
    ``uninstall``); the wrappers record only between ``begin`` and
    ``end`` of a traced repetition.
    """

    def __init__(self, trace_dir: str) -> None:
        self.dir = trace_dir
        self.pid = os.getpid()
        self.ids = itertools.count()
        self.enabled = False
        self.spans: list[Span] = []
        self.kept: list[Span] = []  # every traced repetition's spans
        self.stack: list[tuple] = []
        self.run = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._offsets: dict[str, int] = {}

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, layer: str | None):
        attrs: dict = {}
        if not self.enabled:
            yield attrs
            return
        sid = (self.pid, next(self.ids))
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        t0 = time.monotonic()
        try:
            yield attrs
        finally:
            t1 = time.monotonic()
            self.stack.pop()
            self.spans.append(Span(name, layer, t0, t1, sid, parent, attrs, self.run))

    def begin(self) -> None:
        """Start a traced repetition: tracing on, driver and workers."""
        self.run += 1
        self.spans = []
        self.stack = []
        with open(os.path.join(self.dir, ON_FILE), "w") as fh:
            fh.write(str(self.run))
        self.enabled = True
        self._root_sid = (self.pid, next(self.ids))
        self.stack.append(self._root_sid)
        self._root_start = time.monotonic()

    def end(self) -> tuple[list[Span], Span]:
        """Stop tracing; return the repetition's spans (driver and
        workers) and its root span."""
        t1 = time.monotonic()
        self.enabled = False
        self.stack = []
        os.remove(os.path.join(self.dir, ON_FILE))
        root = Span("run", None, self._root_start, t1, self._root_sid, run=self.run)
        spans = self.spans + [s for s in self._read_worker_spans() if s.run == self.run]
        self.kept += [root] + spans
        return spans, root

    def dump(self, path: str) -> None:
        """Write every traced repetition's spans, one JSON object a line."""
        with open(path, "w") as fh:
            for s in self.kept:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")

    def _read_worker_spans(self) -> list[Span]:
        out = []
        for fname in sorted(os.listdir(self.dir)):
            if not fname.endswith(".jsonl"):
                continue
            pid = int(fname.split(".")[0])
            path = os.path.join(self.dir, fname)
            with open(path, "rb") as fh:
                fh.seek(self._offsets.get(path, 0))
                data = fh.read()
            complete = data.rfind(b"\n") + 1  # a half-written line waits
            self._offsets[path] = self._offsets.get(path, 0) + complete
            for line in data[:complete].decode().splitlines():
                name, layer, t0, t1, sid, parent, attrs, run = json.loads(line)
                parent = (pid, parent) if parent is not None else None
                out.append(Span(name, layer, t0, t1, (pid, sid), parent, attrs, run))
        return out

    # -- patches ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches = []

    def install(self) -> None:
        import tilecloud_chain_ray.pipelines.curate as curate
        import tilecloud_chain_ray.pipelines.density as density
        import tilecloud_chain_ray.pipelines.generate as generate
        import tilecloud_chain_ray.stages.components as components
        import tilecloud_chain_ray.stages.dedup as dedup
        import tilecloud_chain_ray.stages.geocode as geocode
        import tilecloud_chain_ray.util as util

        orig_hgb = util.hash_group_blocks
        exchange = self._exchange_wrapper(orig_hgb, util.default_buckets)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("tilecloud_chain_ray"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig_hgb:
                    self._patch(mod, attr, exchange)

        self._patch(dedup, "minhash_dedup_pairs", self._minhash_wrapper(dedup))
        self._patch(
            components,
            "near_dedup_survivors",
            self._span_wrapper(components.near_dedup_survivors, "components"),
        )
        self._patch(
            curate, "make_analyze_filter", self._factory_wrapper(curate.make_analyze_filter, "text")
        )
        self._patch(
            geocode, "make_geocoder", self._factory_wrapper(geocode.make_geocoder, "geocode")
        )
        for mod in (generate, density):
            orig = mod.make_hash_dropper

            def dropper_factory(empty, level, _orig=orig):
                kernel = _orig(empty, level)
                if not self.enabled:
                    return kernel
                return traced_kernel("hashdrop", kernel, make_drop_counter(level))

            self._patch(mod, "make_hash_dropper", dropper_factory)
        self._patch(generate, "dense_coord_dataset", self._enumerate_wrapper(generate.dense_coord_dataset))

    def _factory_wrapper(self, factory: Callable, name: str) -> Callable:
        @functools.wraps(factory)
        def build(*args, **kwargs):
            kernel = factory(*args, **kwargs)
            if not self.enabled:
                return kernel
            return traced_kernel(name, kernel)

        return build

    def _span_wrapper(self, fn: Callable, layer: str) -> Callable:
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(layer, layer):
                return fn(*args, **kwargs)

        return call

    def _enumerate_wrapper(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def call(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span("sources", "sources") as attrs:
                ds = fn(*args, **kwargs).materialize()
                attrs["coords"] = ds.count()
            return ds

        return call

    def read_source(self, ds):
        """Materialize a source read inside a ``sources`` span (traced
        repetitions only), so that the read is timed on its own."""
        if not self.enabled:
            return ds
        with self.span("sources", "sources") as attrs:
            ds = ds.materialize()
            attrs["rows"] = ds.count()
        return ds

    def _minhash_wrapper(self, dedup) -> Callable:
        orig = dedup.minhash_dedup_pairs
        orig_expand = dedup._expand_hot_bucket_pairs
        tracer = self

        @functools.wraps(orig)
        def minhash_dedup_pairs(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            candidates = [0]

            # Candidate pairs are local to the call: the driver shortcut
            # hands the set of (key_a, key_b) candidates to ``sorted``
            # before verifying them, the distributed path builds them
            # with ``_expand_hot_bucket_pairs``.  Both are looked up in
            # the module's globals, so the count is taken there.
            def counting_sorted(iterable, *a, **k):
                if isinstance(iterable, set) and iterable:
                    first = next(iter(iterable))
                    if isinstance(first, tuple) and len(first) == 2:
                        candidates[0] += len(iterable)
                return sorted(iterable, *a, **k)

            def counting_expand(*a, **k):
                cand = orig_expand(*a, **k).materialize()
                candidates[0] += cand.count()
                return cand

            with tracer.span("minhash", "minhash") as attrs:
                dedup.sorted = counting_sorted
                dedup._expand_hot_bucket_pairs = counting_expand
                try:
                    pairs = orig(*args, **kwargs).materialize()
                finally:
                    del dedup.sorted
                    dedup._expand_hot_bucket_pairs = orig_expand
                attrs["verified"] = pairs.count()
                attrs["candidates"] = candidates[0]
            return pairs

        return minhash_dedup_pairs

    def _exchange_wrapper(self, orig: Callable, default_buckets: Callable) -> Callable:
        tracer = self

        @functools.wraps(orig)
        def hash_group_blocks(ds, keys, kernel, num_partitions=None):
            if not tracer.enabled:
                return orig(ds, keys, kernel, num_partitions)
            with tracer.span("exchange.upstream", None):
                mat = ds.materialize()
            metas = [m for b in mat.iter_internal_ref_bundles() for _, m in b.blocks]
            live = [m for m in metas if m.num_rows is None or m.num_rows > 0]
            blocks = len(live)
            width = num_partitions if num_partitions is not None else default_buckets()
            with tracer.span("exchange", "exchange") as attrs:
                out = orig(mat, keys, kernel, num_partitions)
                nonempty = sum(
                    1
                    for b in out.iter_internal_ref_bundles()
                    for _, m in b.blocks
                    if m.num_rows
                )
            attrs.update(
                in_blocks=blocks,
                in_rows=sum(m.num_rows or 0 for m in live),
                in_bytes=sum(m.size_bytes or 0 for m in live),
                width=width,
                refs=blocks * width if width > 1 else blocks,
                tasks=(blocks + width if width > 1 else 1) if blocks else 0,
                nonempty=nonempty,
            )
            return out

        return hash_group_blocks
