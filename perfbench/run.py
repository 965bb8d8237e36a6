"""Benchmark entry point.

    python3 perfbench/run.py --workload density_pages --seed 1 --seconds 14 --trace 0

Run from the root of a source checkout (the directory that holds
``tilecloud_chain_ray/``).  It builds the workload's seeded input (cached
under ``.perfbench/``, never timed), starts a Ray session sized to
``nproc``, runs the workload's pipeline repeatedly for ``--seconds``,
checks every output, and prints one JSON object as the last line of
standard output::

    {"correct": true, "attempted": 6, "failed": 0,
     "metrics": {"wall_s": {"value": 3.01, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced repetition (see ``perfbench/LAYERS.md``).
Everything else the run prints goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 2  # set-up cycles per trace-0 run; setup_s is their median
MIN_REPS = 3  # timed repetitions even when --seconds is short
REP_TIMEOUT_S = 60
SETUP_TIMEOUT_S = 60
HARD_LIMIT_S = 175  # the whole run, then the process exits
# end-to-end metrics of a trace-0 run, with units
E2E_METRICS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s"}


_T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"[perfbench {time.perf_counter() - _T0:6.1f}s] {msg}", file=sys.stderr, flush=True)


def _exit_now(code: int) -> None:
    """Leave at once, but only after every process the run started has
    ended."""
    from perfbench.session import stop_descendants

    try:
        stop_descendants(grace=1.0)
    finally:
        os._exit(code)


def _hard_exit() -> None:
    log(f"run exceeded {HARD_LIMIT_S} s; exiting")
    _exit_now(3)


def _on_term(signum, frame) -> None:
    log(f"signal {signum}; exiting")
    _exit_now(128 + signum)


class Run:
    """One benchmark run: counts attempted and failed operations."""

    def __init__(self, workload, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None

    def op(self, what: str, fn):
        """Run ``fn`` as one attempted operation; None if it failed."""
        from perfbench.session import RepTimeout, deadline

        self.attempted += 1
        try:
            with deadline(REP_TIMEOUT_S, what):
                return fn()
        except RepTimeout as exc:
            self.failed += 1
            log(f"{what}: {exc}")
            return None
        except Exception:  # one failed repetition is reported, not fatal
            self.failed += 1
            log(f"{what} raised:\n{traceback.format_exc()}")
            return None

    def smoke(self, state_dir: str) -> None:
        """The reference golden, once per version of the library sources:
        a pass is remembered under ``state_dir``."""
        from perfbench import oracles

        marker = os.path.join(state_dir, f"golden-{oracles.source_digest(ROOT)}.ok")
        if os.path.exists(marker):
            return
        errors = self.op("point_hash golden", oracles.point_hash_smoke)
        self._report("point_hash golden", errors)
        if errors == []:
            with open(marker, "w"):
                pass

    def _report(self, what: str, errors) -> None:
        if errors:
            self.failed += 1
            for e in errors:
                log(f"{what}: {e}")

    def warm(self) -> None:
        """First call, untimed, checked in full against the oracle."""
        w = self.workload
        w.prepare()
        res = self.op("warm-up repetition", lambda: w.run(None))
        gc.collect()
        if res is None:
            return
        errors = w.check(res[1])
        self._report("warm-up check", errors)
        if not errors:
            self.reference = w.digest(res[1])

    def timed(self, tracer=None):
        """One timed repetition, traced when ``tracer`` is given; its
        output must equal the checked one.  Returns (wall, items, spans,
        root span) or None when it failed."""
        w = self.workload
        w.prepare()
        spans = root = None
        if tracer is not None:
            tracer.begin()
        t0 = time.perf_counter()
        try:
            res = self.op("repetition", lambda: w.run(tracer))
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                spans, root = tracer.end()
        if res is None:
            return None
        items, out = res
        if self.reference is None or w.digest(out) != self.reference:
            self.failed += 1
            log("repetition output differs from the checked output")
        del out
        gc.collect()
        return wall, items, spans, root


def run_untraced(run: Run, state_dir: str, ncpu: int) -> dict:
    from perfbench.session import Session, deadline

    t0 = time.perf_counter()
    import tilecloud_chain_ray.pipelines.curate  # noqa: F401
    import tilecloud_chain_ray.pipelines.density  # noqa: F401
    import tilecloud_chain_ray.pipelines.generate  # noqa: F401

    import_s = time.perf_counter() - t0
    setups = []
    for _ in range(SETUPS - 1):
        session = Session(state_dir, ncpu)
        try:
            with deadline(SETUP_TIMEOUT_S, "set-up"):
                setups.append(import_s + session.start())
        finally:
            session.stop()
    session = Session(state_dir, ncpu)
    try:
        with deadline(SETUP_TIMEOUT_S, "set-up"):
            setups.append(import_s + session.start())
        log("set-up done")
        run.smoke(state_dir)
        log("golden done")
        run.warm()
        log("warm-up done")
        walls, rates = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < run.seconds or len(walls) < MIN_REPS:
            res = run.timed()
            if res is None:
                break
            walls.append(res[0])
            rates.append(res[1] / res[0])
    finally:
        session.stop()
    log(f"setups {[round(s, 3) for s in setups]} walls {[round(w, 3) for w in walls]}")
    if not walls:
        raise RuntimeError("no repetition completed")
    median = statistics.median
    values = {"setup_s": median(setups), "wall_s": median(walls), "items_per_s": median(rates)}
    return {name: (values[name], unit) for name, unit in E2E_METRICS.items()}


def run_traced(run: Run, state_dir: str, ncpu: int) -> dict:
    from perfbench import trace
    from perfbench.session import Session, StoreSampler, deadline

    trace_dir = os.path.join(state_dir, "trace", str(os.getpid()))
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    session = Session(state_dir, ncpu, trace_dir=trace_dir)
    tracer = trace.Tracer(trace_dir)
    sampler = StoreSampler()
    try:
        with deadline(SETUP_TIMEOUT_S, "set-up"):
            session.start()
        tracer.install()
        run.smoke(state_dir)
        run.warm()
        sampler.start()
        plain, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < run.seconds or min(len(plain), len(traced)) < 2:
            res = run.timed()
            if res is None:
                break
            plain.append(res[0])
            res = run.timed(tracer)
            if res is None:
                break
            _, _, spans, root = res
            traced.append((root.end - root.start, spans, root))
        peak = sampler.stop()
        tracer.dump(os.path.join(state_dir, "spans.jsonl"))
    finally:
        tracer.uninstall()
        session.stop()
        shutil.rmtree(trace_dir, ignore_errors=True)
    if not plain or not traced:
        raise RuntimeError("no repetition completed")
    traced.sort(key=lambda t: t[0])
    _, spans, root = traced[(len(traced) - 1) // 2]  # the median traced wall
    metrics = trace.layer_metrics(spans, root)
    metrics["trace.overhead_s"] = statistics.median(t[0] for t in traced) - statistics.median(plain)
    metrics["input.exact_dup_frac"] = run.workload.shares["exact_dup_frac"]
    metrics["input.near_dup_frac"] = run.workload.shares["near_dup_frac"]
    metrics["store.peak_mb"] = peak
    gap = abs(trace.attributed_total(metrics) - metrics["trace.wall_s"])
    if gap > 1e-6:
        raise RuntimeError(f"self times do not add up to the traced wall ({gap:.3g} s apart)")
    log(f"plain walls {[round(w, 3) for w in plain]} traced {[round(t[0], 3) for t in traced]}")
    return {name: (metrics[name], unit) for name, unit in trace.LAYER_METRICS.items()}


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "tilecloud_chain_ray", "__init__.py")):
        log(f"no tilecloud_chain_ray package under {ROOT}; run from a source checkout")
        return 2
    # library and benchmark importable here and in every Ray worker
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import tilecloud_chain_ray

    if os.path.dirname(os.path.dirname(os.path.abspath(tilecloud_chain_ray.__file__))) != ROOT:
        log(f"tilecloud_chain_ray resolves outside {ROOT}")
        return 2

    # Ray and the library may print to stdout; only the result goes there
    result_fd = os.dup(1)
    os.dup2(2, 1)
    watchdog = threading.Timer(HARD_LIMIT_S, _hard_exit)
    watchdog.daemon = True
    watchdog.start()

    from perfbench.session import adopt_orphans, host_cpus, pin_to, stop_descendants

    adopt_orphans()
    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, _on_term)
    state_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(state_dir, exist_ok=True)
    ncpu = host_cpus()
    cpus = pin_to(ncpu)
    workload = WORKLOADS[args.workload](state_dir, args.seed)
    run = Run(workload, args.seconds)
    log(f"{args.workload} seed {args.seed} on cpu(s) {cpus}, trace {args.trace}")
    try:
        metrics = (run_traced if args.trace else run_untraced)(run, state_dir, ncpu)
    finally:
        stop_descendants()
    shutil.rmtree(os.path.join(state_dir, "wmts"), ignore_errors=True)
    line = json.dumps(
        {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )
    os.write(result_fd, (line + "\n").encode())
    watchdog.cancel()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())
