"""Host-sized Ray session, deadlines, process clean-up and the
object-store sampler."""

from __future__ import annotations

import contextlib
import logging
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time

# library modules a worker imports during warm-up (package import cost
# is set-up, not pipeline time)
WARM_MODULES = (
    "tilecloud_chain_ray.pipelines.density",
    "tilecloud_chain_ray.pipelines.curate",
    "tilecloud_chain_ray.pipelines.generate",
    "tilecloud_chain_ray.stages.dedup",
    "tilecloud_chain_ray.stages.components",
)
OBJECT_STORE_BYTES = 768 << 20
# longest suffix Ray appends to its temp dir for a unix socket
# ("/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store"), and the
# AF_UNIX path limit
_SOCKET_SUFFIX = 72
_SOCKET_MAX = 107


class RepTimeout(Exception):
    """A deadline set with :func:`deadline` passed."""


@contextlib.contextmanager
def deadline(seconds: float, what: str):
    """Raise :class:`RepTimeout` in the main thread after ``seconds``."""

    def on_alarm(signum, frame):
        raise RepTimeout(f"{what} exceeded {seconds:.0f} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def host_cpus() -> int:
    """CPUs as ``nproc`` reports them (it honours affinity and
    ``OMP_NUM_THREADS``, unlike ``os.cpu_count``)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10, check=True)
        return max(1, int(out.stdout.strip()))
    except (OSError, ValueError, subprocess.SubprocessError):
        return max(1, len(os.sched_getaffinity(0)))


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every process it starts, however
    deep: a Ray worker whose raylet exits first is re-parented here, not
    to init, so :func:`stop_descendants` still finds it."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _descendants() -> dict[int, str]:
    """Every live or unreaped descendant of this process: pid -> state."""
    me = os.getpid()
    parent, state = {}, {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        fields = stat[stat.rindex(")") + 2 :].split()
        parent[int(entry)], state[int(entry)] = int(fields[1]), fields[0]
    found, frontier = {}, [me]
    while frontier:
        p = frontier.pop()
        for child, ppid in parent.items():
            if ppid == p and child not in found:
                found[child] = state[child]
                frontier.append(child)
    return found


def _reap() -> None:
    """Collect every exited child without blocking."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace: float = 5.0) -> None:
    """Terminate every process this one started, directly or not, and
    wait until each has ended and been reaped: SIGTERM first, SIGKILL to
    whatever outlives ``grace`` seconds."""
    for sig, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, 30.0)):
        for pid in _descendants():
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.kill(pid, sig)
        end = time.monotonic() + wait
        while True:
            _reap()
            if not _descendants():
                return
            if time.monotonic() > end:
                break
            time.sleep(0.05)
    raise RuntimeError(f"processes outlived SIGKILL: {sorted(_descendants())}")


def pin_to(ncpu: int) -> list[int]:
    """Confine this process, and every process it starts (the Ray
    session), to ``ncpu`` of the CPUs it may use.  The session then
    really has the CPUs it is sized for: the driver, Ray's daemons and
    the worker share them instead of spreading over idle neighbours,
    which made repetitions on a shared host far less steady."""
    cpus = sorted(os.sched_getaffinity(0))[:ncpu]
    os.sched_setaffinity(0, cpus)
    return cpus


class Session:
    """One Ray session sized to the host.

    ``trace_dir`` turns on the worker-side trace hooks for the session.
    Ray's session files go under ``<state>/ray`` when the socket paths fit
    there, otherwise in a fresh temporary directory; either is removed by
    :meth:`stop`.
    """

    def __init__(self, state_dir: str, num_cpus: int, trace_dir: str | None = None) -> None:
        self.state_dir = state_dir
        self.num_cpus = num_cpus
        self.trace_dir = trace_dir
        self.temp_dir: str | None = None

    def start(self) -> float:
        """``ray.init`` plus worker warm-up (one process per CPU imports
        the library); returns the seconds taken."""
        import ray

        from perfbench.trace import TRACE_DIR_ENV

        t0 = time.perf_counter()
        local = os.path.join(self.state_dir, "ray")
        if len(local) + _SOCKET_SUFFIX <= _SOCKET_MAX:
            shutil.rmtree(local, ignore_errors=True)
            os.makedirs(local)
            self.temp_dir = local
        else:
            self.temp_dir = tempfile.mkdtemp(prefix="pb")
        kwargs = {}
        if self.trace_dir is not None:
            os.environ[TRACE_DIR_ENV] = self.trace_dir
            kwargs["runtime_env"] = {
                "worker_process_setup_hook": "perfbench.trace.install_worker_hooks"
            }
        else:
            os.environ.pop(TRACE_DIR_ENV, None)
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level=logging.ERROR,
            log_to_driver=False,
            _temp_dir=self.temp_dir,
            **kwargs,
        )
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

        @ray.remote
        def warm(mods):
            import importlib

            for m in mods:
                importlib.import_module(m)
            return os.getpid()

        ray.get([warm.remote(WARM_MODULES) for _ in range(self.num_cpus)])
        return time.perf_counter() - t0

    def stop(self) -> None:
        """Shut Ray down, end every process the session started and
        remove its session files."""
        import ray

        try:
            if ray.is_initialized():
                ray.shutdown()
        finally:
            # ray.shutdown returns before every worker has exited; the
            # next session (or run) must not share the host with them
            stop_descendants()
            if self.temp_dir is not None:
                shutil.rmtree(self.temp_dir, ignore_errors=True)
                self.temp_dir = None


class StoreSampler:
    """Peak ``/dev/shm`` use (Ray's plasma store is backed by it) above a
    baseline taken before the session started."""

    PATH = "/dev/shm"

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.baseline = shutil.disk_usage(self.PATH).used
        self.peak = self.baseline
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, shutil.disk_usage(self.PATH).used)

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self) -> float:
        """Stop sampling; peak MiB above the baseline."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.peak = max(self.peak, shutil.disk_usage(self.PATH).used)
        return (self.peak - self.baseline) / 2**20
