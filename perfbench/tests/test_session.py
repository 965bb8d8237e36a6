"""Process clean-up: nothing the benchmark starts outlives it."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

from perfbench.run import ROOT

# run in a child interpreter: making the test process a subreaper and
# killing its descendants would reach into whatever else pytest started
SCRIPT = textwrap.dedent(
    """
    import subprocess
    from perfbench.session import _descendants, adopt_orphans, stop_descendants

    adopt_orphans()
    # the shell exits at once; its two sleeps are orphaned, one of them
    # ignoring SIGTERM, and must be re-parented here
    subprocess.run(["sh", "-c", "sleep 60 & (trap '' TERM; sleep 60) & exit 0"], check=True)
    orphans = [p for p, s in _descendants().items() if s != "Z"]
    assert len(orphans) >= 2, orphans
    stop_descendants(grace=0.5)
    assert not _descendants(), _descendants()
    for pid in orphans:
        assert not __import__("os").path.exists(f"/proc/{pid}"), pid
    print("ok")
    """
)


def test_stop_descendants_ends_orphans():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([ROOT, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
