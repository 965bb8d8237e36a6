import os

import pytest

os.environ.setdefault("RAY_DEDUP_LOGS", "0")


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture
def on_cluster():
    """``with on_cluster():`` pins every operator that can run on the
    driver (MinHash verify, hamming pairs, connected components, the
    near-dedup drop set, the Bloom residue) to its cluster placement,
    by setting ``util.DRIVER_MAX_BYTES`` to 0 — the only way to pick a
    placement; no operator takes an option for it."""
    import contextlib

    import tilecloud_chain_ray.util as util

    @contextlib.contextmanager
    def pinned():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(util, "DRIVER_MAX_BYTES", 0)
            yield

    return pinned


@pytest.fixture(scope="session")
def at_width():
    """``with at_width(w):`` runs every task exchange at width ``w``
    (an input whose bytes call for more still widens it, as in
    ``util.exchange_width``), by making ``util.default_buckets`` return
    ``w`` — the one function every exchange width is read through; no
    operator takes a width.  Stateless, so session-scoped: hypothesis
    tests can use it too."""
    import contextlib

    import tilecloud_chain_ray.util as util

    @contextlib.contextmanager
    def pinned(width: int):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(util, "default_buckets", lambda: width)
            yield

    return pinned
