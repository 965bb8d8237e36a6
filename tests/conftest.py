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


@pytest.fixture
def count_executions():
    """``with count_executions() as calls:`` records every Ray Data
    execution started inside the block (one ``StreamingExecutor.execute``
    call each: a ``materialize``, a consuming ``count``, ``take_all``,
    ``to_arrow_refs``, a lazy ``schema()``...), so a test can pin how
    many Dataset round trips an operator makes; ``len(calls)`` is the
    count."""
    import contextlib

    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    @contextlib.contextmanager
    def counting():
        calls = []
        execute = StreamingExecutor.execute

        def counted(self, *args, **kwargs):
            calls.append(self)
            return execute(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StreamingExecutor, "execute", counted)
            yield calls

    return counting


@pytest.fixture(scope="session")
def actor_pools():
    """``actor_pools(ds)`` lists the operators of ``ds``'s logical plan
    that Ray Data would run as an actor pool (every input of a union
    included), so a test can pin that a stage is a plain task map."""
    from ray.data import ActorPoolStrategy

    def pools(ds) -> list:
        found, todo = [], [ds._logical_plan.dag]
        while todo:
            op = todo.pop()
            if isinstance(getattr(op, "_compute", None), ActorPoolStrategy):
                found.append(op)
            todo.extend(op.input_dependencies)
        return found

    return pools
