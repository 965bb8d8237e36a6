"""Self-time arithmetic of the span tracer."""

from __future__ import annotations

import random

import pytest

from perfbench.trace import SELF_METRIC, Span, attributed_total, layer_metrics, self_times

DRIVER = 100


def span(i, layer, start, end, parent=None, pid=DRIVER, name=None, **attrs):
    return Span(name or (layer or "marker"), layer, start, end, (pid, i),
                (pid, parent) if parent is not None else None, attrs)


ROOT = span(0, None, 0.0, 10.0, name="run")


def test_root_alone_is_unattributed():
    selfs, un = self_times([], ROOT)
    assert selfs == {} and un == pytest.approx(10.0)


def test_nested_driver_spans_subtract_children():
    a = span(1, "exchange", 1.0, 5.0, parent=0)
    b = span(2, "minhash", 2.0, 3.0, parent=1)
    selfs, un = self_times([a, b], ROOT)
    assert selfs == pytest.approx({"exchange": 3.0, "minhash": 1.0})
    assert un == pytest.approx(6.0)


def test_worker_span_hangs_under_the_driver_span_it_starts_in():
    a = span(1, "exchange", 1.0, 5.0, parent=0)
    w = span(0, "render", 2.0, 4.0, pid=7)
    selfs, un = self_times([a, w], ROOT)
    assert selfs == pytest.approx({"exchange": 2.0, "render": 2.0})
    assert un == pytest.approx(6.0)


def test_worker_children_nest_within_their_process():
    w = span(0, "render", 2.0, 6.0, pid=7)
    png = span(1, "png", 3.0, 4.0, parent=0, pid=7)
    selfs, un = self_times([w, png], ROOT)
    assert selfs == pytest.approx({"render": 3.0, "png": 1.0})


def test_concurrent_leaves_share_time_equally():
    w1 = span(0, "render", 2.0, 4.0, pid=7)
    w2 = span(0, "png", 3.0, 5.0, pid=8)
    selfs, un = self_times([w1, w2], ROOT)
    assert selfs == pytest.approx({"render": 1.5, "png": 1.5})
    assert un == pytest.approx(7.0)


def test_child_is_clipped_to_its_parent():
    a = span(1, "exchange", 1.0, 3.0, parent=0)
    w = span(0, "render", 2.0, 12.0, pid=7)  # starts in a, ends past the root
    selfs, un = self_times([a, w], ROOT)
    assert selfs == pytest.approx({"exchange": 1.0, "render": 1.0})
    assert un == pytest.approx(8.0)


def test_marker_spans_count_as_unattributed_but_not_their_children():
    m = span(1, None, 1.0, 5.0, parent=0, name="exchange.upstream")
    w = span(0, "geocode", 2.0, 3.0, pid=7)
    selfs, un = self_times([m, w], ROOT)
    assert selfs == pytest.approx({"geocode": 1.0})
    assert un == pytest.approx(9.0)


def _random_spans(rng: random.Random):
    spans = []
    driver_stack = [(0, 0.0, 10.0)]
    ids = iter(range(1, 10_000))
    for _ in range(rng.randint(0, 5)):
        pid_, lo, hi = driver_stack[-1]
        a = rng.uniform(lo, hi)
        b = rng.uniform(a, hi)
        i = next(ids)
        spans.append(span(i, rng.choice(list(SELF_METRIC) + [None]), a, b, parent=pid_))
        driver_stack.append((i, a, b))
    for pid in (7, 8):
        for _ in range(rng.randint(0, 20)):
            a = rng.uniform(-1.0, 11.0)
            b = a + rng.uniform(0.0, 3.0)
            i = next(ids)
            spans.append(span(i, rng.choice(list(SELF_METRIC)), a, b, pid=pid))
            if rng.random() < 0.5:
                c = rng.uniform(a, b)
                spans.append(span(next(ids), "png", c, rng.uniform(c, b + 0.5), parent=i, pid=pid))
    return spans


@pytest.mark.parametrize("seed", range(50))
def test_self_times_and_unattributed_sum_to_the_wall(seed):
    spans = _random_spans(random.Random(seed))
    selfs, un = self_times(spans, ROOT)
    assert all(v >= 0 for v in selfs.values()) and un >= 0
    assert sum(selfs.values()) + un == pytest.approx(10.0, abs=1e-9)


def test_layer_metrics_identity_and_counters():
    spans = [
        span(1, None, 1.0, 2.0, parent=0, name="exchange.upstream"),
        span(2, "exchange", 2.0, 4.0, parent=0, in_blocks=3, in_rows=30, in_bytes=2**20,
             width=4, refs=12, tasks=7, nonempty=3),
        span(0, "hashdrop", 5.0, 6.0, pid=7, checked=10, dropped=4),
        span(1, "hashdrop", 6.5, 7.0, pid=7, checked=10, dropped=1),
    ]
    m = layer_metrics(spans, ROOT)
    assert attributed_total(m) == pytest.approx(m["trace.wall_s"]) == pytest.approx(10.0)
    assert m["exchange.calls"] == 1 and m["exchange.refs"] == 12 and m["exchange.in_mb"] == 1
    assert m["exchange.nonempty_frac"] == pytest.approx(0.75)
    assert m["exchange.upstream_s"] == pytest.approx(1.0)
    assert m["exchange.s"] == pytest.approx(2.0)
    assert m["hashdrop.dropped_frac"] == pytest.approx(0.25)
    assert m["hashdrop.busy_s"] == pytest.approx(1.5)
