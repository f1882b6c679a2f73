"""Percentiles, case latency over passes, span self time, busy time and tracing overhead."""

import math
from types import SimpleNamespace

import pytest

import benchstats
import run
import tracer


def test_percentile_nearest_rank():
    xs = list(range(1, 41))  # 1..40
    assert benchstats.percentile(xs, 50) == 20
    assert benchstats.percentile(xs, 75) == 30  # ten samples beyond
    assert benchstats.percentile([5.0], 75) == 5.0


def test_percentile_counts_failures_as_inf():
    ok = [float(i) for i in range(1, 37)]
    xs = ok + [math.inf] * 4  # 4 of 40 failed
    assert benchstats.percentile(xs, 50) == 20.0
    assert benchstats.percentile(xs, 75) == 30.0
    assert benchstats.percentile(xs, 95) == math.inf
    # fixing a failing case can only lower the percentiles
    fixed = ok + [100.0] + [math.inf] * 3
    assert benchstats.percentile(fixed, 92.5) == 100.0
    assert benchstats.percentile(xs, 92.5) == math.inf
    # with more than a quarter failed, the p75 is +inf
    assert benchstats.percentile([1.0] * 29 + [math.inf] * 11, 75) == math.inf


def test_latency_is_the_mean_of_the_passes_and_a_failure_is_inf():
    passes = SimpleNamespace(failed=[False, True, False],
                             times=[[0.3, 0.2, 0.25], [0.1, 0.1], [0.5, 0.4]])
    assert run.Run.latencies_s(passes) == pytest.approx([0.25, math.inf, 0.45])


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        benchstats.percentile([], 50)
    with pytest.raises(ValueError):
        benchstats.percentile([1.0], 0)


def test_self_time_without_children():
    assert benchstats.self_time(1.0, 3.0, []) == 2.0


def test_self_time_nested_children():
    # a child that contains a grandchild's interval is counted once, since
    # only the direct children are subtracted
    assert benchstats.self_time(0.0, 10.0, [(1.0, 4.0), (6.0, 7.0)]) == pytest.approx(6.0)


def test_self_time_overlapping_children():
    # overlapping children cover [1, 5] and [6, 8]: 6 units, counted once
    kids = [(1.0, 3.0), (2.0, 5.0), (6.0, 8.0), (7.0, 7.5)]
    assert benchstats.self_time(0.0, 10.0, kids) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_span():
    assert benchstats.self_time(2.0, 4.0, [(1.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)


def test_aggregate_busy_counts_recursion_once():
    spans = [
        ["outer", 0.0, 10.0, None, 0],
        ["leaf", 1.0, 3.0, 0, 0],
        ["outer", 4.0, 8.0, 0, 0],  # outer calls itself
        ["leaf", 5.0, 6.0, 2, 0],
    ]
    calls, busy, selft = tracer.aggregate(spans)
    assert calls["outer"] == 2 and calls["leaf"] == 2
    assert busy["outer"] == pytest.approx(10.0)
    assert busy["leaf"] == pytest.approx(3.0)
    # outer self: (10 - 2 - 4) + (4 - 1)
    assert selft["outer"] == pytest.approx(7.0)


def test_overhead_ratio_is_traced_over_untraced():
    assert benchstats.overhead_ratio([1.1, 2.2], [1.0, 2.0]) == pytest.approx(1.1)
    assert benchstats.overhead_ratio([1.0], [1.0]) == 1.0
    with pytest.raises(ValueError):
        benchstats.overhead_ratio([1.0], [0.0])


def test_tracer_records_spans_counts_and_failures():
    tr = tracer.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = tr.wrap(inner, "inner")
    outer_t = tr.wrap(lambda x: inner_t(x) + inner_t(x), "outer")
    tr.case = 7
    assert outer_t(2) == 4
    with pytest.raises(ValueError):
        inner_t(-1)
    names = [s[0] for s in tr.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert tr.spans[1][3] == 0 and tr.spans[3][3] is None
    assert all(s[4] == 7 and s[2] >= s[1] for s in tr.spans)
    assert tr.counts["inner.failed"] == 1
