"""Unit tests for metrics."""

import math

import pytest

from repro.sim.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    series_key,
    split_series_key,
)


def test_counter_increments():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("c").inc(-1)


def test_gauge_set_and_add():
    gauge = Gauge("g")
    gauge.set(10.0)
    gauge.add(-3.0)
    assert gauge.value == 7.0


def test_histogram_summary_statistics():
    histogram = Histogram("h")
    histogram.observe_many(range(1, 101))
    assert histogram.count == 100
    assert histogram.mean() == pytest.approx(50.5)
    assert histogram.percentile(50) == pytest.approx(50.5)
    assert histogram.min() == 1
    assert histogram.max() == 100


def test_histogram_percentile_interpolates():
    histogram = Histogram("h")
    histogram.observe_many([0.0, 10.0])
    assert histogram.percentile(25) == pytest.approx(2.5)


def test_histogram_empty_is_nan():
    histogram = Histogram("h")
    assert math.isnan(histogram.mean())
    assert math.isnan(histogram.percentile(50))


def test_histogram_percentile_bounds():
    histogram = Histogram("h")
    histogram.observe(1.0)
    with pytest.raises(ValueError):
        histogram.percentile(101)


def test_histogram_stdev():
    histogram = Histogram("h")
    histogram.observe_many([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert histogram.stdev() == pytest.approx(2.138, abs=1e-3)
    single = Histogram("s")
    single.observe(1.0)
    assert single.stdev() == 0.0


def test_histogram_summary_is_json_safe_when_empty():
    import json

    summary = Histogram("h").summary()
    assert summary["count"] == 0
    for key in ("mean", "stdev", "p50", "p95", "p99", "min", "max"):
        assert summary[key] is None
    json.dumps(summary, allow_nan=False)  # must not raise


def test_histogram_summary_values_round_trip():
    import json

    histogram = Histogram("h")
    histogram.observe_many([1.0, 2.0, 3.0])
    summary = histogram.summary()
    assert summary["count"] == 3
    assert summary["mean"] == pytest.approx(2.0)
    assert summary["p50"] == pytest.approx(2.0)
    json.dumps(summary, allow_nan=False)


def test_histogram_merge_combines_samples():
    a = Histogram("a")
    a.observe_many([1.0, 2.0])
    b = Histogram("b")
    b.observe_many([3.0, 4.0])
    c = Histogram("c")
    merged = a.merge(b, c)
    assert merged is a
    assert a.count == 4
    assert a.mean() == pytest.approx(2.5)
    assert b.count == 2  # sources untouched


def test_timeseries_rate():
    series = TimeSeries("t")
    for t in range(11):
        series.record(float(t), 1.0)
    assert series.rate() == pytest.approx(11 / 10)
    assert series.rate(window=(0.0, 5.0)) == pytest.approx(6 / 5)


def test_timeseries_rate_degenerate():
    """Undefined rates are None (JSON null), like Histogram.summary()."""
    series = TimeSeries("t")
    assert series.rate() is None  # empty series
    assert series.rate(window=(0.0, 5.0)) is None  # still empty
    series.record(1.0, 1.0)
    assert series.rate() is None  # single point: no span
    assert series.rate(window=(3.0, 3.0)) is None  # zero-span window
    assert series.rate(window=(5.0, 2.0)) is None  # inverted window
    # A genuine zero: positive-span window covering no points.
    assert series.rate(window=(10.0, 20.0)) == 0.0


def test_registry_reuses_instances():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.histogram("b") is registry.histogram("b")
    assert registry.gauge("c") is registry.gauge("c")
    assert registry.timeseries("d") is registry.timeseries("d")


def test_registry_labels_name_one_series_whatever_their_order():
    registry = MetricsRegistry()
    hop = registry.histogram("xnet.hop", level=1, hop="topdown")
    assert hop is registry.histogram("xnet.hop", hop="topdown", level="1")
    assert list(registry.histograms) == ['xnet.hop{hop="topdown",level="1"}']
    registry.mark("chain.blocks", 1, subnet="/root/a")
    assert list(registry.series) == ['chain.blocks{subnet="/root/a"}']
    assert registry.counter("net.sent").name == "net.sent"


@pytest.mark.parametrize(
    "labels",
    [{}, {"subnet": "/root/a-b"}, {"b": 'quote" back\\slash\nline', "a": "x,y=z}"}],
)
def test_series_key_round_trips_through_split(labels):
    key = series_key("chain.reorgs", labels)
    assert split_series_key(key) == ("chain.reorgs", labels)


def test_registry_mark_uses_clock():
    time = {"now": 0.0}
    registry = MetricsRegistry(clock=lambda: time["now"])
    registry.mark("events")
    time["now"] = 2.0
    registry.mark("events")
    assert registry.timeseries("events").times() == [0.0, 2.0]


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.gauge("g").set(1.0)
    registry.histogram("h").observe(1.0)
    registry.mark("s")
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"c": 1}
    assert snapshot["gauges"] == {"g": 1.0}
    assert snapshot["histograms"]["h"]["count"] == 1
    assert snapshot["series"] == {"s": 1}


def test_registry_snapshot_is_nan_safe():
    """A NaN/inf gauge snapshots as None so json.dumps(allow_nan=False)
    never chokes on a metrics snapshot."""
    import json

    registry = MetricsRegistry()
    registry.gauge("bad").set(float("nan"))
    registry.gauge("worse").set(float("inf"))
    registry.gauge("fine").set(2.0)
    snapshot = registry.snapshot()
    assert snapshot["gauges"] == {"bad": None, "worse": None, "fine": 2.0}
    json.dumps(snapshot, allow_nan=False)  # must not raise
