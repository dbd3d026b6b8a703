"""Unit tests for the instrumented event-dispatch bus."""

import pytest

from repro.sim.scheduler import SimulationError, Simulator
from repro.sim.scheduler import DispatchBus


def test_dispatch_counts_per_label():
    sim = Simulator()
    sim.schedule(1.0, lambda: None, label="tick")
    sim.schedule(2.0, lambda: None, label="tick")
    sim.schedule(3.0, lambda: None, label="other")
    sim.run()
    assert sim.dispatch.counts == {"tick": 2, "other": 1}
    assert sim.dispatch.wall_seconds["tick"] >= 0.0
    assert sim.dispatch.max_wall_seconds["tick"] >= 0.0


def test_dispatch_label_falls_back_to_callback_name():
    sim = Simulator()

    def my_callback():
        pass

    sim.schedule(1.0, my_callback)
    sim.run()
    assert sim.dispatch.counts == {"my_callback": 1}


def test_pre_dispatch_hook_sees_events_and_can_suppress():
    """A dispatch_pre observer cancelling the event is the fault-injection
    point."""
    sim = Simulator()
    fired = []
    seen = []

    def drop_deliveries(event):
        seen.append(sim.dispatch.label_of(event))
        if event.label == "net:deliver":
            event.cancel()

    remove = sim.observers.subscribe("dispatch_pre", drop_deliveries)
    sim.schedule(1.0, lambda: fired.append("a"), label="net:deliver")
    sim.schedule(2.0, lambda: fired.append("b"), label="tick")
    sim.run()
    assert fired == ["b"]
    assert seen == ["net:deliver", "tick"]
    assert sim.dispatch.suppressed == {"net:deliver": 1}
    assert sim.dispatch.counts == {"tick": 1}
    assert sim.trace.count("dispatch.suppressed") == 1

    remove()
    sim.schedule(1.0, lambda: fired.append("c"), label="net:deliver")
    sim.run()
    assert fired == ["b", "c"]


def test_post_dispatch_hook_receives_elapsed_and_runs_on_error():
    sim = Simulator()
    observed = []
    sim.observers.subscribe(
        "dispatch_post",
        lambda event, elapsed: observed.append((sim.dispatch.label_of(event), elapsed)),
    )
    sim.schedule(1.0, lambda: None, label="ok")

    def boom():
        raise RuntimeError("exploded")

    sim.schedule(2.0, boom, label="bad")
    with pytest.raises(RuntimeError):
        sim.run()
    labels = [label for label, _ in observed]
    assert labels == ["ok", "bad"]
    assert all(elapsed >= 0.0 for _, elapsed in observed)
    # The failing event is still accounted.
    assert sim.dispatch.counts == {"ok": 1, "bad": 1}


def test_summary_sorted_busiest_first():
    sim = Simulator()
    for i in range(3):
        sim.schedule(float(i), lambda: None, label="busy")
    sim.schedule(5.0, lambda: None, label="rare")
    sim.run()
    rows = sim.dispatch.summary()
    assert [row["label"] for row in rows] == ["busy", "rare"]
    busy = rows[0]
    assert busy["events"] == 3
    assert busy["wall_s"] >= busy["mean_s"] >= 0.0
    assert busy["max_s"] >= busy["mean_s"]


def test_publish_exports_gauges_to_sim_metrics():
    sim = Simulator()
    sim.schedule(1.0, lambda: None, label="tick")
    sim.run()
    sim.dispatch.publish()
    snapshot = sim.metrics.snapshot()
    assert snapshot["gauges"]["sim.dispatch.tick.events"] == 1
    assert snapshot["gauges"]["sim.dispatch.tick.wall_s"] >= 0.0
    assert snapshot["gauges"]["sim.dispatch.tick.wall_max_s"] >= 0.0


def test_publish_without_registry_raises():
    bus = DispatchBus()
    with pytest.raises(SimulationError):
        bus.publish()


def test_reset_clears_statistics_but_keeps_hooks():
    sim = Simulator()
    calls = []
    sim.observers.subscribe("dispatch_pre", lambda event: calls.append(event.label))
    sim.schedule(1.0, lambda: None, label="tick")
    sim.run()
    sim.dispatch.reset()
    assert sim.dispatch.counts == {}
    sim.schedule(1.0, lambda: None, label="tick")
    sim.run()
    assert sim.dispatch.counts == {"tick": 1}
    assert calls == ["tick", "tick"]


def test_current_dispatch_label_inside_and_outside_events():
    """The profiler's attribution slot tracks the executing event's label."""
    from repro.sim.scheduler import current_dispatch_label

    seen = []
    sim = Simulator()
    assert current_dispatch_label() is None
    sim.schedule(1.0, lambda: seen.append(current_dispatch_label()), label="tick")
    sim.schedule(2.0, lambda: seen.append(current_dispatch_label()), label="other")
    sim.run()
    assert seen == ["tick", "other"]
    # Cleared once dispatch returns — outside code attributes to no label.
    assert current_dispatch_label() is None


def test_current_dispatch_label_nests_and_unwinds():
    from repro.sim.events import Event
    from repro.sim.scheduler import current_dispatch_label

    sim = Simulator()
    seen = []

    def inner():
        seen.append(("inner", current_dispatch_label()))

    def outer():
        seen.append(("outer-before", current_dispatch_label()))
        sim.dispatch.dispatch(Event(time=sim.now, seq=10**9, callback=inner, label="inner"))
        seen.append(("outer-after", current_dispatch_label()))

    sim.schedule(1.0, outer, label="outer")
    sim.run()
    assert seen == [
        ("outer-before", "outer"),
        ("inner", "inner"),
        ("outer-after", "outer"),
    ]
    assert current_dispatch_label() is None


def test_current_dispatch_label_cleared_after_event_error():
    from repro.sim.scheduler import current_dispatch_label

    sim = Simulator()

    def boom():
        raise RuntimeError("exploded")

    sim.schedule(1.0, boom, label="bad")
    with pytest.raises(RuntimeError):
        sim.run()
    assert current_dispatch_label() is None


def test_current_dispatch_label_not_set_for_suppressed_events():
    from repro.sim.scheduler import current_dispatch_label

    sim = Simulator()
    seen = []
    sim.observers.subscribe(
        "dispatch_pre", lambda event: event.cancel() if event.label == "drop" else None
    )
    sim.schedule(1.0, lambda: seen.append(current_dispatch_label()), label="drop")
    sim.schedule(2.0, lambda: seen.append(current_dispatch_label()), label="keep")
    sim.run()
    assert seen == ["keep"]
    assert current_dispatch_label() is None


def test_dispatch_instrumentation_preserves_trace_determinism():
    """Wall-clock timings must never leak into the deterministic trace."""

    def digest(seed):
        sim = Simulator(seed=seed)
        stop = sim.every(0.5, lambda: sim.trace.emit("app.tick", "t"), label="app")
        sim.run_until(5.0)
        stop()
        return sim.trace.digest()

    assert digest(9) == digest(9)
