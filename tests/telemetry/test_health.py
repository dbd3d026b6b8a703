"""HealthProbe: periodic per-subnet vitals on the metrics time series."""

import pytest

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.telemetry.health import FIELDS, HealthProbe


@pytest.fixture(scope="module")
def probed_system():
    system = HierarchicalSystem(seed=23)
    system.start()
    system.enable_telemetry(health_interval=1.0)
    system.spawn_subnet(SubnetConfig(name="fast", validators=3, block_time=0.5))
    system.run_for(15)
    return system


def test_probe_samples_every_subnet(probed_system):
    latest = probed_system.health_probe.latest
    assert set(latest) == {"/root", "/root/fast"}
    for sample in latest.values():
        for field in FIELDS:
            assert field in sample


def test_probe_records_time_series(probed_system):
    series = probed_system.sim.metrics.series
    heights = series["health./root/fast.height"]
    assert len(heights.points) >= 10  # one per second of simulated time
    times = heights.times()
    assert times == sorted(times)
    # Chains advance: height samples are non-decreasing and end positive.
    values = [v for _, v in heights.points]
    assert values == sorted(values)
    assert values[-1] > 0


def test_checkpoint_lag_semantics(probed_system):
    latest = probed_system.health_probe.latest
    assert latest["/root"]["checkpoint_lag"] is None  # root anchors to nothing
    lag = latest["/root/fast"]["checkpoint_lag"]
    assert isinstance(lag, int) and lag >= 0
    assert "health./root.checkpoint_lag" not in probed_system.sim.metrics.series


def test_probe_stop_halts_sampling(probed_system):
    probe = probed_system.health_probe
    probe.stop()
    before = len(probed_system.sim.metrics.series["health./root.height"].points)
    probed_system.run_for(5)
    after = len(probed_system.sim.metrics.series["health./root.height"].points)
    assert after == before
    probe.start()  # re-arm for any later test using the fixture


def test_standalone_probe_without_installing_tracer():
    system = HierarchicalSystem(seed=29)
    system.start()
    probe = HealthProbe(system, interval=0.5).start()
    system.run_for(4)
    assert probe.latest["/root"]["height"] > 0
    assert system.span_tracer is None
    # Sampling alone subscribes no commit-time observer.
    assert system.sim.observers.block_commit == ()


def test_height_is_the_best_head_while_validator_0_is_stopped():
    """``health.<subnet>.height`` follows the subnet's best head, not
    validator 0's: a stopped validator must not read as a stalled subnet."""
    system = HierarchicalSystem(seed=31)
    system.start()
    sub = system.spawn_subnet(SubnetConfig(name="s0", validators=3, block_time=0.5))
    probe = HealthProbe(system, interval=1.0).start()
    first, *rest = system.nodes(sub)
    first.stop()
    system.run_for(10)
    best = max(node.head().height for node in rest)
    assert first.head().height < best
    assert probe.latest[sub.path]["height"] == best
    series = system.sim.metrics.series[f"health.{sub.path}.height"]
    assert series.points[-1][1] == best
