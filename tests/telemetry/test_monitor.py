"""Invariant monitor: honest-run silence, digest neutrality, auditor units."""

import pytest

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.sim.metrics import split_series_key
from repro.sim.scheduler import Simulator
from repro.telemetry import (
    ExactlyOnceAuditor,
    FinalityAuditor,
    InvariantMonitor,
    SupplyAuditor,
)


def _run_system(monitors: bool):
    """Root + one subnet; one top-down and one bottom-up transfer."""
    system = HierarchicalSystem(seed=11)
    system.start()
    if monitors:
        system.enable_telemetry(monitors=True)
    alice = system.create_wallet("alice", fund=500_000)
    sub = system.spawn_subnet(SubnetConfig(name="fast", validators=3, block_time=0.5))
    system.fund_subnet(alice, sub, alice.address, 50_000)
    system.run_for(20)
    system.cross_send(alice, sub, "/root", alice.address, 5_000)
    system.run_for(30)
    return system


@pytest.fixture(scope="module")
def monitored_system():
    return _run_system(monitors=True)


# ----------------------------------------------------------------------
# Honest end-to-end run
# ----------------------------------------------------------------------
def test_honest_run_has_zero_violations(monitored_system):
    monitor = monitored_system.invariant_monitor
    assert monitor.ok
    assert monitor.violations == []
    summary = monitor.summary()
    assert summary["violations"] == 0
    assert summary["by_auditor"] == {}
    assert summary["latest"] is None
    assert set(summary["auditors"]) == {
        "supply", "checkpoint-chain", "exactly-once", "finality", "membership",
    }
    # No violations → no postmortem bundles.
    assert monitored_system.flight_recorder.bundles == []


def test_digest_unchanged_with_monitors(monitored_system):
    plain = _run_system(monitors=False)
    assert plain.sim.trace.digest() == monitored_system.sim.trace.digest()
    assert len(plain.sim.trace) == len(monitored_system.sim.trace)


def test_enable_telemetry_is_idempotent(monitored_system):
    monitor = monitored_system.invariant_monitor
    recorder = monitored_system.flight_recorder
    monitored_system.enable_telemetry(monitors=True)
    assert monitored_system.invariant_monitor is monitor
    assert monitored_system.flight_recorder is recorder


def test_install_uninstall():
    sim = Simulator(seed=1)
    monitor = InvariantMonitor(sim=sim, auditors=[]).install()
    assert sim.observers.block_commit == (monitor.on_block_commit,)
    assert sim.observers.reorg == (monitor.on_reorg,)
    monitor.uninstall()
    assert sim.observers.block_commit == ()
    assert sim.observers.reorg == ()


# ----------------------------------------------------------------------
# Violation recording
# ----------------------------------------------------------------------
def test_record_dedup_and_counters():
    sim = Simulator(seed=1)
    monitor = InvariantMonitor(sim=sim, auditors=[])
    first = monitor.record("supply", "/root", "broken", dedup_key=("k",))
    again = monitor.record("supply", "/root", "broken differently", dedup_key=("k",))
    other = monitor.record("finality", "/root", "fork")
    assert first is not None and again is None and other is not None
    assert len(monitor.violations) == 2
    assert [v.seq for v in monitor.violations] == [0, 1]
    assert sum(
        counter.value
        for key, counter in sim.metrics.counters.items()
        if split_series_key(key)[0] == "invariant.violations"
    ) == 2
    assert sim.metrics.counter("invariant.violations", auditor="supply").value == 1
    assert monitor.violations_for("finality") == [other]
    assert monitor.summary()["by_auditor"] == {"supply": 1, "finality": 1}
    assert monitor.summary()["latest"]["description"] == "fork"


class _StubRecorder:
    def __init__(self):
        self.bundles = []

    def dump(self, violation=None, reason=None):
        self.bundles.append(violation)


def test_violation_triggers_recorder_dump_up_to_cap():
    sim = Simulator(seed=1)
    recorder = _StubRecorder()
    monitor = InvariantMonitor(
        sim=sim, auditors=[], recorder=recorder, max_bundles=2
    )
    for i in range(4):
        monitor.record("supply", "/root", f"violation {i}")
    assert len(monitor.violations) == 4
    assert len(recorder.bundles) == 2  # capped
    assert recorder.bundles[0].description == "violation 0"


# ----------------------------------------------------------------------
# Supply auditor (event path)
# ----------------------------------------------------------------------
class _StubNode:
    def __init__(self, subnet_id="/root", node_id="n0", store=None, engine=None):
        self.subnet_id = subnet_id
        self.node_id = node_id
        self.store = store
        self.engine = engine


def test_supply_auditor_flags_firewall_refusal():
    sim = Simulator(seed=1)
    monitor = InvariantMonitor(sim=sim, auditors=[SupplyAuditor()])
    events = [("firewall.refused", ("/root/victim", 1_000_000, 10_000))]
    monitor.on_block_commit(_StubNode(), None, events)
    monitor.on_block_commit(_StubNode(node_id="n1"), None, events)  # dedups
    (violation,) = monitor.violations
    assert violation.auditor == "supply"
    assert "exceeds its circulating supply" in violation.description


# ----------------------------------------------------------------------
# Exactly-once auditor
# ----------------------------------------------------------------------
class _StubBlock:
    def __init__(self, cid, height):
        self.cid = cid
        self.height = height


class _StubChainStore:
    """Extension oracle: blocks tagged with a chain name share a chain."""

    def __init__(self, chains):
        self._chains = chains  # cid -> chain name

    def is_extension(self, old, new):
        return self._chains.get(old) == self._chains.get(new)


def test_exactly_once_flags_double_delivery_on_one_chain():
    sim = Simulator(seed=1)
    monitor = InvariantMonitor(sim=sim, auditors=[ExactlyOnceAuditor()])
    store = _StubChainStore({"b1": "main", "b2": "main"})
    node = _StubNode(store=store)
    deliver = [("crossmsg.delivered", ("addr", 5, "cd" * 16))]
    monitor.on_block_commit(node, _StubBlock("b1", 3), deliver)
    monitor.on_block_commit(node, _StubBlock("b1", 3), deliver)  # same block: ok
    assert monitor.ok
    monitor.on_block_commit(node, _StubBlock("b2", 4), deliver)  # same chain: bad
    (violation,) = monitor.violations
    assert "applied twice" in violation.description


def test_exactly_once_tolerates_fork_replay():
    sim = Simulator(seed=1)
    monitor = InvariantMonitor(sim=sim, auditors=[ExactlyOnceAuditor()])
    store = _StubChainStore({"b1": "fork-a", "b2": "fork-b"})
    node = _StubNode(store=store)
    deliver = [("crossmsg.delivered", ("addr", 5, "cd" * 16))]
    monitor.on_block_commit(node, _StubBlock("b1", 3), deliver)
    monitor.on_block_commit(node, _StubBlock("b2", 3), deliver)
    assert monitor.ok  # rival forks may both apply; not a violation
    assert sim.metrics.counter("invariant.exactly_once.fork_replays").value == 1


def test_exactly_once_nonce_rules():
    sim = Simulator(seed=1)
    monitor = InvariantMonitor(sim=sim, auditors=[ExactlyOnceAuditor()])
    node = _StubNode()

    def topdown(nonce, cid):
        return [("crossmsg.topdown",
                 ("/root/a", nonce, 7, cid, "/root/a", "addr", "user"))]

    monitor.on_block_commit(node, None, topdown(0, "aa" * 16))
    monitor.on_block_commit(node, None, topdown(1, "bb" * 16))
    monitor.on_block_commit(node, None, topdown(1, "bb" * 16))  # re-observation
    assert monitor.ok
    monitor.on_block_commit(node, None, topdown(1, "cc" * 16))  # reuse, new cid
    monitor.on_block_commit(node, None, topdown(0, "dd" * 16))  # also reuse
    assert len(monitor.violations) == 2
    assert all("nonce" in v.description for v in monitor.violations)
    # A forward gap is counted, not convicted (monitor may attach mid-run).
    monitor.on_block_commit(node, None, topdown(5, "ee" * 16))
    assert len(monitor.violations) == 2
    assert sim.metrics.counter("invariant.exactly_once.nonce_gaps").value == 1


# ----------------------------------------------------------------------
# Finality auditor
# ----------------------------------------------------------------------
class _StubEngine:
    SUPPORTS_FORKS = True

    class params:
        finality_depth = 5


def test_finality_auditor_flags_deep_reorg():
    sim = Simulator(seed=1)
    monitor = InvariantMonitor(sim=sim, auditors=[FinalityAuditor()])
    node = _StubNode(engine=_StubEngine())
    monitor.on_reorg(node, "old", _StubBlock("new", 30), depth=3)
    assert monitor.ok  # within finality depth
    monitor.on_reorg(node, "old", _StubBlock("new", 40), depth=9)
    (violation,) = monitor.violations
    assert violation.auditor == "finality"
    assert "deeper than the finality depth" in violation.description
