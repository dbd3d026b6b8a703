"""Observation planes on the simulator's stream: cheap when off, and
digest-neutral when on, under FIFO and shuffled tie orders."""

import pytest

from repro.hierarchy import ROOTNET, HierarchicalSystem, SubnetConfig
from repro.sim.observers import KINDS


def _run(monkeypatch, tie_shuffle, planes: bool) -> HierarchicalSystem:
    """Root + one subnet: a top-down fund and a bottom-up cross-send."""
    if tie_shuffle is None:
        monkeypatch.delenv("REPRO_TIE_SHUFFLE", raising=False)
    else:
        monkeypatch.setenv("REPRO_TIE_SHUFFLE", str(tie_shuffle))
    system = HierarchicalSystem(
        seed=13, root_validators=3, root_block_time=0.5,
        checkpoint_period=4, wallet_funds={"alice": 10_000},
    ).start()
    if planes:
        system.enable_telemetry(health_interval=1.0, monitors=True)
    subnet = system.spawn_subnet(
        SubnetConfig(name="s0", validators=3, block_time=0.25, checkpoint_period=4)
    )
    alice = system.wallets["alice"]
    system.fund_subnet(alice, subnet, alice.address, 2_000)
    assert system.wait_for(
        lambda: system.balance(subnet, alice.address) >= 2_000, timeout=60.0
    )
    bob = system.create_wallet("bob")
    system.cross_send(alice, subnet, ROOTNET, bob.address, 300)
    assert system.wait_for(
        lambda: system.balance(ROOTNET, bob.address) == 300, timeout=120.0
    )
    system.run_until(20.0)
    return system


@pytest.mark.parametrize("tie_shuffle", [None, 1, 2, 3])
def test_planes_on_and_off_reach_the_same_end_state(monkeypatch, tie_shuffle):
    off = _run(monkeypatch, tie_shuffle, planes=False)
    on = _run(monkeypatch, tie_shuffle, planes=True)
    assert on.end_state_digest() == off.end_state_digest()
    # The planes really watched the run they must not perturb.
    assert on.span_tracer.delivered_count() >= 2
    assert on.round_tracer.summary()["events"] > 0
    assert on.invariant_monitor.ok
    # And the digest does not depend on the tie order either.
    fifo = _run(monkeypatch, None, planes=False) if tie_shuffle else off
    assert off.end_state_digest() == fifo.end_state_digest()


def test_off_path_buffers_nothing_and_calls_nobody(monkeypatch):
    system = _run(monkeypatch, None, planes=False)
    for kind in KINDS:
        assert getattr(system.sim.observers, kind) == (), kind
    for nodes in system.nodes_by_subnet.values():
        for node in nodes:
            assert node._block_events == {}
