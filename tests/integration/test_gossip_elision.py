"""Eliding provably duplicate gossip copies leaves a hierarchy's run
unchanged: same end state, same chains, same committed blocks."""

import repro.runtime.stack
from repro.hierarchy import ROOTNET, HierarchicalSystem, SubnetConfig
from tests.net.test_gossip import ScheduleEveryCopy


def _run(monkeypatch, oracle: bool) -> HierarchicalSystem:
    """Root + one subnet under FIFO: a top-down fund, a bottom-up send."""
    monkeypatch.delenv("REPRO_TIE_SHUFFLE", raising=False)
    if oracle:
        monkeypatch.setattr(repro.runtime.stack, "Transport", ScheduleEveryCopy)
    system = HierarchicalSystem(
        seed=21, root_validators=3, root_block_time=0.5,
        checkpoint_period=4, wallet_funds={"alice": 10_000},
    ).start()
    subnet = system.spawn_subnet(
        SubnetConfig(name="s0", validators=4, block_time=0.25, checkpoint_period=4)
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
    system.run_until(15.0)
    monkeypatch.undo()
    return system


def _chains(system):
    return {
        (str(subnet), node.node_id): (
            node.store.head_cid,
            node.store.height,
            [block.cid for block in node.store.canonical_chain()],
        )
        for subnet, nodes in system.nodes_by_subnet.items()
        for node in nodes
    }


def _counter(system, name):
    return system.sim.metrics.counter(name).value


def test_hierarchy_run_matches_the_schedule_every_copy_oracle(monkeypatch):
    oracle = _run(monkeypatch, oracle=True)
    elided = _run(monkeypatch, oracle=False)
    assert elided.end_state_digest() == oracle.end_state_digest()
    assert _chains(elided) == _chains(oracle)
    assert elided.sim.trace.digest() == oracle.sim.trace.digest()
    assert _counter(oracle, "net.elided") == 0
    assert _counter(elided, "net.elided") > 0
    assert _counter(elided, "net.sent") == _counter(oracle, "net.sent")
    assert elided.sim.events_executed < oracle.sim.events_executed
