"""Integration: deep hierarchies and path messages (§IV-A)."""

import pytest

from repro.hierarchy import ROOTNET, HierarchicalSystem, SubnetConfig, audit_system
from tests.storage.reference import reference_root


def assert_head_roots_fresh(system):
    """Each node's head state commits to its header's root, through the
    incremental tree and through the independent reference over
    ``flatten()``.  A stored record mutated in place would leave a cached
    leaf stale and split the two — until a later copy-and-write of the same
    key hides it, so this runs right after each cross-msg route."""
    for subnet in system.subnets:
        for node in system.nodes(subnet):
            header = node.head().header
            state = node.vm.state
            assert state.root() == header.state_root, f"{subnet}: stale root"
            assert (
                reference_root(state.flatten(), state._n_buckets) == header.state_root
            ), f"{subnet}: committed root disagrees with the reference"


@pytest.fixture(scope="module")
def deep_system():
    """/root → /root/a → /root/a/b, plus a sibling /root/c."""
    system = HierarchicalSystem(
        seed=23,
        root_validators=3,
        root_block_time=0.5,
        checkpoint_period=5,
        wallet_funds={"alice": 2_000_000, "bob": 2_000_000},
    ).start()
    system.spawn_subnet(
        SubnetConfig(name="a", validators=3, block_time=0.25, checkpoint_period=5)
    )
    system.spawn_subnet(
        SubnetConfig(
            name="b", parent=ROOTNET.child("a"), validators=3,
            block_time=0.25, checkpoint_period=5,
        )
    )
    system.spawn_subnet(
        SubnetConfig(name="c", validators=3, block_time=0.25, checkpoint_period=5)
    )
    return system


def test_grandchild_subnet_exists_and_runs(deep_system):
    grandchild = ROOTNET.child("a").child("b")
    assert grandchild in deep_system.nodes_by_subnet
    height = deep_system.node(grandchild).head().height
    deep_system.run_for(3.0)
    assert deep_system.node(grandchild).head().height > height


def test_multihop_topdown_fund(deep_system):
    """Funds injected at the root traverse two top-down hops."""
    system = deep_system
    alice = system.wallets["alice"]
    grandchild = ROOTNET.child("a").child("b")
    system.fund_subnet(system.wallets["alice"], ROOTNET.child("a"), alice.address, 200_000)
    assert system.wait_for(
        lambda: system.balance(ROOTNET.child("a"), alice.address) >= 200_000,
        timeout=60.0,
    )
    # From /root/a, fund the grandchild.
    system.fund_subnet(alice, grandchild, alice.address, 80_000)
    assert system.wait_for(
        lambda: system.balance(grandchild, alice.address) >= 80_000, timeout=60.0
    )
    # Circulating supplies recorded level by level.
    assert system.child_record(ROOTNET, "/root/a")["circulating"] >= 200_000
    assert system.child_record(ROOTNET.child("a"), "/root/a/b")["circulating"] >= 80_000
    assert_head_roots_fresh(system)


def test_multihop_bottomup_release(deep_system):
    """Value climbs two levels through two checkpoint relays."""
    system = deep_system
    alice = system.wallets["alice"]
    carol = system.create_wallet("carol-deep")
    grandchild = ROOTNET.child("a").child("b")
    system.cross_send(alice, grandchild, ROOTNET, carol.address, 5_000)
    assert system.wait_for(
        lambda: system.balance(ROOTNET, carol.address) == 5_000, timeout=180.0
    ), "two-hop bottom-up transfer never arrived"
    assert_head_roots_fresh(system)


def test_path_message_between_siblings(deep_system):
    """A cross-msg from /root/a/b to /root/c: up two hops, down one (§IV-A)."""
    system = deep_system
    alice = system.wallets["alice"]
    dave = system.create_wallet("dave-path")
    grandchild = ROOTNET.child("a").child("b")
    sibling = ROOTNET.child("c")
    system.cross_send(alice, grandchild, sibling, dave.address, 3_000)
    assert system.wait_for(
        lambda: system.balance(sibling, dave.address) == 3_000, timeout=240.0
    ), "path message never arrived at the sibling subnet"
    # The sibling's circulating supply grew by the path transfer.
    assert system.child_record(ROOTNET, "/root/c")["circulating"] >= 3_000
    assert_head_roots_fresh(system)


def test_supply_invariants_after_routing(deep_system):
    deep_system.run_for(10.0)
    audit = audit_system(deep_system)
    assert audit.ok, audit.violations


def test_every_subnet_converges(deep_system):
    deep_system.run_for(5.0)
    for subnet in deep_system.subnets:
        nodes = deep_system.nodes(subnet)
        heights = [n.head().height for n in nodes]
        assert max(heights) - min(heights) <= 2, f"{subnet} diverged"


def test_head_state_roots_are_fresh(deep_system):
    deep_system.run_for(2.0)
    assert_head_roots_fresh(deep_system)
