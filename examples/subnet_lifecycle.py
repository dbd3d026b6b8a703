#!/usr/bin/env python3
"""Subnet lifecycle and security: collateral, slashing, save & recover.

Demonstrates §III end to end:

1. miners join with stake; the subnet activates once collateral and the
   validator minimum are met;
2. an equivocating checkpoint signer is caught — honest validators build a
   fraud proof from the two conflicting signed checkpoints and the SCA
   slashes the subnet's collateral;
3. miners leave, dropping collateral under minCollateral: the subnet goes
   *inactive* and the SCA refuses cross-net traffic;
4. before the subnet is killed, a participant calls ``save()`` with a
   merkle balances snapshot; after the kill, a user proves her balance and
   recovers her funds on the parent (§III-C).

Run:  python examples/subnet_lifecycle.py
"""

from repro import HierarchicalSystem, ROOTNET, SCA_ADDRESS, SignaturePolicy, SubnetConfig
from repro.crypto.merkle import MerkleTree


def show_record(system, subnet, label):
    record = system.child_record(ROOTNET, subnet)
    print(f"  [{label}] status={record['status']} collateral={record['collateral']} "
          f"slashed={record['slashed_total']} circulating={record['circulating']}")


def main() -> None:
    print("== Subnet lifecycle: stake, slash, save, recover ==\n")
    system = HierarchicalSystem(
        seed=13, root_validators=3, root_block_time=0.5, checkpoint_period=4,
        wallet_funds={"carol": 1_000_000},
    ).start()

    print("-- a subnet with one equivocating validator --")
    subnet = system.spawn_subnet(
        SubnetConfig(
            name="shady", validators=3, block_time=0.25, checkpoint_period=4,
            policy=SignaturePolicy(kind="single"),
            byzantine={0: {"equivocate_checkpoint"}},  # validator 0 double-signs
        )
    )
    show_record(system, subnet, "after activation")

    carol = system.wallets["carol"]
    system.fund_subnet(carol, subnet, carol.address, 30_000)
    system.wait_for(lambda: system.balance(subnet, carol.address) >= 30_000)
    print(f"  carol holds {system.balance(subnet, carol.address)} inside {subnet}")

    print("\n-- honest validators catch the equivocation (§III-B) --")
    system.wait_for(
        lambda: system.child_record(ROOTNET, subnet)["slashed_total"] > 0,
        timeout=60.0,
    )
    proofs = system.sim.metrics.counter("checkpoint.fraud_proofs", subnet=subnet.path).value
    print(f"  fraud proofs submitted: {proofs}")
    show_record(system, subnet, "after slashing")

    print("\n-- repeated slashing drives the subnet inactive --")
    system.wait_for(
        lambda: system.child_record(ROOTNET, subnet)["status"] == "inactive",
        timeout=120.0,
    )
    show_record(system, subnet, "inactive")
    before = system.balance(ROOTNET, carol.address)
    system.fund_subnet(carol, subnet, carol.address, 1_000)
    system.run_for(3.0)
    refused = system.balance(ROOTNET, carol.address) == before
    print(f"  further cross-net funding refused: {refused}")

    print("\n-- save() the state, kill the subnet, recover funds (§III-C) --")
    subnet_vm = system.node(subnet).vm
    balances = sorted(
        (key[len('balance/'):], subnet_vm.state.get(key))
        for key in subnet_vm.state.keys("balance/")
    )
    tree = MerkleTree(balances)
    index = next(i for i, (addr, _) in enumerate(balances)
                 if addr == carol.address.raw)
    proof = tree.prove(index)
    validator_wallets = system.validator_wallets(subnet)
    validator_wallets[1].send(
        system.node(ROOTNET), SCA_ADDRESS, method="save_state",
        params={"subnet_path": subnet.path,
                "epoch": system.node(subnet).head().height,
                "state_cid": subnet_vm.state_root(),
                "balances_root": tree.root},
    )
    for wallet in validator_wallets:
        wallet.send(system.node(ROOTNET), system.sa_address(subnet), method="vote_kill")
    system.wait_for(lambda: system.child_record(ROOTNET, subnet)["status"] == "killed")
    show_record(system, subnet, "killed")

    root_before = system.balance(ROOTNET, carol.address)
    carol.send(
        system.node(ROOTNET), SCA_ADDRESS, method="claim_saved_funds",
        params={"subnet_path": subnet.path, "balance": 30_000, "proof": proof},
    )
    system.wait_for(lambda: system.balance(ROOTNET, carol.address) > root_before)
    print(f"  carol recovered {system.balance(ROOTNET, carol.address) - root_before} "
          f"on the rootnet with a merkle balance proof")
    show_record(system, subnet, "after claim")
    print(f"\ndone at t={system.sim.now:.1f}s")


if __name__ == "__main__":
    main()
