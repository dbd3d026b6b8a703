"""E9 — Failing cross-msgs and the revert flow (§IV-B DDoS vector).

Cross-msgs whose application fails at the destination (calls to methods
that abort) must not stall the subnet's consensus; instead each failure
"triggers a new cross-msg with the subnet where the execution of the
message failed as source and the original source of the message as
destination … to revert every intermediate state change".

We inject a mix of healthy and poisoned bottom-up transfers and measure:
liveness (chains keep producing blocks throughout), the revert round-trip
time, and exact supply restoration.

Expected shape: zero stalls; poisoned transfers come back in roughly one
extra checkpoint round; sender balances and circulating supply restored to
the pre-send values; healthy transfers unaffected.
"""

import pytest

from repro.hierarchy import ROOTNET, audit_system

from common import build_hierarchy, run_once, show_table, write_bench_json

BLOCK_TIME = 0.25
PERIOD = 8
N_POISON = 5
N_HEALTHY = 5


def _run():
    system, (subnet,) = build_hierarchy(
        seed=901, n_subnets=1, subnet_block_time=BLOCK_TIME, checkpoint_period=PERIOD,
    )
    system.provision_treasury(subnet, 10**9)
    treasury = system.treasury
    subnet_balance_before = system.balance(subnet, treasury.address)
    circulating_before = system.child_record(ROOTNET, subnet)["circulating"]

    heights_before = system.node(subnet).head().height
    root_height_before = system.node(ROOTNET).head().height

    healthy_sinks = [system.create_wallet(f"e9-ok-{i}") for i in range(N_HEALTHY)]
    poison_value = 100
    t0 = system.sim.now
    for sink in healthy_sinks:
        system.cross_send(treasury, subnet, ROOTNET, sink.address, 50)
    for _ in range(N_POISON):
        # Destination method does not exist on an account actor -> the
        # delivery fails at the rootnet and must revert to the subnet.
        system.cross_send(
            treasury, subnet, ROOTNET, healthy_sinks[0].address, poison_value,
            method="method_that_does_not_exist",
        )

    ok_healthy = system.wait_for(
        lambda: all(system.balance(ROOTNET, s.address) == 50 for s in healthy_sinks),
        timeout=120.0,
    )
    # Reverts restore the treasury's subnet balance completely.
    expected_back = subnet_balance_before - N_HEALTHY * 50
    ok_reverted = system.wait_for(
        lambda: system.balance(subnet, treasury.address) == expected_back,
        timeout=240.0,
    )
    revert_round_trip = system.sim.now - t0
    system.run_for(5.0)

    return {
        "healthy_delivered": ok_healthy,
        "reverted": ok_reverted,
        "revert_round_trip": revert_round_trip,
        "subnet_blocks_made": system.node(subnet).head().height - heights_before,
        "root_blocks_made": system.node(ROOTNET).head().height - root_height_before,
        "circulating_delta": system.child_record(ROOTNET, subnet)["circulating"]
        - circulating_before,
        "bottomup_failures": system.sim.metrics.counter(
            "crossmsg.failed", dir="bottomup", subnet="/root"
        ).value,
        "audit_ok": audit_system(system).ok,
        "sim_elapsed": system.sim.now - t0,
    }


@pytest.mark.benchmark(group="e9")
def test_e9_failing_crossmsgs_revert(benchmark):
    result = run_once(benchmark, _run)

    show_table(
        f"E9 — {N_POISON} failing + {N_HEALTHY} healthy cross-msgs (§IV-B)",
        ["metric", "value"],
        [
            ("healthy transfers delivered", result["healthy_delivered"]),
            ("poisoned value fully reverted", result["reverted"]),
            ("revert round trip (s)", result["revert_round_trip"]),
            ("subnet blocks during episode", result["subnet_blocks_made"]),
            ("rootnet blocks during episode", result["root_blocks_made"]),
            ("net circulating change from poison",
             result["circulating_delta"] + N_HEALTHY * 50),
            ("supply audit", result["audit_ok"]),
        ],
    )

    write_bench_json("e9_revert", rows=result)
    assert result["healthy_delivered"], "healthy traffic was disturbed"
    assert result["reverted"], "poisoned value never came back"
    # Liveness: both chains kept producing blocks the whole time.
    assert result["subnet_blocks_made"] >= result["sim_elapsed"] / BLOCK_TIME * 0.5
    assert result["root_blocks_made"] > 0
    # The only net circulating change is the healthy outflow.
    assert result["circulating_delta"] == -N_HEALTHY * 50
    assert result["audit_ok"]
    # A revert costs roughly one extra checkpoint round trip: bottom-up leg
    # + top-down return, well under a minute here.
    assert result["revert_round_trip"] < 8 * BLOCK_TIME * PERIOD
