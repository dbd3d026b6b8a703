"""Every engine feeds the round tracer; Tendermint's hard paths too.

Engines emit ``round`` observations on ``sim.observers``, so these tests
subscribe a real :class:`~repro.telemetry.rounds.RoundTracer` on the
cluster simulator and assert the engines narrate their round/slot machinery into it —
including the paths that only fire under faults: propose timeouts and the
f+1 round catch-up skip.
"""

import pytest

from repro.consensus.tendermint import Vote
from repro.telemetry import RoundTracer


@pytest.mark.parametrize("engine", ["poa", "pos", "pow", "mir", "tendermint"])
def test_every_engine_feeds_the_round_tracer(make_cluster, engine):
    cluster = make_cluster(4, engine=engine, block_time=0.5)
    tracer = RoundTracer(cluster.sim).install()
    cluster.start().run(10.0)
    assert min(cluster.heights()) >= 1

    entry = tracer.summary()["subnets"]["/root"]
    assert entry["counts"]["commit"] >= 1
    assert entry["frontier_height"] >= 1
    # The proposer narrated its own block; every validator has a timeline.
    assert entry["counts"]["propose"] >= 1
    assert entry["validators"] == [f"n{i}" for i in range(4)]
    kinds = {kind for _, kind, _ in tracer.timeline("/root", "n0")}
    if engine == "tendermint":
        assert {"round_start", "vote", "lock", "commit"} <= kinds
        assert entry["quorum_power"] == 3
    else:
        assert "commit" in kinds


def test_tendermint_timeouts_are_traced(make_cluster):
    cluster = make_cluster(
        4, engine="tendermint", byzantine={"n0": {"withhold_block"}}
    )
    tracer = RoundTracer(cluster.sim).install()
    cluster.start().run(20.0)
    # n0's proposer slots time out: the propose-timeout path narrates.
    assert cluster.sim.metrics.counter("consensus.round./root.timeouts").value > 0
    timeline = tracer.timeline("/root", "n1")
    timeouts = [fields for _, kind, fields in timeline if kind == "timeout"]
    assert timeouts
    assert all(entry["step"] in ("propose", "prevote", "precommit")
               for entry in timeouts)


def test_tendermint_round_skip_on_f_plus_1_future_votes(make_cluster):
    """The catch-up rule (arXiv:1807.04938 line 55): f+1 power messaging
    at a higher round pulls a stale validator forward — and the jump is
    traced as ``round_skip``, not ``round_start``."""
    cluster = make_cluster(4, engine="tendermint")
    tracer = RoundTracer(cluster.sim).install()
    cluster.start()
    engine = cluster.nodes[0].engine
    # Land in an active step (not the commit-wait pacing gap).
    cluster.run(0.3)
    for _ in range(30):
        if engine.step != "commit-wait":
            break
        cluster.run(0.1)
    assert engine.step != "commit-wait"

    target = engine.round + 2
    height = engine.height
    # One future-round vote is f power: not enough, no skip.
    engine._on_vote(Vote(height, target, "prevote", None, "n1"))
    assert engine.round < target
    # A second distinct voter crosses f+1 (4 // 3 + 1 = 2): skip.
    engine._on_vote(Vote(height, target, "prevote", None, "n2"))
    assert engine.round == target
    skips = [fields for _, kind, fields in tracer.timeline("/root", "n0")
             if kind == "round_skip"]
    assert any(entry["round"] == target and entry["height"] == height
               for entry in skips)
    assert cluster.sim.metrics.counter("consensus.round./root.skips").value >= 1


def test_tendermint_commit_wait_ignores_future_round_votes(make_cluster):
    """Between a commit and the next height's start the round counter is
    meaningless; catch-up must not fire from the pacing gap."""
    cluster = make_cluster(4, engine="tendermint", block_time=2.0)
    cluster.start()
    engine = cluster.nodes[0].engine
    cluster.run(0.5)
    for _ in range(40):
        if engine.step == "commit-wait":
            break
        cluster.run(0.1)
    assert engine.step == "commit-wait"
    round_before = engine.round
    engine._on_vote(Vote(engine.height, round_before + 5, "prevote", None, "n1"))
    engine._on_vote(Vote(engine.height, round_before + 5, "prevote", None, "n2"))
    assert engine.round == round_before
    assert engine.step == "commit-wait"
