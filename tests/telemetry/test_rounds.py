"""RoundTracer and StallDiagnoser: unit, digest-neutrality and the
partitioned-subnet integration contract.

The integration test is the acceptance scenario for the stall plane: a
Tendermint subnet is split 2-2 (no side holds the 2f+1 quorum), the
progress watchdog flags the stall, and the attached ``repro.stall/v1``
report must *name* the missing quorum members and the unreachable links.
"""

import json
from types import SimpleNamespace

from repro.consensus.base import Validator, ValidatorSet
from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.scenario.runner import ProgressWatchdog
from repro.sim.scheduler import Simulator
from repro.telemetry import RoundTracer, render_stall_report
from repro.telemetry.postmortem import main as postmortem_main
from repro.telemetry.postmortem import render as render_postmortem
from repro.telemetry.rounds import STALL_SCHEMA, StallDiagnoser, render_quorum

SUBNET = "/root/a"
VAL = "/root/a#0"


def _tracer(**kwargs):
    sim = Simulator(seed=3)
    return sim, RoundTracer(sim, **kwargs).install()


def _feed(tracer, kind, time=0.0, node=VAL, **fields):
    tracer.on_round_event(SUBNET, node, kind, time, fields)


# ----------------------------------------------------------------------
# RoundTracer units
# ----------------------------------------------------------------------
def test_install_subscribes_and_uninstall_unsubscribes():
    sim, tracer = _tracer()
    assert sim.observers.round == (tracer.on_round_event,)
    tracer.uninstall()
    assert sim.observers.round == ()
    # Uninstalling twice leaves somebody else's tracer subscribed.
    other = RoundTracer(sim).install()
    tracer.uninstall()
    assert sim.observers.round == (other.on_round_event,)


def test_frontier_advances_and_never_regresses():
    _sim, tracer = _tracer()
    _feed(tracer, "round_start", 1.0, height=3, round=0, quorum=3, total=4)
    assert tracer.frontier(SUBNET) == (3, 0)
    _feed(tracer, "round_skip", 2.0, height=3, round=2, quorum=3, total=4)
    assert tracer.frontier(SUBNET) == (3, 2)
    # A straggler vote for an older round must not pull the frontier back.
    _feed(tracer, "vote", 2.5, height=3, round=1, vote_type="prevote",
          voter=VAL, power=1)
    assert tracer.frontier(SUBNET) == (3, 2)
    _feed(tracer, "commit", 3.0, height=4, round=0)
    assert tracer.frontier(SUBNET) == (4, 0)


def test_votes_deduplicate_per_voter_and_round():
    _sim, tracer = _tracer()
    for observer in ("/root/a#0", "/root/a#1"):
        # Two observers report the same vote; power counts once.
        _feed(tracer, "vote", 1.0, node=observer, height=5, round=1,
              vote_type="prevote", voter="/root/a#2", power=3)
    _feed(tracer, "vote", 1.1, height=5, round=1, vote_type="prevote",
          voter="/root/a#3", power=1)
    book = tracer.votes_at(SUBNET, 5, 1, "prevote")
    assert book == {"/root/a#2": 3, "/root/a#3": 1}
    # Same voter at another round is a distinct entry.
    assert tracer.votes_at(SUBNET, 5, 2, "prevote") == {}


def test_timeline_ring_is_bounded():
    _sim, tracer = _tracer(timeline_capacity=4)
    for i in range(10):
        _feed(tracer, "timeout", float(i), height=1, round=i)
    timeline = tracer.timeline(SUBNET, VAL)
    assert len(timeline) == 4
    assert [entry[0] for entry in timeline] == [6.0, 7.0, 8.0, 9.0]


def test_round_duration_and_per_height_histograms():
    sim, tracer = _tracer()
    _feed(tracer, "round_start", 1.0, height=2, round=0, quorum=3, total=4)
    _feed(tracer, "round_skip", 3.5, height=2, round=2, quorum=3, total=4)
    duration = sim.metrics.histogram("consensus.round.duration", subnet=SUBNET)
    assert duration.samples == [2.5]
    _feed(tracer, "commit", 4.0, height=2, round=2)
    per_height = sim.metrics.histogram("consensus.round.per_height", subnet=SUBNET)
    assert per_height.samples == [3]  # rounds are 0-based: r2 = 3 rounds
    assert sim.metrics.counter("consensus.round.skips", subnet=SUBNET).value == 1


def test_summary_reports_frontier_power_and_counts():
    _sim, tracer = _tracer()
    _feed(tracer, "round_start", 1.0, height=7, round=1, quorum=3, total=4)
    for i in range(2):
        _feed(tracer, "vote", 1.2 + i, height=7, round=1,
              vote_type="prevote", voter=f"/root/a#{i}", power=1)
    _feed(tracer, "vote", 1.5, height=7, round=1, vote_type="precommit",
          voter="/root/a#0", power=1)
    summary = tracer.summary()
    entry = summary["subnets"][SUBNET]
    assert entry["frontier_height"] == 7
    assert entry["frontier_round"] == 1
    assert entry["quorum_power"] == 3
    assert entry["total_power"] == 4
    assert entry["prevote_power"] == 2
    assert entry["precommit_power"] == 1
    assert entry["validators"] == [VAL]
    assert entry["counts"] == {"round_start": 1, "vote": 3}
    assert summary["events"] == 4
    json.dumps(summary, allow_nan=False)  # exporters embed this verbatim


# ----------------------------------------------------------------------
# Digest neutrality (the tentpole's hard constraint)
# ----------------------------------------------------------------------
def _workload_digest(monkeypatch, tie_shuffle, tracing):
    if tie_shuffle is None:
        monkeypatch.delenv("REPRO_TIE_SHUFFLE", raising=False)
    else:
        monkeypatch.setenv("REPRO_TIE_SHUFFLE", str(tie_shuffle))
    system = HierarchicalSystem(
        seed=11, root_validators=3, wallet_funds={"alice": 10_000}
    ).start()
    tracer = RoundTracer(system.sim).install() if tracing else None
    subnet = system.spawn_subnet(
        SubnetConfig(name="s0", engine="tendermint", validators=4,
                     block_time=0.5)
    )
    alice = system.wallets["alice"]
    system.fund_subnet(alice, subnet, alice.address, 2_000)
    system.run_until(15.0)
    if tracing:
        # The tracer really saw the run it must not perturb.
        assert tracer.summary()["events"] > 0
    return system.end_state_digest()


def test_round_tracing_is_digest_neutral(monkeypatch):
    """FIFO and tie-shuffled schedules, tracer on vs off: the end-state
    digest is bit-identical in every combination."""
    digests = {
        (shuffle, tracing): _workload_digest(monkeypatch, shuffle, tracing)
        for shuffle in (None, 1)
        for tracing in (False, True)
    }
    assert len(set(digests.values())) == 1, digests


# ----------------------------------------------------------------------
# The partitioned-subnet stall report (acceptance scenario)
# ----------------------------------------------------------------------
def test_partitioned_tendermint_subnet_yields_named_stall_report(tmp_path, capsys):
    system = HierarchicalSystem(seed=7, root_validators=3).start()
    system.enable_telemetry(monitors=True, health_interval=1.0)
    sub = system.spawn_subnet(
        SubnetConfig(name="s0", engine="tendermint", validators=4)
    )
    system.run_for(5.0)

    watchdog = ProgressWatchdog(system, stall_after=8.0).start()
    nodes = system.nodes(sub)
    members = {node.node_id for node in nodes}
    kept = {node.node_id for node in nodes[:2]}
    cut = members - kept
    system.stack.transport.partition(sorted(cut))
    system.run_for(20.0)

    stalls = [s for s in watchdog.stalls if s["subnet"] == "/root/s0"]
    assert stalls, "watchdog never flagged the partitioned subnet"
    report = stalls[0]["report"]
    assert report["schema"] == STALL_SCHEMA
    assert report["engine"] == "tendermint"

    # The quorum analysis: no single view holds 2f+1, and the missing
    # members are exactly the far side of the observer's partition.
    quorum = report["quorum"]
    assert quorum["kind"] == "vote-quorum"
    assert quorum["held_power"] < quorum["needed_power"]
    assert quorum["missing_power"] > 0
    missing = (
        set(quorum["silent"]) | set(quorum["unreachable"])
        | {entry["voter"] for entry in quorum["misaligned"]}
    )
    observer_side = kept if quorum["observer"] in kept else cut
    assert missing == members - observer_side

    # The network section names every severed pair across the cut.
    pairs = {frozenset(pair) for pair in report["network"]["unreachable_pairs"]}
    assert pairs == {frozenset((a, b)) for a in kept for b in cut}

    # Per-validator engine snapshots and (tracer installed) round context.
    assert {v["node"] for v in report["validators"]} == members
    assert all("round" in v["state"] for v in report["validators"])
    assert report["frontier"] is not None
    assert any(report["recent_events"].values())

    # The human rendering names the subnet and every missing member.
    rendered = render_stall_report(report)
    assert "stall report: /root/s0" in rendered
    assert "short" in rendered
    for member in missing:
        assert member in rendered

    # wait_for timeout diagnostics carry the same reports end to end:
    # last_timeout -> timeout_detail() -> flight-recorder bundle ->
    # postmortem rendering.
    assert not system.wait_for(lambda: False, timeout=2.0, label="stall-test")
    assert system.last_timeout["stall_reports"]
    detail = system.timeout_detail()
    assert "quorum at h" in detail
    bundle = system.flight_recorder.bundles[-1]
    assert bundle["stall_reports"]
    assert "stall report: /root/s0" in render_postmortem(bundle)

    # The CLI renders a standalone stall-report file (the CI artifact
    # shape) without complaint.
    path = tmp_path / "stall_root_s0.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert postmortem_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "stall report: /root/s0" in out


def test_on_demand_diagnosis_of_a_healthy_slot_subnet():
    """Slot engines have no vote books: the report falls back to the
    leader-schedule analysis instead of inventing a quorum."""
    system = HierarchicalSystem(seed=3, root_validators=3).start()
    system.enable_telemetry()
    system.spawn_subnet(SubnetConfig(name="s0", validators=3))  # PoA
    system.run_for(5.0)

    report = system.stall_diagnoser.diagnose("/root/s0")
    quorum = report["quorum"]
    assert quorum["kind"] == "leader-schedule"
    assert quorum["expected_leader"]
    assert quorum["head_spread"] is not None
    rendered = render_stall_report(report)
    assert "slot engine" in rendered
    assert "expected leader" in rendered
    json.dumps(report, allow_nan=False)


# ----------------------------------------------------------------------
# Split votes are not a quorum
# ----------------------------------------------------------------------
def _stub_subnet(power=100):
    """Four equal-power Tendermint validators as the diagnoser sees them."""
    members = [f"/root/s0#{i}" for i in range(4)]
    vset = ValidatorSet(Validator(m, address=None, power=power) for m in members)
    nodes = [SimpleNamespace(engine=SimpleNamespace(validators=vset)) for _ in members]
    return members, nodes


def test_split_prevotes_hold_only_the_largest_agreeing_group():
    """Vote books shaped like the randomized round-desync stall: at round 4
    #3 sees nil from #0 and itself and a block from #2 — three voters, 300
    power, yet no value has the 267 a quorum needs."""
    members, nodes = _stub_subnet()
    block, other = "b2681be85ac304e8", "51538b7c17f85f8e"

    def validator(node, round_, prevotes, locked=None, locked_round=-1, height=22):
        return {
            "node": node,
            "head_height": height - 1,
            "state": {
                "height": height, "round": round_,
                "locked": locked, "locked_round": locked_round,
                "prevotes": prevotes, "precommits": {},
            },
        }

    validators = [
        validator(members[0], 4, {"0": {members[0]: other}, "4": {
            members[0]: None, members[2]: block,
        }}, locked=other, locked_round=0),
        validator(members[1], 5, {"5": {members[1]: None}}, height=21),
        validator(members[2], 4, {"4": {members[0]: None, members[2]: block}}),
        validator(members[3], 4, {"4": {
            members[0]: None, members[2]: block, members[3]: None,
        }}, locked=other, locked_round=0),
    ]
    quorum = StallDiagnoser(system=None)._missing_quorum(nodes, validators)

    assert quorum["kind"] == "vote-quorum"
    assert (quorum["round"], quorum["observer"]) == (4, members[3])
    assert quorum["voted"] == [members[0], members[2], members[3]]
    assert quorum["needed_power"] == 267
    assert quorum["held_power"] == 200  # nil from #0 and #3, not all 300
    assert quorum["missing_power"] == 67
    assert quorum["split"] == [
        [None, [members[0], members[3]], 200],
        [block, [members[2]], 100],
    ]
    assert quorum["locks"] == {
        members[0]: [other, 0],
        members[1]: [None, -1],
        members[2]: [None, -1],
        members[3]: [other, 0],
    }
    lines = render_quorum(quorum)
    assert lines[0].startswith("quorum at h22 r4: 200/267 power")
    assert (
        f"  split: nil from {members[0]}, {members[3]} (200 power); "
        f"{block} from {members[2]} (100 power)"
    ) in lines
    assert f"{members[0]} on {other} since r0" in "\n".join(lines)


def test_agreeing_prevotes_report_no_split():
    members, nodes = _stub_subnet()
    book = {m: "aa" * 8 for m in members[:3]}
    validators = [
        {"node": m, "head_height": 4,
         "state": {"height": 5, "round": 0, "prevotes": {"0": book}}}
        for m in members
    ]
    quorum = StallDiagnoser(system=None)._missing_quorum(nodes, validators)
    assert quorum["held_power"] == 300
    assert quorum["missing_power"] == 0
    assert "split" not in quorum and "locks" not in quorum
