"""Flight recorder bundles and the postmortem CLI."""

import json
from pathlib import Path

import pytest

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.telemetry.postmortem import main as postmortem_main
from repro.telemetry.postmortem import render


def _run_system(postmortem_dir=None, poke=False):
    system = HierarchicalSystem(seed=23)
    system.start()
    system.enable_telemetry(
        health_interval=2.0, monitors=True, postmortem_dir=postmortem_dir
    )
    alice = system.create_wallet("alice", fund=500_000)
    sub = system.spawn_subnet(SubnetConfig(name="pm", validators=3, block_time=0.5))
    system.fund_subnet(alice, sub, alice.address, 50_000)
    system.run_for(12)
    if poke:
        # Inject a synthetic violation mid-run so the dump happens at a
        # deterministic simulated time with live rings.
        system.invariant_monitor.record(
            "supply", "/root", "synthetic violation for the recorder test"
        )
    system.run_for(8)
    return system


@pytest.fixture(scope="module")
def poked(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles")
    return _run_system(postmortem_dir=str(out), poke=True), out


def test_violation_dumps_bundle_to_disk(poked):
    system, _out = poked
    recorder = system.flight_recorder
    assert len(recorder.bundles) == 1
    assert len(recorder.paths) == 1
    bundle = recorder.bundles[0]
    assert bundle["schema"] == "repro.postmortem/v1"
    assert bundle["reason"] == "invariant-violation"
    assert bundle["violation"]["auditor"] == "supply"
    assert bundle["sim"]["seed"] == 23
    assert bundle["trace_tail"], "trace ring should not be empty mid-run"
    assert bundle["dispatch_recent"], "dispatch ring should not be empty"
    assert bundle["heads"]["/root"]["height"] > 0
    assert bundle["heads"]["/root/pm"]["height"] > 0
    # The on-disk artifact round-trips.
    with open(recorder.paths[0], encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded["violation"]["description"] == bundle["violation"]["description"]


def test_bundle_body_is_deterministic(poked):
    """Same seed, same poke → byte-identical bundle (no wall clock inside)."""
    system, _out = poked
    repeat = _run_system(poke=True)
    a = json.dumps(system.flight_recorder.bundles[0], sort_keys=True, default=str)
    b = json.dumps(repeat.flight_recorder.bundles[0], sort_keys=True, default=str)
    assert a == b


def test_on_demand_dump(poked):
    system, _out = poked
    before = len(system.flight_recorder.bundles)
    bundle = system.flight_recorder.dump(reason="benchmark-exception")
    assert bundle["reason"] == "benchmark-exception"
    assert bundle["violation"] is None
    # An on-demand dump still carries the run's accumulated violations.
    assert bundle["violations"]
    assert len(system.flight_recorder.bundles) == before + 1


def test_render_sections(poked):
    system, _out = poked
    text = render(system.flight_recorder.bundles[0])
    assert "postmortem: reason=invariant-violation" in text
    assert "synthetic violation for the recorder test" in text
    assert "subnet heads" in text
    assert "-- trace tail" in text
    assert "-- dispatch tail" in text


def test_cli_renders_bundle(poked, capsys):
    system, out = poked
    path = system.flight_recorder.paths[0]
    assert Path(path).parent == Path(str(out))
    assert postmortem_main([str(path)]) == 0
    captured = capsys.readouterr()
    assert "postmortem: reason=invariant-violation" in captured.out
    assert postmortem_main([str(path), "--tail", "5"]) == 0


def test_cli_missing_file_is_one_line_error(capsys):
    assert postmortem_main(["/nonexistent/bundle.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read postmortem bundle" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_health_ring_fed_by_probe(poked):
    system, _out = poked
    # The recorder subscribes to health samples in its own install().
    bundle = system.flight_recorder.dump(reason="health-check")
    assert bundle["health_recent"], "health samples should reach the ring"
    latest = bundle["health_recent"][-1]
    assert "/root/pm" in latest
    assert "height" in latest["/root/pm"]
