"""Exporter golden files + report CLI.

The scenario is synthetic — the tracer is fed hand-written observations at
hand-set simulated times, with no scheduled events — so every exporter
output is byte-deterministic and can be compared against a golden file.
Regenerate with ``UPDATE_GOLDENS=1 pytest tests/telemetry/test_exporters.py``.
"""

import json
import os
from pathlib import Path
from types import SimpleNamespace

from repro.sim.metrics import series_key
from repro.sim.scheduler import Simulator
from repro.telemetry import (
    RoundTracer,
    SpanTracer,
    telemetry_snapshot,
    to_chrome_trace,
    to_prometheus,
    write_json,
)
from repro.telemetry.export import METRIC_CATALOG, _prom_name
from repro.telemetry.report import main as report_main

GOLDEN_DIR = Path(__file__).parent / "golden"

MSG_A = "aa" * 16
MSG_B = "bb" * 16
CKPT = "cc" * 16


def _node(subnet_id, node_id):
    return SimpleNamespace(subnet_id=subnet_id, node_id=node_id)


def _synthetic():
    """One delivered top-down transfer, one failed bottom-up message, one
    fully-anchored checkpoint — all at hand-picked simulated times."""
    sim = Simulator(seed=5)
    tracer = SpanTracer(sim).install()

    sim.now = 1.0
    tracer.note_submit("/root", "/root/a", "addr-1", 100)
    sim.now = 2.0
    tracer.on_block_commit(_node("/root", "n0"), None, [
        ("crossmsg.topdown", ("/root/a", 0, 100, MSG_A, "/root/a", "addr-1", "user")),
    ])
    sim.now = 3.5
    tracer.on_block_commit(_node("/root/a", "m0"), None, [
        ("crossmsg.delivered", ("addr-1", 100, MSG_A)),
        ("checkpoint.sealed", (0, CKPT)),
    ])
    sim.now = 3.75
    tracer.checkpoint_submitted(CKPT, "/root/a", 0)
    sim.now = 4.5
    tracer.on_block_commit(_node("/root", "n0"), None, [
        ("checkpoint.committed", ("/root/a", CKPT)),
    ])
    sim.now = 5.0
    tracer.on_block_commit(_node("/root/a", "m0"), None, [
        ("crossmsg.bottomup", (0, 0, 50, MSG_B, "/root", "addr-2", "user")),
    ])
    sim.now = 6.0
    tracer.on_block_commit(_node("/root", "n0"), None, [
        ("crossmsg.failed", ("addr-2", "out of gas", MSG_B)),
    ])

    sim.metrics.gauge("demo.gauge").set(2.5)
    sim.metrics.histogram("demo.empty")  # summary must export as nulls
    series = sim.metrics.timeseries("demo.series")
    series.record(1.0, 1.0)
    series.record(2.0, 3.0)

    # The profiling plane's gauge families (hand-set, no sampler thread):
    # mem.* plus profile.* with a dispatch label full of characters a
    # Prometheus family name could not carry.
    sim.metrics.gauge("mem.rss_bytes").set(42_000_000)
    sim.metrics.gauge("mem.allocated_blocks").set(123456)
    sim.metrics.gauge("profile.samples").set(200)
    sim.metrics.gauge("profile.interval_s").set(0.005)
    sim.metrics.gauge("profile.cpu_share", label="poa:/root/a#0").set(0.625)
    sim.metrics.gauge("profile.alloc_bytes", label="poa:/root/a#0").set(2048)

    # A consensus round on /root/a: validator 0 times out of round 0,
    # skips to round 1 (f+1 catch-up), then the proposal arrives, the
    # quorum prevotes, the polka locks and the height commits.
    rounds = RoundTracer(sim).install()
    val = "/root/a#0"

    def feed(time, kind, **fields):
        rounds.on_round_event("/root/a", val, kind, time, fields)

    feed(1.0, "round_start", height=3, round=0, proposer=val,
         quorum=3, total=4)
    feed(2.0, "timeout", height=3, round=0, step="propose")
    feed(2.1, "round_skip", height=3, round=1, proposer="/root/a#1",
         quorum=3, total=4)
    feed(2.2, "proposal", height=3, round=1, proposer="/root/a#1",
         cid="dd" * 8)
    for i in range(3):
        feed(2.3 + i / 10, "vote", height=3, round=1, vote_type="prevote",
             voter=f"/root/a#{i}", power=1, cid="dd" * 8)
    feed(2.6, "lock", height=3, round=1, cid="dd" * 8)
    feed(2.7, "commit", height=3, round=1, cid="dd" * 8)
    return sim, tracer, rounds


def _check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
    golden = path.read_text(encoding="utf-8")
    assert text == golden, f"{name} drifted from golden (UPDATE_GOLDENS=1 to accept)"


def test_prometheus_golden():
    sim, _tracer, _rounds = _synthetic()
    _check_golden("synthetic.prom", to_prometheus(sim))


def test_chrome_trace_golden():
    sim, tracer, rounds = _synthetic()
    document = to_chrome_trace(sim, tracer, rounds=rounds)
    _check_golden(
        "synthetic_trace.json",
        json.dumps(document, indent=2, allow_nan=False) + "\n",
    )


def test_chrome_trace_shape():
    sim, tracer, rounds = _synthetic()
    document = to_chrome_trace(sim, tracer, rounds=rounds)
    events = document["traceEvents"]
    spans = [e for e in events if e["ph"] == "X" and e.get("cat") == "xnet"]
    # submit→enqueue and enqueue→deliver of MSG_A, enqueue→fail of MSG_B
    assert len(spans) == 3
    assert all(e["dur"] > 0 for e in spans)
    ckpt = [e for e in events if e.get("cat") == "checkpoint"]
    assert len(ckpt) == 1
    assert ckpt[0]["dur"] == (4.5 - 3.5) * 1e6
    # One named track per subnet appearing in any span.
    names = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 1
    }
    assert names == {"/root", "/root/a"}


def test_snapshot_json_round_trip(tmp_path):
    sim, tracer, rounds = _synthetic()
    snapshot = telemetry_snapshot(sim, tracer=tracer, rounds=rounds, wall_seconds=0.5)
    path = write_json(str(tmp_path / "dump.json"), snapshot)
    loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    assert loaded["schema"] == "repro.telemetry/v1"
    assert loaded["spans"] == {
        "traces": 2, "delivered": 1, "failed": 1, "in_flight": 0, "checkpoints": 1,
    }
    assert loaded["histograms"]["demo.empty"]["mean"] is None
    assert loaded["histograms"]['xnet.e2e{route="topdown"}']["count"] == 1
    assert loaded["counters"]["xnet.spans.failed"] == 1
    assert loaded["gauges"]["demo.gauge"] == 2.5
    assert loaded["series"]["demo.series"] == {
        "points": 2, "first": [1.0, 1.0], "last": [2.0, 3.0],
    }


def test_prometheus_declares_profiler_families():
    """mem.*/profile.* gauges export with HELP/TYPE and sanitised names —
    the dispatch label's /, # survive in the ``label`` label's value."""
    sim, _tracer, _rounds = _synthetic()
    text = to_prometheus(sim)
    assert "# TYPE mem_rss_bytes gauge" in text
    assert "mem_rss_bytes 42000000" in text
    assert "# TYPE profile_samples gauge" in text
    assert "# TYPE profile_cpu_share gauge" in text
    assert 'profile_cpu_share{label="poa:/root/a#0"} 0.625' in text
    assert "# HELP profile_cpu_share profile.cpu_share: sampled CPU share" in text


def test_prometheus_declares_round_families():
    """consensus.round.* gauges/counters/histograms export with HELP/TYPE."""
    sim, _tracer, _rounds = _synthetic()
    text = to_prometheus(sim)
    assert "# TYPE consensus_round_height gauge" in text
    assert "# HELP consensus_round_height consensus.round.height: current" in text
    assert 'consensus_round_height{subnet="/root/a"} 3' in text
    assert 'consensus_round_number{subnet="/root/a"} 1' in text
    assert "# TYPE consensus_round_quorum_power gauge" in text
    assert 'consensus_round_quorum_power{subnet="/root/a"} 3' in text
    assert 'consensus_round_vote_power{subnet="/root/a",vote="prevote"} 3' in text
    assert "# TYPE consensus_round_skips counter" in text
    assert 'consensus_round_skips{subnet="/root/a"} 1' in text
    assert 'consensus_round_timeouts{subnet="/root/a"} 1' in text
    assert 'consensus_round_locks{subnet="/root/a"} 1' in text
    assert "# TYPE consensus_round_duration summary" in text
    assert "# TYPE consensus_round_per_height summary" in text
    assert 'consensus_round_per_height_count{subnet="/root/a"} 1' in text


def test_chrome_trace_round_tracks():
    """Round events render as one pid-4 track per validator: slices for
    rounds, instants for votes/locks/commits inside them."""
    sim, tracer, rounds = _synthetic()
    events = to_chrome_trace(sim, tracer, rounds=rounds)["traceEvents"]
    rounds = [e for e in events if e["pid"] == 4]
    names = {
        e["args"]["name"] for e in rounds
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert names == {"/root/a#0"}
    slices = [e for e in rounds if e["ph"] == "X"]
    assert [s["name"] for s in slices] == ["h3 r0", "h3 r1 (skip)"]
    assert all(s["dur"] > 0 for s in slices)
    instants = [e["name"] for e in rounds if e["ph"] == "i"]
    assert instants == [
        "timeout", "proposal", "vote", "vote", "vote", "lock", "commit",
    ]


def test_prometheus_sanitizes_names():
    sim, _tracer, _rounds = _synthetic()
    sim.metrics.counter("weird.name-with/slash").inc()
    text = to_prometheus(sim)
    assert "weird_name_with_slash 1" in text
    # The dotted original survives only in the HELP line.
    assert "# HELP weird_name_with_slash weird.name-with/slash" in text


def test_prometheus_keeps_series_whose_subnets_sanitise_alike():
    """``/root/a-b`` and ``/root/a_b`` are distinct subnets; their series
    stay distinct samples of one family, each with its own label."""
    sim = Simulator(seed=1)
    sim.metrics.counter("chain.reorgs", subnet="/root/a-b").inc(3)
    sim.metrics.counter("chain.reorgs", subnet="/root/a_b").inc(5)
    text = to_prometheus(sim)
    assert text.count("# TYPE chain_reorgs counter") == 1
    assert 'chain_reorgs{subnet="/root/a-b"} 3' in text
    assert 'chain_reorgs{subnet="/root/a_b"} 5' in text


def test_catalog_families_sanitise_to_distinct_names():
    names = {}
    for family in METRIC_CATALOG:
        name = _prom_name(family)
        assert name not in names, f"{family} and {names[name]} both export as {name}"
        names[name] = family


def test_prometheus_lint_clean():
    """Every family has HELP before TYPE and nothing else starts with #."""
    sim, _tracer, _rounds = _synthetic()
    lines = to_prometheus(sim).strip().splitlines()
    families = set()
    for i, line in enumerate(lines):
        if line.startswith("# TYPE "):
            name, kind = line.split()[2:4]
            assert kind in ("counter", "gauge", "summary")
            assert lines[i - 1].startswith(f"# HELP {name} "), name
            assert name not in families, f"duplicate family {name}"
            families.add(name)
        elif line.startswith("#"):
            assert line.startswith("# HELP "), f"stray comment: {line}"
    # Every sample line belongs to a declared family.
    for line in lines:
        if not line.startswith("#"):
            sample = line.split("{")[0].split()[0]
            base = sample
            for suffix in ("_count", "_sum"):
                if sample.endswith(suffix) and sample[: -len(suffix)] in families:
                    base = sample[: -len(suffix)]
            assert base in families, f"sample {sample} without TYPE"


def test_prometheus_escaping_helpers():
    from repro.telemetry.export import _escape_help

    assert series_key("f", {"v": 'a"b\\c\nd'}) == 'f{v="a\\"b\\\\c\\nd"}'
    assert _escape_help("back\\slash\nnewline") == "back\\\\slash\\nnewline"


def test_report_cli_renders_dump(tmp_path, capsys):
    sim, tracer, rounds = _synthetic()
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim, tracer=tracer, rounds=rounds))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "cross-net spans: 2 traced, 1 delivered, 1 failed" in out
    assert "cross-net hop latency by hierarchy level" in out
    assert "topdown" in out and "L1" in out
    assert "checkpoint.lag" in out


def test_report_cli_missing_file(tmp_path, capsys):
    assert report_main([str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_report_cli_unparseable_file(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    assert report_main([str(path)]) == 1
    err = capsys.readouterr().err
    assert "cannot read" in err
    assert len(err.strip().splitlines()) == 1  # one line, no traceback


def test_report_cli_json_flag(tmp_path, capsys):
    sim, tracer, rounds = _synthetic()
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim, tracer=tracer, rounds=rounds, wall_seconds=0.5))
    assert report_main([path, "--json"]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out)  # machine-readable
    assert summary["spans"]["delivered"] == 1
    assert summary["wall_seconds"] == 0.5
    assert any(h["hop"] == "topdown" and h["level"] == "L1" for h in summary["hops"])
    assert "topdown" in summary["e2e"]
    assert 'checkpoint.lag{level="1"}' in summary["checkpoints"]


def test_report_renders_invariant_counters_and_caches(tmp_path, capsys):
    sim, tracer, rounds = _synthetic()
    sim.metrics.counter("invariant.violations", auditor="supply").inc(2)
    sim.metrics.counter("cid.cache", kind="hits").inc(90)
    sim.metrics.counter("cid.cache", kind="misses").inc(10)
    sim.metrics.gauge("state.root.buckets_rehashed").set(7)
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim, tracer=tracer, rounds=rounds))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "invariant counters" in out
    assert 'invariant.violations{auditor="supply"}' in out
    assert "caches & state-root work" in out
    assert "cid.cache.hit_rate" in out and "0.9" in out
    assert "state.root.buckets_rehashed" in out

    assert report_main([path, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["invariant_counters"] == {'invariant.violations{auditor="supply"}': 2}
    assert summary["caches"]['cid.cache{kind="hits"}'] == 90
    assert summary["caches"]["cid.cache.hit_rate"] == 0.9
    assert summary["caches"]["state.root.buckets_rehashed"] == 7


def test_report_renders_profile_section(tmp_path, capsys):
    from repro.telemetry import SamplingProfiler

    sim, tracer, rounds = _synthetic()
    profiler = SamplingProfiler(sim, interval=0.001).start()
    sim.schedule(1.0, lambda: __import__("time").sleep(0.03), label="busy")
    sim.run()
    profiler.stop()
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim, tracer=tracer, rounds=rounds, profiler=profiler))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "CPU profile —" in out and "samples" in out

    assert report_main([path, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["profile"]["schema"] == "repro.profile/v1"
    assert summary["profile"]["samples"] == sum(
        row["samples"] for row in summary["profile"]["labels"].values()
    )


def test_report_renders_rounds_section(tmp_path, capsys):
    sim, tracer, rounds = _synthetic()
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim, tracer=tracer, rounds=rounds))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "consensus rounds per subnet" in out
    assert "h3 r1" in out

    assert report_main([path, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    entry = summary["rounds"]["subnets"]["/root/a"]
    assert entry["frontier_height"] == 3
    assert entry["frontier_round"] == 1
    assert entry["quorum_power"] == 3
    assert entry["prevote_power"] == 3
    assert entry["counts"]["round_skip"] == 1
    assert 'consensus.round.duration{subnet="/root/a"}' in summary["round_histograms"]


def test_report_renders_invariants_section(tmp_path, capsys):
    sim, tracer, rounds = _synthetic()
    from repro.telemetry import InvariantMonitor

    monitor = InvariantMonitor(sim=sim, auditors=[]).install()
    monitor.record("supply", "/root", "demo violation")
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim, tracer=tracer, rounds=rounds, monitor=monitor))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "invariants: 1 violation(s) across 0 auditors" in out
    assert "demo violation" in out
