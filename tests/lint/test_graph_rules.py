"""Whole-program graph rules (MSG/MET/SCN) over golden fixture mini-trees.

Each rule has a ``fixtures/graph/<rule>_bad/`` directory that must light
it up (with both endpoints of the broken edge in the message) and a
``<rule>_clean/`` sibling that must stay silent.  The clean trees also
exercise dataflow-lite resolution (topic helpers, f-string wildcards) and
labeled metric emits against an exact catalog.
"""

import json
import os
import subprocess
import sys

from repro.lint import lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "graph")


def run_fixture(name, rules=None):
    return lint_paths([os.path.join(FIXTURES, name)], rules=rules)


def _write(tmp_path, rel, content):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# MSG001 — orphan publish
# ----------------------------------------------------------------------
def test_msg001_bad_reports_both_endpoints():
    report = run_fixture("msg001_bad")
    # The mismatched pair breaks the edge in both directions.
    assert sorted(f.rule_id for f in report.findings) == ["MSG001", "MSG002"]
    (finding,) = [f for f in report.findings if f.rule_id == "MSG001"]
    assert finding.path.endswith("producer.py")
    assert "gossip.publish" in finding.source_line
    assert "'blocks:new'" in finding.message
    # The nearest-subscription endpoint is named, file and line.
    assert "'blocks:old'" in finding.message
    assert "consumer.py:5" in finding.message


def test_msg001_clean_topic_helper_resolves():
    report = run_fixture("msg001_clean")
    assert report.findings == []
    # The helper call really was resolved (not skipped as unresolved).
    assert {s.pattern for s in report.graph.topics_published} == {"blocks:*"}
    assert report.graph.unresolved == []


# ----------------------------------------------------------------------
# MSG002 — dead subscription
# ----------------------------------------------------------------------
def test_msg002_bad_reports_both_endpoints():
    report = run_fixture("msg002_bad")
    (finding,) = report.findings
    assert finding.rule_id == "MSG002"
    assert finding.path.endswith("consumer.py")
    assert "'votes:legacy'" in finding.message
    assert "'votes:final'" in finding.message
    assert "producer.py:5" in finding.message


def test_msg002_clean():
    assert run_fixture("msg002_clean").findings == []


# ----------------------------------------------------------------------
# MSG003 — unserved RPC call
# ----------------------------------------------------------------------
def test_msg003_bad_reports_both_endpoints():
    report = run_fixture("msg003_bad")
    (finding,) = report.findings
    assert finding.rule_id == "MSG003"
    assert finding.path.endswith("client.py")
    assert "'chain:block'" in finding.message
    assert "'chain:blocks'" in finding.message
    assert "server.py:5" in finding.message


def test_msg003_clean():
    assert run_fixture("msg003_clean").findings == []


# ----------------------------------------------------------------------
# MET001 — metric/catalog agreement, both directions
# ----------------------------------------------------------------------
def test_met001_bad_fires_both_directions():
    report = run_fixture("met001_bad")
    assert sorted(f.rule_id for f in report.findings) == ["MET001", "MET001"]
    by_path = {os.path.basename(f.path): f for f in report.findings}
    emitted = by_path["emitter.py"]
    assert "'app.request'" in emitted.message
    assert "catalog.py" in emitted.message  # far endpoint: the catalog
    declared = by_path["catalog.py"]
    assert "'app.stale.family'" in declared.message
    assert "never emitted" in declared.message


def test_met001_clean_labeled_family():
    report = run_fixture("met001_clean")
    assert report.findings == []
    assert "app.latency" in {s.pattern for s in report.graph.metrics_emitted}


_APP_CATALOG = (
    "METRIC_CATALOG = {\n"
    '    "app.requests": ("counter", "requests served"),\n'
    '    "app.latency": ("summary", "per-phase latency"),\n'
    "}\n"
)


def test_met001_flags_a_family_that_is_not_a_literal(tmp_path):
    _write(tmp_path, "catalog.py", _APP_CATALOG)
    _write(
        tmp_path,
        "emitter.py",
        "def serve(sim, name, phase):\n"
        '    sim.metrics.counter("app.requests").inc()\n'
        '    sim.metrics.histogram("app.latency", phase=phase).observe(1)\n'
        "    sim.metrics.counter(name).inc()\n"
        '    sim.metrics.counter(f"app.{phase}").inc()\n',
    )
    report = lint_paths([str(tmp_path)])
    assert [(f.rule_id, f.line) for f in report.findings] == [
        ("MET001", 4),
        ("MET001", 5),
    ]
    assert all("not a string literal" in f.message for f in report.findings)


def test_met001_flags_an_emit_kind_the_catalog_does_not_declare(tmp_path):
    _write(
        tmp_path,
        "catalog.py",
        "METRIC_CATALOG = {\n"
        '    "app.requests": ("gauge", "requests served"),\n'
        '    "app.latency": ("histogram", "per-phase latency"),\n'
        '    "app.depth": ("gauge", "queue depth over time"),\n'
        "}\n",
    )
    _write(
        tmp_path,
        "emitter.py",
        "def serve(sim, phase):\n"
        '    sim.metrics.counter("app.requests").inc()\n'
        '    sim.metrics.histogram("app.latency", phase=phase).observe(1)\n'
        '    sim.metrics.mark("app.depth", 3)\n',
    )
    report = lint_paths([str(tmp_path)])
    assert [(f.rule_id, f.line) for f in report.findings] == [
        ("MET001", 2),
        ("MET001", 3),
    ]
    messages = [f.message for f in report.findings]
    assert "emitted as a counter but declared as a gauge" in messages[0]
    assert "emitted as a summary but declared as a histogram" in messages[1]


# ----------------------------------------------------------------------
# SCN001 — scenario references resolve against the registries
# ----------------------------------------------------------------------
def test_scn001_bad_flags_toml_typos_with_declaration_endpoint():
    report = run_fixture("scn001_bad")
    assert sorted(f.rule_id for f in report.findings) == ["SCN001", "SCN001"]
    messages = " | ".join(f.message for f in report.findings)
    assert "unknown auditor 'suply'" in messages
    assert "unknown fault kind 'partion'" in messages
    # Declared-side endpoints point at the registry module.
    assert "registry.py" in messages
    assert all(f.path.endswith("spec.toml") for f in report.findings)


def test_scn001_clean_python_and_toml_refs():
    report = run_fixture("scn001_clean")
    assert report.findings == []
    assert {s.pattern for s in report.graph.auditors_referenced} == {"supply"}
    assert {s.pattern for s in report.graph.fault_kinds_referenced} == {"partition"}


# ----------------------------------------------------------------------
# Partial-tree gating: one side of a seam alone proves nothing
# ----------------------------------------------------------------------
def test_graph_rules_gate_off_on_partial_trees(tmp_path):
    _write(
        tmp_path,
        "producer.py",
        'def f(gossip, n, p):\n    gossip.publish(n, "solo:topic", p)\n',
    )
    report = lint_paths([str(tmp_path)])
    assert report.findings == []  # no subscriptions in view -> MSG001 skipped


# ----------------------------------------------------------------------
# Satellite: pragma suppression at each endpoint of an edge
# ----------------------------------------------------------------------
def test_pragma_suppresses_msg_rules_at_their_endpoint(tmp_path):
    _write(
        tmp_path,
        "producer.py",
        "def f(gossip, n, p):\n"
        '    gossip.publish(n, "t:orphan", p)  # lint: disable=MSG001\n',
    )
    _write(
        tmp_path,
        "consumer.py",
        "def g(gossip, n, h):\n"
        '    gossip.subscribe(n, "t:dead", h)  # lint: disable=MSG002\n',
    )
    report = lint_paths([str(tmp_path)])
    # Both edges are broken, both endpoints carry their pragma: silence.
    assert report.findings == []
    # Removing either pragma brings its finding back.
    _write(
        tmp_path,
        "producer.py",
        'def f(gossip, n, p):\n    gossip.publish(n, "t:orphan", p)\n',
    )
    report2 = lint_paths([str(tmp_path)])
    assert [f.rule_id for f in report2.findings] == ["MSG001"]


def test_pragma_suppresses_met001_at_either_endpoint(tmp_path):
    catalog = (
        "METRIC_CATALOG = {\n"
        '    "app.a": ("counter", "declared but unemitted"),\n'
        "}\n"
    )
    emitter = 'def f(sim):\n    sim.metrics.counter("app.b").inc()\n'
    _write(tmp_path, "catalog.py", catalog)
    _write(tmp_path, "emitter.py", emitter)
    report = lint_paths([str(tmp_path)])
    assert sorted(f.rule_id for f in report.findings) == ["MET001", "MET001"]

    # Pragma at the emit endpoint kills only the emitted-not-declared edge.
    _write(
        tmp_path,
        "emitter.py",
        "def f(sim):\n"
        '    sim.metrics.counter("app.b").inc()  # lint: disable=MET001\n',
    )
    report2 = lint_paths([str(tmp_path)])
    assert [os.path.basename(f.path) for f in report2.findings] == ["catalog.py"]

    # Pragma at the catalog endpoint kills the declared-not-emitted edge too.
    _write(
        tmp_path,
        "catalog.py",
        "METRIC_CATALOG = {\n"
        '    "app.a": ("counter", "unemitted"),  # lint: disable=MET001\n'
        "}\n",
    )
    report3 = lint_paths([str(tmp_path)])
    assert report3.findings == []


def test_pragma_suppresses_scn001_in_toml(tmp_path):
    _write(
        tmp_path,
        "registry.py",
        "class Fault:\n    KIND = \"\"\n\n\n"
        "class PartitionFault(Fault):\n    KIND = \"partition\"\n",
    )
    _write(
        tmp_path,
        "spec.toml",
        "[scenario]\nname = \"s\"\n\n[[faults]]\n"
        "kind = \"partion\"  # lint: disable=SCN001\n",
    )
    report = lint_paths([str(tmp_path)])
    assert report.findings == []
    _write(
        tmp_path,
        "spec.toml",
        "[scenario]\nname = \"s\"\n\n[[faults]]\nkind = \"partion\"\n",
    )
    report2 = lint_paths([str(tmp_path)])
    assert [f.rule_id for f in report2.findings] == ["SCN001"]


# ----------------------------------------------------------------------
# CLI: --contracts dump and --format=github annotations
# ----------------------------------------------------------------------
def _cli(*argv):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_contracts_dump():
    got = _cli(
        os.path.join(FIXTURES, "msg001_clean"), "--no-baseline", "--contracts", "-"
    )
    assert got.returncode == 0, got.stdout + got.stderr
    document = json.loads(got.stdout[: got.stdout.rindex("}") + 1])
    assert document["schema"] == "repro.contracts/v1"
    assert "blocks:*" in document["topics"]["publish"]
    assert "blocks:new" in document["topics"]["subscribe"]


def test_cli_contracts_to_file(tmp_path):
    out = tmp_path / "contracts.json"
    got = _cli(
        os.path.join(FIXTURES, "scn001_clean"),
        "--no-baseline",
        "--contracts",
        str(out),
    )
    assert got.returncode == 0, got.stdout + got.stderr
    document = json.loads(out.read_text(encoding="utf-8"))
    assert "supply" in document["auditors"]["declared"]
    assert "partition" in document["fault_kinds"]["referenced"]


def test_cli_contracts_requires_a_graph_rule():
    got = _cli(
        os.path.join(FIXTURES, "msg001_clean"),
        "--no-baseline",
        "--rules",
        "DET001",
        "--contracts",
        "-",
    )
    assert got.returncode == 2
    assert "--contracts" in got.stderr


def test_cli_github_format_annotations():
    got = _cli(os.path.join(FIXTURES, "msg003_bad"), "--no-baseline",
               "--format", "github")
    assert got.returncode == 1
    (line,) = [l for l in got.stdout.splitlines() if l.startswith("::")]
    assert line.startswith("::error file=")
    assert "title=MSG003" in line
    assert "client.py" in line
    assert "line=5" in line
    # Messages must be single-line; the fix hint rides along in brackets.
    assert "[match the call's method string" in line


def test_cli_github_format_clean_tree_exits_zero():
    got = _cli(os.path.join(FIXTURES, "msg003_clean"), "--no-baseline",
               "--format", "github")
    assert got.returncode == 0, got.stdout + got.stderr
    assert "::error" not in got.stdout
