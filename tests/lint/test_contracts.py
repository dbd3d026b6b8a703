"""Unit tests for pass 1: dataflow-lite resolution and pattern matching."""

import ast

from repro.lint.contracts import (
    Site,
    build_contract_graph,
    closest_patterns,
    metric_patterns_compatible,
    patterns_compatible,
    site_suppressed,
)


def graph_of(*sources, toml=()):
    modules = []
    for i, source in enumerate(sources):
        path = f"mod{i}.py"
        modules.append((path, ast.parse(source), source.splitlines()))
    return build_contract_graph(modules, toml)


# ----------------------------------------------------------------------
# Pattern language
# ----------------------------------------------------------------------
def test_whole_string_patterns():
    assert patterns_compatible("blocks:new", "blocks:new")
    assert patterns_compatible("blocks:*", "blocks:new")
    assert patterns_compatible("subnet:/root/s0", "subnet:*")
    assert not patterns_compatible("blocks:new", "blocks:old")


def test_metric_patterns_mid_star_is_one_segment():
    assert metric_patterns_compatible("a.*.c", "a.b.c")
    assert not metric_patterns_compatible("a.*.c", "a.b.x.c")
    assert not metric_patterns_compatible("a.b", "a.b.c")


def test_metric_patterns_final_star_is_greedy():
    assert metric_patterns_compatible("xnet.hop.*", "xnet.hop.submit.L2")
    assert metric_patterns_compatible("xnet.hop.submit.L2", "xnet.hop.*")
    assert not metric_patterns_compatible("xnet.hop.*", "xnet.e2e.path")


def test_embedded_wildcard_chunks():
    # A partially-interpolated segment still matches by prefix/suffix.
    assert metric_patterns_compatible("checkpoint.lag.L*", "checkpoint.lag.L2")
    assert not metric_patterns_compatible("checkpoint.lag.L*", "checkpoint.lag.M2")


def test_closest_patterns_rank_by_common_prefix():
    pool = ["consensus.height", "consensus.rounds", "chain.reorgs"]
    assert closest_patterns("consensus.round", pool, limit=2) == [
        "consensus.rounds",
        "consensus.height",
    ]


def test_site_suppressed_reads_the_raw_line():
    site = Site("p.py", 1, 0, "t", 'publish("t")  # lint: disable=MSG001')
    assert site_suppressed(site, "MSG001")
    assert not site_suppressed(site, "MSG002")
    blanket = Site("p.py", 1, 0, "t", 'publish("t")  # lint: disable=all')
    assert site_suppressed(blanket, "MSG001")


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def test_module_constant_flows_through_self_attribute():
    graph = graph_of(
        "TOPIC = 'sync:blocks'\n"
        "class Syncer:\n"
        "    def __init__(self):\n"
        "        self.topic = TOPIC\n"
        "    def go(self, gossip, n, p):\n"
        "        gossip.publish(n, self.topic, p)\n"
    )
    assert [s.pattern for s in graph.topics_published] == ["sync:blocks"]
    assert graph.unresolved == []


def test_conditional_expression_unions_both_arms():
    graph = graph_of(
        "def go(gossip, n, p, final):\n"
        "    topic = 'votes:final' if final else 'votes:pre'\n"
        "    gossip.publish(n, topic, p)\n"
    )
    assert {s.pattern for s in graph.topics_published} == {
        "votes:final",
        "votes:pre",
    }


def test_fstring_interpolation_becomes_wildcard():
    graph = graph_of(
        "def wire(gossip, n, subnet, h):\n"
        "    gossip.subscribe(n, f'subnet:{subnet}', h)\n"
    )
    assert [s.pattern for s in graph.topics_subscribed] == ["subnet:*"]


def test_fully_unresolvable_key_lands_in_unresolved():
    graph = graph_of(
        "def go(gossip, n, topic, p):\n    gossip.publish(n, topic, p)\n"
    )
    assert graph.topics_published == []
    (lost,) = graph.unresolved
    assert lost.detail == "topic publish"
    assert lost.line == 2


def test_metric_helper_substituted_across_files():
    graph = graph_of(
        "class Engine:\n"
        "    def _metric(self, name):\n"
        "        return self.sim.metrics.counter(f'consensus.{self.sub}.{name}')\n",
        "class PoA(Engine):\n"
        "    def on_propose(self):\n"
        "        self._metric('proposed')\n",
    )
    assert [s.pattern for s in graph.metrics_emitted] == ["consensus.*.proposed"]
    # The helper's own parameterised emit is not double-counted.
    assert graph.unresolved == []


def test_local_metric_alias_is_recognised():
    graph = graph_of(
        "class Exporter:\n"
        "    def flush(self):\n"
        "        gauge = self.metrics.gauge\n"
        "        gauge('mem.allocated_blocks').set(1)\n"
    )
    (site,) = graph.metrics_emitted
    assert site.pattern == "mem.allocated_blocks"
    assert site.detail == "gauge"


def test_dispatch_labels():
    graph = graph_of(
        "def install(sim, tracer, fn):\n"
        "    sim.observers.subscribe('round', tracer)\n"
        "    sim.schedule(1.0, fn, label='tick:block')\n"
    )
    assert [s.pattern for s in graph.dispatch_labels] == ["tick:block"]
    # Observers subscribe through sim.observers; there is no slot section.
    assert "slots" not in graph.to_json()


def test_catalog_extracted_with_kind_detail():
    graph = graph_of(
        "METRIC_CATALOG = {\n"
        "    'net.sent': ('counter', 'messages sent'),\n"
        "}\n"
    )
    (entry,) = graph.metric_catalog
    assert (entry.pattern, entry.detail) == ("net.sent", "counter")


# ----------------------------------------------------------------------
# TOML scenario documents
# ----------------------------------------------------------------------
def test_toml_scenario_references_extracted_with_lines():
    text = (
        "[scenario]\n"
        'name = "s"\n'
        "expect = 'violates(\"finality\")'\n"
        'tolerate = ["exactly_once"]\n'
        "\n"
        "[[faults]]\n"
        'kind = "partition"\n'
    )
    graph = graph_of(toml=[("spec.toml", text)])
    assert {s.pattern for s in graph.auditors_referenced} == {
        "finality",
        "exactly_once",
    }
    (fault,) = graph.fault_kinds_referenced
    assert (fault.pattern, fault.line) == ("partition", 7)


def test_non_scenario_toml_is_ignored():
    graph = graph_of(toml=[("pyproject.toml", "[tool.x]\nname = 'y'\n")])
    assert graph.fault_kinds_referenced == []
    assert graph.auditors_referenced == []


def test_malformed_toml_is_skipped_silently():
    graph = graph_of(toml=[("broken.toml", "[scenario\nkind=")])
    assert graph.auditors_referenced == []


def test_to_json_shape():
    graph = graph_of(
        "def go(gossip, n, p, h):\n"
        "    gossip.publish(n, 'a:b', p)\n"
        "    gossip.subscribe(n, 'a:b', h)\n"
    )
    document = graph.to_json()
    assert document["schema"] == "repro.contracts/v1"
    assert document["files"] == 1
    assert document["topics"]["publish"]["a:b"] == [{"at": "mod0.py:2"}]
    assert document["topics"]["subscribe"]["a:b"] == [{"at": "mod0.py:3"}]
