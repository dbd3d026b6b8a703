"""MET001 — metric emissions and the exporter catalog must agree, both ways.

The Prometheus exporter's ``METRIC_CATALOG`` is the declared surface of
the telemetry plane: dashboards and the paper's figure scripts key on
those families.  An emitted metric missing from the catalog ships with
no HELP text and no review of its name; a declared family that nothing
emits is a dashboard panel that will stay blank forever (usually a stale
entry after a rename).  Each direction anchors the finding at its own
endpoint — the emit site, or the catalog entry's line — so a pragma on
either side suppresses only that edge.

Families are exact: the family argument of a metric call must be a
string literal or a module-level string constant (what varies travels in
keyword labels), so matching is set membership.  Two more findings sit
at the emit site: a family that is neither (the graph records it as an
``unresolved`` metric site), and an emit whose kind disagrees with the
catalog type (counter → ``counter``; gauge and time series → ``gauge``;
histogram → ``summary``).

Catalog membership is skipped on partial trees: emitted-but-undeclared
needs a catalog in view, declared-but-unemitted needs emit sites in view.
"""

from __future__ import annotations

from repro.lint.contracts import ContractGraph, closest_patterns, site_suppressed
from repro.lint.findings import Finding
from repro.lint.rules.base import GraphRule, endpoints


class Met001MetricCatalog(GraphRule):
    rule_id = "MET001"
    fix_hint = (
        "add the family to METRIC_CATALOG in repro/telemetry/export.py, "
        "or fix the emitted name to match a declared family"
    )

    def check_graph(self, graph: ContractGraph) -> list[Finding]:
        findings: list[Finding] = []
        declared = {site.pattern: site.detail for site in graph.metric_catalog}
        emitted = {site.pattern for site in graph.metrics_emitted}

        for site in graph.unresolved:
            if site.detail == "metric" and not site_suppressed(site, self.rule_id):
                findings.append(
                    self.site_finding(
                        site,
                        "metric family is not a string literal or a module-level "
                        "string constant; MET001 cannot match it to the catalog",
                        fix_hint="name the family literally and pass what varies "
                        "as keyword labels (subnet=..., level=...)",
                    )
                )

        if declared:
            catalog_at = endpoints(graph.metric_catalog[:1])
            for emit in graph.metrics_emitted:
                if site_suppressed(emit, self.rule_id):
                    continue
                kind = declared.get(emit.pattern)
                if kind is None:
                    near = ", ".join(
                        f"'{p}'" for p in closest_patterns(emit.pattern, declared)
                    )
                    findings.append(
                        self.site_finding(
                            emit,
                            f"emitted metric '{emit.pattern}' has no exporter "
                            f"declaration in METRIC_CATALOG ({catalog_at}); "
                            f"nearest declared families: {near}",
                        )
                    )
                elif emit.detail != kind:
                    findings.append(
                        self.site_finding(
                            emit,
                            f"metric '{emit.pattern}' is emitted as a {emit.detail} "
                            f"but declared as a {kind} in METRIC_CATALOG ({catalog_at})",
                            fix_hint="make the catalog type match the emit kind "
                            "(histograms export as summaries, time series as gauges)",
                        )
                    )

        if emitted:
            for decl in graph.metric_catalog:
                if site_suppressed(decl, self.rule_id) or decl.pattern in emitted:
                    continue
                near = ", ".join(
                    f"'{p}'" for p in closest_patterns(decl.pattern, emitted)
                )
                findings.append(
                    self.site_finding(
                        decl,
                        f"declared metric family '{decl.pattern}' is never emitted "
                        f"anywhere in the tree; nearest emitted families: {near}",
                        fix_hint="drop the stale catalog entry or fix the emitter",
                    )
                )
        return findings
