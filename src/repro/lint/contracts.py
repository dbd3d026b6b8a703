"""Pass 1 of the whole-program analyzer: extract the contract graph.

The protocol's string-keyed seams — gossip topics, RPC endpoint names,
metric families, scheduler dispatch labels, auditor names and fault
kinds — are matched by string equality across
packages, so a typo fails silently (a publish nobody receives, a metric
the exporter never declares).  This module walks every linted file once
and assembles a :class:`ContractGraph` of those interface points; the
MSG/MET/SCN rule family (pass 2) then checks the graph's edges.

Strings are resolved **dataflow-lite**: literals, f-strings (interpolated
pieces become ``*`` wildcards), ``+`` concatenation, conditional
expressions (both arms), local/module/self-attribute assignments, calls
to module-level *topic helpers* (single-``return`` functions like
``subnet_topic``), and calls to intra-class *metric helpers* (methods
that forward a parameter into a metric name, like ``Engine._metric``)
with the call-site argument substituted in.  Interpolated values are
assumed to never contain the pattern separator (``.`` for metrics) —
subnet paths use ``/`` and labels use ``:``, so this holds in-tree.
Sites whose key cannot be resolved to at least a prefix are recorded
under ``unresolved`` and exempt from checking.

Pattern language: ``*`` matches any run of characters; when a whole
dot-segment of a metric pattern is ``*`` it matches exactly one segment,
except as the final segment where it matches one or more (so a declared
``xnet.hop.*`` covers ``xnet.hop.submit.L2``).
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

#: Methods that create/fetch a metric on a registry, and the family kind.
_METRIC_METHODS = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
    "timeseries": "series",
    "mark": "series",
}

#: The exporter's declared-families table (extracted by name, not import —
#: lint is layer 0 and must never import the telemetry package).
METRIC_CATALOG_NAME = "METRIC_CATALOG"

_MAX_ALTERNATES = 8  # cap on pattern fan-out per site (IfExp/var unions)

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


# ----------------------------------------------------------------------
# Graph datatypes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Site:
    """One string-keyed interface point at one source location."""

    path: str  # normalized, forward slashes
    line: int  # 1-based
    col: int
    pattern: str  # resolved key ('*' = wildcard run)
    raw: str  # stripped source line (pragma + baseline matching)
    detail: str = ""  # site-specific annotation (metric kind, class …)

    def where(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass
class ContractGraph:
    """Everything pass 1 extracted; pass 2 rules read this."""

    topics_published: list = field(default_factory=list)
    topics_subscribed: list = field(default_factory=list)
    rpc_served: list = field(default_factory=list)
    rpc_called: list = field(default_factory=list)
    metrics_emitted: list = field(default_factory=list)
    metric_catalog: list = field(default_factory=list)
    dispatch_labels: list = field(default_factory=list)
    auditors_declared: list = field(default_factory=list)
    auditors_referenced: list = field(default_factory=list)
    fault_kinds_declared: list = field(default_factory=list)
    fault_kinds_referenced: list = field(default_factory=list)
    unresolved: list = field(default_factory=list)
    files: int = 0

    def to_json(self) -> dict:
        """The ``--contracts`` dump: one JSON document for tooling."""

        def keyed(sites: Iterable[Site]) -> dict:
            out: dict = {}
            for site in sorted(sites, key=lambda s: (s.pattern, s.path, s.line)):
                entry = out.setdefault(site.pattern, [])
                entry.append(
                    {"at": site.where(), "detail": site.detail}
                    if site.detail
                    else {"at": site.where()}
                )
            return out

        return {
            "schema": "repro.contracts/v1",
            "files": self.files,
            "topics": {
                "publish": keyed(self.topics_published),
                "subscribe": keyed(self.topics_subscribed),
            },
            "rpc": {
                "serve": keyed(self.rpc_served),
                "call": keyed(self.rpc_called),
            },
            "metrics": {
                "emitted": keyed(self.metrics_emitted),
                "declared": keyed(self.metric_catalog),
            },
            "dispatch_labels": keyed(self.dispatch_labels),
            "auditors": {
                "declared": keyed(self.auditors_declared),
                "referenced": keyed(self.auditors_referenced),
            },
            "fault_kinds": {
                "declared": keyed(self.fault_kinds_declared),
                "referenced": keyed(self.fault_kinds_referenced),
            },
            "unresolved": [
                {"at": site.where(), "kind": site.detail}
                for site in sorted(self.unresolved, key=lambda s: (s.path, s.line))
            ],
        }


def site_suppressed(site: Site, rule_id: str) -> bool:
    """True if the site's own line carries ``# lint: disable=<rule_id>``."""
    return f"lint: disable={rule_id}" in site.raw or "lint: disable=all" in site.raw


# ----------------------------------------------------------------------
# Pattern matching
# ----------------------------------------------------------------------
def _chunk_ok(a: str, b: str) -> bool:
    """Two pattern chunks are compatible if either could name the other."""
    if a == b:
        return True
    if a == "*" or b == "*":
        return True
    if "*" in a and re.fullmatch(re.escape(a).replace("\\*", ".*"), b):
        return True
    if "*" in b and re.fullmatch(re.escape(b).replace("\\*", ".*"), a):
        return True
    return False


def patterns_compatible(a: str, b: str) -> bool:
    """Whole-string compatibility (topics, RPC methods): ``*`` = any run."""
    return _chunk_ok(a, b)


def metric_patterns_compatible(a: str, b: str) -> bool:
    """Dot-segmented compatibility for metric families.

    A ``*`` segment matches exactly one segment, except as the final
    segment of either pattern, where it greedily matches one or more —
    a declared ``xnet.hop.*`` family covers every depth below it.
    """
    sa, sb = a.split("."), b.split(".")

    def head_matches(short: Sequence[str], long: Sequence[str]) -> bool:
        return all(_chunk_ok(x, y) for x, y in zip(short, long))

    if sa[-1] == "*" and len(sb) >= len(sa) and head_matches(sa[:-1], sb):
        return True
    if sb[-1] == "*" and len(sa) >= len(sb) and head_matches(sb[:-1], sa):
        return True
    return len(sa) == len(sb) and head_matches(sa, sb)


def closest_patterns(pattern: str, pool: Iterable[str], limit: int = 3) -> list:
    """The most similar known patterns — candidate 'other endpoints' for a
    broken edge, surfaced in the finding so a typo is visible at a glance."""

    def prefix_len(other: str) -> int:
        n = 0
        for x, y in zip(pattern, other):
            if x != y:
                break
            n += 1
        return n

    ranked = sorted(set(pool), key=lambda p: (-prefix_len(p), p))
    return ranked[:limit]


# ----------------------------------------------------------------------
# String resolution (dataflow-lite)
# ----------------------------------------------------------------------
class _Resolver:
    """Resolve an expression to string patterns within one lexical context.

    ``env`` maps names to pattern lists (parameter bindings, class
    ``self.X`` attributes under the key ``"self.X"``, module constants);
    ``wild`` names resolve to ``*`` (unbound function parameters);
    ``helpers`` maps module-level topic-helper function names to their
    patterns; ``local_exprs`` maps local names to their (unresolved)
    assignment expressions, resolved on demand with a recursion guard.
    """

    def __init__(
        self,
        env: dict,
        wild: frozenset = frozenset(),
        helpers: Optional[dict] = None,
        local_exprs: Optional[dict] = None,
    ) -> None:
        self.env = env
        self.wild = wild
        self.helpers = helpers or {}
        self.local_exprs = local_exprs or {}
        self._resolving: set = set()

    def resolve(self, node: Optional[ast.AST]) -> Optional[list]:
        """Patterns for *node*, or None if nothing is known about it."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, ast.JoinedStr):
            return self._concat(node.values)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return self._concat([node.left, node.right])
        if isinstance(node, ast.IfExp):
            return self._union(node.body, node.orelse)
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id == "self":
                got = self.env.get(f"self.{node.attr}")
                return list(got) if got is not None else None
            return None
        if isinstance(node, ast.FormattedValue):
            return self.resolve(node.value)
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name is not None and name in self.helpers:
                return list(self.helpers[name])
            return None
        return None

    def _lookup(self, name: str) -> Optional[list]:
        if name in self.env:
            return list(self.env[name])
        if name in self.local_exprs and name not in self._resolving:
            self._resolving.add(name)
            try:
                union: list = []
                for expr in self.local_exprs[name]:
                    got = self.resolve(expr)
                    union.extend(got if got is not None else ["*"])
                return _dedup(union)[:_MAX_ALTERNATES] if union else None
            finally:
                self._resolving.discard(name)
        if name in self.wild:
            return ["*"]
        return None

    def _concat(self, parts: Sequence[ast.AST]) -> Optional[list]:
        patterns = [""]
        any_known = False
        for part in parts:
            got = self.resolve(part)
            if got is None:
                piece = ["*"]
            else:
                piece = got
                any_known = any_known or any(p != "*" for p in got)
            patterns = [_squash(a + b) for a in patterns for b in piece]
            patterns = _dedup(patterns)[:_MAX_ALTERNATES]
        return patterns if any_known else None

    def _union(self, *nodes: ast.AST) -> Optional[list]:
        union: list = []
        any_known = False
        for node in nodes:
            got = self.resolve(node)
            if got is None:
                union.append("*")
            else:
                any_known = True
                union.extend(got)
        return _dedup(union)[:_MAX_ALTERNATES] if any_known else None


def _squash(pattern: str) -> str:
    """Collapse adjacent wildcards so concatenated products stay canonical."""
    while "**" in pattern:
        pattern = pattern.replace("**", "*")
    return pattern


def _dedup(items: Iterable[str]) -> list:
    seen: dict = {}
    for item in items:
        seen.setdefault(item, None)
    return list(seen)


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _receiver_ends(node: ast.AST, names: tuple) -> bool:
    dotted = _dotted(node)
    if dotted is None:
        return False
    return dotted.split(".")[-1] in names


def _arg(call: ast.Call, index: int, keyword: str) -> Optional[ast.AST]:
    """Positional-or-keyword argument lookup (None if absent/starred)."""
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if index < len(call.args) and not isinstance(call.args[index], ast.Starred):
        return call.args[index]
    return None


def _local_assignments(func: ast.AST) -> dict:
    """name -> [value exprs] for plain assignments in *func*'s own body,
    not descending into nested function definitions (those get their own
    scope pass that inherits this map)."""
    out: dict = {}
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES + (ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                out.setdefault(node.target.id, []).append(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _metric_call(node: ast.Call) -> Optional[tuple]:
    """(kind, name_expr) when *node* creates/fetches a metric, else None.

    Receiver heuristic: the dotted receiver ends in ``metrics`` or
    ``registry`` (``sim.metrics.counter(...)``, ``registry.gauge(...)``).
    Local aliases (``gauge = self.metrics.gauge``) are handled by the
    scope walker via its alias map.
    """
    if not isinstance(node.func, ast.Attribute):
        return None
    kind = _METRIC_METHODS.get(node.func.attr)
    if kind is None:
        return None
    if not _receiver_ends(node.func.value, ("metrics", "registry")):
        return None
    name_expr = _arg(node, 0, "name")
    return None if name_expr is None else (kind, name_expr)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
class _Module:
    """Per-file extraction state shared between the two sweeps."""

    def __init__(self, path: str, tree: ast.Module, lines: Sequence[str]) -> None:
        self.path = path
        self.tree = tree
        self.lines = lines
        self.consts: dict = {}  # module-level NAME -> [patterns]

    def raw(self, node: ast.AST) -> str:
        line = getattr(node, "lineno", 0)
        if 0 < line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def site(self, node: ast.AST, pattern: str, detail: str = "") -> Site:
        return Site(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            pattern=pattern,
            raw=self.raw(node),
            detail=detail,
        )


def build_contract_graph(
    modules: Sequence[tuple],
    toml_files: Sequence[tuple] = (),
) -> ContractGraph:
    """Assemble the graph from parsed ``(path, tree, lines)`` modules plus
    raw ``(path, text)`` TOML documents (scenario specs)."""
    graph = ContractGraph(files=len(modules) + len(toml_files))
    mods = [_Module(path, tree, lines) for path, tree, lines in modules]

    # Sweep 1 (global): module constants, topic-helper functions,
    # auditor/fault class registries, metric catalogs, metric helpers.
    helpers: dict = {}
    metric_helpers: dict = {}  # method name -> [(kind, name_expr, params)]
    for mod in mods:
        for node in mod.tree.body:
            target = value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if target is not None and isinstance(target, ast.Name):
                got = _Resolver({}).resolve(value)
                if got is not None:
                    mod.consts[target.id] = got
                if target.id == METRIC_CATALOG_NAME and isinstance(value, ast.Dict):
                    _extract_catalog(mod, value, graph)
            elif isinstance(node, ast.FunctionDef):
                patterns = _helper_patterns(node)
                if patterns is not None:
                    helpers[node.name] = patterns
            elif isinstance(node, ast.ClassDef):
                _extract_class_registries(mod, node, graph)
                for name, entry in _metric_helper_methods(node).items():
                    metric_helpers.setdefault(name, []).append(entry)

    # Sweep 2: walk every scope for contract sites.
    for mod in mods:
        _extract_module_sites(mod, helpers, metric_helpers, graph)

    for path, text in toml_files:
        _extract_toml_sites(path, text, graph)

    return graph


def _helper_patterns(func: ast.FunctionDef) -> Optional[list]:
    """Patterns of a module-level string-returning helper, else None.

    ``def subnet_topic(subnet_id): return f"subnet:{subnet_id}"`` yields
    ``["subnet:*"]`` — parameters are wildcards here; every caller shares
    whatever key shape the helper produces.  Multi-return classifiers
    (``route_shape`` → topdown/bottomup/path) union every return value;
    a single unresolvable return degrades the union with ``*``.
    """
    params = frozenset(a.arg for a in func.args.args)
    resolver = _Resolver({}, wild=params)
    union: list = []
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES + (ast.Lambda,)):
            continue
        if isinstance(node, ast.Return) and node.value is not None:
            got = resolver.resolve(node.value)
            union.extend(got if got is not None else ["*"])
        stack.extend(ast.iter_child_nodes(node))
    union = _dedup(union)[:_MAX_ALTERNATES]
    if not union or all(p == "*" for p in union):
        return None
    return union


def _extract_catalog(mod: _Module, node: ast.Dict, graph: ContractGraph) -> None:
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            continue
        kind = ""
        if (
            isinstance(value, (ast.Tuple, ast.List))
            and value.elts
            and isinstance(value.elts[0], ast.Constant)
        ):
            kind = str(value.elts[0].value)
        graph.metric_catalog.append(mod.site(key, key.value, detail=kind))


def _base_names(node: ast.ClassDef) -> list:
    return [b.split(".")[-1] for b in (_dotted(base) for base in node.bases) if b]


def _extract_class_registries(
    mod: _Module, node: ast.ClassDef, graph: ContractGraph
) -> None:
    """Auditor ``name`` / fault ``KIND`` class-attribute declarations.

    The registries are duck-shaped: any subclass of a ``*Auditor`` /
    ``*Fault`` base that sets the string attribute declares a key.  The
    root classes (``Auditor``/``Fault``) carry placeholder values and
    have no bases of their own, so they are naturally excluded.
    """
    bases = _base_names(node)
    is_auditor = any(b.endswith("Auditor") for b in bases)
    is_fault = any(b.endswith("Fault") for b in bases)
    if not (is_auditor or is_fault):
        return
    for stmt in node.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if not (
            isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)
        ):
            continue
        if is_auditor and target.id == "name":
            graph.auditors_declared.append(
                mod.site(stmt, stmt.value.value, detail=node.name)
            )
        elif is_fault and target.id == "KIND":
            graph.fault_kinds_declared.append(
                mod.site(stmt, stmt.value.value, detail=node.name)
            )


def _metric_helper_methods(node: ast.ClassDef) -> dict:
    """Methods of *node* that forward a parameter into a metric name.

    Returns ``method name -> (kind, name_expr, param names)`` for methods
    like ``def _metric(self, name): ...counter(f"consensus.{x}.{name}")``
    so call sites — including in subclasses defined in other files — can
    substitute their literal argument and recover the real family.
    """
    out: dict = {}
    for method in [n for n in node.body if isinstance(n, ast.FunctionDef)]:
        params = [a.arg for a in method.args.args if a.arg != "self"]
        if not params:
            continue
        statements = [
            s
            for s in method.body
            if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
        ]
        if len(statements) > 3:
            # A do-everything method that happens to interpolate a param
            # (e.g. a violation recorder) is not a naming helper: its own
            # emits stay attributed in place, wildcarding the param.
            continue
        for call in ast.walk(method):
            if not isinstance(call, ast.Call):
                continue
            found = _metric_call(call)
            if found is None:
                continue
            kind, name_expr = found
            touched = {
                n.id for n in ast.walk(name_expr) if isinstance(n, ast.Name)
            } & set(params)
            if touched:
                out[method.name] = (kind, name_expr, tuple(params))
                break
    return out


def _class_self_env(node: ast.ClassDef, mod: _Module, helpers: dict) -> dict:
    """``self.X`` -> patterns, unioned over every method's assignments."""
    env: dict = {}
    for method in [n for n in node.body if isinstance(n, ast.FunctionDef)]:
        params = frozenset(a.arg for a in method.args.args if a.arg != "self")
        resolver = _Resolver(
            dict(mod.consts), params, helpers, _local_assignments(method)
        )
        for stmt in ast.walk(method):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    got = resolver.resolve(stmt.value)
                    if got is not None:
                        key = f"self.{target.attr}"
                        env[key] = _dedup(env.get(key, []) + got)[:_MAX_ALTERNATES]
    return env


def _extract_module_sites(
    mod: _Module, helpers: dict, metric_helpers: dict, graph: ContractGraph
) -> None:
    for node in mod.tree.body:
        if isinstance(node, ast.ClassDef):
            self_env = _class_self_env(node, mod, helpers)
            for method in [n for n in node.body if isinstance(n, _SCOPE_NODES)]:
                _extract_scope(
                    mod, method, helpers, metric_helpers, graph, self_env=self_env
                )
        elif isinstance(node, _SCOPE_NODES):
            _extract_scope(mod, node, helpers, metric_helpers, graph)
    # Module-scope statements (registry tables, module wiring).
    _extract_scope(mod, mod.tree, helpers, metric_helpers, graph, module_scope=True)


def _extract_scope(
    mod: _Module,
    scope: ast.AST,
    helpers: dict,
    metric_helpers: dict,
    graph: ContractGraph,
    self_env: Optional[dict] = None,
    inherited_locals: Optional[dict] = None,
    inherited_params: frozenset = frozenset(),
    module_scope: bool = False,
) -> None:
    """Record every contract site in one lexical scope.

    Nested function definitions recurse with the enclosing locals and
    parameters visible (closures), matching the flow-insensitive union
    model used everywhere else.
    """
    if isinstance(scope, _SCOPE_NODES):
        params = inherited_params | frozenset(
            a.arg for a in scope.args.args if a.arg != "self"
        )
    else:
        params = inherited_params
    locals_map = dict(inherited_locals or {})
    locals_map.update(_local_assignments(scope))
    env = dict(mod.consts)
    env.update(self_env or {})
    resolver = _Resolver(env, params, helpers, locals_map)

    # Local metric aliases: ``gauge = self.metrics.gauge``.
    aliases: dict = {}
    for name, exprs in locals_map.items():
        for expr in exprs:
            if (
                isinstance(expr, ast.Attribute)
                and expr.attr in _METRIC_METHODS
                and _receiver_ends(expr.value, ("metrics", "registry"))
            ):
                aliases[name] = _METRIC_METHODS[expr.attr]

    def record(
        bucket: list,
        node: ast.AST,
        expr: Optional[ast.AST],
        detail: str,
        unresolved_kind: str,
    ) -> None:
        got = resolver.resolve(expr)
        if got is None or all(p == "*" for p in got):
            graph.unresolved.append(mod.site(node, "*", detail=unresolved_kind))
            return
        for pattern in got:
            bucket.append(mod.site(node, pattern, detail=detail))

    def visit_call(node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if func.attr in ("publish", "subscribe") and _receiver_ends(
                receiver, ("gossip", "pubsub")
            ):
                bucket = (
                    graph.topics_published
                    if func.attr == "publish"
                    else graph.topics_subscribed
                )
                record(bucket, node, _arg(node, 1, "topic"), "", f"topic {func.attr}")
                return
            if func.attr == "expose" and _receiver_ends(receiver, ("rpc",)):
                record(graph.rpc_served, node, _arg(node, 1, "method"), "", "rpc expose")
                return
            if func.attr == "call" and _receiver_ends(receiver, ("rpc",)):
                record(graph.rpc_called, node, _arg(node, 2, "method"), "", "rpc call")
                return
            if func.attr in ("schedule", "schedule_at", "every") and _receiver_ends(
                receiver, ("sim", "simulator")
            ):
                label = _arg(node, 10_000, "label")  # keyword-only in practice
                if label is not None:
                    got = resolver.resolve(label)
                    for pattern in got or ["*"]:
                        graph.dispatch_labels.append(mod.site(node, pattern))
                return
            if (
                isinstance(receiver, ast.Name)
                and receiver.id == "self"
                and func.attr in metric_helpers
            ):
                record_helper_call(node, func.attr)
                return
            if func.attr == "violates":
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        graph.auditors_referenced.append(mod.site(arg, arg.value))
                tolerate = _arg(node, 10_000, "tolerate")
                if isinstance(tolerate, (ast.Tuple, ast.List)):
                    for elt in tolerate.elts:
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                            graph.auditors_referenced.append(mod.site(elt, elt.value))
                return
            if (
                func.attr == "parse"
                and _receiver_ends(receiver, ("Expectation",))
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                for name in _parse_violates(node.args[0].value):
                    graph.auditors_referenced.append(mod.site(node.args[0], name))
                return
        found = _metric_call(node)
        if found is not None:
            if _inside_own_helper(scope, node, metric_helpers):
                return  # a helper's own body; call sites carry the sites
            kind, name_expr = found
            record(graph.metrics_emitted, node, name_expr, kind, "metric")
            return
        if isinstance(func, ast.Name) and func.id in aliases:
            record(
                graph.metrics_emitted,
                node,
                _arg(node, 0, "name"),
                aliases[func.id],
                "metric",
            )
            return
        if _call_name(node) == "fault_from_spec" and node.args:
            spec = node.args[0]
            if isinstance(spec, ast.Dict):
                for key, value in zip(spec.keys, spec.values):
                    if (
                        isinstance(key, ast.Constant)
                        and key.value == "kind"
                        and isinstance(value, ast.Constant)
                        and isinstance(value.value, str)
                    ):
                        graph.fault_kinds_referenced.append(mod.site(value, value.value))

    def record_helper_call(node: ast.Call, method: str) -> None:
        """``self._metric("proposed")`` — substitute args into each known
        helper template (same-named helpers in unrelated classes union)."""
        positional = [a for a in node.args if not isinstance(a, ast.Starred)]
        recorded = False
        for kind, name_expr, hparams in metric_helpers[method]:
            bound: dict = {}
            for i, param in enumerate(hparams):
                value: Optional[ast.AST] = None
                if i < len(positional):
                    value = positional[i]
                for kw in node.keywords:
                    if kw.arg == param:
                        value = kw.value
                got = resolver.resolve(value)
                bound[param] = got if got is not None else ["*"]
            got = _Resolver(bound, frozenset(), helpers).resolve(name_expr)
            if got is not None and not all(p == "*" for p in got):
                for pattern in got:
                    graph.metrics_emitted.append(mod.site(node, pattern, detail=kind))
                recorded = True
        if not recorded:
            graph.unresolved.append(mod.site(node, "*", detail="metric"))

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                if not module_scope:
                    _extract_scope(
                        mod,
                        child,
                        helpers,
                        metric_helpers,
                        graph,
                        self_env=self_env,
                        inherited_locals=locals_map,
                        inherited_params=params,
                    )
                continue
            if isinstance(child, (ast.ClassDef, ast.Lambda)):
                continue  # nested classes/lambdas: out of scope for resolution
            if isinstance(child, ast.Call):
                visit_call(child)
            visit(child)

    visit(scope)


def _inside_own_helper(scope: ast.AST, call: ast.Call, metric_helpers: dict) -> bool:
    """True when *call* is the parameterised emit inside a helper's body —
    recording it would add an over-wide wildcard family next to the precise
    per-call-site families already substituted in."""
    if not isinstance(scope, ast.FunctionDef) or scope.name not in metric_helpers:
        return False
    found = _metric_call(call)
    if found is None:
        return False
    params = {a.arg for a in scope.args.args if a.arg != "self"}
    touched = {n.id for n in ast.walk(found[1]) if isinstance(n, ast.Name)} & params
    return bool(touched)


def _parse_violates(text: str) -> list:
    """Auditor names in an ``Expectation.parse``-shaped string."""
    match = re.fullmatch(r"\s*violates\((.*)\)\s*", text)
    if match is None:
        return []
    return [
        part.strip().strip("'\"") for part in match.group(1).split(",") if part.strip()
    ]


# ----------------------------------------------------------------------
# TOML scenario documents
# ----------------------------------------------------------------------
def _toml_line(text: str, needle: str) -> int:
    """Best-effort line of the first quoted occurrence of *needle*."""
    for i, line in enumerate(text.splitlines(), start=1):
        if f'"{needle}"' in line or f"'{needle}'" in line:
            return i
    return 1


def _toml_raw(text: str, line: int) -> str:
    lines = text.splitlines()
    if 0 < line <= len(lines):
        return lines[line - 1].strip()
    return ""


def _extract_toml_sites(path: str, text: str, graph: ContractGraph) -> None:
    """Auditor / fault-kind references in a TOML scenario document.

    Non-scenario TOML (pyproject etc.) is ignored; parse failures are
    skipped silently — the engine hands us every ``.toml`` it sees and
    only scenario-shaped documents participate in the contract graph.
    """
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python < 3.11
        return
    try:
        doc = tomllib.loads(text)
    except Exception:
        return
    meta = doc.get("scenario")
    faults = doc.get("faults")
    if not isinstance(meta, dict) and not isinstance(faults, list):
        return

    def add_ref(bucket: list, value: str) -> None:
        line = _toml_line(text, value)
        bucket.append(
            Site(path=path, line=line, col=0, pattern=value, raw=_toml_raw(text, line))
        )

    if isinstance(faults, list):
        for entry in faults:
            if isinstance(entry, dict) and isinstance(entry.get("kind"), str):
                add_ref(graph.fault_kinds_referenced, entry["kind"])
    if isinstance(meta, dict):
        expect = meta.get("expect")
        if isinstance(expect, str):
            for name in _parse_violates(expect):
                add_ref(graph.auditors_referenced, name)
        tolerate = meta.get("tolerate")
        if isinstance(tolerate, list):
            for name in tolerate:
                if isinstance(name, str):
                    add_ref(graph.auditors_referenced, name)


def iter_toml_files(paths: Sequence[str]) -> list:
    """Candidate TOML scenario files under *paths* (sorted, deduped)."""
    found: list = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".toml"):
                found.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".toml"):
                    found.append(os.path.join(dirpath, name))
    return found
