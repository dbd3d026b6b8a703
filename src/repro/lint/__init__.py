"""`repro.lint` — the determinism & layering sanitizer.

Everything this reproduction claims rests on byte-reproducible simulation:
the digest-neutrality of telemetry, the invariant monitors' exactly-once
and supply-conservation audits, and every E1–E11 experiment.  One
``time.time()``, one unseeded ``random`` draw or one ``set`` iteration in
a consensus hot path silently breaks that property.  This package turns
the assumption into a checked one:

- **DET001** — no wall-clock or OS entropy (``time.time``,
  ``datetime.now``, ``os.urandom``, module-level ``random.*`` draws)
  outside ``crypto/`` and ``sim/rng.py``;
- **DET002** — no iteration over ``set``-typed values feeding
  ordering-sensitive logic in ``consensus/``, ``chain/``, ``hierarchy/``
  (wrap in ``sorted(...)``);
- **DET003** — no ``float`` arithmetic in value/supply accounting
  (``hierarchy/firewall.py``, ``hierarchy/crossmsg*``,
  ``hierarchy/gateway.py``);
- **LAY001** — the import-layering contract (see
  :data:`repro.lint.config.LAYERS`): no upward or skipped-contract edges
  at module scope;
- **SIM001** — event handlers must not mutate scheduler state
  (``sim.now``, the queue's internals) except through the dispatch API
  (``schedule``/``schedule_at``/``cancel``/``every``/``halt``).

On top of the per-file rules sits a **whole-program pass**: every linted
module (plus TOML scenario specs) is folded into a contract graph of the
tree's string-keyed seams (:mod:`repro.lint.contracts`), and graph rules
check its edges:

- **MSG001** — a gossip publish whose topic no subscriber matches;
- **MSG002** — a subscription on a topic nothing publishes;
- **MSG003** — an RPC call to a method no ``expose()`` registers;
- **MET001** — emitted metric families and the exporter's
  ``METRIC_CATALOG`` must agree exactly, in both directions and in
  Prometheus type, and every family must be a literal;
- **SCN001** — scenario auditor/fault-kind references (Python or TOML)
  must name a registered class.

Run it with ``python -m repro.lint src/repro``.  Findings not in the
committed baseline (``LINT_BASELINE.txt``) fail the run; the baseline
grandfathers provably-benign findings, one justifying comment per entry.
``--contracts PATH`` dumps the extracted graph as JSON;
``--format=github`` emits workflow-command annotations for CI.

The static pass is paired with a *runtime* race detector:
``Simulator(tie_shuffle=<seed>)`` (or ``$REPRO_TIE_SHUFFLE``)
deterministically permutes same-timestamp event ties; comparing
``HierarchicalSystem.end_state_digest()`` across shuffle seeds flushes
out hidden tie-order dependence that no syntactic rule can see.
"""

from repro.lint.findings import Finding, Severity
from repro.lint.engine import LintEngine, lint_paths, iter_python_files
from repro.lint.baseline import Baseline, load_baseline, format_baseline_entry
from repro.lint.contracts import ContractGraph, Site, build_contract_graph
from repro.lint.rules import ALL_RULES

__all__ = [
    "Finding",
    "Severity",
    "LintEngine",
    "lint_paths",
    "iter_python_files",
    "Baseline",
    "load_baseline",
    "format_baseline_entry",
    "ContractGraph",
    "Site",
    "build_contract_graph",
    "ALL_RULES",
]
