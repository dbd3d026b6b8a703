"""Flight recorder: bounded rings of recent activity + postmortem bundles.

The :class:`FlightRecorder` keeps what a crashed benchmark or a tripped
invariant needs for a diagnosis — the tail of the trace log, recent
dispatch activity, recent health samples — in bounded ring buffers, and
on demand (or automatically on every
:class:`~repro.telemetry.monitor.InvariantViolation`) freezes them into a
*postmortem bundle*: one JSON document with the violation, the rings, the
open cross-net span states, a full metrics snapshot and every subnet's
head.  Render a bundle with ``python -m repro.telemetry.postmortem``.

Determinism: everything stored in a bundle body is simulated time or
committed state — never wall-clock, never RNG — so producing bundles
cannot perturb the run and re-running a seed reproduces the bundle
byte-for-byte.  The recorder subscribes to ``dispatch_post`` and
``health`` observations, and both feeds only append to a Python deque; it
writes nothing back into the simulation.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from typing import Optional

_SCHEMA = "repro.postmortem/v1"


def _plain(value):
    """Recursively coerce *value* into JSON-safe plain data."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _slug(text: str) -> str:
    """*text* reduced to file-name-safe characters."""
    return "".join(ch if ch.isalnum() or ch in "-." else "_" for ch in text)


class FlightRecorder:
    """Bounded recent-history rings with on-demand postmortem dumps."""

    def __init__(
        self,
        sim,
        system=None,
        capacity: int = 256,
        out_dir: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.system = system
        self.capacity = capacity
        #: Names the run in bundle file names (the scenario runner sets its
        #: scenario's name), so runs sharing a seed and an out dir never
        #: overwrite each other's bundles.
        self.label: Optional[str] = None
        self.out_dir = out_dir if out_dir is not None else os.environ.get(
            "REPRO_POSTMORTEM_DIR"
        )
        self._dispatch_ring: deque = deque(maxlen=capacity)
        self._health_ring: deque = deque(maxlen=32)
        self._removers: tuple = ()
        self.bundles: list[dict] = []
        self.paths: list[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "FlightRecorder":
        """Start recording dispatch activity and health samples (idempotent)."""
        if not self._removers:
            observers = self.sim.observers
            self._removers = (
                observers.subscribe("dispatch_post", self._on_dispatch),
                observers.subscribe("health", self.note_health),
            )
        return self

    # ------------------------------------------------------------------
    # Feeds
    # ------------------------------------------------------------------
    def _on_dispatch(self, event, _wall_elapsed: float) -> None:
        # Simulated time + label only: the wall-clock duration the hook
        # receives must stay out of anything a bundle serializes.
        self._dispatch_ring.append((self.sim.now, self.sim.dispatch.label_of(event)))

    def note_health(self, latest: dict) -> None:
        """The ``health`` observation kind; copies the latest samples."""
        self._health_ring.append(
            {path: dict(sample) for path, sample in latest.items()}
        )

    # ------------------------------------------------------------------
    # Bundles
    # ------------------------------------------------------------------
    def dump(
        self,
        violation=None,
        reason: Optional[str] = None,
        stall_reports: Optional[list] = None,
    ) -> dict:
        """Freeze the rings into a bundle; write it if an out dir is set.

        *stall_reports* is a list of ``repro.stall/v1`` documents (see
        :class:`~repro.telemetry.rounds.StallDiagnoser`) — watchdogs and
        ``wait_for`` timeouts attach them so the bundle names the missing
        quorum, not just the stuck heights.
        """
        sim = self.sim
        monitor = self.system.invariant_monitor if self.system is not None else None
        bundle = {
            "schema": _SCHEMA,
            "reason": reason or ("invariant-violation" if violation else "on-demand"),
            "violation": violation.as_dict() if violation is not None else None,
            "sim": {
                "now": sim.now,
                "seed": sim.seed,
                "events_executed": sim.events_executed,
            },
            "violations": (
                [v.as_dict() for v in monitor.violations] if monitor is not None else []
            ),
            "trace_tail": [
                r.render() for r in sim.trace.records[-self.capacity:]
            ],
            "trace_dropped": sim.trace.dropped,
            "dispatch_recent": [list(entry) for entry in self._dispatch_ring],
            "health_recent": _plain(list(self._health_ring)),
            "open_spans": self._open_spans(),
            "metrics": _plain(sim.metrics.snapshot()),
            "heads": self._heads(),
            "stall_reports": _plain(list(stall_reports or [])),
        }
        self.bundles.append(bundle)
        if self.out_dir:
            run = f"{_slug(self.label)}_s{sim.seed}" if self.label else f"s{sim.seed}"
            path = os.path.join(
                self.out_dir, f"postmortem_{run}_{len(self.bundles) - 1:03d}.json"
            )
            os.makedirs(self.out_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_plain(bundle), fh, indent=2, allow_nan=False)
                fh.write("\n")
            self.paths.append(path)
        return bundle

    def _open_spans(self, cap: int = 64) -> list:
        tracer = self.system.span_tracer if self.system is not None else None
        if tracer is None:
            return []
        spans = []
        for trace_id, info in tracer.trace_info.items():
            if info.get("status") != "in-flight":
                continue
            spans.append(
                {
                    "trace_id": trace_id,
                    "info": _plain(info),
                    "events": [
                        {"phase": e.phase, "subnet": e.subnet, "time": e.time}
                        for e in tracer.traces.get(trace_id, ())
                    ],
                }
            )
            if len(spans) >= cap:
                break
        return spans

    def _heads(self) -> dict:
        if self.system is None:
            return {}
        heads = {}
        for subnet in self.system.subnets:
            node = self.system.nodes_by_subnet[subnet][0]
            head = node.store.head
            heads[subnet.path] = {
                "height": head.height,
                "cid": head.cid.hex()[:16],
            }
        return heads
