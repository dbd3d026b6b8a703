"""Periodic per-subnet health sampling.

:class:`HealthProbe` rides the simulator's ``every()`` timer, records
:meth:`~repro.hierarchy.network.HierarchicalSystem.health_snapshot` — the
one reader of per-subnet vitals — onto
:class:`~repro.sim.metrics.TimeSeries`:

- ``health.height`` — the subnet's best head (the highest of its
  validators), so one stopped or partitioned validator does not drag it;
- ``health.mempool`` — pending user messages;
- ``health.pending_crossmsgs`` — cross-msg pool depth
  (unapplied top-down messages + unresolved bottom-up metas);
- ``health.checkpoint_lag`` — windows sealed locally but not yet
  recorded by the parent's SA (0 = fully anchored; the rootnet has none),

each labeled with the subnet path,

and then emits the round as a ``health(latest)`` observation on
``sim.observers`` — the flight recorder's health ring and the scenario
watchdog subscribe to it.

Sampling is read-only: it never touches chain state, RNG streams or the
trace log, so enabling the probe cannot change the determinism digest.
"""

from __future__ import annotations

FIELDS = ("height", "mempool", "pending_crossmsgs", "checkpoint_lag")


class HealthProbe:
    """Samples per-subnet health onto the sim's metrics time series."""

    def __init__(self, system, interval: float = 1.0) -> None:
        self.system = system
        self.sim = system.sim
        self.interval = interval
        self.latest: dict[str, dict] = {}
        self._stop = None

    def start(self) -> "HealthProbe":
        if self._stop is None:
            self._stop = self.sim.every(
                self.interval, self.sample, label="telemetry:health", on_error="log"
            )
        return self

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    # ------------------------------------------------------------------
    def sample(self) -> dict:
        """Take one sample of every subnet; returns {path: sample}."""
        now = self.sim.now
        metrics = self.sim.metrics
        for path, vitals in self.system.health_snapshot().items():
            metrics.timeseries("health.height", subnet=path).record(now, vitals["height"])
            metrics.timeseries("health.mempool", subnet=path).record(now, vitals["mempool"])
            metrics.timeseries("health.pending_crossmsgs", subnet=path).record(
                now, vitals["pending_crossmsgs"]
            )
            if vitals["checkpoint_lag"] is not None:
                metrics.timeseries("health.checkpoint_lag", subnet=path).record(
                    now, vitals["checkpoint_lag"]
                )
            self.latest[path] = {"time": now, **{field: vitals[field] for field in FIELDS}}
        for observer in self.sim.observers.health:
            observer(self.latest)
        return self.latest
