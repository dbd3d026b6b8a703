"""Lightweight metrics for simulation runs.

The bench harness reads these to produce the tables in ``EXPERIMENTS.md``.
All metrics are plain Python (no numpy dependency in the core library) and
deterministic given a deterministic run.

A metric is named by a literal *family* (``chain.reorgs``); whatever
varies — the subnet, a hierarchy level, a dispatch label — goes into
keyword labels: ``metrics.counter("chain.reorgs", subnet=sid)``.  This
module owns the series-key format: the bare family without labels, else
``family{k="v",…}`` with keys sorted and values escaped as in the
Prometheus text format.  :func:`series_key` builds a key and
:func:`split_series_key` takes one apart.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Optional

_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
_UNESCAPE_RE = re.compile(r"\\(.)")


def _escape(value) -> str:
    text = str(value)
    if '"' in text or "\\" in text or "\n" in text:
        text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return text


def series_key(family: str, labels: dict) -> str:
    """The registry key of the *family* series carrying *labels*."""
    if not labels:
        return family
    body = ",".join([f'{key}="{_escape(value)}"' for key, value in sorted(labels.items())])
    return f"{family}{{{body}}}"


def split_series_key(key: str) -> tuple[str, dict]:
    """``(family, labels)`` of a key built by :func:`series_key`."""
    family, brace, body = key.partition("{")
    if not brace:
        return key, {}
    return family, {
        name: _UNESCAPE_RE.sub(
            lambda m: "\n" if m.group(1) == "n" else m.group(1), value
        )
        for name, value in _LABEL_RE.findall(body)
    }


def _json_safe(value: float) -> Optional[float]:
    """NaN/inf → None so metric exports stay valid JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter can only increase")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can move up and down."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Stores raw observations; computes summary statistics on demand.

    Simulation runs are small enough (≤ millions of samples) that keeping raw
    values is simpler and more accurate than bucketing.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        self.samples.extend(values)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    def mean(self) -> float:
        if not self.samples:
            return math.nan
        return self.total / len(self.samples)

    def stdev(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    def percentile(self, q: float) -> float:
        """Return the q-th percentile (0 <= q <= 100), linear interpolation."""
        if not self.samples:
            return math.nan
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def min(self) -> float:
        return min(self.samples) if self.samples else math.nan

    def max(self) -> float:
        return max(self.samples) if self.samples else math.nan

    def merge(self, *others: "Histogram") -> "Histogram":
        """Fold the samples of *others* into this histogram (in place).

        Used to combine per-node histograms into one system-wide
        distribution before summarising; returns ``self`` for chaining.
        """
        for other in others:
            self.samples.extend(other.samples)
        return self

    def summary(self) -> dict:
        """Return a dict of the usual summary statistics.

        Undefined statistics (empty histogram, or NaN observations) export
        as ``None`` rather than NaN so the dict is JSON-serialisable —
        ``json.dumps`` renders NaN as the invalid token ``NaN``.
        """
        return {
            "count": self.count,
            "mean": _json_safe(self.mean()),
            "stdev": _json_safe(self.stdev()) if self.count else None,
            "p50": _json_safe(self.percentile(50)),
            "p95": _json_safe(self.percentile(95)),
            "p99": _json_safe(self.percentile(99)),
            "min": _json_safe(self.min()),
            "max": _json_safe(self.max()),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean():.4f})"


class TimeSeries:
    """(time, value) observations, e.g. throughput over a run."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: list[tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        self.points.append((time, value))

    def values(self) -> list[float]:
        return [v for _, v in self.points]

    def times(self) -> list[float]:
        return [t for t, _ in self.points]

    def rate(self, window: Optional[tuple[float, float]] = None) -> Optional[float]:
        """Events per second: count of points over the covered interval.

        Degenerate inputs return ``None`` (JSON null) rather than a fake
        0.0, NaN or a ZeroDivisionError — matching ``Histogram.summary()``:
        an empty series, fewer than two points without an explicit window,
        or a window of non-positive span have no defined rate.  A genuine
        zero (a positive-span window covering no points of a non-empty
        series) still reads 0.0.
        """
        if not self.points:
            return None
        points = self.points
        if window is not None:
            lo, hi = window
            points = [(t, v) for t, v in points if lo <= t <= hi]
            span = hi - lo
        else:
            if len(points) < 2:
                return None
            span = points[-1][0] - points[0][0]
        if span <= 0:
            return None
        return len(points) / span


class MetricsRegistry:
    """Namespace of metrics owned by a :class:`~repro.sim.scheduler.Simulator`.

    Each dict maps a :func:`series_key` to its metric; a series appears
    when it is first emitted.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, TimeSeries] = {}

    @property
    def now(self) -> float:
        return self._clock()

    def counter(self, name: str, **labels) -> Counter:
        key = series_key(name, labels)
        if key not in self.counters:
            self.counters[key] = Counter(key)
        return self.counters[key]

    def gauge(self, name: str, **labels) -> Gauge:
        key = series_key(name, labels)
        if key not in self.gauges:
            self.gauges[key] = Gauge(key)
        return self.gauges[key]

    def histogram(self, name: str, **labels) -> Histogram:
        key = series_key(name, labels)
        if key not in self.histograms:
            self.histograms[key] = Histogram(key)
        return self.histograms[key]

    def timeseries(self, name: str, **labels) -> TimeSeries:
        key = series_key(name, labels)
        if key not in self.series:
            self.series[key] = TimeSeries(key)
        return self.series[key]

    def mark(self, name: str, value: float = 1.0, **labels) -> None:
        """Record a timestamped point on the named time series."""
        self.timeseries(name, **labels).record(self.now, value)

    def snapshot(self) -> dict:
        """Return all metric values as plain JSON-safe data.

        Gauge values pass through :func:`_json_safe` so a NaN/inf gauge
        becomes null instead of poisoning ``json.dumps`` consumers —
        histograms already get this via ``Histogram.summary()``.
        """
        return {
            "counters": {n: c.value for n, c in self.counters.items()},
            "gauges": {n: _json_safe(g.value) for n, g in self.gauges.items()},
            "histograms": {n: h.summary() for n, h in self.histograms.items()},
            "series": {n: len(s.points) for n, s in self.series.items()},
        }
