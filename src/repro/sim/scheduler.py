"""The discrete-event simulator driving every run in this reproduction.

Observation planes never reach into the simulator through attributes of
their own: they subscribe to :attr:`Simulator.observers`
(:mod:`repro.sim.observers`), which the :class:`DispatchBus` and every
protocol-layer emitter feed.
"""

from __future__ import annotations

import os
import threading
import time as _wallclock
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue
from repro.sim.metrics import MetricsRegistry
from repro.sim.observers import Observers
from repro.sim.rng import SeedSequence
from repro.sim.tracing import TraceLog


class SimulationError(RuntimeError):
    """Raised when the simulator is driven incorrectly."""


#: Per-thread stacks of the dispatch label currently executing inside
#: :meth:`DispatchBus.dispatch`, keyed by ``threading.get_ident()``.  The
#: executing thread pushes/pops its own stack (safe under the GIL); a
#: *different* thread — the sampling profiler in
#: ``repro.telemetry.profiler`` — reads it to attribute CPU samples to the
#: event label the sim thread is running right now.  A stack, not a single
#: slot, so nested dispatches attribute to the innermost label.
_DISPATCH_LABEL_STACKS: dict[int, list] = {}


def current_dispatch_label(thread_id: Optional[int] = None) -> Optional[str]:
    """The event label *thread_id* (default: this thread) is dispatching.

    ``None`` when that thread is not inside :meth:`DispatchBus.dispatch` —
    i.e. it is running scheduler machinery, test code, or is idle.
    """
    if thread_id is None:
        thread_id = threading.get_ident()
    stack = _DISPATCH_LABEL_STACKS.get(thread_id)
    return stack[-1] if stack else None


class DispatchBus:
    """Instrumented event dispatch between the run loop and ``Event.fire()``.

    Every event executed by the :class:`Simulator` flows through this bus,
    which records per-label dispatch counts and cumulative/max wall-clock
    timings (label falls back to the callback's ``__name__``), and emits
    two kinds on the simulator's :class:`~repro.sim.observers.Observers`:

    - ``dispatch_pre(event)`` runs before the event fires and may call
      ``event.cancel()`` to suppress it — the fault-injection point for
      dropping timers, consensus steps or deliveries without touching the
      component under test;
    - ``dispatch_post(event, elapsed)`` runs after the event fired (even if
      the callback raised) with the elapsed wall-clock seconds — the
      profiling point.

    While an event's callback runs, its label is readable through
    :func:`current_dispatch_label` (per executing thread, nesting-aware) —
    the attribution point for the sampling profiler in
    ``repro.telemetry.profiler``.

    Wall-clock timings are real (host) time, not simulated time: they answer
    "where does this run spend its CPU?".  They are kept out of the trace
    log so trace digests stay deterministic; :meth:`publish` exports them as
    gauges on the simulator's :class:`MetricsRegistry` on demand.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.metrics = metrics
        self.trace = trace
        self.observers = Observers()
        self.counts: dict[str, int] = {}
        self.wall_seconds: dict[str, float] = {}
        self.max_wall_seconds: dict[str, float] = {}
        self.suppressed: dict[str, int] = {}

    @staticmethod
    def label_of(event: Event) -> str:
        return event.label or getattr(event.callback, "__name__", "?")

    # -- dispatch -------------------------------------------------------
    def dispatch(self, event: Event) -> Any:
        """Fire *event* between its observers, recording counts and timings."""
        label = event.label or getattr(event.callback, "__name__", "?")
        observers = self.observers
        for hook in observers.dispatch_pre:
            hook(event)
        if event.cancelled:
            self.suppressed[label] = self.suppressed.get(label, 0) + 1
            if self.trace is not None:
                self.trace.emit("dispatch.suppressed", label)
            return None
        label_stack = _DISPATCH_LABEL_STACKS.setdefault(threading.get_ident(), [])
        label_stack.append(label)
        start = _wallclock.perf_counter()
        try:
            return event.fire()
        finally:
            elapsed = _wallclock.perf_counter() - start
            label_stack.pop()
            self.counts[label] = self.counts.get(label, 0) + 1
            self.wall_seconds[label] = self.wall_seconds.get(label, 0.0) + elapsed
            if elapsed > self.max_wall_seconds.get(label, 0.0):
                self.max_wall_seconds[label] = elapsed
            for hook in observers.dispatch_post:
                hook(event, elapsed)

    # -- reporting ------------------------------------------------------
    def summary(self) -> list[dict]:
        """Per-label dispatch statistics, busiest label first."""
        rows = []
        for label in sorted(self.counts, key=lambda k: (-self.counts[k], k)):
            count = self.counts[label]
            wall = self.wall_seconds.get(label, 0.0)
            rows.append(
                {
                    "label": label,
                    "events": count,
                    "wall_s": wall,
                    "mean_s": wall / count if count else 0.0,
                    "max_s": self.max_wall_seconds.get(label, 0.0),
                    "suppressed": self.suppressed.get(label, 0),
                }
            )
        return rows

    def publish(self, metrics: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Export per-label counts/timings as ``sim.dispatch.*`` gauges."""
        registry = metrics or self.metrics
        if registry is None:
            raise SimulationError("DispatchBus has no metrics registry to publish to")
        for row in self.summary():
            prefix = f"sim.dispatch.{row['label']}"
            registry.gauge(f"{prefix}.events").set(row["events"])
            registry.gauge(f"{prefix}.wall_s").set(row["wall_s"])
            registry.gauge(f"{prefix}.wall_max_s").set(row["max_s"])
        return registry

    def reset(self) -> None:
        """Clear accumulated statistics (observers stay subscribed)."""
        self.counts.clear()
        self.wall_seconds.clear()
        self.max_wall_seconds.clear()
        self.suppressed.clear()


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns the simulated clock (:attr:`now`, in seconds), the
    event queue, the root :class:`~repro.sim.rng.SeedSequence` from which all
    component RNGs are derived, a :class:`~repro.sim.metrics.MetricsRegistry`,
    a :class:`~repro.sim.tracing.TraceLog`, the
    :class:`~repro.sim.observers.Observers` stream that observation planes
    subscribe to, and a :class:`DispatchBus` through which every executed
    event flows.

    Typical use::

        sim = Simulator(seed=42)
        sim.schedule(1.0, do_something)
        sim.run_until(10.0)

    **Tie-order race detection.**  Same-timestamp events fire FIFO by
    default; any permutation of those ties is an equally legal schedule, so
    a protocol outcome that depends on the FIFO accident is a latent race.
    Passing ``tie_shuffle=<int>`` (or setting ``$REPRO_TIE_SHUFFLE``)
    deterministically permutes ties under that seed: running the same
    scenario under several shuffle seeds and comparing end-state digests
    (e.g. ``HierarchicalSystem.end_state_digest()``) detects hidden
    tie-order dependence.  ``tie_shuffle=None`` with the environment
    variable unset is the plain FIFO discipline.
    """

    def __init__(self, seed: int = 0, tie_shuffle: Optional[int] = None) -> None:
        self.now: float = 0.0
        self.seed = seed
        self.seeds = SeedSequence(seed)
        self.queue = EventQueue()
        if tie_shuffle is None:
            env = os.environ.get("REPRO_TIE_SHUFFLE")
            if env:
                tie_shuffle = int(env)
        if tie_shuffle is not None:
            self.queue.set_tie_shuffle(tie_shuffle)
        self.tie_shuffle = tie_shuffle
        self.metrics = MetricsRegistry(clock=lambda: self.now)
        self.trace = TraceLog(clock=lambda: self.now)
        self.dispatch = DispatchBus(metrics=self.metrics, trace=self.trace)
        # The observation stream every plane subscribes to (spans, monitors,
        # rounds, recorder, health, profiler); see repro.sim.observers.
        self.observers = self.dispatch.observers
        # Scratch space for cross-component memoization of deterministic
        # computations (e.g. the runtime's shared block-execution cache).
        # Contents must never influence observable simulation behaviour —
        # only avoid recomputing results that are pure functions of it.
        self.memo: dict = {}
        self._events_executed = 0
        self._halted = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule *callback* to run *delay* simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.queue.push(self.now + delay, callback, args, kwargs, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule *callback* at an absolute simulated *time* (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now={self.now}")
        return self.queue.push(time, callback, args, kwargs, label=label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Safe on already-fired events (no-op for
        queue accounting: only events still in the queue release a slot)."""
        if not event.cancelled:
            event.cancel()
            if not event.popped:
                self.queue.note_cancel()

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_after: Optional[float] = None,
        label: str = "",
        on_error: str = "log",
        **kwargs: Any,
    ) -> Callable[[], None]:
        """Run *callback* periodically every *interval* seconds.

        Returns a zero-argument function that stops the recurrence.  The
        first firing happens after *start_after* seconds (default: one full
        interval).

        Tie-breaking: each tick re-schedules the next one from inside its
        own callback, so a tick's queue sequence number — and hence its
        position among same-timestamp events — is assigned at that moment.
        Two recurrences with the same interval fire in the order their
        *previous* ticks ran (FIFO by re-scheduling), which is itself FIFO
        by the order of the original :meth:`every` calls.  As with all
        same-timestamp ties, correct components must not rely on this
        accident; ``tie_shuffle`` exists to flush out code that does.

        ``on_error`` decides what an exception raised by *callback* does to
        the recurrence:

        - ``"log"`` (default): record a ``timer.error`` trace + metric and
          keep ticking — one bad tick must not silently kill a heartbeat;
        - ``"stop"``: record the error and end the recurrence;
        - ``"raise"``: end the recurrence and propagate the exception out of
          the run loop (the pre-existing behaviour).
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive (got {interval})")
        if on_error not in ("log", "stop", "raise"):
            raise SimulationError(f"unknown on_error policy {on_error!r}")
        state = {"stopped": False, "event": None}

        def _tick() -> None:
            if state["stopped"]:
                return
            try:
                callback(*args, **kwargs)
            except Exception as err:
                if on_error == "raise":
                    state["stopped"] = True
                    raise
                name = label or getattr(callback, "__name__", "?")
                self.trace.emit("timer.error", name, type(err).__name__, err)
                self.metrics.counter(f"sim.timer.errors.{name}").inc()
                if on_error == "stop":
                    state["stopped"] = True
                    return
            if not state["stopped"]:
                state["event"] = self.schedule(interval, _tick, label=label)

        first = interval if start_after is None else start_after
        state["event"] = self.schedule(first, _tick, label=label)

        def _stop() -> None:
            state["stopped"] = True
            event = state["event"]
            if event is not None:
                self.cancel(event)

        return _stop

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` if the queue is empty."""
        if not self.queue:
            return False
        event = self.queue.pop()
        if event.time < self.now:
            raise SimulationError("event queue produced an event in the past")
        self.now = event.time
        self._events_executed += 1
        self.dispatch.dispatch(event)
        return True

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run events until simulated *time* (inclusive of events at *time*).

        Returns the number of events executed.  Unless halted, the clock is
        advanced to *time* even if the queue drains earlier, so subsequent
        scheduling is relative to the requested horizon; a :meth:`halt`
        leaves the clock at the halting event's time.
        """
        executed = 0
        self._halted = False
        while not self._halted:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > time:
                break
            self.step()
            executed += 1
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} before reaching t={time}"
                )
        if not self._halted and self.now < time:
            self.now = time
        return executed

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue is exhausted.  Returns events executed."""
        executed = 0
        self._halted = False
        while not self._halted and self.step():
            executed += 1
            if executed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        return executed

    def halt(self) -> None:
        """Stop the current :meth:`run`/:meth:`run_until` after this event."""
        self._halted = True

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far."""
        return self._events_executed

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng(self, *scope: Any):
        """Return a deterministic ``random.Random`` for a named component.

        The same ``(seed, *scope)`` always yields an identically-seeded
        generator, so components do not perturb each other's random streams.
        """
        return self.seeds.rng(*scope)
