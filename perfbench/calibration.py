"""Host-speed calibration for CPU-time metrics.

On a shared host the CPU time of a fixed piece of Python work swings by
up to 2x within seconds, as other tenants contend for cores, caches and
clock frequency.  To keep that swing out of the benchmark's CPU-based
metrics, the measured phase runs in short slices, and before and after
every slice the harness times :meth:`ReferenceWork.run`, a fixed workload
that uses only the standard library and no code under test.  A slice's
CPU time is scaled by :data:`REFERENCE_S` over the mean of its two
reference timings, which converts it to *reference CPU seconds*: the CPU
time the slice would have taken on a host where the reference work costs
exactly ``REFERENCE_S``.  A change to the program does not change the
reference work, so a real speed-up or slow-down still shows in full.

The reference work walks a pool larger than the CPU caches in a fixed
pseudo-random order, with heap, dict and hashing operations in between,
so that it slows under cache contention roughly as the simulator does.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import random
import time

#: Nominal CPU seconds of one :meth:`ReferenceWork.run` (about the median
#: reading on a shared 2-core x86-64 host with CPython 3.11).  Only ratios
#: to it matter, and it must stay fixed for figures to stay comparable.
REFERENCE_S = 0.002


class ReferenceWork:
    """A fixed, program-independent piece of CPU work."""

    def __init__(self, pool_size: int = 50_000, steps: int = 2_000) -> None:
        rng = random.Random(7)
        self.pool = [(i, f"item-{i}") for i in range(pool_size)]
        self.order = [rng.randrange(pool_size) for _ in range(steps)]

    def run(self) -> int:
        heap: list = []
        latest: dict = {}
        total = 0
        for step, index in enumerate(self.order):
            number, text = self.pool[index]
            total += number
            heapq.heappush(heap, ((index * 31) % 1009, step))
            if len(heap) > 32:
                _, popped = heapq.heappop(heap)
                latest[text] = popped
            if step % 8 == 0:
                hashlib.sha256(text.encode("ascii")).digest()
        return total + len(latest)

    def seconds(self, samples: int = 3) -> float:
        """Least CPU seconds of *samples* runs.

        The minimum drops one-off interruptions; the collector is paused
        so that garbage left by the code under test is not charged here.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(samples):
                start = time.process_time()
                self.run()
                best = min(best, time.process_time() - start)
            return best
        finally:
            if enabled:
                gc.enable()


class CalibratedClock:
    """Accumulates raw and reference-normalised CPU time over slices."""

    def __init__(self, reference: ReferenceWork) -> None:
        self.reference = reference
        self.raw_s = 0.0
        self.normalised_s = 0.0
        self._last = reference.seconds()

    def measure(self, work) -> None:
        """Run *work()* as one slice and add its CPU time."""
        start = time.process_time()
        work()
        spent = time.process_time() - start
        now = self.reference.seconds()
        self.raw_s += spent
        self.normalised_s += spent * REFERENCE_S / ((self._last + now) / 2)
        self._last = now
