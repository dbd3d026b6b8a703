"""Per-layer span tracing for the benchmark, built from the outside.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer`
replaces the public functions listed in :data:`LAYERS` with timing
wrappers: class methods are patched on the class that defines them, and
module-level functions are patched in *every* loaded ``repro`` module that
holds a reference to them, so ``from repro.crypto.cid import cid_of``
copies are traced too.  ``DispatchBus.dispatch`` is the root span of each
simulator event; wrapped layer calls made while an event runs nest under
it as child spans.

A span's self time is its duration minus the durations of its direct
children.  Spans are appended to flat in-memory arrays while the tracer
is active and written out once, by :meth:`LayerTracer.write_spans`.

Install the tracer *before* the system under test is built: components
register bound methods as callbacks (dispatch hooks, timers), and a bound
method taken before installation would keep calling the unwrapped code.
The wrappers only call through while :attr:`LayerTracer.active` is false,
so set-up runs untraced but through the same code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Optional

#: Span key -> the ``(module, attribute)`` targets that feed it.  An
#: attribute ``"Class.method"`` patches the method on that class; a plain
#: name patches a module-level function wherever it is bound.
LAYERS: dict[str, tuple] = {
    # sim: the root span of every simulator event.
    "sim.dispatch": (("repro.sim.scheduler", "DispatchBus.dispatch"),),
    # net
    "net.publish": (("repro.net.gossip", "GossipNetwork.publish"),),
    "net.send": (("repro.net.transport", "Transport.send"),),
    "net.rpc": (("repro.net.rpc", "RpcChannel.call"),),
    # consensus: every engine's message handler.
    "consensus.handle": (
        ("repro.consensus.poa", "RoundRobinEngine.handle"),
        ("repro.consensus.pos", "ProofOfStakeEngine.handle"),
        ("repro.consensus.pow", "ProofOfWorkEngine.handle"),
        ("repro.consensus.tendermint", "TendermintEngine.handle"),
        ("repro.consensus.mir", "MirEngine.handle"),
    ),
    # chain
    "chain.mempool_add": (("repro.chain.message_pool", "MessagePool.add"),),
    "chain.mempool_select": (("repro.chain.message_pool", "MessagePool.select"),),
    "chain.add_block": (("repro.chain.chainstore", "ChainStore.add_block"),),
    # runtime
    "runtime.receive_block": (("repro.runtime.node", "NodeRuntime.receive_block"),),
    "runtime.assemble_block": (("repro.runtime.node", "NodeRuntime.assemble_block"),),
    # vm
    "vm.apply_message": (("repro.vm.vm", "VM.apply_message"),),
    # VM.copy runs only while nodes are built; block assembly and validation
    # copy a VM through the runtime's _vm_from_state, so both count.
    "vm.copy": (
        ("repro.vm.vm", "VM.copy"),
        ("repro.runtime.node", "NodeRuntime._vm_from_state"),
    ),
    # storage
    "storage.root": (("repro.storage.statetree", "StateTree.root"),),
    "storage.fork": (("repro.storage.statetree", "StateTree.fork"),),
    # crypto
    "crypto.encode": (("repro.crypto.encoding", "canonical_encode"),),
    "crypto.cid": (("repro.crypto.cid", "cid_of"),),
    "crypto.sign": (("repro.crypto.signature", "sign"),),
    "crypto.verify": (("repro.crypto.signature", "verify"),),
    # hierarchy
    "hierarchy.checkpoint": (
        ("repro.hierarchy.checkpointing", "CheckpointService.on_block"),
        ("repro.hierarchy.checkpointing", "CheckpointService.handle"),
    ),
    "hierarchy.crossmsg_pool": (
        ("repro.hierarchy.crossmsg_pool", "CrossMsgPool.scan_parent"),
        ("repro.hierarchy.crossmsg_pool", "CrossMsgPool.scan_own"),
        ("repro.hierarchy.crossmsg_pool", "CrossMsgPool.select"),
        ("repro.hierarchy.crossmsg_pool", "CrossMsgPool.prune_applied"),
    ),
    "hierarchy.apply_cross": (("repro.hierarchy.node", "SubnetNode.apply_cross_message"),),
    "hierarchy.resolution": (("repro.hierarchy.resolution", "ResolutionService.request"),),
    # telemetry: the entry points through which the runtime feeds each
    # observation plane (spans, rounds, monitors, recorder, health).
    "telemetry": (
        ("repro.telemetry.spans", "SpanTracer.note_submit"),
        ("repro.telemetry.spans", "SpanTracer.on_block_commit"),
        ("repro.telemetry.spans", "SpanTracer.checkpoint_submitted"),
        ("repro.telemetry.rounds", "RoundTracer.on_round_event"),
        ("repro.telemetry.monitor", "InvariantMonitor.on_block_commit"),
        ("repro.telemetry.monitor", "InvariantMonitor.on_reorg"),
        ("repro.telemetry.recorder", "FlightRecorder._on_dispatch"),
        ("repro.telemetry.recorder", "FlightRecorder.note_health"),
        ("repro.telemetry.health", "HealthProbe.sample"),
    ),
    # The benchmark's own harness callbacks (see hc_workloads).
    "workloads.submit": (("hc_workloads", "OpenLoop.fire"),),
    "workloads.observe": (("hc_workloads", "CommitObserver.on_commit"),),
}


def _resolve(module_name: str, attr: str):
    """``(owner, name, original)`` for one target of :data:`LAYERS`."""
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # Methods are read from the defining class's __dict__ so a wrapper is
    # never installed over an inherited attribute.
    original = owner.__dict__[name] if classes else getattr(owner, name)
    return owner, name, original


def _loaded_repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class LayerTracer:
    """Wraps the layer functions and aggregates calls and times per key."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.keys = list(LAYERS)
        n = len(self.keys)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        #: Bytes returned by ``canonical_encode`` while active.
        self.encoded_bytes = 0
        #: Sum of ``StateTree.last_root_rehashed`` over traced root calls.
        self.buckets_rehashed = 0
        self.active = False
        # Flat span storage: key index, parent span index, start, end.
        self.span_key = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # open spans: [span index, child seconds]
        self._patched: list = []  # (owner, name, original, wrapper)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        importlib.import_module("repro.telemetry")  # loads the plane modules
        after = {
            "crypto.encode": self._count_bytes,
            "storage.root": self._count_rehashed,
        }
        for index, key in enumerate(self.keys):
            for module_name, attr in LAYERS[key]:
                owner, name, original = _resolve(module_name, attr)
                wrapper = self._wrap(original, index, after.get(key))
                if isinstance(owner, type):
                    setattr(owner, name, wrapper)
                    self._patched.append((owner, name, original, wrapper))
                    continue
                for module in _loaded_repro_modules():
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, binding, wrapper)
                            self._patched.append((module, binding, original, wrapper))
        return self

    def uninstall(self) -> None:
        originals = {}
        for owner, name, original, wrapper in reversed(self._patched):
            setattr(owner, name, original)
            originals[id(wrapper)] = (wrapper, original)
        # A module first imported while the tracer was installed copied a
        # wrapper with its ``from x import f``; put the original back there too.
        for module in _loaded_repro_modules():
            for binding, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, binding, entry[1])
        self._patched.clear()

    def _wrap(self, function, index: int, after: Optional[Callable]):
        tracer = self
        clock = self.clock
        stack = self._stack
        keys, parents = self.span_key, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            span = len(starts)
            keys.append(index)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[span] = start
                ends[span] = end
                duration = end - start
                calls[index] += 1
                total_s[index] += duration
                self_s[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, function)

    def _count_bytes(self, _args, result) -> None:
        self.encoded_bytes += len(result)

    def _count_rehashed(self, args, _result) -> None:
        self.buckets_rehashed += args[0].last_root_rehashed

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def stat(self, key: str) -> dict:
        index = self.keys.index(key)
        return {
            "calls": self.calls[index],
            "self_s": self.self_s[index],
            "total_s": self.total_s[index],
        }

    def clear_spans(self) -> None:
        """Free the recorded spans; the per-key aggregates stay."""
        for spans in (self.span_key, self.span_parent, self.span_start, self.span_end):
            del spans[:]

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, path: str) -> None:
        """Write every recorded span as tab-separated text.

        One header line names the columns; each following line is one span:
        ``index  parent  key  start_us  duration_us  self_us``.  ``parent``
        is ``-1`` for a root span.  Times are microseconds from the first
        span's start.
        """
        n = len(self.span_start)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for span in range(n):
            parent = parents[span]
            if parent >= 0:
                child[parent] += ends[span] - starts[span]
        origin = starts[0] if n else 0.0
        keys = self.keys
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tparent\tkey\tstart_us\tduration_us\tself_us\n")
            lines = []
            for span in range(n):
                duration = ends[span] - starts[span]
                lines.append(
                    "%d\t%d\t%s\t%.3f\t%.3f\t%.3f\n"
                    % (
                        span,
                        parents[span],
                        keys[self.span_key[span]],
                        (starts[span] - origin) * 1e6,
                        duration * 1e6,
                        (duration - child[span]) * 1e6,
                    )
                )
                if len(lines) >= 65536:
                    handle.writelines(lines)
                    lines.clear()
            handle.writelines(lines)
