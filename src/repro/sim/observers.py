"""The simulator's observation stream: one callback tuple per event kind.

Every observation plane attaches to a run through
``sim.observers.subscribe(kind, fn)``; emitters name only a kind, never a
telemetry class.  The kinds and their callback arguments:

- ``dispatch_pre(event)`` — before an event fires; may ``event.cancel()`` it;
- ``dispatch_post(event, elapsed)`` — after it fired, even if it raised;
- ``block_commit(node, block, events)`` — a block became canonical on *node*;
- ``reorg(node, old_head, new_head_block, depth)`` — *node* abandoned blocks;
- ``round(subnet, node_id, kind, time, fields)`` — a consensus round step;
- ``checkpoint_submit(ckpt_hex, subnet, window)`` — a checkpoint was sent up;
- ``health(latest)`` — a health sample round finished.

Emitters read a kind's tuple directly (``for fn in observers.reorg``), so
with no subscriber an emit costs one attribute read.  Subscribing and
removing swap in a new tuple: an emit in progress finishes over the tuple
it started with.  Observers must not write to the trace log, RNG streams
or protocol state (cancelling in ``dispatch_pre`` is the one exception).
"""

from __future__ import annotations

from typing import Callable

KINDS = (
    "dispatch_pre",
    "dispatch_post",
    "block_commit",
    "reorg",
    "round",
    "checkpoint_submit",
    "health",
)


class Observers:
    """Subscriber tuples for every observation kind, in subscription order."""

    __slots__ = KINDS

    def __init__(self) -> None:
        for kind in KINDS:
            setattr(self, kind, ())

    def subscribe(self, kind: str, fn: Callable) -> Callable[[], None]:
        """Call *fn* on every *kind* emit; returns an idempotent remover."""
        if kind not in KINDS:
            raise KeyError(f"unknown observer kind {kind!r} (have: {', '.join(KINDS)})")
        setattr(self, kind, getattr(self, kind) + (fn,))
        removed = False

        def remove() -> None:
            nonlocal removed
            if not removed:
                removed = True
                callbacks = list(getattr(self, kind))
                callbacks.remove(fn)
                setattr(self, kind, tuple(callbacks))

        return remove
