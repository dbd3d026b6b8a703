"""Round-robin proof-of-authority.

The simplest engine: slot ``s`` (of length ``block_time``) belongs to
validator ``s mod n``; the slot leader proposes a block on its head and
every validator commits it on receipt after checking leader eligibility.
With honest-majority authorities this gives instant finality and a steady
block interval — the engine subnets default to in our experiments, because
its behaviour is the easiest to reason about in latency measurements.
"""

from __future__ import annotations

from typing import Any

from repro.chain.block import FullBlock
from repro.consensus.base import ConsensusEngine, register_engine


@register_engine
class RoundRobinEngine(ConsensusEngine):
    """Slot-based round-robin block production."""

    NAME = "poa"
    SUPPORTS_FORKS = False
    INSTANT_FINALITY = True

    def __init__(self, sim, node, validators, params) -> None:
        super().__init__(sim, node, validators, params)
        self._stop_ticker = None

    def start(self) -> None:
        super().start()
        # Align slot ticks to absolute slot boundaries so every validator
        # agrees on the slot schedule without communication.
        offset = self.params.block_time - (self.sim.now % self.params.block_time)
        self._stop_ticker = self.sim.every(
            self.params.block_time,
            self._on_slot,
            start_after=offset,
            label=f"poa:{self.node.node_id}",
        )

    def stop(self) -> None:
        super().stop()
        if self._stop_ticker is not None:
            self._stop_ticker()
            self._stop_ticker = None

    def _current_slot(self) -> int:
        return int(round(self.sim.now / self.params.block_time))

    def leader_for_slot(self, slot: int):
        return self.validators.round_robin(slot)

    def _on_slot(self) -> None:
        if not self.running:
            return
        slot = self._current_slot()
        leader = self.leader_for_slot(slot)
        if leader.node_id != self.node.node_id:
            return
        if self.node.is_byzantine("withhold_block"):
            self.sim.metrics.counter("consensus.withheld", subnet=self.node.subnet_id).inc()
            return
        head = self.node.head()
        block = self.node.assemble_block(
            height=head.height + 1,
            parent_cid=head.cid,
            consensus_data={"engine": self.NAME, "slot": slot},
        )
        self.sim.metrics.counter("consensus.proposed", subnet=self.node.subnet_id).inc()
        self._trace_round(
            "propose", height=block.height, slot=slot,
            proposer=self.node.node_id, cid=block.cid.hex()[:16],
        )
        self._observe_block_interval(block)
        # Commit locally first, then broadcast to the subnet topic.
        self.node.receive_block(block, final=True)
        self._trace_round("commit", height=block.height, slot=slot)
        self.node.broadcast("block", block)

    def handle(self, kind: str, payload: Any, sender: str) -> None:
        if kind != "block":
            return
        # No running guard: blocks are self-certifying (slot-leader
        # eligibility below), and a restarted node listens passively —
        # engine stopped — until its head is fresh.  Dropping deliveries
        # here would mark them gossip-seen yet never applied, wedging the
        # node until the max_sync_wait fallback.
        block: FullBlock = payload
        slot = block.header.consensus_data.get("slot")
        if slot is None:
            self.sim.metrics.counter("consensus.rejected", subnet=self.node.subnet_id).inc()
            return
        expected = self.leader_for_slot(slot)
        if block.header.miner != expected.address:
            self.sim.metrics.counter("consensus.rejected", subnet=self.node.subnet_id).inc()
            return
        if self.node.receive_block(block, final=True):
            self.sim.metrics.counter("consensus.accepted", subnet=self.node.subnet_id).inc()
            self._trace_round(
                "commit", height=block.height, slot=slot,
                proposer=expected.node_id,
            )
        elif block.height > self.node.head().height + 1:
            # Orphaned with a gap gossip's IHAVE history may no longer
            # cover (long outage) — fetch the missing range directly.
            self.node.request_block_range(
                sender, self.node.head().height + 1, block.height - 1
            )

    def debug_state(self) -> dict:
        """Slot schedule state: the current slot and its expected leader."""
        slot = self._current_slot()
        head = self.node.head()
        state = super().debug_state()
        state.update({
            "slot": slot,
            "leader": self.leader_for_slot(slot).node_id,
            "head_height": head.height if head else None,
        })
        return state
