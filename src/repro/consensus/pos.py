"""Stake-weighted proof-of-stake leader lottery.

Like :mod:`repro.consensus.poa` but the slot leader is drawn by a
stake-weighted lottery seeded from (subnet, slot) — a stand-in for the
VRF-based leader election of PoS chains.  Every validator computes the same
lottery locally, so eligibility is verifiable without extra messages.

This is the engine the paper's checkpointing story is most concerned with:
PoS subnets are where long-range attacks apply and where anchoring to the
parent via checkpoints matters (§I, §II).
"""

from __future__ import annotations

import random
from typing import Any

from repro.chain.block import FullBlock
from repro.consensus.base import ConsensusEngine, Validator, register_engine


@register_engine
class ProofOfStakeEngine(ConsensusEngine):
    """Slot-based PoS with a deterministic, stake-weighted leader lottery."""

    NAME = "pos"
    SUPPORTS_FORKS = False
    INSTANT_FINALITY = True

    def __init__(self, sim, node, validators, params) -> None:
        super().__init__(sim, node, validators, params)
        self._stop_ticker = None

    def start(self) -> None:
        super().start()
        offset = self.params.block_time - (self.sim.now % self.params.block_time)
        self._stop_ticker = self.sim.every(
            self.params.block_time,
            self._on_slot,
            start_after=offset,
            label=f"pos:{self.node.node_id}",
        )

    def stop(self) -> None:
        super().stop()
        if self._stop_ticker is not None:
            self._stop_ticker()
            self._stop_ticker = None

    def _current_slot(self) -> int:
        return int(round(self.sim.now / self.params.block_time))

    def leader_for_slot(self, slot: int) -> Validator:
        """The lottery: every validator derives the same leader for a slot.

        Uses a *fresh* generator seeded from (subnet, slot) — not the cached
        scoped stream — so every node's draw sees identical generator state.
        """
        seed = self.sim.seeds.seed_for("pos-lottery", self.node.subnet_id, slot)
        return self.validators.weighted_choice(random.Random(seed))

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
        self.node.receive_block(block, final=True)
        self._trace_round("commit", height=block.height, slot=slot)
        self.node.broadcast("block", block)

    def handle(self, kind: str, payload: Any, sender: str) -> None:
        if kind != "block":
            return
        # No running guard: blocks self-certify via the stake-weighted
        # leader check, and a restarted node listens passively (engine
        # stopped) until its head is fresh — see RoundRobinEngine.handle.
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
            self.node.request_block_range(
                sender, self.node.head().height + 1, block.height - 1
            )

    def debug_state(self) -> dict:
        """Lottery state: the current slot and the leader it elects."""
        slot = self._current_slot()
        head = self.node.head()
        state = super().debug_state()
        state.update({
            "slot": slot,
            "leader": self.leader_for_slot(slot).node_id,
            "head_height": head.height if head else None,
        })
        return state
