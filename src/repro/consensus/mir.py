"""Mir-style multi-leader consensus.

MirBFT (Stathakopoulou et al., JSys 2022) raises BFT throughput by letting
multiple leaders propose in parallel, partitioning the mempool into
*buckets* by sender hash so leaders never duplicate each other's messages,
and rotating bucket assignment across epochs to stop a faulty leader from
censoring a bucket forever.

This engine reproduces those three mechanisms on our linear-chain
substrate: every slot of length ``block_time`` has ``L = mir_leaders``
sub-slots; the leader of sub-slot ``k`` proposes at ``slot_start + k·δ``
(δ = block_time / L) on the current head, selecting only messages whose
sender falls in its bucket for the current epoch.  The result is the
characteristic Mir behaviour: ~L× the block rate of single-leader rotation
at the same slot length, with disjoint leader workloads.

The agreement layer is delegated to leader-eligibility checks (as in
:mod:`repro.consensus.poa`) rather than a full PBFT instance per bucket —
the hierarchy experiments measure throughput and cadence, which these
mechanisms determine.  (DESIGN.md records this simplification.)
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.chain.block import FullBlock
from repro.consensus.base import ConsensusEngine, register_engine


@register_engine
class MirEngine(ConsensusEngine):
    """Multi-leader rotation with hashed sender buckets."""

    NAME = "mir"
    SUPPORTS_FORKS = False
    INSTANT_FINALITY = True

    def __init__(self, sim, node, validators, params) -> None:
        super().__init__(sim, node, validators, params)
        self.leaders = max(1, min(params.mir_leaders, len(validators)))
        self._stop_ticker = None

    @property
    def _sub_slot_time(self) -> float:
        return self.params.block_time / self.leaders

    def start(self) -> None:
        super().start()
        offset = self._sub_slot_time - (self.sim.now % self._sub_slot_time)
        self._stop_ticker = self.sim.every(
            self._sub_slot_time,
            self._on_sub_slot,
            start_after=offset,
            label=f"mir:{self.node.node_id}",
        )

    def stop(self) -> None:
        super().stop()
        if self._stop_ticker is not None:
            self._stop_ticker()
            self._stop_ticker = None

    # ------------------------------------------------------------------
    # Leader/bucket schedule
    # ------------------------------------------------------------------
    def _current_sub_slot(self) -> int:
        return int(round(self.sim.now / self._sub_slot_time))

    def leader_for_sub_slot(self, sub_slot: int):
        return self.validators.round_robin(sub_slot)

    def bucket_of(self, sender_raw: str, epoch: int) -> int:
        """The mempool bucket of a sender in *epoch* (rotates per epoch)."""
        digest = hashlib.sha256(sender_raw.encode()).digest()
        base = int.from_bytes(digest[:4], "big") % self.leaders
        return (base + epoch) % self.leaders

    def _epoch(self, sub_slot: int) -> int:
        return sub_slot // (self.leaders * len(self.validators))

    # ------------------------------------------------------------------
    # Proposal
    # ------------------------------------------------------------------
    def _on_sub_slot(self) -> None:
        if not self.running:
            return
        sub_slot = self._current_sub_slot()
        leader = self.leader_for_sub_slot(sub_slot)
        if leader.node_id != self.node.node_id:
            return
        if self.node.is_byzantine("withhold_block"):
            self.sim.metrics.counter("consensus.withheld", subnet=self.node.subnet_id).inc()
            return
        epoch = self._epoch(sub_slot)
        my_bucket = sub_slot % self.leaders

        def in_my_bucket(signed) -> bool:
            return self.bucket_of(signed.message.from_addr.raw, epoch) == my_bucket

        head = self.node.head()
        block = self.node.assemble_block(
            height=head.height + 1,
            parent_cid=head.cid,
            consensus_data={
                "engine": self.NAME,
                "sub_slot": sub_slot,
                "bucket": my_bucket,
            },
            message_filter=in_my_bucket,
        )
        self.sim.metrics.counter("consensus.proposed", subnet=self.node.subnet_id).inc()
        self._trace_round(
            "propose", height=block.height, slot=sub_slot,
            proposer=self.node.node_id, cid=block.cid.hex()[:16],
        )
        self._observe_block_interval(block)
        self.node.receive_block(block, final=True)
        self._trace_round("commit", height=block.height, slot=sub_slot)
        self.node.broadcast("block", block)

    def handle(self, kind: str, payload: Any, sender: str) -> None:
        if kind != "block":
            return
        # No running guard: blocks self-certify via the sub-slot leader
        # check, and a restarted node listens passively (engine stopped)
        # until its head is fresh — see RoundRobinEngine.handle.
        block: FullBlock = payload
        sub_slot = block.header.consensus_data.get("sub_slot")
        if sub_slot is None:
            self.sim.metrics.counter("consensus.rejected", subnet=self.node.subnet_id).inc()
            return
        expected = self.leader_for_sub_slot(sub_slot)
        if block.header.miner != expected.address:
            self.sim.metrics.counter("consensus.rejected", subnet=self.node.subnet_id).inc()
            return
        if self.node.receive_block(block, final=True):
            self.sim.metrics.counter("consensus.accepted", subnet=self.node.subnet_id).inc()
            self._trace_round(
                "commit", height=block.height, slot=sub_slot,
                proposer=expected.node_id,
            )
        elif block.height > self.node.head().height + 1:
            self.node.request_block_range(
                sender, self.node.head().height + 1, block.height - 1
            )

    def debug_state(self) -> dict:
        """Sub-slot rotation state: leader, epoch and bucket right now."""
        sub_slot = self._current_sub_slot()
        head = self.node.head()
        state = super().debug_state()
        state.update({
            "slot": sub_slot,
            "leader": self.leader_for_sub_slot(sub_slot).node_id,
            "epoch": self._epoch(sub_slot),
            "bucket": sub_slot % self.leaders,
            "head_height": head.height if head else None,
        })
        return state
