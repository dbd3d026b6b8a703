"""Node-side checkpointing: sign sealed windows, aggregate, submit (§III-B).

The SCA seals a checkpoint template in-state at each period boundary (a
deterministic function of the chain, so every validator derives the same
checkpoint).  This service then:

1. signs the sealed checkpoint per the SA policy (an individual signature,
   or a threshold partial) and gossips the signature on the subnet topic
   (Fig. 2's "signature window");
2. aggregates signatures until the policy quorum is met;
3. when this validator is the window's designated submitter (rotating by
   window index), submits the :class:`SignedCheckpoint` to the SA on the
   parent chain — with a timed fallback so a crashed submitter cannot stall
   checkpointing;
4. pushes the checkpoint's cross-msg batches to their destination subnets'
   resolution topics (§IV-C: "Whenever a subnet submits a new checkpoint to
   its parent, it pushes the messages behind the CIDs");
5. watches for policy-valid *conflicting* checkpoints and submits fraud
   proofs (§III-B) — the evidence that triggers slashing.

Byzantine behaviour hooks: ``equivocate_checkpoint`` makes this validator
also sign a forged conflicting checkpoint (the attack E8 measures).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cid import CID, cid_of
from repro.crypto.signature import Signature, sign
from repro.crypto.threshold import ThresholdScheme
from repro.hierarchy.checkpoint import Checkpoint, SignedCheckpoint
from repro.hierarchy.gateway import SCA_ADDRESS
from repro.hierarchy.subnet_actor import SignaturePolicy, threshold_scheme_for
from repro.hierarchy.wallet import Wallet


@dataclass
class CheckpointConfig:
    """Everything the service needs to know about its subnet's policy."""

    period: int  # blocks per checkpoint window
    policy: SignaturePolicy
    sa_addr: str  # the SA's address on the parent chain
    validator_index: int  # this validator's position in the sorted set
    validator_count: int
    threshold_share_index: int = 0  # 1-based share index for threshold policy
    submit_fallback_delay: float = 10.0  # seconds before backups also submit
    # How long the designated submitter waits for stragglers before
    # submitting a partial (but still quorum-satisfying) signature set.
    # The grace deadline makes the submitted bundle deterministic: at
    # sign-time + grace every signature that will ever arrive has arrived,
    # so the bundle is "all non-withheld signatures" independent of the
    # order in which same-timestamp deliveries happened to fire.
    submit_grace_delay: float = 2.0


def _sca_key(key: str) -> str:
    return f"actor/{SCA_ADDRESS.raw}/{key}"


class CheckpointService:
    """Drives a subnet validator's checkpoint duties."""

    def __init__(self, sim, node, config: CheckpointConfig) -> None:
        self.sim = sim
        self.node = node
        self.config = config
        self.wallet = Wallet(node.keypair)
        self._signatures: dict[int, dict] = {}  # window -> {signer -> sig/partial}
        self._checkpoints: dict[int, Checkpoint] = {}
        self._submitted: set[int] = set()
        self._fraud_reported: set[int] = set()
        self._last_processed_window = -1
        # window -> {ckpt_cid_hex -> signatures} for equivocation detection
        self._seen_by_window: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Block-driven progress
    # ------------------------------------------------------------------
    def on_block(self, block) -> None:
        """Called for every committed block on this subnet's chain."""
        finality_lag = (
            self.node.engine.params.finality_depth
            if self.node.engine.SUPPORTS_FORKS
            else 0
        )
        final_height = self.node.head().height - finality_lag
        # Sealed windows become actionable once their sealing block is final.
        while True:
            next_window = self._last_processed_window + 1
            seal_height = (next_window + 1) * self.config.period
            if seal_height > final_height:
                break
            checkpoint = self.node.vm.state.get(_sca_key(f"ckpt/{next_window}"))
            if checkpoint is None:
                break  # not sealed yet (chain shorter than expected)
            self._last_processed_window = next_window
            self._sign_and_gossip(next_window, checkpoint)

    def _sign_and_gossip(self, window: int, checkpoint: Checkpoint) -> None:
        self._checkpoints[window] = checkpoint
        # Replay signatures that arrived before we processed the seal —
        # gossip can outrun a node's own block pipeline.
        stashed = self._seen_by_window.get(window, {}).get(checkpoint.cid.hex())
        if stashed:
            self._signatures.setdefault(window, {}).update(stashed["sigs"])
        payload = checkpoint.cid.hex()
        signature = self._produce_signature(payload)
        if signature is None:
            return
        self._record_signature(window, checkpoint.cid, self.node.node_id, signature)
        self.node.broadcast(
            "ckpt:sig", (window, checkpoint.cid, self.node.node_id, signature)
        )
        if self.node.is_byzantine("equivocate_checkpoint"):
            forged = Checkpoint(
                source=checkpoint.source,
                proof=cid_of(("forged", window, self.node.node_id)),
                prev=checkpoint.prev,
                children=checkpoint.children,
                cross_meta=checkpoint.cross_meta,
                window=checkpoint.window,
                epoch=checkpoint.epoch,
            )
            forged_sig = self._produce_signature(forged.cid.hex())
            self.sim.metrics.counter(
                f"checkpoint.{self.node.subnet_id}.equivocations"
            ).inc()
            self.node.broadcast(
                "ckpt:sig", (window, forged.cid, self.node.node_id, forged_sig)
            )
            # Gossip the forged checkpoint body so watchers can build proofs.
            self.node.broadcast("ckpt:body", (window, forged))
        # Fallback submission if the designated submitter stalls.
        self.sim.schedule(
            self.config.submit_fallback_delay,
            self._fallback_submit,
            window,
            label="ckpt:fallback",
        )
        if self._is_designated_submitter(window):
            # Grace deadline: submit with whatever quorum exists once every
            # signature that will ever arrive has had time to arrive.  Until
            # then _maybe_submit only fires on a complete signature set, so
            # the submitted bundle never depends on delivery tie order.
            self.sim.schedule(
                self.config.submit_grace_delay,
                self._grace_submit,
                window,
                label="ckpt:grace",
            )
        self._maybe_submit(window)

    def _produce_signature(self, payload: str):
        if self.node.is_byzantine("withhold_checkpoint_sig"):
            return None
        if self.config.policy.kind == "threshold":
            scheme = threshold_scheme_for(f"tss:{self.node.subnet_id}")
            if scheme is None:
                return None
            share = scheme.share_for(self.config.threshold_share_index)
            return ThresholdScheme.partial_sign(share, payload)
        return sign(self.node.keypair, payload)

    # ------------------------------------------------------------------
    # Signature aggregation
    # ------------------------------------------------------------------
    def handle(self, kind: str, payload) -> None:
        """Process checkpoint-related pubsub traffic."""
        if kind == "ckpt:sig":
            window, ckpt_cid, signer_id, signature = payload
            self._record_signature(window, ckpt_cid, signer_id, signature)
            self._check_equivocation(window)
            self._maybe_submit(window)
        elif kind == "ckpt:body":
            window, checkpoint = payload
            by_cid = self._seen_by_window.setdefault(window, {})
            entry = by_cid.setdefault(checkpoint.cid.hex(), {"sigs": {}, "body": None})
            entry["body"] = checkpoint
            self._check_equivocation(window)

    def _record_signature(self, window: int, ckpt_cid: CID, signer_id: str, signature) -> None:
        if signature is None:
            return
        book = self._signatures.setdefault(window, {})
        genuine = self._checkpoints.get(window)
        if genuine is not None and ckpt_cid == genuine.cid:
            book[signer_id] = signature
        by_cid = self._seen_by_window.setdefault(window, {})
        entry = by_cid.setdefault(ckpt_cid.hex(), {"sigs": {}, "body": None})
        entry["sigs"][signer_id] = signature
        if genuine is not None and ckpt_cid == genuine.cid:
            entry["body"] = genuine

    def _quorum(self) -> int:
        policy = self.config.policy
        if policy.kind == "single":
            return 1
        return policy.threshold

    def _bundle(self, window: int):
        """The policy-appropriate signature bundle, or None below quorum."""
        book = self._signatures.get(window, {})
        if len(book) < self._quorum():
            return None
        if self.config.policy.kind == "threshold":
            scheme = threshold_scheme_for(f"tss:{self.node.subnet_id}")
            if scheme is None:
                return None
            checkpoint = self._checkpoints[window]
            try:
                return scheme.combine(list(book.values()), checkpoint.cid.hex())
            except ValueError:
                return None
        return tuple(sorted(book.values(), key=lambda s: s.signer))

    # ------------------------------------------------------------------
    # Submission to the parent
    # ------------------------------------------------------------------
    def _is_designated_submitter(self, window: int) -> bool:
        return window % self.config.validator_count == self.config.validator_index

    def _maybe_submit(self, window: int) -> None:
        if window in self._submitted or window not in self._checkpoints:
            return
        if not self._is_designated_submitter(window):
            return
        # Only the *complete* signature set is submitted eagerly.  A partial
        # set that merely satisfies quorum would depend on which deliveries
        # happened to fire first among same-timestamp events — a tie-order
        # race (caught by ``Simulator(tie_shuffle=...)``).  Incomplete sets
        # wait for the deterministic grace deadline instead.
        book = self._signatures.get(window, {})
        if len(book) < self.config.validator_count:
            return
        self._try_submit(window)

    def _grace_submit(self, window: int) -> None:
        """Grace deadline: submit the (now stable) quorum-satisfying set."""
        if window in self._submitted or window not in self._checkpoints:
            return
        if not self._is_designated_submitter(window):
            return
        self._try_submit(window)

    def _fallback_submit(self, window: int, attempt: int = 0) -> None:
        """Backup path: while the parent still lacks this window, (re)submit.

        Also covers the case where an earlier submission failed to chain
        (e.g. a predecessor window landed late): the SA's recorded window is
        the ground truth, so we keep retrying with backoff until it shows.
        """
        if self.node.parent_node is None or attempt > 10:
            return
        sa_state = self.node.parent_node.vm.state.get(
            f"actor/{self.config.sa_addr}/last_ckpt_window", -1
        )
        if sa_state >= window:
            self._submitted.add(window)
            return
        self._try_submit(window)
        self.sim.schedule(
            self.config.submit_fallback_delay,
            self._fallback_submit,
            window,
            attempt + 1,
            label="ckpt:fallback",
        )

    def _try_submit(self, window: int) -> None:
        if self.node.parent_node is None or self.node.is_byzantine("withhold_checkpoint"):
            return
        bundle = self._bundle(window)
        if bundle is None:
            return
        checkpoint = self._checkpoints[window]
        signed = SignedCheckpoint(checkpoint=checkpoint, signatures=bundle)
        from repro.crypto.keys import Address

        self.wallet.send(
            self.node.parent_node,
            Address(self.config.sa_addr),
            method="submit_checkpoint",
            params={"signed": signed},
        )
        self._submitted.add(window)
        self.sim.metrics.counter(f"checkpoint.{self.node.subnet_id}.submitted").inc()
        self.sim.trace.emit(
            "checkpoint.submit", str(self.node.subnet_id),
            f"window={window}", checkpoint.cid.short(),
        )
        for observer in self.sim.observers.checkpoint_submit:
            observer(checkpoint.cid.hex(), str(self.node.subnet_id), window)
        self._push_contents(checkpoint)

    def _push_contents(self, checkpoint: Checkpoint) -> None:
        """Push each batch to the subnets that will need it (Fig. 4).

        The final destination applies the messages, and for path messages
        the parent (as LCA or relay hop) applies them first — push to both.
        """
        resolution = getattr(self.node, "resolution", None)
        if resolution is None:
            return
        parent = self.node.subnet.parent()
        for meta in checkpoint.cross_meta:
            messages = resolution.resolve_local(meta.msgs_cid)
            if messages is None:
                continue
            resolution.push(meta.to_subnet, meta.msgs_cid, messages)
            if meta.to_subnet != parent:
                resolution.push(parent, meta.msgs_cid, messages)

    # ------------------------------------------------------------------
    # Fraud proofs (§III-B)
    # ------------------------------------------------------------------
    def _check_equivocation(self, window: int) -> None:
        """Two policy-signed conflicting checkpoints → submit a fraud proof."""
        if window in self._fraud_reported or self.node.parent_node is None:
            return
        if self.config.policy.kind == "threshold":
            return  # combining partials for a forged cid needs k colluders
        by_cid = self._seen_by_window.get(window, {})
        # Sort by checkpoint CID so the proof pair (and its order inside the
        # fraud-proof transaction) is independent of gossip arrival order.
        complete = sorted(
            (
                (cid_hex, entry)
                for cid_hex, entry in by_cid.items()
                if entry["body"] is not None and len(entry["sigs"]) >= self._quorum()
            ),
            key=lambda item: item[0],
        )
        if len(complete) < 2:
            return
        first, second = complete[0][1], complete[1][1]
        if first["body"].prev != second["body"].prev:
            return
        self._fraud_reported.add(window)
        from repro.crypto.keys import Address

        proof_a = SignedCheckpoint(
            checkpoint=first["body"],
            signatures=tuple(sorted(first["sigs"].values(), key=lambda s: s.signer)),
        )
        proof_b = SignedCheckpoint(
            checkpoint=second["body"],
            signatures=tuple(sorted(second["sigs"].values(), key=lambda s: s.signer)),
        )
        self.wallet.send(
            self.node.parent_node,
            Address(self.config.sa_addr),
            method="submit_fraud_proof",
            params={"first": proof_a, "second": proof_b},
        )
        self.sim.metrics.counter(f"checkpoint.{self.node.subnet_id}.fraud_proofs").inc()
        self.sim.trace.emit("checkpoint.fraud_proof", str(self.node.subnet_id), f"window={window}")
