"""Consensus engine interface and validator sets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.crypto.keys import Address
from repro.chain.block import FullBlock


@dataclass(frozen=True)
class Validator:
    """One consensus participant: a node and its mining power/stake."""

    node_id: str
    address: Address
    power: int = 1

    def to_canonical(self):
        return (self.node_id, self.address.raw, self.power)


class ValidatorSet:
    """An ordered set of validators with power-weighted helpers."""

    def __init__(self, validators) -> None:
        ordered = sorted(validators, key=lambda v: v.node_id)
        if not ordered:
            raise ValueError("validator set cannot be empty")
        seen = set()
        for validator in ordered:
            if validator.node_id in seen:
                raise ValueError(f"duplicate validator {validator.node_id}")
            if validator.power <= 0:
                raise ValueError(f"validator {validator.node_id} has no power")
            seen.add(validator.node_id)
        self.validators = ordered

    def __len__(self) -> int:
        return len(self.validators)

    def __iter__(self):
        return iter(self.validators)

    @property
    def total_power(self) -> int:
        return sum(v.power for v in self.validators)

    @property
    def quorum_power(self) -> int:
        """Power needed for a BFT quorum: > 2/3 of total."""
        return self.total_power * 2 // 3 + 1

    @property
    def max_faulty(self) -> int:
        """f such that the set tolerates f Byzantine validators (by count)."""
        return (len(self.validators) - 1) // 3

    def by_node(self, node_id: str) -> Optional[Validator]:
        for validator in self.validators:
            if validator.node_id == node_id:
                return validator
        return None

    def contains(self, node_id: str) -> bool:
        return self.by_node(node_id) is not None

    def round_robin(self, index: int) -> Validator:
        return self.validators[index % len(self.validators)]

    def weighted_choice(self, rng) -> Validator:
        """Power-weighted random validator (PoS leader lottery)."""
        target = rng.randrange(self.total_power)
        cumulative = 0
        for validator in self.validators:
            cumulative += validator.power
            if target < cumulative:
                return validator
        return self.validators[-1]

    def power_of(self, node_ids) -> int:
        ids = set(node_ids)
        return sum(v.power for v in self.validators if v.node_id in ids)


@dataclass
class ConsensusParams:
    """Engine tunables; not every engine uses every field."""

    engine: str = "poa"
    block_time: float = 1.0  # target seconds between blocks
    max_block_messages: int = 500
    finality_depth: int = 5  # PoW probabilistic finality
    timeout_propose: float = 0.5  # Tendermint phase timeouts
    timeout_vote: float = 0.5
    mir_leaders: int = 4
    extra: dict = field(default_factory=dict)


class ConsensusEngine:
    """Base class all engines implement.

    The *node* argument is the engine's window on the world; it must provide:

    - ``node_id`` (str), ``miner_address`` (Address)
    - ``head()`` → current canonical head FullBlock
    - ``assemble_block(height, parent_cid, consensus_data)`` → FullBlock
      built from the node's pools against the parent state
    - ``receive_block(block, final)`` → bool: validate + store + (if final or
      heaviest) apply; False when invalid
    - ``broadcast(kind, payload)`` → publish on the subnet's consensus topic
      (delivered back to every validator's engine via ``handle``)
    - ``is_byzantine(behaviour)`` → bool for fault-injection experiments
    """

    NAME = "base"
    SUPPORTS_FORKS = False
    INSTANT_FINALITY = True

    def __init__(self, sim, node, validators: ValidatorSet, params: ConsensusParams) -> None:
        self.sim = sim
        self.node = node
        self.validators = validators
        self.params = params
        self.running = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        self.running = True

    def stop(self) -> None:
        self.running = False

    # -- network --------------------------------------------------------
    def handle(self, kind: str, payload: Any, sender: str) -> None:
        """Process a consensus message published by *sender*."""

    # -- introspection --------------------------------------------------
    def debug_state(self) -> dict:
        """Live engine state for stall diagnosis (JSON-safe plain data).

        Engines override to expose their round/slot machinery — current
        height/round/step, locked values, vote books, expected leader —
        so a :class:`~repro.telemetry.rounds.StallDiagnoser` can name the
        missing quorum without reaching into private attributes.
        """
        return {"engine": self.NAME, "running": self.running}

    # -- helpers --------------------------------------------------------
    def _trace_round(self, kind: str, **fields) -> None:
        """Emit one round/view transition as a ``round`` observation.

        The consensus layer names only the observation kind, never a
        telemetry class; with no subscriber the emit is one attribute read
        and an empty loop, which keeps engines digest-neutral and cheap.
        """
        for observer in self.sim.observers.round:
            observer(
                self.node.subnet_id, self.node.node_id, kind,
                self.sim.now, fields,
            )

    def _observe_block_interval(self, block: FullBlock) -> None:
        hist = self.sim.metrics.histogram("consensus.block_interval", subnet=self.node.subnet_id)
        head = self.node.head()
        if head is not None and block.height == head.height + 1:
            hist.observe(block.header.timestamp - head.header.timestamp)


_ENGINES: dict[str, type] = {}


def register_engine(engine_class: type) -> type:
    """Class decorator registering an engine under its NAME."""
    _ENGINES[engine_class.NAME] = engine_class
    return engine_class


def make_engine(sim, node, validators: ValidatorSet, params: ConsensusParams) -> ConsensusEngine:
    """Instantiate the engine named by ``params.engine``."""
    engine_class = _ENGINES.get(params.engine)
    if engine_class is None:
        raise ValueError(
            f"unknown consensus engine {params.engine!r}; have {sorted(_ENGINES)}"
        )
    return engine_class(sim, node, validators, params)


def ENGINE_NAMES() -> list:
    """Names of all registered engines."""
    return sorted(_ENGINES)
