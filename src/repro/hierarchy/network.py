"""`HierarchicalSystem` — the public orchestration API.

Builds Fig. 1's picture end to end: a rootnet, subnets spawned from any
point in the hierarchy through in-protocol SA deployment and staking,
validator nodes running per-subnet consensus engines over simulated
gossipsub, checkpoint anchoring, cross-net transfers, content resolution
and atomic executions — all on one deterministic simulator.

All networking is composed through :class:`repro.runtime.NetworkStack`
(simulator + topology + transport + gossip) and every validator is a
:class:`repro.runtime.ValidatorCluster` of
:class:`~repro.hierarchy.node.SubnetNode` runtimes — this module only
orchestrates; it owns no delivery or block-production loop of its own.

Typical use (see ``examples/quickstart.py``)::

    system = HierarchicalSystem(seed=42)
    system.start()
    alice = system.create_wallet("alice", fund=100_000)
    sub = system.spawn_subnet(SubnetConfig(name="fast", engine="tendermint"))
    system.fund_subnet(alice, sub, alice.address, 50_000)
    system.run_for(30)
    assert system.balance(sub, alice.address) == 50_000
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto.keys import Address, KeyPair
from repro.crypto.threshold import ThresholdScheme
from repro.consensus.base import ConsensusParams
from repro.hierarchy.checkpointing import CheckpointConfig
from repro.hierarchy.gateway import SCA_ADDRESS
from repro.hierarchy.genesis import hierarchy_registry, subnet_genesis
from repro.hierarchy.node import SubnetNode
from repro.hierarchy.subnet_actor import SignaturePolicy, register_threshold_scheme
from repro.hierarchy.subnet_id import ROOTNET, SubnetID
from repro.hierarchy.wallet import Wallet
from repro.net.gossip import GossipParams
from repro.runtime import NetworkStack, ValidatorCluster, cluster_members
from repro.vm.builtin.init_actor import INIT_ACTOR_ADDRESS, derive_actor_address

TREASURY_FUNDS = 10**15


class SpawnError(RuntimeError):
    """Raised when a subnet fails to spawn within its deadline."""


@dataclass
class SubnetConfig:
    """Everything needed to spawn one subnet (§III-A).

    ``parent`` defaults to the rootnet.  ``policy`` governs checkpoint
    signatures; ``stake_per_validator × validators`` must reach both the
    SA's ``activation_collateral`` and the parent SCA's ``minCollateral``.
    """

    name: str = "subnet"
    parent: SubnetID = field(default_factory=lambda: ROOTNET)
    validators: int = 4
    engine: str = "poa"
    block_time: float = 0.5
    checkpoint_period: int = 10
    policy: SignaturePolicy = field(default_factory=lambda: SignaturePolicy("multisig", 2))
    stake_per_validator: int = 100
    activation_collateral: int = 100
    min_validators: int = 1
    finality_depth: int = 5
    byzantine: dict = field(default_factory=dict)  # node index -> {behaviours}
    cache_pushes: bool = True
    push_drop_probability: float = 0.0
    mir_leaders: int = 4
    max_block_messages: int = 500
    gas_price: int = 0  # >0 makes every message pay fees to its block miner (§II)
    accelerate: bool = False  # issue/accept pending-payment certificates (§IV-A)


class HierarchicalSystem:
    """A full hierarchical-consensus deployment on one simulator."""

    def __init__(
        self,
        seed: int = 1,
        latency: float = 0.02,
        loss_rate: float = 0.0,
        root_validators: int = 4,
        root_engine: str = "poa",
        root_block_time: float = 1.0,
        checkpoint_period: int = 10,
        min_collateral: int = 100,
        wallet_funds: Optional[dict] = None,
        gossip_params: Optional[GossipParams] = None,
        accelerate_root: bool = False,
    ) -> None:
        self.stack = NetworkStack(
            seed=seed, latency=latency, loss_rate=loss_rate, gossip_params=gossip_params
        )
        self.sim = self.stack.sim
        self.gossip = self.stack.gossip
        self.registry = hierarchy_registry()
        self.checkpoint_period = checkpoint_period
        self.min_collateral = min_collateral

        self.wallets: dict[str, Wallet] = {}
        self.treasury = self._make_wallet("treasury")
        genesis_allocations = {self.treasury.address: TREASURY_FUNDS}
        for name, funds in (wallet_funds or {}).items():
            wallet = self._make_wallet(name)
            genesis_allocations[wallet.address] = funds

        self.clusters: dict[SubnetID, ValidatorCluster] = {}
        self.nodes_by_subnet: dict[SubnetID, list] = {}  # kept in sync with clusters
        self.configs: dict[SubnetID, SubnetConfig] = {}
        self._accelerate_root = accelerate_root
        self._spawn_root(
            root_validators, root_engine, root_block_time, genesis_allocations
        )
        self._started = False
        self.span_tracer = None
        self.health_probe = None
        self.invariant_monitor = None
        self.flight_recorder = None
        self.profiler = None
        self.round_tracer = None
        self.stall_diagnoser = None
        self.last_timeout: Optional[dict] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_wallet(self, name: str) -> Wallet:
        if name in self.wallets:
            raise ValueError(f"wallet {name!r} exists")
        wallet = Wallet(KeyPair(("wallet", name)))
        self.wallets[name] = wallet
        return wallet

    def _register_cluster(self, subnet: SubnetID, cluster: ValidatorCluster) -> None:
        self.clusters[subnet] = cluster
        self.nodes_by_subnet[subnet] = cluster.nodes

    def _spawn_root(self, n_validators, engine, block_time, allocations) -> None:
        keys = [KeyPair(("validator", "/root", i)) for i in range(n_validators)]
        genesis_block, genesis_vm = subnet_genesis(
            ROOTNET,
            checkpoint_period=self.checkpoint_period,
            min_collateral=self.min_collateral,
            allocations=allocations,
            registry=self.registry,
        )
        params = ConsensusParams(engine=engine, block_time=block_time)

        def root_node(index, member, validators):
            return SubnetNode(
                sim=self.sim,
                node_id=member.node_id,
                keypair=member.keypair,
                subnet=ROOTNET,
                genesis_block=genesis_block,
                genesis_vm=genesis_vm,
                gossip=self.gossip,
                validators=validators,
                consensus_params=params,
                checkpoint_period=self.checkpoint_period,
                parent_node=None,
                accelerate=self._accelerate_root,
            )

        cluster = ValidatorCluster.build(
            cluster_members(keys, id_prefix=ROOTNET.path),
            subnet_id=ROOTNET.path,
            genesis_block=genesis_block,
            genesis_vm=genesis_vm,
            consensus_params=params,
            stack=self.stack,
            node_factory=root_node,
        )
        self._register_cluster(ROOTNET, cluster)
        self.configs[ROOTNET] = SubnetConfig(
            name="root", validators=n_validators, engine=engine, block_time=block_time,
            checkpoint_period=self.checkpoint_period,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "HierarchicalSystem":
        if not self._started:
            self.clusters[ROOTNET].start()
            self._started = True
        return self

    def run_for(self, seconds: float) -> "HierarchicalSystem":
        self.stack.run_for(seconds)
        return self

    def run_until(self, time: float) -> "HierarchicalSystem":
        self.stack.run_until(time)
        return self

    def wait_for(
        self,
        predicate: Callable[[], bool],
        timeout: float = 120.0,
        step: float = 0.25,
        label: Optional[str] = None,
    ) -> bool:
        """Advance simulated time until *predicate* holds; False on timeout.

        A timeout self-diagnoses: the predicate *label*, the sim time and a
        per-subnet health snapshot land on :attr:`last_timeout`, and — when
        monitors are enabled — the flight recorder dumps a postmortem
        bundle tagged ``wait-timeout:<label>``, so a stalled campaign or
        spawn leaves evidence instead of a bare ``False``.
        """
        ok = self.stack.wait_for(predicate, timeout=timeout, step=step)
        if not ok:
            self._note_wait_timeout(
                label or getattr(predicate, "__name__", None) or "<predicate>",
                timeout,
            )
        return ok

    def stop(self) -> None:
        for cluster in self.clusters.values():
            cluster.stop()
        self.stack.shutdown()

    # ------------------------------------------------------------------
    # Telemetry (opt-in; digest-neutral — see DESIGN.md § Observability)
    # ------------------------------------------------------------------
    def enable_telemetry(
        self,
        health_interval: Optional[float] = None,
        monitors: bool = False,
        postmortem_dir: Optional[str] = None,
        profile: bool = False,
        profile_interval: float = 0.01,
        profile_memory: bool = False,
    ):
        """Install causal span tracing (and, optionally, health sampling
        and live invariant monitors).

        ``monitors=True`` additionally installs the
        :class:`~repro.telemetry.monitor.InvariantMonitor` (all five
        default auditors) and a
        :class:`~repro.telemetry.recorder.FlightRecorder` that dumps a
        postmortem bundle into *postmortem_dir* (or ``$REPRO_POSTMORTEM_DIR``)
        on every violation.  ``profile=True`` starts a
        :class:`~repro.telemetry.profiler.SamplingProfiler` on ``self.profiler``
        — background-thread CPU sampling every *profile_interval* wall
        seconds, attributed to dispatch labels, plus ``mem.*`` resource
        gauges; ``profile_memory=True`` adds per-label tracemalloc
        allocation accounting (noticeably more overhead — keep it off for
        perf-gated runs).  Stop/export via ``self.profiler`` (benchmarks do
        this in ``write_bench_json``).  All of it is digest-neutral.

        Imported lazily so the hierarchy layer carries no telemetry
        dependency unless a run asks for it.  Idempotent; returns the
        :class:`~repro.telemetry.spans.SpanTracer`.
        """
        if self.span_tracer is None:
            from repro.telemetry import SpanTracer

            self.span_tracer = SpanTracer(self.sim).install()
        if self.round_tracer is None:
            from repro.telemetry import RoundTracer, StallDiagnoser

            self.round_tracer = RoundTracer(self.sim).install()
            self.stall_diagnoser = StallDiagnoser(self)
        if health_interval is not None and self.health_probe is None:
            from repro.telemetry import HealthProbe

            self.health_probe = HealthProbe(self, interval=health_interval).start()
        if monitors and self.invariant_monitor is None:
            from repro.telemetry import FlightRecorder, InvariantMonitor

            self.flight_recorder = FlightRecorder(
                self.sim, system=self, out_dir=postmortem_dir
            ).install()
            self.invariant_monitor = InvariantMonitor(
                self, recorder=self.flight_recorder
            ).install()
        if profile and self.profiler is None:
            from repro.telemetry import SamplingProfiler

            self.profiler = SamplingProfiler(
                self.sim, interval=profile_interval, memory=profile_memory
            ).start()
        return self.span_tracer

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def node(self, subnet) -> SubnetNode:
        """A representative (first) node of *subnet*."""
        return self.nodes_by_subnet[SubnetID(subnet)][0]

    def nodes(self, subnet) -> list:
        return list(self.nodes_by_subnet[SubnetID(subnet)])

    @property
    def subnets(self) -> list:
        return sorted(self.nodes_by_subnet)

    def balance(self, subnet, addr: Address) -> int:
        return self.node(subnet).vm.balance_of(addr)

    def end_state_digest(self) -> str:
        """Canonical digest of the system's *semantic* end state.

        This is the fingerprint the tie-shuffle race detector compares
        across shuffle seeds: for a quiescent run, it must be invariant
        under any legal permutation of same-timestamp events.

        It deliberately digests the **value level** — account balances,
        minted/burned supply, and the SCA's per-child value accounting
        (circulating/injected/released/collateral/slashed/status) — and
        NOT chain or checkpoint CIDs.  Block and checkpoint identities
        legitimately commit to the schedule (a subnet's genesis timestamp
        is the sim time its registration landed; a cross-msg's inclusion
        height shifts by a block under a permuted tie order), exactly as
        two honest schedules of a real chain produce different but equally
        valid block histories.  The paper's §II/§IV guarantees — value
        conservation and the firewall bound — live at the value level,
        so that is what must not depend on tie order.
        """
        hasher = hashlib.sha256()
        for subnet in self.subnets:
            node = self.node(subnet)
            vm = node.vm
            hasher.update(
                (
                    f"{SubnetID(subnet).path}"
                    f"|minted={vm.total_minted}|burned={vm.total_burned}\n"
                ).encode("utf-8")
            )
            for key, value in vm.state.items("balance/"):
                hasher.update(f"  {key}={value}\n".encode("utf-8"))
            for key, record in vm.state.items(f"actor/{SCA_ADDRESS.raw}/child/"):
                hasher.update(
                    (
                        f"  {key}|circ={record['circulating']}"
                        f"|inj={record['injected_total']}"
                        f"|rel={record['released_total']}"
                        f"|coll={record['collateral']}"
                        f"|slash={record['slashed_total']}"
                        f"|status={record['status']}\n"
                    ).encode("utf-8")
                )
        return hasher.hexdigest()

    def health_snapshot(self) -> dict:
        """Per-subnet vitals read directly off the nodes (no probe needed).

        The one reader of subnet vitals: the
        :class:`~repro.telemetry.health.HealthProbe` records it and
        ``wait_for`` timeouts attach it.  ``height`` is the subnet's best
        head across its validators and ``min_height`` the worst — the
        spread exposes a partitioned or crashed laggard at a glance.
        """
        snapshot: dict[str, dict] = {}
        for subnet in self.subnets:
            nodes = self.nodes_by_subnet[subnet]
            node = nodes[0]
            crosspool = getattr(node, "crosspool", None)
            pending = 0
            if crosspool is not None:
                pending = crosspool.pending_topdown + crosspool.pending_bottomup
            heights = [n.head().height for n in nodes]
            snapshot[subnet.path] = {
                "height": max(heights),
                "min_height": min(heights),
                "mempool": len(node.mempool),
                "pending_crossmsgs": pending,
                "checkpoint_lag": self._checkpoint_lag(node),
            }
        return snapshot

    def _checkpoint_lag(self, node) -> Optional[int]:
        """Windows sealed locally beyond what the parent's SA recorded."""
        parent = getattr(node, "parent_node", None)
        service = getattr(node, "checkpoints", None)
        if parent is None or service is None:
            return None  # the rootnet anchors to nothing
        sealed = node.vm.state.get(f"actor/{SCA_ADDRESS.raw}/last_window_sealed", -1)
        committed = parent.vm.state.get(
            f"actor/{service.config.sa_addr}/last_ckpt_window", -1
        )
        return max(sealed - committed, 0)

    def _note_wait_timeout(self, label: str, timeout: float) -> dict:
        diagnosis = {
            "label": label,
            "timeout": timeout,
            "time": self.sim.now,
            "health": self.health_snapshot(),
        }
        if self.stall_diagnoser is not None:
            # A stall report per subnet: the timed-out predicate does not
            # say which subnet it was watching, and a fully stalled subnet
            # is indistinguishable from a healthy one in a single health
            # sample — so snapshot them all (a bounded pure read).
            diagnosis["stall_reports"] = [
                self.stall_diagnoser.diagnose(path)
                for path in sorted(diagnosis["health"])
            ]
        self.last_timeout = diagnosis
        if self.flight_recorder is not None:
            self.flight_recorder.dump(
                reason=f"wait-timeout:{label}",
                stall_reports=diagnosis.get("stall_reports"),
            )
        return diagnosis

    def timeout_detail(self) -> str:
        """Render :attr:`last_timeout` for exception messages and logs."""
        diagnosis = self.last_timeout
        if diagnosis is None:
            return ""
        lines = [
            f" (predicate {diagnosis['label']!r} still false after "
            f"{diagnosis['timeout']:g}s at t={diagnosis['time']:.2f})"
        ]
        for path in sorted(diagnosis["health"]):
            health = diagnosis["health"][path]
            lines.append(
                f"  {path}: height={health['height']}"
                f" min_height={health['min_height']}"
                f" mempool={health['mempool']}"
                f" pending_crossmsgs={health['pending_crossmsgs']}"
                f" checkpoint_lag={health['checkpoint_lag']}"
            )
        if diagnosis.get("stall_reports"):
            from repro.telemetry.rounds import render_quorum

            for report in diagnosis["stall_reports"]:
                quorum = render_quorum(report.get("quorum") or {}, "    ")
                if quorum:
                    lines.append(f"  {report['subnet']}:")
                    lines.extend(quorum)
        if self.flight_recorder is not None and self.flight_recorder.paths:
            lines.append(f"  postmortem: {self.flight_recorder.paths[-1]}")
        return "\n".join(lines)

    def sca_state(self, subnet, key: str, default=None):
        return self.node(subnet).vm.state.get(
            f"actor/{SCA_ADDRESS.raw}/{key}", default
        )

    def child_record(self, parent, child) -> Optional[dict]:
        return self.sca_state(parent, f"child/{SubnetID(child).path}")

    def sa_address(self, subnet) -> Address:
        return derive_actor_address("subnet-actor", SubnetID(subnet).path)

    def validator_wallets(self, subnet) -> list:
        subnet = SubnetID(subnet)
        config = self.configs[subnet]
        return [
            self.wallets[f"{subnet.path}-val{i}"] for i in range(config.validators)
        ]

    # ------------------------------------------------------------------
    # Wallets and funds
    # ------------------------------------------------------------------
    def create_wallet(self, name: str, fund: int = 0) -> Wallet:
        """Create a wallet; optionally fund it on the rootnet from treasury."""
        wallet = self._make_wallet(name)
        if fund:
            self.transfer(self.treasury, ROOTNET, wallet.address, fund)
            self.wait_for(
                lambda: self.balance(ROOTNET, wallet.address) >= fund,
                label=f"wallet-funded:{name}",
            )
        return wallet

    def transfer(self, wallet: Wallet, subnet, to: Address, value: int):
        """An ordinary intra-subnet payment."""
        return wallet.send(self.node(subnet), to, value=value)

    def fund_subnet(self, wallet: Wallet, child, to: Address, value: int):
        """Inject *value* from the child's parent chain into the child (§II)."""
        child = SubnetID(child)
        signed = wallet.send(
            self.node(child.parent()),
            SCA_ADDRESS,
            method="fund",
            params={"subnet_path": child.path, "to_addr": to.raw},
            value=value,
        )
        if self.span_tracer is not None and signed is not None:
            self.span_tracer.note_submit(
                child.parent().path, child.path, to.raw, value
            )
        return signed

    def cross_send(
        self,
        wallet: Wallet,
        from_subnet,
        to_subnet,
        to: Address,
        value: int,
        method: str = "send",
        params=None,
    ):
        """Send a general cross-net message from *from_subnet* (§IV-A)."""
        signed = wallet.send(
            self.node(from_subnet),
            SCA_ADDRESS,
            method="send_crossmsg",
            params={
                "to_subnet": SubnetID(to_subnet).path,
                "to_addr": to.raw,
                "method": method,
                "params": params,
            },
            value=value,
        )
        if self.span_tracer is not None and signed is not None:
            self.span_tracer.note_submit(
                SubnetID(from_subnet).path, SubnetID(to_subnet).path, to.raw, value
            )
        return signed

    # ------------------------------------------------------------------
    # Spawning subnets (§III-A)
    # ------------------------------------------------------------------
    def spawn_subnet(self, config: SubnetConfig, timeout: float = 240.0) -> SubnetID:
        """Spawn a subnet through the full in-protocol flow.

        1. fund the prospective validators' wallets on the parent chain;
        2. deploy the Subnet Actor via the parent's init actor;
        3. validators join with stake until the SA registers with the SCA;
        4. once the parent SCA marks the child *active*, instantiate the
           child chain (genesis + SCA), its validator nodes, consensus
           engine, checkpoint service and cross-msg machinery.

        Advances simulated time as needed; raises :class:`SpawnError` on
        timeout.
        """
        if not self._started:
            raise SpawnError("call start() before spawning subnets")
        parent = SubnetID(config.parent)
        if parent not in self.nodes_by_subnet:
            raise SpawnError(f"parent subnet {parent} does not exist")
        subnet = parent.child(config.name)
        if subnet in self.nodes_by_subnet:
            raise SpawnError(f"{subnet} already exists")

        validator_wallets = [
            self._make_wallet(f"{subnet.path}-val{i}") for i in range(config.validators)
        ]
        self._fund_on_subnet(
            parent,
            [(w.address, config.stake_per_validator * 2) for w in validator_wallets],
            timeout,
        )

        # Deploy the SA through consensus.
        sa_addr = self.sa_address(subnet)
        deployer = validator_wallets[0]
        deployer.send(
            self.node(parent),
            INIT_ACTOR_ADDRESS,
            method="deploy",
            params={
                "code": "subnet-actor",
                "label": subnet.path,
                "params": {
                    "subnet_path": subnet.path,
                    "consensus": config.engine,
                    "checkpoint_period": config.checkpoint_period,
                    "activation_collateral": config.activation_collateral,
                    "policy": config.policy,
                    "min_validators": config.min_validators,
                },
            },
        )
        if not self.wait_for(
            lambda: self.node(parent).vm.actor_code(sa_addr) == "subnet-actor",
            timeout=timeout,
            label=f"sa-deployed:{subnet.path}",
        ):
            raise SpawnError(
                f"SA deployment for {subnet} timed out{self.timeout_detail()}"
            )

        # Validators stake; the SA registers with the SCA at activation.
        for wallet in validator_wallets:
            wallet.send(
                self.node(parent), sa_addr, method="join",
                value=config.stake_per_validator,
            )
        if not self.wait_for(
            lambda: (self.child_record(parent, subnet) or {}).get("status") == "active",
            timeout=timeout,
            label=f"sa-active:{subnet.path}",
        ):
            raise SpawnError(
                f"{subnet} never became active in the parent SCA"
                f"{self.timeout_detail()}"
            )

        self._instantiate_subnet(subnet, config, validator_wallets, sa_addr)
        return subnet

    def _fund_on_subnet(self, subnet: SubnetID, grants: list, timeout: float) -> None:
        """Ensure each (address, amount) holds on *subnet*'s chain,
        injecting from the treasury through the hierarchy as needed."""
        needed = [
            (addr, amount)
            for addr, amount in grants
            if self.balance(subnet, addr) < amount
        ]
        if not needed:
            return
        if subnet.is_root:
            for addr, amount in needed:
                self.transfer(self.treasury, ROOTNET, addr, amount)
        else:
            # fund() executes on the subnet's parent chain, so the treasury
            # must hold funds there first — provision recursively down the
            # hierarchy (each hop is itself a top-down injection).
            total = sum(amount for _, amount in needed)
            self._ensure_treasury_funds(subnet.parent(), total, timeout)
            for addr, amount in needed:
                self.fund_subnet(self.treasury, subnet, addr, amount)
        ok = self.wait_for(
            lambda: all(self.balance(subnet, addr) >= amount for addr, amount in needed),
            timeout=timeout,
            label=f"validators-funded:{subnet.path}",
        )
        if not ok:
            raise SpawnError(
                f"funding validators on {subnet} timed out{self.timeout_detail()}"
            )

    def ensure_funds(self, subnet, grants, timeout: float = 240.0) -> None:
        """Ensure each ``(address, amount)`` balance holds on *subnet*.

        Public wrapper over the spawn-path funding helper — workload and
        scenario drivers stage their senders through it instead of poking
        node VMs (funds always flow in-protocol).
        """
        self._fund_on_subnet(SubnetID(subnet), list(grants), timeout)

    def provision_treasury(self, subnet, amount: int, timeout: float = 240.0) -> None:
        """Public helper: ensure the treasury can spend *amount* on *subnet*.

        Workload drivers at depth > 1 use this to stage funds hop by hop.
        """
        self._ensure_treasury_funds(SubnetID(subnet), amount, timeout)

    def _ensure_treasury_funds(self, subnet: SubnetID, amount: int, timeout: float) -> None:
        """Make sure the treasury holds ≥ *amount* on *subnet*'s chain."""
        if subnet.is_root:
            return  # funded at genesis
        if self.balance(subnet, self.treasury.address) >= amount:
            return
        top_up = max(amount * 4, 1_000_000)
        # The parent needs twice the top-up: it is about to spend top_up on
        # this injection and must keep headroom for its own later traffic.
        self._ensure_treasury_funds(subnet.parent(), top_up * 2, timeout)
        self.fund_subnet(self.treasury, subnet, self.treasury.address, top_up)
        ok = self.wait_for(
            lambda: self.balance(subnet, self.treasury.address) >= amount,
            timeout=timeout,
            label=f"treasury-funded:{subnet.path}",
        )
        if not ok:
            raise SpawnError(
                f"provisioning treasury on {subnet} timed out{self.timeout_detail()}"
            )

    def _instantiate_subnet(
        self, subnet: SubnetID, config: SubnetConfig, validator_wallets, sa_addr
    ) -> None:
        parent = subnet.parent()
        # Nodes sign blocks and checkpoints with the same keypairs that
        # staked via the SA — the SA's signature policy validates against
        # the addresses in its validator set.
        keys = [wallet.keypair for wallet in validator_wallets]
        # Stake-weighted engines (pos, pow) read each validator's power from
        # the stake recorded in the SA; equal-vote engines ignore power.
        sa_validators = self.node(parent).vm.state.get(
            f"actor/{sa_addr.raw}/validators", {}
        )
        powers = [
            max(1, sa_validators.get(wallet.address.raw, config.stake_per_validator))
            for wallet in validator_wallets
        ]
        genesis_block, genesis_vm = subnet_genesis(
            subnet,
            checkpoint_period=config.checkpoint_period,
            min_collateral=self.min_collateral,
            registry=self.registry,
            timestamp=self.sim.now,
            gas_price=config.gas_price,
        )
        params = ConsensusParams(
            engine=config.engine,
            block_time=config.block_time,
            finality_depth=config.finality_depth,
            mir_leaders=config.mir_leaders,
            max_block_messages=config.max_block_messages,
        )
        if config.policy.kind == "threshold":
            register_threshold_scheme(
                ThresholdScheme(
                    f"tss:{subnet.path}",
                    threshold=config.policy.threshold,
                    participants=config.validators,
                    seed=self.sim.seeds.seed_for("tss", subnet.path),
                )
            )
        parent_nodes = self.nodes_by_subnet[parent]

        def subnet_node(i, member, validators):
            # The checkpoint-submission wallet is the validator wallet that
            # staked on the parent; its keypair must match the node keypair
            # for signature policies, so nodes use the wallet keypairs.
            checkpoint_config = CheckpointConfig(
                period=config.checkpoint_period,
                policy=config.policy,
                sa_addr=sa_addr.raw,
                validator_index=i,
                validator_count=config.validators,
                threshold_share_index=i + 1,
            )
            return SubnetNode(
                sim=self.sim,
                node_id=member.node_id,
                keypair=member.keypair,
                subnet=subnet,
                genesis_block=genesis_block,
                genesis_vm=genesis_vm,
                gossip=self.gossip,
                validators=validators,
                consensus_params=params,
                checkpoint_period=config.checkpoint_period,
                parent_node=parent_nodes[i % len(parent_nodes)],
                checkpoint_config=checkpoint_config,
                byzantine=config.byzantine.get(i),
                cache_pushes=config.cache_pushes,
                push_drop_probability=config.push_drop_probability,
                accelerate=config.accelerate,
            )

        cluster = ValidatorCluster.build(
            cluster_members(keys, id_prefix=subnet.path, powers=powers),
            subnet_id=subnet.path,
            genesis_block=genesis_block,
            genesis_vm=genesis_vm,
            consensus_params=params,
            stack=self.stack,
            node_factory=subnet_node,
        )
        self._register_cluster(subnet, cluster)
        self.configs[subnet] = config
        cluster.start()
        self.sim.trace.emit("subnet.spawned", subnet.path, f"n={config.validators}",
                            config.engine)
