"""The benchmark's three workloads and the harness that drives them.

Each workload builds a hierarchy through the public API, funds its
senders in-protocol, generates and signs every operation from the seed
(consecutive nonces per sender), and only then starts the measured phase.
In the measured phase an open-loop generator calls
``NodeRuntime.submit_message`` at each operation's due time on the
simulated clock, so the generator is never late and every latency runs
from the due time.  Arrivals are Poisson at the stated rate.

The seed generates the inputs only: arrival times, senders, recipients,
values and entry nodes.  The simulator's own seed is fixed per workload,
so set-up (spawning and funding) is the same simulated work for every
seed.  Links keep the default 0.02 s delay with no loss.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Optional

from calibration import CalibratedClock
from repro.analysis.stats import percentile
from repro.crypto.cid import cid_cache_stats
from repro.crypto.keys import Address
from repro.hierarchy import ROOTNET, HierarchicalSystem, SubnetConfig
from repro.hierarchy.crossmsg import ApplyTopDown
from repro.hierarchy.gateway import SCA_ADDRESS
from repro.vm.message import Message, SignedMessage

#: Simulated seconds per measured slice; see calibration.CalibratedClock.
SLICE_S = 1.0
LINK_DELAY_S = 0.02
LINK_LOSS = 0.0
SENDER_FUNDS = 10**9


# ----------------------------------------------------------------------
# Operations and the open-loop generator
# ----------------------------------------------------------------------
@dataclass(eq=False)
class Op:
    """One pre-signed operation: a payment or a cross-net send."""

    due: float
    node: object  # entry node the generator submits through
    signed: SignedMessage
    chain: str  # path of the chain the signed message commits on
    dest: str  # path of the chain the value lands on
    to_raw: str
    value: int
    upward: bool = False  # cross-msg whose route has an upward hop
    committed_at: Optional[float] = None  # signed message in a canonical block
    delivered_at: Optional[float] = None  # cross-msg applied at its destination

    @property
    def is_xnet(self) -> bool:
        return self.dest != self.chain


class OpenLoop:
    """Submits pre-signed operations at their due times (open loop)."""

    def __init__(self, system, ops: list) -> None:
        self.system = system
        self.ops = sorted(ops, key=lambda op: op.due)
        self.next = 0
        self.refused = 0

    def start(self) -> None:
        if self.ops:
            self.system.sim.schedule_at(self.ops[0].due, self.fire, label="workload:submit")

    def fire(self) -> None:
        op = self.ops[self.next]
        self.next += 1
        if op.node.submit_message(op.signed):
            tracer = self.system.span_tracer
            if tracer is not None and op.is_xnet:
                # What HierarchicalSystem.cross_send tells the span plane.
                tracer.note_submit(op.chain, op.dest, op.to_raw, op.value)
        else:
            self.refused += 1
        if self.next < len(self.ops):
            self.system.sim.schedule_at(
                self.ops[self.next].due, self.fire, label="workload:submit"
            )


class CommitObserver:
    """Watches one node's canonical commits: blocks, messages, arrivals."""

    def __init__(self, node, sim, pending: dict, arrivals: dict) -> None:
        self.node = node
        self.sim = sim
        self.path = node.subnet_id
        self.pending = pending  # (chain, sender raw, nonce) -> Op
        self.arrivals = arrivals  # recipient raw -> cross-net Op
        self.reset()
        node.on_commit(self.on_commit)

    def reset(self) -> None:
        self.blocks = 0
        self.messages = 0
        self.backlog_max = 0
        self.commit_times: list = []

    def on_commit(self, block) -> None:
        now = self.sim.now
        self.blocks += 1
        self.messages += len(block.messages)
        self.commit_times.append(now)
        backlog = len(self.node.mempool)
        if backlog > self.backlog_max:
            self.backlog_max = backlog
        for signed in block.messages:
            message = signed.message
            op = self.pending.pop((self.path, message.from_addr.raw, message.nonce), None)
            if op is not None:
                op.committed_at = now
        for entry in block.cross_messages:
            batch = (entry.message,) if isinstance(entry, ApplyTopDown) else entry.messages
            for message in batch:
                if message.to_subnet.path != self.path:
                    continue  # still in transit through this subnet
                op = self.arrivals.pop(message.to_addr.raw, None)
                if op is not None:
                    op.delivered_at = now


def account(tag: str, index: int) -> Address:
    """A fresh key-style address nobody holds a key for."""
    digest = hashlib.sha256(f"perfbench:{tag}:{index}".encode("utf-8")).hexdigest()
    return Address("f1" + digest[:20])


def poisson_times(rng: random.Random, start: float, duration: float, rate: float):
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= start + duration:
            return
        yield t


def sign_op(wallet, nonces: dict, to: Address, value: int, method="send", params=None):
    nonce = nonces[wallet.address.raw]
    nonces[wallet.address.raw] = nonce + 1
    message = Message(
        from_addr=wallet.address, to_addr=to, value=value,
        method=method, params=params, nonce=nonce,
    )
    return SignedMessage.create(message, wallet.keypair)


def fund_wallets(system, subnet, names: list, funds: int) -> list:
    """Create wallets and fund them on *subnet* in-protocol."""
    wallets = [system.create_wallet(name) for name in names]
    if subnet == ROOTNET:
        for wallet in wallets:
            system.transfer(system.treasury, ROOTNET, wallet.address, funds)
        ok = system.wait_for(
            lambda: all(system.balance(subnet, w.address) >= funds for w in wallets),
            timeout=120.0,
        )
        if not ok:
            raise RuntimeError(f"funding senders on {subnet} timed out")
    else:
        system.ensure_funds(subnet, [(w.address, funds) for w in wallets])
    return wallets


# ----------------------------------------------------------------------
# One prepared run of a workload
# ----------------------------------------------------------------------
@dataclass(eq=False)
class Prepared:
    """A system built and loaded with its pre-signed operations."""

    system: HierarchicalSystem
    ops: list
    loop: OpenLoop
    observers: dict  # subnet path -> CommitObserver
    start: float  # simulated start of the measured phase
    end: float  # simulated end (load plus drain)
    crash: Optional[dict] = None  # bft-state crash/restart bookkeeping


def _observe(system, ops: list) -> dict:
    pending = {
        (op.chain, op.signed.message.from_addr.raw, op.signed.message.nonce): op
        for op in ops
    }
    arrivals = {op.to_raw: op for op in ops if op.is_xnet}
    return {
        subnet.path: CommitObserver(system.nodes(subnet)[-1], system.sim, pending, arrivals)
        for subnet in system.subnets
    }


# ----------------------------------------------------------------------
# flat-pay: E1's largest hierarchy (k=8), saturated payments
# ----------------------------------------------------------------------
@dataclass
class FlatPay:
    load_s: float = 30.0
    drain_s: float = 20.0

    name = "flat-pay"
    must_not_fail = True
    sim_seed = 108  # E1's k=8 system seed
    subnets = 8
    rate = 60.0  # payments/s per subnet; capacity is 20 msgs / 0.5 s = 40/s
    senders = 4
    recipients = 32

    def prepare(self, seed: int, out_dir: str) -> Prepared:
        system = HierarchicalSystem(
            seed=self.sim_seed, latency=LINK_DELAY_S, loss_rate=LINK_LOSS,
            root_validators=3, root_block_time=0.5, checkpoint_period=20,
        ).start()
        subnets = [
            system.spawn_subnet(
                SubnetConfig(
                    name=f"s{i}", validators=3, block_time=0.5,
                    checkpoint_period=20, max_block_messages=20,
                )
            )
            for i in range(self.subnets)
        ]
        senders = {
            subnet: fund_wallets(
                system, subnet,
                [f"fp-{subnet.path}-{i}" for i in range(self.senders)], SENDER_FUNDS,
            )
            for subnet in subnets
        }
        start = system.sim.now
        ops = []
        for subnet in subnets:
            wallets = senders[subnet]
            nonces = {w.address.raw: system.node(subnet).vm.nonce_of(w.address) for w in wallets}
            recipients = [account(f"fp{subnet.path}", i) for i in range(self.recipients)]
            nodes = system.nodes(subnet)
            rng = random.Random(f"perfbench:{self.name}:{seed}:{subnet.path}")
            # Senders take turns: a random split would let one sender's nonce
            # queue, and so the saturated backlog, differ from seed to seed.
            for count, due in enumerate(poisson_times(rng, start, self.load_s, self.rate)):
                sender = wallets[count % len(wallets)]
                to = rng.choice(recipients)
                ops.append(Op(
                    due=due, node=rng.choice(nodes), signed=sign_op(sender, nonces, to, 1),
                    chain=subnet.path, dest=subnet.path, to_raw=to.raw, value=1,
                ))
        return Prepared(
            system=system, ops=ops, loop=OpenLoop(system, ops), observers=_observe(system, ops),
            start=start, end=start + self.load_s + self.drain_s,
        )


# ----------------------------------------------------------------------
# deep-xnet: E3's topology, open-loop cross-net streams, planes on
# ----------------------------------------------------------------------
@dataclass
class DeepXnet:
    load_s: float = 80.0
    drain_s: float = 15.0

    name = "deep-xnet"
    must_not_fail = True
    sim_seed = 311  # E3's system seed
    rate = 10.0  # messages/s per stream

    def prepare(self, seed: int, out_dir: str) -> Prepared:
        system = HierarchicalSystem(
            seed=self.sim_seed, latency=LINK_DELAY_S, loss_rate=LINK_LOSS,
            root_validators=3, root_block_time=0.5, checkpoint_period=8,
        ).start()
        # Every observation plane, as in E3 and in scenario runs.
        system.enable_telemetry(health_interval=2.0, monitors=True, postmortem_dir=out_dir)
        chain = []
        parent = ROOTNET
        for depth in (1, 2, 3):
            parent = system.spawn_subnet(SubnetConfig(
                name=f"d{depth}", parent=parent, validators=3,
                block_time=0.25, checkpoint_period=8,
            ))
            chain.append(parent)
        side = system.spawn_subnet(SubnetConfig(
            name="side", validators=3, block_time=0.25, checkpoint_period=8,
        ))
        d1, d3 = chain[0], chain[-1]
        # (source, destination): two top-down streams, two with upward hops.
        streams = ((ROOTNET, d3), (ROOTNET, d1), (d3, ROOTNET), (d3, side))
        ops = []
        plans = []
        for index, (source, dest) in enumerate(streams):
            (wallet,) = fund_wallets(system, source, [f"xn-{index}"], SENDER_FUNDS)
            plans.append((index, source, dest, wallet))
        start = system.sim.now
        for index, source, dest, wallet in plans:
            nonces = {wallet.address.raw: system.node(source).vm.nonce_of(wallet.address)}
            nodes = system.nodes(source)
            rng = random.Random(f"perfbench:{self.name}:{seed}:{index}")
            for count, due in enumerate(poisson_times(rng, start, self.load_s, self.rate)):
                to = account(f"xn{index}", count)  # its own recipient per message
                value = rng.randint(1, 1000)
                signed = sign_op(
                    wallet, nonces, SCA_ADDRESS, value, method="send_crossmsg",
                    params={"to_subnet": dest.path, "to_addr": to.raw, "method": "send",
                            "params": None},
                )
                ops.append(Op(
                    due=due, node=rng.choice(nodes), signed=signed, chain=source.path,
                    dest=dest.path, to_raw=to.raw, value=value,
                    upward=not source.is_ancestor_of(dest),
                ))
        return Prepared(
            system=system, ops=ops, loop=OpenLoop(system, ops), observers=_observe(system, ops),
            start=start, end=start + self.load_s + self.drain_s,
        )


# ----------------------------------------------------------------------
# bft-state: Tendermint subnets, growing state, one crash and restart
# ----------------------------------------------------------------------
@dataclass
class BftState:
    load_s: float = 60.0
    drain_s: float = 8.0

    name = "bft-state"
    must_not_fail = False
    sim_seed = 4242
    subnets = 2
    rate = 150.0  # payments/s per subnet; capacity is 200 msgs / 0.5 s
    senders = 16
    address_space = 10**6
    crash_at = 0.3  # share of the measured phase
    down_s = 5.0

    def prepare(self, seed: int, out_dir: str) -> Prepared:
        system = HierarchicalSystem(
            seed=self.sim_seed, latency=LINK_DELAY_S, loss_rate=LINK_LOSS,
            root_validators=3, root_block_time=0.5, checkpoint_period=20,
        ).start()
        subnets = [
            system.spawn_subnet(SubnetConfig(
                name=f"t{i}", engine="tendermint", validators=4, block_time=0.5,
                checkpoint_period=20, max_block_messages=200,
            ))
            for i in range(self.subnets)
        ]
        senders = {
            subnet: fund_wallets(
                system, subnet,
                [f"bft-{subnet.path}-{i}" for i in range(self.senders)], SENDER_FUNDS,
            )
            for subnet in subnets
        }
        start = system.sim.now
        victim = system.nodes(subnets[0])[0]
        ops = []
        for subnet in subnets:
            wallets = senders[subnet]
            nonces = {w.address.raw: system.node(subnet).vm.nonce_of(w.address) for w in wallets}
            # Operations never enter through the validator that will crash.
            nodes = [n for n in system.nodes(subnet) if n is not victim]
            rng = random.Random(f"perfbench:{self.name}:{seed}:{subnet.path}")
            for due in poisson_times(rng, start, self.load_s, self.rate):
                sender = rng.choice(wallets)
                to = account("bft", rng.randrange(self.address_space))
                value = rng.randint(1, 1000)
                ops.append(Op(
                    due=due, node=rng.choice(nodes), signed=sign_op(sender, nonces, to, value),
                    chain=subnet.path, dest=subnet.path, to_raw=to.raw, value=value,
                ))
        end = start + self.load_s + self.drain_s
        crash_t = start + self.crash_at * (end - start)
        crash = {"subnet": subnets[0], "crash_t": crash_t,
                 "restart_t": crash_t + self.down_s, "recovered_t": None}
        system.sim.schedule_at(crash_t, victim.stop, label="bench:crash")
        system.sim.schedule_at(crash["restart_t"], victim.restart, label="bench:restart")
        peers = [n for n in system.nodes(subnets[0]) if n is not victim]

        def on_victim_commit(block) -> None:
            if crash["recovered_t"] is None and system.sim.now >= crash["restart_t"]:
                best = max(peer.head().height for peer in peers)
                if victim.head().height >= best - 1:
                    crash["recovered_t"] = system.sim.now

        victim.on_commit(on_victim_commit)
        return Prepared(
            system=system, ops=ops, loop=OpenLoop(system, ops), observers=_observe(system, ops),
            start=start, end=end, crash=crash,
        )


WORKLOADS = {w.name: w for w in (FlatPay(), DeepXnet(), BftState())}


# ----------------------------------------------------------------------
# Running one repeat
# ----------------------------------------------------------------------
def run_repeat(workload, seed: int, out_dir: str, reference, tracer=None) -> dict:
    """Set up, measure and check one run of *workload*; returns its record.

    CPU times are calibrated against *reference* (a
    :class:`calibration.ReferenceWork`).  With a *tracer*, it is installed
    before set-up and active only during the measured phase.
    """
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        setup_clock = CalibratedClock(reference)
        prepared = None

        def prepare() -> None:
            nonlocal prepared
            prepared = workload.prepare(seed, out_dir)

        setup_clock.measure(prepare)
        system = prepared.system
        sim = system.sim
        gc.collect()
        for observer in prepared.observers.values():
            observer.reset()
        events0 = sim.events_executed
        timeouts0 = _timeout_dispatches(sim)
        cid0 = cid_cache_stats()
        prepared.loop.start()
        if tracer is not None:
            tracer.active = True
        clock = CalibratedClock(reference)
        horizon = prepared.start
        while horizon < prepared.end:
            horizon = min(horizon + SLICE_S, prepared.end)
            clock.measure(lambda: system.run_until(horizon))
        if tracer is not None:
            tracer.active = False
        cid1 = cid_cache_stats()
        record = {
            "setup_s": setup_clock.normalised_s,
            "setup_raw_s": setup_clock.raw_s,
            "measure_cpu_s": clock.normalised_s,
            "measure_raw_s": clock.raw_s,
            "sim_s": prepared.end - prepared.start,
            "events": sim.events_executed - events0,
            "timeouts": _timeout_dispatches(sim) - timeouts0,
            "cid_hits": cid1["hits"] - cid0["hits"],
            "cid_misses": cid1["misses"] - cid0["misses"],
        }
        record.update(_outcome(workload, prepared))
        system.stop()
        return record
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()


def _timeout_dispatches(sim) -> int:
    return sum(n for label, n in sim.dispatch.counts.items() if label.startswith("tm:timeout:"))


def _outcome(workload, prepared: Prepared) -> dict:
    """Protocol outputs and correctness checks of a finished run."""
    system = prepared.system
    ops = prepared.ops
    observers = prepared.observers.values()
    problems = []
    commit_lat = [op.committed_at - op.due for op in ops if op.committed_at is not None]
    xnet = [op for op in ops if op.is_xnet]
    done = [op for op in ops if (op.delivered_at if op.is_xnet else op.committed_at) is not None]
    topdown = [op.delivered_at - op.due for op in xnet
               if op.delivered_at is not None and not op.upward]
    bottomup = [op.delivered_at - op.due for op in xnet
                if op.delivered_at is not None and op.upward]

    # Every value must land where it was sent: recipients start empty.
    expected: dict = {}
    for op in done:
        key = (op.dest, op.to_raw)
        expected[key] = expected.get(key, 0) + op.value
    subnets = {subnet.path: subnet for subnet in system.subnets}
    wrong = sum(
        1 for (dest, raw), value in expected.items()
        if system.balance(subnets[dest], Address(raw)) != value
    )
    if wrong:
        problems.append(f"{wrong} recipients hold a balance other than the value sent")

    attempted = len(ops)
    failed = attempted - len(done)
    record = {
        "attempted": attempted,
        "failed": failed,
        "refused": prepared.loop.refused,
        "committed_ops": len(done),
        "blocks": sum(o.blocks for o in observers),
        "messages": sum(o.messages for o in observers),
        "backlog_max": max(o.backlog_max for o in observers),
        "commit_p50_s": percentile(commit_lat, 50),
        "commit_p99_s": percentile(commit_lat, 99),
        "commit_samples": len(commit_lat),
        "digest": system.end_state_digest(),
    }
    if xnet:
        record.update({
            "xnet_topdown_p50_s": percentile(topdown, 50),
            "xnet_topdown_p99_s": percentile(topdown, 99),
            "xnet_bottomup_p50_s": percentile(bottomup, 50),
            "xnet_bottomup_p99_s": percentile(bottomup, 99),
            "xnet_samples": len(xnet),
        })
    monitor = system.invariant_monitor
    if monitor is not None:
        if monitor.violations:
            problems.append(f"{len(monitor.violations)} invariant-monitor violations")
    if prepared.crash is not None:
        record.update(_crash_outcome(prepared))
        if math.isnan(record["recovery_s"]):
            problems.append("the restarted validator never caught up")
    if workload.must_not_fail and failed:
        problems.append(f"{failed} of {attempted} operations failed")
    record["problems"] = problems
    return record


def _crash_outcome(prepared: Prepared) -> dict:
    crash = prepared.crash
    times = prepared.observers[crash["subnet"].path].commit_times
    crash_t, restart_t = crash["crash_t"], crash["restart_t"]
    gap = max(
        (b - a for a, b in zip(times, times[1:]) if b > crash_t and a < restart_t),
        default=float("nan"),
    )
    recovered = crash["recovered_t"]
    return {
        "service_gap_s": gap,
        "recovery_s": recovered - restart_t if recovered is not None else float("nan"),
    }
