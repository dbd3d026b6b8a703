"""Point-to-point message transport over the simulator."""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

from repro.sim.scheduler import Simulator
from repro.net.topology import Topology


class NetMessage(NamedTuple):
    """A delivered network message (a tuple: one is built per scheduled send)."""

    src: str
    dst: str
    kind: str
    payload: Any
    sent_at: float
    msg_id: int = 0


class Transport:
    """Delivers messages between registered peers with simulated latency.

    Each peer registers a single handler ``handler(NetMessage)``.  Message
    delivery respects the topology's latency model, loss rate and active
    partitions.  Loss and partition checks happen at *send* time — a message
    in flight when a partition lands still arrives, matching how real
    networks behave at these time scales.
    """

    def __init__(self, sim: Simulator, topology: Optional[Topology] = None) -> None:
        self.sim = sim
        self.topology = topology or Topology()
        self._handlers: dict[str, Callable[[NetMessage], None]] = {}
        self._next_msg_id = 0
        self._rng = sim.rng("net", "transport")
        # Hot-path metric handles, resolved once (send/deliver run for
        # every simulated packet).
        self._sent = sim.metrics.counter("net.sent")
        self._delivered = sim.metrics.counter("net.delivered")
        self._elided = sim.metrics.counter("net.elided")
        self._latency = sim.metrics.histogram("net.latency")
        self._labels: dict[str, str] = {}
        # Endpoint id -> physical link id ("rpc:" namespace stripped).
        self._link_ids: dict[str, str] = {}

    def register(self, peer_id: str, handler: Callable[[NetMessage], None]) -> None:
        """Attach *handler* for messages addressed to *peer_id*."""
        if peer_id in self._handlers:
            raise ValueError(f"peer {peer_id} already registered")
        self._handlers[peer_id] = handler

    def unregister(self, peer_id: str) -> None:
        self._handlers.pop(peer_id, None)

    def is_registered(self, peer_id: str) -> bool:
        return peer_id in self._handlers

    @property
    def peers(self) -> list[str]:
        return sorted(self._handlers)

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any,
        redundant_before: Optional[float] = None,
    ) -> bool:
        """Send a message; returns False if dropped (loss/partition/unknown).

        Delivery happens asynchronously through the simulator queue after a
        sampled latency.

        *redundant_before* is the caller's proof that delivery would be a
        no-op: an absolute simulated time before which *dst* discards this
        payload unread (gossip passes it for copies the receiver has already
        seen).  A copy that would land before that time takes every
        send-time step — partition check, loss and latency draws, message
        id, ``net.sent`` — and is then counted as ``net.elided`` instead of
        being scheduled.  Every RNG stream and every other event therefore
        stays exactly where it was.
        """
        if dst not in self._handlers:
            return False
        # Endpoint namespaces (rpc:<peer>) share the peer's physical link:
        # partitions, loss and latency overrides keyed by the bare peer id
        # must apply to its RPC traffic too.
        link_ids = self._link_ids
        link_src = link_ids.get(src)
        if link_src is None:
            link_src = link_ids[src] = src[4:] if src.startswith("rpc:") else src
        link_dst = link_ids.get(dst)
        if link_dst is None:
            link_dst = link_ids[dst] = dst[4:] if dst.startswith("rpc:") else dst
        topology = self.topology
        if topology.partitioned and not topology.can_communicate(link_src, link_dst):
            self.sim.metrics.counter("net.partitioned_drops").inc()
            return False
        # is_lost draws nothing on a loss-free, undegraded network, so
        # skipping the call there leaves the RNG stream untouched.
        if (topology.loss_rate > 0 or topology.degraded) and topology.is_lost(
            link_src, link_dst, self._rng
        ):
            self.sim.metrics.counter("net.lost").inc()
            return False
        latency = topology.sample_latency(link_src, link_dst, self._rng)
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        self._sent.inc()
        if redundant_before is not None and self.sim.now + latency < redundant_before:
            self._elided.inc()
            return True
        label = self._labels.get(kind)
        if label is None:
            label = self._labels[kind] = f"net:{kind}"
        message = NetMessage(src, dst, kind, payload, self.sim.now, msg_id)
        self.sim.schedule(latency, self._deliver, message, label=label)
        return True

    def _deliver(self, message: NetMessage) -> None:
        handler = self._handlers.get(message.dst)
        if handler is None:
            return  # peer left between send and delivery
        self._delivered.inc()
        self._latency.observe(self.sim.now - message.sent_at)
        handler(message)

    # ------------------------------------------------------------------
    # Fault-injection conveniences (deterministic ordering throughout)
    # ------------------------------------------------------------------
    @staticmethod
    def _peer_group(spec) -> frozenset:
        if isinstance(spec, str):
            return frozenset((spec,))
        return frozenset(spec)

    def partition(self, *groups) -> int:
        """Split the network into *groups* of peer ids; returns a handle.

        Each group is a peer id or an iterable of peer ids.  A single
        group isolates it from everyone else; multiple groups may only
        talk within their own group (unlisted peers form one implicit
        remainder group).  Groups are normalized and sorted before
        installation, so call-site ordering never affects the schedule.
        """
        if not groups:
            raise ValueError("partition needs at least one group")
        return self.topology.partition_groups(
            tuple(self._peer_group(group) for group in groups)
        )

    def heal(self, handle: Optional[int] = None) -> None:
        """Heal one partition (*handle*) — or, with no argument, restore a
        pristine network: every partition healed, every link override
        cleared."""
        if handle is not None:
            self.topology.heal(handle)
            return
        self.topology.heal_all()
        self.topology.clear_links()

    def set_link(
        self,
        a,
        b,
        loss: Optional[float] = None,
        extra_latency: Optional[float] = None,
    ) -> None:
        """Degrade every link between peer groups *a* and *b* (symmetric).

        *a*/*b* are peer ids or iterables of peer ids; all cross pairs are
        updated in sorted order.  ``loss`` stacks independently with the
        topology-wide loss rate; ``extra_latency`` (seconds) adds onto the
        latency model.  Zeroing both removes the override.
        """
        for src in sorted(self._peer_group(a)):
            for dst in sorted(self._peer_group(b)):
                if src == dst:
                    continue
                self.topology.set_link(src, dst, loss=loss, extra_latency=extra_latency)
