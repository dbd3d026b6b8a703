"""Gossipsub-style pubsub.

The paper uses one gossipsub topic per subnet as the chain transport
(§III-A) and the content resolution protocol publishes push/pull/resolve
messages on subnet topics (§IV-C).  This module implements the mesh-based
core of gossipsub [Vyzovitis et al. 2020]:

- per-topic *mesh*: each subscriber keeps ``D`` mesh links over which full
  messages are eagerly forwarded;
- deduplication by message id (a hash of publisher + sequence number);
- lazy gossip: on a heartbeat, peers advertise recently-seen message ids
  (IHAVE) to a random sample of non-mesh subscribers, which request missing
  messages (IWANT) — this is what heals losses and partitions;
- deterministic mesh construction from the simulation seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Optional

from repro.sim.scheduler import Simulator
from repro.net.rpc import RpcChannel
from repro.net.transport import NetMessage, Transport


@dataclass
class GossipParams:
    """Tunables mirroring gossipsub's D/Dlazy/heartbeat/history.

    A :class:`GossipNetwork` reads them once, when it is built.
    """

    degree: int = 4  # mesh degree D
    lazy_degree: int = 3  # gossip fanout for IHAVE
    heartbeat_interval: float = 1.0
    history_length: int = 120  # heartbeats a message id stays advertisable


@dataclass(frozen=True)
class PubsubEnvelope:
    """What subscribers receive: topic, data, original publisher, msg id."""

    topic: str
    data: Any
    publisher: str
    msg_id: str
    published_at: float


class _PeerState:
    """Per-peer pubsub state."""

    def __init__(self, peer_id: str) -> None:
        self.peer_id = peer_id
        self.topics: dict[str, Callable[[PubsubEnvelope], None]] = {}
        self.mesh: dict[str, set[str]] = {}
        # Sorted snapshot of each mesh set, computed lazily on first forward
        # and invalidated by _rebuild_mesh (the only place mesh sets change).
        self.mesh_sorted: dict[str, tuple[str, ...]] = {}
        self.seen: dict[str, PubsubEnvelope] = {}
        self.seen_order: deque[tuple[int, str]] = deque()  # (heartbeat_no, msg_id)
        self.seq = 0


class GossipNetwork:
    """A shared pubsub fabric over a :class:`Transport`.

    One instance serves every topic in the simulation; subnets simply use
    topic names derived from their subnet ID.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: Optional[Transport] = None,
        params: Optional[GossipParams] = None,
    ) -> None:
        self.sim = sim
        self.transport = transport or Transport(sim)
        self.params = params or GossipParams()
        self._peers: dict[str, _PeerState] = {}
        self._topic_members: dict[str, set[str]] = {}
        self._rng = sim.rng("net", "gossip")
        # Hot-path metric handles, resolved once (publish/deliver run for
        # every gossiped message).
        self._published = sim.metrics.counter("gossip.published")
        self._delivered = sim.metrics.counter("gossip.delivered")
        self._latency = sim.metrics.histogram("gossip.latency")
        self._heartbeat_no = 0
        self._history_length = self.params.history_length
        # How long every holder of an id keeps it, counted from the id's
        # publish time.  A peer records an id at some time >= published_at,
        # before heartbeat h + 1 fires, and drops it at heartbeat
        # h + L + 1: L full intervals later.  One interval of margin absorbs
        # float drift in every().  _accept uses the span to elide copies
        # whose delivery is provably a duplicate.
        self._redundancy_span = (
            (self._history_length - 1) * self.params.heartbeat_interval
        )
        self._rpc: Optional[RpcChannel] = None
        self._stop_heartbeat = sim.every(
            self.params.heartbeat_interval, self._heartbeat, label="gossip:heartbeat"
        )

    @property
    def rpc(self) -> RpcChannel:
        """Shared request/response channel over the same transport.

        Lazy so pure-pubsub fabrics pay nothing; peers use it for direct
        exchanges (e.g. block-range sync) that gossip's bounded IHAVE
        history cannot serve.
        """
        if self._rpc is None:
            self._rpc = RpcChannel(self.sim, self.transport)
        return self._rpc

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_peer(self, peer_id: str) -> None:
        """Register a peer on the fabric (idempotent)."""
        if peer_id in self._peers:
            return
        self._peers[peer_id] = _PeerState(peer_id)
        self.transport.register(peer_id, self._on_transport_message)

    def remove_peer(self, peer_id: str) -> None:
        """Drop *peer_id* and all its pubsub state.

        A peer re-added while mesh copies addressed to its old incarnation
        are still in flight does not receive those copies that were elided
        as duplicates of what the old incarnation had seen (see
        :meth:`Transport.send`); it gets them back through IHAVE repair.
        """
        state = self._peers.pop(peer_id, None)
        if state is None:
            return
        for topic in list(state.topics):
            self._leave_topic(peer_id, topic)
        self.transport.unregister(peer_id)

    def subscribe(
        self, peer_id: str, topic: str, handler: Callable[[PubsubEnvelope], None]
    ) -> None:
        """Subscribe *peer_id* to *topic*; *handler* gets every new message."""
        self.add_peer(peer_id)
        state = self._peers[peer_id]
        state.topics[topic] = handler
        members = self._topic_members.setdefault(topic, set())
        members.add(peer_id)
        self._rebuild_mesh(topic)

    def unsubscribe(self, peer_id: str, topic: str) -> None:
        state = self._peers.get(peer_id)
        if state is None:
            return
        state.topics.pop(topic, None)
        self._leave_topic(peer_id, topic)

    def _leave_topic(self, peer_id: str, topic: str) -> None:
        state = self._peers.get(peer_id)
        if state is not None:
            # _rebuild_mesh only resets mesh entries for remaining members;
            # clear the departing peer's own view so it stops relaying.
            state.mesh.pop(topic, None)
            state.mesh_sorted.pop(topic, None)
        members = self._topic_members.get(topic)
        if members:
            members.discard(peer_id)
            self._rebuild_mesh(topic)

    def subscribers(self, topic: str) -> set:
        return set(self._topic_members.get(topic, set()))

    def _rebuild_mesh(self, topic: str) -> None:
        """Recompute the topic mesh deterministically.

        Every member links to ``degree`` neighbours chosen by seeded shuffle;
        links are symmetric.  Rebuilt on churn, which is infrequent in our
        workloads, so the simplicity beats incremental GRAFT/PRUNE.
        """
        for peer in self._peers.values():
            peer.mesh_sorted.pop(topic, None)
        members = sorted(self._topic_members.get(topic, set()))
        for member in members:
            self._peers[member].mesh[topic] = set()
        if len(members) <= 1:
            return
        rng = self.sim.seeds.rng("gossip-mesh", topic, len(members))
        degree = min(self.params.degree, len(members) - 1)
        for member in members:
            others = [m for m in members if m != member]
            rng.shuffle(others)
            for neighbour in others[:degree]:
                self._peers[member].mesh[topic].add(neighbour)
                self._peers[neighbour].mesh[topic].add(member)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, peer_id: str, topic: str, data: Any) -> str:
        """Publish *data* on *topic* from *peer_id*; returns the message id.

        Publishing does not require being subscribed (gossipsub fanout): the
        message is sent to mesh members of the topic.
        """
        self.add_peer(peer_id)
        state = self._peers[peer_id]
        msg_id = f"{peer_id}:{state.seq}"
        state.seq += 1
        envelope = PubsubEnvelope(
            topic=topic,
            data=data,
            publisher=peer_id,
            msg_id=msg_id,
            published_at=self.sim.now,
        )
        self._published.inc()
        self._accept(peer_id, envelope, deliver_locally=True)
        # If the publisher is not in the topic, seed the flood at a few members.
        if topic not in state.topics:
            members = sorted(self._topic_members.get(topic, set()))
            if members:
                rng = self._rng
                fanout = members if len(members) <= self.params.degree else rng.sample(
                    members, self.params.degree
                )
                for member in fanout:
                    self.transport.send(peer_id, member, "gossip:pub", envelope)
        return msg_id

    def _accept(self, peer_id: str, envelope: PubsubEnvelope, deliver_locally: bool) -> None:
        """Record a message at a peer and forward it over its mesh."""
        state = self._peers[peer_id]
        if envelope.msg_id in state.seen:
            return
        if envelope.topic not in state.topics:
            # Not subscribed — a departed peer catching an in-flight
            # delivery, or a bare publisher (whose flood publish() seeds
            # explicitly).  Recording the message as seen here would make
            # IHAVE repair skip it forever once the peer (re)subscribes,
            # so drop it unrecorded.
            return
        state.seen[envelope.msg_id] = envelope
        state.seen_order.append((self._heartbeat_no, envelope.msg_id))
        handler = state.topics.get(envelope.topic)
        if handler is not None and deliver_locally:
            self._delivered.inc()
            self._latency.observe(self.sim.now - envelope.published_at)
            handler(envelope)
        neighbours = state.mesh_sorted.get(envelope.topic)
        if neighbours is None:
            neighbours = tuple(sorted(state.mesh.get(envelope.topic, ())))
            state.mesh_sorted[envelope.topic] = neighbours
        # A neighbour that already holds the id discards this copy, and
        # keeps holding it until redundant_before (see _redundancy_span):
        # the transport draws the copy's fate but schedules nothing.
        msg_id = envelope.msg_id
        redundant_before = envelope.published_at + self._redundancy_span
        peers = self._peers
        send = self.transport.send
        for neighbour in neighbours:
            send(
                peer_id, neighbour, "gossip:pub", envelope,
                redundant_before if msg_id in peers[neighbour].seen else None,
            )

    # ------------------------------------------------------------------
    # Transport plumbing
    # ------------------------------------------------------------------
    def _on_transport_message(self, message: NetMessage) -> None:
        state = self._peers.get(message.dst)
        if state is None:
            return
        if message.kind == "gossip:pub":
            envelope: PubsubEnvelope = message.payload
            self._accept(message.dst, envelope, deliver_locally=True)
        elif message.kind == "gossip:ihave":
            topic, msg_ids = message.payload
            missing = [m for m in msg_ids if m not in state.seen]
            if missing and topic in state.topics:
                self.transport.send(message.dst, message.src, "gossip:iwant", missing)
        elif message.kind == "gossip:iwant":
            for msg_id in message.payload:
                envelope = state.seen.get(msg_id)
                if envelope is not None:
                    self.transport.send(message.dst, message.src, "gossip:pub", envelope)

    # ------------------------------------------------------------------
    # Heartbeat (lazy gossip)
    # ------------------------------------------------------------------
    def _heartbeat(self) -> None:
        self._heartbeat_no += 1
        # An id recorded at heartbeat h expires at heartbeat h + L + 1.
        horizon = self._heartbeat_no - self._history_length
        for peer_id in sorted(self._peers):
            state = self._peers[peer_id]
            # Expire old history.
            seen_order = state.seen_order
            while seen_order and seen_order[0][0] < horizon:
                _, old_id = seen_order.popleft()
                state.seen.pop(old_id, None)
            # Advertise recent ids per topic to non-mesh members.
            recent = list(islice(reversed(seen_order), 50))
            recent.reverse()
            recent_by_topic: dict[str, list[str]] = {}
            for _, msg_id in recent:
                envelope = state.seen.get(msg_id)
                if envelope is not None:
                    recent_by_topic.setdefault(envelope.topic, []).append(msg_id)
            for topic, msg_ids in recent_by_topic.items():
                members = self._topic_members.get(topic, set())
                candidates = sorted(members - state.mesh.get(topic, set()) - {peer_id})
                if not candidates:
                    # Small topics are fully meshed; lazy gossip must still
                    # reach mesh peers, or partition recovery has no path
                    # to re-advertise history.
                    candidates = sorted(members - {peer_id})
                if not candidates:
                    continue
                sample_size = min(self.params.lazy_degree, len(candidates))
                for target in self._rng.sample(candidates, sample_size):
                    self.transport.send(peer_id, target, "gossip:ihave", (topic, msg_ids))

    def shutdown(self) -> None:
        """Stop the heartbeat (ends the simulation cleanly)."""
        self._stop_heartbeat()
