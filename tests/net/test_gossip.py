"""Unit tests for the gossip pubsub fabric."""

import random

import pytest

from repro.net.gossip import GossipNetwork, GossipParams
from repro.net.topology import Topology, UniformLatency
from repro.net.transport import Transport
from repro.sim.scheduler import Simulator


def make_network(n_peers, seed=1, loss_rate=0.0, params=None):
    sim = Simulator(seed=seed)
    topology = Topology(UniformLatency(base=0.02, jitter=0.01), loss_rate=loss_rate)
    network = GossipNetwork(sim, Transport(sim, topology), params)
    inboxes = {f"p{i}": [] for i in range(n_peers)}
    for peer, inbox in inboxes.items():
        network.subscribe(peer, "topic", inbox.append)
    return sim, network, inboxes


def test_publish_reaches_all_subscribers():
    sim, network, inboxes = make_network(10)
    network.publish("p0", "topic", "hello")
    sim.run_until(2.0)
    for peer, inbox in inboxes.items():
        assert [e.data for e in inbox] == ["hello"], f"{peer} missed the message"


def test_messages_not_duplicated():
    sim, network, inboxes = make_network(8)
    for i in range(5):
        network.publish("p0", "topic", f"m{i}")
    sim.run_until(3.0)
    for inbox in inboxes.values():
        assert sorted(e.data for e in inbox) == [f"m{i}" for i in range(5)]


def test_publisher_receives_own_message():
    sim, network, inboxes = make_network(3)
    network.publish("p1", "topic", "self")
    sim.run_until(1.0)
    assert [e.data for e in inboxes["p1"]] == ["self"]


def test_non_subscriber_can_publish():
    sim, network, inboxes = make_network(5)
    network.add_peer("outsider")
    network.publish("outsider", "topic", "from-outside")
    sim.run_until(2.0)
    for inbox in inboxes.values():
        assert [e.data for e in inbox] == ["from-outside"]


def test_unsubscribed_peer_stops_receiving():
    sim, network, inboxes = make_network(5)
    network.unsubscribe("p3", "topic")
    network.publish("p0", "topic", "after-leave")
    sim.run_until(2.0)
    assert inboxes["p3"] == []
    assert [e.data for e in inboxes["p4"]] == ["after-leave"]


def test_topics_are_isolated():
    sim = Simulator(seed=2)
    network = GossipNetwork(sim, Transport(sim, Topology()))
    inbox_a, inbox_b = [], []
    network.subscribe("x", "topic-a", inbox_a.append)
    network.subscribe("x", "topic-b", inbox_b.append)
    network.subscribe("y", "topic-a", lambda e: None)
    network.subscribe("y", "topic-b", lambda e: None)
    network.publish("y", "topic-a", "only-a")
    sim.run_until(1.0)
    assert [e.data for e in inbox_a] == ["only-a"]
    assert inbox_b == []


def test_lazy_gossip_heals_loss():
    """With heavy loss, heartbeat IHAVE/IWANT still propagates the message."""
    sim, network, inboxes = make_network(
        12, seed=5, loss_rate=0.35, params=GossipParams(degree=3, lazy_degree=4)
    )
    network.publish("p0", "topic", "resilient")
    sim.run_until(30.0)
    got = sum(1 for inbox in inboxes.values() if any(e.data == "resilient" for e in inbox))
    assert got == 12


def test_mesh_is_symmetric_and_bounded():
    _, network, _ = make_network(20, params=GossipParams(degree=4))
    for peer_id, state in network._peers.items():
        for neighbour in state.mesh.get("topic", set()):
            assert peer_id in network._peers[neighbour].mesh["topic"]


def test_envelope_metadata():
    sim, network, inboxes = make_network(3)
    msg_id = network.publish("p0", "topic", "meta")
    sim.run_until(1.0)
    envelope = inboxes["p1"][0]
    assert envelope.msg_id == msg_id
    assert envelope.publisher == "p0"
    assert envelope.topic == "topic"
    assert envelope.published_at == 0.0


def test_remove_peer_cleans_up():
    sim, network, inboxes = make_network(5)
    network.remove_peer("p2")
    network.publish("p0", "topic", "post-removal")
    sim.run_until(2.0)
    assert inboxes["p2"] == []
    assert "p2" not in network.subscribers("topic")


def test_two_peer_topic():
    sim, network, inboxes = make_network(2)
    network.publish("p0", "topic", "pair")
    sim.run_until(1.0)
    assert [e.data for e in inboxes["p1"]] == ["pair"]


def test_deterministic_gossip_run():
    def run():
        sim, network, inboxes = make_network(10, seed=77)
        for i in range(3):
            network.publish(f"p{i}", "topic", f"m{i}")
        sim.run_until(5.0)
        return sim.trace.digest(), {
            p: sorted(e.data for e in inbox) for p, inbox in inboxes.items()
        }

    assert run() == run()


def test_shutdown_stops_heartbeat():
    sim, network, _ = make_network(4)
    network.shutdown()
    sim.run_until(10.0)
    # After shutdown and queue drain, no recurring heartbeat remains.
    assert sim.queue.peek_time() is None


# ----------------------------------------------------------------------
# Duplicate-copy elision: exact against a transport that schedules all
# ----------------------------------------------------------------------
class ScheduleEveryCopy(Transport):
    """Oracle transport: ignores the redundancy hint, schedules every send."""

    def send(self, src, dst, kind, payload, redundant_before=None):
        return super().send(src, dst, kind, payload)


def _net_counts(sim):
    return {
        name: sim.metrics.counter(f"net.{name}").value
        for name in ("sent", "delivered", "elided")
    }


def _random_run(transport_cls, seed):
    """A seeded random mesh under loss, a healed partition, a latency
    spike and unsubscribe/resubscribe; returns (handler log, net counts)."""
    plan = random.Random(seed)
    n_peers = plan.randint(2, 10)
    params = GossipParams(
        degree=plan.randint(2, 4),
        lazy_degree=plan.randint(1, 3),
        heartbeat_interval=0.5,
        history_length=plan.randint(2, 6),
    )
    sim = Simulator(seed=seed)
    topology = Topology(
        UniformLatency(base=0.02, jitter=0.01), loss_rate=plan.choice((0.0, 0.1, 0.3))
    )
    network = GossipNetwork(sim, transport_cls(sim, topology), params)
    peers = [f"p{i}" for i in range(n_peers)]
    log = []

    def handler(peer):
        return lambda envelope: log.append((peer, envelope.msg_id, sim.now))

    for peer in peers:
        network.subscribe(peer, "topic", handler(peer))

    for i in range(plan.randint(5, 25)):
        sim.schedule(plan.uniform(0.0, 8.0), network.publish, plan.choice(peers), "topic", i)
    island = plan.sample(peers, plan.randint(1, n_peers))
    handle = []
    sim.schedule(2.0, lambda: handle.append(network.transport.partition(island)))
    sim.schedule(plan.uniform(2.5, 5.0), lambda: network.transport.heal(handle[0]))
    a, b = plan.sample(peers, 2)
    spike = plan.uniform(0.1, 4.0)
    sim.schedule(1.0, network.transport.set_link, a, b, extra_latency=spike)
    sim.schedule(plan.uniform(1.5, 6.0), network.transport.set_link, a, b, extra_latency=0.0)
    leaver = plan.choice(peers)
    sim.schedule(3.0, network.unsubscribe, leaver, "topic")
    sim.schedule(plan.uniform(3.0, 4.0), network.subscribe, leaver, "topic", handler(leaver))
    sim.run_until(15.0)
    # Drain: with the heartbeat stopped nothing expires, and every copy
    # still in flight lands, so the oracle's delivered count is complete.
    network.shutdown()
    sim.run()
    return log, _net_counts(sim)


@pytest.mark.parametrize("seed", range(12))
def test_elision_is_exact_on_random_meshes(seed):
    oracle_log, oracle = _random_run(ScheduleEveryCopy, seed)
    log, counts = _random_run(Transport, seed)
    assert log == oracle_log
    assert counts["sent"] == oracle["sent"]
    assert counts["delivered"] + counts["elided"] == oracle["delivered"]
    assert oracle["elided"] == 0


def test_random_meshes_exercise_elision():
    log, counts = _random_run(Transport, 3)
    assert counts["elided"] > 0
    assert counts["delivered"] < counts["sent"]


def _spiked_triangle(transport_cls, publish_at=0.0, spike=5.0):
    """p0 publishes; p1 hears late and forwards over a *spike* s link to
    p2, which already holds the id (history_length 2)."""
    sim = Simulator(seed=4)
    topology = Topology(UniformLatency(base=0.02, jitter=0.0))
    params = GossipParams(degree=2, heartbeat_interval=1.0, history_length=2)
    network = GossipNetwork(sim, transport_cls(sim, topology), params)
    log = []
    for peer in ("p0", "p1", "p2"):
        network.subscribe(
            peer, "topic", lambda e, peer=peer: log.append((peer, e.msg_id, sim.now))
        )
    network.transport.set_link("p0", "p1", extra_latency=0.05)
    network.transport.set_link("p1", "p2", extra_latency=spike)
    sim.schedule(publish_at, network.publish, "p0", "topic", "late")
    sim.run_until(publish_at + spike + 5.0)
    return log, _net_counts(sim)


@pytest.mark.parametrize("publish_at", [0.0, 0.5, 0.9, 0.97])
@pytest.mark.parametrize("spike", [0.5, 1.0, 1.5, 1.9, 2.1, 2.3, 2.6, 3.0, 3.5])
def test_elision_is_exact_around_the_expiry_heartbeat(publish_at, spike):
    """Copies landing on either side of the holder's expiry heartbeat
    (published just after or just before a heartbeat)."""
    oracle_log, oracle = _spiked_triangle(ScheduleEveryCopy, publish_at, spike)
    log, counts = _spiked_triangle(Transport, publish_at, spike)
    assert log == oracle_log
    assert counts["delivered"] + counts["elided"] == oracle["delivered"]


def test_copy_landing_after_expiry_is_delivered():
    oracle_log, oracle = _spiked_triangle(ScheduleEveryCopy)
    log, counts = _spiked_triangle(Transport)
    assert log == oracle_log
    # p2 held the id when p1 forwarded it, but had expired it by the time
    # the copy landed (~5.09 s): it must arrive and count as new.
    p2_times = [time for peer, _, time in log if peer == "p2"]
    assert len(p2_times) == 2 and p2_times[1] > 5.0
    assert counts["elided"] > 0
    assert counts["delivered"] + counts["elided"] == oracle["delivered"]


def _rejoin_in_flight(transport_cls):
    """p3 forwards to p2, which already holds the id; p2 is removed and
    re-added before that copy lands."""
    sim = Simulator(seed=6)
    topology = Topology(UniformLatency(base=0.02, jitter=0.0))
    network = GossipNetwork(sim, transport_cls(sim, topology), GossipParams(degree=3))
    log = []

    def join(peer):
        network.subscribe(
            peer, "topic", lambda e: log.append((peer, e.msg_id, sim.now))
        )

    for peer in ("p0", "p1", "p2", "p3"):
        join(peer)
    network.transport.set_link("p0", "p3", extra_latency=0.05)
    network.publish("p0", "topic", "x")
    sim.run_until(0.045)  # p3 heard it from p1 at 0.04 and forwarded to p2
    network.remove_peer("p2")
    join("p2")
    sim.run_until(3.0)
    return [(time, msg) for peer, msg, time in log if peer == "p2"]


def test_remove_and_rejoin_within_a_link_latency_is_pinned():
    """The one documented inexactness (remove_peer has no library caller):
    the new incarnation misses copies elided as duplicates of the old one
    and recovers them through IHAVE repair at the next heartbeat."""
    oracle = _rejoin_in_flight(ScheduleEveryCopy)
    elided = _rejoin_in_flight(Transport)
    assert oracle[0] == elided[0] and oracle[0][0] == pytest.approx(0.02)
    assert oracle[1][0] == pytest.approx(0.06)  # the in-flight copy
    assert 1.0 <= elided[1][0] < 1.1  # IHAVE at heartbeat 1, then IWANT
    assert len(oracle) == len(elided) == 2


def test_history_expires_exactly_history_length_heartbeats_after_recording():
    """An id recorded at heartbeat h still deduplicates at heartbeat h+L
    and is gone at h+L+1 — the boundary the elision bound relies on."""
    history = 3
    sim, network, inboxes = make_network(
        2, params=GossipParams(heartbeat_interval=1.0, history_length=history)
    )
    sim.run_until(0.5)  # heartbeat h = 0 has not fired yet
    network.publish("p0", "topic", "once")
    sim.run_until(0.6)
    envelope = inboxes["p1"][0]

    def redeliver():
        # A raw transport copy (no redundancy hint) of the same envelope.
        network.transport.send("p0", "p1", "gossip:pub", envelope)
        sim.run_until(sim.now + 0.1)
        return len(inboxes["p1"])

    sim.run_until(history + 0.5)  # heartbeat h + L = 3 has fired
    assert network._heartbeat_no == history
    assert redeliver() == 1
    sim.run_until(history + 1.5)  # heartbeat h + L + 1 = 4 has fired
    assert redeliver() == 2


def test_ihave_advertises_the_last_fifty_ids_in_order():
    class Recording(Transport):
        def __init__(self, *args):
            super().__init__(*args)
            self.ihave = []

        def send(self, src, dst, kind, payload, redundant_before=None):
            if kind == "gossip:ihave" and src == "p1":
                self.ihave.append(payload)
            return super().send(src, dst, kind, payload, redundant_before)

    sim = Simulator(seed=1)
    transport = Recording(sim, Topology(UniformLatency(base=0.02, jitter=0.0)))
    network = GossipNetwork(sim, transport)
    for peer in ("p0", "p1"):
        network.subscribe(peer, "topic", lambda e: None)
    ids = [network.publish("p0", "topic", i) for i in range(60)]
    sim.run_until(1.0)
    assert transport.ihave and transport.ihave[0] == ("topic", ids[-50:])
