"""Consensus-round tracing and quorum-aware stall diagnosis.

Span tracing, invariant auditors and the CPU profiler all watch the
chain, never the rounds that produce it.  This module watches the rounds.

:class:`RoundTracer` subscribes to the ``round`` kind of the simulator's
observation stream (``sim.observers``; sim/ and consensus/ never import
telemetry, no subscriber = disabled), which every consensus engine emits
through :meth:`~repro.consensus.base.ConsensusEngine._trace_round` at each
round/view transition — round start, proposal, vote arrival, lock,
commit, timeout, round skip — with the leader identity attached.  It
produces:

- per-validator round **timelines** (bounded rings, exported as one
  Perfetto track per validator by :mod:`repro.telemetry.export`);
- ``consensus.round.*`` quorum-progress **gauges** per subnet: the
  working frontier ``(height, round)``, prevote/precommit power held at
  the frontier vs. the quorum power needed;
- round-duration and rounds-per-height **histograms**, plus timeout /
  round-skip / lock counters.

:class:`StallDiagnoser` turns a stalled subnet into a *stall report*
(schema ``repro.stall/v1``): it snapshots every validator's live engine
state (:meth:`~repro.consensus.base.ConsensusEngine.debug_state` —
height/round/step, locked value, vote books, head CID), the gossip mesh,
partition state and degraded links, and names the **missing quorum**: who
holds the frontier, who voted, who is *silent* (no vote at the working
height) and who is *misaligned* (votes exist but at other rounds or for
another head — a round-desync signature).  The scenario
:class:`~repro.scenario.runner.ProgressWatchdog`, ``wait_for`` timeouts
and the flight recorder all attach these reports to their diagnostics.

Determinism: the tracer writes only to ``sim.metrics`` (never the trace
log, never RNG, never wall clock) and the diagnoser is a pure read of
engine/network state, so enabling either cannot change the end-state
digest.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

STALL_SCHEMA = "repro.stall/v1"

#: Event kinds engines feed (see ConsensusEngine._trace_round):
#:   round_start  — a validator entered (height, round); fields carry the
#:                  proposer plus quorum/total power
#:   round_skip   — entered via f+1 higher-round catch-up, not a timeout
#:   propose      — this validator broadcast a proposal
#:   proposal     — an acceptable proposal arrived
#:   vote         — a prevote/precommit was recorded (voter, power, cid)
#:   lock         — a polka locked this validator on a block
#:   timeout      — a phase timeout fired (step in fields)
#:   commit       — a block committed (slot engines emit this per block)
EVENT_KINDS = (
    "round_start", "round_skip", "propose", "proposal",
    "vote", "lock", "timeout", "commit",
)


class RoundTracer:
    """Collects per-validator consensus-round events from every engine.

    :meth:`install` subscribes it to ``round`` observations, which engines
    emit via ``ConsensusEngine._trace_round``.  Metrics-only writes keep it
    digest-neutral; timelines live in bounded per-validator rings.
    """

    def __init__(self, sim, timeline_capacity: int = 512) -> None:
        self.sim = sim
        self.metrics = sim.metrics
        self.timeline_capacity = timeline_capacity
        # (subnet, node_id) -> ring of (time, kind, fields)
        self.timelines: dict[tuple, deque] = {}
        # subnet -> frontier bookkeeping
        self._frontier: dict[str, tuple] = {}  # subnet -> (height, round)
        self._quorum: dict[str, tuple] = {}  # subnet -> (quorum, total)
        # (subnet, height, round, vote_type) -> {voter: power} (dedup across
        # observers: the first validator to record a voter's vote wins,
        # which is deterministic on a deterministic simulator)
        self._votes: dict[tuple, dict] = {}
        # (subnet, node_id) -> time the current round started
        self._round_started: dict[tuple, float] = {}
        # per-subnet counts for summary()
        self._counts: dict[str, dict] = {}
        self._remove = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "RoundTracer":
        """Subscribe to round observations (idempotent)."""
        if self._remove is None:
            self._remove = self.sim.observers.subscribe("round", self.on_round_event)
        return self

    def uninstall(self) -> None:
        if self._remove is not None:
            self._remove()
            self._remove = None

    # ------------------------------------------------------------------
    # Feed (the round observation kind)
    # ------------------------------------------------------------------
    def on_round_event(
        self, subnet: str, node_id: str, kind: str, time: float, fields: dict
    ) -> None:
        key = (subnet, node_id)
        ring = self.timelines.get(key)
        if ring is None:
            ring = self.timelines[key] = deque(maxlen=self.timeline_capacity)
        ring.append((time, kind, fields))

        counts = self._counts.setdefault(
            subnet, {k: 0 for k in EVENT_KINDS}
        )
        counts[kind] = counts.get(kind, 0) + 1

        height = fields.get("height")
        round_ = fields.get("round")

        if kind in ("round_start", "round_skip"):
            started = self._round_started.get(key)
            if started is not None:
                self.metrics.histogram(
                    f"consensus.round.{subnet}.duration"
                ).observe(time - started)
            self._round_started[key] = time
            quorum, total = fields.get("quorum"), fields.get("total")
            if quorum is not None:
                self._quorum[subnet] = (quorum, total)
            if kind == "round_skip":
                self.metrics.counter(f"consensus.round.{subnet}.skips").inc()
        elif kind == "timeout":
            self.metrics.counter(f"consensus.round.{subnet}.timeouts").inc()
        elif kind == "lock":
            self.metrics.counter(f"consensus.round.{subnet}.locks").inc()
        elif kind == "vote":
            voter = fields.get("voter")
            book = self._votes.setdefault(
                (subnet, height, round_, fields.get("vote_type")), {}
            )
            if voter not in book:
                book[voter] = fields.get("power", 1)
        elif kind == "commit":
            # Rounds are 0-based; a height that committed at round r took
            # r+1 rounds.  Slot engines commit at "round" 0 (their slot).
            self.metrics.histogram(
                f"consensus.round.{subnet}.per_height"
            ).observe((round_ or 0) + 1)
            self._round_started.pop(key, None)

        self._advance_frontier(subnet, height, round_)

    def _advance_frontier(
        self, subnet: str, height: Optional[int], round_: Optional[int]
    ) -> None:
        if height is None:
            return
        candidate = (height, round_ or 0)
        frontier = self._frontier.get(subnet)
        if frontier is not None and candidate <= frontier:
            self._refresh_gauges(subnet)
            return
        self._frontier[subnet] = candidate
        self._refresh_gauges(subnet)

    def _refresh_gauges(self, subnet: str) -> None:
        frontier = self._frontier.get(subnet)
        if frontier is None:
            return
        height, round_ = frontier
        gauge = self.metrics.gauge
        gauge(f"consensus.round.{subnet}.height").set(height)
        gauge(f"consensus.round.{subnet}.number").set(round_)
        quorum = self._quorum.get(subnet)
        if quorum is not None and quorum[0] is not None:
            gauge(f"consensus.round.{subnet}.quorum_power").set(quorum[0])
        for vote_type in ("prevote", "precommit"):
            book = self._votes.get((subnet, height, round_, vote_type))
            held = sum(book.values()) if book else 0
            gauge(f"consensus.round.{subnet}.{vote_type}_power").set(held)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def frontier(self, subnet: str) -> Optional[tuple]:
        """The working ``(height, round)`` frontier of *subnet*."""
        return self._frontier.get(subnet)

    def votes_at(self, subnet: str, height: int, round_: int, vote_type: str) -> dict:
        """``voter -> power`` recorded at ``(height, round, vote_type)``."""
        return dict(self._votes.get((subnet, height, round_, vote_type), ()))

    def timeline(self, subnet: str, node_id: str) -> list:
        """The (time, kind, fields) ring of one validator, oldest first."""
        return list(self.timelines.get((subnet, node_id), ()))

    def subnets(self) -> list:
        return sorted({subnet for subnet, _ in self.timelines})

    def summary(self) -> dict:
        """Plain-data overview used by the exporters and the report CLI."""
        per_subnet = {}
        for subnet in self.subnets():
            frontier = self._frontier.get(subnet)
            quorum = self._quorum.get(subnet, (None, None))
            counts = self._counts.get(subnet, {})
            entry = {
                "frontier_height": frontier[0] if frontier else None,
                "frontier_round": frontier[1] if frontier else None,
                "quorum_power": quorum[0],
                "total_power": quorum[1],
                "validators": sorted(
                    node for s, node in self.timelines if s == subnet
                ),
                "counts": {k: v for k, v in sorted(counts.items()) if v},
            }
            if frontier is not None:
                for vote_type in ("prevote", "precommit"):
                    book = self._votes.get(
                        (subnet, frontier[0], frontier[1], vote_type)
                    )
                    entry[f"{vote_type}_power"] = (
                        sum(book.values()) if book else 0
                    )
            per_subnet[subnet] = entry
        return {
            "subnets": per_subnet,
            "events": sum(len(ring) for ring in self.timelines.values()),
        }


# ----------------------------------------------------------------------
# Stall diagnosis
# ----------------------------------------------------------------------
class StallDiagnoser:
    """Builds quorum-aware stall reports for a stuck subnet.

    A report is a pure read of live state: every validator's
    ``engine.debug_state()``, its head, the gossip mesh, partition and
    link-degradation state, plus a quorum analysis at the subnet's working
    height — who voted, who is silent, who is misaligned.  Constructed
    with the :class:`~repro.hierarchy.network.HierarchicalSystem` it
    inspects; the tracer is optional (round frontiers enrich the report
    but engine vote books alone suffice).
    """

    def __init__(self, system) -> None:
        self.system = system

    # ------------------------------------------------------------------
    def diagnose(self, subnet_path: str) -> dict:
        """One ``repro.stall/v1`` report for *subnet_path*."""
        from repro.hierarchy.subnet_id import SubnetID

        system = self.system
        subnet = SubnetID(subnet_path)
        nodes = system.nodes_by_subnet[subnet]
        engine_name = nodes[0].engine.NAME

        validators = []
        for node in nodes:
            head = node.head()
            validators.append({
                "node": node.node_id,
                "running": node.engine.running,
                "head_height": head.height if head else None,
                "head_cid": head.cid.hex()[:16] if head else None,
                "state": node.engine.debug_state(),
            })

        report = {
            "schema": STALL_SCHEMA,
            "subnet": subnet.path,
            "time": system.sim.now,
            "engine": engine_name,
            "validators": validators,
            "quorum": self._missing_quorum(nodes, validators),
            "network": self._network_state(nodes),
        }
        tracer = system.round_tracer
        if tracer is not None:
            report["frontier"] = tracer.frontier(subnet.path)
            report["recent_events"] = {
                node.node_id: [
                    [time, kind, self._brief(fields)]
                    for time, kind, fields in tracer.timeline(
                        subnet.path, node.node_id
                    )[-8:]
                ]
                for node in nodes
            }
        return report

    @staticmethod
    def _brief(fields: dict) -> dict:
        keep = ("height", "round", "step", "vote_type", "voter", "proposer")
        return {k: fields[k] for k in keep if fields.get(k) is not None}

    # ------------------------------------------------------------------
    def _missing_quorum(self, nodes, validators) -> dict:
        """Name the missing quorum at the subnet's working height.

        BFT engines expose their vote books via ``debug_state``; the
        working height is the highest any validator is deciding.  A
        validator in the set is *silent* when it holds no vote at that
        height anywhere in the books, and *misaligned* when its votes
        exist but only at rounds other than the busiest one (the
        round-desync signature).  Power is *held* only by voters agreeing
        on one value (nil counts as a value): when the best view's votes
        are split, ``split`` lists each value's voters and power and
        ``locks`` each validator's lock — the split-lock signature, where
        every vote arrived and still no value has a quorum.  Slot engines
        have no votes — for them the analysis reports the expected leader
        instead.
        """
        engine = nodes[0].engine
        vset = engine.validators
        result = {
            "needed_power": vset.quorum_power,
            "total_power": vset.total_power,
        }

        books = [v["state"].get("prevotes") for v in validators]
        if not any(books):
            # Slot/mining engine: no votes to analyse; name the leader.
            leader = None
            state = validators[0]["state"]
            for key in ("leader", "expected_leader"):
                if state.get(key) is not None:
                    leader = state[key]
                    break
            heights = [
                v["head_height"] for v in validators
                if v["head_height"] is not None
            ]
            result.update({
                "kind": "leader-schedule",
                "expected_leader": leader,
                "head_spread": (
                    max(heights) - min(heights) if heights else None
                ),
            })
            return result

        working = max(
            v["state"].get("height") or 0 for v in validators
        )
        # The union of every validator's books (vote *existence*: did a
        # vote ever happen anywhere?) and the best single view (vote
        # *delivery*: quorums form inside one validator's book, never
        # across a partition — a union that looks complete while no node
        # holds a quorum is exactly the partition signature).
        union = {"prevote": {}, "precommit": {}}
        views = []  # (held_power, round, observer, voters, split)
        current_round = None
        for v in validators:
            state = v["state"]
            if state.get("height") != working:
                continue
            if isinstance(state.get("round"), int):
                current_round = max(
                    current_round if current_round is not None else -1,
                    state["round"],
                )
            for vote_type, book_key in (
                ("prevote", "prevotes"), ("precommit", "precommits")
            ):
                for round_str, book in (state.get(book_key) or {}).items():
                    target = union[vote_type].setdefault(int(round_str), {})
                    for voter, cid in book.items():
                        target.setdefault(voter, cid)
                    if vote_type == "prevote":
                        # [value, voters, power] per distinct value (nil
                        # included), heaviest first: only agreeing power
                        # is held.
                        groups: dict = {}
                        for voter, value in book.items():
                            groups.setdefault(value, []).append(voter)
                        split = sorted(
                            ([value, sorted(vs), vset.power_of(vs)]
                             for value, vs in groups.items()),
                            key=lambda entry: (-entry[2], entry[0] or ""),
                        )
                        views.append((
                            split[0][2] if split else 0, int(round_str),
                            v["node"], sorted(book), split,
                        ))
        # Anchor on the round the subnet is stuck at NOW (a historical
        # round may show a full prevote quorum that still failed at
        # precommit); when no votes exist there yet, fall back to the
        # highest round that has any — never to a bygone quorum.
        best = max(
            (c for c in views if c[1] == current_round),
            key=lambda c: c[:2], default=None,
        )
        if best is None and union["prevote"]:
            frontier_round = max(union["prevote"])
            best = max(
                (c for c in views if c[1] == frontier_round),
                key=lambda c: c[:2], default=None,
            )

        voted_rounds: dict[str, set] = {}
        for vote_type in ("prevote", "precommit"):
            for round_, book in union[vote_type].items():
                for voter in book:
                    voted_rounds.setdefault(voter, set()).add(round_)

        members = [v.node_id for v in vset]
        held, busiest, observer, voted, split = (
            best if best else (0, None, None, [], [])
        )
        missing = [m for m in members if m not in voted]
        unreachable, misaligned, silent = [], [], []
        for m in missing:
            if busiest is not None and m in union["prevote"].get(busiest, ()):
                # Voted at the very round the best view is missing power
                # at — the vote exists but was never delivered there.
                unreachable.append(m)
            elif m in voted_rounds:
                misaligned.append(
                    {"voter": m, "rounds": sorted(voted_rounds[m])}
                )
            else:
                silent.append(m)
        result.update({
            "kind": "vote-quorum",
            "height": working,
            "round": busiest,
            "observer": observer,
            "voted": voted,
            "held_power": held,
            "missing_power": max(vset.quorum_power - held, 0),
            "unreachable": unreachable,
            "silent": silent,
            "misaligned": misaligned,
            "rounds_active": sorted(union["prevote"]),
        })
        if len(split) > 1:
            result["split"] = split
            result["locks"] = {
                v["node"]: [v["state"].get("locked"), v["state"].get("locked_round")]
                for v in validators
            }
        return result

    # ------------------------------------------------------------------
    def _network_state(self, nodes) -> dict:
        """Partition/link/mesh state among the subnet's validators."""
        stack = self.system.stack
        topology = stack.topology
        ids = [node.node_id for node in nodes]

        degraded, unreachable = [], []
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if not topology.can_communicate(a, b):
                    unreachable.append([a, b])
                profile = topology.link_profile(a, b)
                if profile is not None and (
                    profile.loss or profile.extra_latency
                ):
                    degraded.append({
                        "link": [a, b],
                        "loss": profile.loss,
                        "extra_latency": profile.extra_latency,
                    })

        mesh = {}
        for node in nodes:
            peers = stack.gossip._peers.get(node.node_id)
            topic_mesh = peers.mesh.get(node.topic) if peers else None
            mesh[node.node_id] = sorted(topic_mesh) if topic_mesh else []

        return {
            "partitions_active": sum(
                1 for groups in topology._partitions if groups
            ),
            "unreachable_pairs": unreachable,
            "degraded_links": degraded,
            "mesh": mesh,
        }


def render_quorum(quorum: dict, indent: str = "") -> list:
    """Lines naming a stall report's missing quorum (or slot leader).

    The one renderer of the ``quorum`` section: stall reports, campaign
    triage and ``wait_for`` timeout messages all print it through here.
    """
    if quorum.get("kind") == "leader-schedule":
        return [
            f"{indent}slot engine: expected leader {quorum.get('expected_leader')}, "
            f"head spread {quorum.get('head_spread')}"
        ]
    if quorum.get("kind") != "vote-quorum":
        return []
    details = (
        ("voted", ", ".join(quorum.get("voted") or ())),
        ("unreachable (voted, but the vote never arrived)",
         ", ".join(quorum.get("unreachable") or ())),
        ("silent", ", ".join(quorum.get("silent") or ())),
        ("misaligned", ", ".join(
            f"{m['voter']} at rounds {m['rounds']}" for m in quorum.get("misaligned") or ()
        )),
        ("split", "; ".join(
            f"{value or 'nil'} from {', '.join(voters)} ({power} power)"
            for value, voters, power in quorum.get("split") or ()
        )),
        ("locked", ", ".join(
            f"{node} on {locked} since r{locked_round}"
            for node, (locked, locked_round) in (quorum.get("locks") or {}).items()
            if locked is not None
        )),
        ("rounds with votes", quorum.get("rounds_active")),
    )
    return [
        f"{indent}quorum at h{quorum.get('height')} r{quorum.get('round')}: "
        f"{quorum.get('held_power')}/{quorum.get('needed_power')} power "
        f"(of {quorum.get('total_power')}) — short {quorum.get('missing_power')}, "
        f"best view {quorum.get('observer')}"
    ] + [f"{indent}  {label}: {text}" for label, text in details if text]


def render_stall_report(report: dict) -> str:
    """Human-readable multi-line view of one stall report."""
    out = [
        f"stall report: {report.get('subnet')} "
        f"engine={report.get('engine')} t={report.get('time')}"
    ]
    out.extend(render_quorum(report.get("quorum") or {}, "  "))
    for v in report.get("validators") or []:
        state = v.get("state") or {}
        detail = " ".join(
            f"{k}={state[k]}" for k in ("height", "round", "step", "slot")
            if state.get(k) is not None
        )
        out.append(
            f"  {v['node']}: head={v.get('head_height')} "
            f"running={v.get('running')} {detail}"
        )
    network = report.get("network") or {}
    if network.get("unreachable_pairs"):
        pairs = ", ".join(
            f"{a}↮{b}" for a, b in network["unreachable_pairs"]
        )
        out.append(f"  unreachable: {pairs}")
    for link in network.get("degraded_links") or []:
        a, b = link["link"]
        out.append(
            f"  degraded: {a}↔{b} loss={link.get('loss')} "
            f"latency+={link.get('extra_latency')}"
        )
    return "\n".join(out)
