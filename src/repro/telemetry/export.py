"""Telemetry exporters: JSON dump, Prometheus text format, Chrome trace.

Three consumers, three formats:

- :func:`telemetry_snapshot` / :func:`write_json` — one JSON document with
  everything a post-hoc report needs (metrics, dispatch profile, span and
  health summaries).  ``python -m repro.telemetry.report`` renders it.
- :func:`to_prometheus` / :func:`write_prometheus` — Prometheus text
  exposition (counters, gauges, histogram summaries with quantile labels)
  for scraping or offline ``promtool`` analysis.
- :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome
  trace-event JSON loadable in Perfetto (https://ui.perfetto.dev): one
  track per subnet carrying the cross-net hop spans and checkpoint
  anchoring spans (simulated time), plus a DispatchBus profile track
  (wall-clock CPU attribution per event label).
"""

from __future__ import annotations

import json
import re
from typing import Optional

from repro.sim.metrics import _json_safe

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def telemetry_snapshot(
    sim,
    tracer=None,
    probe=None,
    monitor=None,
    profiler=None,
    wall_seconds: Optional[float] = None,
    extra: Optional[dict] = None,
    rounds=None,
) -> dict:
    """One JSON-safe document describing a finished (or running) run."""
    metrics = sim.metrics
    snapshot = {
        "schema": "repro.telemetry/v1",
        "sim": {
            "now": sim.now,
            "events_executed": sim.events_executed,
            "seed": sim.seed,
        },
        "wall_seconds": wall_seconds,
        "counters": {n: c.value for n, c in sorted(metrics.counters.items())},
        "gauges": {n: _json_safe(g.value) for n, g in sorted(metrics.gauges.items())},
        "histograms": {n: h.summary() for n, h in sorted(metrics.histograms.items())},
        "series": {
            n: {
                "points": len(s.points),
                "first": list(s.points[0]) if s.points else None,
                "last": list(s.points[-1]) if s.points else None,
            }
            for n, s in sorted(metrics.series.items())
        },
        "dispatch": sim.dispatch.summary(),
        "trace_log": {"records": len(sim.trace), "dropped": sim.trace.dropped},
    }
    if tracer is not None:
        snapshot["spans"] = tracer.summary()
    if probe is not None:
        snapshot["health"] = {path: dict(s) for path, s in sorted(probe.latest.items())}
    if monitor is not None:
        snapshot["invariants"] = monitor.summary()
    if profiler is not None:
        snapshot["profile"] = profiler.snapshot()
    if rounds is not None:
        snapshot["rounds"] = rounds.summary()
    if extra:
        snapshot["extra"] = extra
    return snapshot


def write_json(path: str, snapshot: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=False, allow_nan=False)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
#: The declared metric surface: every family the system emits, keyed by a
#: dotted name pattern (``*`` = one interpolated segment, e.g. a subnet
#: path; a trailing ``*`` covers one or more), mapping to its Prometheus
#: type and HELP text.  ``repro.lint``'s MET001 cross-checks this table
#: against every emit site in the tree — both ways — so keep it in sync
#: when adding or renaming metrics.  Interpolated values (subnet paths,
#: node ids, dispatch labels) never contain dots.
METRIC_CATALOG: dict = {
    # net/transport
    "net.sent": ("counter", "messages handed to the transport"),
    "net.delivered": ("counter", "messages delivered to a registered peer"),
    "net.latency": ("summary", "per-message simulated delivery latency"),
    "net.partitioned_drops": ("counter", "messages dropped by an active partition"),
    "net.lost": ("counter", "messages dropped by random loss"),
    # net/gossip
    "gossip.published": ("counter", "pubsub messages published"),
    "gossip.delivered": ("counter", "pubsub deliveries to subscriber handlers"),
    "gossip.latency": ("summary", "publish-to-handler simulated latency"),
    # chain/runtime (per-subnet)
    "chain.*.blocks": ("gauge", "blocks committed (event series)"),
    "chain.*.txs": ("gauge", "transactions committed (event series)"),
    "chain.*.invalid_blocks": ("counter", "blocks rejected by validation"),
    "chain.*.reorgs": ("counter", "chain reorganisations applied"),
    "chain.*.reorg.depth": ("summary", "depth of applied reorgs"),
    "chain.*.state_mismatch": ("counter", "blocks rejected on state-root mismatch"),
    "chain.*.sync_blocks": ("counter", "blocks applied via range sync"),
    "chain.*.sync_failed": ("counter", "failed block-range sync attempts"),
    # state
    "state.root.buckets_rehashed": ("gauge", "buckets rehashed by the last incremental root"),
    "state.tree.layer_depth": ("gauge", "depth of the state hash tree"),
    # consensus engines (per-subnet)
    "consensus.*.proposed": ("counter", "blocks proposed by this engine"),
    "consensus.*.mined": ("counter", "blocks mined (PoW)"),
    "consensus.*.accepted": ("counter", "proposals accepted"),
    "consensus.*.rejected": ("counter", "proposals rejected"),
    "consensus.*.withheld": ("counter", "proposals withheld by a byzantine engine"),
    "consensus.*.votes_withheld": ("counter", "votes withheld by a byzantine engine"),
    "consensus.*.equivocations_sent": ("counter", "equivocating proposals sent"),
    "consensus.*.equivocations_observed": ("counter", "equivocations observed"),
    "consensus.*.round_skips": ("counter", "rounds skipped on timeout"),
    "consensus.*.rounds": ("counter", "consensus rounds started"),
    "consensus.*.caught_up": ("counter", "catch-up syncs completed"),
    "consensus.*.committed": ("counter", "blocks committed by consensus"),
    "consensus.*.block_interval": ("summary", "inter-block simulated time"),
    "consensus.*.commit_round": ("summary", "round number at commit"),
    # consensus round tracer (per-subnet)
    "consensus.round.*.duration": ("summary", "simulated duration of a round"),
    "consensus.round.*.per_height": ("summary", "rounds needed per committed height"),
    "consensus.round.*.skips": ("counter", "round skips observed by the tracer"),
    "consensus.round.*.timeouts": ("counter", "round timeouts observed by the tracer"),
    "consensus.round.*.locks": ("counter", "value locks observed by the tracer"),
    "consensus.round.*.height": ("gauge", "current working height"),
    "consensus.round.*.number": ("gauge", "current round number"),
    "consensus.round.*.quorum_power": ("gauge", "power required for quorum"),
    "consensus.round.*.prevote_power": ("gauge", "prevote power held at the frontier"),
    "consensus.round.*.precommit_power": ("gauge", "precommit power held at the frontier"),
    # hierarchy: checkpointing (per-subnet) and anchoring spans
    "checkpoint.*.submitted": ("counter", "checkpoints submitted to the parent"),
    "checkpoint.*.equivocations": ("counter", "checkpoint equivocations detected"),
    "checkpoint.*.fraud_proofs": ("counter", "checkpoint fraud proofs accepted"),
    "checkpoint.lag": ("summary", "seal-to-commit lag of anchored checkpoints"),
    "checkpoint.lag.L*": ("summary", "checkpoint lag by source-subnet level"),
    "checkpoint.hop.seal_to_submit": ("summary", "checkpoint seal-to-submit hop time"),
    "checkpoint.hop.submit_to_commit": ("summary", "checkpoint submit-to-commit hop time"),
    # hierarchy: cross-net messaging (per-subnet)
    "crossmsg.*.topdown_ok": ("counter", "top-down cross-messages applied"),
    "crossmsg.*.topdown_failed": ("counter", "top-down cross-messages failed"),
    "crossmsg.*.bottomup_ok": ("counter", "bottom-up cross-messages applied"),
    "crossmsg.*.bottomup_failed": ("counter", "bottom-up cross-messages failed"),
    "crosspool.*.topdown_seen": ("counter", "top-down cross-messages pooled"),
    "crosspool.*.bottomup_seen": ("counter", "bottom-up cross-messages pooled"),
    # hierarchy: content resolution
    "resolution.push_sent": ("counter", "content pushes sent"),
    "resolution.push_stored": ("counter", "pushed content stored"),
    "resolution.push_dropped": ("counter", "pushed content dropped (cache full)"),
    "resolution.pull_sent": ("counter", "content pulls sent"),
    "resolution.pull_served": ("counter", "content pulls served"),
    "resolution.pull_miss": ("counter", "content pulls that missed"),
    "resolution.resolved": ("counter", "contents resolved end-to-end"),
    "resolution.bad_content": ("counter", "contents failing CID verification"),
    # hierarchy: checkpoint acceleration
    "accel.certified": ("counter", "acceleration certificates issued"),
    "accel.received": ("counter", "acceleration certificates received"),
    "accel.settled": ("counter", "accelerated checkpoints settled"),
    "accel.expired": ("counter", "acceleration certificates expired"),
    "accel.bad_certificates": ("counter", "invalid acceleration certificates"),
    # telemetry: cross-net span tracer
    "xnet.spans.started": ("counter", "cross-net spans started"),
    "xnet.spans.delivered": ("counter", "cross-net spans delivered"),
    "xnet.spans.failed": ("counter", "cross-net spans failed"),
    "xnet.hop.submit": ("summary", "submit-to-enqueue hop time"),
    "xnet.hop.submit.L*": ("summary", "submit hop time by source level"),
    "xnet.hop.topdown": ("summary", "top-down hop time"),
    "xnet.hop.topdown.L*": ("summary", "top-down hop time by level"),
    "xnet.hop.bottomup": ("summary", "bottom-up hop time"),
    "xnet.hop.bottomup.L*": ("summary", "bottom-up hop time by level"),
    "xnet.e2e.topdown": ("summary", "end-to-end top-down delivery time"),
    "xnet.e2e.bottomup": ("summary", "end-to-end bottom-up delivery time"),
    "xnet.e2e.path": ("summary", "end-to-end delivery time via an LCA path"),
    # telemetry: invariant monitor
    "invariant.violations": ("counter", "invariant violations recorded (all auditors)"),
    "invariant.*.violations": ("counter", "invariant violations per auditor"),
    "invariant.exactly_once.fork_replays": ("counter", "cross-message replays on rival forks"),
    "invariant.exactly_once.nonce_gaps": ("counter", "cross-message nonce gaps observed"),
    # telemetry: health probe (per-subnet time series)
    "health.*.height": ("gauge", "subnet chain height over time"),
    "health.*.mempool": ("gauge", "subnet mempool depth over time"),
    "health.*.pending_crossmsgs": ("gauge", "pending cross-messages over time"),
    "health.*.checkpoint_lag": ("gauge", "checkpoint lag over time"),
    # telemetry: sampling profiler
    "profile.samples": ("gauge", "profiler samples taken"),
    "profile.interval_s": ("gauge", "profiler sampling interval"),
    "profile.sampler_s": ("gauge", "wall time spent inside the sampler"),
    "profile.cpu_share.*": ("gauge", "sampled CPU share per dispatch label"),
    "profile.alloc_bytes.*": ("gauge", "sampled allocation bytes per dispatch label"),
    "mem.allocated_blocks": ("gauge", "tracemalloc allocated blocks"),
    "mem.*": ("gauge", "process memory info fields"),
    # sim scheduler / dispatch bus
    "sim.dispatch.*.events": ("gauge", "events executed per dispatch label"),
    "sim.dispatch.*.wall_s": ("gauge", "cumulative wall time per dispatch label"),
    "sim.dispatch.*.wall_max_s": ("gauge", "max single-event wall time per label"),
    "sim.timer.errors.*": ("counter", "exceptions raised by a recurring timer"),
    # storage CID cache (emitted by the benchmark harness)
    "cid.cache.*": ("counter", "content-id cache hits/misses by kind"),
}


def _catalog_entry(raw: str):
    """The ``(type, help)`` catalog entry a raw metric name falls under.

    Exact match wins; otherwise the most specific (longest) wildcard
    pattern, with ``*`` matching any run — good enough for HELP lookup
    since interpolated values never contain dots.
    """
    entry = METRIC_CATALOG.get(raw)
    if entry is not None:
        return entry
    for pattern in sorted(METRIC_CATALOG, key=lambda p: (-len(p), p)):
        if "*" not in pattern:
            continue
        regex = re.escape(pattern).replace("\\*", ".*")
        if re.fullmatch(regex, raw):
            return METRIC_CATALOG[pattern]
    return None


def _prom_name(name: str) -> str:
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return cleaned


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` payload per the text exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def to_prometheus(sim) -> str:
    """Render the sim's metrics registry in Prometheus text format.

    Each family gets ``# HELP`` (the original dotted metric name — the
    sanitised family name loses it — plus the :data:`METRIC_CATALOG`
    description when the name falls under a declared family) and
    ``# TYPE`` lines, and label values are escaped, so the output passes
    ``promtool check metrics``.
    """
    metrics = sim.metrics
    lines: list[str] = []
    emitted: set = set()

    def emit(name: str, raw: str, kind: str, body: list) -> None:
        if name in emitted:  # sanitisation collision: keep the first
            return
        emitted.add(name)
        entry = _catalog_entry(raw)
        help_text = raw if entry is None else f"{raw}: {entry[1]}"
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(body)

    for raw, counter in sorted(metrics.counters.items()):
        name = _prom_name(raw)
        emit(name, raw, "counter", [f"{name} {counter.value}"])
    for raw, gauge in sorted(metrics.gauges.items()):
        name = _prom_name(raw)
        emit(name, raw, "gauge", [f"{name} {_fmt(gauge.value)}"])
    for raw, histogram in sorted(metrics.histograms.items()):
        name = _prom_name(raw)
        summary = histogram.summary()
        body = []
        for label, quantile in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
            value = summary[label]
            if value is not None:
                quantile_value = _escape_label_value(quantile)
                body.append(f'{name}{{quantile="{quantile_value}"}} {_fmt(value)}')
        body.append(f"{name}_count {summary['count']}")
        body.append(f"{name}_sum {_fmt(histogram.total)}")
        emit(name, raw, "summary", body)
    for raw, series in sorted(metrics.series.items()):
        name = _prom_name(raw)
        if series.points:
            emit(name, raw, "gauge", [f"{name} {_fmt(series.points[-1][1])}"])
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def write_prometheus(path: str, sim) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_prometheus(sim))
    return path


# ----------------------------------------------------------------------
# Chrome trace events (Perfetto)
# ----------------------------------------------------------------------
_SUBNET_PID = 1
_DISPATCH_PID = 2
_PROFILE_PID = 3
_ROUNDS_PID = 4


def to_chrome_trace(
    sim, tracer=None, top_dispatch: int = 16, profiler=None, rounds=None
) -> dict:
    """Chrome trace-event JSON: subnet span tracks + a dispatch profile.

    Cross-net/checkpoint spans use **simulated** microseconds; the
    dispatch track lays each label's cumulative **wall-clock** time
    end-to-end (a profile, not a timeline).  Passing a
    :class:`~repro.telemetry.profiler.SamplingProfiler` adds a third
    process: per-label sampled-CPU slices (samples × interval laid
    end-to-end, top leaf frames in the args) and an RSS counter track on
    the profiler's real wall-clock timeline.  A
    :class:`~repro.telemetry.rounds.RoundTracer` (``rounds``, e.g.
    ``system.round_tracer``) adds a fourth process: one track per
    validator carrying its consensus rounds as slices (``h12 r0`` …) with
    votes, locks, timeouts and commits as instant events inside them.
    """
    events: list[dict] = []
    events.append(_meta(_SUBNET_PID, "process_name", name="subnets (simulated time)"))

    if tracer is not None:
        subnets: set = set()
        for span_events in tracer.traces.values():
            subnets.update(event.subnet for event in span_events)
        for entry in tracer.checkpoints.values():
            subnets.update(
                entry[k] for k in ("source", "parent") if entry.get(k) is not None
            )
        tids = {path: i + 1 for i, path in enumerate(sorted(subnets))}
        for path, tid in tids.items():
            events.append(_meta(_SUBNET_PID, "thread_name", tid=tid, name=path))

        for trace_id in sorted(tracer.traces):
            span_events = tracer.traces[trace_id]
            info = tracer.trace_info.get(trace_id, {})
            for prev, cur in zip(span_events, span_events[1:]):
                events.append({
                    "name": f"{prev.subnet} → {cur.subnet} ({cur.phase})",
                    "cat": "xnet",
                    "ph": "X",
                    "ts": prev.time * 1e6,
                    "dur": max((cur.time - prev.time) * 1e6, 1.0),
                    "pid": _SUBNET_PID,
                    "tid": tids[cur.subnet],
                    "args": {
                        "trace": trace_id[:16],
                        "value": info.get("value"),
                        "to_subnet": info.get("to_subnet"),
                    },
                })
            last = span_events[-1]
            events.append({
                "name": f"xnet.{last.phase}",
                "cat": "xnet",
                "ph": "i",
                "s": "t",
                "ts": last.time * 1e6,
                "pid": _SUBNET_PID,
                "tid": tids[last.subnet],
                "args": {"trace": trace_id[:16]},
            })

        for ckpt_hex in sorted(tracer.checkpoints):
            entry = tracer.checkpoints[ckpt_hex]
            sealed, committed = entry.get("sealed"), entry.get("committed")
            source = entry.get("source")
            if sealed is None or committed is None or source not in tids:
                continue
            events.append({
                "name": f"checkpoint w{entry.get('window')}",
                "cat": "checkpoint",
                "ph": "X",
                "ts": sealed * 1e6,
                "dur": max((committed - sealed) * 1e6, 1.0),
                "pid": _SUBNET_PID,
                "tid": tids[source],
                "args": {"cid": ckpt_hex[:16], "parent": entry.get("parent")},
            })

    events.append(_meta(_DISPATCH_PID, "process_name", name="dispatch profile (wall clock)"))
    events.append(_meta(_DISPATCH_PID, "thread_name", tid=1, name="cumulative wall time"))
    offset = 0.0
    for row in sim.dispatch.summary()[:top_dispatch]:
        duration = max(row["wall_s"] * 1e6, 1.0)
        events.append({
            "name": row["label"],
            "cat": "dispatch",
            "ph": "X",
            "ts": offset,
            "dur": duration,
            "pid": _DISPATCH_PID,
            "tid": 1,
            "args": {"events": row["events"], "mean_us": row["mean_s"] * 1e6},
        })
        offset += duration

    if profiler is not None:
        snapshot = profiler.snapshot()
        events.append(
            _meta(_PROFILE_PID, "process_name", name="cpu profile (sampled wall clock)")
        )
        events.append(
            _meta(_PROFILE_PID, "thread_name", tid=1, name="samples by dispatch label")
        )
        interval_us = snapshot["interval_s"] * 1e6
        offset = 0.0
        for label, row in snapshot["labels"].items():
            if not row["samples"]:
                continue
            duration = max(row["samples"] * interval_us, 1.0)
            events.append({
                "name": label,
                "cat": "profile",
                "ph": "X",
                "ts": offset,
                "dur": duration,
                "pid": _PROFILE_PID,
                "tid": 1,
                "args": {
                    "samples": row["samples"],
                    "cpu_share": row["cpu_share"],
                    "alloc_bytes": row["alloc_bytes"],
                    "top_frames": [frame for frame, _ in row["top_frames"][:5]],
                },
            })
            offset += duration
        for elapsed, rss in profiler.rss_series():
            events.append({
                "name": "mem.rss_bytes",
                "cat": "profile",
                "ph": "C",
                "ts": elapsed * 1e6,
                "pid": _PROFILE_PID,
                "args": {"bytes": rss},
            })

    if rounds is not None:
        events.extend(_round_events(rounds))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _round_events(rounds) -> list:
    """Per-validator consensus-round tracks (simulated time).

    Each validator gets a thread; ``round_start``/``round_skip`` entries
    become slices spanning until the next round boundary (or commit), and
    every other event kind lands inside as an instant with its fields.
    """
    events: list[dict] = []
    events.append(
        _meta(_ROUNDS_PID, "process_name", name="consensus rounds (simulated time)")
    )
    keys = sorted(rounds.timelines)
    tids = {key: i + 1 for i, key in enumerate(keys)}
    for key, tid in tids.items():
        subnet, node_id = key
        events.append(_meta(_ROUNDS_PID, "thread_name", tid=tid, name=node_id))
        timeline = rounds.timeline(subnet, node_id)
        open_slice = None  # (start_ts, name, fields)

        def close(end_ts: float) -> None:
            nonlocal open_slice
            if open_slice is None:
                return
            start, name, fields = open_slice
            events.append({
                "name": name,
                "cat": "round",
                "ph": "X",
                "ts": start * 1e6,
                "dur": max((end_ts - start) * 1e6, 1.0),
                "pid": _ROUNDS_PID,
                "tid": tid,
                "args": fields,
            })
            open_slice = None

        for time, kind, fields in timeline:
            if kind in ("round_start", "round_skip"):
                close(time)
                name = f"h{fields.get('height')} r{fields.get('round')}"
                if kind == "round_skip":
                    name += " (skip)"
                open_slice = (time, name, dict(fields))
            else:
                events.append({
                    "name": kind,
                    "cat": "round",
                    "ph": "i",
                    "s": "t",
                    "ts": time * 1e6,
                    "pid": _ROUNDS_PID,
                    "tid": tid,
                    "args": dict(fields),
                })
                if kind == "commit":
                    close(time)
        if open_slice is not None and timeline:
            close(timeline[-1][0])
    return events


def _meta(pid: int, kind: str, tid: int = 0, name: str = "") -> dict:
    return {
        "name": kind,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def write_chrome_trace(
    path: str, sim, tracer=None, top_dispatch: int = 16, profiler=None, rounds=None
) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            to_chrome_trace(sim, tracer, top_dispatch, profiler=profiler, rounds=rounds),
            handle,
            allow_nan=False,
        )
        handle.write("\n")
    return path
