#!/usr/bin/env python3
"""Benchmark of the hierarchical-consensus simulator.

Usage, from the repository root::

    python3 perfbench/run.py                         # every workload, one process each
    python3 perfbench/run.py --workload flat-pay --seed 3 --seconds 10 --trace 0

With ``--trace 0`` a run repeats the workload (set-up plus measured phase)
until its measured phases add up to ``--seconds`` of calibrated CPU time
(see ``calibration.py``), at least three times, and reports the
end-to-end metrics over all repeats.  With
``--trace 1`` it alternates untraced and traced repeats of the same seed
and reports the per-layer metrics.  The metric names and units are the
ones listed in ``BENCHMARK.json``; see ``perfbench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when a correctness check fails or the repository's ``src/``
tree is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("flat-pay", "deep-xnet", "bft-state")
MIN_REPEATS = 3
#: Stop adding repeats after this many wall seconds, so that a run on a
#: slow host still ends well inside its time limit.
WALL_LIMIT_S = 100.0

#: Per-layer ``.calls``/``.self_s`` metrics read straight off one tracer key.
TRACED_CALLS = {
    "net.publish.calls": "net.publish",
    "net.send.calls": "net.send",
    "net.rpc.calls": "net.rpc",
    "consensus.handle.calls": "consensus.handle",
    "chain.mempool_add.calls": "chain.mempool_add",
    "chain.add_block.calls": "chain.add_block",
    "runtime.receive_block.calls": "runtime.receive_block",
    "vm.apply_message.calls": "vm.apply_message",
    "vm.copy.calls": "vm.copy",
    "storage.root.calls": "storage.root",
    "storage.fork.calls": "storage.fork",
    "crypto.encode.calls": "crypto.encode",
    "crypto.cid.calls": "crypto.cid",
    "crypto.sign.calls": "crypto.sign",
    "crypto.verify.calls": "crypto.verify",
    "hierarchy.apply_cross.calls": "hierarchy.apply_cross",
    "hierarchy.resolution.requests": "hierarchy.resolution",
}
TRACED_SELF = {
    "sim.dispatch_self_s": "sim.dispatch",
    "net.publish.self_s": "net.publish",
    "consensus.handle.self_s": "consensus.handle",
    "chain.mempool_add.self_s": "chain.mempool_add",
    "chain.mempool_select.self_s": "chain.mempool_select",
    "runtime.receive_block.self_s": "runtime.receive_block",
    "runtime.assemble_block.self_s": "runtime.assemble_block",
    "vm.apply_message.self_s": "vm.apply_message",
    "storage.root.self_s": "storage.root",
    "crypto.encode.self_s": "crypto.encode",
    "crypto.cid.self_s": "crypto.cid",
    "crypto.verify.self_s": "crypto.verify",
    "hierarchy.checkpoint.self_s": "hierarchy.checkpoint",
    "hierarchy.crossmsg_pool.self_s": "hierarchy.crossmsg_pool",
    "hierarchy.apply_cross.self_s": "hierarchy.apply_cross",
    "telemetry.self_s": "telemetry",
    "workloads.submit.self_s": "workloads.submit",
    "workloads.observe.self_s": "workloads.observe",
}
#: Counts that are a pure function of (workload, seed): every repeat and
#: the traced run must reproduce them exactly.
DETERMINISTIC = (
    "digest", "events", "timeouts", "attempted", "failed", "committed_ops",
    "blocks", "messages", "backlog_max", "commit_p50_s", "commit_p99_s",
)


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        section: {entry["name"]: entry["unit"] for entry in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def end_to_end(records: list) -> dict:
    """End-to-end metrics; every repeat does the same work, so throughputs
    are totals over all repeats divided by their summed CPU time."""
    first = records[0]
    cpu = sum(r["measure_cpu_s"] for r in records)
    return {
        "tx_per_cpu_s": sum(r["committed_ops"] for r in records) / cpu,
        "blocks_per_cpu_s": sum(r["blocks"] for r in records) / cpu,
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tx_per_sim_s": first["committed_ops"] / first["sim_s"],
        "commit_p50_s": first["commit_p50_s"],
        "commit_p99_s": first["commit_p99_s"],
    }


def per_layer(traced: list, untraced: list) -> dict:
    """Per-layer metrics from traced repeats (times are medians)."""
    first, tracer = traced[0]
    ops = max(first["committed_ops"], 1)

    def stat(key, field):
        # Span times are scaled by their repeat's calibration factor, so
        # they are in the same reference CPU seconds as the end-to-end metrics.
        return statistics.median(
            t.stat(key)[field] * r["measure_cpu_s"] / r["measure_raw_s"] for r, t in traced
        )

    metrics = {name: tracer.stat(key)["calls"] for name, key in TRACED_CALLS.items()}
    metrics.update({name: stat(key, "self_s") for name, key in TRACED_SELF.items()})
    hits, misses = first["cid_hits"], first["cid_misses"]
    metrics.update({
        "sim.events": first["events"],
        "sim.events_per_op": first["events"] / ops,
        "net.sends_per_op": tracer.stat("net.send")["calls"] / ops,
        "consensus.timeouts": first["timeouts"],
        "chain.mempool_backlog_max": first["backlog_max"],
        "runtime.exec_per_msg": (
            tracer.stat("vm.apply_message")["calls"] / max(first["messages"], 1)
        ),
        "storage.root_s_per_op": stat("storage.root", "total_s") / ops,
        "storage.buckets_rehashed": tracer.buckets_rehashed,
        "crypto.encode.bytes": tracer.encoded_bytes,
        "crypto.cid_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trace.overhead_ratio": (
            statistics.fmean(r["measure_cpu_s"] for r, _ in traced)
            / statistics.fmean(r["measure_cpu_s"] for r in untraced)
        ),
    })
    return metrics


def check_repeats(records: list) -> list:
    problems = []
    for record in records:
        problems.extend(record["problems"])
    for key in DETERMINISTIC:
        values = {repr(record.get(key)) for record in records}
        if len(values) > 1:
            problems.append(f"{key} differs between repeats of one seed: {sorted(values)}")
    return problems


def show(workload: str, seed: int, metrics: dict, units: dict, extra: dict) -> None:
    print(f"workload {workload}  seed {seed}")
    for name, value in list(metrics.items()) + list(extra.items()):
        unit = units.get(name, extra_unit(name))
        print(f"  {name:34s} {value:>16.6g} {unit}")


def extra_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, SRC)
    import hc_workloads
    from calibration import ReferenceWork
    from layer_trace import LayerTracer

    declared = declared_metrics()
    workload = hc_workloads.WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    reference = ReferenceWork()
    untraced, traced = [], []
    spent = 0.0
    deadline = time.monotonic() + WALL_LIMIT_S
    while True:
        record = hc_workloads.run_repeat(workload, seed, OUT_DIR, reference)
        untraced.append(record)
        spent += record["measure_cpu_s"]
        if trace:
            tracer = LayerTracer()
            record = hc_workloads.run_repeat(workload, seed, OUT_DIR, reference, tracer=tracer)
            traced.append((record, tracer))
            spent += record["measure_cpu_s"]
            if len(traced) > 1:
                tracer.clear_spans()  # only the first traced repeat's spans are written
            if spent >= seconds or time.monotonic() > deadline:
                break
        elif len(untraced) >= MIN_REPEATS and (
            spent >= seconds or time.monotonic() > deadline
        ):
            break

    records = untraced + [record for record, _ in traced]
    problems = check_repeats(records)
    if any(tracer.calls != traced[0][1].calls for _, tracer in traced):
        problems.append("traced call counts differ between repeats of one seed")
    if trace:
        metrics = per_layer(traced, untraced)
        units = declared["per_layer"]
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.tsv")
        traced[0][1].write_spans(spans_path)
        print(f"spans: {traced[0][1].span_count} written to {spans_path}")
    else:
        metrics = end_to_end(untraced)
        units = declared["end_to_end"]
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json"
        )
    first = untraced[0]
    extra = {
        key: first[key]
        for key in (
            "xnet_topdown_p50_s", "xnet_topdown_p99_s", "xnet_bottomup_p50_s",
            "xnet_bottomup_p99_s", "xnet_samples", "service_gap_s", "recovery_s",
        )
        if key in first
    }
    extra["failed_ratio"] = first["failed"] / first["attempted"]
    extra["refused"] = first["refused"]
    extra["commit_samples"] = first["commit_samples"]
    extra["committed_ops"] = first["committed_ops"]
    extra["blocks"] = first["blocks"]
    extra["repeats"] = len(records)
    show(name, seed, metrics, units, extra)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": {
            metric: {"value": _number(value), "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def _number(value):
    if isinstance(value, float) and not math.isfinite(value):
        raise SystemExit(f"non-finite metric value {value!r}")
    return value


def run_all(args) -> int:
    """Run each workload in its own process; non-zero if any failed."""
    codes = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        codes[name] = subprocess.run(command, cwd=ROOT).returncode
    print(json.dumps({"correct": not any(codes.values()), "exit_codes": codes}))
    return max(codes.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
