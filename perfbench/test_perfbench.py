"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench -q

They run each workload at a reduced size, once untraced and once traced,
and check that tracing does not change what is simulated, that every
per-layer ``.calls`` metric is nonzero on the workloads predicted to load
its layer (``predictions.json``), and that the telemetry plane reads 0
wherever the planes are off.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hc_workloads  # noqa: E402
import run as bench  # noqa: E402
from calibration import ReferenceWork  # noqa: E402
from layer_trace import LayerTracer  # noqa: E402

#: Reduced sizes that still cross a checkpoint window, deliver bottom-up
#: messages, and crash and restart the bft-state validator.
SMALL = {
    "flat-pay": hc_workloads.FlatPay(load_s=4.0, drain_s=8.0),
    "deep-xnet": hc_workloads.DeepXnet(load_s=4.0, drain_s=10.0),
    "bft-state": hc_workloads.BftState(load_s=12.0, drain_s=6.0),
}
PLANES_ON = {"deep-xnet"}


def _predictions() -> dict:
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as handle:
        return json.load(handle)["predictions"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """name -> (untraced record, traced record, per-layer metrics)."""
    out_dir = str(tmp_path_factory.mktemp("perfbench"))
    reference = ReferenceWork(pool_size=1_000, steps=50)
    results = {}
    for name, workload in SMALL.items():
        untraced = hc_workloads.run_repeat(workload, 7, out_dir, reference)
        tracer = LayerTracer()
        traced = hc_workloads.run_repeat(workload, 7, out_dir, reference, tracer=tracer)
        results[name] = (untraced, traced, bench.per_layer([(traced, tracer)], [untraced]))
    return results


@pytest.mark.parametrize("name", sorted(SMALL))
def test_runs_are_correct(runs, name):
    untraced, traced, _ = runs[name]
    assert untraced["problems"] == []
    assert traced["problems"] == []
    assert untraced["committed_ops"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_does_not_change_the_simulation(runs, name):
    untraced, traced, _ = runs[name]
    for key in bench.DETERMINISTIC:
        assert traced[key] == untraced[key], key


def test_calls_metrics_load_their_predicted_layers(runs):
    predictions = _predictions()
    calls = [m for m in predictions if m.endswith(".calls") or m.endswith(".requests")]
    assert calls
    for metric in calls:
        for name in predictions[metric]["on"]:
            assert runs[name][2][metric] > 0, f"{metric} is 0 on {name}"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_telemetry_reads_zero_when_planes_are_off(runs, name):
    value = runs[name][2]["telemetry.self_s"]
    if name in PLANES_ON:
        assert value > 0
    else:
        assert value == 0


def test_per_layer_metrics_match_the_benchmark_file(runs):
    declared = bench.declared_metrics()["per_layer"]
    for name in SMALL:
        assert set(runs[name][2]) == set(declared)
    assert set(_predictions()) == set(declared)


def test_tracer_patches_copied_bindings_and_restores_them():
    import repro.crypto.cid as cid_module
    import repro.storage.statetree as statetree
    import repro.vm.message as message
    from repro.crypto.signature import sign, verify
    from repro.storage.statetree import StateTree

    originals = (message.sign, message.verify, statetree.cid_of, StateTree.root)
    tracer = LayerTracer().install()
    try:
        assert message.sign is not sign and message.sign.__wrapped__ is sign
        assert message.verify.__wrapped__ is verify
        assert statetree.cid_of.__wrapped__ is cid_module.__dict__["cid_of"].__wrapped__
        assert StateTree.__dict__["root"].__wrapped__ is originals[3]
    finally:
        tracer.uninstall()
    assert (message.sign, message.verify, statetree.cid_of, StateTree.root) == originals


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = LayerTracer(clock=lambda: float(next(ticks)))
    tracer.install()
    try:
        from repro.crypto.cid import cid_of

        tracer.active = True
        cid_of(("a", 1))  # cid_of -> canonical_encode: one child span
        tracer.active = False
    finally:
        tracer.uninstall()
    cid = tracer.stat("crypto.cid")
    encode = tracer.stat("crypto.encode")
    assert (cid["calls"], encode["calls"]) == (1, 1)
    assert encode["self_s"] == encode["total_s"] == 1.0
    assert cid["total_s"] == 3.0 and cid["self_s"] == 2.0
    assert tracer.span_count == 2
    assert list(tracer.span_parent) == [-1, 0]
