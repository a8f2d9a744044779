"""Self-tests of the benchmark: its checks catch corrupted results, and
the tracer's self-time arithmetic is right."""

import dataclasses
import json
import types
from pathlib import Path

import pytest

import layers
import tracing
import worker
import workloads
from gibbscode import duality, gexit

ROOT = Path(__file__).resolve().parent.parent


def failed_frac(calls, outdir):
    failures, _ = workloads.run_pass(calls, outdir)
    return len(failures) / len(calls)


def workload_call(workload, name, outdir):
    return [c for c in workloads.build(workload, 3, outdir) if c.name == name]


def test_self_times_on_nested_spans():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("b", 5.0, 9.0, 0),
             ("c", 6.0, 7.0, 2),
             ("c", 7.5, 8.0, 2),
             ("a", 8.25, 8.5, 2)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.25, 1.0, 0.5, 0.25])
    totals = tracing.by_name(spans)
    assert totals["a"] == (2, pytest.approx(3.25))
    assert totals["c"] == (2, pytest.approx(1.5))
    # untraced work inside a span is charged to neither it nor its parent
    tracing.add_leaves(spans, "ref", [(0.5, 0.75), (2.0, 2.5), (8.0, 8.2)])
    assert [s[3] for s in spans[-3:]] == [0, 1, 2]
    assert tracing.self_times(spans)[:3] == pytest.approx([2.75, 2.5, 2.05])


def test_reference_time_weights_stretches_by_length():
    speed = worker.HostSpeed(period=1.0)
    speed.marks = [(0.0, 1.0), (2.0, 1.0), (10.0, 3.0)]
    # stretches of 1 s at kernel time 1 and 7 s at kernel time (1 + 3) / 2
    assert speed.reference_s() == pytest.approx((1 * 1.0 + 7 * 2.0) / 8)
    assert speed.overhead_s() == 5.0


def test_tracer_links_wrapped_calls_and_restores():
    tracer = tracing.Tracer()
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer.patch(mod, "inner", "inner", lambda t, out, args, kwargs: t.add("seen", out))
    tracer.patch(mod, "outer", "outer")
    with tracer.span("root"):
        assert mod.outer(1) == 4
    tracer.restore()
    assert mod.inner is original
    names = {span[0]: (i, span[3]) for i, span in enumerate(tracer.spans)}
    assert names["root"][1] == -1
    assert names["outer"][1] == names["root"][0]
    assert names["inner"][1] == names["outer"][0]
    assert tracer.counts == {"seen": 2}


def test_corrupted_gexit_value_raises_failed_frac(tmp_path, monkeypatch):
    calls = workload_call("fixed-gexit", "bsc-ldpc-rep3", tmp_path)
    assert failed_frac(calls, tmp_path) == 0.0
    bp_gexit = gexit.bp_gexit

    def perturbed(*args):
        est = bp_gexit(*args)
        return dataclasses.replace(est, value=est.value + 1e-6)

    monkeypatch.setattr(gexit, "bp_gexit", perturbed)
    assert failed_frac(calls, tmp_path) == 1.0


def test_failing_check_experiment_raises_failed_frac(tmp_path, monkeypatch):
    calls = workload_call("bp-checks", "duality-check", tmp_path)
    assert failed_frac(calls, tmp_path) == 0.0
    monkeypatch.setattr(duality, "macwilliams_log_residual", lambda *args: 1.0)
    assert failed_frac(calls, tmp_path) == 1.0


def test_traced_pass_reports_the_listed_layers(tmp_path):
    calls = workload_call("fixed-gexit", "bsc-ldpc-rep3", tmp_path)
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        failures, counts = workloads.run_pass(calls, tmp_path, tracer.span)
    finally:
        tracer.restore()
    assert failures == {}
    values = layers.metrics(tracer)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    assert set(values) | {"trace.overhead_frac"} == listed
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert values["exact.posterior.calls"] > 0 and values["bp.flood.calls"] > 0
    assert values["exact.table.builds"] == 1
    assert values["exact.table.hits"] == values["exact.posterior.calls"] - 1
