"""Tests for the benchmark's tracer, layer wrappers and percentile rule."""

from __future__ import annotations

import json
import random
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import NO_PARENT, Patches, Tracer  # noqa: E402
from worker import percentiles, run_pass  # noqa: E402


def scripted_clock(*times: float):
    readings = iter(times)
    return lambda: next(readings)


def test_nested_span_self_time_excludes_the_child():
    tracer = Tracer(clock=scripted_clock(0.0, 1.0, 4.0, 10.0))
    outer = tracer.enter("outer")
    inner = tracer.enter("inner")
    tracer.exit(inner)
    tracer.exit(outer)
    assert tracer.parents == [NO_PARENT, outer]
    assert tracer.span_self(outer) == 7.0
    assert tracer.span_self(inner) == 3.0


def test_sibling_spans_are_both_subtracted_and_grandchildren_only_once():
    tracer = Tracer(clock=scripted_clock(0.0, 1.0, 3.0, 5.0, 6.0, 8.0, 9.0, 10.0))
    outer = tracer.enter("outer")
    first = tracer.enter("child")
    tracer.exit(first)
    second = tracer.enter("child")
    grandchild = tracer.enter("leaf")
    tracer.exit(grandchild)
    tracer.exit(second)
    tracer.exit(outer)
    assert tracer.span_self(outer) == 10.0 - 2.0 - 4.0
    assert tracer.span_self(second) == 4.0 - 2.0
    assert tracer.self_times() == {"outer": 4.0, "child": 4.0, "leaf": 2.0}
    assert tracer.calls() == {"child": 2, "outer": 1, "leaf": 1}


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_wrapped_call_that_raises_still_closes_its_span():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(fail, "failing")()
    assert tracer.names == ["failing"]
    assert tracer.ends[0] >= tracer.starts[0]
    assert not tracer._open


def test_spans_record_the_unit_and_are_written_out(tmp_path):
    tracer = Tracer()
    tracer.unit = 7
    tracer.wrap(lambda: None, "step")()
    path = tmp_path / "spans.tsv"
    tracer.write(path)
    header, row = path.read_text().splitlines()
    assert header.split("\t") == ["index", "name", "start", "end", "parent", "unit"]
    assert row.split("\t")[1] == "step" and row.split("\t")[-1] == "7"


def test_rebind_reaches_every_module_and_restore_undoes_it():
    def original():
        return "original"

    first = types.ModuleType("first")
    second = types.ModuleType("second")
    first.f = original
    second.alias = original
    second.other = len
    patches = Patches()
    assert patches.rebind([first, second], original, lambda: "replaced") == 2
    assert first.f() == second.alias() == "replaced"
    patches.restore()
    assert first.f is original and second.alias is original and second.other is len


def test_p90_needs_at_least_100_samples():
    assert set(percentiles([float(i) for i in range(99)])) == {"p50"}
    samples = [float(i) for i in range(100)]
    result = percentiles(samples)
    assert result["p50"] == 49.5
    assert result["p90"] == 89.0
    assert sum(1 for s in samples if s > result["p90"]) == 10


def _bindings(modules, classes) -> dict:
    snapshot = {}
    for owner in list(modules) + list(classes):
        for attr, value in vars(owner).items():
            snapshot[(id(owner), attr)] = value
    return snapshot


def test_traced_run_restores_every_wrapped_name():
    modules = layers.package_modules() + [workloads]
    classes = [layers.numerics.RMatrix] + layers.algorithm_classes()
    before = _bindings(modules, classes)
    rng = random.Random("tracer-test")
    units = [workloads.stream_unit(workloads.stream_spec(kind, rng, 12))
             for kind in ("dlr", "triangulation", "kcenter", "max_echo")]
    tracer = Tracer()
    patches = layers.install(tracer, modules)
    try:
        assert workloads.scenario_from_dict is not before[(id(workloads), "scenario_from_dict")]
        records = run_pass(units, tracer)
    finally:
        patches.restore()
    after = _bindings(modules, classes)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert all(passed for _, _, passed, _ in records)

    metrics = layers.layer_metrics(tracer, units=48, overhead_ratio=1.0)
    assert metrics.keys() == layers.PER_LAYER.keys()
    assert metrics["protocol.runs"] == 4
    assert metrics["algorithms.clustering.calls"] > 0
    assert metrics["numerics.solve.calls"] > 0
    assert metrics["strategies.infer.calls"] >= 2
    assert metrics["scenario.trace.bytes"] > 0
    assert metrics["protocol.polls"] >= metrics["protocol.wishes"] >= metrics["protocol.ledger_updates"]
    assert set(tracer.units) == {0, 1, 2, 3}


def test_benchmark_file_names_every_metric_the_runs_report():
    path = BENCH.parent / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json next to the benchmark")
    spec = json.loads(path.read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    for metric in spec["per_layer"]:
        assert (metric["unit"], metric["better"]) == layers.PER_LAYER[metric["name"]]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
