"""The layer boundaries a traced run wraps, and the per-layer metrics.

`install` swaps timing wrappers in for the public functions at each layer
boundary of exclusim and returns the `Patches` that undo it. No program file
is edited: class methods are replaced on their classes, and a module
function is rebound in every module that holds a reference to it, so calls
from inside the package are traced too.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections.abc import Mapping

from exclusim import algorithms, harness, numerics, protocol, scenario, strategies
from tracer import Patches, Tracer

INFERENCE_FUNCTIONS = (
    "max_infer",
    "average_infer",
    "average_infer_from_history",
    "triangulation_infer",
    "triangulation_infer_from_history",
)
HARNESS_ENTRY_POINTS = (
    "check_condition_i",
    "check_condition_i_star",
    "verify_inference",
    "certify_attack",
    "monotonicity_smoke_check",
    "find_confounding_pair",
    "forceable_winner_set",
    "periodic_lambda_confounder",
    "periodic_kcenter_omission_confounder",
)

# name -> (unit, better). Self times and counts are totals over one pass.
PER_LAYER = {
    "numerics.solve.calls": ("count", "lower"),
    "numerics.solve.self_s": ("s", "lower"),
    "numerics.det.calls": ("count", "lower"),
    "numerics.det.self_s": ("s", "lower"),
    "numerics.inverse.calls": ("count", "lower"),
    "algorithms.moments.calls": ("count", "lower"),
    "algorithms.moments.rows": ("count", "lower"),
    "algorithms.moments.self_s": ("s", "lower"),
    "algorithms.compute.calls": ("count", "lower"),
    "algorithms.compute.ledger_payloads": ("count", "lower"),
    "algorithms.compute.self_s": ("s", "lower"),
    "algorithms.clustering.calls": ("count", "lower"),
    "algorithms.clustering.candidates": ("count", "lower"),
    "algorithms.clustering.self_s": ("s", "lower"),
    "protocol.runs": ("count", "lower"),
    "protocol.engine.self_s": ("s", "lower"),
    "protocol.observe.self_s": ("s", "lower"),
    "protocol.polls": ("count", "lower"),
    "protocol.poll_history_items": ("count", "lower"),
    "protocol.broadcasts": ("count", "lower"),
    "protocol.wishes": ("count", "lower"),
    "protocol.ledger_updates": ("count", "lower"),
    "protocol.guard_dropped": ("count", "lower"),
    "protocol.useful_poll_ratio": ("1", "higher"),
    "strategies.decide.self_s": ("s", "lower"),
    "strategies.infer.calls": ("count", "lower"),
    "strategies.infer.self_s": ("s", "lower"),
    "harness.runs_per_unit": ("1", "lower"),
    "harness.self_s": ("s", "lower"),
    "scenario.load.self_s": ("s", "lower"),
    "scenario.trace.self_s": ("s", "lower"),
    "scenario.trace.bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}


def package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "exclusim" or name.startswith("exclusim."))
    ]


def algorithm_classes() -> list[type]:
    """Every `Algorithm` class that defines its own `compute`."""
    found, todo = [], [algorithms.Algorithm]
    while todo:
        cls = todo.pop()
        if "compute" in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _length(value: object) -> int:
    try:
        return len(value)  # type: ignore[arg-type]
    except TypeError:
        return 0


class TracedStrategies(Mapping):
    """A strategy table whose lookups, defaults included, return traced callables."""

    def __init__(self, inner: Mapping, trace_strategy):
        self._inner = inner
        self._trace = trace_strategy
        self._traced: dict[int, tuple] = {}

    def _wrapped(self, strategy):
        entry = self._traced.get(id(strategy))
        if entry is None:
            entry = self._traced[id(strategy)] = (strategy, self._trace(strategy))
        return entry[1]

    def __getitem__(self, agent):
        return self._wrapped(self._inner[agent])

    def get(self, agent, default=None):
        strategy = self._inner.get(agent, default)
        return None if strategy is None else self._wrapped(strategy)

    def __iter__(self):
        return iter(self._inner)

    def __len__(self) -> int:
        return len(self._inner)


def install(tracer: Tracer, modules: list) -> Patches:
    """Wrap every layer boundary; `modules` are searched for names to rebind."""
    patches = Patches()
    counts = tracer.counts

    def function(original, name, after=None):
        patches.rebind(modules, original, tracer.wrap(original, name, after))

    for method in ("solve", "det", "inverse"):
        original = vars(numerics.RMatrix)[method]
        patches.set(numerics.RMatrix, method, tracer.wrap(original, f"numerics.{method}"))

    def count_ledger(result, algorithm, ledger, *args, **kwargs):
        counts["algorithms.compute.ledger_payloads"] += _length(ledger)

    for cls in algorithm_classes():
        patches.set(cls, "compute", tracer.wrap(vars(cls)["compute"], "algorithms.compute", count_ledger))

    def count_rows(result, rows, *args, **kwargs):
        counts["algorithms.moments.rows"] += _length(getattr(rows, "rows", rows))

    function(algorithms.moments, "algorithms.moments", count_rows)

    def count_candidates(result, points, *args, **kwargs):
        k = args[0] if args else kwargs["k"]
        counts["algorithms.clustering.candidates"] += math.comb(len(set(points)), k)

    function(algorithms.kcenter_solution, "algorithms.clustering", count_candidates)
    function(algorithms.kmedian_solution, "algorithms.clustering", count_candidates)

    def trace_strategy(strategy):
        def traced(observed):
            counts["protocol.polls"] += 1
            counts["protocol.poll_history_items"] += _length(observed)
            index = tracer.enter("strategies.decide")
            try:
                wish = strategy(observed)
            finally:
                tracer.exit(index)
            if wish is not None:
                counts["protocol.wishes"] += 1
            return wish

        return traced

    run_protocol = protocol.run_protocol
    signature = inspect.signature(run_protocol)

    def traced_run_protocol(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["strategies"] = TracedStrategies(bound.arguments["strategies"], trace_strategy)
        index = tracer.enter("protocol.run")
        try:
            run = run_protocol(*bound.args, **bound.kwargs)
        finally:
            tracer.exit(index)
        for message in run.messages:
            if isinstance(message, protocol.LedgerUpdate):
                counts["protocol.ledger_updates"] += 1
            elif isinstance(message, protocol.OutputBroadcast):
                counts["protocol.broadcasts"] += 1
        return run

    patches.rebind(modules, run_protocol, traced_run_protocol)
    function(protocol.observed_history, "protocol.observe")

    for name in INFERENCE_FUNCTIONS:
        function(getattr(strategies, name), "strategies.infer")
    for name in HARNESS_ENTRY_POINTS:
        function(getattr(harness, name), f"harness.{name}")

    def count_bytes(lines, *args, **kwargs):
        counts["scenario.trace.bytes"] += sum(len(line) + 1 for line in lines)

    function(scenario.scenario_from_dict, "scenario.load")
    function(scenario.trace_lines, "scenario.trace", count_bytes)
    return patches


def layer_metrics(tracer: Tracer, units: int, overhead_ratio: float) -> dict[str, float]:
    """Every `PER_LAYER` metric from one traced pass over `units` units."""
    calls = tracer.calls()
    self_s = tracer.self_times()
    counts = tracer.counts
    polls = counts["protocol.polls"]
    wishes = counts["protocol.wishes"]
    metrics = {
        "numerics.solve.calls": calls["numerics.solve"],
        "numerics.solve.self_s": self_s.get("numerics.solve", 0.0),
        "numerics.det.calls": calls["numerics.det"],
        "numerics.det.self_s": self_s.get("numerics.det", 0.0),
        "numerics.inverse.calls": calls["numerics.inverse"],
        "algorithms.moments.calls": calls["algorithms.moments"],
        "algorithms.moments.rows": counts["algorithms.moments.rows"],
        "algorithms.moments.self_s": self_s.get("algorithms.moments", 0.0),
        "algorithms.compute.calls": calls["algorithms.compute"],
        "algorithms.compute.ledger_payloads": counts["algorithms.compute.ledger_payloads"],
        "algorithms.compute.self_s": self_s.get("algorithms.compute", 0.0),
        "algorithms.clustering.calls": calls["algorithms.clustering"],
        "algorithms.clustering.candidates": counts["algorithms.clustering.candidates"],
        "algorithms.clustering.self_s": self_s.get("algorithms.clustering", 0.0),
        "protocol.runs": calls["protocol.run"],
        "protocol.engine.self_s": self_s.get("protocol.run", 0.0),
        "protocol.observe.self_s": self_s.get("protocol.observe", 0.0),
        "protocol.polls": polls,
        "protocol.poll_history_items": counts["protocol.poll_history_items"],
        "protocol.broadcasts": counts["protocol.broadcasts"],
        "protocol.wishes": wishes,
        "protocol.ledger_updates": counts["protocol.ledger_updates"],
        "protocol.guard_dropped": wishes - counts["protocol.ledger_updates"],
        "protocol.useful_poll_ratio": wishes / polls if polls else 0.0,
        "strategies.decide.self_s": self_s.get("strategies.decide", 0.0),
        "strategies.infer.calls": calls["strategies.infer"],
        "strategies.infer.self_s": self_s.get("strategies.infer", 0.0),
        "harness.runs_per_unit": calls["protocol.run"] / units,
        "harness.self_s": sum((v for k, v in self_s.items() if k.startswith("harness.")), 0.0),
        "scenario.load.self_s": self_s.get("scenario.load", 0.0),
        "scenario.trace.self_s": self_s.get("scenario.trace", 0.0),
        "scenario.trace.bytes": counts["scenario.trace.bytes"],
        "trace.overhead_ratio": overhead_ratio,
    }
    return metrics
