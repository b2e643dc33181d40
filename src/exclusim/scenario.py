"""Scenario files: JSON loading, validation with field-path errors, and
line-delimited trace emission for finished runs.

A scenario file pins the protocol mode, the update-window size, the
algorithm, the per-agent strategies, and the nature input, so a run is fully
reproducible from the file alone. All rationals travel as "p/q" strings or
integers; floats are rejected everywhere. Algorithm and strategy parameters
are checked by the constructors that use them; the loader decodes each
strategy parameter by its kind in `strategies.STRATEGIES` and maps a
`ParamError` to the parameter's field path. Every payload a run can put on
the ledger must fold onto the empty ledger, or the file is refused before
the run: nature's payloads, each strategy's payload and point parameters,
and the payloads a strategy makes up by itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional, Union

from .algorithms import (
    Algorithm,
    AlgorithmOutput,
    CentersOutput,
    CoefficientsOutput,
    DlrAlgorithm,
    Empty,
    NullOutput,
    ParamError,
    PayloadError,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
    UpdatePayload,
    coerce_point,
    make_algorithm,
    moments,
)
from .numerics import rational
from .protocol import (
    FactualDelivery,
    InputError,
    NatureElement,
    NatureInput,
    OutputBroadcast,
    Run,
    Strategy,
    run_protocol,
    validate_continuous_input,
    validate_periodic_input,
)
from .strategies import STRATEGIES, make_strategy


class ValidationError(ValueError):
    """A scenario file violates the schema; the message cites the field path."""


class PreconditionError(ValidationError):
    """A scenario is well-formed but starts in a state an attack cannot use."""


def _fail(path: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: {message}")


# =============================================================================
# Rational, payload, and output (de)serialization
# =============================================================================


def parse_rational(value: object, path: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str, Fraction)):
        raise _fail(path, f"expected an integer or 'p/q' string, got {value!r}")
    try:
        return rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise _fail(path, str(exc)) from exc


def format_rational(value: Fraction) -> Union[int, str]:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _parse_point(value: object, path: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a non-empty list of coordinates")
    return tuple(parse_rational(c, f"{path}[{i}]") for i, c in enumerate(value))


def payload_from_json(obj: object, path: str) -> UpdatePayload:
    """Decode one update payload: scalar, points, rows, or empty."""
    if not isinstance(obj, dict):
        raise _fail(path, f"expected a payload object, got {obj!r}")
    kind = obj.get("kind")
    try:
        if kind == "scalar":
            return Scalar(parse_rational(obj.get("value"), f"{path}.value"))
        if kind == "points":
            raw = obj.get("points")
            if not isinstance(raw, list) or not raw:
                raise _fail(f"{path}.points", "expected a non-empty list of points")
            return PointSet(
                tuple(_parse_point(p, f"{path}.points[{i}]") for i, p in enumerate(raw))
            )
        if kind == "rows":
            raw = obj.get("rows")
            if not isinstance(raw, list) or not raw:
                raise _fail(f"{path}.rows", "expected a non-empty list of rows")
            rows = []
            for i, entry in enumerate(raw):
                if not isinstance(entry, dict):
                    raise _fail(f"{path}.rows[{i}]", "expected a row object")
                features = _parse_point(entry.get("features"), f"{path}.rows[{i}].features")
                target = parse_rational(entry.get("target"), f"{path}.rows[{i}].target")
                rows.append(Row(features, target))
            return RowMultiset(tuple(rows))
        if kind == "empty":
            return Empty()
    except PayloadError as exc:
        raise _fail(path, str(exc)) from exc
    raise _fail(f"{path}.kind", f"unknown payload kind {kind!r}")


def payload_to_json(payload: UpdatePayload) -> dict:
    if isinstance(payload, Scalar):
        return {"kind": "scalar", "value": format_rational(payload.value)}
    if isinstance(payload, PointSet):
        return {
            "kind": "points",
            "points": [[format_rational(c) for c in p] for p in payload.points],
        }
    if isinstance(payload, RowMultiset):
        return {
            "kind": "rows",
            "rows": [
                {
                    "features": [format_rational(c) for c in row.features],
                    "target": format_rational(row.target),
                }
                for row in payload.rows
            ],
        }
    return {"kind": "empty"}


def ninput_to_json(ninput: NatureInput) -> list[dict]:
    """Nature elements in the file schema; `round` only on elements that have one."""
    entries = []
    for element in ninput:
        entry: dict = {"agent": element.agent, "payload": payload_to_json(element.payload)}
        if element.round is not None:
            entry["round"] = element.round
        entries.append(entry)
    return entries


def output_from_json(obj: object, path: str) -> AlgorithmOutput:
    """Decode one algorithm output: scalar, centers, coefficients, or null."""
    if not isinstance(obj, dict):
        raise _fail(path, f"expected an output object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "scalar":
        return ScalarOutput(parse_rational(obj.get("value"), f"{path}.value"))
    if kind == "centers":
        raw = obj.get("centers")
        if not isinstance(raw, list):
            raise _fail(f"{path}.centers", "expected a list of points")
        return CentersOutput(
            tuple(_parse_point(p, f"{path}.centers[{i}]") for i, p in enumerate(raw))
        )
    if kind == "coefficients":
        return CoefficientsOutput(
            _parse_point(obj.get("coefficients"), f"{path}.coefficients")
        )
    if kind == "null":
        return NullOutput()
    raise _fail(f"{path}.kind", f"unknown output kind {kind!r}")


def output_to_json(output: Optional[AlgorithmOutput]) -> dict:
    if isinstance(output, ScalarOutput):
        return {"kind": "scalar", "value": format_rational(output.value)}
    if isinstance(output, CentersOutput):
        return {
            "kind": "centers",
            "centers": [[format_rational(c) for c in p] for p in output.centers],
        }
    if isinstance(output, CoefficientsOutput):
        return {
            "kind": "coefficients",
            "coefficients": [format_rational(c) for c in output.coefficients],
        }
    return {"kind": "null"}


# =============================================================================
# Scenario schema
# =============================================================================


# Strategy parameter kind -> JSON decoder. A count goes to its constructor as
# given; a point is a coordinate list or one rational.
_PARAM_DECODERS = {
    "rational": parse_rational,
    "count": lambda value, path: value,
    "point": lambda value, path: (
        _parse_point(value, path) if isinstance(value, list) else parse_rational(value, path)
    ),
    "payload": payload_from_json,
    "output": output_from_json,
}


@dataclass(frozen=True)
class Scenario:
    """A fully validated run description."""

    protocol: str
    ell: Optional[int]
    agent_count: int
    algorithm: Algorithm
    algorithm_spec: Mapping[str, object]
    strategies: Mapping[int, Strategy]
    strategy_specs: Mapping[int, Mapping[str, object]]
    ninput: NatureInput
    seed: Optional[int] = None


def _require_int(value: object, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(path, f"must be at least {minimum}, got {value}")
    return value


def _name_and_params(spec: object, path: str) -> tuple[str, dict]:
    """The `name` and `params` of an algorithm or strategy spec."""
    if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
        raise _fail(path, "expected an object with a 'name'")
    params = spec.get("params") or {}
    if not isinstance(params, dict):
        raise _fail(f"{path}.params", "expected an object")
    return spec["name"], params


def _check_foldable(algorithm: Algorithm, payload: UpdatePayload, path: str) -> None:
    """A payload the algorithm cannot take fails here, not mid-run."""
    try:
        algorithm.fold(algorithm.start(), payload)
    except PayloadError as exc:
        raise _fail(path, str(exc)) from exc


def scenario_from_dict(data: object, source: str = "scenario") -> Scenario:
    """Validate a parsed scenario object; error messages cite field paths."""
    if not isinstance(data, dict):
        raise _fail(source, "expected a JSON object at the top level")
    unknown = set(data) - {
        "protocol", "ell", "agents", "algorithm", "strategies", "nature_input", "seed",
    }
    if unknown:
        raise _fail(source, f"unknown top-level fields: {sorted(unknown)}")

    protocol = data.get("protocol")
    if protocol not in ("continuous", "periodic"):
        raise _fail("protocol", f"expected 'continuous' or 'periodic', got {protocol!r}")

    ell: Optional[int] = None
    if protocol == "continuous":
        ell = _require_int(data.get("ell"), "ell", minimum=1)
    elif data.get("ell") is not None:
        raise _fail("ell", "periodic scenarios do not take an update window")

    agent_count = _require_int(data.get("agents"), "agents", minimum=1)

    algorithm_name, algorithm_params = _name_and_params(data.get("algorithm"), "algorithm")
    try:
        algorithm = make_algorithm(algorithm_name, algorithm_params)
    except ParamError as exc:
        field = f"algorithm.params.{exc.param}" if exc.param else "algorithm"
        raise _fail(field, str(exc)) from exc
    algorithm_spec = {"name": algorithm_name, "params": dict(algorithm_params)}

    strategies: dict[int, Strategy] = {}
    strategy_specs: dict[int, dict] = {}
    raw_strategies = data.get("strategies") or {}
    if not isinstance(raw_strategies, dict):
        raise _fail("strategies", "expected an object keyed by agent number")
    for raw_agent, spec in raw_strategies.items():
        path = f"strategies.{raw_agent}"
        try:
            agent = int(raw_agent)
        except (TypeError, ValueError):
            raise _fail(path, "agent keys must be integers") from None
        if not 1 <= agent <= agent_count:
            raise _fail(path, f"agent {agent} outside 1..{agent_count}")
        name, params = _name_and_params(spec, path)
        kinds = STRATEGIES[name][1] if name in STRATEGIES else {}
        decoded = dict(params)
        for key in kinds:
            if key in decoded:
                decoded[key] = _PARAM_DECODERS[kinds[key]](decoded[key], f"{path}.params.{key}")
        try:
            strategies[agent] = make_strategy(name, decoded)
        except ParamError as exc:
            field = f"{path}.params.{exc.param}" if exc.param else path
            raise _fail(field, str(exc)) from exc
        # Payloads the algorithm would refuse mid-run fail here.
        for payload in STRATEGIES[name][2]:
            _check_foldable(algorithm, payload, f"{path}.name")
        if name == "triangulation" and not (
            isinstance(algorithm, DlrAlgorithm) and algorithm.d == decoded["d"]
        ):
            raise _fail(f"{path}.params.d", f"triangulation needs dlr with d = {decoded['d']}")
        for key, kind in kinds.items():
            if kind in ("payload", "point"):
                payload = (
                    decoded[key] if kind == "payload" else PointSet((coerce_point(decoded[key]),))
                )
                _check_foldable(algorithm, payload, f"{path}.params.{key}")
        strategy_specs[agent] = {"name": name, "params": dict(params)}

    raw_input = data.get("nature_input")
    if not isinstance(raw_input, list):
        raise _fail("nature_input", "expected a list of elements")
    elements: list[NatureElement] = []
    for index, entry in enumerate(raw_input):
        path = f"nature_input[{index}]"
        if not isinstance(entry, dict):
            raise _fail(path, "expected an element object")
        agent = _require_int(entry.get("agent"), f"{path}.agent")
        payload = payload_from_json(entry.get("payload"), f"{path}.payload")
        _check_foldable(algorithm, payload, f"{path}.payload")
        round_no = entry.get("round")
        if round_no is not None:
            round_no = _require_int(round_no, f"{path}.round")
        elements.append(NatureElement(agent, payload, round_no))
    validate = validate_periodic_input if protocol == "periodic" else validate_continuous_input
    try:
        validate(elements, agent_count)
    except InputError as exc:
        path = f"nature_input[{exc.index}]" + (f".{exc.field}" if exc.field else "")
        raise _fail(path, str(exc)) from exc

    seed = data.get("seed")
    if seed is not None:
        seed = _require_int(seed, "seed")

    scenario = Scenario(
        protocol=protocol,
        ell=ell,
        agent_count=agent_count,
        algorithm=algorithm,
        algorithm_spec=algorithm_spec,
        strategies=strategies,
        strategy_specs=strategy_specs,
        ninput=tuple(elements),
        seed=seed,
    )
    _check_regression_start(scenario)
    return scenario


def _spec_to_json(spec: Mapping) -> dict:
    params = dict(spec.get("params") or {})
    if params:
        return {"name": spec["name"], "params": params}
    return {"name": spec["name"]}


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize back to the file schema; load(serialize(s)) equals s."""
    data: dict = {"protocol": scenario.protocol}
    if scenario.protocol == "continuous":
        data["ell"] = scenario.ell
    data["agents"] = scenario.agent_count
    data["algorithm"] = _spec_to_json(scenario.algorithm_spec)
    data["strategies"] = {
        str(agent): _spec_to_json(spec)
        for agent, spec in sorted(scenario.strategy_specs.items())
    }
    data["nature_input"] = ninput_to_json(scenario.ninput)
    if scenario.seed is not None:
        data["seed"] = scenario.seed
    return data


def _check_regression_start(scenario: Scenario) -> None:
    """Regression runs must open with rows that pin a unique fit, so every
    later broadcast carries proper coefficients."""
    if not isinstance(scenario.algorithm, DlrAlgorithm) or not scenario.ninput:
        return
    width = scenario.algorithm.d + 1
    first = scenario.ninput[0].payload
    if not isinstance(first, RowMultiset):
        raise PreconditionError(
            "nature_input[0].payload: regression scenarios start with a rows payload"
        )
    if moments(first.rows, width).solve() is None:
        raise PreconditionError(
            "nature_input[0].payload: the opening rows leave the fit underdetermined"
        )


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Read and validate a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return scenario_from_dict(data, source=str(path))


def run_scenario(scenario: Scenario) -> Run:
    """Execute the run a scenario describes."""
    return run_protocol(
        scenario.protocol,
        scenario.ninput,
        scenario.strategies,
        scenario.algorithm,
        scenario.agent_count,
        ell=scenario.ell,
    )


# =============================================================================
# Trace emission
# =============================================================================


# One encoder for every line: `json.dumps` with arguments builds a new one per call.
_encode_record = json.JSONEncoder(separators=(",", ":")).encode


def trace_records(run: Run) -> list[dict]:
    """One record per transcript message, in run order."""
    records = []
    for seq, message in enumerate(run.messages):
        if isinstance(message, OutputBroadcast):
            kind, agent, payload = "broadcast", None, output_to_json(message.output)
        else:
            kind = "factual" if isinstance(message, FactualDelivery) else "ledger"
            agent, payload = message.agent, payload_to_json(message.payload)
        records.append({"seq": seq, "kind": kind, "agent": agent, "payload": payload})
    return records


def trace_lines(run: Run) -> list[str]:
    """Line-delimited JSON trace, stable byte-for-byte across runs."""
    return [_encode_record(record) for record in trace_records(run)]
