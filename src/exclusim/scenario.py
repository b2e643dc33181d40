"""Scenario files: JSON loading, validation with field-path errors, and
line-delimited trace emission for finished runs.

A scenario file pins the protocol mode, the update-window size, the
algorithm, the per-agent strategies, and the nature input, so a run is fully
reproducible from the file alone. All rationals travel as "p/q" strings or
integers; floats, and decimal or exponent strings, are rejected everywhere.
The decoder builds a value's field path only when the value fails. Algorithm and strategy parameters
are checked by the constructors that use them; the loader decodes each
strategy parameter by its kind in `strategies.STRATEGIES` and maps a
`ParamError` to the parameter's field path. The algorithm's `check` decides
which payloads a file may hold: nature's, each strategy's payload and point
parameters, and what the table lists that each strategy can send. Nature's
and the listed payloads reach the ledger, so their point sets must also
share one dimension. Either fault refuses the file before the run.

`_payload_text` and `_output_text` are the one writer of payloads and outputs:
trace lines carry their text, and scenario files and verify reports its parse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Optional, TypeVar, Union

from .algorithms import (
    Algorithm,
    AlgorithmOutput,
    CentersOutput,
    CoefficientsOutput,
    DlrAlgorithm,
    Empty,
    MIXED_DIMENSIONS,
    NullOutput,
    ParamError,
    PayloadError,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
    UpdatePayload,
    make_algorithm,
    moments,
)
from .numerics import is_int, rational
from .protocol import (
    FactualDelivery,
    InputError,
    NatureElement,
    NatureInput,
    OutputBroadcast,
    Run,
    Strategy,
    run_protocol,
    validate_run,
)
from .strategies import STRATEGIES, make_strategy


class ValidationError(ValueError):
    """A scenario file violates the schema; the message cites the field path."""


class PreconditionError(ValidationError):
    """A scenario is well-formed but starts in a state an attack cannot use."""


T = TypeVar("T")


def _fail(path: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: {message}")


# =============================================================================
# Rational, payload, and output (de)serialization
# =============================================================================


# Ints of at most this many bits have fewer decimal digits (602) than any
# int-to-str cap the interpreter allows (640 at least), so `str` takes them whole.
_STR_SAFE_BITS = 2000


def _decimal(n: int) -> str:
    """The decimal digits of any int, converted in pieces below the int-to-str cap."""
    if n.bit_length() <= _STR_SAFE_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    low_digits = n.bit_length() * 3 // 20  # about half its digits: log10(2) > 3/10
    high, low = divmod(n, 10**low_digits)
    return _decimal(high) + _decimal(low).zfill(low_digits)


def format_rational(value: Fraction) -> Union[int, str]:
    """An integral value as an int, any other as a "p/q" string, every digit exact.

    An integer with more digits than the interpreter will convert with `str`
    goes out as a digit string, since the JSON encoder could not write it as a
    number.
    """
    numerator, denominator = value.numerator, value.denominator
    if denominator != 1:
        return f"{_decimal(numerator)}/{_decimal(denominator)}"
    if numerator.bit_length() > _STR_SAFE_BITS:
        try:
            str(numerator)
        except ValueError:
            return _decimal(numerator)
    return numerator


def _number(value: Fraction) -> str:
    """The JSON text of `format_rational(value)`: a string quoted, an int as a number."""
    text = format_rational(value)
    return f'"{text}"' if isinstance(text, str) else str(text)


def _numbers(values: tuple[Fraction, ...]) -> str:
    return ",".join(map(_number, values))


def _payload_text(payload: UpdatePayload) -> str:
    """The compact JSON text of a payload, the one statement of its format:
    trace lines carry it and `payload_to_json` parses it."""
    if isinstance(payload, Scalar):
        return f'{{"kind":"scalar","value":{_number(payload.value)}}}'
    if isinstance(payload, PointSet):
        points = ",".join(f"[{_numbers(point)}]" for point in payload.points)
        return f'{{"kind":"points","points":[{points}]}}'
    if isinstance(payload, RowMultiset):
        rows = ",".join(
            f'{{"features":[{_numbers(row.features)}],"target":{_number(row.target)}}}'
            for row in payload.rows
        )
        return f'{{"kind":"rows","rows":[{rows}]}}'
    return '{"kind":"empty"}'


def _output_text(output: Optional[AlgorithmOutput]) -> str:
    """The compact JSON text of an output, the one statement of its format."""
    if isinstance(output, ScalarOutput):
        return f'{{"kind":"scalar","value":{_number(output.value)}}}'
    if isinstance(output, CentersOutput):
        centers = ",".join(f"[{_numbers(center)}]" for center in output.centers)
        return f'{{"kind":"centers","centers":[{centers}]}}'
    if isinstance(output, CoefficientsOutput):
        return f'{{"kind":"coefficients","coefficients":[{_numbers(output.coefficients)}]}}'
    return '{"kind":"null"}'


class _Invalid(Exception):
    """A decoding failure below the field path of the value being decoded.

    The path is only built when decoding fails: each level the failure passes
    on its way up appends its own segment to `segments`, innermost first, and
    `_decode` joins them onto the path of the value it was given.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.segments: list[str] = []

    def below(self, segment: str) -> "_Invalid":
        self.segments.append(segment)
        return self


def _decode(decoder: Callable[[object], T], value: object, path: str) -> T:
    """`decoder(value)`, failing with a `ValidationError` at the failing field's path."""
    try:
        return decoder(value)
    except _Invalid as exc:
        raise _fail(path + "".join(reversed(exc.segments)), str(exc)) from exc.__cause__


def _field(obj: dict, key: str, decoder: Callable[[object], T]) -> T:
    try:
        return decoder(obj.get(key))
    except _Invalid as exc:
        raise exc.below(f".{key}")


def _list(raw: object, decoder: Callable[[object], T], noun: str, empty: bool = False) -> list[T]:
    """`decoder` on each entry of a JSON list, non-empty unless `empty`; a
    failure names the entry's index."""
    if not isinstance(raw, list) or not (raw or empty):
        raise _Invalid(f"expected a {'list' if empty else 'non-empty list'} of {noun}")
    items: list[T] = []
    try:
        for entry in raw:
            items.append(decoder(entry))
    except _Invalid as exc:
        raise exc.below(f"[{len(items)}]")
    return items


def _int(value: object) -> int:
    if not is_int(value):
        raise _Invalid(f"expected an integer, got {value!r}")
    return value


# What `rational` raises on a value that is no rational.
_NOT_RATIONAL = (TypeError, ValueError, ZeroDivisionError)


def _rational(value: object) -> Fraction:
    try:
        return rational(value)
    except _NOT_RATIONAL as exc:
        raise _Invalid(str(exc)) from exc


def _point(value: object) -> tuple[Fraction, ...]:
    return tuple(_list(value, _rational, "coordinates"))


def _payload(obj: object) -> UpdatePayload:
    """Decode one payload in this one frame, dispatching on its kind.

    No frame is spent per schema level, as `_field` and `_list` spend one:
    a failure below the payload collects its segments from the try blocks it
    passes, only when it fails, and names the field `_field` and `_list`
    would name. The payload's own checks (duplicates, widths, the leading 1)
    cite the payload.
    """
    if not isinstance(obj, dict):
        raise _Invalid(f"expected a payload object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "scalar":
        try:
            value = rational(obj.get("value"))
        except _NOT_RATIONAL as exc:
            raise _Invalid(str(exc)).below(".value") from exc
        return Scalar(value)
    if kind == "empty":
        return Empty()
    if kind != "points" and kind != "rows":
        raise _Invalid(f"unknown payload kind {kind!r}").below(".kind")
    # The list field is named after the kind: "points" or "rows".
    raw = obj.get(kind)
    if not isinstance(raw, list) or not raw:
        raise _Invalid(f"expected a non-empty list of {kind}").below(f".{kind}")
    entries: list = []  # the points or rows decoded so far
    try:
        for entry in raw:
            # A point is its own coordinate list; a row's is its "features".
            if kind == "points":
                features, field = entry, ""
            elif isinstance(entry, dict):
                features, field = entry.get("features"), ".features"
            else:
                raise _Invalid("expected a row object")
            if not isinstance(features, list) or not features:
                raise _Invalid("expected a non-empty list of coordinates").below(field)
            coordinates: list[Fraction] = []
            try:
                for value in features:
                    coordinates.append(rational(value))
            except _NOT_RATIONAL as exc:
                raise _Invalid(str(exc)).below(f"[{len(coordinates)}]").below(field) from exc
            if kind == "points":
                entries.append(tuple(coordinates))
                continue
            try:
                target = rational(entry.get("target"))
            except _NOT_RATIONAL as exc:
                raise _Invalid(str(exc)).below(".target") from exc
            entries.append(Row(coordinates, target))
        return PointSet(entries) if kind == "points" else RowMultiset(entries)
    except _Invalid as exc:
        raise exc.below(f"[{len(entries)}]").below(f".{kind}")
    except PayloadError as exc:
        raise _Invalid(str(exc)) from exc


def _one_dimension(dimensions: set[int], payload: UpdatePayload) -> None:
    """Add a point set's dimension to `dimensions`, which must keep one."""
    if isinstance(payload, PointSet) and payload.points:
        dimensions.add(len(payload.points[0]))
        if len(dimensions) > 1:
            raise _Invalid(MIXED_DIMENSIONS)


def _elements(
    check: Callable[[UpdatePayload], bool], dimensions: set[int], raw: object
) -> list[NatureElement]:
    """The nature elements of the JSON list `raw`, each decoded in this frame
    and `_payload`'s: `check` (the algorithm's) must pass each payload, and
    its points must keep one dimension (`_one_dimension`)."""
    if not isinstance(raw, list):
        raise _Invalid("expected a list of elements")
    elements: list[NatureElement] = []
    try:
        for entry in raw:
            if not isinstance(entry, dict):
                raise _Invalid("expected an element object")
            try:
                payload = _payload(entry.get("payload"))
                try:
                    check(payload)
                except PayloadError as exc:
                    raise _Invalid(str(exc)) from exc
                _one_dimension(dimensions, payload)
            except _Invalid as exc:
                raise exc.below(".payload")
            elements.append(NatureElement(entry.get("agent"), payload, entry.get("round")))
    except _Invalid as exc:
        raise exc.below(f"[{len(elements)}]")
    return elements


def payload_to_json(payload: UpdatePayload) -> dict:
    """`payload` in the file schema: the parse of its trace text."""
    return json.loads(_payload_text(payload))


def ninput_to_json(ninput: NatureInput) -> list[dict]:
    """Nature elements in the file schema; `round` only on elements that have one."""
    entries = []
    for element in ninput:
        entry: dict = {"agent": element.agent, "payload": payload_to_json(element.payload)}
        if element.round is not None:
            entry["round"] = element.round
        entries.append(entry)
    return entries


def _output(obj: object) -> AlgorithmOutput:
    """Decode one algorithm output: scalar, centers, coefficients, or null."""
    if not isinstance(obj, dict):
        raise _Invalid(f"expected an output object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "scalar":
        return ScalarOutput(_field(obj, "value", _rational))
    if kind == "centers":
        return CentersOutput(
            _field(obj, "centers", lambda raw: _list(raw, _point, "points", empty=True))
        )
    if kind == "coefficients":
        return CoefficientsOutput(_field(obj, "coefficients", _point))
    if kind == "null":
        return NullOutput()
    raise _Invalid(f"unknown output kind {kind!r}").below(".kind")


def output_to_json(output: Optional[AlgorithmOutput]) -> dict:
    """`output` in the file schema: the parse of its trace text."""
    return json.loads(_output_text(output))


# =============================================================================
# Scenario schema
# =============================================================================


# Strategy parameter kind -> JSON decoder. A count goes to its constructor as
# given; a point is a coordinate list or one rational.
_PARAM_DECODERS: dict[str, Callable[[object], object]] = {
    "rational": _rational,
    "count": lambda value: value,
    "point": lambda value: _point(value) if isinstance(value, list) else (_rational(value),),
    "payload": _payload,
    "output": _output,
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


def _name_and_params(spec: object, path: str) -> tuple[str, dict]:
    """The `name` and `params` of an algorithm or strategy spec."""
    if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
        raise _fail(path, "expected an object with a 'name'")
    params = {} if spec.get("params") is None else spec["params"]
    if not isinstance(params, dict):
        raise _fail(f"{path}.params", "expected an object")
    return spec["name"], params


def _taken(algorithm: Algorithm, payload: UpdatePayload) -> UpdatePayload:
    """`payload`, if `algorithm.check` passes it: a payload the algorithm
    cannot take fails here, not mid-run."""
    try:
        algorithm.check(payload)
    except PayloadError as exc:
        raise _Invalid(str(exc)) from exc
    return payload


def scenario_from_dict(data: object, source: str = "scenario") -> Scenario:
    """Validate a parsed scenario object; error messages cite field paths."""
    if not isinstance(data, dict):
        raise _fail(source, "expected a JSON object at the top level")
    unknown = set(data) - {
        "protocol", "ell", "agents", "algorithm", "strategies", "nature_input", "seed",
    }
    if unknown:
        raise _fail(source, f"unknown top-level fields: {sorted(unknown)}")

    # `validate_run` holds the run's rules, the types of its integers included.
    protocol = data.get("protocol")
    ell = data.get("ell")
    agent_count = data.get("agents")

    algorithm_name, algorithm_params = _name_and_params(data.get("algorithm"), "algorithm")
    try:
        algorithm = make_algorithm(algorithm_name, algorithm_params)
    except ParamError as exc:
        field = f"algorithm.params.{exc.param}" if exc.param else "algorithm"
        raise _fail(field, str(exc)) from exc
    algorithm_spec = {"name": algorithm_name, "params": dict(algorithm_params)}

    strategies: dict[int, Strategy] = {}
    strategy_specs: dict[int, dict] = {}
    taken = partial(_taken, algorithm)
    # (payload, field path) of each payload a strategy may put on the ledger.
    sent: list[tuple[UpdatePayload, str]] = []
    raw_strategies = {} if data.get("strategies") is None else data["strategies"]
    if not isinstance(raw_strategies, dict):
        raise _fail("strategies", "expected an object keyed by agent number")
    for raw_agent, spec in raw_strategies.items():
        path = f"strategies.{raw_agent}"
        try:
            agent = int(raw_agent)
        except (TypeError, ValueError):
            raise _fail(path, "agent keys must be integers") from None
        if raw_agent != str(agent):
            raise _fail(path, f"agent {agent} must be keyed as {str(agent)!r}")
        name, params = _name_and_params(spec, path)
        _, kinds, sends = STRATEGIES.get(name, (None, {}, None))
        decoded = dict(params)
        for key, kind in kinds.items():
            if key in decoded:
                decoded[key] = _decode(_PARAM_DECODERS[kind], decoded[key], f"{path}.params.{key}")
        try:
            strategies[agent] = make_strategy(name, decoded)
        except ParamError as exc:
            field = f"{path}.params.{exc.param}" if exc.param else path
            raise _fail(field, str(exc)) from exc
        # A payload the algorithm would refuse mid-run fails here: each payload
        # or point parameter, and each payload the strategy can send.
        for key, kind in kinds.items():
            if kind in ("payload", "point"):
                payload = decoded[key] if kind == "payload" else PointSet((decoded[key],))
                _decode(taken, payload, f"{path}.params.{key}")
        for field, payload in sends(decoded):
            field = f"{path}.{field}"
            sent.append((_decode(taken, payload, field), field))
        strategy_specs[agent] = {"name": name, "params": dict(params)}

    # Nature's first point set fixes the dimension that strategies must send.
    dimensions: set[int] = set()
    elements = _decode(
        partial(_elements, algorithm.check, dimensions), data.get("nature_input"), "nature_input"
    )
    for payload, field in sent:
        _decode(partial(_one_dimension, dimensions), payload, field)
    try:
        validate_run(protocol, ell, agent_count, strategies, elements)
    except InputError as exc:
        raise _fail(exc.path, str(exc)) from exc

    seed = data.get("seed")
    if seed is not None:
        seed = _decode(_int, seed, "seed")

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
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
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


def trace_lines(run: Run) -> list[str]:
    """Line-delimited JSON trace, stable byte-for-byte across runs.

    One line per transcript message, in run order:
    `{"seq":N,"kind":"factual"|"ledger"|"broadcast","agent":A|null,"payload":P}`.
    Each line is compact JSON written directly, with no dict and no encoder
    between: P is the text of `_payload_text` or `_output_text`, whose numbers
    follow `format_rational` (an int is a JSON number, a string is quoted).
    P is written once per distinct payload or output object: a
    truthful agent's ledger update carries its delivery's payload, and a
    rebroadcast output is the same object.
    """
    # P by the id of the object it writes; the run's log keeps each one alive.
    texts: dict[int, str] = {}
    lines = []
    for seq, message in enumerate(run.messages):
        if isinstance(message, OutputBroadcast):
            value, to_text = message.output, _output_text
            head = '"kind":"broadcast","agent":null'
        else:
            value, to_text = message.payload, _payload_text
            kind = "factual" if isinstance(message, FactualDelivery) else "ledger"
            head = f'"kind":"{kind}","agent":{message.agent}'
        text = texts.get(id(value))
        if text is None:
            text = texts[id(value)] = to_text(value)
        lines.append(f'{{"seq":{seq},{head},"payload":{text}}}')
    return lines
