"""The scenario layer's decoders and JSON writers as they were before they
stopped repeating work: the oracle for the loader's payload, output and
point-parameter decoders (`scenario._decode` of `scenario._payload`,
`scenario._output` and `scenario._PARAM_DECODERS["point"]`) and its
nature-input decoder (`scenario._elements`), for `scenario.trace_lines`,
and for the document writers `scenario.payload_to_json` and
`scenario.output_to_json`.

`payload_from_json`, `output_from_json` and `point_param_from_json` here
format the field path of every point, row, center and coordinate before
decoding it, and `nature_input_from_json` that of every element.
`payload_to_json` and `output_to_json` here
build each payload and output as a dict, field by field; the library writes
their JSON text once, in `_payload_text` and `_output_text`, and parses that
text where it needs a dict. `trace_lines` here turns every message into a dict
through these two writers and encodes the whole dict with the `json` module,
even where two messages carry the same payload object. The differential tests
in `test_scenario_cli.py` compare the library against all of them: the same
decoded value or the same error message, the same dicts, and the same trace
lines.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from exclusim.algorithms import (
    MIXED_DIMENSIONS,
    Algorithm,
    AlgorithmOutput,
    CentersOutput,
    CoefficientsOutput,
    Empty,
    NullOutput,
    PayloadError,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
    UpdatePayload,
)
from exclusim.numerics import rational
from exclusim.protocol import FactualDelivery, NatureElement, OutputBroadcast, Run
from exclusim.scenario import ValidationError, format_rational


def _fail(path: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: {message}")


def parse_rational(value: object, path: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str, Fraction)):
        raise _fail(path, f"expected an integer or 'p/q' string, got {value!r}")
    try:
        return rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise _fail(path, str(exc)) from exc


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
            tuple(_parse_point(c, f"{path}.centers[{i}]") for i, c in enumerate(raw))
        )
    if kind == "coefficients":
        return CoefficientsOutput(_parse_point(obj.get("coefficients"), f"{path}.coefficients"))
    if kind == "null":
        return NullOutput()
    raise _fail(f"{path}.kind", f"unknown output kind {kind!r}")


def point_param_from_json(value: object, path: str) -> tuple[Fraction, ...]:
    """Decode a strategy's point parameter: a coordinate list or one rational."""
    if isinstance(value, list):
        return _parse_point(value, path)
    return (parse_rational(value, path),)


def nature_input_from_json(raw: object, algorithm: Algorithm) -> list[NatureElement]:
    """Decode the nature elements of a scenario: each payload must pass the
    algorithm's `check`, and the point sets must share one dimension."""
    if not isinstance(raw, list):
        raise _fail("nature_input", "expected a list of elements")
    elements, dimensions = [], set()
    for i, entry in enumerate(raw):
        path = f"nature_input[{i}]"
        if not isinstance(entry, dict):
            raise _fail(path, "expected an element object")
        payload = payload_from_json(entry.get("payload"), f"{path}.payload")
        try:
            algorithm.check(payload)
        except PayloadError as exc:
            raise _fail(f"{path}.payload", str(exc)) from exc
        if isinstance(payload, PointSet) and payload.points:
            dimensions.add(len(payload.points[0]))
            if len(dimensions) > 1:
                raise _fail(f"{path}.payload", MIXED_DIMENSIONS)
        elements.append(NatureElement(entry.get("agent"), payload, entry.get("round")))
    return elements


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
