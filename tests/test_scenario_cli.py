"""Scenario files, bundled fixtures, golden traces, and the command line."""

from __future__ import annotations

import copy
import hashlib
import json
import random
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_scenario
from exclusim.algorithms import (
    Algorithm,
    CentersOutput,
    CoefficientsOutput,
    Empty,
    NullOutput,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
    make_algorithm,
)
from exclusim.cli import ATTACKS, PERIODIC_SCENARIOS, SEEDED_ATTACKS, build_parser, main
from exclusim.harness import (
    GENERATOR_BOUND_NOTE,
    check_condition_i,
    check_condition_i_star,
    verify_inference,
)
from exclusim.scenario import (
    PreconditionError,
    ValidationError,
    _PARAM_DECODERS,
    _STR_SAFE_BITS,
    _decode,
    _elements,
    _output,
    _payload,
    format_rational,
    load_scenario,
    ninput_to_json,
    output_to_json,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    trace_lines,
)
from exclusim.protocol import (
    FactualDelivery,
    LedgerUpdate,
    NatureElement,
    OutputBroadcast,
    Run,
    run_protocol,
)
from exclusim.strategies import STRATEGIES, make_strategy

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "exclusim" / "fixtures"

EXAMPLE_1_1_TRACE = [
    '{"seq":0,"kind":"factual","agent":1,"payload":{"kind":"points","points":[[1],[4],[5]]}}',
    '{"seq":1,"kind":"ledger","agent":1,"payload":{"kind":"points","points":[[1],[4],[5]]}}',
    '{"seq":2,"kind":"broadcast","agent":null,"payload":{"kind":"scalar","value":"10/3"}}',
    '{"seq":3,"kind":"factual","agent":2,"payload":{"kind":"points","points":[[1],[3]]}}',
    '{"seq":4,"kind":"ledger","agent":2,"payload":{"kind":"points","points":[[0]]}}',
    '{"seq":5,"kind":"broadcast","agent":null,"payload":{"kind":"scalar","value":"5/2"}}',
    '{"seq":6,"kind":"ledger","agent":2,"payload":{"kind":"points","points":[[0]]}}',
    '{"seq":7,"kind":"broadcast","agent":null,"payload":{"kind":"scalar","value":2}}',
]

FIGURE_7_TRACE = [
    '{"seq":0,"kind":"factual","agent":1,"payload":{"kind":"scalar","value":90}}',
    '{"seq":1,"kind":"factual","agent":2,"payload":{"kind":"scalar","value":90}}',
    '{"seq":2,"kind":"ledger","agent":1,"payload":{"kind":"scalar","value":90}}',
    '{"seq":3,"kind":"ledger","agent":2,"payload":{"kind":"scalar","value":90}}',
    '{"seq":4,"kind":"broadcast","agent":null,"payload":{"kind":"scalar","value":90}}',
]

FIGURE_1_TRACE = [
    '{"seq":0,"kind":"factual","agent":2,"payload":{"kind":"scalar","value":90}}',
    '{"seq":1,"kind":"ledger","agent":2,"payload":{"kind":"scalar","value":90}}',
    '{"seq":2,"kind":"broadcast","agent":null,"payload":{"kind":"scalar","value":90}}',
    '{"seq":3,"kind":"ledger","agent":1,"payload":{"kind":"scalar","value":110}}',
    '{"seq":4,"kind":"broadcast","agent":null,"payload":{"kind":"scalar","value":110}}',
    '{"seq":5,"kind":"factual","agent":2,"payload":{"kind":"scalar","value":100}}',
    '{"seq":6,"kind":"ledger","agent":2,"payload":{"kind":"scalar","value":100}}',
    '{"seq":7,"kind":"broadcast","agent":null,"payload":{"kind":"scalar","value":110}}',
    '{"seq":8,"kind":"ledger","agent":1,"payload":{"kind":"scalar","value":110}}',
    '{"seq":9,"kind":"broadcast","agent":null,"payload":{"kind":"scalar","value":110}}',
]

KCENTER_SNEAK_TRACE = [
    '{"seq":0,"kind":"factual","agent":1,'
    '"payload":{"kind":"points","points":[["-1/1000"],[0],["1/1000"]]}}',
    '{"seq":1,"kind":"ledger","agent":1,'
    '"payload":{"kind":"points","points":[["-1/1000"],[0],["1/1000"]]}}',
    '{"seq":2,"kind":"broadcast","agent":null,'
    '"payload":{"kind":"centers","centers":[["-1/1000"],[0],["1/1000"]]}}',
    '{"seq":3,"kind":"factual","agent":2,'
    '"payload":{"kind":"points","points":[[1],[2],[10],[100]]}}',
    '{"seq":4,"kind":"ledger","agent":2,"payload":{"kind":"points","points":[[1]]}}',
    '{"seq":5,"kind":"broadcast","agent":null,'
    '"payload":{"kind":"centers","centers":[["-1/1000"],[0],[1]]}}',
]

LR_SNEAK_TRACE = [
    '{"seq":0,"kind":"factual","agent":1,"payload":{"kind":"rows","rows":'
    '[{"features":[1,0],"target":1},{"features":[1,1],"target":1}]}}',
    '{"seq":1,"kind":"ledger","agent":1,"payload":{"kind":"rows","rows":'
    '[{"features":[1,0],"target":1},{"features":[1,1],"target":1}]}}',
    '{"seq":2,"kind":"broadcast","agent":null,'
    '"payload":{"kind":"coefficients","coefficients":[1,0]}}',
    '{"seq":3,"kind":"factual","agent":2,"payload":{"kind":"rows","rows":'
    '[{"features":[1,0],"target":1},{"features":[1,0],"target":1},'
    '{"features":[1,3],"target":1}]}}',
    '{"seq":4,"kind":"ledger","agent":2,"payload":{"kind":"rows","rows":'
    '[{"features":[1,2],"target":2}]}}',
    '{"seq":5,"kind":"broadcast","agent":null,'
    '"payload":{"kind":"coefficients","coefficients":["5/6","1/2"]}}',
]


def _minimal_dict(**overrides) -> dict:
    data = {
        "protocol": "continuous",
        "ell": 1,
        "agents": 2,
        "algorithm": {"name": "max"},
        "strategies": {},
        "nature_input": [
            {"agent": 1, "payload": {"kind": "scalar", "value": 5}},
        ],
    }
    data.update(overrides)
    return data


# =============================================================================
# Fixtures and golden traces
# =============================================================================


def test_all_fixtures_load():
    names = sorted(p.name for p in FIXTURES.glob("*.json"))
    assert names == [
        "example_1_1.json",
        "figure_1.json",
        "figure_7.json",
        "kcenter_sneak.json",
        "lr_sneak.json",
    ]
    for name in names:
        scenario = load_scenario(FIXTURES / name)
        assert scenario.agent_count == 2


def _with_subclasses(cls: type) -> list[type]:
    return [cls, *(sub for child in cls.__subclasses__() for sub in _with_subclasses(child))]


def test_loading_builds_no_fold_state(monkeypatch):
    # The loader asks each algorithm's `check` about every payload and never
    # starts or folds a state.
    def forbidden(*args):
        raise AssertionError("the scenario loader ran fold code")

    for cls in _with_subclasses(Algorithm):
        monkeypatch.setattr(cls, "start", forbidden)
        monkeypatch.setattr(cls, "fold", forbidden)
    for path in sorted(FIXTURES.glob("*.json")):
        load_scenario(path)
    second_rows = {"kind": "rows", "rows": [{"features": [1, 2], "target": 0}]}
    for data in (
        _minimal_dict(
            algorithm={"name": "average"},
            strategies={"2": {"name": "fabricate_point", "params": {"point": 3}}},
            nature_input=[{"agent": 1, "payload": _POINTS}, {"agent": 2, "payload": _POINTS}],
        ),
        _minimal_dict(
            algorithm={"name": "kmedian", "params": {"k": 2, "p": 1}},
            strategies={"2": {"name": "omit_point", "params": {"point": [0, 0]}}},
            nature_input=[{"agent": 1, "payload": {"kind": "points", "points": [[0, 0], [1, 2]]}}],
        ),
        _minimal_dict(
            protocol="periodic",
            ell=None,
            algorithm={"name": "dlr", "params": {"d": 1}},
            strategies={"2": {"name": "fabricate_rows", "params": {"rows": second_rows}}},
            nature_input=[
                {"agent": 1, "payload": _ROWS, "round": 1},
                {"agent": 2, "payload": second_rows, "round": 2},
            ],
        ),
    ):
        scenario_from_dict(data)


def test_example_fixture_fields():
    scenario = load_scenario(FIXTURES / "example_1_1.json")
    assert scenario.protocol == "continuous"
    assert scenario.ell == 2
    assert scenario.algorithm_spec["name"] == "average"
    assert {agent: spec["name"] for agent, spec in scenario.strategy_specs.items()} == {
        2: "average_probe"
    }


def test_example_fixture_golden_trace():
    scenario = load_scenario(FIXTURES / "example_1_1.json")
    assert trace_lines(run_scenario(scenario)) == EXAMPLE_1_1_TRACE


def test_periodic_fixture_golden_trace():
    scenario = load_scenario(FIXTURES / "figure_7.json")
    assert scenario.protocol == "periodic"
    assert trace_lines(run_scenario(scenario)) == FIGURE_7_TRACE


def test_overbid_fixture_golden_trace():
    scenario = load_scenario(FIXTURES / "figure_1.json")
    assert trace_lines(run_scenario(scenario)) == FIGURE_1_TRACE


def test_sneak_fixture_golden_traces():
    kcenter = load_scenario(FIXTURES / "kcenter_sneak.json")
    assert trace_lines(run_scenario(kcenter)) == KCENTER_SNEAK_TRACE
    lr = load_scenario(FIXTURES / "lr_sneak.json")
    assert trace_lines(run_scenario(lr)) == LR_SNEAK_TRACE


# The long-number scenario of the CI's console-script step: a negative
# 1000-digit integer string, and a "p/q" with 1000-digit parts.
LONG_MAX = {
    "protocol": "continuous",
    "ell": 1,
    "agents": 2,
    "algorithm": {"name": "max"},
    "nature_input": [
        {"agent": 1, "payload": {"kind": "scalar", "value": "-" + "7" * 1000}},
        {"agent": 2, "payload": {"kind": "scalar", "value": "2" + "0" * 998 + "3/" + "9" * 1000}},
    ],
}


def test_fixture_round_trips():
    # The canonical dict is a fixed point of serialize-then-load, and the
    # reloaded scenario replays to the identical trace; the long-number
    # scenario takes it past `_STR_SAFE_BITS`.
    long_max = scenario_from_dict(LONG_MAX)
    values = [element.payload.value for element in long_max.ninput]
    assert all(
        max(value.numerator.bit_length(), value.denominator.bit_length()) > _STR_SAFE_BITS
        for value in values
    )
    for scenario in [*map(load_scenario, FIXTURES.glob("*.json")), long_max]:
        data = scenario_to_dict(scenario)
        reloaded = scenario_from_dict(data)
        assert scenario_to_dict(reloaded) == data
        assert trace_lines(run_scenario(reloaded)) == trace_lines(run_scenario(scenario))


# =============================================================================
# Validation errors carry field paths
# =============================================================================


def test_rejects_bad_window():
    with pytest.raises(ValidationError, match="ell"):
        scenario_from_dict(_minimal_dict(ell=0))


def test_rejects_window_on_periodic():
    data = _minimal_dict(protocol="periodic")
    data["nature_input"][0]["round"] = 1
    with pytest.raises(ValidationError, match="ell"):
        scenario_from_dict(data)
    del data["ell"]
    assert scenario_from_dict(data).protocol == "periodic"


def test_rejects_decreasing_rounds():
    data = _minimal_dict(protocol="periodic")
    del data["ell"]
    data["nature_input"] = [
        {"agent": 1, "round": 2, "payload": {"kind": "scalar", "value": 5}},
        {"agent": 2, "round": 1, "payload": {"kind": "scalar", "value": 6}},
    ]
    with pytest.raises(ValidationError, match="nature_input"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "rounds, agents, field",
    [
        ((2, 2), (1, 2), "nature_input[0].round"),
        ((0, 1), (1, 2), "nature_input[0].round"),
        ((1, 2, 1), (1, 2, 1), "nature_input[2].round"),
        ((1, 1, 1), (1, 2, 1), "nature_input[2]"),
    ],
    ids=["start_at_two", "round_zero", "decreasing", "repeated_agent"],
)
def test_round_errors_cite_the_element(rounds, agents, field):
    data = _minimal_dict(protocol="periodic")
    del data["ell"]
    data["nature_input"] = [
        {"agent": agent, "round": round_no, "payload": {"kind": "scalar", "value": 5}}
        for agent, round_no in zip(agents, rounds)
    ]
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(data)
    assert str(info.value).startswith(f"{field}: ")


def test_rejects_unknown_payload_kind():
    data = _minimal_dict()
    data["nature_input"][0]["payload"] = {"kind": "blobs", "blobs": []}
    with pytest.raises(ValidationError, match="payload.kind"):
        scenario_from_dict(data)


def test_rejects_unknown_strategy():
    with pytest.raises(ValidationError, match="strategies"):
        scenario_from_dict(_minimal_dict(strategies={"1": {"name": "mystery"}}))


def test_rejects_agent_out_of_range():
    data = _minimal_dict()
    data["nature_input"][0]["agent"] = 3
    with pytest.raises(ValidationError, match="agent"):
        scenario_from_dict(data)


def test_rejects_unknown_top_level_field():
    with pytest.raises(ValidationError, match="surprise"):
        scenario_from_dict(_minimal_dict(surprise=1))


def test_rejects_float_values():
    data = _minimal_dict()
    data["nature_input"][0]["payload"]["value"] = 1.5
    with pytest.raises(ValidationError, match="value"):
        scenario_from_dict(data)


def test_regression_start_precondition():
    data = _minimal_dict(algorithm={"name": "dlr", "params": {"d": 1}})
    data["nature_input"] = [
        {
            "agent": 1,
            "payload": {
                "kind": "rows",
                "rows": [
                    {"features": [1, 2], "target": 3},
                    {"features": [1, 2], "target": 3},
                ],
            },
        }
    ]
    with pytest.raises(PreconditionError):
        scenario_from_dict(data)


def test_load_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"protocol": }')
    with pytest.raises(ValidationError, match="line 1"):
        load_scenario(bad)


# =============================================================================
# Command line
# =============================================================================


def test_cli_run_fixture(capsys):
    assert main(["run", str(FIXTURES / "example_1_1.json")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == EXAMPLE_1_1_TRACE


def test_cli_run_writes_file(tmp_path, capsys):
    target = tmp_path / "trace.jsonl"
    assert main(["run", str(FIXTURES / "figure_7.json"), "--out", str(target)]) == 0
    assert target.read_text().splitlines() == FIGURE_7_TRACE
    assert capsys.readouterr().out == ""


def test_cli_run_missing_file(capsys):
    assert main(["run", "/definitely/not/here.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_run_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    # A malformed file is a validation error, as invalid JSON is.
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text: ")


def _run_file(tmp_path, data: dict) -> int:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return main(["run", str(path)])


def _periodic_dict(*elements, ell=None) -> dict:
    """A periodic scenario whose elements are (agent, round) pairs; round None is left out."""
    return _minimal_dict(protocol="periodic", ell=ell, nature_input=[
        {"agent": agent, "payload": {"kind": "scalar", "value": 5}}
        | ({} if round_no is None else {"round": round_no})
        for agent, round_no in elements
    ])


def _without(key: str) -> dict:
    data = _minimal_dict()
    del data[key]
    return data


def _scalar_elements(*agents) -> list:
    return [{"agent": agent, "payload": {"kind": "scalar", "value": 5}} for agent in agents]


# Scenarios that break one run rule each, and the whole of what `run` writes
# to stderr for them.
_BROKEN_RUN_RULES = {
    "protocol_unknown": (
        _minimal_dict(protocol="rounds"),
        "protocol: expected 'continuous' or 'periodic', got 'rounds'",
    ),
    "protocol_missing": (
        _without("protocol"), "protocol: expected 'continuous' or 'periodic', got None"
    ),
    "ell_zero": (_minimal_dict(ell=0), "ell: must be at least 1, got 0"),
    "ell_negative": (_minimal_dict(ell=-3), "ell: must be at least 1, got -3"),
    "ell_missing": (_without("ell"), "ell: continuous runs need an update window"),
    "ell_null": (_minimal_dict(ell=None), "ell: continuous runs need an update window"),
    "ell_on_periodic": (
        _periodic_dict((1, 1), ell=1), "ell: periodic scenarios do not take an update window"
    ),
    "agents_zero": (
        _minimal_dict(agents=0, nature_input=[]), "agents: must be at least 1, got 0"
    ),
    "strategy_for_agent_3_of_2": (
        _minimal_dict(strategies={"3": {"name": "max_overbid", "params": {"value": 1000}}}),
        "strategies.3: agent 3 outside 1..2",
    ),
    "strategy_for_agent_0": (
        _minimal_dict(strategies={"0": {"name": "truthful"}}),
        "strategies.0: agent 0 outside 1..2",
    ),
    "element_agent_3_of_2": (
        _minimal_dict(nature_input=_scalar_elements(1, 3)),
        "nature_input[1].agent: agent 3 outside 1..2",
    ),
    "element_agent_0": (
        _minimal_dict(nature_input=_scalar_elements(0)),
        "nature_input[0].agent: agent 0 outside 1..2",
    ),
    "continuous_round": (
        _minimal_dict(
            nature_input=[{"agent": 1, "round": 1, "payload": {"kind": "scalar", "value": 5}}]
        ),
        "nature_input[0].round: continuous nature elements must not carry rounds",
    ),
    "periodic_without_round": (
        _periodic_dict((1, 1), (2, None)),
        "nature_input[1].round: periodic nature elements need a positive round",
    ),
    "periodic_round_zero": (
        _periodic_dict((1, 0)),
        "nature_input[0].round: periodic nature elements need a positive round",
    ),
    "periodic_start_at_two": (
        _periodic_dict((1, 2)), "nature_input[0].round: periodic inputs start at round 1"
    ),
    "periodic_decreasing": (
        _periodic_dict((1, 1), (2, 2), (1, 1)),
        "nature_input[2].round: periodic rounds must be non-decreasing",
    ),
    "periodic_repeated_agent": (
        _periodic_dict((1, 1), (2, 1), (1, 1)),
        "nature_input[2]: agent 1 has two elements in round 1",
    ),
}


@pytest.mark.parametrize(
    "data, error", _BROKEN_RUN_RULES.values(), ids=list(_BROKEN_RUN_RULES)
)
def test_cli_run_refuses_each_broken_run_rule(tmp_path, capsys, data, error):
    assert _run_file(tmp_path, data) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


# Non-objects that are falsy: only an absent key or null means "none".
_FALSY_NON_OBJECTS = {
    "false": False, "zero": 0, "zero_float": 0.0, "empty_string": "", "empty_list": [],
}


@pytest.mark.parametrize(
    "algorithm, error",
    [
        ({"name": "kcenter", "params": {"k": "5/2"}}, "algorithm.params.k: k must be an integer"),
        ({"name": "kcenter", "params": {"k": 2.5}}, "algorithm.params.k: k must be an integer"),
        ({"name": "kcenter", "params": {"k": True}}, "algorithm.params.k: k must be an integer"),
        (
            {"name": "kcenter", "params": {"k": 2, "max_union": 2.9}},
            "algorithm.params.max_union: max_union must be an integer",
        ),
        ({"name": "dlr", "params": {"d": True}}, "algorithm.params.d: d must be an integer"),
    ] + [
        ({"name": "max", "params": value}, "algorithm.params: expected an object")
        for value in _FALSY_NON_OBJECTS.values()
    ],
    ids=["k_string", "k_float", "k_bool", "max_union_float", "d_bool"]
    + [f"params_{name}" for name in _FALSY_NON_OBJECTS],
)
def test_cli_run_rejects_non_integer_algorithm_params(tmp_path, capsys, algorithm, error):
    assert _run_file(tmp_path, _minimal_dict(algorithm=algorithm)) == 2
    assert f"error: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("p", [True, 2.0, "2", 3], ids=["bool", "float", "string", "three"])
def test_cli_run_rejects_inexact_norm(tmp_path, capsys, p):
    algorithm = {"name": "kcenter", "params": {"k": 1, "p": p}}
    assert _run_file(tmp_path, _minimal_dict(algorithm=algorithm)) == 2
    assert "error: algorithm.params.p: norm order must be" in capsys.readouterr().err


def test_cli_run_rejects_points_on_a_max_ledger(tmp_path, capsys):
    data = _minimal_dict()
    data["nature_input"].append({"agent": 2, "payload": {"kind": "points", "points": [[1]]}})
    assert _run_file(tmp_path, data) == 2
    assert "error: nature_input[1].payload: expected Scalar payloads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "algorithm, payload, message",
    [
        (
            {"name": "kcenter", "params": {"k": 1}},
            {"kind": "points", "points": [["1/2", 0], ["2/4", 0]]},
            "duplicate point in set payload: (1/2, 0)",
        ),
        (
            {"name": "dlr", "params": {"d": 1}},
            {"kind": "rows", "rows": [{"features": ["1/2", 0], "target": 1}]},
            "feature vector must lead with 1, got (1/2, 0)",
        ),
    ],
    ids=["duplicate_point", "row_not_leading_with_1"],
)
def test_cli_run_prints_a_rejected_point_as_written(tmp_path, capsys, algorithm, payload, message):
    data = _minimal_dict(algorithm=algorithm, nature_input=[{"agent": 1, "payload": payload}])
    assert _run_file(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert f"error: nature_input[0].payload: {message}" in err
    assert "Fraction(" not in err


def test_cli_run_rejects_wrong_width_rows_on_a_dlr_ledger(tmp_path, capsys):
    rows = {"kind": "rows", "rows": [{"features": [1, 0], "target": 1}, {"features": [1, 1], "target": 2}]}
    wide = {"kind": "rows", "rows": [{"features": [1, 2, 3], "target": 0}]}
    data = _minimal_dict(
        algorithm={"name": "dlr", "params": {"d": 1}},
        nature_input=[{"agent": 1, "payload": rows}, {"agent": 2, "payload": wide}],
    )
    assert _run_file(tmp_path, data) == 2
    assert "error: nature_input[1].payload: rows of width 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "strategy, field",
    [
        ({"name": "max_overbid", "params": {"value": 1.5}}, "strategies.2.params.value"),
        ({"name": "max_overbid", "params": {"value": True}}, "strategies.2.params.value"),
        ({"name": "fabricate_point", "params": {"point": [1.5]}}, "strategies.2.params.point[0]"),
        (
            {"name": "fabricate_point", "params": {"point": [1, 1.5]}},
            "strategies.2.params.point[1]",
        ),
        (
            {"name": "sneak", "params": {"rho_cond": {"kind": "centers", "centers": [[0], [1, 1.5]]}}},
            "strategies.2.params.rho_cond.centers[1][1]",
        ),
        (
            {
                "name": "sneak",
                "params": {"rho_cond": {"kind": "coefficients", "coefficients": [1, 1.5]}},
            },
            "strategies.2.params.rho_cond.coefficients[1]",
        ),
    ],
    ids=["float_value", "bool_value", "float_point", "float_second_coordinate",
         "float_in_a_center", "float_coefficient"],
)
def test_cli_run_rejects_inexact_strategy_params(tmp_path, capsys, strategy, field):
    assert _run_file(tmp_path, _minimal_dict(strategies={"2": strategy})) == 2
    assert f"error: {field}: expected an integer or 'p/q' string" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [1.5, True, "3"], ids=["float", "bool", "string"])
def test_cli_run_rejects_a_non_integer_seed(tmp_path, capsys, seed):
    assert _run_file(tmp_path, _minimal_dict(seed=seed)) == 2
    assert f"error: seed: expected an integer, got {seed!r}" in capsys.readouterr().err


_ROWS = {
    "kind": "rows",
    "rows": [{"features": [1, 0], "target": 1}, {"features": [1, 1], "target": 2}],
}
_POINTS = {"kind": "points", "points": [[0], [1], [2]]}
# Rows that pin a two-feature fit.
_WIDE_ROWS = {
    "kind": "rows",
    "rows": [
        {"features": [1, 0, 0], "target": 1},
        {"features": [1, 1, 0], "target": 2},
        {"features": [1, 0, 1], "target": 3},
    ],
}


@pytest.mark.parametrize(
    "algorithm, payload, strategy, field",
    [
        (
            {"name": "dlr", "params": {"d": 1}},
            _ROWS,
            {"name": "triangulation", "params": {"d": "3"}},
            "strategies.2.params.d",
        ),
        (
            {"name": "kcenter", "params": {"k": 3}},
            _POINTS,
            {"name": "kcenter_sneak", "params": {"k": "3", "eps": "1/1000"}},
            "strategies.2.params.k",
        ),
    ],
    ids=["triangulation_d_string", "kcenter_sneak_k_string"],
)
def test_cli_run_rejects_non_integer_strategy_counts(
    tmp_path, capsys, algorithm, payload, strategy, field
):
    data = _minimal_dict(
        algorithm=algorithm,
        strategies={"2": strategy},
        nature_input=[{"agent": 1, "payload": payload}],
    )
    assert _run_file(tmp_path, data) == 2
    assert f"error: {field}: {field[-1]} must be an integer, got '3'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "algorithm, payload, strategy, field",
    [
        (
            {"name": "dlr", "params": {"d": 1}},
            _ROWS,
            {"name": "fabricate_rows", "params": {"rows": [{"features": [1, 0], "target": 1}]}},
            "strategies.2.params.rows",
        ),
        (
            {"name": "max"},
            {"kind": "scalar", "value": 5},
            {"name": "sneak", "params": {"u_cond": 5, "rho_cond": 5, "u_attack": 6, "u_resync": 7}},
            "strategies.2.params.u_cond",
        ),
        (
            {"name": "kcenter", "params": {"k": 1}},
            _POINTS,
            {"name": "omit_point", "params": {"point": {"x": 1}}},
            "strategies.2.params.point",
        ),
        (
            {"name": "max"},
            {"kind": "scalar", "value": 5},
            {"name": "max_overbid", "params": {"value": [3]}},
            "strategies.2.params.value",
        ),
        (
            {"name": "kcenter", "params": {"k": 3}},
            _POINTS,
            {"name": "kcenter_sneak", "params": {"k": 2, "eps": "1/1000"}},
            "strategies.2.params.k",
        ),
        (
            {"name": "dlr", "params": {"d": 1}},
            _ROWS,
            {"name": "triangulation", "params": {"d": 2}},
            "strategies.2.params.d",
        ),
        (
            {"name": "kcenter", "params": {"k": 1}},
            _POINTS,
            {"name": "triangulation", "params": {"d": 1}},
            "strategies.2.params.d",
        ),
        (
            {"name": "kcenter", "params": {"k": 1}},
            _POINTS,
            {
                "name": "sneak",
                "params": {
                    "u_cond": _POINTS,
                    "rho_cond": {"kind": "centers", "centers": [[0]]},
                    "u_attack": {"kind": "points", "points": [[1]]},
                    "u_resync": _ROWS,
                },
            },
            "strategies.2.params.u_resync",
        ),
        (
            {"name": "dlr", "params": {"d": 1}},
            _ROWS,
            {"name": "fabricate_rows", "params": {"rows": _WIDE_ROWS}},
            "strategies.2.params.rows",
        ),
        (
            {"name": "max"},
            {"kind": "scalar", "value": 5},
            {"name": "fabricate_point", "params": {"point": 3}},
            "strategies.2.params.point",
        ),
        (
            {"name": "dlr", "params": {"d": 1}},
            _ROWS,
            {"name": "omit_point", "params": {"point": [0, 1]}},
            "strategies.2.params.point",
        ),
    ] + [
        (
            {"name": "max"},
            {"kind": "scalar", "value": 5},
            {"name": "truthful", "params": value},
            "strategies.2.params",
        )
        for value in _FALSY_NON_OBJECTS.values()
    ],
    ids=[
        "fabricate_rows_list", "sneak_integers", "omit_point_dict", "max_overbid_list",
        "kcenter_sneak_k2", "triangulation_other_d", "triangulation_not_dlr",
        "sneak_rows_on_kcenter", "fabricate_rows_too_wide", "fabricate_point_on_max",
        "omit_point_on_dlr",
    ] + [f"params_{name}" for name in _FALSY_NON_OBJECTS],
)
def test_cli_run_rejects_malformed_strategy_params(
    tmp_path, capsys, algorithm, payload, strategy, field
):
    data = _minimal_dict(
        algorithm=algorithm,
        strategies={"2": strategy},
        nature_input=[{"agent": 1, "payload": payload}],
    )
    assert _run_file(tmp_path, data) == 2
    assert f"error: {field}: " in capsys.readouterr().err


_OVERBID = {"name": "max_overbid", "params": {"value": 1000}}


@pytest.mark.parametrize(
    "strategies, error",
    [
        (value, "strategies: expected an object keyed by agent number")
        for value in _FALSY_NON_OBJECTS.values()
    ] + [
        (
            {"1": _OVERBID, "01": {"name": "truthful"}},
            "strategies.01: agent 1 must be keyed as '1'",
        ),
        ({"+1": _OVERBID}, "strategies.+1: agent 1 must be keyed as '1'"),
        ({" 1": _OVERBID}, "strategies. 1: agent 1 must be keyed as '1'"),
        ({"0_2": _OVERBID}, "strategies.0_2: agent 2 must be keyed as '2'"),
        ({"one": _OVERBID}, "strategies.one: agent keys must be integers"),
    ],
    ids=[
        *_FALSY_NON_OBJECTS, "leading_zero_twin", "plus_sign", "leading_space", "underscore",
        "word",
    ],
)
def test_cli_run_rejects_malformed_strategy_tables(tmp_path, capsys, strategies, error):
    assert _run_file(tmp_path, _minimal_dict(strategies=strategies)) == 2
    assert f"error: {error}" in capsys.readouterr().err


def test_absent_or_null_strategies_and_params_mean_none():
    for data in (
        _minimal_dict(strategies=None),
        _minimal_dict(algorithm={"name": "max", "params": None}),
        _minimal_dict(strategies={"2": {"name": "truthful", "params": None}}),
    ):
        scenario = scenario_from_dict(data)
        assert scenario.algorithm_spec == {"name": "max", "params": {}}
        assert all(spec["params"] == {} for spec in scenario.strategy_specs.values())


# Valid JSON parameters for every strategy a scenario file can name.
_STRATEGY_PARAMS = {
    "truthful": {},
    "max_echo": {},
    "max_overbid": {"value": "3/2"},
    "average_probe": {},
    "kcenter_sneak": {"k": 3, "eps": "1/1000"},
    "lr_sneak": {},
    "triangulation": {"d": 2},
    "sneak": {
        "u_cond": _POINTS,
        "rho_cond": {"kind": "centers", "centers": [[0], [1]]},
        "u_attack": {"kind": "points", "points": [[1]]},
        "u_resync": {"kind": "empty"},
    },
    "omit_point": {"point": [1, "1/2"]},
    "fabricate_point": {"point": "-3"},
    "fabricate_rows": {"rows": _ROWS},
}


# A ledger that takes each strategy's payload and point parameters and what
# it can send, with a nature payload for it; the strategies not
# listed load on `max`.
_STRATEGY_LEDGERS = {
    "average_probe": ({"name": "average"}, _POINTS),
    "kcenter_sneak": ({"name": "kcenter", "params": {"k": 3}}, _POINTS),
    "lr_sneak": ({"name": "dlr", "params": {"d": 1}}, _ROWS),
    "triangulation": ({"name": "dlr", "params": {"d": 2}}, _WIDE_ROWS),
    "sneak": ({"name": "kcenter", "params": {"k": 2}}, _POINTS),
    "omit_point": ({"name": "kcenter", "params": {"k": 2}}, _POINTS),
    "fabricate_point": ({"name": "kcenter", "params": {"k": 2}}, _POINTS),
    "fabricate_rows": ({"name": "dlr", "params": {"d": 1}}, _ROWS),
}


def _strategy_dict(name: str, params: dict) -> dict:
    algorithm, payload = _STRATEGY_LEDGERS.get(
        name, ({"name": "max"}, {"kind": "scalar", "value": 5})
    )
    spec = {"name": name, "params": params} if params else {"name": name}
    return _minimal_dict(
        algorithm=algorithm,
        strategies={"2": spec},
        nature_input=[{"agent": 1, "payload": payload}],
    )


def test_strategy_table_declares_every_parameter_kind():
    assert set(_STRATEGY_PARAMS) == set(STRATEGIES)
    kinds = {kind for _, declared, _ in STRATEGIES.values() for kind in declared.values()}
    assert kinds == {"rational", "count", "point", "payload", "output"}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_every_strategy_loads_and_round_trips(name):
    params = _STRATEGY_PARAMS[name]
    assert set(params) == set(STRATEGIES[name][1])
    source = _strategy_dict(name, params)
    scenario = scenario_from_dict(source)
    assert callable(scenario.strategies[2])
    data = scenario_to_dict(scenario)
    assert data["strategies"] == source["strategies"]
    assert scenario_to_dict(scenario_from_dict(json.loads(json.dumps(data)))) == data


@pytest.mark.parametrize(
    "name, key",
    [(name, key) for name, (_, kinds, _) in sorted(STRATEGIES.items()) for key in kinds],
)
def test_every_strategy_param_rejects_a_float(name, key):
    params = {**_STRATEGY_PARAMS[name], key: 1.5}
    with pytest.raises(ValidationError, match=rf"^strategies\.2\.params\.{key}: "):
        scenario_from_dict(_strategy_dict(name, params))


def test_triangulation_must_match_the_dlr_algorithm():
    spec = {"name": "triangulation", "params": {"d": 2}}
    other_d = _minimal_dict(
        algorithm={"name": "dlr", "params": {"d": 1}},
        strategies={"2": spec},
        nature_input=[{"agent": 1, "payload": _ROWS}],
    )
    # The algorithm's own `check` refuses the strategy's width-3 probe rows.
    for data, message in (
        (other_d, "rows of width 3 on a 1-dimensional regression ledger"),
        (_minimal_dict(strategies={"2": spec}), "expected Scalar payloads, got RowMultiset"),
    ):
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(data)
        assert str(excinfo.value) == f"strategies.2.params.d: {message}"


# name -> (algorithm, payload shape): "scalar", 1 for points on the line, or
# the row width.
_SWEEP_LEDGERS = {
    "max": ({"name": "max"}, "scalar"),
    "average": ({"name": "average"}, 1),
    "kcenter": ({"name": "kcenter", "params": {"k": 2}}, 1),
    "kmedian": ({"name": "kmedian", "params": {"k": 2}}, 1),
    "dlr_1": ({"name": "dlr", "params": {"d": 1}}, 2),
    "dlr_2": ({"name": "dlr", "params": {"d": 2}}, 3),
}
_ON_POINTS = ("average", "kcenter", "kmedian")
# strategy -> (the ledgers it loads on, the field that refuses it on the others)
_SWEEP_OUTCOMES = {
    "truthful": (tuple(_SWEEP_LEDGERS), None),
    "max_echo": (("max",), "name"),
    "max_overbid": (("max",), "name"),
    "average_probe": (_ON_POINTS, "name"),
    "kcenter_sneak": (_ON_POINTS, "name"),
    "lr_sneak": (("dlr_1",), "name"),
    "triangulation": (("dlr_1",), "params.d"),
    "sneak": (tuple(_SWEEP_LEDGERS), None),
    "omit_point": (_ON_POINTS, "params.point"),
    "fabricate_point": (_ON_POINTS, "params.point"),
    "fabricate_rows": (("dlr_1", "dlr_2"), "params.rows"),
}


def _sweep_payload(rng: random.Random, shape) -> dict:
    def value() -> str:
        return f"{rng.randint(-5, 5)}/{rng.choice((1, 2, 3))}"

    if shape == "scalar":
        return {"kind": "scalar", "value": value()}
    if shape == 1:
        points = sorted({rng.randint(-5, 5) for _ in range(rng.randint(1, 3))})
        return {"kind": "points", "points": [[x] for x in points]}
    rows = [
        {"features": [1] + [value() for _ in range(shape - 1)], "target": value()}
        for _ in range(rng.randint(1, 3))
    ]
    return {"kind": "rows", "rows": rows}


def _sweep_scenario(name: str, ledger: str, seed: int) -> dict:
    algorithm, shape = _SWEEP_LEDGERS[ledger]
    rng = random.Random(f"sweep:{name}:{ledger}:{seed}")
    first = _sweep_payload(rng, shape)
    if shape not in ("scalar", 1):
        # Unit rows first, so the opening fit is unique.
        first["rows"] = [
            {"features": [1] + [int(i == j) for j in range(shape - 1)], "target": i}
            for i in range(shape)
        ]
    elements = [{"agent": 1, "payload": first}] + [
        {"agent": rng.randint(1, 3), "payload": _sweep_payload(rng, shape)}
        for _ in range(rng.randint(2, 5))
    ]
    # A payload of the ledger's own kind, unlike any of nature's.
    if shape == "scalar":
        swapped = {"kind": "scalar", "value": 100}
    elif shape == 1:
        swapped = {"kind": "points", "points": [[100]]}
    else:
        swapped = {"kind": "rows", "rows": [{"features": [1] * shape, "target": 100}]}
    point = first["points"][0] if shape == 1 else 1
    rows = _sweep_payload(rng, 2 if shape in ("scalar", 1) else shape)
    params = {
        "max_overbid": {"value": "7/2"},
        "kcenter_sneak": {"k": 3, "eps": "1/1000"},
        "triangulation": {"d": 1},
        "sneak": {
            "u_cond": first, "rho_cond": {"kind": "null"}, "u_attack": swapped,
            "u_resync": {"kind": "empty"},
        },
        "omit_point": {"point": point},
        "fabricate_point": {"point": 5},
        "fabricate_rows": {"rows": rows},
    }.get(name)
    spec = {"name": name, "params": params} if params else {"name": name}
    return _minimal_dict(
        ell=3, agents=3, algorithm=algorithm, strategies={"2": spec}, nature_input=elements
    )


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_a_loaded_scenario_never_refuses_a_payload_mid_run(name):
    # Every strategy on every algorithm, over small generated nature inputs:
    # the loader refuses a payload the algorithm cannot take at the field of
    # the strategy that can send it, so a run that starts never raises
    # PayloadError.
    assert set(_SWEEP_OUTCOMES) == set(STRATEGIES)
    loads_on, field = _SWEEP_OUTCOMES[name]
    for ledger in _SWEEP_LEDGERS:
        for seed in range(30):
            data = _sweep_scenario(name, ledger, seed)
            if ledger not in loads_on:
                with pytest.raises(ValidationError, match=rf"^strategies\.2\.{field}: "):
                    scenario_from_dict(data)
                continue
            run_scenario(scenario_from_dict(data))


@pytest.mark.parametrize(
    "algorithm, payload, strategy",
    [
        ({"name": "dlr", "params": {"d": 1}}, _ROWS, {"name": "max_overbid", "params": {"value": 9}}),
        ({"name": "average"}, _POINTS, {"name": "max_echo"}),
        ({"name": "max"}, {"kind": "scalar", "value": 5}, {"name": "average_probe"}),
        (
            {"name": "dlr", "params": {"d": 1}},
            _ROWS,
            {"name": "kcenter_sneak", "params": {"k": 3, "eps": "1/1000"}},
        ),
        ({"name": "dlr", "params": {"d": 2}}, _WIDE_ROWS, {"name": "lr_sneak"}),
    ],
    ids=[
        "max_overbid_on_dlr", "max_echo_on_average", "average_probe_on_max",
        "kcenter_sneak_on_dlr", "lr_sneak_on_dlr_d2",
    ],
)
def test_cli_run_refuses_a_strategy_whose_payloads_the_ledger_cannot_fold(
    tmp_path, capsys, algorithm, payload, strategy
):
    # The first three used to fail mid-run with exit 1, the sneak presets to
    # run with exit 0 while never firing.
    data = _minimal_dict(
        algorithm=algorithm,
        strategies={"2": strategy},
        nature_input=[{"agent": 1, "payload": payload}],
    )
    assert _run_file(tmp_path, data) == 2
    assert "error: strategies.2.name: " in capsys.readouterr().err


_POINTS_2D = {"kind": "points", "points": [[0, 0], [1, 1], [2, 0]]}


@pytest.mark.parametrize(
    "nature, strategies, field",
    [
        ([_POINTS, _POINTS_2D], {}, "nature_input[1].payload"),
        (
            [_POINTS_2D],
            {"2": {"name": "fabricate_point", "params": {"point": 5}}},
            "strategies.2.params.point",
        ),
        (
            [_POINTS_2D],
            {"2": {"name": "kcenter_sneak", "params": {"k": 3, "eps": "1/1000"}}},
            "strategies.2.name",
        ),
        (
            [{"kind": "empty"}, _POINTS],
            {
                "2": {
                    "name": "sneak",
                    "params": {
                        "u_cond": _POINTS,
                        "rho_cond": {"kind": "null"},
                        "u_attack": {"kind": "points", "points": [[0, 1]]},
                        "u_resync": {"kind": "empty"},
                    },
                }
            },
            "strategies.2.params.u_attack",
        ),
        (
            [{"kind": "empty"}],
            {
                "2": {"name": "fabricate_point", "params": {"point": [1, 2]}},
                "3": {"name": "fabricate_point", "params": {"point": 1}},
            },
            "strategies.3.params.point",
        ),
    ],
    ids=["nature", "fabricate_point", "kcenter_sneak", "sneak_u_attack", "two_strategies"],
)
def test_cli_run_refuses_mixed_point_dimensions(tmp_path, capsys, nature, strategies, field):
    # Nature's first point set fixes the one dimension, or else the first
    # point set a strategy sends; these used to exit 1 mid-run or, for
    # `kcenter_sneak`, run without ever firing.
    data = _minimal_dict(
        agents=3,
        algorithm={"name": "kcenter", "params": {"k": 3}},
        strategies=strategies,
        nature_input=[{"agent": 1, "payload": payload} for payload in nature],
    )
    assert _run_file(tmp_path, data) == 2
    message = "point payloads of mixed dimension on one ledger"
    assert f"error: {field}: {message}" in capsys.readouterr().err


def test_cli_run_kmedian_irrational_distance_exits_1(tmp_path, capsys):
    data = _minimal_dict(
        algorithm={"name": "kmedian", "params": {"k": 1}},
        nature_input=[
            {"agent": 1, "payload": {"kind": "points", "points": [[0, 0], [1, 1], [2, 0]]}}
        ],
    )
    assert _run_file(tmp_path, data) == 1
    assert "error: UnsupportedNormError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "points, pair",
    [
        ([[0, 0], [1, 1]], "(1, 1) and (0, 0)"),
        ([["1/2", 0], [0, "1/3"]], "(1/2, 0) and (0, 1/3)"),
    ],
    ids=["unit_scale", "scale_6"],
)
def test_cli_run_kmedian_irrational_distance_names_the_pair(tmp_path, capsys, points, pair):
    data = _minimal_dict(
        algorithm={"name": "kmedian", "params": {"k": 1, "p": 2}},
        nature_input=[{"agent": 1, "payload": {"kind": "points", "points": points}}],
    )
    assert _run_file(tmp_path, data) == 1
    assert capsys.readouterr().err == (
        f"error: UnsupportedNormError: euclidean distance between {pair} is irrational; "
        "use p=1 or p='inf', or 1-dimensional data\n"
    )


def test_cli_demo_average(capsys):
    assert main(["attack-demo", "average"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "attack final 2, truth final 14/5, differs true",
        "inference: truth-run final 14/5 (exact match: true)",
    ]


def test_cli_demo_max(capsys):
    assert main(["attack-demo", "max"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "attack final 100, truth final 110, differs true",
        "inference: truth-run final 110 (exact match: true)",
    ]


def test_cli_demo_kcenter(capsys):
    assert main(["attack-demo", "kcenter_sneak"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "attack final {-1/1000, 0, 1}, truth final {1, 10, 100}, differs true",
        "classification: omission",
    ]


def test_cli_demo_kcenter_sneak_past_the_default_union_cap(capsys):
    # k = 10 makes a union of 21 points, one past the default cap; the demo
    # used to exit 1 with InstanceTooLargeError.
    assert main(["attack-demo", "kcenter_sneak", "--k", "10"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first.endswith("differs true")
    assert second == "classification: omission"


def test_cli_demo_lr(capsys):
    assert main(["attack-demo", "lr_sneak"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "attack final (5/6, 1/2), truth final (1, 0), differs true",
        "classification: explicitly_lying",
    ]


def test_cli_demo_triangulation_csv(tmp_path, capsys):
    csv_path = tmp_path / "ladder.csv"
    code = main(
        ["attack-demo", "triangulation", "--d", "2", "--seed", "7", "--csv", str(csv_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "differs true" in out
    assert "(exact match: true)" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "stage,point_x1,point_x2,point_y,role,coef_0,coef_1,coef_2"
    roles = {line.split(",")[4] for line in lines[1:]}
    assert roles <= {"ledger", "factual", "probe", "deflection"}
    assert "probe" in roles


# sha256 of the `attack-demo triangulation --csv` table at the default seed.
TRIANGULATION_CSV_SHA256 = {
    1: "a5b4b1ac7da0b18f0cf7e1c8fa3e96f49ea17c42c223eca80c862547dc484c5c",
    2: "c1c87fa6710297dcbaae01ec01141b0f36cfa92cc18dc4a7fa1fcb68d203610e",
    3: "4882a36a6c384f07a6a62a041ef768782d336302fc06cbe205dabf25fedacd7f",
    5: "746df3eeab421d3b34518431fbbdda3e94cb992bcfc90754a8ff47d99d0da94b",
    10: "08e056a926a92589b7222e80b1ae9abeda3e53a5a5af93310f99dead21d80794",
}


@pytest.mark.parametrize("d", sorted(TRIANGULATION_CSV_SHA256))
def test_cli_demo_triangulation_csv_golden_digest(tmp_path, capsys, d):
    csv_path = tmp_path / "ladder.csv"
    assert main(["attack-demo", "triangulation", "--d", str(d), "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == TRIANGULATION_CSV_SHA256[d]


def _wire(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _long_stream(kind: str, length: int) -> dict:
    """A continuous scenario of `length` elements of `kind`, dealt to three
    agents at ell 1 so that no agent gets two elements in a row and no
    truthful echo is dropped. `max_echo` is the max stream with the echo
    attacker on agent 1, which never gets the first element. Average points
    carry mixed denominators, one of them a large prime."""
    rng = random.Random(f"long-stream:{kind}")

    def value(lo: int, hi: int, denominators: tuple[int, ...]) -> Fraction:
        return Fraction(rng.randint(lo, hi), rng.choice(denominators))

    def distinct(count: int, draw) -> list[Fraction]:
        values: set[Fraction] = set()
        while len(values) < count:
            values.add(draw())
        return sorted(values)

    def rows(count: int) -> list[dict]:
        return [
            {"features": [1, _wire(value(-10, 10, (1, 2)))], "target": _wire(value(-10, 10, (1, 2)))}
            for _ in range(count)
        ]

    agents: list[int] = []
    for position in range(length):
        choices = [a for a in (1, 2, 3) if not agents or a != agents[-1]]
        if position == 0 and kind == "max_echo":
            choices.remove(1)
        agents.append(rng.choice(choices))
    algorithm, strategies = {"name": kind}, {}
    payloads = []
    for position in range(length):
        if kind in ("max", "max_echo"):
            payloads.append({"kind": "scalar", "value": _wire(value(-999, 999, (1, 2, 3, 4)))})
        elif kind == "average":
            points = distinct(rng.randint(1, 3), lambda: value(-99, 99, (1, 2, 3, 5, 7, 1_000_003)))
            payloads.append({"kind": "points", "points": [[_wire(v)] for v in points]})
        elif kind == "dlr":
            batch = rows(rng.randint(1, 2))
            while position == 0 and len({r["features"][1] for r in batch}) < 2:
                batch = rows(3)
            payloads.append({"kind": "rows", "rows": batch})
        else:
            points = distinct(rng.randint(1, 2), lambda: Fraction(rng.choice((-7, -3, 0, 1, 2, 5, 8, 13))))
            payloads.append({"kind": "points", "points": [[_wire(v)] for v in points]})
    if kind == "max_echo":
        algorithm, strategies = {"name": "max"}, {"1": {"name": "max_echo"}}
    elif kind == "dlr":
        algorithm = {"name": "dlr", "params": {"d": 1}}
    elif kind == "kcenter":
        algorithm = {"name": "kcenter", "params": {"k": 2}}
    return {
        "protocol": "continuous",
        "ell": 1,
        "agents": 3,
        "algorithm": algorithm,
        "strategies": strategies,
        "nature_input": [{"agent": a, "payload": p} for a, p in zip(agents, payloads)],
    }


LONG_STREAM_KINDS = ("max", "average", "dlr", "kcenter", "max_echo")

# sha256 over the trace lines of `_long_stream(kind, 500)` for each kind in
# `LONG_STREAM_KINDS`, in order: each line's UTF-8 bytes and then "\n".
LONG_STREAMS_TRACE_SHA256 = "4ea357970657e4af867dff06a4ebacf16f970e792b80ccfa7c96f0678c989530"


def test_long_streams_keep_their_traces():
    digest = hashlib.sha256()
    for kind in LONG_STREAM_KINDS:
        run = run_scenario(scenario_from_dict(_long_stream(kind, 500)))
        lines = trace_lines(run)
        # Every truthful echo reaches the ledger; the attacker's only replace its own.
        assert len(lines) == 3 * 500
        for line in lines:
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == LONG_STREAMS_TRACE_SHA256


def test_cli_demo_unknown_name(capsys):
    assert main(["attack-demo", "nope"]) == 2
    assert "unknown demo" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["attack-demo", "triangulation", "--d", "0"], "argument --d: d must be positive, got 0"),
        (
            ["attack-demo", "kcenter_sneak", "--k", "2"],
            "argument --k: the construction needs k >= 3, got 2",
        ),
        (
            ["attack-demo", "kcenter_sneak", "--eps", "1/2"],
            "argument --eps: eps must lie strictly between 0 and 1/4, got 1/2",
        ),
        (
            ["verify", "condition_i", "--attack", "triangulation", "--d", "0"],
            "argument --d: d must be positive, got 0",
        ),
    ],
    ids=["demo_d0", "demo_k2", "demo_eps_half", "verify_d0"],
)
def test_cli_refuses_values_the_constructors_refuse(capsys, argv, message):
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["abc", "1/0"])
def test_cli_demo_rejects_a_malformed_eps(capsys, eps):
    with pytest.raises(SystemExit) as info:
        main(["attack-demo", "kcenter_sneak", "--eps", eps])
    assert info.value.code == 2
    assert f"argument --eps: invalid rational value: '{eps}'" in capsys.readouterr().err


def test_cli_verify_inference(tmp_path):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "verify", "inference", "--attack", "max_echo",
            "--count", "5", "--json", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["suite"] == "inference"
    assert report["attack"] == "max_echo"
    assert report["inference_pass_rate"] == 1
    assert report["expectation_met"] is True


def test_cli_triangulation_runs_at_d_of_10(capsys):
    # The case generator used to draw its hidden row count from an empty
    # range for d >= 10, and both commands exited 1.
    assert main(["attack-demo", "triangulation", "--d", "10"]) == 0
    assert "(exact match: true)" in capsys.readouterr().out
    assert main(["verify", "inference", "--attack", "triangulation", "--d", "10", "--count", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["inference_pass_rate"] == 1


def test_cli_verify_star_expects_echo_failure(capsys):
    # The scalar generator leaves some scenarios unmoved, the suite expects
    # exactly that, so the exit code is success while pass stays false.
    assert main(["verify", "condition_i_star", "--attack", "max_echo", "--count", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["condition_i_star"]["pass"] is False
    assert report["expectation_met"] is True


def test_cli_verify_condition_i(capsys):
    assert main(["verify", "condition_i", "--attack", "kcenter_sneak"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["condition_i"]["differs"] is True
    assert report["protocol"] == "continuous"


# Every `exclusim verify` command of the CI console-script step, in its order:
# the step runs each line of this file, and the golden reports are their stdout.
VERIFY_COMMANDS = (
    (Path(__file__).resolve().parent / "verify_commands.txt").read_text(encoding="utf-8").splitlines()
)
VERIFY_REPORTS = Path(__file__).resolve().parent / "verify_reports"


def _report_name(command: str) -> str:
    return command.replace(" --", "-").replace(" ", "-") + ".json"


def test_golden_verify_reports_are_the_ci_commands():
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
    lines = [line.strip() for line in workflow.read_text(encoding="utf-8").splitlines()]
    # CI runs the file's commands and lists none of its own.
    assert "xargs -L 1 exclusim verify < tests/verify_commands.txt" in lines
    assert [line for line in lines if line.startswith("exclusim verify ")] == []
    names = sorted(path.name for path in VERIFY_REPORTS.iterdir())
    assert names == sorted(map(_report_name, VERIFY_COMMANDS))


@pytest.mark.parametrize("command", VERIFY_COMMANDS)
def test_cli_verify_report_is_golden(capsys, command):
    # The committed reports are the stdout of each command, byte for byte.
    assert main(["verify", *command.split()]) == 0
    golden = (VERIFY_REPORTS / _report_name(command)).read_bytes().decode("utf-8")
    assert capsys.readouterr().out == golden


def _record(argv: list[str]):
    """The CLI's attack record, built from the arguments `verify` parses."""
    args = build_parser().parse_args(argv)
    return ATTACKS[args.attack](args)


def _canonical_verdict(record):
    return check_condition_i(
        record.algorithm, record.strategy, record.j, record.case.ninput,
        ell=record.case.ell, agent_count=record.case.agent_count,
    )


@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_cli_verify_condition_i_reports_lossless_baseline(capsys, attack):
    argv = ["verify", "condition_i", "--attack", attack]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    verdict = _canonical_verdict(_record(argv))
    assert report["condition_i"]["truth_lossless"] is verdict.truth_lossless


# The attacks each suite covers, and the condition (i*) outcome each seeded
# suite expects: max_echo leaves some generated streams unmoved.
_COVERED = {
    "condition_i": ("average", "kcenter_sneak", "lr_sneak", "max_echo", "triangulation"),
    "condition_i_star": ("average", "max_echo", "triangulation"),
    "inference": ("average", "max_echo", "triangulation"),
}
_STAR_PASSES = {"average": True, "max_echo": False, "triangulation": True}


def _api_verdict(suite: str, attack: str, argv: list[str]) -> tuple[str, object, bool]:
    """The report field the suite fills, computed through the harness API,
    and whether the suite's expectation holds."""
    record = _record(argv)
    if suite == "condition_i":
        verdict = _canonical_verdict(record)
        fields = {
            "differs": verdict.differs,
            "attack_final": output_to_json(verdict.attack_final),
            "truth_final": output_to_json(verdict.truth_final),
            "truth_lossless": verdict.truth_lossless,
        }
        return "condition_i", fields, verdict.differs
    if suite == "condition_i_star":
        non_differing = check_condition_i_star(
            record.algorithm, record.strategy, record.j, record.cases, 4, seed=0
        )
        fields = {
            "pass": not non_differing,
            "non_differing_seeds": non_differing,
            "generator_bound": GENERATOR_BOUND_NOTE,
        }
        return "condition_i_star", fields, (not non_differing) == _STAR_PASSES[attack]
    failed = verify_inference(
        record.algorithm, record.strategy, record.decode, record.cases, 4, j=record.j, seed=0
    )
    return "inference_pass_rate", format_rational(Fraction(4 - len(failed), 4)), not failed


@pytest.mark.parametrize(
    "suite, attack",
    [(suite, attack) for suite, attacks in _COVERED.items() for attack in attacks],
)
def test_cli_verify_suites_agree_with_the_api(capsys, suite, attack):
    argv = ["verify", suite, "--attack", attack, "--count", "4"]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    key, fields, met = _api_verdict(suite, attack, argv)
    assert report[key] == fields
    assert report["expectation_met"] is met
    assert code == (0 if met else 1)


@pytest.mark.parametrize(
    "suite, attack",
    [
        (suite, attack)
        for suite, covered in _COVERED.items()
        for attack in [*ATTACKS, "max", "bogus"]
        if attack not in covered
    ],
)
def test_cli_verify_refuses_uncovered_attacks(capsys, suite, attack):
    assert main(["verify", suite, "--attack", attack, "--count", "2"]) == 2
    assert f"error: suite {suite} does not cover attack '{attack}'" in capsys.readouterr().err


@pytest.mark.parametrize("suite", sorted(_COVERED))
def test_cli_verify_requires_an_attack(capsys, suite):
    covered = ", ".join(sorted(_COVERED[suite], key=list(ATTACKS).index))
    # A value some attack refuses does not hide the missing flag: the list
    # of covered attacks is built without building any of them.
    for extra in ([], ["--d", "0"]):
        assert main(["verify", suite, *extra]) == 2
        assert capsys.readouterr().err == f"error: suite {suite} requires --attack, one of {covered}\n"


def test_cli_seeded_attacks_are_those_built_with_cases():
    args = build_parser().parse_args(["verify", "inference"])
    seeded = [name for name, build in ATTACKS.items() if build(args).cases is not None]
    assert seeded == list(SEEDED_ATTACKS)


@pytest.mark.parametrize("count", ["0", "-2"])
@pytest.mark.parametrize(
    "suite_args",
    [
        ["condition_i", "--attack", "average"],
        ["condition_i_star", "--attack", "max_echo"],
        ["inference", "--attack", "max_echo"],
        ["periodic_safety"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_verify_rejects_a_count_below_one(capsys, suite_args, count):
    with pytest.raises(SystemExit) as info:
        main(["verify", *suite_args, "--count", count])
    assert info.value.code == 2
    assert f"argument --count: must be a positive integer, got {count}" in capsys.readouterr().err


def test_cli_verify_periodic_safety(capsys):
    assert main(
        ["verify", "periodic_safety", "--algorithm", "dlr", "--count", "3"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["protocol"] == "periodic"
    assert len(report["witnesses"]) == 3
    assert all(w["valid"] for w in report["witnesses"])


@pytest.mark.parametrize("algorithm", sorted(PERIODIC_SCENARIOS))
def test_cli_verify_periodic_witnesses_match_the_api(capsys, algorithm):
    assert main(["verify", "periodic_safety", "--algorithm", algorithm, "--count", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    witnesses = report["witnesses"]
    attack, make_scenario, confounder = PERIODIC_SCENARIOS[algorithm]
    assert report["attack"] == attack
    for seed, reported in zip((0, 1), witnesses):
        api_algorithm, strategy, case = make_scenario(seed)
        witness = confounder(api_algorithm, case.ninput, strategy, 2, agent_count=case.agent_count)
        assert reported["seed"] == seed
        assert reported["input_a"] == ninput_to_json(witness.input_a)
        assert reported["input_b"] == ninput_to_json(witness.input_b)
        assert reported["valid"] is witness.is_valid() is True


@pytest.mark.parametrize(
    "algorithm, attack", [("dlr", "lr_sneak"), ("kcenter", "kcenter_sneak")]
)
def test_cli_verify_periodic_safety_accepts_only_its_attack(capsys, algorithm, attack):
    argv = ["verify", "periodic_safety", "--algorithm", algorithm, "--count", "1"]
    for extra in ([], ["--attack", attack]):
        assert main([*argv, *extra]) == 0
        assert json.loads(capsys.readouterr().out)["attack"] == attack
    for other in ("foo", "triangulation"):
        assert main([*argv, "--attack", other]) == 2
        assert f"does not cover attack '{other}'" in capsys.readouterr().err


def test_cli_verify_periodic_safety_refuses_unknown_algorithm(capsys):
    assert main(["verify", "periodic_safety", "--algorithm", "max"]) == 2
    assert "does not cover algorithm 'max'" in capsys.readouterr().err


def test_cli_verify_unknown_attack(capsys):
    assert main(["verify", "inference", "--attack", "max"]) == 2
    assert "does not cover" in capsys.readouterr().err


# =============================================================================
# Serialization details
# =============================================================================


def test_scenario_to_dict_is_canonical():
    scenario = load_scenario(FIXTURES / "figure_1.json")
    data = scenario_to_dict(scenario)
    assert data["algorithm"] == {"name": "max"}
    assert data["strategies"] == {"1": {"name": "max_overbid", "params": {"value": 110}}}
    assert all("round" not in element for element in data["nature_input"])


def test_trace_values_use_rational_strings():
    scenario = load_scenario(FIXTURES / "example_1_1.json")
    lines = trace_lines(run_scenario(scenario))
    assert '"5/2"' in lines[5]
    assert '"value":2' in lines[7]


def test_seed_survives_round_trip():
    data = _minimal_dict(seed=42)
    scenario = scenario_from_dict(data)
    assert scenario.seed == 42
    assert scenario_to_dict(scenario)["seed"] == 42


# =============================================================================
# Exact rationals of any length
# =============================================================================

# A numerator of 5,001 digits: more than the interpreter's int-to-str cap.
_LONG = 10**5000 + 7
_LONG_TEXT = "1" + "0" * 4999 + "7"


def test_format_rational_writes_every_digit_of_a_long_numerator():
    text = format_rational(Fraction(-_LONG, 3))
    assert text == f"-{_LONG_TEXT}/3"


def test_format_rational_writes_a_long_integer_as_a_digit_string():
    assert format_rational(Fraction(_LONG)) == _LONG_TEXT
    assert format_rational(Fraction(10**1000)) == 10**1000


def test_trace_of_a_long_rational():
    payload = Scalar(Fraction(_LONG, 3))
    run = Run("continuous", (FactualDelivery(1, payload), LedgerUpdate(1, payload)))
    value = f'{{"kind":"scalar","value":"{_LONG_TEXT}/3"}}'
    assert trace_lines(run)[1] == f'{{"seq":1,"kind":"ledger","agent":1,"payload":{value}}}'


def test_a_long_rational_string_fails_at_its_field_path():
    data = _minimal_dict()
    data["nature_input"][0]["payload"]["value"] = "1" * 5000
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(data)
    assert str(info.value).startswith("nature_input[0].payload.value: Exceeds the limit")


@pytest.mark.parametrize("value", ["1e10000000", "0.5", "-47e-2"])
def test_cli_run_refuses_decimal_and_exponent_strings(tmp_path, capsys, value):
    data = _minimal_dict()
    data["nature_input"][0]["payload"]["value"] = value
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - start < 5
    assert (
        f"error: nature_input[0].payload.value: Invalid literal for Fraction: '{value}'"
        in capsys.readouterr().err
    )


def test_cli_demo_refuses_an_exponent_eps(capsys):
    with pytest.raises(SystemExit) as info:
        main(["attack-demo", "kcenter_sneak", "--eps", "1e10000000"])
    assert info.value.code == 2
    assert "argument --eps: invalid rational value: '1e10000000'" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_cli_run_prints_what_it_writes(tmp_path, capsys, path):
    target = tmp_path / "trace.jsonl"
    assert main(["run", str(path), "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == target.read_text()


# =============================================================================
# Differential tests: the decoder and the trace against their oracles
# =============================================================================


def _outcome(function, *args):
    try:
        return "value", function(*args)
    except ValidationError as exc:
        return "error", str(exc)


# JSON values a payload field might hold, well-formed or not.
_atoms = st.one_of(
    st.integers(min_value=-10, max_value=10),
    st.sampled_from(
        ["1/2", "2/4", "-3/7", " -7/2 ", "4", "abc", "1/0", "0.5", "1e3", "", "1/-2"]
    ),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.booleans(),
    st.none(),
    st.just([]),
    st.just({}),
)
_coordinates = st.lists(_atoms, max_size=3)
_points_field = st.one_of(
    st.lists(_coordinates, max_size=4),
    # Duplicates and mixed dimension among valid points.
    st.lists(st.sampled_from([[1], ["2/4"], ["1/2"], [0, 1], [-1, "1/3"]]), max_size=4),
    _atoms,
)
_row_entry = st.one_of(
    st.fixed_dictionaries(
        {"features": st.one_of(_coordinates, st.sampled_from([[1], [1, 2], [1, "1/2", 3]]))},
        optional={"target": _atoms},
    ),
    st.fixed_dictionaries({"target": _atoms}),
    st.sampled_from([{"features": [2, 1], "target": 1}, {"features": [1, 5], "target": "x"}]),
    _atoms,
)
_payload_json = st.one_of(
    st.fixed_dictionaries({"kind": st.just("scalar")}, optional={"value": _atoms}),
    st.fixed_dictionaries({"kind": st.just("points")}, optional={"points": _points_field}),
    st.fixed_dictionaries(
        {"kind": st.just("rows")},
        optional={"rows": st.one_of(st.lists(_row_entry, max_size=4), _atoms)},
    ),
    st.fixed_dictionaries({}, optional={"kind": st.sampled_from(["empty", "blobs", 3])}),
    _atoms,
)


@given(obj=_payload_json)
@example(obj={"kind": "points", "points": [[1], ["2/4"], ["1/2"]]})
@example(obj={"kind": "points", "points": [[1], [1, 2]]})
@example(obj={"kind": "rows", "rows": [{"features": [1, 2], "target": 1}, {"features": [1]}]})
@example(obj={"kind": "rows", "rows": [{"features": [2], "target": 1}, {"target": "abc"}]})
@example(
    obj={"kind": "rows", "rows": [{"features": [1], "target": 0}, {"features": [1, 2], "target": 0}]}
)
@settings(max_examples=400, deadline=None)
def test_payload_decoder_matches_the_oracle(obj):
    # The loader decodes every payload through `_decode(_payload, ...)`.
    assert _outcome(_decode, _payload, obj, "nature_input[3].payload") == _outcome(
        reference_scenario.payload_from_json, obj, "nature_input[3].payload"
    )


# Payloads that decode, of every kind, dimension and width.
_valid_payload_json = st.sampled_from([
    {"kind": "scalar", "value": "3/2"},
    {"kind": "points", "points": [[1], ["-1/3"]]},
    {"kind": "points", "points": [[0, 1]]},
    {"kind": "points", "points": []},
    {"kind": "rows", "rows": [{"features": [1, 2], "target": 1}]},
    {"kind": "rows", "rows": [{"features": [1, 2, 3], "target": 0}]},
    {"kind": "empty"},
])
_element_json = st.one_of(
    st.fixed_dictionaries(
        {"agent": st.just(1)}, optional={"payload": st.one_of(_valid_payload_json, _payload_json)}
    ),
    _atoms,
)


@given(
    algorithm=st.sampled_from([
        make_algorithm("max"),
        make_algorithm("average"),
        make_algorithm("kcenter", {"k": 1}),
        make_algorithm("dlr", {"d": 1}),
    ]),
    raw=st.one_of(st.lists(_element_json, max_size=5), _atoms),
)
@settings(max_examples=300, deadline=None)
def test_nature_input_decoder_matches_the_oracle(algorithm, raw):
    # The loader decodes nature's elements in one frame each, with `check`
    # and the one-dimension rule inline: the same elements, or the same
    # message at the same field path.
    decode = partial(_elements, algorithm.check, set())
    assert _outcome(_decode, decode, raw, "nature_input") == _outcome(
        reference_scenario.nature_input_from_json, raw, algorithm
    )


# JSON values a coordinate might hold, well-formed or not: the exponent
# string "1e5" besides `_atoms`' floats, booleans and decimal strings.
_coordinate_lists = st.one_of(
    st.lists(st.one_of(_atoms, st.just("1e5")), max_size=3),
    st.sampled_from([[1], ["-1/3", 2], [0, "1/2", "7"]]),
    _atoms,
)
_output_json = st.one_of(
    st.sampled_from([
        {"kind": "scalar", "value": "3/2"},
        {"kind": "centers", "centers": [[1, "1/2"], [0, 0]]},
        {"kind": "centers", "centers": []},
        {"kind": "coefficients", "coefficients": [1, "-2/3"]},
        {"kind": "null"},
    ]),
    st.fixed_dictionaries({"kind": st.just("scalar")}, optional={"value": _atoms}),
    st.fixed_dictionaries(
        {"kind": st.just("centers")},
        optional={"centers": st.one_of(st.lists(_coordinate_lists, max_size=3), _atoms)},
    ),
    st.fixed_dictionaries(
        {"kind": st.just("coefficients")}, optional={"coefficients": _coordinate_lists}
    ),
    st.fixed_dictionaries({}, optional={"kind": st.sampled_from(["null", "points", 3])}),
    _atoms,
)


@given(obj=_output_json)
@example(obj={"kind": "centers", "centers": [[0], [1, 1.5]]})
@example(obj={"kind": "coefficients", "coefficients": [1, "1e5"]})
@example(obj={"kind": "coefficients", "coefficients": [1, True]})
@settings(max_examples=300, deadline=None)
def test_output_decoder_matches_the_oracle(obj):
    # A sneak's `rho_cond` goes through `_decode(_output, ...)`: the same
    # output, or the same message at the same field path.
    assert _outcome(_decode, _output, obj, "strategies.2.params.rho_cond") == _outcome(
        reference_scenario.output_from_json, obj, "strategies.2.params.rho_cond"
    )


@given(value=_coordinate_lists)
@example(value=[1, 1.5])
@example(value=[])
@example(value="1e5")
@settings(max_examples=200, deadline=None)
def test_point_param_decoder_matches_the_oracle(value):
    decode = _PARAM_DECODERS["point"]
    assert _outcome(_decode, decode, value, "strategies.2.params.point") == _outcome(
        reference_scenario.point_param_from_json, value, "strategies.2.params.point"
    )


# Past `_STR_SAFE_BITS`, yet well under the int-to-str cap: `str` converts it.
_WIDE = 10**1000 + 3
# Long values of each kind and sign, so every payload and output kind goes
# through both branches of the trace writer's number rule: an int `str`
# converts, an int past the cap written as a digit string, and a fraction
# whose numerator or denominator `_decimal` splits.
_LONG_RATIONALS = [
    sign * value
    for value in (Fraction(_WIDE), Fraction(_LONG), Fraction(_WIDE, 2), Fraction(5, _WIDE))
    for sign in (1, -1)
]


def _long_rational(index: int) -> Fraction:
    # Drawn by index: hypothesis writes the values of `sampled_from` into the
    # strategy's repr, and `repr(Fraction(_LONG))` is past the int-to-str cap.
    return _LONG_RATIONALS[index]


_rationals = st.one_of(
    st.integers(min_value=-6, max_value=6).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
    st.integers(min_value=0, max_value=len(_LONG_RATIONALS) - 1).map(_long_rational),
)


def test_long_rationals_take_both_branches_of_the_number_rule():
    assert all(
        max(value.numerator.bit_length(), value.denominator.bit_length()) > _STR_SAFE_BITS
        for value in _LONG_RATIONALS
    )
    kinds = [type(format_rational(value)) for value in _LONG_RATIONALS]
    assert kinds.count(int) == 2 and kinds.count(str) == 6


@st.composite
def _payloads(draw):
    kind = draw(st.sampled_from(["scalar", "points", "rows", "empty"]))
    if kind == "scalar":
        return Scalar(draw(_rationals))
    if kind == "points":
        dim = draw(st.integers(min_value=1, max_value=2))
        points = draw(
            st.lists(st.tuples(*[_rationals] * dim), min_size=1, max_size=3, unique=True)
        )
        return PointSet(points)
    if kind == "rows":
        width = draw(st.integers(min_value=1, max_value=3))
        rows = draw(
            st.lists(
                st.tuples(st.tuples(*[_rationals] * (width - 1)), _rationals),
                min_size=1,
                max_size=3,
            )
        )
        return RowMultiset([Row((1, *features), target) for features, target in rows])
    return Empty()


_outputs = st.one_of(
    _rationals.map(ScalarOutput),
    st.lists(st.tuples(_rationals, _rationals), max_size=3).map(CentersOutput),
    st.lists(_rationals, min_size=1, max_size=3).map(CoefficientsOutput),
    st.just(NullOutput()),
)


def _assert_same_document(ours: object, oracle: object) -> None:
    # Equal, and with the same key order, which the pretty-printed reports show.
    assert ours == oracle
    assert json.dumps(ours) == json.dumps(oracle)


@given(
    payloads=st.lists(_payloads(), max_size=3),
    rounds=st.lists(st.none() | st.integers(min_value=1, max_value=5), min_size=3, max_size=3),
    output=_outputs,
)
@settings(max_examples=200, deadline=None)
def test_document_writers_match_the_oracle(payloads, rounds, output):
    # `ninput_to_json` writes each payload through `payload_to_json`, and
    # `round` only on the elements that have one.
    ninput = [NatureElement(1, payload, r) for payload, r in zip(payloads, rounds)]
    oracle = [
        {"agent": 1, "payload": reference_scenario.payload_to_json(payload)}
        | ({} if r is None else {"round": r})
        for payload, r in zip(payloads, rounds)
    ]
    _assert_same_document(ninput_to_json(ninput), oracle)
    _assert_same_document(output_to_json(output), reference_scenario.output_to_json(output))


@st.composite
def _transcripts(draw):
    """Runs whose messages share some payload and output objects, and carry
    equal but distinct objects elsewhere."""
    payloads = draw(st.lists(_payloads(), min_size=1, max_size=4))
    outputs = draw(st.lists(_outputs, min_size=1, max_size=3))
    messages = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from([FactualDelivery, LedgerUpdate, OutputBroadcast]))
        pool = outputs if kind is OutputBroadcast else payloads
        value = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
        if draw(st.booleans()):
            value = copy.deepcopy(value)
        if kind is OutputBroadcast:
            messages.append(OutputBroadcast(value))
        else:
            messages.append(kind(draw(st.integers(min_value=1, max_value=3)), value))
    protocol = draw(st.sampled_from(["continuous", "periodic"]))
    return Run(protocol, tuple(messages), 1 if protocol == "continuous" else None)


@given(run=_transcripts())
@settings(max_examples=300, deadline=None)
def test_trace_matches_the_oracle_on_shared_and_distinct_objects(run):
    assert trace_lines(run) == reference_scenario.trace_lines(run)


@given(
    protocol=st.sampled_from(["continuous", "periodic"]),
    algorithm=st.sampled_from(["max", "average"]),
    attack=st.booleans(),
    values=st.lists(st.tuples(st.integers(1, 2), _rationals), min_size=1, max_size=8),
    shared=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_trace_matches_the_oracle_on_engine_runs(protocol, algorithm, attack, values, shared):
    # One payload object per distinct value when `shared`, else one per element.
    made: dict = {}

    def payload(value):
        fresh = Scalar(value) if algorithm == "max" else PointSet([(value,)])
        return made.setdefault(value, fresh) if shared else fresh

    if protocol == "continuous":
        ninput = [NatureElement(agent, payload(value)) for agent, value in values]
    else:
        ninput = [
            NatureElement(agent, payload(value), index + 1)
            for index, (agent, value) in enumerate(values)
        ]
    attacker = make_strategy("max_echo" if algorithm == "max" else "average_probe")
    strategies = {2: attacker} if attack else {}
    run = run_protocol(
        protocol, ninput, strategies, make_algorithm(algorithm, {}), 2,
        ell=2 if protocol == "continuous" else None,
    )
    assert trace_lines(run) == reference_scenario.trace_lines(run)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_fixture_traces_match_the_oracle(path):
    run = run_scenario(load_scenario(path))
    assert trace_lines(run) == reference_scenario.trace_lines(run)
