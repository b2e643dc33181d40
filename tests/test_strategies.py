"""Attack strategies, their inference functions, and run classification."""

from __future__ import annotations

from fractions import Fraction

import pytest

from exclusim.algorithms import (
    AverageAlgorithm,
    CentersOutput,
    CoefficientsOutput,
    DlrAlgorithm,
    Empty,
    KCenterAlgorithm,
    MaxAlgorithm,
    NullOutput,
    ParamError,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
)
from exclusim.cli import triangulation_csv_rows
from exclusim.protocol import KIND_LEDGER, NatureElement, extract, observed_history, run_protocol
from exclusim.strategies import (
    InferenceError,
    SneakParams,
    StrategyClass,
    average_double_probe,
    average_infer,
    average_infer_from_history,
    classify_strategy_run,
    fabricate_point,
    kcenter_sneak_params,
    lr_sneak_params,
    make_strategy,
    max_echo_attack,
    max_infer,
    max_overbid,
    omit_point,
    sneak_attack,
    triangulation_attack,
    triangulation_infer_from_history,
)

TRUTHFUL = {}


def _scalar_input(*pairs):
    return tuple(NatureElement(agent, Scalar(Fraction(v))) for agent, v in pairs)


def _point_set(*values) -> PointSet:
    return PointSet(tuple((Fraction(v),) for v in values))


def _rows(*triples) -> RowMultiset:
    return RowMultiset(tuple(Row((1,) + tuple(f), t) for *f, t in triples))


# =============================================================================
# max: echo and overbid
# =============================================================================


def test_max_echo_canonical_run():
    ninput = _scalar_input((2, 100), (1, 110))
    attack = run_protocol(
        "continuous", ninput, {1: max_echo_attack()}, MaxAlgorithm(), 2, ell=1
    )
    truth = run_protocol("continuous", ninput, {}, MaxAlgorithm(), 2, ell=1)
    assert attack.final_output() == ScalarOutput(Fraction(100))
    assert truth.final_output() == ScalarOutput(Fraction(110))


def test_max_echo_inference_recovers_truth():
    ninput = _scalar_input((2, 100), (1, 110))
    attack = run_protocol(
        "continuous", ninput, {1: max_echo_attack()}, MaxAlgorithm(), 2, ell=1
    )
    inferred = max_infer(observed_history(attack, 1))
    assert inferred == ScalarOutput(Fraction(110))


def test_max_overbid_lifts_output():
    ninput = _scalar_input((2, 90))
    attack = run_protocol(
        "continuous", ninput, {1: max_overbid(Fraction(110))}, MaxAlgorithm(), 2, ell=1
    )
    assert attack.final_output() == ScalarOutput(Fraction(110))


# =============================================================================
# average: double probe
# =============================================================================


def _example_average_input():
    return (
        NatureElement(1, _point_set(1, 4, 5)),
        NatureElement(2, _point_set(1, 3)),
    )


def test_average_probe_canonical_run():
    ninput = _example_average_input()
    attack = run_protocol(
        "continuous", ninput, {2: average_double_probe()}, AverageAlgorithm(), 2, ell=2
    )
    truth = run_protocol("continuous", ninput, {}, AverageAlgorithm(), 2, ell=2)
    assert attack.final_output() == ScalarOutput(Fraction(2))
    assert truth.final_output() == ScalarOutput(Fraction(14, 5))


def test_average_probe_inference_from_history():
    ninput = _example_average_input()
    attack = run_protocol(
        "continuous", ninput, {2: average_double_probe()}, AverageAlgorithm(), 2, ell=2
    )
    result = average_infer_from_history(observed_history(attack, 2))
    assert result.others_count == 3
    assert result.others_sum == Fraction(10)
    assert result.true_average == Fraction(14, 5)


def test_average_infer_formulas():
    # First response nonzero: hidden count and sum come from the ratio shift.
    result = average_infer(
        Fraction(5, 2), Fraction(2), own_sum=Fraction(4), own_count=2
    )
    assert result.others_count == 3
    assert result.others_sum == Fraction(10)
    assert result.true_average == Fraction(14, 5)
    # First response zero: the hidden sum is zero and the count comes from
    # the unit probe.
    zero = average_infer(Fraction(0), Fraction(1, 5), own_sum=Fraction(0), own_count=1)
    assert zero.others_count == 3
    assert zero.others_sum == Fraction(0)


def test_average_infer_rejects_degenerate_responses():
    with pytest.raises(InferenceError):
        average_infer(Fraction(2), Fraction(2), Fraction(0), 1)
    with pytest.raises(InferenceError):
        average_infer(Fraction(5, 3), Fraction(7, 5), Fraction(0), 1)


# =============================================================================
# sneak template
# =============================================================================


def test_sneak_params_validation():
    with pytest.raises(ParamError):
        SneakParams(
            u_cond=_point_set(1),
            rho_cond=CentersOutput(((Fraction(0),),)),
            u_attack=_point_set(1),
            u_resync=_point_set(2),
        )


def test_kcenter_sneak_canonical_run():
    params = kcenter_sneak_params(3, Fraction(1, 1000))
    cluster = PointSet(params.rho_cond.centers)
    ninput = (NatureElement(1, cluster), NatureElement(2, params.u_cond))
    attack = run_protocol(
        "continuous", ninput, {2: sneak_attack(params)}, KCenterAlgorithm(3), 2, ell=1
    )
    truth = run_protocol("continuous", ninput, {}, KCenterAlgorithm(3), 2, ell=1)
    eps = Fraction(1, 1000)
    assert attack.final_output() == CentersOutput(((-eps,), (Fraction(0),), (Fraction(1),)))
    assert truth.final_output() == CentersOutput(
        ((Fraction(1),), (Fraction(10),), (Fraction(100),))
    )


def test_kcenter_sneak_repairs_when_run_continues():
    # With a third element after the swap, the resynchronization lands and
    # the union of the attacker's updates equals its factual set again.
    params = kcenter_sneak_params(3, Fraction(1, 1000))
    cluster = PointSet(params.rho_cond.centers)
    ninput = (
        NatureElement(1, cluster),
        NatureElement(2, params.u_cond),
        NatureElement(1, _point_set(50)),
    )
    attack = run_protocol(
        "continuous", ninput, {2: sneak_attack(params)}, KCenterAlgorithm(3), 2, ell=1
    )
    truth = run_protocol("continuous", ninput, {}, KCenterAlgorithm(3), 2, ell=1)
    assert attack.final_output() == truth.final_output()


def test_kcenter_sneak_params_validation():
    with pytest.raises(ParamError):
        kcenter_sneak_params(2, Fraction(1, 1000))
    with pytest.raises(ParamError):
        kcenter_sneak_params(3, Fraction(1, 2))


def test_lr_sneak_canonical_run():
    params = lr_sneak_params()
    warm = _rows((1, 1), (0, 1))
    ninput = (NatureElement(1, warm), NatureElement(2, params.u_cond))
    attack = run_protocol(
        "continuous", ninput, {2: sneak_attack(params)}, DlrAlgorithm(1), 2, ell=1
    )
    truth = run_protocol("continuous", ninput, {}, DlrAlgorithm(1), 2, ell=1)
    assert list(attack.broadcasts()) == [
        CoefficientsOutput((Fraction(1), Fraction(0))),
        CoefficientsOutput((Fraction(5, 6), Fraction(1, 2))),
    ]
    assert truth.final_output() == CoefficientsOutput((Fraction(1), Fraction(0)))


def test_sneak_does_not_fire_without_conditioning_broadcast():
    # Different opening data means the conditioning output never appears, so
    # the strategy behaves truthfully end to end.
    params = lr_sneak_params()
    warm = _rows((1, 2), (0, 1))
    ninput = (NatureElement(1, warm), NatureElement(2, params.u_cond))
    attack = run_protocol(
        "continuous", ninput, {2: sneak_attack(params)}, DlrAlgorithm(1), 2, ell=1
    )
    truth = run_protocol("continuous", ninput, {}, DlrAlgorithm(1), 2, ell=1)
    assert attack.messages == truth.messages


# =============================================================================
# omission and fabrication
# =============================================================================


def test_omit_point_withholds_one_point():
    ninput = (NatureElement(1, _point_set(0, 5)), NatureElement(2, _point_set(2, 7)))
    attack = run_protocol(
        "continuous", ninput, {2: omit_point(7)}, KCenterAlgorithm(2), 2, ell=1
    )
    sent = [
        m.payload
        for m in attack.messages
        if type(m).__name__ == "LedgerUpdate" and m.agent == 2
    ]
    assert sent == [_point_set(2)]


def test_fabricate_point_swaps_everything():
    ninput = (NatureElement(1, _point_set(0, 5)), NatureElement(2, _point_set(2, 7)))
    attack = run_protocol(
        "continuous", ninput, {2: fabricate_point(99)}, KCenterAlgorithm(2), 2, ell=1
    )
    sent = [
        m.payload
        for m in attack.messages
        if type(m).__name__ == "LedgerUpdate" and m.agent == 2
    ]
    assert sent == [_point_set(99)]


# =============================================================================
# classification
# =============================================================================


def test_classification_of_the_two_sneaks():
    kc = kcenter_sneak_params(3, Fraction(1, 1000))
    cluster = PointSet(kc.rho_cond.centers)
    ninput = (NatureElement(1, cluster), NatureElement(2, kc.u_cond))
    attack = run_protocol(
        "continuous", ninput, {2: sneak_attack(kc)}, KCenterAlgorithm(3), 2, ell=1
    )
    truth = run_protocol("continuous", ninput, {}, KCenterAlgorithm(3), 2, ell=1)
    assert classify_strategy_run(attack, 2, truth_run=truth) is StrategyClass.OMISSION

    lr = lr_sneak_params()
    warm = _rows((1, 1), (0, 1))
    ninput = (NatureElement(1, warm), NatureElement(2, lr.u_cond))
    attack = run_protocol(
        "continuous", ninput, {2: sneak_attack(lr)}, DlrAlgorithm(1), 2, ell=1
    )
    assert classify_strategy_run(attack, 2) is StrategyClass.EXPLICITLY_LYING


def test_classification_truthlike_for_truthful_agent():
    ninput = _scalar_input((1, 5), (2, 7))
    run = run_protocol("continuous", ninput, {}, MaxAlgorithm(), 2, ell=1)
    assert classify_strategy_run(run, 2) is StrategyClass.TRUTHLIKE


# =============================================================================
# triangulation
# =============================================================================


def _triangulation_runs(d, ninput, agent_count=3):
    ell = d + 2
    attack = run_protocol(
        "continuous", ninput, {2: triangulation_attack(d)}, DlrAlgorithm(d), agent_count, ell=ell
    )
    truth = run_protocol("continuous", ninput, {}, DlrAlgorithm(d), agent_count, ell=ell)
    return attack, truth


def test_triangulation_one_feature_frozen_example():
    # Hidden rows fit (1, 0); the ladder probes twice, infers the hidden
    # moments exactly, and stays silent because its own silence already
    # separates the finals.
    warm = _rows((1, 1), (0, 1))
    ninput = (NatureElement(1, warm),)
    attack, truth = _triangulation_runs(1, ninput)
    result = triangulation_infer_from_history(observed_history(attack, 2), 1)
    assert result.truth_output == truth.final_output()
    assert result.sigma_matrix.det() != 0
    assert result.delta_matrix.det() != 0
    assert attack.final_output() != truth.final_output()


def test_triangulation_probe_count():
    warm = _rows((1, 1), (0, 1))
    ninput = (NatureElement(1, warm),)
    attack, _ = _triangulation_runs(1, ninput)
    own_updates = [
        m for m in attack.messages if type(m).__name__ == "LedgerUpdate" and m.agent == 2
    ]
    assert len(own_updates) == 2  # d + 1 probes, no deflection


def test_triangulation_with_own_factual_retrigger():
    warm = _rows((1, 1), (0, 1))
    ninput = (
        NatureElement(2, _rows((2, 3), (4, 5))),
        NatureElement(1, warm),
    )
    attack, truth = _triangulation_runs(1, ninput)
    result = triangulation_infer_from_history(observed_history(attack, 2), 1)
    assert result.truth_output == truth.final_output()


def test_triangulation_insufficient_history_raises():
    warm = _rows((1, 1), (0, 1))
    run = run_protocol("continuous", (NatureElement(1, warm),), {}, DlrAlgorithm(1), 2, ell=3)
    with pytest.raises(InferenceError):
        triangulation_infer_from_history(observed_history(run, 2), 1)


def test_triangulation_deflects_when_the_truth_equals_the_broadcast():
    # Run a warm ledger under the ladder and read its two probe rows P. Then
    # hand P to the attacker first: with no fit yet it withholds P, the ladder
    # sends the same probes, and the inferred truth fit(H + P) is the current
    # broadcast, so a third own row pushes the fit away.
    warm = _rows((1, 1), (0, 1))
    first, _ = _triangulation_runs(1, (NatureElement(1, warm),))
    probes = tuple(row for payload in extract(first, KIND_LEDGER, 2) for row in payload.rows)
    assert len(probes) == 2

    ninput = (NatureElement(2, RowMultiset(probes)), NatureElement(1, warm))
    attack, truth = _triangulation_runs(1, ninput)
    sent = extract(attack, KIND_LEDGER, 2)
    assert tuple(row for payload in sent[:2] for row in payload.rows) == probes
    assert len(sent) == 3
    (deflection,) = sent[2].rows
    assert deflection.features == (1, 0)
    probed = attack.broadcasts()[-2]
    assert probed == truth.final_output()
    assert deflection.target == probed.coefficients[0] + 1
    assert attack.final_output() != truth.final_output()

    roles = [line[3] for line in triangulation_csv_rows(attack, 2, 1)[1:]]
    assert roles == ["factual", "factual", "ledger", "ledger", "probe", "probe", "deflection"]


def test_triangulation_rejects_bad_dimension():
    with pytest.raises(ParamError):
        triangulation_attack(0)


# =============================================================================
# registry
# =============================================================================


def test_make_strategy_known_names():
    assert callable(make_strategy("truthful"))
    assert callable(make_strategy("max_overbid", {"value": "110"}))
    assert callable(make_strategy("kcenter_sneak", {"k": 3, "eps": "1/1000"}))
    assert callable(make_strategy("omit_point", {"point": ["3"]}))


def test_make_strategy_rejects_unknown_and_unused():
    with pytest.raises(ParamError):
        make_strategy("definitely_not_a_strategy")
    with pytest.raises(ParamError):
        make_strategy("max_echo", {"value": 1})
    with pytest.raises(ParamError):
        make_strategy("max_overbid", {})


@pytest.mark.parametrize(
    "name, params, key",
    [
        ("max_overbid", {}, "value"),
        ("kcenter_sneak", {"k": 2, "eps": "1/1000"}, "k"),
        ("kcenter_sneak", {"k": 3, "eps": "1/4"}, "eps"),
        ("fabricate_rows", {"rows": PointSet(((1,),))}, "rows"),
        ("fabricate_rows", {"rows": Scalar(1)}, "rows"),
        (
            "sneak",
            {"u_cond": Scalar(1), "rho_cond": NullOutput(), "u_attack": Scalar(1), "u_resync": Empty()},
            "u_attack",
        ),
    ],
)
def test_make_strategy_names_the_faulty_parameter(name, params, key):
    with pytest.raises(ParamError) as info:
        make_strategy(name, params)
    assert info.value.param == key


@pytest.mark.parametrize(
    "name, params, key",
    [
        ("triangulation", {"d": 2.7}, "d"),
        ("triangulation", {"d": "3"}, "d"),
        ("triangulation", {"d": True}, "d"),
        ("triangulation", {"d": 0}, "d"),
        ("kcenter_sneak", {"k": "3", "eps": "1/1000"}, "k"),
        ("kcenter_sneak", {"k": 3.0, "eps": "1/1000"}, "k"),
    ],
)
def test_make_strategy_rejects_non_integer_counts(name, params, key):
    with pytest.raises(ParamError) as info:
        make_strategy(name, params)
    assert info.value.param == key
