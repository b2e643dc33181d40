"""Paired-run verdicts, confounding-pair search, and scenario generators."""

from __future__ import annotations

from fractions import Fraction

import pytest

from exclusim.algorithms import (
    AverageAlgorithm,
    KCenterAlgorithm,
    KMedianAlgorithm,
    MaxAlgorithm,
    ParamError,
    PointSet,
    Scalar,
    ScalarOutput,
    union_points,
)
from exclusim.harness import (
    NotApplicableError,
    certify_attack,
    check_condition_i,
    check_condition_i_star,
    find_confounding_pair,
    forceable_instance,
    forceable_winner_set,
    kcenter_periodic_scenario,
    lr_periodic_scenario,
    make_average_cases,
    make_max_cases,
    make_triangulation_cases,
    monotonicity_smoke_check,
    periodic_kcenter_omission_confounder,
    periodic_lambda_confounder,
    verify_inference,
)
from exclusim.protocol import NatureElement, run_protocol
from exclusim.strategies import (
    average_double_probe,
    average_infer_from_history,
    fabricate_point,
    max_echo_attack,
    max_infer,
    max_overbid,
    truthful_strategy,
)


def _scalar_input(*pairs):
    return tuple(NatureElement(agent, Scalar(Fraction(v))) for agent, v in pairs)


def _points(*values) -> PointSet:
    return PointSet(tuple((Fraction(v),) for v in values))


# =============================================================================
# Paired verdicts
# =============================================================================


def test_condition_i_echo_moves_final():
    ninput = _scalar_input((2, 100), (1, 110))
    verdict = check_condition_i(MaxAlgorithm(), max_echo_attack(), 1, ninput, ell=1)
    assert verdict.differs
    assert verdict.attack_final == ScalarOutput(Fraction(100))
    assert verdict.truth_final == ScalarOutput(Fraction(110))


def test_condition_i_truthful_is_identity():
    ninput = _scalar_input((2, 100), (1, 110))
    verdict = check_condition_i(MaxAlgorithm(), truthful_strategy, 1, ninput, ell=1)
    assert not verdict.differs
    assert verdict.run_attack.messages == verdict.run_truth.messages


def test_truth_lossless_flags_a_guard_dropped_truthful_echo():
    # At ell=1 agent 2's second element in a row is never echoed: the
    # truthful ledger misses 100, and the verdict says so.
    lossy = check_condition_i(
        MaxAlgorithm(), max_echo_attack(), 1, _scalar_input((2, 90), (2, 100), (1, 5)), ell=1
    )
    assert not lossy.truth_lossless
    assert lossy.truth_final == ScalarOutput(Fraction(90))
    # Rotating recipients keeps every truthful echo on the ledger.
    rotation = check_condition_i(
        MaxAlgorithm(), max_echo_attack(), 1, _scalar_input((2, 90), (1, 100), (2, 5)), ell=1
    )
    assert rotation.truth_lossless
    assert rotation.truth_final == ScalarOutput(Fraction(100))


def test_condition_i_star_average_all_move():
    report = check_condition_i_star(
        AverageAlgorithm(), average_double_probe(), 2, make_average_cases(), count=10
    )
    assert report["pass"]
    assert report["non_differing_seeds"] == []


def test_condition_i_star_echo_fails_on_quiet_seeds():
    # The scalar generator sometimes hands the echoing agent nothing, so the
    # every-scenario version of the check must come back failed.
    report = check_condition_i_star(
        MaxAlgorithm(), max_echo_attack(), 1, make_max_cases(), count=30
    )
    assert not report["pass"]
    assert report["non_differing_seeds"]


def test_verify_inference_max_perfect():
    report = verify_inference(
        MaxAlgorithm(), max_echo_attack(), max_infer, make_max_cases(), count=25, j=1
    )
    assert report["pass_rate"] == 1
    assert report["failed_seeds"] == []


def test_verify_inference_average_perfect():
    def infer(observed):
        return ScalarOutput(average_infer_from_history(observed).true_average)

    report = verify_inference(
        AverageAlgorithm(), average_double_probe(), infer, make_average_cases(),
        count=25, j=2,
    )
    assert report["pass_rate"] == 1


def test_certify_attack_labels():
    ninput = _scalar_input((2, 100), (1, 110))
    verdict = check_condition_i(MaxAlgorithm(), max_echo_attack(), 1, ninput, ell=1)
    inference = verify_inference(
        MaxAlgorithm(), max_echo_attack(), max_infer, make_max_cases(), count=10, j=1
    )
    star = check_condition_i_star(
        MaxAlgorithm(), max_echo_attack(), 1, make_max_cases(), count=10
    )
    certificate = certify_attack(verdict, inference, star)
    assert certificate["vulnerable_demonstrated"]
    assert not certificate["vulnerable_star_demonstrated"]


def test_monotonicity_smoke_check():
    ninput = _scalar_input((2, 100), (1, 110))
    assert monotonicity_smoke_check(MaxAlgorithm(), max_echo_attack(), 1, ninput, ell=1)


# =============================================================================
# Confounding pairs
# =============================================================================


def test_overbid_confounding_pair_frozen():
    base = _scalar_input((2, 90))
    witness = find_confounding_pair(
        MaxAlgorithm(), max_overbid(Fraction(110)), 1, base, budget=50, ell=1
    )
    assert witness is not None and witness.is_valid()
    extension_a = witness.input_a[len(base):]
    extension_b = witness.input_b[len(base):]
    assert [e.agent for e in extension_a] == [3]
    assert [e.agent for e in extension_b] == [3]
    assert extension_a[0].payload == Scalar(Fraction(290, 3))
    assert extension_b[0].payload == Scalar(Fraction(310, 3))


def test_echo_admits_no_confounding_pair():
    # The echo reveals everything it saw, so any pair its observer cannot
    # separate is also inseparable for the truthful runs; the search must
    # come back empty.
    base = _scalar_input((2, 100), (1, 110))
    witness = find_confounding_pair(
        MaxAlgorithm(), max_echo_attack(), 1, base, budget=400, ell=1
    )
    assert witness is None


def test_truthful_admits_no_confounding_pair():
    base = _scalar_input((2, 90))
    witness = find_confounding_pair(
        MaxAlgorithm(), truthful_strategy, 1, base, budget=50, ell=1
    )
    assert witness is None


def test_fabrication_confounding_pair():
    base = (
        NatureElement(1, _points(0, 5)),
        NatureElement(2, _points(2, 7)),
    )
    witness = find_confounding_pair(
        KCenterAlgorithm(2), fabricate_point(99), 2, base, budget=200, ell=1
    )
    assert witness is not None and witness.is_valid()


# =============================================================================
# Forceable winners
# =============================================================================


def test_forceable_kcenter_frozen():
    s = _points(0, 1)
    bar = forceable_winner_set("kcenter", s, Fraction(0), k=3)
    assert [p[0] for p in bar.points] == [
        Fraction(-1), Fraction(1), Fraction(10), Fraction(100)
    ]
    out = KCenterAlgorithm(3).compute((s, bar))
    centers = [c[0] for c in out.centers]
    assert centers == [Fraction(0), Fraction(10), Fraction(100)]


def test_forceable_kmedian_frozen():
    s = _points(0, 1)
    bar = forceable_winner_set("kmedian", s, Fraction(0), k=3)
    assert [p[0] for p in bar.points] == [
        Fraction(-1), Fraction(1), Fraction(20), Fraction(200)
    ]
    out = KMedianAlgorithm(3).compute((s, bar))
    centers = [c[0] for c in out.centers]
    assert centers == [Fraction(0), Fraction(20), Fraction(200)]


def test_forceable_winner_set_never_contains_x():
    for seed in range(5):
        for kind in ("kcenter", "kmedian"):
            s, x, k = forceable_instance(kind, seed)
            bar = forceable_winner_set(kind, s, x, k=k)
            assert x not in bar.points


def test_forceable_winner_set_rejects_bad_instances():
    s = _points(0, 1)
    with pytest.raises(ParamError):
        forceable_winner_set("kmeans", s, Fraction(0))
    with pytest.raises(ParamError):
        forceable_winner_set("kcenter", s, Fraction(0), k=1)
    with pytest.raises(ParamError):
        forceable_winner_set("kcenter", s, Fraction(5))
    with pytest.raises(ParamError):
        forceable_winner_set(
            "kcenter", PointSet(((Fraction(0), Fraction(0)),)), (Fraction(0), Fraction(0))
        )


# =============================================================================
# Round-based confounders
# =============================================================================


def test_lambda_confounder_on_swap_scenarios():
    for seed in range(3):
        algorithm, strategy, case = lr_periodic_scenario(seed)
        witness = periodic_lambda_confounder(
            algorithm, case.ninput, strategy, 2, agent_count=case.agent_count
        )
        assert witness.is_valid()


def test_lambda_confounder_needs_a_moved_output():
    algorithm, _, case = lr_periodic_scenario(0)
    with pytest.raises(NotApplicableError):
        periodic_lambda_confounder(
            algorithm, case.ninput, truthful_strategy, 2, agent_count=case.agent_count
        )


def test_lambda_confounder_refuses_a_moved_kcenter_run():
    algorithm, strategy, case = kcenter_periodic_scenario(0)
    with pytest.raises(ParamError, match="regression algorithm"):
        periodic_lambda_confounder(
            algorithm, case.ninput, strategy, 2, agent_count=case.agent_count
        )


def test_omission_confounder_on_swap_scenario():
    algorithm, strategy, case = kcenter_periodic_scenario(0)
    witness = periodic_kcenter_omission_confounder(
        algorithm, case.ninput, strategy, 2, agent_count=case.agent_count
    )
    assert witness is not None and witness.is_valid()


# =============================================================================
# Generators
# =============================================================================


def test_generators_are_deterministic():
    assert make_max_cases()(7) == make_max_cases()(7)
    assert make_average_cases()(7) == make_average_cases()(7)
    assert make_triangulation_cases(2)(7) == make_triangulation_cases(2)(7)
    assert lr_periodic_scenario(7)[2] == lr_periodic_scenario(7)[2]
    assert kcenter_periodic_scenario(7)[2] == kcenter_periodic_scenario(7)[2]
    assert forceable_instance("kcenter", 7) == forceable_instance("kcenter", 7)


def test_max_generator_never_repeats_an_agent():
    generate = make_max_cases()
    for seed in range(20):
        case = generate(seed)
        agents = [element.agent for element in case.ninput]
        assert agents[0] != 1
        assert all(a != b for a, b in zip(agents, agents[1:]))


def test_average_generator_puts_probe_agent_last():
    generate = make_average_cases()
    for seed in range(20):
        case = generate(seed)
        assert case.ninput[-1].agent == 2
        assert all(element.agent != 2 for element in case.ninput[:-1])


def test_triangulation_generator_warm_start_is_invertible():
    from exclusim.algorithms import CoefficientsOutput, DlrAlgorithm

    for d in (1, 2, 3):
        generate = make_triangulation_cases(d)
        for seed in range(10):
            case = generate(seed)
            first = case.ninput[0]
            assert first.agent == 1
            fit = DlrAlgorithm(d).compute((first.payload,))
            assert isinstance(fit, CoefficientsOutput)
