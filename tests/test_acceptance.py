"""Acceptance suite: one test per headline requirement.

Every check uses exact rational arithmetic, so equality assertions are exact;
each test enforces its runtime budget and prints one pass line.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from exclusim.algorithms import (
    AverageAlgorithm,
    CentersOutput,
    CoefficientsOutput,
    DlrAlgorithm,
    KCenterAlgorithm,
    KMedianAlgorithm,
    MaxAlgorithm,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
    moments,
)
from exclusim.harness import (
    NotApplicableError,
    check_condition_i,
    find_confounding_pair,
    forceable_instance,
    forceable_winner_set,
    kcenter_periodic_scenario,
    lr_periodic_scenario,
    make_average_cases,
    make_max_cases,
    make_triangulation_cases,
    periodic_kcenter_omission_confounder,
    periodic_lambda_confounder,
    verify_inference,
)
from exclusim.protocol import (
    KIND_LEDGER,
    NatureElement,
    ell_guard_respected,
    extract,
    observed_history,
    run_protocol,
)
from exclusim.scenario import load_scenario, run_scenario, trace_lines
from exclusim.strategies import (
    StrategyClass,
    average_double_probe,
    average_infer_from_history,
    classify_strategy_run,
    kcenter_sneak_params,
    lr_sneak_params,
    max_echo_attack,
    max_infer,
    max_overbid,
    sneak_attack,
    triangulation_attack,
    triangulation_infer_from_history,
    truthful_strategy,
)
from reference_aggregations import divided, reference_union

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "exclusim" / "fixtures"


def _finish(number: int, label: str, start: float, budget: float | None) -> None:
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} overran its {budget}s budget: {elapsed:.2f}s"
        )
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s")


def _scalar_input(*pairs):
    return tuple(NatureElement(agent, Scalar(Fraction(v))) for agent, v in pairs)


def _points(*values) -> PointSet:
    return PointSet(tuple((Fraction(v),) for v in values))


# =============================================================================
# 1. Average double probe: moved finals and exact inference on 200 scenarios
# =============================================================================


def _average_case(seed: int):
    """Hidden point sets of up to 50 points with |sum| <= 1000, then the
    probing agent's own two points (nonzero sum) arriving last."""
    rng = random.Random(f"acceptance-average:{seed}")
    while True:
        own_values = rng.sample(range(-9, 10), 2)
        own_sum = sum(own_values)
        if own_sum == 0:
            continue
        hidden_count = rng.randint(1, 50)
        slots = rng.randint((hidden_count + 19) // 20, min(3, hidden_count))
        parts = []
        remaining, open_slots = hidden_count, slots
        while open_slots:
            low = max(1, remaining - 20 * (open_slots - 1))
            high = min(20, remaining - (open_slots - 1))
            parts.append(rng.randint(low, high))
            remaining -= parts[-1]
            open_slots -= 1
        elements = []
        hidden_sum = 0
        for agent, size in zip((1, 3, 4), parts):
            values = rng.sample(range(-20, 21), size)
            hidden_sum += sum(values)
            elements.append(NatureElement(agent, _points(*values)))
        if hidden_sum == 0 and own_sum == 1:
            continue
        rng.shuffle(elements)
        own = NatureElement(2, _points(*own_values))
        agent_count = max(2, *(element.agent for element in elements))
        return tuple(elements) + (own,), agent_count, hidden_sum, hidden_count


def test_criterion_1_average_double_probe():
    start = time.monotonic()
    algorithm = AverageAlgorithm()
    strategy = average_double_probe()
    for seed in range(200):
        ninput, agent_count, hidden_sum, hidden_count = _average_case(seed)
        verdict = check_condition_i(
            algorithm, strategy, 2, ninput, ell=2, agent_count=agent_count
        )
        assert verdict.differs, f"seed {seed}: finals agree"
        result = average_infer_from_history(observed_history(verdict.run_attack, 2))
        assert result.others_sum == hidden_sum, f"seed {seed}"
        assert result.others_count == hidden_count, f"seed {seed}"
        assert ScalarOutput(result.true_average) == verdict.truth_final, f"seed {seed}"
    _finish(1, "average double probe, 200 scenarios", start, 5)


# =============================================================================
# 2. Max: echo moves the final, inference is perfect, and the confounding
#    search separates the always-different premise from the echo
# =============================================================================


def test_criterion_2_max_echo_and_confounding_search():
    start = time.monotonic()
    algorithm = MaxAlgorithm()

    verdict = check_condition_i(
        algorithm, max_echo_attack(), 1, _scalar_input((2, 100), (1, 110)), ell=1
    )
    assert verdict.attack_final == ScalarOutput(Fraction(100))
    assert verdict.truth_final == ScalarOutput(Fraction(110))

    failed = verify_inference(
        algorithm, max_echo_attack(), max_infer, make_max_cases(), count=500, j=1
    )
    assert failed == [], f"failed seeds: {failed}"

    # The overbid is the minimal strategy whose every run moves the final;
    # on the base stream it admits the constructed indistinguishable pair.
    base = _scalar_input((2, 90))
    witness = find_confounding_pair(
        algorithm, max_overbid(Fraction(110)), 1, base, budget=50, ell=1
    )
    assert witness is not None and witness.is_valid()
    assert [e.payload for e in witness.input_a[1:]] == [Scalar(Fraction(290, 3))]
    assert [e.payload for e in witness.input_b[1:]] == [Scalar(Fraction(310, 3))]

    # The echo reveals everything it observes, so no pair can confound it:
    # moved finals without an indistinguishable pair, never both.
    assert find_confounding_pair(algorithm, max_echo_attack(), 1, base, budget=400, ell=1) is None
    _finish(2, "max echo, 500-scenario inference, witness pair", start, 10)


# =============================================================================
# 3. k-center sneak: exact swapped centers, omission class, brute-force oracle
# =============================================================================


def _kcenter_cost(points, centers) -> Fraction:
    return max(min(abs(p[0] - c[0]) for c in centers) for p in points)


def _brute_force_optimum(points, k) -> Fraction:
    return min(_kcenter_cost(points, subset) for subset in combinations(points, k))


def test_criterion_3_kcenter_sneak():
    start = time.monotonic()
    eps = Fraction(1, 1000)
    params = kcenter_sneak_params(3, eps)
    algorithm = KCenterAlgorithm(3)
    ninput = (
        NatureElement(1, PointSet(params.rho_cond.centers)),
        NatureElement(2, params.u_cond),
    )
    verdict = check_condition_i(algorithm, sneak_attack(params), 2, ninput, ell=1)
    assert verdict.attack_final == CentersOutput(((-eps,), (Fraction(0),), (Fraction(1),)))
    assert verdict.truth_final == CentersOutput(
        ((Fraction(1),), (Fraction(10),), (Fraction(100),))
    )
    label = classify_strategy_run(verdict.run_attack, 2, truth_run=verdict.run_truth)
    assert label is StrategyClass.OMISSION

    for run, final in ((verdict.run_attack, verdict.attack_final),
                       (verdict.run_truth, verdict.truth_final)):
        pool = reference_union(extract(run, KIND_LEDGER))
        optimum = _brute_force_optimum(pool, 3)
        assert _kcenter_cost(pool, final.centers) == optimum
    _finish(3, "k-center sneak with brute-force oracle", start, 1)


# =============================================================================
# 4. Forceable winners: 100 random instances, exact membership and geometry
# =============================================================================


def test_criterion_4_forceable_winners():
    start = time.monotonic()
    for seed in range(50):
        s, x, k = forceable_instance("kcenter", seed)
        bar = forceable_winner_set("kcenter", s, x, k=k)
        out = KCenterAlgorithm(k).compute((s, bar))
        assert isinstance(out, CentersOutput)
        assert x in out.centers, f"kcenter seed {seed}"

    for seed in range(50):
        s, x, k = forceable_instance("kmedian", seed)
        bar = forceable_winner_set("kmedian", s, x, k=k)
        out = KMedianAlgorithm(k).compute((s, bar))
        assert isinstance(out, CentersOutput)
        centers = out.centers
        assert len(centers) == k and centers[0] == x, f"kmedian seed {seed}"
        scale = (centers[1][0] - x[0]) / 10
        assert scale > 0, f"kmedian seed {seed}"
        for t in range(1, k):
            assert centers[t][0] == x[0] + Fraction(10) ** t * scale, (
                f"kmedian seed {seed}: center {t} off the decade ladder"
            )
    _finish(4, "forceable winners, 100 instances", start, 30)


# =============================================================================
# 5. Linear regression sneak: exact swapped fit and the moment identity
# =============================================================================


def test_criterion_5_lr_sneak():
    start = time.monotonic()
    params = lr_sneak_params()
    algorithm = DlrAlgorithm(1)
    warm = RowMultiset((
        Row((Fraction(1), Fraction(0)), Fraction(1)),
        Row((Fraction(1), Fraction(1)), Fraction(1)),
    ))
    ninput = (NatureElement(1, warm), NatureElement(2, params.u_cond))
    verdict = check_condition_i(algorithm, sneak_attack(params), 2, ninput, ell=1)
    assert verdict.attack_final == CoefficientsOutput((Fraction(5, 6), Fraction(1, 2)))
    assert verdict.truth_final == CoefficientsOutput((Fraction(1), Fraction(0)))

    swapped = tuple(params.u_attack.rows) + tuple(params.u_resync.rows)
    assert divided(moments(swapped, 2)) == divided(moments(params.u_cond.rows, 2))
    resynced = RowMultiset(tuple(warm.rows) + swapped)
    straight = RowMultiset(tuple(warm.rows) + tuple(params.u_cond.rows))
    assert algorithm.compute((resynced,)) == algorithm.compute((straight,))

    assert classify_strategy_run(verdict.run_attack, 2) is StrategyClass.EXPLICITLY_LYING
    _finish(5, "regression sneak with moment identity", start, 1)


# =============================================================================
# 6. Probe ladders: every run differs, inference exact, solved blocks invertible
# =============================================================================


def test_criterion_6_triangulation_ladders():
    start = time.monotonic()
    for d in (1, 2, 3):
        algorithm = DlrAlgorithm(d)
        strategy = triangulation_attack(d)
        generate = make_triangulation_cases(d)
        for seed in range(100):
            case = generate(seed)
            hidden = sum(
                len(element.payload.rows) for element in case.ninput if element.agent != 2
            )
            assert 3 <= hidden <= 10
            verdict = check_condition_i(
                algorithm, strategy, 2, case.ninput,
                ell=case.ell, agent_count=case.agent_count,
            )
            assert verdict.differs, f"d={d} seed {seed}: finals agree"
            result = triangulation_infer_from_history(
                observed_history(verdict.run_attack, 2), d
            )
            assert result.truth_output == verdict.truth_final, f"d={d} seed {seed}"
            assert result.sigma_matrix.det() != 0, f"d={d} seed {seed}"
            assert result.delta_matrix.det() != 0, f"d={d} seed {seed}"
    _finish(6, "probe ladders, 100 scenarios per width", start, 60)


# =============================================================================
# 7. Round-based safety: confounding witnesses on every misleading scenario
# =============================================================================


def test_criterion_7_periodic_confounders():
    start = time.monotonic()
    for seed in range(50):
        algorithm, strategy, case = lr_periodic_scenario(seed)
        witness = periodic_lambda_confounder(
            algorithm, case.ninput, strategy, 2, agent_count=case.agent_count
        )
        assert witness.observed_equal_under_attack, f"lr seed {seed}"
        assert not witness.observed_equal_under_truth, f"lr seed {seed}"

    for seed in range(12):
        algorithm, strategy, case = kcenter_periodic_scenario(seed)
        witness = periodic_kcenter_omission_confounder(
            algorithm, case.ninput, strategy, 2, agent_count=case.agent_count
        )
        assert witness is not None, f"kcenter seed {seed}: no candidate survived"
        assert witness.observed_equal_under_attack, f"kcenter seed {seed}"
        assert not witness.observed_equal_under_truth, f"kcenter seed {seed}"
    _finish(7, "periodic confounders, 50 + 12 scenarios", start, 30)


# =============================================================================
# 8. Off-fit refits: adding a point off the fit moves it and its prediction
# =============================================================================


def _predict(features, coefficients) -> Fraction:
    return sum((f * c for f, c in zip(features, coefficients)), Fraction(0))


def test_criterion_8_off_fit_refits():
    start = time.monotonic()
    for seed in range(200):
        d = seed % 3 + 1
        rng = random.Random(f"acceptance-refit:{seed}")
        algorithm = DlrAlgorithm(d)
        beta = tuple(Fraction(rng.randint(-10, 10), 2) for _ in range(d + 1))
        while True:
            rows = tuple(
                Row(
                    (Fraction(1),) + tuple(
                        Fraction(rng.randint(-12, 12), 2) for _ in range(d)
                    ),
                    Fraction(0),
                )
                for _ in range(rng.randint(d + 1, d + 4))
            )
            if moments(rows, d + 1).solve() is not None:
                break
        rows = tuple(Row(r.features, _predict(r.features, beta)) for r in rows)
        base_fit = algorithm.compute((RowMultiset(rows),))
        assert base_fit == CoefficientsOutput(beta), f"seed {seed}: base fit off"

        features = (Fraction(1),) + tuple(
            Fraction(rng.randint(-12, 12), 2) for _ in range(d)
        )
        offset = Fraction(rng.randint(1, 8), 2) * rng.choice((-1, 1))
        stray = Row(features, _predict(features, beta) + offset)
        refit = algorithm.compute((RowMultiset(rows + (stray,)),))
        assert isinstance(refit, CoefficientsOutput)
        assert refit.coefficients != beta, f"seed {seed}: fit did not move"
        assert _predict(features, refit.coefficients) != _predict(features, beta), (
            f"seed {seed}: prediction did not move"
        )
    _finish(8, "off-fit refits, 200 cases", start, 10)


# =============================================================================
# 9. Engine invariants: determinism, guard discipline, inert truthful baseline
# =============================================================================


def test_criterion_9_engine_invariants():
    start = time.monotonic()

    for path in sorted(FIXTURES.glob("*.json")):
        scenario = load_scenario(path)
        assert trace_lines(run_scenario(scenario)) == trace_lines(run_scenario(scenario))

    case = make_triangulation_cases(2)(7)
    runs = [
        run_protocol(
            "continuous", case.ninput, {2: triangulation_attack(2)},
            DlrAlgorithm(2), case.agent_count, ell=case.ell,
        )
        for _ in range(2)
    ]
    assert runs[0].messages == runs[1].messages

    guarded = []
    echo_gen = make_max_cases()
    for seed in range(25):
        case = echo_gen(seed)
        verdict = check_condition_i(
            MaxAlgorithm(), max_echo_attack(), 1, case.ninput,
            ell=case.ell, agent_count=case.agent_count,
        )
        guarded.extend((verdict.run_attack, verdict.run_truth))
    average_gen = make_average_cases()
    for seed in range(10):
        case = average_gen(seed)
        verdict = check_condition_i(
            AverageAlgorithm(), average_double_probe(), 2, case.ninput,
            ell=case.ell, agent_count=case.agent_count,
        )
        guarded.extend((verdict.run_attack, verdict.run_truth))
    for d in (1, 2, 3):
        generate = make_triangulation_cases(d)
        for seed in range(5):
            case = generate(seed)
            verdict = check_condition_i(
                DlrAlgorithm(d), triangulation_attack(d), 2, case.ninput,
                ell=case.ell, agent_count=case.agent_count,
            )
            guarded.extend((verdict.run_attack, verdict.run_truth))
    assert all(ell_guard_respected(run) for run in guarded)

    baselines = [
        (MaxAlgorithm(), _scalar_input((1, 5), (2, 7))),
        (AverageAlgorithm(), (NatureElement(1, _points(1, 4)), NatureElement(2, _points(3)))),
        (KCenterAlgorithm(3), (NatureElement(1, _points(0, 9, 20)), NatureElement(2, _points(4)))),
        (KMedianAlgorithm(3), (NatureElement(1, _points(0, 9, 20)), NatureElement(2, _points(4)))),
        (
            DlrAlgorithm(1),
            (
                NatureElement(1, RowMultiset((
                    Row((Fraction(1), Fraction(0)), Fraction(2)),
                    Row((Fraction(1), Fraction(3)), Fraction(1)),
                ))),
                NatureElement(2, RowMultiset((Row((Fraction(1), Fraction(1)), Fraction(1)),))),
            ),
        ),
    ]
    for algorithm, ninput in baselines:
        verdict = check_condition_i(algorithm, truthful_strategy, 2, ninput, ell=2)
        assert not verdict.differs, type(algorithm).__name__
        witness = find_confounding_pair(
            algorithm, truthful_strategy, 2, ninput, budget=40, ell=2
        )
        assert witness is None, type(algorithm).__name__

    lr_algorithm, _, lr_case = lr_periodic_scenario(0)
    with pytest.raises(NotApplicableError):
        periodic_lambda_confounder(
            lr_algorithm, lr_case.ninput, truthful_strategy, 2,
            agent_count=lr_case.agent_count,
        )
    kc_algorithm, _, kc_case = kcenter_periodic_scenario(0)
    assert periodic_kcenter_omission_confounder(
        kc_algorithm, kc_case.ninput, truthful_strategy, 2,
        agent_count=kc_case.agent_count,
    ) is None
    _finish(9, "determinism, guard discipline, truthful baseline", start, None)
