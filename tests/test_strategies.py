"""Attack strategies, their inference functions, and run classification."""

from __future__ import annotations

import dataclasses
import hashlib
import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclusim import strategies
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
    PayloadError,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
    ScaledMoments,
    moments,
)
from exclusim.cli import triangulation_csv_rows
from exclusim.harness import make_average_cases, make_max_cases, make_triangulation_cases
from exclusim.protocol import (
    KIND_LEDGER,
    FactualDelivery,
    LedgerUpdate,
    NatureElement,
    ObservedHistory,
    OutputBroadcast,
    extract,
    observed_history,
    run_protocol,
    truthful_strategy,
)
from exclusim.scenario import trace_lines
from exclusim.strategies import (
    InferenceError,
    SneakParams,
    StrategyClass,
    TriangulationState,
    _LADDER,
    _probe_row,
    _probe_units,
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
    triangulation_infer,
    triangulation_infer_from_history,
    triangulation_state,
)
from reference_aggregations import (
    CountingLog,
    MomentPair,
    broadcasts,
    divided,
    fit_from_moments,
    outcome,
    reference_moments,
)
from reference_linalg import sub
from reference_strategies import (
    reference_average_double_probe,
    reference_average_infer_from_history,
    reference_max_infer,
    reference_sneak_attack,
)
from reference_triangulation import (
    ReferenceLadder,
    reference_probe_row,
    reference_triangulation_attack,
    reference_triangulation_infer,
    reference_triangulation_state,
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


def test_max_infer_matches_the_items_reference_on_every_view():
    for seed in range(40):
        case = make_max_cases()(seed)
        run = run_protocol(
            "continuous", case.ninput, {1: max_echo_attack()}, MaxAlgorithm(), case.agent_count,
            ell=case.ell,
        )
        for agent in range(1, case.agent_count + 1):
            for upto in range(len(run.messages) + 1):
                view = observed_history(run, agent, upto)
                assert max_infer(view) == reference_max_infer(view), (seed, agent, upto)


def test_max_infer_of_an_empty_view_is_null():
    view = ObservedHistory(1, [], 0)
    assert max_infer(view) == reference_max_infer(view) == NullOutput()


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


def test_average_inference_refuses_an_own_point_that_is_not_one_dimensional():
    # The own sum and count come from the average's fold, whose check refuses it.
    probe = PointSet(((Fraction(0),),))
    log = (
        FactualDelivery(2, PointSet(((Fraction(1), Fraction(9)),))),
        LedgerUpdate(2, probe),
        OutputBroadcast(ScalarOutput(Fraction(5, 2))),
        LedgerUpdate(2, probe),
        OutputBroadcast(ScalarOutput(Fraction(2))),
    )
    with pytest.raises(PayloadError, match="^the average aggregation expects 1-dimensional"):
        average_infer_from_history(ObservedHistory(2, log, len(log)))


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
    # The own count is a positive int: a float, zero, a negative count and a
    # bool are each refused by name.
    for own_count in (1.5, 0, -3, True):
        with pytest.raises(ParamError, match="^own_count must be ") as caught:
            average_infer(1, Fraction(1, 2), 0, own_count)
        assert caught.value.param == "own_count"


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
    assert list(broadcasts(attack)) == [
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


# --- the folds against the whole-view oracles ------------------------------


def _with_rounds(rng, payloads, protocol):
    """The (agent, payload) pairs as a nature input: in order for the
    continuous protocol, and over random rounds, one element per agent in
    each, for the periodic one."""
    if protocol == "continuous":
        return tuple(NatureElement(agent, payload) for agent, payload in payloads)
    elements, seen, round_no = [], set(), 1
    for agent, payload in payloads:
        if (agent, round_no) in seen or (elements and rng.random() < 0.5):
            round_no += 1
        seen.add((agent, round_no))
        elements.append(NatureElement(agent, payload, round_no))
    return tuple(elements)


def _sneak_case(kind, protocol, seed):
    """A run around a sneak's trigger: agent 1 opens with data whose output
    is the conditioning one, agent 2 then gets the watched payload, and more
    elements follow, the watched payload among them."""
    rng = random.Random(f"sneak-fold:{kind}:{protocol}:{seed}")
    if kind == "kcenter_sneak":
        k = rng.choice((3, 4))
        params = kcenter_sneak_params(k, Fraction(1, rng.choice((1000, 2000))))
        algorithm = KCenterAlgorithm(k, max_union=64)
        opening = PointSet(params.rho_cond.centers)

        def other():
            values = rng.sample(range(-20, 120), rng.randint(1, 3))
            return PointSet(tuple((Fraction(v),) for v in values))

    else:
        params = lr_sneak_params()
        algorithm = DlrAlgorithm(1)
        opening = RowMultiset(tuple(Row((1, x), 1) for x in rng.sample(range(-9, 10), 2)))

        def other():
            return _rows(*((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(1, 3))))

    agent_count = rng.randint(2, 3)
    payloads = [(1, opening), (2, params.u_cond)] + [
        (rng.randint(1, agent_count), params.u_cond if rng.random() < 0.3 else other())
        for _ in range(rng.randint(0, 5))
    ]
    ell = rng.randint(1, 2) if protocol == "continuous" else None
    return algorithm, params, _with_rounds(rng, payloads, protocol), agent_count, ell


def _assert_fold_matches_oracle(fold, reference, protocol, ninput, algorithm, agent_count, ell):
    """The fold and the oracle run alike, and decide alike on every prefix of
    agent 2's view; returns the views and the decisions that are not the
    truthful echo."""
    run = run_protocol(protocol, ninput, {2: fold}, algorithm, agent_count, ell=ell)
    assert run == run_protocol(protocol, ninput, {2: reference}, algorithm, agent_count, ell=ell)
    views, deviations = [], []
    for upto in range(len(run.messages) + 1):
        views.append(observed_history(run, 2, upto))
        decision = fold(views[-1])
        assert decision == reference(views[-1])
        if decision != truthful_strategy(views[-1]):
            deviations.append(decision)
    return views, deviations


@pytest.mark.parametrize("protocol", ["continuous", "periodic"])
@pytest.mark.parametrize("kind", ["kcenter_sneak", "lr_sneak"])
def test_sneak_fold_matches_the_whole_view_oracle(kind, protocol):
    swaps = repairs = 0
    for seed in range(60):
        algorithm, params, ninput, agent_count, ell = _sneak_case(kind, protocol, seed)
        _, deviations = _assert_fold_matches_oracle(
            sneak_attack(params), reference_sneak_attack(params),
            protocol, ninput, algorithm, agent_count, ell,
        )
        swaps += deviations.count(params.u_attack)
        repairs += len(deviations) - deviations.count(params.u_attack)
    # The cases reach the swap and the repair branches.
    assert swaps and repairs


@pytest.mark.parametrize("protocol", ["continuous", "periodic"])
def test_average_probe_fold_matches_the_whole_view_oracle(protocol):
    fold, reference = average_double_probe(), reference_average_double_probe()
    generate = make_average_cases()
    sent, decodes = [], 0
    for seed in range(60):
        rng = random.Random(f"probe-fold:{protocol}:{seed}")
        if protocol == "continuous" and seed % 2:
            case = generate(seed)
            ninput, agent_count = case.ninput, case.agent_count
        else:
            agent_count = rng.randint(2, 3)
            payloads = [
                (rng.randint(1, agent_count), _point_set(*rng.sample(range(-9, 10), rng.randint(0, 3))))
                for _ in range(rng.randint(1, 6))
            ]
            ninput = _with_rounds(rng, payloads, protocol)
        ell = 2 if protocol == "continuous" else None
        views, deviations = _assert_fold_matches_oracle(
            fold, reference, protocol, ninput, AverageAlgorithm(), agent_count, ell
        )
        sent += deviations
        for view in views:
            decoded = outcome(average_infer_from_history, view)
            assert decoded == outcome(reference_average_infer_from_history, view)
            decodes += not isinstance(decoded, type)
    # Both probe values are sent; a 1 only follows a zero response.
    assert _point_set(0) in sent and _point_set(1) in sent
    assert decodes


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
    probed = broadcasts(attack)[-2]
    assert probed == truth.final_output()
    assert deflection.target == probed.coefficients[0] + 1
    assert attack.final_output() != truth.final_output()

    roles = [line[3] for line in triangulation_csv_rows(attack, 2, 1)[1:]]
    assert roles == ["factual", "factual", "ledger", "ledger", "probe", "probe", "deflection"]


def test_triangulation_csv_walks_the_run_once(monkeypatch):
    # The CSV's views share one memo: the walk observes each message the
    # attacker sees before its last update once, in order.
    case = make_triangulation_cases(3)(2)
    run = run_protocol(
        "continuous", case.ninput, {2: triangulation_attack(3)}, DlrAlgorithm(3),
        case.agent_count, ell=case.ell,
    )
    table = triangulation_csv_rows(run, 2, 3)
    observed, observe = [], strategies._LadderFold.observe

    def counting(self, walk, message):
        observed.append(message)
        return observe(self, walk, message)

    monkeypatch.setattr(strategies._LadderFold, "observe", counting)
    assert triangulation_csv_rows(run, 2, 3) == table
    last = max(i for i, m in enumerate(run.messages) if isinstance(m, LedgerUpdate) and m.agent == 2)
    assert len(extract(run, KIND_LEDGER, 2)) > 2
    assert observed == list(observed_history(run, 2, last).items)


# --- the residual decision against the full inference ----------------------


def _unit_rows(d: int) -> RowMultiset:
    """Rows at the origin and one unit along each axis: a unique width-(d+1) fit."""
    return RowMultiset(
        tuple(Row((1, *(int(c == i) for c in range(1, d + 1))), i) for i in range(d + 1))
    )


def _deflecting_input(d: int) -> tuple[NatureElement, ...]:
    """The construction of the deflection test above, over two ladders at
    width d + 1. Agent 2 first gets every row its ladders send over agent 1's
    warm rows and agent 3's later row, plus one row on the fit those ladders
    end at. Its second ladder then ends on the truthful fit, a fit of
    fractions, with the first ladder's rows on the ledger as its own and
    own rows whose moments differ from them."""
    later = RowMultiset((Row((1, *(Fraction(c, 3) for c in range(1, d + 1))), Fraction(1, 2)),))
    hidden = (NatureElement(1, _unit_rows(d)), NatureElement(3, later))
    first, _ = _triangulation_runs(d, hidden)
    sent = tuple(row for payload in extract(first, KIND_LEDGER, 2) for row in payload.rows)
    features = (1, *(Fraction(1, c) for c in range(2, d + 2)))
    on_fit = Row(features, sum(map(mul, features, first.final_output().coefficients)))
    return (NatureElement(2, RowMultiset((*sent, on_fit))), *hidden)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_triangulation_attack_matches_the_full_inference_reference(d):
    attack, reference = triangulation_attack(d), reference_triangulation_attack(d)
    inputs = [(2, _deflecting_input(d), 3, d + 2)]
    for seat in (1, 2, 3):
        generate = make_triangulation_cases(d, seat)
        for seed in range(50):
            case = generate(seed)
            inputs.append((seat, case.ninput, case.agent_count, case.ell))
    completed = deflected = 0
    for seat, ninput, agent_count, ell in inputs:
        run = run_protocol(
            "continuous", ninput, {seat: attack}, DlrAlgorithm(d), agent_count, ell=ell
        )
        for upto in range(len(run.messages) + 1):
            view = observed_history(run, seat, upto)
            decision = attack(view)
            assert decision == reference(view)
            state = triangulation_state(view)
            if state is not None and state.step == d + 1:
                completed += 1
                deflected += decision is not None
    assert completed > 300
    assert deflected  # only the constructed input deflects


def _same_record(made, public):
    assert made == public and hash(made) == hash(public) and repr(made) == repr(public)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_records_wrapped_without_coercion_equal_the_public_constructors(d):
    # Probe and deflection rows, regression outputs and the inferred fit skip
    # the public constructors' coercion; on every prefix of generated runs
    # each is the record those constructors build from the same values.
    attack, generate = triangulation_attack(d), make_triangulation_cases(d)
    inputs = [(_deflecting_input(d), 3, d + 2)]
    inputs += [(case.ninput, case.agent_count, case.ell) for case in map(generate, range(30))]
    seen = {"probe": 0, "deflection": 0, "output": 0, "truth": 0}
    for ninput, agent_count, ell in inputs:
        run = run_protocol("continuous", ninput, {2: attack}, DlrAlgorithm(d), agent_count, ell=ell)
        for upto in range(len(run.messages) + 1):
            view = observed_history(run, 2, upto)
            output = view.last_broadcast()
            if isinstance(output, CoefficientsOutput):
                _same_record(output, CoefficientsOutput(output.coefficients))
                seen["output"] += 1
            decision = attack(view)
            state = triangulation_state(view)
            if decision is not None:
                (row,) = decision.rows
                _same_record(row, Row(row.features, row.target))
                seen["probe" if state.step <= d else "deflection"] += 1
            if state is not None and state.step == d + 1 and None not in state.rho_seq:
                truth = triangulation_infer(state, d).truth_output
                _same_record(truth, CoefficientsOutput(truth.coefficients))
                seen["truth"] += 1
    assert all(seen.values()), seen


def test_triangulation_attack_stays_silent_when_a_zero_residual_cannot_be_solved(monkeypatch):
    # The own rows P fit rho_2 exactly, so (F - L) @ rho_2 = f - l holds; the
    # first probe left the fit where it was, so Delta is singular and the
    # inference that a zero residual falls through to raises.
    probes = (Row((1, 0), 1), Row((1, 1), 2))
    rho_2 = CoefficientsOutput((Fraction(1), Fraction(1)))
    assert DlrAlgorithm(1).compute([RowMultiset(probes)]) == rho_2
    log = (
        OutputBroadcast(_FIT[0]),
        LedgerUpdate(2, RowMultiset(probes[:1])),
        OutputBroadcast(_FIT[0]),
        LedgerUpdate(2, RowMultiset(probes[1:])),
        OutputBroadcast(rho_2),
    )
    view = ObservedHistory(2, log, len(log))
    raised = []

    def recording_infer(state, d):
        try:
            return triangulation_infer(state, d)
        except InferenceError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(strategies, "triangulation_infer", recording_infer)
    assert triangulation_attack(1)(view) is None
    assert raised == ["the fit never moved along some direction; probe responses are dependent"]
    assert reference_triangulation_attack(1)(view) is None


@pytest.mark.parametrize("d, ledger_d", [(2, 1), (1, 2)])
def test_triangulation_attack_refuses_broadcasts_of_another_width(d, ledger_d):
    with pytest.raises(PayloadError) as excinfo:
        run_protocol(
            "continuous", (NatureElement(1, _unit_rows(ledger_d)),), {2: triangulation_attack(d)},
            DlrAlgorithm(ledger_d), 2, ell=d + 2,
        )
    assert str(excinfo.value) == (
        f"broadcast coefficients of width {ledger_d + 1} do not match "
        f"the width-{d + 1} probes of triangulation_attack({d})"
    )


# --- the ladder walk against the indexed rebuild ---------------------------


def _own_difference(factual, ledger, width) -> MomentPair:
    """F - L in `Fraction`s: the moments of `factual` less those of `ledger`."""
    f, l = reference_moments(factual, width), reference_moments(ledger, width)
    return MomentPair(sub(f.gram, l.gram), sub(f.cross, l.cross))


def _assert_matches_reference(state, ladder, width):
    """The walk's ladder is the reference's: the same step, fits and probes,
    and its F - L, as rationals, that of the reference's two row tuples; the
    record is None exactly where the reference has no own row."""
    if ladder is None:
        assert state is None
        return
    assert (state.step, state.rho_seq, state.probes) == (ladder.step, ladder.rho_seq, ladder.probes)
    own_rows = ladder.own_factual_rows + ladder.own_ledger_rows
    assert (state.own is None) == (not own_rows)
    own = moments((), width) if state.own is None else state.own
    assert divided(own) == _own_difference(ladder.own_factual_rows, ladder.own_ledger_rows, width)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_triangulation_state_matches_the_indexed_reference(d):
    generate = make_triangulation_cases(d)
    seen = {"ladder": 0, "response": 0, "own_ledger": 0, "own_factual": 0}
    for seed in range(25):
        case = generate(seed)
        run = run_protocol(
            "continuous", case.ninput, {2: triangulation_attack(d)}, DlrAlgorithm(d),
            case.agent_count, ell=case.ell,
        )
        for upto in range(len(run.messages) + 1):
            view = observed_history(run, 2, upto)
            state, ladder = triangulation_state(view), reference_triangulation_state(view)
            _assert_matches_reference(state, ladder, d + 1)
            if state is not None:
                seen["ladder"] += 1
                seen["response"] += state.step > 0
                seen["own_ledger"] += bool(ladder.own_ledger_rows)
                seen["own_factual"] += bool(ladder.own_factual_rows)
    # The runs reach every field the walk fills.
    assert all(seen.values()), seen


_FIT = {c: CoefficientsOutput((Fraction(c), Fraction(0))) for c in range(3)}
_OWN_ROWS = RowMultiset((Row((1, 5), 7),))
_PROBES = (Row((1, 0), 1), Row((1, 1), 2))


def _view_states(log):
    """Agent 2's ladder on every prefix of `log`, checked against the reference."""
    states = []
    for length in range(len(log) + 1):
        view = ObservedHistory(2, log, length)
        states.append(triangulation_state(view))
        _assert_matches_reference(states[-1], reference_triangulation_state(view), 2)
    return states


def test_triangulation_state_keeps_a_null_response_in_the_ladder():
    log = (
        LedgerUpdate(1, _OWN_ROWS),  # another agent's update: not in the view
        OutputBroadcast(_FIT[0]),
        LedgerUpdate(2, RowMultiset(_PROBES[:1])),
        OutputBroadcast(NullOutput()),
        LedgerUpdate(2, RowMultiset(_PROBES[1:])),
        OutputBroadcast(_FIT[2]),
    )
    assert _view_states(log)[-1] == TriangulationState(
        step=2,
        rho_seq=(_FIT[0].coefficients, None, _FIT[2].coefficients),
        probes=(_PROBES[:1], _PROBES[1:]),
        own=None,
    )
    # Without a usable broadcast since, a fresh event clears the ladder.
    assert _view_states(log[:4] + (FactualDelivery(2, _OWN_ROWS),))[-1] is None


def test_triangulation_state_restarts_at_an_own_factual_delivery():
    log = (
        OutputBroadcast(_FIT[0]),
        LedgerUpdate(2, RowMultiset(_PROBES[:1])),
        OutputBroadcast(_FIT[1]),
        FactualDelivery(2, _OWN_ROWS),
        LedgerUpdate(2, RowMultiset(_PROBES[1:])),
        OutputBroadcast(_FIT[2]),
    )
    assert _view_states(log)[-1] == TriangulationState(
        step=1,
        rho_seq=(_FIT[1].coefficients, _FIT[2].coefficients),
        probes=(_PROBES[1:],),
        own=moments((), 2).plus_rows(_PROBES[:1], -1).plus_rows(_OWN_ROWS.rows),
    )


def test_triangulation_state_starts_no_ladder_before_a_usable_broadcast():
    log = (
        OutputBroadcast(NullOutput()),
        FactualDelivery(2, _OWN_ROWS),
        LedgerUpdate(2, RowMultiset(_PROBES[:1])),
        OutputBroadcast(_FIT[0]),  # a response, with no ladder to extend
        OutputBroadcast(_FIT[1]),
    )
    states = _view_states(log)
    assert states[:-1] == [None] * len(log)
    assert states[-1] == TriangulationState(
        step=0,
        rho_seq=(_FIT[1].coefficients,),
        probes=(),
        own=moments(_OWN_ROWS.rows, 2).plus_rows(_PROBES[:1], -1),
    )


def test_triangulation_fold_keeps_the_moments_of_the_ladders_own_rows():
    # On every prefix the walk's F - L is the moments of the own factual rows
    # less those of every own update, as rationals; None stands for the zero
    # record, and only before the first own row. On an engine's run, while a
    # ladder runs, that is the ladder's F - L less its probes and any update
    # still awaiting its response.
    double_update = (
        FactualDelivery(2, _OWN_ROWS),
        OutputBroadcast(_FIT[0]),
        LedgerUpdate(2, RowMultiset(_PROBES[:1])),
        LedgerUpdate(2, RowMultiset(_PROBES[1:])),
        OutputBroadcast(_FIT[1]),
    )
    logs = [double_update]
    generate = make_triangulation_cases(1)
    for seed in range(25):
        case = generate(seed)
        logs.append(run_protocol(
            "continuous", case.ninput, {2: triangulation_attack(1)}, DlrAlgorithm(1),
            case.agent_count, ell=case.ell,
        ).messages)
    kept = 0
    for log in logs:
        for length in range(len(log) + 1):
            view = ObservedHistory(2, log, length)
            walk = view.fold(_LADDER)
            factual, ledger = (
                [row for m in view.items if isinstance(m, kind) for row in m.payload.rows]
                for kind in (FactualDelivery, LedgerUpdate)
            )
            assert (walk.own is None) == (not factual and not ledger)
            own = moments((), 2) if walk.own is None else walk.own
            assert divided(own) == _own_difference(factual, ledger, 2)
            if walk.ladder is not None and log is not double_update:
                probes = [row for rows in walk.ladder.probes + (walk.sent or (),) for row in rows]
                started = moments((), 2) if walk.ladder.own is None else walk.ladder.own
                assert own == started.plus_rows(probes, -1)
                kept += 1
    assert kept
    # An own update that another one follows gets no response, so its rows
    # are none of the ladder's, yet they leave F - L all the same.
    walk = ObservedHistory(2, double_update, len(double_update)).fold(_LADDER)
    assert walk.ladder.probes == (_PROBES[1:],)
    assert walk.own == moments(_OWN_ROWS.rows, 2).plus_rows(_PROBES[:1], -1).plus_rows(_PROBES[1:], -1)
    assert divided(walk.own) != divided(walk.ladder.own.plus_rows(_PROBES[1:], -1))


@pytest.mark.parametrize("d, rows_d", [(1, 2), (2, 1)])
def test_triangulation_attack_refuses_own_rows_of_another_width(d, rows_d):
    # The poll right after the delivery raises, before any broadcast.
    attack, polled = triangulation_attack(d), []

    def spied(o):
        polled.append(o.last())
        return attack(o)

    own = NatureElement(2, _unit_rows(rows_d))
    with pytest.raises(PayloadError) as excinfo:
        run_protocol("continuous", (own,), {2: spied}, DlrAlgorithm(rows_d), 2, ell=1)
    assert str(excinfo.value) == f"row width {rows_d + 1} does not match {d + 1}"
    assert polled == [FactualDelivery(2, own.payload)]


# --- the integer inference against the Fraction-matrix oracle ---------------


def _ladder_states(d: int, seeds: range) -> list[tuple[TriangulationState, ReferenceLadder]]:
    """Every distinct ladder with at least d + 1 responses that a prefix of a
    generated criterion-6 attack run shows the attacker, as the walk's state
    and the reference's record of the same view; distinct as the reference
    tells them apart."""
    generate = make_triangulation_cases(d)
    states: dict[ReferenceLadder, TriangulationState] = {}
    for seed in seeds:
        case = generate(seed)
        run = run_protocol(
            "continuous", case.ninput, {2: triangulation_attack(d)}, DlrAlgorithm(d),
            case.agent_count, ell=case.ell,
        )
        for upto in range(len(run.messages) + 1):
            view = observed_history(run, 2, upto)
            state = triangulation_state(view)
            if state is not None and state.step >= d + 1:
                states.setdefault(reference_triangulation_state(view), state)
    return [(state, ladder) for ladder, state in states.items()]


def _inference_fields(function, state, d):
    """The result fields, or the InferenceError message."""
    try:
        result = function(state, d)
    except InferenceError as exc:
        return str(exc)
    return tuple(getattr(result, f.name) for f in dataclasses.fields(result))


# The seeds of each width, and a floor on the distinct ladder states they show.
_REFERENCE_LADDERS = {
    1: (range(150), 300), 2: (range(150), 300), 3: (range(150), 300), 5: (range(60), 100)
}


@pytest.mark.parametrize("d", sorted(_REFERENCE_LADDERS))
def test_triangulation_infer_matches_the_fraction_reference(d):
    seeds, floor = _REFERENCE_LADDERS[d]
    states = _ladder_states(d, seeds)
    assert len(states) > floor
    for state, ladder in states:
        _assert_matches_reference(state, ladder, d + 1)
        got = _inference_fields(triangulation_infer, state, d)
        assert got == _inference_fields(reference_triangulation_infer, ladder, d)
        if not isinstance(got, str):
            sigma, truth, delta = got
            entries = [*truth.coefficients]
            for matrix in (sigma, delta):
                entries.extend(v for row in matrix.rows for v in row)
            assert all(type(v) is Fraction for v in entries)


def _ladder_by_hand(hidden: tuple[Row, ...], d: int) -> ReferenceLadder:
    """The ladder an attacker sees over a ledger of `hidden` rows, with no rows of its own."""
    algorithm = DlrAlgorithm(d)
    ledger = [RowMultiset(hidden)]
    rho = [algorithm.compute(ledger).coefficients]
    probes, units = [], _probe_units(d + 1)
    for step in range(1, d + 2):
        probes.append((_probe_row(units, step, rho[-1]),))
        ledger.append(RowMultiset(probes[-1]))
        rho.append(algorithm.compute(ledger).coefficients)
    return ReferenceLadder(d + 1, tuple(rho), tuple(probes), (), ())


def _as_state(ladder: ReferenceLadder, d: int) -> TriangulationState:
    """The walk's state of a reference ladder: its own rows as F - L, None without any."""
    own = None
    if ladder.own_factual_rows or ladder.own_ledger_rows:
        own = moments(ladder.own_factual_rows, d + 1).plus_rows(ladder.own_ledger_rows, -1)
    return TriangulationState(ladder.step, ladder.rho_seq, ladder.probes, own)


def test_triangulation_infer_errors_match_the_fraction_reference():
    hidden = (Row((1, 0), 1), Row((1, 1), 2), Row((1, 3), 2))
    ladder = _ladder_by_hand(hidden, 1)
    rho0, rho1, _ = ladder.rho_seq
    cases = {
        "too few steps": dataclasses.replace(
            ladder, step=1, rho_seq=ladder.rho_seq[:2], probes=ladder.probes[:1]
        ),
        "a Null response": dataclasses.replace(ladder, rho_seq=(rho0, None, rho1)),
        "dependent probes": dataclasses.replace(ladder, rho_seq=(rho0, rho0, rho1)),
        # The attacker's own ledger rows are all the hidden rows, so nothing is left.
        "no unique truthful fit": dataclasses.replace(ladder, own_ledger_rows=hidden),
    }
    messages = {
        name: _inference_fields(triangulation_infer, _as_state(case, 1), 1)
        for name, case in cases.items()
    }
    assert messages == {
        name: _inference_fields(reference_triangulation_infer, case, 1)
        for name, case in cases.items()
    }
    assert messages == {
        "too few steps": "need 2 probe responses to solve a width-2 system, got 1",
        "a Null response": "a probe response was Null; the ledger fit vanished",
        "dependent probes": (
            "the fit never moved along some direction; probe responses are dependent"
        ),
        "no unique truthful fit": "the truthful data does not determine a unique fit",
    }
    result = triangulation_infer(_as_state(ladder, 1), 1)
    assert result.truth_output == DlrAlgorithm(1).compute([RowMultiset(hidden)])
    assert result == reference_triangulation_infer(ladder, 1)


def test_triangulation_infer_matches_the_reference_off_any_ledger():
    # Fits that no ledger produces give a Sigma that is not symmetric, so
    # Sigma and its transpose are told apart.
    ladder = _ladder_by_hand((Row((1, 0), 1), Row((1, 1), 2), Row((1, 3), 2)), 1)
    rho0, rho1, rho2 = ladder.rho_seq
    skewed = dataclasses.replace(
        ladder,
        rho_seq=(rho0, rho1, (rho2[0], rho2[1] + Fraction(1, 3))),
        own_factual_rows=(Row((1, 5), Fraction(1, 2)),),
    )
    got = triangulation_infer(_as_state(skewed, 1), 1)
    assert got.sigma_matrix != got.sigma_matrix.transpose()
    assert got == reference_triangulation_infer(skewed, 1)


@pytest.mark.parametrize("own_width", [1, 3])
def test_triangulation_infer_refuses_own_moments_of_another_width(own_width):
    # F - L of another width than the d + 1 of Sigma raises, never truncated.
    ladder = _ladder_by_hand((Row((1, 0), 1), Row((1, 1), 2), Row((1, 3), 2)), 1)
    own = moments((Row((1,) * own_width, 1),), own_width)
    state = dataclasses.replace(_as_state(ladder, 1), own=own)
    with pytest.raises(PayloadError) as excinfo:
        triangulation_infer(state, 1)
    assert str(excinfo.value) == f"moments of width {own_width} do not match 2"


def _long_triangulation_stream(seed: int, length: int) -> tuple[NatureElement, ...]:
    """A d = 1 ladder stream of `length` elements over three agents, attacker 2.

    Agent 1 opens with rows of two distinct x; the hidden agents never get
    more than two elements in a row (the window is 3), and the attacker's
    four own elements each sit between two hidden ones, so every echo
    re-triggers a ladder and no truthful echo is dropped. Coordinates are
    halves in [-10, 10].
    """
    rng = random.Random(f"long-triangulation:{seed}")

    def rows(count: int) -> tuple[Row, ...]:
        return tuple(
            Row((1, Fraction(rng.randint(-20, 20), 2)), Fraction(rng.randint(-20, 20), 2))
            for _ in range(count)
        )

    recipients, streak = [1], 1
    for _ in range(length - 5):
        agent = rng.choice([a for a in (1, 3) if a != recipients[-1] or streak <= 1])
        streak = streak + 1 if agent == recipients[-1] else 1
        recipients.append(agent)
    for offset, slot in enumerate(sorted(rng.sample(range(1, len(recipients)), 4))):
        recipients.insert(slot + offset, 2)
    warm = rows(3)
    while len({row.features for row in warm}) < 2:
        warm = rows(3)
    payloads = [warm] + [rows(rng.randint(1, 3)) for _ in recipients[1:]]
    return tuple(NatureElement(a, RowMultiset(p)) for a, p in zip(recipients, payloads))


# sha256 of the trace of `_long_triangulation_stream(0, 112)` under the attack.
LONG_TRIANGULATION_TRACE_SHA256 = "58c8fe9f2ec535915cbeda273e29d5004418f6d384904b5f8a4a424b4f1c9f8f"


def test_long_triangulation_stream_keeps_its_trace_and_recovers_the_truth():
    # Along a long stream the probe targets carry the denominators of dozens
    # of fits, so the own-row cross scale grows with every ladder.
    ninput = _long_triangulation_stream(0, 112)
    run = run_protocol(
        "continuous", ninput, {2: triangulation_attack(1)}, DlrAlgorithm(1), 3, ell=3
    )
    trace = "".join(line + "\n" for line in trace_lines(run)).encode()
    assert hashlib.sha256(trace).hexdigest() == LONG_TRIANGULATION_TRACE_SHA256
    truth = fit_from_moments(reference_moments([r for e in ninput for r in e.payload.rows]))
    assert triangulation_infer_from_history(observed_history(run, 2), 1).truth_output == truth


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_inference_of_a_finished_run_resumes_the_attacks_walk(d, monkeypatch):
    # A view of the attack run starts from the walk of the attacker's last
    # poll, so the inference observes only the messages after that poll, and
    # decodes what a memo-less view of the whole run decodes.
    observed = []
    observe = strategies._LadderFold.observe

    def counted(self, walk, message):
        observed.append(message)
        return observe(self, walk, message)

    monkeypatch.setattr(strategies._LadderFold, "observe", counted)
    generate, decoded = make_triangulation_cases(d, 2), 0
    for seed in range(20):
        case, attack, polls = generate(seed), triangulation_attack(d), []

        def spied(o):
            polls.append(o.length)
            return attack(o)

        run = run_protocol(
            "continuous", case.ninput, {2: spied}, DlrAlgorithm(d), case.agent_count, ell=case.ell
        )
        view = observed_history(run, 2)
        observed.clear()
        got = outcome(triangulation_infer_from_history, view, d)
        assert observed == [m for m in run.messages[polls[-1]:] if view.sees(m)]
        fresh = ObservedHistory(2, run.messages, len(run.messages))
        assert got == outcome(triangulation_infer_from_history, fresh, d)
        decoded += not isinstance(got, type)
    assert decoded


def test_the_average_inference_of_a_finished_run_resumes_the_probes_walk(monkeypatch):
    # The probe attack folds under one key, `_PROBE`, whose state keeps the
    # own sum and count, so the inference on a view of the attack run observes
    # only the messages after the attacker's last poll, and decodes what a
    # memo-less view of the whole run decodes.
    observed = []
    observe = strategies._ProbeFold.observe

    def counted(self, state, message):
        observed.append(message)
        return observe(self, state, message)

    monkeypatch.setattr(strategies._ProbeFold, "observe", counted)
    generate, decoded = make_average_cases(), 0
    for seed in range(50):
        case, attack, polls = generate(seed), average_double_probe(), []

        def spied(o):
            polls.append(o.length)
            return attack(o)

        run = run_protocol(
            "continuous", case.ninput, {2: spied}, AverageAlgorithm(), case.agent_count,
            ell=case.ell,
        )
        view = observed_history(run, 2)
        observed.clear()
        got = outcome(average_infer_from_history, view)
        assert observed == [m for m in run.messages[polls[-1]:] if view.sees(m)]
        fresh = ObservedHistory(2, run.messages, len(run.messages))
        assert got == outcome(average_infer_from_history, fresh)
        decoded += not isinstance(got, type)
    assert decoded == 50


def _scaling_stream(kind: str, length: int):
    """A continuous stream of `length` elements for `kind`'s attack on agent
    2 of three, with its algorithm: the d = 1 ladder stream, or elements
    dealt at random."""
    if kind == "triangulation":
        return _long_triangulation_stream(0, length), DlrAlgorithm(1)
    rng = random.Random(f"scaling:{kind}:{length}")

    def value() -> Fraction:
        return Fraction(rng.randint(-20, 20), 2)

    if kind == "average_probe":
        algorithm, payload = AverageAlgorithm(), lambda: PointSet(((value(),),))
    else:
        algorithm, payload = DlrAlgorithm(1), lambda: RowMultiset((Row((1, value()), value()),))
    return tuple(NatureElement(rng.randint(1, 3), payload()) for _ in range(length)), algorithm


_SCALING_ATTACKS = {
    "average_probe": average_double_probe,
    "lr_sneak": lambda: sneak_attack(lr_sneak_params()),
    "triangulation": lambda: triangulation_attack(1),
}


@pytest.mark.parametrize("kind", sorted(_SCALING_ATTACKS))
def test_attack_streams_cost_in_proportion_to_their_length(kind, monkeypatch):
    # Each poll reads only the log entries after the attacker's last poll,
    # observes only those, and feeds each row to the moment kernel a fixed
    # number of times, so doubling a stream at most doubles each count, up
    # to SLACK for the streams' differences in content.
    SLACK = 100
    counts = Counter()

    def counting(name, method, size):
        def counted(self, *args):
            counts[name] += size(*args)
            return method(self, *args)

        return counted

    for fold in (strategies._LadderFold, strategies._SneakFold, strategies._ProbeFold):
        monkeypatch.setattr(fold, "observe", counting("observe", fold.observe, lambda *args: 1))
    rows = counting("rows", ScaledMoments.plus_rows, lambda rows, sign=1: len(rows))
    monkeypatch.setattr(ScaledMoments, "plus_rows", rows)
    log = CountingLog(())

    def measured(length):
        counts.clear()
        log.reads = 0
        ninput, algorithm = _scaling_stream(kind, length)
        attack = _SCALING_ATTACKS[kind]()

        def read_through(o):
            log.messages = o.log
            return attack(ObservedHistory(o.agent, log, o.length, o.memo))

        run_protocol("continuous", ninput, {2: read_through}, algorithm, 3, ell=3)
        return log.reads, counts["observe"], counts["rows"]

    short, long = measured(250), measured(500)
    # The average stream feeds no rows.
    assert all(short[:2]), short
    for name, n, two_n in zip(("log reads", "observe calls", "rows"), short, long):
        assert two_n <= 2 * n + SLACK, (name, n, two_n)


# sha256 over the traces of 1,800 triangulation runs: for d in (1, 2, 3, 5),
# seat in 1..3 and seed in 0..149, in that loop order, the attack in `seat`
# plays `make_triangulation_cases(d, seat)(seed)`, and each `trace_lines`
# line enters as its UTF-8 bytes plus "\n".
TRIANGULATION_CORPUS_SHA256 = "648a31f6c7e2cb7bf5e916a0de4c9e7dc4cc1628ed061bb87f31494bb31b562a"


def test_triangulation_runs_keep_their_traces():
    digest = hashlib.sha256()
    for d in (1, 2, 3, 5):
        for seat in (1, 2, 3):
            generate = make_triangulation_cases(d, seat)
            for seed in range(150):
                case = generate(seed)
                run = run_protocol(
                    "continuous", case.ninput, {seat: triangulation_attack(d)}, DlrAlgorithm(d),
                    case.agent_count, ell=case.ell,
                )
                for line in trace_lines(run):
                    digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == TRIANGULATION_CORPUS_SHA256


# Fits whose denominators run to hundreds of bits, as they do along a ladder.
_fit_value = st.builds(
    Fraction, st.integers(min_value=-(2**400), max_value=2**400), st.integers(1, 2**400)
)


@given(
    case=st.integers(min_value=1, max_value=4).flatmap(
        lambda width: st.tuples(
            st.integers(min_value=1, max_value=width),
            st.lists(_fit_value, min_size=width, max_size=width).map(tuple),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_probe_row_matches_the_dot_product_reference(case):
    step, previous = case
    units = _probe_units(len(previous))
    row = _probe_row(units, step, previous)
    assert row == reference_probe_row(step, previous)
    assert all(type(v) is Fraction for v in (*row.features, row.target))
    # The probe shares its unit's features and their integer form.
    assert row.features is units[step - 1].features
    assert row.scaled_features is units[step - 1].scaled_features
    assert row.scaled_features == (1, tuple(int(v) for v in row.features))


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


@pytest.mark.parametrize(
    "name, params",
    [
        ("truthful", False),
        ("truthful", 0),
        ("truthful", ""),
        ("truthful", []),
        ("max_overbid", [("value", 3)]),
    ],
    ids=["false", "zero", "empty_string", "empty_list", "list_of_pairs"],
)
def test_make_strategy_refuses_params_that_are_not_a_mapping(name, params):
    # Only None means "no params": each of these used to build a strategy.
    with pytest.raises(ParamError, match=f"^strategy '{name}' parameters must be a mapping, got "):
        make_strategy(name, params)
