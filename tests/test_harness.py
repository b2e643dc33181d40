"""Paired-run verdicts, confounding-pair search, and scenario generators."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import islice
from typing import Mapping, Optional, Sequence

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from exclusim import harness
from exclusim.algorithms import (
    Algorithm,
    AverageAlgorithm,
    DlrAlgorithm,
    KCenterAlgorithm,
    KMedianAlgorithm,
    MaxAlgorithm,
    ParamError,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
    moments,
)
from exclusim.harness import (
    GENERATOR_BOUND_NOTE,
    ConfoundingWitness,
    NotApplicableError,
    _agent_count,
    _append_to_last_round,
    _candidate_pairs,
    _cost_gap,
    _witness,
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
from exclusim.protocol import (
    KIND_LEDGER,
    NatureElement,
    Strategy,
    extract,
    observed_history,
    run_protocol,
)
from exclusim.strategies import (
    average_double_probe,
    average_infer_from_history,
    fabricate_point,
    lr_sneak_params,
    max_echo_attack,
    max_infer,
    max_overbid,
    omit_point,
    sneak_attack,
    truthful_strategy,
)
from reference_aggregations import lr_cost, reference_rows


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
    non_differing = check_condition_i_star(
        AverageAlgorithm(), average_double_probe(), 2, make_average_cases(), count=10
    )
    assert non_differing == []


def test_condition_i_star_echo_fails_on_quiet_seeds():
    # The scalar generator sometimes hands the echoing agent nothing, so the
    # every-scenario version of the check must come back failed.
    cases = make_max_cases()
    non_differing = check_condition_i_star(MaxAlgorithm(), max_echo_attack(), 1, cases, count=30)
    assert non_differing
    assert non_differing == sorted(set(non_differing))
    for seed in range(30):
        case = cases(seed)
        verdict = check_condition_i(
            MaxAlgorithm(), max_echo_attack(), 1, case.ninput,
            ell=case.ell, protocol=case.protocol, agent_count=case.agent_count,
        )
        assert (seed in non_differing) is not verdict.differs


@pytest.mark.parametrize("count", [0, -1, True, 2.5])
def test_verification_suites_refuse_a_count_that_is_not_positive(count):
    with pytest.raises(ParamError) as caught:
        check_condition_i_star(MaxAlgorithm(), max_echo_attack(), 1, make_max_cases(), count)
    assert caught.value.param == "count"
    with pytest.raises(ParamError) as caught:
        verify_inference(
            MaxAlgorithm(), max_echo_attack(), max_infer, make_max_cases(), count, j=1
        )
    assert caught.value.param == "count"


@pytest.mark.parametrize("budget", [-5, True, 2.5])
def test_confounding_search_refuses_a_budget_that_is_not_a_count(budget):
    # A negative budget used to read as "no witness" without comparing a pair.
    with pytest.raises(ParamError) as caught:
        find_confounding_pair(
            MaxAlgorithm(), max_overbid(Fraction(110)), 1, _scalar_input((2, 90)), budget
        )
    assert caught.value.param == "budget"


def test_verify_inference_max_perfect():
    failed = verify_inference(
        MaxAlgorithm(), max_echo_attack(), max_infer, make_max_cases(), count=25, j=1
    )
    assert failed == []


def test_verify_inference_average_perfect():
    def infer(observed):
        return ScalarOutput(average_infer_from_history(observed).true_average)

    failed = verify_inference(
        AverageAlgorithm(), average_double_probe(), infer, make_average_cases(),
        count=25, j=2,
    )
    assert failed == []


def test_certify_attack_labels():
    ninput = _scalar_input((2, 100), (1, 110))
    verdict = check_condition_i(MaxAlgorithm(), max_echo_attack(), 1, ninput, ell=1)
    failed = verify_inference(
        MaxAlgorithm(), max_echo_attack(), max_infer, make_max_cases(), count=10, j=1
    )
    non_differing = check_condition_i_star(
        MaxAlgorithm(), max_echo_attack(), 1, make_max_cases(), count=10
    )
    assert failed == [] and non_differing != []
    certificate = certify_attack(verdict, failed, non_differing)
    assert certificate["vulnerable_demonstrated"]
    assert not certificate["vulnerable_star_demonstrated"]
    # Every label combination: no failed seed or some, and condition (i*)
    # unchecked, passed or failed. A final that never moved demonstrates nothing.
    still = check_condition_i(
        MaxAlgorithm(), max_echo_attack(), 1, _scalar_input((1, 110)), ell=1
    )
    assert not still.differs
    for failed_seeds, non_differing_seeds, labels in [
        ([], None, (True, False)),
        ([], [], (True, True)),
        ([], [3], (True, False)),
        ([4], None, (False, False)),
        ([4], [], (False, False)),
        ([4], [3], (False, False)),
    ]:
        certificate = certify_attack(verdict, failed_seeds, non_differing_seeds)
        assert (
            certificate["vulnerable_demonstrated"], certificate["vulnerable_star_demonstrated"]
        ) == labels
        assert certificate["epistemic_note"] == GENERATOR_BOUND_NOTE
        unmoved = certify_attack(still, failed_seeds, non_differing_seeds)
        assert not unmoved["vulnerable_demonstrated"]
        assert not unmoved["vulnerable_star_demonstrated"]


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
# Witnesses from verdicts against the pairwise oracle
# =============================================================================


def _measure_pair(
    algorithm: Algorithm,
    strategy: Strategy,
    j: int,
    input_a: Sequence[NatureElement],
    input_b: Sequence[NatureElement],
    ell: Optional[int],
    protocol: str,
    agent_count: Optional[int] = None,
) -> ConfoundingWitness:
    """Run both inputs under attack and truth and compare j's observed histories."""
    count = max(
        _agent_count(input_a, j),
        _agent_count(input_b, j),
        agent_count or 1,
    )
    attack_table = {j: strategy}
    truth_table: dict[int, Strategy] = {}

    def view(ninput: Sequence[NatureElement], table: Mapping[int, Strategy]):
        run = run_protocol(protocol, ninput, table, algorithm, count, ell=ell)
        return observed_history(run, j).items

    equal_attack = view(input_a, attack_table) == view(input_b, attack_table)
    equal_truth = view(input_a, truth_table) == view(input_b, truth_table)
    return ConfoundingWitness(
        input_a=tuple(input_a),
        input_b=tuple(input_b),
        observed_equal_under_attack=equal_attack,
        observed_equal_under_truth=equal_truth,
    )


def _pairwise_search(algorithm, strategy, j, base, budget, ell=1, protocol="continuous"):
    """The search as a scan of `_candidate_pairs`, four fresh runs per pair."""
    base = tuple(base)
    count = max(_agent_count(base, j), 2)
    verdict = check_condition_i(
        algorithm, strategy, j, base, ell=ell, protocol=protocol, agent_count=count
    )
    for input_a, input_b in islice(_candidate_pairs(algorithm, verdict, j, base, count), budget):
        witness = _measure_pair(
            algorithm, strategy, j, input_a, input_b, ell, protocol, agent_count=count
        )
        if witness.is_valid():
            return witness
    return None


_SCALARS = st.builds(Fraction, st.integers(-3, 9), st.sampled_from((1, 2))).map(Scalar)
_POINT_SETS = st.lists(st.integers(-3, 9), min_size=1, max_size=3, unique=True).map(
    lambda values: _points(*sorted(values))
)
_LR_SNEAK = lr_sneak_params()
_ROWS = st.one_of(
    st.just(_LR_SNEAK.u_cond),
    st.lists(
        st.builds(lambda x, y: Row((1, x), y), st.integers(-2, 3), st.integers(-2, 3)),
        min_size=1, max_size=2,
    ).map(lambda rows: RowMultiset(tuple(rows))),
)
# algorithm, its payloads, and the strategies played against it
_FAMILIES = (
    (
        MaxAlgorithm(),
        _SCALARS,
        st.one_of(
            st.sampled_from((max_echo_attack(), truthful_strategy)),
            st.integers(-3, 12).map(max_overbid),
        ),
    ),
    (
        KCenterAlgorithm(2),
        _POINT_SETS,
        st.one_of(st.integers(-3, 12).map(fabricate_point), st.integers(-3, 9).map(omit_point)),
    ),
    (DlrAlgorithm(1), _ROWS, st.just(sneak_attack(_LR_SNEAK))),
)
_CONTINUOUS = (("continuous", 1), ("continuous", 2))
_PROTOCOLS = _CONTINUOUS + (("periodic", None),)


def _place(drawn, protocol: str):
    """Nature elements from (agent, payload, new_round) draws. A periodic round
    ends on a drawn break or when its agent already holds an element in it."""
    if protocol == "continuous":
        return tuple(NatureElement(agent, payload) for agent, payload, _ in drawn)
    elements, round_no, taken = [], 1, set()
    for agent, payload, new_round in drawn:
        if (new_round and elements) or agent in taken:
            round_no, taken = round_no + 1, set()
        taken.add(agent)
        elements.append(NatureElement(agent, payload, round_no))
    return tuple(elements)


@st.composite
def _setting(draw, protocols):
    """An attack on an algorithm under one protocol, plus a nature-element draw."""
    algorithm, payloads, attacks = draw(st.sampled_from(_FAMILIES))
    protocol, ell = draw(st.sampled_from(protocols))
    agent_count = draw(st.integers(2, 3))
    j = draw(st.integers(1, agent_count))
    element = st.tuples(st.integers(1, agent_count), payloads, st.booleans())
    return algorithm, draw(attacks), j, agent_count, protocol, ell, element


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_witness_from_verdicts_matches_the_pairwise_oracle(data):
    algorithm, strategy, j, count, protocol, ell, element = data.draw(_setting(_PROTOCOLS))
    base = data.draw(st.lists(element, max_size=3))
    extension_a = data.draw(st.lists(element, min_size=1, max_size=2))
    extension_b = data.draw(
        st.one_of(st.just(extension_a), st.lists(element, min_size=1, max_size=2))
    )
    input_a = _place(base + extension_a, protocol)
    input_b = _place(base + extension_b, protocol)
    verdict_a, verdict_b = (
        check_condition_i(algorithm, strategy, j, x, ell=ell, protocol=protocol, agent_count=count)
        for x in (input_a, input_b)
    )
    assert _witness(input_a, verdict_a, input_b, verdict_b, j) == _measure_pair(
        algorithm, strategy, j, input_a, input_b, ell, protocol, agent_count=count
    )


_SEARCH_CASES = (
    (MaxAlgorithm(), max_overbid(Fraction(110)), 1, _scalar_input((2, 90)), 50),
    (MaxAlgorithm(), max_echo_attack(), 1, _scalar_input((2, 100), (1, 110)), 400),
    (MaxAlgorithm(), truthful_strategy, 1, _scalar_input((2, 90)), 50),
    (
        KCenterAlgorithm(2),
        fabricate_point(99),
        2,
        (NatureElement(1, _points(0, 5)), NatureElement(2, _points(2, 7))),
        200,
    ),
)


@pytest.mark.parametrize("algorithm, strategy, j, base, budget", _SEARCH_CASES)
def test_search_returns_the_pairwise_scan_witness(algorithm, strategy, j, base, budget):
    for tried in (0, 1, 2, budget):
        witness = find_confounding_pair(algorithm, strategy, j, base, budget=tried, ell=1)
        assert witness == _pairwise_search(algorithm, strategy, j, base, tried)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_search_on_random_bases_returns_the_pairwise_scan_witness(data):
    algorithm, strategy, j, _, protocol, ell, element = data.draw(_setting(_CONTINUOUS))
    base = _place(data.draw(st.lists(element, min_size=1, max_size=3)), protocol)
    budget = data.draw(st.integers(0, 20))
    witness = find_confounding_pair(algorithm, strategy, j, base, budget=budget, ell=ell)
    assert witness == _pairwise_search(algorithm, strategy, j, base, budget, ell=ell)


def test_searches_simulate_each_input_once(monkeypatch):
    runs = []

    def counted(*args, **kwargs):
        runs.append(args)
        return run_protocol(*args, **kwargs)

    monkeypatch.setattr(harness, "run_protocol", counted)
    # Criterion 2's echo search: the base and the six single-payload
    # extensions, each played once under attack and once truthfully.
    base = _scalar_input((2, 90))
    assert find_confounding_pair(MaxAlgorithm(), max_echo_attack(), 1, base, budget=400) is None
    assert len(runs) == 14
    runs.clear()
    # The lambda confounder reuses its base verdict: base and flooded input.
    algorithm, strategy, case = lr_periodic_scenario(0)
    witness = periodic_lambda_confounder(
        algorithm, case.ninput, strategy, 2, agent_count=case.agent_count
    )
    assert witness.is_valid()
    assert len(runs) == 4


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
    # A k that is not an int is refused by name, as every count is.
    for k in (2.5, "3", None):
        with pytest.raises(ParamError, match="^k must be an integer, got ") as caught:
            forceable_winner_set("kcenter", s, Fraction(0), k=k)
        assert caught.value.param == "k"
    with pytest.raises(ParamError):
        forceable_winner_set("kcenter", s, Fraction(5))
    # x is coerced and printed as every other point is, whatever its form.
    with pytest.raises(ParamError) as caught:
        forceable_winner_set("kcenter", s, 5)
    assert "(5)" in str(caught.value) and "Fraction(" not in str(caught.value)
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


def _gap_case(width: int):
    value = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    row = st.tuples(st.tuples(*[value] * (width - 1)), value).map(
        lambda pair: Row((1,) + pair[0], pair[1])
    )
    return st.tuples(
        st.lists(row, min_size=width, max_size=width + 3), st.tuples(*[st.fractions()] * width)
    )


# Pairwise coprime denominators in features, targets and beta.
_COPRIME_ROWS = [
    Row((1, Fraction(1, 3)), Fraction(1, 5)),
    Row((1, Fraction(2, 7)), Fraction(-3, 11)),
    Row((1, Fraction(-4, 13)), Fraction(6, 17)),
]
# The least-squares fit of these rows is (5/6, 1/2).
_FIT_ROWS = [Row((1, 1), 1), Row((1, 0), 1), Row((1, 2), 2)]


@given(case=st.integers(min_value=2, max_value=4).flatmap(_gap_case))
@example(case=(_COPRIME_ROWS, (Fraction(1, 19), Fraction(-2, 23))))
@example(case=(_FIT_ROWS, (Fraction(5, 6), Fraction(1, 2))))
@settings(max_examples=200, deadline=None)
def test_cost_gap_is_the_lr_cost_difference(case):
    # The confounder's cost gap from the Gram matrix alone equals the gap
    # between squared-residual sums, at any beta against the rows' own fit.
    rows, beta = case
    fit = moments(rows, len(beta)).solve()
    assume(fit is not None)
    gap = _cost_gap(rows, fit, beta)
    assert gap == lr_cost(rows, beta) - lr_cost(rows, fit)
    assert (gap == 0) == (beta == fit)


def test_lambda_confounder_floods_with_the_lr_cost_copy_count():
    # The copy count from the Gram-form gaps is the one the residual sums give.
    for seed in range(5):
        algorithm, strategy, case = lr_periodic_scenario(seed)
        base = tuple(case.ninput)
        count = max(case.agent_count, _agent_count(base, 2), 2)
        witness = periodic_lambda_confounder(algorithm, base, strategy, 2, agent_count=count)
        verdict = check_condition_i(
            algorithm, strategy, 2, base, protocol="periodic", agent_count=count
        )
        attack, truth = verdict.attack_final.coefficients, verdict.truth_final.coefficients
        truth_rows = reference_rows(extract(verdict.run_truth, KIND_LEDGER), algorithm.d)
        attack_rows = reference_rows(extract(verdict.run_attack, KIND_LEDGER), algorithm.d)
        gap_truth = lr_cost(truth_rows, attack) - lr_cost(truth_rows, truth)
        gap_attack = lr_cost(attack_rows, truth) - lr_cost(attack_rows, attack)
        copies = math.ceil(gap_truth / gap_attack) + 1
        flooded = _append_to_last_round(base, RowMultiset(attack_rows * copies), 2, count)
        assert witness.input_b == flooded, seed


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


def _with_agent_1_in_round_2(ninput, payload):
    """The input plus an agent-1 element in round 2, so two agents fill the
    last round and a confounder's extension must merge into agent 1's."""
    return tuple(ninput) + (NatureElement(1, payload, 2),)


def _merged_into_agent_1(base, extended) -> bool:
    """`extended` is `base` with agent 1's round-2 payload grown, no agent added."""
    changed = [index for index, (a, b) in enumerate(zip(base, extended)) if a != b]
    if len(extended) != len(base) or len(changed) != 1:
        return False
    before, after = base[changed[0]], extended[changed[0]]
    if isinstance(before.payload, PointSet):
        kept = set(before.payload.points) <= set(after.payload.points)
    else:
        kept = Counter(before.payload.rows) <= Counter(after.payload.rows)
    return (after.agent, after.round) == (1, 2) and kept


def test_lambda_confounder_merges_into_a_full_last_round():
    extra = RowMultiset((Row((Fraction(1), Fraction(20)), Fraction(1)),))
    for seed in range(20):
        algorithm, strategy, case = lr_periodic_scenario(seed)
        base = _with_agent_1_in_round_2(case.ninput, extra)
        witness = periodic_lambda_confounder(algorithm, base, strategy, 2, agent_count=2)
        assert witness.is_valid(), seed
        assert witness.input_a == base
        assert _merged_into_agent_1(base, witness.input_b), seed


def test_omission_confounder_merges_into_a_full_last_round():
    extra = PointSet(((Fraction(-7),),))
    for seed in range(6):
        algorithm, strategy, case = kcenter_periodic_scenario(seed)
        base = _with_agent_1_in_round_2(case.ninput, extra)
        witness = periodic_kcenter_omission_confounder(algorithm, base, strategy, 2, agent_count=2)
        assert witness is not None and witness.is_valid(), seed
        assert _merged_into_agent_1(base, witness.input_a), seed
        assert _merged_into_agent_1(base, witness.input_b), seed


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


@pytest.mark.parametrize("d", [9, 10, 16])
def test_triangulation_generator_hides_enough_rows_for_every_d(d):
    # The hidden rows number max(3, d + 1) to max(10, 2 * (d + 1)).
    generate = make_triangulation_cases(d)
    for seed in range(5):
        hidden = [e.payload for e in generate(seed).ninput if e.agent != 2]
        assert max(3, d + 1) <= sum(len(p.rows) for p in hidden) <= max(10, 2 * (d + 1))


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
