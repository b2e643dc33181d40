"""Paired-run vulnerability harness.

Plays the same nature input with and without an attack to test whether the
final output moves, searches continuous inputs for confounding pairs that
refute output exclusivity (pairs of payloads, each appended to one base input
for one extension agent), builds forceable-winner point sets for the clustering
algorithms, constructs round-based cost-scaling confounders, and audits
inference functions for exactness against the truthful replay.

`check_condition_i` is the one paired run. Searches and confounders compare
the attacker's views in its verdicts, so each distinct input is simulated
once under attack and once truthfully, however many pairs it is in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, islice
from operator import mul, sub
from typing import Callable, Iterable, Optional, Sequence, Union

from .algorithms import (
    Algorithm,
    AverageAlgorithm,
    ClusteringAlgorithm,
    CoefficientsOutput,
    DlrAlgorithm,
    KCenterAlgorithm,
    MaxAlgorithm,
    AlgorithmOutput,
    ParamError,
    Point,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
    UpdatePayload,
    check_count,
    coerce_point,
    format_point,
    moments,
    payload_union,
)
from .numerics import RationalLike, is_int
from .protocol import (
    KIND_FACTUAL,
    KIND_LEDGER,
    NatureElement,
    NatureInput,
    Run,
    Strategy,
    extract,
    observed_history,
    run_protocol,
)
from .strategies import (
    InferenceError,
    kcenter_sneak_params,
    lr_sneak_params,
    sneak_attack,
)

GENERATOR_BOUND_NOTE = (
    "generated inputs are capped at 6 nature elements with small rational "
    "coordinates; verdicts certify behavior on this suite, not on all inputs"
)

_RESAMPLE_LIMIT = 1000


class NotApplicableError(Exception):
    """The requested construction has no meaning on this input or strategy."""


# =============================================================================
# Paired runs and condition (i)
# =============================================================================


@dataclass(frozen=True)
class PairedVerdict:
    """Final outputs of the same input played under attack and truthfully.

    `truth_lossless` says whether the truthful run's ledger holds exactly its
    factual sequence. The update guard can drop a truthful echo (an agent
    handed more than `ell` elements in a row), and the "truthful" baseline
    then silently misses data.
    """

    attack_final: Optional[AlgorithmOutput]
    truth_final: Optional[AlgorithmOutput]
    differs: bool
    run_attack: Run
    run_truth: Run
    truth_lossless: bool


def _agent_count(ninput: Sequence[NatureElement], j: int) -> int:
    return max([element.agent for element in ninput] + [j])


def check_condition_i(
    algorithm: Algorithm,
    strategy: Strategy,
    j: int,
    ninput: Sequence[NatureElement],
    ell: Optional[int] = None,
    protocol: str = "continuous",
    agent_count: Optional[int] = None,
) -> PairedVerdict:
    """Play one input twice, with agent j attacking and truthful, and compare.

    All agents other than j play truthfully in both runs; the verdict compares
    the final broadcasts exactly.
    """
    count = agent_count if agent_count is not None else _agent_count(ninput, j)
    run_attack = run_protocol(protocol, ninput, {j: strategy}, algorithm, count, ell=ell)
    run_truth = run_protocol(protocol, ninput, {}, algorithm, count, ell=ell)
    attack_final = run_attack.final_output()
    truth_final = run_truth.final_output()
    return PairedVerdict(
        attack_final=attack_final,
        truth_final=truth_final,
        differs=attack_final != truth_final,
        run_attack=run_attack,
        run_truth=run_truth,
        truth_lossless=extract(run_truth, KIND_LEDGER) == extract(run_truth, KIND_FACTUAL),
    )


# =============================================================================
# Generated scenario suites and condition (i*)
# =============================================================================


@dataclass(frozen=True)
class GeneratedCase:
    """One generated scenario: the input plus the engine settings to run it."""

    ninput: NatureInput
    agent_count: int
    ell: Optional[int] = None
    protocol: str = "continuous"


CaseGenerator = Callable[[int], GeneratedCase]


def _case_verdicts(
    algorithm: Algorithm, strategy: Strategy, j: int, generate: CaseGenerator, count: int, seed: int
):
    """Each generated scenario's seed with its paired verdict, in seed order."""
    for case_seed in range(seed, seed + count):
        case = generate(case_seed)
        yield case_seed, check_condition_i(
            algorithm, strategy, j, case.ninput,
            ell=case.ell, protocol=case.protocol, agent_count=case.agent_count,
        )


def check_condition_i_star(
    algorithm: Algorithm,
    strategy: Strategy,
    j: int,
    scenario_generator: CaseGenerator,
    count: int,
    seed: int = 0,
) -> list[int]:
    """The seeds, in order, of the generated scenarios whose final output did not move."""
    check_count("count", count)
    verdicts = _case_verdicts(algorithm, strategy, j, scenario_generator, count, seed)
    return [case_seed for case_seed, verdict in verdicts if not verdict.differs]


def verify_inference(
    algorithm: Algorithm,
    strategy: Strategy,
    inference: Callable[..., AlgorithmOutput],
    scenario_generator: CaseGenerator,
    count: int,
    j: int,
    seed: int = 0,
) -> list[int]:
    """The seeds, in order, of the generated scenarios where the inference missed.

    The inference receives the attacker's observed history from the attack run
    and must return exactly the truthful run's final broadcast; `InferenceError` is a miss.
    """
    check_count("count", count)
    failed: list[int] = []
    verdicts = _case_verdicts(algorithm, strategy, j, scenario_generator, count, seed)
    for case_seed, verdict in verdicts:
        observed = observed_history(verdict.run_attack, j)
        try:
            estimate: Optional[AlgorithmOutput] = inference(observed)
        except InferenceError:
            estimate = None
        if estimate != verdict.truth_final:
            failed.append(case_seed)
    return failed


def certify_attack(
    condition_i: PairedVerdict,
    failed_seeds: Sequence[int],
    non_differing_seeds: Optional[Sequence[int]] = None,
) -> dict:
    """Roll the individual checks into the two demonstration labels.

    A moved final plus no `failed_seeds` from `verify_inference` demonstrates
    vulnerability on the tested suite; the starred label also needs the
    `non_differing_seeds` of `check_condition_i_star` (None: not checked) empty.
    """
    vulnerable = condition_i.differs and not failed_seeds
    star = vulnerable and non_differing_seeds is not None and not non_differing_seeds
    return {
        "vulnerable_demonstrated": vulnerable,
        "vulnerable_star_demonstrated": star,
        "epistemic_note": GENERATOR_BOUND_NOTE,
    }


def monotonicity_smoke_check(
    algorithm: Algorithm,
    strategy: Strategy,
    j: int,
    ninput: Sequence[NatureElement],
    ell: int,
) -> bool:
    """A continuous run that moves the final under window ell still moves it
    under ell + 1."""
    tight = check_condition_i(algorithm, strategy, j, ninput, ell=ell)
    loose = check_condition_i(algorithm, strategy, j, ninput, ell=ell + 1)
    return (not tight.differs) or loose.differs


# =============================================================================
# Confounding witnesses: refuting output exclusivity
# =============================================================================


@dataclass(frozen=True)
class ConfoundingWitness:
    """Two inputs the attacker cannot tell apart while the truth can.

    Valid when the attacker's observed histories coincide across the two
    attack runs but the truthful runs show the attacker different histories.
    """

    input_a: NatureInput
    input_b: NatureInput
    observed_equal_under_attack: bool
    observed_equal_under_truth: bool

    def is_valid(self) -> bool:
        return self.observed_equal_under_attack and not self.observed_equal_under_truth


def _witness(
    input_a: NatureInput, verdict_a: PairedVerdict,
    input_b: NatureInput, verdict_b: PairedVerdict, j: int,
) -> ConfoundingWitness:
    """Compare j's observed histories across the paired runs of two inputs."""

    def view(run: Run):
        return observed_history(run, j).items

    return ConfoundingWitness(
        input_a=tuple(input_a),
        input_b=tuple(input_b),
        observed_equal_under_attack=view(verdict_a.run_attack) == view(verdict_b.run_attack),
        observed_equal_under_truth=view(verdict_a.run_truth) == view(verdict_b.run_truth),
    )


def _extension_agent(j: int, base: NatureInput, agent_count: int) -> int:
    """An agent for an appended element: not j, and not the last element's
    recipient, whose immediate truthful echo would hit the update guard."""
    last_author = base[-1].agent if base else None
    for agent in range(1, agent_count + 1):
        if agent != j and agent != last_author:
            return agent
    return agent_count + 1


def _point_values(
    algorithm: ClusteringAlgorithm, payloads: Sequence[UpdatePayload]
) -> set[Fraction]:
    """The 1-D values in the point union that `algorithm` folds from `payloads`."""
    return {p[0] for p in reduce(algorithm.fold, payloads, algorithm.start()) if len(p) == 1}


def _line(values: Iterable[Fraction]) -> PointSet:
    """The one-dimensional point set of some rational values."""
    return PointSet(tuple((v,) for v in values))


def _overbid_pairs(verdict: PairedVerdict, j: int):
    """Payload pairs that pull the true maximum toward an overbid value x.

    When the attack run shows j pushing some scalar x above the truthful
    maximum m, the payloads (x + 2m) / 3 and (2x + m) / 3 stay below x
    (invisible under attack) while raising the truthful maximum to two
    different values.
    """
    truth_final = verdict.truth_final
    if not isinstance(truth_final, ScalarOutput):
        return
    m = truth_final.value
    sent = {
        payload.value
        for payload in extract(verdict.run_attack, KIND_LEDGER, j)
        if isinstance(payload, Scalar)
    }
    for x in sorted((value for value in sent if value > m), reverse=True):
        yield Scalar((x + 2 * m) / 3), Scalar((2 * x + m) / 3)


def _fabrication_pairs(algorithm: Algorithm, verdict: PairedVerdict, j: int):
    """Payload pairs that expose a fabricated clustering point.

    A point x sent by j but absent from every agent's factual data is forced
    to be a winner by a payload E1; its sibling E2 = E1 minus x leaves the
    attack ledger's point union unchanged (x is already there) but splits the
    truthful outputs.
    """
    if not isinstance(algorithm, ClusteringAlgorithm) or algorithm.k < 2:
        return
    factual = _point_values(algorithm, extract(verdict.run_attack, KIND_FACTUAL))
    sent = _point_values(algorithm, extract(verdict.run_attack, KIND_LEDGER, j))
    support = factual | sent
    if algorithm.median and len(support) < 2:
        return
    for x in sorted(sent - factual):
        winners = forceable_winner_set(algorithm.name, _line(support), (x,), k=algorithm.k)
        e1_values = support | {point[0] for point in winners.points}
        yield _line(e1_values), _line(e1_values - {x})


def _enumeration_payloads(algorithm: Algorithm) -> list[UpdatePayload]:
    values = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)]
    if isinstance(algorithm, MaxAlgorithm):
        return [Scalar(v) for v in values]
    if isinstance(algorithm, (AverageAlgorithm, ClusteringAlgorithm)):
        return [PointSet(((v,),)) for v in values]
    if isinstance(algorithm, DlrAlgorithm):
        width = algorithm.d + 1
        return [
            RowMultiset((Row((Fraction(1),) + (Fraction(v),) * (width - 1), w),))
            for v, w in [(1, 0), (2, 1), (0, 1), (1, 2), (-1, 0), (3, 1)]
        ]
    return []


def _candidate_pairs(
    algorithm: Algorithm, verdict: PairedVerdict, j: int, base: NatureInput, agent_count: int
):
    """Input pairs in search order: overbid pulls for max, forceable-winner
    splits for fabricated clustering points, then every pair of enumerated
    payloads. Each payload pair extends `base` by one element for the one
    `_extension_agent`."""
    agent = _extension_agent(j, base, agent_count)
    payload_pairs = chain(
        _overbid_pairs(verdict, j),
        _fabrication_pairs(algorithm, verdict, j),
        combinations(_enumeration_payloads(algorithm), 2),
    )
    for payload_a, payload_b in payload_pairs:
        yield base + (NatureElement(agent, payload_a),), base + (NatureElement(agent, payload_b),)


def find_confounding_pair(
    algorithm: Algorithm,
    strategy: Strategy,
    j: int,
    base_inputs: Sequence[NatureElement],
    budget: int,
    ell: int = 1,
) -> Optional[ConfoundingWitness]:
    """Search for a confounding pair of continuous inputs extending `base_inputs`.

    Returns the first pair of `_candidate_pairs` that the attacker cannot
    distinguish while the truth does. Each distinct input is simulated once
    under attack and once truthfully, however many pairs it is in. `budget`
    bounds the number of candidate pairs compared. The candidates append
    elements without a round, so the search runs on continuous inputs only.
    """
    if not is_int(budget) or budget < 0:
        raise ParamError(f"budget must be a non-negative integer, got {budget!r}", "budget")
    base = tuple(base_inputs)
    count = max(_agent_count(base, j), 2)
    verdict = check_condition_i(algorithm, strategy, j, base, ell=ell, agent_count=count)
    verdicts: dict[NatureInput, PairedVerdict] = {}

    def paired(ninput: NatureInput) -> PairedVerdict:
        if ninput not in verdicts:
            verdicts[ninput] = check_condition_i(
                algorithm, strategy, j, ninput, ell=ell,
                agent_count=max(count, _agent_count(ninput, j)),
            )
        return verdicts[ninput]

    pairs = _candidate_pairs(algorithm, verdict, j, base, count)
    for input_a, input_b in islice(pairs, budget):
        witness = _witness(input_a, paired(input_a), input_b, paired(input_b), j)
        if witness.is_valid():
            return witness
    return None


# =============================================================================
# Forceable winners for the clustering algorithms
# =============================================================================


def forceable_winner_set(
    kind: str,
    s: PointSet,
    x: Union[RationalLike, Point],
    k: int = 3,
) -> PointSet:
    """Extra points that force x into the clustering output over s plus them.

    For k centers the set spreads two points one radius around x plus far
    singletons; for k medians it completes s symmetrically around x so x
    becomes the median of the near mass, again plus far singletons. The
    returned set never contains x itself.
    """
    if kind not in ("kcenter", "kmedian"):
        raise ParamError(f"kind must be 'kcenter' or 'kmedian', got {kind!r}")
    if check_count("k", k) < 2:
        raise ParamError(f"need at least two centers, got k={k}")
    if not s.points:
        raise ParamError("the base point set is empty")
    if any(len(point) != 1 for point in s.points):
        raise ParamError("forceable winners are built on the line only")
    target = coerce_point(x)
    if len(target) != 1 or target not in s.points:
        raise ParamError(f"x must be a one-dimensional member of s, got {format_point(target)}")
    center = target[0]
    values = [point[0] for point in s.points]
    if kind == "kcenter":
        radius = max(max(abs(center - v) for v in values), Fraction(1))
        bar = {center + radius, center - radius}
        bar.update(center + Fraction(10) ** t * radius for t in range(1, k))
    else:
        if len(values) < 2:
            raise ParamError("the median construction needs at least two base points")
        mirrored = set(values) | {2 * center - v for v in values}
        spread = max(sum(abs(v - center) for v in mirrored), Fraction(1))
        bar = mirrored - {center}
        bar.update(center + Fraction(10) ** t * spread for t in range(1, k))
    return _line(bar)


# =============================================================================
# Round-based confounders
# =============================================================================


def _append_to_last_round(
    ninput: NatureInput, payload: UpdatePayload, j: int, agent_count: int
) -> NatureInput:
    """Attach a payload to the final round via a new element or a merged one.

    With `agent_count >= 2` some agent other than j is free in the final round
    or has an element there to merge into, so no agent is added.
    """
    last_round = max(element.round or 0 for element in ninput)
    occupied = {element.agent for element in ninput if element.round == last_round}
    for agent in range(1, agent_count + 1):
        if agent != j and agent not in occupied:
            return ninput + (NatureElement(agent, payload, last_round),)
    position = max(
        index
        for index, element in enumerate(ninput)
        if element.round == last_round and element.agent != j
    )
    element = ninput[position]
    merged = NatureElement(element.agent, payload_union(element.payload, payload), last_round)
    return ninput[:position] + (merged,) + ninput[position + 1 :]


def _cost_gap(rows: Sequence[Row], fit: Point, other: Point) -> Fraction:
    """How much more the squared residuals of `rows` sum to at `other` than at
    `fit`, their least-squares fit: delta^T G delta with delta = other - fit,
    as the cross term vanishes. Since G @ fit = c, that is delta . (G @ other
    - c), with the residual of the rows' moments, and it is never negative.
    """
    scale, residual = moments(rows, len(fit)).residual(other)
    return sum(map(mul, map(sub, other, fit), residual), Fraction(0)) / scale


def periodic_lambda_confounder(
    algorithm: Algorithm,
    ninput: Sequence[NatureElement],
    strategy: Strategy,
    j: int,
    agent_count: Optional[int] = None,
) -> ConfoundingWitness:
    """A confounding pair built by flooding the final round with copied data.

    When the attack moves the final fit, enough copies of the attack ledger
    appended to the last round drag the truthful fit onto the attack's output
    while leaving every broadcast of the attack run unchanged. The copy count
    comes from the two cost gaps; the returned witness compares the base
    input's paired run with the flooded input's.
    """
    base = tuple(ninput)
    count = max(agent_count or 1, _agent_count(base, j), 2)
    verdict = check_condition_i(
        algorithm, strategy, j, base, protocol="periodic", agent_count=count
    )
    rho_attack = verdict.attack_final
    rho_truth = verdict.truth_final
    if rho_attack == rho_truth:
        raise NotApplicableError("the strategy does not move the final output here")
    if not isinstance(algorithm, DlrAlgorithm):
        raise ParamError("the cost-scaling confounder needs a regression algorithm")
    if not isinstance(rho_attack, CoefficientsOutput) or not isinstance(
        rho_truth, CoefficientsOutput
    ):
        raise NotApplicableError("both runs must end on a proper fit")
    # Each final output is the least-squares fit of its run's whole ledger. So
    # the attack rows are not empty and their Gram matrix is non-singular,
    # hence positive definite: as the fits differ, gap_attack is positive.
    # The fold took every payload on both ledgers: row multisets or empty updates.
    truth_rows, attack_rows = (
        tuple(
            row for u in extract(run, KIND_LEDGER) if isinstance(u, RowMultiset) for row in u.rows
        )
        for run in (verdict.run_truth, verdict.run_attack)
    )
    gap_truth = _cost_gap(truth_rows, rho_truth.coefficients, rho_attack.coefficients)
    gap_attack = _cost_gap(attack_rows, rho_attack.coefficients, rho_truth.coefficients)
    copies = math.ceil(gap_truth / gap_attack) + 1
    payload = RowMultiset(attack_rows * copies)
    flooded = _append_to_last_round(base, payload, j, count)
    flooded_verdict = check_condition_i(
        algorithm, strategy, j, flooded, protocol="periodic", agent_count=count
    )
    return _witness(base, verdict, flooded, flooded_verdict, j)


def periodic_kcenter_omission_confounder(
    algorithm: KCenterAlgorithm,
    ninput: Sequence[NatureElement],
    strategy: Strategy,
    j: int,
    agent_count: Optional[int] = None,
) -> Optional[ConfoundingWitness]:
    """A confounding pair for a k-center run that withholds one point.

    For a point x that agent j received but never echoed, two extensions are
    appended to the final round: one whose winner set is centered on x and one
    centered on x's nearest neighbor, matched so both attack ledgers (which
    miss x) produce identical outputs while the truthful ledgers (which keep
    x) split. Candidates are tried in order and each one is validated by the
    paired runs of its two inputs; None means no candidate survived.
    """
    base = tuple(ninput)
    count = max(agent_count or 1, _agent_count(base, j), 2)

    def paired(extended: NatureInput) -> PairedVerdict:
        return check_condition_i(
            algorithm, strategy, j, extended, protocol="periodic", agent_count=count
        )

    verdict = paired(base)
    own_factual = _point_values(algorithm, extract(verdict.run_attack, KIND_FACTUAL, j))
    own_sent = _point_values(algorithm, extract(verdict.run_attack, KIND_LEDGER, j))
    all_factual = _point_values(algorithm, extract(verdict.run_attack, KIND_FACTUAL))
    sent_by_all = _point_values(algorithm, extract(verdict.run_attack, KIND_LEDGER))
    k = algorithm.k
    for x in sorted(own_factual - sent_by_all):
        support = all_factual | own_sent | {x + 1}
        # The radius is inflated well past the support's spread around x so
        # that every center choice below is a unique minimizer and no result
        # hinges on tie-breaking.
        radius = 4 * (max(abs(x - v) for v in support) + 1)
        far_set = {x + Fraction(10) ** t * radius for t in range(1, k)}
        # E1 holds at least k + 2 points, so its output has centers, and
        # x + 2r is in E1 but never in E2, so the two payloads differ.
        element_a = _line((support | {x - 2 * radius, x + 2 * radius} | far_set) - {x})
        centers = algorithm.compute((element_a,)).centers  # type: ignore[union-attr]
        near = [c[0] for c in centers if c[0] not in far_set]
        if len(near) != 1:
            continue
        nearest = near[0]
        element_b = _line((support | {nearest - radius, nearest + radius} | far_set) - {x})
        input_a = _append_to_last_round(base, element_a, j, count)
        input_b = _append_to_last_round(base, element_b, j, count)
        witness = _witness(input_a, paired(input_a), input_b, paired(input_b), j)
        if witness.is_valid():
            return witness
    return None


# =============================================================================
# Seeded scenario generators
# =============================================================================


def _small_fraction(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    if rng.random() < 0.25:
        return Fraction(rng.randint(2 * lo, 2 * hi), 2)
    return Fraction(rng.randint(lo, hi))


def make_max_cases(j: int = 1) -> CaseGenerator:
    """Scalar streams over three agents where no agent receives two elements
    in a row, played under window 1.

    Agent j never gets the first element, so the echoing attack sees a
    broadcast before its own factual data arrives. Some seeds give agent j no
    element at all; on those the echo never fires and the final outputs agree,
    which is exactly the every-run-differs failure the suite should surface.
    """

    def generate(seed: int) -> GeneratedCase:
        rng = random.Random(f"max:{seed}")
        length = rng.randint(2, 5)
        agents: list[int] = []
        for position in range(length):
            choices = [a for a in (1, 2, 3) if not agents or a != agents[-1]]
            if position == 0:
                choices = [a for a in choices if a != j]
            agents.append(rng.choice(choices))
        elements = tuple(
            NatureElement(agent, Scalar(_small_fraction(rng, -9, 99))) for agent in agents
        )
        return GeneratedCase(elements, 3, ell=1)

    return generate


def make_average_cases(j: int = 2) -> CaseGenerator:
    """Point streams where the probing agent's element arrives last.

    Every other agent gets its data first, so both probes land between
    truthful echoes; the sampled values are re-drawn until the probing
    attack's final broadcast provably differs from the truthful average.
    """

    def generate(seed: int) -> GeneratedCase:
        rng = random.Random(f"average:{seed}")
        for _ in range(_RESAMPLE_LIMIT):
            other_count = rng.randint(1, 3)
            other_agents = [a for a in range(1, other_count + 2) if a != j][:other_count]
            others = []
            hidden_values: list[Fraction] = []
            for agent in other_agents:
                size = rng.randint(1, 3)
                values = [Fraction(v) for v in rng.sample(range(-9, 10), size)]
                hidden_values.extend(values)
                others.append(NatureElement(agent, _line(values)))
            own_size = rng.randint(1, 3)
            own_values = [Fraction(v) for v in rng.sample(range(-9, 10), own_size)]
            own = NatureElement(j, _line(own_values))
            hidden_sum = sum(hidden_values, Fraction(0))
            hidden_count = len(hidden_values)
            if hidden_sum != 0:
                attack_final = hidden_sum / (hidden_count + 2)
            else:
                attack_final = Fraction(1, hidden_count + 2)
            truth_final = (hidden_sum + sum(own_values)) / (hidden_count + len(own_values))
            if attack_final != truth_final:
                agent_count = max(other_agents + [j])
                return GeneratedCase(tuple(others) + (own,), agent_count, ell=2)
        raise NotApplicableError("could not sample a final-moving average scenario")

    return generate


def _labeled_row(rng: random.Random, d: int) -> Row:
    features = (Fraction(1),) + tuple(_small_fraction(rng, -10, 10) for _ in range(d))
    return Row(features, _small_fraction(rng, -10, 10))


def _filler_rows(rng: random.Random, d: int, count: int) -> tuple[Row, ...]:
    return tuple(_labeled_row(rng, d) for _ in range(count))


def _warm_rows(rng: random.Random, d: int, count: int) -> tuple[Row, ...]:
    """Random labeled points whose feature moments are invertible."""
    for _ in range(_RESAMPLE_LIMIT):
        rows = _filler_rows(rng, d, count)
        if moments(rows, d + 1).solve() is not None:
            return rows
    raise NotApplicableError("could not sample an invertible warm start")


def make_triangulation_cases(d: int, j: int = 2) -> CaseGenerator:
    """Regression streams over three agents that trigger full probe ladders at
    window d + 2.

    The agents other than j receive max(3, d + 1) to max(10, 2 * (d + 1))
    labeled points in total, with every coordinate a rational in [-10, 10],
    so hidden rows spread over several elements at every d. The first
    element warms another agent's ledger into an invertible state; any
    remaining hidden points arrive as later elements whose echoes re-trigger
    fresh probe ladders. Some scenarios also hand j its own factual rows
    partway through.
    """
    check_count("d", d)

    def generate(seed: int) -> GeneratedCase:
        rng = random.Random(f"triangulation:{d}:{seed}")
        hidden_agents = [a for a in (1, 2, 3) if a != j]
        hidden_total = rng.randint(max(3, d + 1), max(10, 2 * (d + 1)))
        warm_count = rng.randint(d + 1, hidden_total)
        elements = [NatureElement(1, RowMultiset(_warm_rows(rng, d, warm_count)))]
        leftover = hidden_total - warm_count
        streak_agent, streak = 1, 1
        while leftover:
            take = rng.randint(1, min(3, leftover))
            # An agent handed d + 2 elements in a row would have its last
            # truthful echo suppressed by the update guard, silently dropping
            # data from the truthful baseline, so streaks stop one short.
            choices = [a for a in hidden_agents if a != streak_agent or streak <= d]
            agent = rng.choice(choices)
            streak_agent, streak = agent, (streak + 1 if agent == streak_agent else 1)
            elements.append(NatureElement(agent, RowMultiset(_filler_rows(rng, d, take))))
            leftover -= take
        if len(elements) >= 2 and rng.random() < 0.4:
            # j's own rows stall the fresh ladder against the update guard;
            # a hidden element always follows so an echo re-triggers it.
            position = rng.randint(1, len(elements) - 1)
            own = NatureElement(j, RowMultiset(_filler_rows(rng, d, rng.randint(1, 2))))
            elements.insert(position, own)
        return GeneratedCase(tuple(elements), 3, ell=d + 2)

    return generate


def lr_periodic_scenario(seed: int, j: int = 2) -> tuple[Algorithm, Strategy, GeneratedCase]:
    """A round-based regression run where agent j runs the swap-and-repair attack.

    The swap trigger needs the opening broadcast to equal the attack's
    conditioning fit (intercept 1, zero slope), so the seeded warm rows all sit
    on that plane while their distinct x-coordinates keep the fit unique.
    """
    rng = random.Random(f"lr-periodic:{seed}")
    params = lr_sneak_params()
    algorithm = DlrAlgorithm(1)
    for _ in range(_RESAMPLE_LIMIT):
        xs = rng.sample(range(-9, 10), rng.randint(2, 4))
        warm = RowMultiset(
            tuple(Row((Fraction(1), Fraction(x)), Fraction(1)) for x in xs)
        )
        truth_fit = algorithm.compute((warm, params.u_cond))
        attack_fit = algorithm.compute((warm, params.u_attack))
        if (
            isinstance(truth_fit, CoefficientsOutput)
            and isinstance(attack_fit, CoefficientsOutput)
            and truth_fit != attack_fit
        ):
            ninput = (
                NatureElement(1, warm, 1),
                NatureElement(j, params.u_cond, 2),
            )
            case = GeneratedCase(ninput, max(2, j), ell=None, protocol="periodic")
            return algorithm, sneak_attack(params), case
    raise NotApplicableError("could not sample a fit-moving swap scenario")


def kcenter_periodic_scenario(seed: int, j: int = 2) -> tuple[Algorithm, Strategy, GeneratedCase]:
    """A round-based clustering run where agent j runs the swap-and-repair attack."""
    rng = random.Random(f"kcenter-periodic:{seed}")
    for _ in range(_RESAMPLE_LIMIT):
        k = rng.choice((3, 4))
        eps = Fraction(1, rng.choice((1000, 2000, 5000)))
        params = kcenter_sneak_params(k, eps)
        algorithm = KCenterAlgorithm(k)
        cluster = PointSet(params.rho_cond.centers)  # type: ignore[union-attr]
        truth_out = algorithm.compute((cluster, params.u_cond))
        attack_out = algorithm.compute((cluster, params.u_attack))
        if truth_out != attack_out:
            ninput = (
                NatureElement(1, cluster, 1),
                NatureElement(j, params.u_cond, 2),
            )
            case = GeneratedCase(ninput, max(2, j), ell=None, protocol="periodic")
            return algorithm, sneak_attack(params), case
    raise NotApplicableError("could not sample a center-moving swap scenario")


def forceable_instance(kind: str, seed: int) -> tuple[PointSet, Point, int]:
    """A random base set, a member point, and a center count for forcing."""
    rng = random.Random(f"forceable:{kind}:{seed}")
    size = rng.randint(2, 8)
    values = rng.sample(range(-9, 10), size)
    points = _line(Fraction(v) for v in values)
    x = (Fraction(rng.choice(values)),)
    return points, x, rng.choice((3, 4))
