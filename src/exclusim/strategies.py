"""Attack strategies: the sneak swap-and-repair template, probing attacks for
max and average, the triangulation probe ladder for linear regression, and the
exact inference helpers that decode what the truthful outcome would have been.
The attacks that read their whole view (sneak, probe, triangulation) are
`StrategyFold`s; the rest read only the view's last message and broadcast.
The probe ladder is one walk, `_LadderFold`, which folds F - L too: the
attack, `triangulation_state` and the inference read it alone, under one memo
key, so the inference of a finished run resumes the attack's walk. The average
probe is one fold object too, `_PROBE`, which also keeps the average of the
own deliveries, so its inference resumes the attack's walk as well.
`STRATEGIES` gives each strategy a scenario file can name, with the kinds of
its parameters and what it can send; the builders check the values, and the
algorithm's `check` decides which of those payloads a ledger takes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, pairwise
from math import lcm
from operator import sub
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .algorithms import (
    AlgorithmOutput,
    AverageAlgorithm,
    CentersOutput,
    CoefficientsOutput,
    Empty,
    NullOutput,
    ParamError,
    PayloadError,
    Point,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
    ScaledMoments,
    UpdatePayload,
    build_named,
    check_count,
    coerce_point,
    moments,
    payload_difference,
    payload_union,
)
from .numerics import RationalLike, RMatrix, rational
from .protocol import (
    KIND_FACTUAL,
    KIND_LEDGER,
    FactualDelivery,
    LedgerUpdate,
    Message,
    ObservedHistory,
    OutputBroadcast,
    Run,
    Strategy,
    extract,
    truthful_strategy,
)


class InferenceError(Exception):
    """An observed history cannot be decoded into a truthful-outcome estimate."""


class StrategyFold:
    """A strategy that decides from a fold of its whole view.

    `start()` is the state of an empty view, `observe(state, message)` the
    state once the agent has seen `message` too, and `decide(state)` the
    wish. States are immutable, as `Algorithm`'s are, so a view built by an
    engine resumes the fold from the agent's last poll (`ObservedHistory.fold`).
    """

    def start(self) -> object:
        raise NotImplementedError

    def observe(self, state: object, message: Message) -> object:
        raise NotImplementedError

    def decide(self, state: object) -> Optional[UpdatePayload]:
        raise NotImplementedError

    def __call__(self, view: ObservedHistory) -> Optional[UpdatePayload]:
        return self.decide(view.fold(self))


# =============================================================================
# Sneak attack: swap one payload, repair the ledger later
# =============================================================================


@dataclass(frozen=True)
class SneakParams:
    """Parameters of a sneak attack.

    The attack waits for the factual payload `u_cond` to arrive while the last
    broadcast equals `rho_cond`, sends `u_attack` in its place, and repairs the
    ledger with `u_resync` as soon as any later factual update lands.
    """

    u_cond: UpdatePayload
    rho_cond: AlgorithmOutput
    u_attack: UpdatePayload
    u_resync: UpdatePayload

    def __post_init__(self) -> None:
        if self.u_cond == self.u_attack:
            raise ParamError(
                "u_attack must differ from u_cond, or the swap cannot be told "
                "apart from a truthful echo",
                "u_attack",
            )


class _SneakState(NamedTuple):
    previous: Optional[Message]  # the message seen before `last`
    last: Optional[Message]
    broadcast: Optional[AlgorithmOutput]  # the last broadcast's output
    since: Optional[int]  # messages seen after the first swap signature, if any


class _SneakFold(StrategyFold):
    def __init__(self, params: SneakParams):
        self.params = params

    def start(self) -> _SneakState:
        return _SneakState(None, None, None, None)

    def observe(self, state: _SneakState, message: Message) -> _SneakState:
        previous, last, broadcast, since = state
        if since is not None:
            since += 1
        elif (
            # The signature: the watched delivery, the swap, and its broadcast.
            isinstance(message, OutputBroadcast)
            and isinstance(last, LedgerUpdate)
            and last.payload == self.params.u_attack
            and isinstance(previous, FactualDelivery)
            and previous.payload == self.params.u_cond
        ):
            since = 0
        if isinstance(message, OutputBroadcast):
            broadcast = message.output
        return _SneakState(last, message, broadcast, since)

    def decide(self, state: _SneakState) -> Optional[UpdatePayload]:
        params, last = self.params, state.last
        if state.since is None:
            if (
                isinstance(last, FactualDelivery)
                and last.payload == params.u_cond
                and state.broadcast == params.rho_cond
            ):
                return params.u_attack
        elif state.since == 1:
            if isinstance(last, FactualDelivery):
                return payload_union(last.payload, params.u_resync)
            if isinstance(last, OutputBroadcast):
                return params.u_resync
        # Played truthfully: echo an own delivery the moment it arrives.
        return last.payload if isinstance(last, FactualDelivery) else None


def sneak_attack(params: SneakParams) -> Strategy:
    """The three-branch swap-then-repair strategy.

    Branch one sends `u_attack` instead of the watched factual payload when the
    last broadcast equals `rho_cond`. Branch two fires at the first factual
    update after the swap, visible either as one extra broadcast or as an own
    delivery right behind the signature, and sends `u_resync` joined with the
    new own payload when there is one. Every other history is played truthfully.
    """
    return _SneakFold(params)


# =============================================================================
# Max: echo and overbid
# =============================================================================


def max_echo_attack() -> Strategy:
    """Suppress own scalars by re-sending the last broadcast value instead."""

    def strategy(o: ObservedHistory) -> Optional[UpdatePayload]:
        last = o.last()
        if not isinstance(last, FactualDelivery):
            return None
        previous = o.last_broadcast()
        if isinstance(previous, ScalarOutput):
            return Scalar(previous.value)
        return last.payload  # nothing to echo yet: play truthfully

    return strategy


def max_overbid(value: RationalLike) -> Strategy:
    """Push one fixed high value whenever the ledger is live; never echo own data."""
    bid = Scalar(value)

    def strategy(o: ObservedHistory) -> Optional[UpdatePayload]:
        if o.last_broadcast() is not None:
            return bid
        return None

    return strategy


def max_infer(o: ObservedHistory) -> AlgorithmOutput:
    """The truthful maximum: largest value among broadcasts and own factual scalars.

    The view's prefix of the log is read in place; every agent sees every
    broadcast, so only a factual delivery is tested with `o.sees`.
    """
    values: list[Fraction] = []
    for item in islice(o.log, o.length):
        if isinstance(item, OutputBroadcast) and isinstance(item.output, ScalarOutput):
            values.append(item.output.value)
        elif isinstance(item, FactualDelivery) and isinstance(item.payload, Scalar) and o.sees(item):
            values.append(item.payload.value)
    return ScalarOutput(max(values)) if values else NullOutput()


# =============================================================================
# Average: the two-probe counting attack
# =============================================================================


_PROBE_ZERO = PointSet(((0,),))
_PROBE_ONE = PointSet(((1,),))


@dataclass(frozen=True)
class AverageInference:
    """Hidden totals recovered from the two probe responses."""

    others_count: int
    others_sum: Fraction
    true_average: Fraction


_AVERAGE = AverageAlgorithm()


class _ProbeState(NamedTuple):
    delivered: int  # own factual deliveries
    # The scalar broadcast value right behind each own ledger update, or None
    # where anything else, or nothing yet, follows one.
    responses: tuple[Optional[Fraction], ...]
    pending: bool  # the last message is an own ledger update
    own: object  # the average's fold of the own deliveries before `refused`
    refused: Optional[UpdatePayload]  # the first own delivery the average refuses


class _ProbeFold(StrategyFold):
    """The probe attack's walk, which also folds the own deliveries into the
    average's state, so the inference needs no second walk. A delivery the
    average refuses is kept, not raised: the attack never sends it, and the
    inference raises the average's `PayloadError` on it."""

    def start(self) -> _ProbeState:
        return _ProbeState(0, (), False, _AVERAGE.start(), None)

    def observe(self, state: _ProbeState, message: Message) -> _ProbeState:
        delivered, responses, pending, own, refused = state
        if isinstance(message, FactualDelivery):
            delivered += 1
            if refused is None:
                try:
                    own = _AVERAGE.fold(own, message.payload)
                except PayloadError:
                    refused = message.payload
        elif isinstance(message, LedgerUpdate):
            return _ProbeState(delivered, responses + (None,), True, own, refused)
        elif pending and isinstance(message.output, ScalarOutput):
            responses = responses[:-1] + (message.output.value,)
        return _ProbeState(delivered, responses, False, own, refused)

    def decide(self, state: _ProbeState) -> Optional[UpdatePayload]:
        if not state.delivered:
            return None  # no own data to withhold yet
        responses = state.responses
        if not responses:
            return _PROBE_ZERO
        if len(responses) == 1:
            (first,) = responses
            if first is None:
                return None
            return _PROBE_ZERO if first != 0 else _PROBE_ONE
        return None


# The probe attack's one fold object, and so its memo key.
_PROBE = _ProbeFold()


def average_double_probe() -> Strategy:
    """Withhold own data and send two counting probes instead.

    The first probe adds the value 0. When the following broadcast is nonzero
    a second 0 pins the hidden count; a zero broadcast already reveals the
    hidden sum is 0, so the second probe adds a 1 to keep the count readable.
    """
    return _PROBE


def average_infer(
    a1: RationalLike,
    a2: RationalLike,
    own_sum: RationalLike,
    own_count: int,
) -> AverageInference:
    """Recover the hidden count and sum from the two probe responses.

    With a nonzero first response, a1 = S/(N+1) and a2 = S/(N+2) determine N
    and S directly. A zero first response means S = 0 and the second probe
    added a 1, so a2 = 1/(N+2). `own_count` must be a positive int.
    """
    check_count("own_count", own_count)
    first = rational(a1)
    second = rational(a2)
    if first == second:
        raise InferenceError(
            "equal probe responses cannot come from this probe schedule"
        )
    if first != 0:
        hidden_count = (first - 2 * second) / (second - first)
        hidden_sum = first * (hidden_count + 1)
    else:
        if second == 0:
            raise InferenceError("a zero response to the 1-probe is impossible")
        hidden_count = 1 / second - 2
        hidden_sum = Fraction(0)
    if hidden_count.denominator != 1 or hidden_count < 0:
        raise InferenceError(
            f"probe responses imply a non-integer hidden count {hidden_count}"
        )
    count = int(hidden_count)
    total = rational(own_sum) + hidden_sum
    return AverageInference(
        others_count=count,
        others_sum=hidden_sum,
        true_average=total / (own_count + count),
    )


def average_infer_from_history(o: ObservedHistory) -> AverageInference:
    """Decode a completed probing exchange straight from the observed history.

    The view is folded under `_PROBE`, the attack's own key, so the inference
    on a view of the finished run resumes the attack's walk, and the own sum
    and count are the average's fold of the own deliveries that walk keeps.
    """
    state = o.fold(_PROBE)
    first, second, *_ = state.responses + (None, None)
    if first is None or second is None:
        raise InferenceError("the probe exchange has not completed")
    if state.refused is not None:
        _AVERAGE.check(state.refused)  # raises the average's PayloadError
    own_sum, own_count = _AVERAGE.totals(state.own)
    if not own_count:
        raise InferenceError("no factual data to fold into the average")
    return average_infer(first, second, own_sum, own_count)


# =============================================================================
# Clustering: point-level omission and fabrication
# =============================================================================


def omit_point(point: Union[RationalLike, Sequence[RationalLike]]) -> Strategy:
    """Echo own factual point sets with one fixed point withheld."""
    target = PointSet((coerce_point(point),))

    def strategy(o: ObservedHistory) -> Optional[UpdatePayload]:
        last = o.last()
        if isinstance(last, FactualDelivery) and isinstance(last.payload, PointSet):
            remaining = payload_difference(last.payload, target)
            if isinstance(remaining, Empty):
                return None
            return remaining
        return truthful_strategy(o)

    return strategy


def _fabricate(payload: UpdatePayload) -> Strategy:
    """Replace every own factual payload of `payload`'s kind with `payload`."""

    def strategy(o: ObservedHistory) -> Optional[UpdatePayload]:
        last = o.last()
        if isinstance(last, FactualDelivery) and isinstance(last.payload, type(payload)):
            return payload
        return truthful_strategy(o)

    return strategy


def fabricate_point(point: Union[RationalLike, Sequence[RationalLike]]) -> Strategy:
    """Replace every own factual point set with one fixed fabricated point."""
    return _fabricate(PointSet((coerce_point(point),)))


def fabricate_rows(rows: RowMultiset) -> Strategy:
    """Replace every own factual row multiset with a fixed fabricated one."""
    if not isinstance(rows, RowMultiset):
        raise ParamError(f"rows must be a rows payload, got {type(rows).__name__}", "rows")
    return _fabricate(rows)


# =============================================================================
# Triangulation: probe the fit d+1 times, solve for the hidden moments
# =============================================================================


@dataclass(frozen=True)
class TriangulationState:
    """The in-flight probe ladder of an observed history.

    `rho_seq` holds the broadcast coefficient vectors from the trigger output
    onward (step i means i probe responses have arrived, so `rho_seq` has
    i + 1 entries), `probes` the row payloads sent so far, and `own` the
    walk's F - L as the ladder started (see `_LadderFold`), None while the
    agent had no own row.
    """

    step: int
    rho_seq: tuple[Optional[Point], ...]
    probes: tuple[tuple[Row, ...], ...]
    own: Optional[ScaledMoments]


class _LadderWalk(NamedTuple):
    ladder: Optional[TriangulationState]
    own: Optional[ScaledMoments]  # F - L over every own message seen
    last_coeffs: Optional[Point]
    sent: Optional[tuple[Row, ...]]  # the rows of the own update right before the next message


class _LadderFold:
    """The probe ladder of a view, folded message by message.

    A ladder starts at every fresh data event: an own factual delivery, or a
    broadcast that is not the immediate consequence of an own ledger update.
    A fresh event while a ladder is running abandons it and starts over, and
    no ladder can start before the first usable broadcast.

    It also keeps F - L, the moments of the own factual rows less those of the
    own ledger rows: each own message's rows go in or out as it is observed.
    F - L is None until the first own row, whose width it takes, and an own
    row of another width raises `PayloadError`.
    """

    def start(self) -> _LadderWalk:
        return _LadderWalk(None, None, None, None)

    def observe(self, walk: _LadderWalk, message: Message) -> _LadderWalk:
        ladder, own, last_coeffs, sent = walk
        if isinstance(message, OutputBroadcast):
            output = message.output
            last_coeffs = output.coefficients if isinstance(output, CoefficientsOutput) else None
            if sent is not None:
                # The running ladder's response to the probe `sent`.
                if ladder is not None:
                    ladder = TriangulationState(
                        ladder.step + 1,
                        ladder.rho_seq + (last_coeffs,),
                        ladder.probes + (sent,),
                        ladder.own,
                    )
                return _LadderWalk(ladder, own, last_coeffs, None)
        else:
            rows = message.payload.rows if isinstance(message.payload, RowMultiset) else ()
            if rows:
                own = moments((), rows[0].width) if own is None else own
                own = own.plus_rows(rows, 1 if isinstance(message, FactualDelivery) else -1)
            if isinstance(message, LedgerUpdate):
                return _LadderWalk(ladder, own, last_coeffs, rows)
        # A fresh event: start over at the last usable broadcast, if any.
        ladder = None if last_coeffs is None else TriangulationState(0, (last_coeffs,), (), own)
        return _LadderWalk(ladder, own, last_coeffs, None)


_LADDER = _LadderFold()


def triangulation_state(o: ObservedHistory) -> Optional[TriangulationState]:
    """The current probe ladder of an observed history (see `_LadderFold`)."""
    return o.fold(_LADDER).ladder


_ZERO, _ONE = Fraction(0), Fraction(1)


class _TriangulationFold(_LadderFold, StrategyFold):
    """The ladder walk and the attack's decision on it.

    The view is folded under `_LADDER`, the walk that `triangulation_state`
    reads, so the inference on a view of the finished run resumes the
    attack's walk from the memo the run keeps. `units` holds the d + 1
    probes at the zero fit (see `_probe_row`), built once per attack. An own
    row whose width is not d + 1 raises `PayloadError` at the poll that sees
    it, as F - L takes the width of the first own row.
    """

    def __init__(self, d: int):
        self.d = d
        self.units = _probe_units(d + 1)

    def __call__(self, view: ObservedHistory) -> Optional[UpdatePayload]:
        return self.decide(view.fold(_LADDER))

    def decide(self, walk: _LadderWalk) -> Optional[UpdatePayload]:
        ladder, d = walk.ladder, self.d
        width = d + 1
        if walk.own is not None and len(walk.own.cross) != width:
            raise PayloadError(f"row width {len(walk.own.cross)} does not match {width}")
        if ladder is None or None in ladder.rho_seq:
            return None
        current = ladder.rho_seq[-1]
        assert current is not None
        if len(current) != width:
            raise PayloadError(
                f"broadcast coefficients of width {len(current)} do not match "
                f"the width-{width} probes of triangulation_attack({d})"
            )
        if ladder.step <= d:
            return RowMultiset((_probe_row(self.units, ladder.step + 1, current),))
        if ladder.step == width:
            # An update the view ends on has no response yet: its rows are none of the ladder's.
            own = walk.own if walk.sent is None else walk.own.plus_rows(walk.sent)
            if any(own.residual(current)[1]):
                return None
            try:
                triangulation_infer(ladder, d)
            except InferenceError:
                return None
            # The intercept-only point, one above the fit there.
            return RowMultiset((_probe_row(self.units, 1, current),))
        return None


def _probe_units(width: int) -> tuple[Row, ...]:
    """The width ladder probes at the zero fit: step i's features are 1 at
    the intercept and at coordinate i - 1 (the intercept alone at step 1) and
    0 elsewhere, and its target is 1."""
    units = []
    for step in range(1, width + 1):
        features = [_ZERO] * width
        features[0] = features[step - 1] = _ONE
        units.append(Row._exact(tuple(features), _ONE))
    return tuple(units)


def _probe_row(units: tuple[Row, ...], step: int, previous: Point) -> Row:
    """The step-th ladder point: the features of `units[step - 1]` (see
    `_probe_units`), target one above the current fit `previous` there.

    The fit there is the sum of the one or two coefficients the features
    pick out. The row shares the unit's feature tuple and its integer form,
    so a probe builds neither; its target is computed here from the
    broadcast's `Fraction`s, so it is not checked again.
    """
    fit = previous[0] if step == 1 else previous[0] + previous[step - 1]
    return units[step - 1].with_target(fit + 1)


@dataclass(frozen=True)
class InferenceResult:
    """The recovered hidden moments and the truthful fit they imply.

    `sigma_matrix` is the ledger Gram block as it stood when the ladder
    started, so it still contains any rows the attacker itself had sent by
    then. `delta_matrix` has the fit's moves along the ladder as its
    columns; criterion 6 checks that both matrices are invertible.
    """

    sigma_matrix: RMatrix
    truth_output: AlgorithmOutput
    delta_matrix: RMatrix


def triangulation_infer(state: TriangulationState, d: int) -> InferenceResult:
    """Solve the probe responses for the hidden moments and the truthful fit.

    With Sigma, sigma the ledger moments when the ladder started, A_i, C_i
    those of the first i probes and rho_i the fit after them, the normal
    equations (Sigma + A_i) @ rho_i = sigma + C_i give Sigma @ rho_i - sigma
    = s_i, where s_i = C_i - A_i @ rho_i is minus the probes' residual at
    rho_i (s_0 = 0). So Sigma @ delta_i = r_i, the i-th response, with
    delta_i = rho_i - rho_(i-1) and r_i = s_i - s_(i-1): Sigma solves
    Delta^T @ Sigma^T = R^T, with the deltas and responses as the columns of
    Delta and R, and sigma = Sigma @ rho_0. The truthful moments are Sigma's
    record plus `state.own`, F - L as the ladder started, in one record sum.
    Each s_i is the probes' integer residual v_i over its scale, so each
    entry of r_i is one `Fraction`, v_(i-1) and v_i brought to the lcm of
    their scales and subtracted, over that lcm. Each entry returned is one
    `Fraction`.
    """
    width = d + 1
    if state.step < width:
        raise InferenceError(
            f"need {width} probe responses to solve a width-{width} system, "
            f"got {state.step}"
        )
    rho = state.rho_seq[: width + 1]
    if any(coeffs is None for coeffs in rho):
        raise InferenceError("a probe response was Null; the ledger fit vanished")
    # A_i, C_i for i = 0 .. d+1, and their residual at rho_i, -s_i as ints
    # over a scale; s_0 = 0.
    probes = accumulate(state.probes[:width], ScaledMoments.plus_rows, initial=moments((), width))
    residuals = [(1, (0,) * width)]
    residuals += map(ScaledMoments.residual, islice(probes, 1, None), rho[1:])
    response_columns = []
    for (previous_scale, previous), (scale, residual) in pairwise(residuals):
        common = lcm(previous_scale, scale)
        a, b = common // previous_scale, common // scale
        response_columns.append(
            tuple(Fraction(a * u - b * v, common) for u, v in zip(previous, residual))
        )
    delta_columns = [tuple(map(sub, b, a)) for a, b in zip(rho, rho[1:])]
    # The columns of Delta and R are the rows of Delta^T and R^T.
    sigma_transposed = RMatrix._exact(tuple(delta_columns)).solve(
        RMatrix._exact(tuple(response_columns))
    )
    if sigma_transposed is None:
        raise InferenceError(
            "the fit never moved along some direction; probe responses are dependent"
        )
    sigma_matrix = sigma_transposed.transpose()
    sigma_vector = sigma_matrix @ RMatrix._exact(tuple(zip(rho[0])))
    sigma = ScaledMoments.of(sigma_matrix.rows, sigma_vector.column_values())
    solution = (sigma if state.own is None else sigma.plus(state.own)).solve()
    if solution is None:
        raise InferenceError("the truthful data does not determine a unique fit")
    return InferenceResult(
        sigma_matrix=sigma_matrix,
        truth_output=CoefficientsOutput._exact(solution),
        delta_matrix=RMatrix._exact(tuple(zip(*delta_columns))),
    )


def triangulation_infer_from_history(o: ObservedHistory, d: int) -> InferenceResult:
    """Decode the most recent completed probe ladder from an observed history."""
    state = triangulation_state(o)
    if state is None:
        raise InferenceError("no probe ladder is visible in this history")
    return triangulation_infer(state, d)


def triangulation_attack(d: int) -> Strategy:
    """Probe the public fit d+1 times, then deflect when the truth is on show.

    Each probe is one labeled point placed exactly one unit off the current
    fit, so every response moves the coefficients. After d+1 responses the
    attack deflects, with one final off-fit point that pushes the public
    coefficients away, exactly when the truthful fit equals the current
    broadcast rho; otherwise the ladder ends silently.

    That test is one residual. With F, f the moments of the own factual rows
    and L, l those of the own ledger rows and every probe, the inferred fit x
    solves (Sigma + F - L_own) x = sigma + f - l_own, where Sigma @ rho - sigma
    = s_(d+1) (see `triangulation_infer`); so x = rho exactly when the
    residual of F - L at rho is zero. Only then does it run
    `triangulation_infer`, which still has to succeed for the attack to
    deflect. Its fold is the ladder walk, which keeps F - L, each row folded
    once, so the test refolds none. A broadcast whose coefficients, or an own
    row whose features, are not of width d+1 raises `PayloadError`.
    """
    return _TriangulationFold(check_count("d", d))


# =============================================================================
# Run classification: lying, omission, truthlike
# =============================================================================


class StrategyClass(enum.Enum):
    EXPLICITLY_LYING = "explicitly_lying"
    OMISSION = "omission"
    TRUTHLIKE = "truthlike"


def _payload_atoms(payload: UpdatePayload) -> frozenset:
    if isinstance(payload, Scalar):
        return frozenset((payload.value,))
    if isinstance(payload, PointSet):
        return frozenset(payload.points)
    if isinstance(payload, RowMultiset):
        return frozenset((row.features, row.target) for row in payload.rows)
    return frozenset()


def classify_strategy_run(
    run: Run, j: int, truth_run: Optional[Run] = None
) -> StrategyClass:
    """Classify agent j's behavior over a finished run.

    Explicitly lying means some sent point never appeared in j's factual data.
    Omission means the sent points are a strict subset of the factual ones and
    the run ends on a different output than the truthful replay; pass
    `truth_run` to check that second part, without it the strict subset alone
    counts. Everything else is truthlike. Payloads compare as sets, so sending
    one copy of a row received twice is truthlike even when it moves the fit:
    counting copies would call a harmless repeated scalar under `max` a lie.
    """
    sent: frozenset = frozenset()
    for payload in extract(run, KIND_LEDGER, j):
        sent = sent | _payload_atoms(payload)
    received: frozenset = frozenset()
    for payload in extract(run, KIND_FACTUAL, j):
        received = received | _payload_atoms(payload)
    if sent - received:
        return StrategyClass.EXPLICITLY_LYING
    if sent < received:
        if truth_run is None or run.final_output() != truth_run.final_output():
            return StrategyClass.OMISSION
    return StrategyClass.TRUTHLIKE


# =============================================================================
# Concrete attack parameters
# =============================================================================


def kcenter_sneak_params(k: int, eps: RationalLike) -> SneakParams:
    """Swap-and-repair parameters against k centers on the line.

    The watched payload is the spread set {1, 2, 10, ..., 10^(k-1)}. The swap
    sends only its 1 while the last broadcast still shows the tight cluster
    around 0, so the public centers keep hugging the cluster instead of
    tracking the spread set.
    """
    if check_count("k", k) < 3:
        raise ParamError(f"the construction needs k >= 3, got {k}", "k")
    epsilon = rational(eps)
    if not 0 < epsilon < Fraction(1, 4):
        raise ParamError(f"eps must lie strictly between 0 and 1/4, got {epsilon}", "eps")
    cond_values = [Fraction(1), Fraction(2)] + [
        Fraction(10) ** power for power in range(1, k)
    ]
    cluster = [-epsilon, Fraction(0)] + [
        epsilon / denom for denom in range(k - 2, 0, -1)
    ]
    u_cond = PointSet(tuple((v,) for v in cond_values))
    u_attack = PointSet(((Fraction(1),),))
    return SneakParams(
        u_cond=u_cond,
        rho_cond=CentersOutput(tuple((c,) for c in cluster)),
        u_attack=u_attack,
        u_resync=payload_difference(u_cond, u_attack),
    )


def lr_sneak_params() -> SneakParams:
    """Swap-and-repair parameters against the one-feature least-squares fit.

    The swapped-in row and the two repair rows are chosen so their moments sum
    to the watched payload's moments: once the repair lands, every later fit
    equals the truthful one and the swap leaves no trace in the outputs.
    """
    u_cond = RowMultiset((Row((1, 3), 1), Row((1, 0), 1), Row((1, 0), 1)))
    return SneakParams(
        u_cond=u_cond,
        rho_cond=CoefficientsOutput((1, 0)),
        u_attack=RowMultiset((Row((1, 2), 2),)),
        u_resync=RowMultiset((Row((1, 2), 0), Row((1, -1), 1))),
    )


# =============================================================================
# Strategy registry
# =============================================================================


def _makes_up(payload: UpdatePayload) -> Callable:
    return lambda params: (("name", payload),)


def _sends(*keys: str) -> Callable:
    return lambda params: tuple((f"params.{key}", params[key]) for key in keys)


# name -> (builder, {parameter: kind}, sends). A scenario file gives each
# parameter in the JSON form of its kind: rational, count, point, payload or
# output. `sends` maps the parameters to what the strategy can put on the
# ledger besides its echoes of nature's payloads, as (field, payload) pairs:
# a payload of each kind it makes up under "name", each parameter it sends
# under "params.<key>".
STRATEGIES: dict[str, tuple[Callable[..., Strategy], dict[str, str], Callable]] = {
    "truthful": (lambda: truthful_strategy, {}, _sends()),
    "max_echo": (max_echo_attack, {}, _makes_up(Scalar(0))),
    "max_overbid": (max_overbid, {"value": "rational"}, _makes_up(Scalar(0))),
    "average_probe": (average_double_probe, {}, _makes_up(_PROBE_ZERO)),
    "kcenter_sneak": (
        lambda k, eps: sneak_attack(kcenter_sneak_params(k, eps)),
        {"k": "count", "eps": "rational"},
        _makes_up(PointSet(((1,),))),
    ),
    "lr_sneak": (
        lambda: sneak_attack(lr_sneak_params()), {}, _makes_up(lr_sneak_params().u_attack)
    ),
    # Its probe rows have width d + 1; the first probe at the zero fit stands for them.
    "triangulation": (
        triangulation_attack,
        {"d": "count"},
        lambda params: (("params.d", RowMultiset(_probe_units(params["d"] + 1)[:1])),),
    ),
    "sneak": (
        lambda **params: sneak_attack(SneakParams(**params)),
        {"u_cond": "payload", "rho_cond": "output", "u_attack": "payload", "u_resync": "payload"},
        _sends("u_attack", "u_resync"),
    ),
    # The point is only compared with the agent's own data.
    "omit_point": (omit_point, {"point": "point"}, _sends()),
    "fabricate_point": (
        fabricate_point,
        {"point": "point"},
        lambda params: (("params.point", PointSet((coerce_point(params["point"]),))),),
    ),
    "fabricate_rows": (fabricate_rows, {"rows": "payload"}, _sends("rows")),
}


def make_strategy(name: str, params: Optional[Mapping[str, object]] = None) -> Strategy:
    """Build a named strategy from a parameter mapping, as scenario files do."""
    return build_named("strategy", STRATEGIES, name, params, f"strategy '{name}'")
