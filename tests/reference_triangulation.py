"""Probe-ladder inference over `Fraction` matrices: the oracle for `triangulation_infer`.

This is how `strategies.triangulation_infer` computed before it moved to
integer moments: `Fraction` moments per probe (`reference_moments`), the responses through
`RMatrix` products, and Sigma as the response matrix times the inverse of the
delta matrix. The differential tests in `test_strategies.py` compare the two
field by field, including the `InferenceError` raised. `reference_probe_row`
is the probe rule as a dot product of the features with the current fit, the
oracle for `strategies._probe_row`.

`reference_triangulation_state` is the ladder rebuild as it stood before
`strategies.triangulation_state` became one forward walk with a single
ladder-start rule: it looks back one item by index to tell a probe response
from a fresh broadcast, and spells out the start rule once for an own factual
delivery and once for a fresh broadcast. It returns a `ReferenceLadder`,
which keeps the attacker's own rows as the two tuples `TriangulationState`
held before the walk folded them into F - L, and `reference_triangulation_infer`
takes that record.

`reference_triangulation_attack` is the attack as it decided before
`strategies.triangulation_attack` tested one residual: it runs the full
inference on every completed ladder and deflects when the inferred truthful
fit equals the current broadcast. It reads the ladder, the probe rows and the
inference through the oracles above, so it shares no code with the attack it
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from exclusim.algorithms import CoefficientsOutput, Point, Row, RowMultiset, UpdatePayload
from exclusim.numerics import RMatrix
from exclusim.protocol import FactualDelivery, LedgerUpdate, ObservedHistory, Strategy
from exclusim.strategies import InferenceError, InferenceResult
from reference_aggregations import reference_moments
from reference_linalg import add, column, sub, zeros


def reference_probe_row(step: int, previous: Point) -> Row:
    """The step-th ladder point: unit features, target one above the current fit."""
    width = len(previous)
    features = tuple(
        Fraction(1) if c == 0 or c == step - 1 else Fraction(0) for c in range(width)
    )
    target = sum((f * p for f, p in zip(features, previous)), Fraction(0)) + 1
    return Row(features, target)


@dataclass(frozen=True)
class ReferenceLadder:
    """The in-flight probe ladder with its own rows spelled out.

    `step`, `rho_seq` and `probes` are `TriangulationState`'s; the two row
    tuples are what the agent had put on the ledger before the ladder
    started and what it has received as factual data.
    """

    step: int
    rho_seq: tuple[Optional[Point], ...]
    probes: tuple[tuple[Row, ...], ...]
    own_ledger_rows: tuple[Row, ...]
    own_factual_rows: tuple[Row, ...]


def reference_triangulation_infer(state: ReferenceLadder, d: int) -> InferenceResult:
    """Solve the probe responses for the hidden moments and the truthful fit."""
    width = d + 1
    if state.step < width:
        raise InferenceError(
            f"need {width} probe responses to solve a width-{width} system, "
            f"got {state.step}"
        )
    rho = state.rho_seq[: width + 1]
    if any(coeffs is None for coeffs in rho):
        raise InferenceError("a probe response was Null; the ledger fit vanished")
    delta_columns: list[tuple[Fraction, ...]] = []
    response_columns: list[tuple[Fraction, ...]] = []
    accumulated = zeros(width, width)
    for i in range(1, width + 1):
        step_moments = reference_moments(state.probes[i - 1], width)
        rho_i = column(rho[i])
        delta = sub(rho_i, column(rho[i - 1]))
        response = sub(sub(step_moments.cross, step_moments.gram @ rho_i), accumulated @ delta)
        delta_columns.append(delta.column_values())
        response_columns.append(response.column_values())
        accumulated = add(accumulated, step_moments.gram)
    delta_matrix = RMatrix(zip(*delta_columns))
    response_matrix = RMatrix(zip(*response_columns))
    delta_inverse = delta_matrix.inverse()
    if delta_inverse is None:
        raise InferenceError(
            "the fit never moved along some direction; probe responses are dependent"
        )
    sigma_matrix = response_matrix @ delta_inverse
    sigma_vector = sigma_matrix @ column(rho[0])
    own_ledger = reference_moments(state.own_ledger_rows, width)
    own_factual = reference_moments(state.own_factual_rows, width)
    truth_gram = add(sub(sigma_matrix, own_ledger.gram), own_factual.gram)
    truth_cross = add(sub(sigma_vector, own_ledger.cross), own_factual.cross)
    solution = truth_gram.solve(truth_cross)
    if solution is None:
        raise InferenceError("the truthful data does not determine a unique fit")
    return InferenceResult(
        sigma_matrix=sigma_matrix,
        truth_output=CoefficientsOutput(solution.column_values()),
        delta_matrix=delta_matrix,
    )


def reference_triangulation_state(o: ObservedHistory) -> Optional[ReferenceLadder]:
    """Rebuild the current probe ladder by index, copying the prior own rows at each start.

    A ladder starts at every fresh data event: an own factual delivery, or a
    broadcast that is not the immediate consequence of an own ledger update.
    A fresh event while a ladder is running abandons it and starts over, and
    no ladder can start before the first usable broadcast.
    """
    items = o.items
    own_factual_rows: list[Row] = []
    own_ledger_rows: list[Row] = []
    last_coeffs: Optional[Point] = None
    active = False
    ladder_rho: list[Optional[Point]] = []
    ladder_probes: list[tuple[Row, ...]] = []
    ladder_prior_ledger: tuple[Row, ...] = ()

    for t, item in enumerate(items):
        if isinstance(item, FactualDelivery):
            if isinstance(item.payload, RowMultiset):
                own_factual_rows.extend(item.payload.rows)
            if last_coeffs is None:
                active = False
            else:
                active = True
                ladder_rho = [last_coeffs]
                ladder_probes = []
                ladder_prior_ledger = tuple(own_ledger_rows)
        elif isinstance(item, LedgerUpdate):
            if isinstance(item.payload, RowMultiset):
                own_ledger_rows.extend(item.payload.rows)
        else:
            coeffs = (
                item.output.coefficients
                if isinstance(item.output, CoefficientsOutput)
                else None
            )
            follows_own_update = t > 0 and isinstance(items[t - 1], LedgerUpdate)
            if follows_own_update:
                if active:
                    sent = items[t - 1].payload
                    ladder_probes.append(
                        sent.rows if isinstance(sent, RowMultiset) else ()
                    )
                    ladder_rho.append(coeffs)
                last_coeffs = coeffs
            else:
                last_coeffs = coeffs
                if coeffs is None:
                    active = False
                else:
                    active = True
                    ladder_rho = [coeffs]
                    ladder_probes = []
                    ladder_prior_ledger = tuple(own_ledger_rows)

    if not active:
        return None
    return ReferenceLadder(
        step=len(ladder_probes),
        rho_seq=tuple(ladder_rho),
        probes=tuple(ladder_probes),
        own_ledger_rows=ladder_prior_ledger,
        own_factual_rows=tuple(own_factual_rows),
    )


def reference_triangulation_attack(d: int) -> Strategy:
    """Probe the public fit d+1 times, infer the truthful fit, and deflect
    when it equals the current broadcast."""

    def strategy(o: ObservedHistory) -> Optional[UpdatePayload]:
        state = reference_triangulation_state(o)
        if state is None:
            return None
        if any(coeffs is None for coeffs in state.rho_seq):
            return None
        if state.step <= d:
            previous = state.rho_seq[-1]
            assert previous is not None
            return RowMultiset((reference_probe_row(state.step + 1, previous),))
        if state.step == d + 1:
            try:
                result = reference_triangulation_infer(state, d)
            except InferenceError:
                return None
            current = state.rho_seq[-1]
            truth = result.truth_output
            if isinstance(truth, CoefficientsOutput) and truth.coefficients == current:
                assert current is not None
                deflection = Row((Fraction(1),) + (Fraction(0),) * d, current[0] + 1)
                return RowMultiset((deflection,))
        return None

    return strategy
