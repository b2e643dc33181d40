"""The sneak and probe attacks as they decided before they became folds: the
oracles for `strategies.sneak_attack` and `strategies.average_double_probe`.

Each strategy here rebuilds what it needs from the whole view at every poll.
`reference_sneak_attack` scans every triple of the view's items for the first
swap signature, and `reference_average_double_probe` collects the agent's own
factual deliveries and the broadcast behind each of its ledger updates, as
`reference_average_infer_from_history` does to decode them. The differential
tests in `test_strategies.py` compare them with the folds, and with
`strategies.average_infer_from_history`, on every prefix of generated runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from exclusim.algorithms import (
    AverageAlgorithm,
    PointSet,
    ScalarOutput,
    UpdatePayload,
    payload_union,
)
from exclusim.protocol import (
    FactualDelivery,
    LedgerUpdate,
    Message,
    ObservedHistory,
    OutputBroadcast,
    Strategy,
    truthful_strategy,
)
from exclusim.strategies import AverageInference, InferenceError, SneakParams, average_infer

_PROBE_ZERO = PointSet(((0,),))
_PROBE_ONE = PointSet(((1,),))


def _sneak_start(items: Sequence[Message], params: SneakParams) -> Optional[int]:
    """Index of the broadcast that completes the first swap signature, if any."""
    for t in range(len(items) - 2):
        first, second, third = items[t : t + 3]
        if (
            isinstance(first, FactualDelivery)
            and first.payload == params.u_cond
            and isinstance(second, LedgerUpdate)
            and second.payload == params.u_attack
            and isinstance(third, OutputBroadcast)
        ):
            return t + 2
    return None


def reference_sneak_attack(params: SneakParams) -> Strategy:
    """The three-branch swap-then-repair strategy, from the whole view."""

    def strategy(o: ObservedHistory) -> Optional[UpdatePayload]:
        start = _sneak_start(o.items, params)
        if start is None:
            last = o.last()
            if (
                isinstance(last, FactualDelivery)
                and last.payload == params.u_cond
                and o.last_broadcast() == params.rho_cond
            ):
                return params.u_attack
            return truthful_strategy(o)
        if len(o.items) == start + 2:
            last = o.last()
            if isinstance(last, FactualDelivery):
                return payload_union(last.payload, params.u_resync)
            if isinstance(last, OutputBroadcast):
                return params.u_resync
        return truthful_strategy(o)

    return strategy


def _probe_responses(o: ObservedHistory) -> list[Optional[Fraction]]:
    """The scalar broadcast value right behind each of the agent's ledger
    updates, or None where anything else, or nothing yet, follows one."""
    items = o.items
    return [
        follower.output.value
        if isinstance(follower, OutputBroadcast) and isinstance(follower.output, ScalarOutput)
        else None
        for item, follower in zip(items, (*items[1:], None))
        if isinstance(item, LedgerUpdate)
    ]


def _own_factuals(o: ObservedHistory) -> list[UpdatePayload]:
    return [m.payload for m in o.items if isinstance(m, FactualDelivery)]


def reference_average_double_probe() -> Strategy:
    """Withhold own data and send two counting probes instead, from the whole view."""

    def strategy(o: ObservedHistory) -> Optional[UpdatePayload]:
        if not _own_factuals(o):
            return truthful_strategy(o)
        responses = _probe_responses(o)
        if not responses:
            return _PROBE_ZERO
        if len(responses) == 1:
            (first,) = responses
            if first is None:
                return None
            return _PROBE_ZERO if first != 0 else _PROBE_ONE
        return None

    return strategy


def reference_average_infer_from_history(o: ObservedHistory) -> AverageInference:
    """Decode a completed probing exchange from the whole view."""
    first, second, *_ = _probe_responses(o) + [None, None]
    if first is None or second is None:
        raise InferenceError("the probe exchange has not completed")
    # `check` refuses what the average's fold refuses, with its message.
    check = AverageAlgorithm().check
    own = [p[0] for payload in _own_factuals(o) if check(payload) for p in payload.points]
    if not own:
        raise InferenceError("no factual data to fold into the average")
    return average_infer(first, second, sum(own, Fraction(0)), len(own))
