"""The continuous and periodic message-passing engines."""

from __future__ import annotations

import dataclasses
import random
import time
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from exclusim.algorithms import (
    NORM_INF,
    AverageAlgorithm,
    DlrAlgorithm,
    Empty,
    KCenterAlgorithm,
    KMedianAlgorithm,
    MaxAlgorithm,
    NullOutput,
    PayloadError,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
)
from exclusim.harness import (
    check_condition_i,
    kcenter_periodic_scenario,
    lr_periodic_scenario,
    make_average_cases,
    make_max_cases,
    make_triangulation_cases,
)
from exclusim.protocol import (
    FactualDelivery,
    InputError,
    KIND_FACTUAL,
    KIND_LEDGER,
    LedgerUpdate,
    NatureElement,
    ObservedHistory,
    OutputBroadcast,
    SAFETY_CAP,
    SafetyCapExceededError,
    broadcast_pairing_ok,
    ell_guard_respected,
    extract,
    observed_history,
    replay_matches,
    run_protocol,
    truthful_strategy,
    validate_run,
)
from exclusim.strategies import (
    _LADDER,
    average_double_probe,
    fabricate_point,
    fabricate_rows,
    lr_sneak_params,
    max_echo_attack,
    max_overbid,
    omit_point,
    sneak_attack,
    triangulation_attack,
)
from reference_aggregations import CountingLog, broadcasts, outcome, reference_run


def _scalar_input(*pairs) -> tuple[NatureElement, ...]:
    return tuple(NatureElement(agent, Scalar(Fraction(v))) for agent, v in pairs)


def _rounds_input(*triples) -> tuple[NatureElement, ...]:
    return tuple(
        NatureElement(agent, Scalar(Fraction(v)), r) for agent, v, r in triples
    )


def _always_bid(value):
    bid = Scalar(Fraction(value))

    def strategy(o):
        return bid

    return strategy


# =============================================================================
# continuous engine
# =============================================================================


def test_truthful_continuous_run_shape():
    run = run_protocol(
        "continuous", _scalar_input((1, 5), (2, 7)), {}, MaxAlgorithm(), 2, ell=1
    )
    kinds = [type(m).__name__ for m in run.messages]
    assert kinds == [
        "FactualDelivery",
        "LedgerUpdate",
        "OutputBroadcast",
        "FactualDelivery",
        "LedgerUpdate",
        "OutputBroadcast",
    ]
    assert run.final_output() == ScalarOutput(Fraction(7))


def test_every_ledger_update_is_followed_by_a_broadcast():
    run = run_protocol(
        "continuous",
        _scalar_input((1, 5), (2, 7), (1, 3)),
        {2: _always_bid(10)},
        MaxAlgorithm(),
        2,
        ell=2,
    )
    assert broadcast_pairing_ok(run)


def test_ell_guard_blocks_repeat_author():
    # A strategy that always wants to update gets exactly ell turns in a row.
    run = run_protocol(
        "continuous", _scalar_input((1, 5)), {2: _always_bid(9)}, MaxAlgorithm(), 2, ell=1
    )
    authors = [m.agent for m in run.messages if isinstance(m, LedgerUpdate)]
    assert authors == [1, 2]
    assert ell_guard_respected(run)


def test_ell_guard_allows_window_of_two():
    run = run_protocol(
        "continuous", _scalar_input((1, 5)), {2: _always_bid(9)}, MaxAlgorithm(), 2, ell=2
    )
    authors = [m.agent for m in run.messages if isinstance(m, LedgerUpdate)]
    assert authors == [1, 2, 2]
    assert ell_guard_respected(run)


def test_guard_applies_with_empty_prior_ledger():
    # No prior updates at all: the guard cannot have been tripped yet.
    run = run_protocol(
        "continuous", _scalar_input((1, 5)), {}, MaxAlgorithm(), 1, ell=1
    )
    assert extract(run, KIND_LEDGER, 1) == (Scalar(Fraction(5)),)


def test_consecutive_elements_same_agent_suppressed_at_ell_one():
    # The second truthful echo would be a second consecutive update by the
    # same author, so at ell=1 it is silently dropped.
    run = run_protocol(
        "continuous", _scalar_input((2, 90), (2, 100)), {}, MaxAlgorithm(), 2, ell=1
    )
    assert extract(run, KIND_LEDGER) == (Scalar(Fraction(90)),)
    assert run.final_output() == ScalarOutput(Fraction(90))


def test_safety_cap_stops_runaway_loop(monkeypatch):
    def chatty(o):
        return Scalar(Fraction(len(o.items)))

    monkeypatch.setattr("exclusim.protocol.SAFETY_CAP", 50)
    with pytest.raises(SafetyCapExceededError, match="exceeded 50 polling passes"):
        run_protocol(
            "continuous",
            _scalar_input((2, 1)),
            {1: chatty, 2: chatty},
            MaxAlgorithm(),
            2,
            ell=1,
        )


def test_two_triangulation_probers_end_at_the_cap_naming_both():
    # Each prober takes the other's probe broadcasts for fresh data and
    # restarts its ladder, so neither goes quiet. The cap counts passes; at
    # d = 1 it ends the element within a second and names who kept writing.
    rows = RowMultiset((Row((1, 0), 1), Row((1, 1), 2), Row((1, 3), 2)))
    probers = {2: triangulation_attack(1), 3: triangulation_attack(1)}
    start = time.monotonic()
    with pytest.raises(SafetyCapExceededError) as raised:
        run_protocol("continuous", (NatureElement(1, rows),), probers, DlrAlgorithm(1), 3, ell=3)
    assert time.monotonic() - start < 1
    assert str(raised.value) == (
        f"activity loop exceeded {SAFETY_CAP} polling passes for one nature element; "
        f"its ledger updates came from agents 1 (1), 2 ({SAFETY_CAP}), 3 ({SAFETY_CAP})"
    )


def test_two_agents_with_one_fold_object_keep_separate_states(monkeypatch):
    # The probers of the test above, sharing one strategy object: each
    # agent's memo holds its own walk under the shared `_LADDER` key, which
    # equals its view folded afresh.
    monkeypatch.setattr("exclusim.protocol.SAFETY_CAP", 20)
    rows = RowMultiset((Row((1, 0), 1), Row((1, 1), 2), Row((1, 3), 2)))
    prober = triangulation_attack(1)
    memos = {}

    def checked(o):
        wish = prober(o)
        memos.setdefault(o.agent, set()).add(id(o.memo))
        assert o.memo[_LADDER] == (o.length, ObservedHistory(o.agent, o.log, o.length).fold(_LADDER))
        return wish

    def cap_message(probers):
        with pytest.raises(SafetyCapExceededError) as raised:
            run_protocol("continuous", (NatureElement(1, rows),), probers, DlrAlgorithm(1), 3, ell=3)
        return str(raised.value)

    shared = cap_message({2: checked, 3: checked})
    assert shared == cap_message({2: triangulation_attack(1), 3: triangulation_attack(1)})
    assert len(memos[2]) == len(memos[3]) == 1 and memos[2] != memos[3]


def test_continuous_rejects_rounds_and_bad_agents():
    with pytest.raises(InputError):
        run_protocol(
            "continuous", _rounds_input((1, 5, 1)), {}, MaxAlgorithm(), 2, ell=1
        )
    with pytest.raises(InputError):
        run_protocol(
            "continuous", _scalar_input((3, 5)), {}, MaxAlgorithm(), 2, ell=1
        )
    with pytest.raises(InputError):
        run_protocol("continuous", (), {}, MaxAlgorithm(), 2)


# Runs that break one rule each: (protocol, nature input, ell, attacker, path).
_REFUSED_RUNS = {
    "periodic_ell": ("periodic", _rounds_input((1, 5, 1)), 1, 2, "ell"),
    "strategy_for_agent_3_of_2": ("continuous", _scalar_input((1, 5)), 1, 3, "strategies.3"),
    "unknown_protocol": ("rounds", _scalar_input((1, 5)), 1, 2, "protocol"),
    "ell_zero": ("continuous", _scalar_input((1, 5)), 0, 2, "ell"),
    "ell_none": ("continuous", _scalar_input((1, 5)), None, 2, "ell"),
    "element_agent_3_of_2": (
        "continuous", _scalar_input((1, 5), (3, 7)), 1, 2, "nature_input[1].agent"
    ),
}


@pytest.mark.parametrize(
    "protocol, ninput, ell, j, path", _REFUSED_RUNS.values(), ids=list(_REFUSED_RUNS)
)
def test_engines_refuse_a_run_that_breaks_a_rule(protocol, ninput, ell, j, path):
    # Two agents, agent j attacking: nothing runs, and the error names the field.
    with pytest.raises(InputError) as info:
        run_protocol(protocol, ninput, {j: max_echo_attack()}, MaxAlgorithm(), 2, ell=ell)
    assert info.value.path == path
    with pytest.raises(InputError) as info:
        check_condition_i(
            MaxAlgorithm(), max_echo_attack(), j, ninput,
            ell=ell, protocol=protocol, agent_count=2,
        )
    assert info.value.path == path


# Runs that give one value of the wrong type:
# (protocol, nature input, strategies, agent count, ell, path).
_MISTYPED_RUNS = {
    "ell_float": ("continuous", _scalar_input((1, 5)), {}, 2, 1.5, "ell"),
    "ell_bool": ("continuous", _scalar_input((1, 5)), {}, 2, True, "ell"),
    "agents_bool": ("continuous", _scalar_input((1, 5)), {}, True, 1, "agents"),
    "strategy_key_str": (
        "continuous", _scalar_input((1, 5)), {"2": max_echo_attack()}, 2, 1, "strategies.2"
    ),
    "round_float": ("periodic", _rounds_input((1, 5, 1.0)), {}, 2, None, "nature_input[0].round"),
    "round_bool": ("periodic", _rounds_input((1, 5, True)), {}, 2, None, "nature_input[0].round"),
    "element_agent_bool": (
        "continuous", _scalar_input((True, 5)), {}, 2, 1, "nature_input[0].agent"
    ),
}


@pytest.mark.parametrize(
    "protocol, ninput, strategies, agent_count, ell, path",
    _MISTYPED_RUNS.values(),
    ids=list(_MISTYPED_RUNS),
)
def test_engines_refuse_a_value_of_the_wrong_type(
    protocol, ninput, strategies, agent_count, ell, path
):
    # Each of these used to run, or to fail with a bare TypeError.
    with pytest.raises(InputError, match="^expected an integer, got ") as info:
        run_protocol(protocol, ninput, strategies, MaxAlgorithm(), agent_count, ell=ell)
    assert info.value.path == path


# =============================================================================
# periodic engine
# =============================================================================


def test_periodic_round_shape():
    run = run_protocol(
        "periodic", _rounds_input((1, 90, 1), (2, 90, 1)), {}, MaxAlgorithm(), 2
    )
    kinds = [type(m).__name__ for m in run.messages]
    assert kinds == [
        "FactualDelivery",
        "FactualDelivery",
        "LedgerUpdate",
        "LedgerUpdate",
        "OutputBroadcast",
    ]


def test_periodic_empty_round_still_broadcasts():
    run = run_protocol(
        "periodic", _rounds_input((1, 5, 1), (2, 7, 3)), {}, MaxAlgorithm(), 2
    )
    broadcasts = [m for m in run.messages if isinstance(m, OutputBroadcast)]
    assert len(broadcasts) == 3
    assert broadcasts[1].output == ScalarOutput(Fraction(5))
    assert run.final_output() == ScalarOutput(Fraction(7))


def test_periodic_empty_input_is_empty_run():
    run = run_protocol("periodic", (), {}, MaxAlgorithm(), 2)
    assert run.messages == ()
    assert run.final_output() is None


def test_periodic_null_broadcast_when_no_updates():
    def silent(o):
        return None

    run = run_protocol(
        "periodic", _rounds_input((1, 5, 1)), {1: silent}, MaxAlgorithm(), 2
    )
    assert run.final_output() == NullOutput()


def test_periodic_validation_rules():
    for ninput, path in (
        (_rounds_input((1, 5, 2), (2, 7, 1)), "nature_input[0].round"),
        (_rounds_input((1, 5, 0)), "nature_input[0].round"),
        (_rounds_input((1, 5, 1), (1, 7, 1)), "nature_input[1]"),
        (_scalar_input((1, 5)), "nature_input[0].round"),
    ):
        with pytest.raises(InputError) as info:
            validate_run("periodic", None, 2, (), ninput)
        assert info.value.path == path


def test_periodic_one_poll_no_guard():
    # In rounds there is no update window: the same agent may update every round.
    run = run_protocol(
        "periodic", _rounds_input((1, 5, 1), (1, 7, 2), (1, 9, 3)), {}, MaxAlgorithm(), 1
    )
    authors = [m.agent for m in run.messages if isinstance(m, LedgerUpdate)]
    assert authors == [1, 1, 1]


# =============================================================================
# observed histories and replay
# =============================================================================


def test_observed_history_projects_own_messages_and_broadcasts():
    run = run_protocol(
        "continuous", _scalar_input((1, 5), (2, 7)), {}, MaxAlgorithm(), 2, ell=1
    )
    view = observed_history(run, 2)
    kinds = [type(m).__name__ for m in view.items]
    assert kinds == [
        "OutputBroadcast",
        "FactualDelivery",
        "LedgerUpdate",
        "OutputBroadcast",
    ]
    assert all(
        m.agent == 2 for m in view.items if isinstance(m, (FactualDelivery, LedgerUpdate))
    )


def test_observed_history_stays_frozen_with_its_fields_and_repr():
    log = run_protocol("continuous", _scalar_input((1, 5), (2, 7)), {}, MaxAlgorithm(), 2, ell=1).messages
    view, memo = ObservedHistory(2, log, 2), {}
    assert (view.agent, view.log, view.length, view.memo) == (2, log, 2, None)
    assert ObservedHistory(2, log, 2, memo).memo is memo
    assert repr(view) == "ObservedHistory(agent=2, length=2)"
    assert [f.name for f in dataclasses.fields(ObservedHistory)] == ["agent", "log", "length", "memo"]
    for name, value in (("agent", 1), ("log", ()), ("length", 0), ("memo", memo), ("items", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(view, name, value)
    assert view.items is view.items
    assert (view.agent, view.length, view.memo) == (2, 2, None)


def _visible(messages, agent):
    return tuple(
        m for m in messages if isinstance(m, OutputBroadcast) or m.agent == agent
    )


def test_observed_history_is_a_prefix_view_with_slice_semantics():
    run = run_protocol(
        "continuous",
        _scalar_input((1, 5), (3, 9), (2, 7), (1, 2)),
        {2: max_echo_attack()},
        MaxAlgorithm(),
        3,
        ell=1,
    )
    size = len(run.messages)
    for upto in [None, *range(-size - 2, size + 3)]:
        for agent in (1, 2, 3):
            view = observed_history(run, agent, upto=upto)
            expected = _visible(run.messages[:upto], agent)
            assert view.log is run.messages
            assert view.items == expected
            other = ObservedHistory(agent, expected, len(expected))
            assert (view.agent, view.items) == (other.agent, other.items)
            assert view.last() == (expected[-1] if expected else None)
            outputs = [m.output for m in expected if isinstance(m, OutputBroadcast)]
            assert view.last_broadcast() == (outputs[-1] if outputs else None)
    # Before the first element reaches agent 2 it has seen only broadcasts,
    # as agent 3 has.
    assert observed_history(run, 2, upto=3).items == observed_history(run, 3, upto=3).items


def test_engines_poll_views_of_one_log():
    for protocol, ninput, ell in (
        ("continuous", _scalar_input((1, 5), (2, 7), (1, 2)), 1),
        ("periodic", (NatureElement(1, Scalar(5), 1), NatureElement(2, Scalar(7), 2)), None),
    ):
        polled = []

        def spy(o):
            polled.append(o)
            return truthful_strategy(o)

        run = run_protocol(protocol, ninput, {1: spy, 2: spy}, MaxAlgorithm(), 2, ell=ell)
        assert len({id(o.log) for o in polled}) == 1
        # Every view still reads the prefix it was polled with.
        for o in polled:
            assert o.items == _visible(run.messages[: o.length], o.agent)


def test_truthful_strategy_fires_only_on_own_fresh_factual():
    run = run_protocol(
        "continuous", _scalar_input((1, 5)), {}, MaxAlgorithm(), 2, ell=1
    )
    after_factual = observed_history(run, 1, upto=1)
    assert truthful_strategy(after_factual) == Scalar(Fraction(5))
    after_broadcast = observed_history(run, 1)
    assert truthful_strategy(after_broadcast) is None


def test_replay_matches_truthful_run():
    run = run_protocol(
        "continuous", _scalar_input((1, 5), (2, 7), (1, 2)), {}, MaxAlgorithm(), 2, ell=1
    )
    assert replay_matches(run, {})


def test_determinism_identical_transcripts():
    ninput = _scalar_input((1, 5), (2, 7), (1, 2))
    first = run_protocol("continuous", ninput, {}, MaxAlgorithm(), 2, ell=1)
    for _ in range(3):
        again = run_protocol("continuous", ninput, {}, MaxAlgorithm(), 2, ell=1)
        assert again.messages == first.messages


def test_extract_filters_by_kind_and_agent():
    run = run_protocol(
        "continuous", _scalar_input((1, 5), (2, 7)), {}, MaxAlgorithm(), 2, ell=1
    )
    assert extract(run, KIND_FACTUAL, 1) == (Scalar(Fraction(5)),)
    assert extract(run, KIND_LEDGER) == (Scalar(Fraction(5)), Scalar(Fraction(7)))


def test_extract_refuses_other_kinds():
    # The kinds are the message classes; a string name or another class is refused.
    run = run_protocol("continuous", _scalar_input((1, 5)), {}, MaxAlgorithm(), 1, ell=1)
    for kind in ("ledger", "factual", OutputBroadcast):
        with pytest.raises(InputError, match="^extract kind must be LedgerUpdate or "):
            extract(run, kind)


def test_payload_kind_mismatch_propagates():
    # A points payload on a scalar algorithm is a scenario bug, not a
    # legitimate empty-ledger state, so the engine does not mask it.
    ninput = (NatureElement(1, PointSet(((Fraction(1),), (Fraction(2),)))),)
    with pytest.raises(PayloadError):
        run_protocol("continuous", ninput, {}, MaxAlgorithm(), 1, ell=1)


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3), st.integers(min_value=-50, max_value=50)
        ),
        min_size=1,
        max_size=6,
    ),
    ell=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=80, deadline=None)
def test_truthful_runs_satisfy_engine_invariants(pairs, ell):
    ninput = _scalar_input(*pairs)
    run = run_protocol("continuous", ninput, {}, MaxAlgorithm(), 3, ell=ell)
    assert ell_guard_respected(run)
    assert broadcast_pairing_ok(run)
    assert replay_matches(run, {})
    values = [v for _, v in pairs]
    final = run.final_output()
    # The final broadcast, when present, is the max over the echoed prefix.
    if final is not None:
        assert isinstance(final, ScalarOutput)
        assert final.value <= max(values)


# =============================================================================
# the folding engines against the from-scratch reference engine
# =============================================================================


def _assert_matches_reference(protocol, ninput, strategies, algorithm, agent_count, ell=None):
    got = outcome(run_protocol, protocol, ninput, strategies, algorithm, agent_count, ell=ell)
    want = outcome(
        reference_run, protocol, ninput, strategies, algorithm, agent_count,
        ell=ell, safety_cap=SAFETY_CAP,
    )
    assert (got if isinstance(got, type) else got.messages) == want


_value = st.integers(min_value=-4, max_value=4).map(Fraction)


_point_payloads = st.lists(st.tuples(_value), min_size=1, max_size=3, unique=True).map(PointSet)


def _row_payloads(width: int):
    row = st.tuples(st.tuples(*[_value] * (width - 1)), _value).map(
        lambda pair: Row((1,) + pair[0], pair[1])
    )
    return st.lists(row, min_size=1, max_size=3).map(RowMultiset)


@st.composite
def _generated_runs(draw):
    """An algorithm, a strategy table, and a nature input of its payload kind."""
    kind = draw(st.sampled_from(("max", "average", "kcenter", "kmedian", "dlr")))
    attacker = 2
    if kind == "max":
        algorithm, payload = MaxAlgorithm(), _value.map(Scalar)
        attack = draw(st.sampled_from((None, "echo", "overbid")))
        attacks = {"echo": max_echo_attack, "overbid": lambda: max_overbid(draw(_value))}
    elif kind == "average":
        algorithm, payload = AverageAlgorithm(), _point_payloads
        attack = draw(st.sampled_from((None, "probe")))
        attacks = {"probe": average_double_probe}
    elif kind == "dlr":
        d = draw(st.integers(min_value=1, max_value=2))
        algorithm, payload = DlrAlgorithm(d), _row_payloads(d + 1)
        attack = draw(st.sampled_from((None, "fabricate", "triangulation")))
        attacks = {
            "fabricate": lambda: fabricate_rows(draw(_row_payloads(d + 1))),
            "triangulation": lambda: triangulation_attack(d),
        }
    else:
        cls = KCenterAlgorithm if kind == "kcenter" else KMedianAlgorithm
        algorithm = cls(
            draw(st.integers(min_value=1, max_value=3)), draw(st.sampled_from((1, NORM_INF))), 8
        )
        payload = _point_payloads
        attack = draw(st.sampled_from((None, "omit", "fabricate")))
        attacks = {
            "omit": lambda: omit_point(draw(_value)),
            "fabricate": lambda: fabricate_point(draw(_value)),
        }
    strategies = {} if attack is None else {attacker: attacks[attack]()}
    agent_count = draw(st.integers(min_value=2, max_value=3))
    protocol, ninput, ell = _draw_input(draw, payload, agent_count)
    return protocol, ninput, strategies, algorithm, agent_count, ell


def _draw_input(draw, payload, agent_count):
    """A protocol, a nature input of `payload`s for its agents, and its `ell`."""
    agents = draw(
        st.lists(st.integers(min_value=1, max_value=agent_count), min_size=1, max_size=6)
    )
    protocol = draw(st.sampled_from(("continuous", "periodic")))
    if protocol == "continuous":
        ninput = tuple(NatureElement(agent, draw(payload)) for agent in agents)
        return protocol, ninput, draw(st.integers(min_value=1, max_value=3))
    rounds, seen = [], set()
    for agent in agents:
        round_no = rounds[-1] + draw(st.integers(min_value=0, max_value=1)) if rounds else 1
        while (agent, round_no) in seen:
            round_no += 1
        seen.add((agent, round_no))
        rounds.append(round_no)
    ninput = tuple(
        NatureElement(agent, draw(payload), round_no) for agent, round_no in zip(agents, rounds)
    )
    return protocol, ninput, None


def _spied(strategies, agent_count, polls):
    """Every agent's strategy, defaults included, recording (agent, view length) per poll.

    The table names every agent, so every broadcast wakes every agent: a run
    through it never skips the strategy-less agents as a raw table does.
    """

    def spy(agent, strategy):
        def polled(o):
            polls.append((agent, o.length))
            return strategy(o)

        return polled

    return {
        agent: spy(agent, strategies.get(agent, truthful_strategy))
        for agent in range(1, agent_count + 1)
    }


@given(case=_generated_runs())
# An attacker that always bids, on a ledger it wrote last, repeats a wish the
# guard drops.
@example(case=(
    "continuous", _scalar_input((1, 5), (2, 3), (2, 4)), {2: _always_bid(9)}, MaxAlgorithm(), 2, 1,
))
@example(case=(
    "continuous", _scalar_input((1, 5), (2, 3), (1, 4)), {2: _always_bid(9)}, MaxAlgorithm(), 3, 2,
))
# With ell 3 the bidder's streak outlasts three elements delivered to it, agent
# 1's update breaks it, and the bidder then writes three more.
@example(case=(
    "continuous", _scalar_input((2, 3), (2, 4), (2, 5), (1, 6)), {2: _always_bid(9)},
    MaxAlgorithm(), 2, 3,
))
# The guard drops truthful agent 1's echo of 4 at ell 1, and the echo attacker's
# broadcast follows. The raw table does not ask agent 1 about that broadcast,
# and the echo stays lost, as in the reference.
@example(case=(
    "continuous", _scalar_input((1, 5), (1, 4), (2, 3)), {2: max_echo_attack()},
    MaxAlgorithm(), 2, 1,
))
@settings(max_examples=300, deadline=None)
def test_engines_match_from_scratch_reference(case):
    protocol, ninput, strategies, algorithm, agent_count, ell = case
    polls: list[tuple[int, int]] = []
    spied = _spied(strategies, agent_count, polls)
    want = outcome(
        reference_run, protocol, ninput, strategies, algorithm, agent_count,
        ell=ell, safety_cap=SAFETY_CAP,
    )
    # The raw table leaves the strategy-less agents out of broadcast wake-ups.
    for table in (spied, strategies):
        got = outcome(run_protocol, protocol, ninput, table, algorithm, agent_count, ell=ell)
        assert (got if isinstance(got, type) else got.messages) == want
    # A view that has not grown is never asked again.
    assert len(set(polls)) == len(polls)


class _Recorder:
    """A fold whose state is every message it has seen, counting its observe calls."""

    calls = 0

    def start(self):
        return ()

    def observe(self, state, message):
        self.calls += 1
        return state + (message,)


@given(case=_generated_runs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_fold_resumed_from_the_memo_equals_a_fold_from_the_start(case, data):
    protocol, ninput, strategies, algorithm, agent_count, ell = case
    run = outcome(run_protocol, protocol, ninput, strategies, algorithm, agent_count, ell=ell)
    assume(not isinstance(run, type))
    log = run.messages
    recorder = _Recorder()
    # The ladder's moments take rows of the run's own width.
    d = algorithm.d if isinstance(algorithm, DlrAlgorithm) else 1
    folds = (recorder, triangulation_attack(d), average_double_probe(), sneak_attack(lr_sneak_params()))
    # Views grow and shrink in any order; one shorter than its memo entry restarts.
    lengths = data.draw(st.lists(st.integers(min_value=0, max_value=len(log)), max_size=10))
    for agent in range(1, agent_count + 1):
        memo: dict = {}
        for length in lengths + [len(log), 0]:
            resumed_from = memo.get(recorder, (0, ()))[0]
            calls = recorder.calls
            for fold in folds:
                view = ObservedHistory(agent, log, length, memo)
                state = view.fold(fold)
                assert state == ObservedHistory(agent, log, length).fold(fold)
                assert memo[fold] == (length, state)
            assert memo[recorder][1] == view.items
            start = resumed_from if resumed_from <= length else 0
            fresh = ObservedHistory(agent, log, length).items[len(ObservedHistory(agent, log, start)):]
            # The memo-less fold above reads the whole view; the resumed one
            # only what arrived since its memo entry.
            assert recorder.calls - calls == len(fresh) + len(view)


def test_a_resumed_fold_reads_only_the_log_entries_after_its_last_poll():
    # A fold resumed at p over n messages reads the n - p entries after p,
    # none of the prefix, and ends where a fold from the start does.
    case = make_triangulation_cases(1)(1)  # 31 messages
    fold = triangulation_attack(1)
    log = CountingLog(run_protocol(
        "continuous", case.ninput, {2: fold}, DlrAlgorithm(1), case.agent_count, ell=case.ell
    ).messages)
    n = len(log)
    for p in (0, 1, n // 2, n - 1, n):
        memo: dict = {}
        ObservedHistory(2, log, p, memo).fold(fold)
        log.reads = 0
        state = ObservedHistory(2, log, n, memo).fold(fold)
        assert log.reads == n - p
        assert state == ObservedHistory(2, log.messages, n).fold(fold)


@st.composite
def _fold_runs(draw):
    """A run of the strategies that fold their views: the lr sneak on
    one-feature regression, the average probe or the triangulation ladder,
    played by one or two agents under either protocol."""
    kind = draw(st.sampled_from(("sneak", "probe", "triangulation")))
    if kind == "sneak":
        params = lr_sneak_params()
        # The watched payload too, so that some swaps fire.
        algorithm, payload = DlrAlgorithm(1), st.one_of(st.just(params.u_cond), _row_payloads(2))
        attack = partial(sneak_attack, params)
    elif kind == "probe":
        algorithm, payload, attack = AverageAlgorithm(), _point_payloads, average_double_probe
    else:
        d = draw(st.integers(min_value=1, max_value=2))
        algorithm, payload = DlrAlgorithm(d), _row_payloads(d + 1)
        attack = partial(triangulation_attack, d)
    agent_count = draw(st.integers(min_value=2, max_value=3))
    # Two ladders answer each other's broadcasts up to the cap, so one agent plays it.
    attackers = draw(st.lists(
        st.integers(min_value=1, max_value=agent_count),
        min_size=1, max_size=1 if kind == "triangulation" else 2, unique=True,
    ))
    protocol, ninput, ell = _draw_input(draw, payload, agent_count)
    return protocol, ninput, {agent: attack() for agent in attackers}, algorithm, agent_count, ell


@given(case=_fold_runs())
@settings(max_examples=100, deadline=None)
def test_views_of_a_finished_run_are_exact_and_leave_its_folds_alone(case):
    # A view of a finished run resumes from a copy of the agent's memo; one
    # shorter than the memo's entry restarts. Every view folds to what a
    # memo-less view gives, and none writes into the run's record.
    protocol, ninput, strategies, algorithm, agent_count, ell = case
    run = outcome(run_protocol, protocol, ninput, strategies, algorithm, agent_count, ell=ell)
    assume(not isinstance(run, type))
    assert set(run.memos) == set(strategies)
    stored = {agent: dict(memo) for agent, memo in run.memos.items()}
    # The triangulation attack folds under the ladder walk's key.
    folds = (_LADDER, *strategies.values())
    for agent in range(1, agent_count + 1):
        for upto in range(len(run.messages) + 1):
            for fold in folds:
                view = observed_history(run, agent, upto)
                assert view.fold(fold) == ObservedHistory(agent, run.messages, upto).fold(fold)
    for agent, memo in stored.items():
        assert run.memos[agent].keys() == memo.keys()
        assert all(run.memos[agent][fold] is entry for fold, entry in memo.items())
    assert replay_matches(run, strategies)


def _echo_points(run, strategies):
    """(agent, log length) of each ledger update a strategy-less agent wrote:
    the view length of the poll that wished it."""
    return [
        (m.agent, index)
        for index, m in enumerate(run.messages)
        if isinstance(m, LedgerUpdate) and m.agent not in strategies
    ]


def test_truthful_agents_are_polled_only_on_their_own_deliveries():
    ninput = _scalar_input((1, 5), (2, 3), (3, 7), (1, 9), (2, 2), (1, 1))
    run = run_protocol("continuous", ninput, {}, MaxAlgorithm(), 3, ell=1)
    assert _echo_points(run, {}) == [(1, 1), (2, 4), (3, 7), (1, 10), (2, 13), (1, 16)]
    # An attacker is still asked about every broadcast, with the same views
    # as when every agent was woken by it.
    attacker_polls = []
    attack = max_echo_attack()

    def attacker(o):
        attacker_polls.append((o.agent, o.length))
        return attack(o)

    strategies = {1: attacker}
    run = run_protocol("continuous", ninput, strategies, MaxAlgorithm(), 3, ell=1)
    assert attacker_polls == [
        (1, 1), (1, 3), (1, 6), (1, 9), (1, 10), (1, 12), (1, 15), (1, 16), (1, 18),
    ]
    assert _echo_points(run, strategies) == [(2, 4), (3, 7), (2, 13)]


@pytest.mark.parametrize("protocol", ["continuous", "periodic"])
def test_strategy_less_agents_get_no_view(protocol, monkeypatch):
    # The engines answer for `truthful_strategy`, the default or named, without
    # building an ObservedHistory; only the agents with another strategy get views.
    built = Counter()

    class Counting(ObservedHistory):
        def __init__(self, agent, log, length, memo=None):
            built[agent] += 1
            super().__init__(agent, log, length, memo)

    monkeypatch.setattr("exclusim.protocol.ObservedHistory", Counting)
    for seed in range(6):
        case = make_max_cases()(seed)
        ninput = case.ninput
        if protocol == "periodic":
            ninput = tuple(NatureElement(el.agent, el.payload, 1 + i) for i, el in enumerate(ninput))
        ell = case.ell if protocol == "continuous" else None
        for strategies in ({}, {1: max_echo_attack()}, {1: max_echo_attack(), 2: truthful_strategy}):
            built.clear()
            run = run_protocol(protocol, ninput, strategies, MaxAlgorithm(), case.agent_count, ell=ell)
            # Only the echo attacker reads a view; the others' echoes reach the ledger.
            assert set(built) == {1} & set(strategies)
            assert any(isinstance(m, LedgerUpdate) and m.agent != 1 for m in run.messages)


@given(case=_fold_runs() | _generated_runs(), named=st.sets(st.integers(min_value=1, max_value=3)))
@settings(max_examples=200, deadline=None)
def test_engines_match_runs_that_poll_every_agent(case, named):
    # The engines answer for `truthful_strategy` without a view, for the
    # strategy-less agents and for those in `named`, who play it by name; the
    # run is the one in which every agent's strategy reads its view and every
    # broadcast wakes every agent.
    protocol, ninput, strategies, algorithm, agent_count, ell = case
    table = {agent: truthful_strategy for agent in named if agent <= agent_count}
    table.update(strategies)
    spied = _spied(table, agent_count, [])
    want = outcome(run_protocol, protocol, ninput, spied, algorithm, agent_count, ell=ell)
    got = outcome(run_protocol, protocol, ninput, table, algorithm, agent_count, ell=ell)
    assert (got if isinstance(got, type) else got.messages) == (
        want if isinstance(want, type) else want.messages
    )


class _CountingOutputs:
    """Counts the `output` calls of the algorithm class it is mixed into."""

    outputs = 0

    def output(self, state):
        self.outputs += 1
        return super().output(state)


class _CountingKCenter(_CountingOutputs, KCenterAlgorithm):
    pass


class _CountingAverage(_CountingOutputs, AverageAlgorithm):
    pass


def _points(*values):
    return PointSet(tuple((Fraction(v),) for v in values))


def test_continuous_rebroadcasts_when_the_union_does_not_grow():
    # The union grows at the first and fourth elements only.
    payloads = [_points(0, 1), _points(1), _points(0), _points(5), _points(0, 5), _points(1, 5)]
    ninput = tuple(NatureElement(1 + i % 3, p) for i, p in enumerate(payloads))
    algorithm = _CountingKCenter(2)
    run = run_protocol("continuous", ninput, {}, algorithm, 3, ell=1)
    assert algorithm.outputs == 2
    assert len(broadcasts(run)) == 6
    assert run.messages == reference_run("continuous", ninput, {}, algorithm, 3, ell=1)
    # An empty point set adds nothing to the average either.
    payloads = [_points(1), _points(), _points(3), _points()]
    ninput = tuple(NatureElement(1 + i % 2, p) for i, p in enumerate(payloads))
    algorithm = _CountingAverage()
    run = run_protocol("continuous", ninput, {}, algorithm, 2, ell=1)
    assert algorithm.outputs == 2
    assert broadcasts(run) == tuple(ScalarOutput(Fraction(v)) for v in (1, 1, 2, 2))
    assert run.messages == reference_run("continuous", ninput, {}, algorithm, 2, ell=1)


def test_first_broadcast_is_computed_when_the_fold_changes_nothing():
    ninput = (NatureElement(1, Empty()), NatureElement(1, Empty()))
    for protocol, ninput in (
        ("continuous", ninput),
        ("periodic", tuple(NatureElement(1, el.payload, 1 + i) for i, el in enumerate(ninput))),
    ):
        ell = 2 if protocol == "continuous" else None
        run = run_protocol(protocol, ninput, {}, MaxAlgorithm(), 1, ell=ell)
        assert broadcasts(run) == (NullOutput(), NullOutput())
        assert run.messages == reference_run(protocol, ninput, {}, MaxAlgorithm(), 1, ell=ell)


def test_periodic_rebroadcasts_when_the_union_does_not_grow():
    # Nobody writes in round 2, round 3 repeats points, round 4 adds one.
    ninput = (
        NatureElement(1, _points(0, 1), 1),
        NatureElement(2, _points(1), 1),
        NatureElement(1, _points(0), 3),
        NatureElement(2, _points(0, 1), 3),
        NatureElement(2, _points(5), 4),
    )
    algorithm = _CountingKCenter(2)
    run = run_protocol("periodic", ninput, {}, algorithm, 2)
    assert algorithm.outputs == 2
    assert len(broadcasts(run)) == 4
    assert run.messages == reference_run("periodic", ninput, {}, algorithm, 2)


def test_periodic_run_over_many_rounds_with_gaps_matches_reference():
    # 300 rounds; runs of empty rounds up to 9 long, rounds holding one to
    # three agents' elements in scrambled agent order, and an echo attacker.
    rng = random.Random("periodic:many-rounds")
    elements = []
    round_no = 1
    while round_no <= 300:
        agents = rng.sample((1, 2, 3), rng.randint(1, 3))
        elements += [
            NatureElement(a, Scalar(Fraction(rng.randint(-50, 50))), round_no) for a in agents
        ]
        round_no += rng.choice((1, 1, 2, 5, 10))
    ninput = tuple(elements)
    assert ninput[-1].round < 300 < ninput[-1].round + 10
    _assert_matches_reference("periodic", ninput, {2: max_echo_attack()}, MaxAlgorithm(), 3)


@pytest.mark.parametrize("seed", range(6))
def test_generated_suites_match_from_scratch_reference(seed):
    max_case = make_max_cases()(seed)
    _assert_matches_reference(
        max_case.protocol, max_case.ninput, {1: max_echo_attack()}, MaxAlgorithm(),
        max_case.agent_count, max_case.ell,
    )
    average_case = make_average_cases()(seed)
    _assert_matches_reference(
        average_case.protocol, average_case.ninput, {2: average_double_probe()},
        AverageAlgorithm(), average_case.agent_count, average_case.ell,
    )
    for d in (1, 2):
        case = make_triangulation_cases(d)(seed)
        _assert_matches_reference(
            case.protocol, case.ninput, {2: triangulation_attack(d)}, DlrAlgorithm(d),
            case.agent_count, case.ell,
        )
    for scenario in (lr_periodic_scenario, kcenter_periodic_scenario):
        algorithm, strategy, case = scenario(seed)
        _assert_matches_reference(
            case.protocol, case.ninput, {2: strategy}, algorithm, case.agent_count
        )
