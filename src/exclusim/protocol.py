"""Message types and the two ledger protocols (continuous and periodic).

Agents are numbered 1..n. Nature hands each agent private factual updates,
each one `FactualDelivery` (`NatureElement` names the same class): the
continuous engine logs an element as it is, and the periodic engine a delivery
without its round. Agents may push ledger updates; after pushes the ledger
broadcasts the aggregation algorithm's output over everything pushed so far.
The engines do not keep the ledger itself: they keep the algorithm's running
state (`Algorithm.start`), fold each accepted update into it (`fold`) and
broadcast its `output`, so the cost of one broadcast does not grow with the
ledger; a fold that returns the state itself rebroadcasts the last output. An
agent's strategy is a pure function of its observed history: its own factual
deliveries, its own ledger updates, and every broadcast, in run order. The
run's message log is the engines' only record; each poll hands the strategy an
`ObservedHistory` view of the log as it stands, not a copy, and a strategy
that folds its whole view resumes from its fold at the agent's last poll. A
finished run keeps each strategy agent's fold record, and `observed_history`
resumes from a copy of it.

Simultaneity is resolved by polling agents in fixed ascending order. In the
continuous protocol a single nature element opens an activity loop: agents are
polled repeatedly, each only when its view has grown since its last poll.
Each accepted update is broadcast immediately, and a broadcast wakes only the
agents that play a strategy of their own: `truthful_strategy` never answers
one. The engines answer for `truthful_strategy`, which every agent without a
strategy of its own plays, and build it no view: the last message such an
agent has seen is known to the engine, so a strategy-less agent echoes the
delivery that woke it without a view. An anti-flooding guard suppresses an
agent once it authored the last `ell` consecutive ledger updates (the guard
models how many consecutive identities one party controls). The periodic
protocol delivers a round's factual updates, polls every agent exactly once,
then broadcasts exactly once per round, and takes no `ell`; there a
strategy-less agent echoes its delivery of the round, if it has one.
`validate_run` states the rules a run's inputs must keep.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .algorithms import Algorithm, AlgorithmOutput, UpdatePayload
from .numerics import is_int

SAFETY_CAP = 500


class InputError(ValueError):
    """A run's inputs break the protocol's rules.

    `path` names the value at fault in the scenario schema's own terms
    (`"ell"`, `"strategies.3"`, `"nature_input[2].round"`), or is None when
    the fault is in an argument the schema does not hold.
    """

    def __init__(self, message: str, path: Optional[str] = None):
        super().__init__(message)
        self.path = path


class SafetyCapExceededError(RuntimeError):
    """A nature element kept the activity loop alive beyond `SAFETY_CAP` passes.

    The cap counts passes, not time. A lone triangulation prober needs about
    d + 3 (13 at d = 10, the most seen), while two d = 5 probers answer each
    other's broadcasts forever and take seconds to reach it. The message names
    each writer's updates.
    """


# =============================================================================
# Messages, nature inputs, runs
# =============================================================================


@dataclass(frozen=True)
class FactualDelivery:
    """One nature element, and the message that delivers it to `agent`.

    `round` is the element's round in a periodic input and None otherwise;
    no message in a run's log carries one.
    """

    agent: int
    payload: UpdatePayload
    round: Optional[int] = None


@dataclass(frozen=True)
class LedgerUpdate:
    agent: int
    payload: UpdatePayload


@dataclass(frozen=True)
class OutputBroadcast:
    output: AlgorithmOutput


Message = Union[FactualDelivery, LedgerUpdate, OutputBroadcast]

KIND_FACTUAL = FactualDelivery
KIND_LEDGER = LedgerUpdate
NatureElement = FactualDelivery  # a nature element is the delivery it makes

NatureInput = tuple[NatureElement, ...]


@dataclass(frozen=True)
class Run:
    """A full protocol transcript.

    `memos` is the engine's fold record: for each agent that played a
    strategy, its memo as the agent's last poll left it (see
    `ObservedHistory.fold`), or None for a run no engine produced. It is
    no part of the transcript, so equality, repr and traces leave it out.
    """

    protocol: str  # "continuous" | "periodic"
    messages: tuple[Message, ...]
    ell: Optional[int] = None
    memos: Optional[Mapping[int, dict]] = field(default=None, compare=False, repr=False)

    def final_output(self) -> Optional[AlgorithmOutput]:
        for message in reversed(self.messages):
            if isinstance(message, OutputBroadcast):
                return message.output
        return None


def extract(run: Run, kind: type, agent: Optional[int] = None) -> tuple[UpdatePayload, ...]:
    """The ordered payload subsequence of one message kind, optionally one agent's."""
    if kind not in (KIND_LEDGER, KIND_FACTUAL):
        raise InputError(f"extract kind must be LedgerUpdate or FactualDelivery, got {kind!r}")
    return tuple([
        m.payload
        for m in run.messages
        if isinstance(m, kind) and (agent is None or m.agent == agent)
    ])


# =============================================================================
# Observed histories and strategies
# =============================================================================


@dataclass(frozen=True, eq=False)
class ObservedHistory:
    """What one agent has seen among the first `length` messages of a run's log.

    An agent sees every broadcast and its own deliveries and updates. The log
    is read in place, not copied; it only grows, so the prefix stays fixed.
    `memo` is the agent's dict of `(length, state)` per strategy fold, for
    one run (see `fold`): the engine's own during a run, or a copy of the
    finished run's record in a view from `observed_history`. Views built
    anywhere else have none.
    """

    agent: int
    log: Sequence[Message] = field(repr=False)
    length: int
    memo: Optional[dict] = field(default=None, repr=False)

    def __init__(self, agent: int, log: Sequence[Message], length: int, memo: Optional[dict] = None):
        # One dict update, not a frozen `__setattr__` per field: a view is built on every poll.
        self.__dict__.update(agent=agent, log=log, length=length, memo=memo)

    def sees(self, message: Message) -> bool:
        return isinstance(message, OutputBroadcast) or message.agent == self.agent

    @cached_property
    def items(self) -> tuple[Message, ...]:
        # From a list, not a generator: CPython sizes a tuple built from a
        # generator at 10 and then resizes it, so each poll's tuple would be
        # freed onto the free list of another size, and those lists (2000
        # tuples per size) would hold megabytes between full collections.
        return tuple([m for m in islice(self.log, self.length) if self.sees(m)])

    def __len__(self) -> int:
        return len(self.items)

    def last(self) -> Optional[Message]:
        for index in range(self.length - 1, -1, -1):
            if self.sees(self.log[index]):
                return self.log[index]
        return None

    def last_broadcast(self) -> Optional[AlgorithmOutput]:
        for index in range(self.length - 1, -1, -1):
            if isinstance(self.log[index], OutputBroadcast):
                return self.log[index].output
        return None

    def fold(self, strategy) -> object:
        """`reduce(strategy.observe, self.items, strategy.start())`, for any
        object with `start()` and `observe(state, message)`.

        With a memo, the fold resumes from the state it stored for `strategy`
        at the agent's last poll, provided that poll saw no more of the log
        than this view, and reads only the messages after it, by index; then
        it stores the new state. The log only grows, so the resumed fold is exact.
        """
        entry = None if self.memo is None else self.memo.get(strategy)
        if entry is None or entry[0] > self.length:
            entry = (0, strategy.start())
        start, state = entry
        for index in range(start, self.length):
            message = self.log[index]
            if self.sees(message):
                state = strategy.observe(state, message)
        if self.memo is not None:
            self.memo[strategy] = (self.length, state)
        return state


Strategy = Callable[[ObservedHistory], Optional[UpdatePayload]]


def observed_history(run: Run, agent: int, upto: Optional[int] = None) -> ObservedHistory:
    """One agent's view of a run, or of `run.messages[:upto]` when `upto` is given.

    The view's memo is a copy of the agent's entry in `run.memos`, if any, so
    a fold resumes from the agent's last poll of the run, and no view writes
    into the run's record. `fold` restarts an entry that saw more of the log
    than the view holds, so a shorter view stays exact.
    """
    memo = run.memos.get(agent) if run.memos else None
    length = slice(upto).indices(len(run.messages))[1]
    return ObservedHistory(agent, run.messages, length, None if memo is None else dict(memo))


def truthful_strategy(obs: ObservedHistory) -> Optional[UpdatePayload]:
    """Echo a factual update onto the ledger the moment it arrives; otherwise stay silent."""
    last = obs.last()
    if isinstance(last, FactualDelivery):
        return last.payload
    return None


# =============================================================================
# Input validation
# =============================================================================


def _not_int(value: object, path: str) -> InputError:
    return InputError(f"expected an integer, got {value!r}", path)


def validate_run(
    protocol: str,
    ell: Optional[int],
    agent_count: int,
    strategies: Iterable[int],
    elements: Sequence[NatureElement],
) -> None:
    """The rules of a run, for the engines and the scenario loader alike.

    `ell`, the agent count, every agent and every round are ints, not bools,
    and each is type-checked first. Continuous runs need an update window
    `ell` of at least 1, and periodic runs take none. Every strategy and
    element names an agent in 1..n. Continuous elements carry no round;
    periodic rounds start at 1, never decrease, and hold one element per agent.
    """
    if protocol not in ("continuous", "periodic"):
        raise InputError(f"expected 'continuous' or 'periodic', got {protocol!r}", "protocol")
    if ell is not None and not is_int(ell):
        raise _not_int(ell, "ell")
    if protocol == "periodic":
        if ell is not None:
            raise InputError("periodic scenarios do not take an update window", "ell")
    elif ell is None:
        raise InputError("continuous runs need an update window", "ell")
    elif ell < 1:
        raise InputError(f"must be at least 1, got {ell}", "ell")
    if not is_int(agent_count):
        raise _not_int(agent_count, "agents")
    if agent_count < 1:
        raise InputError(f"must be at least 1, got {agent_count}", "agents")
    for agent in strategies:
        if not is_int(agent):
            raise _not_int(agent, f"strategies.{agent}")
        if not 1 <= agent <= agent_count:
            raise InputError(f"agent {agent} outside 1..{agent_count}", f"strategies.{agent}")
    seen: set[tuple[int, int]] = set()
    previous = 1
    for index, el in enumerate(elements):
        # The path is built only for the element at fault.
        if not is_int(el.agent):
            raise _not_int(el.agent, f"nature_input[{index}].agent")
        if el.round is not None and not is_int(el.round):
            raise _not_int(el.round, f"nature_input[{index}].round")
        message, suffix = None, ".round"
        if not 1 <= el.agent <= agent_count:
            message, suffix = f"agent {el.agent} outside 1..{agent_count}", ".agent"
        elif protocol == "continuous":
            if el.round is not None:
                message = "continuous nature elements must not carry rounds"
        elif el.round is None or el.round < 1:
            message = "periodic nature elements need a positive round"
        elif index == 0 and el.round != 1:
            message = "periodic inputs start at round 1"
        elif el.round < previous:
            message = "periodic rounds must be non-decreasing"
        elif (el.agent, el.round) in seen:
            message, suffix = f"agent {el.agent} has two elements in round {el.round}", ""
        else:
            previous = el.round
            seen.add((el.agent, el.round))
        if message is not None:
            raise InputError(message, f"nature_input[{index}]{suffix}")


# =============================================================================
# Engines
# =============================================================================


def _run_continuous(
    ninput: Sequence[NatureElement],
    strategies: Mapping[int, Strategy],
    algorithm: Algorithm,
    ell: int,
    agent_count: int,
) -> Run:
    """Execute the continuous protocol and return the full transcript.

    `grown` holds the agents whose view grew since their last poll: a
    delivery adds its recipient, an accepted update adds the `watchers` (the
    agents named in `strategies`), and a poll removes the polled agent. An
    agent with no entry plays `truthful_strategy`, which answers a view that
    ends in a broadcast with None, so it is polled only on its own delivery.
    The engine answers for `truthful_strategy` without building a view: a
    polled agent has always seen the log's last message, its own delivery
    or a broadcast, so it echoes the delivery that woke it. An element's
    activity loop runs while `grown` is not empty. The guard drops a wish
    from `author`, who wrote the last `streak` updates in a row, once
    `streak` reaches `ell`. Strategies are pure functions of their views
    (the property `replay_matches` checks), so an unchanged view would
    repeat a dropped wish. A strategy that needs
    its whole view is a fold read through `ObservedHistory.fold`, and each
    view handed to a watcher carries the watcher's memo from `memos`, so the
    fold resumes from its last poll; a callable that keeps its own state is
    not supported. Between elements `grown` is empty, so the state there is
    the fold state, the last broadcast, the streak and the log length. The
    run keeps `memos`, so a view of it resumes each watcher's fold.
    """
    messages: list[Message] = []
    state = algorithm.start()
    broadcast: Optional[OutputBroadcast] = None
    author, streak = None, 0
    agents = range(1, agent_count + 1)
    watchers = [agent for agent in agents if agent in strategies]
    memos = {agent: {} for agent in watchers}

    for element in ninput:
        start = len(messages)
        messages.append(element)
        grown = {element.agent}
        passes = 0
        while grown:
            passes += 1
            if passes > SAFETY_CAP:
                writers = Counter(m.agent for m in messages[start:] if isinstance(m, LedgerUpdate))
                counts = ", ".join(f"{agent} ({writers[agent]})" for agent in sorted(writers))
                raise SafetyCapExceededError(
                    f"activity loop exceeded {SAFETY_CAP} polling passes for one nature "
                    f"element; its ledger updates came from agents {counts}"
                )
            for agent in agents:
                if agent not in grown:
                    continue
                grown.remove(agent)
                strategy = strategies.get(agent, truthful_strategy)
                if strategy is truthful_strategy:
                    # The last message of the log is the last this agent has
                    # seen: its own delivery, or a broadcast.
                    last = messages[-1]
                    wish = last.payload if isinstance(last, FactualDelivery) else None
                else:
                    view = ObservedHistory(agent, messages, len(messages), memos.get(agent))
                    wish = strategy(view)
                if wish is None:
                    continue
                if agent == author and streak >= ell:
                    # Guard: the agent wrote the last `ell` updates in a row.
                    continue
                folded = algorithm.fold(state, wish)
                if folded is not state or broadcast is None:
                    state, broadcast = folded, OutputBroadcast(algorithm.output(folded))
                author, streak = agent, streak + 1 if agent == author else 1
                messages.append(LedgerUpdate(agent, wish))
                messages.append(broadcast)
                grown.update(watchers)

    return Run("continuous", tuple(messages), ell=ell, memos=memos)


def _run_periodic(
    ninput: Sequence[NatureElement],
    strategies: Mapping[int, Strategy],
    algorithm: Algorithm,
    agent_count: int,
) -> Run:
    """Execute the periodic protocol: per round, deliver, poll once each, broadcast once.

    Each view handed to an agent with a strategy carries that agent's memo
    from `memos`, and the run keeps them, as in `_run_continuous`. An agent
    that plays `truthful_strategy` gets no view: before its poll it has seen
    at most the last round's broadcast and its delivery of this round, so it
    echoes that delivery, if there is one.
    """
    messages: list[Message] = []
    state = algorithm.start()
    broadcast: Optional[OutputBroadcast] = None
    memos = {agent: {} for agent in strategies}

    # by_round[r - 1]: the deliveries of round r by agent, in input order; a
    # round without elements is still played.
    by_round: list[dict[int, FactualDelivery]] = [
        {} for _ in range(max((el.round for el in ninput), default=0))
    ]
    for element in ninput:
        by_round[element.round - 1][element.agent] = FactualDelivery(element.agent, element.payload)
    for deliveries in by_round:
        messages.extend(deliveries.values())
        folded = state
        for agent in range(1, agent_count + 1):
            strategy = strategies.get(agent, truthful_strategy)
            if strategy is truthful_strategy:
                # The agent's view ends in its delivery of this round, if any.
                delivery = deliveries.get(agent)
                wish = None if delivery is None else delivery.payload
            else:
                wish = strategy(ObservedHistory(agent, messages, len(messages), memos.get(agent)))
            if wish is not None:
                folded = algorithm.fold(folded, wish)
                messages.append(LedgerUpdate(agent, wish))
        if folded is not state or broadcast is None:
            state, broadcast = folded, OutputBroadcast(algorithm.output(folded))
        messages.append(broadcast)

    return Run("periodic", tuple(messages), ell=None, memos=memos)


def run_protocol(
    protocol: str,
    ninput: Sequence[NatureElement],
    strategies: Mapping[int, Strategy],
    algorithm: Algorithm,
    agent_count: int,
    ell: Optional[int] = None,
) -> Run:
    """Check the run against `validate_run`, then execute it."""
    validate_run(protocol, ell, agent_count, strategies, ninput)
    if protocol == "continuous":
        return _run_continuous(ninput, strategies, algorithm, ell, agent_count)
    return _run_periodic(ninput, strategies, algorithm, agent_count)


# =============================================================================
# Transcript invariants
# =============================================================================


def ell_guard_respected(run: Run) -> bool:
    """No agent authored more than `ell` consecutive ledger updates."""
    if run.protocol != "continuous" or run.ell is None:
        return True
    streak_agent = None
    streak = 0
    for message in run.messages:
        if not isinstance(message, LedgerUpdate):
            continue
        if message.agent == streak_agent:
            streak += 1
        else:
            streak_agent, streak = message.agent, 1
        if streak > run.ell:
            return False
    return True


def broadcast_pairing_ok(run: Run) -> bool:
    """Continuous: every ledger update is immediately followed by one broadcast."""
    if run.protocol != "continuous":
        return True
    for index, message in enumerate(run.messages):
        if isinstance(message, LedgerUpdate):
            nxt = run.messages[index + 1] if index + 1 < len(run.messages) else None
            if not isinstance(nxt, OutputBroadcast):
                return False
        if isinstance(message, OutputBroadcast):
            prev = run.messages[index - 1] if index > 0 else None
            if not isinstance(prev, LedgerUpdate):
                return False
    return True


def replay_matches(run: Run, strategies: Mapping[int, Strategy]) -> bool:
    """Check a transcript is reproducible from the strategies' observed histories.

    Re-derives each agent's view immediately before every ledger update it
    authored and re-invokes the strategy; a pure strategy must return the
    very payload recorded in the transcript.
    """
    for index, message in enumerate(run.messages):
        if not isinstance(message, LedgerUpdate):
            continue
        strategy = strategies.get(message.agent, truthful_strategy)
        obs = observed_history(run, message.agent, upto=index)
        if strategy(obs) != message.payload:
            return False
    return True
