"""Command-line interface: run scenario files, reproduce the canonical attack
demos, and drive the verification suites.

Subcommands:
  run <file> [--out PATH]           execute a scenario and emit its trace
  attack-demo <name> [...]          canonical demo of a named attack
  verify <suite> [...]              seeded verification suite, JSON report
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

from .algorithms import (
    Algorithm,
    AlgorithmOutput,
    AverageAlgorithm,
    CentersOutput,
    CoefficientsOutput,
    DlrAlgorithm,
    KCenterAlgorithm,
    MaxAlgorithm,
    ParamError,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
    format_point,
)
from .harness import (
    GENERATOR_BOUND_NOTE,
    CaseGenerator,
    ConfoundingWitness,
    GeneratedCase,
    PairedVerdict,
    check_condition_i,
    check_condition_i_star,
    kcenter_periodic_scenario,
    lr_periodic_scenario,
    make_average_cases,
    make_max_cases,
    make_triangulation_cases,
    periodic_kcenter_omission_confounder,
    periodic_lambda_confounder,
    verify_inference,
)
from .numerics import rational
from .protocol import (
    FactualDelivery,
    NatureElement,
    ObservedHistory,
    OutputBroadcast,
    Run,
    Strategy,
    observed_history,
)
from .scenario import (
    ValidationError,
    format_rational,
    load_scenario,
    ninput_to_json,
    output_to_json,
    run_scenario,
    trace_lines,
)
from .strategies import (
    average_double_probe,
    average_infer_from_history,
    classify_strategy_run,
    kcenter_sneak_params,
    lr_sneak_params,
    max_echo_attack,
    max_infer,
    sneak_attack,
    triangulation_attack,
    triangulation_infer_from_history,
    triangulation_state,
)


class UsageError(Exception):
    """A demo, suite, attack or argument value the command line does not accept."""


# =============================================================================
# Output formatting
# =============================================================================


def format_output(output: Optional[AlgorithmOutput]) -> str:
    if isinstance(output, ScalarOutput):
        return str(output.value)
    if isinstance(output, CentersOutput):
        points = (str(p[0]) if len(p) == 1 else format_point(p) for p in output.centers)
        return "{" + ", ".join(points) + "}"
    if isinstance(output, CoefficientsOutput):
        return format_point(output.coefficients)
    return "null"


def verdict_line(verdict: PairedVerdict) -> str:
    return (
        f"attack final {format_output(verdict.attack_final)}, "
        f"truth final {format_output(verdict.truth_final)}, "
        f"differs {str(verdict.differs).lower()}"
    )


# =============================================================================
# Attacks: one record each, read by attack-demo and the verify suites
# =============================================================================


@dataclass(frozen=True)
class Attack:
    """One attack as `attack-demo` and `verify` run it.

    `case` is the canonical input, with its agent count and `ell`, that the
    demo and `verify condition_i` play. `cases` generates the seeded inputs
    of `verify condition_i_star` and `verify inference`; an attack without
    it is covered by neither, and `SEEDED_ATTACKS` names those with it.
    `decode` recovers the truthful final from the attacker's view (a demo
    without it prints the run classification instead), `star_passes` is the
    expected condition (i*) outcome, and `csv_rows` builds the point table the
    demo writes.
    """

    algorithm: Algorithm
    strategy: Strategy
    j: int
    case: GeneratedCase
    cases: Optional[CaseGenerator] = None
    decode: Optional[Callable[[ObservedHistory], AlgorithmOutput]] = None
    star_passes: Optional[bool] = None
    csv_rows: Optional[Callable[[Run], list[list[str]]]] = None

    def check_condition_i(self) -> PairedVerdict:
        return check_condition_i(
            self.algorithm, self.strategy, self.j, self.case.ninput,
            ell=self.case.ell, agent_count=self.case.agent_count,
        )


def _average(args: argparse.Namespace) -> Attack:
    ninput = (
        NatureElement(1, PointSet(((Fraction(1),), (Fraction(4),), (Fraction(5),)))),
        NatureElement(2, PointSet(((Fraction(1),), (Fraction(3),)))),
    )
    return Attack(
        AverageAlgorithm(), average_double_probe(), j=2, case=GeneratedCase(ninput, 2, ell=2),
        cases=make_average_cases(j=2),
        decode=lambda o: ScalarOutput(average_infer_from_history(o).true_average),
        star_passes=True,
    )


def _max_echo(args: argparse.Namespace) -> Attack:
    ninput = (
        NatureElement(2, Scalar(Fraction(100))),
        NatureElement(1, Scalar(Fraction(110))),
    )
    return Attack(
        MaxAlgorithm(), max_echo_attack(), j=1, case=GeneratedCase(ninput, 2, ell=1),
        cases=make_max_cases(j=1), decode=max_infer, star_passes=False,
    )


def _kcenter_sneak(args: argparse.Namespace) -> Attack:
    params = kcenter_sneak_params(args.k, args.eps)
    cluster = PointSet(params.rho_cond.centers)  # type: ignore[union-attr]
    ninput = (NatureElement(1, cluster), NatureElement(2, params.u_cond))
    # Every payload of the run comes from these two sets, 2k + 1 points in all.
    union = len(set(cluster.points) | set(params.u_cond.points))
    algorithm = KCenterAlgorithm(args.k, max_union=union)
    return Attack(algorithm, sneak_attack(params), j=2, case=GeneratedCase(ninput, 2, ell=1))


def _lr_sneak(args: argparse.Namespace) -> Attack:
    params = lr_sneak_params()
    warm = RowMultiset(
        (
            Row((Fraction(1), Fraction(1)), Fraction(1)),
            Row((Fraction(1), Fraction(0)), Fraction(1)),
        )
    )
    ninput = (NatureElement(1, warm), NatureElement(2, params.u_cond))
    return Attack(DlrAlgorithm(1), sneak_attack(params), j=2, case=GeneratedCase(ninput, 2, ell=1))


def _triangulation(args: argparse.Namespace) -> Attack:
    d = args.d
    cases = make_triangulation_cases(d, j=2)
    return Attack(
        DlrAlgorithm(d), triangulation_attack(d), j=2, case=cases(args.seed), cases=cases,
        decode=lambda o: triangulation_infer_from_history(o, d).truth_output,
        star_passes=True,
        csv_rows=lambda run: triangulation_csv_rows(run, 2, d),
    )


ATTACKS: dict[str, Callable[[argparse.Namespace], Attack]] = {
    "average": _average,
    "max_echo": _max_echo,
    "kcenter_sneak": _kcenter_sneak,
    "lr_sneak": _lr_sneak,
    "triangulation": _triangulation,
}

# The attacks built with `cases`, which `verify condition_i_star` and
# `verify inference` cover.
SEEDED_ATTACKS = ("average", "max_echo", "triangulation")

# attack-demo name -> attack; the demo keeps the short name "max" for max_echo.
DEMO_NAMES = {"max" if name == "max_echo" else name: name for name in ATTACKS}


def _build_attack(name: str, args: argparse.Namespace) -> Attack:
    """The record of attack `name`; a value its constructors refuse is a usage error."""
    try:
        return ATTACKS[name](args)
    except ParamError as exc:
        raise UsageError(f"argument --{exc.param}: {exc}" if exc.param else str(exc)) from exc


# =============================================================================
# attack-demo
# =============================================================================


def triangulation_csv_rows(run: Run, j: int, d: int) -> list[list[str]]:
    """Per-row data of the attack run with the estimator in force at each stage."""
    header = (
        ["stage"]
        + [f"point_x{i}" for i in range(1, d + 1)]
        + ["point_y", "role"]
        + [f"coef_{i}" for i in range(d + 1)]
    )
    table = [header]
    current: list[str] = [""] * (d + 1)
    memo: dict = {}

    def estimator_after(index: int) -> list[str]:
        message = run.messages[index + 1] if index + 1 < len(run.messages) else None
        if isinstance(message, OutputBroadcast) and isinstance(
            message.output, CoefficientsOutput
        ):
            return [str(c) for c in message.output.coefficients]
        return current

    def emit(stage: int, rows, role: str, estimator: list[str]) -> None:
        for row in rows:
            table.append(
                [str(stage)]
                + [str(c) for c in row.features[1:]]
                + [str(row.target), role]
                + estimator
            )

    for index, message in enumerate(run.messages):
        if isinstance(message, OutputBroadcast):
            if isinstance(message.output, CoefficientsOutput):
                current = [str(c) for c in message.output.coefficients]
            continue
        if not isinstance(message.payload, RowMultiset):
            continue
        if isinstance(message, FactualDelivery):
            if message.agent == j:
                emit(index, message.payload.rows, "factual", current)
            continue
        if message.agent != j:
            emit(index, message.payload.rows, "ledger", estimator_after(index))
            continue
        # The ladder j saw at this update, resumed through one memo: steps 0..d are probes.
        ladder = triangulation_state(ObservedHistory(j, run.messages, index, memo))
        role = "probe" if ladder is not None and ladder.step <= d else "deflection"
        emit(index, message.payload.rows, role, estimator_after(index))
    return table


def cmd_attack_demo(args: argparse.Namespace) -> int:
    if args.name not in DEMO_NAMES:
        raise UsageError(
            f"unknown demo '{args.name}'; expected one of {', '.join(DEMO_NAMES)}"
        )
    attack = _build_attack(DEMO_NAMES[args.name], args)
    verdict = attack.check_condition_i()
    print(verdict_line(verdict))

    if attack.decode is None:
        label = classify_strategy_run(verdict.run_attack, attack.j, truth_run=verdict.run_truth)
        print(f"classification: {label.value}")
        return 0
    inferred = attack.decode(observed_history(verdict.run_attack, attack.j))
    exact = inferred == verdict.truth_final
    print(
        f"inference: truth-run final {format_output(inferred)} "
        f"(exact match: {str(exact).lower()})"
    )
    if attack.csv_rows is not None:
        table = attack.csv_rows(verdict.run_attack)
        if args.csv:
            with open(args.csv, "w", newline="", encoding="utf-8") as handle:
                csv.writer(handle).writerows(table)
            print(f"csv written to {args.csv}")
        else:
            csv.writer(sys.stdout).writerows(table)
    return 0


# =============================================================================
# verify
# =============================================================================


def _witness_json(witness: ConfoundingWitness) -> dict:
    return {
        "input_a": ninput_to_json(witness.input_a),
        "input_b": ninput_to_json(witness.input_b),
        "observed_equal_under_attack": witness.observed_equal_under_attack,
        "observed_equal_under_truth": witness.observed_equal_under_truth,
        "valid": witness.is_valid(),
    }


def _condition_i_json(verdict: PairedVerdict) -> dict:
    return {
        "differs": verdict.differs,
        "attack_final": output_to_json(verdict.attack_final),
        "truth_final": output_to_json(verdict.truth_final),
        "truth_lossless": verdict.truth_lossless,
    }


def _base_report(attack: str, algorithm: str, protocol: str, ell: Optional[int]) -> dict:
    return {
        "attack": attack,
        "algorithm": algorithm,
        "protocol": protocol,
        "ell": ell,
        "seeds": None,
        "condition_i": None,
        "condition_i_star": None,
        "inference_pass_rate": None,
        "witnesses": None,
    }


def _attack_under_test(args: argparse.Namespace) -> tuple[Attack, dict]:
    """The record of `--attack` and its report skeleton; refuse an attack
    the suite does not cover before building any."""
    # Condition (i) plays the canonical input; the other suites need cases.
    covered = [name for name in ATTACKS if args.suite == "condition_i" or name in SEEDED_ATTACKS]
    if args.attack is None:
        raise UsageError(f"suite {args.suite} requires --attack, one of {', '.join(covered)}")
    if args.attack not in covered:
        raise UsageError(f"suite {args.suite} does not cover attack '{args.attack}'")
    attack = _build_attack(args.attack, args)
    return attack, _base_report(args.attack, attack.algorithm.name, "continuous", attack.case.ell)


def _suite_condition_i(args: argparse.Namespace) -> tuple[dict, bool]:
    attack, report = _attack_under_test(args)
    verdict = attack.check_condition_i()
    report["condition_i"] = _condition_i_json(verdict)
    return report, verdict.differs


def _suite_condition_i_star(args: argparse.Namespace) -> tuple[dict, bool]:
    attack, report = _attack_under_test(args)
    seeds = check_condition_i_star(
        attack.algorithm, attack.strategy, attack.j, attack.cases, args.count, seed=args.seed
    )
    report["seeds"] = {"start": args.seed, "count": args.count}
    report["condition_i_star"] = {
        "pass": not seeds,
        "non_differing_seeds": seeds,
        "generator_bound": GENERATOR_BOUND_NOTE,
    }
    return report, (not seeds) == attack.star_passes


def _suite_inference(args: argparse.Namespace) -> tuple[dict, bool]:
    attack, report = _attack_under_test(args)
    failed = verify_inference(
        attack.algorithm, attack.strategy, attack.decode, attack.cases, args.count,
        j=attack.j, seed=args.seed,
    )
    report["seeds"] = {"start": args.seed, "count": args.count}
    report["inference_pass_rate"] = format_rational(Fraction(args.count - len(failed), args.count))
    report["inference_failed_seeds"] = failed
    return report, not failed


# --algorithm -> (the attack played, seeded swap scenario, round-based confounder)
PERIODIC_SCENARIOS = {
    "dlr": ("lr_sneak", lr_periodic_scenario, periodic_lambda_confounder),
    "kcenter": ("kcenter_sneak", kcenter_periodic_scenario, periodic_kcenter_omission_confounder),
}


def _suite_periodic_safety(args: argparse.Namespace) -> tuple[dict, bool]:
    if args.algorithm not in PERIODIC_SCENARIOS:
        raise UsageError(f"suite periodic_safety does not cover algorithm '{args.algorithm}'")
    attack_name, make_scenario, confounder = PERIODIC_SCENARIOS[args.algorithm]
    if args.attack not in (None, attack_name):
        raise UsageError(f"suite periodic_safety does not cover attack '{args.attack}'")
    witnesses = []
    for seed in range(args.seed, args.seed + args.count):
        algorithm, strategy, case = make_scenario(seed)
        witness = confounder(algorithm, case.ninput, strategy, 2, agent_count=case.agent_count)
        if witness is None or not witness.is_valid():
            witnesses.append({"seed": seed, "valid": False})
        else:
            witnesses.append({**_witness_json(witness), "seed": seed})
    report = _base_report(attack_name, args.algorithm, "periodic", None)
    report["seeds"] = {"start": args.seed, "count": args.count}
    report["witnesses"] = witnesses
    return report, all(witness["valid"] for witness in witnesses)


VERIFY_SUITES = {
    "condition_i": _suite_condition_i,
    "condition_i_star": _suite_condition_i_star,
    "inference": _suite_inference,
    "periodic_safety": _suite_periodic_safety,
}


def cmd_verify(args: argparse.Namespace) -> int:
    suite = VERIFY_SUITES.get(args.suite)
    if suite is None:
        raise UsageError(
            f"unknown suite '{args.suite}'; expected one of {', '.join(VERIFY_SUITES)}"
        )
    report, met = suite(args)
    report["suite"] = args.suite
    report["expectation_met"] = met
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.json:
        Path(args.json).write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.json}")
    else:
        print(text)
    return 0 if met else 1


# =============================================================================
# run
# =============================================================================


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.file)
    run = run_scenario(scenario)
    text = "".join([line + "\n" for line in trace_lines(run)])
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


# =============================================================================
# Entry point
# =============================================================================


def _rational(text: str) -> Fraction:
    """`rational(text)` as an argparse type: argparse reports a ValueError, not "1/0"."""
    try:
        return rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exclusim",
        description=(
            "Simulate shared-ledger aggregation protocols and verify "
            "misreporting attacks against them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file and emit its trace")
    p_run.add_argument("file", help="path to a scenario JSON file")
    p_run.add_argument("--out", help="write the trace to this path instead of stdout")

    p_demo = sub.add_parser("attack-demo", help="reproduce a canonical attack")
    p_demo.add_argument("name", help=f"one of: {', '.join(DEMO_NAMES)}")
    p_demo.add_argument("--d", type=int, default=2, help="feature count for triangulation")
    p_demo.add_argument("--k", type=int, default=3, help="center count for kcenter_sneak")
    p_demo.add_argument(
        "--eps", type=_rational, default="1/1000", help="cluster spread for kcenter_sneak"
    )
    p_demo.add_argument("--seed", type=int, default=7, help="scenario seed for triangulation")
    p_demo.add_argument("--csv", help="write the triangulation point data to this path")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(VERIFY_SUITES)}")
    p_verify.add_argument("--attack", default=None, help="attack under test")
    p_verify.add_argument("--algorithm", default="dlr", help="algorithm for periodic_safety")
    p_verify.add_argument("--d", type=int, default=1, help="feature count for triangulation")
    p_verify.add_argument(
        "--count", type=_positive_int, default=50, help="number of seeded scenarios"
    )
    p_verify.add_argument("--seed", type=int, default=0, help="first seed")
    p_verify.add_argument("--json", help="write the JSON report to this path")
    # verify has no --k/--eps: kcenter_sneak runs at the demo defaults.
    p_verify.set_defaults(k=3, eps="1/1000")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "attack-demo":
            return cmd_attack_demo(args)
        return cmd_verify(args)
    except (UsageError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # engine errors surface as diagnostics, not tracebacks
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
