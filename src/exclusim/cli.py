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
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
)
from .harness import (
    ConfoundingWitness,
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
    LedgerUpdate,
    NatureElement,
    NatureInput,
    OutputBroadcast,
    Run,
    observed_history,
)
from .scenario import (
    ValidationError,
    format_rational,
    load_scenario,
    output_to_json,
    payload_to_json,
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
)

DEMO_NAMES = ("average", "max", "kcenter_sneak", "lr_sneak", "triangulation")
VERIFY_SUITES = ("condition_i", "condition_i_star", "inference", "periodic_safety")


class UsageError(Exception):
    """A demo or suite name the command line does not recognize."""


# =============================================================================
# Output formatting
# =============================================================================


def _format_point(point: Sequence[Fraction]) -> str:
    if len(point) == 1:
        return str(point[0])
    return "(" + ", ".join(str(c) for c in point) + ")"


def format_output(output: Optional[AlgorithmOutput]) -> str:
    if isinstance(output, ScalarOutput):
        return str(output.value)
    if isinstance(output, CentersOutput):
        return "{" + ", ".join(_format_point(p) for p in output.centers) + "}"
    if isinstance(output, CoefficientsOutput):
        return "(" + ", ".join(str(c) for c in output.coefficients) + ")"
    return "null"


def verdict_line(verdict: PairedVerdict) -> str:
    return (
        f"attack final {format_output(verdict.attack_final)}, "
        f"truth final {format_output(verdict.truth_final)}, "
        f"differs {str(verdict.differs).lower()}"
    )


def _print(out, text: str) -> None:
    print(text, file=out)


# =============================================================================
# Canonical demo scenarios
# =============================================================================


def canonical_average() -> tuple[Algorithm, Callable, int, NatureInput, int]:
    ninput = (
        NatureElement(1, PointSet(((Fraction(1),), (Fraction(4),), (Fraction(5),)))),
        NatureElement(2, PointSet(((Fraction(1),), (Fraction(3),)))),
    )
    return AverageAlgorithm(), average_double_probe(), 2, ninput, 2


def canonical_max() -> tuple[Algorithm, Callable, int, NatureInput, int]:
    ninput = (
        NatureElement(2, Scalar(Fraction(100))),
        NatureElement(1, Scalar(Fraction(110))),
    )
    return MaxAlgorithm(), max_echo_attack(), 1, ninput, 1


def canonical_kcenter_sneak(
    k: int, eps: Fraction
) -> tuple[Algorithm, Callable, int, NatureInput, int]:
    params = kcenter_sneak_params(k, eps)
    cluster = PointSet(params.rho_cond.centers)  # type: ignore[union-attr]
    ninput = (NatureElement(1, cluster), NatureElement(2, params.u_cond))
    return KCenterAlgorithm(k), sneak_attack(params), 2, ninput, 1


def canonical_lr_sneak() -> tuple[Algorithm, Callable, int, NatureInput, int]:
    params = lr_sneak_params()
    warm = RowMultiset(
        (
            Row((Fraction(1), Fraction(1)), Fraction(1)),
            Row((Fraction(1), Fraction(0)), Fraction(1)),
        )
    )
    ninput = (NatureElement(1, warm), NatureElement(2, params.u_cond))
    return DlrAlgorithm(1), sneak_attack(params), 2, ninput, 1


def canonical_triangulation(
    d: int, seed: int
) -> tuple[Algorithm, Callable, int, NatureInput, int]:
    case = make_triangulation_cases(d)(seed)
    return DlrAlgorithm(d), triangulation_attack(d), 2, case.ninput, case.ell or (d + 2)


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
    ladder: Optional[int] = None

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
            previous = run.messages[index - 1] if index else None
            own_update = isinstance(previous, LedgerUpdate) and previous.agent == j
            if not own_update:
                ladder = 0
            continue
        if not isinstance(message.payload, RowMultiset):
            continue
        if isinstance(message, FactualDelivery):
            if message.agent == j:
                ladder = 0
                emit(index, message.payload.rows, "factual", current)
            continue
        if message.agent != j:
            emit(index, message.payload.rows, "ledger", estimator_after(index))
            continue
        if ladder is not None:
            ladder += 1
        role = "probe" if ladder is not None and ladder <= d + 1 else "deflection"
        emit(index, message.payload.rows, role, estimator_after(index))
    return table


def cmd_attack_demo(args: argparse.Namespace, out) -> int:
    name = args.name
    if name not in DEMO_NAMES:
        raise UsageError(f"unknown demo '{name}'; expected one of {', '.join(DEMO_NAMES)}")

    if name == "average":
        algorithm, strategy, j, ninput, ell = canonical_average()
    elif name == "max":
        algorithm, strategy, j, ninput, ell = canonical_max()
    elif name == "kcenter_sneak":
        algorithm, strategy, j, ninput, ell = canonical_kcenter_sneak(
            args.k, rational(args.eps)
        )
    elif name == "lr_sneak":
        algorithm, strategy, j, ninput, ell = canonical_lr_sneak()
    else:
        algorithm, strategy, j, ninput, ell = canonical_triangulation(args.d, args.seed)

    agent_count = 3 if name == "triangulation" else 2
    verdict = check_condition_i(
        algorithm, strategy, j, ninput, ell=ell, agent_count=agent_count
    )
    _print(out, verdict_line(verdict))

    attack_view = observed_history(verdict.run_attack, j)
    if name == "average":
        inferred = average_infer_from_history(attack_view)
        exact = ScalarOutput(inferred.true_average) == verdict.truth_final
        _print(
            out,
            f"inference: truth-run final {inferred.true_average} "
            f"(exact match: {str(exact).lower()})",
        )
    elif name == "max":
        inferred = max_infer(attack_view)
        exact = inferred == verdict.truth_final
        _print(
            out,
            f"inference: truth-run final {format_output(inferred)} "
            f"(exact match: {str(exact).lower()})",
        )
    elif name == "triangulation":
        result = triangulation_infer_from_history(attack_view, args.d)
        inferred = result.truth_output
        exact = inferred == verdict.truth_final
        _print(
            out,
            f"inference: truth-run final {format_output(inferred)} "
            f"(exact match: {str(exact).lower()})",
        )
        table = triangulation_csv_rows(verdict.run_attack, j, args.d)
        if args.csv:
            with open(args.csv, "w", newline="", encoding="utf-8") as handle:
                csv.writer(handle).writerows(table)
            _print(out, f"csv written to {args.csv}")
        else:
            writer = csv.writer(sys.stdout)
            writer.writerows(table)
    else:
        label = classify_strategy_run(verdict.run_attack, j, truth_run=verdict.run_truth)
        _print(out, f"classification: {label.value}")
    return 0


# =============================================================================
# verify
# =============================================================================


def _witness_json(witness: ConfoundingWitness) -> dict:
    def encode(ninput: NatureInput) -> list[dict]:
        entries = []
        for element in ninput:
            entry: dict = {"agent": element.agent, "payload": payload_to_json(element.payload)}
            if element.round is not None:
                entry["round"] = element.round
            entries.append(entry)
        return entries

    return {
        "input_a": encode(witness.input_a),
        "input_b": encode(witness.input_b),
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


def _suite_condition_i(args: argparse.Namespace) -> tuple[dict, bool]:
    attack = args.attack
    if attack == "average":
        algorithm, strategy, j, ninput, ell = canonical_average()
    elif attack == "max_echo":
        algorithm, strategy, j, ninput, ell = canonical_max()
    elif attack == "kcenter_sneak":
        algorithm, strategy, j, ninput, ell = canonical_kcenter_sneak(3, Fraction(1, 1000))
    elif attack == "lr_sneak":
        algorithm, strategy, j, ninput, ell = canonical_lr_sneak()
    elif attack == "triangulation":
        algorithm, strategy, j, ninput, ell = canonical_triangulation(args.d, args.seed)
    else:
        raise UsageError(f"suite condition_i does not cover attack '{attack}'")
    agent_count = 3 if attack == "triangulation" else 2
    verdict = check_condition_i(
        algorithm, strategy, j, ninput, ell=ell, agent_count=agent_count
    )
    report = _base_report(attack, algorithm.name, "continuous", ell)
    report["condition_i"] = _condition_i_json(verdict)
    return report, verdict.differs


def _suite_condition_i_star(args: argparse.Namespace) -> tuple[dict, bool]:
    attack = args.attack
    if attack == "average":
        algorithm: Algorithm = AverageAlgorithm()
        strategy, j, ell = average_double_probe(), 2, 2
        generator = make_average_cases(j=j)
        expect_pass = True
    elif attack == "max_echo":
        algorithm = MaxAlgorithm()
        strategy, j, ell = max_echo_attack(), 1, 1
        generator = make_max_cases(j=j)
        expect_pass = False
    elif attack == "triangulation":
        algorithm = DlrAlgorithm(args.d)
        strategy, j, ell = triangulation_attack(args.d), 2, args.d + 2
        generator = make_triangulation_cases(args.d, j=j)
        expect_pass = True
    else:
        raise UsageError(f"suite condition_i_star does not cover attack '{attack}'")
    star = check_condition_i_star(algorithm, strategy, j, generator, args.count, seed=args.seed)
    report = _base_report(attack, algorithm.name, "continuous", ell)
    report["seeds"] = star["seeds"]
    report["condition_i_star"] = {
        "pass": star["pass"],
        "non_differing_seeds": star["non_differing_seeds"],
        "generator_bound": star["generator_bound"],
    }
    return report, star["pass"] == expect_pass


def _suite_inference(args: argparse.Namespace) -> tuple[dict, bool]:
    attack = args.attack
    if attack == "average":
        algorithm: Algorithm = AverageAlgorithm()
        strategy, j, ell = average_double_probe(), 2, 2
        generator = make_average_cases(j=j)

        def inference(o):
            return ScalarOutput(average_infer_from_history(o).true_average)

    elif attack == "max_echo":
        algorithm = MaxAlgorithm()
        strategy, j, ell = max_echo_attack(), 1, 1
        generator = make_max_cases(j=j)
        inference = max_infer
    elif attack == "triangulation":
        algorithm = DlrAlgorithm(args.d)
        strategy, j, ell = triangulation_attack(args.d), 2, args.d + 2
        generator = make_triangulation_cases(args.d, j=j)

        def inference(o):
            return triangulation_infer_from_history(o, args.d).truth_output

    else:
        raise UsageError(f"suite inference does not cover attack '{attack}'")
    rep = verify_inference(algorithm, strategy, inference, generator, args.count, j=j, seed=args.seed)
    report = _base_report(attack, algorithm.name, "continuous", ell)
    report["seeds"] = rep["seeds"]
    report["inference_pass_rate"] = format_rational(rep["pass_rate"])
    report["inference_failed_seeds"] = rep["failed_seeds"]
    return report, rep["pass_rate"] == 1


def _suite_periodic_safety(args: argparse.Namespace) -> tuple[dict, bool]:
    algorithm_name = args.algorithm
    witnesses = []
    all_valid = True
    for seed in range(args.seed, args.seed + args.count):
        if algorithm_name == "dlr":
            algorithm, strategy, case = lr_periodic_scenario(seed)
            witness = periodic_lambda_confounder(
                algorithm, case.ninput, strategy, 2, agent_count=case.agent_count
            )
        elif algorithm_name == "kcenter":
            algorithm, strategy, case = kcenter_periodic_scenario(seed)
            witness = periodic_kcenter_omission_confounder(
                algorithm, case.ninput, strategy, 2, agent_count=case.agent_count
            )
        else:
            raise UsageError(
                f"suite periodic_safety does not cover algorithm '{algorithm_name}'"
            )
        if witness is None or not witness.is_valid():
            all_valid = False
            witnesses.append({"seed": seed, "valid": False})
        else:
            entry = _witness_json(witness)
            entry["seed"] = seed
            witnesses.append(entry)
    report = _base_report(args.attack or f"{algorithm_name}_sneak", algorithm_name, "periodic", None)
    report["seeds"] = {"start": args.seed, "count": args.count}
    report["witnesses"] = witnesses
    return report, all_valid and args.count > 0


def cmd_verify(args: argparse.Namespace, out) -> int:
    if args.suite == "condition_i":
        report, met = _suite_condition_i(args)
    elif args.suite == "condition_i_star":
        report, met = _suite_condition_i_star(args)
    elif args.suite == "inference":
        report, met = _suite_inference(args)
    elif args.suite == "periodic_safety":
        report, met = _suite_periodic_safety(args)
    else:
        raise UsageError(
            f"unknown suite '{args.suite}'; expected one of {', '.join(VERIFY_SUITES)}"
        )
    report["suite"] = args.suite
    report["expectation_met"] = met
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.json:
        Path(args.json).write_text(text + "\n", encoding="utf-8")
        _print(out, f"report written to {args.json}")
    else:
        _print(out, text)
    return 0 if met else 1


# =============================================================================
# run
# =============================================================================


def cmd_run(args: argparse.Namespace, out) -> int:
    scenario = load_scenario(args.file)
    run = run_scenario(scenario)
    lines = trace_lines(run)
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        for line in lines:
            _print(out, line)
    return 0


# =============================================================================
# Entry point
# =============================================================================


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
    p_demo.add_argument("--eps", default="1/1000", help="cluster spread for kcenter_sneak")
    p_demo.add_argument("--seed", type=int, default=7, help="scenario seed for triangulation")
    p_demo.add_argument("--csv", help="write the triangulation point data to this path")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(VERIFY_SUITES)}")
    p_verify.add_argument("--attack", default=None, help="attack under test")
    p_verify.add_argument("--algorithm", default="dlr", help="algorithm for periodic_safety")
    p_verify.add_argument("--d", type=int, default=1, help="feature count for triangulation")
    p_verify.add_argument("--count", type=int, default=50, help="number of seeded scenarios")
    p_verify.add_argument("--seed", type=int, default=0, help="first seed")
    p_verify.add_argument("--json", help="write the JSON report to this path")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args, sys.stdout)
        if args.command == "attack-demo":
            return cmd_attack_demo(args, sys.stdout)
        return cmd_verify(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # engine errors surface as diagnostics, not tracebacks
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
