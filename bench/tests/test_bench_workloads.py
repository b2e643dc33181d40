"""Tests for the benchmark's seeded inputs, unit checks and entry point."""

from __future__ import annotations

import dataclasses
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402
from exclusim.algorithms import kcenter_solution  # noqa: E402
import worker  # noqa: E402
from worker import run_pass, summarize  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = workloads.input_bytes(workloads.build(workload, 11))
    again = workloads.input_bytes(workloads.build(workload, 11))
    other = workloads.input_bytes(workloads.build(workload, 12))
    assert first == again
    assert first != other


def test_clustering_strata_fix_the_problem_sizes():
    units = workloads.build("clustering", 5)
    kinds = [u.kind for u in units]
    assert kinds.count("kcenter") == sum(workloads.KCENTER_STRATA.values())
    assert kinds.count("kmedian") == sum(workloads.KMEDIAN_STRATA.values())
    assert kinds.count("lr_confounder") == workloads.LR_CONFOUNDERS
    assert len(units) >= 100


def test_every_workload_has_enough_units_for_a_p90():
    assert len(workloads.build("ladders", 3)) >= 100
    assert sum(u.weight for u in workloads.build("streams", 3)) >= 100


@pytest.mark.parametrize("kind", sorted(workloads.STREAM_LENGTHS))
def test_short_streams_pass_their_checks(kind):
    spec = workloads.stream_spec(kind, random.Random(f"short:{kind}"), 16)
    assert workloads.stream_unit(spec).run()


def test_wrong_expected_value_is_a_failed_unit():
    spec = workloads.stream_spec("max", random.Random("wrong"), 16)
    wrong = dataclasses.replace(spec, expected=spec.expected + 1)
    units = [workloads.stream_unit(spec), workloads.stream_unit(wrong)]
    records = run_pass(units)
    assert [passed for _, _, passed, _ in records] == [True, False]
    summary = summarize([records, records, records])
    assert summary["attempted"] == 3 * 32
    assert summary["failed"] == 3 * 16


def test_a_unit_that_raises_is_counted_failed_not_raised(capsys):
    def explode() -> bool:
        raise ZeroDivisionError("deliberate")

    records = run_pass([workloads.Unit("boom", 5, (), explode)])
    assert len(records) == 1 and records[0][2:] == (False, 5)
    assert "deliberate" in capsys.readouterr().err


def test_summary_uses_each_units_median_over_passes():
    passes = [
        [(1.0, 0.5, True, 1), (2.0, 1.0, True, 3)],
        [(9.0, 4.5, True, 1), (2.0, 1.5, True, 3)],
        [(3.0, 0.5, True, 1), (4.0, 2.0, True, 3)],
    ]
    summary = summarize(passes)
    assert summary["units_per_s"] == 4 / (0.5 + 1.5)
    assert summary["units_per_plain_s"] == 4 / (3.0 + 2.0)
    assert summary["failed"] == 0 and summary["attempted"] == 12


def test_reference_seconds_scale_with_the_reference_loop(monkeypatch):
    loops = iter([0.010, 0.030])
    monkeypatch.setattr(worker, "loop_seconds", lambda: next(loops))
    records = run_pass([workloads.Unit("ok", 1, (), lambda: True)])
    seconds, reference, passed, _ = records[0]
    assert passed
    assert reference == pytest.approx(seconds * worker.REFERENCE_LOOP_S / 0.020)


def test_kcenter_oracle_agrees_with_the_solver_on_ties():
    # {-1, 1}, {-2, 1} and {-1, 2} all cost 1; the smallest norms win.
    values = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    expected = ((Fraction(-1),), (Fraction(1),))
    assert workloads.kcenter_oracle(values, 2) == expected
    assert kcenter_solution([(v,) for v in values], 2).centers == expected


def test_run_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladders", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
