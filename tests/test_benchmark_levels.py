"""The package still reaches the reference levels the benchmark pins.

``perfbench/workloads.py`` holds the critical values of its 128² CLI
solve, of the 32² solve of its witness job and of its four-level refine
from 16², to ``REL_TOL`` relative. The benchmark checks them only in a traced run; these tests
read the same constants, so a numerical change that moves them fails in
the test suite too.
"""

import importlib.util
from pathlib import Path

import linking_saddle
import linking_saddle.cli  # noqa: F401  (the refine workload runs the CLI)
from linking_saddle import DomainSpec, ProblemSpec, discretize, power_nonlinearity, solve_saddle

ROOT = Path(__file__).resolve().parents[1]


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def test_square32_solve_reaches_the_witness_level():
    problem = discretize(ProblemSpec(DomainSpec.square(32), power_nonlinearity()))
    report = solve_saddle(problem)
    assert report.converged and report.nontrivial
    level = workloads.WITNESS32_LEVEL
    assert abs(report.critical_value - level) <= workloads.REL_TOL * abs(level)


def test_refine_from_square16_reaches_the_refine_levels(tmp_path):
    job = workloads.RefineSquare16(linking_saddle, str(tmp_path), seed=1)
    out = tmp_path / "out"
    assert job.run(str(out)) == 0
    levels = [float(row["critical_value"])
              for row in workloads.read_rows(str(out / "refine_table.csv"))]
    assert len(levels) == len(workloads.REFINE16_LEVELS)
    for got, want in zip(levels, workloads.REFINE16_LEVELS):
        assert abs(got - want) <= workloads.REL_TOL * abs(want), levels
    # convergence of every level and the Cauchy ratios of the benchmark's check
    assert job.check(0, str(out)) == []


def test_cli_square128_solve_reaches_the_solve_level(tmp_path):
    # the level every gated solve-square128 job checks, with its flags
    config = workloads.write_config(str(tmp_path / "run.cfg"), workloads.square_config(128, 7))
    out = tmp_path / "out"
    assert linking_saddle.cli.main(["solve", "--config", config, "--out", str(out),
                                    "--quiet"]) == 0
    failures = []
    level = workloads.check_saddle_report(str(out), failures)
    assert failures == []
    want = workloads.SOLVE128_LEVEL
    assert abs(level - want) <= workloads.REL_TOL * abs(want)
