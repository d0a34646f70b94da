"""The benchmark's workloads: inputs from a seed, one job, output checks.

Each workload runs the package through its public entry points: the
in-process CLI ``main`` or the library functions, always looked up on
the package at call time so that a traced run sees its wrappers. A job
returns whatever its checks need; ``check`` returns the names of the
failed checks, an empty list when the job's outputs are correct.

Reference values are those the package gives at the commit that added
this benchmark; they do not depend on the seed. Levels must agree to
1e-12 relative, the tolerance the roadmap sets for numerical changes.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from typing import Dict, List, Sequence, Tuple

REL_TOL = 1e-12

SOLVE128_LEVEL = 75.513646733262192
WITNESS32_LEVEL = 75.32535229280042
REFINE16_LEVELS = (74.763616574352611, 75.337048875451686,
                   75.479429761791636, 75.514966778174397)
DETERMINISTIC_FILES = ("saddle_report.csv", "trace.csv", "solution.csv")


class PackageMissing(RuntimeError):
    pass


def load_package(root: str):
    """Import ``linking_saddle`` from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "linking_saddle", "__init__.py")):
        raise PackageMissing(f"no package source under {src}")
    sys.path.insert(0, src)
    import linking_saddle

    where = os.path.realpath(linking_saddle.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise PackageMissing(f"linking_saddle imported from {where}, not from {src}")
    import linking_saddle.cli  # noqa: F401  (the tracer patches it)

    return linking_saddle


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * abs(reference)


def read_rows(path: str) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_config(path: str, lines: Sequence[str]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def square_config(n: int, seed: int, extra: Sequence[str] = ()) -> List[str]:
    return [
        "domain.dimension = 2", f"domain.nx = {n}", f"domain.ny = {n}",
        "problem.preset = power", "problem.lambda = 0.0", "problem.delta = 0.0",
        f"frame.seed = {seed}", *extra,
    ]


def line_config(n: int, seed: int, extra: Sequence[str] = ()) -> List[str]:
    return [
        "domain.dimension = 1", f"domain.nx = {n}",
        "problem.preset = power", "problem.lambda = 0.0", "problem.delta = 0.0",
        f"frame.seed = {seed}", *extra,
    ]


def check_saddle_report(out_dir: str, failures: List[str]) -> float:
    row = read_rows(os.path.join(out_dir, "saddle_report.csv"))[0]
    for flag in ("converged", "nontrivial", "minimax_ok", "ps_bounded", "ps_tail_cauchy"):
        if row[flag] != "true":
            failures.append(f"{flag} is {row[flag]}")
    return float(row["critical_value"])


class Workload:
    """One named input set; subclasses build the inputs and run one job."""

    name = ""
    # (dimension, interior nodes per axis) of every grid a job discretizes
    grids: Tuple[Tuple[int, int], ...] = ()

    def __init__(self, ls, workdir: str, seed: int) -> None:
        self.ls = ls
        self.seed = seed
        os.makedirs(workdir, exist_ok=True)

    def run(self, out_dir: str):
        raise NotImplementedError

    def check(self, result, out_dir: str) -> List[str]:
        raise NotImplementedError


class SolveSquare128(Workload):
    name = "solve-square128"
    grids = ((2, 128),)

    def __init__(self, ls, workdir, seed):
        super().__init__(ls, workdir, seed)
        self.config = write_config(os.path.join(workdir, "run.cfg"),
                                   square_config(128, seed))
        self.reference = None

    def run(self, out_dir):
        return self.ls.cli.main(["solve", "--config", self.config, "--out", out_dir, "--quiet"])

    def check(self, rc, out_dir):
        if rc != 0:
            return [f"solve exit code {rc}"]
        failures: List[str] = []
        level = check_saddle_report(out_dir, failures)
        if not close(level, SOLVE128_LEVEL):
            failures.append(f"critical value {level!r} != reference {SOLVE128_LEVEL!r}")
        files = {}
        for name in DETERMINISTIC_FILES:
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
        if self.reference is None:
            self.reference = files
        else:
            failures += [f"{name} differs from the first job's"
                         for name in DETERMINISTIC_FILES if files[name] != self.reference[name]]
        return failures


class IntersectLine255(Workload):
    name = "intersect-line255"
    grids = ((1, 255),)

    def __init__(self, ls, workdir, seed):
        super().__init__(ls, workdir, seed)
        self.configs = [
            write_config(os.path.join(workdir, f"d_y{d}.cfg"),
                         line_config(255, seed, [f"frame.d_y = {d}"]))
            for d in (1, 2)
        ]

    def run(self, out_dir):
        return [self.ls.cli.main(["intersect", "--config", cfg,
                                  "--out", os.path.join(out_dir, f"d_y{d}"), "--quiet"])
                for d, cfg in zip((1, 2), self.configs)]

    def check(self, codes, out_dir):
        failures: List[str] = []
        for d, rc in zip((1, 2), codes):
            if rc != 0:
                failures.append(f"d_y={d}: intersect exit code {rc}")
                continue
            rows = read_rows(os.path.join(out_dir, f"d_y{d}", "intersection_report.csv"))
            if len(rows) != 3:
                failures.append(f"d_y={d}: {len(rows)} deformations reported, expected 3")
            for row in rows:
                degrees = (row["degree_start"], row["degree_end"])
                if row["ok"] != "true" or degrees != ("1", "1"):
                    failures.append(f"d_y={d}: {row['deformation']} ok={row['ok']} "
                                    f"degree {degrees[0]} -> {degrees[1]}")
        return failures


class WitnessSquare32(Workload):
    name = "witness-square32"

    def run(self, out_dir):
        ls, seed = self.ls, self.seed
        problem = ls.discretize(ls.ProblemSpec(ls.DomainSpec.square(32),
                                               ls.power_nonlinearity(), lam=0.0, delta=0.0))
        rep = ls.solve_saddle(problem)
        radii = ls.choose_radii(problem, seed=seed)
        frame = ls.build_frame(problem, radii.r, radii.rho, anchor_direction=rep.state)
        geo = ls.estimate_geometry(frame, seed=seed)
        gamma = ls.flow_deformation(problem, frame)
        eps = 0.1 * rep.critical_value
        wit = ls.deformation_witness_search(problem, frame, gamma, rep.critical_value,
                                            geo.boundary_max, eps=eps, prox=1.0, seed=seed)
        return rep, wit, eps

    def check(self, result, out_dir):
        rep, wit, eps = result
        level = rep.critical_value
        failures = []
        if not (rep.converged and rep.nontrivial):
            failures.append(f"solve converged={rep.converged} nontrivial={rep.nontrivial}")
        if not close(level, WITNESS32_LEVEL):
            failures.append(f"critical value {level!r} != reference {WITNESS32_LEVEL!r}")
        clauses = {
            "witness found": wit.found,
            "precondition": wit.precondition_ok,
            "|J - c| <= 2 eps": abs(wit.energy - level) <= 2.0 * eps,
            "distance <= 2": wit.distance <= 2.0,
            "gradient < 8 eps": wit.gradient_norm < 8.0 * eps,
        }
        failures += [f"C08 clause failed: {name}" for name, ok in clauses.items() if not ok]
        return failures


class RefineSquare16(Workload):
    name = "refine-square16"
    grids = ((2, 16), (2, 33), (2, 67), (2, 135))

    def __init__(self, ls, workdir, seed):
        super().__init__(ls, workdir, seed)
        self.config = write_config(os.path.join(workdir, "run.cfg"), square_config(16, seed))

    def run(self, out_dir):
        return self.ls.cli.main(["refine", "--config", self.config, "--out", out_dir,
                                 "--levels", "4", "--quiet"])

    def check(self, rc, out_dir):
        if rc != 0:
            return [f"refine exit code {rc}"]
        rows = read_rows(os.path.join(out_dir, "refine_table.csv"))
        if len(rows) != len(REFINE16_LEVELS):
            return [f"{len(rows)} levels reported, expected {len(REFINE16_LEVELS)}"]
        failures = []
        for row, ref in zip(rows, REFINE16_LEVELS):
            level = row["level"]
            if row["converged"] != "true":
                failures.append(f"level {level} did not converge")
            if not close(float(row["critical_value"]), ref):
                failures.append(f"level {level} value {row['critical_value']} != reference {ref!r}")
        for row in rows[2:]:
            ratio = float(row["cauchy_ratio"])
            if not 3.0 <= ratio <= 5.0:  # NaN fails too
                failures.append(f"level {row['level']} Cauchy ratio {ratio} outside [3, 5]")
        return failures


# The gated workloads. WitnessSquare32 and RefineSquare16 spread too
# widely between runs on a shared 2-CPU host for a bound (see README.md),
# so every traced run runs each of them once instead.
WORKLOADS = {cls.name: cls for cls in (SolveSquare128, IntersectLine255)}

# One-shot size ladder of the traced run: CLI solve at each size.
LADDER = (("n255", line_config, 255), ("sq64", square_config, 64),
          ("sq128", square_config, 128), ("sq255", square_config, 255))
# Labels of the traced run's one-shot jobs, as prefixes of their metrics.
ONE_SHOT_LABELS = tuple(f"ladder.{label}" for label, _, _ in LADDER) + ("witness32", "refine16")


def ladder_solve(ls, out_dir: str, config_lines: Sequence[str]) -> int:
    """One CLI solve of the ladder, writing its outputs to ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = write_config(os.path.join(out_dir, "run.cfg"), config_lines)
    return ls.cli.main(["solve", "--config", cfg, "--out", out_dir, "--quiet"])


def check_ladder(out_dir: str, rc: int) -> List[str]:
    if rc != 0:
        return [f"solve exit code {rc}"]
    failures: List[str] = []
    level = check_saddle_report(out_dir, failures)
    if not math.isfinite(level):
        failures.append(f"critical value {level}")
    return failures
