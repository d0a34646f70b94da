"""Command-line pipeline: check, geometry, intersect, solve, refine.

Exit codes: 0 on success, 1 when a certification or convergence stage
fails (the stage is named on stderr), 2 for configuration or usage
errors. All file outputs are deterministic for a fixed configuration
and seed; nothing written here contains timestamps, so byte-for-byte
comparison across runs is a supported way to audit determinism.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional, Sequence

from . import __version__
from .config import RunConfig, load_config, to_problem_spec
from .diagnostics import run_all_checks
from .errors import ConfigError, LinkingSaddleError
from .functional import Problem, discretize, validate_hypotheses
from .linking import (
    AFFINE_START_DEGREE,
    MAX_DEGREE_DIMENSION,
    build_frame,
    choose_radii,
    displacement_residual,
    estimate_geometry,
    homotopy_chart_map,
    intersection_point,
    brouwer_degree_small,
    sample_sets,
    shipped_deformations,
)
from .reporting import write_csv, write_float_csv, write_manifest, write_pgm, write_svg_trace
from .solver import minimax_consistency, ps_monitor, solve_saddle
from .state import mirrored

__all__ = ["main"]


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _fail(stage: str, detail: str) -> int:
    print(f"FAILED at stage '{stage}': {detail}", file=sys.stderr)
    return 1


def _load(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.frame.seed = args.seed
    if args.out is not None:
        cfg.output.dir = args.out
    return cfg


def _resolve_radii(cfg: RunConfig, problem: Problem):
    if cfg.frame.r != "auto":
        return float(cfg.frame.r), float(cfg.frame.rho), None
    choice = choose_radii(problem)
    return choice.r, choice.rho, choice


def _frame_for(cfg: RunConfig, problem: Problem, r: float, rho: float):
    return build_frame(problem, r, rho, d_y=cfg.frame.d_y)


def _frame_and_geometry(cfg: RunConfig, problem: Problem, command: str, failed_steps):
    """Radii, frame and geometry, the prelude of geometry, intersect and solve.

    Returns ``(frame, geometry, radii_choice)``. If any of them fails
    with a library error, it writes ``failed_steps`` to the manifest,
    reports the failure at stage 'geometry' and returns None.
    """
    try:
        r, rho, choice = _resolve_radii(cfg, problem)
        frame = _frame_for(cfg, problem, r, rho)
        geo = estimate_geometry(frame)
    except ConfigError:
        raise
    except LinkingSaddleError as exc:
        _write_run_manifest(cfg, command, failed_steps)
        _fail("geometry", str(exc))
        return None
    return frame, geo, choice


def _out_path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.output.dir, name)


def _write_run_manifest(cfg: RunConfig, command: str, steps) -> None:
    write_manifest(
        _out_path(cfg, "manifest.cfg"),
        cfg,
        {"command": command, "version": __version__, "seed": str(cfg.frame.seed)},
        steps,
    )


def cmd_check(cfg: RunConfig, quiet: bool) -> int:
    problem = discretize(to_problem_spec(cfg))
    rows = run_all_checks(problem, seed=cfg.frame.seed)
    write_csv(
        _out_path(cfg, "check_report.csv"),
        ["suite", "name", "measured", "bound", "passed", "required"],
        [(r.suite, r.name, r.measured, r.bound, r.passed, r.required) for r in rows],
    )
    _write_run_manifest(cfg, "check", [("checks", f"{sum(r.passed for r in rows)}/{len(rows)}")])
    required_bad = [r for r in rows if r.required and not r.passed]
    advisory_bad = [r for r in rows if not r.required and not r.passed]
    for r in rows:
        _say(quiet, f"[{'pass' if r.passed else 'FAIL'}] {r.suite}/{r.name}: "
                    f"{r.measured:.3e} vs {r.bound:.3e}"
                    + ("" if r.required else " (informational)"))
    if advisory_bad:
        _say(quiet, f"note: {len(advisory_bad)} informational check(s) failed "
                    "(preset not certified for the linking argument)")
    if required_bad:
        return _fail("check", f"{len(required_bad)} required self-check(s) failed")
    _say(quiet, f"all {len(rows) - len(advisory_bad)} required checks passed")
    return 0


def cmd_geometry(cfg: RunConfig, quiet: bool) -> int:
    problem = discretize(to_problem_spec(cfg))
    hyp = validate_hypotheses(problem.nl)
    prelude = _frame_and_geometry(cfg, problem, "geometry", [("radii", "failed")])
    if prelude is None:
        return 1
    _, geo, choice = prelude
    certified = geo.certified and hyp.all_ok
    write_csv(
        _out_path(cfg, "geometry_report.csv"),
        ["sphere_floor", "sphere_min", "boundary_max", "margin", "separation_ok",
         "hypotheses_ok", "certified", "base_max", "cap_max", "r", "rho", "auto_radii"],
        [(geo.sphere_floor, geo.sphere_min, geo.boundary_max, geo.margin, geo.certified,
          hyp.all_ok, certified, geo.base_max, geo.cap_max, geo.r, geo.rho,
          choice is not None)],
    )
    _write_run_manifest(cfg, "geometry", [("geometry", "certified" if certified else "not certified")])
    _say(quiet, f"sphere floor {geo.sphere_floor:.6g}, boundary ceiling {geo.boundary_max:.6g}, "
                f"margin {geo.margin:.6g}")
    if not certified:
        reasons = []
        if not geo.certified:
            reasons.append("no positive separation margin")
        if not hyp.all_ok:
            reasons.append("growth hypotheses failed")
        return _fail("geometry", "not certified: " + "; ".join(reasons))
    _say(quiet, f"geometry certified with margin {geo.margin:.6g}")
    return 0


def cmd_intersect(cfg: RunConfig, quiet: bool) -> int:
    if cfg.frame.d_y + 1 > MAX_DEGREE_DIMENSION:
        raise ConfigError(
            f"intersect counts degrees on charts of dimension d_y + 1 <= {MAX_DEGREE_DIMENSION}, "
            f"got frame.d_y = {cfg.frame.d_y}"
        )
    problem = discretize(to_problem_spec(cfg))
    prelude = _frame_and_geometry(cfg, problem, "intersect", [("radii", "failed")])
    if prelude is None:
        return 1
    frame, geo, _ = prelude
    samples = sample_sets(frame, interior_count=12, seed=cfg.frame.seed)
    gammas = shipped_deformations(frame)
    rows = []
    failures = []
    # H_0 is xi - r e_last for every gamma: its degree is proved, not counted
    for gamma in gammas:
        try:
            # the end degree and the certificate share the t = 1 root sweep
            deg_end = brouwer_degree_small(homotopy_chart_map(gamma, 1.0), frame)
            cert = intersection_point(gamma, roots=deg_end.roots)
            disp = displacement_residual(gamma, samples.interior_chart)
            ok = (deg_end.degree == AFFINE_START_DEGREE
                  and minimax_consistency(cert.energy, geo.sphere_min))
            rows.append((gamma.name, cert.antidiagonal_residual, cert.radius_residual,
                         cert.energy, geo.sphere_min, AFFINE_START_DEGREE, deg_end.degree,
                         deg_end.boundary_min, disp, ok))
            if not ok:
                failures.append(gamma.name)
            _say(quiet, f"{gamma.name}: degree {AFFINE_START_DEGREE} -> {deg_end.degree}, "
                        f"image energy {cert.energy:.6g}")
        except LinkingSaddleError as exc:
            rows.append((gamma.name, float("nan"), float("nan"), float("nan"),
                         geo.sphere_min, 0, 0, float("nan"), float("nan"), False))
            failures.append(f"{gamma.name} ({exc})")
    write_csv(
        _out_path(cfg, "intersection_report.csv"),
        ["deformation", "antidiagonal_residual", "radius_residual", "image_energy",
         "sphere_min", "degree_start", "degree_end", "boundary_min",
         "displacement_residual", "ok"],
        rows,
    )
    _write_run_manifest(cfg, "intersect",
                        [("intersections", "ok" if not failures else "failed")])
    if failures:
        return _fail("intersect", "; ".join(failures))
    _say(quiet, f"all {len(rows)} deformations certified")
    return 0


def cmd_solve(cfg: RunConfig, quiet: bool) -> int:
    problem = discretize(to_problem_spec(cfg))
    steps: List[tuple] = []

    hyp = validate_hypotheses(problem.nl)
    steps.append(("hypotheses", "ok" if hyp.all_ok else "failed"))
    if not hyp.all_ok:
        _write_run_manifest(cfg, "solve", steps)
        bad = ", ".join(sorted(hyp.witnesses)) or "sampled growth checks"
        return _fail("hypotheses", f"preset fails: {bad}")

    prelude = _frame_and_geometry(cfg, problem, "solve", steps + [("geometry", "failed")])
    if prelude is None:
        return 1
    _, geo, _ = prelude
    steps.append(("geometry", "certified" if geo.certified else "failed"))
    if not geo.certified:
        _write_run_manifest(cfg, "solve", steps)
        return _fail("geometry", f"margin {geo.margin:.6g} not certifiable")

    report = solve_saddle(problem, cfg.solver)
    solve_ok = report.converged and report.nontrivial
    steps.append(("solve", report.message if not solve_ok else "converged"))

    ps = ps_monitor(problem, report.trace, cfg.solver.grad_tol)
    steps.append(("compactness", "ok" if ps.ok else "failed"))
    mm_ok = minimax_consistency(report.critical_value, geo.sphere_min)
    steps.append(("minimax", "ok" if mm_ok else "failed"))

    grid = problem.grid
    coord_headers = ["x"] if grid.dimension == 1 else ["x", "y"]
    write_float_csv(_out_path(cfg, "solution.csv"), coord_headers + ["u", "v"],
                    [*grid.coords.T, report.state.u, report.state.v])
    write_csv(
        _out_path(cfg, "trace.csv"),
        ["iteration", "energy", "gradient_norm", "step_size", "state_norm"],
        [(i, report.trace.energies[i], report.trace.gradient_norms[i],
          report.trace.step_sizes[i], report.trace.state_norms[i])
         for i in range(len(report.trace))],
    )
    write_csv(
        _out_path(cfg, "saddle_report.csv"),
        ["method", "converged", "nontrivial", "critical_value", "gradient_norm",
         "residual_dual", "residual_euclidean", "iterations", "state_norm",
         "sphere_min", "boundary_max", "margin", "minimax_ok",
         "ps_bounded", "ps_tail_cauchy", "ps_fit_c1", "ps_fit_c2", "ps_fit_slack"],
        # residual_dual: the dual norm of the residual is the gradient norm
        [(report.method, report.converged, report.nontrivial, report.critical_value,
          report.gradient_norm, report.gradient_norm, report.residual_euclidean,
          report.iterations, report.trace.state_norms[-1],
          geo.sphere_min, geo.boundary_max, geo.margin, mm_ok,
          ps.bounded, ps.tail_cauchy, ps.fit_c1, ps.fit_c2, ps.fit_slack)],
    )
    if cfg.output.heatmaps and grid.dimension == 2:
        u, v = report.state.u, report.state.v
        image = write_pgm(_out_path(cfg, "solution_u.pgm"), grid.as_mesh(u),
                          comment="u component")
        # on the diagonal route v is u bitwise: the two images differ in their comments only
        write_pgm(_out_path(cfg, "solution_v.pgm"), image if mirrored(u, v) else grid.as_mesh(v),
                  comment="v component")
    if cfg.output.svg:
        write_svg_trace(_out_path(cfg, "trace.svg"),
                        report.trace.energies, report.trace.gradient_norms)
    _write_run_manifest(cfg, "solve", steps)

    _say(quiet, f"method {report.method}: {report.message} after {report.iterations} iterations")
    _say(quiet, f"critical value {report.critical_value:.12g}, "
                f"gradient norm {report.gradient_norm:.3e}, "
                f"state norm {report.trace.state_norms[-1]:.6g}")
    if not solve_ok:
        detail = report.message if not report.converged else "converged to the trivial state"
        return _fail("solve", detail)
    if not ps.ok:
        return _fail("compactness", f"trace checks failed (tail diameter {ps.tail_diameter:.3e})")
    if not mm_ok:
        return _fail("minimax", f"critical value {report.critical_value:.6g} "
                                f"undercuts J at the sphere's anchor {geo.sphere_min:.6g}")
    _say(quiet, "pipeline complete: saddle certified")
    return 0


def _refine_level(cfg: RunConfig, shape: tuple[int, int]):
    domain = dataclasses.replace(cfg.domain, nx=shape[0], ny=shape[1])
    problem = discretize(to_problem_spec(dataclasses.replace(cfg, domain=domain)))
    return problem, solve_saddle(problem, cfg.solver)


def cmd_refine(cfg: RunConfig, quiet: bool, levels: int) -> int:
    if levels < 2:
        raise ConfigError(f"refinement needs at least 2 levels, got {levels}")
    # each axis refines on its own, so a rectangle keeps its aspect ratio
    shapes = [(cfg.domain.nx, cfg.domain.ny)]
    for _ in range(levels - 1):
        shapes.append(tuple(2 * n + 1 for n in shapes[-1]))
    try:
        results = [_refine_level(cfg, shape) for shape in shapes]
    except ConfigError:
        raise
    except LinkingSaddleError as exc:
        _write_run_manifest(cfg, "refine", [("levels", str(levels)), ("refine", "failed")])
        return _fail("refine", str(exc))

    rows = []
    values = [rep.critical_value for _, rep in results]
    diffs = [float("nan")] + [abs(values[i] - values[i - 1]) for i in range(1, len(values))]
    for i, (problem, rep) in enumerate(results):
        ratio = diffs[i - 1] / diffs[i] if i >= 2 and diffs[i] > 0 else float("nan")
        rows.append((i, shapes[i][0], problem.grid.h[0], rep.critical_value,
                     rep.gradient_norm, rep.converged, diffs[i], ratio))
        _say(quiet, f"level {i}: n={shapes[i][0]}, value {rep.critical_value:.10g}, "
                    f"diff {diffs[i]:.3e}, ratio {ratio:.3g}")
    write_csv(
        _out_path(cfg, "refine_table.csv"),
        ["level", "n", "h", "critical_value", "gradient_norm", "converged",
         "diff_from_previous", "cauchy_ratio"],
        rows,
    )
    _write_run_manifest(cfg, "refine", [("levels", str(levels))])
    bad = [i for i, (_, rep) in enumerate(results) if not rep.converged]
    if bad:
        return _fail("refine", f"levels {bad} did not converge")
    trivial = [i for i, (_, rep) in enumerate(results) if not rep.nontrivial]
    if trivial:
        return _fail("refine", f"levels {trivial} converged to the trivial state")
    _say(quiet, f"all {levels} levels converged")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linking-saddle",
        description="Certified saddle points of strongly indefinite coupled energies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("check", "run the self-check suites and write check_report.csv"),
        ("geometry", "estimate and certify the linking separation"),
        ("intersect", "certify intersections and homotopy degrees for shipped deformations"),
        ("solve", "full pipeline: hypotheses, geometry, solve, compactness, minimax"),
        ("refine", "re-solve on doubled grids and tabulate level differences"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", help="path to a key=value configuration file")
        cmd.add_argument("--seed", type=int, help="override frame.seed")
        cmd.add_argument("--out", help="override output.dir")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress output")
        if name == "refine":
            cmd.add_argument("--levels", type=int, default=4,
                             help="number of refinement levels (default 4)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "check":
            return cmd_check(cfg, args.quiet)
        if args.command == "geometry":
            return cmd_geometry(cfg, args.quiet)
        if args.command == "intersect":
            return cmd_intersect(cfg, args.quiet)
        if args.command == "solve":
            return cmd_solve(cfg, args.quiet)
        return cmd_refine(cfg, args.quiet, args.levels)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except LinkingSaddleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
