"""Self-check suites: recompute core identities against independent algebra.

Each row re-derives a contract of the library by a second route (padded
edge sums for the Dirichlet form, closed-form eigenvalues, divided
differences for derivatives) and compares. These run fast enough to
gate every pipeline invocation, and the check command turns them into a
CSV report. Hypothesis rows are informational: a preset that fails them
is reported, not rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .functional import (
    Problem,
    ProblemSpec,
    directional_derivative,
    euler_lagrange_residual,
    evaluate_J,
    power_nonlinearity,
    riesz_gradient,
    validate_hypotheses,
)
from .grid import DomainSpec, build_grid, eigenpairs
from .solver import _grad_and_norm
from .splitting import DiagonalSplitting, build_modal_basis, mixed_weak_norm, weighted_modal_norm
from .state import StatePair, pair_norm

__all__ = ["CheckRow", "grid_rows", "functional_rows", "splitting_rows", "hypothesis_rows", "run_all_checks"]


@dataclass
class CheckRow:
    suite: str
    name: str
    measured: float
    bound: float
    passed: bool
    required: bool = True


def _row(suite: str, name: str, measured: float, bound: float) -> CheckRow:
    return CheckRow(suite, name, float(measured), float(bound), bool(measured <= bound))


def _edge_sum_form(grid, u: np.ndarray, v: np.ndarray) -> float:
    """Dirichlet form recomputed from scratch as a sum over mesh edges."""
    if grid.dimension == 1:
        h = grid.h[0]
        up = np.concatenate([[0.0], u, [0.0]])
        vp = np.concatenate([[0.0], v, [0.0]])
        return float(np.sum(np.diff(up) * np.diff(vp)) / h)
    hx, hy = grid.h
    um = np.pad(grid.as_mesh(u), 1)
    vm = np.pad(grid.as_mesh(v), 1)
    sx = np.sum(np.diff(um, axis=0) * np.diff(vm, axis=0)) * hy / hx
    sy = np.sum(np.diff(um, axis=1) * np.diff(vm, axis=1)) * hx / hy
    return float(sx + sy)


def grid_rows(seed: int = 0) -> List[CheckRow]:
    rows: List[CheckRow] = []
    rng = np.random.default_rng(seed)

    grid1, op1 = build_grid(DomainSpec.interval(1))
    rows.append(_row("grid", "single-node-matrix", abs(op1.apply([1.0])[0] - 4.0), 1e-14))
    grid2, op2 = build_grid(DomainSpec.square(1))
    rows.append(_row("grid", "single-node-square-form", abs(op2.product([0.7], [0.7]) - 4 * 0.49), 1e-14))
    rows.append(_row("grid", "unit-quadrature-interval", abs(grid1.integrate([1.0]) - 0.5), 1e-15))
    rows.append(_row("grid", "unit-quadrature-square", abs(grid2.integrate([1.0]) - 0.25), 1e-15))

    for spec in (DomainSpec.interval(31), DomainSpec.rectangle(12, 9)):
        grid, op = build_grid(spec)
        n = grid.n_interior
        worst_sym = 0.0
        worst_edge = 0.0
        worst_coercive = -np.inf
        lam1 = eigenpairs(grid, op, 1)[0][0]
        for _ in range(25):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            scale = max(abs(op.product(u, u)), abs(op.product(v, v)), 1.0)
            worst_sym = max(worst_sym, abs(op.product(u, v) - op.product(v, u)) / scale)
            worst_edge = max(worst_edge, abs(op.product(u, v) - _edge_sum_form(grid, u, v)) / scale)
            quad = op.product(u, u)
            worst_coercive = max(
                worst_coercive, (lam1 * grid.integrate(u * u) - quad) / max(quad, 1.0)
            )
        tag = f"{spec.dimension}d"
        rows.append(_row("grid", f"form-symmetry-{tag}", worst_sym, 1e-12))
        rows.append(_row("grid", f"form-edge-sum-{tag}", worst_edge, 1e-12))
        rows.append(_row("grid", f"form-coercivity-{tag}", worst_coercive, 1e-9))

        rhs = rng.standard_normal(n)
        w = op.solve(rhs)
        rows.append(_row(
            "grid", f"solve-round-trip-{tag}",
            float(np.linalg.norm(op.apply(w) - rhs) / np.linalg.norm(rhs)), 1e-9,
        ))

    n_eig = 15
    grid, op = build_grid(DomainSpec.interval(n_eig))
    h = grid.h[0]
    k = np.arange(1, 8)
    exact = (2.0 - 2.0 * np.cos(k * np.pi / (n_eig + 1))) / h**2
    evals, vecs = eigenpairs(grid, op, 7)
    rows.append(_row("grid", "eigenvalues-closed-form", float(np.max(np.abs(evals - exact) / exact)), 1e-10))
    gram = np.abs(vecs @ op.apply(np.eye(n_eig)) @ vecs.T - np.eye(7)).max()
    rows.append(_row("grid", "eigenvector-form-orthonormality", float(gram), 1e-12))
    return rows


def _toy_problem() -> Problem:
    return Problem(ProblemSpec(DomainSpec.interval(1), power_nonlinearity()))


def functional_rows(seed: int = 0) -> List[CheckRow]:
    rows: List[CheckRow] = []
    rng = np.random.default_rng(seed + 1)

    toy = _toy_problem()
    rows.append(_row(
        "functional", "single-node-energy",
        abs(evaluate_J(toy, StatePair([1.0], [1.0])).total - 3.75), 1e-14,
    ))
    s = 2.0 * np.sqrt(2.0)
    crit = StatePair([s], [s])
    rows.append(_row("functional", "single-node-crest-energy",
                     abs(evaluate_J(toy, crit).total - 16.0), 1e-12))
    rows.append(_row("functional", "single-node-crest-gradient",
                     pair_norm(toy.op, riesz_gradient(toy, crit)), 1e-12))

    problem = Problem(ProblemSpec(DomainSpec.rectangle(8, 7), power_nonlinearity()))
    n = problem.n
    stiffness = problem.op.apply(np.eye(n))  # dense K, row by row
    worst_fd = 0.0
    worst_riesz = 0.0
    worst_dual = 0.0
    for _ in range(10):
        x = StatePair(rng.standard_normal(n), rng.standard_normal(n))
        d = StatePair(rng.standard_normal(n), rng.standard_normal(n))
        exact_dd = directional_derivative(problem, x, d)
        eps = 1e-5
        fd = (evaluate_J(problem, x + eps * d).total - evaluate_J(problem, x - eps * d).total) / (2 * eps)
        worst_fd = max(worst_fd, abs(fd - exact_dd) / max(1.0, abs(exact_dd)))
        g = riesz_gradient(problem, x)
        worst_riesz = max(
            worst_riesz,
            abs(problem.pair_dot(g, d) - exact_dd) / max(1.0, abs(exact_dd)),
        )
        res = euler_lagrange_residual(problem, x)
        r = np.column_stack([res.u, res.v])  # sqrt(r . K^-1 r) by a dense solve, not op.solve
        dual = float(np.sqrt(np.sum(r * np.linalg.solve(stiffness, r))))
        worst_dual = max(worst_dual, abs(_grad_and_norm(problem, x)[2] - dual) / max(dual, 1.0))
    rows.append(_row("functional", "derivative-divided-difference", worst_fd, 1e-6))
    rows.append(_row("functional", "gradient-represents-derivative", worst_riesz, 1e-8))
    rows.append(_row("functional", "residual-dual-norm-identity", worst_dual, 1e-9))

    x = StatePair(rng.standard_normal(n), rng.standard_normal(n))
    swapped = StatePair(x.v.copy(), x.u.copy())
    drift = abs(evaluate_J(problem, x).total - evaluate_J(problem, swapped).total)
    rows.append(_row("functional", "swap-symmetry-exact", drift, 0.0))
    return rows


def splitting_rows(seed: int = 0) -> List[CheckRow]:
    rows: List[CheckRow] = []
    rng = np.random.default_rng(seed + 2)
    grid, op = build_grid(DomainSpec.interval(31))
    split = DiagonalSplitting(grid, op)
    basis = build_modal_basis(split)
    n = grid.n_interior

    worst_sum = 0.0
    worst_orth = 0.0
    worst_pyth = 0.0
    worst_cross = 0.0
    worst_weak = -np.inf
    for _ in range(25):
        x = StatePair(rng.standard_normal(n), rng.standard_normal(n))
        plus = split.diagonal_part(x)
        minus = split.antidiagonal_part(x)
        nx2 = split.pair_dot(x, x)
        worst_sum = max(worst_sum, split.pair_norm(plus + minus - x) / np.sqrt(nx2))
        worst_orth = max(worst_orth, abs(split.pair_dot(plus, minus)) / nx2)
        worst_pyth = max(
            worst_pyth,
            abs(split.pair_dot(plus, plus) + split.pair_dot(minus, minus) - nx2) / nx2,
        )
        worst_cross = max(
            worst_cross,
            abs(op.product(x.u, x.v) - split.cross_form(x)) / max(nx2, 1.0),
        )
        y = split.antidiagonal_part(x)
        worst_weak = max(
            worst_weak,
            weighted_modal_norm(basis, y) - split.pair_norm(y) * (1 + 1e-12),
        )
        tau = mixed_weak_norm(basis, x)
        worst_weak = max(worst_weak, split.pair_norm(split.diagonal_part(x)) - tau)
    rows.append(_row("splitting", "projections-sum-to-identity", worst_sum, 1e-10))
    rows.append(_row("splitting", "projections-orthogonal", worst_orth, 1e-10))
    rows.append(_row("splitting", "pythagoras", worst_pyth, 1e-10))
    rows.append(_row("splitting", "cross-term-difference-of-squares", worst_cross, 1e-10))
    rows.append(_row("splitting", "weak-norm-bounds", worst_weak, 0.0))
    return rows


def hypothesis_rows(problem: Problem) -> List[CheckRow]:
    """Informational: sampled growth hypotheses for the active preset."""
    report = validate_hypotheses(problem.nl)
    flags = (("growth-bound", report.growth_ok),
             ("small-amplitude-flatness", report.small_amplitude_ok),
             ("superquadratic-beyond-radius", report.superquadratic_ok))
    return [CheckRow("hypotheses", name, 0.0 if ok else 1.0, 0.0, ok, required=False)
            for name, ok in flags]


def run_all_checks(problem: Problem | None = None, seed: int = 0) -> List[CheckRow]:
    rows = grid_rows(seed) + functional_rows(seed) + splitting_rows(seed)
    if problem is not None:
        rows += hypothesis_rows(problem)
    return rows
