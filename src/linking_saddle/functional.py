"""The indefinite energy of the coupled system and its first variation.

For a pair x = (u, v) on a grid with Dirichlet form ``<.,.>`` and nodal
quadrature ``integrate``, the energy is

    J(x) = <u, v>  -  lam/2 |u|_2^2  -  delta/2 |v|_2^2
           - integral F(u) - integral G(v),

where F, G are the primitives of the coupling nonlinearities f, g. The
cross term <u, v> is indefinite: it is a difference of squares along the
diagonal/antidiagonal splitting, which is what makes saddle geometry the
natural notion of criticality here.

The first variation is written once, as the nodal residual
:func:`euler_lagrange_residual`. Gradients are its Riesz
representatives in the product Dirichlet inner product, so their norms
are mesh-consistent and comparable across refinement levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EnergyOverflowError, InvalidSpecError
from .grid import DomainSpec, Grid, StiffnessOperator, build_grid, eigenpairs
from .state import StatePair, mirrored, pair_dot, pair_norm

__all__ = [
    "NonlinearitySpec",
    "power_nonlinearity",
    "zero_nonlinearity",
    "ProblemSpec",
    "Problem",
    "discretize",
    "EnergyBreakdown",
    "evaluate_J",
    "directional_derivative",
    "euler_lagrange_residual",
    "riesz_gradient",
    "HypothesisReport",
    "validate_hypotheses",
]

TermFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class NonlinearitySpec:
    """Coupling terms f, g with primitives F, G and growth metadata.

    Each evaluator takes an array of values and acts on each value
    alone, so a coupling is the same at every point of the domain and
    a sampled certificate in t holds everywhere. ``df`` and ``dg`` are
    the derivatives of f and g, which the Newton step needs. ``p`` is the
    growth exponent and ``scale`` the growth constant. ``mu`` is the
    Ambrosetti-Rabinowitz exponent: 0 < mu F(t) <= t f(t), and likewise
    for G and g, is required for |t| >= ``radius``.
    """

    name: str
    f: TermFn
    F: TermFn
    g: TermFn
    G: TermFn
    df: TermFn
    dg: TermFn
    p: float
    mu: float
    radius: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.p > 2.0 and np.isfinite(self.p)):
            raise InvalidSpecError(f"growth exponent requires p > 2, got {self.p}")
        if not (self.mu > 2.0 and np.isfinite(self.mu)):
            raise InvalidSpecError(f"superquadratic exponent requires mu > 2, got {self.mu}")
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise InvalidSpecError(f"radius must be positive, got {self.radius}")
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise InvalidSpecError(f"scale must be positive, got {self.scale}")


def power_nonlinearity(p: float = 4.0, scale: float = 1.0) -> NonlinearitySpec:
    """Odd power coupling s |t|^(p-2) t, the canonical superquadratic case.

    F is (s/p) |t|^(p-2) t^2 = t f(t) / p, within a few ulp of (s/p) |t|^p:
    its power is that of f, which numpy takes by squaring at p = 4. Since
    p F = t f, the Ambrosetti-Rabinowitz exponent ``mu`` is p, the
    largest that holds.
    """
    p = float(p)
    if not p > 2.0:
        raise InvalidSpecError(f"power preset requires p > 2, got {p}")
    s = float(scale)
    if not (s > 0.0 and np.isfinite(s)):
        raise InvalidSpecError(f"power preset requires a positive scale, got {s}")

    def f(t):
        t = np.asarray(t, dtype=float)
        return s * np.abs(t) ** (p - 2.0) * t

    def F(t):
        t = np.asarray(t, dtype=float)
        return (s / p) * np.abs(t) ** (p - 2.0) * (t * t)

    def df(t):
        t = np.asarray(t, dtype=float)
        return s * (p - 1.0) * np.abs(t) ** (p - 2.0)

    return NonlinearitySpec(
        name=f"power(p={p:g})",
        f=f, F=F, g=f, G=F, df=df, dg=df,
        p=p, mu=p, radius=1.0, scale=max(s, 1.0),
    )


def zero_nonlinearity() -> NonlinearitySpec:
    """No coupling: the energy is purely quadratic and has only the trivial critical point."""

    def f(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return NonlinearitySpec(
        name="zero", f=f, F=f, g=f, G=f, df=f, dg=f,
        p=4.0, mu=4.0, radius=1.0, scale=1.0,
    )


@dataclass(frozen=True)
class ProblemSpec:
    """Continuous problem data: domain, linear shifts, coupling terms."""

    domain: DomainSpec
    nonlinearity: NonlinearitySpec
    lam: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        for label, val in (("lam", self.lam), ("delta", self.delta)):
            if not np.isfinite(val):
                raise InvalidSpecError(f"{label} must be finite, got {val}")


class Problem:
    """A discretized :class:`ProblemSpec`: grid, stiffness operator, eigen cache."""

    def __init__(self, spec: ProblemSpec) -> None:
        self.spec = spec
        self.grid, self.op = build_grid(spec.domain)
        self.lam = float(spec.lam)
        self.delta = float(spec.delta)
        self.nl = spec.nonlinearity
        nl = self.nl
        # swapping u and v leaves J unchanged, and each kernel's v-terms are its
        # u-terms' floating-point operations: f = g, F = G and f' = g' as the same
        # objects, and lam and delta the same double (0.0 and -0.0 differ)
        self.symmetric = (nl.f is nl.g and nl.F is nl.G and nl.df is nl.dg
                          and self.lam == self.delta
                          and math.copysign(1.0, self.lam) == math.copysign(1.0, self.delta))
        self._eigen_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def n(self) -> int:
        return self.grid.n_interior

    def eigenpairs(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        if count not in self._eigen_cache:
            evals, vecs = self._eigen_cache[count] = eigenpairs(self.grid, self.op, count)
            evals.flags.writeable = vecs.flags.writeable = False  # every caller shares them
        return self._eigen_cache[count]

    def principal_eigenvalue(self) -> float:
        return float(self.eigenpairs(1)[0][0])

    def pair_dot(self, a: StatePair, b: StatePair) -> float:
        return pair_dot(self.op, a, b)

    def pair_norm(self, x: StatePair) -> float:
        return pair_norm(self.op, x)


def discretize(spec: ProblemSpec) -> Problem:
    return Problem(spec)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy value with its constituent terms.

    ``total`` is computed as
    ``cross - ((quad_u + quad_v) + (potential_u + potential_v))``; the
    grouping is part of the contract because it makes the value exactly
    symmetric under swapping components of a symmetric problem.
    """

    cross: float
    quad_u: float
    quad_v: float
    potential_u: float
    potential_v: float
    total: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "total",
            self.cross - ((self.quad_u + self.quad_v) + (self.potential_u + self.potential_v)),
        )


def _check_term(value: float, label: str) -> float:
    if not np.isfinite(value):
        raise EnergyOverflowError(f"energy term '{label}' is not finite: {value}")
    return float(value)


def evaluate_J(problem: Problem, x: StatePair) -> EnergyBreakdown:
    """Evaluate the indefinite energy, term by term.

    Raises :class:`EnergyOverflowError` naming the first non-finite term;
    the terms are checked in the order of ``EnergyBreakdown``'s fields.
    By the mirror rule (:func:`~linking_saddle.state.mirrored`), where
    u == v bitwise the cross term takes one stiffness product d = u K u,
    as 0.5 (d + d), and on a symmetric problem the v-terms are the
    u-terms, taken once.
    """
    op, vol = problem.op, problem.grid.cell_volume
    u = problem.grid.check_field(x.u)
    v = problem.grid.check_field(x.v)
    mirror = mirrored(u, v)
    with np.errstate(over="ignore", invalid="ignore"):
        Ku = op.apply(u)
        if mirror:
            d = u @ Ku
            cross = 0.5 * (d + d)
        else:
            cross = 0.5 * (u @ op.apply(v) + v @ Ku)
        cross = _check_term(cross, "cross")
        shared = mirror and problem.symmetric
        quad_u = _check_term(0.5 * problem.lam * vol * float(u @ u), "quadratic-u")
        quad_v = (quad_u if shared else
                  _check_term(0.5 * problem.delta * vol * float(v @ v), "quadratic-v"))
        potential_u = _check_term(vol * float(np.sum(problem.nl.F(u))), "potential-u")
        potential_v = (potential_u if shared else
                       _check_term(vol * float(np.sum(problem.nl.G(v))), "potential-v"))
    return EnergyBreakdown(cross, quad_u, quad_v, potential_u, potential_v)


def directional_derivative(problem: Problem, x: StatePair, d: StatePair) -> float:
    """First variation of the energy at x in direction d."""
    grid, op = problem.grid, problem.op
    u = grid.check_field(x.u)
    v = grid.check_field(x.v)
    w = grid.check_field(d.u)
    z = grid.check_field(d.v)
    vol = grid.cell_volume
    with np.errstate(over="ignore", invalid="ignore"):
        value = (
            op.product(u, z)
            + op.product(v, w)
            - problem.lam * vol * float(u @ w)
            - problem.delta * vol * float(v @ z)
            - vol * float(problem.nl.f(u) @ w)
            - vol * float(problem.nl.g(v) @ z)
        )
    return _check_term(value, "directional-derivative")


def euler_lagrange_residual(problem: Problem, x: StatePair) -> StatePair:
    """First-order system in nodal (Euclidean) form.

    Components are the partial gradients of the energy with respect to
    the nodal values of u and v; the component paired with u reads
    K v - vol (lam u + f(u)), the discrete form of the cross-coupled
    elliptic system. Zero residual is exactly a critical point. By the
    mirror rule, on a symmetric problem at u == v bitwise the v component
    is a copy of the u component.
    """
    grid, op = problem.grid, problem.op
    u = grid.check_field(x.u)
    v = grid.check_field(x.v)
    vol = grid.cell_volume
    with np.errstate(over="ignore", invalid="ignore"):
        res_u = op.apply(v) - vol * (problem.lam * u + problem.nl.f(u))
        if problem.symmetric and mirrored(u, v):
            res_v = res_u.copy()
        else:
            res_v = op.apply(u) - vol * (problem.delta * v + problem.nl.g(v))
    out = StatePair(res_u, res_v)
    if not out.is_finite():
        raise EnergyOverflowError("energy term 'first-order residual' is not finite")
    return out


def riesz_gradient(problem: Problem, x: StatePair, *,
                   _residual: Optional[StatePair] = None) -> StatePair:
    """Gradient of the energy in the product Dirichlet inner product.

    Each component solves K g = r for the matching component r of
    :func:`euler_lagrange_residual`, so <grad, d> recovers the first
    variation for every direction d. ``_residual`` is that residual at
    x, where the caller has it already.
    """
    res = euler_lagrange_residual(problem, x) if _residual is None else _residual
    return StatePair(problem.op.solve(res.u), problem.op.solve(res.v))


@dataclass(frozen=True)
class HypothesisReport:
    """Sampled verdicts for the three structural growth hypotheses.

    ``growth_ok``: |f|, |g| dominated by scale*(1 + |t|^(p-1)).
    ``small_amplitude_ok``: f(t)/t and g(t)/t vanish as t -> 0.
    ``superquadratic_ok``: 0 < mu*F(t) <= t f(t) (and likewise G, g)
    for |t| beyond the radius.
    Witnesses map a failed check to the offending (t, measured) sample.
    """

    growth_ok: bool
    small_amplitude_ok: bool
    superquadratic_ok: bool
    witnesses: dict

    @property
    def all_ok(self) -> bool:
        return self.growth_ok and self.small_amplitude_ok and self.superquadratic_ok


def _symmetric_log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    half = np.geomspace(lo, hi, count)
    return np.concatenate([-half[::-1], half])


# At a large p the far samples overflow to inf, with no warning for each.
# A sample that is not finite on either side of an inequality cannot be
# judged, so it fails that inequality and becomes its witness.
@np.errstate(over="ignore", invalid="ignore")
def validate_hypotheses(nl: NonlinearitySpec) -> HypothesisReport:
    """Check the growth hypotheses on symmetric log-spaced sample grids.

    Sampled, not proved: a pass certifies the inequalities on the grid
    only, which is the honest notion of verification for black-box
    coupling terms. Growth and superquadraticity are sampled at 2001
    points per sign on [1e-6, max(10 radius, 100)]; the small-amplitude
    ratio |f(t)/t| must stay at most 1e-2 on [1e-10, 1e-4].
    """
    main = _symmetric_log_grid(1e-6, max(10.0 * nl.radius, 100.0), 2001)
    small = _symmetric_log_grid(1e-10, 1e-4, 2001)
    slack = 1.0 + 1e-12
    witnesses: dict = {}

    growth_ok = True
    bound = nl.scale * (1.0 + np.abs(main) ** (nl.p - 1.0))
    for label, term in (("f", nl.f), ("g", nl.g)):
        vals = np.abs(np.asarray(term(main), dtype=float))
        excess = vals - slack * bound
        excess[~np.isfinite(excess)] = np.inf  # inf - inf is nan
        k = int(np.argmax(excess))
        if excess[k] > 0:
            growth_ok = False
            witnesses[f"growth-{label}"] = (float(main[k]), float(vals[k]))

    small_ok = True
    for label, term in (("f", nl.f), ("g", nl.g)):
        ratios = np.abs(np.asarray(term(small), dtype=float) / small)
        ratios[~np.isfinite(ratios)] = np.inf
        k = int(np.argmax(ratios))
        if ratios[k] > 1e-2:
            small_ok = False
            witnesses[f"small-amplitude-{label}"] = (float(small[k]), float(ratios[k]))

    super_ok = True
    far = main[np.abs(main) >= nl.radius]
    for label, term, prim in (("f", nl.f, nl.F), ("g", nl.g, nl.G)):
        primitive = nl.mu * np.asarray(prim(far), dtype=float)
        paired = far * np.asarray(term(far), dtype=float)
        judged = np.isfinite(primitive) & np.isfinite(paired)
        bad = ~(judged & (primitive > 0) & (primitive <= slack * paired))
        if np.any(bad):
            super_ok = False
            k = int(np.argmax(bad))
            witnesses[f"superquadratic-{label}"] = (float(far[k]), float(primitive[k]))

    return HypothesisReport(growth_ok, small_ok, super_ok, witnesses)
