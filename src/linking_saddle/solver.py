"""Saddle-point solvers and convergence certificates.

Two complementary iterations. The Newton solver attacks the first-order
system directly with a damped sparse Newton method; it is quadratically
convergent near any nondegenerate critical point but happily converges
to the trivial state from inside its basin. The sign-respecting flow
exploits the saddle structure instead: it ascends the energy along the
antidiagonal factor while pinning the diagonal amplitude to the crest of
the energy along the current diagonal ray, so it escapes the trivial
basin whenever the coupling is genuinely superquadratic. The default
pipeline runs the flow until it reaches Newton's basin and lets Newton
finish.

The handoff is an affine-covariant basin test (Deuflhard, Newton Methods
for Nonlinear Problems, 2004, ch. 2). At the flow's first iterate, and
again each time the gradient norm has halved since the last failed try,
one full Newton step d is tried. The flow hands off at x + d when that
step contracts the gradient norm tenfold, leaves a nontrivial state, and
moves the energy by at most |grad J(x)| |d|_E; the quadratic model
predicts half of that. The flow tolerance stays the latest point of
handoff. Newton stops only once its iterates cluster: the gradient norm
meets its tolerance and the step just accepted has energy norm at most
``TAIL_TOL``, the bound :func:`ps_monitor` puts on the trace's tail.

The crest of a ray is found from the slope of the ray energy: a
safeguarded Newton iteration, started at the current amplitude, inside
a bracket that doubles until the slope turns negative. A far probe
tells a crest from a ray that keeps rising. On a ray with more than one
crest the search returns the one it reaches from the current amplitude.
The Newton step solves the second variation in sum and difference
variables; where those decouple it solves two n x n systems instead of
one 2n x 2n block. Each system is solved matrix-free by MINRES (Paige
and Saunders, SIAM J. Numer. Anal. 12, 1975) with the block-diagonal
preconditioner diag(K^-1, K^-1) (Benzi, Golub and Liesen, Acta Numerica
2005), applied by the stiffness operator's direct solve; K^-1 (K -/+ A)
is the identity plus a compact operator, so the iteration count does not
grow with the mesh. The true residual is checked after every solve.

Convergence bookkeeping follows the compactness template: bounded
energies along the trace, gradient norm under tolerance, a Cauchy tail,
and a nonnegative-coefficient fit of the superquadratic norm against the
energy norm across the iterates.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

import numpy as np
import scipy.sparse.linalg as spla

from .errors import EnergyOverflowError, InvalidSpecError
from .functional import (Problem, _energy_from_cross, euler_lagrange_residual, evaluate_J,
                         riesz_gradient)
from .grid import StiffnessOperator
from .linking import (DeformationGamma, LinkingFrame, _boundary_clearance,
                      _boundary_corner_rows, _interior_rows)
from .splitting import DiagonalSplitting
from .state import StatePair, pair_norm

__all__ = [
    "SolverConfig",
    "IterateTrace",
    "SaddleReport",
    "residual_dual_norm",
    "newton_solve",
    "signflow_solve",
    "solve_saddle",
    "flow_map",
    "flow_deformation",
    "PSReport",
    "ps_monitor",
    "minimax_consistency",
    "witness_predicate",
    "WitnessReport",
    "deformation_witness_search",
]

METHODS = ("newton", "signflow", "flow-then-newton")
INITS = ("anchor", "eigen", "zero")

# the flow gives up once backtracking halves its step below this
_MIN_FLOW_STEP = 1e-6
# slope evaluations one crest search may take
_RAY_MAX_STEPS = 200
_SINGULAR = "second-variation system is singular"
# MINRES iterations one second-variation solve may take. K^-1 (K -/+ A) is
# the identity plus a compact operator, so the count does not grow with the mesh.
_MINRES_MAX_ITER = 200
# energy norm of the last step of a converged Newton run, and the tail
# diameter ps_monitor accepts
TAIL_TOL = 1e-6
# slack by which a critical value may undercut the sampled sphere minimum
MINIMAX_TOL = 1e-8
# flow_deformation moves a chart point by the full flow map once both of its
# boundary clearances (``linking._boundary_clearance``) reach this
FLOW_RAMP = 0.05


@dataclass
class SolverConfig:
    """Solver settings; the field order is the order of the ``solver.*`` config keys."""

    method: str = "flow-then-newton"
    grad_tol: float = 1e-10
    max_iter: int = 60
    flow_max_iter: int = 400
    flow_step: float = 0.25
    flow_tol: float = 1e-4
    init: str = "anchor"
    eta: float = 0.1

    def __post_init__(self) -> None:
        # each message starts with its field name, so the config parser can
        # prefix the section and report it as the key
        if self.method not in METHODS:
            raise InvalidSpecError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.init not in INITS:
            raise InvalidSpecError(f"init must be one of {INITS}, got {self.init!r}")
        for label, val in (("grad_tol", self.grad_tol), ("flow_tol", self.flow_tol)):
            if not (val > 0 and np.isfinite(val)):
                raise InvalidSpecError(f"{label} must be positive, got {val:g}")
        if not 0 < self.flow_step < 1:
            raise InvalidSpecError(f"flow_step must lie in (0, 1), got {self.flow_step:g}")
        for label, val in (("max_iter", self.max_iter), ("flow_max_iter", self.flow_max_iter)):
            if val < 1:
                raise InvalidSpecError(f"{label} must be at least 1, got {val}")
        if self.eta < 0:
            raise InvalidSpecError(f"eta must be nonnegative, got {self.eta:g}")


@dataclass
class IterateTrace:
    """Per-iterate numbers for the compactness checks, and the last two states.

    ``mu_norms`` holds vol * (sum |u|^mu + sum |v|^mu) of each iterate, the
    superquadratic norm that :func:`ps_monitor` fits against ``state_norms``.
    """

    energies: List[float] = field(default_factory=list)
    gradient_norms: List[float] = field(default_factory=list)
    step_sizes: List[float] = field(default_factory=list)
    state_norms: List[float] = field(default_factory=list)
    mu_norms: List[float] = field(default_factory=list)
    last_states: List[StatePair] = field(default_factory=list)

    def append(self, energy: float, grad: float, step: float, norm: float, mu_norm: float,
               state: StatePair) -> None:
        self.energies.append(float(energy))
        self.gradient_norms.append(float(grad))
        self.step_sizes.append(float(step))
        self.state_norms.append(float(norm))
        self.mu_norms.append(float(mu_norm))
        self.last_states = [*self.last_states[-1:], state]

    def __len__(self) -> int:
        return len(self.energies)

    def extend(self, other: "IterateTrace") -> None:
        self.energies.extend(other.energies)
        self.gradient_norms.extend(other.gradient_norms)
        self.step_sizes.extend(other.step_sizes)
        self.state_norms.extend(other.state_norms)
        self.mu_norms.extend(other.mu_norms)
        self.last_states = [*self.last_states, *other.last_states][-2:]


@dataclass
class SaddleReport:
    state: StatePair
    critical_value: float
    gradient_norm: float
    residual_dual: float
    residual_euclidean: float
    converged: bool
    nontrivial: bool
    iterations: int
    method: str
    message: str
    trace: IterateTrace
    # the first-order residual at ``state``; residual_euclidean is its norm
    residual: StatePair


def residual_dual_norm(problem: Problem, res: StatePair) -> float:
    """Residual in the dual (inverse-stiffness) norm; equals the gradient norm."""
    op = problem.op
    lifted = StatePair(op.solve(res.u), op.solve(res.v))
    return pair_norm(op, lifted)


class _StepFailed(Exception):
    """A step rule has no trial left; the message says why."""


def _newton_step(problem: Problem, x: StatePair, res: StatePair) -> StatePair:
    """Solve the second-variation system in sum/difference variables.

    With A = diag((a + b)/2) and D = diag((b - a)/2), where a and b are
    vol * (lam + f'(u)) and vol * (delta + g'(v)), the sum p and the
    difference q of the step solve

        [K - A   D       ] [p]   [-(r_u + r_v)]
        [D       -(K + A)] [q] = [-(r_u - r_v)].

    Where D is identically zero (lam = delta, f' = g' and f'(u) = g'(v)
    at every node, as at a symmetric iterate of a symmetric problem) the
    system is two n x n blocks, and the q block is solved only if its
    right-hand side is nonzero. At a symmetric iterate with a symmetric
    residual q is exactly 0, so the step (and hence every Newton
    iterate) keeps u == v bitwise. Otherwise the 2n x 2n block is solved
    whole, by MINRES preconditioned with K^-1 on each block
    (:func:`_minres_solve`). A singular system raises :class:`_StepFailed`.
    """
    op, nl = problem.op, problem.nl
    vol = problem.grid.cell_volume
    n = problem.n
    a = vol * (problem.lam + np.asarray(nl.df(x.u), dtype=float))
    b = vol * (problem.delta + np.asarray(nl.dg(x.v), dtype=float))
    avg = 0.5 * (a + b)
    off = 0.5 * (b - a)
    rhs_p = -(res.u + res.v)
    rhs_q = -(res.u - res.v)
    if np.any(off != 0.0):
        sol = _minres_solve(op, (1.0, -1.0), avg, off, np.concatenate([rhs_p, rhs_q]))
        p, q = sol[:n], sol[n:]
    else:
        p = _minres_solve(op, (1.0,), avg, off, rhs_p)
        q = (_minres_solve(op, (-1.0,), avg, off, rhs_q) if np.any(rhs_q != 0.0)
             else np.zeros(n))
    step = StatePair(0.5 * (p + q), 0.5 * (p - q))
    if not step.is_finite():
        raise _StepFailed(_SINGULAR)
    return step


def _minres_solve(op: StiffnessOperator, signs: tuple[float, ...], avg: np.ndarray,
                  off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """MINRES on one or two blocks of the second variation, applied matrix-free.

    Block i is signs[i] * K - A; two blocks are coupled by D = diag(off).
    The preconditioner is K^-1 on each block, by the operator's direct
    solve: fast diagonalization on 2D grids, the tridiagonal LU on 1D.
    MINRES stops on its own residual estimate, so the true residual is
    checked against ``op.rtol`` * |rhs| afterwards, as
    :meth:`StiffnessOperator.solve` does; a miss raises :class:`_StepFailed`.
    """
    k, k_inv, n = op.matrix, op._factor, avg.size

    def apply(w: np.ndarray) -> np.ndarray:
        parts = w.reshape(len(signs), n)
        out = np.concatenate([sign * (k @ part) - avg * part
                              for sign, part in zip(signs, parts)])
        if len(signs) == 2:
            out += np.concatenate([off * parts[1], off * parts[0]])
        return out

    def precondition(r: np.ndarray) -> np.ndarray:
        return np.concatenate([k_inv(part) for part in r.reshape(len(signs), n)])

    size = rhs.size
    # the estimate runs ahead of the true residual; asking 1e-14 of it brings
    # the true residual under op.rtol
    sol, _ = spla.minres(spla.LinearOperator((size, size), matvec=apply, dtype=float), rhs,
                         rtol=1e-14, maxiter=_MINRES_MAX_ITER,
                         M=spla.LinearOperator((size, size), matvec=precondition, dtype=float))
    resid = float(np.linalg.norm(apply(sol) - rhs))
    scale = float(np.linalg.norm(rhs))
    # written so that a NaN residual fails too
    if not resid <= op.rtol * scale:
        raise _StepFailed(f"{_SINGULAR}: MINRES residual {resid:.3e} exceeds "
                          f"{op.rtol:.1e} * |rhs| = {op.rtol * scale:.3e}")
    return sol


def _grad_and_norm(problem: Problem, x: StatePair) -> tuple[StatePair, StatePair, float]:
    """The first-order residual at x, the gradient solved from it, and the gradient's norm."""
    res = euler_lagrange_residual(problem, x)
    g = riesz_gradient(problem, x, _residual=res)
    return res, g, pair_norm(problem.op, g)


def _initial_state(
    problem: Problem,
    config: SolverConfig,
    frame: Optional[LinkingFrame],
    x0: Optional[StatePair],
) -> StatePair:
    if x0 is not None:
        return x0.copy()
    if config.init == "zero":
        return StatePair.zeros(problem.n)
    if config.init == "eigen":
        phi = problem.eigenpairs(1)[1][0]
        return StatePair.diagonal(phi / np.sqrt(2.0))
    # "anchor": crest of the energy along the anchor ray; the trivial
    # state when the ray has no crest (purely quadratic energies).
    if frame is not None:
        direction = (1.0 / frame.r) * frame.anchor
    else:
        phi = problem.eigenpairs(1)[1][0]
        direction = StatePair.diagonal(phi / np.sqrt(2.0))
    tau = _ray_argmax(problem, StatePair.zeros(problem.n), direction, 1.0)
    if tau is None:
        return StatePair.zeros(problem.n)
    return tau * direction


@dataclass(frozen=True)
class _Ray:
    """The line base + tau*direction, with its cross term c0 + tau (c1 + tau c2)."""

    base_u: np.ndarray
    base_v: np.ndarray
    dir_u: np.ndarray
    dir_v: np.ndarray
    c0: float
    c1: float
    c2: float


def _ray(problem: Problem, base: StatePair, direction: StatePair) -> _Ray:
    """Validate a ray once and expand the bilinear cross term along it."""
    grid, op = problem.grid, problem.op
    bu, bv, du, dv = (grid.check_field(w) for w in (base.u, base.v, direction.u, direction.v))
    with np.errstate(over="ignore", invalid="ignore"):
        kbu, kbv, kdu, kdv = (op.apply(w) for w in (bu, bv, du, dv))
        # each coefficient pairs a u-product with its v-mirror, so swapping
        # the components leaves it bitwise unchanged
        c0 = 0.5 * (bu @ kbv + bv @ kbu)
        c1 = 0.5 * ((bu @ kdv + du @ kbv) + (bv @ kdu + dv @ kbu))
        c2 = 0.5 * (du @ kdv + dv @ kdu)
    return _Ray(bu, bv, du, dv, float(c0), float(c1), float(c2))


def _ray_energy(problem: Problem, ray: _Ray, tau: float) -> float:
    """``evaluate_J(problem, base + tau*direction).total``, or -inf where that overflows.

    The nodal values and the energy kernel are those of :func:`evaluate_J`;
    only the cross term comes from the ray's coefficients instead of two
    stiffness products.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u = ray.base_u + ray.dir_u * tau
        v = ray.base_v + ray.dir_v * tau
        cross = ray.c0 + tau * (ray.c1 + tau * ray.c2)
    try:
        return _energy_from_cross(problem, u, v, cross).total
    except EnergyOverflowError:
        return -np.inf


def _ray_slope(problem: Problem, ray: _Ray, tau: float) -> tuple[float, float]:
    """First and second derivative of :func:`_ray_energy` in tau, or (-inf, -inf) on overflow.

    Each u-term is grouped with its v-mirror, as in :func:`_ray`, so
    swapping the components leaves both values bitwise unchanged.
    """
    nl, vol = problem.nl, problem.grid.cell_volume
    du, dv = ray.dir_u, ray.dir_v
    with np.errstate(over="ignore", invalid="ignore"):
        u = ray.base_u + du * tau
        v = ray.base_v + dv * tau
        slope = (ray.c1 + 2.0 * tau * ray.c2) - vol * (
            (problem.lam * float(u @ du) + problem.delta * float(v @ dv))
            + (float(nl.f(u) @ du) + float(nl.g(v) @ dv))
        )
        curvature = 2.0 * ray.c2 - vol * (
            (problem.lam * float(du @ du) + problem.delta * float(dv @ dv))
            + (float(nl.df(u) @ (du * du)) + float(nl.dg(v) @ (dv * dv)))
        )
    if not (math.isfinite(slope) and math.isfinite(curvature)):
        return -np.inf, -np.inf
    return slope, curvature


def _ray_argmax(
    problem: Problem, base: StatePair, direction: StatePair, t_current: float
) -> Optional[float]:
    """Crest of the energy along base + tau*direction reached from ``t_current``, or None.

    A safeguarded Newton iteration on the slope phi' of the ray energy
    (:func:`_ray_slope`), started at max(|t_current|, scale/256) with
    scale = max(|t_current|, 1). It keeps a bracket [lo, hi] with
    phi'(lo) > 0 >= phi'(hi); lo starts at 0 and hi at infinity. Until hi
    is finite the iterate grows by at most a factor of 2, doubling where
    the Newton step does not land in between; after that, a Newton step
    that leaves the bracket, or one taken where phi'' >= 0, becomes a
    bisection. The search stops when the Newton step or the bracket is
    at most 1e-12 * max(1, hi). A collapsed bracket returns lo, which is
    0.0 on a ray whose energy falls from the base on.

    A ray still rising past 64 * scale is compared with a far probe
    2**14 times further out: if the far probe is not lower, or the ray
    still rises at the far probe, the ray keeps rising and there is no
    crest to pin. On a ray with several crests the search returns the
    one it reaches from ``t_current``, which need not be the highest.
    """
    ray = _ray(problem, base, direction)
    scale = max(abs(t_current), 1.0)
    top = 64.0 * scale
    far = top * 2.0**14
    lo, hi = 0.0, math.inf
    t = max(abs(t_current), scale / 256.0)
    # Newton steps inside the bracket shrink it; the cap only bounds rays
    # where they shrink it slowly
    for _ in range(_RAY_MAX_STEPS):
        slope, curvature = _ray_slope(problem, ray, t)
        if slope > 0.0:
            if hi == math.inf and t > top:
                # lo <= top: the first rising iterate past top runs the far-probe test
                if lo <= top and _ray_energy(problem, ray, far) >= _ray_energy(problem, ray, top):
                    return None  # still rising past the far probe: no crest to pin
                if t >= far:
                    return None
            lo = t
        else:
            hi = t
        tol = 1e-12 * max(1.0, hi if hi < math.inf else t)
        if hi - lo <= tol:
            return lo  # lo is 0.0 where the energy falls from the base on
        t_new = t - slope / curvature if curvature < 0.0 else math.nan
        if abs(t_new - t) <= tol:
            return t_new
        if not lo < t_new < (hi if hi < math.inf else 2.0 * t):
            t_new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * t
        t = t_new
    return t


def _flow_update(
    split: DiagonalSplitting,
    problem: Problem,
    frame: Optional[LinkingFrame],
    x: StatePair,
    g: StatePair,
    s: float,
) -> StatePair:
    """One sign-respecting step: antidiagonal ascent, diagonal crest pinning.

    The diagonal shape moves against the component of the gradient
    transverse to the current ray; those directions carry positive
    curvature, so ascent there diverges while descent walks the crest
    manifold down to the saddle. The ray amplitude itself is re-pinned
    to the crest after every shape change.
    """
    p = split.antidiagonal_part(x)
    q = split.diagonal_part(x)
    gp = split.antidiagonal_part(g)
    gq = split.diagonal_part(g)
    p_new = p + s * gp
    # q, gq and q_tent are diagonal pairs, one product each
    qq = split.diagonal_dot(q.u, q.u)
    t_cur = float(np.sqrt(max(qq, 0.0)))
    if t_cur > 1e-300:
        coeff = split.diagonal_dot(gq.u, q.u) / qq
        transverse = gq - coeff * q
        q_tent = q - s * transverse
    else:
        q_tent = q + s * gq
    t_tent = split.diagonal_norm(q_tent.u)
    if t_tent <= 1e-300:
        if frame is None:
            return p_new
        qhat = (1.0 / frame.r) * frame.anchor
    else:
        qhat = (1.0 / t_tent) * q_tent
    tau_star = _ray_argmax(problem, p_new, qhat, t_cur)
    if tau_star is None:
        tau_new = (1.0 - s) * t_cur
    else:
        tau_new = t_cur + min(1.0, 2.0 * s) * (tau_star - t_cur)
    return p_new + tau_new * qhat


def _finish(
    problem: Problem,
    x: StatePair,
    res: StatePair,
    converged: bool,
    iterations: int,
    method: str,
    message: str,
    trace: IterateTrace,
    eta: float,
) -> SaddleReport:
    # x is the trace's last entry, whose gradient norm is the dual residual
    # norm; res is the first-order residual at x
    return SaddleReport(
        state=x,
        critical_value=trace.energies[-1],
        gradient_norm=trace.gradient_norms[-1],
        residual_dual=trace.gradient_norms[-1],
        residual_euclidean=float(np.sqrt(res.u @ res.u + res.v @ res.v)),
        converged=converged,
        nontrivial=bool(converged and trace.state_norms[-1] >= eta),
        iterations=iterations,
        method=method,
        message=message,
        trace=trace,
        residual=res,
    )


def _mu_norm(problem: Problem, x: StatePair) -> float:
    mu = problem.nl.mu
    return problem.grid.cell_volume * (np.sum(np.abs(x.u) ** mu) + np.sum(np.abs(x.v) ** mu))


def _accept(problem: Problem, trials: Iterator[tuple]) -> tuple:
    """``(trial, res, g, gn, next_step)`` of the first trial with gradient norm gn <= its bound.

    ``trials`` yields ``(trial, bound, next_step)`` and raises
    :class:`_StepFailed` once it has no trial left; a trial whose energy
    overflows is rejected.
    """
    for trial, bound, next_step in trials:
        try:
            res, g, gn = _grad_and_norm(problem, trial)
        except EnergyOverflowError:
            continue
        if gn <= bound:
            return trial, res, g, gn, next_step


def _flow_trials(problem: Problem, frame: Optional[LinkingFrame], max_step: float):
    """The trial rule of the flow, shared by :func:`signflow_solve` and :func:`flow_map`.

    From step size s it tries the flow update of size s, s/2, ... down to
    ``_MIN_FLOW_STEP``, each accepted at a gradient norm up to 1.5 times
    the current one, and an accepted step s lets the next one grow to
    min(1.25 s, ``max_step``).
    """
    split = DiagonalSplitting(problem.grid, problem.op)

    def trials(x, res, g, gn, s):
        while s >= _MIN_FLOW_STEP:
            # tolerance band: mild transients allowed
            yield _flow_update(split, problem, frame, x, g, s), 1.5 * gn, min(s * 1.25, max_step)
            s *= 0.5
        raise _StepFailed("step size collapsed")

    return trials


def _iterate(
    problem: Problem,
    x: StatePair,
    trials: Callable[[StatePair, StatePair, Optional[StatePair], float, float],
                     Iterator[tuple]],
    tol: float,
    budget: int,
    step: float,
    method: str,
    eta: float,
    step_tol: float = math.inf,
    basin: Optional[Callable[[StatePair, StatePair, float, float], Optional[tuple]]] = None,
    start: Optional[tuple[StatePair, float, float]] = None,
) -> SaddleReport:
    """The iteration loop of :func:`newton_solve` and :func:`signflow_solve`.

    ``trials(x, res, g, gn, step)`` yields the backtracking trials of one
    step as ``(trial, bound, next_step)``, from the first-order residual
    ``res`` at x and the gradient ``g`` solved from it; :func:`_accept`
    picks the trial to take, and its residual and gradient carry into the
    next iterate. The rule raises :class:`_StepFailed` when it has no
    trial left. ``step`` is the step size recorded with the starting
    iterate.

    The loop converges once the gradient norm is at most ``tol`` and the
    step just accepted has energy norm at most ``step_tol``; a finite
    ``step_tol`` asks for at least one step. ``basin(x, res, gn, energy)``,
    when given, is asked before the first step, and again before each step
    whose gradient norm is at most half the one it last said None to. A
    ``(trial, res, g, gn, energy)`` it returns is taken as a full step,
    recorded with step size 1 and that energy, and ends the loop there as
    converged. ``start``, when
    given, is the residual, gradient norm and energy known at x; the
    gradient itself is then not computed, so ``trials`` must not read it.
    """
    trace = IterateTrace()
    converged = False
    message = "gradient tolerance reached"
    res, g, gn = (start[0], None, start[1]) if start else _grad_and_norm(problem, x)
    energy = start[2] if start else None
    last_step = math.inf
    basin_due = math.inf
    handed_off = False
    it = 0
    while True:
        energy = evaluate_J(problem, x).total if energy is None else energy
        trace.append(energy, gn, step, pair_norm(problem.op, x), _mu_norm(problem, x), x.copy())
        if gn <= tol and last_step <= step_tol:
            converged = True
            break
        if handed_off:
            converged, message = True, "Newton basin reached"
            break
        if it >= budget:
            message = "iteration budget exhausted"
            break
        if basin is not None and gn <= basin_due:
            jump = basin(x, res, gn, energy)
            if jump is not None:
                x, res, g, gn, energy = jump
                step, handed_off = 1.0, True
                it += 1
                continue
            basin_due = 0.5 * gn
        try:
            trial, res, g, gn, step = _accept(problem, trials(x, res, g, gn, step))
        except _StepFailed as exc:
            message = str(exc)
            break
        if step_tol < math.inf:
            # the same difference ps_monitor measures between the last two states
            last_step = pair_norm(problem.op, trial - x)
        x, energy = trial, None
        it += 1
    return _finish(problem, x, res, converged, it, method, message, trace, eta)


def _basin_trial(
    problem: Problem, x: StatePair, res: StatePair, gn: float, energy: float, eta: float
) -> Optional[tuple[StatePair, StatePair, StatePair, float, float]]:
    """One full Newton step from ``x``, if it shows the basin.

    It returns ``(x + d, residual, gradient, gradient norm, energy)`` at x + d.

    The step must contract the gradient norm ``gn`` at ``x`` at least
    tenfold, land on a state of energy norm at least ``eta``, and change
    the energy ``J(x)`` by at most gn * |d|_E. Near a nondegenerate
    critical point the quadratic model gives J(x + d) - J(x) = <grad J, d>/2,
    within half that bound. A step that fails, or overflows, shows nothing.
    ``res`` is the first-order residual at ``x``.
    """
    op = problem.op
    try:
        d = _newton_step(problem, x, res)
        trial = x + d
        res_trial, g, gn_trial = _grad_and_norm(problem, trial)
        energy_trial = evaluate_J(problem, trial).total
    except (_StepFailed, EnergyOverflowError):
        return None
    if (gn_trial <= 0.1 * gn and pair_norm(op, trial) >= eta
            and abs(energy_trial - energy) <= gn * pair_norm(op, d)):
        return trial, res_trial, g, gn_trial, energy_trial
    return None


def newton_solve(
    problem: Problem,
    config: Optional[SolverConfig] = None,
    frame: Optional[LinkingFrame] = None,
    x0: Optional[StatePair] = None,
    *,
    _start: Optional[tuple[StatePair, float, float]] = None,
) -> SaddleReport:
    """Damped Newton iteration on the first-order system.

    The merit function for the damping is the dual residual norm, which
    coincides with the gradient norm: a step is accepted once it lowers
    that norm by a factor 1 - 1e-4 * alpha, or keeps it within
    ``grad_tol``. The iteration stops once the gradient norm meets
    ``grad_tol`` and the step just accepted has energy norm at most
    ``TAIL_TOL``, so it always takes at least one step, and a converged
    run ends on two iterates that cluster. ``_start`` is the first-order
    residual, gradient norm and energy at ``x0``, where :func:`solve_saddle`
    knows them.
    """
    cfg = config if config is not None else SolverConfig(method="newton")

    def trials(x, res, g, gn, step):
        direction = _newton_step(problem, x, res)
        alpha = 1.0
        while alpha >= 1e-4:
            yield x + alpha * direction, max((1.0 - 1e-4 * alpha) * gn, cfg.grad_tol), alpha
            alpha *= 0.5
        raise _StepFailed("line search stalled")

    x = _initial_state(problem, cfg, frame, x0)
    return _iterate(problem, x, trials, cfg.grad_tol, cfg.max_iter, 0.0, "newton", cfg.eta,
                    step_tol=TAIL_TOL, start=_start)


def signflow_solve(
    problem: Problem,
    config: Optional[SolverConfig] = None,
    frame: Optional[LinkingFrame] = None,
    x0: Optional[StatePair] = None,
    grad_tol: Optional[float] = None,
    *,
    _basin: Optional[Callable[[StatePair, StatePair, float, float], Optional[tuple]]] = None,
) -> SaddleReport:
    """Sign-respecting ascent/pinning flow with adaptive step halving (:func:`_flow_trials`).

    On a purely quadratic energy the update contracts the state by
    exactly (1 - step) per iteration, so the trivial state is reached
    monotonically; superquadratic couplings instead pin the diagonal
    amplitude to the crest of the ray energy, away from zero.
    ``_basin`` is :func:`solve_saddle`'s handoff test (see :func:`_iterate`).
    """
    cfg = config if config is not None else SolverConfig(method="signflow")
    tol = cfg.grad_tol if grad_tol is None else float(grad_tol)
    x = _initial_state(problem, cfg, frame, x0)
    return _iterate(problem, x, _flow_trials(problem, frame, cfg.flow_step), tol,
                    cfg.flow_max_iter, cfg.flow_step, "signflow", cfg.eta, basin=_basin)


def solve_saddle(
    problem: Problem,
    config: Optional[SolverConfig] = None,
    frame: Optional[LinkingFrame] = None,
    x0: Optional[StatePair] = None,
) -> SaddleReport:
    """Dispatch on the configured method; the default flows to Newton's basin, then polishes.

    The flow hands off at its first full Newton step that passes
    :func:`_basin_trial`, or at ``flow_tol`` if none does, and Newton
    starts from there, with the first-order residual, gradient norm and
    energy of the flow's last trace row. Its own first row repeats that
    row, and the compactness fit counts both.
    """
    cfg = config if config is not None else SolverConfig()
    if cfg.method == "newton":
        return newton_solve(problem, cfg, frame, x0)
    if cfg.method == "signflow":
        return signflow_solve(problem, cfg, frame, x0)
    first = signflow_solve(problem, cfg, frame, x0, grad_tol=cfg.flow_tol,
                           _basin=functools.partial(_basin_trial, problem, eta=cfg.eta))
    second = newton_solve(problem, cfg, frame, x0=first.state,
                          _start=(first.residual, first.trace.gradient_norms[-1],
                                  first.trace.energies[-1]))
    first.trace.extend(second.trace)
    message = second.message
    if not first.converged:
        message = f"flow stage: {first.message}; newton stage: {second.message}"
    return dataclasses.replace(
        second, iterations=first.iterations + second.iterations,
        method="flow-then-newton", message=message, trace=first.trace,
    )


def flow_map(
    problem: Problem,
    x0: StatePair,
    steps: int = 12,
    step: float = 0.2,
    frame: Optional[LinkingFrame] = None,
) -> StatePair:
    """Up to ``steps`` accepted flow steps of size at most ``step``, used as a deformation.

    Each step takes the trial rule of :func:`signflow_solve`
    (:func:`_flow_trials`), so a trial whose gradient norm grows past 1.5
    times the current one, or whose energy overflows, is halved instead
    of taken. Where no trial is rejected this is ``steps`` flow updates of
    size ``step``. The map stops early, at its last accepted state, where
    the step size collapses.
    """
    trials = _flow_trials(problem, frame, step)
    x = x0.copy()
    _, g, gn = _grad_and_norm(problem, x)
    s = step
    for _ in range(steps):
        try:
            x, _, g, gn, s = _accept(problem, trials(x, None, g, gn, s))
        except _StepFailed:
            break
    return x


def flow_deformation(problem: Problem, frame: LinkingFrame, steps: int = 12,
                     step: float = 0.2) -> DeformationGamma:
    """Deform frame interior points along the flow, frozen at the boundary.

    The weight ramps from an exact 0.0 on the boundary to 1 at clearance
    ``FLOW_RAMP`` from base and cap, so deep interior points are moved by
    the full flow map. Displacement is certified against the full
    discrete space, not a modal span, and the map has no chart form.
    """

    def fn(xi: np.ndarray) -> StatePair:
        x = frame.state_from_chart(xi)
        q1, q2 = map(float, _boundary_clearance(frame, xi))
        w = min(1.0, q1 / FLOW_RAMP) * min(1.0, q2 / FLOW_RAMP)
        if w == 0.0:
            return x
        return x + w * (flow_map(problem, x, steps, step, frame) - x)

    return DeformationGamma(f"flow(steps={steps})", frame, fn=fn)


@dataclass
class PSReport:
    """Compactness bookkeeping along an iterate trace."""

    bounded: bool
    energy_span: float
    grad_converged: bool
    final_grad: float
    tail_cauchy: bool
    tail_diameter: float
    fit_c1: float
    fit_c2: float
    fit_slack: float
    fit_ok: bool

    @property
    def ok(self) -> bool:
        return self.bounded and self.grad_converged and self.tail_cauchy and self.fit_ok


def _affine_fit(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """The least c1 mean(b) + c2 over c1, c2 >= 0 with c1 b_i + c2 >= a_i, for b >= 0.

    At a fixed c1 the best c2 is max(0, max_i (a_i - c1 b_i)), so the
    objective is convex and piecewise linear in c1, and least at c1 = 0 or
    at a kink: where the upper envelope of the lines a_i - c1 b_i and 0
    passes from one line to the next. That happens at c1 = a_i / b_i, where
    line i crosses 0, or at (a_i - a_j) / (b_i - b_j), where two lines
    meet. The envelope is walked from c1 = 0 towards smaller slopes, and
    the lowest objective among its kinks is kept (the first on a tie).
    """
    mean_b = float(np.mean(b))
    # the lines a_i - c1 b_i, and the line 0 as (a, b) = (0, 0)
    lines_a, lines_b = np.append(a, 0.0), np.append(b, 0.0)
    # on top at c1 = 0: the highest line, of the smallest slope on a tie
    k = int(np.lexsort((lines_b, -lines_a))[0])
    kinks = [0.0]
    while True:
        lower = np.flatnonzero(lines_b < lines_b[k])
        if lower.size == 0:
            break
        with np.errstate(over="ignore"):  # lines of nearly equal slope meet far out
            meets = (lines_a[k] - lines_a[lower]) / (lines_b[k] - lines_b[lower])
        first = meets.min()
        if first == math.inf:
            break
        # on a tie the line of the smallest slope stays on top longest
        tied = lower[meets == first]
        k = int(tied[np.argmin(lines_b[tied])])
        kinks.append(max(float(first), 0.0))
    fits = [(c1, max(0.0, float(np.max(a - c1 * b)))) for c1 in kinks]
    return min(fits, key=lambda fit: fit[0] * mean_b + fit[1])


def ps_monitor(problem: Problem, trace: IterateTrace, grad_tol: float) -> PSReport:
    """Check the trace for the compactness pattern of a converging sequence.

    Energies must stay bounded, the final gradient must meet tolerance,
    the last two states must lie within ``TAIL_TOL`` in the energy norm,
    and the superquadratic norms of the iterates must admit a nonnegative
    affine bound in the energy norm (the least such bound on average,
    fit in closed form by :func:`_affine_fit` and reported with its worst
    slack). Norms that are not finite admit no fit.
    """
    if len(trace) == 0:
        raise InvalidSpecError("cannot monitor an empty trace")
    energies = np.asarray(trace.energies)
    bounded = bool(np.all(np.isfinite(energies)))
    span = float(np.max(np.abs(energies))) if bounded else float("inf")
    final_grad = trace.gradient_norms[-1]
    grad_converged = bool(final_grad <= grad_tol)

    # a convergent subsequence is all that is claimed, so only the final
    # iterates have to cluster; earlier ones may roam, and the step into
    # the terminal state is the measurable proxy for clustering
    tail = trace.last_states
    diam = 0.0
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            diam = max(diam, pair_norm(problem.op, tail[i] - tail[j]))
    tail_cauchy = bool(diam <= TAIL_TOL)

    a = np.array(trace.mu_norms)
    b = np.array(trace.state_norms)
    if np.isfinite(a).all() and np.isfinite(b).all():
        c1, c2 = _affine_fit(a, b)
        # c2 is rounded; lift it so the pair satisfies every constraint outright
        violation = float(np.max(a - (c1 * b + c2), initial=0.0))
        if violation > 0.0:
            c2 += violation
        slack = float(np.min(c1 * b + c2 - a))
        fit_ok = bool(slack >= -1e-9 * max(1.0, float(np.max(a, initial=0.0))))
    else:
        c1 = c2 = float("nan")
        slack = float("-inf")
        fit_ok = False
    return PSReport(
        bounded=bounded,
        energy_span=span,
        grad_converged=grad_converged,
        final_grad=float(final_grad),
        tail_cauchy=tail_cauchy,
        tail_diameter=float(diam),
        fit_c1=c1,
        fit_c2=c2,
        fit_slack=slack,
        fit_ok=fit_ok,
    )


def minimax_consistency(critical_value: float, sphere_min: float) -> bool:
    """The computed level must not undercut the sampled sphere minimum, less ``MINIMAX_TOL``."""
    return bool(critical_value >= sphere_min - MINIMAX_TOL)


def witness_predicate(
    energy: float,
    grad_norm: float,
    distance: float,
    level: float,
    eps: float,
    prox: float,
) -> bool:
    """Near-level, near-set, small-gradient test; strict on the gradient."""
    return (
        (level - 2.0 * eps <= energy <= level + 2.0 * eps)
        and distance <= 2.0 * prox
        and grad_norm < 8.0 * eps / prox
    )


@dataclass
class WitnessReport:
    found: bool
    witness: Optional[StatePair]
    energy: float
    gradient_norm: float
    distance: float
    iterations: int
    precondition_ok: bool
    sup_value: float
    reason: str


def deformation_witness_search(
    problem: Problem,
    frame: LinkingFrame,
    gamma: DeformationGamma,
    level: float,
    boundary_max: float,
    eps: float,
    prox: float,
    seed: int = 11,
    flow_steps: int = 120,
    flow_step: float = 0.2,
) -> WitnessReport:
    """Hunt for an almost-critical point near the deformed frame.

    Preconditions: 0 < eps < (level - boundary_max)/2, and the deformed
    frame samples (its boundary corners and 48 seeded interior points)
    must not exceed level + eps. The search flows from the highest
    deformed sample by one-step :func:`flow_map` steps of size at most
    ``flow_step``, each reusing the gradient solved at the last, so a step
    that would overflow is halved instead of taken. Not finding a witness
    is a reported outcome, not an error: the budget runs out, the step size
    collapses, or a deformed sample overflows (an infinite sup).
    """
    if not (eps > 0 and 2.0 * eps < level - boundary_max):
        raise InvalidSpecError(
            f"eps must lie in (0, (level - boundary_max)/2), got eps={eps}, "
            f"level={level}, boundary max={boundary_max}"
        )
    if not (prox > 0 and np.isfinite(prox)):
        raise InvalidSpecError(f"prox must be positive, got {prox}")
    if flow_steps < 0:
        raise InvalidSpecError(f"flow_steps must be nonnegative, got {flow_steps}")

    rng = np.random.default_rng(seed)
    rows = np.vstack([
        _boundary_corner_rows(frame.chart_dim, frame.rho),
        _interior_rows(rng, frame.chart_dim, frame.rho, 48),
    ])
    images = [gamma(row) for row in rows]
    image_vals = np.full(len(images), math.inf)  # an overflowing energy exceeds level + eps
    reason = "deformed samples exceed level + eps"
    for i, img in enumerate(images):
        try:
            image_vals[i] = evaluate_J(problem, img).total
        except EnergyOverflowError as exc:
            reason = f"deformed sample {i} overflows: {exc}"
            break
    sup_value = float(np.max(image_vals))
    precondition_ok = bool(sup_value <= level + eps + 1e-9 * (1.0 + abs(level)))
    if not precondition_ok:
        return WitnessReport(
            False, None, sup_value, float("nan"), float("nan"), 0,
            precondition_ok, sup_value, reason,
        )

    top = int(np.argmax(image_vals))
    x, energy = images[top].copy(), image_vals[top]
    trials = _flow_trials(problem, frame, flow_step)
    res, g, gn = _grad_and_norm(problem, x)
    reason = "iteration budget exhausted"
    for it in range(flow_steps + 1):
        distance = min(pair_norm(problem.op, x - img) for img in images)
        if witness_predicate(energy, gn, distance, level, eps, prox):
            return WitnessReport(
                True, x, float(energy), float(gn), float(distance), it,
                precondition_ok, sup_value, "witness found",
            )
        if it == flow_steps:
            break
        try:
            x, res, g, gn, _ = _accept(problem, trials(x, res, g, gn, flow_step))
        except _StepFailed as exc:
            reason = str(exc)  # x stays, so every later step would fail alike
            break
        energy = evaluate_J(problem, x).total
    return WitnessReport(
        False, None, float(energy), float(gn), float(distance), it,
        precondition_ok, sup_value, reason,
    )
