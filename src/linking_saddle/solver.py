"""Saddle-point solver and convergence certificates.

Two routes, chosen from the problem and the start. Every solve starts,
by default, at the crest of the energy along the ray of the principal
diagonal mode.

A symmetric problem (``Problem.symmetric``: f = g, F = G, f' = g' as the
same objects, and lam and delta the same double) from a nonzero start
with u == v is solved on the diagonal: swapping u and v leaves J
unchanged, so by Palais' principle of symmetric criticality a critical
point of w |-> J(w, w) is one of J. Damped Newton runs from the start,
and each trial is pinned to the crest of the energy along its own ray,
which keeps it off the trivial state. At a symmetric iterate the Newton
step keeps u == v bitwise, so every iterate is some (w, w), and each pair
kernel takes its v-half from its u-half (the mirror rule of
:func:`~linking_saddle.state.mirrored`). Newton goes to the nearest critical point, which
need not be a mountain pass: on coarse, long rectangles it stays symmetric
about the middle and stops at twice the least level. So the route keeps
its point only if the second variation of w |-> J(w, w) there has a
single negative direction, as at a mountain pass; a point that fails
this, or a run that stalls, hands the solve to the two stages below,
from the same start.

Every other problem or start takes two stages. The sign-respecting flow
exploits the saddle structure: it ascends the energy along the
antidiagonal factor while pinning the diagonal amplitude to the crest of
the energy along the current diagonal ray, so it escapes the trivial
basin whenever the coupling is genuinely superquadratic. A damped
Newton method then finishes; it is quadratically convergent near any
nondegenerate critical point, but from inside the trivial state's basin
it converges there, so it starts only where the flow hands off.

The handoff is an affine-covariant basin test (Deuflhard, Newton Methods
for Nonlinear Problems, 2004, ch. 2). At the flow's first iterate, and
again each time the gradient norm has halved since the last failed try,
one full Newton step d is tried. The flow hands off at x + d when that
step contracts the gradient norm tenfold, leaves a nontrivial state, and
moves the energy by at most |grad J(x)| |d|_E; the quadratic model
predicts half of that. The flow tolerance stays the latest point of
handoff. Newton, on either route, stops only once its iterates cluster:
the gradient norm meets its tolerance and the step just accepted has
energy norm at most ``TAIL_TOL``, the bound :func:`ps_monitor` puts on
the trace's tail.

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
grow with the mesh. Newton's steps are inexact far from the solution
(Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982): at
gradient norm gn, MINRES stops once its residual is at most
eta = min(0.01, gn^2) of the right-hand side's, both in the dual norm
sqrt(r . K^-1 r) that the gradient norm reads. Near the solution, once
gn^2 is at most 1e-10, each step is exact to MINRES's 1e-14, so the step
that ends a converged solve is. The basin test's trial steps are always
exact. The true residual is checked after every solve: against 2 eta of
the right-hand side in the dual norm for an inexact step, against 1e-10
of it in the Euclidean norm for an exact one.

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

from .errors import EnergyOverflowError, InvalidSpecError
from .functional import Problem, euler_lagrange_residual, evaluate_J, riesz_gradient
from .grid import StiffnessOperator
from .linking import LinkingFrame, _boundary_clearance, _boundary_corner_rows, _interior_rows
from .splitting import DiagonalSplitting
from .state import StatePair, mirrored, pair_norm

__all__ = [
    "SolverConfig",
    "IterateTrace",
    "SaddleReport",
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

# the flow's first and largest step, and the iterations it may take
FLOW_STEP = 0.25
FLOW_MAX_ITER = 400
# the flow gives up once backtracking halves its step below this
_MIN_FLOW_STEP = 1e-6
# a state of energy norm at most this fraction of the principal crest's is trivial
TRIVIAL_FRACTION = 0.1
# slope evaluations one crest search may take
_RAY_MAX_STEPS = 200
_SINGULAR = "second-variation system is singular"
# MINRES iterations one second-variation solve may take. K^-1 (K -/+ A) is
# the identity plus a compact operator, so the count does not grow with the mesh.
_MINRES_MAX_ITER = 200
# newton_solve's forcing term is min(_FORCING_MAX, gn^2) at gradient norm gn; a
# forcing term at or below _EXACT_FORCING asks for the exact step
_FORCING_MAX = 0.01
_EXACT_FORCING = 1e-10
# _second_curvature_ratio stops once its top two Ritz residuals are at most this
# fraction of the largest Ritz value
_RITZ_TOL = 1e-6
# energy norm of the last step of a converged Newton run, and the tail
# diameter ps_monitor accepts
TAIL_TOL = 1e-6
# slack, relative to max(1, |J|), by which a critical value may undercut J at the anchor
MINIMAX_TOL = 1e-8
# flow_deformation moves a chart point by the full flow map once both of its
# boundary clearances (``linking._boundary_clearance``) reach this
FLOW_RAMP = 0.05


@dataclass
class SolverConfig:
    """Solver settings; the field order is the order of the ``solver.*`` config keys.

    ``max_iter`` is the budget of the diagonal Newton and of the Newton
    stage after the flow. ``flow_tol`` is read by the flow alone, which a
    symmetric problem from a nonzero diagonal start runs only where the
    diagonal route declines its point; the flow's step and budget are
    ``FLOW_STEP`` and ``FLOW_MAX_ITER``.
    """

    grad_tol: float = 1e-10
    max_iter: int = 60
    flow_tol: float = 1e-4

    def __post_init__(self) -> None:
        # each message starts with its field name, so the config parser can
        # prefix the section and report it as the key
        for label, val in (("grad_tol", self.grad_tol), ("flow_tol", self.flow_tol)):
            if not (val > 0 and np.isfinite(val)):
                raise InvalidSpecError(f"{label} must be positive, got {val:g}")
        if self.max_iter < 1:
            raise InvalidSpecError(f"max_iter must be at least 1, got {self.max_iter}")


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
    """The outcome of a solve; ``method`` is "diagonal-newton" or "flow-then-newton".

    ``nontrivial``: converged, to a state past the floor of :func:`_initial_state`.
    """

    state: StatePair
    critical_value: float
    gradient_norm: float
    residual_euclidean: float
    converged: bool
    nontrivial: bool
    iterations: int
    method: str
    message: str
    trace: IterateTrace
    # the first-order residual at ``state``; residual_euclidean is its norm
    residual: StatePair


class _StepFailed(Exception):
    """A step rule has no trial left; the message says why."""


def _newton_step(problem: Problem, x: StatePair, res: StatePair,
                 eta: Optional[float] = None) -> StatePair:
    """Solve the second-variation system in sum/difference variables, to forcing term ``eta``.

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
    By the mirror rule, on a symmetric problem at u == v bitwise b is a.
    Each block is solved to the forcing term ``eta`` in the dual norm
    (:func:`_minres_solve`); with no ``eta``, or one at most
    ``_EXACT_FORCING``, the step is exact.
    """
    op, nl = problem.op, problem.nl
    vol = problem.grid.cell_volume
    n = problem.n
    a = vol * (problem.lam + np.asarray(nl.df(x.u), dtype=float))
    if problem.symmetric and mirrored(x.u, x.v):
        b = a
    else:
        b = vol * (problem.delta + np.asarray(nl.dg(x.v), dtype=float))
    avg = 0.5 * (a + b)
    off = 0.5 * (b - a)
    rhs_p = -(res.u + res.v)
    rhs_q = -(res.u - res.v)
    if np.any(off != 0.0):
        sol = _minres_solve(op, avg, off, np.concatenate([rhs_p, rhs_q]), eta)
        p, q = sol[:n], sol[n:]
    else:
        p = _minres_solve(op, avg, off, rhs_p, eta)
        # -(K + A) q = rhs_q, solved as (K + A) q = -rhs_q
        q = _minres_solve(op, -avg, off, -rhs_q, eta) if np.any(rhs_q != 0.0) else np.zeros(n)
    step = StatePair(0.5 * (p + q), 0.5 * (p - q))
    if not step.is_finite():
        raise _StepFailed(_SINGULAR)
    return step


def _minres_solve(op: StiffnessOperator, avg: np.ndarray, off: np.ndarray,
                  rhs: np.ndarray, eta: Optional[float] = None) -> np.ndarray:
    """MINRES on the second-variation system of size ``rhs.size``, applied matrix-free.

    With A = diag(avg) and n = avg.size, an rhs of n entries solves
    (K - A) w = rhs; one of 2n entries solves the coupled system

        [K - A   D       ]
        [D       -(K + A)] w = rhs,   D = diag(off),

    and ``off`` is read only there. The preconditioner is K^-1 on each
    block, by the operator's direct solve: fast diagonalization on 2D
    grids, the tridiagonal LDL^T on 1D. MINRES (:func:`_minres`) stops on
    its own residual estimate, so the true residual is checked afterwards;
    a miss raises :class:`_StepFailed`.

    With no forcing term ``eta``, or one at most ``_EXACT_FORCING``, the
    solve is exact: MINRES asks 1e-14 of its estimate, and the true
    residual is checked against ``op.rtol`` * |rhs| in the Euclidean
    norm, as :meth:`StiffnessOperator.solve` does. Otherwise it is an
    inexact Newton solve (Dembo, Eisenstat and Steihaug, SIAM J. Numer.
    Anal. 19, 1982): MINRES also stops once its estimate of the residual
    in the dual norm |r|_* = sqrt(r . K^-1 r) per block, the norm the
    gradient norm reads, is at most eta * |rhs|_*, and the true residual
    is checked in that norm against 2 eta * |rhs|_*, which leaves the
    estimate room to drift. :func:`newton_solve` asks eta = min(0.01, gn^2)
    at gradient norm gn, so the step that ends a converged solve, from gn
    at most 1e-5, is exact.
    """
    k, k_inv, n = op._matvec, op._factor, avg.size

    if rhs.size == n:
        def apply(w: np.ndarray) -> np.ndarray:
            return k(w) - avg * w

        precondition = k_inv
    else:
        def apply(w: np.ndarray) -> np.ndarray:
            p, q = w.reshape(2, n)
            out = np.concatenate([k(p) - avg * p, -k(q) - avg * q])
            out += np.concatenate([off * q, off * p])
            return out

        def precondition(r: np.ndarray) -> np.ndarray:
            return np.concatenate([k_inv(part) for part in r.reshape(2, n)])

    exact = eta is None or eta <= _EXACT_FORCING
    # the estimate runs ahead of the true residual; asking 1e-14 of it brings
    # the true residual of an exact solve under op.rtol
    sol, _, beta1 = _minres(apply, precondition, rhs, 1e-14, _MINRES_MAX_ITER,
                            0.0 if exact else eta)
    r = apply(sol) - rhs
    if exact:
        resid, bound = float(np.linalg.norm(r)), op.rtol * float(np.linalg.norm(rhs))
        within = f"{op.rtol:.1e} * |rhs| = {bound:.3e}"
    else:
        # beta1 is |rhs|_*, from MINRES's first preconditioner application
        resid, bound = math.sqrt(max(float(r @ precondition(r)), 0.0)), 2.0 * eta * beta1
        within = f"2 * eta * |rhs|_* = {bound:.3e} in the dual norm at eta = {eta:.1e}"
    # written so that a NaN residual fails too
    if not resid <= bound:
        raise _StepFailed(f"{_SINGULAR}: MINRES residual {resid:.3e} exceeds {within}")
    return sol


def _minres(matvec: Callable[[np.ndarray], np.ndarray], psolve: Callable[[np.ndarray], np.ndarray],
            b: np.ndarray, rtol: float, maxiter: int,
            eta: float = 0.0) -> tuple[np.ndarray, int, float]:
    """Preconditioned MINRES for symmetric A x = b from x = 0.

    It returns x, the iterations and beta1 = sqrt(b . M b), the norm of b
    in the preconditioner's inner product.

    Paige and Saunders, SIAM J. Numer. Anal. 12, 1975, as scipy 1.17's
    ``scipy.sparse.linalg.minres`` writes it, with the same numpy calls
    in the same order, so it returns the same bytes: ``matvec`` applies
    A and ``psolve`` the SPD preconditioner M ~ A^-1. The iteration
    stops once the residual estimate is at most ``rtol`` relative to
    |A| |x|, or that of A r to |A| |r|; after the first step if b spans an
    invariant subspace; once the condition estimate reaches 0.1 / eps,
    or eps |A| |x| the preconditioned norm of b; or after ``maxiter``
    iterations. One stop is not scipy's: the forcing stop, once phibar,
    the estimate of sqrt(r . M r) for the residual r, is at most ``eta``
    times beta1. Its default ``eta`` of 0 turns it off, and the iteration
    is then scipy's, bit for bit.
    """
    n = b.size
    eps = np.finfo(float).eps
    x = np.zeros(n)
    r1 = b.copy()
    y = psolve(r1)
    beta1 = np.inner(r1, y)
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    elif beta1 == 0:
        return x, 0, 0.0
    beta1 = math.sqrt(beta1)
    if np.linalg.norm(b) == 0:
        return b, 0, beta1

    itn = 0
    oldb = 0
    beta = beta1
    dbar = 0
    epsln = 0
    phibar = beta1
    tnorm2 = 0
    gmax = 0
    gmin = np.finfo(float).max
    cs = -1
    sn = 0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1
    while itn < maxiter:
        itn += 1
        # the Lanczos step in the M^-1 inner product; the 0.0 * v is scipy's shift
        # term, kept because it turns a -0.0 into +0.0
        s = 1.0 / beta
        v = s * y
        y = matvec(v) - 0.0 * v
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = np.inner(v, y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = psolve(r2)
        oldb = beta
        beta = np.inner(r2, y)
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = math.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        invariant = itn == 1 and beta / beta1 <= 10 * eps

        # apply the previous rotation, then compute the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = - cs * beta
        root = np.linalg.norm([gbar, dbar])
        gamma = max(np.linalg.norm([gbar, beta]), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # update x
        denom = 1.0 / gamma
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) * denom
        x = x + phi * w

        # estimate the norms and test for convergence
        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)
        anorm = math.sqrt(tnorm2)
        ynorm = np.linalg.norm(x)
        epsx = anorm * ynorm * eps
        test1 = np.inf if ynorm == 0 or anorm == 0 else phibar / (anorm * ynorm)
        test2 = np.inf if anorm == 0 else root / anorm
        if invariant or (1 + test2 <= 1 or 1 + test1 <= 1 or gmax / gmin >= 0.1 / eps
                         or epsx >= beta1 or test2 <= rtol or test1 <= rtol
                         or phibar <= eta * beta1):
            break
    return x, itn, beta1


def _grad_and_norm(problem: Problem, x: StatePair) -> tuple[StatePair, StatePair, float]:
    """The first-order residual at x, the gradient solved from it, and the gradient's norm."""
    res = euler_lagrange_residual(problem, x)
    g = riesz_gradient(problem, x, _residual=res)
    return res, g, pair_norm(problem.op, g)


def _principal_direction(problem: Problem) -> StatePair:
    """The principal mode on the diagonal, (phi_1, phi_1)/sqrt(2), of energy norm 1."""
    return StatePair.diagonal(problem.eigenpairs(1)[1][0] / np.sqrt(2.0))


def _initial_state(problem: Problem, x0: Optional[StatePair],
                   floor: Optional[float] = None) -> tuple[StatePair, float]:
    """The start, ``x0`` or else the crest x_c of the energy on the principal ray, and a floor.

    A state of energy norm at most the floor is trivial. It is ``floor``, or
    else ``TRIVIAL_FRACTION`` * |x_c|_E = TRIVIAL_FRACTION * tau, the ray's
    direction having norm 1. Where the ray has no crest (purely quadratic
    energies, or shifts past the first eigenvalue) x_c is the trivial
    state, and the floor is ``TRIVIAL_FRACTION`` times the start's energy
    norm: 0 for the zero start.
    """
    if x0 is None or floor is None:
        direction = _principal_direction(problem)
        tau = _ray_argmax(problem, np.zeros(problem.n), direction.u, 1.0)
        crest = StatePair.zeros(problem.n) if tau is None else tau * direction
        x0 = crest if x0 is None else x0
        if floor is None:
            floor = TRIVIAL_FRACTION * (tau or pair_norm(problem.op, x0))
    return x0.copy(), floor


@dataclass(frozen=True)
class _Ray:
    """The line (b, -b) + tau (q, q), with c2 = <q, K q>.

    Every ray the solver searches has such an antidiagonal (or zero) base
    and diagonal direction, so its cross term is c2 tau^2 - <b, K b>;
    the crest slope (:func:`_ray_slope`) reads c2.
    """

    base: np.ndarray
    direction: np.ndarray
    c2: float


def _ray(problem: Problem, base: np.ndarray, direction: np.ndarray) -> _Ray:
    """Validate the :class:`_Ray` of b = ``base`` and q = ``direction``: one K product, for c2."""
    grid = problem.grid
    b, q = grid.check_field(base), grid.check_field(direction)
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = q @ problem.op.apply(q)
    return _Ray(b, q, float(c2))


def _ray_energy(problem: Problem, ray: _Ray, tau: float) -> float:
    """:func:`evaluate_J` at the ray's point (b + tau q, tau q - b), or -inf on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        qt = ray.direction * tau
        x = StatePair(ray.base + qt, qt - ray.base)
    try:
        return evaluate_J(problem, x).total
    except EnergyOverflowError:
        return -np.inf


def _ray_slope(problem: Problem, ray: _Ray, tau: float) -> tuple[float, float]:
    """First and second derivative of :func:`_ray_energy` in tau, or (-inf, -inf) on overflow.

    Each u-term is grouped with its v-mirror, so on a symmetric problem
    swapping the components, that is negating the base, leaves both values
    bitwise unchanged. By the mirror rule, there at u == v bitwise the
    v-terms are the u-terms, so each pair is one term doubled, as x + x.
    """
    nl, vol = problem.nl, problem.grid.cell_volume
    q = ray.direction
    with np.errstate(over="ignore", invalid="ignore"):
        qt = q * tau
        u, v = ray.base + qt, qt - ray.base
        qq, q2 = float(q @ q), q * q
        shift_u, coupling_u = problem.lam * float(u @ q), float(nl.f(u) @ q)
        shift2_u, coupling2_u = problem.lam * qq, float(nl.df(u) @ q2)
        if problem.symmetric and mirrored(u, v):
            shift_v, coupling_v, shift2_v, coupling2_v = shift_u, coupling_u, shift2_u, coupling2_u
        else:
            shift_v, coupling_v = problem.delta * float(v @ q), float(nl.g(v) @ q)
            shift2_v, coupling2_v = problem.delta * qq, float(nl.dg(v) @ q2)
        slope = 2.0 * tau * ray.c2 - vol * ((shift_u + shift_v) + (coupling_u + coupling_v))
        curvature = 2.0 * ray.c2 - vol * ((shift2_u + shift2_v) + (coupling2_u + coupling2_v))
    if not (math.isfinite(slope) and math.isfinite(curvature)):
        return -np.inf, -np.inf
    return slope, curvature


def _ray_argmax(
    problem: Problem, base: np.ndarray, direction: np.ndarray, t_current: float
) -> Optional[float]:
    """Crest of the energy along (b, -b) + tau (q, q) reached from ``t_current``, or None.

    b is ``base`` and q is ``direction`` (see :class:`_Ray`).

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
    x: StatePair,
    g: StatePair,
    s: float,
) -> StatePair:
    """One sign-respecting step: antidiagonal ascent, diagonal crest pinning.

    The diagonal shape moves against the component of the gradient
    transverse to the current ray; those directions carry positive
    curvature, so ascent there diverges while descent walks the crest
    manifold down to the saddle. The ray amplitude itself is re-pinned
    to the crest after every shape change, along the principal diagonal
    mode where the diagonal part collapses.
    """
    p = split.antidiagonal_part(x)
    q = split.diagonal_part(x)
    gp = split.antidiagonal_part(g)
    gq = split.diagonal_part(g)
    p_new = p + s * gp
    # q, gq and q_tent are mirrored pairs, one product each
    qq = split.pair_dot(q, q)
    t_cur = float(np.sqrt(max(qq, 0.0)))
    if t_cur > 1e-300:
        coeff = split.pair_dot(gq, q) / qq
        transverse = gq - coeff * q
        q_tent = q - s * transverse
    else:
        q_tent = q + s * gq
    t_tent = split.pair_norm(q_tent)
    qhat = _principal_direction(problem) if t_tent <= 1e-300 else (1.0 / t_tent) * q_tent
    tau_star = _ray_argmax(problem, p_new.u, qhat.u, t_cur)
    if tau_star is None:
        tau_new = (1.0 - s) * t_cur
    else:
        tau_new = t_cur + min(1.0, 2.0 * s) * (tau_star - t_cur)
    return p_new + tau_new * qhat


def _mu_norm(problem: Problem, x: StatePair) -> float:
    """vol * (sum |u|^mu + sum |v|^mu); by the mirror rule, one sum s as s + s where u == v bitwise."""
    mu = problem.nl.mu
    su = np.sum(np.abs(x.u) ** mu)
    sv = su if mirrored(x.u, x.v) else np.sum(np.abs(x.v) ** mu)
    return problem.grid.cell_volume * (su + sv)


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


def _flow_trials(problem: Problem, max_step: float):
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
            yield _flow_update(split, problem, x, g, s), 1.5 * gn, min(s * 1.25, max_step)
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
    floor: float,
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
    trial left, which ends the loop with that message, the gradient norm
    reached and ``tol`` appended. ``step`` is the step size recorded with
    the starting iterate.

    The loop converges once the gradient norm is at most ``tol`` and the
    step just accepted has energy norm at most ``step_tol`` (a finite one
    asks for at least one step), to a nontrivial state past ``floor``.
    ``basin(x, res, gn, energy)``, when given, is asked before the first
    step, and again before each step whose gradient norm is at most half
    the one it last said None to. A ``(trial, res, g, gn, energy)`` it
    returns is taken as a full step, recorded with step size 1 and that
    energy, and ends the loop there as converged. ``start``, when given, is
    the residual, gradient norm and energy known at x; the gradient itself
    is then not computed, so ``trials`` must not read it.
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
            message = f"{exc} at gradient norm {gn:.4g}, tolerance {tol:.4g}"
            break
        if step_tol < math.inf:
            # the same difference ps_monitor measures between the last two states
            last_step = pair_norm(problem.op, trial - x)
        x, energy = trial, None
        it += 1
    # x is the trace's last entry, whose gradient norm is the dual residual
    # norm; res is the first-order residual at x
    return SaddleReport(
        state=x,
        critical_value=trace.energies[-1],
        gradient_norm=trace.gradient_norms[-1],
        residual_euclidean=float(np.sqrt(res.u @ res.u + res.v @ res.v)),
        converged=converged,
        nontrivial=bool(converged and trace.state_norms[-1] > floor),
        iterations=it,
        method=method,
        message=message,
        trace=trace,
        residual=res,
    )


def _basin_trial(
    problem: Problem, x: StatePair, res: StatePair, gn: float, energy: float, floor: float
) -> Optional[tuple[StatePair, StatePair, StatePair, float, float]]:
    """One full Newton step from ``x``, if it shows the basin.

    It returns ``(x + d, residual, gradient, gradient norm, energy)`` at x + d.

    The step must contract the gradient norm ``gn`` at ``x`` at least
    tenfold, land on a state of energy norm above the triviality ``floor``
    (:func:`_initial_state`), and change the energy ``J(x)`` by at most
    gn * |d|_E. Near a nondegenerate
    critical point the quadratic model gives J(x + d) - J(x) = <grad J, d>/2,
    within half that bound. A step that fails, or overflows, shows nothing.
    ``res`` is the first-order residual at ``x``. The step is exact: an
    inexact one, held to a forcing term, hands off later.
    """
    op = problem.op
    try:
        d = _newton_step(problem, x, res)
        trial = x + d
        res_trial, g, gn_trial = _grad_and_norm(problem, trial)
        energy_trial = evaluate_J(problem, trial).total
    except (_StepFailed, EnergyOverflowError):
        return None
    if (gn_trial <= 0.1 * gn and pair_norm(op, trial) > floor
            and abs(energy_trial - energy) <= gn * pair_norm(op, d)):
        return trial, res_trial, g, gn_trial, energy_trial
    return None


def newton_solve(
    problem: Problem,
    config: Optional[SolverConfig] = None,
    x0: Optional[StatePair] = None,
    *,
    _start: Optional[tuple[StatePair, float, float]] = None,
    _pin: bool = False,
    _floor: Optional[float] = None,
) -> SaddleReport:
    """Damped Newton iteration on the first-order system, the second stage of :func:`solve_saddle`.

    The merit function for the damping is the dual residual norm, which
    coincides with the gradient norm: a step is accepted once it lowers
    that norm by a factor 1 - 1e-4 * alpha, or keeps it within
    ``grad_tol``. The Newton direction at gradient norm gn is solved to
    the forcing term min(0.01, gn^2) (:func:`_minres_solve`), so it is
    exact once gn is at most 1e-5. The iteration stops once the gradient norm meets
    ``grad_tol`` and the step just accepted has energy norm at most
    ``TAIL_TOL``, so it always takes at least one step, and a converged
    run ends on two iterates that cluster. ``_start`` is the first-order
    residual, gradient norm and energy at ``x0``, where :func:`solve_saddle`
    knows them. With ``_pin``, :func:`solve_saddle`'s diagonal route, each
    trial, a pair (w, w), is scaled to the crest of the energy along its own
    ray (:func:`_ray_argmax`), and a trial whose ray has no crest above the
    trivial state is skipped; the report's method is "diagonal-newton".
    ``_floor`` is the triviality floor, where :func:`solve_saddle` knows it.
    """
    cfg = config if config is not None else SolverConfig()
    zero = np.zeros(problem.n)

    def trials(x, res, g, gn, step):
        # the forcing term of an inexact step, exact once gn <= 1e-5
        direction = _newton_step(problem, x, res, min(_FORCING_MAX, gn * gn))
        alpha = 1.0
        while alpha >= 1e-4:
            trial = x + alpha * direction
            bound = max((1.0 - 1e-4 * alpha) * gn, cfg.grad_tol)
            if not _pin:
                yield trial, bound, alpha
            else:
                tau = _ray_argmax(problem, zero, trial.u, 1.0)
                # no crest, or a crest at the trivial state: nothing to pin to
                if tau is not None and tau > 0.0:
                    yield tau * trial, bound, alpha
            alpha *= 0.5
        raise _StepFailed("line search stalled")

    x, floor = _initial_state(problem, x0, _floor)
    return _iterate(problem, x, trials, cfg.grad_tol, cfg.max_iter, 0.0,
                    "diagonal-newton" if _pin else "newton", floor,
                    step_tol=TAIL_TOL, start=_start)


def signflow_solve(
    problem: Problem,
    config: Optional[SolverConfig] = None,
    x0: Optional[StatePair] = None,
    *,
    _basin: Optional[Callable[[StatePair, StatePair, float, float], Optional[tuple]]] = None,
    _floor: Optional[float] = None,
) -> SaddleReport:
    """Sign-respecting ascent/pinning flow to ``flow_tol``, the first stage of :func:`solve_saddle`.

    Up to ``FLOW_MAX_ITER`` steps by the trial rule of :func:`_flow_trials`,
    halving from ``FLOW_STEP``. On a purely quadratic energy the update
    contracts the state by exactly (1 - step) per iteration, so the trivial
    state is reached monotonically; superquadratic couplings instead pin the
    diagonal amplitude to the crest of the ray energy, away from zero.
    ``_basin`` and ``_floor`` are :func:`solve_saddle`'s handoff test (see
    :func:`_iterate`) and triviality floor.
    """
    cfg = config if config is not None else SolverConfig()
    x, floor = _initial_state(problem, x0, _floor)
    return _iterate(problem, x, _flow_trials(problem, FLOW_STEP), cfg.flow_tol,
                    FLOW_MAX_ITER, FLOW_STEP, "signflow", floor, basin=_basin)


def _second_curvature_ratio(problem: Problem, w: np.ndarray) -> float:
    """nu_2, the second largest eigenvalue of vol (lam + f'(w)) x = nu K x; -inf on one node.

    The second variation of w |-> J(w, w) is 2 (K - vol diag(lam + f'(w))),
    so it has one negative direction for each nu above 1. At a critical
    point on the diagonal, w itself is one; nu_2 < 1 says there is no
    other, the Morse index of a mountain pass, that is of a local minimum
    of the energy on the Nehari manifold. It is found by Lanczos on
    K^-1 A, A = vol diag(lam + f'(w)), which is self-adjoint in the K
    inner product, with full reorthogonalization: after the three-term
    recurrence, one modified Gram-Schmidt pass in the K inner product
    against every Lanczos vector (Parlett, The Symmetric Eigenvalue
    Problem, 1980). It starts from a seeded vector with components in
    every mode, and stops once the top two Ritz pairs have residual norm
    at most ``_RITZ_TOL`` times the largest Ritz value, at n steps at
    the latest.
    """
    a = problem.grid.cell_volume * (problem.lam + np.asarray(problem.nl.df(w), dtype=float))
    op, n = problem.op, problem.n
    if n == 1:
        return -math.inf
    q = np.random.default_rng(0).standard_normal(n)
    kq = op._matvec(q)
    scale = math.sqrt(q @ kq)
    basis, k_basis = [q / scale], [kq / scale]  # the Lanczos vectors and their K products
    alphas, betas = [], []
    while True:
        q = basis[-1]
        aq = a * q
        alphas.append(q @ aq)
        r = op._factor(aq) - alphas[-1] * q
        if betas:
            r -= betas[-1] * basis[-2]
        for q_i, kq_i in zip(basis, k_basis):
            r -= (kq_i @ r) * q_i
        kr = op._matvec(r)
        beta = math.sqrt(max(r @ kr, 0.0))
        ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        # the residual of Ritz pair i is beta |last component of its vector|
        if (len(basis) == n or beta * np.max(np.abs(vecs[-1, -2:]))
                <= _RITZ_TOL * np.max(np.abs(ritz))):
            return float(ritz[-2:][0])  # one Ritz value only if A = 0, where every nu is 0
        betas.append(beta)
        basis.append(r / beta)
        k_basis.append(kr / beta)


def solve_saddle(
    problem: Problem,
    config: Optional[SolverConfig] = None,
    x0: Optional[StatePair] = None,
) -> SaddleReport:
    """A saddle point of J, from the principal diagonal crest by default.

    A symmetric problem (``Problem.symmetric``) from a nonzero start with
    u == v is solved on the diagonal: Newton from that start, each trial
    pinned to the crest of its ray (:func:`newton_solve`). At a symmetric
    iterate the Newton step keeps u == v bitwise (:func:`_newton_step`),
    so every iterate stays on the diagonal. The route's report is returned
    if it converged with one negative direction of the diagonal second
    variation (:func:`_second_curvature_ratio` below 1), or if the budget
    cut it short. Otherwise, and for any other problem or start, the zero
    start included (the default where the principal ray has no crest), the
    solve takes the flow to Newton's basin, then Newton, and a declined
    diagonal run leads the message with "diagonal route: " and why. The
    flow hands off at its first full Newton step that passes
    :func:`_basin_trial`, or at ``flow_tol`` if none does, and Newton
    starts from there, with the first-order residual, gradient norm and
    energy of the flow's last trace row. Its own first row repeats that
    row, and the compactness fit counts both. All stages share the triviality
    floor of :func:`_initial_state`, whose one crest search serves both.
    """
    cfg = config if config is not None else SolverConfig()
    x0, floor = _initial_state(problem, x0)
    declined = ""
    if problem.symmetric and np.array_equal(x0.u, x0.v) and np.any(x0.u != 0.0):
        diagonal = newton_solve(problem, cfg, x0, _pin=True, _floor=floor)
        if not diagonal.converged and diagonal.iterations < cfg.max_iter:
            declined = f"diagonal route: {diagonal.message}; "
        elif diagonal.converged and (
                ratio := _second_curvature_ratio(problem, diagonal.state.u)) >= 1.0:
            declined = (f"diagonal route: a second negative curvature direction "
                        f"(nu_2 = {ratio:.6g}); ")
        else:
            return diagonal
    first = signflow_solve(problem, cfg, x0, _floor=floor,
                           _basin=functools.partial(_basin_trial, problem, floor=floor))
    second = newton_solve(problem, cfg, x0=first.state, _floor=floor,
                          _start=(first.residual, first.trace.gradient_norms[-1],
                                  first.trace.energies[-1]))
    first.trace.extend(second.trace)
    message = second.message
    if not first.converged:
        message = f"flow stage: {first.message}; newton stage: {second.message}"
    return dataclasses.replace(
        second, iterations=first.iterations + second.iterations,
        method="flow-then-newton", message=declined + message, trace=first.trace,
    )


def flow_map(problem: Problem, x0: StatePair, steps: int = 12, step: float = 0.2) -> StatePair:
    """Up to ``steps`` accepted flow steps of size at most ``step``, used as a deformation.

    Each step takes the trial rule of :func:`signflow_solve`
    (:func:`_flow_trials`), so a trial whose gradient norm grows past 1.5
    times the current one, or whose energy overflows, is halved instead
    of taken. Where no trial is rejected this is ``steps`` flow updates of
    size ``step``. The map stops early, at its last accepted state, where
    the step size collapses.
    """
    trials = _flow_trials(problem, step)
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
                     step: float = 0.2) -> Callable[[np.ndarray], StatePair]:
    """The state map xi -> state that moves frame points along the flow, frozen at the boundary.

    The weight ramps from an exact 0.0 on the boundary to 1 at clearance
    ``FLOW_RAMP`` from base and cap, so deep interior points are moved by
    the full flow map. It leaves the chart, so only the witness search takes it.
    """
    if frame.problem is not problem:
        raise InvalidSpecError("the frame is built on another problem")

    def flow(xi: np.ndarray) -> StatePair:
        x = frame.state_from_chart(xi)
        q1, q2 = map(float, _boundary_clearance(frame, xi))
        w = min(1.0, q1 / FLOW_RAMP) * min(1.0, q2 / FLOW_RAMP)
        if w == 0.0:
            return x
        return x + w * (flow_map(problem, x, steps, step) - x)

    return flow


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
    """The computed level must not undercut J at the anchor of the sphere N, ``sphere_min``.

    The slack is ``MINIMAX_TOL`` max(1, |sphere_min|), so that a level that
    rounds to within a few ulp of a large ``sphere_min`` passes.
    """
    return bool(critical_value >= sphere_min - MINIMAX_TOL * max(1.0, abs(sphere_min)))


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
    gamma: Callable[[np.ndarray], StatePair],
    level: float,
    boundary_max: float,
    eps: float,
    prox: float,
    seed: int = 11,
    flow_steps: int = 120,
    flow_step: float = 0.2,
) -> WitnessReport:
    """Hunt for an almost-critical point near the frame deformed by ``gamma``.

    ``gamma`` maps chart points to states: a :func:`flow_deformation` or a
    ``DeformationGamma``. ``frame`` must be built on ``problem``.

    Preconditions: 0 < eps < (level - boundary_max)/2, and the deformed
    frame samples (its boundary corners and 48 seeded interior points)
    must not exceed level + eps. The search flows from the highest
    deformed sample by one-step :func:`flow_map` steps of size at most
    ``flow_step``, each reusing the gradient solved at the last, so a step
    that would overflow is halved instead of taken. Not finding a witness
    is a reported outcome, not an error: the budget runs out, the step size
    collapses, or a deformed sample overflows (an infinite sup).
    """
    if frame.problem is not problem:
        raise InvalidSpecError("the frame is built on another problem")
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
    trials = _flow_trials(problem, flow_step)
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
