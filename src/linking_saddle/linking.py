"""Linking frames: the sets whose energies separate, and their certificates.

The linking construction takes a small sphere N inside the diagonal
subspace and a half-ball frame M spanned by finitely many antidiagonal
modes plus the anchor direction. Saddle geometry means the energy on N
stays strictly above its maximum on the frame boundary.

That separation is proved, not sampled, over the paper's whole
half-ball Q in R+ anchor + E-, where E- is the full antidiagonal
subspace and not only the chart's modes. Below, on N, stands the sphere
floor: a Green-function bound on the embedding constant feeds the
small-sphere estimate. Above, on the boundary of Q, stands the ceiling:
Jensen's inequality moves every point onto the anchor ray, where the
energy is a closed-form function of one variable. Both hold for
F = G = a |t|^p, the power and zero presets, with nonnegative shifts
below resonance; any other coupling is refused.

The degree and intersection certificates work on a finite-dimensional
frame, checked in an explicit chart whose Euclidean norm agrees with the
energy norm.

The chart is linear: xi maps to the state xi . B, where the rows of B
are the first d_y antidiagonal mode directions and anchor / r. The
frame's modal basis holds exactly those d_y modes. G = B K B^T is the
(d_y + 1)-square Gram matrix of the rows in the energy inner product:
the identity, up to the rounding of the eigenvectors.

A deformation gamma is its chart map xi -> eta, gamma(xi) = eta . B,
and carries its frame; the certificates read the frame from it. They
work on the chart homotopy

    H_t(xi) = t ((G eta)[:d_y], |eta_last| sqrt(G[-1, -1])) + (1 - t) xi - r e_last,

the energy inner products of gamma(xi) with the mode rows, and the norm
of its diagonal part, which is eta_last times the anchor row. No state
is built. At t = 0 this is the affine map xi - r e_last, and at t = 1
it vanishes exactly when gamma(xi) hits the sphere N. Roots are located
by a damped Newton iteration run from every point of a start lattice at
once: the chart maps take an (m, d_y + 1) block of chart rows, so one
map call serves a whole batch of iterates, trial points or
central-difference stencils, and the iteration never evaluates the map
outside the half-ball. Degrees are sums of Jacobian determinant signs
at the roots, so they are exact provided the sweep finds every root,
which the lattice is sized for in the shipped frames.

H_0 weighs gamma by exactly zero, so for a finite gamma it is the
affine map xi - r e_last, whose degree is proved, not counted
(``AFFINE_START_DEGREE``). At t = 1 the end degree and the
intersection certificate need the same roots, so they share one sweep
(``intersection_point(gamma, roots=degree.roots)``). The displacement
(eta - xi) . B of gamma is measured with G. The certificate itself is
checked on the state gamma(xi), independently of G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (
    BoundaryZeroError,
    DegenerateRootError,
    DomainMembershipError,
    EnergyOverflowError,
    GeometryCertificationError,
    IntersectionNotFoundError,
    InvalidSpecError,
)
from .functional import NonlinearitySpec, Problem, evaluate_J
from .splitting import DiagonalSplitting, ModalBasis
from .state import StatePair

__all__ = [
    "LinkingFrame",
    "build_frame",
    "SampleSets",
    "sample_sets",
    "GeometryReport",
    "estimate_geometry",
    "RadiiChoice",
    "choose_radii",
    "DeformationGamma",
    "identity_deformation",
    "modal_shift_deformation",
    "anchor_shear_deformation",
    "shipped_deformations",
    "displacement_residual",
    "homotopy_chart_map",
    "IntersectionCertificate",
    "intersection_point",
    "DegreeReport",
    "brouwer_degree_small",
]

MAX_DEGREE_DIMENSION = 4
# deg(H_0, M, 0) for every finite gamma, proved (Willem 1996, Thm 2.21; Deimling
# 1985, ch. 1): homotopy_chart_map at t = 0.0 weighs gamma by exactly 0, so H_0 is
# xi - r e_last; its one root r e_last lies inside M, as LinkingFrame enforces
# 0 < r < rho; its Jacobian is the identity; and |H_0| >= min(r, rho - r) on ∂M.
AFFINE_START_DEGREE = 1
# The root sweep behind both the degree count and the intersection
# certificate: lattice points per chart axis, and the largest map residual
# (relative to max(1, r)) of a root it keeps.
SWEEP_STARTS_PER_AXIS = 4
SWEEP_RESIDUAL_TOL = 1e-10
# The Newton iteration of the sweep: iterations per sweep, the smallest
# damping factor a backtracking step tries, and the step size, relative to
# max(1, |xi|), below which an iterate has converged
SWEEP_MAX_STEPS = 50
SWEEP_MIN_DAMPING = 2.0**-16
SWEEP_STEP_TOL = 1e-13


def _row_dots(xi: np.ndarray, other: Optional[np.ndarray] = None) -> np.ndarray:
    """x @ y of each row x of xi and its row y of ``other`` (xi itself by default).

    Each dot is bitwise that of the two rows alone. A stacked matmul calls
    the same BLAS dot once per row; a summed product would not.
    """
    other = xi if other is None else other
    return (xi[..., None, :] @ other[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class LinkingFrame:
    """Chart data for one linking configuration; no field changes once built.

    The chart coordinate is xi in R^(d_y + 1): the first d_y entries are
    coefficients along antidiagonal mode directions, the last entry is
    the anchor coefficient scaled so that the Euclidean norm of xi
    equals the energy norm of the state. The frame set M is the chart
    half-ball {|xi| <= rho, xi_last >= 0}; the small sphere N is the
    radius-r sphere of the full diagonal subspace. ``basis`` holds
    exactly the d_y chart modes, so d_y is its mode count. The Gram
    matrix of the chart, the boundary rows of the degree count and the
    start lattice of the root sweeps are cached on first use.
    """

    problem: Problem
    splitting: DiagonalSplitting
    basis: ModalBasis
    anchor: StatePair
    r: float
    rho: float

    def __post_init__(self) -> None:
        if not (0 < self.r < self.rho and np.isfinite(self.rho)):
            raise InvalidSpecError(
                f"radii must satisfy 0 < r < rho, got r={self.r}, rho={self.rho}"
            )
        if self.basis.count < 1:
            raise InvalidSpecError("the modal basis must hold at least one chart mode")
        split = self.splitting
        stray = split.pair_norm(split.antidiagonal_part(self.anchor))
        if stray > 1e-10 * self.r:
            raise InvalidSpecError("anchor must lie in the diagonal subspace")
        if abs(split.pair_norm(self.anchor) - self.r) > 1e-8 * self.r:
            raise InvalidSpecError("anchor norm must equal r")

    @property
    def d_y(self) -> int:
        return self.basis.count

    @property
    def chart_dim(self) -> int:
        return self.d_y + 1

    @cached_property
    def _chart_gram(self) -> np.ndarray:
        """G = B K B^T, the energy inner products of the rows of B.

        The identity up to the rounding of the modes (2.7e-15 at 1D
        n = 255), which the homotopy keeps rather than drops. Built on
        first use: a solve never evaluates the homotopy.
        """
        rows = [self.basis.direction(k) for k in range(self.d_y)] + [self.anchor / self.r]
        return np.array([[self.splitting.pair_dot(a, b) for b in rows] for a in rows])

    def _check_chart(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.chart_dim,):
            raise InvalidSpecError(f"chart point must have shape ({self.chart_dim},)")
        return xi

    def state_from_chart(self, xi: np.ndarray) -> StatePair:
        """The state xi . B."""
        xi = self._check_chart(xi)
        # sum_k xi[k] dir_k = (-w, w)
        w = (xi[:-1] / np.sqrt(2.0)) @ self.basis.modes
        a = xi[-1] / self.r
        return StatePair(a * self.anchor.u - w, a * self.anchor.v + w)

    @cached_property
    def _degree_rows(self) -> np.ndarray:
        """The corners, 150 cap and 150 base rows of ``brouwer_degree_small``, drawn once."""
        rows = _boundary_rows(np.random.default_rng(7), self.chart_dim, self.rho,
                              300 + 2 * self.chart_dim)
        rows.flags.writeable = False
        return rows

    @cached_property
    def _sweep_starts(self) -> np.ndarray:
        """The start lattice of every root sweep on the frame, built once."""
        starts = _start_lattice(self, SWEEP_STARTS_PER_AXIS)
        starts.flags.writeable = False
        return starts

    def _inside(self, xi: np.ndarray) -> np.ndarray:
        """Half-ball membership of each chart row, with a slack of 1e-9 rho for rounding."""
        return ((xi[..., -1] >= -1e-9 * self.rho)
                & (np.sqrt(_row_dots(xi)) <= self.rho * (1.0 + 1e-9)))

    def require_member(self, xi: np.ndarray) -> np.ndarray:
        """The chart rows xi, an (m, d_y + 1) block or one row, once each lies in the half-ball.

        A failure names the first row outside, its norm and its last coordinate.
        """
        xi = np.asarray(xi, dtype=float)
        d = self.chart_dim
        if xi.ndim not in (1, 2) or xi.shape[-1] != d:
            raise DomainMembershipError(
                f"chart rows must have shape (m, {d}) or ({d},), got {xi.shape}")
        inside = self._inside(xi).reshape(-1)
        if not inside.all():
            i = int(np.argmin(inside))
            row = xi.reshape(-1, d)[i]
            raise DomainMembershipError(
                f"chart row {i} outside the frame half-ball: |xi|={math.sqrt(row @ row):.6g}, "
                f"last={row[-1]:.6g}, rho={self.rho:.6g}"
            )
        return xi


def build_frame(
    problem: Problem,
    r: float,
    rho: float,
    d_y: int = 1,
    anchor_direction: Optional[StatePair] = None,
) -> LinkingFrame:
    """Assemble a frame on the problem's grid, with a basis of its d_y chart modes.

    Its modes are the problem's cached ``eigenpairs(d_y)``. The default
    anchor points along the principal mode; an explicit direction is
    projected onto the diagonal subspace and normalized, so re-anchoring
    along a computed solution is a one-liner.
    """
    split = DiagonalSplitting(problem.grid, problem.op)
    evals, modes = problem.eigenpairs(d_y)
    basis = ModalBasis(split, modes, evals)
    if anchor_direction is None:
        anchor = float(r) * basis.diagonal_direction(0)
    else:
        diag = split.diagonal_part(anchor_direction)
        norm = split.pair_norm(diag)
        if norm <= 0 or not np.isfinite(norm):
            raise InvalidSpecError("anchor direction has no diagonal component")
        anchor = (float(r) / norm) * diag
    return LinkingFrame(problem, split, basis, anchor, float(r), float(rho))


@dataclass
class SampleSets:
    """Seeded chart rows strictly inside the frame half-ball, for the displacement checks."""

    interior_chart: np.ndarray


def _cap_rows(rng: np.random.Generator, dim: int, rho: float, count: int) -> np.ndarray:
    """``count`` seeded rows on the cap of the radius-rho half-ball, from one Gaussian block.

    numpy fills a block in the order of its rows, so these are the rows
    that one draw per row gives. A row of norm below 1e-12 is skipped,
    and only then is a further block drawn.
    """
    rows = np.empty((0, dim))
    while len(rows) < count:
        g = rng.standard_normal((count - len(rows), dim))
        g[:, -1] = np.abs(g[:, -1])
        norm = np.sqrt(_row_dots(g))
        keep = norm >= 1e-12
        rows = np.vstack([rows, (rho / norm[keep])[:, None] * g[keep]])
    return rows


def _base_rows(rng: np.random.Generator, dim: int, rho: float, count: int) -> np.ndarray:
    """``count`` seeded rows on the base disk of the radius-rho half-ball, last entry 0.

    Each row draws dim - 1 normals g, skipped if |g| < 1e-12, and then one
    uniform u, for the radius rho u^(1/(dim - 1)); the power is libm's, on
    a Python float, as numpy's vector power can differ from it by an ulp.
    The norms and the scaling are then taken for the whole block.
    """
    normals = np.empty((count, dim - 1))
    radii = np.empty(count)
    made = 0
    while made < count:
        g = rng.standard_normal(dim - 1)
        # |g| >= |g_0| in floating point too, so only a draw with |g_0| < 1e-12 can be short
        if abs(g[0]) < 1e-12 and math.sqrt(g @ g) < 1e-12:
            continue
        normals[made] = g
        radii[made] = rho * rng.random() ** (1.0 / (dim - 1))
        made += 1
    rows = np.zeros((count, dim))
    rows[:, :-1] = (radii / np.sqrt(_row_dots(normals)))[:, None] * normals
    return rows


def _interior_rows(rng: np.random.Generator, dim: int, rho: float, count: int) -> np.ndarray:
    rows = np.empty((count, dim))
    made = 0
    while made < count:
        g = rng.standard_normal(dim)
        g[-1] = abs(g[-1])
        norm = math.sqrt(g @ g)
        if norm < 1e-12 or g[-1] < 1e-6 * norm:
            continue
        radius = rho * (1.0 - 1e-6) * rng.uniform() ** (1.0 / dim)
        if radius <= 0:
            continue
        rows[made] = (radius / norm) * g
        made += 1
    return rows


def _boundary_corner_rows(dim: int, rho: float) -> np.ndarray:
    """Deterministic boundary probes: cap top, base center, base edge points."""
    rows = [np.zeros(dim)]
    top = np.zeros(dim)
    top[-1] = rho
    rows.append(top)
    for k in range(dim - 1):
        for sign in (1.0, -1.0):
            edge = np.zeros(dim)
            edge[k] = sign * rho
            rows.append(edge)
    return np.array(rows)


def _boundary_rows(rng: np.random.Generator, dim: int, rho: float, count: int) -> np.ndarray:
    """``count`` boundary rows, and never fewer than the 2 * dim corner probes.

    The corner probes come first; the rest is filled by ceil(fill/2) cap
    rows and then floor(fill/2) base rows, drawn in that order.
    """
    fill = max(count - 2 * dim, 0)
    return np.vstack([
        _boundary_corner_rows(dim, rho),
        _cap_rows(rng, dim, rho, (fill + 1) // 2),
        _base_rows(rng, dim, rho, fill // 2),
    ])


def sample_sets(frame: LinkingFrame, interior_count: int = 12, seed: int = 0) -> SampleSets:
    """``interior_count`` rows strictly inside the frame half-ball, from one seeded stream."""
    rng = np.random.default_rng(seed)
    return SampleSets(_interior_rows(rng, frame.chart_dim, frame.rho, interior_count))


def _require_finite(label: str, value: float) -> None:
    if not np.isfinite(value):
        raise GeometryCertificationError(f"{label} is not finite: {value}")


def _power_coefficient(nl: NonlinearitySpec) -> float:
    """The a >= 0 with F = G = a |t|^p: the couplings whose geometry bounds are proved.

    The power preset has a = scale / p and the zero preset a = 0; both
    pass one function object as F and G. F is compared with a |t|^p at
    six probe points, to rounding. Any other coupling raises
    :class:`GeometryCertificationError` naming it.
    """
    probe = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        a = float(nl.F(np.ones(1))[0])
        homogeneous = (nl.G is nl.F and a >= 0.0 and np.isfinite(a)
                       and np.allclose(nl.F(probe), a * np.abs(probe) ** nl.p,
                                       rtol=1e-12, atol=0.0))
    if not homogeneous:
        raise GeometryCertificationError(
            f"coupling '{nl.name}' is not F = G = a|t|^p: the sphere floor and the "
            "boundary ceiling are proved for the power and zero presets only")
    return a


def _green_diagonal(problem: Problem) -> np.ndarray:
    """diag K^-1 in node order, in closed form: no solve and no inverse.

    1D: K = T / h with T = tridiag(-1, 2, -1) of size n, whose inverse
    has the entries i (n + 1 - j) / (n + 1) for i <= j, so the diagonal
    is h i (n + 1 - i) / (n + 1). 2D: K = (V_x (x) V_y) diag(Lambda)
    (V_x (x) V_y)^T with the orthonormal axis factors the stiffness
    solve caches, so entry (i, j) of diag K^-1 is
    sum_ab V_x[i, a]^2 V_y[j, b]^2 / Lambda_ab, the product
    (V_x o V_x) (1 / Lambda) (V_y o V_y)^T.
    """
    grid = problem.grid
    if grid.dimension == 1:
        n, h = grid.shape[0], grid.h[0]
        i = np.arange(1.0, n + 1.0)
        return h * (i * (n + 1.0 - i)) / (n + 1.0)
    hx, hy = grid.h
    (wx, vx), (wy, vy) = problem.op._eigen_factors
    return ((vx * vx) @ (1.0 / (hx * hy * (wx[:, None] + wy[None, :]))) @ (vy * vy).T).ravel()


def _floor_constants(problem: Problem) -> tuple[float, float, float]:
    """(k, c0, eps) of the sphere floor  J(w, w) >= s^2/2 - 2 k c0 s^p  at s = |w|_K.

    k = a of F = G = a |t|^p (``_power_coefficient``), eps = (lam1 - lam
    - delta) / 2, and c0 = G^((p - 2)/2) / lam1 with G = max diag K^-1
    (``_green_diagonal``) and lam1 the principal eigenvalue of
    K phi = lam vol phi.

    Proof that vol sum |w|^p <= c0 s^p: w_i = e_i^T w = <K^-1 e_i, w>_K,
    so by Cauchy-Schwarz w_i^2 <= (K^-1)_ii s^2 <= G s^2, and
    vol |w|^2 <= s^2 / lam1. Hence
    vol sum |w_i|^p <= max_i |w_i|^(p-2) vol |w|^2 <= G^((p-2)/2) s^(p-2) s^2 / lam1.
    On one node it is an equality. Proof of the floor, for
    0 <= lam + delta < lam1: J(w, w) = s^2 - (lam + delta)/2 vol |w|^2
    - 2 a vol sum |w|^p >= s^2 - s^2/2 - 2 a c0 s^p.

    Raises :class:`GeometryCertificationError` for any other coupling,
    a negative shift, shifts that reach lam1, or a c0 that is not finite.
    """
    a = _power_coefficient(problem.nl)
    if problem.lam < 0 or problem.delta < 0:
        raise GeometryCertificationError("the geometry bounds assume nonnegative linear shifts")
    lam1 = problem.principal_eigenvalue()
    eps = 0.5 * lam1 - 0.5 * (problem.lam + problem.delta)
    if eps <= 0:
        raise GeometryCertificationError(
            f"linear shifts resonate with the principal eigenvalue {lam1:.6g}; "
            "no sphere floor exists"
        )
    with np.errstate(over="ignore"):
        c0 = float(np.max(_green_diagonal(problem)) ** ((problem.nl.p - 2.0) / 2.0) / lam1)
    _require_finite("embedding constant c0", c0)
    return a, c0, eps


def _cap_ceiling(problem: Problem, a: float, diagonal: np.ndarray) -> Callable[[float], float]:
    """rho -> an upper bound on J over the cap of Q, the half-ball of radius rho along ``diagonal``.

    Let e be ``diagonal`` scaled so that the pair (e, e) has energy norm
    1, q = vol |e|^2, and Q = {t (e, e) + (-w, w) : t >= 0,
    t^2 + 2 |w|_K^2 <= rho^2} over every field w, not only the chart modes.
    At u = t e - w, v = t e + w the cross term is t^2/2 - |w|_K^2, the
    shifts give -(lam + delta)/2 (t^2 q + vol |w|^2) + (lam - delta) t
    vol e.w, and F(t e - w) + F(t e + w) >= 2 F(t e) at every node, as F
    = G is convex (Jensen). With y = sqrt(vol) |w| and Cauchy-Schwarz,

        J <= J(t (e, e)) - |w|_K^2 - (lam + delta)/2 y^2 + |lam - delta| t sqrt(q) y,

    and completing the square bounds the last two terms by kappa t^2,
    kappa = (lam - delta)^2 q / (2 (lam + delta)), and 0 if lam = delta.
    On the base t = 0 this gives J <= 0 = J(0), so the base ceiling is 0.
    On the cap 2 |w|_K^2 = rho^2 - t^2, so J <= A t^2 - B t^p - rho^2/2
    with A = 1 - (lam + delta) q / 2 + kappa and B = 2 a vol sum |e|^p,
    and A > 0 as q <= 1 / (2 lam1). A t^2 - B t^p rises up to its crest
    t* = (2 A / (p B))^(1/(p - 2)) and falls after it. With
    R = (rho / t*)^(p - 2), taken by its logarithm so that neither t* nor
    R overflows, its sup over t in [0, rho] is A rho^2 (1 - 2R/p) at rho
    when R <= 1, and A t*^2 (1 - 2/p) = A rho^2 R^(-2/(p - 2)) (1 - 2/p)
    otherwise. B = 0 puts the crest at infinity.

    The shifts must be nonnegative, as ``_floor_constants`` checks.
    """
    lam, delta, p, vol = problem.lam, problem.delta, problem.nl.p, problem.grid.cell_volume
    e = diagonal / math.sqrt(2.0 * problem.op.product(diagonal, diagonal))
    q = vol * float(e @ e)
    kappa = 0.0 if lam == delta else (lam - delta) ** 2 * q / (2.0 * (lam + delta))
    big_a = 1.0 - 0.5 * (lam + delta) * q + kappa
    with np.errstate(over="ignore"):
        big_b = 2.0 * a * vol * float(np.sum(np.abs(e) ** p))
    _require_finite("ray potential coefficient", big_b)
    # log(p B / (2 A)), so that log R = log_b + (p - 2) log(rho)
    log_b = math.log(p / (2.0 * big_a)) + math.log(big_b) if big_b > 0.0 else -math.inf

    def ceiling(rho: float) -> float:
        log_r = log_b + (p - 2.0) * math.log(rho)
        if log_r <= 0.0:
            peak = big_a * rho * rho * (1.0 - (2.0 / p) * math.exp(log_r))
        else:
            peak = big_a * rho * rho * math.exp(-2.0 * log_r / (p - 2.0)) * (1.0 - 2.0 / p)
        return peak - 0.5 * rho * rho

    return ceiling


@dataclass
class GeometryReport:
    """The linking separation, proved: a floor of J on N above a ceiling of J on the boundary of Q.

    ``sphere_floor`` <= inf J over the sphere N (``_floor_constants``),
    and ``sphere_min`` is J at the anchor r e, the other side of a
    bracket on that infimum. Q is the half-ball of radius rho in
    R+ e + E-, with E- the whole antidiagonal subspace; ``base_max`` = 0
    and ``cap_max`` bound J from above on its base and cap
    (``_cap_ceiling``), and ``boundary_max`` is the larger. ``margin`` is
    ``sphere_floor - boundary_max``, and ``certified`` reads margin > 0.
    """

    sphere_floor: float
    sphere_min: float
    boundary_max: float
    margin: float
    certified: bool
    base_max: float
    cap_max: float
    r: float
    rho: float


def estimate_geometry(frame: LinkingFrame, *, seed: int = 0) -> GeometryReport:
    """The proved linking separation of the frame's sphere and half-ball; draws nothing.

    The bounds hold for F = G = a |t|^p with nonnegative shifts below
    resonance, and are taken in closed form: two stiffness products, for
    J at the anchor. J is even, so it is the same at -r e. ``seed`` feeds
    nothing, as nothing is drawn; it stays only because ``perfbench``'s
    ``WitnessSquare32`` workload passes it. Raises
    :class:`GeometryCertificationError` where the proofs do not apply
    (``_floor_constants``).
    """
    problem = frame.problem
    k, c0, _ = _floor_constants(problem)
    s = np.float64(frame.r) / np.sqrt(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        floor = float(0.5 * s * s - 2.0 * k * c0 * s**problem.nl.p)
    cap_max = _cap_ceiling(problem, k, frame.anchor.u)(frame.rho)
    boundary_max = max(0.0, cap_max)
    margin = floor - boundary_max
    return GeometryReport(
        sphere_floor=floor,
        sphere_min=evaluate_J(problem, frame.anchor).total,
        boundary_max=boundary_max,
        margin=margin,
        certified=bool(margin > 0),
        base_max=0.0,
        cap_max=cap_max,
        r=frame.r,
        rho=frame.rho,
    )


@dataclass
class RadiiChoice:
    """Radii from the proved sphere floor and cap ceiling (``choose_radii``).

    ``floor_value`` is the floor at r, ``embedding_constant`` its c0,
    ``small_constant`` its k and ``eps`` the spectral margin of the shifts.
    """

    r: float
    rho: float
    doublings: int
    floor_value: float
    embedding_constant: float
    small_constant: float
    eps: float
    note: str = ""


# choose_radii: the most doublings of r it tries for rho
RADII_MAX_DOUBLINGS = 40


def choose_radii(problem: Problem, *, seed: int = 0) -> RadiiChoice:
    """Pick (r, rho) from the sphere floor and the cap ceiling along the principal mode.

    The floor s^2/2 - 2 k c0 s^p (``_floor_constants``) is taken in the
    diagonal factor norm s; r = sqrt(2) s at half the floor's maximizer,
    for safety. rho = r 2^k for the least k whose cap ceiling
    (``_cap_ceiling``) is at most 0, so the boundary ceiling of a frame
    on these radii, anchored along the principal mode, is 0. The bounds
    cover the whole antidiagonal subspace, so they hold at every d_y, and
    draw nothing: ``seed`` feeds nothing, and stays only because
    ``perfbench``'s ``WitnessSquare32`` workload passes it.

    The zero preset gets r = 1 and rho = 2 with a note, as no radii
    certify it. Raises :class:`GeometryCertificationError` where the
    proofs do not apply, and when c0, the floor or r is not finite, as a
    large p or a wide domain makes them.
    """
    if _power_coefficient(problem.nl) == 0.0:
        return RadiiChoice(
            r=1.0, rho=2.0, doublings=1, floor_value=0.25,
            embedding_constant=0.0, small_constant=0.0,
            eps=problem.principal_eigenvalue() / 2.0,
            note="no coupling: no radius certifies, as J is r^2/2 on the sphere and "
                 "rho^2/2 > r^2/2 at the cap top; defaults returned",
        )
    k, c0, eps = _floor_constants(problem)
    amp = 2.0 * k * c0
    p = problem.nl.p

    grid_s = np.geomspace(1e-4, 1e4, 400)
    # s^p overflows at a large p, and s_best^2 at a tiny amp (p near 2); the
    # floor there is -inf, or nan, which _require_finite reports
    with np.errstate(over="ignore", invalid="ignore"):
        s_best = (1.0 / (p * np.float64(amp))) ** (1.0 / (p - 2.0)) if amp > 1e-300 else 1.0
        floors = 0.5 * grid_s**2 - amp * grid_s**p
        # a closed-form floor that is not finite loses to the grid's best
        if not 0.5 * s_best**2 - amp * s_best**p >= floors.max():
            s_best = grid_s[np.argmax(floors)]
        s_chosen = 0.5 * s_best
        floor_value = float(0.5 * s_chosen**2 - amp * s_chosen**p)
    _require_finite("sphere floor", floor_value)
    if floor_value <= 0:
        raise GeometryCertificationError(
            f"sphere floor is nonpositive (best {floor_value:.6g})"
        )
    r = float(np.sqrt(2.0) * s_chosen)
    _require_finite("radius r", r)

    ceiling = _cap_ceiling(problem, k, problem.eigenpairs(1)[1][0])
    for doublings in range(1, RADII_MAX_DOUBLINGS + 1):
        rho = r * 2.0**doublings
        if ceiling(rho) <= 0:
            return RadiiChoice(
                r=r, rho=rho, doublings=doublings, floor_value=floor_value,
                embedding_constant=c0, small_constant=k, eps=eps,
            )
    raise GeometryCertificationError(
        f"no doubling of r={r:.6g} gave a nonpositive cap ceiling within {RADII_MAX_DOUBLINGS} tries"
    )


@dataclass(frozen=True)
class DeformationGamma:
    """A deformation of the frame, identity on its boundary: the chart map xi -> eta.

    gamma(xi) is the state eta . B of the chart rows B of ``frame``, and
    every certificate reads the frame from here. ``chart`` takes an
    (m, d_y + 1) block of chart rows and returns the block of their
    images, row by row, and a single row maps to a single row.
    ``displacement_modes`` lists the chart modes eta - xi may move.
    """

    name: str
    frame: LinkingFrame
    chart: Callable[[np.ndarray], np.ndarray]
    displacement_modes: Sequence[int]

    def __post_init__(self) -> None:
        modes, d_y = self.displacement_modes, self.frame.d_y
        if not (isinstance(modes, Sequence) and all(
                isinstance(k, (int, np.integer)) and 0 <= k < d_y for k in modes)):
            raise InvalidSpecError(f"chart map '{self.name}' needs mode indices in "
                                   f"[0, {d_y}), got {modes!r}")

    def __call__(self, xi: np.ndarray) -> StatePair:
        return self.frame.state_from_chart(self.chart(xi))


def _require_chart_map(gamma: object) -> DeformationGamma:
    """``gamma`` itself, once it is a chart map; any other map (a flow) leaves the chart."""
    if not isinstance(gamma, DeformationGamma):
        raise DomainMembershipError(f"deformation {gamma!r} is not chart compatible")
    return gamma


def _boundary_clearance(frame: LinkingFrame, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clearance of each chart row xi from the base and from the cap of the frame, clamped at 0.

    The 1e-6 margin clamps boundary-sample float noise to an exact 0.0, so
    deformations built on it fix the boundary bitwise, not just to rounding.
    """
    lam_rel = xi[..., -1] / frame.rho
    slack = 1.0 - _row_dots(xi) / frame.rho**2
    return np.maximum(0.0, lam_rel - 1e-6), np.maximum(0.0, slack - 1e-6)


def identity_deformation(frame: LinkingFrame) -> DeformationGamma:
    return DeformationGamma("identity", frame, lambda xi: xi, ())


def _modal_push(frame: LinkingFrame, name: str, mode: int, sheared: bool) -> DeformationGamma:
    """Push xi along chart mode ``mode`` by r/4 times a taper that vanishes on the boundary."""
    if not 0 <= mode < frame.d_y:
        raise InvalidSpecError(f"mode must lie in [0, {frame.d_y}), got {mode}")
    amplitude = 0.25 * frame.r

    def chart(xi: np.ndarray) -> np.ndarray:
        # the taper q1 q2 is continuous, in [0, 1/4] and exactly 0 on the frame boundary
        q1, q2 = _boundary_clearance(frame, xi)
        w = q1 * q2 * (xi[..., -1] / frame.rho if sheared else 1.0)
        eta = np.array(xi, dtype=float)
        # a row of weight 0 keeps its coordinate bitwise, a -0.0 included
        eta[..., mode] = np.where(w == 0.0, eta[..., mode], eta[..., mode] + amplitude * w)
        return eta

    return DeformationGamma(f"{name}(mode={mode})", frame, chart, (mode,))


def modal_shift_deformation(frame: LinkingFrame, mode: int = 0) -> DeformationGamma:
    """Push interior points along one antidiagonal mode, tapered to zero at the boundary."""
    return _modal_push(frame, "shift", mode, sheared=False)


def anchor_shear_deformation(frame: LinkingFrame, mode: int = 0) -> DeformationGamma:
    """Shear: the modal push grows with the anchor coordinate."""
    return _modal_push(frame, "shear", mode, sheared=True)


def shipped_deformations(frame: LinkingFrame) -> List[DeformationGamma]:
    """Identity, modal shift, and anchor shear, all chart compatible."""
    return [
        identity_deformation(frame),
        modal_shift_deformation(frame, mode=0),
        anchor_shear_deformation(frame, mode=0),
    ]


def displacement_residual(gamma: DeformationGamma, rows: np.ndarray) -> float:
    """Worst energy norm of gamma(xi) - xi . B off its declared modes, over the chart rows.

    That is z . B with z = eta - xi and its declared mode columns zeroed,
    of energy norm sqrt(z^T G z), from one chart map call on the block.
    """
    _require_chart_map(gamma)
    rows = np.asarray(rows, dtype=float)
    z = gamma.chart(rows) - rows
    z[:, list(gamma.displacement_modes)] = 0.0
    return math.sqrt(np.max(np.einsum("ij,jk,ik->i", z, gamma.frame._chart_gram, z),
                            initial=0.0))


def homotopy_chart_map(gamma: DeformationGamma, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """The homotopy H_t of the module docstring on gamma's frame, valued in R^(d_y + 1).

    Its Euclidean norm equals the energy norm of the homotopy value. A
    zero is an intersection witness at t = 1 and the affine root at
    t = 0. The returned map takes an (m, d_y + 1) block of chart rows,
    each of which must lie in the half-ball
    (:meth:`LinkingFrame.require_member`), and returns the (m, d_y + 1)
    block of their values; each row is bitwise the value of that row
    alone, and a single row of shape (d_y + 1,) maps to one row.
    """
    if not (0.0 <= t <= 1.0):
        raise InvalidSpecError(f"homotopy time must lie in [0, 1], got {t}")
    frame = _require_chart_map(gamma).frame
    gram, d_y, r = frame._chart_gram, frame.d_y, frame.r
    head, anchor_norm, s = gram[:d_y], math.sqrt(gram[-1, -1]), 1.0 - t

    def chart_map(xi: np.ndarray) -> np.ndarray:
        xi = frame.require_member(xi)
        eta = gamma.chart(xi)
        out = np.empty(xi.shape)
        # a stacked matmul runs the BLAS matrix-vector product of one row per row
        out[..., :d_y] = (head @ eta[..., None])[..., 0]
        out[..., d_y] = np.abs(eta[..., -1]) * anchor_norm
        out *= t
        out += s * xi
        out[..., -1] -= r
        return out

    return chart_map


def _start_lattice(frame: LinkingFrame, per_axis: int) -> np.ndarray:
    """Deterministic multistart grid over the open half-ball."""
    d = frame.chart_dim
    side = np.linspace(-0.6 * frame.rho, 0.6 * frame.rho, per_axis)
    last = np.unique(np.concatenate([
        np.geomspace(0.25 * frame.r, 0.9 * frame.rho, per_axis),
        [0.5 * frame.r, frame.r, 2.0 * frame.r],
    ]))
    grids = np.meshgrid(*([side] * (d - 1) + [last]), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    keep = np.linalg.norm(pts, axis=1) <= 0.95 * frame.rho
    return pts[keep]


def _stencil(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference points of each chart row, (m, 2d, d), and the steps h, (m, d).

    Point j of a row is xi + h_j e_j and point d + j is xi - h_j e_j, with
    h_j = 1e-6 max(1, |xi_j|).
    """
    h = 1e-6 * np.maximum(1.0, np.abs(xi))
    shift = h[:, :, None] * np.eye(xi.shape[1])
    return np.concatenate([xi[:, None, :] + shift, xi[:, None, :] - shift], axis=1), h


def _stencil_jacobians(map_fn: Callable[[np.ndarray], np.ndarray], points: np.ndarray,
                       h: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians, (m, d, d), from the ``_stencil`` points and steps of m rows.

    The whole stencil of every row is mapped in one call.
    """
    m, d = h.shape
    values = map_fn(points.reshape(-1, d)).reshape(m, 2, d, d)
    # values[i, 0, j] - values[i, 1, j] is column j of row i's Jacobian
    return np.swapaxes((values[:, 0] - values[:, 1]) / (2.0 * h[:, :, None]), 1, 2)


def _central_jacobians(map_fn: Callable[[np.ndarray], np.ndarray],
                       xi: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians of ``map_fn`` at the chart rows xi, (m, d, d)."""
    return _stencil_jacobians(map_fn, *_stencil(xi))


def _newton_sweep(map_fn: Callable[[np.ndarray], np.ndarray], frame: LinkingFrame,
                  starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on every start row at once; the last iterates and their map values.

    Each step solves J d = -H at every running row, with J by central
    differences, and takes the first of xi + d, xi + d/2, ... whose
    |H|^2 is lower, down to ``SWEEP_MIN_DAMPING``. A trial point outside
    the half-ball is not evaluated and counts as no better. A row stops
    when its step is at most ``SWEEP_STEP_TOL`` max(1, |xi|) (that step
    is still taken if |H|^2 does not rise), when no trial improves, when
    its Jacobian is singular or its stencil leaves the half-ball, or
    after ``SWEEP_MAX_STEPS`` steps.
    """
    x = np.array(starts, dtype=float)
    values = map_fn(x)
    sq = _row_dots(values)
    running = np.flatnonzero(np.isfinite(sq))
    for _ in range(SWEEP_MAX_STEPS):
        points, h = _stencil(x[running])
        inside = frame._inside(points).all(axis=1)
        running = running[inside]
        if running.size == 0:
            break
        jac = _stencil_jacobians(map_fn, points[inside], h[inside])
        det = np.linalg.det(jac)
        solvable = np.isfinite(det) & (det != 0.0)
        running, jac = running[solvable], jac[solvable]
        if running.size == 0:
            break
        step = np.linalg.solve(jac, -values[running][:, :, None])[:, :, 0]
        reach = np.maximum(1.0, np.sqrt(_row_dots(x[running])))
        done = np.sqrt(_row_dots(step)) <= SWEEP_STEP_TOL * reach
        damping = 1.0
        pending = np.ones(running.size, dtype=bool)
        while damping >= SWEEP_MIN_DAMPING and pending.any():
            trial = x[running] + damping * step
            # _inside is False on a row that is not finite
            idx = np.flatnonzero(pending & frame._inside(trial))
            if idx.size:
                trial_values = map_fn(trial[idx])
                sq_trial = _row_dots(trial_values)
                rows = running[idx]
                better = np.where(done[idx], sq_trial <= sq[rows], sq_trial < sq[rows])
                rows, idx = rows[better], idx[better]
                x[rows], values[rows] = trial[idx], trial_values[better]
                sq[rows] = sq_trial[better]
                pending[idx] = False
            # a converged row tries only the full step
            pending &= ~done
            damping *= 0.5
        running = running[~pending & ~done]
        if running.size == 0:
            break
    return x, values


def _first_come_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """The rows farther than ``tol`` from every row kept before them, in order, (k, d).

    Greedy: keep the first row left, drop every row within ``tol`` of it,
    repeat. A row is kept exactly when a first-come pass over the rows
    would keep it.
    """
    kept = []
    while len(rows):
        kept.append(rows[0])
        rows = rows[np.sqrt(_row_dots(rows - rows[0])) > tol]
    return np.array(kept, dtype=float).reshape(-1, rows.shape[1])


def _root_sweep(map_fn: Callable[[np.ndarray], np.ndarray],
                frame: LinkingFrame) -> np.ndarray:
    """Distinct interior roots of map_fn found from the start lattice, in sorted order, (k, d)."""
    scale = max(1.0, frame.r)
    tol = max(1e-6, 1e-5 * frame.rho)
    ends, values = _newton_sweep(map_fn, frame, frame._sweep_starts)
    # a start whose value is not finite never moves, and is no root
    keep = (np.isfinite(ends).all(axis=1)
            & (np.abs(values).max(axis=1) <= SWEEP_RESIDUAL_TOL * scale)
            & (ends[:, -1] >= 1e-9 * frame.r)
            & (np.sqrt(_row_dots(ends)) <= frame.rho * (1 - 1e-9)))
    roots = sorted(_first_come_rows(ends[keep], tol), key=lambda row: tuple(np.round(row, 9)))
    return np.array(roots, dtype=float).reshape(-1, frame.chart_dim)


@dataclass
class IntersectionCertificate:
    """A verified point of gamma(M) on the small sphere N."""

    chart: np.ndarray
    state: StatePair
    image: StatePair
    antidiagonal_residual: float
    radius_residual: float
    energy: float


def intersection_point(gamma: DeformationGamma,
                       roots: Optional[np.ndarray] = None) -> IntersectionCertificate:
    """Find and certify a chart point of gamma's frame whose image under gamma lies on N.

    The certificate is computed on the state itself, independently of
    the chart algebra used to locate the root: the antidiagonal part of
    the image must vanish and its norm must equal r, both to within 1e-8.

    ``roots`` are candidate roots of the t = 1 chart map, one per row:
    ``brouwer_degree_small`` on that map sweeps exactly these, so its
    ``DegreeReport.roots`` can be passed to skip a second sweep. With
    ``None`` the roots are swept here.
    """
    frame = _require_chart_map(gamma).frame
    if roots is None:
        roots = _root_sweep(homotopy_chart_map(gamma, 1.0), frame)
    else:
        roots = np.array(roots, dtype=float).reshape(-1, frame.chart_dim)

    split = frame.splitting
    for root in roots:
        image = gamma(root)
        anti = split.pair_norm(split.antidiagonal_part(image))
        rad = abs(split.pair_norm(image) - frame.r)
        if anti <= 1e-8 and rad <= 1e-8:
            return IntersectionCertificate(
                chart=root,
                state=frame.state_from_chart(root),
                image=image,
                antidiagonal_residual=anti,
                radius_residual=rad,
                energy=evaluate_J(frame.problem, image).total,
            )
    raise IntersectionNotFoundError(
        f"no certified intersection for deformation '{gamma.name}' "
        f"({len(roots)} candidate roots)"
    )


@dataclass
class DegreeReport:
    """Brouwer degree as a signed count of nondegenerate roots."""

    degree: int
    roots: np.ndarray
    determinants: np.ndarray
    boundary_min: float


def brouwer_degree_small(
    map_fn: Callable[[np.ndarray], np.ndarray], frame: LinkingFrame
) -> DegreeReport:
    """Degree of a chart map on the open half-ball, by root counting.

    ``map_fn`` takes an (m, d_y + 1) block of chart rows and returns the
    block of its values, row by row, as the maps of
    :func:`homotopy_chart_map` do. Requires chart dimension at most 4 so
    the multistart sweep can be dense enough to be treated as
    exhaustive. The map must stay at least 1e-6 away from zero on 300
    seeded boundary samples plus the corner probes, which it maps in one
    call; each root must have a central-difference Jacobian determinant
    of size at least 1e-8.
    """
    if frame.chart_dim > MAX_DEGREE_DIMENSION:
        raise InvalidSpecError(
            f"degree counting supports chart dimension <= {MAX_DEGREE_DIMENSION}, "
            f"got {frame.chart_dim}"
        )
    boundary_vals = np.sqrt(_row_dots(map_fn(frame._degree_rows)))
    boundary_min = float(np.min(boundary_vals))
    if boundary_min < 1e-6:
        raise BoundaryZeroError(
            f"map vanishes on the frame boundary (min {boundary_min:.3e} "
            f"at sample {int(np.argmin(boundary_vals))})"
        )

    roots = _root_sweep(map_fn, frame)
    dets = np.linalg.det(_central_jacobians(map_fn, roots)) if len(roots) else np.empty(0)
    for root, det in zip(roots, dets):
        if abs(det) < 1e-8:
            raise DegenerateRootError(
                f"root {np.round(root, 6)} has near-singular Jacobian (|det|={abs(det):.3e})"
            )
    return DegreeReport(int(np.sum(np.sign(dets))), roots, dets, boundary_min)
