"""Linking frames: the sets whose energies separate, and their certificates.

The linking construction takes a small sphere N inside the diagonal
subspace and a half-ball frame M spanned by finitely many antidiagonal
modes plus the anchor direction. Saddle geometry means the energy on N
stays strictly above its maximum on the frame boundary. The frame is
finite dimensional, so every claim here is checked in an explicit chart
whose Euclidean norm agrees with the energy norm.

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

H_0 weighs gamma by exactly zero, so for a finite gamma its values do
not depend on gamma: the start degree is that of the affine map, and
the CLI counts it once per frame. At t = 1 the end degree and the
intersection certificate need the same roots, so they share one sweep
(``intersection_point(gamma, roots=degree.roots)``). The displacement
(eta - xi) . B of gamma is measured with G. The certificate itself is
checked on the state gamma(xi), independently of G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, List, Optional, Sequence

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
from .functional import Problem, _energy_from_cross, evaluate_J, small_t_constants
from .splitting import DiagonalSplitting, ModalBasis, build_modal_basis
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
# The energies of chart rows and sphere fields are evaluated in blocks of
# at most this many nodal values, and at least one row: 64 rows of the 1D
# n = 255 line, one row of a 128 x 128 square. A block pays off where the
# per-row Python work outweighs the nodal work; a larger one would add
# memory, and rows a failing pilot sweep evaluates past its first positive one
ENERGY_BLOCK_VALUES = 2**14


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
    matrices of the chart and the boundary rows of the degree count are
    cached on first use.
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

    @cached_property
    def _chart_cross(self) -> np.ndarray:
        """C = (B_u K B_v^T + B_v K B_u^T) / 2, so that <u, v> of xi . B is xi^T C xi.

        B_u and B_v are the u and v components of the rows of B. K is
        symmetric, so the d_y + 1 products K B_v^T build it.
        """
        phi = self.basis.modes / np.sqrt(2.0)
        rows_u = np.vstack([-phi, self.anchor.u / self.r])
        k_rows_v = np.array([self.problem.op.apply(row)
                             for row in np.vstack([phi, self.anchor.v / self.r])])
        half = rows_u @ k_rows_v.T
        return 0.5 * (half + half.T)

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

    The default anchor points along the principal mode; an explicit
    direction is projected onto the diagonal subspace and normalized, so
    re-anchoring along a computed solution is a one-liner.
    """
    split = DiagonalSplitting(problem.grid, problem.op)
    basis = build_modal_basis(split, d_y)
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
    """Seeded sample families of the linking sets.

    Each row w of ``sphere_fields`` stands for the point (w, w) of the
    small diagonal sphere N; the anchor and its negative always lead.
    ``boundary_chart`` rows cover the frame boundary: base rows carry an
    exact 0.0 last coordinate, cap rows have Euclidean norm exactly scaled
    to rho. ``interior_chart`` rows are strictly inside the half-ball.
    A family that was not asked for is an empty (0, d_y + 1) block.
    """

    sphere_fields: np.ndarray
    boundary_chart: np.ndarray
    interior_chart: np.ndarray


def _cap_rows(rng: np.random.Generator, dim: int, rho: float, count: int) -> np.ndarray:
    rows = np.empty((count, dim))
    made = 0
    while made < count:
        g = rng.standard_normal(dim)
        g[-1] = abs(g[-1])
        norm = np.linalg.norm(g)
        if norm < 1e-12:
            continue
        rows[made] = (rho / norm) * g
        made += 1
    return rows


def _base_rows(rng: np.random.Generator, dim: int, rho: float, count: int) -> np.ndarray:
    rows = np.zeros((count, dim))
    made = 0
    while made < count:
        g = rng.standard_normal(dim - 1)
        norm = np.linalg.norm(g)
        if norm < 1e-12:
            continue
        radius = rho * rng.uniform() ** (1.0 / (dim - 1))
        rows[made, :-1] = (radius / norm) * g
        made += 1
    return rows


def _interior_rows(rng: np.random.Generator, dim: int, rho: float, count: int) -> np.ndarray:
    rows = np.empty((count, dim))
    made = 0
    while made < count:
        g = rng.standard_normal(dim)
        g[-1] = abs(g[-1])
        norm = np.linalg.norm(g)
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


def sample_sets(
    frame: LinkingFrame,
    sphere_count: int = 64,
    boundary_count: int = 128,
    interior_count: int = 0,
    seed: int = 0,
) -> SampleSets:
    """Sphere fields, then boundary rows, then interior rows, from one seeded stream.

    A family of count 0 draws nothing, so the rows drawn before it do not depend on it.
    """
    rng = np.random.default_rng(seed)
    n = frame.problem.n

    # n == 1: the diagonal sphere is exactly the two signed anchor points.
    sphere = np.empty((max(sphere_count, 2) if n > 1 else 2, n))
    sphere[0] = 0.5 * (frame.anchor.u + frame.anchor.v)
    sphere[1] = -sphere[0]
    for k in range(2, len(sphere), 2):
        w = rng.standard_normal(n)
        while (norm := frame.splitting.diagonal_norm(w)) < 1e-12:
            w = rng.standard_normal(n)
        sphere[k] = (frame.r / norm) * w
        sphere[k + 1:k + 2] = -sphere[k]  # an odd last row has no partner

    d = frame.chart_dim
    boundary = np.empty((0, d))
    if boundary_count > 0:
        boundary = _boundary_rows(rng, d, frame.rho, boundary_count)
    interior = _interior_rows(rng, d, frame.rho, interior_count)
    return SampleSets(sphere, boundary, interior)


def _blocks(problem: Problem, count: int) -> Iterator[slice]:
    """Consecutive blocks of ``count`` rows of nodal fields on the problem's grid."""
    step = max(1, ENERGY_BLOCK_VALUES // problem.n)
    return (slice(start, start + step) for start in range(0, count, step))


def _block_energies(problem: Problem, u: np.ndarray, v: np.ndarray,
                    cross: np.ndarray) -> Iterator[float]:
    """The energy of each row pair (u[k], v[k]) whose cross term is cross[k], in row order.

    Each value is bitwise ``_energy_from_cross`` of the row alone: the
    dots are ``_row_dots``, and a potential sums its row as ``np.sum``
    sums a single field. A row whose energy is not finite is evaluated
    alone, so a term that is not finite raises there as it does for the
    row alone, and no sooner.
    """
    vol = problem.grid.cell_volume
    with np.errstate(over="ignore", invalid="ignore"):
        uu = _row_dots(u)
        vv = uu if v is u else _row_dots(v)
        total = cross - ((0.5 * problem.lam * vol * uu + 0.5 * problem.delta * vol * vv)
                         + (vol * np.sum(problem.nl.F(u), axis=1)
                            + vol * np.sum(problem.nl.G(v), axis=1)))
    finite = np.isfinite(total)
    for k, value in enumerate(total.tolist()):
        if not finite[k]:
            value = _energy_from_cross(problem, u[k], v[k], float(cross[k])).total
        yield value


def _sphere_minimum(problem: Problem, fields: np.ndarray) -> float:
    """The least ``evaluate_J`` at (w, w) over the rows w of ``fields``, bitwise.

    At u = v its two cross products are one, so a row takes one stiffness
    product, doubled and halved as their sum is, overflow included. Rows
    are evaluated a block at a time (``_block_energies``), each value
    bitwise the row's own; the first row with a term that is not finite
    raises :class:`EnergyOverflowError` naming the term.
    """
    def energies() -> Iterator[float]:
        for block in _blocks(problem, len(fields)):
            w = fields[block]
            kw = np.array([problem.op.apply(row) for row in w])
            with np.errstate(over="ignore", invalid="ignore"):
                cross = 0.5 * (2.0 * _row_dots(w, kw))
            yield from _block_energies(problem, w, w, cross)

    return min(energies())


def _chart_energies(frame: LinkingFrame, rows: np.ndarray) -> Iterator[float]:
    """J(xi . B) for each chart row xi, yielded row by row.

    Rows are evaluated a block at a time, each value bitwise the row's
    own. The nodal fields are those of ``state_from_chart``, built by one
    stacked product per block, and all terms but the cross term are
    those of ``evaluate_J``. The cross term is xi^T C xi with the frame's
    cached cross Gram C, so a row takes no stiffness product. A term that
    is not finite raises :class:`EnergyOverflowError` naming the term and
    the row, once the consumer reaches that row; a consumer that stops
    earlier sees no error.
    """
    problem, cross, anchor = frame.problem, frame._chart_cross, frame.anchor
    i = 0
    try:
        for block in _blocks(problem, len(rows)):
            xi = rows[block]
            with np.errstate(over="ignore", invalid="ignore"):
                w = ((xi[:, None, :-1] / np.sqrt(2.0)) @ frame.basis.modes)[:, 0]
                a = xi[:, -1:] / frame.r
                values = ((xi[:, None, :] @ cross) @ xi[:, :, None])[:, 0, 0]
            for value in _block_energies(problem, a * anchor.u - w, a * anchor.v + w, values):
                yield value
                i += 1
    except EnergyOverflowError as exc:
        raise EnergyOverflowError(f"{exc} (chart row {i})") from None


@dataclass
class GeometryReport:
    """Sampled saddle-geometry certificate: min over N vs max over the frame boundary."""

    sphere_min: float
    boundary_max: float
    margin: float
    certified: bool
    base_max: float
    cap_max: float
    sphere_count: int
    boundary_count: int
    r: float
    rho: float


def estimate_geometry(
    frame: LinkingFrame, samples: Optional[SampleSets] = None, seed: int = 0
) -> GeometryReport:
    """Estimate the linking separation from seeded samples.

    Sphere fields are evaluated by ``_sphere_minimum``. Boundary rows are
    chart points, evaluated by ``_chart_energies`` with no stiffness
    product per row, so the cost of a larger ``boundary_count`` is the
    nodal work alone. Both evaluate their rows a block at a time, each
    value bitwise the row's own. On a one-node grid the diagonal sphere
    is just the signed anchor pair, so the sphere minimum is exact rather
    than sampled.
    """
    if samples is None:
        samples = sample_sets(frame, seed=seed)
    problem = frame.problem
    sphere_min = _sphere_minimum(problem, samples.sphere_fields)
    boundary_vals = np.array(list(_chart_energies(frame, samples.boundary_chart)))
    base_mask = samples.boundary_chart[:, -1] == 0.0
    boundary_max = float(np.max(boundary_vals))
    base_max = float(np.max(boundary_vals[base_mask])) if np.any(base_mask) else -np.inf
    cap_max = float(np.max(boundary_vals[~base_mask])) if np.any(~base_mask) else -np.inf
    margin = sphere_min - boundary_max
    return GeometryReport(
        sphere_min=sphere_min,
        boundary_max=boundary_max,
        margin=margin,
        certified=bool(margin > 0),
        base_max=base_max,
        cap_max=cap_max,
        sphere_count=len(samples.sphere_fields),
        boundary_count=int(samples.boundary_chart.shape[0]),
        r=frame.r,
        rho=frame.rho,
    )


@dataclass
class RadiiChoice:
    """Radii chosen from the small-sphere floor with the iterated embedding constant."""

    r: float
    rho: float
    doublings: int
    floor_value: float
    embedding_constant: float
    small_constant: float
    eps: float
    boundary_pilot_max: float
    note: str = ""


def _looks_identically_zero(problem: Problem) -> bool:
    probe = np.array([-10.0, -1.0, -1e-3, 1e-3, 1.0, 10.0])
    nl = problem.nl
    with np.errstate(over="ignore"):  # inf at a large p, which is not zero either
        vals = [term(probe) for term in (nl.f, nl.F, nl.g, nl.G)]
    return all(float(np.max(np.abs(v))) == 0.0 for v in vals)


# choose_radii: the most power steps from each start of the embedding
# constant, the most doublings of r it tries for rho, and boundary rows per
# pilot sweep
RADII_POWER_STEPS = 64
RADII_MAX_DOUBLINGS = 40
RADII_PILOT_BOUNDARY = 96


def _power_ratio(problem: Problem, w: np.ndarray) -> float:
    """vol*sum|w|^p at |w|_K = 1 where the power iteration from w stops rising; inf on overflow.

    A step w <- K^-1(|w|^(p-2) w), normalized in the energy norm, never
    lowers the ratio (Hein and Buehler, NIPS 2010). The iteration stops at
    the first step that does not raise it or whose right-hand side
    underflows to zero, and after ``RADII_POWER_STEPS`` solves.
    """
    op, vol, p = problem.op, problem.grid.cell_volume, problem.nl.p
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(RADII_POWER_STEPS + 1):
            if step:
                rhs = np.abs(w) ** (p - 2.0) * w
                if not np.all(np.isfinite(rhs)):
                    return math.inf
                w = op.solve(rhs)
            energy = op.product(w, w)
            if not np.isfinite(energy):
                return math.inf
            if energy <= 0.0:  # the right-hand side underflowed
                break
            w = w / math.sqrt(energy)
            ratio = vol * float(np.sum(np.abs(w) ** p))
            if not ratio > best:
                break
            best = ratio
    return best


def _embedding_constant(problem: Problem) -> float:
    """Iterated sup of vol*sum|w|^p over |w|_K^p: the larger ``_power_ratio`` of two starts.

    From the principal mode the iteration keeps the grid's reflection
    symmetries, and can stop at a symmetric field that a concentrated one
    beats (two nodes, even grids at a large p, 2D grids from p ~ 8). The
    Green's function K^-1 e_m of the middle node m breaks them.
    """
    shape = problem.grid.shape
    middle = np.zeros(problem.n)
    middle[np.ravel_multi_index(tuple((m - 1) // 2 for m in shape), shape)] = 1.0
    return max(_power_ratio(problem, problem.eigenpairs(1)[1][0]),
               _power_ratio(problem, problem.op.solve(middle)))


def _require_finite(label: str, value: float) -> None:
    if not np.isfinite(value):
        raise GeometryCertificationError(f"{label} is not finite: {value}")


def choose_radii(problem: Problem, d_y: int = 1, seed: int = 0) -> RadiiChoice:
    """Pick (r, rho) from the small-sphere floor with the iterated c0.

    The small-sphere floor is  s^2/2 - 2 k c0 s^p  in the diagonal
    factor norm s, where c0 is the iterated embedding constant
    (``_embedding_constant``, which draws nothing at random) and k the
    small-amplitude constant at eps equal to half the spectral gap. The
    returned r halves the maximizing s for safety; rho doubles r until a
    pilot boundary sweep is nonpositive. One pilot frame and one draw of
    rows at rho = 2r serve every doubling, exactly scaled. A sweep evaluates its chart
    rows with ``_chart_energies``, a block at a time and each value bitwise
    the row's own, and stops at its first positive energy, as only
    ``max <= 0`` is decided: a failing sweep evaluates no block past that
    row's, and a passing sweep evaluates every row.
    ``seed`` feeds only the pilot rows.

    Raises :class:`GeometryCertificationError` when c0, k, the floor or
    r is not finite, as a large p makes them.
    """
    if _looks_identically_zero(problem):
        return RadiiChoice(
            r=1.0, rho=2.0, doublings=1, floor_value=0.5,
            embedding_constant=0.0, small_constant=0.0,
            eps=problem.principal_eigenvalue() / 2.0,
            boundary_pilot_max=0.0,
            note="no coupling: no radius certifies, as J is r^2/2 on the sphere and "
                 "rho^2/2 > r^2/2 at the cap top; defaults returned",
        )
    if problem.lam < 0 or problem.delta < 0:
        raise GeometryCertificationError(
            "sampled certification assumes nonnegative linear shifts"
        )
    lam1 = problem.principal_eigenvalue()
    eps = 0.5 * lam1 - 0.5 * (problem.lam + problem.delta)
    if eps <= 0:
        raise GeometryCertificationError(
            f"linear shifts resonate with the principal eigenvalue {lam1:.6g}; "
            "no small-sphere floor exists"
        )
    c0 = _embedding_constant(problem)
    _require_finite("iterated embedding constant c0", c0)
    k_small = small_t_constants(problem.nl, eps)
    _require_finite("small-amplitude constant k", k_small)
    amp = 2.0 * k_small * c0
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
    _require_finite("small-sphere floor", floor_value)
    if floor_value <= 0:
        raise GeometryCertificationError(
            f"sampled small-sphere floor is nonpositive (best {floor_value:.6g})"
        )
    r = float(np.sqrt(2.0) * s_chosen)
    _require_finite("radius r", r)

    pilot = build_frame(problem, r, 2.0 * r, d_y=d_y)
    # the rows sample_sets(boundary_count=RADII_PILOT_BOUNDARY, seed=seed + 1) draws at 2r
    pilot_rows = _boundary_rows(np.random.default_rng(seed + 1), pilot.chart_dim, 2.0 * r,
                                RADII_PILOT_BOUNDARY)
    for k in range(1, RADII_MAX_DOUBLINGS + 1):
        rho = r * 2.0**k
        boundary_max = -np.inf
        for value in _chart_energies(pilot, pilot_rows * 2.0**(k - 1)):
            boundary_max = max(boundary_max, value)
            if value > 0:
                break
        if boundary_max <= 0:
            return RadiiChoice(
                r=r, rho=rho, doublings=k, floor_value=floor_value,
                embedding_constant=c0, small_constant=k_small, eps=eps,
                boundary_pilot_max=float(boundary_max),
            )
    raise GeometryCertificationError(
        f"no doubling of r={r:.6g} gave a nonpositive boundary within {RADII_MAX_DOUBLINGS} tries"
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


def _central_jacobians(map_fn: Callable[[np.ndarray], np.ndarray],
                       xi: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians of ``map_fn`` at the chart rows xi, (m, d, d).

    The whole stencil of every row is mapped in one call.
    """
    m, d = xi.shape
    points, h = _stencil(xi)
    values = map_fn(points.reshape(-1, d)).reshape(m, 2, d, d)
    # values[i, 0, j] - values[i, 1, j] is column j of row i's Jacobian
    return np.swapaxes((values[:, 0] - values[:, 1]) / (2.0 * h[:, :, None]), 1, 2)


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
        points, _ = _stencil(x[running])
        running = running[frame._inside(points).all(axis=1)]
        if running.size == 0:
            break
        jac = _central_jacobians(map_fn, x[running])
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


def _root_sweep(map_fn: Callable[[np.ndarray], np.ndarray],
                frame: LinkingFrame) -> np.ndarray:
    """Distinct interior roots of map_fn found from the start lattice, in sorted order, (k, d)."""
    scale = max(1.0, frame.r)
    tol = max(1e-6, 1e-5 * frame.rho)
    ends, values = _newton_sweep(map_fn, frame, _start_lattice(frame, SWEEP_STARTS_PER_AXIS))
    # a start whose value is not finite never moves, and is no root
    keep = (np.isfinite(ends).all(axis=1)
            & (np.abs(values).max(axis=1) <= SWEEP_RESIDUAL_TOL * scale)
            & (ends[:, -1] >= 1e-9 * frame.r)
            & (np.sqrt(_row_dots(ends)) <= frame.rho * (1 - 1e-9)))
    roots: List[np.ndarray] = []
    for root in ends[keep]:
        gaps = [root - kept for kept in roots]
        if all(math.sqrt(gap @ gap) > tol for gap in gaps):
            roots.append(root)
    roots.sort(key=lambda row: tuple(np.round(row, 9)))
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
