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

A chart-compatible deformation gamma is a map of the chart, xi -> eta,
with gamma(xi) = eta . B. Intersection and degree certificates work on
the chart homotopy

    H_t(xi) = t ((G eta)[:d_y], |eta_last| sqrt(G[-1, -1])) + (1 - t) xi - r e_last,

the energy inner products of gamma(xi) with the mode rows, and the norm
of its diagonal part, which is eta_last times the anchor row. No state
is built. At t = 0 this is the affine map xi - r e_last, and at t = 1
it vanishes exactly when gamma(xi) hits the sphere N. Roots are located
by a multistart sweep; degrees are sums of Jacobian determinant signs
at the roots, so they are exact provided the sweep finds every root,
which the lattice is sized for in the shipped frames.

H_0 weighs gamma by exactly zero, so for a finite gamma its values do
not depend on gamma: the start degree is that of the affine map, and
the CLI counts it once per frame. At t = 1 the end degree and the
intersection certificate need the same roots, so they share one sweep
(``intersection_point(..., roots=degree.roots)``). The certificate
itself is checked on the state gamma(xi), independently of G.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence

import numpy as np
import scipy.optimize as sopt

from .errors import (
    BoundaryZeroError,
    DegenerateRootError,
    DomainMembershipError,
    GeometryCertificationError,
    IntersectionNotFoundError,
    InvalidSpecError,
)
from .functional import Problem, evaluate_J, small_t_constants
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


@dataclass
class LinkingFrame:
    """Chart data for one linking configuration.

    The chart coordinate is xi in R^(d_y + 1): the first d_y entries are
    coefficients along antidiagonal mode directions, the last entry is
    the anchor coefficient scaled so that the Euclidean norm of xi
    equals the energy norm of the state. The frame set M is the chart
    half-ball {|xi| <= rho, xi_last >= 0}; the small sphere N is the
    radius-r sphere of the full diagonal subspace. ``basis`` holds
    exactly the d_y chart modes. The Gram matrix of the chart is cached
    on first use, so a frame's fields are not reassigned.
    """

    problem: Problem
    splitting: DiagonalSplitting
    basis: ModalBasis
    anchor: StatePair
    r: float
    rho: float
    d_y: int = 1

    def __post_init__(self) -> None:
        if not (0 < self.r < self.rho and np.isfinite(self.rho)):
            raise InvalidSpecError(
                f"radii must satisfy 0 < r < rho, got r={self.r}, rho={self.rho}"
            )
        if not 1 <= self.d_y == self.basis.count:
            raise InvalidSpecError(
                f"the modal basis must hold exactly the d_y >= 1 chart modes, "
                f"got d_y={self.d_y} and {self.basis.count} modes"
            )
        split = self.splitting
        stray = split.pair_norm(split.antidiagonal_part(self.anchor))
        if stray > 1e-10 * self.r:
            raise InvalidSpecError("anchor must lie in the diagonal subspace")
        if abs(split.pair_norm(self.anchor) - self.r) > 1e-8 * self.r:
            raise InvalidSpecError("anchor norm must equal r")

    @property
    def chart_dim(self) -> int:
        return self.d_y + 1

    @cached_property
    def _chart_gram(self) -> np.ndarray:
        """G = B K B^T, the energy inner products of the rows of B.

        The identity up to the rounding of the eigenvectors, about
        eps * cond(K), which the homotopy keeps rather than drops. Built
        on first use: a solve never evaluates the homotopy.
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

    def contains(self, xi: np.ndarray, tol: float = 1e-9) -> bool:
        xi = np.asarray(xi, dtype=float)
        return bool(
            xi.shape == (self.chart_dim,)
            and xi[-1] >= -tol * self.rho
            and np.linalg.norm(xi) <= self.rho * (1.0 + tol)
        )

    def require_member(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if not self.contains(xi):
            raise DomainMembershipError(
                f"chart point outside the frame half-ball: |xi|={np.linalg.norm(xi):.6g}, "
                f"last={xi[-1] if xi.size else float('nan'):.6g}, rho={self.rho:.6g}"
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
    return LinkingFrame(problem, split, basis, anchor, float(r), float(rho), int(d_y))


@dataclass
class SampleSets:
    """Seeded sample families for geometry estimates.

    ``sphere_states`` lie on the small diagonal sphere N (the two signed
    anchor points always lead). ``boundary_chart`` rows cover the frame
    boundary: base rows carry an exact 0.0 last coordinate, cap rows
    have Euclidean norm exactly scaled to rho. ``interior_chart`` rows
    are strictly inside the half-ball.
    """

    sphere_states: List[StatePair]
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


def _boundary_corner_rows(frame: LinkingFrame) -> np.ndarray:
    """Deterministic boundary probes: cap top, base center, base edge points."""
    d = frame.chart_dim
    rows = [np.zeros(d)]
    top = np.zeros(d)
    top[-1] = frame.rho
    rows.append(top)
    for k in range(frame.d_y):
        for sign in (1.0, -1.0):
            edge = np.zeros(d)
            edge[k] = sign * frame.rho
            rows.append(edge)
    return np.array(rows)


def _boundary_rows(frame: LinkingFrame, rng: np.random.Generator, cap: int,
                   base: int) -> np.ndarray:
    """The corner probes, then ``cap`` cap rows and ``base`` base rows, drawn in that order."""
    return np.vstack([
        _boundary_corner_rows(frame),
        _cap_rows(rng, frame.chart_dim, frame.rho, cap),
        _base_rows(rng, frame.chart_dim, frame.rho, base),
    ])


def sample_sets(
    frame: LinkingFrame,
    sphere_count: int = 64,
    boundary_count: int = 128,
    interior_count: int = 64,
    seed: int = 0,
) -> SampleSets:
    rng = np.random.default_rng(seed)
    split = frame.splitting
    n = frame.problem.n

    sphere: List[StatePair] = [frame.anchor.copy(), -frame.anchor]
    if n > 1:
        while len(sphere) < max(sphere_count, 2):
            w = rng.standard_normal(n)
            cand = StatePair.diagonal(w)
            norm = split.pair_norm(cand)
            if norm < 1e-12:
                continue
            cand = (frame.r / norm) * cand
            sphere.append(cand)
            if len(sphere) < sphere_count:
                sphere.append(-cand)
    # n == 1: the diagonal sphere is exactly the two signed anchor points.

    # there are 2 * chart_dim corner probes
    fill = max(boundary_count - 2 * frame.chart_dim, 0)
    boundary = _boundary_rows(frame, rng, (fill + 1) // 2, fill // 2)
    interior = _interior_rows(rng, frame.chart_dim, frame.rho, interior_count)
    return SampleSets(sphere, boundary, interior)


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

    On a one-node grid the diagonal sphere is just the signed anchor
    pair, so the sphere minimum is exact rather than sampled.
    """
    if samples is None:
        samples = sample_sets(frame, seed=seed)
    problem = frame.problem
    sphere_vals = [evaluate_J(problem, s).total for s in samples.sphere_states]
    boundary_vals = np.array(
        [evaluate_J(problem, frame.state_from_chart(row)).total for row in samples.boundary_chart]
    )
    base_mask = samples.boundary_chart[:, -1] == 0.0
    sphere_min = float(np.min(sphere_vals))
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
        sphere_count=len(samples.sphere_states),
        boundary_count=int(samples.boundary_chart.shape[0]),
        r=frame.r,
        rho=frame.rho,
    )


@dataclass
class RadiiChoice:
    """Radii certified by the sampled small-sphere lower bound."""

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
    pts = problem.grid.coords
    probe = np.array([-10.0, -1.0, -1e-3, 1e-3, 1.0, 10.0])
    nl = problem.nl
    vals = [nl.f(pts[:1], probe), nl.F(pts[:1], probe), nl.g(pts[:1], probe), nl.G(pts[:1], probe)]
    return all(float(np.max(np.abs(v))) == 0.0 for v in vals)


# choose_radii: random fields behind the sampled embedding constant, the
# most doublings of r it tries for rho, and boundary rows per pilot sweep
RADII_FIELD_SAMPLES = 64
RADII_MAX_DOUBLINGS = 40
RADII_PILOT_BOUNDARY = 96


def _sampled_embedding_constant(problem: Problem, seed: int) -> float:
    """Sampled sup of vol*sum|w|^p over |w|_K^p on the grid.

    Candidates: the principal mode (the smooth extremizer), smoothed
    random fields (one stiffness solve), and raw random fields.
    """
    rng = np.random.default_rng(seed)
    grid, op = problem.grid, problem.op
    p = problem.nl.p
    vol = grid.cell_volume

    def ratio(w: np.ndarray) -> float:
        energy = op.product(w, w)
        if energy <= 0:
            return 0.0
        return float(vol * np.sum(np.abs(w) ** p) / energy ** (p / 2.0))

    best = ratio(problem.eigenpairs(1)[1][0])
    for _ in range(RADII_FIELD_SAMPLES):
        w = rng.standard_normal(problem.n)
        best = max(best, ratio(w), ratio(op.solve(w)))
    return best


def choose_radii(problem: Problem, d_y: int = 1, seed: int = 0) -> RadiiChoice:
    """Pick (r, rho) that the sampled bound certifies.

    The small-sphere floor is  s^2/2 - 2 k c0 s^p  in the diagonal
    factor norm s, where c0 is the sampled embedding constant and k the
    small-amplitude constant at eps equal to half the spectral gap. The
    returned r halves the maximizing s for safety; rho doubles r until a
    pilot boundary sweep is nonpositive.
    """
    if _looks_identically_zero(problem):
        return RadiiChoice(
            r=1.0, rho=2.0, doublings=1, floor_value=0.5,
            embedding_constant=0.0, small_constant=0.0,
            eps=problem.principal_eigenvalue() / 2.0,
            boundary_pilot_max=0.0,
            note="no coupling: any radius certifies; defaults returned",
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
    c0 = _sampled_embedding_constant(problem, seed)
    k_small = small_t_constants(problem.nl, eps)
    amp = 2.0 * k_small * c0
    p = problem.nl.p

    if amp <= 1e-300:
        s_best = 1.0
    else:
        s_best = (1.0 / (p * amp)) ** (1.0 / (p - 2.0))
    grid_s = np.geomspace(1e-4, 1e4, 400)
    floors = 0.5 * grid_s**2 - amp * grid_s**p
    if floors.max() > 0.5 * s_best**2 - amp * s_best**p:
        s_best = float(grid_s[np.argmax(floors)])
    s_chosen = 0.5 * s_best
    floor_value = 0.5 * s_chosen**2 - amp * s_chosen**p
    if floor_value <= 0:
        raise GeometryCertificationError(
            f"sampled small-sphere floor is nonpositive (best {floor_value:.6g})"
        )
    r = float(np.sqrt(2.0) * s_chosen)

    for k in range(1, RADII_MAX_DOUBLINGS + 1):
        rho = r * 2.0**k
        pilot = build_frame(problem, r, rho, d_y=d_y)
        samples = sample_sets(
            pilot, sphere_count=2, boundary_count=RADII_PILOT_BOUNDARY,
            interior_count=2, seed=seed + 1,
        )
        boundary_max = max(
            evaluate_J(problem, pilot.state_from_chart(row)).total
            for row in samples.boundary_chart
        )
        if boundary_max <= 0:
            return RadiiChoice(
                r=r, rho=rho, doublings=k, floor_value=floor_value,
                embedding_constant=c0, small_constant=k_small, eps=eps,
                boundary_pilot_max=float(boundary_max),
            )
    raise GeometryCertificationError(
        f"no doubling of r={r:.6g} gave a nonpositive boundary within {RADII_MAX_DOUBLINGS} tries"
    )


@dataclass
class DeformationGamma:
    """A map of the frame chart to states, identity on the frame boundary.

    ``fn`` takes a chart point xi of the half-ball M and returns the
    state gamma(xi); on the boundary of M it returns xi . B. A chart
    compatible deformation also has a ``chart`` map xi -> eta with
    gamma(xi) = eta . B, which the homotopy and the intersection solver
    require; ``None`` means gamma leaves the chart (flow-based maps). The
    ``displacement_modes`` list the antidiagonal mode indices spanning
    gamma(xi) - xi . B; ``None`` means the displacement is only certified
    against the full discrete space.
    """

    name: str
    fn: Callable[[np.ndarray], StatePair]
    displacement_modes: Optional[Sequence[int]] = ()
    chart: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, xi: np.ndarray) -> StatePair:
        return self.fn(xi)


def _boundary_clearance(frame: LinkingFrame, xi: np.ndarray) -> tuple[float, float]:
    """Clearance of xi from the base and from the cap of the frame, clamped at 0.

    The margin clamps boundary-sample float noise to an exact 0.0, so
    deformations built on it fix the boundary bitwise, not just to rounding.
    """
    margin = 1e-6
    lam_rel = xi[-1] / frame.rho
    slack = 1.0 - float(np.dot(xi, xi)) / frame.rho**2
    return max(0.0, lam_rel - margin), max(0.0, slack - margin)


def _interior_taper(frame: LinkingFrame, xi: np.ndarray) -> float:
    """Continuous weight in [0, ~1/4], exactly zero on the frame boundary."""
    q1, q2 = _boundary_clearance(frame, xi)
    return q1 * q2


def identity_deformation(frame: LinkingFrame) -> DeformationGamma:
    return DeformationGamma("identity", frame.state_from_chart, displacement_modes=(),
                            chart=lambda xi: xi)


def _modal_push(frame: LinkingFrame, name: str, mode: int, scale: float,
                sheared: bool) -> DeformationGamma:
    """Push xi along chart mode ``mode`` by a weight that vanishes on the boundary."""
    if not 0 <= mode < frame.d_y:
        raise InvalidSpecError(f"mode must lie in [0, {frame.d_y}), got {mode}")
    amplitude = scale * frame.r

    def chart(xi: np.ndarray) -> np.ndarray:
        w = _interior_taper(frame, xi) * (xi[-1] / frame.rho if sheared else 1.0)
        if w == 0.0:
            return xi
        eta = np.array(xi, dtype=float)
        eta[mode] += amplitude * w
        return eta

    return DeformationGamma(
        f"{name}(mode={mode})", lambda xi: frame.state_from_chart(chart(xi)),
        displacement_modes=(mode,), chart=chart,
    )


def modal_shift_deformation(
    frame: LinkingFrame, mode: int = 0, scale: float = 0.25
) -> DeformationGamma:
    """Push interior points along one antidiagonal mode, tapered to zero at the boundary."""
    return _modal_push(frame, "shift", mode, scale, sheared=False)


def anchor_shear_deformation(
    frame: LinkingFrame, mode: int = 0, scale: float = 0.25
) -> DeformationGamma:
    """Shear: the modal push grows with the anchor coordinate."""
    return _modal_push(frame, "shear", mode, scale, sheared=True)


def shipped_deformations(frame: LinkingFrame, scale: float = 0.25) -> List[DeformationGamma]:
    """Identity, modal shift, and anchor shear, all chart compatible."""
    return [
        identity_deformation(frame),
        modal_shift_deformation(frame, mode=0, scale=scale),
        anchor_shear_deformation(frame, mode=0, scale=scale),
    ]


def displacement_residual(
    frame: LinkingFrame, gamma: DeformationGamma, rows: np.ndarray
) -> float:
    """Worst reconstruction error of gamma(xi) - xi . B from its declared mode span.

    ``rows`` are chart points. A ``None`` span certifies against the
    whole discrete space, where reconstruction is trivially exact.
    """
    if gamma.displacement_modes is None:
        return 0.0
    worst = 0.0
    for row in rows:
        moved = gamma(row) - frame.state_from_chart(row)
        worst = max(worst, _span_residual(frame, moved, gamma.displacement_modes))
    return worst


def _span_residual(frame: LinkingFrame, x: StatePair, modes: Sequence[int]) -> float:
    """Energy norm of x minus its reconstruction from the listed antidiagonal modes."""
    coeffs = frame.basis.coefficients(x)
    recon = StatePair.zeros(x.size)
    for k in modes:
        recon = recon + coeffs[k] * frame.basis.direction(k)
    return frame.splitting.pair_norm(x - recon)


def homotopy_chart_map(
    frame: LinkingFrame, gamma: DeformationGamma, t: float
) -> Callable[[np.ndarray], np.ndarray]:
    """The homotopy H_t of the module docstring, valued in R^(d_y + 1).

    Its Euclidean norm equals the energy norm of the homotopy value. A
    zero is an intersection witness at t = 1 and the affine root at
    t = 0. Only a chart-compatible gamma has one.
    """
    if not (0.0 <= t <= 1.0):
        raise InvalidSpecError(f"homotopy time must lie in [0, 1], got {t}")
    if gamma.chart is None:
        raise DomainMembershipError(f"deformation '{gamma.name}' is not chart compatible")
    gram, d_y, r = frame._chart_gram, frame.d_y, frame.r
    anchor_norm = float(np.sqrt(gram[-1, -1]))

    def chart_map(xi: np.ndarray) -> np.ndarray:
        xi = frame.require_member(xi)
        eta = gamma.chart(xi)
        out = t * np.append(gram[:d_y] @ eta, abs(eta[-1]) * anchor_norm) + (1.0 - t) * xi
        out[-1] -= r
        return out

    return chart_map


def _verify_chart_span(
    frame: LinkingFrame, gamma: DeformationGamma, probes: np.ndarray, tol: float = 1e-8
) -> None:
    split = frame.splitting
    for row in probes:
        gu = gamma(row)
        err = _span_residual(frame, split.antidiagonal_part(gu), range(frame.d_y))
        if err > tol * max(1.0, split.pair_norm(gu)):
            raise DomainMembershipError(
                f"deformation '{gamma.name}' leaves the chart span "
                f"(antidiagonal residual {err:.3e})"
            )


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


def _root_sweep(map_fn: Callable[[np.ndarray], np.ndarray],
                frame: LinkingFrame) -> List[np.ndarray]:
    """Distinct interior roots of map_fn found from the start lattice, in sorted order."""
    scale = max(1.0, frame.r)
    tol = max(1e-6, 1e-5 * frame.rho)
    roots: List[np.ndarray] = []
    for start in _start_lattice(frame, SWEEP_STARTS_PER_AXIS):
        root = sopt.root(map_fn, start, method="hybr", tol=1e-13).x
        if not np.all(np.isfinite(root)):
            continue
        if np.max(np.abs(map_fn(root))) > SWEEP_RESIDUAL_TOL * scale:
            continue
        if root[-1] < 1e-9 * frame.r or np.linalg.norm(root) > frame.rho * (1 - 1e-9):
            continue
        if all(np.linalg.norm(root - kept) > tol for kept in roots):
            roots.append(root)
    roots.sort(key=lambda row: tuple(np.round(row, 9)))
    return roots


@dataclass
class IntersectionCertificate:
    """A verified point of gamma(M) on the small sphere N."""

    chart: np.ndarray
    state: StatePair
    image: StatePair
    antidiagonal_residual: float
    radius_residual: float
    energy: float


def intersection_point(frame: LinkingFrame, gamma: DeformationGamma,
                       roots: Optional[np.ndarray] = None) -> IntersectionCertificate:
    """Find and certify a chart point whose image under gamma lies on N.

    The certificate is computed on the state itself, independently of
    the chart algebra used to locate the root: the antidiagonal part of
    the image must vanish and its norm must equal r, both to within 1e-8.

    ``roots`` are candidate roots of the t = 1 chart map, one per row:
    ``brouwer_degree_small`` on that map sweeps exactly these, so its
    ``DegreeReport.roots`` can be passed to skip a second sweep. With
    ``None`` the roots are swept here. The chart checks run first either way.
    """
    if gamma.chart is None:
        raise DomainMembershipError(f"deformation '{gamma.name}' is not chart compatible")
    probes = _interior_rows(np.random.default_rng(3), frame.chart_dim, frame.rho, 8)
    _verify_chart_span(frame, gamma, probes)

    if roots is None:
        chart_map = homotopy_chart_map(frame, gamma, 1.0)
        roots = _root_sweep(chart_map, frame)
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


def _fd_jacobian(map_fn, xi: np.ndarray) -> np.ndarray:
    d = xi.size
    jac = np.empty((d, d))
    for j in range(d):
        h = 1e-6 * max(1.0, abs(xi[j]))
        e = np.zeros(d)
        e[j] = h
        jac[:, j] = (map_fn(xi + e) - map_fn(xi - e)) / (2.0 * h)
    return jac


def brouwer_degree_small(
    map_fn: Callable[[np.ndarray], np.ndarray], frame: LinkingFrame
) -> DegreeReport:
    """Degree of a chart map on the open half-ball, by root counting.

    Requires chart dimension at most 4 so the multistart sweep can be
    dense enough to be treated as exhaustive. The map must stay at least
    1e-6 away from zero on 300 seeded boundary samples plus the corner
    probes; each root must have a central-difference Jacobian
    determinant of size at least 1e-8.
    """
    if frame.chart_dim > MAX_DEGREE_DIMENSION:
        raise InvalidSpecError(
            f"degree counting supports chart dimension <= {MAX_DEGREE_DIMENSION}, "
            f"got {frame.chart_dim}"
        )
    boundary = _boundary_rows(frame, np.random.default_rng(7), 150, 150)
    boundary_vals = np.array([np.linalg.norm(map_fn(row)) for row in boundary])
    boundary_min = float(np.min(boundary_vals))
    if boundary_min < 1e-6:
        raise BoundaryZeroError(
            f"map vanishes on the frame boundary (min {boundary_min:.3e} "
            f"at sample {int(np.argmin(boundary_vals))})"
        )

    roots = _root_sweep(map_fn, frame)

    dets = []
    for root in roots:
        det = float(np.linalg.det(_fd_jacobian(map_fn, root)))
        if abs(det) < 1e-8:
            raise DegenerateRootError(
                f"root {np.round(root, 6)} has near-singular Jacobian (|det|={abs(det):.3e})"
            )
        dets.append(det)
    dets_arr = np.array(dets) if dets else np.empty(0)
    degree = int(np.sum(np.sign(dets_arr))) if dets else 0
    roots_arr = np.array(roots) if roots else np.empty((0, frame.chart_dim))
    return DegreeReport(degree, roots_arr, dets_arr, boundary_min)
