"""Tensor-product Dirichlet grids and the discrete Dirichlet energy form.

Second-order finite differences on an interval or axis-aligned rectangle
with homogeneous Dirichlet boundary. Only interior nodes are stored; a
scalar field is a flat float array in lexicographic order (C order of
shape ``(nx, ny)`` in 2D). The stiffness operator realizes the edge-sum
Dirichlet form

    1D:  <u, v> = (1/h) * sum_i (u[i+1]-u[i]) (v[i+1]-v[i])
    2D:  the analogous sum over x- and y-edges, each weighted by the
         transverse mesh width,

which approximates the integral of grad(u).grad(v). Nodal quadrature is
the cell-volume weighted sum over interior nodes. Eigenpairs of the
discrete Laplacian are assembled from the 1D tensor factors: the
closed-form Dirichlet sine pairs, with eigenvalues (4/h^2) sin^2(k pi h
/ (2L)), exact to rounding and bitwise deterministic. The same 1D
factors give the direct 2D stiffness solve by fast diagonalization
(Lynch, Rice and Thomas, Numer. Math. 6, 1964); 1D grids solve their
tridiagonal matrix by its closed-form LDL^T factorization.

All operations are pure; reductions use numpy's fixed evaluation order,
so repeated calls on the same inputs give identical floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, InvalidSpecError, LinearSolveError

__all__ = [
    "DomainSpec",
    "Grid",
    "StiffnessOperator",
    "build_grid",
    "eigenpairs",
    "principal_eigenpair",
]


@dataclass(frozen=True)
class DomainSpec:
    """Interval or rectangle with homogeneous Dirichlet boundary.

    Parameters
    ----------
    dimension : int
        1 or 2.
    extents : tuple of float
        Side length per axis, positive and finite.
    interior_counts : tuple of int
        Interior nodes per axis; the mesh width on an axis is
        ``extent / (count + 1)``.
    """

    dimension: int = 1
    extents: tuple[float, ...] = (1.0,)
    interior_counts: tuple[int, ...] = (31,)

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise InvalidSpecError(f"dimension must be 1 or 2, got {self.dimension!r}")
        object.__setattr__(self, "extents", tuple(float(L) for L in self.extents))
        object.__setattr__(self, "interior_counts", tuple(int(n) for n in self.interior_counts))
        if len(self.extents) != self.dimension:
            raise InvalidSpecError(
                f"expected {self.dimension} extents, got {len(self.extents)}"
            )
        if len(self.interior_counts) != self.dimension:
            raise InvalidSpecError(
                f"expected {self.dimension} interior counts, got {len(self.interior_counts)}"
            )
        for L in self.extents:
            if not np.isfinite(L) or L <= 0.0:
                raise InvalidSpecError(f"extents must be positive and finite, got {L}")
        for n in self.interior_counts:
            if n < 1:
                raise InvalidSpecError(f"interior counts must be >= 1, got {n}")

    @classmethod
    def interval(cls, n: int, length: float = 1.0) -> "DomainSpec":
        return cls(1, (length,), (n,))

    @classmethod
    def square(cls, n: int, length: float = 1.0) -> "DomainSpec":
        return cls(2, (length, length), (n, n))

    @classmethod
    def rectangle(cls, nx: int, ny: int, lx: float = 1.0, ly: float = 1.0) -> "DomainSpec":
        return cls(2, (lx, ly), (nx, ny))

    @property
    def mesh_widths(self) -> tuple[float, ...]:
        return tuple(L / (n + 1) for L, n in zip(self.extents, self.interior_counts))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.mesh_widths))

    @property
    def n_interior(self) -> int:
        return int(np.prod(self.interior_counts))


class Grid:
    """Interior nodes of a :class:`DomainSpec` in lexicographic order."""

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self.shape: tuple[int, ...] = spec.interior_counts
        self.n_interior: int = spec.n_interior
        self.h: tuple[float, ...] = spec.mesh_widths
        self.cell_volume: float = spec.cell_volume
        axes = [
            np.arange(1, n + 1, dtype=float) * w
            for n, w in zip(spec.interior_counts, self.h)
        ]
        if spec.dimension == 1:
            self.coords = axes[0].reshape(-1, 1)
        else:
            xs, ys = np.meshgrid(axes[0], axes[1], indexing="ij")
            self.coords = np.column_stack([xs.ravel(), ys.ravel()])

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def check_field(self, values, require_finite: bool = False) -> np.ndarray:
        """Coerce ``values`` to a flat float field on this grid."""
        out = np.asarray(values, dtype=float).reshape(-1)
        if out.shape != (self.n_interior,):
            raise GridMismatchError(
                f"field has {out.size} entries, grid has {self.n_interior} interior nodes"
            )
        if require_finite and not np.all(np.isfinite(out)):
            raise GridMismatchError("field contains non-finite entries")
        return out

    def integrate(self, values) -> float:
        """Nodal quadrature: cell volume times the sum over interior nodes."""
        vals = self.check_field(values, require_finite=True)
        return float(self.cell_volume * vals.sum())

    def as_mesh(self, values) -> np.ndarray:
        """Reshape a flat field to the (nx,) or (nx, ny) interior mesh."""
        return self.check_field(values).reshape(self.shape)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Grid(shape={self.shape}, h={self.h})"


def _stencil(counts: tuple[int, ...], widths: tuple[float, ...]) -> tuple:
    """K as terms ``(rows, coefficients, columns)``: ``(K u)[rows] += coefficients * u[columns]``.

    One term per stored diagonal, in ascending offset, so each row of K u
    sums its entries in column order from a zero start. 1D: (1/h)
    tridiag(-1, 2, -1). 2D: hy kron(K1x, I) + hx kron(I, K1y); node (i, j)
    is row i ny + j, so offsets +-1 couple y-neighbours (0 across a grid
    line) and +-ny x-neighbours.
    """
    n = int(np.prod(counts))
    if len(counts) == 1:
        off = np.full(n - 1, -1.0 / widths[0])
        diagonals = {-1: off, 0: np.full(n, 2.0 / widths[0]), 1: off}
    else:
        (nx, ny), (hx, hy) = counts, widths
        diagonals = {0: np.full(n, hy * (2.0 / hx) + hx * (2.0 / hy))}
        if ny > 1:
            y = np.arange(n - 1) % ny
            diagonals[-1] = diagonals[1] = np.where(y < ny - 1, hx * (-1.0 / hy), 0.0)
        if nx > 1:
            diagonals[-ny] = diagonals[ny] = np.full(n - ny, hy * (-1.0 / hx))
    return tuple((slice(max(0, -k), n - max(0, k)), diagonals[k], slice(max(0, k), n - max(0, -k)))
                 for k in sorted(diagonals))


class StiffnessOperator:
    """Sparse SPD matrix realizing the Dirichlet form on a grid.

    K is kept as its stencil, the nonzero diagonals, and multiplies a
    field, or each row of a block of fields, by adding them onto a zero
    start in ascending offset, bitwise the product of K stored by
    diagonals or by compressed rows. ``product`` evaluates the form,
    ``apply`` the matrix-vector product, and ``solve`` inverts it, by a
    direct solve built once per operator: on 2D grids fast
    diagonalization in the axes' 1D eigenbases (also built once), on 1D
    grids the closed-form LDL^T of the tridiagonal matrix, so no dense
    eigenbasis is kept. A solution is rejected with
    :class:`LinearSolveError` if its relative residual exceeds ``rtol``.
    """

    rtol = 1e-10

    def __init__(self, grid: Grid):
        self.grid = grid
        self._diagonals = _stencil(grid.shape, grid.h)

    @cached_property
    def _eigen_factors(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``_eigen_factors_1d`` of each axis of a 2D grid, read-only; equal axes share one pair."""
        axes = tuple(zip(self.grid.shape, self.grid.h))
        pairs = {axis: _eigen_factors_1d(*axis) for axis in dict.fromkeys(axes)}
        for w, v in pairs.values():
            w.flags.writeable = v.flags.writeable = False
        return tuple(pairs[axis] for axis in axes)

    @cached_property
    def _factor(self):
        if self.grid.dimension == 1:
            # K = tridiag(-1, 2, -1) / h and tridiag(-1, 2, -1) = L D L^T with
            # l_i = -i/(i+1), d_i = (i+1)/i, so w = K^-1 b is s = cumsum(i h b) and
            # w_i = i sum_{j >= i} s_j / (j (j+1)): O(n), where a dense eigenbasis
            # is O(n^2) per solve
            (h,) = self.grid.h
            i = np.arange(1.0, self.grid.n_interior + 1.0)
            denominators = i * (i + 1.0)

            def solve(rhs: np.ndarray) -> np.ndarray:
                s = np.cumsum(i * (h * rhs))
                return i * np.cumsum((s / denominators)[::-1])[::-1]

            return solve
        (nx, ny), (hx, hy) = self.grid.shape, self.grid.h
        (wx, vx), (wy, vy) = self._eigen_factors
        # K = hy (K1x (x) I) + hx (I (x) K1y) with K1 = h V diag(w) V^T per axis
        lam = hx * hy * (wx[:, None] + wy[None, :])

        def solve(rhs: np.ndarray) -> np.ndarray:
            coeffs = (vx.T @ rhs.reshape(nx, ny) @ vy) / lam
            return (vx @ coeffs @ vy.T).ravel()

        return solve

    def _matvec(self, u: np.ndarray) -> np.ndarray:
        """K u along the last axis of ``u``, unchecked."""
        out = np.zeros(u.shape)
        for rows, coefficients, columns in self._diagonals:
            out[..., rows] += coefficients * u[..., columns]
        return out

    def apply(self, u) -> np.ndarray:
        """K u for a field, or for each row of a ``(k, n_interior)`` block of fields."""
        u = np.asarray(u, dtype=float)
        if u.ndim != 2:
            u = self.grid.check_field(u)
        elif u.shape[1] != self.grid.n_interior:
            raise GridMismatchError(f"block rows have {u.shape[1]} entries, grid has "
                                    f"{self.grid.n_interior} interior nodes")
        return self._matvec(u)

    def product(self, u, v) -> float:
        """Dirichlet form <u, v>, symmetric and positive definite."""
        u = self.grid.check_field(u)
        v = self.grid.check_field(v)
        return float(u @ self._matvec(v))

    def solve(self, rhs) -> np.ndarray:
        """Solve K w = rhs to relative residual <= rtol."""
        rhs = self.grid.check_field(rhs, require_finite=True)
        w = self._factor(rhs)
        scale = float(np.linalg.norm(rhs))
        if scale > 0.0:
            resid = float(np.linalg.norm(self._matvec(w) - rhs))
            if resid > self.rtol * scale:
                raise LinearSolveError(
                    f"linear solve residual {resid:.3e} exceeds {self.rtol:.1e} * |rhs|"
                )
        return w


def build_grid(spec: DomainSpec) -> tuple[Grid, StiffnessOperator]:
    """Construct the grid and its stiffness operator for a domain."""
    grid = Grid(spec)
    return grid, StiffnessOperator(grid)


def _eigen_factors_1d(n: int, h: float, count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The first ``count`` (default n) eigenpairs of K1 phi = lam h phi, in closed form.

    Equivalent standard problem: tridiag(-1, 2, -1) / h^2. Its k-th pair
    is (4/h^2) sin^2(k pi / (2(n+1))) and the column sqrt(2/(n+1))
    sin(pi i k / (n+1)), with i k reduced modulo 2(n+1) so every sine
    argument is below 2 pi (Swarztrauber, SIAM Rev. 19, 1977). Eigenvalues
    ascend; columns are orthonormal, largest-magnitude entry positive.
    """
    k = np.arange(1, (count or n) + 1)
    w = (4.0 / (h * h)) * np.sin(k * (np.pi / (2 * (n + 1)))) ** 2
    m = np.outer(np.arange(1, n + 1), k) % (2 * (n + 1))
    v = np.sqrt(2.0 / (n + 1)) * np.sin(m * (np.pi / (n + 1)))
    v *= np.where(v[np.argmax(np.abs(v), axis=0), k - 1] < 0.0, -1.0, 1.0)
    return w, v


def eigenpairs(grid: Grid, op: StiffnessOperator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``count`` eigenpairs of K phi = lam * h^d * phi.

    On 2D grids it reads the axis sine pairs ``op`` builds once; on a
    1D grid it builds only the ``count`` sine pairs it returns.
    Eigenvalues ascend; ties in 2D resolve by axis mode order, so the
    result is deterministic even on symmetric squares.
    Each returned eigenvector is normalized against the Dirichlet form,
    ``op.product(phi, phi) == 1``.

    Returns
    -------
    (evals, vecs) : evals ``(count,)``, vecs ``(count, n_interior)``.
    """
    if not 1 <= count <= grid.n_interior:
        raise InvalidSpecError(
            f"eigenpair count must be in [1, {grid.n_interior}], got {count}"
        )
    vol = grid.cell_volume
    if grid.dimension == 1:
        evals, v = _eigen_factors_1d(grid.shape[0], grid.h[0], count)
        vecs = v.T.copy()
    else:
        nx, ny = grid.shape
        (wx, vx), (wy, vy) = op._eigen_factors
        lam = wx[:, None] + wy[None, :]
        order = np.lexsort((np.tile(np.arange(ny), nx),
                            np.repeat(np.arange(nx), ny),
                            lam.ravel()))
        sel = order[:count]
        evals = lam.ravel()[sel].copy()
        vecs = np.empty((count, grid.n_interior))
        for row, flat in enumerate(sel):
            i, j = divmod(int(flat), ny)
            vecs[row] = np.outer(vx[:, i], vy[:, j]).ravel()
    # Dirichlet-form normalization: phi^T K phi = lam * vol for unit phi.
    vecs /= np.sqrt(evals * vol)[:, None]
    for k, phi in enumerate(vecs):
        k_phi = op.apply(phi)
        resid = np.linalg.norm(k_phi - evals[k] * vol * phi)
        scale = np.linalg.norm(k_phi)
        if resid > 1e-10 * scale:
            raise LinearSolveError(f"modal basis: eigenpair {k} relative residual "
                                   f"{resid / scale:.3e} exceeds 1e-10")
    return evals, vecs


def principal_eigenpair(grid: Grid, op: StiffnessOperator) -> tuple[float, np.ndarray]:
    """Smallest Dirichlet eigenvalue and its form-normalized eigenvector."""
    evals, vecs = eigenpairs(grid, op, 1)
    return float(evals[0]), vecs[0]
