"""Diagonal/antidiagonal splitting of the product space and its weak norms.

The product space of pairs splits orthogonally (in the product Dirichlet
inner product) into the diagonal subspace {(w, w)} and the antidiagonal
subspace {(-w, w)}. The cross term of the energy is exactly a difference
of squares along this splitting, so the diagonal carries the positive
cone and the antidiagonal the negative one.

On the antidiagonal factor we use a weighted modal norm: expand in the
Laplacian eigenmode directions and sum absolute coefficients with
geometrically decaying weights. On bounded sets it metrizes the weak
topology, which is the topology the linking argument needs. The mixed
norm takes the weighted modal norm on the antidiagonal part and the
energy norm on the diagonal part, whichever is larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DomainMembershipError, InvalidSpecError
from .grid import Grid, StiffnessOperator, eigenpairs
from .state import StatePair, pair_dot, pair_norm

__all__ = [
    "DiagonalSplitting",
    "ModalBasis",
    "build_modal_basis",
    "weighted_modal_norm",
    "mixed_weak_norm",
]

DEFAULT_MODE_COUNT = 32


class DiagonalSplitting:
    """Orthogonal projections onto the diagonal and antidiagonal subspaces."""

    def __init__(self, grid: Grid, op: StiffnessOperator) -> None:
        self.grid = grid
        self.op = op

    def antidiagonal_part(self, x: StatePair) -> StatePair:
        """Projection onto {(-w, w)}: the negative factor of the energy."""
        w = 0.5 * (x.u - x.v)
        return StatePair(w, -w)

    def diagonal_part(self, x: StatePair) -> StatePair:
        """Projection onto {(w, w)}: the positive factor of the energy."""
        m = 0.5 * (x.u + x.v)
        return StatePair(m, m.copy())

    def pair_dot(self, a: StatePair, b: StatePair) -> float:
        return pair_dot(self.op, a, b)

    def pair_norm(self, x: StatePair) -> float:
        return pair_norm(self.op, x)

    def cross_form(self, x: StatePair) -> float:
        """The indefinite quadratic <u, v>, as a difference of squares."""
        plus = self.diagonal_part(x)
        minus = self.antidiagonal_part(x)
        return 0.5 * self.pair_dot(plus, plus) - 0.5 * self.pair_dot(minus, minus)


@dataclass
class ModalBasis:
    """Antidiagonal eigenmode directions with geometric weights.

    ``modes[k]`` is the k-th Dirichlet-normalized Laplacian eigenvector;
    the corresponding antidiagonal unit direction is (-phi_k, phi_k)/sqrt(2).
    ``weights[k] = 2^-(k+1)``.
    """

    splitting: DiagonalSplitting
    modes: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        if self.modes.ndim != 2 or self.modes.shape[0] != self.eigenvalues.size:
            raise InvalidSpecError("modes and eigenvalues disagree in count")
        self.weights = 0.5 ** (1.0 + np.arange(self.count))

    @property
    def count(self) -> int:
        return int(self.modes.shape[0])

    def direction(self, k: int) -> StatePair:
        """The k-th antidiagonal unit direction (-phi_k, phi_k)/sqrt(2)."""
        phi = self.modes[k] / np.sqrt(2.0)
        return StatePair(-phi, phi)

    def diagonal_direction(self, k: int) -> StatePair:
        """The k-th diagonal unit direction (phi_k, phi_k)/sqrt(2)."""
        phi = self.modes[k] / np.sqrt(2.0)
        return StatePair(phi.copy(), phi)

    @cached_property
    def _k_modes(self) -> np.ndarray:
        """Rows K phi_k / sqrt(2), built on the first ``coefficients`` call.

        Lazy because a solve never asks for coefficients, and the
        ``(count, n)`` array would only add to its peak memory. Column
        major: the layout picks BLAS's matrix-vector kernel in
        ``coefficients``, and with it the last bits of every coefficient
        that ``intersect`` and ``geometry`` write.
        """
        return np.asfortranarray(self.splitting.op.apply(self.modes)) / np.sqrt(2.0)

    def coefficients(self, x: StatePair) -> np.ndarray:
        """Inner products of x with every antidiagonal direction.

        <x, (-phi, phi)/sqrt(2)> = (K phi / sqrt(2)) . (v - u), as K is symmetric.
        """
        return self._k_modes @ self.splitting.grid.check_field(x.v - x.u)


def build_modal_basis(
    splitting: DiagonalSplitting, count: Optional[int] = None
) -> ModalBasis:
    """Basis of the first ``count`` modes (default: min(32, grid size))."""
    n = splitting.grid.n_interior
    if count is None:
        count = min(DEFAULT_MODE_COUNT, n)
    evals, vecs = eigenpairs(splitting.grid, splitting.op, count)
    return ModalBasis(splitting, vecs, evals)


def weighted_modal_norm(basis: ModalBasis, y: StatePair) -> float:
    """Weighted sum of |modal coefficients| of an antidiagonal element.

    Only defined on the antidiagonal subspace: the diagonal component of
    ``y`` must vanish to within 1e-10 relative to its size.
    """
    split = basis.splitting
    stray = split.pair_norm(split.diagonal_part(y))
    scale = max(split.pair_norm(y), 1e-300)
    if stray > 1e-10 * scale:
        raise DomainMembershipError(
            f"weighted modal norm needs an antidiagonal element; "
            f"diagonal component has relative size {stray / scale:.3e}"
        )
    return float(np.sum(basis.weights * np.abs(basis.coefficients(y))))


def mixed_weak_norm(basis: ModalBasis, x: StatePair) -> float:
    """max(weighted modal norm of the antidiagonal part, energy norm of the diagonal part)."""
    split = basis.splitting
    weak = weighted_modal_norm(basis, split.antidiagonal_part(x))
    strong = split.pair_norm(split.diagonal_part(x))
    return max(weak, strong)
