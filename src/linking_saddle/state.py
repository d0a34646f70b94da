"""Pairs of scalar fields with componentwise vector-space algebra.

A :class:`StatePair` is the unknown (u, v) of the coupled system: two
flat fields on the same grid. It carries no grid reference; operations
that need the mesh validate against it at their own boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StatePair", "mirrored", "pair_dot", "pair_norm"]


@dataclass
class StatePair:
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=float).reshape(-1)
        self.v = np.asarray(self.v, dtype=float).reshape(-1)
        if self.u.shape != self.v.shape:
            raise ValueError(
                f"component shapes differ: {self.u.shape} vs {self.v.shape}"
            )

    @classmethod
    def zeros(cls, n: int) -> "StatePair":
        return cls(np.zeros(n), np.zeros(n))

    @classmethod
    def diagonal(cls, w) -> "StatePair":
        """The pair (w, w) on the diagonal subspace."""
        w = np.asarray(w, dtype=float)
        return cls(w.copy(), w.copy())

    def copy(self) -> "StatePair":
        return StatePair(self.u.copy(), self.v.copy())

    @property
    def size(self) -> int:
        return self.u.size

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v)))

    def __add__(self, other: "StatePair") -> "StatePair":
        return StatePair(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "StatePair") -> "StatePair":
        return StatePair(self.u - other.u, self.v - other.v)

    def __neg__(self) -> "StatePair":
        return StatePair(-self.u, -self.v)

    def __mul__(self, a: float) -> "StatePair":
        return StatePair(self.u * a, self.v * a)

    __rmul__ = __mul__

    def __truediv__(self, a: float) -> "StatePair":
        return StatePair(self.u / a, self.v / a)


def mirrored(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the fields a and b hold the same doubles, bit for bit.

    0.0 and -0.0 differ, and so do NaN payloads, so a kernel fed two
    mirrored fields makes the same floating-point operations on each and
    may compute one side from the other. The mirror rule of a kernel: where
    its u- and v-terms are the same operations on mirrored fields, it takes
    them once.
    """
    return a is b or (a.shape == b.shape and a.tobytes() == b.tobytes())


def pair_dot(op, a: StatePair, b: StatePair) -> float:
    """Product inner product: Dirichlet form on each component, summed.

    By the mirror rule (:func:`mirrored`), where a and b each have u == v
    bitwise it takes one product d and returns d + d.
    """
    if mirrored(a.u, a.v) and (b is a or mirrored(b.u, b.v)):
        d = op.product(a.u, b.u)
        return d + d
    return op.product(a.u, b.u) + op.product(a.v, b.v)


def pair_norm(op, x: StatePair) -> float:
    return float(np.sqrt(max(pair_dot(op, x, x), 0.0)))
