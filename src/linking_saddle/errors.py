"""Error taxonomy shared across the package.

Every failure mode a caller is expected to handle gets its own class;
anything else is a plain bug and propagates as the underlying exception.
"""

from __future__ import annotations

__all__ = [
    "LinkingSaddleError",
    "InvalidSpecError",
    "GridMismatchError",
    "LinearSolveError",
    "EnergyOverflowError",
    "DomainMembershipError",
    "GeometryCertificationError",
    "IntersectionNotFoundError",
    "DegenerateRootError",
    "BoundaryZeroError",
    "ConfigError",
]


class LinkingSaddleError(Exception):
    """Base class for package-specific failures."""


class InvalidSpecError(LinkingSaddleError, ValueError):
    """A domain, problem, or frame description violates a validity constraint."""


class GridMismatchError(LinkingSaddleError, ValueError):
    """Field data does not belong to the grid it is being used with."""


class LinearSolveError(LinkingSaddleError, RuntimeError):
    """A linear or eigen solve failed or missed its residual bound."""


class EnergyOverflowError(LinkingSaddleError, FloatingPointError):
    """An energy term evaluated non-finite; the message names the term."""


class DomainMembershipError(LinkingSaddleError, ValueError):
    """A state lies outside the set an operation is defined on."""


class GeometryCertificationError(LinkingSaddleError, RuntimeError):
    """No radii could be certified for the requested linking geometry."""


class IntersectionNotFoundError(LinkingSaddleError, RuntimeError):
    """The continuation path found no root, or its root did not certify an intersection."""


class DegenerateRootError(LinkingSaddleError, RuntimeError):
    """A root's Jacobian determinant is below the regularity threshold."""


class BoundaryZeroError(LinkingSaddleError, RuntimeError):
    """A degree's map vanishes on the sampled boundary, or its homotopy's bound there is < 1e-6."""


class ConfigError(LinkingSaddleError, ValueError):
    """Run configuration text failed to parse or validate."""
