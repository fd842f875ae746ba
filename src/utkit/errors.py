"""Exception types shared across the package.

Every error raised deliberately by this library derives from UtkitError so
callers can catch the whole family with one clause.  The subclasses mirror
the failure modes of the numerical pipeline: domain/geometry misuse,
quadrature breakdown, fits and solver divergence.
"""


class UtkitError(Exception):
    """Base class for all errors raised by this package."""


class BoundaryPoint(UtkitError):
    """A point lies on the boundary of its domain where a density or map
    is singular."""


class DomainMismatch(UtkitError):
    """Two objects that must share a domain do not."""


class DiagonalSingularity(UtkitError):
    """Kernel evaluation requested exactly on the diagonal z = w."""


class IndexOutOfRange(UtkitError):
    """A basis or coefficient index outside the valid range."""


class QuadratureFailure(UtkitError):
    """An integral did not stabilize to the requested tolerance."""


class NonFiniteValue(UtkitError):
    """A NaN or infinity appeared where a finite value is required."""


class NoConvergence(UtkitError):
    """An iterative process failed to converge within its budget."""


class NormTooLarge(UtkitError):
    """A field norm exceeds the contract bound of the operation."""


class CriticalPoint(UtkitError):
    """Derivative vanishes where the formula requires it nonzero."""


class FitFailure(UtkitError):
    """A least-squares fit left a residual above tolerance."""


class DegenerateSection(UtkitError):
    """Tangent plane arguments are linearly dependent."""
