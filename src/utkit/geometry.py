"""Hyperbolic geometry of the disk and its exterior.

The unit circle splits the sphere into the unit disk and its exterior; both
carry the complete hyperbolic metric of curvature -1/2 normalization used
throughout this package, with density 4/(1-|z|^2)^2.  The exterior domain
includes the point at infinity, which is represented by a non-finite
complex value.

Key objects:

* ``MoebiusMap``: circle-preserving fractional linear maps in (a, b) form,
  z -> (a z + b)/(conj(b) z + conj(a)) with |a|^2 - |b|^2 = 1.
* ``point_pair_invariant``: u(z, w) = |z-w|^2 / ((1-|z|^2)(1-|w|^2)), the
  cross-ratio invariant the resolvent kernel is a function of.
* ``resolvent_kernel``: G = ((2u+1)/(2 pi)) log((u+1)/u) - 1/pi, evaluated
  by log1p near the diagonal and by a series of positive terms in
  1/(2u+1)^2 from u = 2 on, so both regimes keep about 13 digits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BoundaryPoint, CriticalPoint, DiagonalSingularity, DomainMismatch

INF = complex(math.inf, 0.0)

_PSU_TOL = 1e-12


class Domain(Enum):
    UNIT_DISK = "UnitDisk"
    EXTERIOR_DISK = "ExteriorDisk"


def is_infinity(z: complex) -> bool:
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


@dataclass(frozen=True)
class DiskPoint:
    """A point tagged with the domain it lives in.

    The exterior domain admits the point at infinity; the disk does not.
    Construction validates strict membership: boundary points raise
    ``BoundaryPoint`` and points on the wrong side raise ``DomainMismatch``.
    """

    value: complex
    domain: Domain

    def __post_init__(self):
        z = complex(self.value)
        object.__setattr__(self, "value", z)
        if is_infinity(z):
            if self.domain is not Domain.EXTERIOR_DISK:
                raise DomainMismatch("infinity belongs to the exterior domain only")
            return
        r = abs(z)
        if r == 1.0:
            raise BoundaryPoint(f"{z} lies on the unit circle")
        if self.domain is Domain.UNIT_DISK and r > 1.0:
            raise DomainMismatch(f"{z} is outside the unit disk")
        if self.domain is Domain.EXTERIOR_DISK and r < 1.0:
            raise DomainMismatch(f"{z} is inside the unit disk")

    @classmethod
    def disk(cls, z) -> "DiskPoint":
        return cls(complex(z), Domain.UNIT_DISK)

    @classmethod
    def exterior(cls, z) -> "DiskPoint":
        return cls(complex(z), Domain.EXTERIOR_DISK)

    @classmethod
    def infinity(cls) -> "DiskPoint":
        return cls(INF, Domain.EXTERIOR_DISK)

    @property
    def is_infinity(self) -> bool:
        return is_infinity(self.value)


def hyperbolic_density(p: DiskPoint) -> float:
    """Density of the hyperbolic area form at an interior point.

    4/(1-|z|^2)^2 on the disk and its exterior (the limit at infinity is 0).
    """
    if p.is_infinity:
        return 0.0
    d = 1.0 - abs(p.value) ** 2
    return 4.0 / (d * d)


def point_pair_invariant(z: DiskPoint, w: DiskPoint) -> float:
    """u(z, w) = |z-w|^2 / ((1-|z|^2)(1-|w|^2)).

    Invariant under simultaneous application of any ``MoebiusMap`` and under
    the inversion z -> 1/conj(z) applied to both points.  With one argument
    at infinity the limit 1/(|w|^2 - 1) is returned.
    """
    if z.domain is not w.domain:
        raise DomainMismatch("points must share a domain")
    if z.is_infinity and w.is_infinity:
        raise DiagonalSingularity("both points at infinity")
    if z.is_infinity or w.is_infinity:
        finite = w if z.is_infinity else z
        return 1.0 / (abs(finite.value) ** 2 - 1.0)
    a = complex(z.value)
    b = complex(w.value)
    num = abs(a - b) ** 2
    den = (1.0 - abs(a) ** 2) * (1.0 - abs(b) ** 2)
    return num / den


def u_array(z, w):
    """Vectorized invariant for same-side complex samples (no validation)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    num = np.abs(z - w) ** 2
    den = (1.0 - np.abs(z) ** 2) * (1.0 - np.abs(w) ** 2)
    return num / den


# G = (atanh(t)/t - 1)/pi with t = 1/(2u+1), so for u >= 2 (t^2 <= 1/25)
# G = (1/pi) sum_k t^(2k)/(2k+1): positive terms, no cancellation, and
# eleven of them reach double precision.  Below the cut the log form
# cancels by at most a factor of 80, which keeps it within 5e-14
_SERIES_CUT = 2.0
_SERIES_COEFFS = 1.0 / (2.0 * np.arange(1, 12) + 1.0)


def kernel_value(u: float) -> float:
    """Resolvent kernel as a function of the invariant u > 0."""
    return float(kernel_value_array(u))


def kernel_value_array(u):
    """Resolvent kernel G(u) elementwise, to 5e-14 relative; entries with
    u <= 0 raise."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise DiagonalSingularity("kernel evaluated at u <= 0")
    out = np.empty_like(u)
    # in place: callers pass blocks of 10^4 to 10^6 values
    far = u >= _SERIES_CUT
    t2 = u[far]
    t2 += 0.5
    np.divide(0.5, t2, out=t2)
    t2 *= t2
    acc = np.full_like(t2, _SERIES_COEFFS[-1])
    for c in _SERIES_COEFFS[-2::-1]:
        acc *= t2
        acc += c
    acc *= t2
    acc /= math.pi
    out[far] = acc
    un = u[~far]
    ell = np.log1p(un)
    ell -= np.log(un)
    un *= 2.0
    un += 1.0
    un *= ell
    un /= 2.0 * math.pi
    un -= 1.0 / math.pi
    out[~far] = un
    return out


def resolvent_kernel(z: DiskPoint, w: DiskPoint) -> float:
    """G(z, w), positive and symmetric, singular on the diagonal."""
    u = point_pair_invariant(z, w)
    if u == 0.0:
        raise DiagonalSingularity(f"kernel evaluated on the diagonal at {z.value}")
    return kernel_value(u)


class MoebiusMap:
    """Circle-preserving Moebius map z -> (a z + b)/(conj(b) z + conj(a)).

    The pair is normalized so |a|^2 - |b|^2 = 1; construction rejects pairs
    that are not strictly normalizable.  Instances are immutable.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex):
        a = complex(a)
        b = complex(b)
        d = abs(a) ** 2 - abs(b) ** 2
        if not (d > 0.0 and math.isfinite(d)):
            raise DomainMismatch("pair does not define a circle-preserving map")
        s = math.sqrt(d)
        object.__setattr__(self, "a", a / s)
        object.__setattr__(self, "b", b / s)
        if abs(abs(self.a) ** 2 - abs(self.b) ** 2 - 1.0) > _PSU_TOL:
            raise DomainMismatch("normalization lost too much precision")

    def __setattr__(self, *_):
        raise AttributeError("MoebiusMap is immutable")

    def __repr__(self):
        return f"MoebiusMap(a={self.a!r}, b={self.b!r})"

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0)

    @classmethod
    def rotation(cls, phi: float) -> "MoebiusMap":
        # (a/conj(a)) z = e^{i phi} z
        return cls(cmath.exp(0.5j * phi), 0.0)

    @classmethod
    def sigma_center(cls, z0: complex, variant: str = "center") -> "MoebiusMap":
        """Recentering maps used throughout the quadrature paths.

        variant "center" requires |z0| < 1 and returns w -> (w - z0)/(1 - conj(z0) w),
        which carries z0 to 0.  variant "fiber" requires |w0| > 1 (or infinity)
        and returns the map sending w0 -> infinity, 1 -> 1, 1/conj(w0) -> 0.
        """
        z0 = complex(z0)
        if variant == "center":
            if abs(z0) >= 1.0:
                raise DomainMismatch("center variant needs an interior point")
            s = math.sqrt(1.0 - abs(z0) ** 2)
            return cls(1.0 / s, -z0 / s)
        if variant == "fiber":
            if is_infinity(z0):
                return cls.identity()
            if abs(z0) <= 1.0:
                raise DomainMismatch("fiber variant needs an exterior point")
            one_minus = 1.0 - z0
            if one_minus == 0:
                raise DomainMismatch("fiber variant is singular at w0 = 1")
            e = one_minus / abs(one_minus)
            s = 1.0 / math.sqrt(abs(z0) ** 2 - 1.0)
            return cls(-e * z0.conjugate() * s, e * s)
        raise ValueError(f"unknown sigma_center variant {variant!r}")

    @classmethod
    def from_matrix(cls, m, tol: float = 1e-8) -> "MoebiusMap":
        """Project a GL(2, C) matrix onto (a, b) form.

        The matrix must be circle preserving up to ``tol`` after determinant
        normalization; the symmetrized entries are renormalized exactly.
        """
        m = np.asarray(m, dtype=complex)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det == 0:
            raise DomainMismatch("singular matrix")
        m = m / np.sqrt(det)
        a = 0.5 * (m[0, 0] + np.conj(m[1, 1]))
        b = 0.5 * (m[0, 1] + np.conj(m[1, 0]))
        resid = max(
            abs(m[0, 0] - np.conj(m[1, 1])),
            abs(m[0, 1] - np.conj(m[1, 0])),
        )
        if resid > tol:
            raise DomainMismatch(f"matrix is not circle preserving (residual {resid:.2e})")
        return cls(complex(a), complex(b))

    @staticmethod
    def _to_zero_one_inf(z1, z2, z3):
        # matrix of the map sending (z1, z2, z3) to (0, 1, infinity)
        if is_infinity(z1):
            return np.array([[0.0, z2 - z3], [1.0, -z3]], dtype=complex)
        if is_infinity(z2):
            return np.array([[1.0, -z1], [1.0, -z3]], dtype=complex)
        if is_infinity(z3):
            return np.array([[1.0, -z1], [0.0, z2 - z1]], dtype=complex)
        return np.array(
            [[z2 - z3, -z1 * (z2 - z3)], [z2 - z1, -z3 * (z2 - z1)]], dtype=complex
        )

    @classmethod
    def through_points(cls, sources, targets, tol: float = 1e-8) -> "MoebiusMap":
        """The unique Moebius map with the three given point conditions.

        Both triples may contain infinity.  The result must preserve the unit
        circle, which holds whenever both triples lie on it.
        """
        ms = cls._to_zero_one_inf(*[complex(z) for z in sources])
        mt = cls._to_zero_one_inf(*[complex(z) for z in targets])
        inv_t = np.array(
            [[mt[1, 1], -mt[0, 1]], [-mt[1, 0], mt[0, 0]]], dtype=complex
        )
        return cls.from_matrix(inv_t @ ms, tol=tol)

    # -- the group structure --------------------------------------------------

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.a.conjugate(), -self.b)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        a = self.a * other.a + self.b * other.b.conjugate()
        b = self.a * other.b + self.b * other.a.conjugate()
        return MoebiusMap(a, b)

    # -- evaluation ------------------------------------------------------------

    def apply(self, z):
        """Evaluate at a complex number, ndarray, or DiskPoint.

        Infinity maps to a/conj(b); the pole -conj(a)/conj(b) maps to
        infinity.  Arrays are handled entrywise.
        """
        if isinstance(z, DiskPoint):
            return DiskPoint(self.apply(z.value), z.domain)
        if isinstance(z, np.ndarray):
            num = self.a * z + self.b
            den = np.conj(self.b) * z + np.conj(self.a)
            bad = ~np.isfinite(z)
            if np.any(bad):
                num = np.where(bad, self.a if self.b != 0 else np.inf, num)
                den = np.where(bad, np.conj(self.b) if self.b != 0 else 1.0, den)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = num / den
            out = np.where(den == 0, INF, out)
            return out
        z = complex(z)
        if is_infinity(z):
            if self.b == 0:
                return INF
            return self.a / self.b.conjugate()
        den = self.b.conjugate() * z + self.a.conjugate()
        if den == 0:
            return INF
        return (self.a * z + self.b) / den

    def __call__(self, z):
        return self.apply(z)

    def derivative(self, z):
        """Complex derivative 1/(conj(b) z + conj(a))^2."""
        if isinstance(z, DiskPoint):
            z = z.value
        if isinstance(z, np.ndarray):
            den = np.conj(self.b) * z + np.conj(self.a)
            return 1.0 / np.square(den)
        z = complex(z)
        if is_infinity(z):
            if self.b == 0:
                return 1.0 / self.a.conjugate() ** 2
            return 0.0
        den = self.b.conjugate() * z + self.a.conjugate()
        if den == 0:
            raise CriticalPoint("derivative requested at the pole of the map")
        return 1.0 / (den * den)
