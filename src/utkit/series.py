"""Coefficient-space representations of holomorphic densities and harmonic
Beltrami fields, with the maps between them.

Holomorphic densities live on the disk, as Taylor polynomials
phi(z) = sum c_k z^k.  Harmonic Beltrami fields on the exterior disk are
stored through their Lambda-side coefficients a_n (n >= 2), so that

    mu(z) = -(1/2) (1 - |z|^2)^2 sum_n (n^3 - n) a_n conj(z)^(-n-2)

and the basis field with a single unit coefficient has unit Weil-Petersson
norm by construction.  The mirrored disk-side formula replaces the power
conj(z)^(-n-2) by conj(z)^(n-2).

The transform pair is algebraic on this storage: the differential-at-origin
map sends a_n to the monomial coefficient c_(n-2) = (n^3 - n) a_n, and the
inverse weight map sends it back.  Quadrature enters only for sampled
fields and for cross-checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import as_count, check_finite
from .errors import DomainMismatch, IndexOutOfRange, QuadratureFailure
from .geometry import Domain
from .quadrature import GridFunction, QuadRule

_SUP_RULE = QuadRule(64, 128)


@lru_cache(maxsize=1)
def _sup_weight() -> np.ndarray:
    """(1/2)(1 - |w|^2)^2 on the disk nodes of _SUP_RULE, shared read-only."""
    w = _SUP_RULE.nodes(Domain.UNIT_DISK)
    out = 0.5 * np.square(1.0 - np.abs(w) ** 2)
    out.flags.writeable = False
    return out


def _weighted_sup(c) -> float:
    """Sup over the disk of (1/2)(1 - |w|^2)^2 |sum c_k w^k|: the maximum
    over the nodes of _SUP_RULE, or |c_0| / 2 if larger; the weight
    vanishes at the circle."""
    w = _SUP_RULE.nodes(Domain.UNIT_DISK)
    grid = np.max(_sup_weight() * np.abs(np.polynomial.polynomial.polyval(w, c)))
    return float(max(grid, 0.5 * abs(c[0])))


def _as_coeff_array(values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=complex))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficients must form a nonempty vector")
    return arr


@dataclass(frozen=True)
class HoloCoeffs:
    """Truncated Taylor polynomial on the unit disk."""

    domain: Domain
    coeffs: np.ndarray

    def __post_init__(self):
        if self.domain is not Domain.UNIT_DISK:
            raise DomainMismatch("holomorphic coefficients live on the unit disk")
        object.__setattr__(self, "coeffs", _as_coeff_array(self.coeffs))

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), self.coeffs)

    def sup_norm(self) -> float:
        """Sup over the disk of (1 - |z|^2)^2 |phi(z)|: twice _weighted_sup."""
        return 2.0 * _weighted_sup(self.coeffs)

    def l2_norm_sq(self) -> float:
        k = np.arange(self.coeffs.size)
        terms = np.abs(self.coeffs) ** 2 / ((k + 1.0) * (k + 2.0) * (k + 3.0))
        return float(math.pi / 2.0 * np.sum(terms))

    def l2_norm(self) -> float:
        return math.sqrt(self.l2_norm_sq())


# ---------------------------------------------------------------------------
# harmonic Beltrami fields
# ---------------------------------------------------------------------------

def _weights(n: np.ndarray):
    return n**3 - n


@dataclass
class BeltramiField:
    """Beltrami differential on one side of the circle.

    Harmonic fields store the Lambda-side coefficient vector ``a`` indexed
    by n = 2, 3, ...; sampled fields store a GridFunction.
    """

    domain: Domain
    a: np.ndarray | None = None
    grid: GridFunction | None = None

    def __post_init__(self):
        if self.domain not in (Domain.UNIT_DISK, Domain.EXTERIOR_DISK):
            raise DomainMismatch("Beltrami fields live on a disk side")
        if (self.a is None) == (self.grid is None):
            raise ValueError("exactly one of coefficients or grid required")
        if self.a is not None:
            self.a = _as_coeff_array(self.a)
        elif self.grid.domain is not self.domain:
            raise DomainMismatch("sample grid lives on the wrong domain")

    @classmethod
    def harmonic(cls, domain: Domain, a) -> "BeltramiField":
        return cls(domain, a=a)

    @classmethod
    def sampled(cls, grid: GridFunction) -> "BeltramiField":
        return cls(grid.domain, grid=grid)

    @property
    def is_harmonic(self) -> bool:
        return self.a is not None

    @property
    def n_values(self) -> np.ndarray:
        return np.arange(2, self.a.size + 2)

    def __call__(self, z):
        """mu at the points of z, for a harmonic field: on the disk
        mu_D(w) = -(1/2)(1 - |w|^2)^2 sum (n^3 - n) a_n conj(w)^(n-2) by one
        Horner pass, -3 a_2 at w = 0; outside, (z/conj(z))^2 mu_D(1/z), finite
        at every finite z != 0 (0 is a pole), with |mu| -> 3|a_2| at infinity."""
        if not self.is_harmonic:
            raise DomainMismatch("sampled fields evaluate only on their grid nodes")
        z = np.asarray(z, dtype=complex)
        outside = self.domain is Domain.EXTERIOR_DISK
        w = 1.0 / z if outside else z
        out = -0.5 * np.square(1.0 - np.abs(w) ** 2) * np.polynomial.polynomial.polyval(
            np.conj(w), _weights(self.n_values) * self.a)
        return out * np.square(z / np.conj(z)) if outside else out

    def sup_norm(self) -> float:
        if not self.is_harmonic:
            return float(np.max(np.abs(self.grid.values)))
        # |mu(1/conj(w))| = (1/2)(1-|w|^2)^2 |sum (n^3 - n) a_n w^(n-2)|
        # turns the sup into a disk-side scan; w = 0 carries the limit at
        # infinity (or at the origin for a disk-side field)
        return _weighted_sup(_weights(self.n_values) * self.a)

    def iota_star(self) -> "BeltramiField":
        """Pullback under the holomorphic inversion z -> 1/z (linear in mu)."""
        other = Domain.EXTERIOR_DISK if self.domain is Domain.UNIT_DISK \
            else Domain.UNIT_DISK
        if self.is_harmonic:
            return BeltramiField.harmonic(other, self.a.copy())
        nodes = self.grid.rule.nodes(other)
        # 1/w is the angle-reflected source node, not the aligned one
        flipped = np.roll(self.grid.values[:, ::-1], 1, axis=1)
        vals = flipped * nodes**2 / np.conj(nodes) ** 2
        return BeltramiField.sampled(GridFunction(self.grid.rule, other, vals))

    def scaled(self, factor: complex) -> "BeltramiField":
        if not self.is_harmonic:
            return BeltramiField.sampled(GridFunction(
                self.grid.rule, self.domain, factor * self.grid.values))
        return BeltramiField.harmonic(self.domain, factor * self.a)

def basis_mu(n: int, count: int) -> BeltramiField:
    """Orthonormal harmonic basis element on the exterior disk.

    The single coefficient a_n = sqrt(1 / (2 pi (n^3 - n))) makes the field
    evaluate to -sqrt((n^3 - n) / 8 pi) (1 - |z|^2)^2 conj(z)^(-n-2).
    """
    n, count = operator.index(n), as_count(count, "count")
    if n < 2:
        raise IndexOutOfRange(f"basis index {n} below 2")
    if n > count + 1:
        raise IndexOutOfRange(f"basis index {n} beyond truncation {count}")
    a = np.zeros(count, dtype=complex)
    a[n - 2] = math.sqrt(1.0 / (2.0 * math.pi * (n**3 - n)))
    return BeltramiField.harmonic(Domain.EXTERIOR_DISK, a)


def harmonic_inner(mu: BeltramiField, nu: BeltramiField) -> complex:
    """Weil-Petersson pairing of two harmonic fields in closed form:
    2 pi sum (n^3 - n) a_n conj(b_n)."""
    if not (mu.is_harmonic and nu.is_harmonic):
        raise DomainMismatch("closed-form pairing requires harmonic fields")
    m = min(mu.a.size, nu.a.size)
    n = np.arange(2, m + 2)
    return complex(2.0 * math.pi * np.sum(
        _weights(n) * mu.a[:m] * np.conj(nu.a[:m])))


def lambda_map(phi: HoloCoeffs) -> BeltramiField:
    """Weight map from disk-side holomorphic data to a harmonic field on the
    exterior: mu(z) = -(1/2)(1 - |z|^2)^2 phi(1/conj(z)) conj(z)^-4."""
    n = np.arange(2, phi.coeffs.size + 2)
    return BeltramiField.harmonic(Domain.EXTERIOR_DISK, phi.coeffs / _weights(n))


def d0_beta(mu: BeltramiField, truncation: int | None = None, *,
            method: str = "auto") -> HoloCoeffs:
    """Differential of the boundary map at the origin, as disk coefficients.

    With method "auto", harmonic inputs transform algebraically:
    c_(n-2) = (n^3 - n) a_n.  The quadrature route, which method
    "quadrature" takes for them too, expands the kernel 1/(zeta - z)^4 in
    moments M_k = integral of mu(zeta) zeta^(-k-4) over the exterior and
    is the independent path for sampled fields and cross-checks.  On the
    exterior nodes e^{i theta} / r, zeta^(-k-4) = r^(k+4) e^{-i (k+4) theta},
    so one FFT per ring gives every moment.  A harmonic field is sampled on
    QuadRule() and on QuadRule(80, 128), and the two must agree.

    Moment k reads FFT bin (k + 4) mod M of a rule with M angles, so it is
    exact only while k + 4 < M for a harmonic field, and k + 4 < M / 2 for
    a sampled field with modes of both signs; past that the moment aliases.
    Both rules of a harmonic field have M = 128, and a truncation with
    truncation + 4 >= 128 raises IndexOutOfRange; a sampled field's
    moments are not checked for aliasing.
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    truncation = None if truncation is None else as_count(truncation, "truncation")
    if mu.domain is not Domain.EXTERIOR_DISK:
        raise DomainMismatch("the origin differential acts on exterior fields")
    if mu.is_harmonic and method == "auto":
        c = _weights(mu.n_values) * mu.a
        if truncation is not None:
            c = np.pad(c[:truncation + 1], (0, max(0, truncation + 1 - c.size)))
        return HoloCoeffs(Domain.UNIT_DISK, c)
    n_out = truncation if truncation is not None else 15
    if mu.is_harmonic:
        # sampled once per rule; the finer rule gates the moments, and
        # both alias alike past their 128 angles
        if n_out + 4 >= 128:
            raise IndexOutOfRange(f"moment {n_out} aliases on the rules' 128 angles")
        grids = [GridFunction.from_callable(mu, r, mu.domain)
                 for r in (QuadRule(), QuadRule(80, 128))]
    else:
        grids = [mu.grid]
    k = np.arange(n_out + 1)
    moments = []
    for g in grids:
        m = g.rule.angular_count
        rings = np.fft.fft(check_finite(g.values, "integrand sample"), axis=1)[:, (k + 4) % m]
        moments.append((2.0 * math.pi / m) * np.einsum(
            "i,ik,ik->k", g.rule.radial_weights, g.rule.radii[:, None] ** k, rings))
    gap = np.abs(moments[0] - moments[-1])
    bad = np.nonzero(gap > 1e-8 * (1.0 + np.abs(moments[-1])))[0]
    if bad.size:
        raise QuadratureFailure(f"moment {bad[0]} did not converge: {gap[bad[0]]:.3e}")
    # -(6 / pi) binomial(k + 3, 3) M_k
    return HoloCoeffs(Domain.UNIT_DISK, -(k + 1.0) * (k + 2) * (k + 3) / math.pi * moments[-1])
