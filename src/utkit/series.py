"""Coefficient-space representations of holomorphic densities and harmonic
Beltrami fields, with the maps between them.

Two coefficient conventions live here.  A disk-side holomorphic function is
a Taylor polynomial phi(z) = sum c_k z^k; an exterior one is the Laurent
tail phi(z) = sum c_k z^(-k-4), the natural decay class for quadratic
densities at infinity.  Harmonic Beltrami fields on the exterior disk are
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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainMismatch, IndexOutOfRange, IoFailure, QuadratureFailure
from .geometry import Domain
from .quadrature import GridFunction, QuadRule, integrate_disk, integrate_exterior

_SUP_RULE = QuadRule(64, 128)


def _as_coeff_array(values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=complex))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficients must form a nonempty vector")
    return arr


def _coeffs_to_json(domain: Domain, coeffs: np.ndarray, truncation: int) -> str:
    return json.dumps({
        "domain": domain.value,
        "truncation": truncation,
        "re": [float(v) for v in coeffs.real],
        "im": [float(v) for v in coeffs.imag],
    })


def _coeffs_from_json(text: str, *, size_offset: int):
    """(domain, coefficients) of a blob whose truncation is the vector
    size minus ``size_offset``."""
    try:
        blob = json.loads(text)
        domain = Domain(blob["domain"])
        re = np.asarray(blob["re"], dtype=float)
        im = np.asarray(blob["im"], dtype=float)
        truncation = int(blob["truncation"])
    except (KeyError, ValueError, TypeError) as exc:
        raise IoFailure(f"malformed coefficient blob: {exc}") from exc
    if re.shape != im.shape or re.ndim != 1:
        raise IoFailure("coefficient blob arrays disagree")
    if truncation != re.size - size_offset:
        raise IoFailure("coefficient blob truncation mismatch")
    return domain, re + 1j * im


@dataclass(frozen=True)
class HoloCoeffs:
    """Truncated holomorphic function in one of the two power conventions."""

    domain: Domain
    coeffs: np.ndarray

    def __post_init__(self):
        if self.domain not in (Domain.UNIT_DISK, Domain.EXTERIOR_DISK):
            raise DomainMismatch("holomorphic coefficients live on a disk side")
        object.__setattr__(self, "coeffs", _as_coeff_array(self.coeffs))

    @property
    def truncation(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if self.domain is Domain.UNIT_DISK:
            return np.polynomial.polynomial.polyval(z, self.coeffs)
        inv = 1.0 / z
        return np.polynomial.polynomial.polyval(inv, self.coeffs) * inv**4

    def derivative(self) -> "HoloCoeffs":
        if self.domain is Domain.UNIT_DISK:
            if self.coeffs.size == 1:
                return HoloCoeffs(self.domain, np.zeros(1, dtype=complex))
            return HoloCoeffs(self.domain, np.polynomial.polynomial.polyder(self.coeffs))
        # d/dz z^(-k-4) = (-k-4) z^(-(k+1)-4)
        out = np.zeros(self.coeffs.size + 1, dtype=complex)
        k = np.arange(self.coeffs.size)
        out[1:] = (-(k + 4.0)) * self.coeffs
        return HoloCoeffs(self.domain, out)

    def weighted_values(self, z) -> np.ndarray:
        """(1 - |z|^2)^2 |phi(z)|, the integrand of the weighted sup."""
        z = np.asarray(z, dtype=complex)
        return np.square(1.0 - np.abs(z) ** 2) * np.abs(self(z))

    def sup_norm(self) -> float:
        """Weighted sup-norm over the function's side of the circle.

        Grid maximum plus the analytic limit at the far boundary: zero at
        the circle for both conventions, |c_0| at infinity for the exterior
        convention.
        """
        w = _SUP_RULE.nodes(self.domain)
        grid = float(np.max(self.weighted_values(w)))
        if self.domain is Domain.EXTERIOR_DISK:
            return max(grid, abs(self.coeffs[0]))
        center = float(abs(self(np.zeros(1, dtype=complex))[0]))
        return max(grid, center)

    def l2_norm_sq(self) -> float:
        k = np.arange(self.coeffs.size)
        terms = np.abs(self.coeffs) ** 2 / ((k + 1.0) * (k + 2.0) * (k + 3.0))
        return float(math.pi / 2.0 * np.sum(terms))

    def l2_norm(self) -> float:
        return math.sqrt(self.l2_norm_sq())

    def to_json(self) -> str:
        return _coeffs_to_json(self.domain, self.coeffs, self.truncation)

    @classmethod
    def from_json(cls, text: str) -> "HoloCoeffs":
        return cls(*_coeffs_from_json(text, size_offset=1))


def holo_quadratic_l2_quadrature(phi: HoloCoeffs, rule: QuadRule | None = None) -> float:
    """Quadrature value of the weighted L^2 norm squared, for cross-checks."""
    rule = rule or QuadRule()
    weight = lambda z: np.abs(phi(z)) ** 2 * np.square(1.0 - np.abs(z) ** 2) / 4.0
    if phi.domain is Domain.UNIT_DISK:
        return float(integrate_disk(weight, rule).real)
    f = lambda z: np.abs(phi(z)) ** 2 * np.square(np.abs(z) ** 2 - 1.0) / 4.0
    return float(integrate_exterior(f, rule).real)


# ---------------------------------------------------------------------------
# harmonic Beltrami fields
# ---------------------------------------------------------------------------

def _weights(n: np.ndarray):
    return n**3 - n


@dataclass
class BeltramiField:
    """Beltrami differential on one side of the circle.

    Harmonic fields store the Lambda-side coefficient vector ``a`` indexed
    by n = 2, 3, ...; sampled fields store a GridFunction.  The sup-norm is
    computed on demand and cached.
    """

    domain: Domain
    a: np.ndarray | None = None
    grid: GridFunction | None = None
    _sup: float | None = field(default=None, repr=False)

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
    def truncation(self) -> int:
        """Number of stored basis indices (n runs from 2 to truncation+1)."""
        if not self.is_harmonic:
            raise DomainMismatch("sampled fields carry no coefficient truncation")
        return self.a.size

    @property
    def n_values(self) -> np.ndarray:
        return np.arange(2, self.a.size + 2)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if not self.is_harmonic:
            raise DomainMismatch("sampled fields evaluate only on their grid nodes")
        n = self.n_values
        zc = np.conj(z)[..., None]
        powers = zc ** (-(n + 2)) if self.domain is Domain.EXTERIOR_DISK \
            else zc ** (n - 2)
        series = np.sum(_weights(n) * self.a * powers, axis=-1)
        return -0.5 * np.square(1.0 - np.abs(z) ** 2) * series

    def coefficient_profile(self, w):
        """sum (n^3 - n) a_n w^(n-2), the polynomial behind the field.

        The field transported through inversion is
        -(1/2)(1-|w|^2)^2 times this profile with w^(n-2) -> r^(n-2) e^{i(n+2)theta}.
        """
        w = np.asarray(w, dtype=complex)
        c = _weights(self.n_values) * self.a
        return np.polynomial.polynomial.polyval(w, c)

    def sup_norm(self) -> float:
        if self._sup is None:
            if self.is_harmonic:
                # |mu(1/conj(w))| = (1/2)(1-|w|^2)^2 |profile(w)| turns the
                # sup into a disk-side scan; w = 0 carries the limit at
                # infinity (or at the origin for a disk-side field)
                w = _SUP_RULE.nodes(Domain.UNIT_DISK)
                vals = 0.5 * np.square(1.0 - np.abs(w) ** 2) * np.abs(
                    self.coefficient_profile(w))
                center = 0.5 * abs(self.coefficient_profile(np.zeros(1))[0])
                self._sup = float(max(np.max(vals), center))
            else:
                self._sup = float(np.max(np.abs(self.grid.values)))
        return self._sup

    def l2_norm_sq(self) -> float:
        if not self.is_harmonic:
            raise DomainMismatch("closed-form norm requires a harmonic field")
        n = self.n_values
        return float(2.0 * math.pi * np.sum(_weights(n) * np.abs(self.a) ** 2))

    def reflect(self) -> "BeltramiField":
        """Mirror through the circle: conj(mu(1/conj(z))) z^2 / conj(z)^2."""
        other = Domain.EXTERIOR_DISK if self.domain is Domain.UNIT_DISK \
            else Domain.UNIT_DISK
        if self.is_harmonic:
            return BeltramiField.harmonic(other, np.conj(self.a))
        nodes = self.grid.rule.nodes(other)
        vals = np.conj(self.grid.values) * nodes**2 / np.conj(nodes) ** 2
        return BeltramiField.sampled(GridFunction(self.grid.rule, other, vals))

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

    def to_json(self) -> str:
        if not self.is_harmonic:
            raise DomainMismatch("only harmonic fields serialize to coefficients")
        return _coeffs_to_json(self.domain, self.a, self.truncation)

    @classmethod
    def from_json(cls, text: str) -> "BeltramiField":
        return cls.harmonic(*_coeffs_from_json(text, size_offset=0))


def basis_mu(n: int, count: int) -> BeltramiField:
    """Orthonormal harmonic basis element on the exterior disk.

    The single coefficient a_n = sqrt(1 / (2 pi (n^3 - n))) makes the field
    evaluate to -sqrt((n^3 - n) / 8 pi) (1 - |z|^2)^2 conj(z)^(-n-2).
    """
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
    if phi.domain is not Domain.UNIT_DISK:
        raise DomainMismatch("the weight map expects disk-side coefficients")
    n = np.arange(2, phi.coeffs.size + 2)
    return BeltramiField.harmonic(Domain.EXTERIOR_DISK, phi.coeffs / _weights(n))


def d0_beta(mu: BeltramiField, truncation: int | None = None, *,
            method: str = "auto", rule: QuadRule | None = None) -> HoloCoeffs:
    """Differential of the boundary map at the origin, as disk coefficients.

    Harmonic inputs transform algebraically: c_(n-2) = (n^3 - n) a_n.  The
    quadrature route expands the kernel 1/(zeta - z)^4 in moments
    M_k = integral of mu(zeta) zeta^(-k-4) over the exterior and is the
    independent path for sampled fields and cross-checks.
    """
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if mu.domain is not Domain.EXTERIOR_DISK:
        raise DomainMismatch("the origin differential acts on exterior fields")
    if mu.is_harmonic and method in ("auto", "closed"):
        c = _weights(mu.n_values) * mu.a
        if truncation is not None:
            out = np.zeros(truncation + 1, dtype=complex)
            m = min(out.size, c.size)
            out[:m] = c[:m]
            c = out
        return HoloCoeffs(Domain.UNIT_DISK, c)
    if method == "closed":
        raise DomainMismatch("closed form needs a harmonic field")
    n_out = truncation if truncation is not None else 15
    if mu.is_harmonic:
        # sampled once per rule; the finer rule gates the moments
        rule = rule or QuadRule()
        grids = [GridFunction.from_callable(mu, r, mu.domain) for r in (
            rule, QuadRule(rule.radial_nodes + 16, rule.angular_count))]
    else:
        grids = [mu.grid]
    nodes = [g.nodes() for g in grids]
    coeffs = np.empty(n_out + 1, dtype=complex)
    for k in range(n_out + 1):
        mk = [integrate_exterior(GridFunction(g.rule, g.domain,
                                              g.values * z ** (-k - 4.0)))
              for g, z in zip(grids, nodes)]
        if abs(mk[0] - mk[-1]) > 1e-8 * (1.0 + abs(mk[-1])):
            raise QuadratureFailure(
                f"moment {k} did not converge: {abs(mk[0] - mk[-1]):.3e}")
        coeffs[k] = -(6.0 / math.pi) * math.comb(k + 3, 3) * mk[-1]
    return HoloCoeffs(Domain.UNIT_DISK, coeffs)


def project_P(mu: BeltramiField, count: int, *,
              rule: QuadRule | None = None) -> BeltramiField:
    """Orthogonal projection onto harmonic fields, as the composition of the
    origin differential with the weight map."""
    phi = d0_beta(mu, truncation=count - 1, rule=rule)
    return lambda_map(phi)


# ---------------------------------------------------------------------------
# boundary vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierVectorField:
    """Truncated Fourier coefficients of a circle vector field u(theta).

    ``coeffs`` has length 2 N + 1, index n + N for mode n; the zero mode is
    unused and must vanish.  With ``real=True`` the conjugate symmetry
    c_(-n) = conj(c_n) is enforced at construction to 1e-14.
    """

    coeffs: np.ndarray
    real: bool = True

    def __post_init__(self):
        arr = _as_coeff_array(self.coeffs)
        if arr.size % 2 == 0:
            raise ValueError("coefficient vector must have odd length 2N+1")
        object.__setattr__(self, "coeffs", arr)
        if abs(arr[arr.size // 2]) != 0.0:
            raise ValueError("the zero mode of a vector field must vanish")
        if self.real:
            flipped = np.conj(arr[::-1])
            if np.max(np.abs(arr - flipped)) > 1e-14:
                raise ValueError("reality requires c_(-n) = conj(c_n)")

    @property
    def n_max(self) -> int:
        return self.coeffs.size // 2

    def mode(self, n: int) -> complex:
        if abs(n) > self.n_max:
            raise IndexOutOfRange(f"mode {n} beyond truncation {self.n_max}")
        return complex(self.coeffs[n + self.n_max])

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        n = np.arange(-self.n_max, self.n_max + 1)
        return np.sum(self.coeffs * np.exp(1j * np.outer(theta, n)), axis=-1)

    @classmethod
    def from_modes(cls, modes: dict, n_max: int, real: bool = True):
        arr = np.zeros(2 * n_max + 1, dtype=complex)
        for n, c in modes.items():
            if n == 0 or abs(n) > n_max:
                raise IndexOutOfRange(f"mode {n} not storable at truncation {n_max}")
            arr[n + n_max] = c
            if real:
                arr[-n + n_max] = np.conj(c)
        return cls(arr, real)


def u_to_holo(u: FourierVectorField) -> HoloCoeffs:
    """Positive-frequency part as a disk vector field: i sum c_n z^(n+1)."""
    out = np.zeros(u.n_max + 2, dtype=complex)
    for n in range(1, u.n_max + 1):
        out[n + 1] = 1j * u.mode(n)
    return HoloCoeffs(Domain.UNIT_DISK, out)


def u_to_quadratic(u: FourierVectorField) -> HoloCoeffs:
    """Third derivative of the positive-frequency part, a quadratic density:
    i sum (n^3 - n) c_n z^(n-2)."""
    size = max(u.n_max - 1, 1)
    out = np.zeros(size, dtype=complex)
    for n in range(2, u.n_max + 1):
        out[n - 2] = 1j * (n**3 - n) * u.mode(n)
    return HoloCoeffs(Domain.UNIT_DISK, out)
