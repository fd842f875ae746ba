"""Polar quadrature on the disk and its exterior, and the operators that
act on a grid function one angular mode at a time: the resolvent G and
the Cauchy and Beurling transforms P and H.

The base rule crosses a Gauss rule for the radial measure r dr on (0, 1)
with uniform angles, so monomials r^a e^{i m theta} integrate exactly up to
the rule's order in both factors.  Exterior integrals are pulled back to the
disk through z -> 1/conj(z); the hyperbolic area form is invariant under
that inversion, which is why one rule serves both sides.  Every callable,
here and in ``apply_resolvent``, is sampled by ``GridFunction.from_callable``.

Kernels handed to ``integrate_double``, singular on the diagonal, use one
windowed rule: the node sum is weighted by a C^2 window that vanishes at
the outer node z, and the complementary near-diagonal part is integrated by
a local polar patch around z whose rays stop at the unit circle: 16 rays
of 16 nodes each, one Gauss rule in tau with radius s = delta tau^3, which
resolves the logarithmic singularity at z and the window's edge alike.  The
rays are measured from the direction of z, so the patch rule commutes with
rotations, and the window and the patch are built once per ring of outer
nodes and rotated along the ring.

Operators that act on one angular mode at a time take a grid function
through ``_mode_profiles``: one FFT per ring splits it into modes, and each
mode's radial profile, the polynomial through the rule's radii, is taken on
the mode table's radial rule, whose panel that holds abs(z) is cut at
abs(z), where the mode kernels have their kink.  ``apply_resolvent`` sums
the profiles against the closed-form Ghat_p of ``modes``, a callable's
through its samples on the nodes of its rule.  On profiles the
rule's radii reproduce (the products of basis fields, constants) the value
is exact to rounding up to abs(z) = 1 - 3.5e-4, the table's outermost
radius.  ``cauchy_transform`` and ``beurling_transform`` sum the same
profiles against the Cauchy kernel's radial factors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import check_finite, gauss_legendre_01, pairwise_dot
from .errors import DomainMismatch, NonFiniteValue, QuadratureFailure
from .geometry import DiskPoint, Domain
from .modes import mode_kernel, mode_table

TWO_PI = 2.0 * math.pi


@lru_cache(maxsize=32)
def gauss_radial(n: int):
    """Gauss rule for the measure r dr on (0, 1).

    Golub-Welsch on the Jacobi matrix of the weight (1 + x) on (-1, 1),
    mapped to (0, 1).  Exact for integrands r^a with a <= 2n - 1, odd powers
    included, which a Legendre rule in r^2 cannot deliver.  The arrays are
    shared read-only by every call with the same n.
    """
    k = np.arange(n, dtype=float)
    diag = 1.0 / ((2.0 * k + 1.0) * (2.0 * k + 3.0))
    koff = np.arange(1, n, dtype=float)
    off = np.sqrt(koff * (koff + 1.0)) / (2.0 * koff + 1.0)
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x, vecs = np.linalg.eigh(jacobi)
    w = 2.0 * vecs[0] ** 2
    r, w = 0.5 * (x + 1.0), 0.25 * w
    r.flags.writeable = w.flags.writeable = False
    return r, w


@dataclass(frozen=True)
class QuadRule:
    """Product rule: radial Gauss rule for r dr times uniform angles.

    The counts are integers, stored as int; ``angular_count`` must be even
    and at least 8.  Node weights sum to pi, the area of the unit disk.
    """

    radial_nodes: int = 64
    angular_count: int = 128

    def __post_init__(self):
        object.__setattr__(self, "radial_nodes", operator.index(self.radial_nodes))
        object.__setattr__(self, "angular_count", operator.index(self.angular_count))
        if self.radial_nodes < 2:
            raise ValueError("need at least two radial nodes")
        if self.angular_count < 8 or self.angular_count % 2:
            raise ValueError("angular count must be even and at least 8")

    @property
    def radii(self):
        return gauss_radial(self.radial_nodes)[0]

    @property
    def radial_weights(self):
        """Weights against r dr: sum(w * f(r)) ~ integral f(r) r dr."""
        return gauss_radial(self.radial_nodes)[1]

    @property
    def angles(self):
        return TWO_PI * np.arange(self.angular_count) / self.angular_count

    def nodes(self, domain: Domain = Domain.UNIT_DISK):
        """Complex nodes, shape (radial_nodes, angular_count).

        Exterior nodes are the inversions 1/conj(disk nodes), so the two
        grids are aligned index by index.  The array is built on first use
        and shared by every later call with an equal rule and domain, so it
        is read-only: callers that need to write take a copy.
        """
        if domain is Domain.UNIT_DISK or domain is Domain.EXTERIOR_DISK:
            return _polar_nodes(self, domain)
        raise DomainMismatch("polar rules cover the disk and its exterior")

    def node_weights(self):
        return np.broadcast_to(
            (TWO_PI / self.angular_count) * self.radial_weights[:, None],
            (self.radial_nodes, self.angular_count),
        )

    @property
    def patch_radius(self) -> float:
        """Radius of integrate_double's near-diagonal patch: twice the
        larger of the radial and angular node spacings."""
        return 2.0 * max(1.0 / (self.radial_nodes + 1), TWO_PI / self.angular_count)


@lru_cache(maxsize=16)
def _polar_nodes(rule: QuadRule, domain: Domain) -> np.ndarray:
    if domain is Domain.EXTERIOR_DISK:
        out = 1.0 / np.conj(_polar_nodes(rule, Domain.UNIT_DISK))
    else:
        out = rule.radii[:, None] * np.exp(1j * rule.angles)[None, :]
    out.flags.writeable = False
    return out


@dataclass
class GridFunction:
    """Samples of a function on the nodes of a rule, tagged with a domain."""

    rule: QuadRule
    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        shape = (self.rule.radial_nodes, self.rule.angular_count)
        if vals.shape != shape:
            raise DomainMismatch(f"values shape {vals.shape} does not match rule {shape}")
        self.values = vals

    @classmethod
    def from_callable(cls, f, rule: QuadRule, domain: Domain) -> "GridFunction":
        """Samples of a vectorized callable on the nodes of ``rule``; a result
        of another shape, a constant say, is broadcast to the nodes'."""
        z = rule.nodes(domain)
        vals = np.asarray(f(z), dtype=complex)
        if vals.shape != z.shape:
            vals = np.broadcast_to(vals, z.shape).copy()
        return cls(rule, domain, vals)


def _area_density(w):
    """Density 4 / (1 - abs(w)^2)^2 of the hyperbolic area form at the disk
    points w, which the inversion w -> 1/conj(w) keeps."""
    return 4.0 / np.square(1.0 - np.abs(w) ** 2)


def _integrate(f, rule: QuadRule | None, domain: Domain) -> complex:
    """Euclidean integral over ``domain`` of a callable or GridFunction, as
    the sum over the disk nodes of weight x sample, on the exterior pulled
    back through w -> 1/conj(w) with the density abs(w)^-4."""
    if not isinstance(f, GridFunction):
        f = GridFunction.from_callable(f, rule or QuadRule(), domain)
    elif f.domain is not domain:
        raise DomainMismatch("grid function lives on the wrong domain")
    w = f.rule.node_weights()
    if domain is Domain.EXTERIOR_DISK:
        w = w * (1.0 / np.abs(f.rule.nodes(Domain.UNIT_DISK)) ** 4)
    return pairwise_dot(w, f.values)


def integrate_disk(f, rule: QuadRule | None = None) -> complex:
    """Euclidean integral over the unit disk of a callable or GridFunction,
    sampled on ``rule`` (default ``QuadRule()``); the tests' reference."""
    return _integrate(f, rule, Domain.UNIT_DISK)


def integrate_exterior(f, rule: QuadRule | None = None) -> complex:
    """Euclidean integral over the exterior of the circle, pulled back to
    the disk; the tests' reference.

    Convergence requires |f| = O(|z|^-4) at infinity; the pullback weight
    |w|^-4 makes that explicit.  A hyperbolic-measure integral multiplies
    the integrand by 4 / (1 - |z|^2)^2 first.
    """
    return _integrate(f, rule, Domain.EXTERIOR_DISK)


# ---------------------------------------------------------------------------
# mode by mode: the resolvent G and the Cauchy and Beurling transforms
# ---------------------------------------------------------------------------

def _interpolation(x, radii, lam):
    """Rows that take values at ``radii`` to the polynomial through them at
    the points x, by the second barycentric formula with weights ``lam``
    (Berrut and Trefethen, SIAM Rev. 46, 2004)."""
    d = x[:, None] - radii
    # a point on a radius takes that radius' value to rounding
    q = lam / np.where(d == 0.0, 1e-300, d)
    return q / np.sum(q, axis=1, keepdims=True)


@lru_cache(maxsize=8)
def _radial_maps(radial_nodes: int):
    """The radii of ``gauss_radial(radial_nodes)``, their barycentric
    weights, and the rows that take values at the radii to the polynomial
    through them at the mode table's nodes; shared read-only."""
    radii = gauss_radial(radial_nodes)[0]
    # each difference scaled by 4, the inverse capacity of [0, 1], keeps
    # the products between under- and overflow
    lam = 1.0 / np.prod(4.0 * (radii[:, None] - radii) + np.eye(radial_nodes), axis=1)
    to_nodes = _interpolation(mode_table(0).s, radii, lam)
    lam.flags.writeable = to_nodes.flags.writeable = False
    return radii, lam, to_nodes


def _mode_profiles(f: GridFunction, r: float):
    """(modes n, nodes s, weights ds, profiles on s, profiles at min(r, 1))
    of a disk grid function: one FFT per ring, the modes below 64 eps sup
    abs(f) in every ring dropped, and each mode's profile, the polynomial
    through the rule's radii, taken on the mode table's radial rule with
    the panel that holds min(r, 1) cut there (ds is 0 on the panel's own
    nodes).  Non-finite samples raise NonFiniteValue."""
    values = check_finite(f.values, "integrand sample")
    m = f.rule.angular_count
    rings = np.fft.fft(values, axis=1) / m
    # G > 0 and G 1 = 1 bound abs(Ghat_p) by Ghat_0, and the Cauchy
    # kernels of a mode by 2, so a dropped mode moves a value by about
    # its own size at most
    keep = np.nonzero(np.max(np.abs(rings), axis=0)
                      > 64.0 * np.finfo(float).eps * np.max(np.abs(values)))[0]
    radii, lam, to_nodes = _radial_maps(f.rule.radial_nodes)
    table = mode_table(m // 2)
    # the table's panel that holds r, cut at r where the kernels have a kink
    r = min(r, 1.0)
    panel = np.searchsorted(table.ends, r, side="right") - 1
    ends = table.ends[panel:panel + 2]
    if r > ends[0]:
        ends = np.insert(ends, 1, r)
    width = np.diff(ends)[:, None]
    cut = (ends[:-1, None] + width * table.xg).ravel()
    # the cut panel's nodes replace the panel's
    ds = np.concatenate([table.weights, (width * table.wg).ravel()])
    ds[panel * table.xg.size:(panel + 1) * table.xg.size] = 0.0
    # each kept mode's radial profile on s and at r, on (Re, Im) lanes
    lanes = np.ascontiguousarray(rings[:, keep]).view(float)
    profiles = np.concatenate([to_nodes @ lanes, _interpolation(
        np.append(cut, r), radii, lam) @ lanes]).view(complex)
    modes = np.fft.fftfreq(m, 1.0 / m).astype(int)[keep]
    return modes, np.concatenate([table.s, cut]), ds, profiles[:-1], profiles[-1]


def _apply_resolvent_grid(f: GridFunction, z: complex, domain: Domain) -> complex:
    if f.domain is not domain:
        raise DomainMismatch("grid function domain does not match the point")
    # work on the disk: exterior nodes mirror onto the disk nodes index by
    # index at the same angles, and G and the hyperbolic form are
    # inversion invariant
    if domain is Domain.EXTERIOR_DISK:
        z = 0.0 if not np.isfinite(z) else 1.0 / np.conj(z)
    r = abs(z)
    modes, s, ds, profiles, _ = _mode_profiles(f, r)
    # ds times rho(s) s
    weights = ds * (4.0 * s / np.square((1.0 - s) * (1.0 + s)))
    ghat = np.array([mode_kernel(int(p), r, s) for p in modes]).reshape(-1, s.size)
    sums = np.einsum("ks,sk->k", ghat * weights, profiles)
    return complex(np.exp(1j * modes * np.angle(z)) @ sums)


def _apply_resolvent_callable(f, z: complex, domain: Domain, rule: QuadRule) -> complex:
    return _apply_resolvent_grid(GridFunction.from_callable(f, rule, domain), z, domain)


def apply_resolvent(f, z: DiskPoint, rule: QuadRule | None = None, *,
                    tol: float | None = None) -> complex:
    """(G f)(z) = integral of G(z, w) f(w) against the hyperbolic area form.

    ``f`` is a GridFunction on the domain of z, or a vectorized callable on
    complex arrays, which is sampled on the nodes of ``rule`` (default
    ``QuadRule()``) and then treated alike (module docstring).  With ``tol``
    set, a callable is also sampled on the rule with twice the radial and
    angular counts; the two values must agree to ``tol`` relative to
    1 + abs(value), and the finer one is returned.  A ``tol`` that is not
    positive raises ValueError, and non-finite samples NonFiniteValue.
    """
    if tol is not None and not tol > 0.0:
        raise ValueError(f"tolerance must be positive, not {tol!r}")
    if isinstance(f, GridFunction):
        return _apply_resolvent_grid(f, z.value, z.domain)
    rule = rule or QuadRule()
    val = _apply_resolvent_callable(f, z.value, z.domain, rule)
    if tol is not None:
        ref = _apply_resolvent_callable(
            f, z.value, z.domain, QuadRule(2 * rule.radial_nodes, 2 * rule.angular_count))
        if abs(val - ref) > tol * (1.0 + abs(ref)):
            raise QuadratureFailure(
                f"resolvent quadrature did not stabilize: {abs(val - ref):.3e}")
        val = ref
    return val


def _disk_transform(h: GridFunction, z, order: int) -> complex:
    """d^order/dz^order of P(h) at z, for order 0 or 1, mode by mode.

    With r = abs(z), theta = arg z and h_n the radial profile of angular
    mode n of h, P(h) takes e^{i(n-1)theta} times 2 int_0^r h_n (s/r)^(1-n) ds
    for n <= 0 and -2 int_r^1 h_n (r/s)^(n-1) ds for n >= 1: the expansion
    of 1/(zeta - z) in powers of zeta/z inside abs(zeta) = r and of z/zeta
    outside it, of which one power survives the angular integral.  d/dz
    takes each term times (n-1)/z and, for r <= 1, adds h(z) zbar/z from
    the moving limit r; at z = 0 only the n = 2 term stays.  Every ratio
    in the sums is at most 1.
    """
    if h.domain is not Domain.UNIT_DISK:
        raise DomainMismatch("the transforms take densities on the disk")
    z = complex(z)
    if np.isnan(z):
        raise NonFiniteValue("transform point is NaN")
    r = abs(z)
    modes, s, ds, profiles, at_r = _mode_profiles(h, r)
    inside = s < r
    hi = np.maximum(s, r)
    # outside r, d/dz's (r/s)^(n-1) / r is taken as (r/s)^(n-2) / s, finite
    # at r = 0; at n = 1 the factor n - 1 = 0 cancels the term
    power = np.maximum(np.abs(modes - 1) - order * ~inside[:, None], 0)
    kernel = np.where(inside[:, None] == (modes <= 0),
                      (np.minimum(s, r) / hi)[:, None] ** power, 0.0)
    weights = ds * np.where(inside, 2.0, -2.0) / hi ** order
    sums = np.einsum("s,sk,sk->k", weights, kernel, profiles)
    theta = np.angle(z)
    out = np.exp(1j * (modes - 1 - order) * theta) @ (sums * (modes - 1.0) ** order)
    if order and 0.0 < r <= 1.0:
        out += np.exp(1j * (modes - 2) * theta) @ at_r
    return complex(out)


def cauchy_transform(h: GridFunction, z) -> complex:
    """P(h)(z) = -(1/pi) iint_D h(zeta)/(zeta - z) d2zeta, for disk
    samples h, by one radial integral per angular mode (_disk_transform).
    Exact to rounding on densities whose profiles the rule's radii
    reproduce; non-finite samples raise NonFiniteValue."""
    return _disk_transform(h, z, 0)


def beurling_transform(h: GridFunction, z) -> complex:
    """H(h)(z) = d/dz P(h)(z), for disk samples h, mode by mode as
    cauchy_transform; on the unit circle the limit from inside."""
    return _disk_transform(h, z, 1)


# ---------------------------------------------------------------------------
# double integrals
# ---------------------------------------------------------------------------

def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


# near-diagonal patch: 16 rays, each with one 16-node Gauss rule in tau at
# s = tau^3 in units of the ray length (see _local_polar_rule)
_PATCH_T, _PATCH_WT = gauss_legendre_01(16)
_PATCH_T, _PATCH_WT = _PATCH_T ** 3, 3.0 * _PATCH_T ** 2 * _PATCH_WT
_PATCH_DIRS = np.exp(1j * TWO_PI * np.arange(16) / 16)


def _local_polar_rule(z, delta: float):
    """Nodes and weights of the near-diagonal patch around z.

    The nodes are z + s e^{i phi} u, with u = z / abs(z) the centre's own
    direction (u = 1 at z = 0), and s running over the part of [0, delta]
    that lies inside the unit disk, so z may sit just outside the circle.
    Measuring the rays from u makes the rule rotation-equivariant: the
    patch around r e^{i theta} is e^{i theta} times the patch around r,
    with the same weights.  The weights are the area element s ds dphi
    times the complementary window 1 - eta(s / delta): the patch sum plus
    the node sum windowed by eta(|w - z| / delta) is the integral over the
    disk.  Each ray carries 16 nodes, one Gauss-Legendre rule in tau with
    s = lo + length tau^3: the cube turns the logarithmic and 1/s diagonal
    singularities of the kernels, times the area element s ds, into
    tau^5 log(tau) and tau^2, and the window into a polynomial in tau, so
    one rule resolves the centre and the window's edge alike.  Rays that
    miss the disk get zero weight.  A scalar z gives (radial, ray) arrays;
    an array of centers becomes their leading axes.
    """
    z = np.asarray(z)[..., None]
    # hypot is the scalar abs(z) bit for bit; np.abs on arrays is not
    a = np.hypot(z.real, z.imag)
    unit = np.where(a > 0.0, z / np.where(a > 0.0, a, 1.0), 1.0)
    # Re(conj(z) u e^{i phi}) = abs(z) cos(phi) on every ray
    beta = a * _PATCH_DIRS.real
    root = np.sqrt(np.maximum(beta * beta + 1.0 - a ** 2, 0.0))
    lo = np.clip(-beta - root, 0.0, delta)
    length = np.clip(-beta + root, 0.0, delta) - lo
    # park empty rays at distance delta, away from the singularity
    lo = np.where(length > 0.0, lo, delta)[..., None, :]
    length = length[..., None, :]
    s = lo + length * _PATCH_T[:, None]
    w = z[..., None] + s * (unit * _PATCH_DIRS)[..., None, :]
    area = (length * _PATCH_WT[:, None]) * s * (TWO_PI / _PATCH_DIRS.size)
    return w, area * (1.0 - _smoothstep(s / delta))


# kernel entries per block of outer nodes in integrate_double
_DOUBLE_BLOCK = 1 << 15


def integrate_double(kernel, rule: QuadRule, domain: Domain = Domain.UNIT_DISK) -> complex:
    """Double integral of kernel(z, w) dA(z) dA(w) over domain x domain,
    with dA = 4 / (1 - abs(z)^2)^2 d^2z the hyperbolic area form in both
    variables, which the inversion z -> 1/conj(z) keeps.

    The kernel must broadcast like a ufunc over both arguments, be finite
    off the diagonal, and be at worst logarithmically singular on it.  For
    each outer node the near-diagonal cells are removed by the C^2 window
    and replaced by the local polar patch rule, its rays cut at the unit
    circle.  Exterior integrals are pulled back to the disk through
    w -> 1/conj(w), so the patch always sees the disk's node geometry.

    Outer nodes are taken one ring at a time, in blocks of at most 2^15
    kernel entries that stay inside the ring: each block calls the kernel
    once on (outer nodes) x (all nodes) and once on (outer nodes) x (their
    256 patch nodes).  The kernel's output is never written into: the
    windowed block is its product with the window, taken into a fresh
    array, and non-finite values are rejected only after the product and
    the diagonal cut, so a kernel may be non-finite on the diagonal.  A
    rotation by one angular step maps the rule's nodes onto nodes, and the
    window, the node weights, the density and the patch rule all commute
    with it, so each call builds two tables per ring r_i and shares them
    along the ring: the window row, weight x density x eta(|w - r_i| /
    delta), which node j reads shifted by j inside each ring, and the patch
    at r_i with its weights x density, whose nodes node j rotates by
    e^{i theta_j}.  This is the generic O(n^2) reference path; the
    mode-reduced engine is the fast route for rotation-symmetric kernels.
    """
    if domain is Domain.EXTERIOR_DISK:
        outer_kernel = kernel
        kernel = lambda z, w: outer_kernel(1.0 / np.conj(z), 1.0 / np.conj(w))
    elif domain is not Domain.UNIT_DISK:
        raise DomainMismatch("double integrals cover the disk and its exterior")

    nodes = rule.nodes(Domain.UNIT_DISK)
    nr, m = nodes.shape
    n = nodes.size
    flat_pts = nodes.ravel()
    flat_w = (rule.node_weights() * _area_density(nodes)).ravel()
    turns = np.exp(1j * rule.angles)
    delta = rule.patch_radius
    rows = min(m, max(1, _DOUBLE_BLOCK // max(n, _PATCH_T.size * _PATCH_DIRS.size)))
    totals = np.empty((nr, m), dtype=complex)
    for i, r in enumerate(rule.radii):
        window = (flat_w * _smoothstep(np.abs(flat_pts - r) / delta)).reshape(nr, m)
        # shifted[m - j][:, k] = window[:, (k - j) % m], a view
        shifted = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([window, window], axis=1), m, axis=1).transpose(1, 0, 2)
        pw, pweights = _local_polar_rule(r, delta)
        pweights = pweights * _area_density(pw)
        for start in range(0, m, rows):
            stop = min(start + rows, m)
            j = np.arange(start, stop)
            z = nodes[i, start:stop]
            kv = np.broadcast_to(kernel(z[:, None], flat_pts[None, :]), (j.size, n))
            # the windowed block goes into a fresh array, so the kernel's
            # own is never written into; the window is 0 on the diagonal,
            # where a kernel may be non-finite, and those cells are then
            # replaced by the local patch rule
            block = np.empty((j.size, nr, m), dtype=complex)
            with np.errstate(invalid="ignore"):
                np.multiply(kv.reshape(block.shape), shifted[m - start:m - stop:-1], out=block)
            block[j - start, i, j] = 0.0
            check_finite(block, "double-integral kernel block")
            inner = np.sum(block.reshape(j.size, n), axis=1)
            pk = kernel(z[:, None, None], turns[j, None, None] * pw)
            patch = pweights * np.broadcast_to(pk, (j.size,) + pw.shape)
            check_finite(patch, "double-integral patch block")
            totals[i, start:stop] = inner + np.sum(patch.reshape(j.size, -1), axis=1)
    return pairwise_dot(flat_w, totals.ravel())
