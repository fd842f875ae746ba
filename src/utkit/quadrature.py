"""Polar quadrature on the disk and its exterior, and resolvent application.

The base rule crosses a Gauss rule for the radial measure r dr on (0, 1)
with uniform angles, so monomials r^a e^{i m theta} integrate exactly up to
the rule's order in both factors.  Exterior integrals are pulled back to the
disk through z -> 1/conj(z); the hyperbolic area form is invariant under
that inversion, which is why one rule serves both sides.

Integrands singular at a point z (the resolvent kernel, the Cauchy kernel)
use one windowed rule: the node sum is weighted by a C^2 window that
vanishes at z, and the complementary near-diagonal part is integrated by
a local polar patch around z whose rays stop at the unit circle.  Grid
data is sampled on the patch nodes by bilinear interpolation in
(r, theta).  ``integrate_double``, the grid path of ``apply_resolvent``
and ``qc_solver.cauchy_transform`` all use it.

``apply_resolvent`` has two paths.  For callable integrands it recenters the
singular point by a disk automorphism and integrates on a radial rule
graded into the logarithmic singularity.  Against the closed-form mode
engine, on the products (1 - r^2)^4 r^n e^{i p theta} of basis fields, its
error is at most 5e-10 of sup abs(f) for abs(z) <= 0.5 and n <= 10, and
3.4e-8 for n up to 14; it grows toward the circle, to 1e-6 at abs(z) = 0.7
and 5e-4 by 0.95, and for (1 - abs(w)^2)^4 at abs(z) = 0.9917 it is 79 %
off.  For grid data it uses the windowed node sum and patch rule above;
that path is cruder but works with sampled inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import check_finite, pairwise_dot, tree_sum
from .errors import DomainMismatch, IoFailure, QuadratureFailure
from .geometry import DiskPoint, Domain, MoebiusMap, kernel_value_array, u_array

TWO_PI = 2.0 * math.pi


def gauss_legendre_01(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=32)
def gauss_radial(n: int):
    """Gauss rule for the measure r dr on (0, 1).

    Golub-Welsch on the Jacobi matrix of the weight (1 + x) on (-1, 1),
    mapped to (0, 1).  Exact for integrands r^a with a <= 2n - 1, odd powers
    included, which a Legendre rule in r^2 cannot deliver.
    """
    k = np.arange(n, dtype=float)
    diag = 1.0 / ((2.0 * k + 1.0) * (2.0 * k + 3.0))
    koff = np.arange(1, n, dtype=float)
    off = np.sqrt(koff * (koff + 1.0)) / (2.0 * koff + 1.0)
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x, vecs = np.linalg.eigh(jacobi)
    w = 2.0 * vecs[0] ** 2
    r = 0.5 * (x + 1.0)
    return r, 0.25 * w


def graded_panels(a: float, b: float, *, toward: float, levels: int = 24,
                  ratio: float = 0.25, order: int = 8):
    """Composite Gauss rule on [a, b] with panels accumulating geometrically
    toward one endpoint.

    Handles integrable endpoint singularities (logs, mild powers): each panel
    sees an analytic integrand, and panel widths shrink like ratio^level, so
    the total error decays to ~1e-12 for log-class integrands.
    """
    if not (a < b):
        raise ValueError("empty panel interval")
    if toward not in (a, b):
        raise ValueError("grading endpoint must be an interval endpoint")
    xg, wg = gauss_legendre_01(order)
    length = b - a
    cuts = [ratio**j for j in range(levels + 1)]  # 1, ratio, ratio^2, ...
    nodes, weights = [], []
    for hi, lo in zip(cuts[:-1], cuts[1:]):
        if toward == a:
            left, right = a + lo * length, a + hi * length
        else:
            left, right = b - hi * length, b - lo * length
        h = right - left
        nodes.append(left + h * xg)
        weights.append(h * wg)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class QuadRule:
    """Product rule: radial Gauss rule for r dr times uniform angles.

    ``angular_count`` must be even and at least 8.  Node weights sum to pi,
    the area of the unit disk.
    """

    radial_nodes: int = 64
    angular_count: int = 128

    def __post_init__(self):
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
        grids are aligned index by index.
        """
        disk = self.radii[:, None] * np.exp(1j * self.angles)[None, :]
        if domain is Domain.UNIT_DISK:
            return disk
        if domain is Domain.EXTERIOR_DISK:
            return 1.0 / np.conj(disk)
        raise DomainMismatch("polar rules cover the disk and its exterior")

    def node_weights(self):
        return np.broadcast_to(
            (TWO_PI / self.angular_count) * self.radial_weights[:, None],
            (self.radial_nodes, self.angular_count),
        )

    @property
    def spacing(self) -> float:
        return max(1.0 / (self.radial_nodes + 1), TWO_PI / self.angular_count)

    @property
    def patch_radius(self) -> float:
        return 2.0 * self.spacing


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
        z = rule.nodes(domain)
        return cls(rule, domain, np.asarray(f(z), dtype=complex))

    def nodes(self):
        return self.rule.nodes(self.domain)

    def to_csv(self, path: str):
        z = self.nodes().ravel()
        v = self.values.ravel()
        try:
            with open(path, "w") as fh:
                fh.write("re,im,value_re,value_im\n")
                for zz, vv in zip(z, v):
                    fh.write(f"{float(zz.real)!r},{float(zz.imag)!r},"
                             f"{float(vv.real)!r},{float(vv.imag)!r}\n")
        except OSError as exc:
            raise IoFailure(str(exc)) from exc

    @classmethod
    def from_csv(cls, path: str, rule: QuadRule, domain: Domain) -> "GridFunction":
        try:
            raw = np.loadtxt(path, delimiter=",", skiprows=1)
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        except ValueError as exc:
            raise IoFailure(f"malformed grid csv: {exc}") from exc
        if raw.ndim == 1:
            raw = raw[None, :]
        if raw.shape[1] != 4:
            raise IoFailure("grid csv must have four columns")
        shape = (rule.radial_nodes, rule.angular_count)
        if raw.shape[0] != shape[0] * shape[1]:
            raise IoFailure("grid csv row count does not match the rule")
        z = (raw[:, 0] + 1j * raw[:, 1]).reshape(shape)
        if np.max(np.abs(z - rule.nodes(domain))) > 1e-12:
            raise IoFailure("grid csv nodes do not match the rule")
        return cls(rule, domain, (raw[:, 2] + 1j * raw[:, 3]).reshape(shape))


def _evaluate(f, z):
    vals = f(z)
    arr = np.asarray(vals, dtype=complex)
    if arr.shape != z.shape:
        arr = np.broadcast_to(arr, z.shape).astype(complex)
    return arr


def _require_decay_certificate(measure: str, certified_decay: bool):
    if measure == "hyperbolic" and not certified_decay:
        raise QuadratureFailure(
            "hyperbolic-measure integrals diverge unless the integrand decays "
            "like (1-|z|^2)^2 at the circle; pass certified_decay=True to assert that"
        )


def _check_measure(measure: str):
    if measure not in ("euclidean", "hyperbolic"):
        raise ValueError(f"unknown measure {measure!r}")


def integrate_disk(f, rule: QuadRule | None = None, measure: str = "euclidean",
                   *, certified_decay: bool = False) -> complex:
    """Integral over the unit disk of a callable or GridFunction."""
    _check_measure(measure)
    _require_decay_certificate(measure, certified_decay)
    if isinstance(f, GridFunction):
        if f.domain is not Domain.UNIT_DISK:
            raise DomainMismatch("grid function lives on the wrong domain")
        rule = f.rule
        z = rule.nodes(Domain.UNIT_DISK)
        vals = f.values
    else:
        rule = rule or QuadRule()
        z = rule.nodes(Domain.UNIT_DISK)
        vals = _evaluate(f, z)
    w = np.array(rule.node_weights(), dtype=float)
    if measure == "hyperbolic":
        w = w * (4.0 / np.square(1.0 - np.abs(z) ** 2))
    return pairwise_dot(w, vals)


def integrate_exterior(f, rule: QuadRule | None = None,
                       measure: str = "euclidean", *,
                       certified_decay: bool = False) -> complex:
    """Integral over the exterior of the circle, pulled back to the disk.

    Euclidean measure requires |f| = O(|z|^-4) at infinity for convergence;
    the pullback weight |w|^-4 makes that explicit.  Hyperbolic measure is
    inversion invariant, so exterior samples pair with disk-side densities.
    """
    _check_measure(measure)
    _require_decay_certificate(measure, certified_decay)
    if isinstance(f, GridFunction):
        if f.domain is not Domain.EXTERIOR_DISK:
            raise DomainMismatch("grid function lives on the wrong domain")
        rule = f.rule
        vals = f.values
        wdisk = rule.nodes(Domain.UNIT_DISK)
    else:
        rule = rule or QuadRule()
        wdisk = rule.nodes(Domain.UNIT_DISK)
        vals = _evaluate(f, 1.0 / np.conj(wdisk))
    w = np.array(rule.node_weights(), dtype=float)
    if measure == "hyperbolic":
        w = w * (4.0 / np.square(1.0 - np.abs(wdisk) ** 2))
    else:
        w = w / np.abs(wdisk) ** 4
    return pairwise_dot(w, vals)


# ---------------------------------------------------------------------------
# resolvent application
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _recentred_radial_rule(levels: int = 24, order: int = 10):
    """Radial rule in t = r^2 graded toward t = 0 for the log singularity,
    shared read-only by every call with the same (levels, order)."""
    t, wt = graded_panels(0.0, 1.0, toward=0.0, levels=levels, ratio=0.25, order=order)
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def _apply_resolvent_callable(f, z: complex, domain: Domain, rule: QuadRule,
                              *, levels: int = 24, order: int = 10) -> complex:
    if domain is Domain.EXTERIOR_DISK:
        zin = 0.0 if not np.isfinite(z) else 1.0 / np.conj(z)
        return _apply_resolvent_callable(
            lambda w: f(1.0 / np.conj(w)), zin, Domain.UNIT_DISK, rule,
            levels=levels, order=order)
    sigma_inv = MoebiusMap.sigma_center(z).inverse()
    t, wt = _recentred_radial_rule(levels, order)
    r = np.sqrt(t)
    m = rule.angular_count
    theta = TWO_PI * np.arange(m) / m
    # the (radius, angle) nodes are dropped once f has been sampled
    fv = _evaluate(f, sigma_inv.apply(r[:, None] * np.exp(1j * theta)[None, :]))
    # the recentred kernel, the density and the weights depend on the
    # radius only: one radial vector
    radial = (0.5 * wt * (TWO_PI / m) * (4.0 / np.square(1.0 - t))
              * kernel_value_array(t / (1.0 - t)))
    return pairwise_dot(radial[:, None], fv)


def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


# near-diagonal patch: radial panels in units of the ray length, graded
# into the center where the kernels are singular, on 16 rays
_PATCH_T, _PATCH_WT = graded_panels(0.0, 1.0, toward=0.0, levels=10,
                                    ratio=0.25, order=4)
_PATCH_DIRS = np.exp(1j * TWO_PI * np.arange(16) / 16)


def _local_polar_rule(z, delta: float):
    """Nodes and weights of the near-diagonal patch around z.

    The nodes are z + s e^{i phi}, with s running over the part of
    [0, delta] that lies inside the unit disk, so z may sit just outside
    the circle.  The weights are the area element s ds dphi times the
    complementary window 1 - eta(s / delta): the patch sum plus the node
    sum windowed by eta(|w - z| / delta) is the integral over the disk.
    The radial rule is graded into s = 0, which absorbs the logarithmic
    and 1/s diagonal singularities of the kernels.  Rays that miss the
    disk get zero weight.  A scalar z gives (radial, ray) arrays; an array
    of centers becomes their leading axes.
    """
    z = np.asarray(z)[..., None]
    beta = np.real(np.conj(z) * _PATCH_DIRS)
    # hypot is the scalar abs(z) bit for bit; np.abs on arrays is not
    root = np.sqrt(np.maximum(beta * beta + 1.0 - np.hypot(z.real, z.imag) ** 2,
                              0.0))
    lo = np.clip(-beta - root, 0.0, delta)
    length = np.clip(-beta + root, 0.0, delta) - lo
    # park empty rays at distance delta, away from the singularity
    lo = np.where(length > 0.0, lo, delta)[..., None, :]
    length = length[..., None, :]
    s = lo + length * _PATCH_T[:, None]
    w = z[..., None] + s * _PATCH_DIRS
    area = (length * _PATCH_WT[:, None]) * s * (TWO_PI / _PATCH_DIRS.size)
    return w, area * (1.0 - _smoothstep(s / delta))


def _bilinear_lookup(gf: GridFunction, pts):
    """Sample a grid function off-node, bilinear in (r, theta).

    ``pts`` are disk positions; for exterior samples they are the mirror
    images 1/conj(w), where the node geometry is the disk's.
    """
    radii = gf.rule.radii
    m = gf.rule.angular_count
    r = np.abs(pts)
    hi = np.clip(np.searchsorted(radii, r), 1, radii.size - 1)
    lo = hi - 1
    tr = np.clip((r - radii[lo]) / (radii[hi] - radii[lo]), 0.0, 1.0)
    ang = np.angle(pts) * m / TWO_PI
    j0 = np.floor(ang).astype(int) % m
    ta = ang - np.floor(ang)
    j1 = (j0 + 1) % m
    v = gf.values
    return ((1 - tr) * ((1 - ta) * v[lo, j0] + ta * v[lo, j1])
            + tr * ((1 - ta) * v[hi, j0] + ta * v[hi, j1]))


def _apply_resolvent_grid(f: GridFunction, z: complex, domain: Domain) -> complex:
    if f.domain is not domain:
        raise DomainMismatch("grid function domain does not match the point")
    rule = f.rule
    # work on the disk, where the node geometry is uniform; exterior nodes
    # mirror onto the disk nodes index by index
    nodes = rule.nodes(Domain.UNIT_DISK)
    if domain is Domain.EXTERIOR_DISK:
        z = 0.0 if not np.isfinite(z) else 1.0 / np.conj(z)
    u = u_array(z, nodes)
    mask = u > 0.0
    g = np.zeros_like(u)
    g[mask] = kernel_value_array(u[mask])
    rho = 4.0 / np.square(1.0 - np.abs(nodes) ** 2)
    w = np.array(rule.node_weights(), dtype=float)
    delta = rule.patch_radius
    eta = _smoothstep(np.abs(nodes - z) / delta)
    base = pairwise_dot(np.where(mask, w * rho * g * eta, 0.0), f.values)
    pw, pweights = _local_polar_rule(z, delta)
    g_rho = (kernel_value_array(u_array(z, pw))
             * (4.0 / np.square(1.0 - np.abs(pw) ** 2)))
    return base + pairwise_dot(pweights, g_rho * _bilinear_lookup(f, pw))


def apply_resolvent(f, z: DiskPoint, rule: QuadRule | None = None, *,
                    tol: float | None = None) -> complex:
    """(G f)(z) = integral of G(z, w) f(w) against the hyperbolic area form.

    ``f`` may be a vectorized callable on complex arrays (recentred path,
    accurate well inside the disk; see the module docstring) or a
    GridFunction on the matching domain (blended node sum with a local
    diagonal patch).  With ``tol`` set, the callable path is repeated
    at a higher panel order and must stabilize to that tolerance.
    """
    if isinstance(f, GridFunction):
        return _apply_resolvent_grid(f, z.value, z.domain)
    if rule is None:
        rule = QuadRule()
    val = _apply_resolvent_callable(f, z.value, z.domain, rule)
    if tol is not None:
        ref = _apply_resolvent_callable(f, z.value, z.domain, rule,
                                        levels=28, order=14)
        if abs(val - ref) > tol * (1.0 + abs(ref)):
            raise QuadratureFailure(
                f"resolvent quadrature did not stabilize: {abs(val - ref):.3e}")
        val = ref
    return val


# ---------------------------------------------------------------------------
# double integrals
# ---------------------------------------------------------------------------

# kernel entries per block of outer nodes in integrate_double
_DOUBLE_BLOCK = 1 << 15


def integrate_double(kernel, rule: QuadRule, domain: Domain = Domain.UNIT_DISK,
                     measure: str = "hyperbolic", *,
                     certified_decay: bool = True) -> complex:
    """Double integral of kernel(z, w) over domain x domain.

    The kernel must broadcast like a ufunc over both arguments, be finite
    off the diagonal, and be at worst logarithmically singular on it.  Outer
    nodes are taken in blocks of about 2^15 kernel entries: each block calls
    the kernel once on (outer column) x (all nodes) and once on
    (outer column) x (its patch nodes).  For each outer node the
    near-diagonal cells are removed by the C^2 window and replaced by the
    local polar patch rule, its rays cut at the unit circle.  Exterior
    integrals are pulled back to the disk through w -> 1/conj(w), so the
    patch always sees the disk's node geometry.  This is the generic
    O(n^2) reference path; the mode-reduced engine is the fast route for
    rotation-symmetric kernels.
    """
    _check_measure(measure)
    _require_decay_certificate(measure, certified_decay)
    if domain is Domain.EXTERIOR_DISK:
        outer_kernel = kernel
        kernel = lambda z, w: outer_kernel(1.0 / np.conj(z), 1.0 / np.conj(w))
    elif domain is not Domain.UNIT_DISK:
        raise DomainMismatch("double integrals cover the disk and its exterior")

    def density(w):
        # area density on the disk: hyperbolic, Euclidean, or the Euclidean
        # form of the exterior pulled back through the inversion
        if measure == "hyperbolic":
            return 4.0 / np.square(1.0 - np.abs(w) ** 2)
        if domain is Domain.EXTERIOR_DISK:
            return 1.0 / np.abs(w) ** 4
        return np.ones(np.shape(w))

    flat_pts = rule.nodes(Domain.UNIT_DISK).ravel()
    flat_w = np.array(rule.node_weights(), dtype=float).ravel() * density(flat_pts)
    delta = rule.patch_radius
    rows = max(1, _DOUBLE_BLOCK // flat_pts.size)
    totals = np.empty(flat_pts.size, dtype=complex)
    for start in range(0, flat_pts.size, rows):
        z = flat_pts[start:start + rows]
        kv = np.asarray(kernel(z[:, None], flat_pts[None, :]), dtype=complex)
        # diagonal cells replaced by the local patch rule
        dist = np.abs(flat_pts[None, :] - z[:, None])
        kv = np.where(dist == 0.0, 0.0, kv)
        check_finite(kv, "double-integral kernel block")
        inner = tree_sum(flat_w * kv * _smoothstep(dist / delta))
        pw, pweights = _local_polar_rule(z, delta)
        pk = np.asarray(kernel(z[:, None, None], pw), dtype=complex)
        check_finite(pk, "double-integral patch block")
        patch = pweights * density(pw) * pk
        check_finite(patch, "integrand sample")
        totals[start:start + rows] = inner + tree_sum(patch.reshape(z.size, -1))
    return pairwise_dot(flat_w, totals)
