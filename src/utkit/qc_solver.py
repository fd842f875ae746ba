"""Beltrami equation solver, Schwarzian pipeline, and conformal welding.

The quasiconformal unknown is carried under the inversion z -> 1/z, so
the dilatation lives on the unit disk where every Neumann iterate is a
polynomial-with-logs density whose Cauchy transform stays closed form
(see the _bipoly module).  The exterior principal part of that series
yields exact normalization jets for the interior conformal restriction,
and the first dropped iterate is, identically, the Beltrami residual of
the truncated solution.

Grid sampled densities are transformed by windowed quadrature with a
local polar patch (cauchy_transform); everything feeding derivatives
goes through the exact term algebra (beurling_transform and the solver
itself).  Term-algebra densities are evaluated by the points asked for:
on the nodes of a polar rule (the solver's norms, residuals and grid
samples) with one FFT per ring (BiPoly.eval_rule), at arbitrary points
(QCMap.evaluate and derivatives, beurling_transform) with polyval2d
(BiPoly.eval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._bipoly import BiPoly, eval_principal
from ._util import pairwise_dot
from .errors import (
    CriticalPoint,
    DomainMismatch,
    FitFailure,
    NoConvergence,
    NormTooLarge,
    QuadratureFailure,
    TruncationExceeded,
)
from .geometry import Domain, MoebiusMap
from .quadrature import (
    GridFunction,
    QuadRule,
    _bilinear_lookup,
    _local_polar_rule,
    _smoothstep,
)
from .series import BeltramiField, HoloCoeffs

__all__ = [
    "QCMap",
    "WeldingData",
    "cauchy_transform",
    "beurling_transform",
    "solve_beltrami",
    "schwarzian",
    "bers_embedding",
    "welding_decompose",
]

_polyval = np.polynomial.polynomial.polyval
_polyder = np.polynomial.polynomial.polyder

# geometric-decay contract: consecutive Neumann term ratios must stay
# below _CONTRACTION_CAP * sup|mu| (and below 0.95 outright)
_CONTRACTION_CAP = 4.0
_MAX_TERMS = 50

# monomial degrees (in z, in zbar) of the least-squares fit of sampled
# dilatations
_FIT_DEGREES = (4, 18)
# relative size below which a fitted coefficient, or a whole angular bin
# of samples, is rounding noise
_FIT_CUT = 1e-13
# terms c_k w^-k in the exponent of the exterior Riemann map
# Phi = A1 w exp(sum_k c_k w^-k) of the image curve, and the sup of
# abs(abs(Phi) - 1) on the curve that its fit must reach
_PHI_TRUNCATION = 40
_PHI_ACCEPT = 1e-8

# stand-in for the point at infinity when reflecting z = 0 through the
# unit circle; large enough to be past any Taylor tail, small enough to
# keep squares finite
_FAR = 1e150


# -- Cauchy and Beurling transforms ------------------------------------


def cauchy_transform(h: GridFunction, z) -> complex:
    """P(h)(z) = -(1/pi) iint_D h(zeta)/(zeta - z) d2zeta by quadrature.

    The weak 1/|zeta - z| singularity is handled by the windowed node sum
    plus the local polar patch rule of the quadrature module, whose rays
    stop at the unit circle, so points just outside the disk are served
    by the same rule.  The error is set by the grid, not the singularity:
    on the default 64 x 128 rule, for smooth densities, it is under 1e-4
    for |z| <= 0.6 and about 4e-4 to 8e-4 for 0.9 <= |z| < 1.  Just
    outside the circle it is worse between node angles than on one, where
    the window cuts the kernel at a scale the angular spacing does not
    resolve: for the density 1 at z = 1.01 e^{0.7i} the error is 2.6e-3 on
    32 x 64 (4.8e-5 at z = 1.01) and 3.3e-4 on 64 x 128.
    """
    if h.domain is not Domain.UNIT_DISK:
        raise DomainMismatch("cauchy_transform integrates densities on the disk")
    z = complex(z)
    rule = h.rule
    diffs = h.nodes() - z
    delta = rule.patch_radius
    eta = _smoothstep(np.abs(diffs) / delta)
    base = -pairwise_dot(rule.node_weights() * eta, h.values / diffs) / math.pi
    pts, pweights = _local_polar_rule(z, delta)
    local = _bilinear_lookup(h, pts) / (pts - z)
    out = base - pairwise_dot(pweights, local) / math.pi
    if not np.isfinite(out):
        raise QuadratureFailure("cauchy transform did not evaluate finitely")
    return complex(out)


def _fit_bipoly(gf: GridFunction, deg_z: int, deg_zbar: int):
    """Least-squares expansion of disk samples over z^a zbar^b monomials.

    The dictionary is a in [0, deg_z], b in [-1, deg_zbar]; the b = -1
    column keeps radial dilatations k z/zbar inside the span.  Returns
    the fitted BiPoly and the sup residual over the nodes.

    On the nodes z^a zbar^b = r^(a+b) e^{i(a-b)theta}, and on M uniform
    angles columns whose modes differ mod M are orthogonal, so the
    least-squares problem over all nodes splits exactly into one FFT per
    ring and one radial fit per bin (a - b) mod M; modes that alias share
    their bin's fit.  A bin whose samples all sit below _FIT_CUT is left
    unfitted, so rounding noise does not become terms.
    """
    radii = gf.rule.radii
    m_count = gf.rule.angular_count
    spec = np.fft.fft(gf.values, axis=1) / m_count
    a, b = np.divmod(np.arange((deg_z + 1) * (deg_zbar + 2)), deg_zbar + 2)
    b -= 1
    bins = (a - b) % m_count
    peak = np.max(np.abs(spec), axis=0)
    live = peak > _FIT_CUT * max(float(np.max(peak)), 1.0)
    fits = []
    for q in sorted(set(bins[live[bins]].tolist())):
        cols = np.flatnonzero(bins == q)
        powers = radii[:, None] ** (a[cols] + b[cols])
        coef, *_ = np.linalg.lstsq(powers, spec[:, q], rcond=None)
        fits.append((q, cols, powers, coef))
    scale = max((float(np.max(np.abs(c))) for *_, c in fits), default=0.0)
    arr = np.zeros((deg_z + 1, deg_zbar + 2), dtype=complex)
    for q, cols, powers, coef in fits:
        coef = np.where(np.abs(coef) > _FIT_CUT * max(scale, 1.0), coef, 0.0)
        arr.flat[cols] = coef
        spec[:, q] -= powers @ coef
    resid = float(np.max(np.abs(np.fft.ifft(spec, axis=1)))) * m_count
    return BiPoly(arr[None], 0, -1).prune(0.0), resid


def beurling_transform(h, z, *, degrees=(6, 18), tol=1e-6) -> complex:
    """H(h)(z), computed as d/dz of the closed-form Cauchy transform.

    h may be a GridFunction on the disk (expanded over monomials first;
    TruncationExceeded when the expansion residual exceeds tol) or a
    BiPoly already in the algebra.  Never evaluated as a raw
    principal-value sum.
    """
    if isinstance(h, GridFunction):
        if h.domain is not Domain.UNIT_DISK:
            raise DomainMismatch("beurling_transform expects densities on the disk")
        bp, resid = _fit_bipoly(h, *degrees)
        top = float(np.max(np.abs(h.values)))
        if resid > tol * max(top, 1.0):
            raise TruncationExceeded(
                f"monomial expansion residual {resid:.3e} exceeds tolerance")
    elif isinstance(h, BiPoly):
        bp = h
    else:
        raise TypeError("beurling_transform takes a GridFunction or BiPoly")
    interior, tail = bp.cauchy()
    z = complex(z)
    if abs(z) <= 1.0:
        return complex(interior.dz().eval(z))
    return complex(eval_principal(_tail_derivative(tail), z))


def _tail_derivative(tail):
    # d/dz of sum t[p] z^(-p-1) re-expressed in the same principal basis
    out = np.zeros(tail.size + 1, dtype=complex)
    if tail.size:
        out[1:] = -(np.arange(tail.size) + 1.0) * tail
    return out


# -- the Neumann series -------------------------------------------------


def _nu_from_mu(mu: BeltramiField, degrees):
    """Dilatation of the inverted problem: the pullback of mu under
    z -> 1/z, restricted to the disk, as a closed-form density."""
    if mu.domain is not Domain.EXTERIOR_DISK:
        raise DomainMismatch("solver dilatations live on the exterior disk")
    if mu.is_harmonic:
        # c (zbar^(n-2) - 2 z zbar^(n-1) + z^2 zbar^n) for every n with a_n != 0
        n = mu.n_values[mu.a != 0]
        if not n.size:
            return BiPoly.zero(), 0.0
        c = -0.5 * (n**3 - n) * mu.a[mu.a != 0]
        arr = np.zeros((1, 3, n[-1] - n[0] + 3), dtype=complex)
        rows = np.arange(3)[:, None]
        arr[0, rows, n - n[0] + rows] = np.array([[1.0], [-2.0], [1.0]]) * c
        return BiPoly(arr, 0, n[0] - 2), 0.0
    pulled = mu.iota_star()
    return _fit_bipoly(pulled.grid, *degrees)


def _l2_disk(bp: BiPoly, rule: QuadRule) -> float:
    """L2 norm over the disk by the rule, through Parseval on each ring:
    2 pi sum_k w_k sum_q |B_kq|^2 for the mode sums B of bp."""
    if bp.is_zero:
        return 0.0
    sums = bp._mode_sums(rule).view(float)
    ring = np.einsum("kq,kq->k", sums, sums)
    return math.sqrt(2.0 * math.pi * float(pairwise_dot(rule.radial_weights, ring).real))


class _SeriesState:
    """Accumulated Neumann data: w~(zeta) = zeta + interior(zeta) on the
    disk, zeta + principal tail outside, and the next iterate h, which
    is identically the residual density of the truncation.

    grid_w_tilde and grid_residual hold w~(1/z) and the residual field
    over the exterior nodes of the rule last passed to residual_sup."""

    def __init__(self, nu: BiPoly):
        self.nu = nu
        self.interior = BiPoly.zero()
        self.tail = np.zeros(0, dtype=complex)
        self.h = nu
        self.terms = 0
        self.ratios = []
        self.grid_w_tilde = None
        self.grid_residual = None

    def push(self):
        pk, tk = self.h.cauchy()
        self.interior = self.interior + pk
        tail = np.zeros(max(tk.size, self.tail.size), dtype=complex)
        tail[:self.tail.size] = self.tail
        tail[:tk.size] += tk
        self.tail = tail
        self.h = (self.nu * pk.dz()).prune()
        self.terms += 1

    def w_tilde(self, zeta):
        return zeta + self.interior.eval(zeta)

    def w_tilde_ext(self, zeta):
        return eval_principal(self.tail, zeta) + zeta

    def residual_sup(self, rule: QuadRule) -> float:
        """sup |w_zbar - mu w_z| of the truncated map over the exterior
        nodes of rule, via residual = -h_next(1/z) / (zbar^2 w~(1/z)^2);
        1/z runs over the conjugated disk nodes and 1/zbar over the disk
        nodes themselves."""
        # in place where it can be: on the solver's rule every fresh
        # array is a fresh mapping of pages
        disk = rule.nodes()
        wt = self.interior.eval_rule(rule, conjugate=True)
        wt.real += disk.real
        wt.imag -= disk.imag
        if self.h.is_zero:
            field = np.zeros(disk.shape, dtype=complex)
        else:
            field = self.h.eval_rule(rule, conjugate=True)
            np.negative(field, out=field)
            disk *= disk
            field *= disk
            field /= wt * wt
        self.grid_w_tilde, self.grid_residual = wt, field
        return float(np.max(np.abs(field)))


def _run_series(nu: BiPoly, sup_mu: float, tol: float, rule: QuadRule,
                probe_rule: QuadRule, max_terms: int) -> _SeriesState:
    state = _SeriesState(nu)
    norm_rule = QuadRule(24, 48)
    prev = None
    cap = min(0.95, _CONTRACTION_CAP * max(sup_mu, 1e-30))
    while True:
        hn = _l2_disk(state.h, norm_rule)
        if hn == 0.0 or state.residual_sup(probe_rule) <= 0.3 * tol:
            if state.residual_sup(rule) <= tol:
                return state
        if prev is not None and prev > 0.0:
            ratio = hn / prev
            state.ratios.append(ratio)
            if state.terms >= 3 and ratio > cap:
                raise NoConvergence(
                    f"series ratio {ratio:.3f} broke the contraction bound {cap:.3f}")
        if state.terms >= max_terms:
            raise NoConvergence(
                f"Beltrami residual above {tol:.1e} after {state.terms} terms")
        prev = hn
        state.push()


# -- Taylor data of the interior conformal restriction ------------------


def _taylor_from_tail(tail, count: int):
    """Coefficients a_n of f(zeta) = sum a_n zeta^(n+1) = 1/w~(1/zeta).

    w~(1/zeta) = (1/zeta)(1 + sum_p tail[p] zeta^(p+2)), so the a_n form
    the reciprocal series; a_0 = 1 and a_1 = 0 hold identically, which
    is how the hydrodynamic normalization at infinity turns into the
    interior jets.
    """
    return _poly_div_trunc([1.0], np.concatenate([[1.0, 0.0], tail]), count)


def _poly_div_trunc(num, den, count: int):
    if den[0] == 0:
        raise ZeroDivisionError("series division needs a unit constant term")
    num = np.pad(np.asarray(num, dtype=complex),
                 (0, max(0, count + 1 - len(num))))
    den = np.pad(np.asarray(den, dtype=complex),
                 (0, max(0, count + 1 - len(den))))
    out = np.zeros(count + 1, dtype=complex)
    for k in range(count + 1):
        acc = num[k] - (np.dot(den[1:k + 1], out[k - 1::-1]) if k else 0.0)
        out[k] = acc / den[0]
    return out


# -- the solved map -----------------------------------------------------


def _reflect(z):
    """1/conj(z) elementwise, sending 0 to the far stand-in for infinity."""
    out = np.full(z.shape, _FAR, dtype=complex)
    nz = z != 0
    out[nz] = 1.0 / np.conj(z[nz])
    return out


def _phi_eval(phi, w, deriv: bool = False):
    """Phi(w) = A1 w exp(h(w)) with h = sum_k c_k w^-k, and with deriv
    also Phi'(w) = Phi(w) (1/w + h'(w)), in one pass.

    Both sums run by Horner in place: on the solver's grids a fresh
    array per coefficient would be a fresh mapping of pages."""
    a1, c = phi
    w = np.asarray(w, dtype=complex)
    iw = 1.0 / w
    h = np.zeros(w.shape, dtype=complex)
    kh = np.zeros(w.shape, dtype=complex) if deriv else None
    for k in range(c.size, 0, -1):
        h += c[k - 1]
        h *= iw
        if deriv:
            kh += k * c[k - 1]
            kh *= iw
    out = np.exp(h, out=h)
    out *= w
    out *= a1
    if not deriv:
        return out
    # 1/w + h' = (1 - sum_k k c_k w^-k) / w
    np.subtract(1.0, kh, out=kh)
    kh *= iw
    kh *= out
    return out, kh


@dataclass(frozen=True)
class QCMap:
    """A solved quasiconformal map, sampled over two aligned polar grids.

    grid holds (disk samples, exterior samples) of w; residualNorm is
    the sup of |w_zbar - mu w_z| over the solver grid, evaluated through
    the series identity rather than finite differences.
    """

    grid: tuple
    mu: BeltramiField
    normalization: str
    seriesTermCount: int
    residualNorm: float
    fitResidual: float = 0.0
    decayRatios: tuple = ()
    normalizationChecks: dict = field(default_factory=dict)
    _series: _SeriesState = field(default=None, repr=False)
    _dress: dict = field(default=None, repr=False)

    @property
    def rule(self) -> QuadRule:
        return self.grid[0].rule

    # Model B evaluation: w(z) = 1/w~(1/z) with w~ from the series
    def _eval_b(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        inside = np.abs(z) <= 1.0
        pick = inside & (z != 0)
        if pick.any():
            out[pick] = 1.0 / self._series.w_tilde_ext(1.0 / z[pick])
        zout = z[~inside]
        if zout.size:
            out[~inside] = 1.0 / self._series.w_tilde(1.0 / zout)
        return out

    def _derivs_b(self, z):
        """(w_z, w_zbar) of the Model B map."""
        z = np.asarray(z, dtype=complex)
        wz = np.empty(z.shape, dtype=complex)
        wzb = np.zeros(z.shape, dtype=complex)
        inside = np.abs(z) <= 1.0
        zin = z[inside]
        if zin.size:
            vals = np.ones(zin.shape, dtype=complex)
            nz = zin != 0
            zeta = 1.0 / zin[nz]
            wt = self._series.w_tilde_ext(zeta)
            dwt = 1.0 + eval_principal(_tail_derivative(self._series.tail), zeta)
            vals[nz] = dwt / (zin[nz] ** 2 * wt**2)
            wz[inside] = vals
        zout = z[~inside]
        if zout.size:
            zeta = 1.0 / zout
            wt = self._series.w_tilde(zeta)
            dz_wt = 1.0 + self._series.interior.dz().eval(zeta)
            dzb_wt = self._series.interior.dzbar().eval(zeta)
            wz[~inside] = dz_wt / (zout**2 * wt**2)
            wzb[~inside] = dzb_wt / (np.conj(zout) ** 2 * wt**2)
        return wz, wzb

    def _dressed(self, wb):
        return self._dress["mhat"].apply(_phi_eval(self._dress["phi"], wb))

    def _dressed_deriv(self, wb):
        inner, dinner = _phi_eval(self._dress["phi"], wb, deriv=True)
        return self._dress["mhat"].derivative(inner) * dinner

    def _eval_a(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape, dtype=complex)
        outside = np.abs(z) >= 1.0
        zo = z[outside]
        if zo.size:
            out[outside] = self._dressed(self._eval_b(zo))
        zi = z[~outside]
        if zi.size:
            out[~outside] = 1.0 / np.conj(self._dressed(self._eval_b(_reflect(zi))))
        return out

    def _derivs_a(self, z):
        z = np.asarray(z, dtype=complex)
        wz = np.empty(z.shape, dtype=complex)
        wzb = np.empty(z.shape, dtype=complex)
        outside = np.abs(z) >= 1.0
        zo = z[outside]
        if zo.size:
            chain = self._dressed_deriv(self._eval_b(zo))
            bz, bzb = self._derivs_b(zo)
            wz[outside] = chain * bz
            wzb[outside] = chain * bzb
        zi = z[~outside]
        if zi.size:
            sigma = _reflect(zi)
            wb = self._eval_b(sigma)
            chain = self._dressed_deriv(wb)
            bz, bzb = self._derivs_b(sigma)
            wa = self._dressed(wb)
            # scale-safe denominators: z^2 conj(W)^2 = conj(W/sigma)^2
            # and zbar^2 conj(W)^2 = (conj(W)/sigma)^2 at sigma = 1/zbar
            d1 = np.conj(wa / sigma) ** 2
            d2 = (np.conj(wa) / sigma) ** 2
            wz[~outside] = np.conj(chain * bz) / d1
            wzb[~outside] = np.conj(chain * bzb) / d2
        return wz, wzb

    def evaluate(self, z):
        """w at arbitrary points (scalar or ndarray)."""
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        flat = z.reshape(-1)
        vals = self._eval_a(flat) if self.normalization == "ModelA" \
            else self._eval_b(flat)
        vals = vals.reshape(z.shape)
        return complex(vals) if scalar else vals

    __call__ = evaluate

    def derivatives(self, z):
        """(w_z, w_zbar) at arbitrary points."""
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        flat = z.reshape(-1)
        wz, wzb = (self._derivs_a(flat) if self.normalization == "ModelA"
                   else self._derivs_b(flat))
        wz, wzb = wz.reshape(z.shape), wzb.reshape(z.shape)
        if scalar:
            return complex(wz), complex(wzb)
        return wz, wzb

    def invert(self, target, *, tol=1e-12, max_iter=50) -> complex:
        """Newton preimage of a target value, seeded from the nearest
        grid sample."""
        target = complex(target)
        cands = []
        for gf in self.grid:
            idx = np.argmin(np.abs(gf.values - target))
            cands.append((abs(gf.values.ravel()[idx] - target),
                          complex(gf.nodes().ravel()[idx])))
        z = min(cands)[1]
        for _ in range(max_iter):
            err = self.evaluate(z) - target
            if abs(err) < tol:
                return complex(z)
            wz, wzb = self.derivatives(z)
            jac = abs(wz) ** 2 - abs(wzb) ** 2
            if jac <= 0:
                break
            z = z - (np.conj(wz) * err - wzb * np.conj(err)) / jac
        raise NoConvergence("Newton inversion stalled")


def _interior_jets(qc: QCMap) -> dict:
    """Numerical jets of w at 0 read off a small circle, independently
    of the series bookkeeping that enforces them."""
    r = 1e-2
    pts = r * np.exp(2j * math.pi * np.arange(8) / 8)
    modes = np.fft.fft(qc._eval_b(pts)) / 8
    return {
        "w(0)": float(abs(modes[0])),
        "w'(0)-1": float(abs(modes[1] / r - 1.0)),
        "w''(0)": float(abs(2.0 * modes[2] / r**2)),
    }


def _exterior_riemann(boundary, k_neg: int):
    """Fit Phi(w) = A1 w exp(sum_k c_k w^-k), k = 1..k_neg, mapping the
    outside of the sampled curve onto the outside of the unit circle,
    with Phi(inf) = inf and A1 real positive as gauge.

    log|Phi| is the Green's function of the exterior domain with its pole
    at infinity, so |Phi| = 1 on the curve is linear in (log A1, Re c_k,
    Im c_k): one real least-squares solve.  Returns ((A1, c), the sup of
    abs(abs(Phi) - 1) over the samples).
    """
    powers = np.cumprod(np.broadcast_to(1.0 / boundary[:, None],
                                        (boundary.size, k_neg)), axis=1)
    mat = np.empty((boundary.size, 2 * k_neg + 1))
    mat[:, 0] = 1.0
    mat[:, 1::2] = powers.real
    mat[:, 2::2] = -powers.imag
    rhs = -np.log(np.abs(boundary))
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    resid = float(np.max(np.abs(np.expm1(mat @ sol - rhs))))
    if resid > _PHI_ACCEPT:
        raise NoConvergence(f"exterior Riemann fit residual {resid:.2e}")
    return (math.exp(sol[0]), sol[1::2] + 1j * sol[2::2]), resid


def solve_beltrami(mu: BeltramiField, normalization: str = "ModelB",
                   tol: float = 1e-8, *, rule: QuadRule | None = None,
                   max_terms: int = _MAX_TERMS) -> QCMap:
    """Solve w_zbar = mu w_z for a dilatation supported on the exterior
    disk, normalized per Model A (fixes -1, -i, 1; symmetric under
    circle reflection) or Model B (conformal inside with w(0) = 0,
    w'(0) = 1, w''(0) = 0)."""
    if normalization not in ("ModelA", "ModelB"):
        raise ValueError(f"unknown normalization {normalization!r}")
    sup = mu.sup_norm()
    if sup > 0.5 + 1e-12:
        raise NormTooLarge(f"sup|mu| = {sup:.4f} exceeds the solver cap 0.5")
    rule = rule if rule is not None else QuadRule(64, 128)
    nu, fit_resid = _nu_from_mu(mu, _FIT_DEGREES)
    # Model A dressing scales the residual by |mhat' Phi'|, so leave margin
    eff_tol = tol if normalization == "ModelB" else 0.25 * tol
    state = _run_series(nu, sup, eff_tol, rule, QuadRule(12, 24), max_terms)
    # the stopping test last sampled the series on the solver rule
    res_field = state.grid_residual
    residual = float(np.max(np.abs(res_field)))
    c_eff = max(state.ratios) / sup if (state.ratios and sup > 0) else 0.0

    shell = QCMap(grid=(), mu=mu, normalization="ModelB",
                  seriesTermCount=state.terms, residualNorm=residual,
                  _series=state)
    ext_vals = 1.0 / state.grid_w_tilde

    if normalization == "ModelB":
        # w = 1/w~(1/z) = 1/(1/z + sum_p tail[p] z^(p+1)) on the disk nodes,
        # the sum by one FFT per ring and the rest in place: on the
        # solver's rule every fresh array is a fresh mapping of pages
        disk_vals = BiPoly(state.tail[None, :, None], 1, 0).eval_rule(rule)
        inv = rule.nodes()
        disk_vals += np.divide(1.0, inv, out=inv)
        np.divide(1.0, disk_vals, out=disk_vals)
        checks = _interior_jets(shell)
        checks["contractionFactor"] = c_eff
        return QCMap(
            grid=(GridFunction(rule, Domain.UNIT_DISK, disk_vals),
                  GridFunction(rule, Domain.EXTERIOR_DISK, ext_vals)),
            mu=mu, normalization="ModelB", seriesTermCount=state.terms,
            residualNorm=residual, fitResidual=fit_resid,
            decayRatios=tuple(state.ratios), normalizationChecks=checks,
            _series=state)

    # Model A: dress the solved map with the exterior Riemann map of the
    # image domain, then a disk automorphism pinning -1, -i, 1
    m_samples = 4 * rule.angular_count
    circle = np.exp(2j * math.pi * np.arange(m_samples) / m_samples)
    boundary = shell._eval_b(circle)
    phi, phi_resid = _exterior_riemann(boundary, _PHI_TRUNCATION)
    anchors = shell._eval_b(np.array([-1.0 + 0j, -1j, 1.0 + 0j]))
    phi_anchor = _phi_eval(phi, anchors)
    phi_anchor = phi_anchor / np.abs(phi_anchor)
    targets = np.array([-1.0 + 0j, -1j, 1.0 + 0j])
    mhat = MoebiusMap.through_points(phi_anchor, targets, tol=1e-6)
    dress = {"phi": phi, "mhat": mhat,
             "psi_point": complex(phi_anchor[2]), "boundary": boundary}

    phi_ext, dphi_ext = _phi_eval(phi, ext_vals, deriv=True)
    ext_res = np.abs(mhat.derivative(phi_ext) * dphi_ext) * np.abs(res_field)
    wa_ext = mhat.apply(phi_ext)
    int_res = ext_res / (rule.radii[:, None] ** 2 * np.abs(wa_ext) ** 2)
    residual_a = float(max(ext_res.max(), int_res.max()))
    wa_disk = 1.0 / np.conj(wa_ext)
    fixed = mhat.apply(phi_anchor)
    checks = {
        "w(-1)+1": float(abs(fixed[0] + 1.0)),
        "w(-i)+i": float(abs(fixed[1] + 1j)),
        "w(1)-1": float(abs(fixed[2] - 1.0)),
        "phiResidual": phi_resid,
        "contractionFactor": c_eff,
    }
    return QCMap(
        grid=(GridFunction(rule, Domain.UNIT_DISK, wa_disk),
              GridFunction(rule, Domain.EXTERIOR_DISK, wa_ext)),
        mu=mu, normalization="ModelA", seriesTermCount=state.terms,
        residualNorm=residual_a, fitResidual=fit_resid,
        decayRatios=tuple(state.ratios), normalizationChecks=checks,
        _series=state, _dress=dress)


# -- Schwarzian and the Bers embedding ----------------------------------


def _taylor_from_grid(gf: GridFunction, count: int | None = None):
    """Taylor coefficients of a holomorphic function from its outermost
    sample ring (angular FFT, spectrally accurate)."""
    m = gf.rule.angular_count
    count = min(m // 2, 64) if count is None else count
    r = float(gf.rule.radii[-1])
    modes = np.fft.fft(gf.values[-1]) / m
    k = np.arange(count)
    return modes[:count] / r**k


def schwarzian(f, z):
    """S(f) = f'''/f' - (3/2)(f''/f')^2 at the given points.

    Coefficient inputs are differentiated exactly; grid inputs are read
    off spectrally first.  Raises CriticalPoint where |f'| < 1e-12.
    """
    if isinstance(f, GridFunction):
        f = HoloCoeffs(Domain.UNIT_DISK, _taylor_from_grid(f))
    if not isinstance(f, HoloCoeffs):
        raise TypeError("schwarzian takes HoloCoeffs or a sampled grid")
    if f.domain is not Domain.UNIT_DISK:
        raise DomainMismatch("schwarzian expansion lives on the disk")
    c = np.asarray(f.coeffs, dtype=complex)
    d1, d2, d3 = _polyder(c), _polyder(c, 2), _polyder(c, 3)
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    fp = _polyval(z, d1)
    if np.any(np.abs(fp) < 1e-12):
        raise CriticalPoint("derivative vanishes at a requested point")
    out = _polyval(z, d3) / fp - 1.5 * (_polyval(z, d2) / fp) ** 2
    return complex(out) if scalar else out


def bers_embedding(mu: BeltramiField, *, tol: float = 1e-9,
                   truncation: int = 40,
                   rule: QuadRule | None = None) -> HoloCoeffs:
    """Schwarzian of the interior conformal restriction of the Model B
    solution, as Taylor coefficients on the disk."""
    qc = solve_beltrami(mu, "ModelB", tol,
                        rule=rule if rule is not None else QuadRule(24, 48))
    a = _taylor_from_tail(qc._series.tail, truncation + 4)
    count = truncation + 2
    n = np.arange(a.size, dtype=float)
    f1 = ((n + 1.0) * a)[:count + 1]
    f2 = ((n + 1.0) * n * a)[1:count + 2]
    f3 = ((n + 1.0) * n * (n - 1.0) * a)[2:count + 3]
    u = _poly_div_trunc(f2, f1, count)
    s = _poly_div_trunc(f3, f1, count) - 1.5 * np.convolve(u, u)[:count + 1]
    return HoloCoeffs(Domain.UNIT_DISK, s[:truncation + 1])


# -- conformal welding --------------------------------------------------


@dataclass(frozen=True)
class WeldingData:
    """Welding pieces of a circle-symmetric solution: interior series
    f(z) = sum fCoeffs[n] z^(n+1), exterior series g(z) =
    sum gCoeffs[n] z^(1-n), the capacity |g'(inf)| of the welded curve
    and the potential K = log capacity."""

    fCoeffs: np.ndarray
    gCoeffs: np.ndarray
    capacity: float
    potentialK: float
    fitResidual: float = 0.0

    def area_residual(self) -> float:
        """Defect of |b0|^2 = sum (n+1)|a_n|^2 + sum (n-1)|b_n|^2."""
        na = np.arange(self.fCoeffs.size, dtype=float)
        nb = np.arange(self.gCoeffs.size, dtype=float)
        return float(abs(self.gCoeffs[0]) ** 2
                     - np.sum((na + 1.0) * np.abs(self.fCoeffs) ** 2)
                     - np.sum((nb[1:] - 1.0) * np.abs(self.gCoeffs[1:]) ** 2))


def welding_decompose(w: QCMap, truncation: int = 32, *,
                      tol: float = 1e-6) -> WeldingData:
    """Extract the welding factorization from a Model A solution.

    fCoeffs come from the exact interior Taylor data; gCoeffs from a
    least-squares fit of the exterior series on the welded circle
    samples (Tikhonov damped).  Raises FitFailure when the boundary
    residual exceeds tol.
    """
    if w.normalization != "ModelA":
        raise ValueError("welding_decompose needs a Model A solution")
    fcoeffs = _taylor_from_tail(w._series.tail, truncation)
    boundary = w._dress["boundary"]
    psi = w._dress["psi_point"]
    gamma = np.conj(psi) * _phi_eval(w._dress["phi"], boundary)
    powers = np.column_stack([gamma ** (1 - n) for n in range(truncation + 1)])
    lam = math.sqrt(1e-12)
    mat = np.vstack([powers, lam * np.eye(truncation + 1, dtype=complex)])
    rhs = np.concatenate([boundary, np.zeros(truncation + 1, dtype=complex)])
    gcoeffs, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    resid = float(np.max(np.abs(powers @ gcoeffs - boundary)))
    if resid > tol:
        raise FitFailure(f"welding boundary residual {resid:.3e} exceeds {tol:.1e}")
    capacity = float(abs(gcoeffs[0]))
    return WeldingData(fCoeffs=fcoeffs, gCoeffs=gcoeffs, capacity=capacity,
                       potentialK=math.log(capacity), fitResidual=resid)
