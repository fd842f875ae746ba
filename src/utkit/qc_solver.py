"""Beltrami equation solver, Schwarzian pipeline, and conformal welding.

The quasiconformal unknown is carried under the inversion z -> 1/z, so
the dilatation lives on the unit disk where every Neumann iterate is a
polynomial-with-logs density whose Cauchy transform stays closed form
(see the _bipoly module).  The exterior principal part of that series
yields exact normalization jets for the interior conformal restriction,
and the first dropped iterate is, identically, the Beltrami residual of
the truncated solution.

The solver's iterates go through the exact term algebra, which is
evaluated by the points asked for: on the nodes of a polar rule with one
FFT per ring (BiPoly.eval_rule), at arbitrary points (_SeriesState.w,
which QCMap.evaluate and the Model A dressing use) with polyval2d
(BiPoly.eval).  The series is evaluated on two rules only: each iterate
once on a coarse probe rule, which gives both its residual and its L2
norm, and on the solver's rule when the probe passes, which gives the
residual that is reported and the grid samples.  Grid samples are
transformed mode by mode in the quadrature module, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._bipoly import BiPoly, eval_principal
from ._util import as_count, check_finite, pairwise_dot
from .errors import (
    CriticalPoint,
    DomainMismatch,
    FitFailure,
    NoConvergence,
    NonFiniteValue,
    NormTooLarge,
)
from .geometry import INF, Domain, MoebiusMap
from .quadrature import GridFunction, QuadRule
from .series import BeltramiField, HoloCoeffs

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
    return BiPoly(arr[None], 0, -1).prune(), resid


def _tail_derivative(tail):
    # d/dz of sum t[p] z^(-p-1) re-expressed in the same principal basis
    out = np.zeros(tail.size + 1, dtype=complex)
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
            return BiPoly(), 0.0
        c = -0.5 * (n**3 - n) * mu.a[mu.a != 0]
        arr = np.zeros((1, 3, n[-1] - n[0] + 3), dtype=complex)
        rows = np.arange(3)[:, None]
        arr[0, rows, n - n[0] + rows] = np.array([[1.0], [-2.0], [1.0]]) * c
        return BiPoly(arr, 0, n[0] - 2), 0.0
    pulled = mu.iota_star()
    return _fit_bipoly(pulled.grid, *degrees)


class _SeriesState:
    """Accumulated Neumann data: w~(zeta) = zeta + interior(zeta) on the
    disk, zeta + principal tail outside, and the next iterate h, which
    is identically the residual density of the truncation.  w evaluates
    the Model B map they define at arbitrary points."""

    def __init__(self, nu: BiPoly):
        self.nu = nu
        self.interior = BiPoly()
        self.tail = np.zeros(0, dtype=complex)
        self.h = nu
        self.terms = 0
        self.ratios = []

    def push(self):
        pk, tk = self.h.cauchy()
        self.interior = self.interior + pk
        tail = np.zeros(max(tk.size, self.tail.size), dtype=complex)
        tail[:self.tail.size] = self.tail
        tail[:tk.size] += tk
        self.tail = tail
        self.h = (self.nu * pk.dz()).prune()
        self.terms += 1

    def w(self, z):
        """The Model B map w(z) = 1/w~(1/z) at the points of the array z:
        through the principal tail inside the disk, where w(0) = 0, and
        through the interior density outside it; w(inf) = 1/w~(0), from
        the interior's constant term (INF if 0, as for harmonic fields)."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        inside = np.abs(z) <= 1.0
        far = np.isinf(z)
        pick = inside & (z != 0)
        if pick.any():
            zeta = 1.0 / z[pick]
            out[pick] = 1.0 / (eval_principal(self.tail, zeta) + zeta)
        outside = ~(inside | far)
        if outside.any():
            zeta = 1.0 / z[outside]
            out[outside] = 1.0 / (zeta + self.interior.eval(zeta))
        out[far] = INF if (w0 := self.interior.coeff(0, 0)) == 0 else 1.0 / w0
        return out

    def residual_sup(self, rule: QuadRule):
        """(sup |w_zbar - mu w_z|, L2 norm of h over the disk, w~(1/z),
        the residual field) of the truncated map on the exterior nodes of
        rule, from one evaluation of each of w~ and h there.

        The residual is -h(1/z) / (zbar^2 w~(1/z)^2), with 1/z running
        over the conjugated disk nodes; the norm is
        sqrt(2 pi / M sum_k w_k sum_j |h_kj|^2) by the rule's weights w_k
        and its M angles."""
        # in place where it can be: on the solver's rule every fresh
        # array is a fresh mapping of pages; the nodes are shared and
        # read-only
        disk = rule.nodes()
        wt = self.interior.eval_rule(rule, conjugate=True)
        wt.real += disk.real
        wt.imag -= disk.imag
        field = self.h.eval_rule(rule, conjugate=True)
        flat = field.view(float)
        ring = np.einsum("kj,kj->k", flat, flat)
        l2 = math.sqrt(2.0 * math.pi / rule.angular_count
                       * float(pairwise_dot(rule.radial_weights, ring).real))
        np.negative(field, out=field)
        field *= np.square(disk)
        field /= wt * wt
        return float(np.max(np.abs(field))), l2, wt, field


def _run_series(nu: BiPoly, sup_mu: float, tol: float, rule: QuadRule,
                probe_rule: QuadRule):
    """The Neumann series to a residual of at most tol on rule within
    _MAX_TERMS terms: the state with residual_sup's outputs on rule."""
    state = _SeriesState(nu)
    prev = None
    cap = min(0.95, _CONTRACTION_CAP * max(sup_mu, 1e-30))
    while True:
        probe, hn, _, _ = state.residual_sup(probe_rule)
        if probe <= 0.3 * tol:
            residual, _, wt, field = state.residual_sup(rule)
            if residual <= tol:
                return state, residual, wt, field
        if prev is not None and prev > 0.0:
            ratio = hn / prev
            state.ratios.append(ratio)
            if state.terms >= 3 and ratio > cap:
                raise NoConvergence(
                    f"series ratio {ratio:.3f} broke the contraction bound {cap:.3f}")
        if state.terms >= _MAX_TERMS:
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
    """1/conj(z) over an array, which exchanges 0 and INF."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(z == 0, INF, 1.0 / np.conj(z))


def _phi_eval(phi, w, deriv: bool = False):
    """Phi(w) = A1 w exp(h(w)) with h = sum_k c_k w^-k, Phi(INF) = INF, and
    with deriv also Phi'(w) = Phi(w) (1/w + h'(w)) at finite w; h is a
    principal part, summed by eval_principal."""
    a1, c = phi
    w = np.asarray(w, dtype=complex)
    out = np.exp(eval_principal(c, w))
    with np.errstate(invalid="ignore"):
        out *= w
        out *= a1
    if not deriv:
        return np.where(np.isinf(w), INF, out)
    return out, out * (1.0 / w + eval_principal(_tail_derivative(c), w))


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

    def evaluate(self, z):
        """w at any points of the sphere (scalar or ndarray), a point with an
        infinite part being infinity; NaN raises NonFiniteValue.  Model B is
        _SeriesState.w: w(0) = 0 and w(inf) = 1/w~(0).  Model A is
        mhat(Phi(w_B(z))) for abs(z) >= 1 and its reflection
        1/conj(w(1/conj(z))) inside, so w(0) = 1/conj(w(inf)) exactly, and
        w(inf) = mhat(INF) = a/conj(b) when w_B(inf) = INF, as for every
        harmonic field."""
        z = np.asarray(z, dtype=complex)
        if np.isnan(z).any():
            raise NonFiniteValue("evaluation point is NaN")
        # 1-d for every shape: numpy's scalar arithmetic rounds otherwise
        flat = z.ravel()
        if self.normalization == "ModelB":
            vals = self._series.w(flat)
        else:
            inside = np.abs(flat) < 1.0
            vals = self._dress["mhat"].apply(_phi_eval(
                self._dress["phi"], self._series.w(np.where(inside, _reflect(flat), flat))))
            vals = np.where(inside, _reflect(vals), vals)
        return complex(vals[0]) if z.ndim == 0 else vals.reshape(z.shape)


def _circle_taylor(values, r: float, count: int):
    """Taylor coefficients 0..count-1 of a holomorphic function from its M
    samples at uniform angles on abs(z) = r: one FFT, divided by M and r^k."""
    return np.fft.fft(values)[:count] / values.size / r ** np.arange(count)


def _interior_jets(w) -> dict:
    """Numerical jets at 0 of the evaluator w, read off a small circle,
    independently of the series bookkeeping that enforces them."""
    r = 1e-2
    c = _circle_taylor(w(r * np.exp(2j * math.pi * np.arange(8) / 8)), r, 3)
    return {
        "w(0)": float(abs(c[0])),
        "w'(0)-1": float(abs(c[1] - 1.0)),
        "w''(0)": float(abs(2.0 * c[2])),
    }


def _normal_solve(mat, rhs, damping: float = 0.0):
    """x minimizing |mat x - rhs|^2 + damping |x|^2, from the normal
    equations (mat^H mat + damping I) x = mat^H rhs by one Cholesky
    factor L L^H of the Gram matrix and two triangular solves.

    Raises LinAlgError when the Gram matrix is not positive definite; a
    NaN in it passes through the factorization into x.
    """
    adj = mat.conj().T
    gram = adj @ mat
    gram.flat[::gram.shape[0] + 1] += damping
    factor = np.linalg.cholesky(gram)
    return np.linalg.solve(factor.conj().T, np.linalg.solve(factor, adj @ rhs))


def _exterior_riemann(boundary, k_neg: int):
    """Fit Phi(w) = A1 w exp(sum_k c_k w^-k), k = 1..k_neg, mapping the
    outside of the sampled curve onto the outside of the unit circle,
    with Phi(inf) = inf and A1 real positive as gauge.

    log|Phi| is the Green's function of the exterior domain with its pole
    at infinity, so |Phi| = 1 on the curve is linear in (log A1, Re c_k,
    Im c_k): one real least-squares problem, solved by its normal
    equations and one Cholesky factor (the columns [1, Re w^-k, -Im w^-k]
    are well conditioned on a curve near the circle).  Needs at least
    2 k_neg + 1 samples.  Returns ((A1, c), the sup of abs(abs(Phi) - 1)
    over the samples); raises NoConvergence on a non-finite sample, when
    the Gram matrix is singular, or when that sup exceeds _PHI_ACCEPT or
    is NaN.
    """
    if not np.isfinite(boundary).all():
        raise NoConvergence("exterior Riemann fit: non-finite boundary sample")
    # the pairs (Re w^-k, -Im w^-k) are conj(w)^-k, run straight into
    # the matrix through a complex view of its last 2 k_neg columns
    mat = np.empty((boundary.size, 2 * k_neg + 1))
    mat[:, 0] = 1.0
    np.cumprod(np.broadcast_to(1.0 / np.conj(boundary)[:, None],
                               (boundary.size, k_neg)),
               axis=1, out=mat[:, 1:].view(complex))
    rhs = -np.log(np.abs(boundary))
    try:
        sol = _normal_solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"exterior Riemann fit failed: {exc}") from None
    resid = float(np.max(np.abs(np.expm1(mat @ sol - rhs))))
    if not resid <= _PHI_ACCEPT:
        raise NoConvergence(f"exterior Riemann fit residual {resid:.2e}")
    return (math.exp(sol[0]), sol[1::2] + 1j * sol[2::2]), resid


def solve_beltrami(mu: BeltramiField, normalization: str = "ModelB",
                   tol: float = 1e-8, *, rule: QuadRule | None = None) -> QCMap:
    """Solve w_zbar = mu w_z for a dilatation supported on the exterior
    disk, normalized per Model A (fixes -1, -i, 1; symmetric under
    circle reflection) or Model B (conformal inside with w(0) = 0,
    w'(0) = 1, w''(0) = 0).  Raises ValueError unless 0 < tol < inf,
    NonFiniteValue on a non-finite coefficient or sample of mu, and
    NoConvergence past _MAX_TERMS series terms."""
    if normalization not in ("ModelA", "ModelB"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, not {tol!r}")
    check_finite(mu.a if mu.is_harmonic else mu.grid.values,
                 "dilatation coefficient or sample")
    sup = mu.sup_norm()
    if sup > 0.5 + 1e-12:
        raise NormTooLarge(f"sup|mu| = {sup:.4f} exceeds the solver cap 0.5")
    rule = rule if rule is not None else QuadRule(64, 128)
    nu, fit_resid = _nu_from_mu(mu, _FIT_DEGREES)
    # Model A dressing scales the residual by |mhat' Phi'|, so leave margin
    eff_tol = tol if normalization == "ModelB" else 0.25 * tol
    state, residual, wt, res_field = _run_series(nu, sup, eff_tol, rule, QuadRule(12, 24))
    c_eff = max(state.ratios) / sup if (state.ratios and sup > 0) else 0.0

    ext_vals = 1.0 / wt

    if normalization == "ModelB":
        # w = 1/w~(1/z) = 1/(1/z + sum_p tail[p] z^(p+1)) on the disk nodes,
        # the sum by one FFT per ring and the rest in place: on the
        # solver's rule every fresh array is a fresh mapping of pages
        disk_vals = BiPoly(state.tail[None, :, None], 1, 0).eval_rule(rule)
        disk_vals += 1.0 / rule.nodes()
        np.divide(1.0, disk_vals, out=disk_vals)
        checks = _interior_jets(state.w)
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
    boundary = state.w(circle)
    # small rules have fewer samples than the full fit has unknowns
    k_neg = min(_PHI_TRUNCATION, (m_samples - 2) // 2)
    phi, phi_resid = _exterior_riemann(boundary, k_neg)
    targets = np.array([-1.0 + 0j, -1j, 1.0 + 0j])
    phi_anchor = _phi_eval(phi, state.w(targets))
    phi_anchor = phi_anchor / np.abs(phi_anchor)
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


def schwarzian(f, z):
    """S(f) = f'''/f' - (3/2)(f''/f')^2 at the given points.

    Coefficient inputs are differentiated exactly; grid inputs are read
    off their outermost ring first, to degree min(M/2, 64) - 1 for M
    angles.  Raises CriticalPoint where |f'| < 1e-12.
    """
    if not isinstance(f, (HoloCoeffs, GridFunction)):
        raise TypeError("schwarzian takes HoloCoeffs or a sampled grid")
    if f.domain is not Domain.UNIT_DISK:
        raise DomainMismatch("schwarzian expansion lives on the disk")
    if isinstance(f, GridFunction):
        f = HoloCoeffs(Domain.UNIT_DISK, _circle_taylor(
            f.values[-1], float(f.rule.radii[-1]), min(f.rule.angular_count // 2, 64)))
    c = np.asarray(f.coeffs, dtype=complex)
    d1, d2, d3 = _polyder(c), _polyder(c, 2), _polyder(c, 3)
    z = np.asarray(z, dtype=complex)
    fp = _polyval(z, d1)
    if np.any(np.abs(fp) < 1e-12):
        raise CriticalPoint("derivative vanishes at a requested point")
    out = _polyval(z, d3) / fp - 1.5 * (_polyval(z, d2) / fp) ** 2
    return complex(out) if z.ndim == 0 else out


def bers_embedding(mu: BeltramiField, *, truncation: int = 40,
                   rule: QuadRule | None = None) -> HoloCoeffs:
    """Schwarzian of the interior conformal restriction of the Model B
    solution to a residual of 1e-9, as Taylor coefficients on the disk.
    A truncation below 0 raises ValueError."""
    truncation = as_count(truncation, "truncation")
    qc = solve_beltrami(mu, "ModelB", 1e-9,
                        rule=rule if rule is not None else QuadRule(24, 48))
    # S(f) = u' - u^2/2 with u = f''/f', which S needs to degree count
    count = truncation + 1
    a = _taylor_from_tail(qc._series.tail, count + 1)
    n = np.arange(a.size, dtype=float)
    u = _poly_div_trunc(((n + 1.0) * n * a)[1:], ((n + 1.0) * a)[:count + 1], count)
    s = n[1:count + 1] * u[1:] - 0.5 * np.convolve(u, u)[:count]
    return HoloCoeffs(Domain.UNIT_DISK, s)


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
    samples, Tikhonov damped: its normal equations carry lambda^2 = 1e-12
    on the Gram diagonal and are solved by one Cholesky factor.  Raises
    ValueError on a truncation below 0 or unless tol > 0 (tol = inf keeps
    every fit), and FitFailure on a non-finite boundary sample, when the
    Gram matrix cannot be factored, or when the boundary residual exceeds
    tol or is NaN.
    """
    if w.normalization != "ModelA":
        raise ValueError("welding_decompose needs a Model A solution")
    truncation = as_count(truncation, "truncation")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, not {tol!r}")
    fcoeffs = _taylor_from_tail(w._series.tail, truncation)
    boundary = w._dress["boundary"]
    if not np.isfinite(boundary).all():
        raise FitFailure("welding fit: non-finite boundary sample")
    psi = w._dress["psi_point"]
    gamma = np.conj(psi) * _phi_eval(w._dress["phi"], boundary)
    # columns gamma^(1 - n), n = 0..truncation: gamma, then a running
    # product of 1/gamma from 1
    powers = np.empty((gamma.size, truncation + 1), dtype=complex)
    powers[:, 0] = gamma
    powers[:, 1:] = (1.0 / gamma)[:, None]
    powers[:, 1:2] = 1.0
    np.cumprod(powers[:, 1:], axis=1, out=powers[:, 1:])
    try:
        gcoeffs = _normal_solve(powers, boundary, damping=1e-12)
    except np.linalg.LinAlgError as exc:
        raise FitFailure(f"welding fit failed: {exc}") from None
    resid = float(np.max(np.abs(powers @ gcoeffs - boundary)))
    if not resid <= tol:
        raise FitFailure(f"welding boundary residual {resid:.3e} exceeds {tol:.1e}")
    capacity = float(abs(gcoeffs[0]))
    return WeldingData(fCoeffs=fcoeffs, gCoeffs=gcoeffs, capacity=capacity,
                       potentialK=math.log(capacity), fitResidual=resid)
