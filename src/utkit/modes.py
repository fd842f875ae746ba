"""Mode-reduced pairings against the resolvent kernel, in closed form.

On angular mode p the kernel G of D = -2 (Delta_0 - 2)^-1 reduces to
Ghat_p(r, s) = int_0^{2 pi} G(r, s e^{i psi}) e^{i p psi} dpsi
= 2 phi_p(min(r, s)) psi_p(max(r, s)), with phi_p = r^p ((1 + p) +
(1 - p) r^2) / (1 - r^2) regular at 0 and, in t = -log r, psi_p =
(p cosh(p t) - coth(t) sinh(p t)) / (p (p^2 - 1)) decaying at the circle
(psi_0 = t coth(t) - 1 and psi_1 = (sinh(2 t) - 2 t) / (4 sinh(t))).
With a = A rho r and b = conj(B) rho s, the pairing of A e^{i p theta} and
B e^{i p theta} is 4 pi int psi_p (a int_0^r phi_p b + b int_0^r phi_p a), by
cumulative radial sums: the semi-separable Green's function scheme of
Greengard and Rokhlin (Comm. Pure Appl. Math. 44, 1991), O(n) per pairing
with no kernel table.  phi_p(s) psi_p(r) is (s/r)^p times factors bounded
by 1, so r^-p never overflows; near r = 1 psi_p is a short series in t.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._util import gauss_legendre_01

_ORDER = 8
# between the outer radii no panel spans more than these ratios, in r toward
# 0 and in 1 - r toward 1; past the outermost radii panels grade by 4 to floors
_GRADING_0, _GRADING_1 = 2.0, 1.5
_FLOOR_0, _FLOOR_1 = 1e-6, 1e-8


def _cuts(near: float, far: float, ratio: float) -> np.ndarray:
    """Geometric cuts strictly between 0 < near < far, by at most ratio."""
    k = math.ceil(math.log(far / near, ratio) - 1e-9)
    return near * (far / near) ** (np.arange(1, k) / k)


def _psi_scaled(q: int, x) -> np.ndarray:
    """r^q psi_q(r), bounded on (0, 1]; a series of positive terms in t
    where max(q, 1) t < 1, since psi_q sinh(t) = sum_m c_m t^(2m+1) / (2m+1)!
    with c_m = ((q+1)^(2m) - (q-1)^(2m)) / (2q), and c_m = 2m at q = 0.
    The c_m are exact in Python ints; a numpy int q would overflow them."""
    q = int(q)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = -np.log(x)
    near = max(q, 1) * t < 1.0
    tn, tf, xf = t[near], t[~near], x[~near]
    series = [(((q + 1) ** (2 * m) - (q - 1) ** (2 * m)) // (2 * q) if q else 2 * m)
              / math.factorial(2 * m + 1) for m in range(1, 15)]
    out = np.empty_like(t)
    out[near] = (np.exp(-q * tn) * tn ** 3 / np.sinh(tn)
                 * np.polynomial.polynomial.polyval(tn * tn, series))
    coth = 1.0 + 2.0 * xf * xf / ((1.0 - xf) * (1.0 + xf))
    e = np.exp(-2.0 * max(q, 1) * tf)
    out[~near] = (tf * coth - 1.0 if q == 0 else
                  (1.0 - e * e - 4.0 * tf * e) / (4.0 * (1.0 - e)) if q == 1 else
                  (q * (1.0 + e) - coth * (1.0 - e)) / (2.0 * q * (q * q - 1.0)))
    return out


def _phi_scaled(q: int, x) -> np.ndarray:
    return 2.0 / ((1.0 - x) * (1.0 + x)) + (q - 1.0)   # r^-q phi_q(r)


def mode_kernel(p: int, r, s) -> np.ndarray:
    """Ghat_p(r, s) = 2 phi_p(min(r, s)) psi_p(max(r, s)), for 0 < r, s < 1."""
    lo, hi = np.minimum(r, s), np.maximum(r, s)
    return 2.0 * (lo / hi) ** abs(p) * _phi_scaled(abs(p), lo) * _psi_scaled(abs(p), hi)


class ModeTable:
    """The radial rule of the mode engine and its per-mode weights, built
    on first use.  ``r`` holds the 64 Gauss-Legendre radii on [0, 1] at
    which ``gfield_radial`` samples; they and geometric cuts toward 0 and 1
    are the panel ends of the composite Gauss-Legendre rule on nodes ``s``.
    """

    def __init__(self):
        r = self.r = gauss_legendre_01(64)[0]
        self.ends = np.sort(np.concatenate(
            [[0.0, _FLOOR_0, 1.0 - _FLOOR_1, 1.0], r, _cuts(_FLOOR_0, r[0], 4.0),
             1.0 - _cuts(_FLOOR_1, 1.0 - r[-1], 4.0)]
            + [_cuts(a, b, _GRADING_0) if b <= 0.5 else 1.0 - _cuts(1.0 - b, 1.0 - a, _GRADING_1)
               for a, b in zip(r[:-1], r[1:])]))
        self.xg, self.wg = gauss_legendre_01(_ORDER)
        width = np.diff(self.ends)[:, None]
        self.s = (self.ends[:-1, None] + width * self.xg).ravel()
        self.weights = (width * self.wg).ravel()
        # rho(s) s, with 1 - s^2 taken as (1 - s)(1 + s) near the circle
        self.measure = 4.0 * self.s / np.square((1.0 - self.s) * (1.0 + self.s))

    # 172 KB per mode: a pass over many modes (a Ricci sum) uses each once
    @lru_cache(maxsize=16)
    def mode(self, q: int):
        """Weights of mode q >= 0, built on first use; the 16 modes used
        last are kept.  With phi~ = s^-q phi_q, on panel [L, R] the
        prefix sum at a node x is int_0^x (s/x)^q phi~ f ds = (L/x)^q Y + int_L^x ...,
        Y = sum over earlier panels Q of (R_Q/L)^q int_Q (s/R_Q)^q phi~ f ds;
        every factor is at most 1, and a Gauss rule of q/2 + o nodes takes
        int_L^x exactly on the panel's interpolant."""
        x, lo = self.s.reshape(-1, _ORDER), self.ends[:-1, None]
        leg = np.polynomial.legendre
        eta, omega = gauss_legendre_01(q // 2 + _ORDER)
        basis = leg.legvander(2.0 * self.xg[:, None] * eta - 1.0, _ORDER - 1) @ np.linalg.inv(
            leg.legvander(2.0 * self.xg - 1.0, _ORDER - 1))
        ratio = (lo[..., None] + (x - lo)[..., None] * eta) / x[..., None]
        inside = np.einsum("pjn,jnk->pjk", ratio ** q * (self.xg[:, None] * omega),
                           basis) * np.diff(self.ends)[:, None, None]
        totals = self.weights.reshape(x.shape) * (x / self.ends[1:, None]) ** q
        earlier = np.tri(lo.size, k=-1, dtype=bool)
        prefix = np.where(earlier, np.where(earlier, self.ends[None, 1:] / np.maximum(
            lo, self.ends[1]), 1.0) ** q, 0.0)
        psi = np.repeat(4.0 * math.pi * self.weights * _psi_scaled(q, self.s)
                        * self.measure, 4)
        return (np.repeat(_phi_scaled(q, self.s) * self.measure, 2),
                np.concatenate([inside, totals[:, None, :]], axis=1),
                psi * np.repeat((lo / x).ravel() ** q, 4), prefix, psi)


@lru_cache(maxsize=1)
def _shared_table() -> ModeTable:
    return ModeTable()


def mode_table(p_max: int) -> ModeTable:
    """The one shared mode table.  It has no mode cap: p_max is accepted for
    compatibility, and each mode's weights are built on its first use."""
    return _shared_table()


def pair_profiles(table: ModeTable, p: int, profile_a, profile_b) -> complex:
    """(a, G b) for a = A(r) e^{i p theta}, b = B(r) e^{i p theta}, the
    second profile conjugated (sesquilinear); profiles are vectorized
    callables of the radius.  Swapping them conjugates the result exactly."""
    phi, panel_w, lam, prefix, psi = table.mode(abs(p))
    v = np.empty((table.s.size, 2), dtype=complex)
    v[:, 0], v[:, 1] = profile_a(table.s), np.conj(profile_b(table.s))
    # psi J_a, psi J_b on the real lanes (Re, Im) x (a, b), panel by panel
    panels = panel_w @ (phi * v.ravel()).view(float).reshape(-1, _ORDER, 4)
    before = np.repeat(prefix @ panels[:, -1], _ORDER, axis=0)
    m = v.T @ (psi * panels[:, :-1].ravel() + lam * before.ravel()).view(complex).reshape(-1, 2)
    return complex(m[0, 1] + m[1, 0])


def gfield_radial(table: ModeTable, q: int, profile_b) -> np.ndarray:
    """g(r) at the radii ``table.r``, where (G b)(r e^{i theta}) = e^{i q theta}
    g(r) for b = B(r) e^{i q theta}; the radii are panel ends, so the kink of
    Ghat_q at s = r costs the rule no order.  Eight radii at a time."""
    b = table.weights * table.measure * np.asarray(profile_b(table.s), dtype=complex)
    return np.concatenate([mode_kernel(q, r[:, None], table.s) @ b
                           for r in np.split(table.r, 8)])
