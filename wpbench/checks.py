"""Oracles for the benchmark's checks.

Every function here judges a program output by a computation made apart
from the code path being timed: closed forms, identities the method must
satisfy, or finite differences of the solved map.  Each returns a relative
error; the caller compares it with the limit stated next to the operation.
Only numpy is used, so a check cannot share a fault with the solver.
"""

from __future__ import annotations

import math

import numpy as np

_polyval = np.polynomial.polynomial.polyval

# sixth-order central first-derivative stencil: offsets and weights / (60 h)
_FD_OFFSETS = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
_FD_WEIGHTS = np.array([-1.0, 9.0, -45.0, 45.0, -9.0, 1.0]) / 60.0
_FD_STEP = 1e-3


def disk_sample_points(radial: int = 48, angular: int = 96) -> np.ndarray:
    """Polar sample of the closed disk minus the circle, for weighted sups."""
    r = (np.arange(radial) + 0.5) / radial
    t = 2.0 * math.pi * np.arange(angular) / angular
    return (r[:, None] * np.exp(1j * t)[None, :]).ravel()


def weighted_sup(coeffs, pts) -> float:
    """max (1 - |z|^2)^2 |sum c_k z^k| over the sample points."""
    vals = _polyval(pts, np.asarray(coeffs, dtype=complex))
    return float(np.max(np.square(1.0 - np.abs(pts) ** 2) * np.abs(vals)))


def holo_rel_error(got, want, pts) -> float:
    """Weighted-sup distance of two Taylor vectors, relative to the second."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    size = max(got.size, want.size)
    diff = np.zeros(size, dtype=complex)
    diff[:got.size] += got
    diff[:want.size] -= want
    return weighted_sup(diff, pts) / weighted_sup(want, pts)


def harmonic_mu(a, z) -> np.ndarray:
    """-(1/2)(1 - |z|^2)^2 sum (n^3 - n) a_n conj(z)^(-n-2) on |z| > 1."""
    a = np.asarray(a, dtype=complex)
    n = np.arange(2, a.size + 2)
    zc = np.conj(np.asarray(z, dtype=complex))[..., None]
    series = np.sum((n**3 - n) * a * zc ** (-(n + 2.0)), axis=-1)
    return -0.5 * np.square(1.0 - np.abs(z) ** 2) * series


def lambda_coeffs(phi) -> np.ndarray:
    """Storage coefficients a_n = phi_(n-2) / (n^3 - n) of the weight map."""
    phi = np.asarray(phi, dtype=complex)
    n = np.arange(2, phi.size + 2)
    return phi / (n**3 - n)


def _fd_partials(w, z):
    """(w_x, w_y) of a callable map at points z by the sixth-order stencil."""
    z = np.asarray(z, dtype=complex)
    steps = _FD_OFFSETS * _FD_STEP
    px = w(z[:, None] + steps[None, :])
    py = w(z[:, None] + 1j * steps[None, :])
    wx = px @ _FD_WEIGHTS / _FD_STEP
    wy = py @ _FD_WEIGHTS / _FD_STEP
    return wx, wy


def beltrami_residual(w, mu_values, z) -> float:
    """max |w_zbar - mu w_z| / max |w_z| at z, derivatives by differences."""
    wx, wy = _fd_partials(w, z)
    wz = 0.5 * (wx - 1j * wy)
    wzb = 0.5 * (wx + 1j * wy)
    return float(np.max(np.abs(wzb - mu_values * wz)) / np.max(np.abs(wz)))


def jet_error(w, radius: float = 0.05, count: int = 16) -> float:
    """Largest of |w(0)|, |w'(0) - 1| and |w''(0)|, the Model B jets, read
    off the discrete Fourier modes of w on a small circle."""
    pts = radius * np.exp(2j * math.pi * np.arange(count) / count)
    modes = np.fft.fft(w(pts)) / count
    w0 = abs(modes[0])
    w1 = abs(modes[1] / radius - 1.0)
    w2 = abs(2.0 * modes[2] / radius**2)
    return float(max(w0, w1, w2))


def radial_exact(k: float, z) -> np.ndarray:
    """Model B solution of mu = k z/zbar on |z| > 1: z inside, z|z|^(2k/(1-k))
    outside."""
    z = np.asarray(z, dtype=complex)
    return np.where(np.abs(z) <= 1.0, z, z * np.abs(z) ** (2.0 * k / (1.0 - k)))


def radial_sup(profile, count: int = 4001) -> float:
    """sup abs(profile(r)) over 0 <= r <= 1, sampled."""
    return float(np.max(np.abs(profile(np.linspace(0.0, 1.0, count)))))


def max_rel_error(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return float(np.max(np.abs(got - want) / np.abs(want)))


def fixed_point_error(w) -> float:
    """Model A pins -1, -i and 1."""
    pins = np.array([-1.0 + 0j, -1j, 1.0 + 0j])
    return float(np.max(np.abs(w(pins) - pins)))


def reflection_error(w, z) -> float:
    """Defect of 1/w(z) = conj(w(1/conj(z))), relative to |1/w(z)|."""
    z = np.asarray(z, dtype=complex)
    inside = 1.0 / w(z)
    outside = np.conj(w(1.0 / np.conj(z)))
    return max_rel_error(outside, inside)


def area_defect(f, g) -> float:
    """|b0|^2 - sum (n+1)|a_n|^2 - sum (n-1)|b_n|^2, relative to |b0|^2."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    na = np.arange(f.size, dtype=float)
    nb = np.arange(g.size, dtype=float)
    lhs = abs(g[0]) ** 2
    rhs = np.sum((na + 1.0) * np.abs(f) ** 2) + np.sum((nb[1:] - 1.0) * np.abs(g[1:]) ** 2)
    return float(abs(lhs - rhs) / lhs)


def hermitian_error(m) -> float:
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T)) / np.max(np.abs(m)))


def psd_defect(m) -> float:
    """How far the Hermitian part reaches below zero, relative to its top
    eigenvalue; 0 for a positive semidefinite matrix."""
    m = np.asarray(m, dtype=complex)
    ev = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return float(max(0.0, -ev[0]) / max(abs(ev[-1]), np.finfo(float).tiny))


def d0_closed(a, count: int) -> np.ndarray:
    """Closed form of the origin differential: c_(n-2) = (n^3 - n) a_n."""
    a = np.asarray(a, dtype=complex)
    n = np.arange(2, a.size + 2)
    out = np.zeros(count, dtype=complex)
    m = min(count, a.size)
    out[:m] = ((n**3 - n) * a)[:m]
    return out
