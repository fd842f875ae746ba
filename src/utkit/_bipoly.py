"""Polynomial densities in z and conj(z) with log|z| factors.

The Cauchy transform over the unit disk of a term z**a * conj(z)**b *
log|z|**j is again a finite sum of such terms inside the disk, plus a
pure principal part (powers z**(-p-1)) outside.  Keeping the whole
Beltrami iteration inside this term algebra makes normalization jets
and residual identities exact rather than approximate.

Exponents a, b are integers of either sign; the log power j is a
nonnegative integer.  Each log level is stored as a dense complex
coefficient array together with its (a, b) offsets.

Evaluation on the nodes r_k exp(+-2 pi i l/M) of a polar rule groups
the terms by angular mode a - b and takes one FFT per ring (eval_rule),
at about nnz * R + R * M log M cost; arbitrary points go through
polyval2d (eval), at nnz cost per point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteValue

__all__ = ["BiPoly", "eval_principal"]

_polyval2d = np.polynomial.polynomial.polyval2d


def _merge(block1, block2):
    arr1, am1, bm1 = block1
    arr2, am2, bm2 = block2
    amin = min(am1, am2)
    bmin = min(bm1, bm2)
    amax = max(am1 + arr1.shape[0], am2 + arr2.shape[0])
    bmax = max(bm1 + arr1.shape[1], bm2 + arr2.shape[1])
    arr = np.zeros((amax - amin, bmax - bmin), dtype=complex)
    arr[am1 - amin:am1 - amin + arr1.shape[0],
        bm1 - bmin:bm1 - bmin + arr1.shape[1]] += arr1
    arr[am2 - amin:am2 - amin + arr2.shape[0],
        bm2 - bmin:bm2 - bmin + arr2.shape[1]] += arr2
    return arr, amin, bmin


def _acc(levels, j, block):
    arr = np.ascontiguousarray(block[0], dtype=complex)
    block = (arr, block[1], block[2])
    levels[j] = block if j not in levels else _merge(levels[j], block)


class BiPoly:
    """Finite sum of terms coef * z**a * conj(z)**b * log|z|**j."""

    __slots__ = ("_levels",)

    def __init__(self, levels=None):
        # levels: dict j -> (complex 2d array, amin, bmin), taken by reference
        self._levels = levels if levels is not None else {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_term(cls, coef, a, b, j=0):
        if j < 0:
            raise ValueError("log power must be nonnegative")
        arr = np.array([[coef]], dtype=complex)
        return cls({j: (arr, int(a), int(b))})

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self):
        return all(not np.count_nonzero(arr) for arr, _, _ in self._levels.values())

    def terms(self):
        """Yield (coef, a, b, j) for every stored nonzero coefficient."""
        for j in sorted(self._levels):
            arr, amin, bmin = self._levels[j]
            for ia, ib in zip(*np.nonzero(arr)):
                yield complex(arr[ia, ib]), amin + int(ia), bmin + int(ib), j

    def coeff(self, a, b, j=0):
        if j not in self._levels:
            return 0j
        arr, amin, bmin = self._levels[j]
        ia, ib = a - amin, b - bmin
        if 0 <= ia < arr.shape[0] and 0 <= ib < arr.shape[1]:
            return complex(arr[ia, ib])
        return 0j

    def nnz(self):
        return sum(int(np.count_nonzero(arr)) for arr, _, _ in self._levels.values())

    def max_abs(self):
        tops = [float(np.abs(arr).max()) for arr, _, _ in self._levels.values()
                if arr.size]
        return max(tops, default=0.0)

    def __repr__(self):
        return "BiPoly(nnz=%d, levels=%s)" % (self.nnz(), sorted(self._levels))

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = {}
        for src in (self._levels, other._levels):
            for j, (arr, amin, bmin) in src.items():
                _acc(out, j, (arr.copy(), amin, bmin))
        return BiPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self * (-1.0)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            return self._mul_bipoly(other)
        c = complex(other)
        return BiPoly({j: (arr * c, amin, bmin)
                       for j, (arr, amin, bmin) in self._levels.items()})

    __rmul__ = __mul__

    def _mul_bipoly(self, other):
        out = {}
        for j1, (arr1, am1, bm1) in self._levels.items():
            for j2, (arr2, am2, bm2) in other._levels.items():
                # accumulate shifted copies of the denser factor
                if np.count_nonzero(arr1) <= np.count_nonzero(arr2):
                    small, big = arr1, arr2
                else:
                    small, big = arr2, arr1
                conv = np.zeros((arr1.shape[0] + arr2.shape[0] - 1,
                                 arr1.shape[1] + arr2.shape[1] - 1), dtype=complex)
                h, w = big.shape
                for ia, ib in zip(*np.nonzero(small)):
                    conv[ia:ia + h, ib:ib + w] += small[ia, ib] * big
                _acc(out, j1 + j2, (conv, am1 + am2, bm1 + bm2))
        return BiPoly(out)

    def prune(self, rel=1e-18):
        """Drop coefficients below rel times the largest magnitude."""
        top = self.max_abs()
        if top == 0.0:
            return BiPoly()
        cut = rel * top
        out = {}
        for j, (arr, amin, bmin) in self._levels.items():
            keep = np.abs(arr) > cut
            if not keep.any():
                continue
            rows = np.nonzero(keep.any(axis=1))[0]
            cols = np.nonzero(keep.any(axis=0))[0]
            trimmed = np.where(keep, arr, 0)[rows[0]:rows[-1] + 1,
                                             cols[0]:cols[-1] + 1]
            out[j] = (np.ascontiguousarray(trimmed),
                      amin + int(rows[0]), bmin + int(cols[0]))
        return BiPoly(out)

    # -- calculus ------------------------------------------------------

    def dz(self):
        # d/dz (z^a zbar^b L^j) = a z^(a-1) zbar^b L^j + (j/2) z^(a-1) zbar^b L^(j-1)
        out = {}
        for j, (arr, amin, bmin) in self._levels.items():
            avals = np.arange(amin, amin + arr.shape[0], dtype=float)[:, None]
            power = arr * avals
            if np.count_nonzero(power):
                _acc(out, j, (power, amin - 1, bmin))
            if j > 0:
                _acc(out, j - 1, (arr * (j / 2.0), amin - 1, bmin))
        return BiPoly(out)

    def dzbar(self):
        out = {}
        for j, (arr, amin, bmin) in self._levels.items():
            bvals = np.arange(bmin, bmin + arr.shape[1], dtype=float)[None, :]
            power = arr * bvals
            if np.count_nonzero(power):
                _acc(out, j, (power, amin, bmin - 1))
            if j > 0:
                _acc(out, j - 1, (arr * (j / 2.0), amin, bmin - 1))
        return BiPoly(out)

    def cauchy(self):
        """Cauchy transform -(1/pi) * iint_D self(zeta)/(zeta - z) d2zeta.

        Returns (interior, principal): interior is a BiPoly valid for
        |z| <= 1 and principal[p] is the coefficient of z**(-p-1) valid
        for |z| >= 1.  Raises NonFiniteValue when a term makes the
        integral diverge at the origin (angular mode a - b <= 0 while
        b <= -1).
        """
        out = {}
        tail = {}
        for j, (arr, amin, bmin) in self._levels.items():
            na, nb = arr.shape
            avals = np.arange(amin, amin + na)
            bvals = np.arange(bmin, bmin + nb)
            mvals = avals[:, None] - bvals[None, :]
            bad = (arr != 0) & (mvals <= 0) & (bvals[None, :] <= -1)
            if bad.any():
                ia, ib = np.argwhere(bad)[0]
                raise NonFiniteValue(
                    "cauchy transform diverges for term z^%d zbar^%d log^%d"
                    % (avals[ia], bvals[ib], j))
            work = arr.copy()
            logcol = None
            if bmin <= -1 < bmin + nb:
                col = -1 - bmin
                logcol = work[:, col].copy()
                work[:, col] = 0
            # radial integral of r^(2b+1) L^i by parts; q = 2b + 2 != 0 here
            q = np.where(bvals == -1, 1.0, 2.0 * bvals + 2.0)
            fac = 1.0
            for i in range(j + 1):
                ci = (-1.0) ** i * fac / q ** (i + 1)
                blk = 2.0 * work * ci[None, :]
                if np.count_nonzero(blk):
                    _acc(out, j - i, (blk, amin, bmin + 1))
                fac *= (j - i)
            # constant of integration: holomorphic inside, principal outside
            f1 = (-1.0) ** j * math.factorial(j) / q ** (j + 1)
            cterm = 2.0 * work * f1[None, :]
            pos = (mvals >= 1) & (cterm != 0)
            if pos.any():
                mm = mvals[pos]
                vec = np.zeros((int(mm.max()), 1), dtype=complex)
                np.add.at(vec[:, 0], mm - 1, -cterm[pos])
                _acc(out, 0, (vec, 0, 0))
            neg = (mvals <= 0) & (cterm != 0)
            if neg.any():
                for p, c in zip(-mvals[neg], cterm[neg]):
                    tail[int(p)] = tail.get(int(p), 0j) + c
            # b == -1 column: the radial integral is a pure log power
            if logcol is not None and np.count_nonzero(logcol):
                _acc(out, j + 1, (2.0 * logcol[:, None] / (j + 1), amin, 0))
        principal = np.zeros(max(tail, default=-1) + 1, dtype=complex)
        for p, c in tail.items():
            principal[p] = c
        return BiPoly(out), principal

    # -- evaluation ----------------------------------------------------

    def eval(self, z):
        """Evaluate pointwise.

        Terms with negative exponents or log factors are singular at the
        origin; callers keep such evaluations away from z = 0.
        """
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zb = np.conj(z)
        total = np.zeros(z.shape, dtype=complex)
        if any(j > 0 for j in self._levels):
            with np.errstate(divide="ignore"):
                ell = np.log(np.abs(z))
        for j, (arr, amin, bmin) in self._levels.items():
            val = _polyval2d(z, zb, arr)
            pref = z ** amin * zb ** bmin
            if j:
                pref = pref * ell ** j
            total = total + pref * val
        return complex(total) if scalar else total

    def eval_rule(self, rule, conjugate=False):
        """Values at rule.nodes(), or at their conjugates, shape (R, M).

        On the ring r_k the terms of angular mode m = a - b collapse to
        one coefficient sum_s c[m, s] r_k**s (times log(r_k)**j), and
        on M equispaced angles mode m is indistinguishable from m mod M,
        so each ring costs one FFT of length M whatever the mode span.
        """
        radii = rule.radii
        m_count = rule.angular_count
        logr = np.log(radii)
        bins = np.zeros((radii.size, m_count), dtype=complex)
        for j, (arr, amin, bmin) in self._levels.items():
            na, nb = arr.shape
            ia = np.arange(na)[:, None]
            ib = np.arange(nb)[None, :]
            # shear (a, b) into (s, m) = (a + b, a - b), both offset to 0
            sheared = np.zeros((na + nb - 1, na + nb - 1), dtype=complex)
            sheared[ia + ib, ia - ib + nb - 1] = arr
            svals = np.arange(na + nb - 1) + (amin + bmin)
            per_mode = (radii[:, None] ** svals[None, :]) @ sheared
            if j:
                per_mode *= (logr ** j)[:, None]
            modes = np.arange(amin - bmin - nb + 1, amin - bmin + na) % m_count
            for start in range(0, modes.size, m_count):
                # M consecutive modes land in M distinct bins
                cols = slice(start, start + m_count)
                bins[:, modes[cols]] += per_mode[:, cols]
        if conjugate:
            return np.fft.fft(bins, axis=1)
        return m_count * np.fft.ifft(bins, axis=1)


def eval_principal(principal, z):
    """Evaluate sum_p principal[p] * z**(-p-1), the exterior branch of a
    Cauchy transform."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    out = np.zeros(z.shape, dtype=complex)
    if principal.size:
        w = 1.0 / z
        # Horner in place: on the solver's grids a fresh array per step
        # would be a fresh mapping of pages
        for c in principal[::-1]:
            out += c
            out *= w
    return complex(out) if scalar else out
