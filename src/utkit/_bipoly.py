"""Polynomial densities in z and conj(z) with log|z| factors.

The Cauchy transform over the unit disk of a term z**a * conj(z)**b *
log|z|**j is again a finite sum of such terms inside the disk, plus a
pure principal part (powers z**(-p-1)) outside.  Keeping the whole
Beltrami iteration inside this term algebra makes normalization jets
and residual identities exact rather than approximate.

Exponents a, b are integers of either sign; the log power j is a
nonnegative integer.  A BiPoly is one dense complex block
c[j, a - amin, b - bmin] over every log power j < J and the (a, b) box
of all of them.  Sums and derivatives are shifted slices and the Cauchy
transform one contraction with a triangular kernel in j, a fixed number
of numpy calls whatever the number of log powers or terms.  The product
adds one scaled, shifted copy of the denser factor's block per nonzero
term of the sparser factor, in np.nonzero order, so every coefficient is
summed over the sparser factor's terms in that order.  Nothing is cut by
size: prune drops exact zeros only.

On the R x M nodes of a polar rule one real matmul sums each angular
mode a - b per ring and one FFT per ring gives the values (eval_rule),
at about nnz * R + R * M log M cost; arbitrary points go through
polyval2d (eval), at nnz cost per point.

Two tables depend on no coefficient, so each is built once per shape
in a bounded cache and shared read-only: the triangular Cauchy kernel
K[t, j, b] per log-power count and range of b, and the ring powers
log(r_k)^j r_k^s per polar rule and range of j and s.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NonFiniteValue

__all__ = ["BiPoly", "eval_principal"]

_polyval = np.polynomial.polynomial.polyval
_polyval2d = np.polynomial.polynomial.polyval2d


# the field's mode set and the term fix a table's shape, so solves over the
# same modes share tables: a pass over fields of 1 to 8 modes asks for about
# 260 ring tables (2.4 MB in all) and 70 kernels
@lru_cache(maxsize=256)
def _cauchy_kernel(nj: int, bmin: int, nb: int) -> np.ndarray:
    """K[t, j, b] of BiPoly.cauchy for log powers t, j < nj and the nb
    values of b from bmin, read-only."""
    gap = np.arange(nj) - np.arange(nj)[:, None]
    falling = np.cumprod(np.where(gap > 0, np.arange(nj), 1.0), axis=1)
    sign = np.where(gap % 2, -2.0, 2.0) * (gap >= 0)
    bvals = np.arange(bmin, bmin + nb)
    q = np.where(bvals == -1, 1.0, 2.0 * bvals + 2.0)
    kern = (sign * falling)[:, :, None] / q ** (np.maximum(gap, 0) + 1)[:, :, None]
    kern[:, :, bvals == -1] = 0.0
    kern.flags.writeable = False
    return kern


@lru_cache(maxsize=512)
def _ring_powers(rule, nj: int, s0: int, span: int) -> np.ndarray:
    """log(r_k)^j r_k^s by (k, j, s), j < nj and s0 <= s < s0 + span, on
    the radii of a polar rule, read-only."""
    radii = rule.radii[:, None]
    logs = np.log(radii) ** np.arange(nj)
    powers = radii ** np.arange(s0, s0 + span)
    table = logs[:, :, None] * powers[:, None, :]
    table.flags.writeable = False
    return table


class BiPoly:
    """Finite sum of terms coef * z**a * conj(z)**b * log|z|**j."""

    __slots__ = ("_c", "_amin", "_bmin")

    def __init__(self, c=None, amin=0, bmin=0):
        # c[j, a - amin, b - bmin], complex, taken by reference and never
        # written to afterwards
        self._c = np.zeros((0, 0, 0), dtype=complex) if c is None else c
        self._amin = int(amin)
        self._bmin = int(bmin)

    @classmethod
    def from_term(cls, coef, a, b, j=0):
        if j < 0:
            raise ValueError("log power must be nonnegative")
        c = np.zeros((j + 1, 1, 1), dtype=complex)
        c[j, 0, 0] = coef
        return cls(c, a, b)

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self):
        return not np.count_nonzero(self._c)

    def terms(self):
        """Yield (coef, a, b, j) for every stored nonzero coefficient."""
        c = self._c
        for j, ia, ib in zip(*np.nonzero(c)):
            yield complex(c[j, ia, ib]), self._amin + int(ia), self._bmin + int(ib), int(j)

    def coeff(self, a, b, j=0):
        idx = (j, a - self._amin, b - self._bmin)
        if all(0 <= i < n for i, n in zip(idx, self._c.shape)):
            return complex(self._c[idx])
        return 0j

    def nnz(self):
        return int(np.count_nonzero(self._c))

    def max_abs(self):
        return float(np.abs(self._c).max()) if self._c.size else 0.0

    def __repr__(self):
        return "BiPoly(nnz=%d, log powers=%d)" % (self.nnz(), self._c.shape[0])

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        if not other._c.size:
            return self
        if not self._c.size:
            return other
        pair = (self, other)
        amin, bmin = min(p._amin for p in pair), min(p._bmin for p in pair)
        out = np.zeros((max(p._c.shape[0] for p in pair),
                        max(p._amin + p._c.shape[1] for p in pair) - amin,
                        max(p._bmin + p._c.shape[2] for p in pair) - bmin), dtype=complex)
        for p in pair:
            nj, na, nb = p._c.shape
            ia, ib = p._amin - amin, p._bmin - bmin
            out[:nj, ia:ia + na, ib:ib + nb] += p._c
        return BiPoly(out, amin, bmin)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self * (-1.0)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            return self._mul_bipoly(other)
        return BiPoly(self._c * complex(other), self._amin, self._bmin)

    __rmul__ = __mul__

    def _mul_bipoly(self, other):
        if not (self._c.size and other._c.size):
            return BiPoly()
        # Every coefficient of the product is summed over the terms of the
        # sparser factor s (self on a tie) in np.nonzero order, (j, a, b)
        # ascending, each term adding its scaled, shifted copy of the
        # denser block g, so no coefficient's rounding depends on the boxes.
        s, g = self, other
        if np.count_nonzero(s._c) > np.count_nonzero(g._c):
            s, g = g, s
        ng, nag, nbg = g._c.shape
        out = np.zeros(np.add(s._c.shape, g._c.shape) - 1, dtype=complex)
        terms = np.nonzero(s._c)
        # plain ints slice faster than numpy ones
        for t, p, q, v in zip(*(i.tolist() for i in terms), s._c[terms]):
            out[t:t + ng, p:p + nag, q:q + nbg] += v * g._c
        return BiPoly(out, self._amin + other._amin, self._bmin + other._bmin)

    def prune(self):
        """Drop exact zeros: trim the block to the box of the nonzero
        coefficients.  Every nonzero coefficient is kept, however small:
        on the small radii where the solver evaluates, a tiny coefficient
        of a high log power can be as large as the whole function."""
        keep = self._c != 0
        if not keep.any():
            return BiPoly()
        ja = keep.any(axis=2)
        levels = np.flatnonzero(ja.any(axis=1))
        rows = np.flatnonzero(ja.any(axis=0))
        cols = np.flatnonzero(keep.any(axis=(0, 1)))
        box = (slice(0, levels[-1] + 1), slice(rows[0], rows[-1] + 1),
               slice(cols[0], cols[-1] + 1))
        return BiPoly(self._c[box].copy(), self._amin + int(rows[0]),
                      self._bmin + int(cols[0]))

    # -- calculus ------------------------------------------------------

    def dz(self):
        # d/dz (z^a zbar^b L^j) = a z^(a-1) zbar^b L^j + (j/2) z^(a-1) zbar^b L^(j-1)
        c = self._c
        out = c * np.arange(self._amin, self._amin + c.shape[1])[:, None]
        out[:-1] += c[1:] * (0.5 * np.arange(1, c.shape[0]))[:, None, None]
        return BiPoly(out, self._amin - 1, self._bmin)

    def dzbar(self):
        c = self._c
        out = c * np.arange(self._bmin, self._bmin + c.shape[2])
        out[:-1] += c[1:] * (0.5 * np.arange(1, c.shape[0]))[:, None, None]
        return BiPoly(out, self._amin, self._bmin - 1)

    def cauchy(self):
        """Cauchy transform -(1/pi) * iint_D self(zeta)/(zeta - z) d2zeta.

        Returns (interior, principal): interior is a BiPoly valid for
        |z| <= 1 and principal[p] is the coefficient of z**(-p-1) valid
        for |z| >= 1.  Raises NonFiniteValue when a term makes the
        integral diverge at the origin (angular mode a - b <= 0 while
        b <= -1).
        """
        c = self._c
        if not c.size:
            return BiPoly(), np.zeros(0, dtype=complex)
        nj, na, nb = c.shape
        avals = np.arange(self._amin, self._amin + na)
        bvals = np.arange(self._bmin, self._bmin + nb)
        mode = np.broadcast_to(avals[:, None] - bvals, c.shape)
        bad = np.argwhere((c != 0) & (mode <= 0) & (bvals <= -1))
        if bad.size:
            j, ia, ib = bad[0]
            raise NonFiniteValue("cauchy transform diverges for term z^%d zbar^%d log^%d"
                                 % (avals[ia], bvals[ib], j))
        # the radial integral of r^(2b+1) L^j by parts, q = 2b + 2, turns
        # c z^a zbar^b L^j into sum_{t <= j} K[t, j, b] c z^a zbar^(b+1) L^t
        # with K[t, j, b] = 2 (-1)^(j-t) (j!/t!) q^-(j-t+1), plus a constant
        # of integration; the b = -1 column (q = 0) integrates to a pure
        # log power 2 c z^a L^(j+1) / (j+1) instead
        kern = _cauchy_kernel(nj, self._bmin, nb)
        # the constant, level by level K[0, j, b] c[j, a, b]: z^(m-1) inside
        # for mode m >= 1 (summed per level, then over the levels), the
        # principal z^(m-1) outside for m <= 0
        const = c * kern[0][:, None, :]
        pos = (mode >= 1) & (const != 0)
        neg = (mode <= 0) & (const != 0)
        principal = np.zeros(1 - int(mode[neg].min()) if neg.any() else 0, dtype=complex)
        np.add.at(principal, -mode[neg], const[neg])
        top = int(mode[pos].max()) if pos.any() else 0
        hol = np.zeros((nj, top), dtype=complex)
        np.add.at(hol, (np.nonzero(pos)[0], mode[pos] - 1), -const[pos])
        # the interior box: (a, b + 1) of every term, z^(m-1) zbar^0 for
        # the constants and L^(j+1) zbar^0 for the b = -1 column
        has_log = self._bmin <= -1 < self._bmin + nb
        amin, bmin = self._amin, self._bmin + 1
        if top:
            amin, bmin = min(amin, 0), min(bmin, 0)
        out = np.zeros((nj + has_log, max(self._amin + na, top) - amin,
                        max(self._bmin + nb + 1, int(top > 0)) - bmin), dtype=complex)
        ia, ib = self._amin - amin, self._bmin + 1 - bmin
        out[:nj, ia:ia + na, ib:ib + nb] = np.einsum("tjb,jab->tab", kern, c)
        if top:
            out[0, -amin:top - amin, -bmin] += hol.sum(axis=0)
        if has_log:
            out[1:, ia:ia + na, -bmin] += (2.0 * c[:, :, -1 - self._bmin]
                                           / np.arange(1.0, nj + 1)[:, None])
        return BiPoly(out, amin, bmin), principal

    # -- evaluation ----------------------------------------------------

    def eval(self, z):
        """Evaluate pointwise.

        Terms with negative exponents or log factors are singular at the
        origin; callers keep such evaluations away from z = 0.
        """
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        if not self._c.size:
            return 0j if scalar else np.zeros(z.shape, dtype=complex)
        zb = np.conj(z)
        # one polynomial value per log power, then Horner in log|z|
        total = _polyval2d(z, zb, np.moveaxis(self._c, 0, -1))
        if total.shape[0] == 1:
            total = total[0]
        else:
            with np.errstate(divide="ignore"):
                total = _polyval(np.log(np.abs(z)), total, tensor=False)
        total = z ** self._amin * zb ** self._bmin * total
        return complex(total) if scalar else total

    def _mode_sums(self, rule):
        """B[k, m mod M] = sum over the terms of angular mode m = a - b of
        coef * r_k**(a + b) * log(r_k)**j, shape (R, M).

        On the ring r_k the terms of mode m collapse to one coefficient,
        and on M equispaced angles mode m is indistinguishable from
        m mod M.
        """
        radii = rule.radii
        m_count = rule.angular_count
        c = self._c
        if not c.size:
            return np.zeros((radii.size, m_count), dtype=complex)
        nj, na, nb = c.shape
        span = na + nb - 1
        # shear (a, b) into (s, m) = (a + b, a - b), both offset to 0, as
        # one strided write
        sheared = np.zeros((nj, span, span), dtype=complex)
        item = sheared.itemsize
        np.ndarray(c.shape, complex, sheared, (nb - 1) * item,
                   (span * span * item, (span + 1) * item, (span - 1) * item))[...] = c
        # the real table log(r_k)^j r_k^s against the float view of the block
        table = _ring_powers(rule, nj, self._amin + self._bmin, span)
        per_mode = (table.reshape(radii.size, nj * span)
                    @ sheared.view(float).reshape(nj * span, 2 * span)).view(complex)
        # fold: column i holds mode amin - bmin - nb + 1 + i
        first = (self._amin - self._bmin - nb + 1) % m_count
        width = -(-(first + span) // m_count) * m_count
        bins = np.zeros((radii.size, width), dtype=complex)
        bins[:, first:first + span] = per_mode
        if width > m_count:
            bins = bins.reshape(radii.size, -1, m_count).sum(axis=1)
        return bins

    def eval_rule(self, rule, conjugate=False):
        """Values at rule.nodes(), or at their conjugates, shape (R, M):
        one FFT of length M per ring of the mode sums, whatever the mode
        span."""
        bins = self._mode_sums(rule)
        if conjugate:
            return np.fft.fft(bins, axis=1)
        return np.fft.ifft(bins, axis=1, norm="forward")


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
