"""Small numeric helpers used across modules."""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteValue


def tree_sum(values):
    """Sum along the last axis by pairwise folding over a power-of-two length.

    The reduction tree depends only on the length of that axis, so results
    are bit-reproducible run to run, and each row of a 2-D block sums bit
    for bit as the same row would alone.  It is the fold of the input
    zero-padded to a power of two, without the padding: the tail past the
    largest power of two below the length is added into the head, and the
    head is folded in place.  A 1-D input gives a scalar.  A block is
    folded with its last axis in front, so that each level of the fold is
    one contiguous add; the input is never written to.
    """
    a = np.asarray(values)
    n = a.shape[-1]
    half = 1
    while 2 * half < n:
        half *= 2
    if a.ndim == 1:
        buf = a[:half].copy()
        buf[:n - half] += a[half:]
        while half > 1:
            half //= 2
            buf[:half] += buf[half:2 * half]
        return buf[0]
    rows = a.reshape(-1, n)
    # an explicit copy: for a single row the transposed head is already
    # contiguous, and a view would fold the caller's array in place
    buf = rows[:, :half].T.copy()
    buf[:n - half] += rows[:, half:].T
    while half > 1:
        half //= 2
        buf[:half] += buf[half:2 * half]
    return buf[0].reshape(a.shape[:-1]).copy()


def gauss_legendre_01(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def check_finite(values, what: str = "value"):
    arr = np.asarray(values)
    if arr.dtype.kind == "c" and arr.ndim and arr.flags.c_contiguous:
        # the float view checks both parts in one pass, about 3x faster
        # than isfinite on complex; it needs a contiguous last axis
        arr = arr.view(float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"non-finite {what} encountered")
    return values


def pairwise_dot(weights, values) -> complex:
    """tree_sum of an elementwise product, with a finiteness check."""
    prod = np.asarray(weights) * np.asarray(values)
    check_finite(prod, "integrand sample")
    return complex(tree_sum(prod.ravel()))
