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
    head is folded in place.  A 1-D input gives a scalar.
    """
    a = np.asarray(values)
    n = a.shape[-1]
    half = 1
    while 2 * half < n:
        half *= 2
    buf = a[..., :half].copy()
    buf[..., :n - half] += a[..., half:]
    while half > 1:
        half //= 2
        buf[..., :half] += buf[..., half:2 * half]
    out = buf[..., 0]
    return out[()] if out.ndim == 0 else out.copy()


def check_finite(values, what: str = "value"):
    arr = np.asarray(values)
    if not np.all(np.isfinite(arr.view(float) if arr.dtype.kind == "c" else arr)):
        raise NonFiniteValue(f"non-finite {what} encountered")
    return values


def pairwise_dot(weights, values) -> complex:
    """tree_sum of an elementwise product, with a finiteness check."""
    prod = np.asarray(weights) * np.asarray(values)
    check_finite(prod, "integrand sample")
    return complex(tree_sum(prod.ravel()))
