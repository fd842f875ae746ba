"""Small numeric helpers used across modules."""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteValue


def tree_sum(values):
    """Sum along the last axis by pairwise folding over a power-of-two length.

    The reduction tree depends only on the length of that axis, so results
    are bit-reproducible run to run, and each row of a 2-D block sums bit
    for bit as the same row would alone.
    """
    a = np.asarray(values)
    n = 1
    while n < a.shape[-1]:
        n *= 2
    if n != a.shape[-1]:
        b = np.zeros(a.shape[:-1] + (n,), dtype=a.dtype)
        b[..., : a.shape[-1]] = a
        a = b
    while a.shape[-1] > 1:
        half = a.shape[-1] // 2
        a = a[..., :half] + a[..., half:]
    return a[..., 0]


def check_finite(values, what: str = "value"):
    arr = np.asarray(values)
    if not np.all(np.isfinite(arr.view(float) if arr.dtype.kind == "c" else arr)):
        raise NonFiniteValue(f"non-finite {what} encountered")
    return values


def pairwise_dot(weights, values) -> complex:
    """tree_sum of an elementwise product, with a finiteness check."""
    prod = np.asarray(weights) * np.asarray(values)
    check_finite(prod, "integrand sample")
    return tree_sum(prod.ravel())
