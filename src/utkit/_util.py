"""Small numeric helpers used across modules.

Every quadrature sum is numpy's own reduction, which sums a contiguous
axis pairwise: the bits depend only on the length of that axis, and each
row of a 2-D block reduced along its last axis sums as the row alone.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import NonFiniteValue


def gauss_legendre_01(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def as_count(value, what: str) -> int:
    """value through operator.index, which refuses floats; ValueError below 0."""
    if (n := operator.index(value)) < 0:
        raise ValueError(f"{what} must be at least 0, not {n}")
    return n


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
    """Pairwise sum of an elementwise product, with a finiteness check."""
    prod = np.asarray(weights) * np.asarray(values)
    check_finite(prod, "integrand sample")
    return complex(np.sum(prod))
