"""Mode-reduced pairings against the resolvent kernel.

For fields of the form A(r) e^{i p theta} on the disk, the angular integrals
in a double pairing against the rotation-invariant kernel collapse: with

    Ghat_p(r, s) = 2 * int_0^pi G(u(r, s, psi)) cos(p psi) dpsi,

the pairing (a, G b) of a = A(r) e^{i p theta} with b = B(r) e^{i q theta}
vanishes unless p = q, and otherwise equals

    2 pi * int int A(r) conj(B(s)) Ghat_p(r, s) rho(r) rho(s) r s dr ds.

Tables of Ghat_p on a product of an outer radial rule and inner per-node
rules graded toward the diagonal are built once per mode cap and cached.
The psi rule grades geometrically into the logarithmic corner at psi = 0
and is additionally subdivided so no panel spans more than a fraction of an
oscillation of cos(p_max psi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationExceeded
from .geometry import kernel_value_array
from .quadrature import gauss_legendre_01, two_sided_panels

_PI = math.pi


@dataclass(frozen=True)
class EngineConfig:
    outer_nodes: int = 64
    inner_levels: int = 20
    inner_order: int = 8
    psi_levels: int = 20
    psi_order: int = 10
    oscillation_factor: float = 1.2


def psi_rule(p_max: int, config: EngineConfig = EngineConfig()):
    """Angular rule on [0, pi]: graded into 0, capped for oscillation."""
    width_cap = _PI / (config.oscillation_factor * max(p_max, 1))
    cuts = [_PI * 0.25**j for j in range(config.psi_levels, -1, -1)]
    xg, wg = gauss_legendre_01(config.psi_order)
    nodes, weights = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pieces = max(1, math.ceil((hi - lo) / width_cap))
        edges = np.linspace(lo, hi, pieces + 1)
        for left, right in zip(edges[:-1], edges[1:]):
            h = right - left
            nodes.append(left + h * xg)
            weights.append(h * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def mode_kernel_point(r: float, s: float, p: int,
                      config: EngineConfig = EngineConfig()) -> float:
    """Single Ghat_p(r, s) by direct graded quadrature; for checks."""
    psi, wpsi = psi_rule(abs(p), config)
    u = ((s - r) ** 2 + 4.0 * r * s * np.sin(0.5 * psi) ** 2) / (
        (1.0 - r * r) * (1.0 - s * s))
    g = kernel_value_array(u)
    return float(2.0 * np.dot(wpsi, g * np.cos(p * psi)))


@dataclass
class ModeTable:
    config: EngineConfig
    p_max: int
    r: np.ndarray        # (n_outer,)
    wr: np.ndarray       # (n_outer,)
    s: np.ndarray        # (n_outer, n_inner)
    sw: np.ndarray       # (n_outer, n_inner)
    ghat: np.ndarray     # (n_outer, n_inner, p_max + 1)

    def rho(self, x):
        return 4.0 / np.square(1.0 - np.square(x))


def _build_table(p_max: int, config: EngineConfig) -> ModeTable:
    xr, wxr = np.polynomial.legendre.leggauss(config.outer_nodes)
    r = 0.5 * (xr + 1.0)
    wr = 0.5 * wxr
    psi, wpsi = psi_rule(p_max, config)
    cosmat = np.cos(np.outer(psi, np.arange(p_max + 1)))  # (n_psi, P+1)
    proj = 2.0 * (wpsi[:, None] * cosmat)
    sin_half_sq = np.sin(0.5 * psi) ** 2
    s_all, sw_all, ghat_all = [], [], []
    for ri in r:
        s, sw = two_sided_panels(0.0, 1.0, ri, levels=config.inner_levels,
                                 ratio=0.25, order=config.inner_order)
        delta = s - ri
        u = (np.square(delta)[:, None]
             + (4.0 * ri * s)[:, None] * sin_half_sq[None, :])
        u /= ((1.0 - ri * ri) * (1.0 - np.square(s)))[:, None]
        g = kernel_value_array(u)
        ghat_all.append(g @ proj)
        s_all.append(s)
        sw_all.append(sw)
    return ModeTable(config, p_max, r, wr, np.array(s_all), np.array(sw_all),
                     np.array(ghat_all))


_TABLE_CACHE: dict[EngineConfig, ModeTable] = {}


def mode_table(p_max: int, config: EngineConfig = EngineConfig()) -> ModeTable:
    """Cached Ghat table covering modes 0..p_max for this configuration."""
    cached = _TABLE_CACHE.get(config)
    if cached is None or cached.p_max < p_max:
        cached = _build_table(p_max, config)
        _TABLE_CACHE[config] = cached
    return cached


def _mode_slice(table: ModeTable, p: int) -> np.ndarray:
    q = abs(p)
    if q > table.p_max:
        raise TruncationExceeded(
            f"mode {q} beyond tabulated cap {table.p_max}")
    return table.ghat[:, :, q]


def pair_profiles(table: ModeTable, p: int, profile_a, profile_b) -> complex:
    """(a, G b) for a = A(r) e^{i p theta}, b = B(r) e^{i p theta}.

    The second profile enters conjugated, matching the sesquilinear pairing.
    Profiles are vectorized callables of the radius.
    """
    ghat = _mode_slice(table, p)
    a_vals = np.asarray(profile_a(table.r), dtype=complex)
    b_vals = np.conj(np.asarray(profile_b(table.s), dtype=complex))
    inner = np.sum(table.sw * table.s * table.rho(table.s) * b_vals * ghat,
                   axis=1)
    outer = table.wr * table.r * table.rho(table.r) * a_vals * inner
    return complex(2.0 * _PI * np.sum(outer))


def gfield_radial(table: ModeTable, q: int, profile_b) -> np.ndarray:
    """Radial profile of G b at the outer nodes, for b = B(r) e^{i q theta}.

    G b has the same angular mode: (G b)(r e^{i theta}) = e^{i q theta} g(r)
    with g the returned array.
    """
    ghat = _mode_slice(table, q)
    b_vals = np.asarray(profile_b(table.s), dtype=complex)
    return np.sum(table.sw * table.s * table.rho(table.s) * b_vals * ghat,
                  axis=1)
