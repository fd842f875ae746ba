"""The benchmark's workloads: seeded inputs, timed operations and checks.

A workload is a fixed list of operations, one round, built from inputs
that depend only on the seed.  Each operation makes its calls into
``utkit`` through public names looked up at call time, so the traced run
can wrap them, and carries a check that judges the output apart from the
timed path (see ``checks``).  Cells marked ``F1``..``F4`` fail every time
today; their inputs are fixed, not seeded, so every run fails them alike.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import utkit
from utkit import modes

import checks

SOLVER_MODES = (1, 2, 4, 8)
BERS_SUPS = (0.1, 0.3, 0.49)
# eight modes stop at 0.3 here: past 0.45 they are F1
HARMONIC_CELLS = ((0.1, SOLVER_MODES), (0.3, SOLVER_MODES), (0.49, (1, 2, 4)))
DRAWS = 2
LOW_SUP = 0.1
# seed of the inputs of the cells that fail today, whatever --seed says
FIXED_SEED = 0

# check limits: the solver's own tolerance with room for the difference
# stencils, or the documented accuracy of the path under test
LIMIT_AHLFORS_WEILL = 1e-8
LIMIT_SCHWARZIAN = 1e-8
LIMIT_JETS = 1e-9
LIMIT_FD_RESIDUAL = 1e-7
LIMIT_RADIAL = 1e-9
LIMIT_FIXED_POINTS = 1e-8
LIMIT_REFLECTION = 1e-10
LIMIT_AREA = 1e-6
LIMIT_HERMITIAN = 1e-6
LIMIT_PSD = 1e-7
LIMIT_TWO_PATH = 3e-2
# resolvent errors are taken relative to sup abs(f), which bounds abs(G f)
LIMIT_RESOLVENT_CALLABLE = 1e-8
LIMIT_RESOLVENT_GRID = 2e-3
LIMIT_D0 = 1e-9

RADIAL_RULE = (32, 64)
MODE_CAP = 8
BASIS = tuple(range(2, 10))
DOUBLE_RULE = (24, 48)
D0_TRUNCATION = 15
CALLABLE_MAX_RADIUS = 0.5
ALL_PAIRS = tuple((i, j) for i in BASIS for j in BASIS)
# products of degree i + j >= 15 are left out of the callable path: there
# the callable path and the default mode table part by up to 2.5e-6 of
# sup abs(f), more than the 1e-8 this check holds the rest to
CALLABLE_PAIRS = tuple((i, j) for i, j in ALL_PAIRS if i + j <= 14)
GRID_MAX_RADIUS = 0.8
# the Hermitian defect of a Gram block varies from draw to draw by a
# decade; five draws put the round's median accuracy inside them
GRAM_OPS = 5


@dataclass
class Op:
    """One timed operation: ``call`` is timed, ``check`` is not.

    ``check`` takes the output of ``call`` and returns (name, relative
    error, limit) triples; the operation is correct when every error is
    within its limit.
    """

    kind: str
    cell: str
    call: Callable[[], Any]
    check: Callable[[Any], list]


def _rng(seed: int, cell: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(cell.encode())])


def _complex_normal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _disk_coeffs(c):
    return utkit.HoloCoeffs(utkit.Domain.UNIT_DISK, c)


def _harmonic(a):
    return utkit.BeltramiField.harmonic(utkit.Domain.EXTERIOR_DISK, a)


def _phi_at_sup(rng, count, sup):
    """Random Taylor data phi whose Ahlfors-Weill field lambda(phi) has the
    given sup norm."""
    c = _complex_normal(rng, count)
    return c * (sup / utkit.lambda_map(_disk_coeffs(c)).sup_norm())


def _a_at_sup(rng, count, sup):
    """Random storage coefficients of a harmonic field with the given sup."""
    a = _complex_normal(rng, count)
    return a * (sup / _harmonic(a).sup_norm())


def _exterior_points(rng, count=12):
    r = rng.uniform(1.2, 3.0, count)
    return r * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, count))


def _disk_points(rng, lo, hi, count=8):
    r = rng.uniform(lo, hi, count)
    return r * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, count))


# -- modelb_bers --------------------------------------------------------------


def modelb_inputs(seed: int) -> dict:
    sweep = lambda kind, sup, counts: [
        _phi_at_sup(_rng(seed, f"{kind}/{m}/{sup}"), m, sup) for m in counts]
    harm = lambda kind, sup, counts: [
        _a_at_sup(_rng(seed, f"{kind}/{m}/{sup}"), m, sup) for m in counts]
    rng = _rng(seed, "modelb/points")
    # several independent draws of every cell, so that a round's timings do
    # not hang on how fast one random field happens to converge
    return {
        "bers": [sum((sweep(f"bers#{n}", s, SOLVER_MODES) for s in BERS_SUPS), [])
                 for n in range(DRAWS)],
        "solve_phi": sum((_group_draws(f"m1-2-4-8/s{s}", s, [
            sweep(f"solve_phi#{n}", s, SOLVER_MODES) for n in range(DRAWS)])
            for s in (0.1, 0.3, 0.49)), []),
        "solve_harmonic": sum((_group_draws(f"m{'-'.join(map(str, counts))}/s{s}", s, [
            harm(f"harmonic#{n}", s, counts) for n in range(DRAWS)])
            for s, counts in HARMONIC_CELLS), []),
        # one draw of each band per operation
        "radial": [[float(rng.uniform(lo, lo + 0.04)) for lo in (0.08, 0.18)]
                   for _ in range(DRAWS)],
        # F1: eight modes at sup 0.49, where the monomial coefficients grow
        "F1": _a_at_sup(_rng(FIXED_SEED, "F1"), 8, 0.49),
        # F2: a sampled radial dilatation of modulus 0.3 < 0.5
        "F2": 0.3,
        "exterior": _exterior_points(rng),
        "disk": _disk_points(rng, 0.0, 0.5),
        "radial_points": np.concatenate([_disk_points(rng, 0.1, 0.95),
                                         _exterior_points(rng, 8)]),
    }


def _group_draws(label, sup, draws):
    """(label, fields) operations of one cell: one per draw, except that the
    fast cells at LOW_SUP put all their draws in one operation, so that
    operations cost about the same and the median falls among many."""
    if sup == LOW_SUP:
        return [(f"{label}/x{len(draws)}", sum(draws, []))]
    return [(f"{label}/#{n}", fields) for n, fields in enumerate(draws)]


def _bers_op(phis, cell, pts):
    def call():
        return [utkit.bers_embedding(utkit.lambda_map(_disk_coeffs(c))) for c in phis]

    def check(out):
        return [("ahlfors_weill", checks.holo_rel_error(h.coeffs, c, pts),
                 LIMIT_AHLFORS_WEILL) for h, c in zip(out, phis)]

    return Op("bers", cell, call, check)


def _model_b_checks(qc, a, ext):
    return [("jets", checks.jet_error(qc.evaluate), LIMIT_JETS),
            ("fd_residual", checks.beltrami_residual(
                qc.evaluate, checks.harmonic_mu(a, ext), ext), LIMIT_FD_RESIDUAL)]


def _solve_phi_op(phis, cell, disk, ext):
    def call():
        return [utkit.solve_beltrami(utkit.lambda_map(_disk_coeffs(c)), "ModelB")
                for c in phis]

    def check(out):
        res = []
        for qc, c in zip(out, phis):
            s = utkit.schwarzian(qc.grid[0], disk)
            want = np.polynomial.polynomial.polyval(disk, c)
            res.append(("schwarzian", float(np.max(np.abs(s - want))
                                            / np.max(np.abs(want))), LIMIT_SCHWARZIAN))
            res += _model_b_checks(qc, checks.lambda_coeffs(c), ext)
        return res

    return Op("solve_phi", cell, call, check)


def _harmonic_op(coeffs, cell, ext):
    def call():
        return [utkit.solve_beltrami(_harmonic(a), "ModelB") for a in coeffs]

    def check(out):
        res = []
        for qc, a in zip(out, coeffs):
            res += _model_b_checks(qc, a, ext)
        return res

    return Op("solve_harmonic", cell, call, check)


def _radial_op(ks, cell, pts):
    rule = utkit.QuadRule(*RADIAL_RULE)
    nodes = rule.nodes(utkit.Domain.EXTERIOR_DISK)
    samples = [k * nodes / np.conj(nodes) for k in ks]

    def call():
        return [utkit.solve_beltrami(utkit.BeltramiField.sampled(
                    utkit.GridFunction(rule, utkit.Domain.EXTERIOR_DISK, values)),
                    "ModelB", 1e-8, rule=rule) for values in samples]

    def check(out):
        return [("exact_radial", checks.max_rel_error(
            qc.evaluate(pts), checks.radial_exact(k, pts)), LIMIT_RADIAL)
            for qc, k in zip(out, ks)]

    return Op("radial_sampled", cell, call, check)


def modelb_round(inp: dict) -> list:
    ops = [_bers_op(phis, f"bers/m1-2-4-8/s0.1-0.3-0.49/#{n}", checks.disk_sample_points())
           for n, phis in enumerate(inp["bers"])]
    ops += [_solve_phi_op(phis, f"solve_phi/{label}", inp["disk"], inp["exterior"])
            for label, phis in inp["solve_phi"]]
    ops += [_harmonic_op(coeffs, f"solve_harmonic/{label}", inp["exterior"])
            for label, coeffs in inp["solve_harmonic"]]
    ops += [_radial_op(ks, "radial_sampled/" + "-".join(f"k{k:.3f}" for k in ks),
                       inp["radial_points"]) for ks in inp["radial"]]
    ops.append(_harmonic_op([inp["F1"]], "F1 solve_harmonic/m8/s0.49", inp["exterior"]))
    ops.append(_radial_op([inp["F2"]], "F2 radial_sampled/k0.3", inp["radial_points"]))
    return ops


def modelb_warm_up():
    rng = _rng(FIXED_SEED, "warm-up")
    utkit.bers_embedding(utkit.lambda_map(_disk_coeffs(_phi_at_sup(rng, 1, 0.1))))
    utkit.solve_beltrami(_harmonic(_a_at_sup(rng, 1, 0.1)), "ModelB")
    _radial_op([0.05], "warm-up", np.array([0.5])).call()


# -- modela_welding -----------------------------------------------------------

# the highest sup per mode count at which the welding fit keeps a wide
# margin under its tolerance on every seed; past it lies F3
MODELA_STRONG = ((1, 0.45), (2, 0.25), (4, 0.15))
MODELA_DRAWS = 4


def modela_inputs(seed: int) -> dict:
    rng = _rng(seed, "modela/points")
    base = [[_phi_at_sup(_rng(seed, f"modela#{n}/{m}/0.1"), m, 0.1) for m in SOLVER_MODES]
            for n in range(MODELA_DRAWS)]
    # two draws per cell, so each operation costs about as much as a base one
    strong = [[_phi_at_sup(_rng(seed, f"modela#{n}/{m}/{s}/{d}"), m, s)
               for m, s in MODELA_STRONG for d in range(2)] for n in range(MODELA_DRAWS)]
    return {
        "base": base,
        "strong": strong,
        # F3: eight modes past sup 0.3 (exterior Riemann fit) and four
        # modes at 0.45 (welding fit)
        "F3_fit": _phi_at_sup(_rng(FIXED_SEED, "F3/8/1"), 8, 0.45),
        "F3_welding": _phi_at_sup(_rng(FIXED_SEED, "F3/4/2"), 4, 0.45),
        "exterior": _exterior_points(rng),
        "disk": _disk_points(rng, 0.2, 0.8),
    }


def _welding_op(phis, cell, ext, disk):
    def call():
        out = []
        for c in phis:
            qc = utkit.solve_beltrami(utkit.lambda_map(_disk_coeffs(c)), "ModelA")
            out.append((qc, utkit.welding_decompose(qc)))
        return out

    def check(out):
        res = []
        for (qc, wd), c in zip(out, phis):
            a = checks.lambda_coeffs(c)
            res += [
                ("fixed_points", checks.fixed_point_error(qc.evaluate), LIMIT_FIXED_POINTS),
                ("reflection", checks.reflection_error(qc.evaluate, disk), LIMIT_REFLECTION),
                ("fd_residual", checks.beltrami_residual(
                    qc.evaluate, checks.harmonic_mu(a, ext), ext), LIMIT_FD_RESIDUAL),
                ("area", checks.area_defect(wd.fCoeffs, wd.gCoeffs), LIMIT_AREA),
            ]
        return res

    return Op("welding", cell, call, check)


def modela_round(inp: dict) -> list:
    ext, disk = inp["exterior"], inp["disk"]
    return [
        *(_welding_op(phis, f"welding/m1-2-4-8/s0.1/#{n}", ext, disk)
          for n, phis in enumerate(inp["base"])),
        *(_welding_op(phis, f"welding/m1s0.45-m2s0.25-m4s0.15/x2/#{n}", ext, disk)
          for n, phis in enumerate(inp["strong"])),
        _welding_op([inp["F3_fit"]], "F3 welding/m8/s0.45", ext, disk),
        _welding_op([inp["F3_welding"]], "F3 welding/m4/s0.45", ext, disk),
    ]


def modela_warm_up():
    c = _phi_at_sup(_rng(FIXED_SEED, "warm-up"), 1, 0.1)
    qc = utkit.solve_beltrami(utkit.lambda_map(_disk_coeffs(c)), "ModelA")
    utkit.welding_decompose(qc)


# -- wp_pairings --------------------------------------------------------------


def _basis_constant(n):
    # |mu_n| = sqrt((n^3 - n) / 8 pi) (1 - |z|^2)^2 |z|^(-n-2) for basis_mu(n)
    return math.sqrt((n**3 - n) / (8.0 * math.pi))


def pair_profile(i, j, weights):
    """Radial profile of (x_i mu_i) conj(x_j mu_j) pulled to the disk, on
    angular mode i - j: x_i conj(x_j) c_i c_j (1 - r^2)^4 r^(i+j-4)."""
    scale = (_basis_constant(i) * _basis_constant(j)
             * weights[i - 2] * np.conj(weights[j - 2]))
    return lambda r: scale * (1.0 - np.square(r)) ** 4 * np.asarray(r) ** (i + j - 4)


def offset_pairs(p):
    return [(i, i - p) for i in BASIS if (i - p) in BASIS]


def _random_pair(rng, pairs):
    return pairs[int(rng.integers(len(pairs)))]


def wp_inputs(seed: int) -> dict:
    rng = _rng(seed, "wp")
    doubles = []
    for _ in range(3):
        p = int(rng.integers(0, 4))
        pairs = offset_pairs(p)
        a, b = rng.choice(len(pairs), 2)
        doubles.append((p, pairs[a], pairs[b]))
    return {
        # complex weights x_n of the basis directions x_n mu_n
        "gram": [_complex_normal(rng, len(BASIS)) for _ in range(GRAM_OPS)],
        "weights": _complex_normal(rng, len(BASIS)),
        "double": doubles,
        "callable": [_random_pair(rng, CALLABLE_PAIRS) for _ in range(2)],
        "grid": [_random_pair(rng, ALL_PAIRS) for _ in range(2)],
        "angles": rng.uniform(0.0, 2.0 * math.pi, 64),
        "d0": [_complex_normal(rng, 8) for _ in range(2)],
    }


def _gram_op(weights, cell):
    def call():
        table = modes.mode_table(MODE_CAP)
        blocks = []
        for p in range(-(len(BASIS) - 1), len(BASIS)):
            prof = [pair_profile(i, j, weights) for i, j in offset_pairs(p)]
            blocks.append(np.array([[modes.pair_profiles(table, p, fa, fb)
                                     for fb in prof] for fa in prof]))
        return blocks

    def check(blocks):
        res = []
        for m in blocks:
            res.append(("hermitian", checks.hermitian_error(m), LIMIT_HERMITIAN))
            res.append(("psd", checks.psd_defect(m), LIMIT_PSD))
        return res

    return Op("gram", cell, call, check)


def _double_op(entry, weights):
    p, (i, j), (k, l) = entry
    fa = pair_profile(i, j, weights)
    fb = pair_profile(k, l, weights)

    def kernel(z, w):
        u = np.abs(z - w) ** 2 / ((1.0 - abs(z) ** 2) * (1.0 - np.abs(w) ** 2))
        g = np.zeros(u.shape)
        off = u > 0.0
        g[off] = utkit.geometry.kernel_value_array(u[off])
        a = fa(abs(z)) * np.exp(1j * p * np.angle(z))
        b = fb(np.abs(w)) * np.exp(1j * p * np.angle(w))
        return a * np.conj(b) * g

    def call():
        return utkit.integrate_double(kernel, utkit.QuadRule(*DOUBLE_RULE))

    def check(val):
        ref = modes.pair_profiles(modes.mode_table(MODE_CAP), p, fa, fb)
        return [("two_path", abs(val - ref) / abs(ref), LIMIT_TWO_PATH)]

    return Op("double", f"double/<{i}{j},{k}{l}>", call, check)


def _lattice(max_radius, angles):
    table = modes.mode_table(MODE_CAP)
    idx = np.nonzero(table.r <= max_radius)[0]
    return idx, table.r[idx] * np.exp(1j * angles[:idx.size])


def _mode_field(profile, p):
    return lambda w: profile(np.abs(w)) * np.exp(1j * p * np.angle(w))


def _callable_op(pair, weights, angles, cell):
    i, j = pair
    prof = pair_profile(i, j, weights)
    f = _mode_field(prof, i - j)
    idx, pts = _lattice(CALLABLE_MAX_RADIUS, angles)

    def call():
        return np.array([utkit.apply_resolvent(f, utkit.DiskPoint.disk(z)) for z in pts])

    def check(vals):
        g = modes.gfield_radial(modes.mode_table(MODE_CAP), i - j, prof)
        want = g[idx] * np.exp(1j * (i - j) * np.angle(pts))
        err = float(np.max(np.abs(vals - want)) / checks.radial_sup(prof))
        return [("vs_mode_engine", err, LIMIT_RESOLVENT_CALLABLE)]

    return Op("resolvent_callable", cell, call, check)


def _grid_op(pair, weights, angles):
    i, j = pair
    prof = pair_profile(i, j, weights)
    rule = utkit.QuadRule()
    field = utkit.GridFunction.from_callable(_mode_field(prof, i - j), rule,
                                             utkit.Domain.UNIT_DISK)
    ones = utkit.GridFunction(rule, utkit.Domain.UNIT_DISK,
                              np.ones((rule.radial_nodes, rule.angular_count)))
    idx, pts = _lattice(GRID_MAX_RADIUS, angles)

    def call():
        vals = [utkit.apply_resolvent(field, utkit.DiskPoint.disk(z)) for z in pts]
        unit = [utkit.apply_resolvent(ones, utkit.DiskPoint.disk(z)) for z in pts]
        return np.array(vals), np.array(unit)

    def check(out):
        vals, unit = out
        g = modes.gfield_radial(modes.mode_table(MODE_CAP), i - j, prof)
        want = g[idx] * np.exp(1j * (i - j) * np.angle(pts))
        return [("vs_mode_engine", float(np.max(np.abs(vals - want)) / checks.radial_sup(prof)),
                 LIMIT_RESOLVENT_GRID),
                ("g_one", float(np.max(np.abs(unit - 1.0))), LIMIT_RESOLVENT_GRID)]

    return Op("resolvent_grid", f"resolvent_grid/<{i}{j}>", call, check)


def _d0_op(a, cell):
    def call():
        return utkit.d0_beta(_harmonic(a), D0_TRUNCATION, method="quadrature")

    def check(h):
        want = checks.d0_closed(a, D0_TRUNCATION + 1)
        return [("closed_form", float(np.max(np.abs(h.coeffs - want))
                                      / np.max(np.abs(want))), LIMIT_D0)]

    return Op("d0_beta", cell, call, check)


def _f4_op():
    # F4: the callable path at a mode-table radius near the circle, where it
    # gives 1.11e-4 against the mode engine's 6.22e-5 and its tolerance
    # path gives up
    table = modes.mode_table(MODE_CAP)
    k = int(np.argmin(np.abs(table.r - 0.9917)))
    prof = lambda s: (1.0 - np.square(s)) ** 4 + 0j
    f = lambda w: prof(np.abs(w))

    def call():
        return utkit.apply_resolvent(f, utkit.DiskPoint.disk(table.r[k]), tol=1e-6)

    def check(val):
        want = modes.gfield_radial(table, 0, prof)[k]
        return [("vs_mode_engine", abs(val - want) / abs(want), LIMIT_RESOLVENT_CALLABLE)]

    return Op("resolvent_callable", "F4 resolvent_callable/r0.9917/tol1e-6", call, check)


def wp_round(inp: dict) -> list:
    x, angles = inp["weights"], inp["angles"]
    ops = [_gram_op(w, f"gram/offsets-7..7/#{n}") for n, w in enumerate(inp["gram"])]
    ops += [_double_op(e, x) for e in inp["double"]]
    ops += [_callable_op(pair, x, angles, f"resolvent_callable/<{pair[0]}{pair[1]}>")
            for pair in inp["callable"]]
    ops += [_grid_op(pair, x, angles) for pair in inp["grid"]]
    ops += [_d0_op(a, f"d0_beta/m8/#{n}") for n, a in enumerate(inp["d0"])]
    ops.append(_f4_op())
    return ops


def wp_warm_up():
    table = modes.mode_table(MODE_CAP)
    prof = pair_profile(2, 2, np.ones(len(BASIS)))
    modes.pair_profiles(table, 0, prof, prof)
    f = _mode_field(prof, 0)
    utkit.apply_resolvent(f, utkit.DiskPoint.disk(0.1))
    rule = utkit.QuadRule()
    utkit.apply_resolvent(utkit.GridFunction.from_callable(f, rule, utkit.Domain.UNIT_DISK),
                          utkit.DiskPoint.disk(0.1))
    utkit.d0_beta(_harmonic(np.ones(1)), 1, method="quadrature")


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], dict]
    round: Callable[[dict], list]
    warm_up: Callable[[], None]


WORKLOADS = {
    "modelb_bers": Workload(modelb_inputs, modelb_round, modelb_warm_up),
    "modela_welding": Workload(modela_inputs, modela_round, modela_warm_up),
    "wp_pairings": Workload(wp_inputs, wp_round, wp_warm_up),
}
