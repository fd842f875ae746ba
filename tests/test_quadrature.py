import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from utkit._util import pairwise_dot, tree_sum
from utkit.errors import DomainMismatch, IoFailure, NonFiniteValue, QuadratureFailure
from utkit.geometry import DiskPoint, Domain, kernel_value, kernel_value_array
from utkit.modes import ModeTable, gfield_radial, mode_kernel, mode_table, pair_profiles
from utkit.qc_solver import cauchy_transform
from utkit.quadrature import (
    GridFunction,
    QuadRule,
    _local_polar_rule,
    apply_resolvent,
    gauss_legendre_01,
    gauss_radial,
    integrate_disk,
    integrate_double,
    integrate_exterior,
)


def ones(z):
    return np.ones_like(z.real)


class TestRadialRule:
    def test_exact_for_all_monomials_up_to_order(self):
        # weight r dr on (0,1): exactness must cover odd powers too
        r, w = gauss_radial(8)
        for a in range(16):
            assert abs(np.sum(w * r**a) - 1.0 / (a + 2)) < 1e-13

    def test_weights_sum_to_disk_area(self):
        rule = QuadRule()
        assert abs(float(np.sum(rule.node_weights())) - math.pi) < 1e-12

    def test_monomial_exactness_with_angles(self):
        rule = QuadRule(radial_nodes=8, angular_count=16)
        z = rule.nodes()
        w = rule.node_weights()
        r = np.abs(z)
        theta = np.angle(z)
        for a in range(2 * 8):
            for m in range(-(16 // 2 - 1), 16 // 2):
                got = np.sum(w * r**a * np.exp(1j * m * theta))
                exact = 2.0 * math.pi / (a + 2) if m == 0 else 0.0
                assert abs(got - exact) < 1e-13

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            QuadRule(radial_nodes=1)
        with pytest.raises(ValueError):
            QuadRule(angular_count=6)
        with pytest.raises(ValueError):
            QuadRule(angular_count=33)


class TestIntegrals:
    def test_area(self):
        assert abs(integrate_disk(ones, QuadRule()) - math.pi) < 1e-13

    def test_weighted_area(self):
        val = integrate_disk(lambda z: (1 - np.abs(z) ** 2) ** 2, QuadRule())
        assert abs(val - math.pi / 3) < 1e-13

    def test_exterior_euclidean(self):
        # |z|^-6 over |z| > 1 integrates to pi/2
        val = integrate_exterior(lambda z: np.abs(z) ** -6.0, QuadRule())
        assert abs(val - math.pi / 2) < 1e-12

    def test_exterior_hyperbolic(self):
        # (|z|^2-1)^2 |z|^-8 against the hyperbolic form: 4 * integral |z|^-8
        f = lambda z: (np.abs(z) ** 2 - 1) ** 2 / np.abs(z) ** 8
        val = integrate_exterior(f, QuadRule(), "hyperbolic", certified_decay=True)
        assert abs(val - 4 * math.pi / 3) < 1e-12

    def test_hyperbolic_requires_decay_certificate(self):
        with pytest.raises(QuadratureFailure):
            integrate_disk(ones, QuadRule(), "hyperbolic")
        with pytest.raises(QuadratureFailure):
            integrate_exterior(ones, QuadRule(), "hyperbolic")

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            integrate_disk(ones, QuadRule(), "lebesgue")

    def test_nonfinite_integrand_rejected(self):
        def bad(z):
            out = np.ones_like(z.real)
            out.flat[0] = np.nan
            return out

        with pytest.raises(NonFiniteValue):
            integrate_disk(bad, QuadRule(radial_nodes=4, angular_count=8))


class TestScalarResults:
    def test_public_integrals_return_python_complex(self):
        rule = QuadRule(16, 32)
        f = lambda z: (1 - np.abs(z) ** 2) ** 2
        grid = GridFunction.from_callable(f, rule, Domain.UNIT_DISK)
        ext = GridFunction.from_callable(lambda z: np.abs(z) ** -6, rule,
                                         Domain.EXTERIOR_DISK)
        results = [
            pairwise_dot(rule.node_weights(), grid.values),
            integrate_disk(f, rule),
            integrate_disk(grid),
            integrate_exterior(ext),
            integrate_double(lambda z, w: f(z) * f(w), QuadRule(8, 16)),
            apply_resolvent(f, DiskPoint.disk(0.2)),
            apply_resolvent(grid, DiskPoint.disk(0.2)),
        ]
        for val in results:
            assert isinstance(val, complex), type(val)
            assert np.ndim(val) == 0


class TestGridFunction:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        rule = QuadRule(radial_nodes=6, angular_count=8)
        gf = GridFunction.from_callable(lambda z: np.exp(z) / 3, rule,
                                        Domain.UNIT_DISK)
        path = tmp_path / "grid.csv"
        gf.to_csv(str(path))
        assert path.read_text().splitlines()[0] == "re,im,value_re,value_im"
        back = GridFunction.from_csv(str(path), rule, Domain.UNIT_DISK)
        assert np.array_equal(back.values, gf.values)

    def test_csv_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("re,im,value_re,value_im\n1.0,2.0\n")
        with pytest.raises(IoFailure):
            GridFunction.from_csv(str(path), QuadRule(6, 8), Domain.UNIT_DISK)

    def test_csv_node_mismatch(self, tmp_path):
        rule = QuadRule(radial_nodes=6, angular_count=8)
        gf = GridFunction.from_callable(ones, rule, Domain.UNIT_DISK)
        path = tmp_path / "grid.csv"
        gf.to_csv(str(path))
        with pytest.raises(IoFailure):
            GridFunction.from_csv(str(path), rule, Domain.EXTERIOR_DISK)

    def test_missing_file(self):
        with pytest.raises(IoFailure):
            GridFunction.from_csv("/nonexistent/grid.csv", QuadRule(6, 8),
                                  Domain.UNIT_DISK)

    def test_shape_validation(self):
        with pytest.raises(DomainMismatch):
            GridFunction(QuadRule(6, 8), Domain.UNIT_DISK, np.zeros((3, 8)))

    def test_grid_integral_matches_callable(self):
        rule = QuadRule(radial_nodes=12, angular_count=16)
        f = lambda z: (1 - np.abs(z) ** 2) ** 2 * np.exp(z)
        gf = GridFunction.from_callable(f, rule, Domain.UNIT_DISK)
        assert integrate_disk(gf) == integrate_disk(f, rule)

    def test_exterior_grid_nodes_are_inversions(self):
        rule = QuadRule(radial_nodes=5, angular_count=8)
        disk = rule.nodes(Domain.UNIT_DISK)
        ext = rule.nodes(Domain.EXTERIOR_DISK)
        assert np.allclose(ext, 1.0 / np.conj(disk), rtol=0, atol=1e-15)


class TestResolvent:
    def test_constant_normalization_on_lattice(self):
        # 5 radii x 8 angles, both charts and the point at infinity
        rule = QuadRule()
        worst = 0.0
        for rr in (0.0, 0.3, 0.6, 0.85, 0.95):
            for k in range(8):
                z = rr * math.e ** (2j * math.pi * k / 8)
                val = apply_resolvent(ones, DiskPoint.disk(z), rule)
                worst = max(worst, abs(val - 1.0))
        assert worst < 1e-6
        ext = apply_resolvent(ones, DiskPoint.exterior(1.4 + 0.4j), rule)
        inf = apply_resolvent(ones, DiskPoint.infinity(), rule)
        assert abs(ext - 1.0) < 1e-6
        assert abs(inf - 1.0) < 1e-6

    def test_weighted_moment_value(self):
        # integral of G(0,w) (1-|w|^2)^2 d^2w = 1/9, so feeding the density
        # quotient (1-|w|^2)^4 / 4 through the resolvent must return it
        val = apply_resolvent(lambda w: (1 - np.abs(w) ** 2) ** 4 / 4.0,
                              DiskPoint.disk(0.0), QuadRule())
        assert abs(val - 1.0 / 9.0) < 1e-9

    def test_tolerance_path(self):
        f = lambda w: (1 - np.abs(w) ** 2) ** 2
        val = apply_resolvent(f, DiskPoint.disk(0.2 + 0.1j), QuadRule(),
                              tol=1e-8)
        ref = apply_resolvent(f, DiskPoint.disk(0.2 + 0.1j), QuadRule())
        assert abs(val - ref) < 1e-8


class TestGridResolvent:
    def test_patch_on_off_agree_away_from_data(self):
        # data vanishing within 0.3 of the evaluation point: the diagonal
        # patch must then be a no-op, leaving the plain node sum
        rule = QuadRule()

        def f(z):
            s = np.clip((np.abs(z) - 0.3) / 0.2, 0.0, 1.0)
            return s * s * (3 - 2 * s) * (1 - np.abs(z) ** 2) ** 2

        gf = GridFunction.from_callable(f, rule, Domain.UNIT_DISK)
        patched = apply_resolvent(gf, DiskPoint.disk(0.0))
        w = rule.nodes()
        u = np.abs(w) ** 2 / (1 - np.abs(w) ** 2)
        rho = 4.0 / (1 - np.abs(w) ** 2) ** 2
        plain = np.sum(rule.node_weights() * rho * kernel_value_array(u) * gf.values)
        assert abs(patched - plain) < 1e-10

    def test_grid_normalization_moderate_radii(self):
        gf = GridFunction.from_callable(ones, QuadRule(), Domain.UNIT_DISK)
        worst = 0.0
        for rr in (0.0, 0.4, 0.7, 0.9):
            for k in range(4):
                z = rr * np.exp(2j * math.pi * k / 4 + 0.1j)
                worst = max(worst, abs(apply_resolvent(gf, DiskPoint.disk(z)) - 1.0))
        assert worst < 1e-3

    def test_refinement_reduces_residual(self):
        lattice = [rr * np.exp(2j * math.pi * k / 4 + 0.1j)
                   for rr in (0.0, 0.6, 0.9, 0.95) for k in range(4)]
        sups = []
        for nr, na in ((64, 128), (128, 256)):
            gf = GridFunction.from_callable(ones, QuadRule(nr, na),
                                            Domain.UNIT_DISK)
            sups.append(max(abs(apply_resolvent(gf, DiskPoint.disk(z)) - 1.0)
                            for z in lattice))
        assert sups[0] / sups[1] >= 4.0

    def test_exterior_grid_path(self):
        gf = GridFunction.from_callable(ones, QuadRule(), Domain.EXTERIOR_DISK)
        assert abs(apply_resolvent(gf, DiskPoint.exterior(1.5 + 0.5j)) - 1.0) < 1e-3
        assert abs(apply_resolvent(gf, DiskPoint.infinity()) - 1.0) < 1e-4

    def test_domain_mismatch(self):
        gf = GridFunction.from_callable(ones, QuadRule(6, 8), Domain.UNIT_DISK)
        with pytest.raises(DomainMismatch):
            apply_resolvent(gf, DiskPoint.exterior(2.0))


class TestDoubleIntegral:
    def test_order_independence(self):
        f = lambda z: (1 - np.abs(z) ** 2) ** 2 * z
        g = lambda w: (1 - np.abs(w) ** 2) ** 2 * np.conj(w)
        rule = QuadRule(12, 16)
        a = integrate_double(lambda z, w: f(z) * g(w), rule)
        b = integrate_double(lambda z, w: g(z) * f(w), rule)
        assert abs(a - b) < 1e-10

    def test_kernel_pairing_matches_mode_engine(self):
        prof = lambda r: (1 - r**2) ** 2

        def kern(z, w):
            u = np.abs(z - w) ** 2 / ((1 - abs(z) ** 2) * (1 - np.abs(w) ** 2))
            g = np.zeros_like(u)
            m = u > 0
            g[m] = kernel_value_array(u[m])
            return prof(abs(z)) * g * prof(np.abs(w))

        coarse = integrate_double(kern, QuadRule(24, 48))
        table = mode_table(4)
        exact = pair_profiles(table, 0, prof, prof)
        assert abs(coarse - exact) / abs(exact) < 2e-2

    def test_kernel_called_per_block_of_outer_nodes(self):
        calls = []

        def kern(z, w):
            calls.append(1)
            return (1 - np.abs(z) ** 2) ** 2 * (1 - np.abs(w) ** 2) ** 2

        integrate_double(kern, QuadRule(24, 48))
        assert len(calls) <= 100

    def test_row_sums_of_a_block_match_single_rows(self):
        rng = np.random.default_rng(5)
        block = rng.standard_normal((28, 1152)) + 1j * rng.standard_normal((28, 1152))
        sums = tree_sum(block)
        assert sums.shape == (28,)
        rows = np.array([tree_sum(row) for row in block])
        assert np.array_equal(sums, rows)

    @staticmethod
    def padded_fold(values):
        # the zero-padded power-of-two fold that tree_sum reproduces
        a = np.asarray(values)
        n = 1
        while n < a.shape[-1]:
            n *= 2
        b = np.zeros(a.shape[:-1] + (n,), dtype=a.dtype)
        b[..., :a.shape[-1]] = a
        while b.shape[-1] > 1:
            half = b.shape[-1] // 2
            b = b[..., :half] + b[..., half:]
        return b[..., 0]

    def test_fold_equals_the_zero_padded_fold(self):
        rng = np.random.default_rng(9)
        for n in [*range(1, 71), 1152, 30720]:
            x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
                * 10.0 ** rng.uniform(-8, 8, n)
            assert np.array_equal(tree_sum(x), self.padded_fold(x))
            assert np.array_equal(tree_sum(x.real), self.padded_fold(x.real))
        block = rng.standard_normal((28, 1152)) * 10.0 ** rng.uniform(-8, 8, (28, 1152))
        assert np.array_equal(tree_sum(block), self.padded_fold(block))
        assert np.array_equal(tree_sum(block[:, :1000]), self.padded_fold(block[:, :1000]))

    def test_row_sums_own_their_memory(self):
        # a view into the fold buffer would keep the whole buffer alive
        sums = tree_sum(np.ones((4, 1000)))
        assert sums.base is None
        assert np.array_equal(sums, np.full(4, 1000.0))


class TestNearDiagonalPatch:
    """One polar patch rule, its rays cut at the unit circle, serves
    integrate_double, the grid resolvent and cauchy_transform."""

    @staticmethod
    def pairing_kernel(prof, p):
        # (prof e^{i p theta})(z) G(z, w) conj of the same at w
        def kern(z, w):
            u = np.abs(z - w) ** 2 / ((1 - abs(z) ** 2) * (1 - np.abs(w) ** 2))
            g = np.zeros_like(u)
            m = u > 0
            g[m] = kernel_value_array(u[m])
            return (prof(abs(z)) * np.exp(1j * p * np.angle(z)) * g
                    * prof(np.abs(w)) * np.exp(-1j * p * np.angle(w)))
        return kern

    def test_cauchy_transform_just_outside_the_circle(self):
        # inside the patch radius (0.196 here) but outside the disk, where
        # the transforms of 1 and zbar are 1/z and 1/(2 z^2)
        rule = QuadRule(32, 64)
        one = GridFunction.from_callable(np.ones_like, rule, Domain.UNIT_DISK)
        zb = GridFunction.from_callable(np.conj, rule, Domain.UNIT_DISK)
        for z in (1.01, 1.03):
            assert abs(cauchy_transform(one, z) - 1.0 / z) < 2e-4
            assert abs(cauchy_transform(zb, z) - 0.5 / z**2) < 2e-4

    def test_double_integral_angular_mode(self):
        prof = lambda r: (1 - r**2) ** 4 * r**3
        val = integrate_double(self.pairing_kernel(prof, 3), QuadRule(24, 48))
        exact = pair_profiles(mode_table(4), 3, prof, prof)
        assert abs(val - exact) / abs(exact) < 2e-3

    def test_double_integral_exterior_pullback(self):
        # G is inversion invariant, so the mirrored pairing is the disk's
        prof = lambda r: (1 - r**2) ** 2
        disk = self.pairing_kernel(prof, 0)
        mirrored = lambda z, w: disk(1 / np.conj(z), 1 / np.conj(w))
        val = integrate_double(mirrored, QuadRule(24, 48), Domain.EXTERIOR_DISK)
        exact = pair_profiles(mode_table(4), 0, prof, prof)
        assert abs(val - exact) / abs(exact) < 1e-2

    def test_patch_rule_on_an_array_of_centers(self):
        # inside, on, just outside and beyond the circle: rays cut at the
        # circle and rays that miss the disk
        centers = np.array([0.0, 0.5 * np.exp(0.3j), 0.999,
                            1.01 * np.exp(0.7j), 1.3])
        delta = QuadRule(24, 48).patch_radius
        pw, weights = _local_polar_rule(centers, delta)
        single = [_local_polar_rule(z, delta) for z in centers]
        assert np.array_equal(pw, np.stack([w for w, _ in single]))
        assert np.array_equal(weights, np.stack([a for _, a in single]))

    def test_no_floating_point_warnings_at_the_circle(self):
        rule = QuadRule(32, 64)
        gf = GridFunction.from_callable(ones, rule, Domain.UNIT_DISK)
        outer = QuadRule(38, 8)
        assert np.max(np.abs(outer.nodes())) >= 0.999
        kern = self.pairing_kernel(lambda r: (1 - r**2) ** 2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for angle in (0.0, 0.3):
                z = 0.999 * np.exp(1j * angle)
                assert np.isfinite(apply_resolvent(gf, DiskPoint.disk(z)))
                assert np.isfinite(cauchy_transform(gf, z))
                assert np.isfinite(cauchy_transform(gf, z * 1.001 / 0.999))
            assert np.isfinite(integrate_double(kern, outer))


def psi_rule(p_max: int, levels: int = 20, order: int = 10,
             oscillation: float = 1.2):
    """Angular rule on [0, pi]: graded into the log corner at 0, and no
    panel wider than a fraction of an oscillation of cos(p_max psi)."""
    width_cap = math.pi / (oscillation * max(p_max, 1))
    cuts = [math.pi * 0.25**j for j in range(levels, -1, -1)]
    xg, wg = gauss_legendre_01(order)
    nodes, weights = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / width_cap)) + 1)
        for left, right in zip(edges[:-1], edges[1:]):
            nodes.append(left + (right - left) * xg)
            weights.append((right - left) * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def mode_kernel_point(r: float, s: float, p: int, **rule) -> float:
    """Ghat_p(r, s) = 2 int_0^pi G cos(p psi) dpsi by direct quadrature of
    the kernel in angle, apart from the closed form of the mode engine."""
    psi, wpsi = psi_rule(abs(p), **rule)
    u = ((s - r) ** 2 + 4.0 * r * s * np.sin(0.5 * psi) ** 2) / (
        (1.0 - r * r) * (1.0 - s * s))
    return float(2.0 * np.dot(wpsi, kernel_value_array(u) * np.cos(p * psi)))


def basis_product(i, j):
    """Radial profile of the basis product mu_i conj(mu_j) without its
    constants, on angular mode i - j."""
    return lambda r: (1 - r**2) ** 4 * r ** (i + j - 4)


def exact_self_pairing(i, j):
    """(P, G P) / pi for P = basis_product(i, j), as an exact rational.

    On mode q = |i - j| with a = 4 (1 - r^2)^2 r^(i+j-3) = P rho r,
    (P, G P) = 8 pi int_0^1 a psi_q int_0^r phi_q a, whose integrand is a
    polynomial in r, 1/r and log r.
    """
    sp = pytest.importorskip("sympy")
    r, s, log_r = sp.symbols("r s log_r", positive=True)
    n, q = i + j - 4, abs(i - j)

    def phi(k, x):
        return x**k * ((1 + k) + (1 - k) * x**2) / (1 - x**2)

    if q == 0:
        psi = ((r**2 + 1) * (log_r - 1) + 2) / (r**2 - 1)
    elif q == 1:
        psi = (r**2 * (r**2 - 4 * log_r) - 1) / (4 * r * (r**2 - 1))
    else:
        psi = (phi(q, r) - phi(-q, r)) / (2 * q * (q**2 - 1))
    a = lambda x: 4 * (1 - x**2) ** 2 * x ** (n + 1)
    inner = sp.integrate(sp.expand(sp.cancel(phi(q, s) * a(s))), (s, 0, r))
    total = sp.Rational(0)
    # c r^(k-1) log(r)^m integrates to c / k (m = 0) or -c / k^2 (m = 1)
    for (k, m), c in sp.Poly(sp.expand(sp.cancel(8 * a(r) * psi * inner) * r),
                             r, log_r).terms():
        total += c / k if m == 0 else -c / k**2
    return Fraction(int(total.p), int(total.q))


# exact (P, G P) / pi for P = basis_product(i, j): every mode 0..23, each
# at the lowest and the highest degree with i, j <= 25
EXACT_SELF_PAIRINGS = {
    (2, 2): (44, 135), (25, 25): (73, 31624145280), (3, 2): (29, 945),
    (25, 24): (2801, 1057077000000), (4, 2): (1, 175), (25, 23): (407, 134276415000),
    (5, 2): (43, 28350), (25, 22): (1567, 453182900625), (6, 2): (2, 3969),
    (25, 21): (64073, 16277589900000), (7, 2): (19, 97020),
    (25, 20): (6959, 1555414146000), (8, 2): (8, 93555),
    (25, 19): (88259, 17374306950000), (9, 2): (71, 1737450),
    (25, 18): (4463, 774289766250), (10, 2): (4, 190575),
    (25, 17): (18001, 2753030280000), (11, 2): (17, 1486485),
    (25, 16): (41773, 5631198300000), (12, 2): (23, 3513510),
    (25, 15): (419, 49764078000), (13, 2): (11, 2815540),
    (25, 14): (1747, 182665762500), (14, 2): (53, 21928725),
    (25, 13): (27211, 2502075420000), (15, 2): (113, 73256400),
    (25, 12): (108449, 8757263970000), (16, 2): (1, 988380),
    (25, 11): (6913, 489393450000), (17, 2): (127, 186803820),
    (25, 10): (446, 27624972375), (18, 2): (268, 574147035),
    (25, 9): (88379, 4778373600000), (19, 2): (47, 143849475),
    (25, 8): (34967, 1645884240000), (20, 2): (37, 158991525),
    (25, 7): (12949, 529034220000), (21, 2): (31, 184095450),
    (25, 6): (31919, 1128087675000), (22, 2): (18, 145620475),
    (25, 5): (419, 12762204000), (23, 2): (13, 141401700),
    (25, 4): (494309, 12921731550000), (24, 2): (22, 317874375),
    (25, 3): (3733, 83366010000), (25, 2): (61, 1157861250),
}


class TestModeEngine:
    def test_normalization_all_radii(self):
        table = mode_table(8)
        g0 = gfield_radial(table, 0, lambda s: np.ones_like(s))
        assert g0.shape == (64,)
        assert np.max(np.abs(g0 - 1.0)) < 1e-12

    def test_point_kernel_symmetric(self):
        assert abs(mode_kernel_point(0.3, 0.7, 3)
                   - mode_kernel_point(0.7, 0.3, 3)) < 1e-12

    def test_point_kernel_at_origin(self):
        # the kernel is angle-free from the origin, so only mode 0 survives
        u = 0.25 / (1 - 0.25)
        assert abs(mode_kernel_point(0.0, 0.5, 0)
                   - 2 * math.pi * kernel_value(u)) < 1e-11
        assert abs(mode_kernel_point(0.0, 0.5, 1)) < 1e-11
        assert abs(mode_kernel_point(0.0, 0.5, 2)) < 1e-11

    @pytest.mark.parametrize("p", [0, 1, 2, 5, 16])
    def test_closed_form_matches_direct_quadrature(self, p):
        # a refined angular rule; where Ghat is below 1e-3 the direct sum
        # of the oscillating cosine is the weaker side
        for r, s in [(0.3, 0.7), (0.5, 0.52), (0.8, 0.6), (0.9, 0.93),
                     (0.2, 0.25), (0.1, 0.9), (0.97, 0.995)]:
            ref = mode_kernel_point(r, s, p, levels=28, order=16, oscillation=4.0)
            assert abs(mode_kernel(p, r, s)[0] - ref) <= 1e-12 * abs(ref) + 1e-15
            assert mode_kernel(-p, s, r)[0] == mode_kernel(p, r, s)[0]

    def test_pairing_positive_for_squares(self):
        table = mode_table(4)
        val = pair_profiles(table, 0, lambda r: (1 - r**2) ** 4,
                            lambda r: (1 - r**2) ** 4)
        assert abs(val.imag) < 1e-14
        assert val.real > 0

    def test_exact_basis_self_pairings(self):
        table = mode_table(8)
        for (i, j), (num, den) in EXACT_SELF_PAIRINGS.items():
            prof = basis_product(i, j)
            val = pair_profiles(table, i - j, prof, prof)
            assert abs(val / (math.pi * num / den) - 1.0) < 1e-13, (i, j)

    @pytest.mark.parametrize("pair", [(4, 2), (25, 14)])
    def test_exact_pairings_recomputed(self, pair):
        assert exact_self_pairing(*pair) == Fraction(*EXACT_SELF_PAIRINGS[pair])

    def test_pairing_is_hermitian(self):
        table = mode_table(8)
        rng = np.random.default_rng(7)
        for p in (0, 1, 3, -5):
            ca, cb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            fa = lambda r: ca * (1 - r**2) ** 4 * r ** (abs(p) + 2) + 1j * (1 - r**2) ** 2
            fb = lambda r: cb * (1 - r**2) ** 3 * r ** abs(p)
            ab, ba = pair_profiles(table, p, fa, fb), pair_profiles(table, p, fb, fa)
            assert abs(ab - np.conj(ba)) <= 1e-15 * abs(ab)

    def test_high_mode_is_finite_without_warnings(self):
        table = mode_table(8)
        smooth = basis_product(62, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = pair_profiles(table, 60, smooth, smooth)
            rough = pair_profiles(table, 60, lambda r: (1 - r**2) ** 2,
                                  lambda r: (1 - r**2) ** 2)
            g = gfield_radial(table, 60, lambda r: (1 - r**2) ** 2)
        assert np.isfinite(rough) and rough.real > 0 and np.all(np.isfinite(g))
        want = math.pi * 17 / 153560054340
        assert abs(val / want - 1.0) < 1e-13

    def test_numpy_int_mode_matches_python_int(self):
        # np.int64 indices (as from np.arange) must give the weights of
        # the Python int: ModeTable.mode caches both under one key
        prof = basis_product(62, 2)
        results = []
        for q in (np.int64(60), 60):
            table = ModeTable()
            results.append((pair_profiles(table, q, prof, prof),
                            gfield_radial(table, q, prof)))
        (pa, ga), (pb, gb) = results
        assert pa == pb
        assert np.array_equal(ga, gb)

    def test_mode_table_is_a_shared_lookup(self):
        # no cap: every call hands back one table, and a mode past p_max
        # is prepared on first use
        small, large = mode_table(2), mode_table(30)
        assert small is large
        r = 0.5 * (np.polynomial.legendre.leggauss(64)[0] + 1.0)
        assert np.array_equal(small.r, r)
        prof = basis_product(44, 2)
        val = pair_profiles(mode_table(0), 42, prof, prof)
        assert val.real > 0 and val.imag == 0.0
