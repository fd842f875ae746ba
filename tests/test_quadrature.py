import math
import warnings

import numpy as np
import pytest

from utkit._util import tree_sum
from utkit.errors import DomainMismatch, IoFailure, NonFiniteValue, QuadratureFailure, TruncationExceeded
from utkit.geometry import DiskPoint, Domain, kernel_value, kernel_value_array
from utkit.modes import (
    EngineConfig,
    gfield_radial,
    mode_kernel_point,
    mode_table,
    pair_profiles,
)
from utkit.qc_solver import cauchy_transform
from utkit.quadrature import (
    DiagonalPatch,
    GridFunction,
    QuadRule,
    _local_polar_rule,
    apply_resolvent,
    gauss_radial,
    integrate_disk,
    integrate_double,
    integrate_exterior,
    integrate_uhp,
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

    def test_uhp_hyperbolic(self):
        # (y/|u+i|^2)^2 transports to ((1-|w|^2)/4)^2 on the disk
        f = lambda u: (u.imag / np.abs(u + 1j) ** 2) ** 2
        val = integrate_uhp(f, QuadRule(), "hyperbolic", certified_decay=True)
        assert abs(val - math.pi / 4) < 1e-12

    def test_uhp_euclidean(self):
        # |u+i|^-6 pulls back to |1-w|^2/16
        val = integrate_uhp(lambda u: np.abs(u + 1j) ** -6.0, QuadRule())
        assert abs(val - 3 * math.pi / 32) < 1e-12

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

    def test_uhp_point_rejected(self):
        with pytest.raises(DomainMismatch):
            apply_resolvent(ones, DiskPoint.uhp(1j), QuadRule())


class TestGridResolvent:
    def test_patch_on_off_agree_away_from_data(self):
        # data vanishing within 0.3 of the evaluation point: the diagonal
        # patch must then be a no-op
        rule_on = QuadRule()
        rule_off = QuadRule(patch=DiagonalPatch(enabled=False))

        def f(z):
            s = np.clip((np.abs(z) - 0.3) / 0.2, 0.0, 1.0)
            return s * s * (3 - 2 * s) * (1 - np.abs(z) ** 2) ** 2

        z = DiskPoint.disk(0.0)
        von = apply_resolvent(GridFunction.from_callable(f, rule_on, Domain.UNIT_DISK), z)
        voff = apply_resolvent(GridFunction.from_callable(f, rule_off, Domain.UNIT_DISK), z)
        assert abs(von - voff) < 1e-10

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
    def test_separable_product(self):
        # smooth kernel, patch off: the nested sum factorizes exactly
        f = lambda z: (1 - np.abs(z) ** 2) ** 2
        g = lambda z: (1 - np.abs(z) ** 2) ** 3
        rule = QuadRule(16, 32, DiagonalPatch(enabled=False))
        val = integrate_double(lambda z, w: f(z) * g(w), rule)
        left = integrate_disk(f, rule, "hyperbolic", certified_decay=True)
        right = integrate_disk(g, rule, "hyperbolic", certified_decay=True)
        assert abs(val - left * right) / abs(left * right) < 1e-12

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


class TestModeEngine:
    def test_normalization_all_radii(self):
        table = mode_table(8)
        g0 = gfield_radial(table, 0, lambda s: np.ones_like(s))
        assert np.max(np.abs(g0 - 1.0)) < 1e-7

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

    def test_pairing_positive_for_squares(self):
        table = mode_table(4)
        val = pair_profiles(table, 0, lambda r: (1 - r**2) ** 4,
                            lambda r: (1 - r**2) ** 4)
        assert abs(val.imag) < 1e-14
        assert val.real > 0

    def test_mode_cap_enforced(self):
        # fresh config so the shared cache cannot hand back a bigger table
        cfg = EngineConfig(outer_nodes=8, inner_levels=6, psi_levels=8)
        table = mode_table(2, cfg)
        with pytest.raises(TruncationExceeded):
            pair_profiles(table, 3, lambda r: r, lambda r: r)

    def test_table_cache_reuse(self):
        a = mode_table(3)
        b = mode_table(2)
        assert b is a
