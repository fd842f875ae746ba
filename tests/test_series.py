import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from utkit import (
    BeltramiField,
    Domain,
    DomainMismatch,
    GridFunction,
    HoloCoeffs,
    IndexOutOfRange,
    NonFiniteValue,
    QuadRule,
    basis_mu,
    d0_beta,
    harmonic_inner,
    integrate_disk,
    integrate_exterior,
    lambda_map,
)

RNG = np.random.default_rng(np.random.PCG64(20240817))

SQRT_3_OVER_PI = 0.9772050238058398        # sqrt(3 / pi)
SQRT_3_OVER_4PI = 0.48860251190291987      # sqrt(3 / (4 pi))


def random_holo(n):
    c = RNG.standard_normal(n + 1) + 1j * RNG.standard_normal(n + 1)
    return HoloCoeffs(Domain.UNIT_DISK, c)


def random_field(count):
    a = RNG.standard_normal(count) + 1j * RNG.standard_normal(count)
    return BeltramiField.harmonic(Domain.EXTERIOR_DISK, 0.1 * a)


def hyperbolic_density(z):
    """4 / (|z|^2 - 1)^2, the hyperbolic area form against d^2z."""
    return 4.0 / (np.abs(z) ** 2 - 1.0) ** 2


class TestHoloCoeffs:
    def test_disk_evaluation(self):
        phi = HoloCoeffs(Domain.UNIT_DISK, [1.0, 2.0, 3.0])
        z = 0.4 + 0.2j
        assert complex(phi(z)) == pytest.approx(1 + 2 * z + 3 * z * z)

    def test_uhp_rejected(self):
        # holomorphic data lives on the disk alone: the half plane is not a
        # Domain, and the exterior side is one for Beltrami fields only
        for domain in ("UpperHalfPlane", Domain.EXTERIOR_DISK):
            with pytest.raises(DomainMismatch):
                HoloCoeffs(domain, [1.0])

    def test_l2_norm_matches_quadrature_disk(self):
        phi = random_holo(6)
        quad = integrate_disk(
            lambda z: np.abs(phi(z)) ** 2 * np.square(1.0 - np.abs(z) ** 2) / 4.0).real
        assert abs(quad - phi.l2_norm_sq()) < 1e-8 * (1 + phi.l2_norm_sq())

    def test_sup_of_constant_is_at_center(self):
        phi = HoloCoeffs(Domain.UNIT_DISK, [6.0])
        assert phi.sup_norm() == pytest.approx(6.0)

    def test_sup_l2_bound_on_random_vectors(self):
        bound = math.sqrt(12.0 / math.pi)
        for _ in range(500):
            c = RNG.standard_normal(11) + 1j * RNG.standard_normal(11)
            phi = HoloCoeffs(Domain.UNIT_DISK, c)
            assert phi.sup_norm() <= bound * phi.l2_norm() * (1 + 1e-12)


class TestBeltramiField:
    def test_basis_value_oracle(self):
        mu2 = basis_mu(2, 4)
        val = complex(mu2(np.asarray(2.0 + 0.0j)))
        assert val == pytest.approx(-SQRT_3_OVER_4PI * 9.0 / 16.0, rel=1e-13)

    def test_basis_index_checks(self):
        with pytest.raises(IndexOutOfRange):
            basis_mu(1, 8)
        with pytest.raises(IndexOutOfRange):
            basis_mu(12, 8)

    def test_basis_takes_integer_index_and_count(self):
        # a float index used to reach numpy's IndexError
        with pytest.raises(TypeError):
            basis_mu(3.0, 5)
        with pytest.raises(TypeError):
            basis_mu(3, 5.0)
        with pytest.raises(ValueError):
            basis_mu(3, -1)
        assert np.array_equal(basis_mu(np.int64(3), np.int64(5)).a, basis_mu(3, 5).a)

    def test_exterior_field_is_finite_far_out(self):
        # the per-mode powers conj(z)^(-n-2) overflowed to NaN past |z| ~ 1e77
        mu = BeltramiField.harmonic(Domain.EXTERIOR_DISK, [0.3, 0.2j])
        z = np.outer([1e100, 1e300], np.exp(1j * np.array([0.0, 0.7, 2.0, -2.5])))
        vals = mu(z)
        assert np.all(np.isfinite(vals))
        # |mu| tends to (1/2) 6 |a_2| = 0.9 at infinity
        np.testing.assert_allclose(np.abs(vals), 0.9, rtol=1e-14)

    @pytest.mark.parametrize("domain", [Domain.EXTERIOR_DISK, Domain.UNIT_DISK])
    def test_matches_the_power_formula(self, domain):
        # -(1/2)(1 - |z|^2)^2 sum (n^3 - n) a_n conj(z)^p with p = -n-2
        # outside and n-2 on the disk, one complex power per mode, to 1e-14
        # of the sum of the moduli of its terms
        rng = np.random.default_rng(61)
        z = np.geomspace(1.2, 1e3, 400) * np.exp(2j * np.pi * rng.random(400))
        if domain is Domain.UNIT_DISK:
            z = np.concatenate([z, 0.999 * rng.random(100) * np.exp(2j * np.pi * rng.random(100))])
        for modes in (1, 2, 5, 12):
            mu = BeltramiField.harmonic(domain, rng.normal(size=modes) + 1j * rng.normal(size=modes))
            n = np.arange(2, modes + 2)
            p = -(n + 2) if domain is Domain.EXTERIOR_DISK else n - 2
            terms = (n**3 - n) * mu.a * np.conj(z)[:, None] ** p
            weight = -0.5 * np.square(1.0 - np.abs(z) ** 2)
            scale = np.abs(weight) * np.sum(np.abs(terms), axis=1)
            assert np.max(np.abs(mu(z) - weight * np.sum(terms, axis=1)) / scale) < 1e-14

    def test_basis_sup_norm(self):
        assert basis_mu(2, 3).sup_norm() == pytest.approx(SQRT_3_OVER_4PI, rel=1e-10)

    def test_orthonormality_closed_form(self):
        for m in range(2, 9):
            for n in range(2, 9):
                g = harmonic_inner(basis_mu(m, 8), basis_mu(n, 8))
                assert abs(g - (1.0 if m == n else 0.0)) < 1e-13

    def test_unit_norm_by_quadrature(self):
        mu2 = basis_mu(2, 3)
        val = integrate_exterior(lambda z: np.abs(mu2(z)) ** 2 * hyperbolic_density(z),
                                 QuadRule(32, 64))
        assert abs(val.real - 1.0) < 1e-12

    def test_cross_mode_quadrature(self):
        mu2, mu3 = basis_mu(2, 4), basis_mu(3, 4)
        val = integrate_exterior(lambda z: mu2(z) * np.conj(mu3(z)) * hyperbolic_density(z),
                                 QuadRule(32, 64))
        assert abs(val) < 1e-13

    def test_l2_closed_form_vs_quadrature(self):
        mu = random_field(5)
        val = integrate_exterior(lambda z: np.abs(mu(z)) ** 2 * hyperbolic_density(z),
                                 QuadRule(32, 64))
        assert val.real == pytest.approx(harmonic_inner(mu, mu).real, rel=1e-10)

    def test_norm_doubles_under_d0_beta(self):
        mu = random_field(6)
        phi = d0_beta(mu)
        assert harmonic_inner(mu, mu).real == pytest.approx(4.0 * phi.l2_norm_sq(), rel=1e-12)

    def test_generating_identity(self):
        # sum (n^3 - n) x^(n-2) = 6 / (1 - x)^4 through the stored weights
        mu = BeltramiField.harmonic(Domain.EXTERIOR_DISK, np.ones(400))
        for x in (0.0, 0.3, 0.9):
            got = complex(d0_beta(mu)(x))
            want = 6.0 / (1.0 - x) ** 4
            assert got.real == pytest.approx(want, rel=1e-10)
            assert abs(got.imag) < 1e-12 * want

    def test_sup_norm_follows_the_coefficients(self):
        # the field is mutable: a cached sup kept the old coefficients'
        mu = random_field(3)
        before = mu.sup_norm()
        mu.a = 2.0 * mu.a
        assert mu.sup_norm() == 2.0 * before

    def test_iota_star_pointwise(self):
        mu = random_field(4)
        pulled = mu.iota_star()
        z = 0.4 + 0.1j
        expected = complex(mu(np.asarray(1.0 / z))) * z**2 / np.conj(z) ** 2
        assert complex(pulled(np.asarray(z))) == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(pulled.a, mu.a)

    def test_sampled_iota_star_matches_harmonic(self):
        mu = random_field(4)
        rule = QuadRule(16, 32)
        samp = BeltramiField.sampled(
            GridFunction.from_callable(mu, rule, Domain.EXTERIOR_DISK))
        pulled = samp.iota_star()
        direct = mu.iota_star()(rule.nodes(Domain.UNIT_DISK))
        assert np.allclose(pulled.grid.values, direct, atol=1e-12)

    def test_sampled_sup_norm(self):
        mu = basis_mu(2, 3)
        rule = QuadRule(48, 96)
        samp = BeltramiField.sampled(
            GridFunction.from_callable(mu, rule, Domain.EXTERIOR_DISK))
        assert samp.sup_norm() <= mu.sup_norm() + 1e-12
        assert samp.sup_norm() > 0.9 * mu.sup_norm()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BeltramiField(Domain.EXTERIOR_DISK)
        with pytest.raises(DomainMismatch):
            BeltramiField.harmonic("UpperHalfPlane", [0.1])


class TestTransforms:
    def test_d0_beta_of_basis_is_constant(self):
        phi = d0_beta(basis_mu(2, 3))
        assert phi.domain is Domain.UNIT_DISK
        assert complex(phi.coeffs[0]) == pytest.approx(SQRT_3_OVER_PI, rel=1e-13)
        assert np.max(np.abs(phi.coeffs[1:])) == 0.0

    def test_lambda_map_oracle(self):
        mu = lambda_map(HoloCoeffs(Domain.UNIT_DISK, [6.0]))
        z = 1.5 + 0.5j
        expected = -3.0 * (1 - abs(z) ** 2) ** 2 / np.conj(z) ** 4
        assert complex(mu(np.asarray(z))) == pytest.approx(complex(expected), rel=1e-13)

    def test_lambda_halves_sup_of_constant(self):
        phi = HoloCoeffs(Domain.UNIT_DISK, [6.0])
        assert lambda_map(phi).sup_norm() == pytest.approx(0.5 * phi.sup_norm(),
                                                           rel=1e-10)

    def test_lambda_sup_bound_random(self):
        phi = random_holo(7)
        assert lambda_map(phi).sup_norm() <= 0.5 * phi.sup_norm() * (1 + 1e-9)

    def test_round_trip_on_monomials(self):
        for k in range(7):
            c = np.zeros(k + 1, dtype=complex)
            c[k] = 1.0
            phi = HoloCoeffs(Domain.UNIT_DISK, c)
            back = d0_beta(lambda_map(phi))
            diff = HoloCoeffs(Domain.UNIT_DISK, back.coeffs - c)
            assert diff.sup_norm() < 1e-6

    def test_quadrature_route_matches_closed_form(self):
        mu = random_field(5)
        closed = d0_beta(mu, truncation=6)
        quad = d0_beta(mu, truncation=6, method="quadrature")
        assert np.allclose(quad.coeffs, closed.coeffs, rtol=1e-10, atol=1e-12)

    def test_truncation_is_a_count(self):
        # -5 failed as numpy's "negative dimensions are not allowed"
        mu = random_field(3)
        for method in ("auto", "quadrature"):
            with pytest.raises(ValueError, match="truncation"):
                d0_beta(mu, -5, method=method)
            with pytest.raises(TypeError):
                d0_beta(mu, 2.5, method=method)
            assert d0_beta(mu, 0, method=method).coeffs.size == 1
        assert np.array_equal(d0_beta(mu, np.int64(6)).coeffs, d0_beta(mu, 6).coeffs)

    def test_quadrature_route_refuses_aliased_moments(self):
        # moment k reads FFT bin (k + 4) mod 128 on both rules: with a_2 =
        # 0.1 alone, c_128 came back as 4.59, moment 0's, where the closed
        # form gives 0, and the two rules agreed
        mu = BeltramiField.harmonic(Domain.EXTERIOR_DISK, [0.1])
        quad = d0_beta(mu, 123, method="quadrature")
        assert np.allclose(quad.coeffs, d0_beta(mu, 123).coeffs, rtol=0, atol=1e-12)
        for truncation in (124, 128):
            with pytest.raises(IndexOutOfRange):
                d0_beta(mu, truncation, method="quadrature")

    def test_quadrature_route_samples_mu_once_per_rule(self, monkeypatch):
        # the moments come from two samplings of mu, not from one
        # evaluation per moment and rule
        calls = []
        call = BeltramiField.__call__

        def counted(self, z):
            calls.append(1)
            return call(self, z)

        monkeypatch.setattr(BeltramiField, "__call__", counted)
        mu = BeltramiField.harmonic(Domain.EXTERIOR_DISK, 0.1 * np.arange(1, 6))
        d0_beta(mu, method="quadrature")
        assert len(calls) <= 2

    def test_sampled_field_d0_beta(self):
        mu = random_field(4)
        samp = BeltramiField.sampled(GridFunction.from_callable(
            mu, QuadRule(32, 64), Domain.EXTERIOR_DISK))
        closed = d0_beta(mu, truncation=5)
        quad = d0_beta(samp, truncation=5)
        assert np.allclose(quad.coeffs, closed.coeffs, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("shape", [(32, 64), (8, 16)])
    def test_fft_moments_match_the_node_sums(self, shape):
        # the moments as one exterior node sum each, on a field with every
        # mode k + 4; on 8 x 16, k + 4 runs past the angular count, where
        # both alias alike
        rule = QuadRule(*shape)
        ext = rule.nodes(Domain.EXTERIOR_DISK)
        grid = GridFunction(rule, Domain.EXTERIOR_DISK,
                            random_field(6)(ext) * np.exp(2 / np.conj(ext)))
        got = d0_beta(BeltramiField.sampled(grid), truncation=15).coeffs
        want = [-(6 / math.pi) * math.comb(k + 3, 3) * integrate_exterior(
            GridFunction(rule, Domain.EXTERIOR_DISK, grid.values * ext ** (-k - 4.0)))
            for k in range(16)]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_nonfinite_sample_raises(self):
        rule = QuadRule(8, 16)
        values = np.ones((8, 16), dtype=complex)
        values[3, 5] = np.nan
        with pytest.raises(NonFiniteValue):
            d0_beta(BeltramiField.sampled(GridFunction(rule, Domain.EXTERIOR_DISK, values)))

    def test_d0_beta_domain_check(self):
        with pytest.raises(DomainMismatch):
            d0_beta(basis_mu(2, 3).iota_star())


@settings(max_examples=25, derandomize=True)
@given(st.lists(st.floats(-1, 1), min_size=3, max_size=8),
       st.lists(st.floats(-1, 1), min_size=3, max_size=8))
def test_property_pairing_linear(re, im):
    m = min(len(re), len(im))
    a = np.asarray(re[:m]) + 1j * np.asarray(im[:m])
    mu = BeltramiField.harmonic(Domain.EXTERIOR_DISK, a)
    nu = basis_mu(2, m)
    lhs = harmonic_inner(mu.scaled(2.0), nu)
    assert lhs == pytest.approx(2.0 * harmonic_inner(mu, nu), rel=1e-12, abs=1e-12)


@settings(max_examples=25, derandomize=True)
@given(st.integers(2, 9))
def test_property_basis_norm_one(n):
    mu = basis_mu(n, 10)
    assert harmonic_inner(mu, mu) == pytest.approx(1.0, rel=1e-12)
    assert d0_beta(mu).l2_norm() == pytest.approx(0.5, rel=1e-12)
