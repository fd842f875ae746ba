import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from utkit import (
    BeltramiField,
    Domain,
    DomainMismatch,
    FourierVectorField,
    GridFunction,
    HoloCoeffs,
    IndexOutOfRange,
    IoFailure,
    QuadRule,
    basis_mu,
    d0_beta,
    harmonic_inner,
    holo_quadratic_l2_quadrature,
    integrate_exterior,
    lambda_map,
    project_P,
    u_to_holo,
    u_to_quadratic,
)

RNG = np.random.default_rng(np.random.PCG64(20240817))

SQRT_3_OVER_PI = 0.9772050238058398        # sqrt(3 / pi)
SQRT_3_OVER_4PI = 0.48860251190291987      # sqrt(3 / (4 pi))


def random_holo(n, domain=Domain.UNIT_DISK):
    c = RNG.standard_normal(n + 1) + 1j * RNG.standard_normal(n + 1)
    return HoloCoeffs(domain, c)


def random_field(count):
    a = RNG.standard_normal(count) + 1j * RNG.standard_normal(count)
    return BeltramiField.harmonic(Domain.EXTERIOR_DISK, 0.1 * a)


class TestHoloCoeffs:
    def test_disk_evaluation(self):
        phi = HoloCoeffs(Domain.UNIT_DISK, [1.0, 2.0, 3.0])
        z = 0.4 + 0.2j
        assert complex(phi(z)) == pytest.approx(1 + 2 * z + 3 * z * z)

    def test_exterior_evaluation(self):
        phi = HoloCoeffs(Domain.EXTERIOR_DISK, [2.0, 0.0, 1j])
        z = 1.7 - 0.6j
        expected = 2.0 / z**4 + 1j / z**6
        assert complex(phi(z)) == pytest.approx(expected, rel=1e-14)

    def test_disk_derivative(self):
        phi = HoloCoeffs(Domain.UNIT_DISK, [5.0, 1.0, 0.0, 2.0])
        dphi = phi.derivative()
        z = 0.3 - 0.1j
        assert complex(dphi(z)) == pytest.approx(1 + 6 * z * z)

    def test_exterior_derivative(self):
        phi = HoloCoeffs(Domain.EXTERIOR_DISK, [1.0])
        dphi = phi.derivative()
        z = 1.5 + 0.2j
        assert dphi.domain is Domain.EXTERIOR_DISK
        assert complex(dphi(z)) == pytest.approx(-4.0 / z**5, rel=1e-14)

    def test_truncation_counts_top_power(self):
        assert HoloCoeffs(Domain.UNIT_DISK, np.zeros(7)).truncation == 6

    def test_uhp_rejected(self):
        # the half plane is not a Domain; only the two disk sides are
        with pytest.raises(DomainMismatch):
            HoloCoeffs("UpperHalfPlane", [1.0])

    def test_json_round_trip_bit_exact(self):
        phi = random_holo(9, Domain.EXTERIOR_DISK)
        back = HoloCoeffs.from_json(phi.to_json())
        assert back.domain is phi.domain
        assert np.array_equal(back.coeffs, phi.coeffs)

    def test_json_blob_fields(self):
        blob = json.loads(HoloCoeffs(Domain.UNIT_DISK, [1.0, 2.5j]).to_json())
        assert set(blob) == {"domain", "truncation", "re", "im"}
        assert blob["domain"] == "UnitDisk"
        assert blob["truncation"] == 1

    def test_json_rejects_mismatched_truncation(self):
        blob = json.loads(random_holo(3).to_json())
        blob["truncation"] = 7
        with pytest.raises(IoFailure):
            HoloCoeffs.from_json(json.dumps(blob))

    def test_l2_norm_matches_quadrature_disk(self):
        phi = random_holo(6)
        quad = holo_quadratic_l2_quadrature(phi)
        assert abs(quad - phi.l2_norm_sq()) < 1e-8 * (1 + phi.l2_norm_sq())

    def test_l2_norm_matches_quadrature_exterior(self):
        phi = random_holo(6, Domain.EXTERIOR_DISK)
        quad = holo_quadratic_l2_quadrature(phi)
        assert abs(quad - phi.l2_norm_sq()) < 1e-8 * (1 + phi.l2_norm_sq())

    def test_sup_of_constant_is_at_center(self):
        phi = HoloCoeffs(Domain.UNIT_DISK, [6.0])
        assert phi.sup_norm() == pytest.approx(6.0)

    def test_exterior_sup_picks_up_infinity_limit(self):
        # (|z|^2-1)^2 |z|^-4 -> 1 from below as z -> infinity
        phi = HoloCoeffs(Domain.EXTERIOR_DISK, [1.0])
        assert phi.sup_norm() == pytest.approx(1.0)

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

    def test_basis_sup_norm(self):
        assert basis_mu(2, 3).sup_norm() == pytest.approx(SQRT_3_OVER_4PI, rel=1e-10)

    def test_orthonormality_closed_form(self):
        for m in range(2, 9):
            for n in range(2, 9):
                g = harmonic_inner(basis_mu(m, 8), basis_mu(n, 8))
                assert abs(g - (1.0 if m == n else 0.0)) < 1e-13

    def test_unit_norm_by_quadrature(self):
        mu2 = basis_mu(2, 3)
        val = integrate_exterior(lambda z: np.abs(mu2(z)) ** 2,
                                 QuadRule(32, 64), "hyperbolic",
                                 certified_decay=True)
        assert abs(val.real - 1.0) < 1e-12

    def test_cross_mode_quadrature(self):
        mu2, mu3 = basis_mu(2, 4), basis_mu(3, 4)
        val = integrate_exterior(lambda z: mu2(z) * np.conj(mu3(z)),
                                 QuadRule(32, 64), "hyperbolic",
                                 certified_decay=True)
        assert abs(val) < 1e-13

    def test_l2_closed_form_vs_quadrature(self):
        mu = random_field(5)
        val = integrate_exterior(lambda z: np.abs(mu(z)) ** 2,
                                 QuadRule(32, 64), "hyperbolic",
                                 certified_decay=True)
        assert val.real == pytest.approx(mu.l2_norm_sq(), rel=1e-10)

    def test_norm_doubles_under_d0_beta(self):
        mu = random_field(6)
        phi = d0_beta(mu)
        assert mu.l2_norm_sq() == pytest.approx(4.0 * phi.l2_norm_sq(), rel=1e-12)

    def test_generating_identity(self):
        # sum (n^3 - n) x^(n-2) = 6 / (1 - x)^4 through the stored weights
        mu = BeltramiField.harmonic(Domain.EXTERIOR_DISK, np.ones(400))
        for x in (0.0, 0.3, 0.9):
            got = complex(mu.coefficient_profile(np.asarray(x + 0j)))
            want = 6.0 / (1.0 - x) ** 4
            assert got.real == pytest.approx(want, rel=1e-10)
            assert abs(got.imag) < 1e-12 * want

    def test_reflect_pointwise(self):
        mu2 = basis_mu(2, 3)
        ref = mu2.reflect()
        assert ref.domain is Domain.UNIT_DISK
        z = 0.5 + 0.0j
        expected = np.conj(complex(mu2(np.asarray(1.0 / np.conj(z))))) \
            * z**2 / np.conj(z) ** 2
        assert complex(ref(np.asarray(z))) == pytest.approx(complex(expected))

    def test_reflect_involution_and_sup(self):
        mu = random_field(5)
        back = mu.reflect().reflect()
        assert back.domain is mu.domain
        assert np.allclose(back.a, mu.a)
        assert mu.reflect().sup_norm() == pytest.approx(mu.sup_norm(), rel=1e-12)

    def test_iota_star_pointwise(self):
        mu = random_field(4)
        pulled = mu.iota_star()
        z = 0.4 + 0.1j
        expected = complex(mu(np.asarray(1.0 / z))) * z**2 / np.conj(z) ** 2
        assert complex(pulled(np.asarray(z))) == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(pulled.a, mu.a)

    def test_sampled_reflect_matches_harmonic(self):
        mu = random_field(4)
        rule = QuadRule(16, 32)
        samp = BeltramiField.sampled(
            GridFunction.from_callable(mu, rule, Domain.EXTERIOR_DISK))
        ref = samp.reflect()
        direct = mu.reflect()(rule.nodes(Domain.UNIT_DISK))
        assert np.allclose(ref.grid.values, direct, atol=1e-12)

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

    def test_json_round_trip(self):
        mu = random_field(6)
        back = BeltramiField.from_json(mu.to_json())
        assert back.domain is mu.domain
        assert np.array_equal(back.a, mu.a)

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

    def test_d0_beta_domain_check(self):
        with pytest.raises(DomainMismatch):
            d0_beta(basis_mu(2, 3).reflect())

    def test_projection_fixes_basis(self):
        mu2 = basis_mu(2, 6)
        p = project_P(mu2, 6)
        assert np.max(np.abs(p.a - mu2.a)) < 1e-8

    def test_projection_idempotent(self):
        mu = random_field(6)
        once = project_P(mu, 6)
        twice = project_P(once, 6)
        assert np.max(np.abs(once.a - twice.a)) < 1e-8

    def test_projection_on_sampled_field(self):
        mu = random_field(4)
        samp = BeltramiField.sampled(GridFunction.from_callable(
            mu, QuadRule(32, 64), Domain.EXTERIOR_DISK))
        p = project_P(samp, 4)
        assert np.allclose(p.a, mu.a, rtol=1e-9, atol=1e-11)

    def test_projection_self_adjoint(self):
        mu, nu = random_field(8), random_field(8)
        left = harmonic_inner(project_P(mu, 4), nu)
        right = harmonic_inner(mu, project_P(nu, 4))
        assert abs(left - right) < 1e-8 * (1 + abs(left))


class TestFourierVectorField:
    def test_reality_enforced(self):
        arr = np.zeros(5, dtype=complex)
        arr[3] = 1.0 + 1.0j       # mode +1 without its mirror
        with pytest.raises(ValueError):
            FourierVectorField(arr)

    def test_zero_mode_must_vanish(self):
        arr = np.zeros(5, dtype=complex)
        arr[2] = 1.0
        with pytest.raises(ValueError):
            FourierVectorField(arr, real=False)

    def test_from_modes_fills_mirror(self):
        u = FourierVectorField.from_modes({2: 0.5 + 0.25j}, 3)
        assert u.mode(-2) == pytest.approx(0.5 - 0.25j)
        theta = np.linspace(0, 2 * math.pi, 7)
        assert np.max(np.abs(u(theta).imag)) < 1e-14

    def test_mode_bound(self):
        u = FourierVectorField.from_modes({1: 1.0}, 2)
        with pytest.raises(IndexOutOfRange):
            u.mode(5)

    def test_rotation_mode_maps_to_iz2(self):
        u = FourierVectorField.from_modes({1: 1.0}, 2)
        holo = u_to_holo(u)
        z = 0.3 + 0.4j
        assert complex(holo(z)) == pytest.approx(1j * z**2, rel=1e-14)
        quad = u_to_quadratic(u)
        assert np.max(np.abs(quad.coeffs)) == 0.0

    def test_second_mode_quadratic(self):
        u = FourierVectorField.from_modes({2: 1.0}, 3)
        quad = u_to_quadratic(u)
        assert complex(quad.coeffs[0]) == pytest.approx(6j)


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
