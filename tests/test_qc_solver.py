"""Solver, Schwarzian, embedding, and welding tests."""

import math
import re
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utkit import qc_solver
from utkit._bipoly import BiPoly, eval_principal
from utkit.errors import (
    CriticalPoint,
    DomainMismatch,
    FitFailure,
    NoConvergence,
    NonFiniteValue,
    NormTooLarge,
)
from utkit.geometry import INF, Domain, MoebiusMap
from utkit.qc_solver import (
    _PHI_TRUNCATION,
    QCMap,
    _exterior_riemann,
    _fit_bipoly,
    _phi_eval,
    _run_series,
    _taylor_from_tail,
    bers_embedding,
    schwarzian,
    solve_beltrami,
    welding_decompose,
)
from utkit.quadrature import GridFunction, QuadRule, beurling_transform, cauchy_transform
from utkit.series import BeltramiField, HoloCoeffs, lambda_map

RNG = np.random.default_rng(np.random.PCG64(20240820))

A2_UNIT = 1.0 / math.sqrt(12.0 * math.pi)  # storage coefficient of the first basis field
# three spellings of the point at infinity
INFINITE_POINTS = (complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.inf, np.inf))


def harmonic(a):
    return BeltramiField.harmonic(Domain.EXTERIOR_DISK, a)


def tail_derivative(tail):
    # d/dz of sum t[p] z^(-p-1), in the same principal basis
    return np.concatenate([[0.0], -np.arange(1.0, tail.size + 1) * tail])


def wirtinger_fd(f, z, h=1e-5):
    # sixth order central stencils for both Wirtinger derivatives
    st6 = ((-3, -1.0), (-2, 9.0), (-1, -45.0), (1, 45.0), (2, -9.0), (3, 1.0))
    dx = sum(w * f(z + k * h) for k, w in st6) / (60.0 * h)
    dy = sum(w * f(z + 1j * k * h) for k, w in st6) / (60.0 * h)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


# (density, P inside, P outside, H inside, H outside)
EXACT_TRANSFORMS = {
    "1": (np.ones_like, np.conj, lambda z: 1 / z, np.zeros_like, lambda z: -1 / z**2),
    "zbar": (np.conj, lambda z: np.conj(z) ** 2 / 2, lambda z: 0.5 / z**2,
             np.zeros_like, lambda z: -1 / z**3),
    "z zbar": (lambda z: z * np.conj(z), lambda z: z * np.conj(z) ** 2 / 2,
               lambda z: 0.5 / z, lambda z: np.conj(z) ** 2 / 2, lambda z: -0.5 / z**2),
}


class TestCauchyTransform:
    def test_zero_density(self):
        rule = QuadRule(16, 32)
        zero = GridFunction.from_callable(np.zeros_like, rule, Domain.UNIT_DISK)
        assert cauchy_transform(zero, 0.3 + 0.1j) == 0.0

    def test_constant_density(self):
        rule = QuadRule(32, 64)
        one = GridFunction.from_callable(np.ones_like, rule, Domain.UNIT_DISK)
        for z in (0.3 + 0.2j, -0.55 + 0.41j, 0.05j):
            assert cauchy_transform(one, z) == pytest.approx(np.conj(z), abs=1e-13)
        z = 1.7 - 0.4j
        assert cauchy_transform(one, z) == pytest.approx(1.0 / z, abs=1e-13)

    def test_antiholomorphic_density(self):
        rule = QuadRule(32, 64)
        zb = GridFunction.from_callable(np.conj, rule, Domain.UNIT_DISK)
        z = -0.4 + 0.33j
        assert cauchy_transform(zb, z) == pytest.approx(np.conj(z) ** 2 / 2, abs=1e-13)
        z = 2.1 + 0.6j
        assert cauchy_transform(zb, z) == pytest.approx(0.5 / z**2, abs=1e-13)

    @pytest.mark.parametrize("shape", [(16, 32), (32, 64), (64, 128)])
    @pytest.mark.parametrize("name", sorted(EXACT_TRANSFORMS))
    def test_exact_at_every_angle_and_radius(self, shape, name):
        # at the center, on both sides of the circle and on it, where H is
        # the limit from inside
        density, p_in, p_out, h_in, h_out = EXACT_TRANSFORMS[name]
        h = GridFunction.from_callable(density, QuadRule(*shape), Domain.UNIT_DISK)
        for radius in (0.0, 1e-9, 0.3, 0.999, 1 - 1e-6, 1.0, 1 + 1e-6, 1.001, 1.01,
                       1.03, 3.0):
            for z in radius * np.exp(2j * np.pi * np.arange(36) / 36):
                p, d = (p_in, h_in) if radius <= 1.0 else (p_out, h_out)
                assert abs(cauchy_transform(h, z) - p(z)) < 1e-13
                assert abs(beurling_transform(h, z) - d(z)) < 1e-13

    def test_matches_the_term_algebra(self):
        # two paths: grid samples of random monomial densities, against
        # the closed-form interior and tail and their z-derivatives
        rng = np.random.default_rng(23)
        rule = QuadRule(32, 64)
        for _ in range(10):
            bp = BiPoly()
            for a, b in rng.integers(0, 8, (8, 2)):
                bp = bp + BiPoly.from_term(complex(*rng.standard_normal(2)), int(a), int(b))
            h = GridFunction(rule, Domain.UNIT_DISK, bp.eval(rule.nodes()))
            top = np.max(np.abs(h.values))
            interior, tail = bp.cauchy()
            radii = np.concatenate([0.999 * rng.random(10), 1.001 + 2 * rng.random(10)])
            for z in radii * np.exp(2j * np.pi * rng.random(20)):
                if abs(z) < 1:
                    p, d = interior.eval(z), interior.dz().eval(z)
                else:
                    p, d = eval_principal(tail, z), eval_principal(tail_derivative(tail), z)
                assert abs(cauchy_transform(h, z) - p) <= 1e-12 * top
                assert abs(beurling_transform(h, z) - d) <= 1e-12 * top

    def test_wirtinger_derivatives_on_a_smooth_density(self):
        # dbar P = h inside and 0 outside, d P = H on both sides, for a
        # density outside the term algebra
        f = lambda z: np.exp(2.0 * z.real)
        h = GridFunction.from_callable(f, QuadRule(64, 128), Domain.UNIT_DISK)
        for z in (0.0, 0.3 - 0.5j, -0.7 + 0.1j, 1.3 + 0.4j, -0.2 - 1.6j):
            dz, dzbar = wirtinger_fd(lambda w: cauchy_transform(h, w), z)
            assert abs(dzbar - (f(np.array(z)) if abs(z) < 1 else 0.0)) < 1e-9
            assert abs(dz - beurling_transform(h, z)) < 1e-9

    def test_linearity(self):
        rule = QuadRule(16, 32)
        f = GridFunction.from_callable(lambda z: z**2, rule, Domain.UNIT_DISK)
        g = GridFunction.from_callable(np.conj, rule, Domain.UNIT_DISK)
        combo = GridFunction(rule, Domain.UNIT_DISK, 2.0 * f.values - 1j * g.values)
        z = 0.25 - 0.6j
        lhs = cauchy_transform(combo, z)
        rhs = 2.0 * cauchy_transform(f, z) - 1j * cauchy_transform(g, z)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rejects_exterior_samples(self):
        rule = QuadRule(12, 24)
        gf = GridFunction.from_callable(np.ones_like, rule, Domain.EXTERIOR_DISK)
        with pytest.raises(DomainMismatch):
            cauchy_transform(gf, 1.5 + 0j)
        with pytest.raises(DomainMismatch):
            beurling_transform(gf, 1.5 + 0j)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_samples_raise(self, bad):
        rule = QuadRule(12, 24)
        values = np.ones((12, 24), dtype=complex)
        values[5, 7] = bad
        h = GridFunction(rule, Domain.UNIT_DISK, values)
        for transform in (cauchy_transform, beurling_transform):
            with pytest.raises(NonFiniteValue):
                transform(h, 0.3 + 0.1j)


    def test_nan_point_raises(self):
        h = GridFunction.from_callable(np.ones_like, QuadRule(12, 24), Domain.UNIT_DISK)
        for transform in (cauchy_transform, beurling_transform):
            for z in (complex(np.nan, 0.0), complex(0.2, np.nan)):
                with pytest.raises(NonFiniteValue):
                    transform(h, z)

    def test_infinity_gives_the_limit_zero(self):
        h = GridFunction.from_callable(lambda z: np.exp(2.0 * z.real) + z,
                                       QuadRule(16, 32), Domain.UNIT_DISK)
        for transform in (cauchy_transform, beurling_transform):
            for z in INFINITE_POINTS:
                assert transform(h, z) == 0


class TestBeurlingTransform:
    def test_constant(self):
        rule = QuadRule(16, 32)
        one = GridFunction.from_callable(np.ones_like, rule, Domain.UNIT_DISK)
        assert beurling_transform(one, 0.4 - 0.2j) == pytest.approx(0.0, abs=1e-10)
        z = 1.9 + 0.3j
        assert beurling_transform(one, z) == pytest.approx(-1.0 / z**2, rel=1e-10)

    def test_mixed_monomial(self):
        # density z zbar has transform zbar^2/2 inside, -1/(2 z^2) outside
        rule = QuadRule(24, 48)
        gf = GridFunction.from_callable(lambda z: z * np.conj(z), rule,
                                        Domain.UNIT_DISK)
        z = 0.3 + 0.1j
        assert beurling_transform(gf, z) == pytest.approx(np.conj(z) ** 2 / 2,
                                                          rel=1e-8)
        z = 1.6 - 0.7j
        assert beurling_transform(gf, z) == pytest.approx(-0.5 / z**2, rel=1e-8)

    def test_center(self):
        # at z = 0 only mode 2 contributes: H(z^2)(0) = -2 int_0^1 s ds
        rule = QuadRule(16, 32)
        gf = GridFunction.from_callable(np.square, rule, Domain.UNIT_DISK)
        assert abs(beurling_transform(gf, 0.0) + 1.0) < 1e-13

    def test_matches_derivative_of_cauchy(self):
        # the z-derivatives of the closed-form transform, interior.dz()
        # and tail_derivative, against finite differences at 50 random
        # points, interior and exterior alike
        bp = (BiPoly.from_term(1.3 - 0.4j, 2, 1)
              + BiPoly.from_term(0.7j, 0, 3)
              + BiPoly.from_term(-0.5, 1, 0)
              + BiPoly.from_term(0.4, 3, 2)
              + BiPoly.from_term(0.2, 1, -1))
        interior, tail = bp.cauchy()
        rng = np.random.default_rng(41)
        pts_in = (0.45 + 0.45 * rng.random(45)) * np.exp(2j * np.pi * rng.random(45))
        pts_out = (1.5 + rng.random(5)) * np.exp(2j * np.pi * rng.random(5))
        for z in pts_in:
            fd, _ = wirtinger_fd(interior.eval, complex(z), h=0.01)
            val = interior.dz().eval(z)
            assert abs(val - fd) <= 1e-8 * (1.0 + abs(val))
        for z in pts_out:
            got = eval_principal(tail_derivative(tail), z)
            fd, _ = wirtinger_fd(lambda w: eval_principal(tail, w), complex(z),
                                 h=0.01)
            assert abs(got - fd) <= 1e-8 * (1.0 + abs(got))


def _dense_fit(rule, values, deg_z, deg_zbar):
    """The dense least-squares fit over every node: reference for _fit_bipoly."""
    nodes = rule.nodes().ravel()
    index = [(a, b) for a in range(deg_z + 1) for b in range(-1, deg_zbar + 1)]
    basis = np.column_stack([nodes**a * np.conj(nodes) ** b for a, b in index])
    coef, *_ = np.linalg.lstsq(basis, values.ravel(), rcond=None)
    return coef, index


def _fit_residual(rule, values, coef, index):
    # in extended precision: on the coarse rules the coefficients reach
    # 1e7, and a double evaluation of the residual is only good to 1e-11
    nodes = rule.nodes().astype(np.clongdouble).ravel()
    basis = np.column_stack([nodes**a * np.conj(nodes) ** b for a, b in index])
    return np.abs(basis @ np.asarray(coef, dtype=np.clongdouble) - values.ravel())


class TestFitBipoly:
    @pytest.mark.parametrize("shape,degrees", [((32, 64), (4, 18)),
                                               ((16, 32), (6, 18)),
                                               ((16, 8), (4, 18))])
    def test_objective_matches_dense_least_squares(self, shape, degrees):
        # objectives, not coefficients: aliased bins (16 x 8) are
        # rank-deficient, so the minimizer is not unique
        rule = QuadRule(*shape)
        rng = np.random.default_rng(17)
        for _ in range(3):
            vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            dense, index = _dense_fit(rule, vals, *degrees)
            fit, resid = _fit_bipoly(GridFunction(rule, Domain.UNIT_DISK, vals),
                                     *degrees)
            per_mode = [fit.coeff(a, b) for a, b in index]
            ref = float(np.sum(_fit_residual(rule, vals, dense, index) ** 2))
            res = _fit_residual(rule, vals, per_mode, index)
            assert abs(float(np.sum(res**2)) - ref) <= 1e-12 * ref
            assert resid == pytest.approx(float(np.max(res)), rel=1e-12)

    @pytest.mark.parametrize("k", [0.1, 0.2, 0.3])
    def test_radial_dilatation_fits_as_one_term(self, k):
        rule = QuadRule(32, 64)
        ext = rule.nodes(Domain.EXTERIOR_DISK)
        mu = BeltramiField.sampled(
            GridFunction(rule, Domain.EXTERIOR_DISK, k * ext / np.conj(ext)))
        fit, resid = _fit_bipoly(mu.iota_star().grid, 4, 18)
        terms = list(fit.terms())
        assert len(terms) == 1
        coef, a, b, j = terms[0]
        assert (a, b, j) == (1, -1, 0)
        assert coef == pytest.approx(k, rel=1e-14)
        assert resid < 1e-14


class TestSolveBeltrami:
    def test_zero_dilatation_gives_identity(self):
        qc = solve_beltrami(harmonic([0.0]), "ModelB", 1e-8, rule=QuadRule(16, 32))
        assert qc.seriesTermCount == 0
        assert qc.residualNorm == 0.0
        for gf in qc.grid:
            assert np.max(np.abs(gf.values - gf.rule.nodes(gf.domain))) < 1e-12

    def test_radial_exact_solution(self):
        # k z/zbar outside the circle maps to z |z|^(2 alpha), alpha = k/(1-k)
        k = 0.2
        rule = QuadRule(64, 128)
        ext = rule.nodes(Domain.EXTERIOR_DISK)
        mu = BeltramiField.sampled(
            GridFunction(rule, Domain.EXTERIOR_DISK, k * ext / np.conj(ext)))
        qc = solve_beltrami(mu, "ModelB", 1e-8, rule=rule)
        assert qc.residualNorm < 1e-8
        alpha = k / (1.0 - k)
        rng = np.random.default_rng(11)
        pts = (1.0 + 2.0 * rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        exact = pts * np.abs(pts) ** (2.0 * alpha)
        assert np.max(np.abs(qc.evaluate(pts) - exact)) < 1e-4
        for name in ("w(0)", "w'(0)-1", "w''(0)"):
            assert qc.normalizationChecks[name] < 1e-8
        # geometric decay of the series terms
        assert qc.decayRatios
        assert max(qc.decayRatios) < min(0.95, 4.0 * k)

    def test_harmonic_model_b(self):
        mu = harmonic([0.12 * A2_UNIT * 1j, 0.0, 0.06 * A2_UNIT])
        qc = solve_beltrami(mu, "ModelB", 1e-9, rule=QuadRule(24, 48))
        assert qc.residualNorm <= 1e-9
        for name in ("w(0)", "w'(0)-1", "w''(0)"):
            assert qc.normalizationChecks[name] < 1e-8
        # independent residual check away from the series identity
        z = 1.5 + 0.5j
        wz, wzb = wirtinger_fd(qc.evaluate, z)
        assert abs(wzb - mu(np.asarray(z)) * wz) < 1e-6

    def test_norm_cap(self):
        with pytest.raises(NormTooLarge):
            solve_beltrami(harmonic([1.0]), "ModelB", 1e-8)

    def test_term_budget(self, monkeypatch):
        monkeypatch.setattr(qc_solver, "_MAX_TERMS", 2)
        rule = QuadRule(16, 32)
        ext = rule.nodes(Domain.EXTERIOR_DISK)
        mu = BeltramiField.sampled(
            GridFunction(rule, Domain.EXTERIOR_DISK, 0.2 * ext / np.conj(ext)))
        with pytest.raises(NoConvergence):
            solve_beltrami(mu, "ModelB", 1e-8, rule=rule)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # 0, -1 and NaN ran until a contraction bound broke; inf took no term
        with pytest.raises(ValueError, match="tolerance"):
            solve_beltrami(harmonic([0.1 * A2_UNIT]), "ModelB", tol)

    def test_non_finite_mu_names_its_cause(self):
        # a NaN sample made sup|mu| NaN, which passed the norm cap, and the
        # sampled field then solved as mu = 0
        rule = QuadRule(32, 64)
        ext = rule.nodes(Domain.EXTERIOR_DISK)
        values = 0.2 * ext / np.conj(ext)
        values[5, 7] = np.nan
        sampled = BeltramiField.sampled(GridFunction(rule, Domain.EXTERIOR_DISK, values))
        for mu in (sampled, harmonic([0.1 * A2_UNIT, np.nan])):
            for normalization in ("ModelA", "ModelB"):
                with pytest.raises(NonFiniteValue, match="dilatation"):
                    solve_beltrami(mu, normalization, rule=rule)
            with pytest.raises(NonFiniteValue, match="dilatation"):
                bers_embedding(mu)

    def test_contraction_guard(self):
        # a density far larger than the claimed sup must trip the ratio cap
        nu = BiPoly.from_term(0.8, 1, 1) + BiPoly.from_term(0.5, 2, 0)
        rule = QuadRule(8, 16)
        with pytest.raises(NoConvergence):
            _run_series(nu, 0.01, 1e-12, rule, rule)

    def test_series_is_evaluated_on_two_rules(self, monkeypatch):
        # each iterate once on the probe rule, which gives both its residual
        # and its L2 norm, and on the solver's rule once the probe passes
        seen = []
        mode_sums = BiPoly._mode_sums

        def counted(poly, rule):
            seen.append(rule)
            return mode_sums(poly, rule)

        monkeypatch.setattr(BiPoly, "_mode_sums", counted)
        rng = np.random.default_rng(8)
        mu = harmonic(rng.normal(size=8) + 1j * rng.normal(size=8))
        qc = solve_beltrami(mu.scaled(0.3 / mu.sup_norm()), "ModelB")
        probe = QuadRule(12, 24)
        assert set(seen) == {probe, QuadRule()}
        # w~ and h per term, the first term included
        assert seen.count(probe) == 2 * (qc.seriesTermCount + 1)

    @pytest.mark.parametrize("shape", [(24, 48), (32, 64)])
    def test_unrepresentable_sampled_mu_is_a_fit_failure(self, shape):
        # the monomial fit of 0.2 (z/abs(z))^3 misses its samples by 0.12 and
        # more; the series then raised NonFiniteValue from BiPoly.cauchy
        rule = QuadRule(*shape)
        ext = rule.nodes(Domain.EXTERIOR_DISK)
        mu = BeltramiField.sampled(
            GridFunction(rule, Domain.EXTERIOR_DISK, 0.2 * (ext / np.abs(ext)) ** 3))
        for normalization in ("ModelA", "ModelB"):
            with pytest.raises(FitFailure, match=r"fit residual 1\.[0-9]*e-01 exceeds"):
                solve_beltrami(mu, normalization, rule=rule)

    def test_domain_checked(self):
        mu = BeltramiField.harmonic(Domain.UNIT_DISK, [0.01])
        with pytest.raises(DomainMismatch):
            solve_beltrami(mu, "ModelB", 1e-8, rule=QuadRule(12, 24))

    def test_unknown_normalization(self):
        with pytest.raises(ValueError):
            solve_beltrami(harmonic([0.01]), "ModelC", 1e-8)

    def test_model_a_normalization(self):
        mu = harmonic([0.1 * A2_UNIT])
        qc = solve_beltrami(mu, "ModelA", 1e-9, rule=QuadRule(32, 64))
        for name in ("w(-1)+1", "w(-i)+i", "w(1)-1"):
            assert qc.normalizationChecks[name] < 1e-8
        assert qc.residualNorm < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_model_a_riemann_fit_is_one_cholesky(self, seed, monkeypatch):
        # the exterior Riemann fit is linear in log|Phi|, so a Model A
        # solve of a harmonic field factors exactly one Gram matrix, and
        # neither the solve nor the welding makes a least-squares call
        rng = np.random.default_rng(seed)
        mu = lambda_map(HoloCoeffs(Domain.UNIT_DISK,
                                   rng.normal(size=8) + 1j * rng.normal(size=8)))
        mu = mu.scaled(0.1 / mu.sup_norm())
        calls = {"lstsq": 0, "cholesky": 0}

        def counting(name):
            original = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, wrapper)

        counting("lstsq")
        counting("cholesky")
        qc = solve_beltrami(mu, "ModelA")
        assert calls == {"lstsq": 0, "cholesky": 1}
        # at 8 modes, sup 0.1 the welding's fixed truncation may miss tol
        try:
            welding_decompose(qc)
        except FitFailure:
            pass
        assert calls == {"lstsq": 0, "cholesky": 2}
        for name in ("w(-1)+1", "w(-i)+i", "w(1)-1"):
            assert qc.normalizationChecks[name] < 1e-8
        assert qc.normalizationChecks["phiResidual"] < 1e-10
        assert qc.residualNorm < 1e-8

    @pytest.mark.parametrize("shape", [(16, 32), (24, 48), (64, 128)])
    def test_model_a_takes_one_formula_on_the_circle(self, shape, monkeypatch):
        # a boundary sample whose modulus rounds above 1 went through
        # BiPoly.eval, once per solve; now every sample is the principal tail
        calls = []
        bipoly_eval = BiPoly.eval
        monkeypatch.setattr(BiPoly, "eval", lambda *args: calls.append(1) or bipoly_eval(*args))
        rule = QuadRule(*shape)
        qc = solve_beltrami(harmonic([0.1 * A2_UNIT, 0.04 * A2_UNIT]), "ModelA", rule=rule)
        assert not calls
        m_samples = 4 * rule.angular_count
        zeta = 1.0 / np.exp(2j * math.pi * np.arange(m_samples) / m_samples)
        assert np.array_equal(qc._dress["boundary"],
                              1.0 / (eval_principal(qc._series.tail, zeta) + zeta))

    def test_model_a_reflection_symmetry(self):
        mu = harmonic([0.08 * A2_UNIT, 0.05 * A2_UNIT * 1j])
        qc = solve_beltrami(mu, "ModelA", 1e-9, rule=QuadRule(24, 48))
        rng = np.random.default_rng(5)
        z = (1.1 + rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
        dev = 1.0 / qc.evaluate(z) - np.conj(qc.evaluate(1.0 / np.conj(z)))
        assert np.max(np.abs(dev)) < 1e-6

    def test_model_a_harmonic_fixes_origin(self):
        qc = solve_beltrami(harmonic([0.1 * A2_UNIT]), "ModelA", 1e-9,
                            rule=QuadRule(24, 48))
        assert abs(qc.evaluate(0.0)) < 1e-8

    def test_model_a_origin_moves_otherwise(self):
        # a non-harmonic dilatation shifts the image of the origin
        rule = QuadRule(24, 48)
        ext = rule.nodes(Domain.EXTERIOR_DISK)
        mu = BeltramiField.sampled(
            GridFunction(rule, Domain.EXTERIOR_DISK, 0.3 * ext / np.conj(ext) ** 2))
        qc = solve_beltrami(mu, "ModelA", 1e-8, rule=rule)
        assert abs(qc.evaluate(0.0)) > 0.1

    @pytest.mark.parametrize("normalization,z0", [
        ("ModelB", 1.7 - 0.6j),
        ("ModelB", 0.45 + 0.25j),
        ("ModelA", 1.7 - 0.6j),
        ("ModelA", 0.45 + 0.25j),
    ])
    def test_evaluate_solves_the_beltrami_equation(self, normalization, z0):
        # w_zbar = k w_z with k = mu outside the disk; inside, k = 0 for the
        # conformal Model B map and the reflected dilatation
        # conj(mu(1/zbar)) z^2/zbar^2 of w = 1/conj(w(1/zbar)) for Model A
        mu = harmonic([0.1 * A2_UNIT, 0.04 * A2_UNIT])
        qc = solve_beltrami(mu, normalization, 1e-9, rule=QuadRule(24, 48))
        wz, wzb = wirtinger_fd(qc.evaluate, z0)
        if abs(z0) > 1.0:
            k = mu(np.asarray(z0))
        elif normalization == "ModelB":
            k = 0.0
        else:
            k = np.conj(mu(np.asarray(1.0 / np.conj(z0)))) * z0**2 / np.conj(z0) ** 2
        assert abs(wzb - k * wz) < 1e-8

    @pytest.mark.parametrize("normalization", ["ModelB", "ModelA"])
    def test_evaluate_keeps_the_shape_and_refuses_nan(self, normalization):
        # Model B returned nan+nanj at a NaN point, with a divide warning
        qc = solve_beltrami(harmonic([0.1 * A2_UNIT]), normalization, 1e-8,
                            rule=QuadRule(16, 32))
        z = np.array([[0.0, 0.3 + 0.2j, -0.9j], [1.0, 1.5 - 0.5j, 4.0]])
        vals = qc.evaluate(z)
        assert vals.shape == z.shape
        assert np.array_equal(vals.ravel(), qc.evaluate(z.ravel()))
        assert qc.evaluate(z[0, 1]) == vals[0, 1]
        for bad in (np.nan, np.array([0.5, complex(0.1, np.nan), 2.0])):
            with pytest.raises(NonFiniteValue):
                qc.evaluate(bad)

    @pytest.mark.parametrize("normalization", ["ModelB", "ModelA"])
    @pytest.mark.parametrize("kind", ["harmonic", "radial"])
    def test_evaluate_at_infinity(self, kind, normalization):
        # Model B returned inf+nanj with divide warnings, Model A raised
        # NonFiniteValue; the radial field's interior carries log terms
        if kind == "harmonic":
            mu, rule = harmonic([0.1 * A2_UNIT, 0.04 * A2_UNIT]), QuadRule(24, 48)
        else:
            rule = QuadRule(32, 64)
            ext = rule.nodes(Domain.EXTERIOR_DISK)
            mu = BeltramiField.sampled(
                GridFunction(rule, Domain.EXTERIOR_DISK, 0.2 * ext / np.conj(ext)))
        qc = solve_beltrami(mu, normalization, 1e-8, rule=rule)
        assert any(j for *_, j in qc._series.interior.terms()) == (kind == "radial")
        # w_B(inf) = inf, which the Moebius pin of Model A sends to a/conj(b)
        want = qc._dress["mhat"].apply(INF) if normalization == "ModelA" else INF
        finite = np.array([0.3 + 0.1j, 2.0 - 0.5j, 0.0, -0.9j, 1.0])
        for z in INFINITE_POINTS:
            assert qc.evaluate(z) == want
            vals = qc.evaluate(np.insert(finite, 2, z))
            assert vals[2] == want
            assert np.array_equal(np.delete(vals, 2), qc.evaluate(finite))
        if normalization == "ModelA":
            # the reflection exchanges 0 and infinity, bit for bit
            assert np.array_equal(qc.evaluate(np.zeros(1)),
                                  1.0 / np.conj(qc.evaluate(np.full(1, np.inf))))

    @pytest.mark.parametrize("shape", [(16, 32), (24, 48), (64, 128)])
    @pytest.mark.parametrize("kind", ["harmonic", "radial"])
    @pytest.mark.parametrize("normalization", ["ModelB", "ModelA"])
    def test_grid_samples_match_evaluate(self, normalization, kind, shape):
        # the grid samples come from the rule's own paths: the tail by one
        # FFT per ring, 1/w~ from the residual pass, the Phi fit on both
        rule = QuadRule(*shape)
        ext = rule.nodes(Domain.EXTERIOR_DISK)
        if kind == "harmonic":
            mu = harmonic([0.1 * A2_UNIT, 0.04 * A2_UNIT])
        else:
            mu = BeltramiField.sampled(
                GridFunction(rule, Domain.EXTERIOR_DISK, 0.2 * ext / np.conj(ext)))
        qc = solve_beltrami(mu, normalization, rule=rule)
        for grid, nodes in zip(qc.grid, (rule.nodes(Domain.UNIT_DISK), ext)):
            vals = qc.evaluate(nodes)
            assert np.all(np.abs(vals - grid.values) <= 1e-12 * np.abs(grid.values))

    @pytest.mark.parametrize("normalization", ["ModelB", "ModelA"])
    def test_evaluate_at_infinity_off_a_fixed_point(self, normalization):
        # the dilatation of test_model_a_origin_moves_otherwise gives w~ a
        # constant term, so the Model B map sends infinity to 1/w~(0)
        rule = QuadRule(24, 48)
        ext = rule.nodes(Domain.EXTERIOR_DISK)
        mu = BeltramiField.sampled(
            GridFunction(rule, Domain.EXTERIOR_DISK, 0.3 * ext / np.conj(ext) ** 2))
        qc = solve_beltrami(mu, normalization, 1e-8, rule=rule)
        at_inf = qc.evaluate(np.inf)
        assert np.isfinite(at_inf)
        assert abs(at_inf - qc.evaluate(1e12)) < 1e-9 * abs(at_inf)
        if normalization == "ModelB":
            assert at_inf == 1.0 / qc._series.interior.coeff(0, 0)
        else:
            assert abs(qc.evaluate(0.0) - qc.evaluate(1e-12)) < 1e-9

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_jets_hold_for_random_harmonic_fields(self, seed):
        rng = np.random.default_rng(seed)
        a = (rng.normal(size=3) + 1j * rng.normal(size=3)) * 0.03 * A2_UNIT
        mu = harmonic(a)
        qc = solve_beltrami(mu, "ModelB", 1e-8, rule=QuadRule(12, 24))
        assert qc.residualNorm <= 1e-8
        for name in ("w(0)", "w'(0)-1", "w''(0)"):
            assert qc.normalizationChecks[name] < 1e-8
        # harmonic data keeps the inverted solution pinned at the origin
        assert abs(qc._series.interior.eval(0.0)) < 1e-12


class TestSharedTables:
    # the nodes, ring powers and Cauchy kernels are shared between calls, so
    # a call that wrote into one would change the next call's answer
    RULE = QuadRule(24, 48)

    @staticmethod
    def field(kind):
        if kind == "harmonic":
            a = np.array([0.3, -0.2j, 0.1 + 0.1j]) * A2_UNIT
            return harmonic(a)
        ext = TestSharedTables.RULE.nodes(Domain.EXTERIOR_DISK)
        return BeltramiField.sampled(GridFunction(
            TestSharedTables.RULE, Domain.EXTERIOR_DISK, 0.2 * ext / np.conj(ext)))

    @pytest.mark.parametrize("normalization", ["ModelB", "ModelA"])
    @pytest.mark.parametrize("kind", ["harmonic", "sampled"])
    def test_repeated_solve_is_bit_identical(self, kind, normalization):
        runs = [solve_beltrami(self.field(kind), normalization, 1e-8, rule=self.RULE)
                for _ in range(2)]
        first, second = ([qc.seriesTermCount, qc.residualNorm, qc.decayRatios]
                         + [a.tobytes() for a in (qc.grid[0].values, qc.grid[1].values,
                                                  qc._series.tail)]
                         for qc in runs)
        assert first[0] > 0
        assert first == second

    @pytest.mark.parametrize("kind", ["harmonic", "sampled"])
    def test_repeated_bers_embedding_is_bit_identical(self, kind):
        first, second = (bers_embedding(self.field(kind), truncation=12, rule=self.RULE)
                         .coeffs.tobytes() for _ in range(2))
        assert first == second


class TestExteriorRiemann:
    @pytest.mark.parametrize("b", [0.02, 0.05, 0.1])
    def test_ellipse_matches_closed_form(self, b):
        # the ellipse zeta + b/zeta has the exterior map
        # Phi(w) = (w + w sqrt(1 - 4b/w^2))/2, with A1 = 1
        zeta = np.exp(2j * np.pi * np.arange(512) / 512)
        fit, resid = _exterior_riemann(zeta + b / zeta, _PHI_TRUNCATION)
        assert fit[0] == pytest.approx(1.0, abs=1e-12)
        assert resid < 1e-11
        rng = np.random.default_rng(3)
        radii = np.concatenate([np.ones(16), 1.0 + 2.0 * rng.random(32)])
        z = radii * np.exp(2j * np.pi * rng.random(radii.size))
        w = z + b / z
        root = np.sqrt(1.0 - 4.0 * b / w**2)
        phi, dphi = _phi_eval(fit, w, deriv=True)
        assert np.max(np.abs(phi - 0.5 * w * (1.0 + root))) < 2e-11
        assert np.max(np.abs(phi - z)) < 2e-11
        assert np.max(np.abs(dphi - (0.5 * (1.0 + root) + 2.0 * b / (w**2 * root)))) < 1e-9
        assert np.array_equal(_phi_eval(fit, w), phi)

    def test_nan_boundary_names_its_cause(self):
        # the Cholesky factorization would pass the NaN through
        zeta = np.exp(2j * np.pi * np.arange(512) / 512)
        curve = zeta + 0.05 / zeta
        curve[17] = np.nan
        with pytest.raises(NoConvergence, match="non-finite"):
            _exterior_riemann(curve, _PHI_TRUNCATION)

    def test_constant_boundary_names_its_cause(self):
        # every column is constant, so the Gram matrix has rank one
        with pytest.raises(NoConvergence, match="positive definite"):
            _exterior_riemann(np.full(512, 1.2 + 0.1j), _PHI_TRUNCATION)


class TestSchwarzian:
    def test_square(self):
        f = HoloCoeffs(Domain.UNIT_DISK, [0.0, 0.0, 1.0])
        assert schwarzian(f, 1.0) == pytest.approx(-1.5, rel=1e-12)

    def test_critical_point(self):
        f = HoloCoeffs(Domain.UNIT_DISK, [0.0, 0.0, 1.0])
        with pytest.raises(CriticalPoint):
            schwarzian(f, 0.0)

    def test_moebius_annihilated(self):
        m = MoebiusMap(complex(math.sqrt(1.04)), 0.2 + 0j)
        co = np.zeros(60, dtype=complex)
        num = np.zeros(60, dtype=complex)
        den = np.zeros(60, dtype=complex)
        num[0], num[1] = m.b, m.a
        den[0], den[1] = np.conj(m.a), np.conj(m.b)
        for k in range(60):
            acc = num[k] - (np.dot(den[1:k + 1], co[k - 1::-1]) if k else 0.0)
            co[k] = acc / den[0]
        for z in (0.0, 0.4, -0.3 + 0.5j):
            assert abs(schwarzian(HoloCoeffs(Domain.UNIT_DISK, co), z)) < 1e-12

    def test_cocycle_on_grid_samples(self):
        # postcomposing with a Moebius map leaves the Schwarzian alone
        f = HoloCoeffs(Domain.UNIT_DISK, [0.0, 1.0, 0.0, 0.05])
        m = MoebiusMap(complex(math.sqrt(1.04)), 0.2 + 0j)
        gf = GridFunction.from_callable(lambda z: m.apply(f(z)),
                                        QuadRule(24, 64), Domain.UNIT_DISK)
        z = 0.3 + 0.1j
        assert schwarzian(gf, z) == pytest.approx(schwarzian(f, z), rel=1e-10)

    def test_input_type_checked(self):
        with pytest.raises(TypeError):
            schwarzian(lambda z: z, 0.1)

    def test_exterior_grid_rejected(self):
        # the grid's side is checked before it is read off as a Taylor series
        gf = GridFunction.from_callable(lambda z: z + 0.1 * z**2, QuadRule(24, 48),
                                        Domain.EXTERIOR_DISK)
        with pytest.raises(DomainMismatch):
            schwarzian(gf, 0.2 + 0.1j)


class TestBersEmbedding:
    def test_zero_field(self):
        out = bers_embedding(harmonic([0.0]), truncation=10)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_radial_maps_to_origin(self):
        rule = QuadRule(24, 48)
        ext = rule.nodes(Domain.EXTERIOR_DISK)
        mu = BeltramiField.sampled(
            GridFunction(rule, Domain.EXTERIOR_DISK, 0.2 * ext / np.conj(ext)))
        out = bers_embedding(mu, truncation=10, rule=rule)
        assert np.max(np.abs(out.coeffs)) < 1e-8

    def test_truncation_is_a_count(self):
        # -1 failed as "coefficients must form a nonempty vector"
        mu = harmonic([0.05 * A2_UNIT])
        with pytest.raises(ValueError, match="truncation"):
            bers_embedding(mu, truncation=-1)
        with pytest.raises(TypeError):
            bers_embedding(mu, truncation=2.5)
        assert bers_embedding(mu, truncation=0).coeffs.size == 1
        assert np.array_equal(bers_embedding(mu, truncation=np.int64(6)).coeffs,
                              bers_embedding(mu, truncation=6).coeffs)

    @pytest.mark.parametrize("seed", [7, 19])
    def test_weighted_section_inverts(self, seed):
        # the harmonic field built from phi embeds back onto phi
        rng = np.random.default_rng(seed)
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        phi = HoloCoeffs(Domain.UNIT_DISK, c)
        phi = HoloCoeffs(Domain.UNIT_DISK, c * (0.45 / phi.sup_norm()))
        out = bers_embedding(lambda_map(phi), truncation=30)
        diff = out.coeffs.copy()
        diff[:phi.coeffs.size] -= phi.coeffs
        assert HoloCoeffs(Domain.UNIT_DISK, diff).sup_norm() < 1e-3


class TestWelding:
    def test_identity(self):
        qc = solve_beltrami(harmonic([0.0]), "ModelA", 1e-8, rule=QuadRule(16, 32))
        wd = welding_decompose(qc, truncation=8)
        assert wd.capacity == pytest.approx(1.0, abs=1e-12)
        assert wd.potentialK == pytest.approx(0.0, abs=1e-12)
        assert wd.fCoeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(wd.fCoeffs[1:])) < 1e-12
        assert np.max(np.abs(wd.gCoeffs[1:])) < 1e-10

    def test_area_identity(self):
        qc = solve_beltrami(harmonic([0.1 * A2_UNIT]), "ModelA", 1e-10,
                            rule=QuadRule(32, 64))
        wd = welding_decompose(qc, truncation=32)
        assert abs(wd.area_residual()) < 1e-3
        # capacity is pinned by the leading exterior-map coefficient
        assert wd.capacity == pytest.approx(1.0 / qc._dress["phi"][0], abs=1e-8)

    def test_nan_boundary_names_its_cause(self):
        # the damped Gram matrix of the welding is positive definite for
        # any finite boundary, a constant one included, so only a
        # non-finite sample can stop its factorization
        qc = solve_beltrami(harmonic([0.1 * A2_UNIT]), "ModelA", 1e-9,
                            rule=QuadRule(16, 32))
        boundary = qc._dress["boundary"].copy()
        boundary[5] = np.nan
        broken = replace(qc, _dress={**qc._dress, "boundary": boundary})
        with pytest.raises(FitFailure, match="non-finite"):
            welding_decompose(broken)

    def test_failed_factorization_is_a_fit_failure(self, monkeypatch):
        qc = solve_beltrami(harmonic([0.1 * A2_UNIT]), "ModelA", 1e-9,
                            rule=QuadRule(16, 32))

        def indefinite(gram):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", indefinite)
        with pytest.raises(FitFailure, match="welding fit failed: Matrix is not positive"):
            welding_decompose(qc)

    def test_needs_symmetric_normalization(self):
        qc = solve_beltrami(harmonic([0.05 * A2_UNIT]), "ModelB", 1e-8,
                            rule=QuadRule(16, 32))
        with pytest.raises(ValueError):
            welding_decompose(qc)

    def test_counts_and_tolerances_are_checked(self):
        # truncation -1 raised IndexError, 2.5 numpy's pad_width error, and
        # tol -1 or nan a FitFailure that blamed the residual
        qc = solve_beltrami(harmonic([0.1 * A2_UNIT]), "ModelA", 1e-9,
                            rule=QuadRule(16, 32))
        with pytest.raises(ValueError, match="truncation"):
            welding_decompose(qc, truncation=-1)
        with pytest.raises(TypeError):
            welding_decompose(qc, truncation=2.5)
        for tol in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="tolerance"):
                welding_decompose(qc, tol=tol)
        assert welding_decompose(qc, truncation=0, tol=math.inf).gCoeffs.size == 1
        assert np.array_equal(welding_decompose(qc, truncation=np.int64(8)).gCoeffs,
                              welding_decompose(qc, truncation=8).gCoeffs)

    def test_unreachable_tolerance(self):
        qc = solve_beltrami(harmonic([0.1 * A2_UNIT]), "ModelA", 1e-9,
                            rule=QuadRule(24, 48))
        with pytest.raises(FitFailure):
            welding_decompose(qc, truncation=32, tol=1e-18)

    def test_interior_series_linearizes(self):
        # at small t the cubic coefficient of f recovers the storage value
        t = 1e-2
        qc = solve_beltrami(harmonic([t * A2_UNIT]), "ModelA", 1e-11,
                            rule=QuadRule(24, 48))
        wd = welding_decompose(qc, truncation=16)
        assert wd.fCoeffs[2] == pytest.approx(t * A2_UNIT, rel=5e-2)

    def test_potential_flat_at_origin(self):
        # K(t) must scale quadratically, so doubling t quadruples it
        def pot(t):
            qc = solve_beltrami(harmonic([t * A2_UNIT]), "ModelA", 1e-10,
                                rule=QuadRule(24, 48))
            return welding_decompose(qc, truncation=24).potentialK

        ratio = pot(0.1) / pot(0.05)
        assert 3.5 < ratio < 4.5


def test_taylor_reciprocal_consistency():
    # the interior Taylor data must reproduce the evaluated map
    mu = harmonic([0.1 * A2_UNIT, 0.05 * A2_UNIT * 1j])
    qc = solve_beltrami(mu, "ModelB", 1e-11, rule=QuadRule(24, 48))
    a = _taylor_from_tail(qc._series.tail, 24)
    z = 0.3 * np.exp(2j * np.pi * np.arange(6) / 6)
    series = z * np.polynomial.polynomial.polyval(z, a)
    assert np.max(np.abs(series - qc.evaluate(z))) < 1e-10


@pytest.mark.parametrize("modes, sup, welds", [
    (1, 0.45, True), (2, 0.3, True), (4, 0.15, True), (8, 0.1, False)])
def test_model_a_contract_sweep(modes, sup, welds):
    # complex-normal harmonic coefficients scaled to sup: the solve, with
    # its exterior Riemann fit, succeeds on every seed; where welds is
    # False the welding fit's fixed truncation may still fail
    for seed in range(2000, 2010):
        rng = np.random.default_rng(seed)
        mu = harmonic(rng.normal(size=modes) + 1j * rng.normal(size=modes))
        qc = solve_beltrami(mu.scaled(sup / mu.sup_norm()), "ModelA")
        try:
            welding_decompose(qc)
        except FitFailure:
            if welds:
                raise


@pytest.mark.parametrize("rule", [QuadRule(8, 16), QuadRule(12, 20)],
                         ids=["8x16", "12x20"])
def test_model_a_small_rules(rule):
    # 4 x 16 and 4 x 20 circle samples are fewer than the 81 real unknowns
    # of the full Riemann fit, so its truncation shrinks to fit the data
    for modes in (1, 2, 3, 4):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            mu = harmonic(rng.normal(size=modes) + 1j * rng.normal(size=modes))
            qc = solve_beltrami(mu.scaled(0.05 / mu.sup_norm()), "ModelA", rule=rule)
            wd = welding_decompose(qc)
            assert qc.normalizationChecks["phiResidual"] < 1e-10
            assert wd.fitResidual < 1e-10


def _svd_reference(qc, truncation=32):
    """Both fits of a Model A solution as SVD least squares on the same
    samples: (Riemann fit residual, welding fit residual), the welding
    Tikhonov damped by stacking lambda I under its matrix."""
    boundary = qc._dress["boundary"]
    powers = np.column_stack([boundary ** -k for k in range(1, _PHI_TRUNCATION + 1)])
    mat = np.column_stack([np.ones(boundary.size)]
                          + [part for k in range(_PHI_TRUNCATION)
                             for part in (powers[:, k].real, -powers[:, k].imag)])
    rhs = -np.log(np.abs(boundary))
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    phi_resid = np.max(np.abs(np.expm1(mat @ sol - rhs)))
    gamma = np.conj(qc._dress["psi_point"]) * _phi_eval(qc._dress["phi"], boundary)
    powers = np.column_stack([gamma ** (1 - n) for n in range(truncation + 1)])
    stacked = np.vstack([powers, 1e-6 * np.eye(truncation + 1)])
    padded = np.concatenate([boundary, np.zeros(truncation + 1)])
    g, *_ = np.linalg.lstsq(stacked, padded, rcond=None)
    return phi_resid, np.max(np.abs(powers @ g - boundary))


@pytest.mark.parametrize("modes, sup", [(1, 0.45), (2, 0.3), (4, 0.15), (8, 0.1)])
def test_model_a_fits_match_svd_least_squares(modes, sup):
    # the normal equations reach the residuals of the SVD solves on the
    # cells of test_model_a_contract_sweep
    def close(resid, ref):
        return resid < 1e-13 or 0.5 * ref <= resid <= 2.0 * ref

    for seed in range(2000, 2010):
        rng = np.random.default_rng(seed)
        mu = harmonic(rng.normal(size=modes) + 1j * rng.normal(size=modes))
        qc = solve_beltrami(mu.scaled(sup / mu.sup_norm()), "ModelA")
        phi_ref, weld_ref = _svd_reference(qc)
        assert close(qc.normalizationChecks["phiResidual"], phi_ref)
        assert close(welding_decompose(qc, tol=np.inf).fitResidual, weld_ref)


@pytest.mark.parametrize("cell, modes, error, resid", [
    ("F3/8/1", 8, NoConvergence, 1.24e-7), ("F3/4/2", 4, FitFailure, 5.75e-5)])
def test_model_a_benchmark_failures_keep_their_cause(cell, modes, error, resid):
    # the two failing Model A cells of the benchmark, drawn as it draws
    # them: the Riemann fit at 8 modes and the welding fit at 4, sup 0.45
    rng = np.random.default_rng([0, zlib.crc32(cell.encode())])
    c = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    c = c * (0.45 / lambda_map(HoloCoeffs(Domain.UNIT_DISK, c)).sup_norm())
    with pytest.raises(error) as info:
        qc = solve_beltrami(lambda_map(HoloCoeffs(Domain.UNIT_DISK, c)), "ModelA")
        welding_decompose(qc)
    found = float(re.search(r"residual (\S+)", str(info.value)).group(1))
    assert found == pytest.approx(resid, rel=5e-3)


def _pinned_fields():
    rng = np.random.default_rng(20261018)
    for modes in (1, 2, 4, 8):
        for sup in (0.1, 0.3, 0.49):
            mu = harmonic(rng.normal(size=modes) + 1j * rng.normal(size=modes))
            yield f"m{modes}/s{sup}", mu.scaled(sup / mu.sup_norm()), 1e-8, None
    rule = QuadRule(32, 64)
    ext = rule.nodes(Domain.EXTERIOR_DISK)
    for k in (0.2, 0.3):
        grid = GridFunction(rule, Domain.EXTERIOR_DISK, k * ext / np.conj(ext))
        yield f"k{k}", BeltramiField.sampled(grid), 1e-8, rule
    rng = np.random.default_rng(39)
    mu = harmonic(rng.normal(size=8) + 1j * rng.normal(size=8))
    yield "seed39", mu.scaled(0.3 / mu.sup_norm()), 1e-10, None


# (terms) or (exception type, message) of each Model B solve, as recorded
# before the term algebra moved to one block per polynomial, except k0.3:
# it converges only since the series keeps every nonzero coefficient.  The
# two ratios in the messages are those of the L2 norm on the probe rule
_PINNED = {
    "m1/s0.1": 5, "m1/s0.3": 7, "m1/s0.49": 8,
    "m2/s0.1": 5, "m2/s0.3": 8, "m2/s0.49": 10,
    "m4/s0.1": 6, "m4/s0.3": 9, "m4/s0.49": 11,
    "m8/s0.1": 6, "m8/s0.3": 10,
    "m8/s0.49": (NoConvergence, "series ratio 1.963 broke the contraction bound 0.950"),
    "k0.2": 17,
    "k0.3": 25,
    # a round-off floor reported as a broken contraction: the ratio is
    # rounding noise, so it moves with any change to the arithmetic
    "seed39": (NoConvergence, "series ratio 1.918 broke the contraction bound 0.950"),
}


def test_stopping_decisions_are_pinned():
    got = {}
    for name, mu, tol, rule in _pinned_fields():
        try:
            got[name] = solve_beltrami(mu, "ModelB", tol, rule=rule).seriesTermCount
        except NoConvergence as exc:
            got[name] = (type(exc), str(exc))
    assert got == _PINNED


def _radial_sampled(k, rule):
    ext = rule.nodes(Domain.EXTERIOR_DISK)
    return BeltramiField.sampled(
        GridFunction(rule, Domain.EXTERIOR_DISK, k * ext / np.conj(ext)))


@pytest.mark.parametrize("k, shape", [
    (k, shape) for shape in ((32, 64), (64, 128)) for k in (0.1, 0.2, 0.25, 0.3, 0.35, 0.4)
] + [(0.45, (32, 64))])
def test_sampled_radial_contract_sweep(k, shape):
    # k z/zbar across the contract: the iterates are polynomials in log|z|
    # whose terms cancel at small radii, so the series keeps every nonzero
    # coefficient however small; the map is z |z|^(2k/(1-k)) outside
    rule = QuadRule(*shape)
    qc = solve_beltrami(_radial_sampled(k, rule), "ModelB", rule=rule)
    assert qc.residualNorm <= 1e-8
    pts = np.array([1.1, 1.7j, -2.5 + 0.5j, 3.0 * np.exp(0.3j), 4.0])
    exact = pts * np.abs(pts) ** (2.0 * k / (1.0 - k))
    # the default tol 1e-8 stops k = 0.1 on 32 x 64 after 10 terms, 5e-12 off
    assert np.max(np.abs(qc.evaluate(pts) - exact) / np.abs(exact)) < 1e-11


@pytest.mark.parametrize("shape", [(32, 64), (64, 128)])
def test_sampled_radial_past_the_term_cap_names_it(shape):
    rule = QuadRule(*shape)
    with pytest.raises(NoConvergence, match="after 50 terms"):
        solve_beltrami(_radial_sampled(0.49, rule), "ModelB", rule=rule)


@pytest.mark.parametrize("k", [0.25, 0.3])
def test_sampled_radial_bers_embedding(k):
    rule = QuadRule(64, 128)
    out = bers_embedding(_radial_sampled(k, rule), rule=rule)
    assert np.max(np.abs(out.coeffs)) < 1e-8


@pytest.mark.parametrize("modes", [1, 2, 4])
def test_sampled_nonradial_matches_its_harmonic_solve(modes):
    # a harmonic field sampled on 32 x 64 and fitted mode by mode solves
    # to the same map as the field itself, solved at tol 1e-10
    rule = QuadRule(32, 64)
    ext = rule.nodes(Domain.EXTERIOR_DISK)
    pts = np.array([1.05, 1.7j, -2.5 + 0.5j, 3.0 * np.exp(0.3j), 3.0 + 3.0j])
    for seed in range(3000, 3010):
        rng = np.random.default_rng(seed)
        mu = harmonic(rng.normal(size=modes) + 1j * rng.normal(size=modes))
        mu = mu.scaled(0.3 / mu.sup_norm())
        sampled = BeltramiField.sampled(GridFunction(rule, Domain.EXTERIOR_DISK, mu(ext)))
        want = solve_beltrami(mu, "ModelB", 1e-10).evaluate(pts)
        got = solve_beltrami(sampled, "ModelB", rule=rule).evaluate(pts)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10, seed
