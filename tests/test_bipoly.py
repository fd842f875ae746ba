"""Exactness checks for the bidegree term algebra and its Cauchy transform."""

import numpy as np
import pytest

from utkit import BeltramiField, Domain, QuadRule, solve_beltrami
from utkit._bipoly import BiPoly, eval_principal
from utkit.errors import NonFiniteValue

RNG = np.random.default_rng(np.random.PCG64(20240819))


def random_bipoly(nterms=6, with_logcase=False):
    out = BiPoly()
    for _ in range(nterms):
        a = int(RNG.integers(0, 4))
        b = int(RNG.integers(0, 4))
        coef = complex(RNG.normal(), RNG.normal())
        out = out + BiPoly.from_term(coef, a, b, int(RNG.integers(0, 2)))
    if with_logcase:
        # b = -1 with positive angular mode exercises the log branch
        out = out + BiPoly.from_term(0.7 - 0.2j, 2, -1, 1)
        out = out + BiPoly.from_term(0.3j, 1, -1, 0)
        out = out + BiPoly.from_term(-0.4, 3, -2, 0)
    return out


class TestAlgebra:
    def test_from_term_eval(self):
        t = BiPoly.from_term(2.0, 1, 1, 1)
        z = 0.5
        assert t.eval(z) == pytest.approx(2.0 * 0.25 * np.log(0.5))

    def test_add_mul_matches_pointwise(self):
        p = random_bipoly(5)
        q = random_bipoly(5, with_logcase=True)
        z = 0.3 + 0.4j
        assert (p + q).eval(z) == pytest.approx(p.eval(z) + q.eval(z))
        assert (p * q).eval(z) == pytest.approx(p.eval(z) * q.eval(z))
        assert (2.5 * p).eval(z) == pytest.approx(2.5 * p.eval(z))
        assert (p - p).max_abs() == 0.0

    def test_mul_monomials(self):
        p = BiPoly.from_term(1.0, 1, 0) + BiPoly.from_term(1.0, 0, 1)
        q = BiPoly.from_term(1.0, 1, 0) - BiPoly.from_term(1.0, 0, 1)
        prod = p * q
        assert prod.coeff(2, 0) == 1.0
        assert prod.coeff(0, 2) == -1.0
        assert prod.coeff(1, 1) == 0.0
        r = BiPoly.from_term(2.0, 1, 0, 1) * BiPoly.from_term(3.0, 0, 1, 2)
        assert r.coeff(1, 1, 3) == 6.0
        assert r.nnz() == 1

    def test_dz_dzbar(self):
        t = BiPoly.from_term(1.0, 2, 1, 2)
        d = t.dz()
        assert d.coeff(1, 1, 2) == 2.0
        assert d.coeff(1, 1, 1) == 1.0
        db = t.dzbar()
        assert db.coeff(2, 0, 2) == 1.0
        assert db.coeff(2, 0, 1) == 1.0

    def test_dz_drops_constant(self):
        assert BiPoly.from_term(3.0, 0, 0).dz().is_zero

    def test_derivative_pointwise(self):
        p = random_bipoly(6, with_logcase=True)
        z = 0.4 - 0.3j
        h = 1e-6
        fd = (p.eval(z + h) - p.eval(z - h)) / (2 * h)
        fd += 0j
        dz_exact = p.dz().eval(z)
        dzbar_exact = p.dzbar().eval(z)
        # real-step difference mixes dz and dzbar
        assert fd == pytest.approx(dz_exact + dzbar_exact, rel=1e-8)
        fdi = (p.eval(z + 1j * h) - p.eval(z - 1j * h)) / (2j * h)
        assert fdi == pytest.approx(dz_exact - dzbar_exact, rel=1e-8)

    def test_prune(self):
        # exact zeros go and the block shrinks to their box; a tiny
        # coefficient stays, whatever its size next to the others
        p = (BiPoly.from_term(1.0, 1, 2) + BiPoly.from_term(1e-30, 3, 5, 1)
             + BiPoly.from_term(2.0, 0, 0, 3) - BiPoly.from_term(2.0, 0, 0, 3))
        assert p._c.shape == (4, 4, 6)
        q = p.prune()
        assert q._c.shape == (2, 3, 4)
        assert (q._amin, q._bmin) == (1, 2)
        assert list(q.terms()) == [(1.0, 1, 2, 0), (1e-30, 3, 5, 1)]
        assert BiPoly.from_term(0.0, 2, 2, 1).prune()._c.size == 0

    def test_product_sums_over_the_sparser_factor_in_term_order(self):
        # a multi-level pair with nnz 7 and 9, and a tie at 8: every
        # coefficient sums the pair products over the sparser factor's
        # terms (self's on a tie) in their order, bit for bit
        rng = np.random.default_rng(7)

        def draw(count):
            p = BiPoly()
            while p.nnz() < count:
                p = p + BiPoly.from_term(complex(*rng.normal(size=2)),
                                         *rng.integers(0, 3, size=2), rng.integers(0, 3))
            return p

        def times(x, y):
            # one element through the multiply ufunc, as the block product
            # computes it: numpy's vector loop may fuse a multiply-add that
            # a scalar complex product rounds twice
            return np.multiply(np.array([x]), np.array([y]))[0]

        def reference(first, second):
            out = {}
            for cs, a, b, j in first.terms():
                for cg, a2, b2, j2 in second.terms():
                    key = (a + a2, b + b2, j + j2)
                    out[key] = out.get(key, 0j) + times(cs, cg)
            return out

        def coeffs(p):
            return {(a, b, j): c for c, a, b, j in p.terms()}

        sparse, dense = draw(7), draw(9)
        assert sparse._c.shape[0] > 1 and dense._c.shape[0] > 1
        want = reference(sparse, dense)
        assert want != reference(dense, sparse)
        assert coeffs(sparse * dense) == want
        assert coeffs(dense * sparse) == want
        left, right = draw(8), draw(8)
        assert reference(left, right) != reference(right, left)
        assert coeffs(left * right) == reference(left, right)
        assert coeffs(right * left) == reference(right, left)


class TestCauchy:
    def test_constant_density(self):
        inner, tail = BiPoly.from_term(1.0, 0, 0).cauchy()
        assert inner.nnz() == 1
        assert inner.coeff(0, 1) == 1.0
        np.testing.assert_allclose(tail, [1.0])

    def test_zbar_density(self):
        inner, tail = BiPoly.from_term(1.0, 0, 1).cauchy()
        assert inner.coeff(0, 2) == 0.5
        assert inner.nnz() == 1
        np.testing.assert_allclose(tail, [0.0, 0.5])

    def test_log_branch(self):
        # density z/zbar maps to 2 z log|z| inside and nothing outside
        inner, tail = BiPoly.from_term(1.0, 1, -1).cauchy()
        assert inner.coeff(1, 0, 1) == 2.0
        assert inner.nnz() == 1
        assert tail.size == 0

    def test_holomorphic_density_vanishing_outside(self):
        inner, tail = BiPoly.from_term(1.0, 1, 0).cauchy()
        assert tail.size == 0
        # -(1/pi) iint zeta/(zeta - 0) = -1
        assert inner.eval(0.0) == pytest.approx(-1.0)

    def test_beurling_of_constant(self):
        inner, tail = BiPoly.from_term(1.0, 0, 0).cauchy()
        assert inner.dz().is_zero
        z = 1.5 + 0.2j
        h = 1e-5
        fd = (eval_principal(tail, z + h) - eval_principal(tail, z - h)) / (2 * h)
        assert fd == pytest.approx(-1.0 / z ** 2, rel=1e-8)

    def test_dzbar_inverts_cauchy_exactly(self):
        t = random_bipoly(8, with_logcase=True)
        inner, _ = t.cauchy()
        assert (inner.dzbar() - t).max_abs() < 1e-14 * t.max_abs()

    def test_divergent_term_raises(self):
        with pytest.raises(NonFiniteValue):
            BiPoly.from_term(1.0, -1, -1).cauchy()
        with pytest.raises(NonFiniteValue):
            BiPoly.from_term(1.0, -3, -2).cauchy()
        # positive angular mode keeps the same radial profile integrable
        BiPoly.from_term(1.0, 0, -1).cauchy()

    def test_interior_exterior_agree_on_circle(self):
        t = random_bipoly(7, with_logcase=True)
        inner, tail = t.cauchy()
        z = np.exp(1j * np.array([0.3, 1.1, 2.9, 4.2]))
        np.testing.assert_allclose(inner.eval(z), eval_principal(tail, z),
                                   rtol=1e-12, atol=1e-12)

    def test_exterior_against_quadrature(self):
        t = BiPoly.from_term(1.0, 2, 1) + BiPoly.from_term(0.5j, 0, 3)
        _, tail = t.cauchy()
        rule = QuadRule(48, 96)
        z = 1.7 - 0.4j
        nodes = rule.nodes()
        vals = t.eval(nodes) / (nodes - z)
        direct = -np.sum(vals * rule.node_weights()) / np.pi
        assert eval_principal(tail, z) == pytest.approx(direct, rel=1e-11)

    def test_interior_at_zero_for_nonpositive_modes(self):
        # every angular mode a - b <= 0 keeps the transform zero at the origin
        t = (BiPoly.from_term(1.0, 0, 2) + BiPoly.from_term(2.0, 1, 1)
             + BiPoly.from_term(0.5j, 1, 3))
        inner, _ = t.cauchy()
        assert inner.eval(0.0) == 0.0


class TestEvalRule:
    def test_matches_pointwise_eval(self):
        # modes a - b spanning -12..12 or wider alias onto 8 angles;
        # log levels and the b = -1 column ride along
        p = random_bipoly(6, with_logcase=True)
        p = p + BiPoly.from_term(0.5, 12, 0) + BiPoly.from_term(-0.25j, 0, 12, 2)
        for _ in range(20):
            p = p + BiPoly.from_term(complex(RNG.normal(), RNG.normal()),
                                     int(RNG.integers(0, 13)),
                                     int(RNG.integers(-1, 13)),
                                     int(RNG.integers(0, 3)))
        rule = QuadRule(5, 8)
        z = rule.nodes()
        assert p.coeff(1, -1) != 0 and p.coeff(0, 12, 2) != 0
        scale = sum(abs(c) * np.abs(z) ** (a + b) * np.abs(np.log(np.abs(z))) ** j
                    for c, a, b, j in p.terms())
        for conjugate, pts in ((False, z), (True, np.conj(z))):
            got = p.eval_rule(rule, conjugate=conjugate)
            assert got.shape == z.shape
            assert np.max(np.abs(got - p.eval(pts)) / scale) < 1e-13

    def test_late_iterate_against_mpmath(self):
        # the last Neumann iterate of an 8-mode sup-0.3 solve: coefficients
        # of order 1e4-1e5 cancel to values of order 1e-11
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(4)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        mu = BeltramiField.harmonic(Domain.EXTERIOR_DISK, a)
        mu = BeltramiField.harmonic(Domain.EXTERIOR_DISK, a * 0.3 / mu.sup_norm())
        h = solve_beltrami(mu, "ModelB", 1e-10)._series.h
        assert h.max_abs() > 1e4
        rule = QuadRule(12, 24)
        z = rule.nodes()
        ring, poly = h.eval_rule(rule), h.eval(z)
        terms = list(h.terms())
        ring_err = poly_err = 0.0
        with mpmath.workdps(40):
            for k, l in ((11, 1), (11, 7), (10, 13), (9, 20), (6, 5), (3, 11)):
                zz = mpmath.mpc(complex(z[k, l]))
                zb, ell = mpmath.conj(zz), mpmath.log(abs(zz))
                ref = complex(mpmath.fsum(mpmath.mpc(c) * zz**a * zb**b * ell**j
                                          for c, a, b, j in terms))
                ring_err = max(ring_err, abs(ring[k, l] - ref))
                poly_err = max(poly_err, abs(poly[k, l] - ref))
        assert ring_err <= poly_err


class TestDeepLogLevels:
    # the Neumann iterate of 0.3 z/zbar after 12 terms spans log powers
    # 0..12, all in the b = -1 column; times 1 + zbar^2 - 0.5i zbar^3 it
    # also fills columns b = 1, 2 of modes 0 and -1 at every log power
    @pytest.fixture(scope="class", params=["iterate", "times zbar powers"])
    def iterate(self, request):
        nu = BiPoly.from_term(0.3, 1, -1)
        h = nu
        for _ in range(12):
            h = (nu * h.cauchy()[0].dz()).prune()
        if request.param == "iterate":
            return h
        return h * (BiPoly.from_term(1.0, 0, 0) + BiPoly.from_term(1.0, 0, 2)
                    + BiPoly.from_term(-0.5j, 0, 3))

    def test_spans_twelve_log_powers(self, iterate):
        assert {j for *_, j in iterate.terms()} == set(range(13))

    def test_dzbar_inverts_cauchy_term_by_term(self, iterate):
        back = iterate.cauchy()[0].dzbar()
        want = {(a, b, j): c for c, a, b, j in iterate.terms()}
        got = {(a, b, j): c for c, a, b, j in back.terms()}
        assert set(got) == set(want)
        for key, c in want.items():
            assert got[key] == pytest.approx(c, rel=1e-13)

    def test_eval_rule_against_mpmath(self, iterate):
        mpmath = pytest.importorskip("mpmath")
        rule = QuadRule(12, 24)
        z = rule.nodes()
        ring = iterate.eval_rule(rule)
        terms = list(iterate.terms())
        with mpmath.workdps(40):
            for k, l in ((11, 1), (11, 7), (10, 13), (9, 20), (6, 5), (0, 11)):
                zz = mpmath.mpc(complex(z[k, l]))
                zb, ell = mpmath.conj(zz), mpmath.log(abs(zz))
                ref = complex(mpmath.fsum(mpmath.mpc(c) * zz**a * zb**b * ell**j
                                          for c, a, b, j in terms))
                scale = float(mpmath.fsum(abs(c) * abs(zz) ** (a + b) * abs(ell) ** j
                                          for c, a, b, j in terms))
                assert abs(ring[k, l] - ref) <= 1e-14 * scale

    def test_interior_and_exterior_agree_on_circle(self, iterate):
        inner, tail = iterate.cauchy()
        z = np.exp(1j * np.array([0.3, 1.1, 2.9, 4.2]))
        np.testing.assert_allclose(inner.eval(z), eval_principal(tail, z),
                                   rtol=1e-12, atol=1e-12 * iterate.max_abs())


def test_eval_principal_empty():
    assert eval_principal(np.zeros(0, dtype=complex), 2.0 + 0j) == 0.0


def test_eval_principal_at_infinity_is_zero():
    tail = np.array([1.0 + 2.0j, 3.0, 0.5j])
    for z in (complex(np.inf, 0.0), complex(0.0, -np.inf), complex(-np.inf, 1.0)):
        assert eval_principal(tail, z) == 0
    assert np.array_equal(eval_principal(tail, np.array([np.inf, 2.0])),
                          [0, eval_principal(tail, 2.0)])
