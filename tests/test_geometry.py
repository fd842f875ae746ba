import math
import warnings

import numpy as np
import pytest

from utkit.errors import (
    BoundaryPoint,
    CriticalPoint,
    DiagonalSingularity,
    DomainMismatch,
    NonFiniteValue,
)
from utkit.geometry import (
    INF,
    DiskPoint,
    Domain,
    MoebiusMap,
    hyperbolic_density,
    kernel_value,
    kernel_value_array,
    point_pair_invariant,
    resolvent_kernel,
)

RNG = np.random.default_rng(20260821)


def random_disk_points(n, rmax=0.98):
    r = np.sqrt(RNG.uniform(0.0, rmax**2, n))
    th = RNG.uniform(0.0, 2 * np.pi, n)
    return r * np.exp(1j * th)


def random_moebius(n):
    for _ in range(n):
        b = complex(*RNG.uniform(-2, 2, 2))
        phase = np.exp(1j * RNG.uniform(0, 2 * np.pi))
        a = phase * math.sqrt(1.0 + abs(b) ** 2)
        yield MoebiusMap(a, b)


class TestDensity:
    def test_frozen_values(self):
        assert hyperbolic_density(DiskPoint.disk(0)) == 4.0
        assert hyperbolic_density(DiskPoint.disk(0.5)) == pytest.approx(64.0 / 9.0, rel=1e-15)
        # same formula on the exterior side
        assert hyperbolic_density(DiskPoint.exterior(2.0)) == pytest.approx(4.0 / 9.0)

    def test_boundary_and_mismatch(self):
        with pytest.raises(BoundaryPoint):
            DiskPoint.disk(1.0)
        with pytest.raises(DomainMismatch):
            DiskPoint.disk(1.5)
        with pytest.raises(DomainMismatch):
            DiskPoint.exterior(0.5)
        with pytest.raises(DomainMismatch):
            DiskPoint(INF, Domain.UNIT_DISK)

    @pytest.mark.parametrize("domain", ["UnitDisk", "ExteriorDisk", None, 0])
    @pytest.mark.parametrize("z", [0.5, 1.5, INF])
    def test_domain_must_be_a_domain(self, z, domain):
        # a value that is not a Domain names no side of the circle, so no
        # membership can be checked against it
        with pytest.raises(DomainMismatch):
            DiskPoint(z, domain)

    def test_infinity_is_exterior(self):
        p = DiskPoint.infinity()
        assert p.is_infinity
        assert hyperbolic_density(p) == 0.0
        assert DiskPoint.exterior(complex(0.0, math.inf)).is_infinity

    @pytest.mark.parametrize("make", [DiskPoint.disk, DiskPoint.exterior])
    def test_nan_is_no_point(self, make):
        # NaN is not the point at infinity, and not outside the disk either
        with pytest.raises(NonFiniteValue):
            make(complex(math.nan, 0.0))

    def test_moebius_invariance(self):
        zs = random_disk_points(50)
        for m in random_moebius(10):
            for z in zs[:5]:
                gz = m(complex(z))
                lhs = hyperbolic_density(DiskPoint.disk(gz)) * abs(m.derivative(z)) ** 2
                rhs = hyperbolic_density(DiskPoint.disk(z))
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestInvariant:
    def test_frozen_values(self):
        u = point_pair_invariant(DiskPoint.disk(0), DiskPoint.disk(0.5))
        assert u == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert point_pair_invariant(DiskPoint.disk(0.3j), DiskPoint.disk(0.3j)) == 0.0

    def test_infinity_limit(self):
        w = DiskPoint.exterior(2.0)
        u = point_pair_invariant(DiskPoint.infinity(), w)
        assert u == pytest.approx(1.0 / 3.0, rel=1e-15)
        # symmetric in the arguments
        assert point_pair_invariant(w, DiskPoint.infinity()) == pytest.approx(u)

    def test_exterior_positive(self):
        z = DiskPoint.exterior(1.5)
        w = DiskPoint.exterior(2.0 * np.exp(0.7j))
        assert point_pair_invariant(z, w) > 0.0

    def test_moebius_invariance(self):
        zs = random_disk_points(12)
        ws = random_disk_points(12)
        for m in random_moebius(8):
            for z, w in zip(zs, ws):
                if abs(z - w) < 1e-3:
                    continue
                u0 = point_pair_invariant(DiskPoint.disk(z), DiskPoint.disk(w))
                u1 = point_pair_invariant(
                    DiskPoint.disk(m(complex(z))), DiskPoint.disk(m(complex(w)))
                )
                assert u1 == pytest.approx(u0, rel=1e-10)

    def test_inversion_invariance(self):
        zs = random_disk_points(20)
        ws = random_disk_points(20)
        for z, w in zip(zs, ws):
            u0 = point_pair_invariant(DiskPoint.disk(z), DiskPoint.disk(w))
            zi, wi = 1.0 / np.conj(z), 1.0 / np.conj(w)
            u1 = point_pair_invariant(DiskPoint.exterior(zi), DiskPoint.exterior(wi))
            assert u1 == pytest.approx(u0, rel=1e-12, abs=1e-14)

    def test_domain_rules(self):
        with pytest.raises(DomainMismatch):
            point_pair_invariant(DiskPoint.disk(0.1), DiskPoint.exterior(2.0))


class TestKernel:
    def test_frozen_value(self):
        # u = 1/3 gives ((2/3 + 1)/(2 pi)) log 4 - 1/pi
        expected = (5.0 / 3.0) / (2 * math.pi) * math.log(4.0) - 1.0 / math.pi
        g = resolvent_kernel(DiskPoint.disk(0), DiskPoint.disk(0.5))
        assert g == pytest.approx(expected, rel=1e-15)
        assert g == pytest.approx(0.0494161, abs=5e-7)

    def test_diagonal_raises(self):
        with pytest.raises(DiagonalSingularity):
            resolvent_kernel(DiskPoint.disk(0.2 + 0.1j), DiskPoint.disk(0.2 + 0.1j))
        with pytest.raises(DiagonalSingularity):
            kernel_value(0.0)

    def test_positivity(self):
        u = 10.0 ** RNG.uniform(-12, 12, 10_000)
        g = kernel_value_array(u)
        assert np.all(g > 0.0)
        assert np.all(np.isfinite(g))

    def test_monotone_decreasing(self):
        u = np.sort(10.0 ** RNG.uniform(-8, 8, 1000))
        g = kernel_value_array(u)
        assert np.all(np.diff(g) < 0.0)

    def test_series_branch_matches_direct(self):
        # the series branch starts at u = 2; on both sides of the cut each
        # branch holds the documented 5e-14 against the log form
        mpmath = pytest.importorskip("mpmath")
        for u in [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)]:
            with mpmath.workdps(40):
                ux = mpmath.mpf(float(u))
                direct = (2 * ux + 1) * mpmath.log1p(1 / ux) / (2 * mpmath.pi) - 1 / mpmath.pi
            assert abs(kernel_value(u) - direct) <= 5e-14 * direct

    def test_matches_mpmath_on_log_spaced_u(self):
        # the direct form cancels for large u: 1e-9 relative at u = 1e3
        mpmath = pytest.importorskip("mpmath")
        u = np.logspace(-300, 12, 625)
        u = np.concatenate([u, np.linspace(0.5, 2.0, 61), [1e1, 1e2, 1e3, 9.9e3, 1.01e4]])
        got = kernel_value_array(u)
        with mpmath.workdps(40):
            for x, g in zip(u, got):
                ux = mpmath.mpf(float(x))
                ref = (2 * ux + 1) * mpmath.log1p(1 / ux) / (2 * mpmath.pi) - 1 / mpmath.pi
                assert abs(g - ref) <= 1e-13 * ref
                assert kernel_value(float(x)) == g

    def test_near_diagonal_log_accuracy(self):
        # for tiny u the kernel behaves like -log(u)/(2 pi); relative
        # accuracy must survive u far below 1e-8
        for u in [1e-30, 1e-16, 1e-9]:
            expected = (2 * u + 1) / (2 * math.pi) * (math.log1p(u) - math.log(u)) - 1 / math.pi
            assert kernel_value(u) == pytest.approx(expected, rel=1e-14)
            assert kernel_value(u) > -math.log(u) / (2 * math.pi) - 1 / math.pi - 1e-12

    def test_symmetry_and_invariance(self):
        zs = random_disk_points(200)
        ws = random_disk_points(200)
        for m in random_moebius(4):
            for z, w in zip(zs[:50], ws[:50]):
                if abs(z - w) < 1e-6:
                    continue
                g0 = resolvent_kernel(DiskPoint.disk(z), DiskPoint.disk(w))
                g1 = resolvent_kernel(DiskPoint.disk(w), DiskPoint.disk(z))
                assert g1 == g0
                g2 = resolvent_kernel(
                    DiskPoint.disk(m(complex(z))), DiskPoint.disk(m(complex(w)))
                )
                assert g2 == pytest.approx(g0, rel=1e-10, abs=1e-12)

    def test_kernel_at_infinity_matches_inverted_point(self):
        # G(infinity, w) = G(0, 1/conj(w)) after mirroring to the disk
        w = DiskPoint.exterior(1.7 - 0.4j)
        g_inf = resolvent_kernel(DiskPoint.infinity(), w)
        mirrored = DiskPoint.disk(1.0 / np.conj(w.value))
        assert g_inf == pytest.approx(
            resolvent_kernel(DiskPoint.disk(0), mirrored), rel=1e-14
        )


class TestMoebius:
    def test_normalization_enforced(self):
        m = MoebiusMap(2.0, 1.0)
        assert abs(abs(m.a) ** 2 - abs(m.b) ** 2 - 1.0) < 1e-12
        with pytest.raises(DomainMismatch):
            MoebiusMap(1.0, 2.0)

    def test_circle_preserved(self):
        th = RNG.uniform(0, 2 * np.pi, 64)
        circle = np.exp(1j * th)
        for m in random_moebius(10):
            image = m.apply(circle)
            assert np.max(np.abs(np.abs(image) - 1.0)) < 1e-12

    def test_derivative_chain(self):
        for m in random_moebius(5):
            z = complex(random_disk_points(1)[0])
            h = 1e-6
            fd = (m(z + h) - m(z - h)) / (2 * h)
            assert m.derivative(z) == pytest.approx(fd, rel=1e-8)

    def test_infinity_and_pole(self):
        m = MoebiusMap(2.0, 1.0 + 0.5j)
        img = m.apply(INF)
        assert img == pytest.approx(m.a / np.conj(m.b))
        pole = -np.conj(m.a) / np.conj(m.b)
        assert math.isinf(abs(m.apply(complex(pole))))
        # rotations fix infinity
        rot = MoebiusMap.rotation(0.7)
        assert not np.isfinite(abs(rot.apply(INF)))

    def test_array_with_infinity_matches_scalar_path(self):
        for m in (MoebiusMap(1.25, 0.75), MoebiusMap(2.0, 1.0 + 0.5j),
                  MoebiusMap.rotation(0.7)):
            pole = -np.conj(m.a) / np.conj(m.b) if m.b != 0 else 0.5j
            zs = np.array([INF, pole, 0.3 - 0.2j])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = m.apply(zs)
            for z, w in zip(zs, got):
                assert w == pytest.approx(m.apply(complex(z)), rel=1e-15)
            if m.b != 0:
                assert got[1] == INF and m.apply(complex(pole)) == INF

    def test_nan_raises(self):
        m = MoebiusMap(1.2, 0.3 + 0.1j)
        nan = complex(math.nan, 0.0)
        with pytest.raises(NonFiniteValue):
            m.apply(nan)
        with pytest.raises(NonFiniteValue):
            m.apply(np.array([0.2, nan]))
        with pytest.raises(NonFiniteValue):
            MoebiusMap.through_points([nan, 1.0, -1.0], [INF, 1.0, -1.0])

    def test_derivative_array_matches_scalar_path(self):
        # infinity, a finite point and the pole; a rotation maps infinity
        # to itself, with derivative 1/conj(a)^2 there
        nan = complex(math.nan, 0.0)
        for m in (MoebiusMap(1.25, 0.75), MoebiusMap(2.0, 1.0 + 0.5j),
                  MoebiusMap.rotation(0.7)):
            zs = np.array([INF, 0.3 - 0.2j, -0.5j])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = m.derivative(zs)
                for z, d in zip(zs, got):
                    assert d == pytest.approx(m.derivative(complex(z)), rel=1e-15)
                with pytest.raises(NonFiniteValue):
                    m.derivative(nan)
                with pytest.raises(NonFiniteValue):
                    m.derivative(np.array([0.2, nan]))
        for m in (MoebiusMap(1.25, 0.75), MoebiusMap(2.0, 1.0 + 0.5j)):
            pole = -np.conj(m.a) / np.conj(m.b)
            with pytest.raises(CriticalPoint):
                m.derivative(complex(pole))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CriticalPoint):
                    m.derivative(np.array([0.3, pole]))

    def test_through_points(self):
        ps = [np.exp(1j * t) for t in (2.9, -1.2, 0.4)]
        m = MoebiusMap.through_points(ps, [-1.0, -1j, 1.0])
        for p, q in zip(ps, [-1.0, -1j, 1.0]):
            assert m(complex(p)) == pytest.approx(complex(q), abs=1e-12)

    def test_through_points_rejects_incompatible_data(self):
        # pinning two boundary points while sending an off-circle point to
        # infinity overdetermines a circle-preserving map
        q = 1.8 * np.exp(0.4j)
        with pytest.raises(DomainMismatch):
            MoebiusMap.through_points([complex(q), 1.0, -1.0], [INF, 1.0, -1.0])

