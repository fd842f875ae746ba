"""Tests of the benchmark itself: its inputs and its checks.

    python3 -m pytest -q wpbench/selftest.py

Each check must pass the program's real output and reject a deliberately
wrong one; input generation must depend on the seed and on nothing else.
"""

import math

import numpy as np
import pytest

import run

run._import_program()

import checks  # noqa: E402
import utkit  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(np.asarray(a), np.asarray(b))


def _verdict(op, out):
    return all(err <= limit for _, err, limit in op.check(out))


def _failing(op, out):
    return sorted({name for name, err, limit in op.check(out) if not err <= limit})


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name):
    make = W.WORKLOADS[name].inputs
    assert _same(make(7), make(7))
    assert not _same(make(7), make(8))


@pytest.mark.parametrize("name, keys", [
    ("modelb_bers", ("F1", "F2")), ("modela_welding", ("F3_fit", "F3_welding"))])
def test_failing_cells_do_not_depend_on_the_seed(name, keys):
    make = W.WORKLOADS[name].inputs
    a, b = make(3), make(11)
    for key in keys:
        assert _same(a[key], b[key])


# -- modelb_bers ----------------------------------------------------------------


@pytest.fixture(scope="module")
def phi():
    return W._phi_at_sup(W._rng(5, "selftest"), 2, 0.3)


@pytest.fixture(scope="module")
def points():
    rng = W._rng(5, "selftest/points")
    return W._exterior_points(rng), W._disk_points(rng, 0.0, 0.5)


def test_ahlfors_weill_check_rejects_perturbed_phi(phi):
    op = W._bers_op([phi], "t", checks.disk_sample_points())
    out = op.call()
    assert _verdict(op, out)
    wrong = utkit.HoloCoeffs(utkit.Domain.UNIT_DISK, out[0].coeffs.copy())
    wrong.coeffs[0] += 1e-6
    assert _failing(op, [wrong]) == ["ahlfors_weill"]


class _Shifted:
    """A solved map plus a deliberate error term."""

    def __init__(self, qc, extra):
        self.qc, self.extra = qc, extra
        self.grid = qc.grid

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        return self.qc.evaluate(z) + self.extra(z)


def test_model_b_checks_reject_wrong_maps(phi, points):
    ext, disk = points
    op = W._solve_phi_op([phi], "t", disk, ext)
    qc = op.call()[0]
    assert _verdict(op, [qc])
    # a second-order term at 0 breaks the jets only
    assert _failing(op, [_Shifted(qc, lambda z: 1e-6 * z**2 * (np.abs(z) < 0.5))]) == ["jets"]
    # a non-holomorphic term outside breaks the Beltrami equation only
    assert _failing(op, [_Shifted(qc, lambda z: 1e-6 * np.abs(z) ** 2 * (np.abs(z) > 1))]) \
        == ["fd_residual"]
    # the solution of another field fails the Schwarzian against phi
    other = W._solve_phi_op([phi * (1 + 1e-6)], "t", disk, ext).call()[0]
    assert "schwarzian" in _failing(op, [other])


def test_radial_check_rejects_other_modulus():
    pts = np.array([0.5j, 1.5 + 0.5j, -2.0])
    op = W._radial_op([0.1], "t", pts)
    out = op.call()
    assert _verdict(op, out)
    assert not _verdict(W._radial_op([0.1 + 1e-6], "t", pts), out)


# -- modela_welding -------------------------------------------------------------


def test_model_a_checks_reject_wrong_answers(phi, points):
    ext, disk = points
    op = W._welding_op([phi], "t", ext, disk)
    (qc, wd), = op.call()
    assert _verdict(op, [(qc, wd)])
    turned = _Shifted(qc, lambda z: (math.e ** 1e-6j - 1.0) * qc.evaluate(z))
    assert "fixed_points" in _failing(op, [(turned, wd)])
    inside = _Shifted(qc, lambda z: 1e-6 * (np.abs(z) < 1))
    assert "reflection" in _failing(op, [(inside, wd)])
    bent = _Shifted(qc, lambda z: 1e-6 * np.conj(z) * (np.abs(z) > 1.1))
    assert "fd_residual" in _failing(op, [(bent, wd)])
    g = wd.gCoeffs.copy()
    g[2] += 1e-2
    changed = utkit.WeldingData(wd.fCoeffs, g, wd.capacity, wd.potentialK)
    assert _failing(op, [(qc, changed)]) == ["area"]


# -- wp_pairings ----------------------------------------------------------------


@pytest.fixture(scope="module")
def weights():
    return W._complex_normal(W._rng(5, "selftest/weights"), len(W.BASIS))


def test_gram_checks_reject_conjugated_and_indefinite_blocks(weights):
    op = W._gram_op(weights, "t")
    blocks = op.call()
    assert _verdict(op, blocks)
    # offset 1: the pairs carry different phases, so its entries are complex
    conj = [m.copy() for m in blocks]
    conj[8][0, 1] = np.conj(conj[8][0, 1])
    assert "hermitian" in _failing(op, conj)
    flipped = [m.copy() for m in blocks]
    flipped[8][0, 0] *= -1.0
    assert "psd" in _failing(op, flipped)


def test_two_path_check_rejects_a_conjugated_entry(weights):
    op = W._double_op((1, (3, 2), (5, 4)), weights)
    val = op.call()
    assert _verdict(op, val)
    assert not _verdict(op, np.conj(val))


def test_resolvent_checks_reject_perturbed_values(weights):
    angles = W._rng(5, "selftest/angles").uniform(0.0, 2.0 * math.pi, 64)
    op = W._callable_op((4, 2), weights, angles, "t")
    vals = op.call()
    assert _verdict(op, vals)
    assert not _verdict(op, vals * (1 + 1e-6))
    grid = W._grid_op((4, 2), weights, angles)
    vals, unit = grid.call()
    assert _verdict(grid, (vals, unit))
    assert _failing(grid, (vals, unit + 1e-2)) == ["g_one"]
    assert _failing(grid, (vals * 1.05, unit)) == ["vs_mode_engine"]


def test_d0_check_rejects_perturbed_coefficient():
    a = W._complex_normal(W._rng(5, "selftest/d0"), 3)
    op = W._d0_op(a, "t")
    h = op.call()
    assert _verdict(op, h)
    wrong = h.coeffs.copy()
    wrong[1] *= 1 + 1e-6
    assert not _verdict(op, utkit.HoloCoeffs(utkit.Domain.UNIT_DISK, wrong))


def test_tail_is_the_sample_with_ten_beyond():
    records = [{"kind": "k", "cell": "c", "seconds": s / 1e3, "failed": None,
                "correct": True, "error": 1e-9} for s in range(1, 51)]
    m = run.end_to_end(records, 1.0)
    assert m["op_tail_ms"]["value"] == pytest.approx(40.0)
    assert m["op_p50_ms"]["value"] == pytest.approx(25.5)
    assert m["accuracy_digits"]["value"] == pytest.approx(9.0)


# -- tracing --------------------------------------------------------------------


def test_self_time_is_a_span_minus_its_children():
    tracer = tracing.Tracer()
    tracer.spans = [["op:x", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0], ["b", 2.0, 3.0, 1, 0]]
    times = tracer.self_times()
    assert times[("op", "op:x")] == pytest.approx(7.0)
    assert times[("op", "a")] == pytest.approx(2.0)
    assert times[("op", "b")] == pytest.approx(1.0)


def test_missing_layers_are_reported_absent_and_wrappers_come_off(monkeypatch):
    original = utkit.solve_beltrami
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (
        ("gone.module", "utkit._gone", "f", None),
        ("gone.method", "utkit.qc_solver", "_SeriesState.gone", None)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert utkit.solve_beltrami is not original
        assert tracer.absent == ["utkit._gone:f", "utkit.qc_solver:_SeriesState.gone"]
    finally:
        tracer.uninstall()
    assert utkit.solve_beltrami is original
    assert utkit.qc_solver.solve_beltrami is original
