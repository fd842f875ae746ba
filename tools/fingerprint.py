"""Hash the solver's and the resolvent's outputs over fixed families.

    python3 tools/fingerprint.py [--seeds N] [-v] [--compare OTHER_CHECKOUT]

Solves four fixed families of Beltrami fields, and runs one family of
``apply_resolvent`` cases, with the ``utkit`` of this checkout (its
``src/``) and prints, per family, two sha256 digests next to the pass count
and the failure messages:

* ``outputs`` covers every bit of what each solve returns: the series term
  count, the residual, the decay ratios, the principal tail, both grid
  samples of the map and, for Model A, the welding coefficients; for a
  resolvent case, the values of both paths; for a failure, the exception
  type and its full message.
* ``decisions`` covers only where each solve stopped: its term count, or
  the exception type when it failed; a resolvent case passes when it is
  within 1e-13 of sup abs(f) of its oracle.

Two checkouts whose ``outputs`` agree compute the same bits on that family;
two whose ``decisions`` agree pass and fail on the same fields after the same
number of terms.  The families:

* ``modelb_harmonic``: Model B, default rule and tol, seeds 1000-1039 of
  complex-normal coefficients on 1, 2, 4 and 8 harmonic modes, each scaled
  to sup 0.1, 0.3, 0.45 and 0.49 (640 solves)
* ``modela_welding``: Model A then ``welding_decompose``, seeds 2000-2009 on
  the same modes and sups (160 cells)
* ``radial_sampled``: Model B on the sampled k z/zbar, k = 0.05 ... 0.25, on
  ``QuadRule(32, 64)``
* ``nonradial_sampled``: Model B on harmonic fields sampled on
  ``QuadRule(32, 64)``, seeds 3000-3009 on 1, 2 and 4 modes at sup 0.3
* ``resolvent``: ``apply_resolvent`` on a callable and on its samples on
  ``QuadRule()``: the 64 basis products (1 - r^2)^4 r^(i+j-4) e^{i(i-j)theta},
  2 <= i, j <= 9, at 8 fixed table radii up to 0.9917 against
  ``gfield_radial``; F4 of the benchmark, the callable (1 - abs(w)^2)^4 at
  the table radius nearest 0.9917 with tol 1e-6; and G 1 = 1 at 16 radii
  below the table's outermost radius 1 - 3.5e-4

BLAS runs on one thread whatever the environment sets, as in the
benchmark, so that the digests depend on the code alone.

``--seeds N`` keeps the first N seeds of each family and the first N basis
products (all radial fields, F4 and G 1 always run).  Failure messages are
grouped with their numbers blanked out; ``-v`` lists each failure in full.

``--compare OTHER_CHECKOUT`` prints no digests.  It runs every case once with
the ``utkit`` of this checkout and once with that of ``OTHER_CHECKOUT/src``,
in this process, and prints per family the cases whose records differ and,
per record field, the largest change of an entry relative to the largest
entry of that field in the other checkout (``inf`` when the two cannot be
compared: a different shape, type or message).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import math
import os
import re
import sys
from collections import Counter
from pathlib import Path

# BLAS on one thread before numpy loads it, as the benchmark runs: the
# Model A outputs round differently with two OpenBLAS threads, and the
# digests should read the code, not the environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from utkit import BeltramiField, DiskPoint, Domain, GridFunction, QuadRule  # noqa: E402
from utkit import apply_resolvent  # noqa: E402
from utkit.modes import gfield_radial, mode_table  # noqa: E402
from utkit.qc_solver import solve_beltrami, welding_decompose  # noqa: E402

MODES = (1, 2, 4, 8)
SUPS = (0.1, 0.3, 0.45, 0.49)
RADIAL_KS = (0.05, 0.1, 0.15, 0.2, 0.25)
SAMPLED_RULE = (32, 64)
BASIS_PAIRS = tuple((i, j) for i in range(2, 10) for j in range(2, 10))
RESOLVENT_BOUND = 1e-13
_SOLVED = ("terms", "residual", "ratios", "tail", "disk grid", "exterior grid")
# the record fields of a passing case, by family; a failure's are
# ("exception", "message")
FIELDS = {"modelb_harmonic": _SOLVED, "modela_welding": _SOLVED + ("gCoeffs", "weld residual"),
          "radial_sampled": _SOLVED, "nonradial_sampled": _SOLVED,
          "resolvent": ("bound", "callable", "samples")}


class BoundExceeded(Exception):
    """A resolvent case off its oracle by more than RESOLVENT_BOUND."""


def _harmonic_field(seed, modes, sup):
    rng = np.random.default_rng(seed)
    mu = BeltramiField.harmonic(Domain.EXTERIOR_DISK,
                                rng.normal(size=modes) + 1j * rng.normal(size=modes))
    return mu.scaled(sup / mu.sup_norm())


def _sampled(rule, values):
    return BeltramiField.sampled(GridFunction(rule, Domain.EXTERIOR_DISK, values))


def _solved(qc):
    return [qc.seriesTermCount, qc.residualNorm, np.asarray(qc.decayRatios),
            qc._series.tail, qc.grid[0].values, qc.grid[1].values]


def modelb_harmonic(seeds):
    for seed in range(1000, 1040)[:seeds]:
        for modes in MODES:
            for sup in SUPS:
                mu = _harmonic_field(seed, modes, sup)
                yield f"{seed}/m{modes}/s{sup}", lambda mu=mu: _solved(solve_beltrami(mu))


def modela_welding(seeds):
    def run(mu):
        qc = solve_beltrami(mu, "ModelA")
        wd = welding_decompose(qc)
        return _solved(qc) + [wd.gCoeffs, wd.fitResidual]

    for seed in range(2000, 2010)[:seeds]:
        for modes in MODES:
            for sup in SUPS:
                mu = _harmonic_field(seed, modes, sup)
                yield f"{seed}/m{modes}/s{sup}", lambda mu=mu: run(mu)


def radial_sampled(seeds):
    rule = QuadRule(*SAMPLED_RULE)
    ext = rule.nodes(Domain.EXTERIOR_DISK)
    for k in RADIAL_KS:
        mu = _sampled(rule, k * ext / np.conj(ext))
        yield f"k{k}", lambda mu=mu: _solved(solve_beltrami(mu, rule=rule))


def nonradial_sampled(seeds):
    rule = QuadRule(*SAMPLED_RULE)
    ext = rule.nodes(Domain.EXTERIOR_DISK)
    for seed in range(3000, 3010)[:seeds]:
        for modes in (1, 2, 4):
            mu = _sampled(rule, _harmonic_field(seed, modes, 0.3)(ext))
            yield f"{seed}/m{modes}", lambda mu=mu: _solved(solve_beltrami(mu, rule=rule))


def _resolvent_record(data, pts, want, sup, **kwargs):
    """The values of apply_resolvent on each of ``data`` at ``pts``, each
    within RESOLVENT_BOUND * sup of ``want``."""
    record = [f"within {RESOLVENT_BOUND:g}"]
    for f in data:
        vals = np.array([apply_resolvent(f, DiskPoint.disk(z), **kwargs) for z in pts])
        err = float(np.max(np.abs(vals - want))) / sup
        if not err <= RESOLVENT_BOUND:
            raise BoundExceeded(f"error {err:.3e} of sup|f| against the oracle")
        record.append(vals)
    return record


def _both_paths(f):
    return f, GridFunction.from_callable(f, QuadRule(), Domain.UNIT_DISK)


def resolvent(seeds):
    table = mode_table(0)
    idx = np.linspace(0, np.searchsorted(table.r, 0.9917) - 1, 8).astype(int)
    angles = 0.3 + np.arange(idx.size)
    pts = table.r[idx] * np.exp(1j * angles)

    def product(i, j):
        p, n = i - j, i + j - 4
        prof = lambda r: (1.0 - r**2) ** 4 * r**n
        f = lambda w: prof(np.abs(w)) * np.exp(1j * p * np.angle(w))
        want = gfield_radial(table, p, prof)[idx] * np.exp(1j * p * angles)
        t = n / (n + 8.0)   # the sup of prof is at r^2 = t
        return lambda: _resolvent_record(_both_paths(f), pts, want,
                                         (1.0 - t) ** 4 * t ** (0.5 * n))

    for i, j in BASIS_PAIRS[:seeds]:
        yield f"<{i}{j}>", product(i, j)
    k = int(np.argmin(np.abs(table.r - 0.9917)))
    prof = lambda s: (1.0 - np.square(s)) ** 4 + 0j
    yield "F4", lambda: _resolvent_record([lambda w: prof(np.abs(w))], table.r[k:k + 1],
                                          gfield_radial(table, 0, prof)[k], 1.0, tol=1e-6)
    radii = 1.0 - np.geomspace(1.0, 4e-4, 16)
    yield "G1", lambda: _resolvent_record(_both_paths(lambda w: np.ones_like(w.real)),
                                          radii * np.exp(1j * (0.3 + np.arange(16))), 1.0, 1.0)


FAMILIES = {f.__name__: f for f in (modelb_harmonic, modela_welding, radial_sampled,
                                    nonradial_sampled, resolvent)}


def _feed(digest, item):
    if isinstance(item, np.ndarray):
        digest.update(str(item.dtype).encode() + str(item.shape).encode())
        digest.update(np.ascontiguousarray(item).tobytes())
    else:
        digest.update(repr(item).encode())


def records(family: str, seeds: int | None = None):
    """(case, record, passed) of every case of one family; a failure's
    record is its exception type and message."""
    for case, solve in FAMILIES[family](seeds):
        try:
            yield case, solve(), True
        except Exception as exc:  # every failure is part of the fingerprint
            yield case, [type(exc).__name__, str(exc)], False


def fingerprint(family: str, seeds: int | None = None) -> dict:
    """{'outputs', 'decisions'} digests, the case count, the passes and
    the failures as (case, exception type, message) of one family."""
    outputs, decisions = hashlib.sha256(), hashlib.sha256()
    cases, failures = 0, []
    for case, record, passed in records(family, seeds):
        cases += 1
        if not passed:
            failures.append((case, *record))
        for item in [case] + record:
            _feed(outputs, item)
        _feed(decisions, (case, record[0]))
    return {"outputs": outputs.hexdigest(), "decisions": decisions.hexdigest(),
            "cases": cases, "passed": cases - len(failures), "failures": failures}


def _in_utkit(name):
    return name.partition(".")[0] == "utkit"


@contextlib.contextmanager
def checkout(root):
    """Run the families with the utkit of root/src: its modules are
    imported afresh, each name this script imported from utkit is bound to
    its namesake there, and this checkout's modules and names are put back
    on exit."""
    names = {n: v for n, v in globals().items() if _in_utkit(getattr(v, "__module__", ""))}
    saved = {m: sys.modules.pop(m) for m in list(sys.modules) if _in_utkit(m)}
    src = str(Path(root).resolve() / "src")
    sys.path.insert(0, src)
    try:
        globals().update({n: getattr(importlib.import_module(v.__module__), v.__name__)
                          for n, v in names.items()})
        yield
    finally:
        sys.path.remove(src)
        for m in [m for m in sys.modules if _in_utkit(m)]:
            del sys.modules[m]
        sys.modules.update(saved)
        globals().update(names)


def _change(a, b) -> float:
    """The largest change of an entry of a against b, relative to b's
    largest entry: 0 when the two are equal bit for bit, inf when they
    cannot be compared."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return math.inf
    if a.tobytes() == b.tobytes():
        return 0.0
    if a.dtype.kind not in "iufc":
        return math.inf
    scale = float(np.max(np.abs(b)))
    return float(np.max(np.abs(a - b))) / scale if scale > 0 else math.inf


def diff(family: str, ours, theirs):
    """(cases whose records differ, {field: largest change}) between two
    lists of records() of one family, matched by case."""
    theirs = {case: (record, passed) for case, record, passed in theirs}
    moved, worst = [], {}
    for case, record, passed in ours:
        other, other_passed = theirs.get(case, ([], passed))
        names = FIELDS[family] if passed and other_passed else ("exception", "message")
        if passed != other_passed or len(record) != len(other):
            changes = {"record": math.inf}
        else:
            changes = {name: _change(x, y) for name, x, y in zip(names, record, other)}
        if any(changes.values()):
            moved.append(case)
        for name, change in changes.items():
            worst[name] = max(worst.get(name, 0.0), change)
    return moved, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=None,
                        help="seeds per family (default: all)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="list every failure in full")
    parser.add_argument("--compare", metavar="OTHER_CHECKOUT", default=None,
                        help="print what differs from the records of another checkout")
    args = parser.parse_args(argv)
    for family in FAMILIES:
        if args.compare is not None:
            ours = list(records(family, args.seeds))
            with checkout(args.compare):
                theirs = list(records(family, args.seeds))
            moved, worst = diff(family, ours, theirs)
            print(f"{family}: {len(moved)} cases differ")
            for name, change in worst.items():
                print(f"  {name:14s} {change:.3e}")
            if moved:
                print("  cases: " + " ".join(moved))
            continue
        got = fingerprint(family, args.seeds)
        print(f"{family}: {got['passed']}/{got['cases']} passed")
        print(f"  outputs   {got['outputs']}")
        print(f"  decisions {got['decisions']}")
        shapes = Counter(f"{kind}: {re.sub(r'[0-9][0-9.e+-]*', '#', msg)}"
                         for _, kind, msg in got["failures"])
        for shape, count in sorted(shapes.items()):
            print(f"  {count:4d} x {shape}")
        if args.verbose:
            for case, kind, msg in got["failures"]:
                print(f"    {case}: {kind}: {msg}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
