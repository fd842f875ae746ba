"""Hash the solver's outputs over fixed families of fields.

    python3 tools/fingerprint.py [--seeds N] [-v]

Solves four fixed families of Beltrami fields with the ``utkit`` of this
checkout (its ``src/``) and prints, per family, two sha256 digests next to
the pass count and the failure messages:

* ``outputs`` covers every bit of what each solve returns: the series term
  count, the residual, the decay ratios, the principal tail, both grid
  samples of the map and, for Model A, the welding coefficients; for a
  failure, the exception type and its full message.
* ``decisions`` covers only where each solve stopped: its term count, or
  the exception type when it failed.

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

``--seeds N`` keeps the first N seeds of each family (all radial fields
always run).  Failure messages are grouped with their numbers blanked out;
``-v`` lists each failure in full.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from utkit import BeltramiField, Domain, GridFunction, QuadRule  # noqa: E402
from utkit.qc_solver import solve_beltrami, welding_decompose  # noqa: E402

MODES = (1, 2, 4, 8)
SUPS = (0.1, 0.3, 0.45, 0.49)
RADIAL_KS = (0.05, 0.1, 0.15, 0.2, 0.25)
SAMPLED_RULE = (32, 64)


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
    for seed in range(1000, 1000 + min(seeds, 40)):
        for modes in MODES:
            for sup in SUPS:
                mu = _harmonic_field(seed, modes, sup)
                yield f"{seed}/m{modes}/s{sup}", lambda mu=mu: _solved(solve_beltrami(mu))


def modela_welding(seeds):
    def run(mu):
        qc = solve_beltrami(mu, "ModelA")
        wd = welding_decompose(qc)
        return _solved(qc) + [wd.gCoeffs, wd.fitResidual]

    for seed in range(2000, 2000 + min(seeds, 10)):
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
    for seed in range(3000, 3000 + min(seeds, 10)):
        for modes in (1, 2, 4):
            mu = _sampled(rule, _harmonic_field(seed, modes, 0.3)(ext))
            yield f"{seed}/m{modes}", lambda mu=mu: _solved(solve_beltrami(mu, rule=rule))


FAMILIES = {f.__name__: f for f in (modelb_harmonic, modela_welding, radial_sampled,
                                    nonradial_sampled)}


def _feed(digest, item):
    if isinstance(item, np.ndarray):
        digest.update(str(item.dtype).encode() + str(item.shape).encode())
        digest.update(np.ascontiguousarray(item).tobytes())
    else:
        digest.update(repr(item).encode())


def fingerprint(family: str, seeds: int = 40) -> dict:
    """{'outputs', 'decisions'} digests, the case count, the passes and
    the failures as (case, exception type, message) of one family."""
    outputs, decisions = hashlib.sha256(), hashlib.sha256()
    cases, failures = 0, []
    for case, solve in FAMILIES[family](seeds):
        cases += 1
        try:
            record = solve()
        except Exception as exc:  # every failure is part of the fingerprint
            record = [type(exc).__name__, str(exc)]
            failures.append((case, type(exc).__name__, str(exc)))
            decision = type(exc).__name__
        else:
            decision = record[0]
        for item in [case] + record:
            _feed(outputs, item)
        _feed(decisions, (case, decision))
    return {"outputs": outputs.hexdigest(), "decisions": decisions.hexdigest(),
            "cases": cases, "passed": cases - len(failures), "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=40,
                        help="seeds per family (default: all)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="list every failure in full")
    args = parser.parse_args(argv)
    for family in FAMILIES:
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
