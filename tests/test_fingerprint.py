import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
_SPEC = importlib.util.spec_from_file_location("fingerprint", _SCRIPT)
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


@pytest.mark.parametrize("family", sorted(fingerprint.FAMILIES))
def test_two_runs_agree(family):
    # one seed per family: the digests, counts and failures repeat exactly
    first = fingerprint.fingerprint(family, seeds=1)
    assert first["cases"] > 0
    assert first == fingerprint.fingerprint(family, seeds=1)


def test_outputs_digest_sees_every_bit(monkeypatch):
    # a change in the last bit of one grid sample moves the outputs digest
    # and leaves the decisions digest alone
    base = fingerprint.fingerprint("radial_sampled")
    solved = fingerprint._solved

    def nudged(qc):
        record = solved(qc)
        record[5] = record[5].copy()
        record[5][0, 0] = complex(np.nextafter(record[5][0, 0].real, np.inf),
                                  record[5][0, 0].imag)
        return record

    monkeypatch.setattr(fingerprint, "_solved", nudged)
    moved = fingerprint.fingerprint("radial_sampled")
    assert moved["outputs"] != base["outputs"]
    assert moved["decisions"] == base["decisions"]


def test_main_prints_each_family(capsys):
    assert fingerprint.main(["--seeds", "1", "-v"]) == 0
    out = capsys.readouterr().out.splitlines()
    heads = [i for i, line in enumerate(out) if not line.startswith(" ")]
    assert [out[i].split(":")[0] for i in heads] == list(fingerprint.FAMILIES)
    assert "radial_sampled: 5/5 passed" in out
    for i in heads:
        assert out[i + 1].split()[0] == "outputs" and len(out[i + 1].split()[1]) == 64
        assert out[i + 2].split()[0] == "decisions"


def test_digests_do_not_read_the_blas_threads():
    # the Model A outputs round differently on two OpenBLAS threads; the
    # script pins one before numpy loads, so the environment cannot move
    # a digest
    def digests(threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, str(_SCRIPT), "--seeds", "1"], env=env,
                             capture_output=True, text=True, check=True).stdout
        return [line for line in out.splitlines() if line.split()[0] in ("outputs", "decisions")]

    pinned = digests("1")
    assert len(pinned) == 2 * len(fingerprint.FAMILIES)
    assert digests("2") == pinned


def test_compare_with_itself_finds_nothing(capsys):
    # the other checkout's modules come in for the run and go out after it
    modules, solve = dict(sys.modules), fingerprint.solve_beltrami
    with fingerprint.checkout(_SCRIPT.parents[1]):
        assert fingerprint.solve_beltrami is not solve
    assert fingerprint.main(["--compare", str(_SCRIPT.parents[1]), "--seeds", "1"]) == 0
    assert all(sys.modules[name] is module for name, module in modules.items())
    assert fingerprint.solve_beltrami is solve
    out = capsys.readouterr().out.splitlines()
    heads = [line for line in out if not line.startswith(" ")]
    assert heads == [f"{family}: 0 cases differ" for family in fingerprint.FAMILIES]
    assert all(float(line.split()[-1]) == 0.0 for line in out if line.startswith(" "))


def test_compare_finds_a_nudged_record():
    # one grid sample moved by one unit in the last place: one case and
    # one field differ, by about 1e-16 of that field's largest entry
    base = list(fingerprint.records("radial_sampled"))
    nudged = [(case, list(record), passed) for case, record, passed in base]
    grid = nudged[2][1][5] = nudged[2][1][5].copy()
    grid[0, 0] = complex(np.nextafter(grid[0, 0].real, np.inf), grid[0, 0].imag)
    moved, worst = fingerprint.diff("radial_sampled", nudged, base)
    assert moved == [base[2][0]]
    assert 0.0 < worst.pop("exterior grid") < 1e-15
    assert set(worst.values()) == {0.0}


def test_compare_exits_1_on_a_nudged_term_count(monkeypatch, capsys):
    # one more term in one case of this checkout's records: the decision
    # differs, and so does the exit status
    records, solve = fingerprint.records, fingerprint.solve_beltrami

    def nudged(family, seeds=None):
        got = list(records(family, seeds))
        # checkout() rebinds solve_beltrami while the other checkout runs
        if family == "radial_sampled" and fingerprint.solve_beltrami is solve:
            case, record, passed = got[0]
            got[0] = (case, [record[0] + 1] + record[1:], passed)
        return got

    monkeypatch.setattr(fingerprint, "records", nudged)
    assert fingerprint.main(["--compare", str(_SCRIPT.parents[1]), "--seeds", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out.count("  decisions differ: k0.05") == 1
    assert sum("decisions differ" in line for line in out) == 1


def test_decisions_are_the_pass_flag_the_terms_and_the_exception_type():
    base = [("a", [5, 1e-9], True), ("b", ["NoConvergence", "ratio 0.9"], False),
            ("c", [7, 1e-9], True)]
    assert fingerprint.decided(base, base) == []
    other = [("a", [5, 2e-9], True), ("b", ["NoConvergence", "ratio 0.8"], False)]
    assert fingerprint.decided(base, other) == ["c"]   # a case the other lacks
    other.append(("c", ["FitFailure", "fit"], False))
    assert fingerprint.decided(base, other) == ["c"]
    other[1] = ("b", ["FitFailure", "ratio 0.9"], False)
    assert fingerprint.decided(base, other) == ["b", "c"]
