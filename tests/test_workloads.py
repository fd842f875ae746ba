"""The benchmark's workloads still run against the package.  Each one's
warm-up and one round of its operations make every call the benchmark
makes, so a change to a name, an option or a signature that it uses fails
here and not only in a full benchmark run."""

import json
import sys
from pathlib import Path

import pytest

import utkit

_ROOT = Path(__file__).resolve().parents[1]
_NAMES = [w["name"] for w in json.loads((_ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    path = str(_ROOT / "wpbench")
    sys.path.insert(0, path)
    try:
        import workloads
    finally:
        sys.path.remove(path)
    return workloads


@pytest.mark.parametrize("name", _NAMES)
def test_warm_up_and_one_round_run(workloads, name):
    workload = workloads.WORKLOADS[name]
    workload.warm_up()
    for op in workload.round(workload.inputs(0)):
        # an operation may fail with a named cause, which the benchmark
        # counts as a failed operation, but with nothing else
        try:
            op.call()
        except utkit.UtkitError:
            pass
