"""Summarize interleaved benchmark runs into BENCH_<workload>.json.

    python3 tools/bench_json.py RESULTS_DIR --label change [--commit SHA] [--out-dir .]

RESULTS_DIR holds the ``<workload>-seed<n>-trace0.json`` files that
``python3 wpbench/run.py --trace 0`` writes under ``wpbench/results/``, one
per run.  For each workload found, one entry is added to
``BENCH_<workload>.json`` in ``--out-dir``:

* the median, first and third quartile over the runs of every end-to-end
  metric, next to each run's value by seed (so that runs of two commits on
  the same seeds can be compared pair by pair), and the pooled median
  latency of the successful operations of each kind;
* the seeds, the repeat count (the number of runs), whether every run was
  correct, and the share of failed operations;
* the numpy and Python versions, the machine and the CPU count of the
  interpreter running this script, which should be the one that ran the
  benchmark;
* the commit (by default the HEAD of the git checkout that holds
  RESULTS_DIR) and a free label such as ``parent`` or ``change``.

An entry with the same commit and label is replaced; every other entry is
kept, so one file collects the reference runs of successive changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

RUN_FILE = re.compile(r"(?P<workload>\w+)-seed(?P<seed>-?\d+)-trace0\.json")


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def _commit(results: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(results), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def summarize(runs: dict, label: str, commit: str) -> dict:
    """One entry from {seed: run file contents} of one workload."""
    seeds = sorted(runs)
    results = [runs[s]["result"] for s in seeds]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median, q1, q3 = _quartiles(values)
        metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "by_seed": {str(s): v for s, v in zip(seeds, values)}}
    by_kind = {}
    for s in seeds:
        for rec in runs[s]["records"]:
            if rec["failed"] is None:
                by_kind.setdefault(rec["kind"], []).append(1e3 * rec["seconds"])
    return {
        "label": label,
        "commit": commit,
        "seeds": seeds,
        "repeats": len(seeds),
        "correct": all(r["correct"] for r in results),
        "failed_share": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "metrics": metrics,
        "op_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    runs = {}
    for path in sorted(args.results.glob("*-trace0.json")):
        match = RUN_FILE.fullmatch(path.name)
        if match:
            with open(path) as fh:
                runs.setdefault(match["workload"], {})[int(match["seed"])] = json.load(fh)
    if not runs:
        print(f"no <workload>-seed<n>-trace0.json files in {args.results}", file=sys.stderr)
        return 1
    commit = args.commit or _commit(args.results)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for workload, by_seed in sorted(runs.items()):
        out = args.out_dir / f"BENCH_{workload}.json"
        doc = {"workload": workload, "runs": []}
        if out.exists():
            with open(out) as fh:
                doc = json.load(fh)
        entry = summarize(by_seed, args.label, commit)
        doc["runs"] = [e for e in doc["runs"]
                       if (e["commit"], e["label"]) != (commit, args.label)] + [entry]
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"{out}: {args.label} @ {commit}, {entry['repeats']} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
