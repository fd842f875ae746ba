"""Summarize interleaved benchmark runs into BENCH_<workload>.json.

    python3 tools/bench_json.py RESULTS_DIR --label change [--commit SHA] [--out-dir .]
    python3 tools/bench_json.py --compare PARENT_LABEL CHANGE_LABEL [--out-dir .]

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

With ``--compare``, nothing is written.  For every ``BENCH_<workload>.json``
in ``--out-dir`` that holds both labels (the last entry of each), and every
end-to-end metric, it prints both sides' median and quartiles, the pairs
the change won (runs matched by seed; a tie is not a win) and whether the
gain rule holds: at least 9 in 10 pairs won, and the medians further apart
than the parent's interquartile range.  Which side of a metric is better
comes from the ``BENCHMARK.json`` of this checkout.  It also prints each
side's failed share and whether all its runs were correct, and flags a
rise in the failed share, for which the benchmark rejects a change
whatever its metrics.
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
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# the gain rule: this share of the pairs won, and a median gap beyond the
# parent's interquartile range
GAIN_SHARE = 0.9


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


def compare_metric(parent: dict, change: dict, better: str) -> dict:
    """Medians, quartiles, pairs won and the gain rule for one metric of
    two entries; better is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    common = sorted(set(parent.get("by_seed", {})) & set(change.get("by_seed", {})), key=int)
    won = sum(sign * (change["by_seed"][s] - parent["by_seed"][s]) > 0 for s in common)
    gap = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    return {"parent": (parent["median"], parent["q1"], parent["q3"]),
            "change": (change["median"], change["q1"], change["q3"]),
            "won": won, "pairs": len(common), "gap": gap, "parent_iqr": iqr,
            "gain": bool(common) and won >= GAIN_SHARE * len(common) and gap > iqr}


def compare_outcomes(parent: dict, change: dict) -> dict:
    """Both entries' failed share and correctness, and whether the
    change's failed share is the larger."""
    return {"failed_share": (parent["failed_share"], change["failed_share"]),
            "correct": (parent["correct"], change["correct"]),
            "failed_share_rose": change["failed_share"] > parent["failed_share"]}


def compare(out_dir: Path, parent_label: str, change_label: str, directions: dict) -> dict:
    """{workload: {metric: compare_metric(...)}} over the BENCH files that
    hold both labels."""
    found = {}
    for path in sorted(out_dir.glob("BENCH_*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        last = {e["label"]: e for e in doc["runs"]}
        if parent_label not in last or change_label not in last:
            continue
        parent, change = last[parent_label], last[change_label]
        rows = {name: compare_metric(parent["metrics"][name], change["metrics"][name], better)
                for name, better in directions.items()
                if name in parent["metrics"] and name in change["metrics"]}
        print(f"{doc['workload']}: {parent_label} @ {parent['commit']} ({parent['repeats']} runs)"
              f" vs {change_label} @ {change['commit']} ({change['repeats']} runs)")
        outcomes = compare_outcomes(parent, change)
        (pf, cf), (pc, cc) = outcomes["failed_share"], outcomes["correct"]
        print(f"  failed_share: {pf:.4g} -> {cf:.4g}"
              f"{', ROSE' if outcomes['failed_share_rose'] else ''}; correct: {pc} -> {cc}")
        for name, row in rows.items():
            (pm, p1, p3), (cm, c1, c3) = row["parent"], row["change"]
            print(f"  {name}: {pm:.4g} [{p1:.4g}, {p3:.4g}] -> {cm:.4g} [{c1:.4g}, {c3:.4g}],"
                  f" won {row['won']} of {row['pairs']}, median gap {row['gap']:.3g} against"
                  f" parent IQR {row['parent_iqr']:.3g}: {'GAIN' if row['gain'] else 'no gain'}")
        found[doc["workload"]] = rows
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, nargs="?")
    parser.add_argument("--label")
    parser.add_argument("--commit")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_LABEL", "CHANGE_LABEL"))
    args = parser.parse_args(argv)
    if args.compare:
        with open(BENCHMARK) as fh:
            directions = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        if not compare(args.out_dir, *args.compare, directions):
            print(f"no BENCH_*.json in {args.out_dir} holds both labels", file=sys.stderr)
            return 1
        return 0
    if args.results is None or args.label is None:
        parser.error("RESULTS_DIR and --label are required without --compare")
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
