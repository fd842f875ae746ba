"""Run a workload of the utkit benchmark and print its metrics.

    python3 wpbench/run.py --workload modelb_bers --seed 1 --seconds 30 --trace 0
    python3 wpbench/run.py --workload all --seed 1 --seconds 30

One caller makes one call at a time (a closed loop) and repeats whole
rounds of the workload's operations until ``--seconds`` have passed.  Each
call into utkit is timed on its own; its output is checked afterwards,
outside the timing.  With ``--trace 0`` the last line of standard output
is the result with the end-to-end metrics; with ``--trace 1`` the run
times half its rounds plain and repeats them traced, and reports the
per-layer metrics.  ``--workload all`` runs each workload in its own
process.  Results and traces are written under ``wpbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("modelb_bers", "modela_welding", "wp_pairings")

# BLAS on one thread: the first least-squares call of a process costs
# about 1 s with two OpenBLAS threads and 0.1 s with one, and varies more
BLAS_THREADS = "1"
# set-up is measured in this many fresh processes besides the main one
SETUP_PROBES = 4
# enough rounds that the tail percentile falls on the slowest operations
MIN_ROUNDS = 2
# the smallest relative error that is told apart from exact in double
# precision; accuracy_digits saturates here
ERROR_FLOOR = 1e-16
TAIL_BEYOND = 10


def _pin_blas():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _import_program():
    """Import utkit from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import utkit

    if not Path(utkit.__file__).resolve().is_relative_to(src):
        raise ImportError(f"utkit imported from {utkit.__file__}, not from {src}")


def set_up(workload: str, seed: int, tracer=None):
    """Import, input generation and warm-up; returns (round, seconds)."""
    t0 = time.perf_counter()
    _import_program()
    import workloads

    spec = workloads.WORKLOADS[workload]
    if tracer is not None:
        tracer.install()
    with tracer.root("setup") if tracer is not None else contextlib.nullcontext():
        ops = spec.round(spec.inputs(seed))
        spec.warm_up()
    return ops, time.perf_counter() - t0


def run_op(op, tracer=None) -> dict:
    """Time one call into utkit, then check its output untimed."""
    root = tracer.root("op:" + op.kind) if tracer is not None else contextlib.nullcontext()
    t = time.perf_counter()
    try:
        with root:
            out = op.call()
    except Exception as exc:  # a failed operation is an outcome to count
        return {"kind": op.kind, "cell": op.cell, "seconds": time.perf_counter() - t,
                "failed": type(exc).__name__, "message": str(exc)[:200]}
    seconds = time.perf_counter() - t
    rec = {"kind": op.kind, "cell": op.cell, "seconds": seconds, "failed": None}
    try:
        results = op.check(out)
    except Exception as exc:  # a check that cannot judge the output rejects it
        rec.update(correct=False, error=1.0, why=f"check raised {exc!r}"[:200])
        return rec
    bad = [f"{name} {err:.3e} > {limit:.1e}" for name, err, limit in results
           if not err <= limit]
    worst = max(err for _, err, _ in results)
    # a non-finite error counts as no correct digit, which keeps the result valid JSON
    rec.update(correct=not bad, error=worst if math.isfinite(worst) else 1.0,
               why="; ".join(bad[:3]))
    return rec


def run_rounds(ops, seconds, tracer=None, rounds=None) -> tuple[list, int]:
    """Whole rounds until ``seconds`` have passed (at least MIN_ROUNDS), or
    exactly ``rounds`` rounds."""
    records = []
    done = 0
    start = time.perf_counter()
    while (done < rounds if rounds is not None
           else done < MIN_ROUNDS or time.perf_counter() - start < seconds):
        records += [run_op(op, tracer) for op in ops]
        done += 1
    return records, done


def breakdown(records) -> dict:
    """Attempted and failed operations by kind and exception type."""
    out = {}
    for rec in records:
        entry = out.setdefault(rec["kind"], {"attempted": 0, "failed": {}})
        entry["attempted"] += 1
        if rec["failed"]:
            entry["failed"][rec["failed"]] = entry["failed"].get(rec["failed"], 0) + 1
    return out


def end_to_end(records, setup_s) -> dict:
    ok = [r for r in records if not r["failed"]]
    times = sorted(r["seconds"] for r in ok)
    timed = sum(r["seconds"] for r in records)
    digits = [-math.log10(max(r["error"], ERROR_FLOOR)) for r in ok]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": {"value": len(ok) / timed, "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * times[max(0, len(times) - TAIL_BEYOND - 1)],
                       "unit": "ms"},
        "accuracy_digits": {"value": statistics.median(digits), "unit": "digits"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def _probe_setup(workload, seed) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _report(workload, args, records, metrics, extra=None):
    ok = [r for r in records if not r["failed"]]
    wrong = [r for r in ok if not r["correct"]]
    counts = breakdown(records)
    cells = {}
    for r in records:
        if r["failed"]:
            cells.setdefault(r["cell"], {}).setdefault(r["failed"], r["message"])
    print(f"{workload}: operations by kind {json.dumps(counts)}")
    for cell, fails in cells.items():
        for exc, msg in fails.items():
            print(f"{workload}: failed cell {cell!r}: {exc}: {msg}")
    for r in wrong[:5]:
        print(f"{workload}: WRONG {r['cell']}: {r['why']}")
    n_ok = len(ok)
    print(f"{workload}: {n_ok} timed successes; op_tail_ms is p{100.0 * (1 - TAIL_BEYOND / max(n_ok, 1)):.1f}"
          f" ({TAIL_BEYOND} samples beyond it)")
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not wrong, "attempted": len(records),
              "failed": len(records) - n_ok, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"result": result, "operations": counts, **(extra or {}),
                   "records": records}, fh, indent=1)
    print(json.dumps(result))


def run_workload(args) -> int:
    if args.setup_probe:
        _, setup_s = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.trace:
        ops, setup_s = set_up(args.workload, args.seed)
        samples = [setup_s] + [_probe_setup(args.workload, args.seed)
                               for _ in range(SETUP_PROBES)]
        records, _ = run_rounds(ops, args.seconds)
        _report(args.workload, args, records,
                end_to_end(records, statistics.median(samples)),
                {"setup_samples_s": samples})
        return 0
    # traced run: plain rounds, then the same number of rounds traced
    import tracing

    tracer = tracing.Tracer()
    ops, _ = set_up(args.workload, args.seed, tracer)
    tracer.uninstall()
    plain, rounds = run_rounds(ops, 0.5 * args.seconds)
    tracer.install()
    traced, _ = run_rounds(ops, 0.0, tracer, rounds)
    tracer.uninstall()
    metrics = {name: {"value": v, "unit": "count" if name in tracing.COUNT_METRICS else "s"}
               for name, v in tracer.layer_metrics(rounds).items()}
    overhead = (sum(r["seconds"] for r in traced) - sum(r["seconds"] for r in plain)) / rounds
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    shares = tracer.op_shares()
    for name, share in shares.items():
        print(f"{args.workload}: share of operation time {name} = {100 * share:.1f} %")
    if tracer.absent:
        print(f"{args.workload}: absent layers (reported as 0): {', '.join(tracer.absent)}")
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl")
    _report(args.workload, args, plain + traced, metrics,
            {"rounds": rounds, "absent": tracer.absent, "op_shares": shares})
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_blas()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
