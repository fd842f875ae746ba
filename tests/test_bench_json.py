import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_json", Path(__file__).resolve().parents[1] / "tools" / "bench_json.py")
bench_json = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_json)


def _run(ops_per_s, rss, failed, seconds):
    return {
        "result": {"correct": True, "attempted": 10, "failed": failed,
                   "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                               "peak_rss_mb": {"value": rss, "unit": "MB"}}},
        "operations": {},
        "setup_samples_s": [0.1],
        "records": [{"kind": "gram", "cell": "g", "seconds": s, "failed": None,
                     "correct": True, "error": 0.0, "why": ""} for s in seconds]
                   + [{"kind": "F4", "cell": "f", "seconds": 9.0, "failed": "QuadratureFailure",
                       "correct": None, "error": None, "why": "x"}],
    }


@pytest.fixture
def results(tmp_path):
    runs = tmp_path / "results"
    runs.mkdir()
    for seed, ops, rss in [(3, 4.0, 50.0), (1, 1.0, 52.0), (2, 2.0, 51.0), (4, 3.0, 49.0)]:
        (runs / f"wp_pairings-seed{seed}-trace0.json").write_text(
            json.dumps(_run(ops, rss, 1, [0.01 * seed, 0.02])))
    (runs / "modelb_bers-seed7-trace0.json").write_text(json.dumps(_run(5.0, 40.0, 0, [0.5])))
    # traced runs and span files are not end-to-end results
    (runs / "wp_pairings-seed9-trace1.json").write_text(json.dumps(_run(99.0, 1.0, 0, [1.0])))
    (runs / "wp_pairings-seed9-spans.jsonl").write_text("{}\n")
    return runs


def test_quartiles_seeds_and_environment(results, tmp_path):
    assert bench_json.main([str(results), "--label", "change", "--commit", "abc1234",
                            "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_wp_pairings.json").read_text())
    assert doc["workload"] == "wp_pairings" and len(doc["runs"]) == 1
    run = doc["runs"][0]
    assert (run["label"], run["commit"]) == ("change", "abc1234")
    assert run["seeds"] == [1, 2, 3, 4] and run["repeats"] == 4
    ops = run["metrics"]["ops_per_s"]
    assert ops["unit"] == "1/s"
    assert (ops["q1"], ops["median"], ops["q3"]) == (1.75, 2.5, 3.25)
    assert run["metrics"]["peak_rss_mb"]["median"] == 50.5
    assert run["correct"] is True and run["failed_share"] == 0.1
    # successful gram operations pooled over the runs, in milliseconds
    assert run["op_ms_by_kind"] == {"gram": pytest.approx(20.0)}
    assert run["numpy"] == np.__version__ and run["cpus"] >= 1 and run["machine"]
    single = json.loads((tmp_path / "BENCH_modelb_bers.json").read_text())["runs"][0]
    assert single["repeats"] == 1 and single["metrics"]["ops_per_s"]["q3"] == 5.0


def test_entries_accumulate_and_same_label_replaces(results, tmp_path):
    args = [str(results), "--out-dir", str(tmp_path)]
    bench_json.main(args + ["--label", "parent", "--commit", "p0"])
    bench_json.main(args + ["--label", "change", "--commit", "c1"])
    bench_json.main(args + ["--label", "change", "--commit", "c1"])
    runs = json.loads((tmp_path / "BENCH_wp_pairings.json").read_text())["runs"]
    assert [(r["label"], r["commit"]) for r in runs] == [("parent", "p0"), ("change", "c1")]


def test_values_by_seed_give_the_pairs(results, tmp_path):
    args = [str(results), "--out-dir", str(tmp_path)]
    bench_json.main(args + ["--label", "parent", "--commit", "p0"])
    for seed, ops in [(1, 1.5), (2, 1.9), (3, 4.5), (4, 3.5)]:
        path = results / f"wp_pairings-seed{seed}-trace0.json"
        run = json.loads(path.read_text())
        run["result"]["metrics"]["ops_per_s"]["value"] = ops
        path.write_text(json.dumps(run))
    bench_json.main(args + ["--label", "change", "--commit", "c1"])
    parent, change = (r["metrics"]["ops_per_s"]
                      for r in json.loads((tmp_path / "BENCH_wp_pairings.json").read_text())["runs"])
    assert parent["by_seed"] == {"1": 1.0, "2": 2.0, "3": 4.0, "4": 3.0}
    assert change["by_seed"] == {"1": 1.5, "2": 1.9, "3": 4.5, "4": 3.5}
    # the change reads higher on seeds 1, 3 and 4, lower on seed 2
    wins = [s for s in parent["by_seed"] if change["by_seed"][s] > parent["by_seed"][s]]
    assert wins == ["1", "3", "4"]


def test_empty_directory_is_an_error(tmp_path, capsys):
    assert bench_json.main([str(tmp_path), "--label", "x", "--out-dir", str(tmp_path)]) == 1
    assert "trace0" in capsys.readouterr().err


def test_compare_counts_pairs_and_applies_the_gain_rule(tmp_path, capsys):
    def entry(label, values):
        ordered = sorted(values.values())
        median, q1, q3 = bench_json._quartiles(ordered)
        return {"label": label, "commit": label[0], "repeats": len(values),
                "failed_share": 0.2, "correct": True,
                "metrics": {name: {"median": m, "q1": a, "q3": b,
                                   "by_seed": {str(s): sign * v for s, v in values.items()}}
                            for name, sign, (m, a, b) in
                            [("ops_per_s", 1.0, (median, q1, q3)),
                             ("op_p50_ms", -1.0, (-median, -q3, -q1))]}}

    parent = {s: 10.0 + 0.1 * s for s in range(10)}
    change = {s: 12.0 + 0.1 * s for s in range(10)}
    change[3] = 9.0     # one pair lost: 9 of 10 still meets the rule
    runs = [entry("parent", parent), entry("change", change)]
    (tmp_path / "BENCH_modelb_bers.json").write_text(
        json.dumps({"workload": "modelb_bers", "runs": runs}))
    # a file without both labels is skipped
    (tmp_path / "BENCH_wp_pairings.json").write_text(
        json.dumps({"workload": "wp_pairings", "runs": runs[:1]}))
    directions = {"ops_per_s": "higher", "op_p50_ms": "lower"}
    rows = bench_json.compare(tmp_path, "parent", "change", directions)["modelb_bers"]
    assert list(bench_json.compare(tmp_path, "parent", "change", directions)) == ["modelb_bers"]
    # latency is the same numbers negated: lower is better, so it wins alike
    for name in directions:
        assert (rows[name]["won"], rows[name]["pairs"]) == (9, 10)
        assert rows[name]["gain"]
    assert rows["ops_per_s"]["gap"] == pytest.approx(2.0)
    # a median gap inside the parent's IQR is no gain, however many pairs
    wide = bench_json.compare_metric(
        {"median": 10.0, "q1": 8.0, "q3": 12.0, "by_seed": {"1": 10.0, "2": 10.0}},
        {"median": 11.0, "q1": 11.0, "q3": 11.0, "by_seed": {"1": 11.0, "2": 11.0}}, "higher")
    assert (wide["won"], wide["gain"]) == (2, False)
    # ties are not wins; 8 of 10 falls short
    short = bench_json.compare_metric(
        {"median": 1.0, "q1": 1.0, "q3": 1.0, "by_seed": {str(s): 1.0 for s in range(10)}},
        {"median": 5.0, "q1": 5.0, "q3": 5.0,
         "by_seed": {str(s): 1.0 if s < 2 else 5.0 for s in range(10)}}, "higher")
    assert (short["won"], short["gain"]) == (8, False)
    capsys.readouterr()
    args = ["--out-dir", str(tmp_path), "--compare", "parent"]
    assert bench_json.main(args + ["change"]) == 0
    out = capsys.readouterr().out
    assert "modelb_bers" in out and "won 9 of 10" in out and "wp_pairings" not in out
    assert bench_json.main(args + ["nothing"]) == 1


def test_compare_flags_a_rise_in_the_failed_share(tmp_path, capsys):
    metrics = {"ops_per_s": {"median": 1.0, "q1": 1.0, "q3": 1.0, "by_seed": {"1": 1.0}}}

    def entry(label, failed_share, correct):
        return {"label": label, "commit": label[0], "repeats": 1, "metrics": metrics,
                "failed_share": failed_share, "correct": correct}

    same = bench_json.compare_outcomes(entry("parent", 0.2, True), entry("change", 0.2, True))
    assert same == {"failed_share": (0.2, 0.2), "correct": (True, True),
                    "failed_share_rose": False}
    fewer = bench_json.compare_outcomes(entry("parent", 0.2, True), entry("change", 0.1, True))
    assert not fewer["failed_share_rose"]
    runs = [entry("parent", 0.2, True), entry("change", 0.25, False)]
    (tmp_path / "BENCH_modela_welding.json").write_text(
        json.dumps({"workload": "modela_welding", "runs": runs}))
    rose = bench_json.compare_outcomes(*runs)
    assert rose["failed_share_rose"] and rose["correct"] == (True, False)
    capsys.readouterr()
    assert bench_json.main(["--out-dir", str(tmp_path), "--compare", "parent", "change"]) == 0
    out = capsys.readouterr().out
    assert "failed_share: 0.2 -> 0.25, ROSE; correct: True -> False" in out
