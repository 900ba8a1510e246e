"""scripts/bench_pairs.py: run order and the summary of canned results.

No benchmark run is started: run_once is replaced by a stub that returns
canned metric values.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

RATE = {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
P50 = {"name": "round_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}


def runs(name, values):
    return [{name: v} for v in values]


def test_a_clear_gain_holds_the_rule():
    a = runs("rounds_per_s", [100.0 + i for i in range(10)])
    b = runs("rounds_per_s", [120.0 + i for i in range(10)])
    [line] = bench_pairs.summarize(a, b, [RATE])
    # A's quartiles 102.25 and 106.75: a 4.5 spread under the 20 gap
    assert line == ("rounds_per_s (1/s, higher is better): A 104.5 [102.25, 106.75]  "
                    "B 124.5 [122.25, 126.75]  B wins 10/10  change +19.1%  "
                    "gain rule holds  bound 25%: within bound")


def test_the_rule_needs_nine_wins_in_ten_and_a_gap_wider_than_the_spread():
    a = runs("rounds_per_s", [100.0 + i for i in range(10)])
    # eight wins of ten, by a wide margin
    b = runs("rounds_per_s", [200.0] * 8 + [50.0, 50.0])
    assert "B wins 8/10" in bench_pairs.summarize(a, b, [RATE])[0]
    assert "gain rule fails" in bench_pairs.summarize(a, b, [RATE])[0]
    # ten wins of ten, by less than A's quartile spread
    b = runs("rounds_per_s", [v + 1.0 for v in range(100, 110)])
    line = bench_pairs.summarize(a, b, [RATE])[0]
    assert "B wins 10/10" in line and "gain rule fails" in line


def test_a_lower_is_better_metric_counts_a_lower_b_as_a_win_and_ties_for_neither():
    a = runs("round_ms_p50", [2.0, 2.0, 2.0, 3.0])
    b = runs("round_ms_p50", [1.0, 2.0, 1.0, 2.0])
    line = bench_pairs.summarize(a, b, [P50])[0]
    assert "B wins 3/4" in line and "change -25.0%" in line


def test_the_bound_verdicts():
    a = runs("rounds_per_s", [100.0] * 10)
    worse = bench_pairs.summarize(a, runs("rounds_per_s", [70.0] * 10), [RATE])[0]
    assert worse.endswith("bound 25%: worse beyond bound")
    a = runs("rounds_per_s", [50.0, 60.0, 100.0, 140.0, 150.0])
    wide = bench_pairs.summarize(a, runs("rounds_per_s", [90.0] * 5), [RATE])[0]
    assert wide.endswith("bound 25%: unresolved: A's spread exceeds the bound")


def test_pairs_alternate_which_checkout_runs_first(monkeypatch, capsys):
    calls = []

    def fake_run(tree, workload, seed):
        calls.append((tree.name, workload, seed))
        return {m["name"]: 1.0 + (tree.name == "b") for m in metrics}

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["--a", "/x/a", "--b", "/x/b", "--workload", "admm",
                             "--pairs", "3", "--seed", "40"]) == 0
    assert calls == [("a", "admm", 40), ("b", "admm", 40), ("b", "admm", 41),
                     ("a", "admm", 41), ("a", "admm", 42), ("b", "admm", 42)]
    summary = capsys.readouterr().out.splitlines()[-len(metrics):]
    assert [line.split(" ")[0] for line in summary] == [m["name"] for m in metrics]


def test_a_run_that_is_not_correct_stops_the_pairs(monkeypatch, capsys):
    def fake_run(tree, workload, seed):
        raise bench_pairs.RunFailed(f"{tree} (seed {seed}) was not correct")

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["--a", "/x/a", "--b", "/x/b", "--workload", "admm",
                             "--seed", "1"]) == 1
    assert "was not correct" in capsys.readouterr().err


def test_at_least_one_pair(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--a", "a", "--b", "b", "--workload", "admm", "--pairs", "0",
                          "--seed", "1"])


def test_out_writes_every_run_and_the_summary_as_json(monkeypatch, capsys, tmp_path):
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def fake_run(tree, workload, seed):
        return {m["name"]: seed + (tree.name == "b") for m in metrics}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--a", "/x/a", "--b", "/x/b", "--workload", "admm",
                             "--pairs", "2", "--seed", "7", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    written = json.loads(out.read_text())
    assert {k: written[k] for k in ("workload", "a", "b", "seeds")} == {
        "workload": "admm", "a": "/x/a", "b": "/x/b", "seeds": [7, 8]}
    assert [(r["pair"], r["seed"], r["side"]) for r in written["runs"]] == [
        (1, 7, "A"), (1, 7, "B"), (2, 8, "B"), (2, 8, "A")]
    assert written["runs"][1]["metrics"] == {m["name"]: 8 for m in metrics}
    assert written["summary"] == printed[-len(metrics):]
