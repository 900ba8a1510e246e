#!/usr/bin/env python3
"""Alternating pairs of benchmark runs from two checkouts, judged by the gain rule.

Pair i runs `perfbench/run.py --workload W --seed S+i --trace 0` once from
checkout A and once from checkout B, A first in even pairs and B first in
odd ones, each with PYTHONHASHSEED=0. Any run that exits non-zero or does
not report `correct: true` stops the script with exit 1. It prints every
run's end-to-end metrics, then, for each end-to-end metric that
BENCHMARK.json names, both sides' medians and quartiles, how many pairs B
won (ties count for neither), the change of the median, whether the gain
rule holds for B (at least 9 wins in 10, and a median gap in B's favour
wider than the distance between A's quartiles), and where B stands against
the metric's regression bound. With --out PATH it also writes all of this
as JSON to PATH: the workload, both checkouts as given, the seeds, every
run in the order it ran (pair, seed, side, metrics) and the summary lines.
It writes nothing into either checkout beyond what `perfbench/run.py` itself
writes there, and PATH.

With --control DIR, a second copy of A, every pair also runs DIR, and the
three sides take turns: A, B, control in the first pair, then B, control,
A, then control, A, B, and so on. Beside each metric's line for B it prints
the same line for the control against A: an A/A comparison in the same
session, which shows how far two copies of one tree read apart. --out
writes those lines too.

    python3 scripts/bench_pairs.py --a ../parent --b . --workload dr_paper \\
        --pairs 10 --seed 971 --control ../parent2 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900


class RunFailed(RuntimeError):
    """A benchmark run crashed, printed no result or was not correct."""


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The end-to-end metric values of one untraced run from `tree`."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    where = f"{tree} (seed {seed})"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(f"{where} printed no result, exit {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}") from None
    if proc.returncode or result.get("correct") is not True:
        raise RunFailed(f"{where} was not correct, exit {proc.returncode}: {lines[-1]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(a_runs, b_runs, metrics, name="B") -> list:
    """One line per metric of BENCHMARK.json's end_to_end list.

    a_runs and b_runs hold one {metric: value} dict per pair, in pair order;
    `name` is what the lines call the side of b_runs.
    """
    lines = []
    for metric in metrics:
        sign = 1.0 if metric["better"] == "higher" else -1.0
        a = np.array([run[metric["name"]] for run in a_runs])
        b = np.array([run[metric["name"]] for run in b_runs])
        (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = (np.percentile(x, [25, 50, 75]) for x in (a, b))
        wins = int(np.count_nonzero(sign * (b - a) > 0))
        gap = sign * (b_med - a_med)
        holds = wins * 10 >= 9 * len(a) and gap > a_q3 - a_q1
        # relative to A's median: how much worse B reads, and how wide A's runs spread
        worse, spread = -gap / abs(a_med), (a_q3 - a_q1) / abs(a_med)
        if worse > metric["bound"]:
            verdict = "worse beyond bound"
        elif spread > metric["bound"]:
            verdict = "unresolved: A's spread exceeds the bound"
        else:
            verdict = "within bound"
        lines.append(
            f"{metric['name']} ({metric['unit']}, {metric['better']} is better): "
            f"A {a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}]  "
            f"{name} {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
            f"{name} wins {wins}/{len(a)}  change {(b_med - a_med) / abs(a_med):+.1%}  "
            f"gain rule {'holds' if holds else 'fails'}  "
            f"bound {metric['bound']:.0%}: {verdict}"
        )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, type=Path, help="checkout A (the baseline)")
    ap.add_argument("--b", required=True, type=Path, help="checkout B (the change)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--control", type=Path,
                    help="a second copy of A, run in every pair as an A/A control")
    ap.add_argument("--out", type=Path, help="write the runs and the summary here as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"A": args.a, "B": args.b}
    if args.control is not None:
        trees["control"] = args.control
    sides = list(trees)
    runs = {side: [] for side in sides}
    log = []
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            # Each side leads in turn: A, B (, control), then B (, control), A, ...
            shift = i % len(sides)
            for side in sides[shift:] + sides[:shift]:
                runs[side].append(run_once(trees[side].resolve(), args.workload, seed))
                log.append({"pair": i + 1, "seed": seed, "side": side,
                            "metrics": runs[side][-1]})
                values = "  ".join(f"{m['name']}={runs[side][-1][m['name']]:.6g}"
                                   for m in metrics)
                print(f"pair {i + 1} seed {seed} {side}: {values}", flush=True)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    summary = summarize(runs["A"], runs["B"], metrics)
    record = {"workload": args.workload, "a": str(args.a), "b": str(args.b),
              "seeds": [args.seed + i for i in range(args.pairs)], "runs": log,
              "summary": summary}
    if args.control is None:
        print("\n".join(summary))
    else:
        control = summarize(runs["A"], runs["control"], metrics, name="control")
        for b_line, control_line in zip(summary, control):
            print(f"{b_line}\n  A/A {control_line}")
        record.update(control=str(args.control), control_summary=control)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
