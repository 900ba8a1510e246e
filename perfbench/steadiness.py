#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload, runs ``run.py`` once per seed (one process at a time)
and prints each end-to-end metric's median and its spread: the distance
between the first and third quartile as ``statistics.quantiles(values,
n=4)`` gives them, as a share of the median. It also prints the spread of
the host rounds per second as measured, before scaling to the reference
speed, and of the host speed factor. A spread above the metric's
bound in ``BENCHMARK.json`` makes the result "NOT steady"; a spread above a
third of the bound is flagged "wide". With ``--against`` it also compares
each median with the one in an earlier summary (such as ``baseline.json``)
and fails a metric whose median got worse by more than its bound. Run from
the root of a checkout:

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 --workloads admm
    python3 perfbench/steadiness.py --seeds 11 12 13 14 15 16 17 18 19 20 \\
        --against perfbench/baseline.json
    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --baseline perfbench/baseline.json

With ``--baseline`` it also makes one traced run per workload and writes
every run's result, the summary and the environment to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(saved.read_text()) if saved.is_file() else result


def spread(values):
    """Median, and the quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--baseline", type=Path, default=None)
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args()
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(args.against.read_text())["summary"] if args.against else {}
    steady = True
    out = {"runs": {}, "summary": {}, "traced": {}}
    for workload in args.workloads:
        results = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        out["runs"][workload] = results
        out["summary"][workload] = {}
        bad = [r for r in results if not r["correct"] or r["failed"]]
        if bad:
            steady = False
            print(f"{workload}: {len(bad)} runs not correct")
        negative = [r["info"]["negative_gain_rounds"] / r["attempted"]
                    for r in results if "info" in r]
        if negative:
            print(f"{workload:14s} negative-gain share {min(negative):.4f} to "
                  f"{max(negative):.4f}")
        for name in ("host_rounds_per_s", "host_speed_factor"):
            values = [r["info"][name] for r in results if "info" in r]
            if len(values) > 1:
                median, share = spread(values)
                print(f"{workload:14s} {name:18s} median {median:10.6g}  spread {share:6.3f}")
        for name, spec in end_to_end.items():
            bound = spec["bound"]
            median, share = spread([r["metrics"][name]["value"] for r in results])
            flag = "ok" if share < bound / 3 else ("wide" if share <= bound else "TOO WIDE")
            steady &= share <= bound
            line = (f"{workload:14s} {name:14s} median {median:12.6g}  spread {share:6.3f}  "
                    f"bound {bound:.2f}  {flag}")
            if workload in earlier:
                before = earlier[workload][name]["median"]
                worse = (median - before) / before
                if spec["better"] == "higher":
                    worse = -worse
                steady &= worse <= bound
                line += f"  vs earlier {worse:+.3f} {'ok' if worse <= bound else 'WORSE'}"
            out["summary"][workload][name] = {"median": median, "spread": share, "bound": bound}
            print(line)
        if args.baseline:
            out["traced"][workload] = run(workload, args.seeds[0], args.seconds, 1)
    if args.baseline:
        out["seeds"] = args.seeds
        out["environment"] = out["runs"][args.workloads[0]][0].get("environment")
        args.baseline.write_text(json.dumps(out, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
