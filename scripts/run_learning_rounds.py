#!/usr/bin/env python3
"""Rounds-to-target comparison for the learning workloads.

For each seed, runs channel-only and hybrid selection on the workload's
configs/ preset until it reaches its goal threshold (test accuracy for the
learning tasks, relative objective gap for consensus lasso) and reports the
per-seed round counts and medians.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# This checkout's package, ahead of any installed goalrba.
sys.path.insert(0, str(ROOT / "src"))

from goalrba.harness import load_config, rounds_to_target  # noqa: E402

CONFIGS = ROOT / "configs"

TARGETS = {"edge_learning": 0.90, "federated": 0.95, "admm": 1e-3}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload", choices=sorted(TARGETS))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = ap.parse_args()

    config = load_config(CONFIGS / f"{args.workload}.yaml")
    target = TARGETS[args.workload]
    if args.workload == "admm":
        reached = lambda wl: wl.relative_gap() <= target
    else:
        reached = lambda wl: wl.test_accuracy() >= target
    print(f"{args.workload}: target {target}, capacity {config.channel.capacity} RB/s")
    started = time.perf_counter()
    pairs = []
    for seed in args.seeds:
        rc = rounds_to_target(dataclasses.replace(config, policy="channel", seed=seed), reached)
        rh = rounds_to_target(dataclasses.replace(config, policy="hybrid", seed=seed), reached)
        pairs.append((rc, rh))
        print(f"  seed {seed}: channel {rc}, hybrid {rh}")
    med_c = float(np.median([c for c, _ in pairs]))
    med_h = float(np.median([h for _, h in pairs]))
    print(f"medians: channel {med_c:.0f}, hybrid {med_h:.0f} "
          f"({1 - med_h / med_c:.1%} fewer rounds)")
    print(f"elapsed: {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()
