#!/usr/bin/env python3
"""Compare allocation policies on the robust demand-response workload.

Reproduces the headline desk-scale result: with a binding RB budget, the
hybrid policy cuts mean dispatch cost by >20% relative to channel-only
selection. Rounds, seed and budget come from configs/demand_response.yaml.
"""

import argparse
import dataclasses
import time
from pathlib import Path

import numpy as np

from goalrba.harness import POLICIES, load_config, run_scenario

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    config = load_config(CONFIGS / "demand_response.yaml")
    means = {}
    started = time.perf_counter()
    for policy in POLICIES:
        costs = [m.goal_value for m in run_scenario(dataclasses.replace(config, policy=policy))]
        means[policy] = float(np.mean(costs))
        print(f"{policy:>8}: mean dispatch cost {means[policy]:.3f}")
    reduction = 1.0 - means["hybrid"] / means["channel"]
    print(f"hybrid vs channel cost reduction: {reduction:.1%}")
    print(f"elapsed: {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()
