"""The paper's directional claims over seeds, behind the CLI `claims` command.

Each claim reduces one run to one lower-is-better number: demand response's
mean dispatch cost over the run, or the rounds a learning or ADMM run needs
to reach its target. The acceptance tests call `claim_value` and quote
`TARGETS`, so the report and the gates judge the same thing.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Sequence

import numpy as np

from .harness import POLICIES, ScenarioConfig, run_scenario
from .workload import Workload

# Rounds-to-target claims: test accuracy at least the target for the
# learning workloads, relative objective gap at most it for ADMM.
TARGETS = {"edge_learning": 0.90, "federated": 0.95, "admm": 1e-3}


def rounds_to_target(config: ScenarioConfig, reached: Callable[[Workload], bool]) -> int:
    """First 1-based round after which `reached(workload)` holds, rounds+1 if none.

    The run stops at that round, so the rounds after it cost nothing.
    """
    hit: List[int] = []

    def hook(k: int, workload: Workload) -> bool:
        if reached(workload):
            hit.append(k + 1)
            return True
        return False

    run_scenario(config, round_hook=hook)
    return hit[0] if hit else config.rounds + 1


def claim_value(config: ScenarioConfig) -> float:
    """One run's claim number, lower is better.

    demand_response: the mean goal value (dispatch cost) over the run. The
    workloads in TARGETS: the rounds to target, an int.
    """
    if config.workload == "demand_response":
        return float(np.mean([m.goal_value for m in run_scenario(config)]))
    target = TARGETS[config.workload]
    if config.workload == "admm":
        return rounds_to_target(config, lambda wl: wl.relative_gap() <= target)
    return rounds_to_target(config, lambda wl: wl.test_accuracy() >= target)


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign test of wins against losses, ties dropped.

    Twice the binomial tail at p = 1/2 of the smaller count, over the
    wins + losses seeds that do not tie, and at most 1 (Conover, "Practical
    Nonparametric Statistics", 1999, section 3.4). With every seed tied it
    is 1.
    """
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def run_claims(config: ScenarioConfig, seeds: Sequence[int]) -> None:
    """Print every policy's claim value per seed, the medians, and hybrid vs each baseline.

    Each baseline's line gives hybrid's wins, ties and losses, the median
    reduction and the sign test p-value of the wins against the losses.
    """
    # Every seed is checked before the first run starts.
    runs = [dataclasses.replace(config, seed=seed) for seed in seeds]
    spec = ".3f" if config.workload == "demand_response" else "g"
    values = {policy: [] for policy in POLICIES}
    for run in runs:
        for policy in POLICIES:
            values[policy].append(claim_value(dataclasses.replace(run, policy=policy)))
        row = ", ".join(f"{p} {values[p][-1]:{spec}}" for p in POLICIES)
        print(f"{config.workload} seed {run.seed}: {row}")
    medians = {p: float(np.median(values[p])) for p in POLICIES}
    what = ("mean dispatch cost" if config.workload == "demand_response"
            else f"rounds to target {TARGETS[config.workload]:g}")
    print(f"medians ({what}): " + ", ".join(f"{p} {medians[p]:{spec}}" for p in POLICIES))
    for baseline in ("channel", "utility"):
        pairs = list(zip(values["hybrid"], values[baseline]))
        wins = sum(h < b for h, b in pairs)
        ties = sum(h == b for h, b in pairs)
        losses = len(pairs) - wins - ties
        # A zero baseline median has no relative reduction.
        reduction = (f"{1 - medians['hybrid'] / medians[baseline]:.1%}" if medians[baseline]
                     else "n/a")
        print(f"hybrid vs {baseline}: wins {wins}, ties {ties}, losses {losses}; "
              f"median reduction {reduction}; sign test p {sign_test_p(wins, losses):.4g}")
