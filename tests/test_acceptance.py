"""End-to-end acceptance gates.

Each test checks one headline claim and prints a single pass/fail line with
the tolerance it was judged against (run with ``pytest -s`` to see the lines):
the greedy approximation floor, the hand-derivable rate values, a demand
response cost reduction of at least 20%, the gain-equals-cost-reduction
identity, exhaustive submodularity enumeration, the rounds saved by edge and
federated learning, the smooth-descent inequality, a finite-difference
gradient check, the ADMM descent certificate and dual bound, and
byte-identical CSVs for a fixed config and seed.
The directional workload comparisons run the desk-scale configs/ presets,
overriding only policy and seed; rounds-to-target runs stop at the first round
that reaches the target.
"""

import dataclasses
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml
from scipy.optimize import linprog

from goalrba.channel import rb_bits
from goalrba.claims import TARGETS, claim_value
from goalrba.decision import DrInstance
from goalrba.harness import (
    ChannelConfig,
    ScenarioConfig,
    build_workload,
    load_config,
    run_scenario,
)
from goalrba.verification import (
    DESCENT_TOLERANCE,
    GRADIENT_REL_TOL,
    GREEDY_ETA,
    GREEDY_INSTANCES,
    SUBMODULAR_EDS,
    SUBMODULAR_INSTANCES,
    SUBMODULAR_TOLERANCE,
    verify_admm_certificate,
    verify_gradient_finite_differences,
    verify_greedy_guarantee,
    verify_lemma_descent,
    verify_submodularity,
)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def preset(name: str, **overrides) -> ScenarioConfig:
    """The configs/ preset with only policy and seed overridden."""
    return dataclasses.replace(load_config(CONFIGS / f"{name}.yaml"), **overrides)


def test_acceptance_1_greedy_guarantee():
    started = time.perf_counter()
    ok, detail = verify_greedy_guarantee()
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report(
        "acceptance-1 greedy guarantee",
        ok,
        f"{detail}; tolerance ratio >= {1 - GREEDY_ETA} on all {GREEDY_INSTANCES} instances, "
        f"{elapsed:.2f}s < 10s",
    )


def test_acceptance_2_rate_model():
    channel = ChannelConfig()
    ninety = rb_bits(1.0, channel)
    one_eighty = rb_bits(3.0, channel)
    err = max(abs(ninety - 90.0) / 90.0, abs(one_eighty - 180.0) / 180.0)
    report(
        "acceptance-2 rate model",
        err <= 1e-9,
        f"rb_bits gives {ninety:.12f} at unit SNR and {one_eighty:.12f} at SNR 3; "
        f"worst relative error {err:.2e} <= 1e-9",
    )


def claim_pairs(name: str, seeds) -> list:
    """(channel, hybrid) claim values of the preset at each seed."""
    return [tuple(claim_value(preset(name, policy=policy, seed=seed))
                  for policy in ("channel", "hybrid")) for seed in seeds]


def test_acceptance_3_demand_response_cost_reduction():
    started = time.perf_counter()
    config = preset("demand_response")
    [(channel, hybrid)] = claim_pairs("demand_response", [config.seed])
    reduction = 1.0 - hybrid / channel
    elapsed = time.perf_counter() - started
    ok = hybrid <= channel and reduction >= 0.20 and elapsed < 120.0
    report(
        "acceptance-3 demand response",
        ok,
        f"mean cost hybrid {hybrid:.3f} vs channel {channel:.3f} over {config.rounds} "
        f"rounds (J={build_workload(config).num_eds}, {config.channel.capacity} RBs); "
        f"reduction {reduction:.1%} >= 20%, {elapsed:.1f}s < 120s",
    )


def lp_cost(instance: DrInstance, cap) -> float:
    res = linprog(
        c=instance.costs,
        A_ub=-np.ones((1, len(cap))),
        b_ub=[-instance.pi_min],
        bounds=list(zip(np.zeros(len(cap)), cap)),
        method="highs",
    )
    assert res.success
    return float(res.fun)


def test_acceptance_4_gain_equals_cost_reduction():
    cfg = ScenarioConfig(
        workload="demand_response",
        policy="hybrid",
        rounds=25,
        seed=11,
        params={"num_eds": 60},
        channel=ChannelConfig(capacity=600),
    )
    workload = build_workload(cfg, seed=np.random.SeedSequence(cfg.seed))
    recomputed = []

    def hook(rnd, wl):
        # after ingest: wl.cap holds exactly this round's revealed loads
        market = DrInstance(wl.costs, wl.xi_lo, wl.xi_max, wl.pi_min)
        recomputed.append(lp_cost(market, wl.xi_lo) - lp_cost(market, wl.cap))

    metrics = run_scenario(cfg, workload=workload, round_hook=hook)
    worst = max(
        abs(m.utility_gain - r) for m, r in zip(metrics, recomputed)
    )
    report(
        "acceptance-4 gain identity",
        worst <= 1e-9,
        f"per-round realized gain matches independent LP cost reduction on all "
        f"{cfg.rounds} rounds; worst gap {worst:.2e} <= 1e-9",
    )


def test_acceptance_5_submodularity_enumeration():
    ok, detail = verify_submodularity()
    report(
        "acceptance-5 submodularity",
        ok,
        f"{detail}; exhaustive LP re-solves over all 2^{SUBMODULAR_EDS} subsets on "
        f"{SUBMODULAR_INSTANCES} instances, tolerance {SUBMODULAR_TOLERANCE:g}",
    )


def test_acceptance_6_edge_learning_rounds_saved():
    started = time.perf_counter()
    target = TARGETS["edge_learning"]
    pairs = claim_pairs("edge_learning", (1, 2, 3, 4, 5))
    med_channel = float(np.median([c for c, _ in pairs]))
    med_hybrid = float(np.median([h for _, h in pairs]))
    saving = 1.0 - med_hybrid / med_channel
    elapsed = time.perf_counter() - started
    ok = med_hybrid <= med_channel and saving >= 0.20 and elapsed < 600.0
    report(
        "acceptance-6 edge learning",
        ok,
        f"rounds to {target:.0%} accuracy (channel, hybrid) per seed {pairs}; "
        f"medians {med_channel:.0f} vs {med_hybrid:.0f}, saving {saving:.1%} >= 20%, "
        f"{elapsed:.1f}s < 600s",
    )


def test_acceptance_7a_descent_inequality():
    ok, detail = verify_lemma_descent()
    report(
        "acceptance-7a descent inequality",
        ok,
        f"{detail}; tolerance {DESCENT_TOLERANCE:g}, step sizes drawn from (0, 2/kappa]",
    )


def test_acceptance_7b_gradient_check():
    ok, detail = verify_gradient_finite_differences()
    report("acceptance-7b gradient check", ok, f"{detail}; tolerance {GRADIENT_REL_TOL:g} relative")


def test_acceptance_7c_federated_rounds():
    started = time.perf_counter()
    target = TARGETS["federated"]
    pairs = claim_pairs("federated", (1, 2, 3, 4, 5))
    med_channel = float(np.median([c for c, _ in pairs]))
    med_hybrid = float(np.median([h for _, h in pairs]))
    elapsed = time.perf_counter() - started
    ok = med_hybrid <= med_channel
    report(
        "acceptance-7c federated rounds",
        ok,
        f"rounds to {target:.0%} accuracy (channel, hybrid) per seed {pairs}; "
        f"median hybrid {med_hybrid:.0f} <= channel {med_channel:.0f}, {elapsed:.1f}s",
    )


def test_acceptance_8ab_admm_certificate_and_dual_bound():
    ok, detail = verify_admm_certificate()
    report(
        "acceptance-8ab admm certificate",
        ok,
        f"{detail}; per-round descent certificate and consecutive-dual bound, "
        "as `goalrba verify` checks them",
    )


def test_acceptance_8c_admm_rounds():
    started = time.perf_counter()
    [(channel, hybrid)] = claim_pairs("admm", [3])
    elapsed = time.perf_counter() - started
    ok = hybrid <= channel and elapsed < 300.0
    report(
        "acceptance-8c admm rounds",
        ok,
        f"rounds to relative gap {TARGETS['admm']:g}: hybrid {hybrid} <= "
        f"channel {channel}; {elapsed:.1f}s < 300s",
    )


def test_acceptance_9_determinism(tmp_path):
    raw = {"workload": "demand_response", "rounds": 5, "seed": 3,
           "params": {"num_eds": 40}, "channel": {"capacity": 300}}
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "goalrba.cli", "run",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    report(
        "acceptance-9 determinism",
        outs[0] == outs[1],
        f"two `run` invocations with a fixed config and seed emitted byte-identical "
        f"CSV ({len(outs[0])} bytes)",
    )
