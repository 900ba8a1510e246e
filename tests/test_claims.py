"""Claims over seeds: rounds to target, one run's claim value, `goalrba claims`."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from goalrba.claims import claim_value, rounds_to_target, sign_test_p
from goalrba.cli import main
from goalrba.harness import (
    POLICIES,
    ChannelConfig,
    ScenarioConfig,
    load_config,
    run_scenario,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

DR_SMALL_RAW = {"workload": "demand_response", "rounds": 3, "seed": 5,
                "params": {"num_eds": 30, "pi_min": 20.0}, "channel": {"capacity": 200}}
DR_SMALL = ScenarioConfig(**DR_SMALL_RAW)


# A small edge-learning scenario whose test accuracy first reaches 0.5 after
# a few rounds, well inside its round cap.
EDGE_SMALL = dict(
    workload="edge_learning", rounds=12, seed=1, channel=ChannelConfig(capacity=10),
    params=dict(num_eds=4, num_classes=4, dim=16, hidden_dim=8, train_per_class=30,
                test_per_class=10, batch_per_round=8, epochs_per_round=1,
                concentrated_classes=[2, 3], bits_per_sample=136.0, lr=0.1),
)


def test_rounds_to_target_matches_the_full_run():
    cfg = ScenarioConfig(**EDGE_SMALL)
    accuracy = []
    run_scenario(cfg, round_hook=lambda k, wl: accuracy.append(wl.test_accuracy()))
    first_hit = next(k + 1 for k, acc in enumerate(accuracy) if acc >= 0.5)
    assert 1 < first_hit < cfg.rounds
    assert rounds_to_target(cfg, lambda wl: wl.test_accuracy() >= 0.5) == first_hit


def test_rounds_to_target_is_rounds_plus_one_when_never_reached():
    cfg = ScenarioConfig(**EDGE_SMALL)
    assert rounds_to_target(cfg, lambda wl: False) == cfg.rounds + 1


def test_demand_response_claim_is_the_mean_goal_value():
    goals = [m.goal_value for m in run_scenario(DR_SMALL)]
    assert claim_value(DR_SMALL) == float(np.mean(goals))


@pytest.mark.parametrize("preset", sorted(p.stem for p in CONFIGS.glob("*.yaml")))
def test_every_preset_has_a_claim(preset):
    cfg = dataclasses.replace(load_config(CONFIGS / f"{preset}.yaml"), rounds=1)
    assert np.isfinite(claim_value(cfg))


def test_claims_on_routing_exits_1_naming_workload(tmp_path, capsys):
    path = tmp_path / "routing.yaml"
    path.write_text("workload: routing\n")
    code = main(["claims", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "config error" in err and "unknown workload 'routing'" in err


def test_claims_on_a_negative_seed_exits_1_naming_seed(capsys):
    code = main(["claims", "--config", str(CONFIGS / "admm.yaml"), "--seeds", "3", "-1"])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    assert "config error" in captured.err and "seed" in captured.err
    assert captured.out == ""


def test_claims_prints_each_seed_and_the_hybrid_tally(tmp_path, capsys):
    path = tmp_path / "dr.yaml"
    path.write_text(yaml.safe_dump(DR_SMALL_RAW))
    code = main(["claims", "--config", str(path), "--seeds", "5", "6"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    for seed, line in zip((5, 6), lines):
        assert line.startswith(f"demand_response seed {seed}: ")
        assert all(f"{policy} " in line for policy in POLICIES)
    assert lines[2].startswith("medians (mean dispatch cost): ")
    for baseline, line in zip(("channel", "utility"), lines[3:]):
        tally = re.match(rf"hybrid vs {baseline}: wins (\d), ties (\d), losses (\d); "
                         r"median reduction -?\d+\.\d%; sign test p (\S+)$", line)
        wins, ties, losses = map(int, tally.groups()[:3])
        assert wins + ties + losses == 2
        assert float(tally[4]) == pytest.approx(sign_test_p(wins, losses), rel=1e-3)
    assert len(lines) == 5


def test_claims_with_a_zero_channel_median_prints_no_reduction(capsys):
    # pi_min 0 asks for no reduction, so every dispatch costs 0
    code = main(["claims", "--config", str(CONFIGS / "demand_response.yaml"),
                 "--set", "params.pi_min=0", "--set", "rounds=3"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    lines = captured.out.splitlines()
    assert lines[1] == "medians (mean dispatch cost): channel 0.000, utility 0.000, hybrid 0.000"
    assert lines[2:] == [f"hybrid vs {baseline}: wins 0, ties 1, losses 0; median reduction n/a; "
                         f"sign test p 1" for baseline in ("channel", "utility")]


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 0.001953125),  # 10/0/0: twice 1/1024
    (0, 10, 0.001953125),
    (3, 1, 0.625),  # 3/6/1, the six ties dropped: twice 5/16
    (0, 0, 1.0),  # every seed tied
    (5, 5, 1.0),  # twice a tail past one half, capped
    (7, 2, 0.1796875),  # twice 46/512
])
def test_sign_test_hand_values(wins, losses, p):
    assert sign_test_p(wins, losses) == p
