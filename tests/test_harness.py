"""Scenario harness: config schema, CSV plumbing, determinism, CLI exit codes."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from goalrba.harness import (
    CSV_HEADER,
    ChannelConfig,
    ConfigError,
    RoundMetrics,
    ScenarioConfig,
    build_workload,
    config_to_dict,
    emit_metrics,
    load_config,
    parse_metrics,
    rounds_to_target,
    run_compare,
    run_scenario,
    save_config,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

DR_SMALL = dict(workload="demand_response", rounds=3, seed=5,
                params={"num_eds": 30, "pi_min": 20.0})


def small_config(**overrides):
    merged = {**DR_SMALL, **overrides}
    channel = merged.pop("channel", ChannelConfig(capacity=200))
    return ScenarioConfig(channel=channel, **merged)


def test_config_yaml_round_trip(tmp_path):
    cfg = small_config(policy="utility", utility_mode="expected", utility_samples=32)
    path = tmp_path / "scenario.yaml"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_load_config_rejects_unknown_keys(tmp_path):
    raw = config_to_dict(small_config())
    raw["capactiy"] = 5
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match="capactiy"):
        load_config(path)


def test_load_config_rejects_unknown_nested_keys(tmp_path):
    raw = config_to_dict(small_config())
    raw["channel"]["bandwidth"] = 1.0
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match="bandwidth"):
        load_config(path)


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(workload="telepathy")
    with pytest.raises(ConfigError):
        ScenarioConfig(workload="demand_response", policy="oracle")
    with pytest.raises(ConfigError):
        ScenarioConfig(workload="demand_response", rounds=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(workload="demand_response", utility_mode="sampled")
    with pytest.raises(ConfigError):
        ScenarioConfig(workload="demand_response", gain_normalization="zscore")


def test_unknown_param_field_rejected_at_load(tmp_path):
    raw = config_to_dict(small_config())
    raw["params"]["no_such_field"] = 1
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match="no_such_field"):
        load_config(path)


def test_metrics_csv_round_trip(tmp_path):
    metrics = [
        RoundMetrics(0, "hybrid", 5, 12, 3.25, 81.0625, 0),
        RoundMetrics(1, "hybrid", 5, 0, 0.0, 81.0625, 0),
        RoundMetrics(2, "hybrid", 5, 9, 1e-17, 0.1 + 0.2, 0),
    ]
    path = tmp_path / "m.csv"
    emit_metrics(metrics, path)
    assert parse_metrics(path) == metrics
    lines = path.read_text().splitlines()
    assert lines[0] == "round,policy,seed,throughput,utility_gain,goal_value,wall_ms"
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4


def test_empty_metrics_emit_header_only(tmp_path):
    path = tmp_path / "m.csv"
    emit_metrics([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_parse_metrics_rejects_foreign_files(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("round,policy\n0,hybrid\n")
    with pytest.raises(ValueError):
        parse_metrics(path)


def test_run_scenario_deterministic_bytes(tmp_path):
    cfg = small_config()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_metrics(run_scenario(cfg), a)
    emit_metrics(run_scenario(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seeds_differ():
    rows_a = run_scenario(small_config(seed=1))
    rows_b = run_scenario(small_config(seed=2))
    assert [m.goal_value for m in rows_a] != [m.goal_value for m in rows_b]


def test_zero_capacity_starves_every_round():
    cfg = small_config(channel=ChannelConfig(capacity=0), rounds=4)
    for m in run_scenario(cfg):
        assert m.throughput == 0
        assert m.utility_gain == 0.0


def test_channel_policy_maximizes_throughput_at_uniform_payload():
    # identical payloads mean identical gain->demand maps, so picking the
    # best gains packs at least as many EDs as any other rule
    results = {}
    for policy in ("channel", "utility", "hybrid"):
        results[policy] = run_scenario(small_config(policy=policy, rounds=5))
    for k in range(5):
        assert results["channel"][k].throughput >= results["utility"][k].throughput
        assert results["channel"][k].throughput >= results["hybrid"][k].throughput


def test_realized_gain_is_bounded_by_summed_marginals():
    cfg = small_config(rounds=6)
    wl = build_workload(cfg, seed=np.random.SeedSequence(cfg.seed))
    caps = []

    def hook(k, workload):
        caps.append(sum(v for _, v in workload.marginal_utilities()))

    rows = run_scenario(cfg, workload=wl, round_hook=hook)
    for m in rows:
        assert m.utility_gain >= -1e-12


def test_truthy_round_hook_ends_the_run():
    cfg = small_config(rounds=5)
    seen = []

    def hook(k, workload):
        seen.append(k)
        return k == 1

    rows = run_scenario(cfg, round_hook=hook)
    assert seen == [0, 1]
    assert rows == run_scenario(cfg)[:2]


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


@pytest.mark.parametrize("preset", sorted(p.stem for p in CONFIGS.glob("*.yaml")))
def test_presets_load_and_run(preset):
    cfg = load_config(CONFIGS / f"{preset}.yaml")
    assert cfg.workload == preset
    rows = run_scenario(dataclasses.replace(cfg, rounds=2))
    assert [m.round_idx for m in rows] == [0, 1]
    assert all(np.isfinite(m.goal_value) for m in rows)


def test_expected_mode_runs_and_stays_deterministic():
    cfg = small_config(utility_mode="expected", utility_samples=16)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a == b


def test_run_compare_writes_three_csvs_and_a_summary(tmp_path):
    cfg = small_config(gain_normalization="per_round_max")
    results = run_compare(cfg, tmp_path)
    assert set(results) == {"channel", "utility", "hybrid"}
    for policy in results:
        parsed = parse_metrics(tmp_path / f"{policy}.csv")
        assert [m.policy for m in parsed] == [policy] * cfg.rounds
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "round,policy,utility_gain,relative_gain"
    assert len(summary) == 1 + 3 * cfg.rounds
    rels = [float(line.split(",")[3]) for line in summary[1:]]
    assert all(0.0 <= r <= 1.0 + 1e-12 for r in rels)


def test_wall_time_flag_populates_the_column():
    rows = run_scenario(small_config(measure_wall_time=True, rounds=2))
    assert all(m.wall_ms >= 0 for m in rows)
    rows = run_scenario(small_config(rounds=2))
    assert all(m.wall_ms == 0 for m in rows)


def test_infeasible_workload_surfaces_at_run_time():
    # passes schema validation, fails once the workload is instantiated
    from goalrba.decision import InfeasibleDrError

    cfg = ScenarioConfig(
        workload="demand_response", rounds=1, seed=0,
        params={"num_eds": 5, "pi_min": 1e9},
        channel=ChannelConfig(capacity=100),
    )
    with pytest.raises(InfeasibleDrError):
        run_scenario(cfg)


def test_round_failures_carry_round_context():
    cfg = small_config(rounds=2)
    wl = build_workload(cfg, seed=np.random.SeedSequence(cfg.seed))

    def explode(*args, **kwargs):
        raise ValueError("probe boom")

    wl.ingest = explode
    with pytest.raises(RuntimeError, match="round 0 of demand_response"):
        run_scenario(cfg, workload=wl)


# --- CLI ---------------------------------------------------------------


def cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "goalrba.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def write_cfg(tmp_path, **overrides):
    cfg = small_config(**overrides)
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    return path


def test_cli_run_roundtrip(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "run.csv"
    res = cli("run", "--config", str(path), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert len(parse_metrics(out)) == 3


def test_cli_run_overrides(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "run.csv"
    res = cli("run", "--config", str(path), "--seed", "9", "--policy", "channel",
              "--rounds", "2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    rows = parse_metrics(out)
    assert len(rows) == 2
    assert rows[0].policy == "channel" and rows[0].seed == 9


def test_cli_exit_code_1_on_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("workload: nonsense\n")
    res = cli("run", "--config", str(path), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 1
    assert "config error" in res.stderr


@pytest.mark.parametrize("key, value, block", [
    ("rounds", "abc", None),
    ("seed", 1.5, None),
    ("seed", -1, None),
    ("measure_wall_time", "yes", None),
    ("capacity", "lots", "channel"),
    ("tx_power_w", -1.0, "channel"),
    ("rb_time_s", 0.0, "channel"),
    ("num_eds", -3, "params"),
    ("num_eds", True, "params"),
])
def test_cli_exit_code_1_names_the_bad_key(tmp_path, key, value, block):
    raw = config_to_dict(small_config())
    (raw[block] if block else raw)[key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(raw))
    res = cli("run", "--config", str(path), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 1, res.stderr
    assert "config error" in res.stderr and key in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_exit_code_2_on_runtime_error(tmp_path):
    raw = config_to_dict(small_config())
    raw["params"]["pi_min"] = 1e9  # validates, then fails in the dispatch
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    res = cli("run", "--config", str(path), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 2


def test_cli_verify_exits_zero():
    res = cli("verify")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "PASS" in res.stdout


def test_cli_compare_writes_a_directory(tmp_path):
    path = write_cfg(tmp_path, rounds=2)
    out = tmp_path / "cmp"
    res = cli("compare", "--config", str(path), "--out", str(out))
    assert res.returncode == 0, res.stderr
    for name in ("channel.csv", "utility.csv", "hybrid.csv", "summary.csv"):
        assert (out / name).exists()
