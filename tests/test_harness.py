"""Scenario harness: config schema, CSV plumbing, determinism, CLI exit codes."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from goalrba.cli import main
from goalrba.decision import DrParams, RoutingParams
from goalrba.harness import (
    CSV_HEADER,
    POLICIES,
    WORKLOADS,
    ChannelConfig,
    ConfigError,
    RoundError,
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
from goalrba.learning import EdgeLearningParams, FederatedParams

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
    for policy in POLICIES:
        cfg = small_config(rounds=6, policy=policy)
        wl = build_workload(cfg, seed=np.random.SeedSequence(cfg.seed))
        caps = []

        def hook(k, workload):
            # The deltas are against the round's unrevealed base instance,
            # so reading them after the ingest gives the round's values.
            deltas = workload.marginal_utilities()
            caps.append(sum(deltas[j] for j in np.flatnonzero(workload.cap != workload.xi_lo)))

        rows = run_scenario(cfg, workload=wl, round_hook=hook)
        assert len(caps) == len(rows) == 6
        for m, cap in zip(rows, caps):
            assert m.utility_gain >= -1e-12
            assert m.utility_gain <= cap + 1e-9


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


def test_infeasible_workload_fails_at_load(tmp_path):
    # a requirement beyond the worst-case capacity is a config error
    from goalrba.decision import InfeasibleDrError

    cfg = ScenarioConfig(
        workload="demand_response", rounds=1, seed=0,
        params={"num_eds": 5, "pi_min": 1e9},
        channel=ChannelConfig(capacity=100),
    )
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    with pytest.raises(ConfigError, match="pi_min 1e\\+09 exceeds the worst-case capacity"):
        load_config(path)
    with pytest.raises(InfeasibleDrError):
        DrParams(num_eds=5, pi_min=1e9)


def test_round_failures_carry_round_context():
    cfg = small_config(rounds=2)
    wl = build_workload(cfg, seed=np.random.SeedSequence(cfg.seed))

    def explode(*args, **kwargs):
        raise ValueError("probe boom")

    wl.ingest = explode
    with pytest.raises(RoundError, match="round 0 of demand_response failed: probe boom") as info:
        run_scenario(cfg, workload=wl)
    assert info.value.round_idx == 0
    assert info.value.workload == "demand_response"
    assert isinstance(info.value.__cause__, ValueError)


def test_round_failures_keep_an_index_error_as_the_cause():
    # an emptied demand-response history makes ingest's history_rows[-1] fail
    cfg = small_config(rounds=3)
    wl = build_workload(cfg, seed=np.random.SeedSequence(cfg.seed))
    wl.history_rows.clear()
    with pytest.raises(RoundError, match="round 0 of demand_response failed") as info:
        run_scenario(cfg, workload=wl)
    assert (info.value.round_idx, info.value.workload) == (0, "demand_response")
    assert isinstance(info.value.__cause__, IndexError)


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


# Hand-picked bad values: cross-field rules, and single values listed before
# types and ranges were declared on the fields. The generated tests below
# probe every declared type and every declared bound.
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
    ("payload_bits", -1.0, "params"),
    ("history_len", 0, "params"),
    # A workload name as the block: the key goes in that workload's params.
    ("payload_bits", -1.0, "routing"),
    ("bits_per_sample", -1.0, "edge_learning"),
    ("bits_per_weight", -1.0, "federated"),
    ("bits_per_entry", -1.0, "admm"),
    ("sgd_batch", 0, "edge_learning"),
    ("hidden_dim", 0, "edge_learning"),
    ("epochs_per_round", -1, "edge_learning"),
    ("batch_per_round", -3, "edge_learning"),
    ("lr", -0.1, "edge_learning"),
    ("momentum", 1.0, "edge_learning"),
    ("batch_size", 0, "federated"),
    ("hidden_dim", 0, "federated"),
    ("kappa", 0.0, "federated"),
    ("lr", 5.0, "federated"),  # beyond 2/kappa at the default kappa 1
    ("data_poor_fraction", 1.5, "federated"),
    ("data_poor_keep", 0.0, "federated"),
    ("cost_range", [-1.0, 5.0], "params"),
    ("cost_range", [0.0, 1.0, 5.0], "params"),
    ("cost_range", [5.0, 1.0], "params"),
    ("cost_range", 5.0, "params"),
    ("xi_max_range", [30.0, 1.0], "params"),
    ("xi_max_range", ["a", 1.0], "params"),
    ("xi_lo", -1.0, "params"),
    ("pi_min", -5.0, "params"),
    ("tau_range", [-1.0, 10.0], "routing"),
    ("tau_range", [10.0, 1.0], "routing"),
    ("tau_range", [1.0], "routing"),
    ("edge_prob", 1.5, "routing"),
    ("edge_prob", -0.1, "routing"),
    ("history_len", 0, "routing"),
    ("sparsity", 1.5, "admm"),
    ("sparsity", -0.5, "admm"),
    ("solver_tol", 0.0, "admm"),
    ("solver_cap", -1, "admm"),
    ("noise_variance_slope", -0.01, "admm"),
    # A config key with a workload name as the block: that workload, the key
    # at the top level.
    ("utility_mode", "expected", "edge_learning"),
    ("utility_mode", "expected", "federated"),
    ("utility_mode", "expected", "admm"),
    # A requirement beyond the worst-case capacity num_eds * xi_lo.
    ("pi_min", 1e9, "params"),
    ("xi_lo", 0.0, "demand_response"),
    ("rho", 0.0, "admm"),
    ("varrho", -1.0, "admm"),
    ("num_classes", 0, "edge_learning"),
    ("dim", 0, "edge_learning"),
    ("train_per_class", 0, "edge_learning"),
    ("mean_scale", -1.0, "edge_learning"),
    ("noise_scale", -1.0, "edge_learning"),
    ("num_classes", 0, "federated"),
    ("dim", 0, "federated"),
    ("train_per_class", 0, "federated"),
    ("mean_scale", -1.0, "federated"),
    ("noise_scale", -1.0, "federated"),
    # Concentrated classes: repeated, outside [0, num_classes), more than
    # the EDs (the default two classes on one ED).
    ("concentrated_classes", [3, 3], "edge_learning"),
    ("concentrated_classes", [6, 10], "edge_learning"),
    ("concentrated_classes", [-1, 6], "federated"),
    ("num_eds", 1, "edge_learning"),
    ("num_eds", 1, "federated"),
    # Degenerate sizes: no state dimension or samples to solve on, an empty
    # test set; and a concentration share outside [0, 1].
    ("dim", 0, "admm"),
    ("samples_per_ed", 0, "admm"),
    ("test_per_class", 0, "edge_learning"),
    ("test_per_class", 0, "federated"),
    ("concentration", 1.5, "edge_learning"),
    ("concentration", -0.5, "federated"),
])
def test_cli_exit_code_1_names_the_bad_key(tmp_path, capsys, key, value, block):
    assert_exit_1_names_the_key(tmp_path, capsys, key, value, block)


def assert_exit_1_names_the_key(tmp_path, capsys, key, value, block):
    """`goalrba run` on the small config with `key` set to `value` exits 1.

    block: None for a top-level key, "channel", "params" (the small
    config's demand-response params) or a workload name, which switches the
    config to that workload with default params and sets the key there
    (at the top level if it is a config key).
    """
    raw = config_to_dict(small_config())
    if block in WORKLOADS:
        raw["workload"], raw["params"] = block, {}
        block = None if key in raw else "params"
    (raw[block] if block else raw)[key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "config error" in err and key in err
    assert "Traceback" not in err
    return err


# Every config dataclass with the block its keys go in.
CONFIG_BLOCKS = [(ScenarioConfig, None), (ChannelConfig, "channel")] + [
    (params_cls, workload) for workload, (params_cls, _) in WORKLOADS.items()]


def values_outside(f):
    """Values just outside each finite bound of a field's declared range.

    An open bound is itself outside; past a closed one lies the next int,
    or the next float. A float field also gets NaN and both infinities.
    """
    bounds = f.metadata["range"]
    integral = "int" in f.type
    values = []
    for bound, is_open, away in ((bounds.low, bounds.low_open, -math.inf),
                                 (bounds.high, bounds.high_open, math.inf)):
        if math.isinf(bound):
            continue
        if integral:
            values.append(int(bound) if is_open else int(bound) + (1 if away > 0 else -1))
        else:
            values.append(bound if is_open else float(np.nextafter(bound, away)))
    return values + ([] if integral else [math.nan, math.inf, -math.inf])


def out_of_range_cases():
    """(class, key, value, block) for every bad value of every ranged field.

    A tuple field gets each bad value in each position of its default.
    """
    for cls, block in CONFIG_BLOCKS:
        for f in dataclasses.fields(cls):
            if "range" not in f.metadata:
                continue
            for v in values_outside(f):
                if isinstance(f.default, tuple):
                    for i in range(len(f.default)):
                        value = f.default[:i] + (v,) + f.default[i + 1:]
                        yield pytest.param(cls, f.name, value, block,
                                           id=f"{cls.__name__}.{f.name}={value!r}")
                else:
                    yield pytest.param(cls, f.name, v, block, id=f"{cls.__name__}.{f.name}={v!r}")


@pytest.mark.parametrize("cls, key, value, block", out_of_range_cases())
def test_out_of_range_value_exits_1_naming_the_key(tmp_path, capsys, cls, key, value, block):
    err = assert_exit_1_names_the_key(tmp_path, capsys, key, value, block)
    assert f"{key} must be a number in" in err
    # direct construction raises too
    required = {"workload": "demand_response"} if cls is ScenarioConfig else {}
    with pytest.raises(ConfigError, match=key):
        cls(**required, **{key: value})


# Values of the wrong type for each annotation; any other annotation (a
# nested config block, the params mapping) gets a number.
WRONG_TYPES = {"int": [2.5, True], "float": [True, "x"], "str": [3, ["x"]], "bool": ["yes"]}
TUPLE_ANNOTATION = re.compile(r"Tuple\[(\w+), (\w+|\.\.\.)\]")


def values_of_the_wrong_type(f):
    """Wrong-typed values for a field, from its annotation and default.

    A tuple field gets each wrong entry in each position of its default and,
    where its length is fixed, one entry too many and one too few.
    """
    tuple_of = TUPLE_ANNOTATION.fullmatch(f.type)
    if tuple_of is None:
        return WRONG_TYPES.get(f.type.removeprefix("Optional[").removesuffix("]"), [3])
    default = f.default
    values = [default[:i] + (v,) + default[i + 1:]
              for v in WRONG_TYPES[tuple_of[1]] for i in range(len(default))]
    if tuple_of[2] != "...":
        values += [default + default[-1:], default[:-1]]
    return values


def wrong_type_cases():
    """(class, key, value, block) for every wrong-typed value of every field."""
    for cls, block in CONFIG_BLOCKS:
        for f in dataclasses.fields(cls):
            for v in values_of_the_wrong_type(f):
                yield pytest.param(cls, f.name, v, block, id=f"{cls.__name__}.{f.name}={v!r}")


@pytest.mark.parametrize("cls, key, value, block", wrong_type_cases())
def test_wrong_type_exits_1_naming_the_key(tmp_path, capsys, cls, key, value, block):
    assert_exit_1_names_the_key(tmp_path, capsys, key, value, block)
    required = {"workload": "demand_response"} if cls is ScenarioConfig else {}
    with pytest.raises(ConfigError, match=key):
        cls(**{**required, key: value})


def test_tuple_fields_get_wrong_entries_and_lengths():
    def cases(key):
        return [p.values[2] for p in wrong_type_cases() if p.values[1] == key]

    assert cases("cost_range") == [(True, 5.0), (0.0, True), ("x", 5.0), (0.0, "x"),
                                   (0.0, 5.0, 5.0), (0.0,)]
    assert cases("concentrated_classes")[:4] == [(2.5, 9), (6, 2.5), (True, 9), (6, True)]


def test_numpy_scalars_pass_the_field_check():
    assert ChannelConfig(capacity=np.int64(7)).capacity == 7
    params = DrParams(num_eds=np.int32(30), xi_lo=np.float64(1.5),
                      cost_range=(np.float32(0.5), 2))
    assert params.num_eds == 30 and params.cost_range == (0.5, 2)


@pytest.mark.parametrize("cls, kwargs, key", [
    (FederatedParams, {"lr": 5.0}, "lr"),
    (DrParams, {"cost_range": (5.0, 1.0)}, "cost_range"),
    (DrParams, {"xi_max_range": (30.0, 1.0)}, "xi_max_range"),
    (RoutingParams, {"tau_range": (10.0, 1.0)}, "tau_range"),
    (EdgeLearningParams, {"concentrated_classes": (3, 3)}, "concentrated_classes"),
    (EdgeLearningParams, {"concentrated_classes": (6, 10)}, "concentrated_classes"),
    (FederatedParams, {"num_eds": 1}, "concentrated_classes"),
])
def test_cross_field_rules_raise_config_error(cls, kwargs, key):
    with pytest.raises(ConfigError, match=key):
        cls(**kwargs)


NUMERIC_ANNOTATION = re.compile(r"(Optional\[)?(int|float)\]?|Tuple\[(int|float)[a-z, .]*\]")


def undeclared_ranges(classes):
    """`Class.field` for each numeric field without a `ranged` declaration."""
    return [f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls)
            if NUMERIC_ANNOTATION.fullmatch(f.type) and "range" not in f.metadata]


def test_the_scan_finds_an_undeclared_range():
    @dataclasses.dataclass
    class Probe:
        count: "int" = 1
        share: "Optional[float]" = None
        pair: "Tuple[float, float]" = (0.0, 1.0)
        name: "str" = ""
        flag: "bool" = False

    assert undeclared_ranges([Probe]) == ["Probe.count", "Probe.share", "Probe.pair"]


def test_every_numeric_config_field_declares_its_range():
    classes = [cls for cls, _ in CONFIG_BLOCKS]
    assert len(classes) == 7
    assert undeclared_ranges(classes) == []


def exit_code(argv):
    """`cli.main`'s exit code, also where argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("flag, value", [
    ("--rounds", "abc"),
    ("--rounds", "2.5"),
    ("--rounds", "0"),
    ("--seed", "x"),
    ("--seed", "-1"),
    ("--policy", "best"),
])
def test_cli_bad_flag_value_exits_1_naming_the_flag(tmp_path, capsys, flag, value):
    path = write_cfg(tmp_path)
    code = exit_code(["run", "--config", str(path), flag, value,
                      "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "config error" in err and flag.lstrip("-") in err
    assert not (tmp_path / "o.csv").exists()


def test_cli_help_exits_0(capsys):
    assert exit_code(["run", "--help"]) == 0
    assert "--rounds" in capsys.readouterr().out


def test_cli_exit_code_2_on_runtime_error(tmp_path):
    raw = yaml.safe_load((CONFIGS / "edge_learning.yaml").read_text())
    raw["rounds"] = 2
    raw["params"]["lr"] = 1e300  # validates, then SGD diverges
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    res = cli("run", "--config", str(path), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 2
    assert "runtime error" in res.stderr and "divergence" in res.stderr


def test_cli_exit_code_2_on_an_rb_demand_beyond_int64(tmp_path):
    raw = yaml.safe_load((CONFIGS / "demand_response.yaml").read_text())
    raw["rounds"] = 2
    raw["params"]["payload_bits"] = 1e300  # in range, but no int64 RB count covers it
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    res = cli("run", "--config", str(path), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 2
    assert "runtime error" in res.stderr and "r_min=1e+300 bits at" in res.stderr
    assert "bits per RB" in res.stderr and "-9223372036854775808" not in res.stderr


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


def test_preset_digests_imports_its_own_checkout(tmp_path):
    # No PYTHONPATH and a working directory outside the repo: the script
    # must still find this checkout's src/.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = CONFIGS.parent / "scripts" / "preset_digests.py"
    res = subprocess.run(
        [sys.executable, str(script), str(CONFIGS / "routing.yaml")],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert res.returncode == 0, res.stderr
    lines = [line.split() for line in res.stdout.splitlines()]
    assert [name for _, name, _ in lines] == [
        "channel.csv", "hybrid.csv", "summary.csv", "utility.csv"]
    assert all(config == "routing.yaml" and len(digest) == 64 for config, _, digest in lines)
