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

from goalrba import harness
from goalrba.cli import main
from goalrba.admm import AdmmParams
from goalrba.decision import DemandResponseWorkload, DrParams
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
    emit_metrics,
    load_config,
    run_compare,
    run_scenario,
)
from goalrba.learning import EdgeLearningParams, FederatedParams
from goalrba.verification import ADMM_RUNS, ADMM_TOLERANCE

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_raw(**overrides):
    """A small demand-response config as the plain dict a YAML file holds."""
    return {"workload": "demand_response", "rounds": 3, "seed": 5,
            "channel": {"capacity": 200}, "params": {"num_eds": 30, "pi_min": 20.0},
            **overrides}


def small_config(**overrides):
    return ScenarioConfig(**small_raw(**overrides))


def test_config_yaml_round_trip(tmp_path):
    raw = small_raw(policy="utility", utility_mode="expected", utility_samples=32)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert load_config(path) == ScenarioConfig(**raw)


def test_load_config_rejects_unknown_keys(tmp_path):
    raw = small_raw()
    raw["capactiy"] = 5
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match="capactiy"):
        load_config(path)


def test_load_config_rejects_unknown_nested_keys(tmp_path):
    raw = small_raw()
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


def test_unknown_param_field_rejected_at_load(tmp_path):
    raw = small_raw()
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
    assert CSV_HEADER == "round,policy,seed,throughput,utility_gain,goal_value,wall_ms"
    assert path.read_text() == (f"{CSV_HEADER}\n"
                                "0,hybrid,5,12,3.25,81.0625,0\n"
                                "1,hybrid,5,0,0.0,81.0625,0\n"
                                "2,hybrid,5,9,1e-17,0.30000000000000004,0\n")


def test_empty_metrics_emit_header_only(tmp_path):
    path = tmp_path / "m.csv"
    emit_metrics([], path)
    assert path.read_text() == CSV_HEADER + "\n"


class NumpyGoalDr(DemandResponseWorkload):
    """Demand response whose goal value is a numpy float, which a `-> float` allows."""

    def goal_value(self):
        return np.float64(super().goal_value())


def test_the_csvs_write_numpy_floats_as_plain_floats(tmp_path, monkeypatch):
    cfg = small_config()
    for name in ("plain", "numpy"):
        if name == "numpy":
            monkeypatch.setitem(WORKLOADS, "demand_response", (DrParams, NumpyGoalDr))
        rows = run_scenario(cfg)
        assert {type(m.goal_value) for m in rows} == {np.float64 if name == "numpy" else float}
        run_compare(cfg, tmp_path / name)
        emit_metrics(rows, tmp_path / name / "run.csv")
    for csv in ("run.csv", "summary.csv", *(f"{policy}.csv" for policy in POLICIES)):
        text = (tmp_path / "numpy" / csv).read_text()
        assert "np.float64" not in text
        assert text == (tmp_path / "plain" / csv).read_text()


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


@pytest.mark.parametrize("preset", sorted(p.stem for p in CONFIGS.glob("*.yaml")))
def test_presets_load_and_run(preset, tmp_path):
    cfg = dataclasses.replace(load_config(CONFIGS / f"{preset}.yaml"), rounds=2)
    assert cfg.workload == preset
    rows = run_scenario(cfg)
    assert [m.round_idx for m in rows] == [0, 1]
    assert all(np.isfinite(m.goal_value) for m in rows)
    # build_workload seeds as run_scenario does, so handing its workload
    # over writes the same bytes
    emit_metrics(rows, tmp_path / "built.csv")
    emit_metrics(run_scenario(cfg, workload=build_workload(cfg)), tmp_path / "handed.csv")
    assert (tmp_path / "built.csv").read_bytes() == (tmp_path / "handed.csv").read_bytes()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("preset, mode", [
    *((p.stem, "exact") for p in sorted(CONFIGS.glob("*.yaml"))),
    ("demand_response", "expected"),
])
def test_every_policy_hands_the_workload_an_ascending_selection_that_fits(
        monkeypatch, preset, mode, policy):
    cfg = dataclasses.replace(load_config(CONFIGS / f"{preset}.yaml"), rounds=3,
                              policy=policy, utility_mode=mode, utility_samples=16)
    allocations = []
    allocate = harness._allocate

    def recording(policy, gains, reports, capacity):
        allocation = allocate(policy, gains, reports, capacity)
        allocations.append((reports, allocation))
        return allocation

    monkeypatch.setattr(harness, "_allocate", recording)
    wl, ingested = build_workload(cfg), []
    ingest = wl.ingest

    def recording_ingest(selected):
        ingested.append(selected)
        ingest(selected)

    wl.ingest = recording_ingest
    rows = run_scenario(cfg, workload=wl)
    assert len(rows) == len(allocations) == len(ingested) == 3
    for (reports, allocation), selected in zip(allocations, ingested):
        assert selected is allocation.selected and selected.dtype == np.int64
        assert np.all(np.diff(selected) > 0)
        # every selected ED reported, and their RB demands fit the channel
        taken = np.isin(reports.ed_id, selected)
        assert taken.sum() == len(selected)
        assert allocation.capacity_used == reports.w[taken].sum() <= cfg.channel.capacity
    assert any(len(selected) for selected in ingested)


def test_expected_mode_runs_and_stays_deterministic():
    cfg = small_config(utility_mode="expected", utility_samples=16)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a == b


def test_run_compare_writes_three_csvs_and_a_summary(tmp_path):
    cfg = small_config()
    results = run_compare(cfg, tmp_path)
    assert set(results) == {"channel", "utility", "hybrid"}
    for policy, rows in results.items():
        assert [m.policy for m in rows] == [policy] * cfg.rounds
        emit_metrics(rows, tmp_path / "rows.csv")
        assert (tmp_path / f"{policy}.csv").read_text() == (tmp_path / "rows.csv").read_text()
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary == ["round,policy,utility_gain"] + [
        f"{k},{policy},{float(results[policy][k].utility_gain)!r}"
        for k in range(cfg.rounds) for policy in POLICIES]


def test_wall_time_flag_populates_the_column(tmp_path):
    timed, plain = tmp_path / "timed.csv", tmp_path / "plain.csv"
    emit_metrics(run_scenario(small_config(measure_wall_time=True, rounds=2)), timed)
    emit_metrics(run_scenario(small_config(rounds=2)), plain)
    timed_rows = [line.rsplit(",", 1) for line in timed.read_text().splitlines()]
    plain_rows = [line.rsplit(",", 1) for line in plain.read_text().splitlines()]
    assert [r[0] for r in timed_rows] == [r[0] for r in plain_rows]
    assert timed_rows[0][1] == plain_rows[0][1] == "wall_ms"
    assert all(re.fullmatch(r"\d+", r[1]) for r in timed_rows[1:])
    assert [r[1] for r in plain_rows[1:]] == ["0", "0"]


def test_infeasible_workload_fails_at_load(tmp_path):
    # a requirement beyond the worst-case capacity is a config error, read
    # from YAML and built in Python alike
    from goalrba.decision import InfeasibleDrError

    params = {"num_eds": 5, "pi_min": 1e9}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"workload": "demand_response", "rounds": 1, "seed": 0,
                                    "channel": {"capacity": 100}, "params": params}))
    match = "pi_min 1e\\+09 exceeds the worst-case capacity"
    with pytest.raises(ConfigError, match=match):
        load_config(path)
    with pytest.raises(ConfigError, match=match):
        ScenarioConfig(workload="demand_response", params=params)
    with pytest.raises(InfeasibleDrError):
        DrParams(num_eds=5, pi_min=1e9)


@pytest.mark.parametrize("params, key", [
    ({"bogus": 1, "num_eds": -3}, "bogus"),
    ({"num_eds": -3}, "num_eds"),
    ({"sparsity": "x"}, "sparsity"),
])
def test_a_config_built_in_python_checks_its_params_block(params, key):
    with pytest.raises(ConfigError, match=key):
        ScenarioConfig(workload="admm", params=params)
    # replace builds a new config and checks its block too
    with pytest.raises(ConfigError, match=key):
        dataclasses.replace(ScenarioConfig(workload="admm"), params=params)


def test_a_config_params_block_stays_as_checked():
    params = {"num_eds": 30, "pi_min": 20.0}
    cfg = ScenarioConfig(workload="demand_response", params=params)
    assert cfg.params == DrParams(num_eds=30, pi_min=20.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.params.num_eds = -3
    # the config holds its own object, not the caller's dict
    params["num_eds"] = -3
    assert cfg.params.num_eds == 30
    assert build_workload(cfg).num_eds == 30
    # replace takes a plain mapping and builds it anew
    assert dataclasses.replace(cfg, params={"num_eds": 40}).params == DrParams(num_eds=40)


def test_a_loaded_config_holds_each_block_as_its_dataclass():
    for preset in sorted(CONFIGS.glob("*.yaml")):
        cfg = load_config(preset)
        assert type(cfg.params) is WORKLOADS[cfg.workload][0]
        assert type(cfg.channel) is ChannelConfig


def test_the_workload_and_replace_share_the_built_params():
    cfg = load_config(CONFIGS / "demand_response.yaml")
    assert build_workload(cfg).params is cfg.params
    moved = dataclasses.replace(cfg, seed=4)
    assert moved.params is cfg.params and moved.channel is cfg.channel


def test_a_config_built_in_python_takes_a_block_as_a_mapping_or_none():
    cfg = ScenarioConfig(workload="demand_response", channel={"capacity": 3})
    assert cfg.channel == ChannelConfig(capacity=3)
    assert cfg.params == DrParams()
    assert (ScenarioConfig(workload="demand_response", channel=None)
            == ScenarioConfig(workload="demand_response"))


def test_another_workloads_params_name_the_params_block():
    with pytest.raises(ConfigError, match="^params block must be a mapping, got AdmmParams"):
        ScenarioConfig(workload="demand_response", params=AdmmParams())
    with pytest.raises(ConfigError, match="^channel block must be a mapping, got DrParams"):
        ScenarioConfig(workload="demand_response", channel=DrParams())


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
    # capacities shorter than the market make ingest's write of the
    # revealed loads fail
    cfg = small_config(rounds=3)
    wl = build_workload(cfg, seed=np.random.SeedSequence(cfg.seed))
    wl.xi_lo = wl.xi_lo[:1]
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
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(small_raw(**overrides)))
    return path


def assert_emits(path, config):
    """The file at `path` is the metrics CSV of one run of `config`."""
    expected = path.with_name("expected.csv")
    emit_metrics(run_scenario(config), expected)
    assert path.read_text() == expected.read_text()


def test_cli_run_roundtrip(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "run.csv"
    res = cli("run", "--config", str(path), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert_emits(out, small_config())


def test_cli_run_overrides(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "run.csv"
    res = cli("run", "--config", str(path), "--set", "seed=9", "--set", "policy=channel",
              "--set", "rounds=2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert_emits(out, small_config(seed=9, policy="channel", rounds=2))


def test_cli_compare_takes_overrides(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert main(["compare", "--config", str(path), "--set", "rounds=2",
                 "--out", str(tmp_path / "cmp")]) == 0, capsys.readouterr().err
    for policy in POLICIES:
        assert_emits(tmp_path / "cmp" / f"{policy}.csv", small_config(rounds=2, policy=policy))


def test_cli_claims_takes_overrides(capsys):
    # one round never reaches the ADMM target, so each claim is rounds + 1
    assert main(["claims", "--config", str(CONFIGS / "admm.yaml"),
                 "--set", "rounds=1", "--set", "seed=4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "admm seed 4: channel 2, utility 2, hybrid 2"


@pytest.mark.parametrize("preset, text, value", [
    ("edge_learning", "params.lr=1e-3", 0.001),
    ("demand_response", "params.num_eds=15000", 15000),
    ("demand_response", "rounds=25", 25),
    ("demand_response", "utility_mode=expected", "expected"),
    ("demand_response", "params.cost_range=[0.0, 5.0]", (0.0, 5.0)),  # a tuple field
    ("demand_response", "params.pi_min=null", None),
])
def test_an_override_reads_its_value_as_a_config_does(preset, text, value):
    config = load_config(CONFIGS / f"{preset}.yaml", [text])
    key = text.partition("=")[0]
    block, _, name = key.rpartition(".")
    loaded = getattr(getattr(config, block) if block else config, name)
    assert loaded == value and type(loaded) is type(value)


@pytest.mark.parametrize("text", ["rounds", "=3", "params..lr=1", "params.=1", "rounds=[1"])
def test_a_malformed_override_is_a_config_error(text):
    with pytest.raises(ConfigError, match=re.escape(repr(text))):
        load_config(CONFIGS / "demand_response.yaml", [text])


@pytest.mark.parametrize("make, message", [
    (lambda path: None, "config file not found: {}"),
    (Path.mkdir, "cannot read config file {}: [Errno 21] Is a directory"),
    (lambda path: path.write_bytes(b"workload: demand_response\n# \xff\n"),
     "cannot read config file {}: 'utf-8' codec can't decode byte 0xff"),
], ids=["missing", "directory", "undecodable"])
def test_a_config_that_cannot_be_read_as_text_exits_1_naming_it(tmp_path, capsys, make, message):
    path = tmp_path / "cfg.yaml"
    make(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err.startswith("config error: " + message.format(path))


def test_cli_exit_code_1_on_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("workload: nonsense\n")
    res = cli("run", "--config", str(path), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 1
    assert "config error" in res.stderr


@pytest.mark.parametrize("command, source", [
    ("run", "file"), ("compare", "file"), ("run", "override"), ("compare", "override"),
    ("claims", "override"),
])
def test_a_config_naming_the_removed_routing_workload_exits_1(tmp_path, capsys, command,
                                                               source):
    if source == "file":
        path, sets = tmp_path / "routing.yaml", []
        path.write_text("workload: routing\n")
    else:
        path, sets = CONFIGS / "demand_response.yaml", ["--set", "workload=routing"]
    argv = [command, "--config", str(path), *sets]
    code = main(argv if command == "claims" else [*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert ("config error: unknown workload 'routing'; expected one of "
            "['admm', 'demand_response', 'edge_learning', 'federated']") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, line", [
    ("workload: edge_learning\nparams: {lr: -1.0}\n",
     "config error: lr must be a number in (0, inf), got -1.0"),
    ("workload: edge_learning\npolicy: bogus\n",
     "config error: unknown policy 'bogus'; expected one of ('channel', 'utility', 'hybrid')"),
    # an error that is not a ConfigError gets its block's name, once
    ("workload: demand_response\nparams: {num_eds: 5, pi_min: 1000000000.0}\n",
     "config error: invalid demand_response block: pi_min 1e+09 exceeds the worst-case "
     "capacity num_eds * xi_lo = 5; the base scenario is infeasible"),
])
def test_a_config_error_is_reported_with_one_prefix(tmp_path, capsys, text, line):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("text", [
    pytest.param("workload: demand_response\nparams: {num_eds: [1, 2}\n", id="mismatched"),
    pytest.param("workload: demand_response\n  rounds: 3\n", id="indented"),
    pytest.param("workload: [\n", id="unclosed"),
])
def test_cli_exit_code_1_on_malformed_yaml(tmp_path, capsys, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    code = exit_code(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"config error: invalid YAML in {path}" in err


YAML_SNIPPETS = [
    "x: 1e4",  # no dot: YAML 1.1 reads a string, goalrba's loader a float
    "x: 1.0e4",
    "x: [.inf, -.inf, .nan]",
    "x: null",
    "x: ~",
    "x: [[1, 2.5], [[], {}], [yes, no, off]]",
    "x: [0.0, -0.0]",
    "a: {b: {c: [1, -2, 0x10, 010]}}\nd: '1'\ne: 2026-10-19",
    "- 1\n- [2, 3]\n- {k: v}",
]


def as_loaded(loader, text):
    """repr of the loaded object: it tells 0.0 from -0.0 and 1 from 1.0."""
    return repr(yaml.load(text, Loader=loader))


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("text", [
    *(pytest.param(text, id=f"snippet{i}") for i, text in enumerate(YAML_SNIPPETS)),
    *(pytest.param(path.read_text(), id=path.name) for path in sorted(CONFIGS.glob("*.yaml"))),
])
def test_libyaml_loads_the_objects_safe_loader_does(text):
    assert issubclass(harness._YAML_LOADER, yaml.CSafeLoader)
    assert as_loaded(yaml.CSafeLoader, text) == as_loaded(yaml.SafeLoader, text)
    assert (as_loaded(harness._YAML_LOADER, text)
            == as_loaded(harness._exponent_floats(yaml.SafeLoader), text))


LOADER_BASES = [
    pytest.param(yaml.SafeLoader, id="SafeLoader"),
    pytest.param(getattr(yaml, "CSafeLoader", None), id="CSafeLoader",
                 marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                          reason="PyYAML built without libyaml")),
]


@pytest.mark.parametrize("base", LOADER_BASES)
@pytest.mark.parametrize("text, value", [
    ("1e-3", 1e-3), ("1.0e308", 1e308), ("-2e-1", -0.2), ("1E5", 1e5), ("+1_0e2", 1e3),
])
def test_an_unsigned_or_dotless_exponent_reads_as_a_float(base, text, value):
    assert yaml.load(f"x: {text}", Loader=base)["x"] == text  # YAML 1.1: a string
    loaded = yaml.load(f"x: {text}", Loader=harness._exponent_floats(base))["x"]
    assert type(loaded) is float and loaded == value


@pytest.mark.parametrize("base", LOADER_BASES)
@pytest.mark.parametrize("text", [
    ".inf", "-.inf", "1.5", "3", "1.0e-07", "0x1e3", "1e", "e5", "'1e3'", "1e3x", "2026-10-19",
])
def test_the_exponent_resolver_leaves_every_other_scalar_as_it_was(base, text):
    snippet = f"x: {text}"
    assert as_loaded(harness._exponent_floats(base), snippet) == as_loaded(base, snippet)


def test_a_config_reads_an_unsigned_exponent_as_a_float(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("workload: edge_learning\nparams:\n  lr: 1e-3\n")
    assert load_config(path).params.lr == 0.001


@pytest.mark.parametrize("text, key, line", [
    ("workload: demand_response\nrounds: 2\nrounds: 3\n", "rounds", 3),
    ("workload: demand_response\nchannel:\n  capacity: 5\n  capacity: 6\n", "capacity", 4),
    ("workload: demand_response\nparams:\n  num_eds: 5\n  pi_min: 1.0\n  num_eds: 6\n",
     "num_eds", 5),
], ids=["top", "channel", "params"])
def test_a_key_written_twice_exits_1_naming_it(tmp_path, capsys, text, key, line):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: duplicate key {key!r} on line {line}\n"
    assert not out.exists()


def test_an_override_value_with_a_key_written_twice_is_a_config_error():
    with pytest.raises(ConfigError, match="^duplicate key 'num_eds' on line 1$"):
        load_config(CONFIGS / "demand_response.yaml", ["params={num_eds: 5, num_eds: 6}"])


@pytest.mark.parametrize("base", LOADER_BASES)
def test_a_key_may_override_a_merge_but_not_itself(base):
    loader = harness._exponent_floats(base)
    merged = "a: &a {x: 1, y: 2}\nb:\n  <<: *a\n  x: 3\n"
    assert yaml.load(merged, Loader=loader) == {"a": {"x": 1, "y": 2}, "b": {"x": 3, "y": 2}}
    with pytest.raises(ConfigError, match="^duplicate key 'x' on line 5$"):
        yaml.load(merged + "  x: 4\n", Loader=loader)


def test_the_readme_payload_example_exits_2_naming_r_min(tmp_path, capsys):
    # the value as the README writes it, not as yaml.safe_dump would
    path = tmp_path / "cfg.yaml"
    path.write_text("workload: demand_response\nrounds: 2\nparams:\n  payload_bits: 1e300\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: round 0 of demand_response failed: "
                          "RB demand of r_min=1e+300 bits at ")
    assert "beyond an int64 count" in err


# a key of each block of a demand-response config, for a dotted override into it
BLOCK_KEYS = {"channel": "capacity", "params": "num_eds"}


@pytest.mark.parametrize("block", ["channel", "params"])
@pytest.mark.parametrize("value", ["[]", "0", "false", "''", "[1]", "text"])
@pytest.mark.parametrize("override", [False, True], ids=["plain", "override"])
def test_a_block_that_is_not_a_mapping_exits_1_naming_it(tmp_path, capsys, block, value,
                                                        override):
    path = tmp_path / "cfg.yaml"
    path.write_text(f"workload: demand_response\n{block}: {value}\n")
    sets = [f"{block}.{BLOCK_KEYS[block]}=5"] if override else []
    with pytest.raises(ConfigError, match=f"^{block} block must be a mapping, got "):
        load_config(path, sets)
    argv = ["run", "--config", str(path), *(a for s in sets for a in ("--set", s))]
    assert main([*argv, "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {block} block must be a mapping")


@pytest.mark.parametrize("block, value", [("params", "0"), ("channel", "[1]")])
def test_preset_digests_rejects_an_override_into_a_block_that_is_not_a_mapping(
        tmp_path, block, value):
    path = tmp_path / "cfg.yaml"
    path.write_text(f"workload: demand_response\n{block}: {value}\n")
    script = CONFIGS.parent / "scripts" / "preset_digests.py"
    res = subprocess.run(
        [sys.executable, str(script), str(path), "--set", f"{block}.{BLOCK_KEYS[block]}=5"],
        capture_output=True, text=True,
    )
    assert res.returncode != 0 and res.stdout == ""
    assert f"config error: {block} block must be a mapping, got {value}" in res.stderr


@pytest.mark.parametrize("block", ["channel", "params"])
@pytest.mark.parametrize("line", [None, "{}:", "{}: null", "{}: ~", "{}: {{}}"],
                         ids=["missing", "empty", "null", "tilde", "mapping"])
@pytest.mark.parametrize("override", [False, True], ids=["defaults", "override"])
def test_a_missing_or_null_block_means_its_defaults(tmp_path, block, line, override):
    path = tmp_path / "cfg.yaml"
    path.write_text("workload: demand_response\n"
                    + ("" if line is None else line.format(block) + "\n"))
    # an override into the block gives the block with that one key
    values = {BLOCK_KEYS[block]: 5} if override else {}
    config = load_config(path, [f"{block}.{key}={v}" for key, v in values.items()])
    assert config.channel == ChannelConfig(**(values if block == "channel" else {}))
    assert config.params == DrParams(**(values if block == "params" else {}))


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
    ("payload_bits", -1.0, "demand_response"),
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
    ("xi_max_range", [1.0], "params"),
    ("xi_max_range", ["a", 1.0], "params"),
    # hi - lo is -0.0, which Generator.uniform rejects though 0.0 <= -0.0
    ("xi_max_range", [0.0, -0.0], "params"),
    ("cost_range", [0.0, -0.0], "params"),
    ("xi_lo", -1.0, "params"),
    ("pi_min", -5.0, "params"),
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
    raw = small_raw()
    if block in WORKLOADS:
        raw["workload"], raw["params"] = block, {}
        block = None if key in {f.name for f in dataclasses.fields(ScenarioConfig)} else "params"
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
    (DrParams, {"xi_max_range": (0.0, -0.0)}, "xi_max_range"),
    (DrParams, {"cost_range": (0.0, -0.0)}, "cost_range"),
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
    assert len(classes) == 6
    assert undeclared_ranges(classes) == []


def test_a_config_is_frozen_so_its_field_check_holds_for_its_life():
    cfg = ScenarioConfig(workload="demand_response")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.rounds = 2.5
    for cls, _ in CONFIG_BLOCKS:
        config = cls(**({"workload": "demand_response"} if cls is ScenarioConfig else {}))
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, getattr(config, name))
    # replace builds a new config and checks it
    with pytest.raises(ConfigError, match="rounds"):
        dataclasses.replace(cfg, rounds=2.5)


def exit_code(argv):
    """`cli.main`'s exit code, also where argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("override", [
    "rounds=abc", "rounds=2.5", "rounds=0", "seed=x", "seed=-1", "policy=best",
])
def test_cli_bad_override_exits_1_naming_the_key(tmp_path, capsys, override):
    path = write_cfg(tmp_path)
    code = exit_code(["run", "--config", str(path), "--set", override,
                      "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "config error" in err and override.partition("=")[0] in err
    assert not (tmp_path / "o.csv").exists()


def test_cli_help_exits_0(capsys):
    assert exit_code(["run", "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--config" in usage and "--set" in usage and "--out" in usage
    assert not any(flag in usage for flag in ("--seed", "--policy", "--rounds"))


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_exit_code_1_on_a_federated_client_without_samples(tmp_path, capsys, command):
    # the config validates, but 6 training samples cannot reach 10 clients;
    # building the workload fails, before any round
    raw = small_raw()
    raw["workload"] = "federated"
    raw["params"] = {"num_eds": 10, "num_classes": 2, "train_per_class": 3,
                     "concentrated_classes": []}
    path = tmp_path / "empty.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "config error" in err and re.search(r"num_eds = 10 leaves client \d+ ", err)


@pytest.mark.parametrize("command", ["run", "compare", "claims"])
@pytest.mark.parametrize("overrides", [
    ["params.sparsity=1"],
    ["params.dim=1", "params.sparsity=0.9"],
], ids=["sparsity_1", "dim_1"])
def test_cli_exit_code_1_on_an_all_zero_admm_true_matrix(tmp_path, capsys, command, overrides):
    # the config validates, but the drawn true matrix has no nonzero entry,
    # so no relative gap can be taken; building the workload fails
    argv = [command, "--config", str(CONFIGS / "admm.yaml"), "--set", "rounds=3"]
    argv += [arg for override in overrides for arg in ("--set", override)]
    if command != "claims":
        argv += ["--out", str(tmp_path / "out")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("config error: sparsity = ") and "dim = " in err
    assert "no nonzero entry" in err


def test_cli_exit_code_2_on_runtime_error(tmp_path):
    raw = yaml.safe_load((CONFIGS / "edge_learning.yaml").read_text())
    raw["rounds"] = 2
    raw["params"]["lr"] = 1e300  # validates, then SGD diverges
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    res = cli("run", "--config", str(path), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 2
    assert "runtime error" in res.stderr and "divergence" in res.stderr


@pytest.mark.parametrize("preset, overrides", [
    ("federated", ["params.lr=1e300", "params.kappa=1e-305"]),
    ("edge_learning", ["params.lr=1e300", "rounds=2"]),
], ids=["federated", "edge_learning"])
def test_a_diverged_run_reports_itself_in_one_line(tmp_path, preset, overrides):
    # the overflows on the way to the NaN loss print no numpy warning
    sets = [arg for override in overrides for arg in ("--set", override)]
    res = cli("run", "--config", str(CONFIGS / f"{preset}.yaml"), *sets,
              "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 2
    assert res.stderr == (f"runtime error: round 0 of {preset} failed: "
                          "divergence: training loss is nan\n")


def test_a_config_naming_gain_normalization_exits_1_naming_it(tmp_path, capsys):
    # summary.csv has one gain column; no key scales it
    path = write_cfg(tmp_path, gain_normalization="raw")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err == (
        "config error: unknown key 'gain_normalization' in config block\n")


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
    # the ADMM certificate is checked at the tolerance acceptance-8ab quotes
    admm = [line for line in res.stdout.splitlines() if "admm_certificate" in line]
    assert admm == [f"[PASS] admm_certificate: certificate, dual bound, and monotone descent "
                    f"over {ADMM_RUNS} runs at tolerance {ADMM_TOLERANCE:g}"]


def test_cli_run_creates_the_directory_of_its_out(tmp_path):
    path = write_cfg(tmp_path, rounds=2)
    out = tmp_path / "new" / "dir" / "out.csv"
    res = cli("run", "--config", str(path), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert_emits(out, small_config(rounds=2))


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
        [sys.executable, str(script), str(CONFIGS / "demand_response.yaml"), "--set", "rounds=2"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert res.returncode == 0, res.stderr
    lines = [line.split() for line in res.stdout.splitlines()]
    assert [name for _, name, _ in lines] == [
        "channel.csv", "hybrid.csv", "summary.csv", "utility.csv"]
    assert all(config == "demand_response.yaml" and len(digest) == 64
               for config, _, digest in lines)
