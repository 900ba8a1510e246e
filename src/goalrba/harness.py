"""Scenario orchestration: config, seeding, the round loop, CSV metrics.

A scenario is (workload kind, policy, rounds, seed). Every round samples
fresh channel gains, collects utility reports, allocates RBs under the chosen
policy, ingests the selected EDs' data, and records one metrics row. The
whole pipeline is deterministic given (config, seed).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
import yaml

from .admm import AdmmParams, AdmmWorkload
from .allocator import channel_policy, greedy_allocate, utility_policy
from .channel import DEFAULT_INTERVAL_RB_CAPACITY, RbParams, sample_gains
from .decision import (
    DemandResponseWorkload,
    DrParams,
    RoutingParams,
    RoutingWorkload,
)
from .learning import (
    EdgeLearningParams,
    EdgeLearningWorkload,
    FederatedParams,
    FederatedWorkload,
)
from .workload import Workload, collect_reports

CSV_HEADER = "round,policy,seed,throughput,utility_gain,goal_value,wall_ms"

WORKLOADS = {
    "demand_response": (DrParams, DemandResponseWorkload),
    "routing": (RoutingParams, RoutingWorkload),
    "edge_learning": (EdgeLearningParams, EdgeLearningWorkload),
    "federated": (FederatedParams, FederatedWorkload),
    "admm": (AdmmParams, AdmmWorkload),
}

POLICIES = ("channel", "utility", "hybrid")


class ConfigError(ValueError):
    """Malformed scenario configuration."""


@dataclass
class ChannelConfig:
    """RB grid and budget for the scheduling interval."""

    rb_time_s: float = 0.5e-3
    rb_bandwidth_hz: float = 180e3
    noise_power_w: float = 1.0
    tx_power_w: float = 1.0
    capacity: int = DEFAULT_INTERVAL_RB_CAPACITY

    def __post_init__(self):
        if self.capacity < 0:
            raise ConfigError(f"capacity must be non-negative, got {self.capacity}")
        for key in ("rb_time_s", "rb_bandwidth_hz", "noise_power_w", "tx_power_w"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")

    def rb_params(self) -> RbParams:
        return RbParams(t=self.rb_time_s, B=self.rb_bandwidth_hz,
                        noise_power=self.noise_power_w)


@dataclass
class ScenarioConfig:
    """One runnable scenario; `params` feeds the workload's parameter block."""

    workload: str
    policy: str = "hybrid"
    rounds: int = 1
    seed: int = 0
    utility_mode: str = "exact"
    utility_samples: int = 256
    gain_normalization: str = "raw"
    measure_wall_time: bool = False
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    params: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"unknown workload {self.workload!r}; expected one of {sorted(WORKLOADS)}"
            )
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; expected one of {POLICIES}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be at least 1, got {self.rounds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.utility_mode not in ("exact", "expected"):
            raise ConfigError(f"unknown utility mode {self.utility_mode!r}")
        if self.utility_samples < 1:
            raise ConfigError("utility_samples must be at least 1")
        if self.gain_normalization not in ("raw", "per_round_max"):
            raise ConfigError(
                f"unknown gain normalization {self.gain_normalization!r}"
            )


@dataclass
class RoundMetrics:
    """One metrics row per scheduling round."""

    round_idx: int
    policy: str
    seed: int
    throughput: int
    utility_gain: float
    goal_value: float
    wall_ms: int = 0


# YAML scalars accepted for each scalar field annotation; an int is a valid
# float, a bool is not a number.
_SCALAR_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _check_scalar(f, value, context: str) -> None:
    annotation = f.type
    if annotation.startswith("Optional["):
        if value is None:
            return
        annotation = annotation[len("Optional["):-1]
    expected = _SCALAR_TYPES.get(annotation)
    if expected is None:
        return
    if not isinstance(value, expected) or (isinstance(value, bool) and bool not in expected):
        raise ConfigError(
            f"key {f.name!r} in {context} block must be {annotation}, got {value!r}"
        )


def _strict_dataclass(cls, raw: Dict, context: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} block must be a mapping")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {context} block")
    coerced = {}
    for key, value in raw.items():
        _check_scalar(known[key], value, context)
        default = known[key].default
        if isinstance(default, tuple) and isinstance(value, list):
            value = tuple(value)
        coerced[key] = value
    try:
        return cls(**coerced)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context} block: {exc}") from exc


def build_workload(config: ScenarioConfig, seed=None) -> Workload:
    """Instantiate the configured workload from its parameter block."""
    params_cls, workload_cls = WORKLOADS[config.workload]
    params = _strict_dataclass(params_cls, config.params, config.workload)
    return workload_cls(params, config.seed if seed is None else seed)


def load_config(path) -> ScenarioConfig:
    """Parse a YAML scenario config; unknown keys are rejected by name."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    if "workload" not in raw:
        raise ConfigError("config is missing the required 'workload' key")
    kwargs = dict(raw)
    kwargs["channel"] = _strict_dataclass(ChannelConfig, raw.get("channel", {}), "channel")
    kwargs["params"] = raw.get("params", {}) or {}
    if not isinstance(kwargs["params"], dict):
        raise ConfigError("params block must be a mapping")
    config = _strict_dataclass(ScenarioConfig, kwargs, "config")
    # Validate the workload parameter block eagerly so bad keys fail at load.
    params_cls, _ = WORKLOADS[config.workload]
    _strict_dataclass(params_cls, config.params, config.workload)
    return config


def config_to_dict(config: ScenarioConfig) -> Dict:
    out = dataclasses.asdict(config)
    out["params"] = dict(config.params)
    return out


def save_config(config: ScenarioConfig, path) -> None:
    """Serialize a config so load_config round-trips it."""
    Path(path).write_text(yaml.safe_dump(config_to_dict(config), sort_keys=False))


def _allocate(policy: str, gains, reports, capacity: int):
    if policy == "hybrid":
        return greedy_allocate(reports, capacity)
    if policy == "channel":
        return channel_policy(gains, reports, capacity)
    return utility_policy(reports, capacity)


def run_scenario(
    config: ScenarioConfig,
    *,
    workload: Optional[Workload] = None,
    round_hook: Optional[Callable[[int, Workload], object]] = None,
) -> List[RoundMetrics]:
    """Run the per-round loop and return one metrics row per round.

    round_hook, when given, is called after each round's ingest with
    (round_idx, workload); it exists for per-round probes such as test
    accuracy and does not affect the metrics. A truthy return value ends
    the run after that round, and the rows so far are returned.
    """
    seq = np.random.SeedSequence(config.seed)
    workload_seed, gains_seed, mc_seed = seq.spawn(3)
    if workload is None:
        workload = build_workload(config, seed=workload_seed)
    gains_rng = np.random.default_rng(gains_seed)
    mc_rng = np.random.default_rng(mc_seed)
    rb = config.channel.rb_params()
    capacity = config.channel.capacity
    metrics: List[RoundMetrics] = []
    for k in range(config.rounds):
        started = time.perf_counter()
        workload.begin_round(k)
        gains = sample_gains(gains_rng, workload.num_eds)
        try:
            reports = collect_reports(
                workload,
                gains,
                rb,
                tx_power=config.channel.tx_power_w,
                mode=config.utility_mode,
                num_samples=config.utility_samples,
                seed=mc_rng,
            )
            allocation = _allocate(config.policy, gains, reports, capacity)
            goal_before = workload.goal_value()
            selected = sorted(allocation.selected)
            throughput = workload.throughput(selected)
            workload.ingest(selected)
            goal_after = workload.goal_value()
        except Exception as exc:
            raise RuntimeError(f"round {k} of {config.workload} failed: {exc}") from exc
        wall_ms = (
            int(round((time.perf_counter() - started) * 1000))
            if config.measure_wall_time
            else 0
        )
        metrics.append(
            RoundMetrics(
                round_idx=k,
                policy=config.policy,
                seed=config.seed,
                throughput=throughput,
                utility_gain=goal_before - goal_after,
                goal_value=goal_after,
                wall_ms=wall_ms,
            )
        )
        if round_hook is not None and round_hook(k, workload):
            break
    return metrics


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


def emit_metrics(metrics: Sequence[RoundMetrics], path) -> None:
    """Write the canonical metrics CSV: fixed header, one row per round."""
    lines = [CSV_HEADER]
    for m in metrics:
        lines.append(
            f"{m.round_idx},{m.policy},{m.seed},{m.throughput},"
            f"{m.utility_gain!r},{m.goal_value!r},{m.wall_ms}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def parse_metrics(path) -> List[RoundMetrics]:
    """Read back a metrics CSV emitted by emit_metrics."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected metrics header in {path}")
    out = []
    for line in lines[1:]:
        r, policy, seed, tput, gain, goal, wall = line.split(",")
        out.append(
            RoundMetrics(
                round_idx=int(r),
                policy=policy,
                seed=int(seed),
                throughput=int(tput),
                utility_gain=float(gain),
                goal_value=float(goal),
                wall_ms=int(wall),
            )
        )
    return out


def run_compare(config: ScenarioConfig, out_dir) -> Dict[str, List[RoundMetrics]]:
    """Run all three policies on shared seeds; emit one CSV per policy.

    Also writes summary.csv with per-round utility gains; when the config
    asks for per_round_max normalization, a relative_gain column scales each
    round by the best policy's gain that round.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results: Dict[str, List[RoundMetrics]] = {}
    for policy in POLICIES:
        run_cfg = dataclasses.replace(config, policy=policy)
        results[policy] = run_scenario(run_cfg)
        emit_metrics(results[policy], out_dir / f"{policy}.csv")
    lines = ["round,policy,utility_gain,relative_gain"]
    for k in range(config.rounds):
        round_max = max(results[p][k].utility_gain for p in POLICIES)
        for policy in POLICIES:
            gain = results[policy][k].utility_gain
            if config.gain_normalization == "per_round_max":
                rel = gain / round_max if round_max > 0 else 0.0
            else:
                rel = gain
            lines.append(f"{k},{policy},{gain!r},{rel!r}")
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")
    return results
