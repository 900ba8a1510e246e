"""Scenario orchestration: config, seeding, the round loop, CSV metrics.

A scenario is (workload kind, policy, rounds, seed). Every round samples
fresh channel gains, collects utility reports, allocates RBs under the chosen
policy, ingests the selected EDs' data, and records one metrics row. The
whole pipeline is deterministic given (config, seed).

A config's `channel` and `params` blocks become their frozen dataclasses in
one place, `ScenarioConfig.__post_init__`; the workload is built from that
same `*Params` object. Metrics go one way, out to CSV.
"""

from __future__ import annotations

import dataclasses
import re
import time
from collections.abc import Hashable
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
import yaml

from .admm import AdmmParams, AdmmWorkload
from .allocator import channel_policy, greedy_allocate, utility_policy
from .channel import DEFAULT_INTERVAL_RB_CAPACITY, sample_gains
from .decision import DemandResponseWorkload, DrParams, RoutingParams, RoutingWorkload
from .learning import (EdgeLearningParams, EdgeLearningWorkload, FederatedParams,
                       FederatedWorkload)
from .workload import ConfigError, Workload, check_fields, collect_reports, ranged

CSV_HEADER = "round,policy,seed,throughput,utility_gain,goal_value,wall_ms"

WORKLOADS = {
    "demand_response": (DrParams, DemandResponseWorkload),
    "routing": (RoutingParams, RoutingWorkload),
    "edge_learning": (EdgeLearningParams, EdgeLearningWorkload),
    "federated": (FederatedParams, FederatedWorkload),
    "admm": (AdmmParams, AdmmWorkload),
}

POLICIES = ("channel", "utility", "hybrid")


def _exponent_floats(base):
    """`base` with one more float resolver, and with no key written twice.

    PyYAML follows YAML 1.1, whose float has a dot and a sign on any
    exponent, so `1e-3`, `1E5` and `1.0e308` would load as strings and fail
    the field check. The subclass reads them as floats too; every other
    scalar resolves as it does in `base`. Where PyYAML keeps the later value
    of a key written twice in one mapping, the subclass raises ConfigError
    naming the key and its line; a key may still override a `<<` merge's.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if isinstance(key, Hashable):  # base rejects any other key
                if key in seen:
                    raise ConfigError(
                        f"duplicate key {key!r} on line {key_node.start_mark.line + 1}")
                seen.add(key)
        return base.construct_mapping(self, node, deep)

    loader = type(f"Goalrba{base.__name__}", (base,), {"construct_mapping": construct_mapping})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?[0-9][0-9_]*(\.[0-9_]*)?[eE][-+]?[0-9]+$"),
        list("-+0123456789"),
    )
    return loader


# libyaml's parser where PyYAML was built with it: the same constructor and
# resolver as SafeLoader, so the same objects, parsed about 8x faster.
_YAML_LOADER = _exponent_floats(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


class RoundError(RuntimeError):
    """A round of a scenario failed; the original exception is its cause."""

    def __init__(self, round_idx: int, workload: str, cause: BaseException):
        super().__init__(f"round {round_idx} of {workload} failed: {cause}")
        self.round_idx = round_idx
        self.workload = workload


@dataclass(frozen=True)
class ChannelConfig:
    """RB grid, transmit power and RB budget of the scheduling interval.

    channel.rb_bits reads the rate model's parameters from it: the RB
    duration, bandwidth, noise power B*sigma^2 and transmit power.
    """

    rb_time_s: float = ranged(0.5e-3, "(0, inf)")
    rb_bandwidth_hz: float = ranged(180e3, "(0, inf)")
    noise_power_w: float = ranged(1.0, "(0, inf)")
    tx_power_w: float = ranged(1.0, "(0, inf)")
    capacity: int = ranged(DEFAULT_INTERVAL_RB_CAPACITY, "[0, inf)")

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ScenarioConfig:
    """One runnable scenario, each block held as its frozen dataclass.

    `channel` and `params` may each be given as a mapping, checked key by
    key, or as None, which means the defaults. `channel` becomes a
    ChannelConfig and `params` the workload's `*Params`, which the workload
    is built from. A block that already is that dataclass is kept as it is,
    as `dataclasses.replace` hands it on.
    """

    workload: str
    policy: str = "hybrid"
    rounds: int = ranged(1, "[1, inf)")
    seed: int = ranged(0, "[0, inf)")
    utility_mode: str = "exact"
    utility_samples: int = ranged(256, "[1, inf)")
    measure_wall_time: bool = False
    channel: ChannelConfig = None
    params: object = None  # the workload's *Params once built

    def __post_init__(self):
        self._build_block("channel", ChannelConfig, "channel")
        check_fields(self)
        if self.workload not in WORKLOADS:
            raise ConfigError(f"unknown workload {self.workload!r}; "
                              f"expected one of {sorted(WORKLOADS)}")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; expected one of {POLICIES}")
        if self.utility_mode not in ("exact", "expected"):
            raise ConfigError(f"unknown utility mode {self.utility_mode!r}")
        table = WORKLOADS[self.workload][1].history_gains
        if self.utility_mode == "expected" and table is Workload.history_gains:
            raise ConfigError(f"utility_mode 'expected' needs a history to draw from, "
                              f"which {self.workload} does not keep")
        # Bad params keys fail here, not when the workload is built.
        self._build_block("params", WORKLOADS[self.workload][0], self.workload)

    def _build_block(self, name: str, cls, context: str) -> None:
        """Hold block `name` as a `cls`, built from a mapping or None (see `_block`)."""
        value = getattr(self, name)
        if not isinstance(value, cls):
            object.__setattr__(self, name, _strict_dataclass(cls, _block(value, name), context))


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


def _strict_dataclass(cls, raw: Dict, context: str):
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {context} block")
    # YAML has no tuple: a list stands for one where the default is a tuple.
    coerced = {key: tuple(value) if isinstance(value, list)
               and isinstance(defaults[key], tuple) else value
               for key, value in raw.items()}
    try:
        return cls(**coerced)
    except ConfigError:
        raise  # it names its key; rewrapping would add one prefix per nested block
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context} block: {exc}") from exc


def _seed_streams(seed: int):
    """A run's three independent seeds: the workload's, the channel gains', the MC draws'."""
    return np.random.SeedSequence(seed).spawn(3)


def build_workload(config: ScenarioConfig, seed=None) -> Workload:
    """The configured workload, by default seeded as run_scenario seeds the one it builds."""
    if seed is None:
        seed = _seed_streams(config.seed)[0]
    return WORKLOADS[config.workload][1](config.params, seed)


def _block(value, name: str) -> Dict:
    """Block `name` as a mapping: a missing or null block means the defaults."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name} block must be a mapping, got {value!r}")
    return value


def _apply_override(raw: Dict, text: str) -> None:
    """Write one `key.path=value` into raw, the value read as a config's is."""
    key, sep, value = text.partition("=")
    *blocks, name = key.split(".")
    if not sep or not all([*blocks, name]):
        raise ConfigError(f"expected key=value, got {text!r}")
    try:
        value = yaml.load(value, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML value in {text!r}: {exc}") from exc
    for block in blocks:
        raw[block] = _block(raw.get(block), block)
        raw = raw[block]
    raw[name] = value


def load_config(path, overrides: Sequence[str] = ()) -> ScenarioConfig:
    """Parse a YAML scenario config; unknown keys are rejected by name.

    The `channel` and `params` blocks may be missing or null, which means
    their defaults; any other value that is not a mapping names its block.
    Each override `key=value` (the CLI's `--set`) is written into the file's
    mapping before any check. A dotted key such as `params.lr=1e-3` reaches
    into a block as above, and the value is read by the file's YAML loader.
    A file that cannot be read as text is a ConfigError too.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    for override in overrides:
        _apply_override(raw, override)
    if "workload" not in raw:
        raise ConfigError("config is missing the required 'workload' key")
    return _strict_dataclass(ScenarioConfig, raw, "config")


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

    A round's deltas are the workload's marginal_utilities, or with
    utility_mode "expected" its expected_marginal_utilities from the run's
    Monte Carlo stream.
    round_hook, when given, is called after each round's ingest with
    (round_idx, workload); it exists for per-round probes such as test
    accuracy and does not affect the metrics. A truthy return value ends
    the run after that round, and the rows so far are returned.
    """
    _, gains_seed, mc_seed = _seed_streams(config.seed)
    if workload is None:
        workload = build_workload(config)
    gains_rng = np.random.default_rng(gains_seed)
    mc_rng = np.random.default_rng(mc_seed)
    capacity = config.channel.capacity
    metrics: List[RoundMetrics] = []
    for k in range(config.rounds):
        started = time.perf_counter()
        workload.begin_round(k)
        gains = sample_gains(gains_rng, workload.num_eds)
        try:
            if config.utility_mode == "exact":
                deltas = workload.marginal_utilities()
            else:
                deltas = workload.expected_marginal_utilities(config.utility_samples, mc_rng)
            reports = collect_reports(workload, deltas, gains, config.channel)
            allocation = _allocate(config.policy, gains, reports, capacity)
            goal_before = workload.goal_value()
            throughput = workload.throughput(allocation.selected)
            workload.ingest(allocation.selected)
            goal_after = workload.goal_value()
        except Exception as exc:
            raise RoundError(k, config.workload, exc) from exc
        wall_ms = (int(round((time.perf_counter() - started) * 1000))
                   if config.measure_wall_time else 0)
        metrics.append(RoundMetrics(
            round_idx=k, policy=config.policy, seed=config.seed, throughput=throughput,
            utility_gain=goal_before - goal_after, goal_value=goal_after, wall_ms=wall_ms))
        if round_hook is not None and round_hook(k, workload):
            break
    return metrics


def emit_metrics(metrics: Sequence[RoundMetrics], path) -> None:
    """Write the canonical metrics CSV, its directory made if missing: one row per round."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    for m in metrics:
        lines.append(
            f"{m.round_idx},{m.policy},{m.seed},{m.throughput},"
            f"{float(m.utility_gain)!r},{float(m.goal_value)!r},{m.wall_ms}"
        )
    path.write_text("\n".join(lines) + "\n")


def run_compare(config: ScenarioConfig, out_dir) -> Dict[str, List[RoundMetrics]]:
    """Run all three policies on shared seeds; emit one CSV per policy.

    Also writes summary.csv: each round's utility gain under each policy,
    one row per (round, policy).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results: Dict[str, List[RoundMetrics]] = {}
    for policy in POLICIES:
        run_cfg = dataclasses.replace(config, policy=policy)
        results[policy] = run_scenario(run_cfg)
        emit_metrics(results[policy], out_dir / f"{policy}.csv")
    lines = ["round,policy,utility_gain"]
    for k in range(config.rounds):
        for policy in POLICIES:
            lines.append(f"{k},{policy},{float(results[policy][k].utility_gain)!r}")
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")
    return results
