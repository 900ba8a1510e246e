"""Workload contract and divide-and-conquer machinery.

Every application workload exposes per-ED marginal utility gains against its
current dataset, ingests the data of selected EDs, and reports a goal value,
lower is better. Adding data is not guaranteed to lower the goal: revealed
loads or travel times never raise the robust decision cost, but the ADMM
augmented Lagrangian is non-increasing only in the certificate regime
rho/2 > kappa_j/rho (see AdmmWorkload), and the admm preset lies outside it.
The helpers here pair those gains with RB demands, estimate gains by Monte
Carlo when exact values would be non-causal, and enumerate the
diminishing-returns bound on small subsets. The config dataclasses of every
workload declare their numeric ranges here too (`ranged`, `check_ranges`).
"""

from __future__ import annotations

import abc
import numbers
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence, Tuple

import numpy as np

from .allocator import make_reports
from .channel import RbParams, rb_bits, rb_demand

MAX_ENUMERATION_EDS = 12


class EnumerationScaleError(ValueError):
    """Subset enumeration requested beyond the tractable size."""


class ConfigError(ValueError):
    """Malformed scenario configuration."""


@dataclass(frozen=True)
class Interval:
    """The values a numeric config field may take; see `ranged`."""

    low: float
    high: float
    low_open: bool
    high_open: bool

    def admits(self, value) -> bool:
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            return False
        above = value > self.low if self.low_open else value >= self.low
        below = value < self.high if self.high_open else value <= self.high
        return above and below

    def __str__(self) -> str:
        return (f"{'(' if self.low_open else '['}{self.low:g}, "
                f"{self.high:g}{')' if self.high_open else ']'}")


def ranged(default, interval: str):
    """A dataclass field whose values must lie in `interval`, such as "[0, 1)".

    `(` and `)` exclude a bound, `[` and `]` include it. An open `inf` bound
    admits every finite number, so "[0, inf)" means finite and non-negative;
    NaN lies in no interval. A tuple field's entries must each lie in it.
    """
    low, high = interval[1:-1].split(",")
    bounds = Interval(float(low), float(high), interval[0] == "(", interval[-1] == ")")
    return field(default=default, metadata={"range": bounds})


def check_ranges(config) -> None:
    """Raise ConfigError naming the first field of `config` outside its range.

    Reads the `ranged` declarations of a dataclass instance; an Optional
    field may also be None.
    """
    for f in fields(config):
        bounds = f.metadata.get("range")
        value = getattr(config, f.name)
        if bounds is None or (value is None and f.type.startswith("Optional[")):
            continue
        entries = value if isinstance(value, (tuple, list)) else (value,)
        if not all(bounds.admits(v) for v in entries):
            what = f"each entry of {f.name}" if entries is value else f.name
            raise ConfigError(f"{what} must be a number in {bounds}, got {value!r}")


class Workload(abc.ABC):
    """Pluggable CPS goal: produces per-ED gains, ingests data, reports C(z).

    Per-ED quantities (marginal_utilities, expected_marginal_utilities,
    payload_bits) are float arrays of length num_eds indexed by ED id. Each
    call returns a fresh array that the caller may keep and modify.
    """

    num_eds: int

    def begin_round(self, round_idx: int) -> None:
        """Advance to a new scheduling round (draw fresh data if applicable)."""

    @abc.abstractmethod
    def marginal_utilities(self) -> np.ndarray:
        """Per-ED delta against the current dataset. Side-effect free."""

    @abc.abstractmethod
    def ingest(self, selected: Iterable[int]) -> None:
        """Absorb the data of the selected EDs and advance internal state."""

    @abc.abstractmethod
    def goal_value(self) -> float:
        """Current goal function value; lower is better."""

    @abc.abstractmethod
    def payload_bits(self) -> np.ndarray:
        """Bits each ED must deliver this round (its r_min contribution)."""

    def throughput(self, selected: Iterable[int]) -> int:
        """Transmitted units for the metrics row; default is ED count."""
        return len(list(selected))

    def expected_marginal_utilities(
        self, num_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-ED Monte Carlo mean of delta over num_samples history draws.

        All draws come from rng. A workload supports utility_mode: expected
        by overriding this method.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support sampled marginal utilities"
        )

    def joint_gain(self, subset: Sequence[int]) -> float:
        """C(z_old) - C(z_old with the subset's data added), without ingesting."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support joint-gain evaluation"
        )


def collect_reports(
    workload: Workload,
    gains,
    rb: RbParams,
    *,
    tx_power: float = 1.0,
    mode: str = "exact",
    num_samples: int = 256,
    seed=None,
) -> np.recarray:
    """Pair each ED's delta with its RB demand; unreachable EDs are excluded.

    mode "exact" queries the workload directly; "expected" averages
    num_samples history draws per ED (deterministic given seed). Returns
    the reports of make_reports in ascending ed_id order, negative deltas
    clamped to zero.
    """
    if mode not in ("exact", "expected"):
        raise ValueError(f"unknown utility mode {mode!r}")
    if mode == "expected" and num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")
    if mode == "exact":
        deltas = workload.marginal_utilities()
    else:
        deltas = workload.expected_marginal_utilities(num_samples, np.random.default_rng(seed))
    r_min = workload.payload_bits()
    per_rb = rb_bits(gains, tx_power, rb)
    reachable = (r_min == 0) | (per_rb > 0)
    return make_reports(
        np.flatnonzero(reachable),
        np.maximum(deltas[reachable], 0.0),
        rb_demand(r_min[reachable], per_rb[reachable]),
    )


def submodular_bound_check(
    workload: Workload,
    ed_subset: Sequence[int],
    *,
    tolerance: float = 1e-9,
) -> Tuple[float, float, bool]:
    """Check that the joint gain of a subset is bounded by its summed deltas.

    Returns (lhs, rhs, holds) where lhs re-solves the goal with all subset
    data added and rhs sums singleton gains.
    """
    subset = list(ed_subset)
    if len(subset) > MAX_ENUMERATION_EDS:
        raise EnumerationScaleError(
            f"enumeration scale: subset of {len(subset)} exceeds {MAX_ENUMERATION_EDS}"
        )
    if not subset:
        return 0.0, 0.0, True
    lhs = workload.joint_gain(subset)
    deltas = workload.marginal_utilities()
    rhs = float(sum(deltas[j] for j in subset))
    return lhs, rhs, lhs <= rhs + tolerance
