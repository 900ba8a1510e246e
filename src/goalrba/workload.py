"""Workload contract and divide-and-conquer machinery.

Every application workload exposes per-ED marginal utility gains against its
current dataset, ingests the data of selected EDs, and reports a goal value,
lower is better. Adding data is not guaranteed to lower the goal: revealed
loads or travel times never raise the robust decision cost, but the ADMM
augmented Lagrangian is non-increasing only in the certificate regime
rho/2 > kappa_j/rho (see AdmmWorkload), and the admm preset lies outside it.
The helpers here pair a round's gains, from either estimator, with RB
demands and check the diminishing-returns bound on one subset. Where exact
gains would be non-causal, Workload.expected_marginal_utilities, the one
estimator of utility_mode: expected, averages draws from history_gains.
The config dataclasses of every workload are checked here too:
`check_fields` holds each field to its annotated type and to the range
`ranged` declares on it.
"""

from __future__ import annotations

import abc
import functools
import numbers
from dataclasses import dataclass, field, fields
from typing import Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .allocator import Reports, make_reports
from .channel import rb_bits, rb_demand

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


# Resolving a class's annotations costs far more than checking a value, and
# they never change, so each class resolves them once.
_type_hints = functools.cache(get_type_hints)


def _is_a(hint, value) -> bool:
    """Whether `value` is of the type hint `hint`; see `check_fields`."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_is_a(arg, value) for arg in args)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_is_a, args, value))
    if hint in (int, float):
        number = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, number) and not isinstance(value, bool)
    return isinstance(value, origin or hint)


def check_fields(config) -> None:
    """Raise ConfigError naming the first field of `config` it cannot hold.

    A field holds a value of its annotated type: an int field any integral
    number but a bool, a float field any real number but a bool, an
    Optional field None too, a Tuple[X, X] field a tuple of exactly those
    entries and a Tuple[X, ...] field a tuple of any length. A number must
    also lie in the range `ranged` declares on the field (each entry, for a
    tuple). Every config dataclass calls this from its __post_init__.
    """
    hints = _type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        if not _is_a(hints[f.name], value):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        bounds = f.metadata.get("range")
        if bounds is None or value is None:
            continue
        entries = value if isinstance(value, tuple) else (value,)
        if not all(bounds.admits(v) for v in entries):
            what = f"each entry of {f.name}" if entries is value else f.name
            raise ConfigError(f"{what} must be a number in {bounds}, got {value!r}")


class Workload(abc.ABC):
    """Pluggable CPS goal: produces per-ED gains, ingests data, reports C(z).

    Per-ED quantities (marginal_utilities, expected_marginal_utilities,
    payload_bits) are float arrays of length num_eds indexed by ED id. Each
    call returns a fresh array that the caller may keep and modify. The
    (num_eds, rows) table of history_gains is not fresh: it is read-only,
    and the workload may hand out the same table again. The `selected` that
    ingest and throughput take holds ED ids, ascending and distinct, as an
    array (Allocation.selected, in a run) or a list.
    """

    num_eds: int

    def begin_round(self, round_idx: int) -> None:
        """Advance to a new scheduling round (draw fresh data if applicable)."""

    @abc.abstractmethod
    def marginal_utilities(self) -> np.ndarray:
        """Per-ED delta against the current dataset. Side-effect free."""

    @abc.abstractmethod
    def ingest(self, selected: Sequence[int]) -> None:
        """Absorb the data of the selected EDs and advance internal state."""

    @abc.abstractmethod
    def goal_value(self) -> float:
        """Current goal function value; lower is better."""

    @abc.abstractmethod
    def payload_bits(self) -> np.ndarray:
        """Bits each ED must deliver this round (its r_min contribution)."""

    def throughput(self, selected: Sequence[int]) -> int:
        """Transmitted units for the metrics row; default is ED count."""
        return len(selected)

    def history_gains(self) -> np.ndarray:
        """Read-only (num_eds, rows) table: entry (j, i) is ED j's delta,
        revealed alone, at its value in history row i.

        A workload supports utility_mode: expected by overriding this
        method; each ED's delta must depend on its own value alone.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support sampled marginal utilities"
        )

    def expected_marginal_utilities(
        self, num_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-ED Monte Carlo mean of delta over num_samples history draws.

        All draws come from rng, ED-major: num_samples history rows for
        ED 0, then for ED 1, and so on. Each draw's delta is read from
        history_gains, and each ED's draws are summed as np.mean sums one
        contiguous row.
        """
        if num_samples < 1:
            raise ValueError(f"num_samples must be at least 1, got {num_samples}")
        table = self.history_gains()
        idx = rng.integers(0, table.shape[1], size=(self.num_eds, num_samples))
        return np.take_along_axis(table, idx, axis=1).mean(axis=1)

    def joint_gain(self, subset: Sequence[int]) -> float:
        """C(z_old) - C(z_old with the subset's data added), without ingesting."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support joint-gain evaluation"
        )


def collect_reports(workload: Workload, deltas: np.ndarray, gains, channel) -> Reports:
    """Pair each ED's delta with its RB demand; unreachable EDs are excluded.

    `deltas` is the round's per-ED estimate, a fresh float array from
    marginal_utilities or expected_marginal_utilities (the round loop picks
    one by utility_mode). `channel` is the scenario's harness.ChannelConfig,
    which gives the per-RB rate at each gain (see rb_bits). Returns the
    Reports of make_reports in ascending ed_id order, negative deltas
    clamped to zero. When every ED is reachable (each has a positive rate or
    no payload), `deltas`, clamped in place, and the demand array become two
    of the columns as they are, with no gather.
    """
    r_min = workload.payload_bits()
    per_rb = rb_bits(gains, channel)
    reachable = (r_min == 0) | (per_rb > 0)
    if reachable.all():
        ids = np.arange(len(reachable))
    else:
        ids = np.flatnonzero(reachable)
        deltas, r_min, per_rb = deltas[ids], r_min[ids], per_rb[ids]
    return make_reports(ids, np.maximum(deltas, 0.0, out=deltas), rb_demand(r_min, per_rb))


def submodular_bound_check(
    workload: Workload,
    ed_subset: Sequence[int],
    *,
    tolerance: float = 1e-9,
) -> Tuple[float, float, bool]:
    """Check that the joint gain of a subset is bounded by its summed deltas.

    Returns (lhs, rhs, holds) where lhs re-solves the goal once with all
    subset data added (joint_gain) and rhs sums singleton gains, so a
    subset of any size costs one re-solve; verify_submodularity sizes its
    enumeration.
    """
    subset = list(ed_subset)
    if not subset:
        return 0.0, 0.0, True
    lhs = workload.joint_gain(subset)
    deltas = workload.marginal_utilities()
    rhs = float(sum(deltas[j] for j in subset))
    return lhs, rhs, lhs <= rhs + tolerance
