"""Workload contract and divide-and-conquer machinery.

Every application workload exposes per-ED marginal utility gains against its
current dataset, ingests the data of selected EDs, and reports a goal value,
lower is better. Adding data is not guaranteed to lower the goal: revealed
loads or travel times never raise the robust decision cost, but the ADMM
augmented Lagrangian is non-increasing only in the certificate regime
rho/2 > kappa_j/rho (see AdmmWorkload), and the admm preset lies outside it.
The helpers here pair those gains with RB demands, estimate gains by Monte
Carlo when exact values would be non-causal, and enumerate the
diminishing-returns bound on small subsets.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .allocator import UtilityReport
from .channel import EdRadio, RbParams, UnreachableEdError, rb_bits, rb_demand

MAX_ENUMERATION_EDS = 12


class EnumerationScaleError(ValueError):
    """Subset enumeration requested beyond the tractable size."""


class EmptyHistoryError(ValueError):
    """No empirical distribution: the workload has no history to sample."""


class Workload(abc.ABC):
    """Pluggable CPS goal: produces per-ED gains, ingests data, reports C(z)."""

    num_eds: int

    def begin_round(self, round_idx: int) -> None:
        """Advance to a new scheduling round (draw fresh data if applicable)."""

    @abc.abstractmethod
    def marginal_utilities(self) -> List[Tuple[int, float]]:
        """Per-ED (ed_id, delta) against the current dataset. Side-effect free."""

    @abc.abstractmethod
    def ingest(self, selected: Iterable[int]) -> None:
        """Absorb the data of the selected EDs and advance internal state."""

    @abc.abstractmethod
    def goal_value(self) -> float:
        """Current goal function value; lower is better."""

    @abc.abstractmethod
    def payload_bits(self, ed_id: int) -> float:
        """Bits ED ed_id must deliver this round (its r_min contribution)."""

    def throughput(self, selected: Iterable[int]) -> int:
        """Transmitted units for the metrics row; default is ED count."""
        return len(list(selected))

    def sample_marginal(self, ed_id: int, rng: np.random.Generator) -> float:
        """One draw of delta with the ED's payload sampled from history."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support sampled marginal utilities"
        )

    def joint_gain(self, subset: Sequence[int]) -> float:
        """C(z_old) - C(z_old with the subset's data added), without ingesting."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support joint-gain evaluation"
        )


def expected_marginal_utility(
    workload: Workload,
    ed_id: int,
    num_samples: int,
    seed,
) -> float:
    """Monte Carlo mean of delta over payload draws from the workload history."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")
    rng = np.random.default_rng(seed)
    draws = [workload.sample_marginal(ed_id, rng) for _ in range(num_samples)]
    return float(np.mean(draws))


def collect_reports(
    workload: Workload,
    gains: Sequence[float],
    rb: RbParams,
    *,
    tx_power: float = 1.0,
    mode: str = "exact",
    num_samples: int = 256,
    seed=None,
) -> List[UtilityReport]:
    """Pair each ED's delta with its RB demand; unreachable EDs are excluded.

    mode "exact" queries the workload directly; "expected" averages
    num_samples history draws per ED (deterministic given seed).
    """
    if mode not in ("exact", "expected"):
        raise ValueError(f"unknown utility mode {mode!r}")
    if mode == "exact":
        deltas = dict(workload.marginal_utilities())
    else:
        rng = np.random.default_rng(seed)
        expected = getattr(workload, "expected_marginal_utilities", None)
        if expected is not None:
            deltas = dict(expected(num_samples, rng))
        else:
            deltas = {
                ed_id: expected_marginal_utility(workload, ed_id, num_samples, rng)
                for ed_id in range(workload.num_eds)
            }
    reports = []
    for ed_id, delta in sorted(deltas.items()):
        ed = EdRadio(ed_id=ed_id, p=tx_power, r_min=workload.payload_bits(ed_id))
        per_rb = rb_bits(gains[ed_id], ed, rb)
        try:
            w = rb_demand(ed, per_rb)
        except UnreachableEdError:
            continue
        reports.append(UtilityReport(ed_id=ed_id, delta=max(delta, 0.0), w=w))
    return reports


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
    deltas = dict(workload.marginal_utilities())
    rhs = float(sum(deltas[j] for j in subset))
    return lhs, rhs, lhs <= rhs + tolerance
