"""Data-driven decision workload: robust load shedding for demand response.

The goal is a robust min-max cost: each unknown ED's reducible load is
replaced by its worst case over the empirical support, its lower bound.
Marginal utility of an ED is the cost drop from revealing its real-time
value alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .workload import ConfigError, Workload, check_fields, ranged


class InfeasibleDrError(ValueError):
    """Insufficient shedding capacity: worst-case supply below the threshold."""


@dataclass(frozen=True)
class DrInstance:
    """Robust load-shedding market.

    costs: unit cost per ED in $/kW; xi_lo/xi_hi: support of each ED's
    reducible load in kW; pi_min: total required reduction. The revealed
    loads of a round are not part of the market: solve_dr takes them as a
    capacity array. Frozen, so what it caches (the dispatch tables, the
    base crossing and cost, and the per-position tables of
    dr_marginal_utilities) stays the market's own.
    """

    costs: np.ndarray
    xi_lo: np.ndarray
    xi_hi: np.ndarray
    pi_min: float

    def __post_init__(self):
        for name in ("costs", "xi_lo", "xi_hi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.xi_lo < 0) or np.any(self.xi_lo > self.xi_hi):
            raise ValueError("support bounds must satisfy 0 <= xi_lo <= xi_hi")
        if self.pi_min < 0:
            raise ValueError(f"pi_min must be non-negative, got {self.pi_min}")

    @property
    def num_eds(self) -> int:
        return len(self.costs)

    @cached_property
    def tables(self) -> DispatchTables:
        """The base dispatch's order and prefix tables, built on first use."""
        return dispatch_tables(self.costs, self.xi_lo)

    @cached_property
    def base_crossing(self) -> int:
        """Dispatch position at which the base dispatch meets pi_min (J if none).

        Read off the prefix sums of xi_lo with the 1e-12 feasibility slack.
        """
        return int(np.searchsorted(self.tables.P[1:], self.pi_min - 1e-12, side="left"))

    @cached_property
    def stay_costs(self) -> np.ndarray:
        """Cost at each position q < base_crossing if the crossing moves there.

        CP[q] + c[q] * (pi_min - P[q]): the dispatch of dr_marginal_utilities
        when a reveal at q lets that ED meet pi_min itself.
        """
        T, tables = self.base_crossing, self.tables
        return tables.CP[:T] + tables.c[:T] * (self.pi_min - tables.P[:T])

    @cached_property
    def base_cost(self) -> float:
        """Cost of the base (all-unknown) dispatch, solve_dr(self)[0], solved once."""
        return solve_dr(self)[0]


class DispatchTables(NamedTuple):
    """Dispatch order and prefix sums of the base (all-unknown) dispatch.

    They depend only on costs and xi_lo, so a market builds them once
    (DrInstance.tables). The prefix sums are zero-led: P[k] and CP[k] sum
    the first k EDs in dispatch order.
    """

    order: np.ndarray  # ED ids by ascending cost, ties by ed_id
    c: np.ndarray  # costs in dispatch order
    lo: np.ndarray  # xi_lo in dispatch order
    P: np.ndarray  # prefix sums of xi_lo in dispatch order, zero-led
    CP: np.ndarray  # prefix sums of cost * xi_lo in dispatch order, zero-led
    lo_sum: float  # xi_lo.sum(), the base scenario's capacity


def dispatch_tables(costs: np.ndarray, xi_lo: np.ndarray) -> DispatchTables:
    """Sort the EDs by cost once and build the base dispatch's prefix tables."""
    J = len(costs)
    order = np.lexsort((np.arange(J), costs))
    c = costs[order]
    u = xi_lo[order]
    P = np.zeros(J + 1)
    CP = np.zeros(J + 1)
    np.cumsum(u, out=P[1:])
    np.cumsum(c * u, out=CP[1:])
    return DispatchTables(order, c, u, P, CP, float(xi_lo.sum()))


def solve_dr(instance: DrInstance, cap: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
    """Minimal-cost load shedding against worst-case capacities.

    cap holds each ED's worst-case reducible load: xi_lo, with the revealed
    loads written in; None means nothing is revealed. Continuous covering
    problem: dispatch EDs by ascending cost (ties by ed_id) until pi_min is
    met. Returns (cost, per-ED reductions).

    The remaining requirement is one left fold of subtractions over the
    capacities in dispatch order; the ED at which it first reaches zero
    takes what was left, and every ED before it takes its full capacity.
    The fold stops soon after that ED, since no later entry is read.
    """
    if cap is None:
        cap = instance.xi_lo
    else:
        cap = np.asarray(cap, dtype=float)
        # xi_lo - 1e-9 rounds to at most xi_lo, and xi_hi + 1e-9 to at least
        # xi_hi, so only a cap outside [xi_lo, xi_hi] needs the tolerance.
        if not ((instance.xi_lo <= cap).all() and (cap <= instance.xi_hi).all()):
            inside = (instance.xi_lo - 1e-9 <= cap) & (cap <= instance.xi_hi + 1e-9)
            if not inside.all():
                j = int(np.argmin(inside))
                raise ValueError(f"revealed value {cap[j]} for ED {j} outside support")
    J = instance.num_eds
    if instance.pi_min == 0:
        return 0.0, np.zeros(J)
    if cap.sum() < instance.pi_min - 1e-12:
        raise InfeasibleDrError(
            f"insufficient shedding capacity: {cap.sum():.6g} < {instance.pi_min:.6g}"
        )
    order = instance.tables.order
    # remaining[k] is the requirement left before the k-th ED in dispatch
    # order. The fold runs in chunks that double in length and stops with
    # the chunk in which the requirement first reaches zero, at the T-th ED.
    remaining = np.empty(J + 1)
    remaining[0] = instance.pi_min
    T, start, size = J, 0, 1024
    while start < J:
        stop = min(start + size, J)
        remaining[start + 1 : stop + 1] = cap[order[start:stop]]
        np.subtract.accumulate(remaining[start : stop + 1], out=remaining[start : stop + 1])
        met = remaining[start + 1 : stop + 1] <= 0
        k = int(np.argmax(met))
        if met[k]:
            T = start + k
            break
        start, size = stop, 2 * size
    # The full-length pi keeps the bits of costs @ pi.
    pi = np.zeros(J)
    pi[order[:T]] = cap[order[:T]]
    if T < J:
        pi[order[T]] = remaining[T]
    return float(instance.costs @ pi), pi


def dr_marginal_utilities(instance: DrInstance, values: np.ndarray) -> np.ndarray:
    """Delta for every ED at once, each revealed alone at values[j].

    Vectorized over the base dispatch's prefix sums; equivalent to J
    independent re-solves of solve_dr. Each entry depends on values[j]
    alone. Only the T EDs that the base dispatch takes before the one that
    meets pi_min can lower its cost, so the work runs over the first T
    positions of the dispatch order and the gains are scattered back; an
    ED whose value is NaN or not above its xi_lo gains 0. The cost when a
    reveal leaves the crossing at the ED's own position depends on the
    market alone, so it is read from the market (DrInstance.stay_costs).
    Each new crossing is the count of prefix sums below the ED's needle:
    counted over the whole window when it is under 256 entries wide, and
    by binary search in a wider one.
    """
    values = np.asarray(values, dtype=float)
    J = instance.num_eds
    gains = np.zeros(J)
    if instance.pi_min == 0:
        return gains
    tables = instance.tables
    if tables.lo_sum < instance.pi_min - 1e-12:
        raise InfeasibleDrError("insufficient shedding capacity in the base scenario")
    c, P, CP = tables.c, tables.P, tables.CP
    need = instance.pi_min
    T = instance.base_crossing
    base_cost = float(CP[T] + c[T] * (need - P[T]))

    order, lo, c_head = tables.order[:T], tables.lo[:T], c[:T]
    # fmax, unlike maximum, turns a NaN into 0, which leaves its ED inactive.
    da = values[order]
    da -= lo
    np.fmax(da, 0.0, out=da)
    # need - da - 1e-12 falls as da grows, so the largest da gives the
    # smallest needle.
    da_max = da.max(initial=0.0)
    if not da_max > 0:
        return gains
    # Each ED's new crossing point; every needle lies at or below
    # need - 1e-12, so every search ends at or before position T, and none
    # starts before the smallest needle's.
    needles = np.subtract(need, da)
    needles -= 1e-12
    start = int(np.searchsorted(P[1:], need - da_max - 1e-12, side="left"))
    window = P[1 + start : T + 1]
    if len(window) < 256:
        # A left search is the count of window entries below the needle;
        # counted branch-free, each count fits a uint8.
        below = np.less.outer(window, needles).view(np.uint8).sum(axis=0, dtype=np.uint8)
    else:
        below = np.searchsorted(window, needles, side="left")
    q = np.arange(T)
    Tp = np.add(below, start, dtype=np.intp)
    np.maximum(q, Tp, out=Tp)
    # The cost of the new crossing, prev_CP + c*da + c[Tp]*(need - prev_P - da),
    # term by term in that order, in two arrays.
    cost = np.take(CP, Tp)
    term = np.multiply(c_head, da)
    cost += term
    np.take(P, Tp, out=term)
    np.subtract(need, term, out=term)
    term -= da
    term *= c[Tp]
    cost += term
    np.copyto(cost, instance.stay_costs, where=Tp == q)
    # The gain, base_cost - cost and at least 0, and 0 for an inactive ED.
    np.subtract(base_cost, cost, out=cost)
    np.maximum(cost, 0.0, out=cost)
    if not da.min() > 0:
        cost[da <= 0] = 0.0
    gains[order] = cost
    return gains


def _check_range(name: str, value) -> None:
    """Reject a support range [lo, hi] unless hi - lo is +0.0 or more.

    check_fields has made it two numbers, each in the field's range. A
    hi - lo of -0.0, as [0.0, -0.0] gives, fails as lo > hi does, since
    Generator.uniform rejects a span whose sign bit is set.
    """
    if np.signbit(value[1] - value[0]):
        raise ConfigError(f"{name} must be [lo, hi] with hi - lo >= +0.0, got {value!r}")


@dataclass(frozen=True)
class DrParams:
    """Scenario generator parameters for emergency demand response."""

    num_eds: int = ranged(500, "[1, inf)")
    cost_range: Tuple[float, float] = ranged((0.0, 5.0), "[0, inf)")
    xi_lo: float = ranged(1.0, "[0, inf)")
    xi_max_range: Tuple[float, float] = ranged((1.0, 30.0), "(-inf, inf)")
    pi_min: Optional[float] = ranged(None, "[0, inf)")  # default scales 1e4 kW at 15000 EDs
    history_len: int = ranged(64, "[1, inf)")
    payload_bits: float = ranged(512.0, "[0, inf)")  # one 64-byte sensor packet

    def __post_init__(self):
        check_fields(self)
        _check_range("cost_range", self.cost_range)
        _check_range("xi_max_range", self.xi_max_range)
        worst_case = np.full(self.num_eds, self.xi_lo).sum()
        if worst_case < self.resolved_pi_min():
            raise InfeasibleDrError(
                f"pi_min {self.resolved_pi_min():g} exceeds the worst-case capacity "
                f"num_eds * xi_lo = {worst_case:g}; the base scenario is infeasible"
            )

    def resolved_pi_min(self) -> float:
        if self.pi_min is not None:
            return self.pi_min
        return self.num_eds * (1e4 / 15000.0)


def _uniform_loads(rng: np.random.Generator, shape, span: np.ndarray, lo: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Loads of `shape`, uniform on [lo, lo + span) per ED, as Generator.uniform draws them.

    Generator.uniform(lo, hi) draws lo + (hi - lo) * u from one double u
    per entry in C order; this is the same stream and the same arithmetic,
    without its per-call broadcast and finiteness check, so the same bits.
    The loads are written into `out`, an array of `shape`, when it is given.
    """
    loads = rng.random(shape, out=out)
    loads *= span
    loads += lo
    return loads


class DrHistory:
    """Past load rows of demand response, oldest first, as a reveal log.

    Held as the initial (history_len, J) block, read-only, plus one
    (ids, values) pair per revealing round. The row of such a round is the
    row before it with the revealed EDs' values written in: every
    unrevealed ED carries its previous value forward. len is the row count.

    The initial block is drawn on first read, from the saved generator
    state it was due to be drawn from, so a run that never reads it (exact
    mode) never draws it; the workload advances its generator past the
    block (PCG64.advance, one 64-bit output per double) instead. The draw
    holds that state, the shape, the span and xi_lo, not the workload, so a
    dropped workload is freed at once.
    """

    def __init__(self, state: dict, shape: Tuple[int, int], span: np.ndarray, lo: np.ndarray):
        self._initial_rows = shape[0]
        self._draw = (state, shape, span, lo)
        self.reveals: List[Tuple[np.ndarray, np.ndarray]] = []

    @cached_property
    def initial(self) -> np.ndarray:
        state, shape, span, lo = self._draw
        bit_generator = np.random.PCG64()
        bit_generator.state = state
        block = _uniform_loads(np.random.Generator(bit_generator), shape, span, lo)
        block.flags.writeable = False
        return block

    def __len__(self) -> int:
        return self._initial_rows + len(self.reveals)


class DemandResponseWorkload(Workload):
    """Emergency demand response: each round is a fresh shedding scenario.

    The market (costs, per-ED maximum reductions, pi_min) is fixed at
    construction; each begin_round() draws fresh real-time reducible loads,
    and a build draws none. Each round's capacities start at xi_lo and a
    reveal writes the ED's true load in. The market's dispatch tables and
    base cost (the goal before any reveal), and in expected mode one gain
    column per history row, are built on first use and reused, since none of
    them changes between rounds. history (a DrHistory) holds the past load
    rows: the initial block, and for each revealing round only the revealed
    ids and loads, so a round adds O(selected) entries, not a J-length row.
    history_gains is the only reader of the rows: it replays the reveals on
    one row of its own, each reveal once, in order, and the base Workload
    draws from its table.
    """

    def __init__(self, params: DrParams, seed):
        self.params = params
        self.num_eds = params.num_eds
        self._rng = np.random.default_rng(seed)
        J = params.num_eds
        self.costs = self._rng.uniform(*params.cost_range, size=J)
        self.xi_lo = np.full(J, params.xi_lo)
        self.xi_max = self._rng.uniform(*params.xi_max_range, size=J)
        self.xi_max = np.maximum(self.xi_max, params.xi_lo)
        self._xi_span = self.xi_max - self.xi_lo
        self.pi_min = params.resolved_pi_min()
        self.market = DrInstance(self.costs, self.xi_lo, self.xi_max, self.pi_min)
        # Old dataset: past real-time loads, same distribution as fresh ones.
        # Rows are only ever appended. The initial block is skipped here
        # and drawn on first read: Generator.random takes one 64-bit output
        # per double, so advancing by its entry count leaves the stream
        # where drawing it would. The advance also skips one row of J loads,
        # which every recorded run drew and discarded at build, so the
        # first begin_round() draws the loads those runs' round 0 drew.
        shape = (params.history_len, J)
        self.history = DrHistory(self._rng.bit_generator.state, shape, self._xi_span, self.xi_lo)
        self._rng.bit_generator.advance(shape[0] * shape[1] + J)
        # dr_marginal_utilities of each history row cached so far, one
        # column per row, oldest first, in a (J, width) table that doubles
        # its width when full; and the replay row, the last of those rows,
        # into which the next reveal is written (expected mode only).
        self._gains = np.empty((J, 0))
        self._gain_count = 0
        self._replay: Optional[np.ndarray] = None
        # This round's true loads and capacities (see begin_round).
        self.true_xi: Optional[np.ndarray] = None
        self.cap: Optional[np.ndarray] = None

    def begin_round(self) -> None:
        """Draw the round's loads into true_xi and reset cap to xi_lo.

        Both are round state: arrays built by the first begin_round() and
        written again by every later one, so a caller that keeps either
        across rounds keeps a copy.
        """
        if self.cap is None:
            self.true_xi, self.cap = np.empty(self.num_eds), self.xi_lo.copy()
        _uniform_loads(self._rng, self.num_eds, self._xi_span, self.xi_lo, out=self.true_xi)
        np.copyto(self.cap, self.xi_lo)
        self._revealed = False

    def marginal_utilities(self) -> np.ndarray:
        return dr_marginal_utilities(self.market, self.true_xi)

    def history_gains(self) -> np.ndarray:
        """The gain table, one column per history row, as a read-only view.

        Delta of ED j depends only on its own value, so one column serves
        every draw of a row. The columns of rows added since the last call
        are computed first, each from the replay row with one more reveal
        written in.
        """
        history = self.history
        if self._replay is None:
            for row in history.initial:
                self._add_gain_row(dr_marginal_utilities(self.market, row))
            self._replay = history.initial[-1].copy()
        for ids, values in history.reveals[self._gain_count - len(history.initial):]:
            self._replay[ids] = values
            self._add_gain_row(dr_marginal_utilities(self.market, self._replay))
        table = self._gains[:, : self._gain_count]
        table.flags.writeable = False
        return table

    def _add_gain_row(self, gains: np.ndarray) -> None:
        """Append one column to the gain table, doubling its width when full."""
        n = self._gain_count
        if n == self._gains.shape[1]:
            grown = np.empty((self.num_eds, max(2 * n, len(self.history))))
            grown[:, :n] = self._gains
            self._gains = grown
        self._gains[:, n] = gains
        self._gain_count = n + 1

    def ingest(self, selected: Sequence[int]) -> None:
        """Reveal the selected EDs' loads and append one history row.

        The new row holds each revealed ED's true load of this round; every
        unrevealed ED carries its value from the previous row forward. The
        empirical distribution that utility_mode: expected samples therefore
        repeats an ED's last value once per round it sits out. No row is
        appended when nothing is revealed. The row is stored as the revealed
        ids (a copy) and their loads.
        """
        if len(selected) == 0:
            return
        ids = np.array(selected, dtype=np.int64)
        values = self.true_xi[ids]
        self.cap[ids] = values
        self._revealed = True
        self.history.reveals.append((ids, values))

    def goal_value(self) -> float:
        """Dispatch cost at this round's capacities: the market's base cost until a reveal."""
        if not self._revealed:
            return self.market.base_cost
        return solve_dr(self.market, self.cap)[0]

    def payload_bits(self) -> np.ndarray:
        return np.full(self.num_eds, self.params.payload_bits)

    def joint_gain(self, subset: Sequence[int]) -> float:
        """C(z_old) - C(z_old with the subset's loads revealed), without ingesting."""
        ids = np.fromiter(subset, dtype=np.intp)
        cap = self.xi_lo.copy()
        cap[ids] = self.true_xi[ids]
        return self.market.base_cost - solve_dr(self.market, cap)[0]
