"""Data-driven decision workloads: robust load shedding and vehicle routing.

Both goals are robust min-max costs: unknown ED data is replaced by its worst
case over the empirical support (lower bound for reducible load, upper bound
for travel time). Marginal utility of an ED is the cost drop from revealing
its real-time value alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .workload import ConfigError, Workload, check_fields, ranged


class InfeasibleDrError(ValueError):
    """Insufficient shedding capacity: worst-case supply below the threshold."""


class NoPathError(ValueError):
    """No path from source to destination in the road network."""


@dataclass
class DrInstance:
    """Robust load-shedding market.

    costs: unit cost per ED in $/kW; xi_lo/xi_hi: support of each ED's
    reducible load in kW; pi_min: total required reduction. The revealed
    loads of a round are not part of the market: solve_dr takes them as a
    capacity array.
    """

    costs: np.ndarray
    xi_lo: np.ndarray
    xi_hi: np.ndarray
    pi_min: float

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=float)
        self.xi_lo = np.asarray(self.xi_lo, dtype=float)
        self.xi_hi = np.asarray(self.xi_hi, dtype=float)
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


class DispatchTables(NamedTuple):
    """Dispatch order and prefix sums of the base (all-unknown) dispatch.

    They depend only on costs and xi_lo, so a market builds them once
    (DrInstance.tables).
    """

    order: np.ndarray  # ED ids by ascending cost, ties by ed_id
    rank: np.ndarray  # position of each ED in order
    c: np.ndarray  # costs in dispatch order
    P: np.ndarray  # prefix sums of xi_lo in dispatch order
    CP: np.ndarray  # prefix sums of cost * xi_lo in dispatch order
    lo_sum: float  # xi_lo.sum(), the base scenario's capacity


def dispatch_tables(costs: np.ndarray, xi_lo: np.ndarray) -> DispatchTables:
    """Sort the EDs by cost once and build the base dispatch's prefix tables."""
    J = len(costs)
    order = np.lexsort((np.arange(J), costs))
    rank = np.empty(J, dtype=int)
    rank[order] = np.arange(J)
    c = costs[order]
    u = xi_lo[order]
    return DispatchTables(order, rank, c, np.cumsum(u), np.cumsum(c * u), float(xi_lo.sum()))


def solve_dr(instance: DrInstance, cap: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
    """Minimal-cost load shedding against worst-case capacities.

    cap holds each ED's worst-case reducible load: xi_lo, with the revealed
    loads written in; None means nothing is revealed. Continuous covering
    problem: dispatch EDs by ascending cost (ties by ed_id) until pi_min is
    met. Returns (cost, per-ED reductions).

    The remaining requirement is a left fold of subtractions over the
    capacities in dispatch order; the ED at which it first reaches zero
    takes what was left, and every ED before it takes its full capacity.
    """
    if cap is None:
        cap = instance.xi_lo
    else:
        cap = np.asarray(cap, dtype=float)
        inside = (instance.xi_lo - 1e-9 <= cap) & (cap <= instance.xi_hi + 1e-9)
        if not np.all(inside):
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
    take = cap[order]
    remaining = np.subtract.accumulate(np.concatenate(([instance.pi_min], take)))
    met = remaining[1:] <= 0
    T = int(np.argmax(met))
    if met[T]:
        take[T] = remaining[T]
        take[T + 1:] = 0.0
    pi = np.zeros(J)
    pi[order] = take
    return float(instance.costs @ pi), pi


def _base_cost_from_tables(c, P, CP, need) -> Tuple[float, int]:
    T = int(np.searchsorted(P, need - 1e-12, side="left"))
    prev_P = P[T - 1] if T > 0 else 0.0
    prev_CP = CP[T - 1] if T > 0 else 0.0
    return float(prev_CP + c[T] * (need - prev_P)), T


def dr_marginal_utilities(instance: DrInstance, values: np.ndarray) -> np.ndarray:
    """Delta for every ED at once, each revealed alone at values[j].

    Vectorized over the base dispatch's prefix sums; equivalent to J
    independent re-solves of solve_dr. Each entry depends on values[j]
    alone.
    """
    values = np.asarray(values, dtype=float)
    J = instance.num_eds
    if instance.pi_min == 0:
        return np.zeros(J)
    tables = instance.tables
    if tables.lo_sum < instance.pi_min - 1e-12:
        raise InfeasibleDrError("insufficient shedding capacity in the base scenario")
    c, P, CP = tables.c, tables.P, tables.CP
    need = instance.pi_min
    base_cost, T = _base_cost_from_tables(c, P, CP, need)

    q = tables.rank  # sorted position of each original ED
    delta_cap = np.maximum(values - instance.xi_lo, 0.0)

    gains = np.zeros(J)
    active = (q < T) & (delta_cap > 0)
    if not np.any(active):
        return gains
    qa = q[active]
    da = delta_cap[active]
    Tp = np.maximum(qa, np.searchsorted(P, need - da - 1e-12, side="left"))
    prev_P = np.where(Tp > 0, P[np.maximum(Tp - 1, 0)], 0.0)
    prev_CP = np.where(Tp > 0, CP[np.maximum(Tp - 1, 0)], 0.0)
    cq = c[qa]
    at_self = Tp == qa
    prev_Pq = np.where(qa > 0, P[np.maximum(qa - 1, 0)], 0.0)
    prev_CPq = np.where(qa > 0, CP[np.maximum(qa - 1, 0)], 0.0)
    new_cost = np.where(
        at_self,
        prev_CPq + cq * (need - prev_Pq),
        prev_CP + cq * da + c[Tp] * (need - prev_P - da),
    )
    gains[active] = np.maximum(base_cost - new_cost, 0.0)
    return gains


class RoutingInstance:
    """Robust shortest-path instance over a road network in node order.

    roads: map (m, n) -> (tau_lo, tau_hi) travel-time support, each road
    running from a lower node m to a higher node n. Read once into arrays in
    sorted road order: road i runs tail[i] -> head[i] within [lo[i], hi[i]].
    """

    def __init__(self, roads: Dict[Tuple[int, int], Tuple[float, float]], source, destination):
        if source == destination:
            raise ValueError("source and destination must differ")
        keys = sorted(roads)
        self.source, self.destination = source, destination
        self.tail, self.head = np.array(keys, dtype=np.intp).reshape(-1, 2).T
        self.lo, self.hi = np.array([roads[r] for r in keys], dtype=float).reshape(-1, 2).T
        bad = (self.lo < 0) | (self.lo > self.hi)
        if np.any(bad):
            raise ValueError(f"road {keys[np.argmax(bad)]} support must satisfy 0 <= lo <= hi")
        backward = (self.tail < 0) | (self.tail >= self.head)
        if np.any(backward) or min(source, destination) < 0:
            raise ValueError("every road must run from a node m >= 0 to a higher node")
        self.num_nodes = max(source, destination, *self.head) + 1
        # (node, its incoming roads, their tails) for each node after source
        # up to destination that has incoming roads, in node order.
        into = [(n, np.flatnonzero(self.head == n)) for n in range(source + 1, destination + 1)]
        self.incoming = [(n, r, self.tail[r]) for n, r in into if len(r)]


def solve_routing(instance: RoutingInstance, times) -> Union[float, np.ndarray]:
    """Robust source->destination travel time at the given road times.

    times is one time per road within its support, shape (E,), or a batch
    of such rows, (B, E); the result is a float or a (B,) array. One pass in
    node order, a topological order here, settles every node (Cormen et al.,
    Introduction to Algorithms, sec. 24.2) from the same sums and minima
    that Dijkstra forms, so the result is the same float.
    """
    rows = np.atleast_2d(np.asarray(times, dtype=float))
    inside = (instance.lo - 1e-9 <= rows) & (rows <= instance.hi + 1e-9)
    if not np.all(inside):
        b, i = np.unravel_index(np.argmin(inside), inside.shape)
        road = (int(instance.tail[i]), int(instance.head[i]))
        raise ValueError(f"time {rows[b, i]} for road {road} outside support")
    dist = np.full((len(rows), instance.num_nodes), np.inf)
    dist[:, instance.source] = 0.0
    for n, into, tails in instance.incoming:
        dist[:, n] = np.min(dist[:, tails] + rows[:, into], axis=1)
    time = dist[:, instance.destination]
    if np.any(np.isinf(time)):
        raise NoPathError(f"no path from {instance.source} to {instance.destination}")
    return time if np.ndim(times) == 2 else float(time[0])


def _check_range(name: str, value) -> None:
    """Reject a support range [lo, hi] with lo > hi.

    check_fields has made it two numbers, each in the field's range.
    """
    if not value[0] <= value[1]:
        raise ConfigError(f"{name} must be [lo, hi] with lo <= hi, got {value!r}")


@dataclass
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


class DemandResponseWorkload(Workload):
    """Emergency demand response: each round is a fresh shedding scenario.

    The market (costs, per-ED maximum reductions, pi_min) is fixed at
    construction; real-time reducible loads are redrawn each round. Each
    round's capacities start at xi_lo and a reveal writes the ED's true load
    in. The market's dispatch tables, and in expected mode one gain row per
    history row, are built on first use and reused, since none of them
    changes between rounds.
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
        self.pi_min = params.resolved_pi_min()
        self.market = DrInstance(self.costs, self.xi_lo, self.xi_max, self.pi_min)
        # Old dataset: past real-time loads, same distribution as fresh ones.
        # One array per row; rows are only ever appended.
        self.history_rows: List[np.ndarray] = list(self._draw_loads(size=params.history_len))
        # dr_marginal_utilities of history_rows[i] for every i cached so far.
        self._gain_rows: List[np.ndarray] = []
        self.begin_round(0)

    def _draw_loads(self, size: Optional[int] = None) -> np.ndarray:
        shape = (size, self.num_eds) if size is not None else self.num_eds
        return self._rng.uniform(self.xi_lo, self.xi_max, size=shape)

    @property
    def history(self) -> np.ndarray:
        """The history rows as one (rows, num_eds) array, freshly stacked."""
        return np.array(self.history_rows, dtype=float).reshape(-1, self.num_eds)

    def begin_round(self, round_idx: int) -> None:
        self.true_xi = self._draw_loads()
        self.cap = self.xi_lo.copy()

    def marginal_utilities(self) -> np.ndarray:
        return dr_marginal_utilities(self.market, self.true_xi)

    def expected_marginal_utilities(
        self, num_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Mean delta over per-ED history draws.

        Delta of ED j depends only on its own value, so the delta of a draw
        from history row i is entry j of that row's gain row; the gain rows
        of rows added since the last call are computed, and the draws are
        gathered from the table.
        """
        rows = self.history_rows
        idx = rng.integers(0, len(rows), size=(num_samples, self.num_eds))
        self._gain_rows.extend(
            dr_marginal_utilities(self.market, row) for row in rows[len(self._gain_rows):]
        )
        table = np.array(self._gain_rows)
        return np.mean(np.take_along_axis(table, idx, axis=0), axis=0)

    def ingest(self, selected: Iterable[int]) -> None:
        """Reveal the selected EDs' loads and append one history row.

        The new row holds each revealed ED's true load of this round; every
        unrevealed ED carries its value from the previous row forward. The
        empirical distribution that utility_mode: expected samples therefore
        repeats an ED's last value once per round it sits out. No row is
        appended when nothing is revealed.
        """
        ids = np.fromiter(selected, dtype=np.intp)
        if len(ids) == 0:
            return
        values = self.true_xi[ids]
        self.cap[ids] = values
        row = self.history_rows[-1].copy()
        row[ids] = values
        self.history_rows.append(row)

    def goal_value(self) -> float:
        return solve_dr(self.market, self.cap)[0]

    def payload_bits(self) -> np.ndarray:
        return np.full(self.num_eds, self.params.payload_bits)

    def joint_gain(self, subset: Sequence[int]) -> float:
        ids = np.fromiter(subset, dtype=np.intp)
        cap = self.xi_lo.copy()
        cap[ids] = self.true_xi[ids]
        return solve_dr(self.market)[0] - solve_dr(self.market, cap)[0]


@dataclass
class RoutingParams:
    """Scenario generator parameters for robust vehicle routing."""

    num_nodes: int = ranged(12, "[2, inf)")
    edge_prob: float = ranged(0.35, "[0, 1]")
    tau_range: Tuple[float, float] = ranged((1.0, 10.0), "[0, inf)")
    history_len: int = ranged(64, "[1, inf)")
    payload_bits: float = ranged(512.0, "[0, inf)")

    def __post_init__(self):
        check_fields(self)
        _check_range("tau_range", self.tau_range)


class RoutingWorkload(Workload):
    """Robust routing: one ED measures one road; reveals shorten the path.

    ED i measures road i of the network's sorted road order. Each round's
    road times start at tau_hi and a reveal writes the road's true time in.
    With nothing revealed every road sits at tau_hi, so the base path's time
    is solved once, on first use.
    """

    def __init__(self, params: RoutingParams, seed):
        self.params = params
        self._rng = np.random.default_rng(seed)
        self.roads: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self.source, self.destination = 0, params.num_nodes - 1
        self._build_network()
        self.network = RoutingInstance(self.roads, self.source, self.destination)
        self.num_eds = len(self.roads)
        self.history = self._rng.uniform(
            self.network.lo, self.network.hi, size=(params.history_len, self.num_eds)
        )
        self._base_time: Optional[float] = None
        self.begin_round(0)

    def _build_network(self) -> None:
        n = self.params.num_nodes
        # Backbone path guarantees reachability; extra edges add alternatives.
        for m in range(n - 1):
            self._add_road(m, m + 1)
        for m in range(n):
            for k in range(m + 1, n):
                if k != m + 1 and self._rng.random() < self.params.edge_prob:
                    self._add_road(m, k)

    def _add_road(self, m: int, n: int) -> None:
        lo_t, hi_t = self.params.tau_range
        lo = self._rng.uniform(lo_t, hi_t)
        hi = self._rng.uniform(lo, hi_t)
        self.roads[(m, n)] = (lo, max(hi, lo))

    def _base(self) -> float:
        if self._base_time is None:
            self._base_time = solve_routing(self.network, self.network.hi)
        return self._base_time

    def begin_round(self, round_idx: int) -> None:
        self.true_tau = self._rng.uniform(self.network.lo, self.network.hi)
        self.times = self.network.hi.copy()

    def marginal_utilities(self) -> np.ndarray:
        """Each road revealed alone at its true time: one row per ED, one solve."""
        rows = np.tile(self.network.hi, (self.num_eds, 1))
        np.fill_diagonal(rows, self.true_tau)
        return np.maximum(self._base() - solve_routing(self.network, rows), 0.0)

    def expected_marginal_utilities(
        self, num_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Mean delta of each road revealed alone at times drawn from history.

        Draws num_samples history rows for ED 0, then ED 1, and so on; each
        ED's draws are solved as one batch.
        """
        base, hi = self._base(), self.network.hi
        draws = rng.integers(0, len(self.history), size=(self.num_eds, num_samples))
        rows = np.tile(hi, (num_samples, 1))
        out = np.empty(self.num_eds)
        for j in range(self.num_eds):
            rows[:, j] = self.history[draws[j], j]
            out[j] = np.mean(np.maximum(base - solve_routing(self.network, rows), 0.0))
            rows[:, j] = hi[j]
        return out

    def ingest(self, selected: Iterable[int]) -> None:
        ids = np.fromiter(selected, dtype=np.intp)
        self.times[ids] = self.true_tau[ids]

    def goal_value(self) -> float:
        return solve_routing(self.network, self.times)

    def payload_bits(self) -> np.ndarray:
        return np.full(self.num_eds, self.params.payload_bits)

    def joint_gain(self, subset: Sequence[int]) -> float:
        ids = np.fromiter(subset, dtype=np.intp)
        times = self.network.hi.copy()
        times[ids] = self.true_tau[ids]
        return self._base() - solve_routing(self.network, times)
