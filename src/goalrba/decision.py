"""Data-driven decision workloads: robust load shedding and vehicle routing.

Both goals are robust min-max costs: unknown ED data is replaced by its worst
case over the empirical support (lower bound for reducible load, upper bound
for travel time). Marginal utility of an ED is the cost drop from revealing
its real-time value alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from .workload import EmptyHistoryError, Workload


class InfeasibleDrError(ValueError):
    """Insufficient shedding capacity: worst-case supply below the threshold."""


class NoPathError(ValueError):
    """No path from source to destination in the road network."""


@dataclass
class DrInstance:
    """Robust load-shedding instance.

    costs: unit cost per ED in $/kW; xi_lo/xi_hi: support of each ED's
    reducible load in kW; pi_min: total required reduction; known: revealed
    real-time loads by ed_id.
    """

    costs: np.ndarray
    xi_lo: np.ndarray
    xi_hi: np.ndarray
    pi_min: float
    known: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=float)
        self.xi_lo = np.asarray(self.xi_lo, dtype=float)
        self.xi_hi = np.asarray(self.xi_hi, dtype=float)
        if np.any(self.xi_lo < 0) or np.any(self.xi_lo > self.xi_hi):
            raise ValueError("support bounds must satisfy 0 <= xi_lo <= xi_hi")
        if self.pi_min < 0:
            raise ValueError(f"pi_min must be non-negative, got {self.pi_min}")
        for j, v in self.known.items():
            if not (self.xi_lo[j] - 1e-9 <= v <= self.xi_hi[j] + 1e-9):
                raise ValueError(f"revealed value {v} for ED {j} outside support")

    @property
    def num_eds(self) -> int:
        return len(self.costs)

    def effective_capacity(self) -> np.ndarray:
        """Worst-case reducible load: revealed value if known, else xi_lo."""
        cap = self.xi_lo.copy()
        for j, v in self.known.items():
            cap[j] = v
        return cap


def solve_dr(instance: DrInstance) -> Tuple[float, np.ndarray]:
    """Minimal-cost load shedding against worst-case capacities.

    Continuous covering problem: dispatch EDs by ascending cost (ties by
    ed_id) until pi_min is met. Returns (cost, per-ED reductions).
    """
    cap = instance.effective_capacity()
    if instance.pi_min == 0:
        return 0.0, np.zeros(instance.num_eds)
    if cap.sum() < instance.pi_min - 1e-12:
        raise InfeasibleDrError(
            f"insufficient shedding capacity: {cap.sum():.6g} < {instance.pi_min:.6g}"
        )
    order = np.lexsort((np.arange(instance.num_eds), instance.costs))
    pi = np.zeros(instance.num_eds)
    remaining = instance.pi_min
    for j in order:
        take = min(cap[j], remaining)
        pi[j] = take
        remaining -= take
        if remaining <= 0:
            break
    return float(instance.costs @ pi), pi


def _sorted_dispatch_tables(instance: DrInstance):
    """Prefix tables of the base (all-unknown) greedy dispatch."""
    J = instance.num_eds
    order = np.lexsort((np.arange(J), instance.costs))
    c = instance.costs[order]
    u = instance.xi_lo[order]
    P = np.cumsum(u)
    CP = np.cumsum(c * u)
    return order, c, u, P, CP


def _base_cost_from_tables(c, P, CP, need) -> Tuple[float, int]:
    T = int(np.searchsorted(P, need - 1e-12, side="left"))
    prev_P = P[T - 1] if T > 0 else 0.0
    prev_CP = CP[T - 1] if T > 0 else 0.0
    return float(prev_CP + c[T] * (need - prev_P)), T


def dr_marginal_utilities(instance: DrInstance, values: np.ndarray) -> np.ndarray:
    """Delta for every ED at once, each revealed alone at values[j].

    Vectorized over the base dispatch's prefix sums; equivalent to J
    independent re-solves of solve_dr.
    """
    values = np.asarray(values, dtype=float)
    J = instance.num_eds
    if instance.pi_min == 0:
        return np.zeros(J)
    base = DrInstance(instance.costs, instance.xi_lo, instance.xi_hi, instance.pi_min)
    if base.xi_lo.sum() < instance.pi_min - 1e-12:
        raise InfeasibleDrError("insufficient shedding capacity in the base scenario")
    order, c, u, P, CP = _sorted_dispatch_tables(base)
    need = instance.pi_min
    base_cost, T = _base_cost_from_tables(c, P, CP, need)

    pos_of = np.empty(J, dtype=int)
    pos_of[order] = np.arange(J)
    q = pos_of  # sorted position of each original ED
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


def dr_marginal_utility(instance: DrInstance, ed_id: int) -> float:
    """Cost with everything unknown minus cost with only ed_id revealed.

    The ED's revealed value must be present in instance.known.
    """
    if ed_id not in instance.known:
        raise KeyError(f"ED {ed_id} has no revealed value in this instance")
    base = DrInstance(instance.costs, instance.xi_lo, instance.xi_hi, instance.pi_min)
    revealed = DrInstance(
        instance.costs,
        instance.xi_lo,
        instance.xi_hi,
        instance.pi_min,
        known={ed_id: instance.known[ed_id]},
    )
    cost_base, _ = solve_dr(base)
    cost_rev, _ = solve_dr(revealed)
    return max(cost_base - cost_rev, 0.0)


@dataclass
class RoutingInstance:
    """Robust shortest-path instance over a directed road network.

    roads: map (m, n) -> (tau_lo, tau_hi) travel-time support; known: revealed
    real-time travel times by road.
    """

    roads: Dict[Tuple[int, int], Tuple[float, float]]
    source: int
    destination: int
    known: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.source == self.destination:
            raise ValueError("source and destination must differ")
        for road, (lo, hi) in self.roads.items():
            if lo < 0 or lo > hi:
                raise ValueError(f"road {road} support must satisfy 0 <= lo <= hi")
        for road, v in self.known.items():
            lo, hi = self.roads[road]
            if not (lo - 1e-9 <= v <= hi + 1e-9):
                raise ValueError(f"revealed time {v} for road {road} outside support")

    def effective_times(self) -> Dict[Tuple[int, int], float]:
        """Worst-case travel time: revealed value if known, else tau_hi."""
        return {
            road: self.known.get(road, hi) for road, (lo, hi) in self.roads.items()
        }


def solve_routing(instance: RoutingInstance) -> Tuple[float, List[int]]:
    """Robust shortest source->destination path under worst-case times."""
    graph = nx.DiGraph()
    for (m, n), w in instance.effective_times().items():
        graph.add_edge(m, n, weight=w)
    try:
        time, path = nx.single_source_dijkstra(
            graph, instance.source, instance.destination, weight="weight"
        )
    except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
        raise NoPathError(
            f"no path from {instance.source} to {instance.destination}"
        ) from exc
    return float(time), path


def routing_marginal_utility(
    instance: RoutingInstance, road: Tuple[int, int]
) -> float:
    """Robust travel time without the revelation minus time with it."""
    if road not in instance.known:
        raise KeyError(f"road {road} has no revealed value in this instance")
    base = RoutingInstance(instance.roads, instance.source, instance.destination)
    revealed = RoutingInstance(
        instance.roads,
        instance.source,
        instance.destination,
        known={road: instance.known[road]},
    )
    time_base, _ = solve_routing(base)
    time_rev, _ = solve_routing(revealed)
    return max(time_base - time_rev, 0.0)


@dataclass
class DrParams:
    """Scenario generator parameters for emergency demand response."""

    num_eds: int = 500
    cost_range: Tuple[float, float] = (0.0, 5.0)
    xi_lo: float = 1.0
    xi_max_range: Tuple[float, float] = (1.0, 30.0)
    pi_min: Optional[float] = None  # default scales 1e4 kW at 15000 EDs
    history_len: int = 64
    payload_bits: float = 512.0  # one 64-byte sensor packet

    def __post_init__(self):
        if self.num_eds < 1:
            raise ValueError(f"num_eds must be at least 1, got {self.num_eds}")
        if self.history_len < 1:
            raise ValueError(f"history_len must be at least 1, got {self.history_len}")
        if self.payload_bits < 0:
            raise ValueError(f"payload_bits must be non-negative, got {self.payload_bits}")

    def resolved_pi_min(self) -> float:
        if self.pi_min is not None:
            return self.pi_min
        return self.num_eds * (1e4 / 15000.0)


class DemandResponseWorkload(Workload):
    """Emergency demand response: each round is a fresh shedding scenario.

    Costs and per-ED maximum reductions are fixed at construction; real-time
    reducible loads are redrawn each round, and a revealed load replaces the
    worst-case lower bound in the robust dispatch.
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
        if self.xi_lo.sum() < self.pi_min:
            raise InfeasibleDrError(
                "worst-case capacity below pi_min; the base scenario is infeasible"
            )
        # Old dataset: past real-time loads, same distribution as fresh ones.
        self.history = self._draw_loads(size=params.history_len)
        self.true_xi = None
        self.known: Dict[int, float] = {}
        self.begin_round(0)

    def _draw_loads(self, size: Optional[int] = None) -> np.ndarray:
        shape = (size, self.num_eds) if size is not None else self.num_eds
        return self._rng.uniform(self.xi_lo, self.xi_max, size=shape)

    def _instance(self, known: Dict[int, float]) -> DrInstance:
        return DrInstance(self.costs, self.xi_lo, self.xi_max, self.pi_min, known=known)

    def begin_round(self, round_idx: int) -> None:
        self.true_xi = self._draw_loads()
        self.known = {}

    def marginal_utilities(self) -> np.ndarray:
        return dr_marginal_utilities(self._instance({}), self.true_xi)

    def expected_marginal_utilities(
        self, num_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Mean delta over per-ED history draws, vectorized across samples."""
        idx = rng.integers(0, len(self.history), size=(num_samples, self.num_eds))
        draws = np.take_along_axis(self.history, idx, axis=0)
        inst = self._instance({})
        return np.mean(
            [dr_marginal_utilities(inst, draws[s]) for s in range(num_samples)], axis=0
        )

    def ingest(self, selected: Iterable[int]) -> None:
        """Reveal the selected EDs' loads and append one history row.

        The new row holds each revealed ED's true load of this round; every
        unrevealed ED carries its value from the previous row forward. The
        empirical distribution that utility_mode: expected samples therefore
        repeats an ED's last value once per round it sits out. No row is
        appended when nothing is revealed.
        """
        revealed = {j: float(self.true_xi[j]) for j in selected}
        self.known.update(revealed)
        if revealed:
            row = self.history[-1].copy()
            for j, v in revealed.items():
                row[j] = v
            self.history = np.vstack([self.history, row])

    def goal_value(self) -> float:
        cost, _ = solve_dr(self._instance(self.known))
        return cost

    def payload_bits(self) -> np.ndarray:
        return np.full(self.num_eds, self.params.payload_bits)

    def joint_gain(self, subset: Sequence[int]) -> float:
        base_cost, _ = solve_dr(self._instance({}))
        revealed = {j: float(self.true_xi[j]) for j in subset}
        joint_cost, _ = solve_dr(self._instance(revealed))
        return base_cost - joint_cost


@dataclass
class RoutingParams:
    """Scenario generator parameters for robust vehicle routing."""

    num_nodes: int = 12
    edge_prob: float = 0.35
    tau_range: Tuple[float, float] = (1.0, 10.0)
    history_len: int = 64
    payload_bits: float = 512.0

    def __post_init__(self):
        if self.num_nodes < 2:
            raise ValueError(f"num_nodes must be at least 2, got {self.num_nodes}")
        if self.payload_bits < 0:
            raise ValueError(f"payload_bits must be non-negative, got {self.payload_bits}")


class RoutingWorkload(Workload):
    """Robust routing: one ED measures one road; reveals shorten the path."""

    def __init__(self, params: RoutingParams, seed):
        self.params = params
        self._rng = np.random.default_rng(seed)
        self.roads: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self.source = 0
        self.destination = params.num_nodes - 1
        self._build_network()
        self.road_list = sorted(self.roads)
        self.num_eds = len(self.road_list)
        lo = np.array([self.roads[r][0] for r in self.road_list])
        hi = np.array([self.roads[r][1] for r in self.road_list])
        self._lo, self._hi = lo, hi
        self.history = self._rng.uniform(lo, hi, size=(params.history_len, self.num_eds))
        self.true_tau = None
        self.known: Dict[Tuple[int, int], float] = {}
        self.begin_round(0)

    def _build_network(self) -> None:
        n = self.params.num_nodes
        lo_t, hi_t = self.params.tau_range
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

    def _instance(self, known) -> RoutingInstance:
        return RoutingInstance(self.roads, self.source, self.destination, known=known)

    def begin_round(self, round_idx: int) -> None:
        self.true_tau = self._rng.uniform(self._lo, self._hi)
        self.known = {}

    def marginal_utilities(self) -> np.ndarray:
        base, _ = solve_routing(self._instance({}))
        out = np.zeros(self.num_eds)
        for ed_id, road in enumerate(self.road_list):
            revealed, _ = solve_routing(self._instance({road: float(self.true_tau[ed_id])}))
            out[ed_id] = max(base - revealed, 0.0)
        return out

    def sample_marginal(self, ed_id: int, rng: np.random.Generator) -> float:
        if len(self.history) == 0:
            raise EmptyHistoryError(f"no empirical distribution: {type(self).__name__} history is empty")
        road = self.road_list[ed_id]
        value = float(self.history[rng.integers(0, len(self.history)), ed_id])
        base, _ = solve_routing(self._instance({}))
        revealed, _ = solve_routing(self._instance({road: value}))
        return max(base - revealed, 0.0)

    def ingest(self, selected: Iterable[int]) -> None:
        for ed_id in selected:
            self.known[self.road_list[ed_id]] = float(self.true_tau[ed_id])

    def goal_value(self) -> float:
        time, _ = solve_routing(self._instance(self.known))
        return time

    def payload_bits(self) -> np.ndarray:
        return np.full(self.num_eds, self.params.payload_bits)

    def joint_gain(self, subset: Sequence[int]) -> float:
        base, _ = solve_routing(self._instance({}))
        revealed = {
            self.road_list[j]: float(self.true_tau[j]) for j in subset
        }
        joint, _ = solve_routing(self._instance(revealed))
        return base - joint
