"""Robust load shedding and routing: LP oracle agreement, marginal identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from goalrba.decision import (
    DemandResponseWorkload,
    DrInstance,
    DrParams,
    InfeasibleDrError,
    NoPathError,
    RoutingInstance,
    RoutingWorkload,
    RoutingParams,
    dr_marginal_utilities,
    dr_marginal_utility,
    routing_marginal_utility,
    solve_dr,
    solve_routing,
)


def lp_reference(instance: DrInstance) -> float:
    """Continuous-knapsack dispatch via an off-the-shelf LP solver."""
    cap = instance.effective_capacity()
    res = linprog(
        c=instance.costs,
        A_ub=-np.ones((1, len(cap))),
        b_ub=[-instance.pi_min],
        bounds=list(zip(np.zeros(len(cap)), cap)),
        method="highs",
    )
    assert res.success
    return float(res.fun)


def random_instance(rng, num_eds, known_frac=0.0):
    costs = rng.uniform(0.0, 5.0, size=num_eds)
    xi_lo = np.full(num_eds, 1.0)
    xi_hi = rng.uniform(1.0, 30.0, size=num_eds)
    pi_min = float(rng.uniform(0.5, 0.95) * xi_lo.sum())
    known = {}
    for j in range(num_eds):
        if rng.random() < known_frac:
            known[j] = float(rng.uniform(xi_lo[j], xi_hi[j]))
    return DrInstance(costs, xi_lo, xi_hi, pi_min, known=known)


def test_hand_lp_example():
    # two EDs, costs 1 and 2, both reducible within [1, 10], demand 2:
    # worst case sheds 1 from each at cost 1*1 + 2*1 = 3. Revealing ED 0
    # at 10 lets the cheap ED cover everything: cost 2.
    inst = DrInstance(
        costs=np.array([1.0, 2.0]),
        xi_lo=np.array([1.0, 1.0]),
        xi_hi=np.array([10.0, 10.0]),
        pi_min=2.0,
    )
    cost, dispatch = solve_dr(inst)
    assert cost == pytest.approx(3.0)
    np.testing.assert_allclose(dispatch, [1.0, 1.0])

    revealed = DrInstance(
        costs=inst.costs, xi_lo=inst.xi_lo, xi_hi=inst.xi_hi, pi_min=2.0, known={0: 10.0}
    )
    cost2, _ = solve_dr(revealed)
    assert cost2 == pytest.approx(2.0)
    assert dr_marginal_utility(revealed, 0) == pytest.approx(1.0)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_greedy_dispatch_matches_the_lp(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_eds=int(rng.integers(2, 30)), known_frac=0.3)
    cost, dispatch = solve_dr(inst)
    assert cost == pytest.approx(lp_reference(inst), abs=1e-8)
    # dispatch is feasible and meets the requirement exactly or at the floor
    cap = inst.effective_capacity()
    assert np.all(dispatch >= -1e-12) and np.all(dispatch <= cap + 1e-12)
    assert dispatch.sum() >= inst.pi_min - 1e-9


def test_infeasible_instance_raises():
    inst = DrInstance(
        costs=np.array([1.0]),
        xi_lo=np.array([1.0]),
        xi_hi=np.array([2.0]),
        pi_min=5.0,
    )
    with pytest.raises(InfeasibleDrError):
        solve_dr(inst)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_vectorized_marginals_match_re_solves(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    inst = random_instance(rng, num_eds=n)
    values = rng.uniform(inst.xi_lo, inst.xi_hi)
    fast = dr_marginal_utilities(inst, values)
    base, _ = solve_dr(inst)
    for j in range(n):
        revealed = DrInstance(
            inst.costs, inst.xi_lo, inst.xi_hi, inst.pi_min, known={j: float(values[j])}
        )
        slow = base - solve_dr(revealed)[0]
        assert fast[j] == pytest.approx(slow, abs=1e-9)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_revealing_a_load_never_hurts(seed):
    # true loads sit at or above the worst-case floor, so information has
    # non-negative value
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_eds=int(rng.integers(2, 20)))
    values = rng.uniform(inst.xi_lo, inst.xi_hi)
    assert np.all(dr_marginal_utilities(inst, values) >= -1e-12)


def test_workload_round_flow_and_prop_identity():
    wl = DemandResponseWorkload(DrParams(num_eds=40, pi_min=30.0), seed=9)
    wl.begin_round(0)
    before = wl.goal_value()
    deltas = wl.marginal_utilities()
    wl.ingest([3, 17])
    after = wl.goal_value()
    # realized gain is the decision-cost reduction of the joint reveal
    assert before - after == pytest.approx(wl.joint_gain([3, 17]), abs=1e-9)
    # and is bounded by the summed standalone marginals
    assert before - after <= deltas[3] + deltas[17] + 1e-9


def test_workload_redraws_each_round():
    wl = DemandResponseWorkload(DrParams(num_eds=30, pi_min=20.0), seed=2)
    first = np.array(wl.true_xi)
    wl.ingest([0])
    assert wl.known
    wl.begin_round(1)
    assert wl.known == {}
    assert not np.array_equal(first, wl.true_xi)


def test_history_rows_carry_unrevealed_eds_forward():
    wl = DemandResponseWorkload(DrParams(num_eds=6, pi_min=3.0, history_len=4), seed=3)
    initial = wl.history.copy()
    wl.begin_round(0)
    first_xi = wl.true_xi.copy()
    wl.ingest([1, 4])
    wl.begin_round(1)
    second_xi = wl.true_xi.copy()
    wl.ingest([0, 2])
    assert wl.history.shape == (6, 6)
    np.testing.assert_array_equal(wl.history[:4], initial)
    row1, row2 = wl.history[4], wl.history[5]
    # revealed EDs take this round's true load
    np.testing.assert_array_equal(row1[[1, 4]], first_xi[[1, 4]])
    np.testing.assert_array_equal(row2[[0, 2]], second_xi[[0, 2]])
    # unrevealed EDs repeat their previous row's value
    np.testing.assert_array_equal(row1[[0, 2, 3, 5]], initial[-1, [0, 2, 3, 5]])
    np.testing.assert_array_equal(row2[[1, 4]], first_xi[[1, 4]])
    np.testing.assert_array_equal(row2[[3, 5]], initial[-1, [3, 5]])
    # a round that reveals nothing appends no row
    wl.begin_round(2)
    wl.ingest([])
    assert len(wl.history) == 6


def test_workload_expected_marginals_deterministic():
    wl = DemandResponseWorkload(DrParams(num_eds=15, pi_min=10.0), seed=4)
    a = wl.expected_marginal_utilities(32, np.random.default_rng(1))
    b = wl.expected_marginal_utilities(32, np.random.default_rng(1))
    np.testing.assert_array_equal(a, b)


def test_default_requirement_scales_with_fleet_size():
    assert DrParams(num_eds=15000).resolved_pi_min() == pytest.approx(1e4)
    assert DrParams(num_eds=500).resolved_pi_min() == pytest.approx(1e4 / 30)


def test_routing_hand_graph():
    # detour 0 -> 1 -> 3 at revealed fast times beats the direct road, which
    # sits at its pessimistic 20 while unobserved
    roads = {(0, 1): (1.0, 4.0), (1, 3): (1.0, 4.0), (0, 3): (3.0, 20.0)}
    inst = RoutingInstance(
        roads, source=0, destination=3, known={(0, 1): 1.0, (1, 3): 1.0}
    )
    cost, path = solve_routing(inst)
    assert cost == pytest.approx(2.0)
    assert path == [0, 1, 3]


def test_routing_marginal_utility_hand_values():
    roads = {(0, 1): (1.0, 9.0), (1, 2): (1.0, 9.0), (0, 2): (5.0, 5.0)}
    base, path = solve_routing(RoutingInstance(roads, source=0, destination=2))
    assert base == pytest.approx(5.0) and path == [0, 2]
    # knowing (0,1)=1 alone does not beat the safe road: 1 + 9 > 5
    one_leg = RoutingInstance(roads, 0, 2, known={(0, 1): 1.0})
    assert routing_marginal_utility(one_leg, (0, 1)) == pytest.approx(0.0)
    # a shortcut road drops the robust time from 5 to 2 on its own
    shortcut = {(0, 2): (2.0, 9.0), (0, 1): (1.0, 1.0), (1, 2): (4.0, 4.0)}
    inst = RoutingInstance(shortcut, 0, 2, known={(0, 2): 2.0})
    assert routing_marginal_utility(inst, (0, 2)) == pytest.approx(3.0)
    with pytest.raises(KeyError):
        routing_marginal_utility(inst, (0, 1))


def test_routing_no_path():
    inst = RoutingInstance({(0, 1): (1.0, 2.0)}, source=0, destination=2)
    with pytest.raises(NoPathError):
        solve_routing(inst)


def test_routing_instance_validation():
    with pytest.raises(ValueError):
        RoutingInstance({(0, 1): (1.0, 2.0)}, source=0, destination=0)
    with pytest.raises(ValueError):
        RoutingInstance({(0, 1): (3.0, 2.0)}, source=0, destination=1)
    with pytest.raises(ValueError):
        RoutingInstance({(0, 1): (1.0, 2.0)}, 0, 1, known={(0, 1): 5.0})


def test_routing_workload_rounds_are_consistent():
    wl = RoutingWorkload(RoutingParams(num_nodes=10), seed=3)
    wl.begin_round(0)
    before = wl.goal_value()
    deltas = wl.marginal_utilities()
    assert all(d >= -1e-12 for d in deltas)
    wl.ingest([0, 1])
    assert wl.goal_value() <= before + 1e-9
