"""Robust load shedding: LP oracle agreement, marginal identities."""

import dataclasses
import gc
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from goalrba import decision
from goalrba.decision import (
    DemandResponseWorkload,
    DrInstance,
    DrParams,
    InfeasibleDrError,
    dr_marginal_utilities,
    solve_dr,
)
from goalrba.harness import ChannelConfig, ScenarioConfig, build_workload, load_config, run_scenario


def reference_solve_dr(instance: DrInstance, cap):
    """The one-ED-at-a-time dispatch loop that the fold in solve_dr replaced."""
    if instance.pi_min == 0:
        return 0.0, np.zeros(instance.num_eds)
    if cap.sum() < instance.pi_min - 1e-12:
        raise InfeasibleDrError("insufficient shedding capacity")
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


def dr_marginal_utility(instance: DrInstance, ed_id: int, value: float) -> float:
    """Reference re-solve: cost with everything unknown minus cost with only
    ed_id revealed, at value."""
    cap = instance.xi_lo.copy()
    cap[ed_id] = value
    cost_base, _ = solve_dr(instance)
    cost_rev, _ = solve_dr(instance, cap)
    return max(cost_base - cost_rev, 0.0)


def reference_dr_marginal_utilities(instance: DrInstance, values) -> np.ndarray:
    """dr_marginal_utilities as it was written in ED order: every ED's rank
    in the dispatch order, gathers at the active EDs' ranks, and np.where
    pairs for the prefix sums before rank 0. The floats and the order in
    which they combine are those of the dispatch-order version."""
    values = np.asarray(values, dtype=float)
    J = instance.num_eds
    if instance.pi_min == 0:
        return np.zeros(J)
    if instance.xi_lo.sum() < instance.pi_min - 1e-12:
        raise InfeasibleDrError("insufficient shedding capacity in the base scenario")
    order = np.lexsort((np.arange(J), instance.costs))
    q = np.empty(J, dtype=int)
    q[order] = np.arange(J)
    c = instance.costs[order]
    u = instance.xi_lo[order]
    P, CP = np.cumsum(u), np.cumsum(c * u)
    need = instance.pi_min
    T = int(np.searchsorted(P, need - 1e-12, side="left"))
    base_cost = float((CP[T - 1] if T > 0 else 0.0)
                      + c[T] * (need - (P[T - 1] if T > 0 else 0.0)))
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


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def lp_reference(instance: DrInstance, cap) -> float:
    """Continuous-knapsack dispatch via an off-the-shelf LP solver."""
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
    cap = xi_lo.copy()
    for j in range(num_eds):
        if rng.random() < known_frac:
            cap[j] = float(rng.uniform(xi_lo[j], xi_hi[j]))
    return DrInstance(costs, xi_lo, xi_hi, pi_min), cap


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

    cost2, _ = solve_dr(inst, np.array([10.0, 1.0]))
    assert cost2 == pytest.approx(2.0)
    assert dr_marginal_utility(inst, 0, 10.0) == pytest.approx(1.0)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_greedy_dispatch_matches_the_lp(seed):
    rng = np.random.default_rng(seed)
    inst, cap = random_instance(rng, num_eds=int(rng.integers(2, 30)), known_frac=0.3)
    cost, dispatch = solve_dr(inst, cap)
    assert cost == pytest.approx(lp_reference(inst, cap), abs=1e-8)
    # dispatch is feasible and meets the requirement exactly or at the floor
    assert np.all(dispatch >= -1e-12) and np.all(dispatch <= cap + 1e-12)
    assert dispatch.sum() >= inst.pi_min - 1e-9


@st.composite
def dispatch_instances(draw):
    """Instances at the fold's edges: cost ties, zero and below-floor
    capacities, requirements at exact prefix sums, at the total plus less
    than the 1e-12 tolerance, and zero."""
    n = draw(st.integers(1, 12))
    small = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
    costs = np.array(draw(st.lists(small | st.floats(0.0, 5.0), min_size=n, max_size=n)))
    xi_lo = np.array(draw(st.lists(small | st.floats(0.0, 3.0), min_size=n, max_size=n)))
    xi_hi = xi_lo + np.array(draw(st.lists(small | st.floats(0.0, 10.0), min_size=n, max_size=n)))
    cap = xi_lo.copy()
    for j in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
        cap[j] = draw(st.sampled_from([
            xi_lo[j] - 1e-9, xi_lo[j], xi_hi[j], 0.5 * (xi_lo[j] + xi_hi[j]),
            *([0.0] if xi_lo[j] <= 1e-9 else []),
        ]))
    order = np.lexsort((np.arange(n), costs))
    prefix = np.cumsum(cap[order])
    pi_min = draw(st.one_of(
        st.just(0.0),
        st.sampled_from(list(prefix)),
        st.just(float(cap.sum()) + 5e-13),
        st.floats(0.0, 1.0).map(lambda f: f * float(max(cap.sum(), 0.0))),
    ))
    return DrInstance(costs, xi_lo, xi_hi, max(pi_min, 0.0)), cap


@given(case=dispatch_instances())
@settings(max_examples=400, deadline=None)
def test_fold_dispatch_is_the_loop_bit_for_bit(case):
    instance, cap = case
    try:
        expected = reference_solve_dr(instance, cap)
    except InfeasibleDrError:
        with pytest.raises(InfeasibleDrError):
            solve_dr(instance, cap)
        return
    cost, pi = solve_dr(instance, cap)
    assert cost == expected[0]
    np.testing.assert_array_equal(pi, expected[1])


def test_fold_dispatch_takes_every_ed_when_feasible_only_within_tolerance():
    inst = DrInstance(np.array([2.0, 1.0]), np.array([1.0, 1.0]), np.array([2.0, 2.0]),
                      pi_min=2.0 + 1e-13)
    cost, pi = solve_dr(inst)
    np.testing.assert_array_equal(pi, [1.0, 1.0])
    assert cost == 3.0


def test_fold_dispatch_crosses_after_the_base_crossing_at_caps_below_the_floor():
    # the base dispatch meets pi_min = 3 at its third ED; at 1e-9 below each
    # floor the fold is 3e-9 short there and goes on to the fourth
    inst = DrInstance(np.array([4.0, 1.0, 3.0, 2.0, 5.0, 0.5]), np.ones(6), np.full(6, 2.0),
                      pi_min=3.0)
    assert list(inst.tables.order[:inst.base_crossing + 1]) == [5, 1, 3]
    cap = np.full(6, 1.0 - 1e-9)
    cost, pi = solve_dr(inst, cap)
    expected = reference_solve_dr(inst, cap)
    assert cost == expected[0]
    np.testing.assert_array_equal(pi, expected[1])
    assert pi[2] > 0 and pi[0] == pi[4] == 0


def test_known_values_outside_the_support_are_rejected():
    args = (np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([2.0, 2.0]), 1.0)
    inst = DrInstance(*args)
    with pytest.raises(ValueError, match="revealed value 3.0 for ED 1 outside support"):
        solve_dr(inst, np.array([1.5, 3.0]))
    with pytest.raises(ValueError, match="for ED 0 outside support"):
        solve_dr(inst, np.array([1.0 - 2e-9, 1.0]))
    # the tolerance admits a value 1e-9 below the floor
    _, pi = solve_dr(inst, np.array([1.0, 1.0 - 1e-9]))
    np.testing.assert_array_equal(pi, [1.0, 0.0])


def test_market_is_frozen_so_its_cached_tables_stay_its_own():
    inst = DrInstance([1.0, 2.0, 3.0], np.ones(3), np.full(3, 3.0), 1.0)
    assert inst.costs.dtype == float and inst.base_cost == 1.0
    for name, value in (("pi_min", 2.5), ("costs", np.zeros(3))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inst, name, value)
    assert inst.base_cost == solve_dr(inst)[0] == 1.0


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
    inst, _ = random_instance(rng, num_eds=n)
    values = rng.uniform(inst.xi_lo, inst.xi_hi)
    fast = dr_marginal_utilities(inst, values)
    base, _ = solve_dr(inst)
    for j in range(n):
        cap = inst.xi_lo.copy()
        cap[j] = values[j]
        slow = base - solve_dr(inst, cap)[0]
        assert fast[j] == pytest.approx(slow, abs=1e-9)


@st.composite
def marginal_instances(draw):
    """Markets with per-ED floors xi_lo, cost ties, infinite costs and zero
    floors; values below, at and above each floor, at its ceiling, and NaN;
    pi_min at 0, at a dispatch-order prefix sum of the floors, inside, and
    at their sum."""
    n = draw(st.integers(1, 20))
    small = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
    costs = np.array(draw(st.lists(small | st.floats(0.0, 5.0) | st.just(np.inf),
                                   min_size=n, max_size=n)))
    xi_lo = np.array(draw(st.lists(small | st.floats(0.0, 3.0), min_size=n, max_size=n)))
    xi_hi = xi_lo + np.array(draw(st.lists(small | st.floats(0.0, 10.0), min_size=n, max_size=n)))
    values = np.array([
        draw(st.sampled_from([lo - 0.5, lo, np.nextafter(lo, np.inf), 0.5 * (lo + hi), hi,
                              np.nan]))
        for lo, hi in zip(xi_lo, xi_hi)
    ])
    lo_sum = float(xi_lo.sum())
    prefix = np.cumsum(xi_lo[np.lexsort((np.arange(n), costs))])
    pi_min = draw(st.one_of(
        st.just(0.0),
        st.just(lo_sum),
        st.sampled_from(list(prefix)),
        st.floats(0.0, 1.0).map(lambda f: f * lo_sum),
    ))
    return DrInstance(costs, xi_lo, xi_hi, pi_min), values


@given(case=marginal_instances())
@settings(max_examples=400, deadline=None)
def test_dispatch_order_marginals_are_the_ed_order_ones_bit_for_bit(case):
    instance, values = case
    with np.errstate(invalid="ignore"):  # inf - inf where the last ED costs inf
        assert_same_bits(dr_marginal_utilities(instance, values),
                         reference_dr_marginal_utilities(instance, values))


def search_window(instance: DrInstance, values) -> int:
    """Entries of the prefix-sum window that dr_marginal_utilities counts
    below each ED's needle: from the smallest needle's crossing up to the
    base crossing T (-1 when no ED is active)."""
    T, P = instance.base_crossing, instance.tables.P
    da = np.fmax(values[instance.tables.order[:T]] - instance.tables.lo[:T], 0.0)
    if not np.any(da > 0):
        return -1
    start = int(np.searchsorted(P[1:], (instance.pi_min - da - 1e-12).min(), side="left"))
    return T - start


@st.composite
def window_instances(draw):
    """Markets with floors of 0 or 1, so P holds whole numbers and a zero
    floor repeats its predecessor, with cost ties and pi_min at a prefix
    sum. Each value lifts its floor by less than `lift`: a lift of 0.5 can
    not move a crossing, which leaves the window empty; 3 and 40 give
    short windows; 300, with at least 300 unit floors before pi_min,
    widens the window past 256 entries, to the binary-search fallback."""
    lift = draw(st.sampled_from([0.5, 3.0, 40.0, 300.0]))
    n = draw(st.integers(1, 60) if lift < 300 else st.integers(301, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    costs = rng.integers(0, 4, n).astype(float)
    order = np.lexsort((np.arange(n), costs))
    xi_lo = (rng.random(n) >= draw(st.sampled_from([0.0, 0.3, 0.8]))).astype(float)
    values = xi_lo + rng.uniform(0.0, lift, n) * (rng.random(n) < 0.7)
    first = 0
    if lift == 300:
        xi_lo[order[:300]] = 1.0
        values[order[0]] = 300.0 - 1e-6
        first = 300
    pi_min = float(np.cumsum(xi_lo[order])[draw(st.integers(first, n - 1))])
    return DrInstance(costs, xi_lo, xi_lo + lift, pi_min), values, lift


@given(case=window_instances())
@settings(max_examples=200, deadline=None)
def test_window_count_is_the_left_search_bit_for_bit(case):
    instance, values, lift = case
    assert_same_bits(dr_marginal_utilities(instance, values),
                     reference_dr_marginal_utilities(instance, values))
    width = search_window(instance, values)
    if lift == 0.5:
        assert width <= 0
    elif lift == 300:
        assert width >= 256
    else:
        assert width < 256


def test_dispatch_order_marginals_are_the_ed_order_ones_at_paper_scale():
    wl = DemandResponseWorkload(DrParams(num_eds=15000), seed=1)
    for k in range(20):
        wl.begin_round(k)
        fast = wl.marginal_utilities()
        assert_same_bits(fast, reference_dr_marginal_utilities(wl.market, wl.true_xi))
        assert np.count_nonzero(fast) > 5000


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_revealing_a_load_never_hurts(seed):
    # true loads sit at or above the worst-case floor, so information has
    # non-negative value
    rng = np.random.default_rng(seed)
    inst, _ = random_instance(rng, num_eds=int(rng.integers(2, 20)))
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
    assert wl.cap[0] == first[0] and np.array_equal(wl.cap[1:], wl.xi_lo[1:])
    wl.begin_round(1)
    np.testing.assert_array_equal(wl.cap, wl.xi_lo)
    assert not np.array_equal(first, wl.true_xi)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    num_eds=st.integers(min_value=1, max_value=300),
    xi_lo=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    # sorted keeps [0.0, -0.0], which the config rejects; draw what it accepts
    xi_max_range=st.tuples(st.floats(-10.0, 1e6), st.floats(-10.0, 1e6)).map(sorted).filter(
        lambda r: not np.signbit(r[1] - r[0])),
    history_len=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_load_draws_are_generator_uniform_bit_for_bit(seed, num_eds, xi_lo, xi_max_range,
                                                      history_len):
    params = DrParams(num_eds=num_eds, xi_lo=xi_lo, xi_max_range=tuple(xi_max_range),
                      pi_min=0.0, history_len=history_len)
    wl = DemandResponseWorkload(params, seed=seed)
    # the construction replayed with Generator.uniform for every load draw,
    # the history block drawn eagerly
    rng = np.random.default_rng(seed)
    rng.uniform(*params.cost_range, size=num_eds)
    lo = np.full(num_eds, xi_lo)
    hi = np.maximum(rng.uniform(*params.xi_max_range, size=num_eds), xi_lo)
    block = rng.uniform(lo, hi, size=(history_len, num_eds))
    assert_same_bits(wl.true_xi, rng.uniform(lo, hi, size=num_eds))
    # the workload skipped the block, to the same generator state
    assert "initial" not in vars(wl.history)
    assert len(wl.history) == history_len
    assert wl._rng.bit_generator.state == rng.bit_generator.state
    # drawn on first read, it is the eager block, and the stream stays put
    assert_same_bits(wl.history.initial, block)
    assert wl._rng.bit_generator.state == rng.bit_generator.state
    # and the draws that follow: one more history block, then one row
    assert_same_bits(decision._uniform_loads(wl._rng, (history_len, num_eds), wl._xi_span, lo),
                     rng.uniform(lo, hi, size=(history_len, num_eds)))
    wl.begin_round(1)
    assert_same_bits(wl.true_xi, rng.uniform(lo, hi, size=num_eds))
    assert wl._rng.bit_generator.state == rng.bit_generator.state


DR_PRESET = Path(__file__).resolve().parents[1] / "configs" / "demand_response.yaml"


def paper_dr_config(**overrides):
    cfg = load_config(DR_PRESET)
    return dataclasses.replace(cfg, params={"num_eds": 15000}, **overrides)


def test_an_exact_mode_run_never_draws_the_initial_history_block():
    cfg = paper_dr_config(rounds=20)
    wl = build_workload(cfg)
    run_scenario(cfg, workload=wl)
    assert "initial" not in vars(wl.history)
    assert len(wl.history) == 64 + 20


@pytest.mark.parametrize("mode", ["exact", "expected"])
def test_a_dropped_workload_is_freed_without_the_cycle_collector(mode):
    # a history whose block draw held the workload would keep it alive
    # until the cyclic GC ran: 7.7 MB per dropped paper-scale build
    cfg = paper_dr_config(rounds=3, utility_mode=mode, utility_samples=4)
    gc.collect()
    gc.disable()
    try:
        wl = build_workload(cfg)
        run_scenario(cfg, workload=wl)
        if mode == "expected":
            assert "initial" in vars(wl.history)
        ref = weakref.ref(wl)
        del wl
        assert ref() is None
    finally:
        gc.enable()


def history_rows(history):
    """The rows of a DrHistory, stacked: one replay of its reveal log."""
    rows = list(history.initial)
    for ids, values in history.reveals:
        row = rows[-1].copy()
        row[ids] = values
        rows.append(row)
    return np.array(rows)


def test_the_initial_history_block_is_read_only():
    # expected mode caches one gain row per history row, so no row may change
    wl = DemandResponseWorkload(DrParams(num_eds=5, pi_min=2.0, history_len=2), seed=1)
    with pytest.raises(ValueError):
        wl.history.initial[0, 0] = 0.0


def test_history_rows_carry_unrevealed_eds_forward():
    wl = DemandResponseWorkload(DrParams(num_eds=6, pi_min=3.0, history_len=4), seed=3)
    initial = wl.history.initial
    wl.begin_round(0)
    first_xi = wl.true_xi.copy()
    wl.ingest([1, 4])
    wl.begin_round(1)
    second_xi = wl.true_xi.copy()
    wl.ingest([0, 2])
    history = history_rows(wl.history)
    assert history.shape == (6, 6)
    np.testing.assert_array_equal(history[:4], initial)
    row1, row2 = history[4], history[5]
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


def vstack_history(initial, rounds):
    """History built as before: one np.vstack per revealing round."""
    history = initial
    for true_xi, selected in rounds:
        revealed = {j: float(true_xi[j]) for j in selected}
        if revealed:
            row = history[-1].copy()
            for j, v in revealed.items():
                row[j] = v
            history = np.vstack([history, row])
    return history


def test_history_rows_equal_the_vstack_construction():
    wl = DemandResponseWorkload(DrParams(num_eds=9, pi_min=5.0, history_len=3), seed=8)
    initial = wl.history.initial
    rng = np.random.default_rng(0)
    rounds = []
    for k in range(8):
        wl.begin_round(k)
        selected = [] if k == 3 else sorted(rng.choice(9, size=int(rng.integers(1, 9)), replace=False))
        rounds.append((wl.true_xi.copy(), selected))
        wl.ingest(selected)
    expected = vstack_history(initial, rounds)
    history = history_rows(wl.history)
    assert history.shape == expected.shape == (3 + 7, 9)
    np.testing.assert_array_equal(history, expected)


def reference_expected_marginals(wl, num_samples, rng, history=None):
    """Per-sample re-solve: S history draws for each ED, solve each.

    The draws run ED-major, over ED 0's samples, then ED 1's, and so on;
    sample s solves every ED at its s-th draw, and each ED's S deltas are
    averaged as one contiguous row. history defaults to the workload's own
    rows, stacked.
    """
    history = history_rows(wl.history) if history is None else history
    idx = rng.integers(0, len(history), size=(wl.num_eds, num_samples))
    draws = np.take_along_axis(history, idx.T, axis=0)
    inst = DrInstance(wl.costs, wl.xi_lo, wl.xi_max, wl.pi_min)
    deltas = np.array([dr_marginal_utilities(inst, draws[s]) for s in range(num_samples)])
    return np.array([np.mean(row) for row in np.ascontiguousarray(deltas.T)])


def test_expected_marginals_from_the_gain_table_equal_per_sample_re_solves():
    wl = DemandResponseWorkload(DrParams(num_eds=50, pi_min=30.0, history_len=2), seed=6)
    rng = np.random.default_rng(1)
    for k in range(24):
        wl.begin_round(k)
        fast = wl.expected_marginal_utilities(16, np.random.default_rng(k))
        slow = reference_expected_marginals(wl, 16, np.random.default_rng(k))
        np.testing.assert_array_equal(fast, slow)
        assert np.any(fast > 0)
        wl.ingest([] if k % 5 == 4 else rng.choice(50, size=7, replace=False))
    assert len(wl.history) == 2 + 24 - 4  # rounds 4, 9, 14 and 19 reveal nothing


def test_expected_marginals_do_not_depend_on_how_often_they_are_asked_for():
    # the replay row takes one reveal per call on one workload and up to
    # three per call on the other; both give the reference's bits
    params = DrParams(num_eds=40, pi_min=25.0, history_len=3)
    every, third = DemandResponseWorkload(params, seed=9), DemandResponseWorkload(params, seed=9)
    initial = every.history.initial
    rng = np.random.default_rng(2)
    rounds = []
    for k in range(15):
        every.begin_round(k)
        third.begin_round(k)
        asked = every.expected_marginal_utilities(8, np.random.default_rng(k))
        if k % 3 == 2:
            got = third.expected_marginal_utilities(8, np.random.default_rng(k))
            reference = reference_expected_marginals(
                every, 8, np.random.default_rng(k), vstack_history(initial, rounds))
            assert_same_bits(asked, got)
            assert_same_bits(got, reference)
        selected = [] if k % 4 == 3 else rng.choice(40, size=int(rng.integers(1, 12)),
                                                     replace=False)
        rounds.append((every.true_xi.copy(), selected))
        every.ingest(selected)
        third.ingest(selected)
    assert len(every.history) == len(third.history) == 3 + 15 - 3


def test_exact_rounds_grow_the_history_by_their_reveals_alone():
    # 40 exact-mode rounds at J = 5000 that reveal 300 EDs each: the history
    # keeps 16 bytes per revealed ED (its id and load), not a J-length row
    J, rounds, revealed = 5000, 40, 300
    wl = DemandResponseWorkload(DrParams(num_eds=J, history_len=4), seed=2)
    rng = np.random.default_rng(0)
    selections = [np.sort(rng.choice(J, size=revealed, replace=False)) for _ in range(rounds)]
    # the market's caches are built before the count starts
    wl.marginal_utilities()
    wl.goal_value()
    tracemalloc.start()
    try:
        # each round's loads and capacities replace the last round's; the
        # first ones are drawn under the trace, so the count sees them freed
        wl.begin_round(0)
        before = tracemalloc.get_traced_memory()[0]
        for k, selected in enumerate(selections):
            wl.marginal_utilities()
            wl.ingest(selected)
            wl.goal_value()
            wl.begin_round(k + 1)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(wl.history) == 4 + rounds
    row_bytes = J * 8
    assert grown < rounds * revealed * 16 + 2 * row_bytes, grown / row_bytes


def test_workload_expected_marginals_deterministic():
    wl = DemandResponseWorkload(DrParams(num_eds=15, pi_min=10.0), seed=4)
    a = wl.expected_marginal_utilities(32, np.random.default_rng(1))
    b = wl.expected_marginal_utilities(32, np.random.default_rng(1))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("mode", ["exact", "expected"])
def test_dispatch_tables_are_built_once_per_workload(monkeypatch, mode):
    calls = []
    build = decision.dispatch_tables

    def counting(costs, xi_lo):
        calls.append(len(costs))
        return build(costs, xi_lo)

    monkeypatch.setattr(decision, "dispatch_tables", counting)
    cfg = ScenarioConfig(workload="demand_response", rounds=6, seed=2, utility_mode=mode,
                         utility_samples=8, params={"num_eds": 40, "pi_min": 30.0},
                         channel=ChannelConfig(capacity=300))
    wl = build_workload(cfg, seed=np.random.SeedSequence(cfg.seed))
    gains = []
    rows = run_scenario(cfg, workload=wl,
                        round_hook=lambda k, w: gains.append(w.joint_gain([0, 1, 2])))
    # every round revealed something, solved its goal and a joint gain
    assert len(rows) == len(gains) == 6 and all(m.throughput > 0 for m in rows)
    assert calls == [40]


def test_goal_before_a_reveal_is_the_base_cost_solved_once(monkeypatch):
    calls = []
    solve = decision.solve_dr

    def counting(instance, cap=None):
        calls.append(cap is None)
        return solve(instance, cap)

    monkeypatch.setattr(decision, "solve_dr", counting)
    wl = DemandResponseWorkload(DrParams(num_eds=40, pi_min=30.0), seed=9)
    base = solve(wl.market, wl.xi_lo.copy())[0]
    for k in range(3):
        wl.begin_round(k)
        assert wl.goal_value() == base
        wl.ingest([])  # reveals nothing
        assert wl.goal_value() == base
        cap = wl.xi_lo.copy()
        cap[[3, 17]] = wl.true_xi[[3, 17]]
        assert wl.joint_gain([3, 17]) == base - solve(wl.market, cap)[0]
        wl.ingest([3, 17])
        assert wl.goal_value() == solve(wl.market, wl.cap)[0] < base
    # one base solve for the market; one solve per joint gain and per goal
    # after a reveal
    assert calls == [True] + [False] * 6


def test_default_requirement_scales_with_fleet_size():
    assert DrParams(num_eds=15000).resolved_pi_min() == pytest.approx(1e4)
    assert DrParams(num_eds=500).resolved_pi_min() == pytest.approx(1e4 / 30)


def seeded_dr(scale):
    """A demand-response workload sized by scale, with two revealing rounds
    behind it, so its gain table holds replayed rows too."""
    wl = DemandResponseWorkload(
        DrParams(num_eds=10 * scale, pi_min=6.0 * scale, history_len=5), seed=scale)
    for k in range(2):
        wl.ingest(np.arange(k, wl.num_eds, 3))
        wl.begin_round(k + 1)
    return wl


@pytest.mark.parametrize("num_samples", [1, 7, 9, 129, 256])
@pytest.mark.parametrize("scale", [2, 5, 12, 30])
def test_expected_estimate_is_each_eds_mean_of_its_table_draws(scale, num_samples):
    # 7, 9, 129 and 256 samples lie on both sides of numpy's 8-way unrolled
    # and 128-element blocked pairwise sums, which the mean of each ED's
    # draws must take as the per-ED mean does; the draws run over ED 0's
    # samples, then ED 1's, and so on
    workload = seeded_dr(scale)
    sampled = workload.expected_marginal_utilities(num_samples, np.random.default_rng(num_samples))
    gains = workload.history_gains()
    assert gains.shape == (workload.num_eds, len(workload.history))
    draws = np.random.default_rng(num_samples).integers(
        0, len(workload.history), size=(workload.num_eds, num_samples))
    assert sampled.tolist() == [np.mean(gains[j, row]) for j, row in enumerate(draws)]


@pytest.mark.parametrize("scale", [2, 5, 12, 30])
def test_the_gain_table_is_the_per_ed_re_solve_of_each_history_row(scale):
    # the replayed columns too: each is the reference's bits at its row,
    # and within 1e-9 of re-solving the market with that ED alone revealed
    wl = seeded_dr(scale)
    assert_same_bits(wl.marginal_utilities(),
                     reference_dr_marginal_utilities(wl.market, wl.true_xi))
    table, rows = wl.history_gains(), history_rows(wl.history)
    assert table.shape == (wl.num_eds, len(rows)) == (10 * scale, 5 + 2)
    for column, row in zip(table.T, rows):
        assert_same_bits(column, reference_dr_marginal_utilities(wl.market, row))
        assert column.tolist() == pytest.approx(
            [dr_marginal_utility(wl.market, j, v) for j, v in enumerate(row)], abs=1e-9)


SUBSETS = {"none": [], "first": [0], "last": [39], "every_third": list(range(0, 40, 3)),
           "all": list(range(40))}


@pytest.mark.parametrize("subset", list(SUBSETS.values()), ids=list(SUBSETS))
def test_joint_gain_is_the_goal_drop_of_ingesting_the_subset_without_ingesting(subset):
    wl = DemandResponseWorkload(DrParams(num_eds=40, pi_min=30.0), seed=5)
    wl.begin_round(1)
    before, deltas = wl.goal_value(), wl.marginal_utilities()
    gain = wl.joint_gain(subset)
    # nothing was revealed: goal, gains and history are as they were
    assert wl.goal_value() == before
    assert_same_bits(wl.marginal_utilities(), deltas)
    assert len(wl.history) == 64
    if len(subset) == 1:
        assert gain == pytest.approx(deltas[subset[0]], abs=1e-9)
    wl.ingest(subset)
    assert gain == before - wl.goal_value() >= -1e-9


@pytest.mark.parametrize("field", ["cost_range", "xi_max_range"])
@pytest.mark.parametrize("span", [(1.0, 1.0), (0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0)],
                         ids=["ones", "zeros", "minus_zero_to_zero", "minus_zeros"])
def test_a_range_whose_span_is_plus_zero_builds_and_draws(field, span):
    # hi - lo is +0.0 for each, so Generator.uniform takes it; only a span
    # of -0.0 or less is refused
    params = DrParams(**{field: span})
    assert not np.signbit(span[1] - span[0])
    wl = DemandResponseWorkload(params, seed=1)
    wl.begin_round(1)
    if field == "cost_range":
        np.testing.assert_array_equal(wl.costs, span[0])
    else:  # xi_max is raised to xi_lo
        np.testing.assert_array_equal(wl.xi_max, max(span[0], params.xi_lo))
    assert np.isfinite(wl.marginal_utilities()).all()


def test_import_needs_no_package_beyond_numpy_and_yaml():
    code = (
        "import sys, numpy, yaml; before = set(sys.modules); import goalrba; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names)))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "['goalrba']"
