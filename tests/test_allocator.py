"""Budgeted selection: greedy ratio rule, benchmark policies, DP oracle."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from goalrba.allocator import (
    OracleScaleError,
    OracleViolationError,
    allocation_value,
    channel_policy,
    exact_knapsack,
    greedy_allocate,
    make_reports,
    suboptimality_ratio,
    utility_policy,
)
from goalrba.channel import sample_gains
from goalrba.decision import DemandResponseWorkload, DrParams
from goalrba.harness import ChannelConfig
from goalrba.workload import collect_reports


def reports_of(items):
    """Reports for (delta, w) pairs, ED ids 0, 1, ... in order."""
    return make_reports(range(len(items)), [d for d, _ in items], [w for _, w in items])


# Fixed instance with a hand-checked brute-force optimum. Ratios are
# 2.33, 2.25, 1.25, 1.0, 1.2, 1.25; the 2-vs-5 tie breaks toward the lower
# id, so halting greedy stops at item 2 (w=4 exceeds the 3 RBs left).
FIXED = reports_of([(7.0, 3), (4.5, 2), (5.0, 4), (1.0, 1), (6.0, 5), (2.5, 2)])
FIXED_CAP = 8
FIXED_OPT = 15.0  # brute force over all 64 subsets


def brute_force(reports, capacity):
    items = list(zip(reports.delta.tolist(), reports.w.tolist()))
    best = 0.0
    for r in range(len(items) + 1):
        for comb in combinations(items, r):
            if sum(w for _, w in comb) <= capacity:
                best = max(best, sum(d for d, _ in comb))
    return best


def test_fixed_instance_halting_greedy():
    alloc = greedy_allocate(FIXED, FIXED_CAP)
    assert alloc.selected.tolist() == [0, 1]
    assert allocation_value(alloc, FIXED) == pytest.approx(11.5)
    assert alloc.capacity_used == 5


def test_fixed_instance_dp_oracle():
    alloc = exact_knapsack(FIXED, FIXED_CAP)
    assert allocation_value(alloc, FIXED) == pytest.approx(FIXED_OPT)


report_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.integers(min_value=0, max_value=12),
    ),
    min_size=0,
    max_size=10,
)


@given(items=report_lists, capacity=st.integers(min_value=0, max_value=30))
@settings(max_examples=200, deadline=None)
def test_dp_matches_brute_force(items, capacity):
    reports = reports_of(items)
    alloc = exact_knapsack(reports, capacity)
    assert allocation_value(alloc, reports) == pytest.approx(
        brute_force(reports, capacity), abs=1e-9
    )
    assert alloc.capacity_used <= capacity


@given(items=report_lists, capacity=st.integers(min_value=0, max_value=30))
@settings(max_examples=200, deadline=None)
def test_greedy_never_beats_or_overruns_the_oracle(items, capacity):
    reports = reports_of(items)
    opt = brute_force(reports, capacity)
    alloc = greedy_allocate(reports, capacity)
    assert allocation_value(alloc, reports) <= opt + 1e-9
    assert alloc.capacity_used <= capacity


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the hybrid greedy halts at an ED that needs more than the budget",
)
@given(items=report_lists, capacity=st.integers(min_value=0, max_value=30))
@example(items=[(10.0, 12), (1.0, 2), (1.0, 2)], capacity=8)
@settings(max_examples=200, deadline=None)
def test_hybrid_selects_something_whenever_a_live_ed_fits(items, capacity):
    # the example is the README's: the DP selects EDs 1 and 2, hybrid nothing
    reports = reports_of(items)
    if np.any((reports.delta > 0) & (reports.w <= capacity)):
        assert len(greedy_allocate(reports, capacity).selected) > 0


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_small_weight_regime_guarantee(seed, n):
    # every w_j <= eta * capacity with eta = 1/4 gives greedy >= 3/4 of OPT
    rng = np.random.default_rng(seed)
    capacity = 40
    reports = reports_of(
        [(float(rng.uniform(0, 10)), int(rng.integers(1, 11))) for _ in range(n)]
    )
    greedy_val = allocation_value(greedy_allocate(reports, capacity), reports)
    opt = brute_force(reports, capacity)
    assert suboptimality_ratio(greedy_val, opt) >= 0.75 - 1e-12


def test_greedy_is_input_order_invariant():
    rng = np.random.default_rng(5)
    reports = reports_of(
        [(float(rng.uniform(0, 5)), int(rng.integers(1, 6))) for _ in range(9)]
    )
    base = greedy_allocate(reports, 10)
    for _ in range(10):
        order = rng.permutation(len(reports))
        shuffled = make_reports(reports.ed_id[order], reports.delta[order], reports.w[order])
        assert greedy_allocate(shuffled, 10).selected.tolist() == base.selected.tolist()


def test_zero_delta_items_are_dropped():
    reports = reports_of([(0.0, 1), (1.0, 1)])
    assert greedy_allocate(reports, 10).selected.tolist() == [1]
    assert exact_knapsack(reports, 10).selected.tolist() == [1]


def test_zero_weight_items_ride_free():
    reports = reports_of([(2.0, 0), (1.0, 5)])
    alloc = greedy_allocate(reports, 0)
    assert alloc.selected.tolist() == [0]
    assert alloc.capacity_used == 0


def test_channel_policy_orders_by_gain():
    gains = np.array([0.1, 5.0, 2.0, 9.0])
    reports = reports_of([(1.0, 2)] * 4)
    alloc = channel_policy(gains, reports, capacity=4)
    assert alloc.selected.tolist() == [1, 3]


def test_channel_policy_skips_non_fitting():
    gains = np.array([9.0, 5.0, 2.0])
    reports = reports_of([(1.0, 6), (1.0, 3), (1.0, 2)])
    # best-gain ED does not fit; the benchmark keeps going
    alloc = channel_policy(gains, reports, capacity=5)
    assert alloc.selected.tolist() == [1, 2]


def test_channel_policy_ranks_nan_gains_last_by_ed_id():
    # NaN sorts after every number and ties with NaN; whatever order the
    # reports come in, the NaN-gain EDs are taken by ascending ed_id
    n = 30
    gains = np.full(n, np.nan)
    gains[5] = 1.0
    reports = make_reports(np.arange(n)[::-1], np.ones(n), np.full(n, 2))
    assert channel_policy(gains, reports, capacity=8).selected.tolist() == [0, 1, 2, 5]


def test_utility_policy_orders_by_delta():
    reports = reports_of([(1.0, 1), (9.0, 4), (5.0, 1)])
    alloc = utility_policy(reports, capacity=5)
    assert alloc.selected.tolist() == [1, 2]


def test_suboptimality_ratio_edges():
    assert suboptimality_ratio(0.0, 0.0) == 1.0
    assert suboptimality_ratio(3.0, 4.0) == pytest.approx(0.75)
    with pytest.raises(OracleViolationError):
        suboptimality_ratio(4.0 + 1e-6, 4.0)


def test_dp_scale_guard():
    reports = reports_of([(1.0, 1)] * 200)
    with pytest.raises(OracleScaleError):
        exact_knapsack(reports, capacity=10_000)


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        greedy_allocate(reports_of([]), -1)
    with pytest.raises(ValueError):
        exact_knapsack(reports_of([]), -1)


def test_report_validation():
    with pytest.raises(ValueError):
        make_reports([0], [-1.0], [1])
    with pytest.raises(ValueError):
        make_reports([0], [1.0], [-1])
    # NaN > 0 is False, so every policy would silently drop such an ED
    with pytest.raises(ValueError, match="delta must not be NaN, got NaN for ED 7"):
        make_reports([3, 7], [1.0, np.nan], [1, 1])
    # a column of another length is not broadcast into the report buffer
    with pytest.raises(ValueError, match="one shape"):
        make_reports([0, 1], [1.0], [1, 1])


def reference_fill(items, capacity, key, halt_on_overflow):
    """List-based sort-and-fill over (ed_id, delta, w) tuples: the oracle for
    the array policies. Returns (ascending selected ids, capacity_used)."""
    ordered = sorted((r for r in items if r[1] > 0), key=key)
    picked = [r for r in ordered if r[2] == 0]
    remaining = capacity
    for r in (r for r in ordered if r[2] > 0):
        if r[2] > remaining:
            if halt_on_overflow:
                break
            continue
        picked.append(r)
        remaining -= r[2]
    return sorted(r[0] for r in picked), sum(r[2] for r in picked)


def numpy_order(value, ed_id):
    """Sort key that orders like numpy: NaN after every number, -0.0 equal
    to 0.0, ties by ed_id."""
    nan = bool(np.isnan(value))
    return (nan, 0.0 if nan else value, ed_id)


# Small integer deltas, demands and gains make ratio, delta and gain ties
# common; zero deltas and zero demands are drawn too. Gains of 0.0 and -0.0
# give channel keys that compare equal with different signs, and NaN gains
# sort last. Up to 60 EDs against a budget of 0 to n RBs leave more than
# capacity + 1 candidates most of the time, so the policies sort only the
# head of the order, with ties and NaN keys on both sides of its last key,
# and the non-halting policies skip an ED, refill several times and go on
# past the head.
policy_instances = st.integers(min_value=0, max_value=60).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)),
        st.lists(st.integers(0, 6).map(float), min_size=n, max_size=n),
        st.lists(st.integers(0, 8), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, np.nan]), min_size=n, max_size=n),
        st.integers(0, n),
    )
)


def ratio_key(r):
    return numpy_order(-(r[1] / r[2]) if r[2] > 0 else -np.inf, r[0])


def assert_policies_match_the_list_reference(reports, gains, capacity):
    items = list(zip(reports.ed_id.tolist(), reports.delta.tolist(), reports.w.tolist()))
    cases = [
        (greedy_allocate(reports, capacity), ratio_key, True),
        (channel_policy(gains, reports, capacity),
         lambda r: numpy_order(-gains[r[0]], r[0]), False),
        (utility_policy(reports, capacity), lambda r: numpy_order(-r[1], r[0]), False),
    ]
    for alloc, key, halt in cases:
        assert ((alloc.selected.tolist(), alloc.capacity_used)
                == reference_fill(items, capacity, key, halt))


@given(instance=policy_instances)
@settings(max_examples=500, deadline=None)
def test_array_policies_match_the_list_reference(instance):
    ids, deltas, ws, gains, capacity = instance
    assert_policies_match_the_list_reference(make_reports(ids, deltas, ws), np.array(gains),
                                             capacity)


@given(instance=policy_instances)
@settings(max_examples=300, deadline=None)
def test_policies_read_a_strided_report_view_as_its_contiguous_copy(instance):
    ids, deltas, ws, gains, capacity = instance
    columns = [np.array(ids, dtype=np.int64)[::2], np.array(deltas)[::2],
               np.array(ws, dtype=np.int64)[::2]]
    assert len(columns[0]) < 2 or not any(c.flags.c_contiguous for c in columns)
    view = make_reports(*columns)
    copy = make_reports(*(c.copy() for c in columns))
    gains = np.array(gains)
    for policy in (greedy_allocate, utility_policy,
                   lambda reports, c: channel_policy(gains, reports, c)):
        a, b = policy(view, capacity), policy(copy, capacity)
        assert (a.selected.tolist(), a.capacity_used) == (b.selected.tolist(), b.capacity_used)
    assert_policies_match_the_list_reference(view, gains, capacity)


@given(instance=policy_instances)
@settings(max_examples=300, deadline=None)
def test_every_policy_selects_an_ascending_int64_id_array(instance):
    # the one selection format every workload ingests: reported ED ids,
    # strictly ascending, whose demands add up to capacity_used
    ids, deltas, ws, gains, capacity = instance
    reports = make_reports(ids, deltas, ws)
    demand = dict(zip(ids, ws))
    for alloc in (greedy_allocate(reports, capacity), utility_policy(reports, capacity),
                  channel_policy(np.array(gains), reports, capacity),
                  exact_knapsack(reports, capacity)):
        selected = alloc.selected
        assert isinstance(selected, np.ndarray)
        assert selected.dtype == np.int64 and selected.ndim == 1
        assert np.all(np.diff(selected) > 0)
        assert set(selected.tolist()) <= demand.keys()
        assert sum(demand[j] for j in selected.tolist()) == alloc.capacity_used <= capacity


def test_baselines_go_on_past_the_sorted_head():
    # capacity 3: the head is the 4 largest deltas; the 3 largest need 10 RBs
    # each, so only delta 6 fits there, and 5 and 4 fill the rest from past it
    reports = reports_of([(9.0, 10), (8.0, 10), (7.0, 10), (6.0, 1), (5.0, 1), (4.0, 1),
                          (3.0, 1)])
    alloc = utility_policy(reports, capacity=3)
    assert alloc.selected.tolist() == [3, 4, 5]
    assert alloc.capacity_used == 3
    # the halting greedy stops inside the head: ratios 6, 5, 4, 3 come first
    assert greedy_allocate(reports, capacity=3).selected.tolist() == [3, 4, 5]


def test_head_takes_every_tie_at_its_last_key():
    # capacity 2: the head ends at the third-smallest key, where the five
    # delta-2 EDs tie; reported in reverse order, they are still taken by
    # ascending ed_id, and the halting greedy reaches them
    reports = make_reports([6, 5, 4, 3, 2, 1, 0], [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0],
                           np.ones(7, dtype=int))
    assert greedy_allocate(reports, capacity=2).selected.tolist() == [0, 1]
    assert utility_policy(reports, capacity=2).selected.tolist() == [0, 1]


def test_policies_match_the_list_reference_on_a_paper_scale_market():
    # demand response at J=15000: about 10,000 paid candidates for 1000 RBs
    wl = DemandResponseWorkload(DrParams(num_eds=15000), seed=3)
    wl.begin_round()
    gains = sample_gains(np.random.default_rng(4), wl.num_eds)
    reports = collect_reports(wl, wl.marginal_utilities(), gains, ChannelConfig(capacity=1000))
    assert np.count_nonzero((reports.delta > 0) & (reports.w > 0)) > 5000
    assert_policies_match_the_list_reference(reports, gains, 1000)
