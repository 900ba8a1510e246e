"""Workload contract plumbing: report collection and the diminishing-returns check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goalrba.allocator import make_reports
from goalrba.channel import rb_bits, rb_demand
from goalrba.decision import (
    DemandResponseWorkload,
    DrParams,
    RoutingParams,
    RoutingWorkload,
    solve_routing,
)
from goalrba.harness import ChannelConfig
from goalrba.workload import Workload, collect_reports, submodular_bound_check


class StubWorkload(Workload):
    """Hand-set deltas and payloads; ingest calls are recorded."""

    def __init__(self, deltas, payloads):
        self.num_eds = len(deltas)
        self.deltas = np.array(deltas, dtype=float)
        self.payloads = np.array(payloads, dtype=float)
        self.ingested = []

    def marginal_utilities(self):
        return self.deltas.copy()

    def ingest(self, selected):
        self.ingested.append(sorted(selected))

    def goal_value(self):
        return 0.0

    def payload_bits(self):
        return self.payloads.copy()


def test_collect_reports_pairs_delta_with_demand():
    wl = StubWorkload(deltas=[2.0, 3.0], payloads=[512.0, 90.0])
    reports = collect_reports(wl, gains=[1.0, 1.0], channel=ChannelConfig())
    assert [(r.ed_id, r.delta, r.w) for r in reports] == [(0, 2.0, 6), (1, 3.0, 1)]


def test_collect_reports_drops_unreachable_eds():
    wl = StubWorkload(deltas=[2.0, 3.0], payloads=[512.0, 512.0])
    reports = collect_reports(wl, gains=[0.0, 1.0], channel=ChannelConfig())
    assert [r.ed_id for r in reports] == [1]


def test_collect_reports_rejects_a_nan_gain_instead_of_dropping_its_ed():
    # A NaN gain used to give a NaN rate, and the ED left the reports as if
    # unreachable, without a word.
    wl = StubWorkload(deltas=[1.0, 2.0, 3.0, 4.0], payloads=[512.0] * 4)
    with pytest.raises(ValueError, match="gain must not be NaN, got NaN at index 1"):
        collect_reports(wl, gains=[1.0, np.nan, 2.0, 0.5], channel=ChannelConfig())


def test_collect_reports_keeps_each_reachable_eds_own_delta_and_demand():
    # Every ED reachable (the arrays go whole, with no gather), then one
    # unreachable: the rest keep their own delta and demand.
    wl = StubWorkload(deltas=[2.0, -1.0, 3.0, 4.0], payloads=[512.0, 0.0, 512.0, 90.0])
    channel = ChannelConfig()
    every = collect_reports(wl, gains=[1.0, 0.0, 3.0, 1.0], channel=channel)
    assert [(r.ed_id, r.delta, r.w) for r in every] == [
        (0, 2.0, 6), (1, 0.0, 0), (2, 3.0, 3), (3, 4.0, 1)]
    some = collect_reports(wl, gains=[1.0, 0.0, 0.0, 1.0], channel=channel)
    assert [(r.ed_id, r.delta, r.w) for r in some] == [(0, 2.0, 6), (1, 0.0, 0), (3, 4.0, 1)]


def test_collect_reports_clamps_negative_deltas():
    wl = StubWorkload(deltas=[-4.0], payloads=[512.0])
    reports = collect_reports(wl, gains=[1.0], channel=ChannelConfig())
    assert reports.delta[0] == 0.0


def gathered_reports(workload, gains, channel):
    """collect_reports as a gather of the reachable EDs, whoever is reachable."""
    deltas, r_min = workload.marginal_utilities(), workload.payload_bits()
    per_rb = rb_bits(gains, channel)
    ids = np.flatnonzero((r_min == 0) | (per_rb > 0))
    return make_reports(ids, np.maximum(deltas[ids], 0.0), rb_demand(r_min[ids], per_rb[ids]))


# Every ED reachable: a zero gain only where the payload is zero. Deltas
# include negatives and -0.0, which are clamped; payloads include zeros.
all_reachable = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.lists(
        st.tuples(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0]),
                  st.sampled_from([0.0, 90.0, 512.0, 4096.0]),
                  st.sampled_from([0.0, 0.25, 1.0, 7.0])).filter(lambda e: e[1] == 0 or e[2] > 0),
        min_size=n, max_size=n,
    )
)


@given(eds=all_reachable)
@settings(max_examples=200, deadline=None)
def test_collect_reports_of_reachable_eds_equals_the_gathering_reference(eds):
    deltas, payloads, gains = np.array(eds, dtype=float).reshape(-1, 3).T
    channel = ChannelConfig()
    got = collect_reports(StubWorkload(deltas, payloads), gains, channel)
    want = gathered_reports(StubWorkload(deltas, payloads), gains, channel)
    assert len(got) == len(want) == len(eds)
    for name in ("ed_id", "delta", "w"):
        column, expected = getattr(got, name), getattr(want, name)
        assert column.dtype == expected.dtype and column.flags.c_contiguous
        assert column.tobytes() == expected.tobytes()
    # iteration yields each entry of the columns as Python scalars
    rows = list(got)
    assert rows == list(zip(got.ed_id.tolist(), got.delta.tolist(), got.w.tolist()))
    assert all(type(r.ed_id) is int and type(r.delta) is float and type(r.w) is int
               for r in rows)


def test_collect_reports_rejects_unknown_mode():
    wl = StubWorkload(deltas=[1.0], payloads=[512.0])
    with pytest.raises(ValueError):
        collect_reports(wl, gains=[1.0], channel=ChannelConfig(), mode="oracle")


def test_expected_mode_is_deterministic_given_seed():
    wl = RoutingWorkload(RoutingParams(num_nodes=8), seed=2)
    gains = np.ones(wl.num_eds)
    kwargs = dict(gains=gains, channel=ChannelConfig(), mode="expected", num_samples=64)
    a = collect_reports(wl, seed=11, **kwargs)
    b = collect_reports(wl, seed=11, **kwargs)
    assert [(r.ed_id, r.delta) for r in a] == [(r.ed_id, r.delta) for r in b]
    c = collect_reports(wl, seed=12, **kwargs)
    assert [r.delta for r in a] != [r.delta for r in c]


def test_expected_marginal_utility_converges_to_the_mean():
    # the Monte Carlo mean of one ED tends to the mean, over history rows,
    # of its road revealed alone at that row's time
    wl = RoutingWorkload(RoutingParams(num_nodes=6, history_len=32), seed=4)
    hi = wl.network.hi
    base = solve_routing(wl.network, hi)
    rows = np.tile(hi, (len(wl.history), 1))
    deltas = []
    for j in range(wl.num_eds):
        rows[:, j] = wl.history[:, j]
        deltas.append(np.maximum(base - solve_routing(wl.network, rows), 0.0))
        rows[:, j] = hi[j]
    j = int(np.argmax([d.std() for d in deltas]))
    assert deltas[j].std() > 0
    est = wl.expected_marginal_utilities(4000, np.random.default_rng(3))
    # within four standard errors for the most variable ED, exact for the rest
    assert abs(est[j] - deltas[j].mean()) <= 4 * deltas[j].std() / np.sqrt(4000)
    for k, d in enumerate(deltas):
        if d.std() == 0:
            assert est[k] == d[0]


HISTORY_WORKLOADS = pytest.mark.parametrize("make", [
    lambda: DemandResponseWorkload(DrParams(num_eds=6, pi_min=3.0), seed=0),
    lambda: RoutingWorkload(RoutingParams(num_nodes=5), seed=0),
], ids=["demand_response", "routing"])


@HISTORY_WORKLOADS
@pytest.mark.parametrize("via", ["direct", "collect_reports"])
def test_expected_mode_needs_at_least_one_sample(make, via):
    workload = make()
    gains = np.ones(workload.num_eds)
    with pytest.raises(ValueError, match="num_samples must be at least 1"):
        if via == "direct":
            workload.expected_marginal_utilities(0, np.random.default_rng(1))
        else:
            collect_reports(workload, gains, ChannelConfig(), mode="expected", num_samples=0,
                            seed=1)


@HISTORY_WORKLOADS
def test_history_gains_are_read_only(make):
    workload = make()
    table = workload.history_gains()
    kept = table.copy()
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    workload.expected_marginal_utilities(8, np.random.default_rng(0))
    assert workload.history_gains().tobytes() == kept.tobytes()


def test_throughput_default_counts_selected():
    wl = StubWorkload(deltas=[1.0, 1.0, 1.0], payloads=[1.0] * 3)
    assert wl.throughput([0, 2]) == 2
    assert wl.throughput([]) == 0


def test_expected_marginals_unimplemented_by_default():
    class Bare(Workload):
        num_eds = 1

        def marginal_utilities(self):
            return np.ones(1)

        def ingest(self, selected):
            pass

        def goal_value(self):
            return 0.0

        def payload_bits(self):
            return np.ones(1)

    with pytest.raises(NotImplementedError):
        Bare().history_gains()
    with pytest.raises(NotImplementedError):
        Bare().expected_marginal_utilities(4, np.random.default_rng(0))
    with pytest.raises(NotImplementedError):
        Bare().joint_gain([0])


def test_submodular_bound_on_the_decision_workload():
    wl = DemandResponseWorkload(DrParams(num_eds=8, pi_min=5.5), seed=1)
    lhs, rhs, holds = submodular_bound_check(wl, list(range(8)))
    assert holds
    assert lhs <= rhs + 1e-9


def test_submodular_bound_empty_subset():
    wl = DemandResponseWorkload(DrParams(num_eds=4, pi_min=3.0), seed=0)
    assert submodular_bound_check(wl, []) == (0.0, 0.0, True)
