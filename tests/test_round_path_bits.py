"""The demand-response round path against its multi-pass bodies, bit for bit.

rb_bits, rb_demand, sample_gains, make_reports, collect_reports, the three
policies, dr_marginal_utilities, solve_dr and DemandResponseWorkload's
begin_round compute each quantity in one pass, into a buffer where they can.
The multipass_* functions here are their bodies from before that rewrite,
with one fresh array per operation. Each test holds a rewritten function to
its body: the same bytes (dtype, shape and signs included), or the same
exception type and message. The last test plays 30 rounds at J = 15000
under every policy on both paths and compares every report column,
allocation and goal value, round by round.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from goalrba import decision
from goalrba.allocator import (Allocation, Reports, _check_capacity, _take_in_order,
                               channel_policy, greedy_allocate, make_reports, utility_policy)
from goalrba.channel import UnreachableEdError, rb_bits, rb_demand, sample_gains
from goalrba.decision import (DemandResponseWorkload, DrInstance, DrParams, InfeasibleDrError,
                              dr_marginal_utilities, solve_dr)
from goalrba.harness import ChannelConfig, _seed_streams, build_workload, load_config
from goalrba.workload import Workload, collect_reports

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ---- the multi-pass bodies ----------------------------------------------

def multipass_rb_bits(gain, channel):
    gain = np.asarray(gain, dtype=float)
    # NaN fails the comparison too.
    if not np.all(gain >= 0):
        nan = np.isnan(gain)
        if nan.any():
            raise ValueError(f"gain must not be NaN, got NaN at index {np.flatnonzero(nan)[0]}")
        raise ValueError(f"gain must be non-negative, got {gain.min()}")
    return channel.rb_time_s * channel.rb_bandwidth_hz * np.log2(
        1.0 + gain * channel.tx_power_w / channel.noise_power_w)


def multipass_rb_demand(r_min, per_rb):
    r_min, per_rb = np.broadcast_arrays(np.asarray(r_min, dtype=float),
                                        np.asarray(per_rb, dtype=float))
    if not np.all(r_min >= 0):
        raise ValueError(f"r_min must be non-negative, got {r_min.min()}")
    sending = r_min > 0
    if np.any(sending & (per_rb <= 0)):
        raise UnreachableEdError("ED unreachable: zero per-RB rate")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        demand = np.where(sending, np.ceil(r_min / per_rb), 0.0)
    # 2**63 is exact in float64, and NaN fails the comparison too.
    overflow = ~(demand < 2.0**63)
    if overflow.any():
        i = np.flatnonzero(overflow)[0]
        raise ValueError(
            f"RB demand of r_min={r_min.flat[i]:g} bits at {per_rb.flat[i]:g} "
            f"bits per RB is {demand.flat[i]:g}, beyond an int64 count"
        )
    return demand.astype(np.int64)[()]


def multipass_sample_gains(seed, num_eds):
    if num_eds < 1:
        raise ValueError(f"num_eds must be at least 1, got {num_eds}")
    rng = np.random.default_rng(seed)
    amplitude = rng.rayleigh(scale=1.0, size=num_eds)
    return amplitude**2


def multipass_make_reports(ed_id, delta, w):
    ed_id = np.ascontiguousarray(ed_id, dtype=np.int64)
    delta = np.ascontiguousarray(delta, dtype=float)
    w = np.ascontiguousarray(w, dtype=np.int64)
    if not ed_id.shape == delta.shape == w.shape:
        raise ValueError(f"ed_id, delta and w must have one shape, got "
                         f"{ed_id.shape}, {delta.shape} and {w.shape}")
    # NaN fails the comparison too.
    if not np.all(delta >= 0):
        nan = np.isnan(delta)
        if nan.any():
            raise ValueError(f"delta must not be NaN, got NaN for ED {ed_id[nan][0]}")
        raise ValueError(f"delta must be non-negative, got {delta.min()}")
    if np.any(w < 0):
        raise ValueError(f"w must be non-negative, got {w.min()}")
    return Reports(ed_id, delta, w)


def multipass_collect_reports(workload, deltas, gains, channel):
    r_min = workload.payload_bits()
    per_rb = multipass_rb_bits(gains, channel)
    reachable = (r_min == 0) | (per_rb > 0)
    if reachable.all():
        ids = np.arange(len(reachable))
    else:
        ids = np.flatnonzero(reachable)
        deltas, r_min, per_rb = deltas[ids], r_min[ids], per_rb[ids]
    return multipass_make_reports(ids, np.maximum(deltas, 0.0, out=deltas),
                                  multipass_rb_demand(r_min, per_rb))


def multipass_fill_budget(reports, capacity, key, *, halt_on_overflow):
    _check_capacity(capacity)
    ed_id, delta, w = reports.ed_id, reports.delta, reports.w
    live = delta > 0
    paid = np.flatnonzero(live & (w > 0))
    ed_id_p, w_p = ed_id[paid], w[paid]
    keys = key(ed_id_p, delta[paid], w_p)

    def in_order(part):
        order = part[np.lexsort((ed_id_p[part], keys[part]))]
        return ed_id_p[order], w_p[order]

    head, tail = np.arange(len(keys)), None
    if len(keys) > capacity + 1:
        v = np.partition(keys, capacity)[capacity]
        if not np.isnan(v):
            in_head = keys <= v
            head, tail = np.flatnonzero(in_head), ~in_head
    picked = [ed_id[live & (w == 0)]]
    remaining = _take_in_order(*in_order(head), capacity, halt_on_overflow, picked)
    if tail is not None and not halt_on_overflow and remaining > 0:
        later = np.flatnonzero(tail & (w_p <= remaining))
        remaining = _take_in_order(*in_order(later), remaining, False, picked)
    return Allocation(selected=np.sort(np.concatenate(picked)), capacity_used=capacity - remaining)


def multipass_greedy_allocate(reports, capacity):
    return multipass_fill_budget(
        reports, capacity, lambda ed_id, delta, w: -(delta / w), halt_on_overflow=True
    )


def multipass_channel_policy(gains, reports, capacity):
    gains = np.asarray(gains, dtype=float)
    return multipass_fill_budget(
        reports, capacity, lambda ed_id, delta, w: -gains[ed_id], halt_on_overflow=False
    )


def multipass_utility_policy(reports, capacity):
    return multipass_fill_budget(reports, capacity, lambda ed_id, delta, w: -delta,
                                 halt_on_overflow=False)


def multipass_solve_dr(instance, cap=None):
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
        take = take[: T + 1]
        take[T] = remaining[T]
    pi = np.zeros(J)
    pi[order[: len(take)]] = take
    return float(instance.costs @ pi), pi


def multipass_dr_marginal_utilities(instance, values):
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
    da = np.fmax(values[tables.order[:T]] - tables.lo[:T], 0.0)
    active = da > 0
    if not np.any(active):
        return gains
    needles = need - da - 1e-12
    start = int(np.searchsorted(P[1:], needles.min(), side="left"))
    window = P[1 + start : T + 1]
    if len(window) < 256:
        below = np.less.outer(window, needles).view(np.uint8).sum(axis=0, dtype=np.uint8)
    else:
        below = np.searchsorted(window, needles, side="left")
    q = np.arange(T)
    Tp = np.maximum(q, np.add(below, start, dtype=np.intp))
    prev_P, prev_CP = P[Tp], CP[Tp]
    new_cost = np.where(
        Tp == q,
        instance.stay_costs,
        prev_CP + c[:T] * da + c[Tp] * (need - prev_P - da),
    )
    gains[tables.order[:T]] = np.where(active, np.maximum(base_cost - new_cost, 0.0), 0.0)
    return gains


def multipass_begin_round(wl):
    wl.true_xi = decision._uniform_loads(wl._rng, wl.num_eds, wl._xi_span, wl.xi_lo)
    wl.cap = wl.xi_lo.copy()
    wl._revealed = False


# ---- comparing outcomes ---------------------------------------------------

def outcome(fn, *args, **kwargs):
    """What fn returns, down to its bytes and signs, or the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            value = fn(*args, **kwargs)
    except Exception as exc:  # the type and message are what is compared
        return ("raises", type(exc), str(exc))
    return described(value)


def described(value):
    if isinstance(value, tuple):
        return tuple(described(v) for v in value)
    if isinstance(value, Reports):
        return ("reports",) + tuple(described(getattr(value, name))
                                    for name in ("ed_id", "delta", "w"))
    if isinstance(value, Allocation):
        return ("allocation", described(value.selected), value.capacity_used)
    if isinstance(value, np.ndarray):
        return (type(value), value.dtype, value.shape, value.tobytes())
    return (type(value), np.asarray(value).tobytes())


CHANNELS = st.sampled_from([
    ChannelConfig(),
    ChannelConfig(rb_time_s=1e-3, rb_bandwidth_hz=15e3, noise_power_w=1e-9, tx_power_w=0.2),
    ChannelConfig(noise_power_w=3.0, tx_power_w=1e-300),
])
GAINS = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.25, 1.0, 2.0, 7.5, 1e300, np.inf,
                         -0.5, np.nan]) | st.floats(0.0, 50.0)


@given(gains=st.lists(GAINS, max_size=12), channel=CHANNELS, scalar=st.booleans())
@settings(max_examples=400, deadline=None)
@example(gains=[0.0], channel=ChannelConfig(), scalar=True)
@example(gains=[1.0, np.nan, -1.0, np.nan], channel=ChannelConfig(), scalar=False)
@example(gains=[1.0, -0.5], channel=ChannelConfig(), scalar=False)
def test_rb_bits_is_its_multipass_body(gains, channel, scalar):
    gain = gains[0] if scalar and gains else gains
    expected = outcome(multipass_rb_bits, gain, channel)
    assert outcome(rb_bits, gain, channel) == expected
    if scalar and gains and expected[0] != "raises":
        assert expected[0] is np.float64
    if expected[0] != "raises" and not scalar:
        out = np.full(len(gains), -1.0)
        with np.errstate(over="ignore"):
            assert rb_bits(gain, channel, out=out) is out
        assert described(out) == expected


RATES = st.sampled_from([0.0, -0.0, -1.0, 1e-320, 0.5, 90.0, 512.0, 1e300, np.inf,
                         np.nan]) | st.floats(1e-3, 1e5)
PAYLOADS = st.sampled_from([0.0, -0.0, -1.0, 1.0, 90.0, 512.0, 2.0**63, 2.0**63 - 1024,
                            1e300, np.inf, np.nan]) | st.floats(0.0, 1e7)


@given(pairs=st.lists(st.tuples(PAYLOADS, RATES), max_size=10), form=st.sampled_from(
    ["arrays", "scalars", "scalar payload"]))
@settings(max_examples=500, deadline=None)
@example(pairs=[(0.0, 0.0), (512.0, 90.0), (0.0, np.inf), (0.0, -1.0)], form="arrays")
@example(pairs=[(512.0, 0.0)], form="scalars")
@example(pairs=[(0.0, 0.0), (0.0, 3.0), (512.0, 90.0), (1e300, 45.0)], form="arrays")
@example(pairs=[(0.0, 0.0), (512.0, np.nan)], form="arrays")
@example(pairs=[(2.0**63, 1.0)], form="scalars")
@example(pairs=[(np.nan, 90.0)], form="scalars")
def test_rb_demand_is_its_multipass_body(pairs, form):
    r_min = [p for p, _ in pairs]
    per_rb = [r for _, r in pairs]
    if form == "scalars" and pairs:
        r_min, per_rb = r_min[0], per_rb[0]
    elif form == "scalar payload" and pairs:
        r_min = r_min[0]
    expected = outcome(multipass_rb_demand, r_min, per_rb)
    assert outcome(rb_demand, r_min, per_rb) == expected
    if form == "scalars" and pairs and expected[0] != "raises":
        assert expected[0] is np.int64
    if expected[0] != "raises" and form != "scalars":
        out = np.full(len(pairs), -7, dtype=np.int64)
        assert rb_demand(r_min, per_rb, out=out) is out
        assert described(out) == expected


@given(seed=st.integers(0, 2**32 - 1), num_eds=st.integers(-1, 300))
@settings(max_examples=100, deadline=None)
def test_sample_gains_is_its_multipass_body(seed, num_eds):
    assert outcome(sample_gains, seed, num_eds) == outcome(multipass_sample_gains, seed, num_eds)


DELTAS = st.sampled_from([0.0, -0.0, -2.0, 0.5, 3.0, np.inf, np.nan])


@given(rows=st.lists(st.tuples(st.integers(0, 99), DELTAS, st.integers(-2, 9)), max_size=12))
@settings(max_examples=300, deadline=None)
def test_make_reports_is_its_multipass_body(rows):
    columns = [list(c) for c in zip(*rows)] or [[], [], []]
    assert outcome(make_reports, *columns) == outcome(multipass_make_reports, *columns)


class Stub(Workload):
    """Hand-set payloads; the deltas are handed to collect_reports directly."""

    def __init__(self, payloads):
        self.num_eds = len(payloads)
        self.payloads = np.array(payloads, dtype=float)

    def marginal_utilities(self):
        raise NotImplementedError

    def ingest(self, selected):
        pass

    def goal_value(self):
        return 0.0

    def payload_bits(self):
        return self.payloads.copy()


# Zero gains with payloads are unreachable EDs, dropped from the reports;
# a NaN gain or a negative payload is an error.
ED_ROWS = st.lists(
    st.tuples(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0]),
              st.sampled_from([0.0, 90.0, 512.0, 4096.0, -1.0]),
              st.sampled_from([0.0, 0.25, 1.0, 7.0, np.nan])),
    max_size=12,
)


@given(first=ED_ROWS, again=st.lists(st.sampled_from([0.0, 0.25, 1.0, 7.0]), max_size=12),
       channel=CHANNELS)
@settings(max_examples=400, deadline=None)
@example(first=[(1.0, 512.0, 0.0), (2.0, 0.0, 0.0), (3.0, 512.0, 1.0)], again=[1.0, 1.0, 0.0],
         channel=ChannelConfig())
@example(first=[(1.0, 512.0, 1.0), (2.0, 512.0, np.nan)], again=[], channel=ChannelConfig())
def test_collect_reports_is_its_multipass_body_round_after_round(first, again, channel):
    # A second round on the same workload writes the same buffers again;
    # each round's reports are compared before the next round starts.
    deltas, payloads, gains = (np.array(c, dtype=float) for c in zip(*first)) if first else (
        np.zeros(0), np.zeros(0), np.zeros(0))
    workload, twin = Stub(payloads), Stub(payloads)
    rounds = [gains, np.resize(np.array(again, dtype=float), len(first))]
    for round_gains in rounds:
        expected = outcome(multipass_collect_reports, twin, deltas.copy(), round_gains, channel)
        assert outcome(collect_reports, workload, deltas.copy(), round_gains, channel) == expected


policy_instances = st.integers(min_value=0, max_value=60).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)),
        st.lists(st.integers(0, 6).map(float), min_size=n, max_size=n),
        st.lists(st.integers(0, 8), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, np.nan]), min_size=n, max_size=n),
        st.integers(0, n),
    )
)


@given(instance=policy_instances, ascending=st.booleans())
@settings(max_examples=400, deadline=None)
def test_policies_are_their_multipass_bodies(instance, ascending):
    ids, deltas, ws, gains, capacity = instance
    if ascending:
        ids = sorted(ids)
    reports = make_reports(ids, deltas, ws)
    gains = np.array(gains)
    for policy, body in ((greedy_allocate, multipass_greedy_allocate),
                         (utility_policy, multipass_utility_policy),
                         (lambda r, c: channel_policy(gains, r, c),
                          lambda r, c: multipass_channel_policy(gains, r, c))):
        assert outcome(policy, reports, capacity) == outcome(body, reports, capacity)


@st.composite
def dr_cases(draw):
    """Markets with cost ties, infinite costs and zero floors; values below,
    at and above each floor, at its ceiling, and NaN; capacities at the
    floor, a hair below it, inside, at or past the ceiling; pi_min at 0, at
    a prefix sum of the floors, inside, at their sum and beyond it."""
    n = draw(st.integers(1, 20))
    small = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
    costs = np.array(draw(st.lists(small | st.floats(0.0, 5.0) | st.just(np.inf),
                                   min_size=n, max_size=n)))
    xi_lo = np.array(draw(st.lists(small | st.floats(0.0, 3.0), min_size=n, max_size=n)))
    xi_hi = xi_lo + np.array(draw(st.lists(small | st.floats(0.0, 10.0), min_size=n, max_size=n)))
    values = np.array([draw(st.sampled_from([lo - 0.5, lo, np.nextafter(lo, np.inf),
                                             0.5 * (lo + hi), hi, np.nan]))
                       for lo, hi in zip(xi_lo, xi_hi)])
    cap = np.array([draw(st.sampled_from([lo, lo - 1e-9, lo - 1e-6, 0.5 * (lo + hi), hi,
                                          hi + 1e-9, hi + 1.0, np.nan]))
                    for lo, hi in zip(xi_lo, xi_hi)])
    lo_sum = float(xi_lo.sum())
    prefix = np.cumsum(xi_lo[np.lexsort((np.arange(n), costs))])
    pi_min = draw(st.one_of(st.just(0.0), st.just(lo_sum), st.sampled_from(list(prefix)),
                            st.floats(0.0, 1.0).map(lambda f: f * lo_sum),
                            st.just(lo_sum + 1.0)))
    return DrInstance(costs, xi_lo, xi_hi, pi_min), values, cap


@given(case=dr_cases())
@settings(max_examples=500, deadline=None)
def test_dr_marginals_and_dispatch_are_their_multipass_bodies(case):
    instance, values, cap = case
    # the caches of one market are shared by both sides, as in a run
    assert (outcome(dr_marginal_utilities, instance, values)
            == outcome(multipass_dr_marginal_utilities, instance, values))
    assert outcome(solve_dr, instance) == outcome(multipass_solve_dr, instance)
    assert outcome(solve_dr, instance, cap) == outcome(multipass_solve_dr, instance, cap)


def test_dispatch_folds_past_its_first_chunks_as_its_multipass_body():
    # 5000 EDs whose requirement is met only near the end of the dispatch
    # order, so the fold runs through several of its chunks
    rng = np.random.default_rng(3)
    J = 5000
    instance = DrInstance(rng.uniform(0, 5, J), np.full(J, 1.0), rng.uniform(1, 30, J), 4990.0)
    for cap in (instance.xi_lo, rng.uniform(instance.xi_lo, instance.xi_hi)):
        assert outcome(solve_dr, instance, cap) == outcome(multipass_solve_dr, instance, cap)
    assert (outcome(solve_dr, instance, instance.xi_lo * 0.5)
            == outcome(multipass_solve_dr, instance, instance.xi_lo * 0.5))


def test_begin_round_draws_what_its_multipass_body_draws():
    params = DrParams(num_eds=200, pi_min=100.0)
    wl, twin = DemandResponseWorkload(params, seed=5), DemandResponseWorkload(params, seed=5)
    for k in range(6):
        wl.begin_round()
        multipass_begin_round(twin)
        assert described(wl.true_xi) == described(twin.true_xi)
        assert described(wl.cap) == described(twin.cap)
        selected = np.arange(k, 200, 7)
        wl.ingest(selected)
        twin.ingest(selected)
        assert described(wl.cap) == described(twin.cap)
        assert wl.goal_value() == twin.goal_value()


@pytest.mark.parametrize("policy", ["hybrid", "channel", "utility"])
def test_paper_scale_rounds_are_the_multipass_rounds(policy):
    # 30 rounds at J = 15000, exact mode: every report column, allocation
    # and goal value of the round loop's path equals the multi-pass path's
    cfg = dataclasses.replace(
        load_config(CONFIGS / "demand_response.yaml", ["params.num_eds=15000"]),
        policy=policy, utility_mode="exact")
    workload, twin = build_workload(cfg), build_workload(cfg)
    gains_seed = _seed_streams(cfg.seed)[1]
    rng, twin_rng = np.random.default_rng(gains_seed), np.random.default_rng(gains_seed)
    capacity = cfg.channel.capacity
    allocate = {"hybrid": lambda g, r: greedy_allocate(r, capacity),
                "channel": lambda g, r: channel_policy(g, r, capacity),
                "utility": lambda g, r: utility_policy(r, capacity)}[policy]
    twin_allocate = {"hybrid": lambda g, r: multipass_greedy_allocate(r, capacity),
                     "channel": lambda g, r: multipass_channel_policy(g, r, capacity),
                     "utility": lambda g, r: multipass_utility_policy(r, capacity)}[policy]
    for k in range(30):
        workload.begin_round()
        multipass_begin_round(twin)
        gains, twin_gains = sample_gains(rng, 15000), multipass_sample_gains(twin_rng, 15000)
        assert described(gains) == described(twin_gains), k
        reports = collect_reports(workload, workload.marginal_utilities(), gains, cfg.channel)
        twin_reports = multipass_collect_reports(
            twin, multipass_dr_marginal_utilities(twin.market, twin.true_xi), twin_gains,
            cfg.channel)
        assert described(reports) == described(twin_reports), k
        allocation = allocate(gains, reports)
        assert described(allocation) == described(twin_allocate(twin_gains, twin_reports)), k
        assert workload.goal_value() == multipass_solve_dr(twin.market)[0], k
        workload.ingest(allocation.selected)
        twin.ingest(allocation.selected)
        assert workload.goal_value() == multipass_solve_dr(twin.market, twin.cap)[0], k
