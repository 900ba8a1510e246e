"""Rate model: per-RB bits, RB demand ceilings, Rayleigh gain sampling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from goalrba.channel import (
    DEFAULT_INTERVAL_RB_CAPACITY,
    UnreachableEdError,
    rb_bits,
    rb_demand,
    sample_gains,
)
from goalrba.harness import ChannelConfig


def test_interval_capacity_is_15_rbs_times_2000_slots():
    assert DEFAULT_INTERVAL_RB_CAPACITY == 30000


def test_rb_bits_hand_values():
    # 0.5 ms * 180 kHz * log2(1 + snr): 90 bits at snr 1, 180 at snr 3.
    channel = ChannelConfig()
    assert rb_bits(1.0, channel) == pytest.approx(90.0, rel=1e-12)
    assert rb_bits(3.0, channel) == pytest.approx(180.0, rel=1e-12)
    # the array form gives the scalar values elementwise
    np.testing.assert_allclose(rb_bits([1.0, 3.0], channel), [90.0, 180.0], rtol=1e-12)


def test_rb_bits_zero_gain_and_negative_gain():
    channel = ChannelConfig()
    assert rb_bits(0.0, channel) == 0.0
    with pytest.raises(ValueError):
        rb_bits(-0.1, channel)
    with pytest.raises(ValueError):
        rb_bits([1.0, -0.1], channel)


def test_rb_bits_rejects_a_nan_gain_by_its_first_index():
    # NaN fails no `gain < 0` test; its rate would be NaN, not a number of bits
    channel = ChannelConfig()
    with pytest.raises(ValueError, match="NaN at index 0"):
        rb_bits(np.nan, channel)
    with pytest.raises(ValueError, match="NaN at index 1"):
        rb_bits([1.0, np.nan, 2.0, np.nan], channel)
    # a NaN ahead of a negative gain is still named as the NaN
    with pytest.raises(ValueError, match="NaN at index 2"):
        rb_bits([1.0, -0.5, np.nan], channel)


def test_rb_bits_scales_with_power():
    # doubling tx power at fixed gain raises the log argument, not linearly
    low = rb_bits(1.0, ChannelConfig(tx_power_w=1.0))
    high = rb_bits(1.0, ChannelConfig(tx_power_w=3.0))
    assert high == pytest.approx(2 * low, rel=1e-12)


def test_rb_demand_hand_value():
    # 512 bits at 90 bits per RB: ceil(5.688) = 6
    assert rb_demand(512.0, 90.0) == 6
    # the array form gives the scalar values elementwise
    np.testing.assert_array_equal(rb_demand(512.0, [90.0, 180.0, 512.0]), [6, 3, 1])


def test_rb_demand_zero_payload_needs_nothing():
    assert rb_demand(0.0, 90.0) == 0
    # even an unreachable ED with nothing to send costs nothing
    assert rb_demand(0.0, 0.0) == 0
    np.testing.assert_array_equal(rb_demand([0.0, 512.0], [0.0, 90.0]), [0, 6])
    np.testing.assert_array_equal(
        rb_demand([0.0, 512.0, 0.0, 0.0], [0.0, 90.0, np.inf, -1.0]), [0, 6, 0, 0])


def test_rb_demand_unreachable():
    with pytest.raises(UnreachableEdError):
        rb_demand(512.0, 0.0)
    with pytest.raises(UnreachableEdError):
        rb_demand([0.0, 512.0], [90.0, 0.0])


def test_rb_demand_beyond_int64_is_an_error_naming_the_inputs():
    # ceil(1e300 / 90) cast to int64 used to wrap to -2**63
    with pytest.raises(ValueError, match=r"r_min=1e\+300 bits at 90 bits per RB"):
        rb_demand(1e300, 90.0)
    with pytest.raises(ValueError, match=r"r_min=1e\+300 bits at 90 bits per RB"):
        rb_demand([512.0, 1e300], [90.0, 90.0])
    for r_min, per_rb in [(np.inf, 90.0), (512.0, 1e-320), (512.0, np.nan), (2.0**63, 1.0)]:
        with pytest.raises(ValueError, match="beyond an int64 count"):
            rb_demand(r_min, per_rb)
    with pytest.raises(ValueError, match="non-negative"):
        rb_demand(np.nan, 90.0)
    # the largest float demand below 2**63 still fits
    assert rb_demand(2.0**63 - 1024, 1.0) == 2**63 - 1024


def test_rb_demand_overflow_names_the_ed_behind_zero_payloads():
    # The zero-payload EDs ahead of the overflowing one divide nothing; the
    # message must still name the overflowing ED's own r_min and rate, not
    # those of the entry at its position among the sending EDs.
    r_min = [0.0, 0.0, 512.0, 0.0, 1e300, 7e300]
    per_rb = [0.0, 3.0, 90.0, 5.0, 45.0, 90.0]
    with pytest.raises(ValueError, match=r"r_min=1e\+300 bits at 45 bits per RB is 2\.2+2e\+298"):
        rb_demand(r_min, per_rb)
    # the NaN demand of a NaN rate is named the same way
    with pytest.raises(ValueError, match=r"r_min=512 bits at nan bits per RB is nan"):
        rb_demand([0.0, 0.0, 512.0], [0.0, 0.0, np.nan])


@given(
    r_min=st.floats(min_value=1.0, max_value=1e7),
    per_rb=st.floats(min_value=1e-3, max_value=1e5),
)
def test_rb_demand_is_the_minimal_sufficient_count(r_min, per_rb):
    w = rb_demand(r_min, per_rb)
    assert w * per_rb >= r_min * (1 - 1e-12)
    if w > 0:
        assert (w - 1) * per_rb < r_min


def test_sample_gains_deterministic_and_nonnegative():
    a = sample_gains(42, 100)
    b = sample_gains(42, 100)
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= 0)
    assert not np.array_equal(a, sample_gains(43, 100))


def test_sample_gains_mean_is_two():
    # squared Rayleigh(scale 1) amplitude is exponential with mean 2
    g = sample_gains(0, 200000)
    assert g.mean() == pytest.approx(2.0, rel=0.02)


def test_sample_gains_accepts_generator():
    rng = np.random.default_rng(7)
    first = sample_gains(rng, 10)
    second = sample_gains(rng, 10)
    # a shared generator advances, so consecutive draws differ
    assert not np.array_equal(first, second)


def test_param_validation():
    with pytest.raises(ValueError):
        rb_demand(-1.0, 90.0)
