"""OFDMA uplink rate model: per-RB deliverable bits, RB demand, Rayleigh gains."""

from __future__ import annotations

import numpy as np

# 15 RBs per 0.5 ms slot, 2000 slots per 1 s scheduling interval.
DEFAULT_INTERVAL_RB_CAPACITY = 15 * 2000


class UnreachableEdError(ValueError):
    """ED unreachable: zero per-RB rate, cannot satisfy any payload."""


def rb_bits(gain, channel):
    """Bits one RB delivers at power gain(s) `gain` on `channel`.

    t*B*log2(1 + g*p / (B*sigma^2)) with the RB duration t, bandwidth B,
    transmit power p and noise power B*sigma^2 (one quantity) of `channel`,
    a harness.ChannelConfig, which holds them positive; zero at zero gain.
    `gain` may be a scalar or an array, and the result has its shape. A
    negative gain is a ValueError, and so is a NaN gain, named by its first
    (flat) index: its rate would be NaN, which no ED can be scheduled on.
    """
    gain = np.asarray(gain, dtype=float)
    # NaN fails the comparison too.
    if not np.all(gain >= 0):
        nan = np.isnan(gain)
        if nan.any():
            raise ValueError(f"gain must not be NaN, got NaN at index {np.flatnonzero(nan)[0]}")
        raise ValueError(f"gain must be non-negative, got {gain.min()}")
    return channel.rb_time_s * channel.rb_bandwidth_hz * np.log2(
        1.0 + gain * channel.tx_power_w / channel.noise_power_w)


def rb_demand(r_min, per_rb):
    """Minimum RB count granting a reliable payload of r_min bits.

    Ceiling so that w RBs always cover r_min exactly or with slack; a zero
    payload needs no RB even at zero rate. Scalars or arrays (broadcast).
    A demand that is not finite or does not fit in int64 is a ValueError
    naming r_min and the per-RB rate, not a wrapped count.
    """
    r_min, per_rb = np.broadcast_arrays(np.asarray(r_min, dtype=float),
                                        np.asarray(per_rb, dtype=float))
    if not np.all(r_min >= 0):
        raise ValueError(f"r_min must be non-negative, got {r_min.min()}")
    sending = r_min > 0
    if np.any(sending & (per_rb <= 0)):
        raise UnreachableEdError("ED unreachable: zero per-RB rate")
    # One division over the full arrays; an ED with no payload needs no RB
    # whatever its rate (0/0 is NaN), so its demand is set to zero after.
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


def sample_gains(seed, num_eds: int) -> np.ndarray:
    """Draw i.i.d. power gains for one scheduling interval.

    Amplitude is Rayleigh with scale 1; power gain is its square
    (exponential with mean 2). Deterministic given the seed, which may be
    an int or a numpy SeedSequence/Generator.
    """
    if num_eds < 1:
        raise ValueError(f"num_eds must be at least 1, got {num_eds}")
    rng = np.random.default_rng(seed)
    amplitude = rng.rayleigh(scale=1.0, size=num_eds)
    return amplitude**2
