"""OFDMA uplink rate model: per-RB deliverable bits, RB demand, Rayleigh gains."""

from __future__ import annotations

import numpy as np

# 15 RBs per 0.5 ms slot, 2000 slots per 1 s scheduling interval.
DEFAULT_INTERVAL_RB_CAPACITY = 15 * 2000


class UnreachableEdError(ValueError):
    """ED unreachable: zero per-RB rate, cannot satisfy any payload."""


def rb_bits(gain, channel, *, out=None):
    """Bits one RB delivers at power gain(s) `gain` on `channel`.

    t*B*log2(1 + g*p / (B*sigma^2)) with the RB duration t, bandwidth B,
    transmit power p and noise power B*sigma^2 (one quantity) of `channel`,
    a harness.ChannelConfig, which holds them positive; zero at zero gain.
    `gain` may be a scalar or an array, and the result has its shape: a
    fresh array (np.float64 for a scalar), or `out`, a float array the
    rates are written into and which is returned. A negative gain is a
    ValueError, and so is a NaN gain, named by its first (flat) index: its
    rate would be NaN, which no ED can be scheduled on.
    """
    gain = np.asarray(gain, dtype=float)
    # NaN fails the comparison too, as the minimum of an array holding one.
    if not gain.min(initial=np.inf) >= 0:
        nan = np.isnan(gain)
        if nan.any():
            raise ValueError(f"gain must not be NaN, got NaN at index {np.flatnonzero(nan)[0]}")
        raise ValueError(f"gain must be non-negative, got {gain.min()}")
    # 1 + g*p/N, its log2 and the scale, in that order, in one array.
    bits = np.empty(gain.shape) if out is None else out
    np.multiply(gain, channel.tx_power_w, out=bits)
    bits /= channel.noise_power_w
    bits += 1.0
    np.log2(bits, out=bits)
    bits *= channel.rb_time_s * channel.rb_bandwidth_hz
    return bits if out is not None or bits.ndim else bits[()]


def rb_demand(r_min, per_rb, *, out=None):
    """Minimum RB count granting a reliable payload of r_min bits.

    Ceiling so that w RBs always cover r_min exactly or with slack; a zero
    payload needs no RB even at zero rate. Scalars or arrays (broadcast).
    The counts are a fresh int64 array (np.int64 for scalars), or `out`,
    an int64 array of the broadcast shape they are written into and which
    is returned. A demand that is not finite or does not fit in int64 is a
    ValueError naming r_min and the per-RB rate, not a wrapped count.
    """
    r_min, per_rb = np.broadcast_arrays(np.asarray(r_min, dtype=float),
                                        np.asarray(per_rb, dtype=float))
    least = r_min.min(initial=np.inf)
    if not least >= 0:
        raise ValueError(f"r_min must be non-negative, got {least}")
    # Only a rate that is not positive can leave a sending ED unreachable.
    if not per_rb.min(initial=np.inf) > 0 and np.any((r_min > 0) & (per_rb <= 0)):
        raise UnreachableEdError("ED unreachable: zero per-RB rate")
    # One division over the full arrays; an ED with no payload needs no RB
    # whatever its rate (0/0 is NaN), so its demand is set to zero after.
    demand = np.empty(r_min.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(r_min, per_rb, out=demand)
        np.ceil(demand, out=demand)
    if not least > 0:
        demand[r_min == 0] = 0.0
    # 2**63 is exact in float64, and NaN fails the comparison too, as the
    # maximum of an array holding one.
    if not demand.max(initial=0.0) < 2.0**63:
        i = np.flatnonzero(~(demand < 2.0**63))[0]
        raise ValueError(
            f"RB demand of r_min={r_min.flat[i]:g} bits at {per_rb.flat[i]:g} "
            f"bits per RB is {demand.flat[i]:g}, beyond an int64 count"
        )
    if out is None:
        return demand.astype(np.int64)[()]
    np.copyto(out, demand, casting="unsafe")
    return out


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
    return np.square(amplitude, out=amplitude)
