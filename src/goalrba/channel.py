"""OFDMA uplink rate model: per-RB deliverable bits, RB demand, Rayleigh gains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 15 RBs per 0.5 ms slot, 2000 slots per 1 s scheduling interval.
DEFAULT_INTERVAL_RB_CAPACITY = 15 * 2000


class UnreachableEdError(ValueError):
    """ED unreachable: zero per-RB rate, cannot satisfy any payload."""


@dataclass(frozen=True)
class RbParams:
    """Resource-block grid parameters.

    t: RB time duration in seconds.
    B: RB bandwidth in Hz.
    noise_power: the product B*sigma^2 in watts (stored as one quantity).
    """

    t: float = 0.5e-3
    B: float = 180e3
    noise_power: float = 1.0

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError(f"RB duration must be positive, got {self.t}")
        if self.B <= 0:
            raise ValueError(f"RB bandwidth must be positive, got {self.B}")
        if self.noise_power <= 0:
            raise ValueError(f"noise power must be positive, got {self.noise_power}")


@dataclass(frozen=True)
class EdRadio:
    """Per-ED radio parameters: transmit power and minimum reliable payload."""

    ed_id: int
    p: float = 1.0
    r_min: float = 512.0

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError(f"transmit power must be positive, got {self.p}")
        if self.r_min < 0:
            raise ValueError(f"r_min must be non-negative, got {self.r_min}")


def rb_bits(gain: float, ed: EdRadio, rb: RbParams) -> float:
    """Bits one RB delivers to an ED at the given power gain.

    t*B*log2(1 + g*p / (B*sigma^2)); zero at zero gain.
    """
    if gain < 0:
        raise ValueError(f"gain must be non-negative, got {gain}")
    return rb.t * rb.B * np.log2(1.0 + gain * ed.p / rb.noise_power)


def rb_demand(ed: EdRadio, per_rb: float) -> int:
    """Minimum RB count granting the ED its reliable payload r_min.

    Ceiling so that w RBs always cover r_min exactly or with slack.
    """
    if ed.r_min == 0:
        return 0
    if per_rb <= 0:
        raise UnreachableEdError(f"ED {ed.ed_id} unreachable: zero per-RB rate")
    return int(np.ceil(ed.r_min / per_rb))


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
