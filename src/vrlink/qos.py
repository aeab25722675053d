"""Delay chain and multi-attribute utility.

Total delay is transmission (payload over DL rate plus tracking vector over
UL rate) + processing (workload over per-user compute share) + M/M/1 queue
wait. Utility is the product of a delay-tolerance factor and a tracking
-accuracy factor, each in [0, 1].

The pipeline works on stacks of link windows, one link's subcarriers on the
last axis: ``transmission_delay`` and ``link_utilities`` compute every
subcarrier of every window with array arithmetic. The tests state the
utility one subcarrier at a time (tests/oracles.py) and hold the window path
to that statement bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError


@dataclass(frozen=True)
class TrafficModel:
    """Per-user traffic and service parameters."""

    s_bits: float      # DL payload bits per frame
    a_bits: float      # UL tracking vector bits
    v_bits: float      # rendering workload
    m_capacity: float  # AP processing limit, work units/s
    n_share: float     # per-user processing share divisor
    mu: float          # queue service rate
    lam: float         # queue arrival rate

    def __post_init__(self):
        if not self.s_bits > 0:
            raise ConfigurationError(f"s_bits must be positive, got {self.s_bits}")
        if not self.a_bits > 0:
            raise ConfigurationError(f"a_bits must be positive, got {self.a_bits}")
        if not 0 <= self.v_bits <= self.s_bits:
            raise ConfigurationError(
                f"v_bits must lie in [0, s_bits], got {self.v_bits} with s_bits {self.s_bits}"
            )
        # every link's delay adds these two, so they must be finite; the
        # functions reject a capacity, share or queue they cannot evaluate
        delays = processing_delay(self.v_bits, self.m_capacity, self.n_share) + queue_delay(self.mu, self.lam)
        if not math.isfinite(delays):
            raise ConfigurationError(f"processing plus queue delay must be finite, got {delays}")


def transmission_delay(s_bits: float, a_bits: float, rate_dl, rate_ul):
    """Over-the-air time: payload over the DL rate, tracking over the UL rate.

    rate_ul is one rate, one link's per-subcarrier rates, or a stack of such
    windows on its last axis; rate_dl is one rate per window and broadcasts
    against it (shape (..., 1) for a stack). The delay has the broadcast
    shape; a zero rate never completes the transfer, so its delay is inf, as
    is one past the float range. A negative or NaN rate is invalid.
    """
    dl, ul = np.asarray(rate_dl, dtype=float), np.asarray(rate_ul, dtype=float)
    if not (np.all(dl >= 0) and np.all(ul >= 0)):
        raise InvalidInputError("rates must be non-negative numbers")
    with np.errstate(divide="ignore", over="ignore"):
        return s_bits / dl + a_bits / ul


def processing_delay(v_bits: float, m_capacity: float, n_share: float) -> float:
    """Rendering time against the per-user compute share m_capacity/n_share."""
    if not m_capacity > 0:
        raise ConfigurationError(f"processing capacity must be positive, got {m_capacity}")
    if not n_share > 0:
        raise ConfigurationError(f"processing share must be positive, got {n_share}")
    if v_bits < 0:
        raise InvalidInputError(f"workload must be non-negative, got {v_bits}")
    share = m_capacity / n_share
    if not share > 0:
        raise ConfigurationError(f"compute share m_capacity/n_share underflows to 0, got {m_capacity}/{n_share}")
    return v_bits / share


def queue_delay(mu: float, lam: float) -> float:
    """Mean M/M/1 waiting time 1/(mu - lambda)."""
    if not 0 <= lam < mu:
        raise ConfigurationError(f"need 0 <= lambda < mu, got mu={mu} lambda={lam}")
    return 1.0 / (mu - lam)


def link_utilities(
    delays_total: np.ndarray,
    sinrs_ul: np.ndarray,
    gamma_d,
    epsilon0: float,
) -> np.ndarray:
    """Per-subcarrier total utilities for link windows on the last axis.

    delays_total and sinrs_ul are one window or a stack of windows; gamma_d
    is one tolerance or one per window (shape (..., 1)). d_max is the worst
    total delay over a window's subcarriers; the tracking anchor is the
    worst tracking error over the same window. Equal, bit for bit, to the
    scalar ``total_utility(conditional_utility(...), tracking_utility(...))``
    of tests/oracles.py per subcarrier.
    """
    delays = np.asarray(delays_total, dtype=float)
    sinrs = np.asarray(sinrs_ul, dtype=float)
    gamma = np.asarray(gamma_d, dtype=float)
    if delays.shape != sinrs.shape or delays.ndim == 0 or delays.shape[-1] == 0:
        raise InvalidInputError("delay and SINR windows must be non-empty and congruent")
    if np.any(delays < 0) or np.any(gamma < 0):
        raise InvalidInputError("delays must be non-negative")
    if np.any(sinrs < 0):
        raise InvalidInputError("SINR must be non-negative")
    if not epsilon0 > 0:
        raise InvalidInputError(f"epsilon0 must be positive, got {epsilon0}")
    d_max = np.max(delays, axis=-1, keepdims=True)
    # a window within the tolerance has factor 1; its divisor is a stand-in
    span = np.where(d_max > gamma, d_max - gamma, 1.0)
    conditional = np.where((delays < gamma) | (d_max <= gamma), 1.0, (d_max - delays) / span)
    errors = epsilon0 / np.sqrt(1.0 + sinrs)
    worst = np.max(errors, axis=-1, keepdims=True)
    # a worst error of 0 makes every error 0, and 1 - 0 / 1 is factor 1
    tracking = 1.0 - errors / np.where(worst == 0.0, 1.0, worst)
    for name, v in (("conditional", conditional), ("tracking", tracking)):
        if not np.all((0.0 <= v) & (v <= 1.0)):
            raise InvalidInputError(f"{name} utility must lie in [0,1]")
    return conditional * tracking
