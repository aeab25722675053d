"""Delay chain and multi-attribute utility.

Total delay is transmission (payload over DL rate plus tracking vector over
UL rate) + processing (workload over per-user compute share) + M/M/1 queue
wait. Utility is the product of a delay-tolerance factor and a tracking
-accuracy factor, each in [0, 1].

The pipeline works on stacks of link windows, one link's subcarriers on the
last axis: ``transmission_delay`` and ``link_utilities`` compute every
subcarrier of every window with array arithmetic. The scalar
``conditional_utility``, ``tracking_error``, ``tracking_utility`` and
``total_utility`` state the model one subcarrier at a time; the window path
reproduces them bit for bit and the tests hold it to them as oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InfeasibleLinkError, InvalidInputError


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
        if not self.m_capacity > 0:
            raise ConfigurationError(f"m_capacity must be positive, got {self.m_capacity}")
        if not self.n_share > 0:
            raise ConfigurationError(f"n_share must be positive, got {self.n_share}")
        if not self.mu > self.lam:
            raise ConfigurationError(
                f"service rate {self.mu} must exceed arrival rate {self.lam}"
            )


def transmission_delay(s_bits: float, a_bits: float, rate_dl, rate_ul):
    """Over-the-air time: payload over the DL rate, tracking over the UL rate.

    rate_ul is one rate, one link's per-subcarrier rates, or a stack of such
    windows on its last axis; rate_dl is one rate per window and broadcasts
    against it (shape (..., 1) for a stack). The delay has the broadcast
    shape; one past the float range is inf. Any rate that is not positive
    makes the link infeasible.
    """
    if not np.all(np.asarray(rate_dl) > 0) or not np.all(np.asarray(rate_ul) > 0):
        raise InfeasibleLinkError(
            f"link carries no rate (dl={np.min(rate_dl)}, ul={np.min(rate_ul)}), transmission never completes"
        )
    with np.errstate(over="ignore"):
        return s_bits / rate_dl + a_bits / rate_ul


def processing_delay(v_bits: float, m_capacity: float, n_share: float) -> float:
    """Rendering time against the per-user compute share m_capacity/n_share."""
    if not m_capacity > 0:
        raise ConfigurationError(f"processing capacity must be positive, got {m_capacity}")
    if not n_share > 0:
        raise ConfigurationError(f"processing share must be positive, got {n_share}")
    if v_bits < 0:
        raise InvalidInputError(f"workload must be non-negative, got {v_bits}")
    return v_bits / (m_capacity / n_share)


def queue_delay(mu: float, lam: float) -> float:
    """Mean M/M/1 waiting time 1/(mu - lambda)."""
    if not mu > lam:
        raise ConfigurationError(f"need mu > lambda, got mu={mu} lambda={lam}")
    return 1.0 / (mu - lam)


def conditional_utility(d: float, d_max: float, gamma_d: float) -> float:
    """Delay-tolerance factor: 1 below gamma_d, linear down to 0 at d_max."""
    if d < 0 or d_max < 0 or gamma_d < 0:
        raise InvalidInputError("delays must be non-negative")
    if d > d_max:
        raise InvalidInputError(
            f"delay {d} exceeds the window maximum {d_max}; d_max must cover every subcarrier"
        )
    if d < gamma_d:
        return 1.0
    if d_max <= gamma_d:
        # whole window within tolerance, reachable only at d == gamma_d == d_max
        return 1.0
    return (d_max - d) / (d_max - gamma_d)


def tracking_error(sinr_ul: float, epsilon0: float) -> float:
    """Position error versus UL SINR: epsilon0 / sqrt(1 + SINR).

    A declared, pluggable mapping; only error ratios reach the utility, so
    the exact shape matters less than monotonicity.
    """
    if sinr_ul < 0:
        raise InvalidInputError(f"SINR must be non-negative, got {sinr_ul}")
    if not epsilon0 > 0:
        raise InvalidInputError(f"epsilon0 must be positive, got {epsilon0}")
    return epsilon0 / math.sqrt(1.0 + sinr_ul)


def tracking_utility(error_n: float, errors_all_n) -> float:
    """Accuracy factor: 1 - error / worst-subcarrier error."""
    errors = np.asarray(errors_all_n, dtype=float)
    if errors.size == 0:
        raise InvalidInputError("empty tracking-error vector")
    if np.any(errors < 0) or error_n < 0:
        raise InvalidInputError("tracking errors must be non-negative")
    worst = float(np.max(errors))
    if error_n > worst:
        raise InvalidInputError(f"error {error_n} is not an element of the window (max {worst})")
    if worst == 0.0:
        return 1.0
    return 1.0 - error_n / worst


def total_utility(conditional: float, tracking: float) -> float:
    """Product of the two factors."""
    for name, v in (("conditional", conditional), ("tracking", tracking)):
        if not 0.0 <= v <= 1.0:
            raise InvalidInputError(f"{name} utility must lie in [0,1], got {v}")
    return conditional * tracking


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
    worst tracking error over the same window. Equal, bit for bit, to
    ``total_utility(conditional_utility(...), tracking_utility(...))`` per
    subcarrier.
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
