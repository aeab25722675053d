"""Delay chain and multi-attribute utility.

Total delay is transmission (payload over DL rate plus tracking vector over
UL rate) + processing (workload over per-user compute share) + M/M/1 queue
wait. Utility is the product of a delay-tolerance factor and a tracking
-accuracy factor, each in [0, 1].

The pipeline works on stacks of link windows, one link's subcarriers on the
last axis: ``transmission_delay``, ``tracking_factors`` and
``link_utilities`` compute every subcarrier of every window with array
arithmetic. The tracking factor depends on the UL SINR alone: the sweep
takes it once per block of Es/N0 points and broadcasts it over each
codebook's whole stack of windows. The delay factor is one clamp at 1, with
an infinite top for a window within the tolerance. The tests state the
utility one subcarrier at a time (tests/oracles.py) and hold the window
path to that statement bit for bit. The window functions take the sweep's
own non-negative rates and non-empty windows unchecked; their factors lie
in [0, 1] by construction, which the tests hold on random windows and on
the output corpus.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


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

    rate_ul is one link's per-subcarrier rates, or a stack of such windows
    on its last axis; rate_dl is one rate per window and broadcasts against
    it (shape (..., 1) for a stack). Both are float arrays. The delay has
    the broadcast shape; a zero rate never completes the transfer, so its
    delay is inf, as is one past the float range.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return s_bits / rate_dl + a_bits / rate_ul


def processing_delay(v_bits: float, m_capacity: float, n_share: float) -> float:
    """Rendering time against the per-user compute share m_capacity/n_share."""
    if not m_capacity > 0:
        raise ConfigurationError(f"processing capacity must be positive, got {m_capacity}")
    if not n_share > 0:
        raise ConfigurationError(f"processing share must be positive, got {n_share}")
    share = m_capacity / n_share
    if not share > 0:
        raise ConfigurationError(f"compute share m_capacity/n_share underflows to 0, got {m_capacity}/{n_share}")
    return v_bits / share


def queue_delay(mu: float, lam: float) -> float:
    """Mean M/M/1 waiting time 1/(mu - lambda)."""
    if not 0 <= lam < mu:
        raise ConfigurationError(f"need 0 <= lambda < mu, got mu={mu} lambda={lam}")
    return 1.0 / (mu - lam)


def tracking_factors(sinrs_ul: np.ndarray, epsilon0: float) -> np.ndarray:
    """Per-subcarrier tracking-accuracy factors for link windows on the last
    axis.

    sinrs_ul is one window or a stack of windows. The tracking error is
    epsilon0 / sqrt(1 + SINR); each factor is 1 - error / worst, the worst
    error taken over the factor's own window. Every operation is row-wise,
    so a window's factors have the same bits in a full stack as on their
    own (see the numerics docstring).
    """
    errors = epsilon0 / np.sqrt(1.0 + sinrs_ul)
    worst = np.max(errors, axis=-1, keepdims=True)
    # a worst error of 0 makes every error 0, and 1 - 0 / 1 is factor 1
    return 1.0 - errors / np.where(worst == 0.0, 1.0, worst)


def link_utilities(delays: np.ndarray, tracking: np.ndarray, gamma_d: float) -> np.ndarray:
    """Per-subcarrier total utilities for link windows on the last axis.

    delays (finite total delays) and tracking (``tracking_factors`` of the
    same windows, or a view broadcast to them) are one window or a stack;
    gamma_d is every window's tolerance. The delay factor is the clamp
    ``min((top - d) / span, 1)``, top d_max and span d_max - gamma_d where
    the worst delay d_max exceeds gamma_d, else inf over 1. Equal, bit for
    bit, to ``total_utility(conditional_utility(...), tracking_utility(...))``
    of tests/oracles.py per subcarrier, as rounding is monotone.
    """
    d_max = np.max(delays, axis=-1, keepdims=True)
    over = d_max > gamma_d
    utilities = np.subtract(np.where(over, d_max, np.inf), delays)
    utilities /= np.where(over, d_max - gamma_d, 1.0)
    np.minimum(utilities, 1.0, out=utilities)
    utilities *= tracking
    return utilities
