"""Delay chain and utility factors."""

import math
import warnings

import numpy as np
import pytest

from oracles import conditional_utility, total_utility, tracking_error, tracking_utility
from vrlink.errors import ConfigurationError, InvalidInputError
from vrlink.qos import (
    TrafficModel,
    link_utilities,
    processing_delay,
    queue_delay,
    transmission_delay,
)


def test_transmission_delay_reference_value():
    assert transmission_delay(12288, 6, 1e9, 1e6) == pytest.approx(1.8288e-5, rel=1e-12)


def test_transmission_delay_common_rate():
    r = 2.5e8
    assert transmission_delay(100, 20, r, r) == pytest.approx(120 / r, rel=1e-12)


def test_transmission_delay_homogeneity():
    d1 = transmission_delay(12288, 6, 1e9, 1e6)
    d2 = transmission_delay(12288, 6, 2e9, 2e6)
    assert d2 == pytest.approx(d1 / 2.0, rel=1e-12)


def test_transmission_delay_zero_rate_is_infeasible():
    # a zero rate never completes the transfer: infinite delay, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert transmission_delay(12288, 6, 0.0, 1e6) == math.inf
        assert transmission_delay(12288, 6, 1e9, 0.0) == math.inf
        assert transmission_delay(12288, 6, 0.0, 0.0) == math.inf
    for dl, ul in ((-1.0, 1e6), (1e9, -1e-300), (math.nan, 1e6), (1e9, math.nan)):
        with pytest.raises(InvalidInputError):
            transmission_delay(12288, 6, dl, ul)


def test_processing_delay_values():
    assert processing_delay(5.0, 10.0, 2.0) == pytest.approx(1.0)
    assert processing_delay(0.0, 10.0, 2.0) == 0.0
    # workload at its upper bound s_bits
    s, n, m = 12288.0, 2.0, 1e9
    assert processing_delay(s, m, n) == pytest.approx(s * n / m, rel=1e-12)
    with pytest.raises(ConfigurationError):
        processing_delay(5.0, 0.0, 2.0)
    with pytest.raises(ConfigurationError):
        processing_delay(5.0, 10.0, 0.0)
    with pytest.raises(ConfigurationError):
        processing_delay(5.0, 1e-300, 1e300)  # the share underflows to 0


def test_queue_delay_values():
    assert queue_delay(2.0, 1.0) == pytest.approx(1.0)
    assert queue_delay(4e-9, 2e-9) == pytest.approx(5.0e8, rel=1e-12)
    assert queue_delay(4e9, 2e9) == pytest.approx(5.0e-10, rel=1e-12)
    with pytest.raises(ConfigurationError):
        queue_delay(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        queue_delay(1.0, 2.0)
    with pytest.raises(ConfigurationError):
        queue_delay(1.0, -1.0)  # negative arrival rate


def test_conditional_utility_boundaries_exact():
    gamma, dmax = 0.02, 0.1
    assert conditional_utility(gamma, dmax, gamma) == 1.0
    assert conditional_utility(dmax, dmax, gamma) == 0.0
    mid = (gamma + dmax) / 2.0
    assert conditional_utility(mid, dmax, gamma) == pytest.approx(0.5, rel=1e-12)
    assert conditional_utility(0.001, dmax, gamma) == 1.0


def test_conditional_utility_monotone_in_delay():
    gamma, dmax = 0.02, 0.1
    ds = np.linspace(0.0, dmax, 50)
    us = [conditional_utility(float(d), dmax, gamma) for d in ds]
    assert all(a >= b for a, b in zip(us, us[1:]))
    assert all(0.0 <= u <= 1.0 for u in us)


def test_conditional_utility_rejects_out_of_window():
    with pytest.raises(InvalidInputError):
        conditional_utility(0.2, 0.1, 0.02)
    with pytest.raises(InvalidInputError):
        conditional_utility(-0.1, 0.1, 0.02)


def test_conditional_utility_degenerate_window():
    # whole window inside the tolerance
    assert conditional_utility(0.01, 0.01, 0.02) == 1.0


def test_tracking_error_values():
    assert tracking_error(0.0, 1.0) == pytest.approx(1.0)
    assert tracking_error(3.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert tracking_error(99.0, 2.0) == pytest.approx(0.2, rel=1e-12)
    with pytest.raises(InvalidInputError):
        tracking_error(-1.0, 1.0)
    with pytest.raises(InvalidInputError):
        tracking_error(1.0, 0.0)


def test_tracking_error_strictly_decreasing():
    errs = [tracking_error(s, 1.0) for s in (0.0, 1.0, 10.0, 100.0)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_tracking_utility_values():
    errors = [0.5, 1.0, 0.25]
    assert tracking_utility(1.0, errors) == 0.0
    assert tracking_utility(0.0, errors) == 1.0
    assert tracking_utility(0.5, errors) == pytest.approx(0.5, rel=1e-12)
    assert tracking_utility(0.0, [0.0, 0.0]) == 1.0
    with pytest.raises(InvalidInputError):
        tracking_utility(2.0, errors)
    with pytest.raises(InvalidInputError):
        tracking_utility(0.5, [])


def test_total_utility_product():
    assert total_utility(1.0, 1.0) == 1.0
    assert total_utility(0.5, 0.5) == 0.25
    assert total_utility(0.7, 0.0) == 0.0
    with pytest.raises(InvalidInputError):
        total_utility(1.5, 0.5)
    with pytest.raises(InvalidInputError):
        total_utility(0.5, -0.1)


def test_traffic_model_validation():
    TrafficModel(12288, 6, 5, 1e9, 2, 4e-9, 2e-9)  # fine
    with pytest.raises(ConfigurationError):
        TrafficModel(0, 6, 5, 1e9, 2, 4e-9, 2e-9)
    with pytest.raises(ConfigurationError):
        TrafficModel(12288, 0, 5, 1e9, 2, 4e-9, 2e-9)
    with pytest.raises(ConfigurationError):
        TrafficModel(12288, 6, 20000, 1e9, 2, 4e-9, 2e-9)  # workload above payload
    with pytest.raises(ConfigurationError):
        TrafficModel(12288, 6, 5, 1e9, 2, 2e-9, 4e-9)  # unstable queue
    for m_capacity, mu in ((0.0, 4e-9), (1e-310, 4e-9), (1e9, 1e-310)):
        with pytest.raises(ConfigurationError):  # no share, or an infinite delay
            TrafficModel(12288, 6, 5, m_capacity, 2, mu, 0.0)


def test_link_utilities_uniform_window_is_zero():
    # identical delays and SINRs across subcarriers: every subcarrier sits at
    # the worst delay and the worst tracking error simultaneously
    u = link_utilities(np.full(8, 0.5), np.full(8, 2.0), 0.02, 1.0)
    assert u.shape == (8,)
    assert np.all(u == 0.0)


def test_link_utilities_hand_case():
    delays = np.array([0.04, 0.10])
    sinrs = np.array([3.0, 0.0])  # errors 0.5 and 1.0
    gamma, eps = 0.02, 1.0
    u = link_utilities(delays, sinrs, gamma, eps)
    # subcarrier 0: conditional (0.10-0.04)/(0.10-0.02) = 0.75, tracking 1-0.5 = 0.5
    assert u[0] == pytest.approx(0.375, rel=1e-12)
    # subcarrier 1 is the worst in both factors
    assert u[1] == 0.0
    assert np.all((0.0 <= u) & (u <= 1.0))


def test_link_utilities_rejects_mismatch():
    with pytest.raises(InvalidInputError):
        link_utilities(np.ones(3), np.ones(4), 0.02, 1.0)
    with pytest.raises(InvalidInputError):
        link_utilities(np.array([]), np.array([]), 0.02, 1.0)
