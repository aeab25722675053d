"""SINR, rates, noise mapping, and subcarrier gain aggregation."""

import math

import numpy as np
import pytest

from oracles import aggregate_gain, evaluation_cells, rate, sinr_dl, sinr_ul
from test_numerics import assert_same_bits
from vrlink.errors import InvalidInputError
from vrlink.linkmetrics import LN2, GainAggregation, _rate, compute_metrics, noise_power


def test_noise_power_values():
    assert noise_power(0.0, 1.0) == pytest.approx(1.0)
    assert noise_power(10.0, 1.0) == pytest.approx(0.1, rel=1e-12)
    assert noise_power(3.0, 0.01) == pytest.approx(0.005011872336272722, rel=1e-12)


def test_evaluation_cells_rehomes_one_user():
    assert evaluation_cells((0, 1, 0), 2, 1) == (0, 1, 1)
    assert evaluation_cells((0, 1), 0, 0) == (0, 1)


def test_sinr_ul_no_interference():
    coeffs = np.ones((1, 1, 1), dtype=complex)
    val = sinr_ul(0, 0, 0, np.array([1.0]), coeffs, (0,), 0.5)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_sinr_ul_two_users_one_cell():
    coeffs = np.ones((2, 1, 1), dtype=complex)
    val = sinr_ul(0, 0, 0, np.array([1.0, 1.0]), coeffs, (0, 0), 1.0)
    assert val == pytest.approx(0.5, rel=1e-12)


def test_sinr_ul_zero_power():
    coeffs = np.ones((2, 1, 1), dtype=complex)
    val = sinr_ul(0, 0, 0, np.array([0.0, 1.0]), coeffs, (0, 0), 1.0)
    assert val == 0.0


def test_sinr_dl_single_link():
    gains = np.array([[1.0]])
    val = sinr_dl(0, 0, np.array([0.01]), gains, (0,), 0.01)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_sinr_dl_zero_gain():
    gains = np.array([[0.0]])
    assert sinr_dl(0, 0, np.array([0.01]), gains, (0,), 0.01) == 0.0


def test_sinr_dl_symmetric_limit():
    # two symmetric cells with equal gains and powers approach SINR 1 as noise vanishes
    gains = np.ones((2, 2))
    powers = np.array([0.01, 0.01])
    val = sinr_dl(0, 0, powers, gains, (0, 1), 1e-15)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_sinr_dl_requires_home_assignment():
    gains = np.ones((2, 2))
    with pytest.raises(InvalidInputError):
        sinr_dl(0, 1, np.array([0.01, 0.01]), gains, (0, 1), 0.01)


def brute_force_ul(i, j, n, powers, coeffs, cells, sigma_sq):
    """Independent denominator evaluation straight off the definition."""
    g = np.abs(coeffs) ** 2
    num = powers[i] * g[i, j, n]
    den = sigma_sq
    for l in range(coeffs.shape[0]):
        if l != i and cells[l] == j:
            den += powers[l] * g[l, j, n]
    for b in range(coeffs.shape[1]):
        if b == j:
            continue
        for k in range(coeffs.shape[0]):
            if k != i and cells[k] == b:
                den += powers[k] * g[k, b, n]
    return num / den


def brute_force_dl(i, j, powers, gains, cells, sigma_sq):
    num = powers[j] * gains[i, j]
    den = sigma_sq
    for l in range(gains.shape[0]):
        if l != i and cells[l] == j:
            den += powers[j] * gains[i, j]
    for b in range(gains.shape[1]):
        if b == j:
            continue
        for k in range(gains.shape[0]):
            if k != i and cells[k] == b:
                den += powers[b] * gains[k, b]
    return num / den


def test_sinr_matches_brute_force_loops():
    rng = np.random.default_rng(83)
    for _ in range(200):
        u = int(rng.integers(1, 4))
        b = int(rng.integers(1, 3))
        n_sc = int(rng.integers(1, 5))
        coeffs = rng.standard_normal((u, b, n_sc)) + 1j * rng.standard_normal((u, b, n_sc))
        user_powers = rng.uniform(0.001, 0.01, u)
        ap_powers = rng.uniform(0.001, 0.02, b)
        gains = rng.uniform(0.0, 1.0, (u, b))
        sigma = float(rng.uniform(1e-6, 1e-2))
        base = tuple(int(rng.integers(0, b)) for _ in range(u))
        for i in range(u):
            for j in range(b):
                cells = evaluation_cells(base, i, j)
                n = int(rng.integers(0, n_sc))
                mine = sinr_ul(i, j, n, user_powers, coeffs, cells, sigma)
                ref = brute_force_ul(i, j, n, user_powers, coeffs, cells, sigma)
                assert mine == pytest.approx(ref, rel=1e-12)
                mine_dl = sinr_dl(i, j, ap_powers, gains, cells, sigma)
                ref_dl = brute_force_dl(i, j, ap_powers, gains, cells, sigma)
                assert mine_dl == pytest.approx(ref_dl, rel=1e-12)


def test_rate_values():
    assert rate(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert rate(2.0, 3.0) == pytest.approx(4.0, rel=1e-12)
    assert rate(1e6, 10.0) == pytest.approx(3459431.6186372973, rel=1e-12)
    assert rate(1e9, 0.0) == 0.0
    with pytest.raises(InvalidInputError):
        rate(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        rate(1.0, -0.1)


def test_rate_keeps_precision_for_tiny_sinr():
    # bw * sinr / ln 2 is the first-order value; log1p must track it closely
    tiny = 1e-15
    r = rate(1e9, tiny)
    assert r == pytest.approx(1e9 * tiny / math.log(2.0), rel=1e-9)


def test_rate_of_repeated_sinrs_equals_the_per_element_rate():
    # _rate calls log1p once per distinct SINR where a SINR repeats the one
    # before it, once per element where none does; each element must get
    # its own bits, -0.0 apart from 0.0 and subnormals apart from each other
    rng = np.random.default_rng(29)
    pool = np.concatenate([[0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-16, 1.0, 1e300], rng.uniform(0, 1e-9, 8)])
    drawn = [rng.choice(pool, size=shape) for shape in [(21, 2, 2, 64), (2, 6, 21, 2, 2), (7,), (1, 1), (0, 3)]]
    # repeats only between rows, none next to each other in C order
    across = np.broadcast_to(rng.permutation(pool), (5, pool.size)).copy()
    keys = across.view(np.int64).ravel()
    assert not np.any(keys[1:] == keys[:-1])
    for sinr in drawn + [across]:
        for bw in (1.0, 3.375e7, 2.16e9):
            want = np.array([bw * math.log1p(x) / LN2 for x in sinr.ravel().tolist()]).reshape(sinr.shape)
            assert_same_bits(_rate(bw, sinr), want)


def test_sinr_monotone_in_noise_and_rate_monotone_in_sinr():
    coeffs = np.array([[1.0, 0.5], [0.5, 1.0]]).reshape(2, 2, 1).astype(complex)
    powers = np.array([0.005, 0.005])
    cells = (0, 1)
    prev = math.inf
    for sigma in (1e-4, 1e-3, 1e-2, 1e-1):
        val = sinr_ul(0, 0, 0, powers, coeffs, cells, sigma)
        assert val < prev
        prev = val
    rates = [rate(1e6, s) for s in (0.0, 0.5, 1.0, 2.0)]
    assert rates == sorted(rates)


def test_aggregate_gain_modes():
    assert aggregate_gain([1.0, 2.0, 3.0], GainAggregation.MEAN) == pytest.approx(2.0)
    assert aggregate_gain([1.0, 2.0, 3.0], GainAggregation.MIN) == pytest.approx(1.0)
    with pytest.raises(InvalidInputError):
        aggregate_gain([], GainAggregation.MEAN)
    with pytest.raises(InvalidInputError):
        aggregate_gain([-1.0, 2.0], GainAggregation.MIN)


def test_aggregate_min_never_exceeds_mean():
    rng = np.random.default_rng(89)
    for _ in range(200):
        v = rng.uniform(0, 5, int(rng.integers(1, 65)))
        assert aggregate_gain(v, GainAggregation.MIN) <= aggregate_gain(v, GainAggregation.MEAN)


def test_compute_metrics_shapes_and_rehoming():
    rng = np.random.default_rng(97)
    u, b, n_sc = 2, 2, 8
    coeffs = rng.standard_normal((u, b, n_sc)) + 1j * rng.standard_normal((u, b, n_sc))
    gains = rng.uniform(0, 1e-10, (u, b, n_sc))
    args = (coeffs, gains, 0.005, 0.01, (0, 1))
    sigmas = np.array([1e-3, 1e-2, 1e-1])
    metrics = compute_metrics(*args, sigmas, (GainAggregation.MEAN,), 2.16e9, 2.16e9 / 64)
    assert metrics.sinr_ul.shape == (3, u, b, n_sc)
    assert metrics.rate_ul.shape == (3, u, b, n_sc)
    assert metrics.sinr_dl.shape == (1, 3, u, b)
    assert metrics.rate_dl.shape == (1, 3, u, b)
    assert np.all(metrics.sinr_ul >= 0) and np.all(metrics.sinr_dl >= 0)
    assert np.all(metrics.rate_ul >= 0) and np.all(metrics.rate_dl >= 0)
    # the home pairing (0,0) and the probe pairing (0,1) see different cells,
    # so both evaluate without raising and with positive signal
    assert np.all(metrics.sinr_dl[..., 0, 1] > 0)
    assert np.all(metrics.dl_gain == np.mean(gains, axis=2))
