"""Whole-array pipeline against its scalar oracles, compared with ==.

The sweep builds each link's DL channels in one step, evaluates SINR, rate,
delay and utility on whole arrays and designs every subcarrier's beams from
stacked matrices. Each test here rebuilds the same numbers one cell, one
subcarrier or one column at a time and demands bit-for-bit equality, on
seeded random inputs.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from oracles import (
    aggregate_gain,
    conditional_utility,
    evaluation_cells,
    full_svd,
    rate,
    sinr_dl,
    sinr_ul,
    total_utility,
    tracking_error,
    tracking_utility,
)
from vrlink.beamforming import Codebook, design_link
from vrlink.channel import (
    SPEED_OF_LIGHT,
    fspl_db,
    path_gains,
    steering_vector,
    subcarrier_gains,
    synthesize_dl,
    tap_decay_sum,
)
from vrlink.config import config_from_dict
from vrlink.linkmetrics import GainAggregation, compute_metrics
from vrlink.numerics import svd, unit_modulus_normalize
from vrlink.qos import link_utilities, tracking_factors, transmission_delay
from vrlink.runner import check_constraints, run_sweep, write_results_csv
from vrlink.topology import departure_arrival_angles, distance


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# (Es/N0 points, trials, largest U, B, n_sc and codebook count)
GRIDS = [(1, 25, 8, 4, 70, 3), (21, 4, 4, 3, 12, 3), (1001, 1, 2, 2, 3, 2)]


def test_compute_metrics_matches_scalar_oracles():
    for grid in GRIDS:
        check_compute_metrics(*grid)


def check_compute_metrics(points, trials, max_u, max_b, max_sc, max_cb):
    rng = np.random.default_rng(401 + points)
    all_modes = [
        (GainAggregation.MEAN,),
        (GainAggregation.MIN,),
        (GainAggregation.MIN, GainAggregation.MEAN),
    ]
    for _ in range(trials):
        u = int(rng.integers(1, max_u + 1))
        b = int(rng.integers(1, max_b + 1))
        n_sc = int(rng.integers(1, max_sc + 1))
        n_cb = int(rng.integers(1, max_cb + 1))
        coeffs = random_complex(rng, (u, b, n_sc)) * 10.0 ** rng.uniform(-6, 0)
        gains = rng.uniform(0.0, 1e-9, (n_cb, u, b, n_sc))
        p_u, p_b = float(rng.uniform(1e-3, 1e-2)), float(rng.uniform(1e-3, 2e-2))
        cells = tuple(int(c) for c in rng.integers(0, b, u))
        sigmas = 10.0 ** rng.uniform(-14, -2, points)
        modes = all_modes[int(rng.integers(len(all_modes)))]
        bw_total = 2.16e9
        bw_sc = bw_total / n_sc
        metrics = compute_metrics(
            coeffs, gains, p_u, p_b, cells, sigmas, modes, bw_total, bw_sc
        )
        agg = np.array(
            [
                [[[aggregate_gain(gains[c, i, j], mode) for j in range(b)] for i in range(u)]
                 for c in range(n_cb)]
                for mode in modes
            ]
        )
        assert np.array_equal(metrics.dl_gain, agg)
        for e, sigma_sq in enumerate(sigmas.tolist()):
            for i in range(u):
                for j in range(b):
                    probe = evaluation_cells(cells, i, j)
                    for n in range(n_sc):
                        s = sinr_ul(i, j, n, np.full(u, p_u), coeffs, probe, sigma_sq)
                        assert metrics.sinr_ul[e, i, j, n] == s
                        assert metrics.rate_ul[e, i, j, n] == rate(bw_sc, s)
                    for m in range(len(modes)):
                        for c in range(n_cb):
                            s = sinr_dl(i, j, np.full(b, p_b), agg[m, c], probe, sigma_sq)
                            assert metrics.sinr_dl[m, c, e, i, j] == s
                            assert metrics.rate_dl[m, c, e, i, j] == rate(bw_total, s)


def scalar_link_utilities(delays, sinrs, gamma_d, epsilon0):
    d_max = float(np.max(delays))
    errors = np.array([tracking_error(s, epsilon0) for s in sinrs])
    return np.array(
        [
            total_utility(
                conditional_utility(float(d), d_max, gamma_d),
                tracking_utility(float(e), errors),
            )
            for d, e in zip(delays, errors)
        ]
    )


def test_link_utilities_match_scalar_chain():
    rng = np.random.default_rng(409)
    for trial in range(400):
        n_sc = int(rng.integers(1, 70))
        if trial % 5 == 0:
            # uniform window: every subcarrier at d_max and the worst error
            delays = np.full(n_sc, 10.0 ** rng.uniform(-4, 14))
            sinrs = np.full(n_sc, 10.0 ** rng.uniform(-12, 3))
        else:
            delays = 10.0 ** rng.uniform(-4, 14, n_sc)
            sinrs = 10.0 ** rng.uniform(-12, 3, n_sc) * (rng.uniform(size=n_sc) > 0.1)
        # tolerance below, inside and above the window
        gamma_d = float(rng.choice([0.0, 20e-3, np.median(delays), 2.0 * np.max(delays)]))
        epsilon0 = float(rng.uniform(0.1, 5.0))
        got = link_utilities(delays, tracking_factors(sinrs, epsilon0), gamma_d)
        assert np.array_equal(got, scalar_link_utilities(delays, sinrs, gamma_d, epsilon0))


def test_link_utilities_stack_matches_scalar_chain_per_window():
    # one stack, under one tolerance, mixing windows within it (reaching it
    # or not), windows whose worst tracking error is 0, uniform windows and
    # ordinary ones, which mostly straddle it
    rng = np.random.default_rng(421)
    for n_sc, gamma_d in itertools.product((1, 2, 7, 64), (0.0, 20e-3, 1e5)):
        rows = []
        for kind in range(40):
            delays = 10.0 ** rng.uniform(-4, 14, n_sc)
            sinrs = 10.0 ** rng.uniform(-12, 3, n_sc) * (rng.uniform(size=n_sc) > 0.1)
            if kind % 4 == 0:
                delays = gamma_d * rng.uniform(0.0, 1.0, n_sc)
                if kind % 8 == 0:
                    delays[-1] = gamma_d
            elif kind % 4 == 1:
                sinrs = np.full(n_sc, math.inf)
            elif kind % 4 == 2:
                delays = np.full(n_sc, delays[0])
                sinrs = np.full(n_sc, sinrs[0])
            rows.append((delays, sinrs))
        # the clamp's edges: a window wholly above the tolerance, the same
        # with one delay at it (a ratio of exactly 1), one wholly within it,
        # one whose top is one step above it, and the all-zero window the
        # sweep passes for a link that does not carry
        above = gamma_d + 10.0 ** rng.uniform(-4, 14, n_sc)
        at = np.concatenate(([gamma_d], above[1:]))
        below = np.full(n_sc, np.nextafter(gamma_d, 0.0))
        step = np.concatenate((np.full(n_sc - 1, gamma_d), [np.nextafter(gamma_d, math.inf)]))
        for delays in (above, at, below, step, np.zeros(n_sc)):
            rows.append((delays, 10.0 ** rng.uniform(-12, 3, n_sc)))
        delays = np.array([r[0] for r in rows])
        sinrs = np.array([r[1] for r in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = link_utilities(delays, tracking_factors(sinrs, 1.5), gamma_d)
            folded = link_utilities(
                delays.reshape(3, 15, n_sc), tracking_factors(sinrs.reshape(3, 15, n_sc), 1.5), gamma_d
            )
        assert np.array_equal(folded.reshape(got.shape), got)
        for k, (d, s) in enumerate(rows):
            assert np.array_equal(got[k], scalar_link_utilities(d, s, gamma_d, 1.5))


def test_block_tracking_factors_equal_those_of_the_masked_rows():
    # the sweep takes the tracking factors of a whole (E, U, B, n_sc) block
    # once and indexes them by each window's mask of carried links
    rng = np.random.default_rng(443)
    for n_sc in (1, 2, 7, 64, 300):
        sinrs = 10.0 ** rng.uniform(-300, 300, (3, 4, 2, n_sc))
        sinrs[rng.uniform(size=sinrs.shape) < 0.1] = 0.0
        sinrs[0, 0, 0] = math.inf  # a window whose worst error is 0
        sinrs[0, 1, 0] = sinrs[0, 1, 0, 0]  # a uniform window
        delays = 10.0 ** rng.uniform(-4, 14, sinrs.shape)
        tracking = tracking_factors(sinrs, 0.7)
        for _ in range(4):
            mask = rng.uniform(size=sinrs.shape[:-1]) < 0.6
            assert tracking[mask].tobytes() == tracking_factors(sinrs[mask], 0.7).tobytes()
            got = link_utilities(delays[mask], tracking[mask], 20e-3)
            for row, d, s in zip(got, delays[mask], sinrs[mask]):
                assert np.array_equal(row, scalar_link_utilities(d, s, 20e-3, 0.7))


def test_transmission_delay_array_matches_scalar_calls():
    rng = np.random.default_rng(419)
    for _ in range(50):
        rates_ul = 10.0 ** rng.uniform(-8, 9, int(rng.integers(1, 70)))
        rate_dl = float(10.0 ** rng.uniform(-8, 9))
        got = transmission_delay(12288.0, 6.0, rate_dl, rates_ul)
        want = [transmission_delay(12288.0, 6.0, rate_dl, float(r)) for r in rates_ul]
        assert np.array_equal(got, want)
    # a stack of windows, one DL rate per window
    rates_ul = 10.0 ** rng.uniform(-8, 9, (30, 9))
    rates_dl = 10.0 ** rng.uniform(-8, 9, (30, 1))
    got = transmission_delay(12288.0, 6.0, rates_dl, rates_ul)
    for k in range(30):
        assert np.array_equal(got[k], transmission_delay(12288.0, 6.0, float(rates_dl[k, 0]), rates_ul[k]))
    # a zero rate is an infinite delay, on its own subcarrier or window only
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = transmission_delay(12288.0, 6.0, 1e9, np.array([1e6, 0.0, 1e6]))
        assert np.array_equal(got, [transmission_delay(12288.0, 6.0, 1e9, 1e6), math.inf, got[0]])
        assert np.all(transmission_delay(12288.0, 6.0, np.zeros(1), np.array([1e6, 1e6])) == math.inf)
        got = transmission_delay(12288.0, 6.0, np.array([[1e9], [0.0]]), np.ones((2, 3)))
        assert np.all(np.isfinite(got[0])) and np.all(got[1] == math.inf)


def assert_svd_equal(res, ref, k):
    """``res`` holds the k leading columns of the full reference ``ref``, bit for bit."""
    u, s, v = ref
    assert np.array_equal(res.left, u[:, :k])
    assert np.array_equal(res.singular_values, s[:k])
    assert np.array_equal(res.right, v[:, :k])


def test_svd_single_matrix_matches_column_loop():
    # criterion 1's shapes: every m x n up to 8 x 8, and every k
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(m, n) + 1))
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        assert_svd_equal(svd(a, k), full_svd(a), k)


def test_svd_stack_matches_column_loop_per_matrix():
    rng = np.random.default_rng(431)
    for trial in range(300):
        stack = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(m, n) + 1))
        if trial % 2:
            a = random_complex(rng, (stack, m, n))
        else:
            # rank one with constant-modulus factors: near-tied pivots
            x = np.exp(1j * rng.uniform(0, 2 * np.pi, (stack, m, 1))) / math.sqrt(m)
            y = np.exp(1j * rng.uniform(0, 2 * np.pi, (stack, n, 1))) / math.sqrt(n)
            a = x @ np.conj(y).swapaxes(-1, -2)
        res = svd(a, k)
        assert res.left.shape == (stack, m, k)
        assert res.right.shape == (stack, n, k)
        for i in range(stack):
            one = dataclasses.replace(
                res, left=res.left[i], singular_values=res.singular_values[i], right=res.right[i]
            )
            assert_svd_equal(one, full_svd(a[i]), k)


def sequential_covariance_beams(channels, n_cols, receive_side):
    """Reference analog stage: covariance summed one subcarrier at a time."""
    n_sc, n_rx, n_tx = channels.shape
    size = n_rx if receive_side else n_tx
    cov = np.zeros((size, size), dtype=complex)
    for h in channels:
        cov += h @ h.conj().T if receive_side else h.conj().T @ h
    beams = full_svd(cov)[0][:, :n_cols]
    return unit_modulus_normalize(beams, 1.0 / math.sqrt(size))


def per_subcarrier_design(channels, codebook, p_b):
    """Reference design: every subcarrier on its own, from 2-D matrices.
    Returns the analog stages, the effective channels and each subcarrier's
    transmit power."""
    n_sc = channels.shape[0]
    g_a = sequential_covariance_beams(channels, codebook.n_ds, receive_side=True)
    p_a = sequential_covariance_beams(channels, codebook.n_rf, receive_side=False)
    eff, power = [], []
    for h in channels:
        h_d = g_a.conj().T @ h @ p_a
        u, _, v = full_svd(h_d)
        f = p_a @ v[:, : codebook.n_ds]
        w = g_a @ u[:, : codebook.n_ds]
        f_norm = np.linalg.norm(f)
        w_norm = np.linalg.norm(w)
        eff.append((w / w_norm).conj().T @ h @ (f / f_norm))
        power.append(float(np.sum(np.abs(math.sqrt(p_b / n_sc) / f_norm * f) ** 2)))
    return p_a, g_a, np.array(eff), np.array(power)


def per_subcarrier_power_and_gain(power, eff):
    """Reference total transmit power and effective gains, one subcarrier at a time."""
    total = 0.0
    gains = []
    for sc in range(len(power)):
        total += power[sc]
        gains.append(np.linalg.svd(eff[sc], compute_uv=False)[0])
    return total, np.array(gains)


def test_design_link_matches_per_subcarrier_reference():
    rng = np.random.default_rng(433)
    for trial in range(120):
        n_tx = int(rng.choice([2, 4, 8]))
        n_rf = int(rng.integers(1, min(n_tx, 3) + 1))
        n_rx = int(rng.integers(1, 3))
        n_ds = int(rng.integers(1, min(n_rf, n_rx) + 1))
        n_sc = int(rng.integers(1, 70))
        codebook = Codebook(n_tx, n_rf, n_rx, n_ds)
        channels = random_complex(rng, (n_sc, n_rx, n_tx)) * 1e-5
        # zero subcarriers and zero parts of either sign
        picked = rng.uniform(size=n_sc) < 0.2
        channels[picked] = rng.choice([0.0, -0.0], (picked.sum(), n_rx, n_tx))
        channels.real[rng.uniform(size=channels.shape) < 0.1] = -0.0
        channels.imag[rng.uniform(size=channels.shape) < 0.1] = -0.0
        p_b = float(rng.uniform(1e-3, 1e-1))
        (sol,) = design_link(((channels[None], (codebook,)),), np.array([p_b]))
        p_a, g_a, eff, power = per_subcarrier_design(channels, codebook, p_b)
        assert sol.analog_precoder[0].tobytes() == p_a.tobytes()
        assert sol.analog_combiner[0].tobytes() == g_a.tobytes()
        assert sol.effective_channels[0].tobytes() == eff.tobytes()
        assert sol.subcarrier_power[0].tobytes() == power.tobytes()
        total, gains = per_subcarrier_power_and_gain(power, eff)
        assert sol.transmit_power()[0] == total
        assert np.array_equal(sol.effective_gain_per_subcarrier()[0], gains)


def random_links(rng, trial):
    """A codebook and an (L, n_sc, n_rx, n_tx) link stack: the DL of a random
    topology on even trials, full-rank random channels on odd ones."""
    n_tx = int(rng.choice([1, 2, 3, 4, 5, 8, 16]))
    n_rf = int(rng.integers(1, min(n_tx, 3) + 1))
    n_rx = int(rng.integers(1, 4))
    n_ds = int(rng.integers(1, min(n_rf, n_rx) + 1))
    n_sc = int(rng.integers(1, 40))
    if trial % 2:
        codebook = Codebook(n_tx, n_rf, n_rx, n_ds)
        scale = 10.0 ** rng.uniform(-7, -3, (int(rng.integers(1, 9)), 1, 1, 1))
        return codebook, random_complex(rng, (len(scale), n_sc, n_rx, n_tx)) * scale
    cfg = config_from_dict({
        "u": str(rng.integers(1, 5)), "b": str(rng.integers(1, 4)), "n_sc": str(n_sc),
        "n_t": str(n_tx), "n_rf": str(n_rf), "n_r": str(n_rx), "n_ds": str(n_ds),
        "gain_mode": str(rng.choice(["deterministic", "gaussian"])), "seed": str(trial),
    })
    codebook = cfg.codebooks[0]
    _, amplitude = path_gains(cfg.topology, cfg.grid, cfg.w, cfg.tap_count, cfg.tap_spacing)
    dl = synthesize_dl(
        cfg.topology, amplitude, n_sc, n_tx, n_rx, cfg.gain_mode, np.random.default_rng([cfg.seed, 1])
    )
    return codebook, dl.matrices.reshape((-1,) + dl.matrices.shape[2:])


def test_stacked_design_equals_one_design_per_link():
    rng = np.random.default_rng(439)
    shapes = set()
    for trial in range(60):
        codebook, links = random_links(rng, trial)
        shapes.add((codebook.n_rx > 1, codebook.n_ds > 1))
        budgets = rng.uniform(1e-3, 1e-1, len(links))
        (stacked,) = design_link(((links, (codebook,)),), budgets)
        powers = stacked.transmit_power()
        gains = stacked.effective_gain_per_subcarrier()
        assert powers.shape == (len(links),)
        assert gains.shape == links.shape[:2]
        # (a) and (c) fail on some links, (d) on the ones with a stretched
        # precoder; the stacked check must flag the same families
        n_served = rng.integers(1, 4, len(links))
        stretch = rng.choice([1.0, 1.5], len(links))
        bent = dataclasses.replace(stacked, analog_precoder=stacked.analog_precoder * stretch[:, None, None])
        want = []
        for k in range(len(links)):
            (one,) = design_link(((links[k:k + 1], (codebook,)),), budgets[k:k + 1])
            for field in dataclasses.fields(one):
                if field.name != "codebook":
                    assert np.array_equal(getattr(stacked, field.name)[k], getattr(one, field.name)[0])
            power = one.transmit_power()[0]
            assert powers[k] == power
            assert np.array_equal(gains[k], one.effective_gain_per_subcarrier()[0])
            one = dataclasses.replace(one, analog_precoder=one.analog_precoder * stretch[k])
            n = int(n_served[k])
            want.append(check_constraints(n, n * power, one, 2, 0.1)[0])
        got = check_constraints(n_served, n_served * powers, bent, 2, 0.1)
        assert np.array_equal(got, np.array(want))
    assert shapes == {(False, False), (True, False), (True, True)}


def per_subcarrier_dl(topology, grid, n_tx, n_rx, tap_count, tap_spacing_s, mode, rng):
    """Reference DL synthesis: the link geometry rebuilt for every subcarrier."""
    mats = np.zeros((topology.n_users, topology.n_aps, grid.n_sc, n_rx, n_tx), dtype=complex)
    for i, user in enumerate(topology.users):
        for j, ap in enumerate(topology.aps):
            gains = subcarrier_gains(1, grid.n_sc, mode, rng)[0]
            for n in range(grid.n_sc):
                d = distance(ap, user)
                aod, aoa = departure_arrival_angles(ap, user)
                amp = 10.0 ** (fspl_db(d, grid.wavelength) / 10.0) * tap_decay_sum(
                    d / SPEED_OF_LIGHT, tap_count, tap_spacing_s
                )
                a_tx = steering_vector(n_tx, [aod])[0]
                a_rx = steering_vector(n_rx, [aoa])[0]
                mats[i, j, n] = amp * gains[n] * np.outer(a_rx, a_tx.conj())
    return mats


@pytest.mark.parametrize(
    "raw",
    [
        {},
        {"gain_mode": "gaussian", "seed": "7"},
        {"u": "5", "b": "3", "n_sc": "7", "gain_mode": "gaussian", "seed": "3"},
        {"n_sc": "3", "tap_count": "9", "tap_spacing": "1e-10"},
    ],
)
def test_synthesize_dl_matches_per_subcarrier_reference(raw):
    cfg = config_from_dict(raw)
    for n_tx, n_rx in ((1, 1), (2, 1), (4, 2), (8, 1), (3, 4)):
        _, amplitude = path_gains(cfg.topology, cfg.grid, cfg.w, cfg.tap_count, cfg.tap_spacing)
        rng = np.random.default_rng([cfg.seed, 1])
        dl = synthesize_dl(cfg.topology, amplitude, cfg.grid.n_sc, n_tx, n_rx, cfg.gain_mode, rng)
        args = (cfg.topology, cfg.grid, n_tx, n_rx, cfg.tap_count, cfg.tap_spacing, cfg.gain_mode)
        ref = per_subcarrier_dl(*args, np.random.default_rng([cfg.seed, 1]))
        assert np.array_equal(dl.matrices, ref)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_power_user_is_an_infeasible_record(tmp_path):
    # user 0 stands 24 m from both APs: 24^-300 underflows to 0, so no UL
    # power reaches them and each of its links fails (b) alone
    cfg = config_from_dict({
        "w": "300", "area_x": "0, 30", "ap_positions": "1,1,2 ; 2,1,2",
        "user_positions": "25,1,1 ; 1.5,2,1", "n_sc": "8", "esn0_stop": "2",
    })
    ul_gain, _ = path_gains(cfg.topology, cfg.grid, cfg.w, cfg.tap_count, cfg.tap_spacing)
    assert ul_gain[0].tolist() == [0.0, 0.0] and np.all(ul_gain[1] > 0)
    result = run_sweep(cfg)
    # the user axis is the last
    assert result.codes[..., 0].size == 72
    assert np.all(result.rate_ul[..., 0] == 0.0)
    assert np.all(result.d_trans[..., 0] == math.inf) and np.all(result.d_total[..., 0] == math.inf)
    assert np.all(np.isnan(result.utility[..., 0])) and np.all(result.codes[..., 0] == 2)
    path = tmp_path / "results.csv"
    write_results_csv(result, str(path))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert all(row[12] == "" and row[14] == "b" for row in rows if row[5] == "0")
    assert result.codes[..., 1].size == 72 and np.all(result.codes[..., 1] == 0)
