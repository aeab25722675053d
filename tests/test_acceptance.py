"""Release gate: nine end-to-end checks with pinned tolerances.

One test per criterion, so ``pytest tests/test_acceptance.py -v`` prints one
pass/fail line each. The full default sweep (two scenarios, six antenna/RF
configurations, 21 Es/N0 points, two users, two APs, 64 subcarriers) is run
once and shared by the row-level checks.
"""

import math
import time

import numpy as np
import pytest

from oracles import conditional_utility, evaluation_cells, reconstruct, sinr_dl, sinr_ul
from vrlink.beamforming import design_link, effective_channel, hybrid_digital
from vrlink.channel import path_gains, synthesize_dl
from vrlink.config import config_from_dict
from vrlink.numerics import svd
from vrlink.runner import run_sweep, write_results_csv

FACTOR_TOL = 1e-9    # factorization identities, relative Frobenius
MODULUS_TOL = 1e-12  # per-entry squared-modulus deviation
SINR_TOL = 1e-12     # relative agreement with the brute-force oracle
HAND_TOL = 1e-6      # relative agreement with the straight-line recompute


@pytest.fixture(scope="module")
def default_sweep():
    cfg = config_from_dict({})
    return cfg, run_sweep(cfg)


def test_criterion_1_svd_reconstruction_unitarity_order():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        k = min(m, n)
        res = svd(a, k)
        recon_err = np.linalg.norm(a - reconstruct(res)) / np.linalg.norm(a)
        assert recon_err < FACTOR_TOL
        u, v = res.left, res.right
        assert np.linalg.norm(u.conj().T @ u - np.eye(k)) < FACTOR_TOL
        assert np.linalg.norm(v.conj().T @ v - np.eye(k)) < FACTOR_TOL
        s = res.singular_values
        assert np.all(s[:-1] >= s[1:])
        assert np.all(s >= 0.0)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_2_hybrid_gain_never_beats_full_digital():
    rng = np.random.default_rng(7)
    n_sc = 4
    for codebook in config_from_dict({}).codebooks:
        for _ in range(200):
            ch = rng.standard_normal((n_sc, 1, codebook.n_tx)) + 1j * rng.standard_normal(
                (n_sc, 1, codebook.n_tx)
            )
            (sol,) = design_link(((ch[None], (codebook,)),), np.array([0.01]))
            hybrid = sol.effective_gain_per_subcarrier()[0]
            for sc in range(n_sc):
                full = np.linalg.svd(ch[sc], compute_uv=False)[0]
                assert hybrid[sc] <= full + FACTOR_TOL
    # reduction: bypassing the analog stage with as many chains as antennas
    # recovers the full-digital gain exactly
    for n_tx in (2, 4, 8):
        for _ in range(50):
            h = rng.standard_normal((1, n_tx)) + 1j * rng.standard_normal((1, n_tx))
            d_pre, d_comb = hybrid_digital(h, 1)
            gain = abs(effective_channel(d_comb, h, d_pre)[0, 0])
            full = np.linalg.svd(h, compute_uv=False)[0]
            assert abs(gain - full) < FACTOR_TOL * full


def test_criterion_3_constraint_conformance_full_sweep(default_sweep):
    cfg, _ = default_sweep
    topo = cfg.topology
    base = cfg.base_cells
    checked = 0
    _, amplitude = path_gains(topo, cfg.grid, cfg.w, cfg.tap_count, cfg.tap_spacing)
    for codebook in cfg.codebooks:
        dl = synthesize_dl(
            topo,
            amplitude,
            cfg.grid.n_sc,
            codebook.n_tx,
            codebook.n_rx,
            mode=cfg.gain_mode,
            rng=np.random.default_rng([cfg.seed, 1]),
        )
        for i in range(topo.n_users):
            for j in range(topo.n_aps):
                cells = evaluation_cells(base, i, j)
                n_served = sum(1 for c in cells if c == j)
                (sol,) = design_link(
                    ((dl.matrices[i, j][None], (codebook,)),), np.array([cfg.p_b / n_served])
                )
                dev_p = np.abs(np.abs(sol.analog_precoder) ** 2 - 1.0 / codebook.n_tx)
                dev_g = np.abs(np.abs(sol.analog_combiner) ** 2 - 1.0 / codebook.n_rx)
                assert float(np.max(dev_p)) <= MODULUS_TOL
                assert float(np.max(dev_g)) <= MODULUS_TOL
                eye = np.eye(codebook.n_ds)
                # the digital stage of the channel seen through the analog stages
                h_d = effective_channel(sol.analog_combiner[0], dl.matrices[i, j], sol.analog_precoder[0])
                pre, comb = hybrid_digital(h_d, codebook.n_ds)
                for d, c in zip(pre, comb):
                    assert np.linalg.norm(d.conj().T @ d - eye) < FACTOR_TOL
                    assert np.linalg.norm(c.conj().T @ c - eye) < FACTOR_TOL
                checked += 1
    assert checked == len(cfg.codebooks) * topo.n_users * topo.n_aps


def test_criterion_4_sinr_matches_brute_force():
    rng = np.random.default_rng(11)
    n_sc = 3
    for u_count in (1, 2, 3):
        for b_count in (1, 2):
            for _ in range(25):
                coeffs = rng.standard_normal((u_count, b_count, n_sc)) + 1j * rng.standard_normal(
                    (u_count, b_count, n_sc)
                )
                p_user = rng.uniform(0.1, 2.0, u_count)
                p_ap = rng.uniform(0.1, 2.0, b_count)
                dl_gains = rng.uniform(0.01, 1.0, (u_count, b_count))
                base = [int(rng.integers(0, b_count)) for _ in range(u_count)]
                sigma = float(rng.uniform(0.01, 1.0))
                for i in range(u_count):
                    for j in range(b_count):
                        cells = list(base)
                        cells[i] = j
                        for n in range(n_sc):
                            got = sinr_ul(i, j, n, p_user, coeffs, cells, sigma)
                            sig = p_user[i] * abs(coeffs[i, j, n]) ** 2
                            den = sigma
                            for l in range(u_count):
                                if l != i and cells[l] == j:
                                    den += p_user[l] * abs(coeffs[l, j, n]) ** 2
                            for b in range(b_count):
                                if b == j:
                                    continue
                                for k in range(u_count):
                                    if k != i and cells[k] == b:
                                        den += p_user[k] * abs(coeffs[k, b, n]) ** 2
                            want = sig / den
                            assert abs(got - want) <= SINR_TOL * want
                        got = sinr_dl(i, j, p_ap, dl_gains, cells, sigma)
                        den = sigma
                        for l in range(u_count):
                            if l != i and cells[l] == j:
                                den += p_ap[j] * dl_gains[i, j]
                        for b in range(b_count):
                            if b == j:
                                continue
                            for k in range(u_count):
                                if k != i and cells[k] == b:
                                    den += p_ap[b] * dl_gains[k, b]
                        want = p_ap[j] * dl_gains[i, j] / den
                        assert abs(got - want) <= SINR_TOL * want


def test_criterion_5_utility_boundaries_and_range(default_sweep):
    for gamma, d_max in ((0.02, 5e8), (1.0, 2.0), (1e-3, 20e-3)):
        assert conditional_utility(gamma, d_max, gamma) == 1.0
        assert conditional_utility(d_max, d_max, gamma) == 0.0
    _, result = default_sweep
    assert result.utility.size
    # NaN, an infeasible row, fails both comparisons
    assert np.all((0.0 <= result.utility) & (result.utility <= 1.0))


def test_criterion_6_delay_monotone_in_esn0(default_sweep):
    cfg, result = default_sweep
    # one series per (scenario, codebook, AP, user) along the Es/N0 axis
    assert result.d_trans.shape == (len(cfg.scenarios), len(cfg.codebooks), len(cfg.esn0_db), 2, 2)
    assert np.all(np.diff(result.esn0_db) > 0)
    violations = np.count_nonzero(result.d_trans[:, :, 1:] > result.d_trans[:, :, :-1])
    assert violations == 0


def test_criterion_7_scenario_ordering_and_antenna_trend(default_sweep):
    cfg, result = default_sweep
    names = [s.value for s in result.scenarios]
    lo, hi = names.index("min"), names.index("mean")
    assert np.all(result.utility[lo] <= result.utility[hi])
    assert np.all(result.d_trans[lo] >= result.d_trans[hi])
    # min scenario: sweep-averaged utility non-decreasing in antenna count
    books = [(cb.n_tx, cb.n_rf) for cb in result.codebooks]
    for n_rf in (1, 2):
        avgs = []
        for n_tx in (2, 4, 8):
            vals = result.utility[lo, books.index((n_tx, n_rf))].ravel().tolist()
            assert vals
            avgs.append(sum(vals) / len(vals))
        assert avgs[0] <= avgs[1] + 1e-12
        assert avgs[1] <= avgs[2] + 1e-12


def test_criterion_8_deterministic_csv_and_runtime(tmp_path):
    cfg = config_from_dict({})
    t0 = time.perf_counter()
    first = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert first.codes.size == 2 * 6 * 21 * 4
    second = run_sweep(cfg)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_results_csv(first, str(a))
    write_results_csv(second, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_criterion_9_hand_recomputed_sweep_point(default_sweep):
    cfg, result = default_sweep
    # straight-line recompute, no package calls: two fixed APs, two fixed
    # users, 2 antennas, 1 RF chain, Es/N0 = 10 dB, mean scenario
    c = 299792458.0
    lam_m = c / 60e9
    bw_total = 2.16e9
    bw_sc = bw_total / 64
    p_b = 0.01
    p_u = 0.005
    sigma_sq = p_b / 10.0
    w_exp = 3.2
    aps = ((2.5, 4.0, 3.0), (7.5, 13.0, 3.0))
    users = ((3.0, 6.0, 1.5), (6.5, 11.0, 1.5))

    def dist(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    d = [[dist(u, a) for a in aps] for u in users]
    # uplink squared channel magnitude: pure path loss, the unit-modulus
    # subcarrier ramp drops out
    ul = [[d[i][j] ** (-2.0 * w_exp) for j in range(2)] for i in range(2)]

    # downlink effective gain with one RF chain: the analog precoder aligns
    # with the array response, so the per-subcarrier amplitude is exactly the
    # free-space amplitude times the tap-decay sum
    def dl_gain(dd):
        fspl = 20.0 * math.log10(lam_m / (4.0 * math.pi * dd))
        tau = dd / c
        dt = 1.0 / bw_total
        tapsum = sum(math.exp(-(k * dt) / tau) for k in range(4))
        return (10.0 ** (fspl / 10.0) * tapsum) ** 2

    g = [[dl_gain(d[i][j]) for j in range(2)] for i in range(2)]
    base = (0, 1)

    s = [sc.value for sc in result.scenarios].index("mean")
    c = [(cb.n_tx, cb.n_rf) for cb in result.codebooks].index((2, 1))
    e = result.esn0_db.tolist().index(10.0)
    assert result.codes[s, c, e].shape == (2, 2)

    for j, i in np.ndindex(2, 2):
        at = (s, c, e, j, i)
        cells = list(base)
        cells[i] = j
        den_ul = sigma_sq
        den_dl = sigma_sq
        for l in range(2):
            if l != i and cells[l] == j:
                den_ul += p_u * ul[l][j]
                den_dl += p_b * g[i][j]
        for b in range(2):
            if b == j:
                continue
            for k in range(2):
                if k != i and cells[k] == b:
                    den_ul += p_u * ul[k][b]
                    den_dl += p_b * g[k][b]
        s_ul = p_u * ul[i][j] / den_ul
        s_dl = p_b * g[i][j] / den_dl
        r_ul = bw_sc * math.log1p(s_ul) / math.log(2.0)
        r_dl = bw_total * math.log1p(s_dl) / math.log(2.0)
        d_trans = 12288.0 / r_dl + 6.0 / r_ul
        d_proc = 5.0 / (1e9 / 2.0)
        d_queue = 1.0 / (4e-9 - 2e-9)
        d_total = d_trans + d_proc + d_queue

        assert result.rate_ul[e, j, i] == pytest.approx(r_ul, rel=HAND_TOL)
        assert result.rate_dl[at] == pytest.approx(r_dl, rel=HAND_TOL)
        assert result.d_trans[at] == pytest.approx(d_trans, rel=HAND_TOL)
        assert result.d_proc == pytest.approx(d_proc, rel=HAND_TOL)
        assert result.d_queue == pytest.approx(d_queue, rel=HAND_TOL)
        assert result.d_total[at] == pytest.approx(d_total, rel=HAND_TOL)
        # every subcarrier sits at the window maximum and at the worst
        # tracking error simultaneously, so the utility is exactly zero
        assert result.codes[at] == 0
        assert result.utility[at] == 0.0
