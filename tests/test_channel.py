"""Channel synthesis: phase ramp, path loss, steering vectors, DL matrices."""

import itertools
import math
import warnings

import numpy as np
import pytest

from oracles import dl_link_channels, link_gains, link_steering, ul_channel
from vrlink.channel import (
    GAIN_MODES,
    SPEED_OF_LIGHT,
    SubcarrierGrid,
    fspl_db,
    path_gains,
    steering_vector,
    subcarrier_gains,
    subcarrier_phase_ramp,
    synthesize_dl,
    synthesize_ul,
    tap_decay_sum,
)
from vrlink.config import config_from_dict
from vrlink.errors import ConfigurationError, InvalidInputError
from vrlink.topology import IndoorArea, NetworkTopology, Position3D

GRID = SubcarrierGrid(n_sc=64, carrier_frequency=60e9, total_bandwidth=2.16e9)


def small_topology():
    aps = (Position3D(2.5, 4.0, 3.0), Position3D(7.5, 13.0, 3.0))
    users = (Position3D(3.0, 6.0, 1.5), Position3D(6.5, 11.0, 1.5))
    return NetworkTopology(area=IndoorArea(), aps=aps, users=users)


def gains_of(topo, w=3.2, tap_count=4):
    """path_gains at the default tap spacing, one sample of GRID's bandwidth."""
    return path_gains(topo, GRID, w, tap_count, GRID.sample_period)


def test_phase_ramp_first_element():
    ramp = subcarrier_phase_ramp(1)
    assert ramp.shape == (1,)
    assert ramp[0] == pytest.approx(0.9998476951563913 + 0.01745240643728351j, rel=1e-12)


def test_phase_ramp_element_64_and_moduli():
    ramp = subcarrier_phase_ramp(64)
    assert np.angle(ramp[63]) == pytest.approx(64.0 * math.pi / 180.0, rel=1e-12)
    assert np.all(np.abs(np.abs(ramp) - 1.0) < 1e-12)


def test_subcarrier_gains_gaussian_mode_seeded():
    a = subcarrier_gains(1, 16, "gaussian", np.random.default_rng(5))
    b = subcarrier_gains(1, 16, "gaussian", np.random.default_rng(5))
    c = subcarrier_gains(1, 16, "gaussian", np.random.default_rng(6))
    assert a.shape == (1, 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gaussian_gains_of_many_links_are_one_stream():
    # one (links, 2, n_sc) draw holds each link's real parts, then its
    # imaginary parts, as separate draws one link at a time would
    rng = np.random.default_rng(11)
    want = [link_gains(9, "gaussian", rng) for _ in range(6)]
    rng = np.random.default_rng(11)
    got = list(subcarrier_gains(1, 9, "gaussian", rng)) + list(subcarrier_gains(5, 9, "gaussian", rng))
    assert np.array_equal(np.array(got).view(float), np.array(want).view(float))
    ramps = subcarrier_gains(3, 9)
    assert ramps.shape == (3, 9) and np.array_equal(ramps, np.tile(subcarrier_phase_ramp(9), (3, 1)))
    assert np.array_equal(ramps[0].view(float), link_gains(9, "deterministic").view(float))


def test_ul_channel_values():
    assert ul_channel(1.0, 3.2, 1.0 + 0j) == pytest.approx(1.0)
    assert ul_channel(2.0, 3.2, 1.0 + 0j) == pytest.approx(0.1088188204120155, rel=1e-12)
    ramp = np.exp(1j * math.radians(30.0))
    h = ul_channel(2.0, 3.2, ramp)
    assert abs(h) == pytest.approx(0.1088188204120155, rel=1e-12)
    assert np.angle(h) == pytest.approx(math.radians(30.0), rel=1e-12)


def test_ul_channel_rejects_degenerate():
    with pytest.raises(InvalidInputError, match="distance must be positive"):
        ul_channel(0.0, 3.2, 1.0)
    with pytest.raises(InvalidInputError):
        ul_channel(1.0, -1.0, 1.0)


def test_fspl_reference_values():
    lam = SPEED_OF_LIGHT / 60e9
    assert fspl_db(1.0, lam) == pytest.approx(-68.01080822955625, rel=1e-12)
    assert fspl_db(0.1, lam) == pytest.approx(-48.01080822955625, rel=1e-12)
    # log argument exactly 1
    assert fspl_db(lam / (4.0 * math.pi), lam) == pytest.approx(0.0, abs=1e-12)


def test_steering_vector_zero_angle():
    a = steering_vector(2, [0.0])
    assert a.shape == (1, 2)
    assert np.allclose(a[0], [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_steering_vector_30_degrees():
    # sin 30 = 1/2 with half-wavelength spacing gives a phase step of -pi/2
    a = steering_vector(2, [30.0])[0]
    assert a[0] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert a[1] == pytest.approx(-1j / math.sqrt(2), rel=1e-12)


def test_steering_vector_unit_norm():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 17))
        az = float(rng.uniform(0, 360))
        a = steering_vector(n, [az])[0]
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_steering_vectors_equal_one_azimuth_at_a_time():
    rng = np.random.default_rng(19)
    azimuths = list(rng.uniform(-180, 360, 40)) + [0.0, 30.0, 90.0, -90.0, 180.0]
    for n in (1, 2, 3, 8, 16):
        got = steering_vector(n, azimuths)
        assert got.shape == (len(azimuths), n)
        want = np.array([link_steering(n, az) for az in azimuths])
        assert np.array_equal(got.view(float), want.view(float))


def test_tap_decay_sum():
    assert tap_decay_sum(1e-8, 1, 1e-9) == pytest.approx(1.0)
    expected = 1.0 + math.exp(-0.1) + math.exp(-0.2) + math.exp(-0.3)
    assert tap_decay_sum(1e-8, 4, 1e-9) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(InvalidInputError):
        tap_decay_sum(1e-8, 0, 1e-9)
    # a tap delay past the float range contributes exp(-inf) = 0, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert tap_decay_sum(1e-8, 4, 1e300) == 1.0


RAMP = subcarrier_phase_ramp(GRID.n_sc)


def test_dl_channel_matrix_axis_aligned():
    # receiver due east of the transmitter: departure azimuth 0
    tx = Position3D(0, 0, 1)
    rx = Position3D(2, 0, 1)
    amp = 10.0 ** (fspl_db(2.0, GRID.wavelength) / 10.0)
    h = dl_link_channels(tx, rx, amp, RAMP[:1], n_tx=2, n_rx=1)
    assert h.shape == (1, 1, 2)
    expected = amp * np.exp(1j * math.pi / 180.0) * np.array([[1, 1]]) / math.sqrt(2)
    assert np.allclose(h[0], expected, rtol=1e-12)


def test_dl_channel_matrix_rank_one():
    tx = Position3D(1, 1, 3)
    rx = Position3D(4, 7, 1.5)
    for n_rx in (1, 3):
        for h in dl_link_channels(tx, rx, 1e-7, RAMP, n_tx=8, n_rx=n_rx):
            s = np.linalg.svd(h, compute_uv=False)
            assert s[0] > 0
            assert np.all(s[1:] < 1e-12 * s[0])


def test_dl_channel_matrix_frobenius_matches_amplitude():
    tx = Position3D(2.5, 4.0, 3.0)
    rx = Position3D(3.0, 6.0, 1.5)
    d = math.sqrt(0.5**2 + 2.0**2 + 1.5**2)
    tau = d / SPEED_OF_LIGHT
    expected = 10.0 ** (fspl_db(d, GRID.wavelength) / 10.0) * tap_decay_sum(
        tau, 4, GRID.sample_period
    )
    _, amp = gains_of(small_topology())
    assert amp[0, 0] == pytest.approx(expected, rel=1e-12)
    for n_tx in (2, 4, 8):
        h = dl_link_channels(tx, rx, amp[0, 0], RAMP, n_tx=n_tx, n_rx=1)
        assert np.linalg.norm(h, axis=(1, 2)) == pytest.approx(np.full(GRID.n_sc, expected), rel=1e-9)


def test_dl_channel_subcarriers_differ_by_scalar_ramp():
    tx = Position3D(1, 2, 3)
    rx = Position3D(5, 9, 1.5)
    h = dl_link_channels(tx, rx, 1e-7, RAMP, n_tx=4, n_rx=1)
    for n in (2, 17, 64):
        ratio = h[n - 1] / h[0]
        expected = np.exp(1j * (n - 1) * math.pi / 180.0)
        assert np.allclose(ratio, expected, rtol=1e-9)


def test_dl_channel_distance_monotonicity():
    users = (Position3D(2, 0, 1), Position3D(4, 0, 1))
    ul, dl = gains_of(NetworkTopology(IndoorArea(), aps=(Position3D(0, 0, 1),), users=users))
    assert ul[1, 0] < ul[0, 0] and dl[1, 0] < dl[0, 0]


@pytest.mark.parametrize(
    "user, w, fc, link",
    [
        (Position3D(1e-200, 0, 1), 3.2, 60e9, "user 1 / AP 0: distance 0 m"),  # d underflows to 0
        (Position3D(1e-100, 0, 1), 3.2, 60e9, "user 1 / AP 0: distance 1e-100 m"),  # d^-w overflows
        (Position3D(0.5, 0, 1.5), 3000.0, 60e9, "user 1 / AP 0: distance 0.707107 m"),
        (Position3D(1e300, 0, 1), 3.2, 60e9, "user 1 / AP 0: distance inf m"),  # d overflows
        (Position3D(2, 0, 1), 3.2, 1e-290, "user 0 / AP 0"),  # every DL amplitude overflows
    ],
)
def test_path_gains_reject_a_link_without_a_finite_gain(user, w, fc, link):
    area = IndoorArea(x_range=(0.0, 1e300))
    topo = NetworkTopology(area, aps=(Position3D(0, 0, 1),), users=(Position3D(5, 5, 1), user))
    with pytest.raises(ConfigurationError, match=link):
        path_gains(topo, SubcarrierGrid(4, fc, 2.16e9), w, 4, GRID.sample_period)


def test_ul_doubling_distance_scales_by_pathloss():
    w = 3.2
    h1 = ul_channel(1.7, w, 1.0)
    h2 = ul_channel(3.4, w, 1.0)
    assert abs(h2) / abs(h1) == pytest.approx(2.0 ** (-w), rel=1e-12)


def test_synthesize_ul_moduli_and_aggregate():
    topo = small_topology()
    ul = synthesize_ul(gains_of(topo)[0], GRID.n_sc)
    assert ul.shape == (2, 2, 64)
    for i, user in enumerate(topo.users):
        for j, ap in enumerate(topo.aps):
            d = math.dist((user.x, user.y, user.z), (ap.x, ap.y, ap.z))
            assert np.all(np.abs(np.abs(ul[i, j]) - d ** (-3.2)) < 1e-15)
            # the subcarrier sum equals an explicit per-subcarrier loop
            brute = sum(
                ul_channel(d, 3.2, np.exp(1j * n * math.pi / 180.0)) for n in range(1, 65)
            )
            assert ul[i, j].sum() == pytest.approx(brute, rel=1e-12)


def test_synthesize_dl_shapes_and_tau():
    topo = small_topology()
    dl = synthesize_dl(topo, gains_of(topo)[1], GRID.n_sc, n_tx=4, n_rx=1)
    assert dl.matrices.shape == (2, 2, 64, 1, 4)
    # the propagation delay enters every subcarrier through the tap sum
    d00 = math.sqrt(0.5**2 + 2.0**2 + 1.5**2)
    amp = 10.0 ** (fspl_db(d00, GRID.wavelength) / 10.0) * tap_decay_sum(
        d00 / SPEED_OF_LIGHT, 4, GRID.sample_period
    )
    assert np.linalg.norm(dl.matrices[0, 0], axis=(1, 2)) == pytest.approx(
        np.full(64, amp), rel=1e-12
    )


def test_synthesize_dl_gaussian_mode_deterministic_per_seed():
    topo = small_topology()
    args = (topo, gains_of(topo)[1], GRID.n_sc, 2, 1, "gaussian")
    a = synthesize_dl(*args, np.random.default_rng([1, 1]))
    b = synthesize_dl(*args, np.random.default_rng([1, 1]))
    c = synthesize_dl(*args, np.random.default_rng([2, 1]))
    assert np.array_equal(a.matrices, b.matrices)
    assert not np.array_equal(a.matrices, c.matrices)


@pytest.mark.parametrize("mode", GAIN_MODES)
@pytest.mark.parametrize("n_rx", [1, 2])
@pytest.mark.parametrize("u, b", [(3, 2), (8, 4)])
def test_stacked_synthesis_equals_one_link_at_a_time(mode, n_rx, u, b):
    cfg = config_from_dict({"u": str(u), "b": str(b), "n_sc": "17", "gain_mode": mode, "seed": "5"})
    topo, n_sc = cfg.topology, cfg.grid.n_sc
    ul_gain, amp = path_gains(topo, cfg.grid, cfg.w, cfg.tap_count, cfg.tap_spacing)
    ul = synthesize_ul(ul_gain, n_sc, mode, np.random.default_rng([5, 0]))
    ul_rng = np.random.default_rng([5, 0])
    for i, j in np.ndindex(ul_gain.shape):
        want = link_gains(n_sc, mode, ul_rng) * ul_gain[i, j]
        assert np.array_equal(ul[i, j].view(float), want.view(float))
    for n_tx in (1, 4):
        dl = synthesize_dl(topo, amp, n_sc, n_tx, n_rx, mode, np.random.default_rng([5, 1])).matrices
        assert dl.shape == (u, b, n_sc, n_rx, n_tx)
        dl_rng = np.random.default_rng([5, 1])
        for (i, user), (j, ap) in itertools.product(enumerate(topo.users), enumerate(topo.aps)):
            want = dl_link_channels(ap, user, amp[i, j], link_gains(n_sc, mode, dl_rng), n_tx, n_rx)
            assert np.array_equal(dl[i, j].view(float), want.view(float))


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        SubcarrierGrid(0, 60e9, 2.16e9)
    with pytest.raises(ConfigurationError):
        SubcarrierGrid(64, -1.0, 2.16e9)
    with pytest.raises(ConfigurationError):
        SubcarrierGrid(64, 60e9, 0.0)
    assert GRID.subcarrier_bandwidth == pytest.approx(2.16e9 / 64)
    assert GRID.wavelength == pytest.approx(0.004996540966666667, rel=1e-12)
