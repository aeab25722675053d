"""Hybrid beamforming: analog stages, digital stages, power, gain bounds."""

import dataclasses
import math

import numpy as np
import pytest

from vrlink.beamforming import (
    Codebook,
    analog_combiner,
    analog_precoder,
    design_link,
    effective_channel,
    hybrid_digital,
)
from vrlink.config import config_from_dict
from vrlink.errors import InvalidInputError, ShapeError
from vrlink.numerics import svd


def random_channels(rng, n_sc, n_rx, n_tx):
    return (
        rng.standard_normal((n_sc, n_rx, n_tx)) + 1j * rng.standard_normal((n_sc, n_rx, n_tx))
    )


def test_codebook_validation_and_labels():
    cb = Codebook(4, 2)
    assert cb.label == "4A2R"
    assert Codebook.from_string("4x2").label == "4A2R"
    assert Codebook.from_string("8A2R").label == "8A2R"
    assert Codebook.from_string(" 2 x 1 ").label == "2A1R"
    with pytest.raises(InvalidInputError):
        Codebook(2, 4)  # more RF chains than antennas
    with pytest.raises(InvalidInputError):
        Codebook(4, 2, n_rx=1, n_ds=2)  # more streams than receive antennas
    with pytest.raises(InvalidInputError):
        Codebook.from_string("banana")


def test_default_codebooks_cover_six_configs():
    labels = [cb.label for cb in config_from_dict({}).codebooks]
    assert labels == ["2A1R", "2A2R", "4A1R", "4A2R", "8A1R", "8A2R"]


def test_analog_combiner_scalar_receiver():
    rng = np.random.default_rng(23)
    ch = random_channels(rng, 8, 1, 4)
    g = analog_combiner(ch)
    assert g.shape == (1, 1)
    assert abs(abs(g[0, 0]) - 1.0) < 1e-12
    # the scalar phase convention pins it to exactly 1
    assert g[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_analog_combiner_moduli_two_antennas():
    rng = np.random.default_rng(29)
    ch = random_channels(rng, 8, 2, 4)
    g = analog_combiner(ch, n_cols=2)
    assert g.shape == (2, 2)
    assert np.all(np.abs(np.abs(g) - 1.0 / math.sqrt(2)) < 1e-12)


def test_analog_combiner_real_positive_channels_have_zero_phase():
    # rank-1 all-real-positive channels keep the dominant eigenvector positive
    base = np.outer(np.ones(2), np.ones(3))
    ch = np.stack([c * base for c in (1.0, 0.5, 0.25)]).astype(complex)
    g = analog_combiner(ch, n_cols=1)
    assert np.allclose(np.angle(g), 0.0, atol=1e-12)


def test_analog_precoder_moduli_and_shape():
    rng = np.random.default_rng(31)
    ch = random_channels(rng, 8, 1, 2)
    p = analog_precoder(ch, 2)
    assert p.shape == (2, 2)
    assert np.all(np.abs(np.abs(p) - 1.0 / math.sqrt(2)) < 1e-12)
    p1 = analog_precoder(ch, 1)
    assert p1.shape == (2, 1)
    with pytest.raises(ShapeError):
        analog_precoder(ch, 3)


def test_analog_precoder_aligns_with_dominant_direction():
    # rank-1 set: the first column inherits the phases of the top singular
    # vector of the covariance sum because element normalization keeps phase
    rng = np.random.default_rng(37)
    a_tx = np.exp(1j * rng.uniform(0, 2 * math.pi, 4)) / 2.0
    ch = np.stack([np.outer([1.0], a_tx.conj()) * c for c in (2.0, 1.5, 1.0)])
    cov = np.zeros((4, 4), dtype=complex)
    for h in ch:
        cov += h.conj().T @ h
    top = svd(cov).left[:, 0]
    p = analog_precoder(ch, 1)
    assert np.allclose(np.angle(p[:, 0]), np.angle(top), atol=1e-9)


def test_hybrid_digital_square_selection():
    rng = np.random.default_rng(41)
    h_d = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    pre, comb = hybrid_digital(h_d, 2, 2)
    res = svd(h_d)
    assert np.allclose(pre, res.right)
    assert np.allclose(comb, res.left)


def test_hybrid_digital_axis_aligned():
    h_d = np.array([[2.0, 0.0]], dtype=complex)
    pre, comb = hybrid_digital(h_d, 1, 2)
    eff = effective_channel(comb, h_d, pre)
    assert abs(eff[0, 0]) == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(np.abs(pre[:, 0]), [1.0, 0.0], atol=1e-12)


def test_hybrid_digital_matches_sigma_max():
    rng = np.random.default_rng(43)
    for _ in range(50):
        h_d = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
        pre, comb = hybrid_digital(h_d, 1, 2)
        gain = abs(effective_channel(comb, h_d, pre)[0, 0])
        assert gain == pytest.approx(np.linalg.svd(h_d, compute_uv=False)[0], rel=1e-9)
    with pytest.raises(ShapeError):
        hybrid_digital(np.ones((1, 2), dtype=complex), 1, 3)


def test_effective_channel_identity_sandwich():
    rng = np.random.default_rng(47)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(effective_channel(np.eye(3), h, np.eye(3)), h)
    with pytest.raises(ShapeError):
        effective_channel(np.eye(2), h, np.eye(3))
    with pytest.raises(ShapeError):
        effective_channel(np.eye(3), h, np.eye(2))


def test_effective_channel_recomposes_diagonal():
    h = np.diag([3.0, 1.0]).astype(complex)
    res = svd(h)
    pre, comb = res.right, res.left
    assert np.allclose(effective_channel(comb, h, pre), h, atol=1e-12)


def test_design_link_shapes_and_units():
    rng = np.random.default_rng(53)
    links = np.stack([random_channels(rng, 64, 1, 2) for _ in range(3)])
    (sol,) = design_link(links, (Codebook(2, 1),), np.array([0.01, 0.005, 0.01]))
    assert sol.analog_precoder.shape == (3, 2, 1)
    assert sol.analog_combiner.shape == (3, 1, 1)
    assert sol.digital_precoders.shape == (3, 64, 1, 1)
    assert sol.effective_channels.shape == (3, 64, 1, 1)
    assert sol.power_scale.shape == (3, 64)
    assert sol.transmit_power().shape == (3,)
    gains = sol.effective_gain_per_subcarrier()
    assert gains.shape == (3, 64)
    assert np.all(gains >= 0)


def test_design_link_invariants_all_codebooks():
    rng = np.random.default_rng(59)
    for cb in config_from_dict({}).codebooks:
        ch = random_channels(rng, 16, cb.n_rx, cb.n_tx)
        (sol,) = design_link(ch[None], (cb,), np.array([0.01]))
        # constant-modulus analog entries
        assert np.all(np.abs(np.abs(sol.analog_precoder) - 1 / math.sqrt(cb.n_tx)) < 1e-12)
        assert np.all(np.abs(np.abs(sol.analog_combiner) - 1 / math.sqrt(cb.n_rx)) < 1e-12)
        for sc in range(16):
            d = sol.digital_precoders[0, sc]
            # semi-unitary before power scaling
            assert np.linalg.norm(d.conj().T @ d - np.eye(cb.n_ds)) < 1e-9
        # the power budget is met exactly across streams and subcarriers
        assert sol.transmit_power()[0] == pytest.approx(0.01, rel=1e-9)
        # hybrid gain never beats the per-subcarrier full-digital gain
        for sc in range(16):
            sigma = np.linalg.svd(ch[sc], compute_uv=False)[0]
            assert sol.effective_gain_per_subcarrier()[0, sc] <= sigma + 1e-9


def test_design_link_single_subcarrier_matches_single_covariance():
    rng = np.random.default_rng(61)
    ch = random_channels(rng, 1, 1, 4)
    (sol,) = design_link(ch[None], (Codebook(4, 2),), np.array([0.005]))
    cov = ch[0].conj().T @ ch[0]
    top2 = svd(cov).left[:, :2]
    expected_phases = np.angle(top2[np.abs(top2) > 1e-15])
    got_phases = np.angle(sol.analog_precoder[0][np.abs(top2) > 1e-15])
    assert np.allclose(
        np.exp(1j * got_phases), np.exp(1j * expected_phases), atol=1e-9
    )


def test_design_link_deterministic():
    rng = np.random.default_rng(67)
    links = random_channels(rng, 8, 1, 4)[None]
    (a,) = design_link(links, (Codebook(4, 2),), np.array([0.01]))
    (b,) = design_link(links.copy(), (Codebook(4, 2),), np.array([0.01]))
    assert np.array_equal(a.analog_precoder, b.analog_precoder)
    assert np.array_equal(a.digital_precoders, b.digital_precoders)
    assert np.array_equal(a.effective_channels, b.effective_channels)
    assert np.array_equal(a.power_scale, b.power_scale)


def test_design_link_rejects_mismatched_shapes():
    rng = np.random.default_rng(71)
    links = random_channels(rng, 4, 1, 2)[None]
    budget = np.array([0.01])
    with pytest.raises(ShapeError):
        design_link(links, (Codebook(4, 2),), budget)
    with pytest.raises(InvalidInputError):
        design_link(links, (Codebook(2, 1),), np.array([0.0]))
    # one form only: a tuple of codebooks, an (L, n_sc, n_rx, n_tx) stack
    # and one budget per link
    with pytest.raises(ShapeError):
        design_link(links, Codebook(2, 1), budget)
    with pytest.raises(ShapeError):
        design_link(links[0], (Codebook(2, 1),), budget)
    with pytest.raises(ShapeError):
        design_link(links, (Codebook(2, 1),), 0.01)
    with pytest.raises(ShapeError):
        design_link(links, (Codebook(2, 1),), np.array([0.01, 0.01]))


def test_grouped_design_equals_each_codebook_alone():
    # one tuple call shares the analog stages of codebooks that differ only
    # in n_rf; each solution must be the lone design, byte for byte, also
    # with the tuple out of n_rf order and for a stack of one link
    rng = np.random.default_rng(79)
    links = np.stack([random_channels(rng, 16, 1, 8) for _ in range(5)])
    budgets = np.array([0.01, 0.005, 0.02, 0.01, 0.0025])
    group = tuple(Codebook.from_string(text) for text in ("8x8", "8x1", "8x4", "8x2"))
    for channels, p_b in ((links, budgets), (links[:1], budgets[:1])):
        grouped = design_link(channels, group, p_b)
        assert isinstance(grouped, tuple) and len(grouped) == len(group)
        for cb, sol in zip(group, grouped):
            (alone,) = design_link(channels, (cb,), p_b)
            assert sol.codebook == cb
            arrays = [field.name for field in dataclasses.fields(sol) if field.name != "codebook"]
            for name in arrays:
                x, y = getattr(sol, name), getattr(alone, name)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), (cb.label, name)
    with pytest.raises(ShapeError):
        design_link(links, (Codebook(8, 2), Codebook(4, 2)), budgets)
    with pytest.raises(ShapeError):
        design_link(links, (), budgets)


def test_reduction_identity_analog_recovers_full_digital():
    # with as many RF chains as antennas and the analog stage bypassed, the
    # digital stage alone must reach the unconstrained SVD gain
    rng = np.random.default_rng(73)
    for n_tx in (2, 4, 8):
        for _ in range(20):
            h = rng.standard_normal((1, n_tx)) + 1j * rng.standard_normal((1, n_tx))
            pre, comb = hybrid_digital(h, 1, n_tx)
            f = np.eye(n_tx) @ pre
            w = np.eye(1) @ comb
            eff = effective_channel(w / np.linalg.norm(w), h, f / np.linalg.norm(f))
            sigma = np.linalg.svd(h, compute_uv=False)[0]
            assert abs(eff[0, 0]) == pytest.approx(sigma, rel=1e-9)
