"""Hybrid beamforming: analog stages, digital stages, power, gain bounds."""

import dataclasses
import math

import numpy as np
import pytest

from vrlink import beamforming, numerics
from vrlink.beamforming import (
    Codebook,
    _covariance_beams,
    analog_combiner,
    analog_precoder,
    design_link,
    effective_channel,
    hybrid_digital,
)
from vrlink.config import config_from_dict
from vrlink.errors import InvalidInputError, LinkError, ShapeError
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


def test_analog_precoder_aligns_with_dominant_direction():
    # rank-1 set: the first column inherits the phases of the top singular
    # vector of the covariance sum because element normalization keeps phase
    rng = np.random.default_rng(37)
    a_tx = np.exp(1j * rng.uniform(0, 2 * math.pi, 4)) / 2.0
    ch = np.stack([np.outer([1.0], a_tx.conj()) * c for c in (2.0, 1.5, 1.0)])
    cov = np.zeros((4, 4), dtype=complex)
    for h in ch:
        cov += h.conj().T @ h
    top = svd(cov, 1).left[:, 0]
    p = analog_precoder(ch, 1)
    assert np.allclose(np.angle(p[:, 0]), np.angle(top), atol=1e-9)


def test_analog_precoder_of_a_many_link_block_equals_each_link_alone(monkeypatch):
    # 48 links of 64 x 2 x 2 products are one covariance block; each link's
    # sum still adds its subcarriers in order, so the beams keep their bits
    rng = np.random.default_rng(41)
    links = np.stack([random_channels(rng, 64, 1, 2) for _ in range(48)])
    summed = []
    subcarrier_sum = beamforming._subcarrier_sum
    monkeypatch.setattr(beamforming, "_subcarrier_sum", lambda p: summed.append(len(p)) or subcarrier_sum(p))
    stacked = analog_precoder(links, 2)
    assert summed == [48] and numerics.block_size(48, 64 * 2 * 2, beamforming.COVARIANCE_PRODUCTS) == 48
    alone = np.stack([analog_precoder(link, 2) for link in links])
    assert stacked.tobytes() == alone.tobytes()


def test_hybrid_digital_square_selection():
    rng = np.random.default_rng(41)
    h_d = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    pre, comb = hybrid_digital(h_d, 2)
    res = svd(h_d, 2)
    assert np.allclose(pre, res.right)
    assert np.allclose(comb, res.left)


def test_hybrid_digital_axis_aligned():
    h_d = np.array([[2.0, 0.0]], dtype=complex)
    pre, comb = hybrid_digital(h_d, 1)
    eff = effective_channel(comb, h_d, pre)
    assert abs(eff[0, 0]) == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(np.abs(pre[:, 0]), [1.0, 0.0], atol=1e-12)


def test_hybrid_digital_matches_sigma_max():
    rng = np.random.default_rng(43)
    for _ in range(50):
        h_d = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
        pre, comb = hybrid_digital(h_d, 1)
        gain = abs(effective_channel(comb, h_d, pre)[0, 0])
        assert gain == pytest.approx(np.linalg.svd(h_d, compute_uv=False)[0], rel=1e-9)


def test_effective_channel_identity_sandwich():
    rng = np.random.default_rng(47)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(effective_channel(np.eye(3), h, np.eye(3)), h)


def test_effective_channel_recomposes_diagonal():
    h = np.diag([3.0, 1.0]).astype(complex)
    res = svd(h, 2)
    pre, comb = res.right, res.left
    assert np.allclose(effective_channel(comb, h, pre), h, atol=1e-12)


def test_design_link_shapes_and_units():
    rng = np.random.default_rng(53)
    links = np.stack([random_channels(rng, 64, 1, 2) for _ in range(3)])
    (sol,) = design_link(((links, (Codebook(2, 1),)),), np.array([0.01, 0.005, 0.01]))
    assert sol.analog_precoder.shape == (3, 2, 1)
    assert sol.analog_combiner.shape == (3, 1, 1)
    assert sol.effective_channels.shape == (3, 64, 1, 1)
    assert sol.subcarrier_power.shape == (3, 64)
    assert sol.transmit_power().shape == (3,)
    gains = sol.effective_gain_per_subcarrier()
    assert gains.shape == (3, 64)
    assert np.all(gains >= 0)


def test_design_link_invariants_all_codebooks():
    rng = np.random.default_rng(59)
    for cb in config_from_dict({}).codebooks:
        ch = random_channels(rng, 16, cb.n_rx, cb.n_tx)
        (sol,) = design_link(((ch[None], (cb,)),), np.array([0.01]))
        # constant-modulus analog entries
        assert np.all(np.abs(np.abs(sol.analog_precoder) - 1 / math.sqrt(cb.n_tx)) < 1e-12)
        assert np.all(np.abs(np.abs(sol.analog_combiner) - 1 / math.sqrt(cb.n_rx)) < 1e-12)
        pre, _ = hybrid_digital(effective_channel(sol.analog_combiner[0], ch, sol.analog_precoder[0]), cb.n_ds)
        for d in pre:
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
    (sol,) = design_link(((ch[None], (Codebook(4, 2),)),), np.array([0.005]))
    cov = ch[0].conj().T @ ch[0]
    top2 = svd(cov, 2).left
    expected_phases = np.angle(top2[np.abs(top2) > 1e-15])
    got_phases = np.angle(sol.analog_precoder[0][np.abs(top2) > 1e-15])
    assert np.allclose(
        np.exp(1j * got_phases), np.exp(1j * expected_phases), atol=1e-9
    )


def test_design_link_deterministic():
    rng = np.random.default_rng(67)
    links = random_channels(rng, 8, 1, 4)[None]
    (a,) = design_link(((links, (Codebook(4, 2),)),), np.array([0.01]))
    (b,) = design_link(((links.copy(), (Codebook(4, 2),)),), np.array([0.01]))
    assert np.array_equal(a.analog_precoder, b.analog_precoder)
    assert np.array_equal(a.analog_combiner, b.analog_combiner)
    assert np.array_equal(a.effective_channels, b.effective_channels)
    assert np.array_equal(a.subcarrier_power, b.subcarrier_power)


def test_design_link_rejects_mismatched_shapes():
    rng = np.random.default_rng(71)
    links = random_channels(rng, 4, 1, 2)[None]
    budget = np.array([0.01])
    with pytest.raises(ShapeError):
        design_link(((links, (Codebook(4, 2),)),), budget)
    with pytest.raises(InvalidInputError):
        design_link(((links, (Codebook(2, 1),)),), np.array([0.0]))
    # one form only: a non-empty tuple of (links, codebooks) pairs, each a
    # tuple of codebooks and an (L, n_sc, n_rx, n_tx) stack, and one budget
    # per link, the same L links in every group
    with pytest.raises(ShapeError):
        design_link(((links, Codebook(2, 1)),), budget)
    with pytest.raises(ShapeError):
        design_link(((links[0], (Codebook(2, 1),)),), budget)
    with pytest.raises(ShapeError):
        design_link(((links, (Codebook(2, 1),)),), 0.01)
    with pytest.raises(ShapeError):
        design_link(((links, (Codebook(2, 1),)),), np.array([0.01, 0.01]))
    with pytest.raises(ShapeError):
        design_link((links, (Codebook(2, 1),)), budget)
    with pytest.raises(ShapeError):
        design_link([(links, (Codebook(2, 1),))], budget)
    with pytest.raises(ShapeError):
        design_link((), budget)
    with pytest.raises(ShapeError):
        design_link(((links, (Codebook(2, 1),)), (np.concatenate([links, links]), (Codebook(2, 1),))), budget)


def test_design_link_names_an_overflowing_covariance_by_stack_index():
    # a sweep names the link by user and AP; design_link knows only its
    # place in the stack
    links = np.ones((4, 3, 1, 2), dtype=complex)
    links[3] *= 1e200
    with pytest.raises(LinkError) as raised:
        design_link(((links, (Codebook(2, 1),)),), np.full(4, 0.01))
    assert raised.value.link == 3
    assert str(raised.value) == "link 3: DL channel covariance sum leaves the float range"


def peak_block(rng, shape, peak):
    """Random channels whose largest |re| or |im| is exactly ``peak``."""
    channels = (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)) * (peak / 2)
    channels.flat[3] = complex(0.5 * peak, -peak)
    return channels


@pytest.mark.parametrize("receive_side, shape", [(True, (3, 5, 1, 4)), (False, (2, 6, 3, 1))])
def test_one_by_one_covariance_bound(receive_side, shape, monkeypatch):
    # below 4 peak^2 n_sc n_rx n_tx < 1e300 no 1x1 term or sum can leave the
    # float range, so the constant beam comes without the sums; past it the
    # exact path sums and checks, and its constant beam is the same (at
    # scale 1e300 test_numerics holds it equal to the SVD path)
    summed = []
    monkeypatch.setattr(beamforming, "_subcarrier_sum", lambda p: summed.append(p.shape) or p.sum(axis=-3))
    rng = np.random.default_rng(83)
    bound = math.sqrt(1e300 / (4 * math.prod(shape[1:])))
    ones = np.ones(shape[:1] + (1, 1), dtype=np.complex128)
    inside = peak_block(rng, shape, np.nextafter(bound, 0))
    assert np.array_equal(_covariance_beams(inside, 1, receive_side), ones) and summed == []
    past = peak_block(rng, shape, np.nextafter(bound, np.inf))
    assert np.array_equal(_covariance_beams(past, 1, receive_side), ones) and summed != []
    # a sum past the float range names its link, the first in stack order
    over = peak_block(rng, shape, 1.0)
    over[1, 0, 0, 0] = 1e155j
    with pytest.raises(LinkError) as raised:
        _covariance_beams(over, 1, receive_side)
    assert str(raised.value) == "link 1: DL channel covariance sum leaves the float range"


def test_grouped_design_equals_each_codebook_alone():
    # one tuple call shares the analog stages of codebooks that differ only
    # in n_rf; each solution must be the lone design, byte for byte, also
    # with the tuple out of n_rf order and for a stack of one link
    rng = np.random.default_rng(79)
    links = np.stack([random_channels(rng, 16, 1, 8) for _ in range(5)])
    budgets = np.array([0.01, 0.005, 0.02, 0.01, 0.0025])
    group = tuple(Codebook.from_string(text) for text in ("8x8", "8x1", "8x4", "8x2"))
    for channels, p_b in ((links, budgets), (links[:1], budgets[:1])):
        grouped = design_link(((channels, group),), p_b)
        assert isinstance(grouped, tuple) and len(grouped) == len(group)
        for cb, sol in zip(group, grouped):
            (alone,) = design_link(((channels, (cb,)),), p_b)
            assert sol.codebook == cb
            arrays = [field.name for field in dataclasses.fields(sol) if field.name != "codebook"]
            for name in arrays:
                x, y = getattr(sol, name), getattr(alone, name)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), (cb.label, name)
    with pytest.raises(ShapeError):
        design_link(((links, (Codebook(8, 2), Codebook(4, 2))),), budgets)
    with pytest.raises(ShapeError):
        design_link(((links, ()),), budgets)


def test_block_design_equals_each_group_alone(monkeypatch):
    # one call stacks the reduced channels of one shape from every group of
    # the block into one digital SVD; each solution must be its group's
    # design alone, byte for byte: beside in-window groups, one whose
    # entries lie below the closed forms' scaling window, so that the
    # stacked 1x1 and 1x2 SVDs each take the mixed path, and a two-stream
    # group of two user antennas (LAPACK), with zero subcarriers and -0.0
    # parts
    rng = np.random.default_rng(89)

    def links(n_rx, n_tx, scale):
        stack = (rng.standard_normal((3, 12, n_rx, n_tx)) + 1j * rng.standard_normal((3, 12, n_rx, n_tx))) * scale
        stack[:, 2] = 0.0
        stack.real[rng.uniform(size=stack.shape) < 0.1] = -0.0
        stack.imag[rng.uniform(size=stack.shape) < 0.1] = -0.0
        return stack

    groups = (
        (links(1, 2, 1e-5), (Codebook(2, 1), Codebook(2, 2))),
        (links(1, 4, 1e-150), (Codebook(4, 1), Codebook(4, 2))),
        (links(2, 4, 1e-5), (Codebook(4, 2, 2, 2), Codebook(4, 4, 2, 2))),
        (links(1, 8, 1e-3), (Codebook(8, 2),)),
    )
    p_b = np.array([0.01, 0.005, 0.02])
    rows, closed_form = [], numerics._closed_form_or_lapack
    monkeypatch.setattr(numerics, "_closed_form_or_lapack", lambda r, *fns: rows.append(r) or closed_form(r, *fns))
    block = design_link(groups, p_b)
    # one stacked call per one-row shape, (1, 1) of two groups and (1, 2) of
    # three, each with matrices on both sides of the window
    assert [r.shape for r in rows] == [(72, 1), (108, 2)]
    for r in rows:
        peak = np.max(np.maximum(np.abs(r.real), np.abs(r.imag)), axis=-1)
        inside = (peak >= 2 * numerics._SMLNUM) & (peak <= numerics._BIGNUM / 2)
        assert inside.any() and not inside.all()
    alone = [sol for group in groups for sol in design_link((group,), p_b)]
    assert [sol.codebook for sol in block] == [cb for _, books in groups for cb in books]
    for got, want in zip(block, alone):
        for field in dataclasses.fields(got):
            x, y = getattr(got, field.name), getattr(want, field.name)
            if field.name != "codebook":
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), (got.codebook, field.name)


def test_reduction_identity_analog_recovers_full_digital():
    # with as many RF chains as antennas and the analog stage bypassed, the
    # digital stage alone must reach the unconstrained SVD gain
    rng = np.random.default_rng(73)
    for n_tx in (2, 4, 8):
        for _ in range(20):
            h = rng.standard_normal((1, n_tx)) + 1j * rng.standard_normal((1, n_tx))
            pre, comb = hybrid_digital(h, 1)
            f = np.eye(n_tx) @ pre
            w = np.eye(1) @ comb
            eff = effective_channel(w / np.linalg.norm(w), h, f / np.linalg.norm(f))
            sigma = np.linalg.svd(h, compute_uv=False)[0]
            assert abs(eff[0, 0]) == pytest.approx(sigma, rel=1e-9)
