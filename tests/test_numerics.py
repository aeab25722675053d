"""SVD contract: reconstruction, unitarity, ordering, phase convention."""

import numpy as np
import pytest

from oracles import reconstruct
from vrlink.errors import InvalidInputError
from vrlink.numerics import (
    FACTOR_TOL,
    MODULUS_TOL,
    ZERO_MODULUS,
    SvdResult,
    _BIGNUM,
    _SMLNUM,
    _lapack_svd,
    ensure_complex_stack,
    frobenius_norms,
    singular_values,
    svd,
    unit_modulus_normalize,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_reconstruct_identity():
    res = svd(np.eye(3))
    assert np.allclose(reconstruct(res), np.eye(3), atol=1e-12)
    assert np.allclose(res.singular_values, np.ones(3))


def test_diagonal_matrix_orders_singular_values():
    res = svd(np.diag([1.0, 5.0, 3.0]).astype(complex))
    assert np.allclose(res.singular_values, [5.0, 3.0, 1.0])


def test_reconstruction_random_shapes():
    rng = np.random.default_rng(7)
    for _ in range(300):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = random_complex(rng, rows, cols)
        res = svd(m)
        err = np.linalg.norm(reconstruct(res) - m) / max(np.linalg.norm(m), 1e-300)
        assert err < FACTOR_TOL
        # factors unitary
        assert np.linalg.norm(res.left.conj().T @ res.left - np.eye(rows)) < FACTOR_TOL
        assert np.linalg.norm(res.right.conj().T @ res.right - np.eye(cols)) < FACTOR_TOL
        # descending, non-negative
        s = res.singular_values
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-12)


def test_phase_convention_pivot_real_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = random_complex(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        res = svd(m)
        for col in range(res.left.shape[1]):
            pivot = res.left[np.argmax(np.abs(res.left[:, col])), col]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real >= -1e-12
        # unpaired right columns (beyond the rank budget) carry their own pivot
        k = min(m.shape)
        for col in range(k, res.right.shape[1]):
            pivot = res.right[np.argmax(np.abs(res.right[:, col])), col]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real >= -1e-12


def test_svd_deterministic_bit_identical():
    rng = np.random.default_rng(3)
    m = random_complex(rng, 4, 6)
    a = svd(m)
    b = svd(m.copy())
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.singular_values, b.singular_values)
    assert np.array_equal(a.right, b.right)


def test_svd_wide_and_tall_full_matrices():
    rng = np.random.default_rng(5)
    wide = svd(random_complex(rng, 1, 4))
    assert wide.left.shape == (1, 1)
    assert wide.right.shape == (4, 4)
    assert wide.singular_values.shape == (1,)
    tall = svd(random_complex(rng, 5, 2))
    assert tall.left.shape == (5, 5)
    assert tall.right.shape == (2, 2)


def test_svd_rank_one_outer_product():
    a = np.array([1.0, 1j]) / np.sqrt(2)
    b = np.array([1.0, -1j, 1.0]) / np.sqrt(3)
    m = 2.5 * np.outer(a, b.conj())
    res = svd(m)
    assert res.singular_values[0] == pytest.approx(2.5, rel=1e-12)
    assert np.all(res.singular_values[1:] < 1e-12)


def test_ensure_complex_stack_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        ensure_complex_stack(np.zeros((0, 3)))
    with pytest.raises(InvalidInputError):
        ensure_complex_stack(np.zeros((2, 3, 0)))
    with pytest.raises(InvalidInputError):
        ensure_complex_stack(np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        ensure_complex_stack(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        ensure_complex_stack(np.array([[[1.0, 0.0]], [[np.inf * 1j, 0.0]]]))
    assert ensure_complex_stack(np.ones((2, 1, 3))).dtype == np.complex128


def test_reconstruct_respects_given_factors():
    res = SvdResult(
        left=np.eye(2, dtype=complex),
        singular_values=np.array([2.0, 1.0]),
        right=np.eye(2, dtype=complex),
    )
    assert np.allclose(reconstruct(res), np.diag([2.0, 1.0]))


def test_unit_modulus_normalize_sets_every_modulus():
    rng = np.random.default_rng(13)
    m = random_complex(rng, 4, 3)
    out = unit_modulus_normalize(m, 0.5)
    assert np.all(np.abs(np.abs(out) - 0.5) < MODULUS_TOL)
    # phases preserved where defined
    assert np.allclose(np.angle(out), np.angle(m), atol=1e-12)


def test_unit_modulus_normalize_zero_entry_maps_to_real_target():
    m = np.array([[0.0 + 0.0j, 1.0 + 1.0j]])
    out = unit_modulus_normalize(m, 1.0 / np.sqrt(2))
    assert out[0, 0] == pytest.approx(1.0 / np.sqrt(2))
    assert out[0, 0].imag == 0.0


def test_unit_modulus_normalize_stack_matches_masked_per_matrix():
    # the 2-D masked assignment the stacked form replaced, applied per matrix
    def masked(m, target):
        mags = np.abs(m)
        out = np.empty_like(m)
        degenerate = mags < ZERO_MODULUS
        out[degenerate] = target
        out[~degenerate] = target * m[~degenerate] / mags[~degenerate]
        return out

    rng = np.random.default_rng(17)
    stack = rng.standard_normal((3, 5, 4, 2)) + 1j * rng.standard_normal((3, 5, 4, 2))
    stack[rng.uniform(size=stack.shape) < 0.1] = 0.0
    out = unit_modulus_normalize(stack, 0.5)
    assert out.shape == stack.shape
    for k in np.ndindex(stack.shape[:2]):
        assert np.array_equal(out[k], masked(stack[k], 0.5))


@pytest.mark.parametrize("n_ds", [1, 2])
@pytest.mark.parametrize("n_tx", [1, 2, 3, 4, 5, 8, 16])
def test_frobenius_norms_equal_per_matrix_norm(n_tx, n_ds):
    # the strided-view rule of the module docstring, at the composite beam
    # shapes (n_tx, n_ds) the design normalizes
    rng = np.random.default_rng(100 * n_tx + n_ds)
    shape = (3, 500, n_tx, n_ds)
    scale = 10.0 ** rng.uniform(-8, 2, shape[:2] + (1, 1))
    stack = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    norms = frobenius_norms(stack)
    assert norms.shape == shape[:2]
    assert np.array_equal(norms, [[np.linalg.norm(m) for m in link] for link in stack])


def test_unit_modulus_normalize_rejects_bad_target():
    with pytest.raises(InvalidInputError):
        unit_modulus_normalize(np.eye(2), 0.0)
    with pytest.raises(InvalidInputError):
        unit_modulus_normalize(np.eye(2), -1.0)


@pytest.mark.parametrize("n_sc", [1, 2, 7, 8, 9, 64, 1024, 4096])
def test_last_axis_reductions_of_a_stack_equal_per_row_calls(n_sc):
    # the rule the sweep relies on to reduce every link window at once
    rng = np.random.default_rng(n_sc)
    stack = 10.0 ** rng.uniform(-12, 12, (3, 2, 3, n_sc)) * rng.uniform(0.5, 1.5, (3, 2, 3, n_sc))
    picked = stack[rng.uniform(size=(3, 2, 3)) > 0.4]
    for reduce in (np.mean, np.sum, np.max):
        rows = stack.reshape(-1, n_sc)
        assert np.array_equal(reduce(stack, axis=-1).ravel(), [reduce(row) for row in rows])
        assert np.array_equal(reduce(picked, axis=-1), [reduce(row) for row in picked])


def assert_same_bits(got, want):
    # == first, then the bytes: the closed forms also keep LAPACK's zero signs
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def assert_factors_equal_lapack(stack):
    got = _lapack_svd(stack)
    for g, w in zip(got, np.linalg.svd(stack, full_matrices=True)):
        assert_same_bits(g, w)


@pytest.mark.parametrize("cols", [1, 2])
def test_closed_form_svd_equals_lapack_across_magnitudes(cols):
    # 1e-160 .. 1e160 covers both sides of the scaling window [2 SMLNUM, BIGNUM / 2]
    rng = np.random.default_rng(40 + cols)
    for exponent in range(-160, 161, 10):
        scale = 10.0 ** (exponent + rng.uniform(-1, 1, (400, 1, cols)))
        stack = (rng.standard_normal((400, 1, cols)) + 1j * rng.standard_normal((400, 1, cols))) * scale
        assert_factors_equal_lapack(stack)


def test_closed_form_svd_window_edges():
    rng = np.random.default_rng(44)
    edges = [2 * _SMLNUM, np.nextafter(2 * _SMLNUM, 0), _BIGNUM / 2, np.nextafter(_BIGNUM / 2, np.inf)]
    for cols in (1, 2):
        for edge in edges:
            stack = (rng.uniform(-1, 1, (200, 1, cols)) + 1j * rng.uniform(-1, 1, (200, 1, cols))) * edge
            stack[:, 0, 0] = edge * rng.choice([1, -1, 1j, -1j], 200)
            assert_factors_equal_lapack(stack)


def test_closed_form_svd_special_entries():
    # exact and signed zeros, purely real and purely imaginary entries, tiny
    # parts next to large ones, and h = (real, 0), where zlarfg takes tau = 0
    values = [0.0, -0.0, 1.5, -2.5, 1e-300, -5e-324, 3e120]
    entries = [complex(re, im) for re in values for im in values]
    rows1 = np.array(entries).reshape(-1, 1, 1)
    rows2 = np.array([[a, b] for a in entries for b in entries]).reshape(-1, 1, 2)
    for stack in (rows1, rows2):
        assert_factors_equal_lapack(stack)
        for matrix in stack:
            assert_factors_equal_lapack(matrix[None])
    real_first = np.array([[[x, 0.0]] for x in (1.0, -3.0, 1e-100, -7e100)], dtype=complex)
    real_first.imag[:, 0, 1] = -0.0
    assert_factors_equal_lapack(real_first)


def test_closed_form_svd_mixed_stack():
    # in-window and out-of-window matrices (LAPACK rescales those) in one stack
    rng = np.random.default_rng(45)
    for cols in (1, 2):
        scale = rng.choice([0.0, 1e-150, 1e-20, 1.0, 1e30, 1e150], (3000, 1, 1))
        stack = (rng.standard_normal((3000, 1, cols)) + 1j * rng.standard_normal((3000, 1, cols))) * scale
        assert_factors_equal_lapack(stack)


def test_singular_values_of_1x1_stacks_equal_lapack():
    rng = np.random.default_rng(46)
    scale = 10.0 ** rng.uniform(-170, 170, (4, 500, 1, 1))
    stack = (rng.standard_normal((4, 500, 1, 1)) + 1j * rng.standard_normal((4, 500, 1, 1))) * scale
    stack[0, :50] = 0.0
    stack[1, :50] = stack[1, :50].real
    assert_same_bits(singular_values(stack), np.linalg.svd(stack, compute_uv=False))
    wide = random_complex(rng, 2, 3)
    assert_same_bits(singular_values(wide), np.linalg.svd(wide, compute_uv=False))


def test_three_column_rows_stay_on_lapack():
    # dznrm2 of two entries sums in an order the closed form does not follow
    rng = np.random.default_rng(47)
    for _ in range(20):
        assert_factors_equal_lapack(random_complex(rng, 1, 3)[None] * 10.0 ** rng.uniform(-100, 100))
