"""SVD contract: reconstruction, unitarity, ordering, phase convention."""

import math

import numpy as np
import pytest

from oracles import full_svd, reconstruct
from vrlink.beamforming import _covariance_beams, _subcarrier_sum
from vrlink.errors import InvalidInputError
from vrlink.numerics import (
    FACTOR_TOL,
    MODULUS_TOL,
    ZERO_MODULUS,
    SvdResult,
    _BIGNUM,
    _SMLNUM,
    _leading_factors,
    _zscal,
    ensure_complex_stack,
    frobenius_norms,
    row_sums,
    singular_values,
    svd,
    unit_modulus_normalize,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_reconstruct_identity():
    res = svd(np.eye(3), 3)
    assert np.allclose(reconstruct(res), np.eye(3), atol=1e-12)
    assert np.allclose(res.singular_values, np.ones(3))


def test_diagonal_matrix_orders_singular_values():
    res = svd(np.diag([1.0, 5.0, 3.0]).astype(complex), 3)
    assert np.allclose(res.singular_values, [5.0, 3.0, 1.0])


def test_reconstruction_random_shapes():
    rng = np.random.default_rng(7)
    for _ in range(300):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = random_complex(rng, rows, cols)
        k = min(rows, cols)
        res = svd(m, k)
        err = np.linalg.norm(reconstruct(res) - m) / max(np.linalg.norm(m), 1e-300)
        assert err < FACTOR_TOL
        # orthonormal columns
        assert np.linalg.norm(res.left.conj().T @ res.left - np.eye(k)) < FACTOR_TOL
        assert np.linalg.norm(res.right.conj().T @ res.right - np.eye(k)) < FACTOR_TOL
        # descending, non-negative
        s = res.singular_values
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-12)


def test_phase_convention_pivot_real_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = random_complex(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        res = svd(m, min(m.shape))
        for col in range(res.left.shape[1]):
            pivot = res.left[np.argmax(np.abs(res.left[:, col])), col]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real >= -1e-12
        # each right column takes its left partner's rotation: u^H M v is real
        assert np.all(np.abs((res.left.conj().T @ m @ res.right).diagonal().imag) < 1e-12)


def test_svd_deterministic_bit_identical():
    rng = np.random.default_rng(3)
    m = random_complex(rng, 4, 6)
    a = svd(m, 4)
    b = svd(m.copy(), 4)
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.singular_values, b.singular_values)
    assert np.array_equal(a.right, b.right)


def test_svd_wide_and_tall_leading_factors():
    rng = np.random.default_rng(5)
    wide = svd(random_complex(rng, 1, 4), 1)
    assert wide.left.shape == (1, 1)
    assert wide.right.shape == (4, 1)
    assert wide.singular_values.shape == (1,)
    tall = svd(random_complex(rng, 5, 2), 2)
    assert tall.left.shape == (5, 2)
    assert tall.right.shape == (2, 2)
    assert svd(random_complex(rng, 3, 4)[None], 2).right.shape == (1, 4, 2)


def test_svd_rank_one_outer_product():
    a = np.array([1.0, 1j]) / np.sqrt(2)
    b = np.array([1.0, -1j, 1.0]) / np.sqrt(3)
    m = 2.5 * np.outer(a, b.conj())
    res = svd(m, 2)
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
    # zero, subnormal and large parts, each zero of either sign; a
    # one-element matrix's length-one dot is a single product
    special = rng.choice([0.0, -0.0, 5e-324, -3e-310, 1e-200, 1.5, -2.5, 1e150], (2,) + shape[1:])
    stack[0] = special[0] + 1j * special[1]
    stack.imag[0][rng.uniform(size=shape[1:]) < 0.3] = -0.0
    norms = frobenius_norms(stack)
    assert norms.shape == shape[:2]
    assert_same_bits(norms, np.array([[np.linalg.norm(m) for m in link] for link in stack]))




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


def loop_sum(stack):
    """The covariance sum as the model states it: from zero, one subcarrier
    at a time."""
    total = np.zeros(stack.shape[1:], dtype=complex)
    for m in stack:
        total = total + m
    return total


def summand_stack(rng, n_sc, n, scale):
    """Complex (n_sc, n, n) terms spread over six decades around scale, with
    signed zeros and terms that cancel their predecessor exactly."""
    stack = (rng.standard_normal((n_sc, n, n)) + 1j * rng.standard_normal((n_sc, n, n)))
    stack *= scale * 10.0 ** rng.uniform(-3, 3, (n_sc, 1, 1))
    stack[rng.uniform(size=stack.shape) < 0.1] = complex(-0.0, -0.0)
    stack[:, 0, 0] = complex(-0.0, 0.0)  # an entry of -0.0 on every subcarrier
    cancel = np.flatnonzero(rng.uniform(size=n_sc - 1) < 0.2) + 1
    stack[cancel] = -stack[cancel - 1]
    return stack


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_add_reduce_over_subcarriers_equals_the_running_sum(scale):
    # n >= 2: the summed axis is not the inner loop, so add.reduce adds in
    # index order, like the running sum and the loop
    rng = np.random.default_rng(449)
    for n in range(2, 17):
        for n_sc in (1, 2, 3, 8, 9, 127, 128, 129, 1024):
            stack = summand_stack(rng, n_sc, n, scale)
            want = (np.cumsum(stack, axis=0)[-1] + 0.0).tobytes()
            assert (np.add.reduce(stack, axis=0) + 0.0).tobytes() == want
            assert loop_sum(stack).tobytes() == want
            assert _subcarrier_sum(stack.copy()).tobytes() == want
    # a block of links (links, n_sc, n, n), summed at once, equals each
    # link's running sum
    for n in (2, 3, 4, 8):
        for n_sc in (1, 9, 64, 129, 1024):
            for links in BLOCK_LINKS:
                block = np.stack([summand_stack(rng, n_sc, n, scale) for _ in range(links)])
                assert _subcarrier_sum(block.copy()).tobytes() == running_sums(block)


def running_sums(block):
    """Each link's running sum over its subcarriers, as bytes, link after link."""
    return b"".join((np.cumsum(stack, axis=0)[-1] + 0.0).tobytes() for stack in block)


# the block sizes max(1, links // n) the sweep's analog stages use, and more
BLOCK_LINKS = (1, 2, 3, 4, 16, 32)


def test_one_by_one_subcarrier_sum_keeps_the_running_sum():
    # n = 1: the summed axis is the inner loop and add.reduce adds pairwise;
    # one large term followed by many small ones tells the two apart
    rng = np.random.default_rng(457)
    differs = 0
    for n_sc in (1, 2, 9, 128, 129, 1024):
        for scale in (1e-150, 1.0, 1e150):
            stack = np.empty((n_sc, 1, 1), dtype=complex)
            stack[0] = complex(scale, -scale)
            stack[1:] = scale * 1e-16 * rng.uniform(0.5, 1.0, (n_sc - 1, 1, 1)) * (1 - 1j)
            want = (np.cumsum(stack, axis=0)[-1] + 0.0).tobytes()
            assert loop_sum(stack).tobytes() == want
            assert _subcarrier_sum(stack.copy()).tobytes() == want
            differs += (np.add.reduce(stack, axis=0) + 0.0).tobytes() != want
            mixed = summand_stack(rng, n_sc, 1, scale)
            assert _subcarrier_sum(mixed.copy()).tobytes() == (np.cumsum(mixed, axis=0)[-1] + 0.0).tobytes()
            for links in BLOCK_LINKS:
                block = np.stack([summand_stack(rng, n_sc, 1, scale) if k % 2 else stack for k in range(links)])
                assert _subcarrier_sum(block.copy()).tobytes() == running_sums(block)
                differs += (np.add.reduce(block, axis=-3) + 0.0).tobytes() != running_sums(block)
    assert differs > 0


# doubles at the edges of the float range and of nine significant digits
SPECIAL_DOUBLES = (
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, 1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e-5, 1e16,
    123456789.5, 999999999.5, 9999999995.0, 1.00000000049999999,
)


def test_percent_format_equals_the_f_string_format():
    # the CSV writer fills whole blocks with "%.9g" where the rows once
    # took f"{x:.9g}"; both go through the same float repr routine
    rng = np.random.default_rng(18)
    values = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(float).tolist() + list(SPECIAL_DOUBLES)
    want = [f"{x:.9g}" for x in values]
    assert ["%.9g" % x for x in values] == want
    # it formats a table's distinct doubles, and its utility tails, with one
    # "%" over a tuple each, and splits the text at the separators
    assert ("%.9g," * len(values) % tuple(values)).split(",")[:-1] == want
    assert ("%.9g,true,\n" * len(values) % tuple(values)).split("\n")[:-1] == [x + ",true," for x in want]


def assert_same_bits(got, want):
    # == first, then the bytes: the closed forms also keep LAPACK's zero signs
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def assert_factors_equal_lapack(stack, k=1):
    # the k leading columns of LAPACK's full factors; one-row stacks have k = 1
    u, s, vh = np.linalg.svd(stack, full_matrices=True)
    for got, want in zip(_leading_factors(stack, k), (u[..., :k], s[..., :k], vh[..., :k, :])):
        assert_same_bits(got, want)


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
    # max(|re|, |im|) picks the closed form, dlapy3 without its z = 0 term,
    # inside the scaling window and zgesdd outside it; subnormal to 1e300
    rng = np.random.default_rng(46)
    scale = 10.0 ** rng.uniform(-320, 300, (4, 500, 1, 1))
    stack = (rng.standard_normal((4, 500, 1, 1)) + 1j * rng.standard_normal((4, 500, 1, 1))) * scale
    stack[0, :50] = 0.0
    stack[1, :50] = stack[1, :50].real
    stack[2, :50] = 1j * stack[2, :50].imag
    stack.real[3, :50] = -0.0
    assert_same_bits(singular_values(stack), np.linalg.svd(stack, compute_uv=False))
    # both sides of each edge of the scaling window, on the real or the imaginary part
    edges = [2 * _SMLNUM, np.nextafter(2 * _SMLNUM, 0), _BIGNUM / 2, np.nextafter(_BIGNUM / 2, np.inf)]
    for edge in edges:
        stack = edge * rng.choice([1, -1, 1j, -1j], (200, 1, 1)) + rng.uniform(-1, 1, (200, 1, 1)) * edge * 1j
        stack[:20] = edge
        assert_same_bits(singular_values(stack), np.linalg.svd(stack, compute_uv=False))
    wide = random_complex(rng, 2, 3)
    assert_same_bits(singular_values(wide), np.linalg.svd(wide, compute_uv=False))


def test_three_column_rows_stay_on_lapack():
    # dznrm2 of two entries sums in an order the closed form does not follow
    rng = np.random.default_rng(47)
    for _ in range(20):
        assert_factors_equal_lapack(random_complex(rng, 1, 3)[None] * 10.0 ** rng.uniform(-100, 100))


def test_svd_of_tied_pivots_takes_the_first_entry():
    # columns whose two entries have equal magnitude: the pivot is the first
    rng = np.random.default_rng(48)
    a, b = (rng.standard_normal(400) + 1j * rng.standard_normal(400) for _ in range(2))
    stacks = [
        np.stack([a, a], -1)[:, None, :],
        np.stack([a, np.conj(a)], -1)[:, None, :],
        np.stack([a, a.imag + 1j * a.real], -1)[:, None, :],
        np.stack([a, 1j * a], -1)[:, :, None],
        np.stack([np.stack([a, a], -1), np.stack([a, -a], -1)], 1),
        np.stack([np.stack([a, b], -1), np.stack([b, a], -1)], 1),
    ]
    ties = 0
    for stack in stacks:
        k = min(stack.shape[-2:])
        res = svd(stack, k)
        for i, matrix in enumerate(stack):
            u, s, v = (x[..., :k] for x in full_svd(matrix))
            ties += sum(int(np.abs(x[0, c]) == np.abs(x[1, c])) for x in (u, v) if len(x) == 2 for c in range(k))
            assert_same_bits(res.left[i], u)
            assert_same_bits(res.singular_values[i], s)
            assert_same_bits(res.right[i], v)
    assert ties > 1000


def test_leading_factors_of_one_row_stacks_take_the_reduced_zgesdd():
    # the reduced zgesdd's one row equals the full one's first row for every
    # width the design meets, inside and outside the scaling window
    rng = np.random.default_rng(50)
    for cols in range(1, 65):
        for scale in (0.0, 1e-320, 1e-300, 1e-150, 1.0, 1e150, 1e300):
            assert_factors_equal_lapack((random_complex(rng, 20, cols) * scale)[:, None, :])


def test_leading_factors_of_multi_row_stacks_slice_the_full_ones():
    # the reduced zgesdd rounds differently from the full one on some of
    # these shapes (2x8, 3x4, 3x16, 2x64), so the full factors are sliced
    rng = np.random.default_rng(51)
    for rows in range(2, 9):
        for cols in (*range(1, 17), 32, 64):
            stack = (rng.standard_normal((20, rows, cols)) + 1j * rng.standard_normal((20, rows, cols)))
            for k in range(1, min(rows, cols) + 1):
                assert_factors_equal_lapack(stack, k)


def assert_svd_equals_full_reference(stack, k):
    res = svd(stack, k)
    for i, matrix in enumerate(stack):
        u, s, v = full_svd(matrix)
        assert_same_bits(res.left[i], u[:, :k])
        assert_same_bits(res.singular_values[i], s[:k])
        assert_same_bits(res.right[i], v[:, :k])


@pytest.mark.parametrize("cols", [1, 2])
def test_svd_of_one_and_two_column_rows_equals_full_reference(cols):
    # the closed forms and their fallback, inside and outside the scaling window
    rng = np.random.default_rng(52 + cols)
    for exponent in (-320, -300, -160, -139, -100, 0, 100, 139, 160, 300):
        scale = 10.0 ** (exponent + rng.uniform(-1, 1, (60, 1, cols)))
        stack = (rng.standard_normal((60, 1, cols)) + 1j * rng.standard_normal((60, 1, cols))) * scale
        stack[:5] = 0.0
        assert_svd_equals_full_reference(stack, 1)


def test_svd_of_wide_rows_and_multi_row_stacks_equals_full_reference():
    # wider than test_vectorized's random shapes up to 8 x 8
    rng = np.random.default_rng(54)
    for cols in range(3, 65):
        assert_svd_equals_full_reference(random_complex(rng, 8, cols)[:, None, :], 1)
    for rows in range(2, 9):
        for cols in (16, 64):
            stack = (rng.standard_normal((8, rows, cols)) + 1j * rng.standard_normal((8, rows, cols)))
            for k in range(1, min(rows, cols) + 1):
                assert_svd_equals_full_reference(stack, k)


@pytest.mark.parametrize("scale", [0.0, 1e-320, 1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e100, 1e150, 1e300])
def test_one_by_one_covariance_beam_equals_the_svd_path(scale):
    # n_r = 1 combiners and n_t = 1 precoders: the analog stage's 1x1
    # covariance sum, through the SVD and normalization, is exactly 1; at
    # 1e300 the sums pass the bound below which the stage skips them
    rng = np.random.default_rng(55)
    root = math.sqrt(scale)
    for n_other in (1, 2, 3, 4, 8, 16):
        for receive_side, shape in ((True, (1, n_other)), (False, (n_other, 1))):
            channels = random_complex(rng, 6 * 9, shape[0] * shape[1]).reshape((6, 9) + shape)
            channels *= root * 10.0 ** rng.uniform(-2, 2, (6, 9, 1, 1))
            if scale != 0.0 and scale < 1e-300:  # most such products underflow; keep one entry at the scale
                channels[:, :, 0, 0] = root
            want = []
            for link in channels:
                h_h = np.conj(link).swapaxes(-1, -2)
                cov = np.cumsum(link @ h_h if receive_side else h_h @ link, axis=0)[-1] + 0.0
                want.append(unit_modulus_normalize(full_svd(cov)[0][:, :1], 1.0))
            assert_same_bits(_covariance_beams(channels, 1, receive_side), np.array(want))


def zscal_nested(alpha, x):
    """OpenBLAS's zscal written as one nested selection per part."""
    ar, ai, xr, xi = alpha.real, alpha.imag, x.real, x.imag
    out = np.empty(np.broadcast_shapes(alpha.shape, x.shape), dtype=np.complex128)
    out.real = np.where(ar == 0, np.where(ai == 0, 0.0, -ai * xi), np.where(ai == 0, ar * xr, ar * xr - ai * xi))
    out.imag = np.where(ar == 0, np.where(ai == 0, 0.0, ai * xr), np.where(ai == 0, ar * xi, ar * xi + ai * xr))
    return out


def test_zscal_skips_a_zero_part_of_alpha():
    rng = np.random.default_rng(49)

    def complex_of(re, im):  # keeps the sign of a zero part, which re + 1j * im loses
        out = np.empty(len(re), dtype=np.complex128)
        out.real, out.imag = re, im
        return out

    parts = rng.standard_normal((2, 400))
    x = complex_of(*rng.standard_normal((2, 400)) * 10.0 ** rng.uniform(-100, 100, 400))
    x[:40] = complex_of(rng.choice([0.0, -0.0], 40), rng.choice([0.0, -0.0, 2.5], 40))
    for re_zero, im_zero in ((False, False), (True, False), (False, True), (True, True)):
        re = np.where(re_zero, rng.choice([0.0, -0.0], 400), parts[0])
        im = np.where(im_zero, rng.choice([0.0, -0.0], 400), parts[1])
        alpha = complex_of(re, im)
        # every lane of one kind, then a stack that mixes them with general lanes
        for lanes in (alpha, np.where(rng.uniform(size=400) < 0.3, alpha, complex_of(*parts))):
            assert_same_bits(_zscal(lanes, x), zscal_nested(lanes, x))


def signed_zero_rows(rng, rows, cols):
    """Random one-row stack (rows, 1, cols) with zero rows, real, imaginary and
    sign-flipped rows, and zero parts of either sign."""
    stack = random_complex(rng, rows, cols)[:, None, :]
    stack[:4] = 0.0
    stack[4:8] = stack[4:8].real
    stack[8:12] = 1j * stack[8:12].imag
    stack[12:16] *= -1.0
    stack.real[16:20] = -0.0
    stack.imag[20:24] = -0.0
    return stack


@pytest.mark.parametrize("cols", [*range(2, 17), 32, 64])
def test_one_row_left_vector_is_exactly_one(cols):
    # zgesdd's left vector of a one-row matrix with two or more columns is
    # +-1 + 0j; rotated by its conjugate pivot phase +-1 - 0j it is exactly
    # 1 + 0j, which svd returns without the rotation. Scales inside and
    # outside the scaling window reach the closed form (1 x 2) and the
    # reduced zgesdd, which is also the closed form's fallback.
    rng = np.random.default_rng(60 + cols)
    for scale in (0.0, 1e-320, 1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300):
        stack = signed_zero_rows(rng, 40, cols) * scale
        u, _, _ = np.linalg.svd(stack, full_matrices=False)
        assert np.all(np.abs(u.real) == 1.0)
        assert_same_bits(u.imag, np.zeros(u.shape))
        res = svd(stack, 1)
        assert_same_bits(res.left, np.ones((40, 1, 1), dtype=np.complex128))
        for matrix, left, right in zip(stack, res.left, res.right):
            want_u, _, want_v = full_svd(matrix)
            assert_same_bits(left, want_u[:, :1])
            assert_same_bits(right, want_v[:, :1])


def test_a_unit_factor_in_stacked_matmul_rounds_as_adding_zero():
    # one user antenna: G = 1 and, for n_rf >= 2, w = 1, so the design takes
    # G^H H, G d and w^H H as H + 0.0 and d + 0.0; a bare H or d would keep
    # the -0.0 parts that the product turns into +0.0
    rng = np.random.default_rng(77)
    for n_tx in (1, 2, 3, 4, 8, 16):
        links = signed_zero_rows(rng, 3 * 40, n_tx).reshape(3, 40, 1, n_tx)
        g = np.ones((3, 1, 1), dtype=np.complex128)
        w = np.ones((3, 40, 1, 1), dtype=np.complex128)
        d = np.ascontiguousarray(links[..., :1])
        assert_same_bits(np.conj(g[:, None]).swapaxes(-1, -2) @ links, links + 0.0)
        assert_same_bits(np.conj(w).swapaxes(-1, -2) @ links, links + 0.0)
        assert_same_bits(g[:, None] @ d, d + 0.0)
        assert links.tobytes() != (links + 0.0).tobytes()


@pytest.mark.parametrize("cols", [*range(1, 34), 63, 64, 65, 127, 128, 129, 200])
def test_row_sums_equal_numpy_sum(cols):
    # numpy adds fewer than 8 entries one by one from 0, and up to 128 in
    # eight running sums added as a tree, then the rest one by one
    rng = np.random.default_rng(cols)
    x = rng.standard_normal((3, 50, cols)) * 10.0 ** rng.uniform(-300, 300, (3, 50, cols))
    x[0] = -0.0
    x[1, :25] = rng.choice([0.0, -0.0, 5e-324], (25, cols))
    with np.errstate(over="ignore"):
        squares = np.abs(x * 1e10) ** 2
        for stack in (x, squares, x.reshape(150, cols)):
            assert_same_bits(row_sums(stack), np.sum(stack, axis=-1))
