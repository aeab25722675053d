"""Dense complex matrix kernel: SVD with a fixed phase convention, plus
element-wise modulus normalization.

The factorization is LAPACK's zgesdd via numpy, or for one-row matrices of
one or two columns a numpy closed form of it (for 1x1 matrices also its
singular values alone, and for every one-row matrix of two or more
columns the constant left vector 1); this module pins down the
conventions the beamforming stages rely on (descending singular values,
reproducible singular-vector phases, tolerance policy). ``svd(m, k)`` takes a
single matrix or a stack ``(..., m, n)`` and returns only the k leading
singular triplets, the only ones the design reads; a single matrix is a stack
of one, so both go through the same convention. Right singular vectors
without a left partner (n > m) are never formed, so they have no convention.
``svd``, ``singular_values`` and
``unit_modulus_normalize`` only convert the package's arrays to complex128;
``ensure_complex_stack`` checks a stack from outside (``design_link``'s).

Bit-exactness: the stacked code reproduces, bit for bit, what one
matrix-at-a-time loop computes. With numpy 2.x and its OpenBLAS build on
x86-64 these hold:

- ``np.abs`` of a complex array is the same whatever the shape or stride,
  but differs from scalar ``abs(z)``; ``np.hypot(z.real, z.imag)`` equals
  scalar ``abs(z)``. So the pivot search ranks entries by ``np.abs`` and the
  pivot's magnitude comes from ``np.hypot``.
- complex scalar division ``z / r`` by a real ``r`` is numpy's Smith
  formula, ``((z.re + z.im*0) * s, (z.im - z.re*0) * s)`` with ``s = 1/r``.
- numpy's complex array product is fused, ``(fma(ar, br, -ai*bi),
  fma(ar, bi, ai*br))``, so operand order matters; ``a * b`` on a temporary
  may swap them (temporary elision), ``np.multiply(a, b)`` does not. An
  in-place ``column *= phase`` on a column of length 1 takes the plain
  product instead.
- the closed forms equal zgesdd when the largest ``max(|re|, |im|)`` lies in
  [2 SMLNUM, BIGNUM / 2] (SMLNUM = sqrt(tiny) / eps, about 6.7e-139), where
  it does not rescale: dznrm2 sums and roots in long double, OpenBLAS's zscal
  takes plain products, zlarf's update numpy's fused one, and the zgemm that
  multiplies Q's first row by 1 maps q to ``(q.re - 0*q.im, q.im + 0)``.
  The window test is per matrix, so a stack that mixes matrices, or the
  reduced channels of several codebook groups, keeps each matrix's bits.
- the reduced ``np.linalg.svd(m, full_matrices=False)`` of a one-row stack
  equals the leading pair of the full one, for 1 x 1 up to 1 x 64, inside
  and outside the scaling window. With two or more rows it may not (2 x 8,
  3 x 4, 3 x 16, 2 x 64 differ), so those stacks take the full factors and
  slice their leading columns.
- the stacked product ``h @ h^H`` of a one-row ``h``, or ``h^H @ h`` of a
  one-column one, is a zdotu of ``h`` with its conjugate, whose two
  imaginary accumulators are exact negatives of each other: every such
  1 x 1 covariance term, and so their sum, has an imaginary part of +0.
  zgesdd's left vector of a real 1 x 1 sum is exactly 1 (0 and the sums
  outside the scaling window included), and so is its normalized beam;
  the analog stage returns that constant without the SVD. Each part of a
  term's products is at most ``peak^2``, with ``peak`` the largest
  ``|re|`` or ``|im|`` of the block, so where
  ``4 peak^2 n_sc n_rx n_tx < 1e300`` no term or partial sum can leave the
  float range and the stage skips the sums and their range check too.
- the stacked ``h^H @ h`` of a one-row ``h`` runs numpy's own non-BLAS
  loop: it equals the unfused ``(ar*br - ai*bi) + 0.0`` per part, signed
  zeros included, which took 4 to 12 times as long elementwise on
  ``(4, 1024, 1, n_tx)`` stacks, n_tx = 2..8, so the precoder keeps ``@``.
- zgesdd's left vector of a one-row matrix with two or more columns is
  exactly ``+-1 + 0j`` (1 x 2 to 1 x 64, at every scale, on zero rows, from
  the closed form and from LAPACK): its conjugate pivot phase is
  ``+-1 - 0j`` and it rotates to exactly ``1 + 0j``, so ``svd`` returns 1
  without the rotation or the pivot search. A stacked ``@`` by such a
  unit factor, ``conj(1 + 0j) @ h`` or ``(1 + 0j) @ d``, rounds as
  ``h + 0.0``: the product turns a ``-0.0`` part into ``+0.0``, which a
  bare ``h`` would keep. With one user antenna the design takes the
  combiner products, and for a one-row digital SVD all of ``w``, that way.
- stacked ``np.linalg.svd`` and stacked ``@`` equal their per-matrix calls,
  and so does ``np.sum`` over the two matrix axes of a contiguous stack;
  a strided operand in stacked ``@`` (a column slice) may round differently
  from a contiguous copy of it, so slices are made contiguous first;
  ``np.sqrt`` and real ``+ - * /`` are exact IEEE operations.
- ``f /= r[..., None, None]`` of a complex ``f`` by a real ``r`` rounds as
  ``f / r[..., None, None]``: both take the complex division loop on the
  real divisor promoted to complex, one writing in place.
- ``np.cumsum(x, axis=0)[-1]`` adds in index order, like a Python loop
  ``total += x[k]`` that starts from zero, except that the loop turns a
  ``-0.0`` first term into ``+0.0``; adding ``0.0`` to the result does the
  same. ``np.sum(x, axis=0)`` may add pairwise and round differently.
- on a C-contiguous ``(n_sc, n, n)`` stack with ``n >= 2``, or a block
  ``(links, n_sc, n, n)`` of such stacks, ``np.add.reduce(x, axis=-3)``
  adds in index order too, since the summed axis is not numpy's inner
  loop, and equals each link's ``np.cumsum(x, axis=0)[-1]`` without
  writing the running sums. With ``n = 1`` the summed axis is the inner
  loop, which adds pairwise; there only the running sum, over one link or
  a block, keeps the order.
- ``"%.9g" % x`` makes the same ``PyOS_double_to_string`` call as
  ``f"{x:.9g}"``, and one ``%`` over a tuple makes one such call per
  element. Such a per-element scalar call on a double, or ``math.log1p(x)``,
  depends only on its argument's bits, so one call per distinct int64 key
  ``x.view(np.int64)``, expanded by ``np.unique``'s inverse, reproduces the
  per-element output (``distinct_doubles``). The key keeps ``-0.0`` apart
  from ``0.0`` and one NaN payload or sign from another; a dict keyed by
  the float would merge the zeros and print ``0`` for ``-0``.
- ``np.mean``, ``np.sum`` and ``np.max`` along the last axis of a
  C-contiguous or boolean-indexed stack equal the 1-D call on each row, so
  a stack of link windows reduces as one window at a time does.
- ``np.linalg.norm`` of a complex matrix is ``sqrt(re . re + im . im)``,
  BLAS dots on the strided ``.real``/``.imag`` views of the flattened
  matrix. Stacked ``@`` row products on the same strided views of a
  flattened stack take the same dot, so ``frobenius_norms`` equals the
  per-matrix norm; contiguous copies of the views round differently. A
  dot of length one is a single product, so a one-element matrix's norm
  is ``sqrt(re * re + im * im)``.
- zgesdd's singular value of a 1 x 1 matrix inside the scaling window is
  dlapy3 of ``(re, im, 0)``: with ``w = max(|re|, |im|)``, the maximum the
  window test reads, that is ``w * sqrt((|re|/w)^2 + (|im|/w)^2)``, since
  adding the ``z = 0`` term's ``+0`` to a sum of squares changes no bit.
- ``np.sum(x, axis=-1)`` of a real stack adds each row from 0: fewer than
  8 entries one by one, and up to 128 in eight running sums (entry ``j``
  and every eighth after it) added as ``((r0 + r1) + (r2 + r3)) + ((r4 +
  r5) + (r6 + r7))``, then the rest one by one. ``row_sums`` does those
  adds a column at a time over every row at once, and leaves longer rows
  to ``np.sum``.
- ``np.log1p`` is not per-element equal to ``math.log1p``; keep that scalar.
- ``Generator.standard_normal`` gives one stream however it is split: one
  ``(links, 2, n)`` draw holds, in C order, what ``2 * links`` draws of
  ``n`` return one after another.
- ``np.multiply(a[:, :, None], b[:, None, :])`` on stacks of vectors equals
  ``np.outer(a[k], b[k])`` for each ``k``, and a broadcast product over a
  stack of links equals the one-link product, as long as the operands keep
  their order (see the fused product above).
- ``np.argmax`` keeps the first of equal maxima, so the pivot of a two-entry
  column is its second entry only where that one is strictly larger.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Tolerance policy for double precision at the matrix sizes used here (<= 8x8).
FACTOR_TOL = 1e-9       # relative Frobenius error of factorization identities
MODULUS_TOL = 1e-12     # per-entry modulus checks
ZERO_MODULUS = 1e-15    # entries below this are treated as zero-phase

# zgesdd rescales a matrix whose largest entry modulus lies outside this
# scaling window; the closed forms skip that, so they take one well inside
_SMLNUM = math.sqrt(sys.float_info.min) / sys.float_info.epsilon
_BIGNUM = 1.0 / _SMLNUM


def ensure_complex_stack(m, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a finite complex128 stack ``(..., rows, cols)``
    of non-empty matrices; a 2-D input is a single matrix."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim < 2 or arr.size == 0:
        raise InvalidInputError(f"{name} must be a non-empty matrix or stack of matrices, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SvdResult:
    """The k leading singular triplets of an m x n matrix.

    ``left`` is m x k and ``right`` n x k, each with orthonormal columns, and
    ``singular_values`` holds k non-negative reals, descending; with
    k = min(m, n), ``M = left @ diag(singular_values) @ right.conj().T``. For
    a stacked input every field carries the same leading axes. The tests
    multiply the factors back with ``reconstruct`` (tests/oracles.py).
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _conj_pivot_phase(vectors: np.ndarray) -> np.ndarray:
    """Conjugate phase of each column's largest-magnitude entry, (S, rows, cols)
    -> (S, cols); 1 for a column whose pivot is below ``ZERO_MODULUS``."""
    rows = vectors.shape[-2]
    if rows == 1:
        pivot = vectors[:, 0, :]
    elif rows == 2:
        # argmax keeps the first of two equal magnitudes
        pivot = np.where(np.abs(vectors[:, 1, :]) > np.abs(vectors[:, 0, :]), vectors[:, 1, :], vectors[:, 0, :])
    else:
        idx = np.argmax(np.abs(vectors), axis=-2)
        pivot = np.take_along_axis(vectors, idx[:, None, :], axis=-2)[:, 0, :]
    re, im = pivot.real, pivot.imag
    mag = np.hypot(re, im)
    usable = mag > ZERO_MODULUS
    scale = 1.0 / np.where(usable, mag, 1.0)
    return _complex(np.where(usable, (re + im * 0.0) * scale, 1.0), -np.where(usable, (im - re * 0.0) * scale, 0.0))


def _rotate_columns(vectors: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Multiply column c of every matrix in the stack by ``phase[:, c]``.

    Rounds like an in-place ``column *= phase`` on one matrix: numpy's fused
    multiply-add kernel for columns of two or more entries, the plain real
    product for single-entry columns.
    """
    if vectors.shape[-2] > 1:
        return vectors * phase[:, None, :]
    re, im = vectors.real, vectors.imag
    pr, pi = phase.real[:, None, :], phase.imag[:, None, :]
    return _complex(re * pr - im * pi, re * pi + im * pr)


def _zscal(alpha: np.ndarray, x: np.ndarray) -> np.ndarray:
    """OpenBLAS's zscal: ``x * alpha`` in plain products, skipping a zero part of alpha."""
    ar, ai, xr, xi = alpha.real, alpha.imag, x.real, x.imag
    re, im = ar * xr - ai * xi, ar * xi + ai * xr
    zero_r, zero_i = ar == 0, ai == 0
    if zero_r.any() or zero_i.any():
        re = np.where(zero_r, np.where(zero_i, 0.0, -ai * xi), np.where(zero_i, ar * xr, re))
        im = np.where(zero_r, np.where(zero_i, 0.0, ai * xr), np.where(zero_i, ar * xi, im))
    return _complex(re, im)


def _dlapy3(x, y, z) -> np.ndarray:
    """LAPACK's sqrt(x^2 + y^2 + z^2), scaled by a positive max(|x|, |y|, |z|)."""
    x, y, z = np.abs(x), np.abs(y), np.abs(z)
    w = np.maximum(np.maximum(x, y), z)
    return w * np.sqrt((x / w) ** 2 + (y / w) ** 2 + (z / w) ** 2)


def _svd_1x1(h: np.ndarray) -> tuple:
    """zgesdd of 1x1 matrices (S, 1): zgeqrf's beta, u = (1 - tau) * sign(beta) in zgemm."""
    re, im = h[:, 0].real, h[:, 0].imag
    s = _dlapy3(re, im, 0.0)
    beta = np.where(im == 0, re, -np.copysign(s, re))  # tau is 0 when im == 0
    sign = np.copysign(1.0, beta)
    u = _complex((1.0 - (beta - re) / beta) * sign + 0.0, (0.0 + im / beta) * sign + 0.0)
    return u[:, None, None], s[:, None], np.ones((len(h), 1, 1), dtype=np.complex128)


def _svd_1x2(h: np.ndarray) -> tuple:
    """zgesdd of 1x2 matrices (S, 2), leading pair only: zgelqf's reflector of
    the conjugate row, the first row of zunglq's Q."""
    x1, x2 = np.conj(h[:, 0]), np.conj(h[:, 1])
    ar, ai = x1.real, x1.imag
    xnorm = np.sqrt(x2.real.astype(np.longdouble) ** 2 + x2.imag.astype(np.longdouble) ** 2).astype(np.float64)
    keep = (xnorm == 0) & (ai == 0)  # zlarfg leaves alpha and x as they are
    s = _dlapy3(ar, ai, xnorm)
    beta = np.where(keep, ar, -np.copysign(s, ar))
    # dladiv's 1 / (alpha - beta), whose |imag| <= |real|
    cr, ci = np.where(keep, 1.0, ar - beta), np.where(keep, 0.0, ai)
    del xnorm, keep
    r = ci / cr
    t = 1.0 / (cr + ci * r)
    alpha = _complex(t, np.where(r != 0, -r * t, (0.0 + ci * (-1.0 / cr)) * t))
    del cr, ci, r, t
    v2 = _zscal(alpha, x2)
    del alpha, x2
    tau = _complex((beta - ar) / beta, -ai / beta)
    del x1, ar, ai
    z = np.conj(_zscal(-tau, v2), out=v2)
    q0 = np.subtract(1, np.conj(tau, out=tau), out=tau)
    vh = np.empty((len(h), 1, 2), dtype=np.complex128)
    for col, q in enumerate((q0, z)):
        vh.real[:, 0, col], vh.imag[:, 0, col] = q.real - 0.0 * q.imag, q.imag + 0.0
    del z, q0, q, tau, v2
    return _complex(np.copysign(1.0, beta), 0.0)[:, None, None], s[:, None], vh


def _closed_form_or_lapack(rows: np.ndarray, closed, lapack) -> tuple:
    """``closed`` of the one-row matrices ``rows`` (S, cols), cols <= 2, whose largest
    ``max(|re|, |im|)`` lies inside zgesdd's scaling window [2 SMLNUM, BIGNUM / 2];
    ``lapack`` of the matrices (S', 1, cols) outside it, which zgesdd rescales.
    Both return a tuple of stacks over S."""
    parts = np.maximum(np.abs(rows.real), np.abs(rows.imag))
    peak = parts[:, 0] if rows.shape[-1] == 1 else np.maximum(parts[:, 0], parts[:, 1])
    inside = (peak >= 2.0 * _SMLNUM) & (peak <= _BIGNUM / 2.0)
    everywhere = inside.all()
    with np.errstate(under="ignore"):
        out = closed(rows if everywhere else np.where(inside[:, None], rows, 1.0))
    if not everywhere:
        for part, fallback in zip(out, lapack(rows[~inside, None, :])):
            part[~inside] = fallback
    return out


def _leading_factors(stack: np.ndarray, k: int) -> tuple:
    """The ``k`` leading columns of ``np.linalg.svd(stack, full_matrices=True)``'s
    factors of a stack ``(S, m, n)``, bit for bit: ``u`` (S, m, k), ``s`` (S, k)
    and ``vh`` (S, k, n). One-row matrices take the reduced zgesdd, or inside
    the scaling window, for one or two columns, its closed form."""
    rows, cols = stack.shape[-2:]
    if rows > 1:
        u, s, vh = np.linalg.svd(stack, full_matrices=True)
        return u[..., :k], s[..., :k], vh[..., :k, :]
    reduced = functools.partial(np.linalg.svd, full_matrices=False)
    if cols > 2:
        return reduced(stack)
    return _closed_form_or_lapack(stack[:, 0], _svd_1x1 if cols == 1 else _svd_1x2, reduced)


def svd(m, k: int) -> SvdResult:
    """The ``k`` leading singular triplets, with a reproducible phase convention.

    ``m`` is one matrix or a stack ``(..., m, n)``; the factors keep its
    leading axes. Each left singular vector is rotated so its
    largest-magnitude entry is real and non-negative; the paired right vector
    absorbs the same rotation so the product is unchanged.
    """
    a = np.asarray(m, dtype=np.complex128)
    lead, (rows, cols) = a.shape[:-2], a.shape[-2:]
    u, s, vh = _leading_factors(a.reshape((-1, rows, cols)), k)
    if rows == 1 < cols:
        # such a left vector is exactly +-1 + 0j: its pivot phase is
        # +-1 - 0j, and it rotates to exactly 1
        phase, left = _complex(u[:, 0, :].real, -0.0), np.ones(u.shape, dtype=np.complex128)
    else:
        phase = _conj_pivot_phase(u)
        left = _rotate_columns(u, phase)
    return SvdResult(
        left=left.reshape(lead + (rows, k)),
        singular_values=s.reshape(lead + (k,)),
        right=_rotate_columns(np.conj(vh).swapaxes(-1, -2), phase).reshape(lead + (cols, k)),
    )


def singular_values(m) -> np.ndarray:
    """``np.linalg.svd(m, compute_uv=False)`` of one matrix or a stack ``(..., m, n)``; a 1x1
    matrix inside the scaling window takes zgesdd's value in closed form, without vectors."""
    a = np.asarray(m, dtype=np.complex128)
    if a.shape[-2:] != (1, 1):
        return np.linalg.svd(a, compute_uv=False)
    h = a.reshape(-1)
    x, y = np.abs(h.real), np.abs(h.imag)
    peak = np.maximum(x, y)
    with np.errstate(all="ignore"):  # values outside the window are replaced below
        s = peak * np.sqrt((x / peak) ** 2 + (y / peak) ** 2)  # _dlapy3(x, y, 0)
    outside = ~((peak >= 2.0 * _SMLNUM) & (peak <= _BIGNUM / 2.0))
    if outside.any():
        s[outside] = np.linalg.svd(h[outside, None, None], compute_uv=False)[:, 0]
    return s.reshape(a.shape[:-2] + (1,))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of a complex stack ``(..., m, n)``,
    equal to ``np.linalg.norm`` of each matrix (see the module docstring)."""
    flat = stack.reshape(-1, stack.shape[-2] * stack.shape[-1])
    re, im = flat.real, flat.imag
    if flat.shape[-1] == 1:  # a length-one dot is one product
        return np.sqrt(re * re + im * im).reshape(stack.shape[:-2])
    squares = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(squares[:, 0, 0]).reshape(stack.shape[:-2])


def row_sums(x: np.ndarray) -> np.ndarray:
    """``np.sum(x, axis=-1)`` of a real stack, bit for bit, one column add at
    a time for rows of up to 128 entries (see the module docstring)."""
    n = x.shape[-1]
    if n > 128:
        return np.sum(x, axis=-1)
    cols = [x[..., k] for k in range(n)]
    if n < 8:
        total = cols[0] + 0.0
        for col in cols[1:]:
            total += col
        return total
    blocks = n - n % 8
    acc = [col + 0.0 for col in cols[:8]]
    for start in range(8, blocks, 8):
        for j in range(8):
            acc[j] += cols[start + j]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for col in cols[blocks:]:
        total += col
    return total


def block_size(items: int, item_cells: int, cells: int) -> int:
    """Items per block of at most ``cells`` cells, at least one and at most ``items``."""
    return min(items, max(1, cells // item_cells))


def distinct_doubles(x: np.ndarray) -> tuple:
    """The distinct doubles of a real array, told apart by bit pattern, as
    Python floats, and each element's index into them in ``x``'s shape: a
    per-element scalar call made once per distinct value and expanded by the
    index reproduces the per-element output (see the module docstring)."""
    keys, index = np.unique(x.view(np.int64), return_inverse=True)
    # numpy 1.x returns the index flat, numpy 2.0.0 in x's shape
    return keys.view(float).tolist(), index.reshape(x.shape)


def unit_modulus_normalize(m, target_modulus: float) -> np.ndarray:
    """Force every entry to modulus ``target_modulus`` while keeping its phase.

    ``m`` is one matrix or a stack ``(..., rows, cols)``. Entries with
    modulus below ``ZERO_MODULUS`` have no usable phase and map to the real
    value ``target_modulus``.
    """
    a = np.asarray(m, dtype=np.complex128)
    mags = np.abs(a)
    degenerate = mags < ZERO_MODULUS
    return np.where(degenerate, target_modulus, target_modulus * a / np.where(degenerate, 1.0, mags))
