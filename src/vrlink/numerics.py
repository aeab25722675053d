"""Dense complex matrix kernel: SVD with a fixed phase convention, plus
element-wise modulus normalization.

The factorization is LAPACK's zgesdd via numpy, or for one-row matrices of
one or two columns a numpy closed form of it; this module pins down the
conventions the beamforming stages rely on (descending singular values,
reproducible singular-vector phases, tolerance policy). ``svd`` takes a single
matrix or a stack ``(..., m, n)``; a single matrix is a stack of one, so both
go through the same convention.

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
- stacked ``np.linalg.svd`` and stacked ``@`` equal their per-matrix calls,
  and so does ``np.sum`` over the two matrix axes of a contiguous stack;
  a strided operand in stacked ``@`` (a column slice) may round differently
  from a contiguous copy of it, so slices are made contiguous first;
  ``np.sqrt`` and real ``+ - * /`` are exact IEEE operations.
- ``np.cumsum(x, axis=0)[-1]`` adds in index order, like a Python loop
  ``total += x[k]`` that starts from zero, except that the loop turns a
  ``-0.0`` first term into ``+0.0``; adding ``0.0`` to the result does the
  same. ``np.sum(x, axis=0)`` may add pairwise and round differently.
- ``np.mean``, ``np.sum`` and ``np.max`` along the last axis of a
  C-contiguous or boolean-indexed stack equal the 1-D call on each row, so
  a stack of link windows reduces as one window at a time does.
- ``np.linalg.norm`` of a complex matrix is ``sqrt(re . re + im . im)``,
  BLAS dots on the strided ``.real``/``.imag`` views of the flattened
  matrix. Stacked ``@`` row products on the same strided views of a
  flattened stack take the same dot, so ``frobenius_norms`` equals the
  per-matrix norm; contiguous copies of the views round differently.
- ``np.log1p`` is not per-element equal to ``math.log1p``; keep that scalar.
"""

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
    """Full SVD ``M = left @ diag(singular_values) @ right.conj().T``.

    ``left`` is m x m unitary, ``right`` is n x n unitary, and
    ``singular_values`` holds min(m, n) non-negative reals, descending. For a
    stacked input every field carries the same leading axes. The tests
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
    re = np.where(ar == 0, np.where(ai == 0, 0.0, -ai * xi), np.where(ai == 0, ar * xr, ar * xr - ai * xi))
    im = np.where(ar == 0, np.where(ai == 0, 0.0, ai * xr), np.where(ai == 0, ar * xi, ar * xi + ai * xr))
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
    """zgesdd of 1x2 matrices (S, 2): zgelqf's reflector of the conjugate row, zunglq's Q."""
    x1, x2 = np.conj(h[:, 0]), np.conj(h[:, 1])
    ar, ai = x1.real, x1.imag
    xnorm = np.sqrt(x2.real.astype(np.longdouble) ** 2 + x2.imag.astype(np.longdouble) ** 2).astype(np.float64)
    keep = (xnorm == 0) & (ai == 0)  # zlarfg leaves alpha and x as they are
    s = _dlapy3(ar, ai, xnorm)
    beta = np.where(keep, ar, -np.copysign(s, ar))
    tau = _complex((beta - ar) / beta, -ai / beta)
    # dladiv's 1 / (alpha - beta), whose |imag| <= |real|
    cr, ci = np.where(keep, 1.0, ar - beta), np.where(keep, 0.0, ai)
    r = ci / cr
    t = 1.0 / (cr + ci * r)
    v2 = _zscal(_complex(t, np.where(r != 0, -r * t, (0.0 + ci * (-1.0 / cr)) * t)), x2)
    q = np.stack((1 - np.conj(tau), np.conj(_zscal(-tau, v2))), axis=-1)
    vh = np.empty(h.shape + (2,), dtype=np.complex128)
    vh[:, 0] = _complex(q.real - 0.0 * q.imag, q.imag + 0.0)
    alpha = -np.conj(tau)  # zlarf's update of the row (0, 1)
    vh[:, 1, 0] = 0 + np.multiply(alpha, v2)
    vh[:, 1, 1] = 1 + np.multiply(np.multiply(alpha, np.conj(v2)), v2)
    return _complex(np.copysign(1.0, beta), 0.0)[:, None, None], s[:, None], vh


def _lapack_svd(stack: np.ndarray) -> tuple:
    """``np.linalg.svd(stack, full_matrices=True)`` of a stack ``(S, m, n)``, bit for bit:
    one-row matrices of one or two columns inside the scaling window in closed form."""
    rows, cols = stack.shape[-2:]
    if rows != 1 or cols > 2:
        return np.linalg.svd(stack, full_matrices=True)
    peak = np.max(np.maximum(np.abs(stack.real), np.abs(stack.imag)), axis=(-2, -1))
    inside = (peak >= 2.0 * _SMLNUM) & (peak <= _BIGNUM / 2.0)
    with np.errstate(under="ignore"):
        u, s, vh = (_svd_1x1 if cols == 1 else _svd_1x2)(np.where(inside[:, None], stack[:, 0], 1.0))
    if not inside.all():
        u[~inside], s[~inside], vh[~inside] = np.linalg.svd(stack[~inside], full_matrices=True)
    return u, s, vh


def svd(m) -> SvdResult:
    """Singular value decomposition with a reproducible sign/phase convention.

    ``m`` is one matrix or a stack ``(..., m, n)``; the factors keep its
    leading axes. Each left singular vector is rotated so its
    largest-magnitude entry is real and non-negative; the paired right vector
    absorbs the same rotation so the product is unchanged. Unpaired right
    columns (n > m) get the same convention applied independently since they
    never touch the reconstruction.
    """
    a = ensure_complex_stack(m)
    lead, (rows, cols) = a.shape[:-2], a.shape[-2:]
    u, s, vh = _lapack_svd(a.reshape((-1, rows, cols)))
    v = np.conj(vh).swapaxes(-1, -2)
    k = min(rows, cols)
    phase_u = _conj_pivot_phase(u)
    phase_v = np.concatenate((phase_u[:, :k], _conj_pivot_phase(v[:, :, k:])), axis=1)
    return SvdResult(
        left=_rotate_columns(u, phase_u).reshape(lead + (rows, rows)),
        singular_values=s.reshape(lead + (k,)),
        right=_rotate_columns(v, phase_v).reshape(lead + (cols, cols)),
    )


def singular_values(m) -> np.ndarray:
    """``np.linalg.svd(m, compute_uv=False)`` of one matrix or a stack ``(..., m, n)``; zgesdd
    gives a 1x1 matrix the same value with or without vectors, so those take ``_lapack_svd``."""
    a = ensure_complex_stack(m)
    if a.shape[-2:] != (1, 1):
        return np.linalg.svd(a, compute_uv=False)
    return _lapack_svd(a.reshape(-1, 1, 1))[1].reshape(a.shape[:-2] + (1,))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of a complex stack ``(..., m, n)``,
    equal to ``np.linalg.norm`` of each matrix (see the module docstring)."""
    flat = stack.reshape(-1, stack.shape[-2] * stack.shape[-1])
    re, im = flat.real, flat.imag
    squares = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(squares[:, 0, 0]).reshape(stack.shape[:-2])


def unit_modulus_normalize(m, target_modulus: float) -> np.ndarray:
    """Force every entry to modulus ``target_modulus`` while keeping its phase.

    ``m`` is one matrix or a stack ``(..., rows, cols)``. Entries with
    modulus below ``ZERO_MODULUS`` have no usable phase and map to the real
    value ``target_modulus``.
    """
    if not target_modulus > 0:
        raise InvalidInputError(f"target modulus must be positive, got {target_modulus}")
    a = ensure_complex_stack(m)
    mags = np.abs(a)
    degenerate = mags < ZERO_MODULUS
    return np.where(degenerate, target_modulus, target_modulus * a / np.where(degenerate, 1.0, mags))
