"""Dense complex matrix kernel: SVD with a fixed phase convention, plus
element-wise modulus normalization.

The factorization itself is delegated to LAPACK via numpy; this module pins
down the conventions the beamforming stages rely on (descending singular
values, reproducible singular-vector phases, tolerance policy). ``svd`` takes
a single matrix or a stack ``(..., m, n)``; a single matrix is a stack of one,
so both go through the same convention.

Bit-exactness: the stacked code reproduces, bit for bit, what one
matrix-at-a-time loop computes. With numpy 2.x on x86-64 these hold:

- ``np.abs`` of a complex array is the same whatever the shape or stride,
  but differs from scalar ``abs(z)``; ``np.hypot(z.real, z.imag)`` equals
  scalar ``abs(z)``. So the pivot search ranks entries by ``np.abs`` and the
  pivot's magnitude comes from ``np.hypot``.
- complex scalar division ``z / r`` by a real ``r`` is numpy's Smith
  formula, ``((z.re + z.im*0) * s, (z.im - z.re*0) * s)`` with ``s = 1/r``.
- multiplying a complex column of length >= 2 by a complex scalar uses
  numpy's fused multiply-add kernel, which a broadcast array product
  reproduces; a column of length 1 takes the plain real product instead.
- stacked ``np.linalg.svd`` and stacked ``@`` equal their per-matrix calls,
  and so does ``np.sum`` over the two matrix axes of a contiguous stack;
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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Tolerance policy for double precision at the matrix sizes used here (<= 8x8).
FACTOR_TOL = 1e-9       # relative Frobenius error of factorization identities
MODULUS_TOL = 1e-12     # per-entry modulus checks
ZERO_MODULUS = 1e-15    # entries below this are treated as zero-phase


def ensure_complex_stack(m, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a finite complex128 stack ``(..., rows, cols)``
    of non-empty matrices; a 2-D input is a single matrix."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim < 2 or arr.size == 0:
        raise InvalidInputError(
            f"{name} must be a non-empty matrix or stack of matrices, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def ensure_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a finite, non-empty 2-D complex128 array."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be a non-empty 2-D matrix, got shape {arr.shape}")
    return ensure_complex_stack(arr, name)


@dataclass(frozen=True)
class SvdResult:
    """Full SVD ``M = left @ diag(singular_values) @ right.conj().T``.

    ``left`` is m x m unitary, ``right`` is n x n unitary, and
    ``singular_values`` holds min(m, n) non-negative reals, descending. For a
    stacked input every field carries the same leading axes.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m = self.left.shape[-1]
        n = self.right.shape[-1]
        k = self.singular_values.shape[-1]
        sigma = np.zeros(self.singular_values.shape[:-1] + (m, n))
        sigma[..., range(k), range(k)] = self.singular_values
        return self.left @ sigma @ np.conj(self.right).swapaxes(-1, -2)


def _conj_pivot_phase(vectors: np.ndarray) -> np.ndarray:
    """Conjugate phase of each column's largest-magnitude entry, (S, rows, cols)
    -> (S, cols); 1 for a column whose pivot is below ``ZERO_MODULUS``."""
    idx = np.argmax(np.abs(vectors), axis=-2)
    pivot = np.take_along_axis(vectors, idx[:, None, :], axis=-2)[:, 0, :]
    re, im = pivot.real, pivot.imag
    mag = np.hypot(re, im)
    usable = mag > ZERO_MODULUS
    scale = 1.0 / np.where(usable, mag, 1.0)
    phase = np.empty(pivot.shape, dtype=np.complex128)
    phase.real = np.where(usable, (re + im * 0.0) * scale, 1.0)
    phase.imag = -np.where(usable, (im - re * 0.0) * scale, 0.0)
    return phase


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
    out = np.empty(vectors.shape, dtype=np.complex128)
    out.real = re * pr - im * pi
    out.imag = re * pi + im * pr
    return out


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
    u, s, vh = np.linalg.svd(a.reshape((-1, rows, cols)), full_matrices=True)
    v = np.conj(vh).swapaxes(-1, -2)
    k = min(rows, cols)
    phase_u = _conj_pivot_phase(u)
    phase_v = np.concatenate((phase_u[:, :k], _conj_pivot_phase(v[:, :, k:])), axis=1)
    return SvdResult(
        left=_rotate_columns(u, phase_u).reshape(lead + (rows, rows)),
        singular_values=s.reshape(lead + (k,)),
        right=_rotate_columns(v, phase_v).reshape(lead + (cols, cols)),
    )


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
