"""Scalar reference implementations the tests hold the pipeline to.

The package evaluates the paper's chain once, on whole arrays:
``vrlink.linkmetrics.compute_metrics``, ``vrlink.qos.transmission_delay`` and
``vrlink.qos.link_utilities``. The functions here state the same model one
cell, one subcarrier or one matrix at a time, as the paper writes it, and
the tests compare the array path with them by ``==``:

- UL/DL SINR with one user re-homed (``evaluation_cells``, ``sinr_ul``,
  ``sinr_dl``), the Shannon rate (``rate``) and the DL gain aggregation
  (``aggregate_gain``);
- the utility factors (``conditional_utility``, ``tracking_error``,
  ``tracking_utility``, ``total_utility``);
- one UL coefficient (``ul_channel``) and the product of SVD factors
  (``reconstruct``).

``sinr_ul`` is re-exported from ``vrlink.linkmetrics``. It stays in the
package only as the target of the benchmark's ``linkmetrics.sinr_ul`` layer
hook (perfbench/layers.py), until the benchmark drops that hook.
"""

import math

import numpy as np

from vrlink.errors import DegenerateGeometryError, InvalidInputError
from vrlink.linkmetrics import _AGGREGATE, LN2, GainAggregation
from vrlink.linkmetrics import sinr_ul  # noqa: F401 (re-exported, see above)
from vrlink.numerics import SvdResult


def evaluation_cells(base_cells, i: int, j: int) -> tuple:
    """Home-AP assignment with user i re-homed to AP j for this evaluation."""
    cells = list(base_cells)
    cells[i] = j
    return tuple(cells)


def sinr_dl(
    i: int,
    j: int,
    ap_powers: np.ndarray,
    dl_gains: np.ndarray,
    cells,
    sigma_sq: float,
) -> float:
    """DL SINR for user i served by AP j with subcarrier-aggregated gains.

    Intra-cell interference counts the other users of AP j, each weighted by
    the serving AP's power through user i's own gain; inter-cell interference
    sums other APs' users through their own links.
    """
    if not sigma_sq > 0:
        raise InvalidInputError(f"noise power must be positive, got {sigma_sq}")
    if cells[i] != j:
        raise InvalidInputError(f"user {i} is not homed to AP {j} in this evaluation")
    signal = ap_powers[j] * dl_gains[i, j]
    intra = 0.0
    inter = 0.0
    n_users, n_aps = dl_gains.shape
    for l in range(n_users):
        if l == i:
            continue
        if cells[l] == j:
            intra += ap_powers[j] * dl_gains[i, j]
    for b in range(n_aps):
        if b == j:
            continue
        for k in range(n_users):
            if k == i or cells[k] != b:
                continue
            inter += ap_powers[b] * dl_gains[k, b]
    return float(signal / (sigma_sq + intra + inter))


def rate(bw: float, sinr: float) -> float:
    """Shannon rate bw * log2(1 + sinr) in bits/s.

    log1p keeps full precision for the tiny SINRs the path-loss model
    produces, where 1 + sinr would round away the signal.
    """
    if not bw > 0:
        raise InvalidInputError(f"bandwidth must be positive, got {bw}")
    if sinr < 0:
        raise InvalidInputError(f"SINR must be non-negative, got {sinr}")
    return bw * math.log1p(sinr) / LN2


def aggregate_gain(per_subcarrier_gains, mode: GainAggregation) -> float:
    """Collapse per-subcarrier gains by arithmetic mean or minimum."""
    gains = np.asarray(per_subcarrier_gains, dtype=float)
    if gains.size == 0:
        raise InvalidInputError("cannot aggregate an empty gain vector")
    if np.any(gains < 0):
        raise InvalidInputError("gains must be non-negative")
    if mode not in _AGGREGATE:
        raise InvalidInputError(f"unknown aggregation mode {mode!r}")
    return float(_AGGREGATE[mode](gains))


def conditional_utility(d: float, d_max: float, gamma_d: float) -> float:
    """Delay-tolerance factor: 1 below gamma_d, linear down to 0 at d_max."""
    if d < 0 or d_max < 0 or gamma_d < 0:
        raise InvalidInputError("delays must be non-negative")
    if d > d_max:
        raise InvalidInputError(
            f"delay {d} exceeds the window maximum {d_max}; d_max must cover every subcarrier"
        )
    if d < gamma_d:
        return 1.0
    if d_max <= gamma_d:
        # whole window within tolerance, reachable only at d == gamma_d == d_max
        return 1.0
    return (d_max - d) / (d_max - gamma_d)


def tracking_error(sinr_ul: float, epsilon0: float) -> float:
    """Position error versus UL SINR: epsilon0 / sqrt(1 + SINR).

    A declared, pluggable mapping; only error ratios reach the utility, so
    the exact shape matters less than monotonicity.
    """
    if sinr_ul < 0:
        raise InvalidInputError(f"SINR must be non-negative, got {sinr_ul}")
    if not epsilon0 > 0:
        raise InvalidInputError(f"epsilon0 must be positive, got {epsilon0}")
    return epsilon0 / math.sqrt(1.0 + sinr_ul)


def tracking_utility(error_n: float, errors_all_n) -> float:
    """Accuracy factor: 1 - error / worst-subcarrier error."""
    errors = np.asarray(errors_all_n, dtype=float)
    if errors.size == 0:
        raise InvalidInputError("empty tracking-error vector")
    if np.any(errors < 0) or error_n < 0:
        raise InvalidInputError("tracking errors must be non-negative")
    worst = float(np.max(errors))
    if error_n > worst:
        raise InvalidInputError(f"error {error_n} is not an element of the window (max {worst})")
    if worst == 0.0:
        return 1.0
    return 1.0 - error_n / worst


def total_utility(conditional: float, tracking: float) -> float:
    """Product of the two factors."""
    for name, v in (("conditional", conditional), ("tracking", tracking)):
        if not 0.0 <= v <= 1.0:
            raise InvalidInputError(f"{name} utility must lie in [0,1], got {v}")
    return conditional * tracking


def ul_channel(d: float, w: float, ramp_n: complex) -> complex:
    """Single-subcarrier UL coefficient: per-subcarrier factor times d^-w."""
    if not d > 0:
        raise DegenerateGeometryError(f"distance must be positive, got {d}")
    if not w > 0:
        raise InvalidInputError(f"path-loss exponent must be positive, got {w}")
    return ramp_n * d ** (-w)


def reconstruct(res: SvdResult) -> np.ndarray:
    """Product ``left @ diag(singular_values) @ right^H`` of SVD factors, stacked like them."""
    m, n, k = res.left.shape[-1], res.right.shape[-1], res.singular_values.shape[-1]
    sigma = np.zeros(res.singular_values.shape[:-1] + (m, n))
    sigma[..., range(k), range(k)] = res.singular_values
    return res.left @ sigma @ np.conj(res.right).swapaxes(-1, -2)
