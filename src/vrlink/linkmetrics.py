"""SINR and Shannon-rate evaluation.

UL SINR works on the raw scalar channels per subcarrier; DL SINR works on the
beamformed effective gain aggregated over subcarriers (mean or min). Noise is
anchored to a reference power through the swept Es/N0 value.

The pipeline entry point, ``compute_metrics``, evaluates the UL side on whole
``(U, B, n_sc)`` arrays and reproduces the scalar ``sinr_ul`` and ``rate``
bit for bit; ``sinr_ul`` states the UL model one cell at a time and serves
only as the tests' oracle. The DL side has just U x B cells and still calls
``sinr_dl`` and ``rate`` per cell.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError

LN2 = math.log(2.0)


class GainAggregation(Enum):
    """How per-subcarrier DL gains collapse into the single SINR gain."""

    MEAN = "mean"
    MIN = "min"


def noise_power(esn0_db: float, reference_power: float) -> float:
    """Noise variance from the swept Es/N0: reference / 10^(esn0/10)."""
    if not reference_power > 0:
        raise InvalidInputError(f"reference power must be positive, got {reference_power}")
    return reference_power / 10.0 ** (esn0_db / 10.0)


def evaluation_cells(base_cells, i: int, j: int) -> tuple:
    """Home-AP assignment with user i re-homed to AP j for this evaluation."""
    cells = list(base_cells)
    cells[i] = j
    return tuple(cells)


def sinr_ul(
    i: int,
    j: int,
    n: int,
    user_powers: np.ndarray,
    coeffs: np.ndarray,
    cells,
    sigma_sq: float,
) -> float:
    """UL SINR for user i at AP j on subcarrier n (0-based index here).

    Intra-cell interference sums the other users homed to AP j through their
    own channels to j; inter-cell interference sums users of every other AP b
    through their channels to b.
    """
    if not sigma_sq > 0:
        raise InvalidInputError(f"noise power must be positive, got {sigma_sq}")
    gain = np.abs(coeffs[:, :, n]) ** 2
    signal = user_powers[i] * gain[i, j]
    intra = 0.0
    inter = 0.0
    n_users, n_aps = gain.shape
    for l in range(n_users):
        if l == i:
            continue
        if cells[l] == j:
            intra += user_powers[l] * gain[l, j]
    for b in range(n_aps):
        if b == j:
            continue
        for k in range(n_users):
            if k == i or cells[k] != b:
                continue
            inter += user_powers[k] * gain[k, b]
    return float(signal / (sigma_sq + intra + inter))


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
    if mode is GainAggregation.MEAN:
        return float(np.mean(gains))
    if mode is GainAggregation.MIN:
        return float(np.min(gains))
    raise InvalidInputError(f"unknown aggregation mode {mode!r}")


@dataclass(frozen=True)
class LinkMetrics:
    """SINR and rate surfaces over the (user, AP) grid for one sweep point."""

    sinr_ul: np.ndarray  # (U, B, n_sc)
    rate_ul: np.ndarray  # (U, B, n_sc), per-subcarrier bandwidth
    sinr_dl: np.ndarray  # (U, B)
    rate_dl: np.ndarray  # (U, B), total bandwidth
    dl_gain: np.ndarray  # (U, B), aggregated effective gain entering the DL SINR


def compute_metrics(
    ul_coeffs: np.ndarray,
    dl_gain_per_sc: np.ndarray,
    user_powers: np.ndarray,
    ap_powers: np.ndarray,
    base_cells,
    sigma_sq: float,
    mode: GainAggregation,
    bw_total: float,
    bw_subcarrier: float,
) -> LinkMetrics:
    """Evaluate every (user, AP) pairing, re-homing the probed user each time.

    ul_coeffs: (U, B, n_sc) complex scalars. dl_gain_per_sc: (U, B, n_sc)
    squared effective-channel magnitudes from the beamformer. The UL SINR and
    rate come out of whole-array operations; the DL side has only U x B
    cells and evaluates them one by one.
    """
    if not sigma_sq > 0:
        raise InvalidInputError(f"noise power must be positive, got {sigma_sq}")
    if not bw_subcarrier > 0:
        raise InvalidInputError(f"bandwidth must be positive, got {bw_subcarrier}")
    n_users, n_aps, n_sc = ul_coeffs.shape
    users = np.arange(n_users)[:, None]
    aps = np.arange(n_aps)[None, :]
    # received UL power of user l at AP b on subcarrier n
    received = user_powers[:, None, None] * np.abs(ul_coeffs) ** 2
    # interference at evaluation cell (i, j): user i sits at AP j, every other
    # user at its home AP; terms are added in the scalar oracle's order
    intra = np.zeros((n_users, n_aps, n_sc))
    for l in range(n_users):
        homed = (users != l) & (aps == base_cells[l])
        intra += np.where(homed[:, :, None], received[l][None, :, :], 0.0)
    inter = np.zeros((n_users, n_aps, n_sc))
    for b in range(n_aps):
        for k in range(n_users):
            if base_cells[k] != b:
                continue
            other = (users != k) & (aps != b)
            inter += np.where(other[:, :, None], received[k, b][None, None, :], 0.0)
    s_ul = received / (sigma_sq + intra + inter)
    if np.any(s_ul < 0):
        raise InvalidInputError("SINR must be non-negative")
    # math.log1p, not np.log1p: the two round differently
    log1p = np.array([math.log1p(x) for x in s_ul.ravel().tolist()]).reshape(s_ul.shape)
    r_ul = bw_subcarrier * log1p / LN2

    agg = np.array(
        [[aggregate_gain(dl_gain_per_sc[i, j], mode) for j in range(n_aps)] for i in range(n_users)]
    )
    s_dl = np.zeros((n_users, n_aps))
    r_dl = np.zeros((n_users, n_aps))
    for i in range(n_users):
        for j in range(n_aps):
            s = sinr_dl(i, j, ap_powers, agg, evaluation_cells(base_cells, i, j), sigma_sq)
            s_dl[i, j] = s
            r_dl[i, j] = rate(bw_total, s)
    return LinkMetrics(sinr_ul=s_ul, rate_ul=r_ul, sinr_dl=s_dl, rate_dl=r_dl, dl_gain=agg)
