"""SINR and Shannon-rate evaluation.

UL SINR works on the raw scalar channels per subcarrier; DL SINR works on the
beamformed effective gain aggregated over subcarriers (mean or min). Noise is
anchored to a reference power through the swept Es/N0 value.

The pipeline entry point, ``compute_metrics``, evaluates both directions on
whole arrays: the UL on ``(E, U, B, n_sc)``, the DL on every scenario,
codebook and Es/N0 point at once. It forms each interference sum once, with
the same masks for both directions. The scalar statement of the model, one
cell at a time, lives in the tests (tests/oracles.py), which hold this path
to it bit for bit. ``sinr_ul`` stays here only as the target of the
benchmark's ``linkmetrics.sinr_ul`` layer hook; nothing in the package calls
it.
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


_AGGREGATE = {GainAggregation.MEAN: np.mean, GainAggregation.MIN: np.min}


def noise_power(esn0_db: float, reference_power: float) -> float:
    """Noise variance from the swept Es/N0: reference / 10^(esn0/10)."""
    if not reference_power > 0:
        raise InvalidInputError(f"reference power must be positive, got {reference_power}")
    return reference_power / 10.0 ** (esn0_db / 10.0)


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


@dataclass(frozen=True)
class LinkMetrics:
    """SINR and rate surfaces over Es/N0 points, scenarios, codebooks and cells."""

    sinr_ul: np.ndarray  # (E, U, B, n_sc)
    rate_ul: np.ndarray  # (E, U, B, n_sc), per-subcarrier bandwidth
    sinr_dl: np.ndarray  # (M, ..., E, U, B): scenario, the gains' leading axes, Es/N0
    rate_dl: np.ndarray  # (M, ..., E, U, B), total bandwidth
    dl_gain: np.ndarray  # (M, ..., U, B), aggregated effective gain entering the DL SINR


def _interference(base_cells, n_aps: int, intra_term, inter_term, tail: tuple = ()):
    """Intra- and inter-cell interference at every evaluation cell (i, j).

    User i sits at AP j and every other user at its home AP. intra_term(l)
    is what user l, homed to AP j, adds at (i, j); inter_term(k, b) is what
    user k, homed to another AP b, adds. Both broadcast against the (U, B)
    cell grid followed by `tail` unit axes. The masked terms are added from
    0.0 in the order of the scalar ``sinr_ul`` and ``sinr_dl``, so the sums
    round as theirs do.
    """
    users = np.arange(len(base_cells)).reshape((-1, 1) + tail)
    aps = np.arange(n_aps).reshape((1, -1) + tail)
    intra = inter = 0.0
    for l, home in enumerate(base_cells):
        intra = intra + np.where((users != l) & (aps == home), intra_term(l), 0.0)
    for b in range(n_aps):
        for k, home in enumerate(base_cells):
            if home == b:
                inter = inter + np.where((users != k) & (aps != b), inter_term(k, b), 0.0)
    return intra, inter


def _rate(bw: float, sinr: np.ndarray) -> np.ndarray:
    """Shannon rate bw * log2(1 + sinr) in bits/s per element.

    math.log1p keeps full precision for the tiny SINRs the path-loss model
    produces; np.log1p rounds differently from it.
    """
    if not bw > 0:
        raise InvalidInputError(f"bandwidth must be positive, got {bw}")
    if np.any(sinr < 0):
        raise InvalidInputError("SINR must be non-negative")
    log1p = np.fromiter(map(math.log1p, sinr.flat), float, sinr.size).reshape(sinr.shape)
    return bw * log1p / LN2


def compute_metrics(
    ul_coeffs: np.ndarray,
    dl_gain_per_sc: np.ndarray,
    user_powers: np.ndarray,
    ap_powers: np.ndarray,
    base_cells,
    sigma_sq: np.ndarray,
    modes,
    bw_total: float,
    bw_subcarrier: float,
) -> LinkMetrics:
    """Evaluate every (user, AP) pairing at every noise power, re-homing the
    probed user each time.

    ul_coeffs: (U, B, n_sc) complex scalars. dl_gain_per_sc: (..., U, B,
    n_sc) squared effective-channel magnitudes from the beamformer, e.g. one
    slice per codebook. sigma_sq: (E,) noise powers. modes: the gain
    aggregations, one per scenario. The interference sums do not depend on
    the noise, so they are formed once and every Es/N0 point reuses them.
    """
    sigma = np.asarray(sigma_sq, dtype=float)
    if sigma.ndim != 1 or not np.all(sigma > 0):
        raise InvalidInputError(f"noise powers must be a positive vector, got {sigma_sq}")
    gains = np.ascontiguousarray(dl_gain_per_sc, dtype=float)
    if np.any(gains < 0):
        raise InvalidInputError("gains must be non-negative")
    n_aps = ul_coeffs.shape[1]
    # received UL power of user l at AP b on subcarrier n
    received = user_powers[:, None, None] * np.abs(ul_coeffs) ** 2
    intra, inter = _interference(
        base_cells, n_aps, lambda l: received[l], lambda k, b: received[k, b], tail=(1,)
    )
    s_ul = received / ((sigma[:, None, None, None] + intra) + inter)

    agg = np.stack([_AGGREGATE[mode](gains, axis=-1) for mode in modes])
    # DL power of AP b through the gain of user k; user i's own link carries
    # the intra-cell terms of its serving AP
    own = ap_powers * agg
    intra, inter = _interference(
        base_cells, n_aps, lambda l: own, lambda k, b: own[..., k, b, None, None]
    )
    s_dl = own[..., None, :, :] / ((sigma[:, None, None] + intra[..., None, :, :]) + inter[..., None, :, :])
    return LinkMetrics(s_ul, _rate(bw_subcarrier, s_ul), s_dl, _rate(bw_total, s_dl), agg)
