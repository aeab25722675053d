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
it. Both take positive noise powers from ``SweepConfig`` unchecked, and
``compute_metrics`` checks only what the sweep's arrays can still produce:
powers, sums and SINRs past the float range.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError
from .numerics import distinct_doubles

LN2 = math.log(2.0)


class GainAggregation(Enum):
    """How per-subcarrier DL gains collapse into the single SINR gain."""

    MEAN = "mean"
    MIN = "min"


_AGGREGATE = {GainAggregation.MEAN: np.mean, GainAggregation.MIN: np.min}


def noise_power(esn0_db: float, reference_power: float) -> float:
    """Noise variance from the swept Es/N0: reference / 10^(esn0/10)."""
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
    through their channels to b. sigma_sq must be positive; it is not checked.
    """
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
    produces; np.log1p rounds differently from it. Where a SINR repeats the
    one before it in C order, as the UL SINRs repeat across subcarriers
    under the deterministic phase ramp, log1p runs once per distinct SINR
    and is expanded by index, which gives every element the bits of its own
    call (see the numerics docstring). Elsewhere, as with Gaussian gains or
    along the DL's AP axis, the sort that finds the distinct SINRs costs
    more than the calls it saves, and log1p runs per element.
    """
    flat = sinr.ravel()
    keys = flat.view(np.int64)
    if np.any(keys[1:] == keys[:-1]):
        values, index = distinct_doubles(sinr)
    else:  # Python floats from tolist(): the same doubles, without numpy scalars
        values, index = flat.tolist(), slice(None)
    log1p = np.fromiter(map(math.log1p, values), float, len(values))[index].reshape(sinr.shape)
    return bw * log1p / LN2


def compute_metrics(
    ul_coeffs: np.ndarray,
    dl_gain_per_sc: np.ndarray,
    p_u: float,
    p_b: float,
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
    slice per codebook. p_u, p_b: the one UL power of every user and DL
    power of every AP. sigma_sq: (E,) noise powers. modes: the gain
    aggregations, one per scenario. The interference sums do not depend on
    the noise, so they are formed once and every Es/N0 point reuses them.
    A UL received power, interference sum or SINR past the float range, or
    a DL one, is an InvalidInputError naming the first such user and AP.
    """
    n_aps = ul_coeffs.shape[1]
    # received UL power of user l at AP b on subcarrier n
    with np.errstate(over="ignore"):
        received = p_u * np.abs(ul_coeffs) ** 2
    if not np.all(np.isfinite(received)):
        l, b, _ = np.argwhere(~np.isfinite(received))[0]
        raise InvalidInputError(f"user {l} / AP {b}: UL received power p_u*|h|^2 leaves the float range")
    with np.errstate(over="ignore"):
        intra, inter = _interference(
            base_cells, n_aps, lambda l: received[l], lambda k, b: received[k, b], tail=(1,)
        )
        denominator = (sigma_sq[:, None, None, None] + intra) + inter
        s_ul = received / denominator
    _check_range("UL", denominator, s_ul, cell_axes=(1, 2))

    # an infinite DL power over an infinite sum divides to NaN
    with np.errstate(over="ignore", invalid="ignore"):
        agg = np.stack([_AGGREGATE[mode](dl_gain_per_sc, axis=-1) for mode in modes])
        # DL power of AP b through the gain of user k; user i's own link
        # carries the intra-cell terms of its serving AP
        own = p_b * agg
        intra, inter = _interference(
            base_cells, n_aps, lambda l: own, lambda k, b: own[..., k, b, None, None]
        )
        denominator = (sigma_sq[:, None, None] + intra[..., None, :, :]) + inter[..., None, :, :]
        s_dl = own[..., None, :, :] / denominator
    _check_range("DL", denominator, s_dl, cell_axes=(-2, -1))
    return LinkMetrics(s_ul, _rate(bw_subcarrier, s_ul), s_dl, _rate(bw_total, s_dl), agg)


def _check_range(direction: str, denominator: np.ndarray, sinr: np.ndarray, cell_axes: tuple) -> None:
    """Raise naming the first evaluation cell whose noise-plus-interference
    sum or SINR left the float range. A sum past it would read as an SINR
    of 0, an SINR past it as an infinite rate."""
    bad = ~(np.isfinite(denominator) & np.isfinite(sinr))
    if bad.any():
        index = np.argwhere(bad)[0]
        i, j = index[cell_axes[0]], index[cell_axes[1]]
        raise InvalidInputError(f"user {i} / AP {j}: {direction} interference or SINR leaves the float range")
