"""Scalar reference implementations the tests hold the pipeline to.

The package evaluates the paper's chain once, on whole arrays:
``vrlink.linkmetrics.compute_metrics``, ``vrlink.qos.transmission_delay``,
``vrlink.qos.tracking_factors`` and ``vrlink.qos.link_utilities``. The functions here state the same model one
cell, one subcarrier or one matrix at a time, as the paper writes it, and
the tests compare the array path with them by ``==``:

- UL/DL SINR with one user re-homed (``evaluation_cells``, ``sinr_ul``,
  ``sinr_dl``), the Shannon rate (``rate``) and the DL gain aggregation
  (``aggregate_gain``);
- the utility factors (``conditional_utility``, ``tracking_error``,
  ``tracking_utility``, ``total_utility``);
- one link's subcarrier gains (``link_gains``), one UL coefficient
  (``ul_channel``), one steering vector (``link_steering``), one link's DL
  matrices (``dl_link_channels``), one matrix's full SVD factors under the
  phase convention (``full_svd``) and the product of SVD factors
  (``reconstruct``);
- the CSV writer that formats and assembles each row on its own
  (``write_results_csv``);
- the per-codebook summary, one (scenario, codebook) row at a time
  (``per_codebook_summary``);
- the whole sweep, one row at a time (``sweep_table``), composed of the
  pieces above and of ``design_link`` on one link and one codebook at a
  time, which the tests hold to the per-subcarrier design.

``sinr_ul`` is re-exported from ``vrlink.linkmetrics``. It stays in the
package only as the target of the benchmark's ``linkmetrics.sinr_ul`` layer
hook (perfbench/layers.py), until the benchmark drops that hook.
"""

import itertools
import math

import numpy as np

from vrlink.beamforming import design_link
from vrlink.channel import path_gains
from vrlink.errors import ConfigurationError, InvalidInputError
from vrlink.linkmetrics import _AGGREGATE, LN2, GainAggregation
from vrlink.linkmetrics import sinr_ul  # noqa: F401 (re-exported, see above)
from vrlink.numerics import FACTOR_TOL, MODULUS_TOL, ZERO_MODULUS, SvdResult
from vrlink.runner import CSV_HEADER, VIOLATIONS, SweepResult, min_statistic, mode_statistic
from vrlink.topology import Position3D, departure_arrival_angles


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
        raise InvalidInputError(f"distance must be positive, got {d}")
    if not w > 0:
        raise InvalidInputError(f"path-loss exponent must be positive, got {w}")
    return ramp_n * d ** (-w)


def link_gains(n_sc: int, mode: str, rng=None) -> np.ndarray:
    """One link's gain per subcarrier: the phase ramp exp(j*n*pi/180), n = 1..n_sc,
    or CN(0,1) from one draw of n_sc real parts and then one of n_sc imaginary parts."""
    if mode == "deterministic":
        return np.exp(1j * np.arange(1, n_sc + 1, dtype=float) * np.pi / 180.0)
    if mode == "gaussian":
        re = rng.standard_normal(n_sc)
        im = rng.standard_normal(n_sc)
        return (re + 1j * im) / math.sqrt(2.0)
    raise ConfigurationError(f"unknown gain mode {mode!r}")


def link_steering(n_elements: int, azimuth_deg: float) -> np.ndarray:
    """Half-wavelength ULA response at one azimuth,
    element k = (1/sqrt(N)) * exp(-j*k*2*pi*0.5*sin(az))."""
    k = np.arange(n_elements, dtype=float)
    return np.exp(1j * (-2.0 * np.pi * 0.5 * math.sin(math.radians(azimuth_deg)) * k)) / math.sqrt(n_elements)


def dl_link_channels(tx: Position3D, rx: Position3D, amp: float, gains: np.ndarray, n_tx: int, n_rx: int) -> np.ndarray:
    """Rank-1 DL matrices (n_sc, n_rx, n_tx) of one link, one per entry of gains.

    H_n = amp * gains[n] * a_rx(aoa) a_tx(aod)^H, with amp the link's
    ``path_gains`` amplitude. The angles and steering vectors belong to the
    link, so only the gain varies across subcarriers.
    """
    aod_az, aoa_az = departure_arrival_angles(tx, rx)
    a_tx = link_steering(n_tx, aod_az)
    a_rx = link_steering(n_rx, aoa_az)
    return (amp * np.asarray(gains))[:, None, None] * np.outer(a_rx, a_tx.conj())


def full_svd(matrix) -> tuple:
    """One matrix's full factors ``(u, s, v)`` under ``svd``'s convention:
    LAPACK's full factors, each left column rotated in place by the conjugate
    phase of its first largest-magnitude entry and each right column with a
    left partner by the same phase; right columns without one stay as LAPACK
    gives them. ``svd(m, k)`` returns the first k columns of ``u`` and ``v``
    and values of ``s``."""
    u, s, vh = np.linalg.svd(matrix, full_matrices=True)
    v = np.conj(vh).T

    def conj_pivot_phase(column):
        pivot = column[np.argmax(np.abs(column))]
        mag = np.hypot(pivot.real, pivot.imag)
        if not mag > ZERO_MODULUS:
            return complex(1.0, -0.0)
        scale = 1.0 / mag
        return complex((pivot.real + pivot.imag * 0.0) * scale, -((pivot.imag - pivot.real * 0.0) * scale))

    for c in range(u.shape[1]):
        phase = conj_pivot_phase(u[:, c])
        u[:, c] *= phase
        if c < len(s):
            v[:, c] *= phase
    return u, s, v


def reconstruct(res: SvdResult) -> np.ndarray:
    """Product ``left @ diag(singular_values) @ right^H`` of SVD factors, stacked like them."""
    m, n, k = res.left.shape[-1], res.right.shape[-1], res.singular_values.shape[-1]
    sigma = np.zeros(res.singular_values.shape[:-1] + (m, n))
    sigma[..., range(k), range(k)] = res.singular_values
    return res.left @ sigma @ np.conj(res.right).swapaxes(-1, -2)


def write_results_csv(result: SweepResult, path: str) -> None:
    """The table's rows in order under a pinned header; floats carry 9
    significant digits. The UL rates, the Es/N0 labels and the processing
    and queue delays, shared by every (scenario, codebook) block, are
    formatted once; the other floats row by row. The file is written one
    (scenario, codebook) block at a time."""
    n_e = len(result.esn0_db)
    n_links = math.prod(result.rate_ul.shape[1:])
    links = [f"{j},{i}" for j, i in np.ndindex(result.rate_ul.shape[1:])]
    rate_ul = [[f"{x:.9g}" for x in point] for point in result.rate_ul.reshape(n_e, n_links).tolist()]
    esn0 = [f"{e:.9g}" for e in result.esn0_db.tolist()]
    queue = f"{result.d_proc:.9g},{result.d_queue:.9g}"
    shape = (len(result.scenarios), len(result.codebooks), n_e, n_links)
    columns = [a.reshape(shape) for a in (result.rate_dl, result.d_trans, result.d_total, result.utility, result.codes)]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for (s, scenario), (c, cb) in itertools.product(enumerate(result.scenarios), enumerate(result.codebooks)):
                rows = []
                for e, ul_point, *point in zip(esn0, rate_ul, *(a[s, c].tolist() for a in columns)):
                    key = f"{scenario.value},{cb.n_tx},{cb.n_rf},{e}"
                    for link, ul, dl, dt, total, u, code in zip(links, ul_point, *point):
                        tail = f",false,{VIOLATIONS[code]}" if code else f"{u:.9g},true,"
                        rows.append(f"{key},{link},{dl:.9g},{ul},{dt:.9g},{queue},{total:.9g},{tail}\n")
                fh.write("".join(rows))
    except OSError as e:
        raise OSError(f"cannot write results to {path}: {e}") from e


def per_codebook_summary(table: SweepResult, mode_bin: float) -> dict:
    """Each (scenario, codebook) row's statistics on their own: the mean of
    its feasible utilities, and the minimum and mode of its finite
    transmission delays, each NaN for a row with none."""
    per_codebook = {}
    for (s, scenario), (c, codebook) in itertools.product(enumerate(table.scenarios), enumerate(table.codebooks)):
        utilities = table.utility[s, c][table.codes[s, c] == 0]
        d_trans = table.d_trans[s, c][np.isfinite(table.d_trans[s, c])]
        per_codebook[(scenario.value, codebook.label)] = {
            "utility_mean": float(np.mean(utilities)) if utilities.size else math.nan,
            "d_trans_min_s": min_statistic(d_trans) if d_trans.size else math.nan,
            "d_trans_mode_s": mode_statistic(d_trans, mode_bin) if d_trans.size else math.nan,
        }
    return per_codebook


def _over(bits: float, rate_bps: float) -> float:
    """Time to carry bits at a rate; a zero rate never completes."""
    return bits / rate_bps if rate_bps > 0 else math.inf


def _link_design(config, cb, channels, n_served: int) -> tuple:
    """One link's squared effective gain per subcarrier and the bits of the
    checks (a), (c), (d) and (e) for one codebook."""
    (sol,) = design_link(((channels[None], (cb,)),), np.array([config.p_b / n_served]))
    power = float(sol.transmit_power()[0])
    dev_p = float(np.max(np.abs(np.abs(sol.analog_precoder[0]) ** 2 - 1.0 / cb.n_tx)))
    dev_g = float(np.max(np.abs(np.abs(sol.analog_combiner[0]) ** 2 - 1.0 / cb.n_rx)))
    bits = ((n_served > config.v_j) | 4 * (n_served * power > config.p_b * (1.0 + FACTOR_TOL))
            | 8 * (dev_p > MODULUS_TOL) | 16 * (dev_g > MODULUS_TOL))
    return sol.effective_gain_per_subcarrier()[0] ** 2, bits


def sweep_table(config) -> SweepResult:
    """The sweep's table built one row at a time from the scalar model.

    Each link's UL coefficients and DL matrices come from ``link_gains``
    and ``dl_link_channels`` (one generator per stream, links in user-major
    order, a fresh DL generator per codebook), its design from
    ``design_link`` on that link and codebook alone. Each row then takes
    ``evaluation_cells``, ``sinr_ul``, ``sinr_dl`` and ``rate`` per
    subcarrier, ``aggregate_gain`` of the DL gains, the delays per
    subcarrier and the utility factors, averaged over the link's
    subcarriers. ``summary`` is None.
    """
    topo, grid, traffic = config.topology, config.grid, config.traffic
    users, aps, n_sc = range(topo.n_users), range(topo.n_aps), grid.n_sc
    gaussian = config.gain_mode == "gaussian"
    ul_gain, amplitude = path_gains(topo, grid, config.w, config.tap_count, config.tap_spacing)
    rng = np.random.default_rng([config.seed, 0]) if gaussian else None
    ul = np.array([[link_gains(n_sc, config.gain_mode, rng) * ul_gain[i, j] for j in aps] for i in users])
    served = {(i, j): evaluation_cells(config.base_cells, i, j).count(j) for i in users for j in aps}
    gains, checks = {}, {}
    for c, cb in enumerate(config.codebooks):
        rng = np.random.default_rng([config.seed, 1]) if gaussian else None
        for (i, user), (j, ap) in itertools.product(enumerate(topo.users), enumerate(topo.aps)):
            channels = dl_link_channels(ap, user, amplitude[i, j], link_gains(n_sc, config.gain_mode, rng),
                                        cb.n_tx, cb.n_rx)
            gains[c, i, j], checks[c, i, j] = _link_design(config, cb, channels, served[i, j])
    agg = {(s, c): np.array([[aggregate_gain(gains[c, i, j], mode) for j in aps] for i in users])
           for s, mode in enumerate(config.scenarios) for c in range(len(config.codebooks))}

    d_proc = traffic.v_bits / (traffic.m_capacity / traffic.n_share)
    d_queue = 1.0 / (traffic.mu - traffic.lam)
    shape = (len(config.scenarios), len(config.codebooks), len(config.noise), topo.n_aps, topo.n_users)
    rate_dl, d_trans, d_total = np.empty(shape), np.empty(shape), np.empty(shape)
    utility, codes = np.full(shape, np.nan), np.zeros(shape, dtype=int)
    rate_ul = np.empty(shape[2:])
    for (e, sigma), i, j in itertools.product(enumerate(config.noise), users, aps):
        cells = evaluation_cells(config.base_cells, i, j)
        sinrs = [sinr_ul(i, j, n, np.full(topo.n_users, config.p_u), ul, cells, sigma) for n in range(n_sc)]
        rates_ul = [rate(grid.subcarrier_bandwidth, x) for x in sinrs]
        rate_ul[e, j, i] = np.mean(rates_ul)
        errors = np.array([tracking_error(x, config.epsilon0) for x in sinrs])
        tracking = [tracking_utility(x, errors) for x in errors.tolist()]
        for s, c in itertools.product(range(shape[0]), range(shape[1])):
            row = (s, c, e, j, i)
            rate_dl[row] = rate(grid.total_bandwidth, sinr_dl(i, j, np.full(topo.n_aps, config.p_b), agg[s, c],
                                                               cells, sigma))
            trans = [_over(traffic.s_bits, rate_dl[row]) + _over(traffic.a_bits, r) for r in rates_ul]
            totals = [t + d_proc + d_queue for t in trans]
            with np.errstate(over="ignore"):
                d_trans[row], d_total[row] = np.mean(trans), np.mean(totals)
            carries = math.isfinite(d_total[row])
            codes[row] = checks[c, i, j] | 2 * (rate_dl[row] < config.r_min or not carries)
            if codes[row] == 0:
                d_max = max(totals)
                utility[row] = np.mean([total_utility(conditional_utility(d, d_max, config.gamma_d), x)
                                        for d, x in zip(totals, tracking)])
    return SweepResult(config.scenarios, config.codebooks, config.esn0_db, rate_dl, d_trans, d_total, utility,
                       codes, rate_ul, d_proc, d_queue, summary=None)
