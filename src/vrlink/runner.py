"""Sweep orchestration: channels -> beamforming -> rates -> delays -> utility.

Evaluates every scenario x codebook x Es/N0 combination, checks the
feasibility constraints, and emits a deterministic, sorted CSV.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .beamforming import Codebook, design_link
from .channel import path_gains, synthesize_dl, synthesize_ul
from .config import SweepConfig
from .errors import InvalidInputError
from .linkmetrics import compute_metrics, noise_power
from .numerics import FACTOR_TOL, MODULUS_TOL
from .qos import link_utilities, processing_delay, queue_delay, transmission_delay

# Es/N0 points per evaluation block: as many as keep the block's UL arrays
# under this many (point, user, AP, subcarrier) cells, at least one
BLOCK_CELLS = 1 << 18

CSV_HEADER = (
    "scenario,n_tx,n_rf,esn0_db,ap,user,rate_dl_bps,rate_ul_bps,"
    "d_trans_s,d_proc_s,d_queue_s,d_total_s,utility,feasible,violations"
)


# a record's violation letters, indexed by its failed checks as bits a = 1 .. e = 16
VIOLATIONS = tuple(tuple(x for bit, x in enumerate("abcde") if code >> bit & 1) for code in range(32))
# the bits of check_constraints' (a), (c), (d), (e) columns
CHECK_BITS = np.array([1, 4, 8, 16])


@dataclass(frozen=True)
class SweepRecord:
    """One CSV row: a fully evaluated (scenario, codebook, esn0, user, AP) cell."""

    scenario: str
    n_tx: int
    n_rf: int
    esn0_db: float
    ap: int
    user: int
    rate_dl_bps: float
    rate_ul_bps: float
    d_trans_s: float
    d_proc_s: float
    d_queue_s: float
    d_total_s: float
    utility: object  # float when feasible, None otherwise
    feasible: bool
    violations: tuple  # constraint letters

    def sort_key(self):
        return (self.scenario, self.n_tx, self.n_rf, self.esn0_db, self.ap, self.user)


@dataclass(frozen=True)
class SweepResult:
    records: tuple
    objectives: dict  # (scenario, codebook label, esn0_db) -> summed per-subcarrier utility
    summary: dict


def check_constraints(n_users_on_ap, ap_power_used_w, solution, v_j: int, p_b: float) -> np.ndarray:
    """The feasibility families that do not depend on Es/N0: (a) AP occupancy,
    (c) AP power budget, (d) precoder entry modulus, (e) combiner entry
    modulus. Family (b), the minimum DL rate, is checked per sweep point.

    n_users_on_ap and ap_power_used_w hold one value per link of the
    (stacked) solution. Returns a boolean mask (..., 4), True where a link
    fails (a), (c), (d) or (e).
    """
    cb = solution.codebook
    dev_d, dev_e = (np.max(np.abs(np.abs(analog) ** 2 - 1.0 / n), axis=(-2, -1))
                    for analog, n in ((solution.analog_precoder, cb.n_tx), (solution.analog_combiner, cb.n_rx)))
    checks = (n_users_on_ap > v_j, ap_power_used_w > p_b * (1.0 + FACTOR_TOL), dev_d > MODULUS_TOL, dev_e > MODULUS_TOL)
    return np.stack(np.broadcast_arrays(*checks), axis=-1)


def _design_codebook(config: SweepConfig, codebook: Codebook, amplitude, n_served, budget) -> tuple:
    """Every link's design for one codebook, reduced to what the sweep reads:
    the squared effective gains (U, B, n_sc) and the violation bits of the
    Es/N0-independent checks (U, B). n_served and budget hold one value
    per link, user-major like the DL stack."""
    rng = np.random.default_rng([config.seed, 1])
    dl = synthesize_dl(config.topology, amplitude, config.grid.n_sc, codebook.n_tx, codebook.n_rx, config.gain_mode, rng)
    # every link in one stacked design
    sol = design_link(dl.matrices.reshape((n_served.size,) + dl.matrices.shape[2:]), codebook, budget)
    fails = check_constraints(n_served, n_served * sol.transmit_power(), sol, config.v_j, config.p_b)
    gains = sol.effective_gain_per_subcarrier() ** 2
    return gains.reshape(amplitude.shape + (-1,)), (fails @ CHECK_BITS).reshape(amplitude.shape)


def min_statistic(values) -> float:
    """Smallest value of a non-empty vector."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InvalidInputError("min statistic of an empty vector")
    return float(np.min(arr))


def mode_statistic(values, bin_width: float) -> float:
    """Lower edge of the most populated bin; ties go to the smaller bin."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InvalidInputError("mode statistic of an empty vector")
    if not 0 < bin_width < math.inf:
        raise InvalidInputError(f"bin width must be finite and positive, got {bin_width}")
    # float bins: an int64 cast wraps for delays above 2^63 bins
    with np.errstate(over="ignore"):
        bins = np.floor(arr / bin_width)
    # a bin index past the float range overflows to inf; such a bin is far
    # narrower than the float spacing there, so each delay is its own
    # bin's lower edge, and it lies above every finite bin
    far = np.where(np.isinf(bins), arr, 0.0)
    counts = Counter(zip(bins.tolist(), far.tolist()))
    (index, edge), _ = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return edge if math.isinf(index) else index * bin_width


def select_best_codebook(records):
    """Codebook with the largest utility sum among those whose records are
    all feasible, over the records given (one Es/N0 point's, say).

    Ties break toward fewer antennas, then fewer RF chains. Returns None
    when no codebook is feasible.
    """
    groups = {}
    for rec in records:
        groups.setdefault((rec.n_tx, rec.n_rf), []).append(rec)
    feasible = [key for key in sorted(groups) if all(r.feasible for r in groups[key])]
    # max keeps the first of equal sums, the smallest key
    best = max(feasible, key=lambda key: sum(r.utility for r in groups[key]), default=None)
    return None if best is None else Codebook(*best)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate the full scenario x codebook x Es/N0 product, sorted and summarized.

    The UL channels are drawn once and each link is designed once per
    codebook; SINR, rate, delay and utility are then evaluated on whole
    arrays, one block of Es/N0 points at a time.
    """
    topo, traffic = config.topology, config.traffic
    ul_gain, amplitude = path_gains(topo, config.grid, config.w, config.tap_count, config.tap_spacing_s)
    ul = synthesize_ul(ul_gain, config.grid.n_sc, config.gain_mode, np.random.default_rng([config.seed, 0]))
    # users on AP j while user i is re-homed to it: j's home users, plus i
    # unless j is already i's home; one per link, user-major
    home = np.array(config.base_cells)[:, None] == np.arange(topo.n_aps)
    n_served = (home.sum(axis=0) - home + 1).reshape(-1)
    budget = config.p_b / n_served
    gains, checks = map(np.stack, zip(*(
        _design_codebook(config, cb, amplitude, n_served, budget) for cb in config.codebooks
    )))
    user_powers = np.full(topo.n_users, config.p_u)
    ap_powers = np.full(topo.n_aps, config.p_b)
    d_proc = processing_delay(traffic.v_bits, traffic.m_capacity, traffic.n_share)
    d_queue = queue_delay(traffic.mu, traffic.lam)
    esn0_all = config.esn0_db.tolist()
    sigma_all = np.array([noise_power(e, config.p_b) for e in esn0_all])
    step = max(1, BLOCK_CELLS // ul.size)

    records = []
    # keyed in codebook, scenario, Es/N0 order whatever the block order
    objectives = {
        (scenario.value, cb.label, e): 0.0
        for cb in config.codebooks for scenario in config.scenarios for e in esn0_all
    }
    for start in range(0, len(esn0_all), step):
        m = compute_metrics(
            ul, gains, user_powers, ap_powers, config.base_cells, sigma_all[start : start + step],
            config.scenarios, config.grid.total_bandwidth, config.grid.subcarrier_bandwidth,
        )
        rate_ul = np.mean(m.rate_ul, axis=-1).tolist()
        for s, scenario in enumerate(config.scenarios):
            for c, codebook in enumerate(config.codebooks):
                rate_dl = m.rate_dl[s, c]  # (E, U, B)
                d_trans_n = transmission_delay(traffic.s_bits, traffic.a_bits, rate_dl[..., None], m.rate_ul)
                with np.errstate(over="ignore"):
                    totals_n = d_trans_n + d_proc + d_queue
                    d_total_n = np.mean(totals_n, axis=-1)
                    d_trans = np.mean(d_trans_n, axis=-1).tolist()
                # a link with no rate in one direction, or with delays past
                # the float range, never completes a frame: no utility, fails (b)
                carries = np.isfinite(d_total_n)
                utilities_n = link_utilities(totals_n[carries], m.sinr_ul[carries], config.gamma_d, config.epsilon0)
                codes = (checks[c] | 2 * ((rate_dl < config.r_min) | ~carries)).tolist()
                d_total = d_total_n.tolist()
                utility = _per_link(carries, np.mean(utilities_n, axis=-1))
                utility_sum = _per_link(carries, np.sum(utilities_n, axis=-1))
                rates_dl = rate_dl.tolist()
                for e, esn0_db in enumerate(esn0_all[start : start + step]):
                    objective = 0.0
                    for i in range(topo.n_users):
                        for j in range(topo.n_aps):
                            found = VIOLATIONS[codes[e][i][j]]
                            if not found:
                                objective += utility_sum[e][i][j]
                            records.append(SweepRecord(
                                scenario.value, codebook.n_tx, codebook.n_rf, esn0_db, j,
                                i, rates_dl[e][i][j], rate_ul[e][i][j], d_trans[e][i][j],
                                d_proc, d_queue, d_total[e][i][j],
                                None if found else utility[e][i][j], not found, found,
                            ))
                    objectives[(scenario.value, codebook.label, esn0_db)] = objective
    records.sort(key=lambda r: r.sort_key())
    return SweepResult(records=tuple(records), objectives=objectives, summary=_summarize(config, records))


def _per_link(carries: np.ndarray, values: np.ndarray) -> list:
    """One value per carrying link, inf for the others, as nested lists."""
    out = np.full(carries.shape, math.inf)
    out[carries] = values
    return out.tolist()


def _summarize(config: SweepConfig, records) -> dict:
    """Per-codebook statistics and the best codebook per Es/N0, from one
    grouping pass over the sorted records."""
    per_group = {}
    per_point = {}
    for rec in records:
        utilities, d_trans = per_group.setdefault((rec.scenario, rec.n_tx, rec.n_rf), ([], []))
        if rec.utility is not None:
            utilities.append(rec.utility)
        if math.isfinite(rec.d_trans_s):
            d_trans.append(rec.d_trans_s)
        per_point.setdefault(rec.esn0_db, []).append(rec)
    per_codebook = {}
    for scenario in config.scenarios:
        for codebook in config.codebooks:
            utilities, d_trans = per_group.get((scenario.value, codebook.n_tx, codebook.n_rf), ([], []))
            per_codebook[(scenario.value, codebook.label)] = {
                "utility_mean": float(np.mean(utilities)) if utilities else math.nan,
                "d_trans_min_s": min_statistic(d_trans) if d_trans else math.nan,
                "d_trans_mode_s": mode_statistic(d_trans, config.mode_bin_s) if d_trans else math.nan,
            }
    best = {}
    for esn0 in config.esn0_db.tolist():
        choice = select_best_codebook(per_point.get(esn0, ()))
        best[esn0] = choice.label if choice is not None else None
    return {"per_codebook": per_codebook, "best_codebook": best}


def record_to_csv_row(rec: SweepRecord) -> str:
    """One CSV line in header order; floats carry 9 significant digits."""
    numbers = (rec.rate_dl_bps, rec.rate_ul_bps, rec.d_trans_s, rec.d_proc_s, rec.d_queue_s, rec.d_total_s)
    fields = [rec.scenario, str(rec.n_tx), str(rec.n_rf), f"{rec.esn0_db:.9g}", str(rec.ap), str(rec.user)]
    fields += [f"{x:.9g}" for x in numbers]
    fields += [
        "" if rec.utility is None else f"{rec.utility:.9g}",
        "true" if rec.feasible else "false",
        ";".join(rec.violations),
    ]
    return ",".join(fields)


def write_results_csv(result: SweepResult, path: str) -> None:
    """Sorted records to CSV with a pinned header; floats carry 9 significant digits."""
    rows = [CSV_HEADER]
    rows.extend(record_to_csv_row(rec) for rec in sorted(result.records, key=lambda r: r.sort_key()))
    text = "\n".join(rows) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise OSError(f"cannot write results to {path}: {e}") from e
