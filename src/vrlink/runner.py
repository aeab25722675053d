"""Sweep orchestration: channels -> beamforming -> rates -> delays -> utility.

Evaluates every scenario x codebook x Es/N0 combination, checks the
feasibility constraints, and emits a deterministic, sorted CSV.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .beamforming import Codebook, design_link
from .channel import synthesize_dl, synthesize_ul
from .config import SweepConfig
from .errors import InfeasibleLinkError, InvalidInputError
from .linkmetrics import GainAggregation, compute_metrics, evaluation_cells, noise_power
from .numerics import FACTOR_TOL, MODULUS_TOL
from .qos import link_utilities, processing_delay, queue_delay, transmission_delay

CSV_HEADER = (
    "scenario,n_tx,n_rf,esn0_db,ap,user,rate_dl_bps,rate_ul_bps,"
    "d_trans_s,d_proc_s,d_queue_s,d_total_s,utility,feasible,violations"
)


@dataclass(frozen=True)
class ConstraintViolation:
    """One failed feasibility check for one link."""

    constraint: str  # letter a..e
    user: int
    ap: int
    measured: float
    required: float

    def describe(self) -> str:
        return (
            f"({self.constraint}) user {self.user} / AP {self.ap}: "
            f"measured {self.measured:.6g} vs required {self.required:.6g}"
        )


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


def check_constraints(
    n_users_on_ap: int,
    rate_dl: float,
    ap_power_used_w: float,
    solution,
    user: int,
    ap: int,
    v_j: int,
    r_min: float,
    p_b: float,
) -> list:
    """Feasibility families: (a) AP occupancy, (b) minimum DL rate, (c) AP
    power budget, (d) precoder entry modulus, (e) combiner entry modulus."""
    violations = []
    if n_users_on_ap > v_j:
        violations.append(ConstraintViolation("a", user, ap, float(n_users_on_ap), float(v_j)))
    if rate_dl < r_min:
        violations.append(ConstraintViolation("b", user, ap, rate_dl, r_min))
    if ap_power_used_w > p_b * (1.0 + FACTOR_TOL):
        violations.append(ConstraintViolation("c", user, ap, ap_power_used_w, p_b))
    mod_sq_p = np.abs(solution.analog_precoder) ** 2
    target_p = 1.0 / solution.codebook.n_tx
    dev_p = float(np.max(np.abs(mod_sq_p - target_p)))
    if dev_p > MODULUS_TOL:
        violations.append(ConstraintViolation("d", user, ap, dev_p, MODULUS_TOL))
    mod_sq_g = np.abs(solution.analog_combiner) ** 2
    target_g = 1.0 / solution.codebook.n_rx
    dev_g = float(np.max(np.abs(mod_sq_g - target_g)))
    if dev_g > MODULUS_TOL:
        violations.append(ConstraintViolation("e", user, ap, dev_g, MODULUS_TOL))
    return violations


@dataclass(frozen=True)
class _CodebookPrep:
    """Channels, beamforming and everything else that does not depend on
    Es/N0, computed once per codebook and shared by every sweep point."""

    ul_coeffs: np.ndarray      # (U, B, n_sc)
    solutions: dict            # (user, ap) -> BeamformingSolution
    dl_gain_per_sc: np.ndarray # (U, B, n_sc) squared effective gains
    n_served: np.ndarray       # (U, B) cell occupancy when (user, ap) is evaluated
    ap_power_used: np.ndarray  # (U, B) AP transmit power with every served link at this design


def _prepare_codebook(config: SweepConfig, codebook: Codebook) -> _CodebookPrep:
    topo = config.topology
    ul = synthesize_ul(
        topo, config.grid, config.w, config.gain_mode, np.random.default_rng([config.seed, 0])
    )
    dl = synthesize_dl(
        topo,
        config.grid,
        codebook.n_tx,
        codebook.n_rx,
        tap_count=config.tap_count,
        tap_spacing_s=config.tap_spacing_s,
        mode=config.gain_mode,
        rng=np.random.default_rng([config.seed, 1]),
    )
    base = config.base_cells
    u, b = topo.n_users, topo.n_aps
    solutions = {}
    gains = np.zeros((u, b, config.grid.n_sc))
    served = np.zeros((u, b), dtype=int)
    power_used = np.zeros((u, b))
    for i in range(u):
        for j in range(b):
            cells = evaluation_cells(base, i, j)
            n_served = sum(1 for c in cells if c == j)
            served[i, j] = n_served
            budget = topo.aps[j].power_w / n_served
            sol = design_link(dl.link_matrices(i, j), codebook, budget)
            solutions[(i, j)] = sol
            gains[i, j] = sol.effective_gain_per_subcarrier() ** 2
            power_used[i, j] = served[i, j] * sol.transmit_power()
    return _CodebookPrep(
        ul_coeffs=ul.coeffs,
        solutions=solutions,
        dl_gain_per_sc=gains,
        n_served=served,
        ap_power_used=power_used,
    )


def _evaluate_prepared(
    config: SweepConfig,
    scenario: GainAggregation,
    codebook: Codebook,
    esn0_db: float,
    prep: _CodebookPrep,
):
    topo = config.topology
    sigma_sq = noise_power(esn0_db, config.noise_reference_w)
    user_powers = np.array([usr.power_w for usr in topo.users])
    ap_powers = np.array([ap.power_w for ap in topo.aps])
    metrics = compute_metrics(
        prep.ul_coeffs,
        prep.dl_gain_per_sc,
        user_powers,
        ap_powers,
        config.base_cells,
        sigma_sq,
        scenario,
        config.grid.total_bandwidth,
        config.grid.subcarrier_bandwidth,
    )

    traffic = config.traffic
    d_proc = processing_delay(traffic.v_bits, traffic.m_capacity, traffic.n_share)
    d_queue = queue_delay(traffic.mu, traffic.lam)

    records = []
    objective = 0.0
    for i, user in enumerate(topo.users):
        for j, ap in enumerate(topo.aps):
            rate_dl = float(metrics.rate_dl[i, j])
            rates_ul = metrics.rate_ul[i, j]
            violations = check_constraints(
                int(prep.n_served[i, j]),
                rate_dl,
                float(prep.ap_power_used[i, j]),
                prep.solutions[(i, j)],
                user.user_id,
                ap.ap_id,
                config.v_j,
                config.r_min,
                ap.power_w,
            )
            letters = tuple(dict.fromkeys(v.constraint for v in violations))
            try:
                d_trans_n = transmission_delay(traffic.s_bits, traffic.a_bits, rate_dl, rates_ul)
            except InfeasibleLinkError:
                # the link never completes a frame: infinite delay, no utility
                d_trans = d_total = math.inf
                utility = None
                feasible = False
            else:
                totals_n = d_trans_n + d_proc + d_queue
                utilities_n = link_utilities(
                    totals_n, metrics.sinr_ul[i, j], user.delay_tolerance_s, config.epsilon0
                )
                d_trans = float(np.mean(d_trans_n))
                d_total = float(np.mean(totals_n))
                feasible = not letters
                utility = float(np.mean(utilities_n)) if feasible else None
                if feasible:
                    objective += float(np.sum(utilities_n))
            records.append(
                SweepRecord(
                    scenario=scenario.value,
                    n_tx=codebook.n_tx,
                    n_rf=codebook.n_rf,
                    esn0_db=float(esn0_db),
                    ap=ap.ap_id,
                    user=user.user_id,
                    rate_dl_bps=rate_dl,
                    rate_ul_bps=float(np.mean(rates_ul)),
                    d_trans_s=d_trans,
                    d_proc_s=d_proc,
                    d_queue_s=d_queue,
                    d_total_s=d_total,
                    utility=utility,
                    feasible=feasible,
                    violations=letters,
                )
            )
    return records, objective


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
    if not bin_width > 0:
        raise InvalidInputError(f"bin width must be positive, got {bin_width}")
    # float bins: an int64 cast wraps for delays above 2^63 bins
    bins = np.floor(arr / bin_width)
    counts = Counter(bins.tolist())
    best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return best[0] * bin_width


def select_best_codebook(result: SweepResult, esn0_db: float, scenario: str = None):
    """Codebook with the largest utility sum among fully feasible ones.

    Ties break toward fewer antennas, then fewer RF chains. Returns None
    when no codebook is feasible at this Es/N0.
    """
    groups = {}
    for rec in result.records:
        if rec.esn0_db != esn0_db:
            continue
        if scenario is not None and rec.scenario != scenario:
            continue
        groups.setdefault((rec.n_tx, rec.n_rf), []).append(rec)
    best_key = None
    best_sum = -math.inf
    for key in sorted(groups):
        recs = groups[key]
        if any(not r.feasible for r in recs):
            continue
        total = sum(r.utility for r in recs)
        if best_key is None or total > best_sum:
            best_key, best_sum = key, total
    if best_key is None:
        return None
    return Codebook(n_tx=best_key[0], n_rf=best_key[1])


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate the full scenario x codebook x Es/N0 product, sorted and summarized."""
    records = []
    objectives = {}
    for codebook in config.codebooks:
        prep = _prepare_codebook(config, codebook)
        for scenario in config.scenarios:
            for esn0 in config.esn0_db:
                recs, obj = _evaluate_prepared(config, scenario, codebook, float(esn0), prep)
                records.extend(recs)
                objectives[(scenario.value, codebook.label, float(esn0))] = obj
    records.sort(key=lambda r: r.sort_key())
    result = SweepResult(records=tuple(records), objectives=objectives, summary={})
    summary = _summarize(config, result)
    return SweepResult(records=result.records, objectives=objectives, summary=summary)


def _summarize(config: SweepConfig, result: SweepResult) -> dict:
    per_codebook = {}
    for scenario in config.scenarios:
        for codebook in config.codebooks:
            recs = [
                r
                for r in result.records
                if r.scenario == scenario.value and (r.n_tx, r.n_rf) == (codebook.n_tx, codebook.n_rf)
            ]
            utilities = [r.utility for r in recs if r.utility is not None]
            d_trans = [r.d_trans_s for r in recs if math.isfinite(r.d_trans_s)]
            per_codebook[(scenario.value, codebook.label)] = {
                "utility_mean": float(np.mean(utilities)) if utilities else math.nan,
                "d_trans_min_s": min_statistic(d_trans) if d_trans else math.nan,
                "d_trans_mode_s": mode_statistic(d_trans, config.mode_bin_s) if d_trans else math.nan,
            }
    best = {}
    for esn0 in config.esn0_db:
        choice = select_best_codebook(result, float(esn0))
        best[float(esn0)] = choice.label if choice is not None else None
    return {"per_codebook": per_codebook, "best_codebook": best}


def _fmt_float(x: float) -> str:
    return f"{x:.9g}"


def record_to_csv_row(rec: SweepRecord) -> str:
    fields = [
        rec.scenario,
        str(rec.n_tx),
        str(rec.n_rf),
        _fmt_float(rec.esn0_db),
        str(rec.ap),
        str(rec.user),
        _fmt_float(rec.rate_dl_bps),
        _fmt_float(rec.rate_ul_bps),
        _fmt_float(rec.d_trans_s),
        _fmt_float(rec.d_proc_s),
        _fmt_float(rec.d_queue_s),
        _fmt_float(rec.d_total_s),
        _fmt_float(rec.utility) if rec.utility is not None else "",
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
