"""Sweep orchestration: channels -> beamforming -> rates -> delays -> utility.

Evaluates every scenario x codebook x Es/N0 combination and checks the
feasibility constraints into one table of arrays on (scenario, codebook,
Es/N0, AP, user). The config holds scenarios sorted by name and codebooks by
(n_tx, n_rf), so the sweep computes in row order and the table's C-order
flattening is the CSV row order; the summary and the CSV are read from it.
"""

import dataclasses
import itertools
import math

import numpy as np

from .beamforming import design_link
from .channel import synthesize_dl, synthesize_ul
from .config import BLOCK_CELLS, DESIGN_CELLS, SweepConfig
from .errors import InvalidInputError, LinkError
from .linkmetrics import compute_metrics
from .numerics import FACTOR_TOL, MODULUS_TOL, distinct_doubles
from .qos import link_utilities, processing_delay, queue_delay, tracking_factors, transmission_delay

CSV_HEADER = (
    "scenario,n_tx,n_rf,esn0_db,ap,user,rate_dl_bps,rate_ul_bps,"
    "d_trans_s,d_proc_s,d_queue_s,d_total_s,utility,feasible,violations"
)

# a row's violation letters, indexed by its failed checks as bits a = 1 .. e = 16
VIOLATIONS = tuple(";".join(x for bit, x in enumerate("abcde") if code >> bit & 1) for code in range(32))
# the bits of check_constraints' (a), (c), (d), (e) columns
CHECK_BITS = np.array([1, 4, 8, 16])


@dataclasses.dataclass(frozen=True, eq=False)
class SweepResult:
    """One sweep as a table. The row arrays are on (scenario, codebook, Es/N0,
    AP, user), in the order of ``scenarios``, ``codebooks`` and ``esn0_db``;
    their C-order flattening is the CSV row order."""

    scenarios: tuple       # GainAggregation, sorted by name
    codebooks: tuple       # Codebook, sorted by (n_tx, n_rf)
    esn0_db: np.ndarray    # (E,)
    rate_dl: np.ndarray    # (S, C, E, B, U) bits/s
    d_trans: np.ndarray    # (S, C, E, B, U) s
    d_total: np.ndarray    # (S, C, E, B, U) s
    utility: np.ndarray    # (S, C, E, B, U), NaN where infeasible
    codes: np.ndarray      # (S, C, E, B, U) violation bits, 0 where feasible
    rate_ul: np.ndarray    # (E, B, U) bits/s
    d_proc: float
    d_queue: float
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


def _draws(config: SweepConfig, stream: int):
    """The generator of one stream of Gaussian gains; None for deterministic
    gains, which draw nothing, so such a sweep never loads numpy.random."""
    return np.random.default_rng([config.seed, stream]) if config.gain_mode == "gaussian" else None


def _design_block(config: SweepConfig, groups: list, amplitude, n_served, budget) -> list:
    """Every link's design for a block of codebook groups, each the codebooks
    that share (n_tx, n_rx, n_ds) with one DL draw, reduced per codebook to
    what the sweep reads: the squared effective gains (U, B, n_sc) and the
    violation bits of the Es/N0-independent checks (U, B). n_served and
    budget hold one value per link, user-major like the DL stacks."""
    dl = [synthesize_dl(config.topology, amplitude, config.grid.n_sc, g[0].n_tx, g[0].n_rx, config.gain_mode,
                        _draws(config, 1)).matrices for g in groups]
    try:  # every link and every codebook of the block in one design
        solutions = design_link(tuple((d.reshape((-1,) + d.shape[2:]), g) for d, g in zip(dl, groups)), budget)
    except LinkError as e:  # links are user-major
        user, ap = divmod(e.link, amplitude.shape[1])
        raise InvalidInputError(f"user {user} / AP {ap}: {e.problem}") from e
    designs = []
    for sol in solutions:
        fails = check_constraints(n_served, n_served * sol.transmit_power(), sol, config.v_j, config.p_b)
        gains = sol.effective_gain_per_subcarrier() ** 2
        designs.append((gains.reshape(amplitude.shape + (-1,)), (fails @ CHECK_BITS).reshape(amplitude.shape)))
    return designs


def min_statistic(values):
    """Smallest finite value of each row on the last axis of values (a float
    for one vector), NaN for a row with none. A zero comes out as +0.0:
    which of -0.0 and +0.0 np.min returns depends on where they sit."""
    arr = np.asarray(values, dtype=float)
    low = np.min(np.where(np.isfinite(arr), arr, np.inf) + 0.0, axis=-1, initial=np.inf)
    low = np.where(low < np.inf, low, np.nan)
    return float(low) if arr.ndim == 1 else low


def mode_statistic(values, bin_width: float):
    """Lower edge of the most populated bin of the finite values of each row
    on the last axis of values (a float for one vector), NaN for a row with
    none; ties go to the smaller bin."""
    arr = np.asarray(values, dtype=float)
    if not 0 < bin_width < math.inf:
        raise InvalidInputError(f"bin width must be finite and positive, got {bin_width}")
    rows = arr.reshape(math.prod(arr.shape[:-1]), arr.shape[-1])
    keep = np.isfinite(rows)
    # every row's finite values in one vector, each keyed by its row
    row, kept = keep.nonzero()[0], rows[keep]
    # float bins: an int64 cast wraps for delays above 2^63 bins
    with np.errstate(over="ignore"):
        bins = np.floor(kept / bin_width)
    # a bin index past the float range overflows to inf; such a bin is far
    # narrower than the float spacing there, so each delay is its own
    # bin's lower edge, and it lies above every finite bin
    far = np.where(np.isinf(bins), kept, 0.0)
    # runs of equal (row, bin, far) triples in ascending order
    order = np.lexsort((far, bins, row))
    row, bins, far = row[order], bins[order], far[order]
    bounds = np.ones(row.size + 1, dtype=bool)  # where a run starts, and the end
    bounds[1:-1] = (row[1:] != row[:-1]) | (bins[1:] != bins[:-1]) | (far[1:] != far[:-1])
    starts = bounds.nonzero()[0]
    runs = starts[:-1]
    # per row, the first longest run is the smallest of the most populated
    # pairs: a stable sort by row, then by length, longest first, keeps
    # equal runs in ascending order, and each row's first run wins
    best = runs[np.lexsort((runs - starts[1:], row[runs]))]
    first = best[np.diff(row[best], prepend=-1) != 0]
    index, edge = bins[first], far[first]
    modes = np.full(rows.shape[0], np.nan)
    with np.errstate(over="ignore"):
        modes[row[first]] = np.where(np.isinf(index), edge, index * bin_width)
    return float(modes[0]) if arr.ndim == 1 else modes.reshape(arr.shape[:-1])


def select_best_codebook(codebooks, utility) -> list:
    """Per Es/N0 point, the codebook with the largest utility sum among those
    whose links are all feasible. utility is one (E, C, links) stack: per
    point, one row of links per codebook, NaN where a link is infeasible.
    codebooks are in (n_tx, n_rf) order, so a tie goes to fewer antennas,
    then fewer RF chains. Returns a list of E picks, None at a point where
    no codebook is feasible.
    """
    # adds left to right; a NaN marks a codebook with an infeasible link
    sums = np.cumsum(utility, axis=-1)[..., -1]
    feasible = ~np.isnan(sums)
    best = np.argmax(np.where(feasible, sums, -np.inf), axis=-1)
    return [codebooks[i] if ok else None for i, ok in zip(best.tolist(), feasible.any(axis=-1).tolist())]


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate the full scenario x codebook x Es/N0 product into one table.

    The UL channels are drawn once, the DL channels and the analog stages
    once per (n_tx, n_rx, n_ds) group of codebooks, the digital stage once
    per shape for each block of DESIGN_CELLS; SINR and rate are then
    evaluated on whole arrays, one block of Es/N0 points at a time, and
    delay and utility once per codebook in each block, on the link windows
    of every scenario at once. Each step of that pass is element-wise or a
    reduction over a window's subcarriers, so a window's values have the
    bits they would have on their own (see the numerics docstring).
    """
    traffic = config.traffic
    ul_gain, amplitude = np.array(config.ul_gain), np.array(config.dl_amplitude)
    ul = synthesize_ul(ul_gain, config.grid.n_sc, config.gain_mode, _draws(config, 0))
    # users on AP j while user i is re-homed to it: j's home users, plus i
    # unless j is already i's home; one per link, user-major
    home = np.array(config.base_cells)[:, None] == np.arange(config.topology.n_aps)
    n_served = (home.sum(axis=0) - home + 1).reshape(-1)
    budget = config.p_b / n_served
    groups = [tuple(g) for _, g in itertools.groupby(config.codebooks, key=lambda cb: (cb.n_tx, cb.n_rx, cb.n_ds))]
    per_block = max(1, DESIGN_CELLS // (n_served.size * config.grid.n_sc))
    designs = [d for k in range(0, len(groups), per_block)
               for d in _design_block(config, groups[k:k + per_block], amplitude, n_served, budget)]
    gains, checks = map(np.stack, zip(*designs))
    d_proc = processing_delay(traffic.v_bits, traffic.m_capacity, traffic.n_share)
    d_queue = queue_delay(traffic.mu, traffic.lam)
    sigma_all = np.array(config.noise)
    step = max(1, BLOCK_CELLS // ul.size)

    # (scenario, codebook, Es/N0, user, AP) until the end
    shape = (len(config.scenarios), len(config.codebooks), len(sigma_all)) + amplitude.shape
    rate_dl, d_trans, d_total = np.empty(shape), np.empty(shape), np.empty(shape)
    utility, codes = np.full(shape, np.nan), np.empty(shape, dtype=int)
    rate_ul = np.empty(shape[2:])
    for start in range(0, len(sigma_all), step):
        block = slice(start, start + step)
        m = compute_metrics(
            ul, gains, config.p_u, config.p_b, config.base_cells, sigma_all[block],
            config.scenarios, config.grid.total_bandwidth, config.grid.subcarrier_bandwidth,
        )
        rate_ul[block] = np.mean(m.rate_ul, axis=-1)
        rate_dl[:, :, block] = m.rate_dl
        # the tracking factor depends on the UL SINR alone: once per block,
        # the same for every scenario
        tracking = np.broadcast_to(tracking_factors(m.sinr_ul, config.epsilon0), shape[:1] + m.sinr_ul.shape)
        # one pass per codebook over the windows of every scenario, on
        # (scenario, Es/N0, user, AP) with the subcarriers last
        for c, fails in enumerate(checks):
            # the transmission delays, then in place the total delays
            delays = transmission_delay(traffic.s_bits, traffic.a_bits, m.rate_dl[:, c, ..., None], m.rate_ul)
            with np.errstate(over="ignore"):
                d_trans[:, c, block] = np.mean(delays, axis=-1)
                delays += d_proc
                delays += d_queue
                d_total[:, c, block] = np.mean(delays, axis=-1)
            # a link with no rate in one direction, or with delays past the
            # float range, never completes a frame: no utility, fails (b)
            carries = np.isfinite(d_total[:, c, block])
            codes[:, c, block] = fails | 2 * ((m.rate_dl[:, c] < config.r_min) | ~carries)
            # the windows that carry go on alone, and the full stack is freed;
            # the utilities go before the next pass allocates its delays
            delays = delays[carries]
            utilities_n = link_utilities(delays, tracking[carries], config.gamma_d)
            utility[:, c, block][carries] = np.mean(utilities_n, axis=-1)
            del utilities_n
    utility[codes != 0] = np.nan
    # AP before user in the table, as in the CSV rows
    table = SweepResult(
        config.scenarios, config.codebooks, config.esn0_db,
        *(np.ascontiguousarray(a.swapaxes(-1, -2)) for a in (rate_dl, d_trans, d_total, utility, codes)),
        np.ascontiguousarray(rate_ul.swapaxes(-1, -2)), d_proc, d_queue, summary=None,
    )
    return dataclasses.replace(table, summary=_summarize(config, table))


def _summarize(config: SweepConfig, table: SweepResult) -> dict:
    """Per-codebook statistics and the best codebook per Es/N0, in row order.

    The statistics of every (scenario, codebook) row come from one call
    each: the mean of the feasible utilities, and the minimum and mode of
    the finite transmission delays. A row with an infeasible link averages
    its feasible utilities on their own: a mean over the whole row with the
    infeasible entries zeroed would round differently."""
    keys = [(s.value, cb.label) for s, cb in itertools.product(table.scenarios, table.codebooks)]
    utility, feasible, d_trans = (a.reshape(len(keys), -1) for a in (table.utility, table.codes == 0, table.d_trans))
    means = np.mean(utility, axis=-1)
    for r in np.flatnonzero(~feasible.all(axis=-1)).tolist():
        kept = utility[r, feasible[r]]
        means[r] = np.mean(kept) if kept.size else math.nan
    stats = zip(means.tolist(), min_statistic(d_trans).tolist(), mode_statistic(d_trans, config.mode_bin).tolist())
    names = ("utility_mean", "d_trans_min_s", "d_trans_mode_s")
    per_codebook = {key: dict(zip(names, row)) for key, row in zip(keys, stats)}
    # per Es/N0 point one row per codebook: its links of every scenario, in row order
    per_link = table.utility.transpose(2, 1, 0, 3, 4).reshape(len(table.esn0_db), len(table.codebooks), -1)
    picks = select_best_codebook(table.codebooks, per_link)
    best = {esn0: None if pick is None else pick.label for esn0, pick in zip(table.esn0_db.tolist(), picks)}
    return {"per_codebook": per_codebook, "best_codebook": best}


def write_results_csv(result: SweepResult, path: str) -> None:
    """The table's rows in order under a pinned header; floats carry 9
    significant digits.

    A ``%`` template of one (scenario, codebook) block's rows is built once
    per sweep: the Es/N0 labels, link labels, UL rates and the processing
    and queue pair, shared by every block, are formatted into it, and each
    row keeps ``%s`` slots for its DL rate, two delays and utility tail.
    The table's codebooks repeat each other's values, so those doubles are
    formatted with ``%.9g`` once per distinct bit pattern of the whole table
    and expanded by index, which gives every row the f-string ``.9g`` text
    of its own values (see the numerics docstring); an infeasible row's
    tail is one of the 32 ``VIOLATIONS``. Each block puts its
    ``scenario,n_tx,n_rf,`` prefix on every row and fills the whole block
    with one ``%``. The file is written one block at a time."""
    n_e = len(result.esn0_db)
    n_links = math.prod(result.rate_ul.shape[1:])
    links = [f"{j},{i}" for j, i in np.ndindex(result.rate_ul.shape[1:])]
    rate_ul = [[f"{x:.9g}" for x in point] for point in result.rate_ul.reshape(n_e, n_links).tolist()]
    esn0 = [f"{e:.9g}" for e in result.esn0_db.tolist()]
    queue = f"{result.d_proc:.9g},{result.d_queue:.9g}"
    # numbers formatted with .9g hold no "%"; the scenario name is escaped.
    # The leading empty row puts the prefix before the first row.
    rows = [""] + [
        f"{e},{link},%s,{ul},%s,{queue},%s,%s\n"
        for e, ul_point in zip(esn0, rate_ul)
        for link, ul in zip(links, ul_point)
    ]
    # per row: the DL rate, the transmission and total delays, the tail
    cells = np.empty(result.codes.shape + (4,), dtype=object)
    values, index = distinct_doubles(np.stack((result.rate_dl, result.d_trans, result.d_total), axis=-1))
    cells[..., :3] = np.array([f"{x:.9g}" for x in values], dtype=object)[index]
    values, index = distinct_doubles(result.utility)
    tails = np.array([f"{u:.9g},true," for u in values] + [f",false,{letters}" for letters in VIOLATIONS], dtype=object)
    cells[..., 3] = tails[np.where(result.codes == 0, index, len(values) + result.codes)]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for (s, scenario), (c, cb) in itertools.product(enumerate(result.scenarios), enumerate(result.codebooks)):
                prefix = f"{scenario.value},{cb.n_tx},{cb.n_rf},".replace("%", "%%")
                fh.write(prefix.join(rows) % tuple(cells[s, c].ravel().tolist()))
    except OSError as e:
        raise OSError(f"cannot write results to {path}: {e}") from e
