"""Sweep orchestration: channels -> beamforming -> rates -> delays -> utility.

run_sweep composes three stages, each of which returns its arrays:
_designs (the DL channels, beamformers and Es/N0-independent checks of every
codebook), _evaluate (rates, delays, utilities and violation bits of one
block of Es/N0 points, whose per-subcarrier arrays are freed before the next
block starts) and _summarize, into one table of arrays on (scenario,
codebook, Es/N0, AP, user). The config holds scenarios sorted by name and
codebooks by (n_tx, n_rf), so the table's C-order flattening is the CSV row
order; the summary and the CSV are read from it.
"""

import dataclasses
import itertools
import math

import numpy as np

from .beamforming import design_blocks, design_link
from .channel import synthesize_dl, synthesize_ul
from .config import BLOCK_CELLS, DESIGN_CELLS, SweepConfig
from .errors import InvalidInputError, LinkError
from .linkmetrics import compute_metrics
from .numerics import FACTOR_TOL, MODULUS_TOL, block_size, distinct_doubles
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


def _designs(config: SweepConfig, amplitude) -> tuple:
    """The squared effective gains (C, U, B, n_sc) of every codebook and the
    violation bits (C, U, B) of its Es/N0-independent checks. Each group of
    ``design_blocks`` has one DL draw and each block is one design, whose DL
    stacks and solutions go once its gains and checks are taken."""
    n_sc = config.grid.n_sc
    # users on AP j while user i is re-homed to it: j's home users, plus i
    # unless j is already i's home; one per link, user-major like the DL stacks
    home = np.array(config.base_cells)[:, None] == np.arange(config.topology.n_aps)
    n_served = (home.sum(axis=0) - home + 1).reshape(-1)
    budget = config.p_b / n_served
    designs = []
    for block in design_blocks(config.codebooks, n_served.size, n_sc, DESIGN_CELLS):
        dl = (synthesize_dl(config.topology, amplitude, n_sc, g[0].n_tx, g[0].n_rx, config.gain_mode, _draws(config, 1))
              .matrices.reshape(-1, n_sc, g[0].n_rx, g[0].n_tx) for g in block)
        try:  # every link and every codebook of the block in one design
            designs += [(sol.effective_gain_per_subcarrier().reshape(amplitude.shape + (-1,)) ** 2,
                         (check_constraints(n_served, n_served * sol.transmit_power(), sol, config.v_j, config.p_b)
                          @ CHECK_BITS).reshape(amplitude.shape))
                        for sol in design_link(tuple(zip(dl, block)), budget)]
        except LinkError as e:  # links are user-major
            user, ap = divmod(e.link, amplitude.shape[1])
            raise InvalidInputError(f"user {user} / AP {ap}: {e.problem}") from e
    return tuple(map(np.stack, zip(*designs)))


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


def _evaluate(config: SweepConfig, ul, gains, checks, sigma, d_proc: float, d_queue: float) -> tuple:
    """One block of Es/N0 points (noise powers sigma): SINR and rate of every
    scenario, codebook, point and link at once, then delay, utility and the
    violation bits once per codebook on the whole stack of every scenario's
    link windows, a window that does not carry zeroed in place. Each step is
    element-wise or a reduction over a window's subcarriers, so a window's
    values have the bits they would have on their own (see the numerics
    docstring). Returns the mean UL rates (E, U, B) and the (S, C, E, U, B)
    DL rates, transmission and total delays, utilities (NaN where a check
    fails) and violation bits; its per-subcarrier arrays go when it returns."""
    m = compute_metrics(ul, gains, config.p_u, config.p_b, config.base_cells, sigma, config.scenarios,
                        config.grid.total_bandwidth, config.grid.subcarrier_bandwidth)
    # the tracking factor depends on the UL SINR alone: one per block for every scenario
    tracking = np.broadcast_to(tracking_factors(m.sinr_ul, config.epsilon0), m.rate_dl.shape[:1] + m.sinr_ul.shape)
    d_trans, d_total, utility, codes = [], [], [], []
    # one pass per codebook over every scenario's (Es/N0, user, AP) windows, subcarriers last
    for c, fails in enumerate(checks):
        # the transmission delays, then in place the total delays
        delays = transmission_delay(config.traffic.s_bits, config.traffic.a_bits, m.rate_dl[:, c, ..., None], m.rate_ul)
        with np.errstate(over="ignore"):
            d_trans.append(np.mean(delays, axis=-1))
            delays += d_proc
            delays += d_queue
            d_total.append(np.mean(delays, axis=-1))
        # a link with no rate in one direction, or with delays past the
        # float range, never completes a frame: no utility, fails (b)
        carries = np.isfinite(d_total[-1])
        codes.append(fails | 2 * ((m.rate_dl[:, c] < config.r_min) | ~carries))
        # a window that does not carry is zeroed in place; its (b) bit masks its utility
        if not carries.all():
            np.copyto(delays, 0.0, where=~carries[..., None])
        utility.append(np.where(codes[-1] == 0, np.mean(link_utilities(delays, tracking, config.gamma_d), -1), np.nan))
    return (np.mean(m.rate_ul, axis=-1), m.rate_dl, *(np.stack(a, axis=1) for a in (d_trans, d_total, utility, codes)))


def run_sweep(config: SweepConfig) -> SweepResult:
    """The scenario x codebook x Es/N0 product as one table: the UL channels
    drawn once, ``_designs``, then ``_evaluate`` on one block of Es/N0 points
    of at most BLOCK_CELLS (point, user, AP, subcarrier) cells at a time, and
    ``_summarize`` on the blocks joined. A block's per-subcarrier arrays are
    freed when its stage returns, before the next block starts, so memory
    does not grow with the grid length."""
    ul = synthesize_ul(np.array(config.ul_gain), config.grid.n_sc, config.gain_mode, _draws(config, 0))
    gains, checks = _designs(config, np.array(config.dl_amplitude))
    traffic = config.traffic
    d_proc = processing_delay(traffic.v_bits, traffic.m_capacity, traffic.n_share)
    d_queue = queue_delay(traffic.mu, traffic.lam)
    sigma = np.array(config.noise)
    step = block_size(len(sigma), ul.size, BLOCK_CELLS)
    blocks = [_evaluate(config, ul, gains, checks, sigma[k:k + step], d_proc, d_queue)
              for k in range(0, len(sigma), step)]
    # the blocks joined along Es/N0, and AP before user in the table, as in the CSV rows
    rate_ul, rate_dl, d_trans, d_total, utility, codes = (
        np.ascontiguousarray(np.concatenate(a, axis=-3).swapaxes(-1, -2)) for a in zip(*blocks))
    return SweepResult(config.scenarios, config.codebooks, config.esn0_db, rate_dl, d_trans, d_total, utility, codes,
                       rate_ul, d_proc, d_queue, _summarize(config, utility, codes, d_trans))


def _summarize(config: SweepConfig, utility, codes, d_trans) -> dict:
    """Per-codebook statistics and the best codebook per Es/N0, in row order,
    from the table's utilities, violation bits and transmission delays.

    The statistics of every (scenario, codebook) row come from one call
    each: the mean of the feasible utilities, and the minimum and mode of
    the finite transmission delays. A row with an infeasible link averages
    its feasible utilities on their own: a mean over the whole row with the
    infeasible entries zeroed would round differently."""
    keys = [(s.value, cb.label) for s, cb in itertools.product(config.scenarios, config.codebooks)]
    rows, feasible, d_trans = (a.reshape(len(keys), -1) for a in (utility, codes == 0, d_trans))
    means = np.mean(rows, axis=-1)
    for r in np.flatnonzero(~feasible.all(axis=-1)).tolist():
        kept = rows[r, feasible[r]]
        means[r] = np.mean(kept) if kept.size else math.nan
    stats = zip(means.tolist(), min_statistic(d_trans).tolist(), mode_statistic(d_trans, config.mode_bin).tolist())
    names = ("utility_mean", "d_trans_min_s", "d_trans_mode_s")
    per_codebook = {key: dict(zip(names, row)) for key, row in zip(keys, stats)}
    # per Es/N0 point one row per codebook: its links of every scenario, in row order
    per_link = utility.transpose(2, 1, 0, 3, 4).reshape(len(config.esn0_db), len(config.codebooks), -1)
    picks = select_best_codebook(config.codebooks, per_link)
    best = {esn0: None if pick is None else pick.label for esn0, pick in zip(config.esn0_db.tolist(), picks)}
    return {"per_codebook": per_codebook, "best_codebook": best}


def write_results_csv(result: SweepResult, path: str) -> None:
    """The table's rows in order under a pinned header; floats carry 9
    significant digits.

    A ``%`` template of one (scenario, codebook) block's rows is built once
    per sweep: the Es/N0 labels, link labels, UL rates and the processing
    and queue pair, shared by every block, are formatted into it, and each
    row keeps ``%s`` slots for its DL rate, two delays and utility tail.
    The table's codebooks repeat each other's values, so the distinct bit
    patterns of those doubles, and the feasible ``"%.9g,true,"`` tails, are
    each formatted by one ``%`` over the whole table, split at a separator
    and expanded by index, which gives every row the text of its own values
    (see the numerics docstring); an infeasible row's tail is one of the 32
    ``VIOLATIONS``. Each block puts its ``scenario,n_tx,n_rf,`` prefix on
    every row and fills the whole block with one ``%``, one at a time."""
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
    cells[..., :3] = np.array(("%.9g," * len(values) % tuple(values)).split(","), dtype=object)[index]
    values, index = distinct_doubles(result.utility)
    tails = ("%.9g,true,\n" * len(values) % tuple(values)).split("\n")[:-1]
    tails = np.array(tails + [f",false,{letters}" for letters in VIOLATIONS], dtype=object)
    cells[..., 3] = tails[np.where(result.codes == 0, index, len(values) + result.codes)]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for (s, scenario), (c, cb) in itertools.product(enumerate(result.scenarios), enumerate(result.codebooks)):
                prefix = f"{scenario.value},{cb.n_tx},{cb.n_rf},".replace("%", "%%")
                fh.write(prefix.join(rows) % tuple(cells[s, c].ravel().tolist()))
    except OSError as e:
        raise OSError(f"cannot write results to {path}: {e}") from e
