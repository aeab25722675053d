"""Sweep orchestration, constraints, statistics, CSV output, and the CLI."""

import csv
import dataclasses
import importlib.util
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from test_numerics import SPECIAL_DOUBLES
from vrlink import beamforming, runner
from vrlink.beamforming import Codebook, design_link
from vrlink.cli import main
from vrlink.config import config_from_dict, load_config
from vrlink.errors import InvalidInputError
from vrlink.linkmetrics import GainAggregation
from vrlink.runner import (
    CSV_HEADER,
    VIOLATIONS,
    SweepResult,
    check_constraints,
    min_statistic,
    mode_statistic,
    run_sweep,
    select_best_codebook,
    write_results_csv,
)

SMALL = {"n_sc": "8", "esn0_stop": "4", "n_t": "2,4", "n_rf": "1"}


@pytest.fixture(scope="module")
def small_result():
    cfg = config_from_dict(SMALL)
    return cfg, run_sweep(cfg)


def same_result(a: SweepResult, b: SweepResult) -> bool:
    """Every field equal: arrays bit for bit, the rest by repr."""
    for field in dataclasses.fields(SweepResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            if (x.dtype, x.shape, x.tobytes()) != (y.dtype, y.shape, y.tobytes()):
                return False
        elif repr(x) != repr(y):
            return False
    return True


def point(result: SweepResult, scenario: str, n_tx: int, n_rf: int, esn0_db: float) -> tuple:
    """Index of one (scenario, codebook, Es/N0) point of the table."""
    return (
        [s.value for s in result.scenarios].index(scenario),
        [(cb.n_tx, cb.n_rf) for cb in result.codebooks].index((n_tx, n_rf)),
        result.esn0_db.tolist().index(esn0_db),
    )


def make_solution(codebook=Codebook(2, 1), n_sc=4, seed=0, p_b=0.01):
    """The design of a stack of one link."""
    rng = np.random.default_rng(seed)
    ch = rng.standard_normal((1, n_sc, 1, codebook.n_tx)) + 1j * rng.standard_normal(
        (1, n_sc, 1, codebook.n_tx)
    )
    return design_link(((ch, (codebook,)),), np.array([p_b]))[0]


def test_check_constraints_all_satisfied():
    sol = make_solution()
    assert check_constraints(2, 0.01, sol, v_j=2, p_b=0.01).tolist() == [[False] * 4]


def test_check_constraints_occupancy():
    sol = make_solution()
    # one column per family: (a), (c), (d), (e)
    assert check_constraints(3, 0.01, sol, v_j=2, p_b=0.01).tolist() == [[True, False, False, False]]


def test_check_constraints_power_budget():
    sol = make_solution()
    assert check_constraints(1, 0.02, sol, v_j=2, p_b=0.01).tolist() == [[False, True, False, False]]


def test_check_constraints_modulus_families():
    sol = make_solution()
    bad_p = dataclasses.replace(sol, analog_precoder=sol.analog_precoder * 1.5)
    assert check_constraints(1, 0.01, bad_p, v_j=2, p_b=0.01).tolist() == [[False, False, True, False]]
    bad_g = dataclasses.replace(sol, analog_combiner=sol.analog_combiner * 0.5)
    assert check_constraints(1, 0.01, bad_g, v_j=2, p_b=0.01).tolist() == [[False, False, False, True]]


@pytest.mark.parametrize(
    "raw",
    [
        {"gain_mode": "gaussian", "esn0_stop": "80"},
        {"u": "3", "b": "2", "n_sc": "16", "gain_mode": "gaussian", "esn0_stop": "40"},
    ],
)
def test_sweep_in_es_n0_blocks_equals_one_block(raw, monkeypatch):
    # 81 and 41 points fit one block by default; blocks of 7 points end in a
    # partial block of 4 and 6
    cfg = config_from_dict(raw)
    whole = run_sweep(cfg)
    cells = cfg.topology.n_users * cfg.topology.n_aps * cfg.grid.n_sc
    assert len(cfg.esn0_db) * cells <= runner.BLOCK_CELLS
    monkeypatch.setattr(runner, "BLOCK_CELLS", 7 * cells)
    blocked = run_sweep(cfg)
    assert same_result(blocked, whole)


@pytest.mark.parametrize("raw", [
    {"u": "3", "b": "2", "n_sc": "8", "esn0_stop": "4", "gain_mode": "gaussian"},
    {"n_t": "4,8,16", "n_rf": "2,4", "n_r": "2", "n_ds": "2", "n_sc": "8", "esn0_stop": "4",
     "gain_mode": "gaussian", "seed": "3"},
])
def test_blocked_sweep_equals_the_whole_sweep_oracle(raw, tmp_path, monkeypatch):
    # blocks of two Es/N0 points, the last of one, and design blocks of two
    # codebook groups, the first of which mixes two n_t
    cfg = config_from_dict(raw)
    cells = cfg.topology.n_users * cfg.topology.n_aps * cfg.grid.n_sc
    monkeypatch.setattr(runner, "BLOCK_CELLS", 2 * cells)
    monkeypatch.setattr(runner, "DESIGN_CELLS", 2 * cells)
    blocks, design = [], runner.design_link
    monkeypatch.setattr(runner, "design_link", lambda groups, p_b: blocks.append(len(groups)) or design(groups, p_b))
    write_results_csv(run_sweep(cfg), str(tmp_path / "sweep.csv"))
    assert blocks == [2, 1]
    oracles.write_results_csv(oracles.sweep_table(cfg), str(tmp_path / "oracle.csv"))
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_min_rate_is_checked_per_record():
    # (b) holds at r_min and fails below it: r_min at the smallest DL rate
    # of the sweep fails nowhere, twice the largest fails everywhere
    cfg = config_from_dict(dict(SMALL, esn0_stop="1", n_t="2"))
    rates = run_sweep(cfg).rate_dl
    low = run_sweep(dataclasses.replace(cfg, r_min=float(rates.min())))
    assert np.all(low.codes == 0)
    high = run_sweep(dataclasses.replace(cfg, r_min=2.0 * float(rates.max())))
    assert np.all(high.codes == 2) and np.all(np.isnan(high.utility))


def test_codebooks_of_one_antenna_count_share_one_design(monkeypatch):
    # the six default codebooks are three n_t with two n_rf each: one DL
    # draw per n_t, not per codebook, and one design call per block of
    # groups: 4 links x 64 subcarriers put all three in one block, and a
    # block of 512 cells holds two
    synth_n_tx, design_blocks = [], []
    synthesize_dl = runner.synthesize_dl

    def counted_synth(topology, amplitude, n_sc, n_tx, *args):
        synth_n_tx.append(n_tx)
        return synthesize_dl(topology, amplitude, n_sc, n_tx, *args)

    def counted_design(groups, p_b):
        design_blocks.append(tuple(tuple(cb.label for cb in codebooks) for _, codebooks in groups))
        return design_link(groups, p_b)

    monkeypatch.setattr("vrlink.runner.synthesize_dl", counted_synth)
    monkeypatch.setattr("vrlink.runner.design_link", counted_design)
    whole = run_sweep(config_from_dict({}))
    assert synth_n_tx == [2, 4, 8]
    assert design_blocks == [(("2A1R", "2A2R"), ("4A1R", "4A2R"), ("8A1R", "8A2R"))]
    design_blocks.clear()
    monkeypatch.setattr(runner, "DESIGN_CELLS", 2 * 4 * 64)
    assert same_result(run_sweep(config_from_dict({})), whole)
    assert design_blocks == [(("2A1R", "2A2R"), ("4A1R", "4A2R")), (("8A1R", "8A2R"),)]


@pytest.mark.parametrize("name, design_blocks, covariance_blocks", [
    ("paper_sweep", [3], 3),
    ("wideband_point", [2, 1], 6),
    ("dense_gaussian", [3], 4),
])
def test_benchmark_sweeps_design_in_blocks_sized_by_memory(name, design_blocks, covariance_blocks, monkeypatch):
    # groups per design call: 3 x 256 and 3 x 2048 cells fit DESIGN_CELLS,
    # 3 x 4096 do not. Covariance sums, one per block of links (n_r = 1
    # combiners form none): 4 links of n_sc = 64 are one block for each n_t
    # of 2, 4, 8; at n_sc = 1024 n_t = 8 sums one link at a time; 32 links
    # of n_sc = 64 are one block below n_t = 8 and two at n_t = 8.
    # perfbench/workloads.py is loaded by path, as perfbench is no package
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name]
    cfg = load_config(str(root / workload.conf), workload.resolve_overrides(1))
    designs, sums = [], []
    subcarrier_sum = beamforming._subcarrier_sum
    monkeypatch.setattr(runner, "design_link", lambda groups, p_b: designs.append(len(groups)) or design_link(groups, p_b))
    monkeypatch.setattr(beamforming, "_subcarrier_sum", lambda p: sums.append(len(p)) or subcarrier_sum(p))
    run_sweep(cfg)
    assert designs == design_blocks
    assert len(sums) == covariance_blocks


def test_letters_of_one_record_come_in_order(monkeypatch):
    # v_j=1 overfills AP 1 when user 0 is re-homed there (a), no rate meets
    # r_min (b), and a doubled beam amplitude spends four times the budget (c)
    def loud(groups, p_b):
        return tuple(
            dataclasses.replace(sol, subcarrier_power=4.0 * sol.subcarrier_power)
            for sol in design_link(groups, p_b)
        )

    monkeypatch.setattr("vrlink.runner.design_link", loud)
    cfg = config_from_dict(dict(SMALL, esn0_stop="0", n_t="2", v_j="1", r_min="1e30"))
    result = run_sweep(cfg)
    at = point(result, "mean", 2, 1, 0.0)
    # (AP, user) = (1, 0), then (0, 0)
    assert VIOLATIONS[result.codes[at][1, 0]] == "a;b;c"
    assert VIOLATIONS[result.codes[at][0, 0]] == "b;c"


@pytest.mark.parametrize(
    "raw, dead",
    [
        # the DL path gain of a 1e300 Hz carrier underflows to 0
        ({"fc": "1e300", "n_sc": "4", "esn0_stop": "0"}, 48),
        # the UL rates of the far links underflow to 0
        ({"w": "300"}, 504),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_link_without_rate_fails_min_rate(raw, dead):
    result = run_sweep(config_from_dict(raw))
    silent = (result.rate_dl == 0.0) | (result.rate_ul == 0.0)
    assert np.count_nonzero(silent) == dead
    assert np.all(result.d_trans[silent] == math.inf) and np.all(result.d_total[silent] == math.inf)
    assert np.all(np.isnan(result.utility[silent]))
    assert np.all(result.codes[silent] & 2)
    assert all(VIOLATIONS[code] for code in result.codes[result.codes != 0].tolist())


@pytest.mark.parametrize(
    "w, overflowed",
    [
        # UL rates near 1e-306: a_bits / rate_ul passes the float range on
        # one link of each (scenario, codebook)
        ("170", 12),
        # every delay of that link is finite, but their mean is not
        ("169", 12),
        # the delays stay finite, but their mode bin index passes it
        ("167", 0),
    ],
)
def test_tiny_ul_rates_run_without_numeric_warnings(tmp_path, w, overflowed):
    conf = (Path(__file__).resolve().parents[1] / "configs" / "indoor_default.conf").read_text()
    conf = re.sub(r"(?m)^w = \S+", f"w = {w}", conf)
    conf = re.sub(r"(?m)^esn0_stop = \S+", "esn0_stop = 0", conf)
    p = tmp_path / "tiny.conf"
    p.write_text(conf)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 48
    assert all(0.0 < float(r["rate_ul_bps"]) < 1e-100 for r in rows[1::4])
    dead = [r for r in rows if r["d_trans_s"] == "inf"]
    assert len(dead) == overflowed
    for r in dead:
        assert r["d_total_s"] == "inf" and r["utility"] == "" and r["feasible"] == "false"
        assert r["violations"] == "b"
    assert all(r["feasible"] == "true" for r in rows if r not in dead)


def test_min_statistic():
    assert min_statistic([3.0, 1.0, 2.0]) == 1.0
    assert min_statistic([7.5]) == 7.5


def test_mode_statistic():
    assert mode_statistic([1.0, 1.0, 2.0], 1.0) == 1.0
    assert mode_statistic([0.101, 0.102, 0.25], 0.01) == pytest.approx(0.10)
    # all distinct with a huge bin: everything lands in one bin
    assert mode_statistic([1.0, 2.0, 3.0], 100.0) == 0.0
    # tie between bins 1 and 2 resolves to the smaller bin
    assert mode_statistic([1.5, 2.5], 1.0) == 1.0
    with pytest.raises(InvalidInputError):
        mode_statistic([1.0], 0.0)
    with pytest.raises(InvalidInputError):
        mode_statistic([1.0], math.inf)


def test_mode_statistic_beyond_int64_bins():
    # 1e26 bins of 1e-6 s: an int64 bin index would wrap negative
    mode = mode_statistic([1e20, 1e20, 3.0], 1e-6)
    assert mode == pytest.approx(1e20, rel=1e-12)
    assert mode > 0
    assert mode_statistic([1.09e14, 3.0, 1.09e14], 1e-6) == pytest.approx(1.09e14, rel=1e-12)


def test_mode_statistic_bin_index_past_float_range():
    # 1e300 s in bins of 1e-10 s: the bin index overflows; each such delay
    # is its own bin's lower edge, above every finite bin
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert mode_statistic([2e300, 1e300, 3.0, 1e300], 1e-10) == 1e300
        assert mode_statistic([2e300, 1e300], 1e-10) == 1e300
        assert mode_statistic([2e300, 1e300, 3.0, 3.0], 1e-10) == pytest.approx(3.0)
        # a tie goes to the finite, smaller bin
        assert mode_statistic([2e300, 3.0], 1e-10) == pytest.approx(3.0)


def counted_mode(values, bin_width):
    """mode_statistic one pair at a time: count every (bin, far) pair, then
    take the most populated, the smallest pair among equals."""
    with np.errstate(over="ignore"):
        bins = np.floor(np.asarray(values) / bin_width).tolist()
    pairs = [(b, v if math.isinf(b) else 0.0) for b, v in zip(bins, values)]
    (index, edge), _ = min(Counter(pairs).items(), key=lambda kv: (-kv[1], kv[0]))
    return edge if math.isinf(index) else index * bin_width


def test_mode_statistic_equals_the_counted_mode():
    # sorted runs of (bin, far) pairs: ties, far bins, both zeros
    rng = np.random.default_rng(91)
    for _ in range(3000):
        pool = np.concatenate([
            rng.choice([0.0, -0.0, 3.0, 1e14, 1e20, 1e300, 2e300], 4), rng.uniform(0, 5, 4), 10.0 ** rng.uniform(-3, 300, 4),
        ])
        values = rng.choice(pool, int(rng.integers(1, 40)))
        bin_width = float(rng.choice([1e-10, 1e-6, 0.5, 1.0, 7.0]))
        got, want = mode_statistic(values, bin_width), counted_mode(values.tolist(), bin_width)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes(), (values, bin_width)


def test_select_best_codebook_of_a_stack_equals_one_table_at_a_time():
    rng = np.random.default_rng(92)
    books = tuple(Codebook(n_tx, n_rf) for n_tx in (2, 4) for n_rf in (1, 2))
    tables = rng.choice([0.0, 0.25, 0.5, math.nan], (9, len(books), 3))
    tables[0] = math.nan
    tables[1] = 0.5
    picks = select_best_codebook(books, tables)
    assert picks == [select_best_codebook(books, table[None])[0] for table in tables]
    assert picks[0] is None and picks[1] is books[0]


def test_evaluate_sweep_point_utilities_and_delays(small_result):
    cfg, result = small_result
    codebook = cfg.codebooks[0]
    at = point(result, "mean", codebook.n_tx, codebook.n_rf, 2.0)
    assert result.utility[at].shape == (cfg.topology.n_aps, cfg.topology.n_users)
    assert np.all(result.codes[at] == 0)
    assert all(0.0 <= u <= 1.0 for u in result.utility[at].ravel().tolist())
    for d_trans, d_total in zip(result.d_trans[at].ravel().tolist(), result.d_total[at].ravel().tolist()):
        assert d_total == pytest.approx(d_trans + result.d_proc + result.d_queue, rel=1e-12)


def test_run_sweep_record_count(small_result):
    cfg, result = small_result
    expected = (
        len(cfg.scenarios) * len(cfg.codebooks) * len(cfg.esn0_db)
        * cfg.topology.n_users * cfg.topology.n_aps
    )
    assert result.codes.size == expected
    # one row per cell: each axis holds each scenario, codebook, point, AP and user once
    assert result.codes.shape == (
        len(cfg.scenarios), len(cfg.codebooks), len(cfg.esn0_db), cfg.topology.n_aps, cfg.topology.n_users,
    )
    assert set(result.scenarios) == set(cfg.scenarios) and set(result.codebooks) == set(cfg.codebooks)


def test_run_sweep_sorted_and_deterministic(small_result):
    cfg, result = small_result
    names = [s.value for s in result.scenarios]
    books = [(cb.n_tx, cb.n_rf) for cb in result.codebooks]
    assert names == sorted(names) and books == sorted(books)
    assert np.all(np.diff(result.esn0_db) > 0)
    again = run_sweep(cfg)
    assert same_result(result, again)


def test_delay_monotone_in_esn0(small_result):
    cfg, result = small_result
    # the Es/N0 axis is the third
    d = result.d_trans
    assert np.all(d[:, :, :-1] >= d[:, :, 1:] - 1e-15)


def test_min_scenario_never_beats_mean(small_result):
    cfg, result = small_result
    names = [s.value for s in result.scenarios]
    lo, hi = names.index("min"), names.index("mean")
    assert np.all(result.utility[lo] <= result.utility[hi] + 1e-12)
    assert np.all(result.d_trans[lo] >= result.d_trans[hi] - 1e-15)


def test_summary_contents(small_result):
    cfg, result = small_result
    per = result.summary["per_codebook"]
    assert set(per) == {
        (s.value, cb.label) for s in cfg.scenarios for cb in cfg.codebooks
    }
    for row in per.values():
        assert row["d_trans_min_s"] <= row["d_trans_mode_s"] + cfg.mode_bin
    assert set(result.summary["best_codebook"]) == {float(e) for e in cfg.esn0_db}


def test_select_best_codebook_prefers_max_then_smallest():
    def best(*rows):
        """rows of (n_tx, n_rf, one link's utility), NaN where infeasible, at one Es/N0 point"""
        books = tuple(Codebook(n_tx, n_rf) for n_tx, n_rf, _ in rows)
        (pick,) = select_best_codebook(books, np.array([u for *_, u in rows]).reshape(1, -1, 1))
        return pick

    assert best((2, 1, 0.4), (8, 2, 0.9)).label == "8A2R"
    # scaling every utility leaves the argmax unchanged
    assert best((2, 1, 0.04), (8, 2, 0.09)).label == "8A2R"
    # ties break toward fewer antennas, then fewer chains: the codebooks come
    # in (n_tx, n_rf) order, and the first of equal sums wins
    assert best((2, 1, 0.5), (2, 2, 0.5), (4, 1, 0.5)).label == "2A1R"
    # infeasible codebooks are skipped; all-infeasible yields None
    assert best((2, 1, math.nan), (4, 1, 0.1)).label == "4A1R"
    assert best((2, 1, math.nan)) is None


def test_infeasible_points_recorded_not_raised():
    # an unreachable minimum rate flags every record as violating (b)
    cfg = config_from_dict(dict(SMALL, r_min="1e30", esn0_stop="0", n_t="2", scenario="mean"))
    result = run_sweep(cfg)
    assert result.codes.size == 4
    assert np.all(result.codes & 2)
    assert np.all(np.isnan(result.utility))


def test_csv_header_and_rows(small_result, tmp_path):
    cfg, result = small_result
    path = tmp_path / "results.csv"
    write_results_csv(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + result.codes.size
    # rows stay sorted in file order
    assert lines[1].startswith("mean,2,1,0,")


def one_codebook_table(scenario, codebook, esn0_db, rate_ul, d_proc, d_queue, **rows):
    """A table of one scenario and one codebook; rate_ul and each row array
    are given on (Es/N0, AP, user)."""
    return SweepResult(
        (scenario,), (codebook,), np.asarray(esn0_db, dtype=float),
        **{name: np.asarray(v)[None, None] for name, v in rows.items()},
        rate_ul=np.asarray(rate_ul, dtype=float), d_proc=d_proc, d_queue=d_queue, summary={},
    )


def test_csv_empty_result(tmp_path):
    # no Es/N0 point: the link labels come from the shape alone
    path = tmp_path / "empty.csv"
    empty = np.empty((0, 2, 2))
    table = one_codebook_table(
        GainAggregation.MEAN, Codebook(2, 1), [], empty, 0.0, 0.0,
        rate_dl=empty, d_trans=empty, d_total=empty, utility=empty, codes=empty.astype(int),
    )
    write_results_csv(table, str(path))
    assert path.read_text() == CSV_HEADER + "\n"


def test_csv_roundtrip_precision(small_result, tmp_path):
    cfg, result = small_result
    path = tmp_path / "results.csv"
    write_results_csv(result, str(path))
    lines = path.read_text().splitlines()[1:]
    rate_ul = np.broadcast_to(result.rate_ul, result.rate_dl.shape)
    columns = (result.rate_dl, rate_ul, result.d_trans, result.d_total)
    assert len(lines) == result.rate_dl.size
    for line, values in zip(lines, zip(*(a.ravel().tolist() for a in columns))):
        fields = line.split(",")
        for got, want in zip((fields[6], fields[7], fields[8], fields[11]), values):
            # nine significant digits round-trip to within one unit in the last place
            assert float(got) == pytest.approx(want, rel=5e-9)


def test_csv_infeasible_row_shape(tmp_path):
    # one point of two APs and one user; the AP 1 row fails (a) and (b)
    table = one_codebook_table(
        GainAggregation.MIN, Codebook(4, 2), [3.0], [[[2.0], [8.25]]], 1e-8, 5e8,
        rate_dl=[[[1.0], [12.5]]], d_trans=[[[1.0], [math.inf]]], d_total=[[[1.0], [math.inf]]],
        utility=[[[0.5], [math.nan]]], codes=[[[0], [3]]],
    )
    path = tmp_path / "row.csv"
    write_results_csv(table, str(path))
    row = path.read_text().splitlines()[2]
    assert row == "min,4,2,3,1,0,12.5,8.25,inf,1e-08,500000000,inf,,false,a;b"


# NaNs of other payloads than math.nan's, of both signs
NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF8000000000001, 0x7FF0000000000001], dtype=np.uint64).view(float)


def synthetic_table(rng, n_e: int, n_aps: int, n_users: int) -> SweepResult:
    """Two scenarios and two codebooks of random bit patterns, special
    doubles mixed in, and violation codes cycling through 0 .. 31. About a
    third of the values come from one small pool shared by every column,
    so they repeat within and across blocks, as a sweep's codebooks repeat
    each other's rates and delays; the pool holds both zeros, NaNs of
    several signs and payloads, both infinities and subnormals."""
    def doubles(*shape):
        x = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(float)
        picked = rng.uniform(size=shape) < 0.3
        x[picked] = rng.choice(SPECIAL_DOUBLES, size=np.count_nonzero(picked))
        repeated = rng.uniform(size=shape) < 0.3
        x[repeated] = rng.choice(pool, size=np.count_nonzero(repeated))
        return x

    pool = np.concatenate([rng.integers(0, 2**64, size=6, dtype=np.uint64).view(float), SPECIAL_DOUBLES, NAN_PAYLOADS])

    shape = (2, 2, n_e, n_aps, n_users)
    codes = (np.arange(math.prod(shape)) % 32).reshape(shape)
    return SweepResult(
        (GainAggregation.MEAN, GainAggregation.MIN), (Codebook(2, 1), Codebook(4, 2)), doubles(n_e),
        doubles(*shape), doubles(*shape), doubles(*shape), doubles(*shape), codes, doubles(n_e, n_aps, n_users),
        *doubles(2).tolist(), summary={},
    )


@pytest.mark.parametrize("n_e, n_aps, n_users", [(3, 2, 3), (8, 1, 4), (1, 1, 1), (0, 2, 2), (16, 4, 8)])
def test_csv_equals_the_row_by_row_writer(n_e, n_aps, n_users, tmp_path):
    rng = np.random.default_rng([n_e, n_aps, n_users])
    for _ in range(5):
        table = synthetic_table(rng, n_e, n_aps, n_users)
        write_results_csv(table, str(tmp_path / "block.csv"))
        oracles.write_results_csv(table, str(tmp_path / "rows.csv"))
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_row_order_does_not_depend_on_config_order(tmp_path):
    # scenarios and codebooks given out of order: SweepConfig puts them in
    # the order of the same set given sorted, and run_sweep computes in it
    def run(scenario, books):
        cfg = config_from_dict({"scenario": scenario})
        result = run_sweep(dataclasses.replace(cfg, codebooks=tuple(map(Codebook.from_string, books))))
        path = tmp_path / "results.csv"
        write_results_csv(result, str(path))
        return path.read_bytes(), result.summary["best_codebook"]

    given = run("min,mean", ("8x2", "2x1", "4x2"))
    assert given == run("mean,min", ("2x1", "4x2", "8x2"))
    assert set(given[1].values()) - {None}


def test_write_results_csv_unwritable_path(small_result, tmp_path):
    cfg, result = small_result
    with pytest.raises(OSError):
        write_results_csv(result, str(tmp_path / "missing_dir" / "results.csv"))


def test_rerun_byte_identical(tmp_path):
    cfg = config_from_dict(dict(SMALL, esn0_stop="2"))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_results_csv(run_sweep(cfg), str(a))
    write_results_csv(run_sweep(cfg), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gaussian_mode_sweep_runs_and_is_seeded(tmp_path):
    cfg = config_from_dict(dict(SMALL, gain_mode="gaussian", esn0_stop="1"))
    r1 = run_sweep(cfg)
    r2 = run_sweep(cfg)
    assert same_result(r1, r2)
    other = config_from_dict(dict(SMALL, gain_mode="gaussian", esn0_stop="1", seed="7"))
    r3 = run_sweep(other)
    assert not same_result(r3, r1)


def write_config(tmp_path, name="run.conf", extra=""):
    p = tmp_path / name
    p.write_text(
        "n_sc = 8\nesn0_stop = 2\nn_t = 2\nn_rf = 1\n" + extra
    )
    return p


def test_cli_check_config_ok(tmp_path, capsys):
    p = write_config(tmp_path)
    assert main(["check-config", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "expected_records=24" in out
    assert "estimated_bytes=" in out


def test_cli_check_config_bad_key(tmp_path, capsys):
    p = tmp_path / "bad.conf"
    p.write_text("banana = 1\n")
    assert main(["check-config", "--config", str(p)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_cli_check_config_missing_file(tmp_path, capsys):
    assert main(["check-config", "--config", str(tmp_path / "nope.conf")]) == 3
    assert "cannot read config" in capsys.readouterr().err


def test_cli_simulate_writes_csv(tmp_path, capsys):
    p = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out_dir)]) == 0
    produced = out_dir / "results.csv"
    assert produced.exists()
    lines = produced.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 1 * 3 * 4  # scenarios x codebooks x esn0 x links
    stdout = capsys.readouterr().out
    assert "wrote" in stdout


def test_cli_simulate_overrides(tmp_path):
    p = write_config(tmp_path)
    out_dir = tmp_path / "out2"
    rc = main(
        [
            "simulate", "--config", str(p), "--out", str(out_dir),
            "--scenario", "mean", "--esn0", "0:5:10", "--codebook", "2x1,2x2",
            "--seed", "9", "--queue-units", "reciprocal",
        ]
    )
    assert rc == 0
    lines = (out_dir / "results.csv").read_text().splitlines()
    # 1 scenario x 2 codebooks x 3 esn0 points x 4 links
    assert len(lines) == 1 + 24
    assert all(line.split(",")[0] == "mean" for line in lines[1:])
    # reciprocal queue preset: 1/(4e9 - 2e9)
    assert float(lines[1].split(",")[10]) == pytest.approx(5e-10, rel=1e-9)


@pytest.mark.parametrize("extra", ["", "mu = 4e-9\nlambda = 2e-9\n"])
def test_cli_queue_units_flag_beats_the_config_file(tmp_path, extra):
    # README's command on the shipped config, and a config that sets mu and
    # lambda itself: the flag sets both, like every other override
    conf = (Path(__file__).resolve().parents[1] / "configs" / "indoor_default.conf").read_text()
    p = tmp_path / "queue.conf"
    p.write_text(conf + extra)
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path), "--queue-units", "reciprocal"]) == 0
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1008
    assert {r["d_queue_s"] for r in rows} == {"5e-10"}


def test_cli_codebook_named_twice_is_evaluated_once(tmp_path):
    p = write_config(tmp_path)
    out_dir = tmp_path / "twice"
    assert main(["simulate", "--config", str(p), "--out", str(out_dir), "--codebook", "4x1,2x1,4A1R"]) == 0
    lines = (out_dir / "results.csv").read_text().splitlines()[1:]
    # 2 scenarios x 2 codebooks x 3 esn0 points x 4 links, each row once
    assert len(lines) == len(set(lines)) == 48
    assert {tuple(line.split(",")[1:3]) for line in lines} == {("2", "1"), ("4", "1")}


def test_cli_summary_follows_the_table_order(tmp_path, capsys):
    # the codebooks in (n_tx, n_rf) order, like results.csv, not by label string
    p = write_config(tmp_path)
    args = ["--codebook", "16x1,2x1", "--esn0", "0:1:0"]
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "order"), *args]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [tuple(row.split(",")[:2]) for row in rows] == [
        ("mean", "2A1R"), ("mean", "16A1R"), ("min", "2A1R"), ("min", "16A1R"),
    ]


def test_cli_simulate_rejects_bad_esn0(tmp_path, capsys):
    p = write_config(tmp_path)
    assert main(["simulate", "--config", str(p), "--esn0", "0..10"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_simulate_unwritable_out(tmp_path, capsys):
    p = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    assert main(["simulate", "--config", str(p), "--out", str(blocker)]) == 3


def test_cli_stats_roundtrip(tmp_path, capsys):
    p = write_config(tmp_path)
    out_dir = tmp_path / "out3"
    main(["simulate", "--config", str(p), "--out", str(out_dir)])
    capsys.readouterr()
    csv_path = str(out_dir / "results.csv")
    assert main(["stats", "--in", csv_path, "--metric", "min"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario,n_tx,n_rf,d_trans_min_s")
    assert "mean,2,1," in out
    assert main(["stats", "--in", csv_path, "--metric", "mode", "--bin", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "d_trans_mode_s" in out


@pytest.mark.parametrize("width", ["inf", "nan", "0", "-1"])
def test_cli_stats_rejects_a_bin_width_that_is_not_finite_and_positive(tmp_path, capsys, width):
    # 0 * inf would be every group's edge: nan printed with exit 0
    p = write_config(tmp_path)
    out_dir = tmp_path / "out4"
    main(["simulate", "--config", str(p), "--out", str(out_dir)])
    capsys.readouterr()
    args = ["stats", "--in", str(out_dir / "results.csv"), "--metric", "mode", "--bin", width]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["check-config", "simulate", "stats"])
def test_cli_rejects_input_that_is_not_utf8(tmp_path, capsys, command):
    # a UTF-16 byte-order mark: the config or CSV cannot be decoded
    p = tmp_path / "utf16.txt"
    p.write_bytes(b"\xff\xfe" + "n_sc = 8\n".encode("utf-16-le"))
    argv = {
        "check-config": ["check-config", "--config", str(p)],
        "simulate": ["simulate", "--config", str(p), "--out", str(tmp_path / "out")],
        "stats": ["stats", "--in", str(p), "--metric", "min"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "not UTF-8" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_stats_missing_file(tmp_path, capsys):
    assert main(["stats", "--in", str(tmp_path / "nope.csv"), "--metric", "min"]) == 3


def test_cli_stats_malformed_csv(tmp_path, capsys):
    p = tmp_path / "junk.csv"
    p.write_text("a,b,c\n1,2,3\n")
    assert main(["stats", "--in", str(p), "--metric", "min"]) == 2


def test_cli_stats_field_past_the_csv_field_limit(tmp_path, capsys):
    # csv.Error: the reader stops at a quoted field past csv.field_size_limit()
    p = tmp_path / "long_field.csv"
    p.write_text('scenario,n_tx,n_rf,d_trans_s\nmean,2,1,"' + "1" * 200_000 + '"\n')
    assert main(["stats", "--in", str(p), "--metric", "min"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(p) in captured.err
    assert captured.out == ""


# runs `vrlink simulate` with the arguments after -c's code, then reports
# its exit code and whether numpy.random was ever imported
SIMULATE_PROBE = (
    "import sys; from vrlink.cli import main; code = main(sys.argv[1:]); "
    "sys.stderr.write(f'{code} {\"numpy.random\" in sys.modules}')"
)


@pytest.mark.parametrize("gain_mode, loaded", [("deterministic", False), ("gaussian", True)])
def test_numpy_random_is_loaded_only_for_gaussian_gains(tmp_path, gain_mode, loaded):
    # the shipped config fixes every position and draws no gain, so its
    # sweep never imports numpy.random (and with it secrets, hmac, _hashlib)
    root = Path(__file__).resolve().parents[1]
    conf = (root / "configs" / "indoor_default.conf").read_text()
    p = tmp_path / "run.conf"
    p.write_text(re.sub(r"(?m)^gain_mode = \S+", f"gain_mode = {gain_mode}", conf))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", SIMULATE_PROBE, "simulate", "--config", str(p), "--out", str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
    assert done.stderr == f"0 {loaded}"
