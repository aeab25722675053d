"""Sweep orchestration, constraints, statistics, CSV output, and the CLI."""

import csv
import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from vrlink import runner
from vrlink.beamforming import Codebook, design_link
from vrlink.cli import main
from vrlink.config import config_from_dict
from vrlink.errors import InvalidInputError
from vrlink.runner import (
    CSV_HEADER,
    SweepRecord,
    SweepResult,
    check_constraints,
    min_statistic,
    mode_statistic,
    record_to_csv_row,
    run_sweep,
    select_best_codebook,
    write_results_csv,
)

SMALL = {"n_sc": "8", "esn0_stop": "4", "n_t": "2,4", "n_rf": "1"}


@pytest.fixture(scope="module")
def small_result():
    cfg = config_from_dict(SMALL)
    return cfg, run_sweep(cfg)


def make_solution(codebook=Codebook(2, 1), n_sc=4, seed=0, p_b=0.01):
    rng = np.random.default_rng(seed)
    ch = rng.standard_normal((n_sc, 1, codebook.n_tx)) + 1j * rng.standard_normal(
        (n_sc, 1, codebook.n_tx)
    )
    return design_link(ch, codebook, p_b)


def test_check_constraints_all_satisfied():
    sol = make_solution()
    assert check_constraints(2, 0.01, sol, v_j=2, p_b=0.01).tolist() == [False] * 4


def test_check_constraints_occupancy():
    sol = make_solution()
    # one column per family: (a), (c), (d), (e)
    assert check_constraints(3, 0.01, sol, v_j=2, p_b=0.01).tolist() == [True, False, False, False]


def test_check_constraints_power_budget():
    sol = make_solution()
    assert check_constraints(1, 0.02, sol, v_j=2, p_b=0.01).tolist() == [False, True, False, False]


def test_check_constraints_modulus_families():
    sol = make_solution()
    bad_p = dataclasses.replace(sol, analog_precoder=sol.analog_precoder * 1.5)
    assert check_constraints(1, 0.01, bad_p, v_j=2, p_b=0.01).tolist() == [False, False, True, False]
    bad_g = dataclasses.replace(sol, analog_combiner=sol.analog_combiner * 0.5)
    assert check_constraints(1, 0.01, bad_g, v_j=2, p_b=0.01).tolist() == [False, False, False, True]


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
    for field in ("records", "objectives", "summary"):
        assert repr(getattr(blocked, field)) == repr(getattr(whole, field))


def test_min_rate_is_checked_per_record():
    # (b) holds at r_min and fails below it: r_min at the smallest DL rate
    # of the sweep fails nowhere, twice the largest fails everywhere
    cfg = config_from_dict(dict(SMALL, esn0_stop="1", n_t="2"))
    rates = [r.rate_dl_bps for r in run_sweep(cfg).records]
    low = run_sweep(dataclasses.replace(cfg, r_min=min(rates)))
    assert all(r.feasible for r in low.records)
    high = run_sweep(dataclasses.replace(cfg, r_min=2.0 * max(rates)))
    assert all(r.violations == ("b",) and r.utility is None for r in high.records)


def test_letters_of_one_record_come_in_order(monkeypatch):
    # v_j=1 overfills AP 1 when user 0 is re-homed there (a), no rate meets
    # r_min (b), and a doubled beam amplitude spends four times the budget (c)
    def loud(channels, codebook, p_b):
        sol = design_link(channels, codebook, p_b)
        return dataclasses.replace(sol, power_scale=2.0 * sol.power_scale)

    monkeypatch.setattr("vrlink.runner.design_link", loud)
    cfg = config_from_dict(dict(SMALL, esn0_stop="0", n_t="2", v_j="1", r_min="1e30"))
    records = {(r.scenario, r.user, r.ap): r for r in run_sweep(cfg).records}
    assert records[("mean", 0, 1)].violations == ("a", "b", "c")
    assert records[("mean", 0, 0)].violations == ("b", "c")


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
    records = run_sweep(config_from_dict(raw)).records
    silent = [r for r in records if r.rate_dl_bps == 0.0 or r.rate_ul_bps == 0.0]
    assert len(silent) == dead
    for rec in silent:
        assert rec.d_trans_s == math.inf and rec.d_total_s == math.inf
        assert not rec.feasible and rec.utility is None
        assert "b" in rec.violations
    assert all(r.violations for r in records if not r.feasible)


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
    with pytest.raises(InvalidInputError):
        min_statistic([])


def test_mode_statistic():
    assert mode_statistic([1.0, 1.0, 2.0], 1.0) == 1.0
    assert mode_statistic([0.101, 0.102, 0.25], 0.01) == pytest.approx(0.10)
    # all distinct with a huge bin: everything lands in one bin
    assert mode_statistic([1.0, 2.0, 3.0], 100.0) == 0.0
    # tie between bins 1 and 2 resolves to the smaller bin
    assert mode_statistic([1.5, 2.5], 1.0) == 1.0
    with pytest.raises(InvalidInputError):
        mode_statistic([], 1.0)
    with pytest.raises(InvalidInputError):
        mode_statistic([1.0], 0.0)


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


def test_evaluate_sweep_point_record_count_and_objective(small_result):
    cfg, result = small_result
    codebook = cfg.codebooks[0]
    records = [
        r
        for r in result.records
        if (r.scenario, r.n_tx, r.n_rf, r.esn0_db) == ("mean", codebook.n_tx, codebook.n_rf, 2.0)
    ]
    objective = result.objectives[("mean", codebook.label, 2.0)]
    assert len(records) == cfg.topology.n_users * cfg.topology.n_aps
    # the objective is the per-subcarrier utility sum, the record utility its mean
    assert objective == pytest.approx(
        sum(r.utility * cfg.grid.n_sc for r in records if r.utility is not None), rel=1e-12
    )
    for r in records:
        assert r.feasible
        assert r.violations == ()
        assert 0.0 <= r.utility <= 1.0
        assert r.d_total_s == pytest.approx(r.d_trans_s + r.d_proc_s + r.d_queue_s, rel=1e-12)


def test_run_sweep_record_count(small_result):
    cfg, result = small_result
    expected = (
        len(cfg.scenarios) * len(cfg.codebooks) * len(cfg.esn0_db)
        * cfg.topology.n_users * cfg.topology.n_aps
    )
    assert len(result.records) == expected
    # one record per cell, no duplicates
    keys = {r.sort_key() for r in result.records}
    assert len(keys) == expected


def test_run_sweep_sorted_and_deterministic(small_result):
    cfg, result = small_result
    keys = [r.sort_key() for r in result.records]
    assert keys == sorted(keys)
    again = run_sweep(cfg)
    assert result.records == again.records
    assert result.objectives == again.objectives


def test_delay_monotone_in_esn0(small_result):
    cfg, result = small_result
    groups = {}
    for r in result.records:
        groups.setdefault((r.scenario, r.n_tx, r.n_rf, r.ap, r.user), []).append(
            (r.esn0_db, r.d_trans_s)
        )
    for series in groups.values():
        series.sort()
        delays = [d for _, d in series]
        assert all(a >= b - 1e-15 for a, b in zip(delays, delays[1:]))


def test_min_scenario_never_beats_mean(small_result):
    cfg, result = small_result
    by_key = {}
    for r in result.records:
        by_key[(r.scenario, r.n_tx, r.n_rf, r.esn0_db, r.ap, r.user)] = r
    for key, rec in by_key.items():
        if key[0] != "min":
            continue
        mean_rec = by_key[("mean",) + key[1:]]
        assert rec.utility <= mean_rec.utility + 1e-12
        assert rec.d_trans_s >= mean_rec.d_trans_s - 1e-15


def test_objectives_min_below_mean(small_result):
    cfg, result = small_result
    for cb in cfg.codebooks:
        for esn0 in cfg.esn0_db:
            lo = result.objectives[("min", cb.label, float(esn0))]
            hi = result.objectives[("mean", cb.label, float(esn0))]
            assert lo <= hi + 1e-12


def test_summary_contents(small_result):
    cfg, result = small_result
    per = result.summary["per_codebook"]
    assert set(per) == {
        (s.value, cb.label) for s in cfg.scenarios for cb in cfg.codebooks
    }
    for row in per.values():
        assert row["d_trans_min_s"] <= row["d_trans_mode_s"] + cfg.mode_bin_s
    assert set(result.summary["best_codebook"]) == {float(e) for e in cfg.esn0_db}


def test_select_best_codebook_prefers_max_then_smallest():
    def rec(n_tx, n_rf, utility, feasible=True):
        return SweepRecord(
            scenario="mean", n_tx=n_tx, n_rf=n_rf, esn0_db=5.0, ap=0, user=0,
            rate_dl_bps=1.0, rate_ul_bps=1.0, d_trans_s=1.0, d_proc_s=0.0,
            d_queue_s=0.0, d_total_s=1.0, utility=utility if feasible else None,
            feasible=feasible, violations=() if feasible else ("b",),
        )

    assert select_best_codebook((rec(2, 1, 0.4), rec(8, 2, 0.9))).label == "8A2R"
    # scaling every utility leaves the argmax unchanged
    assert select_best_codebook((rec(2, 1, 0.04), rec(8, 2, 0.09))).label == "8A2R"
    # ties break toward fewer antennas, then fewer chains
    assert select_best_codebook((rec(4, 1, 0.5), rec(2, 2, 0.5), rec(2, 1, 0.5))).label == "2A1R"
    # infeasible codebooks are skipped; all-infeasible yields None
    assert select_best_codebook((rec(2, 1, 0.9, feasible=False), rec(4, 1, 0.1))).label == "4A1R"
    assert select_best_codebook((rec(2, 1, 0.9, feasible=False),)) is None
    assert select_best_codebook(()) is None


def test_infeasible_points_recorded_not_raised():
    # an unreachable minimum rate flags every record as violating (b)
    cfg = config_from_dict(dict(SMALL, r_min="1e30", esn0_stop="0", n_t="2", scenario="mean"))
    result = run_sweep(cfg)
    assert len(result.records) == 4
    for r in result.records:
        assert not r.feasible
        assert r.utility is None
        assert "b" in r.violations
    assert result.objectives == {("mean", "2A1R", 0.0): 0.0}


def test_csv_header_and_rows(small_result, tmp_path):
    cfg, result = small_result
    path = tmp_path / "results.csv"
    write_results_csv(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(result.records)
    # rows stay sorted in file order
    assert lines[1].startswith("mean,2,1,0,")


def test_csv_empty_result(tmp_path):
    path = tmp_path / "empty.csv"
    write_results_csv(SweepResult(records=(), objectives={}, summary={}), str(path))
    assert path.read_text() == CSV_HEADER + "\n"


def test_csv_roundtrip_precision(small_result, tmp_path):
    cfg, result = small_result
    path = tmp_path / "results.csv"
    write_results_csv(result, str(path))
    lines = path.read_text().splitlines()[1:]
    for line, rec in zip(lines, result.records):
        fields = line.split(",")
        for got, want in (
            (fields[6], rec.rate_dl_bps),
            (fields[7], rec.rate_ul_bps),
            (fields[8], rec.d_trans_s),
            (fields[11], rec.d_total_s),
        ):
            # nine significant digits round-trip to within one unit in the last place
            assert float(got) == pytest.approx(want, rel=5e-9)


def test_csv_infeasible_row_shape():
    rec = SweepRecord(
        scenario="min", n_tx=4, n_rf=2, esn0_db=3.0, ap=1, user=0,
        rate_dl_bps=12.5, rate_ul_bps=8.25, d_trans_s=math.inf, d_proc_s=1e-8,
        d_queue_s=5e8, d_total_s=math.inf, utility=None, feasible=False,
        violations=("a", "b"),
    )
    row = record_to_csv_row(rec)
    assert row == "min,4,2,3,1,0,12.5,8.25,inf,1e-08,500000000,inf,,false,a;b"


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
    assert r1.records == r2.records
    other = config_from_dict(dict(SMALL, gain_mode="gaussian", esn0_stop="1", seed="7"))
    r3 = run_sweep(other)
    assert r3.records != r1.records


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


def test_cli_codebook_named_twice_is_evaluated_once(tmp_path):
    p = write_config(tmp_path)
    out_dir = tmp_path / "twice"
    assert main(["simulate", "--config", str(p), "--out", str(out_dir), "--codebook", "4x1,2x1,4A1R"]) == 0
    lines = (out_dir / "results.csv").read_text().splitlines()[1:]
    # 2 scenarios x 2 codebooks x 3 esn0 points x 4 links, each row once
    assert len(lines) == len(set(lines)) == 48
    assert {tuple(line.split(",")[1:3]) for line in lines} == {("2", "1"), ("4", "1")}


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


def test_cli_stats_missing_file(tmp_path, capsys):
    assert main(["stats", "--in", str(tmp_path / "nope.csv"), "--metric", "min"]) == 3


def test_cli_stats_malformed_csv(tmp_path, capsys):
    p = tmp_path / "junk.csv"
    p.write_text("a,b,c\n1,2,3\n")
    assert main(["stats", "--in", str(p), "--metric", "min"]) == 2
