"""Seeded fuzz of the config parser and the CLI, in plain loops.

Random subsets of the known keys get hostile values: 0, -1, +-1e300,
1e-300, the float maximum, inf, nan, text, and positions that put an AP on
a user's xy spot. Half the drawn keys get a well-formed value instead, so
that more draws pass the checks and reach `simulate`.
`check-config` must exit 0, or 2 with an `error:` line; no exception may
escape. Accepted configs small enough to run quickly also go through
`simulate` with a random subset of its override flags (`--esn0`,
`--codebook`, `--seed`, `--scenario`, `--queue-units`), well-formed or
not. It must exit 0 or 2 as well; when it exits 0, its `results.csv` must
keep the model's invariants, equal byte for byte what the whole-sweep
scalar oracle (`oracles.sweep_table`) writes, and its printed summary must
agree with `stats --metric min` on that file. A numeric warning counts as a
failure.
"""

import contextlib
import csv
import io
import math

import numpy as np
import pytest

from vrlink import cli
from vrlink.cli import main
from vrlink.config import KEYS, load_config

HOSTILE = ("0", "-1", "1e300", "-1e300", "1e-300", "1.7976931348623157e308", "inf", "nan", "banana")

# well-formed values for the keys whose syntax a bare number cannot meet
SHAPED = {
    # the paper's carrier, and two whose DL covariance sums leave the float range
    "fc": ("60e9", "1.5e-70", "2e-70"),
    "n_t": ("2,4", "1", "8,2,8"),
    "n_rf": ("1,2", "2"),
    "scenario": ("mean", "min", "both", "min, mean"),
    "gain_mode": ("gaussian", "deterministic"),
    "queue_units": ("paper", "reciprocal"),
    "area_x": ("0,10", "0,0", "5,1", "-1e300,1e300", "0,1e300"),
    "area_y": ("0,17", "0,1e-300", "0,1e300"),
    "area_z": ("0,3", "-1,1e300"),
    # the first AP above user 0, on user 0, or next to it
    "ap_positions": ("3,6,3 ; 7.5,13,3", "3,6,1.5 ; 7.5,13,3", "3,6.000001,3 ; 7.5,13,3", "1e300,0,0"),
    "user_positions": ("2.5,4,1 ; 6.5,11,1.5", "7.5,13,0 ; 7.5,13,3", "0,0,0 ; 10,17,3"),
}

# well-formed values for the keys without SHAPED ones
MILD = ("1", "2", "3")

# the keys a fuzz draw leaves alone keep the sweep small
BASE = {"n_sc": "4", "esn0_stop": "2"}

# simulate's override flags, each with values that run and values the
# package rejects; a grid has at most three points, so a small sweep stays
# small. argparse's own choices and int type are not drawn against.
FLAGS = {
    "--esn0": ("0:1:2", "5:5:10", "-3:0.5:-2", "0:20", "2:1:0", "0:0:1", "0:1e-300:1", "nan:1:2",
               "-1e300:1e300:1e300", "abc"),
    "--codebook": ("2x1", "4x2,2x1", "1x1", "8x2,8x1,8x1", "16A1R", "abc", "2x3", "0x1", ",", "2x1,,4x1"),
    "--seed": ("0", "3", "-1", "99999999999999999999"),
    "--scenario": ("mean", "min", "both"),
    "--queue-units": ("paper", "reciprocal"),
}


def small_enough(config) -> bool:
    return (
        config.grid.n_sc <= 16
        and len(config.esn0_db) <= 3
        and config.topology.n_users * config.topology.n_aps <= 9
        and config.tap_count <= 64
    )


def invariant_violations(path) -> list:
    """The rows of a results.csv that break a model invariant, one message
    each: a utility outside [0, 1], a utility given exactly where the row is
    infeasible or missing where it is feasible, and a finite transmission
    delay above the last finite one of its (scenario, n_tx, n_rf, ap, user)
    series at a lower Es/N0."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    bad, last = [], {}
    for k, row in enumerate(rows, 2):
        if (row["utility"] != "") != (row["feasible"] == "true"):
            bad.append(f"line {k}: utility {row['utility']!r} on a row with feasible = {row['feasible']}")
        elif row["utility"] and not 0.0 <= float(row["utility"]) <= 1.0:
            bad.append(f"line {k}: utility {row['utility']} outside [0, 1]")
        series = tuple(row[key] for key in ("scenario", "n_tx", "n_rf", "ap", "user"))
        d_trans = float(row["d_trans_s"])
        if math.isfinite(d_trans):
            if d_trans > last.get(series, math.inf):
                bad.append(f"line {k}: d_trans_s {d_trans:.9g} rose from {last[series]:.9g} at a lower Es/N0")
            last[series] = d_trans
    return bad


def summary_violations(path, stdout: str) -> list:
    """The mismatches, one message each, between the d_trans_min_s column
    of the summary that ``simulate`` printed to stdout and what ``vrlink
    stats --metric min`` prints for its results.csv at path: the same
    number, formatted alike, for every codebook with a finite minimum, and
    no row for any other (an exit 2 when no minimum is finite)."""
    want = {}
    for line in stdout.splitlines()[2:]:
        scenario, label, _, d_min, _ = line.split(",")
        if d_min != "nan":
            n_tx, n_rf = label.rstrip("R").split("A")
            want[f"{scenario},{n_tx},{n_rf}"] = d_min
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["stats", "--in", str(path), "--metric", "min"])
    if code != (0 if want else 2):
        return [f"stats --metric min exited {code}: {err.getvalue().strip()}"]
    got = dict(line.rsplit(",", 1) for line in out.getvalue().splitlines()[1:])
    return [
        f"{key}: summary d_trans_min_s {want.get(key)}, stats --metric min {got.get(key)}"
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    ]


def draw(rng) -> dict:
    names = sorted(KEYS)
    keys = [names[k] for k in rng.choice(len(names), size=int(rng.integers(1, 6)), replace=False)]
    raw = dict(BASE)
    for key in keys:
        values = SHAPED.get(key, MILD) if rng.random() < 0.5 else HOSTILE + SHAPED.get(key, ())
        raw[key] = values[int(rng.integers(len(values)))]
    return raw


def draw_flags(rng) -> list:
    """simulate's override flags: each of FLAGS with probability 0.3, as
    --flag=value, so that a value may start with a minus sign."""
    return [f"{flag}={values[int(rng.integers(len(values)))]}" for flag, values in FLAGS.items() if rng.random() < 0.3]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fuzzed_configs_run_or_exit_2(seed, tmp_path, capsys, monkeypatch):
    # imported here: tools/diff_fuzz.py loads this module without tests/ on the path
    import oracles

    configs, run_sweep = [], cli.run_sweep  # the config each simulate resolved
    monkeypatch.setattr(cli, "run_sweep", lambda config: configs.append(config) or run_sweep(config))
    rng = np.random.default_rng([seed, 8])
    path = tmp_path / "fuzz.conf"
    simulated = 0
    for _ in range(60):
        raw, flags = draw(rng), draw_flags(rng)
        path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
        code = main(["check-config", "--config", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2), raw
        assert (code == 2) == err.startswith("error: "), (raw, err)
        if code == 0 and small_enough(load_config(str(path))):
            out = tmp_path / "out"
            code = main(["simulate", "--config", str(path), "--out", str(out), *flags])
            printed = capsys.readouterr()
            assert code in (0, 2), (raw, flags)
            assert (code == 2) == printed.err.startswith("error: "), (raw, flags, printed.err)
            if code == 0:
                assert invariant_violations(out / "results.csv") == [], (raw, flags)
                assert summary_violations(out / "results.csv", printed.out) == [], (raw, flags)
                # the whole-sweep scalar oracle writes the same bytes
                oracles.write_results_csv(oracles.sweep_table(configs[-1]), str(tmp_path / "oracle.csv"))
                assert (out / "results.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes(), (raw, flags)
            simulated += 1
    assert simulated > 0
