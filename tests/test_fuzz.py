"""Seeded fuzz of the config parser and the CLI, in plain loops.

Random subsets of the known keys get hostile values: 0, -1, +-1e300,
1e-300, inf, nan, text, and positions that put an AP on a user's xy spot.
`check-config` must exit 0, or 2 with an `error:` line; no exception may
escape. Accepted configs small enough to run quickly also go through
`simulate`, which must exit 0 or 2 as well. A numeric warning counts as
a failure.
"""

import numpy as np
import pytest

from vrlink.cli import main
from vrlink.config import KNOWN_KEYS, load_config

HOSTILE = ("0", "-1", "1e300", "-1e300", "1e-300", "inf", "nan", "banana")

# well-formed values for the keys whose syntax a bare number cannot meet
SHAPED = {
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

# the keys a fuzz draw leaves alone keep the sweep small
BASE = {"n_sc": "4", "esn0_stop": "2"}


def small_enough(config) -> bool:
    return (
        config.grid.n_sc <= 16
        and len(config.esn0_db) <= 3
        and config.topology.n_users * config.topology.n_aps <= 9
        and config.tap_count <= 64
    )


def draw(rng) -> dict:
    names = sorted(KNOWN_KEYS)
    keys = [names[k] for k in rng.choice(len(names), size=int(rng.integers(1, 6)), replace=False)]
    raw = dict(BASE)
    for key in keys:
        values = HOSTILE + SHAPED.get(key, ())
        raw[key] = values[int(rng.integers(len(values)))]
    return raw


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fuzzed_configs_run_or_exit_2(seed, tmp_path, capsys):
    rng = np.random.default_rng([seed, 8])
    path = tmp_path / "fuzz.conf"
    simulated = 0
    for _ in range(60):
        raw = draw(rng)
        path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
        code = main(["check-config", "--config", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2), raw
        assert (code == 2) == err.startswith("error: "), (raw, err)
        if code == 0 and small_enough(load_config(str(path))):
            out = tmp_path / "out"
            code = main(["simulate", "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 2), raw
            assert (code == 2) == err.startswith("error: "), (raw, err)
            simulated += 1
    assert simulated > 0
