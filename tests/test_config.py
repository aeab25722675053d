"""Config parsing, defaults, and validation."""

from pathlib import Path

import numpy as np
import pytest

from vrlink.cli import main
from vrlink.config import (
    MAX_ESN0_POINTS,
    MAX_N_SC,
    MAX_SWEEP_BYTES,
    TAP_BYTES,
    config_from_dict,
    esn0_grid,
    load_config,
    parse_config_text,
    parse_esn0_range,
    parse_scenarios,
)
from vrlink.errors import ConfigurationError
from vrlink.linkmetrics import GainAggregation


def test_parse_config_text_basics():
    text = """
    # a comment
    fc = 60e9
    seed = 3   # trailing comment

    n_sc = 64
    """
    data = parse_config_text(text)
    assert data == {"fc": "60e9", "seed": "3", "n_sc": "64"}


def test_parse_config_text_rejects_malformed():
    with pytest.raises(ConfigurationError):
        parse_config_text("just a line without equals")
    with pytest.raises(ConfigurationError):
        parse_config_text("key =")
    with pytest.raises(ConfigurationError):
        parse_config_text("seed = 1\nseed = 2")


def test_default_parameter_values():
    cfg = config_from_dict({})
    assert cfg.grid.n_sc == 64
    assert cfg.grid.carrier_frequency == pytest.approx(60e9)
    assert cfg.grid.total_bandwidth == pytest.approx(2.16e9)
    assert cfg.w == pytest.approx(3.2)
    assert [cb.label for cb in cfg.codebooks] == ["2A1R", "2A2R", "4A1R", "4A2R", "8A1R", "8A2R"]
    assert cfg.topology.n_aps == 2 and cfg.topology.n_users == 2
    assert cfg.p_b == pytest.approx(0.01)
    assert cfg.p_u == pytest.approx(0.005)  # p_b / u
    assert cfg.gamma_d == pytest.approx(20e-3)
    # a tap_spacing of 0, the default, is one sample of the total bandwidth
    assert cfg.tap_spacing_s == config_from_dict({"tap_spacing": "0"}).tap_spacing_s == 1.0 / 2.16e9
    assert cfg.traffic.s_bits == pytest.approx(512 * 24)
    assert cfg.traffic.a_bits == pytest.approx(6)
    assert cfg.traffic.v_bits == pytest.approx(5)
    assert cfg.traffic.mu == pytest.approx(4e-9)
    assert cfg.traffic.lam == pytest.approx(2e-9)
    assert len(cfg.esn0_db) == 21
    assert cfg.esn0_db[0] == 0.0 and cfg.esn0_db[-1] == 20.0
    assert cfg.scenarios == (GainAggregation.MEAN, GainAggregation.MIN)
    assert cfg.v_j == 2
    assert cfg.gain_mode == "deterministic"
    assert cfg.base_cells == (0, 1)


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError):
        config_from_dict({"frequency": "60e9"})


def test_scenario_parsing():
    assert parse_scenarios("both") == (GainAggregation.MEAN, GainAggregation.MIN)
    assert parse_scenarios("mean") == (GainAggregation.MEAN,)
    assert parse_scenarios("min") == (GainAggregation.MIN,)
    assert parse_scenarios("min, mean") == (GainAggregation.MIN, GainAggregation.MEAN)
    with pytest.raises(ConfigurationError):
        parse_scenarios("median")


def test_esn0_grid_construction():
    grid = esn0_grid(0.0, 1.0, 20.0)
    assert len(grid) == 21
    assert np.allclose(grid, np.arange(21.0))
    assert len(esn0_grid(5.0, 2.5, 10.0)) == 3
    assert len(esn0_grid(7.0, 1.0, 7.0)) == 1
    with pytest.raises(ConfigurationError):
        esn0_grid(0.0, 0.0, 10.0)
    with pytest.raises(ConfigurationError):
        esn0_grid(10.0, 1.0, 0.0)


def test_parse_esn0_range():
    assert parse_esn0_range("0:1:20") == (0.0, 1.0, 20.0)
    assert parse_esn0_range("5:2.5:10") == (5.0, 2.5, 10.0)
    with pytest.raises(ConfigurationError):
        parse_esn0_range("0:20")
    with pytest.raises(ConfigurationError):
        parse_esn0_range("a:b:c")


def test_queue_unit_presets():
    paper = config_from_dict({"queue_units": "paper"})
    assert paper.traffic.mu == pytest.approx(4e-9)
    recip = config_from_dict({"queue_units": "reciprocal"})
    assert recip.traffic.mu == pytest.approx(4e9)
    assert recip.traffic.lam == pytest.approx(2e9)
    # explicit values beat the preset
    explicit = config_from_dict({"queue_units": "reciprocal", "mu": "10", "lambda": "1"})
    assert explicit.traffic.mu == pytest.approx(10.0)
    with pytest.raises(ConfigurationError):
        config_from_dict({"queue_units": "bananas"})


def test_position_overrides_and_mismatch():
    cfg = config_from_dict({"ap_positions": "1,1,2 ; 9,16,2", "user_positions": "2,2,1 ; 8,15,1"})
    assert cfg.topology.aps[0].x == pytest.approx(1.0)
    assert cfg.topology.users[1].y == pytest.approx(15.0)
    with pytest.raises(ConfigurationError):
        config_from_dict({"ap_positions": "1,1,2"})  # b defaults to 2
    with pytest.raises(ConfigurationError):
        config_from_dict({"ap_positions": "1,1 ; 2,2"})


def test_nondefault_counts_get_seeded_positions():
    a = config_from_dict({"b": "3", "u": "4", "v_j": "4"})
    bb = config_from_dict({"b": "3", "u": "4", "v_j": "4"})
    assert a.topology.n_aps == 3 and a.topology.n_users == 4
    for pa, pb in zip(a.topology.aps, bb.topology.aps):
        assert pa == pb


def test_codebook_keys_build_cartesian_product():
    cfg = config_from_dict({"n_t": "2,4", "n_rf": "1"})
    assert [cb.label for cb in cfg.codebooks] == ["2A1R", "4A1R"]


def test_integers_are_finite_numbers_equal_to_an_integer():
    cfg = config_from_dict({"n_t": "2.0, 4", "n_rf": "1e0", "n_r": "2.0", "u": "2.0"})
    assert [(cb.n_tx, cb.n_rf, cb.n_rx) for cb in cfg.codebooks] == [(2, 1, 2), (4, 1, 2)]
    assert cfg.topology.n_users == 2
    for key in ("n_t", "n_rf", "n_r", "u"):
        with pytest.raises(ConfigurationError, match="expected an integer"):
            config_from_dict({key: "2.5"})
    with pytest.raises(ConfigurationError, match="expected an integer"):
        config_from_dict({"n_t": "2, 4.5"})


def test_bad_values_raise_configuration_error():
    with pytest.raises(ConfigurationError):
        config_from_dict({"n_sc": "0"})
    with pytest.raises(ConfigurationError):
        config_from_dict({"p_b": "-1"})
    with pytest.raises(ConfigurationError):
        config_from_dict({"seed": "1.5"})
    with pytest.raises(ConfigurationError):
        config_from_dict({"esn0_step": "-1"})
    with pytest.raises(ConfigurationError):
        config_from_dict({"scenario": "none"})
    with pytest.raises(ConfigurationError):
        config_from_dict({"gain_mode": "rayleigh"})
    with pytest.raises(ConfigurationError):
        config_from_dict({"mu": "1", "lambda": "2"})
    with pytest.raises(ConfigurationError):
        config_from_dict({"gamma_d": "0"})


def test_load_config_file_and_overrides(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("seed = 5\nesn0_stop = 2\n")
    cfg = load_config(str(p))
    assert cfg.seed == 5
    assert len(cfg.esn0_db) == 3
    over = load_config(str(p), {"seed": 9, "scenario": "min"})
    assert over.seed == 9
    assert over.scenarios == (GainAggregation.MIN,)


def test_load_config_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config(str(tmp_path / "absent.conf"))


def test_shipped_default_config_parses():
    path = Path(__file__).resolve().parents[1] / "configs" / "indoor_default.conf"
    cfg = load_config(str(path))
    assert cfg.topology.n_users == 2
    assert len(cfg.codebooks) == 6
    assert len(cfg.esn0_db) == 21


# (config file text, extra simulate arguments or None for check-config)
BAD_INPUTS = [
    ("esn0_stop = inf", None),
    ("seed = inf", None),
    ("n_sc = inf", None),
    ("esn0_start = nan", None),
    ("esn0_step = 1e-12", None),
    ("u = 0", None),
    ("b = 0", None),
    ("p_u = inf", None),
    ("gamma_d = inf", None),
    ("epsilon0 = inf", None),
    ("mode_bin = inf", None),
    ("r_min = nan", None),
    ("n_sc = 1e9", None),
    ("n_sc = 8", ["--esn0", "0:1e-12:20"]),
    ("n_t = 1000000000", None),
    ("u = 100000", None),
    # an AP above user 0, and one on it: the link has no azimuth
    ("ap_positions = 3,6,3 ; 7.5,13,3", None),
    ("ap_positions = 3,6,1.5 ; 7.5,13,3", None),
    ("epsilon0 = 0", None),
    ("epsilon0 = -1", None),
    ("lambda = -1e-9", None),
    ("tap_spacing = -1e-9", None),
    ("tap_count = 1000000000", None),
    ("u = 1000000", None),
    # a derived quantity leaves the float range: the wavelength, the tap
    # spacing, the per-user compute share
    ("fc = 1e-300", None),
    ("bw_total = 1e-320", None),
    ("m_capacity = 1e-300\nn_share = 1e300", None),
    ("mu = 1e-310\nlambda = 0", None),
    # a link whose distance or path gain leaves the float range
    ("fc = 1e-290\nn_sc = 4\nesn0_stop = 0", None),
    ("fc = 1e-290\nn_sc = 4\nesn0_stop = 0", []),
    ("u = 3\narea_x = -1e300, 1e300\nn_sc = 4\nesn0_stop = 0", None),
    ("u = 3\narea_x = -1e300, 1e300\nn_sc = 4\nesn0_stop = 0", []),
    ("w = 3000\nap_positions = 1,1,2 ; 9,16,2\nuser_positions = 1.5,1,1.5 ; 8,15,1", None),
    ("w = 3000\nap_positions = 1,1,2 ; 9,16,2\nuser_positions = 1.5,1,1.5 ; 8,15,1", []),
    ("ap_positions = 0,0,1 ; 9,16,2\nuser_positions = 1e-200,0,1 ; 8,15,1", None),
    ("ap_positions = 0,0,1 ; 9,16,2\nuser_positions = 1e-200,0,1 ; 8,15,1", []),
    ("ap_positions = 0,0,1 ; 9,16,2\nuser_positions = 1e-100,0,1 ; 8,15,1", None),
    ("ap_positions = 0,0,1 ; 9,16,2\nuser_positions = 1e-100,0,1 ; 8,15,1", []),
]


@pytest.mark.parametrize("text, simulate_args", BAD_INPUTS)
def test_bad_input_exits_2_with_message(text, simulate_args, tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_text(text + "\n")
    if simulate_args is None:
        argv = ["check-config", "--config", str(path)]
    else:
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path), *simulate_args]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "results.csv").exists()


def test_size_caps_are_inclusive():
    assert config_from_dict({"n_sc": str(MAX_N_SC)}).grid.n_sc == MAX_N_SC
    assert len(esn0_grid(0.0, 1.0, MAX_ESN0_POINTS - 1.0)) == MAX_ESN0_POINTS
    assert len(esn0_grid(0.0, 0.02, 20.0)) == MAX_ESN0_POINTS
    with pytest.raises(ConfigurationError):
        config_from_dict({"n_sc": str(MAX_N_SC + 1)})
    with pytest.raises(ConfigurationError):
        esn0_grid(0.0, 1.0, float(MAX_ESN0_POINTS))


def test_budget_is_checked_before_positions_are_sampled(monkeypatch):
    def sample(self, rng):
        raise AssertionError("positions sampled before the budget check")

    monkeypatch.setattr("vrlink.topology.IndoorArea.sample", sample)
    with pytest.raises(ConfigurationError, match="budget"):
        config_from_dict({"u": "1000000"})
    with pytest.raises(ConfigurationError, match="budget"):
        config_from_dict({"b": "3", "tap_count": "1000000000"})


def test_tap_count_counts_toward_the_budget():
    small, large = (config_from_dict({"tap_count": str(t)}) for t in (4, 1000))
    assert large.estimated_bytes - small.estimated_bytes == 996 * TAP_BYTES
    taps = (MAX_SWEEP_BYTES - small.estimated_bytes) // TAP_BYTES + 4
    assert config_from_dict({"tap_count": str(taps)}).estimated_bytes <= MAX_SWEEP_BYTES
    with pytest.raises(ConfigurationError):
        config_from_dict({"tap_count": str(taps + 1)})
