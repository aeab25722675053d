"""Config parsing, defaults, and validation."""

import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vrlink.beamforming import COVARIANCE_PRODUCTS, Codebook
from vrlink.cli import main
from vrlink.config import (
    KEYS,
    MAX_ESN0_POINTS,
    MAX_N_SC,
    MAX_SWEEP_BYTES,
    BLOCK_CELLS,
    DESIGN_CELLS,
    CELL_BYTES,
    RECORD_BYTES,
    TAP_BYTES,
    SweepConfig,
    config_from_dict,
    esn0_grid,
    load_config,
    parse_config_text,
    parse_esn0_range,
    parse_scenarios,
)
from vrlink.errors import ConfigurationError
from vrlink.linkmetrics import GainAggregation
from vrlink.runner import run_sweep


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
    assert cfg.tap_spacing == config_from_dict({"tap_spacing": "0"}).tap_spacing == 1.0 / 2.16e9
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


def test_shipped_config_resolves_to_the_defaults():
    # a key that drifts from its default in the shipped file shows here
    shipped = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "indoor_default.conf"))
    defaults = config_from_dict({})
    for field in dataclasses.fields(SweepConfig):
        got, want = getattr(shipped, field.name), getattr(defaults, field.name)
        if field.name == "esn0_db":
            assert np.array_equal(got, want)
        else:
            assert got == want, field.name


def test_shipped_config_sets_every_key_with_a_fixed_default():
    # a default that is a function is worked out from the keys above it; the
    # positions' None, from the counts and the seed
    text = (Path(__file__).resolve().parents[1] / "configs" / "indoor_default.conf").read_text()
    fixed = {key for key, (_, default, _) in KEYS.items() if default is not None and not callable(default)}
    assert fixed - set(parse_config_text(text)) == set()


# three users, two of them near AP 0; a user 0.17 m from its AP at 20 dB;
# squared DL effective gains near 1e307 at p_b = 100 W
NEAR_TRIO = "2.6,4.1,2.9 ; 7.4,12.9,2.9 ; 2.4,3.9,2.9"
NEAR_PAIR = "w = 202.2\nuser_positions = 2.6,4.1,2.9 ; 5,8,1\nn_sc = 4\nesn0_start = 20\nesn0_stop = 20"
HUGE_DL = "fc = 3e-70\np_b = 100\nn_sc = 4\nesn0_stop = 0"
# DL channels whose covariance sums over the subcarriers overflow in the design
HUGE_COVARIANCE = ("fc = 1.5e-70\np_b = 1e-3\nn_sc = 4\nesn0_stop = 0", "fc = 2e-70\np_b = 1\nn_sc = 4\nesn0_stop = 0")

# (config file text, extra simulate arguments or None for check-config, the
# message the CLI prints after "error: ")
BAD_INPUTS = [
    ("esn0_stop = inf", None, "key 'esn0_stop': expected a finite number, got 'inf'"),
    ("seed = inf", None, "key 'seed': expected a finite number, got 'inf'"),
    ("n_sc = inf", None, "key 'n_sc': expected a finite number, got 'inf'"),
    ("esn0_start = nan", None, "key 'esn0_start': expected a finite number, got 'nan'"),
    ("esn0_step = 1e-12", None, "esn0 grid has more than 1001 points"),
    ("u = 0", None, "u must be at least 1, got 0"),
    ("b = 0", None, "b must be at least 1, got 0"),
    ("p_u = inf", None, "key 'p_u': expected a finite number, got 'inf'"),
    ("gamma_d = inf", None, "key 'gamma_d': expected a finite number, got 'inf'"),
    ("epsilon0 = inf", None, "key 'epsilon0': expected a finite number, got 'inf'"),
    ("mode_bin = inf", None, "key 'mode_bin': expected a finite number, got 'inf'"),
    ("r_min = nan", None, "key 'r_min': expected a finite number, got 'nan'"),
    ("n_sc = 1e9", None, "n_sc must be between 1 and 8192, got 1000000000"),
    ("n_sc = 8", ["--esn0", "0:1e-12:20"], "esn0 grid has more than 1001 points"),
    ("n_t = 1000000000", None, "sweep needs about 1088000016384001081472 bytes, over the 1073741824-byte budget"),
    ("u = 100000", None, "sweep needs about 63488000128 bytes, over the 1073741824-byte budget"),
    # an AP above user 0, and one on it: the link has no azimuth
    ("ap_positions = 3,6,3 ; 7.5,13,3", None, "user 0 and AP 0 share the xy position"),
    ("ap_positions = 3,6,1.5 ; 7.5,13,3", None, "user 0 and AP 0 share the xy position"),
    ("epsilon0 = 0", None, "epsilon0 must be positive, got 0.0"),
    ("epsilon0 = -1", None, "epsilon0 must be positive, got -1.0"),
    ("lambda = -1e-9", None, "need 0 <= lambda < mu, got mu=4e-09 lambda=-1e-09"),
    ("tap_spacing = -1e-9", None, "tap_spacing must be positive, got -1e-09"),
    ("tap_count = 1000000000", None, "sweep needs about 32002527232 bytes, over the 1073741824-byte budget"),
    ("u = 1000000", None, "sweep needs about 634880000128 bytes, over the 1073741824-byte budget"),
    # a derived quantity leaves the float range: the wavelength, the tap
    # spacing, the per-user compute share
    ("fc = 1e-300", None, "carrier frequency must be positive, not tiny, got 1e-300"),
    ("bw_total = 1e-320", None, "total bandwidth must be positive, not tiny, got 1e-320"),
    ("m_capacity = 1e-300\nn_share = 1e300", None,
     "compute share m_capacity/n_share underflows to 0, got 1e-300/1e+300"),
    ("mu = 1e-310\nlambda = 0", None, "processing plus queue delay must be finite, got inf"),
    # a link whose distance or path gain leaves the float range
    ("fc = 1e-290\nn_sc = 4\nesn0_stop = 0", None, "user 0 / AP 0: distance 2.54951 m gives no finite path gain"),
    ("fc = 1e-290\nn_sc = 4\nesn0_stop = 0", [], "user 0 / AP 0: distance 2.54951 m gives no finite path gain"),
    ("u = 3\narea_x = -1e300, 1e300\nn_sc = 4\nesn0_stop = 0", None,
     "user 0 / AP 0: distance inf m gives no finite path gain"),
    ("u = 3\narea_x = -1e300, 1e300\nn_sc = 4\nesn0_stop = 0", [],
     "user 0 / AP 0: distance inf m gives no finite path gain"),
    ("w = 3000\nap_positions = 1,1,2 ; 9,16,2\nuser_positions = 1.5,1,1.5 ; 8,15,1", None,
     "user 0 / AP 0: distance 0.707107 m gives no finite path gain"),
    ("w = 3000\nap_positions = 1,1,2 ; 9,16,2\nuser_positions = 1.5,1,1.5 ; 8,15,1", [],
     "user 0 / AP 0: distance 0.707107 m gives no finite path gain"),
    ("ap_positions = 0,0,1 ; 9,16,2\nuser_positions = 1e-200,0,1 ; 8,15,1", None,
     "user 0 / AP 0: distance 0 m gives no finite path gain"),
    ("ap_positions = 0,0,1 ; 9,16,2\nuser_positions = 1e-200,0,1 ; 8,15,1", [],
     "user 0 / AP 0: distance 0 m gives no finite path gain"),
    ("ap_positions = 0,0,1 ; 9,16,2\nuser_positions = 1e-100,0,1 ; 8,15,1", None,
     "user 0 / AP 0: distance 1e-100 m gives no finite path gain"),
    ("ap_positions = 0,0,1 ; 9,16,2\nuser_positions = 1e-100,0,1 ; 8,15,1", [],
     "user 0 / AP 0: distance 1e-100 m gives no finite path gain"),
    # the noise power p_b / 10^(esn0/10) overflows 10^(esn0/10) or divides by 0
    ("esn0_start = 4000\nesn0_stop = 4000", None,
     "noise power p_b / 10^(esn0/10) leaves the positive float range on Es/N0 4000..4000 dB"),
    ("esn0_start = 4000\nesn0_stop = 4000", [],
     "noise power p_b / 10^(esn0/10) leaves the positive float range on Es/N0 4000..4000 dB"),
    ("n_sc = 8", ["--esn0=-5:1e308:1e308"],
     "noise power p_b / 10^(esn0/10) leaves the positive float range on Es/N0 -5..1e+308 dB"),
    ("esn0_start = -4000\nesn0_stop = -4000", None,
     "noise power p_b / 10^(esn0/10) leaves the positive float range on Es/N0 -4000..-4000 dB"),
    ("esn0_start = -4000\nesn0_stop = -4000", [],
     "noise power p_b / 10^(esn0/10) leaves the positive float range on Es/N0 -4000..-4000 dB"),
    ("esn0_start = -3110\nesn0_stop = -3110", None,
     "noise power p_b / 10^(esn0/10) leaves the positive float range on Es/N0 -3110..-3110 dB"),
    ("p_b = 1e-300\nesn0_start = 300\nesn0_stop = 300", None,
     "noise power p_b / 10^(esn0/10) leaves the positive float range on Es/N0 300..300 dB"),
    # an analog stage's (n_sc, n_t, n_t) covariance products
    ("n_t = 9999", None, "sweep needs about 108943146176 bytes, over the 1073741824-byte budget"),
    ("n_sc = 8", ["--codebook", "9999x1"], "sweep needs about 38413061120 bytes, over the 1073741824-byte budget"),
    ("n_sc = 8", ["--codebook", ","], "empty codebook list"),
    ("scenario = ,", None, "empty scenario list"),
    # each user 0.17 m from its AP: the UL received power p_u*|h|^2 overflows
    ("w = 300\nuser_positions = 2.6,4.1,2.9 ; 7.4,12.9,2.9", [],
     "user 0 / AP 0: UL received power p_u*|h|^2 leaves the float range"),
    ("w = 300\nuser_positions = 2.6,4.1,2.9 ; 7.4,12.9,2.9\ngain_mode = gaussian", [],
     "user 0 / AP 0: UL received power p_u*|h|^2 leaves the float range"),
    # finite received powers whose interference sum or SINR leaves the
    # float range: two intra-cell powers near 1e308, a user 0.17 m from its
    # AP at 20 dB, DL powers near 1e308
    (f"w = 202.26\nu = 3\np_u = 1\nuser_positions = {NEAR_TRIO}\nn_sc = 4\nesn0_stop = 0", [],
     "user 0 / AP 0: UL interference or SINR leaves the float range"),
    ("w = 202.2\nuser_positions = 2.6,4.1,2.9 ; 5,8,1", [],
     "user 0 / AP 0: UL interference or SINR leaves the float range"),
    (f"{NEAR_PAIR}\ngain_mode = gaussian", [], "user 0 / AP 0: UL interference or SINR leaves the float range"),
    (f"{HUGE_DL}\ngain_mode = gaussian", [], "user 0 / AP 0: DL interference or SINR leaves the float range"),
    *((text, [], "user 0 / AP 0: DL channel covariance sum leaves the float range") for text in HUGE_COVARIANCE),
    # the float maximum: the power check's p_b * (1 + tolerance) and the
    # rates bw_total * log2(1 + SINR) would leave the float range
    ("n_sc = 4\nesn0_stop = 2\np_b = 1.7976931348623157e308", [],
     "p_b leaves the float range with the power check's tolerance, got 1.7976931348623157e+308"),
    ("n_sc = 4\nesn0_stop = 2\nbw_total = 1.7976931348623157e308\nw = 1\np_u = 1", [],
     "bw_total gives rates past the float range, got 1.7976931348623157e+308"),
    # simulate's own flags
    ("n_sc = 8", ["--codebook", "abc"], "cannot parse codebook 'abc', expected NTxNRF"),
    ("n_sc = 8", ["--codebook", "2x3"], "need 1 <= n_ds <= n_rf <= n_tx, got ds=1 rf=3 tx=2"),
    ("n_sc = 8", ["--esn0", "0:20"], "expected start:step:stop, got '0:20'"),
    # each bound, named by the key the config sets
    ("w = 0", None, "w must be positive, got 0.0"),
    ("r_min = -1", None, "r_min must be non-negative, got -1.0"),
    ("v_j = 0", None, "v_j must be at least 1, got 0"),
    ("tap_count = 0", None, "tap_count must be at least 1, got 0"),
    ("mode_bin = 0", None, "mode_bin must be positive, got 0.0"),
    ("gain_mode = rayleigh", None, "gain_mode must be one of ['deterministic', 'gaussian'], got 'rayleigh'"),
    ("queue_units = bananas", None, "queue_units must be one of ['paper', 'reciprocal'], got 'bananas'"),
    ("p_b = 0", None, "p_b must be positive, got 0.0"),
    ("p_u = -1", None, "p_u must be positive, got -1.0"),
    ("gamma_d = 0", None, "gamma_d must be positive, got 0.0"),
    ("bw_total = 0", None, "bw_total must be positive, got 0.0"),
    ("seed = -1", None, "seed must be non-negative, got -1"),
    ("n_sc = 8", ["--seed=-1"], "seed must be non-negative, got -1"),
    # a default worked out from other keys fails its bound: named with them
    ("p_b = 5e-324", None, "p_u (default p_b / u) must be positive, got 0.0"),
    # n_sc below 1 fails the same row, in the same words, as n_sc above 8192
    ("n_sc = 0", None, "n_sc must be between 1 and 8192, got 0"),
]

# (results CSV text, the message `vrlink stats` prints after "error: ", with
# PATH for the file's path)
BAD_STATS = [
    ("scenario,n_tx,n_rf,d_trans_s\nmean,2,1,abc",
     "malformed row in PATH: {'scenario': 'mean', 'n_tx': '2', 'n_rf': '1', 'd_trans_s': 'abc'}"),
    ("scenario,n_tx,n_rf,d_trans_s\nmean,2.5,1,1e-3",
     "malformed row in PATH: {'scenario': 'mean', 'n_tx': '2.5', 'n_rf': '1', 'd_trans_s': '1e-3'}"),
    ("scenario,n_tx,n_rf,d_trans_s\nmean,2",
     "malformed row in PATH: {'scenario': 'mean', 'n_tx': '2', 'n_rf': None, 'd_trans_s': None}"),
    ("scenario,n_tx,n_rf,d_trans_s\nmean,2,1,inf", "no finite transmission delays found in PATH"),
]


@pytest.mark.parametrize("text, simulate_args, message", BAD_INPUTS)
def test_bad_input_exits_2_with_message(text, simulate_args, message, tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_text(text + "\n")
    if simulate_args is None:
        argv = ["check-config", "--config", str(path)]
    else:
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path), *simulate_args]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("text, message", BAD_STATS)
def test_bad_results_csv_exits_2_with_message(text, message, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(text + "\n")
    assert main(["stats", "--in", str(path), "--metric", "min"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.replace('PATH', str(path))}\n"
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["deterministic", "gaussian"])
def test_overflowing_ul_received_power_names_its_link(mode, tmp_path, capsys):
    # user 1 stands 0.17 m from AP 1 as well, but user 0's link is the first
    path = tmp_path / "near.conf"
    path.write_text(f"w = 300\nuser_positions = 2.6,4.1,2.9 ; 7.4,12.9,2.9\ngain_mode = {mode}\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: user 0 / AP 0: UL received power p_u*|h|^2 leaves the float range\n"


@pytest.mark.parametrize("mode", ["deterministic", "gaussian"])
@pytest.mark.parametrize("text, message", [
    (NEAR_PAIR, "user 0 / AP 0: UL interference or SINR leaves the float range"),
    (HUGE_DL, "user 0 / AP 0: DL interference or SINR leaves the float range"),
])
def test_sinr_past_the_float_range_names_its_link(text, message, mode, tmp_path, capsys):
    path = tmp_path / "near.conf"
    path.write_text(f"{text}\ngain_mode = {mode}\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mode, text, message", [
    ("deterministic", HUGE_COVARIANCE[0], "user 0 / AP 0: DL channel covariance sum leaves the float range"),
    ("gaussian", HUGE_COVARIANCE[0], "user 0 / AP 0: DL channel covariance sum leaves the float range"),
    ("deterministic", HUGE_COVARIANCE[1], "user 0 / AP 0: DL channel covariance sum leaves the float range"),
    # the gaussian gains leave user 0's links and user 1 / AP 0 inside the float range
    ("gaussian", HUGE_COVARIANCE[1], "user 1 / AP 1: DL channel covariance sum leaves the float range"),
])
def test_dl_covariance_past_the_float_range_names_its_link(mode, text, message, tmp_path, capsys):
    path = tmp_path / "huge.conf"
    path.write_text(f"{text}\ngain_mode = {mode}\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_negative_seed_is_rejected_on_every_path():
    message = "seed must be non-negative, got -1"
    with pytest.raises(ConfigurationError, match=message):
        config_from_dict({"seed": "-1"})
    with pytest.raises(ConfigurationError, match=message):
        dataclasses.replace(config_from_dict({}), seed=-1)


# a value just outside each KEYS bound, as config text; a tap_spacing of 0
# is one sample of bw_total, so its value lies below 0
OUTSIDE = {
    "w": "0", "n_sc": str(MAX_N_SC + 1), "bw_total": "0", "b": "0", "u": "0", "p_b": "0", "p_u": "0",
    "queue_units": "papers", "gamma_d": "0", "r_min": "-5e-324", "v_j": "0", "epsilon0": "0", "seed": "-1",
    "tap_count": "0", "tap_spacing": "-5e-324", "gain_mode": "gauss", "mode_bin": "0",
}


def test_every_bound_has_a_value_outside_it():
    assert set(OUTSIDE) == {key for key, (_, _, bound) in KEYS.items() if bound is not None}


@pytest.mark.parametrize("key", list(OUTSIDE))
def test_a_value_outside_its_bound_is_rejected_on_both_entries(key):
    # the parsed entry, and the replace path for the keys that are fields
    parse, _, (_, words) = KEYS[key]
    value = parse(key, OUTSIDE[key])
    message = "^" + re.escape(f"{key} must be {words}, got {value!r}") + "$"
    with pytest.raises(ConfigurationError, match=message):
        config_from_dict({key: OUTSIDE[key]})
    if key in {field.name for field in dataclasses.fields(SweepConfig)}:
        with pytest.raises(ConfigurationError, match=message):
            dataclasses.replace(config_from_dict({}), **{key: value})


def test_bounds_are_checked_in_table_order_on_both_entries():
    # seed is a field before p_b, but the p_b row comes first in KEYS
    with pytest.raises(ConfigurationError, match="^p_b must be positive"):
        config_from_dict({"seed": "-1", "p_b": "0"})
    with pytest.raises(ConfigurationError, match="^p_b must be positive"):
        dataclasses.replace(config_from_dict({}), seed=-1, p_b=0.0)


def test_integer_literals_keep_every_digit(tmp_path, capsys):
    # 2^53 + 1 read through a float is 2^53, and would draw its positions
    big, below = (config_from_dict({"seed": seed, "u": "3"}) for seed in ("9007199254740993", "9007199254740992"))
    assert (big.seed, below.seed) == (2 ** 53 + 1, 2 ** 53)
    assert big.topology.users != below.topology.users
    assert config_from_dict({"seed": "1e1", "n_t": "2.0, 4"}).seed == 10
    path = tmp_path / "big.conf"
    path.write_text("seed = 9007199254740993\n")
    assert main(["check-config", "--config", str(path)]) == 0
    assert "\n  gain_mode=deterministic seed=9007199254740993\n" in capsys.readouterr().out
    # simulate --seed passes its int through the overrides
    assert load_config(str(path), {"seed": 99999999999999999999}).seed == 99999999999999999999


def test_esn0_grid_is_checked_on_the_replace_path():
    # esn0_grid builds only non-empty, increasing grids; a replaced grid is
    # checked by SweepConfig
    cfg = config_from_dict({"n_sc": "4"})
    with pytest.raises(ConfigurationError, match="^empty Es/N0 grid$"):
        dataclasses.replace(cfg, esn0_db=np.array([]))
    for grid in ([0.0, 0.0], [1.0, 0.0], [0.0, 2.0, 1.0]):
        with pytest.raises(ConfigurationError, match="^Es/N0 grid must be strictly increasing$"):
            dataclasses.replace(cfg, esn0_db=np.array(grid))


def test_config_holds_the_row_order_on_every_path():
    # scenarios by name and codebooks by (n_tx, n_rf), each once, whether
    # parsed or replaced
    cfg = config_from_dict({"scenario": "min,mean,min", "n_t": "8,2,8", "n_rf": "2,1"})
    assert cfg.scenarios == (GainAggregation.MEAN, GainAggregation.MIN)
    assert [cb.label for cb in cfg.codebooks] == ["2A1R", "2A2R", "8A1R", "8A2R"]
    books = tuple(Codebook.from_string(text) for text in ("8x2", "2x1", "8x1", "2x1", "4x4"))
    replaced = dataclasses.replace(cfg, codebooks=books, scenarios=(GainAggregation.MIN,) * 2)
    assert replaced.scenarios == (GainAggregation.MIN,)
    assert [cb.label for cb in replaced.codebooks] == ["2A1R", "4A4R", "8A1R", "8A2R"]
    # a tie in (n_tx, n_rf) keeps the given order
    ties = (Codebook(4, 1, n_rx=2), Codebook(2, 1), Codebook(4, 1))
    assert dataclasses.replace(cfg, codebooks=ties).codebooks == (ties[1], ties[0], ties[2])


def test_covariance_stacks_count_toward_the_budget():
    small = config_from_dict({"n_t": "8", "n_rf": "1"})
    large = config_from_dict({"n_t": "64", "n_rf": "1"})
    links = 4
    dl = links * 64 * (64 - 8) * 16
    # the digital stage's reduced channel G^H H and composite beam grow by
    # n_t entries each, three copies of each, per link and subcarrier
    digital = links * 64 * 3 * (64 - 8) * 16
    # n_t = 8 sums all 4 links' products at once (4 x 64 x 8 x 8 entries,
    # within COVARIANCE_PRODUCTS); n_t = 64 one link's at a time
    assert 4 * 64 * 8 * 8 <= COVARIANCE_PRODUCTS < 64 * 64 * 64
    cov_small, cov_large = (4 * 64 + links) * 8 * 8 * 16, (64 + links) * 64 * 64 * 16
    assert large.estimated_bytes - small.estimated_bytes == dl + cov_large - cov_small + digital
    # 32 links of n_t = 4 sum their products in one block, of n_t = 8 in
    # blocks of 2 ** 16 // (64 x 8 x 8) = 16 links; the second term holds
    # every link's sum and its SVD factors
    links = 32
    for n_t, block in ((4, 32), (8, 16)):
        dense = config_from_dict({"u": "8", "b": "4", "n_t": str(n_t), "n_rf": "1"})
        dl, digital = links * 64 * n_t * 16, links * 64 * 3 * (1 + n_t + 1 + 1) * 16
        # all 21 Es/N0 points of 32 x 64 cells fit in one evaluation block
        cells = 21 * links * 64 * CELL_BYTES
        rest = dl + digital + cells + dense.expected_records * RECORD_BYTES + dense.tap_count * TAP_BYTES
        assert dense.estimated_bytes - rest == max(block * 64 + links, 6 * links) * n_t * n_t * 16


def test_digital_stage_counts_toward_the_budget():
    # the largest codebook's digital stage counts: three copies of its SVD
    # factors (n_rf^2 + n_ds^2 entries per link and subcarrier), reduced
    # channels and composite beams (n_ds * (n_t + n_rf + n_r)), beside the
    # rows of the added codebooks
    links, n_sc, rows = 4, 64, 2 * 21 * 4
    one = config_from_dict({"n_t": "8", "n_rf": "2", "n_r": "2", "n_ds": "2"})
    three = config_from_dict({"n_t": "8", "n_rf": "2,3,4", "n_r": "2", "n_ds": "2"})
    entries = 3 * ((4 ** 2 + 2 ** 2 + 2 * (8 + 4 + 2)) - (2 ** 2 + 2 ** 2 + 2 * (8 + 2 + 2)))
    assert three.estimated_bytes - one.estimated_bytes == links * n_sc * entries * 16 + 2 * rows * RECORD_BYTES
    # a second, smaller group shares the design block of 2 x 4 x 64 <=
    # DESIGN_CELLS cells: besides its rows, the block counts the largest DL
    # stack and digital stage twice
    two_groups = config_from_dict({"n_t": "2,8", "n_rf": "2", "n_r": "2", "n_ds": "2"})
    assert 2 * links * n_sc <= DESIGN_CELLS
    dl, digital = links * n_sc * 2 * 8 * 16, links * n_sc * 3 * (2 ** 2 + 2 ** 2 + 2 * (8 + 2 + 2)) * 16
    assert two_groups.estimated_bytes - one.estimated_bytes == rows * RECORD_BYTES + dl + digital
    # past DESIGN_CELLS each group is a block of its own: it adds its rows only
    one, two_groups = (config_from_dict({"n_t": n_t, "n_rf": "2", "n_sc": "2048"}) for n_t in ("8", "2,8"))
    assert 2 * links * 2048 > DESIGN_CELLS
    assert two_groups.estimated_bytes - one.estimated_bytes == rows * RECORD_BYTES
    # one stream: G^H H P is one row and its SVD the reduced one, with no
    # n_rf x n_rf factor; n_rf counts once, in the reduced channel
    single = config_from_dict({"n_t": "8", "n_rf": "2"})
    wider = config_from_dict({"n_t": "8", "n_rf": "4"})
    assert wider.estimated_bytes - single.estimated_bytes == links * n_sc * 3 * (4 - 2) * 16


def test_evaluation_block_counts_toward_the_budget():
    # 4 links x 1024 subcarriers: all 21 Es/N0 points fit in one block of at
    # most BLOCK_CELLS cells, and so do 41
    base = config_from_dict({"n_sc": "1024"})
    more = config_from_dict({"n_sc": "1024", "esn0_stop": "40"})
    rows = 2 * 6 * 20 * 4
    assert 41 * 4 * 1024 <= BLOCK_CELLS
    assert more.estimated_bytes - base.estimated_bytes == 20 * 4 * 1024 * CELL_BYTES + rows * RECORD_BYTES
    # 4 links x 8192 subcarriers: a block holds BLOCK_CELLS // 32768 = 8
    # points, so further points add only their rows
    base = config_from_dict({"n_sc": "8192"})
    more = config_from_dict({"n_sc": "8192", "esn0_stop": "40"})
    assert more.estimated_bytes - base.estimated_bytes == rows * RECORD_BYTES


@pytest.mark.parametrize("raw", [
    {"u": "4", "b": "2", "n_t": "16", "n_rf": "16", "n_sc": "256", "esn0_stop": "0"},
    {"n_t": "32", "n_rf": "32", "n_sc": "256", "esn0_stop": "0"},
    {"n_t": "16", "n_rf": "4,8,16", "n_r": "4", "n_ds": "4", "n_sc": "256", "esn0_stop": "0"},
    {"n_t": "32", "n_rf": "1,8,16,24,32", "n_sc": "128", "esn0_stop": "0", "scenario": "mean"},
    {"n_t": "2", "n_rf": "2", "u": "2", "b": "3", "n_sc": "1024", "scenario": "min"},
    {"n_sc": "1024"},
    {"n_t": "2,4,8", "n_rf": "1,2", "u": "2", "b": "2", "n_sc": "682", "esn0_stop": "0"},
    {"u": "16", "b": "4", "n_t": "4", "n_rf": "1", "n_sc": "64", "esn0_stop": "0"},
])
def test_traced_sweep_peak_stays_within_the_estimate(raw):
    # sweeps whose peak is the digital stage's SVD of many RF chains, the
    # fourth only if a codebook's factors go before the next SVD; then two
    # whose peak is the evaluation block of 21 Es/N0 points; then three
    # groups of 4 x 682 cells, which fill one design block of DESIGN_CELLS;
    # then one whose peak is a covariance block of all 64 links'
    # 64 x 4 x 4 products
    cfg = config_from_dict(raw)
    tracemalloc.start()
    try:
        run_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cfg.estimated_bytes


def test_wideband_point_sweep_peak_stays_under_2_6_mb():
    # the benchmark's wideband_point config, where the design sets the peak:
    # 3.68 MB traced while the design took full SVD factors and kept its
    # temporaries across codebooks, 2.34 MB with the leading factors only
    # (numpy 2.4.6)
    path = Path(__file__).resolve().parents[1] / "configs" / "indoor_default.conf"
    cfg = load_config(str(path), {"n_sc": 1024, "esn0_start": 10, "esn0_stop": 10})
    tracemalloc.start()
    try:
        run_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.6e6


def test_dense_gaussian_sweep_peak_stays_under_2_1_mb():
    # the benchmark's dense_gaussian config, whose three groups of 32 x 64
    # cells are one design block: 1.96 MB traced (numpy 2.4.6)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "dense_gaussian.conf"
    cfg = load_config(str(path), {"seed": 1})
    tracemalloc.start()
    try:
        run_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1e6


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
