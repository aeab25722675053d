"""Committed output corpus: what `vrlink simulate` writes, pinned per config.

Each case writes its keys into a config file (every other key takes its
default, which is the shipped configs/indoor_default.conf), runs
``vrlink simulate`` on it with the case's extra flags, and pins two sha256
digests: the bytes of ``results.csv``, and the stdout summary lines with the
output directory replaced by ``OUT``. pytest runs it with RuntimeWarning as
an error, so a case also fails on a numeric warning.

The cases cover the seven goldens (tests/test_golden.py, whose ``GOLDEN``
holds their results.csv digests), the benchmark's
workload configs, the closed-form SVDs' out-of-window fallback
(``fc = 1e300``), delays past 1e100 s (``w`` = 167, 170, 300), rows failing
(a) and (b), an Es/N0 grid down to -40 dB, users with two and three antennas
and one or two data streams, 1024 subcarriers with 8 and 16 antennas,
precoders sliced to one, two, four and eight columns from one analog
design, and three ``--codebook`` lists. Two cases must write the bytes of
another case (``TWINS``): ``--queue-units reciprocal`` those of the
``queue_units = reciprocal`` golden, and a ``--codebook`` list in row order
those of the same codebooks given out of order with a repeat. ``stats``
runs on the ``w = 167`` results, whose delays near 1e129 s test both
statistics, and pins its stdout. Every case of at most 1008 rows and 2^16
(row, subcarrier) cells, twins aside, must also write the bytes of the
whole-sweep scalar oracle (``oracles.sweep_table``), which builds the
table one row, one subcarrier and one link's design at a time. On every
case, the rates and delays each stage returns are non-negative and the
tracking factors and utilities lie in [0, 1], ranges the package itself
does not check at run time.

Every digest was taken on numpy 2.4.6 with its OpenBLAS build on x86-64,
the build the closed-form SVDs and the goldens are checked on. A digest
changes only in a change that declares a correctness fix and names each
config it moves and why.
"""

import hashlib

import numpy as np
import pytest

import oracles
from test_golden import GOLDEN
from vrlink import cli, runner

# name -> (config keys, extra simulate flags)
CASES = {
    **{f"golden_{name}": (keys, ()) for name, (keys, _) in GOLDEN.items()},
    "dense_gaussian_seed3": ({"u": "8", "b": "4", "gain_mode": "gaussian", "esn0_step": "5", "seed": "3"}, ()),
    "wideband_point": ({"n_sc": "1024", "esn0_start": "10", "esn0_stop": "10"}, ()),
    # UL rates down to 1e-306 and delays of about 1e129 s
    "w_167": ({"w": "167"}, ()),
    "w_170": ({"w": "170"}, ()),
    # one user's UL path gain underflows to 0 on every AP: its links fail (b)
    "w_300": ({"w": "300"}, ()),
    # DL amplitudes underflow to 0, below the closed-form SVDs' scaling
    # window, so LAPACK takes every matrix; every link fails (b)
    "fc_1e300": ({"fc": "1e300", "n_sc": "4"}, ()),
    "one_user_per_ap_unreachable_rate": ({"v_j": "1", "r_min": "1e30"}, ()),
    "scenario_min_deterministic": ({"scenario": "min"}, ()),
    "scenario_min_gaussian": ({"scenario": "min", "gain_mode": "gaussian"}, ()),
    "esn0_down_to_minus_40_with_rate_floor": (
        {"esn0_start": "-40", "esn0_step": "7", "esn0_stop": "60", "r_min": "5e8"}, (),
    ),
    "three_receive_antennas": ({"n_t": "16,3,5", "n_rf": "1,2", "n_r": "3", "gain_mode": "gaussian"}, ()),
    "two_receive_antennas_one_stream": (
        {"n_t": "2,4,8", "n_rf": "1,2", "n_r": "2", "gain_mode": "gaussian", "seed": "4"}, (),
    ),
    "two_receive_antennas_two_streams": (
        {"n_t": "4,8", "n_rf": "2,4", "n_r": "2", "n_ds": "2", "gain_mode": "gaussian"}, (),
    ),
    "three_receive_antennas_two_streams": (
        {"n_t": "4,8", "n_rf": "2,3,4", "n_r": "3", "n_ds": "2", "gain_mode": "gaussian", "seed": "5"}, (),
    ),
    "wideband_8_16_antennas": ({"n_sc": "1024", "n_t": "8,16"}, ()),
    "wideband_8_16_antennas_gaussian": (
        {"n_sc": "1024", "n_t": "8,16", "n_rf": "1,2,4,8", "gain_mode": "gaussian", "esn0_start": "10",
         "esn0_stop": "10"},
        (),
    ),
    "eight_antennas_four_rf_counts_seed1": ({"n_t": "8", "n_rf": "1,2,4,8", "gain_mode": "gaussian"}, ()),
    "queue_units_flag_reciprocal": ({}, ("--queue-units", "reciprocal")),
    "codebooks_in_row_order": ({}, ("--codebook", "2x1,8x1,8x2")),
    "codebooks_out_of_order_with_a_repeat": ({}, ("--codebook", "8x2,2x1,8x1,2x1")),
    "codebooks_gaussian_out_of_order": (
        {"gain_mode": "gaussian", "seed": "2"}, ("--codebook", "8x4,2x1,8x1,4x2,8x2,4x1"),
    ),
}

# golden name -> summary sha256; the results.csv sha256 is GOLDEN's
GOLDEN_SUMMARIES = {
    "default": "07c3a153a9881daf97807fdc56a50898edda244ca708390214e0033193401808",
    "dense_gaussian": "dc1805ce5c2effc1dba9bb49213eb9f278718a54c1c17a788b2e5a53fcae7d43",
    "eight_antennas_four_rf_counts": "70f8ad03509911c2eff8428dff86539ef97e8ad7dabbd40cff27de64fb986729",
    "gaussian_seed1": "4f1882e5f664755bb2e061cc6e7299aa2ab63299dcad6c3bfdae7e3143ebe2a4",
    "gaussian_seed7": "c25f3ec9783ff36d94cbc6aa1016c4b1d40330eec53952c5ec6ce393be96e242",
    "reciprocal_queue": "07c3a153a9881daf97807fdc56a50898edda244ca708390214e0033193401808",
    "three_users_16_subcarriers": "4d82ae1d5fb59c33b933217d3467d37784018c81a575012d13233b750631fd93",
}

# name -> (results.csv sha256, summary sha256)
PINS = {
    **{f"golden_{name}": (GOLDEN[name][1], summary) for name, summary in GOLDEN_SUMMARIES.items()},
    "codebooks_gaussian_out_of_order": (
        "7b905a8b4fa16a6a9f49bcdb88723dc02ee50f70053abadec0b12ad484a83b6c",
        "034a8855d64ebb37ef497b47d71bdda19d3ecf3e20d36d50820a4223cff8c502",
    ),
    "codebooks_out_of_order_with_a_repeat": (
        "ec548790c86377e50d9b28871e26bace8bbfe9215a94f7171a19435e22181cb5",
        "46be3ae98e2b339dd7fd6c48ea6800a8c578b4fd76ee718e07820dcd2cc1b5d6",
    ),
    "eight_antennas_four_rf_counts_seed1": (
        "45ff7db025c6af93ac27b8b5576bc9b5d58ea01cf8663a9f831fd096c08fd566",
        "b3f8200f28081e937485d7ac8b61076bf30fb837ca3e89fdec751561ef5a6a4c",
    ),
    "dense_gaussian_seed3": (
        "26cbd3991f5f4aa12464c0de4cd98c51b1612715047c1f19fbaca431b27d2307",
        "227bf03f23e3f8718224c7455c6a5f2e4824f71cfda2bf3d90fbf5184d1b4509",
    ),
    "esn0_down_to_minus_40_with_rate_floor": (
        "12a830c2b5697be1e995421432b49b2805f698224d7e674b4092b4e2b6e64d38",
        "0f50b857451ca0087a25301e369c8abed943f841c14f20da3b48f3abc139966f",
    ),
    "fc_1e300": (
        "bd1854a8aae4d29d66664ff98a38845f3011b0bf54851c5ef9cfd24b94a83925",
        "5e8ef99f48039f772800b9492e6fea75fa158eb7806f21eb4d06b08180e4715f",
    ),
    "one_user_per_ap_unreachable_rate": (
        "2abdba006fd3dc3ae1ff8971a3cf348bf3d33d5fdb9d807baacf44663b966bda",
        "e622b1460d4b60bf62ac1116f38c02fd0eaac7d2bc5053003d40f5f9e3d2429b",
    ),
    "scenario_min_deterministic": (
        "a847df174e508fa85a1c2e95a95bd00abf74fddc18348e589f34d665302f9341",
        "8ecf31fb64b765338a38eb3ffde5f1a22c04b94cc572ed5698e895463558e165",
    ),
    "scenario_min_gaussian": (
        "13d4d72079268113a0ded5a9c1857697e401c15835d2c4618e657baf8838d4f6",
        "6e5d2179ed643d500002177267ee7aef686edacc45161f90600c2385b3a7ce28",
    ),
    "three_receive_antennas": (
        "bf4299f626fe43e23aa166784daa28c4e776117c53f8dd1a39862fe9a6f0eb42",
        "390c387a44299ac115d02d692dfddf4b21728bffb1be713b9ff57f5f9e97da45",
    ),
    "three_receive_antennas_two_streams": (
        "12e68dbca4570ca02f544b37bc781ea5fc9869212526dd711ca6e2237080e889",
        "f3a38eca41cf29e3c53270a4070b49d67f3052696fb5dbe89f875afa553891c2",
    ),
    "two_receive_antennas_one_stream": (
        "eead8ffc692b8da957a29f650b4af35cbe0fcd5a6f37a6e72ce2edb5dc744771",
        "93cc8c46ac5b0f62d5847b633c10acfb9f75fef0ffa1437edde138280f1a5c17",
    ),
    "two_receive_antennas_two_streams": (
        "e77f0415d4b550a757754b4b7682b24e5721fddf18bc8cbf81c843ce6d177350",
        "63865959597ea47919c03ac6cb9238642d6c8abdfce460f2e07825a90ea208d5",
    ),
    "w_167": (
        "b53c72b245829ee56cb10ac41d30c51732b54e10861786f19829e02fbcbc06ab",
        "78e870c2e9c9b78fd11255d58f1a3f5121ff16afc908913d5be6141987efff96",
    ),
    "w_170": (
        "9bbb6588cb7826868503bf7995762f5844da4428777f8140c839a4e0184997b5",
        "756be1b78ffe8dc2848503871ee851fe81741a1207467bcf2532dbc62f93e86f",
    ),
    "w_300": (
        "947de593005d149b7a68d0220ff6c632ab862c53bed6282213daa287f2e0fdd7",
        "09ccc3edc7876c53080ad8ff59beb041a272db7fea804570914eefdb0dc460c0",
    ),
    "wideband_8_16_antennas": (
        "91169bffe916bb3848296055625f1057cf6c3f146c8f2bf3ebb907cab7c2206f",
        "290a6a8e32fdde4cd6c488603f6039b42eb97900b91a925ccca3d4e463030f90",
    ),
    "wideband_8_16_antennas_gaussian": (
        "daf5a22499062c109182f82fad36d60cb7efe9587bdc2a9bf012038b0303d05b",
        "8aaed28ed2d135a572d9d8b5c8fd225730351d4fb95841cdb0529b40e7bbe334",
    ),
    "wideband_point": (
        "796441ded2d9a36544de9ce6e4903453eecc704c202d6cc8331b0aa583380d5f",
        "32568ddf9b02acafdd22176b5238714ec7ba2697a07a59bf46ae5d785a35c291",
    ),
}

# case -> the case whose results.csv and summary it must write byte for byte
TWINS = {
    "queue_units_flag_reciprocal": "golden_reciprocal_queue",
    "codebooks_in_row_order": "codebooks_out_of_order_with_a_repeat",
}
PINS.update({name: PINS[twin] for name, twin in TWINS.items()})

# stats metric -> stdout sha256 of `vrlink stats` on the w_167 case's results.csv
STATS_PINS = {
    "min": "5eebb26651496ed4a8e226adcf9c9af5fdd05c403f093bc1988812819040fee0",
    "mode": "97c0f1ac0cbaa4b62dc162ca7a4f998f4d55eaddb42eeaab40c14ed2d6911727",
}


def simulate(keys: dict, flags: tuple, tmp_path, capsys) -> tuple:
    """sha256 of the results.csv and of the stdout that simulate writes."""
    conf = tmp_path / "corpus.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(conf), "--out", str(out), *flags]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    return (
        hashlib.sha256((out / "results.csv").read_bytes()).hexdigest(),
        hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
    )


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_output_matches_corpus_sha256(name, tmp_path, capsys):
    keys, flags = CASES[name]
    assert simulate(keys, flags, tmp_path, capsys) == PINS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_csv_equals_the_row_by_row_writer(name, tmp_path, capsys, monkeypatch):
    write = cli.write_results_csv

    def both(result, path):
        write(result, path)
        oracles.write_results_csv(result, str(tmp_path / "rows.csv"))

    monkeypatch.setattr(cli, "write_results_csv", both)
    keys, flags = CASES[name]
    simulate(keys, flags, tmp_path, capsys)
    assert (tmp_path / "out" / "results.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


# the cases the whole-sweep scalar oracle skips: more than 1008 rows, or
# more than 2^16 (row, subcarrier) cells, where it takes longest, and the
# twins, whose bytes are their twin's
ORACLE_SKIPS = {"dense_gaussian_seed3", "golden_dense_gaussian", "golden_three_users_16_subcarriers",
                "wideband_8_16_antennas", *TWINS}


@pytest.mark.parametrize("name", sorted(set(CASES) - ORACLE_SKIPS))
def test_results_csv_equals_the_whole_sweep_oracle(name, tmp_path, capsys, monkeypatch):
    configs, run_sweep = [], cli.run_sweep
    monkeypatch.setattr(cli, "run_sweep", lambda config: configs.append(config) or run_sweep(config))
    simulate(*CASES[name], tmp_path, capsys)
    (config,) = configs
    assert config.expected_records <= 1008 and config.expected_records * config.grid.n_sc <= 1 << 16
    oracles.write_results_csv(oracles.sweep_table(config), str(tmp_path / "oracle.csv"))
    assert (tmp_path / "out" / "results.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def in_unit_interval(x) -> bool:
    return bool(np.all((0.0 <= x) & (x <= 1.0)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_rates_delays_and_utilities_keep_their_ranges(name, tmp_path, capsys, monkeypatch):
    # the ranges the sweep's stages do not check at run time, on every
    # array a stage returns and on the table: rates and delays >= 0 (NaN
    # fails), factors and utilities in [0, 1]
    def checked(fn, holds):
        def wrapper(*args):
            out = fn(*args)
            assert holds(out), fn.__name__
            return out
        return wrapper

    monkeypatch.setattr(runner, "compute_metrics", checked(
        runner.compute_metrics, lambda m: np.all(m.rate_ul >= 0) and np.all(m.rate_dl >= 0)))
    monkeypatch.setattr(runner, "transmission_delay", checked(runner.transmission_delay, lambda d: np.all(d >= 0)))
    monkeypatch.setattr(runner, "tracking_factors", checked(runner.tracking_factors, in_unit_interval))
    monkeypatch.setattr(runner, "link_utilities", checked(runner.link_utilities, in_unit_interval))
    tables, write = [], cli.write_results_csv

    def keep(result, path):
        tables.append(result)
        write(result, path)

    monkeypatch.setattr(cli, "write_results_csv", keep)
    simulate(*CASES[name], tmp_path, capsys)
    (table,) = tables
    assert in_unit_interval(table.utility[table.codes == 0])
    assert np.all(table.rate_dl >= 0) and np.all(table.rate_ul >= 0) and np.all(table.d_trans >= 0)


@pytest.mark.parametrize("metric", sorted(STATS_PINS))
def test_stats_output_matches_corpus_sha256(metric, tmp_path, capsys):
    keys, flags = CASES["w_167"]
    assert simulate(keys, flags, tmp_path, capsys) == PINS["w_167"]
    assert cli.main(["stats", "--in", str(tmp_path / "out" / "results.csv"), "--metric", metric]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == STATS_PINS[metric]
