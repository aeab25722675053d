"""Golden-CSV gate: results.csv must stay byte-identical across refactors.

Each hash is the sha256 of the results.csv that the scalar reference
implementation wrote for the config; the last one was taken from the
per-codebook design that preceded the shared analog stages. A refactor
that changes any printed digit fails here. Regenerate a hash only for a
declared correctness fix, in a change of its own, with the reason stated
in CHANGES.md.
"""

import hashlib

import pytest

from vrlink.config import config_from_dict
from vrlink.runner import run_sweep, write_results_csv

GOLDEN = {
    "default": (
        {},
        "1402f083029906b65cd6e8488434a9c819821cff8e8e89986ad210d6b3a764f4",
    ),
    "gaussian_seed1": (
        {"gain_mode": "gaussian", "seed": "1"},
        "2abf9d3d0295504cb61eebf66ee70d0308a9b704f5d7c0e2dfe155d3f1272398",
    ),
    "gaussian_seed7": (
        {"gain_mode": "gaussian", "seed": "7"},
        "7b4d4520cfe0b8516786540ccb1d21bccf41e9379823ba8b62d986edd78119a6",
    ),
    "reciprocal_queue": (
        {"queue_units": "reciprocal"},
        "3d87daf831206d59868aea66c34a5aafe7517ddae43ab5ebf7c88db7d69c471c",
    ),
    "dense_gaussian": (
        {"u": "8", "b": "4", "gain_mode": "gaussian", "esn0_step": "5"},
        "59e75d74a01c3972ab78f92961dad422143e324facc8513ff42173eba026eb7e",
    ),
    "three_users_16_subcarriers": (
        {"u": "3", "b": "2", "n_sc": "16"},
        "ade304c0ad9bb0293fda221c8f0754818f71968706a6db9f4246568f7c5564f8",
    ),
    # analog precoders of up to eight columns, each codebook's a slice of
    # the widest one in its antenna group
    "eight_antennas_four_rf_counts": (
        {"n_t": "8", "n_rf": "1,2,4,8", "gain_mode": "gaussian", "seed": "3"},
        "6db3a540fe81f0a90ee0fdb14978a0da4c8c6425a126e127f0d316b3d78a5595",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_csv_matches_golden_sha256(name, tmp_path):
    raw, expected = GOLDEN[name]
    path = tmp_path / "results.csv"
    write_results_csv(run_sweep(config_from_dict(raw)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected
