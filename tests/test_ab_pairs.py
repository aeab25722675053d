"""The verdicts of tools/ab_pairs.py's summary, on synthetic pairs.

The tool is loaded by path, as the benchmark's layers are in
test_bench_hooks.py; no benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

AB_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", AB_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(parent: list, change: list) -> dict:
    """Pairs of result files that hold one metric, ``m``."""
    return {
        str(seed): {side: {"metrics": {"m": {"value": v}}} for side, v in (("parent", p), ("change", c))}
        for seed, (p, c) in enumerate(zip(parent, change))
    }


# the parent reads 1.00 .. 1.09: median 1.045, IQR 0.045
PARENT = [1.0 + k / 100 for k in range(10)]


@pytest.mark.parametrize("change, better, verdict", [
    # every pair won, by a median gap of 0.1 > IQR
    ([p - 0.1 for p in PARENT], "lower", "gain"),
    ([p + 0.1 for p in PARENT], "higher", "gain"),
    # 9 of 10 pairs won still counts; 8 of 10 does not
    ([p - 0.1 for p in PARENT[:9]] + [PARENT[9] + 0.1], "lower", "gain"),
    ([p - 0.1 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]], "lower", "within bound"),
    # every pair won, but by a median gap of 0.02 < IQR
    ([p - 0.02 for p in PARENT], "lower", "within bound"),
    # worse by 0.3 of the parent's median, past the bound of 0.25
    ([p + 0.3 * 1.045 for p in PARENT], "lower", "worse"),
    ([p - 0.3 * 1.045 for p in PARENT], "higher", "worse"),
    # worse by 0.2 of the parent's median, inside the bound
    ([p + 0.2 * 1.045 for p in PARENT], "lower", "within bound"),
    # the same runs
    (PARENT, "lower", "within bound"),
])
def test_verdicts(change, better, verdict):
    declared = [{"name": "m", "unit": "s", "better": better, "bound": 0.25}]
    summary = load_ab_pairs().summarize(pairs_of(PARENT, change), declared)["m"]
    assert summary["verdict"] == verdict
    assert summary["pairs"] == 10


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # parent IQR 0.5 over a median of 1.0; the change's median lies 0.2 below
    parent = [0.5, 0.75, 1.0, 1.25, 1.5] * 2
    change = [p - 0.2 for p in parent]
    declared = [{"name": "m", "unit": "s", "better": "lower", "bound": 0.25}]
    assert load_ab_pairs().summarize(pairs_of(parent, change), declared)["m"]["verdict"] == "unresolved"


def test_fewer_than_ten_pairs_claim_no_gain():
    declared = [{"name": "m", "unit": "s", "better": "lower", "bound": 0.25}]
    summary = load_ab_pairs().summarize(pairs_of(PARENT[:9], [p - 0.1 for p in PARENT[:9]]), declared)["m"]
    assert (summary["wins"], summary["pairs"], summary["verdict"]) == (9, 9, "within bound")
