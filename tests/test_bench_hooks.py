"""The benchmark's layer trace still finds every function it wraps.

perfbench/layers.py wraps named vrlink functions from outside; a hook whose
target was renamed or deleted leaves its layer unmeasured. This test loads
that file by path, without importing the benchmark as a package, and fails
when any hook target is missing.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_target_exists():
    assert load_layers().missing_hooks() == []
