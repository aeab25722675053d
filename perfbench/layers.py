"""Outside-in layer trace: wrap the public functions a sweep calls.

Each hook replaces one module or class attribute of vrlink for the duration
of a traced run and restores it afterwards. A timed hook records a span
(name, start, end, parent, sweep id); a counting hook only counts calls.
Spans stay in memory until the run ends. A hook whose target no longer
exists is reported as missing, so its layer reads as unmeasured, never 0.
"""

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

ROOT_SPAN = "sweep"


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index, sweep id]
        self.counts = defaultdict(int)    # (sweep id, name) -> calls
        self.values = defaultdict(float)  # (sweep id, name) -> accumulated value
        self.sweep = None
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.sweep])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str) -> None:
        self.counts[(self.sweep, name)] += 1

    def add(self, name: str, value: float) -> None:
        self.values[(self.sweep, name)] += value


def _record_dl_bytes(tracer, dl):
    matrices = getattr(dl, "matrices", None)
    if matrices is not None:
        tracer.add("channel.dl_bytes", matrices.nbytes)


def _record_utilities(tracer, utilities):
    tracer.add("qos.utility_values", np.size(utilities))
    tracer.add("qos.utility_nonzero", np.count_nonzero(utilities))


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str           # attribute path below the module, e.g. "Class.method"
    layer: str
    timed: bool = True  # span and call count, or call count only
    on_result: object = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    Hook("vrlink.config", "load_config", "config.resolve"),
    Hook("vrlink.runner", "synthesize_ul", "channel.synth"),
    Hook("vrlink.runner", "synthesize_dl", "channel.synth", on_result=_record_dl_bytes),
    Hook("vrlink.runner", "design_link", "beamforming.design"),
    Hook("vrlink.beamforming", "BeamformingSolution.effective_gain_per_subcarrier", "beamforming.eff_gain"),
    Hook("vrlink.beamforming", "BeamformingSolution.transmit_power", "beamforming.transmit_power"),
    Hook("vrlink.beamforming", "svd", "numerics.svd"),
    Hook("vrlink.runner", "compute_metrics", "linkmetrics.compute"),
    Hook("vrlink.linkmetrics", "sinr_ul", "linkmetrics.sinr_ul", timed=False),
    Hook("vrlink.runner", "link_utilities", "qos.utility", on_result=_record_utilities),
    Hook("vrlink.runner", "transmission_delay", "qos.transmission_delay", timed=False),
    Hook("vrlink.runner", "check_constraints", "runner.constraints"),
    Hook("vrlink.runner", "select_best_codebook", "runner.summary"),
    Hook("vrlink.runner", "min_statistic", "runner.summary"),
    Hook("vrlink.runner", "mode_statistic", "runner.summary"),
    Hook("vrlink.runner", "write_results_csv", "runner.write_csv"),
)

# per-layer metric -> (layer whose hooks it needs, how it is derived)
LAYER_METRICS = {
    "config.resolve_s": ("config.resolve", "seconds"),
    "channel.synth_s": ("channel.synth", "seconds"),
    "channel.synth_calls": ("channel.synth", "calls"),
    "channel.dl_bytes": ("channel.synth", "channel.dl_bytes"),
    "beamforming.design_s": ("beamforming.design", "seconds"),
    "beamforming.design_calls": ("beamforming.design", "calls"),
    "beamforming.eff_gain_s": ("beamforming.eff_gain", "seconds"),
    "beamforming.transmit_power_s": ("beamforming.transmit_power", "seconds"),
    "beamforming.transmit_power_calls": ("beamforming.transmit_power", "calls"),
    "numerics.svd_calls": ("numerics.svd", "calls"),
    "numerics.svd_s": ("numerics.svd", "seconds"),
    "linkmetrics.compute_s": ("linkmetrics.compute", "seconds"),
    "linkmetrics.compute_calls": ("linkmetrics.compute", "calls"),
    "linkmetrics.sinr_ul_calls": ("linkmetrics.sinr_ul", "calls"),
    "qos.utility_s": ("qos.utility", "seconds"),
    "qos.utility_calls": ("qos.utility", "calls"),
    "qos.transmission_delay_calls": ("qos.transmission_delay", "calls"),
    "qos.nonzero_utility_ratio": ("qos.utility", "nonzero_ratio"),
    "runner.constraints_s": ("runner.constraints", "seconds"),
    "runner.summary_s": ("runner.summary", "seconds"),
    "runner.write_csv_s": ("runner.write_csv", "seconds"),
}

# the layers that prepare a codebook, as against evaluating its sweep points
PREPARE_LAYERS = ("channel.synth", "beamforming.design", "beamforming.eff_gain")


def _resolve(hook: Hook):
    """(owner object, attribute name, current value), or None when missing."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


def _wrap(tracer: Tracer, hook: Hook, fn):
    if not hook.timed:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(hook.layer)
            return fn(*args, **kwargs)
        return counted

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        span = tracer.open(hook.layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook.on_result is not None:
            hook.on_result(tracer, out)
        return out
    return timed


def missing_hooks() -> list:
    """Targets of the hooks that no longer exist."""
    return [hook.target for hook in HOOKS if _resolve(hook) is None]


class installed:
    """Context manager: every existing hook wrapped on entry, restored on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._restore = []

    def __enter__(self):
        for hook in HOOKS:
            found = _resolve(hook)
            if found is None:
                continue
            owner, name, fn = found
            self._restore.append((owner, name, fn))
            setattr(owner, name, _wrap(self.tracer, hook, fn))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False


def unmeasured(missing) -> dict:
    """Per-layer metric -> the missing hook target that leaves it unmeasured."""
    missing_layers = {h.layer: h.target for h in HOOKS if h.target in missing}
    out = {
        metric: missing_layers[layer]
        for metric, (layer, _) in LAYER_METRICS.items()
        if layer in missing_layers
    }
    for layer in PREPARE_LAYERS:
        if layer in missing_layers:
            out["trace.prepare_share"] = missing_layers[layer]
    return out


def sweep_metrics(tracer: Tracer, sweep) -> dict:
    """Per-layer numbers for one traced sweep, from its spans and counts.

    A derived value whose inputs were never recorded is None (unmeasured).
    """
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == sweep]
    seconds = defaultdict(float)
    calls = defaultdict(int)
    for _, (name, start, end, _, _) in spans:
        seconds[name] += end - start
        calls[name] += 1
    for (sid, name), n in tracer.counts.items():
        if sid == sweep:
            calls[name] += n
    root = next(i for i, s in spans if s[0] == ROOT_SPAN)
    child_s = sum(end - start for _, (_, start, end, parent, _) in spans if parent == root)

    def value(layer, kind):
        if kind == "seconds":
            return seconds[layer]
        if kind == "calls":
            return calls[layer]
        if kind == "nonzero_ratio":
            total = tracer.values.get((sweep, "qos.utility_values"))
            return tracer.values[(sweep, "qos.utility_nonzero")] / total if total else None
        return tracer.values.get((sweep, kind))

    out = {metric: value(layer, kind) for metric, (layer, kind) in LAYER_METRICS.items()}
    out["trace.sweep_s"] = seconds[ROOT_SPAN]
    out["runner.self_s"] = seconds[ROOT_SPAN] - child_s
    out["trace.prepare_share"] = sum(seconds[layer] for layer in PREPARE_LAYERS) / seconds[ROOT_SPAN]
    return out
