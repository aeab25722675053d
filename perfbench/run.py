"""Sweep benchmark for vrlink.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) as a closed loop of back-to-back
sweeps in one process and one thread, through the public library path
load_config -> run_sweep -> write_results_csv, until --seconds have passed.
Every sweep's results.csv is checked. The last line of stdout is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Metric names and units come from BENCHMARK.json. A fuller result
file, with host context and the spans of a traced run, goes to .bench_out/.

With --trace 0, a timer signal samples the host's speed during every
sweep (host.HostSpeed), and the gated sweep time is scaled to the host's
nominal speed. With --trace 1, untraced sweeps alternate with traced ones,
whose layer calls are wrapped from outside (layers.py).
"""

import os

# one BLAS thread, before numpy loads: the sweep's matrices are at most 8x8
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from pathlib import Path

import host
import layers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "vrlink"
OUT_DIR = ROOT / ".bench_out"

CSV_HEADER = (
    "scenario,n_tx,n_rf,esn0_db,ap,user,rate_dl_bps,rate_ul_bps,"
    "d_trans_s,d_proc_s,d_queue_s,d_total_s,utility,feasible,violations"
)
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 60
SETUP_PROBE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from vrlink.config import load_config\n"
    "load_config(sys.argv[2], json.loads(sys.argv[3]))\n"
)
MAX_PROBLEMS = 5
MIN_TRACED = 2  # traced sweeps per run, even past --seconds


def import_vrlink():
    """The vrlink package of this checkout, never an installed copy."""
    init = PACKAGE / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no vrlink package at {init}")
    sys.path.insert(0, str(SRC))
    import vrlink
    import vrlink.cli
    import vrlink.config
    import vrlink.runner

    if Path(vrlink.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported vrlink from {vrlink.__file__}, not {init}")
    return vrlink


def check_csv(text: str, records: int):
    """Seed-independent invariants of one results.csv: (problems, feasible rows)."""
    problems = []
    lines = text.split("\n")
    if lines[-1] != "":
        problems.append("results.csv does not end with a newline")
    if lines[0] != CSV_HEADER:
        problems.append(f"header {lines[0]!r} differs from the pinned header")
    rows = lines[1:-1]
    if len(rows) != records:
        problems.append(f"{len(rows)} rows, expected {records}")
    feasible = 0
    prev = None
    for n, row in enumerate(csv.reader(rows), 2):
        if len(problems) >= MAX_PROBLEMS:
            break
        try:
            key = (row[0], int(row[1]), int(row[2]), float(row[3]), int(row[4]), int(row[5]))
            rate_dl, rate_ul = float(row[6]), float(row[7])
            utility = float(row[12]) if row[12] else None
            flag = row[13]
        except (IndexError, ValueError) as e:
            problems.append(f"line {n}: cannot parse {row!r}: {e}")
            continue
        if prev is not None and not key > prev:
            problems.append(f"line {n}: key {key} not above the previous {prev}")
        prev = key
        if not (rate_dl >= 0 and rate_ul >= 0):
            problems.append(f"line {n}: negative or NaN rate ({rate_dl}, {rate_ul})")
        if utility is not None and not 0.0 <= utility <= 1.0:
            problems.append(f"line {n}: utility {utility} outside [0, 1]")
        if flag not in ("true", "false"):
            problems.append(f"line {n}: feasible flag {flag!r}")
        feasible += flag == "true"
    return problems, feasible


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def summary_sha256(summary) -> str:
    """Hash of the summary table, kept apart from the CSV hash."""
    text = json.dumps(_canonical(summary), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Session:
    """One benchmark run: runs and checks sweeps, and counts their outcomes."""

    def __init__(self, vrlink, workload, seed: int, csv_path: Path):
        self.vrlink = vrlink
        self.workload = workload
        self.seed = seed
        self.conf = str(ROOT / workload.conf)
        self.overrides = workload.resolve_overrides(seed)
        self.csv_path = csv_path
        self.config = vrlink.config.load_config(self.conf, self.overrides)
        self.attempted = 0
        self.failed = 0
        self.failures = []            # messages of the failed operations
        self.csv_sha256 = None
        self.summary_sha256 = None
        self.runtime_warnings = []    # per sweep that returned
        self.warning_messages = set()
        self.feasible_ratio = []      # per checked sweep

    def fail(self, *messages: str) -> None:
        """Count one failed operation."""
        self.failed += 1
        self.failures.extend(messages)

    def sweep(self, tracer=None, speed=None):
        """One timed sweep plus its checks; wall seconds, or None when it failed.

        A host.HostSpeed given as `speed` samples the host during the sweep.
        """
        self.attempted += 1
        runner = self.vrlink.runner
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                config = self.config
                if tracer is not None:
                    config = self.vrlink.config.load_config(self.conf, self.overrides)
                    span = tracer.open(layers.ROOT_SPAN)
                start = time.perf_counter()
                try:
                    with speed if speed is not None else contextlib.nullcontext():
                        result = runner.run_sweep(config)
                        runner.write_results_csv(result, str(self.csv_path))
                finally:
                    elapsed = time.perf_counter() - start
                    if tracer is not None:
                        tracer.close(span)
        except Exception:
            self.fail(traceback.format_exc())
            return None
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        self.runtime_warnings.append(len(runtime))
        self.warning_messages.update(f"{w.category.__name__}: {w.message}" for w in runtime)
        return elapsed if self.check(result) else None

    def check(self, result) -> bool:
        data = self.csv_path.read_bytes()
        problems, feasible = check_csv(data.decode("utf-8", errors="replace"), self.workload.records)
        sha = hashlib.sha256(data).hexdigest()
        pinned = self.workload.pinned_sha256(self.seed)
        if pinned is not None and sha != pinned:
            problems.append(f"results.csv sha256 {sha} differs from the pinned {pinned}")
        if self.csv_sha256 is not None and sha != self.csv_sha256:
            problems.append("results.csv differs between two sweeps of one run")
        summary = summary_sha256(result.summary)
        if self.summary_sha256 is not None and summary != self.summary_sha256:
            problems.append("summary differs between two sweeps of one run")
        self.csv_sha256 = self.csv_sha256 or sha
        self.summary_sha256 = self.summary_sha256 or summary
        self.feasible_ratio.append(feasible / self.workload.records)
        if problems:
            self.fail(*problems)
        return not problems

    def loop(self, deadline: float) -> tuple:
        """Back-to-back sweeps while the next one should end by the deadline.

        Returns the sweeps' wall times and their times at nominal host speed.
        """
        samples, nominal = [], []
        while True:
            speed = host.HostSpeed()
            if (elapsed := self.sweep(speed=speed)) is None:
                break
            samples.append(elapsed)
            nominal.append(speed.nominal_s())
            if time.perf_counter() + elapsed > deadline:
                break
        return samples, nominal

    def cli_check(self) -> None:
        """The library CSV must equal what `vrlink simulate` writes."""
        self.attempted += 1
        out = OUT_DIR / f"cli-{self.workload.name}-seed{self.seed}"
        argv = ["simulate", "--config", self.conf, "--out", str(out), "--seed", str(self.seed)]
        try:
            with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = self.vrlink.cli.main(argv)
        except Exception:
            self.fail(traceback.format_exc())
            return
        if code != 0:
            self.fail(f"vrlink {' '.join(argv)} exited {code}")
        elif (out / "results.csv").read_bytes() != self.csv_path.read_bytes():
            self.fail("vrlink simulate wrote another results.csv than the library path")


def measure_setup(session: Session) -> list:
    """Wall seconds from a fresh interpreter to a resolved SweepConfig."""
    argv = [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), session.conf, json.dumps(session.overrides)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
    return times


def tail(samples: list):
    """Highest percentile with at least ten samples above it, with the count."""
    n = len(samples)
    if n < 11:
        return {"samples": n, "percentile": None, "value": None}
    return {"samples": n, "percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def src_lines() -> dict:
    """Line count per module of the vrlink package, plus the total."""
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "init" if path.stem == "__init__" else path.stem
        counts[f"{module}.src_lines"] = path.read_bytes().count(b"\n")
    counts["package.src_lines"] = sum(counts.values())
    return counts


def end_to_end(session: Session, seconds: int, report: dict) -> dict:
    setup = measure_setup(session)
    samples, nominal = session.loop(time.perf_counter() + seconds)
    report["setup_s_samples"] = setup
    report["sweep_s_samples"] = samples
    report["sweep_s_norm_samples"] = nominal
    if not samples:
        return {"setup_s": statistics.median(setup)}
    report["sweep_s_median"] = statistics.median(samples)
    report["sweep_s_norm_tail"] = tail(nominal)
    sweep_s_norm = statistics.median(nominal)
    report["host_speed"] = sweep_s_norm / report["sweep_s_median"]
    return {
        "sweep_s_norm": sweep_s_norm,
        "records_per_s_norm": session.workload.records / sweep_s_norm,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def per_layer(session: Session, seconds: int, report: dict) -> dict:
    """Untraced and traced sweeps alternate, so both see the same host."""
    deadline = time.perf_counter() + seconds
    report["missing_hooks"] = layers.missing_hooks()
    tracer = layers.Tracer()
    untraced, traced, warned = [], [], []
    while (plain := session.sweep()) is not None:
        untraced.append(plain)
        tracer.sweep = len(traced)
        with layers.installed(tracer):
            elapsed = session.sweep(tracer)
        if elapsed is None:
            break
        traced.append(elapsed)
        warned.append(session.runtime_warnings[-1])
        if len(traced) >= MIN_TRACED and time.perf_counter() + plain + elapsed > deadline:
            break
    report["sweep_s_samples"] = untraced
    report["traced_sweep_s_samples"] = traced
    report["spans_file"] = write_spans(tracer, session)
    gone = layers.unmeasured(report["missing_hooks"])
    metrics = src_lines()
    if not traced:
        return metrics
    per_sweep = [layers.sweep_metrics(tracer, k) for k in range(len(traced))]
    for name in per_sweep[0]:
        values = [m[name] for m in per_sweep]
        if name not in gone and None not in values:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = min(traced) - min(untraced)
    metrics["runner.feasible_ratio"] = statistics.median(session.feasible_ratio)
    metrics["runner.numeric_warnings"] = statistics.median(warned)
    return metrics


def write_spans(tracer, session: Session) -> str:
    path = OUT_DIR / f"{session.workload.name}-seed{session.seed}-spans.json"
    rows = [
        {"name": n, "start": s, "end": e, "parent": p, "sweep": k}
        for n, s, e, p, k in tracer.spans
    ]
    path.write_text(json.dumps(rows))
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    vrlink = import_vrlink()
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    session = Session(vrlink, workload, args.seed, OUT_DIR / f"{stem}.csv")

    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    report["host"] = host.context()
    if args.trace:
        measured = per_layer(session, args.seconds, report)
        wanted = declared["per_layer"]
    else:
        measured = end_to_end(session, args.seconds, report)
        wanted = declared["end_to_end"]
    if workload.cli_check:
        session.cli_check()

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in measured}
    why = layers.unmeasured(report.get("missing_hooks", []))
    unmeasured = {m["name"]: why.get(m["name"], "no value in this run") for m in wanted if m["name"] not in measured}
    report.update(
        csv_sha256=session.csv_sha256,
        csv_sha256_pinned=workload.pinned_sha256(args.seed),
        summary_sha256=session.summary_sha256,
        runtime_warnings=session.runtime_warnings,
        warning_messages=sorted(session.warning_messages),
        attempted=session.attempted,
        failed=session.failed,
        failure_rate=session.failed / session.attempted,
        failures=session.failures,
        unmeasured=unmeasured,
        metrics=metrics,
    )
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=repr))

    for name, reason in unmeasured.items():
        print(f"unmeasured: {name} ({reason})", file=sys.stderr)
    for failure in session.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "sweep_s_median" in report:
        t = report["sweep_s_norm_tail"]
        beyond = f", p{t['percentile']:.0f} {t['value']:.6g} s" if t["value"] is not None else ""
        print(f"sweep_s_norm over {t['samples']} sweeps{beyond}")
        print(f"raw sweep_s median {report['sweep_s_median']:.6g} s, host speed {report['host_speed']:.4g} of nominal")
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted, "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
