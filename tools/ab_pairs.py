"""Alternating A/B pairs of the sweep benchmark on two checkouts.

    python3 tools/ab_pairs.py --parent ../parent --change . --workload paper_sweep \
        --workload wideband_point --pairs 10 --seconds 30 --seed-base 18001 --out ab.json

For each workload W, in the order given, pair k runs ``perfbench/run.py
--workload W --seed <seed-base + k> --seconds S --trace 0`` once in each
checkout, one after the other; the parent runs first in even pairs and the
change first in odd ones, so a slow spell on the host does not always land
on one side. Each side runs its own perfbench and src, so both must hold
the workload, from a fresh copy in a temporary directory: the checkout's
files that git tracks, as they are in the working tree, and the untracked
ones that .gitignore does not exclude. What a checkout's earlier builds and
runs left there (bytecode caches, .bench_out) does not reach the runs, and
moves neither side's peak_rss_mb. Each checkout must be a git work tree.

Around each run it reads the ``RUSAGE_CHILDREN`` usage of this process, so
that the run's minor page faults and system CPU seconds, the benchmark's
setup probes included, go into its result file as ``rusage`` and into the
printed pair line.

For every end-to-end metric that BENCHMARK.json declares (read from the
change's checkout) it prints each pair, both sides' medians, the parent's
interquartile range, the number of pairs the change wins (ties count for
neither side) and a verdict, the first of these that holds:

- ``gain``: at least ten pairs ran, the change wins at least nine tenths of
  them, and its median is better than the parent's by more than the
  parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's ``bound``, as a share of the parent's median;
- ``unresolved``: the parent's own interquartile range, as a share of its
  median, is wider than that bound;
- ``within bound``: any other result.

The JSON file is keyed by workload, the layout of a ``BENCH_<n>.json``; each
workload holds, per pair, both runs' result files as perfbench wrote them to
.bench_out/, and that summary. The exit status is 1 if any sweep of any run
failed (raised, or wrote a wrong results.csv).
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def fresh_copy(checkout: Path, into: Path) -> Path:
    """Copy the checkout's tracked and not-ignored untracked files into ``into``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=checkout, capture_output=True, text=True)
    if listed.returncode != 0:
        raise SystemExit(f"{checkout}: git ls-files exited {listed.returncode}\n{listed.stderr}")
    for name in filter(None, listed.stdout.split("\0")):
        if (checkout / name).is_file():  # a tracked file may be deleted in the work tree
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(checkout / name, into / name)
    return into


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in a checkout: its result file, with the
    run's minor page faults and system CPU seconds under ``rusage``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}\n{done.stderr}")
    report = json.loads((checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    report["rusage"] = {"minor_faults": after.ru_minflt - before.ru_minflt,
                        "system_s": after.ru_stime - before.ru_stime}
    return report


def quartiles(values: list) -> tuple:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def summarize(pairs: dict, declared: list) -> dict:
    """Per metric: both sides' quartiles, the parent's IQR, the change's
    wins and the verdict (see the module docstring)."""
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs.values()]
        change = [p["change"]["metrics"][name]["value"] for p in pairs.values()]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_q, c_q = quartiles(parent), quartiles(change)
        iqr, gap = p_q[2] - p_q[0], c_q[1] - p_q[1]
        better_gap = -gap if lower else gap
        tolerated = metric["bound"] * abs(p_q[1])
        if len(parent) >= 10 and 10 * wins >= 9 * len(parent) and better_gap > iqr:
            verdict = "gain"
        elif -better_gap > tolerated:
            verdict = "worse"
        elif iqr > tolerated:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent_quartiles": p_q, "change_quartiles": c_q,
            "parent_iqr": iqr, "median_gap": gap,
            "wins": wins, "pairs": len(parent),
            "verdict": verdict,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for more workloads")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, help="JSON file for every run and the summary")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("need --pairs >= 1")
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as scratch:
        sides = {side: fresh_copy(path.resolve(), Path(scratch) / side)
                 for side, path in (("parent", args.parent), ("change", args.change))}
        return run_pairs(args, sides)


def run_pairs(args, sides: dict) -> int:
    """Every workload's pairs on the two copies; prints and writes the record."""
    declared = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    record, ok = {}, True
    for workload in args.workload:
        pairs = {}
        for k in range(args.pairs):
            seed = args.seed_base + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {side: run(sides[side], workload, seed, args.seconds) for side in order}
            pairs[str(seed)] = {"first": order[0], **pair}
            ok &= all(report["failed"] == 0 for report in pair.values())
            shown = [(m["name"], ".6g", *(pair[side]["metrics"][m["name"]]["value"] for side in ("parent", "change")))
                     for m in declared]
            shown += [(name, spec, pair["parent"]["rusage"][name], pair["change"]["rusage"][name])
                      for name, spec in (("minor_faults", "d"), ("system_s", ".3f"))]
            line = "  ".join(f"{name} {parent:{spec}} -> {change:{spec}}" for name, spec, parent, change in shown)
            print(f"{workload} seed {seed} ({order[0]} first): {line}", flush=True)

        summary = summarize(pairs, declared)
        for name, s in summary.items():
            print(
                f"{workload} {name}: median {s['parent_quartiles'][1]:.6g} -> {s['change_quartiles'][1]:.6g}"
                f" {s['unit']} (gap {s['median_gap']:+.6g}, parent IQR {s['parent_iqr']:.6g}),"
                f" change better in {s['wins']}/{s['pairs']} pairs ({s['better']} is better): {s['verdict']}"
            )
        record[workload] = {"seconds": args.seconds, "seed_base": args.seed_base, "pairs": pairs, "summary": summary}
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1, default=repr))
    if not ok:
        print("a sweep failed; see the failures in the result files", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
