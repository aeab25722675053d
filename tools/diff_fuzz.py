"""Differential fuzz of the CLI's input checks on two checkouts.

    python3 tools/diff_fuzz.py --parent ../parent --change . --seeds 200 --draws 60

Seed k draws ``--draws`` config dicts with ``tests/test_fuzz.draw``, each
followed by ``simulate`` override flags from ``tests/test_fuzz.draw_flags``,
from ``np.random.default_rng([k, 8])``, the stream tier-1's fuzz test uses
for seeds 0-3. Every config goes through ``vrlink check-config``; an
accepted one that ``small_enough`` passes also goes through ``vrlink
simulate`` with its flags. Each checkout runs all of its draws in one
worker process with its own ``src`` first on the path, RuntimeWarning as
an error, and the same relative file names, so a message that names the
config file reads the same on both sides. ``draw``, ``draw_flags`` and
``small_enough`` are read from the change's tests.

The exit code, stdout and stderr of every command must be equal byte for
byte; an exception that escapes ``main`` counts as exit code ``raised``
with its type and message as stderr. A ``simulate`` that exits 0 must also
write a ``results.csv`` that keeps the model's invariants
(``tests/test_fuzz.invariant_violations``) and print a summary whose
minimum transmission delays ``vrlink stats --metric min`` reads back from
that file (``tests/test_fuzz.summary_violations``). Each difference and
each broken invariant is printed, and the exit status is 1 if there is any.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np


def load_fuzz(tests: Path):
    """tests/test_fuzz.py as a module; it imports vrlink from the current path."""
    spec = importlib.util.spec_from_file_location("test_fuzz", tests / "test_fuzz.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(main, argv: list) -> list:
    """[exit code, stdout, stderr] of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as e:  # a traceback at the command line
            code = "raised"
            err.write(f"{type(e).__name__}: {e}\n")
    return [code, out.getvalue(), err.getvalue()]


def worker(src: Path, tests: Path) -> int:
    """Answer one JSON line per [config dict, simulate flags] pair read from stdin."""
    sys.path.insert(0, str(src))
    warnings.simplefilter("error", RuntimeWarning)
    fuzz = load_fuzz(tests)
    import vrlink

    if not Path(vrlink.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"worker imported {vrlink.__file__}, not the checkout's {src}")
    reply = sys.stdout
    for line in sys.stdin:
        raw, flags = json.loads(line)
        Path("fuzz.conf").write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
        check = run_cli(fuzz.main, ["check-config", "--config", "fuzz.conf"])
        simulate, broken = None, []
        if check[0] == 0 and fuzz.small_enough(fuzz.load_config("fuzz.conf")):
            simulate = run_cli(fuzz.main, ["simulate", "--config", "fuzz.conf", "--out", "out", *flags])
            if simulate[0] == 0:
                broken = fuzz.invariant_violations("out/results.csv")
                broken += fuzz.summary_violations("out/results.csv", simulate[1])
        reply.write(json.dumps({"check-config": check, "simulate": simulate, "broken": broken}) + "\n")
        reply.flush()
    return 0


def start(checkout: Path, tests: Path, workdir: str) -> subprocess.Popen:
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout / "src"), str(tests)]
    return subprocess.Popen(argv, cwd=workdir, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--seeds", type=int, default=200, help="seeds 0 .. N-1")
    parser.add_argument("--draws", type=int, default=60, help="config dicts per seed")
    parser.add_argument("--worker", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(*(path.resolve() for path in args.worker))
    if args.parent is None or args.change is None:
        parser.error("need --parent and --change")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    tests = sides["change"] / "tests"
    sys.path.insert(0, str(sides["change"] / "src"))
    fuzz = load_fuzz(tests)

    counts = {"draws": 0, "accepted": 0, "simulated": 0, "flagged": 0, "ran": 0, "differences": 0, "broken": 0}
    with contextlib.ExitStack() as stack:
        workers = {}
        for side, checkout in sides.items():
            workdir = stack.enter_context(tempfile.TemporaryDirectory(prefix=f"diff_fuzz_{side}_"))
            workers[side] = stack.enter_context(start(checkout, tests, workdir))
        for seed in range(args.seeds):
            rng = np.random.default_rng([seed, 8])
            for k in range(args.draws):
                raw, flags = fuzz.draw(rng), fuzz.draw_flags(rng)
                for proc in workers.values():
                    proc.stdin.write(json.dumps([raw, flags]) + "\n")
                    proc.stdin.flush()
                answers = {}
                for side, proc in workers.items():
                    line = proc.stdout.readline()
                    if not line:
                        raise SystemExit(f"{side} worker stopped at seed {seed} draw {k}")
                    answers[side] = json.loads(line)
                simulate = answers["change"]["simulate"]
                counts["draws"] += 1
                counts["accepted"] += answers["change"]["check-config"][0] == 0
                counts["simulated"] += simulate is not None
                counts["flagged"] += simulate is not None and bool(flags)
                counts["ran"] += simulate is not None and simulate[0] == 0
                counts["broken"] += bool(answers["change"]["broken"])
                if answers["parent"] != answers["change"] or answers["change"]["broken"]:
                    counts["differences"] += answers["parent"] != answers["change"]
                    print(f"seed {seed} draw {k}: {raw} {' '.join(flags)}")
                    for side, answer in answers.items():
                        print(f"  {side}: {json.dumps(answer)}")
        for proc in workers.values():
            proc.stdin.close()
    print(" ".join(f"{name}={value}" for name, value in counts.items()))
    return 1 if counts["differences"] or counts["broken"] else 0


if __name__ == "__main__":
    sys.exit(main())
