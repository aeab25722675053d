"""Command-line front end.

Subcommands: simulate (full sweep to CSV), stats (min/mode of transmission
delay from a results CSV), check-config (validate and describe a config).
Exit codes: 0 success, 2 configuration problem, 3 I/O problem.
"""

import argparse
import csv
import dataclasses
import itertools
import math
import os
import sys

from .beamforming import Codebook
from .config import KEYS, MAX_SWEEP_BYTES, QUEUE_UNIT_PRESETS, load_config, parse_esn0_range
from .errors import ConfigurationError, InvalidInputError
from .runner import min_statistic, mode_statistic, run_sweep, write_results_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrlink",
        description="Indoor mmWave MU-MIMO link simulator: hybrid beamforming, delays, QoS utility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the full sweep and write results.csv")
    sim.add_argument("--config", required=True, help="path to a key = value config file")
    sim.add_argument("--out", default=".", help="output directory (default: current)")
    sim.add_argument("--scenario", choices=["mean", "min", "both"], help="override the scenario list")
    sim.add_argument("--seed", type=int, help="override the random seed")
    sim.add_argument("--esn0", help="override the Es/N0 grid as start:step:stop in dB")
    sim.add_argument("--codebook", help="override codebooks, comma list like 2x1,4x2")
    sim.add_argument(
        "--queue-units",
        choices=["paper", "reciprocal"],
        dest="queue_units",
        help="queue-rate preset; sets mu and lambda over the config's values",
    )

    st = sub.add_parser("stats", help="min/mode transmission-delay statistics from a results CSV")
    st.add_argument("--in", dest="in_path", required=True, help="results.csv produced by simulate")
    st.add_argument("--metric", choices=["min", "mode"], required=True)
    st.add_argument("--bin", type=float, default=KEYS["mode_bin"][1], help="bin width in seconds for the mode metric")

    chk = sub.add_parser("check-config", help="validate a config file and describe the sweep")
    chk.add_argument("--config", required=True)
    return parser


def _cmd_simulate(args) -> int:
    overrides = {}
    if args.scenario:
        overrides["scenario"] = args.scenario
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.queue_units:
        overrides["mu"], overrides["lambda"] = QUEUE_UNIT_PRESETS[args.queue_units]
    if args.esn0:
        start, step, stop = parse_esn0_range(args.esn0)
        overrides["esn0_start"] = start
        overrides["esn0_step"] = step
        overrides["esn0_stop"] = stop
    config = load_config(args.config, overrides)
    if args.codebook:
        first = config.codebooks[0]
        books = tuple(
            Codebook.from_string(part, n_rx=first.n_rx, n_ds=first.n_ds)
            for part in args.codebook.split(",")
            if part.strip()
        )
        config = dataclasses.replace(config, codebooks=books)

    result = run_sweep(config)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "results.csv")
    write_results_csv(result, out_path)
    print(f"wrote {out_path} ({result.codes.size} records)")
    print("scenario,codebook,utility_mean,d_trans_min_s,d_trans_mode_s")
    # in the table's order, like results.csv
    for scenario, cb in itertools.product(result.scenarios, result.codebooks):
        row = result.summary["per_codebook"][(scenario.value, cb.label)]
        print(
            f"{scenario.value},{cb.label},{row['utility_mean']:.9g},"
            f"{row['d_trans_min_s']:.9g},{row['d_trans_mode_s']:.9g}"
        )
    return EXIT_OK


def _cmd_stats(args) -> int:
    try:
        with open(args.in_path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "d_trans_s" not in reader.fieldnames:
                raise ConfigurationError(f"{args.in_path} is not a results CSV (missing d_trans_s)")
            groups = {}
            for row in reader:
                try:
                    key = (row["scenario"], int(row["n_tx"]), int(row["n_rf"]))
                    value = float(row["d_trans_s"])
                except (KeyError, TypeError, ValueError) as e:
                    raise ConfigurationError(f"malformed row in {args.in_path}: {row}") from e
                if math.isfinite(value):
                    groups.setdefault(key, []).append(value)
    except OSError as e:
        raise OSError(f"cannot read {args.in_path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigurationError(f"{args.in_path} is not UTF-8 text: {e}") from e
    except csv.Error as e:
        raise ConfigurationError(f"{args.in_path} is not a readable CSV: {e}") from e
    if not groups:
        raise ConfigurationError(f"no finite transmission delays found in {args.in_path}")
    # every statistic before any output, so a rejected bin width prints nothing
    stats = {key: min_statistic(v) if args.metric == "min" else mode_statistic(v, args.bin) for key, v in groups.items()}
    print(f"scenario,n_tx,n_rf,d_trans_{args.metric}_s")
    for key in sorted(groups):
        print(f"{key[0]},{key[1]},{key[2]},{stats[key]:.9g}")
    return EXIT_OK


def _cmd_check_config(args) -> int:
    config = load_config(args.config)
    print(f"config ok: {args.config}")
    print(f"  aps={config.topology.n_aps} users={config.topology.n_users}")
    print(f"  codebooks={','.join(cb.label for cb in config.codebooks)}")
    print(f"  scenarios={','.join(s.value for s in config.scenarios)}")
    print(f"  esn0_points={len(config.esn0_db)} ({config.esn0_db[0]:g}..{config.esn0_db[-1]:g} dB)")
    print(f"  gain_mode={config.gain_mode} seed={config.seed}")
    print(f"  expected_records={config.expected_records}")
    print(f"  estimated_bytes={config.estimated_bytes} (budget {MAX_SWEEP_BYTES})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "check-config":
            return _cmd_check_config(args)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigurationError, InvalidInputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
