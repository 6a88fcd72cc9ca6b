"""Command-line interface: generate ARIMA windows, attack series from a CSV
file, or run a full experiment from a JSON config.

``attack --scenario S`` perturbs each window of the CSV exactly as the
experiment does for scenario S (:func:`tsattack.experiments.attack_series`):
the system, the boxes and the gradient attack's mode, steps and step size
come from the config, and ``random`` draws the direction the experiment
draws at its first delta.  The CSV values are attacked as written; the
config's normalization is not applied.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure (a solver
check such as the QP's KKT or Farkas check failed; the message names the
window, delta and scenario it failed in), 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from . import __version__
from .config import SCENARIOS, load_config
from .data import read_series_csv, sample_random_arima, write_series_csv
from .errors import ConfigurationError, NumericalError
from .experiments import (attack_series, constraints_for, run_experiment,
                          task_failure, task_seed)
from .lqr import batch_form, check_series
from .report import emit_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tsattack",
                     description="Adversarial perturbations of timeseries "
                                 "forecasts against forecast-driven controllers")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-arima", help="generate random ARIMA windows as CSV")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--horizon", type=int, required=True)
    gen.add_argument("--out", required=True)

    attack = sub.add_parser("attack", help="attack series from a CSV file")
    attack.add_argument("--scenario", required=True, choices=SCENARIOS)
    attack.add_argument("--delta", type=float, required=True)
    attack.add_argument("--config", required=True)
    attack.add_argument("--in", dest="input", required=True)
    attack.add_argument("--out", required=True)

    exp = sub.add_parser("experiment", help="run a full experiment and emit reports")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out-dir", default=None)
    return parser


def _write_attacked_csv(path, labeled_pairs):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["window_id", "t", "original", "attacked"])
        for window_id, original, attacked in labeled_pairs:
            for t, (orig, adv) in enumerate(zip(original, attacked)):
                writer.writerow([window_id, t, repr(float(orig)), repr(float(adv))])


def _cmd_gen_arima(args) -> int:
    windows = sample_random_arima(args.seed, horizon=args.horizon, count=args.count)
    write_series_csv(windows, args.out)
    print(f"wrote {len(windows)} windows of length {args.horizon} to {args.out}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    if not 0 < args.delta < math.inf:
        raise ConfigurationError(f"delta must be positive and finite, got {args.delta}")
    cfg = load_config(args.config)
    batch = batch_form(cfg.system)
    windows = read_series_csv(args.input)
    S = [check_series(batch, window.values, f"window {window.source_id}")
         for window in windows]
    cons = constraints_for(cfg, batch, windows)
    rows = []
    flagged = 0
    for w_idx, (window, s) in enumerate(zip(windows, S)):
        try:
            result = attack_series(batch, cons, s, args.delta, args.scenario,
                                   cfg.attack, task_seed(cfg.seed, w_idx, 0))
        except NumericalError as exc:
            raise task_failure(exc, window.source_id, args.delta, args.scenario) from exc
        flagged += bool(result.flags)
        rows.append((window.source_id, s, result.s_hat))
    _write_attacked_csv(args.out, rows)
    print(f"attacked {len(rows)} windows (scenario={args.scenario}, "
          f"delta={args.delta}, flagged={flagged}) -> {args.out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out_dir or cfg.out_dir
    if out_dir is None:
        raise ConfigurationError("provide --out-dir or set out_dir in the config")
    stats = run_experiment(cfg)
    paths = emit_report(stats, out_dir)
    print(f"experiment: {stats.n_windows} windows, "
          f"{len(stats.records)} records -> {paths['records']}")
    for entry in stats.p_values:
        print(f"  delta={entry['delta']} {entry['scenario']} vs random "
              f"[{entry['metric']}]: p={entry['p_value']:.3g} (n={entry['n']})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "gen-arima":
            return _cmd_gen_arima(args)
        if args.command == "attack":
            return _cmd_attack(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
