"""Command-line interface: generate ARIMA windows, attack series from a CSV
file, or run a full experiment from a JSON config.

``attack --scenario S`` runs the experiment's attack stage
(:func:`tsattack.experiments.attack_windows`) on the CSV's windows, each
checked once as the experiment checks its own, with the config's deltas and
scenarios replaced by ``--delta`` and S (``random`` draws the experiment's
first-delta direction), and reads the stage's block (one row per window).
So it refuses infeasible clean windows as ``experiment`` does, and
``flagged`` counts the windows whose attacked row carries a flag
(``infeasible`` among them).  The CSV values are attacked as written (no
normalization; a CSV with no rows is rejected) and written out in
:func:`tsattack.data._write_csv`'s format.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure (a solver
check such as the QP's KKT or Farkas check failed; the message names the
window it failed in, and for an attacked series the delta and scenario
too), 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import __version__
from .config import SCENARIOS, load_config
from .data import _write_csv, read_series_csv, sample_random_arima, write_series_csv
from .errors import ConfigurationError, NumericalError
from .experiments import _stack_windows, attack_windows, constraints_for, run_experiment
from .lqr import batch_form
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


def _cmd_gen_arima(args) -> int:
    windows = sample_random_arima(args.seed, horizon=args.horizon, count=args.count)
    write_series_csv(windows, args.out)
    print(f"wrote {len(windows)} windows of length {args.horizon} to {args.out}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    if not 0 < args.delta < math.inf:
        raise ConfigurationError(f"delta must be positive and finite, got {args.delta}")
    cfg = dataclasses.replace(load_config(args.config), deltas=(args.delta,),
                              scenarios=(args.scenario,))
    batch = batch_form(cfg.system)
    windows = read_series_csv(args.input)
    ids = [window.source_id for window in windows]
    S = _stack_windows(batch, windows, ids)
    _, block = attack_windows(cfg, batch, constraints_for(cfg, batch, S), ids, S)
    horizon = S.shape[1]
    _write_csv(args.out, ("window_id", "t", "original", "attacked"),
               ([window_id for window_id in ids for _ in range(horizon)],
                np.tile(np.arange(horizon), len(ids)), S.ravel(), block.S_hat.ravel()))
    flagged = int(block.flags.any(axis=1).sum())
    print(f"attacked {len(S)} windows (scenario={args.scenario}, "
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
