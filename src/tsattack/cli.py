"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 numerical/oracle failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

from . import __version__
from .config import load_config
from .cost_attack import cost_attack
from .data import read_series_csv, sample_random_arima, write_series_csv
from .errors import ConfigurationError, NumericalError
from .experiments import (
    constraints_for,
    jacobian_selftest,
    run_experiment,
    run_grad_attack,
)
from .grad_attack import TargetFunction
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
    attack_sub = attack.add_subparsers(dest="attack_kind", required=True)

    a_cost = attack_sub.add_parser("cost", help="closed-form worst-case cost attack")
    a_cost.add_argument("--config", required=True)
    a_cost.add_argument("--delta", type=float, required=True)
    a_cost.add_argument("--in", dest="input", required=True)
    a_cost.add_argument("--out", required=True)

    a_cons = attack_sub.add_parser("constraint", help="gradient attack on a target")
    a_cons.add_argument("--target", required=True,
                        choices=sorted(t.value for t in TargetFunction),
                        help="max-action | min-action | l1 | cost")
    a_cons.add_argument("--delta", type=float, required=True)
    a_cons.add_argument("--steps", type=int, default=None)  # default: config
    a_cons.add_argument("--step-size", type=float, default=None)  # default: config
    a_cons.add_argument("--config", required=True)
    a_cons.add_argument("--in", dest="input", required=True)
    a_cons.add_argument("--out", required=True)

    exp = sub.add_parser("experiment", help="run a full experiment and emit reports")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out-dir", default=None)

    check = sub.add_parser("check", help="self-checks")
    check_sub = check.add_subparsers(dest="check_kind", required=True)
    jac = check_sub.add_parser("jacobian", help="KKT Jacobian vs finite differences")
    jac.add_argument("--seed", type=int, default=0)
    jac.add_argument("--instances", type=int, default=50)
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


def _cmd_attack_cost(args) -> int:
    cfg = load_config(args.config)
    batch = batch_form(cfg.system)
    windows = read_series_csv(args.input)
    rows = []
    for window in windows:
        check_series(batch, window.values, f"window {window.source_id}")
        result, _ = cost_attack(batch, window.values, args.delta)
        rows.append((window.source_id, window.values, result.s_hat))
    _write_attacked_csv(args.out, rows)
    print(f"attacked {len(rows)} windows (delta={args.delta}) -> {args.out}")
    return EXIT_OK


def _cmd_attack_constraint(args) -> int:
    cfg = load_config(args.config)
    batch = batch_form(cfg.system)
    windows = read_series_csv(args.input)
    for window in windows:
        check_series(batch, window.values, f"window {window.source_id}")
    cons = constraints_for(cfg, batch, windows)
    if cfg.attack.mode == "single-step" and (args.steps, args.step_size) != (None, None):
        raise ConfigurationError(
            "--steps and --step-size apply only to the iterated attack; "
            "the config's attack mode is single-step"
        )
    attack_cfg = dataclasses.replace(
        cfg.attack,
        steps=cfg.attack.steps if args.steps is None else args.steps,
        step_size=cfg.attack.step_size if args.step_size is None else args.step_size,
    )
    target = TargetFunction(args.target)
    rows = []
    flagged = 0
    for window in windows:
        result = run_grad_attack(batch, cons, window.values, args.delta,
                                 target, attack_cfg)
        if result.flags:
            flagged += 1
        rows.append((window.source_id, window.values, result.s_hat))
    _write_attacked_csv(args.out, rows)
    print(f"attacked {len(rows)} windows (target={args.target}, "
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


def _cmd_check_jacobian(args) -> int:
    report = jacobian_selftest(args.seed, instances=args.instances)
    print(f"jacobian selftest: {report['instances']} instances, "
          f"max |error| = {report['max_abs_error']:.3g} "
          f"(tolerance {report['tolerance']:g}), "
          f"redrew {report['skipped_weakly_active']} weakly active and "
          f"{report['skipped_infeasible']} infeasible")
    if not report["passed"]:
        for failure in report["failures"]:
            print(f"  FAILED instance seed {failure['instance_seed']}: "
                  f"error {failure['error']:.3g}", file=sys.stderr)
        return EXIT_NUMERICAL
    print("PASS")
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
            if args.attack_kind == "cost":
                return _cmd_attack_cost(args)
            return _cmd_attack_constraint(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "check":
            return _cmd_check_jacobian(args)
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
