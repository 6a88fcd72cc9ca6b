#!/usr/bin/env python3
"""tsattack benchmark: attack throughput of whole experiment sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each workload is a closed batch: one experiment
(``parse_config`` -> ``run_*_experiment`` -> ``emit_report``) at a time, run
to completion, repeated with fresh seeded inputs.

``--trace 0`` measures for S seconds with tracing off and prints the
end-to-end metrics: ``attacks_per_s`` (median over experiments of records per
second of wall time, report emission included), ``setup_s`` (median time
until a sweep can start its first attack) and ``peak_rss_mb``.  Failed
attacks are reported as ``failed`` of ``attempted`` in the result line.

``--trace 1`` runs each of a fixed set of repetitions three times, back to
back: untraced, then traced twice.  It prints the per-layer metrics of the first traced pass and
the tracing overhead, and fails the self-check when any call count differs
between the two traced passes or tracing changed any record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 means
the benchmark could not run (no ``src`` checkout, Python asserts disabled).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: After each experiment, set-up is timed at least once and for this long.
SETUP_SECONDS = 0.05
#: Duration of host_probe() on the reference host (see host_probe).
PROBE_REF_S = 0.0075
#: The tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def limit_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        wanted = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(wanted)
    return nproc


def blas_info() -> list:
    """(library, version, threads) of every OpenBLAS loaded in this process."""
    import ctypes

    found = []
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                version = config().decode().split()[1]
                found.append((Path(path).name, version, threads()))
                break
    return found


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": [f"{name} {version} threads={threads}"
                     for name, version, threads in blas_info()],
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def host_probe() -> float:
    """Seconds for a fixed kernel that does not touch tsattack.

    The shared host this benchmark was defined on runs in minute-long fast
    and slow phases (about 1.5x apart) that move wall times of the whole run
    together.  Each experiment's wall time is divided by this probe's time,
    taken right before and right after it, and scaled to PROBE_REF_S: the
    timed metrics are seconds at the reference host speed.  The kernel is
    small solves plus Python loops, like the package's per-call overhead, so
    a change to the program cannot move it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 40))
    a = a @ a.T + 40.0 * np.eye(40)
    b = np.ones(40)
    start = perf_counter()
    total = 0.0
    for i in range(300):
        x = np.linalg.solve(a, b + i)
        total += float(x @ x) + sum(range(50))
    return perf_counter() - start


def tail(rates: list) -> tuple:
    """Highest percentile of experiment time with >= TAIL_BEYOND samples beyond it.

    Returns (percentile, throughput there); the percentile is None when there
    are too few samples to go past the median.
    """
    ordered = sorted(rates)
    if len(ordered) < 2 * TAIL_BEYOND + 1:
        return None, statistics.median(ordered)
    return 100.0 * (1 - TAIL_BEYOND / len(ordered)), ordered[TAIL_BEYOND]


class Run:
    """One benchmark process: a workload, a seed and its bookkeeping."""

    def __init__(self, workload, seed: int):
        from check import Checker

        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.report_dir = OUT / workload.name / "report"
        self.checker = Checker(workload, workload.raw_config(seed, 0))

    def experiment(self, rep: int, tracer=None):
        """Run, emit and check one experiment; returns (stats or None, seconds).

        Only the timed part runs under the tracer; the checks stay untraced.
        Public functions are looked up on the package at call time, so the
        tracer's wrappers are the ones called.
        """
        import tsattack

        raw = self.workload.raw_config(self.seed, rep)
        shutil.rmtree(self.report_dir, ignore_errors=True)
        stats = None
        with tracer if tracer is not None else contextlib.nullcontext():
            start = perf_counter()
            try:
                stats = self.workload.run(tsattack.parse_config(raw))
                tsattack.emit_report(stats, self.report_dir)
            except Exception:  # an aborted sweep fails every attack it owed
                stats = None
                print(f"experiment rep={rep} aborted:", file=sys.stderr)
                traceback.print_exc()
            elapsed = perf_counter() - start
        if stats is None:
            self.attempted += self.workload.records_per_experiment
            self.failed += self.workload.records_per_experiment
            return None, elapsed
        failures = self.checker.failed_records(raw, stats, rep)
        for key, reason in sorted(failures.items())[:5]:
            print(f"check failed rep={rep} {key}: {reason}", file=sys.stderr)
        self.attempted += max(len(stats.records), self.workload.records_per_experiment)
        self.failed += len(failures)
        return stats, elapsed

    def warm_up(self) -> str:
        """Repetition 0, untimed; writes its records digest and returns the hash."""
        from digest import write_digest

        stats, _ = self.experiment(0)
        if stats is None:
            return "none (aborted)"
        path = OUT / f"digest-{self.workload.name}-seed{self.seed}.json"
        return f"{write_digest(path, self.workload.name, self.seed, 0, stats)} ({path.relative_to(ROOT)})"

    def setup_seconds(self, rep: int) -> list:
        """Time the set-up of one repetition, repeatedly for SETUP_SECONDS."""
        from workloads import set_up

        raw = self.workload.raw_config(self.seed, rep)
        times = []
        began = perf_counter()
        while not times or perf_counter() - began < SETUP_SECONDS:
            start = perf_counter()
            set_up(self.workload, raw)
            times.append(perf_counter() - start)
        return times


def measure(run: Run, seconds: float) -> dict:
    """Time experiments back to back for `seconds`; set-ups run in between.

    Every experiment and every batch of set-ups is bracketed by host probes,
    and its wall time is scaled by PROBE_REF_S / (mean of its two probes).
    Spreading the set-up samples over the whole run exposes them to the same
    host conditions as the experiments.
    """
    digest = run.warm_up()
    run.setup_seconds(0)  # lazy imports and first-call costs
    host_probe()
    rates, wall_rates, setup, wall_setup, probes = [], [], [], [], []
    rep = 1
    probe = host_probe()
    began = perf_counter()
    while rep == 1 or perf_counter() - began < seconds:
        stats, elapsed = run.experiment(rep)
        after = host_probe()
        if stats is not None:
            wall_rates.append(len(stats.records) / elapsed)
            rates.append(wall_rates[-1] * (probe + after) / (2 * PROBE_REF_S))
        times = run.setup_seconds(rep)
        probe_next = host_probe()
        wall_setup += times
        setup += [t * 2 * PROBE_REF_S / (after + probe_next) for t in times]
        probes += [probe, after]
        probe = probe_next
        rep += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not rates:
        raise SystemExit("every experiment aborted; no throughput to report")
    pct, tail_rate = tail(rates)
    tail_text = (f"p{pct:.0f} of experiment time: {tail_rate:.6g} 1/s"
                 if pct is not None else "too few samples for a tail beyond the median")
    print(f"records_per_experiment = {run.workload.records_per_experiment}; "
          f"experiments = {rep - 1}; records_digest = {digest}")
    print(f"attacks_per_s tail: {tail_text} ({len(rates)} samples)")
    print("attacks_per_s samples: " + " ".join(f"{r:.5g}" for r in rates))
    print(f"uncorrected wall clock: attacks_per_s = {statistics.median(wall_rates):.6g} 1/s, "
          f"setup_s = {statistics.median(wall_setup):.6g} s; host_probe median = "
          f"{statistics.median(probes):.6g} s (reference {PROBE_REF_S} s)")
    return {
        "attacks_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def traced(run: Run) -> tuple:
    """Each fixed repetition runs untraced, then traced twice, back to back.

    Interleaving by repetition exposes all three passes to the same machine
    conditions, so the overhead share compares like with like.
    """
    from digest import canonical_records
    from tracing import LAYER_METRICS, Tracer

    reps = range(1, run.workload.trace_reps + 1)
    digest = run.warm_up()
    first, second = Tracer(), Tracer()
    passes = {None: [0, 0.0, []], first: [0, 0.0, []], second: [0, 0.0, []]}
    for rep in reps:
        for tracer, tally in passes.items():
            stats, seconds = run.experiment(rep, tracer)
            tally[1] += seconds
            if stats is not None:
                tally[0] += len(stats.records)
                tally[2].append(canonical_records(stats))
    (plain_n, plain_s, plain_out), (traced_n, traced_s, first_out), \
        (_, _, second_out) = passes.values()
    plain_rate, traced_rate = plain_n / plain_s, traced_n / traced_s
    problems = []
    if first.call_counts() != second.call_counts():
        diff = {k: (first.calls[k], second.calls[k])
                for k in set(first.calls) | set(second.calls)
                if first.calls[k] != second.calls[k]}
        problems.append(f"call counts differ between traced passes: {diff}")
    if not (plain_out == first_out == second_out):
        problems.append("tracing changed the records")
    metrics = first.metrics((plain_rate - traced_rate) / plain_rate)
    trace_path = OUT / f"trace-{run.workload.name}-seed{run.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": run.workload.name, "seed": run.seed,
                   "reps": list(reps), **first.dump()}, handle, indent=1)
        handle.write("\n")
    print(f"records_digest = {digest}; trace = {trace_path.relative_to(ROOT)}; "
          f"reps per pass = {len(reps)}")
    for name, _unit, _better, moves in LAYER_METRICS:
        print(f"  {name}: should move {moves}")
    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    return metrics, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not __debug__ or sys.flags.optimize:
        print("refusing to run: Python asserts are disabled (-O), and solve_qp's "
              "KKT checks are asserts", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds positive", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    if not (SRC / "tsattack" / "__init__.py").is_file():
        print(f"no tsattack sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tsattack

    if Path(tsattack.__file__).resolve().parent != SRC / "tsattack":
        print(f"imported tsattack from {tsattack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    run = Run(workload, args.seed)
    print(f"env = {json.dumps(environment(nproc), sort_keys=True)}")
    print(f"workload = {workload.name}: {workload.why}")
    if args.trace:
        metrics, consistent = traced(run)
    else:
        metrics, consistent = measure(run, args.seconds), True
    share = run.failed / run.attempted
    print(f"failed_share = {share:.6g} ({run.failed} of {run.attempted} attacks)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": consistent and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
