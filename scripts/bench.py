#!/usr/bin/env python3
"""Record the benchmark trajectory of one or more source checkouts.

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 scripts/bench.py --side parent=../parent --side change=. --out BENCH_<n>.json

For every side this runs ``perfbench/run.py --trace 0`` on the four
perfbench workloads (``SEEDS``, ``SECONDS`` each) and times
``run_experiment`` on the three shipped configs (best of ``REPEATS``),
each side from its own checkout and its own ``src``.  The sides take turns
seed by seed and repeat by repeat, and which side goes first alternates,
so the host's minute-long fast and slow phases reach every side alike.
Ten seeds give two sides ten alternating pairs per workload.

The output JSON holds, per side, each workload's per-seed end-to-end
metrics with their median and quartiles, and each config's best wall time,
plus the machine and the Python, numpy, scipy and OpenBLAS versions that
``perfbench/run.py`` reports.  It is a record, not a gate: nothing here
passes or fails a change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cost_t50", "cost_t500", "action_box", "state_box")
CONFIGS = ("arima_cost", "arima_constraint", "arima_statebox")
METRICS = ("attacks_per_s", "setup_s", "peak_rss_mb")
SEEDS = tuple(range(1, 11))
SECONDS = 8.0
REPEATS = 3

#: Times run_experiment on one shipped config in a fresh interpreter.
TIME_CONFIG = """
import sys, time
from tsattack import load_config, run_experiment
cfg = load_config(sys.argv[1])
start = time.perf_counter()
run_experiment(cfg)
print(time.perf_counter() - start)
"""


def run_workload(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; returns its end-to-end metrics, failures and env."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {root} ({workload}, seed {seed}):\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next(json.loads(line[len("env = "):]) for line in lines
               if line.startswith("env = "))
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: result["metrics"][name]["value"] for name in METRICS}, "env": env}


def time_config(root: Path, config: str) -> float:
    """Wall seconds of one run_experiment on a shipped config."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", TIME_CONFIG, f"configs/{config}.json"],
                          cwd=root, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{config} failed in {root}:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    """Median and quartiles (inclusive method) of a list of samples."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def in_turn(sides: list, turn: int) -> list:
    """The sides in the order of this turn: the first side leads every other turn."""
    return sides if turn % 2 == 0 else sides[::-1]


def machine() -> dict:
    """The CPU model, architecture, usable CPUs and kernel of this host."""
    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu": model, "arch": platform.machine(), "nproc": len(os.sched_getaffinity(0)),
            "system": f"{platform.system()} {platform.release()}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", required=True, metavar="NAME=DIR",
                        help="a source checkout to measure, under a name")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    sides = []
    for side in args.side:
        name, _, root = side.partition("=")
        root = Path(root).resolve()
        if not name or not (root / "perfbench" / "run.py").is_file():
            parser.error(f"--side {side!r} is not NAME=DIR of a source checkout")
        sides.append((name, root))

    runs = {name: {workload: [] for workload in WORKLOADS} for name, _ in sides}
    for workload in WORKLOADS:
        for turn, seed in enumerate(SEEDS):
            for name, root in in_turn(sides, turn):
                runs[name][workload].append(run_workload(root, workload, seed, SECONDS))
                print(f"{workload} seed {seed} {name}: "
                      f"{runs[name][workload][-1]['attacks_per_s']:.6g} 1/s", flush=True)
    configs = {name: {config: [] for config in CONFIGS} for name, _ in sides}
    for config in CONFIGS:
        for turn in range(REPEATS):
            for name, root in in_turn(sides, turn):
                configs[name][config].append(time_config(root, config))
        print(f"{config}: " + ", ".join(f"{name} {min(configs[name][config]):.4g} s"
                                         for name, _ in sides), flush=True)

    report = {"machine": machine(), "seeds": list(SEEDS), "seconds": SECONDS,
              "repeats": REPEATS}
    for name, _ in sides:
        per_workload = runs[name]
        first = per_workload[WORKLOADS[0]][0]
        report[name] = {
            "env": first["env"],
            "workloads": {
                workload: {
                    **{metric: summary([r[metric] for r in rows]) for metric in METRICS},
                    "runs": [{key: r[key] for key in ("seed", "correct", "attempted",
                                                      "failed", *METRICS)} for r in rows],
                } for workload, rows in per_workload.items()},
            "configs_best_s": {config: min(times) for config, times in configs[name].items()},
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
