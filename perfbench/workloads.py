"""Workload definitions: one experiment config per (workload, seed, repetition).

Every workload runs the scalar paper system (A=1, B=-1, C=1, Q=R=1, x0=1)
over the delta grid 0.3 / 1 / 3 on synthetic ARIMA windows.  A run repeats
the workload's experiment back to back; repetition ``rep`` of a run with seed
``seed`` draws its windows (and its random-baseline directions) from
``rep_seed(seed, rep)``, so the same seed always gives the same inputs and
no two repetitions share a dataset.

This module imports ``tsattack``; the runner puts the checkout's ``src`` on
the path before importing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tsattack import batch_form, compile_constraints, experiments, parse_config
from tsattack.experiments import calibrate_action_box, load_windows

SYSTEM = {"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "x0": 1}
DELTAS = [0.3, 1.0, 3.0]

#: Spacing of repetition seeds; larger than any window count, so the
#: per-window ARIMA seeds (dataset seed + window index) never overlap.
REP_STRIDE = 1_000
RUN_STRIDE = 10_000_000


def rep_seed(seed: int, rep: int) -> int:
    """Dataset and baseline seed of one repetition of a run."""
    if seed < 0 or not 0 <= rep < RUN_STRIDE // REP_STRIDE:
        raise ValueError(f"seed must be >= 0 and rep in [0, {RUN_STRIDE // REP_STRIDE}), "
                         f"got {seed}, {rep}")
    return seed * RUN_STRIDE + rep * REP_STRIDE


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "cost" or "constraint"
    T: int
    windows: int
    trace_reps: int  # repetitions in each pass of a traced run
    extra: dict = field(default_factory=dict)

    @property
    def constrained(self) -> bool:
        return self.kind == "constraint"

    @property
    def scenarios(self) -> list:
        if self.constrained:
            return ["max-action", "l1", "random"]
        return ["cost-adv", "random"]

    @property
    def records_per_experiment(self) -> int:
        return self.windows * len(DELTAS) * len(self.scenarios)

    def raw_config(self, seed: int, rep: int) -> dict:
        s = rep_seed(seed, rep)
        raw = {
            "system": dict(SYSTEM, T=self.T),
            "deltas": list(DELTAS),
            "scenarios": self.scenarios,
            "dataset": {"kind": "arima", "count": self.windows},
            "normalization": "none",
            "seed": s,
        }
        raw.update(self.extra)
        return raw

    def run(self, cfg):
        # Looked up at call time, so a tracer's wrapper is what runs.
        if self.constrained:
            return experiments.run_constraint_experiment(cfg)
        return experiments.run_cost_experiment(cfg)


def set_up(workload: Workload, raw: dict):
    """Everything a sweep does before its first attack, through the public API.

    Config parse, windows loaded and normalized, the batch form and, for
    constraint runs, the action-box calibration and the compiled
    constraints.  Returns (cfg, batch, windows, constraints or None).
    """
    cfg = parse_config(raw)
    batch = batch_form(cfg.system)
    windows = load_windows(cfg)
    cons = None
    if workload.constrained:
        action_box = cfg.action_box
        if action_box == "auto":
            action_box = calibrate_action_box(batch, windows)
        cons = compile_constraints(cfg.system, batch, action_box=action_box,
                                   state_box=cfg.state_box)
    return cfg, batch, windows, cons


ITERATED = {"mode": "iterated", "steps": 20}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="cost_t50",
        why="arima_cost.json shape (T=50, 100 windows): per-call Python overhead in "
            "lqr rollouts and the eigenpair recomputed per attack dominate; qp and "
            "grad_attack stay idle",
        kind="cost", T=50, windows=100, trace_reps=6,
    ),
    Workload(
        name="cost_t500",
        why="cost sweep at T=500 on 5 windows: O(T^2)-O(T^3) linear algebra "
            "(batch_form stacking, eigh of a 500x500 Psi) dominates; the only "
            "workload where batch_form shows",
        kind="cost", T=500, windows=5, trace_reps=4,
    ),
    Workload(
        name="action_box",
        why="arima_constraint.json shape on 10 windows: auto action box, iterated "
            "max-action/l1 attacks; per-solve overhead of thousands of small QPs, "
            "no phase-1 LP",
        kind="constraint", T=50, windows=10, trace_reps=8,
        extra={"action_box": "auto", "attack": ITERATED},
    ),
    Workload(
        name="state_box",
        why="z-scored windows under a +-0.25 state box and a +-4.5 action box, 2 "
            "windows, 5 attack steps: constraint RHS moves with the series, phase-1 "
            "LP on every solve, infeasible outcomes",
        kind="constraint", T=50, windows=2, trace_reps=6,
        extra={
            "normalization": "zscore-global",
            "action_box": {"u_min": -4.5, "u_max": 4.5},
            "state_box": {"x_min": -0.25, "x_max": 0.25},
            "attack": {"mode": "iterated", "steps": 5},
        },
    ),
)}
