"""Per-layer tracing from outside the program.

The layers are the ``tsattack`` modules.  ``Tracer`` replaces every public
function of each layer module with a timing wrapper under every name it is
looked up by (``experiments`` imports ``solve_qp`` and ``rollout_cost``
directly, ``grad_attack`` imports ``check_series``, ...), plus the
``linprog`` name inside ``tsattack.qp`` (the phase-1 LP).  Spans are
aggregated in memory per function and per caller -> callee edge; a
function's self time is its span minus the spans of the wrapped calls it
made, so nested calls (``solve_qp`` under ``iterated_attack``) are counted
once.  Hooks that look at arguments and results (hashing Psi, counting
flags) run outside every span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("lqr", "cost_attack", "qp", "grad_attack", "data", "stats", "config",
          "experiments", "report")
ATTACKS = ("grad_attack.single_step_attack", "grad_attack.iterated_attack")
ROOT_CALLER = "bench"

# (name, unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = (
    ("lqr.batch_form_s", "s", "lower", "setup_s on cost_t500 (mean per call)"),
    ("lqr.busy_s", "s", "lower", "attacks_per_s on cost_t50 and action_box"),
    ("lqr.rollout_calls", "count", "lower", "attacks_per_s on cost_t50"),
    ("lqr.solve_unconstrained_calls", "count", "lower", "attacks_per_s on cost_t50"),
    ("lqr.check_series_calls", "count", "lower", "attacks_per_s on action_box"),
    ("cost_attack.busy_s", "s", "lower", "attacks_per_s on cost_t500 and cost_t50"),
    ("cost_attack.eigenpair_calls", "count", "lower",
     "attacks_per_s on cost_t500 and cost_t50"),
    ("cost_attack.eigenpair_s", "s", "lower", "attacks_per_s on cost_t500 and cost_t50"),
    ("cost_attack.eigenpair_reuse", "ratio", "higher",
     "attacks_per_s on cost_t500 and cost_t50 (distinct Psi / eigenpair calls)"),
    ("qp.busy_s", "s", "lower", "attacks_per_s on action_box and state_box"),
    ("qp.solve_calls", "count", "lower", "attacks_per_s on action_box"),
    ("qp.kkt_check_s", "s", "lower", "attacks_per_s on action_box"),
    ("qp.active_rows_mean", "count", "lower", "attacks_per_s on action_box and state_box"),
    ("qp.distinct_solve_ratio", "ratio", "higher",
     "attacks_per_s on action_box (distinct series / solve_qp calls)"),
    ("qp.phase1_calls", "count", "lower", "attacks_per_s on state_box; 0 on action_box"),
    ("qp.phase1_s", "s", "lower", "attacks_per_s on state_box; 0 on action_box"),
    ("qp.infeasible_share", "ratio", "lower", "attacks_per_s on action_box and state_box"),
    ("grad_attack.busy_s", "s", "lower", "attacks_per_s on action_box and state_box"),
    ("grad_attack.attacks", "count", "lower", "base of the grad_attack ratios"),
    ("grad_attack.jacobian_calls", "count", "lower",
     "attacks_per_s on action_box and state_box"),
    ("grad_attack.jacobian_s", "s", "lower", "attacks_per_s on action_box and state_box"),
    ("grad_attack.qp_solves_per_attack", "ratio", "lower",
     "attacks_per_s on action_box and state_box"),
    ("grad_attack.zero_gradient_share", "ratio", "lower",
     "attacks_per_s on action_box and state_box"),
    ("grad_attack.infeasible_share", "ratio", "higher",
     "attacks_per_s on state_box (attack outcome, not a failure)"),
    ("data.busy_s", "s", "lower", "attacks_per_s everywhere (small)"),
    ("stats.busy_s", "s", "lower", "attacks_per_s everywhere (small)"),
    ("report.emit_s", "s", "lower", "attacks_per_s everywhere (small)"),
    ("report.bytes", "bytes", "lower", "attacks_per_s everywhere (small)"),
    ("experiments.self_s", "s", "lower", "attacks_per_s everywhere (small)"),
    ("trace.overhead_share", "ratio", "lower", "none: cost of tracing itself"),
)


def _fingerprint(array) -> bytes:
    data = np.ascontiguousarray(np.asarray(array, dtype=float))
    return hashlib.blake2b(data.tobytes(), digest_size=16).digest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Context manager that wraps the layer functions while it is active."""

    def __init__(self):
        self.stack = []  # frames [key, seconds spent in wrapped children]
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.edges = Counter()
        self.psi = set()
        self.series = set()
        self.qp_infeasible = 0
        self.qp_optimal = 0
        self.active_rows = 0
        self.attacks = 0
        self.attack_solves = 0
        self.attack_flags = Counter()
        self.report_bytes = 0
        self._patches = []
        self._hooks = {
            "cost_attack.dominant_eigenpair": self._on_eigenpair,
            "qp.solve_qp": self._on_solve,
            "grad_attack.single_step_attack": self._on_attack,
            "grad_attack.iterated_attack": self._on_attack,
            "report.emit_report": self._on_emit,
        }

    # -- installation -----------------------------------------------------
    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"tsattack.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        qp = importlib.import_module("tsattack.qp")
        self._patch(qp, "linprog", self._wrap("qp.phase1", qp.linprog))
        modules = [m for n, m in sys.modules.items()
                   if n == "tsattack" or n.startswith("tsattack.")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, name, entry[1])
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()
        return False

    def _patch(self, module, name, wrapper):
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _wrap(self, key, fn):
        stack = self.stack
        hook = self._hooks.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[key] += 1
                self.total_s[key] += elapsed
                self.self_s[key] += elapsed - frame[1]
                self.edges[(parent[0] if parent else ROOT_CALLER, key)] += 1
                if parent is not None:
                    parent[1] += elapsed
            if hook is not None:
                hook_start = perf_counter()
                hook(args, kwargs, result)
                if parent is not None:
                    parent[1] += perf_counter() - hook_start
            return result

        return traced

    # -- hooks (run outside every span) -----------------------------------
    def _on_eigenpair(self, args, kwargs, result):
        self.psi.add(_fingerprint(kwargs.get("psi", args[0] if args else None)))

    def _on_solve(self, args, kwargs, sol):
        s_obs = kwargs["s_obs"] if "s_obs" in kwargs else args[2]
        self.series.add(_fingerprint(s_obs))
        if sol.optimal:
            self.qp_optimal += 1
            self.active_rows += len(sol.active)
        else:
            self.qp_infeasible += 1
        if any(frame[0] in ATTACKS for frame in self.stack):
            self.attack_solves += 1

    def _on_attack(self, args, kwargs, result):
        if any(frame[0] in ATTACKS for frame in self.stack):
            return  # the single step inside an iterated attack
        self.attacks += 1
        self.attack_flags.update(result.flags)

    def _on_emit(self, args, kwargs, paths):
        for kind, path in paths.items():
            path = Path(path)
            files = path.iterdir() if kind == "series_dir" else [path]
            self.report_bytes += sum(f.stat().st_size for f in files)

    # -- results ----------------------------------------------------------
    def call_counts(self) -> dict:
        return dict(sorted(self.calls.items()))

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def metrics(self, overhead_share: float) -> dict:
        c, t = self.calls, self.total_s
        solves = c["qp.solve_qp"]
        eig = c["cost_attack.dominant_eigenpair"]
        values = {
            "lqr.batch_form_s": _ratio(t["lqr.batch_form"], c["lqr.batch_form"]),
            "lqr.busy_s": self.layer_self_s("lqr"),
            "lqr.rollout_calls": c["lqr.rollout_cost"],
            "lqr.solve_unconstrained_calls": c["lqr.solve_unconstrained"],
            "lqr.check_series_calls": c["lqr.check_series"],
            "cost_attack.busy_s": self.layer_self_s("cost_attack"),
            "cost_attack.eigenpair_calls": eig,
            "cost_attack.eigenpair_s": t["cost_attack.dominant_eigenpair"],
            "cost_attack.eigenpair_reuse": _ratio(len(self.psi), eig),
            "qp.busy_s": self.layer_self_s("qp"),
            "qp.solve_calls": solves,
            "qp.kkt_check_s": t["qp.kkt_residuals"],
            "qp.active_rows_mean": _ratio(self.active_rows, self.qp_optimal),
            "qp.distinct_solve_ratio": _ratio(len(self.series), solves),
            "qp.phase1_calls": c["qp.phase1"],
            "qp.phase1_s": t["qp.phase1"],
            "qp.infeasible_share": _ratio(self.qp_infeasible, solves),
            "grad_attack.busy_s": self.layer_self_s("grad_attack"),
            "grad_attack.attacks": self.attacks,
            "grad_attack.jacobian_calls": c["grad_attack.solution_jacobian"],
            "grad_attack.jacobian_s": t["grad_attack.solution_jacobian"],
            "grad_attack.qp_solves_per_attack": _ratio(self.attack_solves, self.attacks),
            "grad_attack.zero_gradient_share":
                _ratio(self.attack_flags["zero-gradient"], self.attacks),
            "grad_attack.infeasible_share":
                _ratio(self.attack_flags["infeasible"], self.attacks),
            "data.busy_s": self.layer_self_s("data"),
            "stats.busy_s": self.layer_self_s("stats"),
            "report.emit_s": t["report.emit_report"],
            "report.bytes": self.report_bytes,
            "experiments.self_s": self.layer_self_s("experiments"),
            "trace.overhead_share": overhead_share,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _better, _moves in LAYER_METRICS}

    def dump(self) -> dict:
        """Per-function and per-edge aggregates, for the trace file."""
        return {
            "functions": {k: {"calls": self.calls[k], "self_s": self.self_s[k],
                              "total_s": self.total_s[k]}
                          for k in sorted(self.calls)},
            "edges": [{"caller": a, "callee": b, "calls": n}
                      for (a, b), n in sorted(self.edges.items())],
        }
