"""Correctness checks on experiment outputs.

Checks run outside the timed region, on every experiment a run makes:

- every row: ``norm_used <= delta``, and the ``infeasible`` flag is set
  exactly when ``j_adv = inf``;
- every ``cost-adv`` row: ``j_adv - j_orig = delta^2 * lambda_1``, with
  lambda_1 from the public ``dominant_eigenpair``;
- a sample of dumped attacked series (all dumps of one window per
  experiment) is re-solved: for cost runs the cost increase must equal the
  closed-form quadratic; for constraint runs the re-solve must agree on
  feasibility, pass the public ``kkt_residuals`` at the thresholds
  ``solve_qp`` asserts, and reproduce the recorded actions and cost.

Each failing record counts once; missing records count as failed too.
"""

from __future__ import annotations

import math

import numpy as np

from tsattack import (
    batch_form,
    cost_delta_quadratic,
    dominant_eigenpair,
    kkt_residuals,
    parse_config,
    rollout_cost,
    solve_qp,
)
from tsattack.cost_attack import FLAG_INFEASIBLE

from digest import REPLAY_RTOL, close
from workloads import set_up

#: Thresholds solve_qp asserts on every solve.
KKT_LIMITS = {"stationarity": 1e-8, "feasibility": 1e-9,
              "complementarity": 1e-8, "dual_sign": 1e-12}
#: Closed-form cost identities hold to this share of the largest term.
IDENTITY_RTOL = 1e-9


def _identity_holds(gain: float, expected: float, *terms: float) -> bool:
    scale = max(1.0, abs(expected), *(abs(t) for t in terms))
    return abs(gain - expected) <= IDENTITY_RTOL * scale


class Checker:
    """Checks one workload's experiments; the system is fixed per workload."""

    def __init__(self, workload, raw: dict):
        self.workload = workload
        cfg = parse_config(raw)
        self.spec = cfg.system
        self.batch = batch_form(cfg.system)
        self.lambda1 = dominant_eigenpair(self.batch.Psi).lambda1

    def failed_records(self, raw: dict, stats, rep: int) -> dict:
        """Map (series_id, delta, scenario) -> reason for every failing record."""
        failures = {}
        for r in stats.records:
            key = (r.series_id, r.delta, r.scenario)
            reason = self._row_failure(r)
            if reason:
                failures[key] = reason
        for key, reason in self._replay_failures(raw, stats, rep).items():
            failures.setdefault(key, reason)
        missing = self.workload.records_per_experiment - len(stats.records)
        for i in range(max(missing, 0)):
            failures[("<missing>", float(i), "")] = "record missing"
        return failures

    def _row_failure(self, r) -> str:
        if not r.norm_used <= r.delta * (1.0 + 1e-9):
            return f"norm_used {r.norm_used} exceeds delta {r.delta}"
        if (FLAG_INFEASIBLE in r.flags.split(";")) != (r.j_adv == math.inf):
            return f"infeasible flag {r.flags!r} disagrees with j_adv {r.j_adv}"
        if not math.isfinite(r.j_orig):
            return f"j_orig {r.j_orig} is not finite"
        if r.scenario == "cost-adv":
            expected = r.delta ** 2 * self.lambda1
            if not _identity_holds(r.j_adv - r.j_orig, expected, r.j_adv, r.j_orig):
                return (f"cost-adv gain {r.j_adv - r.j_orig} != "
                        f"delta^2*lambda1 {expected}")
        return ""

    def _replay_failures(self, raw: dict, stats, rep: int) -> dict:
        dumped = sorted({d.series_id for d in stats.series_dumps})
        if not dumped:
            return {}
        sample = dumped[rep % len(dumped)]
        by_key = {(r.series_id, r.delta, r.scenario): r for r in stats.records}
        cons = None
        if self.workload.constrained:
            _cfg, _batch, _windows, cons = set_up(self.workload, raw)
        failures = {}
        for dump in stats.series_dumps:
            if dump.series_id != sample:
                continue
            key = (dump.series_id, dump.delta, dump.scenario)
            record = by_key.get(key)
            if record is None:
                failures[key] = "dumped series has no record"
                continue
            if cons is None:
                reason = self._replay_cost(record, dump)
            else:
                reason = self._replay_constrained(record, dump, cons)
            if reason:
                failures[key] = reason
        return failures

    def _replay_cost(self, record, dump) -> str:
        expected = cost_delta_quadratic(self.batch, dump.attacked, dump.original)
        if not _identity_holds(record.j_adv - record.j_orig, expected,
                               record.j_adv, record.j_orig):
            return f"cost gain {record.j_adv - record.j_orig} != quadratic {expected}"
        return ""

    def _replay_constrained(self, record, dump, cons) -> str:
        sol = solve_qp(self.batch, cons, dump.attacked)
        if not sol.optimal:
            return "" if record.j_adv == math.inf else "re-solve infeasible"
        if record.j_adv == math.inf:
            return "recorded infeasible but re-solve is optimal"
        residuals = kkt_residuals(self.batch, cons, dump.attacked, sol)
        worst = {k: v for k, v in residuals.items() if v > KKT_LIMITS[k]}
        if worst:
            return f"KKT residuals above limits: {worst}"
        replay = {
            "max_u_adv": float(np.max(sol.u)),
            "l1_adv": float(np.abs(sol.u).sum()),
            "j_adv": rollout_cost(self.spec, sol.u, dump.original),
        }
        for name, value in replay.items():
            if not close(getattr(record, name), value, REPLAY_RTOL):
                return f"{name} {getattr(record, name)} != re-solve {value}"
        return ""
