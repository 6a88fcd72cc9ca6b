"""Experiment orchestration: one attack sweep over windows, budgets and scenarios.

The configured boxes choose the controller: with no box the constraint set
is empty and the controller is the unconstrained LQR; otherwise it is the
box-constrained QP.  Every configured scenario runs against it.  Every
attacked controller is costed against the REAL series; the perturbed
series only ever enters through the controller's decision.  Runs are
deterministic for a given (config, seed): per-task seeds are derived from
window and delta indices, and aggregation sorts records by key before
emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_solve

from .config import AttackConfig, ExperimentConfig
from .cost_attack import AttackResult, FLAG_INFEASIBLE, random_sphere_attack
from .data import (
    SeriesWindow,
    load_series_windows,
    normalize_windows,
    sample_random_arima,
)
from .errors import ConfigurationError
from .grad_attack import (
    TargetFunction,
    finite_difference_jacobian,
    iterated_attack,
    single_step_attack,
    solution_jacobian,
)
from .lqr import (
    BatchForm,
    SystemSpec,
    batch_form,
    check_series,
    realized_costs,
    solve_unconstrained,
)
from .qp import ConstraintSet, compile_constraints, solve_qp
from .stats import wilcoxon_signed_rank

TARGET_BY_SCENARIO = {
    "max-action": TargetFunction.MAX_ACTION,
    "min-action": TargetFunction.MIN_ACTION,
    "l1": TargetFunction.L1_ENERGY,
    "cost-gradient": TargetFunction.COST_CHANGE,
}

#: The record column each scenario's significance test compares with random.
METRIC_BY_SCENARIO = {
    "cost-adv": "j_adv",
    "max-action": "max_u_adv",
    "min-action": "min_u_adv",
    "l1": "l1_adv",
    "cost-gradient": "j_adv",
}


@dataclass(frozen=True)
class Record:
    """One (series, delta, scenario) outcome; all costs are vs the real series."""

    series_id: str
    delta: float
    scenario: str
    j_orig: float
    j_adv: float
    max_u_orig: float
    max_u_adv: float
    min_u_orig: float
    min_u_adv: float
    l1_orig: float
    l1_adv: float
    norm_used: float
    flags: str


@dataclass(frozen=True)
class SeriesDump:
    series_id: str
    delta: float
    scenario: str
    original: np.ndarray
    attacked: np.ndarray


@dataclass(frozen=True)
class ScenarioStats:
    records: Tuple[Record, ...]
    aggregates: Tuple[dict, ...]
    p_values: Tuple[dict, ...]
    series_dumps: Tuple[SeriesDump, ...]
    config: dict
    seed: int
    n_windows: int


def task_seed(base: int, window_index: int, delta_index: int) -> int:
    """Derived seed for the random baseline of one (window, delta) task."""
    return base + 1_000_003 * window_index + 1_009 * delta_index


def load_windows(cfg: ExperimentConfig) -> List[SeriesWindow]:
    """Materialize the configured dataset as fixed-horizon windows."""
    horizon = cfg.system.p * cfg.system.T
    if cfg.dataset.kind == "arima":
        seed = cfg.dataset.seed if cfg.dataset.seed is not None else cfg.seed
        windows = sample_random_arima(seed, horizon=horizon, count=cfg.dataset.count)
    else:
        windows = load_series_windows(
            cfg.dataset.path, cfg.dataset.column, horizon, cfg.dataset.stride
        )
    return normalize_windows(windows, cfg.normalization)


def _metrics(U: np.ndarray) -> List[Tuple[float, float, float]]:
    """(max, min, L1 norm) of each action row of U.

    Row-wise reductions over the contiguous axis; each equals the same
    reduction of the row on its own, bit for bit.
    """
    return list(zip(U.max(axis=1).tolist(), U.min(axis=1).tolist(),
                    np.abs(U).sum(axis=1).tolist()))


def _aggregate(records: Sequence[Record]) -> List[dict]:
    """Mean percent increases per (delta, scenario), pairing per series.

    Percent increases are averaged over series with a positive original
    value; infeasible outcomes are counted separately and excluded.
    """
    keys = sorted({(r.delta, r.scenario) for r in records})
    out = []
    for delta, scenario in keys:
        group = [r for r in records if r.delta == delta and r.scenario == scenario]
        feasible = [r for r in group if math.isfinite(r.j_adv)]
        entry = {
            "delta": delta,
            "scenario": scenario,
            "n_series": len(group),
            "n_infeasible": len(group) - len(feasible),
        }
        for metric, orig_of, adv_of in (
            ("j", lambda r: r.j_orig, lambda r: r.j_adv),
            ("max_u", lambda r: r.max_u_orig, lambda r: r.max_u_adv),
            ("l1", lambda r: r.l1_orig, lambda r: r.l1_adv),
        ):
            pcts = [
                100.0 * (adv_of(r) - orig_of(r)) / orig_of(r)
                for r in feasible
                if orig_of(r) > 0
            ]
            entry[f"mean_pct_increase_{metric}"] = (
                float(np.mean(pcts)) if pcts else None
            )
            entry[f"n_used_{metric}"] = len(pcts)
        out.append(entry)
    return out


def _paired_p_values(records: Sequence[Record], scenarios: Sequence[str]) -> List[dict]:
    """Wilcoxon p-values of each scenario vs the random baseline, per delta.

    Each scenario is compared on the record column METRIC_BY_SCENARIO names.
    A (delta, scenario) with fewer than 5 finite pairs, or with 1 to 4
    nonzero differences (too few for the test; none is its degenerate
    p = 1), gets no p-value.
    """
    out = []
    deltas = sorted({r.delta for r in records})
    by_key: Dict[Tuple[float, str], Dict[str, Record]] = {}
    for r in records:
        by_key.setdefault((r.delta, r.scenario), {})[r.series_id] = r
    for delta in deltas:
        base = by_key.get((delta, "random"), {})
        for scenario in scenarios:
            if scenario == "random":
                continue
            group = by_key.get((delta, scenario), {})
            metric = METRIC_BY_SCENARIO[scenario]
            shared = sorted(set(group) & set(base))
            a, b = [], []
            for sid in shared:
                va = getattr(group[sid], metric)
                vb = getattr(base[sid], metric)
                if math.isfinite(va) and math.isfinite(vb):
                    a.append(va)
                    b.append(vb)
            if len(a) < 5 or 0 < np.count_nonzero(np.subtract(a, b)) < 5:
                continue
            result = wilcoxon_signed_rank(a, b, sidedness="two-sided")
            out.append({
                "delta": delta,
                "scenario": scenario,
                "baseline": "random",
                "metric": metric,
                "p_value": result.p_value,
                "statistic": result.statistic,
                "n": result.n,
                "method": result.method,
                "degenerate": result.degenerate,
            })
    return out


def _stack_windows(batch: BatchForm, windows: Sequence[SeriesWindow]) -> np.ndarray:
    """Validate every window once and stack them as a (windows x pT) matrix."""
    S = np.empty((len(windows), batch.p_total))
    for row, window in zip(S, windows):
        row[:] = check_series(batch, window.values, f"window {window.series_id}")
    return S


def _unconstrained_actions(batch: BatchForm, S: np.ndarray) -> np.ndarray:
    """Optimal actions -K^{-1} k(x0, s) for each validated series row of S.

    One vector at a time on purpose: a multi-right-hand-side solve rounds
    differently and moves near-zero actions by more than 1e-10 relative.
    The rows are finite (validated series plus finite perturbations), so
    the per-call finiteness scan is skipped; it does not change the result.
    """
    U = np.empty((S.shape[0], batch.m_total))
    for u, s in zip(U, S):
        u[:] = -cho_solve(batch.K_factor, batch.k_const + batch.L @ s,
                          check_finite=False)
    return U


def _actions(batch: BatchForm, cons: ConstraintSet, S: np.ndarray, results=None):
    """The controller's actions for each series row of S.

    Returns (U, feasible); infeasible rows of U are NaN.  Without
    constraints every row is the unconstrained optimum.  Otherwise a row
    whose attack (``results[row]``, an AttackResult or None) already solved
    it is not solved again: it takes the attack's ``u_hat``, or stays
    infeasible when the attack flagged it so.  Every other row is one
    :func:`solve_qp`.
    """
    if cons.q == 0:
        return _unconstrained_actions(batch, S), np.ones(len(S), dtype=bool)
    U = np.full((len(S), batch.m_total), np.nan)
    feasible = np.zeros(len(S), dtype=bool)
    for row, s in enumerate(S):
        result = results[row] if results is not None else None
        if result is not None and (result.u_hat is not None
                                   or FLAG_INFEASIBLE in result.flags):
            u = result.u_hat
        else:
            u = solve_qp(batch, cons, s).u  # None when infeasible
        if u is not None:
            U[row] = u
            feasible[row] = True
    return U, feasible


def calibrate_action_box(
    batch: BatchForm,
    windows: Sequence[SeriesWindow],
    quantile: float = 0.95,
    slack: float = 1.5,
) -> Tuple[float, float]:
    """Symmetric action bounds from the unattacked action distribution.

    Returns -/+ slack times the given quantile of |u*| pooled over all
    windows, which keeps the box occasionally active on clean data.
    """
    magnitudes = np.concatenate([
        np.abs(solve_unconstrained(batch, w.values)) for w in windows
    ])
    bound = slack * float(np.quantile(magnitudes, quantile))
    if bound <= 0:
        raise ConfigurationError("calibrated action bound is zero; check the data")
    return -bound, bound


def constraints_for(cfg: ExperimentConfig, batch: BatchForm,
                    windows: Sequence[SeriesWindow]) -> ConstraintSet:
    """Compile the configured boxes, calibrating an ``auto`` action box on the windows.

    With no box this is the empty set: the controller is the unconstrained LQR.
    """
    action_box = cfg.action_box
    if action_box == "auto":
        action_box = calibrate_action_box(batch, windows)
    return compile_constraints(cfg.system, batch, action_box=action_box,
                               state_box=cfg.state_box)


def run_grad_attack(batch, cons, s, delta, target, attack: AttackConfig):
    """Run the single-step or iterated gradient attack that ``attack`` selects."""
    if attack.mode == "single-step":
        return single_step_attack(batch, cons, s, delta, target)
    return iterated_attack(
        batch, cons, s, delta, target,
        steps=attack.steps, step_size=attack.step_size,
    )


def run_experiment(cfg: ExperimentConfig) -> ScenarioStats:
    """Attack every (window, delta, scenario) and cost the answers on the real series.

    The controller is the one :func:`constraints_for` compiles from the
    configured boxes (none: the unconstrained LQR).  Every clean problem is
    solved before any attack, so infeasible windows fail the run at once.
    Each scenario perturbs the series (``cost-adv``: ``s + delta * v1`` with
    the cached dominant eigenvector of Psi; ``random``: a seeded random
    direction; gradient targets: the configured gradient attack), the
    controller answers the perturbed series (a gradient attack hands back
    the actions it solved, so only the other scenarios' series are solved
    here), and all realized costs come from one :func:`realized_costs` call
    per side.
    """
    batch = batch_form(cfg.system)
    windows = load_windows(cfg)
    S = _stack_windows(batch, windows)
    cons = constraints_for(cfg, batch, windows)

    U_orig, feasible = _actions(batch, cons, S)
    if not feasible.all():
        infeasible = ", ".join(windows[i].series_id for i in np.flatnonzero(~feasible))
        raise ConfigurationError(
            f"unattacked problem infeasible for windows {infeasible}; "
            "loosen the configured boxes"
        )

    tasks: List[Tuple[int, float, str, float, frozenset]] = []
    attacked: List[np.ndarray] = []
    results: List[Optional[AttackResult]] = []
    for w_idx, s in enumerate(S):
        for d_idx, delta in enumerate(cfg.deltas):
            for scenario in cfg.scenarios:
                result = None
                if scenario == "cost-adv":
                    s_hat = s + delta * batch.eigenpair.v1
                    norm_used, flags = float(np.linalg.norm(s_hat - s)), frozenset()
                else:
                    if scenario == "random":
                        result = random_sphere_attack(
                            s, delta, seed=task_seed(cfg.seed, w_idx, d_idx)
                        )
                    else:
                        result = run_grad_attack(
                            batch, cons, s, delta,
                            TARGET_BY_SCENARIO[scenario], cfg.attack,
                        )
                    s_hat, norm_used, flags = result.s_hat, result.norm_used, result.flags
                tasks.append((w_idx, delta, scenario, norm_used, flags))
                attacked.append(s_hat)
                results.append(result)
    S_hat = np.array(attacked).reshape(len(tasks), batch.p_total)
    U_adv, feasible = _actions(batch, cons, S_hat, results)

    j_orig = realized_costs(batch, U_orig, S)
    j_adv = np.full(len(tasks), math.inf)
    rows = np.flatnonzero(feasible)
    j_adv[rows] = realized_costs(batch, U_adv[rows],
                                 S[[tasks[row][0] for row in rows]])
    metrics_orig = _metrics(U_orig)

    records: List[Record] = []
    dumps: List[SeriesDump] = []
    for (w_idx, delta, scenario, norm_used, flags), s_hat, metrics_adv, j, ok in zip(
        tasks, S_hat, _metrics(U_adv), j_adv, feasible
    ):
        series_id = windows[w_idx].series_id
        max_orig, min_orig, l1_orig = metrics_orig[w_idx]
        max_adv, min_adv, l1_adv = metrics_adv
        if not ok:
            max_adv = min_adv = l1_adv = math.nan
            flags = flags | {FLAG_INFEASIBLE}
        records.append(Record(
            series_id=series_id,
            delta=delta,
            scenario=scenario,
            j_orig=float(j_orig[w_idx]),
            j_adv=float(j),
            max_u_orig=max_orig,
            max_u_adv=max_adv,
            min_u_orig=min_orig,
            min_u_adv=min_adv,
            l1_orig=l1_orig,
            l1_adv=l1_adv,
            norm_used=norm_used,
            flags=";".join(sorted(flags)),
        ))
        if w_idx < cfg.series_dump_limit:
            dumps.append(SeriesDump(
                series_id=series_id, delta=delta,
                scenario=scenario, original=S[w_idx], attacked=s_hat,
            ))
    return ScenarioStats(
        records=tuple(records),
        aggregates=tuple(_aggregate(records)),
        p_values=tuple(_paired_p_values(records, cfg.scenarios)),
        series_dumps=tuple(dumps),
        config=cfg.raw,
        seed=cfg.seed,
        n_windows=len(windows),
    )


# perfbench/workloads.py still calls the runner by its former names.
run_cost_experiment = run_constraint_experiment = run_experiment


def random_test_system(rng: np.random.Generator, n_max=2, m_max=2, p_max=2,
                       t_max=8) -> SystemSpec:
    """Draw a small well-conditioned system for randomized oracle checks."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    p = int(rng.integers(1, p_max + 1))
    T = int(rng.integers(1, t_max + 1))
    A = rng.standard_normal((n, n))
    radius = float(np.max(np.abs(np.linalg.eigvals(A)))) if n else 0.0
    if radius > 1e-12:
        A *= rng.uniform(0.3, 1.05) / radius
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((n, p))
    WQ = rng.standard_normal((n, n))
    WR = rng.standard_normal((m, m))
    Q = WQ @ WQ.T / n + 0.5 * np.eye(n)
    R = WR @ WR.T / m + 0.5 * np.eye(m)
    x0 = rng.standard_normal(n)
    return SystemSpec(A=A, B=B, C=C, Q=Q, R=R, T=T, x0=x0)


def jacobian_selftest(seed: int, instances: int = 50, tol: float = 1e-5) -> dict:
    """Gate: implicit KKT Jacobian vs central finite differences.

    Instances cycle through unconstrained problems, action boxes, state boxes
    and mixed (state and action) boxes.  Each box is scaled to the free
    actions or free trajectory of its random system and series; state boxes
    move the constraint right-hand side with the series, so they exercise
    the series-through-RHS (H) term of the derivative.  Draws whose clean
    problem is infeasible or whose solution is weakly active are redrawn and
    counted.  A failed solver check, or a finite-difference step that makes
    the problem infeasible, raises :class:`NumericalError`.  Unconstrained
    instances are also checked against the analytic coupling.  Returns a
    report dict; ``passed`` is False when any instance exceeds the
    tolerance, with the offending instance seeds listed.
    """
    checked = 0
    skipped = 0
    infeasible = 0
    max_error = 0.0
    failures: List[dict] = []
    instance_seed = seed
    while checked < instances:
        instance_seed += 1
        rng = np.random.default_rng(instance_seed)
        spec = random_test_system(rng)
        batch = batch_form(spec)
        s = rng.standard_normal(batch.p_total)
        u_free = solve_unconstrained(batch, s)
        kind = checked % 4  # 0 free, 1 action box, 2 state box, 3 mixed
        action_box = state_box = None
        if kind in (1, 3):
            bound = float(np.max(np.abs(u_free))) * rng.uniform(0.3, 1.2) + 1e-3
            action_box = (-bound, bound)
        if kind in (2, 3):
            x_free = batch.x0_response + batch.M @ u_free + batch.N @ s
            bound = float(np.max(np.abs(x_free))) * rng.uniform(0.2, 1.2) + 1e-3
            state_box = (-bound, bound)
        cons = compile_constraints(spec, batch, action_box=action_box,
                                   state_box=state_box)
        sol = solve_qp(batch, cons, s)
        if not sol.optimal:
            infeasible += 1
            continue
        if sol.weakly_active:
            skipped += 1
            continue
        analytic = solution_jacobian(batch, cons, sol)
        numeric = finite_difference_jacobian(batch, cons, s)
        error = float(np.max(np.abs(analytic.J - numeric.J)))
        max_error = max(max_error, error)
        if error > tol:
            failures.append({"instance_seed": instance_seed, "error": error})
        if cons.q == 0:
            closed_form = (-cho_solve(batch.K_factor, batch.L)).T
            closed_err = float(np.max(np.abs(analytic.J - closed_form)))
            if closed_err > 1e-10:
                failures.append({
                    "instance_seed": instance_seed,
                    "error": closed_err,
                    "check": "unconstrained-closed-form",
                })
        checked += 1
    return {
        "instances": checked,
        "skipped_weakly_active": skipped,
        "skipped_infeasible": infeasible,
        "max_abs_error": max_error,
        "tolerance": tol,
        "failures": failures,
        "passed": not failures,
    }
