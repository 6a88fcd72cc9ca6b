"""Experiment orchestration: cost and constraint attack sweeps over windows.

Every attacked controller is costed against the REAL series; the perturbed
series only ever enters through the controller's decision.  Runs are
deterministic for a given (config, seed): per-task seeds are derived from
window and delta indices, and aggregation sorts records by key before
emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_solve

from .config import (
    AttackConfig,
    CONSTRAINT_SCENARIOS,
    COST_SCENARIOS,
    ExperimentConfig,
)
from .cost_attack import FLAG_INFEASIBLE, random_sphere_attack
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
    expected = cfg.system.p * cfg.system.T
    horizon = cfg.dataset.horizon if cfg.dataset.horizon is not None else expected
    if horizon != expected:
        raise ConfigurationError(
            f"dataset horizon {horizon} does not match p*T = {expected}"
        )
    if cfg.dataset.kind == "arima":
        seed = cfg.dataset.seed if cfg.dataset.seed is not None else cfg.seed
        windows = sample_random_arima(seed, horizon=horizon, count=cfg.dataset.count)
    else:
        windows = load_series_windows(
            cfg.dataset.path, cfg.dataset.column, horizon, cfg.dataset.stride
        )
    return normalize_windows(windows, cfg.normalization)


def _metrics(u: np.ndarray) -> Tuple[float, float]:
    return float(np.max(u)), float(np.abs(u).sum())


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


def _paired_p_values(
    records: Sequence[Record],
    scenarios: Sequence[str],
    metric_of,
    metric_name_by_scenario,
) -> List[dict]:
    """Wilcoxon p-values of each scenario vs the random baseline, per delta."""
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
            metric = metric_name_by_scenario(scenario)
            shared = sorted(set(group) & set(base))
            a, b = [], []
            for sid in shared:
                va = metric_of(group[sid], metric)
                vb = metric_of(base[sid], metric)
                if math.isfinite(va) and math.isfinite(vb):
                    a.append(va)
                    b.append(vb)
            if len(a) < 5:
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


def _record_metric(record: Record, metric: str) -> float:
    return {
        "j_adv": record.j_adv,
        "max_u_adv": record.max_u_adv,
        "l1_adv": record.l1_adv,
    }[metric]


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


def _realized_cost(batch: BatchForm, u: np.ndarray, s: np.ndarray) -> float:
    return float(realized_costs(batch, u[None, :], s[None, :])[0])


def run_cost_experiment(cfg: ExperimentConfig) -> ScenarioStats:
    """Closed-form cost attack vs the random baseline on the unconstrained LQR.

    For each window and delta: the controller plans on the perturbed series,
    the plan is costed on the real one, and the cost-adv/random cost pairs
    feed a per-delta paired Wilcoxon test.  The sweep is batched: the
    windows are validated once, the cost-adv direction is the dominant
    eigenvector of Psi computed once for the system (``s + delta * v1``, the
    canonical result of :func:`cost_attack`), and all realized costs come
    from one :func:`realized_costs` call per side.
    """
    scenarios = tuple(s for s in cfg.scenarios if s in COST_SCENARIOS)
    if not scenarios:
        raise ConfigurationError(
            f"cost experiment needs at least one of {COST_SCENARIOS} in scenarios"
        )
    batch = batch_form(cfg.system)
    windows = load_windows(cfg)
    S = _stack_windows(batch, windows)
    v1 = batch.eigenpair.v1 if "cost-adv" in scenarios else None
    tasks: List[Tuple[int, float, str, float]] = []  # window, delta, scenario, norm
    attacked: List[np.ndarray] = []
    for w_idx, s in enumerate(S):
        for d_idx, delta in enumerate(cfg.deltas):
            for scenario in scenarios:
                if scenario == "cost-adv":
                    s_hat = s + delta * v1
                    norm_used = float(np.linalg.norm(s_hat - s))
                else:
                    result = random_sphere_attack(
                        s, delta, seed=task_seed(cfg.seed, w_idx, d_idx)
                    )
                    s_hat, norm_used = result.s_hat, result.norm_used
                tasks.append((w_idx, delta, scenario, norm_used))
                attacked.append(s_hat)
    S_hat = np.array(attacked).reshape(len(tasks), batch.p_total)
    U_orig = _unconstrained_actions(batch, S)
    U_adv = _unconstrained_actions(batch, S_hat)
    j_orig = realized_costs(batch, U_orig, S)
    j_adv = realized_costs(batch, U_adv, S[[task[0] for task in tasks]])
    metrics_orig = [_metrics(u) for u in U_orig]

    records: List[Record] = []
    dumps: List[SeriesDump] = []
    for (w_idx, delta, scenario, norm_used), s_hat, u_adv, j in zip(
        tasks, S_hat, U_adv, j_adv
    ):
        series_id = windows[w_idx].series_id
        max_orig, l1_orig = metrics_orig[w_idx]
        max_adv, l1_adv = _metrics(u_adv)
        records.append(Record(
            series_id=series_id,
            delta=delta,
            scenario=scenario,
            j_orig=float(j_orig[w_idx]),
            j_adv=float(j),
            max_u_orig=max_orig,
            max_u_adv=max_adv,
            l1_orig=l1_orig,
            l1_adv=l1_adv,
            norm_used=norm_used,
            flags="",
        ))
        if w_idx < cfg.series_dump_limit:
            dumps.append(SeriesDump(
                series_id=series_id, delta=delta,
                scenario=scenario, original=S[w_idx], attacked=s_hat,
            ))
    p_values = _paired_p_values(
        records, scenarios, _record_metric, lambda scenario: "j_adv"
    )
    return ScenarioStats(
        records=tuple(records),
        aggregates=tuple(_aggregate(records)),
        p_values=tuple(p_values),
        series_dumps=tuple(dumps),
        config=cfg.raw,
        seed=cfg.seed,
        n_windows=len(windows),
    )


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


def _constraints_for(cfg: ExperimentConfig, batch: BatchForm,
                     windows: Sequence[SeriesWindow]) -> ConstraintSet:
    if cfg.action_box is None and cfg.state_box is None:
        raise ConfigurationError(
            "constraint experiment requires action_box (value or 'auto') "
            "and/or state_box"
        )
    action_box = cfg.action_box
    if action_box == "auto":
        action_box = calibrate_action_box(batch, windows)
    state_box = cfg.state_box
    if state_box == "auto":
        raise ConfigurationError("state_box does not support 'auto' calibration")
    return compile_constraints(cfg.system, batch, action_box=action_box,
                               state_box=state_box)


def _run_grad_attack(batch, cons, s, delta, target, attack: AttackConfig):
    if attack.mode == "single-step":
        return single_step_attack(batch, cons, s, delta, target)
    return iterated_attack(
        batch, cons, s, delta, target,
        steps=attack.steps, step_size=attack.step_size,
    )


def run_constraint_experiment(cfg: ExperimentConfig) -> ScenarioStats:
    """Constraint-target attacks vs the random baseline on the box-QP controller.

    Targets come from the scenario list (max-action, min-action, l1,
    cost-gradient); infeasible attacked problems are recorded with the
    ``infeasible`` flag and counted separately in the aggregates.
    """
    scenarios = tuple(s for s in cfg.scenarios if s in CONSTRAINT_SCENARIOS)
    if not scenarios:
        raise ConfigurationError(
            f"constraint experiment needs at least one of {CONSTRAINT_SCENARIOS}"
        )
    batch = batch_form(cfg.system)
    windows = load_windows(cfg)
    cons = _constraints_for(cfg, batch, windows)
    records: List[Record] = []
    dumps: List[SeriesDump] = []
    for w_idx, window in enumerate(windows):
        s = window.values
        sol_orig = solve_qp(batch, cons, s)
        if not sol_orig.optimal:
            raise ConfigurationError(
                f"unattacked problem infeasible for window {window.series_id}; "
                "loosen the configured boxes"
            )
        j_orig = _realized_cost(batch, sol_orig.u, s)
        max_orig, l1_orig = _metrics(sol_orig.u)
        for d_idx, delta in enumerate(cfg.deltas):
            for scenario in scenarios:
                if scenario == "random":
                    result = random_sphere_attack(
                        s, delta, seed=task_seed(cfg.seed, w_idx, d_idx)
                    )
                    attacked = solve_qp(batch, cons, result.s_hat)
                    infeasible = not attacked.optimal
                    flags = {FLAG_INFEASIBLE} if infeasible else set()
                else:
                    result = _run_grad_attack(
                        batch, cons, s, delta,
                        TARGET_BY_SCENARIO[scenario], cfg.attack,
                    )
                    infeasible = FLAG_INFEASIBLE in result.flags
                    attacked = None if infeasible else solve_qp(batch, cons, result.s_hat)
                    flags = set(result.flags)
                if infeasible:
                    j_adv = math.inf
                    max_adv = l1_adv = math.nan
                else:
                    j_adv = _realized_cost(batch, attacked.u, s)
                    max_adv, l1_adv = _metrics(attacked.u)
                records.append(Record(
                    series_id=window.series_id,
                    delta=delta,
                    scenario=scenario,
                    j_orig=j_orig,
                    j_adv=j_adv,
                    max_u_orig=max_orig,
                    max_u_adv=max_adv,
                    l1_orig=l1_orig,
                    l1_adv=l1_adv,
                    norm_used=result.norm_used,
                    flags=";".join(sorted(flags)),
                ))
                if w_idx < cfg.series_dump_limit:
                    dumps.append(SeriesDump(
                        series_id=window.series_id, delta=delta,
                        scenario=scenario, original=s, attacked=result.s_hat,
                    ))
    metric_by_scenario = {
        "max-action": "max_u_adv",
        "min-action": "max_u_adv",
        "l1": "l1_adv",
        "cost-gradient": "j_adv",
    }
    p_values = _paired_p_values(
        records, scenarios, _record_metric,
        lambda scenario: metric_by_scenario[scenario],
    )
    return ScenarioStats(
        records=tuple(records),
        aggregates=tuple(_aggregate(records)),
        p_values=tuple(p_values),
        series_dumps=tuple(dumps),
        config=cfg.raw,
        seed=cfg.seed,
        n_windows=len(windows),
    )


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

    Random box-constrained instances (weakly active solutions are skipped and
    redrawn); unconstrained instances are also checked against the analytic
    coupling.  Returns a report dict; ``passed`` is False when any instance
    exceeds the tolerance, with the offending instance seeds listed.
    """
    checked = 0
    skipped = 0
    max_error = 0.0
    failures: List[dict] = []
    instance_seed = seed
    while checked < instances:
        instance_seed += 1
        rng = np.random.default_rng(instance_seed)
        spec = random_test_system(rng)
        batch = batch_form(spec)
        s = rng.standard_normal(batch.p_total)
        if checked % 3 == 0:
            cons = ConstraintSet.empty(batch.m_total, batch.p_total)
        else:
            u_free = solve_unconstrained(batch, s)
            bound = float(np.max(np.abs(u_free))) * rng.uniform(0.3, 1.2) + 1e-3
            cons = compile_constraints(spec, batch, action_box=(-bound, bound))
        sol = solve_qp(batch, cons, s)
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
        "max_abs_error": max_error,
        "tolerance": tol,
        "failures": failures,
        "passed": not failures,
    }
