"""Experiment orchestration: one attack sweep over windows, budgets and scenarios.

The configured boxes choose the controller: with no box the constraint set
is empty and the controller is the unconstrained LQR; otherwise it is the
box-constrained QP.  Every configured scenario runs against it.  Every
attacked controller is costed against the REAL series; the perturbed
series only ever enters through the controller's decision.  Runs are
deterministic for a given (config, seed): per-task seeds are derived from
window and delta indices, and aggregation sorts records by key before
emission.  The clean windows are solved once, as one block, and each
(delta, scenario) pair attacks all windows at once from those solutions;
every record is bit for bit what one window attacked on its own gives.  A
failure stops the run where it happens, and a solver failure names its
(window, delta, scenario) task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import ExperimentConfig
from .cost_attack import FLAG_INFEASIBLE, _closed_form, random_sphere_attack
from .data import (
    SeriesWindow,
    load_series_windows,
    normalize_windows,
    sample_random_arima,
)
from .errors import ConfigurationError
from .grad_attack import TargetFunction, _ascend_rows
from .lqr import BatchForm, batch_form, check_series, realized_costs
from .qp import ConstraintSet, QpSolution, _solve_rows, compile_constraints
from .stats import wilcoxon_signed_rank

#: The record column each scenario's significance test compares with random.
METRIC_BY_SCENARIO = {
    "cost-adv": "j_adv",
    "max-action": "max_u_adv",
    "min-action": "min_u_adv",
    "l1": "l1_adv",
    "cost-gradient": "j_adv",
}


#: Stands in for every NaN field when records are compared or hashed.
_NAN = object()


@dataclass(frozen=True, eq=False)
class Record:
    """One (series, delta, scenario) outcome; all costs are vs the real series.

    Records compare and hash by value, with every NaN field (the action
    metrics of an infeasible outcome) equal to every other NaN.
    """

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

    def _key(self) -> tuple:
        return tuple(_NAN if isinstance(v, float) and math.isnan(v) else v
                     for v in vars(self).values())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


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


def _stack_actions(batch: BatchForm, actions: Sequence[Optional[np.ndarray]]):
    """Stack per-series actions (None when infeasible) as (U, feasible).

    Infeasible rows of U are NaN.  Callers solve each series on its own:
    a multi-right-hand-side solve rounds differently.
    """
    feasible = np.array([u is not None for u in actions], dtype=bool)
    U = np.full((len(actions), batch.m_total), np.nan)
    for row in np.flatnonzero(feasible):
        U[row] = actions[row]
    return U, feasible


def calibrate_action_box(
    batch: BatchForm,
    windows: Sequence[SeriesWindow],
    quantile: float = 0.95,
    slack: float = 1.5,
) -> Tuple[float, float]:
    """Symmetric action bounds from the unattacked action distribution.

    Returns -/+ slack times the given quantile of |u*| pooled over all
    windows, which keeps the box occasionally active on clean data; the
    windows are checked and solved as one block with no constraint.
    """
    if not windows:
        raise ValueError("calibrate_action_box needs at least one window")
    S = _stack_windows(batch, windows)
    cons = ConstraintSet.empty(batch.m_total, batch.p_total)
    with np.errstate(over="ignore"):  # an overflow is the error below
        magnitudes = np.abs([sol.u for sol in _solve_rows(batch, cons, S)])
        bound = slack * float(np.quantile(magnitudes, quantile))
    if not (np.isfinite(magnitudes).all() and math.isfinite(bound)):
        raise ConfigurationError("calibrated action bound is not finite; check the data")
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


def attack_windows(cfg: ExperimentConfig, batch: BatchForm, cons: ConstraintSet,
                   series_ids: Sequence[str],
                   S: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[tuple]]:
    """The attack stage: solve the clean windows S, then attack and answer every task.

    The clean windows are solved as one block; one
    :class:`ConfigurationError` names every window (by ``series_ids``)
    whose clean problem is infeasible.  Then each (delta, scenario) pair
    attacks all windows at once (:func:`_attack_block`), deltas outer and
    scenarios inner, as the config lists them.  The first failure stops the
    stage: a solver failure is raised naming its window (``window <id>``)
    in the clean block, and its window, delta and scenario in an attack
    block.  Returns the clean actions (one row per window) and, in
    (window, delta, scenario) loop order, a (window index, delta, scenario,
    result, answer) tuple per task.
    """
    S = np.asarray(S, dtype=float)
    clean = _solve_rows(batch, cons, S, [f"window {sid}" for sid in series_ids])
    U_orig, feasible = _stack_actions(batch, [sol.u for sol in clean])
    if not feasible.all():
        infeasible = ", ".join(series_ids[i] for i in np.flatnonzero(~feasible))
        raise ConfigurationError(
            f"unattacked problem infeasible for windows {infeasible}; "
            "loosen the configured boxes"
        )
    blocks = {}
    for d_idx, delta in enumerate(cfg.deltas):
        for scenario in cfg.scenarios:
            names = [f"window {sid}, delta {delta}, scenario {scenario}" for sid in series_ids]
            blocks[d_idx, scenario] = _attack_block(cfg, batch, cons, S, clean, d_idx,
                                                    scenario, names)
    tasks = [(w_idx, delta, scenario, *blocks[d_idx, scenario][w_idx])
             for w_idx in range(len(S)) for d_idx, delta in enumerate(cfg.deltas)
             for scenario in cfg.scenarios]
    return U_orig, tasks


def _attack_block(cfg: ExperimentConfig, batch: BatchForm, cons: ConstraintSet,
                  S: np.ndarray, clean: Sequence[QpSolution], d_idx: int,
                  scenario: str, names: Sequence[str]) -> List[tuple]:
    """Every window's (result, answer) for the delta ``cfg.deltas[d_idx]``
    and ``scenario``.

    The one place a scenario name becomes an attack: a gradient scenario
    runs one lockstep ascent over all windows from their clean solutions
    (:func:`tsattack.grad_attack._ascend_rows`); ``cost-adv`` takes each
    checked window along the cached eigenvector of Psi, and ``random``
    draws its direction from :func:`task_seed`.  The answer is a gradient
    attack's ``u_hat``, else the actions of the attacked series, solved as
    one block, and None when infeasible.  The first failure stops the
    block; a solver failure is raised with its window's label in ``names``.
    """
    delta = cfg.deltas[d_idx]
    if scenario == "cost-adv":
        results = [_closed_form(batch, s, delta) for s in S]
    elif scenario == "random":
        results = [random_sphere_attack(s, delta, task_seed(cfg.seed, w_idx, d_idx))
                   for w_idx, s in enumerate(S)]
    else:
        steps = 0 if cfg.attack.mode == "single-step" else cfg.attack.steps
        results = _ascend_rows(batch, cons, S, clean, delta, TargetFunction(scenario),
                               steps, cfg.attack.step_size, names)
    answers = [r.u_hat for r in results]
    ask = [w_idx for w_idx, r in enumerate(results)
           if r.u_hat is None and FLAG_INFEASIBLE not in r.flags]
    if ask:
        solved = _solve_rows(batch, cons, np.array([results[w_idx].s_hat for w_idx in ask]),
                             [names[w_idx] for w_idx in ask])
        for w_idx, sol in zip(ask, solved):
            answers[w_idx] = sol.u
    return list(zip(results, answers))


def run_experiment(cfg: ExperimentConfig) -> ScenarioStats:
    """Attack every (window, delta, scenario) and cost the answers on the real series.

    The controller is the one :func:`constraints_for` compiles from the
    configured boxes (none: the unconstrained LQR).  :func:`attack_windows`
    solves the clean windows (an infeasible one fails the run at once),
    attacks and answers every task; all realized costs then come from one
    :func:`realized_costs` call per side.  A window whose cost, or a delta
    whose feasible cost, overflows fails the run.
    """
    batch = batch_form(cfg.system)
    windows = load_windows(cfg)
    S = _stack_windows(batch, windows)
    cons = constraints_for(cfg, batch, windows)
    U_orig, tasks = attack_windows(cfg, batch, cons,
                                   [w.series_id for w in windows], S)
    U_adv, feasible = _stack_actions(batch, [u for *_, u in tasks])

    j_orig = realized_costs(batch, U_orig, S)
    j_adv = np.full(len(tasks), math.inf)
    rows = np.flatnonzero(feasible)
    j_adv[rows] = realized_costs(batch, U_adv[rows],
                                 S[[tasks[row][0] for row in rows]])
    overflow = np.flatnonzero(~np.isfinite(j_orig))
    if overflow.size:
        raise ConfigurationError(
            f"realized cost of window {windows[overflow[0]].series_id} is not finite"
        )
    # An infinite j_adv means infeasible; on a feasible row it is an overflow.
    overflow = np.flatnonzero(feasible & ~np.isfinite(j_adv))
    if overflow.size:
        raise ConfigurationError(
            f"delta {tasks[overflow[0]][1]} overflows the realized cost; "
            "use a smaller delta"
        )
    metrics_orig = _metrics(U_orig)

    records: List[Record] = []
    dumps: List[SeriesDump] = []
    for (w_idx, delta, scenario, result, _), metrics_adv, j, ok in zip(
        tasks, _metrics(U_adv), j_adv, feasible
    ):
        flags = result.flags
        series_id = windows[w_idx].series_id
        max_orig, min_orig, l1_orig = metrics_orig[w_idx]
        max_adv, min_adv, l1_adv = metrics_adv
        if not ok:
            # The U_adv row is NaN already.  Records compare NaN by value,
            # but lists of their raw fields (perfbench's canonical_records)
            # match NaNs only by identity, so they get the one math.nan.
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
            norm_used=result.norm_used,
            flags=";".join(sorted(flags)),
        ))
        if w_idx < cfg.series_dump_limit:
            dumps.append(SeriesDump(
                series_id=series_id, delta=delta,
                scenario=scenario, original=S[w_idx], attacked=result.s_hat,
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

