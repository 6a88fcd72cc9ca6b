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
every record is bit for bit what one window attacked on its own gives.
The attack stage returns one block of results per (delta, scenario), each
answered: its ``u_hat`` is None exactly when it is flagged ``infeasible``.  A
failure stops the run where it happens, and a solver failure names its
(window, delta, scenario) task.  The records, aggregates and p-values read
one outcome table per block (one row per window), so windows pair by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .config import ExperimentConfig
from .cost_attack import (FLAG_INFEASIBLE, AttackResult, _closed_form,
                          random_sphere_attack)
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


#: The columns of an outcome table (one row per window).
_OUTCOME_COLUMNS = ("j", "max_u", "min_u", "l1")

#: The outcome row of an infeasible answer.  Records compare NaN by value, but
#: lists of their raw fields (perfbench's canonical_records) match NaNs only by
#: identity, so every infeasible record gets the one math.nan.
_INFEASIBLE = (math.inf, math.nan, math.nan, math.nan)

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


def _outcomes(batch: BatchForm, U: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Outcome table of the action rows U played against the series rows S;
    each entry is bit for bit its row's own (row-wise kernels)."""
    return np.column_stack((realized_costs(batch, U, S), U.max(axis=1),
                            U.min(axis=1), np.abs(U).sum(axis=1)))


def _aggregate(delta: float, scenario: str, orig: np.ndarray, adv: np.ndarray) -> dict:
    """Mean percent increases of one (delta, scenario) block, pairing its
    outcome table ``adv`` with the clean ``orig`` by row.

    Percent increases are averaged over feasible rows with a positive
    original value; infeasible outcomes are counted separately and excluded.
    A mean that is not finite fails the run, naming the delta and scenario.
    """
    feasible = np.isfinite(adv[:, 0])
    entry = {
        "delta": delta,
        "scenario": scenario,
        "n_series": len(adv),
        "n_infeasible": len(adv) - int(feasible.sum()),
    }
    for metric in ("j", "max_u", "l1"):
        col = _OUTCOME_COLUMNS.index(metric)
        used = feasible & (orig[:, col] > 0)
        o = orig[used, col]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean is the error below
            mean = float(np.mean(100.0 * (adv[used, col] - o) / o)) if o.size else None
        if mean is not None and not math.isfinite(mean):
            raise ConfigurationError(
                f"delta {delta}, scenario {scenario}: the mean percent increase of "
                f"{metric} is not finite; use a smaller delta")
        entry[f"mean_pct_increase_{metric}"] = mean
        entry[f"n_used_{metric}"] = int(used.sum())
    return entry


def _paired_p_values(deltas: Sequence[float], scenarios: Sequence[str],
                     adv: Dict[Tuple[float, str], np.ndarray]) -> List[dict]:
    """Wilcoxon p-values of each scenario vs the random baseline, per delta.

    ``adv`` maps each (delta, scenario) to its outcome table; windows pair
    by row.  Each scenario is compared on the record column
    METRIC_BY_SCENARIO names.  A (delta, scenario) with fewer than 5 finite
    pairs, or with 1 to 4 nonzero differences (too few for the test; none is
    its degenerate p = 1), gets no p-value.
    """
    if "random" not in scenarios:
        return []
    out = []
    for delta in deltas:
        for scenario in scenarios:
            if scenario == "random":
                continue
            metric = METRIC_BY_SCENARIO[scenario]
            col = _OUTCOME_COLUMNS.index(metric.removesuffix("_adv"))
            a, b = adv[delta, scenario][:, col], adv[delta, "random"][:, col]
            finite = np.isfinite(a) & np.isfinite(b)
            a, b = a[finite], b[finite]
            if a.size < 5 or 0 < np.count_nonzero(a - b) < 5:
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
                   series_ids: Sequence[str], S: np.ndarray
                   ) -> Tuple[np.ndarray, Dict[Tuple[float, str], List[AttackResult]]]:
    """The attack stage: solve the clean windows, the rows of the (W, pT)
    array S, then attack and answer every window for each (delta, scenario).

    The clean windows are solved as one block; one
    :class:`ConfigurationError` names every window (by ``series_ids``)
    whose clean problem is infeasible.  Then each (delta, scenario) pair
    attacks all windows at once (:func:`_attack_block`).  The first failure
    stops the stage: a solver failure is raised naming its window
    (``window <id>``) in the clean block, and its window, delta and scenario
    in an attack block.  Returns the clean actions (one row per window) and
    a dict from each (delta, scenario), deltas outer and scenarios inner in
    config order, to its block: one answered :class:`AttackResult` per
    window, in window order.
    """
    clean = _solve_rows(batch, cons, S, [f"window {sid}" for sid in series_ids])
    infeasible = [sid for sid, sol in zip(series_ids, clean) if sol.u is None]
    if infeasible:
        raise ConfigurationError(
            f"unattacked problem infeasible for windows {', '.join(infeasible)}; "
            "loosen the configured boxes"
        )
    U_orig = np.array([sol.u for sol in clean])
    blocks = {}
    for d_idx, delta in enumerate(cfg.deltas):
        for scenario in cfg.scenarios:
            names = [f"window {sid}, delta {delta}, scenario {scenario}" for sid in series_ids]
            blocks[delta, scenario] = _attack_block(cfg, batch, cons, S, clean, d_idx,
                                                    scenario, names)
    return U_orig, blocks


def _attack_block(cfg: ExperimentConfig, batch: BatchForm, cons: ConstraintSet,
                  S: np.ndarray, clean: Sequence[QpSolution], d_idx: int,
                  scenario: str, names: Sequence[str]) -> List[AttackResult]:
    """Every window's answered result for the delta ``cfg.deltas[d_idx]``
    and ``scenario``.

    The one place a scenario name becomes an attack: a gradient scenario
    runs one lockstep ascent over all windows from their clean solutions
    (:func:`tsattack.grad_attack._ascend_rows`), whose results come
    answered; ``cost-adv`` takes each checked window along the cached
    eigenvector of Psi, ``random`` draws its direction from
    :func:`task_seed`, and their attacked series are solved as one block.
    ``u_hat`` is None exactly when ``infeasible`` is flagged.  The first
    failure stops the block; a solver failure is raised with its window's
    label in ``names``.
    """
    delta = cfg.deltas[d_idx]
    if scenario == "cost-adv":
        results = [_closed_form(batch, s, delta) for s in S]
    elif scenario == "random":
        results = [random_sphere_attack(s, delta, task_seed(cfg.seed, w_idx, d_idx))
                   for w_idx, s in enumerate(S)]
    else:
        steps = 0 if cfg.attack.mode == "single-step" else cfg.attack.steps
        return _ascend_rows(batch, cons, S, clean, delta, TargetFunction(scenario),
                            steps, cfg.attack.step_size, names)
    solved = _solve_rows(batch, cons, np.array([r.s_hat for r in results]), names)
    return [replace(r, u_hat=sol.u) if sol.optimal
            else replace(r, flags=r.flags | {FLAG_INFEASIBLE})
            for r, sol in zip(results, solved)]


def run_experiment(cfg: ExperimentConfig) -> ScenarioStats:
    """Attack every (window, delta, scenario) and cost the answers on the real series.

    The controller is the one :func:`constraints_for` compiles from the
    configured boxes (none: the unconstrained LQR).  :func:`attack_windows`
    solves the clean windows (an infeasible one fails the run at once) and
    returns the answered blocks.  The clean windows and each block get one
    outcome table, from one :func:`realized_costs` call each.  A window whose
    clean cost overflows fails the run, as do the first block in config order
    whose feasible cost overflows (naming its delta) and the first aggregate
    that is not finite (naming its delta and scenario).  Records run
    window-major.
    """
    batch = batch_form(cfg.system)
    windows = load_windows(cfg)
    S = _stack_windows(batch, windows)
    cons = constraints_for(cfg, batch, windows)
    U_orig, blocks = attack_windows(cfg, batch, cons,
                                    [w.series_id for w in windows], S)

    orig = _outcomes(batch, U_orig, S)
    overflow = np.flatnonzero(~np.isfinite(orig[:, 0]))
    if overflow.size:
        raise ConfigurationError(
            f"realized cost of window {windows[overflow[0]].series_id} is not finite"
        )
    adv = {}
    for (delta, scenario), results in blocks.items():
        rows = [w_idx for w_idx, r in enumerate(results) if r.u_hat is not None]
        U_adv = np.array([results[w_idx].u_hat for w_idx in rows]).reshape(-1, batch.m_total)
        table = np.tile(_INFEASIBLE, (len(results), 1))
        table[rows] = _outcomes(batch, U_adv, S[rows])
        if not np.isfinite(table[rows, 0]).all():
            raise ConfigurationError(
                f"delta {delta} overflows the realized cost; use a smaller delta")
        adv[delta, scenario] = table

    orig_rows = orig.tolist()
    adv_rows = {key: table.tolist() for key, table in adv.items()}
    records: List[Record] = []
    dumps: List[SeriesDump] = []
    for w_idx, window in enumerate(windows):
        j_orig, max_orig, min_orig, l1_orig = orig_rows[w_idx]
        for (delta, scenario), results in blocks.items():
            result = results[w_idx]
            j_adv, max_adv, min_adv, l1_adv = (
                _INFEASIBLE if result.u_hat is None else adv_rows[delta, scenario][w_idx])
            records.append(Record(
                series_id=window.series_id,
                delta=delta,
                scenario=scenario,
                j_orig=j_orig,
                j_adv=j_adv,
                max_u_orig=max_orig,
                max_u_adv=max_adv,
                min_u_orig=min_orig,
                min_u_adv=min_adv,
                l1_orig=l1_orig,
                l1_adv=l1_adv,
                norm_used=result.norm_used,
                flags=";".join(sorted(result.flags)),
            ))
            if w_idx < cfg.series_dump_limit:
                dumps.append(SeriesDump(
                    series_id=window.series_id, delta=delta,
                    scenario=scenario, original=S[w_idx], attacked=result.s_hat,
                ))
    return ScenarioStats(
        records=tuple(records),
        aggregates=tuple(_aggregate(delta, scenario, orig, adv[delta, scenario])
                         for delta, scenario in sorted(adv)),
        p_values=tuple(_paired_p_values(cfg.deltas, cfg.scenarios, adv)),
        series_dumps=tuple(dumps),
        config=cfg.raw,
        seed=cfg.seed,
        n_windows=len(windows),
    )


# perfbench/workloads.py still calls the runner by its former names.
run_cost_experiment = run_constraint_experiment = run_experiment

