"""Experiment orchestration: one attack sweep over windows, budgets and scenarios.

The configured boxes choose the controller: with no box the constraint set
is empty and the controller is the unconstrained LQR; otherwise it is the
box-constrained QP.  Every configured scenario runs against it.  Every
attacked controller is costed against the REAL series; the perturbed
series only ever enters through the controller's decision.  Runs are
deterministic for a given (config, seed): per-task seeds are derived from
window and delta indices, and aggregation sorts records by key before
emission.  Each window is checked once, as it is stacked into the (W, pT)
block that calibrates an ``auto`` action box and is attacked.  The attack
stage, :func:`attack_windows`, solves the clean windows as one block and
returns one attacked block of arrays (:class:`tsattack.cost_attack._AttackedBlock`)
with one row per (delta, scenario, window), pair-major in config order;
every row is bit for bit what one window attacked on its own gives, and
its docstring states the order in which a failure stops the run.  The
clean windows and the attacked rows are costed into outcome tables, one
column per metric of :data:`tsattack.grad_attack._METRICS`, from each
window's real-series response ``N s``, computed once per run; the records,
aggregates and p-values read them, so windows pair by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import ExperimentConfig
from .cost_attack import (_COL_INFEASIBLE, _FLAGS, _AttackedBlock, _checked_norms,
                          _closed_forms, _random_spheres)
from .data import (
    SeriesWindow,
    load_series_windows,
    normalize_windows,
    sample_random_arima,
)
from .errors import ConfigurationError
from .grad_attack import _METRICS, TargetFunction, _ascend_rows
from .lqr import BatchForm, _one_blas_thread, _row_products, batch_form, check_series
from .qp import ConstraintSet, _StageCache, _solve_rows, compile_constraints
from .stats import wilcoxon_signed_rank

#: The outcome row of an infeasible answer: an infinite cost, NaN otherwise.
#: Records compare NaN by value, but lists of their raw fields (perfbench's
#: canonical_records) match NaNs only by identity, so every infeasible record
#: gets the one math.nan.
_INFEASIBLE = (math.inf,) + (math.nan,) * (len(_METRICS) - 1)

#: Stands in for every NaN field when records are compared or hashed.
_NAN = object()

#: An ``auto`` action box is this multiple of this quantile of the clean |u*|.
_CALIBRATION_SLACK, _CALIBRATION_QUANTILE = 1.5, 0.95


@dataclass(frozen=True, eq=False)
class Record:
    """One (series, delta, scenario) outcome; all costs are vs the real series.

    The metric fields are ``<name>_orig``, ``<name>_adv`` of each metric of
    :data:`tsattack.grad_attack._METRICS`, in its order.  Records compare
    and hash by value, with every NaN field (the action metrics of an
    infeasible outcome) equal to every other NaN.
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


@dataclass(frozen=True, eq=False)
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


def _outcomes(batch: BatchForm, U: np.ndarray, NS: np.ndarray) -> np.ndarray:
    """Outcome table of the action rows U played against the real series
    whose responses ``N s`` are the rows of NS: one column per metric of
    ``_METRICS``, each entry bit for bit its row's own."""
    return np.column_stack([metric.block(batch, U, NS) for metric in _METRICS])


def _aggregate(delta: float, scenario: str, orig: np.ndarray, adv: np.ndarray) -> dict:
    """Mean percent increases of one (delta, scenario) pair, pairing its
    rows of the attacked outcome table, ``adv``, with the clean ``orig`` by
    row.

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
    for col, metric in enumerate(_METRICS):
        if not metric.pct:
            continue
        used = feasible & (orig[:, col] > 0)
        o = orig[used, col]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean is the error below
            mean = float(np.mean(100.0 * (adv[used, col] - o) / o)) if o.size else None
        if mean is not None and not math.isfinite(mean):
            raise ConfigurationError(
                f"delta {delta}, scenario {scenario}: the mean percent increase of "
                f"{metric.name} is not finite; use a smaller delta")
        entry[f"mean_pct_increase_{metric.name}"] = mean
        entry[f"n_used_{metric.name}"] = int(used.sum())
    return entry


def _paired_p_values(deltas: Sequence[float], scenarios: Sequence[str],
                     adv: Dict[Tuple[float, str], np.ndarray]) -> List[dict]:
    """Wilcoxon p-values of each scenario vs the random baseline, per delta.

    ``adv`` maps each (delta, scenario) to its outcome table; windows pair
    by row.  Each scenario is compared on the ``<name>_adv`` column of the
    metric of ``_METRICS`` that lists it.  A (delta, scenario) with fewer than 5 finite
    pairs, or with 1 to 4 nonzero differences (too few for the test; none is
    its degenerate p = 1), gets no p-value.
    """
    if "random" not in scenarios:
        return []
    tested = [(scenario, col, metric) for scenario in scenarios
              for col, metric in enumerate(_METRICS) if scenario in metric.scenarios]
    out = []
    for delta in deltas:
        for scenario, col, metric in tested:
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
                "metric": f"{metric.name}_adv",
                "p_value": result.p_value,
                "statistic": result.statistic,
                "n": result.n,
                "method": result.method,
                "degenerate": result.degenerate,
            })
    return out


def _stack_windows(batch: BatchForm, windows: Sequence[SeriesWindow],
                   ids: Optional[Sequence[str]] = None) -> np.ndarray:
    """Check every window once and stack them as a (windows x pT) matrix; an
    error names its window ``window <id>``, by its entry of ``ids`` or else
    by its series id."""
    if ids is None:
        ids = [window.series_id for window in windows]
    S = np.empty((len(windows), batch.p_total))
    for row, window, window_id in zip(S, windows, ids):
        row[:] = check_series(batch, window.values, f"window {window_id}")
    return S


def calibrate_action_box(batch: BatchForm,
                         windows: Sequence[SeriesWindow]) -> Tuple[float, float]:
    """Symmetric action bounds from the unattacked action distribution.

    Returns -/+ _CALIBRATION_SLACK (1.5) times the _CALIBRATION_QUANTILE
    (0.95) quantile of |u*| pooled over all windows, which keeps the box
    occasionally active on clean data; the windows are checked and solved
    as one block with no constraint.
    """
    return _calibrated_box(batch, _stack_windows(batch, windows))


def _calibrated_box(batch: BatchForm, S: np.ndarray) -> Tuple[float, float]:
    """:func:`calibrate_action_box` of the checked (W, pT) block of windows S."""
    if not len(S):
        raise ValueError("calibrate_action_box needs at least one window")
    cons = ConstraintSet.empty(batch.m_total, batch.p_total)
    with np.errstate(over="ignore"):  # an overflow is the error below
        magnitudes = np.abs(_solve_rows(batch, cons, S).U)
        bound = _CALIBRATION_SLACK * float(np.quantile(magnitudes, _CALIBRATION_QUANTILE))
    if not (np.isfinite(magnitudes).all() and math.isfinite(bound)):
        raise ConfigurationError("calibrated action bound is not finite; check the data")
    if bound <= 0:
        raise ConfigurationError("calibrated action bound is zero; check the data")
    return -bound, bound


def constraints_for(cfg: ExperimentConfig, batch: BatchForm, S: np.ndarray) -> ConstraintSet:
    """Compile the configured boxes, calibrating an ``auto`` action box on
    the checked (W, pT) block of windows S.

    With no box this is the empty set: the controller is the unconstrained LQR.
    """
    action_box = cfg.action_box
    if action_box == "auto":
        action_box = _calibrated_box(batch, S)
    return compile_constraints(cfg.system, batch, action_box=action_box,
                               state_box=cfg.state_box)


@_one_blas_thread()
def attack_windows(cfg: ExperimentConfig, batch: BatchForm, cons: ConstraintSet,
                   series_ids: Sequence[str], S: np.ndarray
                   ) -> Tuple[np.ndarray, _AttackedBlock]:
    """The attack stage: solve the clean windows, the rows of the (W, pT)
    array S, then attack and answer every window for each (delta, scenario)
    pair of the config.

    The one place a scenario name becomes an attack.  Returns the (W, mT)
    clean actions and one attacked block of P * W rows for the config's P
    pairs, pair-major in config order (deltas outer, scenarios inner): pair
    p holds rows p * W to (p + 1) * W, one row per window, and each row has
    its own window, delta, scenario and name.  The ``cost-adv`` rows step
    along the cached eigenvector of Psi and the ``random`` rows along a
    direction drawn from :func:`task_seed`, one block call each; their
    norms are checked at once, and they are solved as one block, each warm
    from its clean window's multipliers and flagged ``infeasible`` where not
    optimal.  The gradient rows run one lockstep ascent from their clean
    windows (:func:`tsattack.grad_attack._ascend_rows`).  Each writes its
    rows of the block through a row mask, and every row is bit for bit its
    window attacked alone.

    The first failure stops the stage, in this order:

    1. the clean block: a solver failure, then one
       :class:`ConfigurationError` naming every window whose clean problem
       is infeasible;
    2. one norm check over every ``cost-adv``/``random`` row in config
       order;
    3. their one solve: an overflowing ``L s`` first, then the first failing
       row in config order;
    4. the one ascent of the gradient pairs, at the first step where a row
       fails and, within that step, at its first failing row in config
       order.

    A failure in the clean block names its window by ``series_ids``
    (``window <id>``); a failed solve or norm check of an attacked row names
    its window, delta and scenario (``window <id>, delta <d>, scenario <s>``).
    """
    cache = _StageCache(batch, cons)
    clean = _solve_rows(batch, cons, S, [f"window {sid}" for sid in series_ids], cache=cache)
    infeasible = [sid for sid, ok in zip(series_ids, clean.optimal.tolist()) if not ok]
    if infeasible:
        raise ConfigurationError(
            f"unattacked problem infeasible for windows {', '.join(infeasible)}; "
            "loosen the configured boxes"
        )
    W, K = len(S), len(cfg.scenarios)
    pair, window = np.divmod(np.arange(len(cfg.deltas) * K * W), W)
    d_idx, s_idx = np.divmod(pair, K)
    deltas, scenarios = np.array(cfg.deltas)[d_idx], np.array(cfg.scenarios)[s_idx]
    names = np.array([f"window {sid}, delta {delta}, scenario {scenario}"
                      for delta in cfg.deltas for scenario in cfg.scenarios
                      for sid in series_ids], dtype=object)
    cost, rand = scenarios == "cost-adv", scenarios == "random"
    closed, climbs = cost | rand, ~(cost | rand)
    S_rows, n = S[window], len(names)
    block = _AttackedBlock(np.empty_like(S_rows), np.empty((n, clean.U.shape[1])),
                           np.empty(n), np.empty(n), np.zeros((n, len(_FLAGS)), dtype=bool))
    offsets = np.empty_like(S_rows)
    if cost.any():
        block.S_hat[cost], offsets[cost], block.attained[cost] = _closed_forms(
            batch, S_rows[cost], deltas[cost])
    if rand.any():
        block.S_hat[rand], offsets[rand], block.attained[rand] = _random_spheres(
            S_rows[rand], deltas[rand], [task_seed(cfg.seed, w, d) for w, d in
                                         zip(window[rand].tolist(), d_idx[rand].tolist())])
    if closed.any():
        block.norms[closed] = _checked_norms(offsets[closed], deltas[closed], names[closed])
        answers = _solve_rows(batch, cons, block.S_hat[closed], names[closed],
                              clean.mu[window[closed]], cache)
        block.U_hat[closed] = answers.U
        block.flags[closed, _COL_INFEASIBLE] = ~answers.optimal
    if climbs.any():
        step_size = cfg.attack.step_size
        targets = np.array([None if scenario in ("cost-adv", "random")
                            else TargetFunction(scenario) for scenario in cfg.scenarios])
        found = _ascend_rows(batch, cons, S_rows[climbs],
                             clean._make(part[window[climbs]] for part in clean),
                             deltas[climbs], targets[s_idx[climbs]],
                             0 if cfg.attack.mode == "single-step" else cfg.attack.steps,
                             None if step_size is None else np.full(climbs.sum(), step_size),
                             names[climbs], cache)
        for field, rows in zip(block, found):
            field[climbs] = rows
    return clean.U, block


@_one_blas_thread()
def run_experiment(cfg: ExperimentConfig) -> ScenarioStats:
    """Attack every (window, delta, scenario) and cost the answers on the real series.

    The controller is the one :func:`constraints_for` compiles from the
    configured boxes (none: the unconstrained LQR).  :func:`attack_windows`
    solves the clean windows and returns the one attacked block; its
    docstring gives the order in which a failure stops the run.  The clean
    windows and the feasible attacked rows get one outcome table each, from
    one call each of every metric's block function (the cost's is the kernel
    behind :func:`tsattack.lqr.realized_costs`) on each window's response
    ``N s``, computed once.  A window whose clean
    cost overflows fails the run, as do a feasible attacked cost that overflows
    (naming the delta of the first such pair in config order) and the first
    aggregate that is not finite (naming its delta and scenario).  Records
    run window-major; a record's flags join its row's set flag columns by
    ``;``.
    """
    batch = batch_form(cfg.system)
    windows = load_windows(cfg)
    ids = [window.series_id for window in windows]
    S = _stack_windows(batch, windows, ids)
    U_orig, block = attack_windows(cfg, batch, constraints_for(cfg, batch, S), ids, S)

    NS = _row_products(batch.N, S)
    orig = _outcomes(batch, U_orig, NS)
    overflow = np.flatnonzero(~np.isfinite(orig[:, 0]))
    if overflow.size:
        raise ConfigurationError(f"realized cost of window {ids[overflow[0]]} is not finite")
    W = len(S)
    pairs = [(delta, scenario) for delta in cfg.deltas for scenario in cfg.scenarios]
    feasible = ~block.flags[:, _COL_INFEASIBLE]
    adv = np.tile(_INFEASIBLE, (len(feasible), 1))
    rows = np.flatnonzero(feasible)
    adv[rows] = _outcomes(batch, block.U_hat[rows], NS[rows % W])
    overflow = np.flatnonzero(feasible & ~np.isfinite(adv[:, 0]))
    if overflow.size:
        raise ConfigurationError(f"delta {pairs[overflow[0] // W][0]} overflows the "
                                 "realized cost; use a smaller delta")
    tables = dict(zip(pairs, adv.reshape(len(pairs), W, len(_METRICS))))

    orig_rows, norms = orig.tolist(), block.norms.tolist()
    outcomes = [row if ok else _INFEASIBLE for row, ok in zip(adv.tolist(), feasible.tolist())]
    flag_texts = [";".join(compress(_FLAGS, row)) for row in block.flags.tolist()]
    records: List[Record] = []
    dumps: List[SeriesDump] = []
    for w_idx, (series_id, original) in enumerate(zip(ids, S)):
        for row, (delta, scenario) in zip(range(w_idx, len(outcomes), W), pairs):
            records.append(Record(  # the metric fields pair up in _METRICS order
                series_id, delta, scenario,
                *chain.from_iterable(zip(orig_rows[w_idx], outcomes[row])),
                norms[row], flag_texts[row]))
            if w_idx < cfg.series_dump_limit:
                dumps.append(SeriesDump(
                    series_id=series_id, delta=delta,
                    scenario=scenario, original=original, attacked=block.S_hat[row],
                ))
    return ScenarioStats(
        records=tuple(records),
        aggregates=tuple(_aggregate(delta, scenario, orig, tables[delta, scenario])
                         for delta, scenario in sorted(tables)),
        p_values=tuple(_paired_p_values(cfg.deltas, cfg.scenarios, tables)),
        series_dumps=tuple(dumps),
        config=cfg.raw,
        seed=cfg.seed,
        n_windows=len(windows),
    )


# perfbench/workloads.py still calls the runner by its former names.
run_cost_experiment = run_constraint_experiment = run_experiment

