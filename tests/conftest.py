import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.signal import lfilter

from tsattack import (
    NumericalError,
    QpSolution,
    SystemSpec,
    batch_form,
    compile_constraints,
    solve_qp,
    wilcoxon_signed_rank,
)
from tsattack import lqr
from tsattack.cost_attack import (_COL_INFEASIBLE, _FLAGS, _AttackedBlock, _checked_norms,
                                  _closed_forms, _random_spheres)
from tsattack.data import SeriesWindow
from tsattack.experiments import task_seed
from tsattack.grad_attack import ZERO_DIRECTION_TOL, TargetFunction, _adjoint, _ascend_rows
from tsattack.lqr import check_series, linear_term
from tsattack.qp import WEAK_DUAL_TOL, _solve_rows, activity_tolerance


def make_scalar_spec(T=1, x0=1.0):
    """The scalar battery system used throughout: A=C=Q=R=1, B=-1."""
    return SystemSpec(A=1.0, B=-1.0, C=1.0, Q=1.0, R=1.0, T=T, x0=x0)


def solve_unconstrained(batch, s) -> np.ndarray:
    """Reference closed form u* = -K^{-1} k(x0, s) of the unconstrained
    controller, which the block solver ``tsattack.qp._solve_rows`` gives bit
    for bit."""
    return -cho_solve(batch.K_factor, linear_term(batch, check_series(batch, s)))


def denormalize_window(window):
    """Invert the stored normalization of a window."""
    offset, factor = window.scale
    return replace(window, values=window.values * factor + offset, scale=(0.0, 1.0))


def random_system(rng, n_max=3, m_max=3, p_max=3, t_max=10):
    """Random well-scaled system: spectral radius of A kept near 1."""
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


def arima_generate_per_window(spec, count, horizon):
    """Reference ``tsattack.arima_generate``: each window simulated alone,
    one ``lfilter`` and ``diff_order`` ``cumsum`` calls per window, which
    the block generator gives bit for bit."""
    burn_in = 10 * (spec.ar_order + spec.diff_order + spec.ma_order + 1)
    ma_poly = np.concatenate([[1.0], spec.ma_coeffs])
    ar_poly = np.concatenate([[1.0], -spec.ar_coeffs])
    windows = []
    for i in range(count):
        rng = np.random.default_rng(spec.seed + i)
        innovations = spec.innovation_std * rng.standard_normal(burn_in + horizon)
        series = lfilter(ma_poly, ar_poly, innovations)[burn_in:]
        for _ in range(spec.diff_order):
            series = np.cumsum(series)
        windows.append(SeriesWindow(values=series, source_id="arima", start_index=i))
    return windows


def adjoint_jacobian(batch, cons, sol):
    """The solution-map Jacobian du/ds (pT x mT) at an optimum, as the
    attacks' adjoint product with the identity, and whether the active rows
    violate LICQ."""
    return _adjoint(batch, cons, list(sol.active), np.eye(batch.m_total))


def row_solution(block, i=0) -> QpSolution:
    """Row i of a solved block of ``tsattack.qp._solve_rows``, as the
    QpSolution ``solve_qp`` gives."""
    if not block.optimal[i]:
        return QpSolution(u=None, mu=None, active=(), weakly_active=(), status="infeasible")
    rows = np.flatnonzero(block.active[i])
    return QpSolution(u=block.U[i], mu=block.mu[i], active=tuple(rows.tolist()),
                      weakly_active=tuple(rows[block.mu[i, rows] < WEAK_DUAL_TOL].tolist()),
                      status="optimal")


def row_flags(flags_row) -> frozenset:
    """The flag names set in one row of an attacked block's flag columns."""
    return frozenset(name for name, set_ in zip(_FLAGS, flags_row) if set_)


def assert_row_is_attack(block, i, result):
    """Row i of an attacked block is bit for bit the AttackResult
    ``result``; its answer is NaN exactly when the row is flagged infeasible
    and ``result.u_hat`` is None."""
    assert block.S_hat[i].tobytes() == result.s_hat.tobytes()
    assert block.attained[i] == result.attained
    assert block.norms[i] == result.norm_used
    assert row_flags(block.flags[i]) == result.flags
    assert block.flags[i, _COL_INFEASIBLE] == (result.u_hat is None)
    if result.u_hat is None:
        assert np.isnan(block.U_hat[i]).all()
    else:
        assert block.U_hat[i].tobytes() == result.u_hat.tobytes()


def per_pair_attack_stage(cfg, batch, cons, series_ids, S):
    """Reference for ``tsattack.experiments.attack_windows``: the clean
    windows solved as one block, then one block per (delta, scenario) pair in
    config order, all windows of the pair in it.  A gradient pair runs its
    own ``_ascend_rows``; a cost-adv or random pair attacks its windows,
    checks their norms with its own ``_checked_norms`` and answers them with
    its own ``_solve_rows``, warm from the clean multipliers; every call
    takes the pair's delta once per row.  Returns the clean actions and the dict of attacked blocks,
    which :func:`pair_major` stacks into the stage's one block."""
    clean = _solve_rows(batch, cons, S, [f"window {sid}" for sid in series_ids])
    assert clean.optimal.all()
    W, blocks = len(S), {}
    for d_idx, delta in enumerate(cfg.deltas):
        for scenario in cfg.scenarios:
            names = [f"window {sid}, delta {delta}, scenario {scenario}" for sid in series_ids]
            budgets = np.full(W, delta)
            if scenario == "cost-adv":
                S_hat, offsets, attained = _closed_forms(batch, S, budgets)
            elif scenario == "random":
                S_hat, offsets, attained = _random_spheres(
                    S, budgets, [task_seed(cfg.seed, w_idx, d_idx) for w_idx in range(W)])
            else:
                step_size = cfg.attack.step_size
                blocks[delta, scenario] = _ascend_rows(
                    batch, cons, S, clean, budgets,
                    np.array([TargetFunction(scenario)] * W),
                    0 if cfg.attack.mode == "single-step" else cfg.attack.steps,
                    None if step_size is None else np.full(W, step_size), names)
                continue
            norms = _checked_norms(offsets, budgets, names)
            answers = _solve_rows(batch, cons, S_hat, names, clean.mu)
            flags = np.zeros((W, len(_FLAGS)), dtype=bool)
            flags[:, _COL_INFEASIBLE] = ~answers.optimal
            blocks[delta, scenario] = _AttackedBlock(S_hat, answers.U, attained, norms, flags)
    return clean.U, blocks


def pair_major(blocks):
    """The per-pair attacked blocks of :func:`per_pair_attack_stage` as one
    block: their rows stacked pair after pair, in the dict's config order."""
    return _AttackedBlock._make(np.concatenate(fields) for fields in zip(*blocks.values()))


def assert_same_block(got, want):
    """Every field of the attacked block ``got`` is bit for bit that of
    ``want``: shape, dtype, value (NaN matching NaN) and bytes."""
    for name, a, b in zip(_AttackedBlock._fields, got, want):
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        assert a.tobytes() == b.tobytes(), name


def finite_difference_jacobian(batch, cons, s_obs, step: float = 1e-6):
    """Central-difference oracle for :func:`adjoint_jacobian` (pT x mT).

    Re-solves the QP twice per series coordinate.  Raises when any perturbed
    problem is infeasible, naming the offending coordinate.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    s_obs = check_series(batch, s_obs, "s_obs")
    J = np.zeros((batch.p_total, batch.m_total))
    for i in range(batch.p_total):
        shifted = s_obs.copy()
        pair = []
        for sign in (1.0, -1.0):
            shifted[i] = s_obs[i] + sign * step
            sol = solve_qp(batch, cons, shifted)
            if not sol.optimal:
                raise NumericalError(
                    "perturbed QP infeasible while differencing series "
                    f"coordinate {i}"
                )
            pair.append(sol.u)
        shifted[i] = s_obs[i]
        J[i] = (pair[0] - pair[1]) / (2.0 * step)
    return J


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize to unit L2 norm; only valid for norms above the zero tolerance."""
    norm = float(np.linalg.norm(v))
    if norm <= ZERO_DIRECTION_TOL:
        raise ValueError("cannot normalize a (near-)zero vector")
    return v / norm


def assert_relative_close(actual, expected, rtol):
    """Every entry of ``actual`` within ``rtol`` of ``expected``, relative to
    the largest magnitude in ``expected`` (an entry near zero is judged on
    the scale of the vector it belongs to)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = np.abs(expected).max(initial=0.0)
    assert np.abs(actual - expected).max(initial=0.0) <= rtol * scale, (actual, expected)


def active_rows(cons, s_obs, u) -> tuple:
    """The rows of cons that u holds with equality at the series s_obs,
    within the solver's activity tolerance."""
    rhs = cons.rhs(s_obs)
    held = np.abs(cons.G @ u - rhs) <= activity_tolerance(rhs)
    return tuple(np.flatnonzero(held).tolist())


def kkt_residuals_oracle(batch, cons, s_obs, sol):
    """Reference for :func:`tsattack.kkt_residuals`: the residuals as first
    written, with the gradient 2Ku + 2k formed whole and 2Ku taken back out
    of it for the scale."""
    s_obs = np.asarray(s_obs, dtype=float)
    k = batch.k_const + batch.L @ s_obs
    rhs = cons.h0 + cons.H @ s_obs
    slack = cons.G @ sol.u - rhs
    grad = 2.0 * batch.K @ sol.u + 2.0 * k
    pull = cons.G.T @ sol.mu
    stat_scale = 1.0 + max(np.abs(grad - 2.0 * k).max(initial=0.0),
                           np.abs(2.0 * k).max(initial=0.0),
                           np.abs(pull).max(initial=0.0))
    row_scale = (1.0 + np.abs(sol.mu)) * (1.0 + np.abs(rhs))
    return {
        "stationarity": float(np.abs(grad + pull).max(initial=0.0) / stat_scale),
        "feasibility": float(np.max(slack / (1.0 + np.abs(rhs)), initial=0.0)),
        "complementarity": float(np.max(np.abs(sol.mu * slack) / row_scale,
                                        initial=0.0)),
        "dual_sign": float(max(0.0, -sol.mu.min(initial=0.0))),
    }


def random_state_box_instance(seed, mixed, state_scale, action_scale):
    """Random system and series under a state box scaled to the free
    trajectory and, when mixed, an action box scaled to the free actions."""
    rng = np.random.default_rng(seed)
    spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=6)
    batch = batch_form(spec)
    s = rng.standard_normal(batch.p_total)
    u_free = solve_unconstrained(batch, s)
    x_free = batch.x0_response + batch.M @ u_free + batch.N @ s
    x_bound = float(np.abs(x_free).max()) * state_scale + 1e-3
    action_box = None
    if mixed:
        u_bound = float(np.abs(u_free).max()) * action_scale + 1e-3
        action_box = (-u_bound, u_bound)
    cons = compile_constraints(spec, batch, action_box=action_box,
                               state_box=(-x_bound, x_bound))
    return batch, cons, s


def aggregate_oracle(records):
    """Reference for ``ScenarioStats.aggregates``: the mean percent increases
    per (delta, scenario) computed record by record, pairing per series.

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


#: The record column each scenario's significance test compares with random.
ORACLE_METRIC_BY_SCENARIO = {
    "cost-adv": "j_adv",
    "max-action": "max_u_adv",
    "min-action": "min_u_adv",
    "l1": "l1_adv",
    "cost-gradient": "j_adv",
}


def paired_p_values_oracle(records, scenarios):
    """Reference for ``ScenarioStats.p_values``: each scenario vs the random
    baseline per delta, with the pairs matched by series id and taken in
    sorted id order."""
    out = []
    deltas = sorted({r.delta for r in records})
    by_key = {}
    for r in records:
        by_key.setdefault((r.delta, r.scenario), {})[r.series_id] = r
    for delta in deltas:
        base = by_key.get((delta, "random"), {})
        for scenario in scenarios:
            if scenario == "random":
                continue
            group = by_key.get((delta, scenario), {})
            metric = ORACLE_METRIC_BY_SCENARIO[scenario]
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


@pytest.fixture
def fresh_forms(monkeypatch):
    """No kept batch form for the test, so the first form it asks of every
    system is built, whatever earlier tests built."""
    monkeypatch.setattr(lqr, "_last_form", None)


@pytest.fixture
def scalar_t1():
    return batch_form(make_scalar_spec(T=1))


@pytest.fixture
def scalar_t2():
    return batch_form(make_scalar_spec(T=2))
