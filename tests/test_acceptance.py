"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
inline).  Criteria with runtime budgets assert them on a monotonic clock.
"""

import itertools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import cho_solve

from tsattack import (
    ConstraintSet,
    TargetFunction,
    batch_form,
    compile_constraints,
    cost_attack,
    cost_delta_quadratic,
    dominant_eigenpair,
    kkt_residuals,
    parse_config,
    projected_gradient_solve,
    random_sphere_attack,
    rollout_cost,
    run_experiment,
    single_step_attack,
    solve_qp,
    solve_unconstrained,
    wilcoxon_signed_rank,
)
from tsattack.cli import main
from tsattack.experiments import calibrate_action_box, load_windows
from tsattack.lqr import linear_term

from conftest import adjoint_jacobian, finite_difference_jacobian, random_system
from test_stats import enumeration_oracle

SWEEP_SEED = 424242
BATTERY_SYSTEM = {"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 50, "x0": 1}


@dataclass(frozen=True)
class SweepInstance:
    batch: object
    s: np.ndarray
    s_hat: np.ndarray
    delta: float
    lambda1: float
    attained: float


@pytest.fixture(scope="module")
def sweep():
    """200 randomized systems (n,m,p <= 3, T <= 10) with their cost attacks."""
    rng = np.random.default_rng(SWEEP_SEED)
    instances = []
    while len(instances) < 200:
        spec = random_system(rng, n_max=3, m_max=3, p_max=3, t_max=10)
        batch = batch_form(spec)
        lambda1 = dominant_eigenpair(batch.Psi).lambda1
        if lambda1 < 1e-6:  # no usable attack surface; redraw
            continue
        s = rng.standard_normal(batch.p_total)
        delta = float(np.clip(2.0 / math.sqrt(lambda1), 1.0, 100.0))
        result = cost_attack(batch, s, delta)
        instances.append(SweepInstance(
            batch=batch, s=s, s_hat=result.s_hat, delta=delta,
            lambda1=lambda1, attained=result.attained,
        ))
    return instances


@pytest.fixture(scope="module")
def cost_run():
    """Scalar battery-storage system on 100 ARIMA windows, full delta grid."""
    cfg = parse_config({
        "system": BATTERY_SYSTEM,
        "deltas": [0.3, 1.0, 3.0],
        "scenarios": ["cost-adv", "random"],
        "dataset": {"kind": "arima", "count": 100},
        "seed": 90125,
    })
    return cfg, run_experiment(cfg)


def test_criterion_01_closed_form_exactness(sweep):
    start = time.monotonic()
    for inst in sweep:
        expected = inst.delta ** 2 * inst.lambda1
        assert math.isclose(inst.attained, expected, rel_tol=1e-8)
        spec = inst.batch.spec
        gap = (rollout_cost(spec, solve_unconstrained(inst.batch, inst.s_hat), inst.s)
               - rollout_cost(spec, solve_unconstrained(inst.batch, inst.s), inst.s))
        assert math.isclose(gap, inst.attained, rel_tol=1e-8)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 closed-form exactness on 200 specs "
          f"({elapsed:.2f}s): PASS")


def test_criterion_02_attack_dominance(sweep):
    start = time.monotonic()
    for index, inst in enumerate(sweep):
        rng = np.random.default_rng(SWEEP_SEED + 1 + index)
        draws = rng.standard_normal((1000, inst.s.size))
        draws /= np.linalg.norm(draws, axis=1, keepdims=True)
        values = inst.delta ** 2 * np.einsum(
            "ij,jk,ik->i", draws, inst.batch.Psi, draws
        )
        assert values.max() <= inst.attained + 1e-9
    # Interface-level spot check through the public baseline op.
    inst = sweep[0]
    for seed in range(20):
        rand = random_sphere_attack(inst.s, inst.delta, seed=seed)
        assert (cost_delta_quadratic(inst.batch, rand.s_hat, inst.s)
                <= inst.attained + 1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 dominance over 1000 random draws per instance "
          f"({elapsed:.2f}s): PASS")


def test_criterion_03_action_gap_linearity(sweep):
    worst = 0.0
    for inst in sweep:
        direct = (solve_unconstrained(inst.batch, inst.s_hat)
                  - solve_unconstrained(inst.batch, inst.s))
        closed = -cho_solve(inst.batch.K_factor,
                            inst.batch.L @ (inst.s_hat - inst.s))
        worst = max(worst, float(np.max(np.abs(direct - closed))))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 3 action-gap linearity (max err {worst:.2e}): PASS")


def test_criterion_04_jacobian_oracle():
    """The implicit KKT Jacobian against central finite differences.

    Instances cycle through unconstrained problems, action boxes, state
    boxes and mixed (state and action) boxes, each scaled to the free
    actions or free trajectory of its random system and series.  State boxes
    move the constraint right-hand side with the series, so they exercise
    the series-through-RHS (H) term of the derivative.  Draws whose clean
    problem is infeasible or whose solution is weakly active are redrawn and
    counted.  Every instance with no active row is also checked against the
    closed form -(K^-1 L)'.
    """
    start = time.monotonic()
    kinds = ("free", "action box", "state box", "mixed")
    checked = {kind: 0 for kind in kinds}
    redrawn = {"infeasible": Counter(), "weakly active": Counter()}
    closed_form_checked = 0
    mixed_both_active = 0
    worst = 0.0
    instance_seed = 0
    while sum(checked.values()) < 200:
        instance_seed += 1
        rng = np.random.default_rng(instance_seed)
        spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=8)
        batch = batch_form(spec)
        s = rng.standard_normal(batch.p_total)
        u_free = solve_unconstrained(batch, s)
        kind = kinds[sum(checked.values()) % 4]
        action_box = state_box = None
        if kind in ("action box", "mixed"):
            bound = float(np.max(np.abs(u_free))) * rng.uniform(0.3, 1.2) + 1e-3
            action_box = (-bound, bound)
        if kind in ("state box", "mixed"):
            x_free = batch.x0_response + batch.M @ u_free + batch.N @ s
            bound = float(np.max(np.abs(x_free))) * rng.uniform(0.2, 1.2) + 1e-3
            state_box = (-bound, bound)
        cons = compile_constraints(spec, batch, action_box=action_box,
                                   state_box=state_box)
        sol = solve_qp(batch, cons, s)
        if not sol.optimal:
            redrawn["infeasible"][kind] += 1
            continue
        if sol.weakly_active:
            redrawn["weakly active"][kind] += 1
            continue
        analytic, _ = adjoint_jacobian(batch, cons, sol)
        numeric = finite_difference_jacobian(batch, cons, s)
        error = float(np.max(np.abs(analytic - numeric)))
        assert error <= 1e-5, (instance_seed, kind, error)
        worst = max(worst, error)
        if not sol.active:
            closed = (-cho_solve(batch.K_factor, batch.L)).T
            closed_error = float(np.max(np.abs(analytic - closed)))
            assert closed_error <= 1e-10, (instance_seed, kind, closed_error)
            closed_form_checked += 1
        if kind == "mixed":
            action_rows = 2 * batch.m_total  # compiled before the state rows
            if (min(sol.active, default=action_rows) < action_rows
                    <= max(sol.active, default=-1)):
                mixed_both_active += 1
        checked[kind] += 1
    elapsed = time.monotonic() - start
    assert all(count >= 50 for count in checked.values())
    assert closed_form_checked >= checked["free"] + 5  # some inactive boxes
    assert mixed_both_active >= 20
    print(f"\nACCEPTANCE 4 Jacobian vs finite differences on 200 instances, "
          f"50 per kind (max err {worst:.2e}, {closed_form_checked} closed-form "
          f"checks, {mixed_both_active} mixed with action and state rows "
          f"active; redrew {dict(redrawn['infeasible'])} infeasible and "
          f"{dict(redrawn['weakly active'])} weakly active; "
          f"{elapsed:.2f}s): PASS")


def test_criterion_05_zero_gradient_fixed_point():
    rng = np.random.default_rng(4242)
    hits = 0
    for index in range(100):
        spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=8)
        batch = batch_form(spec)
        s = rng.standard_normal(batch.p_total)
        if index % 2 == 0:
            cons = ConstraintSet.empty(batch.m_total, batch.p_total)
        else:
            u_free = solve_unconstrained(batch, s)
            bound = float(np.max(np.abs(u_free))) * rng.uniform(0.4, 1.2) + 1e-3
            cons = compile_constraints(spec, batch, action_box=(-bound, bound))
        result = single_step_attack(batch, cons, s, 1.0,
                                    TargetFunction.COST_CHANGE)
        assert "zero-gradient" in result.flags
        assert np.array_equal(result.s_hat, s)
        hits += 1
    assert hits == 100
    print("\nACCEPTANCE 5 cost-change target returns the series unchanged "
          "on 100/100 instances: PASS")


def test_criterion_06_quadratic_scaling(cost_run):
    cfg, stats = cost_run
    means = {
        entry["delta"]: entry["mean_pct_increase_j"]
        for entry in stats.aggregates
        if entry["scenario"] == "cost-adv"
    }
    assert set(means) == {0.3, 1.0, 3.0}
    assert all(entry is not None for entry in means.values())
    for small, large in itertools.combinations(sorted(means), 2):
        ratio = means[large] / means[small]
        expected = (large / small) ** 2
        assert math.isclose(ratio, expected, rel_tol=1e-6)
    print(f"\nACCEPTANCE 6 mean %-increase ratios follow (di/dj)^2 "
          f"(means: {means}): PASS")


def test_criterion_07_statistical_significance(cost_run):
    _, stats = cost_run
    assert stats.n_windows >= 30
    by_delta = {entry["delta"]: entry for entry in stats.p_values}
    assert set(by_delta) == {0.3, 1.0, 3.0}
    for delta, entry in by_delta.items():
        assert entry["p_value"] < 0.01, (delta, entry)
    # Exact-null implementation against literal sign enumeration, n <= 12.
    rng = np.random.default_rng(31337)
    for _ in range(15):
        n = int(rng.integers(5, 13))
        a = rng.integers(-4, 5, size=n).astype(float)
        b = rng.integers(-4, 5, size=n).astype(float)
        if np.count_nonzero(a - b) < 5:
            continue
        for sidedness in ("two-sided", "greater", "less"):
            ours = wilcoxon_signed_rank(a, b, sidedness=sidedness)
            assert ours.p_value == enumeration_oracle(a, b, sidedness)
    print(f"\nACCEPTANCE 7 Wilcoxon p < 0.01 at each delta "
          f"(p = {sorted(e['p_value'] for e in stats.p_values)}): PASS")


def test_criterion_08_constraint_attack_distinctness():
    cfg = parse_config({
        "system": BATTERY_SYSTEM,
        "deltas": [1.0],
        "scenarios": ["max-action", "l1", "random"],
        "dataset": {"kind": "arima", "count": 100},
        "action_box": "auto",
        "seed": 20250810,
    })
    stats = run_experiment(cfg)
    by_key = {(r.series_id, r.scenario): r for r in stats.records}
    series_ids = sorted({r.series_id for r in stats.records})
    assert len(series_ids) == 100

    # Closed-form cost attack applied to the same constrained controller.
    batch = batch_form(cfg.system)
    windows = load_windows(cfg)
    cons = compile_constraints(cfg.system, batch,
                               action_box=calibrate_action_box(batch, windows))
    j_cost_attack = {}
    for window in windows:
        attacked = cost_attack(batch, window.values, 1.0)
        sol = solve_qp(batch, cons, attacked.s_hat)
        j_cost_attack[window.series_id] = rollout_cost(cfg.system, sol.u,
                                                       window.values)

    max_wins = sum(
        by_key[(sid, "max-action")].max_u_adv > by_key[(sid, "random")].max_u_adv
        for sid in series_ids
    )
    l1_wins = sum(
        by_key[(sid, "l1")].l1_adv > by_key[(sid, "random")].l1_adv
        for sid in series_ids
    )
    max_cost_below = sum(
        by_key[(sid, "max-action")].j_adv <= j_cost_attack[sid]
        for sid in series_ids
    )
    l1_cost_below = sum(
        by_key[(sid, "l1")].j_adv <= j_cost_attack[sid]
        for sid in series_ids
    )
    assert max_wins >= 80, max_wins
    assert l1_wins >= 80, l1_wins
    assert max_cost_below >= 90, max_cost_below
    assert l1_cost_below >= 90, l1_cost_below
    print(f"\nACCEPTANCE 8 constraint attacks distinct from cost attack "
          f"(max-action {max_wins}/100, l1 {l1_wins}/100, cost-dominated "
          f"{max_cost_below}/{l1_cost_below} of 100): PASS")


def test_criterion_09_qp_correctness():
    # KKT residuals are asserted inside solve_qp on every solve; here each
    # solve is additionally checked explicitly and against the independent
    # projected-gradient reference.
    rng = np.random.default_rng(5151)
    for _ in range(100):
        spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=6)
        batch = batch_form(spec)
        s = rng.standard_normal(batch.p_total)
        u_free = solve_unconstrained(batch, s)
        bound = float(np.max(np.abs(u_free))) * rng.uniform(0.3, 1.2) + 1e-3
        cons = compile_constraints(spec, batch, action_box=(-bound, bound))
        sol = solve_qp(batch, cons, s)
        residuals = kkt_residuals(batch, cons, s, sol)
        assert residuals["stationarity"] <= 1e-8
        assert residuals["feasibility"] <= 1e-9
        assert residuals["complementarity"] <= 1e-8
        reference = projected_gradient_solve(
            batch.K, linear_term(batch, s),
            lower=np.full(batch.m_total, -bound),
            upper=np.full(batch.m_total, bound),
        )
        assert np.max(np.abs(sol.u - reference)) <= 1e-6
    print("\nACCEPTANCE 9 KKT residuals and projected-gradient agreement "
          "on 100 instances: PASS")


def test_criterion_10_determinism(tmp_path):
    config = {
        "system": BATTERY_SYSTEM,
        "deltas": [0.3, 1.0, 3.0],
        "scenarios": ["cost-adv", "random"],
        "dataset": {"kind": "arima", "count": 30},
        "seed": 2024,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        assert main(["experiment", "--config", str(config_path),
                     "--out-dir", str(out_dir)]) == 0
        outputs.append((out_dir / "records.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 0
    print("\nACCEPTANCE 10 byte-identical records.csv across reruns: PASS")
