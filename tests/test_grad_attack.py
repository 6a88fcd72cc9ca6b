import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from tsattack import (
    ConstraintSet,
    NumericalError,
    TargetFunction,
    batch_form,
    compile_constraints,
    iterated_attack,
    realized_costs,
    single_step_attack,
    solve_qp,
)
from tsattack import grad_attack, qp
from tsattack.cost_attack import _checked_norms
from tsattack.grad_attack import project_ball
from tsattack.lqr import _row_products

from conftest import (
    active_rows,
    adjoint_jacobian,
    assert_relative_close,
    assert_row_is_attack,
    finite_difference_jacobian,
    make_scalar_spec,
    random_state_box_instance,
    random_system,
    row_flags,
    row_solution,
    solve_unconstrained,
    unit,
)


def target_value(target, u, batch, s_real) -> float:
    """The attack target at the actions u, judged against the real series:
    the ascent's block values of a one-row block, given the series'
    response ``N s``."""
    u = np.asarray(u, dtype=float).ravel()
    NS = _row_products(batch.N, one_row(s_real))
    return float(grad_attack._target_values(np.array([target]), u[None], batch, NS)[0])


def target_gradient(target, u, batch, s_real) -> np.ndarray:
    """The target's (sub)gradient at the actions u: the ascent's block
    gradients of a one-row block."""
    u = np.asarray(u, dtype=float).ravel()
    return grad_attack._target_gradients(np.array([target]), u[None], batch,
                                         one_row(s_real))[0]


def one_row(s):
    """The series s as a one-row block, or None."""
    return None if s is None else np.asarray(s, dtype=float).reshape(1, -1)


def closed_form_jacobian(batch):
    return (-cho_solve(batch.K_factor, batch.L)).T


def reference_jacobian(batch, cons, sol):
    """Oracle: du/ds from the (mT + nA)-square KKT block system.

    A QR rank test of the active rows (LICQ) or a failed LU switches to
    least squares and marks the result degenerate.  Returns (J, degenerate).
    """
    active = list(sol.active)
    if not active:
        return closed_form_jacobian(batch), False
    GA, HA = cons.G[active], cons.H[active]
    nA = len(active)
    kkt = np.block([[2.0 * batch.K, GA.T], [GA, np.zeros((nA, nA))]])
    rhs = np.vstack([-2.0 * batch.L, HA])
    degenerate = nA > GA.shape[1] or not np.all(
        np.abs(np.diag(np.linalg.qr(GA.T, mode="r")))
        > 1e-10 * np.linalg.norm(GA, axis=1))
    if not degenerate:
        try:
            blocks = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            degenerate = True
    if degenerate:
        blocks = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return blocks[:batch.m_total].T, degenerate


def with_rows_repeated(cons, rows):
    """cons with the given rows appended once more (violates LICQ)."""
    return ConstraintSet(G=np.vstack([cons.G, cons.G[rows]]),
                         h0=np.concatenate([cons.h0, cons.h0[rows]]),
                         H=np.vstack([cons.H, cons.H[rows]]))


def oracle_instances(count):
    """Optimal solves on random action, state and mixed boxes, each also
    with its active rows given twice.  Yields (batch, cons, s, sol)."""
    rng = np.random.default_rng(47)
    for seed in range(count):
        kind = seed % 3
        if kind == 0:
            spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=6)
            batch = batch_form(spec)
            s = rng.standard_normal(batch.p_total)
            bound = float(np.max(np.abs(solve_unconstrained(batch, s))))
            bound *= rng.uniform(0.3, 1.2)
            cons = compile_constraints(spec, batch, action_box=(-bound, bound))
        else:
            batch, cons, s = random_state_box_instance(
                seed, kind == 2, rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2))
        sol = solve_qp(batch, cons, s)
        if not sol.optimal:
            continue
        yield batch, cons, s, sol
        if sol.active:
            twice = with_rows_repeated(cons, list(sol.active))
            yield batch, twice, s, solve_qp(batch, twice, s)


def reference_iterated_attack(batch, cons, s, delta, target, steps=20,
                              step_size=None):
    """Oracle: the iterated attack without the fixed-point exit.

    Takes the single-step candidate first, then runs every step from a
    second clean solve and direction, and solves every iterate, including
    repeats.  Each attacked solve is warm-started on the working set of the
    solve it perturbs (the clean one for the single step and the first
    iterate, then the previous iterate), as the attack's own solves are.
    The directions come from ``grad_attack._adjoint``, which
    ``test_attack_direction_is_the_jacobian_product`` checks against the
    block-solve Jacobian.  Returns (s_hat, attained, flags, u_hat), u_hat
    the controller's answer on s_hat (None when it is infeasible).
    """
    if step_size is None:
        step_size = delta / 10.0
    s = np.asarray(s, dtype=float)
    flags = set()

    def direction_at(sol):
        direction, degenerate = grad_attack._adjoint(
            batch, cons, list(sol.active), target_gradient(target, sol.u, batch, s))
        if sol.weakly_active:
            flags.add("weak-active")
        if degenerate:
            flags.add("degenerate-kkt")
        return direction

    def solve_from(sol, s_obs):
        return row_solution(qp._solve_rows(batch, cons, s_obs[None], warm=sol.mu[None]))

    clean = solve_qp(batch, cons, s)
    direction = direction_at(clean)
    if np.linalg.norm(direction) <= 1e-12:
        return (s, target_value(target, clean.u, batch, s),
                frozenset(flags | {"zero-gradient"}), clean.u)
    best_s = s + delta * unit(direction)
    attacked = solve_from(clean, best_s)
    if not attacked.optimal:
        return best_s, math.inf, frozenset(flags | {"infeasible"}), None
    best_value, best_u = target_value(target, attacked.u, batch, s), attacked.u
    s_cur, sol_cur = s, solve_qp(batch, cons, s)
    for _ in range(steps):
        direction = direction_at(sol_cur)
        if np.linalg.norm(direction) <= 1e-12:
            break
        s_next = project_ball(s_cur + step_size * unit(direction), s, delta)
        sol_next = solve_from(sol_cur, s_next)
        if not sol_next.optimal:
            return s_next, math.inf, frozenset(flags | {"infeasible"}), None
        value = target_value(target, sol_next.u, batch, s)
        if value - best_value > 1e-12 * abs(best_value):
            best_s, best_value, best_u = s_next, value, sol_next.u
        s_cur, sol_cur = s_next, sol_next
    return best_s, best_value, frozenset(flags), best_u


def assert_same_answer(u_hat, expected):
    """The same controller answer, bit for bit; None when infeasible."""
    if expected is None:
        assert u_hat is None
    else:
        assert u_hat.tobytes() == expected.tobytes()


def duplicated_action_box(batch, bound):
    """The box -bound <= u <= bound with every upper-bound row given twice."""
    eye = np.eye(batch.m_total)
    upper = np.full(batch.m_total, bound)
    return ConstraintSet(G=np.vstack([eye, eye, -eye]),
                         h0=np.concatenate([upper, upper, upper]),
                         H=np.zeros((3 * batch.m_total, batch.p_total)))


class TestSolutionJacobian:
    def test_unconstrained_scalar(self, scalar_t1):
        cons = ConstraintSet.empty(1, 1)
        sol = solve_qp(scalar_t1, cons, [0.0])
        J, _ = adjoint_jacobian(scalar_t1, cons, sol)
        np.testing.assert_allclose(J, [[0.5]])
        assert not sol.weakly_active

    def test_unconstrained_reduces_to_coupling(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            batch = batch_form(random_system(rng))
            cons = ConstraintSet.empty(batch.m_total, batch.p_total)
            sol = solve_qp(batch, cons, rng.standard_normal(batch.p_total))
            J, _ = adjoint_jacobian(batch, cons, sol)
            np.testing.assert_allclose(J, closed_form_jacobian(batch), atol=1e-10)

    def test_clamped_scalar_is_zero(self, scalar_t1):
        cons = compile_constraints(scalar_t1.spec, scalar_t1,
                                   action_box=(-0.3, 0.3))
        sol = solve_qp(scalar_t1, cons, [0.0])
        J, _ = adjoint_jacobian(scalar_t1, cons, sol)
        np.testing.assert_allclose(J, [[0.0]], atol=1e-14)

    def test_all_clamped_gives_zero_matrix(self):
        # Large x0 pushes every action onto the box; H = 0 so nothing moves.
        spec = make_scalar_spec(T=3, x0=50.0)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, action_box=(-0.05, 0.05))
        sol = solve_qp(batch, cons, np.zeros(3))
        assert len(sol.active) == 3
        assert min(sol.mu[list(sol.active)]) > 0
        J, _ = adjoint_jacobian(batch, cons, sol)
        np.testing.assert_allclose(J, 0.0, atol=1e-12)

    def test_free_jacobian_is_the_cached_coupling(self, scalar_t2):
        cons = ConstraintSet.empty(2, 2)
        J, degenerate = adjoint_jacobian(scalar_t2, cons,
                                         solve_qp(scalar_t2, cons, [0.1, 0.2]))
        cached = scalar_t2.free_jacobian.copy()
        np.testing.assert_array_equal(J, cached.T)
        assert not degenerate
        J[0, 0] += 1.0
        np.testing.assert_array_equal(scalar_t2.free_jacobian, cached)

    def test_matches_the_block_solve_oracle(self):
        # J within 1e-10 of the KKT block solve, relative to max(1, |J|), and
        # the same flags, on boxes whose active rows enter the right-hand
        # side through the series (state rows) and on repeated active rows.
        series_rows = degenerate = 0
        for batch, cons, s, sol in oracle_instances(90):
            J, flagged = adjoint_jacobian(batch, cons, sol)
            J_ref, degenerate_ref = reference_jacobian(batch, cons, sol)
            scale = max(1.0, float(np.abs(J_ref).max()))
            assert np.abs(J - J_ref).max() <= 1e-10 * scale
            assert flagged == degenerate_ref
            series_rows += bool(np.any(cons.H[list(sol.active)]))
            degenerate += degenerate_ref
        assert series_rows >= 20 and degenerate >= 20

    def test_attack_direction_is_the_jacobian_product(self):
        for batch, cons, s, sol in oracle_instances(45):
            J, _ = reference_jacobian(batch, cons, sol)
            for target in (TargetFunction.MAX_ACTION, TargetFunction.MIN_ACTION,
                           TargetFunction.L1_ENERGY):
                grad = target_gradient(target, sol.u, batch, s)
                direction, _ = grad_attack._adjoint(batch, cons, list(sol.active), grad)
                expected = J @ grad
                scale = max(1.0, float(np.abs(expected).max()))
                assert np.abs(direction - expected).max() <= 1e-12 * scale

    def test_duplicated_active_rows_flag_degenerate_kkt(self):
        # Both copies of an active upper-bound row are active, which
        # violates LICQ: the KKT matrix is singular.  The action derivative
        # is still unique and equals the one of the box without duplicates.
        spec = make_scalar_spec(T=3)
        batch = batch_form(spec)
        s = np.zeros(3)
        cons = duplicated_action_box(batch, 0.4)
        sol = solve_qp(batch, cons, s)
        assert {0, 3} <= set(sol.active)
        J, degenerate = adjoint_jacobian(batch, cons, sol)
        assert degenerate
        box = compile_constraints(spec, batch, action_box=(-0.4, 0.4))
        J_plain, degenerate = adjoint_jacobian(batch, box, solve_qp(batch, box, s))
        assert not degenerate
        np.testing.assert_allclose(J, J_plain, atol=1e-12)
        for attack in (single_step_attack, iterated_attack):
            result = attack(batch, cons, s, 0.5, TargetFunction.L1_ENERGY)
            assert "degenerate-kkt" in result.flags
            clean = attack(batch, box, s, 0.5, TargetFunction.L1_ENERGY)
            assert "degenerate-kkt" not in clean.flags

    def test_weakly_active_clean_solution_flags_the_attack(self, scalar_t1):
        # The upper bound sits at the unconstrained optimum: its dual is 0.
        cons = compile_constraints(scalar_t1.spec, scalar_t1, action_box=(-10.0, 0.5))
        assert solve_qp(scalar_t1, cons, [0.0]).weakly_active == (0,)
        for attack in (single_step_attack, iterated_attack):
            result = attack(scalar_t1, cons, [0.0], 0.5, TargetFunction.MAX_ACTION)
            assert "weak-active" in result.flags

    def test_weak_active_flag_outlives_the_solution_that_raised_it(self):
        # The first action's upper bound sits at its unconstrained optimum
        # (dual 0), so the clean solution is weakly active; the min-action
        # ascent moves off it to iterates that are not.  The flag raised at
        # the clean solve stays on the result, as in the reference loop.
        batch = batch_form(make_scalar_spec(T=2))
        s = np.array([0.1, -0.4])
        u = solve_unconstrained(batch, s)
        cons = compile_constraints(batch.spec, batch, action_box=(-10.0, [u[0], 10.0]))
        assert solve_qp(batch, cons, s).weakly_active == (0,)
        result = iterated_attack(batch, cons, s, 0.5, TargetFunction.MIN_ACTION, steps=5)
        assert not solve_qp(batch, cons, result.s_hat).weakly_active
        assert result.flags == {"weak-active"} == reference_iterated_attack(
            batch, cons, s, 0.5, TargetFunction.MIN_ACTION, steps=5)[2]

    def test_state_box_contributes_series_term(self):
        # Active state row: u = (x0 + s - x_max) exactly, so du/ds = 1.
        spec = make_scalar_spec(T=1)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, state_box=(-10.0, 0.2))
        sol = solve_qp(batch, cons, [0.0])
        J, _ = adjoint_jacobian(batch, cons, sol)
        np.testing.assert_allclose(J, [[1.0]], atol=1e-10)


class TestFiniteDifferenceJacobian:
    def test_unconstrained_scalar(self, scalar_t1):
        cons = ConstraintSet.empty(1, 1)
        J = finite_difference_jacobian(scalar_t1, cons, [0.0])
        np.testing.assert_allclose(J, [[0.5]], atol=1e-8)

    def test_clamped_scalar(self, scalar_t1):
        cons = compile_constraints(scalar_t1.spec, scalar_t1,
                                   action_box=(-0.3, 0.3))
        J = finite_difference_jacobian(scalar_t1, cons, [0.0])
        np.testing.assert_allclose(J, [[0.0]], atol=1e-6)

    def test_infeasible_perturbation_names_coordinate(self):
        spec = make_scalar_spec(T=1)
        batch = batch_form(spec)
        # Feasible with slack ~1e-7 in s; the 1e-6 step tips it over.
        x_max = 1.0 - 0.1 + 1e-7
        cons = compile_constraints(spec, batch, action_box=(-0.1, 0.1),
                                   state_box=(-10.0, x_max))
        assert solve_qp(batch, cons, [0.0]).status == "optimal"
        with pytest.raises(NumericalError, match="coordinate 0"):
            finite_difference_jacobian(batch, cons, [0.0])


class TestTargetFunctions:
    def test_max_action_gradient(self, scalar_t1):
        g = target_gradient(TargetFunction.MAX_ACTION, [1.0, 3.0, 2.0],
                            scalar_t1, [0.0])
        np.testing.assert_array_equal(g, [0.0, 1.0, 0.0])

    def test_max_action_tie_breaks_low_index(self, scalar_t1):
        g = target_gradient(TargetFunction.MAX_ACTION, [3.0, 3.0], scalar_t1, [0.0])
        np.testing.assert_array_equal(g, [1.0, 0.0])

    def test_min_action_gradient(self, scalar_t1):
        g = target_gradient(TargetFunction.MIN_ACTION, [1.0, -2.0, 0.0],
                            scalar_t1, [0.0])
        np.testing.assert_array_equal(g, [0.0, -1.0, 0.0])

    def test_l1_gradient_sign_vector(self, scalar_t1):
        g = target_gradient(TargetFunction.L1_ENERGY, [1.0, -2.0, 0.0],
                            scalar_t1, [0.0])
        np.testing.assert_array_equal(g, [1.0, -1.0, 0.0])

    def test_cost_gradient_vanishes_at_optimum(self):
        rng = np.random.default_rng(13)
        batch = batch_form(random_system(rng))
        s = rng.standard_normal(batch.p_total)
        u_star = solve_unconstrained(batch, s)
        g = target_gradient(TargetFunction.COST_CHANGE, u_star, batch, s)
        assert np.abs(g).max() <= 1e-9

    def test_values(self, scalar_t1):
        assert target_value(TargetFunction.MAX_ACTION, [1.0, 3.0], scalar_t1,
                            [0.0]) == 3.0
        assert target_value(TargetFunction.MIN_ACTION, [1.0, -2.0], scalar_t1,
                            [0.0]) == 2.0
        assert target_value(TargetFunction.L1_ENERGY, [1.0, -2.0], scalar_t1,
                            [0.0]) == 3.0
        # Cost target is the rollout cost of the actions on the real series.
        assert math.isclose(
            target_value(TargetFunction.COST_CHANGE, [0.5], scalar_t1, [0.0]),
            1.5, rel_tol=1e-12,
        )

    @pytest.mark.parametrize("target", ["max-action", "l1", None, 3])
    def test_unknown_target_is_a_value_error(self, scalar_t1, target):
        # Only a TargetFunction is a target, not its scenario name; the
        # lookup in the metric table raises no StopIteration.
        targets, U = np.array([target], dtype=object), np.ones((1, 1))
        with pytest.raises(ValueError, match=f"^unknown target {target!r}$"):
            grad_attack._target_values(targets, U, scalar_t1, np.zeros((1, 1)))
        with pytest.raises(ValueError, match=f"^unknown target {target!r}$"):
            grad_attack._target_gradients(targets, U, scalar_t1, np.zeros((1, 1)))


class TestSingleStepAttack:
    def test_scalar_max_action(self, scalar_t1):
        cons = ConstraintSet.empty(1, 1)
        result = single_step_attack(scalar_t1, cons, [0.0], 0.1,
                                    TargetFunction.MAX_ACTION)
        np.testing.assert_allclose(result.s_hat, [0.1])
        assert math.isclose(result.attained, 0.55, rel_tol=1e-12)
        assert not result.flags

    def test_cost_target_is_zero_gradient_fixed_point(self, scalar_t1):
        cons = ConstraintSet.empty(1, 1)
        result = single_step_attack(scalar_t1, cons, [0.0], 0.5,
                                    TargetFunction.COST_CHANGE)
        assert "zero-gradient" in result.flags
        np.testing.assert_array_equal(result.s_hat, [0.0])
        assert result.norm_used == 0.0

    def test_zero_delta_returns_series(self, scalar_t1):
        cons = ConstraintSet.empty(1, 1)
        result = single_step_attack(scalar_t1, cons, [0.0], 0.0,
                                    TargetFunction.MAX_ACTION)
        np.testing.assert_allclose(result.s_hat, [0.0])

    def test_infeasible_attack_is_flagged_success(self):
        spec = make_scalar_spec(T=1)
        batch = batch_form(spec)
        # x1 = 1 - u + s_hat <= 0 forces u >= 1 + s_hat; at s = -0.95 the
        # state row is active (u = 0.05) and tracks the observed series, so
        # the max-action attack raises s_hat until u would have to exceed
        # the 0.1 action bound: the attacked problem goes infeasible.
        cons = compile_constraints(spec, batch, action_box=(-0.1, 0.1),
                                   state_box=(-10.0, 0.0))
        s = np.array([-0.95])
        baseline = solve_qp(batch, cons, s)
        assert baseline.status == "optimal"
        np.testing.assert_allclose(baseline.u, [0.05], atol=1e-9)
        result = single_step_attack(batch, cons, s, 1.0,
                                    TargetFunction.MAX_ACTION)
        assert "infeasible" in result.flags
        assert result.attained == math.inf
        assert result.u_hat is None

    def test_u_hat_is_the_attacked_solution(self):
        # Single steps, and iterated attacks whose best point is a later
        # iterate (l1 ascends past the single step on most instances).  A
        # single step's u_hat is bit for bit the solve warm-started on the
        # clean working set (the clean solve itself at a zero gradient), an
        # iterated attack's that of the reference loop,
        # and the cold solve agrees with each: optimal, on the same active
        # rows, and u within a relative 1e-12.
        rng = np.random.default_rng(31)
        improved = 0
        for _ in range(10):
            spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=5)
            batch = batch_form(spec)
            s = rng.standard_normal(batch.p_total)
            bound = float(np.max(np.abs(solve_unconstrained(batch, s)))) * 0.8 + 1e-3
            cons = compile_constraints(spec, batch, action_box=(-bound, bound))
            clean = solve_qp(batch, cons, s)
            for target in (TargetFunction.MAX_ACTION, TargetFunction.L1_ENERGY):
                one = single_step_attack(batch, cons, s, 0.7, target)
                many = iterated_attack(batch, cons, s, 0.7, target)
                answer = row_solution(qp._solve_rows(batch, cons, one.s_hat[None],
                                                     warm=clean.mu[None]))
                stalled = "zero-gradient" in one.flags  # s_hat = s: the clean answer
                assert_same_answer(one.u_hat, (clean if stalled else answer).u)
                assert_same_answer(many.u_hat,
                                   reference_iterated_attack(batch, cons, s, 0.7, target)[3])
                for result in (one, many):
                    cold = solve_qp(batch, cons, result.s_hat)
                    assert cold.optimal
                    assert cold.active == active_rows(cons, result.s_hat, result.u_hat)
                    assert_relative_close(result.u_hat, cold.u, 1e-12)
                improved += many.attained > one.attained
        assert improved >= 5

    def test_ball_constraint_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=5)
            batch = batch_form(spec)
            cons = ConstraintSet.empty(batch.m_total, batch.p_total)
            s = rng.standard_normal(batch.p_total)
            delta = float(rng.uniform(0.1, 2.0))
            result = single_step_attack(batch, cons, s, delta,
                                        TargetFunction.L1_ENERGY)
            assert np.linalg.norm(result.s_hat - s) <= delta * (1 + 1e-9)


class TestIteratedAttack:
    def test_single_saturating_step_equals_single_step(self, scalar_t2):
        cons = ConstraintSet.empty(2, 2)
        s = np.array([0.2, -0.1])
        one = single_step_attack(scalar_t2, cons, s, 0.5,
                                 TargetFunction.MAX_ACTION)
        it = iterated_attack(scalar_t2, cons, s, 0.5,
                             TargetFunction.MAX_ACTION, steps=1, step_size=0.5)
        np.testing.assert_allclose(it.s_hat, one.s_hat, atol=1e-12)
        assert math.isclose(it.attained, one.attained, rel_tol=1e-12)

    def test_never_worse_than_single_step(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=5)
            batch = batch_form(spec)
            s = rng.standard_normal(batch.p_total)
            u_free = solve_unconstrained(batch, s)
            bound = float(np.max(np.abs(u_free))) * 0.8 + 1e-3
            cons = compile_constraints(spec, batch, action_box=(-bound, bound))
            delta = float(rng.uniform(0.2, 1.5))
            one = single_step_attack(batch, cons, s, delta,
                                     TargetFunction.L1_ENERGY)
            many = iterated_attack(batch, cons, s, delta,
                                   TargetFunction.L1_ENERGY, steps=5)
            assert many.attained >= one.attained - 1e-12

    def test_converges_to_linear_optimum(self, scalar_t1):
        # Unconstrained scalar max-action is linear in the series, so the
        # ascent must saturate the ball at s + delta.
        cons = ConstraintSet.empty(1, 1)
        result = iterated_attack(scalar_t1, cons, [0.0], 0.8,
                                 TargetFunction.MAX_ACTION, steps=20)
        np.testing.assert_allclose(result.s_hat, [0.8], atol=1e-9)
        assert math.isclose(result.attained, (1.0 + 0.8) / 2, rel_tol=1e-9)

    def test_ball_constraint_held(self):
        rng = np.random.default_rng(29)
        spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=5)
        batch = batch_form(spec)
        cons = ConstraintSet.empty(batch.m_total, batch.p_total)
        s = rng.standard_normal(batch.p_total)
        result = iterated_attack(batch, cons, s, 0.7,
                                 TargetFunction.MAX_ACTION, steps=12,
                                 step_size=0.3)
        assert np.linalg.norm(result.s_hat - s) <= 0.7 * (1 + 1e-9)

    def test_stops_at_projected_fixed_point(self, monkeypatch):
        # Unconstrained max-action is linear in the series: the iterate
        # saturates the ball and then projects onto itself.  One clean
        # solve plus one per distinct iterate stays below steps + 2, and
        # no Jacobian is taken after the fixed point: fewer than steps + 1
        # rows reach the block adjoint.
        batch = batch_form(make_scalar_spec(T=4))
        cons = ConstraintSet.empty(4, 4)
        s = np.linspace(-0.3, 0.4, 4)
        calls = {"solves": 0, "jacobians": 0}

        def counting_rows(batch, cons, S_obs, names=None, warm=None, cache=None):
            calls["solves"] += len(S_obs)  # one solve per row of a block
            return solve_rows(batch, cons, S_obs, names, warm, cache)

        def counting_adjoints(batch, cons, active, grads, cache=None):  # one Jacobian per row
            calls["jacobians"] += len(active)
            return adjoints(batch, cons, active, grads, cache)

        solve_rows, adjoints = grad_attack._solve_rows, grad_attack._adjoints
        monkeypatch.setattr("tsattack.grad_attack._solve_rows", counting_rows)
        monkeypatch.setattr("tsattack.grad_attack._adjoints", counting_adjoints)
        result = iterated_attack(batch, cons, s, 0.8, TargetFunction.MAX_ACTION,
                                 steps=20)
        assert 0 < calls["solves"] < 20 + 2
        assert 0 < calls["jacobians"] < 20 + 1  # the loop stopped, not just its solves
        s_hat, attained, flags, u_hat = reference_iterated_attack(
            batch, cons, s, 0.8, TargetFunction.MAX_ACTION, steps=20)
        np.testing.assert_array_equal(result.s_hat, s_hat)
        assert result.attained == attained
        assert result.flags == flags
        assert_same_answer(result.u_hat, u_hat)

    def test_matches_reference_loop_on_random_instances(self):
        # Bitwise the same iterate, value and flags as the loop that runs
        # every step, on action boxes and on state boxes that go infeasible.
        rng = np.random.default_rng(41)
        outcomes = set()
        for case in range(24):
            spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=6)
            batch = batch_form(spec)
            s = rng.standard_normal(batch.p_total)
            bound = float(np.max(np.abs(solve_unconstrained(batch, s))))
            if case % 2:
                cons = compile_constraints(spec, batch,
                                           action_box=(-0.8 * bound, 0.8 * bound))
            else:
                cons = compile_constraints(spec, batch, action_box=(-2 * bound, 2 * bound),
                                           state_box=(-3.0, 3.0))
            if not solve_qp(batch, cons, s).optimal:
                continue
            target = (TargetFunction.MAX_ACTION, TargetFunction.MIN_ACTION,
                      TargetFunction.L1_ENERGY)[case % 3]
            delta = float(rng.uniform(0.2, 3.0))
            result = iterated_attack(batch, cons, s, delta, target, steps=15)
            s_hat, attained, flags, u_hat = reference_iterated_attack(
                batch, cons, s, delta, target, steps=15)
            np.testing.assert_array_equal(result.s_hat, s_hat)
            assert result.attained == attained
            assert result.flags == flags
            assert_same_answer(result.u_hat, u_hat)
            outcomes.add("infeasible" in flags)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("case", ["zero-gradient", "infeasible"])
    def test_matches_reference_when_the_single_step_ends_the_attack(self, case):
        if case == "zero-gradient":
            batch = batch_form(make_scalar_spec(T=2))
            cons = ConstraintSet.empty(2, 2)
            s, target = np.array([0.1, 0.2]), TargetFunction.COST_CHANGE
        else:  # the single step of test_infeasible_attack_is_flagged_success
            spec = make_scalar_spec(T=1)
            batch = batch_form(spec)
            cons = compile_constraints(spec, batch, action_box=(-0.1, 0.1),
                                       state_box=(-10.0, 0.0))
            s, target = np.array([-0.95]), TargetFunction.MAX_ACTION
        result = iterated_attack(batch, cons, s, 1.0, target, steps=5)
        s_hat, attained, flags, u_hat = reference_iterated_attack(
            batch, cons, s, 1.0, target, steps=5)
        assert case in flags
        np.testing.assert_array_equal(result.s_hat, s_hat)
        assert result.attained == attained
        assert result.flags == flags
        assert_same_answer(result.u_hat, u_hat)

    def test_one_jacobian_per_distinct_solved_point(self, monkeypatch):
        # The clean direction serves the single step and the first ascent
        # step: no series gets a second Jacobian, the clean one included.
        # Only the single-step candidate and the last iterate go without.
        # One series ascends, so each Jacobian is taken at the point solved
        # last: the gradient is formed at that solve's actions.
        solved, at, jacobians = [], [], []

        def recording_solve(batch, cons, S_obs, names=None, warm=None, cache=None):
            block = solve_rows(batch, cons, S_obs, names, warm, cache)
            solved.extend((np.array(s_obs, dtype=float), u.tobytes())
                          for s_obs, u in zip(S_obs, block.U))
            return block

        def recording_gradients(target, U, batch, S_real):
            (u,) = U
            point, actions = solved[-1]
            assert u.tobytes() == actions
            at.append(point)
            return gradients(target, U, batch, S_real)

        def counting_adjoints(batch, cons, active, grads, cache=None):
            jacobians.append(len(active))
            return adjoints(batch, cons, active, grads, cache)

        gradients, adjoints = grad_attack._target_gradients, grad_attack._adjoints
        solve_rows = grad_attack._solve_rows
        monkeypatch.setattr("tsattack.grad_attack._solve_rows", recording_solve)
        monkeypatch.setattr("tsattack.grad_attack._target_gradients", recording_gradients)
        monkeypatch.setattr("tsattack.grad_attack._adjoints", counting_adjoints)
        rng = np.random.default_rng(43)
        for case in range(12):
            spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=6)
            batch = batch_form(spec)
            s = rng.standard_normal(batch.p_total)
            bound = 0.8 * float(np.max(np.abs(solve_unconstrained(batch, s))))
            cons = compile_constraints(spec, batch, action_box=(-bound, bound))
            solved.clear()
            at.clear()
            jacobians.clear()
            iterated_attack(batch, cons, s, 0.7, (TargetFunction.MAX_ACTION,
                            TargetFunction.L1_ENERGY)[case % 2], steps=6)
            points = {tuple(point) for point, _ in solved}
            assert sum(jacobians) == len(at)
            assert len({tuple(p) for p in at}) == len(at)
            assert {tuple(p) for p in at} <= points
            np.testing.assert_array_equal(solved[0][0], s)
            np.testing.assert_array_equal(at[0], s)
            assert len(at) >= len(points) - 2

    @pytest.mark.parametrize("gains, kept", [
        ((5e-13, 9e-13, 1e-13), 0),   # all within rounding: the single step stays
        ((5e-13, 3e-12, 3.5e-12), 2),  # the second iterate wins, the third ties it
    ])
    def test_later_iterate_must_win_beyond_rounding(self, monkeypatch, gains, kept):
        # Candidates are the single step and three iterates, valued 1 + gain.
        # A later one replaces the best only when larger by a relative 1e-12.
        batch = batch_form(make_scalar_spec(T=4))
        cons = ConstraintSet.empty(4, 4)
        s = np.linspace(-0.3, 0.4, 4)
        solved = []
        candidates = (1.0,) + tuple(1.0 + g for g in gains)
        values = iter(candidates)

        def recording_solve(batch, cons, S_obs, names=None, warm=None, cache=None):
            solved.extend(np.array(s_obs, dtype=float) for s_obs in S_obs)
            return solve_rows(batch, cons, S_obs, names, warm, cache)

        solve_rows = grad_attack._solve_rows
        monkeypatch.setattr("tsattack.grad_attack._solve_rows", recording_solve)
        monkeypatch.setattr("tsattack.grad_attack._target_values",
                            lambda target, U, *args: np.array([next(values) for _ in U]))
        result = iterated_attack(batch, cons, s, 0.8, TargetFunction.L1_ENERGY,
                                 steps=3)
        assert len(solved) == 5  # the clean series, the single step, 3 iterates
        np.testing.assert_array_equal(result.s_hat, solved[1 + kept])
        assert result.attained == candidates[kept]

    def test_cost_target_stalls_at_start(self, scalar_t2):
        cons = ConstraintSet.empty(2, 2)
        result = iterated_attack(scalar_t2, cons, [0.1, 0.2], 0.5,
                                 TargetFunction.COST_CHANGE, steps=5)
        assert "zero-gradient" in result.flags
        np.testing.assert_array_equal(result.s_hat, [0.1, 0.2])

    def test_rejects_bad_steps(self, scalar_t1):
        cons = ConstraintSet.empty(1, 1)
        with pytest.raises(ValueError, match="steps"):
            iterated_attack(scalar_t1, cons, [0.0], 0.5,
                            TargetFunction.MAX_ACTION, steps=0)
        for step_size in (0.0, -0.05, math.nan, math.inf):
            with pytest.raises(ValueError, match="step_size must be positive"):
                iterated_attack(scalar_t1, cons, [0.0], 0.5,
                                TargetFunction.MAX_ACTION, step_size=step_size)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    @pytest.mark.parametrize("attack", [single_step_attack, iterated_attack])
    def test_rejects_non_finite_delta(self, scalar_t1, attack, delta):
        cons = ConstraintSet.empty(1, 1)
        with pytest.raises(ValueError, match="delta must be nonnegative and finite"):
            attack(scalar_t1, cons, [0.0], delta, TargetFunction.MAX_ACTION)

    @pytest.mark.parametrize("attack", [single_step_attack, iterated_attack])
    def test_infeasible_clean_problem_names_the_caller(self, attack):
        # u in [-0.1, 0.1] forces x1 = 1 - u + s >= 0.9 at s = 0, above x_max.
        spec = make_scalar_spec(T=1)
        batch = batch_form(spec)
        message = f"{attack.__name__} requires a feasible unattacked problem"
        for x_max in (0.5, 0.0):
            cons = compile_constraints(spec, batch, action_box=(-0.1, 0.1),
                                       state_box=(-10.0, x_max))
            with pytest.raises(ValueError, match=f"^{message}$"):
                attack(batch, cons, [0.0], 0.5, TargetFunction.MAX_ACTION)


class TestAscendRows:
    def test_block_adjoints_are_each_rows_adjoint(self, monkeypatch):
        # Rows with and without active rows: each direction and LICQ flag is
        # _adjoint's for that row, bit for bit, and an exception a row's
        # adjoint raises propagates unchanged.
        spec = make_scalar_spec(T=6)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, action_box=(-0.8, 0.8))
        S = np.linspace(-1.5, 1.5, 7)[:, None] * np.ones(6)
        U, _, active, _ = grad_attack._solve_rows(batch, cons, S)
        assert set(active.any(axis=1).tolist()) == {True, False}
        grads = np.sign(U)
        directions, degenerate = grad_attack._adjoints(batch, cons, active, grads)
        for held, g, direction, flag in zip(active, grads, directions, degenerate):
            expected, expected_flag = grad_attack._adjoint(batch, cons, np.flatnonzero(held), g)
            assert direction.tobytes() == expected.tobytes() and flag == expected_flag

        failing = next(i for i, held in enumerate(active) if held.any())
        adjoint = grad_attack._adjoint

        def raising(batch, cons, rows, g):
            if np.array_equal(rows, np.flatnonzero(active[failing])):
                raise np.linalg.LinAlgError("forced")
            return adjoint(batch, cons, rows, g)

        monkeypatch.setattr("tsattack.grad_attack._adjoint", raising)
        with pytest.raises(np.linalg.LinAlgError, match="^forced$"):
            grad_attack._adjoints(batch, cons, active, grads)

    def test_each_row_is_its_own_ascent(self):
        # Blocks of 3 to 5 series on action boxes and on state boxes that go
        # infeasible, for every target and for the single step: each row is
        # bit for bit the attack of that series alone.
        rng = np.random.default_rng(59)
        flags = set()
        for case in range(24):
            spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=6)
            batch = batch_form(spec)
            s = rng.standard_normal(batch.p_total)
            bound = float(np.max(np.abs(solve_unconstrained(batch, s))))
            if case % 2:
                cons = compile_constraints(spec, batch,
                                           action_box=(-0.8 * bound, 0.8 * bound))
            else:
                cons = compile_constraints(spec, batch, action_box=(-2 * bound, 2 * bound),
                                           state_box=(-3.0, 3.0))
            S = s + rng.uniform(0.0, 1.0) * rng.standard_normal((5, batch.p_total))
            clean = grad_attack._solve_rows(batch, cons, S)
            keep = clean.optimal
            S, clean = S[keep], clean._make(block[keep] for block in clean)
            if len(S) < 3:
                continue
            target = list(TargetFunction)[case % 4]
            delta = float(rng.uniform(0.2, 3.0))
            steps = 0 if case % 5 == 0 else 12
            block = grad_attack._ascend_rows(
                batch, cons, S, clean, np.full(len(S), delta), np.array([target] * len(S)),
                steps, None if steps == 0 else np.full(len(S), delta / 10))
            assert [part.shape for part in block] == [
                S.shape, (len(S), batch.m_total), (len(S),), (len(S),), (len(S), 4)]
            for i, row in enumerate(S):
                if steps:
                    one = iterated_attack(batch, cons, row, delta, target, steps=steps)
                else:
                    one = single_step_attack(batch, cons, row, delta, target)
                assert_row_is_attack(block, i, one)
                flags |= row_flags(block.flags[i])
        assert {"zero-gradient", "infeasible"} <= flags

    def test_the_adjoint_memo_changes_no_bit(self, monkeypatch):
        # State-box and action-box blocks of every target: the ascent whose
        # stage memoizes _adjoint by (active rows, gradient) returns the same
        # attacked block, bit for bit, as one whose memo keeps nothing, and
        # it calls _adjoint fewer times.

        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        calls = []
        adjoint = grad_attack._adjoint
        monkeypatch.setattr("tsattack.grad_attack._adjoint",
                            lambda *args: calls.append(None) or adjoint(*args))
        rng = np.random.default_rng(71)
        memoized = forgetful = 0
        for case in range(16):
            spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=6)
            batch = batch_form(spec)
            s = rng.standard_normal(batch.p_total)
            bound = float(np.max(np.abs(solve_unconstrained(batch, s))))
            cons = compile_constraints(spec, batch, action_box=(-0.7 * bound, 0.7 * bound),
                                       state_box=None if case % 2 else (-3.0, 3.0))
            S = s + rng.uniform(0.0, 0.5) * rng.standard_normal((4, batch.p_total))
            clean = grad_attack._solve_rows(batch, cons, S)
            S, clean = S[clean.optimal], clean._make(part[clean.optimal] for part in clean)
            targets = np.array([list(TargetFunction)[(case + i) % 4] for i in range(len(S))])
            blocks = []
            for memo in ({}, Forgetful()):
                cache = qp._StageCache(batch, cons)
                cache.adjoints = memo
                before = len(calls)
                blocks.append(grad_attack._ascend_rows(
                    batch, cons, S, clean, np.full(len(S), 1.0), targets, 8, None,
                    cache=cache))
                if isinstance(memo, Forgetful):
                    forgetful += len(calls) - before
                else:
                    memoized += len(calls) - before
            for got, want in zip(*blocks):
                assert got.tobytes() == want.tobytes()
        assert 0 < memoized < forgetful

    def test_constraint_sets_solved_alternately_match_a_fresh_process(self):
        # A compiled action box and a hand-built one whose bounds move with
        # the series, on one system: their active rows and target gradients
        # coincide where their columns, QRs and adjoints differ.  Their
        # solves and iterated attacks, taken alternately in this process,
        # give bit for bit the answers a process of its own gives each set,
        # so no cache outlives its solve or attack.
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from tsattack import (ConstraintSet, TargetFunction, batch_form,
                                  compile_constraints, iterated_attack, solve_qp)
            from tsattack.lqr import SystemSpec

            def answers(which):
                spec = SystemSpec(A=1.0, B=-1.0, C=1.0, Q=1.0, R=1.0, T=8, x0=1.0)
                batch = batch_form(spec)
                if which == "compiled":
                    cons = compile_constraints(spec, batch, action_box=(-0.6, 0.6))
                else:  # |u_t - 0.2 s_t| <= 0.6, each row scaled by 2
                    eye = np.eye(8)
                    cons = ConstraintSet(G=np.vstack([2.0 * eye, -2.0 * eye]),
                                         h0=np.full(16, 1.2),
                                         H=np.vstack([0.4 * eye, -0.4 * eye]))
                S = np.random.default_rng(5).standard_normal((3, 8))
                out = []
                for s in S:
                    sol = solve_qp(batch, cons, s)
                    out += [sol.status, sol.active,
                            None if sol.u is None else sol.u.tobytes().hex()]
                    for target in TargetFunction if sol.optimal else ():
                        res = iterated_attack(batch, cons, s, 0.8, target, steps=4)
                        out += [res.s_hat.tobytes().hex(), repr(res.attained),
                                sorted(res.flags),
                                None if res.u_hat is None else res.u_hat.tobytes().hex()]
                return out

            if __name__ == "__main__":
                print(repr(answers(sys.argv[1])))
            """)
        src = str(Path(qp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = {}
        for which in ("compiled", "by-hand"):
            proc = subprocess.run([sys.executable, "-c", script, which], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            fresh[which] = proc.stdout.strip()
        namespace = {}
        exec(compile(script, "<answers>", "exec"), namespace)
        for which in ("compiled", "by-hand", "compiled", "by-hand"):
            assert repr(namespace["answers"](which)) == fresh[which]
        assert fresh["compiled"] != fresh["by-hand"]

    def test_rows_leave_at_their_own_exits(self, monkeypatch):
        # u in [-0.1, 0.1] and x1 = 1 - u + s <= 0, max-action at delta
        # 0.05: s = -5 holds u at -0.1 (zero gradient), s = -0.92 pins u to
        # 1 + s and its single step needs u >= 0.13 (infeasible), and
        # s = -1.1 and -1.08 stay interior and stop at a projected fixed
        # point, ten steps in.
        spec = make_scalar_spec(T=1)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, action_box=(-0.1, 0.1),
                                   state_box=(-10.0, 0.0))
        S = np.array([[-5.0], [-0.92], [-1.1], [-1.08]])
        clean = grad_attack._solve_rows(batch, cons, S)
        sizes = []

        def recording(batch, cons, S_obs, names=None, warm=None, cache=None):
            sizes.append(len(S_obs))
            return solve_rows(batch, cons, S_obs, names, warm, cache)

        solve_rows = grad_attack._solve_rows
        monkeypatch.setattr("tsattack.grad_attack._solve_rows", recording)
        block = grad_attack._ascend_rows(batch, cons, S, clean, np.full(4, 0.05),
                                         np.array([TargetFunction.MAX_ACTION] * 4), 40,
                                         np.full(4, 0.005))
        monkeypatch.undo()
        S_hat, U_hat, attained, _, flags = block
        assert [row_flags(row) for row in flags] == [
            {"zero-gradient"}, {"infeasible"}, set(), set()]
        for row, s_hat in zip(S[2:], S_hat[2:]):
            assert math.isclose(np.linalg.norm(s_hat - row), 0.05, rel_tol=1e-12)
        # The single step solves three rows; two ascend until their fixed
        # points, well before the 40 steps.
        assert sizes[0] == 3 and set(sizes[1:]) == {2} and len(sizes) < 1 + 40
        for i, row in enumerate(S):
            assert_row_is_attack(block, i, iterated_attack(batch, cons, row, 0.05,
                                                           TargetFunction.MAX_ACTION,
                                                           steps=40, step_size=0.005))
            s_hat, value, names, u_hat = reference_iterated_attack(
                batch, cons, row, 0.05, TargetFunction.MAX_ACTION, steps=40,
                step_size=0.005)
            np.testing.assert_array_equal(S_hat[i], s_hat)
            assert attained[i] == value and row_flags(flags[i]) == names
            assert_same_answer(None if "infeasible" in names else U_hat[i], u_hat)

    def test_rows_keep_their_own_budgets(self):
        # One block mixes budgets below and at or above the 1e150 switch to
        # the scaled norm, and two targets.  The norm check, the projection
        # and the ascent take each row's own budget: every row is bit for
        # bit that row with its delta alone, nothing warns, and a row past
        # its budget is named by its own delta.
        batch = batch_form(make_scalar_spec(T=4))
        cons = ConstraintSet.empty(4, 4)
        rng = np.random.default_rng(67)
        deltas = np.array([0.5, 1e150, 3.0, 1e200, 2.0, 1e180])
        targets = np.array([TargetFunction.MAX_ACTION, TargetFunction.L1_ENERGY] * 3)
        S = rng.standard_normal((6, 4))
        units = rng.standard_normal((6, 4))
        units /= np.linalg.norm(units, axis=1)[:, None]
        scaled = units * (0.5 * deltas)[:, None]  # half of each budget
        X = S + units * (2.0 * deltas)[:, None]  # twice each budget
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = _checked_norms(scaled, deltas)
            projected = project_ball(X, S, deltas)
            clean = grad_attack._solve_rows(batch, cons, S)
            block = grad_attack._ascend_rows(batch, cons, S, clean, deltas, targets, 4, None)
            for i, (s, delta, target) in enumerate(zip(S, deltas, targets)):
                assert norms[i] == _checked_norms(scaled[i:i + 1], deltas[i:i + 1])[0]
                assert projected[i].tobytes() == project_ball(X[i], s, delta).tobytes()
                assert_row_is_attack(block, i, iterated_attack(batch, cons, s, delta, target,
                                                               steps=4))
        assert (deltas >= 1e150).any() and (deltas < 1e150).any()
        assert not {"infeasible", "zero-gradient"} & set().union(*map(row_flags, block.flags))
        over = scaled.copy()
        over[2] *= 2.1  # norm 1.05 * 3.0
        over[3, 0] = math.inf
        with pytest.raises(ValueError, match=r"^perturbation norm 3\.15\d* exceeds delta 3\.0$"):
            _checked_norms(over, deltas)
        over[2] = scaled[2]
        with pytest.raises(ValueError, match=r"^perturbation norm inf overflows at delta 1e\+200$"):
            _checked_norms(over, deltas)

    def test_target_values_and_gradients_are_each_rows_own(self):
        # Row-wise reductions and arg-extrema equal the same operation on
        # each row alone, bit for bit, across the widths where numpy's
        # pairwise sum splits.
        rng = np.random.default_rng(61)
        batch = batch_form(make_scalar_spec(T=3))

        def one_hot(u, index, value):
            g = np.zeros_like(u)
            g[index] = value
            return g

        for width in (1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 300):
            U = rng.standard_normal((6, width)) * 10.0 ** rng.integers(-8, 8, (6, 1))
            U[0, -1] = U[0, 0]  # a tie, broken to the lowest index
            for target, value, grad in (
                    (TargetFunction.MAX_ACTION, lambda u: u.max(),
                     lambda u: one_hot(u, int(np.argmax(u)), 1.0)),
                    (TargetFunction.MIN_ACTION, lambda u: (-u).max(),
                     lambda u: one_hot(u, int(np.argmin(u)), -1.0)),
                    (TargetFunction.L1_ENERGY, lambda u: np.abs(u).sum(), np.sign)):
                targets = np.array([target] * len(U))  # they read no N s
                values = grad_attack._target_values(targets, U, batch, np.empty((len(U), 3)))
                assert values.tobytes() == np.array([value(u) for u in U]).tobytes()
                grads = grad_attack._target_gradients(targets, U, batch, None)
                assert grads.tobytes() == np.array([grad(u) for u in U]).tobytes()
        U = rng.standard_normal((4, 3))
        S_real = rng.standard_normal((4, 3))
        targets = np.array([TargetFunction.COST_CHANGE] * len(U))
        values = grad_attack._target_values(targets, U, batch, _row_products(batch.N, S_real))
        assert values.tobytes() == np.array([realized_costs(batch, u[None], s[None])[0]
                                             for u, s in zip(U, S_real)]).tobytes()
        grads = grad_attack._target_gradients(targets, U, batch, S_real)
        assert grads.tobytes() == np.array([
            2.0 * batch.K @ u + 2.0 * (batch.k_const + batch.L @ s)
            for u, s in zip(U, S_real)]).tobytes()

class TestHelpers:
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_unit_norm(self, values):
        v = np.asarray(values)
        if np.linalg.norm(v) > 1e-12:
            assert math.isclose(np.linalg.norm(unit(v)), 1.0, abs_tol=1e-12)

    def test_unit_rejects_zero(self):
        with pytest.raises(ValueError):
            unit(np.zeros(3))

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.floats(0.01, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_project_ball(self, x, center, radius):
        x = np.asarray(x)
        center = np.asarray(center)
        projected = project_ball(x, center, radius)
        assert np.linalg.norm(projected - center) <= radius * (1 + 1e-9)
        if np.linalg.norm(x - center) <= radius:
            np.testing.assert_array_equal(projected, x)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_project_ball_past_the_squared_overflow(self):
        # The offset's sum of squares overflows; its norm does not.
        projected = project_ball(np.full(4, 1e200), np.zeros(4), 1.0)
        assert math.isclose(np.linalg.norm(projected), 1.0, rel_tol=1e-12)
