import math

import numpy as np
import pytest

from tsattack import (
    ConfigurationError,
    ConstraintSet,
    NumericalError,
    batch_form,
    compile_constraints,
    kkt_residuals,
    linear_term,
    projected_gradient_solve,
    qp_objective,
    solve_qp,
    solve_unconstrained,
)

from conftest import make_scalar_spec, random_system


def random_box_instance(rng, tightness=None):
    """Random system + series + symmetric action box scaled to the free optimum."""
    spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=6)
    batch = batch_form(spec)
    s = rng.standard_normal(batch.p_total)
    u_free = solve_unconstrained(batch, s)
    if tightness is None:
        tightness = rng.uniform(0.3, 1.2)
    bound = float(np.max(np.abs(u_free))) * tightness + 1e-3
    cons = compile_constraints(spec, batch, action_box=(-bound, bound))
    return batch, cons, s, bound


class TestCompileConstraints:
    def test_scalar_action_box(self, scalar_t1):
        cons = compile_constraints(scalar_t1.spec, scalar_t1,
                                   action_box=(-0.3, 0.3))
        np.testing.assert_allclose(cons.G, [[1.0], [-1.0]])
        np.testing.assert_allclose(cons.h0, [0.3, 0.3])
        np.testing.assert_allclose(cons.H, 0.0)

    def test_no_constraints(self, scalar_t1):
        cons = compile_constraints(scalar_t1.spec, scalar_t1)
        assert cons.q == 0

    def test_state_upper_bound_row(self):
        # x1 = A x0 + M_0 u + N_0 s <= x_max compiles to
        # M_0 u <= x_max - A x0 - N_0 s, i.e. G = M_0 = [-1], H = -N_0 = [-1].
        spec = make_scalar_spec(T=1)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, state_box=(-100.0, 0.2))
        np.testing.assert_allclose(cons.G[0], [-1.0])
        assert math.isclose(cons.h0[0], 0.2 - 1.0)
        np.testing.assert_allclose(cons.H[0], [-1.0])

    def test_rejects_inverted_box(self, scalar_t1):
        with pytest.raises(ConfigurationError, match="u_min"):
            compile_constraints(scalar_t1.spec, scalar_t1, action_box=(0.5, -0.5))

    def test_rhs_tracks_observed_series(self):
        spec = make_scalar_spec(T=1)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, state_box=(-100.0, 0.2))
        base = cons.rhs(np.array([0.0]))
        shifted = cons.rhs(np.array([1.0]))
        np.testing.assert_allclose(shifted - base, cons.H @ np.array([1.0]))


class TestSolveQp:
    def test_active_upper_bound(self, scalar_t1):
        cons = compile_constraints(scalar_t1.spec, scalar_t1,
                                   action_box=(-0.3, 0.3))
        sol = solve_qp(scalar_t1, cons, [0.0])
        np.testing.assert_allclose(sol.u, [0.3])
        assert math.isclose(sol.mu[0], 0.8, rel_tol=1e-9)
        assert sol.active == (0,)
        assert sol.weakly_active == ()

    def test_failed_kkt_check_raises(self, scalar_t1, monkeypatch):
        # The check is an explicit raise, so `python -O` cannot disable it.
        monkeypatch.setattr("tsattack.qp._kkt_residuals", lambda *args: {
            "stationarity": 1.0, "feasibility": 0.0,
            "complementarity": 0.0, "dual_sign": 0.0,
        })
        cons = compile_constraints(scalar_t1.spec, scalar_t1,
                                   action_box=(-0.3, 0.3))
        with pytest.raises(NumericalError, match="stationarity"):
            solve_qp(scalar_t1, cons, [0.0])

    def test_interior_solution(self, scalar_t1):
        cons = compile_constraints(scalar_t1.spec, scalar_t1,
                                   action_box=(-10.0, 10.0))
        sol = solve_qp(scalar_t1, cons, [0.0])
        np.testing.assert_allclose(sol.u, [0.5])
        np.testing.assert_allclose(sol.mu, 0.0)
        assert sol.active == ()

    def test_pinned_action(self, scalar_t1):
        cons = compile_constraints(scalar_t1.spec, scalar_t1,
                                   action_box=(0.0, 0.0))
        sol = solve_qp(scalar_t1, cons, [0.0])
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.u, [0.0], atol=1e-12)

    def test_unconstrained_matches_closed_form(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            batch = batch_form(random_system(rng))
            s = rng.standard_normal(batch.p_total)
            cons = ConstraintSet.empty(batch.m_total, batch.p_total)
            sol = solve_qp(batch, cons, s)
            np.testing.assert_allclose(sol.u, solve_unconstrained(batch, s),
                                       atol=1e-10)

    def test_infeasible_detection(self):
        spec = make_scalar_spec(T=1)
        batch = batch_form(spec)
        # u in [-0.1, 0.1] forces x1 = 1 - u >= 0.9, but x_max = 0.5.
        cons = compile_constraints(spec, batch, action_box=(-0.1, 0.1),
                                   state_box=(-10.0, 0.5))
        sol = solve_qp(batch, cons, [0.0])
        assert sol.status == "infeasible"
        assert sol.u is None

    def test_state_box_binds_through_series(self):
        spec = make_scalar_spec(T=1)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, state_box=(-10.0, 0.2))
        sol = solve_qp(batch, cons, [0.0])
        # x1 = 1 - u <= 0.2 forces u >= 0.8 (unconstrained would pick 0.5).
        np.testing.assert_allclose(sol.u, [0.8], atol=1e-9)

    def test_weakly_active_flagged(self, scalar_t1):
        # Upper bound placed exactly at the unconstrained optimum.
        cons = compile_constraints(scalar_t1.spec, scalar_t1,
                                   action_box=(-10.0, 0.5))
        sol = solve_qp(scalar_t1, cons, [0.0])
        assert sol.active == (0,)
        assert sol.weakly_active == (0,)

    def test_kkt_residuals_on_random_instances(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            batch, cons, s, _ = random_box_instance(rng)
            sol = solve_qp(batch, cons, s)
            res = kkt_residuals(batch, cons, s, sol)
            assert res["stationarity"] <= 1e-8
            assert res["feasibility"] <= 1e-9
            assert res["complementarity"] <= 1e-8
            assert res["dual_sign"] <= 1e-12

    def test_objective_never_beats_unconstrained(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            batch, cons, s, _ = random_box_instance(rng)
            sol = solve_qp(batch, cons, s)
            free = qp_objective(batch, s, solve_unconstrained(batch, s))
            assert qp_objective(batch, s, sol.u) >= free - 1e-9

    def test_widening_box_never_increases_objective(self):
        rng = np.random.default_rng(79)
        for _ in range(15):
            spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=6)
            batch = batch_form(spec)
            s = rng.standard_normal(batch.p_total)
            u_free = solve_unconstrained(batch, s)
            scale = float(np.max(np.abs(u_free))) + 1e-3
            narrow = compile_constraints(spec, batch,
                                         action_box=(-0.4 * scale, 0.4 * scale))
            wide = compile_constraints(spec, batch,
                                       action_box=(-0.9 * scale, 0.9 * scale))
            obj_narrow = qp_objective(batch, s, solve_qp(batch, narrow, s).u)
            obj_wide = qp_objective(batch, s, solve_qp(batch, wide, s).u)
            assert obj_wide <= obj_narrow + 1e-9

    def test_agrees_with_projected_gradient_reference(self):
        # Independent oracle: accelerated projected gradient with clamping.
        rng = np.random.default_rng(83)
        for _ in range(100):
            batch, cons, s, bound = random_box_instance(rng)
            sol = solve_qp(batch, cons, s)
            k = linear_term(batch, s)
            reference = projected_gradient_solve(
                batch.K, k,
                lower=np.full(batch.m_total, -bound),
                upper=np.full(batch.m_total, bound),
            )
            np.testing.assert_allclose(sol.u, reference, atol=1e-6)
