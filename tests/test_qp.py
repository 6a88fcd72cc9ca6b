import dataclasses
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
from scipy.optimize import LinearConstraint, linprog, minimize

from tsattack import (
    ConfigurationError,
    ConstraintSet,
    NumericalError,
    QpSolution,
    batch_form,
    compile_constraints,
    kkt_residuals,
    projected_gradient_solve,
    solve_qp,
)
from tsattack import qp as qp_module
from tsattack.lqr import linear_term

from conftest import (
    assert_relative_close,
    kkt_residuals_oracle,
    make_scalar_spec,
    random_state_box_instance,
    random_system,
    row_solution,
    solve_unconstrained,
)


def qp_objective(batch, s_obs, u):
    """Objective value u' K u + 2 k(x0, s_obs)' u."""
    u = np.asarray(u, dtype=float).ravel()
    k = linear_term(batch, np.asarray(s_obs, dtype=float))
    return float(u @ batch.K @ u + 2.0 * k @ u)


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


def phase1_margin(G, rhs):
    """Reference feasibility test: min t  s.t.  G u - t <= rhs,  t >= -1.

    G u <= rhs is feasible exactly when the optimal t is at most 0.
    """
    q, nvar = G.shape
    cost = np.zeros(nvar + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=np.hstack([G, -np.ones((q, 1))]), b_ub=rhs,
                  bounds=[(None, None)] * nvar + [(-1.0, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return res.fun


def trust_constr_solve(K, k, G, rhs):
    """Reference optimum of u'Ku + 2k'u s.t. G u <= rhs by an interior point."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # its "delta_grad == 0" chatter
        res = minimize(lambda u: u @ K @ u + 2.0 * k @ u, np.zeros(K.shape[0]),
                       jac=lambda u: 2.0 * K @ u + 2.0 * k,
                       hess=lambda u: 2.0 * K, method="trust-constr",
                       constraints=[LinearConstraint(G, -np.inf, rhs)],
                       options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 5000,
                                "initial_barrier_parameter": 1e-6,
                                "initial_barrier_tolerance": 1e-6})
    return res.x, float(res.fun)


def check_against_oracles(batch, cons, s):
    """solve_qp against a phase-1 LP (status) and trust-constr (optimum)."""
    rhs = cons.rhs(s)
    sol = solve_qp(batch, cons, s)
    margin = phase1_margin(cons.G, rhs)
    if not sol.optimal:
        assert margin > 0.0
        return
    assert margin <= 1e-9 * (1.0 + np.abs(rhs).max())
    u_ref, f_ref = trust_constr_solve(batch.K, linear_term(batch, s), cons.G, rhs)
    f = qp_objective(batch, s, sol.u)
    scale = 1.0 + abs(f)
    if np.all(cons.G @ u_ref <= rhs):  # a feasible point never beats the optimum
        assert f <= f_ref + 1e-9 * scale
    assert abs(f - f_ref) <= 1e-5 * scale
    np.testing.assert_allclose(sol.u, u_ref, rtol=0.0,
                               atol=1e-3 * (1.0 + np.abs(sol.u).max()))


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
        monkeypatch.setattr("tsattack.qp._kkt_residuals", lambda *args: {
            "stationarity": 1.0, "feasibility": 0.0,
            "complementarity": 0.0, "dual_sign": 0.0,
        })
        cons = compile_constraints(scalar_t1.spec, scalar_t1,
                                   action_box=(-0.3, 0.3))
        with pytest.raises(NumericalError, match="stationarity"):
            solve_qp(scalar_t1, cons, [0.0])

    def test_failed_farkas_check_raises(self, monkeypatch):
        spec = make_scalar_spec(T=1)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, action_box=(-0.1, 0.1),
                                   state_box=(-10.0, 0.5))
        for name, bad in (("alignment", 1e-3), ("gap", 0.0), ("dual_sign", 1.0)):
            residuals = {"dual_sign": 0.0, "alignment": 0.0, "gap": -1.0, name: bad}
            monkeypatch.setattr("tsattack.qp._farkas_residuals",
                                lambda *args: residuals)
            with pytest.raises(NumericalError, match=f"certificate: {name}"):
                solve_qp(batch, cons, [0.0])

    @pytest.mark.parametrize("patched, residuals, state_max, match", [
        ("_kkt_residuals", {"stationarity": 1.0, "feasibility": 0.0,
                            "complementarity": 0.0, "dual_sign": 0.0},
         10.0, "fails the KKT check: stationarity"),
        ("_farkas_residuals", {"dual_sign": 0.0, "alignment": 0.0, "gap": 0.0},
         0.5, "fails the infeasibility certificate: gap"),
    ])
    def test_checks_fire_under_python_optimize(self, patched, residuals,
                                               state_max, match):
        # Asserts are stripped under -O; the solver checks must still raise.
        # The action box (-0.1, 0.1) with state box (-10, 0.5) is infeasible
        # at s = 0; with (-10, 10) it is optimal with the upper action row active.
        script = textwrap.dedent(f"""
            import sys
            import tsattack.qp as qp
            from tsattack import (NumericalError, SystemSpec, batch_form,
                                  compile_constraints, solve_qp)
            spec = SystemSpec(A=1.0, B=-1.0, C=1.0, Q=1.0, R=1.0, T=1, x0=1.0)
            batch = batch_form(spec)
            cons = compile_constraints(spec, batch, action_box=(-0.1, 0.1),
                                       state_box=(-10.0, {state_max!r}))
            qp.{patched} = lambda *args: {residuals!r}
            try:
                solve_qp(batch, cons, [0.0])
            except NumericalError as exc:
                print("optimize", sys.flags.optimize, "raised", exc)
            """)
        src = str(Path(qp_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("optimize 1 raised ")
        assert match in proc.stdout

    def test_interior_solution(self, scalar_t1):
        cons = compile_constraints(scalar_t1.spec, scalar_t1,
                                   action_box=(-10.0, 10.0))
        sol = solve_qp(scalar_t1, cons, [0.0])
        np.testing.assert_allclose(sol.u, [0.5])
        np.testing.assert_allclose(sol.mu, 0.0)
        assert sol.active == ()

    @pytest.mark.parametrize("scale", [1e8, 1e11, 1e14])
    def test_large_series_never_repicks_a_working_row(self, scale):
        # With |u| this large the rounding of u on a held bound exceeds the
        # activity tolerance; scanning working rows for violations would add
        # that row again and end on a failed KKT check.
        spec = make_scalar_spec(T=10)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, action_box=(-3.0, 3.0))
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = scale * rng.standard_normal(10)
            sol = solve_qp(batch, cons, s)
            assert sol.optimal
            reference = projected_gradient_solve(
                batch.K, linear_term(batch, s),
                lower=np.full(10, -3.0), upper=np.full(10, 3.0))
            np.testing.assert_allclose(sol.u, reference, atol=1e-6)

    def test_pinned_action(self, scalar_t1):
        cons = compile_constraints(scalar_t1.spec, scalar_t1,
                                   action_box=(0.0, 0.0))
        sol = solve_qp(scalar_t1, cons, [0.0])
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.u, [0.0], atol=1e-12)

    def test_unconstrained_matches_closed_form(self):
        # A block on the empty set is the closed form of each row, bit for
        # bit: the auto action box is calibrated on such a block.
        rng = np.random.default_rng(61)
        for _ in range(10):
            batch = batch_form(random_system(rng))
            S = rng.standard_normal((int(rng.integers(1, 9)), batch.p_total))
            cons = ConstraintSet.empty(batch.m_total, batch.p_total)
            U, mu, active, optimal = qp_module._solve_rows(batch, cons, S)
            assert mu.shape == active.shape == (len(S), 0) and optimal.all()
            for u, s in zip(U, S):
                assert u.tobytes() == solve_unconstrained(batch, s).tobytes()

    def test_infeasible_detection(self):
        spec = make_scalar_spec(T=1)
        batch = batch_form(spec)
        # u in [-0.1, 0.1] forces x1 = 1 - u >= 0.9, but x_max = 0.5.
        cons = compile_constraints(spec, batch, action_box=(-0.1, 0.1),
                                   state_box=(-10.0, 0.5))
        sol = solve_qp(batch, cons, [0.0])
        assert sol.status == "infeasible"
        assert sol.u is None
        # The dual iteration ends on a Farkas ray: y >= 0, G'y = 0, y'rhs < 0.
        rhs = cons.rhs([0.0])
        _, _, y = qp_module._dual_active_set(batch, solve_unconstrained(batch, [0.0]),
                                             cons.G, rhs,
                                             qp_module.activity_tolerance(rhs))
        assert np.all(y >= 0.0)
        np.testing.assert_allclose(cons.G.T @ y, 0.0, atol=1e-15)
        assert y @ rhs < 0.0

    @given(seed=st.integers(0, 2**32 - 1), mixed=st.booleans(),
           state_scale=st.floats(0.2, 1.2), action_scale=st.floats(0.2, 1.2))
    @settings(max_examples=60, deadline=None)
    def test_state_and_mixed_boxes_agree_with_oracles(self, seed, mixed,
                                                      state_scale, action_scale):
        # Independent of the active-set path: the status against a phase-1
        # LP, the optimum against scipy's trust-constr interior point.
        check_against_oracles(*random_state_box_instance(
            seed, mixed, state_scale, action_scale))

    def test_active_action_rows_pin_the_bound_bitwise(self):
        rng = np.random.default_rng(89)
        pinned = 0
        for _ in range(40):
            batch, cons, s, bound = random_box_instance(rng)
            sol = solve_qp(batch, cons, s)
            mT = batch.m_total
            for row in sol.active:
                assert sol.u[row % mT] == (bound if row < mT else -bound)
                pinned += 1
        assert pinned > 20

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
            assert res == pytest.approx(kkt_residuals_oracle(batch, cons, s, sol),
                                        rel=0, abs=1e-14)

    @pytest.mark.parametrize("broken", ["stationarity", "feasibility",
                                        "complementarity", "dual_sign"])
    def test_kkt_residuals_flag_a_perturbed_optimum(self, broken):
        # Each perturbation of an optimum breaks one KKT condition: u moved
        # off an active bound into the box or past it, a positive multiplier
        # on a slack row, a negative multiplier.
        spec = make_scalar_spec(T=4)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, action_box=(-0.3, 0.3))
        s = np.zeros(4)
        sol = solve_qp(batch, cons, s)
        assert sol.active and max(kkt_residuals(batch, cons, s, sol).values()) <= 1e-12
        held = sol.active[0]  # an upper bound; row held + 4 is its slack lower bound
        u, mu = sol.u.copy(), sol.mu.copy()
        if broken == "stationarity":
            u[held] -= 1e-3
        elif broken == "feasibility":
            u[held] += 1e-3
        elif broken == "complementarity":
            mu[held + 4] = 1e-3
        else:
            mu[held + 4] = -1e-6
        bad = dataclasses.replace(sol, u=u, mu=mu)
        res = kkt_residuals(batch, cons, s, bad)
        assert res[broken] > qp_module.KKT_LIMITS[broken]
        assert res == pytest.approx(kkt_residuals_oracle(batch, cons, s, bad), rel=0, abs=1e-14)
        with pytest.raises(NumericalError, match="KKT check"):
            qp_module._check("KKT check", res, qp_module.KKT_LIMITS)

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


def reference_solve(batch, cons, s):
    """One series solved as the solver was first written: the dual active
    set runs on every constrained series, whether or not its unconstrained
    optimum violates a row.  Returns (u, mu, active, weakly_active, status)."""
    u = -cho_solve(batch.K_factor, linear_term(batch, s), check_finite=False)
    if cons.q == 0:
        return u, np.zeros(0), (), (), "optimal"
    rhs = cons.rhs(s)
    tol = qp_module.activity_tolerance(rhs)
    u, mu, ray = qp_module._dual_active_set(batch, u, cons.G, rhs, tol)
    if ray is not None:
        return None, None, (), (), "infeasible"
    active = np.flatnonzero(np.abs(cons.G @ u - rhs) <= tol)
    weak = active[mu[active] < qp_module.WEAK_DUAL_TOL]
    return u, mu, tuple(active.tolist()), tuple(weak.tolist()), "optimal"


def block_residuals(batch, cons, S, sols):
    """qp._kkt_residuals of the optimal solutions sols of the rows of S."""
    rhs = np.array([cons.rhs(s) for s in S])
    slack = np.array([cons.G @ sol.u - r for sol, r in zip(sols, rhs)])
    return qp_module._kkt_residuals(
        batch, cons, np.array([linear_term(batch, s) for s in S]), rhs, slack,
        np.array([sol.u for sol in sols]), np.array([sol.mu for sol in sols]))


class TestLeanQr:
    @pytest.mark.parametrize("m, n", [(1, 1), (6, 1), (50, 7), (50, 50), (200, 150)])
    def test_is_numpy_qr_bit_for_bit(self, m, n):
        # Q and R as np.linalg.qr returns them, in value and in memory
        # order, also where LAPACK takes its blocked code (n >= 128).
        rng = np.random.default_rng(m + n)
        B = np.asfortranarray(rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-5, 5, n))
        before = B.copy()
        Q, R = qp_module._qr(B)
        expected_Q, expected_R = np.linalg.qr(B)
        assert Q.tobytes() == expected_Q.tobytes() and Q.flags.c_contiguous
        assert np.triu(R).tobytes() == expected_R.tobytes() and R.flags.c_contiguous
        assert B.tobytes() == before.tobytes()  # the working columns stay


class TestSolveRows:
    def test_each_row_is_its_own_solve(self):
        # Blocks that mix rows whose unconstrained optimum violates no row,
        # rows that run the dual active set and infeasible rows, under no
        # box (q = 0), action boxes and state boxes.  Each row is bit for
        # bit solve_qp of that row alone and the solve as first written.
        rng = np.random.default_rng(97)
        kinds = set()
        for case in range(36):
            spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=6)
            batch = batch_form(spec)
            s = rng.standard_normal(batch.p_total)
            u_free = solve_unconstrained(batch, s)
            x_free = batch.x0_response + batch.M @ u_free + batch.N @ s
            u_bound = float(np.abs(u_free).max()) * rng.uniform(0.8, 1.5)
            x_bound = float(np.abs(x_free).max()) * rng.uniform(0.8, 1.5)
            if case % 3 == 0:
                cons = ConstraintSet.empty(batch.m_total, batch.p_total)
            elif case % 3 == 1:
                cons = compile_constraints(spec, batch, action_box=(-u_bound, u_bound))
            else:
                cons = compile_constraints(spec, batch, action_box=(-u_bound, u_bound),
                                           state_box=(-x_bound, x_bound))
            S = s + rng.uniform(0.0, 1.5) * rng.standard_normal((7, batch.p_total))
            S[0] = s
            block = qp_module._solve_rows(batch, cons, S)
            assert len(block.U) == len(S)
            for i, row in enumerate(S):
                sol = row_solution(block, i)
                one = solve_qp(batch, cons, row)
                u, mu, active, weak, status = reference_solve(batch, cons, row)
                for other in (one, QpSolution(u=u, mu=mu, active=active,
                                              weakly_active=weak, status=status)):
                    assert sol.status == other.status
                    assert sol.active == other.active
                    assert sol.weakly_active == other.weakly_active
                    if sol.optimal:
                        assert np.array_equal(sol.u, other.u)
                        assert np.array_equal(sol.mu, other.mu)
                        assert sol.u.tobytes() == other.u.tobytes()  # signed zeros too
                        assert sol.mu.tobytes() == other.mu.tobytes()
                    else:
                        assert sol.u is other.u is None and sol.mu is other.mu is None
                kinds.add("no box" if cons.q == 0 else "infeasible" if not sol.optimal
                          else "dual" if sol.mu.any() else "free")
        assert kinds == {"no box", "free", "dual", "infeasible"}

    def test_block_arrays_are_each_rows_solve(self):
        # The block contract on random action, state and mixed boxes, a
        # weakly active row and an unconstrained row whose L s overflows:
        # U is (W, mT), mu and active (W, q), optimal (W,).  Each row's
        # status, U and mu (bit for bit), active rows and weak set (derived
        # as active & (mu < WEAK_DUAL_TOL)) are solve_qp's of that row; an
        # infeasible row has NaN actions, no multiplier and no active row.
        rng = np.random.default_rng(131)
        blocks = []
        for seed in range(45):
            if seed % 3 == 0:
                batch, cons, s, _ = random_box_instance(rng)
            else:
                batch, cons, s = random_state_box_instance(
                    seed, seed % 3 == 2, rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2))
            blocks.append((batch, cons, s + rng.uniform(0.0, 2.0)
                           * rng.standard_normal((6, batch.p_total))))
        scalar = batch_form(make_scalar_spec(T=1))
        blocks.append((scalar, compile_constraints(scalar.spec, scalar,
                                                   action_box=(-10.0, 0.5)),
                       np.array([[0.0], [0.3]])))
        wide = batch_form(make_scalar_spec(T=4))
        blocks.append((wide, ConstraintSet.empty(4, 4), np.array([[0.1] * 4, [1e308] * 4])))
        kinds = set()
        for batch, cons, S in blocks:
            with np.errstate(over="ignore", invalid="ignore"):
                U, mu, active, optimal = qp_module._solve_rows(batch, cons, S)
            W = len(S)
            assert U.shape == (W, batch.m_total)
            assert mu.shape == active.shape == (W, cons.q) and optimal.shape == (W,)
            assert active.dtype == optimal.dtype == bool
            weak = active & (mu < qp_module.WEAK_DUAL_TOL)
            for i, row in enumerate(S):
                with np.errstate(over="ignore", invalid="ignore"):
                    sol = solve_qp(batch, cons, row)
                assert optimal[i] == sol.optimal
                assert tuple(np.flatnonzero(active[i])) == sol.active
                assert tuple(np.flatnonzero(weak[i])) == sol.weakly_active
                if sol.optimal:
                    assert U[i].tobytes() == sol.u.tobytes()
                    assert mu[i].tobytes() == sol.mu.tobytes()
                else:
                    assert np.isnan(U[i]).all() and not mu[i].any()
                kinds.add("infeasible" if not optimal[i] else "overflow"
                          if not np.isfinite(U[i]).all() else "weak" if weak[i].any()
                          else "active" if active[i].any() else "free")
        assert kinds == {"free", "active", "weak", "infeasible", "overflow"}

    def test_a_failing_row_stops_the_block_under_its_name(self, monkeypatch):
        # The row whose dual active set raises stops the block: the rows
        # after it are not solved, and the error carries the row's name
        # when the block has names.  solve_qp raises it unchanged.
        spec = make_scalar_spec(T=4)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, action_box=(-0.3, 0.3))
        S = np.array([0.05 * i * np.ones(4) for i in range(3)])
        dual_active_set = qp_module._dual_active_set
        failing_u = solve_unconstrained(batch, S[1])
        solved = []

        def failing(batch, u, G, rhs, tol, warm=()):
            if np.array_equal(u, failing_u):
                raise NumericalError("forced")
            solved.append(u.copy())
            return dual_active_set(batch, u, G, rhs, tol, warm)

        assert qp_module._solve_rows(batch, cons, S).active.any(axis=1).all()
        monkeypatch.setattr(qp_module, "_dual_active_set", failing)
        with pytest.raises(NumericalError, match="^b: forced$"):
            qp_module._solve_rows(batch, cons, S, ["a", "b", "c"])
        assert len(solved) == 1 and np.array_equal(solved[0],
                                                    solve_unconstrained(batch, S[0]))
        with pytest.raises(NumericalError, match="^forced$"):
            qp_module._solve_rows(batch, cons, S)
        with pytest.raises(NumericalError, match="^forced$"):
            solve_qp(batch, cons, S[1])

    def test_kkt_residuals_of_a_block_match_the_oracle_per_row(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            batch, cons, s, _ = random_box_instance(rng)
            S = s + 0.5 * rng.standard_normal((5, batch.p_total))
            sols = [solve_qp(batch, cons, row) for row in S]
            res = block_residuals(batch, cons, S, sols)
            for name, limit in qp_module.KKT_LIMITS.items():
                assert (res[name] <= limit).all()
            for i, (row, sol) in enumerate(zip(S, sols)):
                assert {name: value[i] for name, value in res.items()} == pytest.approx(
                    kkt_residuals_oracle(batch, cons, row, sol), rel=0, abs=1e-14)

    @pytest.mark.parametrize("broken", ["stationarity", "feasibility",
                                        "complementarity", "dual_sign"])
    def test_a_perturbed_row_fails_the_block_check(self, monkeypatch, broken):
        # The perturbations of test_kkt_residuals_flag_a_perturbed_optimum,
        # on row 2 of a block of four optima: each breaks its residual, only
        # that row fails, and the block check raises for it by name.
        spec = make_scalar_spec(T=4)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, action_box=(-0.3, 0.3))
        S = np.array([0.05 * i * np.ones(4) for i in range(4)])
        sols = [solve_qp(batch, cons, row) for row in S]
        sol = sols[2]
        assert sol.active and sol.active[0] < 4
        held = sol.active[0]  # an upper bound; row held + 4 is its slack lower bound
        u, mu = sol.u.copy(), sol.mu.copy()
        if broken == "stationarity":
            u[held] -= 1e-3
        elif broken == "feasibility":
            u[held] += 1e-3
        elif broken == "complementarity":
            mu[held + 4] = 1e-3
        else:
            mu[held + 4] = -1e-6
        sols[2] = dataclasses.replace(sol, u=u, mu=mu)
        res = block_residuals(batch, cons, S, sols)
        for i, (row, sol) in enumerate(zip(S, sols)):
            assert {name: value[i] for name, value in res.items()} == pytest.approx(
                kkt_residuals_oracle(batch, cons, row, sol), rel=0, abs=1e-14)
        assert res[broken][2] > qp_module.KKT_LIMITS[broken]
        failing = [i for i in range(len(S)) if any(
            res[name][i] > limit for name, limit in qp_module.KKT_LIMITS.items())]
        assert failing == [2]
        # The block check raises for row 2, naming its first residual past
        # its limit.
        first = next(name for name, limit in qp_module.KKT_LIMITS.items()
                     if res[name][2] > limit)
        monkeypatch.setattr(qp_module, "_kkt_residuals", lambda *args: res)
        with pytest.raises(NumericalError,
                           match=f"^w2: QP solution fails the KKT check: {first} residual"):
            qp_module._solve_rows(batch, cons, S, [f"w{i}" for i in range(len(S))])


class TestWarmStart:
    """A solve warm-started on the working set of a nearby solve, against
    the cold solve of the same series."""

    @staticmethod
    def kept_warm_starts(monkeypatch) -> list:
        """Whether each warm start offered a working set kept it, in order."""
        kept = []
        warm_start = qp_module._warm_start

        def recording(factor, u, mu, G, rhs, warm, B):
            rows = warm_start(factor, u, mu, G, rhs, warm, B)
            if len(warm):
                kept.append(bool(rows))
            return rows

        monkeypatch.setattr(qp_module, "_warm_start", recording)
        return kept

    def test_matches_the_cold_solve(self, monkeypatch):
        # Random systems (n, m, p <= 2) under action and state boxes: each
        # series is solved clean, then perturbed four ways and solved warm
        # from the clean working set and cold.  Both have the same status
        # and active rows, and u and mu agree to a relative 1e-10 (of their
        # largest entry); the infeasible rows pass the strict Farkas check
        # inside the block.
        kept = self.kept_warm_starts(monkeypatch)
        rng = np.random.default_rng(113)
        statuses = set()
        for _ in range(40):
            spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=6)
            batch = batch_form(spec)
            s = rng.standard_normal(batch.p_total)
            u_free = solve_unconstrained(batch, s)
            x_free = batch.x0_response + batch.M @ u_free + batch.N @ s
            u_bound = float(np.abs(u_free).max()) * rng.uniform(0.6, 1.2)
            x_bound = float(np.abs(x_free).max()) * rng.uniform(0.8, 1.5)
            cons = compile_constraints(spec, batch, action_box=(-u_bound, u_bound),
                                       state_box=(-x_bound, x_bound))
            clean = solve_qp(batch, cons, s)
            if not clean.optimal:
                continue
            S = s + rng.uniform(0.01, 0.5) * rng.standard_normal((4, batch.p_total))
            block = qp_module._solve_rows(batch, cons, S, warm=np.tile(clean.mu, (4, 1)))
            for i, row in enumerate(S):
                sol, cold = row_solution(block, i), solve_qp(batch, cons, row)
                assert (sol.status, sol.active) == (cold.status, cold.active)
                if sol.optimal:
                    assert_relative_close(sol.u, cold.u, 1e-10)
                    assert_relative_close(sol.mu, cold.mu, 1e-10)
                statuses.add(sol.status)
        assert statuses == {"optimal", "infeasible"}
        assert kept.count(True) >= 40 and not all(kept)  # kept, and some fell back

    @pytest.mark.parametrize("case", ["negative multiplier", "dependent rows"])
    def test_a_rejected_warm_start_is_the_cold_solve(self, monkeypatch, case):
        # The free optimum of s = 1 exceeds 0.3 in every action.  Under a
        # +-0.3 box, warm on the lower bounds, the equality QP's multipliers
        # are negative (2K(-u_free - 0.3) with K > 0 entrywise).  With the
        # first action pinned at 0.3, warm on both of its bounds, the rows
        # are dependent: only the span rule rejects them, since both
        # multipliers come out near +1e17.  Each solve falls back to the
        # cold start, bit for bit.  The nearby solve that hands over the
        # warm set is stood in for by its multipliers alone.
        spec = make_scalar_spec(T=4)
        batch = batch_form(spec)
        s = np.ones(4)
        if case == "negative multiplier":
            cons = compile_constraints(spec, batch, action_box=(-0.3, 0.3))
            warm = [4, 5, 6, 7]
        else:
            cons = compile_constraints(spec, batch,
                                       action_box=([0.3, -0.3, -0.3, -0.3], 0.3))
            warm = [0, 4]
        assert (solve_unconstrained(batch, s) > 0.3).all()
        cold = solve_qp(batch, cons, s)
        kept = self.kept_warm_starts(monkeypatch)
        mu = np.zeros(cons.q)
        mu[warm] = 1.0
        sol = row_solution(qp_module._solve_rows(batch, cons, s[None], warm=mu[None]))
        assert kept == [False]
        assert (sol.status, sol.active, sol.weakly_active) == (
            cold.status, cold.active, cold.weakly_active)
        assert sol.u.tobytes() == cold.u.tobytes()
        assert sol.mu.tobytes() == cold.mu.tobytes()

    def test_an_infeasible_row_from_a_warm_start_has_a_farkas_ray(self, monkeypatch):
        # u in [-0.1, 0.1] and x1 = 1 - u + s <= 0.5: the clean series
        # s = -0.45 holds u at its upper bound, and s = 0 needs u >= 0.5.
        # The warm start on that bound is kept, and the dual iteration ends
        # on a ray that passes the strict Farkas limits.
        spec = make_scalar_spec(T=1)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, action_box=(-0.1, 0.1),
                                   state_box=(-10.0, 0.5))
        clean = solve_qp(batch, cons, [-0.45])
        assert np.flatnonzero(clean.mu > 0.0).tolist() == [0]
        kept = self.kept_warm_starts(monkeypatch)
        rhs = cons.rhs(np.zeros(1))
        u, mu, y = qp_module._dual_active_set(
            batch, solve_unconstrained(batch, [0.0]), cons.G, rhs,
            qp_module.activity_tolerance(rhs), [0])
        assert u is None and mu is None and kept == [True]
        residuals = qp_module._farkas_residuals(cons.G, rhs, y)
        for name, limit in qp_module.FARKAS_LIMITS.items():
            assert residuals[name] < limit
        U, mu, active, optimal = qp_module._solve_rows(batch, cons, np.zeros((1, 1)),
                                                       warm=clean.mu[None])
        assert not optimal[0] and kept == [True, True]
        assert np.isnan(U).all() and not mu.any() and not active.any()
