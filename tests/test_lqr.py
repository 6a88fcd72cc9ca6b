import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from tsattack import (
    ConfigurationError,
    SystemSpec,
    batch_form,
    check_series,
    compile_constraints,
    cost_delta_quadratic,
    realized_costs,
    rollout_cost,
)
from tsattack import lqr
from tsattack.lqr import (_cho_solve, _quadratic_forms, _row_dots, _row_products,
                          _solve_triangular, linear_term)

from conftest import make_scalar_spec, random_system, solve_unconstrained


TWO_STATE = dict(A=[[0.9, 0.2], [0.0, 0.7]], B=[[1.0], [0.5]],
                 C=[[0.3, 0.0], [0.1, 1.0]], Q=[[2.0, 0.5], [0.5, 1.0]],
                 R=0.5, T=6, x0=[1.0, -0.5])


def stack_dynamics_loop(spec):
    """Reference: fill the flat row blocks M_t and N_t (rows t*n .. (t+1)*n - 1)
    block by block with the O(T^2) double loop."""
    n, m, p, T = spec.n, spec.m, spec.p, spec.T
    M = np.zeros((n * T, m * T))
    N = np.zeros((n * T, p * T))
    x0_response = np.zeros(n * T)
    AjB = np.zeros((T, n, m))
    AjC = np.zeros((T, n, p))
    AjB[0], AjC[0] = spec.B, spec.C
    for j in range(1, T):
        AjB[j] = spec.A @ AjB[j - 1]
        AjC[j] = spec.A @ AjC[j - 1]
    free = spec.A @ spec.x0
    for t in range(T):
        rows = slice(t * n, (t + 1) * n)
        x0_response[rows] = free
        free = spec.A @ free
        for j in range(t + 1):
            M[rows, j * m:(j + 1) * m] = AjB[t - j]
            N[rows, j * p:(j + 1) * p] = AjC[t - j]
    return M, N, x0_response


class TestStackDynamics:
    def test_bitwise_equal_to_double_loop(self):
        # M and N are copies of A^j B and A^j C: the loop's bytes, in C-ordered,
        # read-only arrays of their own (the scalar maps too, whose strided
        # windows a reshape alone would leave as overlapping views).
        rng = np.random.default_rng(11)
        specs = [make_scalar_spec(T=500), SystemSpec(**TWO_STATE),
                 *(random_system(rng, t_max=12) for _ in range(50))]
        for spec in specs:
            batch = batch_form(spec)
            for got, want in zip((batch.M, batch.N, batch.x0_response),
                                 stack_dynamics_loop(spec)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert got.flags.c_contiguous and not got.flags.writeable
            assert not np.shares_memory(batch.M, batch.N)

    def test_scalar_single_step(self):
        batch = batch_form(make_scalar_spec(T=1))
        np.testing.assert_allclose(batch.M[0:1], [[-1.0]])
        np.testing.assert_allclose(batch.N[0:1], [[1.0]])

    def test_scalar_two_steps(self):
        batch = batch_form(make_scalar_spec(T=2))
        np.testing.assert_allclose(batch.M[0:1], [[-1.0, 0.0]])
        np.testing.assert_allclose(batch.M[1:2], [[-1.0, -1.0]])
        np.testing.assert_allclose(batch.N[0:1], [[1.0, 0.0]])
        np.testing.assert_allclose(batch.N[1:2], [[1.0, 1.0]])

    def test_nilpotent_transition_zeroes_history(self):
        spec = SystemSpec(A=0.0, B=2.0, C=3.0, Q=1.0, R=1.0, T=2, x0=0.0)
        batch = batch_form(spec)
        np.testing.assert_allclose(batch.M[1:2], [[0.0, 2.0]])
        np.testing.assert_allclose(batch.N[1:2], [[0.0, 3.0]])

    def test_matches_explicit_rollout(self):
        # Oracle: x_{t+1} from simulation equals row block t of
        # x0_response + M u + N s.
        rng = np.random.default_rng(3)
        for _ in range(10):
            spec = random_system(rng, t_max=6)
            batch = batch_form(spec)
            u = rng.standard_normal(spec.m * spec.T)
            s = rng.standard_normal(spec.p * spec.T)
            x = spec.x0
            for t in range(spec.T):
                x = (spec.A @ x + spec.B @ u[t * spec.m:(t + 1) * spec.m]
                     + spec.C @ s[t * spec.p:(t + 1) * spec.p])
                rows = slice(t * spec.n, (t + 1) * spec.n)
                predicted = (batch.x0_response[rows] + batch.M[rows] @ u
                             + batch.N[rows] @ s)
                np.testing.assert_allclose(predicted, x, atol=1e-10)


class TestBuildCostForm:
    def test_scalar_t1_coefficients(self, scalar_t1):
        np.testing.assert_allclose(scalar_t1.K, [[2.0]])
        np.testing.assert_allclose(scalar_t1.L, [[-1.0]])
        np.testing.assert_allclose(scalar_t1.Psi, [[0.5]])

    def test_scalar_t2_coefficients(self, scalar_t2):
        np.testing.assert_allclose(scalar_t2.K, [[3.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(scalar_t2.L, [[-2.0, -1.0], [-1.0, -1.0]])
        np.testing.assert_allclose(scalar_t2.Psi, np.array([[7.0, 4.0], [4.0, 3.0]]) / 5)
        eigvals = np.linalg.eigvalsh(scalar_t2.Psi)
        assert math.isclose(eigvals.sum(), 2.0, rel_tol=1e-12)
        assert math.isclose(eigvals.prod(), 0.2, rel_tol=1e-12)

    def test_zero_action_gain_gives_zero_sensitivity(self):
        spec = SystemSpec(A=1.0, B=0.0, C=1.0, Q=1.0, R=1.0, T=3, x0=1.0)
        batch = batch_form(spec)
        np.testing.assert_allclose(batch.L, 0.0)
        np.testing.assert_allclose(batch.Psi, 0.0)

    def test_sensitivity_matches_explicit_inverse(self):
        # Oracle: Psi recomputed with an explicit matrix inverse.
        rng = np.random.default_rng(11)
        for _ in range(20):
            batch = batch_form(random_system(rng))
            oracle = batch.L.T @ np.linalg.inv(batch.K) @ batch.L
            err = np.linalg.norm(batch.Psi - oracle) / max(np.linalg.norm(oracle), 1e-30)
            assert err <= 1e-10

    def test_psi_positive_semidefinite(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            batch = batch_form(random_system(rng))
            eigvals = np.linalg.eigvalsh(batch.Psi)
            assert eigvals.min() >= -1e-10 * max(eigvals.max(), 1e-30)

    def test_k_positive_definite(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            batch = batch_form(random_system(rng))
            assert np.linalg.eigvalsh(batch.K).min() > 0

    def test_cost_form_matches_simulation(self):
        # Oracle: the simulated cost, not the stacked maps, pins K, L and
        # k_const: J(u; s) - J(0; s) = u'Ku + 2 (k_const + L s)'u.
        rng = np.random.default_rng(15)
        for _ in range(50):
            spec = random_system(rng)
            batch = batch_form(spec)
            u = rng.standard_normal(batch.m_total)
            s = rng.standard_normal(batch.p_total)
            terms = (rollout_cost(spec, u, s), -rollout_cost(spec, np.zeros_like(u), s),
                     -(u @ batch.K @ u), -2.0 * (batch.k_const + batch.L @ s) @ u)
            assert abs(sum(terms)) <= 1e-10 * sum(abs(t) for t in terms)

    def test_free_jacobian_built_once_read_only(self):
        # batch_form solves K^-1 L once, for the free Jacobian and for Psi.
        rng = np.random.default_rng(14)
        for _ in range(10):
            batch = batch_form(random_system(rng))
            F = batch.free_jacobian
            np.testing.assert_array_equal(F, -cho_solve(batch.K_factor, batch.L))
            Psi = -(batch.L.T @ F)
            np.testing.assert_array_equal(batch.Psi, 0.5 * (Psi + Psi.T))
            assert not F.flags.writeable
            with pytest.raises(ValueError):
                F[0, 0] = 1.0


@pytest.mark.usefixtures("fresh_forms")
class TestFormMemo:
    """batch_form shares one read-only form among systems of equal content."""

    @staticmethod
    def counting_builds(monkeypatch):
        calls = []
        stack = lqr._stack_dynamics

        def counting(spec):
            calls.append(spec)
            return stack(spec)

        monkeypatch.setattr(lqr, "_stack_dynamics", counting)
        return calls

    def test_equal_system_gets_the_same_form(self, monkeypatch):
        builds = self.counting_builds(monkeypatch)
        first = SystemSpec(**TWO_STATE)
        batch = batch_form(first)
        again = batch_form(SystemSpec(**TWO_STATE))
        assert again is batch and again.spec is first
        assert batch_form(first) is batch
        assert builds == [first]
        assert again.eigenpair is batch.eigenpair

    @pytest.mark.parametrize("change", [
        pytest.param({"Q": [[np.nextafter(2.0, 3.0), 0.5], [0.5, 1.0]]}, id="Q-one-ulp"),
        pytest.param({"x0": [1.0, -0.0]}, id="x0-negative-zero"),
        pytest.param({"T": 7}, id="T"),
    ])
    def test_any_change_builds_a_new_form(self, monkeypatch, change):
        builds = self.counting_builds(monkeypatch)
        base = dict(TWO_STATE, x0=[1.0, 0.0])
        batch = batch_form(SystemSpec(**base))
        other = batch_form(SystemSpec(**dict(base, **change)))
        assert other is not batch
        assert len(builds) == 2

    def test_hit_makes_no_blas_call(self, monkeypatch):
        spec = make_scalar_spec(T=4)
        calls = []
        controls = ((lambda: calls.append("get") or 1, lambda count: calls.append(count)),)
        monkeypatch.setattr(lqr, "_BLAS_CONTROLS", controls)
        batch = batch_form(spec)
        assert calls == ["get", 1, 1]  # the build's one-thread scope
        equal = make_scalar_spec(T=4)
        monkeypatch.setattr(lqr, "cho_factor", None)  # a rebuild would raise
        assert batch_form(equal) is batch
        assert calls == ["get", 1, 1]

    def test_keeps_only_the_last_system(self, monkeypatch):
        builds = self.counting_builds(monkeypatch)
        first = batch_form(make_scalar_spec(T=1))
        second = batch_form(make_scalar_spec(T=2))  # replaces T = 1
        assert lqr._last_form[1] is second
        assert batch_form(make_scalar_spec(T=2)) is second
        assert len(builds) == 2
        assert batch_form(make_scalar_spec(T=1)) is not first
        assert len(builds) == 3

    def test_every_array_is_read_only(self):
        batch = batch_form(SystemSpec(**TWO_STATE))
        for arr in (batch.M, batch.N, batch.x0_response, batch.K, batch.L, batch.Psi,
                    batch.k_const, batch.K_factor[0], batch.free_jacobian,
                    batch.eigenpair.v1):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0

    def test_failed_build_is_not_kept(self, monkeypatch):
        def failing(mat):
            raise np.linalg.LinAlgError("not positive definite")

        kept = batch_form(make_scalar_spec(T=2))
        spec = make_scalar_spec(T=3)
        monkeypatch.setattr(lqr, "cho_factor", failing)
        with pytest.raises(ConfigurationError, match="K is not positive definite"):
            batch_form(spec)
        assert lqr._last_form[1] is kept


class TestLinearTerm:
    def test_scalar_t1_zero_series(self, scalar_t1):
        np.testing.assert_allclose(linear_term(scalar_t1, [0.0]), [-1.0])

    def test_zero_state_zero_series(self):
        batch = batch_form(make_scalar_spec(T=1, x0=0.0))
        np.testing.assert_allclose(linear_term(batch, [0.0]), [0.0])

    def test_scalar_t1_unit_series(self, scalar_t1):
        np.testing.assert_allclose(linear_term(scalar_t1, [1.0]), [-2.0])


class TestCheckSeries:
    def test_returns_flat_float_vector(self, scalar_t2):
        vec = check_series(scalar_t2, [[1], [2]])
        assert vec.dtype == float
        np.testing.assert_array_equal(vec, [1.0, 2.0])

    def test_length_mismatch(self, scalar_t1):
        with pytest.raises(ValueError, match="s_obs must have length"):
            check_series(scalar_t1, [0.0, 0.0], "s_obs")

    def test_non_finite_series_rejected(self, scalar_t1):
        with pytest.raises(ValueError, match="s contains non-finite"):
            check_series(scalar_t1, [math.nan])
        with pytest.raises(ValueError, match="s contains non-finite"):
            check_series(scalar_t1, [math.inf])


class TestSolveUnconstrained:
    def test_scalar_t1(self, scalar_t1):
        np.testing.assert_allclose(solve_unconstrained(scalar_t1, [0.0]), [0.5])

    def test_zero_data_zero_action(self):
        batch = batch_form(make_scalar_spec(T=3, x0=0.0))
        np.testing.assert_allclose(solve_unconstrained(batch, np.zeros(3)), 0.0,
                                   atol=1e-15)

    def test_gap_from_series_change(self, scalar_t1):
        gap = solve_unconstrained(scalar_t1, [1.0]) - solve_unconstrained(scalar_t1, [0.0])
        np.testing.assert_allclose(gap, [0.5])

    def test_stationarity_residual(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            batch = batch_form(random_system(rng))
            s = rng.standard_normal(batch.p_total)
            u = solve_unconstrained(batch, s)
            k = linear_term(batch, s)
            residual = np.abs(2 * batch.K @ u + 2 * k).max()
            assert residual <= 1e-9 * (1 + np.abs(k).max())


class TestLapackSolves:
    """The direct LAPACK calls give scipy's wrappers' results bit for bit."""

    @pytest.mark.parametrize("rhs_shape", [(7,), (7, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_solve_triangular_matches_scipy(self, order, lower, trans, rhs_shape):
        # A full matrix: each triangle is read only when it should be.
        rng = np.random.default_rng(11)
        a = np.asarray(rng.standard_normal((7, 7)) + 7.0 * np.eye(7), order=order)
        b = rng.standard_normal(rhs_shape)
        expected = solve_triangular(a, b, trans=trans, lower=lower, check_finite=False)
        assert np.array_equal(_solve_triangular(a, b, lower, trans), expected)

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_singular_triangle_raises(self, order):
        a = np.asarray(np.triu(np.ones((4, 4))), order=order)
        a[2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _solve_triangular(a, np.ones(4))

    @pytest.mark.parametrize("rhs_shape", [(7,), (7, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("lower", [True, False])
    def test_cho_solve_matches_scipy(self, lower, rhs_shape):
        rng = np.random.default_rng(13)
        W = rng.standard_normal((7, 7))
        factor = cho_factor(W @ W.T + 7.0 * np.eye(7), lower=lower)
        b = rng.standard_normal(rhs_shape)
        expected = cho_solve(factor, b, check_finite=False)
        assert np.array_equal(_cho_solve(factor, b), expected)


class TestRowKernels:
    """A block's stacked products and dots are the per-row BLAS results bit
    for bit: every lockstep solve and ascent rests on this, so a numpy or
    BLAS change that breaks it fails here first."""

    @pytest.mark.parametrize("T", [50, 500])
    def test_stacked_products_and_norms_are_the_per_row_ones(self, T):
        spec = make_scalar_spec(T=T)
        batch = batch_form(spec)
        cons = compile_constraints(spec, batch, action_box=(-1.0, 1.0),
                                   state_box=(-2.0, 2.0))
        rng = np.random.default_rng(T)
        for name, A in (("L", batch.L), ("G", cons.G), ("H", cons.H),
                        ("free_jacobian.T", batch.free_jacobian.T)):
            for W in range(1, 41):
                X = rng.standard_normal((W, A.shape[1])) * 10.0 ** rng.uniform(-3, 3, (W, 1))
                products = _row_products(A, X)
                assert products.tobytes() == np.array([A @ x for x in X]).tobytes(), (name, W)
                norms = np.sqrt(_row_dots(products))
                expected = np.array([np.linalg.norm(y) for y in products])
                assert norms.tobytes() == expected.tobytes(), (name, W)

    def test_dots_of_strided_rows_are_the_norms_of_the_rows(self):
        X = np.random.default_rng(3).standard_normal((40, 9))[:, ::2]
        expected = np.array([np.linalg.norm(x) for x in X])
        assert np.sqrt(_row_dots(X)).tobytes() == expected.tobytes()


def stacked_quadratic_forms(X, P):
    """Oracle: ``x @ P @ x`` of every row of X as one stacked vector-matrix
    and one stacked dot."""
    return np.matmul(np.matmul(X[:, None, :], P), X[:, :, None])[:, 0, 0]


#: Rows with signed zeros, infinities, NaNs of both signs and another
#: payload, the subnormal edge, overflow and ordinary values.
SPECIAL_ROWS = np.concatenate([
    [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 1e-170,
     1e154, 1e200, -1e200, 1.0, -2.5],
    np.array([0x7FF8_0000_DEAD_BEEF, 0xFFF4_0000_0000_0001], dtype=np.uint64).view(float),
])


class TestQuadraticForms:
    """The elementwise form of a positive 1×1 weight is the stacked products
    bit for bit, and any other weight still takes the products."""

    @pytest.mark.parametrize("p", [1.0, 0.5, 3.0, 1e-300, 1e300, 5e-324, 7.3])
    def test_scalar_weight_is_the_stacked_products(self, p):
        rng = np.random.default_rng(17)
        X = np.concatenate([
            SPECIAL_ROWS,
            rng.standard_normal(2000) * 10.0 ** rng.uniform(-200, 200, 2000),
            rng.choice(SPECIAL_ROWS, 2000),
        ])[:, None]
        P = np.array([[p]])
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got = _quadratic_forms(X, P)
            want = stacked_quadratic_forms(X, P)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [0.0, -0.0, -1.0, math.nan])
    def test_weight_that_is_not_positive_keeps_the_products(self, p):
        # Here the elementwise form differs: (-0.0 * -1) * 0.0 is -0.0 where
        # the products add +0.0 to it.
        X = SPECIAL_ROWS[:, None]
        P = np.array([[p]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert _quadratic_forms(X, P).tobytes() == stacked_quadratic_forms(X, P).tobytes()

    def test_matrix_weight_is_the_stacked_products(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((3, 3))
        X = rng.standard_normal((500, 3))
        P = W @ W.T + np.eye(3)
        assert _quadratic_forms(X, P).tobytes() == stacked_quadratic_forms(X, P).tobytes()


def rollout_loop(spec, u, s):
    """Oracle: the rollout one series at a time, as first written."""
    m, p = spec.m, spec.p
    x = spec.x0
    total = float(x @ spec.Q @ x)
    for t in range(spec.T):
        u_t, s_t = u[t * m:(t + 1) * m], s[t * p:(t + 1) * p]
        total += float(u_t @ spec.R @ u_t)
        x = spec.A @ x + spec.B @ u_t + spec.C @ s_t
        total += float(x @ spec.Q @ x)
    return total


class TestRolloutCost:
    def test_scalar_t1_half_action(self):
        spec = make_scalar_spec(T=1)
        assert math.isclose(rollout_cost(spec, [0.5], [0.0]), 1.5, rel_tol=1e-12)

    def test_all_zero(self):
        spec = make_scalar_spec(T=1, x0=0.0)
        assert rollout_cost(spec, [0.0], [0.0]) == 0.0

    def test_scalar_t1_unit_action(self):
        spec = make_scalar_spec(T=1)
        assert math.isclose(rollout_cost(spec, [1.0], [0.0]), 2.0, rel_tol=1e-12)

    def test_dimension_mismatch(self):
        spec = make_scalar_spec(T=2)
        with pytest.raises(ValueError):
            rollout_cost(spec, [0.0], [0.0, 0.0])

    def test_stacked_rollouts_are_the_per_row_loop(self):
        # Each row of a block's realized costs is bit for bit the row costed
        # alone, and the reference rollout is bit for bit the simulation of
        # that row one step and one product at a time.
        rng = np.random.default_rng(31)
        for _ in range(20):
            spec = random_system(rng)
            batch = batch_form(spec)
            U = rng.standard_normal((int(rng.integers(1, 9)), spec.m * spec.T))
            S = rng.standard_normal((len(U), spec.p * spec.T))
            assert realized_costs(batch, U, S).tobytes() == np.array(
                [realized_costs(batch, u[None], s[None])[0] for u, s in zip(U, S)]).tobytes()
            for u, s in zip(U, S):
                assert rollout_cost(spec, u, s) == rollout_loop(spec, u, s)


class TestRealizedCosts:
    def test_matches_rollout_on_random_systems(self):
        rng = np.random.default_rng(5)
        horizons = set()
        for _ in range(60):
            spec = random_system(rng, n_max=2, m_max=2, p_max=2, t_max=8)
            horizons.add(spec.T)
            batch = batch_form(spec)
            U = rng.standard_normal((4, batch.m_total))
            S = rng.standard_normal((4, batch.p_total))
            costs = realized_costs(batch, U, S)
            assert costs.shape == (4,)
            for u, s, cost in zip(U, S, costs):
                assert math.isclose(cost, rollout_cost(spec, u, s), rel_tol=1e-10)
        assert 1 in horizons

    @pytest.mark.parametrize("spec,widths", [
        (make_scalar_spec(T=50), range(1, 601)),
        (make_scalar_spec(T=500), range(1, 31)),
        # m = 2 at T = 1: the shape on which an einsum over the block does
        # not round each row as it rounds the row alone.
        (SystemSpec(A=[[0.9, 0.2], [0.0, 0.7]], B=[[1.0, 0.0], [0.5, 1.0]],
                    C=[[0.3], [1.0]], Q=[[2.0, 0.5], [0.5, 1.0]],
                    R=[[1.0, 0.2], [0.2, 0.5]], T=1, x0=[1.0, -0.5]), range(1, 601)),
    ], ids=["scalar-T50", "scalar-T500", "m2-T1"])
    def test_block_rows_are_each_row_alone(self, spec, widths):
        # The records and the cost-gradient target cost blocks of every
        # width: each row of a block is bit for bit the row costed alone.
        batch = batch_form(spec)
        rng = np.random.default_rng(spec.T)
        rows = max(widths)
        U = rng.standard_normal((rows, batch.m_total)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        S = rng.standard_normal((rows, batch.p_total)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        alone = np.array([realized_costs(batch, U[r:r + 1], S[r:r + 1])[0]
                          for r in range(rows)])
        for width in widths:
            costs = realized_costs(batch, U[:width], S[:width])
            assert costs.tobytes() == alone[:width].tobytes(), width

    @pytest.mark.parametrize("spec", [make_scalar_spec(T=50), make_scalar_spec(T=500),
                                      SystemSpec(**TWO_STATE)],
                             ids=["scalar-T50", "scalar-T500", "two-state"])
    def test_shared_responses_cost_each_row_alone(self, spec):
        # Many action rows against a few series, each series' N s computed
        # once for all of its rows: every cost is bit for bit realized_costs
        # of its row alone.
        batch = batch_form(spec)
        rng = np.random.default_rng(spec.T)
        S = rng.standard_normal((5, batch.p_total)) * 10.0 ** rng.uniform(-3, 3, (5, 1))
        window = rng.integers(0, len(S), 40)
        U = rng.standard_normal((40, batch.m_total)) * 10.0 ** rng.uniform(-3, 3, (40, 1))
        costs = lqr._costs_of_responses(batch, U, _row_products(batch.N, S)[window])
        alone = np.array([realized_costs(batch, u[None], S[w][None])[0]
                          for u, w in zip(U, window.tolist())])
        assert costs.tobytes() == alone.tobytes()

    def test_zero_rows(self, scalar_t2):
        costs = realized_costs(scalar_t2, np.zeros((0, 2)), np.zeros((0, 2)))
        assert costs.shape == (0,)

    def test_shape_mismatch(self, scalar_t2):
        with pytest.raises(ValueError, match="U must"):
            realized_costs(scalar_t2, np.zeros(2), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="S must"):
            realized_costs(scalar_t2, np.zeros((2, 2)), np.zeros((1, 2)))


def action_gap(batch, s_hat, s):
    """Action error caused by observing s_hat instead of s."""
    return solve_unconstrained(batch, s_hat) - solve_unconstrained(batch, s)


class TestActionGap:
    """The action error is the free Jacobian -K^{-1} L times the series error."""

    def test_identical_series(self, scalar_t2):
        s = np.array([0.3, -0.7])
        np.testing.assert_allclose(action_gap(scalar_t2, s, s), 0.0, atol=1e-15)

    def test_scalar_unit_error(self, scalar_t1):
        np.testing.assert_allclose(action_gap(scalar_t1, [1.0], [0.0]), [0.5])
        np.testing.assert_allclose(scalar_t1.free_jacobian @ [1.0], [0.5])

    def test_scaling(self, scalar_t1):
        np.testing.assert_allclose(action_gap(scalar_t1, [-2.0], [0.0]), [-1.0])
        np.testing.assert_allclose(scalar_t1.free_jacobian @ [-2.0], [-1.0])

    def test_equals_difference_of_solves(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            batch = batch_form(random_system(rng))
            s = rng.standard_normal(batch.p_total)
            s_hat = s + rng.standard_normal(batch.p_total)
            np.testing.assert_allclose(action_gap(batch, s_hat, s),
                                       batch.free_jacobian @ (s_hat - s), atol=1e-10)

    @given(alpha=st.floats(-5, 5), beta=st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, alpha, beta):
        batch = batch_form(make_scalar_spec(T=3))
        rng = np.random.default_rng(7)
        s = rng.standard_normal(3)
        d1 = rng.standard_normal(3)
        d2 = rng.standard_normal(3)
        combined = action_gap(batch, s + alpha * d1 + beta * d2, s)
        separate = (alpha * action_gap(batch, s + d1, s)
                    + beta * action_gap(batch, s + d2, s))
        np.testing.assert_allclose(combined, separate, atol=1e-10)
        np.testing.assert_allclose(
            combined, batch.free_jacobian @ (alpha * d1 + beta * d2), atol=1e-10)


class TestCostDeltaQuadratic:
    def test_identical_series(self, scalar_t1):
        assert cost_delta_quadratic(scalar_t1, [0.0], [0.0]) == 0.0

    def test_scalar_t1(self, scalar_t1):
        assert math.isclose(cost_delta_quadratic(scalar_t1, [2.0], [0.0]), 2.0,
                            rel_tol=1e-12)

    def test_scalar_t2_unit_first_coordinate(self, scalar_t2):
        value = cost_delta_quadratic(scalar_t2, [1.0, 0.0], [0.0, 0.0])
        assert math.isclose(value, 1.4, rel_tol=1e-12)

    def test_cost_consistency_with_rollout(self):
        # The quadratic form must equal the rollout-measured cost gap when the
        # controller plans on the perturbed series but is costed on the real one.
        rng = np.random.default_rng(41)
        for _ in range(30):
            spec = random_system(rng)
            batch = batch_form(spec)
            s = rng.standard_normal(batch.p_total)
            s_hat = s + rng.standard_normal(batch.p_total)
            gap = (rollout_cost(spec, solve_unconstrained(batch, s_hat), s)
                   - rollout_cost(spec, solve_unconstrained(batch, s), s))
            quad = cost_delta_quadratic(batch, s_hat, s)
            assert math.isclose(gap, quad, rel_tol=1e-8, abs_tol=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(42)
        batch = batch_form(random_system(rng))
        for _ in range(50):
            s = rng.standard_normal(batch.p_total)
            s_hat = s + rng.standard_normal(batch.p_total)
            assert cost_delta_quadratic(batch, s_hat, s) >= -1e-12


class TestOptimality:
    def test_unconstrained_solution_minimizes_rollout(self):
        rng = np.random.default_rng(51)
        spec = random_system(rng)
        batch = batch_form(spec)
        s = rng.standard_normal(batch.p_total)
        u_star = solve_unconstrained(batch, s)
        best = rollout_cost(spec, u_star, s)
        for _ in range(100):
            v = rng.standard_normal(u_star.size)
            v /= np.linalg.norm(v)
            assert best <= rollout_cost(spec, u_star + 1e-3 * v, s) + 1e-12


class TestSystemSpecValidation:
    def test_scalar_shorthand(self):
        spec = make_scalar_spec(T=5)
        assert spec.n == spec.m == spec.p == 1
        assert spec.A.shape == (1, 1)

    def test_rejects_asymmetric_q(self):
        with pytest.raises(ConfigurationError, match="symmetric"):
            SystemSpec(A=np.eye(2), B=np.eye(2), C=np.eye(2),
                       Q=[[1.0, 0.5], [0.0, 1.0]], R=np.eye(2), T=1,
                       x0=np.zeros(2))

    def test_rejects_indefinite_r(self):
        with pytest.raises(ConfigurationError, match="positive definite"):
            SystemSpec(A=1.0, B=1.0, C=1.0, Q=1.0, R=-1.0, T=1, x0=0.0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ConfigurationError, match="T"):
            make_scalar_spec(T=0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            SystemSpec(A=np.eye(2), B=np.ones((3, 1)), C=np.ones((2, 1)),
                       Q=np.eye(2), R=1.0, T=1, x0=np.zeros(2))

    @pytest.mark.parametrize("name,fields", [
        pytest.param("C", {"C": [[]]}, id="config-C"),
        pytest.param("B", {"B": [[]]}, id="config-B"),
        pytest.param("B", {"B": np.zeros((1, 0)), "R": np.zeros((0, 0))}, id="numpy-m0"),
        pytest.param("C", {"C": np.zeros((1, 0))}, id="numpy-p0"),
    ])
    def test_rejects_a_zero_width_gain(self, name, fields):
        # With no column in B (m = 0) or C (p = 0) the batch form has no
        # action or series block; the spec names the matrix instead.
        raw = dict(dict(A=1.0, B=-1.0, C=1.0, Q=1.0, R=1.0, T=3, x0=1.0), **fields)
        with pytest.raises(ConfigurationError,
                           match=f"^{name} must have at least one column$"):
            SystemSpec(**raw)

    def test_rejects_a_zero_state_system(self):
        # With n = 0 there is no state to cost; the spec names A instead of
        # failing on the empty Q.
        with pytest.raises(ConfigurationError, match="^A must have at least one row$"):
            SystemSpec(A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((0, 1)),
                       Q=np.zeros((0, 0)), R=np.eye(1), x0=np.zeros(0), T=5)

    def test_spec_is_immutable(self):
        spec = make_scalar_spec()
        with pytest.raises(AttributeError):
            spec.T = 7

    def test_keeps_its_own_copies(self):
        arrays = {name: np.array(value, dtype=float) for name, value in TWO_STATE.items()
                  if name != "T"}
        spec = SystemSpec(T=TWO_STATE["T"], **arrays)
        batch = batch_form(spec)
        cost = realized_costs(batch, np.zeros((1, batch.m_total)), np.ones((1, batch.p_total)))
        arrays["Q"][0, 0] = -1.0  # would fail the SPD check
        arrays["x0"][0] = 5.0
        for name, arr in arrays.items():
            assert not np.shares_memory(getattr(spec, name), arr)
        np.testing.assert_array_equal(spec.Q, TWO_STATE["Q"])
        np.testing.assert_array_equal(spec.x0, TWO_STATE["x0"])
        again = realized_costs(batch, np.zeros((1, batch.m_total)), np.ones((1, batch.p_total)))
        assert again.tobytes() == cost.tobytes()

    def test_arrays_are_read_only(self):
        spec = SystemSpec(**TWO_STATE)
        for arr in (spec.A, spec.B, spec.C, spec.Q, spec.R, spec.x0):
            assert arr.flags.c_contiguous and not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = -1.0

    def test_fortran_ordered_input_is_stored_c_ordered(self):
        A = np.asfortranarray([[0.9, 0.2], [0.0, 0.7]])
        spec = SystemSpec(**dict(TWO_STATE, A=A))
        assert spec.A.flags.c_contiguous
        assert batch_form(spec) is batch_form(SystemSpec(**TWO_STATE))
