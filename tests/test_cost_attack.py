import importlib
import math

import numpy as np
import pytest
import scipy.linalg

from tsattack import (
    ConstraintSet,
    TargetFunction,
    batch_form,
    cost_attack,
    cost_delta_quadratic,
    dominant_eigenpair,
    iterated_attack,
    random_sphere_attack,
)
from tsattack import lqr
from tsattack.cost_attack import _norms

from conftest import random_system


class TestDominantEigenpair:
    def test_identity_degenerate_top(self):
        # Every unit vector is an eigenvector; only the value is pinned.
        pair = dominant_eigenpair(np.eye(3))
        assert math.isclose(pair.lambda1, 1.0, rel_tol=1e-12)
        assert math.isclose(np.linalg.norm(pair.v1), 1.0, abs_tol=1e-12)
        residual = np.linalg.norm(np.eye(3) @ pair.v1 - pair.lambda1 * pair.v1)
        assert residual <= 1e-8 * (1 + pair.lambda1)

    def test_diagonal(self):
        pair = dominant_eigenpair(np.diag([2.0, 1.0]))
        assert math.isclose(pair.lambda1, 2.0, rel_tol=1e-12)
        np.testing.assert_allclose(pair.v1, [1.0, 0.0], atol=1e-12)

    def test_two_by_two_characteristic_polynomial(self, scalar_t2):
        # Oracle: lambda = (trace + sqrt(trace^2 - 4 det)) / 2 for 2x2.
        psi = scalar_t2.Psi
        trace, det = np.trace(psi), np.linalg.det(psi)
        oracle = 0.5 * (trace + math.sqrt(trace ** 2 - 4 * det))
        pair = dominant_eigenpair(psi)
        assert math.isclose(pair.lambda1, oracle, rel_tol=1e-12)
        assert math.isclose(pair.lambda1, 1.0 + math.sqrt(0.8), rel_tol=1e-6)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            dominant_eigenpair(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_canonical_sign_and_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            w = rng.standard_normal((6, 6))
            psi = w @ w.T
            pair = dominant_eigenpair(psi)
            assert pair.lambda1 >= 0
            assert math.isclose(np.linalg.norm(pair.v1), 1.0, abs_tol=1e-12)
            first = np.nonzero(np.abs(pair.v1) > 1e-12)[0][0]
            assert pair.v1[first] > 0
            residual = np.linalg.norm(psi @ pair.v1 - pair.lambda1 * pair.v1)
            assert residual <= 1e-8 * (1 + pair.lambda1)


class TestCostAttack:
    def test_scalar_t1_delta_two(self, scalar_t1):
        result = cost_attack(scalar_t1, [0.0], 2.0)
        np.testing.assert_allclose(result.s_hat, [2.0])
        assert math.isclose(result.attained, 2.0, rel_tol=1e-12)
        # The opposite step s - delta*v1 = 2s - s_hat attains the same increase.
        assert math.isclose(cost_delta_quadratic(scalar_t1, -result.s_hat, [0.0]),
                            2.0, rel_tol=1e-12)

    def test_small_delta_limit(self, scalar_t1):
        result = cost_attack(scalar_t1, [0.0], 1e-12)
        np.testing.assert_allclose(result.s_hat, [0.0], atol=2e-12)
        assert result.attained <= 1e-12

    def test_attained_is_delta_squared_lambda(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            batch = batch_form(random_system(rng))
            s = rng.standard_normal(batch.p_total)
            delta = float(rng.uniform(0.5, 3.0))
            result = cost_attack(batch, s, delta)
            expected = delta ** 2 * dominant_eigenpair(batch.Psi).lambda1
            assert math.isclose(result.attained, expected,
                                rel_tol=1e-8, abs_tol=1e-12)
            # Both signed steps realize the closed form: s_hat and 2s - s_hat.
            for s_hat in (result.s_hat, 2 * s - result.s_hat):
                assert math.isclose(cost_delta_quadratic(batch, s_hat, s), expected,
                                    rel_tol=1e-8, abs_tol=1e-12)
            assert result.norm_used <= delta * (1 + 1e-9)

    def test_checks_the_series_once_and_attains_the_closed_form(self, monkeypatch):
        calls = []
        check_series = lqr.check_series

        def counting(*args, **kwargs):
            calls.append(None)
            return check_series(*args, **kwargs)

        # The package re-exports the cost_attack function under the module's name.
        module = importlib.import_module("tsattack.cost_attack")
        for owner in (lqr, module):
            monkeypatch.setattr(owner, "check_series", counting)
        rng = np.random.default_rng(29)
        batch = batch_form(random_system(rng))
        s = rng.standard_normal(batch.p_total)
        delta = 1.7
        result = cost_attack(batch, s, delta)
        assert len(calls) == 1
        # delta * delta: delta ** 2 is a pow() that may round one ulp apart.
        assert result.attained == delta * delta * batch.eigenpair.lambda1
        np.testing.assert_array_equal(result.s_hat, s + delta * batch.eigenpair.v1)
        assert result.norm_used == float(np.linalg.norm(result.s_hat - s))

    def test_direction_independent_of_series_and_state(self):
        rng = np.random.default_rng(19)
        base = random_system(rng)
        other = type(base)(A=base.A, B=base.B, C=base.C, Q=base.Q, R=base.R,
                           T=base.T, x0=rng.standard_normal(base.n))
        delta = 1.7
        directions = []
        for spec in (base, other):
            batch = batch_form(spec)
            for _ in range(3):
                s = rng.standard_normal(batch.p_total)
                result = cost_attack(batch, s, delta)
                directions.append((result.s_hat - s) / delta)
        for direction in directions[1:]:
            np.testing.assert_allclose(direction, directions[0], atol=1e-10)

    def test_quadratic_scaling(self, scalar_t2):
        s = np.array([0.4, -0.2])
        small = cost_attack(scalar_t2, s, 0.7)
        large = cost_attack(scalar_t2, s, 2.1)
        assert math.isclose(large.attained / small.attained, 9.0, rel_tol=1e-9)

    def test_rejects_nonpositive_delta(self, scalar_t1):
        with pytest.raises(ValueError, match="delta"):
            cost_attack(scalar_t1, [0.0], 0.0)
        with pytest.raises(ValueError, match="delta"):
            cost_attack(scalar_t1, [0.0], -1.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_rejects_non_finite_delta(self, scalar_t1, delta):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            cost_attack(scalar_t1, [0.0], delta)


class TestRandomSphereAttack:
    def test_norm_equals_delta(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            s = rng.standard_normal(8)
            delta = float(rng.uniform(0.1, 5.0))
            result = random_sphere_attack(s, delta, seed=int(rng.integers(1 << 30)))
            assert math.isclose(np.linalg.norm(result.s_hat - s), delta,
                                rel_tol=1e-12)
            assert math.isclose(result.attained, delta ** 2, rel_tol=1e-12)

    def test_deterministic_given_seed(self):
        s = np.arange(5, dtype=float)
        a = random_sphere_attack(s, 1.0, seed=99)
        b = random_sphere_attack(s, 1.0, seed=99)
        c = random_sphere_attack(s, 1.0, seed=100)
        np.testing.assert_array_equal(a.s_hat, b.s_hat)
        assert not np.array_equal(a.s_hat, c.s_hat)

    def test_identity_sensitivity_attains_delta_squared(self, scalar_t1):
        # With an identity sensitivity matrix every direction is optimal.
        import dataclasses

        batch = dataclasses.replace(scalar_t1, Psi=np.eye(1))
        result = random_sphere_attack([0.0], 1.5, seed=1)
        value = cost_delta_quadratic(batch, result.s_hat, [0.0])
        assert math.isclose(value, 1.5 ** 2, rel_tol=1e-12)

    def test_rayleigh_bound(self):
        rng = np.random.default_rng(29)
        batch = batch_form(random_system(rng))
        lam = dominant_eigenpair(batch.Psi).lambda1
        s = rng.standard_normal(batch.p_total)
        delta = 2.0
        for seed in range(200):
            result = random_sphere_attack(s, delta, seed=seed)
            assert (cost_delta_quadratic(batch, result.s_hat, s)
                    <= delta ** 2 * lam + 1e-9)

    def test_never_beats_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            batch = batch_form(random_system(rng))
            s = rng.standard_normal(batch.p_total)
            delta = 1.3
            best = cost_attack(batch, s, delta)
            for seed in range(200):
                rand = random_sphere_attack(s, delta, seed=seed)
                assert (cost_delta_quadratic(batch, rand.s_hat, s)
                        <= best.attained + 1e-9)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError, match="delta"):
            random_sphere_attack([0.0], -0.5, seed=0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            random_sphere_attack([0.0], delta, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("attack", [
    pytest.param(lambda batch, s, delta: cost_attack(batch, s, delta), id="cost"),
    pytest.param(lambda batch, s, delta: random_sphere_attack(s, delta, seed=5),
                 id="random"),
    pytest.param(lambda batch, s, delta: iterated_attack(
        batch, ConstraintSet.empty(batch.m_total, batch.p_total), s, delta,
        TargetFunction.MAX_ACTION, steps=3), id="iterated"),
])
def test_norm_used_stays_finite_past_the_squared_overflow(scalar_t2, attack):
    # The sum of squares of a 1e200 step would overflow; its norm is taken
    # scaled, and no overflow warning is raised.
    result = attack(scalar_t2, np.array([0.4, -0.2]), 1e200)
    assert math.isclose(result.norm_used, 1e200, rel_tol=1e-12)


@pytest.mark.parametrize("budget", [1.0, 1e200])
def test_norms_are_each_rows_norm(budget):
    # Rows whose sum of squares is finite, overflows, is inf or is NaN:
    # below a budget of 1e150 each norm is np.linalg.norm of its row, and
    # the scaled BLAS norm where that overflows; from 1e150 always scaled.
    X = np.random.default_rng(7).standard_normal((6, 5))
    X[1] *= 1e160
    X[2, 3], X[3, 0] = math.inf, math.nan
    expected = []
    with np.errstate(over="ignore"):
        for x in X:
            norm = np.linalg.norm(x) if budget < 1e150 else math.inf
            expected.append(norm if norm != math.inf
                            else scipy.linalg.norm(x, check_finite=False))
        norms = _norms(X, budget)
    assert norms.tobytes() == np.array(expected).tobytes()
