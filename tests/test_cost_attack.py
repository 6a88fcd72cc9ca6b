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
from tsattack.config import parse_config
from tsattack.cost_attack import _checked_norms, _closed_forms, _norms, _random_spheres
from tsattack.experiments import attack_windows, load_windows, task_seed

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

    def test_batch_form_eigenpair_is_the_public_one(self):
        # The cached pair skips the public check and symmetrization: Psi is
        # symmetric as built, so 0.5 * (Psi + Psi') would change no bit.
        rng = np.random.default_rng(37)
        for _ in range(20):
            batch = batch_form(random_system(rng))
            pair = dominant_eigenpair(batch.Psi)
            assert batch.eigenpair.v1.tobytes() == pair.v1.tobytes()
            assert batch.eigenpair.lambda1 == pair.lambda1

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

    @pytest.mark.parametrize("s,message", [
        pytest.param([], "s must have at least one entry", id="empty"),
        pytest.param([1.0, math.nan, 2.0], "s contains non-finite entries", id="nan"),
        pytest.param([1.0, -math.inf], "s contains non-finite entries", id="inf"),
    ])
    def test_rejects_a_series_it_cannot_attack(self, s, message):
        # An empty series has no direction to draw (the redraw of a zero
        # draw would never end); a non-finite entry would reach s_hat.
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_sphere_attack(s, 1.0, seed=0)


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
        norms = _norms(X, np.full(len(X), budget))
    assert norms.tobytes() == np.array(expected).tobytes()


def random_sphere_reference(s, delta, rng):
    """The per-row random sphere: draw, redraw while the norm is below 1e-12,
    step delta along the normalized draw."""
    w = rng.standard_normal(s.size)
    norm = np.linalg.norm(w)
    while norm < 1e-12:
        w = rng.standard_normal(s.size)
        norm = np.linalg.norm(w)
    return s + delta * w / norm


class TestBlockAttacks:
    """Every row of a block attack is bit for bit the public one-row attack,
    each row with its own budget."""

    @staticmethod
    def _cases(seed):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            batch = batch_form(random_system(rng))
            S = rng.standard_normal((int(rng.integers(1, 9)), batch.p_total))
            yield rng, batch, S, rng.uniform(0.1, 4.0, len(S))

    def test_closed_form_rows(self):
        for _, batch, S, deltas in self._cases(41):
            S_hat, offsets, attained = _closed_forms(batch, S, deltas)
            assert S_hat.shape == offsets.shape == S.shape
            norms = _norms(offsets, deltas)
            for s, s_hat, norm, value, delta in zip(S, S_hat, norms.tolist(),
                                                    attained.tolist(), deltas.tolist()):
                one = cost_attack(batch, s, delta)
                assert s_hat.tobytes() == one.s_hat.tobytes()
                assert norm == one.norm_used
                assert value == one.attained

    def test_random_sphere_rows(self):
        for rng, _, S, deltas in self._cases(43):
            seeds = rng.integers(1 << 30, size=len(S)).tolist()
            S_hat, steps, attained = _random_spheres(S, deltas, seeds)
            norms = _norms(steps, deltas)
            for s, s_hat, norm, value, delta, seed in zip(
                    S, S_hat, norms.tolist(), attained.tolist(), deltas.tolist(), seeds):
                one = random_sphere_attack(s, delta, seed)
                assert s_hat.tobytes() == one.s_hat.tobytes()
                assert norm == one.norm_used
                assert value == one.attained
                reference = random_sphere_reference(s, delta, np.random.default_rng(seed))
                assert s_hat.tobytes() == reference.tobytes()

    def test_a_zero_draw_is_drawn_again_from_its_row_generator(self, monkeypatch):
        # The generators of seeds 2 and 3 draw zeros first; their rows step
        # along their generator's second draw, the other rows along the first.
        default_rng = np.random.default_rng

        class FirstDrawZero:
            def __init__(self, seed):
                self.rng, self.zero = default_rng(seed), seed in (2, 3)

            def standard_normal(self, *args, **kwargs):
                draw = self.rng.standard_normal(*args, **kwargs)
                if self.zero:
                    draw[...], self.zero = 0.0, False
                return draw

        S = np.random.default_rng(47).standard_normal((4, 6))
        seeds, deltas = [1, 2, 3, 4], np.full(4, 1.5)
        monkeypatch.setattr(np.random, "default_rng", FirstDrawZero)
        S_hat, steps, _ = _random_spheres(S, deltas, seeds)
        rows = [random_sphere_attack(s, 1.5, seed) for s, seed in zip(S, seeds)]
        monkeypatch.undo()
        norms = _norms(steps, deltas)
        for s, s_hat, norm, seed, one in zip(S, S_hat, norms.tolist(), seeds, rows):
            rng = default_rng(seed)
            if seed in (2, 3):
                rng.standard_normal(S.shape[1])  # the draw the stub zeroed
            assert s_hat.tobytes() == random_sphere_reference(s, 1.5, rng).tobytes()
            assert s_hat.tobytes() == one.s_hat.tobytes()
            assert norm == one.norm_used
            assert math.isclose(norm, 1.5, rel_tol=1e-12)

    @pytest.mark.parametrize("attack", [
        pytest.param(lambda batch, S, deltas: _closed_forms(batch, S, deltas), id="cost"),
        pytest.param(lambda batch, S, deltas: _random_spheres(S, deltas, [3, 4]), id="random"),
    ])
    def test_an_overflowing_block_fails_the_norm_check(self, scalar_t2, attack):
        # A step past the float range fails the norm check of its offsets
        # as AttackResult's check fails it.
        S = np.array([[1e308, -1e308], [0.5, 0.25]])
        deltas = np.full(2, 1e308)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="perturbation norm inf overflows at delta 1e\\+308"):
            _checked_norms(attack(scalar_t2, S, deltas)[1], deltas)

    @staticmethod
    def _closed_stage(deltas, count, seed):
        """The attack stage on a scalar T=2 LQR, whose closed block
        interleaves random and cost-adv rows at the given budgets: its
        config, windows and attacked block."""
        cfg = parse_config({"system": {"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 2,
                                       "x0": 1},
                            "deltas": deltas, "scenarios": ["random", "cost-adv"],
                            "dataset": {"kind": "arima", "count": count}, "seed": seed})
        batch = batch_form(cfg.system)
        windows = load_windows(cfg)
        S = np.array([window.values for window in windows])
        ids = [window.series_id for window in windows]
        return cfg, batch, windows, lambda: attack_windows(
            cfg, batch, ConstraintSet.empty(2, 2), ids, S)[1]

    @staticmethod
    def _one_row_attacks(cfg, batch, windows):
        """Each row of the stage's block attacked alone, in config order,
        with its task name; an attack that fails gives its error."""
        for d_idx, delta in enumerate(cfg.deltas):
            for scenario in cfg.scenarios:
                for w_idx, window in enumerate(windows):
                    name = f"window {window.series_id}, delta {delta}, scenario {scenario}"
                    try:
                        if scenario == "cost-adv":
                            yield name, cost_attack(batch, window.values, delta)
                        else:
                            yield name, random_sphere_attack(
                                window.values, delta, task_seed(cfg.seed, w_idx, d_idx))
                    except ValueError as exc:
                        yield name, exc

    def test_a_closed_block_keeps_each_rows_budget(self):
        # Budgets below and at or above the 1e150 switch to the scaled norm
        # share one closed block with random and cost-adv rows interleaved.
        cfg, batch, windows, stage = self._closed_stage([0.5, 2.0, 1e150, 1e200], 5, 9)
        block = stage()
        rows = list(self._one_row_attacks(cfg, batch, windows))
        assert len(rows) == len(block.S_hat) == 4 * 2 * 5
        for row, (_, one) in enumerate(rows):
            assert block.S_hat[row].tobytes() == one.s_hat.tobytes()
            assert block.norms[row] == one.norm_used
            assert block.attained[row] == one.attained

    def test_a_failed_norm_check_names_the_first_failing_row(self):
        # At 1e308 a random step overflows where its draw has an entry past
        # 1.79, so some windows fail and others do not, while every cost-adv
        # step keeps its budget.  The one norm check of the closed block
        # names the row whose one-row attack fails first in config order.
        cfg, batch, windows, stage = self._closed_stage([1.0, 1e308], 8, 5)
        with np.errstate(over="ignore"):
            rows = list(self._one_row_attacks(cfg, batch, windows))
            failed = [(name, one) for name, one in rows if isinstance(one, ValueError)]
            with pytest.raises(ValueError) as info:
                stage()
        name, error = failed[0]
        assert str(info.value) == f"{name}: {error}"
        assert not name.startswith(f"window {windows[0].series_id},")
        assert len(failed) < len(windows)  # some windows at 1e308 keep their budget
