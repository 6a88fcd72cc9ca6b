import csv
import importlib
import io
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tsattack import (
    ConfigurationError,
    NumericalError,
    SeriesWindow,
    TargetFunction,
    batch_form,
    calibrate_action_box,
    cost_attack,
    cost_delta_quadratic,
    dominant_eigenpair,
    emit_report,
    iterated_attack,
    load_config,
    parse_config,
    random_sphere_attack,
    realized_costs,
    rollout_cost,
    run_experiment,
    single_step_attack,
    solve_qp,
)
from tsattack import experiments, grad_attack, lqr, qp, report
from tsattack.config import SCENARIOS
from tsattack.cost_attack import _COL_INFEASIBLE, _FLAGS
from tsattack.experiments import (
    Record,
    ScenarioStats,
    SeriesDump,
    _paired_p_values,
    attack_windows,
    constraints_for,
    load_windows,
    task_seed,
)

from conftest import (active_rows, aggregate_oracle, assert_relative_close, assert_same_block,
                      pair_major, paired_p_values_oracle, per_pair_attack_stage, row_flags,
                      row_solution, solve_unconstrained)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE_CONFIG = {
    "system": {"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 12, "x0": 1},
    "deltas": [0.3, 1.0],
    "scenarios": ["cost-adv", "random"],
    "dataset": {"kind": "arima", "count": 12},
    "seed": 7,
}


TWO_STATE_SYSTEM = {
    "A": [[0.9, 0.2], [0.0, 0.7]], "B": [[1.0], [0.5]],
    "C": [[0.3, 0.0], [0.1, 1.0]], "Q": [[2.0, 0.5], [0.5, 1.0]],
    "R": 0.5, "T": 6, "x0": [1.0, -0.5],
}


def make_config(**overrides):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw.update(overrides)
    return parse_config(raw)


class TestConfigParsing:
    def test_scalar_shorthand_system(self):
        cfg = make_config()
        assert cfg.system.n == 1
        assert cfg.system.T == 12

    @pytest.mark.parametrize("overrides, message", [
        ({"out_dir": 123}, "out_dir must be a string, got 123"),
        ({"dataset": {"kind": "csv", "path": 5, "column": "load"}},
         "dataset path must be a string, got 5"),
        ({"dataset": {"kind": "csv", "path": "x.csv", "column": None}},
         "dataset column must be a string, got None"),
    ])
    def test_non_string_paths_rejected(self, overrides, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            make_config(**overrides)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            make_config(extra=1)

    def test_unknown_system_key_rejected(self):
        bad = dict(BASE_CONFIG["system"], D=2)
        with pytest.raises(ConfigurationError, match="unknown key"):
            make_config(system=bad)

    def test_deltas_must_ascend(self):
        with pytest.raises(ConfigurationError, match="ascending"):
            make_config(deltas=[1.0, 0.3])

    def test_deltas_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            make_config(deltas=[0.0, 1.0])

    def test_scenarios_required(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            make_config(scenarios=[])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            make_config(scenarios=["cost-adv", "fgsm"])

    def test_scenarios_must_be_a_list(self):
        # A string is not read as its characters ("unknown scenario 'r'").
        with pytest.raises(ConfigurationError,
                           match="^scenarios must be a list of scenario names, got 'random'$"):
            make_config(scenarios="random")

    @pytest.mark.parametrize("overrides, key", [
        ({"seed": -3}, "seed"),
        ({"dataset": {"kind": "arima", "count": 3, "seed": -1}}, "dataset seed"),
        ({"dataset": {"kind": "csv", "path": "x.csv", "column": "load"}, "seed": -1},
         "seed"),
    ])
    def test_negative_seeds_fail_at_parse_time(self, overrides, key):
        with pytest.raises(ConfigurationError, match=f"^{key} must be >= 0, got -"):
            make_config(**overrides)

    def test_csv_dataset_needs_path_and_column(self):
        with pytest.raises(ConfigurationError, match="path"):
            make_config(dataset={"kind": "csv"})

    def test_default_normalization_by_dataset(self, tmp_path):
        cfg = make_config()
        assert cfg.normalization == "none"
        csv_cfg = make_config(dataset={"kind": "csv", "path": "x.csv",
                                       "column": "load"})
        assert csv_cfg.normalization == "zscore-global"

    def test_attack_defaults(self):
        cfg = make_config()
        assert cfg.attack.mode == "iterated"
        assert cfg.attack.steps == 20
        assert cfg.attack.step_size is None

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.seed == 7

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_config(path)


class TestLoadWindows:
    def test_horizon_mismatch_rejected(self):
        # The window length is always p*T; a horizon key is not accepted.
        with pytest.raises(ConfigurationError, match="unknown key.*horizon"):
            make_config(dataset={"kind": "arima", "count": 3, "horizon": 5})

    def test_arima_defaults_to_pt(self):
        windows = load_windows(make_config())
        assert len(windows) == 12
        assert windows[0].values.size == 12


class TestCostExperiment:
    def test_closed_form_gap_per_window(self):
        # For the unconstrained controller the attacked-minus-original cost
        # must equal delta^2 * lambda_1 on every window.
        cfg = make_config()
        stats = run_experiment(cfg)
        lam = dominant_eigenpair(batch_form(cfg.system).Psi).lambda1
        adv = [r for r in stats.records if r.scenario == "cost-adv"]
        assert len(adv) == 12 * len(cfg.deltas)
        for record in adv:
            expected = record.delta ** 2 * lam
            assert math.isclose(record.j_adv - record.j_orig, expected,
                                rel_tol=1e-8, abs_tol=1e-10)

    def test_random_never_beats_closed_form(self):
        stats = run_experiment(make_config())
        by_key = {(r.series_id, r.delta, r.scenario): r for r in stats.records}
        for (sid, delta, scenario), record in by_key.items():
            if scenario != "random":
                continue
            adv = by_key[(sid, delta, "cost-adv")]
            assert record.j_adv <= adv.j_adv + 1e-9

    def test_aggregates_and_p_values_present(self):
        stats = run_experiment(make_config())
        assert len(stats.aggregates) == 2 * len((0.3, 1.0))
        deltas = {entry["delta"] for entry in stats.p_values}
        assert deltas == {0.3, 1.0}
        for entry in stats.p_values:
            assert entry["metric"] == "j_adv"
            assert 0.0 <= entry["p_value"] <= 1.0

    def test_deterministic_given_seed(self):
        a = run_experiment(make_config())
        b = run_experiment(make_config())
        assert a.records == b.records

    def test_unboxed_config_runs_every_scenario_on_the_lqr(self):
        # No box: the controller is the unconstrained LQR, and the gradient
        # scenarios attack it like the cost scenarios do.
        cfg = make_config(scenarios=["max-action", "cost-gradient", "random"],
                          dataset={"kind": "arima", "count": 4},
                          attack={"mode": "iterated", "steps": 3},
                          series_dump_limit=4)
        stats = run_experiment(cfg)
        batch = batch_form(cfg.system)
        assert len(stats.records) == 4 * len(cfg.deltas) * 3
        by_key = {(r.series_id, r.delta, r.scenario): r for r in stats.records}
        assert len(stats.series_dumps) == len(by_key)
        for dump in stats.series_dumps:
            record = by_key[(dump.series_id, dump.delta, dump.scenario)]
            if dump.scenario == "max-action":
                assert record.max_u_adv == float(
                    np.max(solve_unconstrained(batch, dump.attacked)))
            elif dump.scenario == "cost-gradient":
                assert "zero-gradient" in record.flags.split(";")

    @pytest.mark.parametrize("system", [BASE_CONFIG["system"], TWO_STATE_SYSTEM])
    def test_matches_per_record_reference_loop(self, system):
        cfg = make_config(system=system, deltas=[0.3, 1.0, 3.0],
                          series_dump_limit=3)
        stats = run_experiment(cfg)
        batch = batch_form(cfg.system)
        expected, dumps = [], []
        for w_idx, window in enumerate(load_windows(cfg)):
            s = window.values
            u_orig = solve_unconstrained(batch, s)
            j_orig = rollout_cost(cfg.system, u_orig, s)
            for d_idx, delta in enumerate(cfg.deltas):
                for scenario in ("cost-adv", "random"):
                    if scenario == "cost-adv":
                        result = cost_attack(batch, s, delta)
                    else:
                        result = random_sphere_attack(
                            s, delta, seed=task_seed(cfg.seed, w_idx, d_idx))
                    u_adv = solve_unconstrained(batch, result.s_hat)
                    expected.append((
                        (window.series_id, delta, scenario,
                         ";".join(sorted(result.flags))),
                        (j_orig, rollout_cost(cfg.system, u_adv, s),
                         float(np.max(u_orig)), float(np.max(u_adv)),
                         float(np.abs(u_orig).sum()), float(np.abs(u_adv).sum()),
                         result.norm_used),
                    ))
                    if w_idx < 3:
                        dumps.append(result.s_hat)
        assert len(stats.records) == len(expected)
        for record, (key, values) in zip(stats.records, expected):
            assert (record.series_id, record.delta, record.scenario,
                    record.flags) == key
            got = (record.j_orig, record.j_adv, record.max_u_orig,
                   record.max_u_adv, record.l1_orig, record.l1_adv,
                   record.norm_used)
            for a, b in zip(got, values):
                assert math.isclose(a, b, rel_tol=1e-10)
        assert len(stats.series_dumps) == len(dumps)
        for dump, s_hat in zip(stats.series_dumps, dumps):
            np.testing.assert_array_equal(dump.attacked, s_hat)

    @pytest.mark.usefixtures("fresh_forms")
    def test_one_eigenpair_per_experiment(self, monkeypatch):
        calls = []
        # The package re-exports the cost_attack function under the module's name.
        module = importlib.import_module("tsattack.cost_attack")
        top_eigenpair = module._top_eigenpair

        def counting(psi):
            calls.append(psi.shape)
            return top_eigenpair(psi)

        # One eigendecomposition per system: the eigenpair is cached on the
        # batch form, and batch_form hands an equal system the same form.
        monkeypatch.setattr(module, "_top_eigenpair", counting)
        cfg = make_config(deltas=[0.3, 1.0, 3.0])
        batch_form(cfg.system)
        assert calls == []  # building the form leaves the eigenpair lazy
        run_experiment(cfg)
        assert calls == [(12, 12)]
        run_experiment(make_config(seed=8))  # a new spec of the same system
        assert calls == [(12, 12)]
        run_experiment(make_config(system=dict(BASE_CONFIG["system"], Q=2)))
        assert calls == [(12, 12)] * 2
        # An experiment with no cost-adv scenario never uses the eigenpair.
        run_experiment(make_config(scenarios=["random"],
                                   system=dict(BASE_CONFIG["system"], Q=3)))
        assert calls == [(12, 12)] * 2

    def test_rejects_non_finite_window(self, monkeypatch):
        windows = load_windows(make_config())
        windows[3].values[5] = np.nan
        monkeypatch.setattr("tsattack.experiments.load_windows", lambda cfg: windows)
        with pytest.raises(ValueError, match="non-finite"):
            run_experiment(make_config())

    def test_rejects_window_whose_cost_overflows(self, monkeypatch):
        windows = load_windows(make_config())
        windows[3].values[5] = 1e200
        monkeypatch.setattr("tsattack.experiments.load_windows", lambda cfg: windows)
        with pytest.raises(ConfigurationError,
                           match=f"window {windows[3].series_id} is not finite"):
            run_experiment(make_config())


#: A state box whose feasible set moves with the series: some attacked
#: problems become infeasible.
STATE_BOX_OVERRIDES = {
    "system": {"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 10, "x0": 1},
    "scenarios": ["max-action", "l1", "random"],
    "deltas": [1.0, 3.0],
    "dataset": {"kind": "arima", "count": 3},
    "normalization": "zscore-global",
    "action_box": {"u_min": -2.0, "u_max": 2.0},
    "state_box": {"x_min": -0.25, "x_max": 0.25},
    "attack": {"mode": "iterated", "steps": 3},
    "seed": 4,
}


class TestConstraintExperiment:
    def _config(self, **overrides):
        return make_config(**{
            "scenarios": ["max-action", "l1", "random"],
            "action_box": "auto",
            "deltas": [0.5],
            "dataset": {"kind": "arima", "count": 8},
            "attack": {"mode": "iterated", "steps": 6},
            **overrides,
        })

    def test_records_and_flags(self):
        stats = run_experiment(self._config())
        assert len(stats.records) == 8 * 3
        for record in stats.records:
            assert record.scenario in ("max-action", "l1", "random")
            assert record.norm_used <= 0.5 * (1 + 1e-9)

    def test_attacks_move_their_own_metric(self):
        stats = run_experiment(self._config())
        by_key = {(r.series_id, r.scenario): r for r in stats.records}
        wins = 0
        for (sid, scenario), record in by_key.items():
            if scenario != "max-action":
                continue
            rand = by_key[(sid, "random")]
            wins += record.max_u_adv > rand.max_u_adv
        assert wins >= 6  # 8 windows; the targeted attack should dominate

    def test_boxed_config_runs_every_scenario(self):
        # The closed-form cost attack runs on the boxed controller too.
        cfg = make_config(scenarios=["cost-adv", "max-action", "random"],
                          deltas=[0.5], dataset={"kind": "arima", "count": 8},
                          action_box={"u_min": -2.0, "u_max": 2.0},
                          attack={"mode": "iterated", "steps": 6},
                          series_dump_limit=8)
        stats = run_experiment(cfg)
        assert sorted({r.scenario for r in stats.records}) == [
            "cost-adv", "max-action", "random"]
        assert len(stats.records) == 8 * 3
        v1 = batch_form(cfg.system).eigenpair.v1
        dumps = [d for d in stats.series_dumps if d.scenario == "cost-adv"]
        assert len(dumps) == 8
        for dump in dumps:
            np.testing.assert_array_equal(dump.attacked,
                                          dump.original + dump.delta * v1)

    def test_explicit_box_accepted(self):
        cfg = make_config(
            scenarios=["max-action", "random"],
            deltas=[0.5],
            dataset={"kind": "arima", "count": 4},
            action_box={"u_min": -3.0, "u_max": 3.0},
            attack={"mode": "single-step"},
        )
        stats = run_experiment(cfg)
        assert len(stats.records) == 8

    def test_huge_budget_collapses_onto_action_bound(self):
        # With a budget far beyond the box, the max-action attack drives
        # nearly every window onto u_max exactly (windows whose actions are
        # all pinned at a bound have a zero Jacobian and stall instead).
        cfg = make_config(
            system={"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 20, "x0": 1},
            deltas=[20.0],
            scenarios=["max-action"],
            dataset={"kind": "arima", "count": 10},
            action_box={"u_min": -2.0, "u_max": 2.0},
            attack={"mode": "iterated", "steps": 10},
            seed=5,
        )
        stats = run_experiment(cfg)
        values = np.array([r.max_u_adv for r in stats.records])
        assert np.all(values <= 2.0 + 1e-9)
        assert np.sum(np.abs(values - 2.0) <= 1e-9) >= 8

    def test_random_scenario_near_zero_at_small_delta(self):
        # Undirected noise at small delta should barely move the cost.
        cfg = make_config(
            system={"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 50, "x0": 1},
            deltas=[0.3],
            scenarios=["random"],
            dataset={"kind": "arima", "count": 30},
            action_box={"u_min": -1000.0, "u_max": 1000.0},
            seed=77,
        )
        stats = run_experiment(cfg)
        entry = stats.aggregates[0]
        assert entry["n_used_j"] == 30
        assert abs(entry["mean_pct_increase_j"]) <= 2.0

    def test_infeasible_clean_windows_fail_fast(self, monkeypatch):
        # Every clean problem is solved before any attack, and the error
        # names every infeasible window, not just the first.
        calls = []

        def attack(*args, **kwargs):
            calls.append(args)
            raise AssertionError("attack ran before the clean problems were checked")

        for name in ("_closed_forms", "_random_spheres", "_ascend_rows"):
            monkeypatch.setattr(f"tsattack.experiments.{name}", attack)
        boxes = {"action_box": {"u_min": -0.01, "u_max": 0.01},
                 "state_box": {"x_min": -0.25, "x_max": 0.25}}
        cfg = make_config(
            system={"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 20, "x0": 1},
            scenarios=["max-action", "random"],
            deltas=[0.5],
            dataset={"kind": "arima", "count": 4},
            seed=3,
            **boxes,
        )
        with pytest.raises(ConfigurationError, match="infeasible") as info:
            run_experiment(cfg)
        for window in load_windows(cfg):
            assert window.series_id in str(info.value)
        assert calls == []
        # The patched names are the attacks the stage runs: without the
        # boxes the clean windows pass and the first attack raises.
        with pytest.raises(AssertionError, match="attack ran before"):
            run_experiment(parse_config({key: value for key, value in cfg.raw.items()
                                         if key not in boxes}))
        assert calls

    @pytest.mark.parametrize("overrides", [
        {   # calibrated action box, single-step attacks on every target
            "scenarios": ["max-action", "min-action", "l1", "cost-gradient",
                          "random"],
            "deltas": [0.5, 2.0],
            "dataset": {"kind": "arima", "count": 5},
            "action_box": "auto",
            "attack": {"mode": "single-step"},
        },
        STATE_BOX_OVERRIDES,
        dict(STATE_BOX_OVERRIDES,  # n = 2 through the state box and the costs
             system=TWO_STATE_SYSTEM,
             action_box={"u_min": -3.0, "u_max": 3.0},
             state_box={"x_min": -2.5, "x_max": 2.5}),
    ])
    def test_matches_per_record_reference_loop(self, overrides):
        cfg = make_config(**dict(overrides, series_dump_limit=2))
        stats = run_experiment(cfg)
        batch = batch_form(cfg.system)
        windows = load_windows(cfg)
        cons = constraints_for(cfg, batch, np.array([w.values for w in windows]))
        expected, dumps = [], []
        for w_idx, window in enumerate(windows):
            s = window.values
            u_orig = solve_qp(batch, cons, s).u
            j_orig = rollout_cost(cfg.system, u_orig, s)
            for d_idx, delta in enumerate(cfg.deltas):
                for scenario in cfg.scenarios:
                    if scenario == "random":
                        result = random_sphere_attack(
                            s, delta, seed=task_seed(cfg.seed, w_idx, d_idx))
                    elif cfg.attack.mode == "single-step":
                        result = single_step_attack(
                            batch, cons, s, delta, TargetFunction(scenario))
                    else:
                        result = iterated_attack(
                            batch, cons, s, delta, TargetFunction(scenario),
                            steps=cfg.attack.steps, step_size=cfg.attack.step_size)
                    flags = set(result.flags)
                    attacked = None
                    if "infeasible" not in flags:
                        attacked = solve_qp(batch, cons, result.s_hat)
                        if not attacked.optimal:
                            flags.add("infeasible")
                    if "infeasible" in flags:
                        adv = (math.inf, math.nan, math.nan)
                    else:
                        u_adv = attacked.u
                        adv = (rollout_cost(cfg.system, u_adv, s),
                               float(np.max(u_adv)), float(np.abs(u_adv).sum()))
                    expected.append((
                        (window.series_id, delta, scenario, ";".join(sorted(flags))),
                        (j_orig, adv[0], float(np.max(u_orig)), adv[1],
                         float(np.abs(u_orig).sum()), adv[2], result.norm_used),
                    ))
                    if w_idx < 2:
                        dumps.append(result.s_hat)
        if "state_box" in overrides:
            assert any("infeasible" in key[3] for key, _ in expected)
        assert len(stats.records) == len(expected)
        for record, (key, values) in zip(stats.records, expected):
            assert (record.series_id, record.delta, record.scenario,
                    record.flags) == key
            got = (record.j_orig, record.j_adv, record.max_u_orig,
                   record.max_u_adv, record.l1_orig, record.l1_adv,
                   record.norm_used)
            for a, b in zip(got, values):
                assert (math.isnan(a) and math.isnan(b)) or math.isclose(
                    a, b, rel_tol=1e-10)
        assert len(stats.series_dumps) == len(dumps)
        for dump, s_hat in zip(stats.series_dumps, dumps):
            np.testing.assert_array_equal(dump.attacked, s_hat)

    def test_reruns_compare_equal_with_infeasible_outcomes(self):
        # Infeasible records carry NaN action metrics; reruns still compare equal.
        cfg = make_config(**STATE_BOX_OVERRIDES)
        first, second = run_experiment(cfg), run_experiment(cfg)
        assert any("infeasible" in r.flags for r in first.records)
        assert first.records == second.records

    def test_records_with_separately_made_nans_compare_equal(self):
        # NaN fields compare by value: no shared NaN object is needed.
        def infeasible(l1_orig=1.0):
            return Record("w0", 1.0, "max-action", 2.0, math.inf, 0.5, float("nan"),
                          -0.5, float("nan"), l1_orig, float("nan"), 1.0, "infeasible")

        first, second = infeasible(), infeasible()
        assert first.max_u_adv is not second.max_u_adv
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != infeasible(l1_orig=1.5)

    def test_zero_gradient_scenario_flagged(self):
        cfg = make_config(
            scenarios=["cost-gradient", "random"],
            deltas=[0.5],
            dataset={"kind": "arima", "count": 4},
            action_box={"u_min": -100.0, "u_max": 100.0},
            attack={"mode": "single-step"},
        )
        stats = run_experiment(cfg)
        for record in stats.records:
            if record.scenario == "cost-gradient":
                assert "zero-gradient" in record.flags
                assert record.norm_used == 0.0


    def test_failure_stops_the_stage_at_its_task(self, monkeypatch):
        # Window 1 fails at the first delta and window 0 at the second.  The
        # random pairs' attacked series are solved as one block, pair by pair
        # in config order, before the l1 ascent; the l1 pairs ascend as one
        # block, and its single step solves its rows in config order.  Either
        # way the first failure stops the stage: the error names window 1 at
        # the first delta, and window 0 at the second delta is never solved.
        # Every solve of these series runs the dual active set (the box holds
        # u_0 below its unconstrained optimum), and each failure is forced on
        # the first candidate of its task.
        base = np.full(10, 20.0)
        values = [base, base + 10.0 * np.eye(10)[9]]
        windows = [SeriesWindow(values=v, source_id=f"w{i}", start_index=0)
                   for i, v in enumerate(values)]
        monkeypatch.setattr("tsattack.experiments.load_windows", lambda cfg: windows)
        dual_active_set = qp._dual_active_set
        forced = []

        def failing(cache, u, rhs, tol, warm=()):
            # u = -K^-1 (k_const + L s), the unconstrained optimum of s.
            batch = cache.batch
            s = np.linalg.solve(batch.L, -batch.K @ u - batch.k_const)
            for w_idx, delta in ((1, 0.5), (0, 3.0)):
                if abs(np.linalg.norm(s - values[w_idx]) - delta) < 1e-6:
                    forced.append((w_idx, delta))
                    raise NumericalError(f"forced at window {w_idx}")
            return dual_active_set(cache, u, rhs, tol, warm)

        monkeypatch.setattr(qp, "_dual_active_set", failing)
        for scenarios, named in ((["l1", "random"], "random"), (["l1"], "l1")):
            forced.clear()
            cfg = make_config(
                system={"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 10, "x0": 1},
                scenarios=scenarios,
                deltas=[0.5, 3.0],
                normalization="none",
                action_box={"u_min": -100.0, "u_max": 20.3},
                attack={"mode": "iterated", "steps": 3},
            )
            with pytest.raises(NumericalError, match=r"^window w1:000000, delta 0\.5, "
                               f"scenario {named}: forced at window 1$"):
                run_experiment(cfg)
            assert forced == [(1, 0.5)]

    def test_gradient_attacks_are_not_solved_again(self, monkeypatch):
        # Outside the attacks, the pipeline solves the windows once as the
        # calibration block of the auto box, then each clean window and each
        # random row once; a gradient attack hands back the actions it solved.
        solved = []

        def recording(batch, cons, S_obs, names=None, warm=None, cache=None):
            solved.extend(np.array(s_obs, dtype=float) for s_obs in S_obs)
            return solve_rows(batch, cons, S_obs, names, warm, cache)

        solve_rows = importlib.import_module("tsattack.experiments")._solve_rows
        monkeypatch.setattr("tsattack.experiments._solve_rows", recording)
        cfg = self._config(series_dump_limit=8)
        stats = run_experiment(cfg)
        windows = [w.values for w in load_windows(cfg)]
        expected = windows + windows + [
            d.attacked for d in stats.series_dumps if d.scenario == "random"]
        assert len(solved) == len(expected) == 24
        for got, want in zip(solved, expected):
            np.testing.assert_array_equal(got, want)

    def test_cost_gradient_record_is_the_attained_cost(self):
        # The records and the cost-gradient target take their costs from the
        # one realized-cost kernel, so each record's j_adv is its attack's
        # attained value, bit for bit.
        cfg = self._config(system=dict(BASE_CONFIG["system"], T=50),
                           scenarios=["cost-gradient"], deltas=[0.5, 1.0, 2.0],
                           dataset={"kind": "arima", "count": 20}, seed=2024)
        batch = batch_form(cfg.system)
        windows = load_windows(cfg)
        S = np.array([w.values for w in windows])
        _, block = attack_windows(cfg, batch, constraints_for(cfg, batch, S),
                                  [w.series_id for w in windows], S)
        records = run_experiment(cfg).records
        W = len(windows)
        assert len(records) == len(block.S_hat) == 60
        # Records run window-major: (window, delta, scenario); the block's
        # rows run pair-major, pair after pair in config order.
        tasks = [(w_idx, delta, block.attained[d_idx * W + w_idx]) for w_idx in range(W)
                 for d_idx, delta in enumerate(cfg.deltas)]
        for record, (w_idx, delta, attained) in zip(records, tasks):
            assert (record.series_id, record.delta) == (windows[w_idx].series_id, delta)
            assert record.j_adv == attained

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_attack_windows_results(self, scenario):
        # The block holds one row per window within each delta, delta after
        # delta, as arrays; cost-adv steps along v1 and random draws from
        # its own (window, delta) seed.
        cfg = self._config(scenarios=[scenario], deltas=[0.5, 1.0])
        batch = batch_form(cfg.system)
        windows = load_windows(cfg)
        S = np.array([w.values for w in windows])
        U_orig, block = attack_windows(cfg, batch, constraints_for(cfg, batch, S),
                                       [w.series_id for w in windows], S)
        W = len(S)
        assert U_orig.shape == (W, batch.m_total)
        assert [part.shape for part in block] == [
            (2 * W, S.shape[1]), (2 * W, batch.m_total), (2 * W,), (2 * W,), (2 * W, 4)]
        assert block.flags.dtype == bool
        for d_idx, delta in enumerate(cfg.deltas):
            S_hat, U_hat, attained, norms, flags = (part[d_idx * W:(d_idx + 1) * W]
                                                    for part in block)
            assert (norms <= delta * (1.0 + 1e-9)).all()
            for w_idx, s in enumerate(S):
                assert math.isclose(norms[w_idx], np.linalg.norm(S_hat[w_idx] - s),
                                    rel_tol=1e-12, abs_tol=1e-15)
                if scenario == "cost-adv":
                    np.testing.assert_array_equal(S_hat[w_idx],
                                                  s + delta * batch.eigenpair.v1)
                    assert attained[w_idx] == delta * delta * batch.eigenpair.lambda1
                elif scenario == "random":
                    seed = task_seed(cfg.seed, w_idx, cfg.deltas.index(delta))
                    np.testing.assert_array_equal(
                        S_hat[w_idx], random_sphere_attack(s, delta, seed).s_hat)

    def test_record_flags_join_their_columns_in_sorted_order(self):
        # Upper bounds at the window's unconstrained actions hold every
        # action at a bound with a zero dual: the max-action attack is
        # weakly active, and stalls, since no held action moves with the
        # series.  The record joins both flags in sorted name order.
        cfg = self._config(system=dict(BASE_CONFIG["system"], T=4), scenarios=["max-action"],
                           deltas=[0.5], dataset={"kind": "arima", "count": 1})
        (window,) = load_windows(cfg)
        u = solve_unconstrained(batch_form(cfg.system), window.values)
        cfg = parse_config(dict(cfg.raw, action_box={"u_min": -100.0, "u_max": u.tolist()}))
        (record,) = run_experiment(cfg).records
        assert record.flags == "weak-active;zero-gradient"
        assert _FLAGS == tuple(sorted(_FLAGS))

    def test_infeasible_records_share_one_nan(self):
        # perfbench compares lists of raw record fields, where NaNs match
        # only by identity: every infeasible record's action metrics are the
        # one math.nan, so two runs' lists compare equal.
        cfg = make_config(system=dict(BASE_CONFIG["system"], T=10), deltas=[10.0],
                          scenarios=["cost-adv", "random"],
                          dataset={"kind": "arima", "count": 4}, seed=3,
                          normalization="zscore-global",
                          action_box={"u_min": -4.5, "u_max": 4.5},
                          state_box={"x_min": -0.5, "x_max": 0.5})
        first, second = (run_experiment(cfg).records for _ in range(2))
        infeasible = [r for r in first if r.j_adv == math.inf]
        assert len(infeasible) == 6
        assert {id(v) for r in infeasible for v in (r.max_u_adv, r.min_u_adv, r.l1_adv)} == {
            id(infeasible[0].max_u_adv)}
        assert [list(vars(r).values()) for r in first] == [list(vars(r).values())
                                                          for r in second]

    def test_every_result_leaves_the_stage_answered(self):
        # Under a +-0.5 state box a budget of 10 makes 3 of the 4 windows'
        # cost-adv and random answers infeasible.  Every row of the block
        # carries the controller's answer on its attacked series, and that
        # answer is NaN exactly when the row is flagged infeasible.  A
        # cost-adv or random answer is bit for bit its own solve
        # warm-started on the clean window's working set, a gradient answer
        # that of the window's attack alone; the cold solve agrees with
        # each: the same status and active rows, and u within a relative
        # 1e-12.
        cfg = make_config(system=dict(BASE_CONFIG["system"], T=10), deltas=[10.0],
                          scenarios=list(SCENARIOS), dataset={"kind": "arima", "count": 4},
                          seed=3, normalization="zscore-global",
                          action_box={"u_min": -4.5, "u_max": 4.5},
                          state_box={"x_min": -0.5, "x_max": 0.5},
                          attack={"mode": "iterated", "steps": 5})
        batch = batch_form(cfg.system)
        windows = load_windows(cfg)
        S = np.array([w.values for w in windows])
        cons = constraints_for(cfg, batch, S)
        _, block = attack_windows(cfg, batch, cons, [w.series_id for w in windows], S)
        W = len(S)
        assert len(block.S_hat) == len(SCENARIOS) * W
        for p, scenario in enumerate(SCENARIOS):
            S_hat, U_hat, _, _, flags = (part[p * W:(p + 1) * W] for part in block)
            infeasible = 0
            for window, s_hat, u_hat, flagged in zip(windows, S_hat, U_hat, flags):
                s = window.values
                if scenario in ("cost-adv", "random"):
                    answer = row_solution(qp._solve_rows(
                        batch, cons, s_hat[None], warm=solve_qp(batch, cons, s).mu[None])).u
                else:
                    answer = iterated_attack(batch, cons, s, 10.0, TargetFunction(scenario),
                                             steps=5).u_hat
                cold = solve_qp(batch, cons, s_hat)
                assert np.isnan(u_hat).all() == ("infeasible" in row_flags(flagged))
                assert np.isnan(u_hat).all() == (answer is None) == (cold.u is None)
                if cold.u is None:
                    infeasible += 1
                    continue
                assert u_hat.tobytes() == answer.tobytes()
                assert cold.active == active_rows(cons, s_hat, u_hat)
                assert_relative_close(u_hat, cold.u, 1e-12)
            if scenario in ("cost-adv", "random"):
                assert infeasible == 3

    def test_few_nonzero_differences_get_no_p_value(self):
        # 8 finite pairs of max-action vs random with 1 to 4 nonzero
        # differences are too few for the signed-rank test and get no
        # p-value; none gives the degenerate p = 1, five to eight a real test.
        # Outcome table rows are (j, max_u, min_u, l1) per window.
        random = np.tile([1.0, 0.5, 0.0, 1.0], (8, 1))
        for nonzero in range(9):
            max_action = random.copy()
            max_action[:nonzero, 1] += 0.1 * np.arange(1, nonzero + 1)
            rows = _paired_p_values([1.0], ["max-action", "random"],
                                    {(1.0, "max-action"): max_action, (1.0, "random"): random})
            if 0 < nonzero < 5:
                assert rows == []
            else:
                assert [(row["metric"], row["n"], row["degenerate"])
                        for row in rows] == [("max_u_adv", nonzero, nonzero == 0)]

    def test_pinned_actions_equal_the_bound_bitwise(self):
        # The +-0.2 box pins every action of these windows: each solve sets
        # a pinned action to the bound itself, so the max-action and random
        # records agree exactly (no rounding noise posing as a difference)
        # and the signed-rank test is the degenerate p = 1.
        cfg = make_config(
            system={"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 20, "x0": 1},
            scenarios=["max-action", "random"],
            deltas=[1.0],
            dataset={"kind": "arima", "count": 8},
            action_box={"u_min": -0.2, "u_max": 0.2},
            attack={"mode": "iterated", "steps": 5},
            seed=3,
        )
        stats = run_experiment(cfg)
        assert len(stats.records) == 16
        for r in stats.records:
            assert r.max_u_orig in (0.2, -0.2)
            assert r.max_u_adv == r.max_u_orig
        assert [(row["n"], row["p_value"]) for row in stats.p_values] == [(0, 1.0)]

    def test_shipped_state_box_config_drives_infeasibility(self):
        # The state-box infeasibility attack end to end: gradient attacks
        # end infeasible more often than random directions of equal norm.
        cfg = load_config(CONFIGS / "arima_statebox.json")
        stats = run_experiment(cfg)
        infeasible = {"max-action": 0, "min-action": 0, "random": 0}
        for record in stats.records:
            assert record.norm_used <= record.delta * (1 + 1e-9)
            infeasible[record.scenario] += "infeasible" in record.flags
        assert infeasible["max-action"] > infeasible["random"]
        assert infeasible["min-action"] > infeasible["random"]

    def test_min_action_reports_and_tests_the_minimum(self):
        cfg = make_config(
            scenarios=["min-action", "random"],
            action_box="auto",
            deltas=[0.5],
            dataset={"kind": "arima", "count": 8},
            attack={"mode": "iterated", "steps": 6},
            series_dump_limit=8,
        )
        stats = run_experiment(cfg)
        assert [row["metric"] for row in stats.p_values] == ["min_u_adv"]
        batch = batch_form(cfg.system)
        cons = constraints_for(cfg, batch, np.array([w.values for w in load_windows(cfg)]))
        by_key = {(r.series_id, r.delta, r.scenario): r for r in stats.records}
        assert len(stats.series_dumps) == len(by_key) == 16
        for dump in stats.series_dumps:
            record = by_key[(dump.series_id, dump.delta, dump.scenario)]
            u_orig = solve_qp(batch, cons, dump.original).u
            u_adv = solve_qp(batch, cons, dump.attacked).u
            assert record.min_u_orig == float(np.min(u_orig))
            assert record.min_u_adv == float(np.min(u_adv))
        wins = sum(by_key[(sid, delta, "min-action")].min_u_adv
                   < by_key[(sid, delta, "random")].min_u_adv
                   for sid, delta, scenario in by_key if scenario == "random")
        assert wins >= 6  # 8 windows; the targeted attack should dominate


def _csv_dataset_config(tmp_path):
    path = tmp_path / "load.csv"
    values = 100.0 + 10.0 * np.random.default_rng(5).standard_normal(150)
    path.write_text("load\n" + "".join(f"{v!r}\n" for v in values.tolist()),
                    encoding="utf-8")
    return make_config(dataset={"kind": "csv", "path": str(path), "column": "load"},
                       scenarios=["cost-adv", "l1", "random"], action_box="auto",
                       attack={"mode": "iterated", "steps": 3})


class TestLockstepStage:
    """The attack stage stacks every gradient (delta, scenario) pair into one
    ascent and every cost-adv and random pair into one solve; its one block
    is bit for bit the blocks of the pairs run on their own, stacked pair
    after pair in config order."""

    CONTROLLERS = {
        "lqr": {},
        "auto-box": {"action_box": "auto"},
        "state-box": {"normalization": "zscore-global",
                      "action_box": {"u_min": -4.5, "u_max": 4.5},
                      "state_box": {"x_min": -0.5, "x_max": 0.5}},
    }
    MODES = {
        "single-step": {"mode": "single-step"},
        "iterated": {"mode": "iterated", "steps": 5},
        "iterated-step-size": {"mode": "iterated", "steps": 4, "step_size": 0.2},
    }

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("controller", list(CONTROLLERS))
    def test_every_block_is_the_per_pair_block(self, controller, mode):
        # The scenarios interleave gradient and closed-form pairs, so each
        # row mask must put the pairs' rows at their own place in the block.
        cfg = make_config(system=dict(BASE_CONFIG["system"], T=10), deltas=[0.3, 1.0, 10.0],
                          scenarios=["max-action", "cost-adv", "l1", "random", "min-action",
                                     "cost-gradient"],
                          dataset={"kind": "arima", "count": 4}, seed=3,
                          attack=self.MODES[mode], **self.CONTROLLERS[controller])
        assert sorted(cfg.scenarios) == sorted(SCENARIOS)
        batch = batch_form(cfg.system)
        windows = load_windows(cfg)
        ids = [w.series_id for w in windows]
        S = np.array([w.values for w in windows])
        cons = constraints_for(cfg, batch, S)
        U_orig, block = attack_windows(cfg, batch, cons, ids, S)
        want_U, want = per_pair_attack_stage(cfg, batch, cons, ids, S)
        assert U_orig.tobytes() == want_U.tobytes()
        assert list(want) == [(delta, scenario) for delta in cfg.deltas
                              for scenario in cfg.scenarios]
        assert_same_block(block, pair_major(want))
        W = len(S)
        infeasible = {scenario for p, (_, scenario) in enumerate(want)
                      if block.flags[p * W:(p + 1) * W, _COL_INFEASIBLE].any()}
        assert infeasible == (set(SCENARIOS) if controller == "state-box" else set())

    @pytest.mark.parametrize("scenarios", [list(SCENARIOS), ["random", "max-action"],
                                           ["cost-adv", "l1"]])
    def test_each_closed_form_is_one_call(self, monkeypatch, scenarios):
        # However many deltas, the cost-adv rows are one block call, the
        # random rows another and all their norms one check; a helper whose
        # scenario is absent is not called.
        experiments = importlib.import_module("tsattack.experiments")
        calls = []

        def counting(name):
            helper = getattr(experiments, name)

            def counted(*args):
                calls.append(name)
                return helper(*args)
            return counted

        for name in ("_closed_forms", "_random_spheres", "_checked_norms"):
            monkeypatch.setattr(experiments, name, counting(name))
        run_experiment(make_config(deltas=[0.3, 1.0, 3.0], scenarios=scenarios,
                                   attack={"mode": "iterated", "steps": 2}))
        expected = [name for name, scenario in (("_closed_forms", "cost-adv"),
                                                ("_random_spheres", "random"))
                    if scenario in scenarios]
        assert calls == expected + ["_checked_norms"]

    def test_a_failed_norm_check_in_the_ascent_names_its_task(self, monkeypatch):
        # A projection that overshoots the ball puts an iterate at 20 times
        # its step, past its budget.  The row fails its norm check as it
        # finishes, and the error names the row's window, delta and scenario.
        project_ball = grad_attack.project_ball

        def overshoot(x, center, radius):
            return center + 20.0 * (project_ball(x, center, radius) - center)

        monkeypatch.setattr(grad_attack, "project_ball", overshoot)
        cfg = make_config(scenarios=["random", "l1", "max-action"],
                          attack={"mode": "iterated", "steps": 3})
        with pytest.raises(ValueError, match=r"^window arima:000002, delta 0\.3, scenario l1: "
                                             r"perturbation norm 5\.99\d* exceeds delta 0\.3$"):
            run_experiment(cfg)


    def test_each_working_set_and_adjoint_key_is_worked_once_per_stage(self, monkeypatch):
        # The state_box benchmark's shape (T = 50, two z-scored windows, a
        # +-0.25 state box, a +-4.5 action box, 5 iterated steps), with every
        # scenario.  Every solve and adjoint of the run share the stage's one
        # cache: each ordered working set is factored once however often it
        # is offered, and each (active rows, gradient) pair takes one
        # _adjoint however many rows ask for it.
        offered, factored, asked, adjoined = [], [], [], []
        qr, cached_qr, adjoint, adjoints = (qp._qr, qp._StageCache.qr, grad_attack._adjoint,
                                            grad_attack._adjoints)

        def offering(cache, work):
            offered.append((id(cache), tuple(work)))
            return cached_qr(cache, work)

        def asking(batch, cons, active, grads, cache=None):
            asked.append((id(cache), int(active.any(axis=1).sum())))
            return adjoints(batch, cons, active, grads, cache)

        monkeypatch.setattr(qp, "_qr", lambda B: factored.append(B.tobytes()) or qr(B))
        monkeypatch.setattr(qp._StageCache, "qr", offering)
        monkeypatch.setattr(grad_attack, "_adjoints", asking)
        monkeypatch.setattr(grad_attack, "_adjoint", lambda batch, cons, rows, g: (
            adjoined.append((tuple(rows), g.tobytes())) or adjoint(batch, cons, rows, g)))
        run_experiment(make_config(
            system=dict(BASE_CONFIG["system"], T=50), deltas=[0.3, 1.0, 3.0],
            scenarios=list(SCENARIOS), dataset={"kind": "arima", "count": 2}, seed=2024,
            normalization="zscore-global", action_box={"u_min": -4.5, "u_max": 4.5},
            state_box={"x_min": -0.25, "x_max": 0.25},
            attack={"mode": "iterated", "steps": 5}))
        assert len({stage for stage, _ in offered + asked}) == 1
        assert len(factored) == len({work for _, work in offered}) < len(offered)
        assert len(set(factored)) == len(factored)
        assert len(set(adjoined)) == len(adjoined) < sum(rows for _, rows in asked)


class TestEvaluationMatchesTheRecordOracle:
    """The aggregates and p-values, computed per pair from the outcome tables,
    equal the record-by-record reference exactly: values, order and types."""

    @pytest.mark.parametrize("case", ["shipped-cost", "state-box", "no-random", "csv"])
    def test_aggregates_and_p_values(self, case, tmp_path):
        if case == "shipped-cost":
            cfg = load_config(CONFIGS / "arima_cost.json")
        elif case == "state-box":
            # Budgets of 4 to 10 under a +-0.5 state box: some pairs are
            # partly infeasible, some wholly, and some lose their p-value.
            cfg = make_config(system=dict(BASE_CONFIG["system"], T=10),
                              deltas=[4.0, 6.0, 10.0],
                              scenarios=["max-action", "min-action", "cost-gradient", "random"],
                              seed=3, normalization="zscore-global",
                              action_box={"u_min": -4.5, "u_max": 4.5},
                              state_box={"x_min": -0.5, "x_max": 0.5},
                              attack={"mode": "iterated", "steps": 5})
        elif case == "no-random":
            cfg = make_config(scenarios=["cost-adv", "max-action"],
                              attack={"mode": "iterated", "steps": 3})
        else:
            cfg = _csv_dataset_config(tmp_path)
        stats = run_experiment(cfg)
        expected_aggregates = aggregate_oracle(stats.records)
        expected_p_values = paired_p_values_oracle(stats.records, cfg.scenarios)
        assert list(stats.aggregates) == expected_aggregates
        assert list(stats.p_values) == expected_p_values
        # json.dumps writes each float's repr and rejects a numpy integer.
        assert json.dumps(stats.aggregates) == json.dumps(expected_aggregates)
        assert json.dumps(stats.p_values) == json.dumps(expected_p_values)
        infeasible = sum(entry["n_infeasible"] for entry in stats.aggregates)
        if case == "state-box":
            assert infeasible > 0
            assert any(entry["mean_pct_increase_j"] is None for entry in stats.aggregates)
            assert 0 < len(stats.p_values) < 9
        else:
            assert infeasible == 0
            assert (stats.p_values == ()) == (case == "no-random")


@pytest.mark.parametrize("deltas,scenarios", [
    ([1.0], ["cost-adv"]),
    ([0.3, 1.0], ["max-action", "random"]),
    ([0.3, 1.0, 3.0], list(SCENARIOS)),
])
def test_every_attacked_row_is_costed_in_one_call(monkeypatch, deltas, scenarios):
    # One outcome table (each metric's block function, the cost kernel
    # included, called once) for the clean windows and one for every
    # attacked row of every (delta, scenario) pair, and the real series'
    # responses N s computed once per run, for the W windows, however many pairs.
    costed, responses = [], []
    costs, products = experiments._outcomes, experiments._row_products

    def counting_costs(batch, U, NS):
        costed.append(len(U))
        return costs(batch, U, NS)

    def counting_products(A, X):
        responses.append(len(X))
        return products(A, X)

    monkeypatch.setattr(experiments, "_outcomes", counting_costs)
    monkeypatch.setattr(experiments, "_row_products", counting_products)
    cfg = make_config(deltas=deltas, scenarios=scenarios, action_box="auto",
                      attack={"mode": "iterated", "steps": 3})
    stats = run_experiment(cfg)
    W = stats.n_windows
    assert costed == [W, len(deltas) * len(scenarios) * W] == [W, len(stats.records)]
    assert responses == [W]


#: Every scenario in one run: all four gradient targets at three deltas in one
#: lockstep ascent, under a state box and an action box.
MIXED_TARGETS = {
    "system": {"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 50, "x0": 1},
    "deltas": [0.3, 1.0, 3.0],
    "scenarios": ["cost-adv", "random", "max-action", "min-action", "l1", "cost-gradient"],
    "dataset": {"kind": "arima", "count": 4},
    "normalization": "zscore-global",
    "action_box": {"u_min": -4.5, "u_max": 4.5},
    "state_box": {"x_min": -0.25, "x_max": 0.25},
    "attack": {"mode": "iterated", "steps": 5},
    "seed": 2024,
}


@pytest.mark.parametrize("scenarios,expected", [
    (MIXED_TARGETS["scenarios"], [12, 4]),
    (MIXED_TARGETS["scenarios"][:-1], [4]),
], ids=["with-cost-gradient", "without"])
def test_each_real_series_response_is_computed_once(monkeypatch, scenarios, expected):
    # N s: once per cost-gradient row (4 windows x 3 deltas) for its whole
    # ascent, however many steps it takes, and once per window for the
    # records.  The other targets read none, and without a cost-gradient
    # row the ascent makes no call.
    cfg = parse_config(dict(MIXED_TARGETS, scenarios=scenarios))
    batch = batch_form(cfg.system)
    responses, products = [], lqr._row_products

    def counting(A, X):
        if A is batch.N:
            responses.append(len(X))
        return products(A, X)

    for module in (experiments, grad_attack, lqr, qp):
        monkeypatch.setattr(module, "_row_products", counting)
    run_experiment(cfg)
    assert responses == expected


class TestMetricTable:
    """One table, grad_attack._METRICS, gives the record columns, the outcome
    tables, the aggregates, the p-values and the attack targets' values."""

    def test_record_columns_follow_the_table(self):
        paired = tuple(f"{metric.name}_{side}" for metric in grad_attack._METRICS
                       for side in ("orig", "adv"))
        names = tuple(field.name for field in fields(Record))
        assert names == ("series_id", "delta", "scenario") + paired + ("norm_used", "flags")
        assert report.RECORD_COLUMNS == names

    def test_a_block_function_reaches_every_consumer(self, monkeypatch):
        def toy(batch, U, NS):  # the sum of squares, in place of the l1 norm
            return np.square(U).sum(axis=1)

        table = tuple(metric._replace(block=toy) if metric.name == "l1" else metric
                      for metric in grad_attack._METRICS)
        # experiments imports the one table by name: patch both bindings.
        monkeypatch.setattr(grad_attack, "_METRICS", table)
        monkeypatch.setattr(experiments, "_METRICS", table)
        found, stage = [], experiments.attack_windows

        def keeping(cfg, batch, cons, series_ids, S):
            found.append(stage(cfg, batch, cons, series_ids, S))
            return found[-1]

        monkeypatch.setattr(experiments, "attack_windows", keeping)
        cfg = make_config(scenarios=["l1", "random"], action_box="auto",
                          attack={"mode": "iterated", "steps": 3})
        stats = run_experiment(cfg)
        ((U_orig, block),) = found
        W, P = len(U_orig), len(cfg.deltas) * len(cfg.scenarios)
        assert not block.flags[:, _COL_INFEASIBLE].any()
        bits = lambda value: np.float64(value).tobytes()  # noqa: E731
        for index, record in enumerate(stats.records):
            w, p = divmod(index, P)
            row = p * W + w
            assert bits(record.l1_orig) == bits(toy(None, U_orig[w][None], None)[0])
            assert bits(record.l1_adv) == bits(toy(None, block.U_hat[row][None], None)[0])
            assert record.l1_adv != np.abs(block.U_hat[row]).sum()
            if record.scenario == "l1":
                assert bits(block.attained[row]) == bits(record.l1_adv)
        assert list(stats.aggregates) == aggregate_oracle(stats.records)
        assert all(entry["mean_pct_increase_l1"] is not None for entry in stats.aggregates)
        assert list(stats.p_values) == paired_p_values_oracle(stats.records, cfg.scenarios)
        assert [entry["metric"] for entry in stats.p_values] == ["l1_adv"] * len(cfg.deltas)


class TestSharedSeriesResponse:
    """Every cost of a run, read from the one N s per window, is bit for bit
    realized_costs of its own row costed alone."""

    @pytest.mark.parametrize("overrides", [
        {"deltas": [0.3, 1.0, 3.0], "scenarios": ["cost-adv", "random", "max-action"],
         "attack": {"mode": "iterated", "steps": 2}},
        {"system": TWO_STATE_SYSTEM, "deltas": [0.3, 1.0, 3.0],
         "scenarios": ["cost-adv", "random", "l1"], "attack": {"mode": "iterated", "steps": 2}},
        dict(STATE_BOX_OVERRIDES, deltas=[1.0, 3.0, 6.0]),
    ], ids=["scalar", "two-state", "infeasible-rows"])
    def test_each_cost_is_its_row_alone(self, monkeypatch, overrides):
        cfg = make_config(**overrides)
        found = []
        stage = experiments.attack_windows

        def keeping(cfg, batch, cons, series_ids, S):
            found.append((batch, S, stage(cfg, batch, cons, series_ids, S)))
            return found[-1][2]

        monkeypatch.setattr(experiments, "attack_windows", keeping)
        stats = run_experiment(cfg)
        ((batch, S, (U_orig, block)),) = found
        W, P = len(S), len(cfg.deltas) * len(cfg.scenarios)
        infeasible = block.flags[:, _COL_INFEASIBLE]
        for index, record in enumerate(stats.records):
            w, p = divmod(index, P)
            row = p * W + w
            alone = realized_costs(batch, U_orig[w][None], S[w][None])
            assert np.float64(record.j_orig).tobytes() == alone.tobytes()
            if infeasible[row]:
                assert record.j_adv == math.inf
                continue
            alone = realized_costs(batch, block.U_hat[row][None], S[w][None])
            assert np.float64(record.j_adv).tobytes() == alone.tobytes()
        if cfg.state_box is not None:
            assert 0 < infeasible.sum() < len(infeasible)


def _blas_counts():
    return [get() for get, _ in lqr._BLAS_CONTROLS]


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS on two threads for the test, then the counts it found."""
    if not lqr._BLAS_CONTROLS:
        pytest.skip("no OpenBLAS thread control found in this process")
    found = _blas_counts()
    for _, put in lqr._BLAS_CONTROLS:
        put(2)
    try:
        if _blas_counts() != [2] * len(found):
            pytest.skip("OpenBLAS does not accept two threads here")
        yield
    finally:
        for (_, put), count in zip(lqr._BLAS_CONTROLS, found):
            put(count)


@pytest.mark.usefixtures("two_blas_threads")
class TestOneBlasThread:
    """batch_form, attack_windows and run_experiment run on one BLAS thread
    and give the caller back the count it had, on every exit path."""

    @staticmethod
    def recording(monkeypatch, module, name, reads):
        """Make ``module.name`` append the thread counts to ``reads`` first."""
        original = getattr(module, name)

        def record(*args, **kwargs):
            reads.append(_blas_counts())
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, record)

    def test_run_experiment(self, monkeypatch):
        # The outcome tables are costed in run_experiment after its nested
        # batch_form and attack_windows scopes have closed, so they also read
        # their restore.
        reads = []
        self.recording(monkeypatch, experiments, "_outcomes", reads)
        run_experiment(make_config())
        assert len(reads) == 2
        assert reads == [[1] * len(lqr._BLAS_CONTROLS)] * 2
        assert _blas_counts() == [2] * len(lqr._BLAS_CONTROLS)

    def test_attack_windows(self, monkeypatch):
        cfg = make_config(scenarios=["cost-adv", "random", "max-action"],
                          action_box="auto", attack={"mode": "iterated", "steps": 2})
        batch = batch_form(cfg.system)
        windows = load_windows(cfg)
        S = np.array([w.values for w in windows])
        cons = constraints_for(cfg, batch, S)
        reads = []
        self.recording(monkeypatch, experiments, "_solve_rows", reads)
        self.recording(monkeypatch, grad_attack, "_solve_rows", reads)
        attack_windows(cfg, batch, cons, [w.series_id for w in windows], S)
        assert len(reads) > 2
        assert reads == [[1] * len(lqr._BLAS_CONTROLS)] * len(reads)
        assert _blas_counts() == [2] * len(lqr._BLAS_CONTROLS)

    @pytest.mark.usefixtures("fresh_forms")
    def test_batch_form(self, monkeypatch):
        # An empty memo: a form found there is built by no BLAS call at all.
        spec = make_config().system
        reads = []
        self.recording(monkeypatch, lqr, "cho_solve", reads)
        batch_form(spec)
        assert reads == [[1] * len(lqr._BLAS_CONTROLS)]
        assert _blas_counts() == [2] * len(lqr._BLAS_CONTROLS)

    def test_count_restored_after_an_infeasible_clean_window(self):
        cfg = make_config(action_box={"u_min": -0.01, "u_max": 0.01},
                          state_box={"x_min": -0.01, "x_max": 0.01}, normalization="none")
        with pytest.raises(ConfigurationError, match="unattacked problem infeasible"):
            run_experiment(cfg)
        assert _blas_counts() == [2] * len(lqr._BLAS_CONTROLS)

    def test_nested_scopes_restore_the_count_they_found(self):
        with lqr._one_blas_thread():
            with lqr._one_blas_thread():
                assert _blas_counts() == [1] * len(lqr._BLAS_CONTROLS)
            assert _blas_counts() == [1] * len(lqr._BLAS_CONTROLS)
        assert _blas_counts() == [2] * len(lqr._BLAS_CONTROLS)


class TestCalibration:
    def test_bound_scales_with_action_distribution(self):
        cfg = make_config()
        batch = batch_form(cfg.system)
        windows = load_windows(cfg)
        lo, hi = calibrate_action_box(batch, windows)
        assert lo == -hi and hi > 0
        pooled = np.concatenate([
            np.abs(solve_unconstrained(batch, w.values)) for w in windows
        ])
        assert hi == 1.5 * float(np.quantile(pooled, 0.95))

    def test_no_window_is_rejected(self):
        batch = batch_form(make_config().system)
        with pytest.raises(ValueError, match="at least one window"):
            calibrate_action_box(batch, [])

    @pytest.mark.parametrize("system,values", [
        # Windows this large overflow the unconstrained actions.
        (dict(T=50), [np.full(50, 1e306)] * 3),
        # One action of 40 overflows to inf (not NaN), and the 95th
        # percentile of all 40 is still finite.
        (dict(Q=10, T=1), [[float(i)] for i in range(39)] + [[1e308]]),
    ], ids=["all-windows", "one-action"])
    def test_non_finite_bound_is_rejected(self, system, values):
        batch = batch_form(make_config(system=dict(BASE_CONFIG["system"], **system)).system)
        windows = [SeriesWindow(values=v, source_id=f"w{i}", start_index=0)
                   for i, v in enumerate(values)]
        with pytest.raises(ConfigurationError, match="bound is not finite"):
            calibrate_action_box(batch, windows)


class TestEmitReport:
    def test_series_dumps_compare_by_identity(self):
        # Like every array-holding dataclass of the package: no elementwise
        # equality to raise "truth value of an array is ambiguous".
        original = np.array([1.0, 2.0])
        dump = SeriesDump(series_id="s", delta=1.0, scenario="random",
                          original=original, attacked=original + 0.5)
        twin = SeriesDump(series_id="s", delta=1.0, scenario="random",
                          original=original, attacked=original + 0.5)
        assert dump == dump
        assert dump != twin
        assert len({dump, twin, dump}) == 2

    def test_a_windows_dumps_share_one_original(self):
        stats = run_experiment(make_config(series_dump_limit=3))
        originals = {}
        for dump in stats.series_dumps:
            assert dump.original is originals.setdefault(dump.series_id, dump.original)
        assert len(originals) == 3

    def test_each_series_file_is_its_own_dump(self, tmp_path):
        # Dumps that share an original array, and dumps of other lengths and
        # dtypes between them: each file is csv.writer's rows of its own dump.
        shared = np.array([0.5, -0.0, 1e-5])
        dumps = (
            SeriesDump("a", 1.0, "cost-adv", shared, shared + 1.0),
            SeriesDump("a", 2.0, "cost-adv", shared, shared + 2.0),
            SeriesDump("b", 1.0, "cost-adv", np.array([3, 4]), np.array([0.1, 5e-324])),
            SeriesDump("a", 3.0, "cost-adv", shared.copy(), shared * 3.0),
            SeriesDump("c", 1.0, "random", np.arange(4.0, dtype=np.float32),
                       -np.arange(4.0)),
        )
        stats = ScenarioStats(records=(), aggregates=(), p_values=(), series_dumps=dumps,
                              config={}, seed=0, n_windows=3)
        emit_report(stats, tmp_path / "out")
        for dump in dumps:
            text = io.StringIO(newline="")
            writer = csv.writer(text)
            writer.writerow(("t", "original", "attacked"))
            writer.writerows(zip(range(len(dump.original)), map(float, dump.original),
                                 map(float, dump.attacked)))
            name = f"{dump.series_id}__{dump.scenario}__delta{dump.delta!r}.csv"
            assert (tmp_path / "out" / "series" / name).read_bytes() == \
                text.getvalue().encode("utf-8")

    def test_empty_stats_header_only(self, tmp_path):
        stats = ScenarioStats(records=(), aggregates=(), p_values=(),
                              series_dumps=(), config={}, seed=0, n_windows=0)
        paths = emit_report(stats, tmp_path / "out")
        content = Path(paths["records"]).read_text(encoding="utf-8")
        assert content.strip() == ("series_id,delta,scenario,j_orig,j_adv,"
                                   "max_u_orig,max_u_adv,min_u_orig,min_u_adv,"
                                   "l1_orig,l1_adv,norm_used,flags")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = make_config()
        emit_report(run_experiment(cfg), tmp_path / "a")
        emit_report(run_experiment(cfg), tmp_path / "b")
        a = (tmp_path / "a" / "records.csv").read_bytes()
        b = (tmp_path / "b" / "records.csv").read_bytes()
        assert a == b
        sa = (tmp_path / "a" / "summary.json").read_bytes()
        sb = (tmp_path / "b" / "summary.json").read_bytes()
        assert sa == sb

    def test_summary_round_trips_as_json(self, tmp_path):
        stats = run_experiment(make_config())
        paths = emit_report(stats, tmp_path / "out")
        with open(paths["summary"], encoding="utf-8") as handle:
            summary = json.load(handle)
        assert summary["seed"] == 7
        assert summary["config"]["seed"] == 7
        assert len(summary["aggregates"]) == 4

    def test_non_finite_summary_value_is_refused_before_writing(self, tmp_path):
        stats = ScenarioStats(records=(), aggregates=({"mean_pct_increase_j": math.inf},),
                              p_values=(), series_dumps=(), config={}, seed=0, n_windows=0)
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report(stats, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_csv_cells_are_float_reprs(self, tmp_path):
        emit_report(run_experiment(make_config(series_dump_limit=2)), tmp_path / "out")
        text_columns = {"series_id", "scenario", "flags"}
        paths = [tmp_path / "out" / "records.csv",
                 *sorted((tmp_path / "out" / "series").iterdir())]
        for path in paths:
            content = path.read_bytes()
            assert content.endswith(b"\r\n")
            assert content.count(b"\n") == content.count(b"\r\n")
            header, *rows = csv.reader(io.StringIO(content.decode("utf-8"), newline=""))
            assert rows
            for row in rows:
                for column, cell in zip(header, row, strict=True):
                    if column == "t":
                        assert cell == str(int(cell))
                    elif column not in text_columns:
                        assert cell == repr(float(cell))

    def test_numeric_cells_of_any_type_are_float_reprs(self, tmp_path):
        record = Record(series_id="s", delta=1, scenario="cost-adv", j_orig=True,
                        j_adv=np.float32(0.1), max_u_orig=np.int64(2),
                        max_u_adv=np.float64(0.1), min_u_orig=0.5, min_u_adv=-3,
                        l1_orig=False, l1_adv=np.float32(-0.0), norm_used=1e-300,
                        flags="")
        dump = SeriesDump(series_id="s", delta=np.float64(1), scenario="cost-adv",
                          original=np.array([1, 2]),
                          attacked=np.array([0.1, 0.25], dtype=np.float32))
        stats = ScenarioStats(records=(record,), aggregates=(), p_values=(),
                              series_dumps=(dump,), config={}, seed=0, n_windows=1)
        emit_report(stats, tmp_path / "out")

        def read_csv(path):
            return list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))

        rows = read_csv(tmp_path / "out" / "records.csv")
        assert rows[1] == ["s", "1.0", "cost-adv", "1.0", "0.10000000149011612", "2.0",
                           "0.1", "0.5", "-3.0", "0.0", "-0.0", "1e-300", ""]
        (series_file,) = (tmp_path / "out" / "series").iterdir()
        assert series_file.name == "s__cost-adv__delta1.0.csv"
        assert read_csv(series_file) == [["t", "original", "attacked"],
                                         ["0", "1.0", "0.10000000149011612"],
                                         ["1", "2.0", "0.25"]]

    def test_records_csv_equals_the_csv_module(self, tmp_path):
        # Numeric columns whose values repeat, with 0.0 and -0.0, NaNs of two
        # payloads and of either sign, infinities and two floats one ulp
        # apart: the file is csv.writer's rows, every numeric cell
        # repr(float(v)), as if each cell were formatted on its own.
        payload = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
        ulp = np.nextafter(0.1, 1.0)
        values = [0.0, -0.0, math.nan, payload, -math.nan, math.inf, -math.inf, 0.1, ulp,
                  0.1, -0.0, 5e-324, 1e300]
        records = []
        for i, value in enumerate(values):
            other = values[(3 * i + 1) % len(values)]
            for delta in (0.1, ulp, 0.0):
                records.append(Record(
                    series_id=f"s,{i:02d}", delta=delta, scenario='cost-"adv"',
                    j_orig=value, j_adv=other, max_u_orig=value, max_u_adv=-other,
                    min_u_orig=-value, min_u_adv=other, l1_orig=value,
                    l1_adv=np.int64(i), norm_used=delta, flags="a;b" if i % 2 else ""))
        records.sort(key=lambda r: (r.series_id, r.delta, r.scenario))
        stats = ScenarioStats(records=tuple(reversed(records)), aggregates=(), p_values=(),
                              series_dumps=(), config={}, seed=0, n_windows=len(values))
        emit_report(stats, tmp_path / "out")
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(vars(records[0]))
        writer.writerows([value if isinstance(value, str) else repr(float(value))
                          for value in vars(record).values()] for record in records)
        assert (tmp_path / "out" / "records.csv").read_bytes() == text.getvalue().encode("utf-8")

    @staticmethod
    def _tree(root):
        return {path.relative_to(root): path.read_bytes() if path.is_file() else None
                for path in root.rglob("*")}

    def test_series_holds_only_this_reports_dumps(self, tmp_path):
        # Reports of 3, 1 and 0 dumped windows, one after another into one
        # directory: each leaves the directory as a new one's, with no
        # earlier report's series file (and, with none, no series/).
        out = tmp_path / "out"
        for limit in (3, 1, 0, 2):
            stats = run_experiment(make_config(series_dump_limit=limit))
            emit_report(stats, out)
            emit_report(stats, tmp_path / f"new-{limit}")
            assert self._tree(out) == self._tree(tmp_path / f"new-{limit}")
            assert len(list(out.glob("series/*.csv"))) == 4 * limit

    def test_other_files_in_series_are_kept(self, tmp_path):
        out = tmp_path / "out"
        emit_report(run_experiment(make_config(series_dump_limit=1)), out)
        (out / "series" / "notes.txt").write_text("kept", encoding="utf-8")
        (out / "series" / "folder.csv").mkdir()
        emit_report(run_experiment(make_config(series_dump_limit=0)), out)
        assert sorted(path.name for path in (out / "series").iterdir()) == [
            "folder.csv", "notes.txt"]
        assert (out / "series" / "notes.txt").read_text(encoding="utf-8") == "kept"

    def test_series_dumps_written(self, tmp_path):
        cfg = make_config(series_dump_limit=2)
        paths = emit_report(run_experiment(cfg), tmp_path / "out")
        series_files = sorted((tmp_path / "out" / "series").iterdir())
        # 2 windows x 2 deltas x 2 scenarios
        assert len(series_files) == 8
        header = series_files[0].read_text(encoding="utf-8").splitlines()[0]
        assert header == "t,original,attacked"
