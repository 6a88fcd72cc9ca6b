import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tsattack import (
    TargetFunction,
    batch_form,
    iterated_attack,
    load_config,
    read_series_csv,
    write_series_csv,
)
from tsattack.cli import main
from tsattack.experiments import constraints_for, load_windows

BASE_CONFIG = {
    "system": {"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 10, "x0": 1},
    "deltas": [0.3, 1.0],
    "scenarios": ["cost-adv", "random"],
    "dataset": {"kind": "arima", "count": 8},
    "seed": 11,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    return path


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestGenArima:
    def test_writes_expected_shape(self, tmp_path):
        out = tmp_path / "series.csv"
        code = main(["gen-arima", "--seed", "3", "--count", "4",
                     "--horizon", "10", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["window_id", "t", "value"]
        assert len(rows) == 1 + 4 * 10

    def test_missing_argument_exits_one(self, capsys):
        assert main(["gen-arima", "--seed", "3"]) == 1

    def test_zero_count_exits_one(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert main(["gen-arima", "--seed", "3", "--count", "0",
                     "--horizon", "10", "--out", str(out)]) == 1
        assert "no windows" in capsys.readouterr().err
        assert not out.exists()


#: One scenario per former ``attack`` sub-subcommand, under its old id.
CLOSED_FORM_AND_GRADIENT = [pytest.param("cost-adv", id="cost"),
                            pytest.param("max-action", id="constraint")]


class TestAttackCommands:
    def _gen_input(self, tmp_path, horizon=10, count=3, seed=5):
        path = tmp_path / "input.csv"
        main(["gen-arima", "--seed", str(seed), "--count", str(count),
              "--horizon", str(horizon), "--out", str(path)])
        return path

    def test_attack_cost(self, tmp_path, config_path):
        inp = self._gen_input(tmp_path)
        out = tmp_path / "attacked.csv"
        code = main(["attack", "--scenario", "cost-adv", "--config", str(config_path),
                     "--delta", "1.0", "--in", str(inp), "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["window_id", "t", "original", "attacked"]
        assert len(rows) == 1 + 3 * 10
        moved = np.array([float(r[3]) - float(r[2]) for r in rows[1:11]])
        assert np.isclose(np.linalg.norm(moved), 1.0)

    def test_attack_constraint(self, tmp_path, config_path):
        cfg = dict(BASE_CONFIG, action_box={"u_min": -2.0, "u_max": 2.0},
                   attack={"mode": "iterated", "steps": 4})
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        inp = self._gen_input(tmp_path)
        out = tmp_path / "attacked.csv"
        code = main(["attack", "--scenario", "max-action", "--delta", "0.5",
                     "--config", str(path), "--in", str(inp),
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1 + 3 * 10

    def test_attack_constraint_takes_the_config_attack_section(self, tmp_path):
        cfg_raw = dict(BASE_CONFIG, action_box={"u_min": -2.0, "u_max": 2.0},
                       attack={"mode": "iterated", "steps": 3})
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg_raw), encoding="utf-8")
        inp = self._gen_input(tmp_path)
        out = tmp_path / "attacked.csv"
        code = main(["attack", "--scenario", "l1", "--delta", "2.0",
                     "--config", str(path), "--in", str(inp), "--out", str(out)])
        assert code == 0
        cfg = load_config(path)
        batch = batch_form(cfg.system)
        windows = read_series_csv(inp)
        cons = constraints_for(cfg, batch, np.array([w.values for w in windows]))
        expected = [repr(float(v)) for window in windows
                    for v in iterated_attack(batch, cons, window.values, 2.0,
                                             TargetFunction.L1_ENERGY,
                                             steps=3).s_hat]
        assert [row[3] for row in read_rows(out)[1:]] == expected

    @pytest.mark.parametrize("scenario", CLOSED_FORM_AND_GRADIENT)
    @pytest.mark.parametrize("delta", ["nan", "inf", "0"])
    def test_non_finite_delta_exits_one(self, tmp_path, capsys, scenario, delta):
        cfg = dict(BASE_CONFIG, action_box={"u_min": -2.0, "u_max": 2.0})
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        inp = self._gen_input(tmp_path)
        out = tmp_path / "attacked.csv"
        code = main(["attack", "--scenario", scenario, "--delta", delta,
                     "--config", str(path), "--in", str(inp), "--out", str(out)])
        assert code == 1
        assert "error: delta must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_window_length_mismatch_exits_one(self, tmp_path, config_path, capsys):
        inp = self._gen_input(tmp_path, horizon=7)
        out = tmp_path / "attacked.csv"
        code = main(["attack", "--scenario", "cost-adv", "--config", str(config_path),
                     "--delta", "1.0", "--in", str(inp), "--out", str(out)])
        assert code == 1
        assert ("window arima:000000 must have length p*T = 10, got 7"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("scenario", CLOSED_FORM_AND_GRADIENT)
    def test_non_finite_window_exits_one(self, tmp_path, capsys, scenario):
        cfg = dict(BASE_CONFIG, action_box="auto")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        inp = self._gen_input(tmp_path)
        rows = read_rows(inp)
        rows[15][2] = "nan"  # window 1, t = 4
        with open(inp, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        code = main(["attack", "--scenario", scenario, "--config", str(path),
                     "--delta", "1.0", "--in", str(inp),
                     "--out", str(tmp_path / "attacked.csv")])
        assert code == 1
        assert (f"window {rows[15][0]} contains non-finite entries"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("scenario", ["max-action", "random"])
    def test_infeasible_clean_windows_exit_one_naming_them(self, tmp_path, capsys,
                                                           scenario):
        raw = dict(BASE_CONFIG, dataset={"kind": "arima", "count": 4}, seed=3,
                   normalization="none",
                   action_box={"u_min": -0.01, "u_max": 0.01},
                   state_box={"x_min": -0.01, "x_max": 0.01})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        inp = tmp_path / "windows.csv"
        write_series_csv(load_windows(load_config(path)), inp)
        out = tmp_path / "attacked.csv"
        code = main(["attack", "--scenario", scenario, "--delta", "1.0",
                     "--config", str(path), "--in", str(inp), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: unattacked problem infeasible for windows arima:000000, "
            "arima:000001, arima:000002, arima:000003; loosen the configured boxes\n")
        assert not out.exists()

    @pytest.mark.parametrize("scenario,error", [
        ("random", "window arima:000000, delta 1e+308, scenario random: perturbation norm "
                   "inf overflows at delta 1e+308"),
        ("cost-adv", "window arima:000000, delta 1e+308, scenario cost-adv: the "
                     "controller's linear term L s overflows; use a smaller delta or "
                     "rescale the series"),
    ])
    def test_overflowing_delta_exits_one_naming_the_first_failure(self, tmp_path, capsys,
                                                                  scenario, error):
        # The attacked block's norms are checked before it is solved: a random
        # step past the float range fails that check, while the cost-adv step
        # stays within its budget and overflows the solver's L s.
        inp = self._gen_input(tmp_path, horizon=50, count=12, seed=7)
        out = tmp_path / "attacked.csv"
        config = Path(__file__).resolve().parent.parent / "configs" / "arima_constraint.json"
        with np.errstate(over="ignore"):
            code = main(["attack", "--scenario", scenario, "--delta", "1e308",
                         "--config", str(config), "--in", str(inp), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_flagged_counts_the_experiment_infeasible_answers(self, tmp_path, capsys):
        """``flagged`` counts the windows the experiment records as infeasible."""
        raw = dict(BASE_CONFIG, deltas=[10.0], scenarios=["cost-adv", "random"],
                   dataset={"kind": "arima", "count": 4}, seed=3,
                   normalization="zscore-global",
                   action_box={"u_min": -4.5, "u_max": 4.5},
                   state_box={"x_min": -0.5, "x_max": 0.5},
                   attack={"mode": "iterated", "steps": 5})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        inp = tmp_path / "windows.csv"
        write_series_csv(load_windows(load_config(path)), inp)
        out_dir = tmp_path / "experiment"
        assert main(["experiment", "--config", str(path),
                     "--out-dir", str(out_dir)]) == 0
        records = read_rows(out_dir / "records.csv")
        scenario_col = records[0].index("scenario")
        flags_col = records[0].index("flags")
        capsys.readouterr()
        for scenario in raw["scenarios"]:
            infeasible = sum(row[scenario_col] == scenario
                             and "infeasible" in row[flags_col].split(";")
                             for row in records[1:])
            assert infeasible == 3
            assert main(["attack", "--scenario", scenario, "--delta", "10.0",
                         "--config", str(path), "--in", str(inp),
                         "--out", str(tmp_path / "attacked.csv")]) == 0
            assert f"flagged={infeasible})" in capsys.readouterr().out

    def test_missing_input_exits_three(self, tmp_path, config_path, capsys):
        code = main(["attack", "--scenario", "cost-adv", "--config", str(config_path),
                     "--delta", "1.0", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    @pytest.mark.parametrize("box", [pytest.param({}, id="lqr"),
                                     pytest.param({"action_box": "auto"}, id="auto-box")])
    def test_empty_input_exits_one_naming_it(self, tmp_path, capsys, box):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(BASE_CONFIG, **box)), encoding="utf-8")
        inp = tmp_path / "no_rows.csv"
        inp.write_text("window_id,t,value\r\n", encoding="utf-8")
        out = tmp_path / "attacked.csv"
        code = main(["attack", "--scenario", "cost-adv", "--config", str(config),
                     "--delta", "1.0", "--in", str(inp), "--out", str(out)])
        assert code == 1
        assert "no_rows.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_row_out_of_window_order_exits_one_naming_it(self, tmp_path, config_path,
                                                         capsys):
        inp = self._gen_input(tmp_path)
        rows = read_rows(inp)
        rows[3][1] = "1"  # window 0 repeats t = 1 in row 4
        with open(inp, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        out = tmp_path / "attacked.csv"
        code = main(["attack", "--scenario", "cost-adv", "--config", str(config_path),
                     "--delta", "1.0", "--in", str(inp), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {inp}: row 4 has t = 1 for window 'arima:000000', expected 2\n")
        assert not out.exists()

    def test_removed_subcommands_are_rejected(self, tmp_path, config_path, capsys):
        inp = self._gen_input(tmp_path)
        code = main(["attack", "cost", "--config", str(config_path),
                     "--delta", "1.0", "--in", str(inp),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "required: --scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        pytest.param({}, id="lqr"),
        pytest.param({"action_box": "auto",
                      "attack": {"mode": "iterated", "steps": 3}}, id="action-box"),
        # The state box is active on clean windows; some attacks end infeasible.
        pytest.param({"action_box": {"u_min": -4.0, "u_max": 4.0},
                      "state_box": {"x_min": -1.0, "x_max": 1.0},
                      "attack": {"mode": "single-step"}}, id="state-box"),
    ])
    def test_attack_reproduces_the_experiment_series(self, tmp_path, extra):
        """``attack --scenario S`` perturbs each window bit for bit as the
        experiment does for S at its first delta, ``random`` included."""
        scenarios = ["cost-adv", "random", "max-action", "min-action", "l1",
                     "cost-gradient"]
        raw = dict(BASE_CONFIG, scenarios=scenarios, normalization="none",
                   dataset={"kind": "arima", "count": 4}, series_dump_limit=4,
                   **extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        inp = tmp_path / "windows.csv"
        write_series_csv(load_windows(load_config(path)), inp)
        out_dir = tmp_path / "experiment"
        assert main(["experiment", "--config", str(path),
                     "--out-dir", str(out_dir)]) == 0
        delta = repr(raw["deltas"][0])
        for scenario in scenarios:
            out = tmp_path / f"{scenario}.csv"
            assert main(["attack", "--scenario", scenario, "--delta", delta,
                         "--config", str(path), "--in", str(inp),
                         "--out", str(out)]) == 0
            attacked = read_rows(out)[1:]
            for window_id in sorted({row[0] for row in attacked}):
                dump = out_dir / "series" / (
                    f"{window_id.replace(':', '_')}__{scenario}__delta{delta}.csv")
                assert read_rows(dump)[1:] == [
                    row[1:] for row in attacked if row[0] == window_id]


class TestExperimentCommand:
    def test_cost_experiment_emits_reports(self, tmp_path, config_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["experiment", "--config", str(config_path),
                     "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "records.csv").exists()
        assert (out_dir / "summary.json").exists()
        assert "p=" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path, config_path):
        dirs = (tmp_path / "r1", tmp_path / "r2")
        for out_dir in dirs:
            assert main(["experiment", "--config", str(config_path),
                         "--out-dir", str(out_dir)]) == 0
        a = (dirs[0] / "records.csv").read_bytes()
        b = (dirs[1] / "records.csv").read_bytes()
        assert a == b

    def test_constraint_experiment(self, tmp_path):
        cfg = dict(
            BASE_CONFIG,
            scenarios=["max-action", "random"],
            deltas=[0.5],
            action_box="auto",
            attack={"mode": "iterated", "steps": 4},
            dataset={"kind": "arima", "count": 5},
        )
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(["experiment", "--config", str(path),
                     "--out-dir", str(out_dir)])
        assert code == 0
        rows = read_rows(out_dir / "records.csv")
        assert len(rows) == 1 + 5 * 2

    def test_failed_kkt_check_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("tsattack.qp._kkt_residuals", lambda *args: {
            "stationarity": 1.0, "feasibility": 0.0,
            "complementarity": 0.0, "dual_sign": 0.0,
        })
        cfg = dict(BASE_CONFIG, scenarios=["max-action", "random"],
                   deltas=[0.5], action_box={"u_min": -2.0, "u_max": 2.0})
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["experiment", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "KKT check" in capsys.readouterr().err

    def test_missing_out_dir_exits_one(self, config_path, capsys):
        assert main(["experiment", "--config", str(config_path)]) == 1

    @pytest.mark.parametrize("overrides, key", [
        ({"deltas": 0.5}, "deltas"),
        ({"deltas": [0.5, "1"]}, "deltas"),
        ({"seed": None}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"dataset": {"kind": "arima", "count": None}}, "count"),
        ({"dataset": {"kind": "arima", "count": 0}}, "count"),
        ({"dataset": {"kind": "arima", "count": 0}, "action_box": "auto"}, "count"),
        ({"dataset": {"kind": "arima", "count": 3, "seed": 1.5}}, "seed"),
        ({"dataset": {"kind": "csv", "path": "x.csv", "column": "load",
                      "stride": 0}}, "stride"),
        ({"attack": 5}, "attack"),
        ({"attack": {"steps": 2.7}}, "steps"),
        ({"series_dump_limit": 1.5}, "series_dump_limit"),
        ({"state_box": "auto"}, "state_box"),
        ({"system": dict(BASE_CONFIG["system"], x0=math.nan)}, "x0"),
        ({"system": dict(BASE_CONFIG["system"], x0="abc")}, "x0"),
        ({"system": dict(BASE_CONFIG["system"], A="abc")}, "A must be numeric"),
        ({"system": dict(BASE_CONFIG["system"], T=True)}, "T must be"),
        ({"action_box": {"u_min": math.nan, "u_max": 1.0}}, "u_min"),
        ({"action_box": {"u_min": -1.0, "u_max": math.inf}}, "u_max"),
        ({"action_box": {"u_min": "abc", "u_max": 1.0}}, "u_min"),
        ({"state_box": {"x_min": -math.inf, "x_max": 1.0}}, "x_min"),
        ({"attack": {"step_size": math.nan}}, "step_size"),
        ({"attack": {"step_size": math.inf}}, "step_size"),
        ({"attack": {"step_size": True}}, "step_size"),
        ({"attack": {"step_size": "0.5"}}, "step_size"),
        ({"attack": {"step_size": "abc"}}, "step_size"),
        ({"scenarios": ["random", "random"]}, "scenarios"),
        ({"system": dict(BASE_CONFIG["system"], A=True)}, "A must be numeric"),
        ({"system": dict(BASE_CONFIG["system"], x0=[True])}, "x0 must be numeric"),
        ({"action_box": {"u_min": True, "u_max": 2}}, "u_min must be numeric"),
        ({"deltas": [1e200], "scenarios": ["cost-adv"]}, "delta 1e+200"),
        ({"deltas": [1e308], "scenarios": ["random"]}, "delta 1e+308"),
        ({"attack": {"mode": "single-step", "steps": 7}},
         "single-step takes no steps"),
        ({"attack": {"mode": "single-step", "step_size": 0.5}},
         "single-step takes no step_size"),
        ({"attack": {"mode": "single-step", "steps": 7, "step_size": 0.5}},
         "single-step takes no steps or step_size"),
        # Past 1.3e154 the perturbation norm stays finite; the cost overflows.
        ({"deltas": [1e200], "scenarios": ["cost-adv"]},
         "delta 1e+200 overflows the realized cost"),
        ({"deltas": [1e200], "scenarios": ["random"]},
         "delta 1e+200 overflows the realized cost"),
        ({"deltas": [1e200], "scenarios": ["max-action"]},
         "delta 1e+200 overflows the realized cost"),
        ({"seed": -3}, "seed must be >= 0, got -3"),
        ({"dataset": {"kind": "arima", "count": 3, "seed": -3}},
         "dataset seed must be >= 0, got -3"),
        ({"scenarios": "random"}, "scenarios must be a list of scenario names"),
        ({"out_dir": 123}, "out_dir must be a string, got 123"),
        ({"dataset": {"kind": "csv", "path": 5, "column": "load"}},
         "dataset path must be a string, got 5"),
        ({"dataset": {"kind": "csv", "path": "x.csv", "column": 7}},
         "dataset column must be a string, got 7"),
        ({"system": dict(BASE_CONFIG["system"], C=[[]])}, "C must have at least one column"),
    ])
    def test_bad_config_value_exits_one(self, tmp_path, capsys, overrides, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, **overrides)),
                        encoding="utf-8")
        out_dir = tmp_path / "o"
        assert main(["experiment", "--config", str(path),
                     "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out_dir.exists()

    def test_non_string_out_dir_exits_one_before_any_attack(self, tmp_path, capsys,
                                                            monkeypatch):
        # The config's out_dir is the report directory when --out-dir is
        # not given: a number fails at parse time, not in the report.
        def attack(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr("tsattack.cli.run_experiment", attack)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, out_dir=123)), encoding="utf-8")
        assert main(["experiment", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: out_dir must be a string, got 123\n"

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, bogus=1)),
                        encoding="utf-8")
        assert main(["experiment", "--config", str(path),
                     "--out-dir", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("command", ["experiment", "attack"])
def test_solver_failure_exits_two_naming_its_task(tmp_path, capsys, command):
    # At delta 1e200 the attacked actions round past the calibrated box and
    # the QP's infeasibility certificate fails on the first window.  The
    # experiment solves the random pair's attacked series before the
    # max-action ascent starts, so it names random.
    raw = dict(BASE_CONFIG, action_box="auto", deltas=[1e200],
               scenarios=["max-action", "random"],
               attack={"mode": "iterated", "steps": 3}, seed=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    inp = tmp_path / "windows.csv"
    write_series_csv(load_windows(load_config(path)), inp)
    out = tmp_path / "out"
    if command == "experiment":
        argv = ["experiment", "--config", str(path), "--out-dir", str(out)]
    else:
        argv = ["attack", "--scenario", "max-action", "--delta", "1e200",
                "--config", str(path), "--in", str(inp), "--out", str(out)]
    assert main(argv) == 2
    scenario = "random" if command == "experiment" else "max-action"
    assert capsys.readouterr().err.startswith(
        f"numerical error: window arima:000000, delta 1e+200, scenario {scenario}: "
        "QP solution fails the infeasibility certificate: gap residual")
    assert not out.exists()


@pytest.mark.parametrize("command", ["experiment", "attack"])
def test_clean_solver_failure_exits_two_naming_its_window(tmp_path, capsys, command):
    # At scale 1e16 the rounding of u exceeds a +-3 box: the dual iteration
    # ends on a false Farkas ray for the second window's clean problem, and
    # its check fails before any attack runs.
    data = tmp_path / "load.csv"
    values = (1e16 * np.random.default_rng(0).standard_normal(30)).tolist()
    data.write_text("load\n" + "".join(f"{v!r}\n" for v in values), encoding="utf-8")
    raw = dict(BASE_CONFIG, dataset={"kind": "csv", "path": str(data), "column": "load"},
               normalization="none", action_box={"u_min": -3.0, "u_max": 3.0},
               scenarios=["random"], deltas=[1.0])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    windows = load_windows(load_config(path))
    inp = tmp_path / "windows.csv"
    write_series_csv(windows, inp)
    out = tmp_path / "out"
    if command == "experiment":
        argv = ["experiment", "--config", str(path), "--out-dir", str(out)]
    else:
        argv = ["attack", "--scenario", "random", "--delta", "1.0",
                "--config", str(path), "--in", str(inp), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"numerical error: window {windows[1].series_id}: "
        "QP solution fails the infeasibility certificate: gap residual")
    assert not out.exists()


def test_non_finite_demand_cell_exits_one_naming_its_row(tmp_path, capsys):
    # Under zscore-global one nan cell would turn every window into NaN and
    # the run would blame the first window; the load names the cell instead.
    data = tmp_path / "load.csv"
    values = [repr(v) for v in np.random.default_rng(0).standard_normal(30).tolist()]
    values[17] = "nan"
    data.write_text("load\n" + "".join(f"{v}\n" for v in values), encoding="utf-8")
    raw = dict(BASE_CONFIG, dataset={"kind": "csv", "path": str(data), "column": "load"},
               normalization="zscore-global")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: non-finite value 'nan' in column 'load' at row 19\n")
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["cost-adv", "max-action", "mixed"])
@pytest.mark.parametrize("box", [pytest.param({}, id="lqr"),
                                 pytest.param({"action_box": "auto"}, id="auto-box")])
def test_overflowing_budget_exits_one_naming_it(tmp_path, capsys, box, scenario):
    # A budget of 1e308 overflows the attacked series' L s.  The boxed
    # controller refuses that row before its dual iteration runs; the LQR
    # answers it, and the run fails at the realized cost.  Neither warns.
    # "mixed" runs two deltas and three scenarios, and every pair at 1e308
    # overflows.  The cost-adv pairs are solved as one block before the
    # gradient pairs ascend, so the boxed run names cost-adv at 1e308, not
    # the first pair in config order (max-action); the LQR fails at the
    # first block in config order whose cost overflows.
    deltas, scenarios = [1e308], [scenario]
    if scenario == "mixed":
        deltas, scenarios = [1.0, 1e308], ["max-action", "l1", "cost-adv"]
        scenario = "cost-adv"
    raw = dict(BASE_CONFIG, deltas=deltas, scenarios=scenarios, **box)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out-dir", str(out)]) == 1
    if box:
        expected = (f"error: window arima:000000, delta 1e+308, scenario {scenario}: "
                    "the controller's linear term L s overflows; use a smaller delta "
                    "or rescale the series\n")
    else:
        expected = "error: delta 1e+308 overflows the realized cost; use a smaller delta\n"
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_overflowing_norm_exits_one_naming_its_task(tmp_path, capsys):
    # The random step at 1e308 overflows its norm check, which runs before
    # any attacked series is solved (the cost-adv pair at 1e308 passes its
    # own).  The error names the failing row's task, as `attack` names it.
    raw = dict(BASE_CONFIG, deltas=[1.0, 1e308], scenarios=["cost-adv", "random"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        code = main(["experiment", "--config", str(path), "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: window arima:000000, delta 1e+308, scenario random: perturbation norm "
        "inf overflows at delta 1e+308\n")
    assert not out.exists()


def test_overflowing_aggregate_exits_one_naming_it(tmp_path, capsys):
    # Every realized cost is finite, but the percent increase of the cost
    # overflows: the run fails naming the first (delta, scenario) in
    # summary order, and no report is written.
    raw = dict(BASE_CONFIG, deltas=[5.234961240085281e+152],
               dataset={"kind": "arima", "count": 6}, seed=3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: delta 5.234961240085281e+152, scenario cost-adv: the mean percent "
        "increase of j is not finite; use a smaller delta\n")
    assert not out.exists()


def test_removed_check_command_is_unknown(capsys):
    assert main(["check", "jacobian"]) == 1
    assert "invalid choice: 'check'" in capsys.readouterr().err
