import csv
import json

import numpy as np
import pytest

from tsattack import TargetFunction, batch_form, load_config, read_series_csv
from tsattack.cli import main
from tsattack.experiments import constraints_for, run_grad_attack

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


class TestAttackCommands:
    def _gen_input(self, tmp_path, horizon=10, count=3, seed=5):
        path = tmp_path / "input.csv"
        main(["gen-arima", "--seed", str(seed), "--count", str(count),
              "--horizon", str(horizon), "--out", str(path)])
        return path

    def test_attack_cost(self, tmp_path, config_path):
        inp = self._gen_input(tmp_path)
        out = tmp_path / "attacked.csv"
        code = main(["attack", "cost", "--config", str(config_path),
                     "--delta", "1.0", "--in", str(inp), "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["window_id", "t", "original", "attacked"]
        assert len(rows) == 1 + 3 * 10
        moved = np.array([float(r[3]) - float(r[2]) for r in rows[1:11]])
        assert np.isclose(np.linalg.norm(moved), 1.0)

    def test_attack_constraint(self, tmp_path, config_path):
        cfg = dict(BASE_CONFIG, action_box={"u_min": -2.0, "u_max": 2.0})
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        inp = self._gen_input(tmp_path)
        out = tmp_path / "attacked.csv"
        code = main(["attack", "constraint", "--target", "max-action",
                     "--delta", "0.5", "--steps", "4",
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
        code = main(["attack", "constraint", "--target", "l1", "--delta", "2.0",
                     "--config", str(path), "--in", str(inp), "--out", str(out)])
        assert code == 0
        cfg = load_config(path)
        batch = batch_form(cfg.system)
        windows = read_series_csv(inp)
        cons = constraints_for(cfg, batch, windows)
        expected = [repr(float(v)) for window in windows
                    for v in run_grad_attack(batch, cons, window.values, 2.0,
                                             TargetFunction.L1_ENERGY,
                                             cfg.attack).s_hat]
        assert [row[3] for row in read_rows(out)[1:]] == expected

    def test_negative_step_size_exits_one(self, tmp_path, capsys):
        cfg = dict(BASE_CONFIG, action_box={"u_min": -2.0, "u_max": 2.0})
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        inp = self._gen_input(tmp_path)
        code = main(["attack", "constraint", "--target", "max-action",
                     "--delta", "0.5", "--step-size", "-0.1",
                     "--config", str(path), "--in", str(inp),
                     "--out", str(tmp_path / "attacked.csv")])
        assert code == 1
        assert "step_size must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--steps", "3"], ["--step-size", "-1"]])
    def test_step_flags_under_single_step_config_exit_one(self, tmp_path, capsys,
                                                          flags):
        cfg = dict(BASE_CONFIG, action_box={"u_min": -2.0, "u_max": 2.0},
                   attack={"mode": "single-step"})
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        inp = self._gen_input(tmp_path)
        out = tmp_path / "attacked.csv"
        code = main(["attack", "constraint", "--target", "max-action",
                     "--delta", "0.5", *flags, "--config", str(path),
                     "--in", str(inp), "--out", str(out)])
        assert code == 1
        assert "single-step" in capsys.readouterr().err
        assert not out.exists()
        code = main(["attack", "constraint", "--target", "max-action",
                     "--delta", "0.5", "--config", str(path),
                     "--in", str(inp), "--out", str(out)])
        assert code == 0
        assert len(read_rows(out)) == 1 + 3 * 10

    def test_window_length_mismatch_exits_one(self, tmp_path, config_path, capsys):
        inp = self._gen_input(tmp_path, horizon=7)
        out = tmp_path / "attacked.csv"
        code = main(["attack", "cost", "--config", str(config_path),
                     "--delta", "1.0", "--in", str(inp), "--out", str(out)])
        assert code == 1
        assert ("window arima:000000 must have length p*T = 10, got 7"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("kind", ["cost", "constraint"])
    def test_non_finite_window_exits_one(self, tmp_path, capsys, kind):
        cfg = dict(BASE_CONFIG, action_box="auto")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        inp = self._gen_input(tmp_path)
        rows = read_rows(inp)
        rows[15][2] = "nan"  # window 1, t = 4
        with open(inp, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        target = ["--target", "max-action"] if kind == "constraint" else []
        code = main(["attack", kind, *target, "--config", str(path),
                     "--delta", "1.0", "--in", str(inp),
                     "--out", str(tmp_path / "attacked.csv")])
        assert code == 1
        assert (f"window {rows[15][0]} contains non-finite entries"
                in capsys.readouterr().err)

    def test_missing_input_exits_three(self, tmp_path, config_path, capsys):
        code = main(["attack", "cost", "--config", str(config_path),
                     "--delta", "1.0", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3


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
        a = open(dirs[0] / "records.csv", "rb").read()
        b = open(dirs[1] / "records.csv", "rb").read()
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

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, bogus=1)),
                        encoding="utf-8")
        assert main(["experiment", "--config", str(path),
                     "--out-dir", str(tmp_path / "o")]) == 1


class TestCheckJacobian:
    def test_passes(self, capsys):
        code = main(["check", "jacobian", "--seed", "1", "--instances", "8"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_oracle_failure_exits_two(self, monkeypatch, capsys):
        import tsattack.cli as cli

        monkeypatch.setattr(cli, "jacobian_selftest", lambda seed, instances: {
            "instances": instances, "skipped_weakly_active": 0,
            "skipped_infeasible": 0, "max_abs_error": 1.0, "tolerance": 1e-5,
            "failures": [{"instance_seed": 9, "error": 1.0}], "passed": False,
        })
        assert main(["check", "jacobian"]) == 2
        assert "FAILED instance seed 9" in capsys.readouterr().err

    def test_numerical_error_exits_two(self, monkeypatch, capsys):
        import tsattack.cli as cli
        from tsattack import NumericalError

        def explode(seed, instances):
            raise NumericalError("solver blew up")

        monkeypatch.setattr(cli, "jacobian_selftest", explode)
        assert main(["check", "jacobian"]) == 2
