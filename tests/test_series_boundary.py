"""A series is checked once, where it enters the program.

Every public function that takes a caller's series rejects a bad one with a
ValueError naming it; the solver underneath trusts the checked series, so a
run checks each series a fixed number of times, however many steps its
attacks take.
"""

import argparse
import json
import math
import re
import sys

import numpy as np
import pytest

from tsattack import (
    TargetFunction,
    batch_form,
    calibrate_action_box,
    compile_constraints,
    cost_attack,
    cost_delta_quadratic,
    iterated_attack,
    kkt_residuals,
    parse_config,
    run_experiment,
    single_step_attack,
    solve_qp,
)
from tsattack import cli, experiments, lqr
from tsattack.data import SeriesWindow

from conftest import make_scalar_spec

CHECK_SERIES = lqr.check_series
STACK_WINDOWS = experiments._stack_windows
GOOD = [0.1, 0.2, 0.3]
BAD_SERIES = {
    "nan": [0.1, math.nan, 0.3],
    "inf": [0.1, math.inf, 0.3],
    "wrong-length": [0.1, 0.2],
}


def _attack_csv(tmp_path, batch, s):
    """Run ``tsattack attack`` on a one-window CSV holding s."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "system": {"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": batch.spec.T, "x0": 1},
        "deltas": [1.0], "scenarios": ["random"],
        "dataset": {"kind": "arima", "count": 1}, "seed": 3,
    }), encoding="utf-8")
    series = tmp_path / "in.csv"
    series.write_text("window_id,t,value\n" + "".join(
        f"w,{t},{value!r}\n" for t, value in enumerate(s)), encoding="utf-8")
    cli._cmd_attack(argparse.Namespace(
        scenario="random", delta=1.0, config=str(config), input=str(series),
        out=str(tmp_path / "out.csv")))


#: (entry point, call with the batch, the constraint set, an optimal solve,
#: a scratch directory and the bad series, the name its error must start with)
ENTRY_POINTS = [
    ("cost_attack", lambda b, c, sol, d, s: cost_attack(b, s, 1.0), "s"),
    ("single_step_attack", lambda b, c, sol, d, s: single_step_attack(
        b, c, s, 1.0, TargetFunction.MAX_ACTION), "s"),
    ("iterated_attack", lambda b, c, sol, d, s: iterated_attack(
        b, c, s, 1.0, TargetFunction.L1_ENERGY, steps=2), "s"),
    ("cost_delta_quadratic(s_hat)",
     lambda b, c, sol, d, s: cost_delta_quadratic(b, s, GOOD), "s_hat"),
    ("cost_delta_quadratic(s)",
     lambda b, c, sol, d, s: cost_delta_quadratic(b, GOOD, s), "s"),
    ("kkt_residuals", lambda b, c, sol, d, s: kkt_residuals(b, c, s, sol), "s_obs"),
    # The windows are checked as the experiment checks them, by series id.
    ("calibrate_action_box", lambda b, c, sol, d, s: calibrate_action_box(
        b, [SeriesWindow(values=s, source_id="w", start_index=0)]), "window w:000000"),
    ("experiment windows", lambda b, c, sol, d, s: experiments._stack_windows(
        b, [SeriesWindow(values=s, source_id="w", start_index=0)]), "window w:000000"),
    ("attack CLI", lambda b, c, sol, d, s: _attack_csv(d, b, s), "window w"),
]


@pytest.mark.parametrize("bad", sorted(BAD_SERIES))
@pytest.mark.parametrize("call,name", [(call, name) for _, call, name in ENTRY_POINTS],
                         ids=[entry for entry, _, _ in ENTRY_POINTS])
def test_entry_point_rejects_bad_series(tmp_path, call, name, bad):
    batch = batch_form(make_scalar_spec(T=3))
    cons = compile_constraints(batch.spec, batch, action_box=(-10.0, 10.0))
    sol = solve_qp(batch, cons, np.array(GOOD))
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} "
                                         "(must have length|contains non-finite)"):
        call(batch, cons, sol, tmp_path, BAD_SERIES[bad])


@pytest.mark.parametrize("order", [("nan", "wrong-length"), ("wrong-length", "inf"),
                                   ("inf", "nan")], ids="-then-".join)
def test_stacked_windows_name_the_first_bad_one(order):
    # The block is checked at once, and its error is the per-window check's
    # error of the first bad window; ids name the windows when given.
    batch = batch_form(make_scalar_spec(T=3))
    windows = [SeriesWindow(values=values, source_id="w", start_index=i) for i, values
               in enumerate([GOOD, BAD_SERIES[order[0]], GOOD, BAD_SERIES[order[1]]])]
    with pytest.raises(ValueError) as by_series_id:
        experiments._stack_windows(batch, windows)
    with pytest.raises(ValueError) as by_id:
        experiments._stack_windows(batch, windows, ids=["a", "b", "c", "d"])
    with pytest.raises(ValueError) as alone:
        CHECK_SERIES(batch, BAD_SERIES[order[0]], "window b")
    assert str(by_id.value) == str(alone.value)
    assert str(by_series_id.value) == str(alone.value).replace("window b", "window w:000001")


def test_stacked_windows_keep_every_bit():
    batch = batch_form(make_scalar_spec(T=3))
    rows = np.array([[0.0, -0.0, 5e-324], [1e308, -1e308, 0.1]])
    S = experiments._stack_windows(
        batch, [SeriesWindow(values=row, source_id="w", start_index=0) for row in rows])
    assert S.tobytes() == rows.tobytes()
    assert experiments._stack_windows(batch, []).shape == (0, 3)


def _counting_checks(monkeypatch):
    """Count every series the package checks, under every name its checks
    are imported by: one per check_series call, and one per window of each
    block _stack_windows checks; returns the list that grows by one per
    series."""
    checked = []

    def counting_series(*args, **kwargs):
        checked.append(None)
        return CHECK_SERIES(*args, **kwargs)

    def counting_windows(batch, windows, *args, **kwargs):
        checked.extend(None for _ in windows)
        return STACK_WINDOWS(batch, windows, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if not name.startswith("tsattack"):
            continue
        for attr, counting in (("check_series", counting_series),
                               ("_stack_windows", counting_windows)):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, counting)
    return checked


def _check_series_calls(monkeypatch, **overrides):
    """How many series one small experiment on 3 windows checks."""
    calls = _counting_checks(monkeypatch)
    run_experiment(parse_config(dict({
        "system": {"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 10, "x0": 1},
        "deltas": [0.5, 2.0], "dataset": {"kind": "arima", "count": 3}, "seed": 5,
    }, **overrides)))
    return len(calls)


def test_check_count_does_not_grow_with_attack_steps(monkeypatch):
    # Each of the 3 windows is checked once, where it is stacked; the auto
    # box calibrates on the stacked block, and the gradient attacks start
    # from it.
    for steps in (2, 10):
        assert _check_series_calls(
            monkeypatch, scenarios=["max-action", "l1", "random"],
            action_box="auto", attack={"mode": "iterated", "steps": steps},
        ) == 3


def test_attack_cli_checks_each_window_once(monkeypatch, tmp_path):
    # `tsattack attack` stacks its 3 windows once, and the auto box
    # calibrates on that block.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "system": {"A": 1, "B": -1, "C": 1, "Q": 1, "R": 1, "T": 4, "x0": 1},
        "deltas": [1.0], "scenarios": ["l1"], "action_box": "auto",
        "attack": {"mode": "iterated", "steps": 3},
        "dataset": {"kind": "arima", "count": 1}, "seed": 3,
    }), encoding="utf-8")
    series = tmp_path / "in.csv"
    values = np.random.default_rng(2).standard_normal((3, 4))
    series.write_text("window_id,t,value\n" + "".join(
        f"w{w},{t},{value!r}\n" for w, row in enumerate(values.tolist())
        for t, value in enumerate(row)), encoding="utf-8")
    calls = _counting_checks(monkeypatch)
    cli._cmd_attack(argparse.Namespace(
        scenario="l1", delta=1.0, config=str(config), input=str(series),
        out=str(tmp_path / "out.csv")))
    assert len(calls) == 3


def test_cost_experiment_checks_each_window_once(monkeypatch):
    # The closed-form attack steps from the stacked, checked window.
    assert _check_series_calls(monkeypatch, scenarios=["cost-adv"]) == 3
