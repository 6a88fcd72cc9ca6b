"""Experiment configuration: JSON schema parsing with strict key checking."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from .data import NORMALIZATION_MODES
from .errors import ConfigurationError
from .lqr import SystemSpec

SCENARIOS = ("cost-adv", "random", "max-action", "min-action", "l1", "cost-gradient")
ATTACK_MODES = ("single-step", "iterated")


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown key(s) {unknown} in {where}")


def _integer(value, name: str, minimum: Optional[int] = None) -> int:
    """``value`` itself if it is an integer of at least ``minimum``.

    Floats are rejected rather than truncated; booleans are not integers.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return value


def _string(value, name: str) -> str:
    """``value`` itself if it is a string; numbers are not coerced."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{name} must be a string, got {value!r}")
    return value


def system_spec_from_dict(section: dict) -> SystemSpec:
    """Build a SystemSpec from config; scalars are the n=m=p=1 shorthand."""
    if not isinstance(section, dict):
        raise ConfigurationError("'system' must be an object")
    _reject_unknown(section, ("A", "B", "C", "Q", "R", "T", "x0"), "system")
    missing = [key for key in ("A", "B", "C", "Q", "R", "T", "x0") if key not in section]
    if missing:
        raise ConfigurationError(f"system is missing key(s) {missing}")
    return SystemSpec(
        A=section["A"], B=section["B"], C=section["C"],
        Q=section["Q"], R=section["R"], T=section["T"], x0=section["x0"],
    )


@dataclass(frozen=True)
class DatasetConfig:
    kind: str  # "arima" | "csv"
    count: int = 100
    seed: Optional[int] = None  # default: experiment seed
    path: Optional[str] = None
    column: Optional[str] = None
    stride: Optional[int] = None


@dataclass(frozen=True)
class AttackConfig:
    mode: str = "iterated"
    steps: int = 20
    step_size: Optional[float] = None  # default: delta / 10 at run time


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemSpec
    deltas: Tuple[float, ...]
    scenarios: Tuple[str, ...]
    dataset: DatasetConfig
    normalization: str
    action_box: Optional[object]  # "auto" or (u_min, u_max)
    state_box: Optional[Tuple[object, object]]
    attack: AttackConfig
    seed: int
    out_dir: Optional[str] = None
    series_dump_limit: int = 5
    raw: dict = field(default_factory=dict)


def _parse_dataset(section: dict) -> DatasetConfig:
    if not isinstance(section, dict):
        raise ConfigurationError("'dataset' must be an object")
    kind = section.get("kind")
    if kind == "arima":
        _reject_unknown(section, ("kind", "count", "seed"), "dataset")
        seed = section.get("seed")
        return DatasetConfig(
            kind="arima",
            count=_integer(section.get("count", 100), "dataset count", minimum=1),
            seed=None if seed is None else _integer(seed, "dataset seed", minimum=0),
        )
    if kind == "csv":
        _reject_unknown(section, ("kind", "path", "column", "stride"), "dataset")
        if "path" not in section or "column" not in section:
            raise ConfigurationError("csv dataset requires 'path' and 'column'")
        stride = section.get("stride")
        return DatasetConfig(
            kind="csv",
            path=_string(section["path"], "dataset path"),
            column=_string(section["column"], "dataset column"),
            stride=None if stride is None else _integer(stride, "dataset stride",
                                                        minimum=1),
        )
    raise ConfigurationError(f"dataset kind must be 'arima' or 'csv', got {kind!r}")


def _parse_box(section, name: str):
    if section is None:
        return None
    if section == "auto":
        if name == "state_box":
            raise ConfigurationError("state_box does not support 'auto' calibration")
        return "auto"
    if not isinstance(section, dict):
        raise ConfigurationError(f"'{name}' must be an object, null, or 'auto'")
    lo_key, hi_key = ("u_min", "u_max") if name == "action_box" else ("x_min", "x_max")
    _reject_unknown(section, (lo_key, hi_key), name)
    if lo_key not in section or hi_key not in section:
        raise ConfigurationError(f"{name} requires {lo_key} and {hi_key}")
    return (section[lo_key], section[hi_key])


def _parse_attack(section) -> AttackConfig:
    if section is None:
        return AttackConfig()
    if not isinstance(section, dict):
        raise ConfigurationError("'attack' must be an object")
    _reject_unknown(section, ("mode", "steps", "step_size"), "attack")
    mode = section.get("mode", "iterated")
    if mode not in ATTACK_MODES:
        raise ConfigurationError(f"attack mode must be one of {ATTACK_MODES}, got {mode!r}")
    unused = [key for key in ("steps", "step_size") if key in section]
    if mode == "single-step" and unused:
        raise ConfigurationError(
            f"attack mode single-step takes no {' or '.join(unused)}")
    steps = _integer(section.get("steps", 20), "attack steps", minimum=1)
    step_size = section.get("step_size")
    if step_size is not None and (
        isinstance(step_size, bool) or not isinstance(step_size, (int, float))
        or not 0 < step_size < math.inf
    ):
        raise ConfigurationError(
            f"attack step_size must be a positive finite number, got {step_size!r}"
        )
    return AttackConfig(mode=mode, steps=steps,
                        step_size=None if step_size is None else float(step_size))


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    allowed = (
        "system", "deltas", "scenarios", "dataset", "normalization",
        "action_box", "state_box", "attack", "seed", "out_dir",
        "series_dump_limit",
    )
    _reject_unknown(raw, allowed, "config")
    for key in ("system", "deltas", "scenarios", "dataset", "seed"):
        if key not in raw:
            raise ConfigurationError(f"config is missing required key {key!r}")

    deltas = raw["deltas"]
    if not isinstance(deltas, (list, tuple)) or not all(
        isinstance(d, (int, float)) and not isinstance(d, bool) for d in deltas
    ):
        raise ConfigurationError(f"deltas must be a list of numbers, got {deltas!r}")
    deltas = tuple(float(d) for d in deltas)
    if not deltas or not all(0 < d < math.inf for d in deltas):
        raise ConfigurationError("deltas must be a non-empty list of positive finite numbers")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ConfigurationError("deltas must be strictly ascending")

    scenarios = raw["scenarios"]
    if not isinstance(scenarios, (list, tuple)):
        raise ConfigurationError(
            f"scenarios must be a list of scenario names, got {scenarios!r}")
    scenarios = tuple(scenarios)
    if not scenarios:
        raise ConfigurationError("at least one scenario is required")
    for scenario in scenarios:
        if scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {scenario!r}; expected one of {SCENARIOS}"
            )
    if len(set(scenarios)) < len(scenarios):
        raise ConfigurationError(f"scenarios must not repeat, got {list(scenarios)}")

    dataset = _parse_dataset(raw["dataset"])
    normalization = raw.get("normalization")
    if normalization is None:
        # Demand CSVs arrive in raw physical units; z-score them by default
        # so the perturbation budgets stay meaningful.  Synthetic ARIMA is
        # already unit scale.
        normalization = "zscore-global" if dataset.kind == "csv" else "none"
    if normalization not in NORMALIZATION_MODES:
        raise ConfigurationError(
            f"normalization must be one of {NORMALIZATION_MODES}, got {normalization!r}"
        )

    limit = _integer(raw.get("series_dump_limit", 5), "series_dump_limit", minimum=0)
    out_dir = raw.get("out_dir")

    return ExperimentConfig(
        system=system_spec_from_dict(raw["system"]),
        deltas=deltas,
        scenarios=scenarios,
        dataset=dataset,
        normalization=normalization,
        action_box=_parse_box(raw.get("action_box"), "action_box"),
        state_box=_parse_box(raw.get("state_box"), "state_box"),
        attack=_parse_attack(raw.get("attack")),
        seed=_integer(raw["seed"], "seed", minimum=0),
        out_dir=None if out_dir is None else _string(out_dir, "out_dir"),
        series_dump_limit=limit,
        raw=raw,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(raw)
