"""Adversarial perturbations of timeseries forecasts against forecast-driven
LQR/MPC controllers: closed-form cost attacks, gradient attacks through a
differentiable QP solution map, and an experiment harness."""

__version__ = "0.1.0"

from .errors import ConfigurationError, NumericalError
from .lqr import (
    BatchForm,
    SystemSpec,
    batch_form,
    check_series,
    cost_delta_quadratic,
    realized_costs,
    rollout_cost,
)
from .cost_attack import (
    AttackResult,
    EigenPair,
    cost_attack,
    dominant_eigenpair,
    random_sphere_attack,
)
from .qp import (
    ConstraintSet,
    QpSolution,
    compile_constraints,
    kkt_residuals,
    projected_gradient_solve,
    solve_qp,
)
from .grad_attack import (
    TargetFunction,
    iterated_attack,
    single_step_attack,
)
from .data import (
    ArimaSpec,
    SeriesWindow,
    arima_generate,
    load_series_windows,
    normalize_windows,
    read_series_csv,
    sample_random_arima,
    write_series_csv,
)
from .stats import WilcoxonResult, wilcoxon_signed_rank
from .config import (
    AttackConfig,
    DatasetConfig,
    ExperimentConfig,
    load_config,
    parse_config,
    system_spec_from_dict,
)
from .experiments import (
    Record,
    ScenarioStats,
    calibrate_action_box,
    run_experiment,
)
from .report import emit_report

__all__ = [
    "__version__",
    "ConfigurationError", "NumericalError",
    "SystemSpec", "BatchForm", "batch_form", "check_series",
    "rollout_cost", "realized_costs",
    "cost_delta_quadratic",
    "EigenPair", "AttackResult", "dominant_eigenpair", "cost_attack",
    "random_sphere_attack",
    "ConstraintSet", "QpSolution", "compile_constraints", "solve_qp",
    "kkt_residuals", "projected_gradient_solve",
    "TargetFunction", "single_step_attack", "iterated_attack",
    "ArimaSpec", "SeriesWindow", "arima_generate", "sample_random_arima",
    "load_series_windows", "normalize_windows",
    "write_series_csv", "read_series_csv",
    "WilcoxonResult", "wilcoxon_signed_rank",
    "ExperimentConfig", "DatasetConfig", "AttackConfig", "load_config",
    "parse_config", "system_spec_from_dict",
    "Record", "ScenarioStats", "run_experiment",
    "calibrate_action_box", "emit_report",
]
