"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid system, constraint, dataset, or experiment configuration."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or failed its own check (such
    as the QP solver's KKT or Farkas check)."""
