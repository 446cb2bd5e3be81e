"""Exception types, and the one integer test, shared across the package."""


def is_int(value) -> bool:
    """True for a Python int that is not a bool (JSON true is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


class ParameterError(ValueError):
    """A parameter violates its documented domain."""


class ConfigError(ParameterError):
    """An experiment configuration file or override is malformed."""


class DepthError(ParameterError):
    """A generation index exceeds the constructed depth."""


class BudgetError(RuntimeError):
    """A resource budget (atom count, grid size) would be exceeded."""


class SingularityError(ArithmeticError):
    """A kernel was evaluated at zero separation without truncation or exclusion."""
