"""Exception types, and the integer and real-number tests, shared across the package."""

import sys


def is_int(value) -> bool:
    """True for a Python int that is not a bool (JSON true is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a float, or an int that a float can hold (JSON true is not a number)."""
    return isinstance(value, float) or (is_int(value) and abs(value) <= sys.float_info.max)


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
