"""Exception taxonomy shared across the package.

Argument-validation failures that don't deserve their own class raise plain
ValueError.
"""


class DomainError(ValueError):
    """A query point lies outside the function's domain."""


class BudgetError(RuntimeError):
    """The oracle's query budget is exhausted."""


class ScheduleError(ValueError):
    """Round schedule is infeasible (budget too small for the round count)."""


class DataError(ValueError):
    """Not enough usable data points for a fit."""


class FieldError(ValueError):
    """A config field holds an invalid value; ``field`` names it."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)
