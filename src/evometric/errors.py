"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class EvoMetricError(Exception):
    """Base class for all toolkit errors."""


class StructuralError(EvoMetricError):
    """Shape or naming mismatch: wrong vector length, unknown variable, size mismatch."""


class DataValidationError(EvoMetricError):
    """Invalid input values: NaN writes, malformed parameters, bad configuration;
    ``row`` is the first bad row when a block of states was checked."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class EvaluationError(EvoMetricError):
    """Expression evaluation failed (division by zero, sqrt of a negative, ...)."""


class SemanticError(EvoMetricError):
    """A process violated a semantic contract, e.g. an if-guard not evaluating to 0/1."""


class ProcessValidationError(EvoMetricError):
    """A process failed validation against its definitions table and data space."""

    def __init__(self, message: str, issues: list | None = None):
        super().__init__(message)
        self.issues = list(issues) if issues else []


class SimulationError(EvoMetricError):
    """A run failed mid-simulation; carries run and step context when known."""

    def __init__(self, message: str, run: int | None = None, step: int | None = None):
        super().__init__(message)
        self.run = run
        self.step = step


class ShortfallError(EvoMetricError):
    """Rejection sampling exhausted its budget before accepting enough candidates."""

    def __init__(self, message: str, accepted: int, requested: int, attempts: int):
        super().__init__(message)
        self.accepted = accepted
        self.requested = requested
        self.attempts = attempts


class PreconditionError(EvoMetricError):
    """A documented precondition of an operation was not met."""
