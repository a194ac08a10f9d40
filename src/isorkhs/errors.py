"""Exception hierarchy shared across the package.

The classes map onto the CLI exit codes: input/domain problems exit 2,
numerical failures (non-convergence, singular systems, bad evaluations)
exit 3, and violated mathematical invariants exit 1.
"""

from __future__ import annotations


class IsorkhsError(Exception):
    """Base class for all library errors."""


class InputError(IsorkhsError, ValueError):
    """Malformed or structurally inconsistent input data."""


class DomainError(IsorkhsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EvaluationError(IsorkhsError, ArithmeticError):
    """A function produced a non-finite value where a finite one is required."""


class ConvergenceError(IsorkhsError, RuntimeError):
    """Adaptive refinement hit its depth limit before meeting the tolerance.

    Carries the best estimate computed so far together with the error bound
    the estimate is known to satisfy: floats, or arrays with one entry per
    integral for a stacked integrand.
    """

    def __init__(self, message: str, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class SingularSystemError(IsorkhsError, RuntimeError):
    """A linear system could not be solved to the required accuracy."""


class InvariantViolationError(IsorkhsError, RuntimeError):
    """A mathematical invariant the library guarantees failed to hold."""
