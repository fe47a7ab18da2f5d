"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: configuration problems exit with 2,
numerical failures with 3, and violations of the structural or data
hypotheses of the scheme with 4.
"""


class FracchError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigurationError(FracchError):
    """Invalid construction parameters or malformed configuration input."""

    exit_code = 2


class DimensionError(ConfigurationError):
    """Field and basis live on different grids or have mismatched sizes."""


class OperatorError(ConfigurationError):
    """A matrix or basis fails the requirements for a monotone selfadjoint operator."""


class NumericalError(FracchError):
    """An iterative solve failed to reach its tolerance within budget."""

    exit_code = 3


class StepError(NumericalError):
    """Newton failed on a time step; carries the residual history."""

    def __init__(self, message, residual_history=None, step_index=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
        self.step_index = step_index


class CoercivityError(NumericalError):
    """No quadratic lower bound could be certified for a potential split."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


class HypothesisError(FracchError):
    """A structural or data hypothesis required by the scheme is violated."""

    exit_code = 4


class SpectrumHypothesisError(HypothesisError):
    """The first-eigenvalue alternative fails: need lambda_1 > 0, or
    0 = lambda_1 < lambda_2 with a constant first mode."""


class ConstantSpanHypothesisError(HypothesisError):
    """Constants are not representable in the second operator's basis
    although the first operator has a zero eigenvalue."""


class InitialDataHypothesisError(HypothesisError):
    """The initial state has non-integrable convex energy."""


class MeanInteriorHypothesisError(HypothesisError):
    """The initial mean is not in the interior of the graph domain."""


class SourceTailHypothesisError(HypothesisError):
    """The source does not settle: u - u_inf is not square integrable in time."""


class DomainError(FracchError):
    """A point lies outside the effective domain of a graph or potential."""

    exit_code = 3


class BranchError(FracchError):
    """An analysis routine was called on the wrong eigenvalue branch."""

    exit_code = 3


class InsufficientDataError(FracchError):
    """Not enough stored snapshots to run the requested analysis."""

    exit_code = 3
