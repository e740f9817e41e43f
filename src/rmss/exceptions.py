"""Exception and warning types shared across the package.

Every error derives from one of two bases, and the base's ``exit_code`` is
the command-line exit code the error gives: a :class:`SolverError` exits 2,
an :class:`InputError` (bad configuration or input) exits 3.
"""


class RmssError(Exception):
    """Base class for all errors raised by this package."""


class SolverError(RmssError):
    """A computation on valid input failed (CLI exit code 2)."""

    exit_code = 2


class InputError(RmssError):
    """Invalid configuration or input (CLI exit code 3)."""

    exit_code = 3


class ParseError(InputError):
    """Case file is syntactically malformed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(InputError):
    """A required table or column is missing from the case file."""


class TopologyError(InputError):
    """Network references are inconsistent (dangling bus, bad slack count)."""


class EmptySelection(InputError):
    """An essential-component selector matched nothing."""


class NonConvergence(SolverError):
    """A power flow required by the pipeline failed to converge."""

    def __init__(self, message: str, solution=None):
        super().__init__(message)
        self.solution = solution


class JacobianSingular(SolverError):
    """Factorization of the network Jacobian failed."""


class NotConverged(SolverError):
    """Operation requires a converged power-flow solution."""


class UnknownBus(InputError):
    """A referenced bus id does not exist in the case."""


class ZeroStep(InputError):
    """Finite-difference step must be positive."""


class ModelEvaluationError(SolverError):
    """A sampled model evaluation failed."""


class InvalidProbability(InputError):
    """Confidence level must lie strictly between 0 and 1."""


class DegenerateDirection(SolverError):
    """Metric is insensitive to every varying parameter (lambda' Sigma lambda ~ 0)."""


class MissingLimits(InputError):
    """A metric bus has no voltage limits to count violations against."""


class NotPSD(InputError):
    """Covariance matrix is not positive semidefinite."""


class AllSamplesFailed(SolverError):
    """Every Monte Carlo sample failed to converge."""


class ExcessiveFailureRate(SolverError):
    """Monte Carlo failure rate too high for a representative comparison."""


class DimensionMismatch(InputError):
    """Two reports do not share metric/parameter ordering."""


class ConfigError(InputError):
    """Invalid run configuration."""


class SingularityWarning(UserWarning):
    """A bus has no incident admittance; the system matrix will be singular."""
