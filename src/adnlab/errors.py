"""Exception hierarchy shared by all adnlab modules."""


class AdnlabError(Exception):
    """Base class for every error raised by this package."""


class ModelValidationError(AdnlabError, ValueError):
    """A model object violates its structural invariants (bad parameter,
    dangling bus reference, disconnected graph, ...).  Also a
    ``ValueError``, since each names a value out of range."""


class DegenerateVoltageError(AdnlabError):
    """A voltage magnitude fell to or below the floor where current
    injections become ill-defined."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class ConfigurationError(AdnlabError):
    """Inconsistent controller or analysis configuration."""


class NonConvergenceError(AdnlabError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message, residual_norm=None, worst_index=None,
                 worst_name=None, iterations=None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.worst_index = worst_index
        self.worst_name = worst_name
        self.iterations = iterations


class SingularJacobianError(AdnlabError):
    """The Jacobian (or the algebraic block of a DAE) is numerically
    singular."""


class IntegrationError(AdnlabError):
    """A time-integration step failed to converge."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class ScenarioError(AdnlabError):
    """A scenario file failed to parse or validate."""
