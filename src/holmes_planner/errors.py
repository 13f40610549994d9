"""Exception and warning types shared across the planner."""


class PlannerError(Exception):
    """Base class for all domain errors raised by this package."""


class TopologyError(PlannerError):
    """A topology value violates a structural invariant."""


class InfeasibleConfigError(PlannerError):
    """A parallel configuration cannot be realised on the given topology."""


class InvalidPlanError(PlannerError):
    """A group plan is empty or structurally unusable."""


class InconsistentPlanError(PlannerError):
    """Plan, partition, and model shapes disagree."""


class MemoryExceededError(PlannerError):
    """A layer allocation does not fit a cluster's memory budget."""


class InfeasibleAlphaError(PlannerError):
    """Layer-allocation scaling left a cluster with no layers."""


class InvalidDeviceError(PlannerError):
    """A device spec cannot support the requested computation."""


class NotApplicableError(PlannerError):
    """An analytic shortcut was asked about inputs outside its domain."""


class ConfigError(PlannerError):
    """Malformed input: a scenario document that fails to parse or check,
    or an output path that cannot be written."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ClampWarning(UserWarning):
    """A layer split was clamped to keep every stage non-empty."""
