"""Exception types shared across the package."""


class DemoaugError(Exception):
    """Base class for all package errors."""


# dataset / serialization

class MissingManifest(DemoaugError):
    pass


class SchemaVersionMismatch(DemoaugError):
    pass


class InvariantViolation(DemoaugError):
    pass


class IoFailure(DemoaugError):
    pass


class RangeError(DemoaugError):
    pass


# causal graphs

class DimensionMismatch(DemoaugError):
    pass


# segmentation

class AgentNotFound(DemoaugError):
    pass


class PhaseCountMismatch(DemoaugError):
    pass


# counterfactual engine

class UnlabeledTrajectory(DemoaugError):
    pass


# SE(3) engine

class TargetMissing(DemoaugError):
    pass


class BudgetExhausted(DemoaugError):
    def __init__(self, message, accepted=0, attempts=0):
        super().__init__(message)
        self.accepted = accepted
        self.attempts = attempts


# simulator

class PlacementFailure(DemoaugError):
    pass


class UnknownTask(DemoaugError):
    pass


class UnreachableTarget(DemoaugError):
    pass


class ExpertFailure(DemoaugError):
    pass


class InitialStateMissing(DemoaugError):
    pass


# observation augmentation

class ConfigError(DemoaugError):
    pass


class InvalidPermutation(DemoaugError):
    pass


class ColorJitterRefused(DemoaugError):
    pass


# pipeline

class StageFailure(DemoaugError):
    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
