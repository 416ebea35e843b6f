"""Exception types shared across the package: one per way a caller handles
a failure. The README's "Errors and exit codes" gives the CLI exit code of
each."""


class DemoaugError(Exception):
    """Base class for all package errors."""


class InvariantViolation(DemoaugError):
    """Input or state that breaks a documented invariant: a malformed file,
    a value out of range, an inconsistent task, or an expert or replay that
    cannot go on."""


class IoFailure(DemoaugError):
    """A file or directory that cannot be found, read or written."""


class ConfigError(DemoaugError):
    """A pipeline config, stage parameter or augmentation setting that is
    malformed or out of range."""


class BudgetExhausted(DemoaugError):
    def __init__(self, message, accepted=0, attempts=0):
        super().__init__(message)
        self.accepted = accepted
        self.attempts = attempts


class ColorJitterRefused(DemoaugError):
    pass


class StageFailure(DemoaugError):
    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
