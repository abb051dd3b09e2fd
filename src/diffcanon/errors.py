"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but degenerate (e.g. constant features)."""


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge or produced non-finite values."""


class ContractError(RuntimeError):
    """An API was called in a way its contract forbids (e.g. backward on a non-scalar)."""


class ConfigError(ValueError):
    """A configuration value is missing, unknown, or inconsistent."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")

    def __reduce__(self):
        # the default rebuilds from args, which hold only the message
        return type(self), (self.epoch, str(self))
