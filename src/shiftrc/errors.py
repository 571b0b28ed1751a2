"""Exception types shared across the toolkit."""


class ShiftRcError(Exception):
    """Base class for all toolkit-specific errors."""


class DivergenceError(ShiftRcError):
    """A simulated state became non-finite."""

    def __init__(self, step: int, what: str = "state"):
        self.step = step
        self.what = what
        super().__init__(f"{what} became non-finite at step {step}")


class DegenerateSignalError(ShiftRcError, ValueError):
    """A signal has (near-)zero variance and cannot be standardized."""


class DegenerateTargetError(ShiftRcError, ValueError):
    """A target signal has (near-)zero energy and the NRMSE is undefined."""


class SingularMatrixError(ShiftRcError, ValueError):
    """A least-squares design matrix is rank deficient and lambda is zero."""

    def __init__(self, estimated_rank: int, n_cols: int):
        self.estimated_rank = estimated_rank
        self.n_cols = n_cols
        super().__init__(
            f"design matrix is rank deficient (estimated rank {estimated_rank} "
            f"of {n_cols} columns); use a positive ridge parameter"
        )


class ConfigError(ShiftRcError, ValueError):
    """A run configuration is malformed or internally inconsistent."""
