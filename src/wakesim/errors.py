"""Shared exception types.

Kept in one place so the CLI can map error categories to exit codes
without importing half the package.
"""


class WakesimError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(WakesimError):
    """Invalid configuration file or option value."""


class DataError(WakesimError):
    """Input data is missing, inconsistent, or unusable."""


class ParseError(DataError):
    """A byte stream or text file does not follow its declared format."""


class TrainingDiverged(WakesimError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")
