"""Exception hierarchy shared across the package."""


class LobSadError(Exception):
    """Base class for all package errors."""


class ConfigError(LobSadError):
    """Invalid configuration (bad dims, infeasible generator settings, bad config file)."""


class ShapeError(LobSadError):
    """Array shape does not match the model or expected layout."""


class DataError(LobSadError):
    """Bad input data: non-finite values, crossed books, out-of-range labels."""


class SchemaError(LobSadError):
    """CSV header does not match the expected column schema."""


class DivergenceError(LobSadError):
    """Training produced non-finite or exploding losses."""


class WorkerError(LobSadError):
    """A worker process ended before it reported its result."""
