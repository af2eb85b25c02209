"""Exception types shared across the package."""


class EpiplanError(Exception):
    """Base class for all package errors."""


class DomainError(EpiplanError):
    """An argument is outside the operation's documented domain."""


class UnderdeterminedError(EpiplanError):
    """A regression has too few distinct design points to identify its coefficients."""


class ConfigError(EpiplanError):
    """A configuration file or value is malformed or out of range."""


class SolverError(EpiplanError):
    """The optimization engine hit an internal inconsistency (not infeasibility)."""


class CacheError(EpiplanError):
    """A persisted kernel cache is truncated, corrupt, or off the model's grid."""
