"""Epidemic-control planning with distribution-ambiguous transition models."""

from .errors import (
    CacheError,
    ConfigError,
    DomainError,
    EpiplanError,
    SolverError,
    UnderdeterminedError,
)
from .seir import (
    Action,
    ContinuousState,
    EpidemicParams,
    transition_pmf,
)

__all__ = [
    "Action",
    "CacheError",
    "ConfigError",
    "ContinuousState",
    "DomainError",
    "EpidemicParams",
    "EpiplanError",
    "SolverError",
    "UnderdeterminedError",
    "transition_pmf",
]
