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
    CompiledRates,
    ContinuousState,
    EpidemicParams,
    compile_rates,
    nominal_reward,
    transition_pmf,
)

__all__ = [
    "Action",
    "CacheError",
    "CompiledRates",
    "ConfigError",
    "ContinuousState",
    "DomainError",
    "EpidemicParams",
    "EpiplanError",
    "SolverError",
    "UnderdeterminedError",
    "compile_rates",
    "nominal_reward",
    "transition_pmf",
]
