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
    TransitionDraw,
    binomial_pmf,
    compile_rates,
    nominal_reward,
    sample_transition,
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
    "TransitionDraw",
    "UnderdeterminedError",
    "binomial_pmf",
    "compile_rates",
    "nominal_reward",
    "sample_transition",
    "transition_pmf",
]
