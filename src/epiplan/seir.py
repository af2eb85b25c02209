"""Stochastic SEIR population dynamics: exact transition laws and stage costs.

The population of size N is tracked through fractions (p_S, p_E, p_I); the
recovered fraction is implicit.  One period of disease progression draws three
independent binomial counts (new exposures, new infectious, new recoveries)
whose success probabilities depend on the control action: a vaccination level
y_V that immediately removes susceptibles, and an intervention level y_R that
scales the contact rate down.

Only the exposure count B depends on the action: y_V sets its number of trials
and y_R its success probability.  The (C, D) counts have the same law under
every action, which is what lets ``grid.discretize_kernel`` push all rows of a
state at once.  ``transition_pmf`` gives the per-action atom table and is the
reference that push is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError

# Kernel truncation tolerances, hashed into the cache key.  Binomial entries
# below MARGINAL_TOL and joint atom masses below JOINT_TOL are dropped before
# the push; pushed corner masses below ENTRY_TOL are dropped after it.  Each
# drop is followed by renormalization; the discarded mass is far below 1e-9.
MARGINAL_TOL = 1e-12
JOINT_TOL = 1e-15
ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class EpidemicParams:
    """Model constants: population, disease rates, cost coefficients, horizon.

    N: population size (persons)
    mu: contact rate per period without intervention
    beta: per-contact infection probability
    alpha0: maximum fractional contact reduction at the strongest intervention
    l_C: mean incubation period; l_D: mean infectious period
    Q: vaccine unit price; k_R: cost per intervention level;
    W: health-plus-treatment loss per infection
    L, M: number of nonzero vaccination / intervention levels
    lam: discount factor; T: horizon (stages 1..T, decisions at 1..T-1)
    """

    N: int = 1000
    mu: float = 10.0
    beta: float = 0.025
    alpha0: float = 0.9
    l_C: float = 0.5
    l_D: float = 1.0 / 3.0
    Q: float = 2.0
    k_R: float = 500.0
    W: float = 1000.0
    L: int = 5
    M: int = 5
    lam: float = 0.95
    T: int = 12

    def __post_init__(self) -> None:
        if self.N < 1:
            raise DomainError(f"N must be >= 1, got {self.N}")
        if self.mu < 0:
            raise DomainError(f"mu must be >= 0, got {self.mu}")
        if not 0.0 <= self.beta <= 1.0:
            raise DomainError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 <= self.alpha0 <= 1.0:
            raise DomainError(f"alpha0 must be in [0, 1], got {self.alpha0}")
        if self.l_C <= 0 or self.l_D <= 0:
            raise DomainError("l_C and l_D must be positive")
        if self.L < 1 or self.M < 1:
            raise DomainError("L and M must be >= 1")
        if not 0.0 < self.lam <= 1.0:
            raise DomainError(f"lambda must be in (0, 1], got {self.lam}")
        if self.T < 2:
            raise DomainError(f"T must be >= 2, got {self.T}")
        if min(self.Q, self.k_R, self.W) < 0:
            raise DomainError("cost coefficients must be nonnegative")

    @property
    def rho_C(self) -> float:
        return 1.0 - math.exp(-self.l_C)

    @property
    def rho_D(self) -> float:
        return 1.0 - math.exp(-self.l_D)

    def actions(self) -> list["Action"]:
        """All (L+1)(M+1) actions in lexicographic (y_V, y_R) order."""
        return [Action(v, r) for v in range(self.L + 1) for r in range(self.M + 1)]


@dataclass(frozen=True)
class ContinuousState:
    """Population fractions (p_S, p_E, p_I); the recovered share is the rest."""

    p_S: float
    p_E: float
    p_I: float

    def __post_init__(self) -> None:
        for name in ("p_S", "p_E", "p_I"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must be in [0, 1], got {v}")
        if self.p_S + self.p_E + self.p_I > 1.0 + 1e-12:
            raise DomainError(
                f"fractions sum to {self.p_S + self.p_E + self.p_I} > 1"
            )

    def counts(self, N: int) -> tuple[int, int, int]:
        """Integer compartment counts, rounding N*p to the nearest person."""
        return (round(N * self.p_S), round(N * self.p_E), round(N * self.p_I))

    @classmethod
    def from_counts(cls, N: int, n_S: int, n_E: int, n_I: int) -> "ContinuousState":
        return cls(n_S / N, n_E / N, n_I / N)


@dataclass(frozen=True)
class Action:
    """Control pair: vaccination level y_V in 0..L, intervention level y_R in 0..M."""

    y_V: int
    y_R: int

    def __post_init__(self) -> None:
        if self.y_V < 0 or self.y_R < 0:
            raise DomainError(f"action levels must be nonnegative, got {self}")


@dataclass(frozen=True)
class CompiledRates:
    """Per-period probabilities implied by (params, state, action)."""

    phi: float      # susceptible -> exposed, per remaining susceptible
    rho_C: float    # exposed -> infectious
    rho_D: float    # infectious -> recovered
    alpha_t: float  # realized contact reduction


@dataclass(frozen=True)
class TransitionDraw:
    """One realization of the three binomial counts."""

    n_B: int
    n_C: int
    n_D: int


def _check_action(params: EpidemicParams, action: Action) -> None:
    if action.y_V > params.L or action.y_R > params.M:
        raise DomainError(f"action {action} outside bounds L={params.L}, M={params.M}")


def compile_rates(
    params: EpidemicParams, state: ContinuousState, action: Action
) -> CompiledRates:
    """Evaluate the closed-form per-period probabilities for one state-action pair."""
    _check_action(params, action)
    alpha_t = params.alpha0 * action.y_R / params.M
    phi = 1.0 - math.exp(-(1.0 - alpha_t) * params.mu * state.p_I * params.beta)
    return CompiledRates(phi=phi, rho_C=params.rho_C, rho_D=params.rho_D, alpha_t=alpha_t)


def binomial_pmf(n: int, p: float, k: int) -> float:
    """P[Bin(n, p) = k], computed in log space so large n stays finite."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    if k < 0 or k > n:
        raise DomainError(f"k must be in [0, n], got k={k}, n={n}")
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    log_pmf = (
        gammaln(n + 1)
        - gammaln(k + 1)
        - gammaln(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    return float(math.exp(log_pmf))


def binomial_row(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Support values and pmf of Bin(n, p), keeping entries with mass >= MARGINAL_TOL."""
    ks = np.arange(n + 1)
    if p == 0.0:
        return np.array([0]), np.array([1.0])
    if p == 1.0:
        return np.array([n]), np.array([1.0])
    log_pmf = (
        gammaln(n + 1)
        - gammaln(ks + 1)
        - gammaln(n - ks + 1)
        + ks * math.log(p)
        + (n - ks) * math.log1p(-p)
    )
    pmf = np.exp(log_pmf)
    keep = pmf >= MARGINAL_TOL
    if not keep.any():
        keep[int(np.argmax(pmf))] = True
    return ks[keep], pmf[keep]


@dataclass
class TransitionTable:
    """Sparse joint law of one period: draws, successor fractions, probabilities.

    Rows are sorted lexicographically by (n_B, n_C, n_D).
    """

    draws: np.ndarray   # (n, 3) int
    points: np.ndarray  # (n, 3) float, successor (p_S, p_E, p_I)
    probs: np.ndarray   # (n,) float, sums to 1

    def __len__(self) -> int:
        return len(self.probs)


def vaccination_trials(params: EpidemicParams, n_S: int, y_V: int) -> int:
    """Susceptibles left to draw exposures from after vaccinating at level y_V."""
    return round(n_S * (1.0 - y_V / params.L))


def transition_pmf(
    params: EpidemicParams, state: ContinuousState, action: Action
) -> TransitionTable:
    """Exact one-period transition law of one action as a sparse atom table.

    Marginal binomial entries below MARGINAL_TOL and joint products below
    JOINT_TOL are dropped, then the table is renormalized.
    """
    _check_action(params, action)
    N = params.N
    n_S, n_E, n_I = state.counts(N)
    rates = compile_rates(params, state, action)
    trials_B = vaccination_trials(params, n_S, action.y_V)

    kB, pB = binomial_row(trials_B, rates.phi)
    kC, pC = binomial_row(n_E, rates.rho_C)
    kD, pD = binomial_row(n_I, rates.rho_D)

    prob = pB[:, None, None] * pC[None, :, None] * pD[None, None, :]
    B = np.broadcast_to(kB[:, None, None], prob.shape)
    C = np.broadcast_to(kC[None, :, None], prob.shape)
    D = np.broadcast_to(kD[None, None, :], prob.shape)

    keep = prob >= JOINT_TOL
    prob = prob[keep]
    B, C, D = B[keep], C[keep], D[keep]

    points = np.empty((len(prob), 3))
    points[:, 0] = (trials_B - B) / N
    points[:, 1] = (n_E + B - C) / N
    points[:, 2] = (n_I + C - D) / N

    prob = prob / prob.sum()
    draws = np.stack([B, C, D], axis=1)
    return TransitionTable(draws=draws, points=points, probs=prob)


def sample_transition(
    params: EpidemicParams,
    state: ContinuousState,
    action: Action,
    rng: np.random.Generator,
) -> TransitionDraw:
    """Draw the three binomial counts from a caller-owned random stream."""
    _check_action(params, action)
    n_S, n_E, n_I = state.counts(params.N)
    rates = compile_rates(params, state, action)
    trials_B = vaccination_trials(params, n_S, action.y_V)
    n_B = int(rng.binomial(trials_B, rates.phi)) if trials_B > 0 else 0
    n_C = int(rng.binomial(n_E, rates.rho_C)) if n_E > 0 else 0
    n_D = int(rng.binomial(n_I, rates.rho_D)) if n_I > 0 else 0
    return TransitionDraw(n_B=n_B, n_C=n_C, n_D=n_D)


def apply_draw(
    params: EpidemicParams, state: ContinuousState, action: Action, draw: TransitionDraw
) -> ContinuousState:
    """Successor state implied by a draw."""
    N = params.N
    n_S, n_E, n_I = state.counts(N)
    trials_B = vaccination_trials(params, n_S, action.y_V)
    return ContinuousState(
        (trials_B - draw.n_B) / N,
        (n_E + draw.n_B - draw.n_C) / N,
        (n_I + draw.n_C - draw.n_D) / N,
    )


def nominal_reward(
    params: EpidemicParams, state: ContinuousState, action: Action
) -> float:
    """Stage reward: minus vaccination, intervention, and expected infection costs."""
    _check_action(params, action)
    n_S, n_E, n_I = state.counts(params.N)
    c_V = params.Q * (action.y_V / params.L) * n_S
    c_R = params.k_R * action.y_R
    c_I = params.W * (n_I + n_E * params.rho_C - n_I * params.rho_D)
    return -(c_V + c_R + c_I)
