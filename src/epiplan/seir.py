"""Stochastic SEIR population dynamics: exact transition laws and stage costs.

The population of size N is tracked through fractions (p_S, p_E, p_I); the
recovered fraction is implicit.  One period of disease progression draws three
independent binomial counts (new exposures, new infectious, new recoveries)
whose success probabilities depend on the control action: a vaccination level
y_V that immediately removes susceptibles, and an intervention level y_R that
scales the contact rate down.  ``binomial_row`` evaluates each binomial law by
its term ratio outwards from the mode, which needs no log-factorials.

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
        for name in ("mu", "l_C", "l_D", "Q", "k_R", "W"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
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


@dataclass(frozen=True)
class Action:
    """Control pair: vaccination level y_V in 0..L, intervention level y_R in 0..M."""

    y_V: int
    y_R: int

    def __post_init__(self) -> None:
        if self.y_V < 0 or self.y_R < 0:
            raise DomainError(f"action levels must be nonnegative, got {self}")


def _check_action(params: EpidemicParams, action: Action) -> None:
    if action.y_V > params.L or action.y_R > params.M:
        raise DomainError(f"action {action} outside bounds L={params.L}, M={params.M}")


def exposure_prob(params: EpidemicParams, state: ContinuousState, action: Action) -> float:
    """Per-period probability that a remaining susceptible becomes exposed."""
    _check_action(params, action)
    alpha_t = params.alpha0 * action.y_R / params.M
    return 1.0 - math.exp(-(1.0 - alpha_t) * params.mu * state.p_I * params.beta)


def binomial_row(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Support values and pmf of Bin(n, p), keeping entries with mass >= MARGINAL_TOL.

    The row of ``binomial_rows`` for the one pair (n, p).
    """
    pmf, keep = binomial_rows(np.array([n]), np.array([p]))
    ks = np.flatnonzero(keep[0, 0])
    return ks, pmf[0, 0, ks]


def binomial_rows(ns: np.ndarray, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pmfs of Bin(n, p) for every n of ns and p of ps, as an array
    (len(ns), len(ps), max(ns) + 1) that is zero past each n, and the mask
    of the entries kept: those with mass >= MARGINAL_TOL, or the mode where
    none is.

    Each row is built from the ratio pmf[k]/pmf[k-1] = (n+1-k)/k * p/(1-p),
    starting at 1.0 on the mode and multiplying outwards, then divided by its
    sum.  Every factor away from the mode is at most 1, so nothing overflows.
    The products run along each row from its own mode, and each row is
    summed over its own 0..n alone (a padded sum would change its last
    bits), so a row is the same to the last bit whichever rows it is built
    with.
    """
    ns, ps = np.asarray(ns, dtype=np.int64), np.asarray(ps, dtype=np.float64)
    n, p = ns[:, None, None], ps[None, :, None]
    width = int(ns.max()) + 1
    k = np.arange(1.0, width)
    c = np.arange(width)
    ratio = np.ones((len(ns), len(ps), width))
    with np.errstate(divide="ignore", invalid="ignore"):
        # pmf[c] / pmf[c-1] at c = 1..n; inf where p = 1, and junk past n.
        ratio[..., 1:] = (n + 1 - k) / k * (p / (1.0 - p))
    mode = np.minimum(n, np.floor((n + 1) * p).astype(np.int64))
    # Above the mode each entry is the running product of the ratios from
    # the mode up, below it of their reciprocals from the mode down, each
    # run over the columns some row needs; the ones before a row's mode
    # leave each product's roundings those of a product started there.
    pmf = np.zeros(ratio.shape)
    lo, top = int(mode.min()), int(mode.max())
    c_up = c[lo:]
    pmf[..., lo:] = np.cumprod(np.where((c_up > mode) & (c_up <= n), ratio[..., lo:], 1.0),
                               axis=-1)
    down = np.ones(ratio.shape[:-1] + (top + 1,))
    np.divide(1.0, ratio[..., 1:top + 1], out=down[..., :top], where=c[:top] < mode)
    below = c[:top + 1] < mode
    pmf[..., :top + 1][below] = np.cumprod(down[..., ::-1], axis=-1)[..., ::-1][below]
    pmf[np.broadcast_to(c > n, pmf.shape)] = 0.0
    last = np.broadcast_to(n, mode.shape).ravel().tolist()
    pmf /= np.reshape([row[:m + 1].sum() for row, m in zip(pmf.reshape(-1, width), last)],
                      mode.shape)
    keep = pmf >= MARGINAL_TOL
    i, j = np.nonzero(~keep.any(axis=-1))
    keep[i, j, np.argmax(pmf[i, j], axis=-1)] = True
    return pmf, keep


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
    trials_B = vaccination_trials(params, n_S, action.y_V)

    kB, pB = binomial_row(trials_B, exposure_prob(params, state, action))
    kC, pC = binomial_row(n_E, params.rho_C)
    kD, pD = binomial_row(n_I, params.rho_D)

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


def stage_rewards(params: EpidemicParams, state: ContinuousState, y_V, y_R):
    """Stage reward: minus vaccination, intervention, and expected infection
    costs, at levels y_V and y_R given as numbers or as arrays of levels in
    range; each entry takes the same operations either way."""
    return count_rewards(params, *state.counts(params.N), y_V, y_R)


def count_rewards(params: EpidemicParams, n_S, n_E, n_I, y_V, y_R):
    """stage_rewards at compartment counts given as numbers or as arrays of
    whole numbers, broadcast against the levels: each entry takes the same
    operations as at one state."""
    c_V = params.Q * (y_V / params.L) * n_S
    c_R = params.k_R * y_R
    c_I = params.W * (n_I + n_E * params.rho_C - n_I * params.rho_D)
    return -(c_V + c_R + c_I)
