"""Action-dependent mean bounds via least-squares decision rules.

For one grid state, every action's kernel row and stage reward are summarized
by affine maps of the action: an upper and lower bound on each successor's
mean probability (the nominal row widened by +/- delta) and an affine stage
reward.  The fits are ordinary least squares over the full action set, solved
by normal equations with a tiny ridge for conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnderdeterminedError
from .grid import SparseDistribution
from .seir import Action

_RIDGE = 1e-10


@dataclass(frozen=True)
class AmbiguityConfig:
    """delta: half-width added around each successor mean;
    k: penalty per unit of mean-bound violation."""

    delta: float = 0.05
    k: float = 1000.0

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise DomainError(f"delta must be >= 0, got {self.delta}")
        if self.k < 0:
            raise DomainError(f"k must be >= 0, got {self.k}")


@dataclass
class DecisionRuleCoefficients:
    """Affine coefficients over a state's successor support.

    rho / sigma are (3, m): intercept, y_V slope, y_R slope per successor for
    the upper / lower mean bound.  eps is the (3,) reward rule.
    """

    support: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    eps: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.support)
        if self.rho.shape != (3, m) or self.sigma.shape != (3, m):
            raise DomainError("coefficient arrays must be (3, |support|)")
        if self.eps.shape != (3,):
            raise DomainError("reward coefficients must have shape (3,)")
        if not (np.isfinite(self.rho).all() and np.isfinite(self.sigma).all()
                and np.isfinite(self.eps).all()):
            raise DomainError("coefficients must be finite")


@dataclass(frozen=True)
class EtaBounds:
    """Evaluated mean bounds for one action, aligned with the support."""

    eta_L: np.ndarray
    eta_U: np.ndarray


def design_matrix(actions: list[Action]) -> np.ndarray:
    """Rows (1, y_V, y_R) per action: the affine rules are X @ coefficients."""
    return np.array([[1.0, a.y_V, a.y_R] for a in actions])


def _ols(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    XtX = X.T @ X + _RIDGE * np.eye(X.shape[1])
    return np.linalg.solve(XtX, X.T @ Y)


def fit_rules(
    actions: list[Action],
    kernels: list[SparseDistribution],
    rewards: list[float],
    cfg: AmbiguityConfig,
    support: np.ndarray | None = None,
) -> DecisionRuleCoefficients:
    """Fit the three affine rules for one state from its per-action rows.

    kernels and rewards are aligned with actions.  Rows are zero-padded onto
    the union support (or a caller-supplied superset of it).
    """
    if len(kernels) != len(actions) or len(rewards) != len(actions):
        raise DomainError("kernels and rewards must align with actions")
    X = design_matrix(actions)
    if len({(a.y_V, a.y_R) for a in actions}) < 3 or np.linalg.matrix_rank(X) < 3:
        raise UnderdeterminedError(
            "need at least 3 distinct, non-collinear actions to fit rules"
        )

    if support is None:
        seen: set[int] = set()
        for row in kernels:
            seen.update(int(i) for i in row.indices)
        support = np.array(sorted(seen), dtype=np.int64)
    else:
        support = np.asarray(support, dtype=np.int64)

    pos = {int(s): j for j, s in enumerate(support)}
    P = np.zeros((len(actions), len(support)))
    for i, row in enumerate(kernels):
        for s, pr in zip(row.indices, row.probs):
            P[i, pos[int(s)]] = pr

    rho = _ols(X, P + cfg.delta)
    sigma = _ols(X, P - cfg.delta)
    eps = _ols(X, np.asarray(rewards, dtype=np.float64))
    return DecisionRuleCoefficients(support=support, rho=rho, sigma=sigma, eps=eps)


def eta_bounds(coeffs: DecisionRuleCoefficients, action: Action) -> EtaBounds:
    """Evaluate the affine mean bounds at one action (no clamping)."""
    x = np.array([1.0, action.y_V, action.y_R])
    return EtaBounds(eta_L=x @ coeffs.sigma, eta_U=x @ coeffs.rho)


def reward_rule(coeffs: DecisionRuleCoefficients, action: Action) -> float:
    """Evaluate the affine stage-reward rule at one action."""
    return float(coeffs.eps[0] + coeffs.eps[1] * action.y_V + coeffs.eps[2] * action.y_R)
