"""Action-dependent mean bounds via least-squares decision rules.

For one grid state, every action's kernel row and stage reward are summarized
by affine maps of the action: a nominal mean for each successor, widened by
+/- delta into the ambiguity set's lower and upper mean bounds, and an affine
stage reward.  The fits are ordinary least squares over the full action set,
solved by normal equations with a tiny ridge for conditioning.
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
        if not 0.0 <= self.delta < np.inf:  # NaN fails too
            raise DomainError(f"delta must be finite and >= 0, got {self.delta}")
        if not 0.0 <= self.k < np.inf:
            raise DomainError(f"k must be finite and >= 0, got {self.k}")


@dataclass
class DecisionRuleCoefficients:
    """Affine coefficients over a state's successor support.

    mean is (3, m): intercept, y_V slope, y_R slope of each successor's
    nominal mean; the mean bounds are mean -/+ delta.  eps is the (3,) reward
    rule.
    """

    support: np.ndarray
    mean: np.ndarray
    delta: float
    eps: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != (3, len(self.support)):
            raise DomainError("mean rule must be (3, |support|)")
        if self.eps.shape != (3,):
            raise DomainError("reward coefficients must have shape (3,)")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.eps).all()):
            raise DomainError("coefficients must be finite")
        if not 0.0 <= self.delta < np.inf:
            raise DomainError(f"delta must be finite and >= 0, got {self.delta}")


def design_matrix(actions: list[Action]) -> np.ndarray:
    """Rows (1, y_V, y_R) per action: the affine rules are X @ coefficients."""
    return np.array([[1.0, a.y_V, a.y_R] for a in actions])


def rule_design(actions: list[Action]) -> np.ndarray:
    """The design_matrix of actions that fit_rules fits over, checked to
    have rank 3 (at least 3 distinct, non-collinear actions)."""
    X = design_matrix(actions)
    if np.linalg.matrix_rank(X) < 3:
        raise UnderdeterminedError(
            "need at least 3 distinct, non-collinear actions to fit rules"
        )
    return X


def fit_affine(X: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Coefficients (3, ...) of the least-squares affine rule for targets,
    whose first axis runs over the actions whose design_matrix is X."""
    XtX = X.T @ X + _RIDGE * np.eye(X.shape[1])
    return np.linalg.solve(XtX, X.T @ np.asarray(targets, dtype=np.float64))


def fit_rules(
    X: np.ndarray,
    kernels: list[SparseDistribution],
    rewards: np.ndarray,
    cfg: AmbiguityConfig,
) -> DecisionRuleCoefficients:
    """Fit the mean and reward rules for one state from its per-action rows.

    X is the rule_design of the actions, checked once by its caller; kernels
    and rewards are aligned with its rows.  Rows are zero-padded onto the
    union support.
    """
    if len(kernels) != len(X) or len(rewards) != len(X):
        raise DomainError("kernels and rewards must align with actions")
    succ = np.concatenate([row.indices for row in kernels])
    support = np.unique(succ)
    P = np.zeros((len(X), len(support)))
    P[np.repeat(np.arange(len(kernels)), [len(row) for row in kernels]),
      np.searchsorted(support, succ)] = np.concatenate([row.probs for row in kernels])

    return DecisionRuleCoefficients(support=support, mean=fit_affine(X, P),
                                    delta=cfg.delta, eps=fit_affine(X, rewards))


def mean_bounds(coeffs: DecisionRuleCoefficients,
                X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eta_L, eta_U), each (n, m): the fitted mean -/+ delta at the n actions
    whose design_matrix is X, aligned with the support (no clamping)."""
    center = X @ coeffs.mean
    return center - coeffs.delta, center + coeffs.delta
