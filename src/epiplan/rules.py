"""Action-dependent mean bounds via least-squares decision rules.

For one grid state, every action's kernel row and stage reward are summarized
by affine maps of the action: a nominal mean for each successor, widened by
+/- delta into the ambiguity set's lower and upper mean bounds, and an affine
stage reward.  The fits are ordinary least squares over the full action set,
solved by normal equations with a tiny ridge for conditioning.  The design is
the same at every state, so the mean rules of many states are fitted from
their flat kernel rows at once, with its solve formed once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnderdeterminedError
from .grid import RowBlock, SparseDistribution
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


def fit_rule_block(X: np.ndarray, rows: RowBlock, rewards: np.ndarray,
                   delta: float) -> list[DecisionRuleCoefficients]:
    """Fit the mean and reward rules of consecutive states from their rows.

    X is the rule_design of the n actions; the rows of state m, one per
    action, are rows m*n .. m*n + n - 1 of rows, and rewards (c, n) holds
    each state's rewards.  Each state's support is the union of its rows'
    successors, found by marking (state, successor) keys.  Each mean
    coefficient is the sum over the state's actions, in order, of the
    design's solve (X'X + ridge I)^-1 X' times the action's mass:
    np.bincount adds the flat entries onto the support in entry order, so
    no zero-padded matrix is formed and a state's rules are the same to the
    last bit whichever states it is fitted with.  The reward rules are one
    stacked solve, each state's normal equations with its own right-hand
    side: rewards run to 1e5 and more, and a solve with many right-hand
    sides at once moves them in the last bits.
    """
    n, c = len(X), len(rewards)
    if len(rows) != c * n or np.shape(rewards) != (c, n):
        raise DomainError("kernels and rewards must align with actions")
    normal = X.T @ X + _RIDGE * np.eye(X.shape[1])
    hat = np.linalg.solve(normal, X.T)
    state, action = np.divmod(np.repeat(np.arange(c * n), np.diff(rows.offsets)), n)
    span = int(rows.indices.max(initial=0)) + 1
    key = state * span + rows.indices
    marked = np.zeros(c * span, dtype=bool)
    marked[key] = True
    support = np.flatnonzero(marked)
    column = np.empty(c * span, dtype=np.int64)
    column[support] = np.arange(len(support))
    mean = [np.bincount(column[key], weights=h[action] * rows.probs, minlength=len(support))
            for h in hat]
    eps = np.linalg.solve(normal, X.T @ np.asarray(rewards)[..., None])[..., 0]
    split = np.searchsorted(support, np.arange(1, c) * span).tolist()
    return [DecisionRuleCoefficients(support=support[lo:hi] - m * span,
                                     mean=np.stack([a[lo:hi] for a in mean]), delta=delta,
                                     eps=eps[m])
            for m, (lo, hi) in enumerate(zip([0] + split, split + [len(support)]))]


def fit_rules(
    X: np.ndarray,
    kernels: Sequence[SparseDistribution],
    rewards: np.ndarray,
    cfg: AmbiguityConfig,
) -> DecisionRuleCoefficients:
    """Fit the mean and reward rules for one state from its per-action rows:
    fit_rule_block on a block of one.

    X is the rule_design of the actions; kernels and rewards are aligned
    with its rows.
    """
    if len(kernels) != len(X) or len(rewards) != len(X):
        raise DomainError("kernels and rewards must align with actions")
    [coeffs] = fit_rule_block(X, RowBlock.join(kernels), np.reshape(rewards, (1, -1)), cfg.delta)
    return coeffs


def mean_bounds(coeffs: DecisionRuleCoefficients,
                X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eta_L, eta_U), each (n, m): the fitted mean -/+ delta at the n actions
    whose design_matrix is X, aligned with the support (no clamping)."""
    center = X @ coeffs.mean
    return center - coeffs.delta, center + coeffs.delta
