"""One-stage value backups: nominal, worst-case-shifted, and mean-ambiguous.

The mean-ambiguous backup prices one action against the worst transition
distribution whose mean lies near action-dependent bounds, with violations
charged at k per unit.  Dualizing that inner problem gives a small LP in the
multipliers (q, w, u), and one function writes its block of columns, costs,
bounds and rows.  Two inner solvers use the block:

* the simplex, on the block alone, once per action;
* a closed-form parametric solve used on hot paths, batched over all actions
  of a state, exact because the dual objective is concave piecewise-linear
  in q with kinks at 2m+1 points every action shares.

The penalized mean problem itself is the test oracle both are checked
against (tests/oracles.py, tests/test_acceptance.py).

Action selection is then either explicit enumeration, or a single
mixed-integer program that appends action columns to the same block and
linearizes the action-times-multiplier products with box envelopes (a
relaxation).  A second MIP linearizes them with per-level indicator
variables; it is exact, and kept as the oracle the tests and perfbench hold
the other back-ends against.  Every program written here is in
`lp.solve_lp`'s form: max, <= rows, finite lower bounds, b - A lb >= 0.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError, SolverError
from .grid import Grid, SparseDistribution
from .lp import LinearProgram, MixedIntegerProgram, solve_lp, solve_mip
from .rules import (
    DecisionRuleCoefficients,
    fit_rules,  # noqa: F401  perfbench/layers.py traces backup.fit_rules
    mean_bounds,
)
from .seir import Action


# ---------------------------------------------------------------------------
# Nominal and worst-case-shifted backups


def best_action_over_rows(
    actions: Sequence[Action],
    rows: Sequence[SparseDistribution],
    rewards: Sequence[float],
    v: np.ndarray,
    lam: float,
) -> tuple[float, Action]:
    """max_a r(a) + lam * E_row(a)[V] over corner values v; ties go to the
    first of the given actions."""
    best_val, best_a = -np.inf, None
    for a, row, r in zip(actions, rows, rewards):
        val = r + lam * row.dot(v)
        if val > best_val:
            best_val, best_a = val, a
    return best_val, best_a


def shift_mass(row: SparseDistribution, donors: np.ndarray, receiver: int,
               budget: float) -> SparseDistribution:
    """Take up to budget/2 mass from the entries `donors` of row, in order,
    and add all of it to entry `receiver`.

    The receiver's room, 1 - p_receiver, is the mass of every other entry, so
    it takes whatever is moved; the result stays a distribution within L1
    distance `budget` of the input.
    """
    probs = row.probs.copy()
    have = probs[donors]
    before = np.concatenate(([0.0], np.cumsum(have)[:-1]))  # taken by earlier donors
    take = np.minimum(have, np.maximum(budget / 2.0 - before, 0.0))
    probs[donors] -= take
    probs[receiver] += take.sum()
    probs /= probs.sum()
    return SparseDistribution.block(row.indices, probs, [0, len(probs)])[0]


def worst_case_shift(row: SparseDistribution, grid: Grid, budget: float) -> SparseDistribution:
    """Move up to budget/2 mass from low-infective successors, lowest p_I
    first, to the highest-infective one (lowest index among ties)."""
    if budget <= 0.0 or len(row) <= 1:
        return row
    p_I = grid.coords[row.indices][:, 2]
    order = np.argsort(p_I, kind="stable")  # by (p_I, index): indices ascend
    n_low = int(np.searchsorted(p_I[order], p_I.max()))
    return shift_mass(row, order[:n_low], order[n_low], budget)


# ---------------------------------------------------------------------------
# Inner problem: the multiplier block, its LP and its batched parametric solve


def _multiplier_block(eta_L: np.ndarray, eta_U: np.ndarray, v: np.ndarray,
                      k: float, n: int, n_rows: int) -> tuple[np.ndarray, ...]:
    """(c, A, b, lb, ub) of an n-column, n_rows-row program holding the
    multiplier LP's (q, w_1..w_m, u_1..u_m) block in its first 1 + 2m columns
    and 2m rows:

    maximize  q - w'eta_U + u'eta_L
    s.t.      q - w_j + u_j <= v_j,  w_j + u_j <= k   (rows 2j and 2j + 1)
              q >= min(v) - k,  w, u >= 0.

    The bound on q cuts off no optimum: u_j <= k and w_j >= 0, so every row
    admits q = min(v) - k, and q, with cost +1 and in no other row, can be
    raised from any point below it.  It lets the simplex shift q instead of
    splitting it, which leaves every right side nonnegative, so the LP starts
    at its slack basis.  v already carries the discount.  Every other entry
    is zero, with bounds [0, inf), for the caller to fill.
    """
    m = len(v)
    c = np.zeros(n)
    c[0] = 1.0
    c[1:1 + m] = -eta_U
    c[1 + m:1 + 2 * m] = eta_L
    A = np.zeros((n_rows, n))
    b = np.zeros(n_rows)
    js = np.arange(m)
    A[2 * js, 0] = 1.0
    A[2 * js, 1 + js] = -1.0
    A[2 * js, 1 + m + js] = 1.0
    b[2 * js] = v
    A[2 * js + 1, 1 + js] = 1.0
    A[2 * js + 1, 1 + m + js] = 1.0
    b[2 * js + 1] = k
    lb = np.zeros(n)
    lb[0] = v.min() - k
    return c, A, b, lb, np.full(n, np.inf)


def inner_dual_program(eta_L: np.ndarray, eta_U: np.ndarray, v: np.ndarray,
                       k: float) -> LinearProgram:
    """The multiplier LP over (q, w, u) alone: the dual of the penalized mean
    problem at one action's mean bounds, without its reward term."""
    m = len(v)
    c, A, b, lb, ub = _multiplier_block(eta_L, eta_U, v, k, 1 + 2 * m, 2 * m)
    return LinearProgram(c, A, b, lb=lb, ub=ub)


def inner_value_parametric(
    eta_L: np.ndarray, eta_U: np.ndarray, v: np.ndarray, k: float
) -> np.ndarray:
    """Exact solve of the multiplier LP (without the reward term) for a batch.

    eta_L / eta_U are (n, m): one row of mean bounds per action over the same
    support, and v (m,) carries the discount.  Returns the n optimal values.

    For fixed q the problem separates per successor j into a two-variable LP
    whose value g_j(d), d = q - v_j, is concave in d and, being a max of
    vertex values on each of [-k, 0] and [0, k], affine on each; it is
    constant below -k and infeasible above k.  The objective q + sum_j g_j is
    therefore concave piecewise-linear with kinks only at v_j - k and v_j,
    the same points for every action, and is maximized at the first kink
    where its slope turns nonpositive, or at the right end min(v) + k.
    """
    A = -np.asarray(eta_U, dtype=np.float64)  # coefficient of w
    B = np.asarray(eta_L, dtype=np.float64)   # coefficient of u
    v = np.asarray(v, dtype=np.float64)

    # Per unit of k: g(0) = k*g0, g(-k) = k*max(0, A, B), g(k) = k*A, so the
    # slopes on [-k, 0] and [0, k] are s1 and s2 whatever k is.
    g0 = np.maximum(np.maximum(A, 0.5 * (A + B)), 0.0)
    s1 = g0 - np.maximum(np.maximum(A, B), 0.0)
    s2 = A - g0
    kinks = np.concatenate([v - k, v])
    order = np.argsort(kinks, kind="stable")
    steps = np.concatenate([s1, s2 - s1], axis=1)[:, order]
    slope = 1.0 + np.cumsum(steps, axis=1)  # right slope after each kink
    down = slope <= 0.0
    q = np.where(down.any(axis=1), kinks[order][np.argmax(down, axis=1)], np.inf)
    q = np.minimum(q, v.min() + k)[:, None]

    # g_j at the chosen q from its two affine pieces; clipping d at k also
    # absorbs the one-ulp overshoot of (vmin + k) - v_j at the right end.
    d = q - v
    g = k * g0 + s1 * np.clip(d, -k, 0.0) + s2 * np.clip(d, 0.0, k)
    return q[:, 0] + g.sum(axis=1)


# ---------------------------------------------------------------------------
# Action optimization back-ends


def drmdp_backup_enumerate(
    coeffs: DecisionRuleCoefficients,
    actions: Sequence[Action],
    v_next: np.ndarray,
    lam: float,
    k: float,
    method: str,
    X: np.ndarray,
) -> tuple[float, Action]:
    """Reference backup: the inner problem for every action, then the best.

    method "parametric" solves every action in one batched call; "lp" solves
    the multiplier LP once per action.  X is the design_matrix of actions.
    Ties go to the first of the given actions.
    """
    eta_L, eta_U = mean_bounds(coeffs, X)
    v = lam * v_next[coeffs.support]
    if method == "parametric":
        inner = inner_value_parametric(eta_L, eta_U, v, k)
    elif method == "lp":
        inner = np.empty(len(X))
        for i, (lo, hi) in enumerate(zip(eta_L, eta_U)):
            sol = solve_lp(inner_dual_program(lo, hi, v, k))
            if sol.status != "optimal":
                raise SolverError(f"inner LP unexpectedly {sol.status}")
            inner[i] = sol.objective
    else:
        raise DomainError(f"unknown inner method {method!r}")
    vals = X @ coeffs.eps + inner
    best = int(np.argmax(vals))
    return float(vals[best]), actions[best]


def drmdp_backup_mccormick(
    coeffs: DecisionRuleCoefficients,
    v_next: np.ndarray,
    lam: float,
    k: float,
    L: int,
    M: int,
) -> tuple[float, Action]:
    """One MIP over integer action levels with box-envelope bilinear terms.

    The objective is q - w'(mean(a) + delta) + u'(mean(a) - delta) + r(a);
    the products of each action level a_i in [0, a_hi] with w_j and with u_j
    (both in [0, k] through w + u <= k) get their own envelope columns z.
    Each z appears only in the objective and in its own rows, so only the
    envelope side its cost pushes against can bind: a positive cost keeps
    z <= a_hi*w and z <= k*a, a negative cost keeps
    z >= a_hi*w + k*a - a_hi*k (z >= 0 is its bound), and a zero cost drops
    the column.  On the box the lower envelope never exceeds the upper one,
    so this has the optimum of the full four-row relaxation.  The envelopes
    relax the products, so the optimum is an upper bound on the enumeration
    backup; it is exact when an action axis has a single level.
    """
    v = lam * v_next[coeffs.support]
    m = len(v)
    mean = coeffs.mean
    ia = (2 * m + 1, 2 * m + 2)
    a_hi = (float(L), float(M))
    # z_cost[s, i, j]: cost of a_i * w_j (s = 0) or of a_i * u_j (s = 1).
    z_cost = np.stack([-mean[1:], mean[1:]])
    used = z_cost != 0.0
    iz = np.full(z_cost.shape, -1)
    iz[used] = 2 * m + 3 + np.arange(int(used.sum()))
    n = 2 * m + 3 + int(used.sum())
    # Envelope rows follow the block in (action, successor, product) order:
    # two for a positive cost, one for a negative one.
    i, j, s = np.nonzero(used.transpose(1, 2, 0))
    z, up = iz[s, i, j], z_cost[s, i, j] > 0.0
    imult, h, col_a = 1 + s * m + j, np.array(a_hi)[i], np.array(ia)[i]
    n_env = np.where(up, 2, 1)
    r = 2 * m + np.cumsum(n_env) - n_env
    n_rows = 2 * m + int(n_env.sum())

    c, A, b, lb, ub = _multiplier_block(mean[0] - coeffs.delta, mean[0] + coeffs.delta,
                                        v, k, n, n_rows)
    c[list(ia)] = coeffs.eps[1:]
    c[iz[used]] = z_cost[used]
    # Pushed up: z <= a_hi*w and z <= k*a.
    ru = r[up]
    A[ru, z[up]] = 1.0
    A[ru, imult[up]] = -h[up]
    A[ru + 1, z[up]] = 1.0
    A[ru + 1, col_a[up]] = -k
    # Pushed down: z >= a_hi*w + k*a - a_hi*k.
    rd, dn = r[~up], ~up
    A[rd, imult[dn]] = h[dn]
    A[rd, col_a[dn]] = k
    A[rd, z[dn]] = -1.0
    b[rd] = h[dn] * k
    ub[list(ia)] = a_hi
    integer = np.zeros(n, dtype=bool)
    integer[list(ia)] = True

    lp = LinearProgram(c, A, b, lb=lb, ub=ub)
    sol = solve_mip(MixedIntegerProgram(lp, integer))
    if sol.status != "optimal":
        raise SolverError(f"envelope MIP unexpectedly {sol.status}")
    action = Action(int(round(sol.x[ia[0]])), int(round(sol.x[ia[1]])))
    return float(sol.objective + coeffs.eps[0]), action


def drmdp_backup_unary(
    coeffs: DecisionRuleCoefficients,
    v_next: np.ndarray,
    lam: float,
    k: float,
    L: int,
    M: int,
) -> tuple[float, Action]:
    """Exact MIP: one indicator per nonzero action level linearizes each
    product.  No planner back-end uses it: it is the exactness oracle that
    the tests and perfbench check the other back-ends against.

    Action i is at level tau when its indicator psi_tau is 1 and at zero
    when all are 0 (sum psi <= 1), so a_i = sum tau * psi_tau and the reward
    eps_i * a_i is a cost on the indicators.  With d = u - w in [-k, k], the
    objective is q + mean(a)'d - delta*1'(w + u) + r(a), and mean(a)'d is
    affine in the products psi_tau * d_j.  Each product with a nonzero cost
    gets a column z = s * psi_tau * d_j, s the sign of its cost, with cost
    |cost| and bound z >= -k, and the two rows z <= s*d_j + k(1 - psi_tau)
    and z <= k*psi_tau; pushed up, z equals s * psi_tau * d_j at the
    optimum, so the MIP equals the enumeration backup.  Every row is <= and
    every bound finite, and branching keeps the program in solve_lp's form.
    """
    v = lam * v_next[coeffs.support]
    m = len(v)
    mean = coeffs.mean
    # The indicators of levels 1..L of y_V, then 1..M of y_R, follow the
    # block from column 2m + 1; the product columns follow them.
    level = np.concatenate([np.arange(1, L + 1), np.arange(1, M + 1)])
    axis = np.repeat([0, 1], [L, M])
    ipsi = 2 * m + 1 + np.arange(L + M)
    # Products psi * d_j with nonzero cost mean[1+i, j]*tau, ordered by
    # action, level, successor.
    z_cost = level[:, None] * mean[1 + axis]
    p, js = np.nonzero(z_cost)
    cost = z_cost[p, js]
    iz0 = 2 * m + 1 + L + M
    iz = iz0 + np.arange(len(cost))
    n = iz0 + len(cost)
    n_rows = 2 * m + 2 + 2 * len(cost)

    c, A, b, lb, ub = _multiplier_block(mean[0] - coeffs.delta, mean[0] + coeffs.delta,
                                        v, k, n, n_rows)
    c[ipsi] = coeffs.eps[1 + axis] * level
    c[iz] = np.abs(cost)
    A[2 * m + axis, ipsi] = 1.0     # at most one level per action
    b[2 * m:2 * m + 2] = 1.0
    # z <= s*(u_j - w_j) + k(1 - psi) and z <= k psi.
    r = 2 * m + 2 + 2 * np.arange(len(cost))
    sign = np.sign(cost)
    A[r, iz] = 1.0
    A[r, 1 + m + js] = -sign
    A[r, 1 + js] = sign
    A[r, ipsi[p]] = k
    b[r] = k
    A[r + 1, iz] = 1.0
    A[r + 1, ipsi[p]] = -k
    lb[iz] = -k
    ub[ipsi] = 1.0
    integer = np.zeros(n, dtype=bool)
    integer[ipsi] = True

    sol = solve_mip(MixedIntegerProgram(LinearProgram(c, A, b, lb=lb, ub=ub), integer))
    if sol.status != "optimal":
        raise SolverError(f"indicator MIP unexpectedly {sol.status}")
    on = np.round(sol.x[ipsi]) * level
    action = Action(int(on[axis == 0].sum()), int(on[axis == 1].sum()))
    return float(sol.objective + coeffs.eps[0]), action
