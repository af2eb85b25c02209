"""One-stage value backups: nominal, worst-case-shifted, and mean-ambiguous.

The mean-ambiguous backup prices one action against the worst transition
distribution whose mean lies near action-dependent bounds, with violations
charged at k per unit.  Two runtime routes compute it:

* a small LP in (q, w, u), the dual of the penalized mean problem;
* a closed-form parametric solve used on hot paths, batched over all actions
  of a state, exact because the dual objective is concave piecewise-linear
  in q with kinks at 2m+1 points every action shares.

The penalized mean problem itself is the test oracle both are checked
against (tests/oracles.py, tests/test_acceptance.py).

Action selection is then either explicit enumeration, or a single
mixed-integer program linearizing the action-times-multiplier products with
box envelopes (a relaxation) or with per-level indicator variables (exact).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError, SolverError
from .grid import Grid, SparseDistribution
from .lp import LinearProgram, MixedIntegerProgram, solve_lp, solve_mip
from .rules import (
    DecisionRuleCoefficients,
    design_matrix,
    fit_rules,  # noqa: F401  perfbench/layers.py traces backup.fit_rules
    mean_bounds,
    reward_rule,
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


def worst_case_shift(row: SparseDistribution, grid: Grid, budget: float) -> SparseDistribution:
    """Move up to budget/2 mass from low-infective to high-infective successors.

    The result stays within L1 distance `budget` of the input and remains a
    distribution; per-entry mass is capped at 1.
    """
    if budget <= 0.0 or len(row) <= 1:
        return row
    p_I = grid.coords[row.indices][:, 2]
    probs = row.probs.copy()
    donors = sorted(range(len(probs)), key=lambda i: (p_I[i], row.indices[i]))
    receivers = sorted(range(len(probs)), key=lambda i: (-p_I[i], row.indices[i]))
    move = budget / 2.0
    di, ri = 0, 0
    while move > 1e-15 and di < len(donors) and ri < len(receivers):
        d, r = donors[di], receivers[ri]
        if p_I[d] >= p_I[r]:
            break
        take = min(move, probs[d], 1.0 - probs[r])
        if take <= 1e-18:
            if probs[d] <= 1e-18:
                di += 1
            else:
                ri += 1
            continue
        probs[d] -= take
        probs[r] += take
        move -= take
        if probs[d] <= 1e-18:
            di += 1
        if probs[r] >= 1.0 - 1e-18:
            ri += 1
    return SparseDistribution(row.indices.copy(), probs, normalize=True)


# ---------------------------------------------------------------------------
# Inner problem: LP route and batched parametric route


def inner_dual_lp(
    coeffs: DecisionRuleCoefficients,
    action: Action,
    v_next: np.ndarray,
    lam: float,
    k: float,
) -> float:
    """Action value under the worst admissible mean, via the multiplier LP.

    maximize  r(a) + q - w'etaU(a) + u'etaL(a)
    s.t.      q <= lam*V(s') + w(s') - u(s')   for every supported successor
              w + u <= k,  w, u >= 0.

    v_next holds the values over all grid corners.
    """
    eta_L, eta_U = mean_bounds(coeffs, design_matrix([action]))
    v = lam * v_next[coeffs.support]
    res = solve_lp(inner_dual_program(eta_L[0], eta_U[0], v, k))
    if res.status != "optimal":
        raise SolverError(f"inner LP unexpectedly {res.status}")
    return reward_rule(coeffs, action) + res.objective


def inner_dual_program(eta_L: np.ndarray, eta_U: np.ndarray, v: np.ndarray,
                       k: float) -> LinearProgram:
    """The multiplier LP over (q, w, u); v already carries the discount."""
    m = len(v)
    n = 1 + 2 * m
    c = np.concatenate([[1.0], -eta_U, eta_L])
    A = np.zeros((2 * m, n))
    b = np.empty(2 * m)
    for j in range(m):
        A[j, 0] = 1.0
        A[j, 1 + j] = -1.0
        A[j, 1 + m + j] = 1.0
        b[j] = v[j]
        A[m + j, 1 + j] = 1.0
        A[m + j, 1 + m + j] = 1.0
        b[m + j] = k
    lb = np.zeros(n)
    lb[0] = -np.inf
    return LinearProgram("max", c, A, ["<="] * (2 * m), b,
                         lb=lb, ub=np.full(n, np.inf))


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
    X: np.ndarray | None = None,
) -> tuple[float, Action]:
    """Reference backup: the inner problem for every action, then the best.

    method "parametric" solves every action in one batched call; "lp" solves
    the multiplier LP per action.  X is the design_matrix of actions, built
    here when the caller does not hold it.  Ties go to the first of the given
    actions.
    """
    if method == "parametric":
        if X is None:
            X = design_matrix(actions)
        vals = X @ coeffs.eps + inner_value_parametric(
            *mean_bounds(coeffs, X), lam * v_next[coeffs.support], k)
    elif method == "lp":
        vals = np.array([inner_dual_lp(coeffs, a, v_next, lam, k) for a in actions])
    else:
        raise DomainError(f"unknown inner method {method!r}")
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
    iq = 0
    ia = (2 * m + 1, 2 * m + 2)
    a_hi = (float(L), float(M))
    # z_cost[s, i, j]: cost of a_i * w_j (s = 0) or of a_i * u_j (s = 1).
    z_cost = np.stack([-mean[1:], mean[1:]])
    used = z_cost != 0.0
    iz = np.full(z_cost.shape, -1)
    iz[used] = 2 * m + 3 + np.arange(int(used.sum()))
    n = 2 * m + 3 + int(used.sum())

    c = np.zeros(n)
    c[iq] = 1.0
    c[1:1 + m] = -(mean[0] + coeffs.delta)
    c[1 + m:1 + 2 * m] = mean[0] - coeffs.delta
    c[ia[0]] = coeffs.eps[1]
    c[ia[1]] = coeffs.eps[2]
    c[iz[used]] = z_cost[used]

    n_rows = 2 * m + 2 * int((z_cost > 0.0).sum()) + int((z_cost < 0.0).sum())
    A = np.zeros((n_rows, n))
    b = np.zeros(n_rows)
    js = np.arange(m)
    A[2 * js, iq] = 1.0           # q - w_j + u_j <= v_j
    A[2 * js, 1 + js] = -1.0
    A[2 * js, 1 + m + js] = 1.0
    b[2 * js] = v
    A[2 * js + 1, 1 + js] = 1.0   # w_j + u_j <= k
    A[2 * js + 1, 1 + m + js] = 1.0
    b[2 * js + 1] = k
    r = 2 * m
    for i in range(2):
        for j in range(m):
            for s, imult in ((0, 1 + j), (1, 1 + m + j)):
                z = iz[s, i, j]
                if z < 0:
                    continue
                if z_cost[s, i, j] > 0.0:  # pushed up: z <= a_hi*w, z <= k*a
                    A[r, z] = 1.0
                    A[r, imult] = -a_hi[i]
                    A[r + 1, z] = 1.0
                    A[r + 1, ia[i]] = -k
                    r += 2
                else:  # pushed down: z >= a_hi*w + k*a - a_hi*k
                    A[r, imult] = a_hi[i]
                    A[r, ia[i]] = k
                    A[r, z] = -1.0
                    b[r] = a_hi[i] * k
                    r += 1

    lb = np.zeros(n)
    lb[iq] = -np.inf
    ub = np.full(n, np.inf)
    ub[list(ia)] = a_hi
    integer = np.zeros(n, dtype=bool)
    integer[list(ia)] = True

    lp = LinearProgram("max", c, A, ["<="] * n_rows, b, lb=lb, ub=ub)
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
    """Exact MIP: one indicator per action level linearizes each product.

    With d = u - w in [-k, k], the objective is
    q + mean(a)'d - delta*1'(w + u) + r(a), and mean(a)'d is affine in the
    products psi * d_j of each level indicator psi with each d_j.  Each
    product gets the two rows that bind in its objective direction, so it
    equals psi * d_j at the optimum and the MIP equals the enumeration backup.
    """
    v = lam * v_next[coeffs.support]
    m = len(v)
    mean = coeffs.mean
    levels = (list(range(L + 1)), list(range(M + 1)))

    cols_c: list[float] = []
    lbs: list[float] = []
    ubs: list[float] = []
    ints: list[bool] = []

    def new_var(cost=0.0, lo=0.0, hi=np.inf, is_int=False) -> int:
        cols_c.append(cost); lbs.append(lo); ubs.append(hi); ints.append(is_int)
        return len(cols_c) - 1

    iq = new_var(cost=1.0, lo=-np.inf)
    iw = [new_var(cost=-(mean[0, j] + coeffs.delta)) for j in range(m)]
    iu = [new_var(cost=mean[0, j] - coeffs.delta) for j in range(m)]
    ia = [new_var(cost=coeffs.eps[1], hi=float(L)),
          new_var(cost=coeffs.eps[2], hi=float(M))]
    ipsi = [[new_var(lo=0.0, hi=1.0, is_int=True) for _ in levels[i]] for i in range(2)]

    # rows accumulated as (coeffs dict, rel, rhs); densified at the end
    rows: list[tuple[dict[int, float], str, float]] = []

    for j in range(m):
        rows.append(({iq: 1.0, iw[j]: -1.0, iu[j]: 1.0}, "<=", float(v[j])))
        rows.append(({iw[j]: 1.0, iu[j]: 1.0}, "<=", k))
    for i in range(2):
        rows.append(({p: 1.0 for p in ipsi[i]}, "==", 1.0))
        link = {ipsi[i][l]: float(tau) for l, tau in enumerate(levels[i])}
        link[ia[i]] = -1.0
        rows.append((link, "==", 0.0))

    for i in range(2):
        for l, tau in enumerate(levels[i]):
            if tau == 0:
                continue
            psi = ipsi[i][l]
            for j in range(m):
                cost = mean[1 + i, j] * tau
                if cost == 0.0:
                    continue
                z = new_var(cost=cost, lo=-np.inf)
                if cost > 0.0:
                    # pushed up: z <= d + k(1 - psi), z <= k psi
                    rows.append(({z: 1.0, iu[j]: -1.0, iw[j]: 1.0, psi: k}, "<=", k))
                    rows.append(({z: 1.0, psi: -k}, "<=", 0.0))
                else:
                    # pushed down: z >= d - k(1 - psi), z >= -k psi
                    rows.append(({iu[j]: 1.0, iw[j]: -1.0, psi: k, z: -1.0}, "<=", k))
                    rows.append(({z: -1.0, psi: -k}, "<=", 0.0))

    n = len(cols_c)
    A = np.zeros((len(rows), n))
    rel = []
    b = np.empty(len(rows))
    for r, (cmap, rl, rv) in enumerate(rows):
        for idx, val in cmap.items():
            A[r, idx] = val
        rel.append(rl)
        b[r] = rv
    lp = LinearProgram("max", np.array(cols_c), A, rel, b,
                       lb=np.array(lbs), ub=np.array(ubs))
    sol = solve_mip(MixedIntegerProgram(lp, np.array(ints)))
    if sol.status != "optimal":
        raise SolverError(f"indicator MIP unexpectedly {sol.status}")
    action = Action(int(round(sol.x[ia[0]])), int(round(sol.x[ia[1]])))
    return float(sol.objective + coeffs.eps[0]), action
