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

Action selection is then either explicit enumeration, or the McCormick
relaxation: box envelopes linearize the action-times-multiplier products,
and the optimum over the integer action levels is the best of the relaxed
inner values at each level, each solved in closed form like the parametric
solve, from kinks and slope steps that do not depend on the values
(`envelope_kinks`).  That MIP, solved by branch and bound, is the test
oracle (tests/oracles.py).  A second MIP linearizes the products with
per-level indicator variables; it is exact, and kept as the oracle the
tests and perfbench hold the other back-ends against.  The programs written
here are in `lp.solve_lp`'s form: max, <= rows, finite lower bounds,
b - A lb >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class EnvelopeKinks:
    """One state's envelope-relaxed inner problem at every integer action
    level, as the slope steps of its objective in q.

    Row n is the level (y_V, y_R) = divmod(n, M + 1), in the order of
    model.actions.  Its objective is q + base[n] + sum_p step[n, p] *
    max(0, q - v[succ[n, p]] - offset[n, p]) for q <= min(v) + k, v the
    discounted successor values: base holds the reward rule at the level
    plus each successor's term at d <= -k, and only nonzero steps are kept,
    each row padded to the longest (at least one) with offset +inf and step
    0.  Nothing in it depends on v.
    """

    k: float
    base: np.ndarray
    offset: np.ndarray
    succ: np.ndarray
    step: np.ndarray


def envelope_kinks(coeffs: DecisionRuleCoefficients, k: float, L: int,
                   M: int) -> EnvelopeKinks:
    """The EnvelopeKinks of the McCormick relaxation over levels 0..L x 0..M.

    The relaxation replaces each product of a level a_i in [0, h_i] (h = L,
    M) with a multiplier x = w_j or u_j in [0, k] by an envelope column z,
    and only the envelope side its cost c pushes against binds: z =
    min(h x, k a) for c > 0, z = max(0, h x + k a - h k) for c < 0.  At a
    fixed level both are hinges in x:

        c z = c h x - |c| h max(0, x - b),  b = k a / h        (c > 0)
        c z =       - |c| h max(0, x - b),  b = k (1 - a / h)  (c < 0)

    An axis with a single level (h = 0) has a = 0 and z = 0, and adds
    nothing.  So successor j's term separates as phi_j(w) + psi_j(u), each
    concave piecewise-linear with at most two breakpoints, and

        g_j(d) = max{phi_j(w) + psi_j(u) : w, u >= 0, w + u <= k, w - u >= d}

    is concave piecewise-linear in d = q - v_j on [-k, k], constant below -k.
    Its kinks are among the values of w - u at the vertices cut out by the
    lines w in {0, b}, u in {0, b} and w + u = k (at most 15).  Between them
    it is the best of the points where the line w - u = d meets those lines,
    maximized over every line at or right of d.  Nodes closer than 1e-12 k
    are merged, so no slope divides by a vanishing gap.
    """
    mean = coeffs.mean
    m = len(coeffs.support)
    levels = np.array([(a, b) for a in range(L + 1) for b in range(M + 1)], dtype=np.float64)
    h = np.array([L, M], dtype=np.float64)
    frac = np.divide(levels, h, out=np.zeros_like(levels), where=h > 0)   # a / h
    # cost[s, i, j] of a_i * w_j (s = 0) and a_i * u_j (s = 1).
    cost = np.stack([-mean[1:], mean[1:]]) * (h > 0)[:, None]
    hinge = np.abs(cost) * h[:, None]
    alpha = (np.stack([-(mean[0] + coeffs.delta), mean[0] - coeffs.delta])
             + np.where(cost > 0.0, hinge, 0.0).sum(axis=1))            # (2, m)
    f = frac[:, None, :, None]
    brk = np.where(hinge > 0.0, np.where(cost > 0.0, k * f, k - k * f), 0.0)
    # Breakpoints (level, successor, axis) and hinge slopes (successor,
    # axis) of each side.
    bw, bu = brk[:, 0].transpose(0, 2, 1), brk[:, 1].transpose(0, 2, 1)
    hw, hu = hinge[0].T, hinge[1].T

    def concave(x, slope, brk, hinge):
        """slope x - sum_i hinge_i max(0, x - brk_i), x (level, successor, ...)."""
        return (slope[:, None, None] * x
                - hinge[:, 0, None, None] * np.maximum(x - brk[:, :, 0, None, None], 0.0)
                - hinge[:, 1, None, None] * np.maximum(x - brk[:, :, 1, None, None], 0.0))

    # Nodes: w - u at the vertices of the lines w = 0, b; u = 0, b and
    # w + u = k.  A crossing of w = b and u = b' past w + u = k is no vertex;
    # it is replaced by -k, a node already.
    n = len(levels)
    zero = np.zeros((n, m, 1))
    w_lines, u_lines = np.concatenate([zero, bw], axis=2), np.concatenate([zero, bu], axis=2)
    crossing = w_lines[..., :, None] - u_lines[..., None, :]
    inside = w_lines[..., :, None] + u_lines[..., None, :] <= k
    t = np.sort(np.concatenate([np.where(inside, crossing, -k).reshape(n, m, 9),
                                2.0 * w_lines - k, k - 2.0 * u_lines], axis=2), axis=2)

    # G at each node: the best of the points (w, u) where the line w - u = t
    # meets u = 0 or w = 0, w + u = k, w = b and u = b, among those in the
    # triangle; g(t) is the best G at or right of t.
    tt, bw3, bu3 = t[:, :, None, :], bw[..., None], bu[..., None]
    shape = (n, m, 2, t.shape[2])
    w = np.concatenate([np.maximum(tt, 0.0), (k + tt) / 2.0,
                        np.broadcast_to(bw3, shape), bu3 + tt], axis=2)
    u = np.concatenate([np.maximum(-tt, 0.0), (k - tt) / 2.0,
                        bw3 - tt, np.broadcast_to(bu3, shape)], axis=2)
    val = concave(w, alpha[0], bw, hw) + concave(u, alpha[1], bu, hu)
    G = np.where((w >= 0.0) & (u >= 0.0) & (w + u <= k), val, -np.inf).max(axis=2)
    g = np.maximum.accumulate(G[..., ::-1], axis=2)[..., ::-1]

    # Right slope on each gap, carried over merged nodes; steps at all but
    # the last node (k), past which d never goes.
    dt = np.diff(t, axis=2)
    gap = dt > 1e-12 * k
    raw = np.where(gap, np.diff(g, axis=2) / np.where(gap, dt, 1.0), 0.0)
    last = np.maximum.accumulate(np.where(gap, np.arange(dt.shape[2]), -1), axis=2)
    slope = np.where(last >= 0, np.take_along_axis(raw, np.maximum(last, 0), axis=2), 0.0)
    step = np.diff(slope, axis=2, prepend=0.0)

    lv, j, node = np.nonzero(step)
    count = np.bincount(lv, minlength=n)
    pos = np.arange(len(lv)) - np.repeat(np.cumsum(count) - count, count)
    width = max(1, int(count.max()))
    offset = np.full((n, width), np.inf)
    succ = np.zeros((n, width), dtype=np.int32)
    steps = np.zeros((n, width))
    offset[lv, pos] = t[lv, j, node]
    succ[lv, pos] = j
    steps[lv, pos] = step[lv, j, node]
    base = coeffs.eps[0] + levels @ coeffs.eps[1:] + g[:, :, 0].sum(axis=1)
    return EnvelopeKinks(float(k), base, offset, succ, steps)


def envelope_level_values(kinks: EnvelopeKinks, v: np.ndarray) -> np.ndarray:
    """The relaxed backup value at each level of kinks, for discounted
    successor values v over the state's support.

    The objective in q is concave piecewise-linear with slope 1 below its
    first kink, so, as in inner_value_parametric, it is maximized at the
    first kink where its slope turns nonpositive, or at the right end
    min(v) + k, and evaluated once there.
    """
    at = kinks.offset + v[kinks.succ]
    order = np.argsort(at, axis=1, kind="stable")
    slope = 1.0 + np.cumsum(np.take_along_axis(kinks.step, order, axis=1), axis=1)
    down = slope <= 0.0
    first = np.take_along_axis(at, order, axis=1)[np.arange(len(at)), np.argmax(down, axis=1)]
    q = np.minimum(np.where(down.any(axis=1), first, np.inf), v.min() + kinks.k)
    return q + kinks.base + (kinks.step * np.maximum(q[:, None] - at, 0.0)).sum(axis=1)


def drmdp_backup_mccormick(
    coeffs: DecisionRuleCoefficients,
    v_next: np.ndarray,
    lam: float,
    k: float,
    L: int,
    M: int,
    kinks: EnvelopeKinks | None = None,
) -> tuple[float, Action]:
    """The McCormick MIP's optimum: the largest envelope-relaxed backup over
    the integer levels 0..L x 0..M, whose only integer columns are the two
    levels, so fixing them leaves the relaxed LP, solved in closed form.

    kinks is the state's envelope_kinks(coeffs, k, L, M), built here when
    not given.  The envelopes are exact at a level's bounds, so at a corner
    level the value is the enumeration backup's; in between it may lie
    above, so the optimum is an upper bound on the enumeration backup.  Ties
    go to the first level in (y_V, y_R) order.
    """
    if kinks is None:
        kinks = envelope_kinks(coeffs, k, L, M)
    vals = envelope_level_values(kinks, lam * v_next[coeffs.support])
    best = int(np.argmax(vals))
    return float(vals[best]), Action(*divmod(best, M + 1))


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
