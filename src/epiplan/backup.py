"""One-stage value backups: nominal, worst-case-shifted, and mean-ambiguous.

Every back-end backs up a batch of states from a record of what does not
depend on the values.  The nominal and worst-case-shifted backups read a run
of states' rows, nominal (views of the model's blocks) or shifted, as one
RowBlock (RowBatch), and take each expectation as one segment sum.  The
shift stays in the (s, a)-rectangular L1 ball around each row (Iyengar 2005;
Nilim & El Ghaoui 2005) and moves mass toward the row's highest-infective
successor, whatever the values, over a block of rows in one pass
(worst_case_shift, shift_mass), each row's sums over its own entries.

The mean-ambiguous backup prices one action against the worst transition
distribution whose mean lies near action-dependent bounds, with violations
charged at k per unit.  Dualizing that inner problem gives a small LP in the
multipliers (q, w, u), and one function writes its block of columns, costs,
bounds and rows.  Two inner solvers use the block:

* the simplex, on the block alone, once per action;
* a closed-form parametric solve used on hot paths, batched over all actions
  of a state, exact because the dual objective is concave piecewise-linear
  in q with kinks at 2m+1 points every action shares, and over states
  padded to a common support (EnumerateBatch), as backward induction runs it.
  What it reads that does not depend on the values, the slopes, their steps
  at the kinks and the fitted rewards, is formed once (EnumerateTerms): per
  state by the model (`state_terms`, kept by `EpidemicModel.terms`), per
  chunk and stage by the batches.

The penalized mean problem itself is the test oracle both are checked
against (tests/oracles.py, tests/test_acceptance.py).

Action selection is then either explicit enumeration, or the McCormick
relaxation: box envelopes linearize the action-times-multiplier products,
and the optimum over the integer action levels is the best of the relaxed
inner values at each level, each solved in closed form like the parametric
solve, from kinks and slope steps that do not depend on the values
(EnvelopeKinks).  They are built for a chunk of states at once
(`envelope_kinks`), which backward induction backs up together, padded as
the enumeration batches are; a single-state backup is a chunk of one.  Each
reads a table that depends only on (k, L, M) (`envelope_nodes`).  The
relaxation's MIP, solved by branch and bound, is the test oracle
(tests/oracles.py).  A second MIP linearizes the products with
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
from .grid import Grid, RowBlock, SparseDistribution
from .lp import LinearProgram, MixedIntegerProgram, solve_lp, solve_mip
from .rules import (
    DecisionRuleCoefficients,
    fit_rules,  # noqa: F401  perfbench/layers.py traces backup.fit_rules
    mean_bounds,
)
from .seir import Action, segment_sums


# ---------------------------------------------------------------------------
# Nominal and worst-case-shifted backups


@dataclass(frozen=True)
class RowBatch:
    """States whose kernel rows, nominal or shifted, row_backup_batch backs up
    together: states[i] has rows i*n .. i*n + n - 1, one per action, and
    reward[i] their stage rewards.  Nothing in it depends on the values."""

    states: np.ndarray
    rows: RowBlock
    reward: np.ndarray


def row_backup_batch(batch: RowBatch, v_next: np.ndarray,
                     lam: float) -> tuple[np.ndarray, np.ndarray]:
    """max_a reward(a) + lam * E_row(a)[v_next] at every state of batch:
    (values, indices of the best actions), ties to the first.

    Each expectation is one segment of np.add.reduceat, summed over its row
    alone, so a state's values do not depend on the batch it is in.  Rows
    are never empty (SparseDistribution.block rejects them), so no segment
    runs into the next row.
    """
    rows = batch.rows
    expect = np.add.reduceat(rows.probs * v_next[rows.indices], rows.offsets[:-1])
    vals = batch.reward + lam * expect.reshape(batch.reward.shape)
    best = np.argmax(vals, axis=1)
    return vals[np.arange(len(vals)), best], best


def shift_mass(rows: RowBlock, donors: np.ndarray, receivers: np.ndarray,
               budget: float) -> RowBlock:
    """Take up to budget/2 mass from each row's donor entries, in the order
    given, add all of it to the row's receiver, and divide the row by its
    sum; a row of one entry is left as it is.

    donors are flat positions into rows.probs, each row's together and the
    rows in order; receivers holds one flat position per row, none a donor.
    The receiver's room, 1 - p_receiver, is the mass of every other entry, so
    it takes whatever is moved; each row stays a distribution within L1
    distance `budget` of its input.  Every row's running and total sums are
    taken over its own entries alone, so a row comes out the same to the
    last bit whichever rows it is shifted with; the result is checked once
    as a block (SparseDistribution.block).
    """
    lengths = np.diff(rows.offsets)
    probs = rows.probs.copy()
    have = probs[donors]
    row = np.searchsorted(rows.offsets, donors, side="right") - 1
    counts = np.bincount(row, minlength=len(lengths))
    first = np.cumsum(counts) - counts
    rank = np.arange(len(donors)) - np.repeat(first, counts)
    # Each row's donors, in order, after a zero column: the running sum at
    # column j is the mass taken by the row's first j donors, in order.
    padded = np.zeros((len(lengths), counts.max(initial=0) + 1))
    padded[row, rank + 1] = have
    before = np.cumsum(padded, axis=1)[row, rank]
    take = np.minimum(have, np.maximum(budget / 2.0 - before, 0.0))
    probs[donors] -= take
    probs[receivers] += segment_sums(take, first, counts)
    total = np.where(lengths > 1, segment_sums(probs, rows.offsets[:-1], lengths), 1.0)
    probs /= np.repeat(total, lengths)
    return SparseDistribution.block(rows.indices, probs, rows.offsets)


def worst_case_shift(rows: RowBlock, grid: Grid, budget: float) -> RowBlock:
    """Move up to budget/2 mass in each row from its low-infective
    successors, lowest p_I first, to its highest-infective one (lowest index
    among ties): one sort of every entry by (row, p_I, index).  At budget 0
    the rows themselves are returned."""
    if budget <= 0.0:
        return rows
    lengths = np.diff(rows.offsets)
    row = np.repeat(np.arange(len(lengths)), lengths)
    p_I = grid.coords[rows.indices, 2]
    order = np.lexsort((rows.indices, p_I, row))
    p_I = p_I[order]
    low = p_I < p_I[rows.offsets[1:] - 1][row]  # each row's top p_I sorts last
    n_low = np.bincount(row[low], minlength=len(lengths))
    return shift_mass(rows, order[low], order[rows.offsets[:-1] + n_low], budget)


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
    Leading batch axes are allowed, as in inner_values.

    For fixed q the problem separates per successor j into a two-variable LP
    whose value g_j(d), d = q - v_j, is concave in d and, being a max of
    vertex values on each of [-k, 0] and [0, k], affine on each; it is
    constant below -k and infeasible above k.  The objective q + sum_j g_j is
    therefore concave piecewise-linear with kinks only at v_j - k and v_j,
    the same points for every action, and is maximized at the first kink
    where its slope turns nonpositive, or at the right end min(v) + k.
    """
    return inner_values(enumerate_terms(eta_L, eta_U, k), v)


@dataclass(frozen=True)
class EnumerateTerms:
    """What the parametric inner solve reads that does not depend on the
    successor values, for one state or for a batch of states padded to a
    common support (any leading batch axes).

    Per action and successor, kg0 (..., n, m) is the term's value k*g0 at
    d = 0, and s1 and s2 its slopes on [-k, 0] and [0, k] (see
    inner_value_parametric).  steps (..., 2m + 1, n) holds the slope steps
    one row of n actions per kink: s1 at the kinks v - k (rows :m), s2 - s1
    at the kinks v (rows m:2m), and -inf at a sentinel kink +inf.  reward
    (..., n) is the fitted reward X @ eps a backup adds at every action, or
    None where only the inner problem is solved.
    """

    k: float
    kg0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    steps: np.ndarray
    reward: np.ndarray | None = None


def enumerate_terms(eta_L: np.ndarray, eta_U: np.ndarray, k: float,
                    reward: np.ndarray | None = None) -> EnumerateTerms:
    """The EnumerateTerms of the multiplier LP at mean bounds eta_L / eta_U
    (..., n, m) and penalty k, carrying reward."""
    A = -np.asarray(eta_U, dtype=np.float64)  # coefficient of w
    B = np.asarray(eta_L, dtype=np.float64)   # coefficient of u

    # Per unit of k: g(0) = k*g0, g(-k) = k*max(0, A, B), g(k) = k*A, so the
    # slopes on [-k, 0] and [0, k] are s1 and s2 whatever k is.  Written in
    # place, so a stage batch holds no more than the results.
    g0 = A + B
    g0 *= 0.5
    np.maximum(A, g0, out=g0)
    np.maximum(g0, 0.0, out=g0)
    s1 = np.maximum(A, B)
    np.maximum(s1, 0.0, out=s1)
    np.subtract(g0, s1, out=s1)
    s2 = np.subtract(A, g0, out=A)
    n, m = s1.shape[-2:]
    steps = np.empty(s1.shape[:-2] + (2 * m + 1, n))
    steps[..., :m, :] = np.swapaxes(s1, -1, -2)
    np.subtract(s2, s1, out=np.swapaxes(steps[..., m:2 * m, :], -1, -2))
    steps[..., 2 * m, :] = -np.inf
    g0 *= k
    return EnumerateTerms(float(k), g0, s1, s2, steps, reward)


def inner_values(terms: EnumerateTerms, v: np.ndarray) -> np.ndarray:
    """The multiplier LP's optimal values from its EnumerateTerms, for a batch.

    terms are (..., n, m) and v (..., m), with any leading batch axes: one
    row of n actions per state, each state over its own successor values.
    Returns (..., n).  A state padded to a wider support gives each padded
    successor v = +inf and zero slopes: its kinks sort last but for the
    sentinel, its steps are 0 and its term is an exact 0, so only the
    grouping of the final sum over successors changes.
    """
    k = terms.k
    v = np.asarray(v, dtype=np.float64)
    # The kinks in order, the sentinel +inf last.  The slope right of each
    # is 1 + c, c the cumulative step; it is nonpositive exactly when
    # c <= -1, since 1 + c is exact for c in [-2, -1/2], so c is compared
    # and the sum 1 + c is never formed.  The sentinel's step -inf makes
    # every slope turn there, at q = +inf, cut to the right end below.
    kinks = np.concatenate([v - k, v, np.full(v.shape[:-1] + (1,), np.inf)], axis=-1)
    order = kinks.argsort(axis=-1, kind="stable")
    if v.ndim == 1:
        # One state: its kinks index the rows of steps directly.
        slope = terms.steps[order]
        np.cumsum(slope, axis=0, out=slope)
        q = kinks[order[(slope <= -1.0).argmax(axis=0)]]
    else:
        # Rows in kink order by one take of whole rows over the flattened
        # batch; rows holds the flat index of each state's kinks in order.
        lead, n = v.shape[:-1], terms.steps.shape[-1]
        rows = order + (kinks.shape[-1] * np.arange(int(np.prod(lead)))).reshape(lead + (1,))
        slope = np.take(terms.steps.reshape(-1, n), rows, axis=0)
        np.cumsum(slope, axis=-2, out=slope)
        down = slope <= -1.0
        del slope
        q = np.take(kinks, np.take_along_axis(rows, down.argmax(axis=-2), axis=-1))
    q = np.minimum(q, v.min(axis=-1, keepdims=True) + k)

    # g_j at the chosen q from its two affine pieces; clipping d at k also
    # absorbs the one-ulp overshoot of (vmin + k) - v_j at the right end.
    d = q[..., None] - v[..., None, :]
    g = d.clip(-k, 0.0)
    g *= terms.s1
    g += terms.kg0
    d.clip(0.0, k, out=d)
    d *= terms.s2
    g += d
    return q + g.sum(axis=-1)


# ---------------------------------------------------------------------------
# Action optimization back-ends


def drmdp_backup_enumerate(coeffs: DecisionRuleCoefficients, actions: Sequence[Action],
                           v_next: np.ndarray, lam: float, k: float, method: str, X: np.ndarray,
                           terms: EnumerateTerms | None = None) -> tuple[float, Action]:
    """Reference backup: the inner problem for every action, then the best.

    method "parametric" solves every action in one batched call; "lp" solves
    the multiplier LP once per action.  X is the design_matrix of actions.
    terms is the state's state_terms(coeffs, X, k), which the parametric
    solve reads; it is built here when not given.  Ties go to the first of
    the given actions.
    """
    v = lam * v_next[coeffs.support]
    if method == "parametric":
        if terms is None:
            terms = state_terms(coeffs, X, k)
        vals = terms.reward + inner_values(terms, v)
    elif method == "lp":
        inner = np.empty(len(X))
        for i, (lo, hi) in enumerate(zip(*mean_bounds(coeffs, X))):
            sol = solve_lp(inner_dual_program(lo, hi, v, k))
            if sol.status != "optimal":
                raise SolverError(f"inner LP unexpectedly {sol.status}")
            inner[i] = sol.objective
        vals = X @ coeffs.eps + inner
    else:
        raise DomainError(f"unknown inner method {method!r}")
    best = int(np.argmax(vals))
    return float(vals[best]), actions[best]


def state_terms(coeffs: DecisionRuleCoefficients, X: np.ndarray,
                k: float) -> EnumerateTerms:
    """The EnumerateTerms of one state's backup: its mean bounds and fitted
    reward at the actions whose design_matrix is X, and penalty k."""
    return enumerate_terms(*mean_bounds(coeffs, X), k, X @ coeffs.eps)


@dataclass(frozen=True)
class EnumerateBatch:
    """States that drmdp_backup_enumerate_batch backs up together, each
    padded to the widest support among them.

    Row i is state states[i]: support holds its successors and then corner
    0, pad is 0 on its support and +inf past it, and mean (3, w) and delta
    (1, w) hold its mean rule and half-width, 0 past its support, so a
    padded successor has mean bounds 0 and slopes 0.  reward (c, n) is its
    fitted reward X @ eps at every action.  Nothing in it depends on the
    values backed up.
    """

    states: np.ndarray
    support: np.ndarray
    pad: np.ndarray
    mean: np.ndarray
    delta: np.ndarray
    reward: np.ndarray


def _padded_support(rules: Sequence[DecisionRuleCoefficients]) -> tuple[np.ndarray, np.ndarray]:
    """(support, pad) of states with the given rules, padded to the widest
    support: row i holds state i's successors and then corner 0, and pad is
    0 on its successors and +inf past them."""
    c, w = len(rules), max(len(coeffs.support) for coeffs in rules)
    support = np.zeros((c, w), dtype=np.intp)
    pad = np.full((c, w), np.inf)
    for i, coeffs in enumerate(rules):
        support[i, :len(coeffs.support)] = coeffs.support
        pad[i, :len(coeffs.support)] = 0.0
    return support, pad


def enumerate_batch(states: Sequence[int], rules: Sequence[DecisionRuleCoefficients],
                    X: np.ndarray) -> EnumerateBatch:
    """The EnumerateBatch of states with the given rules, X the
    design_matrix of the actions."""
    support, pad = _padded_support(rules)
    c, w = support.shape
    mean = np.zeros((c, 3, w))
    delta = np.zeros((c, 1, w))
    reward = np.empty((c, len(X)))
    for i, coeffs in enumerate(rules):
        m = len(coeffs.support)
        mean[i, :, :m] = coeffs.mean
        delta[i, :, :m] = coeffs.delta
        reward[i] = X @ coeffs.eps
    return EnumerateBatch(np.asarray(states), support, pad, mean, delta, reward)


def drmdp_backup_enumerate_batch(batch: EnumerateBatch, v_next: np.ndarray, lam: float,
                                 k: float, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """drmdp_backup_enumerate with method "parametric" at every state of
    batch: (values, indices of the best rows of X), ties to the first.

    The inner solve is inner_value_parametric's, over the padded batch; a
    state's value can differ from its own backup's only in the grouping of
    the sum over its successors.
    """
    v = lam * v_next[batch.support]
    v += batch.pad
    eta_U = X @ batch.mean                # center -/+ delta: rules.mean_bounds
    eta_L = eta_U - batch.delta
    eta_U += batch.delta
    terms = enumerate_terms(eta_L, eta_U, k, batch.reward)
    del eta_L, eta_U
    vals = terms.reward + inner_values(terms, v)
    best = np.argmax(vals, axis=1)
    return vals[np.arange(len(vals)), best], best


# Most nodes of a successor's envelope term g_j (see envelope_nodes): the 9
# crossings of w in {0, b} with u in {0, b}, and 6 of w + u = k with them.
ENVELOPE_NODES = 15


def envelope_nodes(k: float, L: int, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The breakpoints (level, pattern, axis) of phi and psi and the sorted
    distinct nodes (level, pattern, D) of g_j (see envelope_kinks), each row
    padded with its last node, k.

    A breakpoint depends only on the level and the sign of its cost, so the
    nodes depend only on the level and a successor's sign pattern 3 s_0 +
    s_1 + 4, s the signs of its u-side costs (0 on an axis with h = 0).  The
    nodes are w - u at the vertices of the lines w = 0, b; u = 0, b and w +
    u = k (a crossing of w = b and u = b' past w + u = k is no vertex; it is
    replaced by -k, a node already), equal ones kept once; envelope_kinks
    merges near ones.  D depends only on (k, L, M): 1 at k = 0; at k = 1000,
    5 at L = M = 2 and 9 at L = M = 5.
    """
    levels = np.array([(a, b) for a in range(L + 1) for b in range(M + 1)], dtype=np.float64)
    h, n = np.array([L, M], dtype=np.float64), len(levels)
    f = np.divide(levels, h, out=np.zeros_like(levels), where=h > 0)[:, None, :, None]  # a / h
    sign = np.array([(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)]).T
    cost = np.stack([-sign, sign]) * (h > 0)[:, None]                # (side, axis, pattern)
    brk = np.where(cost != 0.0, np.where(cost > 0.0, k * f, k - k * f), 0.0)
    bw, bu, zero = brk[:, 0].transpose(0, 2, 1), brk[:, 1].transpose(0, 2, 1), np.zeros((n, 9, 1))
    w_lines, u_lines = np.concatenate([zero, bw], axis=2), np.concatenate([zero, bu], axis=2)
    crossing = w_lines[..., :, None] - u_lines[..., None, :]
    inside = w_lines[..., :, None] + u_lines[..., None, :] <= k
    t = np.sort(np.concatenate([np.where(inside, crossing, -k).reshape(n, 9, 9),
                                2.0 * w_lines - k, k - 2.0 * u_lines], axis=2), axis=2)
    # The last of each run of equal nodes is kept; the rest sort past them as
    # +inf and are cut, or become the padding k.
    last = np.concatenate([t[..., 1:] != t[..., :-1], np.full((n, 9, 1), True)], axis=2)
    width = int(last.sum(axis=2).max())
    return bw, bu, np.minimum(np.sort(np.where(last, t, np.inf), axis=2)[..., :width], k)


@dataclass(frozen=True)
class EnvelopeKinks:
    """A chunk of states' envelope-relaxed inner problems at every integer
    action level, as the slope steps of their objectives in q.

    Row i is state states[i]: support holds its successors, and pad is 0 on
    them and +inf past them.  Level n is (y_V, y_R) = divmod(n, M + 1), in
    the order of model.actions.  State i's objective at level n is q +
    base[i, n] + sum_p step[i, n, p] * max(0, q - v[succ[i, n, p]] -
    offset[i, n, p]) for q <= min(v) + k, v its discounted successor values
    and succ indexing its support: base holds the reward rule at the level
    plus each successor's term at d <= -k, and only nonzero steps are kept,
    in (successor, node) order, every row padded to the chunk's longest (at
    least one) with offset +inf and step 0.  Nothing in it depends on v.
    """

    k: float
    states: np.ndarray
    support: np.ndarray
    pad: np.ndarray
    base: np.ndarray
    offset: np.ndarray
    succ: np.ndarray
    step: np.ndarray


def envelope_kinks(states: Sequence[int], rules: Sequence[DecisionRuleCoefficients],
                   k: float, L: int, M: int, nodes: tuple[np.ndarray, ...]) -> EnvelopeKinks:
    """The EnvelopeKinks of the McCormick relaxation over levels 0..L x 0..M
    of states with the given rules; nodes is envelope_nodes(k, L, M).

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
    lines w in {0, b}, u in {0, b} and w + u = k (envelope_nodes).  Between
    them it is the best of the points where the line w - u = d meets those
    lines, maximized over every line at or right of d.  Nodes closer than
    1e-12 k are merged, so no slope divides by a vanishing gap.

    Every step before the layout works per (level, successor), so the
    states' successors lie end to end on one successor axis; each state's
    record is the one it gets alone, padded to the chunk.
    """
    c, sizes = len(rules), [len(coeffs.support) for coeffs in rules]
    support, pad = _padded_support(rules)
    first = np.cumsum(sizes) - sizes                  # each state's first successor
    owner = np.repeat(np.arange(c), sizes)            # each successor's state
    mean = np.concatenate([coeffs.mean for coeffs in rules], axis=1)
    delta = np.repeat([coeffs.delta for coeffs in rules], sizes)
    levels = np.array([(a, b) for a in range(L + 1) for b in range(M + 1)], dtype=np.float64)
    h, n = np.array([L, M], dtype=np.float64), len(levels)
    # cost[s, i, j] of a_i * w_j (s = 0) and a_i * u_j (s = 1).
    cost = np.stack([-mean[1:], mean[1:]]) * (h > 0)[:, None]
    hinge = np.abs(cost) * h[:, None]
    alpha = (np.stack([-(mean[0] + delta), mean[0] - delta])
             + np.where(cost > 0.0, hinge, 0.0).sum(axis=1))            # (2, m)
    # Breakpoints (level, successor, axis) and nodes (level, successor, D)
    # of each successor's sign pattern, and hinge slopes (successor, axis)
    # of each side.
    pattern = (3.0 * np.sign(cost[1, 0]) + np.sign(cost[1, 1]) + 4.0).astype(np.intp)
    bw, bu, t = (table[:, pattern] for table in nodes)
    sides = ((alpha[0], bw, hinge[0].T), (alpha[1], bu, hinge[1].T))

    def concave(x, side):
        """phi (side 0) or psi (side 1) at x (level, successor, node or 1):
        slope x - sum_i hinge_i max(0, x - brk_i)."""
        slope, brk, hinge = sides[side]
        return (slope[:, None] * x
                - hinge[:, 0, None] * np.maximum(x - brk[:, :, 0, None], 0.0)
                - hinge[:, 1, None] * np.maximum(x - brk[:, :, 1, None], 0.0))

    def families():
        """The points (w, u) where the line w - u = t meets u = 0 or w = 0,
        w + u = k, w = b and u = b; on w = b (u = b) phi (psi) takes one
        value per level and successor."""
        yield np.maximum(t, 0.0), np.maximum(-t, 0.0)
        yield (k + t) / 2.0, (k - t) / 2.0
        for i in range(2):
            yield bw[..., i, None], bw[..., i, None] - t
            yield bu[..., i, None] + t, bu[..., i, None]

    # G at each node: the best of those points in the triangle, one family
    # at a time; g(t) is the best G at or right of t.
    G = np.full(t.shape, -np.inf)
    for w, u in families():
        val = concave(w, 0) + concave(u, 1)
        np.maximum(G, np.where((w >= 0.0) & (u >= 0.0) & (w + u <= k), val, -np.inf), out=G)
    g = np.maximum.accumulate(G[..., ::-1], axis=2)[..., ::-1]
    del G

    # Right slope on each gap, carried over merged nodes; steps at all but
    # the last node (k), past which d never goes.
    dt = np.diff(t, axis=2)
    gap = dt > 1e-12 * k
    raw = np.where(gap, np.diff(g, axis=2) / np.where(gap, dt, 1.0), 0.0)
    last = np.maximum.accumulate(np.where(gap, np.arange(dt.shape[2]), -1), axis=2)
    slope = np.where(last >= 0, np.take_along_axis(raw, np.maximum(last, 0), axis=2), 0.0)
    del dt, gap, raw, last
    step = np.diff(slope, axis=2, prepend=0.0)

    # Each (state, level) row keeps its nonzero steps in (successor, node)
    # order, the order nonzero lists them in for a fixed level.
    lv, j, node = np.nonzero(step)
    row = owner[j] * n + lv
    order = np.argsort(row, kind="stable")
    row, lv, j, node = row[order], lv[order], j[order], node[order]
    count = np.bincount(row, minlength=c * n)
    pos = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    width = max(1, int(count.max()))
    offset = np.full((c * n, width), np.inf)
    succ = np.zeros((c * n, width), dtype=np.int32)
    steps = np.zeros((c * n, width))
    offset[row, pos] = t[lv, j, node]
    succ[row, pos] = j - first[owner[j]]
    steps[row, pos] = step[lv, j, node]
    base = np.empty((c, n))
    for i, coeffs in enumerate(rules):
        base[i] = (coeffs.eps[0] + levels @ coeffs.eps[1:]
                   + g[:, first[i]:first[i] + sizes[i], 0].sum(axis=1))
    shape = (c, n, width)
    return EnvelopeKinks(float(k), np.asarray(states), support, pad, base,
                         offset.reshape(shape), succ.reshape(shape), steps.reshape(shape))


def envelope_level_values(kinks: EnvelopeKinks, v: np.ndarray) -> np.ndarray:
    """The relaxed backup value (c, n) at each state and level of kinks, for
    discounted successor values v (c, S) over each state's support, +inf
    past it.

    The objective in q is concave piecewise-linear with slope 1 below its
    first kink, so, as in inner_value_parametric, it is maximized at the
    first kink where its slope turns nonpositive, or at the right end
    min(v) + k, and evaluated once there.  A padded kink sorts after every
    real one with step 0, and adds an exact 0 to the objective.
    """
    at = kinks.offset + np.take_along_axis(v[:, None, :], kinks.succ, axis=2)
    order = np.argsort(at, axis=2, kind="stable")
    slope = 1.0 + np.cumsum(np.take_along_axis(kinks.step, order, axis=2), axis=2)
    down = slope <= 0.0
    turn = np.take_along_axis(order, down.argmax(axis=2)[..., None], axis=2)
    first = np.take_along_axis(at, turn, axis=2)[..., 0]
    q = np.minimum(np.where(down.any(axis=2), first, np.inf),
                   v.min(axis=1, keepdims=True) + kinks.k)
    return q + kinks.base + (kinks.step * np.maximum(q[..., None] - at, 0.0)).sum(axis=2)


def drmdp_backup_mccormick_batch(kinks: EnvelopeKinks, v_next: np.ndarray,
                                 lam: float) -> tuple[np.ndarray, np.ndarray]:
    """drmdp_backup_mccormick at every state of kinks: (values, indices of
    the best levels), ties to the first.

    A state's optimal q and level are its own; padded to a wider row, its
    value can differ from its own backup's only in the grouping of the sum
    over its kinks.
    """
    v = lam * v_next[kinks.support]
    v += kinks.pad
    vals = envelope_level_values(kinks, v)
    best = np.argmax(vals, axis=1)
    return vals[np.arange(len(vals)), best], best


def drmdp_backup_mccormick(coeffs: DecisionRuleCoefficients, v_next: np.ndarray, lam: float,
                           k: float, L: int, M: int,
                           kinks: EnvelopeKinks | None = None) -> tuple[float, Action]:
    """The McCormick MIP's optimum: the largest envelope-relaxed backup over
    the integer levels 0..L x 0..M, whose only integer columns are the two
    levels, so fixing them leaves the relaxed LP, solved in closed form.

    kinks is the state's batch of one (envelope_kinks), built here when not
    given.  The envelopes are exact at a level's bounds, so at a corner
    level the value is the enumeration backup's; in between it may lie
    above, so the optimum is an upper bound on the enumeration backup.  Ties
    go to the first level in (y_V, y_R) order.
    """
    if kinks is None:   # a chunk of no state of a model
        kinks = envelope_kinks([-1], [coeffs], k, L, M, envelope_nodes(k, L, M))
    values, best = drmdp_backup_mccormick_batch(kinks, v_next, lam)
    return float(values[0]), Action(*divmod(int(best[0]), M + 1))


def drmdp_backup_unary(coeffs: DecisionRuleCoefficients, v_next: np.ndarray, lam: float,
                       k: float, L: int, M: int) -> tuple[float, Action]:
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
