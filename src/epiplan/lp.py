"""Dense linear and mixed-integer programming, sized for per-state subproblems.

The LP solver is a primal simplex on a dense tableau.  It starts from the
slack basis: every <= row with a nonnegative right side (after bounds are
shifted out) and every >= row with a negative one has a unit slack column,
and only the other rows get an artificial column and a phase 1.  Entering
columns follow Dantzig's rule with ties broken by lowest index, switching to
Bland's rule after 10*(rows+cols) iterations so cycling cannot occur.  A
pivot updates only the rows whose entry in the pivot column is nonzero; the
others would change by exactly zero, so this is the dense update's result bit
for bit (`tests/oracles.dense_solve_lp`).  The MIP
solver wraps it in best-first branch and bound, branching on the most
fractional integer variable.  The root LP is solved once and is the first
node, so a MIP makes one LP solve per node: `Solution.nodes` counts them and
`Solution.iterations` sums their pivots.  Everything is deterministic:
identical inputs pivot identically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError

_TOL = 1e-9
_INT_TOL = 1e-6
_GAP_TOL = 1e-6


@dataclass
class LinearProgram:
    """max or min of c'x subject to row constraints and variable bounds.

    rel holds one of "<=", ">=", "==" per row.  Bounds may be +/-inf.
    """

    sense: str
    c: np.ndarray
    A: np.ndarray
    rel: list[str]
    b: np.ndarray
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=np.float64)
        self.A = np.asarray(self.A, dtype=np.float64)
        if self.A.ndim != 2:
            self.A = self.A.reshape(-1, len(self.c))
        self.b = np.asarray(self.b, dtype=np.float64)
        n = len(self.c)
        if self.lb is None:
            self.lb = np.zeros(n)
        if self.ub is None:
            self.ub = np.full(n, np.inf)
        self.lb = np.asarray(self.lb, dtype=np.float64)
        self.ub = np.asarray(self.ub, dtype=np.float64)
        if self.sense not in ("max", "min"):
            raise DomainError(f"sense must be 'max' or 'min', got {self.sense!r}")
        if self.A.shape != (len(self.b), n):
            raise DomainError("A shape inconsistent with c and b")
        if len(self.rel) != len(self.b):
            raise DomainError("rel length inconsistent with b")
        if any(r not in ("<=", ">=", "==") for r in self.rel):
            raise DomainError("relations must be <=, >= or ==")
        if np.any(self.lb > self.ub):
            raise DomainError("variable lower bound exceeds upper bound")

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @property
    def n_rows(self) -> int:
        return len(self.b)


@dataclass
class MixedIntegerProgram:
    """A LinearProgram plus integrality marks; integer variables need finite bounds."""

    lp: LinearProgram
    integer: np.ndarray

    def __post_init__(self) -> None:
        self.integer = np.asarray(self.integer, dtype=bool)
        if self.integer.shape != (self.lp.n_vars,):
            raise DomainError("integrality mask must match variable count")
        bad = self.integer & (~np.isfinite(self.lp.lb) | ~np.isfinite(self.lp.ub))
        if bad.any():
            raise DomainError("integer variables must have finite bounds")


@dataclass
class Solution:
    status: str                      # optimal | infeasible | unbounded
    objective: float | None = None
    x: np.ndarray | None = None
    iterations: int = 0
    nodes: int = 0


class _Canonical:
    """min c'y, A y == b, y >= 0 plus bookkeeping to map back to the original.

    Each variable gives one column in order: x = lo + y when lo is finite
    (plus a row y <= hi - lo when hi is too), x = hi - y when only hi is, and
    a free x = y+ - y- gives the pair y+, y- of adjacent columns.
    """

    def __init__(self, lp: LinearProgram):
        lo, hi = lp.lb, lp.ub
        has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
        self.free = ~has_lo & ~has_hi
        self.scale = np.where(has_hi & ~has_lo, -1.0, 1.0)
        self.shift = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
        width = 1 + self.free
        self.start = np.cumsum(width) - width   # first column of each variable
        cols = np.repeat(np.arange(lp.n_vars), width)
        col_scale = self.scale[cols]
        col_scale[self.start[self.free] + 1] = -1.0
        self.sign = 1.0 if lp.sense == "min" else -1.0
        self.n_struct = len(cols)
        self.offset = float(lp.c @ self.shift)

        boxed = np.flatnonzero(has_lo & has_hi)
        bound_rows = np.zeros((len(boxed), self.n_struct))
        bound_rows[np.arange(len(boxed)), self.start[boxed]] = 1.0
        self.A = np.vstack([lp.A[:, cols] * col_scale, bound_rows])
        self.rel = list(lp.rel) + ["<="] * len(boxed)
        self.b = np.concatenate([lp.b - lp.A @ self.shift, hi[boxed] - lo[boxed]])
        self.c = self.sign * lp.c[cols] * col_scale

    def restore(self, y: np.ndarray) -> np.ndarray:
        x = self.shift + self.scale * y[self.start]
        x[self.free] -= y[self.start[self.free] + 1]
        return x


def _pivot(T: np.ndarray, rhs: np.ndarray, i: int, j: int) -> None:
    """Pivot on T[i, j], updating only the rows with a nonzero factor: every
    other row would change by exactly zero."""
    piv = T[i, j]
    T[i] /= piv
    rhs[i] /= piv
    rows = np.flatnonzero(T[:, j])
    rows = rows[rows != i]
    factor = T[rows, j]
    T[rows] -= factor[:, None] * T[i]
    rhs[rows] -= factor * rhs[i]


def solve_lp(lp: LinearProgram) -> Solution:
    """Primal simplex; returns optimal, infeasible, or unbounded."""
    can = _Canonical(lp)
    m, n = can.A.shape

    # Equality form: a slack (+1) or surplus (-1) column per inequality row,
    # then rows negated so the rhs is nonnegative.
    rel = np.array(can.rel, dtype=object)
    ineq = np.flatnonzero(rel != "==")
    slack = np.zeros((m, len(ineq)))
    slack[ineq, np.arange(len(ineq))] = np.where(rel[ineq] == "<=", 1.0, -1.0)
    b = can.b.copy()
    neg = b < 0
    b[neg] *= -1.0
    T = np.hstack([can.A, slack])
    T[neg] *= -1.0
    n_total = T.shape[1]

    # Initial basis: slack columns that are +1 after the sign flip, and an
    # artificial column for every other row.
    basis = np.full(m, -1, dtype=np.int64)
    unit = T[ineq, n + np.arange(len(ineq))] == 1.0
    basis[ineq[unit]] = n + np.flatnonzero(unit)
    art_rows = np.flatnonzero(basis < 0)
    n_art = len(art_rows)
    basis[art_rows] = n_total + np.arange(n_art)
    if n_art:
        art = np.zeros((m, n_art))
        art[art_rows, np.arange(n_art)] = 1.0
        T = np.hstack([T, art])
    rhs = b.copy()
    iterations = 0

    def run_simplex(cost: np.ndarray, allowed: np.ndarray) -> str:
        nonlocal iterations
        r = cost - cost[basis] @ T
        bland_after = 10 * (m + T.shape[1])
        hard_cap = 200 * (m + T.shape[1]) + 10_000
        local_iter = 0
        while True:
            cand = np.where(allowed & (r < -_TOL))[0]
            if len(cand) == 0:
                return "optimal"
            if local_iter <= bland_after:
                enter = int(cand[np.argmin(r[cand])])
            else:
                enter = int(cand[0])  # Bland: lowest eligible index
            col = T[:, enter]
            pos = np.flatnonzero(col > _TOL)
            if len(pos) == 0:
                return "unbounded"
            ratios = rhs[pos] / col[pos]
            ties = pos[ratios <= ratios.min() + 1e-12]
            if local_iter <= bland_after:
                leave = int(ties[0])
            else:
                leave = int(ties[np.argmin(basis[ties])])
            _pivot(T, rhs, leave, enter)
            r = r - r[enter] * T[leave]
            basis[leave] = enter
            local_iter += 1
            iterations += 1
            if local_iter > hard_cap:
                raise SolverError("simplex iteration cap exceeded")

    if n_art:
        phase1_cost = np.zeros(T.shape[1])
        phase1_cost[n_total:] = 1.0
        allowed = np.ones(T.shape[1], dtype=bool)
        run_simplex(phase1_cost, allowed)  # bounded below by zero
        art_level = float(phase1_cost[basis] @ rhs)
        if art_level > 1e-9 * (1.0 + float(np.abs(b).max(initial=0.0))):
            return Solution(status="infeasible", iterations=iterations)
        # Drive remaining artificials out of the basis or drop their rows.
        keep_rows = np.ones(m, dtype=bool)
        for i in np.flatnonzero(basis >= n_total):
            nonzero = np.flatnonzero(np.abs(T[i, :n_total]) > _TOL)
            if len(nonzero) == 0:
                keep_rows[i] = False
                continue
            _pivot(T, rhs, i, int(nonzero[0]))
            basis[i] = nonzero[0]
        if not keep_rows.all():
            T = T[keep_rows]
            rhs = rhs[keep_rows]
            basis = basis[keep_rows]
            m = len(rhs)

    cost2 = np.zeros(T.shape[1])
    cost2[: len(can.c)] = can.c
    allowed = np.ones(T.shape[1], dtype=bool)
    allowed[n_total:] = False
    status = run_simplex(cost2, allowed)
    if status == "unbounded":
        return Solution(status="unbounded", iterations=iterations)

    y = np.zeros(T.shape[1])
    y[basis] = rhs
    x = can.restore(y[: can.n_struct])
    obj = float(lp.c @ x)
    return Solution(status="optimal", objective=obj, x=x, iterations=iterations)


def solve_mip(mip: MixedIntegerProgram) -> Solution:
    """Best-first branch and bound over LP relaxations; proven-optimal incumbent."""
    lp = mip.lp
    if not mip.integer.any():
        return solve_lp(lp)

    sense_mul = 1.0 if lp.sense == "max" else -1.0
    int_idx = np.where(mip.integer)[0]

    root = solve_lp(lp)
    if root.status != "optimal":
        return Solution(status=root.status, iterations=root.iterations, nodes=1)

    heap: list[tuple[float, int, np.ndarray, np.ndarray]] = []
    seq = 0
    heapq.heappush(heap, (-sense_mul * root.objective, seq, lp.lb.copy(), lp.ub.copy()))
    incumbent: Solution | None = None
    inc_score = -np.inf
    nodes = 0
    iterations = 0

    while heap:
        neg_bound, _, lo, hi = heapq.heappop(heap)
        bound = -neg_bound
        if incumbent is not None and bound <= inc_score + _GAP_TOL:
            break
        if nodes == 0:
            sol = root  # the first node popped is the root, already solved
        else:
            sol = solve_lp(LinearProgram(lp.sense, lp.c, lp.A, lp.rel, lp.b, lo, hi))
        nodes += 1
        iterations += sol.iterations
        if nodes > 200_000:
            raise SolverError("branch-and-bound node cap exceeded")
        if sol.status != "optimal":
            continue
        score = sense_mul * sol.objective
        if incumbent is not None and score <= inc_score + 1e-12:
            continue  # node bound cannot improve on the incumbent
        frac = np.abs(sol.x[int_idx] - np.round(sol.x[int_idx]))
        if np.all(frac <= _INT_TOL):
            if score > inc_score:
                x = sol.x.copy()
                x[int_idx] = np.round(x[int_idx])
                incumbent = Solution(status="optimal", objective=sol.objective,
                                     x=x, iterations=iterations)
                inc_score = score
            continue
        # Most fractional variable, ties by lowest index.
        dist = np.abs(frac - 0.5)
        dist[frac <= _INT_TOL] = np.inf
        j = int(int_idx[int(np.argmin(dist))])
        xj = sol.x[j]
        for child_lo, child_hi in (
            (lo, _with(hi, j, np.floor(xj + _INT_TOL))),
            (_with(lo, j, np.ceil(xj - _INT_TOL)), hi),
        ):
            if child_lo[j] > child_hi[j]:
                continue
            seq += 1
            heapq.heappush(heap, (-score, seq, child_lo, child_hi))

    if incumbent is None:
        return Solution(status="infeasible", iterations=iterations, nodes=nodes)
    incumbent.nodes = nodes
    incumbent.iterations = iterations
    return incumbent


def _with(arr: np.ndarray, j: int, val: float) -> np.ndarray:
    out = arr.copy()
    out[j] = val
    return out
