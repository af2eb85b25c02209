"""Dense linear and mixed-integer programming, sized for per-state subproblems.

Every program has one form: maximize c'x subject to A x <= b and
lb <= x <= ub, with c, A, b and lb finite and b - A lb >= 0.  Shifting
x = lb + y then leaves the slack basis feasible, so the LP solver is a
one-phase primal simplex that starts there (Chvatal, *Linear Programming*,
1983, ch. 2-3); it never reports infeasible.  `LinearProgram` rejects a
non-finite c, A or b, and `solve_lp` a program or branch-and-bound node
outside the form, each with a DomainError naming the failed condition.  The
simplex keeps one preallocated tableau: a row [A | I | b - A lb] per
constraint, a row y_j <= ub_j - lb_j per finite ub_j, and the reduced costs
[-c | 0 | 0] last.  Entering columns follow Dantzig's rule (least reduced
cost, ties by lowest index), switching to Bland's rule after 10*(rows+cols)
iterations so cycling cannot occur.  A pivot scales its row, then updates,
in one rank-1 step, only the rows (cost row and right sides included) whose
pivot-column entry is nonzero; the others would change by exactly zero, so
this is the dense update's result bit for bit (`tests/oracles.dense_solve_lp`,
the general two-phase reference).  The MIP solver wraps it in best-first
branch and bound, branching on the most fractional integer variable.  The
root LP is solved once and is the first node, so a MIP makes one LP solve
per node: `Solution.nodes` counts them and `Solution.iterations` sums their
pivots.  Everything is deterministic: identical inputs pivot identically.
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
    """maximize c'x subject to A x <= b and lb <= x <= ub; c, A, b finite.

    lb defaults to zero and ub to +inf; solve_lp needs lb finite and
    b - A lb >= 0, and ub may be +inf.
    """

    c: np.ndarray
    A: np.ndarray
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
        if self.A.shape != (len(self.b), n):
            raise DomainError("A shape inconsistent with c and b")
        for name in ("c", "A", "b"):
            arr = getattr(self, name)
            bad = ~np.isfinite(arr)
            if bad.any():
                at = tuple(np.argwhere(bad)[0].tolist())
                raise DomainError(f"LinearProgram needs finite {name}: "
                                  f"{name}{list(at)} is {arr[at]}")
        if not (self.lb <= self.ub).all():  # NaN fails too
            raise DomainError("variable bounds need lb <= ub, neither NaN")

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


def solve_lp(lp: LinearProgram) -> Solution:
    """Primal simplex from the slack basis; returns optimal or unbounded."""
    lo, hi = lp.lb, lp.ub
    if not np.isfinite(lo).all():
        j = int(np.argmin(np.isfinite(lo)))
        raise DomainError(f"solve_lp needs finite lower bounds: column {j} has {lo[j]}")
    b = lp.b - lp.A @ lo
    short = ~(b >= 0.0)  # NaN fails too
    if short.any():
        i = int(np.argmax(short))
        raise DomainError(f"solve_lp starts at the slack basis, so it needs "
                          f"b - A lb >= 0: row {i} has {b[i]}")
    boxed = np.flatnonzero(np.isfinite(hi))
    k, n = lp.A.shape
    m = k + len(boxed)
    # Rows [A | I | b - A lb], one bound row y_j <= ub_j - lb_j per finite
    # ub_j, and the reduced costs of minimizing -c'y last: [-c | 0 | 0].
    T = np.zeros((m + 1, n + m + 1))
    T[:k, :n] = lp.A
    T[k + np.arange(len(boxed)), boxed] = 1.0
    T[np.arange(m), n + np.arange(m)] = 1.0
    T[:k, -1] = b
    T[k:m, -1] = hi[boxed] - lo[boxed]
    T[m, :n] = -lp.c
    rhs, cost = T[:m, -1], T[m, :-1]
    ratio = np.empty(m)
    basis = n + np.arange(m)
    bland_after = 10 * (2 * m + n)
    hard_cap = 200 * (2 * m + n) + 10_000
    iterations = 0
    while True:
        enter = int(cost.argmin())
        if not cost[enter] < -_TOL:
            break
        bland = iterations > bland_after
        if bland:
            enter = int((cost < -_TOL).argmax())  # lowest eligible index
        col = T[:m, enter]
        ratio.fill(np.inf)
        np.divide(rhs, col, out=ratio, where=col > _TOL)
        least = ratio.min(initial=np.inf)
        if least == np.inf:
            return Solution(status="unbounded", iterations=iterations)
        ties = ratio <= least + 1e-12
        if bland:
            ties = ties.nonzero()[0]
            leave = int(ties[basis[ties].argmin()])
        else:
            leave = int(ties.argmax())
        # Rows with a zero pivot-column entry would change by exactly zero.
        row = T[leave]
        row /= row[enter]
        rows = T[:, enter].nonzero()[0]
        rows = rows[rows != leave]
        T[rows] -= T[rows, enter, None] * row
        basis[leave] = enter
        iterations += 1
        if iterations > hard_cap:
            raise SolverError("simplex iteration cap exceeded")

    y = np.zeros(n + m)
    y[basis] = rhs
    x = lo + y[:n]
    return Solution(status="optimal", objective=float(lp.c @ x), x=x,
                    iterations=iterations)


def solve_mip(mip: MixedIntegerProgram) -> Solution:
    """Best-first branch and bound over LP relaxations; proven-optimal incumbent."""
    lp = mip.lp
    if not mip.integer.any():
        return solve_lp(lp)

    int_idx = np.where(mip.integer)[0]

    root = solve_lp(lp)
    if root.status != "optimal":
        return Solution(status=root.status, iterations=root.iterations, nodes=1)

    heap: list[tuple[float, int, np.ndarray, np.ndarray]] = []
    seq = 0
    heapq.heappush(heap, (-root.objective, seq, lp.lb.copy(), lp.ub.copy()))
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
            sol = solve_lp(LinearProgram(lp.c, lp.A, lp.b, lo, hi))
        nodes += 1
        iterations += sol.iterations
        if nodes > 200_000:
            raise SolverError("branch-and-bound node cap exceeded")
        if sol.status != "optimal":
            continue
        score = sol.objective
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
