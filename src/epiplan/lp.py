"""Dense linear and mixed-integer programming, sized for per-state subproblems.

Every program has one form: maximize c'x subject to A x <= b and
lb <= x <= ub, with every lb finite and b - A lb >= 0.  Shifting x = lb + y
then leaves the slack basis feasible, so the LP solver is a one-phase primal
simplex on a dense tableau that starts there (Chvatal, *Linear Programming*,
1983, ch. 2-3); it never reports infeasible.  `solve_lp` raises DomainError
naming the failed condition for a program outside the form, and so does a
branch-and-bound node that leaves it.  Entering columns follow Dantzig's rule
with ties broken by lowest index, switching to Bland's rule after
10*(rows+cols) iterations so cycling cannot occur.  A pivot updates only the
rows whose entry in the pivot column is nonzero; the others would change by
exactly zero, so this is the dense update's result bit for bit
(`tests/oracles.dense_solve_lp`, the general two-phase reference).  The MIP
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
    """maximize c'x subject to A x <= b and lb <= x <= ub.

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
    """The program in y = x - lb >= 0: A y <= b - A lb, plus one row
    y_j <= ub_j - lb_j per finite ub_j.  Raises DomainError when an lb is not
    finite or a right side is negative, the two ways the slack basis can fail
    to be feasible."""

    def __init__(self, lp: LinearProgram):
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
        bound_rows = np.zeros((len(boxed), lp.n_vars))
        bound_rows[np.arange(len(boxed)), boxed] = 1.0
        self.A = np.vstack([lp.A, bound_rows])
        self.b = np.concatenate([b, hi[boxed] - lo[boxed]])


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
    """Primal simplex from the slack basis; returns optimal or unbounded."""
    can = _Canonical(lp)
    m, n = can.A.shape
    T = np.hstack([can.A, np.eye(m)])
    rhs = can.b
    basis = n + np.arange(m)
    # Reduced costs of minimizing -c'y: the slack basis has zero cost.
    r = np.concatenate([-lp.c, np.zeros(m)])
    bland_after = 10 * (m + T.shape[1])
    hard_cap = 200 * (m + T.shape[1]) + 10_000
    iterations = 0
    while True:
        cand = np.flatnonzero(r < -_TOL)
        if len(cand) == 0:
            break
        if iterations <= bland_after:
            enter = int(cand[np.argmin(r[cand])])
        else:
            enter = int(cand[0])  # Bland: lowest eligible index
        col = T[:, enter]
        pos = np.flatnonzero(col > _TOL)
        if len(pos) == 0:
            return Solution(status="unbounded", iterations=iterations)
        ratios = rhs[pos] / col[pos]
        ties = pos[ratios <= ratios.min() + 1e-12]
        if iterations <= bland_after:
            leave = int(ties[0])
        else:
            leave = int(ties[np.argmin(basis[ties])])
        _pivot(T, rhs, leave, enter)
        r = r - r[enter] * T[leave]
        basis[leave] = enter
        iterations += 1
        if iterations > hard_cap:
            raise SolverError("simplex iteration cap exceeded")

    y = np.zeros(T.shape[1])
    y[basis] = rhs
    x = lp.lb + y[:n]
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
