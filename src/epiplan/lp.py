"""Dense linear and mixed-integer programming, sized for per-state subproblems.

The LP solver is a two-phase primal simplex on a dense tableau.  Entering
columns follow Dantzig's rule with ties broken by lowest index, switching to
Bland's rule after 10*(rows+cols) iterations so cycling cannot occur.  The MIP
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
    """min c'y, A y == b, y >= 0 plus bookkeeping to map back to the original."""

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        sign = 1.0 if lp.sense == "min" else -1.0
        self.back: list[tuple[int, float, float]] = []  # (orig var, scale, shift)
        shift = np.zeros(n)
        extra_rows: list[tuple[int, str, float]] = []   # (canonical col, rel, rhs)

        A_cols: list[np.ndarray] = []
        c_list: list[float] = []
        for j in range(n):
            lo, hi = lp.lb[j], lp.ub[j]
            col = lp.A[:, j]
            if np.isfinite(lo):
                # x = lo + y
                shift[j] = lo
                A_cols.append(col)
                c_list.append(sign * lp.c[j])
                self.back.append((j, 1.0, lo))
                if np.isfinite(hi):
                    extra_rows.append((len(A_cols) - 1, "<=", hi - lo))
            elif np.isfinite(hi):
                # x = hi - y
                shift[j] = hi
                A_cols.append(-col)
                c_list.append(-sign * lp.c[j])
                self.back.append((j, -1.0, hi))
            else:
                # free: x = y+ - y-
                A_cols.append(col)
                c_list.append(sign * lp.c[j])
                self.back.append((j, 1.0, 0.0))
                A_cols.append(-col)
                c_list.append(-sign * lp.c[j])
                self.back.append((j, -1.0, 0.0))

        self.n_struct = len(A_cols)
        A = np.column_stack(A_cols) if A_cols else np.zeros((lp.n_rows, 0))
        b = lp.b - lp.A @ shift
        self.offset = float(lp.c @ shift)

        rows = [A]
        rels = list(lp.rel)
        rhs = list(b)
        for unit_idx, rel, val in extra_rows:
            row = np.zeros(self.n_struct)
            row[unit_idx] = 1.0
            rows.append(row.reshape(1, -1))
            rels.append(rel)
            rhs.append(val)
        self.A = np.vstack(rows)
        self.rel = rels
        self.b = np.array(rhs)
        self.c = np.array(c_list)
        self.sign = sign
        self.n_orig = n

    def restore(self, y: np.ndarray) -> np.ndarray:
        x = np.zeros(self.n_orig)
        consumed = np.zeros(self.n_orig, dtype=bool)
        for col, (j, scale, shift) in enumerate(self.back):
            if not consumed[j]:
                x[j] = shift
                consumed[j] = True
            x[j] += scale * y[col]
        return x


def solve_lp(lp: LinearProgram) -> Solution:
    """Primal simplex; returns optimal, infeasible, or unbounded."""
    can = _Canonical(lp)
    m, n = can.A.shape

    # Equality form with slack/surplus columns, rhs made nonnegative.
    A = can.A.copy()
    b = can.b.copy()
    rel = list(can.rel)
    slack_cols = []
    for i, r in enumerate(rel):
        if r == "<=":
            col = np.zeros(m)
            col[i] = 1.0
            slack_cols.append(col)
        elif r == ">=":
            col = np.zeros(m)
            col[i] = -1.0
            slack_cols.append(col)
    A = np.hstack([A] + [c.reshape(-1, 1) for c in slack_cols]) if slack_cols else A
    n_total = A.shape[1]

    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Initial basis: unit slack columns where available, artificials elsewhere.
    basis = np.full(m, -1, dtype=np.int64)
    slack_at = n
    for i, r in enumerate(rel):
        if r in ("<=", ">="):
            if A[i, slack_at] == 1.0:
                basis[i] = slack_at
            slack_at += 1
    art_cols = []
    for i in range(m):
        if basis[i] == -1:
            col = np.zeros(m)
            col[i] = 1.0
            art_cols.append(col)
            basis[i] = n_total + len(art_cols) - 1
    n_art = len(art_cols)
    if n_art:
        A = np.hstack([A] + [c.reshape(-1, 1) for c in art_cols])

    T = A.astype(np.float64)
    rhs = b.astype(np.float64)
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
            pos = col > _TOL
            if not pos.any():
                return "unbounded"
            ratios = np.full(len(rhs), np.inf)
            ratios[pos] = rhs[pos] / col[pos]
            best = float(ratios.min())
            ties = np.where(ratios <= best + 1e-12)[0]
            if local_iter <= bland_after:
                leave = int(ties[0])
            else:
                leave = int(ties[np.argmin(basis[ties])])
            piv = T[leave, enter]
            T[leave] /= piv
            rhs[leave] /= piv
            factor = T[:, enter].copy()
            factor[leave] = 0.0
            T[:] -= np.outer(factor, T[leave])
            rhs[:] -= factor * rhs[leave]
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
        status = run_simplex(phase1_cost, allowed)
        art_level = float(phase1_cost[basis] @ rhs)
        if art_level > 1e-9 * (1.0 + float(np.abs(b).max(initial=0.0))):
            return Solution(status="infeasible", iterations=iterations)
        # Drive remaining artificials out of the basis or drop their rows.
        keep_rows = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n_total:
                pivot_col = -1
                for j in range(n_total):
                    if abs(T[i, j]) > _TOL:
                        pivot_col = j
                        break
                if pivot_col == -1:
                    keep_rows[i] = False
                    continue
                piv = T[i, pivot_col]
                T[i] /= piv
                rhs[i] /= piv
                factor = T[:, pivot_col].copy()
                factor[i] = 0.0
                T[:] -= np.outer(factor, T[i])
                rhs[:] -= factor * rhs[i]
                basis[i] = pivot_col
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
