"""Reference implementations the tests compare the runtime routes against.

None of these runs in the package: each is a slower, more literal statement
of a quantity that `epiplan` computes another way.

* `push_group` — the plane-moment push of the corners of one (n_E, n_I),
  given each one's exposure laws (`grid._exposure_laws`), with its own
  suffix sums and prefix tables, which `grid.discretize_kernel` pushed group
  by group before it pushed all groups of a run in one pass: the raw rows
  (successors, masses and row lengths) must be the batched pass's bit for
  bit.  Only its `binomial_rows` call is reshaped, to the outer product of
  the counts and probabilities that function then took.
* `binomial_pmf` — the exact scalar binomial law, in 50-digit decimal
  arithmetic, that `seir.binomial_row` computes by a ratio recurrence and
  truncates.
* `binomial_row_alone` — that ratio recurrence for one (n, p), as
  `seir.binomial_row` ran it before `seir.binomial_rows` built the rows of
  many pairs at once, which must give these rows bit for bit.
* `fit_affine`, `fit_rules_per_state` — the rule fit of one state as a
  dense least-squares solve: its rows zero-padded onto the union support
  and one normal-equations solve per state; `rules.fit_rule_block` fits
  many states from their flat rows with the design's solve formed once
  (`rules.rule_hat`), which must give these supports exactly and these
  coefficients within the README's block-hydration bound.
* `inner_primal_oracle` — the penalized worst-mean problem solved over mean
  vectors, the primal of the multiplier LP (`backup.inner_dual_program`,
  solved by `backup.drmdp_backup_enumerate` with method "lp") and of its
  closed-form solve (`backup.inner_value_parametric`).
* `lp_duality_check` — the textbook dual of any LP, solved with the
  two-phase reference simplex, to check strong duality of `lp.solve_lp`.
* `dense_solve_lp` — the general two-phase reference simplex: `GeneralLP`
  programs (max or min, `<=`, `>=` and `==` rows, free and upper-only
  columns) with a column-at-a-time setup, the right sides and reduced costs
  held apart from the tableau, and a dense rank-1 update of every row on
  every pivot.  On the one form `lp.solve_lp` accepts (max, `<=` rows, finite
  lower bounds, a feasible slack basis) it pivots as that solver does, which
  builds one tableau with array operations (rows, right sides and reduced
  costs together) and updates only the rows a pivot changes;
  `dense_solve_mip` is `lp.solve_mip` with every node solved by it, for MIPs
  outside that form.
* `mccormick_mip_program`, `mccormick_mip_backup` — the McCormick relaxation
  as one MIP over the integer action levels, its envelope rows written on
  the binding side only and solved by branch and bound over `lp.solve_lp`;
  `backup.drmdp_backup_mccormick` computes its optimum level by level in
  closed form.
* `mccormick_four_row_backup` — that MIP with all four box-envelope rows per
  product.
* `mccormick_binding_program_loop` — the binding-side program with its
  envelope rows written in a loop, which `mccormick_mip_program` writes with
  array indexing.
* `inner_value_parametric_one_state` — the closed-form inner solve written
  for one state, its slope steps laid out per action and put in kink order
  by fancy indexing; `backup.inner_values` lays them out per kink so that
  it can take a batch of states, and must give these values bit for bit on
  a batch of one.
* `inner_values_unrecorded`, `drmdp_backup_enumerate_unrecorded`,
  `drmdp_backup_enumerate_batch_unrecorded` — the enumeration backup with
  its slopes and slope steps formed on every call, for one state or a
  padded batch; `backup.state_terms` and the stage batches form them once
  per state or per chunk (`backup.EnumerateTerms`), which must give these
  values and actions bit for bit.
* `envelope_kinks_one_state`, `envelope_level_values_one_state` — the
  McCormick back-end's kink record and level values for one state, each row
  padded to the state's longest; `backup.envelope_kinks` builds the records
  of a chunk of states on one successor axis and `backup.envelope_level_values`
  takes the chunk padded to its longest row, which must give these records
  bit for bit and these values within the grouping of the final sum.
* `drmdp_backup_mccormick_one_state` — the McCormick backup from those two,
  which a batch of one (`backup.drmdp_backup_mccormick`) must give bit for
  bit.
* `per_state_dp` — backward induction with one `plan.backup_state` call per
  (state, stage), the route every back-end took before the stage batches;
  `plan.backward_dp` backs up every back-end's stages a chunk of states at a
  time instead, but for the LP inner solve.
* `best_action_over_rows`, `per_row_backup_state` — the nominal and robust
  backups with one `SparseDistribution.dot` per kernel row;
  `backup.row_backup_batch` takes every row of a chunk of states as one
  segment sum (`np.add.reduceat`), which must give these values within
  2e-15·(1+|value|) and these actions.
* `sample_next_choice`, `kernel_draw_choice` — RTDP's and the rollouts'
  successor draws made by `Generator.choice` from rows renormalized on
  every call; `plan.DrawTable` records each row's cumulative sums once and
  must draw the same successors from the same random streams.
* `worst_case_shift_loop`, `random_shift_loop` — donor-by-donor loops that
  move perturbation mass one entry at a time, capping each step at the
  receiver's room, which `backup.worst_case_shift` and `sim.random_shift`
  compute as one cumulative-sum take (`backup.shift_mass`).
* `shift_mass_row`, `worst_case_shift_row`, `random_shift_row` — the shift
  one row at a time, each row's take and sum formed over its own entries;
  `backup.shift_mass` and `backup.worst_case_shift` shift a block of rows in
  one pass, and must give these rows byte for byte.

`sparse_row` is not an oracle: it is how the tests write a single kernel row
in any index order, which the package builds only as blocks of sorted rows.
Nor is `assert_record_is_the_oracles`, the check that a row of a chunk's
`backup.EnvelopeKinks` holds `envelope_kinks_one_state`'s record.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from epiplan import lp as lp_module
from epiplan import plan as plan_module
from epiplan.backup import _multiplier_block
from epiplan.errors import DomainError, SolverError
from epiplan.grid import Grid, SparseDistribution, _cell_counts, _cell_of, _frac_numerator
from epiplan.lp import _TOL, LinearProgram, MixedIntegerProgram, Solution, solve_lp
from epiplan.rules import _RIDGE, DecisionRuleCoefficients, design_matrix, mean_bounds
from epiplan.seir import ENTRY_TOL, JOINT_TOL, MARGINAL_TOL, Action, EpidemicParams, binomial_rows


def sparse_row(indices, probs, normalize: bool = False) -> SparseDistribution:
    """One row as a one-row SparseDistribution.block, its entries sorted by
    index first; with normalize, probs are divided by their sum, as
    backup.shift_mass does."""
    indices = np.asarray(indices, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(indices, kind="stable")
    indices, probs = indices[order], probs[order]
    if normalize:
        probs = probs / probs.sum()
    return SparseDistribution.block(indices, probs, [0, len(indices)])[0]


def fit_affine(X: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Coefficients (3, ...) of the least-squares affine rule for targets,
    whose first axis runs over the actions whose design_matrix is X."""
    XtX = X.T @ X + _RIDGE * np.eye(X.shape[1])
    return np.linalg.solve(XtX, X.T @ np.asarray(targets, dtype=np.float64))


def fit_rules_per_state(X: np.ndarray, kernels, rewards, delta: float
                        ) -> DecisionRuleCoefficients:
    """The mean and reward rules of one state from its per-action rows,
    zero-padded onto the union support, each fitted by one dense solve."""
    succ = np.concatenate([row.indices for row in kernels])
    support = np.unique(succ)
    P = np.zeros((len(X), len(support)))
    P[np.repeat(np.arange(len(kernels)), [len(row) for row in kernels]),
      np.searchsorted(support, succ)] = np.concatenate([row.probs for row in kernels])
    return DecisionRuleCoefficients(support=support, mean=fit_affine(X, P), delta=delta,
                                    eps=fit_affine(X, rewards))


def binomial_row_alone(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The kept support and pmf of Bin(n, p) from the ratio recurrence of
    one row: 1.0 at the mode, cumulative products outwards, divided by the
    row's sum, entries below MARGINAL_TOL dropped (the mode kept if none
    is left)."""
    if p == 0.0:
        return np.array([0]), np.array([1.0])
    if p == 1.0:
        return np.array([n]), np.array([1.0])
    mode = min(n, math.floor((n + 1) * p))
    k = np.arange(1.0, n + 1)
    ratio = (n + 1 - k) / k * (p / (1.0 - p))  # pmf[k] / pmf[k-1], k = 1..n
    pmf = np.ones(n + 1)
    np.cumprod(ratio[mode:], out=pmf[mode + 1:])
    if mode:
        np.cumprod(1.0 / ratio[mode - 1::-1], out=pmf[mode - 1::-1])
    pmf /= pmf.sum()
    keep = pmf >= MARGINAL_TOL
    if not keep.any():
        keep[int(np.argmax(pmf))] = True
    ks = np.flatnonzero(keep)
    return ks, pmf[ks]


def binomial_pmf(n: int, p: float, k: int) -> float:
    """P[Bin(n, p) = k], rounded once from 50 significant digits.

    p is taken at its exact binary value and comb(n, k) is an exact integer,
    so the only errors are the decimal roundings, far below double precision.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    if k < 0 or k > n:
        raise DomainError(f"k must be in [0, n], got k={k}, n={n}")
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(p)
        return float(math.comb(n, k) * q**k * (1 - q) ** (n - k))


@dataclass
class GeneralLP:
    """max or min of c'x subject to rows of A x <=, >= or == b and bounds
    lb <= x <= ub that may be infinite: the programs `dense_solve_lp` solves.
    `lp.LinearProgram` is the case max with every row <=.
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
        self.A = np.asarray(self.A, dtype=np.float64).reshape(-1, len(self.c))
        self.b = np.asarray(self.b, dtype=np.float64)
        n = len(self.c)
        self.lb = np.zeros(n) if self.lb is None else np.asarray(self.lb, dtype=np.float64)
        self.ub = (np.full(n, np.inf) if self.ub is None
                   else np.asarray(self.ub, dtype=np.float64))
        if self.sense not in ("max", "min"):
            raise DomainError(f"sense must be 'max' or 'min', got {self.sense!r}")
        if self.A.shape != (len(self.b), n) or len(self.rel) != len(self.b):
            raise DomainError("A, rel and b inconsistent with c")
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


def general(lp: LinearProgram | GeneralLP) -> GeneralLP:
    """lp as a GeneralLP: max, every row <=."""
    if isinstance(lp, GeneralLP):
        return lp
    return GeneralLP("max", lp.c, lp.A, ["<="] * lp.n_rows, lp.b, lp.lb, lp.ub)


def inner_primal_oracle(
    coeffs: DecisionRuleCoefficients,
    action: Action,
    v_next: np.ndarray,
    lam: float,
    k: float,
    return_solution: bool = False,
):
    """Penalized worst-mean problem solved directly over mean vectors.

    The inner objective depends on the distribution only through its mean, so
    minimizing over means in the simplex is exact:
    minimize r(a) + lam*m'V + k*1'x  s.t.  m in simplex, |m - eta band| <= x.
    """
    X = design_matrix([action])
    eta_L, eta_U = mean_bounds(coeffs, X)
    v = lam * v_next[coeffs.support]
    m = len(v)

    n = 2 * m  # mean vector then slack vector
    c = np.concatenate([v, np.full(m, k)])
    A = np.zeros((1 + 2 * m, n))
    b = np.empty(1 + 2 * m)
    rel = ["=="] + ["<="] * (2 * m)
    A[0, :m] = 1.0
    b[0] = 1.0
    for j in range(m):
        A[1 + j, j] = 1.0
        A[1 + j, m + j] = -1.0
        b[1 + j] = eta_U[0, j]
        A[1 + m + j, j] = -1.0
        A[1 + m + j, m + j] = -1.0
        b[1 + m + j] = -eta_L[0, j]
    res = dense_solve_lp(GeneralLP("min", c, A, rel, b))
    if res.status != "optimal":
        raise SolverError(f"inner primal unexpectedly {res.status}")
    value = float(X[0] @ coeffs.eps) + res.objective
    if return_solution:
        return value, res.x[:m], res.x[m:]
    return value


@dataclass
class DualityReport:
    status: str                     # checked | skipped-<primal status>
    primal_objective: float | None = None
    dual_objective: float | None = None
    gap: float | None = None
    ok: bool = False


def lp_duality_check(lp: LinearProgram | GeneralLP, tol: float = 1e-6) -> DualityReport:
    """Build the textbook dual and verify both optima agree.

    The primal is solved by `lp.solve_lp` when it is a LinearProgram, by
    `dense_solve_lp` otherwise.  It is then folded to max c'x, Ax <= b,
    x >= 0 (shifting bounds, splitting free variables, doubling equalities),
    whose dual min b'y, A'y >= c, y >= 0 `dense_solve_lp` solves.
    """
    primal = solve_lp(lp) if isinstance(lp, LinearProgram) else dense_solve_lp(lp)
    if primal.status != "optimal":
        return DualityReport(status=f"skipped-{primal.status}")

    can = _LoopCanonical(general(lp))  # min form: c_can = sign * original
    A_rows = []
    b_rows = []
    for i, r in enumerate(can.rel):
        if r == "<=":
            A_rows.append(can.A[i])
            b_rows.append(can.b[i])
        elif r == ">=":
            A_rows.append(-can.A[i])
            b_rows.append(-can.b[i])
        else:
            A_rows.append(can.A[i])
            b_rows.append(can.b[i])
            A_rows.append(-can.A[i])
            b_rows.append(-can.b[i])
    A = np.vstack(A_rows)
    b = np.array(b_rows)
    c_max = -can.c  # canonical is min; the folded primal maximizes -c_can

    dual = GeneralLP(
        sense="min",
        c=b,
        A=A.T,
        rel=[">="] * len(c_max),
        b=c_max,
        lb=np.zeros(len(b)),
        ub=np.full(len(b), np.inf),
    )
    dual_sol = dense_solve_lp(dual)
    if dual_sol.status != "optimal":
        return DualityReport(status=f"skipped-dual-{dual_sol.status}",
                             primal_objective=primal.objective)

    # Map the folded optima back to the original objective scale.
    sign = can.sign  # +1 if original was min
    primal_folded = sign * (primal.objective - can.offset) * -1.0
    dual_folded = dual_sol.objective
    gap = abs(primal_folded - dual_folded)
    return DualityReport(
        status="checked",
        primal_objective=primal.objective,
        dual_objective=float(sign * -dual_sol.objective + can.offset),
        gap=float(gap),
        ok=bool(gap <= tol * (1.0 + abs(primal_folded))),
    )


class _LoopCanonical:
    """min c'y, A y (<=, >=, ==) b, y >= 0, built one column at a time: x =
    lo + y when lo is finite (plus a row y <= hi - lo when hi is too), x =
    hi - y when only hi is, and a free x = y+ - y- as two adjacent columns.
    On a LinearProgram it has the rows and structural columns of
    `lp.solve_lp`'s tableau: A, then one bound row per finite ub in column
    order."""

    def __init__(self, lp: GeneralLP):
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


def dense_solve_lp(lp: LinearProgram | GeneralLP) -> Solution:
    """Two-phase primal simplex with a rank-1 update of every tableau row on
    every pivot, and a setup built one column at a time.  A program in
    `lp.solve_lp`'s form needs no phase 1, and the pivot rule is that
    solver's, so on it both pivot alike and agree bit for bit."""
    can = _LoopCanonical(general(lp))
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


def dense_solve_mip(mip: MixedIntegerProgram) -> Solution:
    """`lp.solve_mip` with `dense_solve_lp` solving every node, so it takes
    max, <= programs with free columns or negative right sides."""
    fast = lp_module.solve_lp
    lp_module.solve_lp = dense_solve_lp
    try:
        return lp_module.solve_mip(mip)
    finally:
        lp_module.solve_lp = fast


def mccormick_mip_program(
    coeffs: DecisionRuleCoefficients,
    v_next: np.ndarray,
    lam: float,
    k: float,
    L: int,
    M: int,
) -> MixedIntegerProgram:
    """One MIP over integer action levels with box-envelope bilinear terms.

    The objective is q - w'(mean(a) + delta) + u'(mean(a) - delta) + r(a);
    the products of each action level a_i in [0, a_hi] with w_j and with u_j
    (both in [0, k] through w + u <= k) get their own envelope columns z.
    Each z appears only in the objective and in its own rows, so only the
    envelope side its cost pushes against can bind: a positive cost keeps
    z <= a_hi*w and z <= k*a, a negative cost keeps
    z >= a_hi*w + k*a - a_hi*k (z >= 0 is its bound), and a zero cost drops
    the column.  On the box the lower envelope never exceeds the upper one,
    so this has the optimum of the full four-row relaxation.  The program is
    in `lp.solve_lp`'s form, its right sides nonnegative.
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
    return MixedIntegerProgram(LinearProgram(c, A, b, lb=lb, ub=ub), integer)


def mccormick_mip_backup(
    coeffs: DecisionRuleCoefficients,
    v_next: np.ndarray,
    lam: float,
    k: float,
    L: int,
    M: int,
    kinks=None,
) -> tuple[float, Action]:
    """`mccormick_mip_program` solved by `lp.solve_mip` (looked up on the
    module, so a test can wrap it), plus the reward intercept: the backup
    value and the action of the optimum branch and bound finds.  kinks is
    ignored; it lets a planner call this in `drmdp_backup_mccormick`'s
    place."""
    m = len(coeffs.support)
    sol = lp_module.solve_mip(mccormick_mip_program(coeffs, v_next, lam, k, L, M))
    if sol.status != "optimal":
        raise SolverError(f"envelope MIP unexpectedly {sol.status}")
    a_V, a_R = np.round(sol.x[2 * m + 1:2 * m + 3]).astype(int)
    return float(sol.objective + coeffs.eps[0]), Action(int(a_V), int(a_R))


def _mccormick_rows(n_vars, zi, ai, wi, a_hi, w_hi):
    """Four box-envelope rows tying column zi to the product of ai in
    [0, a_hi] and wi in [0, w_hi]."""
    rows, rhs = [], []
    r = np.zeros(n_vars); r[zi] = -1.0
    rows.append(r); rhs.append(0.0)
    r = np.zeros(n_vars); r[wi] = a_hi; r[ai] = w_hi; r[zi] = -1.0
    rows.append(r); rhs.append(a_hi * w_hi)
    r = np.zeros(n_vars); r[zi] = 1.0; r[wi] = -a_hi
    rows.append(r); rhs.append(0.0)
    r = np.zeros(n_vars); r[zi] = 1.0; r[ai] = -w_hi
    rows.append(r); rhs.append(0.0)
    return rows, rhs


def mccormick_four_row_backup(
    coeffs: DecisionRuleCoefficients,
    v_next: np.ndarray,
    lam: float,
    k: float,
    L: int,
    M: int,
) -> tuple[float, Action]:
    """The McCormick MIP with every product's four envelope rows.

    The objective is q - w'(mean(a) + delta) + u'(mean(a) - delta) + r(a);
    the products of each action level with w and with u get their own
    envelope columns, zero-cost ones included.
    """
    v = lam * v_next[coeffs.support]
    m = len(v)
    n = 6 * m + 3
    iq = 0
    iw = lambda j: 1 + j
    iu = lambda j: 1 + m + j
    ia = (2 * m + 1, 2 * m + 2)
    iz0 = lambda i, j: 2 * m + 3 + i * m + j           # a_i * w_j stand-ins
    iz1 = lambda i, j: 2 * m + 3 + 2 * m + i * m + j   # a_i * u_j stand-ins

    mean = coeffs.mean
    c = np.zeros(n)
    c[iq] = 1.0
    c[1:1 + m] = -(mean[0] + coeffs.delta)
    c[1 + m:1 + 2 * m] = mean[0] - coeffs.delta
    c[ia[0]] = coeffs.eps[1]
    c[ia[1]] = coeffs.eps[2]
    c[iz0(0, 0):iz1(0, 0)] = -mean[1:].ravel()
    c[iz1(0, 0):] = mean[1:].ravel()

    rows, rhs = [], []
    for j in range(m):
        r = np.zeros(n); r[iq] = 1.0; r[iw(j)] = -1.0; r[iu(j)] = 1.0
        rows.append(r); rhs.append(v[j])
        r = np.zeros(n); r[iw(j)] = 1.0; r[iu(j)] = 1.0
        rows.append(r); rhs.append(k)
    bounds_hi = (float(L), float(M))
    for i in range(2):
        for j in range(m):
            rr, bb = _mccormick_rows(n, iz0(i, j), ia[i], iw(j), bounds_hi[i], k)
            rows += rr; rhs += bb
            rr, bb = _mccormick_rows(n, iz1(i, j), ia[i], iu(j), bounds_hi[i], k)
            rows += rr; rhs += bb

    lb = np.zeros(n)
    lb[iq] = -np.inf
    ub = np.full(n, np.inf)
    ub[ia[0]] = float(L)
    ub[ia[1]] = float(M)
    integer = np.zeros(n, dtype=bool)
    integer[list(ia)] = True

    lp = LinearProgram(c, np.vstack(rows), np.array(rhs), lb=lb, ub=ub)
    sol = dense_solve_mip(MixedIntegerProgram(lp, integer))
    if sol.status != "optimal":
        raise SolverError(f"envelope MIP unexpectedly {sol.status}")
    action = Action(int(round(sol.x[ia[0]])), int(round(sol.x[ia[1]])))
    return float(sol.objective + coeffs.eps[0]), action


def mccormick_binding_program_loop(
    coeffs: DecisionRuleCoefficients,
    v_next: np.ndarray,
    lam: float,
    k: float,
    L: int,
    M: int,
) -> LinearProgram:
    """The LP relaxation of `mccormick_mip_program`, its envelope rows
    written one (action, successor, product) at a time."""
    v = lam * v_next[coeffs.support]
    m = len(v)
    mean = coeffs.mean
    ia = (2 * m + 1, 2 * m + 2)
    a_hi = (float(L), float(M))
    z_cost = np.stack([-mean[1:], mean[1:]])
    used = z_cost != 0.0
    iz = np.full(z_cost.shape, -1)
    iz[used] = 2 * m + 3 + np.arange(int(used.sum()))
    n = 2 * m + 3 + int(used.sum())
    n_rows = 2 * m + 2 * int((z_cost > 0.0).sum()) + int((z_cost < 0.0).sum())

    c, A, b, lb, ub = _multiplier_block(mean[0] - coeffs.delta, mean[0] + coeffs.delta,
                                        v, k, n, n_rows)
    c[list(ia)] = coeffs.eps[1:]
    c[iz[used]] = z_cost[used]
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
    ub[list(ia)] = a_hi
    return LinearProgram(c, A, b, lb=lb, ub=ub)


def inner_value_parametric_one_state(eta_L: np.ndarray, eta_U: np.ndarray,
                                     v: np.ndarray, k: float) -> np.ndarray:
    """backup.inner_value_parametric for (n, m) bounds and (m,) values, one
    state at a time: the first kink where the slope turns nonpositive, or
    the right end min(v) + k, evaluated once."""
    A, B = -eta_U, eta_L
    g0 = np.maximum(np.maximum(A, 0.5 * (A + B)), 0.0)
    s1 = g0 - np.maximum(np.maximum(A, B), 0.0)
    s2 = A - g0
    kinks = np.concatenate([v - k, v])
    order = np.argsort(kinks, kind="stable")
    steps = np.concatenate([s1, s2 - s1], axis=1)[:, order]
    slope = 1.0 + np.cumsum(steps, axis=1)
    down = slope <= 0.0
    q = np.where(down.any(axis=1), kinks[order][np.argmax(down, axis=1)], np.inf)
    q = np.minimum(q, v.min() + k)[:, None]
    d = q - v
    g = k * g0 + s1 * np.clip(d, -k, 0.0) + s2 * np.clip(d, 0.0, k)
    return q[:, 0] + g.sum(axis=1)


def worst_case_shift_loop(row: SparseDistribution, grid: Grid,
                          budget: float) -> SparseDistribution:
    """Move up to budget/2 mass from low- to high-infective successors, one
    (donor, receiver) pair at a time, each step capped by the donor's mass
    and the receiver's room."""
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
    return sparse_row(row.indices, probs, normalize=True)


def shift_mass_row(row: SparseDistribution, donors: np.ndarray, receiver: int,
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


def worst_case_shift_row(row: SparseDistribution, grid: Grid,
                         budget: float) -> SparseDistribution:
    """Move up to budget/2 mass from low-infective successors, lowest p_I
    first, to the highest-infective one (lowest index among ties)."""
    if budget <= 0.0 or len(row) <= 1:
        return row
    p_I = grid.coords[row.indices][:, 2]
    order = np.argsort(p_I, kind="stable")  # by (p_I, index): indices ascend
    n_low = int(np.searchsorted(p_I[order], p_I.max()))
    return shift_mass_row(row, order[:n_low], order[n_low], budget)


def random_shift_row(row: SparseDistribution, budget: float,
                     rng: np.random.Generator) -> SparseDistribution:
    """Move up to budget/2 mass from up to half the entries, drawn in a random
    order among the positive ones, to one other entry drawn from the rest."""
    if len(row) <= 1:
        return row
    order = rng.permutation(len(row))
    donors = order[row.probs[order] > 0][: max(1, len(row) // 2)]
    receiver = next(i for i in order[::-1] if i not in donors)
    return shift_mass_row(row, donors, receiver, budget)


def random_shift_loop(row: SparseDistribution, budget: float,
                      rng: np.random.Generator) -> SparseDistribution:
    """Move up to budget/2 mass from up to half the positive entries, in a
    random order, to the receivers drawn from the rest, one donor at a time."""
    if len(row) <= 1:
        return row
    probs = row.probs.copy()
    move = budget / 2.0
    order = rng.permutation(len(probs))
    donors = [i for i in order if probs[i] > 0][: max(1, len(probs) // 2)]
    receivers = [i for i in order[::-1] if i not in donors]
    for d in donors:
        if move <= 0 or not receivers:
            break
        take = min(move, probs[d])
        r = receivers[0]
        room = 1.0 - probs[r]
        take = min(take, room)
        probs[d] -= take
        probs[r] += take
        move -= take
    return sparse_row(row.indices, probs, normalize=True)


def inner_values_unrecorded(eta_L: np.ndarray, eta_U: np.ndarray, v: np.ndarray,
                            k: float) -> np.ndarray:
    """backup.inner_value_parametric with any leading batch axes, every
    slope and slope step formed on the call: the steps laid out one row per
    kink, put in kink order by one take over the flattened batch."""
    A, B = -np.asarray(eta_U, dtype=np.float64), np.asarray(eta_L, dtype=np.float64)
    g0 = np.maximum(np.maximum(A, 0.5 * (A + B)), 0.0)
    s1 = g0 - np.maximum(np.maximum(A, B), 0.0)
    s2 = A - g0
    v = np.asarray(v, dtype=np.float64)
    lead, (n, m) = v.shape[:-1], g0.shape[-2:]
    kinks = np.concatenate([v - k, v], axis=-1)
    order = np.argsort(kinks, axis=-1, kind="stable")
    steps = np.empty(lead + (2 * m, n))
    steps[..., :m, :] = np.swapaxes(s1, -1, -2)
    steps[..., m:, :] = np.swapaxes(s2 - s1, -1, -2)
    rows = order + (2 * m * np.arange(int(np.prod(lead)))).reshape(lead + (1,))
    down = np.cumsum(np.take(steps.reshape(-1, n), rows, axis=0), axis=-2) <= -1.0
    first = np.take_along_axis(rows, np.argmax(down, axis=-2), axis=-1)
    q = np.where(down.any(axis=-2), np.take(kinks, first), np.inf)
    q = np.minimum(q, v.min(axis=-1, keepdims=True) + k)
    d = q[..., None] - v[..., None, :]
    g = k * g0 + s1 * np.clip(d, -k, 0.0) + s2 * np.clip(d, 0.0, k)
    return q + g.sum(axis=-1)


def drmdp_backup_enumerate_unrecorded(coeffs: DecisionRuleCoefficients, actions, v_next,
                                      lam: float, k: float, X: np.ndarray,
                                      inner=inner_values_unrecorded) -> tuple[float, Action]:
    """backup.drmdp_backup_enumerate with method "parametric", its mean
    bounds, rewards and inner terms formed on the call."""
    eta_L, eta_U = mean_bounds(coeffs, X)
    vals = X @ coeffs.eps + inner(eta_L, eta_U, lam * v_next[coeffs.support], k)
    best = int(np.argmax(vals))
    return float(vals[best]), actions[best]


def drmdp_backup_enumerate_batch_unrecorded(batch, v_next, lam: float, k: float,
                                            X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """backup.drmdp_backup_enumerate_batch with the batch's inner terms
    formed on the call."""
    v = lam * v_next[batch.support] + batch.pad
    center = X @ batch.mean
    vals = batch.reward + inner_values_unrecorded(center - batch.delta,
                                                  center + batch.delta, v, k)
    best = np.argmax(vals, axis=1)
    return vals[np.arange(len(vals)), best], best


def sample_next_choice(model, idx: int, action: Action, rng: np.random.Generator,
                       draws=None) -> int:
    """plan._sample_next by Generator.choice over the in-simplex successors,
    renormalized on every call; draws is not read."""
    row = model.rows(idx)[model.action_index(action)]
    mask = model.grid.in_S[row.indices]
    if not mask.any():
        return idx
    probs = row.probs[mask]
    return int(rng.choice(row.indices[mask], p=probs / probs.sum()))


def kernel_draw_choice(kernel, idx: int, action: Action, rng: np.random.Generator) -> int:
    """sim.TrueKernel.draw by Generator.choice over the kernel's row."""
    row = kernel(idx, action)
    return int(rng.choice(row.indices, p=row.probs))


@dataclass(frozen=True)
class StateKinks:
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


def envelope_kinks_one_state(coeffs: DecisionRuleCoefficients, k: float, L: int,
                             M: int) -> StateKinks:
    """The StateKinks of the McCormick relaxation over levels 0..L x 0..M.

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
    return StateKinks(float(k), base, offset, succ, steps)


def envelope_level_values_one_state(kinks: StateKinks, v: np.ndarray) -> np.ndarray:
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


def drmdp_backup_mccormick_one_state(coeffs: DecisionRuleCoefficients, v_next: np.ndarray,
                                     lam: float, k: float, L: int, M: int,
                                     kinks=None) -> tuple[float, Action]:
    """backup.drmdp_backup_mccormick from envelope_kinks_one_state and
    envelope_level_values_one_state, the record built on every call; kinks
    is ignored, so that a planner can call this in its place."""
    vals = envelope_level_values_one_state(envelope_kinks_one_state(coeffs, k, L, M),
                                           lam * v_next[coeffs.support])
    best = int(np.argmax(vals))
    return float(vals[best]), Action(*divmod(best, M + 1))


def per_state_dp(model, cfg):
    """plan.backward_dp with one plan.backup_state call per (state, stage),
    looked up on the module, so a test can wrap it or the back-end it
    calls."""
    model.compile_all()
    table = plan_module.ValueTable(model)
    in_s = model.grid.in_S_indices().tolist()
    for t in range(model.T - 1, 0, -1):
        for idx in in_s:
            value, action = plan_module.backup_state(model, idx, t, table.V[t + 1], cfg)
            table.store(t, idx, value, model.action_index(action))
    return table


def best_action_over_rows(actions, rows, rewards, v: np.ndarray,
                          lam: float) -> tuple[float, Action]:
    """max_a r(a) + lam * E_row(a)[V] over corner values v, one
    SparseDistribution.dot per row; ties go to the first of the given
    actions."""
    best_val, best_a = -np.inf, None
    for a, row, r in zip(actions, rows, rewards):
        val = r + lam * row.dot(v)
        if val > best_val:
            best_val, best_a = val, a
    return best_val, best_a


def per_row_backup_state(model, idx: int, t: int, v_next: np.ndarray, cfg):
    """plan.backup_state with the nominal and robust back-ends backed up by
    best_action_over_rows, over the model's nominal or shifted rows."""
    rows = (model.shifted_rows(idx, cfg.robust_budget) if cfg.backend == "robust"
            else model.rows(idx))
    return best_action_over_rows(model.actions, rows, model.rewards(idx), v_next, model.lam)


def assert_record_is_the_oracles(kinks, i, coeffs, k, L, M):
    """Row i of a chunk's EnvelopeKinks holds the one-state oracle's record
    bit for bit, padded with successor 0 (value +inf), offset +inf and step
    0."""
    want = envelope_kinks_one_state(coeffs, k, L, M)
    m, w = len(coeffs.support), want.offset.shape[1]
    assert kinks.support[i, :m].tobytes() == coeffs.support.astype(np.intp).tobytes()
    assert (kinks.support[i, m:] == 0).all() and (kinks.pad[i, m:] == np.inf).all()
    assert (kinks.pad[i, :m] == 0.0).all()
    assert kinks.base[i].tobytes() == want.base.tobytes()
    for got, ref, fill in ((kinks.offset[i], want.offset, np.inf),
                           (kinks.succ[i], want.succ, 0), (kinks.step[i], want.step, 0.0)):
        assert got.dtype == ref.dtype
        assert got[:, :w].tobytes() == ref.tobytes()
        assert (got[:, w:] == fill).all()


def _suffix_sums(p_cd: np.ndarray) -> np.ndarray:
    """Suffix sums over d of each row's mass, c-moment and v-moment.

    With c the C index and d the D index, v = c + n_D - 1 - d runs over
    0..n_C + n_D - 2.  S[:, c, d] sums d' >= d of row c, and is zero at
    d = n_D, so the sum of row c up to v is S[:, c, clip(c + n_D - 1 - v)].
    """
    n_C, n_D = p_cd.shape
    c = np.arange(n_C)[:, None]
    S = np.zeros((3, n_C, n_D + 1))
    terms = np.stack([p_cd, p_cd * c, p_cd * (c + n_D - 1 - np.arange(n_D))])
    S[..., :n_D] = np.cumsum(terms[..., ::-1], axis=-1)[..., ::-1]
    return S


def _prefix_columns(S: np.ndarray, d: np.ndarray) -> np.ndarray:
    """T[:, c1, i], the sum over c < c1 of S[:, c, d[c, i]] with d clipped
    into 0..n_D: one gather from the suffix sums and one sum over c."""
    n_C, n_D = S.shape[1], S.shape[2] - 1
    T = np.zeros((3, n_C + 1, d.shape[1]))
    np.cumsum(S[:, np.arange(n_C)[:, None], np.clip(d, 0, n_D)], axis=1, out=T[:, 1:])
    return T


def _at(T: np.ndarray, c: np.ndarray, i: np.ndarray) -> np.ndarray:
    """T[:, c, i] for a table from _prefix_columns (a flat take is faster
    than the broadcast fancy index)."""
    return T.reshape(3, -1).take(c * T.shape[2] + i, axis=1)


def push_group(grid: Grid, params: EpidemicParams, n_E: int, n_I: int,
                member_laws: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of every corner with counts (n_E, n_I), given each one's
    exposure laws, in one plane-moment pass, as flat successors and
    masses, not yet renormalized, and the length of each row.

    The atoms of one (y_V, b) differ only in (C, D), and are pushed as
    simplex-region moments.  In c = C - C0 and v = C - D - V_min (C0 and
    V_min the smallest values) the p_E cell is a c range for each b, the p_I
    cell a v range, the same for every b, and with the p_S fractional part
    f0 fixed by b, f0 >= f1 holds for c >= c_A, f0 >= f2 for v <= v_B, and
    f1 >= f2 for c + v <= w.  So each (p_E cell, p_I cell) box splits into at
    most six regions, each inside one simplex: the rectangles where f0 lies
    between f1 and f2, and the two quadrants where it does not, each cut by
    the anti-diagonal.  The barycentric weights are affine on each closed
    simplex, so a region's atoms push as their total mass placed at their
    mean, read in O(1) from prefix tables built from ``_suffix_sums``.  The
    thresholds are integer arithmetic, so an atom on one is assigned to a
    side exactly (either side is right: the interpolation is continuous),
    and each mean is clamped into its box, where differences of tiny masses
    could move it.

    Only the exposure counts differ between the members, so their (y_V, b)
    pairs run along one axis, member after member, and the means of all of
    them are located in one call.  Each member's K and rows are then formed
    on its own, over the corners it hits, found by marking them on the
    grid; its corner masses below ENTRY_TOL are dropped.
    """
    N, Y = params.N, grid.Y
    pmf, keep = binomial_rows(np.array([[n_E], [n_I]]), np.array([params.rho_C, params.rho_D]))
    kC, kD = np.flatnonzero(keep[0, 0]), np.flatnonzero(keep[1, 1])
    pC, pD = pmf[0, 0, kC], pmf[1, 1, kD]
    if np.any(np.diff(kC) != 1) or np.any(np.diff(kD) != 1):
        raise DomainError("the C and D supports must be integer ranges")
    n_C, n_D = len(kC), len(kD)
    n_V = n_C + n_D - 1
    p_cd = pC[:, None] * pD[None, :]
    p_cd[p_cd < JOINT_TOL] = 0.0
    p_cd /= p_cd.sum()
    S = _suffix_sums(p_cd)
    # The boxes cover counts up to N only.  Where the rounded counts sum past
    # N, n_E + n_I can exceed it, and an atom with I above N must not be
    # dropped.  (S and E stay within N: b > 0 needs p_I > 0, and then
    # n_S + n_E <= N.)
    c_kept, d_kept = np.nonzero(p_cd)
    if n_I + (kC[c_kept] - kD[d_kept]).max() > N:
        raise DomainError("point outside the unit cube")

    b = np.concatenate([kB for kBs, _, _ in member_laws for kB in kBs])
    S_next = np.concatenate([n for _, _, trials in member_laws for n in trials]) - b
    f0 = _frac_numerator(S_next, N, Y)[:, None, None]
    # Successor E and I counts at c = 0 and v = 0; E falls with c, I rises with v.
    E_top = n_E + b - kC[0]
    I_low = n_I + kC[0] - kD[-1]

    # The p_E cells of each pair, padded to a common count, and the p_I cells;
    # boxes are indexed (pair, p_E cell, p_I cell).
    j_lo = _cell_of(E_top - (n_C - 1), N, Y)
    j = (j_lo[:, None] + np.arange(int((_cell_of(E_top, N, Y) - j_lo).max()) + 1))[..., None]
    k = np.arange(_cell_of(I_low, N, Y), _cell_of(I_low + n_V - 1, N, Y) + 1)
    E_first, E_last = _cell_counts(j, N, Y)
    I_first, I_last = _cell_counts(k, N, Y)
    # Each box's half-open c range [lo, hi) with its cut c_A, and its v range
    # with its cut v_B, as (lo, cut, hi).
    c_cut = np.clip(E_top[:, None, None, None]
                    - np.stack([E_last, (f0 + j * N) // Y, E_first - 1], axis=-1), 0, n_C)
    v_cut = np.clip(np.stack(np.broadcast_arrays(I_first - 1, (f0 + k * N) // Y, I_last),
                             axis=-1) - I_low + 1, 0, n_V)
    for cut in (c_cut, v_cut):
        cut[..., 1] = np.clip(cut[..., 1], cut[..., 0], cut[..., 2])
    # The 2-D prefix sums at every v cut: F[:, c1, i] sums c < c1 and
    # v < v_cols[i].  F at the 3 x 3 cuts gives the four quadrants.
    c = np.arange(n_C)[:, None]
    v_cols, v_at = np.unique(v_cut, return_inverse=True)
    v_at = v_at.reshape(v_cut.shape)
    F = _prefix_columns(S, c + n_D - v_cols)
    # quads[..., x, y]: x = 0 where f1 > f0, 1 where f0 >= f1; y = 0 where
    # f0 >= f2, 1 where f2 > f0.
    quads = np.diff(np.diff(_at(F, c_cut[..., :, None], v_at[..., None, :]),
                            axis=-2), axis=-1)
    # The quadrant with f0 >= f1 and f0 >= f2, and the one with f1 > f0 and
    # f2 > f0, each split where c + v <= w: whole rows [c0, ca), then rows
    # [ca, cb) cut by the anti-diagonal, whose sums G[:, c1, i] over c < c1
    # of row c up to v = w_cols[i] - c are taken at every w.
    c0, c1 = c_cut[..., [1, 0]], c_cut[..., [2, 1]]
    v0, v1 = v_at[..., [0, 1]], v_at[..., [1, 2]]
    w = (E_top[:, None, None] - I_low + (k - j) * N // Y)[..., None]
    ca = np.clip(w - v_cut[..., [1, 2]] + 2, c0, c1)
    cb = np.clip(w - v_cut[..., [0, 1]] + 1, ca, c1)
    w_cols, w_at = np.unique(w, return_inverse=True)
    w_at = w_at.reshape(w.shape)
    G = _prefix_columns(S, 2 * c + n_D - 1 - w_cols)
    below = (_at(F, ca, v1) - _at(F, c0, v1) + _at(F, c0, v0) - _at(F, cb, v0)
             + _at(G, cb, w_at) - _at(G, ca, w_at))
    regions = np.concatenate([below, quads[..., [1, 0], [0, 1]] - below,
                              quads[..., [0, 1], [0, 1]]], axis=-1)
    hit = np.nonzero(regions[0] > 0.0)
    pair, jj, kk, _ = hit
    mass = regions[0][hit]
    mean_c = np.clip(regions[1][hit] / mass, c_cut[pair, jj, 0, 0], c_cut[pair, jj, 0, 2] - 1)
    mean_v = np.clip(regions[2][hit] / mass, v_cut[pair, 0, kk, 0], v_cut[pair, 0, kk, 2] - 1)

    points = np.stack([S_next[pair], E_top[pair] - mean_c, I_low + mean_v], axis=1) / N
    idx, wts = grid.locate_many(points)
    pushed = wts * mass[:, None]

    # Each member's pairs, and its hits, are one run of the pair axis.
    n_pairs = [sum(len(kB) for kB in kBs) for kBs, _, _ in member_laws]
    pair_start = np.cumsum([0] + n_pairs)
    hit_start = np.searchsorted(pair, pair_start).tolist()
    marked = np.zeros(grid.n_corners, dtype=bool)
    column = np.empty(grid.n_corners, dtype=np.int64)
    successors, probs, lengths = [], [], []
    for m, (kBs, pBs, _) in enumerate(member_laws):
        lo, hi = hit_start[m], hit_start[m + 1]
        marked[idx[lo:hi]] = True
        corners = np.flatnonzero(marked)
        marked[corners] = False
        column[corners] = np.arange(len(corners))
        K = np.bincount(((pair[lo:hi, None] - pair_start[m]) * len(corners)
                         + column[idx[lo:hi]]).ravel(),
                        weights=pushed[lo:hi].ravel(),
                        minlength=n_pairs[m] * len(corners)).reshape(n_pairs[m], len(corners))
        bounds = np.cumsum([0] + [len(kB) for kB in kBs])
        row_mass = np.vstack([pB @ K[a:z] for pB, a, z in zip(pBs, bounds[:-1], bounds[1:])])
        keep = row_mass >= ENTRY_TOL
        successors.append(corners[np.nonzero(keep)[1]])
        probs.append(row_mass[keep])
        lengths.append(keep.sum(axis=1))
    return np.concatenate(successors), np.concatenate(probs), np.concatenate(lengths)
