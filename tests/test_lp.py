import itertools
import re

import numpy as np
import pytest

from epiplan import DomainError, EpidemicParams, backup
from epiplan import lp as lp_module
from epiplan.lp import (
    LinearProgram,
    MixedIntegerProgram,
    solve_lp,
    solve_mip,
)
from epiplan.model import EpidemicModel
from epiplan.rules import AmbiguityConfig
from oracles import GeneralLP, dense_solve_lp, dense_solve_mip, lp_duality_check


def vertex_enumeration_max(c, A, b):
    """Oracle: best objective over all basic feasible points of Ax <= b, x >= 0."""
    n = len(c)
    rows = np.vstack([A, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        sub = rows[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, rhs[list(combo)])
        if np.all(rows @ x <= rhs + 1e-8):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


def random_mip(rng, general=False):
    """max c'x, Ax <= b over a box, with 1-4 integer then 1-2 continuous
    variables; the origin is feasible.  The integer variables buy capacity
    that the continuous ones use: their A entries and costs are nonpositive,
    so raising an integer lower bound keeps b - A lb >= 0 and every node in
    solve_lp's form, and the continuous ones' are nonnegative.
    general=True draws A and c of both signs and 0-2 continuous variables,
    for branch and bound over dense_solve_lp."""
    n_int = int(rng.integers(1, 5))
    n_cont = int(rng.integers(0 if general else 1, 3))
    n = n_int + n_cont
    m = int(rng.integers(1, 5))
    A = rng.normal(size=(m, n))
    b = rng.random(m) * 4.0 + 1.0
    c = rng.normal(size=n)
    if not general:
        A, c = np.abs(A), np.abs(c)
        A[:, :n_int] *= -1.0
        c[:n_int] *= -0.5
    ub = np.concatenate([rng.integers(1, 4, n_int).astype(float),
                         np.full(n_cont, 3.0)])
    lp = LinearProgram(c, A, b, lb=np.zeros(n), ub=ub)
    return MixedIntegerProgram(lp, np.array([True] * n_int + [False] * n_cont))


def random_mixed_lp(rng):
    """A GeneralLP with every kind of bound: [lo, inf), free, (-inf, hi] and
    [lo, hi] variables, <=, >= and == rows, rhs of both signs and a sparse
    integer A.  Half of them have rows through an integer point, at its lower
    bounds where they are finite, some tight and one == row repeated at twice
    the scale; the rest have a random rhs, and some of those are infeasible
    and some unbounded."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 6))
    kind = rng.integers(0, 4, n)
    lo = rng.integers(-2, 3, n).astype(float)
    hi = np.where(kind == 3, lo + rng.integers(0, 4, n), rng.integers(-2, 3, n))
    lo[(kind == 1) | (kind == 2)] = -np.inf
    hi[kind < 2] = np.inf
    A = rng.integers(-3, 4, (m, n)).astype(float)
    A[rng.random((m, n)) < 0.3] = 0.0
    rel = [str(r) for r in rng.choice(["<=", ">=", "=="], m)]
    if m and rng.random() < 0.5:
        x0 = np.where(np.isfinite(lo), lo, np.minimum(rng.integers(-2, 3, n), hi))
        gap = rng.integers(0, 2, m) * np.array([{"<=": 1, ">=": -1, "==": 0}[r]
                                                 for r in rel])
        A = np.vstack([A, 2.0 * A[:1]])
        rel.append("==")
        b = A @ x0 + np.append(gap, 0.0)
    else:
        b = rng.normal(size=m) * 2.0
    sense = "max" if rng.random() < 0.5 else "min"
    return GeneralLP(sense, rng.normal(size=n), A, rel, b, lb=lo, ub=hi)


def fold(lp):
    """A GeneralLP with finite lower bounds as the LinearProgram with its
    optimum: min -> max of -c, a >= row negated, an == row as a pair."""
    sign = 1.0 if lp.sense == "max" else -1.0
    rows, rhs = [], []
    for a, r, b in zip(lp.A, lp.rel, lp.b):
        if r != ">=":
            rows.append(a)
            rhs.append(b)
        if r != "<=":
            rows.append(-a)
            rhs.append(-b)
    A = np.array(rows).reshape(-1, len(lp.c))
    return LinearProgram(sign * lp.c, A, rhs, lb=lp.lb, ub=lp.ub)


def assert_same_solution(got, want, label):
    assert got.status == want.status, label
    assert got.iterations == want.iterations, label
    assert got.nodes == want.nodes, label
    assert got.objective == want.objective, label
    if want.x is None:
        assert got.x is None, label
    else:
        np.testing.assert_array_equal(got.x, want.x, err_msg=str(label))


class TestDenseOracle:
    """solve_lp against the general two-phase reference on programs in its
    form: every pivot, and so every status, point, objective and pivot
    count, is the same."""

    def test_mixed_bounds_and_relations(self):
        # General programs folded to max and <= rows: solve_lp takes those
        # whose lower bounds are finite and whose slack basis is feasible,
        # pivots on them as the dense simplex does and has the general
        # program's optimum; it rejects every other one with DomainError.
        rng = np.random.default_rng(71)
        statuses, general_statuses, rejected = set(), set(), 0
        for trial in range(1200):
            general = random_mixed_lp(rng)
            general_sol = dense_solve_lp(general)
            general_statuses.add(general_sol.status)
            if not np.isfinite(general.lb).all():
                with pytest.raises(DomainError, match="finite lower bounds"):
                    solve_lp(LinearProgram(general.c, general.A, general.b,
                                           lb=general.lb, ub=general.ub))
                rejected += 1
                continue
            lp = fold(general)
            if np.any(lp.b - lp.A @ lp.lb < 0):
                with pytest.raises(DomainError, match="b - A lb >= 0"):
                    solve_lp(lp)
                rejected += 1
                continue
            want = dense_solve_lp(lp)
            assert_same_solution(solve_lp(lp), want, trial)
            assert want.status == general_sol.status, trial
            if want.status == "optimal":
                sign = 1.0 if general.sense == "max" else -1.0
                assert sign * want.objective == pytest.approx(
                    general_sol.objective, abs=1e-9 * (1 + abs(want.objective))), trial
            statuses.add(want.status)
        assert statuses == {"optimal", "unbounded"}
        assert general_statuses == {"optimal", "infeasible", "unbounded"}
        assert 100 < 1200 - rejected < rejected

    def test_branch_and_bound_nodes(self):
        rng = np.random.default_rng(29)
        for trial in range(25):
            mip = random_mip(rng)
            assert_same_solution(solve_mip(mip), dense_solve_mip(mip), trial)

    def test_backup_programs(self, monkeypatch):
        # The programs the backups write: the inner LP and both action MIPs
        # of fitted rules.
        mips = []
        real_solve_mip = backup.solve_mip

        def recording_solve_mip(mip):
            mips.append(mip)
            return real_solve_mip(mip)

        monkeypatch.setattr(backup, "solve_mip", recording_solve_mip)
        model = EpidemicModel(EpidemicParams(N=60, L=2, M=2), 4, AmbiguityConfig())
        rng = np.random.default_rng(5)
        lam, k = model.lam, model.acfg.k
        for idx in model.grid.in_S_indices()[::3]:
            coeffs = model.rules(int(idx))
            v = -rng.random(model.grid.n_corners) * 1e3
            backup.drmdp_backup_mccormick(coeffs, v, lam, k, L=2, M=2)
            backup.drmdp_backup_unary(coeffs, v, lam, k, L=2, M=2)
            inner = backup.inner_dual_program(coeffs.mean[0] - coeffs.delta,
                                              coeffs.mean[0] + coeffs.delta,
                                              lam * v[coeffs.support], k)
            assert_same_solution(solve_lp(inner), dense_solve_lp(inner), idx)
        assert len(mips) > 10
        for trial, mip in enumerate(mips):
            assert_same_solution(real_solve_mip(mip), dense_solve_mip(mip), trial)


class TestBackendPrograms:
    def test_match_dense_and_stay_unchanged(self, monkeypatch):
        # Every MIP the McCormick and unary back-ends write on a small fitted
        # model, and every LP they hand the simplex, root or branch-and-bound
        # child: solve_mip and solve_lp pivot as the dense references do, and
        # solve_lp leaves c, A, b, lb and ub as they were, since the children
        # of one MIP share lp.A and lp.b.
        real_solve_lp, real_solve_mip = lp_module.solve_lp, backup.solve_mip
        nodes, mips = [], []

        def recording_solve_mip(mip):
            mips.append(mip)
            return real_solve_mip(mip)

        def checked_solve_lp(lp):
            before = [a.copy() for a in (lp.c, lp.A, lp.b, lp.lb, lp.ub)]
            sol = real_solve_lp(lp)
            for a, was in zip((lp.c, lp.A, lp.b, lp.lb, lp.ub), before):
                np.testing.assert_array_equal(a, was)
            nodes.append((lp, sol))
            return sol

        monkeypatch.setattr(lp_module, "solve_lp", checked_solve_lp)
        monkeypatch.setattr(backup, "solve_mip", recording_solve_mip)
        model = EpidemicModel(EpidemicParams(N=60, L=2, M=2), 4, AmbiguityConfig())
        rng = np.random.default_rng(13)
        lam, k = model.lam, model.acfg.k
        for idx in model.grid.in_S_indices():
            coeffs = model.rules(int(idx))
            v = -rng.random(model.grid.n_corners) * 1e3
            backup.drmdp_backup_mccormick(coeffs, v, lam, k, L=2, M=2)
            backup.drmdp_backup_unary(coeffs, v, lam, k, L=2, M=2)
        monkeypatch.undo()
        assert len(nodes) > len(mips) > 40  # some MIPs branch
        for trial, (lp, sol) in enumerate(nodes):
            assert_same_solution(sol, dense_solve_lp(lp), trial)
        for trial, mip in enumerate(mips):
            assert_same_solution(solve_mip(mip), dense_solve_mip(mip), trial)


class TestSolveLp:
    def test_single_variable(self):
        lp = LinearProgram([1.0], [[1.0]], [3.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)

    def test_degenerate_optimum(self):
        lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    # Minimization, == and >= rows, infeasibility and free columns are
    # outside solve_lp's form; the general reference simplex covers them.

    def test_minimization(self):
        lp = GeneralLP("min", [2.0, 3.0], [[1.0, 1.0]], [">="], [4.0])
        sol = dense_solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(8.0, abs=1e-8)

    def test_equality_constraint(self):
        lp = GeneralLP("max", [1.0, 2.0], [[1.0, 1.0]], ["=="], [1.0])
        sol = dense_solve_lp(lp)
        assert sol.objective == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-9)

    def test_infeasible(self):
        lp = GeneralLP("max", [1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0])
        assert dense_solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram([1.0], np.zeros((0, 1)), [])
        assert solve_lp(lp).status == "unbounded"

    def test_free_variable(self):
        lp = GeneralLP(
            "min", [1.0], [[1.0]], [">="], [-5.0],
            lb=[-np.inf], ub=[np.inf],
        )
        sol = dense_solve_lp(lp)
        assert sol.objective == pytest.approx(-5.0, abs=1e-9)

    def test_variable_upper_bounds(self):
        lp = LinearProgram(
            [1.0, 1.0], np.zeros((0, 2)), [],
            lb=[0.0, 0.0], ub=[2.0, 0.5],
        )
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(2.5, abs=1e-9)

    def test_shifted_lower_bounds(self):
        # Lower bounds of both signs: the row's shifted right side is
        # 1 - (-3 + 2) = 2.
        lp = LinearProgram(
            [1.0, 1.0], [[1.0, 1.0]], [1.0],
            lb=[-3.0, 2.0], ub=[np.inf, np.inf],
        )
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert sol.x[0] >= -3.0 - 1e-9 and sol.x[1] >= 2.0 - 1e-9

    def test_random_lps_against_vertex_oracle(self):
        rng = np.random.default_rng(17)
        solved = 0
        for _ in range(20):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(2, 7))
            A = rng.normal(size=(m, n))
            b = rng.random(m) * 2.0 + 0.5  # origin feasible
            c = rng.normal(size=n)
            lp = LinearProgram(c, A, b)
            sol = solve_lp(lp)
            assert_same_solution(sol, dense_solve_lp(lp), solved)
            oracle = vertex_enumeration_max(c, A, b)
            if sol.status == "optimal":
                assert oracle is not None
                assert sol.objective == pytest.approx(oracle, abs=1e-7)
                assert np.all(A @ sol.x <= b + 1e-7)
                assert np.all(sol.x >= -1e-9)
                solved += 1
            else:
                assert sol.status == "unbounded"
        assert solved >= 10

    def test_determinism(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 5))
        b = rng.random(6) + 1.0
        c = rng.normal(size=5)
        lp = LinearProgram(c, A, b)
        s1, s2 = solve_lp(lp), solve_lp(lp)
        assert s1.iterations == s2.iterations
        np.testing.assert_array_equal(s1.x, s2.x)

    def test_cycling_guard_klee_minty_style(self):
        # Classic degenerate instance that cycles under naive pivoting.
        c = [0.75, -150.0, 0.02, -6.0]
        A = [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        b = [0.0, 0.0, 1.0]
        lp = LinearProgram(c, A, b)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.05, abs=1e-7)

    def test_validation(self):
        with pytest.raises(DomainError):
            LinearProgram([1.0], [[1.0], [2.0]], [1.0])
        for lb, ub in (([2.0], [1.0]), ([0.0], [np.nan]), ([np.nan], [1.0])):
            with pytest.raises(DomainError, match="lb <= ub"):
                LinearProgram([1.0], [[1.0]], [1.0], lb=lb, ub=ub)
        # A NaN cost would price as the entering column and a non-finite row
        # or right side would break the ratio test: each is refused up front,
        # naming its first bad entry.
        for args, first in (
                (([np.nan, 1.0], [[1.0, 1.0]], [1.0]), "c[0] is nan"),
                (([1.0, 1.0], [[1.0, 1.0], [0.0, -np.inf]], [1.0, 1.0]),
                 "A[1, 1] is -inf"),
                (([1.0], [[1.0], [1.0]], [np.inf, np.nan]), "b[0] is inf")):
            with pytest.raises(DomainError, match=re.escape(first)):
                LinearProgram(*args)
        with pytest.raises(DomainError):
            GeneralLP("maximize", [1.0], [[1.0]], ["<="], [1.0])
        with pytest.raises(DomainError):
            GeneralLP("max", [1.0], [[1.0]], ["<"], [1.0])

    def test_rejects_negative_shifted_rhs(self):
        # The origin violates x1 + x2 <= -1; so does the lower bound (1, 0)
        # of x1 + x2 <= 0.5: no slack basis is feasible.
        for b, lb in (([-1.0], [0.0, 0.0]), ([0.5], [1.0, 0.0])):
            lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], b, lb=lb)
            with pytest.raises(DomainError, match="b - A lb >= 0: row 0 has -"):
                solve_lp(lp)
            assert dense_solve_lp(lp).status in ("optimal", "infeasible")

    def test_rejects_infinite_lower_bound(self):
        lp = LinearProgram([-1.0, 1.0], [[0.0, 1.0]], [2.0],
                           lb=[-np.inf, 0.0], ub=[np.inf, np.inf])
        with pytest.raises(DomainError, match="column 0 has -inf"):
            solve_lp(lp)
        assert dense_solve_lp(lp).status == "unbounded"


class TestSolveMip:
    def test_all_continuous_equals_lp(self):
        lp = LinearProgram([1.0, 1.0], [[1.0, 2.0]], [2.0])
        mip = MixedIntegerProgram(lp, np.array([False, False]))
        a, b = solve_mip(mip), solve_lp(lp)
        assert a.objective == pytest.approx(b.objective, abs=1e-12)

    def test_binary_knapsack(self):
        lp = LinearProgram(
            [3.0, 2.0], [[1.0, 1.0]], [1.0],
            lb=[0.0, 0.0], ub=[1.0, 1.0],
        )
        sol = solve_mip(MixedIntegerProgram(lp, np.array([True, True])))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-9)

    def test_rounding_matters(self):
        # LP relaxation optimum is fractional; the integer optimum is not its rounding.
        lp = LinearProgram(
            [1.0, 1.0],
            [[2.0, 1.0], [1.0, 3.0]], [5.0, 6.0],
            lb=[0.0, 0.0], ub=[10.0, 10.0],
        )
        sol = solve_mip(MixedIntegerProgram(lp, np.array([True, True])))
        best = max(
            x1 + x2
            for x1 in range(6) for x2 in range(7)
            if 2 * x1 + x2 <= 5 and x1 + 3 * x2 <= 6
        )
        assert sol.objective == pytest.approx(best, abs=1e-9)

    def test_random_mips_against_bruteforce(self):
        # The general draws have integer columns of both signs, whose
        # branches leave solve_lp's form: branch and bound over
        # dense_solve_lp solves them.
        rng = np.random.default_rng(29)
        for trial, general in enumerate([False] * 25 + [True] * 25):
            mip = random_mip(rng, general)
            c, A, b, ub = mip.lp.c, mip.lp.A, mip.lp.b, mip.lp.ub
            n_int = int(mip.integer.sum())
            n_cont = mip.lp.n_vars - n_int
            sol = dense_solve_mip(mip) if general else solve_mip(mip)

            # Oracle: enumerate the integer lattice, solve the continuous rest.
            best = None
            for combo in itertools.product(*[range(int(u) + 1) for u in ub[:n_int]]):
                if n_cont:
                    sub = LinearProgram(
                        c[n_int:], A[:, n_int:], b - A[:, :n_int] @ np.array(combo),
                        lb=np.zeros(n_cont), ub=ub[n_int:],
                    )
                    s = dense_solve_lp(sub)
                    if s.status != "optimal":
                        continue
                    val = float(c[:n_int] @ combo) + s.objective
                else:
                    if np.any(A @ np.array(combo, dtype=float) > b + 1e-9):
                        continue
                    val = float(c @ np.array(combo, dtype=float))
                if best is None or val > best:
                    best = val
            if best is None:
                assert sol.status == "infeasible", trial
            else:
                assert sol.status == "optimal", trial
                assert sol.objective == pytest.approx(best, abs=1e-6), trial

    def test_each_node_solves_one_lp(self, monkeypatch):
        # The root is the first node: every LP solve is a distinct node, and
        # the reported pivots are those of these solves.
        boxes, pivots = [], {}
        real_solve_lp = lp_module.solve_lp

        def counting_solve_lp(lp):
            sol = real_solve_lp(lp)
            box = (lp.lb.tobytes(), lp.ub.tobytes())
            boxes.append(box)
            pivots[box] = sol.iterations
            return sol

        monkeypatch.setattr(lp_module, "solve_lp", counting_solve_lp)
        rng = np.random.default_rng(29)
        branched = 0
        for trial in range(25):
            boxes.clear()
            pivots.clear()
            sol = solve_mip(random_mip(rng))
            assert sol.iterations == sum(pivots.values()), trial
            assert len(boxes) == sol.nodes, trial
            branched += sol.nodes > 1
        assert branched >= 5

    def test_incumbent_is_feasible(self):
        # Two integer columns, nonpositive so that every node stays in
        # solve_lp's form, and two continuous ones of both signs.
        rng = np.random.default_rng(5)
        A = rng.normal(size=(4, 4))
        A[:, :2] = -np.abs(A[:, :2])
        b = rng.random(4) * 3 + 1
        c = rng.normal(size=4)
        lp = LinearProgram(c, A, b, lb=np.zeros(4), ub=np.full(4, 5.0))
        sol = solve_mip(MixedIntegerProgram(lp, np.array([True, True, False, False])))
        assert sol.status == "optimal"
        assert np.all(A @ sol.x <= b + 1e-7)
        assert np.all(np.abs(sol.x[:2] - np.round(sol.x[:2])) <= 1e-6)

    def test_integer_needs_finite_bounds(self):
        lp = LinearProgram([1.0], [[1.0]], [2.5])
        with pytest.raises(DomainError):
            MixedIntegerProgram(lp, np.array([True]))

    def test_min_sense(self):
        # min x1 + x2 s.t. x1 + x2 >= 2.5 is max -x1 - x2 s.t.
        # -x1 - x2 <= -2.5, whose origin is infeasible: outside solve_lp's
        # form, so it goes to the general reference simplex.
        lp = LinearProgram(
            [-1.0, -1.0], [[-1.0, -1.0]], [-2.5],
            lb=[0.0, 0.0], ub=[3.0, 3.0],
        )
        mip = MixedIntegerProgram(lp, np.array([True, True]))
        with pytest.raises(DomainError, match="row 0 has -2.5"):
            solve_mip(mip)
        assert dense_solve_mip(mip).objective == pytest.approx(-3.0, abs=1e-9)

    def test_rejects_branch_leaving_the_form(self):
        # The root x = (1.5, 0) is in the form, but its up branch x1 >= 2
        # shifts the right side to 1.5 - 2 < 0; the dense reference prunes
        # that node as infeasible.
        lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.5],
                           lb=[0.0, 0.0], ub=[2.0, 2.0])
        mip = MixedIntegerProgram(lp, np.array([True, True]))
        assert solve_lp(lp).status == "optimal"
        with pytest.raises(DomainError, match="b - A lb >= 0"):
            solve_mip(mip)
        assert dense_solve_mip(mip).objective == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(3, 3))
        A[:, :2] = -np.abs(A[:, :2])
        b = rng.random(3) * 2 + 1
        c = rng.normal(size=3)
        lp = LinearProgram(c, A, b, lb=np.zeros(3), ub=np.full(3, 4.0))
        mip = MixedIntegerProgram(lp, np.array([True, True, False]))
        s1, s2 = solve_mip(mip), solve_mip(mip)
        assert s1.nodes == s2.nodes
        np.testing.assert_array_equal(s1.x, s2.x)


class TestDualityCheck:
    def test_simple_pair(self):
        lp = LinearProgram([3.0, 2.0], [[1.0, 1.0], [2.0, 1.0]], [4.0, 6.0])
        rep = lp_duality_check(lp)
        assert rep.status == "checked"
        assert rep.ok
        assert rep.dual_objective == pytest.approx(rep.primal_objective, abs=1e-6)

    def test_random_instances(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(15):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            A = rng.normal(size=(m, n))
            b = rng.random(m) * 3 + 0.5
            c = rng.normal(size=n)
            sense = "max" if rng.random() < 0.5 else "min"
            rel = ["<="] * m if sense == "max" else [">="] * m
            if sense == "min":
                c = np.abs(c)  # keep it bounded below
                b = -b
            lp = GeneralLP(sense, c, A, rel, b)
            rep = lp_duality_check(lp)
            if rep.status == "checked":
                assert rep.ok, (rep.primal_objective, rep.dual_objective)
                checked += 1
        assert checked >= 5

    def test_skipped_when_infeasible(self):
        lp = GeneralLP("max", [1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0])
        rep = lp_duality_check(lp)
        assert rep.status == "skipped-infeasible"

    def test_mixed_bounds_and_equalities(self):
        lp = GeneralLP(
            "min", [1.0, -2.0, 0.5],
            [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], ["==", "<="], [2.0, 0.5],
            lb=[0.0, 0.0, -1.0], ub=[np.inf, 1.5, 2.0],
        )
        rep = lp_duality_check(lp)
        assert rep.status == "checked"
        assert rep.ok
