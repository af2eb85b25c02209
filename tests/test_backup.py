import itertools
from dataclasses import dataclass, replace

import numpy as np
import pytest

from epiplan import Action, EpidemicParams, backup, plan
from epiplan import lp as lp_module
from epiplan import model as model_module
from epiplan.errors import DomainError, SolverError
from epiplan.backup import (
    drmdp_backup_enumerate,
    drmdp_backup_mccormick,
    drmdp_backup_unary,
    enumerate_terms,
    envelope_kinks,
    envelope_level_values,
    inner_dual_program,
    inner_value_parametric,
    inner_values,
    state_terms,
    worst_case_shift,
)
from epiplan.grid import Grid, GridSpec, RowBlock, discretize_kernel
from epiplan.lp import LinearProgram, solve_lp
from epiplan.model import EpidemicModel
from epiplan.plan import PlannerConfig, backward_dp
from epiplan.rules import (
    AmbiguityConfig,
    DecisionRuleCoefficients,
    design_matrix,
    fit_rules,
    mean_bounds,
    rule_design,
)
from epiplan.seir import stage_rewards
from oracles import (
    assert_record_is_the_oracles,
    best_action_over_rows,
    dense_solve_lp,
    dense_solve_mip,
    drmdp_backup_enumerate_unrecorded,
    envelope_kinks_one_state,
    envelope_level_values_one_state,
    inner_primal_oracle,
    inner_value_parametric_one_state,
    inner_values_unrecorded,
    mccormick_binding_program_loop,
    mccormick_four_row_backup,
    mccormick_mip_backup,
    mccormick_mip_program,
    per_state_dp,
    sparse_row,
)


def constant_coeffs(support, center, delta, reward=0.0):
    """Rules with zero slopes: the same bounds for every action."""
    mean = np.zeros((3, len(support)))
    mean[0] = center
    return DecisionRuleCoefficients(support=np.asarray(support, dtype=np.int64),
                                    mean=mean, delta=delta,
                                    eps=np.array([reward, 0.0, 0.0]))


def random_coeffs(rng, m, adversarial=False):
    """Rules around a random distribution; adversarial ones have means off
    the simplex, negative upper bounds and steep slopes.  Crossed bounds
    (eta_L > eta_U) need no coefficients: random_batch draws them."""
    base = rng.random(m)
    base /= base.sum()
    mean = np.vstack([base, rng.normal(scale=0.05, size=(2, m))])
    delta = rng.random() * 0.1
    if adversarial:
        mean = np.vstack([rng.normal(scale=0.6, size=m),
                          rng.normal(scale=0.3, size=(2, m))])
        delta = rng.random() * 0.6
    eps = np.array([-rng.random() * 50, -rng.random(), -rng.random()])
    return DecisionRuleCoefficients(support=np.arange(m), mean=mean, delta=delta,
                                    eps=eps)


def level_values(coeffs, k, L, M, v):
    """The relaxed backup value at every level of one state, a batch of
    one, for discounted values v over its support."""
    return envelope_level_values(envelope_kinks([0], [coeffs], k, L, M), v[None])[0]


def grid_actions(L, M):
    return [Action(v, r) for v in range(L + 1) for r in range(M + 1)]


def as_dict(row):
    return dict(zip(row.indices.tolist(), row.probs.tolist()))


def robust_backup(actions, rows, rewards, v, lam, grid, budget=0.5):
    """Nominal backup evaluated on adversarially shifted kernel rows, shifted
    as one block."""
    shifted = worst_case_shift(RowBlock.join(rows), grid, budget)
    return best_action_over_rows(actions, shifted, rewards, v, lam)


def inner_lp_value(coeffs, action, v, lam, k):
    """One action's value through the multiplier-LP route."""
    return drmdp_backup_enumerate(coeffs, [action], v, lam, k, method="lp",
                                  X=design_matrix([action]))[0]


def ldr_nominal_backup(coeffs, actions, v, lam):
    """Nominal backup using the fitted rules: reward rule plus midpoint row."""
    best_val, best_a = -np.inf, None
    for a in actions:
        x = design_matrix([a])[0]
        val = x @ coeffs.eps + lam * float(x @ coeffs.mean @ v)
        if val > best_val:
            best_val, best_a = val, a
    return best_val, best_a


def best_kink_solution(eta_L, eta_U, v, k):
    """(q, w, u) maximizing the multiplier LP over the shared kink set.

    Tries every q in {v_j, v_j - k, min v + k} (clipped at min v + k) and, at
    each, the best feasible vertex per successor; returns the best triple.
    """
    A, B = -eta_U, eta_L
    m = len(v)
    best = None
    for q in np.minimum(np.concatenate([v, v - k, [v.min() + k]]), v.min() + k):
        d = np.minimum(q - v, k)
        wv = np.stack([np.zeros(m), np.clip(d, 0.0, None), np.full(m, k),
                       np.zeros(m), np.zeros(m), 0.5 * (k + d)])
        uv = np.stack([np.zeros(m), np.zeros(m), np.zeros(m),
                       np.clip(-d, 0.0, None), np.full(m, k), 0.5 * (k - d)])
        feas = np.stack([d <= 0.0, (d >= 0.0) & (d <= k), d <= k,
                         (d >= -k) & (d <= 0.0), d <= -k, np.abs(d) <= k])
        vals = np.where(feas, A * wv + B * uv, -np.inf)
        pick = np.argmax(vals, axis=0)
        w, u = wv[pick, np.arange(m)], uv[pick, np.arange(m)]
        total = q + A @ w + B @ u
        if best is None or total > best[0]:
            best = (total, float(q), w, u)
    return best[1:]


def random_batch(rng, n, m):
    """(eta_L, eta_U, v) with crossing bounds, and on half the draws
    quantized entries so that values and bounds tie."""
    if rng.random() < 0.5:
        eta_U = np.round(rng.normal(scale=0.5, size=(n, m)) * 4) / 4
        eta_L = np.round(rng.normal(scale=0.5, size=(n, m)) * 4) / 4
        v = -np.round(rng.random(m) * 4) * 2.5
    else:
        eta_U = rng.normal(scale=0.5, size=(n, m))
        eta_L = eta_U - rng.normal(scale=0.3, size=(n, m))
        v = -rng.random(m) * 10.0 ** rng.integers(0, 4)
    return eta_L, eta_U, v


def shift_one(row, grid, budget):
    """worst_case_shift of a block of one row."""
    return worst_case_shift(RowBlock.join([row]), grid, budget)[0]


class TestWorstCaseShift:
    def setup_method(self):
        self.grid = Grid(GridSpec(1))
        self.low = self.grid.index_of(0, 0, 0)
        self.high = self.grid.index_of(0, 0, 1)

    def test_budget_zero_unchanged(self):
        row = sparse_row(np.array([self.low, self.high]), np.array([0.6, 0.4]))
        out = shift_one(row, self.grid, 0.0)
        np.testing.assert_array_equal(out.probs, row.probs)

    def test_mass_already_at_top(self):
        row = sparse_row(np.array([self.high]), np.array([1.0]))
        out = shift_one(row, self.grid, 0.5)
        assert as_dict(out) == {self.high: 1.0}

    def test_greedy_transfer(self):
        row = sparse_row(np.array([self.low, self.high]), np.array([0.6, 0.4]))
        out = shift_one(row, self.grid, 0.5)
        got = as_dict(out)
        assert got[self.low] == pytest.approx(0.35, abs=1e-12)
        assert got[self.high] == pytest.approx(0.65, abs=1e-12)
        l1 = abs(0.6 - 0.35) + abs(0.65 - 0.4)
        assert l1 == pytest.approx(0.5, abs=1e-12)

    def test_budget_respected_and_simplex_kept(self):
        rng = np.random.default_rng(2)
        g = Grid(GridSpec(3))
        for _ in range(40):
            size = int(rng.integers(1, 9))
            idx = rng.choice(g.n_corners, size=size, replace=False)
            pr = rng.random(size)
            pr /= pr.sum()
            row = sparse_row(idx, pr)
            budget = float(rng.random() * 2)
            out = shift_one(row, g, budget)
            assert out.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(out.probs >= -1e-15)
            base, got = as_dict(row), as_dict(out)
            l1 = sum(abs(got.get(i, 0.0) - base.get(i, 0.0))
                     for i in set(base) | set(got))
            assert l1 <= budget + 1e-9


class TestLevelBackups:
    def test_nominal_matches_hand_enumeration(self):
        g = Grid(GridSpec(1))
        i0, i1, i2 = 0, 1, 2
        actions = [Action(0, 0), Action(1, 0)]
        rows = [
            sparse_row(np.array([i0, i1]), np.array([0.5, 0.5])),
            sparse_row(np.array([i1, i2]), np.array([0.25, 0.75])),
        ]
        rewards = [-1.0, -3.0]
        v = np.zeros(g.n_corners)
        v[[i0, i1, i2]] = [0.0, -10.0, -2.0]
        lam = 0.9
        val, act = best_action_over_rows(actions, rows, rewards, v, lam)
        hand = [
            -1.0 + lam * (0.5 * 0.0 + 0.5 * -10.0),
            -3.0 + lam * (0.25 * -10.0 + 0.75 * -2.0),
        ]
        assert val == pytest.approx(max(hand), abs=1e-12)
        assert act == Action(0, 0)

    def test_ties_break_lexicographically(self):
        # Ties go to the first given action: the lowest (y_V, y_R) when the
        # actions come in model order.
        row = sparse_row(np.array([0]), np.array([1.0]))
        for actions in ([Action(0, 0), Action(1, 0)], [Action(1, 0), Action(0, 0)]):
            val, act = best_action_over_rows(actions, [row, row], [-5.0, -5.0],
                                             np.zeros(1), 0.9)
            assert act == actions[0]

    def test_robust_budget_zero_equals_nominal(self):
        g = Grid(GridSpec(1))
        actions = [Action(0, 0)]
        rows = [sparse_row(np.array([0, 1]), np.array([0.7, 0.3]))]
        v = -np.arange(float(g.n_corners))
        a = best_action_over_rows(actions, rows, [-1.0], v, 0.9)
        b = robust_backup(actions, rows, [-1.0], v, 0.9, g, budget=0.0)
        assert a == b

    def test_robust_no_better_when_values_fall_with_infectives(self):
        g = Grid(GridSpec(2))
        actions = [Action(0, 0), Action(0, 1)]
        lo = g.index_of(1, 0, 0)
        hi = g.index_of(0, 0, 2)
        rows = [
            sparse_row(np.array([lo, hi]), np.array([0.8, 0.2])),
            sparse_row(np.array([lo, hi]), np.array([0.9, 0.1])),
        ]
        rewards = [-1.0, -2.0]
        v = np.zeros(g.n_corners)
        v[[lo, hi]] = [-1.0, -30.0]
        nom, _ = best_action_over_rows(actions, rows, rewards, v, 0.95)
        rob, _ = robust_backup(actions, rows, rewards, v, 0.95, g)
        assert rob <= nom + 1e-12


class TestInnerProblem:
    def test_singleton_support_pins_value(self):
        coeffs = constant_coeffs([4], [1.0], 0.0, reward=-2.0)
        for k in (0.5, 1000.0):
            q_val = inner_lp_value(coeffs, Action(0, 0), np.full(9, -7.0), 0.9, k)
            assert q_val == pytest.approx(-2.0 + 0.9 * -7.0, abs=1e-8)

    def test_two_successors_tight_band_and_free_nature(self):
        # eta pinned at (0.5, 0.5): worst mean is nominal when k is huge.
        support = [0, 1]
        coeffs = constant_coeffs(support, [0.5, 0.5], 0.0)
        v = np.array([0.0, -10.0])
        lam = 0.95
        big = inner_lp_value(coeffs, Action(0, 0), v, lam, 1e6)
        assert big == pytest.approx(lam * -5.0, abs=1e-6)
        # k = 0 removes the penalty entirely: nature dives to the worst value.
        free = inner_lp_value(coeffs, Action(0, 0), v, lam, 0.0)
        assert free == pytest.approx(lam * -10.0, abs=1e-9)

    def test_parametric_matches_lp_on_random_instances(self):
        rng = np.random.default_rng(77)
        for trial in range(300):
            m = int(rng.integers(1, 12))
            coeffs = random_coeffs(rng, m, adversarial=(trial % 3 == 0))
            v = -rng.random(m) * 10 ** rng.integers(0, 4)
            k = float(rng.choice([0.0, 0.37, 1.0, 55.0, 1e3, 1e6]))
            a = Action(0, 0)
            lp_val = inner_lp_value(coeffs, a, v, 0.95, k)
            X = design_matrix([a])
            fast_val = X[0] @ coeffs.eps + inner_value_parametric(
                *mean_bounds(coeffs, X), 0.95 * v, k)[0]
            scale = 1.0 + abs(lp_val)
            assert abs(lp_val - fast_val) <= 1e-7 * scale, (trial, lp_val, fast_val)

    def test_batched_parametric_matches_lp(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            n, m = int(rng.integers(1, 37)), int(rng.integers(1, 61))
            eta_L, eta_U, v = random_batch(rng, n, m)
            k = float(rng.choice([0.0, 0.25, 1.0, 1e3, 1e6]))
            got = inner_value_parametric(eta_L, eta_U, v, k)
            assert got.shape == (n,)
            for i in rng.choice(n, size=min(n, 3), replace=False):
                res = solve_lp(inner_dual_program(eta_L[i], eta_U[i], v, k))
                assert res.status == "optimal"
                assert abs(got[i] - res.objective) <= 1e-9 * (1.0 + abs(res.objective)), \
                    (trial, i, got[i], res.objective)

    def test_batch_rows_equal_rows_alone(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            n, m = int(rng.integers(1, 37)), int(rng.integers(1, 61))
            eta_L, eta_U, v = random_batch(rng, n, m)
            k = float(rng.choice([0.0, 0.25, 1.0, 1e3, 1e6]))
            got = inner_value_parametric(eta_L, eta_U, v, k)
            alone = [inner_value_parametric(eta_L[i:i + 1], eta_U[i:i + 1], v, k)[0]
                     for i in range(n)]
            np.testing.assert_array_equal(got, alone)

    def test_one_state_is_the_one_state_arithmetic(self):
        # On one state the batched kernel does the one-state solve's
        # arithmetic, in another layout: the same values bit for bit.
        rng = np.random.default_rng(8)
        for trial in range(100):
            n, m = int(rng.integers(1, 37)), int(rng.integers(1, 61))
            eta_L, eta_U, v = random_batch(rng, n, m)
            k = float(rng.choice([0.0, 0.25, 1.0, 1e3, 1e6]))
            np.testing.assert_array_equal(
                inner_value_parametric(eta_L, eta_U, v, k),
                inner_value_parametric_one_state(eta_L, eta_U, v, k), err_msg=str(trial))

    def test_padded_batch_equals_states_alone(self):
        # States of different support sizes padded to the widest (v = +inf,
        # bounds 0) and solved together: the widest is solved bit for bit,
        # the others up to the grouping of their sums over successors.
        rng = np.random.default_rng(9)
        for trial in range(30):
            n, k = int(rng.integers(1, 37)), float(rng.choice([0.25, 1.0, 1e3]))
            sizes = [1, 60] + [int(x) for x in rng.integers(1, 61, size=4)]
            states = [random_batch(rng, n, m) for m in sizes]
            eta_L, eta_U = np.zeros((2, len(sizes), n, 60))
            v = np.full((len(sizes), 60), np.inf)
            for i, (lo, hi, vi) in enumerate(states):
                eta_L[i, :, :len(vi)], eta_U[i, :, :len(vi)], v[i, :len(vi)] = lo, hi, vi
            got = inner_values(enumerate_terms(eta_L, eta_U, k), v)
            for i, (lo, hi, vi) in enumerate(states):
                alone = inner_value_parametric(lo, hi, vi, k)
                if len(vi) in (1, 60):
                    np.testing.assert_array_equal(got[i], alone, err_msg=str(trial))
                assert np.all(np.abs(got[i] - alone) <= 1e-12 * (1.0 + np.abs(alone))), trial

    def test_parametric_solution_is_dual_feasible(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            eta_U = rng.normal(scale=0.5, size=m)
            eta_L = eta_U - np.abs(rng.normal(scale=0.2, size=m))
            v = -rng.random(m) * 20
            k = float(rng.choice([0.5, 10.0, 1e3]))
            val = inner_value_parametric(eta_L[None], eta_U[None], v, k)[0]
            q, w, u = best_kink_solution(eta_L, eta_U, v, k)
            assert np.all(w >= -1e-12) and np.all(u >= -1e-12)
            assert np.all(w + u <= k + 1e-9)
            assert np.all(q <= v + w - u + 1e-9)
            assert val == pytest.approx(q - w @ eta_U + u @ eta_L, abs=1e-8)

    def test_strong_duality_battery(self):
        rng = np.random.default_rng(99)
        for trial in range(120):
            m = int(rng.integers(1, 10))
            coeffs = random_coeffs(rng, m, adversarial=(trial % 4 == 0))
            v = -rng.random(m) * 100
            k = float(rng.choice([0.0, 1.0, 1e3, 1e6]))
            a = Action(0, 0)
            dual_val = inner_lp_value(coeffs, a, v, 0.95, k)
            primal_val = inner_primal_oracle(coeffs, a, v, 0.95, k)
            scale = 1.0 + abs(dual_val)
            assert abs(dual_val - primal_val) <= 1e-6 * scale, trial

    def test_monotone_in_k(self):
        rng = np.random.default_rng(41)
        coeffs = random_coeffs(rng, 6)
        v = -rng.random(6) * 40
        vals = []
        for k in (0.0, 1.0, 10.0, 1e3, 1e6):
            val = inner_lp_value(coeffs, Action(0, 0), v, 0.95, k)
            vals.append(val)
        assert all(a <= b + 1e-8 for a, b in zip(vals, vals[1:]))

    def test_mean_reported_in_simplex(self):
        rng = np.random.default_rng(13)
        coeffs = random_coeffs(rng, 5)
        v = -rng.random(5) * 10
        _, mean, slack = inner_primal_oracle(coeffs, Action(0, 0), v, 0.95, 100.0,
                                             return_solution=True)
        assert mean.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(mean >= -1e-9)
        assert np.all(slack >= -1e-9)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


class TestRecordedTerms:
    """The enumeration backup reading a state's EnumerateTerms, recorded
    once, against the route that forms them on every call (oracles)."""

    @pytest.mark.parametrize("case", ["random", "adversarial", "tie-heavy", "k=0",
                                      "one successor"])
    def test_recorded_backup_is_the_unrecorded_one(self, case):
        rng = np.random.default_rng(21)
        for trial in range(60):
            L, M = int(rng.integers(0, 4)), int(rng.integers(1, 4))
            actions = grid_actions(L, M)
            X = design_matrix(actions)
            m = 1 if case == "one successor" else int(rng.integers(1, 61))
            coeffs = random_coeffs(rng, m, adversarial=case == "adversarial")
            v_next = -rng.random(m) * 10.0 ** rng.integers(0, 7)
            if case == "tie-heavy":
                # Few distinct successor values, and rules whose slopes
                # vanish, so that kinks coincide and every action ties.
                v_next = rng.choice(v_next[:2], size=m)
                coeffs.mean[1:] = 0.0
                coeffs.eps[1:] = 0.0
            k = 0.0 if case == "k=0" else float(rng.choice([0.25, 1.0, 1e3, 1e6]))
            terms = state_terms(coeffs, X, k)
            ref = drmdp_backup_enumerate_unrecorded(coeffs, actions, v_next, 0.95, k, X)
            for got in (drmdp_backup_enumerate(coeffs, actions, v_next, 0.95, k,
                                               method="parametric", X=X, terms=terms),
                        drmdp_backup_enumerate(coeffs, actions, v_next, 0.95, k,
                                               method="parametric", X=X)):
                assert same_bits(got[0], ref[0]) and got[1] == ref[1], (case, trial)
            if case == "tie-heavy":
                assert ref[1] == actions[0]
            # The same record read again, against other values.
            v_next = -rng.random(m) * 10.0 ** rng.integers(0, 7)
            got = drmdp_backup_enumerate(coeffs, actions, v_next, 0.95, k,
                                         method="parametric", X=X, terms=terms)
            ref = drmdp_backup_enumerate_unrecorded(coeffs, actions, v_next, 0.95, k, X)
            assert same_bits(got[0], ref[0]) and got[1] == ref[1], (case, trial)

    def test_batched_terms_are_the_unrecorded_solve(self):
        # Padded batches, as the stage batches build them: +inf values and
        # zero bounds past each state's support.
        rng = np.random.default_rng(22)
        for trial in range(40):
            n, w = int(rng.integers(1, 37)), int(rng.integers(1, 61))
            c = int(rng.integers(1, 6))
            eta_L, eta_U = np.zeros((2, c, n, w))
            v = np.full((c, w), np.inf)
            for i in range(c):
                m = int(rng.integers(1, w + 1))
                eta_L[i, :, :m], eta_U[i, :, :m], v[i, :m] = random_batch(rng, n, m)
            k = float(rng.choice([0.0, 0.25, 1.0, 1e3]))
            got = inner_values(enumerate_terms(eta_L, eta_U, k), v)
            assert same_bits(got, inner_values_unrecorded(eta_L, eta_U, v, k)), trial
            one = inner_values(enumerate_terms(eta_L[0], eta_U[0], k), v[0])
            assert same_bits(one, inner_values_unrecorded(eta_L[0], eta_U[0], v[0], k)), trial


class TestActionBackends:
    def affine_fitted(self, rng, m, L, M, delta, spread=0.02):
        """Exactly affine rows fitted with fit_rules, plus affine rewards."""
        actions = grid_actions(L, M)
        support = np.arange(m)
        base = rng.random(m) + 0.2
        base /= base.sum()
        s1 = rng.normal(scale=spread / max(L, 1), size=m)
        s2 = rng.normal(scale=spread / max(M, 1), size=m)
        s1 -= s1.mean()
        s2 -= s2.mean()
        kernels = []
        for a in actions:
            row = base + s1 * a.y_V + s2 * a.y_R
            row = np.clip(row, 1e-9, None)
            row /= row.sum()
            kernels.append(sparse_row(support, row))
        # rows are affine only pre-normalization; refit targets from the rows
        rewards = [-(5.0 + 2.0 * a.y_V + 3.0 * a.y_R) for a in actions]
        coeffs = fit_rules(rule_design(actions), kernels, rewards,
                           AmbiguityConfig(delta, 1.0))
        return actions, coeffs

    def test_single_action_space_all_equal(self):
        rng = np.random.default_rng(1)
        actions = [Action(0, 0)]
        coeffs = random_coeffs(rng, 4)
        v = -rng.random(4) * 10
        lam, k = 0.95, 100.0
        e, _ = drmdp_backup_enumerate(coeffs, actions, v, lam, k, method="lp",
                                      X=design_matrix(actions))
        mc, _ = drmdp_backup_mccormick(coeffs, v, lam, k, L=0, M=0)
        un, _ = drmdp_backup_unary(coeffs, v, lam, k, L=0, M=0)
        assert mc == pytest.approx(e, abs=1e-6)
        assert un == pytest.approx(e, abs=1e-6)

    def test_unary_exact_mccormick_upper_bound(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            m = int(rng.integers(2, 7))
            L = int(rng.integers(1, 3))
            M = int(rng.integers(1, 3))
            coeffs = random_coeffs(rng, m, adversarial=(trial % 3 == 0))
            v = -rng.random(m) * 30
            lam = 0.95
            k = float(rng.choice([1.0, 50.0, 1e3]))
            actions = grid_actions(L, M)
            e, _ = drmdp_backup_enumerate(coeffs, actions, v, lam, k, method="lp",
                                          X=design_matrix(actions))
            un, _ = drmdp_backup_unary(coeffs, v, lam, k, L=L, M=M)
            mc, _ = drmdp_backup_mccormick(coeffs, v, lam, k, L=L, M=M)
            scale = 1.0 + abs(e)
            assert abs(un - e) <= 1e-6 * scale, trial
            assert mc >= un - 1e-6 * scale, trial
            assert mc >= e - 1e-6 * scale, trial

    def test_relaxation_ordering_on_fitted_rules(self):
        # Rules fitted from compiled kernel rows rather than drawn at random;
        # several of these states have positive penalty slack.
        model = EpidemicModel(EpidemicParams(N=60, L=2, M=2), 4, AmbiguityConfig())
        rng = np.random.default_rng(12)
        lam, k = model.lam, model.acfg.k
        for idx in model.grid.in_S_indices()[::2]:
            coeffs = model.rules(int(idx))
            v = -rng.random(model.grid.n_corners) * 1e3
            e, _ = drmdp_backup_enumerate(coeffs, model.actions, v, lam, k,
                                          method="parametric", X=design_matrix(model.actions))
            un, _ = drmdp_backup_unary(coeffs, v, lam, k, L=2, M=2)
            mc, _ = drmdp_backup_mccormick(coeffs, v, lam, k, L=2, M=2)
            scale = 1.0 + abs(e)
            assert abs(un - e) <= 1e-6 * scale, (idx, un, e)
            assert mc >= e - 1e-6 * scale, (idx, mc, e)

    def test_one_sided_envelopes_equal_four_row_oracle(self):
        # Fitted rules with some slopes exactly zero, and action axes with a
        # single level: the binding-side MIP and the closed form have the
        # four-row optimum, and the MIP's LP has two base rows per successor
        # plus two rows per positive-cost and one per negative-cost envelope
        # column.
        lps = []
        rng = np.random.default_rng(41)
        zero_slopes = 0
        for trial in range(24):
            m = int(rng.integers(2, 7))
            _, coeffs = self.affine_fitted(rng, m, L=2, M=2, delta=rng.random() * 0.1)
            coeffs.mean[1:][rng.random((2, m)) < 0.3] = 0.0
            zero_slopes += int((coeffs.mean[1:] == 0.0).sum())
            L, M = [(2, 2), (0, 2), (2, 0), (1, 3)][trial % 4]
            v = -rng.random(m) * 10.0 ** rng.integers(0, 4)
            k = float(rng.choice([1.0, 50.0, 1e3]))
            got, _ = drmdp_backup_mccormick(coeffs, v, 0.95, k, L=L, M=M)
            mip, _ = mccormick_mip_backup(coeffs, v, 0.95, k, L=L, M=M)
            want, _ = mccormick_four_row_backup(coeffs, v, 0.95, k, L=L, M=M)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), trial
            assert abs(mip - want) <= 1e-9 * (1.0 + abs(want)), trial
            lps.append(mccormick_mip_program(coeffs, v, 0.95, k, L=L, M=M).lp)
            slopes = int((coeffs.mean[1:] != 0.0).sum())
            assert lps[-1].n_rows == 2 * m + 3 * slopes <= 8 * m + 2, trial
            assert lps[-1].n_vars == 2 * m + 3 + 2 * slopes, trial
        assert len(lps) == 24
        assert zero_slopes > 0

    def test_envelope_rows_equal_the_loop_oracle(self):
        # The MIP oracle's array-indexed envelope rows against the
        # per-(action, successor, product) loop, entry by entry, on fitted
        # rules with zero slopes, signs of both kinds and single-level
        # action axes.
        rng = np.random.default_rng(43)
        zero_slopes = signs = 0
        for trial in range(24):
            m = int(rng.integers(1, 8))
            _, coeffs = self.affine_fitted(rng, m, L=2, M=2, delta=rng.random() * 0.1)
            coeffs.mean[1:][rng.random((2, m)) < 0.3] = 0.0
            zero_slopes += int((coeffs.mean[1:] == 0.0).sum())
            signs += bool((coeffs.mean[1:] > 0).any() and (coeffs.mean[1:] < 0).any())
            L, M = [(2, 2), (0, 2), (2, 0), (1, 3)][trial % 4]
            v = -rng.random(m) * 10.0 ** rng.integers(0, 4)
            k = float(rng.choice([0.0, 1.0, 50.0, 1e3]))
            got = mccormick_mip_program(coeffs, v, 0.95, k, L=L, M=M).lp
            want = mccormick_binding_program_loop(coeffs, v, 0.95, k, L=L, M=M)
            for name in ("c", "A", "b", "lb", "ub"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                              err_msg=f"{name}, trial {trial}")
        assert zero_slopes > 0 and signs > 0

    def test_k_zero_collapses_to_support_minimum(self):
        rng = np.random.default_rng(7)
        m, L, M = 5, 2, 2
        coeffs = random_coeffs(rng, m)
        v = -rng.random(m) * 10
        lam = 0.9
        actions = grid_actions(L, M)
        expected = max(
            coeffs.eps[0] + coeffs.eps[1] * a.y_V + coeffs.eps[2] * a.y_R
            for a in actions
        ) + lam * v.min()
        for method in ("parametric", "lp"):
            e, _ = drmdp_backup_enumerate(coeffs, actions, v, lam, 0.0, method=method,
                                          X=design_matrix(actions))
            assert e == pytest.approx(expected, abs=1e-8), method
        mc, _ = drmdp_backup_mccormick(coeffs, v, lam, 0.0, L=L, M=M)
        un, _ = drmdp_backup_unary(coeffs, v, lam, 0.0, L=L, M=M)
        assert mc == pytest.approx(e, abs=1e-6)
        assert un == pytest.approx(e, abs=1e-6)

    def test_collapse_with_exact_fit_and_zero_delta(self):
        # delta = 0 and affine kernels: every backend equals the fitted
        # nominal backup, provided k dominates the value spread.
        rng = np.random.default_rng(55)
        for trial in range(10):
            actions, coeffs = self.affine_fitted(rng, m=4, L=1, M=2, delta=0.0)
            v = -rng.random(4) * 50
            lam, k = 0.95, 1000.0
            nominal_val, nominal_act = ldr_nominal_backup(coeffs, actions, v, lam)
            e, _ = drmdp_backup_enumerate(coeffs, actions, v, lam, k,
                                          method="parametric", X=design_matrix(actions))
            un, _ = drmdp_backup_unary(coeffs, v, lam, k, L=1, M=2)
            mc, _ = drmdp_backup_mccormick(coeffs, v, lam, k, L=1, M=2)
            scale = 1.0 + abs(nominal_val)
            assert abs(e - nominal_val) <= 1e-6 * scale, trial
            assert abs(un - nominal_val) <= 1e-6 * scale, trial
            assert mc >= nominal_val - 1e-6 * scale, trial

    def test_conservatism_with_positive_delta(self):
        rng = np.random.default_rng(66)
        for trial in range(10):
            actions, coeffs = self.affine_fitted(rng, m=4, L=2, M=1, delta=0.03)
            v = -rng.random(4) * 50
            lam, k = 0.95, 1000.0
            nominal_val, _ = ldr_nominal_backup(coeffs, actions, v, lam)
            for method in ("parametric", "lp"):
                e, _ = drmdp_backup_enumerate(coeffs, actions, v, lam, k,
                                              method=method, X=design_matrix(actions))
                assert e <= nominal_val + 1e-6 * (1.0 + abs(nominal_val)), (trial, method)

    def test_enumerate_parametric_method_agrees(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            coeffs = random_coeffs(rng, m)
            v = -rng.random(m) * 20
            actions = grid_actions(2, 2)
            a = drmdp_backup_enumerate(coeffs, actions, v, 0.95, 37.0, method="lp",
                                       X=design_matrix(actions))
            b = drmdp_backup_enumerate(coeffs, actions, v, 0.95, 37.0,
                                       method="parametric", X=design_matrix(actions))
            assert a[0] == pytest.approx(b[0], rel=1e-9, abs=1e-9)
            assert a[1] == b[1]

    def test_enumerate_ties_go_to_lowest_action(self):
        # Zero slopes: every action has the same value on both routes, and
        # the first given action wins: the lowest in model order, the highest
        # when the order is reversed.
        coeffs = constant_coeffs(np.arange(3), [0.3, 0.4, 0.2], 0.1, reward=-4.0)
        v = np.array([-1.0, -6.0, -3.0])
        for actions in (grid_actions(2, 2), list(reversed(grid_actions(2, 2)))):
            for method in ("parametric", "lp"):
                _, act = drmdp_backup_enumerate(coeffs, actions, v, 0.95, 10.0,
                                                method=method, X=design_matrix(actions))
                assert act == actions[0], (method, actions[0])

    def test_enumerate_rejects_unknown_method(self):
        coeffs = constant_coeffs([0], [1.0], 0.0)
        with pytest.raises(DomainError):
            drmdp_backup_enumerate(coeffs, [Action(0, 0)], np.zeros(1), 0.9, 1.0,
                                   method="ternary", X=design_matrix([Action(0, 0)]))


def test_mips_write_the_inner_lp_block(monkeypatch):
    """Both MIPs, the McCormick oracle's and the unary one, open with the
    multiplier LP at the intercept bounds: the same (q, w, u) costs and
    bounds, and the same first 2m rows and right sides."""
    model = EpidemicModel(EpidemicParams(N=60, L=2, M=2), 4, AmbiguityConfig())
    coeffs = model.rules(int(model.grid.in_S_indices()[7]))
    mean = coeffs.mean.copy()
    mean[1, ::2] = 0.0   # zero slopes drop McCormick and unary product columns
    mean[2, 1::3] = 0.0
    coeffs = replace(coeffs, mean=mean)
    m = len(coeffs.support)
    v = -np.random.default_rng(4).random(model.grid.n_corners) * 1e3
    lam, k = model.lam, model.acfg.k
    programs = [mccormick_mip_program(coeffs, v, lam, k, L=2, M=2).lp]
    solve_mip = backup.solve_mip

    def recording_solve_mip(mip):
        programs.append(mip.lp)
        return solve_mip(mip)

    monkeypatch.setattr(backup, "solve_mip", recording_solve_mip)
    drmdp_backup_unary(coeffs, v, lam, k, L=2, M=2)
    inner = inner_dual_program(mean[0] - coeffs.delta, mean[0] + coeffs.delta,
                               lam * v[coeffs.support], k)
    n = 1 + 2 * m
    assert len(programs) == 2
    for lp in programs:
        assert lp.n_vars > n and lp.n_rows > 2 * m
        np.testing.assert_array_equal(lp.c[:n], inner.c)
        np.testing.assert_array_equal(lp.lb[:n], inner.lb)
        np.testing.assert_array_equal(lp.ub[:n], inner.ub)
        np.testing.assert_array_equal(lp.A[:2 * m, :n], inner.A)
        assert not lp.A[:2 * m, n:].any()
        np.testing.assert_array_equal(lp.b[:2 * m], inner.b)
    assert (inner.lb[0], inner.ub[0]) == (lam * v[coeffs.support].min() - k, np.inf)


def test_q_bound_keeps_the_optimum_and_the_slack_basis():
    """q >= min(v) - k cuts off no optimum of the inner LP or the McCormick
    MIP oracle, and leaves both with b - A lb >= 0, so both start at the
    slack basis.  With q free they are outside solve_lp's form, and the
    general reference simplex solves them."""
    solve_mip = backup.solve_mip

    def q_free(lp):
        lb = lp.lb.copy()
        lb[0] = -np.inf
        return LinearProgram(lp.c, lp.A, lp.b, lb=lb, ub=lp.ub)

    model = EpidemicModel(EpidemicParams(N=60, L=2, M=2), 4, AmbiguityConfig())
    rng = np.random.default_rng(8)
    states = model.grid.in_S_indices()
    cases = 0
    for trial in range(24):
        coeffs = model.rules(int(states[trial % len(states)]))
        if trial % 6 == 0:  # one successor
            coeffs = replace(coeffs, support=coeffs.support[:1],
                             mean=coeffs.mean[:, :1])
        v = -rng.random(model.grid.n_corners) * 1e3
        if trial % 4 == 1:  # tied successor values
            v[coeffs.support] = v[coeffs.support[0]]
        k = (0.0, 1e6, model.acfg.k)[trial % 3]
        vs = model.lam * v[coeffs.support]
        mip = mccormick_mip_program(coeffs, v, model.lam, k, L=2, M=2)
        inner = inner_dual_program(coeffs.mean[0] - coeffs.delta,
                                   coeffs.mean[0] + coeffs.delta, vs, k)
        for lp, solve, reference in (
                (inner, solve_lp, dense_solve_lp),
                (mip.lp, lambda p: solve_mip(replace(mip, lp=p)),
                 lambda p: dense_solve_mip(replace(mip, lp=p)))):
            assert lp.lb[0] == vs.min() - k, trial
            assert (lp.b - lp.A @ lp.lb >= 0.0).all(), trial
            bounded, free = solve(lp), reference(q_free(lp))
            assert bounded.status == free.status == "optimal", trial
            tol = 1e-9 * (1.0 + abs(free.objective))
            assert abs(bounded.objective - free.objective) <= tol, trial
            cases += 1
    assert cases == 48


def test_backend_programs_are_in_the_lp_form(monkeypatch):
    """Every LP the inner-LP route, the unary MIP and the McCormick MIP
    oracle hand the simplex, root or branch-and-bound node, is in solve_lp's
    form: finite lower bounds and b - A lb >= 0.  Checked over inner-LP
    backward induction, backward induction one state at a time with the MIP
    oracle as the McCormick back-end, and unary backups on fitted rules;
    both MIPs branch."""
    solved, nodes = [], []
    real_solve_lp, real_solve_mip = lp_module.solve_lp, backup.solve_mip

    def checked_solve_lp(lp):
        assert np.isfinite(lp.lb).all()
        assert (lp.b - lp.A @ lp.lb >= 0.0).all()
        solved.append(lp)
        return real_solve_lp(lp)

    def counting_solve_mip(mip):
        sol = real_solve_mip(mip)
        nodes.append(sol.nodes)
        return sol

    monkeypatch.setattr(lp_module, "solve_lp", checked_solve_lp)
    monkeypatch.setattr(backup, "solve_lp", checked_solve_lp)
    monkeypatch.setattr(backup, "solve_mip", counting_solve_mip)
    monkeypatch.setattr(lp_module, "solve_mip", counting_solve_mip)
    monkeypatch.setattr(plan, "drmdp_backup_mccormick", mccormick_mip_backup)
    model = EpidemicModel(EpidemicParams(N=60, L=2, M=2, T=3), 4, AmbiguityConfig())
    backward_dp(model, PlannerConfig(backend="drmdp-enumerate", inner_method="lp"))
    inner = len(solved)
    assert inner > 0 and nodes == []
    # One backup_state per entry: backward_dp calls no one-state back-end
    # for McCormick.
    per_state_dp(model, PlannerConfig(backend="drmdp-mccormick"))
    assert len(solved) - inner == sum(nodes) > len(nodes)
    solved.clear()
    nodes.clear()
    rng = np.random.default_rng(3)
    for idx in model.grid.in_S_indices():
        v = -rng.random(model.grid.n_corners) * 1e3
        drmdp_backup_unary(model.rules(int(idx)), v, model.lam, model.acfg.k, L=2, M=2)
    assert len(solved) == sum(nodes) > len(nodes)


class TestEnvelopeClosedForm:
    """drmdp_backup_mccormick solves the McCormick MIP one integer level at a
    time in closed form; here it is held to the MIP oracles, the parametric
    inner solve at the corner levels, and inputs that would divide by zero
    or by a vanishing gap."""

    def assert_equals_mip(self, coeffs, v, lam, k, L, M):
        """The closed form's value within 1e-9 relative of both MIP oracles,
        and its action the oracle's or one tied with it within that
        tolerance; returns whether the actions are the same."""
        got, action = drmdp_backup_mccormick(coeffs, v, lam, k, L=L, M=M)
        want, want_action = mccormick_mip_backup(coeffs, v, lam, k, L=L, M=M)
        four, _ = mccormick_four_row_backup(coeffs, v, lam, k, L=L, M=M)
        tol = 1e-9 * (1.0 + abs(want))
        assert abs(got - want) <= tol, (got, want)
        assert abs(got - four) <= tol, (got, four)
        levels = level_values(coeffs, k, L, M, lam * v[coeffs.support])
        assert levels[want_action.y_V * (M + 1) + want_action.y_R] >= got - tol
        return action == want_action

    def test_random_fitted_rules_equal_the_mip_oracles(self):
        model = EpidemicModel(EpidemicParams(N=60, L=2, M=2), 4, AmbiguityConfig())
        states = model.grid.in_S_indices()
        rng = np.random.default_rng(31)
        same = 0
        for trial in range(36):
            if trial % 3:
                coeffs = model.rules(int(states[(7 * trial) % len(states)]))
                L, M = 2, 2
                v = -rng.random(model.grid.n_corners) * 10.0 ** rng.integers(1, 4)
            else:
                m = int(rng.integers(1, 8))
                coeffs = random_coeffs(rng, m, adversarial=trial % 2 == 0)
                L, M = int(rng.integers(1, 4)), int(rng.integers(1, 4))
                v = -rng.random(m) * 10.0 ** rng.integers(0, 4)
            k = float(rng.choice([1.0, 50.0, 1e3]))
            same += self.assert_equals_mip(coeffs, v, 0.95, k, L, M)
        assert same >= 30  # all 36 at this seed; the rest may tie

    def test_corner_levels_equal_the_parametric_inner_solve(self):
        # The envelopes are exact at a level's bounds, so at the four corner
        # levels the relaxed value is the enumeration value; at the others
        # it is at or above it.
        model = EpidemicModel(EpidemicParams(N=60, L=2, M=2), 4, AmbiguityConfig())
        rng = np.random.default_rng(32)
        above = 0
        for trial, idx in enumerate(model.grid.in_S_indices()):
            coeffs = model.rules(int(idx))
            L, M = [(2, 2), (1, 3), (3, 1), (4, 2)][trial % 4]
            k = float(rng.choice([1.0, 50.0, 1e3, 1e6]))
            v = model.lam * -rng.random(model.grid.n_corners)[coeffs.support] * 1e3
            actions = grid_actions(L, M)
            X = design_matrix(actions)
            exact = X @ coeffs.eps + inner_value_parametric(*mean_bounds(coeffs, X), v, k)
            relaxed = level_values(coeffs, k, L, M, v)
            corner = np.array([a.y_V in (0, L) and a.y_R in (0, M) for a in actions])
            scale = 1.0 + np.abs(exact)
            assert (np.abs(relaxed - exact)[corner] <= 1e-11 * scale[corner]).all(), trial
            assert (relaxed >= exact - 1e-11 * scale).all(), trial
            above += int((relaxed > exact + 1e-9 * scale).sum())
        assert above > 0

    def test_ties_go_to_the_first_level(self):
        # Zero slopes in the mean and reward rules: every level has the same
        # value, and the first, (0, 0), wins.
        coeffs = constant_coeffs(np.arange(3), [0.3, 0.4, 0.2], 0.1, reward=-4.0)
        v = np.array([-1.0, -6.0, -3.0])
        vals = level_values(coeffs, 10.0, 2, 2, 0.95 * v)
        assert (vals == vals[0]).all()
        assert drmdp_backup_mccormick(coeffs, v, 0.95, 10.0, L=2, M=2)[1] == Action(0, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["L=0", "M=0", "L=1,M=3", "k=0", "one successor",
                                      "zero slopes", "tied values"])
    def test_degenerate_inputs(self, case):
        # Single-level axes (h = 0, where a / h is 0 / 0), k = 0 (every node
        # of g_j at 0, every gap empty), a one-successor support, all-zero
        # slopes and tied successor values: no error, no RuntimeWarning, and
        # the MIP oracles' value.
        rng = np.random.default_rng(33)
        for trial in range(8):
            L, M = {"L=0": (0, 2), "M=0": (2, 0), "L=1,M=3": (1, 3)}.get(case, (2, 2))
            m = 1 if case == "one successor" else int(rng.integers(2, 7))
            coeffs = random_coeffs(rng, m, adversarial=trial % 2 == 1)
            if case == "zero slopes":
                coeffs.mean[1:] = 0.0
            v = -rng.random(m) * 10.0 ** rng.integers(0, 4)
            if case == "tied values":
                v[:] = v[0]
            k = 0.0 if case == "k=0" else float(rng.choice([1.0, 50.0, 1e3]))
            self.assert_equals_mip(coeffs, v, 0.95, k, L, M)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["random", "k=0", "L=0", "M=0", "L=1,M=3",
                                      "zero-slopes"])
    def test_chunk_records_equal_the_one_state_oracle(self, case):
        # Random and adversarial states of 1 to 9 successors in one chunk,
        # with k = 0 and single-level axes (h = 0): each state's record is
        # the one-state oracle's bit for bit, and its padded level values
        # are the oracle's within the grouping of the sum over its kinks
        # (the stage-batch contract, 1e-12 relative).  zero-slopes gives the
        # chunk's successors every sign pattern of their two slopes (-, 0
        # or +, 0 being +0.0 or -0.0), each pattern's nodes shared
        # (backup.envelope_nodes), at L=M=2, L=M=5 and L=1, M=3.
        rng = np.random.default_rng(34)
        sizes = ([(2, 2), (5, 5), (1, 3)] if case == "zero-slopes" else
                 [{"L=0": (0, 2), "M=0": (2, 0), "L=1,M=3": (1, 3)}.get(case, (2, 2))])
        signs = np.array([(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)]).T
        for (L, M), trial in itertools.product(sizes, range(4)):
            rules = [random_coeffs(rng, int(rng.integers(1, 10)), adversarial=i % 2 == 1)
                     for i in range(6)]
            if case == "zero-slopes":
                turn = 0
                for i, coeffs in enumerate(rules):
                    m = len(coeffs.support)
                    sign = signs[:, (turn + np.arange(m)) % 9]
                    coeffs.mean[1:] = np.where(sign == 0.0, (-1.0) ** i * 0.0,
                                               np.abs(coeffs.mean[1:]) * sign)
                    turn += m
                slopes = np.concatenate([coeffs.mean[1:] for coeffs in rules], axis=1)
                patterns = {tuple(col) for col in (np.sign(slopes) + 0.0).T}
                assert len(patterns) == min(slopes.shape[1], 9)
            k = 0.0 if case == "k=0" else float(rng.choice([1.0, 50.0, 1e3]))
            kinks = envelope_kinks(list(range(6)), rules, k, L, M)
            assert kinks.offset.shape[:2] == (6, (L + 1) * (M + 1))
            v = -rng.random((6, kinks.support.shape[1])) * 10.0 ** rng.integers(0, 4)
            v += kinks.pad
            got = envelope_level_values(kinks, v)
            for i, coeffs in enumerate(rules):
                assert_record_is_the_oracles(kinks, i, coeffs, k, L, M)
                m = len(coeffs.support)
                want = envelope_level_values_one_state(
                    envelope_kinks_one_state(coeffs, k, L, M), v[i, :m])
                assert (np.abs(got[i] - want) <= 1e-12 * (1.0 + np.abs(want))).all(), (trial, i)
                if k == 0.0:
                    assert (kinks.step[i] == 0.0).all()

    def test_dp_solves_no_lp_and_builds_each_states_kinks_once(self, monkeypatch):
        # At the dp-mip-small size (56 simplex states, T=5): every state's
        # kinks built once, in one chunk of the stage batches, which back up
        # all 224 entries with no one-state backup and no LP or MIP solve,
        # and leave no record on the model.
        solves, builds, backups = [], [], []

        def counting(owner, name, record):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                record.append(args[0])
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner in (backup, lp_module):
            counting(owner, "solve_lp", solves)
            counting(owner, "solve_mip", solves)
        counting(plan, "envelope_kinks", builds)
        counting(model_module, "envelope_kinks", builds)
        counting(plan, "drmdp_backup_mccormick", backups)
        model = EpidemicModel(EpidemicParams(N=100, L=2, M=2, T=5), 5, AmbiguityConfig())
        table = backward_dp(model, PlannerConfig(backend="drmdp-mccormick"))
        states = sorted(idx for chunk in builds for idx in chunk)
        assert states == model.grid.in_S_indices().tolist() and len(states) == 56
        assert (len(solves), len(backups), len(table.values)) == (0, 0, 224)
        assert model._kinks == {}


@dataclass
class FullSpaceReport:
    value_restricted: float
    value_full: float
    gap: float
    agree: bool
    note: str = ""


def full_space_check(grid, actions, kernels, rewards, action, v_full, cfg, lam,
                     tol=1e-6):
    """Support-restriction oracle: the inner LP over the fitted support against
    the same LP over every grid corner.

    Off-support successors carry zero mean bounds in the full LP, not
    -/+ delta. With k = 0 the two need not agree (each reduces to the minimum
    value over its own support); the report flags any difference instead of
    hiding it.
    """
    restricted = fit_rules(rule_design(list(actions)), list(kernels), list(rewards),
                           cfg)
    val_r = inner_lp_value(restricted, action, v_full, lam, cfg.k)

    eta_L, eta_U = np.zeros(grid.n_corners), np.zeros(grid.n_corners)
    lo, hi = mean_bounds(restricted, design_matrix([action]))
    eta_L[restricted.support] = lo[0]
    eta_U[restricted.support] = hi[0]
    res = solve_lp(inner_dual_program(eta_L, eta_U, lam * v_full, cfg.k))
    if res.status != "optimal":
        raise SolverError(f"inner LP unexpectedly {res.status}")
    val_f = float(design_matrix([action])[0] @ restricted.eps) + res.objective

    gap = abs(val_r - val_f)
    note = "k=0 reduces to per-support minima" if cfg.k == 0.0 else ""
    return FullSpaceReport(value_restricted=val_r, value_full=val_f,
                           gap=float(gap), agree=bool(gap <= tol), note=note)


class TestFullSpaceCheck:
    def build_toy(self):
        grid = Grid(GridSpec(2))
        params = EpidemicParams(N=4, mu=10.0, beta=0.025, alpha0=0.9, l_C=0.5,
                                l_D=1 / 3, Q=0.5, k_R=0.5, W=1.0, L=2, M=2,
                                lam=0.95, T=4)
        idx = grid.index_of(1, 1, 0)
        actions = params.actions()
        [kernels] = discretize_kernel(grid, params, [idx])
        rewards = [stage_rewards(params, grid.state_of(idx), a.y_V, a.y_R) for a in actions]
        return grid, params, actions, kernels, rewards
    def test_agreement_with_moderate_penalty(self):
        grid, params, actions, kernels, rewards = self.build_toy()
        rng = np.random.default_rng(3)
        v_full = -rng.random(grid.n_corners) * 5.0
        rep = full_space_check(grid, actions, kernels, rewards, Action(1, 1),
                               v_full, AmbiguityConfig(0.05, 1000.0), 0.95)
        assert rep.agree, (rep.value_restricted, rep.value_full)

    def test_k_zero_difference_is_flagged(self):
        grid, params, actions, kernels, rewards = self.build_toy()
        v_full = np.zeros(grid.n_corners)
        v_full[grid.index_of(2, 2, 2)] = -100.0  # far off-support corner
        rep = full_space_check(grid, actions, kernels, rewards, Action(0, 0),
                               v_full, AmbiguityConfig(0.05, 0.0), 0.95)
        assert rep.note != ""
        assert not rep.agree
