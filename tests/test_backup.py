import numpy as np
import pytest

from epiplan import Action
from epiplan.backup import (
    drmdp_backup_enumerate,
    drmdp_backup_mccormick,
    drmdp_backup_unary,
    full_space_check,
    inner_dual_lp,
    inner_primal_oracle,
    inner_value_parametric,
    ldr_nominal_backup,
    nominal_backup,
    robust_backup,
    worst_case_shift,
)
from epiplan.grid import GridSpec, SparseDistribution, build_grid
from epiplan.rules import AmbiguityConfig, DecisionRuleCoefficients, fit_rules


def make_coeffs(support, rho0, rho1, rho2, sigma0, sigma1, sigma2, eps):
    return DecisionRuleCoefficients(
        support=np.asarray(support, dtype=np.int64),
        rho=np.vstack([rho0, rho1, rho2]).astype(float),
        sigma=np.vstack([sigma0, sigma1, sigma2]).astype(float),
        eps=np.asarray(eps, dtype=float),
    )


def constant_coeffs(support, eta_L, eta_U, reward=0.0):
    """Rules with zero slopes: the same bounds for every action."""
    m = len(support)
    z = np.zeros(m)
    return make_coeffs(support, eta_U, z, z, eta_L, z, z, [reward, 0.0, 0.0])


def random_coeffs(rng, m, adversarial=False):
    base = rng.random(m)
    base /= base.sum()
    width = rng.random(m) * 0.1
    rho0, sigma0 = base + width, base - width
    rho1 = rng.normal(scale=0.05, size=m)
    rho2 = rng.normal(scale=0.05, size=m)
    sigma1, sigma2 = rho1.copy(), rho2.copy()
    if adversarial:
        # regression artifacts: crossed bounds, negative uppers, odd slopes
        rho0 = rng.normal(scale=0.6, size=m)
        sigma0 = rng.normal(scale=0.6, size=m)
        rho1, rho2 = rng.normal(scale=0.3, size=m), rng.normal(scale=0.3, size=m)
        sigma1, sigma2 = rng.normal(scale=0.3, size=m), rng.normal(scale=0.3, size=m)
    eps = np.array([-rng.random() * 50, -rng.random(), -rng.random()])
    return make_coeffs(np.arange(m), rho0, rho1, rho2, sigma0, sigma1, sigma2, eps)


def grid_actions(L, M):
    return [Action(v, r) for v in range(L + 1) for r in range(M + 1)]


class TestWorstCaseShift:
    def setup_method(self):
        self.grid = build_grid(GridSpec(1))
        self.low = self.grid.index_of(0, 0, 0)
        self.high = self.grid.index_of(0, 0, 1)

    def test_budget_zero_unchanged(self):
        row = SparseDistribution(np.array([self.low, self.high]), np.array([0.6, 0.4]))
        out = worst_case_shift(row, self.grid, 0.0)
        np.testing.assert_array_equal(out.probs, row.probs)

    def test_mass_already_at_top(self):
        row = SparseDistribution(np.array([self.high]), np.array([1.0]))
        out = worst_case_shift(row, self.grid, 0.5)
        assert out.as_dict() == {self.high: 1.0}

    def test_greedy_transfer(self):
        row = SparseDistribution(np.array([self.low, self.high]), np.array([0.6, 0.4]))
        out = worst_case_shift(row, self.grid, 0.5)
        got = out.as_dict()
        assert got[self.low] == pytest.approx(0.35, abs=1e-12)
        assert got[self.high] == pytest.approx(0.65, abs=1e-12)
        l1 = abs(0.6 - 0.35) + abs(0.65 - 0.4)
        assert l1 == pytest.approx(0.5, abs=1e-12)

    def test_budget_respected_and_simplex_kept(self):
        rng = np.random.default_rng(2)
        g = build_grid(GridSpec(3))
        for _ in range(40):
            size = int(rng.integers(1, 9))
            idx = rng.choice(g.n_corners, size=size, replace=False)
            pr = rng.random(size)
            pr /= pr.sum()
            row = SparseDistribution(idx, pr)
            budget = float(rng.random() * 2)
            out = worst_case_shift(row, g, budget)
            assert out.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(out.probs >= -1e-15)
            base = row.as_dict()
            l1 = sum(abs(out.as_dict().get(i, 0.0) - base.get(i, 0.0))
                     for i in set(base) | set(out.as_dict()))
            assert l1 <= budget + 1e-9


class TestLevelBackups:
    def test_nominal_matches_hand_enumeration(self):
        g = build_grid(GridSpec(1))
        i0, i1, i2 = 0, 1, 2
        actions = [Action(0, 0), Action(1, 0)]
        rows = [
            SparseDistribution(np.array([i0, i1]), np.array([0.5, 0.5])),
            SparseDistribution(np.array([i1, i2]), np.array([0.25, 0.75])),
        ]
        rewards = [-1.0, -3.0]
        v = {i0: 0.0, i1: -10.0, i2: -2.0}
        lam = 0.9
        val, act = nominal_backup(actions, rows, rewards, lambda j: v[j], lam)
        hand = [
            -1.0 + lam * (0.5 * 0.0 + 0.5 * -10.0),
            -3.0 + lam * (0.25 * -10.0 + 0.75 * -2.0),
        ]
        assert val == pytest.approx(max(hand), abs=1e-12)
        assert act == Action(0, 0)

    def test_ties_break_lexicographically(self):
        actions = [Action(1, 0), Action(0, 0)]
        row = SparseDistribution(np.array([0]), np.array([1.0]))
        val, act = nominal_backup(actions, [row, row], [-5.0, -5.0],
                                  lambda j: 0.0, 0.9)
        assert act == Action(0, 0)

    def test_robust_budget_zero_equals_nominal(self):
        g = build_grid(GridSpec(1))
        actions = [Action(0, 0)]
        rows = [SparseDistribution(np.array([0, 1]), np.array([0.7, 0.3]))]
        v = lambda j: -float(j)
        a = nominal_backup(actions, rows, [-1.0], v, 0.9)
        b = robust_backup(actions, rows, [-1.0], v, 0.9, g, budget=0.0)
        assert a == b

    def test_robust_no_better_when_values_fall_with_infectives(self):
        g = build_grid(GridSpec(2))
        actions = [Action(0, 0), Action(0, 1)]
        lo = g.index_of(1, 0, 0)
        hi = g.index_of(0, 0, 2)
        rows = [
            SparseDistribution(np.array([lo, hi]), np.array([0.8, 0.2])),
            SparseDistribution(np.array([lo, hi]), np.array([0.9, 0.1])),
        ]
        rewards = [-1.0, -2.0]
        v = {lo: -1.0, hi: -30.0}
        nom, _ = nominal_backup(actions, rows, rewards, lambda j: v[j], 0.95)
        rob, _ = robust_backup(actions, rows, rewards, lambda j: v[j], 0.95, g)
        assert rob <= nom + 1e-12


class TestInnerProblem:
    def test_singleton_support_pins_value(self):
        coeffs = constant_coeffs([4], np.array([1.0]), np.array([1.0]), reward=-2.0)
        for k in (0.5, 1000.0):
            q_val, sol = inner_dual_lp(coeffs, Action(0, 0), np.full(9, -7.0), 0.9, k)
            assert q_val == pytest.approx(-2.0 + 0.9 * -7.0, abs=1e-8)
            assert sol.w.shape == (1,)

    def test_two_successors_tight_band_and_free_nature(self):
        # eta pinned at (0.5, 0.5): worst mean is nominal when k is huge.
        support = [0, 1]
        coeffs = constant_coeffs(support, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        v = np.array([0.0, -10.0])
        lam = 0.95
        big, _ = inner_dual_lp(coeffs, Action(0, 0), v, lam, 1e6)
        assert big == pytest.approx(lam * -5.0, abs=1e-6)
        # k = 0 removes the penalty entirely: nature dives to the worst value.
        free, _ = inner_dual_lp(coeffs, Action(0, 0), v, lam, 0.0)
        assert free == pytest.approx(lam * -10.0, abs=1e-9)

    def test_parametric_matches_lp_on_random_instances(self):
        rng = np.random.default_rng(77)
        for trial in range(300):
            m = int(rng.integers(1, 12))
            coeffs = random_coeffs(rng, m, adversarial=(trial % 3 == 0))
            v = -rng.random(m) * 10 ** rng.integers(0, 4)
            k = float(rng.choice([0.0, 0.37, 1.0, 55.0, 1e3, 1e6]))
            a = Action(0, 0)
            lp_val, _ = inner_dual_lp(coeffs, a, v, 0.95, k, method="lp",
                                      _v_aligned=v)
            fast_val, _ = inner_dual_lp(coeffs, a, v, 0.95, k, method="parametric",
                                        _v_aligned=v)
            scale = 1.0 + abs(lp_val)
            assert abs(lp_val - fast_val) <= 1e-7 * scale, (trial, lp_val, fast_val)

    def test_parametric_solution_is_dual_feasible(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            eta_U = rng.normal(scale=0.5, size=m)
            eta_L = eta_U - np.abs(rng.normal(scale=0.2, size=m))
            v = -rng.random(m) * 20
            k = float(rng.choice([0.5, 10.0, 1e3]))
            val, q, w, u = inner_value_parametric(eta_L, eta_U, v, k)
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
            dual_val, _ = inner_dual_lp(coeffs, a, v, 0.95, k, _v_aligned=v)
            primal_val = inner_primal_oracle(coeffs, a, v, 0.95, k, _v_aligned=v)
            scale = 1.0 + abs(dual_val)
            assert abs(dual_val - primal_val) <= 1e-6 * scale, trial

    def test_monotone_in_k(self):
        rng = np.random.default_rng(41)
        coeffs = random_coeffs(rng, 6)
        v = -rng.random(6) * 40
        vals = []
        for k in (0.0, 1.0, 10.0, 1e3, 1e6):
            val, _ = inner_dual_lp(coeffs, Action(0, 0), v, 0.95, k, _v_aligned=v)
            vals.append(val)
        assert all(a <= b + 1e-8 for a, b in zip(vals, vals[1:]))

    def test_mean_reported_in_simplex(self):
        rng = np.random.default_rng(13)
        coeffs = random_coeffs(rng, 5)
        v = -rng.random(5) * 10
        _, sol = inner_dual_lp(coeffs, Action(0, 0), v, 0.95, 100.0,
                               want_mean=True, _v_aligned=v)
        assert sol.m is not None
        assert sol.m.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(sol.m >= -1e-9)
        assert np.all(sol.x >= -1e-9)


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
            kernels.append(SparseDistribution(support, row))
        # rows are affine only pre-normalization; refit targets from the rows
        rewards = [-(5.0 + 2.0 * a.y_V + 3.0 * a.y_R) for a in actions]
        coeffs = fit_rules(actions, kernels, rewards, AmbiguityConfig(delta, 1.0))
        return actions, coeffs

    def test_single_action_space_all_equal(self):
        rng = np.random.default_rng(1)
        actions = [Action(0, 0)]
        coeffs = random_coeffs(rng, 4)
        v = -rng.random(4) * 10
        lam, k = 0.95, 100.0
        e, _ = drmdp_backup_enumerate(coeffs, actions, v, lam, k)
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
            e, _ = drmdp_backup_enumerate(coeffs, actions, v, lam, k)
            un, _ = drmdp_backup_unary(coeffs, v, lam, k, L=L, M=M)
            mc, _ = drmdp_backup_mccormick(coeffs, v, lam, k, L=L, M=M)
            scale = 1.0 + abs(e)
            assert abs(un - e) <= 1e-6 * scale, trial
            assert mc >= un - 1e-6 * scale, trial
            assert mc >= e - 1e-6 * scale, trial

    def test_k_zero_collapses_to_support_minimum(self):
        rng = np.random.default_rng(7)
        m, L, M = 5, 2, 2
        coeffs = random_coeffs(rng, m)
        v = -rng.random(m) * 10
        lam = 0.9
        actions = grid_actions(L, M)
        e, _ = drmdp_backup_enumerate(coeffs, actions, v, lam, 0.0)
        expected = max(
            coeffs.eps[0] + coeffs.eps[1] * a.y_V + coeffs.eps[2] * a.y_R
            for a in actions
        ) + lam * v.min()
        assert e == pytest.approx(expected, abs=1e-8)
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
            e, _ = drmdp_backup_enumerate(coeffs, actions, v, lam, k)
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
            e, _ = drmdp_backup_enumerate(coeffs, actions, v, lam, k)
            assert e <= nominal_val + 1e-6 * (1.0 + abs(nominal_val)), trial

    def test_enumerate_parametric_method_agrees(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            coeffs = random_coeffs(rng, m)
            v = -rng.random(m) * 20
            actions = grid_actions(2, 2)
            a = drmdp_backup_enumerate(coeffs, actions, v, 0.95, 37.0, method="lp")
            b = drmdp_backup_enumerate(coeffs, actions, v, 0.95, 37.0,
                                       method="parametric")
            assert a[0] == pytest.approx(b[0], rel=1e-9, abs=1e-9)
            assert a[1] == b[1]


class TestFullSpaceCheck:
    def build_toy(self):
        grid = build_grid(GridSpec(2))
        from epiplan import EpidemicParams
        from epiplan.grid import discrete_reward, discretize_kernel

        params = EpidemicParams(N=4, mu=10.0, beta=0.025, alpha0=0.9, l_C=0.5,
                                l_D=1 / 3, Q=0.5, k_R=0.5, W=1.0, L=2, M=2,
                                lam=0.95, T=4)
        idx = grid.index_of(1, 1, 0)
        actions = params.actions()
        kernels = discretize_kernel(grid, params, idx)
        rewards = [discrete_reward(grid, params, idx, a) for a in actions]
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
