import numpy as np
import pytest

from epiplan import Action, DomainError, UnderdeterminedError
from epiplan.rules import (
    AmbiguityConfig,
    DecisionRuleCoefficients,
    design_matrix,
    fit_affine,
    fit_rules,
    mean_bounds,
    rule_design,
)
from oracles import sparse_row


def grid_actions(L=2, M=2):
    return [Action(v, r) for v in range(L + 1) for r in range(M + 1)]


def affine_instance(actions, support, c0, c1, c2, delta=0.0):
    """Kernels whose rows are exactly affine in (y_V, y_R) over the support."""
    kernels = []
    for a in actions:
        probs = c0 + c1 * a.y_V + c2 * a.y_R
        kernels.append(sparse_row(support, probs))
    return kernels


class TestFitRules:
    def test_exact_affine_recovery(self):
        actions = grid_actions()
        support = np.array([3, 7, 9])
        c0 = np.array([0.5, 0.3, 0.2])
        c1 = np.array([0.02, -0.01, -0.01])
        c2 = np.array([-0.04, 0.01, 0.03])
        kernels = affine_instance(actions, support, c0, c1, c2)
        rewards = [-(1.0 + 2.0 * a.y_V + 3.0 * a.y_R) for a in actions]
        cfg = AmbiguityConfig(delta=0.0, k=10.0)
        coeffs = fit_rules(rule_design(actions), kernels, rewards, cfg)
        np.testing.assert_allclose(coeffs.mean[0], c0, atol=1e-8)
        np.testing.assert_allclose(coeffs.mean[1], c1, atol=1e-8)
        np.testing.assert_allclose(coeffs.mean[2], c2, atol=1e-8)
        assert coeffs.delta == 0.0
        np.testing.assert_allclose(coeffs.eps, [-1.0, -2.0, -3.0], atol=1e-8)

    def test_constant_targets_zero_slopes(self):
        actions = grid_actions()
        support = np.array([0, 5])
        kernels = [sparse_row(support, np.array([0.4, 0.6])) for _ in actions]
        rewards = [-7.0] * len(actions)
        coeffs = fit_rules(rule_design(actions), kernels, rewards,
                           AmbiguityConfig(0.05, 1.0))
        np.testing.assert_allclose(coeffs.mean[1:], 0.0, atol=1e-8)
        assert coeffs.delta == 0.05
        np.testing.assert_allclose(coeffs.eps[1:], 0.0, atol=1e-8)
        assert coeffs.eps[0] == pytest.approx(-7.0, abs=1e-8)

    def test_residuals_orthogonal_to_design(self):
        # Normal-equations oracle: X'(y - X b) = 0 for every target column.
        rng = np.random.default_rng(21)
        actions = grid_actions(3, 3)
        support = np.arange(5)
        X = np.array([[1.0, a.y_V, a.y_R] for a in actions])
        kernels = []
        raw = rng.random((len(actions), 5))
        raw /= raw.sum(axis=1, keepdims=True)
        for row in raw:
            kernels.append(sparse_row(support, row))
        rewards = list(-rng.random(len(actions)) * 100)
        coeffs = fit_rules(rule_design(actions), kernels, rewards,
                           AmbiguityConfig(0.02, 1.0))
        resid = raw - X @ coeffs.mean
        np.testing.assert_allclose(X.T @ resid, 0.0, atol=1e-7)
        resid_r = np.asarray(rewards) - X @ coeffs.eps
        np.testing.assert_allclose(X.T @ resid_r, 0.0, atol=1e-7)

    def test_underdetermined_rejected(self):
        with pytest.raises(UnderdeterminedError):
            rule_design([Action(0, 0), Action(1, 0)])
        with pytest.raises(UnderdeterminedError):
            rule_design([Action(0, 0), Action(1, 0), Action(1, 0)])

    def test_collinear_actions_rejected(self):
        # Three distinct actions on one line cannot identify both slopes.
        actions = [Action(0, 0), Action(1, 1), Action(2, 2)]
        with pytest.raises(UnderdeterminedError):
            rule_design(actions)

    def test_order_independent(self):
        rng = np.random.default_rng(4)
        actions = grid_actions()
        support = np.arange(4)
        raw = rng.random((len(actions), 4))
        raw /= raw.sum(axis=1, keepdims=True)
        kernels = [sparse_row(support, r) for r in raw]
        rewards = list(-rng.random(len(actions)))
        cfg = AmbiguityConfig(0.01, 1.0)
        a = fit_rules(rule_design(actions), kernels, rewards, cfg)
        perm = rng.permutation(len(actions))
        b = fit_rules(rule_design([actions[i] for i in perm]),
                      [kernels[i] for i in perm], [rewards[i] for i in perm], cfg)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-10)
        np.testing.assert_allclose(a.eps, b.eps, atol=1e-10)


    def test_union_support_matches_entry_loop(self):
        # Rows over different, overlapping supports: the union support and the
        # zero-padded mean fit equal the per-entry loop's bit for bit.
        rng = np.random.default_rng(8)
        actions = grid_actions()
        kernels = []
        for _ in actions:
            idx = rng.choice(40, size=int(rng.integers(1, 8)), replace=False)
            kernels.append(sparse_row(idx, rng.random(len(idx)), normalize=True))
        coeffs = fit_rules(rule_design(actions), kernels, [0.0] * len(actions),
                           AmbiguityConfig(0.0, 1.0))
        support = sorted({int(s) for row in kernels for s in row.indices})
        pos = {s: j for j, s in enumerate(support)}
        P = np.zeros((len(actions), len(support)))
        for i, row in enumerate(kernels):
            for s, pr in zip(row.indices, row.probs):
                P[i, pos[int(s)]] = pr
        np.testing.assert_array_equal(coeffs.support, support)
        np.testing.assert_array_equal(coeffs.mean, fit_affine(design_matrix(actions), P))


class TestEtaBounds:
    def test_delta_zero_exact_fit_reproduces_rows(self):
        actions = grid_actions()
        support = np.array([1, 2])
        c0 = np.array([0.7, 0.3])
        c1 = np.array([0.05, -0.05])
        c2 = np.array([-0.02, 0.02])
        kernels = affine_instance(actions, support, c0, c1, c2)
        coeffs = fit_rules(rule_design(actions), kernels, [0.0] * len(actions),
                           AmbiguityConfig(0.0, 1.0))
        eta_L, eta_U = mean_bounds(coeffs, design_matrix(actions))
        rows = np.array([row.probs for row in kernels])
        np.testing.assert_allclose(eta_L, rows, atol=1e-8)
        np.testing.assert_allclose(eta_U, rows, atol=1e-8)

    def test_band_width_is_two_delta(self):
        actions = grid_actions()
        support = np.array([1, 2])
        kernels = affine_instance(actions, support, np.array([0.6, 0.4]),
                                  np.array([0.01, -0.01]), np.array([0.0, 0.0]))
        coeffs = fit_rules(rule_design(actions), kernels, [0.0] * len(actions),
                           AmbiguityConfig(0.1, 1.0))
        eta_L, eta_U = mean_bounds(coeffs, design_matrix(actions))
        assert eta_U.shape == (len(actions), 2)
        np.testing.assert_allclose(eta_U - eta_L, 0.2, atol=1e-12)
        np.testing.assert_allclose(0.5 * (eta_L + eta_U),
                                   [r.probs for r in kernels], atol=1e-8)

    def test_general_affine_evaluation(self):
        mean = np.array([[0.5, 0.1], [0.02, 0.0], [-0.01, 0.03]])
        coeffs = DecisionRuleCoefficients(
            support=np.array([0, 1]), mean=mean, delta=0.04, eps=np.zeros(3))
        actions = [Action(2, 3), Action(0, 1)]
        eta_L, eta_U = mean_bounds(coeffs, design_matrix(actions))
        for i, a in enumerate(actions):
            center = mean[0] + a.y_V * mean[1] + a.y_R * mean[2]
            np.testing.assert_allclose(eta_U[i], center + 0.04, atol=1e-12)
            np.testing.assert_allclose(eta_L[i], center - 0.04, atol=1e-12)

    @pytest.mark.parametrize("delta", [-0.01, np.inf, np.nan])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(DomainError):
            DecisionRuleCoefficients(support=np.array([0]), mean=np.ones((3, 1)),
                                     delta=delta, eps=np.zeros(3))


class TestRewardRule:
    def test_exact_affine_rewards(self):
        actions = grid_actions()
        support = np.array([0])
        kernels = [sparse_row(support, np.array([1.0]))] * len(actions)
        rewards = [-(10.0 + 4.0 * a.y_V + 6.0 * a.y_R) for a in actions]
        coeffs = fit_rules(rule_design(actions), kernels, rewards,
                           AmbiguityConfig(0.0, 1.0))
        np.testing.assert_allclose(design_matrix(actions) @ coeffs.eps, rewards,
                                   rtol=0, atol=1e-8)

    def test_prediction_matches_manual_ols(self):
        rng = np.random.default_rng(8)
        actions = grid_actions()
        X = np.array([[1.0, a.y_V, a.y_R] for a in actions])
        y = -rng.random(len(actions)) * 50
        support = np.array([0])
        kernels = [sparse_row(support, np.array([1.0]))] * len(actions)
        coeffs = fit_rules(rule_design(actions), kernels, list(y),
                           AmbiguityConfig(0.0, 1.0))
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        np.testing.assert_allclose(X @ coeffs.eps, X @ beta, rtol=0, atol=1e-6)


class TestAmbiguityConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            AmbiguityConfig(delta=-0.1)
        with pytest.raises(DomainError):
            AmbiguityConfig(k=-1.0)

    @pytest.mark.parametrize("field", ["delta", "k"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            AmbiguityConfig(**{field: value})
