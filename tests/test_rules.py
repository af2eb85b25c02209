import numpy as np
import pytest

from epiplan import Action, DomainError, EpidemicParams, UnderdeterminedError
from epiplan.grid import RowBlock
from epiplan.model import EpidemicModel
from epiplan.rules import (
    AmbiguityConfig,
    DecisionRuleCoefficients,
    design_matrix,
    fit_rule_block,
    fit_rules,
    mean_bounds,
    _RIDGE,
    rule_design,
)
from oracles import fit_rules_per_state, sparse_row


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
        # Rows over different, overlapping supports: the union support, and
        # each coefficient as the sum over actions, in order, of the design's
        # solve times the zero-padded mass, equal the per-entry loop's bit
        # for bit.
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
        X = design_matrix(actions)
        hat = np.linalg.solve(X.T @ X + _RIDGE * np.eye(3), X.T)
        mean = np.zeros((3, len(support)))
        for a in range(len(actions)):
            mean += hat[:, a:a + 1] * P[a]
        np.testing.assert_array_equal(coeffs.support, support)
        assert coeffs.mean.tobytes() == mean.tobytes()


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


# (parameters, Y) of the toy, the benchmark workloads' and the default size.
BLOCK_SIZES = {
    "toy": (dict(N=6, L=1, M=1, T=3), 2),
    "dp-mip-small": (dict(N=100, L=2, M=2, T=5), 5),
    "compile-cache-dp": (dict(N=300, L=5, M=5, T=5), 8),
    "default": (dict(), 10),
}
# README contract (block hydration): the mean rules of the block fit are
# within this of the per-state dense fit; 4.2e-15 was the largest measured.
BLOCK_MEAN_TOL = 1e-14


class TestBlockFit:
    @pytest.mark.parametrize("size", list(BLOCK_SIZES))
    def test_block_fit_matches_the_per_state_fit(self, size):
        # Every state of a model, hydrated a block at a time, against the
        # dense per-state fit: the same support and reward rule to the bit,
        # and the mean rule within BLOCK_MEAN_TOL.
        kw, Y = BLOCK_SIZES[size]
        model = EpidemicModel(EpidemicParams(**kw), Y, AmbiguityConfig())
        model.compile_all()
        worst = 0.0
        for idx in model.grid.in_S_indices().tolist():
            got = model.rules(idx)
            want = fit_rules_per_state(model.design, model.rows(idx), model.rewards(idx),
                                       model.acfg.delta)
            assert got.support.tobytes() == want.support.tobytes(), idx
            assert got.eps.tobytes() == want.eps.tobytes(), idx
            worst = max(worst, float(np.abs(got.mean - want.mean).max()))
        assert worst <= BLOCK_MEAN_TOL

    def test_a_state_fits_the_same_in_any_block(self):
        # Rows of three states fitted together, in both orders, and each
        # alone: the same rules bit for bit.
        model = EpidemicModel(EpidemicParams(N=100, L=2, M=2, T=5), 5, AmbiguityConfig())
        states = model.grid.in_S_indices().tolist()[5:8]
        for idx in states:
            model.compile_state(idx)
        n = len(model.actions)
        for order in (states, states[::-1]):
            rows = RowBlock.join(model.rows(idx) for idx in order)
            rewards = np.stack([model.rewards(idx) for idx in order])
            fitted = fit_rule_block(model.design, rows, rewards, model.acfg.delta)
            assert len(fitted) == len(rows) // n == 3
            for idx, got in zip(order, fitted):
                want = model.rules(idx)
                for name in ("support", "mean", "eps"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_misaligned_block_rejected(self):
        model = EpidemicModel(EpidemicParams(N=30, L=1, M=1, T=3), 2, AmbiguityConfig())
        idx = int(model.grid.in_S_indices()[3])
        rows = model.rows(idx)
        with pytest.raises(DomainError, match="align"):
            fit_rule_block(model.design, rows[:-1], model.rewards(idx)[None], 0.05)
        with pytest.raises(DomainError, match="align"):
            fit_rule_block(model.design, rows, np.stack([model.rewards(idx)] * 2), 0.05)
