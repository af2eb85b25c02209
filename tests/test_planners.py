import re

import numpy as np
import pytest

from epiplan import Action, CacheError, DomainError, EpidemicParams
from epiplan.model import EpidemicModel, lattice_state_index
from epiplan.plan import (
    PlannerConfig,
    ValueTable,
    admissible_heuristic,
    backup_state,
    backward_dp,
    greedy_action,
    rtdp,
    table_rows,
)
from epiplan.rules import AmbiguityConfig, reward_rule


def toy_model(N=4, Y=2, T=3, L=1, M=1, delta=0.02, k=1000.0, **kw):
    base = dict(N=N, mu=10.0, beta=0.025, alpha0=0.9, l_C=0.5, l_D=1 / 3,
                Q=0.5, k_R=0.5, W=2.0, L=L, M=M, lam=0.95, T=T)
    base.update(kw)
    params = EpidemicParams(**base)
    return EpidemicModel(params, Y, AmbiguityConfig(delta=delta, k=k))


class TestHeuristic:
    def test_zero_at_horizon(self):
        model = toy_model()
        idx = model.grid.index_of(1, 1, 0)
        assert admissible_heuristic(model, idx, model.T) == 0.0

    def test_disease_free_is_free(self):
        model = toy_model()
        idx = model.grid.index_of(2, 0, 0)
        assert admissible_heuristic(model, idx, 1) == pytest.approx(0.0, abs=1e-8)

    def test_matches_best_fitted_reward(self):
        model = toy_model(L=2, M=2)
        idx = model.grid.index_of(1, 1, 0)
        coeffs = model.rules(idx)
        expect = max(reward_rule(coeffs, a) for a in model.actions)
        assert admissible_heuristic(model, idx, 1) == pytest.approx(expect, abs=1e-9)

    def test_cheap_path_matches_fitted_path(self):
        a = toy_model(L=2, M=2)
        b = toy_model(L=2, M=2)
        idx = a.grid.index_of(1, 0, 1)
        cheap = a.stage_heuristic(idx)          # no kernels compiled
        b.compile_state(idx)
        fitted = b.stage_heuristic(idx)
        assert cheap == pytest.approx(fitted, abs=1e-10)

    def test_off_simplex_zero(self):
        model = toy_model()
        idx = model.grid.index_of(2, 2, 2)
        assert admissible_heuristic(model, idx, 1) == 0.0


class TestRtdp:
    def test_two_stage_horizon_exact(self):
        model = toy_model(T=2)
        init = model.grid.index_of(1, 1, 0)
        cfg = PlannerConfig(backend="nominal", niter=1, seed=0)
        table, trace = rtdp(model, init, cfg)
        expect = float(model.rewards(init).max())
        assert table.get(init, 1) == pytest.approx(expect, abs=1e-12)
        assert len(trace) == 1

    def test_values_nonincreasing_per_state(self):
        # Stage-reward initialization overestimates with nonpositive rewards,
        # so repeated sweeps can only lower a state's value.
        model = toy_model(N=8, Y=2, T=4)
        init = model.grid.index_of(1, 1, 0)
        cfg = PlannerConfig(backend="nominal", niter=40, seed=3, early_stop=False)
        _, trace = rtdp(model, init, cfg)
        last: dict[tuple[int, int], float] = {}
        for step in trace.steps:
            key = (step.state, step.stage)
            if key in last:
                assert step.value <= last[key] + 1e-9
            h = admissible_heuristic(model, step.state, step.stage)
            assert step.value <= h + 1e-9
            last[key] = step.value

    def test_rtdp_never_below_dp(self):
        model = toy_model(N=8, Y=2, T=4)
        init = model.grid.index_of(1, 1, 0)
        cfg = PlannerConfig(backend="nominal", niter=60, seed=1, early_stop=False)
        table, _ = rtdp(model, init, cfg)
        dp = backward_dp(model, cfg)
        for (idx, t), val in table.values.items():
            assert val >= dp.get(idx, t) - 1e-6

    def test_converges_to_dp_root(self):
        model = toy_model(N=8, Y=2, T=4)
        init = model.grid.index_of(1, 1, 0)
        cfg = PlannerConfig(backend="nominal", niter=400, seed=0)
        table, _ = rtdp(model, init, cfg)
        dp = backward_dp(model, cfg)
        assert table.get(init, 1) == pytest.approx(dp.get(init, 1), abs=1e-6)

    def test_deterministic_under_seed(self):
        model_a = toy_model(N=8, T=4)
        model_b = toy_model(N=8, T=4)
        init = model_a.grid.index_of(1, 1, 0)
        cfg = PlannerConfig(backend="nominal", niter=25, seed=11)
        ta, tra = rtdp(model_a, init, cfg)
        tb, trb = rtdp(model_b, init, cfg)
        assert ta.values == tb.values
        assert [(s.state, s.stage) for s in tra.steps] == \
               [(s.state, s.stage) for s in trb.steps]

    def test_rejects_absorbing_init(self):
        model = toy_model()
        with pytest.raises(DomainError):
            rtdp(model, model.grid.index_of(2, 2, 2), PlannerConfig(niter=1))


class TestBackwardDp:
    def test_two_stage_values_are_best_rewards(self):
        model = toy_model(T=2)
        cfg = PlannerConfig(backend="nominal")
        dp = backward_dp(model, cfg)
        for idx in model.grid.in_S_indices():
            expect = float(model.rewards(int(idx)).max())
            assert dp.get(int(idx), 1) == pytest.approx(expect, abs=1e-12)

    def test_absorbing_states_zero_everywhere(self):
        model = toy_model(T=4)
        dp = backward_dp(model, PlannerConfig(backend="nominal"))
        off = np.nonzero(~model.grid.in_S)[0]
        for t in range(1, model.T):
            for idx in off[:5]:
                assert dp.get(int(idx), t) == 0.0

    def test_matches_recursive_enumeration(self):
        # Oracle: plain memoized expectimax over the sparse successor tree.
        model = toy_model(N=4, Y=2, T=4, L=1, M=1)
        cfg = PlannerConfig(backend="nominal")
        dp = backward_dp(model, cfg)

        from functools import lru_cache

        @lru_cache(maxsize=None)
        def value(idx: int, t: int) -> float:
            if t >= model.T or not model.grid.in_S[idx]:
                return 0.0
            best = -np.inf
            for a, row, r in zip(model.actions, model.rows(idx),
                                 model.rewards(idx)):
                ev = sum(p * value(int(s), t + 1)
                         for s, p in zip(row.indices, row.probs))
                best = max(best, r + model.lam * ev)
            return best

        for idx in model.grid.in_S_indices():
            for t in (1, 2, 3):
                assert dp.get(int(idx), t) == pytest.approx(
                    value(int(idx), t), abs=1e-9), (idx, t)

    def test_rtdp_matches_dp_for_every_backend(self):
        # The agreement guarantee requires a nonempty fitted ambiguity set at
        # every state (zero penalty slack); the instance is chosen to satisfy
        # that and the test asserts it first.
        init_lattice = (1, 1, 0)
        probe = toy_model(N=4, Y=2, T=3, L=1, M=1, delta=0.05)
        for idx in probe.grid.in_S_indices():
            assert probe.penalty_slack(int(idx)) == pytest.approx(0.0, abs=1e-9)
        for backend in ("nominal", "robust", "drmdp-enumerate",
                        "drmdp-mccormick", "drmdp-unary"):
            model = toy_model(N=4, Y=2, T=3, L=1, M=1, delta=0.05)
            init = model.grid.index_of(*init_lattice)
            cfg = PlannerConfig(backend=backend, niter=200, seed=0)
            table, _ = rtdp(model, init, cfg)
            dp = backward_dp(model, cfg)
            assert table.get(init, 1) == pytest.approx(
                dp.get(init, 1), abs=1e-6), backend

    def test_empty_ambiguity_set_breaks_heuristic_bound(self):
        # When an affine fit oversubscribes the simplex, the penalized inner
        # problem turns the forced violation into positive value; the
        # stage-reward bound then undercuts the fixed point and trajectory
        # planning can settle below full backward induction.  This documents
        # the mechanism rather than hiding it.
        model = toy_model(N=4, Y=2, T=3, L=1, M=1, delta=0.02)
        slack = max(model.penalty_slack(int(i))
                    for i in model.grid.in_S_indices())
        assert slack > 1.0
        init = model.grid.index_of(1, 1, 0)
        cfg = PlannerConfig(backend="drmdp-enumerate", niter=200, seed=0)
        table, _ = rtdp(model, init, cfg)
        dp = backward_dp(model, cfg)
        assert table.get(init, 1) < dp.get(init, 1) - 1e-3


class TestTableHelpers:
    def test_lookup_fallbacks(self):
        model = toy_model()
        table = ValueTable(model.T)
        idx = model.grid.index_of(1, 1, 0)
        assert table.lookup(model, idx, model.T) == 0.0
        assert table.lookup(model, idx, 1) == pytest.approx(
            admissible_heuristic(model, idx, 1))
        table.set(idx, 1, -4.5)
        assert table.lookup(model, idx, 1) == -4.5
        off = model.grid.index_of(2, 2, 2)
        assert table.lookup(model, off, 1) == 0.0

    def test_greedy_action_consistent_with_backup(self):
        model = toy_model(N=8, T=3)
        idx = model.grid.index_of(1, 1, 0)
        cfg = PlannerConfig(backend="nominal")
        table = backward_dp(model, cfg)
        act, val = greedy_action(model, table, idx, 1, cfg)
        expect_val, expect_act = backup_state(model, idx, 1,
                                              table.lookup_fn(model, 2), cfg)
        assert act == expect_act
        assert val == pytest.approx(expect_val)

    def test_table_rows_schema(self):
        model = toy_model(T=2)
        cfg = PlannerConfig(backend="nominal")
        dp = backward_dp(model, cfg)
        rows = table_rows(model, dp, cfg)
        assert rows
        assert set(rows[0]) == {"stage", "state", "p_S", "p_E", "p_I",
                                "value", "y_V", "y_R"}


class TestModelBundle:
    def test_cache_roundtrip(self, tmp_path):
        model = toy_model(N=4, T=3)
        idx = model.grid.index_of(1, 1, 0)
        model.compile_state(idx)
        files = model.save_cache(str(tmp_path))
        assert len(files) == 2

        fresh = toy_model(N=4, T=3)
        assert fresh.load_cache(str(tmp_path))
        for a_row, b_row in zip(model.rows(idx), fresh.rows(idx)):
            np.testing.assert_array_equal(a_row.indices, b_row.indices)
            np.testing.assert_allclose(a_row.probs, b_row.probs, atol=1e-15)
        np.testing.assert_allclose(model.rules(idx).rho, fresh.rules(idx).rho,
                                   atol=1e-12)

    def test_load_cache_misses_on_other_config(self, tmp_path):
        model = toy_model(N=4, T=3)
        model.compile_state(model.grid.index_of(1, 1, 0))
        model.save_cache(str(tmp_path))
        other = toy_model(N=8, T=3)
        assert not other.load_cache(str(tmp_path))

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda lines: lines[:-1], id="row-cut-short"),
        pytest.param(lambda lines: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]],
                     id="line-cut"),
        pytest.param(lambda lines: lines[:-1] + ["0,0,0,999,1.0"],
                     id="successor-off-grid"),
        pytest.param(lambda lines: lines + ["0,9,9,0,1.0"], id="unknown-action"),
        pytest.param(lambda lines: [], id="emptied"),
    ])
    def test_corrupt_cache_raises(self, tmp_path, corrupt):
        model = toy_model(N=4, T=3)
        model.compile_state(model.grid.index_of(1, 1, 0))
        kpath = model.save_cache(str(tmp_path))[0]
        with open(kpath) as fh:
            lines = fh.read().splitlines()
        with open(kpath, "w") as fh:
            fh.write("".join(line + "\n" for line in corrupt(lines)))
        with pytest.raises(CacheError, match=re.escape(kpath)):
            toy_model(N=4, T=3).load_cache(str(tmp_path))

    def test_parallel_compile_matches_serial(self):
        serial = toy_model(N=6, Y=2, T=3)
        parallel = toy_model(N=6, Y=2, T=3)
        idxs = [int(i) for i in serial.grid.in_S_indices()]
        serial.compile_states(idxs, workers=1)
        parallel.compile_states(idxs, workers=2)
        for i in idxs:
            for ra, rb in zip(serial.rows(i), parallel.rows(i)):
                np.testing.assert_array_equal(ra.indices, rb.indices)
                np.testing.assert_allclose(ra.probs, rb.probs, atol=0)

    def test_lattice_state_index(self):
        model = toy_model(Y=10)
        idx = lattice_state_index(model, 0.7, 0.1, 0.2)
        assert model.grid.corner(idx).coords == (0.7, 0.1, 0.2)
        with pytest.raises(DomainError):
            lattice_state_index(model, 0.65, 0.1, 0.2)
