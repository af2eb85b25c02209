import concurrent.futures
import functools
import os
import re

import numpy as np
import pytest

from epiplan import CacheError, DomainError, EpidemicParams
from epiplan import model as model_module
from epiplan import plan
from epiplan.backup import (
    ENVELOPE_NODES,
    drmdp_backup_enumerate,
    drmdp_backup_enumerate_batch,
    drmdp_backup_mccormick,
    drmdp_backup_mccormick_batch,
    enumerate_batch,
    envelope_kinks,
    envelope_level_values,
    envelope_nodes,
    row_backup_batch,
    worst_case_shift,
)
from epiplan.model import EpidemicModel, lattice_state_index
from epiplan.plan import (
    BACKENDS,
    PlannerConfig,
    ValueTable,
    backup_state,
    backward_dp,
    greedy_action,
    rtdp,
    table_rows,
)
from epiplan.rules import AmbiguityConfig, design_matrix
from epiplan.seir import Action
from oracles import (
    assert_record_is_the_oracles,
    drmdp_backup_enumerate_batch_unrecorded,
    drmdp_backup_enumerate_unrecorded,
    drmdp_backup_mccormick_one_state,
    envelope_kinks_one_state,
    envelope_level_values_one_state,
    inner_value_parametric_one_state,
    per_row_backup_state,
    per_state_dp,
)


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
        table = ValueTable(model)
        assert table.lookup(model, idx, model.T) == 0.0
        assert not table.lookup_fn(model, model.T).any()

    def test_disease_free_is_free(self):
        model = toy_model()
        idx = model.grid.index_of(2, 0, 0)
        assert model.stage_bound[idx] == 0.0

    @pytest.mark.parametrize("model", [
        pytest.param(toy_model(L=2, M=2), id="toy"),
        pytest.param(EpidemicModel(EpidemicParams(N=100, L=2, M=2, T=5), 5,
                                   AmbiguityConfig()), id="dp-mip-small"),
    ])
    def test_equals_best_reward_bit_for_bit(self, model):
        bound = model.stage_bound
        assert model._rows == {}                 # the bound compiles nothing
        assert bound is model.stage_bound and not bound.flags.writeable
        for idx in model.grid.in_S_indices().tolist():
            assert bound[idx] == model.rewards(idx).max(), idx

    def test_matches_best_fitted_reward(self):
        # The fitted reward is affine in the levels, as the reward is, so its
        # best value agrees with the exact bound up to the fit's rounding.
        model = toy_model(L=2, M=2)
        idx = model.grid.index_of(1, 1, 0)
        coeffs = model.rules(idx)
        expect = (design_matrix(model.actions) @ coeffs.eps).max()
        assert model.stage_bound[idx] == pytest.approx(expect, abs=1e-9)

    def test_off_simplex_zero(self):
        model = toy_model()
        off = ~model.grid.in_S
        assert off.any() and not model.stage_bound[off].any()
        assert model._rows == {}


class TestRtdp:
    def test_two_stage_horizon_exact(self):
        model = toy_model(T=2)
        init = model.grid.index_of(1, 1, 0)
        cfg = PlannerConfig(backend="nominal", niter=1, seed=0)
        table, trace = rtdp(model, init, cfg)
        expect = float(model.rewards(init).max())
        assert table.values[(init, 1)] == pytest.approx(expect, abs=1e-12)
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
            h = model.stage_bound[step.state]
            assert step.value <= h + 1e-9
            last[key] = step.value

    def test_rtdp_never_below_dp(self):
        model = toy_model(N=8, Y=2, T=4)
        init = model.grid.index_of(1, 1, 0)
        cfg = PlannerConfig(backend="nominal", niter=60, seed=1, early_stop=False)
        table, _ = rtdp(model, init, cfg)
        dp = backward_dp(model, cfg)
        for (idx, t), val in table.values.items():
            assert val >= dp.values[(idx, t)] - 1e-6

    def test_converges_to_dp_root(self):
        model = toy_model(N=8, Y=2, T=4)
        init = model.grid.index_of(1, 1, 0)
        cfg = PlannerConfig(backend="nominal", niter=400, seed=0)
        table, _ = rtdp(model, init, cfg)
        dp = backward_dp(model, cfg)
        assert table.values[(init, 1)] == pytest.approx(dp.values[(init, 1)], abs=1e-6)

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
            assert dp.values[(int(idx), 1)] == pytest.approx(expect, abs=1e-12)

    def test_absorbing_states_zero_everywhere(self):
        # Only simplex entries are stored; an absorbing state reads zero
        # through lookup at every stage.
        model = toy_model(T=4)
        dp = backward_dp(model, PlannerConfig(backend="nominal"))
        in_s = [int(i) for i in model.grid.in_S_indices()]
        assert set(dp.values) == {(i, t) for i in in_s for t in range(1, model.T)}
        off = np.nonzero(~model.grid.in_S)[0]
        for t in range(1, model.T + 1):
            for idx in off:
                assert dp.lookup(model, int(idx), t) == 0.0

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
                assert dp.values[(int(idx), t)] == pytest.approx(
                    value(int(idx), t), abs=1e-9), (idx, t)

    def test_cold_model_is_pushed_in_one_call(self, monkeypatch):
        # A cold backward_dp compiles every simplex state before its first
        # stage, in one push call, not one per state at its first backup;
        # an RTDP run had compiled some states first, and only the rest are
        # pushed.  The states go in (p_E, p_I) order, so that those sharing
        # a (C, D) law sit together.
        calls = []
        push = model_module.discretize_kernel

        def counting_push(grid, params, corners):
            calls.append(list(corners))
            return push(grid, params, corners)

        monkeypatch.setattr(model_module, "discretize_kernel", counting_push)
        model = toy_model(N=6, Y=2, T=3)
        in_s = sorted(model.grid.in_S_indices().tolist(),
                      key=lambda i: model.grid.lattice[i, 1:].tolist())
        backward_dp(model, PlannerConfig(backend="nominal"))
        assert calls == [in_s]
        calls.clear()
        warm = toy_model(N=6, Y=2, T=3)
        rtdp(warm, warm.grid.index_of(1, 0, 1), PlannerConfig(backend="nominal", niter=3))
        assert calls and all(len(c) == 1 for c in calls)
        lazy = [c[0] for c in calls]
        backward_dp(warm, PlannerConfig(backend="nominal"))
        assert calls[len(lazy):] == [[i for i in in_s if i not in lazy]]

    def test_rtdp_matches_dp_for_every_backend(self):
        # The agreement guarantee requires a nonempty fitted ambiguity set at
        # every state (zero penalty slack); the instance is chosen to satisfy
        # that and the test asserts it first.
        init_lattice = (1, 1, 0)
        probe = toy_model(N=4, Y=2, T=3, L=1, M=1, delta=0.05)
        for idx in probe.grid.in_S_indices():
            assert probe.penalty_slack(int(idx)) == pytest.approx(0.0, abs=1e-9)
        for backend in BACKENDS:
            model = toy_model(N=4, Y=2, T=3, L=1, M=1, delta=0.05)
            init = model.grid.index_of(*init_lattice)
            cfg = PlannerConfig(backend=backend, niter=200, seed=0)
            table, _ = rtdp(model, init, cfg)
            dp = backward_dp(model, cfg)
            assert table.values[(init, 1)] == pytest.approx(
                dp.values[(init, 1)], abs=1e-6), backend

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
        assert table.values[(init, 1)] < dp.values[(init, 1)] - 1e-3


@functools.cache
def sized_model(size):
    """A compiled model at the CLI tests' TOY size, a benchmark workload's
    size or the defaults (N=1000, Y=10, T=12); shared, as nothing the tests
    run changes it after compiling."""
    if size == "toy":
        model = toy_model(N=10, Y=2, T=3, L=1, M=1)
    elif size == "default":
        model = EpidemicModel(EpidemicParams(), 10, AmbiguityConfig())
    else:
        N, Y, L = {"dp-mip-small": (100, 5, 2), "compile-cache-dp": (300, 8, 5)}[size]
        model = EpidemicModel(EpidemicParams(N=N, L=L, M=L, T=5), Y, AmbiguityConfig())
    model.compile_all()
    return model


def assert_same_policy(table, ref, rel=1e-12):
    """Same entries and actions as ref, values within rel * (1 + |v|)."""
    assert table.actions == ref.actions
    assert table.values.keys() == ref.values.keys()
    for key, v in ref.values.items():
        assert abs(table.values[key] - v) <= rel * (1.0 + abs(v)), key
        assert table.V[key[1], key[0]] == table.values[key]


class TestStageBatches:
    @pytest.mark.parametrize("size", ["toy", "dp-mip-small", "compile-cache-dp"])
    def test_equals_per_state_loop(self, size):
        model = sized_model(size)
        cfg = PlannerConfig()
        assert_same_policy(backward_dp(model, cfg), per_state_dp(model, cfg))

    @pytest.mark.parametrize("budget", [1, 10**9], ids=["one-state", "all-states"])
    def test_independent_of_batching(self, budget, monkeypatch):
        # One state per batch pads nothing, so every value is its own
        # backup's bit for bit; one batch of all states pads up to 70.
        model = sized_model("compile-cache-dp")
        cfg = PlannerConfig()
        ref = per_state_dp(model, cfg)
        monkeypatch.setattr(plan, "BATCH_ENTRIES", budget)
        in_s = model.grid.in_S_indices().tolist()
        batches = plan._batches(model, in_s, cfg)
        assert len(batches) == (len(in_s) if budget == 1 else 1)
        assert sorted(i for b in batches for i in b.states.tolist()) == in_s
        dp = backward_dp(model, cfg)
        assert_same_policy(dp, ref)
        if budget == 1:
            np.testing.assert_array_equal(dp.V, ref.V)
            assert dp.values == ref.values

    def test_narrow_state_beside_the_widest(self):
        model = sized_model("compile-cache-dp")
        in_s = model.grid.in_S_indices().tolist()
        size = {idx: len(model.rules(idx).support) for idx in in_s}
        pair = [min(in_s, key=size.get), max(in_s, key=size.get)]
        assert [size[i] for i in pair] == [1, 70]
        v_next = per_state_dp(model, PlannerConfig()).V[2]
        X, lam, k = model.design, model.lam, model.acfg.k
        batch = enumerate_batch(pair, [model.rules(i) for i in pair], X)
        values, best = drmdp_backup_enumerate_batch(batch, v_next, lam, k, X)
        for idx, value, b in zip(pair, values, best):
            solo, action = drmdp_backup_enumerate(model.rules(idx), model.actions, v_next,
                                                  lam, k, method="parametric", X=X)
            assert abs(value - solo) <= 1e-15 * abs(solo), idx
            assert model.actions[b] == action
        assert values[1] == solo                  # the widest is not padded

    @pytest.mark.parametrize("backend, inner, size", [
        ("drmdp-enumerate", "lp", "toy"),
    ])
    def test_other_routes_back_up_one_state_at_a_time(self, backend, inner, size):
        model = sized_model(size)
        cfg = PlannerConfig(backend=backend, inner_method=inner)
        dp, ref = backward_dp(model, cfg), per_state_dp(model, cfg)
        np.testing.assert_array_equal(dp.V, ref.V)
        assert dp.values == ref.values and dp.actions == ref.actions

    def test_stage_batches_equal_the_unrecorded_route(self, monkeypatch):
        # Each chunk's terms are formed once per stage; the tables are those
        # of the route that forms them inside the solve, bit for bit.
        model = sized_model("compile-cache-dp")
        cfg = PlannerConfig()
        got = backward_dp(model, cfg)
        calls = []

        def unrecorded(*args):
            calls.append(1)
            return drmdp_backup_enumerate_batch_unrecorded(*args)

        monkeypatch.setattr(plan, "drmdp_backup_enumerate_batch", unrecorded)
        ref = backward_dp(model, cfg)
        assert calls
        assert got.V.tobytes() == ref.V.tobytes()
        assert got.values == ref.values and got.actions == ref.actions

    def test_rtdp_runs_the_one_state_arithmetic(self, monkeypatch):
        # RTDP backs up one state at a time from its recorded terms; its
        # trace and root are those of the one-state solve, bit for bit.
        def run():
            model = toy_model(N=8, Y=2, T=4, L=2, M=2, delta=0.05)
            init = model.grid.index_of(1, 1, 0)
            table, trace = rtdp(model, init, PlannerConfig(niter=30, early_stop=False))
            return table.values[(init, 1)], [(s.state, s.stage, s.action, s.value)
                                             for s in trace.steps]

        def one_state(coeffs, actions, v_next, lam, k, method, X, terms=None):
            return drmdp_backup_enumerate_unrecorded(coeffs, actions, v_next, lam, k, X,
                                                     inner=inner_value_parametric_one_state)

        got = run()
        monkeypatch.setattr(plan, "drmdp_backup_enumerate", one_state)
        assert got == run()


# Row sums against one dot per row: the contract on nominal and robust values.
ROW_SUM_REL = 2e-15


class TestRowSumStages:
    """backward_dp with nominal and robust backs up each stage a run of
    consecutive states of a model block at a time, every kernel row one
    segment sum (backup.RowBatch); RTDP, greedy_action and backup_state back
    up a batch of one."""

    @pytest.mark.parametrize("backend", ["nominal", "robust"])
    def test_stage_batches_equal_the_one_state_loop(self, backend):
        # Each row is its own segment in a chunk of one and in a stage
        # chunk, so the tables are the same bit for bit.
        model = sized_model("dp-mip-small")
        cfg = PlannerConfig(backend=backend)
        dp, ref = backward_dp(model, cfg), per_state_dp(model, cfg)
        np.testing.assert_array_equal(dp.V, ref.V)
        assert dp.values == ref.values and dp.actions == ref.actions

    @pytest.mark.parametrize("size", ["toy", "dp-mip-small", "compile-cache-dp", "default"])
    @pytest.mark.parametrize("backend", ["nominal", "robust"])
    def test_equals_the_per_row_oracle(self, backend, size, monkeypatch):
        model = sized_model(size)
        cfg = PlannerConfig(backend=backend)
        dp = backward_dp(model, cfg)
        monkeypatch.setattr(plan, "backup_state", per_row_backup_state)
        assert_same_policy(dp, per_state_dp(model, cfg), rel=ROW_SUM_REL)

    @pytest.mark.parametrize("budget", [1, 10**9], ids=["one-state", "all-states"])
    @pytest.mark.parametrize("backend", ["nominal", "robust"])
    def test_independent_of_batching(self, backend, budget, monkeypatch):
        model = sized_model("compile-cache-dp")
        cfg = PlannerConfig(backend=backend)
        ref = per_state_dp(model, cfg)
        monkeypatch.setattr(plan, "BATCH_ENTRIES", budget)
        in_s = model.grid.in_S_indices().tolist()
        batches = plan._batches(model, in_s, cfg)
        assert len(batches) == (len(in_s) if budget == 1 else 1)
        assert sorted(i for b in batches for i in b.states.tolist()) == in_s
        dp = backward_dp(model, cfg)
        assert dp.V.tobytes() == ref.V.tobytes()
        assert dp.values == ref.values and dp.actions == ref.actions

    @pytest.mark.parametrize("backend", ["nominal", "robust"])
    def test_batch_of_one_views_the_rows(self, backend, monkeypatch):
        # backup_state's batch of one holds the state's own rows, nominal or
        # shifted, as views: nothing is copied on a call.
        model = sized_model("dp-mip-small")
        cfg = PlannerConfig(backend=backend)
        idx = int(model.grid.in_S_indices()[20])
        batches = []

        def spy(batch, v_next, lam):
            batches.append(batch)
            return row_backup_batch(batch, v_next, lam)

        monkeypatch.setattr(plan, "row_backup_batch", spy)
        backup_state(model, idx, 1, np.zeros(model.grid.n_corners), cfg)
        [batch] = batches
        rows = (model.shifted_rows(idx, cfg.robust_budget) if backend == "robust"
                else model.rows(idx))
        assert batch.states.tolist() == [idx]
        for got, held in ((batch.rows.indices, rows.indices), (batch.rows.probs, rows.probs),
                          (batch.reward, model.rewards(idx))):
            assert np.shares_memory(got, held)
        assert batch.rows.offsets.tolist() == rows.offsets.tolist()

    def test_nominal_records_view_the_model_blocks(self):
        # Each record's rows and rewards are views of one block the model
        # keeps, and the records hold every simplex state once.
        model = sized_model("compile-cache-dp")
        n = len(model.actions)
        batches = plan._batches(model, model.grid.in_S_indices().tolist(),
                                PlannerConfig(backend="nominal"))
        assert len(batches) > 1
        for batch in batches:
            [(block, rewards)] = [(b, r) for b, r in model.blocks()
                                  if np.shares_memory(batch.rows.probs, b.rows.probs)]
            assert np.shares_memory(batch.rows.indices, block.rows.indices)
            assert np.shares_memory(batch.reward, rewards)
            for m, idx in enumerate(batch.states.tolist()):
                rows = model.rows(idx)
                assert batch.rows[m * n:(m + 1) * n].offsets.tolist() == rows.offsets.tolist()
                assert batch.rows[m * n].probs.tobytes() == rows[0].probs.tobytes()
                assert batch.reward[m].tobytes() == model.rewards(idx).tobytes()
        states = np.concatenate([batch.states for batch in batches])
        assert sorted(states.tolist()) == model.grid.in_S_indices().tolist()

    def test_robust_records_shift_each_run_once(self, monkeypatch):
        # One worst_case_shift call per record; each record's rows are the
        # model's shifted rows bit for bit, and the DP fills no per-state
        # store.
        model = EpidemicModel(EpidemicParams(N=300, L=5, M=5, T=5), 8, AmbiguityConfig())
        model.compile_all()
        cfg = PlannerConfig(backend="robust")
        calls = []

        def spy(rows, grid, budget):
            calls.append(len(rows))
            return worst_case_shift(rows, grid, budget)

        monkeypatch.setattr(plan, "worst_case_shift", spy)
        in_s = model.grid.in_S_indices().tolist()
        batches = plan._batches(model, in_s, cfg)
        assert len(calls) == len(batches) > 1
        backward_dp(model, cfg)
        assert model._shifted == {}
        n = len(model.actions)
        for batch in batches:
            for m, idx in enumerate(batch.states.tolist()):
                got, want = batch.rows[m * n:(m + 1) * n], model.shifted_rows(idx, 0.5)
                for a in ("indices", "probs", "offsets"):
                    assert getattr(got, a).tobytes() == getattr(want, a).tobytes(), idx

    @pytest.mark.parametrize("backend", ["nominal", "robust"])
    def test_partly_warmed_model_gives_the_same_tables(self, backend):
        # Some states compiled one at a time, the rest by compile_all: more,
        # smaller runs, the same tables bit for bit.
        def model():
            return EpidemicModel(EpidemicParams(N=100, L=2, M=2, T=5), 5, AmbiguityConfig())

        warm = model()
        for idx in warm.grid.in_S_indices()[::3].tolist():
            warm.compile_state(idx)
        warm.compile_all()
        assert len(warm.blocks()) > 2
        cfg = PlannerConfig(backend=backend)
        got, ref = backward_dp(warm, cfg), backward_dp(model(), cfg)
        assert got.V.tobytes() == ref.V.tobytes()
        assert got.best.tobytes() == ref.best.tobytes()
        assert got.values == ref.values and got.actions == ref.actions

    def test_only_the_lp_inner_solve_backs_up_one_state_at_a_time(self, monkeypatch):
        calls = []
        real = plan.backup_state

        def spy(model, idx, t, v_next, cfg):
            calls.append((cfg.backend, cfg.inner_method))
            return real(model, idx, t, v_next, cfg)

        monkeypatch.setattr(plan, "backup_state", spy)
        model = toy_model(N=8, Y=2, T=4, L=2, M=2, delta=0.05)
        for backend in BACKENDS:
            for inner in ("parametric", "lp"):
                backward_dp(model, PlannerConfig(backend=backend, inner_method=inner))
        assert set(calls) == {("drmdp-enumerate", "lp")}
        assert len(calls) == 3 * len(model.grid.in_S_indices())

    @pytest.mark.parametrize("backend", ["nominal", "robust"])
    def test_rtdp_runs_the_per_row_route(self, backend, monkeypatch):
        def run():
            model = toy_model(N=8, Y=2, T=4, L=2, M=2, delta=0.05)
            init = model.grid.index_of(1, 1, 0)
            cfg = PlannerConfig(backend=backend, niter=30, early_stop=False)
            table, trace = rtdp(model, init, cfg)
            return table.V[1, init], trace.steps

        root, steps = run()
        monkeypatch.setattr(plan, "backup_state", per_row_backup_state)
        want_root, want = run()
        assert [(s.iteration, s.stage, s.state, s.action) for s in steps] == \
               [(s.iteration, s.stage, s.state, s.action) for s in want]
        for got, ref in zip(steps, want):
            assert abs(got.value - ref.value) <= ROW_SUM_REL * (1.0 + abs(ref.value))
        assert abs(root - want_root) <= ROW_SUM_REL * (1.0 + abs(want_root))


def mccormick_sized_model(size):
    """sized_model, and an L=M=5 model on a small N (36 levels)."""
    if size == "L=M=5":
        model = EpidemicModel(EpidemicParams(N=60, L=5, M=5, T=4), 4, AmbiguityConfig())
        model.compile_all()
        return model
    return sized_model(size)


@functools.cache
def mccormick_per_state_dp(size):
    """per_state_dp with drmdp-mccormick on mccormick_sized_model(size)."""
    return per_state_dp(mccormick_sized_model(size), PlannerConfig(backend="drmdp-mccormick"))


class TestMcCormickStageBatches:
    """backward_dp with drmdp-mccormick builds each chunk's kink records once
    (plan._batches) and backs up each stage one padded pass per
    chunk; RTDP, greedy_action and backup_state use a batch of one."""

    @pytest.mark.parametrize("size", ["toy", "dp-mip-small", "compile-cache-dp", "L=M=5"])
    def test_records_equal_the_one_state_oracle(self, size):
        model = mccormick_sized_model(size)
        k, L, M = model.acfg.k, model.params.L, model.params.M
        in_s = model.grid.in_S_indices().tolist()
        seen = []
        for kinks in plan._batches(model, in_s, PlannerConfig(backend="drmdp-mccormick")):
            for i, idx in enumerate(kinks.states.tolist()):
                assert_record_is_the_oracles(kinks, i, model.rules(idx), k, L, M)
                seen.append(idx)
        assert sorted(seen) == in_s
        # The batch of one that backup_state reads, and its level values.
        rng = np.random.default_rng(5)
        for idx in in_s[::7]:
            coeffs, one = model.rules(idx), model.kinks(idx)
            assert_record_is_the_oracles(one, 0, coeffs, k, L, M)
            ref = envelope_kinks_one_state(coeffs, k, L, M)
            assert one.offset.shape[2] == ref.offset.shape[1]      # not padded
            v = -rng.random(len(coeffs.support)) * 1e3
            want = envelope_level_values_one_state(ref, v)
            assert envelope_level_values(one, v[None])[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", ["toy", "dp-mip-small", "compile-cache-dp", "L=M=5"])
    def test_equals_per_state_loop(self, size):
        # Bit for bit at dp-mip-small; elsewhere the padded sum over a
        # state's kinks may group differently.
        model = mccormick_sized_model(size)
        dp = backward_dp(model, PlannerConfig(backend="drmdp-mccormick"))
        ref = mccormick_per_state_dp(size)
        assert_same_policy(dp, ref)
        if size == "dp-mip-small":
            np.testing.assert_array_equal(dp.V, ref.V)
            assert dp.V.tobytes() == ref.V.tobytes()
            assert dp.values == ref.values and dp.actions == ref.actions

    @pytest.mark.parametrize("size, budget", [
        ("dp-mip-small", 1), ("dp-mip-small", 10**9), ("compile-cache-dp", 1)],
        ids=["dp-mip-small-one-state", "dp-mip-small-all-states", "compile-cache-dp-one-state"])
    def test_independent_of_batching(self, size, budget, monkeypatch):
        # One state per chunk pads nothing, so every value is its own
        # backup's bit for bit; one chunk of all states pads every row to
        # the longest.  (One chunk of the 165 compile-cache-dp states would
        # build on 263 MB of arrays.)
        model = sized_model(size)
        cfg = PlannerConfig(backend="drmdp-mccormick")
        ref = mccormick_per_state_dp(size)
        monkeypatch.setattr(plan, "BATCH_ENTRIES", budget)
        in_s = model.grid.in_S_indices().tolist()
        batches = plan._batches(model, in_s, cfg)
        assert len(batches) == (len(in_s) if budget == 1 else 1)
        dp = backward_dp(model, cfg)
        assert_same_policy(dp, ref)
        if budget == 1:
            assert dp.V.tobytes() == ref.V.tobytes()
            assert dp.values == ref.values

    def test_one_node_table_per_model(self, monkeypatch):
        # The node table depends only on (k, L, M): a model builds it once,
        # read-only, for its DP chunks and its batches of one alike.
        builds = []

        def counting(k, L, M):
            builds.append((k, L, M))
            return envelope_nodes(k, L, M)

        monkeypatch.setattr(model_module, "envelope_nodes", counting)
        model = EpidemicModel(EpidemicParams(N=100, L=2, M=2, T=5), 5, AmbiguityConfig())
        backward_dp(model, PlannerConfig(backend="drmdp-mccormick"))
        for idx in model.grid.in_S_indices()[::5].tolist():
            model.kinks(idx)
        k, L, M = model.acfg.k, model.params.L, model.params.M
        assert builds == [(k, L, M)]
        for got, want in zip(model.node_table, envelope_nodes(k, L, M)):
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()

    def test_chunks_are_cut_by_the_distinct_node_count(self):
        # The kink build works on (level, successor, node) arrays D nodes
        # wide, D the width of envelope_nodes: 1 at k = 0, at most 5 at
        # L=M=2 and 9 at L=M=5 (k = 1000), never past ENVELOPE_NODES.  At
        # dp-mip-small each chunk of c states, the widest w successors,
        # holds c * w * n * D <= BATCH_ENTRIES entries unless it is one
        # state, and the next state would pass the budget: fewer than the 9
        # chunks the 15-node count cut.
        for L, M, most in [(2, 2, 5), (5, 5, 9), (1, 3, 8)]:
            assert envelope_nodes(0.0, L, M)[2].shape[2] == 1
            assert 1 < envelope_nodes(1e3, L, M)[2].shape[2] <= most
            for k in (1.0, 50.0, 1e3):
                assert envelope_nodes(k, L, M)[2].shape[2] <= ENVELOPE_NODES
        model = sized_model("dp-mip-small")
        k, L, M = model.acfg.k, model.params.L, model.params.M
        n, D = len(model.actions), envelope_nodes(k, L, M)[2].shape[2]
        in_s = model.grid.in_S_indices().tolist()
        chunks = plan._batches(model, in_s, PlannerConfig(backend="drmdp-mccormick"))
        assert 1 < len(chunks) < 9 and D == 5
        entries = [kinks.support.size * n * D for kinks in chunks]
        for kinks, size in zip(chunks, entries):
            assert size <= plan.BATCH_ENTRIES or len(kinks.states) == 1
        for kinks, after in zip(chunks, chunks[1:]):
            widest = after.support.shape[1]
            assert (len(kinks.states) + 1) * widest * n * D > plan.BATCH_ENTRIES

    def test_narrow_state_beside_the_widest(self):
        model = sized_model("compile-cache-dp")
        k, L, M, lam = model.acfg.k, model.params.L, model.params.M, model.lam
        in_s = model.grid.in_S_indices().tolist()
        size = {idx: len(model.rules(idx).support) for idx in in_s}
        pair = [min(in_s, key=size.get), max(in_s, key=size.get)]
        assert [size[i] for i in pair] == [1, 70]
        v_next = mccormick_per_state_dp("compile-cache-dp").V[2]
        kinks = envelope_kinks(pair, [model.rules(i) for i in pair], k, L, M,
                               model.node_table)
        assert kinks.offset.shape[2] == model.kinks(pair[1]).offset.shape[2]
        values, best = drmdp_backup_mccormick_batch(kinks, v_next, lam)
        for idx, value, b in zip(pair, values, best):
            solo, action = drmdp_backup_mccormick(model.rules(idx), v_next, lam, k, L, M,
                                                  kinks=model.kinks(idx))
            assert abs(value - solo) <= 1e-15 * abs(solo), idx
            assert model.actions[b] == action
        assert values[1] == solo                  # the widest is not padded

    def test_backward_dp_backs_up_no_state_alone(self, monkeypatch):
        calls = []
        real = plan.backup_state

        def spy(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(plan, "backup_state", spy)
        model = toy_model(N=8, Y=2, T=4, L=2, M=2, delta=0.05)
        table = backward_dp(model, PlannerConfig(backend="drmdp-mccormick"))
        assert calls == [] and len(table.values) == 3 * len(model.grid.in_S_indices())
        assert model._kinks == {}                 # the DP keeps no records on the model
        backward_dp(model, PlannerConfig(inner_method="lp"))
        assert calls

    def test_rtdp_runs_the_one_state_arithmetic(self, monkeypatch):
        # RTDP backs up one state at a time, a batch of one; its trace and
        # root are those of the one-state record and level values, bit for
        # bit.
        def run():
            model = toy_model(N=8, Y=2, T=4, L=2, M=2, delta=0.05)
            init = model.grid.index_of(1, 1, 0)
            cfg = PlannerConfig(backend="drmdp-mccormick", niter=30, early_stop=False)
            table, trace = rtdp(model, init, cfg)
            return table.values[(init, 1)], [(s.state, s.stage, s.action, s.value)
                                             for s in trace.steps]

        got = run()
        monkeypatch.setattr(plan, "drmdp_backup_mccormick", drmdp_backup_mccormick_one_state)
        assert got == run()


class TestTableHelpers:
    def test_lookup_fallbacks(self):
        model = toy_model()
        table = ValueTable(model)
        idx = model.grid.index_of(1, 1, 0)
        assert table.lookup(model, idx, model.T) == 0.0
        assert table.lookup(model, idx, 1) == model.stage_bound[idx]
        table.store(1, idx, -4.5)
        assert table.lookup(model, idx, 1) == -4.5
        assert table.values == {(idx, 1): -4.5}
        off = model.grid.index_of(2, 2, 2)
        assert table.lookup(model, off, 1) == 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stored_values_are_what_backups_read(self, backend):
        # store writes the stage row that lookup, lookup_fn and every backup
        # read; a backup reads the state's successor support only, so the
        # bounds the row keeps elsewhere do not enter it.
        model = toy_model(N=8, T=3)
        cfg = PlannerConfig(backend=backend)
        table = ValueTable(model)
        rng = np.random.default_rng(4)
        in_s = model.grid.in_S_indices().tolist()
        stored = {idx: -float(rng.random() * 10) for idx in in_s}
        for idx, value in stored.items():
            table.store(2, idx, value)
        assert table.values == {(idx, 2): value for idx, value in stored.items()}
        row = table.lookup_fn(model, 2)
        for idx, value in stored.items():
            assert table.lookup(model, idx, 2) == value == row[idx]
        assert not row[~model.grid.in_S].any()
        for idx in in_s:
            support = model.rules(idx).support
            on_support = np.zeros(model.grid.n_corners)
            on_support[support] = row[support]
            got = backup_state(model, idx, 1, row, cfg)
            assert got == backup_state(model, idx, 1, on_support, cfg), idx
            assert greedy_action(model, table, idx, 1, cfg) == got[::-1], idx
        if backend == "nominal":
            idx = in_s[0]
            expect = max(r + model.lam * sum(p * stored.get(int(j), 0.0)
                                             for j, p in zip(kr.indices, kr.probs))
                         for r, kr in zip(model.rewards(idx), model.rows(idx)))
            assert backup_state(model, idx, 1, row, cfg)[0] == pytest.approx(expect, abs=1e-12)

    def test_greedy_action_is_backed_up_once_per_table_state(self, monkeypatch):
        model = toy_model(N=8, T=3)
        cfg = PlannerConfig(backend="nominal")
        table = backward_dp(model, cfg)
        backups = []
        backup_one = plan.backup_state

        def counting(model, idx, t, v_next, cfg):
            backups.append((idx, t))
            return backup_one(model, idx, t, v_next, cfg)

        monkeypatch.setattr(plan, "backup_state", counting)
        idx = model.grid.index_of(1, 1, 0)
        first = greedy_action(model, table, idx, 1, cfg)
        assert greedy_action(model, table, idx, 1, cfg) == first
        assert backups == [(idx, 1)]
        greedy_action(model, table, idx, 1, PlannerConfig(backend="robust"))
        assert backups == [(idx, 1)] * 2
        table.store(2, idx, -1.0)                  # the values changed
        greedy_action(model, table, idx, 1, cfg)
        assert backups == [(idx, 1)] * 3 and len(table.greedy) == 1

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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_table_rows_read_the_dp_policy(self, backend, monkeypatch):
        # backward_dp records every simplex entry's action; table_rows writes
        # it without another backup, and it is the greedy action.
        model = toy_model(N=8, T=3)
        cfg = PlannerConfig(backend=backend)
        dp = backward_dp(model, cfg)
        in_s = [int(i) for i in model.grid.in_S_indices()]
        assert set(dp.actions) == {(i, t) for i in in_s for t in range(1, model.T)}
        greedy = {key: greedy_action(model, dp, *key, cfg)[0] for key in dp.actions}
        assert dp.actions == greedy

        def no_backup(*args):
            raise AssertionError("table_rows backed up a recorded entry")

        monkeypatch.setattr(plan, "greedy_action", no_backup)
        rows = table_rows(model, dp, cfg)
        assert len(rows) == len(dp.actions)
        for row in rows:
            key = (row["state"], row["stage"])
            expect = dp.actions[key]
            assert (row["y_V"], row["y_R"]) == (expect.y_V, expect.y_R), key

    def test_rtdp_table_rows_use_greedy_actions(self):
        model = toy_model(N=8, T=3)
        cfg = PlannerConfig(backend="nominal", niter=3)
        init = model.grid.index_of(1, 0, 1)
        table, _ = rtdp(model, init, cfg)
        assert not table.actions
        rows = table_rows(model, table, cfg)
        assert len(rows) >= model.T - 1
        for row in rows:
            act, _ = greedy_action(model, table, row["state"], row["stage"], cfg)
            assert (row["y_V"], row["y_R"]) == (act.y_V, act.y_R)

    def test_table_rows_schema(self):
        model = toy_model(T=2)
        cfg = PlannerConfig(backend="nominal")
        dp = backward_dp(model, cfg)
        rows = table_rows(model, dp, cfg)
        assert rows
        assert set(rows[0]) == {"stage", "state", "p_S", "p_E", "p_I",
                                "value", "y_V", "y_R"}


class TestValueTableArrays:
    @pytest.mark.parametrize("planner", ["rtdp", "backward_dp"])
    def test_mappings_read_the_arrays(self, planner):
        model = toy_model(N=8, Y=2, T=4)
        cfg = PlannerConfig(backend="nominal", niter=20)
        if planner == "rtdp":
            table, _ = rtdp(model, model.grid.index_of(1, 1, 0), cfg)
        else:
            table = backward_dp(model, cfg)
        idx, t = np.nonzero(table.backed.T)
        keys = list(zip(idx.tolist(), t.tolist()))
        assert list(table.values) == keys == sorted(keys)
        assert len(table.values) == int(table.backed.sum()) > 0
        assert dict(table.values) == {(i, s): float(table.V[s, i]) for i, s in keys}
        acted = [(i, s) for i, s in keys if table.best[s, i] >= 0]
        assert list(table.actions) == acted and len(table.actions) == len(acted)
        assert dict(table.actions) == {(i, s): model.actions[table.best[s, i]]
                                       for i, s in acted}
        assert (table.best[~table.backed] == -1).all()
        if planner == "rtdp":
            assert not table.actions
        else:
            assert acted == keys
        missing = (int(np.flatnonzero(~model.grid.in_S)[0]), 1)
        assert missing not in table.values and missing not in table.actions
        assert (keys[0][0], model.T + 5) not in table.values
        with pytest.raises(KeyError):
            table.values[missing]
        with pytest.raises(TypeError):
            table.values[keys[0]] = 0.0
        with pytest.raises(TypeError):
            table.actions[keys[0]] = Action(0, 0)


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)


class _Tripwire:
    """Pickles to a call that records it was unpickled."""

    def __reduce__(self):
        return _record_unpickling, ()


def _records(edit):
    """A corruption that rewrites the saved record array as edit(records)."""
    def corrupt(kpath):
        np.save(kpath, edit(np.load(kpath)))
    return corrupt


def _raw(edit):
    """A corruption that rewrites the cache file's bytes as edit(bytes)."""
    def corrupt(kpath):
        with open(kpath, "rb") as fh:
            data = fh.read()
        with open(kpath, "wb") as fh:
            fh.write(edit(data))
    return corrupt


def _set_last(field, value):
    def edit(rec):
        rec[field][-1] = value
        return rec
    return edit


def _cut_row_short(rec):
    """Drop the second entry of the first row that has several."""
    row = rec["state"].astype(np.int64) * 1000 + rec["action"]
    return np.delete(rec, int(np.flatnonzero(row[1:] == row[:-1])[0]) + 1)


def _bad_rows(edit, rows=(0,)):
    """A corruption that applies edit to the probabilities of some rows with
    several entries (rows picks them, in record order, among those rows),
    and names the first one, as the error should."""
    def corrupt(kpath):
        rec = np.load(kpath)
        row_id = rec["state"].astype(np.int64) * 1000 + rec["action"]
        ids, starts, counts = np.unique(row_id, return_index=True, return_counts=True)
        long = np.flatnonzero(counts > 1)[list(rows)]
        for r in long:
            seg = slice(starts[r], starts[r] + counts[r])
            rec["prob"][seg] = edit(rec["prob"][seg])
        np.save(kpath, rec)
        first = starts[long[0]]
        a = toy_model(N=4, T=3).actions[rec["action"][first]]
        return f"row of state {rec['state'][first]}, action ({a.y_V}, {a.y_R})"
    return corrupt


def _swap_successors(kpath):
    """Swap the first two successors of the first row with several, and name
    that row, as the error should."""
    rec = np.load(kpath)
    row_id = rec["state"].astype(np.int64) * 1000 + rec["action"]
    first = int(np.flatnonzero(row_id[1:] == row_id[:-1])[0])
    rec["successor"][[first, first + 1]] = rec["successor"][[first + 1, first]]
    np.save(kpath, rec)
    a = toy_model(N=4, T=3).actions[rec["action"][first]]
    return f"row of state {rec['state'][first]}, action ({a.y_V}, {a.y_R})"


def _state_outside_simplex(kpath):
    """Move the last state's records to corner (2, 1, 0), whose fractions sum
    to 1.5, and name it."""
    rec = np.load(kpath)
    idx = toy_model(N=4, T=3).grid.index_of(2, 1, 0)
    assert idx > rec["state"].max()  # the records stay in order
    rec["state"][rec["state"] == rec["state"][-1]] = idx
    np.save(kpath, rec)
    return f"state {idx} is outside the population simplex"


def _set_first(value):
    def edit(probs):
        probs[0] = value
        return probs
    return edit


def _save_archive(kpath):
    rec = np.load(kpath)
    with open(kpath, "wb") as fh:
        np.savez(fh, records=rec)


def _save_objects(kpath):
    np.save(kpath, np.array([_Tripwire()], dtype=object), allow_pickle=True)


def assert_same_state(a, b, idx):
    """Rows, rewards and rules of one state agree bit for bit."""
    ra, rb = a.rows(idx), b.rows(idx)
    assert len(ra) == len(rb) == len(a.actions)
    for name in ("indices", "probs", "offsets"):
        assert getattr(ra, name).tobytes() == getattr(rb, name).tobytes(), (idx, name)
    assert a.rewards(idx).tobytes() == b.rewards(idx).tobytes(), idx
    ca, cb = a.rules(idx), b.rules(idx)
    for name in ("support", "mean", "eps"):
        x, y = getattr(ca, name), getattr(cb, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), (idx, name)
    assert ca.delta == cb.delta


# (parameters, Y) of the toy, the benchmark workloads' and the default size.
ROUTE_SIZES = {
    "toy": (dict(N=6, L=1, M=1, T=3), 2),
    "dp-mip-small": (dict(N=100, L=2, M=2, T=5), 5),
    "compile-cache-dp": (dict(N=300, L=5, M=5, T=5), 8),
    "default": (dict(), 10),
}


def held_entries(model):
    """Kernel entries held by the model's distinct blocks."""
    blocks = {id(block): block for block, _ in model._place.values()}
    return sum(len(block.rows.indices) for block in blocks.values())


class TestModelBundle:
    def test_cache_roundtrip(self, tmp_path):
        # Rows are stored as float64 records, so they and the rules refit
        # from them load back bit for bit, and a save is deterministic.
        model = toy_model(N=4, T=3)
        model.compile_all()
        files = model.save_cache(str(tmp_path / "a"))
        assert len(files) == 1
        assert os.listdir(tmp_path / "a") == [os.path.basename(files[0])]
        again = model.save_cache(str(tmp_path / "b"))[0]
        with open(files[0], "rb") as fa, open(again, "rb") as fb:
            assert fa.read() == fb.read()

        fresh = toy_model(N=4, T=3)
        assert fresh.load_cache(str(tmp_path / "a"))
        assert sorted(fresh._rows) == sorted(model._rows)
        for idx in model.grid.in_S_indices():
            assert_same_state(model, fresh, idx)

    def test_failed_save_keeps_the_earlier_cache(self, tmp_path, monkeypatch):
        # A write that dies part way (a full disk, say) leaves the cache
        # saved before it byte for byte, loadable, and no other file.
        model = toy_model(N=4, T=3)
        model.compile_all()
        [kpath] = model.save_cache(str(tmp_path))
        with open(kpath, "rb") as fh:
            before = fh.read()

        def full_disk(file, arr, *args, **kwargs):
            file.write(b"\x93NUMPY")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "save", full_disk)
        with pytest.raises(CacheError, match=re.escape(kpath)):
            model.save_cache(str(tmp_path))
        monkeypatch.undo()
        assert os.listdir(tmp_path) == [os.path.basename(kpath)]
        with open(kpath, "rb") as fh:
            assert fh.read() == before
        fresh = toy_model(N=4, T=3)
        assert fresh.load_cache(str(tmp_path))
        assert sorted(fresh._rows) == sorted(model._rows)

    def test_cache_loads_across_reward_horizon_and_ambiguity(self, tmp_path):
        # The rows depend on neither the cost coefficients, the discount and
        # horizon, nor the ambiguity radius, so a model that differs in all
        # of them loads the cache, and refits rewards and rules as a fresh
        # compile of its own does.
        model = toy_model(N=4, T=3)
        model.compile_all()
        model.save_cache(str(tmp_path))
        other = dict(T=4, delta=0.1, Q=0.7, k_R=0.9, W=3.0, lam=0.9)
        loaded, fresh = toy_model(N=4, **other), toy_model(N=4, **other)
        assert loaded.load_cache(str(tmp_path))
        fresh.compile_all()
        for idx in model.grid.in_S_indices():
            for ra, rb in zip(model.rows(idx), loaded.rows(idx)):
                assert ra.indices.tobytes() == rb.indices.tobytes()
                assert ra.probs.tobytes() == rb.probs.tobytes()
            assert_same_state(fresh, loaded, idx)

    @pytest.mark.parametrize("size", list(ROUTE_SIZES))
    def test_every_route_hydrates_the_same_state(self, size, tmp_path, monkeypatch):
        # A state's rows, rewards and rules are the same bytes whichever
        # block it comes in: its own push, one serial push of every state,
        # a pool slice, or the cache file of all of them.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        kw, Y = ROUTE_SIZES[size]
        alone, serial, pooled, loaded = (EpidemicModel(EpidemicParams(**kw), Y,
                                                       AmbiguityConfig()) for _ in range(4))
        states = alone.grid.in_S_indices().tolist()
        for idx in states:
            alone.compile_state(idx)
        serial.compile_all()
        pooled.compile_all(workers=2)
        serial.save_cache(str(tmp_path))
        assert loaded.load_cache(str(tmp_path))
        assert len({id(block) for block, _ in pooled._place.values()}) > 1
        for model in (serial, pooled, loaded):
            assert sorted(model._rows) == states
            assert held_entries(model) == held_entries(alone)
            for idx in states:
                assert_same_state(alone, model, idx)

    def test_load_into_a_compiled_model_keeps_one_copy(self, tmp_path):
        # The states already compiled keep their rows; the cache's block is
        # kept less those states, so every state's rows are held once.
        model = toy_model(N=6, Y=2, T=3)
        model.compile_all()
        model.save_cache(str(tmp_path))
        part = toy_model(N=6, Y=2, T=3)
        states = part.grid.in_S_indices().tolist()
        for idx in states[:4]:
            part.compile_state(idx)
        before = {idx: part.rows(idx).probs for idx in states[:4]}
        assert part.load_cache(str(tmp_path))
        assert sorted(part._rows) == states
        for idx, probs in before.items():
            assert np.shares_memory(part.rows(idx).probs, probs)
        [block] = {id(part._place[idx][0]): part._place[idx][0] for idx in states[4:]}.values()
        assert block.corners.tolist() == states[4:]
        assert held_entries(part) == held_entries(model)
        for idx in states:
            assert_same_state(model, part, idx)

    def test_rows_mapping_is_read_only_views(self):
        # perfbench/workloads.py reads model._rows: .items(), .get(), len(),
        # and each row's .indices and .probs.
        model = toy_model(N=6, Y=2, T=3)
        states = model.grid.in_S_indices().tolist()[:3]
        for idx in states:
            model.compile_state(idx)
        rows = model._rows
        assert len(rows) == 3 and rows.get(model.grid.n_corners) is None
        for idx, state_rows in rows.items():
            assert len(state_rows) == len(model.actions)
            for row, want in zip(state_rows, model.rows(idx)):
                assert row.indices.tobytes() == want.indices.tobytes()
                assert row.probs.tobytes() == want.probs.tobytes()
                assert not row.probs.flags.writeable and not row.indices.flags.writeable
        with pytest.raises(TypeError):
            rows[states[0]] = None

    def test_load_cache_misses_on_other_config(self, tmp_path):
        model = toy_model(N=4, T=3)
        model.compile_state(model.grid.index_of(1, 1, 0))
        model.save_cache(str(tmp_path))
        other = toy_model(N=8, T=3)
        assert not other.load_cache(str(tmp_path))

    @pytest.mark.parametrize("corrupt", [
        pytest.param(_records(_cut_row_short), id="row-cut-short"),
        pytest.param(_raw(lambda data: data[:-7]), id="line-cut"),
        pytest.param(_records(_set_last("successor", 999)), id="successor-off-grid"),
        pytest.param(_records(_set_last("action", 99)), id="unknown-action"),
        pytest.param(_raw(lambda data: b""), id="emptied"),
        pytest.param(_records(lambda rec: rec[rec["action"] != 1]), id="missing-action"),
        pytest.param(_records(lambda rec: rec[::-1]), id="out-of-order"),
        pytest.param(_swap_successors, id="successors-swapped"),
        pytest.param(_state_outside_simplex, id="state-outside-simplex"),
        pytest.param(_raw(lambda data: b"state,y_V,y_R,successor,prob\n0,0,0,0,1.0\n"),
                     id="plain-text"),
        pytest.param(_save_objects, id="object-dtype"),
        pytest.param(_save_archive, id="npz-archive"),
        pytest.param(_bad_rows(_set_first(-1e-3)), id="negative-probability"),
        pytest.param(_bad_rows(_set_first(np.nan)), id="nan-probability"),
        pytest.param(_bad_rows(lambda probs: probs * 1.5, rows=(1, -1)),
                     id="full-row-sum-off-one"),
    ])
    def test_corrupt_cache_raises(self, tmp_path, corrupt):
        # A corruption of one row returns the text naming that row's state
        # and action, which the error must carry after the file name.
        model = toy_model(N=4, T=3)
        model.compile_state(model.grid.index_of(1, 1, 0))
        model.compile_state(model.grid.index_of(2, 0, 0))
        kpath = model.save_cache(str(tmp_path))[0]
        names_row = corrupt(kpath)
        match = re.escape(kpath) + (f".*{re.escape(names_row)}" if names_row else "")
        with pytest.raises(CacheError, match=match):
            toy_model(N=4, T=3).load_cache(str(tmp_path))
        assert UNPICKLED == []

    def test_empty_cache_loads_nothing(self, tmp_path):
        model = toy_model(N=4, T=3)
        model.save_cache(str(tmp_path))
        fresh = toy_model(N=4, T=3)
        assert fresh.load_cache(str(tmp_path))
        assert fresh._rows == {} and fresh._rewards == {} and fresh._rules == {}

    def test_parallel_compile_matches_serial(self):
        # Pool workers return only rows; this process refits rewards and
        # rules, which must match a serial compile bit for bit.
        serial = toy_model(N=6, Y=2, T=3)
        parallel = toy_model(N=6, Y=2, T=3)
        idxs = [int(i) for i in serial.grid.in_S_indices()]
        serial.compile_all(workers=1)
        parallel.compile_all(workers=2)
        for i in idxs:
            assert_same_state(serial, parallel, i)

    def test_pool_rows_are_one_read_only_block(self, monkeypatch):
        # A real two-process pool: every state's rows come back as read-only
        # views of one buffer, as a serial compile's do, bit for bit.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = toy_model(N=6, Y=2, T=3)
        pooled = toy_model(N=6, Y=2, T=3)
        idxs = [int(i) for i in serial.grid.in_S_indices()]
        serial.compile_all()
        pooled.compile_all(workers=2)
        for i in idxs:
            for model in (serial, pooled):
                rows = model.rows(i)
                for name in ("indices", "probs"):
                    arrays = [getattr(row, name) for row in rows]
                    assert not any(a.flags.writeable for a in arrays), (i, name)
                    assert len({id(a.base) for a in arrays}) == 1, (i, name)
            for ra, rb in zip(serial.rows(i), pooled.rows(i)):
                assert ra.indices.tobytes() == rb.indices.tobytes(), i
                assert ra.probs.tobytes() == rb.probs.tobytes(), i

    def test_compile_pool_is_capped(self, monkeypatch):
        # The pool is faked: it records its size and its tasks, and compiles
        # in-process.  Each task is one p_I slice of the states to compile.
        started, tasks = [], []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                tasks.append([list(corners) for corners in items])
                return map(fn, tasks[-1])

        # compile_all imports the pool class from concurrent.futures when it
        # starts one, so the fake replaces it there.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(model_module, "_worker_push", None)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        serial = toy_model(N=6, Y=2, T=3)
        idxs = [int(i) for i in serial.grid.in_S_indices()]
        assert len(idxs) == 10
        serial.compile_all()
        pooled = toy_model(N=6, Y=2, T=3)
        for i in idxs[2:]:
            pooled.compile_state(i)
        pooled.compile_all(workers=5000)     # capped by the slices left: 2
        capped = toy_model(N=6, Y=2, T=3)
        capped.compile_all(workers=5000)     # capped by the slices: 3 p_I levels
        capped.compile_all(workers=5000)     # nothing left to do
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        few_cpus = toy_model(N=6, Y=2, T=3)
        few_cpus.compile_all(workers=5000)   # capped by the CPUs
        assert started == [2, 3, 2]
        assert [sorted(c for corners in task for c in corners) for task in tasks] \
            == [idxs[:2], idxs, idxs]
        for task in tasks:
            for corners in task:
                assert len({float(serial.grid.coords[c][2]) for c in corners}) == 1
        for i in idxs:
            for model in (pooled, capped, few_cpus):
                for ra, rb in zip(serial.rows(i), model.rows(i)):
                    np.testing.assert_array_equal(ra.indices, rb.indices)
                    np.testing.assert_array_equal(ra.probs, rb.probs)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        toy_model(N=6, Y=2, T=3).compile_all(workers=2)  # serial
        assert started == [2, 3, 2]

    def test_lattice_state_index(self):
        model = toy_model(Y=10)
        idx = lattice_state_index(model, 0.7, 0.1, 0.2)
        assert tuple(model.grid.coords[idx]) == (0.7, 0.1, 0.2)
        with pytest.raises(DomainError):
            lattice_state_index(model, 0.65, 0.1, 0.2)
