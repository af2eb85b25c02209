import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from epiplan import Action, DomainError, EpidemicParams, plan
from epiplan.backup import worst_case_shift
from epiplan.grid import Grid, GridSpec
from epiplan.backup import drmdp_backup_enumerate
from epiplan.model import EpidemicModel, lattice_state_index
from epiplan.plan import DrawTable, PlannerConfig, backup_state, backward_dp, rtdp
from epiplan.rules import AmbiguityConfig
from epiplan.sim import (
    PerturbationSpec,
    TrueKernel,
    aggregate_infectives,
    build_true_kernel,
    compare_models,
    random_shift,
    run_episode,
    sensitivity_sweep,
)
from oracles import (
    drmdp_backup_enumerate_unrecorded,
    kernel_draw_choice,
    random_shift_loop,
    sample_next_choice,
    sparse_row,
    worst_case_shift_loop,
)


def sim_model(N=10, Y=2, T=4, L=1, M=1, delta=0.05, k=1000.0, **kw):
    base = dict(N=N, mu=10.0, beta=0.025, alpha0=0.9, l_C=0.5, l_D=1 / 3,
                Q=0.5, k_R=0.5, W=2.0, L=L, M=M, lam=0.95, T=T)
    base.update(kw)
    return EpidemicModel(EpidemicParams(**base), Y, AmbiguityConfig(delta, k))


class TestTrueKernel:
    def test_radius_zero_is_nominal(self):
        model = sim_model()
        kern = build_true_kernel(model, PerturbationSpec(radius=0.0))
        idx = model.grid.index_of(1, 1, 0)
        for a in model.actions:
            row = kern(idx, a)
            nominal = model.rows(idx)[model.action_index(a)]
            np.testing.assert_array_equal(row.indices, nominal.indices)
            np.testing.assert_allclose(row.probs, nominal.probs, atol=0)

    def test_l1_budget_and_simplex(self):
        model = sim_model(N=20, Y=3)
        for direction in ("high-infective", "random"):
            kern = build_true_kernel(
                model, PerturbationSpec(radius=0.5, direction=direction, seed=3))
            for lat in [(1, 1, 0), (1, 1, 1), (2, 0, 1)]:
                idx = model.grid.index_of(*lat)
                for a in model.actions:
                    row = kern(idx, a)
                    nominal = model.rows(idx)[model.action_index(a)]
                    assert row.probs.sum() == pytest.approx(1.0, abs=1e-9)
                    assert np.all(row.probs >= -1e-15)
                    base = dict(zip(nominal.indices.tolist(), nominal.probs.tolist()))
                    got = dict(zip(row.indices.tolist(), row.probs.tolist()))
                    l1 = sum(abs(got.get(i, 0.0) - base.get(i, 0.0))
                             for i in set(base) | set(got))
                    assert l1 <= 0.5 + 1e-9

    def test_matches_worst_case_shift(self):
        model = sim_model(N=20, Y=3)
        kern = build_true_kernel(model, PerturbationSpec(radius=0.5))
        idx = model.grid.index_of(1, 1, 1)
        a = Action(0, 0)
        row = kern(idx, a)
        expect = worst_case_shift(model.rows(idx)[model.action_index(a)],
                                  model.grid, 0.5)
        np.testing.assert_allclose(row.probs, expect.probs, atol=0)

    @pytest.mark.parametrize("direction", ["high-infective", "random"])
    def test_shift_matches_the_loop_oracle(self, direction):
        # Random rows on the Y=3 lattice: up to nine entries, so ties at the
        # top p_I are common, about a quarter of the entries zero, one-entry
        # rows, and budgets 0, 2 and in between.
        grid = Grid(GridSpec(3))
        rng = np.random.default_rng(7)
        ties = moved = 0
        for case in range(400):
            size = int(rng.integers(1, 10))
            idx = rng.choice(grid.n_corners, size=size, replace=False)
            probs = rng.random(size) * (rng.random(size) > 0.25)
            probs[probs.argmax()] += 0.1
            row = sparse_row(idx, probs, normalize=True)
            budget = float(rng.choice([0.0, 2.0, rng.uniform(0.0, 2.0)]))
            if direction == "high-infective":
                got = worst_case_shift(row, grid, budget)
                ref = worst_case_shift_loop(row, grid, budget)
            else:
                got = random_shift(row, budget, np.random.default_rng(case))
                ref = random_shift_loop(row, budget, np.random.default_rng(case))
            np.testing.assert_array_equal(got.indices, ref.indices)
            assert np.abs(got.probs - ref.probs).sum() <= 1e-15
            # The loop caps each step at the receiver's room, 1 - p_r, and
            # that rounding can leave an ulp on a donor it empties.
            np.testing.assert_array_equal(got.probs > 1e-15, ref.probs > 1e-15)
            p_I = grid.coords[row.indices][:, 2]
            ties += np.sum(p_I == p_I.max()) > 1
            moved += np.abs(got.probs - row.probs).sum() > 0.1
        assert ties > 100 and moved > 100

    def test_validation(self):
        with pytest.raises(DomainError):
            PerturbationSpec(radius=3.0)
        with pytest.raises(DomainError):
            PerturbationSpec(direction="sideways")
        with pytest.raises(DomainError, match="seed must be >= 0"):
            PerturbationSpec(seed=-1)


class TestRecordedRoutes:
    """RTDP and the rollouts with their recorded backup terms and draw
    tables, against the routes that form them on every step (oracles)."""

    def test_draw_tables_replicate_generator_choice(self):
        # 10,000 draws over 200 rows, one of them a single successor, rows
        # with zero entries among them: each draw is Generator.choice's, and
        # both leave the stream at the same point.
        rng = np.random.default_rng(41)
        for trial in range(200):
            m = 1 if trial == 0 else int(rng.integers(1, 60))
            values = np.sort(rng.choice(2000, size=m, replace=False))
            probs = rng.random(m) ** 4
            probs[rng.random(m) < 0.2] = 0.0
            probs[rng.integers(m)] += 0.5
            probs /= probs.sum()
            table = DrawTable.of(values, probs)
            for seed in range(50):
                ours, theirs = (np.random.default_rng((trial, seed)) for _ in range(2))
                assert table.draw(ours) == int(theirs.choice(values, p=probs)), (trial, seed)
                assert ours.random() == theirs.random()

    def test_sample_next_records_rows_without_a_draw(self):
        # A row with no successor in the simplex makes no draw and stays; a
        # one-successor row draws once, as Generator.choice does.
        rows = sparse_row([3, 5], [0.25, 0.75]), sparse_row([2, 6], [0.5, 0.5])
        model = SimpleNamespace(rows=lambda idx: rows, action_index=lambda a: a.y_R,
                                grid=SimpleNamespace(in_S=np.arange(8) % 2 == 0))
        draws = {}
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert plan._sample_next(model, 4, Action(0, 0), rng, draws) == 4
        assert rng.bit_generator.state == state and draws == {(4, 0): None}
        ref = np.random.default_rng(5)
        for _ in range(3):
            got = plan._sample_next(model, 4, Action(0, 1), rng, draws)
            assert got == sample_next_choice(model, 4, Action(0, 1), ref) in (2, 6)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert set(draws) == {(4, 0), (4, 1)}
        one = SimpleNamespace(rows=lambda idx: rows[:1], action_index=lambda a: 0,
                              grid=SimpleNamespace(in_S=np.arange(8) < 4))
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        assert plan._sample_next(one, 4, Action(0, 0), rng, {}) == 3
        assert sample_next_choice(one, 4, Action(0, 0), ref) == 3
        assert rng.random() == ref.random()

    def test_rtdp_default_equals_the_unrecorded_route(self, monkeypatch):
        # The rtdp-default benchmark pipeline: RTDP (50 sweeps) and 10
        # rollouts under the perturbed kernel.  Every backed-up entry reads
        # the same value and action from its record as from the unrecorded
        # route; the tables, trace and episodes are the same bit for bit.
        model = EpidemicModel(EpidemicParams(N=1000, L=5, M=5, T=12), 10, AmbiguityConfig())
        init = lattice_state_index(model, 0.7, 0.1, 0.2)
        cfg = PlannerConfig(niter=50, early_stop=False)

        def run():
            table, trace = rtdp(model, init, cfg)
            kern = build_true_kernel(model, PerturbationSpec(radius=0.5))
            return table, trace, [run_episode(model, table, cfg, kern, init, seed)
                                  for seed in range(10)]

        table, trace, episodes = run()
        X, lam, k = model.design, model.lam, model.acfg.k
        assert len(table.values) > 100
        for idx, t in sorted(table.values):
            v_next = table.V[t + 1]
            got = backup_state(model, idx, t, v_next, cfg)
            ref = drmdp_backup_enumerate_unrecorded(model.rules(idx), model.actions, v_next,
                                                    lam, k, X)
            assert np.float64(got[0]).tobytes() == np.float64(ref[0]).tobytes()
            assert got[1] == ref[1], (idx, t)
            assert drmdp_backup_enumerate(model.rules(idx), model.actions, v_next, lam, k,
                                          method="parametric", X=X) == got

        calls = []

        def unrecorded(coeffs, actions, v_next, lam, k, method, X, terms=None):
            calls.append(method)
            return drmdp_backup_enumerate_unrecorded(coeffs, actions, v_next, lam, k, X)

        monkeypatch.setattr(plan, "drmdp_backup_enumerate", unrecorded)
        monkeypatch.setattr(plan, "_sample_next", sample_next_choice)
        monkeypatch.setattr(TrueKernel, "draw", kernel_draw_choice)
        ref_table, ref_trace, ref_episodes = run()
        assert len(calls) > len(trace)
        assert table.V.tobytes() == ref_table.V.tobytes()
        assert table.values == ref_table.values
        assert trace.steps == ref_trace.steps
        assert episodes == ref_episodes


class TestRunEpisode:
    def test_disease_free_costs_nothing(self):
        model = sim_model()
        init = model.grid.index_of(2, 0, 0)
        cfg = PlannerConfig(backend="nominal", niter=5, seed=0)
        table, _ = rtdp(model, init, cfg)
        kern = build_true_kernel(model, PerturbationSpec(radius=0.0))
        rec = run_episode(model, table, cfg, kern, init, seed=1)
        assert rec.total_reward == pytest.approx(0.0, abs=1e-9)
        assert all(a == Action(0, 0) for a in rec.actions)

    def test_escape_absorbs_without_compiling(self):
        # Rows can put mass on corners outside the simplex.  A rollout that
        # reaches one stays there at action (0, 0) and reward 0, and no rows
        # are compiled for it.
        model = sim_model(N=12, Y=3, T=5)
        init = model.grid.index_of(1, 1, 1)
        cfg = PlannerConfig(backend="nominal", niter=10, seed=0)
        table, _ = rtdp(model, init, cfg)
        kern = build_true_kernel(model, PerturbationSpec(radius=0.5))
        escaped = 0
        for seed in range(10):
            rec = run_episode(model, table, cfg, kern, init, seed=seed)
            inside = model.grid.in_S[rec.states]
            if inside.all():
                continue
            escaped += 1
            t = int(np.argmin(inside))  # the first stage outside, from 0
            assert rec.states[t:] == [rec.states[t]] * (model.T - t)
            assert rec.actions[t:] == [Action(0, 0)] * (model.T - 1 - t)
            assert rec.rewards[t:] == [0.0] * (model.T - 1 - t)
        assert escaped > 0
        assert model.grid.in_S[sorted(model._rows)].all()

    def test_discounting_identity(self):
        model = sim_model(N=12, Y=3, T=5)
        init = model.grid.index_of(1, 1, 1)
        cfg = PlannerConfig(backend="nominal", niter=10, seed=0)
        table, _ = rtdp(model, init, cfg)
        kern = build_true_kernel(model, PerturbationSpec(radius=0.5))
        for seed in range(5):
            rec = run_episode(model, table, cfg, kern, init, seed=seed)
            lam = model.lam
            expect = sum(lam ** (t - 1) * r for t, r in enumerate(rec.rewards, 1))
            assert rec.total_reward == pytest.approx(expect, abs=1e-9)
            assert len(rec.states) == model.T
            assert len(rec.actions) == model.T - 1

    def test_deterministic_under_seed(self):
        model = sim_model(N=12, Y=3, T=5)
        init = model.grid.index_of(1, 1, 1)
        cfg = PlannerConfig(backend="nominal", niter=10, seed=0)
        table, _ = rtdp(model, init, cfg)
        kern = build_true_kernel(model, PerturbationSpec(radius=0.5))
        a = run_episode(model, table, cfg, kern, init, seed=7)
        b = run_episode(model, table, cfg, kern, init, seed=7)
        assert a == b

    def test_rollouts_back_up_each_entry_once(self, monkeypatch):
        # Episodes on one planned table share its greedy actions: a
        # (state, stage) entry is backed up when a rollout first reaches it.
        model = sim_model(N=12, Y=3, T=5)
        init = model.grid.index_of(1, 1, 1)
        cfg = PlannerConfig(backend="drmdp-enumerate", niter=10, seed=0)
        table, _ = rtdp(model, init, cfg)
        kern = build_true_kernel(model, PerturbationSpec(radius=0.5))
        backups = []
        backup_one = plan.backup_state

        def counting(model, idx, t, v_next, cfg):
            backups.append((idx, t))
            return backup_one(model, idx, t, v_next, cfg)

        monkeypatch.setattr(plan, "backup_state", counting)
        records = [run_episode(model, table, cfg, kern, init, seed) for seed in range(20)]
        visited = {(s, t) for rec in records for t, s in enumerate(rec.states[:-1], start=1)
                   if model.grid.in_S[s]}
        assert sorted(backups) == sorted(visited)
        assert [run_episode(model, table, cfg, kern, init, 3)] == records[3:4]
        assert len(backups) == len(visited)

    def test_mean_total_approaches_dp_value(self):
        # Monte Carlo under the nominal kernel with the DP-optimal policy.
        model = sim_model(N=8, Y=2, T=4)
        init = model.grid.index_of(1, 1, 0)
        cfg = PlannerConfig(backend="nominal")
        table = backward_dp(model, cfg)
        kern = build_true_kernel(model, PerturbationSpec(radius=0.0))
        totals = [run_episode(model, table, cfg, kern, init, seed=s).total_reward
                  for s in range(4000)]
        mean = float(np.mean(totals))
        se = float(np.std(totals, ddof=1) / np.sqrt(len(totals)))
        assert abs(mean - table.values[(init, 1)]) <= 3.0 * se + 1e-9


class TestCompare:
    def test_structure_and_determinism(self):
        params = EpidemicParams(N=10, mu=10.0, beta=0.025, alpha0=0.9, l_C=0.5,
                                l_D=1 / 3, Q=0.5, k_R=0.5, W=2.0, L=1, M=1,
                                lam=0.95, T=3)
        acfg = AmbiguityConfig(0.05, 1000.0)
        kwargs = dict(backends=("nominal", "drmdp-enumerate"),
                      p_S1_list=(0.5,), p_E1=0.5, kernels=("nominal", "perturbed"),
                      pspec=PerturbationSpec(), nseeds=3)
        pcfg = PlannerConfig(niter=8)
        eps1, sum1 = compare_models(EpidemicModel(params, 2, acfg), pcfg, **kwargs)
        eps2, sum2 = compare_models(EpidemicModel(params, 2, acfg), pcfg, **kwargs)
        assert eps1 == eps2
        assert sum1 == sum2
        assert {r["backend"] for r in eps1} == {"nominal", "drmdp-enumerate"}
        assert {r["kernel"] for r in eps1} == {"nominal", "perturbed"}
        # per backend x kernel: nseeds x (T-1) episode rows
        assert len(eps1) == 2 * 2 * 3 *decision_stages(params.T)
        expected_cols = {"backend", "kernel", "p_S1", "seed", "stage", "y_V",
                         "y_R", "reward", "pct_infective", "pct_recovered",
                         "total_reward"}
        assert set(eps1[0]) == expected_cols

    def test_rejects_off_lattice_initials(self):
        params = EpidemicParams(N=10, T=3, L=1, M=1)
        with pytest.raises(DomainError):
            compare_models(EpidemicModel(params, 2, AmbiguityConfig(0.05, 1000.0)),
                           PlannerConfig(niter=1), backends=("nominal",),
                           p_S1_list=(0.61,), p_E1=0.1, kernels=("nominal",),
                           pspec=PerturbationSpec(), nseeds=1)

    def test_run_settings_are_required_keywords(self):
        # The run config is the one source of these settings: neither entry
        # point carries defaults that could drift from it.
        for fn, first in ((compare_models, "backends"), (sensitivity_sweep, "nseeds")):
            params = list(inspect.signature(fn).parameters.values())
            run = params[[p.name for p in params].index(first):]
            assert all(p.kind is p.KEYWORD_ONLY for p in run), fn.__name__
            assert all(p.default is p.empty for p in params), fn.__name__


def decision_stages(T: int) -> int:
    return T - 1


class TestSensitivity:
    def test_unknown_param_rejected(self):
        params = EpidemicParams(N=10, T=3, L=1, M=1)
        with pytest.raises(DomainError):
            sensitivity_sweep(params, 2, AmbiguityConfig(0.05, 1000.0),
                              PlannerConfig(), "sigma", (1.0,), nseeds=1,
                              pspec=PerturbationSpec(), scenario=(0.7, 0.1))

    def test_rows_and_aggregate(self):
        params = EpidemicParams(N=10, mu=10.0, beta=0.025, alpha0=0.9, l_C=0.5,
                                l_D=1 / 3, Q=0.5, k_R=0.5, W=2.0, L=1, M=1,
                                lam=0.95, T=3)
        acfg = AmbiguityConfig(0.05, 1000.0)
        rows = sensitivity_sweep(params, 5, acfg, PlannerConfig(niter=5), "W",
                                 (0.5, 5.0), nseeds=2, pspec=PerturbationSpec(),
                                 scenario=(0.6, 0.2))
        assert {r["value"] for r in rows} == {0.5, 5.0}
        agg = aggregate_infectives(rows, "W", 0.5)
        assert agg >= 0.0
        # mu_beta sweep runs through the product path
        rows2 = sensitivity_sweep(params, 5, acfg, PlannerConfig(niter=3),
                                  "mu_beta", (0.25,), nseeds=1,
                                  pspec=PerturbationSpec(),
                                  scenario=(0.6, 0.2))
        assert rows2
