import math

import numpy as np
import pytest

from epiplan import (
    Action,
    ContinuousState,
    DomainError,
    EpidemicParams,
    transition_pmf,
)
from epiplan import seir
from epiplan.seir import (MARGINAL_TOL, binomial_row, binomial_rows, exposure_prob,
                          segment_sums, stage_rewards)
from oracles import binomial_pmf, binomial_row_alone


def small_params(**kw):
    base = dict(N=10, mu=10.0, beta=0.025, alpha0=0.9, l_C=0.5, l_D=1 / 3,
                Q=2.0, k_R=3.0, W=1.0, L=5, M=5, lam=0.95, T=4)
    base.update(kw)
    return EpidemicParams(**base)


class TestCompileRates:
    """The per-period rates: exposure_prob and the params' rho_C and rho_D."""

    def test_no_infectives_means_no_exposure(self):
        p = small_params()
        s = ContinuousState(0.5, 0.2, 0.0)
        assert exposure_prob(p, s, Action(0, 0)) == 0.0
        assert exposure_prob(p, s, Action(3, 2)) == 0.0

    def test_full_reduction_kills_exposure(self):
        p = small_params(alpha0=1.0)
        s = ContinuousState(0.5, 0.2, 0.2)
        assert exposure_prob(p, s, Action(0, p.M)) == 0.0

    def test_closed_form_value(self):
        # 1 - exp(-mu * p_I * beta) with mu=10, beta=0.025, p_I=0.2
        p = small_params()
        s = ContinuousState(0.4, 0.2, 0.2)
        phi = exposure_prob(p, s, Action(0, 0))
        assert phi == pytest.approx(1.0 - math.exp(-0.05), abs=1e-12)
        assert phi == pytest.approx(0.0487706, abs=1e-6)
        assert p.rho_C == pytest.approx(1.0 - math.exp(-0.5), abs=1e-15)
        assert p.rho_D == pytest.approx(1.0 - math.exp(-1 / 3), abs=1e-15)

    def test_phi_nonincreasing_in_y_R(self):
        p = small_params()
        s = ContinuousState(0.4, 0.2, 0.3)
        phis = [exposure_prob(p, s, Action(0, r)) for r in range(p.M + 1)]
        assert all(a >= b - 1e-15 for a, b in zip(phis, phis[1:]))

    def test_action_out_of_bounds(self):
        p = small_params()
        s = ContinuousState(0.4, 0.2, 0.2)
        with pytest.raises(DomainError):
            exposure_prob(p, s, Action(p.L + 1, 0))


class TestBinomialPmf:
    def test_zero_probability(self):
        assert binomial_pmf(5, 0.0, 0) == 1.0
        assert binomial_pmf(5, 0.0, 3) == 0.0

    def test_direct_formula(self):
        assert binomial_pmf(4, 0.5, 2) == pytest.approx(0.375, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binomial_pmf(10, 0.3, 11)
        with pytest.raises(DomainError):
            binomial_pmf(10, 1.5, 2)
        with pytest.raises(DomainError):
            binomial_pmf(10, 0.3, -1)

    def test_large_n_no_overflow(self):
        v = binomial_pmf(100000, 0.3, 30000)
        assert 0.0 < v < 1.0
        assert np.isfinite(v)

    def test_row_sums_to_one(self):
        for n, p in [(17, 0.3), (40, 0.05), (8, 0.9)]:
            total = sum(binomial_pmf(n, p, k) for k in range(n + 1))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestBinomialRow:
    """The truncated marginal the kernel push uses, against the exact oracle."""

    DEFAULT = EpidemicParams()
    CASES = [(1, 0.3), (17, 0.3), (40, 0.05), (8, 0.9), (1000, 0.5),
             (1000, 0.001), (1000, DEFAULT.rho_C), (1000, DEFAULT.rho_D),
             (100_000, 0.3), (100_000, 0.97)]

    @pytest.mark.parametrize("p, k", [(0.0, 0), (1.0, 25)])
    def test_certain_outcome_is_one_atom(self, p, k):
        ks, probs = binomial_row(25, p)
        assert ks.tolist() == [k]
        assert probs.tolist() == [1.0]

    @pytest.mark.parametrize("n, p", CASES)
    def test_kept_entries_match_oracle(self, n, p):
        ks, probs = binomial_row(n, p)
        assert np.all(probs >= MARGINAL_TOL)
        rtol = 1e-13
        if n > 1000:
            # One exact comb costs about 0.1 s here: check both ends, the
            # mode and 20 evenly spaced kept entries.
            pick = np.unique(np.r_[np.linspace(0, len(ks) - 1, 21).round().astype(int),
                                   np.argmax(probs)])
            ks, probs, rtol = ks[pick], probs[pick], 5e-13
        expect = np.array([binomial_pmf(n, p, int(k)) for k in ks])
        np.testing.assert_allclose(probs, expect, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("n, p", CASES)
    def test_kept_mass_sums_to_one(self, n, p):
        assert abs(binomial_row(n, p)[1].sum() - 1.0) <= 1e-9

    def test_support_is_an_integer_range(self):
        # The pmf is unimodal, so the entries kept above MARGINAL_TOL form one
        # run around the mode; grid.discretize_kernel relies on it.
        ns = [1, 2, 3, 7, 10, 33, 100, 999, 1000, 12_345, 100_000]
        ps = [1e-300, 1e-12, 1e-6, 1e-3, 0.3, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.7,
              1 - 1e-3, 1 - 1e-6, 1 - 1e-12]
        for n in ns:
            for p in ps:
                ks = binomial_row(n, p)[0]
                assert len(ks) >= 1 and np.all(np.diff(ks) == 1), (n, p)

    def test_rows_of_many_pairs_equal_each_row_alone(self):
        # binomial_rows builds the rows of every (n, p) pair at once, padded
        # to the largest n: each must be the one-row ratio recurrence's bit
        # for bit, and zero past its n, with certain outcomes, a mode at
        # either end, and random pairs among them.
        rng = np.random.default_rng(11)
        ns = np.r_[[0, 1, 7, 40, 299, 300, 1000], rng.integers(0, 2000, size=6)]
        ps = np.r_[[0.0, 1e-9, 0.05, self.DEFAULT.rho_C, self.DEFAULT.rho_D, 0.5, 0.97,
                    1 - 1e-15, 1.0], rng.random(6)]
        pmf, keep = binomial_rows(ns[:, None], ps[None, :])
        assert pmf.shape == keep.shape == (len(ns), len(ps), ns.max() + 1)
        for i, n in enumerate(ns.tolist()):
            for j, p in enumerate(ps.tolist()):
                ks, probs = binomial_row_alone(n, p)
                assert np.flatnonzero(keep[i, j]).tolist() == ks.tolist(), (n, p)
                assert pmf[i, j, ks].tobytes() == probs.tobytes(), (n, p)
                assert not pmf[i, j, n + 1:].any()
                alone = binomial_row(n, p)
                assert alone[0].tolist() == ks.tolist()
                assert alone[1].tobytes() == probs.tobytes(), (n, p)

    def test_segment_sums_equal_each_slice_summed(self):
        # Segments of one length are summed as the rows of one array, which
        # must give each segment's own ndarray.sum bit for bit, around numpy's
        # pairwise-sum cutoffs (8 entries unrolled, blocks of 128), for
        # values across 18 orders of magnitude, empty segments included.
        rng = np.random.default_rng(5)
        lengths = np.repeat(np.r_[0:10, 127:131], 5)
        rng.shuffle(lengths)
        values = np.exp(rng.uniform(np.log(1e-16), np.log(1e2), size=lengths.sum() + 40))
        starts = np.cumsum(lengths) - lengths + rng.integers(0, 40, size=len(lengths))
        sums = segment_sums(values, starts, lengths)
        want = [values[a:a + n].sum() for a, n in zip(starts, lengths)]
        assert sums.tobytes() == np.array(want).tobytes()

    def test_fallback_keeps_the_mode(self, monkeypatch):
        # With a tolerance above every entry, only the most likely count stays.
        monkeypatch.setattr(seir, "MARGINAL_TOL", 1.0)
        n, p = 40, 0.3
        ks, probs = binomial_row(n, p)
        pmf = [binomial_pmf(n, p, k) for k in range(n + 1)]
        assert ks.tolist() == [int(np.argmax(pmf))]
        assert probs[0] == pytest.approx(max(pmf), rel=1e-12)


class TestTransitionPmf:
    def test_degenerate_state_self_loop(self):
        p = small_params()
        s = ContinuousState(0.4, 0.0, 0.0)
        tbl = transition_pmf(p, s, Action(0, 0))
        assert len(tbl) == 1
        assert tbl.probs[0] == pytest.approx(1.0)
        np.testing.assert_allclose(tbl.points[0], [0.4, 0.0, 0.0])

    def test_no_infectives_only_incubation_moves(self):
        p = small_params()
        s = ContinuousState(0.4, 0.3, 0.0)
        tbl = transition_pmf(p, s, Action(0, 0))
        # n_B = n_D = 0 forced, so mass over n_C matches Bin(N*p_E, rho_C)
        n_E = round(p.N * 0.3)
        assert len(tbl) == n_E + 1
        for (n_B, n_C, n_D), pr in zip(tbl.draws, tbl.probs):
            assert n_B == 0 and n_D == 0
            assert pr == pytest.approx(binomial_pmf(n_E, p.rho_C, int(n_C)), rel=1e-9)

    def test_matches_exhaustive_enumeration(self):
        # Oracle: direct triple loop over all (n_B, n_C, n_D) with scalar pmfs.
        p = small_params(N=10)
        s = ContinuousState(0.4, 0.2, 0.2)
        a = Action(0, 0)
        phi = exposure_prob(p, s, a)
        n_S, n_E, n_I = 4, 2, 2
        expect = {}
        for n_B in range(n_S + 1):
            for n_C in range(n_E + 1):
                for n_D in range(n_I + 1):
                    pr = (
                        binomial_pmf(n_S, phi, n_B)
                        * binomial_pmf(n_E, p.rho_C, n_C)
                        * binomial_pmf(n_I, p.rho_D, n_D)
                    )
                    expect[(n_B, n_C, n_D)] = pr

        tbl = transition_pmf(p, s, a)
        got = {tuple(map(int, d)): pr for d, pr in zip(tbl.draws, tbl.probs)}
        total = sum(expect.values())
        for key, pr in expect.items():
            if pr >= 1e-11:
                assert got[key] == pytest.approx(pr / total, rel=1e-6), key

    def test_vaccination_removes_susceptibles_before_exposure(self):
        p = small_params(N=10)
        s = ContinuousState(0.4, 0.0, 0.2)
        tbl = transition_pmf(p, s, Action(p.L, 0))  # vaccinate everyone
        # trials for exposure are zero, so p_S' = 0 in every atom
        assert np.all(tbl.points[:, 0] == 0.0)

    def test_rows_sum_to_one(self):
        p = small_params(N=50)
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.multinomial(50, [0.4, 0.2, 0.2, 0.2])
            s = ContinuousState(n[0] / 50, n[1] / 50, n[2] / 50)
            a = Action(int(rng.integers(0, 6)), int(rng.integers(0, 6)))
            tbl = transition_pmf(p, s, a)
            assert tbl.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(tbl.probs >= 0)

    def test_expected_new_exposures_monotone_in_action(self):
        p = small_params(N=100)
        s = ContinuousState(0.5, 0.2, 0.2)
        def expected_exposures(a):
            tbl = transition_pmf(p, s, a)
            return float(np.dot(tbl.draws[:, 0], tbl.probs))
        base = expected_exposures(Action(0, 0))
        for v in range(1, p.L + 1):
            nxt = expected_exposures(Action(v, 0))
            assert nxt <= base + 1e-9
            base = nxt
        base = expected_exposures(Action(0, 0))
        for r in range(1, p.M + 1):
            nxt = expected_exposures(Action(0, r))
            assert nxt <= base + 1e-9
            base = nxt


class TestNominalReward:
    def test_disease_free_no_action_is_free(self):
        p = small_params()
        s = ContinuousState(0.6, 0.0, 0.0)
        assert stage_rewards(p, s, 0, 0) == 0.0

    def test_closed_form_example(self):
        p = EpidemicParams(N=100, mu=10, beta=0.025, alpha0=0.9, l_C=0.5,
                           l_D=1 / 3, Q=2, k_R=3, W=1, L=5, M=5, lam=0.95, T=4)
        s = ContinuousState(0.6, 0.1, 0.2)
        r = stage_rewards(p, s, 5, 2)
        c_I = 20 + 10 * (1 - math.exp(-0.5)) - 20 * (1 - math.exp(-1 / 3))
        assert r == pytest.approx(-(120 + 6 + c_I), abs=1e-9)
        assert r == pytest.approx(-144.265, abs=1e-3)

    def test_vaccination_cost_strictly_increasing(self):
        p = small_params(N=100)
        s = ContinuousState(0.5, 0.1, 0.1)
        rewards = [stage_rewards(p, s, v, 0) for v in range(p.L + 1)]
        assert all(a > b for a, b in zip(rewards, rewards[1:]))

    def test_components_nonnegative(self):
        p = small_params(N=100)
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.multinomial(100, [0.3, 0.2, 0.2, 0.3])
            s = ContinuousState(n[0] / 100, n[1] / 100, n[2] / 100)
            a = Action(int(rng.integers(0, 6)), int(rng.integers(0, 6)))
            assert stage_rewards(p, s, a.y_V, a.y_R) <= 1e-12


class TestStateValidation:
    def test_fraction_ranges(self):
        with pytest.raises(DomainError):
            ContinuousState(-0.1, 0.2, 0.2)
        with pytest.raises(DomainError):
            ContinuousState(0.6, 0.3, 0.2)

    def test_counts_round(self):
        s = ContinuousState(1 / 3, 1 / 3, 1 / 3)
        assert s.counts(30) == (10, 10, 10)
        assert s.counts(10) == (3, 3, 3)


class TestParamsValidation:
    @pytest.mark.parametrize("field", ["mu", "l_C", "l_D", "Q", "k_R", "W"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            small_params(**{field: value})
