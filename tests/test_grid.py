import numpy as np
import pytest

from epiplan import Action, ContinuousState, DomainError, EpidemicParams
from epiplan.grid import (
    GridSpec,
    SparseDistribution,
    build_grid,
    cache_key,
    discrete_reward,
    discretize_kernel,
    simplex_corners,
    terminal_reward,
)
from epiplan.seir import ENTRY_TOL, nominal_reward, transition_pmf


def toy_params(**kw):
    base = dict(N=4, mu=10.0, beta=0.025, alpha0=0.9, l_C=0.5, l_D=1 / 3,
                Q=2.0, k_R=3.0, W=1.0, L=2, M=2, lam=0.95, T=4)
    base.update(kw)
    return EpidemicParams(**base)


def row_of(grid, params, idx, action):
    """The kernel row of one action, from the per-state push."""
    return discretize_kernel(grid, params, idx)[params.actions().index(action)]


def per_action_push(grid, params, idx):
    """Reference rows: each action's atom table located and accumulated alone."""
    rows = []
    for a in params.actions():
        if not grid.in_S[idx]:
            rows.append((np.array([idx]), np.array([1.0])))
            continue
        tbl = transition_pmf(params, grid.state_of(idx), a)
        corners, wts, _ = grid.locate_many(tbl.points)
        mass = np.bincount(corners.ravel(), weights=(wts * tbl.probs[:, None]).ravel(),
                           minlength=grid.n_corners)
        support = np.nonzero(mass >= ENTRY_TOL)[0]
        rows.append((support, mass[support] / mass[support].sum()))
    return rows


def locate_by_argsort(grid, pts):
    """Reference point location: stable descending argsort of the fractional
    parts, vertex path by cumulative sum of unit steps, label by rank lookup."""
    Y = grid.Y
    scaled = np.clip(pts, 0.0, 1.0) * Y
    cell = np.minimum(scaled.astype(np.int64), Y - 1)
    frac = scaled - cell
    order = np.argsort(-frac, axis=1, kind="stable")
    fs = np.take_along_axis(frac, order, axis=1)
    weights = np.stack([1.0 - fs[:, 0], fs[:, 0] - fs[:, 1], fs[:, 1] - fs[:, 2],
                        fs[:, 2]], axis=1)
    step = np.zeros((len(pts), 4, 3), dtype=np.int64)
    rows = np.arange(len(pts))
    for j in range(3):
        step[rows, j + 1, order[:, j]] = 1
    verts = cell[:, None, :] + np.cumsum(step, axis=1)
    side = Y + 1
    idx = (verts[:, :, 0] * side + verts[:, :, 1]) * side + verts[:, :, 2]
    perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]
    label = np.array([perms.index(list(o)) for o in order])
    return idx, weights, label


class TestBuildGrid:
    def test_unit_grid_counts(self):
        g = build_grid(GridSpec(1))
        assert g.n_corners == 8
        in_s = [tuple(g.lattice[i]) for i in g.in_S_indices()]
        assert sorted(in_s) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_counts_at_larger_sizes(self):
        assert build_grid(GridSpec(4)).n_corners == 125
        assert build_grid(GridSpec(30)).n_corners == 29791

    def test_index_bijection(self):
        g = build_grid(GridSpec(3))
        for idx in range(g.n_corners):
            i, j, k = g.corner(idx).lattice
            assert g.index_of(i, j, k) == idx

    def test_invalid_spec(self):
        with pytest.raises(DomainError):
            GridSpec(0)

    def test_state_index_roundtrip(self):
        g = build_grid(GridSpec(10))
        idx = g.state_index(ContinuousState(0.7, 0.1, 0.2))
        assert g.corner(idx).coords == (0.7, 0.1, 0.2)
        with pytest.raises(DomainError):
            g.state_index(ContinuousState(0.65, 0.1, 0.2))


class TestLocate:
    def test_exact_corner(self):
        g = build_grid(GridSpec(2))
        bw = g.locate((0.5, 0.5, 0.0))
        assert bw.weights == (1.0,)
        assert g.corner(bw.corners[0]).coords == (0.5, 0.5, 0.0)

    def test_known_weight_path(self):
        g = build_grid(GridSpec(1))
        bw = g.locate((0.5, 0.25, 0.125))
        got = {tuple(g.corner(c).lattice): w for c, w in zip(bw.corners, bw.weights)}
        assert got == pytest.approx(
            {(0, 0, 0): 0.5, (1, 0, 0): 0.25, (1, 1, 0): 0.125, (1, 1, 1): 0.125}
        )

    def test_reconstruction_many_points(self):
        rng = np.random.default_rng(3)
        for Y in (1, 3, 7):
            g = build_grid(GridSpec(Y))
            pts = rng.random((10_000, 3))
            idx, wts, _ = g.locate_many(pts)
            assert np.all(wts >= -1e-15)
            np.testing.assert_allclose(wts.sum(axis=1), 1.0, atol=1e-12)
            recon = (g.coords[idx] * wts[:, :, None]).sum(axis=1)
            np.testing.assert_allclose(recon, pts, atol=1e-12)

    def test_simplex_labels_equal_volume(self):
        rng = np.random.default_rng(9)
        g = build_grid(GridSpec(2))
        pts = rng.random((60_000, 3))
        _, _, labels = g.locate_many(pts)
        freq = np.bincount(labels, minlength=6) / len(pts)
        assert np.all(np.abs(freq - 1 / 6) < 0.02)

    def test_cube_diagonal_corners_shared_by_all_simplexes(self):
        # The cell's low and high corners sit on every one of the six simplexes;
        # each simplex has exactly four distinct corners.
        for perm in range(6):
            verts = simplex_corners(perm)
            assert len(set(verts)) == 4
            assert (0, 0, 0) in verts
            assert (1, 1, 1) in verts

    def test_vertex_membership_counts(self):
        # Face-diagonal corners belong to exactly two of the six simplexes.
        memberships = {}
        for perm in range(6):
            for v in simplex_corners(perm):
                memberships.setdefault(v, set()).add(perm)
        assert len(memberships[(0, 0, 0)]) == 6
        assert len(memberships[(1, 1, 1)]) == 6
        for v, owners in memberships.items():
            ones = sum(v)
            if ones in (1, 2):
                assert len(owners) == 2, v

    def test_matches_argsort_formula_on_ties(self):
        # Fractional parts tying on two or three axes, or equal to 0, on
        # interior cells and on the top cell, where the cell index is clamped.
        g = build_grid(GridSpec(4))
        levels = [0.0, 0.125, 0.5, 0.875]
        fracs = np.array([(a, b, c) for a in levels for b in levels for c in levels])
        pts = np.concatenate([(cell + fracs) / 4 for cell in
                              ((0, 0, 0), (1, 2, 3), (3, 3, 3))] + [np.ones((1, 3))])
        got = g.locate_many(pts)
        want = locate_by_argsort(g, pts)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_outside_cube_rejected(self):
        g = build_grid(GridSpec(2))
        with pytest.raises(DomainError):
            g.locate((1.2, 0.0, 0.0))


class TestSparseDistribution:
    def test_sorted_and_validated(self):
        d = SparseDistribution(np.array([5, 2]), np.array([0.25, 0.75]))
        assert list(d.indices) == [2, 5]
        assert list(d.probs) == [0.75, 0.25]

    def test_bad_sum_rejected(self):
        with pytest.raises(DomainError):
            SparseDistribution(np.array([0, 1]), np.array([0.5, 0.6]))

    def test_duplicate_rejected(self):
        with pytest.raises(DomainError):
            SparseDistribution(np.array([1, 1]), np.array([0.5, 0.5]))

    def test_dot(self):
        d = SparseDistribution(np.array([0, 3]), np.array([0.5, 0.5]))
        vals = np.array([2.0, 9.0, 9.0, 4.0])
        assert d.dot(vals) == pytest.approx(3.0)


class TestDiscretizeKernel:
    def test_absorbing_outside_S(self):
        g = build_grid(GridSpec(2))
        p = toy_params()
        idx = g.index_of(2, 2, 2)  # fractions sum to 3
        rows = discretize_kernel(g, p, idx)
        assert len(rows) == len(p.actions())
        assert all(row.as_dict() == {idx: 1.0} for row in rows)

    def test_disease_free_self_loop(self):
        g = build_grid(GridSpec(2))
        p = toy_params()
        idx = g.index_of(0, 0, 0)
        assert all(row.as_dict() == {idx: 1.0} for row in discretize_kernel(g, p, idx))

    def test_row_matches_atom_enumeration(self):
        # Oracle: enumerate atoms with scalar pmfs, locate each one, accumulate.
        g = build_grid(GridSpec(2))
        p = toy_params(N=4)
        idx = g.index_of(1, 1, 0)  # state (0.5, 0.5, 0)
        a = Action(1, 0)
        from epiplan import binomial_pmf, compile_rates

        state = g.state_of(idx)
        rates = compile_rates(p, state, a)
        trials = round(2 * (1 - a.y_V / p.L))
        expect: dict[int, float] = {}
        for nB in range(trials + 1):
            for nC in range(2 + 1):
                pr = binomial_pmf(trials, rates.phi, nB) * binomial_pmf(2, rates.rho_C, nC)
                pt = ((trials - nB) / 4, (2 + nB - nC) / 4, nC / 4)
                bw = g.locate(pt)
                for c, w in zip(bw.corners, bw.weights):
                    expect[c] = expect.get(c, 0.0) + w * pr
        row = row_of(g, p, idx, a)
        got = row.as_dict()
        for c, v in expect.items():
            if v > 1e-12:
                assert got[c] == pytest.approx(v, rel=1e-9), c
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("N, Y, lattice", [
        pytest.param(4, 2, (2, 2, 2), id="absorbing"),          # outside S
        pytest.param(9, 3, (3, 0, 0), id="disease-free"),       # only susceptibles
        pytest.param(9, 3, (1, 2, 0), id="no-infectives"),      # p_I = 0, phi = 0
        pytest.param(9, 3, (1, 1, 1), id="all-random"),         # B, C, D all drawn
        pytest.param(1000, 10, (7, 1, 2), id="default-initial"),  # (0.7, 0.1, 0.2)
    ])
    def test_rows_match_per_action_push(self, N, Y, lattice):
        g = build_grid(GridSpec(Y))
        p = EpidemicParams(N=N)
        idx = g.index_of(*lattice)
        rows = discretize_kernel(g, p, idx)
        ref = per_action_push(g, p, idx)
        assert len(rows) == len(ref) == len(p.actions())
        for a, row, (support, probs) in zip(p.actions(), rows, ref):
            np.testing.assert_array_equal(row.indices, support, err_msg=str(a))
            assert np.abs(row.probs - probs).sum() <= 1e-9, a

    def test_full_vaccination_rows_equal(self):
        # y_V = L leaves no susceptible to expose, so y_R changes nothing.
        g = build_grid(GridSpec(3))
        p = toy_params(N=9)
        rows = discretize_kernel(g, p, g.index_of(1, 1, 1))
        full = [r for a, r in zip(p.actions(), rows) if a.y_V == p.L]
        assert len(full) == p.M + 1
        for r in full[1:]:
            np.testing.assert_array_equal(r.indices, full[0].indices)
            np.testing.assert_allclose(r.probs, full[0].probs, rtol=0, atol=1e-15)

    def test_rows_sum_to_one_random_states(self):
        g = build_grid(GridSpec(3))
        p = toy_params(N=9)
        for idx in g.in_S_indices():
            for row in discretize_kernel(g, p, int(idx)):
                assert row.probs.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(row.probs >= 0)

    def test_boundary_mass_can_reach_absorbing_corners(self):
        # Atoms near the p_S+p_E+p_I = 1 face may lend weight to corners
        # outside S; that mass must stay there rather than be redistributed.
        g = build_grid(GridSpec(2))
        p = toy_params(N=4)
        idx = g.index_of(1, 0, 1)  # (0.5, 0, 0.5)
        row = row_of(g, p, idx, Action(0, 0))
        outside = [i for i in row.indices if not g.in_S[i]]
        inside_mass = sum(pr for i, pr in row.as_dict().items() if g.in_S[i])
        assert inside_mass > 0.5
        for i in outside:
            assert row.as_dict()[i] >= 0


class TestRewardAndSupport:
    def test_discrete_reward_outside_S_zero(self):
        g = build_grid(GridSpec(2))
        p = toy_params()
        idx = g.index_of(2, 2, 1)
        assert discrete_reward(g, p, idx, Action(2, 2)) == 0.0

    def test_discrete_reward_matches_seir(self):
        g = build_grid(GridSpec(2))
        p = toy_params()
        idx = g.index_of(1, 1, 0)
        a = Action(1, 2)
        assert discrete_reward(g, p, idx, a) == nominal_reward(p, g.state_of(idx), a)

    def test_terminal_reward_zero(self):
        g = build_grid(GridSpec(2))
        assert terminal_reward(g, 3) == 0.0

    def test_disease_free_support_is_self(self):
        g = build_grid(GridSpec(2))
        p = toy_params()
        idx = g.index_of(1, 0, 0)
        # No exposed/infectious: every action leaves a point mass on p_E=p_I=0.
        for row in discretize_kernel(g, p, idx):
            for s in row.indices:
                lat = g.corner(int(s)).lattice
                assert lat[1] == 0 and lat[2] == 0


class TestCacheKey:
    def test_changes_with_params(self):
        a = cache_key(toy_params(), 5, 0.05)
        b = cache_key(toy_params(N=5), 5, 0.05)
        c = cache_key(toy_params(), 6, 0.05)
        d = cache_key(toy_params(), 5, 0.1)
        assert len({a, b, c, d}) == 4

    def test_stable(self):
        assert cache_key(toy_params(), 5, 0.05) == cache_key(toy_params(), 5, 0.05)
