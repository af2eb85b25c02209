import math
import re

import numpy as np
import pytest

from epiplan import Action, ContinuousState, DomainError, EpidemicParams
from epiplan import grid as grid_module
from epiplan.errors import RowError
from epiplan.grid import Grid, GridSpec, SparseDistribution, cache_key, discretize_kernel
from epiplan.model import EpidemicModel
from epiplan.rules import AmbiguityConfig
from epiplan.seir import (
    ENTRY_TOL,
    JOINT_TOL,
    binomial_row,
    binomial_rows,
    exposure_prob,
    stage_rewards,
    transition_pmf,
    vaccination_trials,
)
from oracles import binomial_pmf, binomial_row_alone, sparse_row


def toy_params(**kw):
    base = dict(N=4, mu=10.0, beta=0.025, alpha0=0.9, l_C=0.5, l_D=1 / 3,
                Q=2.0, k_R=3.0, W=1.0, L=2, M=2, lam=0.95, T=4)
    base.update(kw)
    return EpidemicParams(**base)


def as_dict(row):
    return dict(zip(row.indices.tolist(), row.probs.tolist()))


def locate_one(grid, point):
    """Corners and weights of one point, zero-weight corners dropped."""
    idx, wts = grid.locate_many(np.array([point], dtype=np.float64))
    return [(int(c), float(w)) for c, w in zip(idx[0], wts[0]) if w > 0.0]


def simplex_vertices(grid, n_points=6_000, seed=0):
    """Lattice offsets of each simplex's corners from its cell's low corner,
    collected from locate_many on random points of the Y = 1 grid, each
    labelled by locate_by_argsort."""
    assert grid.Y == 1
    pts = np.random.default_rng(seed).random((n_points, 3))
    idx, _ = grid.locate_many(pts)
    labels = locate_by_argsort(grid, pts)[2]
    verts = {}
    for corners, label in zip(idx, labels):
        verts.setdefault(int(label), set()).update(
            tuple(int(x) for x in grid.lattice[c]) for c in corners)
    return verts


def row_of(grid, params, idx, action):
    """The kernel row of one action, from a one-corner push."""
    [rows] = discretize_kernel(grid, params, [idx])
    return rows[params.actions().index(action)]


def transition_atoms(params, state, action):
    """Successor points and masses of one action's atom table."""
    tbl = transition_pmf(params, state, action)
    return tbl.points, tbl.probs


def action_free_atoms(params, state, action):
    """The atoms of transition_atoms, with JOINT_TOL applied to the
    action-free factor pC*pD instead of the joint mass: the law that
    discretize_kernel pushes."""
    N = params.N
    n_S, n_E, n_I = state.counts(N)
    trials = vaccination_trials(params, n_S, action.y_V)
    kB, pB = binomial_row(trials, exposure_prob(params, state, action))
    kC, pC = binomial_row(n_E, params.rho_C)
    kD, pD = binomial_row(n_I, params.rho_D)
    p_cd = np.outer(pC, pD)
    c, d = np.nonzero(p_cd >= JOINT_TOL)
    C, D = kC[c], kD[d]
    B = kB[:, None]
    points = np.stack(np.broadcast_arrays((trials - B) / N, (n_E + B - C) / N,
                                          (n_I + C - D) / N), axis=-1).reshape(-1, 3)
    probs = np.outer(pB / pB.sum(), p_cd[c, d] / p_cd[c, d].sum()).ravel()
    return points, probs


def exact_group_sums(values, groups, n_groups):
    """math.fsum of the values of each group 0..n_groups-1, bit for bit, for
    nonnegative values that are 0 or at least 2**-969.

    Each value is an integer mantissa M < 2**53 times 2**(e - 53) (np.frexp),
    split into halves of 27 and 26 bits.  Per (group, exponent), each half's
    sum is an integer below 2**53 while there are fewer than 2**26 values,
    so np.bincount adds it exactly in float64; scaled back by np.ldexp
    (exactly, as the bound on the values keeps every partial normal), one
    math.fsum per group of its partials is the exact sum, correctly rounded.
    """
    values = np.asarray(values, dtype=np.float64)
    mant, exp = np.frexp(values)
    assert len(values) < 2**26 and np.all((values == 0.0) | (exp >= -968))
    high = np.floor(np.ldexp(mant, 27))               # M >> 26
    low = np.ldexp(mant, 53) - np.ldexp(high, 26)     # M mod 2**26
    e_min = np.min(exp, initial=0)
    span = np.max(exp, initial=0) - e_min + 1
    key = np.asarray(groups, dtype=np.int64) * span + (exp - e_min)
    partials = [np.ldexp(np.bincount(key, weights=half, minlength=n_groups * span)
                         .reshape(n_groups, span), np.arange(e_min, e_min + span) - shift)
                for half, shift in ((high, 27), (low, 53))]
    return np.array([math.fsum(part) for part in np.hstack(partials).tolist()])


def per_action_push(grid, params, idx, atoms=transition_atoms):
    """Reference rows: each action's atoms located one by one, and each
    corner's mass, and then the row's, summed exactly (exact_group_sums,
    math.fsum)."""
    rows = []
    for a in params.actions():
        points, probs = atoms(params, grid.state_of(idx), a)
        corners, wts = grid.locate_many(points)
        mass = exact_group_sums((wts * probs[:, None]).ravel(), corners.ravel(), grid.n_corners)
        support = np.flatnonzero(mass >= ENTRY_TOL)
        rows.append((support, mass[support] / math.fsum(mass[support])))
    return rows


def successor_counts(grid, params, idx):
    """Integer (S, E, I) successor counts of every atom of every action."""
    state = grid.state_of(idx)
    return np.concatenate([np.rint(transition_pmf(params, state, a).points * params.N)
                           for a in params.actions()]).astype(np.int64)


def has_p_I_ties(counts, N, Y):
    """Some atom's p_I fractional part equals a nonzero p_S or p_E one exactly,
    computed in integers as N times the fractional part locate_many takes."""
    scaled = counts * Y
    frac = scaled - np.minimum(scaled // N, Y - 1) * N
    tie = (frac[:, 2:] == frac[:, :2]) & (frac[:, :2] > 0)
    return bool(tie.any())


def reaches_top_cell_clamp(counts, N, Y):
    """Some atom has a fraction equal to 1, located in the clamped cell Y - 1."""
    return bool((counts == N).any())


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


@pytest.mark.parametrize("spread", ["unit", "wide", "sparse"])
def test_exact_group_sums_are_fsum(spread):
    # Bit for bit math.fsum per group: uniform values, values spread over
    # 590 decades, and tiny values with zeros among them.
    rng = np.random.default_rng(17)
    for trial in range(100):
        n, groups = int(rng.integers(1, 3000)), int(rng.integers(1, 40))
        if spread == "unit":
            x = rng.random(n)
        elif spread == "wide":
            x = 10.0 ** rng.uniform(-290.0, 300.0, n)
        else:
            x = rng.random(n) * 10.0 ** rng.integers(-40, 1, n)
            x[rng.random(n) < 0.3] = 0.0
        g = rng.integers(0, groups, n)
        got = exact_group_sums(x, g, groups)
        assert got.tolist() == [math.fsum(x[g == i].tolist()) for i in range(groups)], trial


class TestBuildGrid:
    def test_unit_grid_counts(self):
        g = Grid(GridSpec(1))
        assert g.n_corners == 8
        in_s = [tuple(g.lattice[i]) for i in g.in_S_indices()]
        assert sorted(in_s) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_counts_at_larger_sizes(self):
        assert Grid(GridSpec(4)).n_corners == 125
        assert Grid(GridSpec(30)).n_corners == 29791

    def test_index_bijection(self):
        g = Grid(GridSpec(3))
        for idx in range(g.n_corners):
            i, j, k = g.lattice[idx]
            assert g.index_of(i, j, k) == idx

    def test_invalid_spec(self):
        with pytest.raises(DomainError):
            GridSpec(0)

    def test_state_index_roundtrip(self):
        g = Grid(GridSpec(10))
        idx = g.state_index(ContinuousState(0.7, 0.1, 0.2))
        assert tuple(g.coords[idx]) == (0.7, 0.1, 0.2)
        with pytest.raises(DomainError):
            g.state_index(ContinuousState(0.65, 0.1, 0.2))


class TestLocate:
    def test_exact_corner(self):
        g = Grid(GridSpec(2))
        [(corner, weight)] = locate_one(g, (0.5, 0.5, 0.0))
        assert weight == 1.0
        assert tuple(g.coords[corner]) == (0.5, 0.5, 0.0)

    def test_known_weight_path(self):
        g = Grid(GridSpec(1))
        got = {tuple(g.lattice[c]): w for c, w in locate_one(g, (0.5, 0.25, 0.125))}
        assert got == pytest.approx(
            {(0, 0, 0): 0.5, (1, 0, 0): 0.25, (1, 1, 0): 0.125, (1, 1, 1): 0.125}
        )

    def test_reconstruction_many_points(self):
        rng = np.random.default_rng(3)
        for Y in (1, 3, 7):
            g = Grid(GridSpec(Y))
            pts = rng.random((10_000, 3))
            idx, wts = g.locate_many(pts)
            assert np.all(wts >= -1e-15)
            np.testing.assert_allclose(wts.sum(axis=1), 1.0, atol=1e-12)
            recon = (g.coords[idx] * wts[:, :, None]).sum(axis=1)
            np.testing.assert_allclose(recon, pts, atol=1e-12)

    def test_simplex_labels_equal_volume(self):
        rng = np.random.default_rng(9)
        g = Grid(GridSpec(2))
        pts = rng.random((60_000, 3))
        idx, _, labels = locate_by_argsort(g, pts)
        np.testing.assert_array_equal(g.locate_many(pts)[0], idx)
        freq = np.bincount(labels, minlength=6) / len(pts)
        assert np.all(np.abs(freq - 1 / 6) < 0.02)

    def test_cube_diagonal_corners_shared_by_all_simplexes(self):
        # The cell's low and high corners sit on every one of the six simplexes;
        # each simplex has exactly four distinct corners.
        simplexes = simplex_vertices(Grid(GridSpec(1)))
        assert sorted(simplexes) == list(range(6))
        for verts in simplexes.values():
            assert len(verts) == 4
            assert (0, 0, 0) in verts
            assert (1, 1, 1) in verts

    def test_vertex_membership_counts(self):
        # Face-diagonal corners belong to exactly two of the six simplexes.
        memberships = {}
        for label, verts in simplex_vertices(Grid(GridSpec(1))).items():
            for v in verts:
                memberships.setdefault(v, set()).add(label)
        assert len(memberships[(0, 0, 0)]) == 6
        assert len(memberships[(1, 1, 1)]) == 6
        for v, owners in memberships.items():
            ones = sum(v)
            if ones in (1, 2):
                assert len(owners) == 2, v

    def test_matches_argsort_formula_on_ties(self):
        # Fractional parts tying on two or three axes, or equal to 0, on
        # interior cells and on the top cell, where the cell index is clamped.
        g = Grid(GridSpec(4))
        levels = [0.0, 0.125, 0.5, 0.875]
        fracs = np.array([(a, b, c) for a in levels for b in levels for c in levels])
        pts = np.concatenate([(cell + fracs) / 4 for cell in
                              ((0, 0, 0), (1, 2, 3), (3, 3, 3))] + [np.ones((1, 3))])
        got = g.locate_many(pts)
        want = locate_by_argsort(g, pts)[:2]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_outside_cube_rejected(self):
        g = Grid(GridSpec(2))
        with pytest.raises(DomainError):
            g.locate_many(np.array([[1.2, 0.0, 0.0]]))


class TestSparseDistribution:
    # One-row blocks; TestBlock checks many rows at once.
    def test_unsorted_row_rejected(self):
        with pytest.raises(RowError, match="not strictly ascending"):
            SparseDistribution.block([5, 2], [0.25, 0.75], [0, 2])
        d = sparse_row([5, 2], [0.25, 0.75])
        assert list(d.indices) == [2, 5]
        assert list(d.probs) == [0.75, 0.25]

    def test_bad_sum_rejected(self):
        with pytest.raises(DomainError):
            SparseDistribution.block([0, 1], [0.5, 0.6], [0, 2])

    def test_duplicate_rejected(self):
        with pytest.raises(DomainError):
            SparseDistribution.block([1, 1], [0.5, 0.5], [0, 2])

    def test_dot(self):
        d = sparse_row([0, 3], [0.5, 0.5])
        vals = np.array([2.0, 9.0, 9.0, 4.0])
        assert d.dot(vals) == pytest.approx(3.0)


def random_block(rng, n_rows=40):
    """Flat (indices, probs, offsets) of rows with ascending random supports."""
    rows = []
    for _ in range(n_rows):
        idx = np.sort(rng.choice(500, size=int(rng.integers(1, 60)), replace=False))
        probs = rng.random(len(idx)) * 10.0 ** rng.integers(-13, 1, size=len(idx))
        rows.append((idx, probs))
    offsets = np.concatenate([[0], np.cumsum([len(i) for i, _ in rows])])
    return (np.concatenate([i for i, _ in rows]), np.concatenate([p for _, p in rows]),
            offsets)


class TestBlock:
    def test_matches_per_row_normalization(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            indices, probs, offsets = random_block(rng)
            block = SparseDistribution.block(indices, probs, offsets, normalize=True)
            assert len(block) == len(offsets) - 1
            for row, lo, hi in zip(block, offsets[:-1], offsets[1:]):
                np.testing.assert_array_equal(row.indices, indices[lo:hi])
                ref = probs[lo:hi] / probs[lo:hi].sum()
                assert np.abs(row.probs - ref).sum() <= 1e-15

    def test_unnormalized_rows_kept_bit_for_bit(self):
        indices, probs, offsets = random_block(np.random.default_rng(6))
        totals = np.add.reduceat(probs, offsets[:-1])
        probs = probs / np.repeat(totals, np.diff(offsets))
        rows = SparseDistribution.block(indices, probs, offsets)
        np.testing.assert_array_equal(np.concatenate([r.probs for r in rows]), probs)
        assert list(SparseDistribution.block([], [], [0])) == []

    def test_rows_are_read_only_views_of_one_buffer(self):
        indices, probs, offsets = random_block(np.random.default_rng(7))
        rows = SparseDistribution.block(indices, probs, offsets, normalize=True)
        base = rows[0].probs.base
        assert base is not None and all(r.probs.base is base for r in rows)
        with pytest.raises(ValueError):
            rows[1].probs[0] = 0.5
        with pytest.raises(ValueError):
            rows[1].indices[0] = 0
        probs[:] = 0.0  # the caller's arrays are not the buffer
        assert rows[0].probs.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("indices, probs, normalize, reason", [
        ([0, 1, 2, 4, 3], [0.5, 0.5, 1.0, 0.5, 0.5], False, "not strictly ascending"),
        ([0, 1, 2, 3, 3], [0.5, 0.5, 1.0, 0.5, 0.5], False, "not strictly ascending"),
        ([0, 1, 2, 3, 4], [0.5, 0.5, 1.0, 1.5, -0.5], False, "negative"),
        ([0, 1, 2, 3, 4], [0.5, 0.5, 1.0, 0.5, 0.6], False, "sum to 1.1"),
        ([0, 1, 2, 3, 4], [0.5, 0.5, 1.0, 0.5, np.nan], False, "sum to nan"),
        ([0, 1, 2, 3, 4], [0.5, 0.5, 1.0, 0.0, 0.0], True, "cannot normalize"),
        ([0, 1, 2, 3, 4], [0.5, 0.5, 1.0, 0.5, np.nan], True, "cannot normalize"),
    ])
    def test_first_bad_row_named(self, indices, probs, normalize, reason):
        # Rows [0, 1] and [2] are distributions; row 2 holds the fault, and
        # a fourth, empty row fails too but comes later.
        offsets = [0, 2, 3, 5, 5]
        with pytest.raises(RowError, match=f"row 2: .*{re.escape(reason)}") as err:
            SparseDistribution.block(indices, probs, offsets, normalize=normalize)
        assert err.value.row == 2
        with pytest.raises(RowError, match="row 3: "):
            SparseDistribution.block(indices[:3] + [3], probs[:3] + [1.0],
                                     [0, 2, 3, 4, 4], normalize=normalize)

    @pytest.mark.parametrize("offsets", [[0, 2], [1, 3], [0, 3, 2], []])
    def test_offsets_must_split_the_arrays(self, offsets):
        with pytest.raises(DomainError, match="offsets"):
            SparseDistribution.block([0, 1, 2], [0.5, 0.5, 1.0], offsets)

    def test_push_row_below_entry_tol_raises(self, monkeypatch):
        # With every corner mass under the drop threshold a row is empty,
        # and the push fails instead of returning it.
        monkeypatch.setattr(grid_module, "ENTRY_TOL", 2.0)
        g = Grid(GridSpec(3))
        idx = g.index_of(1, 1, 1)
        with pytest.raises(DomainError, match="cannot normalize"):
            discretize_kernel(g, toy_params(N=9), [idx])
        # In a call over many corners the failing row is named by its corner
        # and action, not by its place in the push's internal block.
        corners = g.in_S_indices().tolist()
        with pytest.raises(DomainError, match=rf"corner {corners[0]}, action \(0, 0\): "
                                              "cannot normalize"):
            discretize_kernel(g, toy_params(N=9), corners)


class TestDiscretizeKernel:
    @pytest.mark.parametrize("lattice", [(2, 2, 2), (2, 1, 0)], ids=["sum-3", "sum-1.5"])
    def test_outside_S_is_not_compiled(self, lattice):
        # Only simplex states have rows: the push and the model's compile
        # refuse a corner whose fractions sum past 1, and store nothing.
        model = EpidemicModel(toy_params(N=6), 2, AmbiguityConfig())
        idx = model.grid.index_of(*lattice)
        with pytest.raises(DomainError, match="outside the population simplex"):
            discretize_kernel(model.grid, model.params, [idx])
        with pytest.raises(DomainError, match="outside the population simplex"):
            model.compile_state(idx)
        assert model._rows == {} and model._rewards == {} and model._rules == {}

    @pytest.mark.parametrize("N, Y, lattice", [(3, 2, (0, 1, 1)), (7, 4, (0, 2, 2))])
    def test_successor_outside_the_cube_raises(self, N, Y, lattice):
        # Rounded counts (0, 2, 2) of N = 3, or (0, 4, 4) of N = 7, sum past
        # N, so some kept atom has more infectives than the population.
        g = Grid(GridSpec(Y))
        with pytest.raises(DomainError, match="outside the unit cube"):
            discretize_kernel(g, EpidemicParams(N=N, L=1, M=1), [g.index_of(*lattice)])

    @staticmethod
    def gapped_laws(gap):
        """binomial_rows with an interior kept entry dropped from each row of
        three or more entries whose success probability gap(p) picks."""
        def laws(ns, ps):
            pmf, keep = binomial_rows(ns, ps)
            for i, j in np.argwhere(keep.sum(axis=-1) > 2):
                if gap(ps[j]):
                    kept = np.flatnonzero(keep[i, j])
                    keep[i, j, kept[len(kept) // 2]] = False
            return pmf, keep
        return laws

    def test_gapped_support_raises(self, monkeypatch):
        # The push reads the (C, D) law as a table over integer ranges, so a
        # C or D support with a hole must fail loudly.
        g = Grid(GridSpec(3))
        p = toy_params(N=30)
        idx = g.index_of(1, 1, 1)
        for rho in (p.rho_C, p.rho_D):
            monkeypatch.setattr(grid_module, "binomial_rows",
                                self.gapped_laws(lambda prob, rho=rho: prob == rho))
            with pytest.raises(DomainError, match="integer ranges"):
                discretize_kernel(g, p, [idx])

    def test_gapped_exposure_support_raises(self, monkeypatch):
        # Each exposure row is placed at one offset of its y_V's counts, so
        # a B support with a hole must fail loudly too.
        g = Grid(GridSpec(3))
        p = toy_params(N=30)
        monkeypatch.setattr(grid_module, "binomial_rows",
                            self.gapped_laws(lambda prob: prob not in (p.rho_C, p.rho_D)))
        with pytest.raises(DomainError, match="the B supports must be integer ranges"):
            discretize_kernel(g, p, [g.index_of(1, 1, 1)])

    def test_disease_free_self_loop(self):
        g = Grid(GridSpec(2))
        p = toy_params()
        idx = g.index_of(0, 0, 0)
        assert all(as_dict(row) == {idx: 1.0} for row in discretize_kernel(g, p, [idx])[0])

    def test_row_matches_atom_enumeration(self):
        # Oracle: enumerate atoms with scalar pmfs, locate each one, accumulate.
        g = Grid(GridSpec(2))
        p = toy_params(N=4)
        idx = g.index_of(1, 1, 0)  # state (0.5, 0.5, 0)
        a = Action(1, 0)
        state = g.state_of(idx)
        phi = exposure_prob(p, state, a)
        trials = round(2 * (1 - a.y_V / p.L))
        expect: dict[int, float] = {}
        for nB in range(trials + 1):
            for nC in range(2 + 1):
                pr = binomial_pmf(trials, phi, nB) * binomial_pmf(2, p.rho_C, nC)
                pt = ((trials - nB) / 4, (2 + nB - nC) / 4, nC / 4)
                for c, w in locate_one(g, pt):
                    expect[c] = expect.get(c, 0.0) + w * pr
        row = row_of(g, p, idx, a)
        got = as_dict(row)
        for c, v in expect.items():
            if v > 1e-12:
                assert got[c] == pytest.approx(v, rel=1e-9), c
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("N, Y, lattice, exercises", [
        pytest.param(9, 3, (3, 0, 0), reaches_top_cell_clamp,    # only susceptibles,
                     id="disease-free"),                          # p_S = 1
        pytest.param(9, 3, (1, 2, 0), None, id="no-infectives"),   # p_I = 0, phi = 0
        pytest.param(9, 3, (1, 1, 1), None, id="all-random"),      # B, C, D all drawn
        pytest.param(1000, 10, (7, 1, 2), None, id="default-initial"),  # (0.7, 0.1, 0.2)
        pytest.param(997, 7, (4, 1, 2), None, id="N-not-multiple-of-Y"),
        pytest.param(60, 6, (2, 2, 2), has_p_I_ties, id="p_I-ties-p_S-or-p_E"),
        pytest.param(1000, 10, (6, 0, 4), None, id="no-exposed"),  # one C
        pytest.param(8, 4, (0, 0, 4), reaches_top_cell_clamp, id="p_I-reaches-1"),
        pytest.param(8, 4, (0, 4, 0), reaches_top_cell_clamp, id="p_E-reaches-1"),
    ])
    def test_rows_match_per_action_push(self, N, Y, lattice, exercises):
        g = Grid(GridSpec(Y))
        p = EpidemicParams(N=N)
        idx = g.index_of(*lattice)
        if exercises is not None:
            assert exercises(successor_counts(g, p, idx), N, Y)
        [rows] = discretize_kernel(g, p, [idx])
        # Against the same law pushed atom by atom and summed exactly, only
        # the region moments differ (at most 1.1e-14 over these cases);
        # against the per-action tables the truncation differs too (the
        # README bounds that at 1.75e-11 over the rtdp-default states).
        for atoms, tol in ((action_free_atoms, 2e-14), (transition_atoms, 1.7e-11)):
            ref = per_action_push(g, p, idx, atoms)
            assert len(rows) == len(ref) == len(p.actions())
            for a, row, (support, probs) in zip(p.actions(), rows, ref):
                np.testing.assert_array_equal(row.indices, support, err_msg=str(a))
                assert np.abs(row.probs - probs).sum() <= tol, (atoms.__name__, a)

    def test_push_locates_far_fewer_points_than_atoms(self, monkeypatch):
        # The default initial state pushes about 1.5 M atoms; they must reach
        # locate_many in one call, as at most six region means per
        # (p_E cell, p_I cell) box of each (y_V, b), not one by one.
        g = Grid(GridSpec(10))
        p = EpidemicParams()
        idx = g.index_of(7, 1, 2)
        located = []
        locate = Grid.locate_many

        def counting_locate(self, points):
            located.append(len(points))
            return locate(self, points)

        monkeypatch.setattr(Grid, "locate_many", counting_locate)
        discretize_kernel(g, p, [idx])
        # Atoms of a per-level push: each exposure count some y_R draws,
        # paired with each (C, D) pair whose action-free mass is kept.
        state = g.state_of(idx)
        _, n_E, n_I = state.counts(p.N)
        kC, pC = binomial_row(n_E, p.rho_C)
        kD, pD = binomial_row(n_I, p.rho_D)
        n_cd = np.count_nonzero(np.outer(pC, pD) >= JOINT_TOL)
        exposures = [np.unique(np.concatenate(
            [transition_pmf(p, state, Action(y_V, y_R)).draws[:, 0]
             for y_R in range(p.M + 1)])) for y_V in range(p.L + 1)]
        atoms = sum(len(kB) for kB in exposures) * n_cd
        assert atoms > 1_000_000

        # The cells the successor p_E fractions of each b, and the p_I
        # fractions, span.
        def cells(lo, hi):
            return min(hi * g.Y // p.N, g.Y - 1) - min(lo * g.Y // p.N, g.Y - 1) + 1

        p_I_cells = cells(n_I + kC[0] - kD[-1], n_I + kC[-1] - kD[0])
        bound = sum(6 * cells(n_E + b - kC[-1], n_E + b - kC[0]) * p_I_cells
                    for kB in exposures for b in kB.tolist())
        assert len(located) == 1
        assert 0 < located[0] <= bound < atoms / 200

    def test_full_vaccination_rows_equal(self):
        # y_V = L leaves no susceptible to expose, so y_R changes nothing.
        g = Grid(GridSpec(3))
        p = toy_params(N=9)
        [rows] = discretize_kernel(g, p, [g.index_of(1, 1, 1)])
        full = [r for a, r in zip(p.actions(), rows) if a.y_V == p.L]
        assert len(full) == p.M + 1
        for r in full[1:]:
            np.testing.assert_array_equal(r.indices, full[0].indices)
            np.testing.assert_allclose(r.probs, full[0].probs, rtol=0, atol=1e-15)

    def test_rows_sum_to_one_random_states(self):
        g = Grid(GridSpec(3))
        p = toy_params(N=9)
        for idx in g.in_S_indices():
            for row in discretize_kernel(g, p, [int(idx)])[0]:
                assert row.probs.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(row.probs >= 0)

    def test_boundary_mass_can_reach_absorbing_corners(self):
        # Atoms near the p_S+p_E+p_I = 1 face may lend weight to corners
        # outside S; that mass must stay there rather than be redistributed.
        g = Grid(GridSpec(2))
        p = toy_params(N=4)
        idx = g.index_of(1, 0, 1)  # (0.5, 0, 0.5)
        row = row_of(g, p, idx, Action(0, 0))
        outside = [i for i in row.indices if not g.in_S[i]]
        inside_mass = sum(pr for i, pr in as_dict(row).items() if g.in_S[i])
        assert inside_mass > 0.5
        for i in outside:
            assert as_dict(row)[i] >= 0


# The CLI tests' TOY config and the dp-mip-small and compile-cache-dp
# benchmark sizes, as (EpidemicParams arguments, Y).
PUSH_SIZES = {
    "toy": (dict(N=10, L=1, M=1, Q=0.5, k_R=0.5, W=2.0, T=3), 2),
    "dp-mip-small": (dict(N=100, L=2, M=2, T=5), 5),
    "compile-cache-dp": (dict(N=300, L=5, M=5, T=5), 8),
}


class TestGroupedPush:
    @pytest.mark.parametrize("size", list(PUSH_SIZES))
    def test_one_call_equals_one_call_per_corner(self, size):
        # Every simplex corner in one shuffled call, against each corner in
        # a call of its own: the same rows bit for bit, in the order given.
        kw, Y = PUSH_SIZES[size]
        g, p = Grid(GridSpec(Y)), EpidemicParams(**kw)
        corners = g.in_S_indices().tolist()
        np.random.default_rng(1).shuffle(corners)
        together = discretize_kernel(g, p, corners)
        assert len(together) == len(corners)
        for idx, rows in zip(corners, together):
            [alone] = discretize_kernel(g, p, [idx])
            assert len(rows) == len(alone) == len(p.actions())
            for a, b in zip(rows, alone):
                assert a.indices.tobytes() == b.indices.tobytes(), idx
                assert a.probs.tobytes() == b.probs.tobytes(), idx

    def test_rows_are_read_only(self):
        g, p = Grid(GridSpec(3)), toy_params(N=9)
        assert list(discretize_kernel(g, p, [])) == []
        for rows in discretize_kernel(g, p, g.in_S_indices()):
            for row in rows:
                assert not row.indices.flags.writeable and not row.probs.flags.writeable
                with pytest.raises(ValueError):
                    row.probs[0] = 0.5

    def test_corner_outside_the_simplex_is_named(self, monkeypatch):
        # The corners are checked before any push.
        g, p = Grid(GridSpec(2)), toy_params(N=6)
        inside = g.in_S_indices().tolist()
        outside = g.index_of(2, 1, 0)
        monkeypatch.setattr(grid_module, "_push_group", None)
        with pytest.raises(DomainError, match=rf"corner {outside} is outside the population"):
            discretize_kernel(g, p, inside[:3] + [outside] + inside[3:])

    def test_one_location_per_group(self, monkeypatch):
        # The corners sharing (n_E, n_I) are located together: 45 groups of
        # the 165 states at N=300, Y=8.
        kw, Y = PUSH_SIZES["compile-cache-dp"]
        g, p = Grid(GridSpec(Y)), EpidemicParams(**kw)
        located = []
        locate = Grid.locate_many

        def counting_locate(self, points):
            located.append(len(points))
            return locate(self, points)

        monkeypatch.setattr(Grid, "locate_many", counting_locate)
        corners = g.in_S_indices().tolist()
        discretize_kernel(g, p, corners)
        groups = {g.state_of(i).counts(p.N)[1:] for i in corners}
        assert len(corners) == 165
        assert len(located) == len(groups) == 45

    @pytest.mark.parametrize("N, M", [(1000, 5), (100_000, 1)],
                             ids=["overlapping-supports", "disjoint-supports"])
    def test_exposure_laws_are_the_union_of_supports(self, N, M):
        # Oracle: each y_V's counts are the union of its rows' supports
        # (np.unique), each row, built alone, is placed by searching it.
        # Strong intervention at N = 100,000 leaves a gap between the
        # supports.
        p = EpidemicParams(N=N, L=2, M=M)
        state = ContinuousState(0.5, 0.0, 0.5)
        n_S = state.counts(N)[0]
        kBs, pBs, trials = grid_module._exposure_laws(p, state, n_S)
        phis = [exposure_prob(p, state, Action(0, y_R)) for y_R in range(M + 1)]
        gaps = 0
        for y_V, (kB, pB, n) in enumerate(zip(kBs, pBs, trials)):
            n_trials = vaccination_trials(p, n_S, y_V)
            marginals = [binomial_row_alone(n_trials, phi) for phi in phis]
            want_k = np.unique(np.concatenate([k for k, _ in marginals]))
            want_p = np.zeros((len(phis), len(want_k)))
            for r, (k, pk) in enumerate(marginals):
                want_p[r, np.searchsorted(want_k, k)] = pk / pk.sum()
            np.testing.assert_array_equal(kB, want_k)
            assert pB.tobytes() == want_p.tobytes()
            np.testing.assert_array_equal(n, np.full(len(kB), n_trials))
            gaps += int(kB[-1] - kB[0] + 1 != len(kB))
        assert (gaps > 0) == (N == 100_000)


class TestRewardAndSupport:
    # The discrete stage reward of a corner is the model's reward vector.
    def test_discrete_reward_matches_seir(self):
        # Every simplex state of a grid whose corners do not land on whole
        # persons (N = 10, Y = 3), and level fractions that do not round
        # exactly (L = 3): the array rewards equal the scalar ones bit for bit.
        params = toy_params(N=10, L=3, M=4, Q=0.3, k_R=0.7, W=1.1)
        model = EpidemicModel(params, 3, AmbiguityConfig())
        for idx in model.grid.in_S_indices():
            state = model.grid.state_of(int(idx))
            want = [stage_rewards(params, state, a.y_V, a.y_R) for a in model.actions]
            assert model.rewards(int(idx)).tolist() == want, idx

    def test_disease_free_support_is_self(self):
        g = Grid(GridSpec(2))
        p = toy_params()
        idx = g.index_of(1, 0, 0)
        # No exposed/infectious: every action leaves a point mass on p_E=p_I=0.
        for row in discretize_kernel(g, p, [idx])[0]:
            for s in row.indices:
                lat = g.lattice[s]
                assert lat[1] == 0 and lat[2] == 0


class TestCacheKey:
    def test_changes_with_params(self):
        a = cache_key(toy_params(), 5)
        b = cache_key(toy_params(N=5), 5)
        c = cache_key(toy_params(), 6)
        assert len({a, b, c}) == 3

    def test_stable(self):
        assert cache_key(toy_params(), 5) == cache_key(toy_params(), 5)

    def test_per_atom_push_caches_miss(self):
        # The keys the per-atom push, then the log-factorial binomial law,
        # then per-row normalization, then the segment push gave this
        # configuration: their rows differ from the current ones in the last
        # bits, so they must not load.
        key = cache_key(toy_params(), 2)
        assert key not in ("286f24f0de12e5d6", "22a2cc61b4ac4f66", "b9c5273309ff5e7b",
                           "5483712e4944b2b2")
