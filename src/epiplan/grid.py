"""Corner-state grid over the unit cube with simplex interpolation.

The cube containing all (p_S, p_E, p_I) combinations is cut into Y^3 cells;
each cell splits into six equal-volume simplexes along coordinate-sorted
diagonals, so any interior point is a convex combination of at most four cell
corners.  Transition laws over continuous atoms are pushed onto the corners
through those weights, giving a finite kernel.  Only corners inside the
population simplex have rows; a rollout that reaches another corner stops.

The push takes a list of corners.  Within a state the intervention level
only reweights the exposure count, so the atoms of every (vaccination level,
exposure count) pair are pushed once and each action's row is a weighted sum
of those pushes.  The weights are affine inside each simplex, so the atoms of
one pair that share one, which differ only in their (incubation, recovery)
counts, are pushed together as their total mass at their mean point; prefix
tables over the (C, D) plane give each region's mass and mean in O(1).  The
(C, D) law depends only on the counts (n_E, n_I), so the corners that share
them are pushed as one group: one set of prefix tables and one point
location for the pairs of all of them.  Exposure laws, which depend only on
(n_S, p_I), are built once per call.  A group's rows come out as one block
of flat arrays, renormalized and checked at once
(``SparseDistribution.block``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RowError
from .seir import (
    ENTRY_TOL,
    JOINT_TOL,
    MARGINAL_TOL,
    Action,
    ContinuousState,
    EpidemicParams,
    binomial_row,
    exposure_prob,
    transition_pmf,  # noqa: F401  perfbench/layers.py traces grid.transition_pmf
    vaccination_trials,
)


@dataclass(frozen=True)
class GridSpec:
    """Number of subdivisions per axis; the grid has (Y+1)^3 corners."""

    Y: int

    def __post_init__(self) -> None:
        if self.Y < 1:
            raise DomainError(f"Y must be >= 1, got {self.Y}")


class SparseDistribution:
    """Probability mass over corner indices; indices unique and ascending.

    Rows are made only by ``block``, which checks many rows at once.
    """

    __slots__ = ("indices", "probs")

    @classmethod
    def block(cls, indices: np.ndarray, probs: np.ndarray, offsets: np.ndarray,
              normalize: bool = False) -> list[SparseDistribution]:
        """The rows held at [offsets[r], offsets[r+1]) of flat indices and probs.

        The whole block is checked at once: each row's indices must ascend
        strictly, no entry may be below -1e-15, and each row must sum to one
        within 1e-9 or, with normalize, to a positive total, by which it is
        then divided.  A row that fails raises RowError naming the first
        such row and its reason.  The rows are views of one read-only
        buffer.
        """
        indices = np.array(indices, dtype=np.int64)
        probs = np.array(probs, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.diff(offsets)
        if (indices.shape != probs.shape or indices.ndim != 1 or offsets.ndim != 1
                or len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(indices)
                or np.any(lengths < 0)):
            raise DomainError("indices and probs must be matching 1-d arrays "
                              "split by offsets rising from 0 to their length")
        n_rows = len(lengths)
        row_of = np.repeat(np.arange(n_rows), lengths)
        unordered = np.zeros(n_rows, dtype=bool)
        unordered[row_of[1:][(np.diff(indices) <= 0) & (row_of[1:] == row_of[:-1])]] = True
        # reduceat over the starts of the non-empty rows: each segment then
        # runs to the next non-empty row, so it is exactly its own row.
        lowest, total = np.full(n_rows, np.inf), np.zeros(n_rows)
        filled = lengths > 0
        if filled.any():
            lowest[filled] = np.minimum.reduceat(probs, offsets[:-1][filled])
            total[filled] = np.add.reduceat(probs, offsets[:-1][filled])
        negative = lowest < -1e-15
        # Written as "not within" so that NaN fails too.
        off = ~(total > 0) if normalize else ~(np.abs(total - 1.0) <= 1e-9)
        bad = unordered | negative | off
        if bad.any():
            r = int(np.argmax(bad))
            if unordered[r]:
                reason = "successor indices not strictly ascending"
            elif negative[r]:
                reason = "negative probability entry"
            elif normalize:
                reason = "cannot normalize empty distribution"
            else:
                reason = f"probabilities sum to {total[r]}, not 1"
            raise RowError(r, reason)
        if normalize:
            probs /= np.repeat(total, lengths)
        indices.flags.writeable = False
        probs.flags.writeable = False
        rows = []
        for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
            row = cls.__new__(cls)
            row.indices, row.probs = indices[lo:hi], probs[lo:hi]
            rows.append(row)
        return rows

    def __len__(self) -> int:
        return len(self.indices)

    def dot(self, values: np.ndarray) -> float:
        """Expectation of per-corner values under this distribution."""
        return float(np.dot(self.probs, values[self.indices]))


class Grid:
    """Immutable corner-state lattice with vectorized point location."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        Y = spec.Y
        side = Y + 1
        self.n_corners = side**3
        ii, jj, kk = np.meshgrid(np.arange(side), np.arange(side), np.arange(side),
                                 indexing="ij")
        self.lattice = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
        self.coords = self.lattice / Y
        self.in_S = self.lattice.sum(axis=1) <= Y
        # Index offsets of the four simplex vertices from a cell's low corner,
        # per comparison code 4*(f0>=f1) + 2*(f0>=f2) + (f1>=f2).  The path
        # steps along the axes in descending order of their fractional parts,
        # ties to the lower axis, so each axis steps at its rank in that
        # order, and vertex v adds the stride of every axis ranked below v.
        # The cyclic codes 2 and 5 never occur.
        code = np.arange(8)
        b01, b02, b12 = code >> 2 & 1, code >> 1 & 1, code & 1
        rank = np.stack([2 - b01 - b02, 1 + b01 - b12, b02 + b12], axis=1)
        strides = np.array([side * side, side, 1], dtype=np.int64)
        self._vertex_offsets = (rank[:, None, :] < np.arange(4)[:, None]) @ strides

    @property
    def Y(self) -> int:
        return self.spec.Y

    def index_of(self, i: int, j: int, k: int) -> int:
        side = self.Y + 1
        return (i * side + j) * side + k

    def state_of(self, index: int) -> ContinuousState:
        if not self.in_S[index]:
            raise DomainError(f"corner {index} is outside the population simplex")
        c = self.coords[index]
        return ContinuousState(float(c[0]), float(c[1]), float(c[2]))

    def state_index(self, state: ContinuousState) -> int:
        """Index of the corner exactly at a lattice state."""
        Y = self.Y
        lat = [state.p_S * Y, state.p_E * Y, state.p_I * Y]
        ints = [round(v) for v in lat]
        if any(abs(v - r) > 1e-9 for v, r in zip(lat, ints)):
            raise DomainError(f"state {state} is not on the Y={Y} lattice")
        return self.index_of(*ints)

    def in_S_indices(self) -> np.ndarray:
        return np.nonzero(self.in_S)[0]

    def locate_many(self, points: np.ndarray):
        """Vectorized barycentric location of points inside the unit cube.

        Returns (corner_indices (n,4), weights (n,4)).  The simplex follows
        the fractional parts sorted in descending order, ties going to the
        lower axis.
        """
        pts = np.asarray(points, dtype=np.float64)
        if np.any(pts < -1e-12) or np.any(pts > 1.0 + 1e-12):
            raise DomainError("point outside the unit cube")
        Y = self.Y
        side = Y + 1
        scaled = np.clip(pts, 0.0, 1.0) * Y
        cell = np.minimum(scaled.astype(np.int64), Y - 1)
        frac = scaled - cell
        f0, f1, f2 = frac[:, 0], frac[:, 1], frac[:, 2]

        code = 4 * (f0 >= f1) + 2 * (f0 >= f2) + (f1 >= f2)
        hi = np.maximum(f0, np.maximum(f1, f2))
        lo = np.minimum(f0, np.minimum(f1, f2))
        mid = np.maximum(np.minimum(f0, f1), np.minimum(np.maximum(f0, f1), f2))
        weights = np.empty((len(pts), 4))
        weights[:, 0] = 1.0 - hi
        weights[:, 1] = hi - mid
        weights[:, 2] = mid - lo
        weights[:, 3] = lo

        base = (cell[:, 0] * side + cell[:, 1]) * side + cell[:, 2]
        return base[:, None] + self._vertex_offsets[code], weights


def _cell_of(counts: np.ndarray, N: int, Y: int) -> np.ndarray:
    """The cell index locate_many gives the fractions counts/N."""
    return np.minimum(counts * Y // N, Y - 1)


def _frac_numerator(counts: np.ndarray, N: int, Y: int) -> np.ndarray:
    """N times the fractional part locate_many gives the fractions counts/N,
    exactly: (counts*Y) mod N, except N where the cell index is clamped at Y-1."""
    return counts * Y - _cell_of(counts, N, Y) * N


def _cell_counts(cells: np.ndarray, N: int, Y: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and last count in each cell; a cell past Y-1 is empty."""
    first = np.where(cells < Y, -(-cells * N // Y), N + 1)
    last = np.where(cells < Y - 1, -(-(cells + 1) * N // Y) - 1, N)
    return first, last


def _suffix_sums(p_cd: np.ndarray) -> np.ndarray:
    """Suffix sums over d of each row's mass, c-moment and v-moment.

    With c the C index and d the D index, v = c + n_D - 1 - d runs over
    0..n_C + n_D - 2.  S[:, c, d] sums d' >= d of row c, and is zero at
    d = n_D, so the sum of row c up to v is S[:, c, clip(c + n_D - 1 - v)].
    """
    n_C, n_D = p_cd.shape
    c = np.arange(n_C)[:, None]
    S = np.zeros((3, n_C, n_D + 1))
    terms = np.stack([p_cd, p_cd * c, p_cd * (c + n_D - 1 - np.arange(n_D))])
    S[..., :n_D] = np.cumsum(terms[..., ::-1], axis=-1)[..., ::-1]
    return S


def _prefix_columns(S: np.ndarray, d: np.ndarray) -> np.ndarray:
    """T[:, c1, i], the sum over c < c1 of S[:, c, d[c, i]] with d clipped
    into 0..n_D: one gather from the suffix sums and one sum over c."""
    n_C, n_D = S.shape[1], S.shape[2] - 1
    T = np.zeros((3, n_C + 1, d.shape[1]))
    np.cumsum(S[:, np.arange(n_C)[:, None], np.clip(d, 0, n_D)], axis=1, out=T[:, 1:])
    return T


def _at(T: np.ndarray, c: np.ndarray, i: np.ndarray) -> np.ndarray:
    """T[:, c, i] for a table from _prefix_columns (a flat take is faster
    than the broadcast fancy index)."""
    return T.reshape(3, -1).take(c * T.shape[2] + i, axis=1)


def _exposure_laws(params: EpidemicParams, state: ContinuousState, n_S: int
                   ) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Each vaccination level's exposure counts kB, their marginals pB (one
    row per intervention level) and its number of trials, once per count.

    The exposure probability of each y_R does not depend on y_V.  Every kept
    binomial support is one integer run, so a y_V's counts are the covered
    part of one span, and each row lands in it at one offset.
    """
    phis = [exposure_prob(params, state, Action(0, y_R)) for y_R in range(params.M + 1)]
    kBs, pBs, trials = [], [], []
    for y_V in range(params.L + 1):
        n_trials = vaccination_trials(params, n_S, y_V)
        marginals = [binomial_row(n_trials, phi) for phi in phis]
        if any(k[-1] - k[0] + 1 != len(k) for k, _ in marginals):
            raise DomainError("the B supports must be integer ranges")
        lo = min(int(k[0]) for k, _ in marginals)
        covered = np.zeros(max(int(k[-1]) for k, _ in marginals) + 1 - lo, dtype=bool)
        for k, _ in marginals:
            covered[k[0] - lo:k[-1] + 1 - lo] = True
        kB = np.flatnonzero(covered) + lo
        at = np.cumsum(covered) - 1
        pB = np.zeros((len(phis), len(kB)))
        for r, (k, p) in enumerate(marginals):
            start = int(at[k[0] - lo])
            pB[r, start:start + len(k)] = p / p.sum()
        kBs.append(kB)
        pBs.append(pB)
        trials.append(np.full(len(kB), n_trials))
    return kBs, pBs, trials


def discretize_kernel(
    grid: Grid, params: EpidemicParams, corner_indices: Sequence[int]
) -> list[list[SparseDistribution]]:
    """The kernel rows of each corner, in the order given: one list per
    corner, one row per action in ``params.actions()`` order.

    Each row is the exact atom law of ``seir.transition_pmf`` pushed onto the
    grid corners.  The atoms of every vaccination level y_V and exposure
    count b that some y_R can draw are pushed into K[(y_V, b), corner], and
    the row of (y_V, y_R) is pB(y_R) @ K.  JOINT_TOL applies to the
    action-free (C, D) factor, so the atoms kept are a superset of the
    per-action table's.

    The corners with equal counts (n_E, n_I) share their (C, D) law, and are
    pushed as one group (``_push_group``); the exposure laws of each
    distinct (n_S, p_I) are built once per call.  A corner outside the
    simplex raises DomainError (``Grid.state_of``) before any push, and so
    does a row the push cannot make a distribution, naming its corner and
    action.
    """
    states = {int(i): grid.state_of(int(i)) for i in corner_indices}
    laws: dict[tuple[int, float], tuple] = {}
    groups: dict[tuple[int, int], list[tuple[int, tuple]]] = {}
    for idx, state in states.items():
        n_S, n_E, n_I = state.counts(params.N)
        key = (n_S, state.p_I)
        if key not in laws:
            laws[key] = _exposure_laws(params, state, n_S)
        groups.setdefault((n_E, n_I), []).append((idx, laws[key]))
    actions = params.actions()
    rows: dict[int, list[SparseDistribution]] = {}
    for (n_E, n_I), members in groups.items():
        corners, member_laws = zip(*members)
        try:
            rows.update(zip(corners, _push_group(grid, params, n_E, n_I, member_laws)))
        except RowError as exc:
            a = actions[exc.row % len(actions)]
            raise DomainError(f"kernel row of corner {corners[exc.row // len(actions)]}, "
                              f"action ({a.y_V}, {a.y_R}): {exc.reason}") from None
    return [rows[int(i)] for i in corner_indices]


def _push_group(grid: Grid, params: EpidemicParams, n_E: int, n_I: int,
                member_laws: Sequence[tuple]) -> list[list[SparseDistribution]]:
    """The rows of every corner with counts (n_E, n_I), given each one's
    exposure laws, in one plane-moment pass.

    The atoms of one (y_V, b) differ only in (C, D), and are pushed as
    simplex-region moments.  In c = C - C0 and v = C - D - V_min (C0 and
    V_min the smallest values) the p_E cell is a c range for each b, the p_I
    cell a v range, the same for every b, and with the p_S fractional part
    f0 fixed by b, f0 >= f1 holds for c >= c_A, f0 >= f2 for v <= v_B, and
    f1 >= f2 for c + v <= w.  So each (p_E cell, p_I cell) box splits into at
    most six regions, each inside one simplex: the rectangles where f0 lies
    between f1 and f2, and the two quadrants where it does not, each cut by
    the anti-diagonal.  The barycentric weights are affine on each closed
    simplex, so a region's atoms push as their total mass placed at their
    mean, read in O(1) from prefix tables built from ``_suffix_sums``.  The
    thresholds are integer arithmetic, so an atom on one is assigned to a
    side exactly (either side is right: the interpolation is continuous),
    and each mean is clamped into its box, where differences of tiny masses
    could move it.

    Only the exposure counts differ between the members, so their (y_V, b)
    pairs run along one axis, member after member, and the means of all of
    them are located in one call.  Each member's K and rows are then formed
    on its own; its corner masses below ENTRY_TOL are dropped, and the
    group's rows are renormalized and checked as one block.
    """
    N, Y = params.N, grid.Y
    kC, pC = binomial_row(n_E, params.rho_C)
    kD, pD = binomial_row(n_I, params.rho_D)
    if np.any(np.diff(kC) != 1) or np.any(np.diff(kD) != 1):
        raise DomainError("the C and D supports must be integer ranges")
    n_C, n_D = len(kC), len(kD)
    n_V = n_C + n_D - 1
    p_cd = pC[:, None] * pD[None, :]
    p_cd[p_cd < JOINT_TOL] = 0.0
    p_cd /= p_cd.sum()
    S = _suffix_sums(p_cd)
    # The boxes cover counts up to N only.  Where the rounded counts sum past
    # N, n_E + n_I can exceed it, and an atom with I above N must not be
    # dropped.  (S and E stay within N: b > 0 needs p_I > 0, and then
    # n_S + n_E <= N.)
    c_kept, d_kept = np.nonzero(p_cd)
    if n_I + (kC[c_kept] - kD[d_kept]).max() > N:
        raise DomainError("point outside the unit cube")

    b = np.concatenate([kB for kBs, _, _ in member_laws for kB in kBs])
    S_next = np.concatenate([n for _, _, trials in member_laws for n in trials]) - b
    f0 = _frac_numerator(S_next, N, Y)[:, None, None]
    # Successor E and I counts at c = 0 and v = 0; E falls with c, I rises with v.
    E_top = n_E + b - kC[0]
    I_low = n_I + kC[0] - kD[-1]

    # The p_E cells of each pair, padded to a common count, and the p_I cells;
    # boxes are indexed (pair, p_E cell, p_I cell).
    j_lo = _cell_of(E_top - (n_C - 1), N, Y)
    j = (j_lo[:, None] + np.arange(int((_cell_of(E_top, N, Y) - j_lo).max()) + 1))[..., None]
    k = np.arange(_cell_of(I_low, N, Y), _cell_of(I_low + n_V - 1, N, Y) + 1)
    E_first, E_last = _cell_counts(j, N, Y)
    I_first, I_last = _cell_counts(k, N, Y)
    # Each box's half-open c range [lo, hi) with its cut c_A, and its v range
    # with its cut v_B, as (lo, cut, hi).
    c_cut = np.clip(E_top[:, None, None, None]
                    - np.stack([E_last, (f0 + j * N) // Y, E_first - 1], axis=-1), 0, n_C)
    v_cut = np.clip(np.stack(np.broadcast_arrays(I_first - 1, (f0 + k * N) // Y, I_last),
                             axis=-1) - I_low + 1, 0, n_V)
    for cut in (c_cut, v_cut):
        cut[..., 1] = np.clip(cut[..., 1], cut[..., 0], cut[..., 2])
    # The 2-D prefix sums at every v cut: F[:, c1, i] sums c < c1 and
    # v < v_cols[i].  F at the 3 x 3 cuts gives the four quadrants.
    c = np.arange(n_C)[:, None]
    v_cols, v_at = np.unique(v_cut, return_inverse=True)
    v_at = v_at.reshape(v_cut.shape)
    F = _prefix_columns(S, c + n_D - v_cols)
    # quads[..., x, y]: x = 0 where f1 > f0, 1 where f0 >= f1; y = 0 where
    # f0 >= f2, 1 where f2 > f0.
    quads = np.diff(np.diff(_at(F, c_cut[..., :, None], v_at[..., None, :]),
                            axis=-2), axis=-1)
    # The quadrant with f0 >= f1 and f0 >= f2, and the one with f1 > f0 and
    # f2 > f0, each split where c + v <= w: whole rows [c0, ca), then rows
    # [ca, cb) cut by the anti-diagonal, whose sums G[:, c1, i] over c < c1
    # of row c up to v = w_cols[i] - c are taken at every w.
    c0, c1 = c_cut[..., [1, 0]], c_cut[..., [2, 1]]
    v0, v1 = v_at[..., [0, 1]], v_at[..., [1, 2]]
    w = (E_top[:, None, None] - I_low + (k - j) * N // Y)[..., None]
    ca = np.clip(w - v_cut[..., [1, 2]] + 2, c0, c1)
    cb = np.clip(w - v_cut[..., [0, 1]] + 1, ca, c1)
    w_cols, w_at = np.unique(w, return_inverse=True)
    w_at = w_at.reshape(w.shape)
    G = _prefix_columns(S, 2 * c + n_D - 1 - w_cols)
    below = (_at(F, ca, v1) - _at(F, c0, v1) + _at(F, c0, v0) - _at(F, cb, v0)
             + _at(G, cb, w_at) - _at(G, ca, w_at))
    regions = np.concatenate([below, quads[..., [1, 0], [0, 1]] - below,
                              quads[..., [0, 1], [0, 1]]], axis=-1)
    hit = np.nonzero(regions[0] > 0.0)
    pair, jj, kk, _ = hit
    mass = regions[0][hit]
    mean_c = np.clip(regions[1][hit] / mass, c_cut[pair, jj, 0, 0], c_cut[pair, jj, 0, 2] - 1)
    mean_v = np.clip(regions[2][hit] / mass, v_cut[pair, 0, kk, 0], v_cut[pair, 0, kk, 2] - 1)

    points = np.stack([S_next[pair], E_top[pair] - mean_c, I_low + mean_v], axis=1) / N
    idx, wts = grid.locate_many(points)
    pushed = wts * mass[:, None]

    # Each member's pairs, and its hits, are one run of the pair axis.
    n_pairs = [sum(len(kB) for kB in kBs) for kBs, _, _ in member_laws]
    pair_start = np.cumsum([0] + n_pairs)
    hit_start = np.searchsorted(pair, pair_start).tolist()
    successors, probs, lengths = [], [], []
    for m, (kBs, pBs, _) in enumerate(member_laws):
        lo, hi = hit_start[m], hit_start[m + 1]
        corners, col = np.unique(idx[lo:hi], return_inverse=True)
        K = np.bincount(((pair[lo:hi, None] - pair_start[m]) * len(corners)
                         + col.reshape(hi - lo, 4)).ravel(),
                        weights=pushed[lo:hi].ravel(),
                        minlength=n_pairs[m] * len(corners)).reshape(n_pairs[m], len(corners))
        bounds = np.cumsum([0] + [len(kB) for kB in kBs])
        row_mass = np.vstack([pB @ K[a:z] for pB, a, z in zip(pBs, bounds[:-1], bounds[1:])])
        keep = row_mass >= ENTRY_TOL
        successors.append(corners[np.nonzero(keep)[1]])
        probs.append(row_mass[keep])
        lengths.append(keep.sum(axis=1))
    offsets = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
    rows = SparseDistribution.block(np.concatenate(successors), np.concatenate(probs),
                                    offsets, normalize=True)
    n_a = (params.L + 1) * (params.M + 1)
    return [rows[m * n_a:(m + 1) * n_a] for m in range(len(member_laws))]


def cache_key(params: EpidemicParams, Y: int) -> str:
    """Content hash identifying a compiled kernel cache.

    The payload holds only what the rows depend on: the parameters of the
    transition law, the grid size, the truncation tolerances, and the push,
    row-normalization and pmf schemes, so that rows written by an earlier
    push, normalization or binomial law, which differ from a fresh compile in
    their last bits, miss.  Rewards and rules are rebuilt by the loading
    model, so its cost, horizon and ambiguity settings are not in the key.
    """
    payload = "|".join(
        f"{k}={getattr(params, k)!r}"
        for k in ("N", "mu", "beta", "alpha0", "l_C", "l_D", "L", "M")
    )
    payload += f"|Y={Y}"
    payload += f"|tols={MARGINAL_TOL!r},{JOINT_TOL!r},{ENTRY_TOL!r}"
    payload += "|push=plane-moments|norm=block|pmf=mode-ratio"
    import hashlib  # loaded only when a cache is keyed

    return hashlib.sha256(payload.encode()).hexdigest()[:16]
