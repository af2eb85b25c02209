"""Corner-state grid over the unit cube with simplex interpolation.

The cube containing all (p_S, p_E, p_I) combinations is cut into Y^3 cells;
each cell splits into six equal-volume simplexes along coordinate-sorted
diagonals, so any interior point is a convex combination of at most four cell
corners.  Transition laws over continuous atoms are pushed onto the corners
through those weights, giving a finite kernel.  Corners whose fractions exceed
1 are unreachable population mixes and absorb with probability one.

The push runs once per state and vaccination level: the intervention level
only reweights the exposure count, so the atoms of every exposure count are
pushed once and each action's row is a weighted sum of those pushes.  The
weights are affine inside each simplex, so the atoms that share one, which
differ only in their recovery count, are pushed together as their total mass
at their mean point.  A state's rows come out as one block of flat arrays,
renormalized and checked at once (``SparseDistribution.block``).
"""

from __future__ import annotations

import hashlib
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

# The six axis orderings in lexicographic order; labels 0..5 name the simplexes.
_PERMUTATIONS = np.array(
    [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]], dtype=np.int64
)


def _label_of_code() -> np.ndarray:
    """Simplex label of each comparison code 4*(f0>=f1) + 2*(f0>=f2) + (f1>=f2).

    Codes 2 and 5 would be cyclic orders and never occur; they map to -1.
    """
    lut = np.full(8, -1, dtype=np.int64)
    for label, order in enumerate(_PERMUTATIONS):
        rank = np.argsort(order)
        lut[4 * (rank[0] < rank[1]) + 2 * (rank[0] < rank[2]) + (rank[1] < rank[2])] = label
    return lut


_LABEL_OF_CODE = _label_of_code()

@dataclass(frozen=True)
class GridSpec:
    """Number of subdivisions per axis; the grid has (Y+1)^3 corners."""

    Y: int

    def __post_init__(self) -> None:
        if self.Y < 1:
            raise DomainError(f"Y must be >= 1, got {self.Y}")


class SparseDistribution:
    """Probability mass over corner indices; indices unique and ascending.

    The constructor checks one row; ``block`` checks many rows at once.
    """

    __slots__ = ("indices", "probs")

    def __init__(self, indices: np.ndarray, probs: np.ndarray, normalize: bool = False):
        indices = np.asarray(indices, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        if indices.shape != probs.shape or indices.ndim != 1:
            raise DomainError("indices and probs must be matching 1-d arrays")
        order = np.argsort(indices, kind="stable")
        indices, probs = indices[order], probs[order]
        if len(indices) > 1 and np.any(np.diff(indices) == 0):
            raise DomainError("duplicate successor indices")
        if np.any(probs < -1e-15):
            raise DomainError("negative probability entry")
        total = probs.sum()
        if normalize:
            if not total > 0:  # NaN fails too
                raise DomainError("cannot normalize empty distribution")
            probs = probs / total
        elif not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise DomainError(f"probabilities sum to {total}, not 1")
        self.indices = indices
        self.probs = probs

    @classmethod
    def block(cls, indices: np.ndarray, probs: np.ndarray, offsets: np.ndarray,
              normalize: bool = False) -> list[SparseDistribution]:
        """The rows held at [offsets[r], offsets[r+1]) of flat indices and probs.

        The whole block is checked at once for what the constructor checks
        of one row, except that each row's indices must already ascend
        strictly.  A row that fails raises RowError naming the first such
        row and the constructor's reason.  The rows are views of one
        read-only buffer.
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
        # per comparison code: one axis stride more at each step of the path.
        strides = np.array([side * side, side, 1], dtype=np.int64)
        self._vertex_offsets = np.zeros((8, 4), dtype=np.int64)
        for code, label in enumerate(_LABEL_OF_CODE):
            if label >= 0:
                self._vertex_offsets[code, 1:] = np.cumsum(strides[_PERMUTATIONS[label]])

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

        Returns (corner_indices (n,4), weights (n,4), simplex_labels (n,)).
        The simplex follows the fractional parts sorted in descending order,
        ties going to the lower axis.
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
        idx = base[:, None] + self._vertex_offsets[code]
        return idx, weights, _LABEL_OF_CODE[code]


def build_grid(spec: GridSpec) -> Grid:
    return Grid(spec)


def _frac_numerator(counts: np.ndarray, N: int, Y: int) -> np.ndarray:
    """N times the fractional part locate_many gives the fractions counts/N,
    exactly: (counts*Y) mod N, except N where the cell index is clamped at Y-1."""
    scaled = counts * Y
    return scaled - np.minimum(scaled // N, Y - 1) * N


def discretize_kernel(
    grid: Grid, params: EpidemicParams, corner_index: int
) -> list[SparseDistribution]:
    """All kernel rows of one corner, one per action in ``params.actions()`` order.

    Each row is the exact atom law of ``seir.transition_pmf`` pushed onto the
    grid corners, computed once per vaccination level y_V: the atoms of every
    exposure count b that some y_R can draw are pushed into K[b, corner], and
    the row of (y_V, y_R) is pB(y_R) @ K.  JOINT_TOL applies to the
    action-free (C, D) factor, so the atoms kept are a superset of the
    per-action table's.

    The atoms are pushed as segment moments.  For fixed (y_V, b, C) only the
    recovery count D varies, and the successor moves along the p_I axis with
    its p_S and p_E fractional parts (f0, f1) fixed, so it changes simplex
    only where p_I crosses j, j + f0 or j + f1 (in units of 1/Y).  The
    barycentric weights are affine on each closed simplex, so the atoms
    between two such breakpoints push as their total mass placed at their
    mean; prefix sums over D of the mass and of its first moment give both.
    The breakpoints are found in integer arithmetic, so an atom on one is
    assigned to a side exactly (either side is right: the interpolation is
    continuous), and each mean is clamped into its segment, where prefix
    differences of tiny masses could move it.

    Corner masses below ENTRY_TOL are dropped, and the state's rows are
    renormalized and checked as one block.  Invalid corners (fractions
    summing past 1) self-loop with probability one.
    """
    n_rows = (params.L + 1) * (params.M + 1)
    if not grid.in_S[corner_index]:
        row = SparseDistribution(np.array([corner_index]), np.array([1.0]))
        return [row] * n_rows
    state = grid.state_of(corner_index)
    N, Y = params.N, grid.Y
    n_S, n_E, n_I = state.counts(N)

    kC, pC = binomial_row(n_E, params.rho_C)
    kD, pD = binomial_row(n_I, params.rho_D)
    n_C, n_D = len(kC), len(kD)
    p_cd = pC[:, None] * pD[None, :]
    p_cd[p_cd < JOINT_TOL] = 0.0
    p_cd /= p_cd.sum()
    # Successor I counts, descending along D; prefix mass and first moment.
    I_next = n_I + kC[:, None] - kD[None, :]
    mass_upto = np.zeros((n_C, n_D + 1))
    moment_upto = np.zeros((n_C, n_D + 1))
    np.cumsum(p_cd, axis=1, out=mass_upto[:, 1:])
    np.cumsum(p_cd * I_next, axis=1, out=moment_upto[:, 1:])
    # The p_I cells each C's D range spans, padded to a common count; each
    # cell [j, j+1) splits at j + min(f0, f1) and j + max(f0, f1).
    cell_lo = np.minimum(I_next[:, -1] * Y // N, Y - 1)
    cell_hi = np.minimum(I_next[:, 0] * Y // N, Y - 1)
    cell_start = (cell_lo[:, None] + np.arange(int((cell_hi - cell_lo).max()) + 1)) * N
    c_axis = np.arange(n_C)[None, :, None]

    # The exposure probability of each y_R; it does not depend on y_V.
    phis = [exposure_prob(params, state, Action(0, y_R)) for y_R in range(params.M + 1)]
    # The kept entries of every row, in action order, for one block.
    indices, masses, lengths = [], [], []
    for y_V in range(params.L + 1):
        trials = vaccination_trials(params, n_S, y_V)
        marginals = [binomial_row(trials, phi) for phi in phis]
        kB = np.unique(np.concatenate([k for k, _ in marginals]))
        pB = np.zeros((len(phis), len(kB)))
        for r, (k, p) in enumerate(marginals):
            pB[r, np.searchsorted(kB, k)] = p / p.sum()

        S_next = trials - kB                          # (nB,)
        E_next = n_E + kB[:, None] - kC[None, :]      # (nB, nC)
        # N times the p_S and p_E fractional parts, fixed along each line.
        f0 = _frac_numerator(S_next, N, Y)[:, None, None]
        f1 = _frac_numerator(E_next, N, Y)[:, :, None]
        # Segment bounds on N*Y*p_I, ascending along the last axis; a last
        # count of zero atoms above closes the top segment.
        start = np.broadcast_to(cell_start, E_next.shape + cell_start.shape[1:])
        bounds = np.stack([start, start + np.minimum(f0, f1), start + np.maximum(f0, f1)],
                          axis=-1).reshape(*E_next.shape, -1)
        # The atoms at or above a bound are those with I_next * Y >= bound,
        # that is D <= n_I + C - ceil(bound / Y): a prefix of kD.
        d_max = n_I + kC[None, :, None] + (-bounds // Y)
        above = np.searchsorted(kD, d_max.ravel(), side="right").reshape(d_max.shape)
        above = np.concatenate([above, np.zeros_like(above[..., :1])], axis=-1)
        hi, lo = above[..., :-1], above[..., 1:]   # segment atoms: D index in [lo, hi)
        seg_mass = mass_upto[c_axis, hi] - mass_upto[c_axis, lo]
        b, c, s = np.nonzero(seg_mass > 0.0)
        lo, hi, seg_mass = lo[b, c, s], hi[b, c, s], seg_mass[b, c, s]
        mean_I = np.clip((moment_upto[c, hi] - moment_upto[c, lo]) / seg_mass,
                         I_next[c, hi - 1], I_next[c, lo])

        points = np.stack([S_next[b], E_next[b, c], mean_I], axis=1) / N
        idx, wts = grid.locate_many(points)[:2]
        # K spans only the corner indices reached, from first to last.
        first = int(idx.min())
        width = int(idx.max()) - first + 1
        K = np.bincount((idx - first + (b * width)[:, None]).ravel(),
                        weights=(wts * seg_mass[:, None]).ravel(),
                        minlength=len(kB) * width).reshape(len(kB), width)
        row_mass = pB @ K
        keep = row_mass >= ENTRY_TOL
        indices.append(first + np.nonzero(keep)[1])
        masses.append(row_mass[keep])
        lengths.append(keep.sum(axis=1))
    offsets = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
    return SparseDistribution.block(np.concatenate(indices), np.concatenate(masses),
                                    offsets, normalize=True)


def cache_key(params: EpidemicParams, Y: int, delta: float) -> str:
    """Content hash identifying a compiled kernel/rule cache.

    The payload names the push, row-normalization and pmf schemes, so that
    rows written by an earlier push, normalization or binomial law, which
    differ from a fresh compile in their last bits, miss.
    """
    payload = "|".join(
        f"{k}={getattr(params, k)!r}"
        for k in ("N", "mu", "beta", "alpha0", "l_C", "l_D", "Q", "k_R", "W",
                  "L", "M", "lam", "T")
    )
    payload += f"|Y={Y}|delta={delta!r}"
    payload += f"|tols={MARGINAL_TOL!r},{JOINT_TOL!r},{ENTRY_TOL!r}"
    payload += "|push=segment-moments|norm=block|pmf=mode-ratio"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
