"""Corner-state grid over the unit cube with simplex interpolation.

The cube containing all (p_S, p_E, p_I) combinations is cut into Y^3 cells;
each cell splits into six equal-volume simplexes along coordinate-sorted
diagonals, so any interior point is a convex combination of at most four cell
corners.  Transition laws over continuous atoms are pushed onto the corners
through those weights, giving a finite kernel.  Only corners inside the
population simplex have rows; a rollout that reaches another corner stops.

The push (``discretize_kernel``) takes a list of corners.  Within a state
the intervention level only reweights the exposure count, so the atoms of
every (vaccination level, exposure count) pair are pushed once and each
action's row is a weighted sum of those pushes; the atoms of one pair in one
simplex are pushed as their total mass at their mean point, read from prefix
tables over the (C, D) plane.  Kernel rows are held flat: a RowBlock is
(indices, probs, row offsets), and a row (SparseDistribution) is a read-only
view of it made on demand.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RowError
from .seir import (ENTRY_TOL, JOINT_TOL, MARGINAL_TOL, Action, ContinuousState, EpidemicParams,
                   binomial_rows, exposure_prob, segment_sums, vaccination_trials)
from .seir import transition_pmf  # noqa: F401  perfbench/layers.py traces grid.transition_pmf


@dataclass(frozen=True)
class GridSpec:
    """Number of subdivisions per axis; the grid has (Y+1)^3 corners."""

    Y: int

    def __post_init__(self) -> None:
        if self.Y < 1:
            raise DomainError(f"Y must be >= 1, got {self.Y}")


class SparseDistribution:
    """A read-only view of one kernel row, made on demand from a RowBlock:
    probability mass over corner indices, unique and ascending."""

    __slots__ = ("indices", "probs")

    def __init__(self, indices: np.ndarray, probs: np.ndarray):
        self.indices, self.probs = indices, probs

    @staticmethod
    def block(indices: np.ndarray, probs: np.ndarray, offsets: np.ndarray,
              normalize: bool = False) -> RowBlock:
        """The rows held at [offsets[r], offsets[r+1]) of flat indices and
        probs, as one RowBlock of read-only copies, all checked at once: each
        row's indices must ascend strictly, no entry may be below -1e-15, and
        each row must sum to one within 1e-9 or, with normalize, to a
        positive total, by which it is then divided.  A row that fails raises
        RowError naming the first such row and its reason."""
        indices = np.array(indices, dtype=np.int64)
        probs = np.array(probs, dtype=np.float64)
        offsets = np.array(offsets, dtype=np.int64)
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
        for a in (indices, probs, offsets):
            a.flags.writeable = False
        return RowBlock(indices, probs, offsets)

    def __len__(self) -> int:
        return len(self.indices)

    def dot(self, values: np.ndarray) -> float:
        """Expectation of per-corner values under this distribution."""
        return float(np.dot(self.probs, values[self.indices]))


class RowBlock(Sequence):
    """Kernel rows held flat: row r puts probs[offsets[r]:offsets[r+1]] on
    the corners indices[offsets[r]:offsets[r+1]], and offsets[0] is 0.  It
    holds what it is given (``SparseDistribution.block`` checks rows); a row
    or run of rows taken from it is a view, so no row object is kept."""

    __slots__ = ("indices", "probs", "offsets")

    def __init__(self, indices: np.ndarray, probs: np.ndarray, offsets: np.ndarray):
        self.indices, self.probs, self.offsets = indices, probs, offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, r):
        if isinstance(r, slice):
            start, stop, step = r.indices(len(self))
            if step != 1:
                raise DomainError("a RowBlock slices runs of rows only")
            stop = max(start, stop)
            lo, hi = self.offsets[start], self.offsets[stop]
            return RowBlock(self.indices[lo:hi], self.probs[lo:hi],
                            self.offsets[start:stop + 1] - lo)
        r = range(len(self))[r]
        lo, hi = self.offsets[r], self.offsets[r + 1]
        return SparseDistribution(self.indices[lo:hi], self.probs[lo:hi])

    @staticmethod
    def join(parts: Iterable[RowBlock | SparseDistribution]) -> RowBlock:
        """Rows, and runs of rows given as RowBlocks, in order, copied into
        one read-only RowBlock."""
        parts = list(parts)
        lengths = [np.diff(p.offsets) if isinstance(p, RowBlock) else [len(p)] for p in parts]
        arrays = (np.concatenate([np.zeros(0, np.int64)] + [p.indices for p in parts]),
                  np.concatenate([np.zeros(0)] + [p.probs for p in parts]),
                  np.append(0, np.cumsum(np.concatenate([[]] + lengths), dtype=np.int64)))
        for a in arrays:
            a.flags.writeable = False
        return RowBlock(*arrays)


class KernelBlock(Sequence):
    """The kernel rows of some corners as one RowBlock: corners[m] has rows
    m*n_actions .. (m+1)*n_actions - 1, one per action in ``params.actions()``
    order, and indexing m gives them as a RowBlock of views."""

    __slots__ = ("corners", "rows", "n_actions")

    def __init__(self, corners: np.ndarray, rows: RowBlock, n_actions: int):
        self.corners, self.rows, self.n_actions = corners, rows, n_actions

    def __len__(self) -> int:
        return len(self.corners)

    def __getitem__(self, m: int) -> RowBlock:
        m = range(len(self))[m]
        return self.rows[m * self.n_actions:(m + 1) * self.n_actions]


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
        """Vectorized barycentric location of points inside the unit cube:
        (corner_indices (n,4), weights (n,4)).  The simplex follows the
        fractional parts sorted in descending order, ties to the lower axis."""
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


def _suffix_sums(N: int, EI: np.ndarray, pmf: np.ndarray, C0: np.ndarray, D0: np.ndarray,
                 n_C: np.ndarray, n_D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Suffix sums over d of the masses, c-moments and v-moments of the (C, D)
    laws of counts EI, each law's rows from row top, then a row of zeros: with
    c = C - C0, d = D - D0, the sum of row c up to v = c + n_D - 1 - d is
    S[:, top + c, clip(d)].  Padding past n_D is summed first, as zeros."""
    row = np.repeat(np.arange(len(EI)), n_C)
    top = np.cumsum(n_C) - n_C
    c, d = np.arange(len(row)) - top[row], np.arange(n_D.max())
    pD = pmf[np.arange(len(EI))[:, None], 1, np.minimum(D0[:, None] + d, pmf.shape[-1] - 1)]
    pD[d >= n_D[:, None]] = 0.0
    p_cd = pmf[row, 0, C0[row] + c][:, None] * pD[row]
    p_cd[p_cd < JOINT_TOL] = 0.0
    sizes = n_C * n_D
    p_cd /= np.repeat(segment_sums(p_cd[d < n_D[row, None]], np.cumsum(sizes) - sizes, sizes),
                      n_C)[:, None]
    # The boxes cover counts up to N; a successor's I passes it where the
    # rounded counts do (S, E cannot: b > 0 needs p_I > 0, so n_S + n_E <= N).
    reach = np.maximum.reduceat(np.where(p_cd > 0.0, c[:, None] - d, -len(d)).max(axis=1), top)
    if np.any(EI[:, 1] + C0 - D0 + reach > N):
        raise DomainError("point outside the unit cube")
    c = c[:, None]
    terms = np.stack([p_cd, p_cd * c, p_cd * np.maximum(c + n_D[row, None] - 1 - d, 0)])
    S = np.zeros((3, len(row) + 1, len(d) + 1))
    S[:, :-1, :-1] = np.cumsum(terms[..., ::-1], axis=-1)[..., ::-1]
    return top, S


def _prefix_tables(S: np.ndarray, top: np.ndarray, n_C: np.ndarray, n_D: np.ndarray,
                   groups: np.ndarray, cols: np.ndarray, slope: int) -> np.ndarray:
    """T[:, c1, i], the sum over c < c1 of S[:, top[g] + c, d] at
    d = clip(slope * c + n_D[g] - cols[i]), g = groups[i], by one gather and
    one sum over c; past its n_C[g] rows a column adds S's last row, zeros."""
    c = np.arange(n_C[groups].max())[:, None]
    T = np.zeros((3, len(c) + 1, len(groups)))
    rows = np.where(c < n_C[groups], top[groups] + c, -1)
    np.cumsum(S[:, rows, np.clip(slope * c + n_D[groups] - cols, 0, n_D[groups])], axis=1,
              out=T[:, 1:])
    return T


def _at(T: np.ndarray, c: np.ndarray, i: np.ndarray) -> np.ndarray:
    """T[:, c, i], by a flat take (faster than the broadcast fancy index)."""
    return T.reshape(3, -1).take(c * T.shape[2] + i, axis=1)


def _columns(groups: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct (group, value) pairs, as their groups and values, and
    the place of each pair among them, shaped as values."""
    lo, span = values.min(), np.ptp(values) + 1
    key = groups * span + (values - lo)
    present = np.bincount(key.ravel()) > 0
    cols = np.flatnonzero(present)
    return cols // span, cols % span + lo, (np.cumsum(present) - 1)[key]


# Entries per run (_runs): (n_S, p_I)'s exposure laws count (L+1)(M+1)(n_S+1),
# a pushed corner its boxes (at most its (y_V, b) pairs times the cells its
# (C, D) law spans), plus the law's n_C (n_D + 1) suffix sums where it is new.
# The dp-mip-small compile (N=100, Y=5) took 3 runs, 0.013 s and 2.4 MB.
PUSH_ENTRIES = 1 << 13


def _runs(costs: Sequence[int]) -> list[int]:
    """Where runs of consecutive items start, then their end: the items
    whose running cost falls in one multiple of PUSH_ENTRIES are a run."""
    step = np.cumsum(costs) // PUSH_ENTRIES
    cuts = np.flatnonzero(step[1:] != step[:-1]) + 1
    return [0, *cuts.tolist(), len(step)] if len(step) else [0]


def _exposure_laws(params: EpidemicParams, states: Sequence[ContinuousState],
                   counts: Sequence[tuple[int, int, int]]) -> list[tuple[list, list, list]]:
    """Each state's exposure laws, built once per (n_S, p_I) in runs by n_S,
    each by one ``binomial_rows`` call: per vaccination level, the counts kB
    (the covered part of its span, every kept support being one integer run),
    their marginals pB, one row per y_R over its own run, and the trials."""
    keys = sorted({(n_S, state.p_I): state for state, (n_S, _, _) in zip(states, counts)}.items())
    bounds = _runs([(params.L + 1) * (params.M + 1) * (n_S + 1) for (n_S, _), _ in keys])
    laws = {}
    for run in (keys[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])):
        ns = np.array([[vaccination_trials(params, n_S, y_V) for y_V in range(params.L + 1)]
                       for (n_S, _), _ in run])
        phis = np.array([[exposure_prob(params, state, Action(0, y_R))
                          for y_R in range(params.M + 1)] for _, state in run])
        pmf, keep = binomial_rows(ns[:, :, None], phis[:, None, :])
        first = np.argmax(keep, axis=-1)
        end = keep.shape[-1] - np.argmax(keep[..., ::-1], axis=-1)
        if np.any(keep.sum(axis=-1) != end - first):
            raise DomainError("the B supports must be integer ranges")
        sums = segment_sums(pmf.ravel(), (np.arange(first.size) * keep.shape[-1]
                                          + first.ravel()), (end - first).ravel())
        lo, keep = int(first.min()), keep[..., :end.max()]
        marginals = np.where(keep[..., lo:], pmf[..., lo:keep.shape[-1]]
                             / sums.reshape(first.shape + (1,)), 0.0)
        for (key, _), covered, marginal, trials in zip(run, keep[..., lo:].any(axis=-2),
                                                       marginals, ns.tolist()):
            ats = [np.flatnonzero(row) for row in covered]
            # C order: the bits of pB @ K depend on its layout.
            laws[key] = ([at + lo for at in ats],
                         [np.ascontiguousarray(m[:, at]) for m, at in zip(marginal, ats)],
                         [np.full(len(at), n) for at, n in zip(ats, trials)])
    return [laws[n_S, state.p_I] for state, (n_S, _, _) in zip(states, counts)]


def discretize_kernel(grid: Grid, params: EpidemicParams,
                      corner_indices: Sequence[int]) -> KernelBlock:
    """The kernel rows of each corner, in the order given, as one
    KernelBlock: one row per action in ``params.actions()`` order.

    Each row is the exact atom law of ``seir.transition_pmf`` pushed onto the
    grid corners: the atoms of every vaccination level y_V and exposure count
    b some y_R can draw go into K[(y_V, b), corner], and the row of (y_V, y_R)
    is pB(y_R) @ K.  JOINT_TOL applies to the action-free (C, D) factor.

    The laws are built once per call.  The corners are pushed in runs of the
    order given (``_runs``, ``_push_batch``), each run's rows renormalized,
    checked and appended to the call's block, which grows in place.  A corner
    outside the simplex raises DomainError before any push, and so does a
    row that cannot be made a distribution, naming its corner and action.
    """
    corners = np.array(corner_indices, dtype=np.int64).reshape(-1)
    states = [grid.state_of(i) for i in corners.tolist()]
    counts = [state.counts(params.N) for state in states]
    member_laws = _exposure_laws(params, states, counts)
    planes: dict[tuple[int, int], int] = {}
    plane = np.array([planes.setdefault((n_E, n_I), len(planes)) for _, n_E, n_I in counts],
                     dtype=np.int64)
    EI = np.array(list(planes), dtype=np.int64).reshape(-1, 2)
    pmf, keep = binomial_rows(EI, [params.rho_C, params.rho_D])
    first, n_kept = np.argmax(keep, axis=-1), keep.sum(axis=-1)
    if np.any(keep.shape[-1] - np.argmax(keep[..., ::-1], axis=-1) - first != n_kept):
        raise DomainError("the C and D supports must be integer ranges")
    (C0, D0), (n_C, n_D) = first.T, n_kept.T
    I_low = EI[:, 1] + C0 - (D0 + n_D - 1)
    boxes = (((n_C - 1) * grid.Y // params.N + 2) * (_cell_of(
        I_low + n_C + n_D - 2, params.N, grid.Y) - _cell_of(I_low, params.N, grid.Y) + 1))
    pairs = np.array([sum(len(kB) for kB in kBs) for kBs, _, _ in member_laws], dtype=np.int64)
    new = np.append(True, plane[1:] != plane[:-1])
    bounds = _runs(pairs * boxes[plane] + new * (n_C * (n_D + 1))[plane])
    n_a = (params.L + 1) * (params.M + 1)
    indices, probs, lengths = np.zeros(0, np.int64), np.zeros(0), [np.zeros(0, np.int64)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        try:
            block = SparseDistribution.block(*_push_batch(
                grid, params, plane[lo:hi], (EI, pmf, C0, D0, n_C, n_D), member_laws[lo:hi]),
                normalize=True)
        except RowError as exc:
            a = params.actions()[exc.row % n_a]
            raise DomainError(f"kernel row of corner {corners[lo + exc.row // n_a]}, "
                              f"action ({a.y_V}, {a.y_R}): {exc.reason}") from None
        # No view of indices or probs exists yet, so each grows by realloc.
        end = len(indices)
        for flat, part in ((indices, block.indices), (probs, block.probs)):
            flat.resize(end + len(part), refcheck=False)
            flat[end:] = part
        lengths.append(np.diff(block.offsets))
    offsets = np.append(0, np.cumsum(np.concatenate(lengths)))
    for a in (indices, probs, offsets):
        a.flags.writeable = False
    return KernelBlock(corners, RowBlock(indices, probs, offsets), n_a)


def _push_batch(grid: Grid, params: EpidemicParams, plane: np.ndarray, laws: tuple,
                member_laws: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of corners whose (C, D) laws are rows plane of laws, with
    these exposure laws, as flat successors and masses split at offsets.
    The (y_V, b) pairs of all corners run along one axis, and their region
    means are located at once; each corner's K and rows are then formed over
    the corners it hits, marked on the grid, dropping masses below ENTRY_TOL."""
    used = np.array(sorted(set(plane.tolist())))
    plane = np.searchsorted(used, plane)
    n_pairs = [sum(len(kB) for kB in kBs) for kBs, _, _ in member_laws]
    b = np.concatenate([kB for kBs, _, _ in member_laws for kB in kBs])
    pair, mass, points = _region_means(
        params.N, grid.Y, [x[used] for x in laws], np.repeat(plane, n_pairs), b,
        np.concatenate([n for _, _, trials in member_laws for n in trials]) - b)
    idx, wts = grid.locate_many(points)
    pushed = wts * mass[:, None]

    # Each corner's pairs, and its hits, are one run of the pair axis.
    pair_start = np.cumsum([0] + n_pairs)
    hit_start = np.searchsorted(pair, pair_start).tolist()
    marked = np.zeros(grid.n_corners, dtype=bool)
    column = np.empty(grid.n_corners, dtype=np.int64)
    successors, probs, lengths = [], [], []
    for m, (kBs, pBs, _) in enumerate(member_laws):
        lo, hi = hit_start[m], hit_start[m + 1]
        marked[idx[lo:hi]] = True
        corners = np.flatnonzero(marked)
        marked[corners] = False
        column[corners] = np.arange(len(corners))
        K = np.bincount(((pair[lo:hi, None] - pair_start[m]) * len(corners)
                         + column[idx[lo:hi]]).ravel(),
                        weights=pushed[lo:hi].ravel(),
                        minlength=n_pairs[m] * len(corners)).reshape(n_pairs[m], len(corners))
        bounds = np.cumsum([0] + [len(kB) for kB in kBs])
        row_mass = np.vstack([pB @ K[a:z] for pB, a, z in zip(pBs, bounds[:-1], bounds[1:])])
        keep = row_mass >= ENTRY_TOL
        successors.append(corners[np.nonzero(keep)[1]])
        probs.append(row_mass[keep])
        lengths.append(keep.sum(axis=1))
    return (np.concatenate(successors), np.concatenate(probs),
            np.append(0, np.cumsum(np.concatenate(lengths))))


def _region_means(N: int, Y: int, laws: Sequence[np.ndarray], g: np.ndarray, b: np.ndarray,
                  S_next: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pair, mass and mean point of each nonempty simplex region of pairs
    (y_V, b) with S_next susceptibles left and (C, D) law g of laws.

    In c = C - C0 and v = C - D - V_min (C0 and V_min the smallest values)
    the p_E cell is a c range for each b, the p_I cell a v range, and with
    the p_S fractional part f0 fixed by b, f0 >= f1 holds for c >= c_A,
    f0 >= f2 for v <= v_B, and f1 >= f2 for c + v <= w.  So each (p_E cell,
    p_I cell) box splits into at most six regions, each in one simplex (the
    rectangles where f0 lies between f1 and f2, and the two quadrants where
    it does not, each cut by the anti-diagonal), where the weights are
    affine: a region's atoms push as their mass at their mean, read from
    prefix tables.  The thresholds are integer arithmetic, so an atom on one
    goes to one side exactly (either is right), and each mean is clamped.
    """
    EI, _, C0, D0, n_C, n_D = laws
    n_V = n_C + n_D - 1
    # Successor E and I counts at c = 0 and v = 0; E falls with c, I rises with v.
    E_top = EI[g, 0] + b - C0[g]
    I_low = EI[:, 1] + C0 - (D0 + n_D - 1)
    # Each pair's boxes, (p_E cell, p_I cell) in order: the p_E cells its c
    # range spans, and the p_I cells the v range of its law spans.
    j_lo = _cell_of(E_top - (n_C[g] - 1), N, Y)
    k_lo = _cell_of(I_low, N, Y)
    n_k = (_cell_of(I_low + n_V - 1, N, Y) - k_lo + 1)[g]
    n_box = (_cell_of(E_top, N, Y) - j_lo + 1) * n_k
    box = np.repeat(np.arange(len(g)), n_box)
    r = np.arange(len(box)) - np.repeat(np.cumsum(n_box) - n_box, n_box)
    j, k = j_lo[box] + r // n_k[box], k_lo[g[box]] + r % n_k[box]
    f0, E_top, I_low, g = _frac_numerator(S_next, N, Y)[box], E_top[box], I_low[g[box]], g[box]
    E_first, E_last = _cell_counts(j, N, Y)
    I_first, I_last = _cell_counts(k, N, Y)
    # Each box's half-open c range [lo, hi) with its cut c_A, and its v range
    # with its cut v_B, as (lo, cut, hi).
    c_cut = np.clip(E_top[:, None] - np.stack([E_last, (f0 + j * N) // Y, E_first - 1], axis=-1),
                    0, n_C[g, None])
    v_cut = np.clip(np.stack([I_first - 1, (f0 + k * N) // Y, I_last], axis=-1)
                    - I_low[:, None] + 1, 0, n_V[g, None])
    for cut in (c_cut, v_cut):
        cut[:, 1] = np.clip(cut[:, 1], cut[:, 0], cut[:, 2])
    w = (E_top - I_low + (k - j) * N // Y)[:, None]
    del j, k, f0, E_first, E_last, I_first, I_last
    top, S = _suffix_sums(N, *laws)
    # The 2-D prefix sums at every v cut: F[:, c1, i] sums c < c1 and
    # v < v of column i.  F at the 3 x 3 cuts gives the four quadrants.
    groups, v, v_at = _columns(g[:, None], v_cut)
    F = _prefix_tables(S, top, n_C, n_D, groups, v, 1)
    # quads[..., x, y]: x = 0 where f1 > f0, 1 where f0 >= f1; y = 0 where
    # f0 >= f2, 1 where f2 > f0.
    quads = _at(F, c_cut[:, :, None], v_at[:, None, :])
    quads = quads[..., 1:, :] - quads[..., :-1, :]
    quads = quads[..., 1:] - quads[..., :-1]
    # The quadrant with f0 >= f1 and f0 >= f2, and the one with f1 > f0 and
    # f2 > f0, each split where c + v <= w: whole rows [c0, ca), then rows
    # [ca, cb) cut by the anti-diagonal, whose sums G[:, c1, i] over c < c1
    # of row c up to v = w - c are taken at every w.
    c0, c1 = c_cut[:, [1, 0]], c_cut[:, [2, 1]]
    v0, v1 = v_at[:, [0, 1]], v_at[:, [1, 2]]
    ca = np.clip(w - v_cut[:, [1, 2]] + 2, c0, c1)
    cb = np.clip(w - v_cut[:, [0, 1]] + 1, ca, c1)
    groups, w, w_at = _columns(g[:, None], w)
    G = _prefix_tables(S, top, n_C, n_D, groups, w + 1, 2)
    del S
    below = _at(F, ca, v1)
    below -= _at(F, c0, v1)
    below += _at(F, c0, v0)
    below -= _at(F, cb, v0)
    below += _at(G, cb, w_at)
    below -= _at(G, ca, w_at)
    del F, G
    regions = np.concatenate([below, quads[..., [1, 0], [0, 1]] - below,
                              quads[..., [0, 1], [0, 1]]], axis=-1)
    hit = np.nonzero(regions[0] > 0.0)
    at, mass = hit[0], regions[0][hit]
    mean_c = np.clip(regions[1][hit] / mass, c_cut[at, 0], c_cut[at, 2] - 1)
    mean_v = np.clip(regions[2][hit] / mass, v_cut[at, 0], v_cut[at, 2] - 1)
    return box[at], mass, np.stack([S_next[box[at]], E_top[at] - mean_c, I_low[at] + mean_v],
                                   axis=1) / N


def cache_key(params: EpidemicParams, Y: int) -> str:
    """Content hash of what kernel rows depend on: the transition law's
    parameters, the grid size, the truncation tolerances and the push,
    normalization and pmf schemes, so that rows of an earlier scheme, which
    differ in their last bits, miss.  The loading model rebuilds rewards and
    rules, so cost, horizon and ambiguity settings are not in the key."""
    payload = "|".join(
        f"{k}={getattr(params, k)!r}"
        for k in ("N", "mu", "beta", "alpha0", "l_C", "l_D", "L", "M")
    )
    payload += f"|Y={Y}"
    payload += f"|tols={MARGINAL_TOL!r},{JOINT_TOL!r},{ENTRY_TOL!r}"
    payload += "|push=plane-moments|norm=block|pmf=mode-ratio"
    import hashlib  # loaded only when a cache is keyed

    return hashlib.sha256(payload.encode()).hexdigest()[:16]
