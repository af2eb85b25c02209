"""Corner-state grid over the unit cube with simplex interpolation.

The cube containing all (p_S, p_E, p_I) combinations is cut into Y^3 cells;
each cell splits into six equal-volume simplexes along coordinate-sorted
diagonals, so any interior point is a convex combination of at most four cell
corners.  Transition laws over continuous atoms are pushed onto the corners
through those weights, giving a finite kernel.  Corners whose fractions exceed
1 are unreachable population mixes and absorb with probability one.

The push runs once per state and vaccination level: the intervention level
only reweights the exposure count, so the atoms of every exposure count are
pushed once and each action's row is a weighted sum of those pushes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .seir import (
    ENTRY_TOL,
    JOINT_TOL,
    MARGINAL_TOL,
    Action,
    ContinuousState,
    EpidemicParams,
    binomial_row,
    compile_rates,
    nominal_reward,
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

# Points pushed per locate_many call, bounding the push's working arrays.
_PUSH_CHUNK = 1 << 16


@dataclass(frozen=True)
class GridSpec:
    """Number of subdivisions per axis; the grid has (Y+1)^3 corners."""

    Y: int

    def __post_init__(self) -> None:
        if self.Y < 1:
            raise DomainError(f"Y must be >= 1, got {self.Y}")


@dataclass(frozen=True)
class CornerState:
    """One lattice corner: dense index, fractional coordinates, validity flag."""

    index: int
    coords: tuple[float, float, float]
    lattice: tuple[int, int, int]
    in_S: bool


@dataclass(frozen=True)
class BarycentricWeights:
    """Convex combination of simplex corners reconstructing a point."""

    corners: tuple[int, ...]
    weights: tuple[float, ...]
    simplex: int  # 0..5, lexicographic rank of the axis ordering


class SparseDistribution:
    """Probability mass over corner indices; indices unique and ascending."""

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
            if total <= 0:
                raise DomainError("cannot normalize empty distribution")
            probs = probs / total
        elif not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise DomainError(f"probabilities sum to {total}, not 1")
        self.indices = indices
        self.probs = probs

    def __len__(self) -> int:
        return len(self.indices)

    def dot(self, values: np.ndarray) -> float:
        """Expectation of per-corner values under this distribution."""
        return float(np.dot(self.probs, values[self.indices]))

    def as_dict(self) -> dict[int, float]:
        return {int(i): float(p) for i, p in zip(self.indices, self.probs)}


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

    def corner(self, index: int) -> CornerState:
        i, j, k = (int(v) for v in self.lattice[index])
        return CornerState(
            index=int(index),
            coords=tuple(float(v) for v in self.coords[index]),
            lattice=(i, j, k),
            in_S=bool(self.in_S[index]),
        )

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

    def locate(self, point) -> BarycentricWeights:
        """Barycentric weights for one point; zero-weight corners are dropped."""
        if isinstance(point, ContinuousState):
            point = (point.p_S, point.p_E, point.p_I)
        idx, wts, label = self.locate_many(np.asarray([point], dtype=np.float64))
        corners, weights = [], []
        for i, w in zip(idx[0], wts[0]):
            if w > 0.0:
                corners.append(int(i))
                weights.append(float(w))
        return BarycentricWeights(tuple(corners), tuple(weights), int(label[0]))


def build_grid(spec: GridSpec) -> Grid:
    return Grid(spec)


def simplex_corners(permutation: int) -> list[tuple[int, int, int]]:
    """Lattice offsets of the four corners of one unit-cell simplex."""
    order = _PERMUTATIONS[permutation]
    verts = [(0, 0, 0)]
    cur = [0, 0, 0]
    for axis in order:
        cur[axis] += 1
        verts.append(tuple(cur))
    return verts


def discretize_kernel(
    grid: Grid, params: EpidemicParams, corner_index: int
) -> list[SparseDistribution]:
    """All kernel rows of one corner, one per action in ``params.actions()`` order.

    Each row is the exact atom law of ``seir.transition_pmf`` pushed onto the
    grid corners, computed once per vaccination level y_V: the atoms of every
    exposure count b that some y_R can draw are pushed once into K[b, corner],
    and the row of (y_V, y_R) is pB(y_R) @ K.  JOINT_TOL applies to the
    action-free (C, D) factor, so the atoms kept are a superset of the
    per-action table's.  Corner masses below ENTRY_TOL are dropped and each
    row is renormalized.  Invalid corners (fractions summing past 1)
    self-loop with probability one.
    """
    n_rows = (params.L + 1) * (params.M + 1)
    if not grid.in_S[corner_index]:
        row = SparseDistribution(np.array([corner_index]), np.array([1.0]))
        return [row] * n_rows
    state = grid.state_of(corner_index)
    N, n_corners = params.N, grid.n_corners
    n_S, n_E, n_I = state.counts(N)

    kC, pC = binomial_row(n_E, params.rho_C)
    kD, pD = binomial_row(n_I, params.rho_D)
    p_cd = pC[:, None] * pD[None, :]
    keep = p_cd >= JOINT_TOL
    p_cd = p_cd[keep] / p_cd[keep].sum()
    C = np.broadcast_to(kC[:, None], keep.shape)[keep]
    D = np.broadcast_to(kD[None, :], keep.shape)[keep]
    E_base = n_E - C          # successor E count before adding b
    I_next = n_I + C - D
    n_cd = len(p_cd)
    # Exposure counts per push, so that both the points and the K block stay
    # within _PUSH_CHUNK entries.
    per_chunk = max(1, _PUSH_CHUNK // max(n_cd, n_corners))

    # The exposure probability of each y_R; it does not depend on y_V.
    phis = [compile_rates(params, state, Action(0, y_R)).phi
            for y_R in range(params.M + 1)]
    rows: list[SparseDistribution] = []
    for y_V in range(params.L + 1):
        trials = vaccination_trials(params, n_S, y_V)
        marginals = [binomial_row(trials, phi) for phi in phis]
        kB = np.unique(np.concatenate([k for k, _ in marginals]))
        pB = np.zeros((len(phis), len(kB)))
        for r, (k, p) in enumerate(marginals):
            pB[r, np.searchsorted(kB, k)] = p / p.sum()

        mass = np.zeros((len(phis), n_corners))
        for lo in range(0, len(kB), per_chunk):
            b = kB[lo:lo + per_chunk]
            points = np.empty((len(b), n_cd, 3))
            points[:, :, 0] = ((trials - b) / N)[:, None]
            points[:, :, 1] = (E_base[None, :] + b[:, None]) / N
            points[:, :, 2] = (I_next / N)[None, :]
            idx, wts, _ = grid.locate_many(points.reshape(-1, 3))
            offset = np.repeat(np.arange(len(b)) * n_corners, n_cd)
            K = np.bincount(
                (idx + offset[:, None]).ravel(),
                weights=(wts * np.tile(p_cd, len(b))[:, None]).ravel(),
                minlength=len(b) * n_corners,
            ).reshape(len(b), n_corners)
            mass += pB[:, lo:lo + per_chunk] @ K
        for row_mass in mass:
            support = np.nonzero(row_mass >= ENTRY_TOL)[0]
            rows.append(SparseDistribution(support, row_mass[support], normalize=True))
    return rows


def discrete_reward(
    grid: Grid, params: EpidemicParams, corner_index: int, action: Action
) -> float:
    """Stage reward at a corner: the SEIR reward inside S, zero outside."""
    if not grid.in_S[corner_index]:
        return 0.0
    return nominal_reward(params, grid.state_of(corner_index), action)


def terminal_reward(grid: Grid, corner_index: int) -> float:
    """Terminal payoff; identically zero (bounded, and the heuristic at the
    horizon is zero as well)."""
    return 0.0


def cache_key(params: EpidemicParams, Y: int, delta: float) -> str:
    """Content hash identifying a compiled kernel/rule cache."""
    payload = "|".join(
        f"{k}={getattr(params, k)!r}"
        for k in ("N", "mu", "beta", "alpha0", "l_C", "l_D", "Q", "k_R", "W",
                  "L", "M", "lam", "T")
    )
    payload += f"|Y={Y}|delta={delta!r}"
    payload += f"|tols={MARGINAL_TOL!r},{JOINT_TOL!r},{ENTRY_TOL!r}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
