"""Compiled planning model: grid, kernel rows, rewards, and fitted rules.

Compilation is per state and on demand, since trajectory-driven planners only
touch a sliver of the grid; ``compile_all`` compiles every state left at once,
in one push call, or in one per p_I slice on a process pool.  Everything
compiled is cached in memory; the kernel rows can be persisted to a NumPy
record array keyed by a content hash of the configuration, and the rules are
refit when it is loaded.

Kernel rows come in blocks, each checked once as a whole, whether the push
built them or the cache file held them; hydrating a state from its rows takes
array operations only: the rewards are one expression over the design
matrix, whose rank the model checks once, when it is built.
"""

from __future__ import annotations

import os
from functools import cached_property

import numpy as np

from .backup import (EnumerateTerms, EnvelopeKinks, envelope_kinks, inner_value_parametric,
                     state_terms, worst_case_shift)
from .errors import CacheError, DomainError, RowError
from .grid import Grid, GridSpec, SparseDistribution, cache_key, discretize_kernel
from .rules import (AmbiguityConfig, DecisionRuleCoefficients, fit_rules, mean_bounds,
                    rule_design)
from .seir import Action, ContinuousState, EpidemicParams, stage_rewards


# One record per stored kernel entry; action indexes model.actions.  A cache
# lists its records in (state, action) order, each row's successors ascending.
_RECORD = np.dtype([("state", "<i4"), ("action", "<i4"), ("successor", "<i4"),
                    ("prob", "<f8")])


class EpidemicModel:
    """Lazy per-state compilation of kernel rows, rewards, and decision rules."""

    def __init__(self, params: EpidemicParams, Y: int, acfg: AmbiguityConfig):
        self.params = params
        self.grid = Grid(GridSpec(Y))
        self.acfg = acfg
        self.actions: list[Action] = params.actions()
        self.design = rule_design(self.actions)  # (n_actions, 3) rows (1, y_V, y_R)
        self._rows: dict[int, list[SparseDistribution]] = {}
        self._rewards: dict[int, np.ndarray] = {}
        self._rules: dict[int, DecisionRuleCoefficients] = {}
        self._kinks: dict[int, EnvelopeKinks] = {}
        self._terms: dict[int, EnumerateTerms] = {}
        self._shifted: dict[tuple[int, float], list[SparseDistribution]] = {}

    @property
    def lam(self) -> float:
        return self.params.lam

    @property
    def T(self) -> int:
        return self.params.T

    def key(self) -> str:
        return cache_key(self.params, self.grid.Y)

    def action_index(self, action: Action) -> int:
        return action.y_V * (self.params.M + 1) + action.y_R

    def compile_state(self, idx: int) -> None:
        if idx not in self._rows:
            [rows] = discretize_kernel(self.grid, self.params, [idx])
            self._store(idx, rows)

    def _store(self, idx: int, rows: list[SparseDistribution]) -> None:
        """Hydrate one state from its kernel rows: rewards and fitted rules."""
        self._rows[idx] = rows
        self._rewards[idx] = self._reward_vector(idx)
        self._rules[idx] = fit_rules(self.design, rows, self._rewards[idx], self.acfg)

    def _reward_vector(self, idx: int) -> np.ndarray:
        """stage_rewards of every action, from the design's level columns."""
        X = self.design
        return stage_rewards(self.params, self.grid.state_of(idx), X[:, 1], X[:, 2])

    def rows(self, idx: int) -> list[SparseDistribution]:
        self.compile_state(idx)
        return self._rows[idx]

    def rewards(self, idx: int) -> np.ndarray:
        self.compile_state(idx)
        return self._rewards[idx]

    def rules(self, idx: int) -> DecisionRuleCoefficients:
        self.compile_state(idx)
        return self._rules[idx]

    def kinks(self, idx: int) -> EnvelopeKinks:
        """The state's McCormick envelope kinks, built on first use from its
        rules, k, L and M: they do not depend on the values backed up."""
        if idx not in self._kinks:
            self._kinks[idx] = envelope_kinks(self.rules(idx), self.acfg.k,
                                              self.params.L, self.params.M)
        return self._kinks[idx]

    def terms(self, idx: int) -> EnumerateTerms:
        """The state's enumeration-backup terms (backup.state_terms), built on
        first use from its rules, the design and k: they do not depend on the
        values backed up."""
        if idx not in self._terms:
            self._terms[idx] = state_terms(self.rules(idx), self.design, self.acfg.k)
        return self._terms[idx]

    def shifted_rows(self, idx: int, budget: float) -> list[SparseDistribution]:
        key = (idx, budget)
        if key not in self._shifted:
            self._shifted[key] = [worst_case_shift(r, self.grid, budget)
                                  for r in self.rows(idx)]
        return self._shifted[key]

    @cached_property
    def stage_bound(self) -> np.ndarray:
        """Largest stage reward of every grid corner, zero outside the simplex.

        At a simplex state it is the reward of action (0, 0), which pays no
        vaccination or intervention cost; every cost is nonnegative, so it is
        rewards(idx).max() bit for bit.  It compiles nothing.
        """
        bound = np.zeros(self.grid.n_corners)
        for idx in self.grid.in_S_indices().tolist():
            bound[idx] = stage_rewards(self.params, self.grid.state_of(idx), 0, 0)
        bound.flags.writeable = False
        return bound

    def penalty_slack(self, idx: int) -> float:
        """Worst forced mean-bound violation cost over actions, at zero values.

        Positive slack means some action's fitted bounds admit no mean vector
        inside the probability simplex, so the penalized inner problem pays
        the planner k per unit of unavoidable violation.  Planner-agreement
        guarantees assume this is zero (the ambiguity set is nonempty).
        """
        coeffs = self.rules(idx)
        eta_L, eta_U = mean_bounds(coeffs, self.design)
        vals = inner_value_parametric(eta_L, eta_U, np.zeros(len(coeffs.support)),
                                      self.acfg.k)
        return max(0.0, float(vals.max()))

    def compile_all(self, workers: int = 1) -> None:
        """Compile every simplex state not yet compiled, optionally across
        processes.

        Serially, one push call takes every state to compile.  The pool
        splits them into p_I slices, one per infective count, so that a
        slice holds whole (n_E, n_I) groups of the push and shares their
        exposure laws; it starts at most one worker per slice and per CPU.
        Each worker builds the grid once and returns its slice's kernel rows
        as flat (indices, probs, offsets) arrays; this process checks each
        slice as one block and stores its states through _store, as
        compile_state does, so every route gives the same rows and rules.
        """
        todo = [i for i in self.grid.in_S_indices().tolist() if i not in self._rows]
        if not todo:
            return
        slices: dict[int, list[int]] = {}
        for i in todo:
            slices.setdefault(self.grid.state_of(i).counts(self.params.N)[2], []).append(i)
        workers = min(workers, len(slices), os.cpu_count() or 1)
        if workers <= 1:
            for i, rows in zip(todo, discretize_kernel(self.grid, self.params, todo)):
                self._store(i, rows)
            return
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool

        n_a = len(self.actions)
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(self.params, self.grid.Y)) as pool:
            blocks = pool.map(_compile_in_worker, slices.values())
            for corners, (indices, probs, offsets) in zip(slices.values(), blocks):
                rows = SparseDistribution.block(indices, probs, offsets)
                for m, idx in enumerate(corners):
                    self._store(idx, rows[m * n_a:(m + 1) * n_a])

    # -- persistence ---------------------------------------------------------

    def _cache_path(self, directory: str) -> str:
        return os.path.join(directory, f"kernels_{self.key()}.npy")

    def save_cache(self, directory: str) -> list[str]:
        """Write the kernel rows as one record array named by config hash.

        The rules are not stored: load_cache refits them from the rows.
        """
        os.makedirs(directory, exist_ok=True)
        kpath = self._cache_path(directory)
        states, n_a = sorted(self._rows), len(self.actions)
        rows = [row for idx in states for row in self._rows[idx]]
        lens = [len(row) for row in rows]
        rec = np.zeros(sum(lens), dtype=_RECORD)
        if rows:
            rec["state"] = np.repeat(np.repeat(states, n_a), lens)
            rec["action"] = np.repeat(np.tile(np.arange(n_a), len(states)), lens)
            rec["successor"] = np.concatenate([row.indices for row in rows])
            rec["prob"] = np.concatenate([row.probs for row in rows])
        np.save(kpath, rec)
        return [kpath]

    def load_cache(self, directory: str) -> bool:
        """Load a matching cache if present; returns True when hydrated.

        Raises CacheError naming the file when it is not a 1-d array of
        _RECORD (nothing in it is unpickled), or an index is off its range,
        the records are out of (state, action) order, a state is outside the
        simplex or misses an action, or a row is not a distribution
        (successors not ascending, a negative entry, or a sum off one by
        > 1e-9).  The rows are checked as one block, and each state is
        handed its slice of it.
        """
        kpath = self._cache_path(directory)
        if not os.path.exists(kpath):
            return False
        try:
            with open(kpath, "rb") as fh:
                rec = np.load(fh, allow_pickle=False)
                if not isinstance(rec, np.ndarray) or rec.dtype != _RECORD or rec.ndim != 1:
                    raise CacheError(f"{kpath}: not a 1-d record array of {_RECORD}")
        except (OSError, ValueError, EOFError) as exc:
            raise CacheError(f"{kpath}: unreadable: {exc}") from None
        n, n_a = self.grid.n_corners, len(self.actions)
        state, action, succ = rec["state"], rec["action"], rec["successor"]
        for name, col, hi in (("state", state, n), ("action", action, n_a),
                              ("successor", succ, n)):
            if np.any((col < 0) | (col >= hi)):
                raise CacheError(f"{kpath}: {name} index off its range [0, {hi})")
        row_id = state.astype(np.int64) * n_a + action
        if np.any(np.diff(row_id) < 0):
            raise CacheError(f"{kpath}: records not in (state, action) order")
        ids, starts = np.unique(row_id, return_index=True)
        states = np.unique(row_id // n_a)
        outside = states[~self.grid.in_S[states]]
        if len(outside):
            raise CacheError(f"{kpath}: state {outside[0]} is outside the population simplex")
        if not np.array_equal(ids, (states[:, None] * n_a + np.arange(n_a)).ravel()):
            raise CacheError(f"{kpath}: a state does not list every action")
        try:
            rows = SparseDistribution.block(succ, rec["prob"], np.append(starts, len(rec)))
        except RowError as exc:
            a = self.actions[exc.row % n_a]
            raise CacheError(f"{kpath}: row of state {states[exc.row // n_a]}, action "
                             f"({a.y_V}, {a.y_R}): {exc.reason}") from None
        for b, idx in enumerate(states.tolist()):
            self._store(idx, rows[b * n_a:(b + 1) * n_a])
        return True


# The grid and parameters a pool worker pushes with, set once by _init_worker.
_worker_push: tuple[Grid, EpidemicParams] | None = None


def _init_worker(params: EpidemicParams, Y: int) -> None:
    global _worker_push
    _worker_push = (Grid(GridSpec(Y)), params)


def _compile_in_worker(corners: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel rows of a slice of states, in its order, as flat indices
    and probs split at offsets."""
    rows = [row for state in discretize_kernel(*_worker_push, corners) for row in state]
    offsets = np.cumsum([0] + [len(row) for row in rows])
    return (np.concatenate([row.indices for row in rows]),
            np.concatenate([row.probs for row in rows]), offsets)


def lattice_state_index(model: EpidemicModel, p_S: float, p_E: float, p_I: float) -> int:
    """Corner index of an initial condition, which must sit on the lattice."""
    state = ContinuousState(p_S, p_E, p_I)
    idx = model.grid.state_index(state)
    if not model.grid.in_S[idx]:
        raise DomainError(f"initial state {state} is outside the simplex")
    return idx


def initial_state_index(model: EpidemicModel, p_S1: float, p_E1: float) -> int:
    """Corner index of the initial condition whose infective share is the
    remainder 1 - p_S1 - p_E1 (rounded to 12 places, so that lattice
    fractions land on the lattice)."""
    return lattice_state_index(model, p_S1, p_E1, round(1.0 - p_S1 - p_E1, 12))
