"""Compiled planning model: grid, kernel rows, rewards, and fitted rules.

Compilation is per state and on demand, since trajectory-driven planners only
touch a sliver of the grid.  Everything compiled is cached in memory; the
kernel rows can be persisted to a CSV cache keyed by a content hash of the
configuration, and the rules are refit when it is loaded.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .backup import worst_case_shift
from .errors import CacheError, DomainError
from .grid import Grid, GridSpec, SparseDistribution, build_grid, cache_key, discretize_kernel
from .rules import AmbiguityConfig, DecisionRuleCoefficients, design_matrix, fit_affine, fit_rules, mean_bounds
from .seir import Action, EpidemicParams, nominal_reward


_KERNEL_HEADER = ["state", "y_V", "y_R", "successor", "prob"]


class EpidemicModel:
    """Lazy per-state compilation of kernel rows, rewards, and decision rules."""

    def __init__(self, params: EpidemicParams, Y: int, acfg: AmbiguityConfig):
        self.params = params
        self.grid: Grid = build_grid(GridSpec(Y))
        self.acfg = acfg
        self.actions: list[Action] = params.actions()
        self.design = design_matrix(self.actions)  # (n_actions, 3) rows (1, y_V, y_R)
        self._rows: dict[int, list[SparseDistribution]] = {}
        self._rewards: dict[int, np.ndarray] = {}
        self._rules: dict[int, DecisionRuleCoefficients] = {}
        self._shifted: dict[tuple[int, float], list[SparseDistribution]] = {}
        self._stage_h: dict[int, float] = {}

    @property
    def lam(self) -> float:
        return self.params.lam

    @property
    def T(self) -> int:
        return self.params.T

    def key(self) -> str:
        return cache_key(self.params, self.grid.Y, self.acfg.delta)

    def action_index(self, action: Action) -> int:
        return action.y_V * (self.params.M + 1) + action.y_R

    def compile_state(self, idx: int) -> None:
        if idx in self._rows:
            return
        rows = discretize_kernel(self.grid, self.params, idx)
        self._rows[idx] = rows
        self._rewards[idx] = self._reward_vector(idx)
        self._rules[idx] = fit_rules(self.actions, rows,
                                     list(self._rewards[idx]), self.acfg)

    def _reward_vector(self, idx: int) -> np.ndarray:
        if not self.grid.in_S[idx]:
            return np.zeros(len(self.actions))
        state = self.grid.state_of(idx)
        return np.array([nominal_reward(self.params, state, a) for a in self.actions])

    def rows(self, idx: int) -> list[SparseDistribution]:
        self.compile_state(idx)
        return self._rows[idx]

    def rewards(self, idx: int) -> np.ndarray:
        self.compile_state(idx)
        return self._rewards[idx]

    def rules(self, idx: int) -> DecisionRuleCoefficients:
        self.compile_state(idx)
        return self._rules[idx]

    def shifted_rows(self, idx: int, budget: float) -> list[SparseDistribution]:
        key = (idx, budget)
        if key not in self._shifted:
            self._shifted[key] = [worst_case_shift(r, self.grid, budget)
                                  for r in self.rows(idx)]
        return self._shifted[key]

    def support(self, idx: int) -> np.ndarray:
        return self.rules(idx).support

    def stage_heuristic(self, idx: int) -> float:
        """Best fitted stage reward over actions; zero outside the simplex.

        Needs only the closed-form rewards, so it is cheap at states whose
        kernels were never compiled.
        """
        if idx in self._stage_h:
            return self._stage_h[idx]
        if not self.grid.in_S[idx]:
            val = 0.0
        else:
            X = self.design
            val = float((X @ fit_affine(X, self._reward_vector(idx))).max())
        self._stage_h[idx] = val
        return val

    def penalty_slack(self, idx: int) -> float:
        """Worst forced mean-bound violation cost over actions, at zero values.

        Positive slack means some action's fitted bounds admit no mean vector
        inside the probability simplex, so the penalized inner problem pays
        the planner k per unit of unavoidable violation.  Planner-agreement
        guarantees assume this is zero (the ambiguity set is nonempty).
        """
        from .backup import inner_value_parametric

        coeffs = self.rules(idx)
        eta_L, eta_U = mean_bounds(coeffs, self.design)
        vals = inner_value_parametric(eta_L, eta_U, np.zeros(len(coeffs.support)),
                                      self.acfg.k)
        return max(0.0, float(vals.max()))

    def compile_states(self, indices, workers: int = 1) -> None:
        """Compile many states, optionally across processes.

        The pool starts at most one worker per state to compile and per CPU.
        Each worker builds its own model once and runs compile_state on the
        states it is handed, so both routes produce the same rows and rules.
        """
        todo = [int(i) for i in indices if int(i) not in self._rows]
        if not todo:
            return
        workers = min(workers, len(todo), os.cpu_count() or 1)
        if workers <= 1:
            for i in todo:
                self.compile_state(i)
            return
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(self.params, self.grid.Y, self.acfg)) as pool:
            chunks = pool.map(_compile_in_worker, todo,
                              chunksize=max(1, len(todo) // (4 * workers)))
            for idx, rows, rewards, rules in chunks:
                self._rows[idx] = rows
                self._rewards[idx] = rewards
                self._rules[idx] = rules

    def compile_all(self, workers: int = 1) -> None:
        self.compile_states(self.grid.in_S_indices(), workers=workers)

    # -- persistence ---------------------------------------------------------

    def save_cache(self, directory: str) -> list[str]:
        """Write the kernel rows as a CSV artifact named by config hash.

        The rules are not stored: load_cache refits them from the rows.
        """
        os.makedirs(directory, exist_ok=True)
        kpath = os.path.join(directory, f"kernels_{self.key()}.csv")
        with open(kpath, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(_KERNEL_HEADER)
            for idx in sorted(self._rows):
                for a, row in zip(self.actions, self._rows[idx]):
                    for s, p in zip(row.indices, row.probs):
                        wr.writerow([idx, a.y_V, a.y_R, int(s), f"{p:.17g}"])
        return [kpath]

    def load_cache(self, directory: str) -> bool:
        """Load a matching cache if present; returns True when hydrated.

        Raises CacheError naming the file when it is truncated or corrupt:
        a malformed line, a state or successor off the grid, a state missing
        an action, or a row that is not a distribution (a repeated successor,
        a negative entry, or a sum off one by more than 1e-9).
        """
        key = self.key()
        kpath = os.path.join(directory, f"kernels_{key}.csv")
        if not os.path.exists(kpath):
            return False
        per_state: dict[int, dict[tuple[int, int], list[tuple[int, float]]]] = {}
        n = self.grid.n_corners
        with open(kpath, newline="") as fh:
            rd = csv.reader(fh)
            if next(rd, None) != _KERNEL_HEADER:
                raise CacheError(f"{kpath}: missing header {','.join(_KERNEL_HEADER)}")
            for line in rd:
                try:
                    state, y_V, y_R, succ, prob = line
                    state, succ, prob = int(state), int(succ), float(prob)
                    action = (int(y_V), int(y_R))
                except ValueError:
                    raise CacheError(
                        f"{kpath}:{rd.line_num}: malformed line {line!r}") from None
                if not (0 <= state < n and 0 <= succ < n):
                    raise CacheError(f"{kpath}:{rd.line_num}: corner index off the grid")
                per_state.setdefault(state, {}).setdefault(action, []).append((succ, prob))
        expected = {(a.y_V, a.y_R) for a in self.actions}
        for idx, by_action in per_state.items():
            if set(by_action) != expected:
                raise CacheError(f"{kpath}: state {idx} does not list every action")
            rows = []
            for a in self.actions:
                arr = np.array(by_action[(a.y_V, a.y_R)])
                try:
                    rows.append(SparseDistribution(arr[:, 0].astype(np.int64), arr[:, 1]))
                except DomainError as exc:
                    raise CacheError(f"{kpath}: row of state {idx}, action "
                                     f"({a.y_V}, {a.y_R}): {exc}") from None
            self._rows[idx] = rows
            self._rewards[idx] = self._reward_vector(idx)
            self._rules[idx] = fit_rules(self.actions, rows,
                                         list(self._rewards[idx]), self.acfg)
        return True


# The model a pool worker compiles with, built once by _init_worker.
_worker_model: EpidemicModel | None = None


def _init_worker(params: EpidemicParams, Y: int, acfg: AmbiguityConfig) -> None:
    global _worker_model
    _worker_model = EpidemicModel(params, Y, acfg)


def _compile_in_worker(idx: int):
    m = _worker_model
    m.compile_state(idx)
    return idx, m._rows.pop(idx), m._rewards.pop(idx), m._rules.pop(idx)


def lattice_state_index(model: EpidemicModel, p_S: float, p_E: float, p_I: float) -> int:
    """Corner index of an initial condition, which must sit on the lattice."""
    from .seir import ContinuousState

    state = ContinuousState(p_S, p_E, p_I)
    idx = model.grid.state_index(state)
    if not model.grid.in_S[idx]:
        raise DomainError(f"initial state {state} is outside the simplex")
    return idx
