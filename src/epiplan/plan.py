"""Planners: trajectory-driven value iteration and full backward induction.

Both planners share the same one-stage backup dispatch, so any back-end
(nominal, worst-case-shifted, or the mean-ambiguous family) plugs into either.
Stage indices run 1..T with decisions at 1..T-1; values at stage T are the
terminal reward (zero).

Every backup reads the stage t+1 values as one row of the planner's
ValueTable.  The trajectory planner starts each row before the horizon at the
stage-reward bound h(s, t) = max_a reward(s, a) (model.stage_bound), and
h(s, T) = 0.  With nonpositive rewards this bound sits above the true value,
so per-state value sequences decrease toward the fixed point as sweeps
repeat, and greedy action choice keeps exploring overvalued states until
estimates settle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backup import (
    best_action_over_rows,
    drmdp_backup_enumerate,
    drmdp_backup_mccormick,
    drmdp_backup_unary,  # noqa: F401  perfbench/layers.py traces plan.drmdp_backup_unary
)
from .errors import DomainError
from .model import EpidemicModel
from .seir import Action

BACKENDS = ("nominal", "robust", "drmdp-enumerate", "drmdp-mccormick")

# Early stop: RTDP ends once the root value has moved by less than STOP_TOL
# for STOP_PATIENCE consecutive sweeps.
STOP_TOL = 1e-7
STOP_PATIENCE = 10


@dataclass(frozen=True)
class PlannerConfig:
    backend: str = "drmdp-enumerate"
    niter: int = 50
    seed: int = 0
    inner_method: str = "parametric"   # enumerate back-end: parametric | lp
    early_stop: bool = True
    robust_budget: float = 0.5

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise DomainError(f"unknown backend {self.backend!r}")
        if self.inner_method not in ("parametric", "lp"):
            raise DomainError("inner_method must be parametric or lp")
        if self.niter < 1:
            raise DomainError("niter must be >= 1")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.robust_budget <= 2.0:
            raise DomainError(f"robust_budget must be in [0, 2], got {self.robust_budget}")


@dataclass
class TraceStep:
    iteration: int
    stage: int
    state: int
    action: Action
    value: float


@dataclass
class PolicyTrace:
    steps: list[TraceStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


class ValueTable:
    """Stage values of every grid corner, one dense row per stage: V[t] holds
    stage t's values.  Rows 1..T-1 start at model.stage_bound (the largest
    stage reward at a simplex state, zero elsewhere) and row T, the terminal
    stage, is zero.  store is the only writer: it sets V[t, idx] and records
    the entry in values, the backed-up (state, stage) entries.

    actions holds the argmax action backward_dp chose for each simplex
    entry; RTDP, whose entries are backed up against values that later
    change, records none."""

    def __init__(self, model: EpidemicModel):
        self.V = np.tile(model.stage_bound, (model.T + 1, 1))
        self.V[model.T] = 0.0
        self.values: dict[tuple[int, int], float] = {}
        self.actions: dict[tuple[int, int], Action] = {}

    def store(self, idx: int, t: int, value: float) -> None:
        self.V[t, idx] = value
        self.values[(idx, t)] = value

    # lookup and lookup_fn take the model only because perfbench/workloads.py
    # passes it; neither reads it.
    def lookup(self, model: EpidemicModel, idx: int, t: int) -> float:
        return float(self.V[t, idx])

    def lookup_fn(self, model: EpidemicModel, t: int) -> np.ndarray:
        return self.V[t]


def backup_state(model: EpidemicModel, idx: int, t: int, v_next, cfg: PlannerConfig):
    """One-stage backup of a single state under the configured back-end.

    v_next holds the stage t+1 values over all grid corners (a ValueTable
    row); only the state's successor support is read.  Ties go to the first
    action of model.actions, the lowest (y_V, y_R).
    """
    lam = model.lam
    if cfg.backend == "nominal":
        return best_action_over_rows(model.actions, model.rows(idx),
                                     model.rewards(idx), v_next, lam)
    if cfg.backend == "robust":
        rows = model.shifted_rows(idx, cfg.robust_budget)
        return best_action_over_rows(model.actions, rows, model.rewards(idx),
                                     v_next, lam)
    coeffs = model.rules(idx)
    k = model.acfg.k
    if cfg.backend == "drmdp-enumerate":
        return drmdp_backup_enumerate(coeffs, model.actions, v_next, lam, k,
                                      method=cfg.inner_method, X=model.design)
    return drmdp_backup_mccormick(coeffs, v_next, lam, k, L=model.params.L,
                                  M=model.params.M, kinks=model.kinks(idx))


def greedy_action(model: EpidemicModel, table: ValueTable, idx: int, t: int,
                  cfg: PlannerConfig) -> tuple[Action, float]:
    """Best action at (state, stage) against stored values, without writing."""
    value, action = backup_state(model, idx, t, table.V[t + 1], cfg)
    return action, value


def rtdp(model: EpidemicModel, init_idx: int, cfg: PlannerConfig):
    """Trajectory-driven planning from a fixed initial state.

    Each sweep walks stages 1..T-1, backing up only the visited state and
    sampling the successor from the nominal row of the chosen action,
    restricted to states inside the simplex.  Visits to the same state at
    different stages are independent table entries.
    """
    if not model.grid.in_S[init_idx]:
        raise DomainError("initial state must lie inside the population simplex")
    table = ValueTable(model)
    trace = PolicyTrace()
    rng = np.random.default_rng(cfg.seed)
    prev_root = None
    stable = 0

    for it in range(1, cfg.niter + 1):
        idx = init_idx
        for t in range(1, model.T):
            value, action = backup_state(model, idx, t, table.V[t + 1], cfg)
            table.store(idx, t, value)
            trace.steps.append(TraceStep(it, t, idx, action, value))
            if t < model.T - 1:
                idx = _sample_next(model, idx, action, rng)
        root = table.values[(init_idx, 1)]
        if cfg.early_stop and prev_root is not None:
            stable = stable + 1 if abs(root - prev_root) < STOP_TOL else 0
            if stable >= STOP_PATIENCE:
                break
        prev_root = root
    return table, trace


def _sample_next(model: EpidemicModel, idx: int, action: Action,
                 rng: np.random.Generator) -> int:
    row = model.rows(idx)[model.action_index(action)]
    mask = model.grid.in_S[row.indices]
    if not mask.any():
        return idx
    probs = row.probs[mask]
    probs = probs / probs.sum()
    choices = row.indices[mask]
    return int(rng.choice(choices, p=probs))


def backward_dp(model: EpidemicModel, cfg: PlannerConfig) -> ValueTable:
    """Stage-by-stage backup of every simplex state from the horizon down,
    recording each simplex entry's value and argmax action.

    States outside the simplex are not stored; they are worth zero at every
    stage.
    """
    table = ValueTable(model)
    in_s = model.grid.in_S_indices().tolist()
    for t in range(model.T - 1, 0, -1):
        for idx in in_s:
            value, action = backup_state(model, idx, t, table.V[t + 1], cfg)
            table.store(idx, t, value)
            table.actions[(idx, t)] = action
    return table


def table_rows(model: EpidemicModel, table: ValueTable, cfg: PlannerConfig):
    """Serialize stored values as CSV-ready rows, each with its action.

    The action is the one recorded at backup time when the table holds it
    (backward_dp: the greedy action against the final stage t+1 values, ties
    included), else the greedy action against the stored values (RTDP).
    """
    out = []
    for (idx, t), value in sorted(table.values.items()):
        if (idx, t) in table.actions:
            action = table.actions[(idx, t)]
        else:
            action, _ = greedy_action(model, table, idx, t, cfg)
        p_S, p_E, p_I = model.grid.coords[idx]
        out.append({
            "stage": t,
            "state": idx,
            "p_S": p_S,
            "p_E": p_E,
            "p_I": p_I,
            "value": value,
            "y_V": action.y_V,
            "y_R": action.y_R,
        })
    return out
