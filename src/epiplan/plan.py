"""Planners: trajectory-driven value iteration and full backward induction.

Both planners share the same one-stage backup dispatch, so any back-end
(nominal, worst-case-shifted, or the mean-ambiguous family) plugs into either.
Backward induction with the enumeration back-end and its parametric inner
solve, or with the McCormick back-end, backs up a stage's states in padded
batches of similar support size instead, through the same closed forms.  A
single-state backup with either back-end reads what the model records for
the state on first use (EpidemicModel.terms, EpidemicModel.kinks: a batch of
one), and the trajectory planner records each row it samples successors
from as a DrawTable, so a revisited step recomputes neither.
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
    ENVELOPE_NODES,
    EnumerateBatch,
    EnvelopeKinks,
    best_action_over_rows,
    drmdp_backup_enumerate,
    drmdp_backup_enumerate_batch,
    drmdp_backup_mccormick,
    drmdp_backup_mccormick_batch,
    drmdp_backup_unary,  # noqa: F401  perfbench/layers.py traces plan.drmdp_backup_unary
    enumerate_batch,
    envelope_kinks,
)
from .errors import DomainError
from .model import EpidemicModel
from .seir import Action

BACKENDS = ("nominal", "robust", "drmdp-enumerate", "drmdp-mccormick")

# Early stop: RTDP ends once the root value has moved by less than STOP_TOL
# for STOP_PATIENCE consecutive sweeps.
STOP_TOL = 1e-7
STOP_PATIENCE = 10

# Most entries in one backward_dp batch (see _chunks): (action, successor)
# entries of drmdp-enumerate states, (level, successor, node) entries of a
# drmdp-mccormick kink build.  Either works on a dozen or fewer arrays of
# at most this many floats at once, so the budget bounds the memory a batch
# adds.  On a 2-vCPU VM at N=300, Y=8, T=5 the enumerate DP ran fastest
# near 16,384 (0.037 s); 4,096 took 1.5x as long, 65,536 1.1x and one batch
# of all 165 states 3.6x.
# At N=100, Y=5, T=5 the McCormick DP took 0.023 s at 16,384 (the largest
# chunk's build peaked at 1.7 MB), 1.6x as long at 4,096, 0.95x at 32,768
# (2.9 MB) and 1.3x in one chunk of all 56 states (11 MB).
BATCH_ENTRIES = 16384


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


@dataclass(frozen=True)
class DrawTable:
    """A discrete law recorded for repeated draws: the values and the
    cumulative sums Generator.choice(values, p=probs) forms from probs, so
    that draw gives that call's draw bit for bit."""

    values: np.ndarray
    cdf: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray, probs: np.ndarray) -> DrawTable:
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return cls(values, cdf)

    def draw(self, rng: np.random.Generator) -> int:
        """rng.choice(values, p=probs): the value at the first cumulative
        sum above one uniform variate."""
        return int(self.values[self.cdf.searchsorted(rng.random(), side="right")])


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
    change, records none.  greedy holds the greedy_action results against
    the current values, keyed by (state, stage, planner config); store
    clears it."""

    def __init__(self, model: EpidemicModel):
        self.V = np.tile(model.stage_bound, (model.T + 1, 1))
        self.V[model.T] = 0.0
        self.values: dict[tuple[int, int], float] = {}
        self.actions: dict[tuple[int, int], Action] = {}
        self.greedy: dict[tuple[int, int, PlannerConfig], tuple[Action, float]] = {}

    def store(self, idx: int, t: int, value: float) -> None:
        self.V[t, idx] = value
        self.values[(idx, t)] = value
        self.greedy.clear()

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
        terms = model.terms(idx) if cfg.inner_method == "parametric" else None
        return drmdp_backup_enumerate(coeffs, model.actions, v_next, lam, k,
                                      method=cfg.inner_method, X=model.design, terms=terms)
    return drmdp_backup_mccormick(coeffs, v_next, lam, k, L=model.params.L,
                                  M=model.params.M, kinks=model.kinks(idx))


def greedy_action(model: EpidemicModel, table: ValueTable, idx: int, t: int,
                  cfg: PlannerConfig) -> tuple[Action, float]:
    """Best action at (state, stage) against stored values, without writing
    them; recorded in table.greedy, so each is backed up once until the
    table next changes."""
    key = (idx, t, cfg)
    if key not in table.greedy:
        value, action = backup_state(model, idx, t, table.V[t + 1], cfg)
        table.greedy[key] = (action, value)
    return table.greedy[key]


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
    draws: dict[tuple[int, int], DrawTable | None] = {}
    prev_root = None
    stable = 0

    for it in range(1, cfg.niter + 1):
        idx = init_idx
        for t in range(1, model.T):
            value, action = backup_state(model, idx, t, table.V[t + 1], cfg)
            table.store(idx, t, value)
            trace.steps.append(TraceStep(it, t, idx, action, value))
            if t < model.T - 1:
                idx = _sample_next(model, idx, action, rng, draws)
        root = table.values[(init_idx, 1)]
        if cfg.early_stop and prev_root is not None:
            stable = stable + 1 if abs(root - prev_root) < STOP_TOL else 0
            if stable >= STOP_PATIENCE:
                break
        prev_root = root
    return table, trace


def _sample_next(model: EpidemicModel, idx: int, action: Action,
                 rng: np.random.Generator,
                 draws: dict[tuple[int, int], DrawTable | None]) -> int:
    """A successor drawn from the nominal row of action at idx, restricted
    to the simplex and renormalized; idx itself, with no draw, when no
    successor is in the simplex.  Each row's DrawTable, or None, is
    recorded in draws on first use."""
    key = (idx, model.action_index(action))
    if key not in draws:
        row = model.rows(idx)[key[1]]
        mask = model.grid.in_S[row.indices]
        probs = row.probs[mask]
        draws[key] = (DrawTable.of(row.indices[mask], probs / probs.sum())
                      if mask.any() else None)
    table = draws[key]
    return idx if table is None else table.draw(rng)


def backward_dp(model: EpidemicModel, cfg: PlannerConfig) -> ValueTable:
    """Stage-by-stage backup of every simplex state from the horizon down,
    recording each simplex entry's value and argmax action.

    Every simplex state is compiled first, in one push call
    (``model.compile_all``).  With drmdp-enumerate and the parametric inner
    solve, a stage is backed up in batches of states of similar support
    size (_enumerate_batches), a few array passes each.  With
    drmdp-mccormick, the kink records are built once per call, a chunk of
    states of similar support size at a time (_mccormick_batches), and a
    stage is one padded level-value pass per chunk; the model keeps none of
    them.  The nominal and robust back-ends and the LP inner solve back up
    one state at a time with backup_state.  States outside the simplex are
    not stored; they are worth zero at every stage.
    """
    model.compile_all()
    table = ValueTable(model)
    in_s = model.grid.in_S_indices().tolist()
    if cfg.backend == "drmdp-mccormick":
        batches = _mccormick_batches(model, in_s)
    elif cfg.backend == "drmdp-enumerate" and cfg.inner_method == "parametric":
        batches = _enumerate_batches(model, in_s)
    else:
        batches = None
    for t in range(model.T - 1, 0, -1):
        v_next = table.V[t + 1]
        if batches is None:
            backed = [(idx, *backup_state(model, idx, t, v_next, cfg)) for idx in in_s]
        else:
            backed = [entry for batch in batches
                      for entry in _backup_batch(model, batch, v_next)]
        for idx, value, action in backed:
            table.store(idx, t, value)
            table.actions[(idx, t)] = action
    return table


def _chunks(model: EpidemicModel, states: list[int], unit: int) -> list[list[int]]:
    """states cut into chunks in order of support size.  A chunk of c
    states, the widest with w successors, counts c * w * unit entries, and
    holds at most BATCH_ENTRIES unless one state alone holds more.  Sorting
    keeps the padding small: at N=300, Y=8 supports run from 1 to 70
    successors, 25 on average."""
    width = {idx: len(model.rules(idx).support) for idx in states}
    groups: list[list[int]] = []
    for idx in sorted(states, key=width.get):   # the widest yet: sizes ascend
        if groups and (len(groups[-1]) + 1) * unit * width[idx] <= BATCH_ENTRIES:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


def _enumerate_batches(model: EpidemicModel, states: list[int]) -> list[EnumerateBatch]:
    """states cut into EnumerateBatches, (action, successor) entries."""
    return [enumerate_batch(g, [model.rules(i) for i in g], model.design)
            for g in _chunks(model, states, len(model.actions))]


def _mccormick_batches(model: EpidemicModel, states: list[int]) -> list[EnvelopeKinks]:
    """states cut into EnvelopeKinks, (level, successor, node) entries: a
    chunk's kink build works on arrays of at most that many."""
    k, L, M = model.acfg.k, model.params.L, model.params.M
    return [envelope_kinks(g, [model.rules(i) for i in g], k, L, M)
            for g in _chunks(model, states, len(model.actions) * ENVELOPE_NODES)]


def _backup_batch(model: EpidemicModel, batch: EnumerateBatch | EnvelopeKinks,
                  v_next: np.ndarray) -> list[tuple[int, float, Action]]:
    """(state, value, action) of every state of batch against v_next."""
    if isinstance(batch, EnumerateBatch):
        values, best = drmdp_backup_enumerate_batch(batch, v_next, model.lam, model.acfg.k,
                                                    model.design)
    else:
        values, best = drmdp_backup_mccormick_batch(batch, v_next, model.lam)
    return [(idx, value, model.actions[b]) for idx, value, b
            in zip(batch.states.tolist(), values.tolist(), best.tolist())]


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
