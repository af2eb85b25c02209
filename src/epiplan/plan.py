"""Planners: trajectory-driven value iteration and full backward induction.

Both planners share the same one-stage back-ends (nominal, worst-case-shifted,
or the mean-ambiguous family), so any of them plugs into either.  Each
back-end has one record of what does not depend on the values and one batch
backup of it.  Backward induction cuts the states into chunks of similar
support size once per run and backs up each stage a chunk at a time; only
the LP inner solve backs up one state at a time.  A single-state backup
(backup_state) runs the same arithmetic on one state: the nominal and
robust back-ends build a batch of one from views of the state's rows,
and the mean-ambiguous ones read what the model records for the state on
first use (EpidemicModel.terms, EpidemicModel.kinks: a batch of one).  The
trajectory planner records each row it samples successors from as a
DrawTable, so a revisited step does not recompute it.
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

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .backup import (
    ENVELOPE_NODES,
    EnumerateBatch,
    EnvelopeKinks,
    RowBatch,
    drmdp_backup_enumerate,
    drmdp_backup_enumerate_batch,
    drmdp_backup_mccormick,
    drmdp_backup_mccormick_batch,
    drmdp_backup_unary,  # noqa: F401  perfbench/layers.py traces plan.drmdp_backup_unary
    enumerate_batch,
    envelope_kinks,
    row_backup_batch,
    row_batch,
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
# entries of drmdp-enumerate states and of nominal and robust rows,
# (level, successor, node) entries of a drmdp-mccormick kink build.  Each
# works on a dozen or fewer arrays of at most this many floats at once, so
# the budget bounds the memory a batch adds.  On a 2-vCPU VM at N=300, Y=8,
# T=5 the enumerate DP ran fastest near 16,384 (0.037 s); 4,096 took 1.5x
# as long, 65,536 1.1x and one batch of all 165 states 3.6x.
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


class _Entries(Mapping):
    """A read-only view of some (state, stage) entries of a ValueTable: those
    where held(at) is set, at = (stage, state) indexing its arrays (Ellipsis
    for all of them), in sorted (state, stage) order, each read(at).  It
    copies nothing, so every later store shows through."""

    def __init__(self, shape: tuple[int, int], held: Callable, read: Callable):
        self._shape, self._held, self._read = shape, held, read

    def __getitem__(self, key: tuple[int, int]):
        idx, t = key
        if not (0 <= t < self._shape[0] and 0 <= idx < self._shape[1]
                and self._held((t, idx))):
            raise KeyError(key)
        return self._read((t, idx))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        idx, t = np.nonzero(self._held(...).T)
        return zip(idx.tolist(), t.tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._held(...)))


class ValueTable:
    """Stage values of every grid corner, one dense row per stage: V[t] holds
    stage t's values.  Rows 1..T-1 start at model.stage_bound (the largest
    stage reward at a simplex state, zero elsewhere) and row T, the terminal
    stage, is zero.  backed[t, idx] marks the entries backed up, and
    best[t, idx] the index into model.actions of the argmax action
    backward_dp chose there; RTDP, whose entries are backed up against
    values that later change, records -1.  store is the only writer of the
    three.

    values and actions are read-only (state, stage) mappings over them: the
    backed-up entries' values, and the recorded entries' actions.  greedy
    holds the greedy_action results against the current values, keyed by
    (state, stage, planner config); store clears it."""

    def __init__(self, model: EpidemicModel):
        self.V = V = np.tile(model.stage_bound, (model.T + 1, 1))
        V[model.T] = 0.0
        self.backed = np.zeros(V.shape, dtype=bool)
        self.best = best = np.full(V.shape, -1, dtype=np.intp)
        self.values = _Entries(V.shape, self.backed.__getitem__, lambda at: float(V[at]))
        self.actions = _Entries(V.shape, lambda at: best[at] >= 0,
                                lambda at: model.actions[best[at]])
        self.greedy: dict[tuple[int, int, PlannerConfig], tuple[Action, float]] = {}

    def store(self, t: int, states, values, best=None) -> None:
        """Stage t's values at states, one index or an array of them, and
        the indices of their best actions, or none (-1)."""
        self.V[t, states] = values
        self.backed[t, states] = True
        self.best[t, states] = -1 if best is None else best
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
    action of model.actions, the lowest (y_V, y_R).  The nominal and robust
    back-ends back up the state's RowBatch of one, built on every call from
    views of its nominal or shifted rows.
    """
    lam = model.lam
    if cfg.backend in ("nominal", "robust"):
        values, best = row_backup_batch(_row_batch(model, [idx], cfg), v_next, lam)
        return float(values[0]), model.actions[int(best[0])]
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
            table.store(t, idx, value)
            trace.steps.append(TraceStep(it, t, idx, action, value))
            if t < model.T - 1:
                idx = _sample_next(model, idx, action, rng, draws)
        root = table.V[1, init_idx]
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
    (``model.compile_all``).  The states are then cut once into chunks of
    similar support size, each recorded for its back-end (_batches), and
    each stage is backed up one chunk at a time, a few array passes each:
    the nominal and robust back-ends' rows as segment sums, drmdp-enumerate's
    parametric solve over padded terms, drmdp-mccormick's kink records
    built once per call.  The model keeps none of them.  Only the LP inner
    solve backs up one state at a time, with backup_state.  States outside
    the simplex are not stored; they are worth zero at every stage.
    """
    model.compile_all()
    table = ValueTable(model)
    in_s = model.grid.in_S_indices().tolist()
    lp = cfg.backend == "drmdp-enumerate" and cfg.inner_method == "lp"
    batches = None if lp else _batches(model, in_s, cfg)
    for t in range(model.T - 1, 0, -1):
        v_next = table.V[t + 1]
        if batches is None:
            for idx in in_s:
                value, action = backup_state(model, idx, t, v_next, cfg)
                table.store(t, idx, value, model.action_index(action))
        else:
            for batch in batches:
                table.store(t, batch.states, *_backup_batch(model, batch, v_next))
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


def _batches(model: EpidemicModel, states: list[int],
             cfg: PlannerConfig) -> list[RowBatch | EnumerateBatch | EnvelopeKinks]:
    """states cut into chunks (_chunks), each recorded for cfg's back-end.
    A RowBatch or EnumerateBatch counts (action, successor) entries, and a
    kink build (level, successor, node) entries: it works on arrays of at
    most that many."""
    n = len(model.actions)
    if cfg.backend == "drmdp-mccormick":
        k, L, M = model.acfg.k, model.params.L, model.params.M
        return [envelope_kinks(g, [model.rules(i) for i in g], k, L, M)
                for g in _chunks(model, states, n * ENVELOPE_NODES)]
    if cfg.backend == "drmdp-enumerate":
        return [enumerate_batch(g, [model.rules(i) for i in g], model.design)
                for g in _chunks(model, states, n)]
    return [_row_batch(model, g, cfg) for g in _chunks(model, states, n)]


def _row_batch(model: EpidemicModel, states: list[int], cfg: PlannerConfig) -> RowBatch:
    """The RowBatch of states: their nominal rows, or with the robust
    back-end their rows shifted within cfg.robust_budget.  A state's rows
    lie on its rules' support, so each holds at most its width."""
    if cfg.backend == "robust":
        rows = [model.shifted_rows(idx, cfg.robust_budget) for idx in states]
    else:
        rows = [model.rows(idx) for idx in states]
    return row_batch(states, rows, [model.rewards(idx) for idx in states])


def _backup_batch(model: EpidemicModel, batch: RowBatch | EnumerateBatch | EnvelopeKinks,
                  v_next: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of every state of batch against v_next, and the indices
    into model.actions of their best actions."""
    if isinstance(batch, RowBatch):
        return row_backup_batch(batch, v_next, model.lam)
    if isinstance(batch, EnumerateBatch):
        return drmdp_backup_enumerate_batch(batch, v_next, model.lam, model.acfg.k,
                                            model.design)
    return drmdp_backup_mccormick_batch(batch, v_next, model.lam)


def table_rows(model: EpidemicModel, table: ValueTable, cfg: PlannerConfig):
    """Serialize stored values as CSV-ready rows, each with its action.

    The action is the one recorded at backup time when the table holds it
    (backward_dp: the greedy action against the final stage t+1 values, ties
    included), else the greedy action against the stored values (RTDP).
    """
    out = []
    for (idx, t), value in table.values.items():
        action = table.actions.get((idx, t))
        if action is None:
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
