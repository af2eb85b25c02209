"""Policy evaluation under nominal or misspecified transition kernels.

Planning always happens against the nominal model; episodes then roll the
system forward under a "true" kernel that may sit anywhere within an L1 ball
around the nominal rows.  This reproduces the comparison protocol: plan once
per back-end, simulate many seeded episodes per kernel, and aggregate totals,
stage-wise infection curves, and stage-wise mean actions.  The true kernel
records a DrawTable per (state, action) it draws from, so episodes that
revisit one draw without renormalizing its row again.  Its high-infective
rows are views of the model's shifted rows (``EpidemicModel.shifted_rows``),
which the robust back-end's one-state backups (RTDP) read too, so at equal
budgets the two share one copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .backup import shift_mass
from .backup import worst_case_shift  # noqa: F401  perfbench/layers.py traces sim.worst_case_shift
from .errors import DomainError
from .grid import RowBlock, SparseDistribution
from .model import EpidemicModel, initial_state_index
from .plan import DrawTable, PlannerConfig, ValueTable, greedy_action, rtdp
from .rules import AmbiguityConfig
from .seir import Action, EpidemicParams

SWEEPABLE = ("Q", "k_R", "mu_beta", "W", "alpha0")


@dataclass(frozen=True)
class PerturbationSpec:
    """How the true kernel deviates from the nominal one, per row."""

    radius: float = 0.5
    direction: str = "high-infective"   # or "random"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.radius <= 2.0:
            raise DomainError(f"radius must be in [0, 2], got {self.radius}")
        if self.direction not in ("high-infective", "random"):
            raise DomainError(f"unknown direction {self.direction!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


def random_shift(row: SparseDistribution, budget: float,
                 rng: np.random.Generator) -> SparseDistribution:
    """Move up to budget/2 mass from up to half the entries, drawn in a random
    order among the positive ones, to one other entry drawn from the rest."""
    if len(row) <= 1:
        return row
    order = rng.permutation(len(row))
    donors = order[row.probs[order] > 0][: max(1, len(row) // 2)]
    receiver = next(i for i in order[::-1] if i not in donors)
    one = RowBlock(row.indices, row.probs, np.array([0, len(row)]))
    return shift_mass(one, donors, np.array([receiver]), budget)[0]


class TrueKernel:
    """The true kernel: called as (state index, action) -> row, each row the
    nominal one perturbed by spec, deterministically.  High-infective rows
    are views of the model's shifted rows at spec.radius, random ones are
    shifted on the call from a stream seeded by (seed, state, action); the
    kernel keeps only the DrawTable of each (state, action) it draws from."""

    def __init__(self, model: EpidemicModel, spec: PerturbationSpec):
        self.model, self.spec = model, spec
        self._tables: dict[tuple[int, int], DrawTable] = {}

    def _row(self, idx: int, ai: int) -> SparseDistribution:
        spec = self.spec
        if spec.direction == "random" and spec.radius > 0.0:
            rng = np.random.default_rng((spec.seed, idx, ai))
            return random_shift(self.model.rows(idx)[ai], spec.radius, rng)
        return self.model.shifted_rows(idx, spec.radius)[ai]

    def __call__(self, idx: int, action: Action) -> SparseDistribution:
        return self._row(idx, self.model.action_index(action))

    def draw(self, idx: int, action: Action, rng: np.random.Generator) -> int:
        """A successor drawn from the row: rng.choice(row.indices,
        p=row.probs), bit for bit."""
        key = (idx, self.model.action_index(action))
        if key not in self._tables:
            row = self._row(*key)
            self._tables[key] = DrawTable.of(row.indices, row.probs)
        return self._tables[key].draw(rng)


def build_true_kernel(model: EpidemicModel, spec: PerturbationSpec) -> TrueKernel:
    """The true kernel of model under spec."""
    return TrueKernel(model, spec)


@dataclass
class EpisodeRecord:
    """One rollout: stages 1..T of states, decisions at 1..T-1."""

    states: list[int]
    actions: list[Action]
    rewards: list[float]
    pct_infective: list[float]
    pct_recovered: list[float]
    total_reward: float


def run_episode(
    model: EpidemicModel,
    table: ValueTable,
    cfg: PlannerConfig,
    kernel: TrueKernel,
    init_idx: int,
    seed: int,
) -> EpisodeRecord:
    """Greedy rollout against stored values, sampling from the true kernel.

    A state outside the simplex absorbs: it takes action (0, 0), earns 0 and
    stays, with no kernel row read and no draw made.
    """
    rng = np.random.default_rng(seed)
    lam = model.lam
    idx = init_idx
    states, actions, rewards = [idx], [], []
    for t in range(1, model.T):
        if model.grid.in_S[idx]:
            action, _ = greedy_action(model, table, idx, t, cfg)
            reward = float(model.rewards(idx)[model.action_index(action)])
            idx = kernel.draw(idx, action, rng)
        else:
            action, reward = Action(0, 0), 0.0
        actions.append(action)
        rewards.append(reward)
        states.append(idx)
    total = sum(lam ** (t - 1) * r for t, r in enumerate(rewards, start=1))
    coords = model.grid.coords[states]
    return EpisodeRecord(
        states=states,
        actions=actions,
        rewards=rewards,
        pct_infective=[float(c[2]) for c in coords],
        pct_recovered=[float(max(0.0, 1.0 - c.sum())) for c in coords],
        total_reward=float(total),
    )


EPISODE_HEADER = ["backend", "kernel", "p_S1", "seed", "stage", "y_V", "y_R",
                  "reward", "pct_infective", "pct_recovered", "total_reward"]


def episode_rows(rec: EpisodeRecord, backend: str, kernel: str, p_S1: float,
                 seed: int) -> list[dict]:
    """One row per decision stage of an episode, keyed by EPISODE_HEADER."""
    return [{
        "backend": backend,
        "kernel": kernel,
        "p_S1": p_S1,
        "seed": seed,
        "stage": t,
        "y_V": a.y_V,
        "y_R": a.y_R,
        "reward": rec.rewards[t - 1],
        "pct_infective": rec.pct_infective[t - 1],
        "pct_recovered": rec.pct_recovered[t - 1],
        "total_reward": rec.total_reward,
    } for t, a in enumerate(rec.actions, start=1)]


def compare_models(
    model: EpidemicModel,
    pcfg: PlannerConfig,
    *,
    backends: tuple[str, ...],
    p_S1_list: tuple[float, ...],
    p_E1: float,
    kernels: tuple[str, ...],
    pspec: PerturbationSpec,
    nseeds: int,
):
    """Backends x initial conditions x kernels, every cell seeded and averaged.

    Every cell plans and rolls out on the one given model, so the states it
    compiles (or loaded from a kernel cache) serve them all.  Each backend
    plans with pcfg, its backend replaced.  Returns (episode_rows,
    summary_rows); the initial infective share is the remainder
    1 - p_S(1) - p_E(1).  Every argument after pcfg is required, so the
    run config is their one source of defaults.
    """
    true_kernels = {
        "nominal": build_true_kernel(model, replace(pspec, radius=0.0)),
        "perturbed": build_true_kernel(model, pspec),
    }
    episodes = []
    summary = []
    for p_S1 in p_S1_list:
        init = initial_state_index(model, p_S1, p_E1)
        for backend in backends:
            cfg = replace(pcfg, backend=backend)
            table, _ = rtdp(model, init, cfg)
            for kernel_name in kernels:
                kern = true_kernels[kernel_name]
                records = [run_episode(model, table, cfg, kern, init, seed)
                           for seed in range(nseeds)]
                for seed, rec in enumerate(records):
                    episodes += episode_rows(rec, backend, kernel_name, p_S1, seed)
                totals = np.array([r.total_reward for r in records])
                for t in range(1, model.T):
                    summary.append({
                        "backend": backend,
                        "kernel": kernel_name,
                        "p_S1": p_S1,
                        "stage": t,
                        "mean_y_V": float(np.mean([r.actions[t - 1].y_V
                                                   for r in records])),
                        "mean_y_R": float(np.mean([r.actions[t - 1].y_R
                                                   for r in records])),
                        "mean_pct_infective": float(np.mean(
                            [r.pct_infective[t - 1] for r in records])),
                        "mean_pct_recovered": float(np.mean(
                            [r.pct_recovered[t - 1] for r in records])),
                        "mean_total_reward": float(totals.mean()),
                        "std_total_reward": float(totals.std(ddof=0)),
                    })
    return episodes, summary


def sweep_params(params: EpidemicParams, param: str, value: float) -> EpidemicParams:
    """params with one sweepable constant set to value, validated; mu_beta
    sets the product mu*beta, on which alone the dynamics depend."""
    if param not in SWEEPABLE:
        raise DomainError(f"unknown sweep parameter {param!r}; "
                          f"expected one of {SWEEPABLE}")
    if param == "mu_beta":
        return replace(params, mu=float(value), beta=1.0)
    return replace(params, **{param: float(value)})


def sensitivity_sweep(
    params: EpidemicParams,
    Y: int,
    acfg: AmbiguityConfig,
    pcfg: PlannerConfig,
    param: str,
    values: tuple[float, ...],
    *,
    nseeds: int,
    pspec: PerturbationSpec,
    scenario: tuple[float, float],
):
    """Stage-wise infection shares as one model constant sweeps over values
    (see sweep_params), each planned with pcfg from the initial state
    scenario = (p_S1, p_E1); like compare_models, it takes its run settings
    from the run config, with no defaults of its own."""
    rows = []
    for value in values:
        model = EpidemicModel(sweep_params(params, param, value), Y, acfg)
        init = initial_state_index(model, *scenario)
        table, _ = rtdp(model, init, pcfg)
        kern = build_true_kernel(model, pspec)
        for seed in range(nseeds):
            rec = run_episode(model, table, pcfg, kern, init, seed)
            for t in range(1, model.T + 1):
                rows.append({
                    "param": param,
                    "value": value,
                    "seed": seed,
                    "stage": t,
                    "pct_infective": rec.pct_infective[t - 1],
                })
    return rows


def aggregate_infectives(rows, param: str, value: float) -> float:
    """Mean infection share summed over stages, for monotonicity reads."""
    per_stage: dict[int, list[float]] = {}
    for r in rows:
        if r["param"] == param and r["value"] == value:
            per_stage.setdefault(r["stage"], []).append(r["pct_infective"])
    return float(sum(np.mean(v) for v in per_stage.values()))
