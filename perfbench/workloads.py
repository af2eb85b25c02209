"""The benchmark's workloads: fixed pipelines over epiplan's public API, and
the output checks that run after each pipeline, outside its timed region.

Every workload is one pipeline of CLI stages (compile, cache, plan, simulate)
at a fixed size and with the CLI's default seeds, so every run times the same
work. The workload seed picks the entries the checks recompute. Functions are
called through their modules (``plan.rtdp``, not a name imported here) so
that the tracer's wrappers see them.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

from epiplan import backup, plan, sim
from epiplan.model import EpidemicModel, lattice_state_index
from epiplan.plan import PlannerConfig
from epiplan.rules import AmbiguityConfig
from epiplan.seir import EpidemicParams

ROW_SUM_TOL = 1e-9       # README contract: kernel rows sum to one
UNARY_REL_TOL = 1e-6     # unary MIP equals enumeration
MCCORMICK_REL_TOL = 1e-6  # McCormick bound at or above enumeration
CACHE_TOL = 1e-12        # cache round trip reproduces rows and DP values
REFERENCE_REL_TOL = 1e-6  # root value against the recorded reference
INNER_REL_TOL = 1e-9      # parametric inner solve equals the LP one

# The CLI's default planner seed; `simulate` uses episode seeds 0..n-1.
# RTDP's trajectories decide which states it compiles, and compiling is most
# of its time, so a planner seed drawn from the workload seed would make the
# timed work differ from run to run.
PLAN_SEED = 0


@dataclass(frozen=True)
class Size:
    N: int
    Y: int
    L: int
    M: int
    T: int
    init: tuple[float, float, float]
    backend: str
    niter: int = 50
    episodes: int = 10
    workers: int = 1
    sample: int = 24      # (state, stage) entries a check recomputes

    def model(self) -> EpidemicModel:
        params = EpidemicParams(N=self.N, L=self.L, M=self.M, T=self.T)
        return EpidemicModel(params, self.Y, AmbiguityConfig())


# Sizes of the shipped workloads, and tiny ones for the harness self-check.
SIZES = {
    # The paper's default configuration through the CLI's solve + simulate
    # path, on a cold model: RTDP compiles each state when it first visits
    # it, so the atom law and the grid push dominate. Early stopping is off
    # so that every run does exactly `niter` sweeps.
    "rtdp-default": Size(N=1000, Y=10, L=5, M=5, T=12, init=(0.7, 0.1, 0.2),
                         backend="drmdp-enumerate"),
    # Backward induction with the McCormick MIP back-end: the in-house
    # simplex and branch-and-bound take nearly all of the time.
    "dp-mip-small": Size(N=100, Y=5, L=2, M=2, T=5, init=(0.6, 0.2, 0.2),
                         backend="drmdp-mccormick"),
    # Every simplex state compiled on a process pool, written to the CSV
    # cache and read back (which refits every rule), then backward induction
    # with enumeration. The horizon is cut to T=5 to fit the run length.
    "compile-cache-dp": Size(N=300, Y=8, L=5, M=5, T=5,
                             init=(0.75, 0.125, 0.125),
                             backend="drmdp-enumerate", workers=2),
}

TINY_SIZES = {
    "rtdp-default": Size(N=60, Y=4, L=2, M=2, T=4, init=(0.5, 0.25, 0.25),
                         backend="drmdp-enumerate", niter=3, episodes=2),
    "dp-mip-small": Size(N=30, Y=2, L=1, M=1, T=3, init=(0.5, 0.0, 0.5),
                         backend="drmdp-mccormick", sample=3),
    "compile-cache-dp": Size(N=40, Y=3, L=2, M=2, T=3,
                             init=(1 / 3, 1 / 3, 1 / 3),
                             backend="drmdp-enumerate", workers=2, sample=3),
}


@dataclass
class Outcome:
    """What one pipeline did: stage times, work counts, and its outputs."""

    wall_s: float
    stages: dict[str, float]
    backups: int
    states_compiled: int
    episodes: int = 0
    cache_round_trips: int = 0
    root: tuple[float, tuple[int, int]] | None = None
    outputs: dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return self.backups + self.episodes + self.cache_round_trips


def _planner(size: Size, backend: str | None = None) -> PlannerConfig:
    return PlannerConfig(backend=backend or size.backend, niter=size.niter,
                         seed=PLAN_SEED, early_stop=False)


def _compiled(model: EpidemicModel) -> int:
    return len(model._rows)


def run_rtdp(size: Size, workdir: str) -> Outcome:
    model = size.model()
    init = lattice_state_index(model, *size.init)
    cfg = _planner(size)
    spec = sim.PerturbationSpec(radius=0.5, direction="high-infective")
    t0 = time.perf_counter()
    table, trace = plan.rtdp(model, init, cfg)
    t1 = time.perf_counter()
    kernel = sim.build_true_kernel(model, spec)
    # Episode seeds 0..n-1, as the CLI's simulate uses.
    episodes = [sim.run_episode(model, table, cfg, kernel, init, s)
                for s in range(size.episodes)]
    t2 = time.perf_counter()
    return Outcome(
        wall_s=t2 - t0,
        stages={"plan_s": t1 - t0, "sim_s": t2 - t1},
        backups=len(trace), states_compiled=_compiled(model),
        episodes=len(episodes),
        outputs={"model": model, "table": table, "init": init, "cfg": cfg,
                 "episodes": episodes})


def run_dp_mip(size: Size, workdir: str) -> Outcome:
    model = size.model()
    init = lattice_state_index(model, *size.init)
    cfg = _planner(size)
    t0 = time.perf_counter()
    model.compile_all(workers=size.workers)
    t1 = time.perf_counter()
    table = plan.backward_dp(model, cfg)
    t2 = time.perf_counter()
    return Outcome(
        wall_s=t2 - t0,
        stages={"compile_s": t1 - t0, "plan_s": t2 - t1},
        backups=_dp_backups(model), states_compiled=_compiled(model),
        outputs={"model": model, "table": table, "init": init, "cfg": cfg})


def run_compile_cache_dp(size: Size, workdir: str) -> Outcome:
    model = size.model()
    init = lattice_state_index(model, *size.init)
    cfg = _planner(size)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    try:
        t0 = time.perf_counter()
        model.compile_all(workers=size.workers)
        t1 = time.perf_counter()
        model.save_cache(cache_dir)
        loaded = size.model()
        loaded.load_cache(cache_dir)
        t2 = time.perf_counter()
        table = plan.backward_dp(loaded, cfg)
        t3 = time.perf_counter()
    finally:
        shutil.rmtree(cache_dir)
    return Outcome(
        wall_s=t3 - t0,
        stages={"compile_s": t1 - t0, "cache_s": t2 - t1, "plan_s": t3 - t2},
        backups=_dp_backups(loaded), states_compiled=_compiled(model),
        cache_round_trips=1,
        outputs={"model": model, "loaded": loaded, "table": table,
                 "init": init, "cfg": cfg})


def _dp_backups(model: EpidemicModel) -> int:
    return (model.T - 1) * len(model.grid.in_S_indices())


# -- output checks --------------------------------------------------------


class Checks:
    """Named pass/fail results; every comparison is one checked operation."""

    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []
        self.timings: dict[str, list[float]] = {}

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def attempted(self) -> int:
        return self.passed + len(self.failures)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def check_rows(checks: Checks, model: EpidemicModel, label: str) -> None:
    for idx, rows in model._rows.items():
        worst = max(abs(float(r.probs.sum()) - 1.0) for r in rows)
        checks.add(f"{label} rows of state {idx} sum to 1", worst <= ROW_SUM_TOL,
                   f"off by {worst:.3g}")


def _stage_values(table, model: EpidemicModel, t: int) -> np.ndarray:
    dense = np.zeros(model.grid.n_corners)
    if t < model.T:
        for idx in model.grid.in_S_indices():
            dense[idx] = table.lookup(model, int(idx), t)
    return dense


def _dp_entries(model: EpidemicModel) -> list[tuple[int, int]]:
    return [(int(idx), t) for t in range(1, model.T)
            for idx in model.grid.in_S_indices()]


def _sample(entries: list[tuple[int, int]], seed: int, n: int) -> list[tuple[int, int]]:
    """n of the (state, stage) entries, chosen by the workload seed."""
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(entries), size=min(n, len(entries)), replace=False)
    return [entries[i] for i in sorted(pick)]


def check_root(checks: Checks, out: Outcome, reference: dict | None) -> None:
    """Root value and greedy root action against the recorded reference."""
    o = out.outputs
    model, table, init = o["model"], o["table"], o["init"]
    value = table.lookup(model, init, 1)
    action, _ = plan.greedy_action(model, table, init, 1, o["cfg"])
    out.root = (value, (action.y_V, action.y_R))
    if reference is None:
        return
    checks.add("root value matches reference",
               _rel(value, reference["root_value"]) <= REFERENCE_REL_TOL,
               f"{value!r} vs {reference['root_value']!r}")
    checks.add("root action matches reference",
               list(out.root[1]) == list(reference["root_action"]),
               f"{out.root[1]} vs {reference['root_action']}")


def check_rtdp(checks: Checks, out: Outcome, size: Size, seed: int) -> None:
    o = out.outputs
    model, table, cfg = o["model"], o["table"], o["cfg"]
    check_rows(checks, model, "compiled")
    # Back up seeded table entries against the final table with both inner
    # solvers of the enumerate back-end: the parametric one RTDP used and
    # the LP one.
    lp_cfg = replace(cfg, inner_method="lp")
    for idx, t in _sample(sorted(table.values), seed, size.sample):
        v_next = table.lookup_fn(model, t + 1)
        val, _ = plan.backup_state(model, idx, t, v_next, cfg)
        ref, _ = plan.backup_state(model, idx, t, v_next, lp_cfg)
        checks.add(f"parametric inner solve equals LP at {(idx, t)}",
                   _rel(val, ref) <= INNER_REL_TOL, f"{val!r} vs {ref!r}")
    for i, ep in enumerate(o["episodes"]):
        checks.add(f"episode {i} total reward is finite and nonpositive",
                   bool(np.isfinite(ep.total_reward) and ep.total_reward <= 0.0),
                   repr(ep.total_reward))


def check_dp_mip(checks: Checks, out: Outcome, size: Size, seed: int) -> None:
    o = out.outputs
    model, table = o["model"], o["table"]
    check_rows(checks, model, "compiled")
    exact = plan.backward_dp(model, _planner(size, "drmdp-enumerate"))
    for key, e in exact.values.items():
        mc = table.values[key]
        checks.add(f"McCormick at or above enumeration at {key}",
                   mc >= e - MCCORMICK_REL_TOL * max(1.0, abs(e)), f"{mc!r} < {e!r}")
    times = checks.timings.setdefault("unary_s", [])
    for idx, t in _sample(_dp_entries(model), seed, size.sample):
        v_next = _stage_values(exact, model, t + 1)
        t0 = time.perf_counter()
        val, _ = backup.drmdp_backup_unary(model.rules(idx), v_next, model.lam,
                                           model.acfg.k, L=model.params.L,
                                           M=model.params.M)
        times.append(time.perf_counter() - t0)
        e = exact.values[(idx, t)]
        checks.add(f"unary equals enumeration at {(idx, t)}",
                   _rel(val, e) <= UNARY_REL_TOL, f"{val!r} vs {e!r}")


def check_compile_cache_dp(checks: Checks, out: Outcome, size: Size, seed: int) -> None:
    o = out.outputs
    model, loaded, table, cfg = o["model"], o["loaded"], o["table"], o["cfg"]
    check_rows(checks, model, "compiled")
    check_rows(checks, loaded, "loaded")
    for idx, rows in model._rows.items():
        back = loaded._rows.get(idx)
        same = back is not None and all(
            np.array_equal(a.indices, b.indices)
            and float(np.max(np.abs(a.probs - b.probs))) <= CACHE_TOL
            for a, b in zip(rows, back))
        checks.add(f"cache reproduces the rows of state {idx}", same)
    # Recompute sampled DP entries on the original model against the values
    # the loaded model produced one stage later.
    for idx, t in _sample(_dp_entries(model), seed, size.sample):
        val, _ = plan.backup_state(model, idx, t, _stage_values(table, model, t + 1), cfg)
        got = table.values[(idx, t)]
        checks.add(f"cache reproduces the DP value at {(idx, t)}",
                   _rel(got, val) <= CACHE_TOL, f"{got!r} vs {val!r}")


# name -> (pipeline, checks); the reason for each is in BENCHMARK.json.
WORKLOADS = {
    "rtdp-default": (run_rtdp, check_rtdp),
    "dp-mip-small": (run_dp_mip, check_dp_mip),
    "compile-cache-dp": (run_compile_cache_dp, check_compile_cache_dp),
}
