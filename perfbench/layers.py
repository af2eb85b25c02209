"""Which epiplan functions the traced run wraps, and the per-layer metrics
computed from their spans.

A layer is one module of the package; a span's layer is the prefix of its
name. Each layer's metrics, and the end-to-end metric they should move on
which workload, are listed in perfbench/README.md.
"""

from __future__ import annotations

import os

import numpy as np

from spans import Profile, Span, Tracer, profile, span_cost

LAYERS = ("seir", "grid", "rules", "model", "backup", "lp", "plan", "sim")


def _len_result(key):
    return lambda args, kwargs, result: {key: len(result)}


def _support_arg(args, kwargs, result):
    return {"support": len(args[0].support)}


def _lp_counts(args, kwargs, result):
    rows, cols = args[0].A.shape
    return {"pivots": result.iterations, "rows": rows, "cols": cols}


def _mip_counts(args, kwargs, result):
    return {"nodes": result.nodes}


def _cache_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _rtdp_counts(args, kwargs, result):
    table, trace = result
    return {"sweeps": trace.steps[-1].iteration if trace.steps else 0,
            "entries": len(table.values)}


def _dp_counts(args, kwargs, result):
    return {"sweeps": args[0].T - 1, "entries": len(result.values)}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary, including each call site that imported a
    function by name."""
    from epiplan import backup, grid, lp, model, plan, rules, seir, sim

    w = tracer.wrap
    for mod in (seir, grid):
        w(mod, "transition_pmf", "seir.transition_pmf", _len_result("atoms"))
    for mod in (grid, model):
        w(mod, "discretize_kernel", "grid.discretize_kernel", _len_result("nnz"))
    w(grid.Grid, "locate_many", "grid.locate_many")
    for mod in (rules, model, backup):
        w(mod, "fit_rules", "rules.fit_rules",
          lambda a, k, r: {"support": len(r.support)})
    for meth in ("compile_state", "compile_all", "load_cache"):
        w(model.EpidemicModel, meth, f"model.{meth}")
    w(model.EpidemicModel, "save_cache", "model.save_cache", _cache_bytes)
    w(backup, "inner_value_parametric", "backup.inner_value_parametric")
    for fn in ("drmdp_backup_enumerate", "drmdp_backup_mccormick",
               "drmdp_backup_unary"):
        for mod in (backup, plan):
            w(mod, fn, f"backup.{fn}", _support_arg)
    for mod in (lp, backup):
        w(mod, "solve_lp", "lp.solve_lp", _lp_counts)
        w(mod, "solve_mip", "lp.solve_mip", _mip_counts)
    w(plan, "backup_state", "plan.backup_state")
    w(plan, "rtdp", "plan.rtdp", _rtdp_counts)
    w(plan, "backward_dp", "plan.backward_dp", _dp_counts)
    w(sim, "run_episode", "sim.run_episode")
    w(sim, "greedy_action", "sim.greedy_action")
    w(sim, "worst_case_shift", "backup.worst_case_shift")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _planner_backups(spans: list[Span], run: str) -> tuple[list[float], int]:
    """Durations of the planner's own backups, and how many compiled a state.

    A planner backup is a backup_state span directly under rtdp or
    backward_dp (the rollouts' greedy backups sit under sim.greedy_action).
    It is cold when a compile_state span that did work (one with children)
    sits directly under it.
    """
    has_child = set(s.parent for s in spans if s.parent >= 0)
    planner = {i for i, s in enumerate(spans)
               if s.run == run and s.name == "plan.backup_state"
               and s.parent >= 0 and spans[s.parent].name in ("plan.rtdp", "plan.backward_dp")}
    cold = {s.parent for i, s in enumerate(spans)
            if s.name == "model.compile_state" and i in has_child
            and s.parent in planner}
    return [spans[i].seconds for i in sorted(planner)], len(cold)


def pipeline_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float,
                     states_compiled: int) -> dict[str, float]:
    """Per-layer metrics of the traced pipeline, its layer shares and the
    tracing overhead, plus the unary back-end's figures from the checks.

    wall_s and untraced_wall_s are the pipeline's wall_s with and without
    tracing; layer shares are of the traced pipeline's whole span.
    """
    p: Profile = profile(tracer.spans, "pipeline")
    root = next(s for s in tracer.spans if s.run == "pipeline" and s.parent < 0)
    calls = lambda n: p.calls.get(n, 0)
    self_s = lambda n: p.self_s.get(n, 0.0)
    total = lambda n: p.total.get(n, 0.0)
    count = lambda n: p.counts.get(n, 0.0)

    m: dict[str, float] = {}
    m["seir.transition_pmf.calls"] = calls("seir.transition_pmf")
    m["seir.transition_pmf.self_s"] = self_s("seir.transition_pmf")
    m["seir.atoms"] = count("seir.transition_pmf.atoms")

    nnz = count("grid.discretize_kernel.nnz")
    m["grid.discretize_kernel.calls"] = calls("grid.discretize_kernel")
    m["grid.discretize_kernel.self_s"] = self_s("grid.discretize_kernel")
    m["grid.locate_many.self_s"] = self_s("grid.locate_many")
    m["grid.row_nnz"] = _ratio(nnz, calls("grid.discretize_kernel"))
    m["grid.atoms_per_nnz"] = _ratio(m["seir.atoms"], nnz)

    m["rules.fit_rules.calls"] = calls("rules.fit_rules")
    m["rules.fit_rules.self_s"] = self_s("rules.fit_rules")
    m["rules.support_mean"] = _ratio(count("rules.fit_rules.support"),
                                     calls("rules.fit_rules"))

    m["model.states_compiled"] = states_compiled
    for meth in ("compile_state", "compile_all", "save_cache", "load_cache"):
        m[f"model.{meth}.s"] = total(f"model.{meth}")
    m["model.cache_bytes"] = count("model.save_cache.bytes")

    m["backup.inner_value_parametric.calls"] = calls("backup.inner_value_parametric")
    m["backup.inner_value_parametric.self_s"] = self_s("backup.inner_value_parametric")
    support = n_drmdp = 0
    for fn in ("enumerate", "mccormick"):
        name = f"backup.drmdp_backup_{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        support += count(f"{name}.support")
        n_drmdp += calls(name)
    m["backup.support_mean"] = _ratio(support, n_drmdp)

    mips = calls("lp.solve_mip")
    lps = calls("lp.solve_lp")
    m["lp.solve_lp.calls"] = lps
    m["lp.solve_lp.self_s"] = self_s("lp.solve_lp")
    m["lp.solve_mip.calls"] = mips
    m["lp.solve_mip.self_s"] = self_s("lp.solve_mip")
    m["lp.pivots"] = count("lp.solve_lp.pivots")
    m["lp.bnb_nodes"] = count("lp.solve_mip.nodes")
    m["lp.nodes_per_mip"] = _ratio(m["lp.bnb_nodes"], mips)
    m["lp.rows_mean"] = _ratio(count("lp.solve_lp.rows"), lps)
    m["lp.cols_mean"] = _ratio(count("lp.solve_lp.cols"), lps)

    durations, cold = _planner_backups(tracer.spans, "pipeline")
    ms = np.array(durations) * 1e3
    m["plan.backups"] = len(durations)
    m["plan.backup_state.self_s"] = self_s("plan.backup_state")
    m["plan.backup_p50_ms"] = float(np.percentile(ms, 50)) if len(ms) else 0.0
    m["plan.backup_p98_ms"] = float(np.percentile(ms, 98)) if len(ms) else 0.0
    m["plan.cold_backup_ratio"] = _ratio(cold, len(durations))
    m["plan.sweeps"] = count("plan.rtdp.sweeps") + count("plan.backward_dp.sweeps")
    m["plan.table_entries"] = (count("plan.rtdp.entries")
                               + count("plan.backward_dp.entries"))

    m["sim.run_episode.calls"] = calls("sim.run_episode")
    m["sim.run_episode.s"] = total("sim.run_episode")
    m["sim.greedy_backups"] = calls("sim.greedy_action")
    m["sim.kernel_rows"] = calls("backup.worst_case_shift")

    for layer in LAYERS + ("bench",):
        busy = sum(v for k, v in p.self_s.items() if k.split(".")[0] == layer)
        m[f"share.{layer}"] = _ratio(busy, root.seconds)

    m["trace.spans"] = sum(p.calls.values()) - 1
    m["trace.wall_s"] = wall_s
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = wall_s - untraced_wall_s
    # The difference of two walls is within the machine's run-to-run noise
    # here; the span count times the cost of one wrapper bounds it better.
    m["trace.overhead_est_s"] = m["trace.spans"] * span_cost()

    c = profile(tracer.spans, "check")
    m["check.backup.drmdp_backup_unary.calls"] = c.calls.get("backup.drmdp_backup_unary", 0)
    m["check.backup.drmdp_backup_unary.self_s"] = c.self_s.get("backup.drmdp_backup_unary", 0.0)
    m["check.lp.bnb_nodes"] = c.counts.get("lp.solve_mip.nodes", 0.0)
    return m
