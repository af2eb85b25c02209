"""Command-line surface: config ingestion, subcommands, artifact emission.

Subcommands: compile (build and persist the kernel cache), solve (run a
planner and write the value table), simulate (episodes for one backend),
compare (backends x kernels grid), sensitivity (parameter sweeps), selftest
(quick property suites).  Exit codes: 0 success, 1 domain or configuration
error, 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time

import numpy as np

from .config import RunConfig, config_hash, parse_config, resolved_text
from .errors import EpiplanError
from .model import EpidemicModel, lattice_state_index
from .plan import PlannerConfig, backward_dp, rtdp, table_rows
from .sim import (
    EPISODE_HEADER,
    aggregate_infectives,
    build_true_kernel,
    compare_models,
    episode_rows,
    run_episode,
    sensitivity_sweep,
)

_FANCY = "%.12g"


def _fmt(value) -> str:
    if isinstance(value, float):
        return _FANCY % value
    return str(value)


def emit_results(tables: dict[str, tuple[list[str], list[dict]]], outdir: str,
                 cfg: RunConfig, seeds: list[int]) -> list[str]:
    """Write CSV tables plus the resolved config and a manifest."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    for name, (header, rows) in sorted(tables.items()):
        path = os.path.join(outdir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            for row in rows:
                wr.writerow([_fmt(row[col]) for col in header])
        written.append(path)
    cfg_path = os.path.join(outdir, "resolved.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(resolved_text(cfg))
    written.append(cfg_path)
    manifest = os.path.join(outdir, "manifest.txt")
    with open(manifest, "w") as fh:
        fh.write(f"config_hash {config_hash(cfg)}\n")
        fh.write(f"seeds {','.join(str(s) for s in seeds)}\n")
        for path in written:
            fh.write(f"file {os.path.basename(path)}\n")
    written.append(manifest)
    return written


def _model(cfg: RunConfig) -> EpidemicModel:
    return EpidemicModel(cfg.params(), cfg.Y, cfg.ambiguity())


def _init_index(cfg: RunConfig, model: EpidemicModel) -> int:
    p_S1 = cfg.p_S1_list[0]
    p_I1 = round(1.0 - p_S1 - cfg.p_E1, 12)
    return lattice_state_index(model, p_S1, cfg.p_E1, p_I1)


def _cmd_compile(cfg: RunConfig, outdir: str, verbose: bool) -> int:
    model = _model(cfg)
    t0 = time.time()
    model.compile_all(workers=cfg.threads)
    files = model.save_cache(outdir)
    if verbose:
        print(f"compiled {len(model.grid.in_S_indices())} states "
              f"in {time.time() - t0:.1f}s")
    for f in files:
        print(f)
    return 0


def _cmd_solve(cfg: RunConfig, outdir: str, use_dp: bool, verbose: bool) -> int:
    model = _model(cfg)
    model.load_cache(outdir)
    pcfg = PlannerConfig(**cfg.planner_kwargs())
    init = _init_index(cfg, model)
    t0 = time.time()
    if use_dp:
        table = backward_dp(model, pcfg)
    else:
        table, _ = rtdp(model, init, pcfg)
    rows = table_rows(model, table, pcfg)
    header = ["stage", "state", "p_S", "p_E", "p_I", "value", "y_V", "y_R"]
    emit_results({"values": (header, rows)}, outdir, cfg, [cfg.seed])
    root = table.lookup(model, init, 1)
    print(f"root value {root:.6f} ({'dp' if use_dp else 'rtdp'}, "
          f"{time.time() - t0:.1f}s, {len(rows)} entries)")
    return 0


def _cmd_simulate(cfg: RunConfig, outdir: str, verbose: bool) -> int:
    model = _model(cfg)
    model.load_cache(outdir)
    pcfg = PlannerConfig(**cfg.planner_kwargs())
    init = _init_index(cfg, model)
    table, _ = rtdp(model, init, pcfg)
    kern = build_true_kernel(model, cfg.perturbation())
    kernel_name = "perturbed" if cfg.radius else "nominal"
    rows = []
    for seed in range(cfg.nseeds):
        rec = run_episode(model, table, pcfg, kern, init, seed)
        rows += episode_rows(rec, cfg.backend, kernel_name, cfg.p_S1_list[0], seed)
    emit_results({"episodes": (EPISODE_HEADER, rows)}, outdir, cfg,
                 list(range(cfg.nseeds)))
    totals = sorted({r["seed"]: r["total_reward"] for r in rows}.values())
    print(f"mean total reward {np.mean(totals):.3f} over {cfg.nseeds} seeds")
    return 0


def _cmd_compare(cfg: RunConfig, outdir: str, verbose: bool) -> int:
    episodes, summary = compare_models(
        cfg.params(), cfg.Y, cfg.ambiguity(),
        backends=("drmdp-enumerate", "nominal", "robust"),
        p_S1_list=cfg.p_S1_list, p_E1=cfg.p_E1,
        kernels=("nominal", "perturbed"), pspec=cfg.perturbation(),
        nseeds=cfg.nseeds, niter=cfg.niter, plan_seed=cfg.seed)
    sm_header = ["backend", "kernel", "p_S1", "stage", "mean_y_V", "mean_y_R",
                 "mean_pct_infective", "mean_pct_recovered",
                 "mean_total_reward", "std_total_reward"]
    emit_results({"comparison_episodes": (EPISODE_HEADER, episodes),
                  "comparison_summary": (sm_header, summary)},
                 outdir, cfg, list(range(cfg.nseeds)))
    cells = {(r["backend"], r["kernel"]): r["mean_total_reward"] for r in summary}
    for key in sorted(cells):
        print(f"{key[0]:>16} | {key[1]:>9} | mean total {cells[key]:.3f}")
    return 0


def _cmd_sensitivity(cfg: RunConfig, outdir: str, verbose: bool) -> int:
    p_S1 = cfg.p_S1_list[0]
    scenario = (p_S1, cfg.p_E1, round(1.0 - p_S1 - cfg.p_E1, 12))
    rows = sensitivity_sweep(cfg.params(), cfg.Y, cfg.ambiguity(),
                             cfg.sweep_param, cfg.sweep_values,
                             nseeds=cfg.nseeds, pspec=cfg.perturbation(),
                             scenario=scenario, niter=cfg.niter, plan_seed=cfg.seed)
    header = ["param", "value", "seed", "stage", "pct_infective"]
    emit_results({"sensitivity": (header, rows)}, outdir, cfg,
                 list(range(cfg.nseeds)))
    for value in cfg.sweep_values:
        agg = aggregate_infectives(rows, cfg.sweep_param, value)
        print(f"{cfg.sweep_param} = {value:g}: aggregate infectives {agg:.4f}")
    return 0


def _cmd_selftest(cfg: RunConfig, outdir: str, verbose: bool) -> int:
    """Quick duality and ordering property checks on randomized instances."""
    from .backup import (
        drmdp_backup_enumerate,
        drmdp_backup_mccormick,
        drmdp_backup_unary,
        inner_dual_lp,
        inner_primal_oracle,
        inner_value_parametric,
    )
    from .lp import LinearProgram, lp_duality_check
    from .rules import DecisionRuleCoefficients, design_matrix, mean_bounds, reward_rule
    from .seir import Action

    rng = np.random.default_rng(0)
    failures = 0

    def coeffs_of(m):
        base = rng.random(m)
        base /= base.sum()
        mean = np.vstack([base, rng.normal(scale=0.1, size=m),
                          rng.normal(scale=0.1, size=m)])
        eps = np.array([-rng.random() * 20, -rng.random(), -rng.random()])
        return DecisionRuleCoefficients(np.arange(m), mean, 0.05, eps)

    for trial in range(40):
        m = int(rng.integers(1, 8))
        coeffs = coeffs_of(m)
        v = -rng.random(m) * 50
        k = float(rng.choice([0.0, 1.0, 1e3, 1e6]))
        dual, _ = inner_dual_lp(coeffs, Action(0, 0), v, 0.95, k)
        primal = inner_primal_oracle(coeffs, Action(0, 0), v, 0.95, k)
        if abs(dual - primal) > 1e-6 * (1.0 + abs(dual)):
            failures += 1

    # The batched parametric solve against the LP route, action by action.
    batch_actions = [Action(a, b) for a in range(3) for b in range(3)]
    X = design_matrix(batch_actions)
    for trial in range(10):
        m = int(rng.integers(1, 8))
        coeffs = coeffs_of(m)
        v = -rng.random(m) * 50
        k = float(rng.choice([0.0, 1.0, 1e3, 1e6]))
        fast = inner_value_parametric(*mean_bounds(coeffs, X), 0.95 * v, k)
        for a, f in zip(batch_actions, fast):
            dual, _ = inner_dual_lp(coeffs, a, v, 0.95, k)
            if abs(dual - reward_rule(coeffs, a) - f) > 1e-6 * (1.0 + abs(dual)):
                failures += 1

    actions = [Action(a, b) for a in range(2) for b in range(2)]
    for trial in range(15):
        m = int(rng.integers(2, 6))
        coeffs = coeffs_of(m)
        v = -rng.random(m) * 30
        k = float(rng.choice([1.0, 1e3]))
        e, _ = drmdp_backup_enumerate(coeffs, actions, v, 0.95, k,
                                      method="parametric")
        un, _ = drmdp_backup_unary(coeffs, v, 0.95, k, L=1, M=1)
        mc, _ = drmdp_backup_mccormick(coeffs, v, 0.95, k, L=1, M=1)
        scale = 1.0 + abs(e)
        if abs(un - e) > 1e-6 * scale or mc < un - 1e-6 * scale:
            failures += 1

    for trial in range(10):
        n, mrows = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        lp = LinearProgram("max", rng.normal(size=n),
                           rng.normal(size=(mrows, n)), ["<="] * mrows,
                           rng.random(mrows) + 0.5)
        rep = lp_duality_check(lp)
        if rep.status == "checked" and not rep.ok:
            failures += 1

    print(f"selftest: {'PASS' if failures == 0 else f'FAIL ({failures})'}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiplan",
        description="Epidemic-control planning under transition ambiguity")
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, help="override planner seed")
    parser.add_argument("--backend", help="override planner backend")
    parser.add_argument("--Y", type=int, help="override discretization level")
    parser.add_argument("--threads", type=int, help="override worker count")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("compile")
    solve = sub.add_parser("solve")
    solve.add_argument("--dp", action="store_true",
                       help="use backward induction instead of the default planner")
    sub.add_parser("simulate")
    sub.add_parser("compare")
    sub.add_parser("sensitivity")
    sub.add_parser("selftest")
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.backend is not None:
            cfg.backend = args.backend
        if args.Y is not None:
            cfg.Y = args.Y
        if args.threads is not None:
            cfg.threads = args.threads
        from .config import _validate

        _validate(cfg, "<cli>")

        if args.command == "compile":
            return _cmd_compile(cfg, args.out, args.verbose)
        if args.command == "solve":
            return _cmd_solve(cfg, args.out, args.dp, args.verbose)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.out, args.verbose)
        if args.command == "compare":
            return _cmd_compare(cfg, args.out, args.verbose)
        if args.command == "sensitivity":
            return _cmd_sensitivity(cfg, args.out, args.verbose)
        if args.command == "selftest":
            return _cmd_selftest(cfg, args.out, args.verbose)
        parser.error(f"unknown command {args.command!r}")
    except EpiplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
