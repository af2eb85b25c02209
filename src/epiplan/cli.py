"""Command-line surface: config ingestion, subcommands, artifact emission.

Subcommands: compile (build and persist the kernel cache), solve (run a
planner and write the value table), simulate (the compare cell of one
backend, initial state and kernel), compare (backends x kernels grid),
sensitivity (parameter sweeps).  The duality and ordering property checks
are tests (tests/test_acceptance.py), not a subcommand.  Exit codes: 0
success, 1 domain or configuration error, 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time

from .config import RunConfig, config, config_hash, parse_config, resolved_text
from .errors import ConfigError, EpiplanError
from .model import EpidemicModel, initial_state_index
from .plan import backward_dp, rtdp, table_rows
from .sim import EPISODE_HEADER, aggregate_infectives, compare_models, sensitivity_sweep

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


def _check_out(outdir: str) -> None:
    """The output directory, or its nearest existing ancestor, must be a
    directory."""
    probe = os.path.abspath(outdir)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"--out {outdir}: {probe} is not a directory")


def _cached_model(cfg: RunConfig, outdir: str) -> EpidemicModel:
    """The run's model, hydrated from the kernel cache in outdir if one matches."""
    model = EpidemicModel(cfg.params, cfg.Y, cfg.ambiguity)
    model.load_cache(outdir)
    return model


def _cmd_compile(cfg: RunConfig, outdir: str, verbose: bool) -> int:
    model = EpidemicModel(cfg.params, cfg.Y, cfg.ambiguity)
    t0 = time.perf_counter()
    model.compile_all(workers=cfg.threads)
    files = model.save_cache(outdir)
    if verbose:
        print(f"compiled {len(model.grid.in_S_indices())} states "
              f"in {time.perf_counter() - t0:.1f}s")
    for f in files:
        print(f)
    return 0


def _cmd_solve(cfg: RunConfig, outdir: str, use_dp: bool) -> int:
    model = _cached_model(cfg, outdir)
    pcfg = cfg.planner
    init = initial_state_index(model, cfg.p_S1_list[0], cfg.p_E1)
    t0 = time.perf_counter()
    if use_dp:
        model.compile_all(workers=cfg.threads)
        table = backward_dp(model, pcfg)
    else:
        table, _ = rtdp(model, init, pcfg)
    rows = table_rows(model, table, pcfg)
    header = ["stage", "state", "p_S", "p_E", "p_I", "value", "y_V", "y_R"]
    emit_results({"values": (header, rows)}, outdir, cfg, [pcfg.seed])
    root = table.lookup(model, init, 1)
    print(f"root value {root:.6f} ({'dp' if use_dp else 'rtdp'}, "
          f"{time.perf_counter() - t0:.1f}s, {len(rows)} entries)")
    return 0


def _cmd_simulate(cfg: RunConfig, outdir: str) -> int:
    model = _cached_model(cfg, outdir)
    episodes, summary = compare_models(
        model, cfg.planner, backends=(cfg.planner.backend,),
        p_S1_list=cfg.p_S1_list[:1], p_E1=cfg.p_E1,
        kernels=("perturbed" if cfg.radius else "nominal",),
        pspec=cfg.perturbation(), nseeds=cfg.nseeds)
    emit_results({"episodes": (EPISODE_HEADER, episodes)}, outdir, cfg,
                 list(range(cfg.nseeds)))
    print(f"mean total reward {summary[0]['mean_total_reward']:.3f} "
          f"over {cfg.nseeds} seeds")
    return 0


def _cmd_compare(cfg: RunConfig, outdir: str) -> int:
    model = _cached_model(cfg, outdir)
    episodes, summary = compare_models(
        model, cfg.planner,
        backends=("drmdp-enumerate", "nominal", "robust"),
        p_S1_list=cfg.p_S1_list, p_E1=cfg.p_E1,
        kernels=("nominal", "perturbed"), pspec=cfg.perturbation(),
        nseeds=cfg.nseeds)
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


def _cmd_sensitivity(cfg: RunConfig, outdir: str) -> int:
    rows = sensitivity_sweep(cfg.params, cfg.Y, cfg.ambiguity, cfg.planner,
                             cfg.sweep_param, cfg.sweep_values,
                             nseeds=cfg.nseeds, pspec=cfg.perturbation(),
                             scenario=(cfg.p_S1_list[0], cfg.p_E1))
    header = ["param", "value", "seed", "stage", "pct_infective"]
    emit_results({"sensitivity": (header, rows)}, outdir, cfg,
                 list(range(cfg.nseeds)))
    for value in cfg.sweep_values:
        agg = aggregate_infectives(rows, cfg.sweep_param, value)
        print(f"{cfg.sweep_param} = {value:g}: aggregate infectives {agg:.4f}")
    return 0


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
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        overrides = {key: getattr(args, key) for key in ("seed", "backend", "Y", "threads")
                     if getattr(args, key) is not None}
        cfg = config(parse_config(args.config) if args.config else RunConfig(),
                     overrides, "<cli>")
        _check_out(args.out)

        if args.command == "compile":
            return _cmd_compile(cfg, args.out, args.verbose)
        if args.command == "solve":
            return _cmd_solve(cfg, args.out, args.dp)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.out)
        if args.command == "compare":
            return _cmd_compare(cfg, args.out)
        if args.command == "sensitivity":
            return _cmd_sensitivity(cfg, args.out)
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
