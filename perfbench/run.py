"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rtdp-default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the pipeline repeats, untraced, for ``--seconds`` (at least
once, and never starting a repeat that would overrun) and the end-to-end
metrics are the medians over repeats. With ``--trace 1`` the pipeline runs
once untraced and once traced on the same inputs, and the per-layer metrics
come from the traced run. The output checks run after every pipeline,
outside its timed region. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9

# One BLAS thread per process, so that the pool workers of compile-cache-dp
# do not oversubscribe the cores. Set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
from epiplan import plan, sim
from epiplan.model import EpidemicModel
from epiplan.rules import AmbiguityConfig
from epiplan.seir import EpidemicParams
EpidemicModel(EpidemicParams(N={s.N}, L={s.L}, M={s.M}, T={s.T}), {s.Y},
              AmbiguityConfig())
print(time.perf_counter() - t0)
"""


def pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load_package() -> None:
    """Import epiplan from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "epiplan", "__init__.py")):
        raise SystemExit(f"error: no package source at {SRC}/epiplan; run from "
                         "the root of a full checkout")
    sys.path.insert(0, SRC)
    import epiplan

    if os.path.dirname(os.path.dirname(os.path.abspath(epiplan.__file__))) != SRC:
        raise SystemExit(f"error: imported epiplan from {epiplan.__file__}, "
                         f"not from {SRC}")


def environment() -> dict[str, str]:
    import numpy
    import scipy

    return {"nproc": str(os.cpu_count()), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def measure_setup(size) -> float:
    """Median over fresh interpreters of imports plus model construction."""
    code = SETUP_CODE.format(src=SRC, s=size)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest finished child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def load_reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["outputs"][workload]


def run_once(workload: str, size, seed: int, reference, checks, tracer=None):
    """One pipeline, then its checks; spans go to `tracer` when given.

    Returns the outcome and the peak RSS reached by the end of the pipeline.
    """
    import layers
    from workloads import WORKLOADS, check_root

    pipeline, check = WORKLOADS[workload]
    if tracer is None:
        out = pipeline(size, WORKDIR)
        rss = peak_rss_mb()
        check(checks, out, size, seed)
        check_root(checks, out, reference)
        return out, rss
    layers.install(tracer)
    try:
        with tracer.span("bench.pipeline", "pipeline"):
            out = pipeline(size, WORKDIR)
        rss = peak_rss_mb()
        with tracer.span("bench.check", "check"):
            check(checks, out, size, seed)
            check_root(checks, out, reference)
    finally:
        tracer.uninstall()
    return out, rss


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes=None) -> dict:
    """Run a workload and return the result object the benchmark prints."""
    import layers
    from spans import Tracer
    from workloads import SIZES, Checks

    size = (sizes or SIZES)[workload]
    reference = load_reference(workload) if sizes is None else None
    os.makedirs(WORKDIR, exist_ok=True)
    checks = Checks()
    outcomes, peaks = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out, rss = run_once(workload, size, seed, reference, checks)
        outcomes.append(out)
        peaks.append(rss)
        last = time.perf_counter() - t0
        if trace or time.perf_counter() - start + last > seconds:
            break
    metrics: dict[str, float]
    if trace:
        tracer = Tracer()
        traced, _ = run_once(workload, size, seed, reference, checks, tracer)
        outcomes.append(traced)
        metrics = layers.pipeline_metrics(tracer, traced.wall_s, outcomes[0].wall_s,
                                          traced.states_compiled)
        tracer.write_csv(os.path.join(WORKDIR, f"spans-{workload}-seed{seed}.csv"))
    else:
        metrics = {
            "setup_s": measure_setup(size),
            "wall_s": statistics.median(o.wall_s for o in outcomes),
            "plan_s": statistics.median(o.stages["plan_s"] for o in outcomes),
            "backups_per_s": statistics.median(o.backups / o.stages["plan_s"]
                                               for o in outcomes),
            "peak_rss_mb": peaks[0],
        }
    attempted = sum(o.operations for o in outcomes) + checks.attempted
    failed = len(checks.failures)
    stage_medians = {k: statistics.median(o.stages[k] for o in outcomes)
                     for k in outcomes[0].stages}
    return {
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
        "repeats": len(outcomes),
        "stages": stage_medians,
        "root": outcomes[0].root,
        "failures": checks.failures,
        "unary_s": checks.timings.get("unary_s", []),
    }


def metric_units() -> dict[str, str]:
    """Unit of every metric BENCHMARK.json names; the stage times are seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return dict(units, compile_s="s", cache_s="s", sim_s="s")


def report(workload: str, seed: int, trace: bool, run: dict) -> None:
    res = run["result"]
    units = metric_units()
    env = " ".join(f"{k}={v}" for k, v in environment().items())
    print(f"workload {workload} seed {seed} trace {int(trace)} "
          f"repeats {run['repeats']}")
    print(f"env {env}")
    for name, val in run["stages"].items():
        if name not in res["metrics"]:
            print(f"  stage {name:<10} {val:.4f} {units[name]}")
    if run["root"] is not None:
        print(f"  root value {run['root'][0]!r} action {run['root'][1]}")
    if run["unary_s"]:
        u = sorted(run["unary_s"])
        print(f"  unary check {len(u)} backups, p50 {statistics.median(u) * 1e3:.1f} ms,"
              f" max {u[-1] * 1e3:.1f} ms, total {sum(u):.2f} s")
    print(f"  failed_ratio {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.6f}")
    for failure in run["failures"][:20]:
        print(f"  FAILED {failure}")
    res = dict(res, metrics={k: {"value": float(v), "unit": units[k]}
                             for k, v in res["metrics"].items()})
    print(json.dumps(res))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("seed must be >= 0")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, bool(args.trace), run)
    return 0


if __name__ == "__main__":
    pin_blas_threads()
    sys.exit(main())
