"""Self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size, untraced and traced, and fails unless
each run emits every metric BENCHMARK.json names and passes every output
check. It then copies BENCHMARK.json and perfbench/ alone into a scratch
directory and makes sure the benchmark refuses to run there. Takes about a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run


def main() -> int:
    run.load_package()
    from workloads import TINY_SIZES

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in TINY_SIZES:
        for trace in (0, 1):
            res = run.measure(workload, seed=3, seconds=0.0, trace=bool(trace),
                              sizes=TINY_SIZES)["result"]
            missing = sorted(set(wanted[trace]) - set(res["metrics"]))
            extra = sorted(set(res["metrics"]) - set(wanted[trace]))
            print(f"{workload} trace {trace}: {res['attempted']} operations, "
                  f"{res['failed']} failed, {len(res['metrics'])} metrics")
            if missing or extra:
                problems.append(f"{workload} trace {trace}: missing {missing}, "
                                f"unlisted {extra}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} trace {trace}: checks failed")
            if trace == 0 and any(v <= 0 for v in res["metrics"].values()):
                problems.append(f"{workload}: an end-to-end metric is not positive")
    problems += bare_checkout_refuses()
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def bare_checkout_refuses() -> list[str]:
    """Without src/, the benchmark must exit nonzero and print no result."""
    os.makedirs(run.WORKDIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORKDIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dp-mip-small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["the benchmark ran in a directory without the package source"]
    return []


if __name__ == "__main__":
    run.pin_blas_threads()
    sys.exit(main())
