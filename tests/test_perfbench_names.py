"""The benchmark calls epiplan by name: its tracer wraps functions, and its
workloads call the planners, back-ends and model.  A renamed or changed one
would break only benchmark runs, so check both here, the workloads at their
tiny sizes."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench")

sys.path.insert(0, PERFBENCH)
try:
    import layers
    import spans
    import workloads  # its epiplan imports must resolve too
finally:
    sys.path.remove(PERFBENCH)


def test_every_traced_name_exists():
    tracer = spans.Tracer()
    try:
        layers.install(tracer)  # getattr raises AttributeError on a missing name
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", sorted(workloads.TINY_SIZES))
def test_workload_checks_pass_at_tiny_size(name, tmp_path):
    pipeline, check = workloads.WORKLOADS[name]
    size = workloads.TINY_SIZES[name]
    out = pipeline(size, str(tmp_path))
    checks = workloads.Checks()
    check(checks, out, size, 3)
    workloads.check_root(checks, out, None)
    assert checks.failures == []
    assert checks.attempted > 0
