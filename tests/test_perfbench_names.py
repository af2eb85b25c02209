"""The benchmark calls epiplan by name: its tracer wraps functions, and its
workloads call the planners, back-ends and model.  A renamed or changed one
would break only benchmark runs, so check both here, the workloads at their
tiny sizes.  Conversely, an import kept only for the tracer must still be
traced, or it is dead."""

import glob
import os
import re
import sys

import pytest

import epiplan

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


class RecordingTracer:
    """Records the module.attr of every call site layers.install wraps,
    without wrapping anything."""

    def __init__(self):
        self.wrapped = set()

    def wrap(self, owner, attr, name, count=None):
        self.wrapped.add(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")


def test_every_unused_import_is_traced():
    # Each `# noqa: F401` import in the package must name perfbench/layers.py
    # and the module.attr it is kept for, and layers.install must wrap that
    # call site; once the benchmark stops tracing it, the import is dead.
    tracer = RecordingTracer()
    layers.install(tracer)
    found = 0
    for path in sorted(glob.glob(os.path.join(os.path.dirname(epiplan.__file__), "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                if "noqa: F401" not in line:
                    continue
                found += 1
                where = f"{module}.py:{lineno}"
                imported = re.match(r"\s*(?:from \S+ import )?(\w+)", line)
                note = re.search(r"noqa: F401\s+perfbench/layers\.py traces (\w+)\.(\w+)$",
                                 line.rstrip())
                assert note, f"{where}: the noqa must name perfbench/layers.py and module.attr"
                assert note.group(1) == module, where
                assert imported and imported.group(1) == note.group(2), where
                assert f"{module}.{note.group(2)}" in tracer.wrapped, \
                    f"{where}: layers.install no longer wraps {module}.{note.group(2)}"
    assert found > 0


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
