"""The benchmark's tracer wraps epiplan functions by name; a renamed or
deleted one would break only traced benchmark runs, so check them here."""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench")


def test_every_traced_name_exists():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
        import spans
        import workloads  # noqa: F401  its epiplan imports must resolve too
    finally:
        sys.path.remove(PERFBENCH)
    tracer = spans.Tracer()
    try:
        layers.install(tracer)  # getattr raises AttributeError on a missing name
    finally:
        tracer.uninstall()
