"""Span tracing for the benchmark, from outside the package.

The tracer replaces public functions of epiplan's modules with wrappers that
record one span per call: name, start, end, parent span and run id, plus work
counters read from the call's arguments or result. A module that imported a
function by name holds its own reference, so every such call site is wrapped
as well (for example ``model.discretize_kernel`` besides
``grid.discretize_kernel``), or its calls would never show.

Spans stay in memory until the run ends. Work done in process-pool workers
(``compile_all`` with more than one worker) is not visible: each worker runs
its own copy of the wrapped functions and its spans never come back.
"""

from __future__ import annotations

import csv
import functools
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    run: str
    parent: int          # index of the enclosing span, -1 at a root
    start: float
    end: float = 0.0
    counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = "pipeline"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self.run, self._stack[-1] if self._stack else -1, 0.0)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, run: str):
        """A root span around a block, e.g. the timed pipeline or the checks."""
        self.run = run
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span named `name` for every call of owner.attr.

        count(args, kwargs, result) may return a dict of work counters.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["index", "run", "name", "parent", "start", "end"])
            for i, s in enumerate(self.spans):
                wr.writerow([i, s.run, s.name, s.parent,
                             f"{s.start:.9f}", f"{s.end:.9f}"])


def span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a function that does
    nothing."""
    box = types.SimpleNamespace(noop=lambda: None)

    def timed() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            box.noop()
        return time.perf_counter() - t0

    plain = timed()
    tracer = Tracer()
    tracer.wrap(box, "noop", "noop")
    return max(0.0, (timed() - plain) / calls)


@dataclass
class Profile:
    """Per-name totals over the spans of one run."""

    calls: dict[str, int]
    total: dict[str, float]     # inclusive seconds
    self_s: dict[str, float]    # minus the time covered by child spans
    counts: dict[str, float]    # summed work counters, keyed "<span>.<counter>"


def profile(spans: list[Span], run: str) -> Profile:
    """Self time is a span's duration minus the durations of its children.

    Spans of one thread nest without overlap, so the children's durations are
    exactly the part of the parent's interval they cover.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.seconds
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s.run != run:
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        self_s[s.name] = self_s.get(s.name, 0.0) + s.seconds - child_time[i]
        for key, val in (s.counts or {}).items():
            full = f"{s.name}.{key}"
            counts[full] = counts.get(full, 0.0) + val
    return Profile(calls, total, self_s, counts)
