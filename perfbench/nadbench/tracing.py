"""In-memory spans around the benchmark's calls into nadphase, and a counting
coupling kernel.

A span holds its name, start, end, parent span and operation id. A span may
also stand for many calls made inside its parent (the kernel callbacks of one
``evolve``): then ``calls`` counts them and ``busy`` is their summed time, so
that a kernel evaluated thousands of times per step costs one record, not
thousands. Self time is a span's busy time minus the busy time of its
children.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from nadphase.paths import CouplingKernel


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = float("nan")
    calls: int = 1
    busy: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start if self.busy is None else self.busy


class Tracer:
    """Collects spans in memory; ``write`` stores them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = -1
        self.last: int | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, self.op, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            self.last = index

    def aggregate(self, parent: int, name: str, calls: int, busy: float) -> None:
        """Record ``calls`` calls made inside span ``parent``, ``busy`` seconds in all."""
        p = self.spans[parent]
        self.spans.append(Span(name, p.op, parent, p.start, p.end, calls, busy))

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed calls, busy seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            t = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += s.calls
            t["s"] += s.duration
            t["self_s"] += own
        return out

    def write(self, file) -> None:
        with open(file, "w") as fh:
            for i, (s, own) in enumerate(zip(self.spans, self.self_times())):
                fh.write(json.dumps({"id": i, "name": s.name, "op": s.op, "parent": s.parent,
                                     "start": s.start, "end": s.end, "calls": s.calls,
                                     "busy": s.duration, "self": own}) + "\n")


class KernelCounter:
    """Call counts per kernel member and the summed time spent in them."""

    def __init__(self):
        self.calls = Counter()
        self.busy = 0.0

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())


def counting_kernel(kernel: CouplingKernel, counter: KernelCounter) -> CouplingKernel:
    """A CouplingKernel whose members call ``kernel``'s and count into ``counter``.

    Values pass through untouched, so a trajectory from the wrapped kernel is
    bit-identical to one from ``kernel``.
    """

    def wrap(name, fn):
        def counted(t):
            t0 = time.perf_counter()
            value = fn(t)
            counter.busy += time.perf_counter() - t0
            counter.calls[name] += 1
            return value
        return counted

    return CouplingKernel(**{f.name: wrap(f.name, getattr(kernel, f.name))
                             for f in dataclasses.fields(kernel)})
