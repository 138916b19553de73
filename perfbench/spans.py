"""Runtime patching and span recording around calls into affground.

Everything here works from outside the package: a target such as
``affground.backbone:PointBackbone.build_plan`` is looked up at run time
and its attribute replaced by a wrapper, and every patch is undone when
the run ends. A target that no longer exists is recorded as missing
instead of failing the run, so a later refactor of the package shows up
as a skipped metric rather than a crash.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# phases in the order a per-layer metric looks for its spans: the
# measured loop first, then set-up, input generation and output checks
PHASES = ("main", "setup", "input", "check", "overhead")


def resolve(target: str):
    """'pkg.module:Attr.sub' -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Patches:
    """Attribute replacements that can all be undone in reverse order."""

    def __init__(self):
        self._undo = []
        self.missing = {}

    def apply(self, target: str, make) -> bool:
        """Replace ``target`` by ``make(original)``; False if it is missing."""
        try:
            owner, attr = resolve(target)
            original = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            self.missing[target] = f"{type(exc).__name__}: {exc}"
            return False
        replacement = functools.wraps(original)(make(original))
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))
        return True

    def undo(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@dataclass
class Span:
    name: str
    phase: str
    start: float
    end: float = 0.0
    parent: int = -1          # index of the enclosing span, -1 at top level
    child_time: float = 0.0   # summed duration of direct children
    macs: int = 0             # matmul multiply-accumulates inside the span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans with parent links; recording only while active."""

    def __init__(self):
        self.active = False
        self.phase = "main"
        self.spans: list[Span] = []
        self.macs = 0
        self.counts: dict = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.phase, time.perf_counter(), parent=parent)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        macs_before = self.macs
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.macs = self.macs - macs_before
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_time += span.duration

    def count(self, name: str, n: int = 1):
        if self.active:
            key = (self.phase, name)
            self.counts[key] = self.counts.get(key, 0) + n

    def timed(self, name: str):
        """Factory for Patches.apply: time every call while active."""
        def make(original):
            def timed_call(*args, **kwargs):
                if not self.active:
                    return original(*args, **kwargs)
                with self.span(name):
                    return original(*args, **kwargs)
            return timed_call
        return make

    def counting_matmul(self, original):
        """Factory for Patches.apply: add each product's MACs while active."""
        def matmul(a, b):
            if self.active:
                self.macs += a.shape[0] * a.shape[1] * b.shape[1]
            return original(a, b)
        return matmul

    # -- analysis ------------------------------------------------------

    def phase_of(self, names) -> str | None:
        """First phase (in PHASES order) with a span of any of ``names``."""
        present = {s.phase for s in self.spans if s.name in names}
        return next((p for p in PHASES if p in present), None)

    def total(self, names, phase: str) -> float:
        return sum(s.duration for s in self.spans
                   if s.name in names and s.phase == phase)

    def calls(self, name: str, phase: str) -> int:
        return sum(1 for s in self.spans if s.name == name and s.phase == phase)

    def covered(self, start: float, end: float) -> float:
        """Time inside [start, end] spent in top-level spans."""
        return sum(s.duration for s in self.spans
                   if s.parent == -1 and s.start >= start and s.end <= end)

    def table(self) -> list:
        """Per (phase, span name): calls, total, self time, matmul GMAC."""
        rows = {}
        for s in self.spans:
            row = rows.setdefault((s.phase, s.name), {
                "phase": s.phase, "name": s.name, "calls": 0,
                "total_s": 0.0, "self_s": 0.0, "gmac": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - s.child_time
            row["gmac"] += s.macs / 1e9
        order = {p: i for i, p in enumerate(PHASES)}
        return sorted(rows.values(),
                      key=lambda r: (order.get(r["phase"], len(order)),
                                     -r["total_s"]))
