"""Host-time span recorder and the patching that feeds it.

A :class:`Recorder` keeps every span in memory as (name, start, end,
parent).  Spans come from wrappers that :class:`Patcher` installs around
public functions and methods of the program; the wrappers are removed
again by :meth:`Patcher.restore`, so code timed outside a traced run
always calls the original objects.

The arithmetic lives here too: a span's *self time* is its duration
minus the part of its interval that its child spans cover, a name's
*inclusive time* counts only its outermost occurrences (recursion is not
counted twice), and *coverage* is the share of a window that top-level
spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Nestable spans on one thread, plus named counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._open.pop()
        self.spans[index].end = self.clock()


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - _union(children.get(index, []))
        for index, span in enumerate(spans)
    ]


def self_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def inclusive_by_name(spans: list[Span]) -> dict[str, float]:
    """Per name: summed duration of spans with no same-named ancestor."""
    totals: dict[str, float] = {}
    for span in spans:
        ancestor = span.parent
        nested = False
        while ancestor is not None:
            if spans[ancestor].name == span.name:
                nested = True
                break
            ancestor = spans[ancestor].parent
        if not nested:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


def calls_by_name(spans: list[Span]) -> Counter:
    return Counter(span.name for span in spans)


def coverage(spans: list[Span], start: float, end: float) -> float:
    """Share of [start, end] covered by top-level spans (0 for an empty window)."""
    if end <= start:
        return 0.0
    clipped = [
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.parent is None and span.end > start and span.start < end
    ]
    return _union(clipped) / (end - start)


def traced(fn, name: str, recorder: Recorder, after=None):
    """*fn* wrapped in a span; ``after(counts, args, kwargs, result)``
    may add counters once the call returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(recorder.counts, args, kwargs, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


class Patcher:
    """Installs span wrappers and takes every one of them out again."""

    def __init__(self, recorder: Recorder, package: str) -> None:
        self.recorder = recorder
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, (type, types.ModuleType)):
            setattr(owner, attr, value)
        else:  # instance of a frozen dataclass
            object.__setattr__(owner, attr, value)

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        self._set(owner, attr, value)

    def function(self, module_name: str, attr: str, name: str, after=None) -> None:
        """Wrap a module-level function at every binding in the package."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = traced(original, name, self.recorder, after)
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, key, wrapper)

    def method(self, cls: type, attr: str, name: str, after=None) -> None:
        """Wrap a method (plain or static) defined on *cls* itself."""
        raw = vars(cls)[attr]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(traced(raw.__func__, name, self.recorder, after))
        else:
            wrapped = traced(raw, name, self.recorder, after)
        self.replace(cls, attr, wrapped)

    def attribute(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap a callable stored on an instance."""
        self.replace(owner, attr, traced(vars(owner)[attr], name, self.recorder, after))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            self._set(owner, attr, value)
        # a module imported while the wrappers were live may have bound one
        for module in self._modules():
            for key, value in list(vars(module).items()):
                original = getattr(value, "__perfbench_original__", None)
                if original is not None:
                    setattr(module, key, original)

