"""Spans and counters recorded from outside the program.

The benchmark wraps public functions at their module (or class)
attributes, so the program under test stays unchanged. A span is
(name, start, end, parent, run id); spans stay in memory until the run
ends. A span's self time is its duration minus the time its direct
children cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list
    run: int


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder with per-run counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    def spanned(self, name: str, before=None, after=None) -> Callable[[Callable], Callable]:
        """A wrapper factory for :meth:`Patches.wrap` that records a span.
        ``before(*args)`` and ``after(result, *args)`` run outside it."""

        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                index = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(index)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return wrapper

        return make

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    totals: dict[str, float] = defaultdict(float)
    for span, child_time in zip(spans, covered):
        totals[span.name] += span.end - span.start - child_time
    return dict(totals)


def inclusive_times(spans: list[Span], exclude: str | None = None) -> dict[str, float]:
    """Total duration per span name (no wrapped function recurses),
    less the time of the ``exclude`` spans nested at any depth."""
    excluded = [0.0] * len(spans)
    for span in spans:
        if span.name == exclude:
            parent = span.parent
            while parent is not None:
                excluded[parent] += span.end - span.start
                parent = spans[parent].parent
    totals: dict[str, float] = defaultdict(float)
    for span, less in zip(spans, excluded):
        totals[span.name] += span.end - span.start - less
    return dict(totals)


def call_counts(spans: list[Span]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span.name] += 1
    return dict(counts)
