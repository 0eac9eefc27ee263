"""Span tracer that wraps program functions where their callers look them up.

A wrapped call records a span (name, start, end, parent) in memory. Calls
made once per sample are aggregated instead: the tracer keeps only their
count and summed duration, charged to the innermost open span so that its
self time stays right. Aggregated targets must be leaves, calling no other
wrapped name.

Wrapping replaces an attribute of a module or class and remembers the
original object; ``restore`` puts every original back, so code run after a
traced pass is the unmodified program.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable

# A note turns (args, kwargs, result) into {counter name: increment}.
Note = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span], aggregated_child_s: dict[int, float]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover
    (overlapping children counted once) and minus aggregated leaf calls
    made directly under it."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[i]
        ]
        out.append(span.end - span.start - covered_length(clipped) - aggregated_child_s.get(i, 0.0))
    return out


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span | None] = []
        self.aggregates: dict[str, list] = {}  # name -> [calls, summed seconds]
        self.aggregated_child_s: dict[int, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installing and removing wrappers ---------------------------------

    def wrap(self, owner: Any, attr: str, name: str, aggregate: bool = False,
             note: Note | None = None) -> None:
        """Replace owner.attr (a module or class attribute) by a recording
        wrapper. The original is looked up in owner's own namespace. A note
        applies to span targets only."""
        original = vars(owner)[attr]
        if aggregate:
            wrapper = self._aggregate_wrapper(original, name)
        else:
            wrapper = self._span_wrapper(original, name, note)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _span_wrapper(self, fn, name: str, note: Note | None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if note is not None:
                for key, value in note(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _aggregate_wrapper(self, fn, name: str):
        stack, clock = self._stack, self.clock
        totals = self.aggregates.setdefault(name, [0, 0.0])
        charged = self.aggregated_child_s

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed
                charged[stack[-1] if stack else -1] += elapsed

        traced.__wrapped__ = fn
        return traced

    # -- results ----------------------------------------------------------

    def stats(self) -> dict[str, NameStats]:
        """Calls, summed duration and self time per name."""
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("stats() called while a traced call is still open")
        out: dict[str, NameStats] = defaultdict(NameStats)
        for span, own in zip(spans, self_times(spans, self.aggregated_child_s)):
            entry = out[span.name]
            entry.calls += 1
            entry.total_s += span.end - span.start
            entry.self_s += own
        for name, (calls, seconds) in self.aggregates.items():
            entry = out[name]
            entry.calls += calls
            entry.total_s += seconds
            entry.self_s += seconds
        return dict(out)

    def to_json(self) -> dict:
        """Spans, aggregates, counts and per-name stats as plain data."""
        return {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans if s is not None],
            "aggregates": {k: {"calls": v[0], "seconds": v[1]} for k, v in self.aggregates.items()},
            "counts": dict(self.counts),
            "stats": {name: asdict(entry) for name, entry in self.stats().items()},
        }
