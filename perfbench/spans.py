"""In-memory span recorder and self-time accounting for the traced run.

A span records the name, start, end, parent span and thread of one call.
Spans stay in memory and are written out when the traced process ends.
A span's self time is its duration minus the durations of its child spans
on the same thread, so nested calls are never counted twice.

All timestamps come from CLOCK_MONOTONIC, which on Linux is one clock for
every process: the benchmark compares a child's timestamps with the
moment it launched the child.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict


class Tracer:
    """Records one span per call of every function wrapped by `wrap`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # next() on itertools.count and list.append are single C calls,
        # so worker threads can record spans without a lock.
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn: Callable, annotate: Callable | None = None,
             parent: int | None = None) -> Callable:
        """`fn` wrapped to record a span named `name`.

        `annotate(args, kwargs, result)` returns extra attributes for the
        span.  `parent` is the parent of spans that open on a thread with
        no enclosing span, such as the workers of a thread pool.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            par = stack[-1] if stack else parent
            attrs: dict = {}
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, par,
                                       threading.get_ident(), attrs))
            if annotate is not None:
                attrs.update(annotate(args, kwargs, result))
            return result

        return wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its same-thread children."""
    thread_of = {s.id: s.thread for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None and thread_of.get(s.parent) == s.thread:
            covered[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


def by_name(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, total self seconds)."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        seconds[s.name] += own[s.id]
    return {name: (calls[name], seconds[name]) for name in calls}
