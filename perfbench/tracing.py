"""In-memory span tracing around the program's public entry points.

The benchmark never edits the program: it wraps a method or module
function in place (``Tracer.wrap``), records one span per call — name,
start, end, parent span and request id — and restores the original on
``Tracer.uninstall``.  Spans stay in memory until the run ends; a server
process writes them to a JSON-lines file on shutdown (``Tracer.dump``).

A span's *self time* is its duration minus the part of that interval
covered by its child spans (``self_times``).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Iterable


class Span:
    """One timed call into a layer."""

    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs")

    def __init__(
        self,
        id: int,
        name: str,
        start: float,
        end: float = 0.0,
        parent: int = 0,
        request: str = "",
        attrs: dict | None = None,
    ) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects spans from wrapped callables; thread-safe for appends.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost open span on the calling thread.  A root span takes its
    request id from ``request_of(args, kwargs)`` when given, else from its
    own id; child spans inherit the parent's request id.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside the block (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        request_of: Callable[[tuple, dict], str | None] | None = None,
        attrs_of: Callable[[tuple, dict], dict] | None = None,
        on_result: Callable[[Span, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(next(tracer._ids), name, 0.0)
            if parent is not None:
                span.parent, span.request = parent.id, parent.request
            else:
                request = request_of(args, kwargs) if request_of is not None else None
                span.request = request if request is not None else f"#{span.id}"
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if on_result is not None:
                on_result(span, result)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        self._patches.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counters": self.counters}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a no-op."""

    class _Probe:
        def noop(self):
            return None

    probe = _Probe()
    started = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    bare = time.perf_counter() - started
    tracer = Tracer()
    tracer.wrap(_Probe, "noop", "probe")
    started = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    traced = time.perf_counter() - started
    tracer.uninstall()
    return max(0.0, (traced - bare) / calls)


def load_spans(path: str) -> tuple[list[Span], dict[str, float]]:
    """Read back what :meth:`Tracer.dump` wrote."""
    with open(path, encoding="utf-8") as handle:
        counters = json.loads(handle.readline())["counters"]
        spans = [Span(**json.loads(line)) for line in handle if line.strip()]
    return spans, counters


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def children_of(spans: Iterable[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append(span)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the time its child spans cover."""
    children = children_of(spans)
    result = {}
    for span in spans:
        kids = children.get(span.id, ())
        clipped = [
            (max(kid.start, span.start), min(kid.end, span.end))
            for kid in kids
            if kid.end > span.start and kid.start < span.end
        ]
        result[span.id] = span.duration - covered(clipped)
    return result


def descendant_time(
    span: Span, children: dict[int, list[Span]], names: set[str]
) -> float:
    """Time covered by the outermost descendants of ``span`` named in ``names``."""
    intervals = []
    pending = list(children.get(span.id, ()))
    while pending:
        kid = pending.pop()
        if kid.name in names:
            intervals.append((kid.start, kid.end))
        else:
            pending.extend(children.get(kid.id, ()))
    return covered(intervals)
