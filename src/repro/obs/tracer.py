"""Span tracing for the flush pipeline (near-zero-cost when off).

A :class:`Tracer` records a tree of named, monotonic-clock **spans**::

    tracer = Tracer()
    with tracer.span("flush"):
        with tracer.span("flush.build"):
            ...
        tracer.event("cache.miss")

Spans nest through a stack: each span remembers the index of its parent
(``-1`` for roots) and its depth, so the recorded flat list reconstructs
the tree without bookkeeping at read time.  :meth:`Tracer.event` records
a zero-duration span (cache hits, fault injections) at the current
depth.

**The off switch is the default.**  Every instrumented component takes a
tracer defaulting to :data:`NULL_TRACER`, whose ``span``/``event`` are
no-ops returning one shared, reusable context manager — instrumentation
with tracing off costs an attribute lookup and an empty ``with`` block,
which the obs-overhead benchmark pins to be within noise of the
pre-instrumentation hot path.

:class:`Stopwatch` is the shared timing helper that replaced the
``started = time.perf_counter()`` / ``elapsed_seconds = ...`` pairs
previously duplicated across the solvers: wrap the work in
``with stopwatch() as timer`` and read ``timer.seconds`` after the
block (``timer.elapsed`` gives a live reading inside it).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Stopwatch",
    "stopwatch",
    "aggregate_phases",
]


@dataclass(slots=True)
class Span:
    """One recorded span: a named, timed slice of the pipeline.

    ``start`` is a monotonic (``perf_counter``) timestamp — meaningful
    only relative to other spans of the same process.  ``seconds`` is
    0.0 while the span is open and for point events.  ``parent`` indexes
    the enclosing span in the tracer's flat list (-1 for roots);
    ``depth`` is the nesting level (roots are 0).
    """

    name: str
    start: float
    seconds: float
    parent: int
    index: int
    depth: int

    def to_dict(self) -> dict:
        """A JSON-ready mapping (the JSONL trace-dump row)."""
        return {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "parent": self.parent,
            "index": self.index,
            "depth": self.depth,
        }


class _SpanContext:
    """Context manager recording one span on enter/exit."""

    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack
        span = Span(
            name=self._name,
            start=perf_counter(),
            seconds=0.0,
            parent=stack[-1] if stack else -1,
            index=len(tracer.spans),
            depth=len(stack),
        )
        self._index = span.index
        tracer.spans.append(span)
        stack.append(span.index)
        return span

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        span = tracer.spans[self._index]
        span.seconds = perf_counter() - span.start
        tracer._stack.pop()


class Tracer:
    """Append-only span recorder with a nesting stack.

    One tracer serves one logical timeline (a stream run); the flush
    pipeline's components all write into the owner's tracer, so a whole
    run is one flat, ordered span list (``spans``).  ``enabled`` lets
    hot paths skip work that only feeds tracing (phase aggregation, say)
    without type-checking against :class:`NullTracer`.
    """

    enabled = True

    __slots__ = ("spans", "_stack")

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str) -> _SpanContext:
        """A context manager recording one named span around its body."""
        return _SpanContext(self, name)

    def event(self, name: str) -> None:
        """Record a zero-duration point event at the current depth."""
        stack = self._stack
        self.spans.append(
            Span(
                name=name,
                start=perf_counter(),
                seconds=0.0,
                parent=stack[-1] if stack else -1,
                index=len(self.spans),
                depth=len(stack),
            )
        )

    def mark(self) -> int:
        """The current span count — pair with :meth:`since` to slice."""
        return len(self.spans)

    def since(self, mark: int) -> list[Span]:
        """Spans recorded at or after a :meth:`mark` (completion order)."""
        return self.spans[mark:]


class _NullSpanContext:
    """The shared no-op context manager of :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """The do-nothing tracer every instrumented component defaults to.

    ``span`` hands back one shared context manager and ``event`` returns
    immediately, so instrumentation points cost almost nothing with
    tracing off.  ``spans`` is an empty tuple: reading code can treat
    null and real tracers uniformly.
    """

    enabled = False

    __slots__ = ()

    spans: tuple = ()

    def span(self, name: str) -> _NullSpanContext:
        return _NULL_SPAN

    def event(self, name: str) -> None:
        return None

    def mark(self) -> int:
        return 0

    def since(self, mark: int) -> tuple:
        return ()


#: The process-wide no-op tracer (stateless, safe to share everywhere).
NULL_TRACER = NullTracer()


class Stopwatch:
    """The shared wall-clock helper behind every ``elapsed_seconds``.

    ``seconds`` is set when the ``with`` block exits; ``elapsed`` reads
    live while it is still open.
    """

    __slots__ = ("started", "seconds")

    def __init__(self) -> None:
        self.started = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self.started = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = perf_counter() - self.started

    @property
    def elapsed(self) -> float:
        """Seconds since entry (live; equals ``seconds`` after exit)."""
        return perf_counter() - self.started


def stopwatch() -> Stopwatch:
    """A fresh :class:`Stopwatch` (reads as English at the ``with`` site)."""
    return Stopwatch()


def aggregate_phases(
    spans: "list[Span] | tuple",
    prefix: str = "flush.",
    root: str = "flush",
) -> dict[str, float]:
    """Sum phase spans directly under one ``root`` span by short name.

    ``spans`` is one flush's slice (``tracer.since(mark)``): the first
    span named ``root`` anchors the tree, and every ``prefix``-named
    span exactly one level below it contributes its seconds under its
    suffix (``"flush.solve"`` → ``"solve"``).  Deeper spans (engine
    rounds, point events) are ignored — they are *inside* a phase, and
    counting them would double-book time.
    """
    totals: dict[str, float] = {}
    root_depth: int | None = None
    for span in spans:
        if root_depth is None:
            if span.name == root:
                root_depth = span.depth
            continue
        if span.depth == root_depth + 1 and span.name.startswith(prefix):
            phase = span.name[len(prefix):]
            totals[phase] = totals.get(phase, 0.0) + span.seconds
    return totals
